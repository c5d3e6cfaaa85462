//! Tie a [`DavHandler`] to the HTTP server — the Apache+mod_dav analogue.

use crate::error::Result;
use crate::handler::DavHandler;
use crate::repo::Repository;
use pse_http::server::{Server, ServerConfig};
use std::net::ToSocketAddrs;

/// Serve a DAV handler on `addr` with the given connection management
/// configuration. The returned [`Server`] owns the worker pool; call
/// [`Server::shutdown`] to stop it.
///
/// Unless the config already names a registry, the HTTP server records
/// into the handler's, so `GET /.well-known/metrics` exposes every
/// layer — transport, DAV dispatch, property cache, storage engines —
/// in one scrape.
pub fn serve<A, R>(addr: A, mut config: ServerConfig, handler: DavHandler<R>) -> Result<Server>
where
    A: ToSocketAddrs,
    R: Repository,
{
    if config.obs.is_none() {
        config.obs = Some(handler.registry());
    }
    Ok(Server::bind(addr, config, move |req| handler.handle(req))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsrepo::{FsConfig, FsRepository};
    use crate::memrepo::MemRepository;
    use pse_http::{Client, Method, Request};

    #[test]
    fn end_to_end_over_tcp() {
        let srv = serve(
            "127.0.0.1:0",
            ServerConfig::default(),
            DavHandler::new(MemRepository::new()),
        )
        .unwrap();
        let mut c = Client::connect(srv.local_addr()).unwrap();
        assert_eq!(
            c.send(Request::new(Method::MkCol, "/proj"))
                .unwrap()
                .status
                .code(),
            201
        );
        assert_eq!(c.put("/proj/doc", "hello").unwrap().status.code(), 201);
        assert_eq!(c.get("/proj/doc").unwrap().body_text(), "hello");
        let resp = c
            .send(Request::new(Method::PropFind, "/proj").with_header("Depth", "1"))
            .unwrap();
        assert_eq!(resp.status.code(), 207);
        assert!(resp.body_text().contains("multistatus"));
        srv.shutdown();
    }

    #[test]
    fn metrics_scrape_covers_every_layer() {
        // One scrape of /.well-known/metrics must surface the transport
        // (http.*), dispatch (dav.*), property cache (dav.prop_cache.*),
        // property index (dav.propindex.*) and storage engine (dbm.*) in
        // a single exposition.
        let dir = std::env::temp_dir().join(format!("pse-dav-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
        let srv = serve(
            "127.0.0.1:0",
            ServerConfig::default(),
            DavHandler::new(repo),
        )
        .unwrap();
        let mut c = Client::connect(srv.local_addr()).unwrap();
        assert_eq!(
            c.send(Request::new(Method::MkCol, "/proj"))
                .unwrap()
                .status
                .code(),
            201
        );
        assert_eq!(c.put("/proj/doc", "hello").unwrap().status.code(), 201);
        let patch = r#"<?xml version="1.0"?>
            <D:propertyupdate xmlns:D="DAV:" xmlns:e="urn:ecce">
              <D:set><D:prop><e:formula>H2O</e:formula></D:prop></D:set>
            </D:propertyupdate>"#;
        assert_eq!(
            c.send(Request::new(Method::PropPatch, "/proj/doc").with_body(patch))
                .unwrap()
                .status
                .code(),
            207
        );
        // One SEARCH that selects the property it matches: answered from
        // the index and evaluated on the named property alone.
        let search = r#"<D:searchrequest xmlns:D="DAV:" xmlns:e="urn:ecce"><D:basicsearch>
              <D:select><D:prop><e:formula/></D:prop></D:select>
              <D:from><D:scope><D:href>/proj</D:href></D:scope></D:from>
              <D:where><D:eq><D:prop><e:formula/></D:prop><D:literal>H2O</D:literal></D:eq></D:where>
            </D:basicsearch></D:searchrequest>"#;
        assert_eq!(
            c.send(Request::new(Method::Search, "/").with_body(search))
                .unwrap()
                .status
                .code(),
            207
        );
        // Two PROPFINDs: the second is served from the property cache.
        for _ in 0..2 {
            let resp = c
                .send(Request::new(Method::PropFind, "/proj/doc").with_header("Depth", "0"))
                .unwrap();
            assert_eq!(resp.status.code(), 207);
        }
        let text = c.get(pse_http::server::METRICS_PATH).unwrap().body_text();
        use pse_obs::parse_text_metric as metric;
        // Transport layer.
        assert_eq!(metric(&text, "http.requests.propfind"), Some(2), "{text}");
        assert!(metric(&text, "http.bytes_out").unwrap() > 0);
        // DAV dispatch layer.
        assert_eq!(metric(&text, "dav.latency_us.propfind"), Some(2), "{text}");
        assert!(
            metric(&text, "dav.multistatus_bytes").unwrap() >= 3,
            "{text}"
        );
        // Property cache (PR-1 stats, now on the shared registry).
        assert!(metric(&text, "dav.prop_cache.hits").unwrap() >= 1, "{text}");
        assert!(
            metric(&text, "dav.prop_cache.misses").unwrap() >= 1,
            "{text}"
        );
        // Search planner.
        assert_eq!(metric(&text, "dav.search.indexed"), Some(1), "{text}");
        assert_eq!(metric(&text, "dav.search.scan_fallback"), Some(0), "{text}");
        assert_eq!(metric(&text, "dav.search.narrowed"), Some(1), "{text}");
        assert_eq!(metric(&text, "dav.search.candidates"), Some(1), "{text}");
        assert_eq!(metric(&text, "dav.search.matched"), Some(1), "{text}");
        // It selects only the property its `eq` constrains: covered.
        assert_eq!(metric(&text, "dav.search.covered"), Some(1), "{text}");
        // Property index: the PROPPATCH made one entry and the SEARCH
        // probe hit. A fresh root has no persisted index, so opening it
        // rebuilt (and compacted) one.
        assert_eq!(metric(&text, "dav.propindex.entries"), Some(1), "{text}");
        assert_eq!(metric(&text, "dav.propindex.hits"), Some(1), "{text}");
        assert_eq!(metric(&text, "dav.propindex.misses"), Some(0), "{text}");
        assert_eq!(
            metric(&text, "dav.propindex.rebuilt_on_open"),
            Some(1),
            "{text}"
        );
        assert_eq!(
            metric(&text, "dav.propindex.compactions"),
            Some(1),
            "{text}"
        );
        // Storage engine statics.
        assert!(metric(&text, "dbm.page_writes").unwrap() >= 1, "{text}");
        // Path-lock table: every repository call above went through a
        // sharded lock plan, so acquisitions must be visible (and the
        // configured shard count exported as a gauge).
        assert!(
            metric(&text, "dav.pathlock.acquisitions").unwrap() > 0,
            "{text}"
        );
        assert_eq!(
            metric(&text, "dav.pathlock.shards"),
            Some(crate::pathlock::DEFAULT_SHARDS as i64),
            "{text}"
        );
        srv.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
