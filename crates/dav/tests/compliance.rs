//! DAV protocol compliance suite.
//!
//! The paper: "As of this writing, no public protocol compliance test
//! suites exist for DAV. Test programs were developed to test each DAV
//! method (put, proppatch, propfind…)". This file is that suite — every
//! method exercised end-to-end over real TCP against the mod_dav-style
//! filesystem repository, with both DBM backends.

use pse_dav::client::{DavClient, ParseMode};
use pse_dav::depth::Depth;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::handler::DavHandler;
use pse_dav::lock::LockScope;
use pse_dav::property::{Property, PropertyName};
use pse_dav::server::serve;
use pse_dbm::DbmKind;
use pse_http::server::ServerConfig;
use pse_http::{Method, Request};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static N: AtomicU64 = AtomicU64::new(0);

struct Rig {
    server: Option<pse_http::server::Server>,
    client: DavClient,
    repo: std::sync::Arc<FsRepository>,
    dir: PathBuf,
}

impl Rig {
    fn new(kind: DbmKind) -> Rig {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "pse-dav-compliance-{}-{n}-{}",
            kind.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let repo = FsRepository::create(
            &dir,
            FsConfig {
                dbm_kind: kind,
                ..FsConfig::default()
            },
        )
        .unwrap();
        let handler = DavHandler::new(repo);
        let repo = handler.repo();
        let server = serve("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let client = DavClient::connect(server.local_addr()).unwrap();
        Rig {
            server: Some(server),
            client,
            repo,
            dir,
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const ECCE: &str = "http://emsl.pnl.gov/ecce";

#[test]
fn options_reports_class_2() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let dav = rig.client.options().unwrap();
    assert!(dav.starts_with("1,2"), "{dav}");
}

#[test]
fn full_document_lifecycle() {
    for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
        let mut rig = Rig::new(kind);
        let c = &mut rig.client;
        c.mkcol("/Projects").unwrap();
        assert!(c
            .put("/Projects/mol.xyz", "3\nwater\nO 0 0 0\nH 0 0 1\nH 0 1 0", Some("chemical/x-xyz"))
            .unwrap());
        assert!(!c.put("/Projects/mol.xyz", "updated", None).unwrap());
        assert_eq!(c.get("/Projects/mol.xyz").unwrap(), b"updated");
        assert!(c.exists("/Projects/mol.xyz").unwrap());
        c.delete("/Projects/mol.xyz").unwrap();
        assert!(!c.exists("/Projects/mol.xyz").unwrap());
    }
}

#[test]
fn propfind_depth_semantics() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;
    c.mkcol("/c").unwrap();
    c.mkcol("/c/sub").unwrap();
    c.put("/c/a", "1", None).unwrap();
    c.put("/c/sub/b", "22", None).unwrap();

    let d0 = c.propfind_all("/c", Depth::Zero).unwrap();
    assert_eq!(d0.responses.len(), 1);
    let d1 = c.propfind_all("/c", Depth::One).unwrap();
    assert_eq!(d1.responses.len(), 3);
    let dinf = c.propfind_all("/c", Depth::Infinity).unwrap();
    assert_eq!(dinf.responses.len(), 4);

    // resourcetype distinguishes collection from document.
    assert!(c.is_collection("/c").unwrap());
    assert!(!c.is_collection("/c/a").unwrap());
    // getcontentlength matches.
    let len = c
        .get_prop("/c/sub/b", &PropertyName::dav("getcontentlength"))
        .unwrap();
    assert_eq!(len.as_deref(), Some("2"));
}

#[test]
fn dead_properties_roundtrip_over_wire() {
    for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
        let mut rig = Rig::new(kind);
        let c = &mut rig.client;
        c.put("/mol", "geom", None).unwrap();
        let formula = PropertyName::new(ECCE, "formula");
        let sym = PropertyName::new(ECCE, "symmetry-group");
        c.proppatch_set("/mol", &formula, "UO2(H2O)15").unwrap();
        c.proppatch_set("/mol", &sym, "C2v").unwrap();
        assert_eq!(
            c.get_prop("/mol", &formula).unwrap().as_deref(),
            Some("UO2(H2O)15")
        );
        // propname lists both without values.
        let names = c.propfind_names("/mol", Depth::Zero).unwrap();
        let all: Vec<String> = names.responses[0]
            .ok_props()
            .map(|p| p.name.local.clone())
            .collect();
        assert!(all.contains(&"formula".to_owned()));
        assert!(all.contains(&"symmetry-group".to_owned()));
        // Remove one.
        c.proppatch_remove("/mol", &sym).unwrap();
        assert_eq!(c.get_prop("/mol", &sym).unwrap(), None);
        assert!(c.get_prop("/mol", &formula).unwrap().is_some());
    }
}

#[test]
fn structured_xml_property_value() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;
    c.put("/m", "", None).unwrap();
    // A complex value: XML inside the property, as §3.1 promises.
    let mut value = pse_xml::dom::Element::new(Some(ECCE), "thermodynamics");
    let mut h = pse_xml::dom::Element::new(Some(ECCE), "enthalpy");
    h.set_attr(None, "units", "kcal/mol");
    h.push_text("-57.8");
    value.push_elem(h);
    let prop = Property::from_element(value);
    c.proppatch("/m", std::slice::from_ref(&prop), &[]).unwrap();

    let name = PropertyName::new(ECCE, "thermodynamics");
    let ms = c.propfind("/m", Depth::Zero, std::slice::from_ref(&name)).unwrap();
    let got = ms.responses[0].prop(&name).unwrap();
    let h = got.value.child(Some(ECCE), "enthalpy").unwrap();
    assert_eq!(h.attr(None, "units"), Some("kcal/mol"));
    assert_eq!(h.text(), "-57.8");
}

#[test]
fn copy_and_move_preserve_metadata() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;
    c.mkcol("/src").unwrap();
    c.put("/src/doc", "payload", None).unwrap();
    let k = PropertyName::new(ECCE, "k");
    c.proppatch_set("/src/doc", &k, "v").unwrap();

    assert!(c.copy("/src", "/copy", false).unwrap());
    assert_eq!(c.get_prop("/copy/doc", &k).unwrap().as_deref(), Some("v"));
    assert_eq!(c.get("/copy/doc").unwrap(), b"payload");
    // COPY to existing without overwrite → 412 surfaces as error.
    assert!(c.copy("/src", "/copy", false).is_err());

    assert!(c.move_("/src", "/moved", false).unwrap());
    assert!(!c.exists("/src").unwrap());
    assert_eq!(c.get_prop("/moved/doc", &k).unwrap().as_deref(), Some("v"));
}

#[test]
fn lock_protocol_over_wire() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let addr = rig.server.as_ref().unwrap().local_addr();
    let c = &mut rig.client;
    c.put("/locked-doc", "v1", None).unwrap();
    let token = c
        .lock(
            "/locked-doc",
            LockScope::Exclusive,
            Depth::Zero,
            "karen",
            Some(std::time::Duration::from_secs(60)),
        )
        .unwrap();
    assert!(token.starts_with("opaquelocktoken:"));

    // A second client cannot write.
    let mut other = DavClient::connect(addr).unwrap();
    let err = other.put("/locked-doc", "intruder", None).unwrap_err();
    assert!(pse_dav::client::is_locked_error(&err), "{err}");
    // Nor lock again.
    assert!(other
        .lock("/locked-doc", LockScope::Exclusive, Depth::Zero, "eric", None)
        .is_err());

    // The holder can write with the token.
    c.put_locked("/locked-doc", "v2", &token).unwrap();
    assert_eq!(c.get("/locked-doc").unwrap(), b"v2");

    // lockdiscovery is visible.
    let ld = c
        .get_prop("/locked-doc", &PropertyName::dav("lockdiscovery"))
        .unwrap()
        .unwrap();
    assert!(ld.contains("opaquelocktoken"), "{ld}");

    c.unlock("/locked-doc", &token).unwrap();
    other.put("/locked-doc", "free", None).unwrap();
}

#[test]
fn search_over_wire() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;
    c.mkcol("/mols").unwrap();
    for (name, formula) in [("water", "H2O"), ("uranyl", "UO2"), ("ice", "H2O")] {
        c.put(&format!("/mols/{name}"), "x", None).unwrap();
        c.proppatch_set(
            &format!("/mols/{name}"),
            &PropertyName::new(ECCE, "formula"),
            formula,
        )
        .unwrap();
    }
    let mut hrefs = c
        .search_eq("/mols", &PropertyName::new(ECCE, "formula"), "H2O")
        .unwrap();
    hrefs.sort();
    assert_eq!(hrefs, vec!["/mols/ice", "/mols/water"]);
}

#[test]
fn versioning_over_wire() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;
    c.put("/input.nw", "title 'run 1'", None).unwrap();
    c.version_control("/input.nw").unwrap();
    c.put("/input.nw", "title 'run 2'", None).unwrap();
    c.put("/input.nw", "title 'run 3 longer'", None).unwrap();
    let tree = c.version_tree("/input.nw").unwrap();
    assert_eq!(tree.len(), 3);
    assert_eq!(tree[0].0, 1);
    assert_eq!(
        c.version_content("/input.nw", 1).unwrap(),
        b"title 'run 1'"
    );
    assert_eq!(
        c.version_content("/input.nw", 3).unwrap(),
        b"title 'run 3 longer'"
    );
}

#[test]
fn dom_and_sax_clients_agree_over_wire() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let addr = rig.server.as_ref().unwrap().local_addr();
    {
        let c = &mut rig.client;
        c.mkcol("/data").unwrap();
        for i in 0..20 {
            let p = format!("/data/doc{i:02}");
            c.put(&p, format!("body {i}"), None).unwrap();
            c.proppatch_set(&p, &PropertyName::new(ECCE, "index"), &i.to_string())
                .unwrap();
        }
    }
    let mut dom = DavClient::connect(addr).unwrap();
    dom.set_parse_mode(ParseMode::Dom);
    let mut sax = DavClient::connect(addr).unwrap();
    sax.set_parse_mode(ParseMode::Sax);
    let a = dom.propfind_all("/data", Depth::One).unwrap();
    let b = sax.propfind_all("/data", Depth::One).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.responses.len(), 21);
}

#[test]
fn error_statuses_are_correct() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;
    // 404 on missing GET.
    assert!(c.get("/nope").is_err());
    assert!(!c.exists("/nope").unwrap());
    // 409 on PUT without parent.
    let resp = c
        .http()
        .send(Request::new(Method::Put, "/no/parent/doc").with_body("x"))
        .unwrap();
    assert_eq!(resp.status.code(), 409);
    // 405 on MKCOL over existing.
    c.mkcol("/dir").unwrap();
    let resp = c.http().send(Request::new(Method::MkCol, "/dir")).unwrap();
    assert_eq!(resp.status.code(), 405);
    // 400 on malformed PROPFIND.
    let resp = c
        .http()
        .send(Request::new(Method::PropFind, "/dir").with_xml_body("<bad"))
        .unwrap();
    assert_eq!(resp.status.code(), 400);
    // 501 on unknown method.
    let resp = c
        .http()
        .send(Request::new(Method::Extension("BREW".into()), "/dir"))
        .unwrap();
    assert_eq!(resp.status.code(), 501);
}

#[test]
fn collection_get_is_browsable_html() {
    // "Ecce users can run standard Web browsers to surf the Ecce
    // database" — a GET on a collection returns an HTML index.
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;
    c.mkcol("/surf").unwrap();
    c.put("/surf/image.png", vec![0u8; 16], Some("image/png")).unwrap();
    let html = String::from_utf8(c.get("/surf").unwrap()).unwrap();
    assert!(html.contains("<a href=\"/surf/image.png\""), "{html}");
}

#[test]
fn unicode_and_spaces_in_paths() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;
    c.mkcol("/mol\u{00e9}cules").unwrap();
    c.put("/mol\u{00e9}cules/uranyl aqua", "data", None).unwrap();
    assert_eq!(c.get("/mol\u{00e9}cules/uranyl aqua").unwrap(), b"data");
    let ms = c.propfind_all("/mol\u{00e9}cules", Depth::One).unwrap();
    assert!(ms
        .responses
        .iter()
        .any(|r| r.href == "/mol\u{00e9}cules/uranyl aqua"));
}

// ---- conditional requests and caching ----

#[test]
fn conditional_get_revalidates_over_wire() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;
    c.put("/doc", "payload", None).unwrap();

    let resp = c.http().send(Request::new(Method::Get, "/doc")).unwrap();
    assert_eq!(resp.status.code(), 200);
    let etag = resp.headers.get("ETag").unwrap().to_owned();
    let last_modified = resp.headers.get("Last-Modified").unwrap().to_owned();

    // If-None-Match with the current etag → 304, no body on the wire.
    let resp = c
        .http()
        .send(Request::new(Method::Get, "/doc").with_header("If-None-Match", &etag))
        .unwrap();
    assert_eq!(resp.status.code(), 304);
    assert!(resp.body.is_empty());
    assert_eq!(resp.headers.get("ETag"), Some(etag.as_str()));

    // If-Modified-Since at the server's own Last-Modified must also
    // revalidate — the header truncates to seconds, so the comparison
    // has to be at second granularity even though mtimes carry nanos.
    let resp = c
        .http()
        .send(Request::new(Method::Get, "/doc").with_header("If-Modified-Since", &last_modified))
        .unwrap();
    assert_eq!(resp.status.code(), 304);

    // HEAD revalidates the same way.
    let resp = c
        .http()
        .send(Request::new(Method::Head, "/doc").with_header("If-None-Match", &etag))
        .unwrap();
    assert_eq!(resp.status.code(), 304);

    // A stale validator transfers the entity again.
    let resp = c
        .http()
        .send(Request::new(Method::Get, "/doc").with_header("If-None-Match", "\"stale\""))
        .unwrap();
    assert_eq!(resp.status.code(), 200);
    assert_eq!(resp.body, b"payload");
}

#[test]
fn head_content_length_matches_get() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;
    c.mkcol("/coll").unwrap();
    c.put("/coll/doc", "a document body", Some("text/plain")).unwrap();
    for path in ["/coll/doc", "/coll"] {
        let get = c.http().send(Request::new(Method::Get, path)).unwrap();
        let head = c.http().send(Request::new(Method::Head, path)).unwrap();
        assert_eq!((get.status.code(), head.status.code()), (200, 200), "{path}");
        assert!(!get.body.is_empty(), "{path}");
        assert!(head.body.is_empty(), "{path}: HEAD sent a body");
        let length = |r: &pse_http::Response| r.headers.get("Content-Length").map(str::to_owned);
        assert_eq!(length(&get), Some(get.body.len().to_string()), "{path}");
        assert_eq!(length(&head), length(&get), "{path}");
    }
}

#[test]
fn etag_moves_after_put_and_proppatch() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;
    c.put("/doc", "v1", None).unwrap();
    let etag = |c: &mut DavClient| {
        c.http()
            .send(Request::new(Method::Head, "/doc"))
            .unwrap()
            .headers
            .get("ETag")
            .unwrap()
            .to_owned()
    };
    let e1 = etag(c);
    std::thread::sleep(std::time::Duration::from_millis(20));
    c.put("/doc", "v2", None).unwrap();
    let e2 = etag(c);
    assert_ne!(e1, e2, "PUT must move the entity tag");
    // PROPPATCH changes no bytes of the body, but it changes the
    // entity a PROPFIND-aware cache observes — the etag must move so
    // cached views revalidate (the props DBM mtime folds into it).
    std::thread::sleep(std::time::Duration::from_millis(20));
    c.proppatch_set("/doc", &PropertyName::new(ECCE, "basis"), "6-31G*")
        .unwrap();
    let e3 = etag(c);
    assert_ne!(e2, e3, "PROPPATCH must move the entity tag");
}

#[test]
fn conditional_put_and_if_header_over_wire() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let c = &mut rig.client;

    // If-None-Match: * — create-only PUT.
    let send_put = |c: &mut DavClient, hdr: (&str, String), body: &str| {
        c.http()
            .send(
                Request::new(Method::Put, "/cas")
                    .with_header(hdr.0, hdr.1)
                    .with_body(body),
            )
            .unwrap()
            .status
            .code()
    };
    assert_eq!(send_put(c, ("If-None-Match", "*".into()), "v1"), 201);
    assert_eq!(send_put(c, ("If-None-Match", "*".into()), "v2"), 412);
    assert_eq!(c.get("/cas").unwrap(), b"v1");

    // If-Match guards lost updates: stale etag → 412, current → 204.
    let etag = c
        .http()
        .send(Request::new(Method::Head, "/cas"))
        .unwrap()
        .headers
        .get("ETag")
        .unwrap()
        .to_owned();
    assert_eq!(send_put(c, ("If-Match", "\"stale\"".into()), "v2"), 412);
    assert_eq!(send_put(c, ("If-Match", etag.clone()), "v2"), 204);
    assert_eq!(send_put(c, ("If-Match", etag.clone()), "v3"), 412);
    assert_eq!(c.get("/cas").unwrap(), b"v2");

    // RFC 2518 If header etag conditions are enforced too.
    let etag = c
        .http()
        .send(Request::new(Method::Head, "/cas"))
        .unwrap()
        .headers
        .get("ETag")
        .unwrap()
        .to_owned();
    assert_eq!(send_put(c, ("If", format!("([{etag}])")), "v3"), 204);
    assert_eq!(send_put(c, ("If", format!("([{etag}])")), "v4"), 412);
    assert_eq!(c.get("/cas").unwrap(), b"v3");
}

#[test]
fn server_property_cache_invalidated_by_every_mutating_method() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let repo = std::sync::Arc::clone(&rig.repo);
    let c = &mut rig.client;
    let inv = || repo.cache_stats().invalidations;
    // Warm the property cache for a path, run one mutation, and check
    // the cached snapshot was dropped (the invalidation counter moved).
    let check = |c: &mut DavClient, warm_path: &str, what: &str, m: &mut dyn FnMut(&mut DavClient)| {
        c.propfind_all(warm_path, Depth::Zero).unwrap();
        let before = inv();
        m(c);
        assert!(
            inv() > before,
            "{what} did not invalidate the server property cache"
        );
    };

    c.mkcol("/inv").unwrap();
    c.put("/inv/a", "v1", None).unwrap();
    let k = PropertyName::new(ECCE, "k");

    check(c, "/inv/a", "PUT", &mut |c| {
        c.put("/inv/a", "v2", None).unwrap();
    });
    check(c, "/inv/a", "PROPPATCH set", &mut |c| {
        c.proppatch_set("/inv/a", &k, "v").unwrap();
    });
    check(c, "/inv/a", "PROPPATCH remove", &mut |c| {
        c.proppatch_remove("/inv/a", &k).unwrap();
    });
    c.put("/inv/b", "old", None).unwrap();
    check(c, "/inv/b", "COPY onto existing", &mut |c| {
        c.copy("/inv/a", "/inv/b", true).unwrap();
    });
    check(c, "/inv/b", "MOVE", &mut |c| {
        c.move_("/inv/b", "/inv/c", false).unwrap();
    });
    check(c, "/inv/c", "DELETE", &mut |c| {
        c.delete("/inv/c").unwrap();
    });
    // MOVE of a collection flushes the whole cached subtree.
    c.propfind_all("/inv", Depth::One).unwrap();
    let before = inv();
    c.move_("/inv", "/inv2", false).unwrap();
    assert!(inv() > before, "collection MOVE must flush the subtree");
    // LOCK of an unmapped URL creates a resource (a write).
    c.mkcol("/lk").unwrap();
    c.propfind_all("/lk", Depth::One).unwrap();
    let token = c
        .lock("/lk/new", LockScope::Exclusive, Depth::Zero, "o", None)
        .unwrap();
    c.unlock("/lk/new", &token).unwrap();
    // After all that churn the cache still answers correctly.
    let ms = c.propfind_all("/inv2", Depth::One).unwrap();
    assert_eq!(ms.responses.len(), 2); // /inv2 and /inv2/a
}

#[test]
fn client_validating_cache_end_to_end() {
    let mut rig = Rig::new(DbmKind::Gdbm);
    let addr = rig.server.as_ref().unwrap().local_addr();
    let c = &mut rig.client;
    c.enable_cache(pse_cache::CacheConfig::default());
    c.put("/data", "contents", None).unwrap();
    c.proppatch_set("/data", &PropertyName::new(ECCE, "kind"), "molecule")
        .unwrap();

    // Cold read fills the cache; the warm read revalidates with a 304
    // and answers from memory.
    assert_eq!(c.get("/data").unwrap(), b"contents");
    let cold = c.cache_stats();
    assert_eq!(c.get("/data").unwrap(), b"contents");
    let warm = c.cache_stats();
    assert_eq!(warm.hits, cold.hits + 1, "warm GET must hit the cache");

    // Same for a parsed PROPFIND multistatus.
    let a = c.propfind_all("/data", Depth::Zero).unwrap();
    let before = c.cache_stats();
    let b = c.propfind_all("/data", Depth::Zero).unwrap();
    assert_eq!(a, b);
    assert_eq!(c.cache_stats().hits, before.hits + 1);

    // Another client changes the resource behind our back; because the
    // cache validates on every use, we still observe the new state.
    let mut other = DavClient::connect(addr).unwrap();
    other.put("/data", "rewritten", None).unwrap();
    assert_eq!(c.get("/data").unwrap(), b"rewritten");
    let ms = c.propfind_all("/data", Depth::Zero).unwrap();
    let len = ms.responses[0]
        .prop(&PropertyName::dav("getcontentlength"))
        .unwrap()
        .text_value();
    assert_eq!(len, "9");

    // Local mutations flush the affected entries outright.
    c.put("/data", "local", None).unwrap();
    let before = c.cache_stats();
    assert_eq!(c.get("/data").unwrap(), b"local");
    let after = c.cache_stats();
    assert_eq!(after.misses, before.misses + 1, "local PUT must evict");
}

#[test]
fn basic_auth_enforced_end_to_end() {
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pse-dav-auth-{n}-{}", std::process::id()));
    let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
    let mut users = pse_http::auth::UserStore::new("Ecce DAV Server");
    users.add_user("karen", "secret");
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            auth: Some(users),
            ..ServerConfig::default()
        },
        DavHandler::new(repo),
    )
    .unwrap();

    let mut anon = DavClient::connect(server.local_addr()).unwrap();
    assert!(anon.mkcol("/private").is_err());

    let mut authed = DavClient::connect(server.local_addr()).unwrap();
    authed.set_credentials(pse_http::auth::Credentials::new("karen", "secret"));
    authed.mkcol("/private").unwrap();
    authed.put("/private/doc", "x", None).unwrap();

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- LOCK contention (PR 5) ----
//
// The paper's Ecce sessions hold DAV locks while multiple application
// components race for the same calculation documents; these tests pin
// the contended-path behaviour: exactly one LOCK winner, 423 for the
// rest, expiry frees the resource, and token ownership is enforced
// even while the lock table is being hammered.

#[test]
fn lock_race_has_exactly_one_winner() {
    let mut rig = Rig::new(DbmKind::Sdbm);
    let addr = rig.server.as_ref().unwrap().local_addr();
    rig.client.put("/contended", "v1", None).unwrap();

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = DavClient::connect(addr).unwrap();
                barrier.wait();
                c.lock(
                    "/contended",
                    LockScope::Exclusive,
                    Depth::Zero,
                    &format!("racer-{i}"),
                    Some(std::time::Duration::from_secs(60)),
                )
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let (winners, losers): (Vec<_>, Vec<_>) = results.into_iter().partition(Result::is_ok);
    assert_eq!(winners.len(), 1, "exactly one racer may hold the lock");
    assert_eq!(losers.len(), 3);
    for l in losers {
        assert!(
            pse_dav::client::is_locked_error(&l.unwrap_err()),
            "losers must see 423 Locked"
        );
    }
    // The winner's token is real: it authorises a write.
    let token = winners.into_iter().next().unwrap().unwrap();
    let mut c = DavClient::connect(addr).unwrap();
    c.put_locked("/contended", "v2", &token).unwrap();
    assert_eq!(c.get("/contended").unwrap(), b"v2");
}

#[test]
fn lock_timeout_expiry_frees_the_resource() {
    let mut rig = Rig::new(DbmKind::Sdbm);
    let addr = rig.server.as_ref().unwrap().local_addr();
    let c = &mut rig.client;
    c.put("/short-lease", "v1", None).unwrap();
    c.lock(
        "/short-lease",
        LockScope::Exclusive,
        Depth::Zero,
        "karen",
        Some(std::time::Duration::from_secs(1)),
    )
    .unwrap();

    // While the lease is live, a second client is shut out.
    let mut other = DavClient::connect(addr).unwrap();
    let err = other.put("/short-lease", "intruder", None).unwrap_err();
    assert!(pse_dav::client::is_locked_error(&err), "{err}");

    // Past the timeout, the lock evaporates without an UNLOCK.
    std::thread::sleep(std::time::Duration::from_millis(1300));
    other.put("/short-lease", "reclaimed", None).unwrap();
    let token2 = other
        .lock(
            "/short-lease",
            LockScope::Exclusive,
            Depth::Zero,
            "eric",
            Some(std::time::Duration::from_secs(60)),
        )
        .unwrap();
    other.unlock("/short-lease", &token2).unwrap();
}

#[test]
fn lock_token_ownership_enforced_under_contention() {
    let mut rig = Rig::new(DbmKind::Sdbm);
    let addr = rig.server.as_ref().unwrap().local_addr();
    let c = &mut rig.client;
    c.put("/owned", "v1", None).unwrap();
    let token = c
        .lock(
            "/owned",
            LockScope::Exclusive,
            Depth::Zero,
            "karen",
            Some(std::time::Duration::from_secs(60)),
        )
        .unwrap();

    // A forged or stale token never authorises a write or an UNLOCK,
    // even when several clients try at once.
    let handles: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut other = DavClient::connect(addr).unwrap();
                assert!(other
                    .put_locked("/owned", "forged", "opaquelocktoken:not-the-token")
                    .is_err());
                assert!(other.unlock("/owned", "opaquelocktoken:not-the-token").is_err());
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // The body never changed hands and the real token still works.
    assert_eq!(c.get("/owned").unwrap(), b"v1");
    c.put_locked("/owned", "v2", &token).unwrap();
    c.unlock("/owned", &token).unwrap();
}
