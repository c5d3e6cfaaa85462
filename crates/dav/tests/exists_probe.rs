//! `DavClient::exists` is a resource-type probe, not an allprop: on a
//! filesystem repository it reads neither the property cache nor any
//! property database.
//!
//! The DBM page counters are process-wide, so this file holds a single
//! test: nothing else in its binary can move them while it measures.

use pse_dav::client::DavClient;
use pse_dav::depth::Depth;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::handler::DavHandler;
use pse_dav::property::{Property, PropertyName};
use pse_dav::server::serve;
use pse_http::server::ServerConfig;
use pse_obs::Snapshot;

/// Counter movements under the property cache and the DBM engine.
fn property_reads(delta: &Snapshot) -> Vec<(String, u64)> {
    delta
        .counters
        .iter()
        .filter(|(name, v)| {
            **v > 0 && (name.starts_with("dav.prop_cache.") || *name == "dbm.page_reads")
        })
        .map(|(name, v)| (name.clone(), *v))
        .collect()
}

#[test]
fn exists_reads_no_dead_property() {
    let dir = std::env::temp_dir().join(format!("pse-dav-exists-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
    let handler = DavHandler::new(repo);
    let registry = handler.registry();
    let server = serve("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
    let mut c = DavClient::connect(server.local_addr()).unwrap();

    c.mkcol("/calc").unwrap();
    c.put("/calc/molecule", "3\nwater\n", Some("chemical/x-xyz"))
        .unwrap();
    // Dead properties on both resources; each PROPPATCH drops the
    // resource's cached snapshot, so both start cold.
    let note = "n".repeat(4096);
    for path in ["/calc", "/calc/molecule"] {
        let props: Vec<Property> = (0..4)
            .map(|i| Property::text(PropertyName::new("urn:agent", &format!("note-{i}")), &note))
            .collect();
        c.proppatch(path, &props, &[]).unwrap();
    }

    let before = registry.snapshot();
    assert!(c.exists("/calc/molecule").unwrap(), "document");
    assert!(c.exists("/calc").unwrap(), "collection");
    assert!(!c.exists("/calc/basisset").unwrap(), "missing document");
    assert!(!c.exists("/ghost/deeper").unwrap(), "missing collection");
    let moved = property_reads(&registry.snapshot().delta(&before));
    assert!(moved.is_empty(), "exists read properties: {moved:?}");

    // Control: an allprop on the same cold document does read them, so
    // the counters above were live.
    let before = registry.snapshot();
    c.propfind_all("/calc/molecule", Depth::Zero).unwrap();
    let delta = registry.snapshot().delta(&before);
    assert!(
        delta.counter("dav.prop_cache.misses") > 0,
        "{:?}",
        property_reads(&delta)
    );
    assert!(
        delta.counter("dbm.page_reads") > 0,
        "{:?}",
        property_reads(&delta)
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
