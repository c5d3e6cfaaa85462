//! What a named PROPFIND costs the property databases: nothing, while
//! the property index holds every named value as plain text; one
//! member's worth of DBM reads for each member it declines.
//!
//! The DBM page counters are process-wide, so this file holds a single
//! test: nothing else in its binary can move them while it measures.

use pse_dav::client::DavClient;
use pse_dav::depth::Depth;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::handler::DavHandler;
use pse_dav::property::{Property, PropertyName};
use pse_dav::repo::Repository;
use pse_dav::server::serve;
use pse_http::server::ServerConfig;

/// Members of the collection the PROPFINDs walk.
const MEMBERS: usize = 8;
/// The one member holding a value over the index's 1 KiB cap.
const CAPPED: &str = "/proj/m3";

#[test]
fn named_propfind_reads_the_dbm_only_for_declined_members() {
    let dir = std::env::temp_dir().join(format!("pse-dav-named-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
    let handler = DavHandler::new(repo);
    let registry = handler.registry();
    let repo = handler.repo();
    let server = serve("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
    let mut c = DavClient::connect(server.local_addr()).unwrap();

    let [formula, charge, blob] =
        ["formula", "charge", "blob"].map(|l| PropertyName::new("urn:ecce", l));
    c.mkcol("/proj").unwrap();
    c.proppatch_set("/proj", &formula, "project").unwrap();
    for i in 0..MEMBERS {
        let path = format!("/proj/m{i}");
        c.put(&path, "body", None).unwrap();
        let props = [
            Property::text(formula.clone(), &format!("F{i}")),
            Property::text(charge.clone(), &i.to_string()),
        ];
        c.proppatch(&path, &props, &[]).unwrap();
    }
    let long = "x".repeat(2000);
    c.proppatch_set(CAPPED, &blob, &long).unwrap();
    // Every PROPPATCH dropped its path's cached snapshot: all start cold.

    let held = [formula.clone(), charge.clone()];
    let before = registry.snapshot();
    let ms = c.propfind("/proj", Depth::One, &held).unwrap();
    let delta = registry.snapshot().delta(&before);
    assert_eq!(ms.responses.len(), MEMBERS + 1);
    for i in 0..MEMBERS {
        let entry = ms.response_for(&format!("/proj/m{i}")).unwrap();
        assert_eq!(entry.prop(&formula).unwrap().text_value(), format!("F{i}"));
        assert_eq!(entry.prop(&charge).unwrap().text_value(), i.to_string());
    }
    assert_eq!(delta.counter("dbm.page_reads"), 0, "{:?}", delta.counters);
    assert_eq!(delta.counter("dav.prop_cache.insertions"), 0);
    assert_eq!(
        delta.counter("dav.propindex.reads_answered"),
        MEMBERS as u64 + 1
    );
    assert_eq!(delta.counter("dav.propindex.reads_declined"), 0);

    // Name the capped property too: only its holder reads the store.
    let mixed = [formula.clone(), charge.clone(), blob.clone()];
    let before = registry.snapshot();
    let ms = c.propfind("/proj", Depth::One, &mixed).unwrap();
    let delta = registry.snapshot().delta(&before);
    let entry = ms.response_for(CAPPED).unwrap();
    assert_eq!(entry.prop(&blob).unwrap().text_value(), long);
    assert_eq!(
        delta.counter("dav.propindex.reads_answered"),
        MEMBERS as u64
    );
    assert_eq!(delta.counter("dav.propindex.reads_declined"), 1);
    let propfind_reads = delta.counter("dbm.page_reads");
    assert!(propfind_reads > 0);

    // The same named read of that member alone costs the same pages:
    // the PROPFIND read no other member's database.
    let before = registry.snapshot();
    repo.get_props(CAPPED, &mixed).unwrap();
    let member_reads = registry.snapshot().delta(&before).counter("dbm.page_reads");
    assert_eq!(propfind_reads, member_reads);

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
