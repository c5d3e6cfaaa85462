//! Migration fidelity across the real wire: populate an Ecce 1.5 OODB,
//! migrate into a TCP-served DAV repository (both DBM engines), and
//! verify object-for-object.

use davpse::dav::client::DavClient;
use davpse::dav::fsrepo::{FsConfig, FsRepository};
use davpse::dav::handler::DavHandler;
use davpse::dav::server::serve;
use davpse::ecce::davstore::DavEcceStore;
use davpse::ecce::dsi::DavStorage;
use davpse::ecce::factory::EcceStore;
use davpse::ecce::migrate::{self, PopulateConfig};
use davpse::ecce::model::PropertyValue;
use davpse::ecce::oodbstore::OodbEcceStore;
use pse_dbm::DbmKind;
use pse_http::server::ServerConfig;
use std::sync::atomic::{AtomicU64, Ordering};

static N: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> std::path::PathBuf {
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("davpse-mig-{tag}-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn migrate_over_wire_both_dbm_engines() {
    for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
        let work = scratch(kind.name());
        let mut source = OodbEcceStore::create(work.join("oodb")).unwrap();
        let raw = work.join("raw");
        migrate::populate_oodb(
            &mut source,
            &PopulateConfig {
                projects: 2,
                calcs_per_project: 2,
                output_scale: 0.05,
                raw_dir: Some(raw.clone()),
            },
        )
        .unwrap();

        let repo = FsRepository::create(
            work.join("dav"),
            FsConfig {
                dbm_kind: kind,
                ..FsConfig::default()
            },
        )
        .unwrap();
        let server = serve(
            "127.0.0.1:0",
            ServerConfig::default(),
            DavHandler::new(repo),
        )
        .unwrap();
        let mut target = DavEcceStore::open(
            DavStorage::new(DavClient::connect(server.local_addr()).unwrap()),
            "/Ecce",
        )
        .unwrap();

        let report = migrate::migrate(&mut source, &mut target).unwrap();
        assert_eq!(report.calculations, 4);
        assert_eq!(report.raw_files, 8);
        let mismatches = migrate::verify(&mut source, &mut target).unwrap();
        assert!(mismatches.is_empty(), "{kind:?}: {mismatches:?}");

        // Spot-check numeric fidelity through both proprietary binary
        // and DAV text representations.
        let src_calc = source.load_calculation("/Ecce/project-0/calc-0").unwrap();
        let dst_calc = target.load_calculation("/Ecce/project-0/calc-0").unwrap();
        let (PropertyValue::Scalar(a), PropertyValue::Scalar(b)) = (
            &src_calc.property("total-energy").unwrap().value,
            &dst_calc.property("total-energy").unwrap().value,
        ) else {
            panic!("expected scalar energies");
        };
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");

        // Raw files are inside the calculation virtual document and
        // readable over plain HTTP.
        let mut browser = DavClient::connect(server.local_addr()).unwrap();
        let log = browser.get("/Ecce/project-1/calc-1/output.log").unwrap();
        assert!(String::from_utf8_lossy(&log).contains("Task completed"));

        server.shutdown();
        let _ = std::fs::remove_dir_all(&work);
    }
}

#[test]
fn schema_evolution_pain_vs_dav_openness() {
    // The §2 contrast as an executable test: evolving the OODB schema
    // requires a stop-the-world migration; adding new metadata to the
    // DAV store requires nothing.
    let work = scratch("evolve");
    let mut source = OodbEcceStore::create(work.join("oodb")).unwrap();
    migrate::populate_oodb(
        &mut source,
        &PopulateConfig {
            projects: 1,
            calcs_per_project: 1,
            output_scale: 0.05,
            raw_dir: None,
        },
    )
    .unwrap();

    // OODB: an evolved schema blocks every read until migrate() runs.
    let old_schema = davpse::ecce::oodbstore::ecce_schema();
    let new_schema = old_schema.evolve(&[pse_oodb::schema::SchemaChange::AddField {
        class: "Calculation".into(),
        field: pse_oodb::schema::FieldDef {
            name: "priority".into(),
            ty: pse_oodb::FieldType::Int,
        },
    }]);
    let migrated = source.db().migrate(new_schema).unwrap();
    assert!(
        migrated >= 15,
        "whole database rewritten: {migrated} objects"
    );

    // DAV: a brand-new metadata key needs no coordination at all.
    let mut target = DavEcceStore::open(
        davpse::ecce::dsi::InProcStorage::new(std::sync::Arc::new(
            davpse::dav::memrepo::MemRepository::new(),
        )),
        "/Ecce",
    )
    .unwrap();
    migrate::migrate(&mut source, &mut target).unwrap();
    target
        .annotate("/Ecce/project-0/calc-0", "priority", "7")
        .unwrap();
    assert_eq!(
        target
            .annotation("/Ecce/project-0/calc-0", "priority")
            .unwrap()
            .as_deref(),
        Some("7")
    );
    let _ = std::fs::remove_dir_all(&work);
}
