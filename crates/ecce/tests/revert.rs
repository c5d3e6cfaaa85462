//! Revert-a-calculation: the DeltaV flow a chemist actually runs.
//!
//! A calculation's inputs are edited in place (new geometry, regenerated
//! input deck); version tracking lets any input document be restored to
//! its pre-edit state without rerunning anything. The scenario runs over
//! the real DAV wire protocol — the same path the Ecce applications use.

use pse_dav::handler::DavHandler;
use pse_dav::memrepo::MemRepository;
use pse_dav::server::serve;
use pse_dav::DavClient;
use pse_ecce::chem;
use pse_ecce::davstore::DavEcceStore;
use pse_ecce::dsi::{DataStorage, DavStorage, InProcStorage};
use pse_ecce::factory::EcceStore;
use pse_ecce::model::{Calculation, Project, RunType, Theory};
use pse_http::server::ServerConfig;
use std::sync::Arc;

fn wire_store() -> (pse_http::server::Server, DavEcceStore<DavStorage>) {
    let server = serve(
        "127.0.0.1:0",
        ServerConfig::default(),
        DavHandler::new(MemRepository::new()),
    )
    .unwrap();
    let storage = DavStorage::new(DavClient::connect(server.local_addr()).unwrap());
    let store = DavEcceStore::open(storage, "/Ecce").unwrap();
    (server, store)
}

fn uranyl_calc() -> Calculation {
    let mut c = Calculation::new("uo2-revert");
    c.theory = Theory::Dft;
    c.run_type = RunType::Optimize;
    c.molecule = Some(chem::uo2_15h2o());
    c.input_deck = Some("start uo2\ngeometry\nend\n".into());
    c
}

#[test]
fn revert_restores_pre_edit_molecule() {
    let (server, mut store) = wire_store();
    let proj = store.create_project(&Project::new("aq", "")).unwrap();
    let path = store.save_calculation(&proj, &uranyl_calc()).unwrap();

    // Track the calculation: molecule + input deck go under version
    // control (no basisset document in this calculation).
    let tracked = store.track_calculation(&path).unwrap();
    assert_eq!(tracked.len(), 2, "molecule and input.nw tracked");
    let original = store.load_calculation(&path).unwrap();
    let original_xyz = original.molecule.as_ref().unwrap().to_xyz();

    // Edit in place: displace the geometry and save. Auto-versioning
    // records the new molecule as version 2.
    let mut edited = original.clone();
    let mol = edited.molecule.as_mut().unwrap();
    mol.translate(1.5, 0.0, 0.0);
    let edited_xyz = mol.to_xyz();
    assert_ne!(edited_xyz, original_xyz);
    store.update_calculation(&path, &edited).unwrap();
    assert_eq!(store.molecule_versions(&path).unwrap(), vec![1, 2]);

    // The chemist reverts to the pre-edit geometry. The restore lands
    // as version 3 — history is append-only.
    store.revert_molecule(&path, 1).unwrap();
    let reverted = store.load_calculation(&path).unwrap();
    assert_eq!(reverted.molecule.as_ref().unwrap().to_xyz(), original_xyz);
    assert_eq!(store.molecule_versions(&path).unwrap(), vec![1, 2, 3]);

    // Version 2 still holds the edited geometry, byte-identical.
    let v2 = store
        .storage()
        .read_version(&format!("{path}/molecule"), 2)
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&v2), edited_xyz);
    server.shutdown();
}

#[test]
fn checkout_collapses_an_edit_session_to_one_version() {
    let (server, mut store) = wire_store();
    let proj = store.create_project(&Project::new("aq", "")).unwrap();
    let path = store.save_calculation(&proj, &uranyl_calc()).unwrap();
    store.track_calculation(&path).unwrap();
    let deck = format!("{path}/input.nw");

    // A builder session: checkout, many intermediate saves, one checkin.
    store.storage().checkout(&deck).unwrap();
    for i in 0..5 {
        store
            .storage()
            .write(&deck, format!("draft {i}\n").as_bytes(), Some("text/plain"))
            .unwrap();
    }
    let v = store.storage().checkin(&deck).unwrap();
    assert_eq!(v, 2, "five draft saves collapse to one new version");
    assert_eq!(store.storage().list_versions(&deck).unwrap(), vec![1, 2]);
    assert_eq!(
        store.storage().read_version(&deck, 2).unwrap(),
        b"draft 4\n"
    );
    server.shutdown();
}

#[test]
fn inproc_storage_reports_versioning_unsupported() {
    let mut s = InProcStorage::new(Arc::new(MemRepository::new()));
    s.write("/doc", b"x", None).unwrap();
    assert!(!s.supports_versioning());
    assert!(s.version_control("/doc").is_err());
    assert!(s.list_versions("/doc").is_err());
}
