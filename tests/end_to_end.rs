//! Whole-stack integration: XML + DBM + HTTP + DAV + Ecce over real TCP
//! with the filesystem repository — the production configuration of the
//! paper's Figure 2, exercised end to end.

use davpse::dav::client::{DavClient, ParseMode};
use davpse::dav::fsrepo::{FsConfig, FsRepository};
use davpse::dav::handler::DavHandler;
use davpse::dav::server::serve;
use davpse::ecce::davstore::DavEcceStore;
use davpse::ecce::dsi::DavStorage;
use davpse::ecce::factory::EcceStore;
use davpse::ecce::jobs::{self, RunnerConfig};
use davpse::ecce::model::{CalcState, Calculation, Project, RunType, Task, Theory};
use davpse::ecce::{agent, basis, chem, query, tools};
use pse_dbm::DbmKind;
use pse_http::server::{Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static N: AtomicU64 = AtomicU64::new(0);

fn rig(kind: DbmKind) -> (Server, PathBuf) {
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "davpse-e2e-{}-{n}-{}",
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
    let server = serve("127.0.0.1:0", ServerConfig::default(), DavHandler::new(repo)).unwrap();
    (server, dir)
}

fn prepared_calc(name: &str, run_type: RunType) -> Calculation {
    let mut c = Calculation::new(name);
    c.theory = Theory::Dft;
    c.run_type = run_type;
    c.molecule = Some(chem::uo2_15h2o());
    c.basis = basis::by_name("6-31G*");
    c.tasks = vec![Task {
        name: "main".into(),
        run_type,
        sequence: 0,
    }];
    c.input_deck = Some(jobs::input_deck(&c));
    c.transition(CalcState::InputReady).unwrap();
    c
}

#[test]
fn full_study_lifecycle_over_tcp() {
    for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
        let (server, dir) = rig(kind);
        let mut store = DavEcceStore::open(
            DavStorage::new(DavClient::connect(server.local_addr()).unwrap()),
            "/Ecce",
        )
        .unwrap();

        let proj = store
            .create_project(&Project::new("aqueous", "speciation study"))
            .unwrap();
        let path = store
            .save_calculation(&proj, &prepared_calc("uo2-freq", RunType::Frequency))
            .unwrap();

        // Launch through the tool layer; verify the state machine.
        tools::joblauncher_run(
            &mut store,
            &path,
            &RunnerConfig {
                output_scale: 0.1,
                ..RunnerConfig::default()
            },
        )
        .unwrap();
        let done = store.load_calculation(&path).unwrap();
        assert_eq!(done.state, CalcState::Complete);
        assert!(done.property("total-energy").is_some());
        assert!(done.property("frequencies").is_some());
        assert_eq!(done.molecule.as_ref().unwrap().natoms(), 48);

        // Every tool operates on the stored study.
        assert!(tools::builder_load(&mut store, &path).unwrap().items == 1);
        assert!(tools::basistool_load(&mut store, &path).unwrap().items == 1);
        assert!(tools::calcviewer_load(&mut store, &path).unwrap().items >= 5);
        assert!(tools::calcmanager_start(&mut store).unwrap().items >= 2);

        // Copy the whole study ("copy entire task sequences").
        let copy = format!("{proj}/uo2-freq-copy");
        store.copy_calculation(&path, &copy).unwrap();
        let copied = store.load_calculation(&copy).unwrap();
        assert_eq!(copied.properties.len(), done.properties.len());

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn agents_and_queries_share_the_store() {
    let (server, dir) = rig(DbmKind::Gdbm);
    let addr = server.local_addr();

    // Ecce writes...
    let mut store =
        DavEcceStore::open(DavStorage::new(DavClient::connect(addr).unwrap()), "/Ecce").unwrap();
    let proj = store.create_project(&Project::new("p", "")).unwrap();
    let path = store
        .save_calculation(&proj, &prepared_calc("freq", RunType::Frequency))
        .unwrap();
    tools::joblauncher_run(
        &mut store,
        &path,
        &RunnerConfig {
            output_scale: 0.05,
            ..RunnerConfig::default()
        },
    )
    .unwrap();

    // ...an independent agent process (own connection) enriches...
    let mut agent_io = DavStorage::new(DavClient::connect(addr).unwrap());
    let report = agent::thermodynamic_agent(&mut agent_io, "/Ecce").unwrap();
    assert_eq!(report.annotated, 1);
    agent::notebook_annotate(&mut agent_io, &path, "note", "karen").unwrap();

    // ...and the enrichment is queryable while Ecce's view is intact.
    let hits =
        query::find_by_agent_metadata(&mut agent_io, "/Ecce", "thermo-agent", "pse-thermo/1.0")
            .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(
        store.annotation(&path, "notebook-author").unwrap().as_deref(),
        Some("karen")
    );
    let back = store.load_calculation(&path).unwrap();
    assert_eq!(back.state, CalcState::Complete);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn third_party_reads_without_schema() {
    // A "component developed independently" reads the molecule with
    // nothing but HTTP + the format metadata: no Ecce code, no schema.
    let (server, dir) = rig(DbmKind::Gdbm);
    let addr = server.local_addr();
    let mut store =
        DavEcceStore::open(DavStorage::new(DavClient::connect(addr).unwrap()), "/Ecce").unwrap();
    let proj = store.create_project(&Project::new("p", "")).unwrap();
    store
        .save_calculation(&proj, &prepared_calc("c", RunType::Energy))
        .unwrap();

    let mut foreign = DavClient::connect(addr).unwrap();
    foreign.set_parse_mode(ParseMode::Dom); // a different client stack
    let hits = foreign
        .search_eq(
            "/",
            &davpse::dav::property::PropertyName::new("http://emsl.pnl.gov/ecce", "format"),
            "xyz",
        )
        .unwrap();
    assert_eq!(hits.len(), 1);
    let href = &hits[0];
    let body = foreign.get(href).unwrap();
    // The raw document parses with a plain XYZ reader.
    let mol = chem::Molecule::from_xyz(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(mol.natoms(), 48);
    // And a plain browser-style GET renders the collection.
    let html = String::from_utf8(foreign.get(&proj).unwrap()).unwrap();
    assert!(html.contains("<a href="));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_tools_and_locking() {
    let (server, dir) = rig(DbmKind::Gdbm);
    let addr = server.local_addr();
    let mut store =
        DavEcceStore::open(DavStorage::new(DavClient::connect(addr).unwrap()), "/Ecce").unwrap();
    let proj = store.create_project(&Project::new("p", "")).unwrap();
    let path = store
        .save_calculation(&proj, &prepared_calc("c", RunType::Energy))
        .unwrap();

    // A job monitor locks the calculation's input while it runs.
    let mut monitor = DavClient::connect(addr).unwrap();
    let input = format!("{path}/input.nw");
    let token = monitor
        .lock(
            &input,
            davpse::dav::lock::LockScope::Exclusive,
            davpse::dav::Depth::Zero,
            "job-monitor",
            None,
        )
        .unwrap();

    // Another client cannot replace the input mid-run...
    let mut editor = DavClient::connect(addr).unwrap();
    assert!(editor.put(&input, "tampered", None).is_err());
    // ...until the monitor releases.
    monitor.unlock(&input, &token).unwrap();
    editor.put(&input, "new deck", None).unwrap();

    // Concurrent readers across threads are safe.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut c = DavClient::connect(addr).unwrap();
                for _ in 0..10 {
                    assert!(c.exists(&path).unwrap());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_layer_consistent_across_backends() {
    // The same study set must answer the same queries over OODB and DAV.
    let (server, dir) = rig(DbmKind::Gdbm);
    let mut dav = DavEcceStore::open(
        DavStorage::new(DavClient::connect(server.local_addr()).unwrap()),
        "/Ecce",
    )
    .unwrap();
    let oodb_dir = std::env::temp_dir().join(format!(
        "davpse-e2e-oodb-{}-{}",
        N.fetch_add(1, Ordering::Relaxed),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&oodb_dir);
    let mut oodb = davpse::ecce::oodbstore::OodbEcceStore::create(&oodb_dir).unwrap();

    for store in [&mut dav as &mut dyn EcceStore, &mut oodb as &mut dyn EcceStore] {
        let proj = store.create_project(&Project::new("p", "")).unwrap();
        store
            .save_calculation(&proj, &prepared_calc("energy-run", RunType::Energy))
            .unwrap();
        let mut water_calc = Calculation::new("water");
        water_calc.molecule = Some(chem::water());
        store.save_calculation(&proj, &water_calc).unwrap();
    }

    for store in [&mut dav as &mut dyn EcceStore, &mut oodb as &mut dyn EcceStore] {
        let by_formula = store.find_by_formula("H2O").unwrap();
        assert_eq!(by_formula.len(), 1, "{}", store.backend_name());
        let all = query::find_calculations(store, &query::CalcFilter::default()).unwrap();
        assert_eq!(all.len(), 2, "{}", store.backend_name());
        let dft = query::find_calculations(
            store,
            &query::CalcFilter {
                theory: Some(Theory::Dft),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(dft.len(), 1, "{}", store.backend_name());
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&oodb_dir);
}
