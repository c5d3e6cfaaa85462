//! Ecce tools over the DAV mapping ask the server once per thing they
//! need: a project panel is one depth-1 PROPFIND, and an optional
//! document that is absent costs its one 404 instead of an existence
//! probe plus a request. Counts come from the server's own
//! `http.requests.*` counters.

use pse_dav::handler::DavHandler;
use pse_dav::memrepo::MemRepository;
use pse_dav::server::serve;
use pse_dav::DavClient;
use pse_ecce::davstore::DavEcceStore;
use pse_ecce::dsi::{DataStorage, DavStorage, InProcStorage};
use pse_ecce::factory::{CalcSummary, EcceStore};
use pse_ecce::model::{CalcState, Calculation, Project, RunType, Task, Theory};
use pse_ecce::oodbstore::OodbEcceStore;
use pse_ecce::{basis, chem, jobs, tools};
use pse_http::server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

fn wire_store() -> (Server, DavEcceStore<DavStorage>) {
    let server = serve(
        "127.0.0.1:0",
        ServerConfig::default(),
        DavHandler::new(MemRepository::new()),
    )
    .unwrap();
    let storage = DavStorage::new(DavClient::connect(server.local_addr()).unwrap());
    (server, DavEcceStore::open(storage, "/Ecce").unwrap())
}

/// A calculation with every optional document except output properties.
fn input_ready(name: &str) -> Calculation {
    let mut c = Calculation::new(name);
    c.theory = Theory::Dft;
    c.run_type = RunType::Optimize;
    c.molecule = Some(chem::uranyl());
    c.basis = basis::by_name("STO-3G");
    c.tasks = vec![Task {
        name: "main".into(),
        run_type: RunType::Optimize,
        sequence: 0,
    }];
    c.input_deck = Some(jobs::input_deck(&c));
    c.transition(CalcState::InputReady).unwrap();
    c
}

/// Three projects (one empty) mixing bare, input-ready and completed
/// calculations, some without a molecule.
fn populate<S: EcceStore>(store: &mut S) -> Vec<String> {
    let mut projects = Vec::new();
    for p in 0..3 {
        let proj = store
            .create_project(&Project::new(&format!("project-{p}"), ""))
            .unwrap();
        for i in 0..p * 3 {
            let calc = match i % 3 {
                0 => {
                    let mut c = Calculation::new(&format!("bare-{i}"));
                    c.theory = Theory::Mp2;
                    c
                }
                1 => input_ready(&format!("ready-{i}")),
                _ => {
                    let mut c = input_ready(&format!("done-{i}"));
                    c.molecule = Some(chem::water());
                    let config = jobs::RunnerConfig {
                        output_scale: 0.02,
                        ..Default::default()
                    };
                    jobs::run_to_completion(&mut c, &config).unwrap();
                    c
                }
            };
            store.save_calculation(&proj, &calc).unwrap();
        }
        projects.push(proj);
    }
    projects
}

/// The per-calculation loop `calc_summaries` replaces.
fn summaries_one_by_one<S: EcceStore>(store: &mut S, project: &str) -> Vec<(String, CalcSummary)> {
    store
        .list_calculations(project)
        .unwrap()
        .into_iter()
        .map(|path| {
            let summary = store.calc_summary(&path).unwrap();
            (path, summary)
        })
        .collect()
}

#[test]
fn panel_summaries_agree_across_stores() {
    let dir = std::env::temp_dir().join(format!("pse-ecce-panels-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut oodb = OodbEcceStore::create(&dir).unwrap();
    let mut inproc =
        DavEcceStore::open(InProcStorage::new(Arc::new(MemRepository::new())), "/Ecce").unwrap();
    let (server, mut wire) = wire_store();
    let projects = populate(&mut oodb);
    assert_eq!(populate(&mut inproc), projects);
    assert_eq!(populate(&mut wire), projects);
    // A document beside the calculations is not a panel row.
    for storage in [inproc.storage() as &mut dyn DataStorage, wire.storage()] {
        storage.write("/Ecce/project-1/notes", b"n", None).unwrap();
        storage
            .set_meta("/Ecce/project-1/notes", "type", "note")
            .unwrap();
    }

    for project in &projects {
        let want = oodb.calc_summaries(project).unwrap();
        assert_eq!(want, summaries_one_by_one(&mut oodb, project));
        assert_eq!(
            inproc.calc_summaries(project).unwrap(),
            want,
            "{project} in-process"
        );
        assert_eq!(
            summaries_one_by_one(&mut inproc, project),
            want,
            "{project} in-process"
        );
        assert_eq!(
            wire.calc_summaries(project).unwrap(),
            want,
            "{project} over the wire"
        );
        assert_eq!(
            summaries_one_by_one(&mut wire, project),
            want,
            "{project} over the wire"
        );
    }
    assert_eq!(oodb.calc_summaries(&projects[2]).unwrap().len(), 6);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Requests per method the server counted while `op` ran.
fn requests<T>(server: &Server, op: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    let registry = server.registry();
    let before = registry.snapshot();
    let out = op();
    let counts = registry
        .snapshot()
        .delta(&before)
        .counters
        .into_iter()
        .filter_map(|(name, n)| {
            let method = name.strip_prefix("http.requests.")?.to_owned();
            (n > 0 && method != "metrics").then_some((method, n))
        })
        .collect();
    (out, counts)
}

fn total(counts: &BTreeMap<String, u64>) -> u64 {
    counts.values().sum()
}

#[test]
fn each_tool_operation_asks_once_per_need() {
    let (server, mut store) = wire_store();
    let projects = populate(&mut store);
    let project = &projects[2];
    let ready = format!("{project}/ready-1");
    let done = format!("{project}/done-2");
    let bare = format!("{project}/bare-0");

    // Project-start panels: one depth-1 PROPFIND each, whatever the
    // number of calculations.
    for (tool, start) in [
        ("BasisTool", tools::basistool_start as fn(&mut _, &str) -> _),
        ("CalcEditor", tools::calceditor_start),
        ("CalcViewer", tools::calcviewer_start),
        ("JobLauncher", tools::joblauncher_start),
    ] {
        let (report, counts) = requests(&server, || start(&mut store, project).unwrap());
        assert_eq!(report.tool, tool);
        assert_eq!(
            counts,
            BTreeMap::from([("propfind".into(), 1)]),
            "{tool} start"
        );
    }
    // CalcManager lists the projects, then one panel per project.
    let (_, counts) = requests(&server, || tools::calcmanager_start(&mut store).unwrap());
    assert_eq!(total(&counts), 1 + projects.len() as u64, "{counts:?}");
    let (hits, counts) = requests(&server, || {
        pse_ecce::query::find_calculations(&mut store, &Default::default()).unwrap()
    });
    assert_eq!(hits.len(), 9);
    assert_eq!(total(&counts), 1 + projects.len() as u64, "{counts:?}");

    // Per-calculation loads: the molecule's metadata and body, the
    // basis set, the input deck plus the summary row.
    let (report, counts) = requests(&server, || tools::builder_load(&mut store, &ready).unwrap());
    assert_eq!(report.items, 1);
    assert_eq!(total(&counts), 2, "builder_load {counts:?}");
    let (report, counts) = requests(&server, || {
        tools::basistool_load(&mut store, &ready).unwrap()
    });
    assert_eq!(report.items, 1);
    assert_eq!(total(&counts), 3, "basistool_load {counts:?}");
    let (report, counts) = requests(&server, || {
        tools::joblauncher_load(&mut store, &ready).unwrap()
    });
    assert_eq!(report.items, 1);
    assert_eq!(total(&counts), 2, "joblauncher_load {counts:?}");

    // A calculation without properties/: its absence is the 404 of the
    // listing itself, not a probe first. The calculation's metadata with
    // its job's, the molecule's metadata, tasks and the properties listing
    // are PROPFINDs; molecule, basis set and input deck are GETs.
    let (calc, counts) = requests(&server, || store.load_calculation(&ready).unwrap());
    assert!(calc.properties.is_empty() && calc.input_deck.is_some());
    let by_method = BTreeMap::from([("get".into(), 3), ("propfind".into(), 4)]);
    assert_eq!(counts, by_method, "calcviewer_load without properties");
    let (report, counts) = requests(&server, || {
        tools::calcviewer_load(&mut store, &done).unwrap()
    });
    assert!(report.items > 0);
    assert_eq!(
        counts,
        BTreeMap::from([
            ("get".into(), 3 + report.items as u64),
            ("propfind".into(), 4)
        ]),
        "calcviewer_load with {} properties",
        report.items
    );

    // Absent optional documents read as absent, one request each.
    let (report, counts) = requests(&server, || tools::builder_load(&mut store, &bare).unwrap());
    assert_eq!(report.items, 0);
    assert_eq!(
        total(&counts),
        1,
        "builder_load without a molecule {counts:?}"
    );
    let (calc, counts) = requests(&server, || store.load_calculation(&bare).unwrap());
    assert!(calc.molecule.is_none() && calc.basis.is_none() && calc.input_deck.is_none());
    assert!(calc.tasks.is_empty() && calc.properties.is_empty());
    assert_eq!(total(&counts), 6, "bare load_calculation {counts:?}");
    server.shutdown();
}

#[test]
fn rewriting_tasks_and_properties_replaces_them() {
    let (server, mut store) = wire_store();
    let proj = store.create_project(&Project::new("p", "")).unwrap();
    // First save creates tasks/ and properties/ where none existed.
    let mut calc = input_ready("c");
    let config = jobs::RunnerConfig {
        output_scale: 0.02,
        ..Default::default()
    };
    jobs::run_to_completion(&mut calc, &config).unwrap();
    let path = store.save_calculation(&proj, &calc).unwrap();
    let saved = store.load_calculation(&path).unwrap();
    assert_eq!(saved.tasks, calc.tasks);
    assert_eq!(saved.properties.len(), calc.properties.len());
    // A save with fewer of each drops the old collections first.
    calc.tasks.truncate(0);
    calc.tasks.push(Task {
        name: "only".into(),
        run_type: RunType::Energy,
        sequence: 0,
    });
    calc.properties.truncate(1);
    store.update_calculation(&path, &calc).unwrap();
    let back = store.load_calculation(&path).unwrap();
    assert_eq!(back.tasks, calc.tasks);
    assert_eq!(back.properties.len(), 1);
    assert_eq!(back.properties[0].name, calc.properties[0].name);
    server.shutdown();
}

/// A CalcEditor round trip whose regenerated deck equals the stored
/// one writes nothing: the op costs the 7 requests of its load.
#[test]
fn unchanged_calceditor_save_sends_no_request() {
    let (server, mut store) = wire_store();
    let proj = store.create_project(&Project::new("p", "")).unwrap();
    let path = store.save_calculation(&proj, &input_ready("c")).unwrap();
    for round in 0..2 {
        let (report, counts) = requests(&server, || {
            tools::calceditor_load(&mut store, &path).unwrap()
        });
        assert_eq!(report.items, 1);
        assert_eq!(
            counts,
            BTreeMap::from([("get".into(), 3), ("propfind".into(), 4)]),
            "calceditor_load round {round}"
        );
    }
    server.shutdown();
}

/// Changing the theory changes one collection value and the deck it
/// regenerates: one PROPPATCH and one PUT of `input.nw`, nothing else.
#[test]
fn theory_change_writes_one_value_and_the_deck() {
    let (server, mut store) = wire_store();
    let proj = store.create_project(&Project::new("p", "")).unwrap();
    let path = store.save_calculation(&proj, &input_ready("c")).unwrap();
    let mut calc = store.load_calculation(&path).unwrap();
    calc.theory = Theory::Mp2;
    calc.input_deck = Some(jobs::input_deck(&calc));
    let ((), counts) = requests(&server, || store.update_calculation(&path, &calc).unwrap());
    assert_eq!(
        counts,
        BTreeMap::from([("proppatch".into(), 1), ("put".into(), 1)])
    );
    assert_eq!(store.load_calculation(&path).unwrap(), calc);
    server.shutdown();
}

/// A first save creates the collection, so it deletes no `tasks/` or
/// `properties/` first, and writes each resource's values in one
/// PROPPATCH.
#[test]
fn first_save_sends_no_delete() {
    let (server, mut store) = wire_store();
    let proj = store.create_project(&Project::new("p", "")).unwrap();
    let (path, counts) = requests(&server, || {
        store.save_calculation(&proj, &input_ready("c")).unwrap()
    });
    // An existence probe; MKCOL of the calculation and tasks/; one
    // PROPPATCH each for the collection, molecule, basis set and task;
    // PUTs of the molecule, basis set, input deck and task.
    assert_eq!(
        counts,
        BTreeMap::from([
            ("mkcol".into(), 2),
            ("propfind".into(), 1),
            ("proppatch".into(), 4),
            ("put".into(), 4),
        ])
    );
    let mut done = input_ready("d");
    let config = jobs::RunnerConfig {
        output_scale: 0.02,
        ..Default::default()
    };
    jobs::run_to_completion(&mut done, &config).unwrap();
    let (_, counts) = requests(&server, || store.save_calculation(&proj, &done).unwrap());
    assert!(!counts.contains_key("delete"), "{counts:?}");
    assert_eq!(counts["mkcol"], 3, "{counts:?}");
    let back = store.load_calculation(&path).unwrap();
    assert_eq!(back.input_deck, input_ready("c").input_deck);
    assert_eq!(back.tasks, input_ready("c").tasks);
    server.shutdown();
}
