//! A DAV save writes only the parts of a calculation that differ from
//! the one the store last loaded or saved. Two clients that edit
//! different parts keep each other's edits; anything that may have
//! changed what is stored behind the store's back (an annotation, a
//! delete, raw storage access, a failed request) makes the next save
//! write every part again. Requests are counted by the server's
//! `http.requests.*` counters.

use pse_dav::handler::DavHandler;
use pse_dav::memrepo::MemRepository;
use pse_dav::server::serve;
use pse_dav::DavClient;
use pse_ecce::basis::BasisSet;
use pse_ecce::davstore::DavEcceStore;
use pse_ecce::dsi::{DataStorage, DavStorage, InProcStorage};
use pse_ecce::factory::EcceStore;
use pse_ecce::model::{CalcState, Calculation, OutputProperty, Project, RunType, Task, Theory};
use pse_ecce::oodbstore::OodbEcceStore;
use pse_ecce::{basis, chem, jobs};
use pse_http::server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

fn server() -> Server {
    serve(
        "127.0.0.1:0",
        ServerConfig::default(),
        DavHandler::new(MemRepository::new()),
    )
    .unwrap()
}

fn client(server: &Server) -> DavEcceStore<DavStorage> {
    let storage = DavStorage::new(DavClient::connect(server.local_addr()).unwrap());
    DavEcceStore::open(storage, "/Ecce").unwrap()
}

/// A completed calculation: every part, output properties included.
fn completed(name: &str) -> Calculation {
    let mut c = Calculation::new(name);
    c.theory = Theory::Dft;
    c.run_type = RunType::Optimize;
    c.molecule = Some(chem::water());
    c.basis = basis::by_name("STO-3G");
    c.tasks = vec![Task {
        name: "main".into(),
        run_type: RunType::Optimize,
        sequence: 0,
    }];
    c.input_deck = Some(jobs::input_deck(&c));
    c.transition(CalcState::InputReady).unwrap();
    let config = jobs::RunnerConfig {
        output_scale: 0.02,
        ..Default::default()
    };
    jobs::run_to_completion(&mut c, &config).unwrap();
    c
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

/// Store `a` changes the theory, store `b` the molecule; both loaded
/// the calculation before either saved.
fn edits_of_different_parts_both_survive<S: DataStorage>(
    a: &mut DavEcceStore<S>,
    b: &mut DavEcceStore<S>,
) {
    let proj = a.create_project(&Project::new("p", "")).unwrap();
    let path = a.save_calculation(&proj, &completed("c")).unwrap();
    let mut by_a = a.load_calculation(&path).unwrap();
    let mut by_b = b.load_calculation(&path).unwrap();
    by_a.theory = Theory::Mp2;
    by_b.molecule.as_mut().unwrap().translate(0.5, 0.0, 0.0);
    let moved = by_b.molecule.as_ref().unwrap().to_xyz();
    a.update_calculation(&path, &by_a).unwrap();
    b.update_calculation(&path, &by_b).unwrap();
    for store in [a, b] {
        let back = store.load_calculation(&path).unwrap();
        assert_eq!(back.theory, Theory::Mp2, "the theory edit survives");
        assert_eq!(
            back.molecule.unwrap().to_xyz(),
            moved,
            "the molecule edit survives"
        );
    }
}

#[test]
fn two_clients_keep_each_others_edits_in_process() {
    let repo = Arc::new(MemRepository::new());
    let mut a = DavEcceStore::open(InProcStorage::new(Arc::clone(&repo)), "/Ecce").unwrap();
    let mut b = DavEcceStore::open(InProcStorage::new(repo), "/Ecce").unwrap();
    edits_of_different_parts_both_survive(&mut a, &mut b);
}

#[test]
fn two_clients_keep_each_others_edits_over_the_wire() {
    let server = server();
    edits_of_different_parts_both_survive(&mut client(&server), &mut client(&server));
    server.shutdown();
}

/// What an update of `calc` costs from a store that knows nothing.
fn full_write(server: &Server, path: &str, calc: &Calculation) -> BTreeMap<String, u64> {
    let mut fresh = client(server);
    requests(server, || fresh.update_calculation(path, calc).unwrap()).1
}

#[test]
fn other_writes_between_load_and_save_force_a_full_write() {
    let server = server();
    let mut store = client(&server);
    let proj = store.create_project(&Project::new("p", "")).unwrap();
    let path = store.save_calculation(&proj, &completed("c")).unwrap();
    let other = store.save_calculation(&proj, &completed("d")).unwrap();
    let calc = store.load_calculation(&path).unwrap();
    let full = full_write(&server, &path, &calc);
    assert!(full["put"] > 5 && full["delete"] == 2, "{full:?}");

    // Nothing in between: the save sends nothing.
    store.load_calculation(&path).unwrap();
    let ((), counts) = requests(&server, || store.update_calculation(&path, &calc).unwrap());
    assert!(counts.is_empty(), "{counts:?}");

    type Between = fn(&mut DavEcceStore<DavStorage>, &str, &str);
    let between: [(&str, Between); 3] = [
        ("annotate", |s, path, _| {
            s.annotate(path, "theory", "SCF").unwrap();
        }),
        ("delete", |s, _, other| s.delete(other).unwrap()),
        ("storage", |s, path, _| {
            s.storage()
                .write(&format!("{path}/input.nw"), b"edited", None)
                .unwrap();
        }),
    ];
    for (what, step) in between {
        store.load_calculation(&path).unwrap();
        step(&mut store, &path, &other);
        let ((), counts) = requests(&server, || store.update_calculation(&path, &calc).unwrap());
        assert_eq!(counts, full, "a save after {what}");
        assert_eq!(store.load_calculation(&path).unwrap(), calc, "after {what}");
    }
    server.shutdown();
}

#[test]
fn a_failed_save_forces_a_full_write_next_time() {
    let server = server();
    let mut store = client(&server);
    let mut other = client(&server);
    let proj = store.create_project(&Project::new("p", "")).unwrap();
    let path = store.save_calculation(&proj, &completed("c")).unwrap();
    let mut calc = store.load_calculation(&path).unwrap();
    other.delete(&path).unwrap();
    calc.theory = Theory::Scf;
    assert!(store.update_calculation(&path, &calc).is_err());

    // Another client saves the calculation again. This store's next
    // save compares with nothing, so it writes every part.
    other.save_calculation(&proj, &completed("c")).unwrap();
    let ((), counts) = requests(&server, || store.update_calculation(&path, &calc).unwrap());
    assert_eq!(counts, full_write(&server, &path, &calc));
    assert_eq!(other.load_calculation(&path).unwrap().theory, Theory::Scf);
    server.shutdown();
}

/// Moves the molecule, changes the theory, keeps two output
/// properties and regenerates the deck.
fn edit(calc: &mut Calculation) {
    calc.molecule.as_mut().unwrap().translate(0.0, 0.25, 0.0);
    calc.theory = Theory::Scf;
    calc.properties
        .retain(|p| p.name == "total-energy" || p.name == "dipole");
    calc.input_deck = Some(jobs::input_deck(calc));
}

/// `calc` as the DAV mapping stores it: numbers through their text
/// forms, output properties in name order (the order of a listing).
fn as_stored(mut calc: Calculation) -> Calculation {
    calc.basis = calc
        .basis
        .map(|b| BasisSet::from_text(&b.to_text()).unwrap());
    calc.properties = calc
        .properties
        .iter()
        .map(|p| OutputProperty::from_text(&p.to_text()).unwrap())
        .collect();
    calc.properties.sort_by(|a, b| a.name.cmp(&b.name));
    calc
}

/// Saves, reloads, edits and saves again; returns the final load.
fn edited_round_trip<S: EcceStore>(store: &mut S) -> Calculation {
    let proj = store.create_project(&Project::new("p", "")).unwrap();
    let path = store.save_calculation(&proj, &completed("c")).unwrap();
    let mut calc = store.load_calculation(&path).unwrap();
    edit(&mut calc);
    store.update_calculation(&path, &calc).unwrap();
    store.load_calculation(&path).unwrap()
}

#[test]
fn every_store_loads_equal_objects_after_an_edited_save() {
    let dir = std::env::temp_dir().join(format!("pse-ecce-partial-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut oodb = OodbEcceStore::create(&dir).unwrap();
    let mut inproc =
        DavEcceStore::open(InProcStorage::new(Arc::new(MemRepository::new())), "/Ecce").unwrap();
    let server = server();
    let mut wire = client(&server);

    let want = as_stored(edited_round_trip(&mut oodb));
    assert_eq!(want.theory, Theory::Scf);
    assert_eq!(want.properties.len(), 2);
    assert_eq!(edited_round_trip(&mut inproc), want, "in-process");
    assert_eq!(edited_round_trip(&mut wire), want, "over the wire");
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
