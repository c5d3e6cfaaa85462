//! `ecce`: Ecce tool sessions through `pse_ecce::tools` and `EcceStore`
//! over `DavEcceStore<DavStorage>`, the paper's users and its Table 3
//! traffic. 85% of ops are tool loads, project starts and formula
//! searches; the rest are CalcEditor load-and-save and agent
//! annotations. Each tool op costs many small metadata requests, and the
//! annotations make the server's property metadata larger than the
//! default property cache, so the DBM engine stays on the read path.

use crate::decor::{RepoStats, TimedRepo, TimedStorage};
use crate::harness::*;
use crate::stats::{mix, mixed_ops, mixed_rounds, Rng};
use crate::trace::{self_times, write_spans, Span, Tracer};
use pse_dav::client::DavClient;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::repo::Repository;
use pse_dav::DavHandler;
use pse_ecce::davstore::DavEcceStore;
use pse_ecce::dsi::DavStorage;
use pse_ecce::factory::EcceStore;
use pse_ecce::jobs::{self, RunnerConfig};
use pse_ecce::model::{CalcState, Calculation, Project, RunType, Task, Theory};
use pse_ecce::{basis, chem, tools};
use pse_http::server::Server;
use pse_http::{Method, Request};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Projects in the catalog.
pub const PROJECTS: usize = 8;
/// Calculations per project.
pub const CALCS: usize = 16;
/// Annotation keys an agent keeps on each annotated resource.
pub const NOTE_KEYS: usize = 4;
/// Bytes of one annotation value.
pub const NOTE_BYTES: usize = 6 * 1024;
/// Resources of a calculation that carry annotations.
const NOTE_TARGETS: [&str; 3] = ["", "molecule", "basisset"];
/// Output scale of completed calculations.
const OUTPUT_SCALE: f64 = 0.03;
/// Nominal tool ops/s of both clients together on a 2-CPU host.
const RATE: u64 = 300;
const ROOT: &str = "/Ecce";

/// One tool op. Calculations are owned by one client each (calc index
/// congruent to the client), so no client reads a calculation while
/// another rewrites it; project starts and searches span everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    CalcManagerLoad(usize),
    BuilderLoad(usize),
    BasisToolLoad(usize),
    JobLauncherLoad(usize),
    CalcViewerLoad(usize),
    CalcViewerStart(usize),
    JobLauncherStart(usize),
    FindByFormula(usize),
    CalcEditorSave(usize),
    Annotate {
        calc: usize,
        target: usize,
        key: usize,
        salt: u64,
    },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::CalcEditorSave(_) | Op::Annotate { .. })
    }

    fn span_name(&self) -> &'static str {
        match self {
            Op::CalcManagerLoad(_) => "op.calcmanager_load",
            Op::BuilderLoad(_) => "op.builder_load",
            Op::BasisToolLoad(_) => "op.basistool_load",
            Op::JobLauncherLoad(_) => "op.joblauncher_load",
            Op::CalcViewerLoad(_) => "op.calcviewer_load",
            Op::CalcViewerStart(_) => "op.calcviewer_start",
            Op::JobLauncherStart(_) => "op.joblauncher_start",
            Op::FindByFormula(_) => "op.find_by_formula",
            Op::CalcEditorSave(_) => "op.calceditor_load_save",
            Op::Annotate { .. } => "op.annotate",
        }
    }
}

#[derive(Clone, Copy)]
enum Kind {
    CalcManager,
    Builder,
    BasisTool,
    JobLauncher,
    CalcViewer,
    ViewerStart,
    LauncherStart,
    Find,
    Editor,
    Annotate,
}

/// The mix is an assumption, not a measured Ecce usage profile (none
/// exists): 85% reads in equal shares over the eight read kinds, and
/// 15% writes, of which three in four are annotations, one for each
/// annotated resource of a calculation (the calculation, its molecule
/// and its basis set) per CalcEditor save.
const MIX: [(Kind, u32); 10] = [
    (Kind::CalcManager, 17),
    (Kind::Builder, 17),
    (Kind::BasisTool, 17),
    (Kind::JobLauncher, 17),
    (Kind::CalcViewer, 17),
    (Kind::ViewerStart, 17),
    (Kind::LauncherStart, 17),
    (Kind::Find, 17),
    (Kind::Editor, 6),
    (Kind::Annotate, 18),
];

/// The subjects calculations study, with the run type each gets.
fn subject(i: usize) -> (chem::Molecule, RunType) {
    match i {
        0 => (chem::water(), RunType::Energy),
        1 => (chem::uranyl(), RunType::Optimize),
        _ => (chem::uo2_15h2o(), RunType::Frequency),
    }
}
const SUBJECTS: usize = 3;

/// The op list of one client: `n` ops, from the seed alone.
/// The CalcEditor edits only the calculations in `editable` (the
/// client's input-ready ones: a completed calculation is no longer set
/// up in the editor).
pub fn plan(seed: u64, client: usize, n: usize, stream: u64, editable: &[usize]) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0xecce + stream * 16 + client as u64);
    let total = PROJECTS * CALCS;
    mixed_rounds(&MIX, n, ROUNDS, &mut rng)
        .into_iter()
        .map(|k| {
            let calc = client + CLIENTS * rng.below(total / CLIENTS);
            match k {
                Kind::CalcManager => Op::CalcManagerLoad(calc),
                Kind::Builder => Op::BuilderLoad(calc),
                Kind::BasisTool => Op::BasisToolLoad(calc),
                Kind::JobLauncher => Op::JobLauncherLoad(calc),
                Kind::CalcViewer => Op::CalcViewerLoad(calc),
                Kind::ViewerStart => Op::CalcViewerStart(rng.below(PROJECTS)),
                Kind::LauncherStart => Op::JobLauncherStart(rng.below(PROJECTS)),
                Kind::Find => Op::FindByFormula(rng.below(SUBJECTS)),
                Kind::Editor => Op::CalcEditorSave(editable[rng.below(editable.len())]),
                Kind::Annotate => Op::Annotate {
                    calc,
                    target: rng.below(NOTE_TARGETS.len()),
                    key: rng.below(NOTE_KEYS),
                    salt: rng.next_u64(),
                },
            }
        })
        .collect()
}

/// What the seeded catalog says about one calculation.
#[derive(Debug, Clone)]
pub struct CalcModel {
    pub path: String,
    pub subject: usize,
    pub formula: String,
    pub state: CalcState,
    pub properties: usize,
    pub basis_covers: bool,
}

/// The seeded catalog: the calculations and the object each saves.
pub fn catalog(seed: u64) -> Vec<(CalcModel, Calculation)> {
    let mut rng = Rng::new(seed, 0xca7a);
    let bases = ["STO-3G", "6-31G*", "LANL2DZ"];
    // Every (subject, basis, completed) combination in a fixed share, so
    // another seed reorders the catalog without changing its size.
    let combos: Vec<((usize, usize, bool), u32)> = (0..SUBJECTS)
        .flat_map(|s| (0..bases.len()).flat_map(move |b| [((s, b, false), 1), ((s, b, true), 1)]))
        .collect();
    let mut kinds = mixed_ops(&combos, PROJECTS * CALCS, &mut rng).into_iter();
    let mut out = Vec::new();
    for p in 0..PROJECTS {
        for c in 0..CALCS {
            let (subj, basis_idx, complete) = kinds.next().expect("one kind per calculation");
            let (mol, run_type) = subject(subj);
            let name = format!("calc-{c:02}");
            let mut calc = Calculation::new(&name);
            calc.theory = [Theory::Scf, Theory::Dft][rng.below(2)];
            calc.run_type = run_type;
            calc.basis = basis::by_name(bases[basis_idx]);
            calc.molecule = Some(mol);
            calc.tasks = vec![Task {
                name: "main".into(),
                run_type,
                sequence: 0,
            }];
            calc.input_deck = Some(jobs::input_deck(&calc));
            calc.transition(CalcState::InputReady)
                .expect("created → input-ready");
            // Half the calculations are run to completion.
            if complete {
                let cfg = RunnerConfig {
                    output_scale: OUTPUT_SCALE,
                    ..RunnerConfig::default()
                };
                jobs::run_to_completion(&mut calc, &cfg).expect("synthetic run");
            }
            let mol = calc.molecule.as_ref().expect("molecule set");
            let symbols: Vec<&str> = mol.atoms.iter().map(|a| a.symbol.as_str()).collect();
            let model = CalcModel {
                path: format!("{ROOT}/project-{p}/{name}"),
                subject: subj,
                formula: mol.empirical_formula(),
                state: calc.state,
                properties: calc.properties.len(),
                basis_covers: calc.basis.as_ref().is_some_and(|b| b.covers(&symbols)),
            };
            out.push((model, calc));
        }
    }
    out
}

/// An annotation value, from its salt.
fn note(salt: u64) -> String {
    let mut rng = Rng::new(salt, 2);
    (0..NOTE_BYTES)
        .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
        .collect()
}

fn note_path(calc: &str, target: usize) -> String {
    match NOTE_TARGETS[target] {
        "" => calc.to_owned(),
        t => format!("{calc}/{t}"),
    }
}

fn note_key(key: usize) -> String {
    format!("agent-note-{key}")
}

/// Salt of the annotation set up on (calc, target, key).
fn setup_salt(seed: u64, calc: usize, target: usize, key: usize) -> u64 {
    mix(seed ^ mix(0x5a17 ^ ((calc as u64) << 16) ^ ((target as u64) << 8) ^ key as u64))
}

type Store = DavEcceStore<TimedStorage<DavStorage>>;

fn open_store(server: &Server, epoch: Instant) -> Store {
    let client = DavClient::connect(server.local_addr()).expect("connect");
    let storage = TimedStorage::new(DavStorage::new(client), Tracer::new(epoch));
    DavEcceStore::open(storage, ROOT).expect("open Ecce store")
}

struct Client {
    store: Store,
    models: Arc<Vec<CalcModel>>,
    /// Expected annotation salts of this client's calculations.
    notes: BTreeMap<(usize, usize, usize), u64>,
    errors: Vec<String>,
    mismatches: Vec<String>,
}

impl Client {
    fn run(&mut self, ops: &[Op], first_id: u64) -> Vec<Sample> {
        ops.iter()
            .enumerate()
            .map(|(i, op)| self.exec(*op, first_id + i as u64))
            .collect()
    }

    fn exec(&mut self, op: Op, id: u64) -> Sample {
        let models = Arc::clone(&self.models);
        let path = |c: usize| models[c].path.as_str();
        let project = |p: usize| format!("{ROOT}/project-{p}");
        let in_project = |p: usize| {
            models
                .iter()
                .filter(move |m| m.path.starts_with(&format!("{}/", project(p))))
        };
        let (store, errs) = (&mut self.store, &mut self.errors);
        let h = store.storage().tracer.begin(id, op.span_name());
        let write = op.is_write();
        // Each arm yields (sample, expected, got) for one exact check.
        let (sample, check): (Sample, Option<(String, String)>) = match op {
            Op::CalcManagerLoad(c) => {
                let (s, r) = timed(write, errs, || tools::calcmanager_load(store, path(c)));
                (s, r.map(|r| ("1".into(), r.items.to_string())))
            }
            Op::BuilderLoad(c) => {
                let (s, r) = timed(write, errs, || tools::builder_load(store, path(c)));
                (s, r.map(|r| ("1".into(), r.items.to_string())))
            }
            Op::BasisToolLoad(c) => {
                let (s, r) = timed(write, errs, || tools::basistool_load(store, path(c)));
                let want = usize::from(models[c].basis_covers).to_string();
                (s, r.map(|r| (want, r.items.to_string())))
            }
            Op::JobLauncherLoad(c) => {
                let (s, r) = timed(write, errs, || tools::joblauncher_load(store, path(c)));
                (s, r.map(|r| ("1".into(), r.items.to_string())))
            }
            Op::CalcViewerLoad(c) => {
                let (s, r) = timed(write, errs, || tools::calcviewer_load(store, path(c)));
                (
                    s,
                    r.map(|r| (models[c].properties.to_string(), r.items.to_string())),
                )
            }
            Op::CalcViewerStart(p) => {
                let (s, r) = timed(write, errs, || tools::calcviewer_start(store, &project(p)));
                (
                    s,
                    r.map(|r| (in_project(p).count().to_string(), r.items.to_string())),
                )
            }
            Op::JobLauncherStart(p) => {
                let (s, r) = timed(write, errs, || tools::joblauncher_start(store, &project(p)));
                let want = in_project(p)
                    .filter(|m| matches!(m.state, CalcState::InputReady | CalcState::Submitted))
                    .count();
                (s, r.map(|r| (want.to_string(), r.items.to_string())))
            }
            Op::FindByFormula(subj) => {
                let formula = subject(subj).0.empirical_formula();
                let (s, r) = timed(write, errs, || store.find_by_formula(&formula));
                let want: Vec<&str> = models
                    .iter()
                    .filter(|m| m.subject == subj)
                    .map(|m| m.path.as_str())
                    .collect();
                (s, r.map(|r| (want.join(","), r.join(","))))
            }
            Op::CalcEditorSave(c) => {
                let (s, r) = timed(write, errs, || tools::calceditor_load(store, path(c)));
                (s, r.map(|r| ("1".into(), r.items.to_string())))
            }
            Op::Annotate {
                calc,
                target,
                key,
                salt,
            } => {
                let target_path = note_path(path(calc), target);
                let value = note(salt);
                let (s, r) = timed(write, errs, || {
                    store.annotate(&target_path, &note_key(key), &value)
                });
                if r.is_some() {
                    self.notes.insert((calc, target, key), salt);
                }
                (s, None)
            }
        };
        self.store.storage().tracer.end(h);
        if let Some((want, got)) = check {
            if want != got && self.mismatches.len() < 20 {
                self.mismatches
                    .push(format!("{op:?}: expected {want}, got {got}"));
            }
        }
        sample
    }
}

fn serve<R: Repository>(repo: R) -> (Server, Arc<R>) {
    let handler = DavHandler::new(repo);
    let repo = handler.repo();
    let server =
        pse_dav::server::serve("127.0.0.1:0", server_config(), handler).expect("bind DAV server");
    (server, repo)
}

/// The server of one set-up, plus a way to walk its repository.
struct Rig {
    server: Server,
    dir: PathBuf,
    user_bytes: Box<dyn Fn() -> u64>,
}

/// Body bytes plus dead-property value bytes of everything stored.
fn user_bytes<R: Repository>(repo: &R) -> u64 {
    let mut paths = Vec::new();
    let _ = repo.walk("/", None, &mut |p| paths.push(p.to_owned()));
    let mut total = 0;
    for p in paths {
        total += repo.meta(&p).map_or(0, |m| m.content_length);
        for name in repo.list_props(&p).unwrap_or_default() {
            if let Ok(Some(prop)) = repo.get_prop(&p, &name) {
                total += prop.text_value().len() as u64;
            }
        }
    }
    total
}

/// Build the catalog through the Ecce object layer from an empty
/// directory: projects, calculations, then agent annotations.
fn setup(
    args: &Args,
    rep: usize,
    cat: &[(CalcModel, Calculation)],
    stats: Option<&Arc<RepoStats>>,
) -> (Rig, f64) {
    let t0 = Instant::now();
    let dir = args.fresh_dir(&format!("ecce-{rep}"));
    let repo = FsRepository::create(&dir, FsConfig::default()).expect("create repository");
    let (server, user_bytes): (Server, Box<dyn Fn() -> u64>) = match stats {
        Some(s) => {
            let (server, repo) = serve(TimedRepo::new(repo, Arc::clone(s)));
            (server, Box::new(move || user_bytes(repo.as_ref())))
        }
        None => {
            let (server, repo) = serve(repo);
            (server, Box::new(move || user_bytes(repo.as_ref())))
        }
    };
    let mut store = open_store(&server, Instant::now());
    for p in 0..PROJECTS {
        let proj = Project::new(&format!("project-{p}"), "seeded benchmark project");
        store.create_project(&proj).expect("create project");
    }
    for (model, calc) in cat {
        let project = pse_http::uri::parent_path(&model.path);
        store
            .save_calculation(&project, calc)
            .expect("save calculation");
    }
    for (i, (model, _)) in cat.iter().enumerate() {
        for target in 0..NOTE_TARGETS.len() {
            for key in 0..NOTE_KEYS {
                let value = note(setup_salt(args.seed, i, target, key));
                store
                    .annotate(&note_path(&model.path, target), &note_key(key), &value)
                    .expect("annotate");
            }
        }
    }
    let rig = Rig {
        server,
        dir,
        user_bytes,
    };
    (rig, t0.elapsed().as_secs_f64())
}

/// After the run: every calculation loads as saved and every annotation
/// reads back as last written.
fn verify(server: &Server, clients: &[Client], out: &mut Outcome) {
    let mut store = open_store(server, Instant::now());
    let models = &clients[0].models;
    for (i, m) in models.iter().enumerate() {
        match store.load_calculation(&m.path) {
            Ok(calc) => {
                let formula = calc.molecule.as_ref().map(|x| x.empirical_formula());
                out.check(formula.as_deref() == Some(m.formula.as_str()), || {
                    format!("{}: formula {formula:?}", m.path)
                });
                out.check(calc.state == m.state, || {
                    format!("{}: state {:?}", m.path, calc.state)
                });
                out.check(calc.properties.len() == m.properties, || {
                    format!(
                        "{}: {} properties, saved {}",
                        m.path,
                        calc.properties.len(),
                        m.properties
                    )
                });
            }
            Err(e) => out.check(false, || format!("{}: {e}", m.path)),
        }
        let owner = &clients[i % CLIENTS];
        for target in 0..NOTE_TARGETS.len() {
            for key in 0..NOTE_KEYS {
                let salt = owner.notes[&(i, target, key)];
                let got = store.annotation(&note_path(&m.path, target), &note_key(key));
                out.check(
                    got.as_ref()
                        .is_ok_and(|v| v.as_deref() == Some(note(salt).as_str())),
                    || {
                        format!(
                            "{} {}: annotation differs from the last written",
                            note_path(&m.path, target),
                            note_key(key)
                        )
                    },
                );
            }
        }
    }
}

/// Depth-0 and depth-1 PROPFIND bodies of the shapes the tools request.
fn capture_multistatus(server: &Server, models: &[CalcModel]) -> Vec<String> {
    let ns = pse_ecce::ECCE_NS;
    let body = |keys: &[&str]| {
        let props: String = keys.iter().map(|k| format!("<E:{k}/>")).collect();
        format!(
            r#"<?xml version="1.0"?><D:propfind xmlns:D="DAV:" xmlns:E="{ns}"><D:prop>{props}</D:prop></D:propfind>"#
        )
    };
    let mut c = DavClient::connect(server.local_addr()).expect("connect");
    let mut out = Vec::new();
    let mut send = |path: &str, depth: &str, xml: String| {
        let req = Request::new(Method::PropFind, path)
            .with_header("Depth", depth)
            .with_xml_body(xml);
        match c.http().send(req) {
            Ok(resp) if resp.status.code() == 207 => out.push(resp.body_text()),
            _ => {}
        }
    };
    for p in 0..PROJECTS {
        send(&format!("{ROOT}/project-{p}"), "1", body(&["type"]));
    }
    for m in models.iter().step_by(4) {
        send(
            &m.path,
            "0",
            body(&["state", "theory", "runtype", "formula"]),
        );
        send(
            &format!("{}/properties", m.path),
            "1",
            body(&["units", "kind", "size"]),
        );
    }
    out
}

/// One run of the `ecce` workload.
pub fn run(args: &Args) -> Outcome {
    let cat = catalog(args.seed);
    let models: Arc<Vec<CalcModel>> = Arc::new(cat.iter().map(|(m, _)| m.clone()).collect());
    let stats = args.trace.then(|| Arc::new(RepoStats::default()));
    let mut setups = Vec::new();
    let mut kept: Option<Rig> = None;
    for rep in 0..SETUP_REPS {
        let (rig, secs) = setup(args, rep, &cat, stats.as_ref());
        setups.push(secs);
        if let Some(old) = kept.replace(rig) {
            old.server.shutdown();
            remove(&old.dir);
        }
    }
    drop(cat);
    let rig = kept.expect("at least one set-up");
    let epoch = Instant::now();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|i| Client {
            store: open_store(&rig.server, epoch),
            models: Arc::clone(&models),
            notes: (0..models.len())
                .filter(|c| c % CLIENTS == i)
                .flat_map(|c| {
                    (0..NOTE_TARGETS.len())
                        .flat_map(move |t| (0..NOTE_KEYS).map(move |k| (c, t, k)))
                })
                .map(|(c, t, k)| ((c, t, k), setup_salt(args.seed, c, t, k)))
                .collect(),
            errors: Vec::new(),
            mismatches: Vec::new(),
        })
        .collect();
    let n = args.ops_per_client(RATE);
    let editable: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|i| {
            (i..models.len())
                .step_by(CLIENTS)
                .filter(|&c| models[c].state == CalcState::InputReady)
                .collect()
        })
        .collect();
    let warm: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|i| plan(args.seed, i, n / 10 + 20, 1, &editable[i]))
        .collect();
    let timed_ops: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|i| plan(args.seed, i, n, 2, &editable[i]))
        .collect();
    run_clients(&mut clients, warm[0].len(), 1, |i, c, r| {
        c.run(&warm[i][r], 0)
    });

    let reg = rig.server.registry();
    let before = reg.snapshot();
    let mut phases = vec![run_clients(&mut clients, n, ROUNDS, |i, c, r| {
        c.run(&timed_ops[i][r.clone()], r.start as u64)
    })];
    let untraced = Delta::between(&before, &reg.snapshot());
    let mut out = Outcome::default();
    let evictions = untraced.counter("dav.prop_cache.evictions");
    out.check(evictions > 0.0, || {
        "no property-cache evictions: the metadata fits the cache".into()
    });

    if let Some(stats) = &stats {
        for c in clients.iter_mut() {
            c.store.storage().tracer.set_enabled(true);
        }
        stats.enabled.store(true, Ordering::Relaxed);
        let before = reg.snapshot();
        let traced = run_clients(&mut clients, n, ROUNDS, |i, c, r| {
            c.run(&timed_ops[i][r.clone()], r.start as u64)
        });
        let d = Delta::between(&before, &reg.snapshot());
        stats.enabled.store(false, Ordering::Relaxed);
        let mut search_hits = 0.0;
        for c in clients.iter_mut() {
            c.store.storage().tracer.set_enabled(false);
            search_hits += c.store.storage().search_hits as f64;
        }
        let spans: Vec<Vec<Span>> = clients
            .iter_mut()
            .map(|c| std::mem::take(&mut c.store.storage().tracer.spans))
            .collect();
        let (mut op_self_ns, mut dsi_ns, mut dsi_calls) = (0.0, 0.0, 0.0);
        for s in &spans {
            for (span, self_ns) in s.iter().zip(self_times(s)) {
                if span.parent.is_none() {
                    op_self_ns += self_ns as f64;
                } else {
                    dsi_ns += span.ns() as f64;
                    dsi_calls += 1.0;
                }
            }
        }
        let ops = traced.ok_ops();
        let m = &mut out.metrics;
        common_layers(m, &d, &d, &d, &traced);
        m.put(
            "client.self_us_per_request",
            ratio(
                dsi_ns / 1e3 - d.hist_sum("http.request_latency_us"),
                d.requests(),
            ),
            "us",
        );
        m.put("ecce.dsi_calls_per_op", ratio(dsi_calls, ops), "count");
        m.put("ecce.self_ms_per_op", ratio(op_self_ns / 1e6, ops), "ms");
        m.put(
            "xml.parse_ms_per_mib",
            xml_parse_ms_per_mib(&capture_multistatus(&rig.server, &models)),
            "ms",
        );
        repo_layers(m, Some(stats), d.requests(), search_hits);
        version_layers(m, &d, traced.writes());
        cluster_layers(m, None);
        m.put(
            "trace.overhead_share",
            1.0 - traced.ops_per_s() / phases[0].ops_per_s(),
            "ratio",
        );
        let refs: Vec<&[Span]> = spans.iter().map(Vec::as_slice).collect();
        let file = args
            .out_dir
            .join(format!("spans-ecce-seed{}.tsv", args.seed));
        if let Err(e) = write_spans(&file, &refs) {
            out.notes.push(format!("could not write spans: {e}"));
        }
        phases.push(traced);
    }

    verify(&rig.server, &clients, &mut out);
    for c in &mut clients {
        out.mismatches.append(&mut c.mismatches);
        out.notes
            .extend(c.errors.iter().map(|e| format!("op error: {e}")));
    }
    let user = (rig.user_bytes)();
    let disk = crate::sys::disk_ratio(&[&rig.dir], user);
    out.notes.push(format!(
        "user bytes {user}; property-cache evictions in the timed phase {evictions}; requests {}",
        untraced.requests()
    ));
    drop(clients);
    rig.server.shutdown();
    remove(&rig.dir);

    out.notes.push(phase_note(&setups, &phases));
    out.attempted = phases.iter().map(Phase::attempted).sum();
    out.failed = phases.iter().map(Phase::failed).sum();
    if !args.trace {
        match end_to_end(&setups, &phases[0], disk) {
            Ok(m) => out.metrics = m,
            Err(e) => out.mismatches.push(e),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_catalog() {
        let a = plan(11, 0, 600, 2, &[0, 4, 8]);
        assert_eq!(a, plan(11, 0, 600, 2, &[0, 4, 8]));
        let (c1, c2) = (catalog(11), catalog(11));
        let sig = |c: &[(CalcModel, Calculation)]| -> Vec<(String, String, usize)> {
            c.iter()
                .map(|(m, _)| (m.path.clone(), m.formula.clone(), m.properties))
                .collect()
        };
        assert_eq!(sig(&c1), sig(&c2));
        assert!(a.iter().all(|op| match op {
            Op::CalcManagerLoad(c) | Op::CalcViewerLoad(c) => c % CLIENTS == 0,
            Op::CalcEditorSave(c) => [0, 4, 8].contains(c),
            Op::Annotate { calc, .. } => calc % CLIENTS == 0,
            _ => true,
        }));
    }

    #[test]
    fn other_seed_keeps_the_mix() {
        let (a, b) = (plan(1, 1, 1000, 2, &[1]), plan(2, 1, 1000, 2, &[1]));
        assert_ne!(a, b);
        let writes = |ops: &[Op]| ops.iter().filter(|o| o.is_write()).count();
        assert_eq!(writes(&a), 150);
        assert_eq!(writes(&b), 150);
        let finds = |ops: &[Op]| {
            ops.iter()
                .filter(|o| matches!(o, Op::FindByFormula(_)))
                .count()
        };
        assert_eq!(finds(&a), finds(&b));
    }

    #[test]
    fn annotations_outgrow_the_default_property_cache() {
        // Dead-property bytes the annotations alone put on the server.
        let annotation_bytes = PROJECTS * CALCS * NOTE_TARGETS.len() * NOTE_KEYS * NOTE_BYTES;
        assert!(annotation_bytes >= 2 * FsConfig::default().property_cache_bytes);
    }

    #[test]
    fn catalog_mixes_subjects_and_completion() {
        let c = catalog(3);
        for s in 0..SUBJECTS {
            assert!(c.iter().any(|(m, _)| m.subject == s));
        }
        let done = c
            .iter()
            .filter(|(m, _)| m.state == CalcState::Complete)
            .count();
        assert!(done > c.len() / 4 && done < c.len() * 3 / 4, "{done}");
    }
}
