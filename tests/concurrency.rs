//! Concurrency stress suite for the sharded path-lock repository.
//!
//! N writer threads and N reader threads hammer one server over real
//! TCP with a seeded mixed workload, and the readers check the
//! invariants the whole PR 5 rework promises:
//!
//! * a GET body is never stale — once a writer has seen its PUT
//!   acknowledged, every later read returns that sequence number or a
//!   newer one (this is also the no-stale-prop-cache detector: a cached
//!   entry surviving a mutation would surface here as a seq regression);
//! * a PROPFIND is never torn — the four properties one PROPPATCH batch
//!   sets always read back equal;
//! * MOVE is atomic — a Depth-1 PROPFIND of the arena sees each moving
//!   document at exactly one of its two homes, never both or neither.
//!
//! Knobs (all honoured by `scripts/ci.sh --stress`):
//!   PSE_STRESS_OPS      writer operations per thread   (default 120)
//!   PSE_STRESS_THREADS  writer (= reader) thread count (default 3)
//!   PSE_STRESS_SEED     workload schedule seed         (default 42)
//!
//! `scripts/ci.sh --stress` runs a three-seed matrix.

use davpse::dav::client::DavClient;
use davpse::dav::depth::Depth;
use davpse::dav::fsrepo::{FsConfig, FsRepository};
use davpse::dav::handler::DavHandler;
use davpse::dav::property::{Property, PropertyName};
use davpse::dav::server::serve;
use pse_http::server::ServerConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

static N: AtomicU64 = AtomicU64::new(0);

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn prop_names() -> [PropertyName; 4] {
    [0, 1, 2, 3].map(|i| PropertyName::new("urn:stress", &format!("p{i}")))
}

struct Rig {
    server: Option<pse_http::server::Server>,
    repo: Arc<FsRepository>,
    dir: PathBuf,
}

impl Rig {
    fn new(global_lock: bool) -> Rig {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "davpse-stress-{n}-{}-{}",
            if global_lock { "global" } else { "sharded" },
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let repo = FsRepository::create(
            &dir,
            FsConfig {
                global_lock,
                ..FsConfig::default()
            },
        )
        .unwrap();
        let handler = DavHandler::new(repo);
        let repo = handler.repo();
        // Long-lived connections: the stress clients each issue far more
        // requests than the default per-connection cap.
        let server = serve(
            "127.0.0.1:0",
            ServerConfig {
                max_requests_per_connection: 1_000_000,
                ..ServerConfig::default()
            },
            handler,
        )
        .unwrap();
        Rig {
            server: Some(server),
            repo,
            dir,
        }
    }

    fn client(&self) -> DavClient {
        DavClient::connect(self.server.as_ref().unwrap().local_addr()).unwrap()
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

fn parse_seq(s: &str, prefix: &str) -> u64 {
    s.strip_prefix(prefix)
        .and_then(|rest| rest.parse().ok())
        .unwrap_or_else(|| panic!("malformed value {s:?} (want {prefix}<seq>)"))
}

/// Run the seeded mixed workload and check every invariant.
fn stress(global_lock: bool, threads: usize, ops: u64, seed: u64) {
    let rig = Rig::new(global_lock);
    let mut setup = rig.client();
    setup.mkcol("/stress").unwrap();
    for i in 0..threads {
        setup
            .put(&format!("/stress/w{i}"), format!("t{i}-seq0"), None)
            .unwrap();
        setup
            .put(&format!("/stress/m{i}-a"), "mover", None)
            .unwrap();
    }

    // Per-writer sequence numbers, published only AFTER the server
    // acknowledged the mutation — the readers' staleness bound.
    let put_seq: Arc<Vec<AtomicU64>> = Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
    let prop_seq: Arc<Vec<AtomicU64>> = Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(threads * 2));

    let writers: Vec<_> = (0..threads)
        .map(|i| {
            let mut c = rig.client();
            let put_seq = Arc::clone(&put_seq);
            let prop_seq = Arc::clone(&prop_seq);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(i as u64);
                let doc = format!("/stress/w{i}");
                let mut at_a = true;
                start.wait();
                for n in 1..=ops {
                    match lcg(&mut rng) % 10 {
                        // PUT a new body carrying this writer's seq.
                        0..=3 => {
                            c.put(&doc, format!("t{i}-seq{n}"), None).unwrap();
                            put_seq[i].store(n, Ordering::SeqCst);
                        }
                        // One PROPPATCH batch sets all four props to the
                        // same value; readers detect any tearing.
                        4..=7 => {
                            let props: Vec<Property> = prop_names()
                                .into_iter()
                                .map(|nm| Property::text(nm, &format!("s{n}")))
                                .collect();
                            c.proppatch(&doc, &props, &[]).unwrap();
                            prop_seq[i].store(n, Ordering::SeqCst);
                        }
                        // MOVE the companion doc to its other home.
                        _ => {
                            let (from, to) = if at_a {
                                (format!("/stress/m{i}-a"), format!("/stress/m{i}-b"))
                            } else {
                                (format!("/stress/m{i}-b"), format!("/stress/m{i}-a"))
                            };
                            c.move_(&from, &to, false).unwrap();
                            at_a = !at_a;
                        }
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..threads)
        .map(|r| {
            let mut c = rig.client();
            let put_seq = Arc::clone(&put_seq);
            let prop_seq = Arc::clone(&prop_seq);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut rng = seed
                    .wrapping_mul(0x2545f4914f6cdd1d)
                    .wrapping_add(1000 + r as u64);
                let names = prop_names();
                start.wait();
                let mut iterations = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    iterations += 1;
                    let i = (lcg(&mut rng) as usize) % put_seq.len();
                    let doc = format!("/stress/w{i}");
                    match lcg(&mut rng) % 3 {
                        // GET: body seq must be >= what was published
                        // before the request went out.
                        0 => {
                            let floor = put_seq[i].load(Ordering::SeqCst);
                            let body = String::from_utf8(c.get(&doc).unwrap()).unwrap();
                            let got = parse_seq(&body, &format!("t{i}-seq"));
                            assert!(
                                got >= floor,
                                "stale GET on {doc}: seq {got} < published {floor}"
                            );
                        }
                        // PROPFIND: the four batch-set props must agree,
                        // and be no older than the published batch.
                        1 => {
                            let floor = prop_seq[i].load(Ordering::SeqCst);
                            let ms = c.propfind(&doc, Depth::Zero, &names).unwrap();
                            let entry = &ms.responses[0];
                            let vals: Vec<Option<String>> = names
                                .iter()
                                .map(|nm| entry.prop(nm).map(|p| p.text_value()))
                                .collect();
                            assert!(
                                vals.iter().all(|v| v == &vals[0]),
                                "torn PROPFIND on {doc}: {vals:?}"
                            );
                            let got = match &vals[0] {
                                Some(v) => parse_seq(v, "s"),
                                None => 0,
                            };
                            assert!(
                                got >= floor,
                                "stale PROPFIND on {doc}: seq {got} < published {floor}"
                            );
                        }
                        // Depth-1 PROPFIND of the arena: each mover is at
                        // exactly one of its homes.
                        _ => {
                            let ms = c
                                .propfind(
                                    "/stress",
                                    Depth::One,
                                    &[PropertyName::dav("resourcetype")],
                                )
                                .unwrap();
                            for m in 0..put_seq.len() {
                                let at_a = ms.response_for(&format!("/stress/m{m}-a")).is_some();
                                let at_b = ms.response_for(&format!("/stress/m{m}-b")).is_some();
                                assert!(
                                    at_a != at_b,
                                    "MOVE not atomic: m{m} at_a={at_a} at_b={at_b}"
                                );
                            }
                        }
                    }
                }
                iterations
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    let read_iterations: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(read_iterations > 0);

    // Quiescent state must equal the last published state exactly.
    let mut c = rig.client();
    for i in 0..threads {
        let doc = format!("/stress/w{i}");
        let body = String::from_utf8(c.get(&doc).unwrap()).unwrap();
        assert_eq!(
            parse_seq(&body, &format!("t{i}-seq")),
            put_seq[i].load(Ordering::SeqCst)
        );
        let expect = prop_seq[i].load(Ordering::SeqCst);
        for nm in &prop_names() {
            let got = c
                .get_prop(&doc, nm)
                .unwrap()
                .map(|v| parse_seq(&v, "s"))
                .unwrap_or(0);
            assert_eq!(got, expect, "final state of {nm:?} on {doc}");
        }
    }

    // The lock table actually carried the load.
    let stats = rig.repo.lock_stats();
    assert!(
        stats.acquisitions > 0,
        "path-lock table never engaged: {stats:?}"
    );
}

#[test]
fn stress_mixed_workload_sharded() {
    let threads = env_u64("PSE_STRESS_THREADS", 3) as usize;
    let ops = env_u64("PSE_STRESS_OPS", 120);
    let seed = env_u64("PSE_STRESS_SEED", 42);
    stress(false, threads, ops, seed);
}

#[test]
fn stress_mixed_workload_global_lock_ablation() {
    // The same invariants must hold with the whole-repository lock the
    // shards replaced — correctness parity between both modes.
    let threads = env_u64("PSE_STRESS_THREADS", 3) as usize;
    let ops = env_u64("PSE_STRESS_OPS", 120).min(60);
    let seed = env_u64("PSE_STRESS_SEED", 42);
    stress(true, threads, ops, seed);
}
