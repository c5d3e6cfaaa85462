//! Cluster gate: one primary, two replicas, and the consistent-hash
//! router, all in-process over real TCP.
//!
//! The suite re-runs the concurrency detectors *through the router* —
//! the invariants must survive replication, not just a single server:
//!
//! * read-your-writes — once a writer's PUT is acknowledged through the
//!   router, every later read through the router (which may land on a
//!   replica) returns that sequence number or newer;
//! * a PROPPATCH batch is never torn, even when the read is served from
//!   a replica that applied the batch from the change log;
//! * MOVE stays atomic: a Depth-1 PROPFIND sees each moving document at
//!   exactly one home, on whichever node answers;
//! * killing a replica mid-run loses no request — the router fails over
//!   and a restarted replica is re-admitted after catching up;
//! * a replica that finds the log compacted past its cursor rebuilds
//!   itself from a full snapshot, version histories included, and
//!   converges to identical state;
//! * a write storm past the log's byte cap, with a replica stalled,
//!   keeps the log under the cap and its memory under the tail bound.
//!
//! Knobs (honoured by `scripts/ci.sh --cluster`):
//!   PSE_CLUSTER_OPS      writer operations per thread (default 60)
//!   PSE_CLUSTER_THREADS  writer (= reader) thread count (default 2)
//!   PSE_CLUSTER_SEED     workload schedule seed (default 7)

use davpse::dav::client::DavClient;
use davpse::dav::depth::Depth;
use davpse::dav::property::{Property, PropertyName};
use davpse::dav::repo::Repository;
use davpse::dav::version::{HistoryImage, VersionStore};
use pse_cluster::{BackendSpec, NodeConfig, Primary, Replica, Router, RouterConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

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
    [0, 1, 2, 3].map(|i| PropertyName::new("urn:cluster", &format!("p{i}")))
}

fn temp_dir(tag: &str) -> PathBuf {
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("davpse-cluster-{tag}-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One shard (primary + `replicas` followers) fronted by a router.
struct Cluster {
    router: Option<Router>,
    primary: Option<Primary>,
    replicas: Vec<Replica>,
    dir: PathBuf,
}

impl Cluster {
    fn start(tag: &str, replicas: usize) -> Cluster {
        let dir = temp_dir(tag);
        let cfg = NodeConfig::default();
        let primary = Primary::start(&dir.join("primary"), "127.0.0.1:0", cfg.clone()).unwrap();
        let reps: Vec<Replica> = (0..replicas)
            .map(|i| {
                Replica::start(
                    &dir.join(format!("r{i}")),
                    "127.0.0.1:0",
                    primary.addr(),
                    cfg.clone(),
                )
                .unwrap()
            })
            .collect();
        let spec = BackendSpec {
            primary: primary.addr(),
            replicas: reps.iter().map(|r| r.addr()).collect(),
        };
        let router = Router::start(
            "127.0.0.1:0",
            &[spec],
            RouterConfig {
                retry_after: Duration::from_millis(200),
                ..RouterConfig::default()
            },
        )
        .unwrap();
        Cluster {
            router: Some(router),
            primary: Some(primary),
            replicas: reps,
            dir,
        }
    }

    fn client(&self) -> DavClient {
        DavClient::connect(self.router.as_ref().unwrap().addr()).unwrap()
    }

    fn wait_replicas_caught_up(&self, timeout: Duration) {
        let target = self.primary.as_ref().unwrap().seq();
        for r in &self.replicas {
            assert!(
                r.wait_caught_up(target, timeout),
                "replica {} stuck at {} (target {target})",
                r.addr(),
                r.applied()
            );
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(r) = self.router.take() {
            r.shutdown();
        }
        for r in self.replicas.drain(..) {
            r.shutdown();
        }
        if let Some(p) = self.primary.take() {
            p.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Observable replicated state: every path's kind, bytes, content type,
/// and dead properties (live ones derive from per-node clocks).
type State = BTreeMap<String, (bool, Vec<u8>, Option<String>, BTreeMap<Vec<u8>, Vec<u8>>)>;

fn state(repo: &dyn Repository) -> State {
    let mut paths = Vec::new();
    repo.walk("/", None, &mut |p: &str| paths.push(p.to_owned()))
        .unwrap();
    let mut out = State::new();
    for p in paths {
        let meta = repo.meta(&p).unwrap();
        let body = if meta.is_collection {
            Vec::new()
        } else {
            repo.get(&p).unwrap()
        };
        let mut props = BTreeMap::new();
        for prop in repo.all_props(&p).unwrap() {
            if !prop.name.is_live() {
                props.insert(prop.name.storage_key(), prop.to_storage());
            }
        }
        out.insert(p, (meta.is_collection, body, meta.content_type, props));
    }
    out
}

fn parse_seq(s: &str, prefix: &str) -> u64 {
    s.strip_prefix(prefix)
        .and_then(|rest| rest.parse().ok())
        .unwrap_or_else(|| panic!("malformed value {s:?} (want {prefix}<seq>)"))
}

/// The concurrency.rs detector suite, pointed at the router.
#[test]
fn router_preserves_staleness_and_atomicity_invariants() {
    let threads = env_u64("PSE_CLUSTER_THREADS", 2) as usize;
    let ops = env_u64("PSE_CLUSTER_OPS", 60);
    let seed = env_u64("PSE_CLUSTER_SEED", 7);

    let cluster = Cluster::start("stress", 2);
    let mut setup = cluster.client();
    setup.mkcol("/stress").unwrap();
    for i in 0..threads {
        setup
            .put(&format!("/stress/w{i}"), format!("t{i}-seq0"), None)
            .unwrap();
        setup
            .put(&format!("/stress/m{i}-a"), "mover", None)
            .unwrap();
    }

    let put_seq: Arc<Vec<AtomicU64>> = Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
    let prop_seq: Arc<Vec<AtomicU64>> = Arc::new((0..threads).map(|_| AtomicU64::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(threads * 2));

    let writers: Vec<_> = (0..threads)
        .map(|i| {
            let mut c = cluster.client();
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
                        0..=3 => {
                            c.put(&doc, format!("t{i}-seq{n}"), None).unwrap();
                            put_seq[i].store(n, Ordering::SeqCst);
                        }
                        4..=7 => {
                            let props: Vec<Property> = prop_names()
                                .into_iter()
                                .map(|nm| Property::text(nm, &format!("s{n}")))
                                .collect();
                            c.proppatch(&doc, &props, &[]).unwrap();
                            prop_seq[i].store(n, Ordering::SeqCst);
                        }
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
            let mut c = cluster.client();
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
                while !stop.load(Ordering::SeqCst) {
                    let i = (lcg(&mut rng) as usize) % put_seq.len();
                    let doc = format!("/stress/w{i}");
                    match lcg(&mut rng) % 3 {
                        0 => {
                            let floor = put_seq[i].load(Ordering::SeqCst);
                            let body = String::from_utf8(c.get(&doc).unwrap()).unwrap();
                            let got = parse_seq(&body, &format!("t{i}-seq"));
                            assert!(
                                got >= floor,
                                "stale read-your-writes GET on {doc}: {got} < {floor}"
                            );
                        }
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
                                "torn PROPFIND through router on {doc}: {vals:?}"
                            );
                            let got = match &vals[0] {
                                Some(v) => parse_seq(v, "s"),
                                None => 0,
                            };
                            assert!(got >= floor, "stale PROPFIND on {doc}: {got} < {floor}");
                        }
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
                                    "MOVE torn through router: m{m} a={at_a} b={at_b}"
                                );
                            }
                        }
                    }
                }
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    // While writes are flowing, a read of a document just written waits
    // for that write and often goes to the primary; the read-mostly tail
    // after the writers stop is served by the replicas.
    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        r.join().unwrap();
    }

    // Replication actually carried load: some reads came off replicas.
    let snap = cluster.router.as_ref().unwrap().registry().snapshot();
    assert!(
        snap.counter("cluster.router.reads_replica") > 0,
        "no read ever served by a replica: {:?}",
        snap.counters
    );
    assert!(snap.counter("cluster.router.writes") > 0);

    // Quiescent convergence: both replicas hold byte-identical state.
    cluster.wait_replicas_caught_up(Duration::from_secs(20));
    let want = state(cluster.primary.as_ref().unwrap().repo().as_ref());
    for r in &cluster.replicas {
        assert_eq!(
            state(r.repo().as_ref()),
            want,
            "replica {} diverged",
            r.addr()
        );
    }
}

/// Read floors are per resource: while writers hammer `/stress/w*`,
/// reads of documents nobody writes stay on the replica instead of
/// being held back by the shard's newest write.
#[test]
fn replicas_serve_untouched_documents_during_writes() {
    let threads = env_u64("PSE_CLUSTER_THREADS", 2) as usize;
    let ops = env_u64("PSE_CLUSTER_OPS", 60);
    let cluster = Cluster::start("untouched", 1);
    let mut c = cluster.client();
    c.mkcol("/stress").unwrap();
    for i in 0..threads {
        c.put(&format!("/stress/w{i}"), "w", None).unwrap();
    }
    let quiet: Vec<String> = (0..8).map(|i| format!("/stress/r{i}")).collect();
    for doc in &quiet {
        c.put(doc, format!("quiet {doc}"), None).unwrap();
    }
    cluster.wait_replicas_caught_up(Duration::from_secs(10));

    let registry = cluster.router.as_ref().unwrap().registry();
    let before = registry.snapshot();
    let writing = Arc::new(AtomicU64::new(threads as u64));
    let writers: Vec<_> = (0..threads)
        .map(|i| {
            let mut w = cluster.client();
            let writing = Arc::clone(&writing);
            std::thread::spawn(move || {
                for n in 0..ops.max(20) {
                    let doc = format!("/stress/w{i}");
                    w.put(&doc, format!("w{n}"), None).unwrap();
                }
                writing.fetch_sub(1, Ordering::SeqCst);
            })
        })
        .collect();
    let mut reads = 0u64;
    while reads < 20 || writing.load(Ordering::SeqCst) > 0 {
        let doc = &quiet[reads as usize % quiet.len()];
        assert_eq!(c.get(doc).unwrap(), format!("quiet {doc}").into_bytes());
        reads += 1;
    }
    let after = registry.snapshot();
    for w in writers {
        w.join().unwrap();
    }

    let delta = |name: &str| after.counter(name) - before.counter(name);
    assert!(delta("cluster.router.writes") > 0);
    assert_eq!(
        delta("cluster.router.stale_retries"),
        0,
        "a write to /stress/w* held back a read of an untouched document"
    );
    assert!(
        delta("cluster.router.reads_replica") * 10 >= reads * 9,
        "only {} of {reads} untouched reads served by the replica: {:?}",
        delta("cluster.router.reads_replica"),
        after.counters
    );
}

/// Kill one replica mid-read-load: no client request may fail, the
/// router must eject it, and a restart on the same address must be
/// re-admitted once it catches up.
#[test]
fn replica_kill_failover_and_rejoin() {
    let mut cluster = Cluster::start("failover", 2);
    let mut setup = cluster.client();
    setup.mkcol("/f").unwrap();
    for i in 0..10 {
        setup
            .put(&format!("/f/d{i}"), format!("v{i}"), None)
            .unwrap();
    }
    cluster.wait_replicas_caught_up(Duration::from_secs(10));

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let mut c = cluster.client();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = 99u64 + r;
                let mut reads = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let i = lcg(&mut rng) % 10;
                    // Every read must succeed even while a replica dies.
                    let body = c.get(&format!("/f/d{i}")).unwrap();
                    assert_eq!(body, format!("v{i}").into_bytes());
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(150));
    // Kill replica 0; keep its address and directory for the restart.
    let victim = cluster.replicas.remove(0);
    let victim_addr: SocketAddr = victim.addr();
    let victim_dir = cluster.dir.join("r0");
    victim.shutdown();

    // Write while it is down so the restart has something to catch up.
    let mut w = cluster.client();
    for i in 0..10 {
        w.put(&format!("/f/d{i}"), format!("v{i}"), None).unwrap();
    }
    std::thread::sleep(Duration::from_millis(300));

    // Restart on the same address: the router's half-open probe must
    // re-admit it.
    let reborn = Replica::start(
        &victim_dir,
        victim_addr,
        cluster.primary.as_ref().unwrap().addr(),
        NodeConfig::default(),
    )
    .unwrap();
    assert_eq!(reborn.addr(), victim_addr);
    assert!(
        reborn.wait_caught_up(
            cluster.primary.as_ref().unwrap().seq(),
            Duration::from_secs(10)
        ),
        "restarted replica never caught up"
    );
    cluster.replicas.push(reborn);

    // Keep reading until the router reports both replicas usable again.
    let deadline = Instant::now() + Duration::from_secs(10);
    let registry = cluster.router.as_ref().unwrap().registry();
    loop {
        let snap = registry.snapshot();
        if snap.gauge("cluster.router.replicas_usable") == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "ejected replica never re-admitted: {:?}",
            snap.gauges
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    stop.store(true, Ordering::SeqCst);
    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);

    let snap = registry.snapshot();
    assert!(
        snap.counter("cluster.router.failovers") > 0,
        "the kill was never observed: {:?}",
        snap.counters
    );
}

/// DeltaV through the router: version operations replicate through the
/// change log, history reads are read-your-writes-consistent even when
/// served from replicas, and a killed replica rebuilds a byte-identical
/// history when it rejoins.
#[test]
fn version_history_replicates_and_survives_rejoin() {
    use davpse::dav::version::history_url;

    let mut cluster = Cluster::start("versions", 2);
    let mut c = cluster.client();
    c.mkcol("/v").unwrap();

    // Build a history through the router: VERSION-CONTROL, a run of
    // auto-versioned edits, then a checkout/checkin session.
    let path = "/v/doc";
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    c.put(path, "rev 1", None).unwrap();
    c.version_control(path).unwrap();
    bodies.push(b"rev 1".to_vec());
    for i in 2..=4 {
        let body = format!("rev {i}");
        c.put(path, body.clone(), None).unwrap();
        bodies.push(body.into_bytes());
    }
    c.checkout(path).unwrap();
    c.put(path, "draft a", None).unwrap();
    c.put(path, "draft b", None).unwrap();
    assert_eq!(
        c.checkin(path).unwrap(),
        5,
        "drafts collapse to one version"
    );
    bodies.push(b"draft b".to_vec());

    // Read-your-writes through the router, immediately after the writes:
    // REPORT and history GET may land on a replica, but must already see
    // every version just created.
    let listed = c.versions(path).unwrap();
    assert_eq!(listed.len(), bodies.len());
    for (i, expect) in bodies.iter().enumerate() {
        let n = (i + 1) as u32;
        assert_eq!(&c.version_content(path, n).unwrap(), expect, "version {n}");
        assert_eq!(&c.get(&history_url(path, n)).unwrap(), expect);
    }

    // Every replica holds the same history, byte for byte, served from
    // its own store (direct reads never touch the primary).
    cluster.wait_replicas_caught_up(Duration::from_secs(10));
    let primary = cluster.primary.as_ref().unwrap();
    assert_eq!(primary.versions().version_count(path), bodies.len());
    for r in &cluster.replicas {
        let mut direct = DavClient::connect(r.addr()).unwrap();
        for (i, expect) in bodies.iter().enumerate() {
            let n = (i + 1) as u32;
            assert_eq!(&direct.version_content(path, n).unwrap(), expect);
        }
        assert_eq!(r.versions().version_count(path), bodies.len());
        r.versions().verify_consistency().unwrap();
    }

    // Kill replica 0; grow the history while it is down, including a
    // COPY-revert (routed to the primary like any write).
    let victim = cluster.replicas.remove(0);
    let victim_addr: SocketAddr = victim.addr();
    let victim_dir = cluster.dir.join("r0");
    victim.shutdown();

    c.put(path, "rev 6", None).unwrap();
    bodies.push(b"rev 6".to_vec());
    c.revert_to(path, 1).unwrap();
    bodies.push(b"rev 1".to_vec());
    assert_eq!(c.get(path).unwrap(), b"rev 1");

    // Restart on the same address and directory: the replay must rebuild
    // the versions recorded while the replica was down.
    let reborn = Replica::start(
        &victim_dir,
        victim_addr,
        primary.addr(),
        NodeConfig::default(),
    )
    .unwrap();
    assert!(
        reborn.wait_caught_up(primary.seq(), Duration::from_secs(10)),
        "restarted replica never caught up"
    );
    let mut direct = DavClient::connect(reborn.addr()).unwrap();
    for (i, expect) in bodies.iter().enumerate() {
        let n = (i + 1) as u32;
        assert_eq!(
            &direct.version_content(path, n).unwrap(),
            expect,
            "rebuilt version {n} diverged"
        );
        assert_eq!(&direct.get(&history_url(path, n)).unwrap(), expect);
    }
    assert_eq!(reborn.versions().version_count(path), bodies.len());
    reborn.versions().verify_consistency().unwrap();
    cluster.replicas.insert(0, reborn);

    // The router re-admits the rebuilt replica.
    let deadline = Instant::now() + Duration::from_secs(10);
    let registry = cluster.router.as_ref().unwrap().registry();
    loop {
        let snap = registry.snapshot();
        if snap.gauge("cluster.router.replicas_usable") == 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "rebuilt replica never re-admitted: {:?}",
            snap.gauges
        );
        // Keep traffic flowing so the router's probe has a reason to run.
        let _ = c.get(path);
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// MOVE of a versioned document carries its history on every node:
/// the rename is one logged mutation, and replaying it moves the
/// replica's history just as it moved the primary's.
#[test]
fn history_follows_move_on_every_replica() {
    let cluster = Cluster::start("move-history", 1);
    let mut c = cluster.client();
    c.mkcol("/m").unwrap();
    c.put("/m/a", "one", None).unwrap();
    c.version_control("/m/a").unwrap();
    c.put("/m/a", "two", None).unwrap();
    c.move_("/m/a", "/m/b", false).unwrap();
    cluster.wait_replicas_caught_up(Duration::from_secs(10));

    let primary = cluster.primary.as_ref().unwrap().versions();
    assert_eq!(primary.version_count("/m/b"), 2);
    assert_eq!(primary.version_count("/m/a"), 0);
    for r in &cluster.replicas {
        let replica = r.versions();
        assert_eq!(
            (replica.version_count("/m/a"), replica.version_count("/m/b")),
            (0, 2),
            "replica {} split the history across the move",
            r.addr()
        );
        let mut direct = DavClient::connect(r.addr()).unwrap();
        for n in 1..=2 {
            assert_eq!(
                direct.version_content("/m/b", n).unwrap(),
                primary.version_body("/m/b", n).unwrap(),
                "version {n}"
            );
        }
        replica.verify_consistency().unwrap();
    }
}

/// MOVE of a collection carries its members' histories, nested ones
/// too, on every node.
#[test]
fn collection_move_carries_member_histories_on_every_replica() {
    let cluster = Cluster::start("move-collection-history", 1);
    let mut c = cluster.client();
    c.mkcol("/p").unwrap();
    c.mkcol("/p/run").unwrap();
    c.put("/p/a", "a1", None).unwrap();
    c.version_control("/p/a").unwrap();
    c.put("/p/a", "a2", None).unwrap();
    c.put("/p/run/out", "o1", None).unwrap();
    c.version_control("/p/run/out").unwrap();
    c.move_("/p", "/q", false).unwrap();
    cluster.wait_replicas_caught_up(Duration::from_secs(10));

    let primary = cluster.primary.as_ref().unwrap().versions();
    assert_eq!(primary.versioned_paths(), ["/q/a", "/q/run/out"]);
    for r in &cluster.replicas {
        assert_eq!(
            replayed_histories(r.versions()),
            replayed_histories(primary),
            "replica {} left member histories behind",
            r.addr()
        );
        let mut direct = DavClient::connect(r.addr()).unwrap();
        assert_eq!(direct.version_content("/q/a", 2).unwrap(), b"a2");
        r.versions().verify_consistency().unwrap();
    }
}

/// Writes sent straight to a replica come back as 307 and the DAV
/// client replays them against the primary transparently.
#[test]
fn replica_redirects_writes_to_the_primary() {
    let cluster = Cluster::start("redirect", 1);
    let replica = &cluster.replicas[0];

    let mut direct = DavClient::connect(replica.addr()).unwrap();
    direct.set_follow_redirects(2);
    assert!(direct
        .put("/doc", "via-replica", Some("text/plain"))
        .unwrap());

    // The write landed on the primary and replicated back.
    let primary = cluster.primary.as_ref().unwrap();
    assert_eq!(primary.repo().get("/doc").unwrap(), b"via-replica");
    assert!(replica.wait_caught_up(primary.seq(), Duration::from_secs(10)));
    assert_eq!(direct.get("/doc").unwrap(), b"via-replica");

    // Without redirect-following the 307 surfaces as an error status.
    let mut blind = DavClient::connect(replica.addr()).unwrap();
    assert!(blind.put("/doc2", "x", None).is_err());
}

/// Two shards: the ring pins each top-level collection to one shard,
/// and reads through the router find every document.
#[test]
fn consistent_hashing_shards_the_namespace() {
    let dir = temp_dir("shards");
    let cfg = NodeConfig::default();
    let p0 = Primary::start(&dir.join("s0"), "127.0.0.1:0", cfg.clone()).unwrap();
    let p1 = Primary::start(&dir.join("s1"), "127.0.0.1:0", cfg.clone()).unwrap();
    let specs = [
        BackendSpec {
            primary: p0.addr(),
            replicas: vec![],
        },
        BackendSpec {
            primary: p1.addr(),
            replicas: vec![],
        },
    ];
    let router = Router::start("127.0.0.1:0", &specs, RouterConfig::default()).unwrap();

    let mut c = DavClient::connect(router.addr()).unwrap();
    let projects: Vec<String> = (0..8).map(|i| format!("proj{i}")).collect();
    for p in &projects {
        c.mkcol(&format!("/{p}")).unwrap();
        c.put(&format!("/{p}/notes"), format!("data-{p}"), None)
            .unwrap();
    }

    let shards = [&p0, &p1];
    let mut per_shard = [0usize; 2];
    for p in &projects {
        let path = format!("/{p}/notes");
        let home = router.shard_for(&path);
        per_shard[home] += 1;
        // The whole project lives on its shard, and only there.
        assert_eq!(
            shards[home].repo().get(&path).unwrap(),
            format!("data-{p}").into_bytes()
        );
        assert!(
            !shards[1 - home].repo().exists(&path),
            "{path} leaked shards"
        );
        // MOVE within the project stays on one backend.
        c.move_(&path, &format!("/{p}/notes2"), false).unwrap();
        assert!(shards[home].repo().exists(&format!("/{p}/notes2")));
        // And the router still finds it.
        assert_eq!(
            c.get(&format!("/{p}/notes2")).unwrap(),
            format!("data-{p}").into_bytes()
        );
    }
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "all projects hashed to one shard: {per_shard:?}"
    );

    // A MOVE whose destination hashes to the other shard is refused
    // (502) instead of silently parking the data where the ring will
    // never look for it.
    let (src, dst) = {
        let mut by_shard = [None, None];
        for p in &projects {
            by_shard[router.shard_for(&format!("/{p}"))] = Some(p.clone());
        }
        (by_shard[0].clone().unwrap(), by_shard[1].clone().unwrap())
    };
    let from = format!("/{src}/notes2");
    assert!(c.move_(&from, &format!("/{dst}/stolen"), false).is_err());
    assert!(
        shards[router.shard_for(&from)].repo().exists(&from),
        "rejected cross-shard MOVE must leave the source intact"
    );

    router.shutdown();
    p0.shutdown();
    p1.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two shards, one replica each: a history URL routes with the document
/// it is the history of, not with `/.well-known`. A history GET, a
/// version REPORT and a revert COPY from a version URL all work through
/// the router for a project on the other shard.
#[test]
fn history_urls_route_to_their_documents_shard() {
    use davpse::dav::version::history_url;

    let dir = temp_dir("history-shards");
    let cfg = NodeConfig::default();
    let primaries: Vec<Primary> = (0..2)
        .map(|s| Primary::start(&dir.join(format!("s{s}")), "127.0.0.1:0", cfg.clone()).unwrap())
        .collect();
    let replicas: Vec<Replica> = primaries
        .iter()
        .enumerate()
        .map(|(s, p)| {
            let dir = dir.join(format!("s{s}r"));
            Replica::start(&dir, "127.0.0.1:0", p.addr(), cfg.clone()).unwrap()
        })
        .collect();
    let specs: Vec<BackendSpec> = primaries
        .iter()
        .zip(&replicas)
        .map(|(p, r)| BackendSpec {
            primary: p.addr(),
            replicas: vec![r.addr()],
        })
        .collect();
    let router = Router::start("127.0.0.1:0", &specs, RouterConfig::default()).unwrap();

    let well_known = router.shard_for("/.well-known/changes");
    let project = (0..64)
        .map(|i| format!("/proj{i}"))
        .find(|p| router.shard_for(p) != well_known)
        .expect("some project hashes away from /.well-known");
    let path = format!("{project}/doc");
    let home = router.shard_for(&path);
    assert_eq!(router.shard_for(&history_url(&path, 2)), home);

    let mut c = DavClient::connect(router.addr()).unwrap();
    c.mkcol(&project).unwrap();
    c.put(&path, "one", None).unwrap();
    c.version_control(&path).unwrap();
    c.put(&path, "two", None).unwrap();
    c.put(&path, "three", None).unwrap();
    assert_eq!(primaries[home].versions().version_count(&path), 3);

    // History GET, version-tree and version-content REPORTs, revert COPY.
    assert_eq!(c.get(&history_url(&path, 2)).unwrap(), b"two");
    assert_eq!(c.versions(&path).unwrap().len(), 3);
    assert_eq!(c.version_content(&path, 1).unwrap(), b"one");
    c.revert_to(&path, 1).unwrap();
    assert_eq!(c.get(&path).unwrap(), b"one");
    // The revert recorded version 4 on the document's shard only.
    assert_eq!(c.get(&history_url(&path, 4)).unwrap(), b"one");
    assert_eq!(primaries[1 - home].versions().version_count(&path), 0);

    router.shutdown();
    for r in replicas {
        r.shutdown();
    }
    for p in primaries {
        p.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every versioned path of `store` with its whole history: numbers,
/// creation times, lengths, bodies and checkout state.
fn histories(store: &VersionStore) -> Vec<(String, HistoryImage)> {
    store
        .versioned_paths()
        .into_iter()
        .map(|p| {
            let image = store.history_image(&p).unwrap();
            (p, image)
        })
        .collect()
}

/// One document's history as replay rebuilds it: the path, each
/// version's (number, length, body), and whether it is checked out.
type ReplayedHistory = (String, Vec<(u32, u64, Vec<u8>)>, bool);

/// Histories as replay rebuilds them: creation times are each node's
/// own clock, so only numbers, lengths, bodies and checkout state.
fn replayed_histories(store: &VersionStore) -> Vec<ReplayedHistory> {
    histories(store)
        .into_iter()
        .map(|(p, h)| {
            let versions = h
                .versions
                .into_iter()
                .map(|(m, body)| (m.number, m.len, body))
                .collect();
            (p, versions, h.checked_out)
        })
        .collect()
}

fn wait_for(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A replica whose cursor predates the retained window rebuilds from a
/// full snapshot, histories included, and converges anyway. The window
/// moves because a live replica has applied everything.
#[test]
fn compaction_forces_snapshot_resync() {
    let dir = temp_dir("resync");
    let cfg = NodeConfig::default();
    let primary = Primary::start(&dir.join("primary"), "127.0.0.1:0", cfg.clone()).unwrap();
    let follower =
        Replica::start(&dir.join("r0"), "127.0.0.1:0", primary.addr(), cfg.clone()).unwrap();

    let mut c = DavClient::connect(primary.addr()).unwrap();
    c.mkcol("/proj").unwrap();
    for i in 0..20 {
        c.put(
            &format!("/proj/d{i}"),
            format!("body-{i}"),
            Some("text/plain"),
        )
        .unwrap();
    }
    c.proppatch(
        "/proj/d0",
        &[Property::text(PropertyName::new("urn:e", "k"), "v")],
        &[],
    )
    .unwrap();
    c.version_control("/proj/d1").unwrap();
    c.put("/proj/d1", "body-1 edited", Some("text/plain"))
        .unwrap();

    // Once the follower has applied everything, the log keeps only its
    // newest frame, so a fresh replica's `since=0` pull hits 410.
    let last = primary.seq();
    assert!(follower.wait_caught_up(last, Duration::from_secs(10)));
    wait_for(
        "the log drops what the follower applied",
        Duration::from_secs(10),
        || primary.changelog().start_seq() == last,
    );

    let replica = Replica::start(&dir.join("r1"), "127.0.0.1:0", primary.addr(), cfg).unwrap();
    assert!(
        replica.wait_caught_up(primary.seq(), Duration::from_secs(10)),
        "resync never converged (applied {})",
        replica.applied()
    );
    assert!(
        replica
            .registry()
            .snapshot()
            .counter("cluster.replica.resyncs")
            > 0,
        "replica caught up without a resync — compaction not exercised"
    );
    assert_eq!(
        state(replica.repo().as_ref()),
        state(primary.repo().as_ref()),
        "snapshot resync diverged"
    );
    assert_eq!(
        histories(replica.versions()),
        histories(primary.versions()),
        "snapshot resync did not carry the history"
    );
    replica.versions().verify_consistency().unwrap();

    replica.shutdown();
    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A write storm past the log's byte cap while the only replica is
/// down. The log stays under the cap on disk and under the tail bound
/// in memory (read from the primary's gauges). The returning replica
/// gets 410, resyncs, and converges: bodies, dead properties, and
/// histories byte-identical — including the checkout it missed, so a
/// later replayed PUT of that document applies instead of answering
/// 409 (manual versioning), and without the history the primary moved
/// away in the gap.
#[test]
fn stalled_replica_storm_stays_under_the_cap_and_resyncs_histories() {
    let dir = temp_dir("storm");
    let cfg = NodeConfig {
        auto_version: false,
        ..NodeConfig::default()
    };
    let primary = Primary::start(&dir.join("primary"), "127.0.0.1:0", cfg.clone()).unwrap();
    let replica_dir = dir.join("r0");
    let replica = Replica::start(&replica_dir, "127.0.0.1:0", primary.addr(), cfg.clone()).unwrap();
    let mut c = DavClient::connect(primary.addr()).unwrap();
    let key = PropertyName::new("urn:storm", "k");
    c.mkcol("/s").unwrap();
    for doc in ["/s/doc", "/s/held", "/s/moving"] {
        c.put(doc, format!("{doc} v1"), Some("text/plain")).unwrap();
        c.version_control(doc).unwrap();
    }
    c.proppatch("/s/doc", &[Property::text(key.clone(), "v1")], &[])
        .unwrap();
    assert!(replica.wait_caught_up(primary.seq(), Duration::from_secs(10)));
    let registry = primary.registry();
    wait_for(
        "the primary knows its replica",
        Duration::from_secs(10),
        || registry.snapshot().gauge("cluster.primary.log.replicas") == 1,
    );
    replica.shutdown();

    // The gap: a CHECKOUT the replica misses, a versioned MOVE, then a
    // storm of 1 MiB bodies past the cap with CHECKOUT/PUT/CHECKIN
    // cycles and PROPPATCHes mixed in.
    c.checkout("/s/held").unwrap();
    c.put("/s/held", "/s/held draft", Some("text/plain"))
        .unwrap();
    c.move_("/s/moving", "/s/moved", false).unwrap();
    let cap = pse_cluster::log::CAP_BYTES;
    let tail = pse_cluster::log::TAIL_BYTES as i64;
    let mut written = 0u64;
    let mut i = 0u64;
    while written <= cap + cap / 4 {
        let mut body = vec![b'.'; 1 << 20];
        body[..8].copy_from_slice(&i.to_le_bytes());
        c.put(&format!("/s/big{}", i % 4), body, None).unwrap();
        written += 1 << 20;
        if i.is_multiple_of(4) {
            c.checkout("/s/doc").unwrap();
            c.put("/s/doc", format!("/s/doc v{i}"), Some("text/plain"))
                .unwrap();
            c.checkin("/s/doc").unwrap();
            c.proppatch(
                "/s/doc",
                &[Property::text(key.clone(), &format!("v{i}"))],
                &[],
            )
            .unwrap();
        }
        let snap = registry.snapshot();
        let bytes = snap.gauge("cluster.primary.log.bytes");
        let mem = snap.gauge("cluster.primary.log.mem_bytes");
        assert!(bytes <= cap as i64, "log file {bytes} B past the cap");
        assert!(mem <= tail, "in-memory tail {mem} B past its bound");
        i += 1;
    }
    let snap = registry.snapshot();
    assert!(snap.counter("cluster.primary.log.cap_compactions") > 0);
    assert_eq!(
        snap.gauge("cluster.primary.log.last_seq") as u64,
        primary.seq()
    );
    assert!(snap.gauge("cluster.primary.log.start_seq") > 1);
    assert!(snap.gauge("cluster.primary.log.retained") > 0);
    assert_eq!(
        snap.gauge("cluster.primary.log.replicas"),
        1,
        "the stalled replica is live until its TTL runs out"
    );

    let replica = Replica::start(&replica_dir, "127.0.0.1:0", primary.addr(), cfg).unwrap();
    assert!(
        replica.wait_caught_up(primary.seq(), Duration::from_secs(60)),
        "resync never converged (applied {})",
        replica.applied()
    );
    assert!(
        replica
            .registry()
            .snapshot()
            .counter("cluster.replica.resyncs")
            > 0
    );
    assert_eq!(
        state(replica.repo().as_ref()),
        state(primary.repo().as_ref())
    );
    assert_eq!(histories(replica.versions()), histories(primary.versions()));
    assert!(replica.versions().is_checked_out("/s/held"));
    assert!(!replica.versions().is_versioned("/s/moving"));
    replica.versions().verify_consistency().unwrap();

    // The replayed PUT of the document checked out in the gap applies.
    c.put("/s/held", "/s/held after", Some("text/plain"))
        .unwrap();
    assert!(replica.wait_caught_up(primary.seq(), Duration::from_secs(10)));
    assert_eq!(replica.repo().get("/s/held").unwrap(), b"/s/held after");
    assert_eq!(
        replica
            .registry()
            .snapshot()
            .counter("cluster.replica.apply_errors"),
        0
    );

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- indexed SEARCH across the cluster ----

use davpse::dav::fsrepo::{FsConfig, FsRepository};
use davpse::dav::repo::PropPatchOp;
use davpse::dav::search::{self, Condition, Query};
use pse_cluster::ChangeLog;

fn formula() -> PropertyName {
    PropertyName::new("urn:cluster", "formula")
}

/// SEARCH is a read: the router must pin it to a replica shard like any
/// PROPFIND, and the answer a replica serves from its log-applied index
/// must match both the primary's and a from-scratch scan.
#[test]
fn search_routes_to_replicas_and_replica_indexes_agree() {
    let cluster = Cluster::start("search", 2);
    let mut c = cluster.client();
    c.mkcol("/calcs").unwrap();
    for i in 0..12 {
        let p = format!("/calcs/job{i:02}");
        c.put(&p, "geometry", None).unwrap();
        c.proppatch(
            &p,
            &[Property::text(
                formula(),
                if i % 4 == 0 { "H2O" } else { "UO2" },
            )],
            &[],
        )
        .unwrap();
    }
    cluster.wait_replicas_caught_up(Duration::from_secs(10));

    // Through the router: correct answer, served by a replica.
    let registry = cluster.router.as_ref().unwrap().registry();
    let before = registry.snapshot();
    let mut hrefs = c.search_eq("/calcs", &formula(), "H2O").unwrap();
    hrefs.sort_unstable();
    assert_eq!(
        hrefs,
        ["/calcs/job00", "/calcs/job04", "/calcs/job08"],
        "SEARCH through the router returned the wrong matches"
    );
    let delta = registry.snapshot().delta(&before);
    assert!(
        delta.counter("cluster.router.reads_replica") > 0,
        "SEARCH was not routed to a replica — misclassified as a write?"
    );

    // Paged SEARCH through the router: the cursor round-trips intact.
    let paged = c.search_eq_paged("/calcs", &formula(), "UO2", 4).unwrap();
    assert_eq!(paged.len(), 9, "paged SEARCH lost matches: {paged:?}");

    // On every node's repository directly: the planner must engage
    // (the index was maintained purely by applying shipped change
    // records on replicas) and agree with the scan byte-for-byte.
    let q = Query::new("/calcs", Condition::Eq(formula(), "H2O".to_owned()));
    let primary_repo = cluster.primary.as_ref().unwrap().repo();
    let out = search::execute_paged(primary_repo.as_ref(), &q).unwrap();
    assert!(out.indexed, "primary's repository did not use its index");
    assert_eq!(
        out.ms.to_xml(),
        search::execute_scan(primary_repo.as_ref(), &q)
            .unwrap()
            .to_xml()
    );
    for (i, replica) in cluster.replicas.iter().enumerate() {
        let out = search::execute_paged(replica.repo().as_ref(), &q).unwrap();
        assert!(out.indexed, "replica {i} did not use its index");
        assert_eq!(
            out.ms.to_xml(),
            search::execute_scan(replica.repo().as_ref(), &q)
                .unwrap()
                .to_xml(),
            "replica {i}: index diverged from scan"
        );
    }
}

/// Index ≡ scan on a repository whose commit hook feeds the change
/// log: every mutation is both journalled for shipping and mirrored
/// into the index, and the two views must never drift.
#[test]
fn hooked_repository_index_equivalent_to_scan() {
    let dir = temp_dir("hooked-eq");
    let log = ChangeLog::open(&dir.join("log")).unwrap();
    let repo = FsRepository::create(dir.join("data"), FsConfig::default()).unwrap();
    log.record_commits(&repo);
    let names = prop_names();
    let vals = ["H2O", "UO2", "0", "-2.5", "3.5", "long"];
    repo.mkcol("/a").unwrap();
    repo.mkcol("/b").unwrap();
    let mut rng = env_u64("PSE_CLUSTER_SEED", 7).wrapping_mul(0x9e3779b97f4a7c15);
    for _ in 0..250 {
        let p = format!(
            "/{}/d{}",
            ["a", "b"][(lcg(&mut rng) % 2) as usize],
            lcg(&mut rng) % 5
        );
        let name = &names[(lcg(&mut rng) as usize) % names.len()];
        let val = vals[(lcg(&mut rng) as usize) % vals.len()];
        match lcg(&mut rng) % 8 {
            0 | 1 => {
                let _ = repo.put(&p, b"body", None);
            }
            2 | 3 => {
                let _ = repo.set_prop(&p, &Property::text(name.clone(), val));
            }
            4 => {
                let _ = repo.remove_prop(&p, name);
            }
            5 => {
                let _ =
                    repo.patch_props(&p, &[PropPatchOp::Set(Property::text(name.clone(), val))]);
            }
            6 => {
                let _ = repo.delete(&p);
            }
            _ => {
                let dst = format!("/b/d{}", lcg(&mut rng) % 5);
                if dst != p {
                    let _ = repo.copy(&p, &dst, true);
                }
            }
        }
    }
    let mut conditions = vec![Condition::IsDefined(names[0].clone()), Condition::True];
    for v in ["H2O", "0", "long"] {
        conditions.push(Condition::Eq(names[1].clone(), v.to_owned()));
    }
    conditions.push(Condition::Gt(names[2].clone(), -1.0));
    conditions.push(Condition::Lt(names[2].clone(), 1.0));
    conditions.push(Condition::Or(vec![
        Condition::Eq(names[0].clone(), "H2O".to_owned()),
        Condition::Eq(names[0].clone(), "UO2".to_owned()),
    ]));
    for (i, cond) in conditions.into_iter().enumerate() {
        let q = Query::new("/", cond);
        assert_eq!(
            search::execute(&repo, &q).unwrap().to_xml(),
            search::execute_scan(&repo, &q).unwrap().to_xml(),
            "hooked repository: query #{i} diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
