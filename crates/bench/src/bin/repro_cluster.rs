//! repro_cluster — read-throughput scaling across replica counts, and
//! a mid-run replica kill + rejoin, through the consistent-hash router.
//!
//! The cluster subsystem's pitch is horizontal read scaling: one
//! primary ships its change log to N replicas and the router balances
//! reads across whichever replicas have caught up past the
//! read-your-writes floor. This benchmark measures GET throughput
//! through the router at 1, 2, and 4 replicas, then kills one replica
//! mid-run and verifies the router absorbs it (zero client-visible
//! errors) and re-admits the node after a restart.
//!
//! The container this runs in has one CPU, which cannot show real
//! multi-node scaling: every node shares the same core, so CPU-bound
//! request service would be flat no matter how many replicas exist.
//! Each node therefore emulates storage latency (`service_delay`,
//! 5 ms — sleeping workers cost no cycles), making per-node capacity
//! `min_daemons / service_delay` exactly as an I/O-bound storage node
//! behaves; adding replicas adds real capacity even on one core. The
//! router's worker pool is sized above total client concurrency so the
//! front end never caps the measurement.
//!
//! Results land in `target/bench-json/cluster.json` (or
//! `$PSE_BENCH_JSON`), one row per replica count (throughput + replica
//! lag gauges + the replica-read fraction) plus one row for the
//! failover exercise. `--check` re-asserts the acceptance criterion:
//! throughput strictly increases 1 → 2 → 4 and the failover run saw
//! zero errors. `PSE_SCALE=full` lengthens each measured window.

use pse_bench::harness::{emit_json_fields, full_scale, Table};
use pse_bench::workloads::scratch_dir;
use pse_cluster::{BackendSpec, NodeConfig, Primary, Replica, Router, RouterConfig};
use pse_dav::client::DavClient;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const DOCS: usize = 64;
const CLIENTS: usize = 40;
const SERVICE_DELAY: Duration = Duration::from_millis(5);
const NODE_DAEMONS: usize = 8;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

struct Cluster {
    router: Option<Router>,
    primary: Option<Primary>,
    replicas: Vec<Replica>,
    dir: PathBuf,
}

fn node_config() -> NodeConfig {
    let mut cfg = NodeConfig::default();
    // The reactor worker pool is exactly `min_daemons`: with the
    // emulated 5 ms service time this pins per-node capacity at
    // min_daemons / service_delay ≈ 1.6k req/s, so capacity scales
    // with node count instead of with the (single) CPU.
    cfg.server.min_daemons = NODE_DAEMONS;
    cfg.service_delay = SERVICE_DELAY;
    cfg.pull_interval = Duration::from_millis(2);
    cfg
}

fn start_cluster(tag: &str, replicas: usize) -> Cluster {
    let dir = scratch_dir(tag);
    let cfg = node_config();
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
    let mut rcfg = RouterConfig {
        retry_after: Duration::from_millis(300),
        ..RouterConfig::default()
    };
    // Every in-flight client request occupies one router worker while
    // it waits on a backend; size the pool above client concurrency.
    rcfg.server.min_daemons = CLIENTS + 8;
    let router = Router::start("127.0.0.1:0", &[spec], rcfg).unwrap();

    let mut c = DavClient::connect(router.addr()).unwrap();
    c.mkcol("/bench").unwrap();
    for j in 0..DOCS {
        c.put(
            &format!("/bench/d{j}"),
            format!("doc-{j}"),
            Some("text/plain"),
        )
        .unwrap();
    }
    let cluster = Cluster {
        router: Some(router),
        primary: Some(primary),
        replicas: reps,
        dir,
    };
    // Replicas must clear the setup writes' read-your-writes floor
    // before they can serve reads at all.
    let target = cluster.primary.as_ref().unwrap().seq();
    for r in &cluster.replicas {
        assert!(
            r.wait_caught_up(target, Duration::from_secs(30)),
            "replica {} never caught up for the measurement",
            r.addr()
        );
    }
    cluster
}

fn teardown(mut c: Cluster) {
    if let Some(r) = c.router.take() {
        r.shutdown();
    }
    for r in c.replicas.drain(..) {
        r.shutdown();
    }
    if let Some(p) = c.primary.take() {
        p.shutdown();
    }
    let _ = std::fs::remove_dir_all(&c.dir);
}

/// Drive GETs through the router from `CLIENTS` threads for `window`.
/// Returns (requests completed, client-visible errors).
fn read_phase(cluster: &Cluster, window: Duration, mid_run: impl FnOnce()) -> (u64, u64) {
    let addr = cluster.router.as_ref().unwrap().addr();
    let start = Arc::new(Barrier::new(CLIENTS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let start = Arc::clone(&start);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut c = DavClient::connect(addr).unwrap();
                let mut rng = 0x5eed_u64.wrapping_add(t as u64);
                let mut ok = 0u64;
                let mut errs = 0u64;
                start.wait();
                while !stop.load(Ordering::SeqCst) {
                    let doc = format!("/bench/d{}", lcg(&mut rng) as usize % DOCS);
                    match c.get(&doc) {
                        Ok(_) => ok += 1,
                        Err(_) => {
                            errs += 1;
                            // The router replies on the same connection
                            // even for failures; reconnect only if the
                            // transport itself died.
                            if let Ok(nc) = DavClient::connect(addr) {
                                c = nc;
                            }
                        }
                    }
                }
                (ok, errs)
            })
        })
        .collect();
    start.wait();
    mid_run();
    let t0 = Instant::now();
    while t0.elapsed() < window {
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::SeqCst);
    let mut ok = 0u64;
    let mut errs = 0u64;
    for h in handles {
        let (o, e) = h.join().unwrap();
        ok += o;
        errs += e;
    }
    (ok, errs)
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let window = if full_scale() {
        Duration::from_secs(6)
    } else {
        Duration::from_millis(2500)
    };

    let mut table = Table::new(
        &format!(
            "Replica read scaling through the router ({CLIENTS} clients, \
             {NODE_DAEMONS} daemons x {} ms emulated service time per node)",
            SERVICE_DELAY.as_millis()
        ),
        &["replicas", "req/s", "replica-read %", "max lag", "errors"],
    );
    let mut rows: Vec<(String, Vec<(&'static str, f64)>)> = Vec::new();
    let mut scaling: Vec<f64> = Vec::new();

    for replicas in [1usize, 2, 4] {
        let cluster = start_cluster(&format!("cluster-r{replicas}"), replicas);
        let registry = cluster.router.as_ref().unwrap().registry();
        let before = registry.snapshot();
        let t0 = Instant::now();
        let (ok, errs) = read_phase(&cluster, window, || {});
        let elapsed = t0.elapsed().as_secs_f64();
        let delta = registry.snapshot().delta(&before);

        let rps = ok as f64 / elapsed;
        let replica_reads = delta.counter("cluster.router.reads_replica");
        let total_reads = replica_reads + delta.counter("cluster.router.reads_primary");
        let replica_frac = replica_reads as f64 / total_reads.max(1) as f64;
        // Post-run lag, straight from each replica's gauges: bounded
        // staleness made visible (zero here — the read phase writes
        // nothing, so appliers sit at the head).
        let max_lag = cluster
            .replicas
            .iter()
            .map(|r| r.registry().snapshot().gauge("cluster.replica.lag"))
            .max()
            .unwrap_or(0);
        let applied = cluster
            .replicas
            .iter()
            .map(|r| r.applied())
            .min()
            .unwrap_or(0);

        table.row(&[
            replicas.to_string(),
            format!("{rps:.0}"),
            format!("{:.0}%", replica_frac * 100.0),
            max_lag.to_string(),
            errs.to_string(),
        ]);
        rows.push((
            format!("read-scaling-r{replicas}"),
            vec![
                ("replicas", replicas as f64),
                ("throughput_rps", rps),
                ("replica_read_fraction", replica_frac),
                ("max_replica_lag", max_lag as f64),
                ("min_applied_seq", applied as f64),
                ("client_errors", errs as f64),
            ],
        ));
        scaling.push(rps);
        teardown(cluster);
    }
    table.print();

    // Failover: kill one of two replicas mid-run, restart it, and
    // require zero client-visible errors plus re-admission.
    let mut cluster = start_cluster("cluster-failover", 2);
    let registry = cluster.router.as_ref().unwrap().registry();
    let primary_addr = cluster.primary.as_ref().unwrap().addr();
    let victim = cluster.replicas.remove(0);
    let victim_addr = victim.addr();
    let victim_dir = cluster.dir.join("r0");

    // A side thread owns the victim's lifecycle; read_phase owns the
    // clock. Kill a third of the way in, restart at two thirds.
    let kill_after = window / 3;
    let restart_after = 2 * window / 3;
    let lifecycle = std::thread::spawn(move || {
        std::thread::sleep(kill_after);
        victim.shutdown();
        std::thread::sleep(restart_after - kill_after);
        Replica::start(&victim_dir, victim_addr, primary_addr, node_config()).unwrap()
    });
    let t0 = Instant::now();
    let (ok, errs) = read_phase(&cluster, window, || {});
    let elapsed = t0.elapsed().as_secs_f64();
    cluster.replicas.push(lifecycle.join().unwrap());
    let failover_rps = ok as f64 / elapsed;

    // Drive reads until the router's half-open probe re-admits the
    // restarted node.
    let mut probe = DavClient::connect(cluster.router.as_ref().unwrap().addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    let readmitted = loop {
        let _ = probe.get("/bench/d0");
        if registry.snapshot().gauge("cluster.router.replicas_usable") == 2 {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let failovers = registry.snapshot().counter("cluster.router.failovers");
    teardown(cluster);

    println!(
        "\nfailover: {failover_rps:.0} req/s through a mid-run replica kill, \
         {errs} client errors, {failovers} failovers, re-admitted: {readmitted}"
    );
    rows.push((
        "failover-kill-rejoin".to_owned(),
        vec![
            ("throughput_rps", failover_rps),
            ("client_errors", errs as f64),
            ("failovers", failovers as f64),
            ("readmitted", if readmitted { 1.0 } else { 0.0 }),
        ],
    ));

    let path = emit_json_fields("cluster", &rows, None);
    println!("results: {}", path.display());

    if check {
        assert!(
            scaling[1] > scaling[0] && scaling[2] > scaling[1],
            "read throughput must increase with replica count: {scaling:?}"
        );
        assert_eq!(errs, 0, "replica kill leaked errors to clients");
        assert!(readmitted, "restarted replica was never re-admitted");
        println!("--check: scaling monotonic, failover clean");
    }
}
