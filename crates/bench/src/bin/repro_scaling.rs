//! repro_scaling — client-scaling throughput and latency for the
//! sharded path-lock repository, against the whole-repository-lock
//! ablation it replaced.
//!
//! The paper's Ecce deployment multiplexes many application components
//! (builder, launcher, calculation viewer, property monitors) onto one
//! DAV server; this benchmark measures how request throughput and
//! latency percentiles respond as concurrent clients grow from 1 to 16
//! under three operation mixes (read-heavy, mixed, write-heavy).
//!
//! Default run: the sharded matrix, plus one global-lock baseline at the read-heavy / 8-client point
//! with the sharded:global throughput ratio printed, plus the
//! idle-client regime: 1k+ parked keep-alive connections (10k under
//! `PSE_SCALE=full`) with fresh clients measured through the crowd and
//! the `http.conns_parked` / worker gauges recorded at peak.
//! `--ablate-global-lock` runs the full matrix with the
//! whole-repository lock instead. Results land in
//! `target/bench-json/scaling.json` (or `$PSE_BENCH_JSON`), with the
//! metric-registry delta — including `dav.pathlock.*` — alongside.
//!
//! `PSE_SCALE=full` raises the per-client operation count.

use pse_bench::harness::{emit_json_fields, full_scale, Table};
use pse_bench::workloads::{payload, scratch_dir};
use pse_dav::client::DavClient;
use pse_dav::depth::Depth;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::handler::DavHandler;
use pse_dav::property::{Property, PropertyName};
use pse_dav::server::serve;
use pse_http::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const DOCS: usize = 64;
const CLIENTS: [usize; 5] = [1, 2, 4, 8, 16];
const MIXES: [(&str, u64); 3] = [("read-heavy", 90), ("mixed", 50), ("write-heavy", 10)];
const SEED: u64 = 42;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn prop(i: usize) -> PropertyName {
    PropertyName::new("urn:scale", &format!("p{i}"))
}

struct Rig {
    server: Server,
    dir: PathBuf,
}

fn rig(tag: &str, global_lock: bool) -> Rig {
    let dir = scratch_dir(tag);
    let repo = FsRepository::create(
        &dir,
        FsConfig {
            global_lock,
            ..FsConfig::default()
        },
    )
    .unwrap();
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            // One connection per client for the whole run.
            max_requests_per_connection: 10_000_000,
            keep_alive_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        },
        DavHandler::new(repo),
    )
    .unwrap();
    let mut c = DavClient::connect(server.local_addr()).unwrap();
    c.mkcol("/scale").unwrap();
    let body = payload(1024);
    for j in 0..DOCS {
        c.put(&format!("/scale/d{j}"), body.clone(), Some("text/plain"))
            .unwrap();
        c.proppatch(
            &format!("/scale/d{j}"),
            &[Property::text(prop(0), "seed")],
            &[],
        )
        .unwrap();
    }
    Rig { server, dir }
}

fn teardown(r: Rig) {
    r.server.shutdown();
    let _ = std::fs::remove_dir_all(&r.dir);
}

/// Drive `clients` concurrent connections, each issuing `ops` requests
/// under the given read percentage. Returns (throughput req/s, p50 µs,
/// p99 µs) over the union of all per-request latencies.
fn run_point(rig: &Rig, read_pct: u64, clients: usize, ops: usize) -> (f64, f64, f64) {
    let addr = rig.server.local_addr();
    let start = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = DavClient::connect(addr).unwrap();
                let mut rng = SEED
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(c as u64);
                let body = payload(1024);
                let mut lat = Vec::with_capacity(ops);
                start.wait();
                for n in 0..ops {
                    let doc = format!("/scale/d{}", lcg(&mut rng) as usize % DOCS);
                    let read = lcg(&mut rng) % 100 < read_pct;
                    let t = Instant::now();
                    if read {
                        if n % 2 == 0 {
                            client.get(&doc).unwrap();
                        } else {
                            client
                                .propfind(&doc, Depth::Zero, &[prop(0)])
                                .unwrap();
                        }
                    } else if n % 2 == 0 {
                        client.put(&doc, body.clone(), None).unwrap();
                    } else {
                        client
                            .proppatch(
                                &doc,
                                &[Property::text(prop(0), &format!("v{n}"))],
                                &[],
                            )
                            .unwrap();
                    }
                    lat.push(t.elapsed().as_micros() as u64);
                }
                lat
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    let mut lat: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    let elapsed = t0.elapsed().as_secs_f64();
    lat.sort_unstable();
    let pct = |p: f64| lat[(((lat.len() - 1) as f64) * p) as usize] as f64;
    (
        (clients * ops) as f64 / elapsed,
        pct(0.50),
        pct(0.99),
    )
}

/// Read one HTTP response (head + Content-Length body) off a raw
/// socket; used to prove a parked connection completed a full cycle.
fn read_raw_response(s: &mut TcpStream) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        s.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let len: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse().unwrap())
        })
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).expect("response body");
}

/// The idle-client regime: park `parked` keep-alive connections (each
/// proven live by one completed GET), record the server's resident-set
/// gauges at peak, then measure 8 fresh read-heavy clients through the
/// crowd. Emits one JSON row combining both.
fn idle_point(
    r: &Rig,
    parked: usize,
    ops: usize,
    table: &mut Table,
    rows: &mut Vec<(String, Vec<(&'static str, f64)>)>,
) {
    let addr = r.server.local_addr();
    let mut crowd = Vec::with_capacity(parked);
    for i in 0..parked {
        let mut s =
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle conn #{i}/{parked}: {e}"));
        s.write_all(b"GET /scale/d0 HTTP/1.1\r\n\r\n").unwrap();
        read_raw_response(&mut s);
        crowd.push(s);
    }
    let snap = r.server.registry().snapshot();
    let (rps, _p50, p99) = run_point(r, 90, 8, ops);
    table.row(&[
        parked.to_string(),
        format!("{rps:.0}"),
        format!("{p99:.0}"),
        snap.gauge("http.conns_parked").to_string(),
        snap.gauge("http.workers_total").to_string(),
    ]);
    rows.push((
        format!("idle-reactor-n{parked}"),
        vec![
            ("parked_clients", parked as f64),
            ("fresh_rps", rps),
            ("fresh_p99_us", p99),
            ("conns_parked_gauge", snap.gauge("http.conns_parked") as f64),
            ("workers_total_gauge", snap.gauge("http.workers_total") as f64),
            ("workers_idle_gauge", snap.gauge("http.workers_idle") as f64),
        ],
    ));
    drop(crowd);
}

fn main() {
    let ablate_global = std::env::args().any(|a| a == "--ablate-global-lock");
    let ops = if full_scale() { 1500 } else { 150 };
    let label = if ablate_global { "global" } else { "sharded" };

    let r = rig("scaling", ablate_global);
    let registry = r.server.registry();
    let obs_before = registry.snapshot();

    let mut table = Table::new(
        &format!("Client scaling, {label} ({ops} ops/client)"),
        &["mix", "clients", "req/s", "p50 µs", "p99 µs"],
    );
    let mut rows: Vec<(String, Vec<(&'static str, f64)>)> = Vec::new();
    for (mix, read_pct) in MIXES {
        for clients in CLIENTS {
            let (rps, p50, p99) = run_point(&r, read_pct, clients, ops);
            table.row(&[
                mix.to_owned(),
                clients.to_string(),
                format!("{rps:.0}"),
                format!("{p50:.0}"),
                format!("{p99:.0}"),
            ]);
            rows.push((
                format!("{label}-{mix}-c{clients}"),
                vec![("throughput_rps", rps), ("p50_us", p50), ("p99_us", p99)],
            ));
        }
    }
    let obs_delta = registry.snapshot().delta(&obs_before);
    table.print();

    if !ablate_global {
        // One ablated point for the headline comparison: read-heavy at
        // 8 clients with the whole-repository lock the shards replaced.
        let rg = rig("scaling-global", true);
        let (grps, gp50, gp99) = run_point(&rg, 90, 8, ops);
        teardown(rg);
        rows.push((
            "global-read-heavy-c8".to_owned(),
            vec![
                ("throughput_rps", grps),
                ("p50_us", gp50),
                ("p99_us", gp99),
            ],
        ));
        let sharded = rows
            .iter()
            .find(|(n, _)| n == "sharded-read-heavy-c8")
            .map(|(_, f)| f[0].1)
            .unwrap();
        let ratio = sharded / grps;
        rows.push((
            "speedup-read-heavy-c8".to_owned(),
            vec![("ratio", ratio)],
        ));
        println!(
            "\nread-heavy @ 8 clients: sharded {sharded:.0} req/s vs global {grps:.0} req/s \
             → {ratio:.2}x"
        );
        if ratio < 3.0 {
            println!(
                "note: below the 3x target — expected on few-core hosts \
                 (this one: {} CPUs); the ratio tracks available parallelism",
                std::thread::available_parallelism().map_or(1, |n| n.get())
            );
        }

        // The idle-client regime: the reactor parks thousands of
        // keep-alive connections for a fd apiece while `workers_total`
        // stays at the fixed pool size.
        let sizes: &[usize] = if full_scale() {
            &[1000, 4000, 10_000]
        } else {
            &[1000]
        };
        // Both ends of every parked connection live in this process.
        let fds_needed = |parked: usize| 2 * parked as u64 + 512;
        let limit = pse_http::poll::raise_nofile_limit(fds_needed(*sizes.iter().max().unwrap()))
            .unwrap_or_else(|e| {
                println!("note: cannot raise RLIMIT_NOFILE ({e}); assuming the common 1024");
                1024
            });
        let mut idle_table = Table::new(
            "Idle-client regime (8 fresh read-heavy clients)",
            &[
                "parked",
                "fresh req/s",
                "fresh p99 µs",
                "conns_parked",
                "workers_total",
            ],
        );
        let mut skipped = Vec::new();
        for &parked in sizes {
            if fds_needed(parked) > limit {
                skipped.push(parked);
                continue;
            }
            idle_point(&r, parked, ops, &mut idle_table, &mut rows);
        }
        idle_table.print();
        for parked in skipped {
            println!(
                "skipped the {parked}-connection point: it needs {} descriptors \
                 (2 per parked connection + 512), RLIMIT_NOFILE allows {limit}",
                fds_needed(parked)
            );
        }
    }

    teardown(r);
    let path = emit_json_fields("scaling", &rows, Some(&obs_delta));
    println!("results + per-layer registry deltas: {}", path.display());
}
