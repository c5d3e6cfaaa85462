//! Reproduce the **versioning overhead** claim behind the DeltaV gate:
//! a content-addressed version store must price a realistic edit
//! history — 50 revisions of a 2 MB trajectory, each touching ~1% of
//! the body — at a small fraction of what one-full-snapshot-per-version
//! costs, and a revert from any stored version must round-trip
//! byte-identically. This is the storage bill that decides whether a
//! chemistry repository can afford to keep every revision, the way the
//! migration study decided whether DAV could afford the DBM floors.
//!
//! The history is driven over the real DAV wire protocol
//! (VERSION-CONTROL, auto-versioning PUTs, COPY-revert) against a
//! persistent store. `--check` gates the acceptance criteria: CAS
//! bytes ≤ 25% of full-snapshot bytes, and every sampled version plus
//! the revert reads back byte-identical. Emits
//! target/bench-json/versions.json (override with $PSE_BENCH_JSON).

use pse_bench::harness::{emit_json_fields, measure, secs, Table};
use pse_bench::workloads::scratch_dir;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::handler::DavHandler;
use pse_dav::server::serve;
use pse_dav::version::{DeltaV, VersionStore};
use pse_dav::DavClient;
use pse_http::server::ServerConfig;

const BODY_BYTES: usize = 2 * 1024 * 1024;
const REVISIONS: usize = 50;
const EDIT_FRACTION: f64 = 0.01;
const GATE_RATIO: f64 = 0.25;

/// Deterministic bytes (same generator the bulk suite uses).
fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// Apply one 1% edit: overwrite a contiguous window at a
/// seed-determined offset with fresh bytes.
fn edit(body: &mut [u8], seed: u64) {
    let window = (body.len() as f64 * EDIT_FRACTION) as usize;
    let offset = (seed as usize).wrapping_mul(2654435761) % (body.len() - window);
    body[offset..offset + window].copy_from_slice(&pseudo_random(window, seed ^ 0x9e3779b9));
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let mut failures: Vec<String> = Vec::new();

    let dir = scratch_dir("versions-repo");
    let repo = FsRepository::create(dir.join("data"), FsConfig::default())
        .unwrap()
        .with_version_store(VersionStore::persistent(dir.join("versions")).unwrap());
    let handler = DavHandler::new(repo);
    let repo = handler.repo();
    let store = repo.versions();
    let server = serve("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
    let mut client = DavClient::connect(server.local_addr()).unwrap();

    println!(
        "Recording {REVISIONS} revisions of a {} MB body, {}% edited per revision…",
        BODY_BYTES / (1024 * 1024),
        (EDIT_FRACTION * 100.0) as u32
    );
    let path = "/calcs/traj.xyz";
    let mut body = pseudo_random(BODY_BYTES, 42);
    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(REVISIONS);

    client.mkcol("/calcs").unwrap();
    client
        .put(path, body.clone(), Some("application/octet-stream"))
        .unwrap();
    let ((), record) = measure(|| {
        client.version_control(path).unwrap(); // current body becomes v1
        bodies.push(body.clone());
        for rev in 1..REVISIONS {
            edit(&mut body, rev as u64);
            // Auto-versioning: each PUT records one new version.
            client
                .put(path, body.clone(), Some("application/octet-stream"))
                .unwrap();
            bodies.push(body.clone());
        }
    });

    let stats = store.stats();
    assert_eq!(stats.versions, REVISIONS as u64, "one version per revision");
    let full_snapshot = stats.logical_bytes;
    let cas = stats.chunk_bytes;
    let ratio = cas as f64 / full_snapshot as f64;
    if ratio > GATE_RATIO {
        failures.push(format!(
            "CAS bytes are {:.1}% of full-snapshot bytes (gate: <= {:.0}%)",
            ratio * 100.0,
            GATE_RATIO * 100.0
        ));
    }

    // Every 10th version (and the endpoints) must read back exactly the
    // body that was recorded, long after later edits overwrote it.
    let mut sampled = 0;
    for n in (1..=REVISIONS).filter(|n| n % 10 == 0 || *n == 1 || *n == REVISIONS) {
        let got = client.version_content(path, n as u32).unwrap();
        if got != bodies[n - 1] {
            failures.push(format!("version {n} body diverged from what was recorded"));
        }
        sampled += 1;
    }

    // Revert to v1 via COPY from the history URL; the live body must be
    // byte-identical to the original, and the revert itself is a new
    // version (history is append-only).
    let ((), revert) = measure(|| client.revert_to(path, 1).unwrap());
    let live = client.get(path).unwrap();
    if live != bodies[0] {
        failures.push("revert to v1 did not restore the original body".into());
    }
    if store.version_count(path) != REVISIONS + 1 {
        failures.push("revert did not record a new version".into());
    }

    let mut table = Table::new(
        &format!("content-addressed history: {REVISIONS} x 1%-edit revisions of 2 MB"),
        &["metric", "value"],
    );
    let mb = |b: u64| format!("{:.2} MB", b as f64 / (1024.0 * 1024.0));
    table.row(&["full-snapshot bytes".into(), mb(full_snapshot)]);
    table.row(&["CAS bytes".into(), mb(cas)]);
    table.row(&["overhead ratio".into(), format!("{:.1}%", ratio * 100.0)]);
    table.row(&["live chunks".into(), stats.chunks.to_string()]);
    table.row(&["record time (total)".into(), secs(record.elapsed_s())]);
    table.row(&["revert time".into(), secs(revert.elapsed_s())]);
    table.print();

    let rows = vec![(
        "history-2mb-50rev".to_owned(),
        vec![
            ("full_snapshot_bytes", full_snapshot as f64),
            ("cas_bytes", cas as f64),
            ("ratio", ratio),
            ("chunks", stats.chunks as f64),
            ("versions", stats.versions as f64),
            ("sampled_versions", sampled as f64),
            ("record_s", record.elapsed_s()),
            ("revert_s", revert.elapsed_s()),
        ],
    )];
    let json = emit_json_fields("versions", &rows, None);
    println!("wrote {}", json.display());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    if check {
        if failures.is_empty() {
            println!(
                "--check: CAS {:.1}% <= {:.0}% of full snapshots, {sampled} versions + revert byte-identical",
                ratio * 100.0,
                GATE_RATIO * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("--check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
