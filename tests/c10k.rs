//! The C10k gate: the reactor must hold 1000+ mostly-idle keep-alive
//! connections at a cost of one fd each while a fixed worker pool far
//! smaller than the connection count keeps serving fresh clients fast.
//!
//! This is the proof obligation of the event-driven server core: under
//! thread-per-connection the resident set below would demand a thousand
//! OS threads.
//!
//! The gate:
//!
//! 1. Parks `PSE_C10K_CONNS` (default 1000) keep-alive connections
//!    against a real DAV server, each proven live by one completed GET.
//! 2. Asserts the obs gauges tell the C10k story: `http.conns_parked`
//!    counts the resident set, and `http.workers_total` stays at the
//!    pool size (≤ 16).
//! 3. Runs fresh one-shot clients through the parked crowd and bounds
//!    their latency.
//! 4. Re-runs the concurrency suite's staleness detector at small scale
//!    while the crowd is parked: acknowledged PUTs must never read back
//!    stale, crowd or no crowd.
//! 5. Shuts down and requires the parked fds to be closed promptly (no
//!    waiting out keep-alive timers).
//!
//! Knob: `PSE_C10K_CONNS` (resident set size).

use davpse::dav::client::DavClient;
use davpse::dav::fsrepo::{FsConfig, FsRepository};
use davpse::dav::handler::DavHandler;
use davpse::dav::server::serve;
use pse_http::server::ServerConfig;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read one HTTP response (headers + Content-Length body) off a raw
/// socket.
fn read_raw_response(s: &mut TcpStream) -> String {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        s.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
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
    head
}

#[test]
fn c10k_parked_crowd_does_not_degrade_service() {
    let conns = env_usize("PSE_C10K_CONNS", 1000);
    let pool = 8usize; // well under the ≤16 acceptance bound

    // Both ends of every parked connection live in this process.
    let _ = pse_http::poll::raise_nofile_limit((conns as u64) * 2 + 512);

    let dir = std::env::temp_dir().join(format!("davpse-c10k-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
    let handler = DavHandler::new(repo);
    let server = serve(
        "127.0.0.1:0",
        ServerConfig {
            min_daemons: pool,
            max_requests_per_connection: 1_000_000,
            keep_alive_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        },
        handler,
    )
    .unwrap();
    let addr = server.local_addr();

    let mut seed = DavClient::connect(addr).unwrap();
    seed.put("/crowd-doc", "seq0", None).unwrap();

    // 1. Park the crowd: each connection completes one GET (proving a
    //    full request/response cycle ran) and then sits idle.
    let setup_started = Instant::now();
    let mut crowd = Vec::with_capacity(conns);
    for i in 0..conns {
        let mut s = TcpStream::connect(addr).unwrap_or_else(|e| {
            panic!(
                "connect #{i} failed after {:?}: {e}",
                setup_started.elapsed()
            )
        });
        s.write_all(b"GET /crowd-doc HTTP/1.1\r\n\r\n").unwrap();
        let head = read_raw_response(&mut s);
        assert!(head.starts_with("HTTP/1.1 200"), "conn #{i}: {head}");
        crowd.push(s);
    }

    // 2. The gauges must tell the C10k story.
    let snap = server.registry().snapshot();
    assert!(
        snap.gauge("http.conns_parked") >= conns as i64,
        "parked gauge {} < crowd size {conns}",
        snap.gauge("http.conns_parked")
    );
    assert_eq!(
        snap.gauge("http.workers_total"),
        pool as i64,
        "worker pool grew past its fixed size"
    );

    // 3. Fresh clients must get through the parked crowd fast. The
    //    bound is generous (shared CI container), but under
    //    thread-per-connection this same crowd pushed fresh clients
    //    toward the keep-alive timeout — seconds, not milliseconds.
    let mut worst = Duration::ZERO;
    for _ in 0..32 {
        let started = Instant::now();
        let mut fresh = DavClient::connect(addr).unwrap();
        let body = fresh.get("/crowd-doc").unwrap();
        let took = started.elapsed();
        assert_eq!(body, b"seq0");
        worst = worst.max(took);
    }
    assert!(
        worst < Duration::from_secs(2),
        "fresh client took {worst:?} through a {conns}-connection crowd"
    );

    // 4. The staleness detector from the concurrency suite, run while
    //    the crowd is parked: an acknowledged PUT must never read back
    //    stale.
    let published = Arc::new(AtomicU64::new(0));
    let writer_published = Arc::clone(&published);
    let writer = std::thread::spawn(move || {
        let mut c = DavClient::connect(addr).unwrap();
        for n in 1..=50u64 {
            c.put("/crowd-doc", format!("seq{n}"), None).unwrap();
            writer_published.store(n, Ordering::SeqCst);
        }
    });
    let mut reader = DavClient::connect(addr).unwrap();
    for _ in 0..50 {
        let floor = published.load(Ordering::SeqCst);
        let body = String::from_utf8(reader.get("/crowd-doc").unwrap()).unwrap();
        let got: u64 = body.strip_prefix("seq").unwrap().parse().unwrap();
        assert!(
            got >= floor,
            "stale GET under crowd: seq {got} < published {floor}"
        );
    }
    writer.join().unwrap();

    // 5. Shutdown must not wait out a thousand keep-alive timers.
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown took {:?} with {conns} parked connections",
        started.elapsed()
    );
    for mut s in crowd {
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest); // EOF/reset immediately, never a hang
    }
    let _ = std::fs::remove_dir_all(&dir);
}
