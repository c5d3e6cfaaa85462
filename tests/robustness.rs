//! Failure injection across the stack: malformed wire data, oversized
//! payloads, interrupted connections, and storage-level faults must
//! surface as protocol errors, never as panics or corruption.
//!
//! The centerpiece is the fault matrix: every DAV operation class is
//! driven through a [`FaultProxy`] that injects resets, delays,
//! truncation, and corruption at each point of the exchange, and the
//! suite asserts the three properties the retry policy promises —
//! idempotent operations eventually succeed within the deadline,
//! non-idempotent operations are never silently duplicated, and nothing
//! ever panics.

use davpse::dav::client::DavClient;
use davpse::dav::error::DavError;
use davpse::dav::fsrepo::{FsConfig, FsRepository};
use davpse::dav::handler::DavHandler;
use davpse::dav::property::{Property, PropertyName};
use davpse::dav::server::serve;
use davpse::dav::Depth;
use pse_dbm::DbmKind;
use pse_http::fault::{Fault, FaultProxy, Point, Schedule};
use pse_http::retry::RetryPolicy;
use pse_http::server::ServerConfig;
use pse_http::wire::Limits;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static N: AtomicU64 = AtomicU64::new(0);

fn rig(config: ServerConfig) -> (pse_http::server::Server, std::path::PathBuf) {
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("davpse-rob-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
    let server = serve("127.0.0.1:0", config, DavHandler::new(repo)).unwrap();
    (server, dir)
}

#[test]
fn garbage_bytes_do_not_kill_the_server() {
    let (server, dir) = rig(ServerConfig::default());
    let addr = server.local_addr();

    // Assorted abuse on raw sockets.
    for payload in [
        &b"\x00\x01\x02\x03\x04garbage"[..],
        b"GET\r\n\r\n",
        b"PROPFIND / HTTP/9.9\r\n\r\n",
        b"PUT / HTTP/1.1\r\nContent-Length: notanumber\r\n\r\n",
        b"PROPFIND / HTTP/1.1\r\nContent-Length: 5\r\n\r\n<", // truncated body
    ] {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(payload);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        // Whatever happened, the server must still serve the next client.
    }
    let mut healthy = DavClient::connect(addr).unwrap();
    assert!(healthy.options().unwrap().starts_with("1,2"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_xml_bodies_rejected_not_fatal() {
    // The paper's DoS observation: "effective denial-of-service attacks
    // can be created by repeatedly sending large XML request bodies.
    // Thus, in a production system, the maximum should be set as low as
    // possible."
    let (server, dir) = rig(ServerConfig {
        limits: Limits {
            max_body: 64 * 1024,
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let mut client = DavClient::connect(server.local_addr()).unwrap();
    client.put("/doc", "x", None).unwrap();
    let huge = "v".repeat(1024 * 1024);
    for _ in 0..5 {
        // Repeatedly, as the attack would.
        let err = client
            .proppatch(
                "/doc",
                &[Property::text(PropertyName::new("urn:x", "big"), &huge)],
                &[],
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("413") || msg.contains("exceeds"), "{msg}");
    }
    // Normal service continues.
    client
        .proppatch_set("/doc", &PropertyName::new("urn:x", "ok"), "small")
        .unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disconnect_mid_request_leaves_store_consistent() {
    let (server, dir) = rig(ServerConfig::default());
    let addr = server.local_addr();
    let mut client = DavClient::connect(addr).unwrap();
    client.put("/stable", "original", None).unwrap();

    // A writer advertises a huge body and hangs up halfway.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"PUT /stable HTTP/1.1\r\nContent-Length: 1000000\r\n\r\npartial data")
        .unwrap();
    drop(s);
    std::thread::sleep(std::time::Duration::from_millis(50));

    // The stored document is untouched.
    assert_eq!(client.get("/stable").unwrap(), b"original");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_property_database_is_contained() {
    // Corrupting one resource's DBM file must not take down the
    // repository or affect other resources.
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("davpse-rob-dbm-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = FsRepository::create(
        &dir,
        FsConfig {
            dbm_kind: DbmKind::Gdbm,
            ..FsConfig::default()
        },
    )
    .unwrap();
    use davpse::dav::repo::Repository;
    repo.put("/a", b"1", None).unwrap();
    repo.put("/b", b"2", None).unwrap();
    let name = PropertyName::new("urn:x", "k");
    repo.set_prop("/a", &Property::text(name.clone(), "va"))
        .unwrap();
    repo.set_prop("/b", &Property::text(name.clone(), "vb"))
        .unwrap();

    // Smash /a's database file.
    // (Short files are treated as fresh and reinitialised; a corrupt
    // header must be large enough to carry a bad magic.)
    std::fs::write(dir.join(".DAV").join("a.db"), vec![0xAAu8; 2048]).unwrap();

    // /a's metadata errors; /b and document bodies are fine.
    assert!(repo.get_prop("/a", &name).is_err());
    assert_eq!(repo.get("/a").unwrap(), b"1");
    assert_eq!(
        repo.get_prop("/b", &name).unwrap().unwrap().text_value(),
        "vb"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn xml_bombs_and_malformed_bodies_get_400() {
    let (server, dir) = rig(ServerConfig::default());
    let mut client = DavClient::connect(server.local_addr()).unwrap();
    client.put("/d", "", None).unwrap();
    for body in [
        "<not closed",
        "<?xml version=\"1.0\"?><a></b>",
        "<D:propfind xmlns:D=\"DAV:\"><D:prop><bad:x/></D:prop></D:propfind>", // unbound prefix
        "]]>",
    ] {
        let resp = client
            .http()
            .send(pse_http::Request::new(pse_http::Method::PropFind, "/d").with_xml_body(body))
            .unwrap();
        assert_eq!(resp.status.code(), 400, "body: {body}");
    }
    // Still healthy.
    assert!(client.exists("/d").unwrap());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retry settings tuned for test speed: tight backoffs, short socket
/// timeouts, but the same shape as production defaults.
fn fast_retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(80),
        jitter: 0.5,
        seed,
        deadline: Some(Duration::from_secs(10)),
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
    }
}

/// The fault matrix: 3 idempotent DAV operation classes (GET, PUT,
/// PROPFIND) × 8 faults covering 4 kinds (reset, delay, truncate,
/// corrupt) and all 4 injection points. Every cell must recover
/// transparently within the retry deadline, with the fault provably
/// fired exactly once.
#[test]
fn fault_matrix_idempotent_operations_recover() {
    let (server, dir) = rig(ServerConfig::default());
    let addr = server.local_addr();
    // Seed the tree through a direct (un-proxied) connection.
    let mut direct = DavClient::connect(addr).unwrap();
    direct.mkcol("/matrix").unwrap();
    direct.put("/matrix/doc", "payload", None).unwrap();

    let faults = [
        Fault::Reset(Point::BeforeRequest),
        Fault::Reset(Point::MidRequest),
        Fault::Reset(Point::AfterRequest),
        Fault::Reset(Point::MidResponse),
        Fault::Delay(Point::BeforeRequest, Duration::from_millis(120)),
        Fault::Delay(Point::MidResponse, Duration::from_millis(120)),
        Fault::Truncate(6),
        Fault::Corrupt,
    ];
    type Op = fn(&mut DavClient) -> davpse::dav::Result<()>;
    let ops: [(&str, Op); 3] = [
        ("GET", |c| {
            assert_eq!(c.get("/matrix/doc")?, b"payload");
            Ok(())
        }),
        ("PUT", |c| c.put("/matrix/doc", "payload", None).map(|_| ())),
        ("PROPFIND", |c| {
            let ms = c.propfind_all("/matrix", Depth::One)?;
            assert!(ms.responses.len() >= 2);
            Ok(())
        }),
    ];

    for fault in faults {
        for (name, op) in &ops {
            let proxy = FaultProxy::start(addr, Schedule::Script(vec![fault])).unwrap();
            let mut c = DavClient::connect(proxy.addr()).unwrap();
            c.set_retry_policy(fast_retry(11));
            let start = Instant::now();
            op(&mut c).unwrap_or_else(|e| panic!("{name} under {}: {e}", fault.label()));
            let elapsed = start.elapsed();
            assert!(
                elapsed < Duration::from_secs(8),
                "{name} under {} took {elapsed:?}",
                fault.label()
            );
            assert_eq!(
                proxy.stats().fired_count(&fault.label()),
                1,
                "{name}: {} did not fire exactly once",
                fault.label()
            );
            if matches!(fault, Fault::Reset(_) | Fault::Truncate(_) | Fault::Corrupt) {
                assert!(
                    c.http().retry_count() >= 1,
                    "{name} under {} should have retried",
                    fault.label()
                );
            }
            proxy.shutdown();
        }
    }
    // The store is intact after the whole matrix.
    assert_eq!(direct.get("/matrix/doc").unwrap(), b"payload");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Non-idempotent methods must never be re-sent once bytes reached the
/// wire: the server-side MKCOL counter proves no duplicate execution,
/// and the client surfaces the ambiguity as `MaybeExecuted`.
#[test]
fn non_idempotent_mkcol_is_never_duplicated() {
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("davpse-rob-mkcol-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
    let handler = DavHandler::new(repo);
    let mkcols = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&mkcols);
    let server = pse_http::Server::bind(
        "127.0.0.1:0",
        ServerConfig::default(),
        move |req: pse_http::Request| {
            if req.method == pse_http::Method::MkCol {
                counter.fetch_add(1, Ordering::SeqCst);
            }
            handler.handle(req)
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // (fault, does the server execute the MKCOL before the loss?)
    let scenarios = [
        (Fault::Reset(Point::BeforeRequest), false),
        (Fault::Reset(Point::MidRequest), false),
        (Fault::Reset(Point::AfterRequest), true),
        (Fault::Reset(Point::MidResponse), true),
    ];
    for (i, (fault, executed)) in scenarios.into_iter().enumerate() {
        let before = mkcols.load(Ordering::SeqCst);
        let proxy = FaultProxy::start(addr, Schedule::Script(vec![fault])).unwrap();
        let mut c = DavClient::connect(proxy.addr()).unwrap();
        c.set_retry_policy(fast_retry(5));
        let path = format!("/col-{i}");
        let err = c.mkcol(&path).unwrap_err();
        assert!(
            matches!(err, DavError::Http(pse_http::Error::MaybeExecuted { .. })),
            "{}: expected MaybeExecuted, got {err:?}",
            fault.label()
        );
        assert_eq!(
            c.http().retry_count(),
            0,
            "{}: MKCOL must never be re-sent",
            fault.label()
        );
        let delta = mkcols.load(Ordering::SeqCst) - before;
        assert_eq!(
            delta,
            u64::from(executed),
            "{}: MKCOL executed {delta} times",
            fault.label()
        );
        // Ground truth matches the counter.
        let mut direct = DavClient::connect(addr).unwrap();
        assert_eq!(direct.exists(&path).unwrap(), executed, "{}", fault.label());
        proxy.shutdown();
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sustained random fault storm (seeded, so reproducible): idempotent
/// traffic keeps flowing, nothing panics, and the server is healthy
/// afterwards.
#[test]
fn random_fault_storm_is_survivable() {
    let (server, dir) = rig(ServerConfig::default());
    let addr = server.local_addr();
    let mut direct = DavClient::connect(addr).unwrap();
    direct.mkcol("/storm").unwrap();

    let proxy = FaultProxy::start(
        addr,
        Schedule::Random {
            seed: 4242,
            rate: 0.25,
            delay: Duration::from_millis(20),
            truncate: 8,
        },
    )
    .unwrap();
    let mut c = DavClient::connect(proxy.addr()).unwrap();
    c.set_retry_policy(fast_retry(17));
    let mut ok = 0;
    for i in 0..40 {
        if c.put(&format!("/storm/d{i}"), format!("v{i}"), None)
            .is_ok()
        {
            ok += 1;
        }
    }
    // With 5 attempts against a 25% per-exchange fault rate, losing an
    // operation outright needs 5 consecutive faults (~0.1% each).
    assert!(ok >= 35, "only {ok}/40 PUTs survived the storm");
    assert!(proxy.stats().total_fired() > 0, "storm never fired");
    // Server still healthy, documents written exactly once each.
    let listed = direct.list("/storm").unwrap();
    assert!(listed.len() >= ok, "listed {} < ok {ok}", listed.len());
    proxy.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keep_alive_budget_and_reconnects_are_transparent() {
    let (server, dir) = rig(ServerConfig {
        max_requests_per_connection: 3,
        ..ServerConfig::default()
    });
    let mut client = DavClient::connect(server.local_addr()).unwrap();
    client.mkcol("/c").unwrap();
    // 30 operations across forced reconnects every 3 requests.
    for i in 0..30 {
        client
            .put(&format!("/c/doc-{i}"), format!("{i}"), None)
            .unwrap();
    }
    assert_eq!(client.list("/c").unwrap().len(), 30);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
