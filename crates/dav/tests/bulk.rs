//! End-to-end bulk-transfer suite: ranged GET, resumable PUT, and CDC
//! delta sync over real TCP against the filesystem repository.

use pse_dav::client::{DavClient, RangeBody};
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::handler::DavHandler;
use pse_dav::server::serve;
use pse_http::server::ServerConfig;
use pse_http::{Method, Request};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static N: AtomicU64 = AtomicU64::new(0);

struct Rig {
    server: Option<pse_http::server::Server>,
    client: DavClient,
    dir: PathBuf,
}

impl Rig {
    fn new() -> Rig {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("pse-dav-bulk-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
        let server = serve(
            "127.0.0.1:0",
            ServerConfig::default(),
            DavHandler::new(repo),
        )
        .unwrap();
        let client = DavClient::connect(server.local_addr()).unwrap();
        Rig {
            server: Some(server),
            client,
            dir,
        }
    }

    fn second_client(&self) -> DavClient {
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

#[test]
fn ranged_get_reads_partials_and_reports_totals() {
    let mut rig = Rig::new();
    rig.client
        .put(
            "/traj.bin",
            b"0123456789".to_vec(),
            Some("application/octet-stream"),
        )
        .unwrap();

    match rig
        .client
        .get_range("/traj.bin", "bytes=2-5", None)
        .unwrap()
    {
        RangeBody::Partial { body, total } => {
            assert_eq!(body, b"2345");
            assert_eq!(total, 10);
        }
        other => panic!("expected partial, got {other:?}"),
    }
    match rig.client.get_range("/traj.bin", "bytes=-3", None).unwrap() {
        RangeBody::Partial { body, total } => {
            assert_eq!(body, b"789");
            assert_eq!(total, 10);
        }
        other => panic!("expected partial, got {other:?}"),
    }
    match rig
        .client
        .get_range("/traj.bin", "bytes=10-", None)
        .unwrap()
    {
        RangeBody::Unsatisfiable { total } => assert_eq!(total, 10),
        other => panic!("expected unsatisfiable, got {other:?}"),
    }
    // A syntactically broken range is ignored by the server → full 200.
    match rig
        .client
        .get_range("/traj.bin", "chunks=1-2", None)
        .unwrap()
    {
        RangeBody::Full(body) => assert_eq!(body, b"0123456789"),
        other => panic!("expected full, got {other:?}"),
    }
}

#[test]
fn ranged_get_never_serves_the_cached_full_body() {
    let mut rig = Rig::new();
    rig.client.enable_cache(Default::default());
    rig.client
        .put("/doc.txt", b"OLD-CONTENT".to_vec(), Some("text/plain"))
        .unwrap();
    // Seed the validating cache with the full entity.
    assert_eq!(rig.client.get("/doc.txt").unwrap(), b"OLD-CONTENT");

    // Another client replaces the entity behind our back.
    rig.second_client()
        .put("/doc.txt", b"NEW-CONTENT".to_vec(), Some("text/plain"))
        .unwrap();

    // A ranged GET must hit the wire, not slice the stale cached body.
    match rig.client.get_range("/doc.txt", "bytes=0-2", None).unwrap() {
        RangeBody::Partial { body, total } => {
            assert_eq!(body, b"NEW", "served a slice of the stale cached entity");
            assert_eq!(total, 11);
        }
        other => panic!("expected partial, got {other:?}"),
    }

    // If-Range with the stale etag must degrade to the full new entity.
    let stale = {
        // Recover the old validator by re-putting and re-getting... the
        // simpler route: ask for the current one, then change the file
        // again so it goes stale.
        let resp = rig
            .client
            .http()
            .send(Request::new(Method::Head, "/doc.txt"))
            .unwrap();
        resp.headers.get("ETag").unwrap().to_owned()
    };
    rig.second_client()
        .put("/doc.txt", b"NEWER-STILL".to_vec(), Some("text/plain"))
        .unwrap();
    match rig
        .client
        .get_range("/doc.txt", "bytes=0-2", Some(&stale))
        .unwrap()
    {
        RangeBody::Full(body) => assert_eq!(body, b"NEWER-STILL"),
        other => panic!("stale If-Range must yield the full entity, got {other:?}"),
    }
}

#[test]
fn resumable_put_round_trips_in_small_chunks() {
    let mut rig = Rig::new();
    let body = pseudo_random(10_000, 5);
    let created = rig
        .client
        .put_resumable("/big.bin", &body, Some("application/octet-stream"), 1024)
        .unwrap();
    assert!(created);
    assert_eq!(rig.client.get("/big.bin").unwrap(), body);

    // Updating in place answers 204.
    let body2 = pseudo_random(8_000, 6);
    let created = rig
        .client
        .put_resumable("/big.bin", &body2, Some("application/octet-stream"), 999)
        .unwrap();
    assert!(!created);
    assert_eq!(rig.client.get("/big.bin").unwrap(), body2);
}

#[test]
fn resumable_put_picks_up_where_a_crashed_upload_stopped() {
    let mut rig = Rig::new();
    let body = pseudo_random(6_000, 9);

    // Simulate a crashed uploader: the first 2000 bytes made it.
    let resp = rig
        .client
        .http()
        .send(
            Request::new(Method::Put, "/resume.bin")
                .with_header("Content-Range", format!("bytes 0-1999/{}", body.len()))
                .with_body(body[..2000].to_vec()),
        )
        .unwrap();
    assert_eq!(resp.status.code(), 202);

    // A fresh put_resumable probes, resumes at 2000, and commits.
    let created = rig
        .client
        .put_resumable("/resume.bin", &body, Some("application/octet-stream"), 1000)
        .unwrap();
    assert!(created);
    assert_eq!(rig.client.get("/resume.bin").unwrap(), body);
}

#[test]
fn resumable_put_discards_a_stage_for_a_different_entity() {
    let mut rig = Rig::new();

    // A stale stage declared for a 50-byte entity...
    let resp = rig
        .client
        .http()
        .send(
            Request::new(Method::Put, "/swap.bin")
                .with_header("Content-Range", "bytes 0-9/50")
                .with_body(vec![0xAA; 10]),
        )
        .unwrap();
    assert_eq!(resp.status.code(), 202);

    // ...must not leak into an upload of a 30-byte one.
    let body = pseudo_random(30, 77);
    rig.client
        .put_resumable("/swap.bin", &body, None, 7)
        .unwrap();
    assert_eq!(rig.client.get("/swap.bin").unwrap(), body);
}

#[test]
fn delta_put_ships_only_changed_chunks() {
    let mut rig = Rig::new();
    rig.client.enable_cache(Default::default());

    let base = pseudo_random(400_000, 1);
    let first = rig
        .client
        .put_delta("/traj.out", &base, Some("application/octet-stream"))
        .unwrap();
    assert!(first.created);
    assert!(
        first.full_fallback,
        "no base yet — must fall back to a full PUT"
    );

    // Edit 1% of the file in the middle.
    let mut edited = base.clone();
    let patch = pseudo_random(4_000, 2);
    edited[200_000..200_000 + patch.len()].copy_from_slice(&patch);

    let second = rig
        .client
        .put_delta("/traj.out", &edited, Some("application/octet-stream"))
        .unwrap();
    assert!(!second.created);
    assert!(!second.full_fallback);
    assert!(second.chunks_reused > 0);
    assert!(
        second.bytes_sent * 10 <= second.bytes_total,
        "1% edit shipped {} of {} bytes",
        second.bytes_sent,
        second.bytes_total
    );
    assert_eq!(rig.client.get("/traj.out").unwrap(), edited);

    // A third delta builds on the second's remembered body.
    let mut third_body = edited.clone();
    third_body[10_000..10_016].copy_from_slice(b"0123456789abcdef");
    let third = rig
        .client
        .put_delta("/traj.out", &third_body, Some("application/octet-stream"))
        .unwrap();
    assert!(!third.full_fallback);
    assert!(third.bytes_sent < third.bytes_total / 10);
    assert_eq!(rig.client.get("/traj.out").unwrap(), third_body);
}

#[test]
fn delta_put_falls_back_when_the_base_changes_under_it() {
    let mut rig = Rig::new();
    rig.client.enable_cache(Default::default());

    let base = pseudo_random(100_000, 3);
    rig.client.put_delta("/shared.bin", &base, None).unwrap();

    // Someone else replaces the entity: our cached base is stale.
    let other_body = pseudo_random(90_000, 4);
    rig.second_client()
        .put("/shared.bin", other_body, None)
        .unwrap();

    let mut edited = base.clone();
    edited[0..8].copy_from_slice(b"EDITED!!");
    let outcome = rig.client.put_delta("/shared.bin", &edited, None).unwrap();
    assert!(
        outcome.full_fallback,
        "stale base must surface as 412 → full PUT, not silent corruption"
    );
    assert_eq!(rig.client.get("/shared.bin").unwrap(), edited);
}

#[test]
fn delta_put_recovers_from_a_stale_stage() {
    let mut rig = Rig::new();
    rig.client.enable_cache(Default::default());

    let base = pseudo_random(50_000, 8);
    rig.client.put_delta("/stale.bin", &base, None).unwrap();

    // A crashed uploader left a half-finished stage for this path.
    let resp = rig
        .client
        .http()
        .send(
            Request::new(Method::Put, "/stale.bin")
                .with_header("Content-Range", "bytes 0-99/50000")
                .with_body(vec![0x55; 100]),
        )
        .unwrap();
    assert_eq!(resp.status.code(), 202);

    // Delta sync hits a 416 at its first offset, aborts the stale
    // stage, and replays its plan.
    let mut edited = base.clone();
    edited[25_000..25_008].copy_from_slice(b"RESYNCED");
    let outcome = rig.client.put_delta("/stale.bin", &edited, None).unwrap();
    assert!(!outcome.full_fallback);
    assert_eq!(rig.client.get("/stale.bin").unwrap(), edited);
}
