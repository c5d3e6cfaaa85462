//! DeltaV compliance + concurrency suite: the RFC 3253 minimal profile
//! over real TCP, against the persistent content-addressed store.
//!
//! The invariants this file defends:
//!
//! * VERSION-CONTROL is idempotent; CHECKOUT/CHECKIN follow the RFC
//!   3253 state machine (409 on double-checkout, 201 + Location +
//!   X-Version on checkin);
//! * a concurrent PUT storm against a checked-out resource yields
//!   exactly one new version per CHECKIN, and that version's body is
//!   one of the bodies some PUT actually wrote (never torn);
//! * a stored version's body and live props are byte-identical before
//!   and after later edits — history is immutable;
//! * every mutating method against `/.well-known/history/...` answers
//!   403; reverting is COPY-from-a-version-URL only;
//! * a history write that fails (chunk or manifest) fails the request
//!   with a 5xx and leaves no version in memory that the disk lacks,
//!   so a retry records it;
//! * random edit histories (PUT / checkin / revert) driven through the
//!   repository's own operations on a mem repository and on a
//!   persistent one restarted mid-history produce identical version
//!   bodies, and GC (prune) leaves refcounts consistent (proptest).

use pse_dav::client::DavClient;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::handler::DavHandler;
use pse_dav::memrepo::MemRepository;
use pse_dav::property::PropertyName;
use pse_dav::repo::Repository;
use pse_dav::server::serve;
use pse_dav::version::{history_url, DeltaV, VersionStore};
use pse_dav::Depth;
use pse_http::server::ServerConfig;
use pse_http::{Client, Method, Request};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

static N: AtomicU64 = AtomicU64::new(0);

struct Rig {
    server: Option<pse_http::server::Server>,
    client: DavClient,
    repo: Arc<FsRepository>,
    dir: PathBuf,
}

impl Rig {
    fn new() -> Rig {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pse-dav-versioning-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handler = DavHandler::new(open_fs(&dir));
        let repo = handler.repo();
        let server = serve("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
        let client = DavClient::connect(server.local_addr()).unwrap();
        Rig {
            server: Some(server),
            client,
            repo,
            dir,
        }
    }

    fn store(&self) -> &VersionStore {
        self.repo.versions()
    }

    fn raw(&self) -> Client {
        Client::connect(self.server.as_ref().unwrap().local_addr()).unwrap()
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

/// A filesystem repository under `dir/data` keeping its histories
/// under `dir/versions` (reopened if present).
fn open_fs(dir: &std::path::Path) -> FsRepository {
    FsRepository::create(dir.join("data"), FsConfig::default())
        .unwrap()
        .with_version_store(VersionStore::persistent(dir.join("versions")).unwrap())
}

fn status(raw: &mut Client, req: Request) -> u16 {
    raw.send(req).unwrap().status.code()
}

// ---- RFC 3253 state machine ----

#[test]
fn version_control_is_idempotent() {
    let mut rig = Rig::new();
    rig.client.put("/doc", b"v1".to_vec(), None).unwrap();
    rig.client.version_control("/doc").unwrap();
    rig.client.version_control("/doc").unwrap(); // second call: 200, no-op
    assert_eq!(rig.store().version_count("/doc"), 1);
    assert_eq!(rig.client.version_content("/doc", 1).unwrap(), b"v1");
    // OPTIONS advertises the versioning profile.
    let mut raw = rig.raw();
    let resp = raw.send(Request::new(Method::Options, "/doc")).unwrap();
    let dav = resp.headers.get("DAV").unwrap_or_default();
    assert!(dav.contains("version-control"), "DAV header: {dav}");
}

#[test]
fn checkout_checkin_state_machine() {
    let mut rig = Rig::new();
    rig.client.put("/doc", b"v1".to_vec(), None).unwrap();
    let mut raw = rig.raw();

    // CHECKOUT before VERSION-CONTROL: 409.
    assert_eq!(
        status(&mut raw, Request::new(Method::Checkout, "/doc")),
        409
    );
    rig.client.version_control("/doc").unwrap();
    rig.client.checkout("/doc").unwrap();
    // Double CHECKOUT: 409.
    assert_eq!(
        status(&mut raw, Request::new(Method::Checkout, "/doc")),
        409
    );
    // CHECKIN while checked out: 201 + Location + X-Version.
    rig.client.put("/doc", b"v2".to_vec(), None).unwrap();
    let resp = raw.send(Request::new(Method::Checkin, "/doc")).unwrap();
    assert_eq!(resp.status.code(), 201);
    assert_eq!(resp.headers.get("X-Version"), Some("2"));
    assert_eq!(
        resp.headers.get("Location"),
        Some(history_url("/doc", 2).as_str())
    );
    // CHECKIN while checked in: 409.
    assert_eq!(status(&mut raw, Request::new(Method::Checkin, "/doc")), 409);
    assert_eq!(rig.client.version_content("/doc", 2).unwrap(), b"v2");
}

#[test]
fn auto_versioning_records_distinct_puts_and_dedups_identical() {
    let mut rig = Rig::new();
    rig.client.put("/doc", b"v1".to_vec(), None).unwrap();
    rig.client.version_control("/doc").unwrap();
    rig.client.put("/doc", b"v2".to_vec(), None).unwrap();
    rig.client.put("/doc", b"v2".to_vec(), None).unwrap(); // identical: deduped
    rig.client.put("/doc", b"v3".to_vec(), None).unwrap();
    let versions = rig.client.versions("/doc").unwrap();
    assert_eq!(
        versions.iter().map(|v| v.number).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
    assert!(
        versions[2].checked_in,
        "newest version is the checked-in one"
    );
    assert!(!versions[0].checked_in);
}

#[test]
fn manual_mode_gates_put_behind_checkout() {
    let mut rig = Rig::new();
    rig.store().set_auto_version(false);
    rig.client.put("/doc", b"v1".to_vec(), None).unwrap();
    rig.client.version_control("/doc").unwrap();
    // PUT against a checked-in resource: 409 Conflict.
    let mut raw = rig.raw();
    let put = Request::new(Method::Put, "/doc").with_body(b"edit".to_vec());
    assert_eq!(status(&mut raw, put), 409);
    assert_eq!(rig.client.get("/doc").unwrap(), b"v1");
    // After CHECKOUT the same PUT is accepted; CHECKIN records it.
    rig.client.checkout("/doc").unwrap();
    rig.client.put("/doc", b"edit".to_vec(), None).unwrap();
    assert_eq!(rig.client.checkin("/doc").unwrap(), 2);
    assert_eq!(rig.client.version_content("/doc", 2).unwrap(), b"edit");
    // Unversioned siblings are never gated.
    rig.client.put("/free", b"x".to_vec(), None).unwrap();
}

// ---- concurrency: version immutability under racing writers ----

#[test]
fn concurrent_put_storm_yields_exactly_one_version_per_checkin() {
    let mut rig = Rig::new();
    rig.client.put("/doc", b"base".to_vec(), None).unwrap();
    rig.client.version_control("/doc").unwrap();
    rig.client.checkout("/doc").unwrap();
    assert_eq!(rig.store().version_count("/doc"), 1);

    let writers = 4;
    let puts_per_writer = 25;
    let start = Arc::new(Barrier::new(writers));
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let mut c = rig.second_client();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for n in 0..puts_per_writer {
                    c.put("/doc", format!("w{w}-n{n}"), None).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The storm recorded nothing: the resource was checked out.
    assert_eq!(rig.store().version_count("/doc"), 1);
    // One CHECKIN → exactly one new version, and its body is whatever
    // body won the storm (a complete PUT body, never a torn one).
    let v = rig.client.checkin("/doc").unwrap();
    assert_eq!(v, 2);
    assert_eq!(rig.store().version_count("/doc"), 2);
    let recorded = rig.client.version_content("/doc", 2).unwrap();
    let recorded = String::from_utf8(recorded).unwrap();
    assert!(
        recorded.starts_with('w') && recorded.contains("-n"),
        "checked-in body is not one of the storm's PUT bodies: {recorded:?}"
    );
    assert_eq!(recorded.into_bytes(), rig.client.get("/doc").unwrap());
}

#[test]
fn stored_versions_are_immutable_under_later_edits() {
    let mut rig = Rig::new();
    rig.client
        .put("/doc", b"first body".to_vec(), None)
        .unwrap();
    rig.client.version_control("/doc").unwrap();
    rig.client
        .put("/doc", b"second body".to_vec(), None)
        .unwrap();

    // Capture version 1's observable surface: body, GET headers, props.
    let names = [
        PropertyName::dav("version-name"),
        PropertyName::dav("creationdate"),
        PropertyName::dav("getcontentlength"),
        PropertyName::dav("checked-in"),
    ];
    let url = history_url("/doc", 1);
    let mut raw = rig.raw();
    let before_get = raw.send(Request::new(Method::Get, &url)).unwrap();
    let before_props = rig.client.propfind(&url, Depth::Zero, &names).unwrap();

    // Hammer the live resource: edits, checkout/checkin, a revert.
    for i in 0..10 {
        rig.client.put("/doc", format!("edit {i}"), None).unwrap();
    }
    rig.client.checkout("/doc").unwrap();
    rig.client.put("/doc", b"staged".to_vec(), None).unwrap();
    rig.client.checkin("/doc").unwrap();
    rig.client.revert_to("/doc", 3).unwrap();

    // Version 1 is byte-identical: body, headers, and props.
    let after_get = raw.send(Request::new(Method::Get, &url)).unwrap();
    assert_eq!(after_get.body, b"first body");
    assert_eq!(after_get.body, before_get.body);
    assert_eq!(
        after_get.headers.get("ETag"),
        before_get.headers.get("ETag"),
        "version ETag drifted"
    );
    let after_props = rig.client.propfind(&url, Depth::Zero, &names).unwrap();
    for name in &names {
        let read = |ms: &pse_dav::multistatus::Multistatus| {
            ms.responses[0].prop(name).map(|p| p.text_value())
        };
        assert_eq!(
            read(&before_props),
            read(&after_props),
            "live prop {} drifted on an immutable version",
            name.local
        );
    }
    assert_eq!(
        before_props.responses[0]
            .prop(&names[0])
            .map(|p| p.text_value()),
        Some("1".to_owned())
    );
}

// ---- history is read-only ----

#[test]
fn mutating_methods_against_history_resources_are_forbidden() {
    let mut rig = Rig::new();
    rig.client.put("/doc", b"v1".to_vec(), None).unwrap();
    rig.client.version_control("/doc").unwrap();
    rig.client.put("/doc", b"v2".to_vec(), None).unwrap();
    let vurl = history_url("/doc", 1);
    let index = "/.well-known/history/doc";
    let mut raw = rig.raw();

    let forbidden = [
        Request::new(Method::Put, &vurl).with_body(b"rewrite history".to_vec()),
        Request::new(Method::Delete, &vurl),
        Request::new(Method::Delete, index),
        Request::new(Method::PropPatch, &vurl).with_xml_body(
            r#"<D:propertyupdate xmlns:D="DAV:"><D:set><D:prop><x xmlns="urn:x">v</x></D:prop></D:set></D:propertyupdate>"#,
        ),
        Request::new(Method::MkCol, "/.well-known/history/doc/sub"),
        Request::new(Method::Lock, &vurl),
        // MOVE out of history would destroy it; COPY is the revert path.
        Request::new(Method::Move, &vurl).with_header("Destination", "/stolen"),
        // COPY *into* history is forbidden too.
        Request::new(Method::Copy, "/doc").with_header("Destination", &vurl),
    ];
    for req in forbidden {
        let label = format!("{:?} {}", req.method, req.target.path());
        assert_eq!(status(&mut raw, req), 403, "{label} must be forbidden");
    }

    // Nothing drifted: both versions still read back exactly.
    assert_eq!(rig.client.version_content("/doc", 1).unwrap(), b"v1");
    assert_eq!(rig.client.version_content("/doc", 2).unwrap(), b"v2");
    assert_eq!(rig.client.get("/doc").unwrap(), b"v2");
}

#[test]
fn history_resources_answer_get_and_propfind() {
    let mut rig = Rig::new();
    rig.client.put("/a/doc", b"v1".to_vec(), None).unwrap_err(); // missing parent
    rig.client.mkcol("/a").unwrap();
    rig.client.put("/a/doc", b"v1".to_vec(), None).unwrap();
    rig.client.version_control("/a/doc").unwrap();
    rig.client
        .put("/a/doc", b"v2 longer".to_vec(), None)
        .unwrap();

    // GET a version URL: exact body + X-Version.
    let mut raw = rig.raw();
    let resp = raw
        .send(Request::new(Method::Get, &history_url("/a/doc", 2)))
        .unwrap();
    assert_eq!(resp.status.code(), 200);
    assert_eq!(resp.body, b"v2 longer");
    assert_eq!(resp.headers.get("X-Version"), Some("2"));

    // GET the history index: links to every version.
    let resp = raw
        .send(Request::new(Method::Get, "/.well-known/history/a/doc"))
        .unwrap();
    let html = String::from_utf8(resp.body).unwrap();
    assert!(
        html.contains("version 1") && html.contains("version 2"),
        "{html}"
    );

    // Depth-1 PROPFIND on the index: one entry per version with live
    // DeltaV props.
    let names = [
        PropertyName::dav("version-name"),
        PropertyName::dav("checked-in"),
        PropertyName::dav("getcontentlength"),
    ];
    let ms = rig
        .client
        .propfind("/.well-known/history/a/doc", Depth::One, &names)
        .unwrap();
    let v2 = ms
        .response_for(&history_url("/a/doc", 2))
        .expect("version 2 entry");
    assert_eq!(
        v2.prop(&names[2]).map(|p| p.text_value()),
        Some("9".to_owned())
    );
    assert_eq!(
        v2.prop(&names[1]).map(|p| p.text_value()),
        Some("true".into())
    );

    // 404s: unknown version, never-versioned path.
    assert_eq!(
        status(
            &mut raw,
            Request::new(Method::Get, &history_url("/a/doc", 99))
        ),
        404
    );
    assert_eq!(
        status(
            &mut raw,
            Request::new(Method::Get, "/.well-known/history/ghost")
        ),
        404
    );
}

// ---- revert ----

#[test]
fn revert_is_copy_from_a_version_url() {
    let mut rig = Rig::new();
    rig.client.put("/doc", b"original".to_vec(), None).unwrap();
    rig.client.version_control("/doc").unwrap();
    rig.client.put("/doc", b"edited".to_vec(), None).unwrap();

    rig.client.revert_to("/doc", 1).unwrap();
    assert_eq!(rig.client.get("/doc").unwrap(), b"original");
    // The revert recorded a new version: history is append-only.
    assert_eq!(rig.store().version_count("/doc"), 3);

    // COPY a version somewhere else entirely — restore-as-new-document.
    let mut raw = rig.raw();
    let resp = raw
        .send(
            Request::new(Method::Copy, &history_url("/doc", 2))
                .with_header("Destination", "/recovered"),
        )
        .unwrap();
    assert_eq!(resp.status.code(), 201);
    assert_eq!(rig.client.get("/recovered").unwrap(), b"edited");

    // Overwrite: F refuses to clobber an existing destination.
    let resp = raw
        .send(
            Request::new(Method::Copy, &history_url("/doc", 1))
                .with_header("Destination", "/recovered")
                .with_header("Overwrite", "F"),
        )
        .unwrap();
    assert_eq!(resp.status.code(), 412);
    // COPY from the history *index* is not a revert source.
    let resp = raw
        .send(
            Request::new(Method::Copy, "/.well-known/history/doc")
                .with_header("Destination", "/all"),
        )
        .unwrap();
    assert_eq!(resp.status.code(), 403);
}

#[test]
fn history_follows_move() {
    let mut rig = Rig::new();
    rig.client.put("/old", b"v1".to_vec(), None).unwrap();
    rig.client.version_control("/old").unwrap();
    rig.client.put("/old", b"v2".to_vec(), None).unwrap();
    rig.client.move_("/old", "/new", false).unwrap();
    // The history re-homed with the document.
    assert_eq!(rig.client.version_content("/new", 1).unwrap(), b"v1");
    assert_eq!(rig.store().version_count("/old"), 0);
    let mut raw = rig.raw();
    assert_eq!(
        status(&mut raw, Request::new(Method::Get, &history_url("/old", 1))),
        404
    );
    assert_eq!(
        status(&mut raw, Request::new(Method::Get, &history_url("/new", 2))),
        200
    );
}

// ---- a failed history write fails the request ----

#[test]
fn failed_history_writes_answer_5xx_and_a_retry_records() {
    let mut rig = Rig::new();
    rig.client.put("/doc", b"v1".to_vec(), None).unwrap();
    rig.client.version_control("/doc").unwrap();
    rig.client.put("/co", b"draft 1".to_vec(), None).unwrap();
    rig.client.version_control("/co").unwrap();
    rig.client.checkout("/co").unwrap();
    rig.client.put("/co", b"draft 2".to_vec(), None).unwrap();
    rig.client.put("/fresh", b"f1".to_vec(), None).unwrap();

    // Put a regular file where the manifest directory was: every
    // manifest write now fails (as root too, unlike a chmod).
    let meta = rig.dir.join("versions").join("meta");
    let aside = rig.dir.join("versions").join("meta.aside");
    std::fs::rename(&meta, &aside).unwrap();
    std::fs::write(&meta, b"not a directory").unwrap();

    let mut raw = rig.raw();
    let attempts = || {
        [
            Request::new(Method::Put, "/doc").with_body(b"v2".to_vec()),
            Request::new(Method::Checkin, "/co"),
            Request::new(Method::VersionControl, "/fresh"),
        ]
    };
    for req in attempts() {
        let label = format!("{:?} {}", req.method, req.target.path());
        let code = status(&mut raw, req);
        assert!(
            code >= 500,
            "{label} answered {code} though its history write failed"
        );
    }
    // Memory holds nothing the disk lacks.
    assert_eq!(rig.store().version_count("/doc"), 1);
    assert_eq!(rig.store().version_count("/co"), 1);
    assert!(rig.store().is_checked_out("/co"));
    assert!(!rig.store().is_versioned("/fresh"));

    // Repaired, the same requests record what failed before (the PUT of
    // an unchanged body is not taken for a duplicate).
    std::fs::remove_file(&meta).unwrap();
    std::fs::rename(&aside, &meta).unwrap();
    for req in attempts() {
        let label = format!("{:?} {}", req.method, req.target.path());
        let code = status(&mut raw, req);
        assert!((200..300).contains(&code), "{label} answered {code}");
    }
    let reopened = VersionStore::persistent(rig.dir.join("versions")).unwrap();
    assert_eq!(reopened.version_body("/doc", 2).unwrap(), b"v2");
    assert_eq!(reopened.version_body("/co", 2).unwrap(), b"draft 2");
    assert_eq!(reopened.version_body("/fresh", 1).unwrap(), b"f1");
    reopened.verify_consistency().unwrap();

    // A failed chunk write likewise: the references it took are
    // released, and the repaired retry records the version.
    let chunks = rig.dir.join("versions").join("chunks");
    let aside = rig.dir.join("versions").join("chunks.aside");
    std::fs::rename(&chunks, &aside).unwrap();
    std::fs::write(&chunks, b"not a directory").unwrap();
    let put = || Request::new(Method::Put, "/doc").with_body(b"v3, all new bytes".to_vec());
    assert!(status(&mut raw, put()) >= 500);
    assert_eq!(rig.store().version_count("/doc"), 2);
    rig.store().verify_consistency().unwrap();
    std::fs::remove_file(&chunks).unwrap();
    std::fs::rename(&aside, &chunks).unwrap();
    assert_eq!(status(&mut raw, put()), 204);
    let reopened = VersionStore::persistent(rig.dir.join("versions")).unwrap();
    assert_eq!(
        reopened.version_body("/doc", 3).unwrap(),
        b"v3, all new bytes"
    );
}

// ---- proptest: replay equivalence and GC consistency ----

mod replay {
    use super::*;
    use proptest::prelude::*;

    /// One step of a random edit history.
    #[derive(Debug, Clone)]
    enum Op {
        Put(Vec<u8>),
        Checkout,
        Checkin,
        Revert(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Put listed thrice: edits should dominate the op mix.
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..600).prop_map(Op::Put),
            prop::collection::vec(any::<u8>(), 0..600).prop_map(Op::Put),
            prop::collection::vec(any::<u8>(), 0..600).prop_map(Op::Put),
            Just(Op::Checkout),
            Just(Op::Checkin),
            any::<u8>().prop_map(Op::Revert),
        ]
    }

    /// Replay `ops` through the repository's own operations, as the
    /// handler issues them. State transitions that the wire protocol
    /// would refuse (double checkout, checkin while checked in) are
    /// skipped, exactly as a client would be refused.
    fn drive(repo: &dyn Repository, path: &str, ops: &[Op]) {
        let deltav = repo.deltav().expect("the repository keeps histories");
        let store = deltav.versions();
        for op in ops {
            match op {
                Op::Put(body) => {
                    repo.put(path, body, None).unwrap();
                }
                Op::Checkout => {
                    if !store.is_checked_out(path) {
                        deltav.checkout(path).unwrap();
                    }
                }
                Op::Checkin => {
                    if store.is_checked_out(path) {
                        deltav.checkin(path, None).unwrap();
                    }
                }
                Op::Revert(pick) => {
                    let count = store.version_count(path);
                    if count > 0 && !store.is_checked_out(path) {
                        let n = (*pick as usize % count) as u32 + 1;
                        let body = store.version_body(path, n).unwrap();
                        repo.put(path, &body, None).unwrap();
                        store.note_revert();
                    }
                }
            }
        }
    }

    /// All stored version bodies, oldest first.
    fn history_bodies(store: &VersionStore, path: &str) -> Vec<(u32, Vec<u8>)> {
        let (metas, _) = store.versions_of(path).unwrap_or_default();
        metas
            .iter()
            .map(|m| (m.number, store.version_body(path, m.number).unwrap()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn mem_and_restarted_fs_replay_identically(
            ops in prop::collection::vec(op_strategy(), 1..40),
            restart_at in 0usize..40,
            keep in 1usize..6,
        ) {
            let path = "/doc";
            let n = N.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "pse-dav-replay-{n}-{}", std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);

            // Reference: a mem repository with its memory-only store.
            let mem_repo = MemRepository::new();
            mem_repo.put(path, b"genesis", None).unwrap();
            mem_repo.version_control(path, None).unwrap();
            let mem_store = mem_repo.versions();

            // Subject: an fs repository with a persistent store,
            // restarted mid-history (drop + reopen from disk).
            let fs_repo = open_fs(&dir);
            fs_repo.put(path, b"genesis", None).unwrap();
            fs_repo.version_control(path, None).unwrap();

            let cut = restart_at.min(ops.len());
            drive(&mem_repo, path, &ops);
            drive(&fs_repo, path, &ops[..cut]);
            drop(fs_repo);
            let fs_repo = open_fs(&dir);
            let fs_store = fs_repo.versions();
            prop_assert!(fs_store.is_versioned(path), "restart lost the history");
            drive(&fs_repo, path, &ops[cut..]);

            // Identical histories: same numbers, same bodies, bit for bit.
            prop_assert_eq!(
                history_bodies(mem_store, path),
                history_bodies(fs_store, path)
            );
            prop_assert_eq!(
                mem_store.is_checked_out(path),
                fs_store.is_checked_out(path)
            );
            mem_store.verify_consistency().unwrap();
            fs_store.verify_consistency().unwrap();

            // GC: prune both to `keep` versions — refcounts must stay
            // consistent and the surviving bodies identical.
            mem_store.prune(path, keep).unwrap();
            fs_store.prune(path, keep).unwrap();
            prop_assert_eq!(
                history_bodies(mem_store, path),
                history_bodies(fs_store, path)
            );
            mem_store.verify_consistency().unwrap();
            fs_store.verify_consistency().unwrap();

            // And a pruned persistent store still survives a restart.
            let surviving = history_bodies(fs_store, path);
            drop(fs_repo);
            let reopened = VersionStore::persistent(dir.join("versions")).unwrap();
            prop_assert_eq!(history_bodies(&reopened, path), surviving);
            reopened.verify_consistency().unwrap();

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
