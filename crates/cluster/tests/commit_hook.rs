//! The change log as a repository commit hook: what gets recorded
//! ([`ChangeLog::record_commits`]), what does not, and that racing
//! writes to one path reach the log in the order they were applied.

use pse_cluster::apply::Applier;
use pse_cluster::log::ChangeLog;
use pse_cluster::record::ChangeRecord;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::memrepo::MemRepository;
use pse_dav::property::{Property, PropertyName};
use pse_dav::repo::{PropPatchOp, Repo, Repository, Store};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

static N: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pse-cluster-hook-{tag}-{}-{}",
        N.fetch_add(1, Ordering::Relaxed),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A memory repository whose commits are recorded into a fresh log.
fn rig(tag: &str) -> (MemRepository, Arc<ChangeLog>, PathBuf) {
    let dir = temp_dir(tag);
    let log = ChangeLog::open(&dir).unwrap();
    let repo = MemRepository::new();
    log.record_commits(&repo);
    (repo, log, dir)
}

#[test]
fn every_mutation_is_recorded_in_order() {
    let (repo, log, dir) = rig("order");
    repo.mkcol("/c").unwrap();
    repo.put("/c/doc", b"v1", Some("text/plain")).unwrap();
    repo.set_prop(
        "/c/doc",
        &Property::text(PropertyName::new("urn:x", "p"), "v"),
    )
    .unwrap();
    repo.copy("/c/doc", "/c/copy", false).unwrap();
    repo.rename("/c/copy", "/c/moved", false).unwrap();
    repo.remove_prop("/c/doc", &PropertyName::new("urn:x", "p"))
        .unwrap();
    repo.delete("/c/moved").unwrap();

    let entries = log.read_after(0, 100).unwrap();
    let kinds: Vec<&str> = entries.iter().map(|e| e.record.kind()).collect();
    assert_eq!(
        kinds,
        vec![
            "mkcol",
            "put",
            "patch_props",
            "copy",
            "rename",
            "patch_props",
            "delete"
        ]
    );
    assert_eq!(
        entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
        (1..=7).collect::<Vec<u64>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_mutations_are_not_recorded() {
    let (repo, log, dir) = rig("fail");
    assert!(repo.put("/missing-parent/doc", b"x", None).is_err());
    assert!(repo.delete("/nope").is_err());
    assert!(repo.mkcol("/a/b").is_err());
    assert_eq!(log.last_seq(), 0);
    // remove of an absent property is Ok(false) — and not logged.
    repo.put("/d", b"x", None).unwrap();
    assert!(!repo
        .remove_prop("/d", &PropertyName::new("urn:x", "gone"))
        .unwrap());
    assert_eq!(log.last_seq(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn staged_commit_logs_an_absolute_put() {
    let (repo, log, dir) = rig("stage");
    // Staging itself leaves the log untouched...
    repo.stage_append("/doc", 0, 6, b"abc").unwrap();
    repo.stage_append("/doc", 3, 6, b"def").unwrap();
    assert_eq!(log.last_seq(), 0);
    // ...the commit lands as one Put holding the full body.
    assert!(repo.stage_commit("/doc", Some("text/plain")).unwrap());
    let entries = log.read_after(0, 10).unwrap();
    assert_eq!(entries.len(), 1);
    match &entries[0].record {
        ChangeRecord::Put {
            path,
            content_type,
            data,
        } => {
            assert_eq!(path, "/doc");
            assert_eq!(content_type.as_deref(), Some("text/plain"));
            assert_eq!(data, b"abcdef");
        }
        other => panic!("expected Put, got {}", other.kind()),
    }
    // Aborts stay invisible too.
    repo.stage_append("/x", 0, 2, b"hi").unwrap();
    repo.stage_abort("/x").unwrap();
    assert_eq!(log.last_seq(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reads_do_not_touch_the_log() {
    let (repo, log, dir) = rig("reads");
    repo.put("/doc", b"x", None).unwrap();
    let before = log.last_seq();
    let _ = repo.get("/doc").unwrap();
    let _ = repo.meta("/doc").unwrap();
    let _ = repo.list("/").unwrap();
    let _ = repo.all_props("/doc").unwrap();
    assert_eq!(log.last_seq(), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Body plus dead properties (storage form) of `path`.
fn state(repo: &dyn Repository, path: &str) -> (Vec<u8>, BTreeMap<Vec<u8>, Vec<u8>>) {
    let props = repo
        .all_props(path)
        .unwrap()
        .into_iter()
        .filter(|p| !p.name.is_live())
        .map(|p| (p.name.storage_key(), p.to_storage()))
        .collect();
    (repo.get(path).unwrap(), props)
}

/// Threads race PUT, PROPPATCH and single-property writes on one path
/// per round. Replaying the log into a fresh repository must reproduce
/// the primary's final body and properties on every path: an append
/// made after the lock plan is released lets two conflicting writes
/// reach the log in the opposite order to the one they were applied in.
fn racing_writes_log_in_apply_order<S: Store>(repo: Repo<S>, log: Arc<ChangeLog>, dir: &PathBuf) {
    const THREADS: usize = 4;
    const ROUNDS: usize = 200;
    const WRITES: usize = 12;
    let repo = Arc::new(repo);
    let names = [
        PropertyName::new("urn:race", "a"),
        PropertyName::new("urn:race", "b"),
    ];
    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (repo, barrier, names) = (Arc::clone(&repo), Arc::clone(&barrier), names.clone());
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let path = format!("/doc{round}");
                    if t == 0 {
                        repo.put(&path, b"seed", None).unwrap();
                    }
                    barrier.wait();
                    for i in 0..WRITES {
                        // Every third value is large: the longer a write's
                        // record takes to build, the wider the window in
                        // which a later write could overtake it.
                        let mut value = format!("t{t}-r{round}-w{i}");
                        if i % 3 == 0 {
                            value = value.repeat(2048);
                        }
                        let name = &names[(t + i) % 2];
                        match (t + i) % 3 {
                            0 => {
                                repo.put(&path, value.as_bytes(), Some("text/plain"))
                                    .unwrap();
                            }
                            1 => repo
                                .patch_props(
                                    &path,
                                    &[PropPatchOp::Set(Property::text(name.clone(), &value))],
                                )
                                .unwrap(),
                            _ => repo
                                .set_prop(&path, &Property::text(name.clone(), &value))
                                .unwrap(),
                        }
                    }
                    barrier.wait();
                }
            })
        })
        .collect();

    // Tail the log while the writers run, as a replica does: the log
    // keeps what its live readers still need under a byte cap, and
    // this run writes more than the cap.
    let replica = MemRepository::new();
    let applier = Applier::open(&dir.join("replica")).unwrap();
    let mut replayed = 0;
    let mut drain = || {
        let entries = log.read_after(applier.applied(), usize::MAX).unwrap();
        replayed += entries.len();
        applier.apply_batch(&replica, &entries).unwrap();
        log.note_replica("reader", applier.applied());
    };
    while workers.iter().any(|w| !w.is_finished()) {
        drain();
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for w in workers {
        w.join().unwrap();
    }
    drain();
    assert_eq!(replayed, ROUNDS * (1 + THREADS * WRITES));
    for round in 0..ROUNDS {
        let path = format!("/doc{round}");
        assert_eq!(
            state(&replica, &path),
            state(repo.as_ref(), &path),
            "{path}: the log replays to a different final state than the primary applied"
        );
    }
}

#[test]
fn racing_writes_log_in_apply_order_mem() {
    let (repo, log, dir) = rig("race-mem");
    racing_writes_log_in_apply_order(repo, log, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_writes_log_in_apply_order_fs() {
    let dir = temp_dir("race-fs");
    let log = ChangeLog::open(&dir.join("log")).unwrap();
    let repo = FsRepository::create(dir.join("data"), FsConfig::default()).unwrap();
    log.record_commits(&repo);
    racing_writes_log_in_apply_order(repo, log, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}
