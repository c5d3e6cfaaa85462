//! Idempotent, gap-detecting replay of change-log entries on a replica.
//!
//! The [`Applier`] owns the replica's durable cursor (`applied.seq`):
//! entries at or below it are duplicates and are skipped, the next
//! entry must be exactly `applied + 1` (anything later is a
//! [`ApplyError::Gap`] — the replica must re-request from its cursor),
//! and batches must be internally ascending. Records are applied
//! through the ordinary [`Repository`] operations, so they run under
//! the same PR 5 path-lock plans every client write does — a reader on
//! the replica can never observe a torn PROPPATCH or a half-applied
//! MOVE.
//!
//! Replay is *tolerant*: a record whose precondition has been overtaken
//! (deleting an already-absent resource, moving a source that a
//! snapshot resync already placed at its destination) counts as
//! `skipped`, not as an error. This is what lets a snapshot taken at
//! sequence S absorb re-application of S+1.. without diverging.

use crate::record::{ChangeRecord, Entry, PropOp};
use parking_lot::Mutex;
use pse_dav::error::DavError;
use pse_dav::property::Property;
use pse_dav::repo::{PropPatchOp, Repository};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a batch could not be applied.
#[derive(Debug)]
pub enum ApplyError {
    /// The batch starts past the cursor: entries in between are missing.
    Gap {
        /// The sequence number the replica needs next.
        expected: u64,
        /// The first fresh sequence number the batch offered.
        got: u64,
    },
    /// Entries within the batch are not strictly ascending.
    OutOfOrder {
        /// Sequence number preceding the violation.
        prev: u64,
        /// The out-of-place sequence number.
        got: u64,
    },
    /// A record failed against the repository for a non-tolerable reason.
    Repo {
        /// The failing entry's sequence number.
        seq: u64,
        /// The repository error.
        error: DavError,
    },
    /// The durable cursor could not be persisted.
    Io(io::Error),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::Gap { expected, got } => {
                write!(f, "log gap: expected seq {expected}, batch starts at {got}")
            }
            ApplyError::OutOfOrder { prev, got } => {
                write!(f, "batch out of order: seq {got} after {prev}")
            }
            ApplyError::Repo { seq, error } => write!(f, "replay of seq {seq} failed: {error}"),
            ApplyError::Io(e) => write!(f, "cursor persist failed: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {}

/// Counters one [`Applier::apply_batch`] call produces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Entries actually applied to the repository.
    pub applied: usize,
    /// Entries at or below the cursor, dropped as duplicates.
    pub deduped: usize,
    /// Fresh entries whose effect was already present (tolerated replay).
    pub skipped: usize,
}

/// The replica's replay engine + durable cursor.
pub struct Applier {
    state_path: PathBuf,
    applied: AtomicU64,
    // Serialises whole batches so the cursor, the repository state, and
    // the persisted file always agree.
    gate: Mutex<()>,
}

impl Applier {
    /// Open (creating if needed) the cursor file `dir/applied.seq`.
    pub fn open(dir: &Path) -> io::Result<Applier> {
        std::fs::create_dir_all(dir)?;
        let state_path = dir.join("applied.seq");
        let applied = match std::fs::read_to_string(&state_path) {
            Ok(s) => s.trim().parse().unwrap_or(0),
            Err(_) => 0,
        };
        Ok(Applier {
            state_path,
            applied: AtomicU64::new(applied),
            gate: Mutex::new(()),
        })
    }

    /// The last applied sequence number.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// Force the cursor (used after a full snapshot resync) and persist.
    pub fn set_applied(&self, seq: u64) -> io::Result<()> {
        let _g = self.gate.lock();
        self.applied.store(seq, Ordering::SeqCst);
        self.persist(seq)
    }

    fn persist(&self, seq: u64) -> io::Result<()> {
        let tmp = self.state_path.with_extension("seq.tmp");
        std::fs::write(&tmp, format!("{seq}\n"))?;
        std::fs::rename(&tmp, &self.state_path)
    }

    /// Apply one shipped batch. Duplicates are deduped, gaps and
    /// disorder are rejected before anything is applied, and the cursor
    /// is persisted once at the end.
    pub fn apply_batch(
        &self,
        repo: &dyn Repository,
        entries: &[Entry],
    ) -> Result<BatchOutcome, ApplyError> {
        let _g = self.gate.lock();
        let mut cursor = self.applied.load(Ordering::SeqCst);

        // Validate the whole batch before touching the repository:
        // strictly ascending, and the first fresh entry (past the
        // cursor) must be exactly the next expected sequence number.
        let mut prev: Option<u64> = None;
        let mut first_fresh: Option<u64> = None;
        for e in entries {
            if let Some(p) = prev {
                if e.seq <= p {
                    return Err(ApplyError::OutOfOrder {
                        prev: p,
                        got: e.seq,
                    });
                }
            }
            prev = Some(e.seq);
            if e.seq > cursor && first_fresh.is_none() {
                first_fresh = Some(e.seq);
            }
        }
        if let Some(first) = first_fresh {
            if first != cursor + 1 {
                return Err(ApplyError::Gap {
                    expected: cursor + 1,
                    got: first,
                });
            }
        }

        let mut out = BatchOutcome::default();
        for e in entries {
            if e.seq <= cursor {
                out.deduped += 1;
                continue;
            }
            if e.seq != cursor + 1 {
                // Ascending batch with a hole in the middle.
                self.applied.store(cursor, Ordering::SeqCst);
                self.persist(cursor).map_err(ApplyError::Io)?;
                return Err(ApplyError::Gap {
                    expected: cursor + 1,
                    got: e.seq,
                });
            }
            match apply_record(repo, &e.record) {
                Ok(true) => out.applied += 1,
                Ok(false) => out.skipped += 1,
                Err(error) => {
                    self.applied.store(cursor, Ordering::SeqCst);
                    self.persist(cursor).map_err(ApplyError::Io)?;
                    return Err(ApplyError::Repo { seq: e.seq, error });
                }
            }
            cursor = e.seq;
        }
        self.applied.store(cursor, Ordering::SeqCst);
        self.persist(cursor).map_err(ApplyError::Io)?;
        Ok(out)
    }
}

/// Create any missing ancestor collections of `path`.
fn ensure_parents(repo: &dyn Repository, path: &str) {
    let parent = pse_http::uri::parent_path(path);
    if parent == path || repo.exists(&parent) {
        return;
    }
    ensure_parents(repo, &parent);
    let _ = repo.mkcol(&parent);
}

/// Apply one record idempotently. `Ok(true)` when the repository
/// changed, `Ok(false)` when the record's effect was already present
/// (tolerated), `Err` for everything else. Records replay through the
/// repository's own operations, so a Put re-runs auto-versioning and a
/// Rename moves the history, in the order the primary logged them:
/// histories converge byte-for-byte.
pub fn apply_record(repo: &dyn Repository, rec: &ChangeRecord) -> Result<bool, DavError> {
    match rec {
        ChangeRecord::Put {
            path,
            content_type,
            data,
        } => {
            let ct = content_type.as_deref();
            match repo.put(path, data, ct) {
                Ok(_) => Ok(true),
                Err(DavError::Conflict(_)) => {
                    // Snapshot races can leave an ancestor missing for a
                    // moment; recreate the chain and retry once.
                    ensure_parents(repo, path);
                    repo.put(path, data, ct).map(|_| true)
                }
                Err(e) => Err(e),
            }
        }
        ChangeRecord::Mkcol { path } => match repo.mkcol(path) {
            Ok(()) => Ok(true),
            Err(_) if repo.meta(path).map(|m| m.is_collection).unwrap_or(false) => Ok(false),
            Err(DavError::Conflict(_)) => {
                ensure_parents(repo, path);
                repo.mkcol(path).map(|()| true)
            }
            Err(e) => Err(e),
        },
        ChangeRecord::Delete { path } => match repo.delete(path) {
            Ok(()) => Ok(true),
            Err(DavError::NotFound(_)) => Ok(false),
            Err(e) => Err(e),
        },
        // Replay always overwrites: the primary already adjudicated the
        // original request's Overwrite header, and re-application after
        // a snapshot must win over whatever the snapshot placed there.
        ChangeRecord::Copy { src, dst, .. } => {
            if !repo.exists(src) {
                return Ok(false);
            }
            match repo.copy(src, dst, true) {
                Ok(_) => Ok(true),
                Err(DavError::NotFound(_)) => Ok(false),
                Err(e) => Err(e),
            }
        }
        ChangeRecord::Rename { src, dst, .. } => {
            if !repo.exists(src) {
                // Already moved (snapshot or duplicate application).
                return Ok(false);
            }
            match repo.rename(src, dst, true) {
                Ok(_) => Ok(true),
                Err(DavError::NotFound(_)) => Ok(false),
                Err(e) => Err(e),
            }
        }
        ChangeRecord::PatchProps { path, ops } => {
            if !repo.exists(path) {
                // The resource was deleted later in the log.
                return Ok(false);
            }
            let mut rebuilt: Vec<PropPatchOp> = Vec::with_capacity(ops.len());
            for op in ops {
                rebuilt.push(match op {
                    PropOp::Set { name, storage } => {
                        PropPatchOp::Set(Property::from_storage(name.clone(), storage)?)
                    }
                    PropOp::Remove { name } => PropPatchOp::Remove(name.clone()),
                });
            }
            match repo.patch_props(path, &rebuilt) {
                Ok(()) => Ok(true),
                Err((_, DavError::NotFound(_))) => Ok(false),
                Err((_, e)) => Err(e),
            }
        }
        // Version records replay the primary's bodies.
        ChangeRecord::VersionControl { path, content } => replayed(
            repo.deltav()
                .map(|v| v.version_control(path, Some(content))),
        ),
        ChangeRecord::Checkout { path } => {
            replayed(repo.deltav().map(|v| v.checkout(path).map(|()| true)))
        }
        ChangeRecord::Checkin { path, content } => replayed(
            repo.deltav()
                .map(|v| v.checkin(path, Some(content)).map(|_| true)),
        ),
    }
}

/// The outcome of a replayed version record: a state replay has
/// already overtaken (a duplicate CHECKOUT) is a skip, and so is any
/// version record on a repository without histories (`None`).
fn replayed(outcome: Option<Result<bool, DavError>>) -> Result<bool, DavError> {
    match outcome {
        None | Some(Err(DavError::Conflict(_))) => Ok(false),
        Some(result) => result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_dav::memrepo::MemRepository;
    use pse_dav::property::PropertyName;

    fn tmp(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("pse-cluster-apply-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn put(seq: u64, path: &str, body: &str) -> Entry {
        Entry {
            seq,
            record: ChangeRecord::Put {
                path: path.into(),
                content_type: None,
                data: body.as_bytes().to_vec(),
            },
        }
    }

    #[test]
    fn duplicates_deduped_and_cursor_persists() {
        let dir = tmp("dedup");
        let repo = MemRepository::new();
        let a = Applier::open(&dir).unwrap();
        let batch = vec![put(1, "/a", "1"), put(2, "/a", "2")];
        let out = a.apply_batch(&repo, &batch).unwrap();
        assert_eq!((out.applied, out.deduped), (2, 0));

        // Same batch again: pure dedup, nothing re-applied.
        let out = a.apply_batch(&repo, &batch).unwrap();
        assert_eq!((out.applied, out.deduped), (0, 2));
        assert_eq!(repo.get("/a").unwrap(), b"2");
        assert_eq!(a.applied(), 2);

        // "Restart": a fresh Applier reloads the cursor from disk.
        let a2 = Applier::open(&dir).unwrap();
        assert_eq!(a2.applied(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gaps_rejected_before_any_application() {
        let dir = tmp("gap");
        let repo = MemRepository::new();
        let a = Applier::open(&dir).unwrap();
        let err = a.apply_batch(&repo, &[put(3, "/x", "3")]).unwrap_err();
        match err {
            ApplyError::Gap {
                expected: 1,
                got: 3,
            } => {}
            other => panic!("want Gap, got {other}"),
        }
        assert!(!repo.exists("/x"), "gapped batch must not be applied");
        assert_eq!(a.applied(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_batches_rejected() {
        let dir = tmp("ooo");
        let repo = MemRepository::new();
        let a = Applier::open(&dir).unwrap();
        let err = a
            .apply_batch(&repo, &[put(2, "/x", "2"), put(1, "/x", "1")])
            .unwrap_err();
        assert!(matches!(err, ApplyError::OutOfOrder { prev: 2, got: 1 }));
        assert!(!repo.exists("/x"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overlapping_batch_applies_only_the_fresh_suffix() {
        let dir = tmp("overlap");
        let repo = MemRepository::new();
        let a = Applier::open(&dir).unwrap();
        a.apply_batch(&repo, &[put(1, "/a", "1"), put(2, "/a", "2")])
            .unwrap();
        let out = a
            .apply_batch(&repo, &[put(2, "/a", "2"), put(3, "/a", "3")])
            .unwrap();
        assert_eq!((out.applied, out.deduped), (1, 1));
        assert_eq!(repo.get("/a").unwrap(), b"3");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tolerant_replay_counts_skips() {
        let repo = MemRepository::new();
        // Delete of an absent resource: skipped, not an error.
        assert!(!apply_record(
            &repo,
            &ChangeRecord::Delete {
                path: "/nope".into()
            }
        )
        .unwrap());
        // Mkcol of an existing collection: skipped.
        repo.mkcol("/c").unwrap();
        assert!(!apply_record(&repo, &ChangeRecord::Mkcol { path: "/c".into() }).unwrap());
        // Rename whose source is gone: skipped.
        assert!(!apply_record(
            &repo,
            &ChangeRecord::Rename {
                src: "/gone".into(),
                dst: "/c/x".into(),
                overwrite: false,
            }
        )
        .unwrap());
        // PatchProps on a deleted resource: skipped.
        assert!(!apply_record(
            &repo,
            &ChangeRecord::PatchProps {
                path: "/gone".into(),
                ops: vec![PropOp::Remove {
                    name: PropertyName::new("urn:x", "p"),
                }],
            }
        )
        .unwrap());
        // PUT under a missing parent: the chain is recreated.
        assert!(apply_record(
            &repo,
            &ChangeRecord::Put {
                path: "/deep/nest/doc".into(),
                content_type: None,
                data: b"x".to_vec(),
            }
        )
        .unwrap());
        assert_eq!(repo.get("/deep/nest/doc").unwrap(), b"x");
    }
}
