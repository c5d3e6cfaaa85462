//! Sharded, hierarchy-aware path locking for repositories.
//!
//! The repository is a shared resource for the whole group — many Ecce
//! clients reading and writing calculations at once — so serialising
//! every operation through one mutex (the original `FsRepository`
//! design) collapses the multi-worker HTTP server to one request at a
//! time. This module replaces that with a fixed array of shards, each a
//! [`RwLock`], keyed by the FNV hash of the canonical resource path:
//!
//! * readers (GET/HEAD/PROPFIND — the dominant workload) take shared
//!   locks on the paths they touch and run fully in parallel;
//! * point writers (PUT/PROPPATCH/MKCOL/DELETE of a document) take an
//!   exclusive lock on the touched path only, plus a shared lock on the
//!   parent collection so the parent cannot vanish mid-operation;
//! * renames of documents exclusively lock the document, its
//!   destination, and *both* parent collections, so no listing can
//!   observe the halfway state of a cross-directory move;
//! * subtree operations (DELETE/COPY/MOVE of a collection) take a
//!   subtree write intent — every shard, exclusively — because the
//!   affected path set cannot be enumerated atomically in advance.
//!
//! ## Deadlock freedom
//!
//! Every acquisition goes through one plan: a set of (shard, mode)
//! pairs, sorted ascending by shard index with duplicates merged
//! (write wins), acquired in that order, at most one lock per shard.
//! All threads therefore acquire shards in the same global order, so no
//! cycle of waiters can form. Retry loops (used when a path's
//! document-vs-collection classification changes between planning and
//! acquisition) drop every held guard before re-planning.
//!
//! ## Ablation
//!
//! `global: true` routes every plan through a single exclusive shard —
//! the old whole-repository lock, but honest (the original mutex did
//! not even cover reads). `repro_scaling --ablate-global-lock`
//! quantifies what sharding buys.

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use pse_http::uri::{normalize_path, parent_path};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

/// Default number of shards: enough that 16 concurrent clients rarely
/// collide (birthday bound ≈ 1 − e^(−16²/2·64) ≈ 0.86 per *plan*, but a
/// collision only serialises the two colliding operations, not the
/// repository), while a subtree intent stays 64 cheap acquisitions.
pub const DEFAULT_SHARDS: usize = 64;

/// Lock strength for one shard in an acquisition plan. `Ord` so that
/// merging duplicate shards can keep the stronger mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// Shared.
    Read,
    /// Exclusive.
    Write,
}

enum ShardGuard<'a> {
    Read(#[allow(dead_code)] RwLockReadGuard<'a, ()>),
    Write(#[allow(dead_code)] RwLockWriteGuard<'a, ()>),
}

/// Holds every shard lock of one acquisition plan; dropping releases
/// them all.
pub struct PathGuard<'a> {
    _guards: Vec<ShardGuard<'a>>,
}

/// Counters for tests and observability.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathLockStats {
    /// Plans acquired.
    pub acquisitions: u64,
    /// Plans where at least one shard was contended (blocking wait).
    pub contended: u64,
    /// Total microseconds spent blocked on contended shards.
    pub wait_us: u64,
}

/// The sharded path-lock table.
pub struct PathLocks {
    shards: Box<[RwLock<()>]>,
    global: bool,
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait_us: AtomicU64,
    shard_contended: Box<[AtomicU64]>,
    /// Set once by [`register_obs`](PathLocks::register_obs); lets the
    /// acquisition path feed a live wait-time histogram.
    obs: OnceLock<(Arc<pse_obs::Registry>, String)>,
}

impl PathLocks {
    /// A lock table with `shards` shards. `global` collapses every plan
    /// to one exclusive lock (the ablation baseline).
    pub fn new(shards: usize, global: bool) -> PathLocks {
        let n = shards.max(1);
        PathLocks {
            shards: (0..n).map(|_| RwLock::new(())).collect(),
            global,
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait_us: AtomicU64::new(0),
            shard_contended: (0..n).map(|_| AtomicU64::new(0)).collect(),
            obs: OnceLock::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index for a path (canonicalised first, so `/a/b` and
    /// `/a//b/` land on the same shard).
    pub fn shard_of(&self, path: &str) -> usize {
        (pse_cache::fnv1a_64(normalize_path(path).as_bytes()) as usize) % self.shards.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PathLockStats {
        PathLockStats {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            wait_us: self.wait_us.load(Ordering::Relaxed),
        }
    }

    // ---- plan builders ----

    /// Shared lock on one resource: GET/HEAD/PROPFIND member reads.
    pub fn read(&self, path: &str) -> PathGuard<'_> {
        self.acquire(vec![(self.shard_of(path), Mode::Read)])
    }

    /// Exclusive lock on one resource: PROPPATCH (the DBM file is per
    /// resource, so nothing else needs to be covered).
    pub fn write(&self, path: &str) -> PathGuard<'_> {
        self.acquire(vec![(self.shard_of(path), Mode::Write)])
    }

    /// Exclusive lock on a resource plus a shared lock on its parent
    /// collection: PUT/MKCOL/DELETE of a document. The parent hold
    /// keeps the parent's existence stable across the operation; the
    /// single directory-entry change itself is filesystem-atomic, so
    /// concurrent listings stay linearizable.
    pub fn write_with_parent(&self, path: &str) -> PathGuard<'_> {
        let norm = normalize_path(path);
        let parent = parent_path(&norm);
        self.acquire(vec![
            (self.shard_of(&parent), Mode::Read),
            (self.shard_of(&norm), Mode::Write),
        ])
    }

    /// Exclusive locks on source, destination, and both parent
    /// collections: MOVE of a document. A cross-directory rename is two
    /// observable directory events; excluding readers of both parents
    /// makes them a single atomic step.
    pub fn rename_pair(&self, src: &str, dst: &str) -> PathGuard<'_> {
        let (s, d) = (normalize_path(src), normalize_path(dst));
        self.acquire(vec![
            (self.shard_of(&parent_path(&s)), Mode::Write),
            (self.shard_of(&s), Mode::Write),
            (self.shard_of(&parent_path(&d)), Mode::Write),
            (self.shard_of(&d), Mode::Write),
        ])
    }

    /// Shared source, shared destination parent, exclusive destination:
    /// COPY of a document (the source is only read).
    pub fn copy_doc(&self, src: &str, dst: &str) -> PathGuard<'_> {
        let (s, d) = (normalize_path(src), normalize_path(dst));
        self.acquire(vec![
            (self.shard_of(&s), Mode::Read),
            (self.shard_of(&parent_path(&d)), Mode::Read),
            (self.shard_of(&d), Mode::Write),
        ])
    }

    /// Subtree write intent — every shard, exclusively. Used by
    /// DELETE/COPY/MOVE of collections, whose affected path set cannot
    /// be enumerated atomically in advance.
    pub fn subtree(&self) -> PathGuard<'_> {
        self.acquire((0..self.shards.len()).map(|i| (i, Mode::Write)).collect())
    }

    /// Subtree read intent — every shard, shared. Used by whole-tree
    /// reads (disk usage) that must not interleave with any writer.
    pub fn subtree_read(&self) -> PathGuard<'_> {
        self.acquire((0..self.shards.len()).map(|i| (i, Mode::Read)).collect())
    }

    /// Acquire a plan: sort ascending by shard, merge duplicates (write
    /// wins), lock in order. The ascending order is the global lock
    /// order that makes the scheme deadlock-free.
    fn acquire(&self, mut plan: Vec<(usize, Mode)>) -> PathGuard<'_> {
        if self.global {
            plan = vec![(0, Mode::Write)];
        }
        plan.sort_unstable();
        let mut merged: Vec<(usize, Mode)> = Vec::with_capacity(plan.len());
        for (shard, mode) in plan {
            match merged.last_mut() {
                Some((last, m)) if *last == shard => {
                    if mode > *m {
                        *m = mode;
                    }
                }
                _ => merged.push((shard, mode)),
            }
        }
        let mut guards = Vec::with_capacity(merged.len());
        let mut waited = false;
        for (shard, mode) in merged {
            let lock = &self.shards[shard];
            let guard = match mode {
                Mode::Read => match lock.try_read() {
                    Some(g) => ShardGuard::Read(g),
                    None => {
                        waited = true;
                        ShardGuard::Read(self.blocking(shard, || lock.read()))
                    }
                },
                Mode::Write => match lock.try_write() {
                    Some(g) => ShardGuard::Write(g),
                    None => {
                        waited = true;
                        ShardGuard::Write(self.blocking(shard, || lock.write()))
                    }
                },
            };
            guards.push(guard);
        }
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if waited {
            self.contended.fetch_add(1, Ordering::Relaxed);
        }
        PathGuard { _guards: guards }
    }

    /// Time a blocking shard acquisition and record the wait.
    fn blocking<G>(&self, shard: usize, acquire: impl FnOnce() -> G) -> G {
        let t0 = Instant::now();
        let guard = acquire();
        let us = t0.elapsed().as_micros() as u64;
        self.shard_contended[shard].fetch_add(1, Ordering::Relaxed);
        self.wait_us.fetch_add(us, Ordering::Relaxed);
        if let Some((registry, prefix)) = self.obs.get() {
            registry.histogram(&format!("{prefix}.wait_us")).observe(us);
        }
        guard
    }

    /// Contribute lock counters under `prefix.*`: total acquisitions,
    /// contended plans, cumulative wait, a shard-count gauge, per-shard
    /// contention counters (only shards that have contended, to keep the
    /// scrape readable), and a live `prefix.wait_us` histogram.
    pub fn register_obs(self: &Arc<Self>, registry: &Arc<pse_obs::Registry>, prefix: &str) {
        let _ = self.obs.set((Arc::clone(registry), prefix.to_string()));
        let weak: Weak<Self> = Arc::downgrade(self);
        let prefix = prefix.to_string();
        registry.register_source(&prefix.clone(), move |snap| {
            let Some(locks) = weak.upgrade() else { return };
            let s = locks.stats();
            snap.set_counter(&format!("{prefix}.acquisitions"), s.acquisitions);
            snap.set_counter(&format!("{prefix}.contended"), s.contended);
            snap.set_counter(&format!("{prefix}.wait_us"), s.wait_us);
            snap.set_gauge(&format!("{prefix}.shards"), locks.shard_count() as i64);
            for (i, c) in locks.shard_contended.iter().enumerate() {
                let n = c.load(Ordering::Relaxed);
                if n > 0 {
                    snap.set_counter(&format!("{prefix}.shard_contended.{i}"), n);
                }
            }
        });
    }
}

impl std::fmt::Debug for PathLocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathLocks")
            .field("shards", &self.shards.len())
            .field("global", &self.global)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Run `f` on a thread against a shared table; returns a receiver
    /// that fires once the plan has been acquired (and released).
    fn acquire_on_thread(
        locks: &Arc<PathLocks>,
        f: impl Fn(&PathLocks) -> PathGuard<'_> + Send + 'static,
    ) -> mpsc::Receiver<()> {
        let (tx, rx) = mpsc::channel();
        let locks = Arc::clone(locks);
        std::thread::spawn(move || {
            let g = f(&locks);
            drop(g);
            let _ = tx.send(());
        });
        rx
    }

    #[test]
    fn readers_share_a_path() {
        let locks = Arc::new(PathLocks::new(8, false));
        let _r1 = locks.read("/a/b");
        let rx = acquire_on_thread(&locks, |l| l.read("/a/b"));
        rx.recv_timeout(Duration::from_secs(5))
            .expect("second reader must not block behind the first");
    }

    #[test]
    fn writer_excludes_reader_on_same_path() {
        let locks = Arc::new(PathLocks::new(8, false));
        let w = locks.write("/a/b");
        let rx = acquire_on_thread(&locks, |l| l.read("/a/b"));
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "reader must wait for the writer"
        );
        drop(w);
        rx.recv_timeout(Duration::from_secs(5)).expect("freed");
        assert!(locks.stats().contended >= 1);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let locks = Arc::new(PathLocks::new(1024, false));
        // With 1024 shards these short names land on distinct shards;
        // pick two that provably differ to make the test deterministic.
        let (a, b) = ("/x/doc-1", "/x/doc-2");
        assert_ne!(locks.shard_of(a), locks.shard_of(b), "test premise");
        let _w = locks.write(a);
        let rx = acquire_on_thread(&locks, move |l| l.write(b));
        rx.recv_timeout(Duration::from_secs(5))
            .expect("writer on a different shard must proceed");
    }

    #[test]
    fn duplicate_shards_merge_instead_of_self_deadlocking() {
        let locks = PathLocks::new(4, false);
        // src == dst puts four entries on at most two shards; without
        // merging the second acquisition of the same shard would
        // self-deadlock.
        let g = locks.rename_pair("/p/a", "/p/a");
        drop(g);
        // And a parent/child hash collision in a tiny table.
        let g = locks.write_with_parent("/p/a");
        drop(g);
    }

    #[test]
    fn subtree_excludes_point_writer() {
        let locks = Arc::new(PathLocks::new(8, false));
        let s = locks.subtree();
        let rx = acquire_on_thread(&locks, |l| l.write("/any/path"));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
        drop(s);
        rx.recv_timeout(Duration::from_secs(5)).expect("freed");
    }

    #[test]
    fn global_mode_serialises_even_readers() {
        let locks = Arc::new(PathLocks::new(8, true));
        let r = locks.read("/a");
        let rx = acquire_on_thread(&locks, |l| l.read("/b"));
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "ablation mode must serialise everything"
        );
        drop(r);
        rx.recv_timeout(Duration::from_secs(5)).expect("freed");
    }

    #[test]
    fn storm_of_mixed_plans_terminates() {
        // Deadlock-freedom smoke: many threads, every plan shape, a
        // tiny table to force maximal collision.
        let locks = Arc::new(PathLocks::new(4, false));
        let mut handles = Vec::new();
        for t in 0..8 {
            let locks = Arc::clone(&locks);
            handles.push(std::thread::spawn(move || {
                let paths = ["/a", "/a/b", "/c", "/c/d", "/e"];
                for i in 0..2000 {
                    let p = paths[(t + i) % paths.len()];
                    let q = paths[(t + i * 3 + 1) % paths.len()];
                    match i % 5 {
                        0 => drop(locks.read(p)),
                        1 => drop(locks.write_with_parent(p)),
                        2 => drop(locks.rename_pair(p, q)),
                        3 => drop(locks.copy_doc(p, q)),
                        _ => drop(locks.subtree()),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = locks.stats();
        assert_eq!(s.acquisitions, 8 * 2000);
    }

    #[test]
    fn obs_exports_counters_through_weak_ref() {
        let locks = Arc::new(PathLocks::new(8, false));
        let reg = pse_obs::Registry::new();
        locks.register_obs(&reg, "test.pathlock");
        drop(locks.write("/a"));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("test.pathlock.acquisitions"), 1);
        assert_eq!(snap.gauge("test.pathlock.shards"), 8);
    }
}
