//! DeltaV versioning (RFC 3253 minimal profile) over a
//! content-addressed chunk store.
//!
//! The paper tracks the "Goals for Web Versioning" (DeltaV) drafts as a
//! promised capability; this module supplies the profile a PSE needs:
//!
//! * `VERSION-CONTROL` starts a history (version 1 = current content);
//! * in **auto-version** mode (the Ecce flow, default) every `PUT`
//!   appends a version; in manual mode a `PUT` against a checked-in
//!   resource is refused until `CHECKOUT`;
//! * `CHECKOUT` suspends auto-versioning and `CHECKIN` records exactly
//!   one new version from the then-current content — a storm of PUTs
//!   between the two collapses into a single revision;
//! * `REPORT` serves `DAV:version-tree` / `DAV:version-content`;
//! * every version is a read-only DAV resource under
//!   [`HISTORY_PREFIX`]` /<path>/<n>` answering GET and PROPFIND, so
//!   `COPY` from a version URL reverts a document.
//!
//! Storage is content-addressed: bodies are Gear-chunked
//! ([`crate::cdc`]) and chunks are keyed by FNV-1a hash with
//! byte-compared buckets (a hash collision lands in a second bucket, it
//! never aliases). Chunks are ref-counted across every version of every
//! resource, so a 1% edit costs ~1% new bytes and pruning a history
//! garbage-collects exactly the chunks nothing references any more.
//!
//! Histories live in the repository: a [`crate::repo::Repo`] owns its
//! `VersionStore` (memory-only unless a persistent one is passed to
//! [`crate::repo::Repo::with_version_store`]) and changes it only under
//! the lock plan of the operation that changes it. A PUT or staged
//! commit is gated (manual mode refuses a checked-in resource) and
//! auto-versioned under the same write plan as the store write; a MOVE
//! re-homes the histories of the moved resource and of every member of
//! a moved collection under the rename plan; VERSION-CONTROL,
//! CHECKOUT and CHECKIN ([`DeltaV`]) take the ordinary write plan and
//! report to the repository's commit hook like any other mutation. A
//! replica's snapshot resync installs the primary's histories whole
//! ([`DeltaV::install_history`], [`HistoryImage`]).
//! Every history change is written through before it is acknowledged:
//! a failed chunk or manifest write is undone in memory and returned
//! to the caller, so memory never holds a version the disk lacks.

use crate::cdc::{self, ChunkParams};
use crate::error::{DavError, Result};
use crate::property::DAV_NS;
use crate::repo::{format_iso8601, Repository};
use parking_lot::Mutex;
use pse_http::{Request, Response, StatusCode};
use pse_xml::dom::{Document, Element};
use pse_xml::writer::Writer;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{SystemTime, UNIX_EPOCH};

/// URL prefix version histories are served under. The history of
/// `/proj/calc.out` lives at `/.well-known/history/proj/calc.out`, its
/// third version at `/.well-known/history/proj/calc.out/3`.
pub const HISTORY_PREFIX: &str = "/.well-known/history";

/// The history URL of one stored version.
pub fn history_url(path: &str, number: u32) -> String {
    format!("{HISTORY_PREFIX}{path}/{number}")
}

/// Identity of one stored chunk: content hash plus the index among
/// same-hash chunks (buckets are byte-compared on insert, so two
/// colliding chunks get distinct buckets and never alias).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ChunkId {
    hash: u64,
    bucket: u32,
}

/// One slot in a hash's bucket list. `data: None` is a tombstone left
/// by GC — the slot may be re-used by a future insert, keeping earlier
/// buckets' indices stable.
#[derive(Debug)]
struct Bucket {
    data: Option<Vec<u8>>,
    refs: u64,
}

/// Public metadata of one stored version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionMeta {
    /// 1-based, monotonically increasing (pruning keeps later numbers).
    pub number: u32,
    /// Unix seconds at which the version was recorded.
    pub created: u64,
    /// Body length in bytes.
    pub len: u64,
}

#[derive(Debug, Clone)]
struct VersionRec {
    number: u32,
    created: u64,
    len: u64,
    chunks: Vec<ChunkId>,
}

impl VersionRec {
    fn meta(&self) -> VersionMeta {
        VersionMeta {
            number: self.number,
            created: self.created,
            len: self.len,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct History {
    versions: Vec<VersionRec>,
    checked_out: bool,
}

#[derive(Default)]
struct Inner {
    histories: HashMap<String, History>,
    chunks: HashMap<u64, Vec<Bucket>>,
}

/// Aggregate store statistics (see [`VersionStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStats {
    /// Resources under version control.
    pub resources: u64,
    /// Stored versions across all resources.
    pub versions: u64,
    /// Live (referenced) chunks.
    pub chunks: u64,
    /// Bytes held by live chunks — the store's physical footprint.
    pub chunk_bytes: u64,
    /// Sum of all version body lengths — what full snapshots would cost.
    pub logical_bytes: u64,
    /// Resources currently checked out.
    pub checked_out: u64,
}

/// A whole history as one node holds it: every version's metadata and
/// body, oldest first, and the checkout state. A replica that resyncs
/// from a snapshot installs the primary's through
/// [`DeltaV::install_history`], so numbers, creation times, lengths,
/// bodies and checkout state all match the primary's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryImage {
    /// Versions, oldest first, with their bodies.
    pub versions: Vec<(VersionMeta, Vec<u8>)>,
    /// Is the resource checked out?
    pub checked_out: bool,
}

/// A resolved `/.well-known/history/...` target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryTarget<'a> {
    /// The history index of a versioned resource.
    Index(&'a str),
    /// One version of a versioned resource.
    Version(&'a str, u32),
}

/// DeltaV on a repository that keeps version histories (see
/// [`Repository::deltav`]). Each mutation takes the repository's write
/// plan for the path and reports to its commit hook. `content`, when
/// given, is the body to record (a replica replaying the primary's
/// decision); `None` reads the current body under the plan.
pub trait DeltaV {
    /// The histories, for reads.
    fn versions(&self) -> &VersionStore;
    /// VERSION-CONTROL: start `path`'s history. `Ok(false)` when it is
    /// already versioned (idempotent per RFC 3253).
    fn version_control(&self, path: &str, content: Option<&[u8]>) -> Result<bool>;
    /// CHECKOUT: suspend auto-versioning until CHECKIN.
    fn checkout(&self, path: &str) -> Result<()>;
    /// CHECKIN: record one new version and return its number.
    fn checkin(&self, path: &str, content: Option<&[u8]>) -> Result<u32>;
    /// Replace `path`'s history with `image` as another node holds it;
    /// `None` drops the history. A replica's snapshot resync uses it.
    /// The operation is not a DAV method and is not reported to the
    /// commit hook, so a repository whose changes are logged refuses it
    /// (its followers would never see the new history).
    fn install_history(&self, path: &str, image: Option<&HistoryImage>) -> Result<()>;
}

/// A repository's version histories and their chunk store.
pub struct VersionStore {
    inner: Mutex<Inner>,
    /// When set, chunks and history manifests are written through under
    /// this directory (`chunks/`, `meta/`) and reloaded on startup.
    dir: Option<PathBuf>,
    /// Auto-version-on-PUT (the Ecce flow). When false, a PUT against a
    /// checked-in versioned resource is refused with 409.
    auto_version: AtomicBool,
    checkouts: AtomicU64,
    checkins: AtomicU64,
    reverts: AtomicU64,
    recorded: AtomicU64,
    gc_chunks: AtomicU64,
    gc_bytes: AtomicU64,
}

impl std::fmt::Debug for VersionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionStore")
            .field("dir", &self.dir)
            .field("auto_version", &self.auto_version.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for VersionStore {
    fn default() -> Self {
        VersionStore::new()
    }
}

fn now_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl VersionStore {
    /// An empty, memory-only store in auto-version mode.
    pub fn new() -> VersionStore {
        VersionStore {
            inner: Mutex::new(Inner::default()),
            dir: None,
            auto_version: AtomicBool::new(true),
            checkouts: AtomicU64::new(0),
            checkins: AtomicU64::new(0),
            reverts: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            gc_chunks: AtomicU64::new(0),
            gc_bytes: AtomicU64::new(0),
        }
    }

    /// A store persisted under `dir` (created if absent), pre-loaded
    /// with every history a previous process left there. A history
    /// whose manifest is corrupt, or that references a missing or
    /// corrupt chunk, is skipped, not fatal: losing a version tree
    /// degrades DeltaV, it must not take the data store down. Chunk
    /// files nothing references any more are deleted on load.
    pub fn persistent(dir: impl Into<PathBuf>) -> std::io::Result<VersionStore> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("chunks"))?;
        fs::create_dir_all(dir.join("meta"))?;

        // Pass 1: decode every manifest.
        let mut histories: HashMap<String, History> = HashMap::new();
        for entry in fs::read_dir(dir.join("meta"))? {
            let Ok(entry) = entry else { continue };
            if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                continue;
            }
            let Ok(bytes) = fs::read(entry.path()) else {
                continue;
            };
            if let Some((path, history)) = decode_history(&bytes) {
                histories.insert(path, history);
            } else {
                eprintln!(
                    "pse-dav: skipping corrupt version manifest {:?}",
                    entry.path()
                );
            }
        }

        // Pass 2: load every referenced chunk, verifying its hash.
        let mut needed: HashSet<ChunkId> = HashSet::new();
        for h in histories.values() {
            for v in &h.versions {
                needed.extend(v.chunks.iter().copied());
            }
        }
        let mut loaded: HashMap<ChunkId, Vec<u8>> = HashMap::new();
        let mut bad: HashSet<ChunkId> = HashSet::new();
        for id in &needed {
            let file = dir.join("chunks").join(chunk_filename(*id));
            match fs::read(&file) {
                Ok(data) if pse_cache::fnv1a_64(&data) == id.hash => {
                    loaded.insert(*id, data);
                }
                _ => {
                    bad.insert(*id);
                }
            }
        }

        // Pass 3: drop histories that reference unreadable chunks, then
        // rebuild refcounts from the survivors.
        if !bad.is_empty() {
            histories.retain(|path, h| {
                let ok = h
                    .versions
                    .iter()
                    .all(|v| v.chunks.iter().all(|id| !bad.contains(id)));
                if !ok {
                    eprintln!("pse-dav: dropping version history of {path}: missing chunks");
                    let _ = fs::remove_file(dir.join("meta").join(escape_history_filename(path)));
                }
                ok
            });
        }
        let mut refs: HashMap<ChunkId, u64> = HashMap::new();
        for h in histories.values() {
            for v in &h.versions {
                for id in &v.chunks {
                    *refs.entry(*id).or_default() += 1;
                }
            }
        }
        let mut chunks: HashMap<u64, Vec<Bucket>> = HashMap::new();
        for (id, count) in &refs {
            let vec = chunks.entry(id.hash).or_default();
            while vec.len() <= id.bucket as usize {
                vec.push(Bucket {
                    data: None,
                    refs: 0,
                });
            }
            let slot = &mut vec[id.bucket as usize];
            slot.data = loaded.remove(id);
            slot.refs = *count;
        }

        // Pass 4: orphaned chunk files (no surviving reference) go.
        if let Ok(entries) = fs::read_dir(dir.join("chunks")) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let referenced = name
                    .to_str()
                    .and_then(parse_chunk_filename)
                    .is_some_and(|id| refs.contains_key(&id));
                if !referenced {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }

        let store = VersionStore::new();
        *store.inner.lock() = Inner { histories, chunks };
        Ok(VersionStore {
            dir: Some(dir),
            ..store
        })
    }

    // ---- configuration & wiring ----

    /// Auto-version-on-PUT mode (default true). In manual mode a PUT
    /// against a checked-in versioned resource answers 409 until a
    /// `CHECKOUT`. In a replicated deployment the mode must match on
    /// every node — replicas replay the primary's decisions.
    pub fn set_auto_version(&self, on: bool) {
        self.auto_version.store(on, Ordering::Relaxed);
    }

    /// Is auto-version-on-PUT active?
    pub fn auto_version(&self) -> bool {
        self.auto_version.load(Ordering::Relaxed)
    }

    // ---- queries ----

    /// Is `path` under version control?
    pub fn is_versioned(&self, path: &str) -> bool {
        self.inner.lock().histories.contains_key(path)
    }

    /// Number of stored versions for `path`.
    pub fn version_count(&self, path: &str) -> usize {
        self.inner
            .lock()
            .histories
            .get(path)
            .map_or(0, |h| h.versions.len())
    }

    /// Is `path` currently checked out?
    pub fn is_checked_out(&self, path: &str) -> bool {
        self.inner
            .lock()
            .histories
            .get(path)
            .is_some_and(|h| h.checked_out)
    }

    /// Version metadata for `path` (None when not versioned), plus the
    /// checked-out flag.
    pub fn versions_of(&self, path: &str) -> Option<(Vec<VersionMeta>, bool)> {
        let inner = self.inner.lock();
        let h = inner.histories.get(path)?;
        Some((
            h.versions.iter().map(VersionRec::meta).collect(),
            h.checked_out,
        ))
    }

    /// Every path that has a history, sorted.
    pub fn versioned_paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = self.inner.lock().histories.keys().cloned().collect();
        paths.sort_unstable();
        paths
    }

    /// `path`'s whole history with every body, as
    /// [`install`](Self::install) takes it (None when not versioned).
    pub fn history_image(&self, path: &str) -> Option<HistoryImage> {
        let inner = self.inner.lock();
        let h = inner.histories.get(path)?;
        Some(HistoryImage {
            versions: h
                .versions
                .iter()
                .map(|v| (v.meta(), inner.assemble(v)))
                .collect(),
            checked_out: h.checked_out,
        })
    }

    /// Metadata of one version.
    pub fn version_meta(&self, path: &str, number: u32) -> Option<VersionMeta> {
        let inner = self.inner.lock();
        let h = inner.histories.get(path)?;
        h.versions
            .iter()
            .find(|v| v.number == number)
            .map(VersionRec::meta)
    }

    /// The body of one stored version, reassembled from its chunks.
    /// Versions are immutable, so this needs no path plan — the chunk
    /// table is read atomically under the store mutex.
    pub fn version_body(&self, path: &str, number: u32) -> Result<Vec<u8>> {
        let inner = self.inner.lock();
        let h = inner
            .histories
            .get(path)
            .ok_or_else(|| DavError::NotFound(format!("{path} is not versioned")))?;
        let v = h
            .versions
            .iter()
            .find(|v| v.number == number)
            .ok_or_else(|| DavError::NotFound(format!("{path} version {number}")))?;
        Ok(inner.assemble(v))
    }

    /// Resolve a `/.well-known/history/...` target against the current
    /// set of histories. A versioned path wins over a trailing version
    /// number (for `/a/1` under version control, `…/history/a/1` is its
    /// index, not version 1 of `/a`).
    pub fn parse_history_target<'a>(&self, target: &'a str) -> Option<HistoryTarget<'a>> {
        let rest = target.strip_prefix(HISTORY_PREFIX)?;
        if !rest.starts_with('/') {
            return None;
        }
        if self.is_versioned(rest) {
            return Some(HistoryTarget::Index(rest));
        }
        let (head, tail) = rest.rsplit_once('/')?;
        let number: u32 = tail.parse().ok()?;
        if !head.is_empty() && self.is_versioned(head) {
            Some(HistoryTarget::Version(head, number))
        } else {
            None
        }
    }

    /// Aggregate statistics (chunk accounting counts live chunks only).
    pub fn stats(&self) -> VersionStats {
        let inner = self.inner.lock();
        let mut s = VersionStats {
            resources: inner.histories.len() as u64,
            ..VersionStats::default()
        };
        for h in inner.histories.values() {
            s.versions += h.versions.len() as u64;
            s.logical_bytes += h.versions.iter().map(|v| v.len).sum::<u64>();
            s.checked_out += u64::from(h.checked_out);
        }
        for vec in inner.chunks.values() {
            for b in vec {
                if b.refs > 0 {
                    s.chunks += 1;
                    s.chunk_bytes += b.data.as_ref().map_or(0, |d| d.len() as u64);
                }
            }
        }
        s
    }

    /// May a PUT proceed against `path`? 409 when the resource is
    /// version-controlled, auto-versioning is off, and it is not
    /// checked out (RFC 3253 §3.10: a checked-in version-controlled
    /// resource refuses content mutation).
    pub(crate) fn check_put_allowed(&self, path: &str) -> Result<()> {
        if self.auto_version() {
            return Ok(());
        }
        let inner = self.inner.lock();
        if let Some(h) = inner.histories.get(path) {
            if !h.checked_out {
                return Err(DavError::Conflict(format!(
                    "{path} is checked in; CHECKOUT before modifying"
                )));
            }
        }
        Ok(())
    }

    /// Count one revert (COPY from a version URL) for the metrics.
    pub fn note_revert(&self) {
        self.reverts.fetch_add(1, Ordering::Relaxed);
    }

    // ---- mutations: called by `Repo` under the path's write plan ----

    /// Start `path`'s history with `content` as version 1.
    pub(crate) fn start(&self, path: &str, content: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.histories.insert(path.to_owned(), History::default());
        let pushed = self.push_version(&mut inner, path, content);
        if pushed.is_err() {
            inner.histories.remove(path);
        }
        pushed.map(drop)
    }

    /// Suspend auto-versioning of `path` until [`checkin`](Self::checkin).
    pub(crate) fn checkout(&self, path: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        let h = inner
            .histories
            .get_mut(path)
            .ok_or_else(|| DavError::Conflict(format!("{path} is not under version control")))?;
        if h.checked_out {
            return Err(DavError::Conflict(format!("{path} is already checked out")));
        }
        h.checked_out = true;
        self.write_through(&mut inner, path, |inner| {
            inner.histories.get_mut(path).expect("present").checked_out = false;
        })?;
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Record `content` as one new version of the checked-out `path`
    /// (even when unchanged: the revision marks a user decision) and
    /// resume auto-versioning. Returns the new version's number.
    pub(crate) fn checkin(&self, path: &str, content: &[u8]) -> Result<u32> {
        let mut inner = self.inner.lock();
        let h = inner
            .histories
            .get(path)
            .ok_or_else(|| DavError::Conflict(format!("{path} is not under version control")))?;
        if !h.checked_out {
            return Err(DavError::Conflict(format!("{path} is not checked out")));
        }
        let number = self.push_version(&mut inner, path, content)?;
        self.checkins.fetch_add(1, Ordering::Relaxed);
        Ok(number)
    }

    /// Record the body just written to `path` as its newest version.
    /// No-op unless the path is versioned, auto-versioning is on, and
    /// the resource is not checked out (CHECKIN will capture the final
    /// state); identical content is not duplicated.
    pub(crate) fn record_put(&self, path: &str, content: &[u8]) -> Result<()> {
        if !self.auto_version() {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        let Some(h) = inner.histories.get(path) else {
            return Ok(());
        };
        let unchanged = h
            .versions
            .last()
            .is_some_and(|v| v.len == content.len() as u64 && inner.assemble(v) == content);
        if h.checked_out || unchanged {
            return Ok(());
        }
        self.push_version(&mut inner, path, content).map(drop)
    }

    /// History follows MOVE: re-home the history at `src`, and every
    /// history under `src/` (the members of a moved collection), at the
    /// matching path under `dst`. A history each one lands on is
    /// replaced. A failed manifest write puts every history back.
    pub(crate) fn rename(&self, src: &str, dst: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        let members = format!("{src}/");
        let moves: Vec<(String, String)> = inner
            .histories
            .keys()
            .filter(|k| *k == src || k.starts_with(&members))
            .map(|k| (k.clone(), format!("{dst}{}", &k[src.len()..])))
            .collect();
        // Sources lie under `src` and targets under `dst`, which do not
        // overlap, so no move displaces another's source.
        let mut displaced = Vec::with_capacity(moves.len());
        for (from, to) in &moves {
            let h = inner.histories.remove(from).expect("listed above");
            displaced.push(inner.histories.insert(to.clone(), h));
        }
        for (written, (_, to)) in moves.iter().enumerate() {
            if let Err(e) = self.persist(&inner, to) {
                for ((from, to), old) in moves.iter().zip(&displaced) {
                    let h = inner.histories.remove(to).expect("moved above");
                    inner.histories.insert(from.clone(), h);
                    if let Some(old) = old {
                        inner.histories.insert(to.clone(), old.clone());
                    }
                }
                // Best effort: the manifests already written go back to
                // what memory holds again.
                for (_, to) in &moves[..written] {
                    let _ = self.persist_or_remove(&inner, to);
                }
                return Err(e.into());
            }
        }
        for id in displaced
            .iter()
            .flatten()
            .flat_map(|d| &d.versions)
            .flat_map(|v| &v.chunks)
        {
            inner.release_chunk(*id);
        }
        for (from, _) in &moves {
            self.persist_or_remove(&inner, from)?;
        }
        Ok(())
    }

    /// Replace `path`'s history with `image`, or drop it (`None`). The
    /// versions keep the image's numbers and creation times. A failed
    /// chunk or manifest write leaves the old history in place.
    pub(crate) fn install(&self, path: &str, image: Option<&HistoryImage>) -> Result<()> {
        if let Some(image) = image {
            let ascending = image
                .versions
                .windows(2)
                .all(|w| w[0].0.number < w[1].0.number);
            if image.versions.is_empty() || !ascending {
                return Err(DavError::BadRequest(format!(
                    "history image of {path} needs ascending version numbers"
                )));
            }
        }
        let mut inner = self.inner.lock();
        let mut versions: Vec<VersionRec> = Vec::new();
        let release = |inner: &mut Inner, versions: &[VersionRec]| {
            for id in versions.iter().flat_map(|v| &v.chunks) {
                inner.release_chunk(*id);
            }
        };
        for (meta, body) in image.map_or(&[][..], |i| &i.versions[..]) {
            match self.store_version(&mut inner, meta.number, body) {
                Ok(rec) => versions.push(VersionRec {
                    created: meta.created,
                    ..rec
                }),
                Err(e) => {
                    release(&mut inner, &versions);
                    return Err(e);
                }
            }
        }
        let old = match image {
            Some(image) => inner.histories.insert(
                path.to_owned(),
                History {
                    versions,
                    checked_out: image.checked_out,
                },
            ),
            None => inner.histories.remove(path),
        };
        if let Err(e) = self.persist_or_remove(&inner, path) {
            let new = match old {
                Some(old) => inner.histories.insert(path.to_owned(), old),
                None => inner.histories.remove(path),
            };
            release(
                &mut inner,
                new.as_ref().map_or(&[][..], |h| &h.versions[..]),
            );
            return Err(e.into());
        }
        for id in old.iter().flat_map(|h| &h.versions).flat_map(|v| &v.chunks) {
            if inner.release_chunk(*id).is_some() {
                if let Some(dir) = &self.dir {
                    let _ = fs::remove_file(dir.join("chunks").join(chunk_filename(*id)));
                }
            }
        }
        Ok(())
    }

    /// Append `content` as `path`'s next version, checked in. A failed
    /// write leaves the history as it was.
    fn push_version(&self, inner: &mut Inner, path: &str, content: &[u8]) -> Result<u32> {
        let h = inner
            .histories
            .get(path)
            .expect("callers check the history");
        let number = h.versions.last().map_or(1, |v| v.number + 1);
        let was_checked_out = h.checked_out;
        let rec = self.store_version(inner, number, content)?;
        let h = inner.histories.get_mut(path).expect("present");
        h.versions.push(rec);
        h.checked_out = false;
        self.write_through(inner, path, |inner| {
            let h = inner.histories.get_mut(path).expect("present");
            let rec = h.versions.pop().expect("just pushed");
            h.checked_out = was_checked_out;
            for id in &rec.chunks {
                inner.release_chunk(*id);
            }
        })?;
        self.recorded.fetch_add(1, Ordering::Relaxed);
        Ok(number)
    }

    /// Prune `path`'s history to its newest `keep` versions, releasing
    /// chunk references and deleting chunks (and their files) nothing
    /// references any more. Returns the number of versions removed.
    /// Runs under the store mutex alone: it is not a DAV method.
    pub fn prune(&self, path: &str, keep: usize) -> Result<usize> {
        let mut inner = self.inner.lock();
        let Some(h) = inner.histories.get_mut(path) else {
            return Ok(0);
        };
        let n = h.versions.len().saturating_sub(keep.max(1));
        if n == 0 {
            return Ok(0);
        }
        let removed: Vec<VersionRec> = h.versions.drain(..n).collect();
        if let Err(e) = self.persist(&inner, path) {
            let h = inner.histories.get_mut(path).expect("present");
            h.versions.splice(0..0, removed);
            return Err(e.into());
        }
        let mut freed_chunks = 0u64;
        let mut freed_bytes = 0u64;
        for v in &removed {
            for id in &v.chunks {
                if let Some(bytes) = inner.release_chunk(*id) {
                    freed_chunks += 1;
                    freed_bytes += bytes as u64;
                    if let Some(dir) = &self.dir {
                        let _ = fs::remove_file(dir.join("chunks").join(chunk_filename(*id)));
                    }
                }
            }
        }
        self.gc_chunks.fetch_add(freed_chunks, Ordering::Relaxed);
        self.gc_bytes.fetch_add(freed_bytes, Ordering::Relaxed);
        Ok(n)
    }

    /// Debug check: recompute refcounts from every manifest and compare
    /// against the live chunk table. Detects orphaned chunks (retained
    /// with no referent), prematurely-freed chunks (referenced but
    /// gone), refcount drift, and hash mismatches.
    pub fn verify_consistency(&self) -> std::result::Result<(), String> {
        let inner = self.inner.lock();
        let mut expected: HashMap<ChunkId, u64> = HashMap::new();
        for (path, h) in &inner.histories {
            for v in &h.versions {
                let mut total = 0u64;
                for id in &v.chunks {
                    *expected.entry(*id).or_default() += 1;
                    let ok = inner
                        .chunks
                        .get(&id.hash)
                        .and_then(|vec| vec.get(id.bucket as usize))
                        .and_then(|b| b.data.as_ref());
                    match ok {
                        None => {
                            return Err(format!(
                                "{path} v{}: chunk {:016x}.{} freed while referenced",
                                v.number, id.hash, id.bucket
                            ))
                        }
                        Some(data) => {
                            if pse_cache::fnv1a_64(data) != id.hash {
                                return Err(format!(
                                    "chunk {:016x}.{}: stored bytes hash differently",
                                    id.hash, id.bucket
                                ));
                            }
                            total += data.len() as u64;
                        }
                    }
                }
                if total != v.len {
                    return Err(format!(
                        "{path} v{}: chunk lengths sum to {total}, manifest says {}",
                        v.number, v.len
                    ));
                }
            }
        }
        for (hash, vec) in &inner.chunks {
            for (bucket, b) in vec.iter().enumerate() {
                let id = ChunkId {
                    hash: *hash,
                    bucket: bucket as u32,
                };
                let want = expected.get(&id).copied().unwrap_or(0);
                if b.refs != want {
                    return Err(format!(
                        "chunk {hash:016x}.{bucket}: refcount {} but {} references",
                        b.refs, want
                    ));
                }
                if b.refs == 0 && b.data.is_some() {
                    return Err(format!("chunk {hash:016x}.{bucket}: orphan retained"));
                }
            }
        }
        Ok(())
    }

    // ---- REPORT ----

    /// Handle `REPORT` (`DAV:version-tree`, `DAV:version-content`).
    /// Needs no path plan: a version is recorded whole under the store
    /// mutex, and each answer is read under it in one go.
    pub fn report(&self, repo: &dyn Repository, req: &Request) -> Result<Response> {
        let path = &pse_http::uri::normalize_path(req.target.path());
        if !repo.exists(path) {
            return Err(DavError::NotFound(path.to_owned()));
        }
        let text = std::str::from_utf8(&req.body)
            .map_err(|_| DavError::BadRequest("body is not UTF-8".into()))?;
        let doc = Document::parse(text)?;
        let root = doc.root();
        if root.is(Some(DAV_NS), "version-tree") {
            return self.version_tree_report(path);
        }
        if root.is(Some(DAV_NS), "version-content") {
            let number: u32 = root
                .child(Some(DAV_NS), "version")
                .map(|v| v.text().trim().to_owned())
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| {
                    DavError::BadRequest("version-content needs a numeric DAV:version".into())
                })?;
            let body = self.version_body(path, number).map_err(|e| match e {
                DavError::NotFound(m) if m.ends_with("not versioned") => {
                    DavError::BadRequest("resource is not versioned".into())
                }
                other => other,
            })?;
            return Ok(Response::ok()
                .with_header("Content-Type", "application/octet-stream")
                .with_header("X-Version", number.to_string())
                .with_body(body));
        }
        Err(DavError::BadRequest(
            "supported reports: DAV:version-tree, DAV:version-content".into(),
        ))
    }

    fn version_tree_report(&self, path: &str) -> Result<Response> {
        let inner = self.inner.lock();
        let mut tree = Element::new(Some(DAV_NS), "version-tree");
        if let Some(h) = inner.histories.get(path) {
            let newest = h.versions.last().map(|v| v.number);
            for v in &h.versions {
                let checked_in = !h.checked_out && newest == Some(v.number);
                tree.push_elem(version_element(path, &v.meta(), checked_in));
            }
        }
        let xml = Writer::new().write_document(&Document::with_root(tree));
        Ok(Response::new(StatusCode::OK).with_xml_body(xml))
    }

    // ---- persistence ----

    /// Write `path`'s manifest through; when that fails, `undo` the
    /// in-memory change so memory never holds what the disk lacks.
    fn write_through(
        &self,
        inner: &mut Inner,
        path: &str,
        undo: impl FnOnce(&mut Inner),
    ) -> Result<()> {
        self.persist(inner, path).map_err(|e| {
            undo(inner);
            e.into()
        })
    }

    /// Write `path`'s manifest through to disk (no-op for memory-only
    /// stores). Called with the store mutex held, so persisted state
    /// never interleaves between two concurrent mutations.
    fn persist(&self, inner: &Inner, path: &str) -> std::io::Result<()> {
        let (Some(dir), Some(h)) = (&self.dir, inner.histories.get(path)) else {
            return Ok(());
        };
        let name = escape_history_filename(path);
        write_file(&dir.join("meta"), &name, &encode_history(path, h))
    }

    /// Write `path`'s manifest, or remove it when `path` has no history.
    fn persist_or_remove(&self, inner: &Inner, path: &str) -> std::io::Result<()> {
        match &self.dir {
            Some(dir) if !inner.histories.contains_key(path) => {
                match fs::remove_file(dir.join("meta").join(escape_history_filename(path))) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
                    _ => Ok(()),
                }
            }
            _ => self.persist(inner, path),
        }
    }

    /// Chunk `content`, intern every chunk (bumping refcounts), and
    /// write freshly-stored chunk files through to disk. A failed write
    /// releases the references taken so far.
    fn store_version(&self, inner: &mut Inner, number: u32, content: &[u8]) -> Result<VersionRec> {
        let mut ids = Vec::new();
        for c in cdc::chunk(content, ChunkParams::default()) {
            let bytes = &content[c.offset..c.offset + c.len];
            let (id, fresh) = inner.intern_chunk(c.hash, bytes);
            ids.push(id);
            let written = match (&self.dir, fresh) {
                (Some(dir), true) => write_file(&dir.join("chunks"), &chunk_filename(id), bytes),
                _ => Ok(()),
            };
            if let Err(e) = written {
                for id in &ids {
                    inner.release_chunk(*id);
                }
                return Err(e.into());
            }
        }
        Ok(VersionRec {
            number,
            created: now_secs(),
            len: content.len() as u64,
            chunks: ids,
        })
    }

    /// Contribute store gauges and counters under `prefix.*`.
    pub fn register_obs(self: &Arc<Self>, registry: &Arc<pse_obs::Registry>, prefix: &str) {
        let weak: Weak<Self> = Arc::downgrade(self);
        let prefix = prefix.to_string();
        registry.register_source(&prefix.clone(), move |snap| {
            let Some(store) = weak.upgrade() else { return };
            let s = store.stats();
            snap.set_gauge(&format!("{prefix}.resources"), s.resources as i64);
            snap.set_gauge(&format!("{prefix}.versions"), s.versions as i64);
            snap.set_gauge(&format!("{prefix}.chunks"), s.chunks as i64);
            snap.set_gauge(&format!("{prefix}.chunk_bytes"), s.chunk_bytes as i64);
            snap.set_gauge(&format!("{prefix}.logical_bytes"), s.logical_bytes as i64);
            snap.set_gauge(&format!("{prefix}.checked_out"), s.checked_out as i64);
            snap.set_counter(
                &format!("{prefix}.checkouts"),
                store.checkouts.load(Ordering::Relaxed),
            );
            snap.set_counter(
                &format!("{prefix}.checkins"),
                store.checkins.load(Ordering::Relaxed),
            );
            snap.set_counter(
                &format!("{prefix}.reverts"),
                store.reverts.load(Ordering::Relaxed),
            );
            snap.set_counter(
                &format!("{prefix}.versions_recorded"),
                store.recorded.load(Ordering::Relaxed),
            );
            snap.set_counter(
                &format!("{prefix}.gc_chunks_freed"),
                store.gc_chunks.load(Ordering::Relaxed),
            );
            snap.set_counter(
                &format!("{prefix}.gc_bytes_freed"),
                store.gc_bytes.load(Ordering::Relaxed),
            );
        });
    }
}

/// Build the `<D:version>` element shared by REPORT and history
/// PROPFIND: name, creation date, length, checked-in flag, and the
/// version's history URL.
fn version_element(path: &str, v: &VersionMeta, checked_in: bool) -> Element {
    let created = UNIX_EPOCH + std::time::Duration::from_secs(v.created);
    let mut ve = Element::new(Some(DAV_NS), "version");
    let mut e = Element::new(Some(DAV_NS), "version-name");
    e.push_text(v.number.to_string());
    ve.push_elem(e);
    let mut e = Element::new(Some(DAV_NS), "creationdate");
    e.push_text(format_iso8601(created));
    ve.push_elem(e);
    let mut e = Element::new(Some(DAV_NS), "getcontentlength");
    e.push_text(v.len.to_string());
    ve.push_elem(e);
    let mut e = Element::new(Some(DAV_NS), "checked-in");
    e.push_text(if checked_in { "true" } else { "false" });
    ve.push_elem(e);
    let mut e = Element::new(Some(DAV_NS), "href");
    e.push_text(history_url(path, v.number));
    ve.push_elem(e);
    ve
}

impl Inner {
    /// Insert (or re-reference) one chunk; true when newly stored.
    fn intern_chunk(&mut self, hash: u64, bytes: &[u8]) -> (ChunkId, bool) {
        let vec = self.chunks.entry(hash).or_default();
        let mut tombstone = None;
        for (i, b) in vec.iter_mut().enumerate() {
            if b.refs > 0 {
                if b.data.as_deref() == Some(bytes) {
                    b.refs += 1;
                    return (
                        ChunkId {
                            hash,
                            bucket: i as u32,
                        },
                        false,
                    );
                }
            } else if tombstone.is_none() {
                tombstone = Some(i);
            }
        }
        let bucket = match tombstone {
            Some(i) => {
                vec[i] = Bucket {
                    data: Some(bytes.to_vec()),
                    refs: 1,
                };
                i
            }
            None => {
                vec.push(Bucket {
                    data: Some(bytes.to_vec()),
                    refs: 1,
                });
                vec.len() - 1
            }
        };
        (
            ChunkId {
                hash,
                bucket: bucket as u32,
            },
            true,
        )
    }

    /// Drop one reference; Some(len) when the chunk was freed.
    fn release_chunk(&mut self, id: ChunkId) -> Option<usize> {
        let b = self
            .chunks
            .get_mut(&id.hash)
            .and_then(|v| v.get_mut(id.bucket as usize))?;
        b.refs = b.refs.saturating_sub(1);
        if b.refs == 0 {
            b.data.take().map(|d| d.len())
        } else {
            None
        }
    }

    fn assemble(&self, v: &VersionRec) -> Vec<u8> {
        let mut out = Vec::with_capacity(v.len as usize);
        for id in &v.chunks {
            if let Some(data) = self
                .chunks
                .get(&id.hash)
                .and_then(|vec| vec.get(id.bucket as usize))
                .and_then(|b| b.data.as_ref())
            {
                out.extend_from_slice(data);
            }
        }
        out
    }
}

/// Write `data` to `dir/name` durably: a synced temporary file renamed
/// over the target, so a crash leaves the old file or the new one.
fn write_file(dir: &std::path::Path, name: &str, data: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = fs::File::create(&tmp)?;
    f.write_all(data)?;
    f.sync_data()?;
    fs::rename(&tmp, dir.join(name))
}

/// One manifest file per resource, named by escaping the resource path
/// (`[A-Za-z0-9._-]` kept, every other byte `%XX`-encoded) so distinct
/// paths always map to distinct filenames.
fn escape_history_filename(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for b in path.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn chunk_filename(id: ChunkId) -> String {
    format!("{:016x}.{}", id.hash, id.bucket)
}

fn parse_chunk_filename(name: &str) -> Option<ChunkId> {
    let (hash, bucket) = name.split_once('.')?;
    if hash.len() != 16 {
        return None;
    }
    Some(ChunkId {
        hash: u64::from_str_radix(hash, 16).ok()?,
        bucket: bucket.parse().ok()?,
    })
}

/// Manifest layout (integers LE):
/// `u32 path_len, path, u8 checked_out, u32 count,`
/// then per version `u32 number, u64 created, u64 len, u32 nchunks,`
/// then per chunk `u64 hash, u32 bucket`.
fn encode_history(path: &str, h: &History) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(path.len() as u32).to_le_bytes());
    out.extend_from_slice(path.as_bytes());
    out.push(u8::from(h.checked_out));
    out.extend_from_slice(&(h.versions.len() as u32).to_le_bytes());
    for v in &h.versions {
        out.extend_from_slice(&v.number.to_le_bytes());
        out.extend_from_slice(&v.created.to_le_bytes());
        out.extend_from_slice(&v.len.to_le_bytes());
        out.extend_from_slice(&(v.chunks.len() as u32).to_le_bytes());
        for id in &v.chunks {
            out.extend_from_slice(&id.hash.to_le_bytes());
            out.extend_from_slice(&id.bucket.to_le_bytes());
        }
    }
    out
}

fn decode_history(bytes: &[u8]) -> Option<(String, History)> {
    fn take_u32(bytes: &[u8], at: &mut usize) -> Option<u32> {
        let v = u32::from_le_bytes(bytes.get(*at..*at + 4)?.try_into().ok()?);
        *at += 4;
        Some(v)
    }
    fn take_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
        let v = u64::from_le_bytes(bytes.get(*at..*at + 8)?.try_into().ok()?);
        *at += 8;
        Some(v)
    }
    let mut at = 0usize;
    let path_len = take_u32(bytes, &mut at)? as usize;
    let path = String::from_utf8(bytes.get(at..at + path_len)?.to_vec()).ok()?;
    at += path_len;
    let checked_out = match bytes.get(at)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    at += 1;
    let count = take_u32(bytes, &mut at)? as usize;
    let mut versions = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let number = take_u32(bytes, &mut at)?;
        let created = take_u64(bytes, &mut at)?;
        let len = take_u64(bytes, &mut at)?;
        let nchunks = take_u32(bytes, &mut at)? as usize;
        let mut chunks = Vec::with_capacity(nchunks.min(4096));
        for _ in 0..nchunks {
            let hash = take_u64(bytes, &mut at)?;
            let bucket = take_u32(bytes, &mut at)?;
            chunks.push(ChunkId { hash, bucket });
        }
        versions.push(VersionRec {
            number,
            created,
            len,
            chunks,
        });
    }
    if at != bytes.len() || versions.is_empty() {
        return None; // truncated tail or trailing garbage: skip the file
    }
    Some((
        path,
        History {
            versions,
            checked_out,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memrepo::MemRepository;
    use crate::repo::Change;
    use pse_http::Method;

    fn vc(repo: &MemRepository, path: &str) {
        assert!(repo.version_control(path, None).unwrap());
    }

    fn persistent_repo(dir: &std::path::Path) -> MemRepository {
        MemRepository::new().with_version_store(VersionStore::persistent(dir).unwrap())
    }

    #[test]
    fn version_control_then_history_grows() {
        let repo = MemRepository::new();
        repo.put("/doc", b"v1", None).unwrap();
        vc(&repo, "/doc");
        let store = repo.versions();
        assert!(store.is_versioned("/doc"));
        assert_eq!(store.version_count("/doc"), 1);

        repo.put("/doc", b"v2", None).unwrap();
        repo.put("/doc", b"v3", None).unwrap();
        assert_eq!(store.version_count("/doc"), 3);
        assert_eq!(store.version_body("/doc", 1).unwrap(), b"v1");
        assert_eq!(store.version_body("/doc", 3).unwrap(), b"v3");
        store.verify_consistency().unwrap();
    }

    #[test]
    fn version_control_is_idempotent_and_rejects_collections() {
        let repo = MemRepository::new();
        repo.put("/doc", b"x", None).unwrap();
        repo.mkcol("/c").unwrap();
        vc(&repo, "/doc");
        assert!(!repo.version_control("/doc", None).unwrap());
        assert_eq!(repo.versions().version_count("/doc"), 1);
        assert!(repo.version_control("/c", None).is_err());
    }

    #[test]
    fn identical_content_not_duplicated() {
        let repo = MemRepository::new();
        repo.put("/doc", b"same", None).unwrap();
        vc(&repo, "/doc");
        repo.put("/doc", b"same", None).unwrap();
        assert_eq!(repo.versions().version_count("/doc"), 1);
    }

    #[test]
    fn checkout_suspends_auto_versioning_until_checkin() {
        let repo = MemRepository::new();
        repo.put("/doc", b"base", None).unwrap();
        vc(&repo, "/doc");
        let store = repo.versions();

        repo.checkout("/doc").unwrap();
        assert!(store.is_checked_out("/doc"));
        // Double checkout refused.
        assert!(repo.checkout("/doc").is_err());

        // A storm of PUTs while checked out: nothing recorded.
        for i in 0..20 {
            repo.put("/doc", format!("draft-{i}").as_bytes(), None)
                .unwrap();
        }
        assert_eq!(store.version_count("/doc"), 1);

        assert_eq!(repo.checkin("/doc", None).unwrap(), 2);
        assert_eq!(store.version_count("/doc"), 2);
        assert_eq!(store.version_body("/doc", 2).unwrap(), b"draft-19");
        assert!(!store.is_checked_out("/doc"));
        // Checkin without checkout refused.
        assert!(repo.checkin("/doc", None).is_err());
    }

    #[test]
    fn manual_mode_gates_put_until_checkout() {
        let repo = MemRepository::new();
        repo.put("/doc", b"base", None).unwrap();
        repo.versions().set_auto_version(false);
        vc(&repo, "/doc");
        let err = repo.put("/doc", b"edit", None).unwrap_err();
        assert_eq!(err.status().code(), 409);
        assert_eq!(repo.get("/doc").unwrap(), b"base");
        repo.checkout("/doc").unwrap();
        repo.put("/doc", b"edit", None).unwrap();
        // Unversioned paths are never gated.
        repo.put("/other", b"x", None).unwrap();
        // Nor is a deleted document: a PUT may recreate it.
        repo.checkin("/doc", None).unwrap();
        repo.delete("/doc").unwrap();
        repo.put("/doc", b"recreated", None).unwrap();
    }

    #[test]
    fn version_tree_and_content_reports() {
        let repo = MemRepository::new();
        repo.put("/doc", b"first", None).unwrap();
        vc(&repo, "/doc");
        repo.put("/doc", b"second-longer", None).unwrap();
        let store = repo.versions();

        let req = Request::new(Method::Report, "/doc")
            .with_xml_body(r#"<D:version-tree xmlns:D="DAV:"/>"#);
        let resp = store.report(&repo, &req).unwrap();
        let text = resp.body_text();
        let doc = Document::parse(&text).unwrap();
        let versions: Vec<_> = doc.root().children_named(Some(DAV_NS), "version").collect();
        assert_eq!(versions.len(), 2);
        // Newest (and only newest) is checked in; every entry carries a
        // creation date and its history URL.
        let flags: Vec<String> = versions
            .iter()
            .map(|v| v.child(Some(DAV_NS), "checked-in").unwrap().text())
            .collect();
        assert_eq!(flags, ["false", "true"]);
        assert!(versions[0].child(Some(DAV_NS), "creationdate").is_some());
        assert_eq!(
            versions[1].child(Some(DAV_NS), "href").unwrap().text(),
            "/.well-known/history/doc/2"
        );

        let req = Request::new(Method::Report, "/doc").with_xml_body(
            r#"<D:version-content xmlns:D="DAV:"><D:version>1</D:version></D:version-content>"#,
        );
        assert_eq!(store.report(&repo, &req).unwrap().body, b"first");
        let req = Request::new(Method::Report, "/doc").with_xml_body(
            r#"<D:version-content xmlns:D="DAV:"><D:version>9</D:version></D:version-content>"#,
        );
        assert!(store.report(&repo, &req).is_err());
    }

    #[test]
    fn unversioned_resource_has_empty_tree() {
        let repo = MemRepository::new();
        repo.put("/plain", b"", None).unwrap();
        let store = repo.versions();
        let req = Request::new(Method::Report, "/plain")
            .with_xml_body(r#"<D:version-tree xmlns:D="DAV:"/>"#);
        let resp = store.report(&repo, &req).unwrap();
        let doc = Document::parse(&resp.body_text()).unwrap();
        assert_eq!(doc.root().children_elems().count(), 0);
    }

    #[test]
    fn history_target_parsing() {
        let repo = MemRepository::new();
        repo.mkcol("/a").unwrap();
        repo.put("/a/1", b"x", None).unwrap();
        repo.put("/b", b"y", None).unwrap();
        vc(&repo, "/a/1");
        vc(&repo, "/b");
        let store = repo.versions();
        assert_eq!(
            store.parse_history_target("/.well-known/history/b"),
            Some(HistoryTarget::Index("/b"))
        );
        assert_eq!(
            store.parse_history_target("/.well-known/history/b/1"),
            Some(HistoryTarget::Version("/b", 1))
        );
        // A versioned path wins over a trailing version number.
        assert_eq!(
            store.parse_history_target("/.well-known/history/a/1"),
            Some(HistoryTarget::Index("/a/1"))
        );
        assert_eq!(
            store.parse_history_target("/.well-known/history/a/1/3"),
            Some(HistoryTarget::Version("/a/1", 3))
        );
        assert_eq!(
            store.parse_history_target("/.well-known/history/nope"),
            None
        );
        assert_eq!(store.parse_history_target("/other"), None);
    }

    #[test]
    fn small_edits_share_chunks() {
        let repo = MemRepository::new();
        let mut body = vec![0u8; 512 * 1024];
        let mut state = 1u64;
        for b in body.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 33) as u8;
        }
        repo.put("/big", &body, None).unwrap();
        vc(&repo, "/big");
        for i in 0..10 {
            // ~1% edit at a moving offset.
            let at = (i * 37) % (body.len() - 16);
            body[at..at + 16].copy_from_slice(&[i as u8; 16]);
            repo.put("/big", &body, None).unwrap();
        }
        let store = repo.versions();
        let s = store.stats();
        assert_eq!(s.versions, 11);
        // Physical bytes must be far below the 11 full snapshots.
        assert!(
            s.chunk_bytes * 3 < s.logical_bytes,
            "chunk_bytes {} logical {}",
            s.chunk_bytes,
            s.logical_bytes
        );
        store.verify_consistency().unwrap();
    }

    #[test]
    fn prune_releases_chunks_and_stays_consistent() {
        let repo = MemRepository::new();
        repo.put("/doc", b"v1", None).unwrap();
        vc(&repo, "/doc");
        for i in 0..5 {
            repo.put("/doc", format!("version-number-{i}").as_bytes(), None)
                .unwrap();
        }
        let store = repo.versions();
        assert_eq!(store.version_count("/doc"), 6);
        let removed = store.prune("/doc", 2).unwrap();
        assert_eq!(removed, 4);
        assert_eq!(store.version_count("/doc"), 2);
        // Numbers are preserved for the survivors.
        let (metas, _) = store.versions_of("/doc").unwrap();
        assert_eq!(metas.iter().map(|m| m.number).collect::<Vec<_>>(), [5, 6]);
        assert!(store.version_body("/doc", 1).is_err());
        assert_eq!(store.version_body("/doc", 6).unwrap(), b"version-number-4");
        store.verify_consistency().unwrap();
        // Pruning to a floor of >= current count is a no-op.
        assert_eq!(store.prune("/doc", 10).unwrap(), 0);
    }

    #[test]
    fn rename_rehomes_history() {
        let repo = MemRepository::new();
        repo.put("/old", b"v1", None).unwrap();
        vc(&repo, "/old");
        repo.put("/old", b"v2", None).unwrap();
        repo.rename("/old", "/new", false).unwrap();
        let store = repo.versions();
        assert!(!store.is_versioned("/old"));
        assert_eq!(store.version_count("/new"), 2);
        assert_eq!(store.version_body("/new", 1).unwrap(), b"v1");
        // Moved over another versioned document, the history replaces
        // that one's and releases its chunks.
        repo.put("/other", b"other body", None).unwrap();
        vc(&repo, "/other");
        repo.rename("/new", "/other", true).unwrap();
        assert_eq!(store.version_body("/other", 2).unwrap(), b"v2");
        store.verify_consistency().unwrap();

        // A moved collection carries its members' histories, nested
        // ones too; a sibling whose name shares the prefix stays put.
        repo.mkcol("/proj").unwrap();
        repo.mkcol("/proj/run").unwrap();
        repo.put("/proj/a", b"a1", None).unwrap();
        vc(&repo, "/proj/a");
        repo.put("/proj/a", b"a2", None).unwrap();
        repo.put("/proj/run/out", b"o1", None).unwrap();
        vc(&repo, "/proj/run/out");
        repo.put("/proj-x", b"x1", None).unwrap();
        vc(&repo, "/proj-x");
        repo.rename("/proj", "/moved", false).unwrap();
        assert_eq!(
            store.versioned_paths(),
            ["/moved/a", "/moved/run/out", "/other", "/proj-x"]
        );
        assert_eq!(store.version_body("/moved/a", 2).unwrap(), b"a2");
        assert_eq!(store.version_body("/moved/run/out", 1).unwrap(), b"o1");
        store.verify_consistency().unwrap();
    }

    #[test]
    fn collection_move_rehomes_persisted_histories() {
        let dir = temp_dir("move-collection");
        {
            let repo = persistent_repo(&dir);
            repo.mkcol("/c").unwrap();
            repo.put("/c/doc", b"one", None).unwrap();
            vc(&repo, "/c/doc");
            repo.put("/c/doc", b"two", None).unwrap();
            repo.rename("/c", "/d", false).unwrap();
        }
        let repo = persistent_repo(&dir);
        let store = repo.versions();
        assert_eq!(store.versioned_paths(), ["/d/doc"]);
        assert_eq!(store.version_body("/d/doc", 2).unwrap(), b"two");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_replaces_drops_and_round_trips_histories() {
        let dir = temp_dir("install");
        let source = MemRepository::new();
        source.put("/doc", b"first", None).unwrap();
        vc(&source, "/doc");
        source.put("/doc", b"second", None).unwrap();
        source.checkout("/doc").unwrap();
        let image = source.versions().history_image("/doc").unwrap();
        assert!(image.checked_out);
        assert_eq!(image.versions.len(), 2);

        {
            let repo = persistent_repo(&dir);
            // A stale local history is replaced whole, numbers, creation
            // times and checkout state included.
            repo.put("/doc", b"stale", None).unwrap();
            vc(&repo, "/doc");
            repo.put("/gone", b"g", None).unwrap();
            vc(&repo, "/gone");
            repo.install_history("/doc", Some(&image)).unwrap();
            repo.install_history("/gone", None).unwrap();
            assert_eq!(repo.versions().history_image("/doc").unwrap(), image);
            assert!(!repo.versions().is_versioned("/gone"));
            repo.versions().verify_consistency().unwrap();
        }
        // And it survives a restart.
        let repo = persistent_repo(&dir);
        assert_eq!(repo.versions().versioned_paths(), ["/doc"]);
        assert_eq!(repo.versions().history_image("/doc").unwrap(), image);
        repo.versions().verify_consistency().unwrap();

        // Malformed images are refused; a logged repository refuses all.
        let empty = HistoryImage {
            versions: Vec::new(),
            checked_out: false,
        };
        assert!(matches!(
            repo.install_history("/doc", Some(&empty)),
            Err(DavError::BadRequest(_))
        ));
        source.set_commit_hook(|_| Ok(()));
        assert!(matches!(
            source.install_history("/doc", None),
            Err(DavError::Conflict(_))
        ));
        assert!(source.versions().is_versioned("/doc"));
        let _ = fs::remove_dir_all(&dir);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pse-versions-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn histories_survive_a_restart() {
        let dir = temp_dir("restart");
        {
            let repo = persistent_repo(&dir);
            repo.mkcol("/proj").unwrap();
            repo.put("/proj/calc output.log", b"v1", None).unwrap();
            vc(&repo, "/proj/calc output.log");
            repo.put("/proj/calc output.log", b"v2-longer", None)
                .unwrap();
            repo.checkout("/proj/calc output.log").unwrap();
        }
        // A fresh store (new process, same directory) sees the history
        // including the checked-out flag.
        let store = VersionStore::persistent(&dir).unwrap();
        assert!(store.is_versioned("/proj/calc output.log"));
        assert!(store.is_checked_out("/proj/calc output.log"));
        assert_eq!(store.version_count("/proj/calc output.log"), 2);
        assert_eq!(
            store.version_body("/proj/calc output.log", 1).unwrap(),
            b"v1"
        );
        store.verify_consistency().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifests_and_missing_chunks_are_skipped_on_load() {
        let dir = temp_dir("corrupt");
        {
            let repo = persistent_repo(&dir);
            repo.put("/good", b"ok", None).unwrap();
            repo.put("/maimed", b"will lose its chunk", None).unwrap();
            vc(&repo, "/good");
            vc(&repo, "/maimed");
        }
        fs::write(dir.join("meta").join("%2Fbad"), b"\xFF\xFF not a manifest").unwrap();
        // Destroy /maimed's only chunk.
        let maimed = decode_history(
            &fs::read(dir.join("meta").join(escape_history_filename("/maimed"))).unwrap(),
        )
        .unwrap()
        .1;
        let id = maimed.versions[0].chunks[0];
        fs::remove_file(dir.join("chunks").join(chunk_filename(id))).unwrap();

        let store = VersionStore::persistent(&dir).unwrap();
        assert!(store.is_versioned("/good"));
        assert!(!store.is_versioned("/bad"));
        assert!(!store.is_versioned("/maimed"));
        assert_eq!(store.version_body("/good", 1).unwrap(), b"ok");
        store.verify_consistency().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_deletes_chunk_files_and_restart_gc_removes_orphans() {
        let dir = temp_dir("gc");
        let repo = persistent_repo(&dir);
        repo.put("/doc", b"aaaa", None).unwrap();
        vc(&repo, "/doc");
        repo.put("/doc", b"bbbb-different", None).unwrap();
        let files_before = fs::read_dir(dir.join("chunks")).unwrap().count();
        assert!(files_before >= 2);
        repo.versions().prune("/doc", 1).unwrap();
        let files_after = fs::read_dir(dir.join("chunks")).unwrap().count();
        assert!(files_after < files_before);
        // Plant an orphan chunk file: a restart collects it.
        fs::write(dir.join("chunks").join("deadbeefdeadbeef.0"), b"junk").unwrap();
        let store = VersionStore::persistent(&dir).unwrap();
        assert!(!dir.join("chunks").join("deadbeefdeadbeef.0").exists());
        store.verify_consistency().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_roundtrip_and_filename_escaping() {
        let h = History {
            versions: vec![
                VersionRec {
                    number: 1,
                    created: 1_700_000_000,
                    len: 1,
                    chunks: vec![ChunkId { hash: 7, bucket: 0 }],
                },
                VersionRec {
                    number: 2,
                    created: 1_700_000_100,
                    len: 4,
                    chunks: vec![
                        ChunkId { hash: 7, bucket: 0 },
                        ChunkId {
                            hash: u64::MAX,
                            bucket: 3,
                        },
                    ],
                },
            ],
            checked_out: true,
        };
        let bytes = encode_history("/x/y z", &h);
        let (path, back) = decode_history(&bytes).unwrap();
        assert_eq!(path, "/x/y z");
        assert!(back.checked_out);
        assert_eq!(back.versions.len(), 2);
        assert_eq!(back.versions[1].chunks.len(), 2);
        // Truncation at any boundary is rejected, not mis-parsed.
        for cut in 0..bytes.len() {
            assert!(decode_history(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let a = escape_history_filename("/a/b");
        let b = escape_history_filename("/a%2Fb");
        assert_ne!(a, b);
        assert!(!a.contains('/'), "{a}");
        // Chunk filenames round-trip.
        let id = ChunkId {
            hash: 0x0123456789abcdef,
            bucket: 42,
        };
        assert_eq!(parse_chunk_filename(&chunk_filename(id)), Some(id));
    }

    #[test]
    fn colliding_hashes_get_distinct_buckets() {
        let store = VersionStore::new();
        let mut inner = store.inner.lock();
        let (a, fresh_a) = inner.intern_chunk(99, b"first body");
        let (b, fresh_b) = inner.intern_chunk(99, b"other body");
        let (a2, fresh_a2) = inner.intern_chunk(99, b"first body");
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!(a, a2);
        assert_ne!(a.bucket, b.bucket);
        assert_eq!(inner.chunks.get(&99).unwrap().len(), 2);
        // Free `a` (both refs) and the slot becomes a reusable tombstone.
        assert!(inner.release_chunk(a).is_none());
        assert!(inner.release_chunk(a).is_some());
        let (c, fresh_c) = inner.intern_chunk(99, b"third body");
        assert!(fresh_c);
        assert_eq!(c.bucket, a.bucket, "tombstone slot re-used");
    }

    #[test]
    fn deltav_changes_reach_the_commit_hook_in_effect_order() {
        let repo = MemRepository::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        repo.set_commit_hook(move |change| {
            sink.lock().push(match change {
                Change::Put { .. } => "put",
                Change::VersionControl { .. } => "vc",
                Change::Checkout { .. } => "co",
                Change::Checkin { .. } => "ci",
                _ => "other",
            });
            Ok(())
        });
        repo.put("/doc", b"base", None).unwrap();
        vc(&repo, "/doc");
        repo.checkout("/doc").unwrap();
        repo.put("/doc", b"edited", None).unwrap();
        repo.checkin("/doc", None).unwrap();
        assert_eq!(*log.lock(), ["put", "vc", "co", "put", "ci"]);
    }

    #[test]
    fn given_content_is_recorded_as_is() {
        // A replica replays the primary's bodies: no read of its own.
        let repo = MemRepository::new();
        assert!(repo.version_control("/doc", Some(b"v1")).unwrap());
        assert!(!repo.version_control("/doc", Some(b"v1")).unwrap());
        repo.checkout("/doc").unwrap();
        assert_eq!(repo.checkin("/doc", Some(b"v2")).unwrap(), 2);
        let store = repo.versions();
        assert_eq!(store.version_body("/doc", 2).unwrap(), b"v2");
        assert!(repo.checkout("/missing").is_err());
        assert!(repo.checkin("/missing", Some(b"x")).is_err());
    }
}
