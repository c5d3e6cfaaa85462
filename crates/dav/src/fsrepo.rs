//! The mod_dav-style filesystem repository.
//!
//! "The mod_dav implementation uses file system files and directories to
//! provide persistence for data objects and collections, respectively.
//! Metadata is stored in a hash table within a database manager (DBM)
//! formatted file, one file per document or collection" (§3.2.1).
//!
//! This repository reproduces that layout exactly:
//!
//! * a document at `/a/b` is the file `<root>/a/b`;
//! * a collection at `/a` is the directory `<root>/a`;
//! * the dead properties of `/a/b` live in a DBM database at
//!   `<root>/a/.DAV/b.{pag,dir}` (SDBM) or `.db` (GDBM) — created lazily,
//!   so only resources *with* metadata pay the initial allocation (the
//!   8 KB / 25 KB floors that drive the §3.2.4 disk-usage deltas);
//! * the properties of collection `/a` live in `<root>/a/.DAV/__dir__`.
//!
//! Property databases are opened, queried, and closed per request — the
//! behaviour whose cost the paper observed ("50 separate database files
//! were opened, queried, and closed") and which alternative server-side
//! implementations were expected to improve. This implementation *is*
//! one of those improvements: a sharded in-memory property cache
//! ([`pse_cache::ShardedCache`]) holds each resource's full property
//! snapshot, so a warm depth=1 PROPFIND touches zero DBM files. Every
//! mutating operation (PUT/DELETE/MKCOL/COPY/MOVE/PROPPATCH) drops the
//! affected paths, so readers never observe stale metadata. A named
//! read (`get_props`) of a path whose snapshot is not cached fetches
//! just the named keys and caches nothing, so a SEARCH over many cold
//! candidates leaves the hot set in place.
//!
//! Concurrency: [`FsRepository`] is [`FsStore`] under the shared
//! lock-and-index layer [`Repo`], which takes the sharded
//! hierarchy-aware path locks of [`crate::pathlock`] and keeps the
//! SEARCH index. Every [`FsStore`] method runs with its plan held. See
//! DESIGN.md §Concurrency for the lock-ordering and cache-coherence
//! argument.

use crate::error::{DavError, Result};
use crate::pathlock::PathLocks;
use crate::property::{Property, PropertyName};
use crate::propindex::PropIndex;
use crate::repo::{live_props_from_meta, PropPatchOp, Repo, ResourceMeta, StageStatus, Store};
use pse_cache::{CacheConfig, CacheStats, ShardedCache};
use pse_dbm::{dbm_exists, open_dbm, remove_dbm, Dbm, DbmKind, StoreMode};
use pse_http::uri::{normalize_path, parent_path};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

/// Bytes a file actually occupies on disk (allocated blocks, as `du`
/// reports) — preallocated DBM and segment files are sparse, so the
/// apparent length would overstate the migration-study numbers.
fn allocated_size(meta: &fs::Metadata) -> u64 {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        return meta.blocks() * 512;
    }
    #[allow(unreachable_code)]
    meta.len()
}

/// Name of the per-directory metadata directory.
const DAV_DIR: &str = ".DAV";
/// Property-database stem for the directory itself.
const DIR_SELF: &str = "__dir__";
/// Subdirectory of the root `.DAV` dir holding staged (resumable)
/// uploads — invisible to listings like everything under `.DAV`.
const STAGE_DIR: &str = "stage";
/// Subdirectory of the root `.DAV` dir holding the persistent property
/// index (snapshot + journal; see [`crate::propindex`]).
const INDEX_DIR: &str = "index";
/// First byte of DBM keys the repository reserves for itself; property
/// reads never see them.
const RESERVED_KEY_PREFIX: &[u8] = b"\x01";
/// Reserved DBM key holding the stored content type.
const KEY_CONTENT_TYPE: &[u8] = b"\x01content-type";

/// Repository configuration.
#[derive(Debug, Clone)]
pub struct FsConfig {
    /// Which DBM engine backs property databases.
    pub dbm_kind: DbmKind,
    /// Maximum size of one property value — the paper's post-testing
    /// initial limit was 10 MB.
    pub max_property_size: usize,
    /// Byte budget for the in-memory property cache; 0 disables it and
    /// restores the paper's open-query-close DBM access per request.
    pub property_cache_bytes: usize,
    /// Number of path-lock shards (see [`crate::pathlock`]). More
    /// shards mean fewer false conflicts between unrelated paths.
    pub lock_shards: usize,
    /// Ablation switch: route every path-lock acquisition through one
    /// exclusive shard, restoring whole-repository serialisation.
    pub global_lock: bool,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            dbm_kind: DbmKind::Gdbm,
            max_property_size: 10 * 1024 * 1024,
            property_cache_bytes: 4 * 1024 * 1024,
            lock_shards: crate::pathlock::DEFAULT_SHARDS,
            global_lock: false,
        }
    }
}

/// Everything the repository knows about one resource's metadata,
/// loaded from its property database in a single open.
struct PropSnapshot {
    /// Stored content type (documents only).
    content_type: Option<String>,
    /// Dead properties as (name, storage bytes), sorted by name.
    props: Vec<(PropertyName, Vec<u8>)>,
    /// Modification time of the property database files, if any; folded
    /// into `ResourceMeta::modified` so ETags change on PROPPATCH.
    props_mtime: Option<SystemTime>,
}

impl PropSnapshot {
    /// The dead property `name`, decoded, or `None` when absent.
    fn prop(&self, name: &PropertyName) -> Result<Option<Property>> {
        match self.props.binary_search_by(|(n, _)| n.cmp(name)) {
            Ok(i) => Ok(Some(Property::from_storage(
                name.clone(),
                &self.props[i].1,
            )?)),
            Err(_) => Ok(None),
        }
    }

    /// Approximate bytes this snapshot pins in the cache.
    fn cost(&self) -> usize {
        let mut total = 64 + self.content_type.as_ref().map_or(0, |s| s.len());
        for (name, data) in &self.props {
            total += name.namespace.len() + name.local.len() + data.len() + 48;
        }
        total
    }
}

/// A filesystem-backed DAV repository.
pub type FsRepository = Repo<FsStore>;

/// Files, directories and DBM property databases behind [`FsRepository`].
pub struct FsStore {
    root: PathBuf,
    config: FsConfig,
    /// Property snapshots keyed by normalized DAV path. `Arc` so the
    /// cache can contribute its stats to a metric registry via a weak
    /// reference without tying the registry's lifetime to the repo's.
    /// Coherence: snapshots are loaded and inserted under the path's
    /// shard read lock, and every mutation invalidates under the same
    /// shard's write lock, so a stale snapshot can never be re-inserted
    /// over a newer state.
    prop_cache: Arc<ShardedCache<String, Arc<PropSnapshot>>>,
}

impl Repo<FsStore> {
    /// Open (creating the root directory if needed) a repository. The
    /// property index persists under `<root>/.DAV/index/`; when it is
    /// missing or corrupt it is rebuilt from the DBM property databases,
    /// which are the source of truth.
    pub fn create(root: impl AsRef<Path>, config: FsConfig) -> Result<FsRepository> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let (index, rebuild) = PropIndex::open(&root.join(DAV_DIR).join(INDEX_DIR));
        let locks = PathLocks::new(config.lock_shards, config.global_lock);
        let store = FsStore {
            prop_cache: Arc::new(ShardedCache::new(CacheConfig::with_capacity(
                config.property_cache_bytes,
            ))),
            root,
            config,
        };
        let repo = Repo::from_parts(store, locks, index);
        if rebuild {
            repo.rebuild_index()?;
        }
        Ok(repo)
    }

    /// The configured DBM engine.
    pub fn dbm_kind(&self) -> DbmKind {
        self.store().config.dbm_kind
    }

    /// Property-cache counters; the compliance suite asserts coherence
    /// (every mutating method must invalidate) through these.
    pub fn cache_stats(&self) -> CacheStats {
        self.store().prop_cache.stats()
    }

    /// The on-disk root.
    pub fn root(&self) -> &Path {
        &self.store().root
    }
}

impl FsStore {
    /// Map a DAV path to its filesystem location.
    fn fs_path(&self, path: &str) -> PathBuf {
        let norm = normalize_path(path);
        let mut p = self.root.clone();
        for seg in norm.split('/').filter(|s| !s.is_empty()) {
            p.push(seg);
        }
        p
    }

    /// Property-database stem for a resource.
    fn props_base(&self, path: &str) -> PathBuf {
        let norm = normalize_path(path);
        let fsp = self.fs_path(&norm);
        if fsp.is_dir() {
            fsp.join(DAV_DIR).join(DIR_SELF)
        } else {
            let name = pse_http::uri::basename(&norm);
            fsp.parent().unwrap_or(&self.root).join(DAV_DIR).join(name)
        }
    }

    /// Open the property DB for `path`, creating it when `create` is set.
    /// Returns `None` when it does not exist and `create` is false.
    fn open_props(&self, path: &str, create: bool) -> Result<Option<Box<dyn Dbm>>> {
        let base = self.props_base(path);
        if !dbm_exists(self.config.dbm_kind, &base) && !create {
            return Ok(None);
        }
        if create {
            if let Some(parent) = base.parent() {
                fs::create_dir_all(parent)?;
            }
        }
        Ok(Some(open_dbm(self.config.dbm_kind, &base)?))
    }

    fn check_exists(&self, path: &str) -> Result<PathBuf> {
        let fsp = self.fs_path(path);
        if fsp.exists() {
            Ok(fsp)
        } else {
            Err(DavError::NotFound(normalize_path(path)))
        }
    }

    /// Parent-collection check by a direct filesystem probe. The
    /// generic [`crate::repo::require_parent`] would re-enter the
    /// repository's locks under a held plan (a deadlock against a queued
    /// writer on the same shard).
    fn require_parent(&self, norm: &str) -> Result<()> {
        let parent = parent_path(norm);
        if parent != norm && !self.fs_path(&parent).is_dir() {
            return Err(DavError::Conflict(parent));
        }
        Ok(())
    }

    /// Metadata plus the property snapshot it was derived from, for
    /// callers that need both under one lock hold. Assumes the caller
    /// holds at least a read lock on `norm`'s shard.
    fn meta_and_snapshot(&self, norm: &str) -> Result<(ResourceMeta, Arc<PropSnapshot>)> {
        let fsp = self.check_exists(norm)?;
        let m = fs::metadata(&fsp)?;
        let snap = self.snapshot(norm)?;
        let mut meta = self.meta_from(norm, &m, snap.props_mtime);
        if m.is_file() {
            meta.content_type = snap.content_type.clone();
        }
        Ok((meta, snap))
    }

    /// Metadata without the content type, from the filesystem's
    /// metadata and the property database's mtime.
    fn meta_from(
        &self,
        norm: &str,
        m: &fs::Metadata,
        props_mtime: Option<SystemTime>,
    ) -> ResourceMeta {
        let fs_modified = m.modified().unwrap_or(SystemTime::now());
        ResourceMeta {
            is_collection: m.is_dir(),
            content_length: if m.is_file() { m.len() } else { 0 },
            // Fold the property database's mtime into the resource's
            // modification time so PROPPATCH moves the ETag, not just PUT.
            modified: props_mtime.map_or(fs_modified, |t| fs_modified.max(t)),
            created: self.created_of(norm).unwrap_or(fs_modified),
            content_type: None,
        }
    }

    /// Recursive filesystem copy including `.DAV` property databases.
    fn copy_tree(src: &Path, dst: &Path) -> Result<()> {
        if src.is_dir() {
            fs::create_dir_all(dst)?;
            for entry in fs::read_dir(src)? {
                let entry = entry?;
                Self::copy_tree(&entry.path(), &dst.join(entry.file_name()))?;
            }
        } else {
            if let Some(parent) = dst.parent() {
                fs::create_dir_all(parent)?;
            }
            fs::copy(src, dst)?;
        }
        Ok(())
    }

    /// Copy the property database of a *document* between `.DAV` dirs
    /// (collection property DBs travel with their directory).
    fn copy_doc_props(&self, src: &str, dst: &str) -> Result<()> {
        if let Some(mut sdb) = self.open_props(src, false)? {
            let mut ddb = self
                .open_props(dst, true)?
                .expect("create=true always yields a database");
            for key in sdb.keys()? {
                if let Some(v) = sdb.fetch(&key)? {
                    ddb.store(&key, &v, StoreMode::Replace)?;
                }
            }
            ddb.sync()?;
        }
        Ok(())
    }

    fn delete_doc_props(&self, path: &str) -> Result<()> {
        let base = self.props_base(path);
        remove_dbm(self.config.dbm_kind, &base)?;
        Ok(())
    }

    fn du(path: &Path) -> Result<u64> {
        let meta = fs::symlink_metadata(path)?;
        if meta.is_dir() {
            let mut total = 0;
            for entry in fs::read_dir(path)? {
                total += Self::du(&entry?.path())?;
            }
            Ok(total)
        } else {
            Ok(allocated_size(&meta))
        }
    }

    /// Creation time via the filesystem where available; callers fall
    /// back to mtime. (mod_dav creates a property database only when a
    /// resource first receives real metadata — stamping creation times
    /// into the DBM would give *every* resource the 8 KB / 25 KB floor
    /// and distort the migration study.)
    fn created_of(&self, path: &str) -> Option<SystemTime> {
        std::fs::metadata(self.fs_path(path)).ok()?.created().ok()
    }

    /// Modification time of the property database backing `path`, if
    /// one exists (checks every extension either DBM engine writes).
    fn props_file_mtime(&self, path: &str) -> Option<SystemTime> {
        let base = self.props_base(path);
        let mut latest: Option<SystemTime> = None;
        for ext in ["db", "pag", "dir"] {
            if let Ok(m) = fs::metadata(base.with_extension(ext)) {
                if let Ok(t) = m.modified() {
                    latest = Some(latest.map_or(t, |l| l.max(t)));
                }
            }
        }
        latest
    }

    /// Load the full property snapshot for `path`, from cache when
    /// possible, otherwise with a single DBM open.
    fn snapshot(&self, path: &str) -> Result<Arc<PropSnapshot>> {
        let key = normalize_path(path);
        if let Some(snap) = self.prop_cache.get(&key) {
            return Ok(snap);
        }
        let mut content_type = None;
        let mut props = Vec::new();
        if let Some(mut db) = self.open_props(&key, false)? {
            for dbm_key in db.keys()? {
                if dbm_key == KEY_CONTENT_TYPE {
                    content_type = db.fetch(&dbm_key)?.and_then(|v| String::from_utf8(v).ok());
                } else if !dbm_key.starts_with(RESERVED_KEY_PREFIX) {
                    if let Some(name) = PropertyName::from_storage_key(&dbm_key) {
                        if let Some(data) = db.fetch(&dbm_key)? {
                            props.push((name, data));
                        }
                    }
                }
            }
        }
        props.sort_by(|a, b| a.0.cmp(&b.0));
        let snap = Arc::new(PropSnapshot {
            content_type,
            props,
            props_mtime: self.props_file_mtime(&key),
        });
        let cost = snap.cost();
        self.prop_cache.insert(key, Arc::clone(&snap), cost);
        Ok(snap)
    }

    /// Drop the cached snapshot for one path.
    fn invalidate_path(&self, path: &str) {
        self.prop_cache.remove(&normalize_path(path));
    }

    /// Drop the cached snapshots for a path and everything under it
    /// (DELETE/COPY/MOVE of collections affect whole subtrees).
    fn invalidate_tree(&self, path: &str) {
        let norm = normalize_path(path);
        let prefix = format!("{}/", norm.trim_end_matches('/'));
        self.prop_cache
            .invalidate_matching(|k| *k == norm || k.starts_with(&prefix));
    }

    /// Where the staged upload for `norm` keeps its bytes and its
    /// declared total. One flat directory, with `/` and `%` in the DAV
    /// path percent-escaped so distinct paths can never collide.
    fn stage_paths(&self, norm: &str) -> (PathBuf, PathBuf) {
        let mut key = String::with_capacity(norm.len());
        for ch in norm.chars() {
            match ch {
                '%' => key.push_str("%25"),
                '/' => key.push_str("%2F"),
                _ => key.push(ch),
            }
        }
        let dir = self.root.join(DAV_DIR).join(STAGE_DIR);
        (
            dir.join(format!("{key}.data")),
            dir.join(format!("{key}.total")),
        )
    }

    fn read_stage_total(total_path: &Path, norm: &str) -> Result<u64> {
        fs::read_to_string(total_path)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| DavError::BadRequest(format!("corrupt stage record for {norm}")))
    }

    /// Validate the resumable-upload contract (offset == staged length,
    /// total matches the recorded declaration, no write past the total)
    /// and open the stage's data file positioned for appending
    /// `add_len` more bytes. Creates the stage when `offset` is 0 and
    /// none exists. Caller holds the path's exclusive lock.
    fn stage_open_append(
        &self,
        norm: &str,
        offset: u64,
        total: u64,
        add_len: u64,
    ) -> Result<(fs::File, u64)> {
        let (data_path, total_path) = self.stage_paths(norm);
        let staged = match fs::metadata(&data_path) {
            Ok(m) => {
                let recorded = Self::read_stage_total(&total_path, norm)?;
                if recorded != total {
                    return Err(DavError::BadRequest(format!(
                        "staged total is {recorded} bytes, request declared {total}"
                    )));
                }
                m.len()
            }
            Err(_) => {
                if offset != 0 {
                    return Err(DavError::StageMismatch { staged: 0 });
                }
                if let Some(parent) = data_path.parent() {
                    fs::create_dir_all(parent)?;
                }
                fs::write(&total_path, total.to_string())?;
                fs::write(&data_path, b"")?;
                0
            }
        };
        if offset != staged {
            return Err(DavError::StageMismatch { staged });
        }
        if staged.checked_add(add_len).map_or(true, |end| end > total) {
            return Err(DavError::BadRequest(format!(
                "append of {add_len} bytes at {staged} passes the declared total {total}"
            )));
        }
        let f = fs::OpenOptions::new().append(true).open(&data_path)?;
        Ok((f, staged))
    }

    /// Enforce the configured property size cap on a stored value.
    fn check_size(&self, stored: &[u8]) -> Result<()> {
        if stored.len() > self.config.max_property_size {
            return Err(DavError::PropertyTooLarge {
                size: stored.len(),
                limit: self.config.max_property_size,
            });
        }
        Ok(())
    }

    /// Record a document's MIME type in its property database.
    fn store_content_type(&self, path: &str, content_type: Option<&str>) -> Result<()> {
        if let Some(ct) = content_type {
            let mut db = self
                .open_props(path, true)?
                .expect("create=true always yields a database");
            db.store(KEY_CONTENT_TYPE, ct.as_bytes(), StoreMode::Replace)?;
        }
        Ok(())
    }

    /// Remove the resource at `path` (filesystem location `fsp`): a
    /// collection's directory carries its property databases with it,
    /// a document's database sits in the parent's `.DAV`.
    fn remove_resource(&self, fsp: &Path, path: &str) -> Result<()> {
        if fsp.is_dir() {
            fs::remove_dir_all(fsp)?;
        } else {
            fs::remove_file(fsp)?;
            self.delete_doc_props(path)?;
        }
        Ok(())
    }

    /// The front half COPY and MOVE share: `src` must exist and `dst`'s
    /// parent must be a collection; an existing `dst` is removed when
    /// `overwrite` allows. Returns both filesystem locations and whether
    /// `dst` existed.
    fn clear_destination(
        &self,
        src: &str,
        dst: &str,
        overwrite: bool,
    ) -> Result<(PathBuf, PathBuf, bool)> {
        let sfs = self.check_exists(src)?;
        self.require_parent(dst)?;
        let dfs = self.fs_path(dst);
        let existed = dfs.exists();
        if existed && !overwrite {
            return Err(DavError::PreconditionFailed(format!("{dst} exists")));
        }
        if existed {
            self.remove_resource(&dfs, dst)?;
        }
        Ok((sfs, dfs, existed))
    }

    /// Apply one PROPPATCH instruction to the property database,
    /// journalling the prior raw value for rollback. The caller holds
    /// the exclusive path lock.
    fn patch_one(
        &self,
        norm: &str,
        op: &PropPatchOp,
        journal: &mut Vec<(Vec<u8>, Option<Vec<u8>>)>,
    ) -> Result<()> {
        match op {
            PropPatchOp::Set(p) if p.name.is_live() => {
                Err(DavError::BadRequest("cannot set a live property".into()))
            }
            PropPatchOp::Set(p) => {
                let stored = p.to_storage();
                self.check_size(&stored)?;
                let mut db = self
                    .open_props(norm, true)?
                    .expect("create=true always yields a database");
                let key = p.name.storage_key();
                let prior = db.fetch(&key)?;
                db.store(&key, &stored, StoreMode::Replace)?;
                journal.push((key, prior));
                Ok(())
            }
            PropPatchOp::Remove(name) => {
                let Some(mut db) = self.open_props(norm, false)? else {
                    return Ok(());
                };
                let key = name.storage_key();
                let prior = db.fetch(&key)?;
                if db.delete(&key)? {
                    journal.push((key, prior));
                }
                Ok(())
            }
        }
    }
}

impl Store for FsStore {
    fn register_obs(&self, registry: &Arc<pse_obs::Registry>) {
        // Property-cache hit/miss/eviction traffic under `dav.prop_cache.*`.
        self.prop_cache.register_obs(registry, "dav.prop_cache");
        // The DBM engines keep process-wide statics (handles are opened
        // and closed per operation); map them in as `dbm.*`.
        registry.register_source("dbm", |snap| {
            use std::sync::atomic::Ordering;
            snap.set_counter(
                "dbm.page_reads",
                pse_dbm::obs::PAGE_READS.load(Ordering::Relaxed),
            );
            snap.set_counter(
                "dbm.page_writes",
                pse_dbm::obs::PAGE_WRITES.load(Ordering::Relaxed),
            );
            snap.set_counter("dbm.splits", pse_dbm::obs::SPLITS.load(Ordering::Relaxed));
            // Occupancy as parts-per-thousand (gauges are integers).
            snap.set_gauge(
                "dbm.write_occupancy_permille",
                (pse_dbm::obs::mean_write_occupancy() * 1000.0) as i64,
            );
        });
    }

    fn exists(&self, path: &str) -> bool {
        self.fs_path(path).exists()
    }

    fn is_collection(&self, path: &str) -> bool {
        self.fs_path(path).is_dir()
    }

    fn meta(&self, path: &str) -> Result<ResourceMeta> {
        Ok(self.meta_and_snapshot(path)?.0)
    }

    fn stat(&self, path: &str) -> Result<ResourceMeta> {
        // Reads no property database and moves no cache counter: a
        // cached snapshot supplies the database's mtime, else the
        // filesystem does.
        let m = fs::metadata(self.check_exists(path)?)?;
        let props_mtime = match self.prop_cache.peek(&path.to_owned()) {
            Some(snap) => snap.props_mtime,
            None => self.props_file_mtime(path),
        };
        Ok(self.meta_from(path, &m, props_mtime))
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        let fsp = self.check_exists(path)?;
        if fsp.is_dir() {
            return Err(DavError::Conflict(format!("{path} is a collection")));
        }
        Ok(fs::read(fsp)?)
    }

    fn put(&self, path: &str, data: &[u8], content_type: Option<&str>) -> Result<bool> {
        self.require_parent(path)?;
        let fsp = self.fs_path(path);
        if fsp.is_dir() {
            return Err(DavError::Conflict(format!("{path} is a collection")));
        }
        let created = !fsp.exists();
        fs::write(&fsp, data)?;
        self.store_content_type(path, content_type)?;
        self.invalidate_path(path);
        Ok(created)
    }

    fn mkcol(&self, path: &str) -> Result<()> {
        self.require_parent(path)?;
        let fsp = self.fs_path(path);
        if fsp.exists() {
            return Err(DavError::PreconditionFailed(format!("{path} exists")));
        }
        fs::create_dir(&fsp)?;
        self.invalidate_path(path);
        Ok(())
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.remove_resource(&self.check_exists(path)?, path)?;
        self.invalidate_tree(path);
        Ok(())
    }

    fn copy(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool> {
        let (sfs, dfs, existed) = self.clear_destination(src, dst, overwrite)?;
        Self::copy_tree(&sfs, &dfs)?;
        if sfs.is_file() {
            self.copy_doc_props(src, dst)?;
        }
        self.invalidate_tree(dst);
        Ok(!existed)
    }

    fn rename(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool> {
        let (sfs, dfs, existed) = self.clear_destination(src, dst, overwrite)?;
        fs::rename(&sfs, &dfs)?;
        if dfs.is_file() {
            // Move the document's property database alongside it.
            self.copy_doc_props(src, dst)?;
            self.delete_doc_props(src)?;
        }
        self.invalidate_tree(src);
        self.invalidate_tree(dst);
        Ok(!existed)
    }

    fn list(&self, path: &str) -> Result<Vec<String>> {
        let fsp = self.check_exists(path)?;
        if !fsp.is_dir() {
            return Err(DavError::Conflict(format!("{path} is not a collection")));
        }
        let mut out = Vec::new();
        for entry in fs::read_dir(&fsp)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if name != DAV_DIR {
                out.push(name);
            }
        }
        out.sort();
        Ok(out)
    }

    fn get_prop(&self, path: &str, name: &PropertyName) -> Result<Option<Property>> {
        self.check_exists(path)?;
        self.snapshot(path)?.prop(name)
    }

    fn get_props(&self, path: &str, names: &[PropertyName]) -> Result<Vec<Option<Property>>> {
        // A cached snapshot answers directly; on a miss only the named
        // keys are fetched and nothing is cached, so a SEARCH over many
        // cold candidates cannot evict the hot set.
        self.check_exists(path)?;
        if let Some(snap) = self.prop_cache.get(&path.to_owned()) {
            return names.iter().map(|name| snap.prop(name)).collect();
        }
        let Some(mut db) = self.open_props(path, false)? else {
            return Ok(vec![None; names.len()]);
        };
        names
            .iter()
            .map(|name| {
                let key = name.storage_key();
                // Answer as `snapshot()` would: it skips reserved keys and
                // keys that do not decode back to the same name.
                if key.starts_with(RESERVED_KEY_PREFIX)
                    || PropertyName::from_storage_key(&key).as_ref() != Some(name)
                {
                    return Ok(None);
                }
                match db.fetch(&key)? {
                    Some(data) => Property::from_storage(name.clone(), &data).map(Some),
                    None => Ok(None),
                }
            })
            .collect()
    }

    fn list_props(&self, path: &str) -> Result<Vec<PropertyName>> {
        self.check_exists(path)?;
        let snap = self.snapshot(path)?;
        Ok(snap.props.iter().map(|(n, _)| n.clone()).collect())
    }

    fn all_props(&self, path: &str) -> Result<Vec<Property>> {
        // Live + dead properties from a single metadata read and a
        // single snapshot under one lock hold — the view PROPFIND
        // serves can never interleave with a writer on this path.
        let (meta, snap) = self.meta_and_snapshot(path)?;
        let mut props = live_props_from_meta(path, &meta);
        for (name, data) in &snap.props {
            props.push(Property::from_storage(name.clone(), data)?);
        }
        Ok(props)
    }

    fn index_entries(&self, path: &str) -> Result<Vec<Property>> {
        self.check_exists(path)?;
        let snap = self.snapshot(path)?;
        Ok(snap
            .props
            .iter()
            .filter_map(|(name, data)| Property::from_storage(name.clone(), data).ok())
            .collect())
    }

    fn set_prop(&self, path: &str, prop: &Property) -> Result<()> {
        self.check_exists(path)?;
        let stored = prop.to_storage();
        self.check_size(&stored)?;
        let mut db = self
            .open_props(path, true)?
            .expect("create=true always yields a database");
        db.store(&prop.name.storage_key(), &stored, StoreMode::Replace)?;
        self.invalidate_path(path);
        Ok(())
    }

    fn remove_prop(&self, path: &str, name: &PropertyName) -> Result<bool> {
        self.check_exists(path)?;
        let Some(mut db) = self.open_props(path, false)? else {
            return Ok(false);
        };
        let removed = db.delete(&name.storage_key())?;
        if removed {
            self.invalidate_path(path);
        }
        Ok(removed)
    }

    fn patch_props(
        &self,
        path: &str,
        ops: &[PropPatchOp],
    ) -> std::result::Result<(), (usize, DavError)> {
        // The whole instruction list applies under one exclusive path
        // lock with an undo journal of raw stored values, so readers
        // (excluded for the duration) observe the property set moving
        // atomically from the old state to the new — or staying put.
        self.check_exists(path).map_err(|e| (0, e))?;
        let mut journal: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        let mut failure: Option<(usize, DavError)> = None;
        for (i, op) in ops.iter().enumerate() {
            if let Err(e) = self.patch_one(path, op, &mut journal) {
                failure = Some((i, e));
                break;
            }
        }
        // On failure roll back in reverse order; the database must exist
        // if anything was journalled.
        if failure.is_some() && !journal.is_empty() {
            if let Ok(Some(mut db)) = self.open_props(path, false) {
                for (key, prior) in journal.into_iter().rev() {
                    let _ = match prior {
                        Some(v) => db.store(&key, &v, StoreMode::Replace).map(|_| true),
                        None => db.delete(&key),
                    };
                }
            }
        }
        self.invalidate_path(path);
        failure.map_or(Ok(()), Err)
    }

    fn disk_usage(&self) -> Result<u64> {
        Self::du(&self.root)
    }

    fn stage_status(&self, path: &str) -> Result<Option<StageStatus>> {
        let (data_path, total_path) = self.stage_paths(path);
        match fs::metadata(&data_path) {
            Ok(m) => Ok(Some(StageStatus {
                staged: m.len(),
                total: Self::read_stage_total(&total_path, path)?,
            })),
            Err(_) => Ok(None),
        }
    }

    fn stage_append(
        &self,
        path: &str,
        offset: u64,
        total: u64,
        data: &[u8],
    ) -> Result<StageStatus> {
        let (mut f, staged) = self.stage_open_append(path, offset, total, data.len() as u64)?;
        f.write_all(data)?;
        Ok(StageStatus {
            staged: staged + data.len() as u64,
            total,
        })
    }

    fn stage_copy_from(
        &self,
        path: &str,
        offset: u64,
        total: u64,
        src: &str,
        src_start: u64,
        src_len: u64,
    ) -> Result<StageStatus> {
        let sfs = self.check_exists(src)?;
        if sfs.is_dir() {
            return Err(DavError::Conflict(format!("{src} is a collection")));
        }
        let mut sf = fs::File::open(&sfs)?;
        let slen = sf.metadata()?.len();
        if src_start
            .checked_add(src_len)
            .map_or(true, |end| end > slen)
        {
            return Err(DavError::BadRequest(format!(
                "source range {src_start}+{src_len} exceeds {slen}-byte {src}"
            )));
        }
        sf.seek(SeekFrom::Start(src_start))?;
        let (mut f, staged) = self.stage_open_append(path, offset, total, src_len)?;
        // Stream rather than buffer: unchanged-chunk runs in a delta
        // sync of a trajectory file can be hundreds of megabytes.
        let copied = std::io::copy(&mut (&mut sf).take(src_len), &mut f)?;
        if copied != src_len {
            return Err(DavError::BadRequest(format!(
                "source {src} shrank during copy ({copied} of {src_len} bytes)"
            )));
        }
        Ok(StageStatus {
            staged: staged + src_len,
            total,
        })
    }

    fn stage_commit(&self, path: &str, content_type: Option<&str>) -> Result<bool> {
        self.require_parent(path)?;
        let (data_path, total_path) = self.stage_paths(path);
        let m = fs::metadata(&data_path)
            .map_err(|_| DavError::Conflict(format!("no staged upload for {path}")))?;
        let total = Self::read_stage_total(&total_path, path)?;
        if m.len() != total {
            return Err(DavError::Conflict(format!(
                "staged upload for {path} incomplete: {} of {total} bytes",
                m.len()
            )));
        }
        let fsp = self.fs_path(path);
        if fsp.is_dir() {
            return Err(DavError::Conflict(format!("{path} is a collection")));
        }
        let created = !fsp.exists();
        // The stage lives on the same filesystem as the tree, so this
        // rename is the atomic tmp+rename promote: readers see either
        // the old body or the complete new one, never a prefix.
        fs::rename(&data_path, &fsp)?;
        let _ = fs::remove_file(&total_path);
        self.store_content_type(path, content_type)?;
        self.invalidate_path(path);
        Ok(created)
    }

    fn stage_abort(&self, path: &str) -> Result<()> {
        let (data_path, total_path) = self.stage_paths(path);
        let _ = fs::remove_file(&data_path);
        let _ = fs::remove_file(&total_path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::Repository;
    use std::sync::atomic::{AtomicU64, Ordering};

    static N: AtomicU64 = AtomicU64::new(0);

    fn repo(kind: DbmKind) -> (FsRepository, PathBuf) {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "pse-fsrepo-{}-{n}-{}",
            kind.name(),
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        let r = FsRepository::create(
            &d,
            FsConfig {
                dbm_kind: kind,
                ..FsConfig::default()
            },
        )
        .unwrap();
        (r, d)
    }

    #[test]
    fn document_lifecycle_both_kinds() {
        for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
            let (r, d) = repo(kind);
            r.mkcol("/proj").unwrap();
            assert!(r
                .put("/proj/doc.txt", b"hello", Some("text/plain"))
                .unwrap());
            assert_eq!(r.get("/proj/doc.txt").unwrap(), b"hello");
            let meta = r.meta("/proj/doc.txt").unwrap();
            assert_eq!(meta.content_length, 5);
            assert_eq!(meta.content_type.as_deref(), Some("text/plain"));
            assert!(!meta.is_collection);
            assert!(r.meta("/proj").unwrap().is_collection);
            r.delete("/proj/doc.txt").unwrap();
            assert!(!r.exists("/proj/doc.txt"));
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn properties_persist_on_disk() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/m", b"", None).unwrap();
        let name = PropertyName::new("http://emsl.pnl.gov/ecce", "formula");
        r.set_prop("/m", &Property::text(name.clone(), "UO2(H2O)15"))
            .unwrap();
        // The DBM file exists where mod_dav would put it.
        assert!(d.join(DAV_DIR).join("m.db").exists());
        assert_eq!(
            r.get_prop("/m", &name).unwrap().unwrap().text_value(),
            "UO2(H2O)15"
        );
        assert_eq!(r.list_props("/m").unwrap(), vec![name.clone()]);
        assert!(r.remove_prop("/m", &name).unwrap());
        assert!(r.get_prop("/m", &name).unwrap().is_none());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn collection_properties_live_inside_dir() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.mkcol("/proj").unwrap();
        let name = PropertyName::new("urn:ecce", "project-title");
        r.set_prop("/proj", &Property::text(name.clone(), "Aqueous Uranium"))
            .unwrap();
        assert!(d.join("proj").join(DAV_DIR).join("__dir__.db").exists());
        assert_eq!(
            r.get_prop("/proj", &name).unwrap().unwrap().text_value(),
            "Aqueous Uranium"
        );
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn dav_dir_hidden_from_listing() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.mkcol("/c").unwrap();
        r.put("/c/a", b"", None).unwrap();
        r.set_prop("/c/a", &Property::text(PropertyName::new("u", "p"), "v"))
            .unwrap();
        r.set_prop("/c", &Property::text(PropertyName::new("u", "q"), "w"))
            .unwrap();
        assert_eq!(r.list("/c").unwrap(), vec!["a"]);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn copy_carries_properties() {
        let (r, d) = repo(DbmKind::Sdbm);
        r.mkcol("/src").unwrap();
        r.put("/src/doc", b"data", None).unwrap();
        let name = PropertyName::new("urn:e", "k");
        r.set_prop("/src/doc", &Property::text(name.clone(), "v"))
            .unwrap();
        r.set_prop("/src", &Property::text(name.clone(), "cv"))
            .unwrap();
        assert!(r.copy("/src", "/dst", false).unwrap());
        assert_eq!(r.get("/dst/doc").unwrap(), b"data");
        assert_eq!(
            r.get_prop("/dst/doc", &name).unwrap().unwrap().text_value(),
            "v"
        );
        assert_eq!(
            r.get_prop("/dst", &name).unwrap().unwrap().text_value(),
            "cv"
        );
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn move_single_document_with_props() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/a", b"1", Some("text/plain")).unwrap();
        let name = PropertyName::new("urn:e", "k");
        r.set_prop("/a", &Property::text(name.clone(), "v"))
            .unwrap();
        r.rename("/a", "/b", false).unwrap();
        assert!(!r.exists("/a"));
        assert_eq!(r.get("/b").unwrap(), b"1");
        assert_eq!(r.get_prop("/b", &name).unwrap().unwrap().text_value(), "v");
        assert_eq!(
            r.meta("/b").unwrap().content_type.as_deref(),
            Some("text/plain")
        );
        // Old property database is gone.
        assert!(!d.join(DAV_DIR).join("a.db").exists());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn overwrite_semantics() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/a", b"1", None).unwrap();
        r.put("/b", b"2", None).unwrap();
        assert!(matches!(
            r.copy("/a", "/b", false),
            Err(DavError::PreconditionFailed(_))
        ));
        assert!(!r.copy("/a", "/b", true).unwrap()); // overwrote: 204
        assert_eq!(r.get("/b").unwrap(), b"1");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn property_size_cap_enforced() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-fsrepo-cap-{n}-{}", std::process::id()));
        let r = FsRepository::create(
            &d,
            FsConfig {
                dbm_kind: DbmKind::Gdbm,
                max_property_size: 128,
                ..FsConfig::default()
            },
        )
        .unwrap();
        r.put("/x", b"", None).unwrap();
        let big = "v".repeat(200);
        assert!(matches!(
            r.set_prop("/x", &Property::text(PropertyName::new("u", "p"), &big)),
            Err(DavError::PropertyTooLarge { .. })
        ));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn sdbm_limit_surfaces_as_dbm_error() {
        // With SDBM backing, a property over ~1 KB cannot be stored at
        // all — the limit the paper works around by choosing GDBM.
        let (r, d) = repo(DbmKind::Sdbm);
        r.put("/x", b"", None).unwrap();
        let big = "v".repeat(2000);
        let err = r
            .set_prop("/x", &Property::text(PropertyName::new("u", "p"), &big))
            .unwrap_err();
        assert!(matches!(
            err,
            DavError::Dbm(pse_dbm::Error::PairTooLarge { .. })
        ));
        // GDBM accepts the same value.
        let (r2, d2) = repo(DbmKind::Gdbm);
        r2.put("/x", b"", None).unwrap();
        r2.set_prop("/x", &Property::text(PropertyName::new("u", "p"), &big))
            .unwrap();
        fs::remove_dir_all(&d).unwrap();
        fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn path_escape_attempts_stay_inside_root() {
        let (r, d) = repo(DbmKind::Gdbm);
        // `..` segments resolve within the DAV namespace before touching
        // the filesystem, so nothing can land outside the root.
        r.put("/../../../escape.txt", b"safe", None).unwrap();
        assert!(d.join("escape.txt").exists());
        assert!(!d.parent().unwrap().join("escape.txt").exists());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn disk_usage_grows_with_content() {
        let (r, d) = repo(DbmKind::Gdbm);
        let before = r.disk_usage().unwrap();
        r.put("/big", &vec![0u8; 100_000], None).unwrap();
        let after = r.disk_usage().unwrap();
        assert!(after >= before + 100_000);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn missing_resources_error() {
        let (r, d) = repo(DbmKind::Gdbm);
        assert!(matches!(r.get("/nope"), Err(DavError::NotFound(_))));
        assert!(matches!(r.meta("/nope"), Err(DavError::NotFound(_))));
        assert!(matches!(r.delete("/nope"), Err(DavError::NotFound(_))));
        assert!(matches!(
            r.get_prop("/nope", &PropertyName::dav("x")),
            Err(DavError::NotFound(_))
        ));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn property_cache_hits_and_invalidates() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.mkcol("/c").unwrap();
        r.put("/c/doc", b"x", Some("text/plain")).unwrap();
        let name = PropertyName::new("urn:e", "k");
        r.set_prop("/c/doc", &Property::text(name.clone(), "v1"))
            .unwrap();

        // First read populates the cache; repeats hit it.
        let before = r.cache_stats();
        r.get_prop("/c/doc", &name).unwrap().unwrap();
        r.get_prop("/c/doc", &name).unwrap().unwrap();
        r.list_props("/c/doc").unwrap();
        let after = r.cache_stats();
        assert_eq!(after.misses, before.misses + 1, "one cold load");
        assert!(after.hits >= before.hits + 2, "repeats served from cache");

        // PROPPATCH invalidates: the new value is visible immediately.
        r.set_prop("/c/doc", &Property::text(name.clone(), "v2"))
            .unwrap();
        assert_eq!(
            r.get_prop("/c/doc", &name).unwrap().unwrap().text_value(),
            "v2"
        );

        // Deleting the parent collection flushes the whole subtree.
        r.get_prop("/c/doc", &name).unwrap();
        let before = r.cache_stats();
        r.delete("/c").unwrap();
        let after = r.cache_stats();
        assert!(after.invalidations > before.invalidations);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn proppatch_moves_the_modified_time() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/doc", b"data", None).unwrap();
        let m1 = r.meta("/doc").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        r.set_prop("/doc", &Property::text(PropertyName::new("u", "p"), "v"))
            .unwrap();
        let m2 = r.meta("/doc").unwrap();
        assert!(
            m2.modified > m1.modified,
            "PROPPATCH must advance modified so the ETag changes"
        );
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn disabled_cache_still_correct() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-fsrepo-nocache-{n}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        let r = FsRepository::create(
            &d,
            FsConfig {
                property_cache_bytes: 0,
                ..FsConfig::default()
            },
        )
        .unwrap();
        r.put("/doc", b"x", None).unwrap();
        let name = PropertyName::new("urn:e", "k");
        r.set_prop("/doc", &Property::text(name.clone(), "v"))
            .unwrap();
        r.get_prop("/doc", &name).unwrap().unwrap();
        r.get_prop("/doc", &name).unwrap().unwrap();
        let s = r.cache_stats();
        assert_eq!(s.hits, 0, "zero-budget cache stores nothing");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn put_into_missing_parent_conflicts() {
        let (r, d) = repo(DbmKind::Gdbm);
        assert!(matches!(
            r.put("/no/such/dir/doc", b"x", None),
            Err(DavError::Conflict(_))
        ));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn lock_stats_count_acquisitions() {
        let (r, d) = repo(DbmKind::Gdbm);
        let before = r.lock_stats().acquisitions;
        r.put("/doc", b"x", None).unwrap();
        r.get("/doc").unwrap();
        r.delete("/doc").unwrap();
        let after = r.lock_stats().acquisitions;
        assert!(after >= before + 3, "each operation takes one plan");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn global_lock_ablation_stays_correct() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-fsrepo-glob-{n}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        let r = FsRepository::create(
            &d,
            FsConfig {
                global_lock: true,
                ..FsConfig::default()
            },
        )
        .unwrap();
        r.mkcol("/c").unwrap();
        r.put("/c/doc", b"hello", Some("text/plain")).unwrap();
        let name = PropertyName::new("urn:e", "k");
        r.set_prop("/c/doc", &Property::text(name.clone(), "v"))
            .unwrap();
        r.rename("/c/doc", "/c/doc2", false).unwrap();
        assert_eq!(r.get("/c/doc2").unwrap(), b"hello");
        assert_eq!(
            r.get_prop("/c/doc2", &name).unwrap().unwrap().text_value(),
            "v"
        );
        r.delete("/c").unwrap();
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn staged_upload_lifecycle_and_crash_resume() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.mkcol("/traj").unwrap();
        // Build a 10-byte body in two appends.
        let s = r.stage_append("/traj/run.out", 0, 10, b"01234").unwrap();
        assert_eq!((s.staged, s.total), (5, 10));
        // Wrong offset reports how far the server got.
        assert!(matches!(
            r.stage_append("/traj/run.out", 3, 10, b"x"),
            Err(DavError::StageMismatch { staged: 5 })
        ));
        // Commit of an incomplete stage refuses.
        assert!(matches!(
            r.stage_commit("/traj/run.out", None),
            Err(DavError::Conflict(_))
        ));

        // "Crash": drop the repository and reopen over the same root —
        // the file-backed stage survives and reports its progress.
        drop(r);
        let r = FsRepository::create(&d, FsConfig::default()).unwrap();
        let s = r.stage_status("/traj/run.out").unwrap().unwrap();
        assert_eq!((s.staged, s.total), (5, 10));
        let s = r.stage_append("/traj/run.out", 5, 10, b"56789").unwrap();
        assert_eq!((s.staged, s.total), (10, 10));
        assert!(r.stage_commit("/traj/run.out", Some("text/plain")).unwrap());
        assert_eq!(r.get("/traj/run.out").unwrap(), b"0123456789");
        assert_eq!(
            r.meta("/traj/run.out").unwrap().content_type.as_deref(),
            Some("text/plain")
        );
        // The stage is consumed and the stage dir never shows in listings.
        assert!(r.stage_status("/traj/run.out").unwrap().is_none());
        assert!(r.list("/").unwrap().iter().all(|n| n != DAV_DIR));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn stage_copy_from_assembles_delta() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/doc", b"AAAABBBBCCCC", None).unwrap();
        // New version: keep AAAA, replace BBBB with XYZW, keep CCCC —
        // referencing the old version of the *same* path.
        let s = r.stage_copy_from("/doc", 0, 12, "/doc", 0, 4).unwrap();
        assert_eq!(s.staged, 4);
        let s = r.stage_append("/doc", 4, 12, b"XYZW").unwrap();
        assert_eq!(s.staged, 8);
        let s = r.stage_copy_from("/doc", 8, 12, "/doc", 8, 4).unwrap();
        assert_eq!(s.staged, 12);
        assert!(
            !r.stage_commit("/doc", None).unwrap(),
            "replace, not create"
        );
        assert_eq!(r.get("/doc").unwrap(), b"AAAAXYZWCCCC");
        // Out-of-bounds source range refuses.
        assert!(matches!(
            r.stage_copy_from("/other", 0, 4, "/doc", 10, 4),
            Err(DavError::BadRequest(_))
        ));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn stage_abort_and_guard_rails() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.stage_append("/up", 0, 8, b"1234").unwrap();
        r.stage_abort("/up").unwrap();
        assert!(r.stage_status("/up").unwrap().is_none());
        r.stage_abort("/up").unwrap(); // absent is fine
                                       // Appending past the declared total refuses.
        r.stage_append("/up", 0, 4, b"1234").unwrap();
        assert!(matches!(
            r.stage_append("/up", 4, 4, b"overflow"),
            Err(DavError::BadRequest(_))
        ));
        // A different declared total refuses.
        assert!(matches!(
            r.stage_append("/up", 4, 9, b"x"),
            Err(DavError::BadRequest(_))
        ));
        // Committing into a missing parent conflicts; the stage survives.
        r.stage_append("/no/parent", 0, 1, b"z").unwrap();
        assert!(matches!(
            r.stage_commit("/no/parent", None),
            Err(DavError::Conflict(_))
        ));
        assert!(r.stage_status("/no/parent").unwrap().is_some());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn patch_props_is_all_or_nothing() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-fsrepo-patch-{n}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        let r = FsRepository::create(
            &d,
            FsConfig {
                max_property_size: 128,
                ..FsConfig::default()
            },
        )
        .unwrap();
        r.put("/doc", b"x", None).unwrap();
        let a = PropertyName::new("u", "a");
        let b = PropertyName::new("u", "b");
        r.set_prop("/doc", &Property::text(a.clone(), "old"))
            .unwrap();

        // Second instruction fails (over the size cap): the first must
        // roll back to its prior value.
        let ops = vec![
            PropPatchOp::Set(Property::text(a.clone(), "new")),
            PropPatchOp::Set(Property::text(b.clone(), &"v".repeat(200))),
        ];
        let err = r.patch_props("/doc", &ops).unwrap_err();
        assert_eq!(err.0, 1);
        assert!(matches!(err.1, DavError::PropertyTooLarge { .. }));
        assert_eq!(r.get_prop("/doc", &a).unwrap().unwrap().text_value(), "old");
        assert!(r.get_prop("/doc", &b).unwrap().is_none());

        // A clean batch applies everything.
        let ops = vec![
            PropPatchOp::Set(Property::text(a.clone(), "new")),
            PropPatchOp::Remove(PropertyName::new("u", "absent")),
            PropPatchOp::Set(Property::text(b.clone(), "bv")),
        ];
        r.patch_props("/doc", &ops).unwrap();
        assert_eq!(r.get_prop("/doc", &a).unwrap().unwrap().text_value(), "new");
        assert_eq!(r.get_prop("/doc", &b).unwrap().unwrap().text_value(), "bv");
        fs::remove_dir_all(&d).unwrap();
    }

    /// `get_props` on `path` twice: cold (snapshot dropped, so the named
    /// keys come straight from the DBM) and warm (snapshot cached by a
    /// `list_props` in between).
    fn cold_and_warm(
        r: &FsRepository,
        path: &str,
        names: &[PropertyName],
    ) -> (Vec<Option<Property>>, Vec<Option<Property>>) {
        r.store().invalidate_path(path);
        let cold = r.get_props(path, names).unwrap();
        r.list_props(path).unwrap();
        let hits = r.cache_stats().hits;
        let warm = r.get_props(path, names).unwrap();
        assert_eq!(
            r.cache_stats().hits,
            hits + 1,
            "warm read served from cache"
        );
        (cold, warm)
    }

    #[test]
    fn cold_get_props_matches_all_props_and_caches_nothing() {
        for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
            let (r, d) = repo(kind);
            r.mkcol("/c").unwrap();
            r.put("/c/doc", b"x", Some("text/plain")).unwrap();
            let names: Vec<PropertyName> = ["formula", "charge", "note"]
                .map(|l| PropertyName::new("urn:e", l))
                .to_vec();
            r.set_prop("/c/doc", &Property::text(names[0].clone(), "H2O"))
                .unwrap();
            r.set_prop(
                "/c/doc",
                &Property::text(names[1].clone(), &"9".repeat(900)),
            )
            .unwrap();
            r.set_prop("/c", &Property::text(names[0].clone(), "UO2"))
                .unwrap();
            let mut asked = names.clone();
            asked.push(PropertyName::new("urn:e", "absent"));
            for path in ["/c/doc", "/c"] {
                r.store().invalidate_path(path);
                let (len, inserts) = (r.store().prop_cache.len(), r.cache_stats().insertions);
                let cold = r.get_props(path, &asked).unwrap();
                assert_eq!(
                    r.store().prop_cache.len(),
                    len,
                    "{kind:?} {path}: cold read cached"
                );
                assert_eq!(r.cache_stats().insertions, inserts, "{kind:?} {path}");
                let all = r.all_props(path).unwrap();
                let expected: Vec<Option<Property>> = asked
                    .iter()
                    .map(|n| all.iter().find(|p| &p.name == n).cloned())
                    .collect();
                assert_eq!(cold, expected, "{kind:?} {path}");
                assert_eq!(
                    r.get_props(path, &asked).unwrap(),
                    expected,
                    "{kind:?} {path}"
                );
            }
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn get_props_sees_proppatch_and_remove_cold_and_warm() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/doc", b"x", None).unwrap();
        let a = PropertyName::new("urn:e", "a");
        let b = PropertyName::new("urn:e", "b");
        let names = [a.clone(), b.clone()];
        let text = |ps: &[Option<Property>]| -> Vec<Option<String>> {
            ps.iter()
                .map(|p| p.as_ref().map(Property::text_value))
                .collect()
        };
        r.set_prop("/doc", &Property::text(a.clone(), "v1"))
            .unwrap();
        let (cold, warm) = cold_and_warm(&r, "/doc", &names);
        assert_eq!(text(&cold), [Some("v1".to_owned()), None]);
        assert_eq!(cold, warm);

        // A warm snapshot must not outlive the PROPPATCH that changes it.
        r.patch_props(
            "/doc",
            &[
                PropPatchOp::Set(Property::text(a.clone(), "v2")),
                PropPatchOp::Set(Property::text(b.clone(), "bv")),
            ],
        )
        .unwrap();
        assert_eq!(
            text(&r.get_props("/doc", &names).unwrap()),
            [Some("v2".to_owned()), Some("bv".to_owned())]
        );
        let (cold, warm) = cold_and_warm(&r, "/doc", &names);
        assert_eq!(text(&cold), [Some("v2".to_owned()), Some("bv".to_owned())]);
        assert_eq!(cold, warm);

        assert!(r.remove_prop("/doc", &a).unwrap());
        assert_eq!(
            text(&r.get_props("/doc", &names).unwrap()),
            [None, Some("bv".to_owned())]
        );
        let (cold, warm) = cold_and_warm(&r, "/doc", &names);
        assert_eq!(text(&cold), [None, Some("bv".to_owned())]);
        assert_eq!(cold, warm);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn get_props_without_a_property_database_is_all_none() {
        for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
            let (r, d) = repo(kind);
            r.mkcol("/c").unwrap();
            r.put("/c/doc", b"x", None).unwrap();
            let names = [
                PropertyName::new("urn:e", "a"),
                PropertyName::dav("getetag"),
            ];
            for path in ["/c", "/c/doc"] {
                assert!(
                    !dbm_exists(kind, &r.store().props_base(path)),
                    "{kind:?} {path}"
                );
                let (cold, warm) = cold_and_warm(&r, path, &names);
                assert_eq!(cold, [None, None], "{kind:?} {path}");
                assert_eq!(warm, [None, None], "{kind:?} {path}");
            }
            assert!(matches!(
                r.get_props("/c/missing", &names),
                Err(DavError::NotFound(_))
            ));
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn reserved_and_undecodable_keys_answer_as_the_snapshot_does() {
        let (r, d) = repo(DbmKind::Gdbm);
        r.put("/doc", b"x", Some("text/plain")).unwrap();
        // Stored under a key in the repository's reserved `\x01` space:
        // the snapshot never lists it.
        let reserved = PropertyName::new("\x01content-type", "");
        // Stored under `a\0b\0c`, which decodes as (`a`, `b\0c`): the
        // snapshot holds it under that other name.
        let nul_ns = PropertyName::new("a\0b", "c");
        let decoded = PropertyName::new("a", "b\0c");
        r.set_prop("/doc", &Property::text(reserved.clone(), "r"))
            .unwrap();
        r.set_prop("/doc", &Property::text(nul_ns.clone(), "n"))
            .unwrap();
        let names = [reserved.clone(), nul_ns.clone(), decoded.clone()];
        let (cold, warm) = cold_and_warm(&r, "/doc", &names);
        assert_eq!(cold, warm);
        assert_eq!(cold[0], None);
        assert_eq!(cold[1], None);
        assert_eq!(
            cold[2].as_ref().map(Property::text_value).as_deref(),
            Some("n")
        );
        assert_eq!(r.get_prop("/doc", &reserved).unwrap(), None);
        fs::remove_dir_all(&d).unwrap();
    }
}
