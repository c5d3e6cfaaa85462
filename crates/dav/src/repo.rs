//! The repository abstraction behind the DAV handler.
//!
//! This is the paper's "schema-independent data store" boundary: the
//! handler maps protocol methods onto these operations, and any storage
//! that implements them (filesystem+DBM, in-memory, or something
//! entirely different) can serve a PSE. Nothing in this trait knows
//! anything about Ecce's schema — that is the point.

use crate::error::{DavError, Result};
use crate::pathlock::{PathGuard, PathLockStats, PathLocks};
use crate::property::{Property, PropertyName};
use crate::propindex::PropIndex;
use crate::version::{DeltaV, HistoryImage, VersionStore};
use pse_http::uri::normalize_path;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Metadata the protocol layer needs about one resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceMeta {
    /// Collection (maps to a directory) or document (a file).
    pub is_collection: bool,
    /// Body length in bytes (0 for collections).
    pub content_length: u64,
    /// Last modification time.
    pub modified: SystemTime,
    /// Creation time (best effort; mtime where unavailable).
    pub created: SystemTime,
    /// Stored MIME type, if one was recorded at PUT time.
    pub content_type: Option<String>,
}

impl ResourceMeta {
    /// The entity tag: length + nanosecond mtime, as Apache derives it.
    /// Emitted *without* a `W/` prefix — nanosecond granularity means
    /// two different bodies can't share a tag within an observable
    /// window, so it is a strong validator and legal for `If-Match`/
    /// `If-Range` strong comparison (RFC 7232 §2.1).
    pub fn etag(&self) -> String {
        let secs = self
            .modified
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        format!("\"{:x}-{:x}\"", self.content_length, secs)
    }
}

/// Reject COPY/MOVE pairs whose source and destination overlap: the
/// same resource, a destination inside the source's subtree, or a
/// source inside the destination's subtree (RFC 2518 §8.8.5 forbids
/// copying a collection into itself). Backends remove an existing
/// destination before copying, so an overlapping pair would destroy
/// the source mid-operation; this check runs first, on canonical
/// paths, in every backend.
pub fn check_copy_overlap(src: &str, dst: &str) -> Result<()> {
    let nested = |outer: &str, inner: &str| {
        inner.len() > outer.len()
            && inner.starts_with(outer)
            && (outer == "/" || inner.as_bytes()[outer.len()] == b'/')
    };
    if src == dst || nested(src, dst) || nested(dst, src) {
        return Err(DavError::PreconditionFailed(format!(
            "source {src} and destination {dst} overlap"
        )));
    }
    Ok(())
}

/// Progress of a staged (resumable) upload: how far a partial PUT has
/// got towards its declared total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStatus {
    /// Bytes staged so far — the next expected write offset.
    pub staged: u64,
    /// Declared total size of the finished upload.
    pub total: u64,
}

/// One PROPPATCH instruction, in document order (RFC 2518 §8.2).
#[derive(Debug, Clone)]
pub enum PropPatchOp {
    /// Set (create or replace) a dead property.
    Set(Property),
    /// Remove a dead property (absent is not an error).
    Remove(PropertyName),
}

impl PropPatchOp {
    /// The property this instruction touches.
    pub fn name(&self) -> &PropertyName {
        match self {
            PropPatchOp::Set(p) => &p.name,
            PropPatchOp::Remove(n) => n,
        }
    }
}

/// A DAV storage backend. All methods are `&self`; implementations
/// handle their own synchronisation (the server calls from many worker
/// threads).
pub trait Repository: Send + Sync + 'static {
    /// Contribute repository-level statistics (caches, storage engines)
    /// to a metric registry. Called once when the repository is wrapped
    /// by a `DavHandler`; the default contributes nothing.
    fn register_obs(&self, _registry: &Arc<pse_obs::Registry>) {}

    /// Does a resource exist at `path`?
    fn exists(&self, path: &str) -> bool;

    /// Resource metadata; `NotFound` when absent.
    fn meta(&self, path: &str) -> Result<ResourceMeta>;

    /// [`meta`](Repository::meta) without the content type: everything
    /// validators and the resource type need. Repositories that keep
    /// the content type beside the dead properties override it so that
    /// answering it reads no property. The default is `meta`.
    fn stat(&self, path: &str) -> Result<ResourceMeta> {
        self.meta(path)
    }

    /// Document body. `NotFound` for absent, `Conflict` for collections.
    fn get(&self, path: &str) -> Result<Vec<u8>>;

    /// Create or replace a document. Returns `true` when the resource
    /// was created (201) vs overwritten (204). `Conflict` when the
    /// parent collection is missing (RFC 2518 §8.7.1).
    fn put(&self, path: &str, data: &[u8], content_type: Option<&str>) -> Result<bool>;

    /// Create a collection. `Conflict` for a missing parent; 405-style
    /// error if the resource exists.
    fn mkcol(&self, path: &str) -> Result<()>;

    /// Delete a resource (recursively for collections).
    fn delete(&self, path: &str) -> Result<()>;

    /// Recursive copy, including dead properties. Returns `true` when
    /// the destination was created fresh.
    fn copy(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool>;

    /// Rename/move, including dead properties.
    fn rename(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool>;

    /// Names (not paths) of a collection's children, sorted.
    fn list(&self, path: &str) -> Result<Vec<String>>;

    /// Total bytes the repository occupies on disk (data + metadata) —
    /// the figure the §3.2.4 migration study compares across backends.
    fn disk_usage(&self) -> Result<u64>;

    // ---- staged (resumable) uploads -------------------------------
    //
    // A staged upload accumulates a new body for `path` out of band:
    // sequential `stage_append`/`stage_copy_from` calls build it up,
    // and `stage_commit` promotes it atomically (tmp+rename style)
    // into the live resource. Backends without support inherit the
    // refusing defaults; the handler maps the refusal to 400.

    /// Progress of the staged upload for `path`, `None` when nothing is
    /// staged. The default (no staging support) reports nothing staged.
    fn stage_status(&self, _path: &str) -> Result<Option<StageStatus>> {
        Ok(None)
    }

    /// Append `data` to the staged upload for `path` at byte `offset`.
    /// `offset` must equal the currently staged length (0 starts a new
    /// stage) and `total` must match the stage's declared total, else
    /// [`DavError::StageMismatch`] reports the server-side length so
    /// the client can resynchronise.
    fn stage_append(
        &self,
        _path: &str,
        _offset: u64,
        _total: u64,
        _data: &[u8],
    ) -> Result<StageStatus> {
        Err(DavError::BadRequest(
            "resumable uploads not supported by this repository".into(),
        ))
    }

    /// Append `src_len` bytes starting at `src_start` of the *committed*
    /// resource at `src` to the staged upload for `path` — the
    /// server-side copy primitive delta sync uses to reference
    /// unchanged chunks without resending them. Same offset contract as
    /// [`stage_append`](Repository::stage_append).
    fn stage_copy_from(
        &self,
        _path: &str,
        _offset: u64,
        _total: u64,
        _src: &str,
        _src_start: u64,
        _src_len: u64,
    ) -> Result<StageStatus> {
        Err(DavError::BadRequest(
            "resumable uploads not supported by this repository".into(),
        ))
    }

    /// Atomically promote the completed stage into the live resource
    /// (create or replace, like [`put`](Repository::put)). Fails with
    /// `Conflict` when the stage is incomplete (`staged != total`) or
    /// the parent collection is missing. Returns `true` when the
    /// resource was created fresh.
    fn stage_commit(&self, _path: &str, _content_type: Option<&str>) -> Result<bool> {
        Err(DavError::BadRequest(
            "resumable uploads not supported by this repository".into(),
        ))
    }

    /// Discard any staged upload for `path` (absent is not an error).
    fn stage_abort(&self, _path: &str) -> Result<()> {
        Ok(())
    }

    /// The protocol-computed ("live") properties of a resource.
    fn live_props(&self, path: &str) -> Result<Vec<Property>> {
        Ok(live_props_from_meta(path, &self.meta(path)?))
    }

    /// Read several dead properties in one call (`None` per absent
    /// name), all from one consistent state of `path`, so a racing
    /// PROPPATCH can never yield a torn multi-property read.
    fn get_props(&self, path: &str, names: &[PropertyName]) -> Result<Vec<Option<Property>>>;

    /// Apply a whole PROPPATCH: instructions in document order, all or
    /// nothing (RFC 2518 §8.2). Setting a live property is refused with
    /// `BadRequest`. On failure, returns the index of the offending
    /// instruction plus its error; prior instructions have been rolled
    /// back.
    fn patch_props(
        &self,
        path: &str,
        ops: &[PropPatchOp],
    ) -> std::result::Result<(), (usize, DavError)>;

    /// Dead + live properties together (PROPFIND allprop), from one
    /// consistent state of `path`.
    fn all_props(&self, path: &str) -> Result<Vec<Property>>;

    /// Read one dead property: [`get_props`](Repository::get_props) of
    /// one name.
    fn get_prop(&self, path: &str, name: &PropertyName) -> Result<Option<Property>> {
        let names = std::slice::from_ref(name);
        Ok(self.get_props(path, names)?.pop().flatten())
    }

    /// All dead property names on `path`: the dead names of
    /// [`all_props`](Repository::all_props), so it fails where that does.
    fn list_props(&self, path: &str) -> Result<Vec<PropertyName>> {
        Ok(self
            .all_props(path)?
            .into_iter()
            .map(|p| p.name)
            .filter(|n| !n.is_live())
            .collect())
    }

    /// Write one dead property: a one-instruction
    /// [`patch_props`](Repository::patch_props), so a live name is
    /// refused as PROPPATCH refuses it.
    fn set_prop(&self, path: &str, prop: &Property) -> Result<()> {
        self.patch_props(path, &[PropPatchOp::Set(prop.clone())])
            .map_err(|(_, e)| e)
    }

    /// Remove one dead property; `Ok(false)` when it was absent. It
    /// reads with [`get_props`](Repository::get_props) and patches only
    /// when the name is present, so removing an absent name changes
    /// and reports nothing. The read and the patch are two calls: two
    /// racing removes of one name may both answer `true`.
    fn remove_prop(&self, path: &str, name: &PropertyName) -> Result<bool> {
        let names = std::slice::from_ref(name);
        if self.get_props(path, names)?.pop().flatten().is_none() {
            return Ok(false);
        }
        self.patch_props(path, &[PropPatchOp::Remove(name.clone())])
            .map_err(|(_, e)| e)?;
        Ok(true)
    }

    /// Walk a subtree depth-first, calling `visit` with each path.
    /// `max_depth` of `None` means unlimited. A member that vanishes
    /// between being listed and being visited (a concurrent DELETE or
    /// MOVE) is treated as a leaf rather than failing the traversal.
    fn walk(&self, path: &str, max_depth: Option<u32>, visit: &mut dyn FnMut(&str)) -> Result<()> {
        visit(path);
        let descend = max_depth.map(|d| d > 0).unwrap_or(true);
        if !descend {
            return Ok(());
        }
        let is_collection = match self.stat(path) {
            Ok(m) => m.is_collection,
            Err(DavError::NotFound(_)) => false,
            Err(e) => return Err(e),
        };
        if is_collection {
            let children = match self.list(path) {
                Ok(c) => c,
                Err(DavError::NotFound(_) | DavError::Conflict(_)) => Vec::new(),
                Err(e) => return Err(e),
            };
            for child in children {
                let child_path = pse_http::uri::join_path(path, &child);
                self.walk(&child_path, max_depth.map(|d| d - 1), visit)?;
            }
        }
        Ok(())
    }

    /// Consult a secondary property index (see [`crate::propindex`]):
    /// `Some(paths)` is the exact, sorted set of resources whose dead
    /// property satisfies the probe; `None` means the repository cannot
    /// answer (no index, or the probe is outside what the index holds)
    /// and the SEARCH planner must fall back to the scan. The default
    /// declines everything, so wrappers and simple backends stay
    /// correct without maintaining an index.
    fn index_probe(&self, _probe: &crate::propindex::Probe) -> Option<Vec<String>> {
        None
    }

    /// The repository's DeltaV operations and version histories. The
    /// default, `None`, keeps no histories: DeltaV requests are refused.
    fn deltav(&self) -> Option<&dyn DeltaV> {
        None
    }
}

/// Build the live property set from already-fetched metadata — shared
/// by the trait default and by repositories that assemble a resource's
/// whole property view under a single lock.
pub fn live_props_from_meta(path: &str, meta: &ResourceMeta) -> Vec<Property> {
    let mut props = Vec::with_capacity(7);
    props.push(Property::text(
        PropertyName::dav("creationdate"),
        &format_iso8601(meta.created),
    ));
    props.push(Property::text(
        PropertyName::dav("getlastmodified"),
        &format_http_date(meta.modified),
    ));
    props.push(Property::text(
        PropertyName::dav("getcontentlength"),
        &meta.content_length.to_string(),
    ));
    if let Some(ct) = &meta.content_type {
        props.push(Property::text(PropertyName::dav("getcontenttype"), ct));
    }
    props.push(Property::text(PropertyName::dav("getetag"), &meta.etag()));
    // resourcetype: empty for documents, <D:collection/> inside for
    // collections.
    let mut rt = pse_xml::dom::Element::new(Some(crate::property::DAV_NS), "resourcetype");
    if meta.is_collection {
        rt.push_elem(pse_xml::dom::Element::new(
            Some(crate::property::DAV_NS),
            "collection",
        ));
    }
    props.push(Property::from_element(rt));
    props.push(Property::text(
        PropertyName::dav("displayname"),
        pse_http::uri::basename(path),
    ));
    props
}

/// Ensure a path has a parent that exists and is a collection.
pub fn require_parent(repo: &dyn Repository, path: &str) -> Result<()> {
    let parent = pse_http::uri::parent_path(path);
    if parent != path && (!repo.exists(&parent) || !repo.meta(&parent)?.is_collection) {
        return Err(DavError::Conflict(parent));
    }
    Ok(())
}

// ---- the lock-and-index layer every repository shares ----------------

/// One successful mutation, as a [`Repo`]'s commit hook sees it. Paths
/// are canonical. A staged commit arrives as the `Put` of the body read
/// back under the commit's plan, so a consumer never needs the stage.
#[derive(Debug, Clone, Copy)]
pub enum Change<'a> {
    /// A document body written (PUT or a staged commit).
    Put {
        path: &'a str,
        data: &'a [u8],
        content_type: Option<&'a str>,
    },
    /// A collection created.
    Mkcol { path: &'a str },
    /// A resource removed, with its subtree.
    Delete { path: &'a str },
    /// A resource copied, with its subtree and dead properties.
    Copy {
        src: &'a str,
        dst: &'a str,
        overwrite: bool,
    },
    /// A resource moved, with its subtree and dead properties.
    Rename {
        src: &'a str,
        dst: &'a str,
        overwrite: bool,
    },
    /// Dead properties set or removed in order: a PROPPATCH, or one
    /// `set_prop` / effective `remove_prop` as a one-instruction batch.
    PatchProps {
        path: &'a str,
        ops: &'a [PropPatchOp],
    },
    /// A document put under version control; `content` is version 1.
    VersionControl { path: &'a str, content: &'a [u8] },
    /// A versioned document checked out.
    Checkout { path: &'a str },
    /// A checked-out document checked in; `content` is the new version.
    Checkin { path: &'a str, content: &'a [u8] },
}

/// Storage primitives under a [`Repo`]. Every method is called on a
/// canonical path with the lock plan [`Repo`] chose for the operation
/// already held, so an implementation only guards its own internals;
/// it never takes path locks and never touches the property index.
/// A method named like a [`Repository`] method has its meaning (COPY
/// and MOVE arrive with overlapping pairs already rejected).
pub trait Store: Send + Sync + 'static {
    /// Contribute storage-level statistics (caches, engines).
    fn register_obs(&self, _registry: &Arc<pse_obs::Registry>) {}
    /// Does a resource exist at `path`?
    fn exists(&self, path: &str) -> bool;
    /// Is `path` a collection right now (`false` when absent)? Read
    /// before a plan is chosen and again under it.
    fn is_collection(&self, path: &str) -> bool;
    fn meta(&self, path: &str) -> Result<ResourceMeta>;
    /// See [`Repository::stat`].
    fn stat(&self, path: &str) -> Result<ResourceMeta> {
        self.meta(path)
    }
    fn get(&self, path: &str) -> Result<Vec<u8>>;
    fn put(&self, path: &str, data: &[u8], content_type: Option<&str>) -> Result<bool>;
    fn mkcol(&self, path: &str) -> Result<()>;
    fn delete(&self, path: &str) -> Result<()>;
    fn copy(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool>;
    fn rename(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool>;
    fn list(&self, path: &str) -> Result<Vec<String>>;
    fn get_props(&self, path: &str, names: &[PropertyName]) -> Result<Vec<Option<Property>>>;
    fn all_props(&self, path: &str) -> Result<Vec<Property>>;
    /// Every dead property of `path`, as stored: what the property
    /// index derives its entries (text, plain-text flag) from.
    /// `NotFound` when absent.
    fn index_entries(&self, path: &str) -> Result<Vec<Property>>;
    fn patch_props(
        &self,
        path: &str,
        ops: &[PropPatchOp],
    ) -> std::result::Result<(), (usize, DavError)>;
    fn disk_usage(&self) -> Result<u64>;
    fn stage_status(&self, path: &str) -> Result<Option<StageStatus>>;
    fn stage_append(&self, path: &str, offset: u64, total: u64, data: &[u8])
        -> Result<StageStatus>;
    fn stage_copy_from(
        &self,
        path: &str,
        offset: u64,
        total: u64,
        src: &str,
        src_start: u64,
        src_len: u64,
    ) -> Result<StageStatus>;
    fn stage_commit(&self, path: &str, content_type: Option<&str>) -> Result<bool>;
    fn stage_abort(&self, path: &str) -> Result<()>;
}

type CommitHook = dyn Fn(&Change<'_>) -> Result<()> + Send + Sync;

/// A [`Store`] under the one locking policy every repository shares:
/// path normalisation, the path-lock plan of each operation (see
/// [`crate::pathlock`]), the classify-and-recheck loop of DELETE, COPY
/// and MOVE, upkeep of the SEARCH property index and of the DeltaV
/// histories ([`crate::version`]), and an optional commit hook that
/// sees every successful mutation while its plan is still held — so
/// for two conflicting mutations, hook order equals apply order.
pub struct Repo<S: Store> {
    store: S,
    locks: Arc<PathLocks>,
    /// Secondary property index, updated under the same plans that
    /// order the mutations, in one call per mutation (a leaf lock: never
    /// held while acquiring a path lock).
    index: Arc<PropIndex>,
    /// Version histories, changed only under the plan of the operation
    /// that changes them.
    versions: Arc<VersionStore>,
    hook: OnceLock<Box<CommitHook>>,
}

impl<S: Store> Repo<S> {
    /// Put `store` under the lock table `locks` and the index `index`.
    pub(crate) fn from_parts(store: S, locks: PathLocks, index: PropIndex) -> Repo<S> {
        Repo {
            store,
            locks: Arc::new(locks),
            index: Arc::new(index),
            versions: Arc::new(VersionStore::new()),
            hook: OnceLock::new(),
        }
    }

    /// Keep version histories in `versions` (e.g. a
    /// [`VersionStore::persistent`] one) instead of the memory-only
    /// default.
    pub fn with_version_store(mut self, versions: VersionStore) -> Repo<S> {
        self.versions = Arc::new(versions);
        self
    }

    /// Install the commit hook (once; later calls are ignored). It runs
    /// after each successful mutation, DeltaV ones included, under that
    /// mutation's lock plan; its error becomes the caller's error,
    /// though the mutation stays applied.
    pub fn set_commit_hook(
        &self,
        hook: impl Fn(&Change<'_>) -> Result<()> + Send + Sync + 'static,
    ) {
        let _ = self.hook.set(Box::new(hook));
    }

    /// Re-derive the property index from the stored properties of every
    /// resource and persist a fresh snapshot. Runs at open, before the
    /// repository is shared; callers invoking it on a live repository
    /// must exclude writers themselves.
    pub fn rebuild_index(&self) -> Result<()> {
        let mut paths = Vec::new();
        self.walk("/", None, &mut |p| paths.push(p.to_owned()))?;
        for path in paths {
            if let Ok(entries) = self.store.index_entries(&path) {
                self.index.set_path(&path, &entries);
            }
        }
        self.index.compact();
        Ok(())
    }

    /// Path-lock counters (acquisitions, contended plans, wait time).
    pub fn lock_stats(&self) -> PathLockStats {
        self.locks.stats()
    }

    pub(crate) fn store(&self) -> &S {
        &self.store
    }

    fn commit(&self, change: Change<'_>) -> Result<()> {
        match self.hook.get() {
            Some(hook) => hook(&change),
            None => Ok(()),
        }
    }

    /// RFC 3253 §3.10: with auto-versioning off, a checked-in document
    /// refuses a new body. A deleted one has nothing to protect, so a
    /// PUT may recreate it (a replica's resync deletes, then re-PUTs).
    fn check_put_allowed(&self, path: &str) -> Result<()> {
        match self.versions.check_put_allowed(path) {
            Err(e) if self.store.exists(path) => Err(e),
            _ => Ok(()),
        }
    }

    /// After `data` was written to `path` under its write plan:
    /// auto-version it, then report it. The write stays applied, so the
    /// hook runs even when the version write failed; the first error is
    /// the caller's.
    fn commit_put(&self, path: &str, data: &[u8], content_type: Option<&str>) -> Result<()> {
        let recorded = self.versions.record_put(path, data);
        self.commit(Change::Put {
            path,
            data,
            content_type,
        })?;
        recorded
    }

    fn read<T>(&self, path: &str, op: impl FnOnce(&S, &str) -> T) -> T {
        let path = normalize_path(path);
        let _g = self.locks.read(&path);
        op(&self.store, &path)
    }

    fn write<T>(&self, path: &str, op: impl FnOnce(&S, &str) -> T) -> T {
        let path = normalize_path(path);
        let _g = self.locks.write(&path);
        op(&self.store, &path)
    }

    /// The plan for DELETE, COPY and MOVE. While any of `paths` is a
    /// collection the affected set cannot be enumerated in advance, so
    /// the plan is the subtree intent; otherwise it is `point`. The
    /// classification is read before locking, so it is rechecked under
    /// the acquired plan and the acquisition retried if a concurrent
    /// operation changed it.
    fn plan<'a>(&'a self, paths: &[&str], point: impl Fn() -> PathGuard<'a>) -> PathGuard<'a> {
        let subtree = || paths.iter().any(|p| self.store.is_collection(p));
        loop {
            let planned = subtree();
            let guard = if planned {
                self.locks.subtree()
            } else {
                point()
            };
            if subtree() == planned {
                return guard;
            }
        }
    }
}

impl<S: Store> Repository for Repo<S> {
    fn register_obs(&self, registry: &Arc<pse_obs::Registry>) {
        // Acquisition/contention counters and the live lock-wait
        // histogram under `dav.pathlock.*`.
        self.locks.register_obs(registry, "dav.pathlock");
        let index = Arc::downgrade(&self.index);
        registry.register_source("dav.propindex", move |snap| {
            let Some(index) = index.upgrade() else { return };
            let s = index.stats();
            snap.set_gauge("dav.propindex.entries", s.entries as i64);
            snap.set_counter("dav.propindex.hits", s.hits);
            snap.set_counter("dav.propindex.misses", s.misses);
            snap.set_counter("dav.propindex.reads_answered", s.reads_answered);
            snap.set_counter("dav.propindex.reads_declined", s.reads_declined);
            snap.set_counter("dav.propindex.compactions", s.compactions);
            snap.set_counter("dav.propindex.rebuilt_on_open", s.rebuilt_on_open);
        });
        self.versions.register_obs(registry, "dav.versions");
        self.store.register_obs(registry);
    }

    fn exists(&self, path: &str) -> bool {
        self.read(path, S::exists)
    }

    fn meta(&self, path: &str) -> Result<ResourceMeta> {
        self.read(path, S::meta)
    }

    fn stat(&self, path: &str) -> Result<ResourceMeta> {
        self.read(path, S::stat)
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        self.read(path, S::get)
    }

    fn put(&self, path: &str, data: &[u8], content_type: Option<&str>) -> Result<bool> {
        let path = normalize_path(path);
        let _g = self.locks.write_with_parent(&path);
        self.check_put_allowed(&path)?;
        let created = self.store.put(&path, data, content_type)?;
        self.commit_put(&path, data, content_type)?;
        Ok(created)
    }

    fn mkcol(&self, path: &str) -> Result<()> {
        let path = normalize_path(path);
        let _g = self.locks.write_with_parent(&path);
        self.store.mkcol(&path)?;
        self.commit(Change::Mkcol { path: &path })
    }

    fn delete(&self, path: &str) -> Result<()> {
        let path = normalize_path(path);
        let _g = self.plan(&[&path], || self.locks.write_with_parent(&path));
        self.store.delete(&path)?;
        self.index.remove_tree(&path);
        self.commit(Change::Delete { path: &path })
    }

    fn copy(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool> {
        let (src, dst) = (normalize_path(src), normalize_path(dst));
        check_copy_overlap(&src, &dst)?;
        let _g = self.plan(&[&src, &dst], || self.locks.copy_doc(&src, &dst));
        let created = self.store.copy(&src, &dst, overwrite)?;
        self.index.copy_tree(&src, &dst);
        self.commit(Change::Copy {
            src: &src,
            dst: &dst,
            overwrite,
        })?;
        Ok(created)
    }

    fn rename(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool> {
        let (src, dst) = (normalize_path(src), normalize_path(dst));
        check_copy_overlap(&src, &dst)?;
        // A document rename is two directory events; write-locking both
        // parents keeps listings from observing the halfway state.
        let _g = self.plan(&[&src, &dst], || self.locks.rename_pair(&src, &dst));
        let created = self.store.rename(&src, &dst, overwrite)?;
        self.index.move_tree(&src, &dst);
        // The histories follow the document, or a collection's members.
        let moved = self.versions.rename(&src, &dst);
        self.commit(Change::Rename {
            src: &src,
            dst: &dst,
            overwrite,
        })?;
        moved?;
        Ok(created)
    }

    fn list(&self, path: &str) -> Result<Vec<String>> {
        self.read(path, S::list)
    }

    fn get_props(&self, path: &str, names: &[PropertyName]) -> Result<Vec<Option<Property>>> {
        // The index answers when it holds every name as plain text or
        // not at all; otherwise the whole read goes to the store, so each
        // answer comes from one source. Either way it runs under this
        // path's read lock, which orders it against every mutation.
        self.read(path, |s, p| match self.index.named(p, names) {
            Some(read) if read.path_has_entries || s.exists(p) => Ok(read.values),
            Some(_) => Err(DavError::NotFound(p.to_owned())),
            None => s.get_props(p, names),
        })
    }

    fn all_props(&self, path: &str) -> Result<Vec<Property>> {
        self.read(path, S::all_props)
    }

    /// A one-name read goes to the store, not the index, so it reports
    /// a property database that has become unreadable.
    fn get_prop(&self, path: &str, name: &PropertyName) -> Result<Option<Property>> {
        let names = std::slice::from_ref(name);
        let mut read = self.read(path, |s, p| s.get_props(p, names))?;
        Ok(read.pop().flatten())
    }

    fn patch_props(
        &self,
        path: &str,
        ops: &[PropPatchOp],
    ) -> std::result::Result<(), (usize, DavError)> {
        self.write(path, |s, p| {
            if let Err(fail) = s.patch_props(p, ops) {
                // A best-effort rollback may have left the stored set
                // anywhere between old and new: re-derive this path's
                // entries from what is actually stored.
                if let Ok(entries) = s.index_entries(p) {
                    self.index.set_path(p, &entries);
                }
                return Err(fail);
            }
            self.index.patch(p, ops);
            self.commit(Change::PatchProps { path: p, ops })
                .map_err(|e| (0, e))
        })
    }

    fn disk_usage(&self) -> Result<u64> {
        let _g = self.locks.subtree_read();
        self.store.disk_usage()
    }

    fn stage_status(&self, path: &str) -> Result<Option<StageStatus>> {
        self.read(path, S::stage_status)
    }

    fn stage_append(
        &self,
        path: &str,
        offset: u64,
        total: u64,
        data: &[u8],
    ) -> Result<StageStatus> {
        self.write(path, |s, p| s.stage_append(p, offset, total, data))
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
        let (path, src) = (normalize_path(path), normalize_path(src));
        // copy_doc also covers src == path: the plan merger collapses
        // the pair to one exclusive hold, so delta-syncing a resource
        // against its own previous version cannot deadlock.
        let _g = self.locks.copy_doc(&src, &path);
        self.store
            .stage_copy_from(&path, offset, total, &src, src_start, src_len)
    }

    fn stage_commit(&self, path: &str, content_type: Option<&str>) -> Result<bool> {
        let path = normalize_path(path);
        let _g = self.locks.write_with_parent(&path);
        self.check_put_allowed(&path)?;
        let created = self.store.stage_commit(&path, content_type)?;
        if self.hook.get().is_some() || self.versions.is_versioned(&path) {
            let data = self.store.get(&path)?;
            let content_type = self.store.meta(&path)?.content_type;
            self.commit_put(&path, &data, content_type.as_deref())?;
        }
        Ok(created)
    }

    fn stage_abort(&self, path: &str) -> Result<()> {
        self.write(path, S::stage_abort)
    }

    fn index_probe(&self, probe: &crate::propindex::Probe) -> Option<Vec<String>> {
        self.index.probe(probe)
    }

    fn deltav(&self) -> Option<&dyn DeltaV> {
        Some(self)
    }
}

impl<S: Store> DeltaV for Repo<S> {
    fn versions(&self) -> &VersionStore {
        &self.versions
    }

    fn version_control(&self, path: &str, content: Option<&[u8]>) -> Result<bool> {
        self.write(path, |s, p| {
            let content = match content {
                Some(c) => Cow::Borrowed(c),
                None if s.is_collection(p) => {
                    return Err(DavError::BadRequest(
                        "collections cannot be version-controlled".into(),
                    ))
                }
                None => Cow::Owned(s.get(p)?),
            };
            if self.versions.is_versioned(p) {
                return Ok(false);
            }
            self.versions.start(p, &content)?;
            self.commit(Change::VersionControl {
                path: p,
                content: &content,
            })?;
            Ok(true)
        })
    }

    fn checkout(&self, path: &str) -> Result<()> {
        self.write(path, |_, p| {
            self.versions.checkout(p)?;
            self.commit(Change::Checkout { path: p })
        })
    }

    fn checkin(&self, path: &str, content: Option<&[u8]>) -> Result<u32> {
        self.write(path, |s, p| {
            let content = match content {
                Some(c) => Cow::Borrowed(c),
                None => Cow::Owned(s.get(p)?),
            };
            let number = self.versions.checkin(p, &content)?;
            self.commit(Change::Checkin {
                path: p,
                content: &content,
            })?;
            Ok(number)
        })
    }

    fn install_history(&self, path: &str, image: Option<&HistoryImage>) -> Result<()> {
        if self.hook.get().is_some() {
            return Err(DavError::Conflict(
                "a repository whose changes are logged cannot take a history from elsewhere".into(),
            ));
        }
        self.write(path, |_, p| self.versions.install(p, image))
    }
}

// ---- date formatting (no chrono offline; civil-from-days arithmetic) ----

/// Days-since-epoch → (year, month, day), Howard Hinnant's algorithm.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn split_time(t: SystemTime) -> (i64, u32, u32, u32, u32, u32, u32) {
    let secs = match t.duration_since(UNIX_EPOCH) {
        Ok(d) => d.as_secs() as i64,
        Err(e) => -(e.duration().as_secs() as i64),
    };
    let days = secs.div_euclid(86_400);
    let tod = secs.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    let weekday = (days + 4).rem_euclid(7) as u32; // 1970-01-01 was Thursday
    (
        y,
        m,
        d,
        (tod / 3600) as u32,
        ((tod / 60) % 60) as u32,
        (tod % 60) as u32,
        weekday,
    )
}

const DAY_NAMES: [&str; 7] = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"];
const MONTH_NAMES: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// RFC 1123 format for `getlastmodified`: `Sun, 06 Nov 1994 08:49:37 GMT`.
pub fn format_http_date(t: SystemTime) -> String {
    let (y, m, d, hh, mm, ss, wd) = split_time(t);
    format!(
        "{}, {d:02} {} {y:04} {hh:02}:{mm:02}:{ss:02} GMT",
        DAY_NAMES[wd as usize],
        MONTH_NAMES[(m - 1) as usize]
    )
}

/// ISO 8601 format for `creationdate`: `1997-12-01T17:42:21Z`.
pub fn format_iso8601(t: SystemTime) -> String {
    let (y, m, d, hh, mm, ss, _) = split_time(t);
    format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

/// Parse what [`format_iso8601`] writes (UTC, whole seconds).
pub fn parse_iso8601(s: &str) -> Option<SystemTime> {
    let (date, time) = s.trim().strip_suffix('Z')?.split_once('T')?;
    let mut ymd = date.splitn(3, '-');
    let year: i64 = ymd.next()?.parse().ok()?;
    let month: u32 = ymd.next()?.parse().ok()?;
    let day: u32 = ymd.next()?.parse().ok()?;
    let mut hms = time.splitn(3, ':');
    let hh: i64 = hms.next()?.parse().ok()?;
    let mm: i64 = hms.next()?.parse().ok()?;
    let ss: i64 = hms.next()?.parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) || hh > 23 || mm > 59 || ss > 60 {
        return None;
    }
    let secs = days_from_civil(year, month, day) * 86_400 + hh * 3600 + mm * 60 + ss;
    Some(UNIX_EPOCH + std::time::Duration::from_secs(u64::try_from(secs).ok()?))
}

/// (year, month, day) → days-since-epoch; inverse of [`civil_from_days`].
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Parse an RFC 1123 HTTP date (`Sun, 06 Nov 1994 08:49:37 GMT`), the
/// format [`format_http_date`] emits and conditional-request headers
/// carry. The weekday is ignored; `None` for anything unparseable
/// (RFC 2616 says an invalid `If-Modified-Since` is simply ignored).
pub fn parse_http_date(s: &str) -> Option<SystemTime> {
    let s = s.trim();
    let rest = s.split_once(',').map(|(_, r)| r).unwrap_or(s).trim();
    let mut parts = rest.split_whitespace();
    let day: u32 = parts.next()?.parse().ok()?;
    let mon = parts.next()?;
    let month = MONTH_NAMES
        .iter()
        .position(|m| m.eq_ignore_ascii_case(mon))? as u32
        + 1;
    let year: i64 = parts.next()?.parse().ok()?;
    let mut hms = parts.next()?.split(':');
    let hh: i64 = hms.next()?.parse().ok()?;
    let mm: i64 = hms.next()?.parse().ok()?;
    let ss: i64 = hms.next()?.parse().ok()?;
    if !(1..=31).contains(&day) || hh > 23 || mm > 59 || ss > 60 {
        return None;
    }
    let secs = days_from_civil(year, month, day) * 86_400 + hh * 3600 + mm * 60 + ss;
    // Pre-epoch dates cannot arise from our own formatter; treat them
    // as the epoch rather than failing.
    Some(UNIX_EPOCH + std::time::Duration::from_secs(secs.max(0) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(secs: u64) -> SystemTime {
        UNIX_EPOCH + Duration::from_secs(secs)
    }

    #[test]
    fn epoch_formats() {
        assert_eq!(format_http_date(at(0)), "Thu, 01 Jan 1970 00:00:00 GMT");
        assert_eq!(format_iso8601(at(0)), "1970-01-01T00:00:00Z");
    }

    #[test]
    fn known_dates() {
        // 1994-11-06 08:49:37 UTC — the RFC 1123 example.
        assert_eq!(
            format_http_date(at(784_111_777)),
            "Sun, 06 Nov 1994 08:49:37 GMT"
        );
        // The paper's Ecce 2.0 release month: July 2001.
        assert_eq!(format_iso8601(at(994_000_000)), "2001-07-01T15:06:40Z");
    }

    #[test]
    fn leap_year_handling() {
        // 2000-02-29 (leap day in a century leap year).
        assert_eq!(format_iso8601(at(951_782_400)), "2000-02-29T00:00:00Z");
        // 2100 is NOT a leap year: 2100-03-01 follows 2100-02-28.
        let feb28_2100: i64 = 4_107_456_000;
        assert_eq!(
            format_iso8601(at(feb28_2100 as u64)),
            "2100-02-28T00:00:00Z"
        );
        assert_eq!(
            format_iso8601(at((feb28_2100 + 86_400) as u64)),
            "2100-03-01T00:00:00Z"
        );
    }

    #[test]
    fn http_date_round_trips() {
        for secs in [0u64, 784_111_777, 951_782_400, 994_000_000, 4_107_456_000] {
            let t = at(secs);
            assert_eq!(parse_http_date(&format_http_date(t)), Some(t));
        }
        // Weekday and case are not load-bearing.
        assert_eq!(
            parse_http_date("Xxx, 06 NOV 1994 08:49:37 GMT"),
            Some(at(784_111_777))
        );
        assert_eq!(parse_http_date("not a date"), None);
        assert_eq!(parse_http_date(""), None);
        assert_eq!(parse_http_date("Sun, 99 Nov 1994 08:49:37 GMT"), None);
    }

    #[test]
    fn iso8601_round_trips() {
        for secs in [0u64, 784_111_777, 951_782_400, 994_000_000, 4_107_456_000] {
            let t = at(secs);
            assert_eq!(parse_iso8601(&format_iso8601(t)), Some(t));
        }
        assert_eq!(parse_iso8601("2001-13-01T00:00:00Z"), None);
        assert_eq!(parse_iso8601("2001-07-01T15:06:40"), None);
        assert_eq!(parse_iso8601(""), None);
    }

    #[test]
    fn etag_varies_with_meta() {
        let m1 = ResourceMeta {
            is_collection: false,
            content_length: 10,
            modified: at(100),
            created: at(100),
            content_type: None,
        };
        let mut m2 = m1.clone();
        m2.content_length = 11;
        assert_ne!(m1.etag(), m2.etag());
        let mut m3 = m1.clone();
        m3.modified = at(101);
        assert_ne!(m1.etag(), m3.etag());
    }

    /// A named read answered from the index still answers `NotFound`
    /// for a path that DELETE or MOVE removed, though the path held
    /// index entries before.
    #[test]
    fn named_reads_of_removed_paths_are_not_found() {
        let dir = std::env::temp_dir().join(format!("pse-repo-removed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = crate::fsrepo::FsRepository::create(&dir, Default::default()).unwrap();
        let mem = crate::memrepo::MemRepository::new();
        let name = PropertyName::new("urn:x", "p");
        let names = std::slice::from_ref(&name);
        for repo in [&fs as &dyn Repository, &mem] {
            repo.mkcol("/c").unwrap();
            repo.put("/c/doc", b"x", None).unwrap();
            repo.put("/moved", b"x", None).unwrap();
            for path in ["/c", "/c/doc", "/moved"] {
                repo.set_prop(path, &Property::text(name.clone(), path))
                    .unwrap();
            }
            repo.delete("/c").unwrap();
            repo.rename("/moved", "/there", false).unwrap();
            for path in ["/c", "/c/doc", "/moved"] {
                let got = repo.get_props(path, names);
                assert!(matches!(got, Err(DavError::NotFound(_))), "{path} {got:?}");
            }
            assert_eq!(
                repo.get_props("/there", names).unwrap(),
                [Some(Property::text(name.clone(), "/moved"))]
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `set_prop` is a one-instruction PROPPATCH, so it refuses a live
    /// name as PROPPATCH does, and stores nothing.
    #[test]
    fn set_prop_refuses_a_live_name() {
        let dir = std::env::temp_dir().join(format!("pse-repo-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = crate::fsrepo::FsRepository::create(&dir, Default::default()).unwrap();
        let mem = crate::memrepo::MemRepository::new();
        let etag = PropertyName::dav("getetag");
        for repo in [&fs as &dyn Repository, &mem] {
            repo.put("/doc", b"x", None).unwrap();
            let before = repo.meta("/doc").unwrap().etag();
            let got = repo.set_prop("/doc", &Property::text(etag.clone(), "\"forged\""));
            assert!(matches!(got, Err(DavError::BadRequest(_))), "{got:?}");
            assert!(repo.list_props("/doc").unwrap().is_empty());
            assert_eq!(repo.meta("/doc").unwrap().etag(), before);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_hook_sees_canonical_paths_and_its_error_reaches_the_caller() {
        use std::sync::Mutex;
        let repo = crate::memrepo::MemRepository::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        repo.set_commit_hook(move |change| {
            log.lock().unwrap().push(format!("{change:?}"));
            match change {
                Change::PatchProps { .. }
                | Change::VersionControl { .. }
                | Change::Checkin { .. } => Err(DavError::BadRequest("hook refused".into())),
                _ => Ok(()),
            }
        });
        repo.mkcol("/c//").unwrap();
        let name = PropertyName::new("urn:x", "p");
        let prop = Property::text(name.clone(), "v");
        // The mutation stays applied; the hook's error is the caller's.
        assert!(matches!(
            repo.set_prop("/c", &prop),
            Err(DavError::BadRequest(_))
        ));
        assert_eq!(
            repo.get_prop("/c", &name).unwrap().unwrap().text_value(),
            "v"
        );
        let (i, e) = repo
            .patch_props("/c", &[PropPatchOp::Remove(name)])
            .unwrap_err();
        assert_eq!(i, 0);
        assert!(matches!(e, DavError::BadRequest(_)));
        // So do the DeltaV operations, which report through the same hook.
        repo.put("/c/doc", b"v1", None).unwrap();
        let vc = repo.version_control("//c/doc", None);
        assert!(matches!(vc, Err(DavError::BadRequest(_))), "{vc:?}");
        repo.checkout("/c/doc").unwrap();
        let ci = repo.checkin("/c/doc", None);
        assert!(matches!(ci, Err(DavError::BadRequest(_))), "{ci:?}");
        assert_eq!(repo.versions().version_count("/c/doc"), 2);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 7, "{seen:?}");
        assert!(seen[0].starts_with("Mkcol { path: \"/c\""), "{seen:?}");
        assert!(
            seen[4].starts_with("VersionControl { path: \"/c/doc\""),
            "{seen:?}"
        );
    }
}
