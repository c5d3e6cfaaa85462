//! Timing decorators the traced run slips between layers. Both forward
//! every call unchanged; when switched off they only forward.
//!
//! * [`TimedStorage`] sits between `DavEcceStore` and `DavStorage`
//!   (client side): one span per Data Storage Interface call.
//! * [`TimedRepo`] sits between `DavHandler` and `FsRepository` (server
//!   side): per-category call counts, self time and bytes.

use crate::trace::Tracer;
use pse_dav::error::DavError;
use pse_dav::property::{Property, PropertyName};
use pse_dav::propindex::Probe;
use pse_dav::repo::{PropPatchOp, Repository, ResourceMeta, StageStatus};
use pse_ecce::dsi::DataStorage;
use pse_ecce::Result as EcceResult;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---- client side: the Data Storage Interface ----

/// A [`DataStorage`] that records a `dsi.<call>` span per call.
pub struct TimedStorage<S: DataStorage> {
    inner: S,
    /// This client's span recorder.
    pub tracer: Tracer,
    /// Paths returned by `find_by_meta` while tracing (SEARCH hits).
    pub search_hits: u64,
}

impl<S: DataStorage> TimedStorage<S> {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: Tracer) -> TimedStorage<S> {
        TimedStorage {
            inner,
            tracer,
            search_hits: 0,
        }
    }
}

macro_rules! span {
    ($self:ident, $name:literal, $call:expr) => {{
        let h = $self.tracer.child($name);
        let out = $call;
        $self.tracer.end(h);
        out
    }};
}

impl<S: DataStorage> DataStorage for TimedStorage<S> {
    fn make_collection(&mut self, path: &str) -> EcceResult<()> {
        span!(
            self,
            "dsi.make_collection",
            self.inner.make_collection(path)
        )
    }
    fn write(&mut self, path: &str, data: &[u8], ct: Option<&str>) -> EcceResult<()> {
        span!(self, "dsi.write", self.inner.write(path, data, ct))
    }
    fn read(&mut self, path: &str) -> EcceResult<Vec<u8>> {
        span!(self, "dsi.read", self.inner.read(path))
    }
    fn delete(&mut self, path: &str) -> EcceResult<()> {
        span!(self, "dsi.delete", self.inner.delete(path))
    }
    fn copy(&mut self, src: &str, dst: &str) -> EcceResult<()> {
        span!(self, "dsi.copy", self.inner.copy(src, dst))
    }
    fn relocate(&mut self, src: &str, dst: &str) -> EcceResult<()> {
        span!(self, "dsi.relocate", self.inner.relocate(src, dst))
    }
    fn exists(&mut self, path: &str) -> EcceResult<bool> {
        span!(self, "dsi.exists", self.inner.exists(path))
    }
    fn list(&mut self, path: &str) -> EcceResult<Vec<String>> {
        span!(self, "dsi.list", self.inner.list(path))
    }
    fn set_meta(&mut self, path: &str, key: &str, value: &str) -> EcceResult<()> {
        span!(self, "dsi.set_meta", self.inner.set_meta(path, key, value))
    }
    fn get_meta(&mut self, path: &str, key: &str) -> EcceResult<Option<String>> {
        span!(self, "dsi.get_meta", self.inner.get_meta(path, key))
    }
    fn get_meta_bulk(&mut self, path: &str, keys: &[&str]) -> EcceResult<Vec<Option<String>>> {
        span!(
            self,
            "dsi.get_meta_bulk",
            self.inner.get_meta_bulk(path, keys)
        )
    }
    fn remove_meta(&mut self, path: &str, key: &str) -> EcceResult<()> {
        span!(self, "dsi.remove_meta", self.inner.remove_meta(path, key))
    }
    fn children_meta(
        &mut self,
        path: &str,
        keys: &[&str],
    ) -> EcceResult<Vec<(String, Vec<Option<String>>)>> {
        span!(
            self,
            "dsi.children_meta",
            self.inner.children_meta(path, keys)
        )
    }
    fn find_by_meta(&mut self, scope: &str, key: &str, value: &str) -> EcceResult<Vec<String>> {
        let hits = span!(
            self,
            "dsi.find_by_meta",
            self.inner.find_by_meta(scope, key, value)
        );
        if let (true, Ok(h)) = (self.tracer.enabled(), &hits) {
            self.search_hits += h.len() as u64;
        }
        hits
    }
    fn supports_versioning(&mut self) -> bool {
        self.inner.supports_versioning()
    }
    fn version_control(&mut self, path: &str) -> EcceResult<()> {
        span!(
            self,
            "dsi.version_control",
            self.inner.version_control(path)
        )
    }
    fn checkout(&mut self, path: &str) -> EcceResult<()> {
        span!(self, "dsi.checkout", self.inner.checkout(path))
    }
    fn checkin(&mut self, path: &str) -> EcceResult<u32> {
        span!(self, "dsi.checkin", self.inner.checkin(path))
    }
    fn list_versions(&mut self, path: &str) -> EcceResult<Vec<u32>> {
        span!(self, "dsi.list_versions", self.inner.list_versions(path))
    }
    fn read_version(&mut self, path: &str, version: u32) -> EcceResult<Vec<u8>> {
        span!(
            self,
            "dsi.read_version",
            self.inner.read_version(path, version)
        )
    }
    fn revert_to(&mut self, path: &str, version: u32) -> EcceResult<()> {
        span!(self, "dsi.revert_to", self.inner.revert_to(path, version))
    }
}

// ---- server side: the repository ----

/// Counters a [`TimedRepo`] accumulates. Times are self times: a call
/// made from inside another timed call (a SEARCH walk visiting each
/// resource's properties) is charged to itself, not to its caller.
#[derive(Debug, Default)]
pub struct RepoStats {
    /// Record anything at all?
    pub enabled: AtomicBool,
    /// Every repository call.
    pub calls: AtomicU64,
    /// `get`: self time and body bytes returned.
    pub get_ns: AtomicU64,
    pub get_bytes: AtomicU64,
    /// `put`: self time and body bytes stored.
    pub put_ns: AtomicU64,
    pub put_bytes: AtomicU64,
    /// Dead/live property reads and writes.
    pub props_ns: AtomicU64,
    pub props_calls: AtomicU64,
    /// Subtree walks.
    pub walk_ns: AtomicU64,
    pub walk_calls: AtomicU64,
    /// Secondary-index probes and the candidate paths they returned.
    pub probe_ns: AtomicU64,
    pub probe_calls: AtomicU64,
    pub probe_candidates: AtomicU64,
}

thread_local! {
    /// Time spent in timed calls nested inside the current one.
    static NESTED_NS: Cell<u64> = const { Cell::new(0) };
}

/// A [`Repository`] that times every call into the wrapped one.
pub struct TimedRepo<R: Repository> {
    inner: R,
    stats: Arc<RepoStats>,
}

impl<R: Repository> TimedRepo<R> {
    /// Wrap `inner`, accumulating into `stats`.
    pub fn new(inner: R, stats: Arc<RepoStats>) -> TimedRepo<R> {
        TimedRepo { inner, stats }
    }

    /// Run `f`; when enabled, count the call and return its self time.
    fn time<T>(&self, f: impl FnOnce(&R) -> T) -> (T, Option<u64>) {
        if !self.stats.enabled.load(Ordering::Relaxed) {
            return (f(&self.inner), None);
        }
        let outer = NESTED_NS.with(|n| n.replace(0));
        let t0 = Instant::now();
        let out = f(&self.inner);
        let total = t0.elapsed().as_nanos() as u64;
        let nested = NESTED_NS.with(|n| n.replace(outer + total));
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        (out, Some(total.saturating_sub(nested)))
    }

    fn other<T>(&self, f: impl FnOnce(&R) -> T) -> T {
        self.time(f).0
    }

    fn props<T>(&self, f: impl FnOnce(&R) -> T) -> T {
        let (out, ns) = self.time(f);
        if let Some(ns) = ns {
            self.stats.props_ns.fetch_add(ns, Ordering::Relaxed);
            self.stats.props_calls.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl<R: Repository> Repository for TimedRepo<R> {
    fn register_obs(&self, registry: &Arc<pse_obs::Registry>) {
        self.inner.register_obs(registry)
    }
    fn exists(&self, path: &str) -> bool {
        self.other(|r| r.exists(path))
    }
    fn meta(&self, path: &str) -> pse_dav::Result<ResourceMeta> {
        self.other(|r| r.meta(path))
    }
    fn get(&self, path: &str) -> pse_dav::Result<Vec<u8>> {
        let (out, ns) = self.time(|r| r.get(path));
        if let (Some(ns), Ok(body)) = (ns, &out) {
            self.stats.get_ns.fetch_add(ns, Ordering::Relaxed);
            self.stats
                .get_bytes
                .fetch_add(body.len() as u64, Ordering::Relaxed);
        }
        out
    }
    fn put(&self, path: &str, data: &[u8], ct: Option<&str>) -> pse_dav::Result<bool> {
        let (out, ns) = self.time(|r| r.put(path, data, ct));
        if let Some(ns) = ns {
            self.stats.put_ns.fetch_add(ns, Ordering::Relaxed);
            self.stats
                .put_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        out
    }
    fn mkcol(&self, path: &str) -> pse_dav::Result<()> {
        self.other(|r| r.mkcol(path))
    }
    fn delete(&self, path: &str) -> pse_dav::Result<()> {
        self.other(|r| r.delete(path))
    }
    fn copy(&self, src: &str, dst: &str, overwrite: bool) -> pse_dav::Result<bool> {
        self.other(|r| r.copy(src, dst, overwrite))
    }
    fn rename(&self, src: &str, dst: &str, overwrite: bool) -> pse_dav::Result<bool> {
        self.other(|r| r.rename(src, dst, overwrite))
    }
    fn list(&self, path: &str) -> pse_dav::Result<Vec<String>> {
        self.other(|r| r.list(path))
    }
    fn get_prop(&self, path: &str, name: &PropertyName) -> pse_dav::Result<Option<Property>> {
        self.props(|r| r.get_prop(path, name))
    }
    fn list_props(&self, path: &str) -> pse_dav::Result<Vec<PropertyName>> {
        self.props(|r| r.list_props(path))
    }
    fn set_prop(&self, path: &str, prop: &Property) -> pse_dav::Result<()> {
        self.props(|r| r.set_prop(path, prop))
    }
    fn remove_prop(&self, path: &str, name: &PropertyName) -> pse_dav::Result<bool> {
        self.props(|r| r.remove_prop(path, name))
    }
    fn disk_usage(&self) -> pse_dav::Result<u64> {
        self.other(|r| r.disk_usage())
    }
    fn stage_status(&self, path: &str) -> pse_dav::Result<Option<StageStatus>> {
        self.other(|r| r.stage_status(path))
    }
    fn stage_append(
        &self,
        path: &str,
        offset: u64,
        total: u64,
        data: &[u8],
    ) -> pse_dav::Result<StageStatus> {
        self.other(|r| r.stage_append(path, offset, total, data))
    }
    fn stage_copy_from(
        &self,
        path: &str,
        offset: u64,
        total: u64,
        src: &str,
        src_start: u64,
        src_len: u64,
    ) -> pse_dav::Result<StageStatus> {
        self.other(|r| r.stage_copy_from(path, offset, total, src, src_start, src_len))
    }
    fn stage_commit(&self, path: &str, ct: Option<&str>) -> pse_dav::Result<bool> {
        self.other(|r| r.stage_commit(path, ct))
    }
    fn stage_abort(&self, path: &str) -> pse_dav::Result<()> {
        self.other(|r| r.stage_abort(path))
    }
    fn live_props(&self, path: &str) -> pse_dav::Result<Vec<Property>> {
        self.props(|r| r.live_props(path))
    }
    fn get_props(
        &self,
        path: &str,
        names: &[PropertyName],
    ) -> pse_dav::Result<Vec<Option<Property>>> {
        self.props(|r| r.get_props(path, names))
    }
    fn patch_props(&self, path: &str, ops: &[PropPatchOp]) -> Result<(), (usize, DavError)> {
        self.props(|r| r.patch_props(path, ops))
    }
    fn all_props(&self, path: &str) -> pse_dav::Result<Vec<Property>> {
        self.props(|r| r.all_props(path))
    }
    fn walk(
        &self,
        path: &str,
        max_depth: Option<u32>,
        visit: &mut dyn FnMut(&str),
    ) -> pse_dav::Result<()> {
        let (out, ns) = self.time(|r| r.walk(path, max_depth, visit));
        if let Some(ns) = ns {
            self.stats.walk_ns.fetch_add(ns, Ordering::Relaxed);
            self.stats.walk_calls.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
    fn index_probe(&self, probe: &Probe) -> Option<Vec<String>> {
        let (out, ns) = self.time(|r| r.index_probe(probe));
        if let Some(ns) = ns {
            self.stats.probe_ns.fetch_add(ns, Ordering::Relaxed);
            self.stats.probe_calls.fetch_add(1, Ordering::Relaxed);
            let n = out.as_ref().map_or(0, Vec::len) as u64;
            self.stats.probe_candidates.fetch_add(n, Ordering::Relaxed);
        }
        out
    }
}
