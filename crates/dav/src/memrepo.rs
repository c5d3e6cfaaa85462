//! An in-memory repository — the reference implementation of
//! [`Repository`](crate::repo::Repository) used by unit tests and as the semantic model the
//! filesystem repository is checked against.
//!
//! [`MemRepository`] is [`MemStore`] under the shared lock-and-index
//! layer [`Repo`], so tests that model concurrent workloads against it
//! exercise the same locking protocol the filesystem repository runs.
//! The node table itself sits behind one short-lived mutex, and every
//! compound operation (notably MOVE = copy + delete) executes in a
//! *single* critical section — no observer can see a move's halfway
//! state.

use crate::error::{DavError, Result};
use crate::pathlock::{PathLocks, DEFAULT_SHARDS};
use crate::property::{Property, PropertyName};
use crate::propindex::PropIndex;
use crate::repo::{live_props_from_meta, PropPatchOp, Repo, ResourceMeta, StageStatus, Store};
use parking_lot::Mutex;
use pse_http::uri::parent_path;
use std::collections::{BTreeMap, HashMap};
use std::time::SystemTime;

#[derive(Debug, Clone)]
struct MemNode {
    is_collection: bool,
    data: Vec<u8>,
    content_type: Option<String>,
    created: SystemTime,
    modified: SystemTime,
    props: BTreeMap<PropertyName, Property>,
}

impl MemNode {
    fn collection() -> MemNode {
        let now = SystemTime::now();
        MemNode {
            is_collection: true,
            data: Vec::new(),
            content_type: None,
            created: now,
            modified: now,
            props: BTreeMap::new(),
        }
    }

    fn document(data: Vec<u8>, content_type: Option<&str>) -> MemNode {
        MemNode {
            is_collection: false,
            data,
            content_type: content_type.map(str::to_owned),
            ..MemNode::collection()
        }
    }

    /// Replace the body of an existing document.
    fn overwrite(&mut self, data: Vec<u8>, content_type: Option<&str>) {
        self.data = data;
        self.modified = SystemTime::now();
        if content_type.is_some() {
            self.content_type = content_type.map(str::to_owned);
        }
    }

    fn meta(&self) -> ResourceMeta {
        ResourceMeta {
            is_collection: self.is_collection,
            content_length: self.data.len() as u64,
            modified: self.modified,
            created: self.created,
            content_type: self.content_type.clone(),
        }
    }
}

/// An in-progress resumable upload (see the `stage_*` trait methods).
#[derive(Debug, Default)]
struct MemStage {
    data: Vec<u8>,
    total: u64,
}

/// A heap-backed DAV repository.
pub type MemRepository = Repo<MemStore>;

/// The node table behind [`MemRepository`].
#[derive(Debug)]
pub struct MemStore {
    nodes: Mutex<HashMap<String, MemNode>>,
    /// Staged (resumable) uploads by target path — separate from the
    /// node table so an abandoned stage never shadows a live resource.
    /// Lock order where both are held: `stages` before `nodes`.
    stages: Mutex<HashMap<String, MemStage>>,
}

impl Default for Repo<MemStore> {
    fn default() -> MemRepository {
        MemRepository::new()
    }
}

impl Repo<MemStore> {
    /// A repository containing only the root collection.
    pub fn new() -> MemRepository {
        MemRepository::with_locks(DEFAULT_SHARDS, false)
    }

    /// Like [`new`](MemRepository::new) with an explicit lock-table
    /// shape — `global` restores whole-repository serialisation (the
    /// ablation baseline the concurrency tests compare against).
    pub fn with_locks(shards: usize, global: bool) -> MemRepository {
        let store = MemStore {
            nodes: Mutex::new(HashMap::from([("/".to_owned(), MemNode::collection())])),
            stages: Mutex::new(HashMap::new()),
        };
        Repo::from_parts(store, PathLocks::new(shards, global), PropIndex::new())
    }
}

impl MemStore {
    fn descendants(nodes: &HashMap<String, MemNode>, path: &str) -> Vec<String> {
        nodes
            .keys()
            .filter(|p| {
                p.as_str() != path
                    && p.starts_with(path)
                    && (path == "/" || p.as_bytes().get(path.len()) == Some(&b'/'))
            })
            .cloned()
            .collect()
    }

    fn require_parent_in(nodes: &HashMap<String, MemNode>, path: &str) -> Result<()> {
        let parent = parent_path(path);
        if parent != path && !nodes.get(&parent).map(|n| n.is_collection).unwrap_or(false) {
            return Err(DavError::Conflict(parent));
        }
        Ok(())
    }

    /// Remove `path` and its subtree from the table.
    fn delete_in(nodes: &mut HashMap<String, MemNode>, path: &str) -> Result<()> {
        if nodes.remove(path).is_none() {
            return Err(DavError::NotFound(path.to_owned()));
        }
        for p in Self::descendants(nodes, path) {
            nodes.remove(&p);
        }
        Ok(())
    }

    /// Copy `src`'s subtree over `dst` inside one critical section.
    fn copy_in(
        nodes: &mut HashMap<String, MemNode>,
        src: &str,
        dst: &str,
        overwrite: bool,
    ) -> Result<bool> {
        if !nodes.contains_key(src) {
            return Err(DavError::NotFound(src.to_owned()));
        }
        Self::require_parent_in(nodes, dst)?;
        let existed = nodes.contains_key(dst);
        if existed && !overwrite {
            return Err(DavError::PreconditionFailed(format!("{dst} exists")));
        }
        if existed {
            Self::delete_in(nodes, dst)?;
        }
        let mut to_copy = vec![src.to_owned()];
        to_copy.extend(Self::descendants(nodes, src));
        for p in to_copy {
            let node = nodes.get(&p).expect("listed above").clone();
            let suffix = &p[src.len()..];
            nodes.insert(format!("{dst}{suffix}"), node);
        }
        Ok(!existed)
    }

    /// Run `f` on the node at `path`; `NotFound` when absent.
    fn with_node<T>(&self, path: &str, f: impl FnOnce(&MemNode) -> T) -> Result<T> {
        let nodes = self.nodes.lock();
        let n = nodes
            .get(path)
            .ok_or_else(|| DavError::NotFound(path.to_owned()))?;
        Ok(f(n))
    }

    /// Run `f` on the node at `path` mutably; `NotFound` when absent.
    fn with_node_mut<T>(&self, path: &str, f: impl FnOnce(&mut MemNode) -> T) -> Result<T> {
        let mut nodes = self.nodes.lock();
        let n = nodes
            .get_mut(path)
            .ok_or_else(|| DavError::NotFound(path.to_owned()))?;
        Ok(f(n))
    }

    /// Enforce the resumable-upload contract (offset == staged length,
    /// consistent total, no write past the total) and append `data` to
    /// the stage for `path`, creating it when `offset` is 0.
    fn stage_append_in(
        stages: &mut HashMap<String, MemStage>,
        path: &str,
        offset: u64,
        total: u64,
        data: &[u8],
    ) -> Result<StageStatus> {
        if !stages.contains_key(path) {
            if offset != 0 {
                return Err(DavError::StageMismatch { staged: 0 });
            }
            stages.insert(
                path.to_owned(),
                MemStage {
                    data: Vec::new(),
                    total,
                },
            );
        }
        let stage = stages.get_mut(path).expect("present or just inserted");
        if stage.total != total {
            return Err(DavError::BadRequest(format!(
                "staged total is {} bytes, request declared {total}",
                stage.total
            )));
        }
        let staged = stage.data.len() as u64;
        if offset != staged {
            return Err(DavError::StageMismatch { staged });
        }
        if staged + data.len() as u64 > total {
            return Err(DavError::BadRequest(format!(
                "append of {} bytes at {staged} passes the declared total {total}",
                data.len()
            )));
        }
        stage.data.extend_from_slice(data);
        Ok(StageStatus {
            staged: stage.data.len() as u64,
            total,
        })
    }
}

impl Store for MemStore {
    fn exists(&self, path: &str) -> bool {
        self.nodes.lock().contains_key(path)
    }

    fn is_collection(&self, path: &str) -> bool {
        self.nodes.lock().get(path).is_some_and(|n| n.is_collection)
    }

    fn meta(&self, path: &str) -> Result<ResourceMeta> {
        self.with_node(path, MemNode::meta)
    }

    fn get(&self, path: &str) -> Result<Vec<u8>> {
        self.with_node(path, |n| {
            if n.is_collection {
                return Err(DavError::Conflict(format!("{path} is a collection")));
            }
            Ok(n.data.clone())
        })?
    }

    fn put(&self, path: &str, data: &[u8], content_type: Option<&str>) -> Result<bool> {
        let mut nodes = self.nodes.lock();
        Self::require_parent_in(&nodes, path)?;
        match nodes.get_mut(path) {
            Some(n) if n.is_collection => {
                Err(DavError::Conflict(format!("{path} is a collection")))
            }
            Some(n) => {
                n.overwrite(data.to_vec(), content_type);
                Ok(false)
            }
            None => {
                nodes.insert(
                    path.to_owned(),
                    MemNode::document(data.to_vec(), content_type),
                );
                Ok(true)
            }
        }
    }

    fn mkcol(&self, path: &str) -> Result<()> {
        let mut nodes = self.nodes.lock();
        Self::require_parent_in(&nodes, path)?;
        if nodes.contains_key(path) {
            return Err(DavError::PreconditionFailed(format!("{path} exists")));
        }
        nodes.insert(path.to_owned(), MemNode::collection());
        Ok(())
    }

    fn delete(&self, path: &str) -> Result<()> {
        Self::delete_in(&mut self.nodes.lock(), path)
    }

    fn copy(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool> {
        Self::copy_in(&mut self.nodes.lock(), src, dst, overwrite)
    }

    fn rename(&self, src: &str, dst: &str, overwrite: bool) -> Result<bool> {
        // Copy + delete in ONE critical section: no observer can see the
        // resource at both paths (or neither).
        let mut nodes = self.nodes.lock();
        let created = Self::copy_in(&mut nodes, src, dst, overwrite)?;
        Self::delete_in(&mut nodes, src)?;
        Ok(created)
    }

    fn list(&self, path: &str) -> Result<Vec<String>> {
        let nodes = self.nodes.lock();
        let node = nodes
            .get(path)
            .ok_or_else(|| DavError::NotFound(path.to_owned()))?;
        if !node.is_collection {
            return Err(DavError::Conflict(format!("{path} is not a collection")));
        }
        let mut out: Vec<String> = nodes
            .keys()
            .filter(|p| p.as_str() != path && parent_path(p) == path)
            .map(|p| pse_http::uri::basename(p).to_owned())
            .collect();
        out.sort();
        Ok(out)
    }

    fn get_prop(&self, path: &str, name: &PropertyName) -> Result<Option<Property>> {
        self.with_node(path, |n| n.props.get(name).cloned())
    }

    fn get_props(&self, path: &str, names: &[PropertyName]) -> Result<Vec<Option<Property>>> {
        self.with_node(path, |n| {
            names.iter().map(|nm| n.props.get(nm).cloned()).collect()
        })
    }

    fn list_props(&self, path: &str) -> Result<Vec<PropertyName>> {
        self.with_node(path, |n| n.props.keys().cloned().collect())
    }

    fn all_props(&self, path: &str) -> Result<Vec<Property>> {
        // One critical section: the live + dead view PROPFIND serves is
        // a consistent snapshot of the node.
        self.with_node(path, |n| {
            let mut props = live_props_from_meta(path, &n.meta());
            props.extend(n.props.values().cloned());
            props
        })
    }

    fn index_entries(&self, path: &str) -> Result<Vec<Property>> {
        self.with_node(path, |n| n.props.values().cloned().collect())
    }

    fn set_prop(&self, path: &str, prop: &Property) -> Result<()> {
        self.with_node_mut(path, |n| {
            n.props.insert(prop.name.clone(), prop.clone());
            // Metadata edits advance the modification time so ETags and
            // Last-Modified reflect PROPPATCH, matching the fs repository.
            n.modified = SystemTime::now();
        })
    }

    fn remove_prop(&self, path: &str, name: &PropertyName) -> Result<bool> {
        self.with_node_mut(path, |n| {
            let removed = n.props.remove(name).is_some();
            if removed {
                n.modified = SystemTime::now();
            }
            removed
        })
    }

    fn patch_props(
        &self,
        path: &str,
        ops: &[PropPatchOp],
    ) -> std::result::Result<(), (usize, DavError)> {
        // Validate, then apply everything in one critical section: a
        // PROPFIND sees the property set before the whole patch or
        // after it, never between instructions.
        self.with_node_mut(path, |n| {
            if let Some(i) = ops
                .iter()
                .position(|op| matches!(op, PropPatchOp::Set(p) if p.name.is_live()))
            {
                return Err((i, DavError::BadRequest("cannot set a live property".into())));
            }
            let mut changed = false;
            for op in ops {
                changed |= match op {
                    PropPatchOp::Set(p) => {
                        n.props.insert(p.name.clone(), p.clone());
                        true
                    }
                    PropPatchOp::Remove(name) => n.props.remove(name).is_some(),
                };
            }
            if changed {
                n.modified = SystemTime::now();
            }
            Ok(())
        })
        .map_err(|e| (0, e))?
    }

    fn stage_status(&self, path: &str) -> Result<Option<StageStatus>> {
        Ok(self.stages.lock().get(path).map(|s| StageStatus {
            staged: s.data.len() as u64,
            total: s.total,
        }))
    }

    fn stage_append(
        &self,
        path: &str,
        offset: u64,
        total: u64,
        data: &[u8],
    ) -> Result<StageStatus> {
        Self::stage_append_in(&mut self.stages.lock(), path, offset, total, data)
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
        let chunk = self.with_node(src, |n| {
            if n.is_collection {
                return Err(DavError::Conflict(format!("{src} is a collection")));
            }
            let slen = n.data.len() as u64;
            if src_start
                .checked_add(src_len)
                .map_or(true, |end| end > slen)
            {
                return Err(DavError::BadRequest(format!(
                    "source range {src_start}+{src_len} exceeds {slen}-byte {src}"
                )));
            }
            Ok(n.data[src_start as usize..(src_start + src_len) as usize].to_vec())
        })??;
        Self::stage_append_in(&mut self.stages.lock(), path, offset, total, &chunk)
    }

    fn stage_commit(&self, path: &str, content_type: Option<&str>) -> Result<bool> {
        // Lock order: stages before nodes (documented on the field).
        let mut stages = self.stages.lock();
        let mut nodes = self.nodes.lock();
        let stage = stages
            .get(path)
            .ok_or_else(|| DavError::Conflict(format!("no staged upload for {path}")))?;
        if stage.data.len() as u64 != stage.total {
            return Err(DavError::Conflict(format!(
                "staged upload for {path} incomplete: {} of {} bytes",
                stage.data.len(),
                stage.total
            )));
        }
        Self::require_parent_in(&nodes, path)?;
        if nodes.get(path).is_some_and(|n| n.is_collection) {
            return Err(DavError::Conflict(format!("{path} is a collection")));
        }
        let data = stages.remove(path).expect("checked above").data;
        match nodes.get_mut(path) {
            Some(n) => {
                n.overwrite(data, content_type);
                Ok(false)
            }
            None => {
                nodes.insert(path.to_owned(), MemNode::document(data, content_type));
                Ok(true)
            }
        }
    }

    fn stage_abort(&self, path: &str) -> Result<()> {
        self.stages.lock().remove(path);
        Ok(())
    }

    fn disk_usage(&self) -> Result<u64> {
        let nodes = self.nodes.lock();
        Ok(nodes
            .values()
            .map(|n| {
                n.data.len() as u64
                    + n.props
                        .values()
                        .map(|p| p.to_storage().len() as u64)
                        .sum::<u64>()
            })
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::Repository;

    #[test]
    fn crud_cycle() {
        let r = MemRepository::new();
        assert!(r.exists("/"));
        r.mkcol("/proj").unwrap();
        assert!(r.put("/proj/doc", b"data", Some("text/plain")).unwrap());
        assert!(!r.put("/proj/doc", b"data2", None).unwrap());
        assert_eq!(r.get("/proj/doc").unwrap(), b"data2");
        let meta = r.meta("/proj/doc").unwrap();
        assert!(!meta.is_collection);
        assert_eq!(meta.content_length, 5);
        assert_eq!(meta.content_type.as_deref(), Some("text/plain"));
        r.delete("/proj").unwrap();
        assert!(!r.exists("/proj/doc"));
    }

    #[test]
    fn put_requires_parent() {
        let r = MemRepository::new();
        assert!(matches!(
            r.put("/missing/doc", b"x", None),
            Err(DavError::Conflict(_))
        ));
        assert!(matches!(r.mkcol("/a/b"), Err(DavError::Conflict(_))));
    }

    #[test]
    fn mkcol_on_existing_fails() {
        let r = MemRepository::new();
        r.mkcol("/a").unwrap();
        assert!(r.mkcol("/a").is_err());
    }

    #[test]
    fn copy_subtree_with_props() {
        let r = MemRepository::new();
        r.mkcol("/src").unwrap();
        r.put("/src/d", b"x", None).unwrap();
        r.set_prop(
            "/src/d",
            &Property::text(PropertyName::new("u:n", "k"), "v"),
        )
        .unwrap();
        assert!(r.copy("/src", "/dst", false).unwrap());
        assert_eq!(r.get("/dst/d").unwrap(), b"x");
        assert_eq!(
            r.get_prop("/dst/d", &PropertyName::new("u:n", "k"))
                .unwrap()
                .unwrap()
                .text_value(),
            "v"
        );
        // Source untouched.
        assert!(r.exists("/src/d"));
        // No-overwrite refuses.
        assert!(r.copy("/src", "/dst", false).is_err());
        // Overwrite replaces (and returns created=false).
        assert!(!r.copy("/src", "/dst", true).unwrap());
    }

    #[test]
    fn overlapping_copy_and_move_are_rejected_intact() {
        let r = MemRepository::new();
        r.mkcol("/src").unwrap();
        r.put("/src/d", b"x", None).unwrap();
        // Onto itself, into its own subtree, and over an ancestor: all
        // three destroyed the source before this guard existed.
        assert!(r.copy("/src", "/src", true).is_err());
        assert!(r.copy("/src", "/src/inner", true).is_err());
        assert!(r.rename("/src/d", "/src/d", true).is_err());
        assert!(r.rename("/src", "/src/d", true).is_err());
        assert!(r.copy("/src/d", "/src", true).is_err());
        assert_eq!(r.get("/src/d").unwrap(), b"x");
    }

    #[test]
    fn rename_moves() {
        let r = MemRepository::new();
        r.mkcol("/a").unwrap();
        r.put("/a/f", b"1", None).unwrap();
        r.rename("/a", "/b", false).unwrap();
        assert!(!r.exists("/a"));
        assert_eq!(r.get("/b/f").unwrap(), b"1");
    }

    #[test]
    fn list_children_sorted() {
        let r = MemRepository::new();
        r.mkcol("/c").unwrap();
        r.put("/c/z", b"", None).unwrap();
        r.put("/c/a", b"", None).unwrap();
        r.mkcol("/c/m").unwrap();
        r.put("/c/m/inner", b"", None).unwrap();
        assert_eq!(r.list("/c").unwrap(), vec!["a", "m", "z"]);
        assert!(r.list("/c/a").is_err());
    }

    #[test]
    fn props_crud() {
        let r = MemRepository::new();
        r.put("/d", b"", None).unwrap();
        let name = PropertyName::new("urn:ecce", "formula");
        assert!(r.get_prop("/d", &name).unwrap().is_none());
        r.set_prop("/d", &Property::text(name.clone(), "H2O"))
            .unwrap();
        assert_eq!(
            r.get_prop("/d", &name).unwrap().unwrap().text_value(),
            "H2O"
        );
        assert_eq!(r.list_props("/d").unwrap(), vec![name.clone()]);
        assert!(r.remove_prop("/d", &name).unwrap());
        assert!(!r.remove_prop("/d", &name).unwrap());
    }

    #[test]
    fn all_props_mixes_live_and_dead() {
        let r = MemRepository::new();
        r.put("/d", b"body", Some("text/plain")).unwrap();
        r.set_prop("/d", &Property::text(PropertyName::new("u", "x"), "1"))
            .unwrap();
        let all = r.all_props("/d").unwrap();
        let names: Vec<String> = all.iter().map(|p| p.name.local.clone()).collect();
        assert!(names.contains(&"getcontentlength".to_owned()));
        assert!(names.contains(&"resourcetype".to_owned()));
        assert!(names.contains(&"x".to_owned()));
    }

    #[test]
    fn walk_depth_limits() {
        let r = MemRepository::new();
        r.mkcol("/a").unwrap();
        r.mkcol("/a/b").unwrap();
        r.put("/a/b/c", b"", None).unwrap();
        let collect = |d: Option<u32>| {
            let mut v = Vec::new();
            r.walk("/", d, &mut |p| v.push(p.to_owned())).unwrap();
            v
        };
        assert_eq!(collect(Some(0)), vec!["/"]);
        assert_eq!(collect(Some(1)), vec!["/", "/a"]);
        assert_eq!(collect(None), vec!["/", "/a", "/a/b", "/a/b/c"]);
    }

    #[test]
    fn similar_prefix_not_descendant() {
        let r = MemRepository::new();
        r.mkcol("/ab").unwrap();
        r.mkcol("/abc").unwrap();
        r.delete("/ab").unwrap();
        assert!(r.exists("/abc"));
    }

    #[test]
    fn patch_props_atomic_and_validated() {
        let r = MemRepository::new();
        r.put("/d", b"", None).unwrap();
        let a = PropertyName::new("u", "a");
        r.set_prop("/d", &Property::text(a.clone(), "old")).unwrap();
        // A live-property set anywhere in the batch rejects the whole
        // batch before anything applies.
        let ops = vec![
            PropPatchOp::Set(Property::text(a.clone(), "new")),
            PropPatchOp::Set(Property::text(PropertyName::dav("getetag"), "forged")),
        ];
        let (idx, err) = r.patch_props("/d", &ops).unwrap_err();
        assert_eq!(idx, 1);
        assert!(matches!(err, DavError::BadRequest(_)));
        assert_eq!(r.get_prop("/d", &a).unwrap().unwrap().text_value(), "old");
        // A clean batch applies in order.
        let b = PropertyName::new("u", "b");
        r.patch_props(
            "/d",
            &[
                PropPatchOp::Set(Property::text(b.clone(), "bv")),
                PropPatchOp::Remove(a.clone()),
            ],
        )
        .unwrap();
        assert!(r.get_prop("/d", &a).unwrap().is_none());
        assert_eq!(r.get_prop("/d", &b).unwrap().unwrap().text_value(), "bv");
    }

    #[test]
    fn staged_uploads_mirror_fs_semantics() {
        let r = MemRepository::new();
        r.put("/doc", b"AAAABBBBCCCC", None).unwrap();
        // Delta: reuse AAAA, send XYZW, reuse CCCC.
        r.stage_copy_from("/doc", 0, 12, "/doc", 0, 4).unwrap();
        r.stage_append("/doc", 4, 12, b"XYZW").unwrap();
        // Wrong offset reports server progress; mismatched total refuses.
        assert!(matches!(
            r.stage_append("/doc", 6, 12, b"x"),
            Err(DavError::StageMismatch { staged: 8 })
        ));
        assert!(matches!(
            r.stage_append("/doc", 8, 99, b"x"),
            Err(DavError::BadRequest(_))
        ));
        // Incomplete commit refuses and the stage survives.
        assert!(matches!(
            r.stage_commit("/doc", None),
            Err(DavError::Conflict(_))
        ));
        r.stage_copy_from("/doc", 8, 12, "/doc", 8, 4).unwrap();
        assert!(!r.stage_commit("/doc", None).unwrap());
        assert_eq!(r.get("/doc").unwrap(), b"AAAAXYZWCCCC");
        assert!(r.stage_status("/doc").unwrap().is_none());
        // Fresh-create path and abort.
        r.stage_append("/new", 0, 3, b"abc").unwrap();
        assert!(r.stage_commit("/new", Some("text/plain")).unwrap());
        assert_eq!(
            r.meta("/new").unwrap().content_type.as_deref(),
            Some("text/plain")
        );
        r.stage_append("/gone", 0, 5, b"xx").unwrap();
        r.stage_abort("/gone").unwrap();
        assert!(r.stage_status("/gone").unwrap().is_none());
        assert!(!r.exists("/gone"));
    }

    #[test]
    fn concurrent_renames_never_show_both_or_neither() {
        // The bug the path-lock rework fixes: rename used to be
        // copy-then-delete as two separately locked calls, so a reader
        // could observe the document at both paths (or neither).
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let r = Arc::new(MemRepository::new());
        r.put("/m-a", b"x", None).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let mover = {
            let (r, stop) = (Arc::clone(&r), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut at_a = true;
                while !stop.load(Ordering::Relaxed) {
                    let (from, to) = if at_a {
                        ("/m-a", "/m-b")
                    } else {
                        ("/m-b", "/m-a")
                    };
                    r.rename(from, to, false).unwrap();
                    at_a = !at_a;
                }
            })
        };
        // One list() call is a single critical section, so it observes
        // the table at one instant. (Two separate exists() calls would
        // not — the mover could run between them.)
        for _ in 0..2000 {
            let names = r.list("/").unwrap();
            let a = names.iter().any(|n| n == "m-a");
            let b = names.iter().any(|n| n == "m-b");
            assert!(
                a != b,
                "MOVE must be atomic: source xor destination (a={a}, b={b})"
            );
        }
        stop.store(true, Ordering::Relaxed);
        mover.join().unwrap();
    }
}
