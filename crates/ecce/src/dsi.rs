//! The Data Storage Interface — the protocol-independence seam of
//! Figure 2.
//!
//! "Factory modules in the object layer encapsulate access to persistent
//! data using implementations of the Data Storage Interface, which maps
//! requests for manipulating data and metadata into protocol-specific
//! operations. While DAV is the only protocol currently implemented, a
//! separate data storage interface will reduce the changes required to
//! provide native-protocol access to data grids or to incorporate
//! high-performance extensions to DAV."
//!
//! Two implementations ship: [`DavStorage`] (the DAV protocol over TCP,
//! the production path) and [`InProcStorage`] (direct repository calls —
//! the "native-protocol" seam, also used by tests and benchmarks to
//! isolate protocol cost).

use crate::error::{EcceError, Result};
use crate::ECCE_NS;
use pse_dav::client::DavClient;
use pse_dav::property::{Property, PropertyName};
use pse_dav::repo::Repository;
use pse_dav::Depth;
use std::sync::Arc;

/// Protocol-independent data + metadata operations, in terms of paths.
/// Metadata keys are local names in the single `ecce` namespace.
pub trait DataStorage: Send {
    /// Create a collection.
    fn make_collection(&mut self, path: &str) -> Result<()>;
    /// Write a document.
    fn write(&mut self, path: &str, data: &[u8], content_type: Option<&str>) -> Result<()>;
    /// Read a document.
    fn read(&mut self, path: &str) -> Result<Vec<u8>>;
    /// Delete a resource (recursive).
    fn delete(&mut self, path: &str) -> Result<()>;
    /// Copy a subtree (data + metadata).
    fn copy(&mut self, src: &str, dst: &str) -> Result<()>;
    /// Move a subtree.
    fn relocate(&mut self, src: &str, dst: &str) -> Result<()>;
    /// Does a resource exist?
    fn exists(&mut self, path: &str) -> Result<bool>;
    /// Child names of a collection.
    fn list(&mut self, path: &str) -> Result<Vec<String>>;
    /// Set one ecce-namespace metadata value.
    fn set_meta(&mut self, path: &str, key: &str, value: &str) -> Result<()>;
    /// Read one ecce-namespace metadata value.
    fn get_meta(&mut self, path: &str, key: &str) -> Result<Option<String>>;
    /// Read several metadata values at once (one round trip where the
    /// protocol allows — the paper's "request only the values of
    /// metadata it understands").
    fn get_meta_bulk(&mut self, path: &str, keys: &[&str]) -> Result<Vec<Option<String>>>;
    /// Remove one metadata value.
    fn remove_meta(&mut self, path: &str, key: &str) -> Result<()>;
    /// Metadata of all children in one call (depth-1 PROPFIND) —
    /// `(child name, values per key)`.
    fn children_meta(
        &mut self,
        path: &str,
        keys: &[&str],
    ) -> Result<Vec<(String, Vec<Option<String>>)>>;
    /// Find descendants whose `key` equals `value` (search).
    fn find_by_meta(&mut self, scope: &str, key: &str, value: &str) -> Result<Vec<String>>;

    // ---- versioning (optional capability) ----
    //
    // The DeltaV surface of the storage protocol. Backends that cannot
    // version (the in-process repository seam, data grids without
    // history) report `Invalid` from the defaults; callers probe with
    // `supports_versioning` before depending on history.

    /// Does this backend support document versioning?
    fn supports_versioning(&mut self) -> bool {
        false
    }

    /// Place a document under version control (idempotent; the current
    /// body becomes version 1).
    fn version_control(&mut self, path: &str) -> Result<()> {
        let _ = path;
        Err(EcceError::Invalid(
            "this storage backend does not support versioning".into(),
        ))
    }

    /// Suspend auto-versioning on `path` until [`checkin`](Self::checkin).
    fn checkout(&mut self, path: &str) -> Result<()> {
        let _ = path;
        Err(EcceError::Invalid(
            "this storage backend does not support versioning".into(),
        ))
    }

    /// Record exactly one new version from the current content and
    /// resume normal gating; returns the new version number.
    fn checkin(&mut self, path: &str) -> Result<u32> {
        let _ = path;
        Err(EcceError::Invalid(
            "this storage backend does not support versioning".into(),
        ))
    }

    /// Stored version numbers for `path`, oldest first.
    fn list_versions(&mut self, path: &str) -> Result<Vec<u32>> {
        let _ = path;
        Err(EcceError::Invalid(
            "this storage backend does not support versioning".into(),
        ))
    }

    /// Read the body of one stored version.
    fn read_version(&mut self, path: &str, version: u32) -> Result<Vec<u8>> {
        let _ = (path, version);
        Err(EcceError::Invalid(
            "this storage backend does not support versioning".into(),
        ))
    }

    /// Restore `path` to the body of `version` (the restore itself is
    /// recorded as a new version, so history is never rewritten).
    fn revert_to(&mut self, path: &str, version: u32) -> Result<()> {
        let _ = (path, version);
        Err(EcceError::Invalid(
            "this storage backend does not support versioning".into(),
        ))
    }
}

fn ecce_prop(key: &str) -> PropertyName {
    PropertyName::new(ECCE_NS, key)
}

// ---- DAV protocol implementation ----

/// [`DataStorage`] over the DAV wire protocol.
pub struct DavStorage {
    client: DavClient,
}

impl DavStorage {
    /// Wrap a connected client.
    pub fn new(client: DavClient) -> DavStorage {
        DavStorage { client }
    }

    /// Access the wrapped client (parse-mode and policy knobs).
    pub fn client(&mut self) -> &mut DavClient {
        &mut self.client
    }

    /// Install a retry/timeout/backoff policy for the DAV wire traffic
    /// this storage performs. Tool workloads keep running across
    /// transient resets and stalls; ambiguous non-idempotent failures
    /// (a MKCOL whose response was lost) surface as errors rather than
    /// being silently duplicated.
    pub fn set_retry_policy(&mut self, policy: pse_http::RetryPolicy) {
        self.client.set_retry_policy(policy);
    }
}

impl DataStorage for DavStorage {
    fn make_collection(&mut self, path: &str) -> Result<()> {
        Ok(self.client.mkcol(path)?)
    }

    fn write(&mut self, path: &str, data: &[u8], content_type: Option<&str>) -> Result<()> {
        self.client.put(path, data.to_vec(), content_type)?;
        Ok(())
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>> {
        Ok(self.client.get(path)?)
    }

    fn delete(&mut self, path: &str) -> Result<()> {
        Ok(self.client.delete(path)?)
    }

    fn copy(&mut self, src: &str, dst: &str) -> Result<()> {
        self.client.copy(src, dst, true)?;
        Ok(())
    }

    fn relocate(&mut self, src: &str, dst: &str) -> Result<()> {
        self.client.move_(src, dst, true)?;
        Ok(())
    }

    fn exists(&mut self, path: &str) -> Result<bool> {
        Ok(self.client.exists(path)?)
    }

    fn list(&mut self, path: &str) -> Result<Vec<String>> {
        Ok(self.client.list(path)?)
    }

    fn set_meta(&mut self, path: &str, key: &str, value: &str) -> Result<()> {
        Ok(self.client.proppatch_set(path, &ecce_prop(key), value)?)
    }

    fn get_meta(&mut self, path: &str, key: &str) -> Result<Option<String>> {
        Ok(self.client.get_prop(path, &ecce_prop(key))?)
    }

    fn get_meta_bulk(&mut self, path: &str, keys: &[&str]) -> Result<Vec<Option<String>>> {
        let names: Vec<PropertyName> = keys.iter().map(|k| ecce_prop(k)).collect();
        let ms = self.client.propfind(path, Depth::Zero, &names)?;
        let entry = ms
            .responses
            .first()
            .ok_or_else(|| EcceError::NotFound(path.to_owned()))?;
        Ok(names
            .iter()
            .map(|n| entry.prop(n).map(|p| p.text_value()))
            .collect())
    }

    fn remove_meta(&mut self, path: &str, key: &str) -> Result<()> {
        Ok(self.client.proppatch_remove(path, &ecce_prop(key))?)
    }

    fn children_meta(
        &mut self,
        path: &str,
        keys: &[&str],
    ) -> Result<Vec<(String, Vec<Option<String>>)>> {
        let norm = pse_http::uri::normalize_path(path);
        let names: Vec<PropertyName> = keys.iter().map(|k| ecce_prop(k)).collect();
        let ms = self.client.propfind(&norm, Depth::One, &names)?;
        Ok(ms
            .responses
            .iter()
            .filter(|r| r.href != norm)
            .map(|r| {
                (
                    pse_http::uri::basename(&r.href).to_owned(),
                    names
                        .iter()
                        .map(|n| r.prop(n).map(|p| p.text_value()))
                        .collect(),
                )
            })
            .collect())
    }

    fn find_by_meta(&mut self, scope: &str, key: &str, value: &str) -> Result<Vec<String>> {
        Ok(self.client.search_eq(scope, &ecce_prop(key), value)?)
    }

    fn supports_versioning(&mut self) -> bool {
        true
    }

    fn version_control(&mut self, path: &str) -> Result<()> {
        Ok(self.client.version_control(path)?)
    }

    fn checkout(&mut self, path: &str) -> Result<()> {
        Ok(self.client.checkout(path)?)
    }

    fn checkin(&mut self, path: &str) -> Result<u32> {
        Ok(self.client.checkin(path)?)
    }

    fn list_versions(&mut self, path: &str) -> Result<Vec<u32>> {
        Ok(self
            .client
            .versions(path)?
            .into_iter()
            .map(|v| v.number)
            .collect())
    }

    fn read_version(&mut self, path: &str, version: u32) -> Result<Vec<u8>> {
        Ok(self.client.version_content(path, version)?)
    }

    fn revert_to(&mut self, path: &str, version: u32) -> Result<()> {
        Ok(self.client.revert_to(path, version)?)
    }
}

// ---- in-process (native) implementation ----

/// [`DataStorage`] calling a repository directly, without the protocol —
/// used to measure pure storage cost and as the pluggability proof.
pub struct InProcStorage<R: Repository> {
    repo: Arc<R>,
}

impl<R: Repository> InProcStorage<R> {
    /// Wrap a repository.
    pub fn new(repo: Arc<R>) -> InProcStorage<R> {
        InProcStorage { repo }
    }
}

impl<R: Repository> DataStorage for InProcStorage<R> {
    fn make_collection(&mut self, path: &str) -> Result<()> {
        Ok(self.repo.mkcol(path)?)
    }

    fn write(&mut self, path: &str, data: &[u8], content_type: Option<&str>) -> Result<()> {
        self.repo.put(path, data, content_type)?;
        Ok(())
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>> {
        Ok(self.repo.get(path)?)
    }

    fn delete(&mut self, path: &str) -> Result<()> {
        Ok(self.repo.delete(path)?)
    }

    fn copy(&mut self, src: &str, dst: &str) -> Result<()> {
        self.repo.copy(src, dst, true)?;
        Ok(())
    }

    fn relocate(&mut self, src: &str, dst: &str) -> Result<()> {
        self.repo.rename(src, dst, true)?;
        Ok(())
    }

    fn exists(&mut self, path: &str) -> Result<bool> {
        Ok(self.repo.exists(path))
    }

    fn list(&mut self, path: &str) -> Result<Vec<String>> {
        Ok(self.repo.list(path)?)
    }

    fn set_meta(&mut self, path: &str, key: &str, value: &str) -> Result<()> {
        self.repo
            .set_prop(path, &Property::text(ecce_prop(key), value))?;
        Ok(())
    }

    fn get_meta(&mut self, path: &str, key: &str) -> Result<Option<String>> {
        Ok(self
            .repo
            .get_prop(path, &ecce_prop(key))?
            .map(|p| p.text_value()))
    }

    fn get_meta_bulk(&mut self, path: &str, keys: &[&str]) -> Result<Vec<Option<String>>> {
        keys.iter().map(|k| self.get_meta(path, k)).collect()
    }

    fn remove_meta(&mut self, path: &str, key: &str) -> Result<()> {
        self.repo.remove_prop(path, &ecce_prop(key))?;
        Ok(())
    }

    fn children_meta(
        &mut self,
        path: &str,
        keys: &[&str],
    ) -> Result<Vec<(String, Vec<Option<String>>)>> {
        let mut out = Vec::new();
        for child in self.repo.list(path)? {
            let child_path = pse_http::uri::join_path(path, &child);
            let values = self.get_meta_bulk(&child_path, keys)?;
            out.push((child, values));
        }
        Ok(out)
    }

    fn find_by_meta(&mut self, scope: &str, key: &str, value: &str) -> Result<Vec<String>> {
        let query = pse_dav::search::Query::new(
            scope,
            pse_dav::search::Condition::Eq(ecce_prop(key), value.to_owned()),
        );
        let ms = pse_dav::search::execute(self.repo.as_ref(), &query)?;
        Ok(ms.responses.into_iter().map(|r| r.href).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_dav::memrepo::MemRepository;

    fn storage() -> InProcStorage<MemRepository> {
        InProcStorage::new(Arc::new(MemRepository::new()))
    }

    #[test]
    fn data_lifecycle() {
        let mut s = storage();
        s.make_collection("/p").unwrap();
        s.write("/p/doc", b"abc", Some("text/plain")).unwrap();
        assert!(s.exists("/p/doc").unwrap());
        assert_eq!(s.read("/p/doc").unwrap(), b"abc");
        assert_eq!(s.list("/p").unwrap(), vec!["doc"]);
        s.copy("/p", "/q").unwrap();
        s.relocate("/q", "/r").unwrap();
        assert!(!s.exists("/q").unwrap());
        assert_eq!(s.read("/r/doc").unwrap(), b"abc");
        s.delete("/p").unwrap();
        assert!(!s.exists("/p").unwrap());
    }

    #[test]
    fn metadata_lifecycle() {
        let mut s = storage();
        s.write("/m", b"", None).unwrap();
        s.set_meta("/m", "formula", "H2O").unwrap();
        s.set_meta("/m", "charge", "0").unwrap();
        assert_eq!(s.get_meta("/m", "formula").unwrap().as_deref(), Some("H2O"));
        assert_eq!(
            s.get_meta_bulk("/m", &["formula", "charge", "ghost"])
                .unwrap(),
            vec![Some("H2O".into()), Some("0".into()), None]
        );
        s.remove_meta("/m", "charge").unwrap();
        assert_eq!(s.get_meta("/m", "charge").unwrap(), None);
    }

    #[test]
    fn children_meta_and_search() {
        let mut s = storage();
        s.make_collection("/mols").unwrap();
        for (n, f) in [("a", "H2O"), ("b", "UO2"), ("c", "H2O")] {
            let p = format!("/mols/{n}");
            s.write(&p, b"", None).unwrap();
            s.set_meta(&p, "formula", f).unwrap();
        }
        let children = s.children_meta("/mols", &["formula"]).unwrap();
        assert_eq!(children.len(), 3);
        assert_eq!(children[0].0, "a");
        assert_eq!(children[0].1[0].as_deref(), Some("H2O"));

        let hits = s.find_by_meta("/mols", "formula", "H2O").unwrap();
        assert_eq!(hits.len(), 2);
    }
}
