//! The common DBM interface and the kind-selecting factory.

use crate::error::Result;
use crate::stats::DbmStats;
use std::path::Path;

/// How `store` treats an existing key — mirrors the classic
/// `DBM_INSERT` / `DBM_REPLACE` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Fail with [`crate::Error::AlreadyExists`] if the key is present.
    Insert,
    /// Overwrite any existing value.
    Replace,
}

/// Which backing implementation to use for a property database.
///
/// The DAV filesystem repository threads this choice through to every
/// per-resource metadata file, exactly as mod_dav's compile-time
/// SDBM/GDBM choice did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DbmKind {
    /// Paged hash file with a 1 KB item limit and an 8 KB initial size.
    Sdbm,
    /// Extensible hashing with no item limit and a 25 KB initial size.
    #[default]
    Gdbm,
}

impl DbmKind {
    /// Short lowercase name, used in reports and file naming.
    pub fn name(self) -> &'static str {
        match self {
            DbmKind::Sdbm => "sdbm",
            DbmKind::Gdbm => "gdbm",
        }
    }
}

/// A single-writer key/value database backed by one (or two, for SDBM)
/// files on disk.
///
/// Methods take `&mut self` even for reads because both implementations
/// keep a small page/bucket cache.
pub trait Dbm: Send {
    /// Store `value` under `key`.
    fn store(&mut self, key: &[u8], value: &[u8], mode: StoreMode) -> Result<()>;

    /// Fetch the value for `key`, or `None` when absent.
    fn fetch(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Remove `key`. Returns whether it was present.
    fn delete(&mut self, key: &[u8]) -> Result<bool>;

    /// All keys, in unspecified order.
    fn keys(&mut self) -> Result<Vec<Vec<u8>>>;

    /// Number of stored pairs.
    fn len(&mut self) -> Result<usize>;

    /// True when the database holds no pairs.
    fn is_empty(&mut self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Is `key` present?
    fn contains(&mut self, key: &[u8]) -> Result<bool> {
        Ok(self.fetch(key)?.is_some())
    }

    /// Flush buffered state to the operating system.
    fn sync(&mut self) -> Result<()>;

    /// Occupancy statistics, including dead (unreclaimed) space.
    fn stats(&mut self) -> Result<DbmStats>;

    /// Bytes the database currently occupies on disk.
    fn disk_usage(&mut self) -> Result<u64> {
        Ok(self.stats()?.disk_bytes)
    }

    /// Reclaim dead space by rewriting the database in place.
    ///
    /// This is the "manual garbage collection utility" the paper notes
    /// both SDBM and GDBM require; neither store reclaims the space of
    /// changed or deleted items automatically.
    fn compact(&mut self) -> Result<()>;
}

/// Open (creating if absent) a database of the given kind at `base`.
///
/// `base` is a path *stem*: SDBM appends `.pag`/`.dir`, GDBM appends
/// `.db`, matching the historical file layouts.
pub fn open_dbm(kind: DbmKind, base: &Path) -> Result<Box<dyn Dbm>> {
    Ok(match kind {
        DbmKind::Sdbm => Box::new(crate::sdbm::Sdbm::open(base)?),
        DbmKind::Gdbm => Box::new(crate::gdbm::Gdbm::open(base)?),
    })
}

/// Open an existing database of `kind` at `base` for reading only, or
/// `None` when there is none: see [`crate::Gdbm::open_read`] and
/// [`crate::Sdbm::open_read`]. Nothing on disk changes.
pub fn open_dbm_read(kind: DbmKind, base: &Path) -> Result<Option<Box<dyn Dbm>>> {
    Ok(match kind {
        DbmKind::Sdbm => crate::sdbm::Sdbm::open_read(base)?.map(|db| Box::new(db) as Box<dyn Dbm>),
        DbmKind::Gdbm => crate::gdbm::Gdbm::open_read(base)?.map(|db| Box::new(db) as Box<dyn Dbm>),
    })
}

/// Remove the on-disk files of a database of `kind` at `base`, if present.
pub fn remove_dbm(kind: DbmKind, base: &Path) -> std::io::Result<()> {
    let files: &[&str] = match kind {
        DbmKind::Sdbm => &["pag", "dir"],
        DbmKind::Gdbm => &["db"],
    };
    for ext in files {
        let p = base.with_extension(ext);
        if p.exists() {
            std::fs::remove_file(p)?;
        }
    }
    Ok(())
}

/// Do database files of `kind` exist at `base`?
pub fn dbm_exists(kind: DbmKind, base: &Path) -> bool {
    match kind {
        DbmKind::Sdbm => base.with_extension("pag").exists(),
        DbmKind::Gdbm => base.with_extension("db").exists(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(DbmKind::Sdbm.name(), "sdbm");
        assert_eq!(DbmKind::Gdbm.name(), "gdbm");
        assert_eq!(DbmKind::default(), DbmKind::Gdbm);
    }

    #[test]
    fn factory_roundtrip_both_kinds() {
        let dir = std::env::temp_dir().join(format!("pse-dbm-api-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
            let base = dir.join(kind.name());
            let mut db = open_dbm(kind, &base).unwrap();
            db.store(b"k", b"v", StoreMode::Insert).unwrap();
            assert!(db.contains(b"k").unwrap());
            assert!(!db.is_empty().unwrap());
            drop(db);
            assert!(dbm_exists(kind, &base));
            remove_dbm(kind, &base).unwrap();
            assert!(!dbm_exists(kind, &base));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_only_open_changes_nothing_on_disk() {
        let dir = std::env::temp_dir().join(format!("pse-dbm-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let listing = || {
            let mut files: Vec<(String, u64)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    let name = e.file_name().to_string_lossy().into_owned();
                    (name, e.metadata().unwrap().len())
                })
                .collect();
            files.sort();
            files
        };
        for kind in [DbmKind::Sdbm, DbmKind::Gdbm] {
            let base = dir.join(kind.name());
            // Absent: nothing is created.
            assert!(open_dbm_read(kind, &base).unwrap().is_none());
            assert_eq!(listing(), vec![], "{kind:?}");
            // Present: reads what the writer stored; writes fail.
            let mut db = open_dbm(kind, &base).unwrap();
            db.store(b"k", b"v", StoreMode::Insert).unwrap();
            drop(db);
            let before = listing();
            let mut ro = open_dbm_read(kind, &base).unwrap().unwrap();
            assert_eq!(ro.fetch(b"k").unwrap().unwrap(), b"v");
            assert_eq!(ro.keys().unwrap(), vec![b"k".to_vec()]);
            assert!(ro.store(b"k2", b"v", StoreMode::Insert).is_err());
            drop(ro);
            assert_eq!(listing(), before, "{kind:?}");
            remove_dbm(kind, &base).unwrap();
        }
        // A GDBM file shorter than its header is no database, and stays short.
        std::fs::write(dir.join("short.db"), [7u8; 40]).unwrap();
        assert!(open_dbm_read(DbmKind::Gdbm, &dir.join("short"))
            .unwrap()
            .is_none());
        // An SDBM `.pag` without its `.dir` never stored a pair.
        std::fs::write(dir.join("lone.pag"), [0u8; 1024]).unwrap();
        assert!(open_dbm_read(DbmKind::Sdbm, &dir.join("lone"))
            .unwrap()
            .is_none());
        assert_eq!(
            listing(),
            vec![("lone.pag".to_owned(), 1024), ("short.db".to_owned(), 40)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
