//! # pse-dbm — DBM-style key/value stores for per-resource metadata
//!
//! mod_dav (the paper's server) keeps the metadata of every DAV resource in
//! one small database-manager (DBM) file, using either **SDBM** or **GDBM**.
//! The two differ in exactly the ways the paper calls out (§3.2.1):
//!
//! | | [`Sdbm`] | [`Gdbm`] |
//! |---|---|---|
//! | per-item size limit | **1 KB** (key+value must fit a page) | none |
//! | default initial file size | **8 KB** | **25 KB** |
//! | relative speed | slower | faster |
//! | space reclamation | manual ([`api::Dbm::compact`]) | manual ([`api::Dbm::compact`]) |
//!
//! Those numbers drive the paper's migration study (§3.2.4): disk usage
//! grew ~10 % with SDBM and ~25 % with GDBM because *each resource gets its
//! own DBM file* with its own initial allocation. The `pse-dav` filesystem
//! repository reproduces that design faithfully.
//!
//! [`Sdbm`] is a faithful reimplementation of the classic sdbm algorithm
//! (Ozan Yigit's public-domain design): 1 KiB pages addressed by a
//! split-bit directory, pairs packed from the top of each page. [`Gdbm`]
//! follows gdbm's architecture — extensible hashing with a bucket
//! directory and out-of-line records — without the size limits.
//!
//! ```
//! use pse_dbm::{open_dbm, DbmKind, StoreMode};
//! let dir = std::env::temp_dir().join(format!("pse-dbm-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let mut db = open_dbm(DbmKind::Gdbm, &dir.join("props")).unwrap();
//! db.store(b"ecce:formula", b"UO2(H2O)15", StoreMode::Replace).unwrap();
//! assert_eq!(db.fetch(b"ecce:formula").unwrap().unwrap(), b"UO2(H2O)15");
//! # drop(db); std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod api;
pub mod error;
pub mod gdbm;
pub mod obs;
pub mod sdbm;
pub mod stats;

pub use api::{dbm_exists, open_dbm, open_dbm_read, remove_dbm, Dbm, DbmKind, StoreMode};
pub use error::{Error, Result};
pub use gdbm::Gdbm;
pub use sdbm::Sdbm;
pub use stats::DbmStats;
