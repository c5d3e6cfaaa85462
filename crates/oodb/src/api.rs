//! The object-access interface shared by the embedded store and the
//! remote (client/server) deployment.
//!
//! Ecce 1.5 ran its OODBMS as a server process ("This machine served as
//! Ecce's OODB server" — Table 1's footnote) with clients talking to it
//! over the network through the cache-forward layer. [`ObjectApi`] is
//! the surface both deployments expose: [`crate::store::OodbStore`]
//! in-process, and [`crate::net::RemoteOodb`] over TCP.

use crate::error::Result;
use crate::store::{OodbStore, StoredObject};
use crate::value::{FieldValue, Oid};

/// Object-granular database operations.
pub trait ObjectApi: Send {
    /// Create an object; returns its OID.
    fn create(&mut self, class: &str, fields: Vec<(String, FieldValue)>) -> Result<Oid>;
    /// Merge-update an object's fields.
    fn update(&mut self, oid: Oid, fields: Vec<(String, FieldValue)>) -> Result<()>;
    /// Fetch one object.
    fn fetch(&mut self, oid: Oid) -> Result<StoredObject>;
    /// Delete one object.
    fn delete(&mut self, oid: Oid) -> Result<()>;
    /// Every live object of a class.
    fn scan_class(&mut self, class: &str) -> Result<Vec<StoredObject>>;
    /// Live object count.
    fn object_count(&mut self) -> Result<usize>;
    /// Bytes on disk at the server.
    fn disk_usage(&mut self) -> Result<u64>;
}

impl ObjectApi for OodbStore {
    fn create(&mut self, class: &str, fields: Vec<(String, FieldValue)>) -> Result<Oid> {
        OodbStore::create(self, class, fields)
    }

    fn update(&mut self, oid: Oid, fields: Vec<(String, FieldValue)>) -> Result<()> {
        OodbStore::update(self, oid, fields)
    }

    fn fetch(&mut self, oid: Oid) -> Result<StoredObject> {
        OodbStore::fetch(self, oid)
    }

    fn delete(&mut self, oid: Oid) -> Result<()> {
        OodbStore::delete(self, oid)
    }

    fn scan_class(&mut self, class: &str) -> Result<Vec<StoredObject>> {
        OodbStore::scan_class(self, class)
    }

    fn object_count(&mut self) -> Result<usize> {
        Ok(OodbStore::len(self))
    }

    fn disk_usage(&mut self) -> Result<u64> {
        OodbStore::disk_usage(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldType, SchemaBuilder};

    #[test]
    fn store_implements_api() {
        let d = std::env::temp_dir().join(format!("pse-oodb-api-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let schema = SchemaBuilder::new()
            .class("T", &[("v", FieldType::Int)])
            .build();
        let mut db: Box<dyn ObjectApi> = Box::new(OodbStore::create_db(&d, schema).unwrap());
        let oid = db
            .create("T", vec![("v".into(), FieldValue::Int(1))])
            .unwrap();
        db.update(oid, vec![("v".into(), FieldValue::Int(2))])
            .unwrap();
        assert_eq!(db.fetch(oid).unwrap().get("v").unwrap().as_int(), Some(2));
        assert_eq!(db.scan_class("T").unwrap().len(), 1);
        assert_eq!(db.object_count().unwrap(), 1);
        assert!(db.disk_usage().unwrap() > 0);
        db.delete(oid).unwrap();
        assert_eq!(db.object_count().unwrap(), 0);
        drop(db);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
