//! The object store — the "server side" of the OODBMS.
//!
//! Objects are encoded with the proprietary binary format and appended
//! into segments; an OID index maps objects to their newest location
//! (updates append a new copy, as versioning storage managers did).
//! The index and schema stamp persist in a catalog file, so reopening
//! with an evolved schema faithfully reproduces the paper's pain: every
//! read fails with [`Error::SchemaVersionMismatch`] until
//! [`OodbStore::migrate`] rewrites the whole database.

use crate::encode::{decode_object, encode_object, Record};
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::segment::{Location, SegmentSet};
use crate::value::{FieldValue, Oid};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A fetched object: class name plus named fields.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredObject {
    /// The object id.
    pub oid: Oid,
    /// Class name.
    pub class: String,
    /// `(field name, value)` pairs in declaration order.
    pub fields: Vec<(String, FieldValue)>,
}

impl StoredObject {
    /// Value of a named field.
    pub fn get(&self, name: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// An open object database rooted at a directory.
pub struct OodbStore {
    dir: PathBuf,
    schema: Schema,
    segments: SegmentSet,
    /// OID → newest location. `None` marks deletion.
    index: BTreeMap<u64, Option<Location>>,
    next_oid: u64,
    /// Version stamped on data currently on disk.
    stored_version: u32,
    /// Monotonically increasing change counter (drives cache
    /// invalidation in the cache-forward client).
    generation: u64,
    /// Mutations since the catalog was last persisted; flushed every
    /// [`CATALOG_FLUSH_EVERY`] mutations, on [`OodbStore::sync`], and on
    /// drop.
    catalog_dirty: u32,
}

/// How many mutations may accumulate before the catalog is rewritten.
const CATALOG_FLUSH_EVERY: u32 = 256;

impl OodbStore {
    /// Create a fresh database (fails if a catalog already exists).
    pub fn create_db(dir: impl AsRef<Path>, schema: Schema) -> Result<OodbStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if dir.join("catalog").exists() {
            return Err(Error::Corrupt("database already exists".into()));
        }
        let segments = SegmentSet::open(dir.join("segments"))?;
        let store = OodbStore {
            dir,
            stored_version: schema.version,
            schema,
            segments,
            index: BTreeMap::new(),
            next_oid: 1,
            generation: 0,
            catalog_dirty: 0,
        };
        store.write_catalog()?;
        Ok(store)
    }

    /// Open an existing database with the application's compiled-in
    /// schema. Opening succeeds even across schema versions — it is
    /// *reads* that fail until migration, as with the real thing.
    pub fn open(dir: impl AsRef<Path>, schema: Schema) -> Result<OodbStore> {
        let dir = dir.as_ref().to_path_buf();
        let catalog = fs::read_to_string(dir.join("catalog"))
            .map_err(|_| Error::Corrupt("no catalog (not a database?)".into()))?;
        let mut lines = catalog.lines();
        let stored_version: u32 = lines
            .next()
            .and_then(|l| l.strip_prefix("version "))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| Error::Corrupt("catalog missing version".into()))?;
        let next_oid: u64 = lines
            .next()
            .and_then(|l| l.strip_prefix("next_oid "))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| Error::Corrupt("catalog missing next_oid".into()))?;
        let mut index = BTreeMap::new();
        for line in lines {
            let mut parts = line.split_whitespace();
            let oid: u64 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| Error::Corrupt("bad index line".into()))?;
            match (parts.next(), parts.next(), parts.next()) {
                (Some("x"), _, _) => {
                    index.insert(oid, None);
                }
                (Some(seg), Some(off), Some(len)) => {
                    let loc = Location {
                        segment: seg.parse().map_err(|_| Error::Corrupt("bad seg".into()))?,
                        offset: off.parse().map_err(|_| Error::Corrupt("bad off".into()))?,
                        len: len.parse().map_err(|_| Error::Corrupt("bad len".into()))?,
                    };
                    index.insert(oid, Some(loc));
                }
                _ => return Err(Error::Corrupt("bad index line".into())),
            }
        }
        let segments = SegmentSet::open(dir.join("segments"))?;
        Ok(OodbStore {
            dir,
            schema,
            segments,
            index,
            next_oid,
            stored_version,
            generation: 0,
            catalog_dirty: 0,
        })
    }

    /// Persist the catalog if enough mutations accumulated.
    fn note_mutation(&mut self) -> Result<()> {
        self.generation += 1;
        self.catalog_dirty += 1;
        if self.catalog_dirty >= CATALOG_FLUSH_EVERY {
            self.sync()?;
        }
        Ok(())
    }

    /// Flush the catalog to disk.
    pub fn sync(&mut self) -> Result<()> {
        if self.catalog_dirty > 0 {
            self.write_catalog()?;
            self.catalog_dirty = 0;
        }
        Ok(())
    }

    fn write_catalog(&self) -> Result<()> {
        let mut out = String::new();
        out.push_str(&format!("version {}\n", self.stored_version));
        out.push_str(&format!("next_oid {}\n", self.next_oid));
        for (oid, loc) in &self.index {
            match loc {
                Some(l) => out.push_str(&format!("{oid} {} {} {}\n", l.segment, l.offset, l.len)),
                None => out.push_str(&format!("{oid} x\n")),
            }
        }
        let tmp = self.dir.join("catalog.tmp");
        let mut f = fs::File::create(&tmp)?;
        f.write_all(out.as_bytes())?;
        f.sync_data()?;
        fs::rename(tmp, self.dir.join("catalog"))?;
        Ok(())
    }

    /// The compiled-in schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Change counter for cache invalidation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn check_version(&self) -> Result<()> {
        if self.stored_version != self.schema.version {
            return Err(Error::SchemaVersionMismatch {
                stored: self.stored_version,
                current: self.schema.version,
            });
        }
        Ok(())
    }

    /// Create an object. Returns its new OID.
    pub fn create(&mut self, class: &str, fields: Vec<(String, FieldValue)>) -> Result<Oid> {
        self.check_version()?;
        let normalized = self.schema.normalize_fields(class, fields)?;
        let class_id = self.schema.class_id(class)?;
        let oid = Oid(self.next_oid);
        self.next_oid += 1;
        let record = encode_object(self.schema.version, class_id, oid, &normalized);
        let loc = self.segments.append(&record)?;
        self.index.insert(oid.0, Some(loc));
        self.note_mutation()?;
        Ok(oid)
    }

    /// Replace an object's fields (class is fixed at creation).
    pub fn update(&mut self, oid: Oid, fields: Vec<(String, FieldValue)>) -> Result<()> {
        self.check_version()?;
        let current = self.fetch(oid)?;
        // Merge: given fields override, others retained.
        let mut merged = current.fields;
        for (name, value) in fields {
            if let Some(slot) = merged.iter_mut().find(|(n, _)| n == &name) {
                slot.1 = value;
            } else {
                merged.push((name, value));
            }
        }
        let normalized = self.schema.normalize_fields(&current.class, merged)?;
        let class_id = self.schema.class_id(&current.class)?;
        let record = encode_object(self.schema.version, class_id, oid, &normalized);
        let loc = self.segments.append(&record)?;
        self.index.insert(oid.0, Some(loc));
        self.note_mutation()?;
        Ok(())
    }

    /// Fetch an object by OID.
    pub fn fetch(&self, oid: Oid) -> Result<StoredObject> {
        self.check_version()?;
        let loc = self
            .index
            .get(&oid.0)
            .copied()
            .flatten()
            .ok_or(Error::NoSuchObject(oid.0))?;
        let buf = self.segments.read(loc)?;
        let rec = decode_object(&buf, Some(self.schema.version))?;
        self.materialize(rec)
    }

    fn materialize(&self, rec: Record) -> Result<StoredObject> {
        let class = self.schema.class_by_id(rec.class_id)?;
        if rec.fields.len() != class.fields.len() {
            return Err(Error::Corrupt(format!(
                "object {} has {} fields, class {} declares {}",
                rec.oid,
                rec.fields.len(),
                class.name,
                class.fields.len()
            )));
        }
        Ok(StoredObject {
            oid: rec.oid,
            class: class.name.clone(),
            fields: class
                .fields
                .iter()
                .map(|f| f.name.clone())
                .zip(rec.fields)
                .collect(),
        })
    }

    /// Delete an object.
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        self.check_version()?;
        match self.index.get_mut(&oid.0) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.note_mutation()?;
                Ok(())
            }
            _ => Err(Error::NoSuchObject(oid.0)),
        }
    }

    /// All live OIDs, ascending.
    pub fn oids(&self) -> Vec<Oid> {
        self.index
            .iter()
            .filter(|(_, l)| l.is_some())
            .map(|(&o, _)| Oid(o))
            .collect()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.index.values().filter(|l| l.is_some()).count()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch every live object of a class.
    pub fn scan_class(&self, class: &str) -> Result<Vec<StoredObject>> {
        self.check_version()?;
        let mut out = Vec::new();
        for oid in self.oids() {
            let obj = self.fetch(oid)?;
            if obj.class == class {
                out.push(obj);
            }
        }
        Ok(out)
    }

    /// The segment holding an object's newest copy.
    pub fn segment_of(&self, oid: Oid) -> Option<u32> {
        self.index.get(&oid.0).copied().flatten().map(|l| l.segment)
    }

    /// Distinct segments referenced by live objects, ascending.
    pub fn segment_ids(&self) -> Vec<u32> {
        let mut segs: Vec<u32> = self
            .index
            .values()
            .filter_map(|l| l.map(|l| l.segment))
            .collect();
        segs.sort_unstable();
        segs.dedup();
        segs
    }

    /// Every live object stored in one segment — the page-granular unit
    /// the cache-forward architecture ships to clients.
    pub fn objects_in_segment(&self, segment: u32) -> Result<Vec<StoredObject>> {
        self.check_version()?;
        let mut out = Vec::new();
        for (&oid, loc) in &self.index {
            if matches!(loc, Some(l) if l.segment == segment) {
                out.push(self.fetch(Oid(oid))?);
            }
        }
        Ok(out)
    }

    /// Total bytes on disk (segments + catalog) — includes dead copies
    /// of updated objects and the hidden segment overhead.
    pub fn disk_usage(&self) -> Result<u64> {
        let catalog = fs::metadata(self.dir.join("catalog"))
            .map(|m| m.len())
            .unwrap_or(0);
        Ok(self.segments.disk_usage()? + catalog)
    }

    /// Migrate the whole database to `new_schema`: every object is
    /// decoded under the old schema, mapped field-by-field (by name)
    /// into the new one, and rewritten. This is the offline step the
    /// OODBMS architecture forces on every schema evolution.
    pub fn migrate(&mut self, new_schema: Schema) -> Result<usize> {
        // Decode everything with the *stored* layout first.
        let mut objects = Vec::new();
        for (&oid, loc) in &self.index {
            let Some(loc) = loc else { continue };
            let buf = self.segments.read(*loc)?;
            let rec = decode_object(&buf, Some(self.stored_version))?;
            let class = self.schema_for_stored().class_by_id(rec.class_id)?.clone();
            let named: Vec<(String, FieldValue)> = class
                .fields
                .iter()
                .map(|f| f.name.clone())
                .zip(rec.fields)
                .collect();
            objects.push((Oid(oid), class.name.clone(), named));
        }
        // Rewrite under the new schema.
        self.segments.clear()?;
        self.index.clear();
        let migrated = objects.len();
        for (oid, class, named) in objects {
            let keep: Vec<(String, FieldValue)> = named
                .into_iter()
                .filter(|(n, _)| {
                    new_schema
                        .class(&class)
                        .is_ok_and(|c| c.field_index(n).is_some())
                })
                .collect();
            let normalized = new_schema.normalize_fields(&class, keep)?;
            let class_id = new_schema.class_id(&class)?;
            let record = encode_object(new_schema.version, class_id, oid, &normalized);
            let loc = self.segments.append(&record)?;
            self.index.insert(oid.0, Some(loc));
        }
        self.stored_version = new_schema.version;
        self.schema = new_schema;
        self.generation += 1;
        self.write_catalog()?;
        self.catalog_dirty = 0;
        Ok(migrated)
    }

    /// The schema matching the on-disk data. During normal operation it
    /// equals the compiled-in schema; during migration the compiled-in
    /// schema still describes the stored layout (migration is invoked
    /// *with* the new schema as an argument).
    fn schema_for_stored(&self) -> &Schema {
        &self.schema
    }
}

impl Drop for OodbStore {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldType, SchemaBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};

    static N: AtomicU64 = AtomicU64::new(0);

    fn scratch() -> PathBuf {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-oodb-{n}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn schema() -> Schema {
        SchemaBuilder::new()
            .class(
                "Molecule",
                &[
                    ("formula", FieldType::Text),
                    ("natoms", FieldType::Int),
                    ("geometry", FieldType::Bytes),
                ],
            )
            .class(
                "Calculation",
                &[("subject", FieldType::Ref), ("energy", FieldType::Real)],
            )
            .build()
    }

    #[test]
    fn create_fetch_update_delete() {
        let d = scratch();
        let mut db = OodbStore::create_db(&d, schema()).unwrap();
        let mol = db
            .create(
                "Molecule",
                vec![
                    ("formula".into(), FieldValue::Text("H2O".into())),
                    ("natoms".into(), FieldValue::Int(3)),
                ],
            )
            .unwrap();
        let calc = db
            .create(
                "Calculation",
                vec![
                    ("subject".into(), FieldValue::Ref(mol)),
                    ("energy".into(), FieldValue::Real(-76.4)),
                ],
            )
            .unwrap();
        assert_ne!(mol, calc);
        let got = db.fetch(mol).unwrap();
        assert_eq!(got.class, "Molecule");
        assert_eq!(got.get("formula").unwrap().as_text(), Some("H2O"));
        assert_eq!(got.get("geometry").unwrap(), &FieldValue::Null);

        // Update merges.
        db.update(mol, vec![("natoms".into(), FieldValue::Int(4))])
            .unwrap();
        let got = db.fetch(mol).unwrap();
        assert_eq!(got.get("natoms").unwrap().as_int(), Some(4));
        assert_eq!(got.get("formula").unwrap().as_text(), Some("H2O"));

        db.delete(mol).unwrap();
        assert!(matches!(db.fetch(mol), Err(Error::NoSuchObject(_))));
        assert!(matches!(db.delete(mol), Err(Error::NoSuchObject(_))));
        assert_eq!(db.len(), 1);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn references_resolve() {
        let d = scratch();
        let mut db = OodbStore::create_db(&d, schema()).unwrap();
        let mol = db
            .create(
                "Molecule",
                vec![("formula".into(), FieldValue::Text("UO2".into()))],
            )
            .unwrap();
        let calc = db
            .create(
                "Calculation",
                vec![("subject".into(), FieldValue::Ref(mol))],
            )
            .unwrap();
        let subject_oid = db
            .fetch(calc)
            .unwrap()
            .get("subject")
            .unwrap()
            .as_ref_oid()
            .unwrap();
        assert_eq!(
            db.fetch(subject_oid)
                .unwrap()
                .get("formula")
                .unwrap()
                .as_text(),
            Some("UO2")
        );
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn persistence_across_reopen() {
        let d = scratch();
        let (mol, _count) = {
            let mut db = OodbStore::create_db(&d, schema()).unwrap();
            let mol = db
                .create(
                    "Molecule",
                    vec![("formula".into(), FieldValue::Text("OH".into()))],
                )
                .unwrap();
            for i in 0..50 {
                db.create(
                    "Calculation",
                    vec![("energy".into(), FieldValue::Real(i as f64))],
                )
                .unwrap();
            }
            (mol, db.len())
        };
        let db = OodbStore::open(&d, schema()).unwrap();
        assert_eq!(db.len(), 51);
        assert_eq!(
            db.fetch(mol).unwrap().get("formula").unwrap().as_text(),
            Some("OH")
        );
        assert_eq!(db.scan_class("Calculation").unwrap().len(), 50);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn schema_mismatch_blocks_reads_until_migrate() {
        let d = scratch();
        let old = schema();
        let mol = {
            let mut db = OodbStore::create_db(&d, old.clone()).unwrap();
            db.create(
                "Molecule",
                vec![("formula".into(), FieldValue::Text("H2".into()))],
            )
            .unwrap()
        };
        // "Recompile the application" against an evolved schema.
        let new = old.evolve(&[crate::schema::SchemaChange::AddField {
            class: "Molecule".into(),
            field: crate::schema::FieldDef {
                name: "charge".into(),
                ty: FieldType::Int,
            },
        }]);
        // Open with the old schema still works...
        {
            let db = OodbStore::open(&d, old.clone()).unwrap();
            db.fetch(mol).unwrap();
        }
        // ...but the new application cannot read anything.
        {
            let mut db = OodbStore::open(&d, old.clone()).unwrap();
            // Simulate: the catalog says v1, the app is compiled with v2.
            db.schema = new.clone();
            assert!(matches!(
                db.fetch(mol),
                Err(Error::SchemaVersionMismatch {
                    stored: 1,
                    current: 2
                })
            ));
            assert!(db.create("Molecule", vec![]).is_err());
        }
        // Migration (run by the old binary, handed the new schema).
        {
            let mut db = OodbStore::open(&d, old).unwrap();
            let n = db.migrate(new.clone()).unwrap();
            assert_eq!(n, 1);
            let got = db.fetch(mol).unwrap();
            assert_eq!(got.get("formula").unwrap().as_text(), Some("H2"));
            assert_eq!(got.get("charge").unwrap(), &FieldValue::Null);
        }
        // The new application now opens and reads cleanly.
        let db = OodbStore::open(&d, new).unwrap();
        db.fetch(mol).unwrap();
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn migration_drops_removed_fields() {
        let d = scratch();
        let old = schema();
        let mut db = OodbStore::create_db(&d, old.clone()).unwrap();
        let mol = db
            .create(
                "Molecule",
                vec![
                    ("formula".into(), FieldValue::Text("CH4".into())),
                    ("natoms".into(), FieldValue::Int(5)),
                ],
            )
            .unwrap();
        let new = old.evolve(&[crate::schema::SchemaChange::RemoveField {
            class: "Molecule".into(),
            field: "natoms".into(),
        }]);
        db.migrate(new).unwrap();
        let got = db.fetch(mol).unwrap();
        assert_eq!(got.get("formula").unwrap().as_text(), Some("CH4"));
        assert!(got.get("natoms").is_none());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn updates_leave_dead_copies_on_disk() {
        let d = scratch();
        let mut db = OodbStore::create_db(&d, schema()).unwrap();
        let mol = db
            .create(
                "Molecule",
                vec![("geometry".into(), FieldValue::Bytes(vec![0u8; 50_000]))],
            )
            .unwrap();
        let before_segments = db.segments.segment_count();
        for _ in 0..10 {
            db.update(
                mol,
                vec![("geometry".into(), FieldValue::Bytes(vec![1u8; 50_000]))],
            )
            .unwrap();
        }
        // Ten superseded 50 KB copies forced extra segments.
        assert!(db.segments.segment_count() > before_segments);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn create_on_existing_dir_fails() {
        let d = scratch();
        let _db = OodbStore::create_db(&d, schema()).unwrap();
        assert!(OodbStore::create_db(&d, schema()).is_err());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn field_validation_on_create() {
        let d = scratch();
        let mut db = OodbStore::create_db(&d, schema()).unwrap();
        assert!(matches!(
            db.create("Nope", vec![]),
            Err(Error::NoSuchClass(_))
        ));
        assert!(matches!(
            db.create(
                "Molecule",
                vec![("natoms".into(), FieldValue::Text("x".into()))]
            ),
            Err(Error::FieldMismatch { .. })
        ));
        fs::remove_dir_all(&d).unwrap();
    }
}
