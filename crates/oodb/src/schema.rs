//! Class schemas and their (painful) evolution.
//!
//! Ecce 1.5 had "70 classes marked for persistent storage" and the paper
//! complains about "a schema evolution process made painful by outdated
//! schema/application compilation cycles". We model exactly that: a
//! [`Schema`] is versioned; stored objects are stamped with the version;
//! changing the schema produces a *new* version and the store refuses to
//! read old data until migrated. (Contrast with the DAV store, where new
//! metadata needs no coordination at all.)

use crate::error::{Error, Result};
use crate::value::FieldValue;
use std::collections::HashMap;

/// Declared type of a persistent field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Real,
    /// UTF-8 string.
    Text,
    /// Raw bytes.
    Bytes,
    /// Reference to another object.
    Ref,
    /// List of values.
    List,
}

impl FieldType {
    /// Does `value` conform to this declared type? `Null` always does.
    pub fn admits(self, value: &FieldValue) -> bool {
        matches!(
            (self, value),
            (_, FieldValue::Null)
                | (FieldType::Int, FieldValue::Int(_))
                | (FieldType::Real, FieldValue::Real(_))
                | (FieldType::Real, FieldValue::Int(_))
                | (FieldType::Text, FieldValue::Text(_))
                | (FieldType::Bytes, FieldValue::Bytes(_))
                | (FieldType::Ref, FieldValue::Ref(_))
                | (FieldType::List, FieldValue::List(_))
        )
    }
}

/// One field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Declared type.
    pub ty: FieldType,
}

/// One persistent class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// Class name (unique in the schema).
    pub name: String,
    /// Field declarations in order (order matters to the encoding).
    pub fields: Vec<FieldDef>,
}

impl ClassDef {
    /// Index of a field by name.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

/// A versioned schema: the application's compiled-in data model.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Monotonic version; bumped by every evolution.
    pub version: u32,
    classes: Vec<ClassDef>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    fn from_classes(version: u32, classes: Vec<ClassDef>) -> Schema {
        let by_name = classes
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect();
        Schema {
            version,
            classes,
            by_name,
        }
    }

    /// Look up a class by name.
    pub fn class(&self, name: &str) -> Result<&ClassDef> {
        self.by_name
            .get(name)
            .map(|&i| &self.classes[i])
            .ok_or_else(|| Error::NoSuchClass(name.to_owned()))
    }

    /// Class by its stable numeric id (its index).
    pub fn class_by_id(&self, id: u16) -> Result<&ClassDef> {
        self.classes
            .get(id as usize)
            .ok_or_else(|| Error::Corrupt(format!("class id {id} out of range")))
    }

    /// The numeric id of a class.
    pub fn class_id(&self, name: &str) -> Result<u16> {
        self.by_name
            .get(name)
            .map(|&i| i as u16)
            .ok_or_else(|| Error::NoSuchClass(name.to_owned()))
    }

    /// All classes.
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// Validate a full field list for `class`, returning values in
    /// declaration order (missing fields become `Null`).
    pub fn normalize_fields(
        &self,
        class: &str,
        mut given: Vec<(String, FieldValue)>,
    ) -> Result<Vec<FieldValue>> {
        let def = self.class(class)?;
        let mut out = vec![FieldValue::Null; def.fields.len()];
        for (name, value) in given.drain(..) {
            let idx = def.field_index(&name).ok_or_else(|| Error::FieldMismatch {
                class: class.to_owned(),
                field: name.clone(),
                problem: "not declared".into(),
            })?;
            if !def.fields[idx].ty.admits(&value) {
                return Err(Error::FieldMismatch {
                    class: class.to_owned(),
                    field: name,
                    problem: format!("type {:?} does not admit {value:?}", def.fields[idx].ty),
                });
            }
            out[idx] = value;
        }
        Ok(out)
    }

    /// Evolve the schema: apply changes and bump the version. Stored
    /// data becomes unreadable until the store's `migrate` runs — this
    /// is the coupling the DAV design eliminates.
    pub fn evolve(&self, changes: &[SchemaChange]) -> Schema {
        let mut classes = self.classes.clone();
        for change in changes {
            match change {
                SchemaChange::AddClass(def) => classes.push(def.clone()),
                SchemaChange::AddField { class, field } => {
                    if let Some(c) = classes.iter_mut().find(|c| &c.name == class) {
                        c.fields.push(field.clone());
                    }
                }
                SchemaChange::RemoveField { class, field } => {
                    if let Some(c) = classes.iter_mut().find(|c| &c.name == class) {
                        c.fields.retain(|f| &f.name != field);
                    }
                }
            }
        }
        Schema::from_classes(self.version + 1, classes)
    }
}

/// A single schema evolution step.
#[derive(Debug, Clone)]
pub enum SchemaChange {
    /// Introduce a new class.
    AddClass(ClassDef),
    /// Add a field to an existing class (back-filled with `Null`).
    AddField {
        /// Target class.
        class: String,
        /// New field.
        field: FieldDef,
    },
    /// Drop a field (data discarded at migration).
    RemoveField {
        /// Target class.
        class: String,
        /// Field to drop.
        field: String,
    },
}

/// Fluent schema construction.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    classes: Vec<ClassDef>,
}

impl SchemaBuilder {
    /// Start an empty schema (version 1).
    pub fn new() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// Add a class with `(name, type)` fields.
    pub fn class(mut self, name: &str, fields: &[(&str, FieldType)]) -> SchemaBuilder {
        self.classes.push(ClassDef {
            name: name.to_owned(),
            fields: fields
                .iter()
                .map(|(n, t)| FieldDef {
                    name: (*n).to_owned(),
                    ty: *t,
                })
                .collect(),
        });
        self
    }

    /// Finish.
    pub fn build(self) -> Schema {
        Schema::from_classes(1, self.classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        SchemaBuilder::new()
            .class(
                "Molecule",
                &[("formula", FieldType::Text), ("natoms", FieldType::Int)],
            )
            .class("Calc", &[("subject", FieldType::Ref)])
            .build()
    }

    #[test]
    fn lookup_by_name_and_id() {
        let s = schema();
        assert_eq!(s.version, 1);
        assert_eq!(s.class("Molecule").unwrap().fields.len(), 2);
        assert_eq!(s.class_id("Calc").unwrap(), 1);
        assert_eq!(s.class_by_id(0).unwrap().name, "Molecule");
        assert!(s.class("Nope").is_err());
        assert!(s.class_by_id(9).is_err());
    }

    #[test]
    fn normalize_orders_and_fills() {
        let s = schema();
        let fields = s
            .normalize_fields("Molecule", vec![("natoms".into(), FieldValue::Int(3))])
            .unwrap();
        assert_eq!(fields[0], FieldValue::Null); // formula missing
        assert_eq!(fields[1], FieldValue::Int(3));
    }

    #[test]
    fn type_checking() {
        let s = schema();
        assert!(matches!(
            s.normalize_fields(
                "Molecule",
                vec![("natoms".into(), FieldValue::Text("three".into()))]
            ),
            Err(Error::FieldMismatch { .. })
        ));
        assert!(matches!(
            s.normalize_fields("Molecule", vec![("ghost".into(), FieldValue::Null)]),
            Err(Error::FieldMismatch { .. })
        ));
        // Int widens into Real fields.
        let s2 = SchemaBuilder::new()
            .class("P", &[("energy", FieldType::Real)])
            .build();
        s2.normalize_fields("P", vec![("energy".into(), FieldValue::Int(1))])
            .unwrap();
    }

    #[test]
    fn evolution_bumps_version() {
        let s = schema();
        let s2 = s.evolve(&[SchemaChange::AddField {
            class: "Molecule".into(),
            field: FieldDef {
                name: "charge".into(),
                ty: FieldType::Int,
            },
        }]);
        assert_eq!(s2.version, 2);
        assert_eq!(s2.class("Molecule").unwrap().fields.len(), 3);
        // Original untouched.
        assert_eq!(s.class("Molecule").unwrap().fields.len(), 2);

        let s3 = s2.evolve(&[SchemaChange::RemoveField {
            class: "Molecule".into(),
            field: "natoms".into(),
        }]);
        assert_eq!(s3.version, 3);
        assert!(s3
            .class("Molecule")
            .unwrap()
            .field_index("natoms")
            .is_none());
    }

    #[test]
    fn add_class_via_evolution() {
        let s = schema().evolve(&[SchemaChange::AddClass(ClassDef {
            name: "Basis".into(),
            fields: vec![],
        })]);
        assert!(s.class("Basis").is_ok());
        assert_eq!(s.class_id("Basis").unwrap(), 2);
    }
}
