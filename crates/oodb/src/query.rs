//! Predicate scans over the object store.
//!
//! The OODBMS query surface Ecce 1.5 used: class extents filtered by
//! field predicates, with reference traversal. (Contrast with the DAV
//! store, where the same job is a DASL `SEARCH` visible to every
//! application.)

use crate::error::Result;
use crate::store::{OodbStore, StoredObject};
use crate::value::FieldValue;

/// A field predicate.
#[derive(Debug, Clone)]
pub enum Pred {
    /// Text field equals.
    TextEq(String, String),
    /// Text field contains.
    TextContains(String, String),
    /// Numeric field (Int or Real) compares greater.
    NumGt(String, f64),
    /// Numeric field compares less.
    NumLt(String, f64),
    /// Field is non-null.
    IsSet(String),
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
}

impl Pred {
    /// Evaluate against one object.
    pub fn eval(&self, obj: &StoredObject) -> bool {
        match self {
            Pred::TextEq(f, v) => obj.get(f).and_then(FieldValue::as_text) == Some(v.as_str()),
            Pred::TextContains(f, v) => obj
                .get(f)
                .and_then(FieldValue::as_text)
                .is_some_and(|t| t.contains(v.as_str())),
            Pred::NumGt(f, v) => obj
                .get(f)
                .and_then(FieldValue::as_real)
                .is_some_and(|x| x > *v),
            Pred::NumLt(f, v) => obj
                .get(f)
                .and_then(FieldValue::as_real)
                .is_some_and(|x| x < *v),
            Pred::IsSet(f) => obj.get(f).is_some_and(|v| !matches!(v, FieldValue::Null)),
            Pred::And(ps) => ps.iter().all(|p| p.eval(obj)),
            Pred::Or(ps) => ps.iter().any(|p| p.eval(obj)),
        }
    }
}

/// Scan a class extent with a predicate.
pub fn select(store: &OodbStore, class: &str, pred: &Pred) -> Result<Vec<StoredObject>> {
    Ok(store
        .scan_class(class)?
        .into_iter()
        .filter(|o| pred.eval(o))
        .collect())
}

/// Follow a `Ref` field from each object, fetching the targets.
pub fn traverse(
    store: &OodbStore,
    objects: &[StoredObject],
    ref_field: &str,
) -> Result<Vec<StoredObject>> {
    let mut out = Vec::new();
    for obj in objects {
        if let Some(oid) = obj.get(ref_field).and_then(FieldValue::as_ref_oid) {
            out.push(store.fetch(oid)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldType, SchemaBuilder};
    use crate::value::Oid;
    use std::sync::atomic::{AtomicU64, Ordering};

    static N: AtomicU64 = AtomicU64::new(0);

    fn store() -> (OodbStore, std::path::PathBuf, Vec<Oid>) {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-query-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let schema = SchemaBuilder::new()
            .class(
                "Molecule",
                &[("formula", FieldType::Text), ("charge", FieldType::Int)],
            )
            .class(
                "Calc",
                &[("subject", FieldType::Ref), ("energy", FieldType::Real)],
            )
            .build();
        let mut db = OodbStore::create_db(&d, schema).unwrap();
        let mut oids = Vec::new();
        for (f, q) in [("H2O", 0i64), ("UO2", 2), ("OH", -1)] {
            oids.push(
                db.create(
                    "Molecule",
                    vec![
                        ("formula".into(), FieldValue::Text(f.into())),
                        ("charge".into(), FieldValue::Int(q)),
                    ],
                )
                .unwrap(),
            );
        }
        for (i, &mol) in oids.clone().iter().enumerate() {
            db.create(
                "Calc",
                vec![
                    ("subject".into(), FieldValue::Ref(mol)),
                    ("energy".into(), FieldValue::Real(-100.0 * i as f64)),
                ],
            )
            .unwrap();
        }
        (db, d, oids)
    }

    #[test]
    fn text_predicates() {
        let (db, d, _) = store();
        let hits = select(
            &db,
            "Molecule",
            &Pred::TextEq("formula".into(), "UO2".into()),
        )
        .unwrap();
        assert_eq!(hits.len(), 1);
        let hits = select(
            &db,
            "Molecule",
            &Pred::TextContains("formula".into(), "O".into()),
        )
        .unwrap();
        assert_eq!(hits.len(), 3);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn numeric_and_composite() {
        let (db, d, _) = store();
        let pos = select(&db, "Molecule", &Pred::NumGt("charge".into(), 0.0)).unwrap();
        assert_eq!(pos.len(), 1);
        let both = select(
            &db,
            "Molecule",
            &Pred::Or(vec![
                Pred::NumGt("charge".into(), 0.0),
                Pred::NumLt("charge".into(), 0.0),
            ]),
        )
        .unwrap();
        assert_eq!(both.len(), 2);
        let none = select(
            &db,
            "Molecule",
            &Pred::And(vec![
                Pred::NumGt("charge".into(), 0.0),
                Pred::TextEq("formula".into(), "H2O".into()),
            ]),
        )
        .unwrap();
        assert!(none.is_empty());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn traversal_follows_refs() {
        let (db, d, _) = store();
        let cheap = select(&db, "Calc", &Pred::NumLt("energy".into(), -50.0)).unwrap();
        assert_eq!(cheap.len(), 2);
        let subjects = traverse(&db, &cheap, "subject").unwrap();
        let formulas: Vec<_> = subjects
            .iter()
            .map(|m| m.get("formula").unwrap().as_text().unwrap().to_owned())
            .collect();
        assert!(formulas.contains(&"UO2".to_owned()));
        assert!(formulas.contains(&"OH".to_owned()));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn is_set_predicate() {
        let (mut db, d, _) = store();
        db.create("Molecule", vec![]).unwrap(); // all-null molecule
        let set = select(&db, "Molecule", &Pred::IsSet("formula".into())).unwrap();
        assert_eq!(set.len(), 3);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
