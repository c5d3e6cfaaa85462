//! The Ecce 1.5 persistence path: the object model over the OODBMS.
//!
//! This is the architecture the paper replaces — "persistent object
//! classes, representing molecules, basis sets, projects, calculations,
//! and jobs, provided the core for tool development". Implementing the
//! same [`EcceStore`] interface over `pse-oodb` gives Table 3 its
//! baseline and the migration study its source database.
//!
//! Note the characteristic couplings: every entity is an object in a
//! compiled-in schema ([`ecce_schema`]); relationships are OID
//! references; bulky values are proprietary binary; and nothing outside
//! this module can interpret any of it — the "proprietary binary
//! formats" and "tight coupling" of §2.

use crate::basis::BasisSet;
use crate::chem::Molecule;
use crate::error::{EcceError, Result};
use crate::factory::{CalcSummary, EcceStore};
use crate::model::{
    CalcState, Calculation, Job, OutputProperty, Project, PropertyValue, RunType, Task, Theory,
};
use pse_oodb::api::ObjectApi;
use pse_oodb::query::Pred;
use pse_oodb::schema::{FieldType, Schema, SchemaBuilder};
use pse_oodb::value::{FieldValue, Oid};
use pse_oodb::{OodbStore, RemoteOodb};
use std::path::Path;

/// The compiled-in Ecce object schema (a representative subset of the
/// "70 classes marked for persistent storage").
///
/// The model is deliberately fine-grained, matching the density of the
/// real system: the paper's two databases held "259 calculations
/// represented by about 420,000 OODB objects" — roughly 1,600 objects
/// per calculation. Atoms are objects; property tables decompose into
/// one row object per row. A completed UO2·15H2O frequency run lands
/// within a few percent of that ratio.
pub fn ecce_schema() -> Schema {
    SchemaBuilder::new()
        .class(
            "Project",
            &[
                ("path", FieldType::Text),
                ("name", FieldType::Text),
                ("description", FieldType::Text),
            ],
        )
        .class(
            "Calculation",
            &[
                ("path", FieldType::Text),
                ("name", FieldType::Text),
                ("state", FieldType::Text),
                ("theory", FieldType::Text),
                ("runtype", FieldType::Text),
                ("formula", FieldType::Text),
                ("molecule", FieldType::Ref),
                ("basis", FieldType::Ref),
                ("input", FieldType::Text),
                ("job", FieldType::Ref),
                ("tasks", FieldType::List),
                ("properties", FieldType::List),
            ],
        )
        .class(
            "Molecule",
            &[
                ("name", FieldType::Text),
                ("formula", FieldType::Text),
                ("symmetry", FieldType::Text),
                ("charge", FieldType::Int),
                ("natoms", FieldType::Int),
                ("atoms", FieldType::List),
            ],
        )
        .class(
            "Atom",
            &[
                ("seq", FieldType::Int),
                ("symbol", FieldType::Text),
                ("x", FieldType::Real),
                ("y", FieldType::Real),
                ("z", FieldType::Real),
            ],
        )
        .class(
            "BasisSet",
            &[("name", FieldType::Text), ("data", FieldType::Bytes)],
        )
        .class(
            "Task",
            &[
                ("name", FieldType::Text),
                ("sequence", FieldType::Int),
                ("runtype", FieldType::Text),
            ],
        )
        .class(
            "Job",
            &[
                ("machine", FieldType::Text),
                ("queue", FieldType::Text),
                ("jobid", FieldType::Int),
                ("wall", FieldType::Real),
            ],
        )
        .class(
            "Property",
            &[
                ("name", FieldType::Text),
                ("units", FieldType::Text),
                ("kind", FieldType::Text),
                ("rows", FieldType::Int),
                ("cols", FieldType::Int),
                ("row_objects", FieldType::List),
            ],
        )
        .class(
            "PropertyRow",
            &[("seq", FieldType::Int), ("values", FieldType::Bytes)],
        )
        .class(
            "Annotation",
            &[
                ("target", FieldType::Text),
                ("key", FieldType::Text),
                ("value", FieldType::Text),
            ],
        )
        .build()
}

/// Pack a float slice into the proprietary little-endian byte form.
fn pack_f64(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Unpack the proprietary byte form.
fn unpack_f64(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect()
}

/// The Ecce 1.5 store, generic over the deployment: embedded
/// ([`OodbStore`]) or the client/server split ([`RemoteOodb`]) the
/// production system used.
pub struct OodbEcceStore<A: ObjectApi = OodbStore> {
    db: A,
}

impl OodbEcceStore<OodbStore> {
    /// Create a fresh embedded database.
    pub fn create(dir: impl AsRef<Path>) -> Result<OodbEcceStore> {
        Ok(OodbEcceStore {
            db: OodbStore::create_db(dir, ecce_schema())?,
        })
    }

    /// Open an existing embedded database.
    pub fn open(dir: impl AsRef<Path>) -> Result<OodbEcceStore> {
        Ok(OodbEcceStore {
            db: OodbStore::open(dir, ecce_schema())?,
        })
    }
}

impl OodbEcceStore<RemoteOodb> {
    /// Attach to a remote OODB server (the Ecce 1.5 deployment shape).
    pub fn remote(client: RemoteOodb) -> OodbEcceStore<RemoteOodb> {
        OodbEcceStore { db: client }
    }
}

impl<A: ObjectApi> OodbEcceStore<A> {
    /// Direct access to the object database (migration tooling).
    pub fn db(&mut self) -> &mut A {
        &mut self.db
    }

    /// Scan a class extent and filter with a predicate (the OODBMS
    /// query surface: class extents, client-side filtering).
    fn select(&mut self, class: &str, pred: &Pred) -> Result<Vec<pse_oodb::StoredObject>> {
        Ok(self
            .db
            .scan_class(class)?
            .into_iter()
            .filter(|o| pred.eval(o))
            .collect())
    }

    fn text(obj: &pse_oodb::StoredObject, field: &str) -> String {
        obj.get(field)
            .and_then(FieldValue::as_text)
            .unwrap_or("")
            .to_owned()
    }

    fn find_calc_oid(&mut self, path: &str) -> Result<Oid> {
        let hits = self.select("Calculation", &Pred::TextEq("path".into(), path.to_owned()))?;
        hits.first()
            .map(|o| o.oid)
            .ok_or_else(|| EcceError::NotFound(path.to_owned()))
    }

    fn save_molecule(&mut self, mol: &Molecule) -> Result<Oid> {
        // One Atom object per atom — the fine granularity of the 1.5
        // object model.
        let mut atom_refs = Vec::with_capacity(mol.natoms());
        for (i, a) in mol.atoms.iter().enumerate() {
            atom_refs.push(FieldValue::Ref(self.db.create(
                "Atom",
                vec![
                    ("seq".into(), FieldValue::Int(i as i64)),
                    ("symbol".into(), FieldValue::Text(a.symbol.clone())),
                    ("x".into(), FieldValue::Real(a.x)),
                    ("y".into(), FieldValue::Real(a.y)),
                    ("z".into(), FieldValue::Real(a.z)),
                ],
            )?));
        }
        Ok(self.db.create(
            "Molecule",
            vec![
                ("name".into(), FieldValue::Text(mol.name.clone())),
                ("formula".into(), FieldValue::Text(mol.empirical_formula())),
                ("symmetry".into(), FieldValue::Text(mol.symmetry.clone())),
                ("charge".into(), FieldValue::Int(mol.charge as i64)),
                ("natoms".into(), FieldValue::Int(mol.natoms() as i64)),
                ("atoms".into(), FieldValue::List(atom_refs)),
            ],
        )?)
    }

    fn load_molecule(&mut self, oid: Oid) -> Result<Molecule> {
        let obj = self.db.fetch(oid)?;
        let mut mol = Molecule::new(&Self::text(&obj, "name"));
        mol.symmetry = Self::text(&obj, "symmetry");
        mol.charge = obj.get("charge").and_then(FieldValue::as_int).unwrap_or(0) as i32;
        let atom_oids: Vec<Oid> = obj
            .get("atoms")
            .and_then(FieldValue::as_list)
            .map(|l| l.iter().filter_map(FieldValue::as_ref_oid).collect())
            .unwrap_or_default();
        let mut atoms = Vec::with_capacity(atom_oids.len());
        for aoid in atom_oids {
            let a = self.db.fetch(aoid)?;
            atoms.push((
                a.get("seq").and_then(FieldValue::as_int).unwrap_or(0),
                crate::chem::Atom::new(
                    &Self::text(&a, "symbol"),
                    a.get("x").and_then(FieldValue::as_real).unwrap_or(0.0),
                    a.get("y").and_then(FieldValue::as_real).unwrap_or(0.0),
                    a.get("z").and_then(FieldValue::as_real).unwrap_or(0.0),
                ),
            ));
        }
        atoms.sort_by_key(|(seq, _)| *seq);
        mol.atoms = atoms.into_iter().map(|(_, a)| a).collect();
        Ok(mol)
    }

    fn save_property(&mut self, p: &OutputProperty) -> Result<Oid> {
        // Tables decompose into one PropertyRow object per row; vectors
        // chunk into 64-value rows — the density that put "about 420,000
        // OODB objects" behind 259 calculations.
        let (kind, rows, cols, row_chunks): (_, usize, usize, Vec<&[f64]>) = match &p.value {
            PropertyValue::Scalar(v) => ("scalar", 1, 1, vec![std::slice::from_ref(v)]),
            PropertyValue::Vector(vs) => ("vector", vs.len(), 1, vs.chunks(64).collect()),
            PropertyValue::Table { rows, cols, data } => {
                ("table", *rows, *cols, data.chunks((*cols).max(1)).collect())
            }
        };
        let mut row_refs = Vec::with_capacity(row_chunks.len());
        for (i, chunk) in row_chunks.iter().enumerate() {
            row_refs.push(FieldValue::Ref(self.db.create(
                "PropertyRow",
                vec![
                    ("seq".into(), FieldValue::Int(i as i64)),
                    ("values".into(), FieldValue::Bytes(pack_f64(chunk))),
                ],
            )?));
        }
        Ok(self.db.create(
            "Property",
            vec![
                ("name".into(), FieldValue::Text(p.name.clone())),
                ("units".into(), FieldValue::Text(p.units.clone())),
                ("kind".into(), FieldValue::Text(kind.to_owned())),
                ("rows".into(), FieldValue::Int(rows as i64)),
                ("cols".into(), FieldValue::Int(cols as i64)),
                ("row_objects".into(), FieldValue::List(row_refs)),
            ],
        )?)
    }

    fn load_property(&mut self, oid: Oid) -> Result<OutputProperty> {
        let obj = self.db.fetch(oid)?;
        let row_oids: Vec<(i64, Oid)> = obj
            .get("row_objects")
            .and_then(FieldValue::as_list)
            .map(|l| {
                l.iter()
                    .filter_map(FieldValue::as_ref_oid)
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default()
            .into_iter()
            .map(|o| (0, o))
            .collect();
        let mut chunks: Vec<(i64, Vec<f64>)> = Vec::with_capacity(row_oids.len());
        for (_, roid) in row_oids {
            let r = self.db.fetch(roid)?;
            chunks.push((
                r.get("seq").and_then(FieldValue::as_int).unwrap_or(0),
                unpack_f64(
                    r.get("values")
                        .and_then(FieldValue::as_bytes)
                        .unwrap_or(&[]),
                ),
            ));
        }
        chunks.sort_by_key(|(seq, _)| *seq);
        let data: Vec<f64> = chunks.into_iter().flat_map(|(_, c)| c).collect();
        let rows = obj.get("rows").and_then(FieldValue::as_int).unwrap_or(0) as usize;
        let cols = obj.get("cols").and_then(FieldValue::as_int).unwrap_or(0) as usize;
        let value = match Self::text(&obj, "kind").as_str() {
            "scalar" => PropertyValue::Scalar(data.first().copied().unwrap_or(0.0)),
            "table" => PropertyValue::Table { rows, cols, data },
            _ => PropertyValue::Vector(data),
        };
        Ok(OutputProperty {
            name: Self::text(&obj, "name"),
            units: Self::text(&obj, "units"),
            value,
        })
    }

    /// Persist the full object graph of a calculation; returns the OID.
    fn save_calc_graph(&mut self, path: &str, calc: &Calculation) -> Result<Oid> {
        let molecule = match &calc.molecule {
            Some(m) => FieldValue::Ref(self.save_molecule(m)?),
            None => FieldValue::Null,
        };
        let basis = match &calc.basis {
            Some(b) => FieldValue::Ref(self.db.create(
                "BasisSet",
                vec![
                    ("name".into(), FieldValue::Text(b.name.clone())),
                    ("data".into(), FieldValue::Bytes(b.to_text().into_bytes())),
                ],
            )?),
            None => FieldValue::Null,
        };
        let job = match &calc.job {
            Some(j) => FieldValue::Ref(self.db.create(
                "Job",
                vec![
                    ("machine".into(), FieldValue::Text(j.machine.clone())),
                    ("queue".into(), FieldValue::Text(j.queue.clone())),
                    ("jobid".into(), FieldValue::Int(j.job_id as i64)),
                    ("wall".into(), FieldValue::Real(j.wall_seconds)),
                ],
            )?),
            None => FieldValue::Null,
        };
        let mut task_refs = Vec::new();
        for t in &calc.tasks {
            task_refs.push(FieldValue::Ref(self.db.create(
                "Task",
                vec![
                    ("name".into(), FieldValue::Text(t.name.clone())),
                    ("sequence".into(), FieldValue::Int(t.sequence as i64)),
                    (
                        "runtype".into(),
                        FieldValue::Text(t.run_type.as_str().into()),
                    ),
                ],
            )?));
        }
        let mut prop_refs = Vec::new();
        for p in &calc.properties {
            prop_refs.push(FieldValue::Ref(self.save_property(p)?));
        }
        Ok(self.db.create(
            "Calculation",
            vec![
                ("path".into(), FieldValue::Text(path.to_owned())),
                ("name".into(), FieldValue::Text(calc.name.clone())),
                ("state".into(), FieldValue::Text(calc.state.as_str().into())),
                (
                    "theory".into(),
                    FieldValue::Text(calc.theory.as_str().into()),
                ),
                (
                    "runtype".into(),
                    FieldValue::Text(calc.run_type.as_str().into()),
                ),
                (
                    "formula".into(),
                    FieldValue::Text(
                        calc.molecule
                            .as_ref()
                            .map(|m| m.empirical_formula())
                            .unwrap_or_default(),
                    ),
                ),
                ("molecule".into(), molecule),
                ("basis".into(), basis),
                (
                    "input".into(),
                    calc.input_deck
                        .clone()
                        .map(FieldValue::Text)
                        .unwrap_or(FieldValue::Null),
                ),
                ("job".into(), job),
                ("tasks".into(), FieldValue::List(task_refs)),
                ("properties".into(), FieldValue::List(prop_refs)),
            ],
        )?)
    }

    fn load_calc_by_oid(&mut self, oid: Oid) -> Result<Calculation> {
        let obj = self.db.fetch(oid)?;
        let mut calc = Calculation::new(&Self::text(&obj, "name"));
        calc.state = CalcState::parse(&Self::text(&obj, "state")).unwrap_or(CalcState::Created);
        calc.theory = Theory::parse(&Self::text(&obj, "theory")).unwrap_or(Theory::Scf);
        calc.run_type = RunType::parse(&Self::text(&obj, "runtype")).unwrap_or(RunType::Energy);
        if let Some(moid) = obj.get("molecule").and_then(FieldValue::as_ref_oid) {
            calc.molecule = Some(self.load_molecule(moid)?);
        }
        if let Some(boid) = obj.get("basis").and_then(FieldValue::as_ref_oid) {
            let bobj = self.db.fetch(boid)?;
            let data = bobj
                .get("data")
                .and_then(FieldValue::as_bytes)
                .unwrap_or(&[]);
            calc.basis = Some(BasisSet::from_text(&String::from_utf8_lossy(data))?);
        }
        let input = Self::text(&obj, "input");
        if !input.is_empty() {
            calc.input_deck = Some(input);
        }
        if let Some(joid) = obj.get("job").and_then(FieldValue::as_ref_oid) {
            let jobj = self.db.fetch(joid)?;
            calc.job = Some(Job {
                machine: Self::text(&jobj, "machine"),
                queue: Self::text(&jobj, "queue"),
                job_id: jobj.get("jobid").and_then(FieldValue::as_int).unwrap_or(0) as u64,
                wall_seconds: jobj
                    .get("wall")
                    .and_then(FieldValue::as_real)
                    .unwrap_or(0.0),
            });
        }
        if let Some(tasks) = obj.get("tasks").and_then(FieldValue::as_list) {
            for t in tasks {
                if let Some(toid) = t.as_ref_oid() {
                    let tobj = self.db.fetch(toid)?;
                    calc.tasks.push(Task {
                        name: Self::text(&tobj, "name"),
                        sequence: tobj
                            .get("sequence")
                            .and_then(FieldValue::as_int)
                            .unwrap_or(0) as u32,
                        run_type: RunType::parse(&Self::text(&tobj, "runtype"))
                            .unwrap_or(RunType::Energy),
                    });
                }
            }
            calc.tasks.sort_by_key(|t| t.sequence);
        }
        if let Some(props) = obj.get("properties").and_then(FieldValue::as_list) {
            for p in props {
                if let Some(poid) = p.as_ref_oid() {
                    calc.properties.push(self.load_property(poid)?);
                }
            }
        }
        Ok(calc)
    }

    /// Delete the full object graph of a calculation, including the
    /// second-level atoms and property rows.
    fn delete_calc_graph(&mut self, oid: Oid) -> Result<()> {
        let obj = self.db.fetch(oid)?;
        let mut to_delete: Vec<Oid> = Vec::new();
        for field in ["molecule", "basis", "job"] {
            if let Some(o) = obj.get(field).and_then(FieldValue::as_ref_oid) {
                to_delete.push(o);
            }
        }
        for field in ["tasks", "properties"] {
            if let Some(list) = obj.get(field).and_then(FieldValue::as_list) {
                to_delete.extend(list.iter().filter_map(FieldValue::as_ref_oid));
            }
        }
        // Second level: atoms of the molecule, rows of each property.
        let mut nested: Vec<Oid> = Vec::new();
        for o in &to_delete {
            if let Ok(inner) = self.db.fetch(*o) {
                for field in ["atoms", "row_objects"] {
                    if let Some(list) = inner.get(field).and_then(FieldValue::as_list) {
                        nested.extend(list.iter().filter_map(FieldValue::as_ref_oid));
                    }
                }
            }
        }
        to_delete.extend(nested);
        for o in to_delete {
            let _ = self.db.delete(o);
        }
        self.db.delete(oid)?;
        Ok(())
    }
}

impl<A: ObjectApi> EcceStore for OodbEcceStore<A> {
    fn backend_name(&self) -> &'static str {
        "oodb"
    }

    fn create_project(&mut self, project: &Project) -> Result<String> {
        let path = format!("/Ecce/{}", project.name);
        self.db.create(
            "Project",
            vec![
                ("path".into(), FieldValue::Text(path.clone())),
                ("name".into(), FieldValue::Text(project.name.clone())),
                (
                    "description".into(),
                    FieldValue::Text(project.description.clone()),
                ),
            ],
        )?;
        Ok(path)
    }

    fn list_projects(&mut self) -> Result<Vec<String>> {
        let mut out: Vec<String> = self
            .db
            .scan_class("Project")?
            .iter()
            .map(|o| Self::text(o, "path"))
            .collect();
        out.sort();
        Ok(out)
    }

    fn load_project(&mut self, path: &str) -> Result<Project> {
        let hits = self.select("Project", &Pred::TextEq("path".into(), path.to_owned()))?;
        let obj = hits
            .first()
            .ok_or_else(|| EcceError::NotFound(path.to_owned()))?;
        Ok(Project {
            name: Self::text(obj, "name"),
            description: Self::text(obj, "description"),
        })
    }

    fn save_calculation(&mut self, project: &str, calc: &Calculation) -> Result<String> {
        let path = format!("{project}/{}", calc.name);
        if let Ok(existing) = self.find_calc_oid(&path) {
            self.delete_calc_graph(existing)?;
        }
        self.save_calc_graph(&path, calc)?;
        Ok(path)
    }

    fn update_calculation(&mut self, path: &str, calc: &Calculation) -> Result<()> {
        let oid = self.find_calc_oid(path)?;
        self.delete_calc_graph(oid)?;
        self.save_calc_graph(path, calc)?;
        Ok(())
    }

    fn load_calculation(&mut self, path: &str) -> Result<Calculation> {
        let oid = self.find_calc_oid(path)?;
        self.load_calc_by_oid(oid)
    }

    fn calc_summary(&mut self, path: &str) -> Result<CalcSummary> {
        // The object model offers no partial load: the summary costs a
        // full fetch of the calculation object (though not its
        // referenced graph) — one of the granularity contrasts with the
        // DAV mapping.
        let oid = self.find_calc_oid(path)?;
        let obj = self.db.fetch(oid)?;
        Ok(CalcSummary {
            name: Self::text(&obj, "name"),
            state: CalcState::parse(&Self::text(&obj, "state")).unwrap_or(CalcState::Created),
            theory: Theory::parse(&Self::text(&obj, "theory")).unwrap_or(Theory::Scf),
            run_type: RunType::parse(&Self::text(&obj, "runtype")).unwrap_or(RunType::Energy),
            formula: Some(Self::text(&obj, "formula")).filter(|f| !f.is_empty()),
        })
    }

    fn list_calculations(&mut self, project: &str) -> Result<Vec<String>> {
        let prefix = format!("{project}/");
        let mut out: Vec<String> = self
            .db
            .scan_class("Calculation")?
            .iter()
            .map(|o| Self::text(o, "path"))
            .filter(|p| p.starts_with(&prefix) && !p[prefix.len()..].contains('/'))
            .collect();
        out.sort();
        Ok(out)
    }

    fn copy_calculation(&mut self, src: &str, dst: &str) -> Result<()> {
        let calc = self.load_calculation(src)?;
        let mut renamed = calc;
        renamed.name = pse_http::uri::basename(dst).to_owned();
        self.save_calc_graph(dst, &renamed)?;
        Ok(())
    }

    fn delete(&mut self, path: &str) -> Result<()> {
        if let Ok(oid) = self.find_calc_oid(path) {
            return self.delete_calc_graph(oid);
        }
        // A project: delete it and its calculations.
        let projects = self.select("Project", &Pred::TextEq("path".into(), path.to_owned()))?;
        if projects.is_empty() {
            return Err(EcceError::NotFound(path.to_owned()));
        }
        for p in projects {
            self.db.delete(p.oid)?;
        }
        for calc_path in self.list_calculations(path)? {
            let oid = self.find_calc_oid(&calc_path)?;
            self.delete_calc_graph(oid)?;
        }
        Ok(())
    }

    fn annotate(&mut self, path: &str, key: &str, value: &str) -> Result<()> {
        // Unlike DAV, the schema must already have a place for this —
        // Annotation objects model the "brittle integration" workaround.
        self.db.create(
            "Annotation",
            vec![
                ("target".into(), FieldValue::Text(path.to_owned())),
                ("key".into(), FieldValue::Text(key.to_owned())),
                ("value".into(), FieldValue::Text(value.to_owned())),
            ],
        )?;
        Ok(())
    }

    fn annotation(&mut self, path: &str, key: &str) -> Result<Option<String>> {
        let hits = self.select(
            "Annotation",
            &Pred::And(vec![
                Pred::TextEq("target".into(), path.to_owned()),
                Pred::TextEq("key".into(), key.to_owned()),
            ]),
        )?;
        Ok(hits.last().map(|o| Self::text(o, "value")))
    }

    fn load_molecule_of(&mut self, path: &str) -> Result<Option<Molecule>> {
        // No sub-object addressing in the object model: resolving the
        // path costs an extent scan, then the molecule graph (atoms
        // included) is pulled through the cache-forward layer.
        let oid = self.find_calc_oid(path)?;
        let obj = self.db.fetch(oid)?;
        match obj.get("molecule").and_then(FieldValue::as_ref_oid) {
            Some(moid) => Ok(Some(self.load_molecule(moid)?)),
            None => Ok(None),
        }
    }

    fn load_basis_of(&mut self, path: &str) -> Result<Option<BasisSet>> {
        let oid = self.find_calc_oid(path)?;
        let obj = self.db.fetch(oid)?;
        match obj.get("basis").and_then(FieldValue::as_ref_oid) {
            Some(boid) => {
                let bobj = self.db.fetch(boid)?;
                let data = bobj
                    .get("data")
                    .and_then(FieldValue::as_bytes)
                    .unwrap_or(&[]);
                Ok(Some(BasisSet::from_text(&String::from_utf8_lossy(data))?))
            }
            None => Ok(None),
        }
    }

    fn load_input_of(&mut self, path: &str) -> Result<Option<String>> {
        let oid = self.find_calc_oid(path)?;
        let obj = self.db.fetch(oid)?;
        let input = Self::text(&obj, "input");
        Ok(if input.is_empty() { None } else { Some(input) })
    }

    fn find_by_formula(&mut self, formula: &str) -> Result<Vec<String>> {
        let mut out: Vec<String> = self
            .select(
                "Calculation",
                &Pred::TextEq("formula".into(), formula.to_owned()),
            )?
            .iter()
            .map(|o| Self::text(o, "path"))
            .collect();
        out.sort();
        Ok(out)
    }

    fn disk_usage(&mut self) -> Result<u64> {
        Ok(self.db.disk_usage()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs;
    use std::sync::atomic::{AtomicU64, Ordering};

    static N: AtomicU64 = AtomicU64::new(0);

    fn store() -> (OodbEcceStore, std::path::PathBuf) {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-oodbstore-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        (OodbEcceStore::create(&d).unwrap(), d)
    }

    fn full_calc() -> Calculation {
        let mut c = Calculation::new("uo2-study-1");
        c.theory = Theory::Mp2;
        c.run_type = RunType::Optimize;
        c.molecule = Some(crate::chem::uo2_15h2o());
        c.basis = crate::basis::by_name("3-21G");
        c.tasks = vec![Task {
            name: "optimize".into(),
            run_type: RunType::Optimize,
            sequence: 0,
        }];
        c.input_deck = Some(jobs::input_deck(&c));
        c.transition(CalcState::InputReady).unwrap();
        c
    }

    #[test]
    fn full_roundtrip_matches_dav_semantics() {
        let (mut s, d) = store();
        let proj = s.create_project(&Project::new("aq", "desc")).unwrap();
        assert_eq!(s.list_projects().unwrap(), vec![proj.clone()]);
        assert_eq!(s.load_project(&proj).unwrap().description, "desc");

        let mut calc = full_calc();
        jobs::run_to_completion(&mut calc, &jobs::RunnerConfig::default()).unwrap();
        let path = s.save_calculation(&proj, &calc).unwrap();
        let back = s.load_calculation(&path).unwrap();
        assert_eq!(back.name, calc.name);
        assert_eq!(back.state, CalcState::Complete);
        assert_eq!(back.theory, Theory::Mp2);
        assert_eq!(back.molecule.as_ref().unwrap().natoms(), 48);
        assert_eq!(back.basis.as_ref().unwrap().name, "3-21G");
        assert_eq!(back.tasks.len(), 1);
        assert_eq!(back.properties.len(), calc.properties.len());
        // Binary pack/unpack preserved exact doubles.
        assert_eq!(back.property("trajectory"), calc.property("trajectory"));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn summary_and_listing() {
        let (mut s, d) = store();
        let proj = s.create_project(&Project::new("aq", "")).unwrap();
        let path = s.save_calculation(&proj, &full_calc()).unwrap();
        let sum = s.calc_summary(&path).unwrap();
        assert_eq!(
            sum,
            crate::factory::summary_of(&s.load_calculation(&path).unwrap())
        );
        assert_eq!(s.list_calculations(&proj).unwrap(), vec![path]);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn copy_delete_and_queries() {
        let (mut s, d) = store();
        let proj = s.create_project(&Project::new("aq", "")).unwrap();
        let path = s.save_calculation(&proj, &full_calc()).unwrap();
        let copy = format!("{proj}/copy-1");
        s.copy_calculation(&path, &copy).unwrap();
        assert_eq!(s.list_calculations(&proj).unwrap().len(), 2);
        let hits = s.find_by_formula("H30O17U").unwrap();
        assert_eq!(hits.len(), 2);
        s.delete(&copy).unwrap();
        assert_eq!(s.find_by_formula("H30O17U").unwrap().len(), 1);
        assert!(s.load_calculation(&copy).is_err());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn update_replaces_graph_without_leaking_objects() {
        let (mut s, d) = store();
        let proj = s.create_project(&Project::new("aq", "")).unwrap();
        let path = s.save_calculation(&proj, &full_calc()).unwrap();
        let before = s.db().len();
        let mut changed = full_calc();
        changed.theory = Theory::Scf;
        s.update_calculation(&path, &changed).unwrap();
        // Same number of live objects: old graph fully deleted.
        assert_eq!(s.db().len(), before);
        assert_eq!(s.load_calculation(&path).unwrap().theory, Theory::Scf);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn annotations_require_schema_support() {
        let (mut s, d) = store();
        let proj = s.create_project(&Project::new("aq", "")).unwrap();
        let path = s.save_calculation(&proj, &full_calc()).unwrap();
        s.annotate(&path, "note", "check convergence").unwrap();
        assert_eq!(
            s.annotation(&path, "note").unwrap().as_deref(),
            Some("check convergence")
        );
        assert_eq!(s.annotation(&path, "other").unwrap(), None);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn persistence_across_reopen() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-oodbstore-re-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let path = {
            let mut s = OodbEcceStore::create(&d).unwrap();
            let proj = s.create_project(&Project::new("aq", "")).unwrap();
            s.save_calculation(&proj, &full_calc()).unwrap()
        };
        let mut s = OodbEcceStore::open(&d).unwrap();
        let back = s.load_calculation(&path).unwrap();
        assert_eq!(back.molecule.unwrap().natoms(), 48);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
