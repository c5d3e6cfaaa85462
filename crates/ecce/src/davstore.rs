//! The Ecce-schema → DAV mapping of Figure 4, implemented over the
//! Data Storage Interface.
//!
//! "In general, objects recognizable by domain scientists were mapped to
//! separate DAV documents. This strategy allows the lowest granularity
//! of access to raw data … It also allows metadata attachment at the
//! lowest granularity."
//!
//! Layout produced under the configured root (default `/Ecce`):
//!
//! ```text
//! /Ecce/<project>                      collection  type=project, description
//! /Ecce/<project>/<calc>               collection  type=calculation, state,
//!                                                  theory, runtype, job-*
//! /Ecce/<project>/<calc>/molecule      document    XYZ body; format, formula,
//!                                                  symmetry-group, charge, name
//! /Ecce/<project>/<calc>/basisset      document    exchange text; basis-name
//! /Ecce/<project>/<calc>/input.nw      document    generated input deck
//! /Ecce/<project>/<calc>/tasks/<t>     documents   sequence, runtype
//! /Ecce/<project>/<calc>/properties/<p> documents  property text; units, kind
//! ```
//!
//! Everything is discoverable without the Ecce schema: an application
//! "could search the data store for DAV documents matching the formula
//! metadata and render a 3D display of the molecule without
//! understanding the rest of the Ecce schema" — the agents in
//! [`crate::agent`] do exactly that.

use crate::basis::BasisSet;
use crate::chem::Molecule;
use crate::dsi::DataStorage;
use crate::error::{EcceError, Result};
use crate::factory::{CalcSummary, EcceStore};
use crate::model::{CalcState, Calculation, Job, OutputProperty, Project, RunType, Task, Theory};
use pse_http::uri::{join_path, parent_path};

/// The metadata a calculation's summary row is built from.
const SUMMARY_KEYS: [&str; 4] = ["state", "theory", "runtype", "formula"];

/// A summary row from the values of [`SUMMARY_KEYS`], in that order.
fn summary_from(name: &str, meta: &[Option<String>]) -> CalcSummary {
    CalcSummary {
        name: name.to_owned(),
        state: meta[0]
            .as_deref()
            .and_then(CalcState::parse)
            .unwrap_or(CalcState::Created),
        theory: meta[1]
            .as_deref()
            .and_then(Theory::parse)
            .unwrap_or(Theory::Scf),
        run_type: meta[2]
            .as_deref()
            .and_then(RunType::parse)
            .unwrap_or(RunType::Energy),
        formula: meta[3].clone(),
    }
}

/// A calculation's job from its `job-machine`, `job-queue`, `job-id`
/// and `job-wall` values, in that order; `None` without a machine.
fn job_from(meta: &[Option<String>]) -> Option<Job> {
    Some(Job {
        machine: meta[0].clone()?,
        queue: meta[1].clone().unwrap_or_default(),
        job_id: meta[2].as_deref().and_then(|v| v.parse().ok()).unwrap_or(0),
        wall_seconds: meta[3]
            .as_deref()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0),
    })
}

/// An optional document's absence as `None`: the read itself is the
/// existence probe, so a missing document costs one 404 and a present
/// one no extra request. Every other failure still surfaces.
fn optional<T>(result: Result<T>) -> Result<Option<T>> {
    match result {
        Ok(v) => Ok(Some(v)),
        Err(e) if e.is_not_found() => Ok(None),
        Err(e) => Err(e),
    }
}

/// The metadata values a calculation's collection carries: its `type`,
/// the summary keys and, with a job, its four `job-*` values.
fn calc_values(calc: &Calculation) -> Vec<(&'static str, String)> {
    let mut values = vec![
        ("type", "calculation".to_owned()),
        ("state", calc.state.as_str().to_owned()),
        ("theory", calc.theory.as_str().to_owned()),
        ("runtype", calc.run_type.as_str().to_owned()),
    ];
    if let Some(mol) = &calc.molecule {
        // The calculation advertises its subject's formula too, so
        // formula queries find calculations directly.
        values.push(("formula", mol.empirical_formula()));
    }
    if let Some(job) = &calc.job {
        values.extend([
            ("job-machine", job.machine.clone()),
            ("job-queue", job.queue.clone()),
            ("job-id", job.job_id.to_string()),
            ("job-wall", format!("{}", job.wall_seconds)),
        ]);
    }
    values
}

/// The metadata values of a calculation's `molecule` document, beside
/// its `format`, which is written with the body it describes.
fn molecule_values(mol: &Molecule) -> Vec<(&'static str, String)> {
    vec![
        ("formula", mol.empirical_formula()),
        ("symmetry-group", mol.symmetry.clone()),
        ("charge", mol.charge.to_string()),
        ("name", mol.name.clone()),
    ]
}

/// The pairs of `new` that `old` does not hold with the same value;
/// every pair when `old` is `None` (nothing known to be stored).
fn changed<'a>(
    new: &'a [(&'static str, String)],
    old: Option<&[(&'static str, String)]>,
) -> Vec<(&'a str, &'a str)> {
    new.iter()
        .filter(|pair| !old.is_some_and(|old| old.contains(pair)))
        .map(|(key, value)| (*key, value.as_str()))
        .collect()
}

/// What a save knows is stored at a calculation's path.
#[derive(Clone, Copy)]
enum Stored<'a> {
    /// Nothing: every part is written.
    Unknown,
    /// A collection the save has just created: every part is written,
    /// and `tasks/` and `properties/` need no DELETE first.
    Created,
    /// The calculation this store last loaded or saved there: only the
    /// parts that differ from it are written.
    Image(&'a Calculation),
}

impl<'a> Stored<'a> {
    fn image(self) -> Option<&'a Calculation> {
        match self {
            Stored::Image(calc) => Some(calc),
            Stored::Unknown | Stored::Created => None,
        }
    }
}

/// The Ecce 2.0 store: Figure 4 over any [`DataStorage`].
///
/// The store remembers the one calculation it last loaded or saved
/// (its *image*), so that saving it again writes only the parts that
/// changed. A failed request and every other write drop the image.
pub struct DavEcceStore<S: DataStorage> {
    storage: S,
    root: String,
    /// The calculation last loaded or saved, with its path.
    image: Option<(String, Calculation)>,
}

impl<S: DataStorage> DavEcceStore<S> {
    /// Open (creating the root collection if needed).
    pub fn open(mut storage: S, root: &str) -> Result<DavEcceStore<S>> {
        let root = pse_http::uri::normalize_path(root);
        if root != "/" && !storage.exists(&root)? {
            storage.make_collection(&root)?;
            storage.set_meta(&root, "type", "ecce-root")?;
        }
        Ok(DavEcceStore {
            storage,
            root,
            image: None,
        })
    }

    /// The underlying storage (for agents that work below the schema).
    /// Whatever is written through it is unknown to the store, so the
    /// next save of a calculation writes every part.
    pub fn storage(&mut self) -> &mut S {
        self.image = None;
        &mut self.storage
    }

    /// The root path.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// Write the parts of `mol` that differ from `old`: the body (with
    /// its `format`) and each changed value.
    fn write_molecule(
        &mut self,
        calc_path: &str,
        mol: &Molecule,
        old: Option<&Molecule>,
    ) -> Result<()> {
        let path = join_path(calc_path, "molecule");
        let xyz = mol.to_xyz();
        let new_body = old.map(Molecule::to_xyz).as_ref() != Some(&xyz);
        if new_body {
            self.storage
                .write(&path, xyz.as_bytes(), Some("chemical/x-xyz"))?;
        }
        let values = molecule_values(mol);
        let old_values = old.map(molecule_values);
        let mut set = changed(&values, old_values.as_deref());
        if new_body {
            set.insert(0, ("format", "xyz"));
        }
        self.storage.set_meta_bulk(&path, &set)
    }

    fn read_molecule(&mut self, calc_path: &str) -> Result<Option<Molecule>> {
        let path = join_path(calc_path, "molecule");
        let Some(meta) = optional(
            self.storage
                .get_meta_bulk(&path, &["format", "symmetry-group", "charge"]),
        )?
        else {
            return Ok(None);
        };
        let body = self.storage.read(&path)?;
        let text = String::from_utf8_lossy(&body);
        let mut mol = match meta[0].as_deref() {
            Some("pdb") => Molecule::from_pdb(&text)?,
            // xyz is the default encoding.
            _ => Molecule::from_xyz(&text)?,
        };
        if let Some(sym) = &meta[1] {
            mol.symmetry = sym.clone();
        }
        if let Some(q) = meta[2].as_deref().and_then(|q| q.parse().ok()) {
            mol.charge = q;
        }
        Ok(Some(mol))
    }

    /// Write the parts of `basis` that differ from `old`.
    fn write_basis(
        &mut self,
        calc_path: &str,
        basis: &BasisSet,
        old: Option<&BasisSet>,
    ) -> Result<()> {
        let path = join_path(calc_path, "basisset");
        let text = basis.to_text();
        if old.map(BasisSet::to_text).as_ref() != Some(&text) {
            self.storage
                .write(&path, text.as_bytes(), Some("text/plain"))?;
        }
        if old.map(|b| &b.name) != Some(&basis.name) {
            self.storage.set_meta(&path, "basis-name", &basis.name)?;
        }
        Ok(())
    }

    fn read_basis(&mut self, calc_path: &str) -> Result<Option<BasisSet>> {
        let path = join_path(calc_path, "basisset");
        let Some(body) = optional(self.storage.read(&path))? else {
            return Ok(None);
        };
        Ok(Some(BasisSet::from_text(&String::from_utf8_lossy(&body))?))
    }

    /// Rebuild `tasks/`; `stale` says whether an old one may exist.
    fn write_tasks(&mut self, calc_path: &str, tasks: &[Task], stale: bool) -> Result<()> {
        let dir = join_path(calc_path, "tasks");
        if stale {
            optional(self.storage.delete(&dir))?;
        }
        self.storage.make_collection(&dir)?;
        for task in tasks {
            let path = join_path(&dir, &task.name);
            self.storage.write(&path, b"", None)?;
            self.storage.set_meta_bulk(
                &path,
                &[
                    ("sequence", &task.sequence.to_string()),
                    ("runtype", task.run_type.as_str()),
                ],
            )?;
        }
        Ok(())
    }

    fn read_tasks(&mut self, calc_path: &str) -> Result<Vec<Task>> {
        let dir = join_path(calc_path, "tasks");
        let children = optional(self.storage.children_meta(&dir, &["sequence", "runtype"]))?;
        let mut tasks = Vec::new();
        for (name, meta) in children.unwrap_or_default() {
            tasks.push(Task {
                name,
                sequence: meta[0].as_deref().and_then(|s| s.parse().ok()).unwrap_or(0),
                run_type: meta[1]
                    .as_deref()
                    .and_then(RunType::parse)
                    .unwrap_or(RunType::Energy),
            });
        }
        tasks.sort_by_key(|t| t.sequence);
        Ok(tasks)
    }

    /// Rebuild `properties/`; `stale` says whether an old one may exist.
    fn write_properties(
        &mut self,
        calc_path: &str,
        props: &[OutputProperty],
        stale: bool,
    ) -> Result<()> {
        let dir = join_path(calc_path, "properties");
        if stale {
            optional(self.storage.delete(&dir))?;
        }
        self.storage.make_collection(&dir)?;
        for p in props {
            let path = join_path(&dir, &p.name);
            self.storage
                .write(&path, p.to_text().as_bytes(), Some("text/plain"))?;
            self.storage.set_meta_bulk(
                &path,
                &[("units", &p.units), ("size", &p.value.len().to_string())],
            )?;
        }
        Ok(())
    }

    fn read_properties(&mut self, calc_path: &str) -> Result<Vec<OutputProperty>> {
        let dir = join_path(calc_path, "properties");
        let mut props = Vec::new();
        for name in optional(self.storage.list(&dir))?.unwrap_or_default() {
            let body = self.storage.read(&join_path(&dir, &name))?;
            props.push(OutputProperty::from_text(&String::from_utf8_lossy(&body))?);
        }
        Ok(props)
    }

    /// Write the parts of `calc` that differ from what is `stored`: one
    /// PROPPATCH per resource with changed values, a PUT per changed
    /// body, and `tasks/` or `properties/` rebuilt when their lists
    /// differ.
    fn write_calculation(&mut self, path: &str, calc: &Calculation, stored: Stored) -> Result<()> {
        let old = stored.image();
        let new_values = calc_values(calc);
        let old_values = old.map(calc_values);
        self.storage
            .set_meta_bulk(path, &changed(&new_values, old_values.as_deref()))?;
        if let Some(mol) = &calc.molecule {
            let old_mol = old.and_then(|o| o.molecule.as_ref());
            self.write_molecule(path, mol, old_mol)?;
        }
        if let Some(basis) = &calc.basis {
            let old_basis = old.and_then(|o| o.basis.as_ref());
            self.write_basis(path, basis, old_basis)?;
        }
        if let Some(deck) = &calc.input_deck {
            if old.and_then(|o| o.input_deck.as_ref()) != Some(deck) {
                self.storage.write(
                    &join_path(path, "input.nw"),
                    deck.as_bytes(),
                    Some("text/plain"),
                )?;
            }
        }
        let stale = !matches!(stored, Stored::Created);
        if !calc.tasks.is_empty() && old.map(|o| &o.tasks) != Some(&calc.tasks) {
            self.write_tasks(path, &calc.tasks, stale)?;
        }
        if !calc.properties.is_empty() && old.map(|o| &o.properties) != Some(&calc.properties) {
            self.write_properties(path, &calc.properties, stale)?;
        }
        Ok(())
    }

    /// Take the image if it is of `path`. The slot is empty afterwards
    /// either way, so a save that fails midway leaves no image behind.
    fn take_image(&mut self, path: &str) -> Option<Calculation> {
        self.image.take().filter(|(p, _)| p == path).map(|(_, c)| c)
    }

    /// Write `calc` at `path` and keep it as the image once every
    /// request has succeeded.
    fn save_at(&mut self, path: &str, calc: &Calculation, stored: Stored) -> Result<()> {
        self.write_calculation(path, calc, stored)?;
        self.image = Some((path.to_owned(), calc.clone()));
        Ok(())
    }

    /// Read a whole calculation, without touching the image.
    fn read_calculation(&mut self, path: &str) -> Result<Calculation> {
        // The calculation's own metadata and its job's, in one request.
        let meta = self.storage.get_meta_bulk(
            path,
            &[
                "type",
                "state",
                "theory",
                "runtype",
                "job-machine",
                "job-queue",
                "job-id",
                "job-wall",
            ],
        )?;
        if meta[0].as_deref() != Some("calculation") {
            return Err(EcceError::NotFound(format!("{path} is not a calculation")));
        }
        let mut calc = Calculation::new(pse_http::uri::basename(path));
        calc.state = meta[1]
            .as_deref()
            .and_then(CalcState::parse)
            .unwrap_or(CalcState::Created);
        calc.theory = meta[2]
            .as_deref()
            .and_then(Theory::parse)
            .unwrap_or(Theory::Scf);
        calc.run_type = meta[3]
            .as_deref()
            .and_then(RunType::parse)
            .unwrap_or(RunType::Energy);
        calc.molecule = self.read_molecule(path)?;
        calc.basis = self.read_basis(path)?;
        calc.input_deck = self.load_input_of(path)?;
        calc.tasks = self.read_tasks(path)?;
        calc.job = job_from(&meta[4..]);
        calc.properties = self.read_properties(path)?;
        Ok(calc)
    }

    // ---- versioning: the revert-a-calculation flow ----
    //
    // Chemists edit a calculation's inputs in place; tracking puts the
    // scientist-visible documents under version control so any of them
    // can be restored to its pre-edit state without rerunning anything.

    /// The documents of a calculation that history tracking covers.
    fn tracked_documents(&mut self, calc_path: &str) -> Result<Vec<String>> {
        let mut docs = Vec::new();
        for name in ["molecule", "basisset", "input.nw"] {
            let path = join_path(calc_path, name);
            if self.storage.exists(&path)? {
                docs.push(path);
            }
        }
        Ok(docs)
    }

    /// Place the calculation's input documents (molecule, basis set,
    /// input deck — whichever exist) under version control. Idempotent;
    /// returns the tracked document paths.
    pub fn track_calculation(&mut self, calc_path: &str) -> Result<Vec<String>> {
        let docs = self.tracked_documents(calc_path)?;
        for doc in &docs {
            self.storage.version_control(doc)?;
        }
        Ok(docs)
    }

    /// Stored versions of the calculation's molecule, oldest first.
    pub fn molecule_versions(&mut self, calc_path: &str) -> Result<Vec<u32>> {
        self.storage
            .list_versions(&join_path(calc_path, "molecule"))
    }

    /// Restore the calculation's molecule to `version` (recorded as a
    /// new version — history is append-only).
    pub fn revert_molecule(&mut self, calc_path: &str, version: u32) -> Result<()> {
        self.image = None;
        self.storage
            .revert_to(&join_path(calc_path, "molecule"), version)
    }

    /// Restore the generated input deck to `version`.
    pub fn revert_input_deck(&mut self, calc_path: &str, version: u32) -> Result<()> {
        self.image = None;
        self.storage
            .revert_to(&join_path(calc_path, "input.nw"), version)
    }
}

impl<S: DataStorage> EcceStore for DavEcceStore<S> {
    fn backend_name(&self) -> &'static str {
        "dav"
    }

    fn create_project(&mut self, project: &Project) -> Result<String> {
        self.image = None;
        let path = join_path(&self.root, &project.name);
        self.storage.make_collection(&path)?;
        self.storage.set_meta(&path, "type", "project")?;
        self.storage
            .set_meta(&path, "description", &project.description)?;
        Ok(path)
    }

    fn list_projects(&mut self) -> Result<Vec<String>> {
        let root = self.root.clone();
        Ok(self
            .storage
            .children_meta(&root, &["type"])?
            .into_iter()
            .filter(|(_, meta)| meta[0].as_deref() == Some("project"))
            .map(|(name, _)| join_path(&root, &name))
            .collect())
    }

    fn load_project(&mut self, path: &str) -> Result<Project> {
        let meta = self.storage.get_meta_bulk(path, &["type", "description"])?;
        if meta[0].as_deref() != Some("project") {
            return Err(EcceError::NotFound(format!("{path} is not a project")));
        }
        Ok(Project {
            name: pse_http::uri::basename(path).to_owned(),
            description: meta[1].clone().unwrap_or_default(),
        })
    }

    fn save_calculation(&mut self, project: &str, calc: &Calculation) -> Result<String> {
        let path = join_path(project, &calc.name);
        let image = self.take_image(&path);
        let stored = if self.storage.exists(&path)? {
            image.as_ref().map_or(Stored::Unknown, Stored::Image)
        } else {
            self.storage.make_collection(&path)?;
            Stored::Created
        };
        self.save_at(&path, calc, stored)?;
        Ok(path)
    }

    fn update_calculation(&mut self, path: &str, calc: &Calculation) -> Result<()> {
        let image = self.take_image(path);
        let stored = image.as_ref().map_or(Stored::Unknown, Stored::Image);
        self.save_at(path, calc, stored)
    }

    fn load_calculation(&mut self, path: &str) -> Result<Calculation> {
        self.image = None;
        let calc = self.read_calculation(path)?;
        self.image = Some((path.to_owned(), calc.clone()));
        Ok(calc)
    }

    fn calc_summary(&mut self, path: &str) -> Result<CalcSummary> {
        // One depth-0 metadata request — no documents are read. This is
        // exactly the granularity win the Figure 4 mapping buys.
        let meta = self.storage.get_meta_bulk(path, &SUMMARY_KEYS)?;
        Ok(summary_from(pse_http::uri::basename(path), &meta))
    }

    fn calc_summaries(&mut self, project: &str) -> Result<Vec<(String, CalcSummary)>> {
        // Every row from one depth-1 PROPFIND: the paper's Table 1 case
        // (c), where the default loop is case (d).
        let mut keys = vec!["type"];
        keys.extend(SUMMARY_KEYS);
        Ok(self
            .storage
            .children_meta(project, &keys)?
            .into_iter()
            .filter(|(_, meta)| meta[0].as_deref() == Some("calculation"))
            .map(|(name, meta)| (join_path(project, &name), summary_from(&name, &meta[1..])))
            .collect())
    }

    fn list_calculations(&mut self, project: &str) -> Result<Vec<String>> {
        Ok(self
            .storage
            .children_meta(project, &["type"])?
            .into_iter()
            .filter(|(_, meta)| meta[0].as_deref() == Some("calculation"))
            .map(|(name, _)| join_path(project, &name))
            .collect())
    }

    fn copy_calculation(&mut self, src: &str, dst: &str) -> Result<()> {
        self.image = None;
        self.storage.copy(src, dst)
    }

    fn delete(&mut self, path: &str) -> Result<()> {
        self.image = None;
        self.storage.delete(path)
    }

    fn annotate(&mut self, path: &str, key: &str, value: &str) -> Result<()> {
        self.image = None;
        self.storage.set_meta(path, key, value)
    }

    fn annotation(&mut self, path: &str, key: &str) -> Result<Option<String>> {
        self.storage.get_meta(path, key)
    }

    fn load_molecule_of(&mut self, path: &str) -> Result<Option<Molecule>> {
        self.read_molecule(path)
    }

    fn load_basis_of(&mut self, path: &str) -> Result<Option<BasisSet>> {
        self.read_basis(path)
    }

    fn load_input_of(&mut self, path: &str) -> Result<Option<String>> {
        let input = optional(self.storage.read(&join_path(path, "input.nw")))?;
        Ok(input.map(|body| String::from_utf8_lossy(&body).into_owned()))
    }

    fn find_by_formula(&mut self, formula: &str) -> Result<Vec<String>> {
        let root = self.root.clone();
        let hits = self.storage.find_by_meta(&root, "formula", formula)?;
        // Molecule documents resolve to their parent calculation;
        // calculations match directly. Deduplicate.
        let mut out: Vec<String> = hits
            .into_iter()
            .map(|p| {
                if pse_http::uri::basename(&p) == "molecule" {
                    parent_path(&p)
                } else {
                    p
                }
            })
            .collect();
        out.sort();
        out.dedup();
        Ok(out)
    }

    fn disk_usage(&mut self) -> Result<u64> {
        // Content bytes reachable from the root, via the protocol. The
        // migration study measures true on-disk bytes at the repository
        // instead (includes DBM overhead).
        fn walk<S: DataStorage>(s: &mut S, path: &str, total: &mut u64) -> Result<()> {
            match s.list(path) {
                Ok(children) => {
                    for c in children {
                        walk(s, &join_path(path, &c), total)?;
                    }
                }
                Err(_) => {
                    *total += s.read(path).map(|b| b.len() as u64).unwrap_or(0);
                }
            }
            Ok(())
        }
        let mut total = 0;
        let root = self.root.clone();
        walk(&mut self.storage, &root, &mut total)?;
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsi::InProcStorage;
    use crate::jobs;
    use pse_dav::memrepo::MemRepository;
    use std::sync::Arc;

    fn store() -> DavEcceStore<InProcStorage<MemRepository>> {
        DavEcceStore::open(InProcStorage::new(Arc::new(MemRepository::new())), "/Ecce").unwrap()
    }

    fn full_calc() -> Calculation {
        let mut c = Calculation::new("uo2-study-1");
        c.theory = Theory::Dft;
        c.run_type = RunType::Frequency;
        c.molecule = Some(crate::chem::uo2_15h2o());
        c.basis = crate::basis::by_name("6-31G*");
        c.tasks = vec![
            Task {
                name: "optimize".into(),
                run_type: RunType::Optimize,
                sequence: 0,
            },
            Task {
                name: "frequency".into(),
                run_type: RunType::Frequency,
                sequence: 1,
            },
        ];
        c.input_deck = Some(jobs::input_deck(&c));
        c.transition(CalcState::InputReady).unwrap();
        c
    }

    #[test]
    fn project_roundtrip() {
        let mut s = store();
        let p = Project::new("aqueous", "uranyl speciation in water");
        let path = s.create_project(&p).unwrap();
        assert_eq!(path, "/Ecce/aqueous");
        assert_eq!(s.list_projects().unwrap(), vec!["/Ecce/aqueous"]);
        let back = s.load_project(&path).unwrap();
        assert_eq!(back.name, "aqueous");
        assert_eq!(back.description, "uranyl speciation in water");
        assert!(s.load_project("/Ecce/ghost").is_err());
    }

    #[test]
    fn calculation_roundtrip_full() {
        let mut s = store();
        let proj = s.create_project(&Project::new("aq", "")).unwrap();
        let calc = full_calc();
        let path = s.save_calculation(&proj, &calc).unwrap();
        let back = s.load_calculation(&path).unwrap();
        assert_eq!(back.name, calc.name);
        assert_eq!(back.state, CalcState::InputReady);
        assert_eq!(back.theory, Theory::Dft);
        assert_eq!(back.run_type, RunType::Frequency);
        let mol = back.molecule.as_ref().unwrap();
        assert_eq!(mol.natoms(), 48);
        assert_eq!(mol.charge, 2);
        assert_eq!(back.basis.as_ref().unwrap().name, "6-31G*");
        assert_eq!(back.tasks.len(), 2);
        assert_eq!(back.tasks[0].name, "optimize");
        assert!(back.input_deck.as_ref().unwrap().contains("geometry"));
    }

    #[test]
    fn completed_calculation_carries_properties() {
        let mut s = store();
        let proj = s.create_project(&Project::new("aq", "")).unwrap();
        let mut calc = full_calc();
        jobs::run_to_completion(&mut calc, &jobs::RunnerConfig::default()).unwrap();
        let path = s.save_calculation(&proj, &calc).unwrap();
        let back = s.load_calculation(&path).unwrap();
        assert_eq!(back.state, CalcState::Complete);
        assert!(!back.properties.is_empty());
        assert!(back.property("total-energy").is_some());
        assert!(back.job.is_some());
        assert_eq!(back.job.as_ref().unwrap().machine, "colony");
    }

    #[test]
    fn summary_without_loading_documents() {
        let mut s = store();
        let proj = s.create_project(&Project::new("aq", "")).unwrap();
        let path = s.save_calculation(&proj, &full_calc()).unwrap();
        let sum = s.calc_summary(&path).unwrap();
        assert_eq!(sum.name, "uo2-study-1");
        assert_eq!(sum.formula.as_deref(), Some("H30O17U"));
        assert_eq!(sum.state, CalcState::InputReady);
    }

    #[test]
    fn listing_and_copy_and_delete() {
        let mut s = store();
        let proj = s.create_project(&Project::new("aq", "")).unwrap();
        let path = s.save_calculation(&proj, &full_calc()).unwrap();
        assert_eq!(s.list_calculations(&proj).unwrap(), vec![path.clone()]);
        let copy_path = format!("{proj}/uo2-study-2");
        s.copy_calculation(&path, &copy_path).unwrap();
        assert_eq!(s.list_calculations(&proj).unwrap().len(), 2);
        let copied = s.load_calculation(&copy_path).unwrap();
        assert_eq!(copied.molecule.unwrap().natoms(), 48);
        s.delete(&copy_path).unwrap();
        assert_eq!(s.list_calculations(&proj).unwrap().len(), 1);
    }

    #[test]
    fn formula_query_resolves_calculations() {
        let mut s = store();
        let proj = s.create_project(&Project::new("aq", "")).unwrap();
        let path = s.save_calculation(&proj, &full_calc()).unwrap();
        let mut water_calc = Calculation::new("water-ref");
        water_calc.molecule = Some(crate::chem::water());
        s.save_calculation(&proj, &water_calc).unwrap();
        let hits = s.find_by_formula("H30O17U").unwrap();
        assert_eq!(hits, vec![path]);
        let hits = s.find_by_formula("H2O").unwrap();
        assert_eq!(hits, vec![format!("{proj}/water-ref")]);
    }

    #[test]
    fn annotations_are_open_metadata() {
        let mut s = store();
        let proj = s.create_project(&Project::new("aq", "")).unwrap();
        let path = s.save_calculation(&proj, &full_calc()).unwrap();
        // A "notebook" annotates without Ecce knowing the key.
        s.annotate(&path, "notebook-signature", "sha1:abc123")
            .unwrap();
        assert_eq!(
            s.annotation(&path, "notebook-signature")
                .unwrap()
                .as_deref(),
            Some("sha1:abc123")
        );
        assert_eq!(s.annotation(&path, "missing").unwrap(), None);
    }

    #[test]
    fn disk_usage_counts_content() {
        let mut s = store();
        let proj = s.create_project(&Project::new("aq", "")).unwrap();
        s.save_calculation(&proj, &full_calc()).unwrap();
        assert!(s.disk_usage().unwrap() > 1000);
    }
}
