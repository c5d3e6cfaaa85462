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

/// The Ecce 2.0 store: Figure 4 over any [`DataStorage`].
pub struct DavEcceStore<S: DataStorage> {
    storage: S,
    root: String,
}

impl<S: DataStorage> DavEcceStore<S> {
    /// Open (creating the root collection if needed).
    pub fn open(mut storage: S, root: &str) -> Result<DavEcceStore<S>> {
        let root = pse_http::uri::normalize_path(root);
        if root != "/" && !storage.exists(&root)? {
            storage.make_collection(&root)?;
            storage.set_meta(&root, "type", "ecce-root")?;
        }
        Ok(DavEcceStore { storage, root })
    }

    /// The underlying storage (for agents that work below the schema).
    pub fn storage(&mut self) -> &mut S {
        &mut self.storage
    }

    /// The root path.
    pub fn root(&self) -> &str {
        &self.root
    }

    fn write_molecule(&mut self, calc_path: &str, mol: &Molecule) -> Result<()> {
        let path = join_path(calc_path, "molecule");
        self.storage
            .write(&path, mol.to_xyz().as_bytes(), Some("chemical/x-xyz"))?;
        self.storage.set_meta(&path, "format", "xyz")?;
        self.storage
            .set_meta(&path, "formula", &mol.empirical_formula())?;
        self.storage
            .set_meta(&path, "symmetry-group", &mol.symmetry)?;
        self.storage
            .set_meta(&path, "charge", &mol.charge.to_string())?;
        self.storage.set_meta(&path, "name", &mol.name)?;
        Ok(())
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

    fn write_basis(&mut self, calc_path: &str, basis: &BasisSet) -> Result<()> {
        let path = join_path(calc_path, "basisset");
        self.storage
            .write(&path, basis.to_text().as_bytes(), Some("text/plain"))?;
        self.storage.set_meta(&path, "basis-name", &basis.name)?;
        Ok(())
    }

    fn read_basis(&mut self, calc_path: &str) -> Result<Option<BasisSet>> {
        let path = join_path(calc_path, "basisset");
        let Some(body) = optional(self.storage.read(&path))? else {
            return Ok(None);
        };
        Ok(Some(BasisSet::from_text(&String::from_utf8_lossy(&body))?))
    }

    fn write_tasks(&mut self, calc_path: &str, tasks: &[Task]) -> Result<()> {
        let dir = join_path(calc_path, "tasks");
        optional(self.storage.delete(&dir))?;
        self.storage.make_collection(&dir)?;
        for task in tasks {
            let path = join_path(&dir, &task.name);
            self.storage.write(&path, b"", None)?;
            self.storage
                .set_meta(&path, "sequence", &task.sequence.to_string())?;
            self.storage
                .set_meta(&path, "runtype", task.run_type.as_str())?;
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

    fn write_properties(&mut self, calc_path: &str, props: &[OutputProperty]) -> Result<()> {
        let dir = join_path(calc_path, "properties");
        optional(self.storage.delete(&dir))?;
        self.storage.make_collection(&dir)?;
        for p in props {
            let path = join_path(&dir, &p.name);
            self.storage
                .write(&path, p.to_text().as_bytes(), Some("text/plain"))?;
            self.storage.set_meta(&path, "units", &p.units)?;
            self.storage
                .set_meta(&path, "size", &p.value.len().to_string())?;
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

    fn write_job(&mut self, calc_path: &str, job: &Job) -> Result<()> {
        self.storage
            .set_meta(calc_path, "job-machine", &job.machine)?;
        self.storage.set_meta(calc_path, "job-queue", &job.queue)?;
        self.storage
            .set_meta(calc_path, "job-id", &job.job_id.to_string())?;
        self.storage
            .set_meta(calc_path, "job-wall", &format!("{}", job.wall_seconds))?;
        Ok(())
    }

    fn read_job(&mut self, calc_path: &str) -> Result<Option<Job>> {
        let meta = self.storage.get_meta_bulk(
            calc_path,
            &["job-machine", "job-queue", "job-id", "job-wall"],
        )?;
        let Some(machine) = meta[0].clone() else {
            return Ok(None);
        };
        Ok(Some(Job {
            machine,
            queue: meta[1].clone().unwrap_or_default(),
            job_id: meta[2].as_deref().and_then(|v| v.parse().ok()).unwrap_or(0),
            wall_seconds: meta[3]
                .as_deref()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0),
        }))
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
        self.storage
            .revert_to(&join_path(calc_path, "molecule"), version)
    }

    /// Restore the generated input deck to `version`.
    pub fn revert_input_deck(&mut self, calc_path: &str, version: u32) -> Result<()> {
        self.storage
            .revert_to(&join_path(calc_path, "input.nw"), version)
    }
}

impl<S: DataStorage> EcceStore for DavEcceStore<S> {
    fn backend_name(&self) -> &'static str {
        "dav"
    }

    fn create_project(&mut self, project: &Project) -> Result<String> {
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
        if !self.storage.exists(&path)? {
            self.storage.make_collection(&path)?;
        }
        self.storage.set_meta(&path, "type", "calculation")?;
        self.update_calculation(&path, calc)?;
        Ok(path)
    }

    fn update_calculation(&mut self, path: &str, calc: &Calculation) -> Result<()> {
        self.storage.set_meta(path, "state", calc.state.as_str())?;
        self.storage
            .set_meta(path, "theory", calc.theory.as_str())?;
        self.storage
            .set_meta(path, "runtype", calc.run_type.as_str())?;
        if let Some(mol) = &calc.molecule {
            self.write_molecule(path, mol)?;
            // The calculation advertises its subject's formula too, so
            // formula queries find calculations directly.
            self.storage
                .set_meta(path, "formula", &mol.empirical_formula())?;
        }
        if let Some(basis) = &calc.basis {
            self.write_basis(path, basis)?;
        }
        if let Some(deck) = &calc.input_deck {
            self.storage.write(
                &join_path(path, "input.nw"),
                deck.as_bytes(),
                Some("text/plain"),
            )?;
        }
        if !calc.tasks.is_empty() {
            self.write_tasks(path, &calc.tasks)?;
        }
        if let Some(job) = &calc.job {
            self.write_job(path, job)?;
        }
        if !calc.properties.is_empty() {
            self.write_properties(path, &calc.properties)?;
        }
        Ok(())
    }

    fn load_calculation(&mut self, path: &str) -> Result<Calculation> {
        let meta = self
            .storage
            .get_meta_bulk(path, &["type", "state", "theory", "runtype"])?;
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
        calc.job = self.read_job(path)?;
        calc.properties = self.read_properties(path)?;
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
        self.storage.copy(src, dst)
    }

    fn delete(&mut self, path: &str) -> Result<()> {
        self.storage.delete(path)
    }

    fn annotate(&mut self, path: &str, key: &str, value: &str) -> Result<()> {
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
