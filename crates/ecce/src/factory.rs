//! The object/factory layer — the `EcceStore` abstraction of Figure 2.
//!
//! "To ease the migration of existing Ecce applications that work
//! directly with objects depicted in Figure 3, the object/factory layer
//! of Figure 2 provides the objects as was previously done through the
//! OODBMS." Every Ecce tool is written against [`EcceStore`]; the two
//! implementations are [`crate::davstore::DavEcceStore`] (Ecce 2.0) and
//! [`crate::oodbstore::OodbEcceStore`] (Ecce 1.5), which is exactly what
//! lets Table 3 run the same tool workloads over both architectures.

use crate::error::Result;
use crate::model::{CalcState, Calculation, Project, RunType, Theory};

/// A cheap, listing-level view of a calculation (what CalcManager shows
/// per row without loading the whole object).
#[derive(Debug, Clone, PartialEq)]
pub struct CalcSummary {
    /// Calculation name.
    pub name: String,
    /// Lifecycle state.
    pub state: CalcState,
    /// Level of theory.
    pub theory: Theory,
    /// Run type.
    pub run_type: RunType,
    /// Empirical formula of the subject, when a molecule is attached.
    pub formula: Option<String>,
}

/// The persistence interface of the object layer. Identifiers are
/// storage-neutral path strings (`/Projects/aqueous/calc-1`).
pub trait EcceStore {
    /// Human-readable backend name (for reports).
    fn backend_name(&self) -> &'static str;

    /// Create a project; returns its path.
    fn create_project(&mut self, project: &Project) -> Result<String>;

    /// All project paths.
    fn list_projects(&mut self) -> Result<Vec<String>>;

    /// Load a project back.
    fn load_project(&mut self, path: &str) -> Result<Project>;

    /// Persist a calculation under a project; returns its path.
    fn save_calculation(&mut self, project: &str, calc: &Calculation) -> Result<String>;

    /// Update an already-saved calculation in place.
    ///
    /// The DAV store compares `calc` with the calculation it last loaded
    /// or saved at `path` and writes only the parts that differ: one
    /// PROPPATCH per resource with changed values, one PUT per changed
    /// document, and `tasks/` or `properties/` rebuilt only when their
    /// lists changed. A part this client did not change is not written,
    /// so an edit another client made to it survives. Without such an
    /// image (none loaded, another path, or dropped by a failed request
    /// or any other write) it writes every part. The OODB store
    /// rewrites the whole object graph.
    fn update_calculation(&mut self, path: &str, calc: &Calculation) -> Result<()>;

    /// Load the complete calculation — molecule, basis, input, tasks,
    /// job, and every output property (the CalcViewer workload).
    fn load_calculation(&mut self, path: &str) -> Result<Calculation>;

    /// Load just the listing-level summary (the CalcManager workload).
    fn calc_summary(&mut self, path: &str) -> Result<CalcSummary>;

    /// Calculation paths under a project.
    fn list_calculations(&mut self, project: &str) -> Result<Vec<String>>;

    /// `(path, summary)` of every calculation under a project, in
    /// [`list_calculations`](Self::list_calculations) order: the
    /// project-start panels. The default loads each summary in turn;
    /// backends that can fetch every row at once override it.
    fn calc_summaries(&mut self, project: &str) -> Result<Vec<(String, CalcSummary)>> {
        self.list_calculations(project)?
            .into_iter()
            .map(|path| {
                let summary = self.calc_summary(&path)?;
                Ok((path, summary))
            })
            .collect()
    }

    /// Copy an entire calculation (the "copy entire task sequences"
    /// operation of Table 1).
    fn copy_calculation(&mut self, src: &str, dst: &str) -> Result<()>;

    /// Delete a calculation or project subtree.
    fn delete(&mut self, path: &str) -> Result<()>;

    /// Attach one extra metadata value to any stored entity — the
    /// open-extension hook third-party agents use.
    fn annotate(&mut self, path: &str, key: &str, value: &str) -> Result<()>;

    /// Read an annotation back.
    fn annotation(&mut self, path: &str, key: &str) -> Result<Option<String>>;

    /// Load only the molecule of a calculation — on the DAV mapping a
    /// single document read, "minimizing overhead for tools or agents
    /// that only care about certain subsets of data".
    fn load_molecule_of(&mut self, path: &str) -> Result<Option<crate::chem::Molecule>>;

    /// Load only the basis set of a calculation.
    fn load_basis_of(&mut self, path: &str) -> Result<Option<crate::basis::BasisSet>>;

    /// Load only the input deck of a calculation.
    fn load_input_of(&mut self, path: &str) -> Result<Option<String>>;

    /// Find calculations whose subject has the given empirical formula.
    fn find_by_formula(&mut self, formula: &str) -> Result<Vec<String>>;

    /// Total bytes the store occupies (migration study).
    fn disk_usage(&mut self) -> Result<u64>;
}

/// Derive a summary from a fully loaded calculation (shared helper for
/// backends whose summary path is just a partial load).
pub fn summary_of(calc: &Calculation) -> CalcSummary {
    CalcSummary {
        name: calc.name.clone(),
        state: calc.state,
        theory: calc.theory,
        run_type: calc.run_type,
        formula: calc.molecule.as_ref().map(|m| m.empirical_formula()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reflects_calculation() {
        let mut c = Calculation::new("aq-7");
        c.theory = Theory::Dft;
        c.run_type = RunType::Optimize;
        c.molecule = Some(crate::chem::water());
        let s = summary_of(&c);
        assert_eq!(s.name, "aq-7");
        assert_eq!(s.theory, Theory::Dft);
        assert_eq!(s.formula.as_deref(), Some("H2O"));
    }
}
