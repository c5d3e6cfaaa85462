//! The metadata query interface — "a generic mechanism [that] would
//! make metadata created by new applications immediately available for
//! use in categorizing and selecting data sets within an existing PSE".
//!
//! Two layers:
//!
//! * [`find_calculations`] — a backend-generic filter over the object
//!   layer (works identically over OODB and DAV stores);
//! * [`find_by_agent_metadata`] — the open-schema path: select by keys
//!   *Ecce does not know about* (agent-attached thermodynamics, notebook
//!   annotations), possible only on the DAV side.

use crate::dsi::DataStorage;
use crate::error::Result;
use crate::factory::{CalcSummary, EcceStore};
use crate::model::{CalcState, RunType, Theory};

/// A conjunctive filter over calculation summaries.
#[derive(Debug, Clone, Default)]
pub struct CalcFilter {
    /// Match this lifecycle state.
    pub state: Option<CalcState>,
    /// Match this theory.
    pub theory: Option<Theory>,
    /// Match this run type.
    pub run_type: Option<RunType>,
    /// Match this empirical formula.
    pub formula: Option<String>,
}

impl CalcFilter {
    /// Does a summary satisfy the filter?
    pub fn matches(&self, s: &CalcSummary) -> bool {
        self.state.is_none_or(|v| s.state == v)
            && self.theory.is_none_or(|v| s.theory == v)
            && self.run_type.is_none_or(|v| s.run_type == v)
            && self
                .formula
                .as_ref()
                .is_none_or(|v| s.formula.as_deref() == Some(v.as_str()))
    }
}

/// Filter every calculation in the store. Returns `(path, summary)`
/// pairs sorted by path.
pub fn find_calculations<S: EcceStore + ?Sized>(
    store: &mut S,
    filter: &CalcFilter,
) -> Result<Vec<(String, CalcSummary)>> {
    let mut out = Vec::new();
    for project in store.list_projects()? {
        out.extend(
            store
                .calc_summaries(&project)?
                .into_iter()
                .filter(|(_, summary)| filter.matches(summary)),
        );
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Find resources by metadata no Ecce component defined — e.g. the
/// thermodynamics agent's keys. This is the paper's promised "query
/// interface" over open metadata.
pub fn find_by_agent_metadata<S: DataStorage>(
    storage: &mut S,
    scope: &str,
    key: &str,
    value: &str,
) -> Result<Vec<String>> {
    storage.find_by_meta(scope, key, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::davstore::DavEcceStore;
    use crate::dsi::InProcStorage;
    use crate::jobs;
    use crate::model::{Calculation, Project};
    use crate::oodbstore::OodbEcceStore;
    use pse_dav::memrepo::MemRepository;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    static N: AtomicU64 = AtomicU64::new(0);

    fn populate<S: EcceStore>(store: &mut S) {
        let proj = store.create_project(&Project::new("p", "")).unwrap();
        for (i, (theory, run)) in [
            (Theory::Scf, RunType::Energy),
            (Theory::Dft, RunType::Frequency),
            (Theory::Dft, RunType::Energy),
        ]
        .iter()
        .enumerate()
        {
            let mut c = Calculation::new(&format!("c{i}"));
            c.theory = *theory;
            c.run_type = *run;
            c.molecule = Some(if i == 0 {
                crate::chem::water()
            } else {
                crate::chem::uranyl()
            });
            c.input_deck = Some(jobs::input_deck(&c));
            c.transition(CalcState::InputReady).unwrap();
            if i == 1 {
                jobs::run_to_completion(
                    &mut c,
                    &jobs::RunnerConfig {
                        output_scale: 0.05,
                        ..Default::default()
                    },
                )
                .unwrap();
            }
            store.save_calculation(&proj, &c).unwrap();
        }
    }

    fn check_filters<S: EcceStore>(store: &mut S) {
        // By theory.
        let dft = find_calculations(
            store,
            &CalcFilter {
                theory: Some(Theory::Dft),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(dft.len(), 2);
        // By state.
        let complete = find_calculations(
            store,
            &CalcFilter {
                state: Some(CalcState::Complete),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(complete.len(), 1);
        assert!(complete[0].0.ends_with("c1"));
        // Conjunction.
        let both = find_calculations(
            store,
            &CalcFilter {
                theory: Some(Theory::Dft),
                run_type: Some(RunType::Energy),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(both.len(), 1);
        // Formula.
        let water = find_calculations(
            store,
            &CalcFilter {
                formula: Some("H2O".into()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(water.len(), 1);
        // Empty filter matches all.
        assert_eq!(
            find_calculations(store, &CalcFilter::default()).unwrap().len(),
            3
        );
    }

    #[test]
    fn filters_over_dav_backend() {
        let mut store = DavEcceStore::open(
            InProcStorage::new(Arc::new(MemRepository::new())),
            "/Ecce",
        )
        .unwrap();
        populate(&mut store);
        check_filters(&mut store);
    }

    #[test]
    fn filters_over_oodb_backend() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-query-e-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let mut store = OodbEcceStore::create(&d).unwrap();
        populate(&mut store);
        check_filters(&mut store);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn agent_metadata_queryable_on_dav_only() {
        let mut store = DavEcceStore::open(
            InProcStorage::new(Arc::new(MemRepository::new())),
            "/Ecce",
        )
        .unwrap();
        populate(&mut store);
        crate::agent::thermodynamic_agent(store.storage(), "/Ecce").unwrap();
        let hits =
            find_by_agent_metadata(store.storage(), "/Ecce", "thermo-agent", "pse-thermo/1.0")
                .unwrap();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].ends_with("/molecule"));
    }
}
