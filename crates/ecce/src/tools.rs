//! The six Ecce tools of Table 3, as storage-generic workloads.
//!
//! Table 3 measures, per tool, the resident size, cold/warm start time,
//! and the time for "each tool loading its set of data for a typical
//! calculation" (the UO2·15H2O system). Each tool here exposes exactly
//! those two operations — [`start`](fn@builder_start)-style setup and a
//! per-calculation load — written against [`EcceStore`] so the identical
//! workload runs over the OODB (Ecce 1.5) and DAV (Ecce 2.0) backends.
//!
//! The returned [`ToolReport`] carries an approximate working-set byte
//! count, standing in for the paper's "Size (res)" column.

use crate::error::Result;
use crate::factory::EcceStore;
use crate::jobs;
use crate::model::CalcState;

/// What a tool operation touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolReport {
    /// Which tool ran.
    pub tool: &'static str,
    /// Approximate bytes resident after the operation.
    pub resident_bytes: usize,
    /// Entities (molecules, calculations, properties...) handled.
    pub items: usize,
}

/// The tool set, in the order of Table 3's columns.
pub const TOOLS: [&str; 6] = [
    "Builder",
    "BasisTool",
    "CalcEditor",
    "CalcViewer",
    "CalcManager",
    "JobLauncher",
];

// ---- Builder ----

/// Builder cold start: loads every molecule in the project so the
/// structure library panel is populated.
pub fn builder_start<S: EcceStore + ?Sized>(store: &mut S, project: &str) -> Result<ToolReport> {
    let mut bytes = 0;
    let mut items = 0;
    for calc_path in store.list_calculations(project)? {
        // Geometry only — not the whole calculation.
        if let Some(mol) = store.load_molecule_of(&calc_path)? {
            bytes += mol.atoms.len() * 56 + 64;
            items += 1;
        }
    }
    Ok(ToolReport {
        tool: "Builder",
        resident_bytes: bytes + 2 * 1024 * 1024, // code + 3D canvas overhead
        items,
    })
}

/// Builder loading one calculation: geometry only.
pub fn builder_load<S: EcceStore + ?Sized>(store: &mut S, calc_path: &str) -> Result<ToolReport> {
    let mol = store.load_molecule_of(calc_path)?;
    let bytes = mol.as_ref().map(|m| m.atoms.len() * 56 + 64).unwrap_or(0);
    Ok(ToolReport {
        tool: "Builder",
        resident_bytes: bytes,
        items: mol.is_some() as usize,
    })
}

// ---- BasisTool ----

/// BasisTool cold start: loads the basis library and the project's
/// calculation summaries (to show coverage per calculation).
pub fn basistool_start<S: EcceStore + ?Sized>(store: &mut S, project: &str) -> Result<ToolReport> {
    let library = crate::basis::library();
    let calcs = store.calc_summaries(project)?.len();
    let bytes = library.iter().map(|b| b.to_text().len()).sum::<usize>() + calcs * 128;
    let items = library.len() + calcs;
    Ok(ToolReport {
        tool: "BasisTool",
        resident_bytes: bytes + 1024 * 1024,
        items,
    })
}

/// BasisTool on one calculation: its basis set plus the molecule's
/// element list (to verify coverage).
pub fn basistool_load<S: EcceStore + ?Sized>(store: &mut S, calc_path: &str) -> Result<ToolReport> {
    // Basis document + molecule document only.
    let basis = store.load_basis_of(calc_path)?;
    let mol = store.load_molecule_of(calc_path)?;
    let mut bytes = 0;
    let mut covered = true;
    if let (Some(basis), Some(mol)) = (&basis, &mol) {
        bytes += basis.to_text().len();
        let symbols: Vec<&str> = mol.atoms.iter().map(|a| a.symbol.as_str()).collect();
        covered = basis.covers(&symbols);
    }
    Ok(ToolReport {
        tool: "BasisTool",
        resident_bytes: bytes,
        items: usize::from(covered),
    })
}

// ---- Calculation Editor ----

/// CalcEditor cold start: the project's calculation summaries.
pub fn calceditor_start<S: EcceStore + ?Sized>(store: &mut S, project: &str) -> Result<ToolReport> {
    let items = store.calc_summaries(project)?.len();
    Ok(ToolReport {
        tool: "CalcEditor",
        resident_bytes: items * 128 + 1536 * 1024,
        items,
    })
}

/// CalcEditor loading one calculation: molecule + basis + theory setup,
/// then regenerates the input deck (the edit round trip).
pub fn calceditor_load<S: EcceStore + ?Sized>(
    store: &mut S,
    calc_path: &str,
) -> Result<ToolReport> {
    let mut calc = store.load_calculation(calc_path)?;
    let deck = jobs::input_deck(&calc);
    let bytes = calc.approx_bytes() + deck.len();
    calc.input_deck = Some(deck);
    store.update_calculation(calc_path, &calc)?;
    Ok(ToolReport {
        tool: "CalcEditor",
        resident_bytes: bytes,
        items: 1,
    })
}

// ---- Calculation Viewer ----

/// CalcViewer cold start: just the summaries (its panels fill on load).
pub fn calcviewer_start<S: EcceStore + ?Sized>(store: &mut S, project: &str) -> Result<ToolReport> {
    let items = store.calc_summaries(project)?.len();
    Ok(ToolReport {
        tool: "CalcViewer",
        resident_bytes: items * 128 + 2 * 1024 * 1024,
        items,
    })
}

/// CalcViewer loading one calculation: the whole object — geometry,
/// basis, and **every output property** ("individual output properties
/// up to 1.8 MB in size"). The heavyweight Table 3 cell.
pub fn calcviewer_load<S: EcceStore + ?Sized>(
    store: &mut S,
    calc_path: &str,
) -> Result<ToolReport> {
    let calc = store.load_calculation(calc_path)?;
    Ok(ToolReport {
        tool: "CalcViewer",
        resident_bytes: calc.approx_bytes(),
        items: calc.properties.len(),
    })
}

// ---- Calculation Manager ----

/// CalcManager cold start: the full project tree with per-calculation
/// summary rows — "traverse through data sets and examine metadata".
pub fn calcmanager_start<S: EcceStore + ?Sized>(store: &mut S) -> Result<ToolReport> {
    let mut items = 0;
    let mut bytes = 0;
    for project in store.list_projects()? {
        items += 1;
        for (_, summary) in store.calc_summaries(&project)? {
            bytes += 96 + summary.name.len();
            items += 1;
        }
    }
    Ok(ToolReport {
        tool: "CalcManager",
        resident_bytes: bytes + 1280 * 1024,
        items,
    })
}

/// CalcManager "loading" a calculation is just refreshing its row.
pub fn calcmanager_load<S: EcceStore + ?Sized>(
    store: &mut S,
    calc_path: &str,
) -> Result<ToolReport> {
    let summary = store.calc_summary(calc_path)?;
    Ok(ToolReport {
        tool: "CalcManager",
        resident_bytes: 96 + summary.name.len(),
        items: 1,
    })
}

// ---- Job Launcher ----

/// JobLauncher cold start: calculations with their states (the launch
/// queue panel).
pub fn joblauncher_start<S: EcceStore + ?Sized>(
    store: &mut S,
    project: &str,
) -> Result<ToolReport> {
    let items = store
        .calc_summaries(project)?
        .iter()
        .filter(|(_, s)| matches!(s.state, CalcState::InputReady | CalcState::Submitted))
        .count();
    Ok(ToolReport {
        tool: "JobLauncher",
        resident_bytes: items * 64 + 1100 * 1024,
        items,
    })
}

/// JobLauncher on one calculation: reads the input deck and job
/// metadata (what the launch dialog shows).
pub fn joblauncher_load<S: EcceStore + ?Sized>(
    store: &mut S,
    calc_path: &str,
) -> Result<ToolReport> {
    // The launch dialog: input deck + the summary row, not the outputs.
    let input = store.load_input_of(calc_path)?;
    let summary = store.calc_summary(calc_path)?;
    let bytes = input.as_ref().map(String::len).unwrap_or(0) + 256;
    Ok(ToolReport {
        tool: "JobLauncher",
        resident_bytes: bytes,
        items: usize::from(summary.state != crate::model::CalcState::Created),
    })
}

/// Launch a calculation end-to-end through the synthetic runner and
/// persist the results — the full JobLauncher workflow.
pub fn joblauncher_run<S: EcceStore + ?Sized>(
    store: &mut S,
    calc_path: &str,
    config: &jobs::RunnerConfig,
) -> Result<ToolReport> {
    let mut calc = store.load_calculation(calc_path)?;
    jobs::run_to_completion(&mut calc, config)?;
    store.update_calculation(calc_path, &calc)?;
    Ok(ToolReport {
        tool: "JobLauncher",
        resident_bytes: calc.approx_bytes(),
        items: calc.properties.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::davstore::DavEcceStore;
    use crate::dsi::InProcStorage;
    use crate::model::{Calculation, Project, RunType, Task};
    use crate::oodbstore::OodbEcceStore;
    use pse_dav::memrepo::MemRepository;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    static N: AtomicU64 = AtomicU64::new(0);

    fn populate<S: EcceStore>(store: &mut S) -> (String, String) {
        let proj = store
            .create_project(&Project::new("aqueous", "test project"))
            .unwrap();
        let mut target = String::new();
        for (i, runtype) in [RunType::Energy, RunType::Frequency, RunType::Optimize]
            .iter()
            .enumerate()
        {
            let mut c = Calculation::new(&format!("calc-{i}"));
            c.run_type = *runtype;
            c.molecule = Some(if i == 1 {
                crate::chem::uo2_15h2o()
            } else {
                crate::chem::water()
            });
            c.basis = crate::basis::by_name("STO-3G");
            c.tasks = vec![Task {
                name: "main".into(),
                run_type: *runtype,
                sequence: 0,
            }];
            c.input_deck = Some(jobs::input_deck(&c));
            c.transition(CalcState::InputReady).unwrap();
            if i == 1 {
                let mut done = c.clone();
                jobs::run_to_completion(
                    &mut done,
                    &jobs::RunnerConfig {
                        output_scale: 0.2,
                        ..Default::default()
                    },
                )
                .unwrap();
                target = store.save_calculation(&proj, &done).unwrap();
                continue;
            }
            store.save_calculation(&proj, &c).unwrap();
        }
        (proj, target)
    }

    fn exercise_all<S: EcceStore>(store: &mut S) {
        let (proj, target) = populate(store);
        let r = builder_start(store, &proj).unwrap();
        assert_eq!(r.items, 3);
        let r = builder_load(store, &target).unwrap();
        assert_eq!(r.items, 1);
        assert!(r.resident_bytes > 48 * 56);

        let r = basistool_start(store, &proj).unwrap();
        assert!(r.items >= 7); // 4 library sets + 3 calcs
        let r = basistool_load(store, &target).unwrap();
        assert_eq!(r.items, 1, "basis should cover the molecule");

        let r = calceditor_start(store, &proj).unwrap();
        assert_eq!(r.items, 3);
        let r = calceditor_load(store, &target).unwrap();
        assert_eq!(r.items, 1);

        let r = calcviewer_start(store, &proj).unwrap();
        assert_eq!(r.items, 3);
        let r = calcviewer_load(store, &target).unwrap();
        assert!(r.items >= 5, "completed calc has a property set");
        assert!(r.resident_bytes > 50_000);

        let r = calcmanager_start(store).unwrap();
        assert_eq!(r.items, 4); // 1 project + 3 calculations
        let r = calcmanager_load(store, &target).unwrap();
        assert_eq!(r.items, 1);

        let r = joblauncher_start(store, &proj).unwrap();
        assert_eq!(r.items, 2); // the two input-ready ones
        let r = joblauncher_load(store, &target).unwrap();
        assert_eq!(r.items, 1); // has a job

        // Run one of the pending calculations end-to-end.
        let pending = format!("{proj}/calc-0");
        let r = joblauncher_run(
            store,
            &pending,
            &jobs::RunnerConfig {
                output_scale: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.items >= 3);
        let done = store.load_calculation(&pending).unwrap();
        assert_eq!(done.state, CalcState::Complete);
    }

    #[test]
    fn all_tools_over_dav_backend() {
        let mut store = DavEcceStore::open(
            InProcStorage::new(Arc::new(MemRepository::new())),
            "/Ecce",
        )
        .unwrap();
        exercise_all(&mut store);
    }

    #[test]
    fn all_tools_over_oodb_backend() {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-tools-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let mut store = OodbEcceStore::create(&d).unwrap();
        exercise_all(&mut store);
        std::fs::remove_dir_all(&d).unwrap();
    }

    use crate::model::CalcState;
}
