//! The §3.2.4 data migration: OODB → DAV, in the paper's two stages.
//!
//! "The migration process was done in two stages: First, we converted
//! OODB data into the DAV data structures as previously described.
//! Secondly, raw calculation data in the form of input and output files
//! was moved from users local disk storage directly into the calculation
//! virtual document on the data server."
//!
//! [`populate_oodb`] synthesises a source database shaped like the
//! paper's (projects of completed calculations whose object graphs
//! average ~1.6 k objects each; the real one held "259 calculations
//! represented by about 420,000 OODB objects"), optionally staging raw
//! job files on "local disk". [`migrate`] then performs both stages and
//! [`verify`] checks per-calculation fidelity.

use crate::davstore::DavEcceStore;
use crate::dsi::DataStorage;
use crate::error::Result;
use crate::factory::EcceStore;
use crate::jobs::{self, RunnerConfig};
use crate::model::{CalcState, Calculation, Project, RunType, Task, Theory};
use crate::oodbstore::OodbEcceStore;
use pse_http::uri::join_path;
use std::path::{Path, PathBuf};

/// Parameters for the synthetic source database.
#[derive(Debug, Clone)]
pub struct PopulateConfig {
    /// Number of projects.
    pub projects: usize,
    /// Calculations per project.
    pub calcs_per_project: usize,
    /// Scale on bulky outputs (see [`RunnerConfig::output_scale`]).
    pub output_scale: f64,
    /// Directory standing in for "users local disk storage"; when set,
    /// raw job output files are written there (stage 2 inputs).
    pub raw_dir: Option<PathBuf>,
}

impl Default for PopulateConfig {
    fn default() -> Self {
        PopulateConfig {
            projects: 2,
            calcs_per_project: 4,
            output_scale: 0.1,
            raw_dir: None,
        }
    }
}

/// What was created/migrated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Calculations handled.
    pub calculations: usize,
    /// OODB objects read (stage 1).
    pub objects: usize,
    /// Raw files moved (stage 2).
    pub raw_files: usize,
    /// Total raw bytes moved in stage 2.
    pub raw_bytes: u64,
}

/// Cycle of test molecules for the synthetic population.
fn molecule_for(i: usize) -> crate::chem::Molecule {
    match i % 3 {
        0 => crate::chem::water(),
        1 => crate::chem::uranyl(),
        _ => crate::chem::uo2_15h2o(),
    }
}

/// Build the synthetic OODB source database. Returns the calculation
/// paths created.
pub fn populate_oodb(store: &mut OodbEcceStore, config: &PopulateConfig) -> Result<Vec<String>> {
    let mut calc_paths = Vec::new();
    for p in 0..config.projects {
        let proj = store.create_project(&Project::new(
            &format!("project-{p}"),
            "synthetic migration source",
        ))?;
        for c in 0..config.calcs_per_project {
            let i = p * config.calcs_per_project + c;
            let mut calc = Calculation::new(&format!("calc-{c}"));
            calc.theory = [Theory::Scf, Theory::Dft, Theory::Mp2][i % 3];
            calc.run_type = [RunType::Energy, RunType::Optimize, RunType::Frequency][i % 3];
            calc.molecule = Some(molecule_for(i));
            calc.basis = crate::basis::by_name(["STO-3G", "3-21G", "6-31G*"][i % 3]);
            calc.tasks = vec![Task {
                name: "main".into(),
                run_type: calc.run_type,
                sequence: 0,
            }];
            calc.input_deck = Some(jobs::input_deck(&calc));
            calc.transition(CalcState::InputReady)?;
            jobs::run_to_completion(
                &mut calc,
                &RunnerConfig {
                    output_scale: config.output_scale,
                    ..RunnerConfig::default()
                },
            )?;
            let path = store.save_calculation(&proj, &calc)?;
            // Stage-2 inputs: the OODB "only contained directory path
            // references to the raw data" — write those raw files to
            // local disk and remember only their location.
            if let Some(raw_dir) = &config.raw_dir {
                let dir = raw_dir.join(format!("p{p}-c{c}"));
                std::fs::create_dir_all(&dir)?;
                std::fs::write(
                    dir.join("input.nw"),
                    calc.input_deck.as_deref().unwrap_or(""),
                )?;
                let log = synth_output_log(&calc);
                std::fs::write(dir.join("output.log"), log)?;
                store.annotate(&path, "raw-data-dir", &dir.to_string_lossy())?;
            }
            calc_paths.push(path);
        }
    }
    Ok(calc_paths)
}

/// A plausible text log for the raw output file.
fn synth_output_log(calc: &Calculation) -> String {
    let mut log = format!(
        "NWChem output (synthetic)\ncalculation: {}\ntheory: {}\n\n",
        calc.name,
        calc.theory.as_str()
    );
    for p in &calc.properties {
        log.push_str(&format!(
            "computed {} [{}] n={}\n",
            p.name,
            p.units,
            p.value.len()
        ));
    }
    log.push_str("\nTask completed.\n");
    log
}

/// Run the two-stage migration into a DAV store.
pub fn migrate<S: DataStorage>(
    source: &mut OodbEcceStore,
    target: &mut DavEcceStore<S>,
) -> Result<MigrationReport> {
    let mut report = MigrationReport::default();

    // Stage 1: OODB objects → DAV structures.
    for project_path in source.list_projects()? {
        let project = source.load_project(&project_path)?;
        let dav_project = target.create_project(&project)?;
        for calc_path in source.list_calculations(&project_path)? {
            report.objects += count_graph_objects(source, &calc_path)?;
            let calc = source.load_calculation(&calc_path)?;
            let dav_calc = target.save_calculation(&dav_project, &calc)?;
            // Carry the raw-data pointer forward for stage 2.
            if let Some(raw) = source.annotation(&calc_path, "raw-data-dir")? {
                target.annotate(&dav_calc, "raw-data-dir", &raw)?;
            }
            report.calculations += 1;
        }
    }

    // Stage 2: raw files from "local disk" into the calculation virtual
    // document on the data server.
    for project_path in target.list_projects()? {
        for calc_path in target.list_calculations(&project_path)? {
            let Some(raw) = target.annotation(&calc_path, "raw-data-dir")? else {
                continue;
            };
            let raw_dir = Path::new(&raw);
            if !raw_dir.exists() {
                continue;
            }
            for entry in std::fs::read_dir(raw_dir)? {
                let entry = entry?;
                if !entry.file_type()?.is_file() {
                    continue;
                }
                let name = entry.file_name().to_string_lossy().into_owned();
                let data = std::fs::read(entry.path())?;
                report.raw_bytes += data.len() as u64;
                report.raw_files += 1;
                target
                    .storage()
                    .write(&join_path(&calc_path, &name), &data, Some("text/plain"))?;
            }
            // The pointer now refers to the server-side location.
            target.annotate(&calc_path, "raw-data-dir", &calc_path)?;
        }
    }
    Ok(report)
}

/// Count the live objects making up a calculation's graph (calculation +
/// molecule + basis + job + tasks + properties), for the report.
fn count_graph_objects(source: &mut OodbEcceStore, calc_path: &str) -> Result<usize> {
    let calc = source.load_calculation(calc_path)?;
    Ok(1 + usize::from(calc.molecule.is_some())
        + usize::from(calc.basis.is_some())
        + usize::from(calc.job.is_some())
        + calc.tasks.len()
        + calc.properties.len())
}

/// Verify per-calculation fidelity: every calculation in the source
/// loads identically (name, state, theory, molecule, property values)
/// from the target.
pub fn verify<S: DataStorage>(
    source: &mut OodbEcceStore,
    target: &mut DavEcceStore<S>,
) -> Result<Vec<String>> {
    let mut mismatches = Vec::new();
    for project_path in source.list_projects()? {
        let name = pse_http::uri::basename(&project_path).to_owned();
        let dav_project = join_path(target.root(), &name);
        for calc_path in source.list_calculations(&project_path)? {
            let calc_name = pse_http::uri::basename(&calc_path).to_owned();
            let dav_calc = join_path(&dav_project, &calc_name);
            let a = source.load_calculation(&calc_path)?;
            let b = match target.load_calculation(&dav_calc) {
                Ok(b) => b,
                Err(e) => {
                    mismatches.push(format!("{dav_calc}: missing ({e})"));
                    continue;
                }
            };
            if a.name != b.name || a.state != b.state || a.theory != b.theory {
                mismatches.push(format!("{dav_calc}: header fields differ"));
            }
            match (&a.molecule, &b.molecule) {
                (Some(ma), Some(mb)) if ma.natoms() == mb.natoms() => {}
                (None, None) => {}
                _ => mismatches.push(format!("{dav_calc}: molecule differs")),
            }
            if a.properties.len() != b.properties.len() {
                mismatches.push(format!(
                    "{dav_calc}: {} vs {} properties",
                    a.properties.len(),
                    b.properties.len()
                ));
                continue;
            }
            for pa in &a.properties {
                let Some(pb) = b.properties.iter().find(|p| p.name == pa.name) else {
                    mismatches.push(format!("{dav_calc}: property {} missing", pa.name));
                    continue;
                };
                if pa.value.len() != pb.value.len() {
                    mismatches.push(format!("{dav_calc}: property {} size differs", pa.name));
                }
            }
        }
    }
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsi::InProcStorage;
    use pse_dav::memrepo::MemRepository;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    static N: AtomicU64 = AtomicU64::new(0);

    fn scratch(tag: &str) -> PathBuf {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-migrate-{tag}-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn end_to_end_migration_with_raw_files() {
        let oodb_dir = scratch("oodb");
        let raw_dir = scratch("raw");
        let mut source = OodbEcceStore::create(oodb_dir.join("db")).unwrap();
        let created = populate_oodb(
            &mut source,
            &PopulateConfig {
                projects: 2,
                calcs_per_project: 3,
                output_scale: 0.05,
                raw_dir: Some(raw_dir.clone()),
            },
        )
        .unwrap();
        assert_eq!(created.len(), 6);

        let mut target =
            DavEcceStore::open(InProcStorage::new(Arc::new(MemRepository::new())), "/Ecce")
                .unwrap();
        let report = migrate(&mut source, &mut target).unwrap();
        assert_eq!(report.calculations, 6);
        assert!(
            report.objects > 6 * 5,
            "graphs have many objects: {report:?}"
        );
        assert_eq!(report.raw_files, 12); // input.nw + output.log each
        assert!(report.raw_bytes > 1000);

        // Raw files landed inside the calculation virtual documents.
        let log = target
            .storage()
            .read("/Ecce/project-0/calc-0/output.log")
            .unwrap();
        assert!(String::from_utf8_lossy(&log).contains("Task completed"));

        // Fidelity.
        let mismatches = verify(&mut source, &mut target).unwrap();
        assert!(mismatches.is_empty(), "{mismatches:?}");

        std::fs::remove_dir_all(&oodb_dir).unwrap();
        std::fs::remove_dir_all(&raw_dir).unwrap();
    }

    #[test]
    fn migration_without_raw_stage() {
        let oodb_dir = scratch("oodb2");
        let mut source = OodbEcceStore::create(oodb_dir.join("db")).unwrap();
        populate_oodb(&mut source, &PopulateConfig::default()).unwrap();
        let mut target =
            DavEcceStore::open(InProcStorage::new(Arc::new(MemRepository::new())), "/Ecce")
                .unwrap();
        let report = migrate(&mut source, &mut target).unwrap();
        assert_eq!(report.calculations, 8);
        assert_eq!(report.raw_files, 0);
        assert!(verify(&mut source, &mut target).unwrap().is_empty());
        std::fs::remove_dir_all(&oodb_dir).unwrap();
    }

    #[test]
    fn verify_detects_tampering() {
        let oodb_dir = scratch("oodb3");
        let mut source = OodbEcceStore::create(oodb_dir.join("db")).unwrap();
        populate_oodb(
            &mut source,
            &PopulateConfig {
                projects: 1,
                calcs_per_project: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut target =
            DavEcceStore::open(InProcStorage::new(Arc::new(MemRepository::new())), "/Ecce")
                .unwrap();
        migrate(&mut source, &mut target).unwrap();
        // Break one migrated calculation.
        target.delete("/Ecce/project-0/calc-1").unwrap();
        let mismatches = verify(&mut source, &mut target).unwrap();
        assert_eq!(mismatches.len(), 1);
        assert!(mismatches[0].contains("calc-1"));
        std::fs::remove_dir_all(&oodb_dir).unwrap();
    }
}
