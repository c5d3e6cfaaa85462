//! A complete computational-chemistry study through the Ecce object
//! layer: project setup, molecule building, basis assignment, input
//! generation, (synthetic) execution, and post-run analysis — the
//! workflow the paper's Figure 3/4 model exists for.
//!
//! ```text
//! cargo run --example chemistry_study
//! ```

use davpse::dav::client::DavClient;
use davpse::dav::fsrepo::{FsConfig, FsRepository};
use davpse::dav::handler::DavHandler;
use davpse::dav::server::serve;
use davpse::ecce::davstore::DavEcceStore;
use davpse::ecce::dsi::DavStorage;
use davpse::ecce::factory::EcceStore;
use davpse::ecce::jobs::{self, RunnerConfig};
use davpse::ecce::model::{CalcState, Calculation, Project, PropertyValue, RunType, Task, Theory};
use davpse::ecce::{basis, chem, query, tools};
use pse_http::server::ServerConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("davpse-study-{}", std::process::id()));
    let repo = FsRepository::create(&root, FsConfig::default())?;
    let server = serve(
        "127.0.0.1:0",
        ServerConfig::default(),
        DavHandler::new(repo),
    )?;
    let mut store = DavEcceStore::open(
        DavStorage::new(DavClient::connect(server.local_addr())?),
        "/Ecce",
    )?;

    // Project and calculation setup, as a chemist would through the UI.
    let proj = store.create_project(&Project::new(
        "aqueous-uranium",
        "uranyl speciation in water clusters",
    ))?;
    println!("project: {proj}");

    let mut calc = Calculation::new("uo2-15h2o-freq");
    calc.theory = Theory::Dft;
    calc.run_type = RunType::Frequency;
    calc.molecule = Some(chem::uo2_15h2o());
    calc.basis = basis::by_name("6-31G*");
    calc.tasks = vec![
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
    calc.input_deck = Some(jobs::input_deck(&calc));
    calc.transition(CalcState::InputReady)?;
    let path = store.save_calculation(&proj, &calc)?;
    println!(
        "calculation: {path} ({} atoms, {} basis functions)",
        calc.molecule.as_ref().unwrap().natoms(),
        calc.basis
            .as_ref()
            .unwrap()
            .function_count(calc.molecule.as_ref().unwrap())
    );

    // Launch through the JobLauncher tool (synthetic compute runner).
    let report = tools::joblauncher_run(
        &mut store,
        &path,
        &RunnerConfig {
            output_scale: 0.3,
            ..RunnerConfig::default()
        },
    )?;
    println!("job complete: {} output properties", report.items);

    // Post-run analysis: the CalcViewer load.
    let done = store.load_calculation(&path)?;
    let energy = match done.property("total-energy").map(|p| &p.value) {
        Some(PropertyValue::Scalar(e)) => *e,
        _ => unreachable!("completed runs carry a total energy"),
    };
    println!("total energy: {energy:.6} hartree");
    if let Some(freqs) = done.property("frequencies") {
        println!(
            "frequencies: {} modes, job ran {:.0} s of (synthetic) wall time on {}",
            freqs.value.len(),
            done.job.as_ref().map(|j| j.wall_seconds).unwrap_or(0.0),
            done.job.as_ref().map(|j| j.machine.as_str()).unwrap_or("?"),
        );
    }

    // The query interface: find complete DFT calculations.
    let hits = query::find_calculations(
        &mut store,
        &query::CalcFilter {
            state: Some(CalcState::Complete),
            theory: Some(Theory::Dft),
            ..Default::default()
        },
    )?;
    println!("query (complete ∧ DFT): {} hit(s)", hits.len());
    for (p, s) in hits {
        println!("  {p}: {} [{}]", s.name, s.formula.unwrap_or_default());
    }

    server.shutdown();
    std::fs::remove_dir_all(&root)?;
    Ok(())
}
