//! The open-architecture scenarios of §4: third-party agents discovering
//! and enriching Ecce data **without knowing the Ecce schema**, and an
//! electronic notebook adding signatures — "lightweight integration
//! scenarios [that] provide real benefits to users without system-wide
//! agreement on a common schema".
//!
//! ```text
//! cargo run --example open_agents
//! ```

use davpse::dav::client::DavClient;
use davpse::dav::fsrepo::{FsConfig, FsRepository};
use davpse::dav::handler::DavHandler;
use davpse::dav::server::serve;
use davpse::ecce::davstore::DavEcceStore;
use davpse::ecce::dsi::DavStorage;
use davpse::ecce::factory::EcceStore;
use davpse::ecce::jobs::{self, RunnerConfig};
use davpse::ecce::model::{CalcState, Calculation, Project, RunType};
use davpse::ecce::{agent, basis, chem, query};
use pse_http::server::ServerConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join(format!("davpse-agents-{}", std::process::id()));
    let repo = FsRepository::create(&root, FsConfig::default())?;
    let server = serve(
        "127.0.0.1:0",
        ServerConfig::default(),
        DavHandler::new(repo),
    )?;
    let addr = server.local_addr();

    // --- Ecce populates its store as usual ---
    let mut store = DavEcceStore::open(DavStorage::new(DavClient::connect(addr)?), "/Ecce")?;
    let proj = store.create_project(&Project::new("water-bench", ""))?;
    let mut calc = Calculation::new("water-freq");
    calc.run_type = RunType::Frequency;
    calc.molecule = Some(chem::water());
    calc.basis = basis::by_name("STO-3G");
    calc.input_deck = Some(jobs::input_deck(&calc));
    calc.transition(CalcState::InputReady)?;
    jobs::run_to_completion(
        &mut calc,
        &RunnerConfig {
            output_scale: 0.1,
            ..RunnerConfig::default()
        },
    )?;
    let calc_path = store.save_calculation(&proj, &calc)?;
    println!("Ecce stored {calc_path}");

    // --- Agent 1: an independent process connects with its own client
    //     and discovers molecules purely by open metadata. ---
    let mut agent_storage = DavStorage::new(DavClient::connect(addr)?);
    let report = agent::thermodynamic_agent(&mut agent_storage, "/Ecce")?;
    println!(
        "thermo agent: discovered {} molecule(s), annotated {}",
        report.discovered, report.annotated
    );

    // --- Agent 2: the electronic notebook signs the calculation. ---
    let signature = agent::notebook_annotate(
        &mut agent_storage,
        &calc_path,
        "verified against lab notebook p.47",
        "eric",
    )?;
    println!("notebook signature: {signature}");

    // --- Ecce (or anything else) can immediately query the new keys. ---
    let enriched = query::find_by_agent_metadata(
        &mut agent_storage,
        "/Ecce",
        "thermo-agent",
        "pse-thermo/1.0",
    )?;
    for path in &enriched {
        let zpe = agent_storage_get(&mut agent_storage, path, "thermo-zpe-kcal")?;
        println!("agent-enriched molecule {path}: ZPE = {zpe} kcal/mol");
    }

    // --- And Ecce's own view never noticed any of it. ---
    let back = store.load_calculation(&calc_path)?;
    println!(
        "Ecce still loads the calculation cleanly: state={}, {} properties",
        back.state.as_str(),
        back.properties.len()
    );

    server.shutdown();
    std::fs::remove_dir_all(&root)?;
    Ok(())
}

fn agent_storage_get(
    storage: &mut DavStorage,
    path: &str,
    key: &str,
) -> Result<String, Box<dyn std::error::Error>> {
    use davpse::ecce::dsi::DataStorage;
    Ok(storage.get_meta(path, key)?.unwrap_or_default())
}
