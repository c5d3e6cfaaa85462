//! Quickstart: run a DAV data server, store a molecule with open
//! metadata, and query it back — the minimal end-to-end tour.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use davpse::dav::client::DavClient;
use davpse::dav::fsrepo::{FsConfig, FsRepository};
use davpse::dav::handler::DavHandler;
use davpse::dav::property::PropertyName;
use davpse::dav::server::serve;
use davpse::ecce::chem;
use pse_http::server::ServerConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A data server: filesystem repository + GDBM metadata, exactly
    //    the Apache+mod_dav shape the paper deployed.
    let root = std::env::temp_dir().join(format!("davpse-quickstart-{}", std::process::id()));
    let repo = FsRepository::create(&root, FsConfig::default())?;
    let server = serve("127.0.0.1:0", ServerConfig::default(), DavHandler::new(repo))?;
    println!("DAV server listening on {}", server.local_addr());

    // 2. A client stores a molecule document plus self-describing
    //    metadata: format, empirical formula, charge.
    let mut client = DavClient::connect(server.local_addr())?;
    client.mkcol("/molecules")?;
    let mol = chem::uo2_15h2o();
    client.put("/molecules/uranyl-aqua", mol.to_xyz(), Some("chemical/x-xyz"))?;
    let ecce = "http://emsl.pnl.gov/ecce";
    client.proppatch_set(
        "/molecules/uranyl-aqua",
        &PropertyName::new(ecce, "formula"),
        &mol.empirical_formula(),
    )?;
    client.proppatch_set(
        "/molecules/uranyl-aqua",
        &PropertyName::new(ecce, "charge"),
        &mol.charge.to_string(),
    )?;
    println!(
        "stored {} ({} atoms, formula {})",
        mol.name,
        mol.natoms(),
        mol.empirical_formula()
    );

    // 3. Any application can now find it by metadata alone — no shared
    //    schema required.
    let hits = client.search_eq("/molecules", &PropertyName::new(ecce, "formula"), "H30O17U")?;
    for hit in &hits {
        println!("search hit: {hit}");
        let body = client.get(hit)?;
        let back = chem::Molecule::from_xyz(std::str::from_utf8(&body)?)?;
        println!("  re-parsed {} atoms from the raw XYZ document", back.natoms());
    }

    // 4. And a plain web browser could GET the collection index.
    let html = String::from_utf8(client.get("/molecules")?)?;
    println!("browsable index: {}", html.lines().next().unwrap_or(""));

    server.shutdown();
    std::fs::remove_dir_all(&root)?;
    Ok(())
}
