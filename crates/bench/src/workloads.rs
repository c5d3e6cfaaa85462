//! Shared workload builders for the repro binaries and Criterion benches.

use pse_dav::client::DavClient;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::handler::DavHandler;
use pse_dav::property::{Property, PropertyName};
use pse_dav::server::serve;
use pse_dbm::DbmKind;
use pse_ecce::factory::EcceStore;
use pse_ecce::jobs::{self, RunnerConfig};
use pse_ecce::model::{CalcState, Calculation, Project, RunType, Task, Theory};
use pse_ecce::ECCE_NS;
use pse_http::server::{Server, ServerConfig};
use pse_obs::Registry;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static SCRATCH_N: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory under the system temp dir.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let n = SCRATCH_N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("pse-bench-{tag}-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A running DAV server over a filesystem repository + a connected
/// client. Keep the returned tuple alive for the duration of the
/// workload; call [`teardown`] when done.
pub struct DavRig {
    /// The server handle.
    pub server: Server,
    /// A connected client.
    pub client: DavClient,
    /// Repository root on disk.
    pub dir: PathBuf,
}

/// Start a DAV server on the loopback with the given DBM engine.
pub fn dav_rig(tag: &str, kind: DbmKind) -> DavRig {
    dav_rig_obs(tag, kind, None)
}

/// Like [`dav_rig`], with an explicit metric registry — pass
/// `Registry::disabled()` for an instrumentation-free baseline run, or
/// `None` for a fresh enabled registry (reachable via
/// [`DavRig::registry`]).
pub fn dav_rig_obs(tag: &str, kind: DbmKind, registry: Option<Arc<Registry>>) -> DavRig {
    let dir = scratch_dir(tag);
    let repo = FsRepository::create(
        &dir,
        FsConfig {
            dbm_kind: kind,
            ..FsConfig::default()
        },
    )
    .unwrap();
    let handler = match registry {
        Some(r) => DavHandler::with_registry(repo, r),
        None => DavHandler::new(repo),
    };
    // The paper's server configuration: persistent connections, 100
    // requests per connection, 15 s keep-alive, 5 daemons.
    let server = serve("127.0.0.1:0", ServerConfig::default(), handler).unwrap();
    let mut client = DavClient::connect(server.local_addr()).unwrap();
    // Bulk workloads ship >100 MB bodies in full-scale mode.
    client.http().set_limits(pse_http::wire::Limits {
        max_body: 1024 * 1024 * 1024,
        ..Default::default()
    });
    DavRig {
        server,
        client,
        dir,
    }
}

impl DavRig {
    /// The registry every layer of this rig records into.
    pub fn registry(&self) -> Arc<Registry> {
        self.server.registry()
    }
}

/// Stop a rig and delete its directory.
pub fn teardown(rig: DavRig) {
    rig.server.shutdown();
    let _ = std::fs::remove_dir_all(&rig.dir);
}

/// The ecce property name for table-1 style metadata.
pub fn meta(i: usize) -> PropertyName {
    PropertyName::new(ECCE_NS, &format!("meta-{i:02}"))
}

/// Table 1 dataset: `docs` documents under `/t1`, each carrying `props`
/// metadata values of `value_size` bytes plus a document body sized so
/// the whole hierarchy matches the paper's 4.5 MB copy payload.
pub fn build_table1_dataset(
    client: &mut DavClient,
    docs: usize,
    props: usize,
    value_size: usize,
    body_size: usize,
) {
    client.mkcol("/t1").unwrap();
    let value = "v".repeat(value_size);
    for d in 0..docs {
        let path = format!("/t1/doc-{d:02}");
        client
            .put(
                &path,
                vec![b'b'; body_size],
                Some("application/octet-stream"),
            )
            .unwrap();
        // One PROPPATCH with all fifty values — the paper set metadata
        // as documents were created.
        let set: Vec<Property> = (0..props)
            .map(|i| Property::text(meta(i), &value))
            .collect();
        client.proppatch(&path, &set, &[]).unwrap();
    }
}

/// The Table 3 project: the UO2·15H2O frequency calculation (bulky
/// outputs) plus two light calculations.
pub fn build_table3_project<S: EcceStore + ?Sized>(
    store: &mut S,
    output_scale: f64,
) -> (String, String) {
    let proj = store
        .create_project(&Project::new("benchmarks", "Table 3 workload"))
        .unwrap();
    let mut target = String::new();
    for (i, (name, runtype, mol)) in [
        ("water-ref", RunType::Energy, pse_ecce::chem::water()),
        ("uo2-15h2o", RunType::Frequency, pse_ecce::chem::uo2_15h2o()),
        ("uranyl-opt", RunType::Optimize, pse_ecce::chem::uranyl()),
    ]
    .into_iter()
    .enumerate()
    {
        let mut c = Calculation::new(name);
        c.theory = Theory::Dft;
        c.run_type = runtype;
        c.molecule = Some(mol);
        c.basis = pse_ecce::basis::by_name("6-31G*");
        c.tasks = vec![Task {
            name: "main".into(),
            run_type: runtype,
            sequence: 0,
        }];
        c.input_deck = Some(jobs::input_deck(&c));
        c.transition(CalcState::InputReady).unwrap();
        if i == 1 {
            // The Table 3 subject, run to completion with the full
            // output set ("individual output properties up to 1.8 MB").
            jobs::run_to_completion(
                &mut c,
                &RunnerConfig {
                    output_scale,
                    ..RunnerConfig::default()
                },
            )
            .unwrap();
            target = store.save_calculation(&proj, &c).unwrap();
            continue;
        }
        store.save_calculation(&proj, &c).unwrap();
    }
    (proj, target)
}

/// Deterministic pseudo-random payload of `len` bytes.
pub fn payload(len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x = 0x9e3779b97f4a7c15u64;
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_dav::Depth;

    #[test]
    fn table1_dataset_builds() {
        let mut rig = dav_rig("t1-test", DbmKind::Gdbm);
        build_table1_dataset(&mut rig.client, 5, 10, 128, 1024);
        let ms = rig.client.propfind_all("/t1", Depth::One).unwrap();
        assert_eq!(ms.responses.len(), 6);
        let got = rig
            .client
            .get_prop("/t1/doc-03", &meta(7))
            .unwrap()
            .unwrap();
        assert_eq!(got.len(), 128);
        teardown(rig);
    }

    #[test]
    fn table3_project_builds_on_dav() {
        let mut rig = dav_rig("t3-test", DbmKind::Gdbm);
        let mut store = pse_ecce::davstore::DavEcceStore::open(
            pse_ecce::dsi::DavStorage::new(DavClient::connect(rig.server.local_addr()).unwrap()),
            "/Ecce",
        )
        .unwrap();
        let (proj, target) = build_table3_project(&mut store, 0.05);
        assert_eq!(store.list_calculations(&proj).unwrap().len(), 3);
        let calc = store.load_calculation(&target).unwrap();
        assert_eq!(calc.state, CalcState::Complete);
        assert!(calc.property("hessian").is_some());
        rig.client.delete("/Ecce").unwrap();
        teardown(rig);
    }

    #[test]
    fn payload_deterministic() {
        assert_eq!(payload(1000), payload(1000));
        assert_eq!(payload(1000).len(), 1000);
        assert_ne!(payload(1000)[..500], payload(1000)[500..]);
    }
}
