//! Reproduce the **§3.2.1 robustness/size-limit tests**.
//!
//! "With mod_dav and GDBM, metadata values as large as 100 MB and
//! documents as large as 200 MB were created repeatedly without
//! problems." And the flip side: SDBM's 1 KB item limit, and the
//! configured 10 MB property cap ("as an initial (post-testing) value,
//! we set a limit of 10 MB per property").
//!
//! Default sizes are scaled down 10×; `PSE_SCALE=full` uses the paper's.

use pse_bench::harness::{full_scale, mb, measure, secs, Table};
use pse_bench::workloads::{dav_rig, payload, scratch_dir, teardown};
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::property::{Property, PropertyName};
use pse_dav::repo::Repository;
use pse_dbm::DbmKind;
use pse_ecce::ECCE_NS;

fn main() {
    let scale = if full_scale() { 1 } else { 10 };
    let meta_size = 100 * 1024 * 1024 / scale;
    let doc_size = 200 * 1024 * 1024 / scale;
    let rounds = 3;
    println!(
        "Robustness tests — metadata {}, documents {}, {rounds} rounds each",
        mb(meta_size as u64),
        mb(doc_size as u64)
    );

    let mut table = Table::new(
        "large metadata and documents (GDBM)",
        &["test", "result", "time"],
    );

    // Large metadata + documents through the full protocol stack. The
    // repository property cap must be raised beyond its 10 MB default to
    // host the 100 MB value, as the paper did for its stress test.
    let dir = scratch_dir("limits-repo");
    let repo = FsRepository::create(
        &dir,
        FsConfig {
            dbm_kind: DbmKind::Gdbm,
            max_property_size: 512 * 1024 * 1024,
            ..FsConfig::default()
        },
    )
    .unwrap();
    let server = pse_dav::server::serve(
        "127.0.0.1:0",
        pse_http::server::ServerConfig {
            limits: pse_http::wire::Limits {
                max_body: 1024 * 1024 * 1024,
                ..Default::default()
            },
            ..Default::default()
        },
        pse_dav::handler::DavHandler::new(repo),
    )
    .unwrap();
    let mut client = pse_dav::client::DavClient::connect(server.local_addr()).unwrap();
    client.http().set_limits(pse_http::wire::Limits {
        max_body: 1024 * 1024 * 1024,
        ..Default::default()
    });

    client.put("/stress", b"".to_vec(), None).unwrap();
    let name = PropertyName::new(ECCE_NS, "huge-metadata");
    let value =
        String::from_utf8(payload(meta_size).iter().map(|b| b'a' + (b % 26)).collect()).unwrap();
    let (_, m) = measure(|| {
        for _ in 0..rounds {
            client
                .proppatch("/stress", &[Property::text(name.clone(), &value)], &[])
                .unwrap();
        }
        let got = client.get_prop("/stress", &name).unwrap().unwrap();
        assert_eq!(got.len(), value.len());
    });
    table.row(&[
        format!(
            "{} metadata value x{rounds} + read-back",
            mb(meta_size as u64)
        ),
        "ok".into(),
        secs(m.elapsed_s()),
    ]);

    let doc = payload(doc_size);
    let (_, m) = measure(|| {
        for _ in 0..rounds {
            client.put("/stress-doc", doc.clone(), None).unwrap();
        }
        let got = client.get("/stress-doc").unwrap();
        assert_eq!(got.len(), doc.len());
    });
    table.row(&[
        format!("{} document x{rounds} + read-back", mb(doc_size as u64)),
        "ok".into(),
        secs(m.elapsed_s()),
    ]);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // The 10 MB production property cap is enforced.
    let mut rig = dav_rig("limits-cap", DbmKind::Gdbm);
    rig.client.put("/capped", b"".to_vec(), None).unwrap();
    let over_cap = "x".repeat(11 * 1024 * 1024);
    let err = rig
        .client
        .proppatch(
            "/capped",
            &[Property::text(PropertyName::new(ECCE_NS, "big"), &over_cap)],
            &[],
        )
        .is_err();
    table.row(&[
        "11 MB property vs 10 MB production cap".into(),
        if err {
            "rejected (413)".into()
        } else {
            "NOT REJECTED".into()
        },
        "—".into(),
    ]);
    teardown(rig);

    // SDBM's 1 KB item limit.
    let sdbm_dir = scratch_dir("limits-sdbm");
    let repo = FsRepository::create(
        &sdbm_dir,
        FsConfig {
            dbm_kind: DbmKind::Sdbm,
            ..FsConfig::default()
        },
    )
    .unwrap();
    repo.put("/x", b"", None).unwrap();
    let over = Property::text(PropertyName::new(ECCE_NS, "kb2"), &"y".repeat(2048));
    let sdbm_err = repo.set_prop("/x", &over).is_err();
    let under = Property::text(PropertyName::new(ECCE_NS, "small"), &"y".repeat(500));
    repo.set_prop("/x", &under).unwrap();
    table.row(&[
        "2 KB metadata value on SDBM (1 KB item limit)".into(),
        if sdbm_err {
            "rejected".into()
        } else {
            "NOT REJECTED".into()
        },
        "—".into(),
    ]);
    let _ = std::fs::remove_dir_all(&sdbm_dir);

    table.print();
    println!("\npaper shape: GDBM handles 100 MB metadata / 200 MB documents repeatedly;");
    println!("SDBM refuses >1 KB items; the production cap bounds request bodies.");
}
