//! Criterion bench for the migration pipeline: OODB → DAV conversion
//! throughput for a small project set.

use criterion::{criterion_group, criterion_main, Criterion};
use pse_bench::workloads::scratch_dir;
use pse_dav::memrepo::MemRepository;
use pse_ecce::davstore::DavEcceStore;
use pse_ecce::dsi::InProcStorage;
use pse_ecce::migrate::{self, PopulateConfig};
use pse_ecce::oodbstore::OodbEcceStore;
use std::sync::Arc;

fn bench_migration(c: &mut Criterion) {
    let dir = scratch_dir("crit-mig");
    let mut source = OodbEcceStore::create(dir.join("db")).unwrap();
    migrate::populate_oodb(
        &mut source,
        &PopulateConfig {
            projects: 1,
            calcs_per_project: 3,
            output_scale: 0.05,
            raw_dir: None,
        },
    )
    .unwrap();

    let mut group = c.benchmark_group("migration");
    group.sample_size(10);
    group.bench_function("oodb_to_dav_3_calcs", |b| {
        b.iter(|| {
            let mut target =
                DavEcceStore::open(InProcStorage::new(Arc::new(MemRepository::new())), "/Ecce")
                    .unwrap();
            let report = migrate::migrate(&mut source, &mut target).unwrap();
            assert_eq!(report.calculations, 3);
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_migration);
criterion_main!(benches);
