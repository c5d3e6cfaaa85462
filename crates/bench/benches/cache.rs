//! Criterion benches for the pse-cache subsystem: raw cache ops, the
//! Table-1 style warm PROPFIND/GET with the client validating cache off
//! vs on, and the Table-3 warm-start calculation load.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pse_bench::workloads::{build_table1_dataset, build_table3_project, dav_rig, meta, teardown};
use pse_cache::{CacheConfig, ShardedCache};
use pse_dav::client::DavClient;
use pse_dav::property::PropertyName;
use pse_dav::Depth;
use pse_dbm::DbmKind;
use pse_ecce::davstore::DavEcceStore;
use pse_ecce::dsi::DavStorage;
use pse_ecce::factory::EcceStore;

fn bench_cache_ops(c: &mut Criterion) {
    let cache: ShardedCache<String, Vec<u8>> = ShardedCache::new(CacheConfig::default());
    let keys: Vec<String> = (0..512).map(|i| format!("/t1/doc-{i:03}")).collect();
    for k in &keys {
        cache.insert(k.clone(), vec![0u8; 256], 256);
    }
    let mut group = c.benchmark_group("cache_ops");
    group.throughput(Throughput::Elements(keys.len() as u64));
    let mut i = 0usize;
    group.bench_function("get_hit", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            std::hint::black_box(cache.get(&keys[i]))
        })
    });
    group.bench_function("insert_replace", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            cache.insert(keys[i].clone(), vec![0u8; 256], 256);
        })
    });
    group.finish();
}

fn bench_table1_warm(c: &mut Criterion) {
    let mut rig = dav_rig("bench-cache-t1", DbmKind::Gdbm);
    build_table1_dataset(&mut rig.client, 20, 20, 256, 4096);
    let selected: Vec<PropertyName> = (0..5).map(meta).collect();

    let mut group = c.benchmark_group("table1_warm_propfind");
    group.sample_size(10);
    rig.client.disable_cache();
    let client = &mut rig.client;
    group.bench_function("cache_off", |b| {
        b.iter(|| client.propfind("/t1", Depth::One, &selected).unwrap())
    });
    client.enable_cache(CacheConfig::default());
    client.propfind("/t1", Depth::One, &selected).unwrap();
    group.bench_function("cache_on", |b| {
        b.iter(|| client.propfind("/t1", Depth::One, &selected).unwrap())
    });
    group.finish();

    client.put("/blob", vec![b'x'; 128 * 1024], None).unwrap();
    let mut group = c.benchmark_group("table1_warm_get_128k");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(128 * 1024));
    client.disable_cache();
    group.bench_function("cache_off", |b| {
        b.iter(|| std::hint::black_box(client.get("/blob").unwrap()))
    });
    client.enable_cache(CacheConfig::default());
    client.get("/blob").unwrap();
    group.bench_function("cache_on", |b| {
        b.iter(|| std::hint::black_box(client.get("/blob").unwrap()))
    });
    group.finish();
    teardown(rig);
}

fn bench_table3_warm_start(c: &mut Criterion) {
    // The Table 3 shape: reopen an existing calculation ("warm start").
    // The validating cache turns the repeated PROPFIND/GET traffic into
    // 304 revalidations.
    let rig = dav_rig("bench-cache-t3", DbmKind::Gdbm);
    let mut setup = DavEcceStore::open(
        DavStorage::new(DavClient::connect(rig.server.local_addr()).unwrap()),
        "/Ecce",
    )
    .unwrap();
    let (_proj, target) = build_table3_project(&mut setup, 0.05);

    let mut group = c.benchmark_group("table3_warm_start_load");
    group.sample_size(10);
    for (label, cache) in [
        ("cache_off", None),
        ("cache_on", Some(CacheConfig::default())),
    ] {
        let mut client = DavClient::connect(rig.server.local_addr()).unwrap();
        if let Some(config) = cache {
            client.enable_cache(config);
        }
        let mut store = DavEcceStore::open(DavStorage::new(client), "/Ecce").unwrap();
        store.load_calculation(&target).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| std::hint::black_box(store.load_calculation(&target).unwrap()))
        });
    }
    group.finish();
    teardown(rig);
}

criterion_group!(
    benches,
    bench_cache_ops,
    bench_table1_warm,
    bench_table3_warm_start
);
criterion_main!(benches);
