//! Reproduce the **metadata-query scaling** claim behind the search
//! gate: an Ecce-sized store (10 000 calculation resources, each
//! carrying application properties) must answer a selective DASL SEARCH
//! from the property index in a small fraction of the time a
//! PROPFIND-style walk-and-scan takes — the paper's users browse and
//! filter calculation collections interactively, and a full scan per
//! query does not survive that at scale.
//!
//! The `eq-covered` row selects only the property its `eq` constrains,
//! so the index answers it alone: its property reads per query (counted
//! as property-cache lookups) must be 0.
//!
//! `--check` gates the acceptance criterion: on the selective queries
//! the planner must (a) return byte-for-byte the scan's answer and
//! (b) run at least 10x faster, and the covered row must read no
//! property. Emits target/bench-json/search.json (override with
//! $PSE_BENCH_JSON).

use pse_bench::harness::{emit_json_fields, measure, measure_n, secs, Table};
use pse_bench::workloads::scratch_dir;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::property::{Property, PropertyName};
use pse_dav::repo::Repository;
use pse_dav::search::{self, Condition, Query};
use pse_ecce::ECCE_NS;

const RESOURCES: usize = 10_000;

fn prop(local: &str) -> PropertyName {
    PropertyName::new(ECCE_NS, local)
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    let dir = scratch_dir("search-repo");
    let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
    println!("Populating {RESOURCES} calculations with properties…");
    let (_, build) = measure(|| {
        repo.mkcol("/calcs").unwrap();
        for shard in 0..10 {
            repo.mkcol(&format!("/calcs/p{shard}")).unwrap();
        }
        for i in 0..RESOURCES {
            let p = format!("/calcs/p{}/calc{:05}", i % 10, i);
            repo.put(&p, b"geometry and basis", None).unwrap();
            // 1% of calculations carry the rare code name the selective
            // query hunts for; charge spreads across a numeric range.
            repo.patch_props(
                &p,
                &[
                    pse_dav::repo::PropPatchOp::Set(Property::text(
                        prop("code"),
                        if i % 100 == 0 { "polyrate" } else { "nwchem" },
                    )),
                    pse_dav::repo::PropPatchOp::Set(Property::text(
                        prop("charge"),
                        &format!("{}", (i % 21) as i64 - 10),
                    )),
                ],
            )
            .unwrap();
        }
    });
    println!("  built in {}", secs(build.elapsed_s()));

    let polyrate = || Condition::Eq(prop("code"), "polyrate".to_owned());
    let queries: Vec<(&str, Query)> = vec![
        ("eq-selective (1% match)", Query::new("/calcs", polyrate())),
        (
            "gt-numeric (charge > 9)",
            Query::new("/calcs", Condition::Gt(prop("charge"), 9.0)),
        ),
        (
            "and-composite",
            Query::new(
                "/calcs",
                Condition::And(vec![polyrate(), Condition::Lt(prop("charge"), 0.0)]),
            ),
        ),
        (
            "eq-covered (select code)",
            Query {
                select: vec![prop("code")],
                ..Query::new("/calcs", polyrate())
            },
        ),
    ];
    // Property reads, counted as property-cache lookups: every named or
    // full read of a resource's properties makes exactly one.
    let prop_reads = || {
        let s = repo.cache_stats();
        s.hits + s.misses
    };

    let mut table = Table::new(
        &format!("indexed SEARCH vs PROPFIND-scan over {RESOURCES} calculations"),
        &["query", "matches", "prop reads", "indexed", "scan", "speedup"],
    );
    let mut rows: Vec<(String, Vec<(&'static str, f64)>)> = Vec::new();
    let mut failures = Vec::new();

    for (label, q) in queries {
        // Answers must be identical before timing means anything.
        let before = prop_reads();
        let indexed_out = search::execute_paged(&repo, &q).unwrap();
        let reads = prop_reads() - before;
        let scan_ms = search::execute_scan(&repo, &q).unwrap();
        if indexed_out.ms.to_xml() != scan_ms.to_xml() {
            failures.push(format!("{label}: index answer diverges from scan"));
        }
        if !indexed_out.indexed {
            failures.push(format!("{label}: planner fell back to a scan"));
        }
        if !q.select.is_empty() && (!indexed_out.covered || reads != 0) {
            failures.push(format!(
                "{label}: not answered from the index alone ({reads} property reads)"
            ));
        }
        let matches = indexed_out.ms.responses.len();

        let reps = 20;
        let indexed = measure_n(reps, || {
            search::execute(&repo, &q).unwrap();
        });
        let scan = measure(|| {
            search::execute_scan(&repo, &q).unwrap();
        })
        .1;
        let per_indexed = indexed.elapsed_s() / reps as f64;
        let speedup = scan.elapsed_s() / per_indexed.max(1e-9);
        table.row(&[
            label.to_owned(),
            matches.to_string(),
            reads.to_string(),
            secs(per_indexed),
            secs(scan.elapsed_s()),
            format!("{speedup:.0}x"),
        ]);
        rows.push((
            label.to_owned(),
            vec![
                ("matches", matches as f64),
                ("prop_reads", reads as f64),
                ("indexed_s", per_indexed),
                ("scan_s", scan.elapsed_s()),
                ("speedup", speedup),
            ],
        ));
        if speedup < 10.0 {
            failures.push(format!("{label}: speedup {speedup:.1}x < 10x"));
        }
    }
    table.print();

    let path = emit_json_fields("search", &rows, None);
    println!("wrote {}", path.display());
    let _ = std::fs::remove_dir_all(&dir);

    if check {
        if failures.is_empty() {
            println!("--check: index ≡ scan on every query, all speedups >= 10x");
            println!("--check: the covered query reads no property");
        } else {
            for f in &failures {
                eprintln!("--check FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
