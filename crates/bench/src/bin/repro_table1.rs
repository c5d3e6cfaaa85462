//! Reproduce **Table 1**: elapsed and CPU time of typical PSE metadata
//! operations against the DAV server.
//!
//! Paper workload: "we created 50 documents, each with 50 metadata of
//! 1 KB in size and performed operations to query for selected data,
//! traverse the data, copy it, and remove it", on a hierarchy totalling
//! 4.5 MB. Columns (paper footnotes):
//!
//! * (a) all metadata on one document, Depth 0
//! * (b) 5 selected metadata on one document, Depth 0
//! * (c) 5 of 50 metadata for 50 objects with one Depth-1 PROPFIND
//! * (d) the same 50 queries issued one document at a time
//! * (e) COPY of the 4.5 MB hierarchy
//! * (f) DELETE of the copy

use pse_bench::harness::{emit_json, measure, measure_n, secs, Table};
use pse_bench::workloads::{build_table1_dataset, dav_rig, dav_rig_obs, meta, teardown, DavRig};
use pse_dav::client::ParseMode;
use pse_dav::property::PropertyName;
use pse_dav::Depth;
use pse_dbm::DbmKind;
use pse_obs::Registry;

const DOCS: usize = 50;
const PROPS: usize = 50;
const VALUE_SIZE: usize = 1024;
/// 50 KB of metadata per doc + 40 KB body ≈ the paper's 4.5 MB total.
const BODY_SIZE: usize = 40 * 1024;

/// `--obs-check`: measure instrumentation overhead by running a reduced
/// Table 1 query mix against an instrumented server and a
/// registry-disabled one. Prints `OBS_OVERHEAD_PCT <n>` and exits
/// non-zero when the overhead exceeds 5% (with an absolute floor below
/// which the clock cannot distinguish the runs).
///
/// Both servers are built once. Each of `PAIRS` pairs times both sides
/// over `SLICES` short alternating slices (the side that goes first
/// swaps every slice), so a burst of load on a shared host lands on
/// both sides instead of on one whole run. The verdict is the median of
/// the per-pair overheads.
fn obs_check() -> ! {
    const PAIRS: usize = 9;
    const SLICES: usize = 30;
    /// Rounds per slice: a few tens of milliseconds on a 2-CPU host.
    const ROUNDS: usize = 10;
    let selected: Vec<PropertyName> = (0..5).map(meta).collect();
    let [mut instrumented, mut baseline] = [None, Some(Registry::disabled())].map(|registry| {
        let mut rig = dav_rig_obs("table1-obscheck", DbmKind::Gdbm, registry);
        build_table1_dataset(&mut rig.client, 20, 20, 256, 4096);
        rig
    });
    let run = |rig: &mut DavRig| -> f64 {
        let client = &mut rig.client;
        let (_, m) = measure(|| {
            for _ in 0..ROUNDS {
                client.propfind_all("/t1/doc-00", Depth::Zero).unwrap();
                client.propfind("/t1", Depth::One, &selected).unwrap();
            }
        });
        m.elapsed_s()
    };
    // Warm both sides (connections, property cache, page cache).
    run(&mut instrumented);
    run(&mut baseline);
    let mut pcts = Vec::with_capacity(PAIRS);
    let mut diffs = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        let (mut ins, mut base) = (0.0, 0.0);
        for slice in 0..SLICES {
            if slice % 2 == 0 {
                ins += run(&mut instrumented);
                base += run(&mut baseline);
            } else {
                base += run(&mut baseline);
                ins += run(&mut instrumented);
            }
        }
        println!("pair {i}: instrumented {ins:.4}s baseline {base:.4}s");
        pcts.push(if base > 0.0 { (ins - base) / base * 100.0 } else { 0.0 });
        diffs.push(ins - base);
    }
    teardown(instrumented);
    teardown(baseline);
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let pct = median(&mut pcts);
    let diff = median(&mut diffs);
    println!("OBS_OVERHEAD_PCT {pct:.2}");
    println!("median of {PAIRS} pairs: {:.1} ms over the baseline", diff * 1e3);
    // Fail only on a real regression: both over the 5% bar and more
    // than 30 ms absolute (the measurement floor on a busy machine).
    let failed = pct > 5.0 && diff > 0.030;
    std::process::exit(if failed { 1 } else { 0 });
}

fn main() {
    let arg1 = std::env::args().nth(1);
    if arg1.as_deref() == Some("--obs-check") {
        obs_check();
    }
    let parse_mode = match arg1.as_deref() {
        Some("--dom") => ParseMode::Dom,
        _ => ParseMode::Sax,
    };
    println!("Table 1 reproduction — server: fs repository + GDBM, loopback TCP");
    println!("client parse mode: {parse_mode:?}  (pass --dom for the paper's DOM client)");

    let mut rig = dav_rig("table1", DbmKind::Gdbm);
    rig.client.set_parse_mode(parse_mode);
    println!("building dataset: {DOCS} documents x {PROPS} x {VALUE_SIZE} B metadata ...");
    build_table1_dataset(&mut rig.client, DOCS, PROPS, VALUE_SIZE, BODY_SIZE);

    let selected: Vec<PropertyName> = (0..5).map(meta).collect();
    // Snapshot the shared registry so the emitted JSON carries the
    // per-layer deltas attributable to the measured operations alone
    // (dataset construction excluded).
    let registry = rig.registry();
    let obs_before = registry.snapshot();
    let client = &mut rig.client;

    // Iteration counts give the 10 ms CPU clock something to bite on.
    let reps_small = 50;
    let reps_big = 10;

    // (a) all metadata, one document, depth 0.
    let a = measure_n(reps_small, || {
        client.propfind_all("/t1/doc-00", Depth::Zero).unwrap();
    });

    // (b) 5 selected metadata, one document, depth 0.
    let b = measure_n(reps_small, || {
        client.propfind("/t1/doc-00", Depth::Zero, &selected).unwrap();
    });

    // (c) 5 of 50 metadata on 50 objects, depth 1.
    let mut count_c = 0;
    let c = measure_n(reps_big, || {
        let ms = client.propfind("/t1", Depth::One, &selected).unwrap();
        count_c = ms.responses.len();
    });

    // (d) the same, one document at a time.
    let d = measure_n(reps_big, || {
        for i in 0..DOCS {
            client
                .propfind(&format!("/t1/doc-{i:02}"), Depth::Zero, &selected)
                .unwrap();
        }
    });

    // (e) copy the hierarchy (each rep gets a fresh destination).
    let mut copy_n = 0;
    let e = measure_n(reps_big, || {
        client.copy("/t1", &format!("/t1-copy-{copy_n}"), false).unwrap();
        copy_n += 1;
    });

    // (f) remove the copies.
    let mut del_n = 0;
    let f = measure_n(reps_big, || {
        client.delete(&format!("/t1-copy-{del_n}")).unwrap();
        del_n += 1;
    });

    let mut table = Table::new(
        "Table 1: performance of typical PSE operations (elapsed / CPU)",
        &["operation", "elapsed", "cpu"],
    );
    let mut row = |name: &str, m: pse_bench::harness::Measurement| {
        table.row(&[name.to_owned(), secs(m.elapsed_s()), secs(m.cpu_s())]);
    };
    row("(a) get all metadata, 1 doc, depth=0", a);
    row("(b) get 5 selected metadata, 1 doc, depth=0", b);
    row("(c) get 5 metadata for 50 objects, depth=1", c);
    row("(d) get 5 metadata for 50 objects, one at a time", d);
    row("(e) copy hierarchy (50 docs, ~4.5 MB)", e);
    row("(f) remove hierarchy", f);
    table.print();
    println!(
        "\n(c) touched {count_c} resources in one round trip; \
         paper shape: (a),(b) fast; (c),(d) dominated by client-side parsing; \
         (d) > (c); (e),(f) server-side."
    );
    let obs_delta = registry.snapshot().delta(&obs_before);
    let json_path = emit_json(
        "table1",
        &[
            ("a_all_metadata_1doc", a),
            ("b_5_metadata_1doc", b),
            ("c_5_metadata_50docs_depth1", c),
            ("d_5_metadata_50docs_serial", d),
            ("e_copy_hierarchy", e),
            ("f_remove_hierarchy", f),
        ],
        Some(&obs_delta),
    );
    println!("results + per-layer registry deltas: {}", json_path.display());
    teardown(rig);
}
