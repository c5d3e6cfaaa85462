//! What every workload shares: arguments, the closed-loop clients,
//! registry deltas, and the metric set a run prints.

use crate::stats::{grouped_percentile, median};
use crate::sys;
use pse_obs::Snapshot;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

/// Closed-loop clients per workload: one connection, one thread and no
/// think time each.
pub const CLIENTS: usize = 2;

/// Times the dataset is built from an empty directory per run; the
/// reported `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where repository data lives for the run (removed afterwards).
    pub data_dir: PathBuf,
    /// Where span files are written in a traced run.
    pub out_dir: PathBuf,
}

impl Args {
    /// A fresh, empty directory for one set-up of the dataset.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let d = self.data_dir.join(tag);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create data dir");
        d
    }

    /// Ops per client and timed pass for a workload whose nominal rate
    /// (all clients together, on a 2-CPU host) is `rate` ops/s: fixed
    /// work sized so a run lasts about `--seconds`. A traced run makes
    /// two passes (recorders off, then on) of half that each.
    pub fn ops_per_client(&self, rate: u64) -> usize {
        let passes = if self.trace { 2 } else { 1 };
        (rate * self.seconds / (CLIENTS * passes) as u64) as usize
    }
}

/// One completed workload op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub write: bool,
    pub ok: bool,
    pub ms: f64,
}

/// Time `f` as one op; failure is recorded, never hidden.
pub fn timed<T, E: std::fmt::Display>(
    write: bool,
    errors: &mut Vec<String>,
    f: impl FnOnce() -> Result<T, E>,
) -> (Sample, Option<T>) {
    let t0 = Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match out {
        Ok(v) => (
            Sample {
                write,
                ok: true,
                ms,
            },
            Some(v),
        ),
        Err(e) => {
            if errors.len() < 20 {
                errors.push(e.to_string());
            }
            (
                Sample {
                    write,
                    ok: false,
                    ms,
                },
                None,
            )
        }
    }
}

/// Rounds the timed phase is cut into. Rates and latency percentiles
/// are medians over rounds (tail percentiles over groups of rounds large
/// enough to support them), so a few seconds of a slower shared host
/// move a run's figures less.
pub const ROUNDS: usize = 10;

/// One round of a phase.
#[derive(Debug, Default)]
pub struct Round {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

impl Round {
    fn ok(&self) -> f64 {
        self.samples.iter().filter(|s| s.ok).count() as f64
    }
}

/// The timed phase of a run, all clients together.
#[derive(Debug, Default)]
pub struct Phase {
    pub rounds: Vec<Round>,
    pub cpu_ms: f64,
}

impl Phase {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.rounds.iter().flat_map(|r| r.samples.iter())
    }
    pub fn attempted(&self) -> u64 {
        self.samples().count() as u64
    }
    pub fn failed(&self) -> u64 {
        self.samples().filter(|s| !s.ok).count() as u64
    }
    pub fn ok_ops(&self) -> f64 {
        (self.attempted() - self.failed()) as f64
    }
    pub fn writes(&self) -> f64 {
        self.samples().filter(|s| s.write).count() as f64
    }
    pub fn wall_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_s).sum()
    }
    /// Ops per second over the whole phase.
    pub fn ops_per_s(&self) -> f64 {
        self.ok_ops() / self.wall_s()
    }
    /// Latencies of one kind; failures count as infinitely slow.
    fn latencies<'a>(samples: impl Iterator<Item = &'a Sample>, write: bool) -> Vec<f64> {
        samples
            .filter(|s| s.write == write)
            .map(|s| if s.ok { s.ms } else { f64::INFINITY })
            .collect()
    }
}

/// Run each client's ops `0..n` on its own thread, in [`ROUNDS`]
/// rounds (`rounds` of them; 1 for a warm-up). In every round the
/// clients are released together, and the round's wall time runs from
/// the release to the last finisher.
pub fn run_clients<C: Send>(
    clients: &mut [C],
    n: usize,
    rounds: usize,
    body: impl Fn(usize, &mut C, Range<usize>) -> Vec<Sample> + Sync,
) -> Phase {
    let cpu0 = sys::cpu_ms();
    let mut phase = Phase::default();
    for r in 0..rounds {
        let range = r * n / rounds..(r + 1) * n / rounds;
        let gate = Barrier::new(clients.len() + 1);
        let round = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, c)| {
                    let (gate, body, range) = (&gate, &body, range.clone());
                    s.spawn(move || {
                        gate.wait();
                        body(i, c, range)
                    })
                })
                .collect();
            gate.wait();
            let t0 = Instant::now();
            let samples: Vec<Sample> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect();
            Round {
                samples,
                wall_s: t0.elapsed().as_secs_f64(),
            }
        });
        phase.rounds.push(round);
    }
    phase.cpu_ms = sys::cpu_ms() - cpu0;
    phase
}

/// Metric deltas of one or more registries over a phase.
#[derive(Debug, Default, Clone)]
pub struct Delta(pub Snapshot);

impl Delta {
    /// `after − before` for one registry.
    pub fn between(before: &Snapshot, after: &Snapshot) -> Delta {
        Delta(after.delta(before))
    }

    /// Add another delta's counters and histogram totals (gauges: sum).
    pub fn merged(mut self, other: &Delta) -> Delta {
        for (k, v) in &other.0.counters {
            *self.0.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.0.gauges {
            *self.0.gauges.entry(k.clone()).or_default() += v;
        }
        for (k, h) in &other.0.histograms {
            let e = self.0.histograms.entry(k.clone()).or_default();
            e.count += h.count;
            e.sum += h.sum;
        }
        self
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.0.counter(name) as f64
    }
    pub fn gauge(&self, name: &str) -> f64 {
        self.0.gauge(name) as f64
    }
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.0.histograms.get(name).map_or(0.0, |h| h.sum as f64)
    }
    pub fn hist_mean(&self, name: &str) -> f64 {
        self.0.histograms.get(name).map_or(0.0, |h| h.mean())
    }
    /// DAV requests the HTTP layer served (the metrics scrape excluded).
    pub fn requests(&self) -> f64 {
        self.0
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("http.requests.") && *k != "http.requests.metrics")
            .map(|(_, v)| *v as f64)
            .sum()
    }
}

/// `a / b`, 0 when `b` is 0 (a layer the workload bypasses).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }
}

/// The tail percentile reported. p99 of sub-millisecond requests on a
/// shared 2-CPU host is set by scheduler delays, whose rate follows the
/// neighbours' load: over ten seeds `replicated`'s p99 spread was 0.4–0.5
/// of its median while its p50 spread was 0.1–0.16.
pub const TAIL: f64 = 0.90;

/// The eight end-to-end metrics of an untraced run.
pub fn end_to_end(
    setup_s: &[f64],
    phase: &Phase,
    disk_per_user_byte: f64,
) -> Result<Metrics, String> {
    let pct = |write: bool, q: f64| {
        let rounds: Vec<Vec<f64>> = phase
            .rounds
            .iter()
            .map(|r| Phase::latencies(r.samples.iter(), write))
            .collect();
        grouped_percentile(&rounds, q)
    };
    let rates: Vec<f64> = phase.rounds.iter().map(|r| r.ok() / r.wall_s).collect();
    let mut m = Metrics::default();
    m.put("setup_s", median(setup_s), "s");
    m.put("ops_per_s", median(&rates), "1/s");
    m.put("read_p50_ms", pct(false, 0.50)?, "ms");
    m.put("read_p90_ms", pct(false, TAIL)?, "ms");
    m.put("write_p50_ms", pct(true, 0.50)?, "ms");
    m.put("write_p90_ms", pct(true, TAIL)?, "ms");
    m.put("peak_rss_mib", sys::peak_rss_mib(), "MiB");
    m.put("disk_bytes_per_user_byte", disk_per_user_byte, "ratio");
    Ok(m)
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Output-check failures; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Lines printed before the result (context for a human reader).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// The result object, on one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-layer metrics every workload reports from the same places: the
/// HTTP server and DAV handler registries, the path-lock table, the
/// property cache, the DBM engines and the process.
pub fn common_layers(m: &mut Metrics, front: &Delta, nodes: &Delta, dbm: &Delta, phase: &Phase) {
    let ops = phase.ok_ops();
    let requests = front.requests();
    m.put("client.requests_per_op", ratio(requests, ops), "count");
    m.put(
        "dav.multistatus_kib_per_op",
        ratio(nodes.hist_sum("dav.multistatus_bytes") / 1024.0, ops),
        "KiB",
    );
    m.put(
        "http.request_us_mean",
        front.hist_mean("http.request_latency_us"),
        "us",
    );
    m.put(
        "http.queue_wait_us_mean",
        front.hist_mean("http.queue_latency_us"),
        "us",
    );
    m.put(
        "http.wakeups_per_request",
        ratio(front.counter("http.reactor_wakeups"), requests),
        "count",
    );
    m.put(
        "http.bytes_per_op",
        ratio(
            front.counter("http.bytes_in") + front.counter("http.bytes_out"),
            ops,
        ),
        "B",
    );
    for method in ["get", "put", "propfind", "proppatch", "search"] {
        let name = format!("dav.handle_us_mean.{method}");
        m.put(
            &name,
            nodes.hist_mean(&format!("dav.latency_us.{method}")),
            "us",
        );
    }
    let acq = nodes.counter("dav.pathlock.acquisitions");
    m.put(
        "pathlock.wait_us_per_acquisition",
        ratio(nodes.counter("dav.pathlock.wait_us"), acq),
        "us",
    );
    m.put(
        "pathlock.contended_share",
        ratio(nodes.counter("dav.pathlock.contended"), acq),
        "ratio",
    );
    let (hits, misses) = (
        nodes.counter("dav.prop_cache.hits"),
        nodes.counter("dav.prop_cache.misses"),
    );
    m.put("cache.prop_hit_share", ratio(hits, hits + misses), "ratio");
    m.put(
        "cache.prop_evictions_per_op",
        ratio(nodes.counter("dav.prop_cache.evictions"), ops),
        "count",
    );
    m.put(
        "dbm.page_reads_per_op",
        ratio(dbm.counter("dbm.page_reads"), ops),
        "count",
    );
    m.put(
        "dbm.page_writes_per_op",
        ratio(dbm.counter("dbm.page_writes"), ops),
        "count",
    );
    m.put("process.cpu_ms_per_op", ratio(phase.cpu_ms, ops), "ms");
    m.put(
        "process.cpu_busy_share",
        ratio(phase.cpu_ms / 1e3, phase.wall_s() * sys::nproc() as f64),
        "ratio",
    );
}

/// Repository-decorator metrics (zeros when the workload's server was
/// not decorated).
pub fn repo_layers(
    m: &mut Metrics,
    stats: Option<&crate::decor::RepoStats>,
    requests: f64,
    search_hits: f64,
) {
    use std::sync::atomic::Ordering::Relaxed;
    let get = |a: &std::sync::atomic::AtomicU64| a.load(Relaxed) as f64;
    let mib = 1024.0 * 1024.0;
    let (calls, get_ms_mib, put_ms_mib, props, walk, cands, probe) = match stats {
        None => (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        Some(s) => (
            ratio(get(&s.calls), requests),
            ratio(get(&s.get_ns) / 1e6, get(&s.get_bytes) / mib),
            ratio(get(&s.put_ns) / 1e6, get(&s.put_bytes) / mib),
            ratio(get(&s.props_ns) / 1e3, get(&s.props_calls)),
            ratio(get(&s.walk_ns) / 1e3, get(&s.walk_calls)),
            ratio(get(&s.probe_candidates), search_hits),
            ratio(get(&s.probe_ns) / 1e3, get(&s.probe_calls)),
        ),
    };
    m.put("repo.calls_per_request", calls, "count");
    m.put("repo.get_ms_per_mib", get_ms_mib, "ms");
    m.put("repo.put_ms_per_mib", put_ms_mib, "ms");
    m.put("repo.props_us_mean", props, "us");
    m.put("repo.walk_us_mean", walk, "us");
    m.put("search.candidates_per_hit", cands, "count");
    m.put("search.probe_us_mean", probe, "us");
}

/// Time `Multistatus::parse_sax` over captured 207 bodies, in ms per
/// MiB parsed (0 when the workload moved no XML).
pub fn xml_parse_ms_per_mib(bodies: &[String]) -> f64 {
    let bytes: usize = bodies.iter().map(String::len).sum();
    if bytes == 0 {
        return 0.0;
    }
    // Parse enough rounds to time at least 4 MiB of XML.
    let rounds = (4 * 1024 * 1024 / bytes).max(1);
    let t0 = Instant::now();
    for _ in 0..rounds {
        for b in bodies {
            let ms = pse_dav::Multistatus::parse_sax(b).expect("captured multistatus parses");
            std::hint::black_box(ms);
        }
    }
    t0.elapsed().as_secs_f64() * 1e3 / (rounds * bytes) as f64 * (1024.0 * 1024.0)
}

/// The server configuration every workload uses: the defaults, except
/// that a connection is never closed for its request count, so each
/// client keeps its one connection for the whole run.
pub fn server_config() -> pse_http::ServerConfig {
    pse_http::ServerConfig {
        max_requests_per_connection: 1 << 40,
        ..pse_http::ServerConfig::default()
    }
}

/// Remove a directory tree, ignoring absence.
pub fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Version-store metrics from one node's registry delta.
pub fn version_layers(m: &mut Metrics, node: &Delta, writes: f64) {
    let stored = ratio(
        node.gauge("dav.versions.chunk_bytes"),
        node.gauge("dav.versions.logical_bytes"),
    );
    m.put("version.stored_bytes_per_logical_byte", stored, "ratio");
    m.put(
        "version.versions_per_write",
        ratio(node.counter("dav.versions.versions_recorded"), writes),
        "count",
    );
}

/// Replication figures of the `replicated` workload.
#[derive(Debug, Default, Clone)]
pub struct ClusterFigures {
    pub log_bytes_per_user_byte: f64,
    pub log_retained_records: f64,
    pub replica_read_share: f64,
    pub batches_per_record: f64,
    pub catchup_ms: f64,
    pub errors: f64,
    /// Documents whose replica ETag differs from the primary's.
    pub etag_mismatch_share: f64,
}

/// Cluster metrics (zeros for workloads without a cluster).
pub fn cluster_layers(m: &mut Metrics, c: Option<&ClusterFigures>) {
    let c = c.cloned().unwrap_or_default();
    m.put(
        "cluster.log_bytes_per_user_byte",
        c.log_bytes_per_user_byte,
        "ratio",
    );
    m.put(
        "cluster.log_retained_records",
        c.log_retained_records,
        "count",
    );
    m.put("cluster.replica_read_share", c.replica_read_share, "ratio");
    m.put("cluster.batches_per_record", c.batches_per_record, "count");
    m.put("cluster.catchup_ms", c.catchup_ms, "ms");
    m.put("cluster.errors", c.errors, "count");
    m.put(
        "cluster.etag_mismatch_share",
        c.etag_mismatch_share,
        "ratio",
    );
}

/// A human-readable line on set-up and timed phases.
pub fn phase_note(setups: &[f64], phases: &[Phase]) -> String {
    let mut s = format!("setup_s {setups:.3?};");
    for (i, p) in phases.iter().enumerate() {
        s += &format!(
            " phase{i}: {} ops ({} writes) in {:.3} s = {:.1} ops/s, cpu {:.0} ms;",
            p.attempted(),
            p.writes(),
            p.wall_s(),
            p.ops_per_s(),
            p.cpu_ms
        );
        let rates: Vec<String> = p
            .rounds
            .iter()
            .map(|r| format!("{:.0}", r.ok() / r.wall_s))
            .collect();
        s += &format!(" round ops/s [{}];", rates.join(" "));
    }
    s
}
