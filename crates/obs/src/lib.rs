//! # pse-obs — observability for the PSE data stack
//!
//! The paper's whole contribution is quantitative (Tables 1–3 compare
//! protocol, transfer, and application latency), yet a stock server
//! shows nothing about where the time goes *inside* a run. This crate
//! is the shared instrumentation substrate every layer records into:
//!
//! * [`Registry`] — a named set of [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket latency [`Histogram`]s. Handles are resolved once and
//!   are cheap `Arc` clones; the hot path touches only atomics.
//! * Counters are striped across cache-line-padded cells (the same
//!   contention-avoidance idea as `pse-cache`'s shards) so a worker
//!   pool never serialises on one metric.
//! * A scoped-timer API — [`Registry::timed`] and the RAII
//!   [`TimerGuard`] from [`Histogram::start_timer`] — records elapsed
//!   microseconds into a histogram on drop.
//! * A bounded ring buffer of the last-N structured [`TraceEvent`]s
//!   (request line, status, duration, bytes) for post-hoc inspection.
//! * [`Registry::render_text`] — a plain-text exposition format served
//!   by the HTTP layer at `GET /.well-known/metrics`.
//! * [`Snapshot`] / [`Snapshot::delta`] / [`Snapshot::to_json`] — the
//!   bench harness snapshots a registry around each repro run and emits
//!   per-layer deltas into its JSON output.
//! * [`Registry::disabled`] — a no-op arm used to measure the overhead
//!   of instrumentation itself (the CI gate keeps it under 5%).
//!
//! External statistics (e.g. a `pse-cache` instance's hit counters)
//! join a registry through [`Registry::register_source`]: a callback
//! that contributes values at snapshot/exposition time instead of
//! double-counting into live metrics.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Number of per-counter stripes. Power of two; sized to cover a
/// realistic worker pool without wasting cache lines.
const STRIPES: usize = 16;

/// Default capacity of the trace ring buffer.
const TRACE_CAPACITY: usize = 256;

/// Default latency bucket upper bounds, in microseconds. Spans the
/// paper's measurement range: sub-millisecond protocol ops out to
/// multi-second whole-application transfers.
pub const LATENCY_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 5_000_000,
];

/// Default size bucket upper bounds, in bytes (for body / multistatus
/// size distributions).
pub const SIZE_BUCKETS_BYTES: &[u64] = &[
    256,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    4 << 20,
    16 << 20,
    64 << 20,
];

// ---- striped counter ----

/// One cache line per stripe so concurrent `fetch_add`s from different
/// workers do not false-share.
#[repr(align(64))]
struct Cell(AtomicU64);

struct CounterCells {
    cells: [Cell; STRIPES],
}

impl CounterCells {
    fn new() -> CounterCells {
        CounterCells {
            cells: std::array::from_fn(|_| Cell(AtomicU64::new(0))),
        }
    }

    fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// Each thread gets a stable stripe index assigned on first use.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
    }
    INDEX.with(|i| *i)
}

/// A monotonically increasing counter. Cloning shares the cells; a
/// handle from [`Registry::disabled`] is a no-op.
#[derive(Clone)]
pub struct Counter(Option<Arc<CounterCells>>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cells) = &self.0 {
            cells.cells[stripe_index()]
                .0
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total across all stripes.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.sum())
    }
}

/// A signed instantaneous value (queue depths, live connections).
/// Gauges move rarely compared to counters, so one atomic suffices.
#[derive(Clone)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(a) = &self.0 {
            a.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(a) = &self.0 {
            a.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |a| a.load(Ordering::Relaxed))
    }
}

// ---- histogram ----

struct HistogramCells {
    /// Upper bounds (inclusive) of each bucket; an implicit overflow
    /// bucket follows the last bound.
    bounds: Vec<u64>,
    /// One count per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations (latencies in
/// microseconds by default, but any unit works).
#[derive(Clone)]
pub struct Histogram(Option<Arc<HistogramCells>>);

impl Histogram {
    /// Record one observation. A value equal to a bound lands in that
    /// bound's bucket (`le` semantics); values above every bound land
    /// in the overflow bucket.
    pub fn observe(&self, value: u64) {
        let Some(cells) = &self.0 else { return };
        let idx = cells
            .bounds
            .partition_point(|&b| b < value)
            .min(cells.bounds.len());
        cells.buckets[idx].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Start a scope timer; elapsed microseconds are observed when the
    /// guard drops.
    pub fn start_timer(&self) -> TimerGuard {
        TimerGuard {
            histogram: self.clone(),
            start: Instant::now(),
        }
    }

    /// Time a closure, recording its duration.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.start_timer();
        f()
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> Option<HistogramSnapshot> {
        let cells = self.0.as_ref()?;
        Some(HistogramSnapshot {
            bounds: cells.bounds.clone(),
            buckets: cells
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: cells.count.load(Ordering::Relaxed),
            sum: cells.sum.load(Ordering::Relaxed),
        })
    }
}

/// RAII guard from [`Histogram::start_timer`]; records elapsed
/// microseconds into the histogram on drop.
pub struct TimerGuard {
    histogram: Histogram,
    start: Instant,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros() as u64;
        self.histogram.observe(us);
    }
}

// ---- trace ring ----

/// One structured trace event — a served request, an RPC, a retry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened, e.g. `PROPFIND /Projects/aqueous`.
    pub what: String,
    /// Status or outcome code (HTTP status for requests, 0 if n/a).
    pub status: u16,
    /// How long it took, in microseconds.
    pub duration_us: u64,
    /// Payload bytes involved (response body for requests).
    pub bytes: u64,
}

// ---- snapshot ----

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the overflow bucket is implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `buckets.len() == bounds.len() + 1`.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 before any observation.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn delta(&self, earlier: Option<&HistogramSnapshot>) -> HistogramSnapshot {
        let Some(e) = earlier else {
            return self.clone();
        };
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(e.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            count: self.count.saturating_sub(e.count),
            sum: self.sum.saturating_sub(e.sum),
        }
    }
}

/// A point-in-time copy of every metric in a registry (including
/// values contributed by registered sources).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Add or overwrite a counter value (used by sources).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Add or overwrite a gauge value (used by sources).
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// A counter's value, defaulting to 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, defaulting to 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The change since `earlier`: counters and histogram counts are
    /// subtracted (saturating — a counter born after `earlier` reports
    /// its full value); gauges keep their current reading, since an
    /// instantaneous value has no meaningful difference.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.delta(earlier.histograms.get(k))))
                .collect(),
        }
    }

    /// Serialise as a JSON object (hand-rolled; the workspace carries
    /// no JSON dependency). Histograms appear as
    /// `{"count":N,"sum":S,"bounds":[..],"buckets":[..]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(k));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(k));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum\":{},\"bounds\":{:?},\"buckets\":{:?}}}",
                json_string(k),
                h.count,
                h.sum,
                h.bounds,
                h.buckets
            );
        }
        out.push_str("}}");
        out
    }
}

/// Escape a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---- registry ----

type Source = Box<dyn Fn(&mut Snapshot) + Send + Sync>;

/// The shared metric registry. Wrap in an `Arc` and hand clones to
/// every layer; handle lookup takes a lock, but recorded handles are
/// lock-free.
pub struct Registry {
    enabled: bool,
    counters: RwLock<BTreeMap<String, Arc<CounterCells>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistogramCells>>>,
    /// Named so re-registering (e.g. a rebuilt repository) replaces
    /// rather than duplicates.
    sources: Mutex<Vec<(String, Source)>>,
    trace: Mutex<VecDeque<TraceEvent>>,
    trace_capacity: usize,
    trace_seq: AtomicU64,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// A live registry.
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry {
            enabled: true,
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            sources: Mutex::new(Vec::new()),
            trace: Mutex::new(VecDeque::new()),
            trace_capacity: TRACE_CAPACITY,
            trace_seq: AtomicU64::new(0),
        })
    }

    /// A registry whose handles are all no-ops — the control arm for
    /// measuring instrumentation overhead.
    pub fn disabled() -> Arc<Registry> {
        Arc::new(Registry {
            enabled: false,
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            sources: Mutex::new(Vec::new()),
            trace: Mutex::new(VecDeque::new()),
            trace_capacity: 0,
            trace_seq: AtomicU64::new(0),
        })
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Get or create the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter(None);
        }
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return Counter(Some(Arc::clone(c)));
        }
        let mut map = self.counters.write().unwrap();
        let cells = map
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(CounterCells::new()));
        Counter(Some(Arc::clone(cells)))
    }

    /// Get or create the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge(None);
        }
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            return Gauge(Some(Arc::clone(g)));
        }
        let mut map = self.gauges.write().unwrap();
        let a = map
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Some(Arc::clone(a)))
    }

    /// Get or create the named histogram with the default latency
    /// buckets ([`LATENCY_BUCKETS_US`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, LATENCY_BUCKETS_US)
    }

    /// Get or create the named histogram with explicit bucket bounds.
    /// Bounds apply only at creation; later callers share the original.
    pub fn histogram_with(&self, name: &str, bounds: &[u64]) -> Histogram {
        if !self.enabled {
            return Histogram(None);
        }
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return Histogram(Some(Arc::clone(h)));
        }
        let mut map = self.histograms.write().unwrap();
        let cells = map.entry(name.to_owned()).or_insert_with(|| {
            Arc::new(HistogramCells {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })
        });
        Histogram(Some(Arc::clone(cells)))
    }

    /// Time `f` against the named histogram — the `obs::timed(...)`
    /// convenience for one-off scopes. Hot paths should hold a
    /// [`Histogram`] handle instead.
    pub fn timed<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.histogram(name).time(f)
    }

    /// Register (or replace) a named snapshot source: a callback that
    /// contributes externally-tracked values (cache stats, pool state)
    /// each time the registry is snapshotted or rendered.
    pub fn register_source(
        &self,
        name: &str,
        source: impl Fn(&mut Snapshot) + Send + Sync + 'static,
    ) {
        if !self.enabled {
            return;
        }
        let mut sources = self.sources.lock().unwrap();
        sources.retain(|(n, _)| n != name);
        sources.push((name.to_owned(), Box::new(source)));
    }

    /// Append a trace event to the bounded ring (oldest dropped first).
    pub fn trace(&self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.trace_seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.trace.lock().unwrap();
        if ring.len() == self.trace_capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// The retained trace events, oldest first.
    pub fn recent_traces(&self) -> Vec<TraceEvent> {
        self.trace.lock().unwrap().iter().cloned().collect()
    }

    /// Total trace events ever recorded (including ones the ring has
    /// since dropped).
    pub fn traces_recorded(&self) -> u64 {
        self.trace_seq.load(Ordering::Relaxed)
    }

    /// Copy every metric (and run every source) into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (name, cells) in self.counters.read().unwrap().iter() {
            snap.counters.insert(name.clone(), cells.sum());
        }
        for (name, a) in self.gauges.read().unwrap().iter() {
            snap.gauges.insert(name.clone(), a.load(Ordering::Relaxed));
        }
        for (name, cells) in self.histograms.read().unwrap().iter() {
            let h = Histogram(Some(Arc::clone(cells)));
            if let Some(s) = h.snapshot() {
                snap.histograms.insert(name.clone(), s);
            }
        }
        for (_, source) in self.sources.lock().unwrap().iter() {
            source(&mut snap);
        }
        snap
    }

    /// Render the plain-text exposition format:
    ///
    /// ```text
    /// counter http.requests.get 42
    /// gauge http.active_connections 3
    /// histogram dav.propfind.latency_us count 5 sum 1234 le50 1 le100 3 overflow 0
    /// ```
    ///
    /// One line per metric; histogram bucket counts are non-cumulative.
    pub fn render_text(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("# pse-obs v1\n");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "gauge {name} {v}");
        }
        for (name, h) in &snap.histograms {
            let _ = write!(out, "histogram {name} count {} sum {}", h.count, h.sum);
            for (i, b) in h.bounds.iter().enumerate() {
                let _ = write!(out, " le{b} {}", h.buckets.get(i).copied().unwrap_or(0));
            }
            let _ = writeln!(out, " overflow {}", h.buckets.last().copied().unwrap_or(0));
        }
        out
    }
}

/// Parse one metric's value back out of [`Registry::render_text`]
/// output — test/tooling helper, not a full parser. For histograms,
/// returns the `count` field.
pub fn parse_text_metric(exposition: &str, name: &str) -> Option<i64> {
    for line in exposition.lines() {
        let mut parts = line.split_whitespace();
        let kind = parts.next()?;
        if parts.next() != Some(name) {
            continue;
        }
        match kind {
            "counter" | "gauge" => return parts.next()?.parse().ok(),
            "histogram" => {
                // "count <n>" follows the name.
                if parts.next() == Some("count") {
                    return parts.next()?.parse().ok();
                }
                return None;
            }
            _ => continue,
        }
    }
    None
}

/// Wrappers that count bytes moving through `Read`/`Write` streams
/// into [`Counter`]s — how the HTTP server accounts bytes in/out.
pub mod io {
    use super::Counter;
    use std::io::{Read, Result, Write};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A `Read` adapter adding every byte read to a counter, plus a
    /// local total for per-connection accounting.
    pub struct CountingReader<R> {
        inner: R,
        counter: Counter,
        local: Arc<AtomicU64>,
    }

    impl<R: Read> CountingReader<R> {
        pub fn new(inner: R, counter: Counter) -> CountingReader<R> {
            CountingReader {
                inner,
                counter,
                local: Arc::new(AtomicU64::new(0)),
            }
        }

        /// Shared handle to this stream's running byte total.
        pub fn total(&self) -> Arc<AtomicU64> {
            Arc::clone(&self.local)
        }
    }

    impl<R: Read> Read for CountingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
            let n = self.inner.read(buf)?;
            self.counter.add(n as u64);
            self.local.fetch_add(n as u64, Ordering::Relaxed);
            Ok(n)
        }
    }

    /// A `Write` adapter adding every byte written to a counter.
    pub struct CountingWriter<W> {
        inner: W,
        counter: Counter,
        local: Arc<AtomicU64>,
    }

    impl<W: Write> CountingWriter<W> {
        pub fn new(inner: W, counter: Counter) -> CountingWriter<W> {
            CountingWriter {
                inner,
                counter,
                local: Arc::new(AtomicU64::new(0)),
            }
        }

        /// Shared handle to this stream's running byte total.
        pub fn total(&self) -> Arc<AtomicU64> {
            Arc::clone(&self.local)
        }
    }

    impl<W: Write> Write for CountingWriter<W> {
        fn write(&mut self, buf: &[u8]) -> Result<usize> {
            let n = self.inner.write(buf)?;
            self.counter.add(n as u64);
            self.local.fetch_add(n as u64, Ordering::Relaxed);
            Ok(n)
        }

        fn flush(&mut self) -> Result<()> {
            self.inner.flush()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("hammer.count");
        let h = reg.histogram_with("hammer.values", &[10, 100]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.observe(i % 200);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hammer.count"), 80_000);
        let hs = &snap.histograms["hammer.values"];
        assert_eq!(hs.count, 80_000);
        assert_eq!(hs.buckets.iter().sum::<u64>(), 80_000);
        // i%200: 0..=10 → le10 (11 of 200), 11..=100 → le100 (90), rest overflow (99).
        assert_eq!(hs.buckets[0], 8 * 50 * 11);
        assert_eq!(hs.buckets[1], 8 * 50 * 90);
        assert_eq!(hs.buckets[2], 8 * 50 * 99);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let reg = Registry::new();
        let h = reg.histogram_with("edges", &[100, 200]);
        h.observe(0); // below everything → first bucket
        h.observe(100); // exact edge → le100 (inclusive)
        h.observe(101); // just over → le200
        h.observe(200); // exact last edge
        h.observe(201); // overflow
        h.observe(u64::MAX - 10); // deep overflow
        let s = reg.snapshot().histograms["edges"].clone();
        assert_eq!(s.buckets, vec![2, 2, 2]);
        assert_eq!(s.count, 6);
    }

    #[test]
    fn same_name_shares_cells() {
        let reg = Registry::new();
        reg.counter("x").inc();
        reg.counter("x").add(2);
        assert_eq!(reg.counter("x").get(), 3);
        // Histogram bounds fixed by the first creation.
        reg.histogram_with("h", &[5]).observe(3);
        reg.histogram_with("h", &[999]).observe(4);
        assert_eq!(reg.snapshot().histograms["h"].bounds, vec![5]);
        assert_eq!(reg.snapshot().histograms["h"].count, 2);
    }

    #[test]
    fn gauges_move_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(reg.snapshot().gauge("depth"), -7);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        let c = reg.counter("x");
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = reg.histogram("h");
        h.observe(5);
        drop(h.start_timer());
        assert_eq!(h.count(), 0);
        reg.gauge("g").set(3);
        reg.trace(TraceEvent::default());
        assert!(reg.recent_traces().is_empty());
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty());
        assert!(!reg.is_enabled());
    }

    #[test]
    fn timer_guard_records_on_drop() {
        let reg = Registry::new();
        let h = reg.histogram("timed");
        {
            let _g = h.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        let snap = reg.snapshot();
        assert!(
            snap.histograms["timed"].sum >= 1_000,
            "at least ~1ms recorded"
        );
        // The closure form too.
        let out = reg.timed("timed", || 42);
        assert_eq!(out, 42);
        assert_eq!(reg.snapshot().histograms["timed"].count, 2);
    }

    #[test]
    fn trace_ring_is_bounded_and_ordered() {
        let reg = Registry::new();
        for i in 0..(TRACE_CAPACITY as u64 + 10) {
            reg.trace(TraceEvent {
                what: format!("GET /{i}"),
                status: 200,
                duration_us: i,
                bytes: 0,
            });
        }
        let traces = reg.recent_traces();
        assert_eq!(traces.len(), TRACE_CAPACITY);
        assert_eq!(traces[0].what, "GET /10"); // oldest 10 dropped
        assert_eq!(
            traces.last().unwrap().duration_us,
            TRACE_CAPACITY as u64 + 9
        );
        assert_eq!(reg.traces_recorded(), TRACE_CAPACITY as u64 + 10);
    }

    #[test]
    fn sources_contribute_and_replace() {
        let reg = Registry::new();
        reg.register_source("cache", |snap| {
            snap.set_counter("cache.hits", 5);
            snap.set_gauge("cache.entries", 2);
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cache.hits"), 5);
        assert_eq!(snap.gauge("cache.entries"), 2);
        // Re-registering under the same name replaces the callback.
        reg.register_source("cache", |snap| snap.set_counter("cache.hits", 9));
        assert_eq!(reg.snapshot().counter("cache.hits"), 9);
        assert_eq!(reg.snapshot().gauge("cache.entries"), 0);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let reg = Registry::new();
        let c = reg.counter("ops");
        let h = reg.histogram_with("lat", &[10]);
        c.add(5);
        h.observe(3);
        let before = reg.snapshot();
        c.add(7);
        h.observe(30);
        reg.gauge("depth").set(4);
        let delta = reg.snapshot().delta(&before);
        assert_eq!(delta.counter("ops"), 7);
        assert_eq!(delta.gauge("depth"), 4); // gauges pass through
        let hd = &delta.histograms["lat"];
        assert_eq!(hd.count, 1);
        assert_eq!(hd.buckets, vec![0, 1]);
        // A counter that did not exist at `before` reports its full value.
        reg.counter("new").add(2);
        assert_eq!(reg.snapshot().delta(&before).counter("new"), 2);
    }

    #[test]
    fn exposition_text_roundtrips() {
        let reg = Registry::new();
        reg.counter("http.requests.get").add(3);
        reg.gauge("http.queue_depth").set(-1);
        reg.histogram_with("lat_us", &[100, 200]).observe(150);
        let text = reg.render_text();
        assert!(text.starts_with("# pse-obs v1\n"), "{text}");
        assert_eq!(parse_text_metric(&text, "http.requests.get"), Some(3));
        assert_eq!(parse_text_metric(&text, "http.queue_depth"), Some(-1));
        assert_eq!(parse_text_metric(&text, "lat_us"), Some(1));
        assert!(
            text.contains("histogram lat_us count 1 sum 150 le100 0 le200 1 overflow 0"),
            "{text}"
        );
        assert_eq!(parse_text_metric(&text, "absent"), None);
    }

    #[test]
    fn json_output_is_wellformed_enough() {
        let reg = Registry::new();
        reg.counter("a\"b").inc();
        reg.gauge("g").set(2);
        reg.histogram_with("h", &[1]).observe(1);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\\\"b\":1"), "{json}");
        assert!(json.contains("\"gauges\":{\"g\":2}"), "{json}");
        assert!(
            json.contains("\"h\":{\"count\":1,\"sum\":1,\"bounds\":[1],\"buckets\":[1, 0]}"),
            "{json}"
        );
    }

    #[test]
    fn counting_io_wrappers() {
        use std::io::{Read, Write};
        let reg = Registry::new();
        let mut r = io::CountingReader::new(&b"hello world"[..], reg.counter("in"));
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).unwrap();
        assert_eq!(reg.counter("in").get(), 11);
        assert_eq!(r.total().load(std::sync::atomic::Ordering::Relaxed), 11);
        let mut sink = Vec::new();
        let mut w = io::CountingWriter::new(&mut sink, reg.counter("out"));
        w.write_all(b"abc").unwrap();
        w.flush().unwrap();
        assert_eq!(reg.counter("out").get(), 3);
    }
}
