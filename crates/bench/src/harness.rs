//! Timing and table-rendering helpers shared by the repro binaries.
//!
//! Table 1 "includes both elapsed and CPU time to help determine whether
//! performance costs were occurring on the client or the server side" —
//! so the harness samples process CPU time (utime+stime from
//! `/proc/self/stat`) around each measurement, exactly the split the
//! paper uses: CPU ≈ client-side processing, elapsed − CPU ≈ server +
//! transport.

use std::time::{Duration, Instant};

/// One timed observation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measurement {
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Process (client-side) CPU time consumed during the interval.
    pub cpu: Duration,
}

impl Measurement {
    /// Seconds of wall clock.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Seconds of CPU.
    pub fn cpu_s(&self) -> f64 {
        self.cpu.as_secs_f64()
    }
}

/// Current process CPU time (user + system). Returns zero on platforms
/// without `/proc`.
pub fn cpu_time() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields 14 (utime) and 15 (stime), counting from 1, after the comm
    // field which may contain spaces — skip past the closing paren.
    let Some(rest) = stat.rsplit(')').next() else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3 ("state"), so utime is index 11, stime 12.
    let ticks: u64 = fields
        .get(11)
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
        + fields
            .get(12)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
    // Linux exposes USER_HZ=100 on every mainstream configuration.
    Duration::from_millis(ticks * 10)
}

/// Time a closure, capturing elapsed and CPU time.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Measurement) {
    let cpu0 = cpu_time();
    let t0 = Instant::now();
    let out = f();
    let elapsed = t0.elapsed();
    let cpu = cpu_time().saturating_sub(cpu0);
    (out, Measurement { elapsed, cpu })
}

/// Run a closure `n` times and report the mean.
pub fn measure_n(n: usize, mut f: impl FnMut()) -> Measurement {
    let cpu0 = cpu_time();
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    let elapsed = t0.elapsed() / n as u32;
    let cpu = cpu_time().saturating_sub(cpu0) / n as u32;
    Measurement { elapsed, cpu }
}

/// A fixed-width text table in the style of the paper's layout.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(c.len());
                } else {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        println!("\n== {} ==", self.title);
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!(
                    "{:<w$}  ",
                    c,
                    w = widths.get(i).copied().unwrap_or(8)
                ));
            }
            println!("{}", out.trim_end());
        };
        line(&self.header);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + widths.len() * 2)
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format seconds like the paper (three decimals, `s` suffix), dropping
/// to milli/microseconds when today's hardware makes the number tiny.
pub fn secs(s: f64) -> String {
    if s >= 0.1 {
        format!("{s:.3} s")
    } else if s >= 1e-4 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// Format a byte count in MB.
pub fn mb(bytes: u64) -> String {
    format!("{:.1} MB", bytes as f64 / (1024.0 * 1024.0))
}

/// Is paper-scale mode requested?
pub fn full_scale() -> bool {
    std::env::var("PSE_SCALE")
        .map(|v| v == "full")
        .unwrap_or(false)
}

/// Write a machine-readable benchmark result: named measurements plus
/// an optional metric-registry delta covering the measured interval, so
/// per-layer counters (requests, cache hits, DBM page traffic) land
/// next to the timings they explain.
///
/// The file goes to `$PSE_BENCH_JSON` when set, else
/// `target/bench-json/<name>.json`. Returns the path written.
pub fn emit_json(
    name: &str,
    rows: &[(&str, Measurement)],
    obs_delta: Option<&pse_obs::Snapshot>,
) -> std::path::PathBuf {
    let path = json_out_path(name);
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"bench\": {},\n", pse_obs::json_string(name)));
    out.push_str("  \"measurements\": [\n");
    for (i, (n, m)) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"elapsed_s\": {:.6}, \"cpu_s\": {:.6}}}{}\n",
            pse_obs::json_string(n),
            m.elapsed_s(),
            m.cpu_s(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]");
    if let Some(d) = obs_delta {
        out.push_str(",\n  \"obs_delta\": ");
        out.push_str(&d.to_json());
    }
    out.push_str("\n}\n");
    if let Err(e) = std::fs::write(&path, &out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

fn json_out_path(name: &str) -> std::path::PathBuf {
    match std::env::var_os("PSE_BENCH_JSON") {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let dir = std::path::Path::new("target").join("bench-json");
            let _ = std::fs::create_dir_all(&dir);
            dir.join(format!("{name}.json"))
        }
    }
}

/// Like [`emit_json`], for benchmarks whose results are named scalar
/// fields per row (throughput, latency percentiles, ratios…) rather
/// than wall/CPU measurement pairs. Same output location rules.
pub fn emit_json_fields(
    name: &str,
    rows: &[(String, Vec<(&'static str, f64)>)],
    obs_delta: Option<&pse_obs::Snapshot>,
) -> std::path::PathBuf {
    let path = json_out_path(name);
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"bench\": {},\n", pse_obs::json_string(name)));
    out.push_str("  \"rows\": [\n");
    for (i, (n, fields)) in rows.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": {}", pse_obs::json_string(n)));
        for (field, value) in fields {
            out.push_str(&format!(", \"{field}\": {value:.6}"));
        }
        out.push_str(&format!(
            "}}{}\n",
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]");
    if let Some(d) = obs_delta {
        out.push_str(",\n  \"obs_delta\": ");
        out.push_str(&d.to_json());
    }
    out.push_str("\n}\n");
    if let Err(e) = std::fs::write(&path, &out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_monotonic() {
        let a = cpu_time();
        // Burn a little CPU.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let b = cpu_time();
        assert!(b >= a);
    }

    #[test]
    fn measure_returns_value() {
        let (v, m) = measure(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(m.elapsed >= Duration::ZERO);
    }

    #[test]
    fn emit_json_includes_measurements_and_delta() {
        let dir = std::env::temp_dir().join(format!("pse-bench-json-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let file = dir.join("out.json");
        std::env::set_var("PSE_BENCH_JSON", &file);
        let reg = pse_obs::Registry::new();
        let before = reg.snapshot();
        reg.counter("layer.ops").add(7);
        let delta = reg.snapshot().delta(&before);
        let m = Measurement {
            elapsed: Duration::from_millis(12),
            cpu: Duration::from_millis(3),
        };
        let path = emit_json("unit \"test\"", &[("op-a", m), ("op-b", m)], Some(&delta));
        std::env::remove_var("PSE_BENCH_JSON");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"bench\": \"unit \\\"test\\\"\""), "{text}");
        assert!(text.contains("\"name\": \"op-a\""), "{text}");
        assert!(text.contains("\"elapsed_s\": 0.012000"), "{text}");
        assert!(text.contains("\"obs_delta\""), "{text}");
        assert!(text.contains("\"layer.ops\":7"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new("test", &["op", "elapsed"]);
        t.row(&["get".into(), "0.001 s".into()]);
        t.print(); // just must not panic
        assert_eq!(secs(1.2345), "1.234 s");
        assert_eq!(secs(0.00234), "2.34 ms");
        assert_eq!(secs(0.00001), "10.0 us");
        assert_eq!(mb(1024 * 1024), "1.0 MB");
    }
}
