//! `perfbench --workload <ecce|replicated> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`.
//! Repository data lives under `.bench_data/` and spans of traced runs
//! go to `.bench_out/`, both in the working directory. Where the process
//! may create a private mount namespace, the data directory is a tmpfs
//! (see `sys::private_tmpfs`), so disk latency stays out of the figures;
//! the first output line names the filesystem the data is on.

use perfbench::harness::{Args, Outcome};
use perfbench::{ecce, replicated, sys};
use std::process::ExitCode;

/// Ceiling of the memory-backed filesystem holding a run's repository
/// data (the largest run keeps a few hundred MiB).
const DATA_BYTES: u64 = 1 << 30;

fn parse() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let data_dir = cwd
        .join(".bench_data")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        data_dir,
        out_dir: cwd.join(".bench_out"),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(&args.data_dir).expect("create data dir");
    let on_tmpfs = sys::private_tmpfs(&args.data_dir, DATA_BYTES);
    println!(
        "workload={} seed={} seconds={} trace={} nproc={} data_fs={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        sys::nproc(),
        sys::fs_type(&args.data_dir)
    );
    let out: Outcome = match args.workload.as_str() {
        "ecce" => ecce::run(&args),
        "replicated" => replicated::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if on_tmpfs {
        sys::release_tmpfs(&args.data_dir);
    }
    let _ = std::fs::remove_dir_all(&args.data_dir);
    for n in &out.notes {
        println!("{n}");
    }
    for m in out.mismatches.iter().take(20) {
        println!("CHECK FAILED: {m}");
    }
    if out.mismatches.len() > 20 {
        println!("... and {} more failed checks", out.mismatches.len() - 20);
    }
    if out.metrics.0.iter().any(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: a metric is not a finite number");
        return ExitCode::from(1);
    }
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
