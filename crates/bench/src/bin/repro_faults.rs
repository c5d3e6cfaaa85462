//! Fault-rate ablation: DAV throughput through the fault-injecting
//! proxy at increasing per-exchange fault probabilities.
//!
//! The paper argues the HTTP/DAV data architecture is viable for PSE
//! workloads over real (unreliable) campus networks. This bench
//! quantifies what the retry policy buys: a mixed idempotent workload
//! (PUT + GET + PROPFIND) is driven through [`pse_http::FaultProxy`]
//! with a seeded random schedule at 0 / 5 / 10 / 20 % fault rates, and
//! we report completed operations, throughput, the success rate, and
//! how many re-sends the client needed.
//!
//! Faults include connection resets at all four exchange points,
//! delays, response truncation, and response corruption; every loss
//! mode the robustness suite covers. With retries disabled (the
//! `RetryPolicy::none()` column) the same workload visibly bleeds
//! operations, which is the ablation's point.

use pse_bench::harness::{measure, secs, Table};
use pse_bench::workloads::{dav_rig, teardown};
use pse_dav::client::DavClient;
use pse_dav::Depth;
use pse_dbm::DbmKind;
use pse_http::fault::{FaultProxy, Schedule};
use pse_http::retry::RetryPolicy;
use std::time::Duration;

const OPS: usize = 150;

fn policy(retries: bool) -> RetryPolicy {
    if retries {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            jitter: 0.5,
            seed: 1,
            deadline: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
        }
    } else {
        RetryPolicy {
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
            ..RetryPolicy::none()
        }
    }
}

/// Mixed idempotent workload: for each `i`, one PUT, one GET, one
/// depth-1 PROPFIND. Returns (attempted, succeeded).
fn run_workload(client: &mut DavClient) -> (usize, usize) {
    let mut attempted = 0usize;
    let mut ok = 0usize;
    for i in 0..OPS {
        let path = format!("/bench/doc-{}", i % 25);
        attempted += 1;
        if client.put(&path, format!("payload-{i}"), None).is_ok() {
            ok += 1;
        }
        attempted += 1;
        if client.get(&path).is_ok() {
            ok += 1;
        }
        if i % 5 == 0 {
            attempted += 1;
            if client.propfind_all("/bench", Depth::One).is_ok() {
                ok += 1;
            }
        }
    }
    (attempted, ok)
}

fn main() {
    println!(
        "Fault-rate ablation — {OPS} iterations of PUT+GET (+PROPFIND/5) per cell, seeded proxy"
    );
    let mut table = Table::new(
        "throughput under injected faults",
        &[
            "fault rate",
            "retries",
            "ops ok",
            "success",
            "re-sends",
            "faults fired",
            "time",
            "ops/s",
        ],
    );

    for &(rate, retries) in &[
        (0.00, true),
        (0.05, true),
        (0.10, true),
        (0.20, true),
        (0.10, false), // ablation: same storm, no retry policy
    ] {
        let mut rig = dav_rig("faults", DbmKind::Gdbm);
        rig.client.mkcol("/bench").unwrap();
        let upstream = rig.server.local_addr();
        let proxy = FaultProxy::start(
            upstream,
            Schedule::Random {
                seed: 2026,
                rate,
                delay: Duration::from_millis(5),
                truncate: 16,
            },
        )
        .unwrap();
        let mut client = DavClient::connect(proxy.addr()).unwrap();
        client.set_retry_policy(policy(retries));

        let ((attempted, ok), m) = measure(|| run_workload(&mut client));
        let resends = client.http().retry_count();
        let fired = proxy.stats().total_fired();
        table.row(&[
            format!("{:.0}%", rate * 100.0),
            if retries { "on".into() } else { "off".into() },
            format!("{ok}/{attempted}"),
            format!("{:.1}%", 100.0 * ok as f64 / attempted as f64),
            resends.to_string(),
            fired.to_string(),
            secs(m.elapsed_s()),
            format!("{:.0}", ok as f64 / m.elapsed_s()),
        ]);
        proxy.shutdown();
        teardown(rig);
    }
    table.print();
}
