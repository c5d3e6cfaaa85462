//! `replicated`: an in-process primary with one replica behind the
//! router, auto-versioning on, 200 documents of 16 KiB (one of them
//! version-controlled). Writes (30% of ops) are PUTs that change about
//! 1% of a document; reads are GET and depth-0 PROPFIND through the
//! router. Exercises the change log, replica apply, read routing and
//! the content-addressed version store.

use crate::harness::*;
use crate::stats::{mixed_rounds, Rng};
use crate::trace::{write_spans, Tracer};
use pse_cluster::node::{NodeConfig, Primary, Replica};
use pse_cluster::router::{BackendSpec, Router, RouterConfig};
use pse_dav::client::DavClient;
use pse_dav::property::PropertyName;
use pse_dav::Depth;
use pse_http::{Method, Request};
use pse_obs::Snapshot;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Documents in the dataset.
pub const DOCS: usize = 200;
/// Body size of every document.
pub const SIZE: usize = 16 << 10;
/// Documents placed under version control. Versioning is sampled on one
/// document, so about 0.5% of writes record a version: too few to move
/// any latency figure, enough to keep the version store and its
/// replication on the path and checked. Each recorded version fsyncs its
/// chunks and history on both nodes; with all 200 documents versioned,
/// three seeds on an ext4 disk gave write p90 of 2.7–4.0 ms and set-up
/// medians of 0.57–1.14 s.
const VERSIONED: usize = 1;
/// Bytes one write changes (about 1% of a document).
pub const EDIT: usize = SIZE / 100;
/// Nominal ops/s of both clients together on a 2-CPU host.
const RATE: u64 = 2000;

/// One replicated op. Each client owns the documents congruent to its
/// index, so every read has one exact expected body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(usize),
    PropFind(usize),
    /// Overwrite `EDIT` bytes at the offset with bytes from the seed.
    Put {
        doc: usize,
        offset: usize,
        salt: u64,
    },
}

#[derive(Clone, Copy)]
enum Kind {
    Get,
    PropFind,
    Put,
}

const MIX: [(Kind, u32); 3] = [(Kind::Get, 40), (Kind::PropFind, 30), (Kind::Put, 30)];

/// The op list of one client: `n` ops, from the seed alone.
pub fn plan(seed: u64, client: usize, n: usize, stream: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x7e00 + stream * 16 + client as u64);
    mixed_rounds(&MIX, n, ROUNDS, &mut rng)
        .into_iter()
        .map(|k| {
            let doc = client + CLIENTS * rng.below(DOCS / CLIENTS);
            match k {
                Kind::Get => Op::Get(doc),
                Kind::PropFind => Op::PropFind(doc),
                Kind::Put => Op::Put {
                    doc,
                    offset: rng.below(SIZE - EDIT + 1),
                    salt: rng.next_u64(),
                },
            }
        })
        .collect()
}

/// Body bytes an op moves over the wire.
pub fn op_bytes(op: &Op) -> u64 {
    match op {
        Op::Get(_) | Op::Put { .. } => SIZE as u64,
        Op::PropFind(_) => 0,
    }
}

fn path(doc: usize) -> String {
    format!("/rep/doc-{doc:03}")
}

/// The initial body of `doc`.
fn initial(seed: u64, doc: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed, 0x1000_0000 + doc as u64);
    (0..SIZE / 8)
        .flat_map(|_| rng.next_u64().to_le_bytes())
        .collect()
}

/// Apply an edit to a body in place.
fn edit(body: &mut [u8], offset: usize, salt: u64) {
    let mut rng = Rng::new(salt, 1);
    for b in &mut body[offset..offset + EDIT] {
        *b = rng.next_u64() as u8;
    }
}

fn content_length() -> PropertyName {
    PropertyName::new("DAV:", "getcontentlength")
}

struct Client {
    dav: DavClient,
    /// Last acknowledged body of every document (only the owned ones
    /// are ever written by this client).
    bodies: Vec<Vec<u8>>,
    tracer: Tracer,
    errors: Vec<String>,
    mismatches: Vec<String>,
}

impl Client {
    fn run(&mut self, ops: &[Op], first_id: u64) -> Vec<Sample> {
        ops.iter()
            .enumerate()
            .map(|(i, op)| self.exec(*op, first_id + i as u64))
            .collect()
    }

    fn exec(&mut self, op: Op, id: u64) -> Sample {
        let (dav, errs) = (&mut self.dav, &mut self.errors);
        let mut bad = None;
        let sample = match op {
            Op::Get(d) => {
                let h = self.tracer.begin(id, "op.get");
                let (s, got) = timed(false, errs, || dav.get(&path(d)));
                self.tracer.end(h);
                if got.is_some_and(|b| b != self.bodies[d]) {
                    bad = Some(format!(
                        "GET {} differs from the last acknowledged PUT",
                        path(d)
                    ));
                }
                s
            }
            Op::PropFind(d) => {
                let h = self.tracer.begin(id, "op.propfind");
                let (s, got) = timed(false, errs, || {
                    dav.propfind(&path(d), Depth::Zero, &[content_length()])
                });
                self.tracer.end(h);
                if let Some(ms) = got {
                    let len = ms
                        .responses
                        .first()
                        .and_then(|r| r.prop(&content_length()))
                        .map(|p| p.text_value());
                    if len.as_deref() != Some(&SIZE.to_string()) {
                        bad = Some(format!("PROPFIND {}: length {len:?}", path(d)));
                    }
                }
                s
            }
            Op::Put { doc, offset, salt } => {
                let mut next = self.bodies[doc].clone();
                edit(&mut next, offset, salt);
                let body = next.clone();
                let h = self.tracer.begin(id, "op.put");
                let (s, got) = timed(true, errs, || {
                    dav.put(&path(doc), body, Some("application/octet-stream"))
                });
                self.tracer.end(h);
                if got.is_some() {
                    self.bodies[doc] = next;
                }
                s
            }
        };
        if let (Some(b), true) = (bad, self.mismatches.len() < 20) {
            self.mismatches.push(b);
        }
        sample
    }
}

struct Cluster {
    primary: Primary,
    replica: Replica,
    router: Router,
    dir: PathBuf,
}

impl Cluster {
    fn shutdown(self) {
        self.router.shutdown();
        self.replica.shutdown();
        self.primary.shutdown();
    }

    /// Wait (untimed) until the replica has applied everything the
    /// primary logged; false on timeout.
    fn catch_up(&self) -> bool {
        self.replica
            .wait_caught_up(self.primary.seq(), Duration::from_secs(60))
    }

    fn node_dirs(&self) -> [PathBuf; 2] {
        [self.dir.join("primary"), self.dir.join("replica")]
    }
}

/// Build the dataset from an empty directory, through the router, and
/// wait for the replica to catch up.
fn setup(args: &Args, rep: usize) -> (Cluster, f64) {
    let t0 = Instant::now();
    let dir = args.fresh_dir(&format!("replicated-{rep}"));
    let cfg = NodeConfig {
        server: server_config(),
        ..NodeConfig::default()
    };
    let primary =
        Primary::start(&dir.join("primary"), "127.0.0.1:0", cfg.clone()).expect("start primary");
    let replica = Replica::start(&dir.join("replica"), "127.0.0.1:0", primary.addr(), cfg)
        .expect("start replica");
    let spec = BackendSpec {
        primary: primary.addr(),
        replicas: vec![replica.addr()],
    };
    let router = Router::start(
        "127.0.0.1:0",
        &[spec],
        RouterConfig {
            server: server_config(),
            ..RouterConfig::default()
        },
    )
    .expect("start router");
    let mut c = DavClient::connect(router.addr()).expect("connect");
    c.mkcol("/rep").expect("MKCOL /rep");
    for d in 0..DOCS {
        c.put(
            &path(d),
            initial(args.seed, d),
            Some("application/octet-stream"),
        )
        .expect("seed PUT");
        if d < VERSIONED {
            c.version_control(&path(d)).expect("VERSION-CONTROL");
        }
    }
    let cluster = Cluster {
        primary,
        replica,
        router,
        dir,
    };
    assert!(cluster.catch_up(), "replica did not catch up during set-up");
    (cluster, t0.elapsed().as_secs_f64())
}

/// Compare every document on the replica against the primary: bodies
/// and (for the version-controlled document) version counts must match.
/// ETags are compared but a mismatch does not fail the run, so `correct`
/// does not certify ETag agreement: ETags derive from each node's own
/// file mtime, so a replica's differ from the primary's for the same
/// bytes (a defect of the program). The share that differs is returned
/// and reported as `cluster.etag_mismatch_share`.
fn compare_nodes(cluster: &Cluster, clients: &[Client], out: &mut Outcome) -> f64 {
    let mut etag_mismatches = 0;
    let mut p = DavClient::connect(cluster.primary.addr()).expect("connect primary");
    let mut r = DavClient::connect(cluster.replica.addr()).expect("connect replica");
    let fetch = |c: &mut DavClient, d: usize| {
        let resp = c.http().send(Request::new(Method::Get, &path(d))).ok()?;
        let etag = resp.headers.get("ETag").map(str::to_owned);
        let versions = if d < VERSIONED {
            c.versions(&path(d)).ok()?.len()
        } else {
            0
        };
        Some((resp.body, etag, versions))
    };
    for d in 0..DOCS {
        let (pp, rr) = (fetch(&mut p, d), fetch(&mut r, d));
        let expected = &clients[d % CLIENTS].bodies[d];
        match (pp, rr) {
            (Some(pp), Some(rr)) => {
                out.check(&pp.0 == expected, || {
                    format!("primary {} differs from the last PUT", path(d))
                });
                out.check(rr.0 == pp.0, || {
                    format!("replica body of {} differs", path(d))
                });
                out.check(rr.1.is_some() && pp.1.is_some(), || {
                    format!("{} served without an ETag", path(d))
                });
                out.check(rr.2 == pp.2, || {
                    format!(
                        "replica has {} versions of {}, primary {}",
                        rr.2,
                        path(d),
                        pp.2
                    )
                });
                etag_mismatches += usize::from(rr.1 != pp.1);
            }
            _ => out.check(false, || {
                format!("could not read {} from both nodes", path(d))
            }),
        }
    }
    etag_mismatches as f64 / DOCS as f64
}

fn cluster_errors(d: &Delta) -> f64 {
    [
        "cluster.replica.pull_errors",
        "cluster.replica.apply_errors",
        "cluster.replica.resyncs",
        "cluster.router.errors",
    ]
    .iter()
    .map(|n| d.counter(n))
    .sum()
}

fn file_len(p: &Path) -> f64 {
    std::fs::metadata(p).map_or(0.0, |m| m.len() as f64)
}

/// Set-ups per run. This dataset builds in about 0.2 s, so host noise is
/// a large share of one build; the median of nine keeps `setup_s`
/// steadier (five gave a 17% shift between two sets of ten runs).
const REPLICATED_SETUP_REPS: usize = 9;

/// One run of the `replicated` workload.
pub fn run(args: &Args) -> Outcome {
    let mut setups = Vec::new();
    let mut kept: Option<Cluster> = None;
    for rep in 0..REPLICATED_SETUP_REPS {
        let (cluster, secs) = setup(args, rep);
        setups.push(secs);
        if let Some(old) = kept.replace(cluster) {
            let dir = old.dir.clone();
            old.shutdown();
            remove(&dir);
        }
    }
    let cluster = kept.expect("at least one set-up");
    let epoch = Instant::now();
    let bodies: Vec<Vec<u8>> = (0..DOCS).map(|d| initial(args.seed, d)).collect();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client {
            dav: DavClient::connect(cluster.router.addr()).expect("connect"),
            bodies: bodies.clone(),
            tracer: Tracer::new(epoch),
            errors: Vec::new(),
            mismatches: Vec::new(),
        })
        .collect();
    let n = args.ops_per_client(RATE);
    let warm: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|i| plan(args.seed, i, n / 10 + 20, 1))
        .collect();
    let timed_ops: Vec<Vec<Op>> = (0..CLIENTS).map(|i| plan(args.seed, i, n, 2)).collect();
    run_clients(&mut clients, warm[0].len(), 1, |i, c, r| {
        c.run(&warm[i][r], 0)
    });

    let regs = [
        cluster.router.registry(),
        cluster.primary.registry(),
        cluster.replica.registry(),
    ];
    let snap = || -> Vec<Snapshot> { regs.iter().map(|r| r.snapshot()).collect() };
    let start = snap();
    let mut phases = vec![run_clients(&mut clients, n, ROUNDS, |i, c, r| {
        c.run(&timed_ops[i][r.clone()], r.start as u64)
    })];
    let mut out = Outcome::default();
    let mut figures = None;
    if args.trace {
        for c in clients.iter_mut() {
            c.tracer.set_enabled(true);
        }
        let (before, seq1) = (snap(), cluster.primary.seq());
        let traced = run_clients(&mut clients, n, ROUNDS, |i, c, r| {
            c.run(&timed_ops[i][r.clone()], r.start as u64)
        });
        let done = Instant::now();
        let caught = cluster.catch_up();
        let catchup_ms = done.elapsed().as_secs_f64() * 1e3;
        out.check(caught, || {
            "replica did not catch up after the traced phase".into()
        });
        for c in clients.iter_mut() {
            c.tracer.set_enabled(false);
        }
        let after = snap();
        let d: Vec<Delta> = (0..3)
            .map(|i| Delta::between(&before[i], &after[i]))
            .collect();
        let (front, primary) = (&d[0], &d[1]);
        let nodes = d[1].clone().merged(&d[2]);
        let m = &mut out.metrics;
        common_layers(m, front, &nodes, primary, &traced);
        let spans_us: f64 = clients
            .iter()
            .flat_map(|c| c.tracer.spans.iter())
            .map(|s| s.ns() as f64 / 1e3)
            .sum();
        m.put(
            "client.self_us_per_request",
            ratio(
                spans_us - front.hist_sum("http.request_latency_us"),
                front.requests(),
            ),
            "us",
        );
        m.put("ecce.dsi_calls_per_op", 0.0, "count");
        m.put("ecce.self_ms_per_op", 0.0, "ms");
        // Re-parse a sample of the depth-0 PROPFIND bodies this workload moves.
        let mut bodies = Vec::new();
        let mut raw = DavClient::connect(cluster.router.addr()).expect("connect");
        for doc in (0..DOCS).step_by(10) {
            let req = Request::new(Method::PropFind, &path(doc))
                .with_header("Depth", "0")
                .with_xml_body(
                    r#"<?xml version="1.0"?><D:propfind xmlns:D="DAV:"><D:prop><D:getcontentlength/></D:prop></D:propfind>"#,
                );
            match raw.http().send(req) {
                Ok(resp) if resp.status.code() == 207 => bodies.push(resp.body_text()),
                _ => {}
            }
        }
        m.put("xml.parse_ms_per_mib", xml_parse_ms_per_mib(&bodies), "ms");
        repo_layers(m, None, front.requests(), 0.0);
        version_layers(m, primary, traced.writes());
        let reads_replica = front.counter("cluster.router.reads_replica");
        let reads = reads_replica + front.counter("cluster.router.reads_primary");
        let records = (cluster.primary.seq() - seq1) as f64;
        let user_bytes = (DOCS * SIZE) as f64;
        figures = Some(ClusterFigures {
            log_bytes_per_user_byte: file_len(&cluster.dir.join("primary").join("changes.log"))
                / user_bytes,
            log_retained_records: after[1].gauge("cluster.primary.log.retained") as f64,
            replica_read_share: ratio(reads_replica, reads),
            batches_per_record: ratio(d[2].counter("cluster.replica.batches"), records),
            catchup_ms,
            errors: cluster_errors(&d[0]) + cluster_errors(&d[2]),
            etag_mismatch_share: 0.0,
        });
        m.put(
            "trace.overhead_share",
            1.0 - traced.ops_per_s() / phases[0].ops_per_s(),
            "ratio",
        );
        let spans: Vec<&[crate::trace::Span]> =
            clients.iter().map(|c| c.tracer.spans.as_slice()).collect();
        let file = args
            .out_dir
            .join(format!("spans-replicated-seed{}.tsv", args.seed));
        if let Err(e) = write_spans(&file, &spans) {
            out.notes.push(format!("could not write spans: {e}"));
        }
        phases.push(traced);
    }

    out.check(cluster.catch_up(), || {
        "replica did not catch up after the run".into()
    });
    let end = snap();
    let whole: Vec<Delta> = (0..3).map(|i| Delta::between(&start[i], &end[i])).collect();
    let errors = cluster_errors(&whole[0]) + cluster_errors(&whole[2]);
    out.check(errors == 0.0, || {
        format!("{errors} replication or routing errors")
    });
    let evictions =
        whole[1].counter("dav.prop_cache.evictions") + whole[2].counter("dav.prop_cache.evictions");
    out.check(evictions == 0.0, || {
        format!("{evictions} property-cache evictions; the metadata should fit")
    });
    let etag_mismatch_share = compare_nodes(&cluster, &clients, &mut out);
    out.notes.push(format!(
        "replica ETag differs from the primary's on {:.0}% of documents",
        etag_mismatch_share * 100.0
    ));
    if let Some(mut f) = figures {
        f.etag_mismatch_share = etag_mismatch_share;
        cluster_layers(&mut out.metrics, Some(&f));
    }
    for c in &mut clients {
        out.mismatches.append(&mut c.mismatches);
        out.notes
            .extend(c.errors.iter().map(|e| format!("op error: {e}")));
    }
    let dirs = cluster.node_dirs();
    let disk = crate::sys::disk_ratio(&[&dirs[0], &dirs[1]], (DOCS * SIZE) as u64);
    drop(clients);
    let dir = cluster.dir.clone();
    cluster.shutdown();
    remove(&dir);

    out.notes.push(phase_note(&setups, &phases));
    out.attempted = phases.iter().map(Phase::attempted).sum();
    out.failed = phases.iter().map(Phase::failed).sum();
    if !args.trace {
        match end_to_end(&setups, &phases[0], disk) {
            Ok(m) => out.metrics = m,
            Err(e) => out.mismatches.push(e),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_bytes() {
        let a = plan(5, 1, 800, 2);
        assert_eq!(a, plan(5, 1, 800, 2));
        let bytes = |ops: &[Op]| ops.iter().map(op_bytes).sum::<u64>();
        assert_eq!(bytes(&a), bytes(&plan(5, 1, 800, 2)));
        assert_ne!(a, plan(6, 1, 800, 2));
        let puts = |ops: &[Op]| ops.iter().filter(|o| matches!(o, Op::Put { .. })).count();
        assert_eq!(puts(&a), 240);
        assert_eq!(puts(&plan(6, 1, 800, 2)), 240);
    }

    #[test]
    fn edits_change_about_one_percent() {
        let a = initial(3, 7);
        let mut b = a.clone();
        edit(&mut b, 100, 99);
        let changed = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(changed <= EDIT && changed > EDIT / 2, "{changed}");
    }
}
