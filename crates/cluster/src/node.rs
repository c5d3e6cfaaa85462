//! Cluster nodes: [`Primary`] and [`Replica`].
//!
//! A primary is a full DAV server whose repository records every
//! committed mutation into a [`ChangeLog`] through its commit hook
//! ([`ChangeLog::record_commits`]), plus one reserved read-only
//! endpoint, [`CHANGES_PATH`], that ships the change log to replicas:
//!
//! ```text
//! GET /.well-known/changes?since=N&max=K
//!   200  body = frames (seq, len, payload, checksum)*   fresh entries
//!        X-Change-Log-Last: <last seq in the log>
//!   410  the log was compacted past N — catch up via full resync
//!        X-Change-Log-Last: <resync target seq>
//! ```
//!
//! A replica is the same DAV server over its own repository, with two
//! differences: mutating methods answer `307 Temporary Redirect` to the
//! primary (DAV clients with
//! [`pse_dav::DavClient::set_follow_redirects`] enabled never notice),
//! and a background puller tails the primary's change feed and applies
//! it through an [`Applier`]. Read responses carry `X-Applied-Seq` so a
//! router can enforce read-your-writes; the primary stamps successful
//! mutations with `X-Change-Seq` for the same purpose.
//!
//! Lock state lives on the primary (replicas redirect `LOCK` there),
//! mirroring how mod_dav kept lock state out of the replicated data
//! store. Version state, by contrast, *is* replicated: each node's
//! repository keeps its histories in a persistent [`VersionStore`]
//! under `dir/versions`, and `VERSION-CONTROL`/`CHECKOUT`/`CHECKIN`
//! reach the change log through the same commit hook as every other
//! mutation (carrying the recorded body, so replay is deterministic
//! even when a PUT raced the operation). Replaying a Put re-runs
//! auto-versioning and replaying a Rename moves the history, so history
//! reads — `REPORT`, GET and PROPFIND under `/.well-known/history/` —
//! are served locally with read-your-writes guarantees from
//! `X-Applied-Seq`.

use crate::apply::{Applier, ApplyError};
use crate::log::{self, ChangeLog};
use pse_dav::error::Result;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::handler::DavHandler;
use pse_dav::property::{PropertyName, DAV_NS};
use pse_dav::repo::Repository;
use pse_dav::version::{DeltaV, VersionStore};
use pse_dav::{DavClient, Depth};
use pse_http::server::{Server, ServerConfig};
use pse_http::{Client, Method, Request, Response, StatusCode};
use pse_obs::Registry;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The reserved change-feed endpoint (a sibling of the metrics path;
/// `/.well-known/` is outside the DAV namespace by convention).
pub const CHANGES_PATH: &str = "/.well-known/changes";

/// Response header a primary adds to every successful mutation: the
/// change-log sequence number the mutation is covered by. A router
/// records it as the shard's read-your-writes floor.
pub const CHANGE_SEQ_HEADER: &str = "X-Change-Seq";

/// Response header a replica adds to every read: how far its applier
/// has caught up. A router compares it against the write floor.
pub const APPLIED_SEQ_HEADER: &str = "X-Applied-Seq";

/// Response header on the change feed itself: the last sequence number
/// in the primary's log (sent on `410` too, so a resyncing replica
/// knows its target).
pub const LOG_LAST_HEADER: &str = "X-Change-Log-Last";

/// Tuning for one cluster node.
#[derive(Clone)]
pub struct NodeConfig {
    /// HTTP server configuration (worker pool, keep-alive budget, …).
    pub server: ServerConfig,
    /// Storage configuration for the node's [`FsRepository`].
    pub fs: FsConfig,
    /// Maximum entries per change-feed response.
    pub batch_limit: usize,
    /// How long a replica sleeps when a pull returns nothing new.
    pub pull_interval: Duration,
    /// Emulated per-request service time, applied to DAV requests (not
    /// the change feed). Zero in production; the cluster bench sets it
    /// so read capacity scales with node count even on one CPU —
    /// sleeping workers cost no cycles, exactly like I/O-bound storage.
    pub service_delay: Duration,
    /// Auto-version-on-PUT (the Ecce flow). Must match across the
    /// primary and its replicas — replicas re-run auto-versioning
    /// while replaying Put records, so a mismatch would diverge.
    pub auto_version: bool,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            server: ServerConfig {
                // Replication and router traffic is long-lived.
                max_requests_per_connection: 1_000_000,
                ..ServerConfig::default()
            },
            fs: FsConfig::default(),
            batch_limit: 512,
            pull_interval: Duration::from_millis(5),
            service_delay: Duration::ZERO,
            auto_version: true,
        }
    }
}

/// Is `m` served locally by a replica (reads), vs redirected (writes)?
pub fn is_read_method(m: &Method) -> bool {
    matches!(
        m,
        Method::Get
            | Method::Head
            | Method::Options
            | Method::Trace
            | Method::PropFind
            | Method::Search
            | Method::Report
    )
}

/// `since`/`max` from a change-feed query string.
fn parse_changes_query(query: Option<&str>, batch_limit: usize) -> (u64, usize) {
    let mut since = 0u64;
    let mut max = batch_limit;
    for pair in query.unwrap_or("").split('&') {
        let mut kv = pair.splitn(2, '=');
        match (kv.next(), kv.next().and_then(|v| v.parse::<u64>().ok())) {
            (Some("since"), Some(v)) => since = v,
            (Some("max"), Some(v)) => max = (v as usize).min(batch_limit),
            _ => {}
        }
    }
    // `read_after` computes since+1; clamp so a hostile query can't
    // overflow.
    (since.min(u64::MAX - 1), max.max(1))
}

/// Serve one change-feed request against `changelog`.
fn serve_changes(changelog: &ChangeLog, req: &Request, batch_limit: usize) -> Response {
    if req.method != Method::Get {
        return Response::new(StatusCode::METHOD_NOT_ALLOWED);
    }
    let (since, max) = parse_changes_query(req.target.query(), batch_limit);
    let last = changelog.last_seq().to_string();
    match changelog.read_after(since, max) {
        Ok(entries) => {
            let mut body = Vec::new();
            for e in &entries {
                log::encode_frame(&mut body, e.seq, &e.record.encode());
            }
            Response::ok()
                .with_header("Content-Type", "application/octet-stream")
                .with_header(LOG_LAST_HEADER, last)
                .with_body(body)
        }
        Err(gap) => Response::new(StatusCode::GONE)
            .with_header(LOG_LAST_HEADER, last)
            .with_body(format!("log starts at {}", gap.start_seq).into_bytes()),
    }
}

/// A node's repository: resources under `dir/data`, version histories
/// under `dir/versions`.
fn open_repo(dir: &Path, cfg: &NodeConfig) -> Result<FsRepository> {
    let versions = VersionStore::persistent(dir.join("versions"))?;
    versions.set_auto_version(cfg.auto_version);
    Ok(FsRepository::create(dir.join("data"), cfg.fs.clone())?.with_version_store(versions))
}

/// A primary node: the writable DAV server for a shard.
pub struct Primary {
    server: Server,
    repo: Arc<FsRepository>,
    changelog: Arc<ChangeLog>,
    registry: Arc<Registry>,
}

impl Primary {
    /// Start a primary over `dir` (created if needed: `dir/data` holds
    /// resources, `dir/changes.log` the log, `dir/versions` DeltaV
    /// histories), listening on `addr`.
    pub fn start<A: ToSocketAddrs>(dir: &Path, addr: A, cfg: NodeConfig) -> Result<Primary> {
        let io_err = |e: std::io::Error| pse_dav::DavError::Io(Arc::new(e));
        let changelog = ChangeLog::open(dir).map_err(io_err)?;
        let repo = open_repo(dir, &cfg)?;
        changelog.record_commits(&repo);
        let registry = Registry::new();
        changelog.register_obs(&registry, "cluster.primary.log");
        let handler = DavHandler::with_registry(repo, Arc::clone(&registry));
        let repo = handler.repo();

        let mut server_cfg = cfg.server.clone();
        server_cfg.obs = Some(Arc::clone(&registry));
        let feed_log = Arc::clone(&changelog);
        let seq_log = Arc::clone(&changelog);
        let batch_limit = cfg.batch_limit;
        let service_delay = cfg.service_delay;
        let server = Server::bind(addr, server_cfg, move |req: Request| {
            if req.target.path() == CHANGES_PATH {
                return serve_changes(&feed_log, &req, batch_limit);
            }
            if !service_delay.is_zero() {
                thread::sleep(service_delay);
            }
            let is_write = !is_read_method(&req.method);
            let resp = handler.handle(req);
            if is_write && resp.status.is_success() {
                // last_seq is ≥ the seq this mutation appended: a valid
                // (if conservative) read-your-writes floor.
                resp.with_header(CHANGE_SEQ_HEADER, seq_log.last_seq().to_string())
            } else {
                resp
            }
        })?;
        Ok(Primary {
            server,
            repo,
            changelog,
            registry,
        })
    }

    /// Listening address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Last change-log sequence number (the replication high-water mark).
    pub fn seq(&self) -> u64 {
        self.changelog.last_seq()
    }

    /// The change log (tests compact it to exercise resync).
    pub fn changelog(&self) -> &Arc<ChangeLog> {
        &self.changelog
    }

    /// The primary's repository (its mutations are logged).
    pub fn repo(&self) -> &Arc<FsRepository> {
        &self.repo
    }

    /// The node's version store.
    pub fn versions(&self) -> &VersionStore {
        self.repo.versions()
    }

    /// The node's metric registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Stop serving.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// A replica node: read-only follower of one primary.
pub struct Replica {
    server: Server,
    repo: Arc<FsRepository>,
    applier: Arc<Applier>,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    puller: Option<JoinHandle<()>>,
}

impl Replica {
    /// Start a replica over `dir`, listening on `addr`, following the
    /// primary at `primary_addr`.
    pub fn start<A: ToSocketAddrs>(
        dir: &Path,
        addr: A,
        primary_addr: SocketAddr,
        cfg: NodeConfig,
    ) -> Result<Replica> {
        let io_err = |e: std::io::Error| pse_dav::DavError::Io(Arc::new(e));
        let registry = Registry::new();
        let handler = DavHandler::with_registry(open_repo(dir, &cfg)?, Arc::clone(&registry));
        let repo = handler.repo();
        let applier = Arc::new(Applier::open(dir).map_err(io_err)?);

        let mut server_cfg = cfg.server.clone();
        server_cfg.obs = Some(Arc::clone(&registry));
        let applied = Arc::clone(&applier);
        let service_delay = cfg.service_delay;
        let server = Server::bind(addr, server_cfg, move |req: Request| {
            if !is_read_method(&req.method) {
                // Writes belong to the primary; 307 preserves method +
                // body across the hop (RFC 7538 semantics).
                return Response::new(StatusCode::TEMPORARY_REDIRECT)
                    .with_header("Location", format!("http://{primary_addr}{}", req.target.path()));
            }
            if !service_delay.is_zero() {
                thread::sleep(service_delay);
            }
            // Sample the cursor BEFORE handling: the applier may advance
            // while the read runs, and the stamp must never claim more
            // than the state the body reflects.
            let seq_before = applied.applied();
            handler
                .handle(req)
                .with_header(APPLIED_SEQ_HEADER, seq_before.to_string())
        })?;

        let stop = Arc::new(AtomicBool::new(false));
        let puller = {
            let repo = Arc::clone(&repo);
            let applier = Arc::clone(&applier);
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let cfg = cfg.clone();
            thread::Builder::new()
                .name("pse-replica-puller".into())
                .spawn(move || puller_loop(&repo, &applier, &registry, primary_addr, &cfg, &stop))
                .map_err(io_err)?
        };

        Ok(Replica {
            server,
            repo,
            applier,
            registry,
            stop,
            puller: Some(puller),
        })
    }

    /// Listening address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// How far the applier has caught up.
    pub fn applied(&self) -> u64 {
        self.applier.applied()
    }

    /// The replica's repository (tests compare its state to the primary's).
    pub fn repo(&self) -> &Arc<FsRepository> {
        &self.repo
    }

    /// The replica's version store (rebuilt from the change log).
    pub fn versions(&self) -> &VersionStore {
        self.repo.versions()
    }

    /// The node's metric registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Block until the applier reaches `target` (or `timeout` passes).
    pub fn wait_caught_up(&self, target: u64, timeout: Duration) -> bool {
        let start = Instant::now();
        while self.applier.applied() < target {
            if start.elapsed() > timeout {
                return false;
            }
            thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Stop the puller and the server.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.puller.take() {
            let _ = h.join();
        }
        self.server.shutdown();
    }
}

/// The replica's pull loop: tail the primary's change feed, apply, and
/// fall back to a full snapshot resync when the log has been compacted
/// past our cursor.
fn puller_loop(
    repo: &Arc<FsRepository>,
    applier: &Arc<Applier>,
    registry: &Arc<Registry>,
    primary_addr: SocketAddr,
    cfg: &NodeConfig,
    stop: &Arc<AtomicBool>,
) {
    let applied_gauge = registry.gauge("cluster.replica.applied_seq");
    let lag_gauge = registry.gauge("cluster.replica.lag");
    let pull_errors = registry.counter("cluster.replica.pull_errors");
    let apply_errors = registry.counter("cluster.replica.apply_errors");
    let batches = registry.counter("cluster.replica.batches");
    let resyncs = registry.counter("cluster.replica.resyncs");
    let mut client: Option<Client> = None;

    while !stop.load(Ordering::SeqCst) {
        if client.is_none() {
            match Client::connect(primary_addr) {
                Ok(c) => client = Some(c),
                Err(_) => {
                    pull_errors.inc();
                    interruptible_sleep(stop, cfg.pull_interval.max(Duration::from_millis(20)));
                    continue;
                }
            }
        }
        let c = client.as_mut().expect("connected above");
        let since = applier.applied();
        let req = Request::new(
            Method::Get,
            &format!("{CHANGES_PATH}?since={since}&max={}", cfg.batch_limit),
        );
        let resp = match c.send(req) {
            Ok(r) => r,
            Err(_) => {
                client = None;
                pull_errors.inc();
                interruptible_sleep(stop, cfg.pull_interval.max(Duration::from_millis(20)));
                continue;
            }
        };
        let log_last: u64 = resp
            .headers
            .get(LOG_LAST_HEADER)
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(since);
        match resp.status.code() {
            200 => {
                let (entries, consumed) = log::decode_frames(&resp.body);
                if consumed != resp.body.len() {
                    // Corrupt tail on the wire: apply the clean prefix,
                    // the next pull re-fetches the rest.
                    pull_errors.inc();
                }
                if entries.is_empty() {
                    lag_gauge.set((log_last.saturating_sub(applier.applied())) as i64);
                    interruptible_sleep(stop, cfg.pull_interval);
                    continue;
                }
                match applier.apply_batch(repo.as_ref(), &entries) {
                    Ok(_) => batches.inc(),
                    Err(ApplyError::Gap { .. }) => {
                        // The feed itself has a hole (compaction raced
                        // our read): resync below via the 410 path on
                        // the next pull.
                        apply_errors.inc();
                    }
                    Err(_) => apply_errors.inc(),
                }
                applied_gauge.set(applier.applied() as i64);
                lag_gauge.set((log_last.saturating_sub(applier.applied())) as i64);
                // A full batch means more is probably waiting: keep
                // pulling without sleeping.
                if entries.len() < cfg.batch_limit {
                    interruptible_sleep(stop, cfg.pull_interval);
                }
            }
            410 => {
                resyncs.inc();
                // A failed resync is counted and retried on the next pull.
                if full_resync(repo.as_ref(), applier, primary_addr, log_last).is_err() {
                    pull_errors.inc();
                    interruptible_sleep(stop, cfg.pull_interval.max(Duration::from_millis(20)));
                }
                applied_gauge.set(applier.applied() as i64);
            }
            _ => {
                pull_errors.inc();
                interruptible_sleep(stop, cfg.pull_interval.max(Duration::from_millis(20)));
            }
        }
    }
}

fn interruptible_sleep(stop: &AtomicBool, total: Duration) {
    let start = Instant::now();
    while start.elapsed() < total && !stop.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(2).min(total));
    }
}

/// Rebuild the whole replica state from a primary snapshot: wipe local
/// content, mirror the tree via `PROPFIND Depth: infinity` + `GET`, and
/// jump the cursor to `target` (the primary's log head at `410` time —
/// changes after it arrive through the normal feed).
///
/// Version histories are not part of the snapshot: the replica keeps
/// whatever its persistent version store already holds, so histories
/// recorded before the compaction horizon survive a resync, but
/// version events that fell into the compacted gap are lost on this
/// replica (history reads can be routed primary-side if that matters).
/// The snapshot's PUTs auto-version like any other, so a versioned
/// document whose body moved on in the gap gains that body as a
/// version here.
fn full_resync(
    repo: &dyn Repository,
    applier: &Applier,
    primary_addr: SocketAddr,
    target: u64,
) -> Result<()> {
    let mut client = DavClient::connect(primary_addr)?;

    for child in repo.list("/")? {
        let _ = repo.delete(&format!("/{child}"));
    }
    for name in repo.list_props("/")? {
        let _ = repo.remove_prop("/", &name);
    }

    let ms = client.propfind_all("/", Depth::Infinity)?;
    let mut entries: Vec<_> = ms.responses.iter().collect();
    // Parents before children so MKCOL/PUT never hit a missing parent.
    entries.sort_by_key(|e| e.href.split('/').filter(|s| !s.is_empty()).count());

    let resourcetype = PropertyName::dav("resourcetype");
    let contenttype = PropertyName::dav("getcontenttype");
    for e in entries {
        let is_collection = e
            .prop(&resourcetype)
            .map_or(false, |p| p.value.child(Some(DAV_NS), "collection").is_some());
        if e.href != "/" {
            if is_collection {
                let _ = repo.mkcol(&e.href); // tolerate leftovers
            } else {
                let body = client.get(&e.href)?;
                let ct = e.prop(&contenttype).map(|p| p.text_value());
                repo.put(&e.href, &body, ct.as_deref())?;
            }
        }
        for p in e.ok_props().filter(|p| !p.name.is_live()) {
            let _ = repo.set_prop(&e.href, p);
        }
    }
    applier
        .set_applied(target)
        .map_err(|e| pse_dav::DavError::Io(Arc::new(e)))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_method_split() {
        assert!(is_read_method(&Method::Get));
        assert!(is_read_method(&Method::PropFind));
        // SEARCH mutates nothing — replicas must absorb query load, not
        // bounce it to the primary.
        assert!(is_read_method(&Method::Search));
        assert!(is_read_method(&Method::Report));
        assert!(!is_read_method(&Method::Put));
        assert!(!is_read_method(&Method::Move));
        assert!(!is_read_method(&Method::Lock));
        assert!(!is_read_method(&Method::VersionControl));
        assert!(!is_read_method(&Method::Extension("BREW".into())));
    }

    #[test]
    fn changes_query_parsing_is_defensive() {
        assert_eq!(parse_changes_query(Some("since=7&max=10"), 512), (7, 10));
        assert_eq!(parse_changes_query(Some("max=9999"), 512), (0, 512));
        assert_eq!(
            parse_changes_query(Some(&format!("since={}", u64::MAX)), 512),
            (u64::MAX - 1, 512)
        );
        assert_eq!(parse_changes_query(Some("garbage&max=0"), 512), (0, 1));
        assert_eq!(parse_changes_query(None, 64), (0, 64));
    }
}
