//! Cluster nodes: [`Primary`] and [`Replica`].
//!
//! A primary is a full DAV server whose repository records every
//! committed mutation into a [`ChangeLog`] through its commit hook
//! ([`ChangeLog::record_commits`]), plus one reserved read-only
//! endpoint, [`CHANGES_PATH`], that ships the change log to replicas:
//!
//! ```text
//! GET /.well-known/changes?since=N&max=K&replica=ID
//!   200  body = frames (seq, len, payload, checksum)*   fresh entries
//!        X-Change-Log-Last: <last seq in the log>
//!   410  N lies outside the retained window — behind it (the log was
//!        compacted past N) or past its end (the primary lost its tail)
//!        — catch up via full resync
//!        X-Change-Log-Last: <resync target seq>
//! ```
//!
//! `ID` names the replica (created once, kept in `dir/replica.id`
//! beside its cursor) and `N` is its durable cursor. The primary
//! records both with the time it saw them ([`ChangeLog::note_replica`])
//! and keeps only the frames some live replica still needs, under a
//! byte cap (see [`crate::log`]). A pull without a well-formed `ID`
//! is served but holds nothing back.
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
//! auto-versioning and replaying a Rename moves the histories, so
//! history reads — `REPORT`, GET and PROPFIND under
//! `/.well-known/history/` — are served locally with read-your-writes
//! guarantees from `X-Applied-Seq`. A snapshot resync carries the
//! histories too ([`DeltaV::install_history`]).

use crate::apply::{Applier, ApplyError};
use crate::log::{self, ChangeLog, ReadError};
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
/// raises the read-your-writes floors of what the mutation changed.
pub const CHANGE_SEQ_HEADER: &str = "X-Change-Seq";

/// Response header a replica adds to every read: how far its applier
/// has caught up. A router compares it against the read's floor.
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

/// Is `id` usable as a replica name: 1 to 64 of `[A-Za-z0-9._-]`?
fn valid_replica_id(id: &str) -> bool {
    (1..=64).contains(&id.len())
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// `since`, `max` and the replica name from a change-feed query string.
/// A malformed value is ignored, as if absent.
fn parse_changes_query(query: Option<&str>, batch_limit: usize) -> (u64, usize, Option<&str>) {
    let mut since = 0u64;
    let mut max = batch_limit;
    let mut replica = None;
    for pair in query.unwrap_or("").split('&') {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match (key, value.parse::<u64>().ok()) {
            ("since", Some(v)) => since = v,
            ("max", Some(v)) => max = (v as usize).min(batch_limit),
            ("replica", _) if valid_replica_id(value) => replica = Some(value),
            _ => {}
        }
    }
    // Cursors compare as since+1; clamp so a hostile query can't
    // overflow.
    (since.min(u64::MAX - 1), max.max(1), replica)
}

/// Serve one change-feed request against `changelog`: note the replica
/// (which lets the log drop what every live replica has applied), then
/// copy out the frames after its cursor.
fn serve_changes(changelog: &ChangeLog, req: &Request, batch_limit: usize) -> Response {
    if req.method != Method::Get {
        return Response::new(StatusCode::METHOD_NOT_ALLOWED);
    }
    let (since, max, replica) = parse_changes_query(req.target.query(), batch_limit);
    if let Some(id) = replica {
        changelog.note_replica(id, since);
    }
    match changelog.frames_after(since, max) {
        Ok(frames) => Response::ok()
            .with_header("Content-Type", "application/octet-stream")
            .with_header(LOG_LAST_HEADER, frames.last_seq.to_string())
            .with_body(frames.bytes),
        Err(ReadError::Gap(gap)) => Response::new(StatusCode::GONE)
            .with_header(LOG_LAST_HEADER, gap.last_seq.to_string())
            .with_body(
                format!(
                    "log holds {}..={}, asked after {since}",
                    gap.start_seq, gap.last_seq
                )
                .into_bytes(),
            ),
        Err(e @ ReadError::Io(_)) => Response::error(StatusCode::INTERNAL_ERROR, &e.to_string()),
    }
}

/// This replica's name on the change feed: read from `dir/replica.id`,
/// or created there once (tmp + rename) from the clock, the process and
/// the directory.
fn replica_id(dir: &Path) -> std::io::Result<String> {
    let path = dir.join("replica.id");
    if let Ok(id) = std::fs::read_to_string(&path) {
        if valid_replica_id(id.trim()) {
            return Ok(id.trim().to_owned());
        }
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let seed = format!("{nanos}:{}:{}", std::process::id(), dir.display());
    let id = format!("{:016x}", pse_cache::fnv1a_64(seed.as_bytes()));
    let tmp = dir.join("replica.id.tmp");
    std::fs::write(&tmp, format!("{id}\n"))?;
    std::fs::rename(&tmp, &path)?;
    Ok(id)
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

    /// The change log (tests read its retention state).
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
        let id = replica_id(dir).map_err(io_err)?;

        let mut server_cfg = cfg.server.clone();
        server_cfg.obs = Some(Arc::clone(&registry));
        let applied = Arc::clone(&applier);
        let service_delay = cfg.service_delay;
        let server = Server::bind(addr, server_cfg, move |req: Request| {
            if !is_read_method(&req.method) {
                // Writes belong to the primary; 307 preserves method +
                // body across the hop (RFC 7538 semantics).
                return Response::new(StatusCode::TEMPORARY_REDIRECT).with_header(
                    "Location",
                    format!("http://{primary_addr}{}", req.target.path()),
                );
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
                .spawn(move || {
                    puller_loop(&repo, &applier, &registry, primary_addr, &id, &cfg, &stop)
                })
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

/// The replica's pull loop: tail the primary's change feed under this
/// replica's name `id`, apply, and fall back to a full snapshot resync
/// when the feed answers 410 (the cursor lies outside the log's
/// retained window).
fn puller_loop(
    repo: &Arc<FsRepository>,
    applier: &Arc<Applier>,
    registry: &Arc<Registry>,
    primary_addr: SocketAddr,
    id: &str,
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
            &format!(
                "{CHANGES_PATH}?since={since}&max={}&replica={id}",
                cfg.batch_limit
            ),
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
/// content, mirror the tree via `PROPFIND Depth: infinity` + `GET`,
/// install every document's version history as the primary holds it,
/// and jump the cursor to `target` (the primary's log head at `410`
/// time — changes after it arrive through the normal feed).
///
/// Histories come from `REPORT version-tree` and one `version-content`
/// per version, and are installed through
/// [`DeltaV::install_history`] under each path's write plan: numbers,
/// creation times, lengths, bodies and checkout state match the
/// primary's, so a replica that missed a CHECKOUT in the gap takes the
/// next replayed PUT instead of refusing it. A history the primary
/// lacks (say, left at the old path of a document moved in the gap) is
/// dropped. A history changed while the snapshot is read can come out
/// ahead of `target`; replaying the records after `target` then
/// appends their versions again, so the histories are exact when no
/// write to a versioned document overlaps the resync.
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
    let mut documents = Vec::new();
    for e in entries {
        let is_collection = e
            .prop(&resourcetype)
            .is_some_and(|p| p.value.child(Some(DAV_NS), "collection").is_some());
        if e.href != "/" {
            if is_collection {
                let _ = repo.mkcol(&e.href); // tolerate leftovers
            } else {
                let body = client.get(&e.href)?;
                let ct = e.prop(&contenttype).map(|p| p.text_value());
                repo.put(&e.href, &body, ct.as_deref())?;
                documents.push(e.href.clone());
            }
        }
        for p in e.ok_props().filter(|p| !p.name.is_live()) {
            let _ = repo.set_prop(&e.href, p);
        }
    }
    if let Some(deltav) = repo.deltav() {
        let mut installed = std::collections::HashSet::new();
        for path in documents {
            if let Some(image) = client.history_image(&path)? {
                deltav.install_history(&path, Some(&image))?;
                installed.insert(path);
            }
        }
        for path in deltav.versions().versioned_paths() {
            if !installed.contains(&path) {
                deltav.install_history(&path, None)?;
            }
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
        assert_eq!(
            parse_changes_query(Some("since=7&max=10"), 512),
            (7, 10, None)
        );
        assert_eq!(parse_changes_query(Some("max=9999"), 512), (0, 512, None));
        assert_eq!(
            parse_changes_query(Some(&format!("since={}", u64::MAX)), 512),
            (u64::MAX - 1, 512, None)
        );
        assert_eq!(
            parse_changes_query(Some("garbage&max=0"), 512),
            (0, 1, None)
        );
        assert_eq!(parse_changes_query(None, 64), (0, 64, None));
        assert_eq!(
            parse_changes_query(Some("since=3&replica=r-1.a_B"), 64),
            (3, 64, Some("r-1.a_B"))
        );
    }

    /// A cursor past the log's end (the primary lost its unsynced tail
    /// and reuses those sequence numbers) gets 410, so the replica
    /// resyncs instead of deduping fresh records as duplicates; the
    /// 410 names the primary's real head as the resync target. A
    /// malformed replica name is served but never noted.
    #[test]
    fn feed_answers_gone_when_since_is_past_the_end() {
        let dir = std::env::temp_dir().join(format!("pse-node-ahead-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = ChangeLog::open(&dir).unwrap();
        for n in 0..3 {
            log.append(&crate::record::ChangeRecord::Mkcol {
                path: format!("/c{n}"),
            })
            .unwrap();
        }
        let pull = |query: &str| {
            serve_changes(
                &log,
                &Request::new(Method::Get, &format!("{CHANGES_PATH}?{query}")),
                512,
            )
        };
        let resp = pull("since=7&replica=r1");
        assert_eq!(resp.status.code(), 410);
        assert_eq!(resp.headers.get(LOG_LAST_HEADER), Some("3"));
        assert_eq!(
            log.stats().replicas,
            0,
            "a cursor past the end is not noted"
        );

        for bad in ["", "a%20b", "a/b", "é", &"r".repeat(65)] {
            assert_eq!(
                parse_changes_query(Some(&format!("since=1&replica={bad}")), 512).2,
                None,
                "{bad:?}"
            );
        }
        let resp = pull("since=1&replica=bad/name");
        assert_eq!(resp.status.code(), 200);
        assert_eq!(log::decode_frames(&resp.body).0.len(), 2);
        assert_eq!(log.stats().replicas, 0, "a malformed name is never noted");
        assert_eq!(log.start_seq(), 1);

        let resp = pull("since=3&replica=r1");
        assert_eq!(resp.status.code(), 200);
        assert!(resp.body.is_empty());
        assert_eq!(log.stats().replicas, 1);
        assert_eq!(log.start_seq(), 3, "r1's cursor moved the window");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
