//! The consistent-hash front-end router.
//!
//! One address for the whole cluster: the router hashes each request's
//! [shard key](crate::ring::shard_key) onto a [`HashRing`] of backend
//! shards, sends writes to the shard's primary, and sends each read to
//! the shard's next replica in turn, falling back to the primary.
//!
//! ## Read-your-writes
//!
//! Every successful write response from a primary carries
//! `X-Change-Seq`; every replica read carries the replica's
//! `X-Applied-Seq`. The router keeps *write floors*: the highest
//! `X-Change-Seq` of the writes it acknowledged (`fetch_max`, so
//! concurrent writes keep the highest). A replica answer whose
//! `X-Applied-Seq` is below the read's floor is discarded and the read
//! repeats on the primary. So every read through the router sees every
//! write acknowledged through the router that could change its answer.
//!
//! Floors are kept per resource, so a write holds back only the reads it
//! could change. Each shard has two tables, `point` and `subtree`:
//!
//! * a write raises `point[t]` for its target `t` and `subtree[a]` for
//!   `t` and every ancestor `a`; a COPY or MOVE does the same for its
//!   `Destination`;
//! * a read of `p` waits for `subtree[p]` (a write to `p` or to a member
//!   changes a Depth-1 or Depth-infinity PROPFIND of `p`) and for
//!   `point[a]` of every strict ancestor `a` (a DELETE, MOVE, PROPPATCH
//!   or LOCK of an enclosing collection can change `p`'s answer).
//!
//! Both tables are fixed arrays of 4096 slots indexed by the FNV hash
//! of the path. Two paths sharing a slot only make a read wait for the
//! other path's writes too, which sends it to the primary; a collision
//! never makes a read stale. A history URL
//! `/.well-known/history/<p>[/<n>]` reads with the floor of `/<p>`.
//! SEARCH (its scope is in the body) and every other `/.well-known/`
//! read wait for the shard-wide floor, the highest sequence number of
//! any write through the router to the shard.
//!
//! Reads of resources with no recent write stay on the replicas while
//! writers are busy elsewhere. A write that did not pass through this
//! router raises no floor: such reads are bounded-staleness, and the lag
//! gauges on each replica bound the window.
//!
//! ## Failover
//!
//! A backend that fails transport-level `max_failures` times in a row
//! is ejected from the read rotation for `retry_after`; after that one
//! probe request is allowed through (half-open) and a success re-admits
//! it. Reads always fall back to the primary; a dead primary surfaces
//! as `502 Bad Gateway` (there is no write failover without consensus,
//! which is out of scope — the paper's deployments ran one writable
//! server per site).

use crate::node::{is_read_method, APPLIED_SEQ_HEADER, CHANGE_SEQ_HEADER};
use crate::ring::{live_path, shard_key, HashRing};
use parking_lot::Mutex;
use pse_cache::fnv1a_64;
use pse_http::server::{Server, ServerConfig};
use pse_http::uri::Target;
use pse_http::{Client, Method, Request, Response, RetryPolicy, StatusCode};
use pse_obs::{Counter, Registry};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard: a primary and its replicas.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// The shard's writable node.
    pub primary: SocketAddr,
    /// Read-only followers of that primary.
    pub replicas: Vec<SocketAddr>,
}

/// Router tuning.
#[derive(Clone)]
pub struct RouterConfig {
    /// HTTP server configuration for the router's own listener.
    pub server: ServerConfig,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Answer writes with `307` to the shard primary instead of
    /// proxying them (clients must then follow redirects).
    pub redirect_writes: bool,
    /// Consecutive transport failures before a backend is ejected from
    /// the read rotation.
    pub max_failures: u32,
    /// How long an ejected backend sits out before a half-open probe.
    pub retry_after: Duration,
    /// Per-attempt socket timeout towards backends (a stalled backend
    /// becomes a fast failover, not a hung client).
    pub backend_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            server: ServerConfig {
                max_requests_per_connection: 1_000_000,
                ..ServerConfig::default()
            },
            vnodes: 64,
            redirect_writes: false,
            max_failures: 2,
            retry_after: Duration::from_millis(500),
            backend_timeout: Duration::from_secs(5),
        }
    }
}

/// One upstream node: a connection pool plus failure accounting.
struct Backend {
    addr: SocketAddr,
    pool: Mutex<Vec<Client>>,
    failures: AtomicU32,
    ejected_until: Mutex<Option<Instant>>,
    retry: RetryPolicy,
}

impl Backend {
    fn new(addr: SocketAddr, cfg: &RouterConfig) -> Backend {
        Backend {
            addr,
            pool: Mutex::new(Vec::new()),
            failures: AtomicU32::new(0),
            ejected_until: Mutex::new(None),
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(20),
                deadline: Some(cfg.backend_timeout * 2),
                read_timeout: Some(cfg.backend_timeout),
                write_timeout: Some(cfg.backend_timeout),
                ..RetryPolicy::default()
            },
        }
    }

    /// In the rotation? Ejected backends return `false` until
    /// `retry_after` has passed; then one half-open probe is allowed.
    fn usable(&self, max_failures: u32) -> bool {
        if self.failures.load(Ordering::Relaxed) < max_failures {
            return true;
        }
        let mut until = self.ejected_until.lock();
        match *until {
            Some(t) if Instant::now() < t => false,
            _ => {
                // Half-open: let this caller probe, push the next probe
                // out so a thundering herd doesn't pile onto a corpse.
                *until = Some(Instant::now() + Duration::from_millis(100));
                true
            }
        }
    }

    /// Send `req` over a pooled connection (opened on demand). The
    /// connection returns to the pool only on success.
    fn call(&self, req: Request) -> pse_http::Result<Response> {
        let mut client = match self.pool.lock().pop() {
            Some(c) => c,
            None => {
                let mut c = Client::connect(self.addr)?;
                c.set_retry_policy(self.retry.clone());
                c
            }
        };
        match client.send(req) {
            Ok(resp) => {
                self.pool.lock().push(client);
                Ok(resp)
            }
            Err(e) => Err(e),
        }
    }

    fn record_success(&self) {
        self.failures.store(0, Ordering::Relaxed);
        *self.ejected_until.lock() = None;
    }

    fn record_failure(&self, max_failures: u32, retry_after: Duration) {
        let n = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= max_failures {
            *self.ejected_until.lock() = Some(Instant::now() + retry_after);
        }
    }
}

/// Slots in each per-resource floor table (a power of two).
const FLOOR_SLOTS: usize = 4096;

/// The read-your-writes floors of one shard (see the module docs).
struct Floors {
    /// Highest `X-Change-Seq` of any write through this router: the
    /// floor of SEARCH and of `/.well-known/` reads.
    write_floor: AtomicU64,
    /// Highest seq of a write whose target or destination hashes here.
    point: Box<[AtomicU64]>,
    /// Highest seq of a write at or below a path that hashes here.
    subtree: Box<[AtomicU64]>,
}

impl Floors {
    fn new() -> Floors {
        let table = || (0..FLOOR_SLOTS).map(|_| AtomicU64::new(0)).collect();
        Floors {
            write_floor: AtomicU64::new(0),
            point: table(),
            subtree: table(),
        }
    }

    fn slot(path: &str) -> usize {
        fnv1a_64(path.as_bytes()) as usize & (FLOOR_SLOTS - 1)
    }

    /// Record an acknowledged write to `path` covered by `seq`.
    fn note_write(&self, path: &str, seq: u64) {
        let path = live_path(path);
        self.write_floor.fetch_max(seq, Ordering::SeqCst);
        self.point[Self::slot(path)].fetch_max(seq, Ordering::SeqCst);
        for p in std::iter::once(path).chain(ancestors(path)) {
            self.subtree[Self::slot(p)].fetch_max(seq, Ordering::SeqCst);
        }
    }

    /// The seq a replica must have applied to answer `method` on `path`.
    fn read_floor(&self, method: &Method, path: &str) -> u64 {
        let path = live_path(path);
        if *method == Method::Search || shard_key(path) == ".well-known" {
            return self.write_floor.load(Ordering::SeqCst);
        }
        let own = self.subtree[Self::slot(path)].load(Ordering::SeqCst);
        ancestors(path)
            .map(|a| self.point[Self::slot(a)].load(Ordering::SeqCst))
            .fold(own, u64::max)
    }
}

/// The strict ancestors of a canonical path, nearest first:
/// `/a/b/c` → `/a/b`, `/a`, `/`.
fn ancestors(path: &str) -> impl Iterator<Item = &str> {
    let mut rest = path;
    std::iter::from_fn(move || {
        if rest == "/" {
            return None;
        }
        rest = match rest.rfind('/') {
            Some(0) | None => "/",
            Some(i) => &rest[..i],
        };
        Some(rest)
    })
}

/// Per-shard routing state.
struct Shard {
    primary: Backend,
    replicas: Vec<Backend>,
    rr: AtomicUsize,
    floors: Floors,
}

/// Counters the routing hot path records into.
struct RouterObs {
    writes: Counter,
    redirects: Counter,
    reads_primary: Counter,
    reads_replica: Counter,
    stale_retries: Counter,
    failovers: Counter,
    errors: Counter,
}

impl RouterObs {
    fn resolve(r: &Arc<Registry>) -> RouterObs {
        RouterObs {
            writes: r.counter("cluster.router.writes"),
            redirects: r.counter("cluster.router.redirects"),
            reads_primary: r.counter("cluster.router.reads_primary"),
            reads_replica: r.counter("cluster.router.reads_replica"),
            stale_retries: r.counter("cluster.router.stale_retries"),
            failovers: r.counter("cluster.router.failovers"),
            errors: r.counter("cluster.router.errors"),
        }
    }
}

/// The running front end.
pub struct Router {
    server: Server,
    registry: Arc<Registry>,
    ring: HashRing,
}

impl Router {
    /// Start a router on `addr` over `backends` (one [`BackendSpec`]
    /// per shard; the ring is built over their indices).
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        backends: &[BackendSpec],
        cfg: RouterConfig,
    ) -> pse_http::Result<Router> {
        assert!(!backends.is_empty(), "a router needs at least one shard");
        let ring = HashRing::new(backends.len(), cfg.vnodes);
        let shards: Arc<Vec<Shard>> = Arc::new(
            backends
                .iter()
                .map(|spec| Shard {
                    primary: Backend::new(spec.primary, &cfg),
                    replicas: spec.replicas.iter().map(|&a| Backend::new(a, &cfg)).collect(),
                    rr: AtomicUsize::new(0),
                    floors: Floors::new(),
                })
                .collect(),
        );
        let registry = Registry::new();
        let obs = RouterObs::resolve(&registry);
        {
            let shards = Arc::clone(&shards);
            let max_failures = cfg.max_failures;
            registry.register_source("cluster.router", move |snap| {
                let usable: usize = shards
                    .iter()
                    .map(|s| s.replicas.iter().filter(|b| b.usable(max_failures)).count())
                    .sum();
                snap.set_gauge("cluster.router.replicas_usable", usable as i64);
                snap.set_gauge(
                    "cluster.router.write_floor",
                    shards
                        .iter()
                        .map(|s| s.floors.write_floor.load(Ordering::Relaxed))
                        .max()
                        .unwrap_or(0) as i64,
                );
            });
        }

        let mut server_cfg = cfg.server.clone();
        server_cfg.obs = Some(Arc::clone(&registry));
        let route_ring = ring.clone();
        let server = Server::bind(addr, server_cfg, move |req: Request| {
            route(req, &route_ring, &shards, &cfg, &obs)
        })?;
        Ok(Router {
            server,
            registry,
            ring,
        })
    }

    /// Listening address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The router's metric registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Which shard index a path routes to (for tests).
    pub fn shard_for(&self, path: &str) -> usize {
        self.ring.backend_for(shard_key(path))
    }

    /// Stop serving.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Hop-by-hop hygiene: connection management is per-hop, and the
/// backend client sets its own `Host`.
fn scrub_request(req: &mut Request) {
    req.headers.remove("Connection");
    req.headers.remove("Keep-Alive");
    req.headers.remove("Host");
}

fn scrub_response(mut resp: Response) -> Response {
    resp.headers.remove("Connection");
    resp.headers.remove("Keep-Alive");
    resp
}

fn bad_gateway(what: &str) -> Response {
    Response::new(StatusCode::new(502)).with_body(format!("upstream failed: {what}").into_bytes())
}

/// The canonical `Destination` path of a COPY or MOVE.
fn destination(req: &Request) -> Option<String> {
    if !matches!(req.method, Method::Copy | Method::Move) {
        return None;
    }
    let dst = req.headers.get("Destination")?;
    Some(Target::parse(dst).path().to_owned())
}

fn seq_header(resp: &Response, name: &str) -> Option<u64> {
    resp.headers.get(name).and_then(|v| v.trim().parse().ok())
}

/// Route one request to its shard.
fn route(
    mut req: Request,
    ring: &HashRing,
    shards: &[Shard],
    cfg: &RouterConfig,
    obs: &RouterObs,
) -> Response {
    let home = ring.backend_for(shard_key(req.target.path()));
    let shard = &shards[home];
    scrub_request(&mut req);

    if !is_read_method(&req.method) {
        return write(req, home, ring, shard, cfg, obs);
    }

    // Read path: rotate across replicas, verify the read's floor, fall
    // back to the primary on staleness or failure.
    let floor = shard.floors.read_floor(&req.method, req.target.path());
    if !shard.replicas.is_empty() {
        let start = shard.rr.fetch_add(1, Ordering::Relaxed);
        for i in 0..shard.replicas.len() {
            let replica = &shard.replicas[(start + i) % shard.replicas.len()];
            if !replica.usable(cfg.max_failures) {
                continue;
            }
            match replica.call(req.clone()) {
                Ok(resp) => {
                    replica.record_success();
                    if seq_header(&resp, APPLIED_SEQ_HEADER).unwrap_or(0) >= floor {
                        obs.reads_replica.inc();
                        return scrub_response(resp);
                    }
                    // Behind the floor: this replica hasn't applied a
                    // write this router already acknowledged.
                    obs.stale_retries.inc();
                    break;
                }
                Err(_) => {
                    replica.record_failure(cfg.max_failures, cfg.retry_after);
                    obs.failovers.inc();
                }
            }
        }
    }
    match shard.primary.call(req) {
        Ok(resp) => {
            shard.primary.record_success();
            obs.reads_primary.inc();
            scrub_response(resp)
        }
        Err(e) => {
            obs.errors.inc();
            shard
                .primary
                .record_failure(cfg.max_failures, cfg.retry_after);
            bad_gateway(&e.to_string())
        }
    }
}

/// Send a write to the shard primary and raise the floors of what it
/// changed.
fn write(
    req: Request,
    home: usize,
    ring: &HashRing,
    shard: &Shard,
    cfg: &RouterConfig,
    obs: &RouterObs,
) -> Response {
    let target = req.target.path().to_owned();
    let dst = destination(&req);
    // COPY/MOVE whose destination hashes to a different shard would be
    // executed entirely on the source backend and the result would be
    // unreachable through the ring. RFC 2518 §8.8 reserves 502 for
    // exactly this: "the destination is on another server".
    if let Some(dst) = &dst {
        if ring.backend_for(shard_key(dst)) != home {
            obs.errors.inc();
            return Response::new(StatusCode::new(502)).with_body(
                format!("destination {dst} lives on a different shard than {target}").into_bytes(),
            );
        }
    }
    if cfg.redirect_writes {
        obs.redirects.inc();
        return Response::new(StatusCode::TEMPORARY_REDIRECT)
            .with_header("Location", format!("http://{}{target}", shard.primary.addr));
    }
    obs.writes.inc();
    match shard.primary.call(req) {
        Ok(resp) => {
            shard.primary.record_success();
            if resp.status.is_success() {
                if let Some(seq) = seq_header(&resp, CHANGE_SEQ_HEADER) {
                    shard.floors.note_write(&target, seq);
                    if let Some(dst) = &dst {
                        shard.floors.note_write(dst, seq);
                    }
                }
            }
            scrub_response(resp)
        }
        Err(e) => {
            obs.errors.inc();
            shard
                .primary
                .record_failure(cfg.max_failures, cfg.retry_after);
            bad_gateway(&e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_ejection_and_half_open_readmission() {
        let cfg = RouterConfig {
            retry_after: Duration::from_millis(30),
            ..RouterConfig::default()
        };
        let b = Backend::new("127.0.0.1:1".parse().unwrap(), &cfg);
        assert!(b.usable(cfg.max_failures));
        b.record_failure(cfg.max_failures, cfg.retry_after);
        assert!(b.usable(cfg.max_failures), "one failure is tolerated");
        b.record_failure(cfg.max_failures, cfg.retry_after);
        assert!(!b.usable(cfg.max_failures), "ejected at max_failures");
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.usable(cfg.max_failures), "half-open probe after retry_after");
        b.record_success();
        assert!(b.usable(cfg.max_failures), "success re-admits");
        assert_eq!(b.failures.load(Ordering::Relaxed), 0);
    }

    fn get_floor(f: &Floors, path: &str) -> u64 {
        f.read_floor(&Method::Get, path)
    }

    #[test]
    fn a_write_raises_its_ancestors_and_holds_back_only_related_reads() {
        let f = Floors::new();
        f.note_write("/a/b/c", 5);
        for p in ["/", "/a", "/a/b", "/a/b/c", "/a/b/c/d"] {
            assert_eq!(get_floor(&f, p), 5, "{p} must wait for a write to /a/b/c");
        }
        for p in ["/a/x", "/a/b/x", "/z", "/z/a/b/c"] {
            assert_eq!(get_floor(&f, p), 0, "{p} is unrelated to /a/b/c");
        }
        assert_eq!(f.write_floor.load(Ordering::SeqCst), 5);
        // fetch_max: an older acknowledgement never lowers a floor.
        f.note_write("/a/b/c", 3);
        assert_eq!(get_floor(&f, "/a/b/c"), 5);
        assert_eq!(ancestors("/a/b/c").collect::<Vec<_>>(), ["/a/b", "/a", "/"]);
        assert_eq!(ancestors("/").count(), 0);
    }

    #[test]
    fn a_move_raises_its_destination() {
        let req = Request::new(Method::Move, "/p/a")
            .with_header("Destination", "http://front:8080/p/run/b");
        let dst = destination(&req);
        assert_eq!(dst.as_deref(), Some("/p/run/b"));
        assert_eq!(destination(&Request::new(Method::Put, "/p/a")), None);

        let f = Floors::new();
        f.note_write(req.target.path(), 9);
        f.note_write(dst.as_deref().unwrap(), 9);
        for p in ["/p/a", "/p/run/b", "/p/run/b/member", "/p/run", "/p"] {
            assert_eq!(get_floor(&f, p), 9, "{p} must wait for the MOVE");
        }
        assert_eq!(get_floor(&f, "/p/run/other"), 0);
    }

    #[test]
    fn a_collection_write_holds_back_reads_of_its_members() {
        // DELETE, MOVE or PROPPATCH of /p: every member's answer may change.
        let f = Floors::new();
        f.note_write("/p", 7);
        for p in ["/p", "/p/doc", "/p/run/out"] {
            assert_eq!(get_floor(&f, p), 7, "{p}");
        }
        assert_eq!(get_floor(&f, "/q/doc"), 0);
        assert_eq!(get_floor(&f, "/pq"), 0, "a name prefix is not an ancestor");
    }

    #[test]
    fn history_urls_read_with_their_live_floor() {
        let f = Floors::new();
        f.note_write("/p/doc", 4);
        assert_eq!(get_floor(&f, "/.well-known/history/p/doc/3"), 4);
        let index = "/.well-known/history/p/doc";
        assert_eq!(f.read_floor(&Method::PropFind, index), 4);
        assert_eq!(f.read_floor(&Method::Report, "/p/doc"), 4);
        assert_eq!(get_floor(&f, "/.well-known/history/p/other/1"), 0);
        // A revert COPY's target is a version URL: it counts for /p/doc.
        f.note_write("/.well-known/history/p/doc/1", 6);
        assert_eq!(get_floor(&f, "/p/doc"), 6);
        // Other well-known reads and SEARCH wait for the shard-wide floor.
        f.note_write("/q/x", 8);
        assert_eq!(get_floor(&f, "/.well-known/changes"), 8);
        assert_eq!(get_floor(&f, "/.well-known/history"), 8);
        assert_eq!(f.read_floor(&Method::Search, "/p"), 8);
        assert_eq!(get_floor(&f, "/p/doc"), 6);
    }

    #[test]
    fn a_slot_collision_only_raises_a_floor() {
        let read = "/p/doc";
        let twin = (0..)
            .map(|i| format!("/c{i}"))
            .find(|c| Floors::slot(c) == Floors::slot(read))
            .unwrap();
        let f = Floors::new();
        f.note_write(read, 10);
        f.note_write(&twin, 3);
        assert_eq!(get_floor(&f, read), 10, "an older twin lowers nothing");
        f.note_write(&twin, 12);
        assert_eq!(get_floor(&f, read), 12, "a newer twin holds the read back");
    }

    #[test]
    fn scrubbing_strips_hop_by_hop_headers() {
        let mut req = Request::new(pse_http::Method::Get, "/a")
            .with_header("Connection", "keep-alive")
            .with_header("Host", "front")
            .with_header("X-App", "kept");
        scrub_request(&mut req);
        assert!(!req.headers.contains("Connection"));
        assert!(!req.headers.contains("Host"));
        assert_eq!(req.headers.get("X-App"), Some("kept"));
        let resp = scrub_response(Response::ok().with_header("Connection", "close"));
        assert!(!resp.headers.contains("Connection"));
    }
}
