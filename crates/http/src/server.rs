//! An HTTP/1.1 server with Apache-style connection management, run on
//! an epoll reactor.
//!
//! The paper's test server was "configured to use basic authentication,
//! to accept persistent connections with limits of 100 connections per
//! minute, 15 seconds between requests, and a minimum of 5 daemons".
//! [`ServerConfig`] exposes exactly those knobs: a fixed worker pool
//! (`min_daemons`), a per-connection request budget
//! (`max_requests_per_connection`), and an inter-request keep-alive
//! timeout (`keep_alive_timeout`) kept separate from the in-request
//! body read deadline (`body_read_timeout`).
//!
//! Connections live on the reactor ([`crate::reactor`]): one thread owns
//! every socket and parses requests incrementally
//! ([`crate::conn::RequestParser`]), a parked keep-alive connection
//! costs a fd plus a few hundred bytes, and exactly `min_daemons`
//! workers run each request through the [`Engine`] — metrics endpoint,
//! authentication, gzip coding, the request budget, and tracing. The
//! reactor uses epoll, so the server is Linux-only.
//!
//! Every server records into a [`pse_obs::Registry`] (its own, or one
//! shared through [`ServerConfig::obs`]): per-method request counters,
//! status-class counters, a request latency histogram, queue/connection
//! gauges, byte counters, and a trace ring. The registry is exposed in
//! plain text at the reserved `GET /.well-known/metrics` endpoint,
//! served before authentication and dispatch.
//!
//! Handlers are plain `Fn(Request) -> Response` values; the DAV layer
//! plugs its method dispatcher in here.

use crate::auth::UserStore;
use crate::error::Result;
use crate::gzip;
use crate::message::{Request, Response};
use crate::method::Method;
use crate::status::StatusCode;
use crate::wire::{self, Limits};
use pse_obs::{Histogram, Registry, TraceEvent};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The reserved metrics path, answered before auth and dispatch.
pub const METRICS_PATH: &str = "/.well-known/metrics";

/// Connection-management configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Size of the reactor's fixed worker pool — the paper's "minimum of
    /// 5 daemons". Workers run handlers only; parked keep-alive
    /// connections never occupy one.
    pub min_daemons: usize,
    /// Requests served on one persistent connection before it is closed —
    /// the paper's "100 connections per minute" budget analogue
    /// (Apache's `MaxKeepAliveRequests 100`).
    pub max_requests_per_connection: usize,
    /// How long to wait between requests on a persistent connection —
    /// the paper's "15 seconds between requests" (`KeepAliveTimeout 15`).
    pub keep_alive_timeout: Duration,
    /// Read deadline applied from the moment a request line arrives
    /// until its body has been read. Kept separate from (and longer
    /// than) `keep_alive_timeout`: a client pausing mid-upload is slow,
    /// not idle.
    pub body_read_timeout: Duration,
    /// Wire-format limits (header sizes, body cap).
    pub limits: Limits,
    /// Optional basic-auth user store; when set, every request must
    /// authenticate or receives `401` with a challenge.
    pub auth: Option<UserStore>,
    /// Metric registry to record into. `None` means the server creates
    /// its own (reachable via [`Server::registry`]); pass a shared one
    /// to combine layers (the DAV server shares its handler's).
    pub obs: Option<Arc<Registry>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            min_daemons: 5,
            max_requests_per_connection: 100,
            keep_alive_timeout: Duration::from_secs(15),
            body_read_timeout: Duration::from_secs(120),
            limits: Limits::default(),
            auth: None,
            obs: None,
        }
    }
}

/// Counters exposed for tests and benchmarks.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted since start.
    pub connections: AtomicU64,
    /// Requests served since start.
    pub requests: AtomicU64,
    /// Requests rejected by authentication.
    pub auth_failures: AtomicU64,
}

/// One request's worth of processing output, produced by
/// [`Engine::respond`] and consumed by [`Engine::finish`] once the
/// response bytes have gone out (or been handed to the reactor).
pub(crate) struct Exchange {
    pub(crate) resp: Response,
    /// HEAD request: serialise headers only.
    pub(crate) head_only: bool,
    /// Close the connection after this response (client asked, budget
    /// exhausted, or the handler set `Connection: close`).
    pub(crate) close: bool,
    trace_what: String,
    started: Instant,
}

impl Exchange {
    /// The 500 sent when a handler panics: the fixed pool cannot afford
    /// to lose the worker thread.
    pub(crate) fn handler_panicked(started: Instant) -> Exchange {
        Exchange {
            resp: Response::error(StatusCode::INTERNAL_ERROR, "internal server error")
                .with_header("Connection", "close"),
            head_only: false,
            close: true,
            trace_what: String::new(),
            started,
        }
    }
}

/// The request core: metrics endpoint, per-method counters, the auth
/// gate, handler dispatch, connection-close policy, and exchange
/// accounting. Every reactor worker runs each request through this.
pub(crate) struct Engine {
    pub(crate) handler: Box<dyn Fn(Request) -> Response + Send + Sync>,
    pub(crate) config: ServerConfig,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) obs: Arc<Registry>,
    latency: Histogram,
}

impl Engine {
    fn new<H>(
        config: ServerConfig,
        handler: H,
        stats: Arc<ServerStats>,
        obs: Arc<Registry>,
    ) -> Engine
    where
        H: Fn(Request) -> Response + Send + Sync + 'static,
    {
        Engine {
            handler: Box::new(handler),
            latency: obs.histogram("http.request_latency_us"),
            config,
            stats,
            obs,
        }
    }

    /// Process one request. `served` is how many requests this
    /// connection completed before this one (for the budget);
    /// `started` stamps the latency measurement.
    pub(crate) fn respond(&self, req: Request, served: usize, started: Instant) -> Exchange {
        let obs = &self.obs;
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let head_only = req.method == Method::Head;
        // HTTP/1.0 clients get close-by-default semantics; on the last
        // budgeted request we advertise the close so the client can
        // re-connect instead of discovering a stale connection later.
        let client_wants_close = !wire::keep_alive(req.version, &req.headers);
        let budget_exhausted = served + 1 >= self.config.max_requests_per_connection;
        let trace_what = if obs.is_enabled() {
            format!("{} {}", req.method, req.target.path())
        } else {
            String::new()
        };

        // The metrics endpoint is reserved and answered before auth and
        // dispatch, so a locked-down server is still scrapeable.
        let mut resp = if req.method == Method::Get && req.target.path() == METRICS_PATH {
            obs.counter("http.requests.metrics").inc();
            Response::ok()
                .with_header("Content-Type", "text/plain; charset=utf-8")
                .with_header("Cache-Control", "no-store")
                .with_body(obs.render_text())
        } else {
            if obs.is_enabled() {
                obs.counter(&format!(
                    "http.requests.{}",
                    req.method.as_str().to_ascii_lowercase()
                ))
                .inc();
            }
            match &self.config.auth {
                Some(store) => match store.authenticate(req.headers.get("Authorization")) {
                    Some(_) => self.dispatch(req, head_only),
                    None => {
                        self.stats.auth_failures.fetch_add(1, Ordering::Relaxed);
                        obs.counter("http.auth_failures").inc();
                        Response::error(StatusCode::UNAUTHORIZED, "authentication required")
                            .with_header("WWW-Authenticate", store.challenge())
                    }
                },
                None => self.dispatch(req, head_only),
            }
        };
        let mut close = client_wants_close || budget_exhausted;
        if close {
            resp.headers.set("Connection", "close");
        } else if !wire::keep_alive(resp.version, &resp.headers) {
            close = true; // the handler asked for the close itself
        }
        Exchange {
            resp,
            head_only,
            close,
            trace_what,
            started,
        }
    }

    /// Handler dispatch wrapped in `gzip` content-coding negotiation
    /// (RFC 7231 §3.1.2): a gzip request body is decoded before the
    /// handler sees it (post-auth, so anonymous clients cannot feed the
    /// inflater), and the response body is compressed when the client's
    /// `Accept-Encoding` allows it and compression actually pays.
    /// Coding is applied *here*, before serialisation, so the emitted
    /// `Content-Length` frames the encoded bytes exactly and keep-alive
    /// framing cannot drift.
    fn dispatch(&self, mut req: Request, head_only: bool) -> Response {
        let accepts_gzip = accept_encoding_allows_gzip(req.headers.get("Accept-Encoding"));
        match req.headers.get("Content-Encoding").map(str::trim) {
            None => {}
            Some(enc) if enc.eq_ignore_ascii_case("identity") => {}
            Some(enc) if enc.eq_ignore_ascii_case("gzip") => {
                match gzip::decompress(&req.body, self.config.limits.max_body) {
                    Ok(body) => {
                        self.obs.counter("http.gzip.requests_decoded").inc();
                        req.headers.remove("Content-Encoding");
                        req.body = body;
                        req.headers
                            .set("Content-Length", req.body.len().to_string());
                    }
                    Err(e) => {
                        return Response::error(
                            StatusCode::BAD_REQUEST,
                            &format!("bad gzip request body: {e}"),
                        );
                    }
                }
            }
            Some(enc) => {
                return Response::error(
                    StatusCode::UNSUPPORTED_MEDIA_TYPE,
                    &format!("unsupported content-coding {enc:?}"),
                );
            }
        }
        let mut resp = (self.handler)(req);
        if accepts_gzip && !head_only && compressible(&resp) {
            let encoded = gzip::compress(&resp.body);
            // Keep the identity body when compression does not shrink
            // it (already-compressed payloads, tiny bodies).
            if encoded.len() < resp.body.len() {
                self.obs.counter("http.gzip.responses_encoded").inc();
                resp.body = encoded;
                resp.headers.set("Content-Encoding", "gzip");
                resp.headers.append("Vary", "Accept-Encoding");
            }
        }
        resp
    }

    /// Record the completed exchange: latency, status class, trace.
    /// `bytes` is what went (or will go) onto the wire.
    pub(crate) fn finish(&self, ex: Exchange, bytes: u64) {
        if self.obs.is_enabled() {
            let us = ex.started.elapsed().as_micros() as u64;
            self.latency.observe(us);
            self.obs
                .counter(&format!("http.responses.{}xx", ex.resp.status.code() / 100))
                .inc();
            self.obs.trace(TraceEvent {
                what: ex.trace_what,
                status: ex.resp.status.code(),
                duration_us: us,
                bytes,
            });
        }
    }
}

/// Bodies below this are not worth a gzip member's ~18-byte overhead
/// plus the CPU.
const MIN_GZIP_BODY: usize = 256;

/// Does an `Accept-Encoding` header admit gzip? Token scan with
/// q-value awareness: `gzip;q=0` is an explicit refusal.
fn accept_encoding_allows_gzip(header: Option<&str>) -> bool {
    let Some(header) = header else { return false };
    header.split(',').any(|part| {
        let mut pieces = part.split(';');
        let coding = pieces.next().unwrap_or("").trim();
        if !coding.eq_ignore_ascii_case("gzip") && coding != "*" {
            return false;
        }
        for param in pieces {
            if let Some(q) = param.trim().strip_prefix("q=") {
                return q.trim().parse::<f64>().map(|q| q > 0.0).unwrap_or(false);
            }
        }
        true
    })
}

/// Is this response eligible for transparent compression? Bodyless
/// statuses are excluded by construction; 206 is excluded because its
/// `Content-Range` describes identity bytes and coding the slice would
/// break client-side reassembly; pre-coded responses are left alone.
fn compressible(resp: &Response) -> bool {
    let code = resp.status.code();
    resp.status.is_success()
        && code != 204
        && code != 206
        && resp.body.len() >= MIN_GZIP_BODY
        && resp.headers.get("Content-Encoding").is_none()
}

/// A running HTTP server. Dropping the handle does *not* stop the server;
/// call [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    obs: Arc<Registry>,
    reactor: crate::reactor::Handle,
}

impl Server {
    /// Bind to `addr` and serve `handler` on the reactor.
    pub fn bind<A, H>(addr: A, config: ServerConfig, handler: H) -> Result<Server>
    where
        A: ToSocketAddrs,
        H: Fn(Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let obs = config.obs.clone().unwrap_or_else(Registry::new);
        let engine = Engine::new(config, handler, Arc::clone(&stats), Arc::clone(&obs));
        let reactor = crate::reactor::spawn(listener, engine)?;
        Ok(Server {
            addr: local,
            stats,
            obs,
            reactor,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The metric registry this server records into.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.obs)
    }

    /// Stop accepting, close live connections promptly (no waiting out
    /// keep-alive timers), and join every thread.
    pub fn shutdown(mut self) {
        self.reactor.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::Credentials;
    use crate::client::Client;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn echo_server(config: ServerConfig) -> Server {
        Server::bind("127.0.0.1:0", config, |req: Request| {
            Response::ok()
                .with_header("X-Method", req.method.as_str())
                .with_body(req.body)
        })
        .unwrap()
    }

    /// Read one HTTP response off a raw socket: headers, then exactly
    /// `Content-Length` body bytes. Panics on malformed framing.
    fn read_raw_response(s: &mut TcpStream) -> (String, Vec<u8>) {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            s.read_exact(&mut byte).unwrap();
            head.push(byte[0]);
        }
        let head = String::from_utf8(head).unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(|v| v.trim().parse().unwrap())
            })
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        s.read_exact(&mut body).unwrap();
        (head, body)
    }

    #[test]
    fn serves_requests() {
        let server = echo_server(ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client.get("/x").unwrap();
        assert_eq!(resp.status.code(), 200);
        assert_eq!(resp.headers.get("x-method"), Some("GET"));
        server.shutdown();
    }

    #[test]
    fn persistent_connection_reuses_socket() {
        let server = echo_server(ServerConfig::default());
        let mut client = Client::connect(server.local_addr()).unwrap();
        for i in 0..10 {
            let resp = client
                .send(Request::new(Method::Put, "/x").with_body(format!("body-{i}")))
                .unwrap();
            assert_eq!(resp.body_text(), format!("body-{i}"));
        }
        // Ten requests, one TCP connection.
        assert_eq!(server.stats().connections.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats().requests.load(Ordering::Relaxed), 10);
        server.shutdown();
    }

    #[test]
    fn request_budget_closes_connection() {
        let server = echo_server(ServerConfig {
            max_requests_per_connection: 2,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(server.local_addr()).unwrap();
        for _ in 0..6 {
            // The client transparently reconnects when the server
            // closes.
            let resp = client.get("/").unwrap();
            assert_eq!(resp.status.code(), 200);
        }
        assert!(server.stats().connections.load(Ordering::Relaxed) >= 3);
        server.shutdown();
    }

    #[test]
    fn auth_challenge_and_success() {
        let mut store = UserStore::new("Ecce");
        store.add_user("karen", "pw");
        let server = echo_server(ServerConfig {
            auth: Some(store),
            ..ServerConfig::default()
        });
        // Unauthenticated.
        let mut anon = Client::connect(server.local_addr()).unwrap();
        let resp = anon.get("/").unwrap();
        assert_eq!(resp.status, StatusCode::UNAUTHORIZED);
        assert!(resp
            .headers
            .get("www-authenticate")
            .unwrap()
            .contains("Ecce"));
        // Authenticated.
        let mut authed = Client::connect(server.local_addr()).unwrap();
        authed.set_credentials(Credentials::new("karen", "pw"));
        assert_eq!(authed.get("/").unwrap().status.code(), 200);
        // Wrong password.
        let mut bad = Client::connect(server.local_addr()).unwrap();
        bad.set_credentials(Credentials::new("karen", "nope"));
        assert_eq!(bad.get("/").unwrap().status, StatusCode::UNAUTHORIZED);
        assert!(server.stats().auth_failures.load(Ordering::Relaxed) >= 2);
        server.shutdown();
    }

    #[test]
    fn http_1_0_request_closes_promptly() {
        // Regression: the version used to be parsed then discarded, so a
        // 1.0 client without `Connection: keep-alive` hung for the full
        // 15 s keep-alive timeout waiting for the server's FIN.
        let server = echo_server(ServerConfig::default());
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"GET /x HTTP/1.0\r\n\r\n").unwrap();
        let start = std::time::Instant::now();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap(); // returns only once the server closes
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(
            text.to_ascii_lowercase().contains("connection: close"),
            "{text}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "HTTP/1.0 connection held open {:?}",
            start.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn budget_final_response_advertises_close() {
        let server = echo_server(ServerConfig {
            max_requests_per_connection: 2,
            ..ServerConfig::default()
        });
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        // First response keeps the connection, the second
        // (budget-final) advertises the close so clients reconnect
        // proactively.
        let closes = text
            .to_ascii_lowercase()
            .matches("connection: close")
            .count();
        assert_eq!(closes, 1, "{text}");
        server.shutdown();
    }

    #[test]
    fn unparseable_content_length_cannot_desync_pipeline() {
        // Regression: `Content-Length: banana` used to read as 0, leaving
        // the body bytes on the stream to be served as a second request.
        let server = echo_server(ServerConfig::default());
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(
            b"PUT /x HTTP/1.1\r\nContent-Length: banana\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        // Exactly one response: the smuggled GET was never served.
        assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{text}");
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = echo_server(ServerConfig::default());
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        server.shutdown();
    }

    #[test]
    fn oversized_body_gets_413() {
        let server = echo_server(ServerConfig {
            limits: Limits {
                max_body: 16,
                ..Limits::default()
            },
            ..ServerConfig::default()
        });
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client
            .send(Request::new(Method::Put, "/big").with_body(vec![0u8; 64]))
            .unwrap();
        assert_eq!(resp.status, StatusCode::ENTITY_TOO_LARGE);
        server.shutdown();
    }

    #[test]
    fn oversized_header_line_gets_431() {
        let server = echo_server(ServerConfig {
            limits: Limits {
                max_header_line: 64,
                ..Limits::default()
            },
            ..ServerConfig::default()
        });
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        let req = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "v".repeat(256));
        raw.write_all(req.as_bytes()).unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 431"), "{text}");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let server = echo_server(ServerConfig::default());
        let addr = server.local_addr();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for i in 0..20 {
                        let resp = c
                            .send(Request::new(Method::Post, "/t").with_body(format!("{t}:{i}")))
                            .unwrap();
                        assert_eq!(resp.body_text(), format!("{t}:{i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.stats().requests.load(Ordering::Relaxed), 160);
        server.shutdown();
    }

    #[test]
    fn head_requests_suppress_body() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default(), |_req| {
            Response::ok().with_body("payload")
        })
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let resp = client.send(Request::new(Method::Head, "/")).unwrap();
        assert!(resp.body.is_empty());
        assert_eq!(resp.headers.content_length(), Some(7));
        server.shutdown();
    }

    #[test]
    fn reactor_parked_connections_do_not_consume_workers() {
        // The keep-alive starvation regression: idle keep-alive
        // connections outnumbering the whole worker pool must cost
        // nothing — no pinned workers, and a fresh client served
        // immediately.
        let server = echo_server(ServerConfig {
            min_daemons: 2,
            ..ServerConfig::default()
        });
        let mut pinned = Vec::new();
        for _ in 0..8 {
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            s.write_all(b"GET /pin HTTP/1.1\r\n\r\n").unwrap();
            let (head, _) = read_raw_response(&mut s);
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            pinned.push(s);
        }
        let start = Instant::now();
        let mut fresh = Client::connect(server.local_addr()).unwrap();
        let resp = fresh.get("/unstarved").unwrap();
        assert_eq!(resp.status.code(), 200);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "fresh client starved for {:?}",
            start.elapsed()
        );
        let snap = server.registry().snapshot();
        assert_eq!(snap.gauge("http.workers_total"), 2);
        assert!(
            snap.gauge("http.conns_parked") >= 8,
            "parked gauge {} should count the pinned connections",
            snap.gauge("http.conns_parked")
        );
        drop(pinned);
        server.shutdown();
    }

    #[test]
    fn slow_body_upload_outlives_keepalive_timeout() {
        // Regression: one read timeout covered both the idle wait and
        // mid-request body reads, so a client pausing longer than
        // `keep_alive_timeout` inside a PUT was dropped as if idle. The
        // reactor reproduces this with its idle→body timer switch.
        let server = echo_server(ServerConfig {
            keep_alive_timeout: Duration::from_millis(300),
            body_read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        });
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"PUT /slow HTTP/1.1\r\nContent-Length: 10\r\n\r\nhello")
            .unwrap();
        // Stall mid-body for 3x the keep-alive timeout.
        std::thread::sleep(Duration::from_millis(900));
        raw.write_all(b"world").unwrap();
        let (head, body) = read_raw_response(&mut raw);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, b"helloworld");
        server.shutdown();
    }

    #[test]
    fn reactor_stalled_body_dropped_as_slow_not_idle() {
        // The converse: a client that stalls past `body_read_timeout`
        // mid-upload is dropped, and the reactor attributes the close to
        // the slow-body deadline, not the idle one.
        let server = echo_server(ServerConfig {
            keep_alive_timeout: Duration::from_secs(30), // idle timer would never fire
            body_read_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        });
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"PUT /stall HTTP/1.1\r\nContent-Length: 10\r\n\r\nhel")
            .unwrap();
        let start = Instant::now();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap(); // server drops the connection
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stalled upload held open {:?}",
            start.elapsed()
        );
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("http.conns_closed_slow"), 1);
        assert_eq!(snap.counter("http.conns_closed_idle"), 0);
        server.shutdown();
    }

    #[test]
    fn idle_connection_still_times_out_between_requests() {
        // The body deadline must not extend the between-requests wait.
        let server = echo_server(ServerConfig {
            keep_alive_timeout: Duration::from_millis(200),
            body_read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        });
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        let _ = read_raw_response(&mut raw);
        let start = Instant::now();
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).unwrap(); // waits for the server's FIN
        assert!(rest.is_empty());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "idle connection survived {:?}",
            start.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn timer_heap_holds_one_entry_per_connection() {
        // Every response re-arms the keep-alive deadline. The heap must
        // not keep an entry per re-arm: with 20 connections parked and
        // 500 requests on another, it holds about one per connection.
        let server = echo_server(ServerConfig {
            max_requests_per_connection: 1000,
            ..ServerConfig::default()
        });
        let mut parked = Vec::new();
        for _ in 0..20 {
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            s.write_all(b"GET /park HTTP/1.1\r\n\r\n").unwrap();
            let (head, _) = read_raw_response(&mut s);
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            parked.push(s);
        }
        let mut busy = Client::connect(server.local_addr()).unwrap();
        for i in 0..500 {
            assert_eq!(busy.get(&format!("/r{i}")).unwrap().status.code(), 200);
        }
        let snap = server.registry().snapshot();
        assert_eq!(server.stats().connections.load(Ordering::Relaxed), 21);
        let open = snap.gauge("http.active_connections");
        let entries = snap.gauge("http.timer_entries");
        assert_eq!(open, 21);
        assert!(
            (open..=2 * open).contains(&entries),
            "{entries} timer entries for {open} open connections"
        );
        drop(parked);
        server.shutdown();
    }

    #[test]
    fn keep_alive_deadline_follows_steady_requests() {
        // Requests every 50 ms keep moving a 200 ms idle deadline later,
        // so the queued entry keeps re-queuing itself and the connection
        // stays open; once they stop it closes as idle on time.
        let server = echo_server(ServerConfig {
            keep_alive_timeout: Duration::from_millis(200),
            body_read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        });
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        let ticking = Instant::now();
        while ticking.elapsed() < Duration::from_secs(1) {
            raw.write_all(b"GET /tick HTTP/1.1\r\n\r\n").unwrap();
            let (head, _) = read_raw_response(&mut raw);
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(
            server
                .registry()
                .snapshot()
                .counter("http.conns_closed_idle"),
            0
        );
        let start = Instant::now();
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).unwrap(); // waits for the server's FIN
        assert!(rest.is_empty());
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "idle close took {:?}",
            start.elapsed()
        );
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("http.conns_closed_idle"), 1);
        assert_eq!(server.stats().connections.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn trickled_body_then_silence_closes_as_idle() {
        // The body deadline outlives the idle one while the body
        // trickles in; once the request is answered, the earlier idle
        // deadline applies, not the 30 s body deadline.
        let server = echo_server(ServerConfig {
            keep_alive_timeout: Duration::from_millis(300),
            body_read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        });
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"PUT /trickle HTTP/1.1\r\nContent-Length: 9\r\n\r\n")
            .unwrap();
        for part in [&b"abc"[..], b"def", b"ghi"] {
            std::thread::sleep(Duration::from_millis(400));
            raw.write_all(part).unwrap();
        }
        let (head, body) = read_raw_response(&mut raw);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, b"abcdefghi");
        let start = Instant::now();
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert!(
            start.elapsed() < Duration::from_millis(1300),
            "idle close after the body took {:?}",
            start.elapsed()
        );
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("http.conns_closed_idle"), 1);
        assert_eq!(snap.counter("http.conns_closed_slow"), 0);
        server.shutdown();
    }

    #[test]
    fn reactor_shutdown_closes_parked_connections_promptly() {
        // Satellite of the PR 1 shutdown-join deflake: shutdown must
        // join the reactor thread and close parked keep-alive fds now,
        // not after `keep_alive_timeout`.
        let server = echo_server(ServerConfig {
            keep_alive_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        });
        let mut parked = Vec::new();
        for _ in 0..4 {
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            s.write_all(b"GET /park HTTP/1.1\r\n\r\n").unwrap();
            let (head, _) = read_raw_response(&mut s);
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            parked.push(s);
        }
        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown took {:?} with parked connections",
            start.elapsed()
        );
        // Every parked client sees the close immediately.
        for mut s in parked {
            let mut rest = Vec::new();
            let _ = s.read_to_end(&mut rest); // EOF or reset, never a hang
        }
    }

    #[test]
    fn metrics_endpoint_reflects_request_mix_pre_auth() {
        let mut store = UserStore::new("Ecce");
        store.add_user("karen", "pw");
        let server = echo_server(ServerConfig {
            auth: Some(store),
            ..ServerConfig::default()
        });
        let mut authed = Client::connect(server.local_addr()).unwrap();
        authed.set_credentials(Credentials::new("karen", "pw"));
        assert_eq!(authed.get("/a").unwrap().status.code(), 200);
        assert_eq!(authed.get("/b").unwrap().status.code(), 200);
        assert_eq!(authed.put("/c", "body").unwrap().status.code(), 200);
        // An unauthenticated request is refused but still counted.
        let mut anon = Client::connect(server.local_addr()).unwrap();
        assert_eq!(anon.get("/denied").unwrap().status.code(), 401);
        // The metrics endpoint itself needs no credentials: it
        // answers before the auth gate.
        let resp = anon.get(METRICS_PATH).unwrap();
        assert_eq!(resp.status.code(), 200);
        assert_eq!(
            resp.headers.get("content-type"),
            Some("text/plain; charset=utf-8")
        );
        let text = resp.body_text();
        use pse_obs::parse_text_metric as metric;
        assert_eq!(metric(&text, "http.requests.get"), Some(3), "{text}");
        assert_eq!(metric(&text, "http.requests.put"), Some(1), "{text}");
        assert_eq!(metric(&text, "http.requests.metrics"), Some(1), "{text}");
        assert_eq!(metric(&text, "http.auth_failures"), Some(1), "{text}");
        assert_eq!(metric(&text, "http.responses.2xx"), Some(3), "{text}");
        assert_eq!(metric(&text, "http.responses.4xx"), Some(1), "{text}");
        // Histogram records one sample per completed exchange.
        assert_eq!(metric(&text, "http.request_latency_us"), Some(4), "{text}");
        assert!(metric(&text, "http.bytes_in").unwrap() > 0, "{text}");
        assert!(metric(&text, "http.bytes_out").unwrap() > 0, "{text}");
        // Pool gauges are exported through the registry source: the
        // paper's 5 resident daemons.
        assert_eq!(metric(&text, "http.workers_total"), Some(5), "{text}");
        assert!(
            metric(&text, "http.active_connections").unwrap() >= 1,
            "{text}"
        );
        // The trace ring retained the scripted mix.
        let traces = server.registry().recent_traces();
        assert!(traces.iter().any(|t| t.what == "GET /a" && t.status == 200));
        assert!(traces
            .iter()
            .any(|t| t.what == "GET /denied" && t.status == 401));
        server.shutdown();
    }

    #[test]
    fn shared_registry_is_used_instead_of_a_fresh_one() {
        let reg = Registry::new();
        let server = echo_server(ServerConfig {
            obs: Some(Arc::clone(&reg)),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.get("/x").unwrap();
        assert_eq!(reg.snapshot().counter("http.requests.get"), 1);
        assert!(Arc::ptr_eq(&server.registry(), &reg));
        server.shutdown();
    }

    #[test]
    fn disabled_registry_serves_but_records_nothing() {
        let server = echo_server(ServerConfig {
            obs: Some(Registry::disabled()),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.get("/x").unwrap().status.code(), 200);
        let resp = c.get(METRICS_PATH).unwrap();
        assert_eq!(resp.status.code(), 200);
        assert_eq!(
            pse_obs::parse_text_metric(&resp.body_text(), "http.requests.get"),
            None
        );
        server.shutdown();
    }

    #[test]
    fn reactor_survives_handler_panic() {
        // A panicking handler must not shrink the fixed pool; the
        // request gets a 500 and the server keeps serving.
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                min_daemons: 1, // one worker: a lost thread would hang the server
                ..ServerConfig::default()
            },
            |req: Request| {
                if req.target.path() == "/boom" {
                    panic!("handler exploded");
                }
                Response::ok()
            },
        )
        .unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c.get("/boom").unwrap().status.code(), 500);
        let mut c2 = Client::connect(server.local_addr()).unwrap();
        assert_eq!(c2.get("/fine").unwrap().status.code(), 200);
        server.shutdown();
    }
}
