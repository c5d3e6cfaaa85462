//! A blocking HTTP/1.1 client.
//!
//! Mirrors the paper's client-side software: "internally developed C++
//! classes" that are "blocking and support persistent connections, but
//! not pipelining". The client keeps one TCP connection open and
//! transparently reconnects when the server closes it (request budget
//! exhausted, keep-alive timeout, or process restart). A
//! [`ConnectionPolicy::CloseEveryRequest`] mode reproduces the paper's
//! reconnect-per-request configuration for the connection ablation bench.
//!
//! Transport failures are handled by a [`RetryPolicy`]: idempotent
//! methods are re-sent with exponential backoff until the attempt cap or
//! deadline runs out, while a non-idempotent method whose bytes may have
//! reached the server surfaces [`Error::MaybeExecuted`] instead of being
//! retried into a duplicate side effect.

use crate::auth::Credentials;
use crate::error::{Error, Result};
use crate::gzip;
use crate::message::{Request, Response};
use crate::method::Method;
use crate::retry::RetryPolicy;
use crate::uri::Target;
use crate::wire::{self, Limits};
use pse_obs::{Counter, Registry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Whether to keep the TCP connection across requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnectionPolicy {
    /// Reuse one connection (HTTP/1.1 default behaviour).
    #[default]
    Persistent,
    /// Open a fresh connection for every request and close it after —
    /// the configuration the paper found "significantly faster" in its
    /// environment, "an anomaly still under investigation".
    CloseEveryRequest,
}

/// A blocking HTTP client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    host_header: String,
    stream: Option<TcpStream>,
    credentials: Option<Credentials>,
    policy: ConnectionPolicy,
    limits: Limits,
    retry: RetryPolicy,
    rng: StdRng,
    /// Number of TCP connects performed (for the ablation bench).
    connects: u64,
    /// Number of re-send attempts made after a transport failure.
    retries: u64,
    /// Resolved retry-path metrics (no-ops until [`Client::set_registry`]).
    obs: ClientObs,
    /// Advertise `Accept-Encoding: gzip` and transparently decode gzip
    /// response bodies (off by default so byte-level tests and benches
    /// see identity payloads).
    accept_gzip: bool,
    /// Maximum 307/308 hops to follow transparently (0 = surface the
    /// redirect response to the caller, the default).
    follow_redirects: u32,
    /// Persistent connections to redirect targets on *other*
    /// authorities, keyed by `host:port`.
    redirect_pool: HashMap<String, Client>,
}

/// Counters the retry loop records into, resolved once per registry so
/// the hot path never takes the registry lock.
struct ClientObs {
    attempts: Counter,
    retries: Counter,
    backoff_sleeps: Counter,
    maybe_executed: Counter,
}

impl ClientObs {
    fn resolve(registry: &Arc<Registry>) -> ClientObs {
        ClientObs {
            attempts: registry.counter("http.client.attempts"),
            retries: registry.counter("http.client.retries"),
            backoff_sleeps: registry.counter("http.client.backoff_sleeps"),
            maybe_executed: registry.counter("http.client.maybe_executed"),
        }
    }
}

impl Client {
    /// Resolve `addr` and prepare a client (the first connection is made
    /// lazily or by this call — we connect eagerly to surface errors).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| Error::Parse("address resolved to nothing".into()))?;
        let retry = RetryPolicy::default();
        let mut c = Client {
            addr,
            host_header: addr.to_string(),
            stream: None,
            credentials: None,
            policy: ConnectionPolicy::Persistent,
            limits: Limits::default(),
            rng: StdRng::seed_from_u64(retry.seed),
            retry,
            connects: 0,
            retries: 0,
            obs: ClientObs::resolve(&Registry::disabled()),
            accept_gzip: false,
            follow_redirects: 0,
            redirect_pool: HashMap::new(),
        };
        c.ensure_connected()?;
        Ok(c)
    }

    /// Record retry-path metrics (`http.client.*`) into `registry`.
    pub fn set_registry(&mut self, registry: &Arc<Registry>) {
        self.obs = ClientObs::resolve(registry);
    }

    /// Attach basic-auth credentials sent with every request.
    pub fn set_credentials(&mut self, creds: Credentials) {
        self.credentials = Some(creds);
    }

    /// Change the connection policy (persistent vs reconnect-per-request).
    pub fn set_policy(&mut self, policy: ConnectionPolicy) {
        self.policy = policy;
        if policy == ConnectionPolicy::CloseEveryRequest {
            self.stream = None;
        }
    }

    /// Override wire limits (e.g. raise the body cap for bulk PUTs).
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Install a retry/timeout/backoff policy. The jitter generator is
    /// re-seeded from the policy so behaviour is reproducible; socket
    /// timeouts apply from the next connection onwards.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.rng = StdRng::seed_from_u64(policy.seed);
        self.retry = policy;
        self.stream = None; // reconnect so the new timeouts take effect
    }

    /// Opt in to the `gzip` content-coding: every request advertises
    /// `Accept-Encoding: gzip` and a `Content-Encoding: gzip` response
    /// body is decoded transparently (a corrupt encoded body surfaces
    /// as a transport [`Error::Parse`], which the retry policy treats
    /// as transient for idempotent methods).
    pub fn set_accept_gzip(&mut self, on: bool) {
        self.accept_gzip = on;
    }

    /// TCP connections opened so far.
    pub fn connect_count(&self) -> u64 {
        self.connects
    }

    /// Re-send attempts made so far (0 when every request succeeded on
    /// its first try).
    pub fn retry_count(&self) -> u64 {
        self.retries
    }

    fn ensure_connected(&mut self) -> Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(self.retry.read_timeout)?;
            s.set_write_timeout(self.retry.write_timeout)?;
            self.stream = Some(s);
            self.connects += 1;
        }
        Ok(())
    }

    /// Follow up to `max_hops` `307`/`308` redirects transparently,
    /// replaying the method and body verbatim (the RFC 7538 rule —
    /// unlike 301/302 the method must NOT degrade to GET). `0` restores
    /// the default: redirects are returned to the caller. Cross-host
    /// `Location` targets are followed over pooled secondary
    /// connections, which is how a cluster router can *redirect* writes
    /// to a shard primary instead of proxying them.
    pub fn set_follow_redirects(&mut self, max_hops: u32) {
        self.follow_redirects = max_hops;
    }

    /// Send a request and read the response, retrying per the installed
    /// [`RetryPolicy`] and following `307`/`308` redirects when
    /// [`Client::set_follow_redirects`] enabled it.
    pub fn send(&mut self, req: Request) -> Result<Response> {
        if self.follow_redirects == 0 {
            return self.send_once(req);
        }
        let budget = self.follow_redirects;
        let mut req = req;
        let mut hops = 0u32;
        loop {
            // Clone before sending: the body must be replayable.
            let resp = self.send_once(req.clone())?;
            let code = resp.status.code();
            if code != 307 && code != 308 {
                return Ok(resp);
            }
            let Some(location) = resp.headers.get("Location").map(str::to_owned) else {
                return Ok(resp); // malformed redirect: surface it
            };
            hops += 1;
            if hops > budget {
                return Err(Error::TooManyRedirects { hops, location });
            }
            let (authority, path) = split_location(&location);
            req.target = Target::parse(&path);
            match authority {
                Some(auth) if auth != self.host_header => {
                    let remaining = budget - hops;
                    let sub = self.redirect_client(&auth)?;
                    sub.follow_redirects = remaining;
                    return sub.send(req);
                }
                _ => {} // same authority (or relative): loop and re-send
            }
        }
    }

    /// A pooled connection to a redirect target on another authority,
    /// inheriting this client's credentials, limits and retry policy.
    fn redirect_client(&mut self, authority: &str) -> Result<&mut Client> {
        if !self.redirect_pool.contains_key(authority) {
            let mut sub = Client::connect(authority)?;
            if let Some(c) = &self.credentials {
                sub.set_credentials(c.clone());
            }
            sub.set_limits(self.limits);
            sub.set_retry_policy(self.retry.clone());
            sub.set_policy(self.policy);
            sub.set_accept_gzip(self.accept_gzip);
            self.redirect_pool.insert(authority.to_owned(), sub);
        }
        Ok(self
            .redirect_pool
            .get_mut(authority)
            .expect("just inserted"))
    }

    /// One logical exchange (with transport retries, no redirect
    /// following). Only transport-level failures (reset, EOF, timeout,
    /// garbled response) are retried, and only for idempotent methods;
    /// HTTP error statuses are responses, not failures.
    fn send_once(&mut self, mut req: Request) -> Result<Response> {
        if let Some(c) = &self.credentials {
            req.headers.set("Authorization", c.to_header_value());
        }
        if self.accept_gzip && req.headers.get("Accept-Encoding").is_none() {
            req.headers.set("Accept-Encoding", "gzip");
        }
        if self.policy == ConnectionPolicy::CloseEveryRequest {
            req.headers.set("Connection", "close");
            self.stream = None;
        }
        let start = Instant::now();
        let max_attempts = self.retry.max_attempts.max(1);
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            self.obs.attempts.inc();
            // A reused connection may have died since the last exchange
            // (keep-alive timeout, server restart). Readable-or-EOF before
            // we have sent anything means it is unusable: discard it *now*
            // so the failure is a clean reconnect, not an ambiguous loss
            // of an in-flight request.
            if let Some(s) = &self.stream {
                if connection_is_stale(s) {
                    self.stream = None;
                }
            }
            let mut wrote = false;
            let err = match self.try_send(&req, &mut wrote) {
                Ok(resp) => return Ok(resp),
                Err(e) if is_transient(&e) => e,
                Err(e) => return Err(e),
            };
            self.stream = None;
            if wrote && !req.method.is_idempotent() {
                // Bytes (possibly all of them) reached the wire and the
                // method is not safe to repeat: the server may have
                // executed it. Surface the ambiguity to the caller.
                self.obs.maybe_executed.inc();
                return Err(Error::MaybeExecuted {
                    method: req.method.to_string(),
                    cause: Box::new(err),
                });
            }
            if attempt >= max_attempts {
                return Err(Error::RetriesExhausted {
                    attempts: attempt,
                    cause: Box::new(err),
                });
            }
            let pause = self.retry.backoff(attempt - 1, &mut self.rng);
            if let Some(budget) = self.retry.deadline {
                if start.elapsed() + pause >= budget {
                    return Err(Error::RetriesExhausted {
                        attempts: attempt,
                        cause: Box::new(err),
                    });
                }
            }
            self.retries += 1;
            self.obs.retries.inc();
            if !pause.is_zero() {
                self.obs.backoff_sleeps.inc();
                thread::sleep(pause);
            }
        }
    }

    /// One attempt: connect if needed, write, read. Sets `wrote` once the
    /// request has started towards the wire (conservatively: before the
    /// first byte is handed to the socket).
    fn try_send(&mut self, req: &Request, wrote: &mut bool) -> Result<Response> {
        self.ensure_connected()?;
        let mut stream = self.stream.as_ref().expect("just connected");
        let mut head = Vec::with_capacity(256);
        wire::write_request_head(&mut head, req, &self.host_header)?;
        *wrote = true;
        if let Err(e) = write_all_vectored(stream, [&head, &req.body]) {
            // The server may have rejected the request early (e.g. 413 on
            // an oversized body) and closed its read side; the error
            // response can still be waiting. Prefer it over the pipe error.
            let early = wire::read_response(&mut stream, &req.method, &self.limits);
            self.stream = None; // connection is done either way
            return self.decode_body(early.map_err(|_| e)?);
        }
        let resp = wire::read_response(&mut stream, &req.method, &self.limits)?;
        if self.policy == ConnectionPolicy::CloseEveryRequest
            || !wire::keep_alive(resp.version, &resp.headers)
        {
            self.stream = None;
        }
        self.decode_body(resp)
    }

    /// Undo a `gzip` content-coding on the response body. Framing was
    /// already consumed from the wire byte-exactly (Content-Length
    /// counts *encoded* bytes), so a decode failure poisons only this
    /// response, never the connection state — but we drop the
    /// connection anyway to force the retry onto a fresh exchange.
    fn decode_body(&mut self, mut resp: Response) -> Result<Response> {
        let coded = resp
            .headers
            .get("Content-Encoding")
            .is_some_and(|e| e.trim().eq_ignore_ascii_case("gzip"));
        if !coded {
            return Ok(resp);
        }
        match gzip::decompress(&resp.body, self.limits.max_body) {
            Ok(body) => {
                resp.body = body;
                resp.headers.remove("Content-Encoding");
                resp.headers
                    .set("Content-Length", resp.body.len().to_string());
                Ok(resp)
            }
            Err(e) => {
                self.stream = None;
                Err(Error::Parse(format!("gzip response body: {e}")))
            }
        }
    }

    /// Convenience GET.
    pub fn get(&mut self, path: &str) -> Result<Response> {
        self.send(Request::new(Method::Get, path))
    }

    /// Convenience PUT with a body.
    pub fn put(&mut self, path: &str, body: impl Into<Vec<u8>>) -> Result<Response> {
        self.send(Request::new(Method::Put, path).with_body(body))
    }

    /// Convenience DELETE.
    pub fn delete(&mut self, path: &str) -> Result<Response> {
        self.send(Request::new(Method::Delete, path))
    }
}

/// Write the request head and body in as few syscalls as the socket
/// allows, without copying the body behind the head.
fn write_all_vectored(mut stream: &TcpStream, parts: [&[u8]; 2]) -> io::Result<()> {
    let mut slices = parts.map(IoSlice::new);
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Failures that a fresh connection can plausibly cure.
fn is_transient(e: &Error) -> bool {
    matches!(e, Error::ConnectionClosed | Error::Io(_) | Error::Parse(_))
}

/// Split a `Location` value into `(authority, path-with-query)`.
/// Absolute URLs (`http://host:port/a/b?q`) yield `Some("host:port")`;
/// relative references yield `None` and are resolved against the
/// current connection. An absolute URL with no path maps to `/`.
fn split_location(location: &str) -> (Option<String>, String) {
    let rest = location
        .strip_prefix("http://")
        .or_else(|| location.strip_prefix("https://"));
    match rest {
        Some(rest) => match rest.find('/') {
            Some(i) => (Some(rest[..i].to_owned()), rest[i..].to_owned()),
            None => (Some(rest.to_owned()), "/".to_owned()),
        },
        None => (None, location.to_owned()),
    }
}

/// An idle persistent connection must have nothing to read. Readable
/// means either EOF (the server closed it) or stray bytes (a desynced
/// exchange) — both poison reuse. `WouldBlock` is the healthy case.
fn connection_is_stale(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let stale = match stream.peek(&mut probe) {
        Ok(_) => true,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    stale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Response;
    use crate::server::{Server, ServerConfig};
    use std::time::Duration;

    fn server() -> Server {
        Server::bind("127.0.0.1:0", ServerConfig::default(), |req: Request| {
            Response::ok().with_body(req.target.path().as_bytes().to_vec())
        })
        .unwrap()
    }

    #[test]
    fn get_put_delete_roundtrip() {
        let s = server();
        let mut c = Client::connect(s.local_addr()).unwrap();
        assert_eq!(c.get("/a").unwrap().body_text(), "/a");
        assert_eq!(c.put("/b", "x").unwrap().body_text(), "/b");
        assert_eq!(c.delete("/c").unwrap().body_text(), "/c");
        assert_eq!(c.connect_count(), 1);
        s.shutdown();
    }

    #[test]
    fn close_every_request_policy_reconnects() {
        let s = server();
        let mut c = Client::connect(s.local_addr()).unwrap();
        c.set_policy(ConnectionPolicy::CloseEveryRequest);
        for _ in 0..5 {
            assert_eq!(c.get("/x").unwrap().status.code(), 200);
        }
        assert!(c.connect_count() >= 5, "got {}", c.connect_count());
        s.shutdown();
    }

    #[test]
    fn retry_after_server_side_close() {
        let s = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                max_requests_per_connection: 1,
                ..ServerConfig::default()
            },
            |_req| Response::ok(),
        )
        .unwrap();
        let mut c = Client::connect(s.local_addr()).unwrap();
        for _ in 0..4 {
            assert_eq!(c.get("/").unwrap().status.code(), 200);
        }
        s.shutdown();
    }

    #[test]
    fn non_idempotent_survives_connection_budget() {
        // The server advertises `Connection: close` on its budget-final
        // response and the client probes reused connections before
        // writing, so POST/MKCOL traffic across many short-lived
        // connections must never see a spurious MaybeExecuted.
        let s = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                max_requests_per_connection: 2,
                ..ServerConfig::default()
            },
            |_req| Response::ok(),
        )
        .unwrap();
        let mut c = Client::connect(s.local_addr()).unwrap();
        for i in 0..7 {
            let resp = c
                .send(Request::new(Method::Post, "/side-effect"))
                .unwrap_or_else(|e| panic!("POST {i} failed: {e}"));
            assert_eq!(resp.status.code(), 200);
        }
        s.shutdown();
    }

    #[test]
    fn retries_exhausted_reports_attempts() {
        // Nothing is listening on this socket after we drop the listener:
        // connects fail, which is retryable even for POST (no bytes ever
        // reached a server).
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let s = server();
        let mut c = Client::connect(s.local_addr()).unwrap();
        s.shutdown();
        c.addr = addr; // point at the now-dead port
        c.stream = None;
        c.set_retry_policy(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            deadline: Some(Duration::from_secs(5)),
            ..RetryPolicy::default()
        });
        match c.get("/") {
            Err(Error::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(c.retry_count(), 2);
    }

    #[test]
    fn client_metrics_record_attempts_retries_and_sleeps() {
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let s = server();
        let reg = Registry::new();
        let mut c = Client::connect(s.local_addr()).unwrap();
        c.set_registry(&reg);
        c.get("/warm").unwrap();
        s.shutdown();
        c.addr = addr;
        c.stream = None;
        c.set_retry_policy(RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            deadline: Some(Duration::from_secs(5)),
            ..RetryPolicy::default()
        });
        assert!(c.get("/").is_err());
        let snap = reg.snapshot();
        // 1 successful attempt + 3 failed ones.
        assert_eq!(snap.counter("http.client.attempts"), 4);
        assert_eq!(snap.counter("http.client.retries"), 2);
        assert_eq!(snap.counter("http.client.backoff_sleeps"), 2);
        assert_eq!(snap.counter("http.client.maybe_executed"), 0);
    }

    #[test]
    fn gzip_negotiation_roundtrip() {
        // Big compressible body: encoded on the wire, identity at the
        // API on both ends.
        let payload = "coordinates 0.000 0.957 1.514 ".repeat(1000);
        let echo = payload.clone();
        let s = Server::bind(
            "127.0.0.1:0",
            ServerConfig::default(),
            move |req: Request| {
                if req.method == Method::Put {
                    // The engine must have decoded the request body.
                    assert!(req.headers.get("Content-Encoding").is_none());
                    Response::ok().with_body(req.body)
                } else {
                    Response::ok().with_body(echo.clone().into_bytes())
                }
            },
        )
        .unwrap();
        let mut c = Client::connect(s.local_addr()).unwrap();
        c.set_accept_gzip(true);
        let resp = c.get("/traj").unwrap();
        assert_eq!(resp.status.code(), 200);
        assert_eq!(resp.body_text(), payload);
        assert!(resp.headers.get("Content-Encoding").is_none());

        // Uploads can pre-code their body; the server engine inflates
        // it before the handler runs.
        let req = Request::new(Method::Put, "/up")
            .with_body(crate::gzip::compress(payload.as_bytes()))
            .with_header("Content-Encoding", "gzip");
        let resp = c.send(req).unwrap();
        assert_eq!(resp.status.code(), 200);
        assert_eq!(resp.body_text(), payload);
        s.shutdown();
    }

    #[test]
    fn gzip_small_and_incoded_bodies_stay_identity() {
        let s = Server::bind("127.0.0.1:0", ServerConfig::default(), |_req| {
            Response::ok().with_body("tiny")
        })
        .unwrap();
        let mut c = Client::connect(s.local_addr()).unwrap();
        c.set_accept_gzip(true);
        let resp = c.get("/t").unwrap();
        assert_eq!(resp.body_text(), "tiny");
        s.shutdown();
    }

    #[test]
    fn corrupt_gzip_request_body_is_400() {
        let s = Server::bind("127.0.0.1:0", ServerConfig::default(), |_req| {
            Response::ok()
        })
        .unwrap();
        let mut c = Client::connect(s.local_addr()).unwrap();
        let req = Request::new(Method::Put, "/up")
            .with_body(b"definitely not gzip".to_vec())
            .with_header("Content-Encoding", "gzip");
        assert_eq!(c.send(req).unwrap().status.code(), 400);
        // An unknown coding is refused as unsupported, not mangled.
        let req = Request::new(Method::Put, "/up")
            .with_body(b"x".to_vec())
            .with_header("Content-Encoding", "br");
        assert_eq!(c.send(req).unwrap().status.code(), 415);
        s.shutdown();
    }

    #[test]
    fn connect_error_is_reported() {
        // Port 1 on localhost is almost certainly closed.
        assert!(Client::connect("127.0.0.1:1").is_err());
    }

    #[test]
    fn split_location_parses_absolute_and_relative() {
        assert_eq!(
            split_location("http://127.0.0.1:8080/a/b?q=1"),
            (Some("127.0.0.1:8080".into()), "/a/b?q=1".into())
        );
        assert_eq!(
            split_location("http://host:99"),
            (Some("host:99".into()), "/".into())
        );
        assert_eq!(
            split_location("/just/a/path"),
            (None, "/just/a/path".into())
        );
    }

    #[test]
    fn redirects_are_surfaced_by_default() {
        let s = Server::bind("127.0.0.1:0", ServerConfig::default(), |_req| {
            Response::new(crate::StatusCode::TEMPORARY_REDIRECT)
                .with_header("Location", "/elsewhere")
        })
        .unwrap();
        let mut c = Client::connect(s.local_addr()).unwrap();
        assert_eq!(c.get("/a").unwrap().status.code(), 307);
        s.shutdown();
    }

    #[test]
    fn same_host_redirect_replays_method_and_body() {
        // /old answers 308 → /new; /new echoes "method path body".
        let s = Server::bind("127.0.0.1:0", ServerConfig::default(), |req: Request| {
            if req.target.path() == "/old" {
                Response::new(crate::StatusCode::PERMANENT_REDIRECT).with_header("Location", "/new")
            } else {
                let echo = format!(
                    "{} {} {}",
                    req.method,
                    req.target.path(),
                    String::from_utf8_lossy(&req.body)
                );
                Response::ok().with_body(echo.into_bytes())
            }
        })
        .unwrap();
        let mut c = Client::connect(s.local_addr()).unwrap();
        c.set_follow_redirects(4);
        let resp = c.put("/old", "payload").unwrap();
        assert_eq!(resp.status.code(), 200);
        assert_eq!(resp.body_text(), "PUT /new payload");
        s.shutdown();
    }

    #[test]
    fn cross_host_redirect_uses_a_pooled_secondary_connection() {
        // Backend echoes; the front server 307s every request to it.
        let backend = Server::bind("127.0.0.1:0", ServerConfig::default(), |req: Request| {
            Response::ok().with_body(req.target.path().as_bytes().to_vec())
        })
        .unwrap();
        let target = format!("http://{}", backend.local_addr());
        let front = Server::bind(
            "127.0.0.1:0",
            ServerConfig::default(),
            move |req: Request| {
                Response::new(crate::StatusCode::TEMPORARY_REDIRECT)
                    .with_header("Location", format!("{target}{}", req.target.path()))
            },
        )
        .unwrap();
        let mut c = Client::connect(front.local_addr()).unwrap();
        c.set_follow_redirects(2);
        for path in ["/x", "/y", "/z"] {
            assert_eq!(c.get(path).unwrap().body_text(), path);
        }
        assert_eq!(c.redirect_pool.len(), 1, "secondary connection is pooled");
        front.shutdown();
        backend.shutdown();
    }

    #[test]
    fn redirect_loops_exhaust_the_hop_budget() {
        let s = Server::bind("127.0.0.1:0", ServerConfig::default(), |_req| {
            Response::new(crate::StatusCode::TEMPORARY_REDIRECT).with_header("Location", "/again")
        })
        .unwrap();
        let mut c = Client::connect(s.local_addr()).unwrap();
        c.set_follow_redirects(3);
        match c.get("/start") {
            Err(Error::TooManyRedirects { hops, location }) => {
                assert_eq!(hops, 4);
                assert_eq!(location, "/again");
            }
            other => panic!("expected TooManyRedirects, got {other:?}"),
        }
        s.shutdown();
    }
}
