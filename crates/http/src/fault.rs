//! A deterministic fault-injecting TCP proxy.
//!
//! The paper's architecture lives or dies on how the client behaves when
//! the network misbehaves: the Ecce workloads run over campus WANs where
//! connections reset, servers stall, and responses arrive mangled.
//! [`FaultProxy`] sits between a [`crate::Client`] and a
//! [`crate::Server`] as a plain TCP relay and injects failures from a
//! seeded [`Schedule`] at precise points in each request/response
//! exchange — so the robustness suite can assert, deterministically,
//! that the retry policy recovers idempotent operations and never
//! duplicates non-idempotent ones.
//!
//! The proxy is frame-aware: it reads one full HTTP message (header
//! block plus `Content-Length` body) from each side before deciding what
//! to do, which is what lets it target the *boundaries* — before the
//! request reaches the server, mid-request, after the server has the
//! whole request but before the response, and mid-response. Every fired
//! fault is counted under a stable label (`"reset@after-request"`) so
//! tests assert exactly what happened.
//!
//! Limitations, deliberate: bodies must be `Content-Length`-framed (our
//! wire layer never emits chunked messages, and strips caller-supplied
//! `Transfer-Encoding`), and "reset" is a `shutdown(Both)` — the peer
//! observes an immediate EOF mid-message, which our wire layer reports
//! as [`crate::Error::ConnectionClosed`], the same class a true RST
//! lands in. (`TcpStream::set_linger`, which would force a real RST, is
//! not yet stable.)

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where in a request/response exchange a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// After the proxy has the client's request but before any byte of
    /// it reaches the server: the server never sees the request.
    BeforeRequest,
    /// After roughly half the request has been forwarded: the server
    /// sees a torn request.
    MidRequest,
    /// After the full request has been forwarded (the server executes
    /// it) but before any response byte reaches the client.
    AfterRequest,
    /// After roughly half the response has been forwarded: the client
    /// sees a torn response.
    MidResponse,
}

impl Point {
    /// All four injection points, in exchange order.
    pub const ALL: [Point; 4] = [
        Point::BeforeRequest,
        Point::MidRequest,
        Point::AfterRequest,
        Point::MidResponse,
    ];

    /// Stable label used in fault counters.
    pub fn label(&self) -> &'static str {
        match self {
            Point::BeforeRequest => "before-request",
            Point::MidRequest => "mid-request",
            Point::AfterRequest => "after-request",
            Point::MidResponse => "mid-response",
        }
    }
}

/// One fault to inject into one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Relay the exchange untouched.
    None,
    /// Close the client-facing connection at the given point.
    Reset(Point),
    /// Stall the relay at the given point for the given duration, then
    /// continue normally.
    Delay(Point, Duration),
    /// Forward the response minus its last `n` bytes, then close — the
    /// client sees a short body.
    Truncate(usize),
    /// Garble the response status line, then forward the rest — the
    /// client sees non-HTTP bytes where a response should be.
    Corrupt,
}

impl Fault {
    /// Stable counter label, e.g. `"reset@after-request"`.
    pub fn label(&self) -> String {
        match self {
            Fault::None => "none".to_owned(),
            Fault::Reset(p) => format!("reset@{}", p.label()),
            Fault::Delay(p, _) => format!("delay@{}", p.label()),
            Fault::Truncate(_) => "truncate".to_owned(),
            Fault::Corrupt => "corrupt".to_owned(),
        }
    }
}

/// What to inject, exchange by exchange, across the whole proxy.
#[derive(Debug, Clone)]
pub enum Schedule {
    /// Play this exact script: the first exchange the proxy relays gets
    /// `script[0]`, the second `script[1]`, … and every exchange past
    /// the end is relayed untouched. Deterministic regardless of which
    /// connection carries which exchange — draws are globally ordered.
    Script(Vec<Fault>),
    /// Each exchange independently suffers a fault with probability
    /// `rate`; the kind and point are drawn uniformly from a seeded
    /// generator, so a given `(seed, rate)` replays identically.
    Random {
        /// RNG seed.
        seed: u64,
        /// Per-exchange fault probability in `[0, 1]`.
        rate: f64,
        /// Duration used for `Delay` faults.
        delay: Duration,
        /// Bytes cut by `Truncate` faults.
        truncate: usize,
    },
}

/// Shared, draw-ordered schedule state.
struct ScheduleState {
    schedule: Schedule,
    next: usize,
    rng: StdRng,
}

impl ScheduleState {
    fn new(schedule: Schedule) -> ScheduleState {
        let seed = match &schedule {
            Schedule::Script(_) => 0,
            Schedule::Random { seed, .. } => *seed,
        };
        ScheduleState {
            schedule,
            next: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn draw(&mut self) -> Fault {
        let i = self.next;
        self.next += 1;
        match &self.schedule {
            Schedule::Script(s) => s.get(i).copied().unwrap_or(Fault::None),
            Schedule::Random {
                rate,
                delay,
                truncate,
                ..
            } => {
                let (rate, delay, truncate) = (*rate, *delay, *truncate);
                if !self.rng.random_bool(rate.clamp(0.0, 1.0)) {
                    return Fault::None;
                }
                // 4 reset points + 2 delay points + truncate + corrupt.
                match (self.rng.random_range(0.0..8.0)) as usize {
                    0 => Fault::Reset(Point::BeforeRequest),
                    1 => Fault::Reset(Point::MidRequest),
                    2 => Fault::Reset(Point::AfterRequest),
                    3 => Fault::Reset(Point::MidResponse),
                    4 => Fault::Delay(Point::BeforeRequest, delay),
                    5 => Fault::Delay(Point::MidResponse, delay),
                    6 => Fault::Truncate(truncate.max(1)),
                    _ => Fault::Corrupt,
                }
            }
        }
    }
}

/// Counters for what the proxy actually did.
#[derive(Default)]
pub struct FaultStats {
    fired: Mutex<BTreeMap<String, u64>>,
    connections: AtomicU64,
    exchanges: AtomicU64,
}

impl FaultStats {
    /// Snapshot of fired-fault counts by label (faults of kind `None`
    /// are not recorded).
    pub fn fired(&self) -> BTreeMap<String, u64> {
        self.fired.lock().unwrap().clone()
    }

    /// Count for one label, e.g. `"reset@mid-response"`.
    pub fn fired_count(&self, label: &str) -> u64 {
        self.fired.lock().unwrap().get(label).copied().unwrap_or(0)
    }

    /// Total faults fired across all labels.
    pub fn total_fired(&self) -> u64 {
        self.fired.lock().unwrap().values().sum()
    }

    /// Client connections accepted.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Complete requests read from clients (faulted or not).
    pub fn exchanges(&self) -> u64 {
        self.exchanges.load(Ordering::Relaxed)
    }

    fn record(&self, fault: &Fault) {
        if matches!(fault, Fault::None) {
            return;
        }
        *self.fired.lock().unwrap().entry(fault.label()).or_insert(0) += 1;
    }
}

/// A fault-injecting TCP relay in front of one upstream server.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<FaultStats>,
    live: Arc<Mutex<HashMap<u64, TcpStream>>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Bind an ephemeral local port and start relaying to `upstream`.
    pub fn start(upstream: SocketAddr, schedule: Schedule) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(FaultStats::default());
        let live: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let state = Arc::new(Mutex::new(ScheduleState::new(schedule)));

        let accept_stop = Arc::clone(&stop);
        let accept_stats = Arc::clone(&stats);
        let accept_live = Arc::clone(&live);
        let accept_thread = thread::spawn(move || {
            let mut conn_id: u64 = 0;
            for incoming in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let client = match incoming {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                conn_id += 1;
                accept_stats.connections.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = client.try_clone() {
                    accept_live.lock().unwrap().insert(conn_id, clone);
                }
                let stats = Arc::clone(&accept_stats);
                let state = Arc::clone(&state);
                let live = Arc::clone(&accept_live);
                thread::spawn(move || {
                    let _ = relay_connection(client, upstream, &state, &stats);
                    live.lock().unwrap().remove(&conn_id);
                });
            }
        });

        Ok(FaultProxy {
            addr,
            stop,
            stats,
            live,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Stop accepting, sever every live relay, and join the acceptor.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for (_, s) in self.live.lock().unwrap().drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// One parsed-enough HTTP message: raw bytes plus relay metadata.
struct Frame {
    bytes: Vec<u8>,
    /// Offset where the body starts (== header block length).
    body_start: usize,
    /// First line, for HEAD detection on the request side.
    first_line: String,
    /// Did the message carry `Connection: close`?
    close: bool,
}

/// Ceiling on a relayed message, generous relative to wire::Limits.
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Read one Content-Length-framed HTTP message. `Ok(None)` means clean
/// EOF before any byte (the peer is simply done). `head_response`
/// suppresses the body read (HEAD responses carry none).
fn read_frame(stream: &mut TcpStream, head_response: bool) -> io::Result<Option<Frame>> {
    let mut bytes = Vec::with_capacity(1024);
    let mut probe = [0u8; 1];
    // Byte-at-a-time up to the header terminator: the proxy must not
    // read ahead into a second pipelined message, and `TcpStream` has no
    // buffer to give back.
    let body_start = loop {
        match stream.read(&mut probe) {
            Ok(0) => {
                if bytes.is_empty() {
                    return Ok(None);
                }
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(_) => bytes.push(probe[0]),
            Err(e) => return Err(e),
        }
        if bytes.len() > MAX_FRAME {
            return Err(io::ErrorKind::InvalidData.into());
        }
        if bytes.ends_with(b"\r\n\r\n") || bytes.ends_with(b"\n\n") {
            break bytes.len();
        }
    };
    let head = String::from_utf8_lossy(&bytes[..body_start]).into_owned();
    let first_line = head.lines().next().unwrap_or("").to_owned();
    let mut content_length = 0usize;
    let mut close = false;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Lenient: an unparseable length relays as zero — the wire
            // layer downstream is the one that rejects it with a 400.
            content_length = value.parse().unwrap_or(0);
        } else if name.eq_ignore_ascii_case("connection")
            && value
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("close"))
        {
            close = true;
        }
    }
    if content_length > MAX_FRAME {
        return Err(io::ErrorKind::InvalidData.into());
    }
    if !head_response && content_length > 0 {
        let mut body = vec![0u8; content_length];
        stream.read_exact(&mut body)?;
        bytes.extend_from_slice(&body);
    }
    Ok(Some(Frame {
        bytes,
        body_start,
        first_line,
        close,
    }))
}

/// Sever a relay pair: FIN both directions on both sockets.
fn sever(client: &TcpStream, server: &TcpStream) {
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
}

/// Relay one client connection until EOF, a fault kills it, or either
/// side asks to close.
fn relay_connection(
    mut client: TcpStream,
    upstream: SocketAddr,
    state: &Mutex<ScheduleState>,
    stats: &FaultStats,
) -> io::Result<()> {
    let mut server = TcpStream::connect(upstream)?;
    server.set_nodelay(true)?;
    client.set_nodelay(true)?;
    loop {
        let Some(request) = read_frame(&mut client, false)? else {
            sever(&client, &server);
            return Ok(());
        };
        stats.exchanges.fetch_add(1, Ordering::Relaxed);
        let fault = state.lock().unwrap().draw();
        stats.record(&fault);
        let is_head = request.first_line.starts_with("HEAD ");

        // --- request side ---
        match fault {
            Fault::Reset(Point::BeforeRequest) => {
                // The server never hears about this request at all.
                sever(&client, &server);
                return Ok(());
            }
            Fault::Reset(Point::MidRequest) => {
                let half = request.bytes.len() / 2;
                let _ = server.write_all(&request.bytes[..half]);
                let _ = server.flush();
                sever(&client, &server);
                return Ok(());
            }
            Fault::Delay(Point::BeforeRequest, d) => {
                thread::sleep(d);
                server.write_all(&request.bytes)?;
            }
            Fault::Delay(Point::MidRequest, d) => {
                let half = request.bytes.len() / 2;
                server.write_all(&request.bytes[..half])?;
                server.flush()?;
                thread::sleep(d);
                server.write_all(&request.bytes[half..])?;
            }
            _ => server.write_all(&request.bytes)?,
        }
        server.flush()?;

        if let Fault::Delay(Point::AfterRequest, d) = fault {
            thread::sleep(d);
        }
        if let Fault::Reset(Point::AfterRequest) = fault {
            // The server has the whole request and will execute it; the
            // client never sees a single response byte. Drain the
            // response first so the server finishes cleanly.
            let _ = read_frame(&mut server, is_head);
            sever(&client, &server);
            return Ok(());
        }

        // --- response side ---
        let Some(response) = read_frame(&mut server, is_head)? else {
            // Upstream hung up without answering; pass the EOF on.
            sever(&client, &server);
            return Ok(());
        };
        match fault {
            Fault::Reset(Point::MidResponse) => {
                let half = response.bytes.len() / 2;
                let _ = client.write_all(&response.bytes[..half]);
                let _ = client.flush();
                sever(&client, &server);
                return Ok(());
            }
            Fault::Delay(Point::MidResponse, d) => {
                let half = response.bytes.len() / 2;
                client.write_all(&response.bytes[..half])?;
                client.flush()?;
                thread::sleep(d);
                client.write_all(&response.bytes[half..])?;
            }
            Fault::Truncate(n) => {
                let keep = response.bytes.len().saturating_sub(n.max(1));
                let _ = client.write_all(&response.bytes[..keep]);
                let _ = client.flush();
                sever(&client, &server);
                return Ok(());
            }
            Fault::Corrupt => {
                let mut garbled = response.bytes.clone();
                let line_end = garbled
                    .iter()
                    .position(|&b| b == b'\r' || b == b'\n')
                    .unwrap_or(garbled.len().min(12));
                for b in &mut garbled[..line_end] {
                    *b ^= 0x2a;
                }
                client.write_all(&garbled)?;
            }
            _ => client.write_all(&response.bytes)?,
        }
        client.flush()?;

        if request.close || response.close {
            sever(&client, &server);
            return Ok(());
        }
        // body_start is carried for debugging/assertions; silence the
        // field-never-read lint without dropping it from the struct.
        let _ = (request.body_start, response.body_start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::message::{Request, Response};
    use crate::retry::RetryPolicy;
    use crate::server::{Server, ServerConfig};

    fn echo_server() -> Server {
        Server::bind("127.0.0.1:0", ServerConfig::default(), |req: Request| {
            Response::ok().with_body(req.target.path().as_bytes().to_vec())
        })
        .unwrap()
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            jitter: 0.5,
            seed: 7,
            deadline: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_millis(2000)),
            write_timeout: Some(Duration::from_millis(2000)),
        }
    }

    #[test]
    fn clean_relay_is_transparent() {
        let s = echo_server();
        let proxy = FaultProxy::start(s.local_addr(), Schedule::Script(vec![])).unwrap();
        let mut c = Client::connect(proxy.addr()).unwrap();
        for i in 0..3 {
            let path = format!("/clean/{i}");
            assert_eq!(c.get(&path).unwrap().body_text(), path);
        }
        assert_eq!(proxy.stats().exchanges(), 3);
        assert_eq!(proxy.stats().total_fired(), 0);
        proxy.shutdown();
        s.shutdown();
    }

    #[test]
    fn scripted_reset_fires_once_and_client_recovers() {
        let s = echo_server();
        let proxy = FaultProxy::start(
            s.local_addr(),
            Schedule::Script(vec![Fault::Reset(Point::MidResponse)]),
        )
        .unwrap();
        let mut c = Client::connect(proxy.addr()).unwrap();
        c.set_retry_policy(fast_policy());
        // GET is idempotent: the torn response is retried transparently.
        assert_eq!(c.get("/x").unwrap().body_text(), "/x");
        assert_eq!(proxy.stats().fired_count("reset@mid-response"), 1);
        assert!(c.retry_count() >= 1);
        proxy.shutdown();
        s.shutdown();
    }

    #[test]
    fn corrupt_response_is_retried() {
        let s = echo_server();
        let proxy =
            FaultProxy::start(s.local_addr(), Schedule::Script(vec![Fault::Corrupt])).unwrap();
        let mut c = Client::connect(proxy.addr()).unwrap();
        c.set_retry_policy(fast_policy());
        assert_eq!(c.get("/y").unwrap().body_text(), "/y");
        assert_eq!(proxy.stats().fired_count("corrupt"), 1);
        proxy.shutdown();
        s.shutdown();
    }

    #[test]
    fn gzip_coded_exchanges_survive_truncation_and_corruption() {
        // A gzip body that loses its tail must surface as a transport
        // error and a retry — never decode into silently-short data.
        let payload = "the quick brown fox jumps over the lazy dog ".repeat(100);
        let s = {
            let payload = payload.clone();
            Server::bind(
                "127.0.0.1:0",
                ServerConfig::default(),
                move |req: Request| {
                    if req.method == crate::Method::Put {
                        // Echo the (already transparently decoded) body so
                        // the torn-request leg can verify the round trip.
                        Response::ok().with_body(req.body)
                    } else {
                        Response::ok().with_body(payload.as_bytes().to_vec())
                    }
                },
            )
            .unwrap()
        };
        let proxy = FaultProxy::start(
            s.local_addr(),
            Schedule::Script(vec![
                Fault::Truncate(40),
                Fault::Corrupt,
                Fault::None,
                Fault::Reset(Point::MidRequest),
            ]),
        )
        .unwrap();
        let mut c = Client::connect(proxy.addr()).unwrap();
        c.set_accept_gzip(true);
        c.set_retry_policy(fast_policy());

        // Truncated gzip response → retried → exact plaintext.
        assert_eq!(c.get("/traj").unwrap().body_text(), payload);
        assert_eq!(proxy.stats().fired_count("truncate"), 1);
        // Corrupted status line in front of a gzip body → same story.
        assert_eq!(c.get("/traj").unwrap().body_text(), payload);
        assert_eq!(proxy.stats().fired_count("corrupt"), 1);
        // A gzip request body torn mid-flight: PUT is idempotent, so the
        // client replays it and the server decodes the intact copy.
        let resp = c
            .send(
                Request::new(crate::Method::Put, "/echo")
                    .with_body(crate::gzip::compress(payload.as_bytes()))
                    .with_header("Content-Encoding", "gzip"),
            )
            .unwrap();
        assert_eq!(resp.body_text(), payload);
        assert_eq!(proxy.stats().fired_count("reset@mid-request"), 1);
        proxy.shutdown();
        s.shutdown();
    }

    #[test]
    fn random_schedule_is_reproducible() {
        let sched = || Schedule::Random {
            seed: 99,
            rate: 0.5,
            delay: Duration::from_millis(1),
            truncate: 4,
        };
        let mut a = ScheduleState::new(sched());
        let mut b = ScheduleState::new(sched());
        let draws_a: Vec<Fault> = (0..64).map(|_| a.draw()).collect();
        let draws_b: Vec<Fault> = (0..64).map(|_| b.draw()).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|f| !matches!(f, Fault::None)));
        assert!(draws_a.iter().any(|f| matches!(f, Fault::None)));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            Fault::Reset(Point::BeforeRequest).label(),
            "reset@before-request"
        );
        assert_eq!(
            Fault::Delay(Point::MidResponse, Duration::from_millis(1)).label(),
            "delay@mid-response"
        );
        assert_eq!(Fault::Truncate(3).label(), "truncate");
        assert_eq!(Fault::Corrupt.label(), "corrupt");
    }
}
