//! A bandwidth-throttled TCP relay — the paper's network, in a box.
//!
//! The 2001 evaluation ran on a shared "150-Mbit/s network connection";
//! on a modern loopback both architectures are CPU-bound and the
//! bandwidth-sensitivity the paper measured disappears. Putting this
//! relay in front of a server restores the paper's regime: every byte
//! of both protocols pays the same per-byte cost, so *transfer volume*
//! (page-shipping OODB vs. selective DAV) becomes visible again.
//!
//! The relay paces with a token bucket per direction; burst capacity is
//! one pump buffer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The paper's LAN: 150 Mbit/s ≈ 18.75 MB/s.
pub const PAPER_LAN_BYTES_PER_SEC: u64 = 150_000_000 / 8;

/// A running throttled proxy.
pub struct ThrottledProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Total bytes relayed (both directions), counted as each read is
    /// handed to the write side.
    pub bytes: Arc<AtomicU64>,
}

impl ThrottledProxy {
    /// Listen on an ephemeral loopback port, relaying to `upstream` at
    /// `bytes_per_sec` in each direction.
    pub fn start<A: ToSocketAddrs>(upstream: A, bytes_per_sec: u64) -> std::io::Result<Self> {
        let upstream = upstream
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("bad upstream"))?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let bytes = Arc::new(AtomicU64::new(0));
        let accept_stop = Arc::clone(&stop);
        let counter = Arc::clone(&bytes);
        let accept_thread = std::thread::spawn(move || {
            for client in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = client else { continue };
                let _ = client.set_nodelay(true);
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue;
                };
                let _ = server.set_nodelay(true);
                let (c2, s2) = match (client.try_clone(), server.try_clone()) {
                    (Ok(a), Ok(b)) => (a, b),
                    _ => continue,
                };
                let n1 = Arc::clone(&counter);
                let n2 = Arc::clone(&counter);
                std::thread::spawn(move || pump(client, server, bytes_per_sec, &n1));
                std::thread::spawn(move || pump(s2, c2, bytes_per_sec, &n2));
            }
        });
        Ok(ThrottledProxy {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            bytes,
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting new connections (existing pumps drain and die
    /// with their sockets).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Copy `from` → `to`, pacing to `bytes_per_sec` with a token bucket.
fn pump(mut from: TcpStream, mut to: TcpStream, bytes_per_sec: u64, counter: &AtomicU64) {
    let mut buf = vec![0u8; 16 * 1024];
    let start = Instant::now();
    let mut sent: u64 = 0;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        // Count before delivering: once the peer holds these bytes, a
        // reader of the counter must already see them.
        counter.fetch_add(n as u64, Ordering::Relaxed);
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
        sent += n as u64;
        // Pace: how long *should* `sent` bytes have taken?
        let due = Duration::from_secs_f64(sent as f64 / bytes_per_sec as f64);
        let elapsed = start.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_http::message::Response;
    use pse_http::server::{Server, ServerConfig};
    use pse_http::Client;

    #[test]
    fn relays_and_paces() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default(), |req| {
            Response::ok().with_body(req.body)
        })
        .unwrap();
        // 1 MB/s: a 256 KB round trip (512 KB relayed) must take ≥ ~0.25 s.
        let proxy = ThrottledProxy::start(server.local_addr(), 1_000_000).unwrap();
        let mut client = Client::connect(proxy.local_addr()).unwrap();
        let body = vec![7u8; 256 * 1024];
        let t = Instant::now();
        let resp = client.put("/echo", body.clone()).unwrap();
        let took = t.elapsed();
        assert_eq!(resp.body, body);
        assert!(took >= Duration::from_millis(200), "{took:?} too fast");
        assert!(proxy.bytes.load(Ordering::Relaxed) >= 512 * 1024);
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn small_messages_pass_quickly() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default(), |_req| {
            Response::ok().with_body("pong")
        })
        .unwrap();
        let proxy = ThrottledProxy::start(server.local_addr(), PAPER_LAN_BYTES_PER_SEC).unwrap();
        let mut client = Client::connect(proxy.local_addr()).unwrap();
        let t = Instant::now();
        for _ in 0..10 {
            assert_eq!(client.get("/x").unwrap().body_text(), "pong");
        }
        assert!(t.elapsed() < Duration::from_secs(1));
        proxy.shutdown();
        server.shutdown();
    }
}
