//! A zero-dependency readiness poller over raw `epoll` syscalls.
//!
//! The reactor needs exactly four kernel facilities: an epoll instance,
//! interest registration, a blocking wait with a timeout, and a way for
//! other threads to interrupt that wait. This module wraps them behind
//! [`Poller`] and [`Waker`] with no external crates: the symbols are
//! declared `extern "C"` against the libc that `std` already links, in
//! the same spirit as the workspace's other offline shims.
//!
//! Only level-triggered readiness is used. Edge triggering saves a few
//! `epoll_ctl` calls but turns every missed drain into a hang; the
//! reactor instead toggles interest explicitly as connections move
//! through their state machine, which keeps the invariants checkable.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

// Raw kernel ABI. `std` links libc on every Linux target, so these
// resolve without adding a dependency.
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;

const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

const RLIMIT_NOFILE: i32 = 7;

/// `struct epoll_event`. The kernel packs it on x86_64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// Readable (or a pending accept on a listener).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Peer hung up (full close or write-side shutdown).
    pub hangup: bool,
    /// Error condition on the descriptor.
    pub error: bool,
}

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake on readable.
    pub readable: bool,
    /// Wake on writable.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// No readiness at all. `EPOLLERR`/`EPOLLHUP` are unmaskable, so a
    /// fully-closed peer still surfaces — which is what the reactor
    /// wants for connections whose request is parked in the worker
    /// pool. A mere half-close (peer `shutdown(WR)`) is deliberately
    /// NOT watched here: it is discovered as a zero-length read the
    /// next time the connection is readable, because a level-triggered
    /// `EPOLLRDHUP` would re-fire on every wait and spin the reactor.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.readable {
            bits |= EPOLLIN;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// A level-triggered epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Create an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    /// Register `fd` under `token` with the given interest.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.bits(),
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) })?;
        Ok(())
    }

    /// Change the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.bits(),
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) })?;
        Ok(())
    }

    /// Remove `fd` from the interest list. Closing the descriptor does
    /// this implicitly, but an explicit delete keeps the bookkeeping
    /// honest when a stream outlives its registration.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Block until readiness or `timeout` (`None` waits indefinitely),
    /// appending into `events`. Returns the number of events delivered.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        const CAPACITY: usize = 1024;
        let mut raw = [EpollEvent { events: 0, data: 0 }; CAPACITY];
        let timeout_ms: i32 = match timeout {
            // Round up so a 100µs deadline does not spin at timeout 0.
            Some(d) => {
                d.as_millis().min(i32::MAX as u128) as i32
                    + if d.subsec_millis() as u128 * 1_000_000 != d.subsec_nanos() as u128 {
                        1
                    } else {
                        0
                    }
            }
            None => -1,
        };
        let n = loop {
            match cvt(unsafe {
                epoll_wait(self.epfd, raw.as_mut_ptr(), CAPACITY as i32, timeout_ms)
            }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &raw[..n] {
            let bits = ev.events;
            events.push(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & EPOLLHUP != 0,
                error: bits & EPOLLERR != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.epfd);
        }
    }
}

/// Cross-thread wakeup for a blocked [`Poller::wait`], backed by an
/// `eventfd`. Register [`Waker::fd`] with the poller; any thread may
/// then call [`Waker::wake`], and the reactor drains the pending count
/// with [`Waker::drain`] when the token fires.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Create a non-blocking eventfd waker.
    pub fn new() -> io::Result<Waker> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The descriptor to register for read interest.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Wake the poller. Safe from any thread; coalesces with pending
    /// wakes (eventfd is a counter, not a queue).
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            // The only failure mode is a full counter, which still
            // leaves the poller readable — nothing to handle.
            write(self.fd, &one as *const u64 as *const u8, 8);
        }
    }

    /// Reset the pending-wake counter after the poller reported the
    /// waker readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe {
            read(self.fd, buf.as_mut_ptr(), 8);
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// Raise the soft `RLIMIT_NOFILE` toward `target` (capped at the hard
/// limit). The C10k suite holds thousands of sockets in one process —
/// client and server ends both — so the default soft limit of 1024 on
/// some hosts would fail the run before the reactor is even exercised.
/// Returns the soft limit now in effect.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur >= target {
        return Ok(lim.rlim_cur);
    }
    let want = Rlimit {
        rlim_cur: target.min(lim.rlim_max),
        rlim_max: lim.rlim_max,
    };
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &want) })?;
    Ok(want.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn listener_readable_on_pending_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing pending: a short wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn interest_toggle_and_data_arrival() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        let fd = server_side.as_raw_fd();
        // A fresh socket is writable immediately.
        poller.add(fd, 1, Interest::WRITE).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        // Switch to read interest: quiet until the peer sends bytes.
        poller.modify(fd, 1, Interest::READ).unwrap();
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        client.write_all(b"ping").unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));

        poller.delete(fd).unwrap();
    }

    #[test]
    fn peer_close_wakes_a_reader() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .add(server_side.as_raw_fd(), 3, Interest::READ)
            .unwrap();
        drop(client);
        // A peer FIN makes the socket readable (EOF); the reactor
        // discovers the close as a zero-length read.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
        let mut buf = [0u8; 8];
        assert_eq!(io::Read::read(&mut (&server_side), &mut buf).unwrap(), 0);
    }

    #[test]
    fn waker_interrupts_wait_from_another_thread() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 99, Interest::READ).unwrap();
        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
            w.wake(); // coalesces
        });
        let mut events = Vec::new();
        let started = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        // Both wakes have landed once the thread is joined; one drain
        // clears them (eventfd is a counter, not a queue).
        t.join().unwrap();
        waker.drain();
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn nofile_limit_reaches_c10k_scale() {
        let got = raise_nofile_limit(4096).unwrap();
        assert!(got >= 1024);
    }
}
