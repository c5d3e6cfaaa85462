//! The event-driven server core: one reactor thread multiplexing every
//! connection over [`crate::poll::Poller`], plus a small fixed worker
//! pool doing the CPU/repository work.
//!
//! A thread-per-connection server lets a parked keep-alive connection
//! hold a whole OS thread hostage. Here a parked connection costs one fd
//! plus a [`crate::conn::Conn`] with empty buffers — a few hundred
//! bytes — so tens of thousands can sit idle while `min_daemons` workers
//! serve whoever is actually talking.
//!
//! Division of labour, chosen so every socket is touched by exactly one
//! thread and no state needs locking:
//!
//! * The **reactor thread** owns the listener, the poller, every
//!   connection, and all timers. It accepts, reads, parses (via the
//!   incremental [`crate::wire::Parser`]), writes responses, and
//!   expires deadlines.
//! * **Workers** receive complete [`Request`]s over a channel, run the
//!   handler through the shared [`Engine`], serialise the response to
//!   bytes, and push a [`Completion`] back; an eventfd
//!   [`crate::poll::Waker`] interrupts the reactor's wait.
//!
//! Timeouts are *inactivity* deadlines, with socket read-timeout
//! semantics: every byte of progress re-arms the deadline, and the kind switches from [`TimerKind::Idle`]
//! (`keep_alive_timeout`) to [`TimerKind::Body`] (`body_read_timeout`)
//! the moment a request line lands. Deadlines live in a [`BinaryHeap`]
//! holding at most one live entry per connection. Re-arming to a later
//! deadline only records it on the connection; when the queued entry
//! falls due it re-queues itself at the recorded deadline, or is
//! dropped if the timer was cleared. Only an earlier deadline (body →
//! idle) pushes a new entry, and the superseded one is skipped when it
//! pops. So the heap grows with open connections, not with requests.

use crate::conn::{Conn, ConnPhase, ReadOutcome, TimerKind, WriteOutcome};
use crate::message::Request;
use crate::poll::{Event, Interest, Poller, Waker};
use crate::server::{Engine, Exchange};
use crate::wire;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use pse_obs::Counter;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{Shutdown, TcpListener};
use std::os::unix::io::AsRawFd;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Token for the listening socket.
const TOK_LISTENER: u64 = 0;
/// Token for the worker-completion waker.
const TOK_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOK_FIRST_CONN: u64 = 2;

/// A complete request travelling reactor → worker.
struct Job {
    conn_id: u64,
    req: Box<Request>,
    /// Requests already served on this connection (budget accounting).
    served: usize,
    /// Dispatch instant, for the queue-latency histogram.
    queued_at: Instant,
}

/// A serialised response travelling worker → reactor.
struct Completion {
    conn_id: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// Gauge state exported through the registry. Captured by the
/// `register_source` closure, so it must hold only atomics — never the
/// registry itself (no reference cycle).
struct PoolGauges {
    /// Live connections owned by the reactor.
    open: AtomicI64,
    /// Connections parked between requests (the C10k resident set).
    parked: AtomicI64,
    /// Workers currently inside the handler.
    busy: AtomicI64,
    /// Jobs dispatched but not yet picked up by a worker.
    queued: AtomicI64,
    /// Entries in the reactor's timer heap.
    timer_entries: AtomicI64,
    /// Fixed pool size (`min_daemons`).
    pool_size: usize,
}

/// State shared between the reactor thread, the workers, and the
/// shutdown path.
struct ReactorShared {
    engine: Engine,
    gauges: Arc<PoolGauges>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    stop: AtomicBool,
}

/// A running reactor backend; owned by `Server`.
pub(crate) struct Handle {
    shared: Arc<ReactorShared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Handle {
    /// Stop the reactor and join every thread. The reactor shuts each
    /// parked connection down on exit (no waiting out keep-alive
    /// timers), then drops the job channel so workers drain whatever is
    /// queued and retire.
    pub(crate) fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Bind the reactor backend onto an already-bound listener.
pub(crate) fn spawn(listener: TcpListener, engine: Engine) -> io::Result<Handle> {
    listener.set_nonblocking(true)?;
    let pool_size = engine.config.min_daemons.max(1);
    let gauges = Arc::new(PoolGauges {
        open: AtomicI64::new(0),
        parked: AtomicI64::new(0),
        busy: AtomicI64::new(0),
        queued: AtomicI64::new(0),
        timer_entries: AtomicI64::new(0),
        pool_size,
    });
    let source = Arc::clone(&gauges);
    engine.obs.register_source("http.pool", move |snap| {
        snap.set_gauge(
            "http.active_connections",
            source.open.load(Ordering::Relaxed),
        );
        snap.set_gauge("http.conns_parked", source.parked.load(Ordering::Relaxed));
        snap.set_gauge("http.workers_total", source.pool_size as i64);
        snap.set_gauge(
            "http.workers_idle",
            source.pool_size as i64 - source.busy.load(Ordering::Relaxed),
        );
        snap.set_gauge(
            "http.dispatch_queue_depth",
            source.queued.load(Ordering::Relaxed),
        );
        snap.set_gauge(
            "http.timer_entries",
            source.timer_entries.load(Ordering::Relaxed),
        );
    });

    let poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.add(waker.fd(), TOK_WAKER, Interest::READ)?;
    poller.add(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;

    let shared = Arc::new(ReactorShared {
        engine,
        gauges,
        completions: Mutex::new(Vec::new()),
        waker,
        stop: AtomicBool::new(false),
    });

    let (tx, rx) = unbounded::<Job>();
    let mut workers = Vec::with_capacity(pool_size);
    for _ in 0..pool_size {
        let worker_shared = Arc::clone(&shared);
        let worker_rx = rx.clone();
        workers.push(std::thread::spawn(move || {
            worker_loop(&worker_shared, worker_rx)
        }));
    }

    let reactor_shared = Arc::clone(&shared);
    let obs = &reactor_shared.engine.obs;
    let reactor = Reactor {
        wakeups: obs.counter("http.reactor_wakeups"),
        bytes_in: obs.counter("http.bytes_in"),
        bytes_out: obs.counter("http.bytes_out"),
        closed_idle: obs.counter("http.conns_closed_idle"),
        closed_slow: obs.counter("http.conns_closed_slow"),
        resp_4xx: obs.counter("http.responses.4xx"),
        poller,
        listener,
        shared: Arc::clone(&reactor_shared),
        tx,
        conns: HashMap::new(),
        timers: BinaryHeap::new(),
        next_token: TOK_FIRST_CONN,
        events: Vec::new(),
    };
    let reactor = Some(std::thread::spawn(move || reactor.run()));

    Ok(Handle {
        shared,
        reactor,
        workers,
    })
}

/// Worker: handler dispatch and response serialisation only — never
/// socket I/O, which all belongs to the reactor thread.
fn worker_loop(shared: &ReactorShared, rx: Receiver<Job>) {
    let queue_latency = shared.engine.obs.histogram("http.queue_latency_us");
    while let Ok(job) = rx.recv() {
        shared.gauges.queued.fetch_sub(1, Ordering::Relaxed);
        shared.gauges.busy.fetch_add(1, Ordering::Relaxed);
        if shared.engine.obs.is_enabled() {
            queue_latency.observe(job.queued_at.elapsed().as_micros() as u64);
        }
        let Job {
            conn_id,
            req,
            served,
            queued_at,
        } = job;
        // A panicking handler must not shrink the fixed pool: there are
        // no spare workers. Answer 500 and close instead.
        let ex = std::panic::catch_unwind(AssertUnwindSafe(|| {
            shared.engine.respond(*req, served, queued_at)
        }))
        .unwrap_or_else(|_| Exchange::handler_panicked(queued_at));
        let mut bytes = Vec::with_capacity(ex.resp.body.len() + 256);
        // Serialising into a Vec cannot fail.
        let _ = wire::write_response(&mut bytes, &ex.resp, ex.head_only);
        let close = ex.close;
        shared.engine.finish(ex, bytes.len() as u64);
        shared.completions.lock().push(Completion {
            conn_id,
            bytes,
            close,
        });
        shared.waker.wake();
        shared.gauges.busy.fetch_sub(1, Ordering::Relaxed);
    }
    // Channel closed (reactor exited): retire.
}

/// One reactor-owned connection plus its registration bookkeeping.
struct Entry {
    conn: Conn,
    interest: Interest,
    parked: bool,
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    shared: Arc<ReactorShared>,
    tx: Sender<Job>,
    conns: HashMap<u64, Entry>,
    /// Min-heap of `(due, conn token)`. An entry is live while it is
    /// its connection's `timer_queued`; expiry skips the others.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    next_token: u64,
    events: Vec<Event>,
    wakeups: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    closed_idle: Counter,
    closed_slow: Counter,
    resp_4xx: Counter,
}

impl Reactor {
    fn run(mut self) {
        loop {
            let now = Instant::now();
            self.expire_timers(now);
            let timeout = self
                .timers
                .peek()
                .map(|&Reverse((due, _))| due.saturating_duration_since(now));
            self.events.clear();
            let _ = self.poller.wait(&mut self.events, timeout);
            self.wakeups.inc();
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let events = std::mem::take(&mut self.events);
            for ev in &events {
                match ev.token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKER => self.shared.waker.drain(),
                    id => self.conn_event(id, ev),
                }
            }
            self.events = events;
            self.drain_completions();
            self.expire_timers(Instant::now());
            self.shared
                .gauges
                .timer_entries
                .store(self.timers.len() as i64, Ordering::Relaxed);
        }
        // Shutdown: close every connection now — parked keep-alive fds
        // must not hold the process (or a test suite) for the rest of
        // their idle timeout.
        for (_, entry) in self.conns.drain() {
            let _ = entry.conn.stream.shutdown(Shutdown::Both);
        }
        // Dropping `self.tx` closes the job channel; workers finish
        // whatever was already queued and retire.
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.shared
                        .engine
                        .stats
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.next_token;
                    self.next_token += 1;
                    let fd = stream.as_raw_fd();
                    let conn = Conn::new(stream, self.shared.engine.config.limits);
                    if self.poller.add(fd, id, Interest::READ).is_err() {
                        continue; // dropping the stream closes it
                    }
                    self.conns.insert(
                        id,
                        Entry {
                            conn,
                            interest: Interest::READ,
                            parked: true,
                        },
                    );
                    self.shared.gauges.open.fetch_add(1, Ordering::Relaxed);
                    self.shared.gauges.parked.fetch_add(1, Ordering::Relaxed);
                    self.arm_timer(id, TimerKind::Idle);
                    // Any bytes already in flight will surface through
                    // level-triggered readiness; no eager pump needed.
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient (e.g. ECONNABORTED)
            }
        }
    }

    fn conn_event(&mut self, id: u64, ev: &Event) {
        let phase = match self.conns.get(&id) {
            Some(entry) => entry.conn.phase,
            None => return, // already closed this batch
        };
        match phase {
            ConnPhase::Reading => {
                // A hangup/error surfaces as EOF or an error from the
                // next read; route everything through the read pump.
                if ev.readable || ev.hangup || ev.error {
                    self.pump_read(id);
                }
            }
            ConnPhase::Dispatched => {
                // EPOLLHUP/EPOLLERR are unmaskable even at interest
                // NONE. A fully-closed peer can never receive the
                // in-flight response, so drop the connection now; the
                // orphaned completion is discarded on arrival.
                if ev.hangup || ev.error {
                    self.close_conn(id);
                }
            }
            ConnPhase::Writing => {
                if ev.writable || ev.hangup || ev.error {
                    self.pump_write(id);
                }
            }
        }
    }

    fn pump_read(&mut self, id: u64) {
        let (outcome, nread) = {
            let Some(entry) = self.conns.get_mut(&id) else {
                return;
            };
            if entry.conn.phase != ConnPhase::Reading {
                return;
            }
            let mut n = 0u64;
            let outcome = entry.conn.on_readable(&mut n);
            (outcome, n)
        };
        if nread > 0 {
            self.bytes_in.add(nread);
        }
        match outcome {
            ReadOutcome::NeedMore => {
                // Inactivity semantics: progress re-arms the deadline,
                // and the kind flips idle → body once the request line
                // is in (a client pausing mid-upload is slow, not idle).
                let (want, current) = {
                    let entry = &self.conns[&id];
                    let want = if entry.conn.saw_request_line() {
                        TimerKind::Body
                    } else {
                        TimerKind::Idle
                    };
                    (want, entry.conn.timer.map(|(kind, _)| kind))
                };
                if nread > 0 || current != Some(want) {
                    self.arm_timer(id, want);
                }
                self.set_interest(id, Interest::READ);
                self.update_parked(id);
            }
            ReadOutcome::Request(req) => self.dispatch(id, req),
            ReadOutcome::Reject => {
                // The reject response is already queued on the conn.
                self.resp_4xx.inc();
                self.clear_timer(id);
                self.update_parked(id);
                self.pump_write(id);
            }
            ReadOutcome::Closed => self.close_conn(id),
        }
    }

    fn dispatch(&mut self, id: u64, req: Box<Request>) {
        self.clear_timer(id);
        self.set_interest(id, Interest::NONE);
        self.update_parked(id);
        let served = {
            let entry = self.conns.get_mut(&id).expect("dispatching a live conn");
            let served = entry.conn.dispatched;
            entry.conn.dispatched += 1;
            served
        };
        self.shared.gauges.queued.fetch_add(1, Ordering::Relaxed);
        let _ = self.tx.send(Job {
            conn_id: id,
            req,
            served,
            queued_at: Instant::now(),
        });
    }

    fn pump_write(&mut self, id: u64) {
        let (outcome, nwrote) = {
            let Some(entry) = self.conns.get_mut(&id) else {
                return;
            };
            if entry.conn.phase != ConnPhase::Writing {
                return;
            }
            let mut n = 0u64;
            let outcome = entry.conn.on_writable(&mut n);
            (outcome, n)
        };
        if nwrote > 0 {
            self.bytes_out.add(nwrote);
        }
        match outcome {
            WriteOutcome::Pending => self.set_interest(id, Interest::WRITE),
            WriteOutcome::Closed => self.close_conn(id),
            WriteOutcome::KeepAlive => {
                // Response drained; park between requests and pump any
                // pipelined bytes already buffered (which may dispatch
                // the next request immediately).
                self.arm_timer(id, TimerKind::Idle);
                self.update_parked(id);
                self.pump_read(id);
            }
        }
    }

    fn drain_completions(&mut self) {
        let batch: Vec<Completion> = std::mem::take(&mut *self.shared.completions.lock());
        for done in batch {
            let Some(entry) = self.conns.get_mut(&done.conn_id) else {
                continue; // connection died while the worker ran
            };
            entry.conn.queue_response_bytes(done.bytes, done.close);
            // Optimistic immediate write: most responses fit the socket
            // buffer, so this usually finishes without an epoll round.
            self.pump_write(done.conn_id);
        }
    }

    fn expire_timers(&mut self, now: Instant) {
        while let Some(&Reverse((due, id))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            let Some(entry) = self.conns.get_mut(&id) else {
                continue; // connection already gone
            };
            let conn = &mut entry.conn;
            if conn.timer_queued != Some(due) {
                continue; // superseded by an earlier entry
            }
            conn.timer_queued = None;
            match conn.timer {
                None => {} // cleared since it was queued
                Some((_, deadline)) if deadline > now => {
                    // Re-armed since: follow the deadline with one entry.
                    conn.timer_queued = Some(deadline);
                    self.timers.push(Reverse((deadline, id)));
                }
                Some((kind, _)) => {
                    match kind {
                        TimerKind::Idle => self.closed_idle.inc(),
                        TimerKind::Body => self.closed_slow.inc(),
                    }
                    self.close_conn(id);
                }
            }
        }
    }

    fn arm_timer(&mut self, id: u64, kind: TimerKind) {
        let dur = match kind {
            TimerKind::Idle => self.shared.engine.config.keep_alive_timeout,
            TimerKind::Body => self.shared.engine.config.body_read_timeout,
        };
        let deadline = Instant::now() + dur;
        if let Some(entry) = self.conns.get_mut(&id) {
            let conn = &mut entry.conn;
            conn.timer = Some((kind, deadline));
            // A later deadline rides on the queued entry, which re-queues
            // itself when it falls due; only an earlier one needs a push.
            if conn.timer_queued.is_none_or(|due| deadline < due) {
                conn.timer_queued = Some(deadline);
                self.timers.push(Reverse((deadline, id)));
            }
        }
    }

    fn clear_timer(&mut self, id: u64) {
        if let Some(entry) = self.conns.get_mut(&id) {
            entry.conn.timer = None;
        }
    }

    fn set_interest(&mut self, id: u64, want: Interest) {
        if let Some(entry) = self.conns.get_mut(&id) {
            if entry.interest != want
                && self
                    .poller
                    .modify(entry.conn.stream.as_raw_fd(), id, want)
                    .is_ok()
            {
                entry.interest = want;
            }
        }
    }

    fn update_parked(&mut self, id: u64) {
        if let Some(entry) = self.conns.get_mut(&id) {
            let parked = entry.conn.is_parked();
            if parked != entry.parked {
                entry.parked = parked;
                let delta = if parked { 1 } else { -1 };
                self.shared
                    .gauges
                    .parked
                    .fetch_add(delta, Ordering::Relaxed);
            }
        }
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(entry) = self.conns.remove(&id) {
            let _ = self.poller.delete(entry.conn.stream.as_raw_fd());
            if entry.parked {
                self.shared.gauges.parked.fetch_sub(1, Ordering::Relaxed);
            }
            self.shared.gauges.open.fetch_sub(1, Ordering::Relaxed);
            // Dropping the entry closes the socket.
        }
    }
}
