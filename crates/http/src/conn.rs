//! Non-blocking connection state machines for the reactor server.
//!
//! [`RequestParser`] is the server's HTTP/1.1 request parser. It is
//! incremental: it is fed whatever bytes the socket had ready and
//! reports either "need more", a complete [`Request`], or a protocol
//! reject that already knows its status code. It never blocks and never
//! owns the transport, so one reactor thread can interleave thousands of
//! connections each sitting at an arbitrary parse position — headers
//! split across TCP segments, bodies arriving a byte at a time, several
//! pipelined requests inside one segment.
//!
//! [`Conn`] wraps a non-blocking [`TcpStream`] with that parser plus an
//! outgoing byte buffer and walks the connection through its life
//! cycle:
//!
//! ```text
//! reading-head → reading-body → dispatched → writing-response
//!      ▲                                          │
//!      └────────── keep-alive (parked) ◄──────────┘
//! ```
//!
//! The reactor (in [`crate::reactor`]) owns readiness, timers, and the
//! worker pool; nothing in this module calls `epoll`, which keeps every
//! state transition unit-testable against plain in-memory buffers.

use crate::error::{Error, Result};
use crate::headers::Headers;
use crate::message::{Request, Response, Version};
use crate::method::Method;
use crate::status::StatusCode;
use crate::uri::Target;
use crate::wire::{self, Limits};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Parse a `METHOD target HTTP/1.x` request line.
fn parse_request_line(line: &str) -> Result<(Method, Target, Version)> {
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(Error::Parse(format!("malformed request line `{line}`"))),
    };
    let version = match version {
        "HTTP/1.1" => Version::V1_1,
        "HTTP/1.0" => Version::V1_0,
        v => return Err(Error::UnsupportedVersion(v.to_owned())),
    };
    let method: Method = method.parse().expect("infallible");
    Ok((method, Target::parse(target), version))
}

/// A protocol error the parser converted into a ready-to-send response.
/// The connection always closes after a reject: the stream position may
/// be desynchronised (e.g. an unframeable body), so continuing would
/// serve garbage as the next request.
#[derive(Debug)]
pub(crate) struct Reject {
    /// Status to answer with (`400`, `413`, or `431`).
    pub status: StatusCode,
    /// Human-readable reason, sent as the plain-text body.
    pub message: String,
}

impl Reject {
    fn new(status: StatusCode, message: impl Into<String>) -> Reject {
        Reject {
            status,
            message: message.into(),
        }
    }

    /// The error response this reject is answered with.
    pub(crate) fn response(&self) -> Response {
        Response::error(self.status, &self.message).with_header("Connection", "close")
    }
}

/// One step of incremental parsing.
#[derive(Debug)]
pub(crate) enum Step {
    /// The buffer holds only a prefix of a request; feed more bytes.
    NeedMore,
    /// A complete request was parsed and drained from the buffer; the
    /// parser has reset itself for the next one (pipelining).
    Done(Box<Request>),
    /// Protocol error; answer and close.
    Reject(Reject),
}

/// Result of scanning the buffer for one line.
enum LineStep {
    /// Complete line, drained from the buffer (terminator stripped).
    Line(String),
    /// No terminator in the buffer yet.
    Partial,
    /// The line exceeds `max` bytes (counted without the terminator).
    TooLong,
    /// Line bytes are not UTF-8.
    NotUtf8,
}

/// Pop one CRLF- (or bare-LF-) terminated line off the front of `buf`.
/// `scanned` remembers how far previous calls already searched so a
/// byte-at-a-time trickle costs O(n), not O(n²).
fn take_line(buf: &mut Vec<u8>, scanned: &mut usize, max: usize) -> LineStep {
    match buf[*scanned..].iter().position(|&b| b == b'\n') {
        Some(rel) => {
            let nl = *scanned + rel;
            let mut end = nl;
            if end > 0 && buf[end - 1] == b'\r' {
                end -= 1;
            }
            if end > max {
                return LineStep::TooLong;
            }
            let line = match std::str::from_utf8(&buf[..end]) {
                Ok(s) => s.to_owned(),
                Err(_) => return LineStep::NotUtf8,
            };
            buf.drain(..=nl);
            *scanned = 0;
            LineStep::Line(line)
        }
        None => {
            *scanned = buf.len();
            // A trailing `\r` may be the first half of the CRLF; like the
            // complete-line branch, do not count it against the limit.
            let held = buf.len() - usize::from(buf.last() == Some(&b'\r'));
            if held > max {
                LineStep::TooLong
            } else {
                LineStep::Partial
            }
        }
    }
}

/// Body-framing position within one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Request line + header block.
    Head,
    /// `Content-Length`-framed body; `remaining` bytes outstanding.
    FixedBody,
    /// Chunked: expecting a chunk-size line.
    ChunkSize,
    /// Chunked: inside chunk data; `remaining` bytes outstanding.
    ChunkData,
    /// Chunked: expecting the CRLF that closes a chunk.
    ChunkCrlf,
    /// Chunked: trailer lines until an empty line.
    Trailers,
}

/// Incremental, non-blocking HTTP/1.1 request parser.
#[derive(Debug)]
pub(crate) struct RequestParser {
    limits: Limits,
    phase: Phase,
    request_line: Option<(Method, Target, Version)>,
    headers: Headers,
    body: Vec<u8>,
    remaining: usize,
    scanned: usize,
}

impl RequestParser {
    pub(crate) fn new(limits: Limits) -> RequestParser {
        RequestParser {
            limits,
            phase: Phase::Head,
            request_line: None,
            headers: Headers::new(),
            body: Vec::new(),
            remaining: 0,
            scanned: 0,
        }
    }

    /// Has the in-flight request progressed past its request line? This
    /// is the boundary where the server swaps the keep-alive idle
    /// deadline for the (longer) body-read deadline — a client pausing
    /// mid-upload is slow, not idle.
    pub(crate) fn saw_request_line(&self) -> bool {
        self.request_line.is_some()
    }

    /// Is the parser mid-request? (Distinguishes a clean keep-alive EOF
    /// from a connection truncated inside a message.)
    pub(crate) fn in_progress(&self, buf: &[u8]) -> bool {
        !buf.is_empty() || self.request_line.is_some() || self.phase != Phase::Head
    }

    fn reset(&mut self) {
        self.phase = Phase::Head;
        self.request_line = None;
        self.headers = Headers::new();
        self.body = Vec::new();
        self.remaining = 0;
        self.scanned = 0;
    }

    fn finish(&mut self) -> Step {
        let (method, target, version) = self.request_line.take().expect("head parsed");
        let req = Request {
            method,
            target,
            version,
            headers: std::mem::take(&mut self.headers),
            body: std::mem::take(&mut self.body),
        };
        self.reset();
        Step::Done(Box::new(req))
    }

    /// Consume as much of `buf` as possible; at most one complete
    /// request is returned per call (responses must go out in order, so
    /// the caller dispatches one request at a time and pumps again after
    /// the response is written).
    pub(crate) fn advance(&mut self, buf: &mut Vec<u8>) -> Step {
        loop {
            match self.phase {
                Phase::Head => {
                    let what = if self.request_line.is_none() {
                        "request line"
                    } else {
                        "header line"
                    };
                    let line = match take_line(buf, &mut self.scanned, self.limits.max_header_line)
                    {
                        LineStep::Line(l) => l,
                        LineStep::Partial => return Step::NeedMore,
                        LineStep::TooLong => {
                            return Step::Reject(Reject::new(
                                StatusCode::HEADER_FIELDS_TOO_LARGE,
                                format!("{what} exceeds {} bytes", self.limits.max_header_line),
                            ))
                        }
                        LineStep::NotUtf8 => {
                            return Step::Reject(Reject::new(
                                StatusCode::BAD_REQUEST,
                                "malformed request",
                            ))
                        }
                    };
                    if self.request_line.is_none() {
                        // Unparseable line or unsupported version: both
                        // answer 400.
                        match parse_request_line(&line) {
                            Ok(parts) => self.request_line = Some(parts),
                            Err(_) => {
                                return Step::Reject(Reject::new(
                                    StatusCode::BAD_REQUEST,
                                    "malformed request",
                                ))
                            }
                        }
                    } else if line.is_empty() {
                        // End of the header block: pick the body framing.
                        if self.headers.has_token("Transfer-Encoding", "chunked") {
                            self.phase = Phase::ChunkSize;
                        } else {
                            let len = match wire::strict_content_length(&self.headers) {
                                Ok(l) => l.unwrap_or(0),
                                Err(_) => {
                                    return Step::Reject(Reject::new(
                                        StatusCode::BAD_REQUEST,
                                        "malformed request",
                                    ))
                                }
                            };
                            if len > self.limits.max_body {
                                return Step::Reject(Reject::new(
                                    StatusCode::ENTITY_TOO_LARGE,
                                    format!("entity body exceeds {} bytes", self.limits.max_body),
                                ));
                            }
                            if len == 0 {
                                return self.finish();
                            }
                            self.body.reserve(len.min(1 << 20));
                            self.remaining = len;
                            self.phase = Phase::FixedBody;
                        }
                    } else {
                        if self.headers.len() >= self.limits.max_headers {
                            return Step::Reject(Reject::new(
                                StatusCode::HEADER_FIELDS_TOO_LARGE,
                                format!("header count exceeds {}", self.limits.max_headers),
                            ));
                        }
                        match wire::parse_header_field(&line) {
                            Ok((name, value)) => self.headers.append(name, value),
                            Err(_) => {
                                return Step::Reject(Reject::new(
                                    StatusCode::BAD_REQUEST,
                                    "malformed request",
                                ))
                            }
                        }
                    }
                }
                Phase::FixedBody | Phase::ChunkData => {
                    let take = buf.len().min(self.remaining);
                    self.body.extend_from_slice(&buf[..take]);
                    buf.drain(..take);
                    self.scanned = 0;
                    self.remaining -= take;
                    if self.remaining > 0 {
                        return Step::NeedMore;
                    }
                    if self.phase == Phase::FixedBody {
                        return self.finish();
                    }
                    self.phase = Phase::ChunkCrlf;
                }
                Phase::ChunkSize => {
                    let line = match take_line(buf, &mut self.scanned, self.limits.max_header_line)
                    {
                        LineStep::Line(l) => l,
                        LineStep::Partial => return Step::NeedMore,
                        LineStep::TooLong | LineStep::NotUtf8 => {
                            return Step::Reject(Reject::new(
                                StatusCode::BAD_REQUEST,
                                "malformed request",
                            ))
                        }
                    };
                    let size_part = line.split(';').next().unwrap_or("").trim();
                    let size = match usize::from_str_radix(size_part, 16) {
                        Ok(s) => s,
                        Err(_) => {
                            return Step::Reject(Reject::new(
                                StatusCode::BAD_REQUEST,
                                "malformed request",
                            ))
                        }
                    };
                    if self.body.len() + size > self.limits.max_body {
                        return Step::Reject(Reject::new(
                            StatusCode::ENTITY_TOO_LARGE,
                            format!("chunked body exceeds {} bytes", self.limits.max_body),
                        ));
                    }
                    if size == 0 {
                        self.phase = Phase::Trailers;
                    } else {
                        self.remaining = size;
                        self.phase = Phase::ChunkData;
                    }
                }
                Phase::ChunkCrlf => {
                    match take_line(buf, &mut self.scanned, 4) {
                        LineStep::Line(l) if l.is_empty() => self.phase = Phase::ChunkSize,
                        LineStep::Partial => return Step::NeedMore,
                        _ => {
                            return Step::Reject(Reject::new(
                                StatusCode::BAD_REQUEST,
                                "malformed request",
                            ))
                        }
                    };
                }
                Phase::Trailers => {
                    match take_line(buf, &mut self.scanned, self.limits.max_header_line) {
                        LineStep::Line(l) if l.is_empty() => return self.finish(),
                        LineStep::Line(_) => {} // trailer field: skipped
                        LineStep::Partial => return Step::NeedMore,
                        LineStep::TooLong | LineStep::NotUtf8 => {
                            return Step::Reject(Reject::new(
                                StatusCode::BAD_REQUEST,
                                "malformed request",
                            ))
                        }
                    }
                }
            }
        }
    }
}

/// Where a connection sits in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnPhase {
    /// Accumulating request bytes (parked when nothing has arrived yet).
    Reading,
    /// A request is in the worker pool; socket I/O is quiesced.
    Dispatched,
    /// Draining a response to the socket.
    Writing,
}

/// What the inactivity deadline of a connection currently means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// Waiting between requests: `keep_alive_timeout` governs, and an
    /// expiry is a normal idle close.
    Idle,
    /// Mid-request (the request line has arrived): `body_read_timeout`
    /// governs, and an expiry drops the peer as *slow*, never as idle.
    Body,
}

/// Outcome of pumping the read side of a connection.
#[derive(Debug)]
pub(crate) enum ReadOutcome {
    /// Still waiting for a complete request; keep read interest.
    NeedMore,
    /// A request is ready; the connection is now `Dispatched`.
    Request(Box<Request>),
    /// A protocol reject was queued as the response; the connection is
    /// now `Writing` and will close after the drain.
    Reject,
    /// The connection is finished (EOF, reset, or truncated request);
    /// drop it.
    Closed,
}

/// Outcome of pumping the write side of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteOutcome {
    /// Bytes remain; keep write interest.
    Pending,
    /// Response fully drained and the connection stays open (the caller
    /// re-parks it and pumps any pipelined bytes already buffered).
    KeepAlive,
    /// Response fully drained and the connection must close, or the
    /// socket failed mid-write; drop it.
    Closed,
}

/// One reactor-managed connection.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) phase: ConnPhase,
    parser: RequestParser,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    /// Requests dispatched on this connection (budget accounting).
    pub(crate) dispatched: usize,
    close_after_write: bool,
    /// The peer shut down its write side; serve what is buffered, then
    /// close instead of re-parking (half-close support).
    peer_eof: bool,
    /// The armed inactivity deadline and its kind, if any.
    pub(crate) timer: Option<(TimerKind, Instant)>,
    /// When this connection's one live entry in the reactor's timer
    /// heap falls due, if it has one.
    pub(crate) timer_queued: Option<Instant>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, limits: Limits) -> Conn {
        Conn {
            stream,
            phase: ConnPhase::Reading,
            parser: RequestParser::new(limits),
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            dispatched: 0,
            close_after_write: false,
            peer_eof: false,
            timer: None,
            timer_queued: None,
        }
    }

    /// Parked = sitting between requests with nothing buffered: the
    /// state the C10k regime holds thousands of connections in, each
    /// costing one fd plus these (empty) buffers.
    pub(crate) fn is_parked(&self) -> bool {
        self.phase == ConnPhase::Reading && !self.parser.in_progress(&self.inbuf)
    }

    /// Past the request line of an in-flight request?
    pub(crate) fn saw_request_line(&self) -> bool {
        self.parser.saw_request_line()
    }

    /// Read whatever the socket has and advance the parser. Returns at
    /// most one request; `read_bytes` reports how many bytes arrived so
    /// the caller can refresh inactivity deadlines and byte counters.
    pub(crate) fn on_readable(&mut self, read_bytes: &mut u64) -> ReadOutcome {
        debug_assert_eq!(self.phase, ConnPhase::Reading);
        let mut chunk = [0u8; 16 * 1024];
        loop {
            // Parse before reading: pipelined bytes may already be
            // buffered from a previous readiness.
            match self.parser.advance(&mut self.inbuf) {
                Step::Done(req) => {
                    self.phase = ConnPhase::Dispatched;
                    return ReadOutcome::Request(req);
                }
                Step::Reject(reject) => {
                    self.queue_response(&reject.response(), false, true);
                    return ReadOutcome::Reject;
                }
                Step::NeedMore => {}
            }
            if self.peer_eof {
                // EOF with an incomplete request (truncated) or between
                // requests (clean keep-alive close): either way, done.
                return ReadOutcome::Closed;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => self.peer_eof = true,
                Ok(n) => {
                    *read_bytes += n as u64;
                    self.inbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return ReadOutcome::NeedMore
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }

    /// Serialise `resp` into the output buffer and move to `Writing`.
    pub(crate) fn queue_response(&mut self, resp: &Response, head_only: bool, close: bool) {
        self.outbuf.clear();
        self.outpos = 0;
        // Serialising to a Vec cannot fail.
        let _ = wire::write_response(&mut self.outbuf, resp, head_only);
        self.close_after_write = close;
        self.phase = ConnPhase::Writing;
    }

    /// Hand a pre-serialised response (from a worker) to the writer.
    pub(crate) fn queue_response_bytes(&mut self, bytes: Vec<u8>, close: bool) {
        self.outbuf = bytes;
        self.outpos = 0;
        self.close_after_write = close;
        self.phase = ConnPhase::Writing;
    }

    /// Drain the output buffer as far as the socket allows.
    pub(crate) fn on_writable(&mut self, wrote_bytes: &mut u64) -> WriteOutcome {
        debug_assert_eq!(self.phase, ConnPhase::Writing);
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return WriteOutcome::Closed,
                Ok(n) => {
                    *wrote_bytes += n as u64;
                    self.outpos += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return WriteOutcome::Pending
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return WriteOutcome::Closed,
            }
        }
        self.outbuf = Vec::new();
        self.outpos = 0;
        if self.close_after_write || self.peer_eof {
            WriteOutcome::Closed
        } else {
            self.phase = ConnPhase::Reading;
            WriteOutcome::KeepAlive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uri::normalize_path;
    use proptest::prelude::*;

    fn parser() -> RequestParser {
        RequestParser::new(Limits::default())
    }

    /// Everything one parser made of a byte stream.
    #[derive(Debug)]
    struct Parsed {
        /// Completed requests, in stream order.
        requests: Vec<Request>,
        /// The reject that ended parsing, if any.
        reject: Option<Reject>,
        /// Left mid-message when the input ran out: a peer EOF here is a
        /// truncated request, not a clean keep-alive close.
        in_progress: bool,
    }

    /// Feed `raw` to one parser in the segments carved out by the split
    /// points `cuts` (each taken modulo `raw.len() + 1`, in any order),
    /// pumping `advance` after every segment as the reactor does after
    /// every read. Parsing stops at the first reject.
    fn parse_segmented(raw: &[u8], cuts: &[usize], limits: Limits) -> Parsed {
        let mut ends: Vec<usize> = cuts.iter().map(|c| c % (raw.len() + 1)).collect();
        ends.push(raw.len());
        ends.sort_unstable();
        let mut p = RequestParser::new(limits);
        let mut buf = Vec::new();
        let mut requests = Vec::new();
        let mut reject = None;
        let mut from = 0;
        'feed: for to in ends {
            buf.extend_from_slice(&raw[from..to]);
            from = to;
            loop {
                match p.advance(&mut buf) {
                    Step::NeedMore => break,
                    Step::Done(req) => requests.push(*req),
                    Step::Reject(r) => {
                        reject = Some(r);
                        break 'feed;
                    }
                }
            }
        }
        Parsed {
            requests,
            reject,
            in_progress: p.in_progress(&buf),
        }
    }

    fn method_strategy() -> impl Strategy<Value = Method> {
        prop_oneof![
            Just(Method::Get),
            Just(Method::Put),
            Just(Method::Delete),
            Just(Method::PropFind),
            Just(Method::PropPatch),
            Just(Method::MkCol),
            Just(Method::Copy),
            Just(Method::Lock),
        ]
    }

    /// Split points for [`parse_segmented`]: up to eight cuts anywhere in
    /// a message of up to a few KiB.
    fn cuts_strategy() -> impl Strategy<Value = Vec<usize>> {
        prop::collection::vec(0usize..4096, 0..8)
    }

    fn encode(requests: &[&Request]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for req in requests {
            wire::write_request(&mut bytes, req, "h").unwrap();
        }
        bytes
    }

    fn feed(p: &mut RequestParser, buf: &mut Vec<u8>, bytes: &[u8]) -> Step {
        buf.extend_from_slice(bytes);
        p.advance(buf)
    }

    #[test]
    fn whole_request_in_one_segment() {
        let mut p = parser();
        let mut buf = Vec::new();
        let step = feed(
            &mut p,
            &mut buf,
            b"PUT /doc HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        );
        match step {
            Step::Done(req) => {
                assert_eq!(req.method, Method::Put);
                assert_eq!(req.target.path(), "/doc");
                assert_eq!(req.body, b"hello");
            }
            other => panic!("{other:?}"),
        }
        assert!(buf.is_empty());
        assert!(!p.in_progress(&buf));
    }

    #[test]
    fn byte_at_a_time_trickle() {
        let raw = b"GET /a%20b HTTP/1.1\r\nHost: x\r\nDepth: 0\r\n\r\n";
        let mut p = parser();
        let mut buf = Vec::new();
        let mut done = None;
        for (i, b) in raw.iter().enumerate() {
            match feed(&mut p, &mut buf, &[*b]) {
                Step::NeedMore => assert!(i + 1 < raw.len(), "no request at end of input"),
                Step::Done(req) => {
                    assert_eq!(i + 1, raw.len(), "finished early at byte {i}");
                    done = Some(req);
                }
                Step::Reject(r) => panic!("rejected at byte {i}: {r:?}"),
            }
        }
        let req = done.unwrap();
        assert_eq!(req.target.path(), "/a b");
        assert_eq!(req.headers.get("depth"), Some("0"));
    }

    #[test]
    fn request_line_progress_is_visible() {
        // The deadline switch (idle → body) keys off this flag.
        let mut p = parser();
        let mut buf = Vec::new();
        assert!(matches!(
            feed(&mut p, &mut buf, b"PUT /x HTTP/1.1\r\nCont"),
            Step::NeedMore
        ));
        assert!(p.saw_request_line());
        assert!(p.in_progress(&buf));
        // Partial request line only: not yet.
        let mut p2 = parser();
        let mut buf2 = Vec::new();
        assert!(matches!(
            feed(&mut p2, &mut buf2, b"PUT /x HT"),
            Step::NeedMore
        ));
        assert!(!p2.saw_request_line());
        assert!(p2.in_progress(&buf2));
        // Nothing between requests: an EOF here is a clean keep-alive
        // close, but one in a short body is a truncated request.
        let mut p3 = parser();
        let mut buf3 = Vec::new();
        assert!(!p3.in_progress(&buf3));
        assert!(matches!(
            feed(
                &mut p3,
                &mut buf3,
                b"PUT / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"
            ),
            Step::NeedMore
        ));
        assert!(p3.in_progress(&buf3));
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let mut p = parser();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"GET /one HTTP/1.0\r\n\r\nGET /two HTTP/1.1\r\n\r\n");
        match p.advance(&mut buf) {
            Step::Done(req) => {
                assert_eq!(req.target.path(), "/one");
                assert_eq!(req.version, Version::V1_0);
            }
            other => panic!("{other:?}"),
        }
        // The second request is still buffered, untouched.
        match p.advance(&mut buf) {
            Step::Done(req) => {
                assert_eq!(req.target.path(), "/two");
                assert_eq!(req.version, Version::V1_1);
            }
            other => panic!("{other:?}"),
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn chunked_body_across_fragments() {
        let mut p = parser();
        let mut buf = Vec::new();
        assert!(matches!(
            feed(
                &mut p,
                &mut buf,
                b"POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel"
            ),
            Step::NeedMore
        ));
        assert!(matches!(
            feed(&mut p, &mut buf, b"lo\r\n3\r"),
            Step::NeedMore
        ));
        match feed(&mut p, &mut buf, b"\nxyz\r\n0\r\n\r\n") {
            Step::Done(req) => assert_eq!(req.body, b"helloxyz"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chunked_trailers_are_skipped() {
        let mut p = parser();
        let mut buf = Vec::new();
        let step = feed(
            &mut p,
            &mut buf,
            b"POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\nX-Sum: 1\r\n\r\n",
        );
        match step {
            Step::Done(req) => assert_eq!(req.body, b"ok"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_header_line_rejects_431() {
        let limits = Limits {
            max_header_line: 64,
            ..Limits::default()
        };
        let mut p = RequestParser::new(limits);
        let mut buf = Vec::new();
        let long = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "v".repeat(256));
        match feed(&mut p, &mut buf, long.as_bytes()) {
            Step::Reject(r) => assert_eq!(r.status.code(), 431),
            other => panic!("{other:?}"),
        }
        // Detected even without a terminator in sight.
        let mut p = RequestParser::new(limits);
        let mut buf = Vec::new();
        let no_newline = format!("GET / HTTP/1.1\r\nX-Big: {}", "v".repeat(256));
        match feed(&mut p, &mut buf, no_newline.as_bytes()) {
            Step::Reject(r) => assert_eq!(r.status.code(), 431),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn header_line_at_the_limit_parses_at_every_split() {
        let limits = Limits {
            max_header_line: 64,
            ..Limits::default()
        };
        let at_limit = format!("X-Big: {}", "v".repeat(64 - "X-Big: ".len()));
        assert_eq!(at_limit.len(), 64);
        let over = format!("{at_limit}v");
        for (line, fits) in [(&at_limit, true), (&over, false)] {
            let raw = format!("GET / HTTP/1.1\r\n{line}\r\n\r\n");
            // Every split point, between the line's CR and LF and just
            // before its CR included.
            for split in 0..=raw.len() {
                let parsed = parse_segmented(raw.as_bytes(), &[split], limits);
                if fits {
                    assert!(
                        parsed.reject.is_none(),
                        "split {split}: {:?}",
                        parsed.reject
                    );
                    assert_eq!(parsed.requests.len(), 1, "split {split}");
                    assert_eq!(
                        parsed.requests[0].headers.get("X-Big").map(str::len),
                        Some(64 - "X-Big: ".len())
                    );
                } else {
                    let status = parsed.reject.map(|r| r.status.code());
                    assert_eq!(status, Some(431), "split {split}");
                }
            }
        }
    }

    #[test]
    fn too_many_headers_reject_431() {
        let limits = Limits {
            max_headers: 3,
            ..Limits::default()
        };
        let mut p = RequestParser::new(limits);
        let mut buf = Vec::new();
        let raw = b"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\n\r\n";
        match feed(&mut p, &mut buf, raw) {
            Step::Reject(r) => assert_eq!(r.status.code(), 431),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unframeable_content_length_rejects_400() {
        // Reading `banana` as 0 would leave the body on the stream to be
        // parsed as the next request: a keep-alive desync.
        for raw in [
            b"PUT / HTTP/1.1\r\nContent-Length: banana\r\n\r\nGET /x HTTP/1.1\r\n\r\n".as_slice(),
            b"PUT / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello6".as_slice(),
        ] {
            let parsed = parse_segmented(raw, &[], Limits::default());
            assert_eq!(parsed.reject.map(|r| r.status.code()), Some(400));
            assert!(parsed.requests.is_empty(), "smuggled request surfaced");
        }
        // Repeated identical values are fine (RFC 7230 §3.3.2).
        let mut p = parser();
        let mut buf = Vec::new();
        let raw = b"PUT / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        match feed(&mut p, &mut buf, raw) {
            Step::Done(req) => assert_eq!(req.body, b"hello"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_declared_body_rejects_413_before_body_arrives() {
        let limits = Limits {
            max_body: 16,
            ..Limits::default()
        };
        for head in [
            b"PUT / HTTP/1.1\r\nContent-Length: 64\r\n\r\n".as_slice(),
            b"PUT / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n40\r\n".as_slice(),
        ] {
            let mut p = RequestParser::new(limits);
            let mut buf = Vec::new();
            match feed(&mut p, &mut buf, head) {
                Step::Reject(r) => assert_eq!(r.status.code(), 413),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn bad_version_and_garbage_reject_400() {
        for raw in [
            b"GET / HTTP/2\r\n\r\n".as_slice(),
            b"NOT A REQUEST\r\n\r\n".as_slice(),
        ] {
            let mut p = parser();
            let mut buf = Vec::new();
            match feed(&mut p, &mut buf, raw) {
                Step::Reject(r) => assert_eq!(r.status.code(), 400),
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(
            parse_request_line("GET / HTTP/2"),
            Err(Error::UnsupportedVersion(_))
        ));
        assert!(matches!(
            parse_request_line("GARBAGE"),
            Err(Error::Parse(_))
        ));
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let mut p = parser();
        let mut buf = Vec::new();
        match feed(&mut p, &mut buf, b"GET / HTTP/1.1\nHost: x\n\n") {
            Step::Done(req) => assert_eq!(req.headers.get("host"), Some("x")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parser_resets_cleanly_between_requests() {
        let mut p = parser();
        let mut buf = Vec::new();
        for i in 0..5 {
            let raw = format!("PUT /r{i} HTTP/1.1\r\nContent-Length: 2\r\n\r\n{i:02}");
            match feed(&mut p, &mut buf, raw.as_bytes()) {
                Step::Done(req) => {
                    assert_eq!(req.target.path(), format!("/r{i}"));
                    assert_eq!(req.body, format!("{i:02}").as_bytes());
                }
                other => panic!("{other:?}"),
            }
            assert!(!p.in_progress(&buf));
        }
    }

    proptest! {
        /// Requests survive the wire in any segmentation: method, path,
        /// headers, body.
        #[test]
        fn request_wire_roundtrip(
            method in method_strategy(),
            segs in prop::collection::vec("[a-zA-Z0-9_.-]{1,10}", 0..4),
            body in prop::collection::vec(any::<u8>(), 0..2048),
            header_val in "[a-zA-Z0-9 ,;=/_.-]{0,40}",
            cuts in cuts_strategy(),
        ) {
            let path = format!("/{}", segs.join("/"));
            let req = Request::new(method.clone(), &path)
                .with_header("X-Test", header_val.trim())
                .with_body(body.clone());
            let parsed = parse_segmented(&encode(&[&req]), &cuts, Limits::default());
            prop_assert!(parsed.reject.is_none(), "{:?}", parsed.reject);
            prop_assert!(!parsed.in_progress);
            prop_assert_eq!(parsed.requests.len(), 1);
            let back = &parsed.requests[0];
            prop_assert_eq!(&back.method, &method);
            prop_assert_eq!(back.target.path(), normalize_path(&path));
            prop_assert_eq!(&back.body, &body);
            prop_assert_eq!(back.headers.get("x-test"), Some(header_val.trim()));
            prop_assert_eq!(back.headers.get("host"), Some("h"));
        }

        /// The parser never panics on arbitrary junk, and what it makes
        /// of the junk does not depend on how the bytes were segmented.
        #[test]
        fn parser_total_on_junk(
            junk in prop::collection::vec(any::<u8>(), 0..512),
            cuts in cuts_strategy(),
        ) {
            let whole = parse_segmented(&junk, &[], Limits::default());
            let split = parse_segmented(&junk, &cuts, Limits::default());
            prop_assert_eq!(format!("{whole:?}"), format!("{split:?}"));
        }

        /// A two-request pipeline never desyncs: whatever the bodies
        /// contain (including bytes that look like request lines), both
        /// messages parse back intact and the stream is exactly
        /// exhausted, wherever the segment boundaries fall.
        #[test]
        fn pipelined_requests_never_desync(
            m1 in method_strategy(),
            m2 in method_strategy(),
            b1 in prop::collection::vec(any::<u8>(), 0..1024),
            b2 in prop::collection::vec(any::<u8>(), 0..1024),
            cuts in cuts_strategy(),
        ) {
            let r1 = Request::new(m1.clone(), "/first").with_body(b1.clone());
            let r2 = Request::new(m2.clone(), "/second").with_body(b2.clone());
            let parsed = parse_segmented(&encode(&[&r1, &r2]), &cuts, Limits::default());
            prop_assert!(parsed.reject.is_none(), "{:?}", parsed.reject);
            prop_assert!(!parsed.in_progress);
            prop_assert_eq!(parsed.requests.len(), 2);
            let (a, b) = (&parsed.requests[0], &parsed.requests[1]);
            prop_assert_eq!(&a.method, &m1);
            prop_assert_eq!(a.target.path(), "/first");
            prop_assert_eq!(&a.body, &b1);
            prop_assert_eq!(&b.method, &m2);
            prop_assert_eq!(b.target.path(), "/second");
            prop_assert_eq!(&b.body, &b2);
        }

        /// Caller-supplied framing headers (a stray `Transfer-Encoding:
        /// chunked`, a bogus `Content-Length`) are stripped by the
        /// writer: the message on the wire is singly framed and a
        /// pipelined follow-up request still parses at the right
        /// boundary.
        #[test]
        fn caller_framing_headers_cannot_desync(
            body in prop::collection::vec(any::<u8>(), 0..1024),
            bogus_cl in "[a-z]{1,8}",
            cuts in cuts_strategy(),
        ) {
            let r1 = Request::new(Method::Put, "/poison")
                .with_header("Transfer-Encoding", "chunked")
                .with_header("Content-Length", bogus_cl.as_str())
                .with_body(body.clone());
            let r2 = Request::new(Method::Get, "/after");
            let parsed = parse_segmented(&encode(&[&r1, &r2]), &cuts, Limits::default());
            prop_assert!(parsed.reject.is_none(), "{:?}", parsed.reject);
            prop_assert!(!parsed.in_progress);
            prop_assert_eq!(parsed.requests.len(), 2);
            prop_assert_eq!(&parsed.requests[0].body, &body);
            prop_assert!(parsed.requests[0].headers.get("transfer-encoding").is_none());
            prop_assert_eq!(parsed.requests[1].target.path(), "/after");
        }

        /// An unparseable Content-Length is rejected outright — never
        /// silently treated as 0, which is what used to let a body be
        /// re-read as a smuggled second request.
        #[test]
        fn unparseable_content_length_always_rejected(
            cl in "[a-zA-Z ;_+-]{1,10}",
            cuts in cuts_strategy(),
        ) {
            let raw = format!(
                "PUT /x HTTP/1.1\r\nHost: h\r\nContent-Length: {cl}\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n"
            );
            let parsed = parse_segmented(raw.as_bytes(), &cuts, Limits::default());
            prop_assert_eq!(
                parsed.reject.as_ref().map(|r| r.status.code()),
                Some(400),
                "CL `{}` was accepted",
                cl
            );
            prop_assert!(parsed.requests.is_empty());
        }
    }
}
