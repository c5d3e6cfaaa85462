//! The HTTP/1.1 codec: one incremental message parser for both
//! directions, one serialiser, and the keep-alive decision.
//!
//! [`Parser`] is fed whatever bytes have arrived and reports "need
//! more", one complete message, or an [`Error`]. It never blocks and
//! never owns the transport. The reactor ([`crate::conn`]) runs it over
//! requests, one non-blocking read at a time, so one thread can hold
//! thousands of connections each at an arbitrary parse position:
//! headers split across TCP segments, bodies arriving a byte at a time,
//! several pipelined requests inside one segment. The client runs it
//! over responses through [`read_response`], a blocking driver.
//!
//! The parser handles request and status lines, header blocks (with
//! size limits), and `Content-Length` and `Transfer-Encoding: chunked`
//! bodies. The size limits exist for the reason the paper gives:
//! unbounded XML request bodies are an easy denial-of-service vector,
//! so "the maximum should be set as low as possible for a given
//! application".

use crate::error::{Error, Result};
use crate::headers::Headers;
use crate::message::{Request, Response, Version};
use crate::method::Method;
use crate::status::StatusCode;
use crate::uri::Target;
use std::fmt;
use std::io::{self, Read, Write};

/// Parsing limits. The defaults are generous enough for the paper's
/// 100 MB-metadata robustness test while still bounded.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of a single header line.
    pub max_header_line: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Maximum entity-body size in bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_header_line: 16 * 1024,
            max_headers: 128,
            max_body: 512 * 1024 * 1024,
        }
    }
}

/// The start line of the message in flight.
#[derive(Debug)]
enum Start {
    Request(Method, Target, Version),
    Status(StatusCode, Version),
}

/// Parse a `METHOD target HTTP/1.x` request line.
fn parse_request_line(line: &str) -> Result<Start> {
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
    Ok(Start::Request(method, Target::parse(target), version))
}

/// Parse an `HTTP/1.x code reason` status line.
fn parse_status_line(line: &str) -> Result<Start> {
    let mut parts = line.splitn(3, ' ');
    let version = match parts.next() {
        Some("HTTP/1.0") => Version::V1_0,
        Some(v) if v.starts_with("HTTP/1.") => Version::V1_1,
        _ => return Err(Error::Parse(format!("malformed status line `{line}`"))),
    };
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| Error::Parse(format!("bad status code in `{line}`")))?;
    Ok(Start::Status(StatusCode::new(code), version))
}

/// Parse one `Name: value` header field.
fn parse_header_field(line: &str) -> Result<(&str, &str)> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| Error::Parse(format!("malformed header line `{line}`")))?;
    if name.is_empty() || name.contains(' ') {
        return Err(Error::Parse(format!("malformed header name `{name}`")));
    }
    Ok((name, value.trim()))
}

/// Parse `Content-Length` strictly. A value that does not parse as a
/// non-negative integer, or duplicate fields (or list members) that
/// disagree, are framing attacks or bugs: treating them as 0 would
/// leave the body bytes on the stream to be read as the *next* message
/// on a keep-alive connection (request desync / smuggling). Repeated
/// identical values are coalesced, as RFC 7230 §3.3.2 allows.
fn strict_content_length(headers: &Headers) -> Result<Option<usize>> {
    let mut seen: Option<usize> = None;
    for raw in headers.get_all("Content-Length") {
        for part in raw.split(',') {
            let part = part.trim();
            let n: usize = part
                .parse()
                .map_err(|_| Error::Parse(format!("invalid Content-Length `{part}`")))?;
            match seen {
                Some(prev) if prev != n => {
                    return Err(Error::Parse(format!(
                        "conflicting Content-Length values ({prev} vs {n})"
                    )))
                }
                _ => seen = Some(n),
            }
        }
    }
    Ok(seen)
}

/// A fault in a line of chunked framing (size, CRLF or trailer) is a
/// malformed body, however long the line.
fn bad_chunk(_: Error) -> Error {
    Error::Parse("malformed chunked framing".into())
}

/// Body-framing position within one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Start line + header block.
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

/// A complete message.
#[derive(Debug)]
pub(crate) enum Message {
    Request(Box<Request>),
    Response(Response),
}

/// Incremental, non-blocking HTTP/1.1 message parser. Failures are
/// [`Error::TooLarge`] for a part over its limit, [`Error::Parse`] (or
/// [`Error::UnsupportedVersion`]) for malformed syntax.
#[derive(Debug)]
pub(crate) struct Parser {
    limits: Limits,
    /// `None` reads requests; `Some(method)` reads the response to a
    /// request made with `method`.
    response_to: Option<Method>,
    phase: Phase,
    start: Option<Start>,
    headers: Headers,
    body: Vec<u8>,
    remaining: usize,
    /// Bytes at the front of the buffer that belong to messages or
    /// lines already taken; drained once per [`Parser::advance`].
    consumed: usize,
    /// How far the line scan has searched, so a byte-at-a-time trickle
    /// costs O(n), not O(n²).
    scanned: usize,
}

impl Parser {
    pub(crate) fn new(limits: Limits, response_to: Option<Method>) -> Parser {
        Parser {
            limits,
            response_to,
            phase: Phase::Head,
            start: None,
            headers: Headers::new(),
            body: Vec::new(),
            remaining: 0,
            consumed: 0,
            scanned: 0,
        }
    }

    /// Has the message in flight progressed past its start line?
    pub(crate) fn saw_start_line(&self) -> bool {
        self.start.is_some()
    }

    /// Is the parser mid-message? (Distinguishes a clean keep-alive EOF
    /// from a connection truncated inside a message.)
    pub(crate) fn in_progress(&self, buf: &[u8]) -> bool {
        !buf.is_empty() || self.start.is_some() || self.phase != Phase::Head
    }

    /// Consume as much of `buf` as possible and drain what was consumed.
    /// At most one complete message is returned per call (responses must
    /// go out in order, so the server dispatches one request at a time
    /// and pumps again after the response is written); `Ok(None)` means
    /// the buffer holds only a prefix of a message.
    pub(crate) fn advance(&mut self, buf: &mut Vec<u8>) -> Result<Option<Message>> {
        let out = self.parse(buf);
        // Once per call, not once per line: a drain moves everything
        // still buffered behind the drained prefix.
        buf.drain(..self.consumed);
        self.scanned -= self.consumed;
        self.consumed = 0;
        out
    }

    fn parse(&mut self, buf: &[u8]) -> Result<Option<Message>> {
        let max_line = self.limits.max_header_line;
        loop {
            match self.phase {
                Phase::Head => {
                    let Some(line) = self.take_line(buf, max_line)? else {
                        return Ok(None);
                    };
                    if self.start.is_none() {
                        self.start = Some(match self.response_to {
                            None => parse_request_line(line)?,
                            Some(_) => parse_status_line(line)?,
                        });
                    } else if !line.is_empty() {
                        if self.headers.len() >= self.limits.max_headers {
                            return Err(Error::TooLarge {
                                what: "header count",
                                limit: self.limits.max_headers,
                            });
                        }
                        let (name, value) = parse_header_field(line)?;
                        self.headers.append(name, value);
                    } else if self.bodiless() {
                        return Ok(Some(self.finish()));
                    } else if self.headers.has_token("Transfer-Encoding", "chunked") {
                        self.phase = Phase::ChunkSize;
                    } else {
                        let len = strict_content_length(&self.headers)?.unwrap_or(0);
                        if len > self.limits.max_body {
                            return Err(Error::TooLarge {
                                what: "entity body",
                                limit: self.limits.max_body,
                            });
                        }
                        if len == 0 {
                            return Ok(Some(self.finish()));
                        }
                        // A request reserves at most 1 MiB before its bytes
                        // arrive, so a client that declares a large body and
                        // trickles it pins little. A response is reserved
                        // whole, sparing a multi-MiB body its regrowths: the
                        // client trusts its server's length up to `max_body`.
                        let ahead = match self.response_to {
                            Some(_) => len,
                            None => len.min(1 << 20),
                        };
                        self.body.reserve(ahead);
                        self.remaining = len;
                        self.phase = Phase::FixedBody;
                    }
                }
                Phase::FixedBody | Phase::ChunkData => {
                    let take = (buf.len() - self.consumed).min(self.remaining);
                    self.body
                        .extend_from_slice(&buf[self.consumed..self.consumed + take]);
                    self.consumed += take;
                    self.scanned = self.consumed;
                    self.remaining -= take;
                    if self.remaining > 0 {
                        return Ok(None);
                    }
                    if self.phase == Phase::FixedBody {
                        return Ok(Some(self.finish()));
                    }
                    self.phase = Phase::ChunkCrlf;
                }
                Phase::ChunkSize => {
                    let Some(line) = self.take_line(buf, max_line).map_err(bad_chunk)? else {
                        return Ok(None);
                    };
                    let size_part = line.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(size_part, 16)
                        .map_err(|_| Error::Parse(format!("bad chunk size `{size_part}`")))?;
                    if size > self.limits.max_body - self.body.len() {
                        return Err(Error::TooLarge {
                            what: "chunked body",
                            limit: self.limits.max_body,
                        });
                    }
                    if size == 0 {
                        self.phase = Phase::Trailers;
                    } else {
                        self.remaining = size;
                        self.phase = Phase::ChunkData;
                    }
                }
                Phase::ChunkCrlf => match self.take_line(buf, 4).map_err(bad_chunk)? {
                    None => return Ok(None),
                    Some("") => self.phase = Phase::ChunkSize,
                    Some(_) => return Err(Error::Parse("missing CRLF after chunk".into())),
                },
                Phase::Trailers => match self.take_line(buf, max_line).map_err(bad_chunk)? {
                    None => return Ok(None),
                    Some("") => return Ok(Some(self.finish())),
                    Some(_) => {} // trailer field: skipped
                },
            }
        }
    }

    /// Take one CRLF- (or bare-LF-) terminated line, without its
    /// terminator, off the unconsumed part of `buf`. `Ok(None)` means
    /// no terminator has arrived yet.
    fn take_line<'b>(&mut self, buf: &'b [u8], max: usize) -> Result<Option<&'b str>> {
        let too_long = Error::TooLarge {
            what: "header line",
            limit: max,
        };
        let rest = &buf[self.consumed..];
        let Some(rel) = buf[self.scanned..].iter().position(|&b| b == b'\n') else {
            self.scanned = buf.len();
            // A trailing `\r` may be the first half of the CRLF; like a
            // complete line, do not count it against the limit.
            let held = rest.len() - usize::from(rest.last() == Some(&b'\r'));
            return if held > max { Err(too_long) } else { Ok(None) };
        };
        let nl = self.scanned + rel - self.consumed;
        let end = nl - usize::from(nl > 0 && rest[nl - 1] == b'\r');
        if end > max {
            return Err(too_long);
        }
        let line = std::str::from_utf8(&rest[..end])
            .map_err(|_| Error::Parse("non-UTF-8 header data".into()))?;
        self.consumed += nl + 1;
        self.scanned = self.consumed;
        Ok(Some(line))
    }

    /// A response to HEAD, and a 1xx, 204 or 304 response, ends at its
    /// head whatever its framing headers say.
    fn bodiless(&self) -> bool {
        match (&self.start, &self.response_to) {
            (Some(Start::Status(status, _)), Some(method)) => {
                !method.response_has_body() || matches!(status.code(), 100..=199 | 204 | 304)
            }
            _ => false,
        }
    }

    fn finish(&mut self) -> Message {
        let headers = std::mem::take(&mut self.headers);
        let body = std::mem::take(&mut self.body);
        self.phase = Phase::Head;
        match self.start.take().expect("head parsed") {
            Start::Request(method, target, version) => Message::Request(Box::new(Request {
                method,
                target,
                version,
                headers,
                body,
            })),
            Start::Status(status, version) => Message::Response(Response {
                status,
                version,
                headers,
                body,
            }),
        }
    }
}

/// Read one complete response to a request made with `method`. The
/// read buffer lives only for this call: the client does not pipeline,
/// so nothing of a next message can be waiting behind this one.
pub fn read_response(r: &mut impl Read, method: &Method, limits: &Limits) -> Result<Response> {
    let mut parser = Parser::new(*limits, Some(method.clone()));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match parser.advance(&mut buf)? {
            Some(Message::Response(resp)) => return Ok(resp),
            Some(Message::Request(_)) => unreachable!("a response parser yields responses"),
            None => {}
        }
        match r.read(&mut chunk) {
            Ok(0) => return Err(Error::ConnectionClosed),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Encode a body as chunked transfer coding with the given chunk size.
pub fn encode_chunked(body: &[u8], chunk_size: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 64);
    for chunk in body.chunks(chunk_size.max(1)) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

/// Serialise a message head: `start` (the request or status line), the
/// caller's headers, and one `Content-Length` of `body_len`. The
/// serialiser owns the framing headers: `Content-Length` is always
/// recomputed from the actual body, and `Transfer-Encoding` is dropped.
/// Every message is framed by length, and forwarding a caller-set
/// `Transfer-Encoding: chunked` beside it would emit two conflicting
/// framings of one message (request-smuggling territory).
fn write_head(
    w: &mut impl Write,
    start: fmt::Arguments,
    headers: &Headers,
    body_len: usize,
) -> Result<()> {
    write!(w, "{start}\r\n")?;
    for (n, v) in headers.iter() {
        if !n.eq_ignore_ascii_case("content-length") && !n.eq_ignore_ascii_case("transfer-encoding")
        {
            write!(w, "{n}: {v}\r\n")?;
        }
    }
    write!(w, "Content-Length: {body_len}\r\n\r\n")?;
    Ok(())
}

/// Serialise a request head, with a `Host` header unless the caller set
/// one. The body follows it on the wire as it is.
pub fn write_request_head(w: &mut impl Write, req: &Request, host: &str) -> Result<()> {
    let (host_field, host) = if req.headers.contains("Host") {
        ("", "")
    } else {
        ("\r\nHost: ", host)
    };
    let target = req.target.encoded();
    let start = format_args!("{} {target} HTTP/1.1{host_field}{host}", req.method);
    write_head(w, start, &req.headers, req.body.len())
}

/// Serialise a response. `head_only` suppresses the body (HEAD requests)
/// while keeping the Content-Length of the full representation.
pub fn write_response(w: &mut impl Write, resp: &Response, head_only: bool) -> Result<()> {
    let (code, reason) = (resp.status.code(), resp.status.reason());
    write_head(
        w,
        format_args!("HTTP/1.1 {code} {reason}"),
        &resp.headers,
        resp.body.len(),
    )?;
    if !head_only {
        w.write_all(&resp.body)?;
    }
    Ok(())
}

/// Should the connection stay open after this exchange? HTTP/1.1
/// defaults to persistent unless `Connection: close`; HTTP/1.0 defaults
/// to close unless the peer explicitly negotiated `keep-alive`.
pub fn keep_alive(version: Version, headers: &Headers) -> bool {
    match version {
        Version::V1_1 => !headers.has_token("Connection", "close"),
        Version::V1_0 => headers.has_token("Connection", "keep-alive"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that sends one byte per `read()`.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(out.len()).min(1);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// Read `raw` as a response delivered whole and delivered one byte
    /// per `read()`; the incremental parser must make the same of both.
    fn read_both(raw: &[u8], method: &Method, limits: &Limits) -> Result<Response> {
        let whole = read_response(&mut &raw[..], method, limits);
        let trickled = read_response(&mut Trickle(raw), method, limits);
        assert_eq!(
            format!("{whole:?}"),
            format!("{trickled:?}"),
            "{:?}",
            String::from_utf8_lossy(raw)
        );
        whole
    }

    #[test]
    fn start_line_errors() {
        assert!(matches!(
            parse_request_line("GET / HTTP/2"),
            Err(Error::UnsupportedVersion(_))
        ));
        assert!(matches!(
            parse_request_line("GARBAGE"),
            Err(Error::Parse(_))
        ));
        assert!(matches!(
            parse_status_line("HTTP/2 200 OK"),
            Err(Error::Parse(_))
        ));
    }

    #[test]
    fn response_write_read_roundtrip() {
        let resp = Response::new(StatusCode::MULTI_STATUS).with_xml_body("<D:multistatus/>");
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, false).unwrap();
        let back = read_both(&wire, &Method::PropFind, &Limits::default()).unwrap();
        assert_eq!(back.status, StatusCode::MULTI_STATUS);
        assert_eq!(back.body, resp.body);
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let raw = b"HTTP/1.1 200 OK\nX-A: 1\nContent-Length: 2\n\nok";
        let back = read_both(raw, &Method::Get, &Limits::default()).unwrap();
        assert_eq!(back.headers.get("x-a"), Some("1"));
        assert_eq!(back.body, b"ok");
    }

    /// A hostile or broken server cannot make the client read without
    /// bound or misframe the stream. `TooLarge` ends the exchange; the
    /// client retries `Parse` and `ConnectionClosed` on a fresh
    /// connection, so each case must produce the right kind.
    #[test]
    fn hostile_responses_are_refused() {
        let tight = Limits {
            max_header_line: 32,
            max_headers: 2,
            max_body: 4,
        };
        let kind = |e: &Error| match e {
            Error::TooLarge { what, .. } => *what,
            Error::Parse(_) => "parse",
            Error::ConnectionClosed => "closed",
            _ => "other",
        };
        let cases: [(&[u8], &str); 9] = [
            (
                b"HTTP/1.1 200 OK\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n",
                "header count",
            ),
            (
                b"HTTP/1.1 200 OK\r\nX-Long: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n",
                "header line",
            ),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
                "entity body",
            ),
            (
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
                "chunked body",
            ),
            (
                // A chunk size that would wrap the running total.
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\nffffffffffffffff\r\n",
                "chunked body",
            ),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n",
                "parse",
            ),
            (
                b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
                "parse",
            ),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nab", "closed"),
            (b"", "closed"),
        ];
        for (raw, expected) in cases {
            let err = read_both(raw, &Method::Get, &tight).unwrap_err();
            assert_eq!(
                kind(&err),
                expected,
                "{:?}: {err:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn caller_chunked_header_does_not_double_frame() {
        // A caller-set Transfer-Encoding must not reach the wire next to
        // the Content-Length the serialiser emits.
        let req = Request::new(Method::Put, "/x")
            .with_header("Transfer-Encoding", "chunked")
            .with_body("abc");
        let mut wire = Vec::new();
        write_request_head(&mut wire, &req, "h").unwrap();
        wire.extend_from_slice(&req.body);
        let text = String::from_utf8(wire).unwrap();
        assert!(!text.to_ascii_lowercase().contains("transfer-encoding"));
        assert!(text.ends_with("Content-Length: 3\r\n\r\nabc"));
    }

    #[test]
    fn head_has_no_body() {
        let resp = Response::ok().with_body("content");
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, true).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("Content-Length: 7"));
        assert!(!text.ends_with("content"));
        let back = read_both(&wire, &Method::Head, &Limits::default()).unwrap();
        assert!(back.body.is_empty());
    }

    #[test]
    fn chunked_roundtrip() {
        let body: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let encoded = encode_chunked(&body, 1500); // the paper's packet-size mirror
        let mut raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(&encoded);
        let back = read_both(&raw, &Method::Get, &Limits::default()).unwrap();
        assert_eq!(back.body, body);
    }

    #[test]
    fn chunked_empty_body() {
        let encoded = encode_chunked(b"", 1500);
        assert_eq!(encoded, b"0\r\n\r\n");
        let mut raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(&encoded);
        let back = read_both(&raw, &Method::Get, &Limits::default()).unwrap();
        assert!(back.body.is_empty());
    }

    #[test]
    fn chunked_bad_size_errors() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\nhello\r\n0\r\n\r\n";
        assert!(read_both(raw, &Method::Get, &Limits::default()).is_err());
    }

    #[test]
    fn no_content_has_no_body_even_with_junk() {
        let raw = b"HTTP/1.1 204 No Content\r\n\r\n";
        let back = read_both(raw, &Method::Delete, &Limits::default()).unwrap();
        assert_eq!(back.status, StatusCode::NO_CONTENT);
    }

    #[test]
    fn keep_alive_decision() {
        let mut h = Headers::new();
        assert!(keep_alive(Version::V1_1, &h));
        h.set("Connection", "close");
        assert!(!keep_alive(Version::V1_1, &h));
        h.set("Connection", "Keep-Alive");
        assert!(keep_alive(Version::V1_1, &h));
    }

    #[test]
    fn http_1_0_defaults_to_close() {
        // An HTTP/1.0 peer that says nothing about the connection gets
        // a close; only an explicit keep-alive holds it open.
        let mut h = Headers::new();
        assert!(!keep_alive(Version::V1_0, &h));
        h.set("Connection", "keep-alive");
        assert!(keep_alive(Version::V1_0, &h));
        h.set("Connection", "close");
        assert!(!keep_alive(Version::V1_0, &h));
    }
}
