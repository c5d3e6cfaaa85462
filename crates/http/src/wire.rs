//! Wire-format serialisation for HTTP/1.1 messages, and the client's
//! blocking response reader.
//!
//! Handles status lines, header blocks (with size limits),
//! `Content-Length` and `Transfer-Encoding: chunked` bodies, and the
//! keep-alive decision. The server parses requests with the reactor's
//! incremental parser ([`crate::conn`]), which shares the header-field
//! and `Content-Length` rules defined here. The size limits exist for
//! the reason the paper gives: unbounded XML request bodies are an easy
//! denial-of-service vector, so "the maximum should be set as low as
//! possible for a given application".

use crate::error::{Error, Result};
use crate::headers::Headers;
use crate::message::{Request, Response, Version};
use crate::method::Method;
use crate::status::StatusCode;
use std::io::{BufRead, Write};

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

/// Read one CRLF- (or bare-LF-) terminated line, without the terminator.
/// Scans the reader's internal buffer (`fill_buf`) in chunks rather than
/// issuing one `read()` syscall per byte.
fn read_line(r: &mut impl BufRead, max: usize) -> Result<String> {
    let mut buf = Vec::with_capacity(128);
    loop {
        let (used, done) = {
            let available = match r.fill_buf() {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if available.is_empty() {
                if buf.is_empty() {
                    return Err(Error::ConnectionClosed);
                }
                break;
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    buf.extend_from_slice(&available[..i]);
                    (i + 1, true)
                }
                None => {
                    buf.extend_from_slice(available);
                    (available.len(), false)
                }
            }
        };
        r.consume(used);
        if buf.len() > max {
            return Err(Error::TooLarge {
                what: "header line",
                limit: max,
            });
        }
        if done {
            break;
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| Error::Parse("non-UTF-8 header data".into()))
}

/// Read a header block (terminated by an empty line).
fn read_headers(r: &mut impl BufRead, limits: &Limits) -> Result<Headers> {
    let mut headers = Headers::new();
    loop {
        let line = read_line(r, limits.max_header_line)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= limits.max_headers {
            return Err(Error::TooLarge {
                what: "header count",
                limit: limits.max_headers,
            });
        }
        let (name, value) = parse_header_field(&line)?;
        headers.append(name, value);
    }
}

/// Parse one `Name: value` header field. Shared by the response reader
/// and the server's incremental request parser so both enforce
/// identical field-name rules.
pub(crate) fn parse_header_field(line: &str) -> Result<(&str, &str)> {
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
pub fn strict_content_length(headers: &Headers) -> Result<Option<usize>> {
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

/// Read a message body according to the framing headers.
fn read_body(r: &mut impl BufRead, headers: &Headers, limits: &Limits) -> Result<Vec<u8>> {
    if headers.has_token("Transfer-Encoding", "chunked") {
        return read_chunked(r, limits);
    }
    let len = strict_content_length(headers)?.unwrap_or(0);
    if len > limits.max_body {
        return Err(Error::TooLarge {
            what: "entity body",
            limit: limits.max_body,
        });
    }
    let mut body = vec![0u8; len];
    std::io::Read::read_exact(r, &mut body)?;
    Ok(body)
}

/// Decode a chunked body (chunk extensions ignored, trailers skipped).
fn read_chunked(r: &mut impl BufRead, limits: &Limits) -> Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let line = read_line(r, limits.max_header_line)?;
        let size_part = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_part, 16)
            .map_err(|_| Error::Parse(format!("bad chunk size `{size_part}`")))?;
        if body.len() + size > limits.max_body {
            return Err(Error::TooLarge {
                what: "chunked body",
                limit: limits.max_body,
            });
        }
        if size == 0 {
            // Trailers until blank line.
            loop {
                if read_line(r, limits.max_header_line)?.is_empty() {
                    return Ok(body);
                }
            }
        }
        let start = body.len();
        body.resize(start + size, 0);
        std::io::Read::read_exact(r, &mut body[start..])?;
        let crlf = read_line(r, 4)?;
        if !crlf.is_empty() {
            return Err(Error::Parse("missing CRLF after chunk".into()));
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

/// Read a complete response to a request made with `method`.
pub fn read_response(r: &mut impl BufRead, method: &Method, limits: &Limits) -> Result<Response> {
    let line = read_line(r, limits.max_header_line)?;
    let mut parts = line.splitn(3, ' ');
    let version_token = parts.next().unwrap_or("");
    if !version_token.starts_with("HTTP/1.") {
        return Err(Error::Parse(format!("malformed status line `{line}`")));
    }
    let version = if version_token == "HTTP/1.0" {
        Version::V1_0
    } else {
        Version::V1_1
    };
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| Error::Parse(format!("bad status code in `{line}`")))?;
    let headers = read_headers(r, limits)?;
    let status = StatusCode::new(code);
    let body = if !method.response_has_body()
        || code == 204
        || code == 304
        || (100..200).contains(&code)
    {
        Vec::new()
    } else {
        read_body(r, &headers, limits)?
    };
    Ok(Response {
        status,
        version,
        headers,
        body,
    })
}

/// Is this header one the serialiser owns? `Content-Length` is always
/// recomputed from the actual body, and `Transfer-Encoding` is dropped:
/// we frame every message with `Content-Length`, and forwarding a
/// caller-set `Transfer-Encoding: chunked` alongside it would emit two
/// conflicting framings of one message (request-smuggling territory).
fn framing_header(name: &str) -> bool {
    name.eq_ignore_ascii_case("content-length") || name.eq_ignore_ascii_case("transfer-encoding")
}

/// Serialise a request. A `Content-Length` header is always emitted so
/// framing is unambiguous; caller-set framing headers are stripped.
pub fn write_request(w: &mut impl Write, req: &Request, host: &str) -> Result<()> {
    write!(w, "{} {} HTTP/1.1\r\n", req.method, req.target.encoded())?;
    if !req.headers.contains("Host") {
        write!(w, "Host: {host}\r\n")?;
    }
    for (n, v) in req.headers.iter() {
        if framing_header(n) {
            continue;
        }
        write!(w, "{n}: {v}\r\n")?;
    }
    write!(w, "Content-Length: {}\r\n\r\n", req.body.len())?;
    w.write_all(&req.body)?;
    w.flush()?;
    Ok(())
}

/// Serialise a response. `head_only` suppresses the body (HEAD requests)
/// while keeping the Content-Length of the full representation.
pub fn write_response(w: &mut impl Write, resp: &Response, head_only: bool) -> Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\n",
        resp.status.code(),
        resp.status.reason()
    )?;
    for (n, v) in resp.headers.iter() {
        if framing_header(n) {
            continue;
        }
        write!(w, "{n}: {v}\r\n")?;
    }
    write!(w, "Content-Length: {}\r\n\r\n", resp.body.len())?;
    if !head_only {
        w.write_all(&resp.body)?;
    }
    w.flush()?;
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
    use std::io::BufReader;

    fn cursor(s: &[u8]) -> BufReader<&[u8]> {
        BufReader::new(s)
    }

    #[test]
    fn response_write_read_roundtrip() {
        let resp = Response::new(StatusCode::MULTI_STATUS).with_xml_body("<D:multistatus/>");
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, false).unwrap();
        let back =
            read_response(&mut cursor(&wire), &Method::PropFind, &Limits::default()).unwrap();
        assert_eq!(back.status, StatusCode::MULTI_STATUS);
        assert_eq!(back.body, resp.body);
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let raw = b"HTTP/1.1 200 OK\nX-A: 1\nContent-Length: 2\n\nok";
        let back = read_response(&mut cursor(raw), &Method::Get, &Limits::default()).unwrap();
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
        let cases: [(&[u8], &str); 8] = [
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
            let err = read_response(&mut cursor(raw), &Method::Get, &tight).unwrap_err();
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
        write_request(&mut wire, &req, "h").unwrap();
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
        let back = read_response(&mut cursor(&wire), &Method::Head, &Limits::default()).unwrap();
        assert!(back.body.is_empty());
    }

    #[test]
    fn chunked_roundtrip() {
        let body: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let encoded = encode_chunked(&body, 1500); // the paper's packet-size mirror
        let mut raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(&encoded);
        let back = read_response(&mut cursor(&raw), &Method::Get, &Limits::default()).unwrap();
        assert_eq!(back.body, body);
    }

    #[test]
    fn chunked_empty_body() {
        let encoded = encode_chunked(b"", 1500);
        assert_eq!(encoded, b"0\r\n\r\n");
        let mut raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(&encoded);
        let back = read_response(&mut cursor(&raw), &Method::Get, &Limits::default()).unwrap();
        assert!(back.body.is_empty());
    }

    #[test]
    fn chunked_bad_size_errors() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\nhello\r\n0\r\n\r\n";
        assert!(read_response(&mut cursor(raw), &Method::Get, &Limits::default()).is_err());
    }

    #[test]
    fn no_content_has_no_body_even_with_junk() {
        let raw = b"HTTP/1.1 204 No Content\r\n\r\n";
        let back = read_response(&mut cursor(raw), &Method::Delete, &Limits::default()).unwrap();
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
