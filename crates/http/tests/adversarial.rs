//! Adversarial wire-level tests for the incremental request parser,
//! run against the server over real TCP.
//!
//! The reactor parses from whatever byte boundaries the kernel
//! delivers, so every test here attacks a boundary: requests trickled a
//! byte at a time, heads split mid-token across segments, several
//! pipelined requests inside one segment, oversized header lines, and
//! clients that half-close after sending.

use pse_http::message::{Request, Response};
use pse_http::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

fn echo_server() -> Server {
    Server::bind("127.0.0.1:0", ServerConfig::default(), |req: Request| {
        Response::ok()
            .with_header("X-Path", req.target.path())
            .with_body(req.body)
    })
    .unwrap()
}

/// Read one response's head + Content-Length body off a raw socket.
fn read_response(s: &mut TcpStream) -> (String, Vec<u8>) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        s.read_exact(&mut byte).expect("response head");
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
    s.read_exact(&mut body).expect("response body");
    (head, body)
}

#[test]
fn byte_at_a_time_trickle_is_parsed() {
    let server = echo_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    let raw = b"PUT /trickle HTTP/1.1\r\nContent-Length: 5\r\n\r\ndrips";
    for b in raw {
        s.write_all(&[*b]).unwrap();
        // A short pause defeats segment coalescing often enough that
        // the parser genuinely sees fragmented reads.
        std::thread::sleep(Duration::from_micros(200));
    }
    let (head, body) = read_response(&mut s);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, b"drips");
    server.shutdown();
}

#[test]
fn head_split_across_segments() {
    let server = echo_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    // Split mid-request-line, mid-header-name, and between the
    // header block and the body.
    for part in [
        b"PUT /spl".as_slice(),
        b"it HTTP/1.1\r\nCont".as_slice(),
        b"ent-Length: 4\r\nX-Tr".as_slice(),
        b"ailing: yes\r\n\r\n".as_slice(),
        b"body".as_slice(),
    ] {
        s.write_all(part).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    let (head, body) = read_response(&mut s);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        head.contains("x-path: /split") || head.contains("X-Path: /split"),
        "{head}"
    );
    assert_eq!(body, b"body");
    server.shutdown();
}

#[test]
fn pipelined_requests_in_one_segment_answered_in_order() {
    let server = echo_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(
        b"PUT /one HTTP/1.1\r\nContent-Length: 1\r\n\r\n1\
          PUT /two HTTP/1.1\r\nContent-Length: 1\r\n\r\n2\
          PUT /three HTTP/1.1\r\nContent-Length: 1\r\n\r\n3",
    )
    .unwrap();
    for expect in ["1", "2", "3"] {
        let (head, body) = read_response(&mut s);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, expect.as_bytes());
    }
    server.shutdown();
}

#[test]
fn oversized_header_line_rejected_431() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            limits: pse_http::wire::Limits {
                max_header_line: 128,
                ..pse_http::wire::Limits::default()
            },
            ..ServerConfig::default()
        },
        |_req| Response::ok(),
    )
    .unwrap();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let huge = format!("GET / HTTP/1.1\r\nX-Flood: {}\r\n\r\n", "a".repeat(4096));
    // The server may reject (and reset) before the whole flood is
    // accepted; a write failure here is part of the scenario.
    let _ = s.write_all(huge.as_bytes());
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("HTTP/1.1 431"), "{text}");
    assert!(
        text.to_ascii_lowercase().contains("connection: close"),
        "{text}"
    );
    server.shutdown();
}

#[test]
fn garbage_request_line_rejected_400() {
    let server = echo_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(b"\x01\x02\x03 utter garbage\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    let text = String::from_utf8_lossy(&buf);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    server.shutdown();
}

#[test]
fn half_close_after_request_still_gets_response() {
    let server = echo_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(b"PUT /half HTTP/1.1\r\nContent-Length: 3\r\n\r\nfin")
        .unwrap();
    // Client is done sending: shut the write side down. The server
    // must treat this as "no more requests", not "dead peer".
    s.shutdown(Shutdown::Write).unwrap();
    let (head, body) = read_response(&mut s);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, b"fin");
    // And then close rather than park a half-dead connection.
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    server.shutdown();
}

#[test]
fn half_close_mid_pipeline_serves_everything_buffered() {
    let server = echo_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
        .unwrap();
    s.shutdown(Shutdown::Write).unwrap();
    // Both pipelined requests were fully sent before the FIN: both
    // deserve answers.
    let (head_a, _) = read_response(&mut s);
    assert!(head_a.starts_with("HTTP/1.1 200"), "{head_a}");
    let (head_b, _) = read_response(&mut s);
    assert!(head_b.starts_with("HTTP/1.1 200"), "{head_b}");
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    server.shutdown();
}

#[test]
fn chunked_upload_across_segments() {
    let server = echo_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_nodelay(true).unwrap();
    for part in [
        b"POST /chunky HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".as_slice(),
        b"4\r\nwiki\r\n".as_slice(),
        b"5\r\npedia\r\n".as_slice(),
        b"0\r\n\r\n".as_slice(),
    ] {
        s.write_all(part).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let (head, body) = read_response(&mut s);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, b"wikipedia");
    server.shutdown();
}

#[test]
fn bodyless_statuses_frame_byte_exactly_for_pipelining() {
    use pse_http::StatusCode;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::default(),
        |req: Request| match req.target.path() {
            "/304" => Response::new(StatusCode::NOT_MODIFIED).with_header("ETag", "\"v1\""),
            "/412" => Response::new(StatusCode::PRECONDITION_FAILED).with_header("ETag", "\"v1\""),
            "/416" => Response::new(StatusCode::RANGE_NOT_SATISFIABLE)
                .with_header("Content-Range", "bytes */99"),
            "/206" => Response::new(StatusCode::PARTIAL_CONTENT)
                .with_header("Content-Range", "bytes 0-3/99")
                .with_body(b"abcd".to_vec()),
            _ => Response::ok().with_body(b"tail".to_vec()),
        },
    )
    .unwrap();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    // All five requests in one segment. If any bodyless response
    // were framed with a phantom body (or a body without its
    // Content-Length), every later response would shift or stall.
    s.write_all(
        b"GET /304 HTTP/1.1\r\n\r\nGET /412 HTTP/1.1\r\n\r\nGET /416 HTTP/1.1\r\n\r\n\
          GET /206 HTTP/1.1\r\n\r\nGET /tail HTTP/1.1\r\n\r\n",
    )
    .unwrap();
    for (status, header, body) in [
        ("304", "etag: \"v1\"", b"".as_slice()),
        ("412", "etag: \"v1\"", b"".as_slice()),
        ("416", "content-range: bytes */99", b"".as_slice()),
        ("206", "content-range: bytes 0-3/99", b"abcd".as_slice()),
        ("200", "content-length: 4", b"tail".as_slice()),
    ] {
        let (head, got) = read_response(&mut s);
        assert!(head.starts_with(&format!("HTTP/1.1 {status}")), "{head}");
        assert!(
            head.to_ascii_lowercase().contains(header),
            "missing {header:?} in {head}"
        );
        assert_eq!(got, body, "/{status}");
        if body.is_empty() {
            assert!(
                head.to_ascii_lowercase().contains("content-length: 0"),
                "bodyless {status} must declare Content-Length: 0: {head}"
            );
        }
    }
    server.shutdown();
}
