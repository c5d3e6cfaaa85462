//! Property-based tests for the HTTP wire layer: arbitrary responses must
//! survive serialise → parse, and the URI algebra must be total. Both
//! directions share one incremental parser (`wire::Parser`); responses
//! reach it here through the client's `wire::read_response`. The parser
//! is crate-private, so the request-side properties live in `conn.rs`.

use proptest::prelude::*;
use pse_http::auth::{base64_decode, base64_encode};
use pse_http::message::Response;
use pse_http::method::Method;
use pse_http::uri::{normalize_path, percent_decode, percent_encode_path};
use pse_http::wire::{self, Limits};
use pse_http::StatusCode;
use std::io::BufReader;

proptest! {
    /// base64 is a bijection on arbitrary bytes.
    #[test]
    fn base64_roundtrip(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let encoded = base64_encode(&data);
        prop_assert_eq!(base64_decode(&encoded).unwrap(), data);
    }

    /// Percent-encoding round-trips any path.
    #[test]
    fn percent_roundtrip(path in "(/[a-zA-Z0-9 .#?&=\\-]{0,12}){0,5}") {
        let enc = percent_encode_path(&path);
        prop_assert_eq!(percent_decode(&enc), path);
    }

    /// Normalisation is idempotent and always yields an absolute path.
    #[test]
    fn normalize_idempotent(path in "(/|[a-z.]{1,6}){0,8}") {
        let once = normalize_path(&path);
        prop_assert!(once.starts_with('/'));
        prop_assert_eq!(normalize_path(&once), once.clone());
        // Never escapes the root: no segment is a literal `..`.
        prop_assert!(once.split('/').all(|seg| seg != ".."));
    }

    /// Responses survive the wire for any status and body.
    #[test]
    fn response_wire_roundtrip(
        code in 200u16..599,
        body in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        // 204/304 have no-body semantics; skip them here.
        prop_assume!(code != 204 && code != 304);
        let resp = Response::new(StatusCode::new(code)).with_body(body.clone());
        let mut wire_bytes = Vec::new();
        wire::write_response(&mut wire_bytes, &resp, false).unwrap();
        let back = wire::read_response(
            &mut BufReader::new(&wire_bytes[..]),
            &Method::Get,
            &Limits::default(),
        )
        .unwrap();
        prop_assert_eq!(back.status.code(), code);
        prop_assert_eq!(back.body, body);
    }

    /// Chunked encoding round-trips any body at any chunk size.
    #[test]
    fn chunked_roundtrip(
        body in prop::collection::vec(any::<u8>(), 0..4096),
        chunk in 1usize..2000,
    ) {
        let mut raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(&wire::encode_chunked(&body, chunk));
        let back = wire::read_response(
            &mut BufReader::new(&raw[..]),
            &Method::Get,
            &Limits::default(),
        )
        .unwrap();
        prop_assert_eq!(back.body, body);
    }
}
