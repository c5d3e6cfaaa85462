//! Request and response types with builder-style construction.

use crate::headers::Headers;
use crate::method::Method;
use crate::status::StatusCode;
use crate::uri::Target;
use std::fmt;

/// The HTTP protocol version of a message. The version changes the
/// connection-management default: HTTP/1.1 connections are persistent
/// unless `Connection: close` is sent, HTTP/1.0 connections close
/// unless `Connection: keep-alive` is negotiated (RFC 2616 §8.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Version {
    /// HTTP/1.0 — close-by-default connections.
    V1_0,
    /// HTTP/1.1 — persistent-by-default connections.
    #[default]
    V1_1,
}

impl Version {
    /// The wire token (`HTTP/1.0` / `HTTP/1.1`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Version::V1_0 => "HTTP/1.0",
            Version::V1_1 => "HTTP/1.1",
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP/1.x request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method (core or DAV extension).
    pub method: Method,
    /// Parsed request target.
    pub target: Target,
    /// Protocol version from the request line (drives keep-alive).
    pub version: Version,
    /// Header fields.
    pub headers: Headers,
    /// Entity body (possibly empty).
    pub body: Vec<u8>,
}

impl Request {
    /// A new request with no headers and an empty body.
    pub fn new(method: Method, path: &str) -> Request {
        Request {
            method,
            target: Target::parse(path),
            version: Version::default(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Builder: set a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.set(name, value);
        self
    }

    /// Builder: set the body (Content-Length is added at write time).
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Request {
        self.body = body.into();
        self
    }

    /// Builder: set body and Content-Type together.
    pub fn with_xml_body(self, xml: impl Into<Vec<u8>>) -> Request {
        self.with_header("Content-Type", "text/xml; charset=\"utf-8\"")
            .with_body(xml)
    }

    /// The `Depth` header parsed into the conventional DAV values:
    /// `Some(0)`, `Some(1)`, or `None` for `infinity`/absent.
    pub fn depth_header(&self) -> Option<u32> {
        match self.headers.get("Depth")?.trim() {
            "0" => Some(0),
            "1" => Some(1),
            _ => None,
        }
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// An HTTP/1.x response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Protocol version from the status line (drives keep-alive).
    pub version: Version,
    /// Header fields.
    pub headers: Headers,
    /// Entity body (possibly empty).
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given status, no headers, empty body.
    pub fn new(status: StatusCode) -> Response {
        Response {
            status,
            version: Version::default(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// `200 OK`.
    pub fn ok() -> Response {
        Response::new(StatusCode::OK)
    }

    /// `201 Created`.
    pub fn created() -> Response {
        Response::new(StatusCode::CREATED)
    }

    /// `204 No Content`.
    pub fn no_content() -> Response {
        Response::new(StatusCode::NO_CONTENT)
    }

    /// An error response with a plain-text body.
    pub fn error(status: StatusCode, msg: &str) -> Response {
        Response::new(status)
            .with_header("Content-Type", "text/plain")
            .with_body(msg.as_bytes().to_vec())
    }

    /// Builder: set a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.set(name, value);
        self
    }

    /// Builder: set the body.
    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Response {
        self.body = body.into();
        self
    }

    /// Builder: set an XML body with the DAV content type.
    pub fn with_xml_body(self, xml: impl Into<Vec<u8>>) -> Response {
        self.with_header("Content-Type", "text/xml; charset=\"utf-8\"")
            .with_body(xml)
    }

    /// Body interpreted as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders() {
        let r = Request::new(Method::PropFind, "/a/b")
            .with_header("Depth", "1")
            .with_xml_body("<propfind/>");
        assert_eq!(r.depth_header(), Some(1));
        assert_eq!(
            r.headers.get("content-type").unwrap(),
            "text/xml; charset=\"utf-8\""
        );
        assert_eq!(r.body_text(), "<propfind/>");
    }

    #[test]
    fn depth_parsing() {
        let mk = |d: &str| Request::new(Method::PropFind, "/").with_header("Depth", d);
        assert_eq!(mk("0").depth_header(), Some(0));
        assert_eq!(mk("1").depth_header(), Some(1));
        assert_eq!(mk("infinity").depth_header(), None);
        assert_eq!(Request::new(Method::Get, "/").depth_header(), None);
    }

    #[test]
    fn response_builders() {
        assert_eq!(Response::ok().status, StatusCode::OK);
        assert_eq!(Response::no_content().status.code(), 204);
        let r = Response::error(StatusCode::LOCKED, "resource is locked");
        assert_eq!(r.status, StatusCode::LOCKED);
        assert_eq!(r.body_text(), "resource is locked");
    }
}
