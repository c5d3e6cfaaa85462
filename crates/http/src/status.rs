//! Response status codes, including the WebDAV additions.

use std::fmt;

/// An HTTP status code with its canonical reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatusCode(u16);

impl StatusCode {
    /// 200 OK
    pub const OK: StatusCode = StatusCode(200);
    /// 201 Created
    pub const CREATED: StatusCode = StatusCode(201);
    /// 202 Accepted (a staged partial upload was recorded but the
    /// resource is not complete yet)
    pub const ACCEPTED: StatusCode = StatusCode(202);
    /// 204 No Content
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    /// 206 Partial Content (RFC 7233 range response)
    pub const PARTIAL_CONTENT: StatusCode = StatusCode(206);
    /// 207 Multi-Status (RFC 2518)
    pub const MULTI_STATUS: StatusCode = StatusCode(207);
    /// 301 Moved Permanently
    pub const MOVED_PERMANENTLY: StatusCode = StatusCode(301);
    /// 304 Not Modified
    pub const NOT_MODIFIED: StatusCode = StatusCode(304);
    /// 307 Temporary Redirect (method + body must be replayed verbatim)
    pub const TEMPORARY_REDIRECT: StatusCode = StatusCode(307);
    /// 308 Permanent Redirect (RFC 7538; same replay rule as 307)
    pub const PERMANENT_REDIRECT: StatusCode = StatusCode(308);
    /// 400 Bad Request
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 401 Unauthorized
    pub const UNAUTHORIZED: StatusCode = StatusCode(401);
    /// 403 Forbidden
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 405 Method Not Allowed
    pub const METHOD_NOT_ALLOWED: StatusCode = StatusCode(405);
    /// 409 Conflict
    pub const CONFLICT: StatusCode = StatusCode(409);
    /// 410 Gone (the change-log window no longer covers the request)
    pub const GONE: StatusCode = StatusCode(410);
    /// 412 Precondition Failed
    pub const PRECONDITION_FAILED: StatusCode = StatusCode(412);
    /// 413 Request Entity Too Large
    pub const ENTITY_TOO_LARGE: StatusCode = StatusCode(413);
    /// 415 Unsupported Media Type
    pub const UNSUPPORTED_MEDIA_TYPE: StatusCode = StatusCode(415);
    /// 416 Range Not Satisfiable (RFC 7233; carries `Content-Range: bytes */N`)
    pub const RANGE_NOT_SATISFIABLE: StatusCode = StatusCode(416);
    /// 422 Unprocessable Entity (RFC 2518)
    pub const UNPROCESSABLE: StatusCode = StatusCode(422);
    /// 423 Locked (RFC 2518)
    pub const LOCKED: StatusCode = StatusCode(423);
    /// 424 Failed Dependency (RFC 2518)
    pub const FAILED_DEPENDENCY: StatusCode = StatusCode(424);
    /// 431 Request Header Fields Too Large (RFC 6585)
    pub const HEADER_FIELDS_TOO_LARGE: StatusCode = StatusCode(431);
    /// 500 Internal Server Error
    pub const INTERNAL_ERROR: StatusCode = StatusCode(500);
    /// 501 Not Implemented
    pub const NOT_IMPLEMENTED: StatusCode = StatusCode(501);
    /// 507 Insufficient Storage (RFC 2518)
    pub const INSUFFICIENT_STORAGE: StatusCode = StatusCode(507);

    /// Build from a raw code (clamped to the 100–999 wire range).
    pub fn new(code: u16) -> StatusCode {
        debug_assert!((100..1000).contains(&code));
        StatusCode(code)
    }

    /// The numeric code.
    pub fn code(self) -> u16 {
        self.0
    }

    /// 2xx?
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// 4xx or 5xx?
    pub fn is_error(self) -> bool {
        self.0 >= 400
    }

    /// The canonical reason phrase for the code.
    pub fn reason(self) -> &'static str {
        match self.0 {
            100 => "Continue",
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            206 => "Partial Content",
            207 => "Multi-Status",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            307 => "Temporary Redirect",
            308 => "Permanent Redirect",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            410 => "Gone",
            411 => "Length Required",
            412 => "Precondition Failed",
            413 => "Request Entity Too Large",
            415 => "Unsupported Media Type",
            416 => "Range Not Satisfiable",
            422 => "Unprocessable Entity",
            423 => "Locked",
            424 => "Failed Dependency",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            507 => "Insufficient Storage",
            _ => "Unknown",
        }
    }

    /// Parse a `HTTP/1.1 404 Not Found` style line back to a code.
    pub fn from_status_line(line: &str) -> Option<StatusCode> {
        let mut parts = line.split_whitespace();
        let version = parts.next()?;
        if !version.starts_with("HTTP/") {
            return None;
        }
        let code: u16 = parts.next()?.parse().ok()?;
        if (100..1000).contains(&code) {
            Some(StatusCode(code))
        } else {
            None
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dav_codes_have_reasons() {
        assert_eq!(StatusCode::MULTI_STATUS.reason(), "Multi-Status");
        assert_eq!(StatusCode::LOCKED.reason(), "Locked");
        assert_eq!(StatusCode::FAILED_DEPENDENCY.reason(), "Failed Dependency");
        assert_eq!(
            StatusCode::INSUFFICIENT_STORAGE.reason(),
            "Insufficient Storage"
        );
    }

    #[test]
    fn classification() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::MULTI_STATUS.is_success());
        assert!(!StatusCode::NOT_FOUND.is_success());
        assert!(StatusCode::NOT_FOUND.is_error());
        assert!(StatusCode::INTERNAL_ERROR.is_error());
        assert!(!StatusCode::CREATED.is_error());
    }

    #[test]
    fn status_line_roundtrip() {
        for code in [200u16, 207, 404, 423, 507] {
            let sc = StatusCode::new(code);
            let line = format!("HTTP/1.1 {code} {}", sc.reason());
            assert_eq!(StatusCode::from_status_line(&line), Some(sc));
        }
        assert_eq!(StatusCode::from_status_line("garbage"), None);
        assert_eq!(StatusCode::from_status_line("HTTP/1.1 nope"), None);
    }
}
