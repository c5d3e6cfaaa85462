//! Request methods, including the WebDAV extension methods.

use std::fmt;
use std::str::FromStr;

/// An HTTP request method.
///
/// HTTP/1.1 lets protocols extend the method set; RFC 2518 adds the DAV
/// methods, and the DASL/DeltaV drafts the paper tracks add more. Unknown
/// tokens are preserved in [`Method::Extension`] so a server can return
/// `501 Not Implemented` rather than failing to parse.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Method {
    // HTTP/1.1 core
    Options,
    Get,
    Head,
    Post,
    Put,
    Delete,
    Trace,
    // RFC 2518 (WebDAV)
    PropFind,
    PropPatch,
    MkCol,
    Copy,
    Move,
    Lock,
    Unlock,
    // DASL draft
    Search,
    // DeltaV drafts
    VersionControl,
    Report,
    Checkout,
    Checkin,
    /// Any other token.
    Extension(String),
}

impl Method {
    /// The canonical wire token.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Options => "OPTIONS",
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Trace => "TRACE",
            Method::PropFind => "PROPFIND",
            Method::PropPatch => "PROPPATCH",
            Method::MkCol => "MKCOL",
            Method::Copy => "COPY",
            Method::Move => "MOVE",
            Method::Lock => "LOCK",
            Method::Unlock => "UNLOCK",
            Method::Search => "SEARCH",
            Method::VersionControl => "VERSION-CONTROL",
            Method::Report => "REPORT",
            Method::Checkout => "CHECKOUT",
            Method::Checkin => "CHECKIN",
            Method::Extension(s) => s,
        }
    }

    /// Methods that never carry a response body (HEAD) or for which a
    /// request body has no defined meaning (GET...). Used by the wire
    /// layer for framing decisions.
    pub fn response_has_body(&self) -> bool {
        !matches!(self, Method::Head)
    }

    /// Is this one of the methods RFC 2518 defines?
    pub fn is_dav(&self) -> bool {
        matches!(
            self,
            Method::PropFind
                | Method::PropPatch
                | Method::MkCol
                | Method::Copy
                | Method::Move
                | Method::Lock
                | Method::Unlock
        )
    }

    /// Is the method idempotent — safe to re-send after a transport
    /// failure because N identical requests leave the server in the same
    /// state as one? (RFC 2616 §9.1.2; RFC 2518 keeps PROPFIND,
    /// PROPPATCH and UNLOCK idempotent.) Non-idempotent methods (POST,
    /// MKCOL, COPY, MOVE, LOCK, the DeltaV state changers, unknown
    /// extensions) must never be blindly retried once bytes may have
    /// reached the server: a duplicate MKCOL turns success into 405, a
    /// duplicate CHECKIN creates an extra version, a duplicate POST
    /// duplicates the side effect.
    pub fn is_idempotent(&self) -> bool {
        matches!(
            self,
            Method::Options
                | Method::Get
                | Method::Head
                | Method::Put
                | Method::Delete
                | Method::Trace
                | Method::PropFind
                | Method::PropPatch
                | Method::Unlock
                | Method::Search
                | Method::Report
        )
    }

    /// Does the method potentially modify server state? (Used for lock
    /// enforcement: RFC 2518 guards write methods with lock tokens.)
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Method::Put
                | Method::Post
                | Method::Delete
                | Method::PropPatch
                | Method::MkCol
                | Method::Move
                | Method::Checkin
                | Method::Checkout
        )
    }
}

impl FromStr for Method {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "OPTIONS" => Method::Options,
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "TRACE" => Method::Trace,
            "PROPFIND" => Method::PropFind,
            "PROPPATCH" => Method::PropPatch,
            "MKCOL" => Method::MkCol,
            "COPY" => Method::Copy,
            "MOVE" => Method::Move,
            "LOCK" => Method::Lock,
            "UNLOCK" => Method::Unlock,
            "SEARCH" => Method::Search,
            "VERSION-CONTROL" => Method::VersionControl,
            "REPORT" => Method::Report,
            "CHECKOUT" => Method::Checkout,
            "CHECKIN" => Method::Checkin,
            other => Method::Extension(other.to_owned()),
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_known() {
        let all = [
            "OPTIONS", "GET", "HEAD", "POST", "PUT", "DELETE", "TRACE", "PROPFIND", "PROPPATCH",
            "MKCOL", "COPY", "MOVE", "LOCK", "UNLOCK", "SEARCH", "VERSION-CONTROL", "REPORT",
            "CHECKOUT", "CHECKIN",
        ];
        for token in all {
            let m: Method = token.parse().unwrap();
            assert!(!matches!(m, Method::Extension(_)), "{token}");
            assert_eq!(m.as_str(), token);
        }
    }

    #[test]
    fn extension_preserved() {
        let m: Method = "BREW".parse().unwrap();
        assert_eq!(m, Method::Extension("BREW".into()));
        assert_eq!(m.to_string(), "BREW");
    }

    #[test]
    fn classification() {
        assert!(Method::PropFind.is_dav());
        assert!(!Method::Get.is_dav());
        assert!(Method::Put.is_write());
        assert!(!Method::PropFind.is_write());
        assert!(!Method::Head.response_has_body());
        assert!(Method::Get.response_has_body());
    }

    #[test]
    fn idempotency_classification() {
        for m in [
            Method::Get,
            Method::Head,
            Method::Options,
            Method::Put,
            Method::Delete,
            Method::PropFind,
            Method::PropPatch,
            Method::Unlock,
        ] {
            assert!(m.is_idempotent(), "{m}");
        }
        for m in [
            Method::Post,
            Method::MkCol,
            Method::Copy,
            Method::Move,
            Method::Lock,
            Method::Checkin,
            Method::Extension("BREW".into()),
        ] {
            assert!(!m.is_idempotent(), "{m}");
        }
    }
}
