//! Error type for the DAV layer.

use pse_http::StatusCode;
use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DavError>;

/// A DAV protocol, storage, or transport error.
#[derive(Debug, Clone)]
pub enum DavError {
    /// Transport failure underneath the protocol.
    Http(pse_http::Error),
    /// A request or response body failed to parse as XML.
    Xml(pse_xml::Error),
    /// Property storage failed.
    Dbm(pse_dbm::Error),
    /// Filesystem-level failure in a repository.
    Io(std::sync::Arc<std::io::Error>),
    /// The resource does not exist.
    NotFound(String),
    /// The parent collection does not exist (RFC 2518 returns 409).
    Conflict(String),
    /// The resource (or an ancestor) is locked and the request supplied
    /// no matching token.
    Locked(String),
    /// A method precondition failed (Overwrite: F on existing target,
    /// stale lock token, bad If header...).
    PreconditionFailed(String),
    /// A property value exceeded the configured maximum — the limit the
    /// paper sets to 10 MB after its robustness testing.
    PropertyTooLarge {
        /// Size that was attempted.
        size: usize,
        /// Configured cap.
        limit: usize,
    },
    /// The server answered with an unexpected status.
    UnexpectedStatus {
        /// The status received.
        status: StatusCode,
        /// What the client was doing.
        context: String,
    },
    /// Request body was not understood (422/400 class).
    BadRequest(String),
    /// A resumable upload's `Content-Range` offset disagreed with the
    /// server-side stage — answered 416 so the client can probe
    /// `staged` and resume from the right byte.
    StageMismatch {
        /// Bytes the server has staged (the next expected offset).
        staged: u64,
    },
}

impl From<pse_http::Error> for DavError {
    fn from(e: pse_http::Error) -> Self {
        DavError::Http(e)
    }
}

impl From<pse_xml::Error> for DavError {
    fn from(e: pse_xml::Error) -> Self {
        DavError::Xml(e)
    }
}

impl From<pse_dbm::Error> for DavError {
    fn from(e: pse_dbm::Error) -> Self {
        DavError::Dbm(e)
    }
}

impl From<std::io::Error> for DavError {
    fn from(e: std::io::Error) -> Self {
        DavError::Io(std::sync::Arc::new(e))
    }
}

impl DavError {
    /// The HTTP status a server should answer with for this error.
    pub fn status(&self) -> StatusCode {
        match self {
            DavError::NotFound(_) => StatusCode::NOT_FOUND,
            DavError::Conflict(_) => StatusCode::CONFLICT,
            DavError::Locked(_) => StatusCode::LOCKED,
            DavError::PreconditionFailed(_) => StatusCode::PRECONDITION_FAILED,
            DavError::PropertyTooLarge { .. } => StatusCode::ENTITY_TOO_LARGE,
            DavError::BadRequest(_) | DavError::Xml(_) => StatusCode::BAD_REQUEST,
            DavError::StageMismatch { .. } => StatusCode::RANGE_NOT_SATISFIABLE,
            _ => StatusCode::INTERNAL_ERROR,
        }
    }
}

impl fmt::Display for DavError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DavError::Http(e) => write!(f, "transport error: {e}"),
            DavError::Xml(e) => write!(f, "XML error: {e}"),
            DavError::Dbm(e) => write!(f, "property store error: {e}"),
            DavError::Io(e) => write!(f, "I/O error: {e}"),
            DavError::NotFound(p) => write!(f, "resource not found: {p}"),
            DavError::Conflict(p) => write!(f, "conflict (missing ancestor?): {p}"),
            DavError::Locked(p) => write!(f, "resource locked: {p}"),
            DavError::PreconditionFailed(m) => write!(f, "precondition failed: {m}"),
            DavError::PropertyTooLarge { size, limit } => {
                write!(f, "property of {size} bytes exceeds the {limit}-byte cap")
            }
            DavError::UnexpectedStatus { status, context } => {
                write!(f, "unexpected status {status} while {context}")
            }
            DavError::BadRequest(m) => write!(f, "bad request: {m}"),
            DavError::StageMismatch { staged } => {
                write!(f, "stage offset mismatch: server has {staged} bytes staged")
            }
        }
    }
}

impl std::error::Error for DavError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping() {
        assert_eq!(DavError::NotFound("/x".into()).status().code(), 404);
        assert_eq!(DavError::Conflict("/x".into()).status().code(), 409);
        assert_eq!(DavError::Locked("/x".into()).status().code(), 423);
        assert_eq!(
            DavError::PreconditionFailed("overwrite".into())
                .status()
                .code(),
            412
        );
        assert_eq!(
            DavError::PropertyTooLarge { size: 1, limit: 0 }
                .status()
                .code(),
            413
        );
        assert_eq!(DavError::BadRequest("x".into()).status().code(), 400);
        assert_eq!(DavError::StageMismatch { staged: 7 }.status().code(), 416);
    }

    #[test]
    fn conversions_and_display() {
        let e: DavError = pse_xml::Error::BadRootCount { count: 0 }.into();
        assert!(e.to_string().contains("XML"));
        let e: DavError = std::io::Error::other("disk").into();
        assert!(e.to_string().contains("disk"));
    }
}
