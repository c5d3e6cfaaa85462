//! Error type for the HTTP layer.

use std::fmt;
use std::io;
use std::sync::Arc;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// An HTTP transport or protocol error.
#[derive(Debug, Clone)]
pub enum Error {
    /// Socket-level failure.
    Io(Arc<io::Error>),
    /// The peer sent bytes that do not parse as HTTP/1.x.
    Parse(String),
    /// The connection closed before a complete message arrived.
    ConnectionClosed,
    /// A message component exceeded a configured limit (header block,
    /// body, chunk size). The paper explicitly recommends bounding body
    /// sizes to blunt "effective denial-of-service attacks … created by
    /// repeatedly sending large XML request bodies".
    TooLarge {
        /// Which component overflowed.
        what: &'static str,
        /// The configured limit in bytes.
        limit: usize,
    },
    /// The request used an HTTP version we do not speak.
    UnsupportedVersion(String),
    /// The client was asked for a response but has no live connection.
    NotConnected,
    /// A non-idempotent request (POST, MKCOL, MOVE, COPY, LOCK, ...)
    /// reached the wire but the response was lost. The server may or may
    /// not have executed it; re-sending could duplicate the side effect,
    /// so the ambiguity is surfaced instead of being retried away.
    MaybeExecuted {
        /// The method whose outcome is unknown.
        method: String,
        /// The transport failure that lost the response.
        cause: Box<Error>,
    },
    /// The retry policy gave up: every allowed attempt failed, or the
    /// overall deadline would be exceeded by waiting to try again.
    RetriesExhausted {
        /// Attempts actually made.
        attempts: u32,
        /// The last transport failure observed.
        cause: Box<Error>,
    },
    /// A 307/308 chain exceeded the configured hop budget — either a
    /// redirect loop or a misconfigured cluster router.
    TooManyRedirects {
        /// Hops followed before giving up.
        hops: u32,
        /// The last `Location` target that would have been next.
        location: String,
    },
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            Error::ConnectionClosed
        } else {
            Error::Io(Arc::new(e))
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "http I/O error: {e}"),
            Error::Parse(msg) => write!(f, "http parse error: {msg}"),
            Error::ConnectionClosed => write!(f, "connection closed mid-message"),
            Error::TooLarge { what, limit } => {
                write!(f, "{what} exceeds the {limit}-byte limit")
            }
            Error::UnsupportedVersion(v) => write!(f, "unsupported HTTP version `{v}`"),
            Error::NotConnected => write!(f, "client has no open connection"),
            Error::MaybeExecuted { method, cause } => write!(
                f,
                "{method} may have executed on the server but the response was lost ({cause}); \
                 not retried because {method} is not idempotent"
            ),
            Error::TooManyRedirects { hops, location } => {
                write!(
                    f,
                    "gave up after {hops} redirect hop(s); next was {location}"
                )
            }
            Error::RetriesExhausted { attempts, cause } => {
                write!(f, "request failed after {attempts} attempt(s): {cause}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e.as_ref()),
            Error::MaybeExecuted { cause, .. } | Error::RetriesExhausted { cause, .. } => {
                Some(cause.as_ref())
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eof_maps_to_connection_closed() {
        let e: Error = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(matches!(e, Error::ConnectionClosed));
        let e: Error = io::Error::new(io::ErrorKind::BrokenPipe, "pipe").into();
        assert!(matches!(e, Error::Io(_)));
    }

    #[test]
    fn displays() {
        assert!(Error::Parse("bad".into()).to_string().contains("bad"));
        assert!(Error::TooLarge {
            what: "body",
            limit: 10
        }
        .to_string()
        .contains("10-byte"));
    }
}
