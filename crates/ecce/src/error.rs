//! Error type for the Ecce data layer.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, EcceError>;

/// An Ecce data-layer error.
#[derive(Debug, Clone)]
pub enum EcceError {
    /// The DAV path failed.
    Dav(pse_dav::DavError),
    /// The OODB path failed.
    Oodb(pse_oodb::Error),
    /// A molecular file format failed to parse.
    Format {
        /// Which format (xyz, pdb, basis...).
        format: &'static str,
        /// What went wrong.
        msg: String,
    },
    /// The requested entity does not exist.
    NotFound(String),
    /// An operation is invalid in the calculation's current state
    /// (e.g. launching a job with no input deck).
    InvalidState {
        /// What was attempted.
        operation: String,
        /// The state it was attempted in.
        state: String,
    },
    /// Generic invariant violation.
    Invalid(String),
    /// Local filesystem failure (raw-file staging, migration).
    Io(std::sync::Arc<std::io::Error>),
}

impl From<std::io::Error> for EcceError {
    fn from(e: std::io::Error) -> Self {
        EcceError::Io(std::sync::Arc::new(e))
    }
}

impl From<pse_dav::DavError> for EcceError {
    fn from(e: pse_dav::DavError) -> Self {
        EcceError::Dav(e)
    }
}

impl From<pse_oodb::Error> for EcceError {
    fn from(e: pse_oodb::Error) -> Self {
        EcceError::Oodb(e)
    }
}

impl fmt::Display for EcceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcceError::Dav(e) => write!(f, "data server error: {e}"),
            EcceError::Oodb(e) => write!(f, "object database error: {e}"),
            EcceError::Format { format, msg } => write!(f, "{format} format error: {msg}"),
            EcceError::NotFound(what) => write!(f, "not found: {what}"),
            EcceError::InvalidState { operation, state } => {
                write!(f, "cannot {operation} while calculation is {state}")
            }
            EcceError::Invalid(m) => write!(f, "invalid: {m}"),
            EcceError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for EcceError {}

impl EcceError {
    /// Does the error say the entity is absent? True for the in-process
    /// repository's `NotFound` and for a 404 over the wire; false for
    /// every other failure, which callers must still surface.
    pub fn is_not_found(&self) -> bool {
        match self {
            EcceError::NotFound(_) | EcceError::Dav(pse_dav::DavError::NotFound(_)) => true,
            EcceError::Dav(pse_dav::DavError::UnexpectedStatus { status, .. }) => {
                status.code() == 404
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = EcceError::Format {
            format: "xyz",
            msg: "bad atom count".into(),
        };
        assert!(e.to_string().contains("xyz"));
        let e = EcceError::InvalidState {
            operation: "launch".into(),
            state: "created".into(),
        };
        assert!(e.to_string().contains("launch"));
    }

    #[test]
    fn only_absence_is_not_found() {
        use pse_dav::DavError;
        use pse_http::StatusCode;
        let status = |code: u16| {
            EcceError::Dav(DavError::UnexpectedStatus {
                status: StatusCode::new(code),
                context: "test".into(),
            })
        };
        assert!(EcceError::NotFound("/x".into()).is_not_found());
        assert!(EcceError::Dav(DavError::NotFound("/x".into())).is_not_found());
        assert!(status(404).is_not_found());
        for code in [409, 423, 500] {
            assert!(!status(code).is_not_found(), "{code}");
        }
        for e in [
            EcceError::Dav(DavError::Conflict("/x".into())),
            EcceError::Dav(DavError::Locked("/x".into())),
            EcceError::Dav(DavError::Http(pse_http::Error::Io(std::sync::Arc::new(
                std::io::Error::from(std::io::ErrorKind::ConnectionReset),
            )))),
            EcceError::Invalid("x".into()),
        ] {
            assert!(!e.is_not_found(), "{e}");
        }
    }
}
