//! Error type for the DBM stores.

use std::fmt;
use std::io;
use std::sync::Arc;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// A DBM storage error.
#[derive(Debug, Clone)]
pub enum Error {
    /// Underlying filesystem I/O failed. Wrapped in `Arc` so the error
    /// stays cheaply cloneable.
    Io(Arc<io::Error>),
    /// The key+value pair exceeds the store's per-item limit (SDBM's
    /// 1 KB page constraint — the limit the paper works around by
    /// preferring GDBM for large metadata).
    PairTooLarge {
        /// Combined key+value size that was attempted.
        size: usize,
        /// The store's hard limit.
        limit: usize,
    },
    /// `StoreMode::Insert` on a key that already exists.
    AlreadyExists,
    /// The file content is not a valid database (bad magic, impossible
    /// offsets, truncated pages...).
    Corrupt(String),
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(Arc::new(e))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "dbm I/O error: {e}"),
            Error::PairTooLarge { size, limit } => {
                write!(
                    f,
                    "key+value of {size} bytes exceeds the {limit}-byte item limit"
                )
            }
            Error::AlreadyExists => write!(f, "key already exists (insert mode)"),
            Error::Corrupt(msg) => write!(f, "database is corrupt: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_convert_and_display() {
        let e: Error = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn pair_too_large_reports_sizes() {
        let e = Error::PairTooLarge {
            size: 2048,
            limit: 1008,
        };
        let s = e.to_string();
        assert!(s.contains("2048") && s.contains("1008"));
    }
}
