//! Error type shared by the lexer, pull parser, DOM builder, and writer.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// An XML processing error, carrying the 1-based line and column where the
/// problem was detected when that position is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Malformed syntax: unexpected character, bad construct, etc.
    Syntax {
        /// 1-based line number of the offending input.
        line: u32,
        /// 1-based column number of the offending input.
        col: u32,
        /// Human-readable description of the problem.
        msg: String,
    },
    /// Input ended inside a construct (tag, string, CDATA, comment, ...).
    UnexpectedEof {
        /// What the parser was in the middle of reading.
        context: &'static str,
    },
    /// An end tag did not match the open element.
    MismatchedTag {
        /// Name that was open.
        expected: String,
        /// Name that the end tag carried.
        found: String,
        /// Line of the end tag.
        line: u32,
    },
    /// The same attribute name appeared twice on one element
    /// (well-formedness constraint "Unique Att Spec").
    DuplicateAttribute {
        /// The repeated attribute name as written.
        name: String,
        /// Line of the element.
        line: u32,
    },
    /// A name (element, attribute, prefix, PI target) was not a valid
    /// XML `Name` production.
    InvalidName {
        /// The rejected name.
        name: String,
    },
    /// A namespace prefix had no in-scope declaration.
    UnboundPrefix {
        /// The undeclared prefix.
        prefix: String,
    },
    /// An entity reference that is neither predefined nor a character
    /// reference (custom DTD entities are out of scope).
    UnknownEntity {
        /// The entity name between `&` and `;`.
        entity: String,
    },
    /// A document contained zero or more than one root element.
    BadRootCount {
        /// Number of top-level elements encountered.
        count: usize,
    },
}

impl Error {
    /// Build a [`Error::Syntax`] at the given position.
    pub fn syntax(line: u32, col: u32, msg: impl Into<String>) -> Self {
        Error::Syntax {
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { line, col, msg } => {
                write!(f, "XML syntax error at {line}:{col}: {msg}")
            }
            Error::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while reading {context}")
            }
            Error::MismatchedTag {
                expected,
                found,
                line,
            } => write!(
                f,
                "mismatched end tag at line {line}: expected </{expected}>, found </{found}>"
            ),
            Error::DuplicateAttribute { name, line } => {
                write!(f, "duplicate attribute `{name}` at line {line}")
            }
            Error::InvalidName { name } => write!(f, "invalid XML name `{name}`"),
            Error::UnboundPrefix { prefix } => {
                write!(f, "namespace prefix `{prefix}` is not declared in scope")
            }
            Error::UnknownEntity { entity } => write!(f, "unknown entity `&{entity};`"),
            Error::BadRootCount { count } => {
                write!(
                    f,
                    "document must have exactly one root element, found {count}"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = Error::syntax(3, 7, "expected '>'");
        assert_eq!(e.to_string(), "XML syntax error at 3:7: expected '>'");
        let e = Error::UnexpectedEof { context: "a tag" };
        assert_eq!(e.to_string(), "unexpected end of input while reading a tag");
        let e = Error::MismatchedTag {
            expected: "a".into(),
            found: "b".into(),
            line: 2,
        };
        assert!(e.to_string().contains("</a>"));
        assert!(e.to_string().contains("</b>"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            Error::UnknownEntity { entity: "x".into() },
            Error::UnknownEntity { entity: "x".into() }
        );
        assert_ne!(
            Error::BadRootCount { count: 0 },
            Error::BadRootCount { count: 2 }
        );
    }
}
