//! The DAV `Depth` header.

use std::fmt;

/// RFC 2518 Depth values: how far an operation descends a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Depth {
    /// The resource itself.
    Zero,
    /// The resource and its immediate children (the mode Table 1 column
    /// (c) exploits to fetch metadata for 50 objects in one request).
    One,
    /// The whole subtree.
    #[default]
    Infinity,
}

impl Depth {
    /// Parse a header value; absent/unknown defaults to `Infinity`
    /// (RFC 2518 §9.2 default for PROPFIND).
    pub fn parse(value: Option<&str>) -> Depth {
        match value.map(str::trim) {
            Some("0") => Depth::Zero,
            Some("1") => Depth::One,
            _ => Depth::Infinity,
        }
    }

    /// The wire form.
    pub fn as_str(self) -> &'static str {
        match self {
            Depth::Zero => "0",
            Depth::One => "1",
            Depth::Infinity => "infinity",
        }
    }

    /// Should children be visited at this depth?
    pub fn descends(self) -> bool {
        !matches!(self, Depth::Zero)
    }
}

impl fmt::Display for Depth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing() {
        assert_eq!(Depth::parse(Some("0")), Depth::Zero);
        assert_eq!(Depth::parse(Some(" 1 ")), Depth::One);
        assert_eq!(Depth::parse(Some("infinity")), Depth::Infinity);
        assert_eq!(Depth::parse(None), Depth::Infinity);
        assert_eq!(Depth::parse(Some("7")), Depth::Infinity);
    }

    #[test]
    fn recursion_behaviour() {
        assert!(!Depth::Zero.descends());
        assert!(Depth::One.descends());
        assert!(Depth::Infinity.descends());
    }

    #[test]
    fn display() {
        assert_eq!(Depth::Zero.to_string(), "0");
        assert_eq!(Depth::Infinity.to_string(), "infinity");
    }
}
