//! Byte-range header parsing (RFC 7233).
//!
//! Policy matches the spec's escape hatches: anything we cannot or do
//! not serve as a partial response — other units, syntax errors,
//! multi-range requests — is *ignored* (the caller serves a full 200),
//! which is always a correct answer to a Range request. Only a
//! well-formed single range that misses the representation entirely
//! becomes 416.

/// One parsed `Range: bytes=...` spec, before resolution against the
/// representation length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeSpec {
    /// `bytes=a-b` — both ends given, inclusive.
    FromTo(u64, u64),
    /// `bytes=a-` — from offset to end.
    From(u64),
    /// `bytes=-n` — the final `n` bytes.
    Suffix(u64),
}

/// A spec resolved against a representation of `total` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedRange {
    /// Serve `start..=end` as a 206 with `Content-Range: bytes start-end/total`.
    Satisfiable {
        /// First byte offset (inclusive).
        start: u64,
        /// Last byte offset (inclusive).
        end: u64,
    },
    /// No overlap with the representation: 416 with
    /// `Content-Range: bytes */total`.
    Unsatisfiable,
}

/// Parse a `Range` header value. `None` means "ignore the header and
/// serve the full representation": other units, malformed specs, and
/// multi-range requests all land there.
pub fn parse_range(header: &str) -> Option<RangeSpec> {
    let rest = header.trim().strip_prefix("bytes=")?;
    if rest.contains(',') {
        // Multi-range: we choose not to produce multipart/byteranges;
        // ignoring the header (full 200) is the conforming fallback.
        return None;
    }
    let rest = rest.trim();
    let (first, last) = rest.split_once('-')?;
    let (first, last) = (first.trim(), last.trim());
    match (first.is_empty(), last.is_empty()) {
        (true, true) => None,
        (true, false) => last.parse().ok().map(RangeSpec::Suffix),
        (false, true) => first.parse().ok().map(RangeSpec::From),
        (false, false) => {
            let a: u64 = first.parse().ok()?;
            let b: u64 = last.parse().ok()?;
            if a > b {
                None // syntactically invalid per RFC 7233 §2.1
            } else {
                Some(RangeSpec::FromTo(a, b))
            }
        }
    }
}

/// Resolve a parsed spec against a representation of `total` bytes.
pub fn resolve(spec: RangeSpec, total: u64) -> ResolvedRange {
    match spec {
        RangeSpec::FromTo(a, b) => {
            if a >= total {
                ResolvedRange::Unsatisfiable
            } else {
                ResolvedRange::Satisfiable {
                    start: a,
                    end: b.min(total - 1),
                }
            }
        }
        RangeSpec::From(a) => {
            if a >= total {
                ResolvedRange::Unsatisfiable
            } else {
                ResolvedRange::Satisfiable {
                    start: a,
                    end: total - 1,
                }
            }
        }
        RangeSpec::Suffix(n) => {
            if n == 0 || total == 0 {
                // RFC 7233 §2.1: a zero suffix-length is unsatisfiable.
                ResolvedRange::Unsatisfiable
            } else {
                ResolvedRange::Satisfiable {
                    start: total - n.min(total),
                    end: total - 1,
                }
            }
        }
    }
}

/// Parse a `Content-Range: bytes a-b/N` (or `bytes */N`) header as used
/// on resumable PUT requests and 416 responses. Returns
/// `(range, total)` where `range` is `None` for the `*/N` probe form.
pub fn parse_content_range(header: &str) -> Option<(Option<(u64, u64)>, u64)> {
    let rest = header.trim().strip_prefix("bytes")?.trim_start();
    let (range_part, total_part) = rest.split_once('/')?;
    let total: u64 = total_part.trim().parse().ok()?;
    let range_part = range_part.trim();
    if range_part == "*" {
        return Some((None, total));
    }
    let (a, b) = range_part.split_once('-')?;
    let a: u64 = a.trim().parse().ok()?;
    let b: u64 = b.trim().parse().ok()?;
    if a > b || b >= total {
        return None;
    }
    Some((Some((a, b)), total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_forms() {
        assert_eq!(parse_range("bytes=0-499"), Some(RangeSpec::FromTo(0, 499)));
        assert_eq!(parse_range("bytes=500-"), Some(RangeSpec::From(500)));
        assert_eq!(parse_range("bytes=-200"), Some(RangeSpec::Suffix(200)));
        assert_eq!(parse_range("  bytes=0-0 "), Some(RangeSpec::FromTo(0, 0)));
    }

    #[test]
    fn garbage_and_multirange_are_ignored() {
        for h in [
            "bites=0-1",
            "bytes=",
            "bytes=-",
            "bytes=a-b",
            "bytes=5-2",     // inverted
            "bytes=0-1,3-4", // multi-range: full 200 fallback
            "bytes",
            "0-499",
        ] {
            assert_eq!(parse_range(h), None, "header {h:?}");
        }
    }

    #[test]
    fn resolution_edges() {
        use ResolvedRange::*;
        // Off-by-one at EOF: last valid byte is total-1.
        assert_eq!(
            resolve(RangeSpec::FromTo(0, 99), 100),
            Satisfiable { start: 0, end: 99 }
        );
        assert_eq!(
            resolve(RangeSpec::FromTo(99, 99), 100),
            Satisfiable { start: 99, end: 99 }
        );
        assert_eq!(resolve(RangeSpec::FromTo(100, 100), 100), Unsatisfiable);
        // End clamped to the representation.
        assert_eq!(
            resolve(RangeSpec::FromTo(90, 1000), 100),
            Satisfiable { start: 90, end: 99 }
        );
        // Suffix longer than the file is the whole file.
        assert_eq!(
            resolve(RangeSpec::Suffix(1000), 100),
            Satisfiable { start: 0, end: 99 }
        );
        assert_eq!(
            resolve(RangeSpec::Suffix(1), 100),
            Satisfiable { start: 99, end: 99 }
        );
        assert_eq!(resolve(RangeSpec::Suffix(0), 100), Unsatisfiable);
        assert_eq!(resolve(RangeSpec::From(0), 0), Unsatisfiable);
        assert_eq!(resolve(RangeSpec::Suffix(5), 0), Unsatisfiable);
    }

    #[test]
    fn content_range_forms() {
        assert_eq!(
            parse_content_range("bytes 0-4/10"),
            Some((Some((0, 4)), 10))
        );
        assert_eq!(parse_content_range("bytes */10"), Some((None, 10)));
        assert_eq!(parse_content_range("bytes 5-4/10"), None);
        assert_eq!(parse_content_range("bytes 0-10/10"), None); // end past total
        assert_eq!(parse_content_range("items 0-4/10"), None);
        assert_eq!(parse_content_range("bytes 0-4/x"), None);
    }
}
