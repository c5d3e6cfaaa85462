//! Request targets and percent-encoding.
//!
//! DAV resource addresses travel in the request line (origin form:
//! `/Projects/aqueous/calc-7?depth=1`) and inside multistatus `<href>`
//! elements, sometimes in absolute form. [`Target`] normalises both and
//! keeps path handling (encode/decode, join, parent) in one place — the
//! repository layer works with decoded path segments only.

use std::fmt;

/// A parsed request target: decoded path plus optional raw query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Target {
    path: String,
    query: Option<String>,
}

impl Target {
    /// Parse an origin-form (`/a/b?q`) or absolute (`http://host/a/b`)
    /// target. The path component is percent-decoded and normalised to
    /// start with `/`; `.` and `..` segments are resolved so a repository
    /// never sees an escape attempt.
    pub fn parse(raw: &str) -> Target {
        let raw = raw.trim();
        // Strip scheme://authority if present. Origin-form targets
        // (starting with `/`) are never treated as absolute even if the
        // path happens to contain `://`. Absolute form without any path
        // (`http://host`) addresses the root, not a `/http:/host` path.
        let after_scheme = if raw.starts_with('/') {
            raw
        } else if let Some(i) = raw.find("://") {
            let rest = &raw[i + 3..];
            match rest.find(['/', '?']) {
                Some(j) => &rest[j..],
                None => "/",
            }
        } else {
            raw
        };
        let (path_raw, query) = match after_scheme.split_once('?') {
            Some((p, q)) => (p, Some(q.to_owned())),
            None => (after_scheme, None),
        };
        let decoded = percent_decode(path_raw);
        Target {
            path: normalize_path(&decoded),
            query,
        }
    }

    /// The decoded, normalised path; always begins with `/`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The raw query string, if any.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// Path segments, skipping empties (`/a//b/` → `["a","b"]`).
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.path.split('/').filter(|s| !s.is_empty())
    }

    /// The encoded wire form (path re-encoded, query appended verbatim).
    pub fn encoded(&self) -> String {
        let mut out = percent_encode_path(&self.path);
        if let Some(q) = &self.query {
            out.push('?');
            out.push_str(q);
        }
        out
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.path)
    }
}

/// Resolve `.`/`..` and collapse duplicate slashes; result always starts
/// with `/` and has no trailing slash (except the root itself).
pub fn normalize_path(path: &str) -> String {
    let mut stack: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                stack.pop();
            }
            s => stack.push(s),
        }
    }
    if stack.is_empty() {
        "/".to_owned()
    } else {
        format!("/{}", stack.join("/"))
    }
}

/// Join a child segment (or relative path) onto a base path.
pub fn join_path(base: &str, child: &str) -> String {
    normalize_path(&format!("{base}/{child}"))
}

/// Parent of a normalised path (`/a/b` → `/a`, `/a` → `/`, `/` → `/`).
pub fn parent_path(path: &str) -> String {
    let norm = normalize_path(path);
    match norm.rfind('/') {
        Some(0) | None => "/".to_owned(),
        Some(i) => norm[..i].to_owned(),
    }
}

/// Last segment of a normalised path (`/a/b` → `b`); empty for the root.
pub fn basename(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or("")
}

/// Percent-decode a path or query component. Invalid escapes pass
/// through literally (lenient, as most servers are).
pub fn percent_decode(s: &str) -> String {
    if !s.contains('%') {
        return s.to_owned();
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let Some(b) =
                hex_val(bytes[i + 1]).and_then(|hi| hex_val(bytes[i + 2]).map(|lo| hi * 16 + lo))
            {
                out.push(b);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-encode a decoded path for the wire, preserving `/`.
pub fn percent_encode_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    push_percent_encoded_path(&mut out, path);
    out
}

/// [`percent_encode_path`], appending to `out`. The output holds only
/// unreserved ASCII, `/`, a few sub-delimiters and `%XX` escapes, so it
/// needs no further escaping in XML text.
pub fn push_percent_encoded_path(out: &mut String, path: &str) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for &b in path.as_bytes() {
        let keep = b.is_ascii_alphanumeric()
            || matches!(
                b,
                b'/' | b'-' | b'_' | b'.' | b'~' | b'(' | b')' | b',' | b'+' | b'=' | b'@' | b':'
            );
        if keep {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 15)] as char);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_form() {
        let t = Target::parse("/Projects/aq%20uo/calc?depth=1");
        assert_eq!(t.path(), "/Projects/aq uo/calc");
        assert_eq!(t.query(), Some("depth=1"));
        assert_eq!(
            t.segments().collect::<Vec<_>>(),
            vec!["Projects", "aq uo", "calc"]
        );
    }

    #[test]
    fn absolute_form_strips_authority() {
        let t = Target::parse("http://dav.pnl.gov:8080/Ecce/users/karen");
        assert_eq!(t.path(), "/Ecce/users/karen");
    }

    #[test]
    fn absolute_form_without_path_is_root() {
        // Regression: this used to fall through and yield `/http:/host`.
        let t = Target::parse("http://dav.pnl.gov");
        assert_eq!(t.path(), "/");
        assert_eq!(t.query(), None);
        let t = Target::parse("https://host:8443");
        assert_eq!(t.path(), "/");
        // A query with no path still lands on the root.
        let t = Target::parse("http://host?depth=1");
        assert_eq!(t.path(), "/");
        assert_eq!(t.query(), Some("depth=1"));
    }

    #[test]
    fn origin_form_containing_scheme_like_segment() {
        // `://` inside an origin-form path must not be treated as an
        // authority marker.
        let t = Target::parse("/docs/a%3A%2F%2Fb/c");
        assert_eq!(t.path(), "/docs/a:/b/c"); // duplicate slash collapsed
        let t = Target::parse("/weird/x://y/z");
        assert_eq!(t.path(), "/weird/x:/y/z"); // duplicate slash collapsed
    }

    #[test]
    fn normalisation_blocks_escapes() {
        assert_eq!(normalize_path("/a/../../etc/passwd"), "/etc/passwd");
        assert_eq!(Target::parse("/a/../..").path(), "/");
        assert_eq!(normalize_path("//a///b/./c/"), "/a/b/c");
        assert_eq!(normalize_path(""), "/");
    }

    #[test]
    fn join_parent_basename() {
        assert_eq!(join_path("/a/b", "c"), "/a/b/c");
        assert_eq!(join_path("/", "c"), "/c");
        assert_eq!(parent_path("/a/b/c"), "/a/b");
        assert_eq!(parent_path("/a"), "/");
        assert_eq!(parent_path("/"), "/");
        assert_eq!(basename("/a/b"), "b");
        assert_eq!(basename("/"), "");
    }

    #[test]
    fn percent_roundtrip() {
        let decoded = "/molecules/UO2 (15 H2O)/geometry#1";
        let encoded = percent_encode_path(decoded);
        assert!(!encoded.contains(' '));
        assert!(!encoded.contains('#'));
        assert_eq!(percent_decode(&encoded), decoded);
    }

    #[test]
    fn lenient_decode() {
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%41"), "A");
    }

    #[test]
    fn encoded_target_roundtrip() {
        let t = Target::parse("/a b/c?x=%20");
        let enc = t.encoded();
        assert_eq!(enc, "/a%20b/c?x=%20");
        let t2 = Target::parse(&enc);
        assert_eq!(t2.path(), "/a b/c");
    }

    #[test]
    fn utf8_paths() {
        let t = Target::parse("/mol%C3%A9cules");
        assert_eq!(t.path(), "/mol\u{00e9}cules");
        let enc = percent_encode_path(t.path());
        assert_eq!(percent_decode(&enc), "/mol\u{00e9}cules");
    }
}
