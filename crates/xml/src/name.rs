//! Qualified names and namespace scope resolution.
//!
//! DAV properties are identified by `(namespace URI, local name)` pairs —
//! the paper's Ecce schema, for instance, lives in a single `ecce:`
//! namespace while protocol elements live in `DAV:`. This module provides
//! the owned [`QName`] the DOM keeps, the borrowed [`Name`] the pull
//! parser reports, and the [`NsScope`] stack that maps prefixes to URIs
//! while walking a document.

use crate::error::{Error, Result};
use crate::pull::Attribute;
use std::borrow::Cow;
use std::fmt;

/// The namespace the `xml` prefix is bound to in every document.
pub const XML_NS: &str = "http://www.w3.org/XML/1998/namespace";

/// A qualified name as written in the document: optional prefix + local part.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QName {
    /// The prefix before `:`, if any (`D` in `D:prop`).
    pub prefix: Option<String>,
    /// The local part (`prop` in `D:prop`).
    pub local: String,
}

impl QName {
    /// Construct an unprefixed name without validation (for trusted
    /// compile-time literals).
    pub fn local(local: &str) -> Self {
        QName {
            prefix: None,
            local: local.to_owned(),
        }
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = &self.prefix {
            write!(f, "{p}:")?;
        }
        f.write_str(&self.local)
    }
}

/// A qualified name borrowed from the document, as the pull parser
/// reports it. [`Name::to_qname`] makes the owned form a DOM keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Name<'a> {
    /// The prefix before `:`, if any.
    pub prefix: Option<&'a str>,
    /// The local part.
    pub local: &'a str,
}

impl<'a> Name<'a> {
    /// Parse a raw `prefix:local` or `local` token; both parts must be
    /// valid NCNames.
    pub fn parse(raw: &'a str) -> Result<Self> {
        let (prefix, local) = match raw.split_once(':') {
            Some((p, l)) => (Some(p), l),
            None => (None, raw),
        };
        for part in prefix.into_iter().chain([local]) {
            if !is_ncname(part) {
                return Err(Error::InvalidName { name: part.into() });
            }
        }
        Ok(Name { prefix, local })
    }

    /// The owned form.
    pub fn to_qname(self) -> QName {
        QName {
            prefix: self.prefix.map(str::to_owned),
            local: self.local.to_owned(),
        }
    }
}

/// Is `s` a valid XML `NCName` (a name with no colon)?
///
/// We use the pragmatic name character classes: ASCII letters, digits,
/// `_`, `-`, `.`, and any non-ASCII character. Digits, `-`, and `.` may
/// not start a name. Every byte of a non-ASCII character is `>= 0x80`,
/// so the check runs on bytes.
pub fn is_ncname(s: &str) -> bool {
    let mut bytes = s.bytes();
    match bytes.next() {
        Some(b) if b.is_ascii_alphabetic() || b == b'_' || !b.is_ascii() => {}
        _ => return false,
    }
    bytes.all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.') || !b.is_ascii())
}

/// A stack of namespace declarations tracking the in-scope prefix → URI
/// mapping while descending a document. Prefixes and URIs borrow from
/// the document; a URI is owned only when its declaration used an
/// entity.
///
/// [`NsScope::enter`] (or `push_scope` plus [`NsScope::declare`]) on
/// element entry, resolve names with [`NsScope::resolve`], and
/// `pop_scope` on element exit.
#[derive(Debug, Clone)]
pub struct NsScope<'a> {
    // (depth, prefix ("" = default ns), uri). Linear scan from the back —
    // scopes are shallow in practice (DAV documents nest < 10 deep).
    decls: Vec<(u32, &'a str, Cow<'a, str>)>,
    depth: u32,
}

impl Default for NsScope<'_> {
    fn default() -> Self {
        NsScope::new()
    }
}

impl<'a> NsScope<'a> {
    /// Fresh scope with no declarations and the conventional `xml` prefix.
    pub fn new() -> Self {
        NsScope {
            decls: vec![(0, "xml", Cow::Borrowed(XML_NS))],
            depth: 0,
        }
    }

    /// Enter an element.
    pub fn push_scope(&mut self) {
        self.depth += 1;
    }

    /// Enter an element and record the `xmlns`/`xmlns:p` declarations
    /// among its attributes.
    pub fn enter(&mut self, attributes: &[Attribute<'a>]) {
        self.push_scope();
        for a in attributes {
            if let Some(prefix) = a.declared_prefix() {
                self.declare(prefix, a.value.clone());
            }
        }
    }

    /// Leave an element, dropping declarations made on it.
    pub fn pop_scope(&mut self) {
        while matches!(self.decls.last(), Some((d, _, _)) if *d == self.depth) {
            self.decls.pop();
        }
        self.depth = self.depth.saturating_sub(1);
    }

    /// Record `xmlns="uri"` (prefix `""`) or `xmlns:p="uri"` at the
    /// current depth.
    pub fn declare(&mut self, prefix: &'a str, uri: impl Into<Cow<'a, str>>) {
        self.decls.push((self.depth, prefix, uri.into()));
    }

    /// Resolve a prefix to its in-scope URI. The empty prefix resolves to
    /// the default namespace, or `None` when no default is declared (or it
    /// was undeclared with `xmlns=""`).
    pub fn lookup(&self, prefix: &str) -> Option<&str> {
        self.decls
            .iter()
            .rev()
            .find(|(_, p, _)| *p == prefix)
            .map(|(_, _, uri)| uri.as_ref())
            .filter(|uri| !uri.is_empty())
    }

    /// Resolve a [`Name`] to its namespace URI per the Namespaces in XML
    /// rules: prefixed names must have a binding (error otherwise);
    /// unprefixed **element** names take the default namespace;
    /// unprefixed **attribute** names are in no namespace.
    pub fn resolve(&self, name: Name<'_>, is_attribute: bool) -> Result<Option<&str>> {
        match name.prefix {
            Some(p) => self
                .lookup(p)
                .map(Some)
                .ok_or_else(|| Error::UnboundPrefix { prefix: p.into() }),
            None if is_attribute => Ok(None),
            None => Ok(self.lookup("")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ncname_validation() {
        assert!(is_ncname("prop"));
        assert!(is_ncname("_x"));
        assert!(is_ncname("a-b.c_d1"));
        assert!(is_ncname("\u{00E9}l\u{00E9}ment"));
        assert!(!is_ncname(""));
        assert!(!is_ncname("1abc"));
        assert!(!is_ncname("-abc"));
        assert!(!is_ncname("a b"));
        assert!(!is_ncname("a:b"));
        assert!(!is_ncname("a<b"));
    }

    #[test]
    fn name_parse_forms() {
        let n = Name::parse("D:prop").unwrap();
        assert_eq!(n.prefix, Some("D"));
        assert_eq!(n.local, "prop");
        let q = n.to_qname();
        assert_eq!(q.prefix.as_deref(), Some("D"));
        assert_eq!(q.to_string(), "D:prop");

        let n = Name::parse("href").unwrap();
        assert_eq!(n.prefix, None);
        assert_eq!(n.to_qname().to_string(), "href");

        assert!(Name::parse("a:b:c").is_err());
        assert!(Name::parse(":x").is_err());
        assert!(Name::parse("x:").is_err());
    }

    #[test]
    fn scope_nesting_and_shadowing() {
        let mut ns = NsScope::new();
        ns.push_scope();
        ns.declare("D", "DAV:");
        ns.declare("", "urn:default");
        assert_eq!(ns.lookup("D"), Some("DAV:"));
        assert_eq!(ns.lookup(""), Some("urn:default"));

        ns.push_scope();
        ns.declare("D", "urn:shadow");
        assert_eq!(ns.lookup("D"), Some("urn:shadow"));
        ns.pop_scope();
        assert_eq!(ns.lookup("D"), Some("DAV:"));

        ns.pop_scope();
        assert_eq!(ns.lookup("D"), None);
    }

    #[test]
    fn default_ns_undeclaration() {
        let mut ns = NsScope::new();
        ns.push_scope();
        ns.declare("", "urn:a");
        ns.push_scope();
        ns.declare("", ""); // xmlns="" removes the default namespace
        assert_eq!(ns.lookup(""), None);
        ns.pop_scope();
        assert_eq!(ns.lookup(""), Some("urn:a"));
    }

    #[test]
    fn resolution_rules() {
        let mut ns = NsScope::new();
        ns.push_scope();
        ns.declare("", "urn:def");
        ns.declare("D", "DAV:");

        let elem = Name::parse("x").unwrap();
        assert_eq!(ns.resolve(elem, false).unwrap(), Some("urn:def"));
        // Unprefixed attributes never take the default namespace.
        assert_eq!(ns.resolve(elem, true).unwrap(), None);

        let pfx = Name::parse("D:prop").unwrap();
        assert_eq!(ns.resolve(pfx, false).unwrap(), Some("DAV:"));
        assert_eq!(ns.resolve(pfx, true).unwrap(), Some("DAV:"));

        let bad = Name::parse("E:prop").unwrap();
        assert!(matches!(
            ns.resolve(bad, false),
            Err(Error::UnboundPrefix { .. })
        ));
    }

    #[test]
    fn xml_prefix_is_predeclared() {
        let ns = NsScope::new();
        assert_eq!(ns.lookup("xml"), Some(XML_NS));
    }
}
