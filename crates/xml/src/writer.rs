//! Serialisation with namespace fixup.
//!
//! The writer works from **resolved** namespaces: every element/attribute
//! carries `(namespace URI, local)` and the writer (re)invents prefixes and
//! `xmlns` declarations as needed. This means a tree assembled
//! programmatically serialises correctly without the caller managing
//! prefixes, and a parsed tree re-serialises to an equivalent (not
//! necessarily byte-identical) document.
//!
//! A producer that streams a document itself and declares its namespaces
//! once at the top hands each subtree it cannot write directly to
//! [`write_in_scope`], which reuses those bindings and declares only what
//! the subtree adds.

use crate::dom::{Document, Element, Node, XMLNS_NS};
use crate::escape::{escape_attr, escape_text};
use crate::name::XML_NS;
use std::borrow::Cow;

/// The XML declaration a written document starts with.
pub const DECLARATION: &str = "<?xml version=\"1.0\" encoding=\"utf-8\"?>";

/// Configurable XML serialiser.
#[derive(Debug, Clone)]
pub struct Writer {
    indent: Option<usize>,
    declaration: bool,
}

impl Default for Writer {
    fn default() -> Self {
        Writer {
            indent: None,
            declaration: true,
        }
    }
}

impl Writer {
    /// A compact writer that emits the XML declaration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pretty-print with `n`-space indentation. Text-bearing elements are
    /// kept on one line so character data is never distorted.
    pub fn indent(mut self, n: usize) -> Self {
        self.indent = Some(n);
        self
    }

    /// Toggle the leading `<?xml version="1.0" encoding="utf-8"?>`.
    pub fn declaration(mut self, yes: bool) -> Self {
        self.declaration = yes;
        self
    }

    /// Serialise a whole document.
    pub fn write_document(&self, doc: &Document) -> String {
        let mut out = String::with_capacity(256);
        if self.declaration {
            out.push_str(DECLARATION);
            if self.indent.is_some() {
                out.push('\n');
            }
        }
        self.elem(doc.root(), &mut out, &mut PrefixScopes::new(&[]), 0);
        out
    }

    /// Serialise a lone element (no declaration).
    pub fn write_element(&self, elem: &Element) -> String {
        let mut out = String::with_capacity(128);
        self.elem(elem, &mut out, &mut PrefixScopes::new(&[]), 0);
        out
    }

    fn newline_indent(&self, out: &mut String, depth: usize) {
        if let Some(n) = self.indent {
            out.push('\n');
            for _ in 0..depth * n {
                out.push(' ');
            }
        }
    }

    fn elem<'e>(
        &self,
        e: &'e Element,
        out: &mut String,
        scopes: &mut PrefixScopes<'e>,
        depth: usize,
    ) {
        scopes.push();
        let first_decl = scopes.bound.len();
        let tag = scopes.prefix_for(e.namespace.as_deref(), e.name.prefix.as_deref(), false);
        // Every prefix the start tag uses is settled before it is written,
        // so its declarations can precede its attributes. Retained xmlns
        // declarations are skipped: the writer emits its own, minimal set.
        let attrs: Vec<_> = e
            .attributes
            .iter()
            .filter(|a| a.namespace.as_deref() != Some(XMLNS_NS))
            .map(|a| {
                let p = scopes.prefix_for(a.namespace.as_deref(), a.name.prefix.as_deref(), true);
                (p, a)
            })
            .collect();
        out.push('<');
        push_name(out, scopes.prefix(tag), &e.name.local);
        for (_, uri, prefix) in &scopes.bound[first_decl..] {
            out.push_str(" xmlns");
            if !prefix.is_empty() {
                out.push(':');
                out.push_str(prefix);
            }
            out.push_str("=\"");
            out.push_str(&escape_attr(uri));
            out.push('"');
        }
        for (p, a) in attrs {
            out.push(' ');
            push_name(out, scopes.prefix(p), &a.name.local);
            out.push_str("=\"");
            out.push_str(&escape_attr(&a.value));
            out.push('"');
        }

        if e.children.is_empty() {
            out.push_str("/>");
            scopes.pop();
            return;
        }
        out.push('>');
        let text_only = e
            .children
            .iter()
            .all(|n| matches!(n, Node::Text(_)));
        for child in &e.children {
            if !text_only {
                self.newline_indent(out, depth + 1);
            }
            match child {
                Node::Element(c) => self.elem(c, out, scopes, depth + 1),
                Node::Text(t) => out.push_str(&escape_text(t)),
                Node::Comment(c) => {
                    out.push_str("<!--");
                    out.push_str(c);
                    out.push_str("-->");
                }
                Node::Pi { target, data } => {
                    out.push_str("<?");
                    out.push_str(target);
                    if !data.is_empty() {
                        out.push(' ');
                        out.push_str(data);
                    }
                    out.push_str("?>");
                }
            }
        }
        if !text_only {
            self.newline_indent(out, depth);
        }
        out.push_str("</");
        push_name(out, scopes.prefix(tag), &e.name.local);
        out.push('>');
        scopes.pop();
    }
}

/// Append `elem`, compact, to `out` as content of an element that
/// declares `bindings` (`(prefix, namespace URI)` pairs). Namespaces bound
/// there are written with their prefix; any other namespace the subtree
/// uses is declared where it is first needed, under a prefix no binding
/// in scope uses.
pub fn write_in_scope(out: &mut String, elem: &Element, bindings: &[(&str, &str)]) {
    Writer::new().elem(elem, out, &mut PrefixScopes::new(bindings), 0);
}

fn push_name(out: &mut String, prefix: &str, local: &str) {
    if !prefix.is_empty() {
        out.push_str(prefix);
        out.push(':');
    }
    out.push_str(local);
}

/// Prefix assignment state: a scoped URI → prefix map plus a counter for
/// invented prefixes.
struct PrefixScopes<'e> {
    // (depth, uri, prefix). "" prefix = default namespace.
    bound: Vec<(u32, &'e str, Cow<'e, str>)>,
    depth: u32,
    next_auto: u32,
}

impl<'e> PrefixScopes<'e> {
    /// Scopes with the `xml` prefix and `bindings` in force.
    fn new(bindings: &[(&'e str, &'e str)]) -> Self {
        let mut bound = Vec::with_capacity(bindings.len() + 4);
        bound.push((0, XML_NS, Cow::Borrowed("xml")));
        bound.extend(bindings.iter().map(|&(p, uri)| (0, uri, Cow::Borrowed(p))));
        PrefixScopes {
            bound,
            depth: 0,
            next_auto: 0,
        }
    }

    fn push(&mut self) {
        self.depth += 1;
    }

    fn pop(&mut self) {
        while matches!(self.bound.last(), Some((d, _, _)) if *d == self.depth) {
            self.bound.pop();
        }
        self.depth -= 1;
    }

    /// The prefix of a binding [`PrefixScopes::prefix_for`] returned.
    fn prefix(&self, binding: Option<usize>) -> &str {
        binding.map_or("", |i| &self.bound[i].2)
    }

    fn lookup_uri(&self, uri: &str) -> Option<usize> {
        // Find the most recent binding of this URI and check the prefix is
        // not shadowed by a later binding of the same prefix.
        (0..self.bound.len()).rev().find(|&i| {
            let (_, u, p) = &self.bound[i];
            *u == uri && !self.bound[i + 1..].iter().any(|(_, _, p2)| p2 == p)
        })
    }

    fn prefix_taken(&self, prefix: &str) -> bool {
        self.bound.iter().any(|(_, _, p)| p == prefix)
    }

    /// Resolve or invent the binding for `uri` (`None`: no namespace, so
    /// no prefix). A new binding is made at the current depth, which is
    /// how the element being written learns what to declare.
    fn prefix_for(
        &mut self,
        uri: Option<&'e str>,
        preferred: Option<&'e str>,
        is_attribute: bool,
    ) -> Option<usize> {
        // No namespace. For elements this is only correct if no default
        // namespace is in scope; since we only declare a default
        // namespace when the tree explicitly asks for prefix "",
        // and we never do so automatically, unprefixed is safe here.
        let uri = uri?;
        if let Some(i) = self.lookup_uri(uri) {
            if !(is_attribute && self.bound[i].2.is_empty()) {
                return Some(i);
            }
        }
        // Need a new declaration. Pick a prefix: preferred if free, a
        // conventional one for DAV:, else an invented one. Attributes must
        // have a non-empty prefix to be in a namespace.
        let candidate = match preferred {
            Some(p) if !p.is_empty() && p != "xmlns" => p,
            _ if uri == crate::DAV_NS => "D",
            _ => "",
        };
        let prefix = if candidate.is_empty() || self.prefix_taken(candidate) {
            loop {
                let invented = format!("ns{}", self.next_auto);
                self.next_auto += 1;
                if !self.prefix_taken(&invented) {
                    break Cow::Owned(invented);
                }
            }
        } else {
            Cow::Borrowed(candidate)
        };
        self.bound.push((self.depth, uri, prefix));
        Some(self.bound.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Document;

    fn roundtrip(src: &str) -> Document {
        let doc = Document::parse(src).unwrap();
        let text = Writer::new().write_document(&doc);
        Document::parse(&text).unwrap_or_else(|e| panic!("re-parse of {text:?} failed: {e}"))
    }

    /// Structural equality on the namespace-resolved view: same local
    /// names, namespaces, attributes, and text, ignoring prefixes.
    fn same_resolved(a: &crate::dom::Element, b: &crate::dom::Element) -> bool {
        const XMLNS: &str = "http://www.w3.org/2000/xmlns/";
        if a.name.local != b.name.local || a.namespace != b.namespace {
            return false;
        }
        let attrs = |e: &crate::dom::Element| {
            let mut v: Vec<_> = e
                .attributes
                .iter()
                .filter(|at| at.namespace.as_deref() != Some(XMLNS))
                .map(|at| (at.namespace.clone(), at.name.local.clone(), at.value.clone()))
                .collect();
            v.sort();
            v
        };
        if attrs(a) != attrs(b) {
            return false;
        }
        if a.text() != b.text() {
            return false;
        }
        let ac: Vec<_> = a.children_elems().collect();
        let bc: Vec<_> = b.children_elems().collect();
        ac.len() == bc.len() && ac.iter().zip(&bc).all(|(x, y)| same_resolved(x, y))
    }

    #[test]
    fn simple_roundtrip() {
        let src = r#"<D:multistatus xmlns:D="DAV:"><D:response><D:href>/x y</D:href></D:response></D:multistatus>"#;
        let orig = Document::parse(src).unwrap();
        let back = roundtrip(src);
        assert!(same_resolved(orig.root(), back.root()));
    }

    #[test]
    fn programmatic_tree_gets_declarations() {
        let mut root = crate::dom::Element::new(Some("DAV:"), "prop");
        let mut child = crate::dom::Element::new(Some("urn:ecce"), "formula");
        child.push_text("H2O");
        root.push_elem(child);
        let text = Writer::new().declaration(false).write_element(&root);
        assert!(text.contains("xmlns:D=\"DAV:\""), "{text}");
        assert!(text.contains("xmlns:ns0=\"urn:ecce\""), "{text}");
        let doc = Document::parse(&text).unwrap();
        assert!(doc.root().is(Some("DAV:"), "prop"));
        assert_eq!(
            doc.root().child(Some("urn:ecce"), "formula").unwrap().text(),
            "H2O"
        );
    }

    #[test]
    fn reuses_inscope_prefixes() {
        let mut root = crate::dom::Element::new(Some("DAV:"), "multistatus");
        for _ in 0..3 {
            root.push_elem(crate::dom::Element::new(Some("DAV:"), "response"));
        }
        let text = Writer::new().declaration(false).write_element(&root);
        assert_eq!(text.matches("xmlns").count(), 1, "{text}");
    }

    #[test]
    fn escaping_in_output() {
        let mut e = crate::dom::Element::new(None, "t");
        e.push_text("a<b & c");
        e.set_attr(None, "q", "say \"hi\"");
        let text = Writer::new().declaration(false).write_element(&e);
        assert_eq!(text, r#"<t q="say &quot;hi&quot;">a&lt;b &amp; c</t>"#);
    }

    #[test]
    fn pretty_printing_keeps_text_intact() {
        let src = "<a><b>exact text</b><c/></a>";
        let doc = Document::parse(src).unwrap();
        let pretty = Writer::new().indent(2).write_document(&doc);
        assert!(pretty.contains("\n  <b>exact text</b>"), "{pretty}");
        let back = Document::parse(&pretty).unwrap();
        assert_eq!(
            back.root().child(None, "b").unwrap().text(),
            "exact text"
        );
    }

    #[test]
    fn declaration_toggle() {
        let doc = Document::parse("<a/>").unwrap();
        assert!(Writer::new()
            .write_document(&doc)
            .starts_with("<?xml version=\"1.0\""));
        assert_eq!(
            Writer::new().declaration(false).write_document(&doc),
            "<a/>"
        );
    }

    #[test]
    fn attribute_namespaces_roundtrip() {
        let src = r#"<r xmlns:a="urn:a"><c a:k="v"/></r>"#;
        let orig = Document::parse(src).unwrap();
        let back = roundtrip(src);
        assert!(same_resolved(orig.root(), back.root()));
        let c = back.root().children_elems().next().unwrap();
        assert_eq!(c.attr(Some("urn:a"), "k"), Some("v"));
    }

    #[test]
    fn comments_and_pis_roundtrip() {
        let back = roundtrip("<a><!--c--><?pi data?><b/></a>");
        let kinds: Vec<_> = back.root().children.iter().collect();
        assert_eq!(kinds.len(), 3);
    }

    #[test]
    fn write_in_scope_reuses_outer_bindings() {
        let mut atom = crate::dom::Element::new(Some("urn:ecce"), "atom");
        atom.set_attr(Some(XML_NS), "lang", "en");
        atom.set_attr(Some("urn:units"), "unit", "bohr");
        atom.push_text("0 0 1");
        let mut geom = crate::dom::Element::new(Some("urn:ecce"), "geometry");
        geom.push_elem(atom);
        let mut out = String::new();
        write_in_scope(&mut out, &geom, &[("D", "DAV:"), ("ns0", "urn:ecce")]);
        assert_eq!(
            out,
            r#"<ns0:geometry><ns0:atom xmlns:ns1="urn:units" xml:lang="en" ns1:unit="bohr">0 0 1</ns0:atom></ns0:geometry>"#
        );
        let wrapped = format!(r#"<D:prop xmlns:D="DAV:" xmlns:ns0="urn:ecce">{out}</D:prop>"#);
        let doc = Document::parse(&wrapped).unwrap();
        assert!(same_resolved(
            doc.root().children_elems().next().unwrap(),
            &geom
        ));
    }

    #[test]
    fn prefix_collision_invents_fresh() {
        // Two different URIs both prefer prefix "p".
        let mut root = crate::dom::Element::new(Some("urn:1"), "r");
        root.name.prefix = Some("p".into());
        let mut c = crate::dom::Element::new(Some("urn:2"), "c");
        c.name.prefix = Some("p".into());
        root.push_elem(c);
        let text = Writer::new().declaration(false).write_element(&root);
        let doc = Document::parse(&text).unwrap();
        assert_eq!(doc.root().namespace(), Some("urn:1"));
        assert_eq!(
            doc.root().children_elems().next().unwrap().namespace(),
            Some("urn:2")
        );
    }
}
