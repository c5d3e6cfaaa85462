//! Tree (DOM-style) document model.
//!
//! [`Document::parse`] drives the pull parser and materialises the whole
//! document — the behaviour of the Xerces DOM parser used by the paper's
//! first client implementation. Namespace prefixes are resolved during the
//! build, so every [`Element`] and attribute knows its namespace URI and
//! lookups can be made by `(namespace, local)` without caring which prefix
//! the producer happened to choose.

use crate::error::{Error, Result};
use crate::name::{Name, NsScope, QName};
use crate::pull::{Attribute, Event, Reader};

/// The namespace under which an [`Element`] keeps the `xmlns`
/// declarations it was parsed with (see [`Element::attributes`]).
pub const XMLNS_NS: &str = "http://www.w3.org/2000/xmlns/";

/// A node in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// Character data (entities already expanded). CDATA sections are
    /// folded into text nodes — the distinction carries no information
    /// once parsed.
    Text(String),
    /// A comment (body only).
    Comment(String),
    /// A processing instruction.
    Pi {
        /// PI target.
        target: String,
        /// PI data.
        data: String,
    },
}

/// A resolved attribute: namespace URI (if any), name as written, value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// Resolved namespace URI; `None` for unprefixed attributes.
    pub namespace: Option<String>,
    /// Name as written in the document.
    pub name: QName,
    /// Unescaped value.
    pub value: String,
}

/// An element with resolved namespace, attributes, and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Name as written (prefix preserved for round-tripping).
    pub name: QName,
    /// Resolved namespace URI of the element, if any.
    pub namespace: Option<String>,
    /// Attributes in document order. Namespace declarations (`xmlns`,
    /// `xmlns:p`) are retained so the writer can reproduce them.
    pub attributes: Vec<Attr>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// A new element with the given resolved name and no prefix decision
    /// yet (the writer assigns prefixes from declarations).
    pub fn new(namespace: Option<&str>, local: &str) -> Self {
        Element {
            name: QName::local(local),
            namespace: namespace.map(str::to_owned),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The resolved namespace URI, if any.
    pub fn namespace(&self) -> Option<&str> {
        self.namespace.as_deref()
    }

    /// Does this element match `(namespace, local)`?
    pub fn is(&self, namespace: Option<&str>, local: &str) -> bool {
        self.namespace.as_deref() == namespace && self.name.local == local
    }

    /// Iterate over child elements only.
    pub fn children_elems(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// First child element matching `(namespace, local)`.
    pub fn child(&self, namespace: Option<&str>, local: &str) -> Option<&Element> {
        self.children_elems().find(|e| e.is(namespace, local))
    }

    /// All child elements matching `(namespace, local)`.
    pub fn children_named<'a>(
        &'a self,
        namespace: Option<&'a str>,
        local: &'a str,
    ) -> impl Iterator<Item = &'a Element> + 'a {
        self.children_elems()
            .filter(move |e| e.is(namespace, local))
    }

    /// Concatenated text content of this element's direct text/CDATA
    /// children (not recursive).
    pub fn text(&self) -> String {
        self.children
            .iter()
            .filter_map(|n| match n {
                Node::Text(t) => Some(t.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Recursive text content, in document order.
    pub fn deep_text(&self) -> String {
        let mut out = String::new();
        fn walk(e: &Element, out: &mut String) {
            for n in &e.children {
                match n {
                    Node::Text(t) => out.push_str(t),
                    Node::Element(c) => walk(c, out),
                    _ => {}
                }
            }
        }
        walk(self, &mut out);
        out
    }

    /// Value of the attribute `(namespace, local)` — `namespace == None`
    /// matches unprefixed attributes.
    pub fn attr(&self, namespace: Option<&str>, local: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.namespace.as_deref() == namespace && a.name.local == local)
            .map(|a| a.value.as_str())
    }

    /// Append a child element (builder style).
    pub fn push_elem(&mut self, child: Element) -> &mut Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Append a text child (builder style).
    pub fn push_text(&mut self, text: impl Into<String>) -> &mut Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Set (or replace) an attribute by `(namespace, local)`.
    pub fn set_attr(&mut self, namespace: Option<&str>, local: &str, value: impl Into<String>) {
        let value = value.into();
        if let Some(a) = self
            .attributes
            .iter_mut()
            .find(|a| a.namespace.as_deref() == namespace && a.name.local == local)
        {
            a.value = value;
        } else {
            self.attributes.push(Attr {
                namespace: namespace.map(str::to_owned),
                name: QName::local(local),
                value,
            });
        }
    }

    /// Total number of elements in this subtree, including `self`.
    pub fn count_elements(&self) -> usize {
        1 + self
            .children_elems()
            .map(Element::count_elements)
            .sum::<usize>()
    }
}

/// A parsed document: the root element plus any prolog/epilog comments
/// and PIs (which DAV never needs, but which round-trip cleanly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Nodes before the root element (XML declaration, comments, ...).
    pub prolog: Vec<Node>,
    root: Element,
}

impl Document {
    /// Wrap an element as a complete document.
    pub fn with_root(root: Element) -> Self {
        Document {
            prolog: Vec::new(),
            root,
        }
    }

    /// Parse a complete document, resolving namespaces.
    pub fn parse(src: &str) -> Result<Self> {
        let mut reader = Reader::new(src);
        let mut ns = NsScope::new();
        let mut prolog = Vec::new();
        loop {
            match reader.next_event()? {
                Event::StartElement { name, attributes } => {
                    let root = read_element(&mut reader, &mut ns, name, attributes)?;
                    // Drain the epilog so trailing junk is still validated.
                    loop {
                        match reader.next_event()? {
                            Event::Eof => break,
                            Event::Comment(_) | Event::Pi { .. } => {}
                            Event::Text(t) if t.trim().is_empty() => {}
                            _ => {
                                return Err(Error::BadRootCount { count: 2 });
                            }
                        }
                    }
                    return Ok(Document { prolog, root });
                }
                Event::Comment(c) => prolog.push(Node::Comment(c.to_owned())),
                Event::Pi { target, data } => prolog.push(Node::Pi {
                    target: target.to_owned(),
                    data: data.to_owned(),
                }),
                Event::Text(t) if t.trim().is_empty() => {}
                Event::Eof => return Err(Error::BadRootCount { count: 0 }),
                _ => unreachable!("reader rejects content outside the root"),
            }
        }
    }

    /// The root element.
    pub fn root(&self) -> &Element {
        &self.root
    }

    /// Consume the document, returning the root element.
    pub fn into_root(self) -> Element {
        self.root
    }
}

/// Build the element whose start event `reader` has just returned,
/// consuming events through its end tag. `ns` holds the bindings of the
/// enclosing elements; the element's own declarations are entered and
/// left here. This is how [`Document::parse`] builds every element, and
/// how a streaming consumer materialises just the subtrees it keeps.
pub fn read_element<'a>(
    reader: &mut Reader<'a>,
    ns: &mut NsScope<'a>,
    name: Name<'a>,
    attributes: Vec<Attribute<'a>>,
) -> Result<Element> {
    ns.enter(&attributes);
    let namespace = ns.resolve(name, false)?.map(str::to_owned);
    let mut attrs = Vec::with_capacity(attributes.len());
    for a in attributes {
        let namespace = if a.declared_prefix().is_some() {
            // Keep declarations but give them the reserved xmlns URI so
            // lookups by application namespaces never see them.
            Some(XMLNS_NS)
        } else {
            ns.resolve(a.name, true)?
        };
        attrs.push(Attr {
            namespace: namespace.map(str::to_owned),
            name: a.name.to_qname(),
            value: a.value.into_owned(),
        });
    }
    let mut elem = Element {
        name: name.to_qname(),
        namespace,
        attributes: attrs,
        children: Vec::new(),
    };
    loop {
        let child = match reader.next_event()? {
            Event::StartElement { name, attributes } => {
                Node::Element(read_element(reader, ns, name, attributes)?)
            }
            Event::EndElement { .. } => {
                // Balancing already checked by the reader.
                ns.pop_scope();
                return Ok(elem);
            }
            Event::Text(t) => Node::Text(t.into_owned()),
            Event::CData(t) => Node::Text(t.to_owned()),
            Event::Comment(c) => Node::Comment(c.to_owned()),
            Event::Pi { target, data } => Node::Pi {
                target: target.to_owned(),
                data: data.to_owned(),
            },
            Event::Eof => {
                return Err(Error::UnexpectedEof {
                    context: "an element that was never closed",
                })
            }
        };
        elem.children.push(child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_navigate() {
        let doc = Document::parse(
            r#"<D:multistatus xmlns:D="DAV:">
                 <D:response>
                   <D:href>/a</D:href>
                   <D:status>HTTP/1.1 200 OK</D:status>
                 </D:response>
                 <D:response><D:href>/b</D:href></D:response>
               </D:multistatus>"#,
        )
        .unwrap();
        let root = doc.root();
        assert!(root.is(Some("DAV:"), "multistatus"));
        let responses: Vec<_> = root.children_named(Some("DAV:"), "response").collect();
        assert_eq!(responses.len(), 2);
        assert_eq!(
            responses[0].child(Some("DAV:"), "href").unwrap().text(),
            "/a"
        );
        assert_eq!(root.count_elements(), 6);
    }

    #[test]
    fn default_namespace_applies_to_elements_only() {
        let doc = Document::parse(r#"<root xmlns="urn:x"><child attr="v"/></root>"#).unwrap();
        let child = doc.root().children_elems().next().unwrap();
        assert_eq!(child.namespace(), Some("urn:x"));
        // Unprefixed attribute stays namespace-less.
        assert_eq!(child.attr(None, "attr"), Some("v"));
        assert_eq!(child.attr(Some("urn:x"), "attr"), None);
    }

    #[test]
    fn prefix_shadowing() {
        let doc = Document::parse(
            r#"<a:r xmlns:a="urn:1"><a:c xmlns:a="urn:2"><a:g/></a:c><a:d/></a:r>"#,
        )
        .unwrap();
        let r = doc.root();
        assert_eq!(r.namespace(), Some("urn:1"));
        let c = r.child(Some("urn:2"), "c").unwrap();
        assert_eq!(
            c.children_elems().next().unwrap().namespace(),
            Some("urn:2")
        );
        assert!(r.child(Some("urn:1"), "d").is_some());
    }

    #[test]
    fn unbound_prefix_is_an_error() {
        assert!(matches!(
            Document::parse("<E:x/>"),
            Err(Error::UnboundPrefix { .. })
        ));
    }

    #[test]
    fn text_and_cdata_fold_together() {
        let doc = Document::parse("<a>one <![CDATA[<two>]]> three</a>").unwrap();
        assert_eq!(doc.root().text(), "one <two> three");
    }

    #[test]
    fn deep_text_walks_subtree() {
        let doc = Document::parse("<a>x<b>y<c>z</c></b>w</a>").unwrap();
        assert_eq!(doc.root().deep_text(), "xyzw");
    }

    #[test]
    fn prolog_preserved() {
        let doc = Document::parse("<?xml version=\"1.0\"?><!-- hello --><a/>").unwrap();
        assert_eq!(doc.prolog.len(), 2);
        assert!(matches!(&doc.prolog[1], Node::Comment(c) if c == " hello "));
    }

    #[test]
    fn builder_api() {
        let mut root = Element::new(Some("DAV:"), "prop");
        let mut child = Element::new(Some("urn:ecce"), "formula");
        child.push_text("UO2(H2O)15");
        root.push_elem(child);
        root.set_attr(None, "n", "1");
        root.set_attr(None, "n", "2"); // replace
        assert_eq!(root.attr(None, "n"), Some("2"));
        assert_eq!(
            root.child(Some("urn:ecce"), "formula").unwrap().text(),
            "UO2(H2O)15"
        );
    }

    #[test]
    fn xmlns_attrs_not_visible_as_plain_attrs() {
        let doc = Document::parse(r#"<a xmlns:D="DAV:" x="1"/>"#).unwrap();
        assert_eq!(doc.root().attr(None, "x"), Some("1"));
        // The declaration is kept (for serialisation) under the xmlns URI.
        assert_eq!(doc.root().attr(None, "D"), None);
        assert_eq!(doc.root().attr(Some(XMLNS_NS), "D"), Some("DAV:"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(Document::parse("<a/><b/>").is_err());
    }
}
