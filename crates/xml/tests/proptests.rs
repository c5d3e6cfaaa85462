//! Property-based tests: escaping and document round-trips.

use proptest::prelude::*;
use pse_xml::dom::{Document, Element, Node};
use pse_xml::escape::{escape_attr, escape_text, unescape};
use pse_xml::writer::Writer;

proptest! {
    /// Any string survives text escape → unescape.
    #[test]
    fn text_escape_roundtrip(s in "\\PC*") {
        let escaped = escape_text(&s).into_owned();
        prop_assert_eq!(unescape(&escaped).unwrap(), s);
    }

    /// Any string survives attribute escape → unescape.
    #[test]
    fn attr_escape_roundtrip(s in "\\PC*") {
        let escaped = escape_attr(&s).into_owned();
        prop_assert_eq!(unescape(&escaped).unwrap(), s);
    }

    /// Escaped text never contains raw markup characters.
    #[test]
    fn escaped_text_has_no_markup(s in "\\PC*") {
        let escaped = escape_text(&s).into_owned();
        prop_assert!(!escaped.contains('<'));
        // `&` may only appear as the start of an entity.
        for (i, _) in escaped.match_indices('&') {
            prop_assert!(escaped[i..].contains(';'));
        }
    }
}

/// Strategy for namespace URIs used in generated trees.
fn ns_strategy() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        Just(Some("DAV:".to_string())),
        Just(Some("urn:ecce".to_string())),
        Just(Some("http://example.org/ns".to_string())),
    ]
}

fn local_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.-]{0,8}"
}

/// Random element trees, depth ≤ 3, fanout ≤ 4.
fn element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (ns_strategy(), local_name(), "\\PC{0,20}").prop_map(|(ns, name, text)| {
        let mut e = Element::new(ns.as_deref(), &name);
        if !text.is_empty() {
            e.push_text(text);
        }
        e
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            ns_strategy(),
            local_name(),
            prop::collection::vec(inner, 0..4),
            prop::collection::vec((local_name(), "\\PC{0,12}"), 0..3),
        )
            .prop_map(|(ns, name, children, attrs)| {
                let mut e = Element::new(ns.as_deref(), &name);
                for c in children {
                    e.push_elem(c);
                }
                for (k, v) in attrs {
                    e.set_attr(None, &k, v);
                }
                e
            })
    })
}

/// Resolved-structure equality ignoring prefixes and xmlns bookkeeping.
fn same(a: &Element, b: &Element) -> bool {
    const XMLNS: &str = "http://www.w3.org/2000/xmlns/";
    if a.name.local != b.name.local || a.namespace != b.namespace || a.text() != b.text() {
        return false;
    }
    let attrs = |e: &Element| {
        let mut v: Vec<_> = e
            .attributes
            .iter()
            .filter(|at| at.namespace.as_deref() != Some(XMLNS))
            .map(|at| {
                (
                    at.namespace.clone(),
                    at.name.local.clone(),
                    at.value.clone(),
                )
            })
            .collect();
        v.sort();
        v
    };
    if attrs(a) != attrs(b) {
        return false;
    }
    let (ac, bc): (Vec<_>, Vec<_>) = (a.children_elems().collect(), b.children_elems().collect());
    ac.len() == bc.len() && ac.iter().zip(&bc).all(|(x, y)| same(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// write(parse(write(tree))) is a fixed point on resolved structure,
    /// for both compact and pretty output.
    #[test]
    fn tree_write_parse_roundtrip(tree in element_strategy()) {
        let compact = Writer::new().declaration(false).write_element(&tree);
        let doc = Document::parse(&compact)
            .unwrap_or_else(|e| panic!("re-parse failed on {compact:?}: {e}"));
        prop_assert!(same(&tree, doc.root()), "compact mismatch: {compact}");

        let pretty = Writer::new().indent(2).write_element(&tree);
        let doc2 = Document::parse(&pretty).unwrap();
        // Pretty printing inserts whitespace text nodes between elements,
        // but never inside text-only elements, so text content matches on
        // elements that had text.
        prop_assert_eq!(&doc2.root().name.local, &tree.name.local);
    }

    /// The pull reader and DOM agree on element counts.
    #[test]
    fn reader_dom_agree(tree in element_strategy()) {
        let text = Writer::new().declaration(false).write_element(&tree);
        let dom_count = Document::parse(&text).unwrap().root().count_elements();
        let mut reader_count = 0usize;
        for ev in pse_xml::Reader::new(&text) {
            if matches!(ev.unwrap(), pse_xml::Event::StartElement { .. }) {
                reader_count += 1;
            }
        }
        prop_assert_eq!(dom_count, reader_count);
    }
}

#[test]
fn node_enum_is_exercised() {
    let doc = Document::parse("<a>t<!--c--><?p d?><b/></a>").unwrap();
    let mut kinds = [0usize; 4];
    for n in &doc.root().children {
        match n {
            Node::Text(_) => kinds[0] += 1,
            Node::Comment(_) => kinds[1] += 1,
            Node::Pi { .. } => kinds[2] += 1,
            Node::Element(_) => kinds[3] += 1,
        }
    }
    assert_eq!(kinds, [1, 1, 1, 1]);
}
