//! Property test: the streamed multistatus writer and both parsers agree.
//!
//! For generated `Multistatus` values, `parse_sax(to_xml(ms))` and
//! `parse_dom(to_xml(ms))` must both give back `ms`. The values mix
//! property namespaces (and properties in none), nested and empty
//! values, attributes in foreign namespaces and `xml:lang`, status-only
//! rows, and hrefs that need percent-encoding.

use proptest::prelude::*;
use pse_dav::multistatus::{Multistatus, PropStat, ResponseEntry};
use pse_dav::Property;
use pse_http::StatusCode;
use pse_xml::dom::Element;
use pse_xml::name::XML_NS;

fn namespace() -> impl Strategy<Value = Option<&'static str>> {
    prop_oneof![
        Just(None),
        Just(Some("DAV:")),
        Just(Some("http://emsl.pnl.gov/ecce")),
        Just(Some("urn:other")),
    ]
}

fn local_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.-]{0,8}"
}

/// Attributes: plain, in a namespace no element uses, and `xml:lang`.
fn attribute() -> impl Strategy<Value = (Option<&'static str>, &'static str, String)> {
    (
        prop_oneof![
            Just((None, "symbol")),
            Just((Some("urn:units"), "unit")),
            Just((Some(XML_NS), "lang")),
        ],
        "\\PC{0,6}",
    )
        .prop_map(|((ns, local), value)| (ns, local, value))
}

/// A value element: text, or text and child elements interleaved so no
/// two text nodes touch (the parser would read them as one).
fn value() -> impl Strategy<Value = Element> {
    let leaf = (namespace(), local_name(), "\\PC{0,12}").prop_map(|(ns, name, text)| {
        let mut e = Element::new(ns, &name);
        if !text.is_empty() {
            e.push_text(text);
        }
        e
    });
    leaf.prop_recursive(2, 16, 3, |inner| {
        (
            namespace(),
            local_name(),
            prop::collection::vec(("\\PC{0,4}", inner), 0..3),
            prop::collection::vec(attribute(), 0..3),
        )
            .prop_map(|(ns, name, children, attrs)| {
                let mut e = Element::new(ns, &name);
                for (text, child) in children {
                    if !text.is_empty() {
                        e.push_text(text);
                    }
                    e.push_elem(child);
                }
                for (ns, local, v) in attrs {
                    e.set_attr(ns, local, v);
                }
                e
            })
    })
}

fn status() -> impl Strategy<Value = StatusCode> {
    prop_oneof![
        Just(StatusCode::OK),
        Just(StatusCode::NOT_FOUND),
        Just(StatusCode::FORBIDDEN),
        Just(StatusCode::LOCKED),
        Just(StatusCode::CONFLICT),
    ]
}

/// Absolute paths whose segments need percent-encoding now and then.
fn href() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-zA-Z0-9 #%?&<>é_.~-]{1,8}", 0..4).prop_map(|segments| {
        let mut path = String::from("/");
        path.push_str(&segments.join("/"));
        path
    })
}

fn response() -> impl Strategy<Value = ResponseEntry> {
    let propstat =
        (prop::collection::vec(value(), 0..4), status()).prop_map(|(values, status)| PropStat {
            props: values.into_iter().map(Property::from_element).collect(),
            status,
        });
    (
        href(),
        prop::collection::vec(propstat, 0..3),
        status(),
        0u8..2,
    )
        .prop_map(|(href, propstats, status, status_only)| {
            if status_only == 1 {
                ResponseEntry {
                    href,
                    propstats: Vec::new(),
                    status: Some(status),
                }
            } else {
                ResponseEntry {
                    href,
                    propstats,
                    status: None,
                }
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_body_round_trips_through_both_parsers(
        responses in prop::collection::vec(response(), 0..5)
    ) {
        let ms = Multistatus { responses };
        let xml = ms.to_xml();
        let sax = Multistatus::parse_sax(&xml)
            .unwrap_or_else(|e| panic!("parse_sax failed on {xml}: {e}"));
        let dom = Multistatus::parse_dom(&xml)
            .unwrap_or_else(|e| panic!("parse_dom failed on {xml}: {e}"));
        prop_assert_eq!(&sax, &dom);
        prop_assert_eq!(&sax, &ms);
        // Each property's namespace is declared once, on the root.
        let root = &xml[..xml.find("<D:response").unwrap_or(xml.len())];
        for ns in ms.responses.iter().flat_map(|r| &r.propstats).flat_map(|ps| &ps.props)
            .map(|p| p.name.namespace.as_str())
            .filter(|ns| !ns.is_empty())
        {
            let decl = format!("=\"{ns}\"");
            prop_assert_eq!(root.matches(&decl).count(), 1, "{} in {}", ns, xml);
            prop_assert_eq!(xml.matches(&decl).count(), 1, "{} in {}", ns, xml);
        }
    }
}
