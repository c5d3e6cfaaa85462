//! The 207 Multi-Status response body: marshalling and two parsers.
//!
//! PROPFIND/PROPPATCH/COPY/MOVE/DELETE report per-resource outcomes in a
//! `<D:multistatus>` document. The client can decode it two ways:
//!
//! * [`Multistatus::parse_dom`] — materialise the whole document first
//!   (the Xerces-DOM behaviour of the paper's initial client, which
//!   Table 1 shows dominating elapsed time for 50-object responses);
//! * [`Multistatus::parse_sax`] — stream events straight into the result
//!   structures (the SAX-style rewrite the paper predicts will bring
//!   "significant improvements").
//!
//! Both produce identical values; the `parse_mode` bench measures the gap.
//!
//! [`Multistatus::to_xml`] writes the body in one pass, with no document
//! tree: every namespace a property value is in is declared once, on
//! `<D:multistatus>`.

use crate::error::Result;
use crate::property::Property;
use pse_http::StatusCode;
use pse_xml::dom::{self, Document, Element, Node};
use pse_xml::name::{NsScope, XML_NS};
use pse_xml::pull::{Event, Reader};
use pse_xml::writer::{write_in_scope, DECLARATION};
use pse_xml::DAV_NS;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Properties grouped by the status they resolved to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropStat {
    /// The grouped properties.
    pub props: Vec<Property>,
    /// Status applying to all of them.
    pub status: StatusCode,
}

/// One `<D:response>` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseEntry {
    /// Decoded resource path.
    pub href: String,
    /// Property results (PROPFIND/PROPPATCH).
    pub propstats: Vec<PropStat>,
    /// Whole-resource status (DELETE/COPY failures).
    pub status: Option<StatusCode>,
}

impl ResponseEntry {
    /// All properties that resolved 200, flattened.
    pub fn ok_props(&self) -> impl Iterator<Item = &Property> {
        self.propstats
            .iter()
            .filter(|ps| ps.status.is_success())
            .flat_map(|ps| ps.props.iter())
    }

    /// Find a 200-status property by name.
    pub fn prop(&self, name: &crate::property::PropertyName) -> Option<&Property> {
        self.ok_props().find(|p| &p.name == name)
    }
}

/// A parsed (or assembled) multistatus body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Multistatus {
    /// Entries in document order.
    pub responses: Vec<ResponseEntry>,
}

impl Multistatus {
    /// Start an empty multistatus.
    pub fn new() -> Multistatus {
        Multistatus::default()
    }

    /// Find the entry for `href` (decoded path).
    pub fn response_for(&self, href: &str) -> Option<&ResponseEntry> {
        self.responses.iter().find(|r| r.href == href)
    }

    /// Append an entry carrying a whole-resource status.
    pub fn push_status(&mut self, href: &str, status: StatusCode) {
        self.responses.push(ResponseEntry {
            href: href.to_owned(),
            propstats: Vec::new(),
            status: Some(status),
        });
    }

    /// Append an entry with propstat groups.
    pub fn push_propstats(&mut self, href: &str, propstats: Vec<PropStat>) {
        self.responses.push(ResponseEntry {
            href: href.to_owned(),
            propstats,
            status: None,
        });
    }

    /// Serialise to the XML wire form.
    ///
    /// The root binds `D` to `DAV:` and `ns0`, `ns1`, … to the other
    /// namespaces property values are in, in order of first use (the
    /// XML namespace keeps its predeclared `xml` prefix). A
    /// plain-text value is written directly under those prefixes; any
    /// other value goes through the namespace-fixup writer with the
    /// root's bindings in scope, so it declares only what it adds.
    pub fn to_xml(&self) -> String {
        let mut namespaces: Vec<&str> = vec![DAV_NS];
        for p in self.props() {
            if let Some(uri) = p.value.namespace() {
                if uri != XML_NS && !namespaces.contains(&uri) {
                    namespaces.push(uri);
                }
            }
        }
        let prefixes: Vec<Cow<'_, str>> = (0..namespaces.len())
            .map(|i| match i {
                0 => Cow::Borrowed("D"),
                i => Cow::Owned(format!("ns{}", i - 1)),
            })
            .collect();
        let bindings: Vec<(&str, &str)> = prefixes
            .iter()
            .map(|p| p.as_ref())
            .zip(namespaces.iter().copied())
            .collect();

        let mut out = String::with_capacity(self.size_hint(&bindings));
        out.push_str(DECLARATION);
        out.push_str("<D:multistatus");
        for (prefix, uri) in &bindings {
            out.push_str(" xmlns:");
            out.push_str(prefix);
            out.push_str("=\"");
            out.push_str(&pse_xml::escape::escape_attr(uri));
            out.push('"');
        }
        out.push('>');
        for resp in &self.responses {
            out.push_str("<D:response><D:href>");
            pse_http::uri::push_percent_encoded_path(&mut out, &resp.href);
            out.push_str("</D:href>");
            for ps in &resp.propstats {
                out.push_str("<D:propstat><D:prop>");
                for p in &ps.props {
                    write_value(&mut out, &p.value, &bindings);
                }
                out.push_str("</D:prop>");
                push_status(&mut out, ps.status);
                out.push_str("</D:propstat>");
            }
            if let Some(status) = resp.status {
                push_status(&mut out, status);
            }
            out.push_str("</D:response>");
        }
        out.push_str("</D:multistatus>");
        out
    }

    fn props(&self) -> impl Iterator<Item = &Property> {
        self.responses
            .iter()
            .flat_map(|r| &r.propstats)
            .flat_map(|ps| &ps.props)
    }

    /// About the length of [`Multistatus::to_xml`]'s output: it counts
    /// the markup and the text of plain values, not escapes or the
    /// content of other values.
    fn size_hint(&self, bindings: &[(&str, &str)]) -> usize {
        const RESPONSE: usize = "<D:response><D:href></D:href></D:response>".len();
        const PROPSTAT: usize = "<D:propstat><D:prop></D:prop></D:propstat>".len();
        const STATUS: usize = "<D:status>HTTP/1.1 200 </D:status>".len() + 16;
        let root = DECLARATION.len()
            + "<D:multistatus></D:multistatus>".len()
            + bindings
                .iter()
                .map(|(p, uri)| p.len() + uri.len() + " xmlns:=\"\"".len())
                .sum::<usize>();
        let values: usize = self
            .props()
            .map(|p| {
                let v = &p.value;
                let text: usize = v
                    .children
                    .iter()
                    .map(|n| match n {
                        Node::Text(t) => t.len(),
                        _ => 0,
                    })
                    .sum();
                2 * v.name.local.len() + "<ns0:></ns0:>".len() + text
            })
            .sum();
        let responses: usize = self
            .responses
            .iter()
            .map(|r| {
                RESPONSE
                    + r.href.len()
                    + r.propstats.len() * (PROPSTAT + STATUS)
                    + r.status.map_or(0, |_| STATUS)
            })
            .sum();
        root + values + responses
    }

    /// Decode a `DAV:href` element's text into a local path. RFC 2518
    /// §12.3 allows servers to answer with either an absolute URI
    /// (`http://host:port/path`) or an absolute path (`/path`); mod_dav
    /// emits the latter but other servers emit the former, so the
    /// scheme and authority are stripped before percent-decoding. The
    /// path is *not* normalised: a trailing slash distinguishes a
    /// collection from a member and must survive.
    fn decode_href(raw: &str) -> String {
        let raw = raw.trim();
        let path = if raw.starts_with('/') {
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
        pse_http::uri::percent_decode(path)
    }

    /// Parse via the DOM: build the whole tree, then walk it.
    pub fn parse_dom(xml: &str) -> Result<Multistatus> {
        let doc = Document::parse(xml)?;
        let root = doc.root();
        let mut out = Multistatus::new();
        for resp in root.children_named(Some(DAV_NS), "response") {
            let href_raw = resp
                .child(Some(DAV_NS), "href")
                .map(|h| h.text())
                .unwrap_or_default();
            let href = Self::decode_href(&href_raw);
            let mut propstats = Vec::new();
            for ps in resp.children_named(Some(DAV_NS), "propstat") {
                let status = ps
                    .child(Some(DAV_NS), "status")
                    .and_then(|s| StatusCode::from_status_line(&s.text()))
                    .unwrap_or(StatusCode::OK);
                let mut props = Vec::new();
                if let Some(prop) = ps.child(Some(DAV_NS), "prop") {
                    for value in prop.children_elems() {
                        props.push(Property::from_element(value.clone()));
                    }
                }
                propstats.push(PropStat { props, status });
            }
            let status = resp
                .child(Some(DAV_NS), "status")
                .and_then(|s| StatusCode::from_status_line(&s.text()));
            out.responses.push(ResponseEntry {
                href,
                propstats,
                status,
            });
        }
        Ok(out)
    }

    /// Parse via the streaming reader: no document tree is built; only
    /// the property value elements (the leaves we must keep) are
    /// materialised. It reads what [`Multistatus::parse_dom`] reads: the
    /// first `href`, `status` and `prop` child of each element that has
    /// them, and the text directly inside `href` and `status`.
    pub fn parse_sax(xml: &str) -> Result<Multistatus> {
        /// What an open element is to the walk.
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Open {
            Root,
            Response,
            Propstat,
            Prop,
            Href,
            Status,
            Other,
        }
        let mut reader = Reader::new(xml);
        let mut ns = NsScope::new();
        let mut out = Multistatus::new();
        let mut open: Vec<Open> = Vec::new();
        // The response and propstat being read, and whether each has
        // seen its first href/status/prop yet.
        let mut resp = ResponseEntry {
            href: String::new(),
            propstats: Vec::new(),
            status: None,
        };
        let (mut resp_href, mut resp_status) = (false, false);
        let mut ps = PropStat {
            props: Vec::new(),
            status: StatusCode::OK,
        };
        let (mut ps_prop, mut ps_status) = (false, false);
        // Text directly inside the open href or status.
        let mut text: Cow<'_, str> = Cow::Borrowed("");

        loop {
            match reader.next_event()? {
                Event::StartElement { name, attributes } => {
                    let parent = open.last().copied();
                    if parent == Some(Open::Prop) {
                        let value = dom::read_element(&mut reader, &mut ns, name, attributes)?;
                        ps.props.push(Property::from_element(value));
                        continue;
                    }
                    ns.enter(&attributes);
                    for a in attributes.iter().filter(|a| a.declared_prefix().is_none()) {
                        ns.resolve(a.name, true)?;
                    }
                    let dav = ns.resolve(name, false)? == Some(DAV_NS);
                    let kind = match (parent, dav, name.local) {
                        (None, _, _) => Open::Root,
                        (Some(Open::Root), true, "response") => {
                            (resp_href, resp_status) = (false, false);
                            Open::Response
                        }
                        (Some(Open::Response), true, "href") if !resp_href => {
                            resp_href = true;
                            Open::Href
                        }
                        (Some(Open::Response), true, "status") if !resp_status => {
                            resp_status = true;
                            Open::Status
                        }
                        (Some(Open::Response), true, "propstat") => {
                            (ps_prop, ps_status) = (false, false);
                            Open::Propstat
                        }
                        (Some(Open::Propstat), true, "prop") if !ps_prop => {
                            ps_prop = true;
                            Open::Prop
                        }
                        (Some(Open::Propstat), true, "status") if !ps_status => {
                            ps_status = true;
                            Open::Status
                        }
                        _ => Open::Other,
                    };
                    if matches!(kind, Open::Href | Open::Status) {
                        text = Cow::Borrowed("");
                    }
                    open.push(kind);
                }
                Event::EndElement { .. } => {
                    ns.pop_scope();
                    let closed = open.pop();
                    match (closed, open.last()) {
                        (Some(Open::Href), _) => resp.href = Multistatus::decode_href(&text),
                        (Some(Open::Status), Some(Open::Response)) => {
                            resp.status = StatusCode::from_status_line(&text);
                        }
                        (Some(Open::Status), _) => {
                            ps.status =
                                StatusCode::from_status_line(&text).unwrap_or(StatusCode::OK);
                        }
                        (Some(Open::Propstat), _) => {
                            let done = PropStat {
                                props: std::mem::take(&mut ps.props),
                                status: std::mem::replace(&mut ps.status, StatusCode::OK),
                            };
                            resp.propstats.push(done);
                        }
                        (Some(Open::Response), _) => {
                            let done = ResponseEntry {
                                href: std::mem::take(&mut resp.href),
                                propstats: std::mem::take(&mut resp.propstats),
                                status: resp.status.take(),
                            };
                            out.responses.push(done);
                        }
                        _ => {}
                    }
                }
                Event::Text(t) => {
                    if matches!(open.last(), Some(Open::Href | Open::Status)) {
                        append(&mut text, t);
                    }
                }
                Event::CData(t) => {
                    if matches!(open.last(), Some(Open::Href | Open::Status)) {
                        append(&mut text, Cow::Borrowed(t));
                    }
                }
                Event::Comment(_) | Event::Pi { .. } => {}
                Event::Eof => break,
            }
        }
        Ok(out)
    }
}

fn append<'a>(text: &mut Cow<'a, str>, more: Cow<'a, str>) {
    if text.is_empty() {
        *text = more;
    } else {
        text.to_mut().push_str(&more);
    }
}

/// Write one property value: directly when it is plain text in a
/// namespace the root binds (or in none), else through the fixup writer.
fn write_value(out: &mut String, v: &Element, bindings: &[(&str, &str)]) {
    let prefix = match v.namespace() {
        None => Some(""),
        Some(uri) => bindings.iter().find(|(_, u)| *u == uri).map(|(p, _)| *p),
    };
    let plain = v.attributes.is_empty() && v.children.iter().all(|n| matches!(n, Node::Text(_)));
    let Some(prefix) = prefix.filter(|_| plain) else {
        write_in_scope(out, v, bindings);
        return;
    };
    let push_tag = |out: &mut String| {
        if !prefix.is_empty() {
            out.push_str(prefix);
            out.push(':');
        }
        out.push_str(&v.name.local);
    };
    out.push('<');
    push_tag(out);
    if v.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for n in &v.children {
        if let Node::Text(t) = n {
            out.push_str(&pse_xml::escape::escape_text(t));
        }
    }
    out.push_str("</");
    push_tag(out);
    out.push('>');
}

fn push_status(out: &mut String, status: StatusCode) {
    // Writing to a String cannot fail.
    let _ = write!(out, "<D:status>HTTP/1.1 {} ", status.code());
    out.push_str(&pse_xml::escape::escape_text(status.reason()));
    out.push_str("</D:status>");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{Property, PropertyName};

    fn sample() -> Multistatus {
        let mut ms = Multistatus::new();
        ms.push_propstats(
            "/calc/molecule",
            vec![
                PropStat {
                    props: vec![
                        Property::text(PropertyName::new("urn:ecce", "formula"), "UO2(H2O)15"),
                        Property::text(PropertyName::dav("getcontentlength"), "1234"),
                    ],
                    status: StatusCode::OK,
                },
                PropStat {
                    props: vec![Property::text(
                        PropertyName::new("urn:ecce", "missing"),
                        "",
                    )],
                    status: StatusCode::NOT_FOUND,
                },
            ],
        );
        ms.push_status("/calc/gone", StatusCode::NOT_FOUND);
        ms
    }

    #[test]
    fn marshal_unmarshal_dom() {
        let ms = sample();
        let xml = ms.to_xml();
        let back = Multistatus::parse_dom(&xml).unwrap();
        assert_eq!(back, ms);
    }

    #[test]
    fn marshal_unmarshal_sax() {
        let ms = sample();
        let xml = ms.to_xml();
        let back = Multistatus::parse_sax(&xml).unwrap();
        assert_eq!(back, ms);
    }

    #[test]
    fn dom_and_sax_agree_on_foreign_input() {
        // A multistatus produced by "another server" with different
        // prefixes and extra whitespace.
        let xml = r#"<?xml version="1.0"?>
        <multistatus xmlns="DAV:" xmlns:e="urn:ecce">
          <response>
            <href>/a%20dir/doc</href>
            <propstat>
              <prop>
                <e:basis-set><e:name>6-31G*</e:name></e:basis-set>
                <getcontenttype>text/xml</getcontenttype>
              </prop>
              <status>HTTP/1.1 200 OK</status>
            </propstat>
          </response>
        </multistatus>"#;
        let dom = Multistatus::parse_dom(xml).unwrap();
        let sax = Multistatus::parse_sax(xml).unwrap();
        assert_eq!(dom, sax);
        assert_eq!(dom.responses.len(), 1);
        assert_eq!(dom.responses[0].href, "/a dir/doc");
        let basis = dom.responses[0]
            .prop(&PropertyName::new("urn:ecce", "basis-set"))
            .unwrap();
        assert_eq!(basis.text_value(), "6-31G*");

        // RFC 4918 responses may carry more than one href: the resource's
        // own is the first direct child of `response`, and an href inside
        // `location` or `error` names some other resource. Repeated
        // `status` and `prop` children are read first-wins too.
        let xml = r#"<D:multistatus xmlns:D="DAV:" xmlns:e="urn:ecce">
          <D:response>
            <D:href>/moved/doc</D:href>
            <D:status>HTTP/1.1 301 Moved Permanently</D:status>
            <D:location><D:href>/new/home/doc</D:href></D:location>
          </D:response>
          <D:response>
            <D:href>/locked/a</D:href>
            <D:href>/locked/b</D:href>
            <D:status>HTTP/1.1 423 Locked</D:status>
            <D:status>HTTP/1.1 500 Internal Server Error</D:status>
            <D:error><D:lock-token-submitted><D:href>/locked</D:href></D:lock-token-submitted></D:error>
          </D:response>
          <D:response>
            <D:href>/p<!-- c --><![CDATA[/q]]></D:href>
            <D:propstat>
              <D:prop><e:formula>H2O<!-- kept --></e:formula></D:prop>
              <D:prop><e:ignored/></D:prop>
              <D:status>HTTP/1.1 200 OK</D:status>
              <D:status>HTTP/1.1 404 Not Found</D:status>
            </D:propstat>
          </D:response>
        </D:multistatus>"#;
        let dom = Multistatus::parse_dom(xml).unwrap();
        assert_eq!(Multistatus::parse_sax(xml).unwrap(), dom);
        let hrefs: Vec<_> = dom.responses.iter().map(|r| r.href.as_str()).collect();
        assert_eq!(hrefs, ["/moved/doc", "/locked/a", "/p/q"]);
        assert_eq!(dom.responses[1].status, Some(StatusCode::LOCKED));
        let ps = &dom.responses[2].propstats;
        assert_eq!(
            (ps.len(), ps[0].props.len(), ps[0].status),
            (1, 1, StatusCode::OK)
        );
        assert!(!ps[0].props[0].is_plain_text());
    }

    #[test]
    fn wire_form_declares_each_namespace_once_on_the_root() {
        let mut ms = Multistatus::new();
        ms.push_propstats(
            "/calc/a b",
            vec![
                PropStat {
                    props: vec![
                        Property::text(PropertyName::new("urn:ecce", "formula"), "H2O & <OH>"),
                        Property::text(PropertyName::dav("getcontentlength"), "12"),
                        Property::text(PropertyName::new("", "bare"), ""),
                        Property::text(PropertyName::new("urn:ecce", "state"), "done"),
                        Property::text(PropertyName::new(XML_NS, "lang"), "en"),
                    ],
                    status: StatusCode::OK,
                },
                PropStat {
                    props: vec![Property::text(PropertyName::new("urn:other", "x"), "")],
                    status: StatusCode::NOT_FOUND,
                },
            ],
        );
        ms.push_status("/calc/gone", StatusCode::FORBIDDEN);
        let xml = ms.to_xml();
        assert_eq!(
            xml,
            concat!(
                r#"<?xml version="1.0" encoding="utf-8"?>"#,
                r#"<D:multistatus xmlns:D="DAV:" xmlns:ns0="urn:ecce" xmlns:ns1="urn:other">"#,
                r#"<D:response><D:href>/calc/a%20b</D:href>"#,
                r#"<D:propstat><D:prop><ns0:formula>H2O &amp; &lt;OH&gt;</ns0:formula>"#,
                r#"<D:getcontentlength>12</D:getcontentlength><bare/><ns0:state>done</ns0:state>"#,
                r#"<xml:lang>en</xml:lang>"#,
                r#"</D:prop><D:status>HTTP/1.1 200 OK</D:status></D:propstat>"#,
                r#"<D:propstat><D:prop><ns1:x/></D:prop>"#,
                r#"<D:status>HTTP/1.1 404 Not Found</D:status></D:propstat></D:response>"#,
                r#"<D:response><D:href>/calc/gone</D:href>"#,
                r#"<D:status>HTTP/1.1 403 Forbidden</D:status></D:response>"#,
                r#"</D:multistatus>"#,
            )
        );
        assert_eq!(Multistatus::parse_dom(&xml).unwrap(), ms);
        assert_eq!(Multistatus::parse_sax(&xml).unwrap(), ms);
    }

    #[test]
    fn ok_props_filters_failures() {
        let ms = sample();
        let entry = ms.response_for("/calc/molecule").unwrap();
        let names: Vec<_> = entry.ok_props().map(|p| p.name.local.clone()).collect();
        assert_eq!(names, vec!["formula", "getcontentlength"]);
        assert!(entry
            .prop(&PropertyName::new("urn:ecce", "missing"))
            .is_none());
    }

    #[test]
    fn hrefs_are_percent_decoded_and_encoded() {
        let mut ms = Multistatus::new();
        ms.push_status("/with space/and#hash", StatusCode::OK);
        let xml = ms.to_xml();
        assert!(xml.contains("/with%20space/and%23hash"), "{xml}");
        let back = Multistatus::parse_sax(&xml).unwrap();
        assert_eq!(back.responses[0].href, "/with space/and#hash");
    }

    #[test]
    fn absolute_uri_hrefs_are_accepted() {
        // RFC 2518 §12.3: a server may identify resources with absolute
        // URIs rather than absolute paths. Both must parse to the same
        // local path, in both parse modes.
        let xml = r#"<?xml version="1.0"?>
            <D:multistatus xmlns:D="DAV:">
              <D:response>
                <D:href>http://dav.emsl.pnl.gov:8080/calc/dir/</D:href>
                <D:status>HTTP/1.1 200 OK</D:status>
              </D:response>
              <D:response>
                <D:href>https://host/with%20space</D:href>
                <D:status>HTTP/1.1 200 OK</D:status>
              </D:response>
              <D:response>
                <D:href>http://bare-authority</D:href>
                <D:status>HTTP/1.1 200 OK</D:status>
              </D:response>
            </D:multistatus>"#;
        for parse in [Multistatus::parse_dom, Multistatus::parse_sax] {
            let ms = parse(xml).unwrap();
            // The collection's trailing slash survives the strip.
            assert_eq!(ms.responses[0].href, "/calc/dir/");
            assert_eq!(ms.responses[1].href, "/with space");
            // An authority with no path means the root.
            assert_eq!(ms.responses[2].href, "/");
            assert!(ms.response_for("/calc/dir/").is_some());
        }
    }

    #[test]
    fn absolute_path_hrefs_still_parse_unchanged() {
        let xml = r#"<?xml version="1.0"?>
            <D:multistatus xmlns:D="DAV:">
              <D:response>
                <D:href>/plain/path</D:href>
                <D:status>HTTP/1.1 200 OK</D:status>
              </D:response>
            </D:multistatus>"#;
        for parse in [Multistatus::parse_dom, Multistatus::parse_sax] {
            assert_eq!(parse(xml).unwrap().responses[0].href, "/plain/path");
        }
    }

    #[test]
    fn empty_multistatus() {
        let ms = Multistatus::new();
        let xml = ms.to_xml();
        assert_eq!(Multistatus::parse_dom(&xml).unwrap(), ms);
        assert_eq!(Multistatus::parse_sax(&xml).unwrap(), ms);
    }

    #[test]
    fn complex_property_values_survive_sax() {
        let mut value = Element::new(Some("urn:ecce"), "geometry");
        let mut atom = Element::new(Some("urn:ecce"), "atom");
        atom.set_attr(None, "symbol", "O");
        atom.push_text("0 0 1.2");
        value.push_elem(atom);
        let mut ms = Multistatus::new();
        ms.push_propstats(
            "/m",
            vec![PropStat {
                props: vec![Property::from_element(value)],
                status: StatusCode::OK,
            }],
        );
        let xml = ms.to_xml();
        let back = Multistatus::parse_sax(&xml).unwrap();
        let geom = back.responses[0]
            .prop(&PropertyName::new("urn:ecce", "geometry"))
            .unwrap();
        let atom = geom.value.child(Some("urn:ecce"), "atom").unwrap();
        assert_eq!(atom.attr(None, "symbol"), Some("O"));
        assert_eq!(atom.text(), "0 0 1.2");
    }
}
