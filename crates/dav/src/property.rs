//! DAV properties: namespaced names and XML-valued metadata.
//!
//! "Each piece of metadata is an XML encoded key-value pair in which the
//! value may be simple text or contain complex data in, for example, the
//! form of an XML object" (§3.1). A [`Property`] is therefore an XML
//! element whose name is the property name and whose children are the
//! value; [`PropertyName`] is the `(namespace, local)` pair that keys it.

use pse_xml::dom::{Document, Element, Node};
use pse_xml::writer::Writer;
use std::fmt;

/// The `DAV:` protocol namespace.
pub const DAV_NS: &str = "DAV:";

/// A property name: namespace URI plus local name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropertyName {
    /// Namespace URI (`DAV:`, `http://emsl.pnl.gov/ecce`, ...).
    pub namespace: String,
    /// Local name.
    pub local: String,
}

impl PropertyName {
    /// Build a name.
    pub fn new(namespace: &str, local: &str) -> PropertyName {
        PropertyName {
            namespace: namespace.to_owned(),
            local: local.to_owned(),
        }
    }

    /// A name in the `DAV:` namespace.
    pub fn dav(local: &str) -> PropertyName {
        PropertyName::new(DAV_NS, local)
    }

    /// The storage key used by DBM-backed property databases
    /// (namespace and local name joined by a NUL, which cannot occur in
    /// either part).
    pub fn storage_key(&self) -> Vec<u8> {
        let mut k = Vec::with_capacity(self.namespace.len() + self.local.len() + 1);
        k.extend_from_slice(self.namespace.as_bytes());
        k.push(0);
        k.extend_from_slice(self.local.as_bytes());
        k
    }

    /// Inverse of [`PropertyName::storage_key`].
    pub fn from_storage_key(key: &[u8]) -> Option<PropertyName> {
        let nul = key.iter().position(|&b| b == 0)?;
        Some(PropertyName {
            namespace: String::from_utf8(key[..nul].to_vec()).ok()?,
            local: String::from_utf8(key[nul + 1..].to_vec()).ok()?,
        })
    }

    /// Is this a protocol-defined ("live") property the repository
    /// computes rather than stores?
    pub fn is_live(&self) -> bool {
        self.namespace == DAV_NS
            && matches!(
                self.local.as_str(),
                "creationdate"
                    | "getlastmodified"
                    | "getcontentlength"
                    | "getcontenttype"
                    | "getetag"
                    | "resourcetype"
                    | "displayname"
                    | "lockdiscovery"
                    | "supportedlock"
            )
    }
}

impl fmt::Display for PropertyName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}{}", self.namespace, self.local)
    }
}

/// A property: name plus XML value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    /// The property name.
    pub name: PropertyName,
    /// The value element (element name == property name; children are
    /// the value).
    pub value: Element,
}

impl Property {
    /// A property with a plain-text value. A name in no namespace (an
    /// empty namespace URI) makes an element in no namespace, as parsing
    /// its stored or wire form does.
    pub fn text(name: PropertyName, value: &str) -> Property {
        let namespace = (!name.namespace.is_empty()).then_some(name.namespace.as_str());
        let mut e = Element::new(namespace, &name.local);
        if !value.is_empty() {
            e.push_text(value);
        }
        Property { name, value: e }
    }

    /// A property from an arbitrary value element (the element's own
    /// name/namespace become the property name).
    ///
    /// The element is normalised — prefixes cleared and `xmlns`
    /// bookkeeping attributes dropped — so that properties parsed from
    /// the wire compare equal to properties built programmatically
    /// regardless of which prefixes the producer chose.
    pub fn from_element(value: Element) -> Property {
        let value = normalize(value);
        let name = PropertyName {
            namespace: value.namespace().unwrap_or("").to_owned(),
            local: value.name.local.clone(),
        };
        Property { name, value }
    }

    /// The text content of the value (for simple properties).
    pub fn text_value(&self) -> String {
        self.value.deep_text()
    }

    /// Is the value plain text: an unprefixed element named like the
    /// property, with no attributes and only non-empty text children (no
    /// elements, comments or processing instructions)? Such a value
    /// serialises exactly as `Property::text(name, &self.text_value())`,
    /// so the SEARCH property index may answer for it without a read.
    pub fn is_plain_text(&self) -> bool {
        let v = &self.value;
        let namespace = (!self.name.namespace.is_empty()).then_some(self.name.namespace.as_str());
        v.name.prefix.is_none()
            && v.namespace() == namespace
            && v.name.local == self.name.local
            && v.attributes.is_empty()
            && v.children
                .iter()
                .all(|n| matches!(n, Node::Text(t) if !t.is_empty()))
    }

    /// Serialise the value element for storage.
    pub fn to_storage(&self) -> Vec<u8> {
        Writer::new()
            .declaration(false)
            .write_element(&self.value)
            .into_bytes()
    }

    /// Rehydrate a property from its stored form.
    pub fn from_storage(name: PropertyName, data: &[u8]) -> crate::Result<Property> {
        let text = std::str::from_utf8(data)
            .map_err(|_| crate::DavError::BadRequest("stored property is not UTF-8".into()))?;
        let doc = Document::parse(text)?;
        Ok(Property {
            name,
            value: normalize(doc.into_root()),
        })
    }
}

/// Strip prefixes and `xmlns` declaration attributes recursively; the
/// resolved namespaces carry all the information and the writer invents
/// fresh prefixes on output.
fn normalize(mut e: Element) -> Element {
    e.name.prefix = None;
    e.attributes
        .retain(|a| a.namespace.as_deref() != Some(pse_xml::dom::XMLNS_NS));
    for a in &mut e.attributes {
        a.name.prefix = None;
    }
    e.children = e
        .children
        .into_iter()
        .map(|n| match n {
            Node::Element(c) => Node::Element(normalize(c)),
            other => other,
        })
        .collect();
    e
}

/// What a PROPFIND asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropfindKind {
    /// `<allprop/>` — every dead property plus all live properties.
    AllProp,
    /// `<propname/>` — names only, values empty.
    PropName,
    /// `<prop>` with an explicit list — "an application can request only
    /// the values of metadata it understands".
    Named(Vec<PropertyName>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_key_roundtrip() {
        let n = PropertyName::new("http://emsl.pnl.gov/ecce", "formula");
        let k = n.storage_key();
        assert_eq!(PropertyName::from_storage_key(&k).unwrap(), n);
        // Empty namespace round-trips too.
        let n2 = PropertyName::new("", "bare");
        assert_eq!(
            PropertyName::from_storage_key(&n2.storage_key()).unwrap(),
            n2
        );
    }

    #[test]
    fn live_property_classification() {
        assert!(PropertyName::dav("getcontentlength").is_live());
        assert!(PropertyName::dav("resourcetype").is_live());
        assert!(!PropertyName::dav("custom").is_live());
        assert!(!PropertyName::new("urn:x", "getcontentlength").is_live());
    }

    #[test]
    fn text_property_roundtrip() {
        let name = PropertyName::new("urn:ecce", "charge");
        let p = Property::text(name.clone(), "+2");
        assert_eq!(p.text_value(), "+2");
        let stored = p.to_storage();
        let back = Property::from_storage(name, &stored).unwrap();
        assert_eq!(back.text_value(), "+2");
        assert_eq!(back, p);
    }

    #[test]
    fn complex_xml_value_roundtrip() {
        let mut value = Element::new(Some("urn:ecce"), "geometry");
        let mut atom = Element::new(Some("urn:ecce"), "atom");
        atom.set_attr(None, "symbol", "U");
        atom.push_text("0.0 0.0 0.0");
        value.push_elem(atom);
        let p = Property::from_element(value);
        assert_eq!(p.name, PropertyName::new("urn:ecce", "geometry"));
        let back = Property::from_storage(p.name.clone(), &p.to_storage()).unwrap();
        let atom = back.value.child(Some("urn:ecce"), "atom").unwrap();
        assert_eq!(atom.attr(None, "symbol"), Some("U"));
    }

    #[test]
    fn plain_text_values() {
        let name = PropertyName::new("urn:ecce", "formula");
        assert!(Property::text(name.clone(), "H2O").is_plain_text());
        assert!(Property::text(name.clone(), "").is_plain_text());
        let parsed = |xml: &str| Property::from_element(Document::parse(xml).unwrap().into_root());
        let plain = parsed(r#"<e:formula xmlns:e="urn:ecce">H2O</e:formula>"#);
        assert!(plain.is_plain_text());
        assert_eq!(plain, Property::text(name.clone(), "H2O"));
        for rich in [
            r#"<e:formula xmlns:e="urn:ecce"><e:b>H2O</e:b></e:formula>"#,
            r#"<e:formula xmlns:e="urn:ecce" xml:lang="en">H2O</e:formula>"#,
            r#"<e:formula xmlns:e="urn:ecce">H2O<!-- c --></e:formula>"#,
        ] {
            let p = parsed(rich);
            assert_eq!(p.text_value(), "H2O");
            assert!(!p.is_plain_text(), "{rich}");
        }
        // No namespace: the text constructor builds what parsing builds.
        let bare = PropertyName::new("", "bare");
        assert_eq!(parsed("<bare>v</bare>"), Property::text(bare.clone(), "v"));
        let stored = Property::text(bare.clone(), "v").to_storage();
        assert_eq!(String::from_utf8_lossy(&stored), "<bare>v</bare>");
        assert!(Property::from_storage(bare, &stored)
            .unwrap()
            .is_plain_text());
    }

    #[test]
    fn display_form() {
        assert_eq!(PropertyName::dav("href").to_string(), "{DAV:}href");
    }

    #[test]
    fn empty_text_value() {
        let p = Property::text(PropertyName::dav("x"), "");
        assert_eq!(p.text_value(), "");
        let back = Property::from_storage(p.name.clone(), &p.to_storage()).unwrap();
        assert_eq!(back.text_value(), "");
    }
}
