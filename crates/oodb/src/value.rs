//! Object identifiers and field values.

use std::fmt;

/// An object identifier, unique within one database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oid:{}", self.0)
    }
}

/// A persistent field value. The binary encoding stores doubles and
/// integers natively — the compactness the paper contrasts with
/// "textual/XML representations of the same data".
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Missing / null.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Real(f64),
    /// UTF-8 string.
    Text(String),
    /// Raw bytes (calculation outputs, geometries...).
    Bytes(Vec<u8>),
    /// Reference to another object.
    Ref(Oid),
    /// Homogeneous-or-not list.
    List(Vec<FieldValue>),
}

impl FieldValue {
    /// Text content if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            FieldValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            FieldValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float content if this is a `Real` (or an `Int`, widened).
    pub fn as_real(&self) -> Option<f64> {
        match self {
            FieldValue::Real(r) => Some(*r),
            FieldValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Referenced OID if this is a `Ref`.
    pub fn as_ref_oid(&self) -> Option<Oid> {
        match self {
            FieldValue::Ref(o) => Some(*o),
            _ => None,
        }
    }

    /// Bytes if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            FieldValue::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// List elements if this is a `List`.
    pub fn as_list(&self) -> Option<&[FieldValue]> {
        match self {
            FieldValue::List(l) => Some(l),
            _ => None,
        }
    }

    /// The wire tag used by the binary encoding.
    pub fn type_tag(&self) -> u8 {
        match self {
            FieldValue::Null => 0,
            FieldValue::Int(_) => 1,
            FieldValue::Real(_) => 2,
            FieldValue::Text(_) => 3,
            FieldValue::Bytes(_) => 4,
            FieldValue::Ref(_) => 5,
            FieldValue::List(_) => 6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(FieldValue::Text("x".into()).as_text(), Some("x"));
        assert_eq!(FieldValue::Int(3).as_int(), Some(3));
        assert_eq!(FieldValue::Int(3).as_real(), Some(3.0));
        assert_eq!(FieldValue::Real(2.5).as_real(), Some(2.5));
        assert_eq!(FieldValue::Ref(Oid(9)).as_ref_oid(), Some(Oid(9)));
        assert_eq!(FieldValue::Bytes(vec![1]).as_bytes(), Some(&[1u8][..]));
        assert!(FieldValue::Null.as_text().is_none());
        assert_eq!(
            FieldValue::List(vec![FieldValue::Int(1)])
                .as_list()
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn tags_are_distinct() {
        let values = [
            FieldValue::Null,
            FieldValue::Int(0),
            FieldValue::Real(0.0),
            FieldValue::Text(String::new()),
            FieldValue::Bytes(Vec::new()),
            FieldValue::Ref(Oid(0)),
            FieldValue::List(Vec::new()),
        ];
        let tags: std::collections::HashSet<u8> = values.iter().map(FieldValue::type_tag).collect();
        assert_eq!(tags.len(), values.len());
    }

    #[test]
    fn oid_display() {
        assert_eq!(Oid(42).to_string(), "oid:42");
    }
}
