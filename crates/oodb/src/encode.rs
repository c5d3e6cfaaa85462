//! The proprietary binary object format.
//!
//! Exactly what the paper holds against OODBMSes: compact (native binary
//! integers and doubles, no markup) but opaque and version-locked. Every
//! record carries the schema version it was written under; the decoder
//! refuses mismatched versions.
//!
//! Record layout (little-endian):
//!
//! ```text
//! magic  u16 = 0x0DB0
//! schema u32          # writing schema version
//! class  u16          # class id (index into the schema)
//! oid    u64
//! nfield u16
//! field* : tag u8, payload
//! ```

use crate::error::{Error, Result};
use crate::value::{FieldValue, Oid};

const MAGIC: u16 = 0x0DB0;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &FieldValue) {
    out.push(v.type_tag());
    match v {
        FieldValue::Null => {}
        FieldValue::Int(i) => out.extend_from_slice(&i.to_le_bytes()),
        FieldValue::Real(r) => out.extend_from_slice(&r.to_le_bytes()),
        FieldValue::Text(s) => {
            put_u32(out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        FieldValue::Bytes(b) => {
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
        FieldValue::Ref(o) => put_u64(out, o.0),
        FieldValue::List(items) => {
            put_u32(out, items.len() as u32);
            for item in items {
                put_value(out, item);
            }
        }
    }
}

/// Encode one object record.
pub fn encode_object(
    schema_version: u32,
    class_id: u16,
    oid: Oid,
    fields: &[FieldValue],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + fields.len() * 16);
    put_u16(&mut out, MAGIC);
    put_u32(&mut out, schema_version);
    put_u16(&mut out, class_id);
    put_u64(&mut out, oid.0);
    put_u16(&mut out, fields.len() as u16);
    for f in fields {
        put_value(&mut out, f);
    }
    out
}

/// A streaming byte reader with bounds checks.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::Corrupt("record truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn get_value(c: &mut Cursor<'_>, depth: u8) -> Result<FieldValue> {
    if depth > 16 {
        return Err(Error::Corrupt("value nesting too deep".into()));
    }
    Ok(match c.u8()? {
        0 => FieldValue::Null,
        1 => FieldValue::Int(i64::from_le_bytes(c.take(8)?.try_into().unwrap())),
        2 => FieldValue::Real(f64::from_le_bytes(c.take(8)?.try_into().unwrap())),
        3 => {
            let len = c.u32()? as usize;
            FieldValue::Text(
                String::from_utf8(c.take(len)?.to_vec())
                    .map_err(|_| Error::Corrupt("non-UTF-8 text field".into()))?,
            )
        }
        4 => {
            let len = c.u32()? as usize;
            FieldValue::Bytes(c.take(len)?.to_vec())
        }
        5 => FieldValue::Ref(Oid(c.u64()?)),
        6 => {
            let n = c.u32()? as usize;
            if n > 16_000_000 {
                return Err(Error::Corrupt("absurd list length".into()));
            }
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(get_value(c, depth + 1)?);
            }
            FieldValue::List(items)
        }
        t => return Err(Error::Corrupt(format!("unknown value tag {t}"))),
    })
}

/// Append one value in the wire encoding (shared with the network
/// protocol module).
pub(crate) fn put_value_pub(out: &mut Vec<u8>, v: &FieldValue) {
    put_value(out, v);
}

/// Decode one value from the head of `buf`, returning it and the number
/// of bytes consumed (shared with the network protocol module).
pub(crate) fn get_value_pub(buf: &[u8]) -> Result<(FieldValue, usize)> {
    let mut c = Cursor { buf, pos: 0 };
    let v = get_value(&mut c, 0)?;
    Ok((v, c.pos))
}

/// A decoded record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Schema version the record was written under.
    pub schema_version: u32,
    /// Class id.
    pub class_id: u16,
    /// Object id.
    pub oid: Oid,
    /// Field values in declaration order.
    pub fields: Vec<FieldValue>,
}

/// Decode one record, enforcing the schema-version stamp when
/// `expect_version` is given.
pub fn decode_object(buf: &[u8], expect_version: Option<u32>) -> Result<Record> {
    let mut c = Cursor { buf, pos: 0 };
    if c.u16()? != MAGIC {
        return Err(Error::Corrupt("bad record magic".into()));
    }
    let schema_version = c.u32()?;
    if let Some(expected) = expect_version {
        if schema_version != expected {
            return Err(Error::SchemaVersionMismatch {
                stored: schema_version,
                current: expected,
            });
        }
    }
    let class_id = c.u16()?;
    let oid = Oid(c.u64()?);
    let nfields = c.u16()? as usize;
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        fields.push(get_value(&mut c, 0)?);
    }
    Ok(Record {
        schema_version,
        class_id,
        oid,
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fields() -> Vec<FieldValue> {
        vec![
            FieldValue::Text("UO2(H2O)15".into()),
            FieldValue::Int(50),
            FieldValue::Real(-1_287.553_621),
            FieldValue::Bytes(vec![1, 2, 3, 255]),
            FieldValue::Ref(Oid(77)),
            FieldValue::List(vec![
                FieldValue::Real(0.1),
                FieldValue::List(vec![FieldValue::Null]),
            ]),
            FieldValue::Null,
        ]
    }

    #[test]
    fn roundtrip_all_types() {
        let fields = sample_fields();
        let buf = encode_object(3, 7, Oid(42), &fields);
        let rec = decode_object(&buf, Some(3)).unwrap();
        assert_eq!(rec.schema_version, 3);
        assert_eq!(rec.class_id, 7);
        assert_eq!(rec.oid, Oid(42));
        assert_eq!(rec.fields, fields);
    }

    #[test]
    fn version_mismatch_refused() {
        let buf = encode_object(1, 0, Oid(1), &[]);
        assert!(matches!(
            decode_object(&buf, Some(2)),
            Err(Error::SchemaVersionMismatch {
                stored: 1,
                current: 2
            })
        ));
        // Without an expectation it decodes (migration path).
        assert!(decode_object(&buf, None).is_ok());
    }

    #[test]
    fn truncation_detected() {
        let buf = encode_object(1, 0, Oid(1), &sample_fields());
        for cut in [0, 1, 5, 10, buf.len() - 1] {
            assert!(
                decode_object(&buf[..cut], None).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = encode_object(1, 0, Oid(1), &[]);
        buf[0] = 0xFF;
        assert!(matches!(decode_object(&buf, None), Err(Error::Corrupt(_))));
    }

    #[test]
    fn binary_is_more_compact_than_text() {
        // The paper: "binary formatted objects such as doubles are
        // typically more compact than textual/XML representations".
        let doubles: Vec<FieldValue> = (0..100)
            .map(|i| FieldValue::Real(1.234567890123 * i as f64))
            .collect();
        let binary = encode_object(1, 0, Oid(1), &[FieldValue::List(doubles.clone())]);
        let text: String = doubles
            .iter()
            .map(|d| format!("<value>{:?}</value>", d.as_real().unwrap()))
            .collect();
        assert!(binary.len() < text.len());
    }
}
