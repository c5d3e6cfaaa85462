//! The change-log record: one logical repository mutation, serialised
//! in a self-contained binary frame so a replica can replay it without
//! any schema knowledge beyond the [`Repository`] trait itself.
//!
//! Every record carries *absolute* state (a PUT carries the full body,
//! a property set carries the full stored value), never deltas — that
//! is what makes replay idempotent: applying a record twice leaves the
//! repository exactly where applying it once did.
//!
//! [`Repository`]: pse_dav::repo::Repository

use pse_dav::property::PropertyName;
use pse_dav::repo::{Change, PropPatchOp};

/// One property instruction inside a [`ChangeRecord::PatchProps`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropOp {
    /// Set (create or replace) a dead property; `storage` is the
    /// serialised value element exactly as the repository stores it.
    Set {
        /// The property name.
        name: PropertyName,
        /// Serialised value (`Property::to_storage`).
        storage: Vec<u8>,
    },
    /// Remove a dead property (absent is not an error).
    Remove {
        /// The property name.
        name: PropertyName,
    },
}

/// One logical mutation of the repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangeRecord {
    /// Create or replace a document.
    Put {
        /// Normalised resource path.
        path: String,
        /// MIME type recorded at PUT time.
        content_type: Option<String>,
        /// The full new body.
        data: Vec<u8>,
    },
    /// Create a collection.
    Mkcol {
        /// Normalised resource path.
        path: String,
    },
    /// Delete a resource (recursively for collections).
    Delete {
        /// Normalised resource path.
        path: String,
    },
    /// Recursive copy, including dead properties.
    Copy {
        /// Source path.
        src: String,
        /// Destination path.
        dst: String,
        /// Whether the original request allowed overwrite.
        overwrite: bool,
    },
    /// Rename/move, including dead properties.
    Rename {
        /// Source path.
        src: String,
        /// Destination path.
        dst: String,
        /// Whether the original request allowed overwrite.
        overwrite: bool,
    },
    /// A whole PROPPATCH batch applied atomically (single `set_prop` /
    /// `remove_prop` calls are recorded as one-instruction batches).
    PatchProps {
        /// Normalised resource path.
        path: String,
        /// Instructions in document order.
        ops: Vec<PropOp>,
    },
    /// A resource was placed under version control. Carries the body
    /// recorded as version 1 (not a repository path) so replay
    /// reproduces the primary's history byte-for-byte even when a
    /// concurrent PUT raced the operation on the primary.
    VersionControl {
        /// Normalised resource path.
        path: String,
        /// Body recorded as version 1.
        content: Vec<u8>,
    },
    /// The resource was checked out (auto-versioning suspended).
    Checkout {
        /// Normalised resource path.
        path: String,
    },
    /// The resource was checked in; `content` is the new version body.
    Checkin {
        /// Normalised resource path.
        path: String,
        /// Body the checkin recorded.
        content: Vec<u8>,
    },
}

/// A record paired with its monotonic sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// 1-based, strictly monotonic position in the primary's log.
    pub seq: u64,
    /// The mutation.
    pub record: ChangeRecord,
}

impl From<&Change<'_>> for ChangeRecord {
    /// The record of one committed repository mutation.
    fn from(change: &Change<'_>) -> ChangeRecord {
        match *change {
            Change::Put {
                path,
                data,
                content_type,
            } => ChangeRecord::Put {
                path: path.to_owned(),
                content_type: content_type.map(str::to_owned),
                data: data.to_vec(),
            },
            Change::Mkcol { path } => ChangeRecord::Mkcol {
                path: path.to_owned(),
            },
            Change::Delete { path } => ChangeRecord::Delete {
                path: path.to_owned(),
            },
            Change::Copy {
                src,
                dst,
                overwrite,
            } => ChangeRecord::Copy {
                src: src.to_owned(),
                dst: dst.to_owned(),
                overwrite,
            },
            Change::Rename {
                src,
                dst,
                overwrite,
            } => ChangeRecord::Rename {
                src: src.to_owned(),
                dst: dst.to_owned(),
                overwrite,
            },
            Change::PatchProps { path, ops } => ChangeRecord::PatchProps {
                path: path.to_owned(),
                ops: ops
                    .iter()
                    .map(|op| match op {
                        PropPatchOp::Set(p) => PropOp::Set {
                            name: p.name.clone(),
                            storage: p.to_storage(),
                        },
                        PropPatchOp::Remove(n) => PropOp::Remove { name: n.clone() },
                    })
                    .collect(),
            },
            Change::VersionControl { path, content } => ChangeRecord::VersionControl {
                path: path.to_owned(),
                content: content.to_vec(),
            },
            Change::Checkout { path } => ChangeRecord::Checkout {
                path: path.to_owned(),
            },
            Change::Checkin { path, content } => ChangeRecord::Checkin {
                path: path.to_owned(),
                content: content.to_vec(),
            },
        }
    }
}

// ---- serialisation ----
//
// tag byte, then length-prefixed (u32 LE) strings/byte-strings, bools
// as one byte, Option<String> as a presence byte + string.

const TAG_PUT: u8 = 1;
const TAG_MKCOL: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_COPY: u8 = 4;
const TAG_RENAME: u8 = 5;
const TAG_PATCH_PROPS: u8 = 6;
const TAG_VERSION_CONTROL: u8 = 7;
const TAG_CHECKOUT: u8 = 8;
const TAG_CHECKIN: u8 = 9;

const OP_SET: u8 = 1;
const OP_REMOVE: u8 = 2;

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.at).ok_or(DecodeError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len_end = self.at.checked_add(4).ok_or(DecodeError::Truncated)?;
        let raw = self.buf.get(self.at..len_end).ok_or(DecodeError::Truncated)?;
        let len = u32::from_le_bytes(raw.try_into().unwrap()) as usize;
        let end = len_end.checked_add(len).ok_or(DecodeError::Truncated)?;
        let b = self.buf.get(len_end..end).ok_or(DecodeError::Truncated)?;
        self.at = end;
        Ok(b)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended mid-field.
    Truncated,
    /// A string field was not UTF-8.
    BadUtf8,
    /// Unknown record or instruction tag.
    BadTag(u8),
    /// Bytes left over after a complete record.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "record payload truncated"),
            DecodeError::BadUtf8 => write!(f, "record string is not UTF-8"),
            DecodeError::BadTag(t) => write!(f, "unknown record tag {t}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after record"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_name(out: &mut Vec<u8>, name: &PropertyName) {
    put_str(out, &name.namespace);
    put_str(out, &name.local);
}

fn put_pair(out: &mut Vec<u8>, tag: u8, src: &str, dst: &str, overwrite: bool) {
    out.push(tag);
    put_str(out, src);
    put_str(out, dst);
    out.push(overwrite as u8);
}

fn put_path_bytes(out: &mut Vec<u8>, tag: u8, path: &str, bytes: &[u8]) {
    out.push(tag);
    put_str(out, path);
    put_bytes(out, bytes);
}

/// Append the payload of `change` to `out`: byte for byte what
/// `ChangeRecord::from(change).encode()` produces, without building the
/// owned record (a PUT's body is copied once, into the payload).
pub fn encode_change(out: &mut Vec<u8>, change: &Change<'_>) {
    match *change {
        Change::Put {
            path,
            data,
            content_type,
        } => encode_put(out, path, content_type, data),
        Change::Mkcol { path } => {
            out.push(TAG_MKCOL);
            put_str(out, path);
        }
        Change::Delete { path } => {
            out.push(TAG_DELETE);
            put_str(out, path);
        }
        Change::Copy {
            src,
            dst,
            overwrite,
        } => put_pair(out, TAG_COPY, src, dst, overwrite),
        Change::Rename {
            src,
            dst,
            overwrite,
        } => put_pair(out, TAG_RENAME, src, dst, overwrite),
        Change::PatchProps { path, ops } => {
            out.push(TAG_PATCH_PROPS);
            put_str(out, path);
            out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                match op {
                    PropPatchOp::Set(p) => {
                        out.push(OP_SET);
                        put_name(out, &p.name);
                        put_bytes(out, &p.to_storage());
                    }
                    PropPatchOp::Remove(name) => {
                        out.push(OP_REMOVE);
                        put_name(out, name);
                    }
                }
            }
        }
        Change::VersionControl { path, content } => {
            put_path_bytes(out, TAG_VERSION_CONTROL, path, content)
        }
        Change::Checkout { path } => {
            out.push(TAG_CHECKOUT);
            put_str(out, path);
        }
        Change::Checkin { path, content } => put_path_bytes(out, TAG_CHECKIN, path, content),
    }
}

fn encode_put(out: &mut Vec<u8>, path: &str, content_type: Option<&str>, data: &[u8]) {
    out.push(TAG_PUT);
    put_str(out, path);
    match content_type {
        Some(ct) => {
            out.push(1);
            put_str(out, ct);
        }
        None => out.push(0),
    }
    put_bytes(out, data);
}

impl ChangeRecord {
    /// Serialise to the log payload format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            ChangeRecord::Put {
                path,
                content_type,
                data,
            } => encode_put(&mut out, path, content_type.as_deref(), data),
            ChangeRecord::Mkcol { path } => {
                out.push(TAG_MKCOL);
                put_str(&mut out, path);
            }
            ChangeRecord::Delete { path } => {
                out.push(TAG_DELETE);
                put_str(&mut out, path);
            }
            ChangeRecord::Copy {
                src,
                dst,
                overwrite,
            } => put_pair(&mut out, TAG_COPY, src, dst, *overwrite),
            ChangeRecord::Rename {
                src,
                dst,
                overwrite,
            } => put_pair(&mut out, TAG_RENAME, src, dst, *overwrite),
            ChangeRecord::PatchProps { path, ops } => {
                out.push(TAG_PATCH_PROPS);
                put_str(&mut out, path);
                out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
                for op in ops {
                    match op {
                        PropOp::Set { name, storage } => {
                            out.push(OP_SET);
                            put_name(&mut out, name);
                            put_bytes(&mut out, storage);
                        }
                        PropOp::Remove { name } => {
                            out.push(OP_REMOVE);
                            put_name(&mut out, name);
                        }
                    }
                }
            }
            ChangeRecord::VersionControl { path, content } => {
                put_path_bytes(&mut out, TAG_VERSION_CONTROL, path, content)
            }
            ChangeRecord::Checkout { path } => {
                out.push(TAG_CHECKOUT);
                put_str(&mut out, path);
            }
            ChangeRecord::Checkin { path, content } => {
                put_path_bytes(&mut out, TAG_CHECKIN, path, content)
            }
        }
        out
    }

    /// Decode a payload produced by [`encode`](ChangeRecord::encode).
    pub fn decode(payload: &[u8]) -> Result<ChangeRecord, DecodeError> {
        let mut c = Cursor {
            buf: payload,
            at: 0,
        };
        let rec = match c.u8()? {
            TAG_PUT => {
                let path = c.string()?;
                let content_type = match c.u8()? {
                    0 => None,
                    _ => Some(c.string()?),
                };
                let data = c.bytes()?.to_vec();
                ChangeRecord::Put {
                    path,
                    content_type,
                    data,
                }
            }
            TAG_MKCOL => ChangeRecord::Mkcol { path: c.string()? },
            TAG_DELETE => ChangeRecord::Delete { path: c.string()? },
            TAG_COPY => ChangeRecord::Copy {
                src: c.string()?,
                dst: c.string()?,
                overwrite: c.u8()? != 0,
            },
            TAG_RENAME => ChangeRecord::Rename {
                src: c.string()?,
                dst: c.string()?,
                overwrite: c.u8()? != 0,
            },
            TAG_PATCH_PROPS => {
                let path = c.string()?;
                let count =
                    u32::from_le_bytes(c.bytes_fixed::<4>()?) as usize;
                fn prop_name(c: &mut Cursor<'_>) -> Result<PropertyName, DecodeError> {
                    let namespace = c.string()?;
                    let local = c.string()?;
                    Ok(PropertyName::new(&namespace, &local))
                }
                let mut ops = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    match c.u8()? {
                        OP_SET => {
                            let n = prop_name(&mut c)?;
                            let storage = c.bytes()?.to_vec();
                            ops.push(PropOp::Set { name: n, storage });
                        }
                        OP_REMOVE => ops.push(PropOp::Remove {
                            name: prop_name(&mut c)?,
                        }),
                        t => return Err(DecodeError::BadTag(t)),
                    }
                }
                ChangeRecord::PatchProps { path, ops }
            }
            TAG_VERSION_CONTROL => ChangeRecord::VersionControl {
                path: c.string()?,
                content: c.bytes()?.to_vec(),
            },
            TAG_CHECKOUT => ChangeRecord::Checkout { path: c.string()? },
            TAG_CHECKIN => ChangeRecord::Checkin {
                path: c.string()?,
                content: c.bytes()?.to_vec(),
            },
            t => return Err(DecodeError::BadTag(t)),
        };
        if !c.done() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(rec)
    }

    /// A short human-readable label (logging, traces).
    pub fn kind(&self) -> &'static str {
        match self {
            ChangeRecord::Put { .. } => "put",
            ChangeRecord::Mkcol { .. } => "mkcol",
            ChangeRecord::Delete { .. } => "delete",
            ChangeRecord::Copy { .. } => "copy",
            ChangeRecord::Rename { .. } => "rename",
            ChangeRecord::PatchProps { .. } => "patch_props",
            ChangeRecord::VersionControl { .. } => "version_control",
            ChangeRecord::Checkout { .. } => "checkout",
            ChangeRecord::Checkin { .. } => "checkin",
        }
    }
}

impl<'a> Cursor<'a> {
    fn bytes_fixed<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let end = self.at.checked_add(N).ok_or(DecodeError::Truncated)?;
        let raw = self.buf.get(self.at..end).ok_or(DecodeError::Truncated)?;
        self.at = end;
        Ok(raw.try_into().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ChangeRecord> {
        vec![
            ChangeRecord::Put {
                path: "/a/b".into(),
                content_type: Some("text/plain".into()),
                data: b"hello \xff\x00 world".to_vec(),
            },
            ChangeRecord::Put {
                path: "/x".into(),
                content_type: None,
                data: Vec::new(),
            },
            ChangeRecord::Mkcol { path: "/c".into() },
            ChangeRecord::Delete { path: "/c/d".into() },
            ChangeRecord::Copy {
                src: "/a".into(),
                dst: "/b".into(),
                overwrite: true,
            },
            ChangeRecord::Rename {
                src: "/m-a".into(),
                dst: "/m-b".into(),
                overwrite: false,
            },
            ChangeRecord::PatchProps {
                path: "/doc".into(),
                ops: vec![
                    PropOp::Set {
                        name: PropertyName::new("urn:x", "p0"),
                        storage: b"<p0 xmlns=\"urn:x\">v</p0>".to_vec(),
                    },
                    PropOp::Remove {
                        name: PropertyName::new("urn:x", "p1"),
                    },
                ],
            },
            ChangeRecord::VersionControl {
                path: "/v/doc".into(),
                content: b"version one \x00\xff".to_vec(),
            },
            ChangeRecord::Checkout {
                path: "/v/doc".into(),
            },
            ChangeRecord::Checkin {
                path: "/v/doc".into(),
                content: Vec::new(),
            },
        ]
    }

    #[test]
    fn roundtrip_every_kind() {
        for rec in samples() {
            let bytes = rec.encode();
            assert_eq!(ChangeRecord::decode(&bytes).unwrap(), rec, "{}", rec.kind());
        }
    }

    #[test]
    fn changes_encode_like_their_records() {
        use pse_dav::property::Property;
        let ops = [
            PropPatchOp::Set(Property::text(PropertyName::new("urn:x", "p0"), "v")),
            PropPatchOp::Remove(PropertyName::new("urn:x", "p1")),
        ];
        let changes = [
            Change::Put {
                path: "/a/b",
                data: b"hello \xff\x00",
                content_type: Some("text/plain"),
            },
            Change::Put {
                path: "/x",
                data: b"",
                content_type: None,
            },
            Change::Mkcol { path: "/c" },
            Change::Delete { path: "/c/d" },
            Change::Copy {
                src: "/a",
                dst: "/b",
                overwrite: true,
            },
            Change::Rename {
                src: "/m-a",
                dst: "/m-b",
                overwrite: false,
            },
            Change::PatchProps {
                path: "/doc",
                ops: &ops,
            },
            Change::VersionControl {
                path: "/v",
                content: b"one",
            },
            Change::Checkout { path: "/v" },
            Change::Checkin {
                path: "/v",
                content: b"two",
            },
        ];
        for change in &changes {
            let mut direct = Vec::new();
            encode_change(&mut direct, change);
            assert_eq!(direct, ChangeRecord::from(change).encode(), "{change:?}");
        }
    }

    #[test]
    fn truncation_detected_at_every_length() {
        for rec in samples() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                assert!(
                    ChangeRecord::decode(&bytes[..cut]).is_err(),
                    "{} decoded from {cut}/{} bytes",
                    rec.kind(),
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = ChangeRecord::Mkcol { path: "/c".into() }.encode();
        bytes.push(0);
        assert_eq!(
            ChangeRecord::decode(&bytes),
            Err(DecodeError::TrailingBytes)
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(ChangeRecord::decode(&[99]), Err(DecodeError::BadTag(99)));
        assert_eq!(ChangeRecord::decode(&[]), Err(DecodeError::Truncated));
    }
}
