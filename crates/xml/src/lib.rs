//! # pse-xml — XML 1.0 substrate for the DAV/PSE stack
//!
//! A from-scratch XML processor providing exactly what the WebDAV protocol
//! layer and the Ecce schema mapping need, in two flavours that mirror the
//! parsers discussed in the paper:
//!
//! * a **pull parser** ([`pull::Reader`]) — the analogue of a SAX-style
//!   parser: it yields a stream of [`pull::Event`]s that borrow names and
//!   text from the input, without building an in-memory document, so
//!   large multistatus responses can be consumed with O(depth) memory;
//! * a **DOM** ([`dom::Document`]) — the analogue of the Xerces DOM parser
//!   the paper's initial client used: the whole document is materialised as
//!   a tree and then walked.
//!
//! The paper's Table 1 analysis attributes most client-side cost to DOM
//! parsing and predicts "significant improvements … by converting to a
//! SAX-style parser"; the `parse_mode` ablation bench in `pse-bench`
//! quantifies that prediction using these two implementations.
//!
//! Additional modules: [`writer`] (serialisation with configurable
//! indentation, and [`writer::write_in_scope`] for subtrees of a document
//! the caller streams itself), [`name`] (qualified names and namespace scope resolution,
//! needed because every DAV property is namespace-qualified), and
//! [`escape`] (entity escaping/unescaping).
//!
//! ## Scope
//!
//! Supported: elements, attributes, character data, CDATA sections,
//! comments, processing instructions, the XML declaration, the five
//! predefined entities, and decimal/hexadecimal character references.
//! Unsupported (not needed by DAV): DTDs (a `<!DOCTYPE …>` is skipped),
//! custom entity definitions, and non-UTF-8 encodings.
//!
//! ## Example
//!
//! ```
//! use pse_xml::dom::Document;
//!
//! let doc = Document::parse(
//!     r#"<D:multistatus xmlns:D="DAV:"><D:response/></D:multistatus>"#,
//! ).unwrap();
//! assert_eq!(doc.root().name.local, "multistatus");
//! assert_eq!(doc.root().namespace(), Some("DAV:"));
//! assert_eq!(doc.root().children_elems().count(), 1);
//! ```

pub mod dom;
pub mod error;
pub mod escape;
pub mod name;
pub mod pull;
pub mod writer;

pub use dom::{Document, Element, Node};
pub use error::{Error, Result};
pub use name::{Name, QName};
pub use pull::{Event, Reader};
pub use writer::Writer;

/// The `DAV:` namespace URI, used pervasively by the protocol layer.
pub const DAV_NS: &str = "DAV:";
