//! Streaming (SAX-style) pull parser.
//!
//! [`Reader`] walks the input once and yields [`Event`]s on demand. Unlike
//! the DOM it never materialises the document, so memory use is bounded by
//! element depth — this is the "SAX-style parser" the paper proposes for
//! removing the client-side bottleneck observed in Table 1.
//!
//! Events borrow names and text from the source: character data is
//! copied only where an entity or character reference has to be
//! expanded. The reader keeps only a byte offset; the 1-based (line,
//! column) of a syntax error is computed from it when the error is built.
//!
//! The reader enforces the well-formedness constraints that matter for
//! protocol work: balanced tags, unique attributes, a single root element,
//! and valid names. DTD internal subsets are skipped, not processed.

use crate::error::{Error, Result};
use crate::escape::unescape;
use crate::name::Name;
use std::borrow::Cow;

/// An attribute as it appeared on a start tag, with its value unescaped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name as written (`xmlns:D`, `D:foo`, `href`, ...).
    pub name: Name<'a>,
    /// Unescaped value.
    pub value: Cow<'a, str>,
}

impl<'a> Attribute<'a> {
    /// The prefix a namespace declaration binds: `Some("")` for
    /// `xmlns="…"`, `Some("p")` for `xmlns:p="…"`, `None` for any other
    /// attribute.
    pub fn declared_prefix(&self) -> Option<&'a str> {
        match (self.name.prefix, self.name.local) {
            (None, "xmlns") => Some(""),
            (Some("xmlns"), prefix) => Some(prefix),
            _ => None,
        }
    }
}

/// A parse event produced by [`Reader::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name attr="v" ...>` or the open half of `<name/>`.
    StartElement {
        /// Element name as written.
        name: Name<'a>,
        /// Attributes in document order.
        attributes: Vec<Attribute<'a>>,
    },
    /// `</name>`, also synthesised after a self-closing start tag.
    EndElement {
        /// Element name as written.
        name: Name<'a>,
    },
    /// Character data with entities expanded. Whitespace-only runs between
    /// markup are reported too; callers decide whether they care.
    Text(Cow<'a, str>),
    /// A `<![CDATA[...]]>` section, verbatim.
    CData(&'a str),
    /// A `<!--...-->` comment, verbatim.
    Comment(&'a str),
    /// A processing instruction; the XML declaration surfaces as a PI with
    /// target `xml`.
    Pi {
        /// The PI target (first token).
        target: &'a str,
        /// Everything after the target, trimmed.
        data: &'a str,
    },
    /// End of the document. Returned forever after.
    Eof,
}

/// A pull parser over a complete in-memory document.
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Open elements' names as written, for tag balancing.
    stack: Vec<&'a str>,
    /// End event pending after a self-closing tag.
    pending_end: Option<Name<'a>>,
    /// Whether a root element has been completely read.
    root_seen: bool,
    done: bool,
}

impl<'a> Reader<'a> {
    /// Create a reader over `src`. Parsing is lazy; errors surface from
    /// [`Reader::next_event`].
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            stack: Vec::new(),
            pending_end: None,
            root_seen: false,
            done: false,
        }
    }

    /// Current 1-based (line, column) of the read head. Columns count
    /// characters, not bytes.
    pub fn position(&self) -> (u32, u32) {
        self.line_col(self.pos)
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Pull the next event.
    pub fn next_event(&mut self) -> Result<Event<'a>> {
        if let Some(name) = self.pending_end.take() {
            self.stack.pop();
            self.root_seen |= self.stack.is_empty();
            return Ok(Event::EndElement { name });
        }
        if self.done {
            return Ok(Event::Eof);
        }
        match self.rest().as_bytes().first() {
            None => self.finish(),
            Some(b'<') => self.markup(),
            Some(_) => self.text(),
        }
    }

    fn finish(&mut self) -> Result<Event<'a>> {
        if !self.stack.is_empty() {
            return Err(Error::UnexpectedEof {
                context: "an element that was never closed",
            });
        }
        if !self.root_seen {
            return Err(Error::BadRootCount { count: 0 });
        }
        self.done = true;
        Ok(Event::Eof)
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn line_col(&self, pos: usize) -> (u32, u32) {
        let before = &self.src[..pos];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
        let col = before[line_start..].chars().count() + 1;
        (saturate(line), saturate(col))
    }

    fn line(&self, pos: usize) -> u32 {
        self.line_col(pos).0
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let (line, col) = self.position();
        Error::syntax(line, col, msg)
    }

    fn eat(&mut self, lit: &str, context: &'static str) -> Result<()> {
        if self.rest().starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else if self.rest().is_empty() {
            Err(Error::UnexpectedEof { context })
        } else {
            Err(self.err(format!("expected `{lit}` while reading {context}")))
        }
    }

    /// Skip whitespace; was there any?
    fn skip_ws(&mut self) -> bool {
        let n = self
            .rest()
            .bytes()
            .take_while(u8::is_ascii_whitespace)
            .count();
        self.pos += n;
        n > 0
    }

    /// Read up to (not including) `delim`; error with `context` at EOF.
    fn read_until(&mut self, delim: &str, context: &'static str) -> Result<&'a str> {
        let rest = self.rest();
        let i = rest.find(delim).ok_or(Error::UnexpectedEof { context })?;
        self.pos += i;
        Ok(&rest[..i])
    }

    /// Character data between markup.
    fn text(&mut self) -> Result<Event<'a>> {
        let rest = self.rest();
        let raw = &rest[..rest.find('<').unwrap_or(rest.len())];
        if raw.contains("]]>") {
            return Err(self.err("`]]>` is not allowed in character data"));
        }
        let text = unescape(raw)?;
        self.pos += raw.len();
        if self.stack.is_empty() && !text.trim().is_empty() {
            return Err(self.err("character data outside the root element"));
        }
        Ok(Event::Text(text))
    }

    /// Anything starting with `<`.
    fn markup(&mut self) -> Result<Event<'a>> {
        let r = self.rest();
        match r.as_bytes().get(1) {
            Some(b'/') => return self.end_tag(),
            Some(b'?') => return self.pi(),
            Some(b'!') => {}
            _ => return self.start_tag(),
        }
        if r.starts_with("<!--") {
            self.pos += 4;
            let body = self.read_until("-->", "a comment")?;
            if body.contains("--") {
                return Err(self.err("`--` is not allowed inside a comment"));
            }
            self.pos += 3;
            return Ok(Event::Comment(body));
        }
        if r.starts_with("<![CDATA[") {
            self.pos += 9;
            let body = self.read_until("]]>", "a CDATA section")?;
            self.pos += 3;
            if self.stack.is_empty() {
                return Err(self.err("CDATA outside the root element"));
            }
            return Ok(Event::CData(body));
        }
        if r.starts_with("<!DOCTYPE") || r.starts_with("<!doctype") {
            self.skip_doctype()?;
            // DOCTYPE carries no information we use; report it as a PI so
            // callers that count events still see something.
            return Ok(Event::Pi {
                target: "DOCTYPE",
                data: "",
            });
        }
        self.start_tag()
    }

    fn skip_doctype(&mut self) -> Result<()> {
        // Skip to the matching `>`, allowing one [...] internal subset.
        // The delimiters are ASCII, so no byte of a multi-byte character
        // can match them.
        let mut bracket = 0i32;
        for (i, b) in self.rest().bytes().enumerate().skip(2) {
            match b {
                b'[' => bracket += 1,
                b']' => bracket -= 1,
                b'>' if bracket <= 0 => {
                    self.pos += i + 1;
                    return Ok(());
                }
                _ => {}
            }
        }
        Err(Error::UnexpectedEof {
            context: "a DOCTYPE declaration",
        })
    }

    fn pi(&mut self) -> Result<Event<'a>> {
        self.pos += 2; // `<?`
        let body = self.read_until("?>", "a processing instruction")?;
        self.pos += 2;
        let (target, data) = match body.split_once(|c: char| c.is_ascii_whitespace()) {
            Some((t, d)) => (t, d.trim()),
            None => (body, ""),
        };
        if target.is_empty() {
            return Err(self.err("processing instruction with empty target"));
        }
        Ok(Event::Pi { target, data })
    }

    fn end_tag(&mut self) -> Result<Event<'a>> {
        self.pos += 2; // `</`
        let (raw, name) = self.name_token()?;
        self.skip_ws();
        self.eat(">", "an end tag")?;
        match self.stack.pop() {
            Some(open) if open == raw => {
                self.root_seen |= self.stack.is_empty();
                Ok(Event::EndElement { name })
            }
            open => Err(Error::MismatchedTag {
                expected: open.unwrap_or("(nothing open)").to_owned(),
                found: raw.to_owned(),
                line: self.line(self.pos),
            }),
        }
    }

    fn start_tag(&mut self) -> Result<Event<'a>> {
        let start = self.pos;
        self.pos += 1; // `<`
        let (raw, name) = self.name_token()?;
        if self.stack.is_empty() && self.root_seen {
            return Err(Error::BadRootCount { count: 2 });
        }
        let mut attributes: Vec<Attribute<'a>> = Vec::new();
        loop {
            let had_ws = self.skip_ws();
            let r = self.rest();
            if r.starts_with("/>") {
                self.pos += 2;
                self.stack.push(raw);
                self.pending_end = Some(name);
                return Ok(Event::StartElement { name, attributes });
            }
            if r.starts_with('>') {
                self.pos += 1;
                self.stack.push(raw);
                return Ok(Event::StartElement { name, attributes });
            }
            if r.is_empty() {
                return Err(Error::UnexpectedEof {
                    context: "a start tag",
                });
            }
            if !had_ws {
                return Err(self.err("expected whitespace before attribute"));
            }
            let (raw, attr) = self.attribute()?;
            if attributes.iter().any(|a| a.name == attr.name) {
                return Err(Error::DuplicateAttribute {
                    name: raw.to_owned(),
                    line: self.line(start),
                });
            }
            attributes.push(attr);
        }
    }

    /// One `name="value"`; also returns the name as written.
    fn attribute(&mut self) -> Result<(&'a str, Attribute<'a>)> {
        let (raw, name) = self.name_token()?;
        self.skip_ws();
        self.eat("=", "an attribute")?;
        self.skip_ws();
        let quote = match self.rest().as_bytes().first() {
            Some(b'"') => "\"",
            Some(b'\'') => "'",
            Some(_) => return Err(self.err("attribute value must be quoted")),
            None => {
                return Err(Error::UnexpectedEof {
                    context: "an attribute value",
                })
            }
        };
        self.pos += 1;
        let value = self.read_until(quote, "an attribute value")?;
        if value.contains('<') {
            return Err(self.err("`<` is not allowed in attribute values"));
        }
        let value = unescape(value)?;
        self.pos += 1; // closing quote
        Ok((raw, Attribute { name, value }))
    }

    /// Read a (possibly prefixed) name token at the head; returns it as
    /// written and split.
    fn name_token(&mut self) -> Result<(&'a str, Name<'a>)> {
        let r = self.rest();
        let end = r
            .bytes()
            .position(|b| b.is_ascii_whitespace() || matches!(b, b'>' | b'/' | b'=' | b'<'))
            .unwrap_or(r.len());
        let raw = &r[..end];
        if raw.is_empty() {
            return Err(self.err("expected a name"));
        }
        let name = Name::parse(raw)?;
        self.pos += end;
        Ok((raw, name))
    }
}

fn saturate(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Iterator adapter: yields events until `Eof` or the first error.
impl<'a> Iterator for Reader<'a> {
    type Item = Result<Event<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_event() {
            Ok(Event::Eof) => None,
            other => Some(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(src: &str) -> Result<Vec<Event<'_>>> {
        Reader::new(src).collect()
    }

    #[test]
    fn minimal_document() {
        let ev = events("<a/>").unwrap();
        assert_eq!(
            ev,
            vec![
                Event::StartElement {
                    name: Name::parse("a").unwrap(),
                    attributes: vec![]
                },
                Event::EndElement {
                    name: Name::parse("a").unwrap()
                },
            ]
        );
    }

    #[test]
    fn nested_with_text() {
        let ev = events("<a><b>hi &amp; bye</b></a>").unwrap();
        assert_eq!(ev.len(), 5);
        assert_eq!(ev[2], Event::Text("hi & bye".into()));
    }

    #[test]
    fn text_borrows_unless_an_entity_is_expanded() {
        let ev = events("<a>plain<b>a &lt; b</b></a>").unwrap();
        assert!(matches!(&ev[1], Event::Text(Cow::Borrowed("plain"))));
        assert!(matches!(&ev[3], Event::Text(Cow::Owned(t)) if t == "a < b"));
    }

    #[test]
    fn attributes_parse_and_unescape() {
        let ev = events(r#"<a x="1" y='two &lt;3' xmlns:D="DAV:"/>"#).unwrap();
        let Event::StartElement { attributes, .. } = &ev[0] else {
            panic!("expected start");
        };
        assert_eq!(attributes.len(), 3);
        assert_eq!(attributes[1].value, "two <3");
        assert_eq!(attributes[2].name, Name::parse("xmlns:D").unwrap());
        assert_eq!(attributes[2].declared_prefix(), Some("D"));
        assert_eq!(attributes[0].declared_prefix(), None);
    }

    #[test]
    fn declaration_and_pi() {
        let ev = events("<?xml version=\"1.0\"?><a><?target some data?></a>").unwrap();
        assert_eq!(
            ev[0],
            Event::Pi {
                target: "xml",
                data: "version=\"1.0\""
            }
        );
        assert_eq!(
            ev[2],
            Event::Pi {
                target: "target",
                data: "some data"
            }
        );
    }

    #[test]
    fn comments_and_cdata() {
        let ev = events("<a><!-- note --><![CDATA[raw <stuff> &amp;]]></a>").unwrap();
        assert_eq!(ev[1], Event::Comment(" note "));
        assert_eq!(ev[2], Event::CData("raw <stuff> &amp;"));
    }

    #[test]
    fn doctype_is_skipped() {
        let ev = events("<!DOCTYPE html [ <!ENTITY x \"y\"> ]><a/>").unwrap();
        assert!(matches!(
            &ev[0],
            Event::Pi {
                target: "DOCTYPE",
                ..
            }
        ));
        assert_eq!(ev.len(), 3);
    }

    #[test]
    fn mismatched_tags_error() {
        assert!(matches!(
            events("<a><b></a></b>"),
            Err(Error::MismatchedTag { .. })
        ));
        assert!(matches!(events("</a>"), Err(Error::MismatchedTag { .. })));
    }

    #[test]
    fn unclosed_constructs_error() {
        assert!(matches!(events("<a>"), Err(Error::UnexpectedEof { .. })));
        assert!(matches!(events("<a"), Err(Error::UnexpectedEof { .. })));
        assert!(matches!(
            events("<a><!-- x</a>"),
            Err(Error::UnexpectedEof { .. })
        ));
        assert!(matches!(
            events("<a x=\"1></a>"),
            Err(Error::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(matches!(
            events(r#"<a x="1" x="2"/>"#),
            Err(Error::DuplicateAttribute { .. })
        ));
    }

    #[test]
    fn two_roots_rejected() {
        assert!(matches!(
            events("<a/><b/>"),
            Err(Error::BadRootCount { count: 2 })
        ));
    }

    #[test]
    fn empty_document_rejected() {
        assert!(matches!(events(""), Err(Error::BadRootCount { count: 0 })));
        assert!(matches!(
            events("<?xml version=\"1.0\"?> "),
            Err(Error::BadRootCount { count: 0 })
        ));
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(events("<a/>junk").is_err());
        assert!(events("junk<a/>").is_err());
        // Whitespace around the root is fine.
        assert!(events("  <a/>\n").is_ok());
    }

    #[test]
    fn cdata_end_in_text_rejected() {
        assert!(events("<a>]]></a>").is_err());
    }

    #[test]
    fn lt_in_attribute_rejected() {
        assert!(events("<a x=\"<\"/>").is_err());
    }

    #[test]
    fn position_tracking() {
        let mut r = Reader::new("<a>\n  <b/>\n</a>");
        r.next_event().unwrap(); // <a>
        r.next_event().unwrap(); // text
        assert_eq!(r.position().0, 2);
        assert_eq!(r.depth(), 1);
    }

    #[test]
    fn syntax_errors_report_line_and_column() {
        // Expected positions are those the reader reported when it kept
        // line and column per byte; columns count characters.
        let cases: [(&str, Error); 7] = [
            (
                "<a>\n  <b x=1/>\n</a>",
                Error::syntax(2, 8, "attribute value must be quoted"),
            ),
            (
                "<a>\n  <b>\n    tex]]>t\n  </b>\n</a>",
                Error::syntax(2, 6, "`]]>` is not allowed in character data"),
            ),
            (
                "<a>\n\u{e9}\u{e9}<b x=\"1\"y=\"2\"/>\n</a>",
                Error::syntax(2, 11, "expected whitespace before attribute"),
            ),
            (
                "<a>\n <b>\n</a>",
                Error::MismatchedTag {
                    expected: "b".into(),
                    found: "a".into(),
                    line: 3,
                },
            ),
            (
                "<r>\n  <!-- a -- b -->\n</r>",
                Error::syntax(2, 15, "`--` is not allowed inside a comment"),
            ),
            (
                "<r>\n</r>\n  junk",
                Error::syntax(3, 7, "character data outside the root element"),
            ),
            (
                "<r>\n  <b x='1' x='2'/></r>",
                Error::DuplicateAttribute {
                    name: "x".into(),
                    line: 2,
                },
            ),
        ];
        for (src, want) in cases {
            assert_eq!(events(src).unwrap_err(), want, "{src:?}");
        }
    }

    #[test]
    fn unquoted_attribute_rejected() {
        assert!(events("<a x=1/>").is_err());
    }

    #[test]
    fn self_closing_emits_both_events_at_depth() {
        let mut r = Reader::new("<a><b/></a>");
        assert!(matches!(
            r.next_event().unwrap(),
            Event::StartElement { .. }
        ));
        assert!(matches!(
            r.next_event().unwrap(),
            Event::StartElement { .. }
        ));
        assert_eq!(r.depth(), 2);
        assert!(matches!(r.next_event().unwrap(), Event::EndElement { .. }));
        assert_eq!(r.depth(), 1);
    }

    #[test]
    fn comment_with_double_dash_rejected() {
        assert!(events("<a><!-- a -- b --></a>").is_err());
    }
}
