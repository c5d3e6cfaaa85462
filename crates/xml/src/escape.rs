//! Entity escaping and unescaping.
//!
//! XML reserves `<`, `&` (and `>` after `]]`) in character data and
//! additionally quotes inside attribute values. We escape conservatively —
//! always the five predefined entities — which keeps output acceptable to
//! any conforming parser.

use crate::error::{Error, Result};
use std::borrow::Cow;

/// Escape character data (element text content).
///
/// `<`, `>`, and `&` are replaced by entities. Returns a borrowed value
/// when no replacement is needed, avoiding allocation on the (common)
/// clean path.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_with(s, false)
}

/// Escape an attribute value for inclusion in double quotes.
///
/// In addition to the text escapes, `"` becomes `&quot;` and the
/// whitespace characters tab/CR/LF become character references so that
/// attribute-value normalisation cannot corrupt round-trips.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape_with(s, true)
}

fn escape_with(s: &str, attr: bool) -> Cow<'_, str> {
    let needs = |c: char| {
        matches!(c, '<' | '>' | '&') || (attr && matches!(c, '"' | '\'' | '\t' | '\n' | '\r'))
    };
    if !s.chars().any(needs) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' if attr => out.push_str("&quot;"),
            '\'' if attr => out.push_str("&apos;"),
            '\t' if attr => out.push_str("&#9;"),
            '\n' if attr => out.push_str("&#10;"),
            '\r' if attr => out.push_str("&#13;"),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Expand the predefined entities and numeric character references in `s`.
///
/// Errors on `&name;` where `name` is not one of the five predefined
/// entities, on malformed character references, on references to a
/// character outside XML 1.0's `Char` production (§2.2, WFC: Legal
/// Character — `&#0;` and the other C0 controls but tab, LF and CR, and
/// U+FFFE/U+FFFF), and on a bare `&` that never closes with `;`.
pub fn unescape(s: &str) -> Result<Cow<'_, str>> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let semi = after.find(';').ok_or(Error::UnknownEntity {
            entity: after.chars().take(16).collect(),
        })?;
        let entity = &after[..semi];
        out.push(expand_entity(entity)?);
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// Expand a single entity body (the part between `&` and `;`).
fn expand_entity(entity: &str) -> Result<char> {
    let unknown = || Error::UnknownEntity {
        entity: entity.to_string(),
    };
    match entity {
        "lt" => Ok('<'),
        "gt" => Ok('>'),
        "amp" => Ok('&'),
        "apos" => Ok('\''),
        "quot" => Ok('"'),
        _ => {
            let body = entity.strip_prefix('#').ok_or_else(unknown)?;
            let code = if let Some(hex) = body.strip_prefix('x').or(body.strip_prefix('X')) {
                u32::from_str_radix(hex, 16).map_err(|_| unknown())?
            } else {
                body.parse::<u32>().map_err(|_| unknown())?
            };
            char::from_u32(code)
                .filter(|&c| is_xml_char(c))
                .ok_or_else(unknown)
        }
    }
}

/// XML 1.0's `Char` production; `char` already excludes surrogates.
pub(crate) fn is_xml_char(c: char) -> bool {
    matches!(c, '\t' | '\n' | '\r' | '\u{20}'..='\u{FFFD}' | '\u{10000}'..)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_strings_borrow() {
        assert!(matches!(escape_text("hello world"), Cow::Borrowed(_)));
        assert!(matches!(escape_attr("hello"), Cow::Borrowed(_)));
        assert!(matches!(unescape("hello").unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn text_escapes() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        // Quotes are untouched in text content.
        assert_eq!(escape_text(r#"say "hi"'s"#), r#"say "hi"'s"#);
    }

    #[test]
    fn attr_escapes() {
        assert_eq!(escape_attr(r#"a"b"#), "a&quot;b");
        assert_eq!(escape_attr("a'b"), "a&apos;b");
        assert_eq!(escape_attr("a\tb\nc\rd"), "a&#9;b&#10;c&#13;d");
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(unescape("&lt;&gt;&amp;&apos;&quot;").unwrap(), "<>&'\"");
    }

    #[test]
    fn unescape_character_references() {
        assert_eq!(unescape("&#65;&#x42;&#X43;").unwrap(), "ABC");
        assert_eq!(unescape("snow &#x2603;").unwrap(), "snow \u{2603}");
        // The edges of XML's `Char` production expand.
        assert_eq!(unescape("&#9;&#10;&#13;&#32;").unwrap(), "\t\n\r ");
        assert_eq!(
            unescape("&#xFFFD;&#x10000;&#x10FFFF;").unwrap(),
            "\u{FFFD}\u{10000}\u{10FFFF}"
        );
    }

    #[test]
    fn unescape_rejects_unknown() {
        assert!(matches!(
            unescape("&nbsp;"),
            Err(Error::UnknownEntity { .. })
        ));
        assert!(unescape("&#xZZ;").is_err());
        // Characters outside XML's `Char` production.
        for r in ["&#0;", "&#1;", "&#8;", "&#x1F;", "&#xFFFE;", "&#xFFFF;"] {
            assert!(unescape(r).is_err(), "{r}");
        }
        assert!(unescape("&#xD800;").is_err()); // a surrogate
        assert!(unescape("&#1114112;").is_err()); // beyond char::MAX
        assert!(unescape("dangling &amp").is_err());
    }

    #[test]
    fn roundtrip_text() {
        let cases = [
            "",
            "plain",
            "<&>",
            "a<b>c&d",
            "\u{1F600} emoji & more <tags>",
        ];
        for c in cases {
            assert_eq!(unescape(&escape_text(c)).unwrap(), c, "case {c:?}");
        }
    }

    #[test]
    fn roundtrip_attr() {
        let cases = ["", "q\"q", "mix<'\">&\t\r\n"];
        for c in cases {
            assert_eq!(unescape(&escape_attr(c)).unwrap(), c, "case {c:?}");
        }
    }
}
