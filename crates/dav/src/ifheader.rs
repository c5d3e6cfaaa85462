//! The `If` request header (RFC 2518 §9.4), simplified to what lock
//! enforcement needs: extracting the submitted lock tokens and checking
//! `Not` / etag conditions loosely.
//!
//! Grammar handled: `( <token> ["etag"] Not <token> )` lists, optionally
//! preceded by a `<resource-tag>`. Tokens are what matter for class-2
//! compliance: a write to a locked resource must carry the lock token in
//! an If header (or, for UNLOCK, in `Lock-Token`).

/// A parsed condition list item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition {
    /// `<opaquelocktoken:...>` — the request claims this lock token.
    Token(String),
    /// `["etag-value"]` — the request claims this entity tag.
    ETag(String),
    /// `Not <...>` — negated token (rarely used; recorded for fidelity).
    NotToken(String),
}

/// The parsed `If` header: the set of claimed lock tokens plus the raw
/// condition structure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IfHeader {
    /// Every token claimed positively anywhere in the header.
    pub tokens: Vec<String>,
    /// All conditions in order of appearance.
    pub conditions: Vec<Condition>,
}

impl IfHeader {
    /// Parse an `If` header value. Absent or unparseable pieces
    /// degrade gracefully — unknown syntax is skipped, not fatal,
    /// matching the lenient behaviour of deployed servers.
    pub fn parse(value: Option<&str>) -> IfHeader {
        let mut out = IfHeader::default();
        let Some(value) = value else {
            return out;
        };
        let mut rest = value;
        let mut negate = false;
        while !rest.is_empty() {
            rest = rest.trim_start();
            if rest.is_empty() {
                break;
            }
            if let Some(r) = rest.strip_prefix("Not") {
                negate = true;
                rest = r;
            } else if let Some(r) = rest.strip_prefix('<') {
                // A token or resource tag.
                let Some(end) = r.find('>') else { break };
                let token = &r[..end];
                // Resource tags are http URLs; lock tokens are opaque
                // URIs. Only count non-http tokens as lock claims.
                if !token.starts_with("http://") && !token.starts_with("https://") {
                    if negate {
                        out.conditions.push(Condition::NotToken(token.to_owned()));
                    } else {
                        out.tokens.push(token.to_owned());
                        out.conditions.push(Condition::Token(token.to_owned()));
                    }
                }
                negate = false;
                rest = &r[end + 1..];
            } else if let Some(r) = rest.strip_prefix('[') {
                let Some(end) = r.find(']') else { break };
                let etag = r[..end].trim_matches('"').to_owned();
                out.conditions.push(Condition::ETag(etag));
                negate = false;
                rest = &r[end + 1..];
            } else {
                // '(' ')' or junk — skip one char.
                rest = &rest[1..];
            }
        }
        out
    }

    /// Extract the token from a `Lock-Token: <...>` header value.
    pub fn parse_lock_token(value: Option<&str>) -> Option<String> {
        let v = value?.trim();
        Some(v.strip_prefix('<')?.strip_suffix('>')?.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_token() {
        let h = IfHeader::parse(Some("(<opaquelocktoken:abc-123>)"));
        assert_eq!(h.tokens, vec!["opaquelocktoken:abc-123"]);
    }

    #[test]
    fn tagged_list_ignores_resource_urls() {
        let h = IfHeader::parse(Some(
            "<http://host/path> (<opaquelocktoken:t1>) (<opaquelocktoken:t2>)",
        ));
        assert_eq!(h.tokens, vec!["opaquelocktoken:t1", "opaquelocktoken:t2"]);
    }

    #[test]
    fn not_token_is_not_a_claim() {
        let h = IfHeader::parse(Some("(Not <opaquelocktoken:x>)"));
        assert!(h.tokens.is_empty());
        assert_eq!(
            h.conditions,
            vec![Condition::NotToken("opaquelocktoken:x".into())]
        );
    }

    #[test]
    fn etags_recorded() {
        let h = IfHeader::parse(Some("(<opaquelocktoken:t> [\"etag-1\"])"));
        assert_eq!(h.tokens.len(), 1);
        assert!(h.conditions.contains(&Condition::ETag("etag-1".into())));
    }

    #[test]
    fn absent_and_garbage_are_empty() {
        assert_eq!(IfHeader::parse(None), IfHeader::default());
        let h = IfHeader::parse(Some("((((garbage"));
        assert!(h.tokens.is_empty());
    }

    #[test]
    fn lock_token_header() {
        assert_eq!(
            IfHeader::parse_lock_token(Some("<opaquelocktoken:z>")).as_deref(),
            Some("opaquelocktoken:z")
        );
        assert_eq!(IfHeader::parse_lock_token(Some("bare")), None);
        assert_eq!(IfHeader::parse_lock_token(None), None);
    }
}
