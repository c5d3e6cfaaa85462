//! DASL-style `SEARCH` (draft-dasl-protocol-00, simplified).
//!
//! The paper lists "DAV Searching and Locating (DASL)" among the
//! extensions that "promise additional PSE-relevant capabilities" — this
//! module implements the `basicsearch` grammar subset a PSE query
//! interface needs: a scope, a `where` tree over properties
//! (`eq`/`contains`/`gt`/`lt`/`isdefined` composed with
//! `and`/`or`/`not`), and a `select` list returned per matching resource.
//! The Ecce metadata query layer ("search the data store for DAV
//! documents matching the formula metadata") runs on this.

use crate::error::{DavError, Result};
use crate::multistatus::{Multistatus, PropStat};
use crate::property::{Property, PropertyName, DAV_NS};
use crate::propindex::Probe;
use crate::repo::Repository;
use pse_http::{Request, Response, StatusCode};
use pse_obs::Registry;
use pse_xml::dom::{Document, Element};
use std::collections::BTreeSet;

/// Response header carrying the opaque continuation token when a
/// `limit`ed SEARCH stopped before exhausting its matches.
pub const CURSOR_HEADER: &str = "X-Search-Cursor";

/// A parsed `where` condition tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Property text equals the literal (case-sensitive).
    Eq(PropertyName, String),
    /// Property text contains the literal substring.
    Contains(PropertyName, String),
    /// Property parses as f64 and is greater than the literal.
    Gt(PropertyName, f64),
    /// Property parses as f64 and is less than the literal.
    Lt(PropertyName, f64),
    /// The property exists on the resource.
    IsDefined(PropertyName),
    /// All sub-conditions hold.
    And(Vec<Condition>),
    /// Any sub-condition holds.
    Or(Vec<Condition>),
    /// The sub-condition does not hold.
    Not(Box<Condition>),
    /// Matches everything (empty where clause).
    True,
}

impl Condition {
    /// Evaluate against a resource's properties (live + dead).
    pub fn eval(&self, props: &[Property]) -> bool {
        let text_of = |name: &PropertyName| -> Option<String> {
            props
                .iter()
                .find(|p| &p.name == name)
                .map(|p| p.text_value())
        };
        match self {
            Condition::Eq(n, v) => text_of(n).is_some_and(|t| &t == v),
            Condition::Contains(n, v) => text_of(n).is_some_and(|t| t.contains(v.as_str())),
            Condition::Gt(n, v) => text_of(n)
                .and_then(|t| t.trim().parse::<f64>().ok())
                .is_some_and(|x| x > *v),
            Condition::Lt(n, v) => text_of(n)
                .and_then(|t| t.trim().parse::<f64>().ok())
                .is_some_and(|x| x < *v),
            Condition::IsDefined(n) => text_of(n).is_some(),
            Condition::And(cs) => cs.iter().all(|c| c.eval(props)),
            Condition::Or(cs) => cs.iter().any(|c| c.eval(props)),
            Condition::Not(c) => !c.eval(props),
            Condition::True => true,
        }
    }

    /// Append every property name the condition reads to `out`, once.
    fn collect_names(&self, out: &mut Vec<PropertyName>) {
        match self {
            Condition::Eq(n, _)
            | Condition::Contains(n, _)
            | Condition::Gt(n, _)
            | Condition::Lt(n, _)
            | Condition::IsDefined(n) => {
                if !out.contains(n) {
                    out.push(n.clone());
                }
            }
            Condition::And(cs) | Condition::Or(cs) => {
                cs.iter().for_each(|c| c.collect_names(out));
            }
            Condition::Not(c) => c.collect_names(out),
            Condition::True => {}
        }
    }
}

/// A parsed basicsearch query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Paths to search from.
    pub scope: String,
    /// Depth limit (`None` = infinity).
    pub depth: Option<u32>,
    /// Properties to return for matches (empty = allprop).
    pub select: Vec<PropertyName>,
    /// Filter tree.
    pub condition: Condition,
    /// Stop after this many matches (`DAV:limit`/`DAV:nresults`).
    pub limit: Option<usize>,
    /// Opaque continuation token from a previous limited search.
    pub cursor: Option<String>,
}

impl Query {
    /// An unlimited allprop query over `scope` with `condition`.
    pub fn new(scope: impl Into<String>, condition: Condition) -> Query {
        Query {
            scope: scope.into(),
            depth: None,
            select: Vec::new(),
            condition,
            limit: None,
            cursor: None,
        }
    }
}

fn prop_name_of(elem: &Element) -> Result<PropertyName> {
    let prop = elem
        .child(Some(DAV_NS), "prop")
        .ok_or_else(|| DavError::BadRequest("operator without DAV:prop".into()))?;
    let inner = prop
        .children_elems()
        .next()
        .ok_or_else(|| DavError::BadRequest("empty DAV:prop in operator".into()))?;
    Ok(PropertyName::new(
        inner.namespace().unwrap_or(""),
        &inner.name.local,
    ))
}

fn literal_of(elem: &Element) -> Result<String> {
    Ok(elem
        .child(Some(DAV_NS), "literal")
        .ok_or_else(|| DavError::BadRequest("operator without DAV:literal".into()))?
        .text())
}

fn parse_condition(elem: &Element) -> Result<Condition> {
    let local = elem.name.local.as_str();
    if elem.namespace() != Some(DAV_NS) {
        return Err(DavError::BadRequest(format!(
            "unknown search operator namespace on <{local}>"
        )));
    }
    Ok(match local {
        "eq" => Condition::Eq(prop_name_of(elem)?, literal_of(elem)?),
        "like" | "contains" => Condition::Contains(prop_name_of(elem)?, literal_of(elem)?),
        "gt" => Condition::Gt(
            prop_name_of(elem)?,
            literal_of(elem)?
                .trim()
                .parse()
                .map_err(|_| DavError::BadRequest("gt literal is not numeric".into()))?,
        ),
        "lt" => Condition::Lt(
            prop_name_of(elem)?,
            literal_of(elem)?
                .trim()
                .parse()
                .map_err(|_| DavError::BadRequest("lt literal is not numeric".into()))?,
        ),
        "isdefined" => Condition::IsDefined(prop_name_of(elem)?),
        "and" => Condition::And(
            elem.children_elems()
                .map(parse_condition)
                .collect::<Result<_>>()?,
        ),
        "or" => Condition::Or(
            elem.children_elems()
                .map(parse_condition)
                .collect::<Result<_>>()?,
        ),
        "not" => Condition::Not(Box::new(parse_condition(
            elem.children_elems()
                .next()
                .ok_or_else(|| DavError::BadRequest("empty not".into()))?,
        )?)),
        other => {
            return Err(DavError::BadRequest(format!(
                "unsupported search operator <{other}>"
            )))
        }
    })
}

/// Parse a `searchrequest` body.
pub fn parse_query(body: &[u8]) -> Result<Query> {
    let text =
        std::str::from_utf8(body).map_err(|_| DavError::BadRequest("body is not UTF-8".into()))?;
    let doc = Document::parse(text)?;
    let root = doc.root();
    if !root.is(Some(DAV_NS), "searchrequest") {
        return Err(DavError::BadRequest("expected DAV:searchrequest".into()));
    }
    let basic = root
        .child(Some(DAV_NS), "basicsearch")
        .ok_or_else(|| DavError::BadRequest("only basicsearch is supported".into()))?;

    let mut scope = "/".to_owned();
    let mut depth = None;
    if let Some(from) = basic.child(Some(DAV_NS), "from") {
        if let Some(sc) = from.child(Some(DAV_NS), "scope") {
            if let Some(href) = sc.child(Some(DAV_NS), "href") {
                scope = pse_http::uri::normalize_path(&pse_http::uri::percent_decode(
                    href.text().trim(),
                ));
            }
            depth = match sc
                .child(Some(DAV_NS), "depth")
                .map(|d| d.text().trim().to_owned())
                .as_deref()
            {
                None | Some("infinity") => None,
                Some("0") => Some(0),
                Some("1") => Some(1),
                Some(other) => {
                    return Err(DavError::BadRequest(format!(
                        "bad search depth {other:?} (want 0, 1 or infinity)"
                    )))
                }
            };
        }
    }

    let limit = match basic.child(Some(DAV_NS), "limit") {
        None => None,
        Some(l) => {
            let n = l
                .child(Some(DAV_NS), "nresults")
                .ok_or_else(|| DavError::BadRequest("DAV:limit without DAV:nresults".into()))?;
            Some(n.text().trim().parse::<usize>().map_err(|_| {
                DavError::BadRequest("DAV:nresults is not a non-negative integer".into())
            })?)
        }
    };
    let cursor = basic
        .child(Some(DAV_NS), "cursor")
        .map(|c| c.text().trim().to_owned())
        .filter(|t| !t.is_empty());

    let select = basic
        .child(Some(DAV_NS), "select")
        .and_then(|s| s.child(Some(DAV_NS), "prop"))
        .map(|prop| {
            prop.children_elems()
                .map(|e| PropertyName::new(e.namespace().unwrap_or(""), &e.name.local))
                .collect()
        })
        .unwrap_or_default();

    let condition = match basic.child(Some(DAV_NS), "where") {
        Some(w) => match w.children_elems().next() {
            Some(c) => parse_condition(c)?,
            None => Condition::True,
        },
        None => Condition::True,
    };

    Ok(Query {
        scope,
        depth,
        select,
        condition,
        limit,
        cursor,
    })
}

/// A completed search: the multistatus plus paging/planning metadata.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Matching resources (one response per match, lexicographic order).
    pub ms: Multistatus,
    /// Continuation token when a `limit` stopped the search early.
    pub next_cursor: Option<String>,
    /// Whether the property index supplied the candidate set.
    pub indexed: bool,
    /// Whether candidates were evaluated on the named properties only
    /// (see [`narrowed_names`]) rather than on `all_props`.
    pub narrowed: bool,
    /// Whether the answer came from the index alone, reading no
    /// property (see [`covered_pairs`]).
    pub covered: bool,
    /// Candidates evaluated: read and tested, or, when covered, taken
    /// from the index as matches.
    pub examined: usize,
}

/// Encode a path as an opaque continuation token (lowercase hex).
pub fn encode_cursor(path: &str) -> String {
    let mut out = String::with_capacity(path.len() * 2);
    for b in path.bytes() {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn decode_cursor(token: &str) -> Result<String> {
    let bad = || DavError::BadRequest("unparseable search cursor".into());
    if token.len() % 2 != 0 || !token.is_ascii() {
        return Err(bad());
    }
    let mut bytes = Vec::with_capacity(token.len() / 2);
    let mut i = 0;
    while i < token.len() {
        bytes.push(u8::from_str_radix(&token[i..i + 2], 16).map_err(|_| bad())?);
        i += 2;
    }
    String::from_utf8(bytes).map_err(|_| bad())
}

/// Depth of `path` below `scope`, or `None` if it is outside the scope.
fn depth_below(path: &str, scope: &str) -> Option<u32> {
    if path == scope {
        return Some(0);
    }
    let rest = if scope == "/" {
        path.strip_prefix('/')?
    } else {
        path.strip_prefix(scope)?.strip_prefix('/')?
    };
    if rest.is_empty() {
        return None;
    }
    Some(rest.split('/').count() as u32)
}

fn intersect_sorted(mut sets: Vec<Vec<String>>) -> Vec<String> {
    sets.sort_by_key(Vec::len);
    let (first, rest) = sets.split_first().expect("non-empty set list");
    first
        .iter()
        .filter(|p| rest.iter().all(|s| s.binary_search(p).is_ok()))
        .cloned()
        .collect()
}

/// The query planner: derive a candidate *superset* of the matches from
/// the property index, or `None` when the condition (or the repository)
/// cannot answer from the index and the executor must walk-and-scan.
///
/// Soundness rules — candidates are re-evaluated against the
/// properties the query names (all of them for allprop) before being
/// returned, so a probe only has to be *complete* (never miss a true
/// match), never exact:
///
/// * leaf operators probe only **dead** property names — live ones are
///   computed per-request and never indexed;
/// * `contains` uses the `isdefined` postings (every substring match is
///   on a defined property);
/// * `and` intersects whichever children are plannable — any child's
///   candidate set already bounds the conjunction;
/// * `or` is plannable only when *every* child is (a missed branch
///   would drop matches);
/// * `not` and the empty `where` see the whole scope — no index help.
fn plan(repo: &dyn Repository, cond: &Condition) -> Option<Vec<String>> {
    match cond {
        Condition::Eq(n, v) if !n.is_live() => repo.index_probe(&Probe::Eq(n, v)),
        Condition::Contains(n, _) if !n.is_live() => repo.index_probe(&Probe::IsDefined(n)),
        Condition::Gt(n, v) if !n.is_live() => repo.index_probe(&Probe::Gt(n, *v)),
        Condition::Lt(n, v) if !n.is_live() => repo.index_probe(&Probe::Lt(n, *v)),
        Condition::IsDefined(n) if !n.is_live() => repo.index_probe(&Probe::IsDefined(n)),
        Condition::And(cs) => {
            let sets: Vec<Vec<String>> = cs.iter().filter_map(|c| plan(repo, c)).collect();
            if sets.is_empty() {
                return None;
            }
            Some(intersect_sorted(sets))
        }
        Condition::Or(cs) => {
            let mut union = BTreeSet::new();
            for c in cs {
                union.extend(plan(repo, c)?);
            }
            Some(union.into_iter().collect())
        }
        _ => None,
    }
}

/// The properties a query needs per candidate when it can skip
/// `all_props`: the names its condition reads, then its `select` list.
/// `None` for allprop queries (empty `select`) and for queries naming a
/// live property, which is computed from metadata rather than stored.
fn narrowed_names(query: &Query) -> Option<Vec<PropertyName>> {
    if query.select.is_empty() {
        return None;
    }
    let mut names = Vec::new();
    query.condition.collect_names(&mut names);
    for n in &query.select {
        if !names.contains(n) {
            names.push(n.clone());
        }
    }
    if names.iter().any(PropertyName::is_live) {
        return None;
    }
    Some(names)
}

/// The `(name, literal)` pairs of a query the index may answer alone:
/// its condition is an `eq`, or an `and` of `eq`s, on dead properties,
/// and its non-empty `select` names only properties those `eq`s
/// constrain. Every match then returns each selected property with the
/// query's own literal as its value.
fn covered_pairs(query: &Query) -> Option<Vec<(&PropertyName, &str)>> {
    let conjuncts = match &query.condition {
        Condition::And(cs) => cs.as_slice(),
        single => std::slice::from_ref(single),
    };
    let pairs = conjuncts
        .iter()
        .map(|c| match c {
            Condition::Eq(n, v) if !n.is_live() => Some((n, v.as_str())),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let constrained = |n: &PropertyName| pairs.iter().any(|(m, _)| *m == n);
    if pairs.is_empty() || query.select.is_empty() || !query.select.iter().all(constrained) {
        return None;
    }
    Some(pairs)
}

/// Run `query`. The optimised path (`reference == false`) answers a
/// covered query from one index probe with no property read; otherwise
/// it takes its candidates from the index when it can and reads only
/// the named properties when it can. The reference path walks the scope
/// and evaluates every resource on `all_props`, so it stays an
/// independent oracle for all three shortcuts.
fn run(repo: &dyn Repository, query: &Query, reference: bool) -> Result<SearchOutcome> {
    if !repo.exists(&query.scope) {
        return Err(DavError::NotFound(query.scope.clone()));
    }
    let resume_after = query.cursor.as_deref().map(decode_cursor).transpose()?;

    // A covered query probes once: its answer is the index at one
    // instant. When the probe declines (a match is not plain text, a
    // literal is capped), the query is planned and read as usual.
    let pairs = if reference {
        None
    } else {
        covered_pairs(query)
    }
    .unwrap_or_default();
    let covered = match pairs.as_slice() {
        [] => None,
        pairs => repo.index_probe(&Probe::Covered(pairs)),
    };
    // Every covered match returns the same properties: each selected
    // name with the literal its `eq` requires.
    let covered_props: Option<Vec<Property>> = covered.is_some().then(|| {
        query
            .select
            .iter()
            .filter_map(|n| pairs.iter().find(|(m, _)| *m == n))
            .map(|(n, literal)| Property::text((*n).clone(), literal))
            .collect()
    });
    let (planned, narrowed) = if reference {
        (None, None)
    } else {
        (
            covered.or_else(|| plan(repo, &query.condition)),
            narrowed_names(query),
        )
    };
    let indexed = planned.is_some();
    let mut paths = match planned {
        Some(candidates) => candidates
            .into_iter()
            .filter(|p| {
                depth_below(p, &query.scope).is_some_and(|d| query.depth.is_none_or(|max| d <= max))
            })
            .collect(),
        None => {
            let mut all = Vec::new();
            repo.walk(&query.scope, query.depth, &mut |p| all.push(p.to_owned()))?;
            all
        }
    };
    // Deterministic order makes index- and scan-backed execution agree
    // byte-for-byte and keeps continuation cursors stable.
    paths.sort();
    paths.dedup();

    let mut ms = Multistatus::new();
    let mut next_cursor = None;
    let mut emitted = 0usize;
    let mut examined = 0usize;
    for path in paths {
        if resume_after.as_deref().is_some_and(|c| path.as_str() <= c) {
            continue;
        }
        if query.limit == Some(0) {
            break;
        }
        let returned: Vec<Property> = if let Some(props) = &covered_props {
            examined += 1;
            props.clone()
        } else {
            // A resource may vanish between candidate discovery and
            // property fetch (SEARCH racing DELETE): skip it rather than
            // failing the whole query.
            let props = match &narrowed {
                Some(names) => repo
                    .get_props(&path, names)
                    .map(|found| found.into_iter().flatten().collect()),
                None => repo.all_props(&path),
            };
            let props: Vec<Property> = match props {
                Ok(props) => props,
                Err(DavError::NotFound(_)) => continue,
                Err(e) => return Err(e),
            };
            examined += 1;
            if !query.condition.eval(&props) {
                continue;
            }
            if query.select.is_empty() {
                props
            } else {
                query
                    .select
                    .iter()
                    .filter_map(|n| props.iter().find(|p| &p.name == n).cloned())
                    .collect()
            }
        };
        ms.push_propstats(
            &path,
            vec![PropStat {
                props: returned,
                status: StatusCode::OK,
            }],
        );
        emitted += 1;
        if query.limit.is_some_and(|l| emitted >= l) {
            next_cursor = Some(encode_cursor(&path));
            break;
        }
    }
    Ok(SearchOutcome {
        ms,
        next_cursor,
        indexed,
        narrowed: narrowed.is_some(),
        covered: covered_props.is_some(),
        examined,
    })
}

/// Execute a query, consulting the property index when it can answer.
pub fn execute(repo: &dyn Repository, query: &Query) -> Result<Multistatus> {
    Ok(run(repo, query, false)?.ms)
}

/// Execute with full paging metadata (used by the protocol entry points).
pub fn execute_paged(repo: &dyn Repository, query: &Query) -> Result<SearchOutcome> {
    run(repo, query, false)
}

/// Execute by walking the scope and evaluating every resource on
/// `all_props`, ignoring the index, then projecting matches onto
/// `select`. The reference implementation the equivalence proptests and
/// the `repro_search` benchmark compare against.
pub fn execute_scan(repo: &dyn Repository, query: &Query) -> Result<Multistatus> {
    Ok(run(repo, query, true)?.ms)
}

/// The SEARCH method entry point used by the handler. Records the
/// planner's decisions into `obs` under `dav.search.*`: `indexed` or
/// `scan_fallback` per query, `narrowed` per query evaluated on named
/// properties, `covered` per query answered from the index alone, and
/// the `candidates` examined and `matched`.
pub fn handle(repo: &dyn Repository, req: &Request, obs: &Registry) -> Result<Response> {
    let query = parse_query(&req.body)?;
    let out = execute_paged(repo, &query)?;
    if obs.is_enabled() {
        obs.counter("dav.search.indexed")
            .add(u64::from(out.indexed));
        obs.counter("dav.search.scan_fallback")
            .add(u64::from(!out.indexed));
        obs.counter("dav.search.narrowed")
            .add(u64::from(out.narrowed));
        obs.counter("dav.search.covered")
            .add(u64::from(out.covered));
        obs.counter("dav.search.candidates")
            .add(out.examined as u64);
        obs.counter("dav.search.matched")
            .add(out.ms.responses.len() as u64);
    }
    let mut resp = Response::new(StatusCode::MULTI_STATUS).with_xml_body(out.ms.to_xml());
    if let Some(cursor) = out.next_cursor {
        resp = resp.with_header(CURSOR_HEADER, cursor);
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memrepo::MemRepository;

    fn repo_with_molecules() -> MemRepository {
        let r = MemRepository::new();
        r.mkcol("/mols").unwrap();
        for (name, formula, charge) in [
            ("water", "H2O", "0"),
            ("uranyl", "UO2", "+2"),
            ("hydroxide", "OH", "-1"),
        ] {
            let path = format!("/mols/{name}");
            r.put(&path, b"geometry", None).unwrap();
            r.set_prop(
                &path,
                &Property::text(PropertyName::new("urn:ecce", "formula"), formula),
            )
            .unwrap();
            r.set_prop(
                &path,
                &Property::text(PropertyName::new("urn:ecce", "charge"), charge),
            )
            .unwrap();
        }
        r
    }

    #[test]
    fn eq_search_finds_one() {
        let r = repo_with_molecules();
        let body = r#"<D:searchrequest xmlns:D="DAV:" xmlns:e="urn:ecce">
          <D:basicsearch>
            <D:select><D:prop><e:formula/></D:prop></D:select>
            <D:from><D:scope><D:href>/mols</D:href></D:scope></D:from>
            <D:where><D:eq><D:prop><e:formula/></D:prop><D:literal>UO2</D:literal></D:eq></D:where>
          </D:basicsearch></D:searchrequest>"#;
        let q = parse_query(body.as_bytes()).unwrap();
        let ms = execute(&r, &q).unwrap();
        assert_eq!(ms.responses.len(), 1);
        assert_eq!(ms.responses[0].href, "/mols/uranyl");
        assert_eq!(
            ms.responses[0]
                .prop(&PropertyName::new("urn:ecce", "formula"))
                .unwrap()
                .text_value(),
            "UO2"
        );
    }

    #[test]
    fn contains_and_not() {
        let r = repo_with_molecules();
        let cond = Condition::And(vec![
            Condition::Contains(PropertyName::new("urn:ecce", "formula"), "O".into()),
            Condition::Not(Box::new(Condition::Eq(
                PropertyName::new("urn:ecce", "charge"),
                "+2".into(),
            ))),
        ]);
        let q = Query::new("/mols", cond);
        let ms = execute(&r, &q).unwrap();
        let hrefs: Vec<_> = ms.responses.iter().map(|e| e.href.as_str()).collect();
        assert_eq!(hrefs, vec!["/mols/hydroxide", "/mols/water"]);
    }

    #[test]
    fn numeric_comparison() {
        let r = repo_with_molecules();
        let q = Query::new(
            "/",
            Condition::Gt(PropertyName::new("urn:ecce", "charge"), 0.0),
        );
        let ms = execute(&r, &q).unwrap();
        assert_eq!(ms.responses.len(), 1);
        assert_eq!(ms.responses[0].href, "/mols/uranyl");
        // lt finds the hydroxide.
        let q = Query {
            condition: Condition::Lt(PropertyName::new("urn:ecce", "charge"), 0.0),
            ..q
        };
        let ms = execute(&r, &q).unwrap();
        assert_eq!(ms.responses[0].href, "/mols/hydroxide");
    }

    #[test]
    fn isdefined_matches_resources_with_metadata() {
        let r = repo_with_molecules();
        r.put("/mols/bare", b"", None).unwrap();
        let q = Query {
            depth: Some(1),
            ..Query::new(
                "/mols",
                Condition::IsDefined(PropertyName::new("urn:ecce", "formula")),
            )
        };
        let ms = execute(&r, &q).unwrap();
        assert_eq!(ms.responses.len(), 3);
        assert!(ms.response_for("/mols/bare").is_none());
    }

    #[test]
    fn empty_where_matches_all_in_scope() {
        let r = repo_with_molecules();
        let body = r#"<D:searchrequest xmlns:D="DAV:"><D:basicsearch>
            <D:from><D:scope><D:href>/mols</D:href><D:depth>1</D:depth></D:scope></D:from>
        </D:basicsearch></D:searchrequest>"#;
        let q = parse_query(body.as_bytes()).unwrap();
        let ms = execute(&r, &q).unwrap();
        assert_eq!(ms.responses.len(), 4); // collection + 3 molecules
    }

    #[test]
    fn bad_queries_rejected() {
        assert!(parse_query(b"<D:searchrequest xmlns:D=\"DAV:\"/>").is_err());
        assert!(parse_query(b"not xml").is_err());
        let body = r#"<D:searchrequest xmlns:D="DAV:"><D:basicsearch>
          <D:where><D:gt><D:prop><D:x/></D:prop><D:literal>abc</D:literal></D:gt></D:where>
        </D:basicsearch></D:searchrequest>"#;
        assert!(parse_query(body.as_bytes()).is_err());
    }

    #[test]
    fn missing_scope_is_404() {
        let r = MemRepository::new();
        let q = Query::new("/nope", Condition::True);
        assert!(matches!(execute(&r, &q), Err(DavError::NotFound(_))));
    }

    fn body_with_depth(depth: &str) -> String {
        format!(
            r#"<D:searchrequest xmlns:D="DAV:"><D:basicsearch>
              <D:from><D:scope><D:href>/mols</D:href><D:depth>{depth}</D:depth></D:scope></D:from>
            </D:basicsearch></D:searchrequest>"#
        )
    }

    #[test]
    fn depth_accepts_spec_values_and_rejects_garbage() {
        assert_eq!(
            parse_query(body_with_depth("0").as_bytes()).unwrap().depth,
            Some(0)
        );
        assert_eq!(
            parse_query(body_with_depth("1").as_bytes()).unwrap().depth,
            Some(1)
        );
        assert_eq!(
            parse_query(body_with_depth("infinity").as_bytes())
                .unwrap()
                .depth,
            None
        );
        // Anything else used to fall silently to infinity — the scope
        // explosion a client asking for depth "2" or "one" never wanted.
        for garbage in ["2", "one", "Infinity", "-1", "0x1"] {
            assert!(
                matches!(
                    parse_query(body_with_depth(garbage).as_bytes()),
                    Err(DavError::BadRequest(_))
                ),
                "depth {garbage:?} should be rejected"
            );
        }
    }

    #[test]
    fn limit_and_cursor_parse_from_the_body() {
        let body = r#"<D:searchrequest xmlns:D="DAV:"><D:basicsearch>
            <D:from><D:scope><D:href>/</D:href></D:scope></D:from>
            <D:limit><D:nresults>25</D:nresults></D:limit>
            <D:cursor>2f6d6f6c73</D:cursor>
        </D:basicsearch></D:searchrequest>"#;
        let q = parse_query(body.as_bytes()).unwrap();
        assert_eq!(q.limit, Some(25));
        assert_eq!(q.cursor.as_deref(), Some("2f6d6f6c73"));
        let bad = r#"<D:searchrequest xmlns:D="DAV:"><D:basicsearch>
            <D:limit><D:nresults>lots</D:nresults></D:limit>
        </D:basicsearch></D:searchrequest>"#;
        assert!(parse_query(bad.as_bytes()).is_err());
    }

    #[test]
    fn paging_walks_every_match_exactly_once() {
        let r = repo_with_molecules();
        let mut q = Query {
            limit: Some(1),
            ..Query::new(
                "/mols",
                Condition::IsDefined(PropertyName::new("urn:ecce", "formula")),
            )
        };
        let mut pages = Vec::new();
        loop {
            let out = execute_paged(&r, &q).unwrap();
            pages.extend(out.ms.responses.iter().map(|e| e.href.clone()));
            match out.next_cursor {
                Some(c) => q.cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(
            pages,
            vec!["/mols/hydroxide", "/mols/uranyl", "/mols/water"]
        );
        // An unparseable cursor is a client error, not a scan restart.
        q.cursor = Some("zz".into());
        assert!(matches!(
            execute_paged(&r, &q),
            Err(DavError::BadRequest(_))
        ));
    }

    #[test]
    fn planner_answers_from_the_index_and_agrees_with_scan() {
        let r = repo_with_molecules();
        let formula = PropertyName::new("urn:ecce", "formula");
        let charge = PropertyName::new("urn:ecce", "charge");
        let cases = [
            (Condition::Eq(formula.clone(), "UO2".into()), true),
            (Condition::Contains(formula.clone(), "O".into()), true),
            (Condition::Gt(charge.clone(), 0.0), true),
            (Condition::Lt(charge.clone(), 0.0), true),
            (Condition::IsDefined(formula.clone()), true),
            (
                Condition::And(vec![
                    Condition::IsDefined(formula.clone()),
                    Condition::Not(Box::new(Condition::Eq(charge.clone(), "0".into()))),
                ]),
                true, // one plannable conjunct is enough
            ),
            (
                Condition::Or(vec![
                    Condition::Eq(formula.clone(), "H2O".into()),
                    Condition::Eq(formula.clone(), "OH".into()),
                ]),
                true,
            ),
            (
                // A non-plannable disjunct poisons the whole or.
                Condition::Or(vec![
                    Condition::Eq(formula.clone(), "H2O".into()),
                    Condition::Not(Box::new(Condition::True)),
                ]),
                false,
            ),
            (Condition::Not(Box::new(Condition::True)), false),
            (Condition::True, false),
            // Live properties are computed per request — never indexed.
            (
                Condition::IsDefined(PropertyName::dav("getcontentlength")),
                false,
            ),
        ];
        for (cond, expect_indexed) in cases {
            let q = Query::new("/", cond.clone());
            let indexed = execute_paged(&r, &q).unwrap();
            let scanned = execute_scan(&r, &q).unwrap();
            assert_eq!(
                indexed.ms.to_xml(),
                scanned.to_xml(),
                "index/scan divergence on {cond:?}"
            );
            assert_eq!(
                indexed.indexed, expect_indexed,
                "planner decision on {cond:?}"
            );
        }
    }

    #[test]
    fn covered_queries_answer_from_the_index_and_agree_with_scan() {
        let r = repo_with_molecules();
        let formula = PropertyName::new("urn:ecce", "formula");
        let charge = PropertyName::new("urn:ecce", "charge");
        let bare = PropertyName::new("", "bare");
        r.set_prop("/mols/water", &Property::text(bare.clone(), "v"))
            .unwrap();
        // A value with markup around its text is never covered.
        let mut value = Element::new(Some("urn:ecce"), "formula");
        value.push_elem(Element::new(Some("urn:ecce"), "b"));
        value.push_text("OH");
        r.set_prop("/mols/hydroxide", &Property::from_element(value))
            .unwrap();
        let eq = |n: &PropertyName, v: &str| Condition::Eq(n.clone(), v.into());
        let cases = [
            (eq(&formula, "UO2"), vec![formula.clone()], true),
            (
                Condition::And(vec![eq(&formula, "H2O"), eq(&charge, "0")]),
                vec![charge.clone(), formula.clone(), charge.clone()],
                true,
            ),
            (eq(&bare, "v"), vec![bare.clone()], true),
            (eq(&formula, "none"), vec![formula.clone()], true),
            (eq(&formula, "OH"), vec![formula.clone()], false), // rich match
            (eq(&formula, "UO2"), vec![], false),               // allprop
            (eq(&formula, "UO2"), vec![charge.clone()], false), // unconstrained select
            (
                Condition::And(vec![
                    eq(&formula, "UO2"),
                    Condition::IsDefined(charge.clone()),
                ]),
                vec![formula.clone()],
                false,
            ),
            (Condition::And(vec![]), vec![formula.clone()], false),
            (
                Condition::Or(vec![eq(&formula, "UO2"), eq(&formula, "H2O")]),
                vec![formula.clone()],
                false,
            ),
        ];
        for (cond, select, expect_covered) in cases {
            let q = Query {
                select: select.clone(),
                ..Query::new("/", cond.clone())
            };
            let out = execute_paged(&r, &q).unwrap();
            assert_eq!(out.covered, expect_covered, "{cond:?} select={select:?}");
            let scanned = execute_scan(&r, &q).unwrap();
            assert_eq!(
                out.ms.to_xml(),
                scanned.to_xml(),
                "{cond:?} select={select:?}"
            );
        }
    }

    #[test]
    fn index_candidates_respect_scope_and_depth() {
        let r = repo_with_molecules();
        r.mkcol("/other").unwrap();
        r.put("/other/thing", b"", None).unwrap();
        r.set_prop(
            "/other/thing",
            &Property::text(PropertyName::new("urn:ecce", "formula"), "H2O"),
        )
        .unwrap();
        // The index holds both paths; scope must filter to /mols.
        let q = Query::new(
            "/mols",
            Condition::Eq(PropertyName::new("urn:ecce", "formula"), "H2O".into()),
        );
        let out = execute_paged(&r, &q).unwrap();
        assert!(out.indexed);
        let hrefs: Vec<_> = out.ms.responses.iter().map(|e| e.href.as_str()).collect();
        assert_eq!(hrefs, vec!["/mols/water"]);
        // Depth 0 on the collection itself excludes the children.
        let q = Query {
            depth: Some(0),
            ..q
        };
        assert!(execute(&r, &q).unwrap().responses.is_empty());
    }

    /// A repository where a chosen path "vanishes" between `walk` and
    /// `all_props` — the deterministic shape of the SEARCH/DELETE race.
    struct VanishingRepo {
        inner: MemRepository,
        vanished: String,
    }

    impl Repository for VanishingRepo {
        fn exists(&self, path: &str) -> bool {
            self.inner.exists(path)
        }
        fn meta(&self, path: &str) -> Result<crate::repo::ResourceMeta> {
            self.inner.meta(path)
        }
        fn get(&self, path: &str) -> Result<Vec<u8>> {
            self.inner.get(path)
        }
        fn put(&self, path: &str, data: &[u8], ct: Option<&str>) -> Result<bool> {
            self.inner.put(path, data, ct)
        }
        fn mkcol(&self, path: &str) -> Result<()> {
            self.inner.mkcol(path)
        }
        fn delete(&self, path: &str) -> Result<()> {
            self.inner.delete(path)
        }
        fn copy(&self, s: &str, d: &str, o: bool) -> Result<bool> {
            self.inner.copy(s, d, o)
        }
        fn rename(&self, s: &str, d: &str, o: bool) -> Result<bool> {
            self.inner.rename(s, d, o)
        }
        fn list(&self, path: &str) -> Result<Vec<String>> {
            self.inner.list(path)
        }
        fn get_prop(&self, path: &str, name: &PropertyName) -> Result<Option<Property>> {
            self.inner.get_prop(path, name)
        }
        fn list_props(&self, path: &str) -> Result<Vec<PropertyName>> {
            self.inner.list_props(path)
        }
        fn set_prop(&self, path: &str, prop: &Property) -> Result<()> {
            self.inner.set_prop(path, prop)
        }
        fn remove_prop(&self, path: &str, name: &PropertyName) -> Result<bool> {
            self.inner.remove_prop(path, name)
        }
        fn disk_usage(&self) -> Result<u64> {
            self.inner.disk_usage()
        }
        fn all_props(&self, path: &str) -> Result<Vec<Property>> {
            if path == self.vanished {
                return Err(DavError::NotFound(path.to_owned()));
            }
            self.inner.all_props(path)
        }
    }

    #[test]
    fn vanished_resources_are_skipped_not_fatal() {
        let r = VanishingRepo {
            inner: repo_with_molecules(),
            vanished: "/mols/uranyl".to_owned(),
        };
        // The whole query used to abort with the NotFound — losing every
        // other match to one concurrent DELETE.
        let q = Query::new(
            "/mols",
            Condition::IsDefined(PropertyName::new("urn:ecce", "formula")),
        );
        let ms = execute(&r, &q).unwrap();
        let hrefs: Vec<_> = ms.responses.iter().map(|e| e.href.as_str()).collect();
        assert_eq!(hrefs, vec!["/mols/hydroxide", "/mols/water"]);
    }
}
