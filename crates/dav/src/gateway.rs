//! Read-only JSON/REST gateway — the PSE face of the DAV store.
//!
//! The paper's thesis is that open *protocols* keep the data store open
//! to tools the original developers never imagined. DAV delivers that to
//! DAV-speaking clients; this module extends the same courtesy to the
//! scripting ecosystem: every resource, its properties, and the SEARCH
//! engine are reachable with nothing but an HTTP GET, answering JSON.
//!
//! Routes (all under [`PREFIX`], GET only — the gateway never mutates):
//!
//! * `GET /.well-known/json` — service document listing the endpoints;
//! * `GET /.well-known/json/list/<path>` — resource metadata, plus the
//!   member names when `<path>` is a collection;
//! * `GET /.well-known/json/props/<path>` — all properties (live +
//!   dead) of one resource;
//! * `GET /.well-known/json/search?scope=&ns=&name=&eq=…` — the DASL
//!   search (index-accelerated, same planner as `SEARCH`), with
//!   `limit`/`cursor` paging; the continuation token rides in the body.
//!
//! The handler serves these from [`intercept`] before DAV method
//! dispatch, so the HTTP server serves the gateway without knowing
//! about it.

use crate::error::{DavError, Result};
use crate::multistatus::ResponseEntry;
use crate::property::{Property, PropertyName};
use crate::repo::Repository;
use crate::search::{self, Condition, Query};
use pse_http::{Method, Request, Response, StatusCode};
use pse_obs::json_string as js;

/// URL prefix the gateway answers under.
pub const PREFIX: &str = "/.well-known/json";

/// Serve `req` if it addresses the gateway, else `None` (normal DAV
/// dispatch proceeds). Request paths arrive percent-decoded and
/// dot-normalised from the HTTP layer.
pub fn intercept(repo: &dyn Repository, req: &Request) -> Option<Response> {
    let rest = match req.target.path().strip_prefix(PREFIX) {
        Some("") => "",
        Some(rest) if rest.starts_with('/') => rest,
        _ => return None,
    };
    if req.method != Method::Get {
        return Some(error_response(
            StatusCode::METHOD_NOT_ALLOWED,
            "the JSON gateway is read-only; use GET",
        ));
    }
    let result = if rest.is_empty() || rest == "/" {
        Ok(service_doc())
    } else if rest == "/search" {
        search_json(repo, req)
    } else if let Some(target) = rest.strip_prefix("/props") {
        props_json(repo, resource_path(target))
    } else if let Some(target) = rest.strip_prefix("/list") {
        list_json(repo, resource_path(target))
    } else {
        Err(DavError::NotFound(req.target.path().to_owned()))
    };
    Some(match result {
        Ok(body) => json_response(StatusCode::OK, body),
        Err(e) => error_response(e.status(), &e.to_string()),
    })
}

/// `/props` addresses the root; `/props/a/b` addresses `/a/b`.
fn resource_path(rest: &str) -> &str {
    if rest.is_empty() {
        "/"
    } else {
        rest
    }
}

fn json_response(status: StatusCode, body: String) -> Response {
    Response::new(status)
        .with_header("Content-Type", "application/json")
        .with_body(body.into_bytes())
}

fn error_response(status: StatusCode, msg: &str) -> Response {
    json_response(status, format!("{{\"error\":{}}}", js(msg)))
}

fn service_doc() -> String {
    let endpoints = [
        format!("{PREFIX}/list/<path>"),
        format!("{PREFIX}/props/<path>"),
        format!(
            "{PREFIX}/search?scope=&ns=&name=&eq=|contains=|gt=|lt=|isdefined&depth=&limit=&cursor="
        ),
    ];
    let list: Vec<String> = endpoints.iter().map(|e| js(e)).collect();
    format!(
        "{{\"service\":\"pse-dav json gateway\",\"endpoints\":[{}]}}",
        list.join(",")
    )
}

fn props_array(props: &[Property]) -> String {
    let mut out = String::from("[");
    for (i, p) in props.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"namespace\":{},\"name\":{},\"value\":{}}}",
            js(&p.name.namespace),
            js(&p.name.local),
            js(&p.text_value())
        ));
    }
    out.push(']');
    out
}

fn props_json(repo: &dyn Repository, path: &str) -> Result<String> {
    let props = repo.all_props(path)?;
    Ok(format!(
        "{{\"path\":{},\"properties\":{}}}",
        js(path),
        props_array(&props)
    ))
}

fn list_json(repo: &dyn Repository, path: &str) -> Result<String> {
    let meta = repo.meta(path)?;
    let mut out = format!(
        "{{\"path\":{},\"collection\":{}",
        js(path),
        meta.is_collection
    );
    if meta.is_collection {
        let children: Vec<String> = repo.list(path)?.iter().map(|c| js(c)).collect();
        out.push_str(&format!(",\"children\":[{}]", children.join(",")));
    } else {
        out.push_str(&format!(",\"length\":{}", meta.content_length));
        if let Some(ct) = &meta.content_type {
            out.push_str(&format!(",\"content_type\":{}", js(ct)));
        }
        out.push_str(&format!(",\"etag\":{}", js(&meta.etag())));
    }
    out.push('}');
    Ok(out)
}

fn matched_props(entry: &ResponseEntry) -> Vec<Property> {
    entry
        .propstats
        .iter()
        .filter(|ps| ps.status.code() == 200)
        .flat_map(|ps| ps.props.iter().cloned())
        .collect()
}

fn search_json(repo: &dyn Repository, req: &Request) -> Result<String> {
    let bad = |msg: String| DavError::BadRequest(msg);
    let mut scope = "/".to_owned();
    let mut ns = String::new();
    let mut name = None;
    let mut eq = None;
    let mut contains = None;
    let mut gt = None;
    let mut lt = None;
    let mut isdefined = false;
    let mut depth = None;
    let mut limit = None;
    let mut cursor = None;
    for (k, v) in req.target.query_pairs() {
        match k.as_str() {
            "scope" => scope = pse_http::uri::normalize_path(&v),
            "ns" => ns = v,
            "name" => name = Some(v),
            "eq" => eq = Some(v),
            "contains" => contains = Some(v),
            "gt" => {
                gt = Some(v.trim().parse::<f64>().map_err(|_| {
                    bad(format!("gt={v:?} is not numeric"))
                })?)
            }
            "lt" => {
                lt = Some(v.trim().parse::<f64>().map_err(|_| {
                    bad(format!("lt={v:?} is not numeric"))
                })?)
            }
            "isdefined" => isdefined = true,
            "depth" => {
                depth = match v.as_str() {
                    "0" => Some(0),
                    "1" => Some(1),
                    "infinity" => None,
                    other => {
                        return Err(bad(format!(
                            "bad depth {other:?} (want 0, 1 or infinity)"
                        )))
                    }
                }
            }
            "limit" => {
                limit = Some(v.parse::<usize>().map_err(|_| {
                    bad(format!("limit={v:?} is not a non-negative integer"))
                })?)
            }
            "cursor" => cursor = Some(v),
            other => return Err(bad(format!("unknown search parameter {other:?}"))),
        }
    }

    let has_operator = eq.is_some() || contains.is_some() || gt.is_some() || lt.is_some();
    let condition = match name {
        None if has_operator || isdefined => {
            return Err(bad("a property operator needs name= (and ns=)".into()))
        }
        None => Condition::True,
        Some(local) => {
            let pname = PropertyName::new(&ns, &local);
            let mut conds = Vec::new();
            if let Some(v) = eq {
                conds.push(Condition::Eq(pname.clone(), v));
            }
            if let Some(v) = contains {
                conds.push(Condition::Contains(pname.clone(), v));
            }
            if let Some(v) = gt {
                conds.push(Condition::Gt(pname.clone(), v));
            }
            if let Some(v) = lt {
                conds.push(Condition::Lt(pname.clone(), v));
            }
            if conds.is_empty() || isdefined {
                // A bare name (or explicit isdefined) asks for existence.
                conds.push(Condition::IsDefined(pname));
            }
            if conds.len() == 1 {
                conds.pop().expect("one condition")
            } else {
                Condition::And(conds)
            }
        }
    };

    let query = Query {
        scope,
        depth,
        select: Vec::new(),
        condition,
        limit,
        cursor,
    };
    let out = search::execute_paged(repo, &query)?;
    let mut body = format!(
        "{{\"scope\":{},\"indexed\":{},\"results\":[",
        js(&query.scope),
        out.indexed
    );
    for (i, entry) in out.ms.responses.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"path\":{},\"properties\":{}}}",
            js(&entry.href),
            props_array(&matched_props(entry))
        ));
    }
    body.push(']');
    if let Some(c) = out.next_cursor {
        body.push_str(&format!(",\"cursor\":{}", js(&c)));
    }
    body.push('}');
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memrepo::MemRepository;

    fn rig() -> MemRepository {
        let r = MemRepository::new();
        r.mkcol("/mols").unwrap();
        for (name, formula) in [("water", "H2O"), ("uranyl", "UO2")] {
            let path = format!("/mols/{name}");
            r.put(&path, b"geometry", Some("chemical/x-xyz")).unwrap();
            r.set_prop(
                &path,
                &Property::text(PropertyName::new("urn:ecce", "formula"), formula),
            )
            .unwrap();
        }
        r
    }

    fn get(repo: &MemRepository, target: &str) -> Response {
        intercept(repo, &Request::new(Method::Get, target)).expect("gateway route")
    }

    #[test]
    fn non_gateway_paths_pass_through() {
        let r = rig();
        assert!(intercept(&r, &Request::new(Method::Get, "/mols/water")).is_none());
        // Prefix must end at a segment boundary.
        assert!(intercept(&r, &Request::new(Method::Get, "/.well-known/jsonx")).is_none());
    }

    #[test]
    fn service_doc_lists_endpoints() {
        let r = rig();
        let resp = get(&r, "/.well-known/json");
        assert_eq!(resp.status.code(), 200);
        assert_eq!(resp.headers.get("content-type"), Some("application/json"));
        assert!(resp.body_text().contains("/search"));
    }

    #[test]
    fn writes_are_rejected() {
        let r = rig();
        let resp = intercept(
            &r,
            &Request::new(Method::Put, "/.well-known/json/props/mols/water"),
        )
        .unwrap();
        assert_eq!(resp.status.code(), 405);
    }

    #[test]
    fn props_route_returns_properties() {
        let r = rig();
        let resp = get(&r, "/.well-known/json/props/mols/water");
        assert_eq!(resp.status.code(), 200);
        let body = resp.body_text();
        assert!(body.contains("\"/mols/water\""), "{body}");
        assert!(body.contains("\"formula\""), "{body}");
        assert!(body.contains("\"H2O\""), "{body}");
        // Missing resources surface as JSON 404s.
        assert_eq!(get(&r, "/.well-known/json/props/nope").status.code(), 404);
    }

    #[test]
    fn list_route_shows_members_and_metadata() {
        let r = rig();
        let body = get(&r, "/.well-known/json/list/mols").body_text();
        assert!(body.contains("\"collection\":true"), "{body}");
        assert!(body.contains("\"water\""), "{body}");
        let body = get(&r, "/.well-known/json/list/mols/water").body_text();
        assert!(body.contains("\"collection\":false"), "{body}");
        assert!(body.contains("\"content_type\":\"chemical/x-xyz\""), "{body}");
    }

    #[test]
    fn search_route_runs_the_planner() {
        let r = rig();
        let resp = get(
            &r,
            "/.well-known/json/search?scope=/mols&ns=urn:ecce&name=formula&eq=UO2",
        );
        assert_eq!(resp.status.code(), 200);
        let body = resp.body_text();
        assert!(body.contains("\"/mols/uranyl\""), "{body}");
        assert!(!body.contains("water"), "{body}");
        assert!(body.contains("\"indexed\":true"), "{body}");
    }

    #[test]
    fn search_route_pages_with_cursor() {
        let r = rig();
        let body = get(
            &r,
            "/.well-known/json/search?scope=/mols&ns=urn:ecce&name=formula&isdefined&limit=1",
        )
        .body_text();
        assert!(body.contains("\"/mols/uranyl\""), "{body}");
        assert!(body.contains("\"cursor\":"), "{body}");
        let cursor = body
            .split("\"cursor\":\"")
            .nth(1)
            .unwrap()
            .split('"')
            .next()
            .unwrap()
            .to_owned();
        let body = get(
            &r,
            &format!(
                "/.well-known/json/search?scope=/mols&ns=urn:ecce&name=formula&isdefined&limit=1&cursor={cursor}"
            ),
        )
        .body_text();
        assert!(body.contains("\"/mols/water\""), "{body}");
        assert!(!body.contains("uranyl"), "{body}");
    }

    #[test]
    fn bad_parameters_are_400s() {
        let r = rig();
        for q in [
            "/.well-known/json/search?eq=x",
            "/.well-known/json/search?ns=a&name=b&gt=abc",
            "/.well-known/json/search?depth=2",
            "/.well-known/json/search?bogus=1",
        ] {
            assert_eq!(get(&r, q).status.code(), 400, "{q}");
        }
        assert_eq!(get(&r, "/.well-known/json/unknown").status.code(), 404);
    }
}
