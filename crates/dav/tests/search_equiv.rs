//! SEARCH correctness sweep: the indexed planner must be *undetectable*
//! except by speed.
//!
//! * Property-driven equivalence: random mutation histories over mem-
//!   and fs-repositories, then a battery of queries executed twice —
//!   once through the planner, once by walk-and-scan — must agree
//!   byte-for-byte (the index also has to survive a process restart and
//!   deliberate on-disk corruption).
//! * SEARCH racing DELETE: a query never aborts because a resource
//!   vanished between candidate discovery and property fetch.
//! * Torn answers: a covered SEARCH (answered from the index alone)
//!   never sees a mutation half applied.
//! * The protocol path: SEARCH through gzip content-coding, through a
//!   fault-injecting proxy with retries, and pipelined back-to-back on
//!   one connection.

use proptest::prelude::*;
use pse_dav::client::DavClient;
use pse_dav::fsrepo::{FsConfig, FsRepository};
use pse_dav::handler::DavHandler;
use pse_dav::memrepo::MemRepository;
use pse_dav::multistatus::Multistatus;
use pse_dav::property::{Property, PropertyName};
use pse_dav::repo::{PropPatchOp, Repository};
use pse_dav::search::{self, Condition, Query};
use pse_dav::server::serve;
use pse_http::fault::{Fault, FaultProxy, Point, Schedule};
use pse_http::retry::RetryPolicy;
use pse_http::server::ServerConfig;
use pse_xml::dom::{Element, Node};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static N: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("davpse-searcheq-{tag}-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

const NS: &str = "urn:eq";

/// Three names in [`NS`], and one in no namespace.
fn names() -> [PropertyName; 4] {
    let [formula, charge, note] = ["formula", "charge", "note"].map(|l| PropertyName::new(NS, l));
    [formula, charge, note, PropertyName::new("", "bare")]
}

/// Value pool: strings, numerics (including negative and zero, which
/// exercise the numeric side-index's sign handling), and one value past
/// the index's full-text cap so capped postings stay on the hot path.
fn values() -> Vec<String> {
    let mut v: Vec<String> = ["H2O", "UO2", "OH", "0", "-2", "3.5", "-0.0", "not a number"]
        .map(str::to_owned)
        .to_vec();
    v.push("x".repeat(1500));
    v
}

/// The value `name` takes for pool entry `i`: a plain-text value of
/// [`values`], or past those one of three values that are not plain
/// text, each reading "H2O" — inside a child element, under an
/// `xml:lang` attribute, beside a comment. A covered SEARCH must decline
/// them and fall back to reading the properties.
fn prop_of(name: &PropertyName, i: usize) -> Property {
    let vals = values();
    if let Some(v) = vals.get(i) {
        return Property::text(name.clone(), v);
    }
    let ns = (!name.namespace.is_empty()).then_some(name.namespace.as_str());
    let mut value = Element::new(ns, &name.local);
    match i - vals.len() {
        0 => {
            let mut child = Element::new(ns, "mol");
            child.push_text("H2O");
            value.push_elem(child);
        }
        1 => {
            value.set_attr(Some("http://www.w3.org/XML/1998/namespace"), "lang", "en");
            value.push_text("H2O");
        }
        _ => {
            value.push_text("H2O");
            value.children.push(Node::Comment(" solvent ".into()));
        }
    }
    Property::from_element(value)
}

/// Pool size for [`prop_of`].
fn pool_len() -> usize {
    values().len() + 3
}

/// Drive a deterministic random mutation history over every repository
/// mutation point the index hooks: PUT, MKCOL, PROPPATCH (single and
/// batched), DELETE, COPY, MOVE. Errors are expected (racing shapes,
/// missing parents) and ignored — the index must stay coherent anyway.
fn apply_history(repo: &dyn Repository, seed: u64, ops: usize) {
    let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let _ = repo.mkcol("/c0");
    let _ = repo.mkcol("/c1");
    let nms = names();
    let path_of = |r: u64| -> String {
        match r % 6 {
            0 => "/c0".into(),
            1 => "/c1".into(),
            k => format!("/c{}/d{}", k % 2, r % 4),
        }
    };
    for _ in 0..ops {
        let p = path_of(lcg(&mut rng));
        let name = &nms[(lcg(&mut rng) as usize) % nms.len()];
        let val = prop_of(name, (lcg(&mut rng) as usize) % pool_len());
        match lcg(&mut rng) % 10 {
            0 | 1 => {
                let _ = repo.put(&p, b"body", None);
            }
            2 | 3 => {
                let _ = repo.set_prop(&p, &val);
            }
            4 => {
                let _ = repo.remove_prop(&p, name);
            }
            5 => {
                let other = &nms[(lcg(&mut rng) as usize) % nms.len()];
                let _ = repo.patch_props(
                    &p,
                    &[PropPatchOp::Set(val), PropPatchOp::Remove(other.clone())],
                );
            }
            6 => {
                let _ = repo.delete(&p);
            }
            7 => {
                let dst = path_of(lcg(&mut rng));
                if dst != p {
                    let _ = repo.copy(&p, &dst, true);
                }
            }
            8 => {
                let dst = path_of(lcg(&mut rng));
                if dst != p {
                    let _ = repo.rename(&p, &dst, true);
                }
            }
            _ => {
                let _ = repo.mkcol(&format!("/c{}/sub", lcg(&mut rng) % 2));
            }
        }
    }
}

/// Does `cond` read `name`?
fn mentions(cond: &Condition, name: &PropertyName) -> bool {
    match cond {
        Condition::Eq(n, _)
        | Condition::Contains(n, _)
        | Condition::Gt(n, _)
        | Condition::Lt(n, _)
        | Condition::IsDefined(n) => n == name,
        Condition::And(cs) | Condition::Or(cs) => cs.iter().any(|c| mentions(c, name)),
        Condition::Not(c) => mentions(c, name),
        Condition::True => false,
    }
}

/// The `select` lists each condition runs under: allprop; the first
/// name; a name the condition does not read (both take the narrowed
/// path, evaluated on named properties, or, for an `eq` on the first
/// name, the covered path); a list with a live name, which falls back
/// to `all_props`; and every name the condition reads, in [`names`]
/// order (covered for an `and` of `eq`s).
fn selects(cond: &Condition) -> [Vec<PropertyName>; 5] {
    let nms = names();
    let unread = nms
        .iter()
        .find(|n| !mentions(cond, n))
        .expect("every condition leaves a name unread")
        .clone();
    [
        Vec::new(),
        vec![nms[0].clone()],
        vec![unread],
        vec![nms[0].clone(), PropertyName::dav("getcontentlength")],
        nms.iter().filter(|n| mentions(cond, n)).cloned().collect(),
    ]
}

/// The oracle: the allprop scan of `q`, with each match's properties
/// projected onto `q.select` in select order (identity for allprop).
fn projected_scan(repo: &dyn Repository, q: &Query) -> Multistatus {
    let allprop = Query {
        select: Vec::new(),
        limit: None,
        cursor: None,
        ..q.clone()
    };
    let mut ms = search::execute_scan(repo, &allprop).unwrap();
    if !q.select.is_empty() {
        for entry in &mut ms.responses {
            let props: Vec<Property> = entry.ok_props().cloned().collect();
            entry.propstats[0].props = q
                .select
                .iter()
                .filter_map(|n| props.iter().find(|p| &p.name == n).cloned())
                .collect();
        }
    }
    ms
}

/// The query battery: every operator, the boolean compositions, plus
/// paging, each under allprop and three `select` lists — executed with
/// the planner and compared exactly with the projected allprop scan.
fn assert_index_matches_scan(repo: &dyn Repository, context: &str) {
    let nms = names();
    let long = "x".repeat(1500);
    let mut conditions = vec![Condition::True, Condition::IsDefined(nms[0].clone())];
    for v in ["H2O", "0", "-2", "not a number", long.as_str()] {
        conditions.push(Condition::Eq(nms[0].clone(), v.into()));
        conditions.push(Condition::Eq(nms[1].clone(), v.into()));
    }
    for t in [-2.0, -0.0, 0.0, 3.5] {
        conditions.push(Condition::Gt(nms[1].clone(), t));
        conditions.push(Condition::Lt(nms[1].clone(), t));
    }
    conditions.push(Condition::Contains(nms[2].clone(), "O".into()));
    conditions.push(Condition::And(vec![
        Condition::IsDefined(nms[0].clone()),
        Condition::Gt(nms[1].clone(), -1.0),
    ]));
    conditions.push(Condition::Or(vec![
        Condition::Eq(nms[0].clone(), "H2O".into()),
        Condition::Eq(nms[0].clone(), "UO2".into()),
    ]));
    conditions.push(Condition::Not(Box::new(Condition::Eq(
        nms[0].clone(),
        "H2O".into(),
    ))));
    conditions.push(Condition::Eq(nms[3].clone(), "H2O".into()));
    conditions.push(Condition::And(vec![
        Condition::Eq(nms[0].clone(), "H2O".into()),
        Condition::Eq(nms[3].clone(), "H2O".into()),
    ]));
    for (i, cond) in conditions.into_iter().enumerate() {
        for select in selects(&cond) {
            for scope in ["/", "/c0"] {
                if !repo.exists(scope) {
                    continue;
                }
                for depth in [None, Some(1)] {
                    let q = Query {
                        depth,
                        select: select.clone(),
                        ..Query::new(scope, cond.clone())
                    };
                    // Planner first: the oracle's walk loads every
                    // snapshot into the property cache.
                    let indexed = search::execute(repo, &q).unwrap().to_xml();
                    let expected = projected_scan(repo, &q).to_xml();
                    let what = format!(
                        "{context}: query #{i} {cond:?} select={select:?} scope={scope} depth={depth:?}"
                    );
                    assert_eq!(indexed, expected, "{what}");
                    assert_eq!(
                        search::execute_scan(repo, &q).unwrap().to_xml(),
                        expected,
                        "scan projection, {what}"
                    );
                }
            }
            // Paged traversal must return exactly the oracle's matches.
            let mut q = Query {
                limit: Some(2),
                select: select.clone(),
                ..Query::new("/", cond.clone())
            };
            let mut paged = Multistatus::new();
            loop {
                let out = search::execute_paged(repo, &q).unwrap();
                paged.responses.extend(out.ms.responses);
                match out.next_cursor {
                    Some(c) => q.cursor = Some(c),
                    None => break,
                }
            }
            let expected = projected_scan(repo, &q).to_xml();
            assert_eq!(
                paged.to_xml(),
                expected,
                "{context}: paging of query #{i} {cond:?} select={select:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn mem_index_equivalent_to_scan(seed in 0u64..1_000_000u64, ops in 30usize..120usize) {
        let repo = MemRepository::new();
        apply_history(&repo, seed, ops);
        assert_index_matches_scan(&repo, &format!("mem seed={seed} ops={ops}"));
    }

    #[test]
    fn fs_index_equivalent_to_scan_and_survives_restart(
        seed in 0u64..1_000_000u64,
        ops in 20usize..60usize,
    ) {
        let dir = temp_dir("prop");
        {
            let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
            apply_history(&repo, seed, ops);
            assert_index_matches_scan(&repo, &format!("fs seed={seed}"));
        }
        // Reopen: the persisted snapshot+journal must answer identically.
        {
            let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
            assert_index_matches_scan(&repo, &format!("fs-reopen seed={seed}"));
        }
        // Without a property cache every named read goes straight to the
        // DBM; the stages around this one read cached snapshots.
        {
            let config = FsConfig { property_cache_bytes: 0, ..FsConfig::default() };
            let repo = FsRepository::create(&dir, config).unwrap();
            assert_index_matches_scan(&repo, &format!("fs-uncached seed={seed}"));
        }
        // Corrupt the journal, then the snapshot: open() must fall back
        // to a rebuild from the property databases, not trust the wreck.
        let index_dir = dir.join(".DAV").join("index");
        std::fs::write(index_dir.join("journal.log"), b"garbage without checksum").unwrap();
        {
            let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
            assert_index_matches_scan(&repo, &format!("fs-bad-journal seed={seed}"));
        }
        std::fs::write(index_dir.join("snapshot.idx"), vec![0xAA; 512]).unwrap();
        {
            let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
            assert_index_matches_scan(&repo, &format!("fs-bad-snapshot seed={seed}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Regression for the vanish race: SEARCH used to abort the whole query
/// with 404 when any walked resource was DELETEd before its property
/// fetch. Hammer queries against concurrent delete/recreate cycles —
/// every query must succeed, and every returned match must be a path
/// that plausibly existed.
#[test]
fn search_never_aborts_while_racing_delete() {
    let repo = Arc::new(MemRepository::new());
    repo.mkcol("/race").unwrap();
    let name = PropertyName::new(NS, "tag");
    for i in 0..8 {
        let p = format!("/race/d{i}");
        repo.put(&p, b"", None).unwrap();
        repo.set_prop(&p, &Property::text(name.clone(), "yes"))
            .unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let churner = {
        let repo = Arc::clone(&repo);
        let stop = Arc::clone(&stop);
        let name = name.clone();
        std::thread::spawn(move || {
            let mut rng = 42u64;
            while !stop.load(Ordering::SeqCst) {
                let p = format!("/race/d{}", lcg(&mut rng) % 8);
                if lcg(&mut rng) % 2 == 0 {
                    let _ = repo.delete(&p);
                } else {
                    let _ = repo.put(&p, b"", None);
                    let _ = repo.set_prop(&p, &Property::text(name.clone(), "yes"));
                }
            }
        })
    };
    let q = Query::new("/race", Condition::IsDefined(name.clone()));
    for i in 0..400 {
        // Alternate planner and scan: the race window differs (index
        // candidates vs walk), both must tolerate the vanish.
        let result = if i % 2 == 0 {
            search::execute(repo.as_ref(), &q)
        } else {
            search::execute_scan(repo.as_ref(), &q)
        };
        let ms = result.unwrap_or_else(|e| panic!("query #{i} aborted: {e}"));
        for entry in &ms.responses {
            assert!(entry.href.starts_with("/race/d"), "{}", entry.href);
        }
    }
    stop.store(true, Ordering::SeqCst);
    churner.join().unwrap();
}

/// Iterations of the torn-answer detector; `ci.sh --stress` raises it.
fn torn_searches() -> usize {
    std::env::var("PSE_TORN_SEARCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000)
}

/// A covered SEARCH answers from the index at one instant, without a
/// lock plan, so each mutation must change the index in one step. In
/// every committed state here `/t/a` and `/t/b` hold `f=X`, while one
/// writer PROPPATCHes `/t/a` with `{Set f=Y, Set f=X}` and another
/// COPYs and MOVEs documents holding `f=X` onto `/t/b` with overwrite.
/// A covered SEARCH for `f=X` must return both paths every time: one
/// index call per instruction would show `f=Y` on `/t/a`, and clearing
/// the destination apart from the copy would show `/t/b` without `f`.
fn assert_no_torn_covered_answer(repo: Arc<dyn Repository>, context: &str) {
    let f = PropertyName::new(NS, "f");
    let x = Property::text(f.clone(), "X");
    repo.mkcol("/t").unwrap();
    for p in ["/t/a", "/t/b", "/t/src"] {
        repo.put(p, b"", None).unwrap();
        repo.set_prop(p, &x).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let patcher = {
        let (repo, stop, f, x) = (Arc::clone(&repo), Arc::clone(&stop), f.clone(), x.clone());
        std::thread::spawn(move || {
            let ops = [
                PropPatchOp::Set(Property::text(f, "Y")),
                PropPatchOp::Set(x),
            ];
            while !stop.load(Ordering::SeqCst) {
                repo.patch_props("/t/a", &ops).unwrap();
            }
        })
    };
    let copier = {
        let (repo, stop, x) = (Arc::clone(&repo), Arc::clone(&stop), x.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                repo.copy("/t/src", "/t/b", true).unwrap();
                repo.put("/t/m", b"", None).unwrap();
                repo.set_prop("/t/m", &x).unwrap();
                repo.rename("/t/m", "/t/b", true).unwrap();
            }
        })
    };
    let q = Query {
        select: vec![f.clone()],
        ..Query::new("/t", Condition::Eq(f.clone(), "X".into()))
    };
    for i in 0..torn_searches() {
        let out = search::execute_paged(repo.as_ref(), &q).unwrap();
        assert!(out.covered, "{context}: search #{i} was not covered");
        let hrefs: Vec<&str> = out.ms.responses.iter().map(|e| e.href.as_str()).collect();
        assert!(
            hrefs.contains(&"/t/a") && hrefs.contains(&"/t/b"),
            "{context}: search #{i} saw a torn mutation: {hrefs:?}"
        );
    }
    stop.store(true, Ordering::SeqCst);
    patcher.join().unwrap();
    copier.join().unwrap();
}

#[test]
fn covered_search_never_sees_a_torn_mutation() {
    assert_no_torn_covered_answer(Arc::new(MemRepository::new()), "mem");
    let dir = temp_dir("torn");
    let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
    assert_no_torn_covered_answer(Arc::new(repo), "fs");
    let _ = std::fs::remove_dir_all(&dir);
}

fn molecule_server() -> (pse_http::server::Server, std::path::PathBuf) {
    let dir = temp_dir("srv");
    let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
    repo.mkcol("/mols").unwrap();
    for i in 0..30 {
        let p = format!("/mols/m{i:02}");
        repo.put(&p, b"geometry", None).unwrap();
        repo.set_prop(
            &p,
            &Property::text(
                PropertyName::new(NS, "formula"),
                if i % 3 == 0 { "H2O" } else { "UO2" },
            ),
        )
        .unwrap();
    }
    let server = serve(
        "127.0.0.1:0",
        ServerConfig::default(),
        DavHandler::new(repo),
    )
    .unwrap();
    (server, dir)
}

fn eq_search_body(value: &str) -> String {
    format!(
        r#"<D:searchrequest xmlns:D="DAV:" xmlns:q="{NS}"><D:basicsearch>
          <D:from><D:scope><D:href>/mols</D:href></D:scope></D:from>
          <D:where><D:eq><D:prop><q:formula/></D:prop><D:literal>{value}</D:literal></D:eq></D:where>
        </D:basicsearch></D:searchrequest>"#
    )
}

/// SEARCH through the gzip content-coding: the 207 is large enough to
/// compress, and the client's transparent decode must hand back the
/// same multistatus a plain client sees.
#[test]
fn search_through_gzip_roundtrips() {
    let (server, dir) = molecule_server();
    let addr = server.local_addr();

    // Raw exchange first: prove the coding actually happened on the wire.
    let body = eq_search_body("UO2");
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(
        format!(
            "SEARCH / HTTP/1.1\r\nContent-Type: text/xml\r\nAccept-Encoding: gzip\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let head = String::from_utf8_lossy(&raw[..head_end]).to_ascii_lowercase();
    assert!(head.starts_with("http/1.1 207"), "{head}");
    assert!(head.contains("content-encoding: gzip"), "{head}");
    let xml = pse_http::gzip::decompress(&raw[head_end..], 10 * 1024 * 1024).unwrap();
    let text = String::from_utf8(xml).unwrap();
    assert_eq!(text.matches("<D:href>").count(), 20, "{text}");

    // And through the client's negotiated path.
    let mut c = DavClient::connect(addr).unwrap();
    c.http().set_accept_gzip(true);
    let ms = c.search_raw(&body).unwrap();
    assert_eq!(ms.responses.len(), 20);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// SEARCH is idempotent: under connection resets, truncation, and
/// corruption from a fault proxy, the retry policy must deliver the
/// right answer anyway.
#[test]
fn search_survives_fault_proxy() {
    let (server, dir) = molecule_server();
    let addr = server.local_addr();
    let faults = [
        Fault::Reset(Point::BeforeRequest),
        Fault::Reset(Point::MidResponse),
        Fault::Truncate(10),
        Fault::Corrupt,
    ];
    for fault in faults {
        let proxy = FaultProxy::start(addr, Schedule::Script(vec![fault])).unwrap();
        let mut c = DavClient::connect(proxy.addr()).unwrap();
        c.http().set_accept_gzip(true);
        c.set_retry_policy(RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            jitter: 0.5,
            seed: 3,
            deadline: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
        });
        let hrefs = c
            .search_eq_paged("/mols", &PropertyName::new(NS, "formula"), "H2O", 3)
            .unwrap_or_else(|e| panic!("search under {}: {e}", fault.label()));
        assert_eq!(hrefs.len(), 10, "under {}", fault.label());
        assert_eq!(
            proxy.stats().fired_count(&fault.label()),
            1,
            "{} did not fire",
            fault.label()
        );
        proxy.shutdown();
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two SEARCHes written back-to-back before reading anything: the
/// server must frame both 207s correctly on one connection.
#[test]
fn pipelined_search_framing() {
    let (server, dir) = molecule_server();
    let b1 = eq_search_body("H2O");
    let b2 = eq_search_body("UO2");
    let mut wire = Vec::new();
    for b in [&b1, &b2] {
        wire.extend_from_slice(
            format!(
                "SEARCH / HTTP/1.1\r\nContent-Type: text/xml\r\nContent-Length: {}\r\n\r\n",
                b.len()
            )
            .as_bytes(),
        );
        wire.extend_from_slice(b.as_bytes());
    }
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(&wire).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(text.matches("HTTP/1.1 207").count(), 2, "{text}");
    // First answer has the 10 H2O matches, second the 20 UO2 ones —
    // framing intact means 30 hrefs total across the two bodies.
    assert_eq!(text.matches("<D:href>").count(), 30, "{text}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
