//! Linearizability checking for [`MemRepository`] — the reference
//! implementation the sharded path-lock protocol is validated against.
//!
//! Property-driven concurrent histories: several threads hammer a tiny
//! path universe with {PUT, PROPPATCH (via `patch_props`), PROPFIND
//! (via `get_props`/GET), DELETE}, every operation stamped with a
//! global logical clock at invocation and at response. Afterwards each
//! (path, facet) register is checked against the sequential register
//! model: a read may only return a value some write could legally have
//! left there — a write whose interval began before the read ended,
//! with no other completed write falling *entirely* between that
//! write's response and the read's invocation. Because every stored
//! value is unique, a stale or torn read has no legal witness and the
//! case fails with the offending history.

use proptest::prelude::*;
use pse_dav::memrepo::MemRepository;
use pse_dav::property::{Property, PropertyName};
use pse_dav::repo::{PropPatchOp, Repository};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PATHS: [&str; 4] = ["/p0", "/p1", "/p2", "/p3"];

/// Which register of the resource an event touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Facet {
    Body,
    Prop,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// The register now holds this value (None = absent).
    Write(Option<u64>),
    /// The register was observed to hold this value.
    Read(Option<u64>),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    path: usize,
    facet: Facet,
    kind: Kind,
    start: u64,
    end: u64,
}

fn prop_name() -> PropertyName {
    PropertyName::new("urn:lin", "v")
}

/// Deterministic per-thread PRNG (the shim's TestRng is not Send-shareable
/// across the worker threads, and the schedule must replay from the seed).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn run_history(seed: u64, threads: usize, ops_per_thread: usize) -> Vec<Event> {
    let repo = Arc::new(MemRepository::new());
    let clock = Arc::new(AtomicU64::new(1));
    let ticket = Arc::new(AtomicU64::new(1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let repo = Arc::clone(&repo);
            let clock = Arc::clone(&clock);
            let ticket = Arc::clone(&ticket);
            std::thread::spawn(move || {
                let mut rng = seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(t as u64 + 1);
                let mut events = Vec::with_capacity(ops_per_thread * 2);
                for _ in 0..ops_per_thread {
                    let path = (lcg(&mut rng) % PATHS.len() as u64) as usize;
                    let p = PATHS[path];
                    let roll = lcg(&mut rng) % 100;
                    let start = clock.fetch_add(1, Ordering::SeqCst);
                    match roll {
                        // PUT: unique body value; creating a document
                        // also resets its (empty) property register.
                        0..=24 => {
                            let v = ticket.fetch_add(1, Ordering::SeqCst);
                            let created = repo.put(p, v.to_string().as_bytes(), None).unwrap();
                            let end = clock.fetch_add(1, Ordering::SeqCst);
                            events.push(Event {
                                path,
                                facet: Facet::Body,
                                kind: Kind::Write(Some(v)),
                                start,
                                end,
                            });
                            if created {
                                events.push(Event {
                                    path,
                                    facet: Facet::Prop,
                                    kind: Kind::Write(None),
                                    start,
                                    end,
                                });
                            }
                        }
                        // PROPPATCH: atomic batch setting the register.
                        25..=39 => {
                            let v = ticket.fetch_add(1, Ordering::SeqCst);
                            let ops = [PropPatchOp::Set(Property::text(
                                prop_name(),
                                &v.to_string(),
                            ))];
                            let r = repo.patch_props(p, &ops);
                            let end = clock.fetch_add(1, Ordering::SeqCst);
                            if r.is_ok() {
                                events.push(Event {
                                    path,
                                    facet: Facet::Prop,
                                    kind: Kind::Write(Some(v)),
                                    start,
                                    end,
                                });
                            }
                        }
                        // DELETE: both registers become absent.
                        40..=49 => {
                            let r = repo.delete(p);
                            let end = clock.fetch_add(1, Ordering::SeqCst);
                            if r.is_ok() {
                                for facet in [Facet::Body, Facet::Prop] {
                                    events.push(Event {
                                        path,
                                        facet,
                                        kind: Kind::Write(None),
                                        start,
                                        end,
                                    });
                                }
                            }
                        }
                        // GET: observe the body register.
                        50..=74 => {
                            let v = repo
                                .get(p)
                                .ok()
                                .map(|b| String::from_utf8(b).unwrap().parse::<u64>().unwrap());
                            let end = clock.fetch_add(1, Ordering::SeqCst);
                            events.push(Event {
                                path,
                                facet: Facet::Body,
                                kind: Kind::Read(v),
                                start,
                                end,
                            });
                        }
                        // PROPFIND: observe the property register through
                        // the snapshot read the handler uses.
                        _ => {
                            let v = repo
                                .get_props(p, &[prop_name()])
                                .ok()
                                .and_then(|mut r| r.pop().flatten())
                                .map(|prop| prop.text_value().parse::<u64>().unwrap());
                            let end = clock.fetch_add(1, Ordering::SeqCst);
                            events.push(Event {
                                path,
                                facet: Facet::Prop,
                                kind: Kind::Read(v),
                                start,
                                end,
                            });
                        }
                    }
                }
                events
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect()
}

/// Check one register's reads against its writes. Returns the first
/// violation, described, or None.
fn check_register(events: &[Event]) -> Option<String> {
    // The path starts absent: a virtual write of None before the clock.
    let mut writes: Vec<(u64, u64, Option<u64>)> = vec![(0, 0, None)];
    writes.extend(events.iter().filter_map(|e| match e.kind {
        Kind::Write(v) => Some((e.start, e.end, v)),
        Kind::Read(_) => None,
    }));
    for e in events {
        let Kind::Read(observed) = e.kind else {
            continue;
        };
        // A witness write W: same value, invoked before the read
        // responded, and not definitively superseded — no other write
        // completing entirely within (W.end, read.start).
        let legal = writes.iter().any(|&(ws, we, wv)| {
            wv == observed
                && ws <= e.end
                && !writes.iter().any(|&(os, oe, _)| os > we && oe < e.start)
        });
        if !legal {
            return Some(format!(
                "read of {observed:?} at [{}, {}] on {} ({:?}) has no legal \
                 witness among writes {writes:?}",
                e.start, e.end, PATHS[e.path], e.facet
            ));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn mem_repository_histories_are_linearizable(
        seed in 0u64..1_000_000u64,
        threads in 2usize..5usize,
        ops in 25usize..60usize,
    ) {
        let events = run_history(seed, threads, ops);
        for path in 0..PATHS.len() {
            for facet in [Facet::Body, Facet::Prop] {
                let register: Vec<Event> = events
                    .iter()
                    .copied()
                    .filter(|e| e.path == path && e.facet == facet)
                    .collect();
                if let Some(violation) = check_register(&register) {
                    prop_assert!(false, "seed={seed} threads={threads}: {violation}");
                }
            }
        }
    }
}

/// The same checker must reject a genuinely stale history — guards
/// against the test silently passing everything.
#[test]
fn checker_rejects_stale_read() {
    let events = vec![
        Event {
            path: 0,
            facet: Facet::Body,
            kind: Kind::Write(Some(1)),
            start: 1,
            end: 2,
        },
        Event {
            path: 0,
            facet: Facet::Body,
            kind: Kind::Write(Some(2)),
            start: 3,
            end: 4,
        },
        // Reads v=1 even though the write of v=2 completed strictly
        // between the first write's response and this invocation.
        Event {
            path: 0,
            facet: Facet::Body,
            kind: Kind::Read(Some(1)),
            start: 5,
            end: 6,
        },
    ];
    assert!(check_register(&events).is_some());
}

/// And it must accept a plainly sequential history.
#[test]
fn checker_accepts_sequential_history() {
    let events = vec![
        Event {
            path: 0,
            facet: Facet::Body,
            kind: Kind::Read(None),
            start: 1,
            end: 2,
        },
        Event {
            path: 0,
            facet: Facet::Body,
            kind: Kind::Write(Some(7)),
            start: 3,
            end: 4,
        },
        Event {
            path: 0,
            facet: Facet::Body,
            kind: Kind::Read(Some(7)),
            start: 5,
            end: 6,
        },
    ];
    assert!(check_register(&events).is_none());
}
