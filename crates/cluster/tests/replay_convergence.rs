//! Property tests for change-log replay: a fresh replica that applies
//! the primary's log — in any batch partitioning, with duplicated
//! deliveries — converges to byte-identical content and properties,
//! and the applier rejects out-of-order or gapped input outright.

use proptest::prelude::*;
use pse_cluster::apply::{Applier, ApplyError};
use pse_cluster::log::ChangeLog;
use pse_cluster::record::Entry;
use pse_dav::memrepo::MemRepository;
use pse_dav::property::{Property, PropertyName};
use pse_dav::repo::{PropPatchOp, Repository};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

const DOCS: [&str; 5] = ["/a", "/b", "/proj/x", "/proj/y", "/proj/z"];
const COLS: [&str; 2] = ["/proj", "/other"];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn prop_name(i: u64) -> PropertyName {
    PropertyName::new("urn:replay", &format!("p{}", i % 3))
}

/// Drive a random mutation history through a repository whose commit
/// hook feeds the log; failed operations are fine (they are not logged).
fn random_history(repo: &MemRepository, seed: u64, ops: usize) {
    let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    for n in 0..ops as u64 {
        let doc = DOCS[(lcg(&mut rng) % DOCS.len() as u64) as usize];
        let doc2 = DOCS[(lcg(&mut rng) % DOCS.len() as u64) as usize];
        match lcg(&mut rng) % 100 {
            0..=9 => {
                let col = COLS[(lcg(&mut rng) % COLS.len() as u64) as usize];
                let _ = repo.mkcol(col);
            }
            10..=39 => {
                let body = format!("seed{seed}-op{n}");
                let ct = if lcg(&mut rng).is_multiple_of(2) {
                    Some("text/plain")
                } else {
                    None
                };
                let _ = repo.put(doc, body.as_bytes(), ct);
            }
            40..=49 => {
                let _ = repo.delete(doc);
            }
            50..=57 => {
                let _ = repo.copy(doc, doc2, lcg(&mut rng).is_multiple_of(2));
            }
            58..=65 => {
                let _ = repo.rename(doc, doc2, lcg(&mut rng).is_multiple_of(2));
            }
            66..=85 => {
                let p = Property::text(prop_name(lcg(&mut rng)), &format!("v{n}"));
                let _ = repo.set_prop(doc, &p);
            }
            86..=92 => {
                let _ = repo.remove_prop(doc, &prop_name(lcg(&mut rng)));
            }
            _ => {
                let ops = [
                    PropPatchOp::Set(Property::text(prop_name(lcg(&mut rng)), &format!("w{n}"))),
                    PropPatchOp::Remove(prop_name(lcg(&mut rng))),
                ];
                let _ = repo.patch_props(doc, &ops);
            }
        }
    }
}

/// Full observable state of a repository: every path's kind, bytes, and
/// dead properties in storage form.
type Snapshot = BTreeMap<String, (bool, Vec<u8>, BTreeMap<Vec<u8>, Vec<u8>>)>;

fn snapshot(repo: &dyn Repository) -> Snapshot {
    let mut paths = Vec::new();
    repo.walk("/", None, &mut |p: &str| paths.push(p.to_owned()))
        .unwrap();
    let mut out = Snapshot::new();
    for p in paths {
        let meta = repo.meta(&p).unwrap();
        let body = if meta.is_collection {
            Vec::new()
        } else {
            repo.get(&p).unwrap()
        };
        // Dead properties only: live ones (getetag, getlastmodified, …)
        // are computed from server-local write counters and clocks, not
        // replicated state.
        let mut props = BTreeMap::new();
        for prop in repo.all_props(&p).unwrap() {
            if !prop.name.is_live() {
                props.insert(prop.name.storage_key(), prop.to_storage());
            }
        }
        out.insert(p, (meta.is_collection, body, props));
    }
    out
}

fn temp_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pse-replay-{tag}-{seed}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn rig(tag: &str, seed: u64) -> (MemRepository, Arc<ChangeLog>, PathBuf) {
    let dir = temp_dir(tag, seed);
    let log = ChangeLog::open(&dir).unwrap();
    let repo = MemRepository::new();
    log.record_commits(&repo);
    (repo, log, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any prefix-then-rebatch delivery schedule — random batch sizes,
    /// random re-delivery of earlier suffixes — converges a fresh
    /// replica to the primary's exact state.
    #[test]
    fn any_batching_converges_to_identical_state(
        seed in 0u64..1_000_000u64,
        ops in 20usize..80usize,
    ) {
        let (primary, log, pdir) = rig("conv", seed);
        random_history(&primary, seed, ops);
        let entries = log.read_after(0, usize::MAX).unwrap();

        let rdir = temp_dir("conv-replica", seed);
        let replica = MemRepository::new();
        let applier = Applier::open(&rdir).unwrap();

        let mut rng = seed.wrapping_add(7);
        let mut at = 0usize;
        while at < entries.len() {
            let len = 1 + (lcg(&mut rng) as usize) % 9;
            let end = (at + len).min(entries.len());
            // Sometimes re-deliver from an earlier point: the overlap
            // is a duplicate prefix the applier must dedup.
            let start = if lcg(&mut rng).is_multiple_of(3) && at > 0 {
                at - (1 + (lcg(&mut rng) as usize) % at.min(4))
            } else {
                at
            };
            let outcome = applier.apply_batch(&replica, &entries[start..end]).unwrap();
            prop_assert_eq!(outcome.deduped, at - start, "overlap is deduped, nothing else");
            at = end;
            if lcg(&mut rng).is_multiple_of(4) {
                // Full duplicate of the batch just sent: pure dedup.
                let dup = applier.apply_batch(&replica, &entries[start..end]).unwrap();
                prop_assert_eq!(dup.applied, 0);
                prop_assert_eq!(dup.deduped, end - start);
            }
        }
        prop_assert_eq!(applier.applied(), log.last_seq());
        prop_assert_eq!(snapshot(&replica), snapshot(&primary));

        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&rdir);
    }

    /// Skipping a batch is a hard error (gap), and delivering batches
    /// out of order is rejected without corrupting the replica: once
    /// the missing piece arrives in order, it still converges.
    #[test]
    fn gaps_and_disorder_are_rejected_then_recovered(
        seed in 0u64..1_000_000u64,
        ops in 20usize..60usize,
    ) {
        let (primary, log, pdir) = rig("gap", seed);
        random_history(&primary, seed, ops);
        let entries = log.read_after(0, usize::MAX).unwrap();
        prop_assume!(entries.len() >= 4);
        let mid = entries.len() / 2;

        let rdir = temp_dir("gap-replica", seed);
        let replica = MemRepository::new();
        let applier = Applier::open(&rdir).unwrap();

        // Deliver the second half first: gap.
        let gap_rejected = matches!(
            applier.apply_batch(&replica, &entries[mid..]),
            Err(ApplyError::Gap { .. })
        );
        prop_assert!(gap_rejected);
        prop_assert_eq!(applier.applied(), 0, "nothing applied across a gap");

        // A batch that is internally descending: out of order.
        let mut reversed: Vec<Entry> = entries[..2].to_vec();
        reversed.reverse();
        let disorder_rejected = matches!(
            applier.apply_batch(&replica, &reversed),
            Err(ApplyError::OutOfOrder { .. })
        );
        prop_assert!(disorder_rejected);
        prop_assert_eq!(applier.applied(), 0);

        // In-order delivery now converges exactly.
        applier.apply_batch(&replica, &entries[..mid]).unwrap();
        applier.apply_batch(&replica, &entries[mid..]).unwrap();
        prop_assert_eq!(applier.applied(), log.last_seq());
        prop_assert_eq!(snapshot(&replica), snapshot(&primary));

        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&rdir);
    }

    /// The log survives a process restart byte-for-byte: reopening the
    /// directory and replaying from scratch yields the same state.
    #[test]
    fn reopened_log_replays_identically(
        seed in 0u64..1_000_000u64,
        ops in 10usize..40usize,
    ) {
        let (primary, log, pdir) = rig("reopen", seed);
        random_history(&primary, seed, ops);
        let want = snapshot(&primary);
        let last = log.last_seq();
        drop((primary, log));

        let reopened = ChangeLog::open(&pdir).unwrap();
        prop_assert_eq!(reopened.last_seq(), last);
        let entries = reopened.read_after(0, usize::MAX).unwrap();

        let rdir = temp_dir("reopen-replica", seed);
        let replica = MemRepository::new();
        let applier = Applier::open(&rdir).unwrap();
        applier.apply_batch(&replica, &entries).unwrap();
        prop_assert_eq!(snapshot(&replica), want);

        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&rdir);
    }
}
