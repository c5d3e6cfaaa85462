//! Model-based property tests: both DBM implementations must behave like
//! an in-memory map under arbitrary operation sequences, and must agree
//! with each other.

use proptest::prelude::*;
use pse_dbm::{open_dbm, DbmKind, StoreMode};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("pse-dbm-model-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[derive(Debug, Clone)]
enum Op {
    Store(String, Vec<u8>),
    Delete(String),
    Fetch(String),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small key universe so operations collide often.
    let key =
        prop_oneof![Just("a"), Just("b"), Just("c"), Just("d"), Just("e")].prop_map(str::to_owned);
    prop_oneof![
        (key.clone(), prop::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(k, v)| Op::Store(k, v)),
        key.clone().prop_map(Op::Delete),
        key.prop_map(Op::Fetch),
    ]
}

fn run_model(kind: DbmKind, ops: &[Op], dir: &std::path::Path) {
    let mut db = open_dbm(kind, &dir.join("m")).unwrap();
    let mut model: HashMap<String, Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            Op::Store(k, v) => {
                db.store(k.as_bytes(), v, StoreMode::Replace).unwrap();
                model.insert(k.clone(), v.clone());
            }
            Op::Delete(k) => {
                let was = db.delete(k.as_bytes()).unwrap();
                assert_eq!(was, model.remove(k).is_some(), "delete {k}");
            }
            Op::Fetch(k) => {
                assert_eq!(
                    db.fetch(k.as_bytes()).unwrap(),
                    model.get(k).cloned(),
                    "fetch {k}"
                );
            }
        }
        assert_eq!(db.len().unwrap(), model.len());
    }
    // Final full comparison, including after a reopen.
    drop(db);
    let mut db = open_dbm(kind, &dir.join("m")).unwrap();
    let mut keys = db.keys().unwrap();
    keys.sort();
    let mut expect: Vec<Vec<u8>> = model.keys().map(|k| k.as_bytes().to_vec()).collect();
    expect.sort();
    assert_eq!(keys, expect);
    for (k, v) in &model {
        assert_eq!(db.fetch(k.as_bytes()).unwrap().as_ref(), Some(v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sdbm_matches_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let d = scratch("sdbm");
        run_model(DbmKind::Sdbm, &ops, &d);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn gdbm_matches_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let d = scratch("gdbm");
        run_model(DbmKind::Gdbm, &ops, &d);
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// Compaction is invisible to readers for any data set.
    #[test]
    fn compact_is_transparent(
        pairs in prop::collection::hash_map("[a-z]{1,12}", prop::collection::vec(any::<u8>(), 0..300), 0..30),
        kind in prop_oneof![Just(DbmKind::Sdbm), Just(DbmKind::Gdbm)],
    ) {
        let d = scratch("compact");
        let mut db = open_dbm(kind, &d.join("m")).unwrap();
        for (k, v) in &pairs {
            db.store(k.as_bytes(), v, StoreMode::Replace).unwrap();
        }
        db.compact().unwrap();
        prop_assert_eq!(db.len().unwrap(), pairs.len());
        for (k, v) in &pairs {
            let got = db.fetch(k.as_bytes()).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        drop(db);
        std::fs::remove_dir_all(&d).unwrap();
    }
}

/// A heavier deterministic cross-check with many keys (exercises page
/// splits in SDBM and directory doubling in GDBM simultaneously).
#[test]
fn implementations_agree_under_load() {
    let d = scratch("agree");
    let mut sdbm = open_dbm(DbmKind::Sdbm, &d.join("s")).unwrap();
    let mut gdbm = open_dbm(DbmKind::Gdbm, &d.join("g")).unwrap();
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for i in 0..600 {
        let k = format!("key-{}", rng.random_range(0..200));
        if rng.random_bool(0.7) {
            let v = vec![b'v'; rng.random_range(0..400)];
            sdbm.store(k.as_bytes(), &v, StoreMode::Replace).unwrap();
            gdbm.store(k.as_bytes(), &v, StoreMode::Replace).unwrap();
        } else {
            assert_eq!(
                sdbm.delete(k.as_bytes()).unwrap(),
                gdbm.delete(k.as_bytes()).unwrap(),
                "step {i}"
            );
        }
        assert_eq!(sdbm.len().unwrap(), gdbm.len().unwrap());
    }
    let mut sk = sdbm.keys().unwrap();
    let mut gk = gdbm.keys().unwrap();
    sk.sort();
    gk.sort();
    assert_eq!(sk, gk);
    for k in sk {
        assert_eq!(sdbm.fetch(&k).unwrap(), gdbm.fetch(&k).unwrap());
    }
    drop((sdbm, gdbm));
    std::fs::remove_dir_all(&d).unwrap();
}
