//! Consistent hashing over the DAV namespace.
//!
//! The hash key is the *shard key* of a canonical path: its first
//! segment. Sharding at top-level-collection granularity matches how a
//! PSE organises data (each Ecce project is a top-level collection) and
//! keeps every operation the protocol relates — MOVE within a project,
//! Depth-1 PROPFIND of a project, LOCK + PUT — on a single backend, so
//! no cross-shard transaction machinery is needed. Paths are already
//! canonicalised by `Target::parse` / `normalize_path` (the same
//! normalisation the path-lock table hashes), so equal resources always
//! hash to the same shard regardless of how the client spelled the URL.
//! A version-history URL shards with the document it is the history of,
//! so a history read or a revert COPY reaches the shard that holds the
//! history.
//!
//! The ring itself is classic consistent hashing: each backend
//! contributes `vnodes` points hashed around a u64 circle; a key is
//! owned by the first point clockwise. Adding a backend moves ~1/N of
//! the keyspace, which is what makes scale-out incremental.

use pse_cache::fnv1a_64;
use pse_dav::version::HISTORY_PREFIX;

/// FNV-1a plus a splitmix64-style finalizer. Raw FNV leaves sequential
/// keys (`project-0`, `project-1`, …) in one narrow band of the u64
/// circle — the last byte is multiplied only once — which defeats
/// consistent hashing's whole point. The finalizer avalanches every
/// input bit across the word.
fn ring_hash(key: &[u8]) -> u64 {
    let mut h = fnv1a_64(key);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// A consistent-hash ring mapping shard keys to backend indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// (point, backend index), sorted by point.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// A ring over `backends` backends with `vnodes` virtual nodes each.
    pub fn new(backends: usize, vnodes: usize) -> HashRing {
        assert!(backends > 0, "a ring needs at least one backend");
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(backends * vnodes);
        for b in 0..backends {
            for v in 0..vnodes {
                points.push((ring_hash(format!("backend-{b}:vnode-{v}").as_bytes()), b));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        HashRing { points }
    }

    /// The backend owning `key` (first ring point clockwise of its hash).
    pub fn backend_for(&self, key: &str) -> usize {
        let h = ring_hash(key.as_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points[idx % self.points.len()].1
    }
}

/// The live resource a canonical request path is about. A history URL
/// `/.well-known/history/<p>` or `/.well-known/history/<p>/<n>` is about
/// `/<p>`; every other path is about itself.
///
/// A trailing number is dropped: the server decides per request whether
/// `…/history/a/1` is version 1 of `/a` or the history of a versioned
/// `/a/1`, and `/a` is the one answer right for both (it shards with
/// `/a/1`, and writes to `/a/1` raise `/a`'s subtree read floor).
pub(crate) fn live_path(path: &str) -> &str {
    let Some(rest) = path
        .strip_prefix(HISTORY_PREFIX)
        .filter(|r| r.len() > 1 && r.starts_with('/'))
    else {
        return path;
    };
    match rest.rsplit_once('/') {
        Some((head, tail)) if !head.is_empty() && tail.parse::<u32>().is_ok() => head,
        _ => rest,
    }
}

/// The shard key of a canonical path: its first segment (`"/"` for the
/// root itself), a history URL counting as its document's path.
/// `/ProjA/calc/out.log` → `ProjA`, and so does
/// `/.well-known/history/ProjA/calc/out.log/3`.
pub fn shard_key(path: &str) -> &str {
    let path = live_path(path);
    let rest = path.strip_prefix('/').unwrap_or(path);
    match rest.split('/').next() {
        Some("") | None => "/",
        Some(first) => first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_key_is_the_first_segment() {
        assert_eq!(shard_key("/ProjA/calc/out.log"), "ProjA");
        assert_eq!(shard_key("/ProjA"), "ProjA");
        assert_eq!(shard_key("/"), "/");
        assert_eq!(shard_key("/.well-known/changes"), ".well-known");
    }

    #[test]
    fn history_urls_map_to_their_live_path() {
        for (path, live) in [
            ("/.well-known/history/ProjA/out.log/3", "/ProjA/out.log"),
            ("/.well-known/history/ProjA/out.log", "/ProjA/out.log"),
            // A lone number is a path, not a version of the root.
            ("/.well-known/history/7", "/7"),
            ("/.well-known/history", "/.well-known/history"),
            ("/.well-known/historyx/a", "/.well-known/historyx/a"),
            ("/.well-known/changes", "/.well-known/changes"),
            // Only history URLs drop a trailing number.
            ("/ProjA/3", "/ProjA/3"),
        ] {
            assert_eq!(live_path(path), live, "{path}");
        }
        assert_eq!(shard_key("/.well-known/history/ProjA/out.log/3"), "ProjA");
        assert_eq!(shard_key("/.well-known/history/ProjA/3"), "ProjA");
    }

    #[test]
    fn ring_is_deterministic_and_total() {
        let ring = HashRing::new(4, 64);
        for key in ["a", "b", "stress", "ProjA", "zzz"] {
            let b = ring.backend_for(key);
            assert!(b < 4);
            assert_eq!(ring.backend_for(key), b, "stable for {key}");
        }
    }

    #[test]
    fn keys_spread_across_backends() {
        let ring = HashRing::new(4, 64);
        let mut hit = [0usize; 4];
        for i in 0..1000 {
            hit[ring.backend_for(&format!("project-{i}"))] += 1;
        }
        for (b, &n) in hit.iter().enumerate() {
            assert!(n > 100, "backend {b} got only {n}/1000 keys: {hit:?}");
        }
    }

    #[test]
    fn growing_the_ring_moves_a_minority_of_keys() {
        let four = HashRing::new(4, 64);
        let five = HashRing::new(5, 64);
        let moved = (0..1000)
            .filter(|i| {
                let k = format!("project-{i}");
                four.backend_for(&k) != five.backend_for(&k)
            })
            .count();
        // Ideal is ~1/5 = 200; anything well under half proves
        // incremental rebalancing (vs modulo hashing's ~4/5).
        assert!(moved < 500, "adding a backend moved {moved}/1000 keys");
    }

    #[test]
    fn single_backend_owns_everything() {
        let ring = HashRing::new(1, 8);
        for key in ["a", "b", "c"] {
            assert_eq!(ring.backend_for(key), 0);
        }
    }
}
