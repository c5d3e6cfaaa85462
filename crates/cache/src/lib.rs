//! pse-cache: a small, dependency-free caching subsystem shared by the
//! DAV server (property/metadata cache), the DAV client (validating
//! response cache), and the benchmarks.
//!
//! Design points, driven by the workloads in this repository:
//!
//! * **Sharded**: keys hash to one of N independently locked shards, so
//!   the multi-threaded HTTP server's worker pool does not serialise on
//!   a single cache mutex.
//! * **Byte-budgeted LRU**: every entry carries an explicit cost in
//!   bytes; when a shard exceeds its share of the budget the least
//!   recently used entries are evicted. Recency is tracked with a
//!   `BTreeMap<stamp, key>` so eviction is `O(log n)` without intrusive
//!   lists.
//! * **Generation invalidation**: `invalidate_all` bumps a global
//!   generation counter in O(1); stale entries are dropped lazily on
//!   the next lookup. Targeted invalidation (`remove`,
//!   `invalidate_matching`) is also available for path-prefix flushes
//!   after COPY/MOVE/DELETE.
//! * **Optional TTL**: entries can expire after a fixed duration, for
//!   clients that tolerate bounded staleness.
//! * **Observable**: hit/miss/eviction/invalidation counters are kept
//!   with relaxed atomics and can be snapshotted cheaply; the repro
//!   harness asserts coherence through them.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// FNV-1a over a byte slice; used for shard selection and by callers
/// that need a stable content hash (e.g. multistatus state etags).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Cache tuning knobs.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Total byte budget across all shards. Zero disables storage
    /// entirely (every insert is a no-op), which gives benchmarks a
    /// true "cache off" arm without branching at call sites.
    pub capacity_bytes: usize,
    /// Shard count; rounded up to a power of two, minimum 1.
    pub shards: usize,
    /// Optional time-to-live applied to every entry.
    pub ttl: Option<Duration>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 4 * 1024 * 1024,
            shards: 8,
            ttl: None,
        }
    }
}

impl CacheConfig {
    /// A config with the given byte budget and defaults elsewhere.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        CacheConfig {
            capacity_bytes,
            ..CacheConfig::default()
        }
    }

    /// A config that stores nothing (all lookups miss).
    pub fn disabled() -> Self {
        CacheConfig::with_capacity(0)
    }
}

/// Point-in-time counter snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a live value.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Values stored (including replacements).
    pub insertions: u64,
    /// Entries dropped to enforce the byte budget.
    pub evictions: u64,
    /// Entries dropped by remove/invalidate_matching/invalidate_all
    /// (generation-stale entries count when they are swept).
    pub invalidations: u64,
    /// Entries dropped because their TTL elapsed.
    pub expirations: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups, or 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    expirations: AtomicU64,
}

impl Counters {
    fn new() -> Self {
        Counters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
        }
    }
}

struct Entry<V> {
    value: V,
    cost: usize,
    stamp: u64,
    generation: u64,
    expires: Option<Instant>,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// LRU order: stamp → key. Stamps are unique (global counter).
    order: BTreeMap<u64, K>,
    bytes: usize,
}

impl<K, V> Shard<K, V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            order: BTreeMap::new(),
            bytes: 0,
        }
    }
}

/// A sharded, byte-budgeted LRU cache. `K` must be cheap to clone
/// (paths and URLs here are `String`s); `V` is cloned out on hit, so
/// large values should be wrapped in `Arc` by the caller.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard_budget: usize,
    ttl: Option<Duration>,
    generation: AtomicU64,
    stamp: AtomicU64,
    counters: Counters,
}

impl<K, V> ShardedCache<K, V>
where
    K: Hash + Eq + Clone,
    V: Clone,
{
    /// Build a cache from `config`.
    pub fn new(config: CacheConfig) -> Self {
        let shard_count = config.shards.max(1).next_power_of_two();
        let shards = (0..shard_count).map(|_| Mutex::new(Shard::new())).collect();
        ShardedCache {
            shards,
            per_shard_budget: config.capacity_bytes / shard_count,
            ttl: config.ttl,
            generation: AtomicU64::new(0),
            stamp: AtomicU64::new(0),
            counters: Counters::new(),
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let idx = hasher.finish() as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    fn lock(&self, key: &K) -> std::sync::MutexGuard<'_, Shard<K, V>> {
        self.shard_for(key).lock().unwrap_or_else(|e| e.into_inner())
    }

    fn next_stamp(&self) -> u64 {
        self.stamp.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up `key`, refreshing its recency on hit. Generation-stale
    /// and expired entries are dropped here, lazily.
    pub fn get(&self, key: &K) -> Option<V> {
        let generation = self.generation.load(Ordering::Acquire);
        let mut shard = self.lock(key);
        let drop_reason = match shard.map.get(key) {
            None => {
                drop(shard);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Some(e) if e.generation != generation => Some(&self.counters.invalidations),
            Some(e) if e.expires.is_some_and(|t| Instant::now() >= t) => {
                Some(&self.counters.expirations)
            }
            Some(_) => None,
        };
        if let Some(counter) = drop_reason {
            if let Some(e) = shard.map.remove(key) {
                shard.order.remove(&e.stamp);
                shard.bytes -= e.cost;
            }
            drop(shard);
            counter.fetch_add(1, Ordering::Relaxed);
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let stamp = self.next_stamp();
        let e = shard.map.get_mut(key).expect("checked above");
        let old = std::mem::replace(&mut e.stamp, stamp);
        let value = e.value.clone();
        shard.order.remove(&old);
        shard.order.insert(stamp, key.clone());
        drop(shard);
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Look up `key` without refreshing its recency or counting a hit
    /// or miss, for callers that use a value only when it happens to be
    /// cached. Stale and expired entries read as absent and stay for
    /// [`get`](Self::get) to drop.
    pub fn peek(&self, key: &K) -> Option<V> {
        let generation = self.generation.load(Ordering::Acquire);
        let shard = self.lock(key);
        shard
            .map
            .get(key)
            .filter(|e| e.generation == generation)
            .filter(|e| e.expires.is_none_or(|t| Instant::now() < t))
            .map(|e| e.value.clone())
    }

    /// Store `value` under `key` with an explicit byte cost, evicting
    /// LRU entries as needed. Values too large for a shard's budget are
    /// simply not stored.
    pub fn insert(&self, key: K, value: V, cost: usize) {
        if cost > self.per_shard_budget {
            return;
        }
        let generation = self.generation.load(Ordering::Acquire);
        let stamp = self.next_stamp();
        let expires = self.ttl.map(|ttl| Instant::now() + ttl);
        let mut shard = self.lock(&key);
        if let Some(old) = shard.map.remove(&key) {
            shard.order.remove(&old.stamp);
            shard.bytes -= old.cost;
        }
        let mut evicted = 0u64;
        while shard.bytes + cost > self.per_shard_budget {
            let Some((&oldest, _)) = shard.order.iter().next() else {
                break;
            };
            let victim = shard.order.remove(&oldest).expect("stamp present");
            if let Some(e) = shard.map.remove(&victim) {
                shard.bytes -= e.cost;
            }
            evicted += 1;
        }
        shard.bytes += cost;
        shard.order.insert(stamp, key.clone());
        shard.map.insert(
            key,
            Entry {
                value,
                cost,
                stamp,
                generation,
                expires,
            },
        );
        drop(shard);
        self.counters.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.counters.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Drop one key. Returns true if it was present (and live).
    pub fn remove(&self, key: &K) -> bool {
        let mut shard = self.lock(key);
        if let Some(e) = shard.map.remove(key) {
            shard.order.remove(&e.stamp);
            shard.bytes -= e.cost;
            drop(shard);
            self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Drop every entry whose key matches `pred`. Used for subtree
    /// flushes (e.g. all cached paths under a moved collection).
    /// Returns the number of entries dropped.
    pub fn invalidate_matching(&self, pred: impl Fn(&K) -> bool) -> u64 {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            let victims: Vec<K> = shard.map.keys().filter(|k| pred(k)).cloned().collect();
            for k in victims {
                if let Some(e) = shard.map.remove(&k) {
                    shard.order.remove(&e.stamp);
                    shard.bytes -= e.cost;
                    dropped += 1;
                }
            }
        }
        if dropped > 0 {
            self.counters
                .invalidations
                .fetch_add(dropped, Ordering::Relaxed);
        }
        dropped
    }

    /// Invalidate every entry in O(1) by bumping the generation; stale
    /// entries are swept lazily as they are touched.
    pub fn invalidate_all(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of live-generation entries currently stored.
    pub fn len(&self) -> usize {
        let generation = self.generation.load(Ordering::Acquire);
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .map
                    .values()
                    .filter(|e| e.generation == generation)
                    .count()
            })
            .sum()
    }

    /// True when no live entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently accounted against the budget (includes entries
    /// awaiting lazy generation sweep).
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).bytes)
            .sum()
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            invalidations: self.counters.invalidations.load(Ordering::Relaxed),
            expirations: self.counters.expirations.load(Ordering::Relaxed),
        }
    }
}

impl<K, V> ShardedCache<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Contribute this cache's statistics to a metric registry under
    /// `prefix` (e.g. `dav.prop_cache`): the [`CacheStats`] counters
    /// plus entry-count and byte gauges. The registry holds only a
    /// [`Weak`] reference, so a registered cache can still be dropped;
    /// its metrics simply stop updating at their last values.
    pub fn register_obs(self: &Arc<Self>, registry: &Arc<pse_obs::Registry>, prefix: &str) {
        let weak: Weak<Self> = Arc::downgrade(self);
        let prefix = prefix.to_string();
        registry.register_source(&prefix.clone(), move |snap| {
            let Some(cache) = weak.upgrade() else { return };
            let s = cache.stats();
            snap.set_counter(&format!("{prefix}.hits"), s.hits);
            snap.set_counter(&format!("{prefix}.misses"), s.misses);
            snap.set_counter(&format!("{prefix}.insertions"), s.insertions);
            snap.set_counter(&format!("{prefix}.evictions"), s.evictions);
            snap.set_counter(&format!("{prefix}.invalidations"), s.invalidations);
            snap.set_counter(&format!("{prefix}.expirations"), s.expirations);
            snap.set_gauge(&format!("{prefix}.entries"), cache.len() as i64);
            snap.set_gauge(&format!("{prefix}.bytes"), cache.bytes() as i64);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_obs_exports_stats_through_weak_ref() {
        let c: Arc<ShardedCache<String, Vec<u8>>> = Arc::new(ShardedCache::new(CacheConfig {
            capacity_bytes: 1 << 20,
            shards: 2,
            ttl: None,
        }));
        let reg = pse_obs::Registry::new();
        c.register_obs(&reg, "test.cache");
        c.insert("k".to_string(), vec![1, 2, 3], 3);
        assert!(c.get(&"k".to_string()).is_some());
        assert!(c.get(&"absent".to_string()).is_none());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("test.cache.hits"), 1);
        assert_eq!(snap.counter("test.cache.misses"), 1);
        assert_eq!(snap.counter("test.cache.insertions"), 1);
        assert_eq!(snap.gauge("test.cache.entries"), 1);
        assert!(snap.gauge("test.cache.bytes") > 0);
        // Dropping the cache must not wedge the registry: the source
        // upgrades its Weak, finds nothing, and contributes nothing.
        drop(c);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("test.cache.hits"), 0);
    }

    fn cache(bytes: usize) -> ShardedCache<String, Vec<u8>> {
        ShardedCache::new(CacheConfig {
            capacity_bytes: bytes,
            shards: 1,
            ttl: None,
        })
    }

    #[test]
    fn hit_and_miss_counted() {
        let c = cache(1024);
        assert_eq!(c.get(&"a".to_string()), None);
        c.insert("a".into(), vec![1, 2, 3], 3);
        assert_eq!(c.get(&"a".to_string()), Some(vec![1, 2, 3]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn peek_neither_counts_nor_refreshes() {
        let c = cache(10);
        assert_eq!(c.peek(&"a".to_string()), None);
        c.insert("a".into(), vec![1; 4], 4);
        c.insert("b".into(), vec![2; 4], 4);
        assert_eq!(c.peek(&"a".to_string()), Some(vec![1; 4]));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        // "a" is still least recently used, so the next insert evicts it.
        c.insert("c".into(), vec![3; 4], 4);
        assert_eq!(c.peek(&"a".to_string()), None);
        assert_eq!(c.peek(&"b".to_string()), Some(vec![2; 4]));
        c.invalidate_all();
        assert_eq!(c.peek(&"b".to_string()), None, "stale generation");
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let c = cache(10);
        c.insert("a".into(), vec![0; 4], 4);
        c.insert("b".into(), vec![0; 4], 4);
        // Touch "a" so "b" is now least recently used.
        assert!(c.get(&"a".to_string()).is_some());
        c.insert("c".into(), vec![0; 4], 4);
        assert!(c.get(&"a".to_string()).is_some(), "recent key survives");
        assert!(c.get(&"b".to_string()).is_none(), "LRU key evicted");
        assert!(c.stats().evictions >= 1);
        assert!(c.bytes() <= 10);
    }

    #[test]
    fn replacement_updates_budget() {
        let c = cache(100);
        c.insert("k".into(), vec![0; 60], 60);
        c.insert("k".into(), vec![0; 10], 10);
        assert_eq!(c.bytes(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn oversized_values_are_skipped() {
        let c = cache(8);
        c.insert("big".into(), vec![0; 64], 64);
        assert!(c.get(&"big".to_string()).is_none());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn generation_invalidation_is_lazy_but_total() {
        let c = cache(1024);
        c.insert("a".into(), vec![1], 1);
        c.insert("b".into(), vec![2], 1);
        c.invalidate_all();
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(&"a".to_string()), None);
        assert_eq!(c.get(&"b".to_string()), None);
        // Entries inserted after the bump live in the new generation.
        c.insert("c".into(), vec![3], 1);
        assert_eq!(c.get(&"c".to_string()), Some(vec![3]));
    }

    #[test]
    fn remove_and_prefix_invalidation() {
        let c = cache(1024);
        c.insert("/p/a".into(), vec![1], 1);
        c.insert("/p/b".into(), vec![2], 1);
        c.insert("/q/c".into(), vec![3], 1);
        assert!(c.remove(&"/p/a".to_string()));
        assert!(!c.remove(&"/p/a".to_string()));
        let dropped = c.invalidate_matching(|k| k.starts_with("/p/"));
        assert_eq!(dropped, 1);
        assert!(c.get(&"/p/b".to_string()).is_none());
        assert_eq!(c.get(&"/q/c".to_string()), Some(vec![3]));
    }

    #[test]
    fn ttl_expires_entries() {
        let c: ShardedCache<String, u32> = ShardedCache::new(CacheConfig {
            capacity_bytes: 1024,
            shards: 1,
            ttl: Some(Duration::from_millis(10)),
        });
        c.insert("k".into(), 7, 4);
        assert_eq!(c.get(&"k".to_string()), Some(7));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(c.get(&"k".to_string()), None);
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let c = cache(0);
        c.insert("k".into(), vec![1], 1);
        assert_eq!(c.get(&"k".to_string()), None);
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn sharded_concurrent_use() {
        let c = std::sync::Arc::new(ShardedCache::<String, u64>::new(CacheConfig {
            capacity_bytes: 1 << 20,
            shards: 8,
            ttl: None,
        }));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let key = format!("k{}", (t * 500 + i) % 200);
                    c.insert(key.clone(), i, 8);
                    let _ = c.get(&key);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.insertions, 2000);
        assert!(s.hits > 0);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), fnv1a_64(b"a"));
        assert_ne!(fnv1a_64(b"a"), fnv1a_64(b"b"));
    }
}
