//! The cache-forward client.
//!
//! Ecce 1.5's OODBMS kept a client-side object cache fed from the
//! server ("a cache-forward architecture as used by Ecce"). The paper
//! found that "the typical workflow processes that a user performs
//! within Ecce did not derive significant benefit" from it — a claim the
//! Table 3 bench revisits. [`CacheForwardClient`] wraps a shared store
//! with an object cache that is invalidated by the store's generation
//! counter.

use crate::error::Result;
use crate::store::{OodbStore, StoredObject};
use crate::value::{FieldValue, Oid};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Served from the client cache.
    pub hits: u64,
    /// Fetched from the server.
    pub misses: u64,
    /// Whole-cache invalidations observed.
    pub invalidations: u64,
}

/// A client handle onto a shared store, with a local object cache.
pub struct CacheForwardClient {
    server: Arc<Mutex<OodbStore>>,
    cache: HashMap<Oid, StoredObject>,
    seen_generation: u64,
    stats: CacheStats,
}

impl CacheForwardClient {
    /// Attach to a server.
    pub fn new(server: Arc<Mutex<OodbStore>>) -> CacheForwardClient {
        CacheForwardClient {
            server,
            cache: HashMap::new(),
            seen_generation: 0,
            stats: CacheStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn sync_generation(&mut self, server: &OodbStore) {
        let gen = server.generation();
        if gen != self.seen_generation {
            // A write happened somewhere: drop the whole cache. (The
            // real system forwarded finer-grained invalidations; whole-
            // cache drop is the conservative model.)
            if !self.cache.is_empty() {
                self.stats.invalidations += 1;
            }
            self.cache.clear();
            self.seen_generation = gen;
        }
    }

    /// Fetch through the cache.
    pub fn fetch(&mut self, oid: Oid) -> Result<StoredObject> {
        let server_arc = Arc::clone(&self.server);
        let server = server_arc.lock();
        self.sync_generation(&server);
        if let Some(obj) = self.cache.get(&oid) {
            self.stats.hits += 1;
            return Ok(obj.clone());
        }
        let obj = server.fetch(oid)?;
        drop(server);
        self.stats.misses += 1;
        self.cache.insert(oid, obj.clone());
        Ok(obj)
    }

    /// Create through to the server (invalidates peers' caches via the
    /// generation counter).
    pub fn create(&mut self, class: &str, fields: Vec<(String, FieldValue)>) -> Result<Oid> {
        let mut server = self.server.lock();
        let oid = server.create(class, fields)?;
        self.seen_generation = server.generation();
        drop(server);
        self.cache.clear();
        Ok(oid)
    }

    /// Update through to the server.
    pub fn update(&mut self, oid: Oid, fields: Vec<(String, FieldValue)>) -> Result<()> {
        let mut server = self.server.lock();
        server.update(oid, fields)?;
        self.seen_generation = server.generation();
        drop(server);
        self.cache.clear();
        Ok(())
    }

    /// Delete through to the server.
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        let mut server = self.server.lock();
        server.delete(oid)?;
        self.seen_generation = server.generation();
        drop(server);
        self.cache.remove(&oid);
        Ok(())
    }

    /// Scan a class (bypasses the object cache, populating it).
    pub fn scan_class(&mut self, class: &str) -> Result<Vec<StoredObject>> {
        let server_arc = Arc::clone(&self.server);
        let server = server_arc.lock();
        self.sync_generation(&server);
        let objs = server.scan_class(class)?;
        drop(server);
        for o in &objs {
            self.cache.insert(o.oid, o.clone());
        }
        self.stats.misses += objs.len() as u64;
        Ok(objs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldType, SchemaBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};

    static N: AtomicU64 = AtomicU64::new(0);

    fn server() -> (Arc<Mutex<OodbStore>>, std::path::PathBuf) {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-cache-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let schema = SchemaBuilder::new()
            .class("Doc", &[("name", FieldType::Text)])
            .build();
        (
            Arc::new(Mutex::new(OodbStore::create_db(&d, schema).unwrap())),
            d,
        )
    }

    #[test]
    fn repeated_fetches_hit_cache() {
        let (srv, d) = server();
        let mut client = CacheForwardClient::new(Arc::clone(&srv));
        let oid = client
            .create("Doc", vec![("name".into(), FieldValue::Text("a".into()))])
            .unwrap();
        for _ in 0..10 {
            client.fetch(oid).unwrap();
        }
        let stats = client.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn writes_by_peer_invalidate() {
        let (srv, d) = server();
        let mut a = CacheForwardClient::new(Arc::clone(&srv));
        let mut b = CacheForwardClient::new(Arc::clone(&srv));
        let oid = a
            .create("Doc", vec![("name".into(), FieldValue::Text("v1".into()))])
            .unwrap();
        assert_eq!(
            b.fetch(oid).unwrap().get("name").unwrap().as_text(),
            Some("v1")
        );
        a.update(oid, vec![("name".into(), FieldValue::Text("v2".into()))])
            .unwrap();
        // b's next fetch must see the new value (cache invalidated).
        assert_eq!(
            b.fetch(oid).unwrap().get("name").unwrap().as_text(),
            Some("v2")
        );
        assert!(b.stats().invalidations >= 1);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn delete_removes_from_cache() {
        let (srv, d) = server();
        let mut c = CacheForwardClient::new(Arc::clone(&srv));
        let oid = c
            .create("Doc", vec![("name".into(), FieldValue::Text("x".into()))])
            .unwrap();
        c.fetch(oid).unwrap();
        c.delete(oid).unwrap();
        assert!(c.fetch(oid).is_err());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn scan_populates_cache() {
        let (srv, d) = server();
        let mut c = CacheForwardClient::new(Arc::clone(&srv));
        let mut oids = Vec::new();
        for i in 0..5 {
            oids.push(
                c.create(
                    "Doc",
                    vec![("name".into(), FieldValue::Text(format!("d{i}")))],
                )
                .unwrap(),
            );
        }
        let all = c.scan_class("Doc").unwrap();
        assert_eq!(all.len(), 5);
        let miss_before = c.stats().misses;
        for oid in oids {
            c.fetch(oid).unwrap();
        }
        // All five came from cache.
        assert_eq!(c.stats().misses, miss_before);
        std::fs::remove_dir_all(&d).unwrap();
    }
}
