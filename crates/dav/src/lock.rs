//! Write locks (RFC 2518 class 2).
//!
//! DAV's "simple command language" includes `lock`, which the paper lists
//! among the primitives a PSE data store needs (think: a tool locking a
//! calculation while a job is running). This module implements exclusive
//! and shared write locks with opaque tokens, timeouts, and depth —
//! enough for the compliance suite and the Ecce job-management workflow.

use crate::depth::Depth;
use crate::error::{DavError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Lock scope: exclusive or shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockScope {
    /// Only the holder may write.
    Exclusive,
    /// Multiple holders; still excludes non-holders.
    Shared,
}

impl LockScope {
    /// The `DAV:` element name used on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            LockScope::Exclusive => "exclusive",
            LockScope::Shared => "shared",
        }
    }
}

/// An active lock on a resource.
#[derive(Debug, Clone)]
pub struct Lock {
    /// The opaque lock token (`opaquelocktoken:` URI).
    pub token: String,
    /// Path the lock was taken on.
    pub path: String,
    /// Exclusive or shared.
    pub scope: LockScope,
    /// Zero (resource only) or Infinity (subtree).
    pub depth: Depth,
    /// Client-supplied owner description (opaque to the server).
    pub owner: String,
    /// When the lock lapses.
    pub expires: Instant,
    /// The granted timeout, echoed in responses.
    pub timeout: Duration,
}

impl Lock {
    /// Is the lock past its timeout?
    pub fn expired(&self) -> bool {
        Instant::now() >= self.expires
    }

    /// Does this lock protect `path`?
    pub fn covers(&self, path: &str) -> bool {
        if self.path == path {
            return true;
        }
        self.depth == Depth::Infinity
            && path.starts_with(&self.path)
            && (self.path == "/" || path.as_bytes().get(self.path.len()) == Some(&b'/'))
    }
}

/// The server's lock table.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: Mutex<HashMap<String, Vec<Lock>>>,
    serial: AtomicU64,
}

/// Default lock timeout when the client requests none.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(600);
/// Cap on client-requested timeouts.
pub const MAX_TIMEOUT: Duration = Duration::from_secs(3600);

impl LockManager {
    /// An empty lock table.
    pub fn new() -> LockManager {
        LockManager::default()
    }

    fn mint_token(&self) -> String {
        // Opaque and unique within the server's lifetime; the RFC wants a
        // UUID-flavoured URI, uniqueness is what matters here.
        let n = self.serial.fetch_add(1, Ordering::Relaxed);
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        format!("opaquelocktoken:{t:032x}-{n:016x}")
    }

    /// Acquire a lock. Fails with 423 when a conflicting lock exists
    /// (any lock for exclusive requests; an exclusive one for shared).
    pub fn lock(
        &self,
        path: &str,
        scope: LockScope,
        depth: Depth,
        owner: &str,
        timeout: Option<Duration>,
    ) -> Result<Lock> {
        let mut table = self.locks.lock();
        Self::purge_expired(&mut table);
        let conflicts = table.values().flatten().any(|l| {
            (l.covers(path)
                || (depth == Depth::Infinity && Lock::covers(&with_depth(path), &l.path)))
                && (scope == LockScope::Exclusive || l.scope == LockScope::Exclusive)
        });
        if conflicts {
            return Err(DavError::Locked(path.to_owned()));
        }
        let timeout = timeout.unwrap_or(DEFAULT_TIMEOUT).min(MAX_TIMEOUT);
        let lock = Lock {
            token: self.mint_token(),
            path: path.to_owned(),
            scope,
            depth: if depth == Depth::One {
                Depth::Zero
            } else {
                depth
            },
            owner: owner.to_owned(),
            expires: Instant::now() + timeout,
            timeout,
        };
        table.entry(path.to_owned()).or_default().push(lock.clone());
        Ok(lock)
    }

    /// Refresh a lock's timeout by token.
    pub fn refresh(&self, path: &str, token: &str, timeout: Option<Duration>) -> Result<Lock> {
        let mut table = self.locks.lock();
        Self::purge_expired(&mut table);
        for locks in table.values_mut() {
            for l in locks.iter_mut() {
                if l.token == token && l.covers(path) {
                    let timeout = timeout.unwrap_or(l.timeout).min(MAX_TIMEOUT);
                    l.timeout = timeout;
                    l.expires = Instant::now() + timeout;
                    return Ok(l.clone());
                }
            }
        }
        Err(DavError::PreconditionFailed(format!(
            "no lock with token {token} covers {path}"
        )))
    }

    /// Release a lock by token. 409/412-style error if absent.
    pub fn unlock(&self, path: &str, token: &str) -> Result<()> {
        let mut table = self.locks.lock();
        let mut found = false;
        for locks in table.values_mut() {
            let before = locks.len();
            locks.retain(|l| !(l.token == token && l.covers(path)));
            found |= locks.len() != before;
        }
        table.retain(|_, v| !v.is_empty());
        if found {
            Ok(())
        } else {
            Err(DavError::PreconditionFailed(format!(
                "no lock with token {token} on {path}"
            )))
        }
    }

    /// Every active lock covering `path`.
    pub fn locks_on(&self, path: &str) -> Vec<Lock> {
        let mut table = self.locks.lock();
        Self::purge_expired(&mut table);
        table
            .values()
            .flatten()
            .filter(|l| l.covers(path))
            .cloned()
            .collect()
    }

    /// Enforce locking for a write to `path`: succeeds when no lock
    /// covers it, or when one of `tokens` matches a covering lock.
    pub fn check_write(&self, path: &str, tokens: &[String]) -> Result<()> {
        let covering = self.locks_on(path);
        if covering.is_empty() {
            return Ok(());
        }
        if covering.iter().any(|l| tokens.contains(&l.token)) {
            Ok(())
        } else {
            Err(DavError::Locked(path.to_owned()))
        }
    }

    /// Enforce locking for an operation that affects the whole subtree
    /// under `path` (DELETE, MOVE source, overwriting COPY): every lock
    /// covering `path` *or held anywhere inside it* must be matched by a
    /// submitted token.
    pub fn check_write_recursive(&self, path: &str, tokens: &[String]) -> Result<()> {
        let mut table = self.locks.lock();
        Self::purge_expired(&mut table);
        let inside = |p: &str| {
            p == path
                || (p.starts_with(path)
                    && (path == "/" || p.as_bytes().get(path.len()) == Some(&b'/')))
        };
        for l in table.values().flatten() {
            if (l.covers(path) || inside(&l.path)) && !tokens.contains(&l.token) {
                return Err(DavError::Locked(l.path.clone()));
            }
        }
        Ok(())
    }

    /// Drop every lock under `path` (used by DELETE/MOVE of a subtree).
    pub fn forget_subtree(&self, path: &str) {
        let mut table = self.locks.lock();
        table.retain(|p, _| {
            !(p == path
                || (p.starts_with(path)
                    && (path == "/" || p.as_bytes().get(path.len()) == Some(&b'/'))))
        });
    }

    fn purge_expired(table: &mut HashMap<String, Vec<Lock>>) {
        for locks in table.values_mut() {
            locks.retain(|l| !l.expired());
        }
        table.retain(|_, v| !v.is_empty());
    }
}

/// Helper for the reverse containment test in `lock` (a new infinite-
/// depth lock conflicts with locks on descendants too).
fn with_depth(path: &str) -> Lock {
    Lock {
        token: String::new(),
        path: path.to_owned(),
        scope: LockScope::Exclusive,
        depth: Depth::Infinity,
        owner: String::new(),
        expires: Instant::now() + Duration::from_secs(1),
        timeout: Duration::from_secs(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_lock_blocks_everyone() {
        let mgr = LockManager::new();
        let l = mgr
            .lock("/a/b", LockScope::Exclusive, Depth::Zero, "karen", None)
            .unwrap();
        assert!(mgr
            .lock("/a/b", LockScope::Exclusive, Depth::Zero, "eric", None)
            .is_err());
        assert!(mgr
            .lock("/a/b", LockScope::Shared, Depth::Zero, "eric", None)
            .is_err());
        // Write without the token: 423. With it: ok.
        assert!(matches!(
            mgr.check_write("/a/b", &[]),
            Err(DavError::Locked(_))
        ));
        mgr.check_write("/a/b", std::slice::from_ref(&l.token))
            .unwrap();
        mgr.unlock("/a/b", &l.token).unwrap();
        mgr.check_write("/a/b", &[]).unwrap();
    }

    #[test]
    fn shared_locks_coexist() {
        let mgr = LockManager::new();
        let l1 = mgr
            .lock("/doc", LockScope::Shared, Depth::Zero, "a", None)
            .unwrap();
        let l2 = mgr
            .lock("/doc", LockScope::Shared, Depth::Zero, "b", None)
            .unwrap();
        assert_ne!(l1.token, l2.token);
        // But an exclusive request is refused.
        assert!(mgr
            .lock("/doc", LockScope::Exclusive, Depth::Zero, "c", None)
            .is_err());
        // Either shared holder can write.
        mgr.check_write("/doc", std::slice::from_ref(&l2.token))
            .unwrap();
    }

    #[test]
    fn depth_infinity_covers_descendants() {
        let mgr = LockManager::new();
        let l = mgr
            .lock("/proj", LockScope::Exclusive, Depth::Infinity, "k", None)
            .unwrap();
        assert!(matches!(
            mgr.check_write("/proj/calc/input", &[]),
            Err(DavError::Locked(_))
        ));
        mgr.check_write("/proj/calc/input", std::slice::from_ref(&l.token))
            .unwrap();
        // Sibling paths are unaffected.
        mgr.check_write("/projX", &[]).unwrap();
        // Locking a descendant of an infinity-locked tree conflicts.
        assert!(mgr
            .lock("/proj/calc", LockScope::Exclusive, Depth::Zero, "e", None)
            .is_err());
        // And locking an ancestor with depth infinity conflicts too.
        assert!(mgr
            .lock("/", LockScope::Exclusive, Depth::Infinity, "e", None)
            .is_err());
    }

    #[test]
    fn locks_expire() {
        let mgr = LockManager::new();
        mgr.lock(
            "/t",
            LockScope::Exclusive,
            Depth::Zero,
            "k",
            Some(Duration::from_millis(20)),
        )
        .unwrap();
        assert!(mgr.check_write("/t", &[]).is_err());
        std::thread::sleep(Duration::from_millis(40));
        mgr.check_write("/t", &[]).unwrap();
        assert!(mgr.locks_on("/t").is_empty());
    }

    #[test]
    fn refresh_extends() {
        let mgr = LockManager::new();
        let l = mgr
            .lock(
                "/t",
                LockScope::Exclusive,
                Depth::Zero,
                "k",
                Some(Duration::from_millis(50)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let refreshed = mgr
            .refresh("/t", &l.token, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(refreshed.token, l.token);
        std::thread::sleep(Duration::from_millis(40));
        // Would have expired without the refresh.
        assert!(mgr.check_write("/t", &[]).is_err());
    }

    #[test]
    fn unlock_wrong_token_fails() {
        let mgr = LockManager::new();
        mgr.lock("/t", LockScope::Exclusive, Depth::Zero, "k", None)
            .unwrap();
        assert!(mgr.unlock("/t", "opaquelocktoken:bogus").is_err());
    }

    #[test]
    fn forget_subtree_clears() {
        let mgr = LockManager::new();
        mgr.lock("/a/b", LockScope::Exclusive, Depth::Zero, "k", None)
            .unwrap();
        mgr.lock("/a/c", LockScope::Exclusive, Depth::Zero, "k", None)
            .unwrap();
        mgr.forget_subtree("/a");
        mgr.check_write("/a/b", &[]).unwrap();
        mgr.check_write("/a/c", &[]).unwrap();
    }

    #[test]
    fn tokens_are_unique() {
        let mgr = LockManager::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            let l = mgr
                .lock(
                    &format!("/u/{i}"),
                    LockScope::Exclusive,
                    Depth::Zero,
                    "k",
                    None,
                )
                .unwrap();
            assert!(seen.insert(l.token));
        }
    }

    #[test]
    fn covers_boundary_is_segment_aware() {
        let l = with_depth("/a/b");
        assert!(l.covers("/a/b"));
        assert!(l.covers("/a/b/c"));
        assert!(!l.covers("/a/bc"));
    }
}
