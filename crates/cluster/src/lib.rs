//! # pse-cluster — replicated, sharded deployment of the DAV server
//!
//! The paper's data-management story is a *single* DAV server per site;
//! this crate grows that into a small cluster without changing the
//! protocol the clients speak:
//!
//! - [`record`] / [`log`] — a durable, checksummed change log appended
//!   by the repository's commit hook ([`ChangeLog::record_commits`]),
//!   which runs under the lock plan that ordered each mutation, so log
//!   order equals application order. Every record carries absolute
//!   state (full bodies, full property values), so replay is
//!   idempotent. The log keeps only what a live replica still needs,
//!   under a byte cap, with a bounded tail of encoded frames in memory.
//! - [`apply`] — [`apply::Applier`], the replica-side cursor: dedups
//!   duplicate batches, rejects gaps and out-of-order input, persists
//!   progress across restarts.
//! - [`ring`] — consistent hashing of the namespace (per top-level
//!   collection) across shards.
//! - [`node`] — [`node::Primary`] and [`node::Replica`]: full DAV
//!   servers wired for log shipping over the reserved
//!   `/.well-known/changes` endpoint.
//! - [`router`] — the consistent-hash front end: writes go to the shard
//!   primary, reads rotate across its replicas with read-your-writes
//!   enforced by per-resource sequence-number floors.

pub mod apply;
pub mod log;
pub mod node;
pub mod record;
pub mod ring;
pub mod router;

pub use apply::{Applier, ApplyError, BatchOutcome};
pub use log::{ChangeLog, LogGap, LogStats, ReadError};
pub use node::{NodeConfig, Primary, Replica, CHANGES_PATH};
pub use record::{ChangeRecord, Entry, PropOp};
pub use ring::{shard_key, HashRing};
pub use router::{BackendSpec, Router, RouterConfig};
