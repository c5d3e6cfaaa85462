//! Occupancy statistics for a DBM file.

/// A snapshot of how a database uses its disk space.
///
/// The `dead_bytes` figure is the space the paper's "manual garbage
/// collection utilities" exist to reclaim: bytes belonging to deleted or
/// superseded items that the store will not reuse until compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DbmStats {
    /// Total bytes on disk across all of the database's files.
    pub disk_bytes: u64,
    /// Bytes occupied by live key/value data (excluding structure).
    pub live_bytes: u64,
    /// Bytes of unreclaimed dead data.
    pub dead_bytes: u64,
    /// Number of live key/value pairs.
    pub entries: u64,
    /// Pages (SDBM) or buckets (GDBM) allocated.
    pub blocks: u64,
}
