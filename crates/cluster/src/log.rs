//! The durable change log a primary appends to and replicas replay.
//!
//! On disk the log is one append-only file of checksummed frames:
//!
//! ```text
//! frame := seq:u64le  len:u32le  payload[len]  fnv1a64(payload):u64le
//! ```
//!
//! A torn tail (crash mid-append) is detected on open — the incomplete
//! or corrupt frame and everything after it are truncated away, exactly
//! like a write-ahead log. The whole retained window is also kept in
//! memory so [`ChangeLog::read_after`] can serve shipping batches
//! without touching disk.
//!
//! Compaction ([`ChangeLog::compact_keep_last`]) drops the oldest
//! entries; a replica asking for a sequence number older than the
//! retained window gets [`LogGap`], which the shipping endpoint turns
//! into `410 Gone` — the replica's cue to fall back to a full snapshot
//! resync.

use crate::record::{ChangeRecord, Entry};
use parking_lot::Mutex;
use pse_cache::fnv1a_64;
use pse_dav::error::DavError;
use pse_dav::repo::{Repo, Store};
use pse_obs::Registry;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

/// Requested `since` predates the retained window (log was compacted);
/// the caller must fall back to a full snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogGap {
    /// First sequence number still retained.
    pub start_seq: u64,
}

struct LogInner {
    file: File,
    /// Retained entries, oldest first; `entries[0].seq == start_seq`.
    entries: VecDeque<Entry>,
    /// Sequence number of the oldest retained entry (`last_seq + 1`
    /// when the window is empty).
    start_seq: u64,
    last_seq: u64,
}

/// The primary's durable, monotonically-sequenced change log.
pub struct ChangeLog {
    path: PathBuf,
    inner: Mutex<LogInner>,
}

/// Serialise one frame.
pub(crate) fn encode_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
}

/// Decode as many complete, checksum-valid frames as `buf` holds;
/// returns the entries and the byte offset of the first bad/partial
/// frame (== `buf.len()` when everything parsed).
pub(crate) fn decode_frames(buf: &[u8]) -> (Vec<Entry>, usize) {
    let mut entries = Vec::new();
    let mut at = 0usize;
    loop {
        let Some(head) = buf.get(at..at + 12) else {
            return (entries, at);
        };
        let seq = u64::from_le_bytes(head[..8].try_into().unwrap());
        let len = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
        let body_at = at + 12;
        let Some(payload) = buf.get(body_at..body_at + len) else {
            return (entries, at);
        };
        let Some(sum) = buf.get(body_at + len..body_at + len + 8) else {
            return (entries, at);
        };
        if u64::from_le_bytes(sum.try_into().unwrap()) != fnv1a_64(payload) {
            return (entries, at);
        }
        let Ok(record) = ChangeRecord::decode(payload) else {
            return (entries, at);
        };
        entries.push(Entry { seq, record });
        at = body_at + len + 8;
    }
}

impl ChangeLog {
    /// Open (creating if needed) the log file `dir/changes.log`,
    /// recovering from a torn tail by truncating it.
    pub fn open(dir: &Path) -> io::Result<Arc<ChangeLog>> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("changes.log");
        let mut buf = Vec::new();
        if path.exists() {
            File::open(&path)?.read_to_end(&mut buf)?;
        }
        let (parsed, good_len) = decode_frames(&buf);
        if good_len < buf.len() {
            // Torn or corrupt tail: cut the file back to the last whole
            // frame so appends resume from a clean state.
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(good_len as u64)?;
        }
        // Sequence numbers on disk must already be contiguous and
        // ascending; a violation means the file was edited out-of-band,
        // and we keep only the longest valid prefix.
        let mut entries: VecDeque<Entry> = VecDeque::with_capacity(parsed.len());
        for e in parsed {
            match entries.back() {
                Some(prev) if e.seq != prev.seq + 1 => break,
                _ => entries.push_back(e),
            }
        }
        let (start_seq, last_seq) = match (entries.front(), entries.back()) {
            (Some(f), Some(l)) => (f.seq, l.seq),
            _ => (1, 0),
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Arc::new(ChangeLog {
            path,
            inner: Mutex::new(LogInner {
                file,
                entries,
                start_seq,
                last_seq,
            }),
        }))
    }

    /// Append one record; returns its sequence number. The frame is
    /// written to the OS before the call returns (no fsync per append —
    /// the durability unit is the process, like a default-config WAL).
    pub fn append(&self, record: ChangeRecord) -> io::Result<u64> {
        let mut inner = self.inner.lock();
        let seq = inner.last_seq + 1;
        let payload = record.encode();
        let mut frame = Vec::with_capacity(payload.len() + 20);
        encode_frame(&mut frame, seq, &payload);
        inner.file.write_all(&frame)?;
        inner.last_seq = seq;
        if inner.entries.is_empty() {
            inner.start_seq = seq;
        }
        inner.entries.push_back(Entry { seq, record });
        Ok(seq)
    }

    /// Install this log as `repo`'s commit hook: every successful
    /// mutation is appended as a [`ChangeRecord`] while the lock plan
    /// that ordered it is still held, so for any two conflicting
    /// mutations log order equals apply order — the log is a valid
    /// linearisation of the history. A failed append is the mutation's
    /// error.
    pub fn record_commits<S: Store>(self: &Arc<Self>, repo: &Repo<S>) {
        let log = Arc::clone(self);
        repo.set_commit_hook(move |change| match log.append(ChangeRecord::from(change)) {
            Ok(_) => Ok(()),
            Err(e) => Err(DavError::Io(Arc::new(io::Error::new(
                e.kind(),
                format!("change log append failed: {e}"),
            )))),
        });
    }

    /// Newest sequence number (0 when the log has never been written).
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().last_seq
    }

    /// Oldest retained sequence number.
    pub fn start_seq(&self) -> u64 {
        self.inner.lock().start_seq
    }

    /// Entries with `seq > since`, at most `max` of them, oldest first.
    /// `Err(LogGap)` when `since` falls before the retained window —
    /// i.e. entry `since + 1` has been compacted away.
    pub fn read_after(&self, since: u64, max: usize) -> Result<Vec<Entry>, LogGap> {
        let inner = self.inner.lock();
        if since + 1 < inner.start_seq {
            return Err(LogGap {
                start_seq: inner.start_seq,
            });
        }
        let skip = (since + 1 - inner.start_seq) as usize;
        Ok(inner
            .entries
            .iter()
            .skip(skip)
            .take(max)
            .cloned()
            .collect())
    }

    /// Drop all but the newest `keep` entries from the retained window
    /// and rewrite the file accordingly (atomic tmp + rename). At least
    /// one entry is always retained so `last_seq` survives reopen.
    pub fn compact_keep_last(&self, keep: usize) -> io::Result<()> {
        let keep = keep.max(1);
        let mut inner = self.inner.lock();
        while inner.entries.len() > keep {
            inner.entries.pop_front();
        }
        inner.start_seq = inner
            .entries
            .front()
            .map(|e| e.seq)
            .unwrap_or(inner.last_seq + 1);
        let mut buf = Vec::new();
        for e in &inner.entries {
            encode_frame(&mut buf, e.seq, &e.record.encode());
        }
        let tmp = self.path.with_extension("log.tmp");
        std::fs::write(&tmp, &buf)?;
        std::fs::rename(&tmp, &self.path)?;
        inner.file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        Ok(())
    }

    /// Export `"<prefix>.last_seq"` / `"<prefix>.retained"` gauges.
    pub fn register_obs(self: &Arc<Self>, registry: &Arc<Registry>, prefix: &str) {
        let weak: Weak<ChangeLog> = Arc::downgrade(self);
        let last = format!("{prefix}.last_seq");
        let retained = format!("{prefix}.retained");
        registry.register_source(&format!("{prefix}.log"), move |snap| {
            if let Some(log) = weak.upgrade() {
                let inner = log.inner.lock();
                snap.set_gauge(&last, inner.last_seq as i64);
                snap.set_gauge(&retained, inner.entries.len() as i64);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n: u64) -> ChangeRecord {
        ChangeRecord::Put {
            path: format!("/doc{n}"),
            content_type: None,
            data: format!("body{n}").into_bytes(),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pse-cluster-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn append_read_reload() {
        let dir = tmp_dir("basic");
        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(log.last_seq(), 0);
        assert!(log.read_after(0, 100).unwrap().is_empty());
        for n in 1..=5 {
            assert_eq!(log.append(rec(n)).unwrap(), n);
        }
        let batch = log.read_after(2, 2).unwrap();
        assert_eq!(batch.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4]);

        // Reopen: everything survives the "restart".
        drop(log);
        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(log.last_seq(), 5);
        assert_eq!(log.start_seq(), 1);
        assert_eq!(log.read_after(0, 100).unwrap().len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let dir = tmp_dir("torn");
        let log = ChangeLog::open(&dir).unwrap();
        for n in 1..=3 {
            log.append(rec(n)).unwrap();
        }
        drop(log);
        // Simulate a crash mid-append: chop bytes off the file tail.
        let path = dir.join("changes.log");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(log.last_seq(), 2, "torn frame 3 must be dropped");
        // And the log keeps working from there.
        assert_eq!(log.append(rec(99)).unwrap(), 3);
        drop(log);
        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(log.last_seq(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_detected_by_checksum() {
        let dir = tmp_dir("corrupt");
        let log = ChangeLog::open(&dir).unwrap();
        log.append(rec(1)).unwrap();
        log.append(rec(2)).unwrap();
        drop(log);
        let path = dir.join("changes.log");
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the second frame's payload.
        let mid = bytes.len() - 12;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(log.last_seq(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_yields_gap_for_old_readers() {
        let dir = tmp_dir("compact");
        let log = ChangeLog::open(&dir).unwrap();
        for n in 1..=10 {
            log.append(rec(n)).unwrap();
        }
        log.compact_keep_last(3).unwrap();
        assert_eq!(log.start_seq(), 8);
        assert_eq!(log.last_seq(), 10);
        // A reader at seq 7 is fine (wants 8+), a reader at 5 is not.
        assert_eq!(log.read_after(7, 100).unwrap().len(), 3);
        assert_eq!(
            log.read_after(5, 100),
            Err(LogGap { start_seq: 8 })
        );
        // The rewritten file reloads with the same window.
        drop(log);
        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(log.start_seq(), 8);
        assert_eq!(log.last_seq(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
