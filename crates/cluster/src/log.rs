//! The durable change log a primary appends to and replicas replay.
//!
//! On disk the log is one append-only file, `dir/changes.log`, of
//! checksummed frames:
//!
//! ```text
//! frame := seq:u64le  len:u32le  payload[len]  fnv1a64(payload):u64le
//! ```
//!
//! A torn tail (crash mid-append) is detected on open — the incomplete
//! or corrupt frame and everything after it are truncated away, exactly
//! like a write-ahead log.
//!
//! Each frame is encoded once, at append, straight from the
//! repository's [`Change`]. The newest frames, up to [`TAIL_BYTES`],
//! stay in memory as those bytes; older retained frames are read back
//! from the file through a `(seq, offset)` index. Either way the change
//! feed copies frame bytes and never re-encodes a record.
//!
//! **Retention is driven by the replicas.** Each pull names the replica
//! and its durable cursor ([`ChangeLog::note_replica`]); frames at or
//! below the slowest live replica's cursor are dropped. A replica not
//! seen for [`REPLICA_TTL`] is no longer live. With no live replica
//! known (a primary that has just started or restarted) nothing is
//! dropped until the file reaches [`CAP_BYTES`]. Past the cap the
//! oldest frames go whatever a replica still needs, down to half the
//! cap. The newest frame is always kept, so `last_seq` survives a
//! reopen and sequence numbers are never reused.
//!
//! A reader whose cursor falls before the retained window, or past its
//! end, gets [`LogGap`]; the shipping endpoint turns it into
//! `410 Gone`, the replica's cue to fall back to a full snapshot
//! resync.
//!
//! Dropped frames leave a dead prefix in the file. The file is
//! rewritten (tmp + rename, copying only the retained frames) once the
//! dead prefix outgrows the retained bytes, or when the cap forces it:
//! every appended byte is copied O(1) times on average, and no rewrite
//! copies more than the retained window.

use crate::record::{self, ChangeRecord, Entry};
use parking_lot::Mutex;
use pse_cache::fnv1a_64;
use pse_dav::error::DavError;
use pse_dav::repo::{Change, Repo, Store};
use pse_obs::Registry;
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// The file size past which the log compacts whatever its replicas
/// still need (down to half of it).
pub const CAP_BYTES: u64 = 32 << 20;

/// Bound on the encoded frames kept in memory (the newest ones).
pub const TAIL_BYTES: usize = 4 << 20;

/// A replica not seen for this long no longer holds the log back.
pub const REPLICA_TTL: Duration = Duration::from_secs(60);

/// A dead prefix smaller than this is not worth a rewrite.
const REWRITE_MIN_BYTES: u64 = 64 << 10;

/// Frame overhead: seq, length and checksum.
const FRAME_OVERHEAD: usize = 20;

/// A cursor outside the retained window `[start_seq - 1, last_seq]`:
/// behind it (the frames after it were dropped) or past its end (the
/// reader followed a log that has since lost its tail). Either way the
/// reader must resync from a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogGap {
    /// First sequence number still retained.
    pub start_seq: u64,
    /// Newest sequence number in the log: the resync target.
    pub last_seq: u64,
}

/// Why the log could not serve a read.
#[derive(Debug)]
pub enum ReadError {
    /// The cursor lies outside the retained window.
    Gap(LogGap),
    /// Reading retained frames back from the file failed.
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Gap(g) => write!(f, "log holds {}..={}", g.start_seq, g.last_seq),
            ReadError::Io(e) => write!(f, "change log read failed: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Encoded frames after a cursor, ready to ship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frames {
    /// The frames, back to back.
    pub bytes: Vec<u8>,
    /// Newest sequence number in the log when the frames were read.
    pub last_seq: u64,
}

/// Counters and sizes of one log (see [`ChangeLog::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Size of `changes.log`, dead prefix included.
    pub bytes: u64,
    /// Encoded frames held in memory.
    pub mem_bytes: u64,
    /// Oldest retained sequence number.
    pub start_seq: u64,
    /// Newest sequence number.
    pub last_seq: u64,
    /// Retained frames.
    pub retained: u64,
    /// Replicas seen within [`REPLICA_TTL`].
    pub replicas: u64,
    /// Compactions the cap forced past what a replica still needed (or
    /// with no replica known).
    pub cap_compactions: u64,
    /// Rewrites that failed (the log keeps working on the longer file).
    pub compaction_errors: u64,
}

/// Where one retained frame lives in the file.
#[derive(Debug, Clone, Copy)]
struct FrameAt {
    seq: u64,
    offset: u64,
    len: u64,
}

struct Seen {
    since: u64,
    at: Instant,
}

struct LogInner {
    /// Read + append handle on `changes.log`.
    file: File,
    /// Current file length.
    len: u64,
    /// Retained frames, oldest first; `index[i].seq == start_seq + i`.
    index: VecDeque<FrameAt>,
    /// Encoded bytes of the newest `tail.len()` retained frames.
    tail: VecDeque<Vec<u8>>,
    tail_bytes: usize,
    /// Sequence number of the oldest retained frame (`last_seq + 1`
    /// when nothing was ever logged).
    start_seq: u64,
    last_seq: u64,
    /// Each replica's durable cursor and when it was last seen.
    replicas: HashMap<String, Seen>,
    cap_compactions: u64,
    compaction_errors: u64,
}

/// The primary's durable, monotonically-sequenced change log.
pub struct ChangeLog {
    path: PathBuf,
    inner: Mutex<LogInner>,
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

/// Index the valid, contiguous frames at the head of `file` (of
/// `file_len` bytes); stops at the first torn, corrupt or out-of-
/// sequence frame.
fn scan(file: &File, file_len: u64) -> VecDeque<FrameAt> {
    let mut index: VecDeque<FrameAt> = VecDeque::new();
    let mut r = BufReader::with_capacity(1 << 16, file);
    let mut at = 0u64;
    let mut payload = Vec::new();
    loop {
        let mut head = [0u8; 12];
        if r.read_exact(&mut head).is_err() {
            break;
        }
        let seq = u64::from_le_bytes(head[..8].try_into().unwrap());
        let len = u32::from_le_bytes(head[8..12].try_into().unwrap()) as u64;
        let frame_len = len + FRAME_OVERHEAD as u64;
        if at + frame_len > file_len {
            break;
        }
        payload.resize(len as usize, 0);
        let mut sum = [0u8; 8];
        if r.read_exact(&mut payload).is_err() || r.read_exact(&mut sum).is_err() {
            break;
        }
        if u64::from_le_bytes(sum) != fnv1a_64(&payload) || ChangeRecord::decode(&payload).is_err()
        {
            break;
        }
        // Sequence numbers must be contiguous and ascending; a violation
        // means the file was edited out-of-band: keep the valid prefix.
        if index.back().is_some_and(|prev| seq != prev.seq + 1) {
            break;
        }
        index.push_back(FrameAt {
            seq,
            offset: at,
            len: frame_len,
        });
        at += frame_len;
    }
    index
}

impl LogInner {
    /// Bytes of the retained frames.
    fn retained_bytes(&self) -> u64 {
        self.index.front().map_or(0, |f| self.len - f.offset)
    }

    /// Bytes of dropped frames still at the head of the file.
    fn dead_bytes(&self) -> u64 {
        self.index.front().map_or(self.len, |f| f.offset)
    }

    /// Bytes `[offset, offset + len)` of the file.
    fn read_file(&self, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; len as usize];
        self.file.read_exact_at(&mut buf, offset)?;
        Ok(buf)
    }

    /// Record one frame just written at the end of the file.
    fn push(&mut self, seq: u64, frame: Vec<u8>) {
        let len = frame.len() as u64;
        self.index.push_back(FrameAt {
            seq,
            offset: self.len,
            len,
        });
        self.len += len;
        self.last_seq = seq;
        if self.index.len() == 1 {
            self.start_seq = seq;
        }
        self.tail_bytes += frame.len();
        self.tail.push_back(frame);
        while self.tail_bytes > TAIL_BYTES {
            let old = self.tail.pop_front().expect("bytes imply frames");
            self.tail_bytes -= old.len();
        }
    }

    /// Drop the oldest retained frame (never the newest).
    fn pop_front(&mut self) -> bool {
        if self.index.len() <= 1 {
            return false;
        }
        let f = self.index.pop_front().expect("checked above");
        if self.tail.len() > self.index.len() {
            let old = self.tail.pop_front().expect("checked above");
            self.tail_bytes -= old.len();
        }
        self.start_seq = f.seq + 1;
        true
    }

    /// Forget replicas past their TTL; drop what every live one has
    /// applied; enforce the cap; rewrite the file when it pays.
    fn retain(&mut self, path: &Path, now: Instant) {
        self.replicas
            .retain(|_, s| now.saturating_duration_since(s.at) < REPLICA_TTL);
        if let Some(floor) = self.replicas.values().map(|s| s.since).min() {
            while self.index.front().is_some_and(|f| f.seq <= floor) && self.pop_front() {}
        }
        if self.len > CAP_BYTES {
            let before = self.start_seq;
            while self.retained_bytes() > CAP_BYTES / 2 && self.pop_front() {}
            if self.start_seq != before {
                self.cap_compactions += 1;
            }
        }
        let dead = self.dead_bytes();
        let due = self.len > CAP_BYTES || dead >= self.retained_bytes().max(REWRITE_MIN_BYTES);
        if dead > 0 && due && self.rewrite(path).is_err() {
            self.compaction_errors += 1;
        }
    }

    /// Replace the file with its retained frames. The new file is
    /// opened before the rename, so the handle always names the file
    /// at `path`; on failure nothing in memory changes.
    fn rewrite(&mut self, path: &Path) -> io::Result<()> {
        let base = self.dead_bytes();
        let tmp = path.with_extension("log.tmp");
        let _ = std::fs::remove_file(&tmp);
        let mut out = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&tmp)?;
        let mut at = base;
        let mut buf = vec![0u8; (self.len - base).min(1 << 20) as usize];
        while at < self.len {
            let n = buf.len().min((self.len - at) as usize);
            self.file.read_exact_at(&mut buf[..n], at)?;
            out.write_all(&buf[..n])?;
            at += n as u64;
        }
        std::fs::rename(&tmp, path)?;
        self.file = out;
        self.len -= base;
        for f in &mut self.index {
            f.offset -= base;
        }
        Ok(())
    }
}

impl ChangeLog {
    /// Open (creating if needed) the log file `dir/changes.log`,
    /// recovering from a torn tail by truncating it. A file past the
    /// cap (written by an older build) is compacted at once.
    pub fn open(dir: &Path) -> io::Result<Arc<ChangeLog>> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("changes.log");
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let file_len = file.metadata()?.len();
        let index = scan(&file, file_len);
        let good = index.back().map_or(0, |f| f.offset + f.len);
        if good < file_len {
            // Torn or corrupt tail: cut the file back to the last whole
            // frame so appends resume from a clean state.
            file.set_len(good)?;
        }
        let (start_seq, last_seq) = match (index.front(), index.back()) {
            (Some(f), Some(l)) => (f.seq, l.seq),
            _ => (1, 0),
        };
        let mut inner = LogInner {
            file,
            len: good,
            index,
            tail: VecDeque::new(),
            tail_bytes: 0,
            start_seq,
            last_seq,
            replicas: HashMap::new(),
            cap_compactions: 0,
            compaction_errors: 0,
        };
        inner.retain(&path, Instant::now());
        // Load the newest frames, up to the tail bound, into memory.
        let mut first = inner.index.len();
        let mut bytes = 0u64;
        while first > 0 && bytes + inner.index[first - 1].len <= TAIL_BYTES as u64 {
            first -= 1;
            bytes += inner.index[first].len;
        }
        if let Some(from) = inner.index.get(first).map(|f| f.offset) {
            let mut all = inner.read_file(from, inner.len - from)?;
            for f in inner.index.range(first..).rev() {
                let frame = all.split_off((f.offset - from) as usize);
                inner.tail_bytes += frame.len();
                inner.tail.push_front(frame);
            }
        }
        Ok(Arc::new(ChangeLog {
            path,
            inner: Mutex::new(inner),
        }))
    }

    /// Append one frame whose payload `encode` writes; returns its
    /// sequence number. The payload and its checksum are computed
    /// before the log is locked. The frame is written to the OS before
    /// the call returns (no fsync per append — the durability unit is
    /// the process, like a default-config WAL).
    fn append_with(&self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<u64> {
        let mut frame = vec![0u8; 12];
        encode(&mut frame);
        let sum = fnv1a_64(&frame[12..]);
        let payload_len = u32::try_from(frame.len() - 12)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record too large to log"))?;
        frame.extend_from_slice(&sum.to_le_bytes());
        frame[8..12].copy_from_slice(&payload_len.to_le_bytes());

        let mut inner = self.inner.lock();
        let seq = inner.last_seq + 1;
        frame[..8].copy_from_slice(&seq.to_le_bytes());
        if let Err(e) = inner.file.write_all(&frame) {
            // Cut a partial frame off again, so later frames stay
            // reachable on reopen.
            let _ = inner.file.set_len(inner.len);
            return Err(e);
        }
        inner.push(seq, frame);
        inner.retain(&self.path, Instant::now());
        Ok(seq)
    }

    /// Append one record; returns its sequence number.
    pub fn append(&self, record: &ChangeRecord) -> io::Result<u64> {
        self.append_with(|out| out.extend_from_slice(&record.encode()))
    }

    /// Append the record of one committed repository mutation, encoded
    /// straight from the borrowed [`Change`].
    pub fn append_change(&self, change: &Change<'_>) -> io::Result<u64> {
        self.append_with(|out| record::encode_change(out, change))
    }

    /// Install this log as `repo`'s commit hook: every successful
    /// mutation is appended as a [`ChangeRecord`] while the lock plan
    /// that ordered it is still held, so for any two conflicting
    /// mutations log order equals apply order — the log is a valid
    /// linearisation of the history. A failed append is the mutation's
    /// error.
    pub fn record_commits<S: Store>(self: &Arc<Self>, repo: &Repo<S>) {
        let log = Arc::clone(self);
        repo.set_commit_hook(move |change| match log.append_change(change) {
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

    /// Replica `id` has applied everything up to `since` (its durable
    /// cursor) and is alive now: drop what every live replica has
    /// applied. A cursor behind the window is noted at `last_seq`, the
    /// target of the resync the replica is about to run; a cursor past
    /// the end is not noted at all (that replica resyncs first).
    pub fn note_replica(&self, id: &str, since: u64) {
        self.note_replica_at(id, since, Instant::now());
    }

    fn note_replica_at(&self, id: &str, since: u64, now: Instant) {
        let mut inner = self.inner.lock();
        if since > inner.last_seq {
            return;
        }
        let since = if since + 1 < inner.start_seq {
            inner.last_seq
        } else {
            since
        };
        inner
            .replicas
            .insert(id.to_owned(), Seen { since, at: now });
        inner.retain(&self.path, now);
    }

    /// The encoded frames with `seq > since`, at most `max` of them,
    /// oldest first. [`ReadError::Gap`] when `since` lies outside the
    /// retained window.
    pub fn frames_after(&self, since: u64, max: usize) -> Result<Frames, ReadError> {
        let inner = self.inner.lock();
        if since > inner.last_seq || since + 1 < inner.start_seq {
            return Err(ReadError::Gap(LogGap {
                start_seq: inner.start_seq,
                last_seq: inner.last_seq,
            }));
        }
        let first = (since + 1 - inner.start_seq) as usize;
        let end = first.saturating_add(max).min(inner.index.len());
        let in_tail = inner.index.len() - inner.tail.len();
        let mut bytes = Vec::new();
        // Frames older than the tail are contiguous in the file: one read.
        if first < in_tail.min(end) {
            let (a, b) = (inner.index[first], inner.index[in_tail.min(end) - 1]);
            bytes = inner
                .read_file(a.offset, b.offset + b.len - a.offset)
                .map_err(ReadError::Io)?;
        }
        for frame in inner
            .tail
            .range(first.max(in_tail) - in_tail..end.max(in_tail) - in_tail)
        {
            bytes.extend_from_slice(frame);
        }
        Ok(Frames {
            bytes,
            last_seq: inner.last_seq,
        })
    }

    /// Decoded entries with `seq > since`, at most `max` of them.
    pub fn read_after(&self, since: u64, max: usize) -> Result<Vec<Entry>, ReadError> {
        let frames = self.frames_after(since, max)?;
        Ok(decode_frames(&frames.bytes).0)
    }

    /// Sizes and counters now.
    pub fn stats(&self) -> LogStats {
        let inner = self.inner.lock();
        let now = Instant::now();
        LogStats {
            bytes: inner.len,
            mem_bytes: inner.tail_bytes as u64,
            start_seq: inner.start_seq,
            last_seq: inner.last_seq,
            retained: inner.index.len() as u64,
            replicas: inner
                .replicas
                .values()
                .filter(|s| now.saturating_duration_since(s.at) < REPLICA_TTL)
                .count() as u64,
            cap_compactions: inner.cap_compactions,
            compaction_errors: inner.compaction_errors,
        }
    }

    /// Export `<prefix>.{last_seq, retained, bytes, mem_bytes,
    /// start_seq, replicas}` gauges and `<prefix>.{cap_compactions,
    /// compaction_errors}` counters.
    pub fn register_obs(self: &Arc<Self>, registry: &Arc<Registry>, prefix: &str) {
        let weak: Weak<ChangeLog> = Arc::downgrade(self);
        let prefix = prefix.to_owned();
        registry.register_source(&format!("{prefix}.log"), move |snap| {
            let Some(log) = weak.upgrade() else { return };
            let s = log.stats();
            for (name, v) in [
                ("last_seq", s.last_seq),
                ("retained", s.retained),
                ("bytes", s.bytes),
                ("mem_bytes", s.mem_bytes),
                ("start_seq", s.start_seq),
                ("replicas", s.replicas),
            ] {
                snap.set_gauge(&format!("{prefix}.{name}"), v as i64);
            }
            snap.set_counter(&format!("{prefix}.cap_compactions"), s.cap_compactions);
            snap.set_counter(&format!("{prefix}.compaction_errors"), s.compaction_errors);
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

    /// A record whose frame is `size` bytes long.
    fn big(size: usize) -> ChangeRecord {
        ChangeRecord::Put {
            path: "/big".into(),
            content_type: None,
            // tag + path + presence byte + body length + frame overhead
            data: vec![7u8; size - (1 + 4 + 4 + 1 + 4) - FRAME_OVERHEAD],
        }
    }

    /// Serialise one frame, the way `append` lays it out.
    fn encode_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pse-cluster-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn file_len(dir: &Path) -> u64 {
        std::fs::metadata(dir.join("changes.log")).unwrap().len()
    }

    fn seqs(log: &ChangeLog, since: u64) -> Vec<u64> {
        log.read_after(since, usize::MAX)
            .unwrap()
            .iter()
            .map(|e| e.seq)
            .collect()
    }

    fn gap(log: &ChangeLog, since: u64) -> LogGap {
        match log.frames_after(since, 10) {
            Err(ReadError::Gap(g)) => g,
            other => panic!("want a gap at {since}, got {other:?}"),
        }
    }

    #[test]
    fn append_read_reload() {
        let dir = tmp_dir("basic");
        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(log.last_seq(), 0);
        assert!(log.read_after(0, 100).unwrap().is_empty());
        for n in 1..=5 {
            assert_eq!(log.append(&rec(n)).unwrap(), n);
        }
        let batch = log.read_after(2, 2).unwrap();
        assert_eq!(batch.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(batch[0].record, rec(3));

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
            log.append(&rec(n)).unwrap();
        }
        drop(log);
        // Simulate a crash mid-append: chop bytes off the file tail.
        let path = dir.join("changes.log");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(log.last_seq(), 2, "torn frame 3 must be dropped");
        // And the log keeps working from there.
        assert_eq!(log.append(&rec(99)).unwrap(), 3);
        drop(log);
        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(log.last_seq(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_detected_by_checksum() {
        let dir = tmp_dir("corrupt");
        let log = ChangeLog::open(&dir).unwrap();
        log.append(&rec(1)).unwrap();
        log.append(&rec(2)).unwrap();
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
    fn retention_stops_at_the_slowest_live_cursor() {
        let dir = tmp_dir("slowest");
        let log = ChangeLog::open(&dir).unwrap();
        for n in 1..=10 {
            log.append(&rec(n)).unwrap();
        }
        log.note_replica("slow", 4);
        log.note_replica("fast", 9);
        assert_eq!(log.start_seq(), 5, "frames up to the slowest cursor go");
        // A reader at 4 is served, one at 3 was dropped past.
        assert_eq!(seqs(&log, 4), (5..=10).collect::<Vec<_>>());
        assert_eq!(
            gap(&log, 3),
            LogGap {
                start_seq: 5,
                last_seq: 10
            }
        );
        // The slow replica catches up; the newest frame always stays.
        log.note_replica("slow", 10);
        assert_eq!(log.start_seq(), 10);
        log.note_replica("fast", 10);
        assert_eq!(log.stats().retained, 1);
        // A replica past its TTL no longer holds the log back.
        log.append(&rec(11)).unwrap();
        log.append(&rec(12)).unwrap();
        let later = Instant::now() + REPLICA_TTL;
        log.note_replica_at("fast", 12, later);
        assert_eq!(log.stats().replicas, 1, "slow expired");
        assert_eq!(log.start_seq(), 12);
        // A cursor behind the window is noted at the resync target.
        log.note_replica_at("late", 0, later);
        assert_eq!(log.start_seq(), 12);
        // A cursor past the end is not noted at all.
        log.note_replica_at("ahead", 99, later);
        assert_eq!(
            gap(&log, 99),
            LogGap {
                start_seq: 12,
                last_seq: 12
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_known_replica_retains_up_to_the_cap_only() {
        let dir = tmp_dir("cap");
        let log = ChangeLog::open(&dir).unwrap();
        let frame = 1 << 20;
        let frames = CAP_BYTES / frame as u64;
        for _ in 0..frames {
            log.append(&big(frame)).unwrap();
        }
        let s = log.stats();
        assert_eq!(
            (s.start_seq, s.cap_compactions),
            (1, 0),
            "below the cap nothing goes"
        );
        assert_eq!(s.bytes, CAP_BYTES);
        assert!(s.mem_bytes <= TAIL_BYTES as u64);
        // One more frame crosses the cap: the oldest go, down to half.
        log.append(&big(frame)).unwrap();
        let s = log.stats();
        assert_eq!(s.cap_compactions, 1);
        assert!(s.bytes <= CAP_BYTES / 2, "{s:?}");
        assert_eq!(file_len(&dir), s.bytes);
        assert_eq!(s.start_seq, frames + 2 - s.retained);
        assert_eq!(gap(&log, 0).start_seq, s.start_seq);
        // A live replica behind the window cannot hold the cap back.
        log.note_replica("stalled", s.start_seq - 1);
        for _ in 0..frames {
            log.append(&big(frame)).unwrap();
            let s = log.stats();
            assert!(
                s.bytes <= CAP_BYTES && s.mem_bytes <= TAIL_BYTES as u64,
                "{s:?}"
            );
        }
        assert_eq!(log.stats().cap_compactions, 2);
        assert!(matches!(log.frames_after(0, 1), Err(ReadError::Gap(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frames_read_from_disk_equal_the_in_memory_ones() {
        let dir = tmp_dir("disk-vs-mem");
        let log = ChangeLog::open(&dir).unwrap();
        // Frames of 256 KiB: the tail holds the newest sixteen.
        let frame = 256 << 10;
        let total = 3 * (TAIL_BYTES / frame) as u64;
        let mut want = Vec::new();
        for n in 0..total {
            let mut r = big(frame);
            if let ChangeRecord::Put { data, .. } = &mut r {
                data[0] = n as u8;
            }
            log.append(&r).unwrap();
            encode_frame(&mut want, n + 1, &r.encode());
        }
        let s = log.stats();
        assert!(s.mem_bytes <= TAIL_BYTES as u64 && s.mem_bytes > 0);
        assert!(s.mem_bytes < s.bytes, "some frames live only on disk");
        // One batch spanning disk and memory is byte-identical to the
        // frames as encoded, and so is every single-frame read.
        let all = log.frames_after(0, usize::MAX).unwrap();
        assert_eq!(decode_frames(&all.bytes).0.len() as u64, total);
        assert_eq!(all.bytes, want);
        let mut joined = Vec::new();
        for since in 0..total {
            joined.extend_from_slice(&log.frames_after(since, 1).unwrap().bytes);
        }
        assert_eq!(joined, want);
        // Reopen reloads the tail from the file: same bytes again.
        drop(log);
        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(log.stats().mem_bytes, s.mem_bytes);
        assert_eq!(log.frames_after(0, usize::MAX).unwrap().bytes, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_after_a_rewrite_keeps_last_seq() {
        let dir = tmp_dir("rewrite");
        let log = ChangeLog::open(&dir).unwrap();
        let frame = 128 << 10;
        for _ in 0..4 {
            log.append(&big(frame)).unwrap();
        }
        let before = file_len(&dir);
        // The replica has applied everything: only the newest frame
        // stays, and the dead prefix outgrows it, so the file shrinks.
        log.note_replica("r", 4);
        assert_eq!(log.stats().retained, 1);
        assert_eq!(file_len(&dir), frame as u64);
        assert!(file_len(&dir) < before);
        // The next frame lets frame 4 go too: another rewrite.
        log.append(&rec(5)).unwrap();
        assert!(file_len(&dir) < 100);
        drop(log);
        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!((log.start_seq(), log.last_seq()), (5, 5));
        assert_eq!(
            gap(&log, 3),
            LogGap {
                start_seq: 5,
                last_seq: 5
            }
        );
        assert_eq!(
            log.append(&rec(6)).unwrap(),
            6,
            "no sequence number is reused"
        );
        assert_eq!(seqs(&log, 4), vec![5, 6]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_after_a_rewrite_is_truncated() {
        let dir = tmp_dir("rewrite-torn");
        let log = ChangeLog::open(&dir).unwrap();
        let frame = 128 << 10;
        for _ in 0..4 {
            log.append(&big(frame)).unwrap();
        }
        log.note_replica("r", 4);
        assert_eq!(file_len(&dir), frame as u64, "rewritten");
        log.append(&rec(5)).unwrap();
        log.append(&rec(6)).unwrap();
        drop(log);
        let path = dir.join("changes.log");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(
            (log.start_seq(), log.last_seq()),
            (5, 5),
            "torn frame 6 dropped"
        );
        assert_eq!(log.append(&rec(66)).unwrap(), 6);
        drop(log);
        let log = ChangeLog::open(&dir).unwrap();
        assert_eq!(seqs(&log, 4), vec![5, 6]);
        assert_eq!(log.read_after(5, 1).unwrap()[0].record, rec(66));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
