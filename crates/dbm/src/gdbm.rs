//! GDBM-style store: extensible hashing with out-of-line records.
//!
//! Follows the gdbm architecture: a doubling **directory** of bucket
//! pointers, fixed-size **buckets** of entry descriptors, and key/value
//! **records** appended to the data area. Values have no size limit —
//! the property that let the paper store 100 MB metadata values — and
//! superseded/deleted record space is *not* reused until an explicit
//! [`Gdbm::compact`] ("manual garbage collection"), reproducing the space
//! behaviour the paper measured.
//!
//! The freshly created file is preallocated to [`INITIAL_SIZE`] (25 KB),
//! gdbm 1.8's default initial database size quoted in §3.2.1.

use crate::api::{Dbm, StoreMode};
use crate::error::{Error, Result};
use crate::stats::DbmStats;
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Default initial database size — the paper's "25 KB".
pub const INITIAL_SIZE: u64 = 25 * 1024;
/// Bucket size on disk.
const BUCKET_SIZE: u64 = 4096;
/// Entries per bucket: (4096 - 16 header) / 24 per entry.
const BUCKET_ELEMS: usize = 128;
/// Header block size.
const HEADER_SIZE: u64 = 64;
const MAGIC: &[u8; 8] = b"PSEGDBM1";

/// The gdbm-flavoured string hash (31-based polynomial with a salt, as in
/// gdbm's `_gdbm_hash`).
pub fn gdbm_hash(bytes: &[u8]) -> u32 {
    let mut value: u32 = 0x238F_13AFu32.wrapping_mul(bytes.len() as u32);
    for (i, &b) in bytes.iter().enumerate() {
        value = value.wrapping_add((b as u32) << ((i * 5) % 24));
    }
    value.wrapping_mul(1_103_515_243).wrapping_add(12_345)
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    hash: u32,
    key_len: u32,
    val_len: u32,
    offset: u64,
}

#[derive(Debug, Clone)]
struct Bucket {
    local_depth: u32,
    entries: Vec<Entry>,
}

impl Bucket {
    fn decode(buf: &[u8]) -> Result<Bucket> {
        let local_depth = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let count = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
        if count > BUCKET_ELEMS {
            return Err(Error::Corrupt(format!("bucket count {count} too large")));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let b = &buf[16 + i * 24..16 + i * 24 + 24];
            entries.push(Entry {
                hash: u32::from_le_bytes(b[0..4].try_into().unwrap()),
                key_len: u32::from_le_bytes(b[4..8].try_into().unwrap()),
                val_len: u32::from_le_bytes(b[8..12].try_into().unwrap()),
                offset: u64::from_le_bytes(b[16..24].try_into().unwrap()),
            });
        }
        Ok(Bucket {
            local_depth,
            entries,
        })
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; BUCKET_SIZE as usize];
        buf[0..4].copy_from_slice(&self.local_depth.to_le_bytes());
        buf[4..8].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (i, e) in self.entries.iter().enumerate() {
            let b = &mut buf[16 + i * 24..16 + i * 24 + 24];
            b[0..4].copy_from_slice(&e.hash.to_le_bytes());
            b[4..8].copy_from_slice(&e.key_len.to_le_bytes());
            b[8..12].copy_from_slice(&e.val_len.to_le_bytes());
            b[16..24].copy_from_slice(&e.offset.to_le_bytes());
        }
        buf
    }
}

/// An open GDBM-style database (`base.db`).
pub struct Gdbm {
    file: File,
    path: PathBuf,
    /// Global directory depth; directory has `1 << depth` slots.
    depth: u32,
    /// Bucket offsets, one per directory slot (buckets may be shared).
    directory: Vec<u64>,
    /// Append cursor for records, buckets, and relocated directories.
    data_end: u64,
    dead_bytes: u64,
    entries: u64,
    /// Where the directory currently lives in the file.
    dir_offset_cache: u64,
}

impl Gdbm {
    /// Open or create the database at path stem `base`. A file shorter
    /// than the header is initialised as a fresh database.
    pub fn open(base: &Path) -> Result<Self> {
        let path = base.with_extension("db");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut db = Gdbm::unloaded(file, path);
        match db.read_header()? {
            Some(h) => db.load(&h)?,
            None => db.init()?,
        }
        Ok(db)
    }

    /// Open the existing database at path stem `base` for reading only:
    /// `None` when the file is absent or shorter than the header. Unlike
    /// [`Gdbm::open`] it creates, initialises and extends nothing, and a
    /// write through the handle fails.
    pub fn open_read(base: &Path) -> Result<Option<Self>> {
        let path = base.with_extension("db");
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut db = Gdbm::unloaded(file, path);
        let Some(h) = db.read_header()? else {
            return Ok(None);
        };
        db.load(&h)?;
        Ok(Some(db))
    }

    fn unloaded(file: File, path: PathBuf) -> Gdbm {
        Gdbm {
            file,
            path,
            depth: 1,
            directory: Vec::new(),
            data_end: 0,
            dead_bytes: 0,
            entries: 0,
            dir_offset_cache: HEADER_SIZE,
        }
    }

    /// The header block, or `None` when the file is too short to hold one.
    fn read_header(&self) -> Result<Option<[u8; HEADER_SIZE as usize]>> {
        let mut h = [0u8; HEADER_SIZE as usize];
        match self.file.read_exact_at(&mut h, 0) {
            Ok(()) => Ok(Some(h)),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn init(&mut self) -> Result<()> {
        self.depth = 1;
        let b0 = HEADER_SIZE + 16; // dir (2 slots) follows header
        let b1 = b0 + BUCKET_SIZE;
        self.directory = vec![b0, b1];
        self.data_end = b1 + BUCKET_SIZE;
        self.dead_bytes = 0;
        self.entries = 0;
        let empty = Bucket {
            local_depth: 1,
            entries: Vec::new(),
        };
        self.write_bucket(b0, &empty)?;
        self.write_bucket(b1, &empty)?;
        self.write_directory(HEADER_SIZE)?;
        self.write_header(HEADER_SIZE)?;
        // The paper's quoted default initial size.
        if self.file.metadata()?.len() < INITIAL_SIZE {
            self.file.set_len(INITIAL_SIZE)?;
            self.data_end = self.data_end.max(INITIAL_SIZE);
            self.write_header(HEADER_SIZE)?;
        }
        Ok(())
    }

    fn write_header(&mut self, dir_offset: u64) -> Result<()> {
        let mut h = vec![0u8; HEADER_SIZE as usize];
        h[0..8].copy_from_slice(MAGIC);
        h[8..12].copy_from_slice(&self.depth.to_le_bytes());
        h[16..24].copy_from_slice(&dir_offset.to_le_bytes());
        h[24..32].copy_from_slice(&self.data_end.to_le_bytes());
        h[32..40].copy_from_slice(&self.dead_bytes.to_le_bytes());
        h[40..48].copy_from_slice(&self.entries.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&h)?;
        Ok(())
    }

    fn load(&mut self, h: &[u8]) -> Result<()> {
        if &h[0..8] != MAGIC {
            return Err(Error::Corrupt("bad magic".into()));
        }
        self.depth = u32::from_le_bytes(h[8..12].try_into().unwrap());
        let dir_offset = u64::from_le_bytes(h[16..24].try_into().unwrap());
        self.data_end = u64::from_le_bytes(h[24..32].try_into().unwrap());
        self.dead_bytes = u64::from_le_bytes(h[32..40].try_into().unwrap());
        self.entries = u64::from_le_bytes(h[40..48].try_into().unwrap());
        if self.depth > 28 {
            return Err(Error::Corrupt(format!("absurd depth {}", self.depth)));
        }
        let slots = 1usize << self.depth;
        let mut dir = vec![0u8; slots * 8];
        self.file.read_exact_at(&mut dir, dir_offset)?;
        self.directory = dir
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        self.dir_offset_cache = dir_offset;
        Ok(())
    }

    fn write_directory(&mut self, at: u64) -> Result<()> {
        let mut buf = Vec::with_capacity(self.directory.len() * 8);
        for off in &self.directory {
            buf.extend_from_slice(&off.to_le_bytes());
        }
        self.file.seek(SeekFrom::Start(at))?;
        self.file.write_all(&buf)?;
        self.dir_offset_cache = at;
        Ok(())
    }

    fn read_bucket(&self, off: u64) -> Result<Bucket> {
        let mut buf = vec![0u8; BUCKET_SIZE as usize];
        self.file.read_exact_at(&mut buf, off)?;
        crate::obs::record_page_read();
        Bucket::decode(&buf)
    }

    fn write_bucket(&mut self, off: u64, bucket: &Bucket) -> Result<()> {
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(&bucket.encode())?;
        // Occupancy numerator: the 16-byte header plus the live entry
        // table (records live outside the bucket in GDBM's layout).
        crate::obs::record_page_write(16 + bucket.entries.len() as u64 * 24, BUCKET_SIZE);
        Ok(())
    }

    fn slot(&self, hash: u32) -> usize {
        (hash as usize) & ((1usize << self.depth) - 1)
    }

    fn read_record(&self, e: &Entry) -> Result<(Vec<u8>, Vec<u8>)> {
        let mut buf = vec![0u8; (e.key_len + e.val_len) as usize];
        self.file.read_exact_at(&mut buf, e.offset)?;
        let val = buf.split_off(e.key_len as usize);
        Ok((buf, val))
    }

    fn append_record(&mut self, key: &[u8], value: &[u8]) -> Result<u64> {
        let off = self.data_end;
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(key)?;
        self.file.write_all(value)?;
        self.data_end = off + key.len() as u64 + value.len() as u64;
        Ok(off)
    }

    /// Allocate space at the end of the file.
    fn alloc(&mut self, size: u64) -> u64 {
        let off = self.data_end;
        self.data_end += size;
        off
    }

    /// Split the bucket at directory `slot`, redistributing entries, and
    /// double the directory first if the bucket is at global depth.
    fn split_bucket(&mut self, slot: usize) -> Result<()> {
        let bucket_off = self.directory[slot];
        let bucket = self.read_bucket(bucket_off)?;
        if bucket.local_depth == self.depth {
            // Double the directory; the new copy is appended at the end
            // and the old copy becomes dead space.
            let old_len = self.directory.len();
            let mut doubled = Vec::with_capacity(old_len * 2);
            doubled.extend_from_slice(&self.directory);
            doubled.extend_from_slice(&self.directory);
            self.directory = doubled;
            self.depth += 1;
            self.dead_bytes += old_len as u64 * 8;
            let at = self.alloc(self.directory.len() as u64 * 8);
            self.write_directory(at)?;
        }
        crate::obs::record_split();
        let new_depth = bucket.local_depth + 1;
        let split_bit = 1u32 << (new_depth - 1);
        let (ones, zeros): (Vec<Entry>, Vec<Entry>) = bucket
            .entries
            .into_iter()
            .partition(|e| e.hash & split_bit != 0);
        let new_off = self.alloc(BUCKET_SIZE);
        self.write_bucket(
            bucket_off,
            &Bucket {
                local_depth: new_depth,
                entries: zeros,
            },
        )?;
        self.write_bucket(
            new_off,
            &Bucket {
                local_depth: new_depth,
                entries: ones,
            },
        )?;
        // Re-point directory slots: every slot that referenced the old
        // bucket and has the split bit set now points at the new bucket.
        for (i, off) in self.directory.iter_mut().enumerate() {
            if *off == bucket_off && (i as u32) & split_bit != 0 {
                *off = new_off;
            }
        }
        let at = self.dir_offset_cache;
        self.write_directory(at)?;
        Ok(())
    }

    /// Distinct bucket offsets currently referenced by the directory.
    fn bucket_offsets(&self) -> BTreeSet<u64> {
        self.directory.iter().copied().collect()
    }
}

impl Dbm for Gdbm {
    fn store(&mut self, key: &[u8], value: &[u8], mode: StoreMode) -> Result<()> {
        let hash = gdbm_hash(key);
        loop {
            let slot = self.slot(hash);
            let bucket_off = self.directory[slot];
            let mut bucket = self.read_bucket(bucket_off)?;
            // Existing key?
            let mut found = None;
            for (i, e) in bucket.entries.iter().enumerate() {
                if e.hash == hash && e.key_len as usize == key.len() {
                    let (k, _) = self.read_record(e)?;
                    if k == key {
                        found = Some(i);
                        break;
                    }
                }
            }
            if let Some(i) = found {
                if mode == StoreMode::Insert {
                    return Err(Error::AlreadyExists);
                }
                let old = bucket.entries[i];
                self.dead_bytes += (old.key_len + old.val_len) as u64;
                let off = self.append_record(key, value)?;
                bucket.entries[i] = Entry {
                    hash,
                    key_len: key.len() as u32,
                    val_len: value.len() as u32,
                    offset: off,
                };
                self.write_bucket(bucket_off, &bucket)?;
                self.write_header(self.dir_offset_cache)?;
                return Ok(());
            }
            if bucket.entries.len() >= BUCKET_ELEMS {
                self.split_bucket(slot)?;
                continue; // retry with the refreshed directory
            }
            let off = self.append_record(key, value)?;
            bucket.entries.push(Entry {
                hash,
                key_len: key.len() as u32,
                val_len: value.len() as u32,
                offset: off,
            });
            self.entries += 1;
            self.write_bucket(bucket_off, &bucket)?;
            self.write_header(self.dir_offset_cache)?;
            return Ok(());
        }
    }

    fn fetch(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let hash = gdbm_hash(key);
        let bucket_off = self.directory[self.slot(hash)];
        let bucket = self.read_bucket(bucket_off)?;
        for e in &bucket.entries {
            if e.hash == hash && e.key_len as usize == key.len() {
                let (k, v) = self.read_record(e)?;
                if k == key {
                    return Ok(Some(v));
                }
            }
        }
        Ok(None)
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let hash = gdbm_hash(key);
        let bucket_off = self.directory[self.slot(hash)];
        let mut bucket = self.read_bucket(bucket_off)?;
        for i in 0..bucket.entries.len() {
            let e = bucket.entries[i];
            if e.hash == hash && e.key_len as usize == key.len() {
                let (k, _) = self.read_record(&e)?;
                if k == key {
                    bucket.entries.swap_remove(i);
                    self.dead_bytes += (e.key_len + e.val_len) as u64;
                    self.entries -= 1;
                    self.write_bucket(bucket_off, &bucket)?;
                    self.write_header(self.dir_offset_cache)?;
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    fn keys(&mut self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(self.entries as usize);
        for off in self.bucket_offsets() {
            let bucket = self.read_bucket(off)?;
            for e in &bucket.entries {
                let (k, _) = self.read_record(e)?;
                out.push(k);
            }
        }
        Ok(out)
    }

    fn len(&mut self) -> Result<usize> {
        Ok(self.entries as usize)
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn stats(&mut self) -> Result<DbmStats> {
        let mut live = 0u64;
        let offsets = self.bucket_offsets();
        for &off in &offsets {
            let bucket = self.read_bucket(off)?;
            for e in &bucket.entries {
                live += (e.key_len + e.val_len) as u64;
            }
        }
        Ok(DbmStats {
            disk_bytes: self.file.metadata()?.len(),
            live_bytes: live,
            dead_bytes: self.dead_bytes,
            entries: self.entries,
            blocks: offsets.len() as u64,
        })
    }

    fn compact(&mut self) -> Result<()> {
        let stem = self
            .path
            .file_stem()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        let tmp_base = self.path.with_file_name(format!("{stem}-ctmp"));
        let _ = std::fs::remove_file(tmp_base.with_extension("db"));
        let mut fresh = Gdbm::open(&tmp_base)?;
        for key in self.keys()? {
            if let Some(v) = self.fetch(&key)? {
                fresh.store(&key, &v, StoreMode::Replace)?;
            }
        }
        fresh.sync()?;
        let fresh_path = fresh.path.clone();
        drop(fresh);
        std::fs::rename(&fresh_path, &self.path)?;
        let reopened = Gdbm::open(&self.path.with_file_name(stem))?;
        *self = reopened;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pse-gdbm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn basic_crud() {
        let d = tmpdir("crud");
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        db.store(b"a", b"1", StoreMode::Insert).unwrap();
        assert_eq!(db.fetch(b"a").unwrap().unwrap(), b"1");
        assert!(matches!(
            db.store(b"a", b"2", StoreMode::Insert),
            Err(Error::AlreadyExists)
        ));
        db.store(b"a", b"2", StoreMode::Replace).unwrap();
        assert_eq!(db.fetch(b"a").unwrap().unwrap(), b"2");
        assert!(db.delete(b"a").unwrap());
        assert!(!db.delete(b"a").unwrap());
        assert_eq!(db.len().unwrap(), 0);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn no_size_limit_large_values() {
        let d = tmpdir("large");
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        // Far beyond SDBM's 1 KB limit — a 5 MB value, stored and reread.
        let big: Vec<u8> = (0..5_000_000u32).map(|i| (i % 251) as u8).collect();
        db.store(b"huge", &big, StoreMode::Replace).unwrap();
        assert_eq!(db.fetch(b"huge").unwrap().unwrap(), big);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn initial_size_is_25k() {
        let d = tmpdir("init");
        let db = Gdbm::open(&d.join("t")).unwrap();
        drop(db);
        assert_eq!(
            std::fs::metadata(d.join("t.db")).unwrap().len(),
            INITIAL_SIZE
        );
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn directory_doubles_under_load() {
        let d = tmpdir("double");
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        let mut model = HashMap::new();
        for i in 0..1500 {
            let k = format!("key-{i}");
            let v = format!("value-{i}");
            db.store(k.as_bytes(), v.as_bytes(), StoreMode::Replace)
                .unwrap();
            model.insert(k, v);
        }
        assert!(db.depth > 1, "directory should have doubled");
        for (k, v) in &model {
            assert_eq!(db.fetch(k.as_bytes()).unwrap().unwrap(), v.as_bytes());
        }
        assert_eq!(db.len().unwrap(), 1500);
        let mut keys = db.keys().unwrap();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 1500);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn persistence_across_reopen() {
        let d = tmpdir("persist");
        {
            let mut db = Gdbm::open(&d.join("t")).unwrap();
            for i in 0..800 {
                db.store(
                    format!("k{i}").as_bytes(),
                    format!("v{i}").as_bytes(),
                    StoreMode::Replace,
                )
                .unwrap();
            }
            db.sync().unwrap();
        }
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        assert_eq!(db.len().unwrap(), 800);
        assert_eq!(db.fetch(b"k700").unwrap().unwrap(), b"v700");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn dead_space_grows_then_compacts() {
        let d = tmpdir("dead");
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        let v = vec![b'x'; 10_000];
        for round in 0..20 {
            let _ = round;
            db.store(b"churn", &v, StoreMode::Replace).unwrap();
        }
        let stats = db.stats().unwrap();
        assert!(
            stats.dead_bytes >= 19 * 10_000,
            "19 superseded copies should be dead: {stats:?}"
        );
        let before = stats.disk_bytes;
        db.compact().unwrap();
        let after = db.stats().unwrap();
        assert!(after.disk_bytes < before);
        assert_eq!(after.dead_bytes, 0);
        assert_eq!(db.fetch(b"churn").unwrap().unwrap(), v);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn hash_distributes() {
        // Not a statistical test — just confirm variety across keys.
        let hashes: std::collections::HashSet<u32> = (0..100)
            .map(|i| gdbm_hash(format!("key{i}").as_bytes()))
            .collect();
        assert!(hashes.len() > 95);
    }

    #[test]
    fn empty_key_and_value() {
        let d = tmpdir("empty");
        let mut db = Gdbm::open(&d.join("t")).unwrap();
        db.store(b"", b"", StoreMode::Replace).unwrap();
        assert_eq!(db.fetch(b"").unwrap().unwrap(), b"");
        assert_eq!(db.len().unwrap(), 1);
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn corrupt_magic_detected() {
        let d = tmpdir("magic");
        std::fs::write(d.join("t.db"), vec![0u8; 2000]).unwrap();
        assert!(matches!(Gdbm::open(&d.join("t")), Err(Error::Corrupt(_))));
        std::fs::remove_dir_all(&d).unwrap();
    }
}
