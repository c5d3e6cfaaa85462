//! Secondary index over dead properties, for `SEARCH`.
//!
//! The paper's central claim is that *open* metadata enables query
//! tools the OODB could never serve. A depth-∞ walk with one property
//! read per resource proves the opposite at scale, so this module keeps
//! a [`PropIndex`]: per property name, sorted `value → {paths}`
//! postings plus a numeric side-index (total-ordered f64 bits) for
//! `gt`/`lt`. Repositories update it at every mutation point under the
//! same path-lock plans that keep the property cache coherent, and the
//! SEARCH planner ([`crate::search`]) consults it through
//! [`crate::repo::Repository::index_probe`], falling back to the scan
//! when a probe cannot answer.
//!
//! Each repository mutation changes the index in exactly one call (one
//! mutex hold, one journal batch): [`PropIndex::patch`] for a whole
//! PROPPATCH, [`PropIndex::copy_tree`] / [`PropIndex::move_tree`] for a
//! COPY or MOVE together with the overwritten destination. So every
//! state a probe sees is a state some committed mutation left, and a
//! [`Probe::Covered`] answer (the matches of an `eq` query, all plain
//! text) may stand in for the property reads. So may
//! [`PropIndex::named`], which answers a named property read of one
//! path when every name is absent or held as plain text.
//!
//! Persistence (filesystem repositories) lives under
//! `<root>/.DAV/index/`: a `snapshot.idx` full dump plus a
//! `journal.log` of mutations since, every line checksummed. Any
//! anomaly — missing files, a torn append, a bad checksum — makes
//! [`PropIndex::open`] report that a rebuild from the repository tree
//! is required; the index is a cache of the DBM property files, never
//! the source of truth.

use crate::property::{Property, PropertyName};
use crate::repo::PropPatchOp;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Values longer than this are indexed presence-only: they still answer
/// `isdefined` (and keep `eq` complete — equality needs equal lengths),
/// but are not copied into the value postings.
const VALUE_CAP: usize = 1024;

/// Snapshot file name under the index directory.
const SNAPSHOT: &str = "snapshot.idx";
/// Journal file name under the index directory.
const JOURNAL: &str = "journal.log";
/// Snapshot header line.
const HEADER: &str = "pse-propindex-v2";
/// Compact once the journal holds more records than this floor *and*
/// more than 4× the live entry count.
const COMPACT_FLOOR: u64 = 1024;

/// One indexable comparison the SEARCH planner may push down.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe<'a> {
    /// Property text equals the literal.
    Eq(&'a PropertyName, &'a str),
    /// Property text parses as f64 and is greater than the literal.
    Gt(&'a PropertyName, f64),
    /// Property text parses as f64 and is less than the literal.
    Lt(&'a PropertyName, f64),
    /// The property is defined on the resource.
    IsDefined(&'a PropertyName),
    /// Every pair's property text equals its literal, and every match
    /// holds each of those values as plain text (see
    /// [`Property::is_plain_text`]). Answers only when all matches are
    /// plain, so the caller may emit `Property::text(name, literal)`
    /// for them without reading a property.
    Covered(&'a [(&'a PropertyName, &'a str)]),
}

/// Index counters, for tests and the DSI ablation.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexStats {
    /// Probes answered (`Some` returned).
    pub hits: u64,
    /// Probes declined (`None`: capped value, unindexable form).
    pub misses: u64,
    /// Named reads answered by [`PropIndex::named`].
    pub reads_answered: u64,
    /// Named reads [`PropIndex::named`] declined (a capped or rich
    /// value, or a name the stores key ambiguously).
    pub reads_declined: u64,
    /// Live (path, property) entries.
    pub entries: u64,
    /// Snapshots written (journal folded into a fresh snapshot).
    pub compactions: u64,
    /// 1 when [`PropIndex::open`] found the persisted index missing or
    /// corrupt, so the repository rebuilt it from its stored properties.
    pub rebuilt_on_open: u64,
}

/// How one property value is held in the index.
#[derive(Debug, Clone, PartialEq)]
enum Stored {
    /// Full text, present in the value postings (and the numeric side
    /// index when it parses). `plain` when the value was plain text, so
    /// a covered probe may answer for it.
    Full { text: String, plain: bool },
    /// Longer than [`VALUE_CAP`]: presence only.
    Capped,
}

impl Stored {
    fn of(prop: &Property) -> Stored {
        let text = prop.text_value();
        if text.len() > VALUE_CAP {
            Stored::Capped
        } else {
            Stored::Full {
                plain: prop.is_plain_text(),
                text,
            }
        }
    }
}

/// The paths holding one (name, value).
#[derive(Debug, Default)]
struct Posting {
    paths: BTreeSet<String>,
    /// How many of `paths` hold the value as something other than plain
    /// text. While 0, a covered probe needs no per-path check.
    rich: usize,
}

#[derive(Debug, Default)]
struct State {
    /// name → value → paths (values ≤ [`VALUE_CAP`] only).
    postings: BTreeMap<PropertyName, BTreeMap<String, Posting>>,
    /// name → total-ordered f64 bits → paths.
    numeric: BTreeMap<PropertyName, BTreeMap<u64, BTreeSet<String>>>,
    /// name → paths where the property is defined (complete).
    defined: BTreeMap<PropertyName, BTreeSet<String>>,
    /// path → name → stored form, for unindexing on mutation.
    by_path: HashMap<String, BTreeMap<PropertyName, Stored>>,
    /// Per-name count of capped values — while nonzero, `gt`/`lt`
    /// probes on that name are declined (the capped text might parse).
    capped: HashMap<PropertyName, usize>,
    /// Entries under names a DBM store keys ambiguously (see
    /// [`keyed_faithfully`]) — while nonzero, named reads are declined.
    ambiguous: usize,
    /// Journal handle; `None` for memory-only indexes (or after an
    /// append error permanently disabled persistence).
    journal: Option<Journal>,
    /// Snapshots written by [`State::compact`].
    compactions: u64,
}

#[derive(Debug)]
struct Journal {
    file: fs::File,
    records: u64,
    dir: PathBuf,
}

/// Map f64 to bits whose unsigned order matches numeric order.
/// `-0.0` is folded onto `0.0` so range probes agree with `==`.
fn num_key(x: f64) -> u64 {
    let x = if x == 0.0 { 0.0 } else { x };
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The numeric form `Condition::{Gt,Lt}` evaluates: trimmed f64 parse,
/// NaN excluded (NaN compares false against everything).
fn num_of(text: &str) -> Option<f64> {
    text.trim().parse::<f64>().ok().filter(|x| !x.is_nan())
}

/// Does a DBM store read back under `name` exactly what was written
/// under it? Not when the namespace holds a NUL (the storage key then
/// decodes as another name, which it may shadow) or starts with the
/// `\x01` the filesystem store reserves for its own keys (never read
/// back as a property).
fn keyed_faithfully(name: &PropertyName) -> bool {
    !name.namespace.contains('\0') && !name.namespace.starts_with('\x01')
}

/// Is `p` equal to `root` or underneath it?
fn in_tree(p: &str, root: &str) -> bool {
    p == root
        || (root == "/" && p.len() > 1)
        || (p.len() > root.len() && p.starts_with(root) && p.as_bytes()[root.len()] == b'/')
}

// ---- record (de)serialisation ----

/// Escape a field so records stay one-line, space-separated.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(ch),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    pse_http::uri::percent_decode(s)
}

/// A journal / snapshot record.
#[derive(Debug, Clone, PartialEq)]
enum Record {
    Set(String, PropertyName, Stored),
    Remove(String, PropertyName),
    RemoveTree(String),
    CopyTree(String, String),
    MoveTree(String, String),
}

impl Record {
    fn to_line(&self) -> String {
        let payload = match self {
            Record::Set(p, n, Stored::Full { text, plain }) => format!(
                "set {} {} {} {} {}",
                esc(p),
                esc(&n.namespace),
                esc(&n.local),
                u8::from(*plain),
                esc(text)
            ),
            Record::Set(p, n, Stored::Capped) => {
                format!("setc {} {} {}", esc(p), esc(&n.namespace), esc(&n.local))
            }
            Record::Remove(p, n) => {
                format!("rm {} {} {}", esc(p), esc(&n.namespace), esc(&n.local))
            }
            Record::RemoveTree(p) => format!("rmtree {}", esc(p)),
            Record::CopyTree(s, d) => format!("cptree {} {}", esc(s), esc(d)),
            Record::MoveTree(s, d) => format!("mvtree {} {}", esc(s), esc(d)),
        };
        format!("{:016x} {payload}", pse_cache::fnv1a_64(payload.as_bytes()))
    }

    fn parse(line: &str) -> Option<Record> {
        let (sum, payload) = line.split_once(' ')?;
        if u64::from_str_radix(sum, 16).ok()? != pse_cache::fnv1a_64(payload.as_bytes()) {
            return None;
        }
        let fields: Vec<&str> = payload.split(' ').collect();
        let name = |i: usize| -> Option<PropertyName> {
            Some(PropertyName::new(
                &unesc(fields.get(i)?),
                &unesc(fields.get(i + 1)?),
            ))
        };
        match fields.first().copied()? {
            "set" if fields.len() == 6 => Some(Record::Set(
                unesc(fields[1]),
                name(2)?,
                Stored::Full {
                    plain: match fields[4] {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    },
                    text: unesc(fields[5]),
                },
            )),
            "setc" if fields.len() == 4 => {
                Some(Record::Set(unesc(fields[1]), name(2)?, Stored::Capped))
            }
            "rm" if fields.len() == 4 => Some(Record::Remove(unesc(fields[1]), name(2)?)),
            "rmtree" if fields.len() == 2 => Some(Record::RemoveTree(unesc(fields[1]))),
            "cptree" if fields.len() == 3 => {
                Some(Record::CopyTree(unesc(fields[1]), unesc(fields[2])))
            }
            "mvtree" if fields.len() == 3 => {
                Some(Record::MoveTree(unesc(fields[1]), unesc(fields[2])))
            }
            _ => None,
        }
    }
}

impl State {
    fn entries(&self) -> u64 {
        self.by_path.values().map(|m| m.len() as u64).sum()
    }

    fn unindex(&mut self, path: &str, name: &PropertyName, stored: &Stored) {
        match stored {
            Stored::Full { text: v, plain } => {
                if let Some(values) = self.postings.get_mut(name) {
                    if let Some(posting) = values.get_mut(v) {
                        if posting.paths.remove(path) && !plain {
                            posting.rich -= 1;
                        }
                        if posting.paths.is_empty() {
                            values.remove(v);
                        }
                    }
                    if values.is_empty() {
                        self.postings.remove(name);
                    }
                }
                if let Some(x) = num_of(v) {
                    if let Some(keys) = self.numeric.get_mut(name) {
                        let k = num_key(x);
                        if let Some(paths) = keys.get_mut(&k) {
                            paths.remove(path);
                            if paths.is_empty() {
                                keys.remove(&k);
                            }
                        }
                        if keys.is_empty() {
                            self.numeric.remove(name);
                        }
                    }
                }
            }
            Stored::Capped => {
                if let Some(c) = self.capped.get_mut(name) {
                    *c = c.saturating_sub(1);
                    if *c == 0 {
                        self.capped.remove(name);
                    }
                }
            }
        }
        if let Some(paths) = self.defined.get_mut(name) {
            paths.remove(path);
            if paths.is_empty() {
                self.defined.remove(name);
            }
        }
    }

    /// Would `rec` change anything? A no-op is neither applied nor
    /// journalled.
    fn changes(&self, rec: &Record) -> bool {
        match rec {
            Record::Set(..) => true,
            Record::Remove(path, name) => {
                self.by_path.get(path).is_some_and(|m| m.contains_key(name))
            }
            Record::RemoveTree(root) | Record::CopyTree(root, _) | Record::MoveTree(root, _) => {
                self.by_path.keys().any(|p| in_tree(p, root))
            }
        }
    }

    /// Apply one mutation's records in order and journal the effective
    /// ones as one batch.
    fn commit(&mut self, recs: impl IntoIterator<Item = Record>) {
        let mut logged = Vec::new();
        for rec in recs {
            if self.changes(&rec) {
                self.apply(&rec);
                logged.push(rec);
            }
        }
        self.log(&logged);
    }

    fn apply(&mut self, rec: &Record) {
        match rec {
            Record::Set(path, name, stored) => self.set(path, name, stored.clone()),
            Record::Remove(path, name) => self.remove(path, name),
            Record::RemoveTree(path) => self.remove_tree(path),
            Record::CopyTree(src, dst) => self.copy_tree(src, dst),
            Record::MoveTree(src, dst) => {
                self.copy_tree(src, dst);
                self.remove_tree(src);
            }
        }
    }

    fn set(&mut self, path: &str, name: &PropertyName, stored: Stored) {
        if let Some(old) = self.by_path.get(path).and_then(|m| m.get(name)).cloned() {
            self.unindex(path, name, &old);
        }
        match &stored {
            Stored::Full { text: v, plain } => {
                let posting = self
                    .postings
                    .entry(name.clone())
                    .or_default()
                    .entry(v.clone())
                    .or_default();
                if posting.paths.insert(path.to_owned()) && !plain {
                    posting.rich += 1;
                }
                if let Some(x) = num_of(v) {
                    self.numeric
                        .entry(name.clone())
                        .or_default()
                        .entry(num_key(x))
                        .or_default()
                        .insert(path.to_owned());
                }
            }
            Stored::Capped => {
                *self.capped.entry(name.clone()).or_default() += 1;
            }
        }
        self.defined
            .entry(name.clone())
            .or_default()
            .insert(path.to_owned());
        let fresh = self
            .by_path
            .entry(path.to_owned())
            .or_default()
            .insert(name.clone(), stored)
            .is_none();
        if fresh && !keyed_faithfully(name) {
            self.ambiguous += 1;
        }
    }

    fn remove(&mut self, path: &str, name: &PropertyName) {
        let Some(old) = self.by_path.get_mut(path).and_then(|m| m.remove(name)) else {
            return;
        };
        self.unindex(path, name, &old);
        if !keyed_faithfully(name) {
            self.ambiguous -= 1;
        }
        if self.by_path.get(path).is_some_and(BTreeMap::is_empty) {
            self.by_path.remove(path);
        }
    }

    fn remove_tree(&mut self, root: &str) {
        let victims: Vec<String> = self
            .by_path
            .keys()
            .filter(|p| in_tree(p, root))
            .cloned()
            .collect();
        for path in victims {
            let names: Vec<PropertyName> = self.by_path[&path].keys().cloned().collect();
            for name in names {
                self.remove(&path, &name);
            }
        }
    }

    fn copy_tree(&mut self, src: &str, dst: &str) {
        let copies: Vec<(String, PropertyName, Stored)> = self
            .by_path
            .iter()
            .filter(|(p, _)| in_tree(p, src))
            .flat_map(|(p, m)| {
                let new_path = format!("{dst}{}", &p[src.len()..]);
                m.iter()
                    .map(move |(n, s)| (new_path.clone(), n.clone(), s.clone()))
            })
            .collect();
        for (path, name, stored) in copies {
            self.set(&path, &name, stored);
        }
    }

    fn probe(&self, probe: &Probe) -> Option<Vec<String>> {
        match probe {
            Probe::Eq(name, value) => {
                if value.len() > VALUE_CAP {
                    // Equality against a longer-than-cap literal could
                    // only match capped values the postings don't hold.
                    return None;
                }
                Some(
                    self.postings
                        .get(*name)
                        .and_then(|values| values.get(*value))
                        .map(|posting| posting.paths.iter().cloned().collect())
                        .unwrap_or_default(),
                )
            }
            Probe::Gt(name, x) => {
                if self.capped.contains_key(*name) {
                    return None; // a capped value might parse numerically
                }
                let mut out = BTreeSet::new();
                if let Some(keys) = self.numeric.get(*name) {
                    for paths in keys
                        .range((
                            std::ops::Bound::Excluded(num_key(*x)),
                            std::ops::Bound::Unbounded,
                        ))
                        .map(|(_, p)| p)
                    {
                        out.extend(paths.iter().cloned());
                    }
                }
                Some(out.into_iter().collect())
            }
            Probe::Lt(name, x) => {
                if self.capped.contains_key(*name) {
                    return None;
                }
                let mut out = BTreeSet::new();
                if let Some(keys) = self.numeric.get(*name) {
                    for paths in keys.range(..num_key(*x)).map(|(_, p)| p) {
                        out.extend(paths.iter().cloned());
                    }
                }
                Some(out.into_iter().collect())
            }
            Probe::IsDefined(name) => Some(
                self.defined
                    .get(*name)
                    .map(|paths| paths.iter().cloned().collect())
                    .unwrap_or_default(),
            ),
            Probe::Covered(pairs) => {
                let mut postings = Vec::with_capacity(pairs.len());
                for (name, value) in pairs.iter() {
                    if value.len() > VALUE_CAP {
                        return None;
                    }
                    match self
                        .postings
                        .get(*name)
                        .and_then(|values| values.get(*value))
                    {
                        Some(posting) => postings.push((*name, posting)),
                        None => return Some(Vec::new()),
                    }
                }
                postings.sort_by_key(|(_, posting)| posting.paths.len());
                let ((_, first), rest) = postings.split_first()?;
                let mut out = Vec::new();
                let in_rest = |p: &&String| rest.iter().all(|(_, s)| s.paths.contains(*p));
                for path in first.paths.iter().filter(in_rest) {
                    // Only a posting some path holds as rich text needs
                    // the match's own entry looked up.
                    let plain = postings.iter().all(|(name, posting)| {
                        posting.rich == 0
                            || matches!(
                                self.by_path.get(path).and_then(|m| m.get(*name)),
                                Some(Stored::Full { plain: true, .. })
                            )
                    });
                    if !plain {
                        return None;
                    }
                    out.push(path.clone());
                }
                Some(out)
            }
        }
    }

    /// See [`PropIndex::named`].
    fn named(&self, path: &str, names: &[PropertyName]) -> Option<NamedRead> {
        if self.ambiguous > 0 || !names.iter().all(keyed_faithfully) {
            return None;
        }
        let entries = self.by_path.get(path);
        let values = names
            .iter()
            .map(|name| match entries.and_then(|m| m.get(name)) {
                None => Some(None),
                Some(Stored::Full { text, plain: true }) => {
                    Some(Some(Property::text(name.clone(), text)))
                }
                Some(_) => None,
            })
            .collect::<Option<_>>()?;
        Some(NamedRead {
            values,
            path_has_entries: entries.is_some(),
        })
    }

    /// Every live entry as a snapshot record.
    fn dump(&self) -> Vec<Record> {
        let mut out = Vec::new();
        let mut paths: Vec<&String> = self.by_path.keys().collect();
        paths.sort();
        for path in paths {
            for (name, stored) in &self.by_path[path] {
                out.push(Record::Set(path.clone(), name.clone(), stored.clone()));
            }
        }
        out
    }

    /// Append one mutation's records to the journal (when persistent)
    /// in a single write, compacting when the journal has outgrown the
    /// snapshot. An append failure disables persistence for the life of
    /// the process — the in-memory index stays correct and the next open
    /// rebuilds.
    fn log(&mut self, recs: &[Record]) {
        if recs.is_empty() {
            return;
        }
        let records = {
            let Some(journal) = self.journal.as_mut() else {
                return;
            };
            let mut batch = String::new();
            for rec in recs {
                batch.push_str(&rec.to_line());
                batch.push('\n');
            }
            if journal.file.write_all(batch.as_bytes()).is_err() {
                self.journal = None;
                return;
            }
            journal.records += recs.len() as u64;
            journal.records
        };
        if records > COMPACT_FLOOR && records > 4 * self.entries() {
            self.compact();
        }
    }

    /// Rewrite the snapshot from live state and truncate the journal.
    fn compact(&mut self) {
        let Some(journal) = self.journal.as_ref() else {
            return;
        };
        let dir = journal.dir.clone();
        let mut body = String::new();
        body.push_str(HEADER);
        body.push('\n');
        let records = self.dump();
        for rec in &records {
            body.push_str(&rec.to_line());
            body.push('\n');
        }
        body.push_str(&format!("end {}\n", records.len()));
        let tmp = dir.join("snapshot.tmp");
        let ok = fs::write(&tmp, body.as_bytes()).is_ok()
            && fs::rename(&tmp, dir.join(SNAPSHOT)).is_ok();
        if !ok {
            self.journal = None;
            return;
        }
        self.compactions += 1;
        match fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(dir.join(JOURNAL))
        {
            Ok(file) => {
                self.journal = Some(Journal {
                    file,
                    records: 0,
                    dir,
                });
            }
            Err(_) => self.journal = None,
        }
    }
}

/// A named property read answered by [`PropIndex::named`].
#[derive(Debug)]
pub struct NamedRead {
    /// One value per requested name, `None` where the path does not
    /// hold it.
    pub values: Vec<Option<Property>>,
    /// Does the path hold any entry? Then it exists: DELETE and MOVE
    /// drop the entries of every path they remove. Otherwise the caller
    /// still has to check.
    pub path_has_entries: bool,
}

/// The secondary property index. Cheap to probe, maintained by
/// repositories at every mutation point. All methods are internally
/// synchronised; the *coherence* of what gets recorded comes from the
/// caller holding the same path-lock plan that orders the mutation
/// itself.
#[derive(Debug)]
pub struct PropIndex {
    state: Mutex<State>,
    hits: AtomicU64,
    misses: AtomicU64,
    reads_answered: AtomicU64,
    reads_declined: AtomicU64,
    rebuilt_on_open: bool,
}

impl Default for PropIndex {
    fn default() -> PropIndex {
        PropIndex::new()
    }
}

impl PropIndex {
    /// A memory-only index (in-memory repositories, tests).
    pub fn new() -> PropIndex {
        PropIndex::with_state(State::default())
    }

    fn with_state(state: State) -> PropIndex {
        PropIndex {
            state: Mutex::new(state),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            reads_answered: AtomicU64::new(0),
            reads_declined: AtomicU64::new(0),
            rebuilt_on_open: false,
        }
    }

    /// Open a persistent index rooted at `dir` (created if needed).
    /// Returns the index and whether the caller must rebuild it from
    /// the repository (missing snapshot, torn journal, bad checksum —
    /// any anomaly at all).
    pub fn open(dir: &Path) -> (PropIndex, bool) {
        if let Some(idx) = Self::try_load(dir) {
            return (idx, false);
        }
        // Corrupt or absent: start empty, caller rebuilds then compacts.
        let _ = fs::create_dir_all(dir);
        let _ = fs::remove_file(dir.join(SNAPSHOT));
        let journal = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(dir.join(JOURNAL))
            .ok()
            .map(|file| Journal {
                file,
                records: 0,
                dir: dir.to_path_buf(),
            });
        let mut idx = PropIndex::new();
        idx.state.get_mut().journal = journal;
        idx.rebuilt_on_open = true;
        (idx, true)
    }

    fn try_load(dir: &Path) -> Option<PropIndex> {
        let snap_text = fs::read_to_string(dir.join(SNAPSHOT)).ok()?;
        let mut lines = snap_text.lines();
        if lines.next() != Some(HEADER) {
            return None;
        }
        let mut state = State::default();
        let mut saw_end = false;
        for (count, line) in lines.enumerate() {
            if let Some(n) = line.strip_prefix("end ") {
                if n.parse::<usize>().ok()? != count {
                    return None;
                }
                saw_end = true;
                break;
            }
            state.apply(&Record::parse(line)?);
        }
        if !saw_end {
            return None;
        }
        let mut records = 0u64;
        match fs::read_to_string(dir.join(JOURNAL)) {
            Ok(text) => {
                // A torn trailing append (crash mid-write) is
                // indistinguishable from corruption: rebuild.
                if !text.is_empty() && !text.ends_with('\n') {
                    return None;
                }
                for line in text.lines() {
                    state.apply(&Record::parse(line)?);
                    records += 1;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => return None,
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(JOURNAL))
            .ok()?;
        state.journal = Some(Journal {
            file,
            records,
            dir: dir.to_path_buf(),
        });
        Some(PropIndex::with_state(state))
    }

    /// Apply a PROPPATCH's instructions to `path`, in order, as one
    /// change: a probe sees all of them or none.
    pub fn patch(&self, path: &str, ops: &[PropPatchOp]) {
        self.state.lock().commit(ops.iter().map(|op| match op {
            PropPatchOp::Set(prop) => {
                Record::Set(path.to_owned(), prop.name.clone(), Stored::of(prop))
            }
            PropPatchOp::Remove(name) => Record::Remove(path.to_owned(), name.clone()),
        }));
    }

    /// Replace everything recorded for exactly `path` with the entries
    /// of `props` (its dead properties).
    pub fn set_path(&self, path: &str, props: &[Property]) {
        let mut state = self.state.lock();
        let old: Vec<PropertyName> = state
            .by_path
            .get(path)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default();
        let removes = old
            .into_iter()
            .map(|name| Record::Remove(path.to_owned(), name));
        let sets = props
            .iter()
            .map(|p| Record::Set(path.to_owned(), p.name.clone(), Stored::of(p)));
        state.commit(removes.chain(sets));
    }

    /// Drop `path` and everything under it.
    pub fn remove_tree(&self, root: &str) {
        self.state
            .lock()
            .commit([Record::RemoveTree(root.to_owned())]);
    }

    /// Duplicate the entries under `src` to the same layout under `dst`,
    /// replacing whatever was recorded under `dst` (COPY).
    pub fn copy_tree(&self, src: &str, dst: &str) {
        self.state.lock().commit([
            Record::RemoveTree(dst.to_owned()),
            Record::CopyTree(src.to_owned(), dst.to_owned()),
        ]);
    }

    /// Move the entries under `src` to the same layout under `dst`,
    /// replacing whatever was recorded under `dst` (MOVE).
    pub fn move_tree(&self, src: &str, dst: &str) {
        self.state.lock().commit([
            Record::RemoveTree(dst.to_owned()),
            Record::MoveTree(src.to_owned(), dst.to_owned()),
        ]);
    }

    /// Answer a probe: `Some(paths)` (sorted, exact) when the index can
    /// answer it completely, `None` when the planner must scan.
    pub fn probe(&self, probe: &Probe) -> Option<Vec<String>> {
        let out = self.state.lock().probe(probe);
        match &out {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    /// Answer a read of the dead properties `names` of `path` from the
    /// index alone, when each name is absent there or held as plain
    /// text: [`Property::text`] of that text serialises exactly as the
    /// stored value does (see [`Property::is_plain_text`]). `None` when
    /// any name is held capped or as rich text, or is keyed ambiguously
    /// by a DBM store: the caller must read the store.
    pub fn named(&self, path: &str, names: &[PropertyName]) -> Option<NamedRead> {
        let out = self.state.lock().named(path, names);
        match &out {
            Some(_) => self.reads_answered.fetch_add(1, Ordering::Relaxed),
            None => self.reads_declined.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    /// Flush the snapshot and truncate the journal (used after rebuild).
    pub fn compact(&self) {
        self.state.lock().compact();
    }

    /// Probe / size counters.
    pub fn stats(&self) -> IndexStats {
        let state = self.state.lock();
        IndexStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            reads_answered: self.reads_answered.load(Ordering::Relaxed),
            reads_declined: self.reads_declined.load(Ordering::Relaxed),
            entries: state.entries(),
            compactions: state.compactions,
            rebuilt_on_open: self.rebuilt_on_open as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(local: &str) -> PropertyName {
        PropertyName::new("urn:ecce", local)
    }

    fn set(idx: &PropIndex, path: &str, name: &PropertyName, value: &str) {
        idx.patch(
            path,
            &[PropPatchOp::Set(Property::text(name.clone(), value))],
        );
    }

    fn remove(idx: &PropIndex, path: &str, name: &PropertyName) {
        idx.patch(path, &[PropPatchOp::Remove(name.clone())]);
    }

    #[test]
    fn eq_and_isdefined_postings() {
        let idx = PropIndex::new();
        set(&idx, "/a", &n("formula"), "H2O");
        set(&idx, "/b", &n("formula"), "H2O");
        set(&idx, "/c", &n("formula"), "UO2");
        assert_eq!(
            idx.probe(&Probe::Eq(&n("formula"), "H2O")).unwrap(),
            vec!["/a", "/b"]
        );
        assert_eq!(
            idx.probe(&Probe::Eq(&n("formula"), "XY")).unwrap(),
            Vec::<String>::new()
        );
        assert_eq!(
            idx.probe(&Probe::IsDefined(&n("formula"))).unwrap(),
            vec!["/a", "/b", "/c"]
        );
        set(&idx, "/a", &n("formula"), "D2O"); // update replaces the posting
        assert_eq!(
            idx.probe(&Probe::Eq(&n("formula"), "H2O")).unwrap(),
            vec!["/b"]
        );
        remove(&idx, "/b", &n("formula"));
        assert_eq!(
            idx.probe(&Probe::Eq(&n("formula"), "H2O")).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn numeric_side_index_ranges() {
        let idx = PropIndex::new();
        set(&idx, "/w", &n("energy"), "-76.01");
        set(&idx, "/u", &n("energy"), "-75.1");
        set(&idx, "/x", &n("energy"), "12");
        set(&idx, "/t", &n("energy"), "not a number");
        assert_eq!(
            idx.probe(&Probe::Lt(&n("energy"), -75.5)).unwrap(),
            vec!["/w"]
        );
        assert_eq!(
            idx.probe(&Probe::Gt(&n("energy"), -76.0)).unwrap(),
            vec!["/u", "/x"]
        );
        // Boundary is exclusive, matching Condition::Gt.
        assert_eq!(
            idx.probe(&Probe::Gt(&n("energy"), 12.0)).unwrap(),
            Vec::<String>::new()
        );
        // Signed zero folds onto zero.
        set(&idx, "/z", &n("energy"), "-0.0");
        assert_eq!(
            idx.probe(&Probe::Gt(&n("energy"), 0.0)).unwrap(),
            vec!["/x"]
        );
        assert!(!idx
            .probe(&Probe::Lt(&n("energy"), 0.0))
            .unwrap()
            .contains(&"/z".to_owned()));
    }

    #[test]
    fn capped_values_stay_correct() {
        let idx = PropIndex::new();
        let big = "x".repeat(VALUE_CAP + 1);
        set(&idx, "/big", &n("blob"), &big);
        set(&idx, "/small", &n("blob"), "tiny");
        // Presence is complete.
        assert_eq!(
            idx.probe(&Probe::IsDefined(&n("blob"))).unwrap(),
            vec!["/big", "/small"]
        );
        // Short-literal equality cannot match a capped value.
        assert_eq!(
            idx.probe(&Probe::Eq(&n("blob"), "tiny")).unwrap(),
            vec!["/small"]
        );
        // Long-literal equality and numeric ranges are declined.
        assert!(idx.probe(&Probe::Eq(&n("blob"), &big)).is_none());
        assert!(idx.probe(&Probe::Gt(&n("blob"), 0.0)).is_none());
        // Removing the capped value re-enables numeric probes.
        remove(&idx, "/big", &n("blob"));
        assert!(idx.probe(&Probe::Gt(&n("blob"), 0.0)).is_some());
    }

    #[test]
    fn tree_operations() {
        let idx = PropIndex::new();
        set(&idx, "/proj", &n("title"), "Aqueous");
        set(&idx, "/proj/a", &n("formula"), "H2O");
        set(&idx, "/proj/a/geom", &n("formula"), "H2O");
        set(&idx, "/other", &n("formula"), "H2O");
        idx.copy_tree("/proj", "/backup");
        assert_eq!(
            idx.probe(&Probe::Eq(&n("formula"), "H2O")).unwrap(),
            vec![
                "/backup/a",
                "/backup/a/geom",
                "/other",
                "/proj/a",
                "/proj/a/geom"
            ]
        );
        idx.move_tree("/proj", "/moved");
        let got = idx.probe(&Probe::IsDefined(&n("title"))).unwrap();
        assert_eq!(got, vec!["/backup", "/moved"]);
        idx.remove_tree("/backup");
        idx.remove_tree("/moved");
        assert_eq!(
            idx.probe(&Probe::Eq(&n("formula"), "H2O")).unwrap(),
            vec!["/other"]
        );
        // Prefix means path-segment prefix: /other2 survives /other.
        set(&idx, "/other2", &n("formula"), "H2O");
        idx.remove_tree("/other");
        assert_eq!(
            idx.probe(&Probe::Eq(&n("formula"), "H2O")).unwrap(),
            vec!["/other2"]
        );
    }

    #[test]
    fn persistence_roundtrip_and_corruption_rebuild() {
        let dir = std::env::temp_dir().join(format!("pse-propindex-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let (idx, rebuild) = PropIndex::open(&dir);
            assert!(rebuild, "fresh dir must request a rebuild");
            set(&idx, "/a", &n("formula"), "H2O with spaces % and\nnewline");
            set(&idx, "/b", &n("energy"), "-75.2");
            idx.compact();
            set(&idx, "/c", &n("energy"), "3"); // lands in the journal
            remove(&idx, "/a", &n("formula"));
        }
        {
            let (idx, rebuild) = PropIndex::open(&dir);
            assert!(!rebuild, "clean files must load");
            assert!(idx
                .probe(&Probe::Eq(&n("formula"), "H2O with spaces % and\nnewline"))
                .unwrap()
                .is_empty());
            assert_eq!(
                idx.probe(&Probe::Lt(&n("energy"), 0.0)).unwrap(),
                vec!["/b"]
            );
            assert_eq!(
                idx.probe(&Probe::Gt(&n("energy"), 0.0)).unwrap(),
                vec!["/c"]
            );
        }
        // Corrupt the journal: open must demand a rebuild.
        {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL))
                .unwrap();
            f.write_all(b"deadbeef not a record\n").unwrap();
        }
        {
            let (idx, rebuild) = PropIndex::open(&dir);
            assert!(rebuild, "corrupt journal must request a rebuild");
            assert_eq!(idx.stats().entries, 0);
        }
        // A torn (newline-less) trailing append also demands a rebuild.
        {
            let (idx, _) = PropIndex::open(&dir);
            set(&idx, "/x", &n("p"), "v");
            idx.compact();
            set(&idx, "/y", &n("p"), "w");
        }
        {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL))
                .unwrap();
            f.write_all(b"0123").unwrap();
        }
        let (_, rebuild) = PropIndex::open(&dir);
        assert!(rebuild, "torn append must request a rebuild");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_compacts_when_outgrown() {
        let dir =
            std::env::temp_dir().join(format!("pse-propindex-compact-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (idx, _) = PropIndex::open(&dir);
        idx.compact();
        // Far more journal records than live entries: rewrite must fire.
        for i in 0..(COMPACT_FLOOR + 10) {
            set(&idx, "/hot", &n("counter"), &i.to_string());
        }
        let journal_len = fs::metadata(dir.join(JOURNAL)).unwrap().len();
        assert!(
            journal_len < 4096,
            "journal should have been truncated by compaction, is {journal_len} bytes"
        );
        let (idx2, rebuild) = PropIndex::open(&dir);
        assert!(!rebuild);
        assert_eq!(
            idx2.probe(&Probe::Eq(
                &n("counter"),
                &COMPACT_FLOOR.saturating_add(9).to_string()
            ))
            .unwrap(),
            vec!["/hot"]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A value that is not plain text: its text is `text`, inside a
    /// child element.
    fn rich(name: &PropertyName, text: &str) -> Property {
        let mut value = pse_xml::dom::Element::new(Some(&name.namespace), &name.local);
        let mut child = pse_xml::dom::Element::new(Some(&name.namespace), "b");
        child.push_text(text);
        value.push_elem(child);
        Property::from_element(value)
    }

    fn covered(idx: &PropIndex, pairs: &[(&PropertyName, &str)]) -> Option<Vec<String>> {
        idx.probe(&Probe::Covered(pairs))
    }

    #[test]
    fn covered_probe_answers_only_for_plain_matches() {
        let (f, c) = (n("formula"), n("charge"));
        let idx = PropIndex::new();
        set(&idx, "/a", &f, "H2O");
        set(&idx, "/a", &c, "0");
        set(&idx, "/b", &f, "H2O");
        set(&idx, "/b", &c, "+2");
        idx.patch("/r", &[PropPatchOp::Set(rich(&f, "UO2"))]);
        assert_eq!(covered(&idx, &[(&f, "H2O")]).unwrap(), vec!["/a", "/b"]);
        assert_eq!(
            covered(&idx, &[(&f, "H2O"), (&c, "0")]).unwrap(),
            vec!["/a"]
        );
        assert_eq!(covered(&idx, &[(&f, "XY")]).unwrap(), Vec::<String>::new());
        // A rich match declines; the plain Eq probe still answers.
        assert!(covered(&idx, &[(&f, "UO2")]).is_none());
        assert_eq!(idx.probe(&Probe::Eq(&f, "UO2")).unwrap(), vec!["/r"]);
        // A rich value that is not a match does not matter.
        assert_eq!(
            covered(&idx, &[(&f, "H2O"), (&c, "+2")]).unwrap(),
            vec!["/b"]
        );
        // Over the cap, or with nothing to match on: decline.
        let long = "x".repeat(VALUE_CAP + 1);
        assert!(covered(&idx, &[(&f, long.as_str())]).is_none());
        assert!(covered(&idx, &[]).is_none());
        // Setting a plain value over the rich one makes it coverable.
        set(&idx, "/r", &f, "UO2");
        assert_eq!(covered(&idx, &[(&f, "UO2")]).unwrap(), vec!["/r"]);
        // A rich holder of the same value outside the intersection is
        // checked per match, not declined.
        idx.patch(
            "/s",
            &[
                PropPatchOp::Set(rich(&f, "H2O")),
                PropPatchOp::Set(Property::text(c.clone(), "+2")),
            ],
        );
        assert!(covered(&idx, &[(&f, "H2O")]).is_none());
        assert_eq!(
            covered(&idx, &[(&f, "H2O"), (&c, "0")]).unwrap(),
            vec!["/a"]
        );
        assert!(covered(&idx, &[(&c, "+2"), (&f, "H2O")]).is_none());
        // Removing it restores the single-posting answer.
        remove(&idx, "/s", &f);
        assert_eq!(covered(&idx, &[(&f, "H2O")]).unwrap(), vec!["/a", "/b"]);
    }

    #[test]
    fn patch_applies_in_order_as_one_change() {
        let f = n("formula");
        let idx = PropIndex::new();
        idx.patch(
            "/a",
            &[
                PropPatchOp::Set(Property::text(f.clone(), "Y")),
                PropPatchOp::Remove(f.clone()),
                PropPatchOp::Set(Property::text(f.clone(), "X")),
                PropPatchOp::Remove(n("absent")),
            ],
        );
        assert_eq!(covered(&idx, &[(&f, "X")]).unwrap(), vec!["/a"]);
        assert_eq!(
            idx.probe(&Probe::Eq(&f, "Y")).unwrap(),
            Vec::<String>::new()
        );
        // COPY and MOVE replace the destination's entries.
        set(&idx, "/b", &f, "old");
        set(&idx, "/b", &n("stale"), "1");
        idx.copy_tree("/a", "/b");
        assert_eq!(covered(&idx, &[(&f, "X")]).unwrap(), vec!["/a", "/b"]);
        assert_eq!(
            idx.probe(&Probe::IsDefined(&n("stale"))).unwrap(),
            Vec::<String>::new()
        );
        set(&idx, "/c", &f, "Z");
        idx.move_tree("/c", "/b");
        assert_eq!(covered(&idx, &[(&f, "X")]).unwrap(), vec!["/a"]);
        assert_eq!(covered(&idx, &[(&f, "Z")]).unwrap(), vec!["/b"]);
    }

    #[test]
    fn plain_flag_survives_snapshot_and_journal() {
        let dir = std::env::temp_dir().join(format!("pse-propindex-plain-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let f = n("formula");
        {
            let (idx, _) = PropIndex::open(&dir);
            set(&idx, "/snap-plain", &f, "H2O");
            idx.patch("/snap-rich", &[PropPatchOp::Set(rich(&f, "UO2"))]);
            idx.compact();
            set(&idx, "/log-plain", &f, "H2O"); // lands in the journal
            idx.patch("/log-rich", &[PropPatchOp::Set(rich(&f, "OH"))]);
        }
        let (idx, rebuild) = PropIndex::open(&dir);
        assert!(!rebuild);
        assert_eq!(
            covered(&idx, &[(&f, "H2O")]).unwrap(),
            vec!["/log-plain", "/snap-plain"]
        );
        assert!(covered(&idx, &[(&f, "UO2")]).is_none());
        assert!(covered(&idx, &[(&f, "OH")]).is_none());
        assert_eq!(idx.probe(&Probe::Eq(&f, "OH")).unwrap(), vec!["/log-rich"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_snapshot_forces_a_rebuild_that_restores_the_flag() {
        use crate::fsrepo::{FsConfig, FsRepository};
        use crate::repo::Repository;
        let dir = std::env::temp_dir().join(format!("pse-propindex-v1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let f = n("formula");
        {
            let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
            let props = [
                ("/plain", Property::text(f.clone(), "H2O")),
                ("/rich", rich(&f, "UO2")),
            ];
            for (path, prop) in props {
                repo.put(path, b"", None).unwrap();
                repo.set_prop(path, &prop).unwrap();
            }
        }
        // The same entries as a v1 snapshot would hold them: no flag.
        let index_dir = dir.join(".DAV").join("index");
        let line =
            |payload: &str| format!("{:016x} {payload}", pse_cache::fnv1a_64(payload.as_bytes()));
        let v1 = format!(
            "pse-propindex-v1\n{}\n{}\nend 2\n",
            line("set /plain urn:ecce formula H2O"),
            line("set /rich urn:ecce formula UO2")
        );
        fs::write(index_dir.join(SNAPSHOT), v1).unwrap();
        fs::write(index_dir.join(JOURNAL), "").unwrap();
        let repo = FsRepository::create(&dir, FsConfig::default()).unwrap();
        let pairs = [(&f, "H2O")];
        assert_eq!(
            repo.index_probe(&Probe::Covered(&pairs)).unwrap(),
            vec!["/plain"]
        );
        assert!(repo.index_probe(&Probe::Covered(&[(&f, "UO2")])).is_none());
        assert_eq!(
            repo.index_probe(&Probe::Eq(&f, "UO2")).unwrap(),
            vec!["/rich"]
        );
        let snapshot = fs::read_to_string(index_dir.join(SNAPSHOT)).unwrap();
        assert!(snapshot.starts_with("pse-propindex-v2\n"), "{snapshot}");
        drop(repo);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn named_reads_answer_plain_and_absent_names_only() {
        let (f, c, blob) = (n("formula"), n("charge"), n("blob"));
        let idx = PropIndex::new();
        set(&idx, "/a", &f, "H2O");
        set(&idx, "/a", &c, "");
        set(&idx, "/a", &blob, &"x".repeat(VALUE_CAP + 1));
        idx.patch("/r", &[PropPatchOp::Set(rich(&f, "UO2"))]);
        let just_f = std::slice::from_ref(&f);
        let read = idx
            .named("/a", &[f.clone(), n("absent"), c.clone()])
            .unwrap();
        assert_eq!(
            read.values,
            [
                Some(Property::text(f.clone(), "H2O")),
                None,
                Some(Property::text(c.clone(), ""))
            ]
        );
        assert!(read.path_has_entries);
        // A capped or rich value declines the whole read.
        assert!(idx.named("/a", &[f.clone(), blob.clone()]).is_none());
        assert!(idx.named("/r", just_f).is_none());
        // A path without entries answers all-absent, and says so.
        let read = idx.named("/nowhere", just_f).unwrap();
        assert_eq!(read.values, [None]);
        assert!(!read.path_has_entries);
        // Tree operations carry the answers along.
        idx.move_tree("/a", "/b");
        assert!(!idx.named("/a", just_f).unwrap().path_has_entries);
        assert_eq!(
            idx.named("/b", just_f).unwrap().values,
            [Some(Property::text(f.clone(), "H2O"))]
        );
        let s = idx.stats();
        assert_eq!((s.reads_answered, s.reads_declined), (4, 2));
        // A name a DBM store keys ambiguously is declined, and while any
        // is held, so is every read: it may shadow another name.
        let nul = PropertyName::new("a\0b", "c");
        assert!(idx.named("/b", std::slice::from_ref(&nul)).is_none());
        set(&idx, "/z", &nul, "v");
        assert!(idx.named("/b", just_f).is_none());
        idx.remove_tree("/z");
        assert!(idx.named("/b", just_f).is_some());
        let reserved = PropertyName::new("\x01content-type", "");
        assert!(idx.named("/b", &[reserved]).is_none());
    }

    #[test]
    fn record_roundtrip() {
        for rec in [
            Record::Set(
                "/a b".into(),
                n("f x"),
                Stored::Full {
                    text: "v%1\n2".into(),
                    plain: true,
                },
            ),
            Record::Set(
                "/a".into(),
                PropertyName::new("", "bare"),
                Stored::Full {
                    text: String::new(),
                    plain: false,
                },
            ),
            Record::Set("/a".into(), n("f"), Stored::Capped),
            Record::Remove("/a".into(), n("f")),
            Record::RemoveTree("/t".into()),
            Record::CopyTree("/s".into(), "/d".into()),
            Record::MoveTree("/s".into(), "/d".into()),
        ] {
            assert_eq!(Record::parse(&rec.to_line()), Some(rec));
        }
        assert_eq!(Record::parse("0000 set bad checksum"), None);
        assert_eq!(Record::parse("garbage"), None);
    }
}
