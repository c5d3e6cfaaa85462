//! The OODB server process and its remote client — Ecce 1.5's actual
//! deployment shape.
//!
//! The paper's Table 1 footnote identifies a dedicated machine that
//! "served as Ecce's OODB server"; clients reached it over the LAN
//! through the cache-forward layer. This module provides that split:
//! [`OodbServer`] wraps an [`OodbStore`] behind a simple length-prefixed
//! TCP protocol, and [`RemoteOodb`] is the client — object-granular
//! round trips, with a client cache invalidated by the generation
//! counter that every response piggybacks (the "forward" in
//! cache-forward).
//!
//! This is what makes the Table 3 comparison honest: both architectures
//! pay real network costs, and their different *granularities* (one
//! round trip per object vs. one per document/metadata set) become the
//! measurable difference.
//!
//! Wire format: requests and responses are a one-line ASCII header
//! (`VERB args…\n`) optionally followed by `len\n` + `len` bytes of
//! payload. Field lists are encoded with the store's own binary value
//! encoding — the proprietary format leaving the machine, exactly as
//! the paper grumbles.

use crate::encode;
use crate::error::{Error, Result};
use crate::store::{OodbStore, StoredObject};
use crate::value::{FieldValue, Oid};
use parking_lot::Mutex;
use pse_obs::Registry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

// ---- payload encoding: named field lists ----

fn encode_fields(fields: &[(String, FieldValue)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
    for (name, value) in fields {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        encode::put_value_pub(&mut out, value);
    }
    out
}

fn decode_fields(buf: &[u8]) -> Result<Vec<(String, FieldValue)>> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
        if *pos + n > buf.len() {
            return Err(Error::Corrupt("field list truncated".into()));
        }
        let s = &buf[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    if count > 100_000 {
        return Err(Error::Corrupt("absurd field count".into()));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let nlen = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let name = String::from_utf8(take(&mut pos, nlen)?.to_vec())
            .map_err(|_| Error::Corrupt("non-UTF-8 field name".into()))?;
        let (value, used) = encode::get_value_pub(&buf[pos..])?;
        pos += used;
        out.push((name, value));
    }
    Ok(out)
}

fn encode_object_payload(obj: &StoredObject) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(&obj.oid.0.to_le_bytes());
    out.extend_from_slice(&(obj.class.len() as u32).to_le_bytes());
    out.extend_from_slice(obj.class.as_bytes());
    out.extend_from_slice(&encode_fields(&obj.fields));
    out
}

fn decode_object_payload(buf: &[u8]) -> Result<StoredObject> {
    if buf.len() < 12 {
        return Err(Error::Corrupt("object payload truncated".into()));
    }
    let oid = Oid(u64::from_le_bytes(buf[0..8].try_into().unwrap()));
    let clen = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
    if buf.len() < 12 + clen {
        return Err(Error::Corrupt("object payload truncated".into()));
    }
    let class = String::from_utf8(buf[12..12 + clen].to_vec())
        .map_err(|_| Error::Corrupt("non-UTF-8 class".into()))?;
    let fields = decode_fields(&buf[12 + clen..])?;
    Ok(StoredObject { oid, class, fields })
}

// ---- server ----

/// A running OODB server.
pub struct OodbServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    live: Arc<Mutex<HashMap<u64, TcpStream>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    obs: Arc<Registry>,
}

impl OodbServer {
    /// Serve `store` on `addr`, one thread per client connection,
    /// recording per-RPC counters into a fresh registry.
    pub fn bind<A: ToSocketAddrs>(addr: A, store: OodbStore) -> Result<OodbServer> {
        Self::bind_with_registry(addr, store, Registry::new())
    }

    /// Like [`OodbServer::bind`], recording `oodb.rpc.*` counters into
    /// the given registry.
    pub fn bind_with_registry<A: ToSocketAddrs>(
        addr: A,
        store: OodbStore,
        obs: Arc<Registry>,
    ) -> Result<OodbServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let live: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let shared = Arc::new(Mutex::new(store));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_stop = Arc::clone(&stop);
        let accept_live = Arc::clone(&live);
        let accept_threads = Arc::clone(&conn_threads);
        let accept_obs = Arc::clone(&obs);
        let accept_thread = std::thread::spawn(move || {
            let mut serial = 0u64;
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = stream.set_nodelay(true);
                serial += 1;
                let id = serial;
                if let Ok(clone) = stream.try_clone() {
                    accept_live.lock().insert(id, clone);
                }
                let store = Arc::clone(&shared);
                let live = Arc::clone(&accept_live);
                let conn_obs = Arc::clone(&accept_obs);
                let handle = std::thread::spawn(move || {
                    let _ = serve_connection(stream, &store, &conn_obs);
                    live.lock().remove(&id);
                });
                accept_threads.lock().push(handle);
            }
        });
        Ok(OodbServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
            live,
            conn_threads,
            obs,
        })
    }

    /// Bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metric registry this server records into.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.obs)
    }

    /// Stop accepting and close live connections.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for (_, s) in self.live.lock().drain() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        // Join connection threads so no handler is still touching the
        // store (and its files) after shutdown returns.
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conn_threads.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

fn write_frame(w: &mut impl Write, head: &str, payload: Option<&[u8]>) -> Result<()> {
    match payload {
        Some(p) => writeln!(w, "{head} {}", p.len())?,
        None => writeln!(w, "{head} 0")?,
    }
    if let Some(p) = payload {
        w.write_all(p)?;
    }
    w.flush()?;
    Ok(())
}

fn read_frame(r: &mut impl BufRead) -> Result<(Vec<String>, Vec<u8>)> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(Error::Corrupt("connection closed".into()));
    }
    let mut parts: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    let len: usize = parts
        .pop()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| Error::Corrupt(format!("bad frame header `{line}`")))?;
    if len > 1024 * 1024 * 1024 {
        return Err(Error::Corrupt("absurd frame length".into()));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok((parts, payload))
}

fn serve_connection(stream: TcpStream, store: &Mutex<OodbStore>, obs: &Registry) -> Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let (parts, payload) = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(_) => return Ok(()), // client went away
        };
        let verb = parts.first().map(String::as_str).unwrap_or("");
        if obs.is_enabled() {
            obs.counter(&format!("oodb.rpc.{}", verb.to_ascii_lowercase()))
                .inc();
        }
        let reply: Result<(String, Option<Vec<u8>>)> = (|| {
            let mut db = store.lock();
            let generation = |db: &OodbStore| db.generation();
            match verb {
                "CREATE" => {
                    let class = parts.get(1).cloned().unwrap_or_default();
                    let fields = decode_fields(&payload)?;
                    let oid = db.create(&class, fields)?;
                    Ok((format!("OK {} {}", oid.0, generation(&db)), None))
                }
                "UPDATE" => {
                    let oid: u64 = parts
                        .get(1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| Error::Corrupt("bad oid".into()))?;
                    let fields = decode_fields(&payload)?;
                    db.update(Oid(oid), fields)?;
                    Ok((format!("OK 0 {}", generation(&db)), None))
                }
                "FETCH" => {
                    let oid: u64 = parts
                        .get(1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| Error::Corrupt("bad oid".into()))?;
                    let obj = db.fetch(Oid(oid))?;
                    Ok((
                        format!("OK 0 {}", generation(&db)),
                        Some(encode_object_payload(&obj)),
                    ))
                }
                "DELETE" => {
                    let oid: u64 = parts
                        .get(1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| Error::Corrupt("bad oid".into()))?;
                    db.delete(Oid(oid))?;
                    Ok((format!("OK 0 {}", generation(&db)), None))
                }
                "SCAN" => {
                    let class = parts.get(1).cloned().unwrap_or_default();
                    let objs = db.scan_class(&class)?;
                    let mut payload = Vec::new();
                    payload.extend_from_slice(&(objs.len() as u32).to_le_bytes());
                    for o in &objs {
                        let enc = encode_object_payload(o);
                        payload.extend_from_slice(&(enc.len() as u32).to_le_bytes());
                        payload.extend_from_slice(&enc);
                    }
                    Ok((format!("OK 0 {}", generation(&db)), Some(payload)))
                }
                "LOCATE" => {
                    let oid: u64 = parts
                        .get(1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| Error::Corrupt("bad oid".into()))?;
                    let seg = db.segment_of(Oid(oid)).ok_or(Error::NoSuchObject(oid))?;
                    Ok((format!("OK {seg} {}", generation(&db)), None))
                }
                "PAGE" => {
                    let seg: u32 = parts
                        .get(1)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| Error::Corrupt("bad segment".into()))?;
                    let objs = db.objects_in_segment(seg)?;
                    let mut payload = Vec::new();
                    payload.extend_from_slice(&(objs.len() as u32).to_le_bytes());
                    for o in &objs {
                        let enc = encode_object_payload(o);
                        payload.extend_from_slice(&(enc.len() as u32).to_le_bytes());
                        payload.extend_from_slice(&enc);
                    }
                    Ok((format!("OK 0 {}", generation(&db)), Some(payload)))
                }
                "SEGMENTS" => {
                    let segs = db.segment_ids();
                    let mut payload = Vec::new();
                    payload.extend_from_slice(&(segs.len() as u32).to_le_bytes());
                    for s in segs {
                        payload.extend_from_slice(&s.to_le_bytes());
                    }
                    Ok((format!("OK 0 {}", generation(&db)), Some(payload)))
                }
                "COUNT" => Ok((format!("OK {} {}", db.len(), generation(&db)), None)),
                "DISK" => Ok((format!("OK {} {}", db.disk_usage()?, generation(&db)), None)),
                other => Err(Error::Corrupt(format!("unknown verb `{other}`"))),
            }
        })();
        match reply {
            Ok((head, payload)) => write_frame(&mut writer, &head, payload.as_deref())?,
            Err(e) => {
                obs.counter("oodb.rpc.errors").inc();
                write_frame(&mut writer, &format!("ERR {e}"), None)?;
            }
        }
    }
}

// ---- client ----

/// The remote client: object-granular round trips plus the
/// cache-forward object cache.
pub struct RemoteOodb {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    cache: HashMap<Oid, StoredObject>,
    /// Segments whose full contents are already client-side.
    cached_segments: std::collections::HashSet<u32>,
    seen_generation: u64,
    /// Round trips performed (for the benches).
    pub round_trips: u64,
    /// Payload bytes shipped from the server (for the benches): the
    /// page-granular transfer volume the DAV design avoids.
    pub bytes_received: u64,
}

impl RemoteOodb {
    /// Connect to an [`OodbServer`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<RemoteOodb> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RemoteOodb {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            cache: HashMap::new(),
            cached_segments: std::collections::HashSet::new(),
            seen_generation: 0,
            round_trips: 0,
            bytes_received: 0,
        })
    }

    fn call(&mut self, head: &str, payload: Option<&[u8]>) -> Result<(u64, Vec<u8>)> {
        write_frame(&mut self.writer, head, payload)?;
        self.round_trips += 1;
        let (parts, payload) = read_frame(&mut self.reader)?;
        match parts.first().map(String::as_str) {
            Some("OK") => {
                let value: u64 = parts.get(1).and_then(|v| v.parse().ok()).unwrap_or(0);
                let generation: u64 = parts.get(2).and_then(|v| v.parse().ok()).unwrap_or(0);
                // Cache-forward: any generation change invalidates.
                if generation != self.seen_generation {
                    self.cache.clear();
                    self.cached_segments.clear();
                    self.seen_generation = generation;
                }
                self.bytes_received += payload.len() as u64;
                Ok((value, payload))
            }
            Some("ERR") => {
                let msg = parts[1..].join(" ");
                if let Some(oid) = msg
                    .strip_prefix("no object with oid ")
                    .and_then(|v| v.parse().ok())
                {
                    Err(Error::NoSuchObject(oid))
                } else {
                    Err(Error::Corrupt(format!("server error: {msg}")))
                }
            }
            _ => Err(Error::Corrupt("malformed server reply".into())),
        }
    }
}

impl RemoteOodb {
    /// Decode a list-of-objects payload (PAGE and SCAN share it).
    fn decode_object_list(payload: &[u8]) -> Result<Vec<StoredObject>> {
        if payload.len() < 4 {
            return Err(Error::Corrupt("object list truncated".into()));
        }
        let count = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
        let mut pos = 4usize;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            if pos + 4 > payload.len() {
                return Err(Error::Corrupt("object list truncated".into()));
            }
            let len = u32::from_le_bytes(payload[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            if pos + len > payload.len() {
                return Err(Error::Corrupt("object list truncated".into()));
            }
            out.push(decode_object_payload(&payload[pos..pos + len])?);
            pos += len;
        }
        Ok(out)
    }

    /// Ship one page (segment) of objects into the client cache — the
    /// cache-forward unit of transfer. Fetching a single object drags
    /// its whole page across the wire.
    fn load_page(&mut self, segment: u32) -> Result<()> {
        if self.cached_segments.contains(&segment) {
            return Ok(());
        }
        let (_, payload) = self.call(&format!("PAGE {segment}"), None)?;
        // `call` may have cleared the caches on a generation change
        // *before* we record this page, so insert afterwards.
        for obj in Self::decode_object_list(&payload)? {
            self.cache.insert(obj.oid, obj);
        }
        self.cached_segments.insert(segment);
        Ok(())
    }
}

impl crate::api::ObjectApi for RemoteOodb {
    fn create(&mut self, class: &str, fields: Vec<(String, FieldValue)>) -> Result<Oid> {
        let (oid, _) = self.call(&format!("CREATE {class}"), Some(&encode_fields(&fields)))?;
        Ok(Oid(oid))
    }

    fn update(&mut self, oid: Oid, fields: Vec<(String, FieldValue)>) -> Result<()> {
        self.call(&format!("UPDATE {}", oid.0), Some(&encode_fields(&fields)))?;
        Ok(())
    }

    fn fetch(&mut self, oid: Oid) -> Result<StoredObject> {
        if let Some(obj) = self.cache.get(&oid) {
            return Ok(obj.clone());
        }
        // Page-server semantics: locate the object's page, then ship
        // the whole page (ObjectStore-style cache-forward).
        let (segment, _) = self.call(&format!("LOCATE {}", oid.0), None)?;
        self.load_page(segment as u32)?;
        self.cache
            .get(&oid)
            .cloned()
            .ok_or(Error::NoSuchObject(oid.0))
    }

    fn delete(&mut self, oid: Oid) -> Result<()> {
        self.call(&format!("DELETE {}", oid.0), None)?;
        self.cache.remove(&oid);
        Ok(())
    }

    fn scan_class(&mut self, class: &str) -> Result<Vec<StoredObject>> {
        // Extent scans in a page server ship every page to the client
        // and filter there — there is no server-side query engine. This
        // is the transfer-volume cost the paper's DAV redesign avoids.
        let (_, payload) = self.call("SEGMENTS", None)?;
        if payload.len() < 4 {
            return Err(Error::Corrupt("segment list truncated".into()));
        }
        let count = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
        let mut segments = Vec::with_capacity(count);
        for i in 0..count {
            let off = 4 + i * 4;
            if off + 4 > payload.len() {
                return Err(Error::Corrupt("segment list truncated".into()));
            }
            segments.push(u32::from_le_bytes(
                payload[off..off + 4].try_into().unwrap(),
            ));
        }
        for seg in segments {
            self.load_page(seg)?;
        }
        let mut out: Vec<StoredObject> = self
            .cache
            .values()
            .filter(|o| o.class == class)
            .cloned()
            .collect();
        out.sort_by_key(|o| o.oid);
        Ok(out)
    }

    fn object_count(&mut self) -> Result<usize> {
        let (n, _) = self.call("COUNT", None)?;
        Ok(n as usize)
    }

    fn disk_usage(&mut self) -> Result<u64> {
        let (n, _) = self.call("DISK", None)?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ObjectApi;
    use crate::schema::{FieldType, SchemaBuilder};
    use std::sync::atomic::AtomicU64;

    static N: AtomicU64 = AtomicU64::new(0);

    fn rig() -> (OodbServer, RemoteOodb, std::path::PathBuf) {
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("pse-oodbnet-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let schema = SchemaBuilder::new()
            .class(
                "Doc",
                &[
                    ("name", FieldType::Text),
                    ("size", FieldType::Int),
                    ("data", FieldType::Bytes),
                ],
            )
            .build();
        let store = OodbStore::create_db(&d, schema).unwrap();
        let server = OodbServer::bind("127.0.0.1:0", store).unwrap();
        let client = RemoteOodb::connect(server.local_addr()).unwrap();
        (server, client, d)
    }

    #[test]
    fn remote_crud_roundtrip() {
        let (server, mut c, d) = rig();
        let oid = c
            .create(
                "Doc",
                vec![
                    ("name".into(), FieldValue::Text("x".into())),
                    ("data".into(), FieldValue::Bytes(vec![1, 2, 3])),
                ],
            )
            .unwrap();
        let obj = c.fetch(oid).unwrap();
        assert_eq!(obj.class, "Doc");
        assert_eq!(obj.get("name").unwrap().as_text(), Some("x"));
        assert_eq!(obj.get("data").unwrap().as_bytes(), Some(&[1u8, 2, 3][..]));
        c.update(oid, vec![("size".into(), FieldValue::Int(3))])
            .unwrap();
        assert_eq!(c.fetch(oid).unwrap().get("size").unwrap().as_int(), Some(3));
        assert_eq!(c.object_count().unwrap(), 1);
        assert!(c.disk_usage().unwrap() > 0);
        c.delete(oid).unwrap();
        assert!(matches!(c.fetch(oid), Err(Error::NoSuchObject(_))));
        // The deleted fetch failed server-side: counted as an error RPC.
        let snap = server.registry().snapshot();
        assert_eq!(snap.counter("oodb.rpc.create"), 1);
        // The cache-forward client reads via LOCATE + segment PAGE
        // (never object FETCH), and its cache absorbs repeats, so only
        // lower bounds hold here.
        assert!(snap.counter("oodb.rpc.locate") >= 1, "{snap:?}");
        assert!(snap.counter("oodb.rpc.page") >= 1, "{snap:?}");
        assert_eq!(snap.counter("oodb.rpc.update"), 1);
        assert_eq!(snap.counter("oodb.rpc.delete"), 1);
        assert!(snap.counter("oodb.rpc.errors") >= 1, "{snap:?}");
        server.shutdown();
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn cache_forward_saves_round_trips_and_stays_coherent() {
        let (server, mut a, d) = rig();
        let mut b = RemoteOodb::connect(server.local_addr()).unwrap();
        let oid = a
            .create("Doc", vec![("name".into(), FieldValue::Text("v1".into()))])
            .unwrap();
        // b fetches twice: second is served from cache (1 round trip).
        b.fetch(oid).unwrap();
        let trips = b.round_trips;
        b.fetch(oid).unwrap();
        assert_eq!(b.round_trips, trips);
        // a updates; b's next *server* interaction invalidates its cache.
        a.update(oid, vec![("name".into(), FieldValue::Text("v2".into()))])
            .unwrap();
        let _ = b.object_count().unwrap(); // piggybacked generation bump
        assert_eq!(
            b.fetch(oid).unwrap().get("name").unwrap().as_text(),
            Some("v2")
        );
        server.shutdown();
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn scan_returns_all_and_populates_cache() {
        let (server, mut c, d) = rig();
        for i in 0..20 {
            c.create(
                "Doc",
                vec![("name".into(), FieldValue::Text(format!("d{i}")))],
            )
            .unwrap();
        }
        let objs = c.scan_class("Doc").unwrap();
        assert_eq!(objs.len(), 20);
        let trips = c.round_trips;
        for o in &objs {
            c.fetch(o.oid).unwrap();
        }
        assert_eq!(c.round_trips, trips, "all fetches cached");
        server.shutdown();
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn concurrent_remote_clients() {
        let (server, mut seed, d) = rig();
        let oid = seed
            .create(
                "Doc",
                vec![("name".into(), FieldValue::Text("shared".into()))],
            )
            .unwrap();
        let addr = server.local_addr();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = RemoteOodb::connect(addr).unwrap();
                    for _ in 0..25 {
                        let o = c.fetch(oid).unwrap();
                        assert_eq!(o.get("name").unwrap().as_text(), Some("shared"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.shutdown();
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn field_payload_roundtrip() {
        let fields = vec![
            ("a".into(), FieldValue::Int(-5)),
            ("b".into(), FieldValue::Real(2.5)),
            ("c".into(), FieldValue::List(vec![FieldValue::Ref(Oid(9))])),
            ("d".into(), FieldValue::Null),
        ];
        let enc = encode_fields(&fields);
        assert_eq!(decode_fields(&enc).unwrap(), fields);
        assert!(decode_fields(&enc[..enc.len() - 1]).is_err());
    }
}
