//! The DAV client library — the Rust analogue of the paper's
//! "internally developed C++ classes" driving mod_dav.
//!
//! All PSE data access in `pse-ecce` goes through [`DavClient`]. The
//! [`ParseMode`] knob selects how multistatus responses are decoded —
//! `Dom` reproduces the Xerces-DOM client the paper measured in Table 1,
//! `Sax` the streaming rewrite it recommends — and the connection policy
//! of the underlying `pse-http` client reproduces the persistent-vs-
//! reconnect comparison the paper left "under investigation".

use crate::cdc::{self, ChunkParams};
use crate::depth::Depth;
use crate::error::{DavError, Result};
use crate::lock::LockScope;
use crate::multistatus::Multistatus;
use crate::property::{Property, PropertyName, DAV_NS};
use crate::version::{HistoryImage, VersionMeta};
use pse_cache::{CacheConfig, CacheStats, ShardedCache};
use pse_http::client::ConnectionPolicy;
use pse_http::{Client, Method, Request, Response, StatusCode};
use pse_xml::dom::{Document, Element};
use pse_xml::writer::Writer;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Duration;

/// One entry of a version-tree report (see [`DavClient::versions`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionEntry {
    /// 1-based version number.
    pub number: u32,
    /// Body length in bytes.
    pub len: u64,
    /// ISO-8601 creation date.
    pub created: String,
    /// Is this the checked-in (newest, not checked-out) version?
    pub checked_in: bool,
    /// The version's history URL (`/.well-known/history/<path>/<n>`).
    pub href: String,
}

/// How multistatus bodies are parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseMode {
    /// Build a full DOM, then walk it (the paper's measured baseline).
    Dom,
    /// Stream events directly into result structures (the paper's
    /// recommended optimisation).
    #[default]
    Sax,
}

/// A GET body remembered alongside the validator it arrived with.
struct CachedBody {
    etag: String,
    body: Vec<u8>,
}

/// A parsed PROPFIND result remembered alongside the server's
/// multistatus state etag.
struct CachedMultistatus {
    etag: String,
    ms: Multistatus,
}

/// The client-side validating cache. Entries are *never* served
/// without a round trip: every use sends a conditional request and the
/// cached value is returned only on 304, so a stale cache can cost an
/// extra revalidation but can never produce stale data.
struct ClientCache {
    bodies: ShardedCache<String, Arc<CachedBody>>,
    multistatus: ShardedCache<String, Arc<CachedMultistatus>>,
}

/// The server's answer to a ranged GET ([`DavClient::get_range`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeBody {
    /// 206: exactly the requested bytes, plus the entity's total length
    /// from `Content-Range`.
    Partial {
        /// The requested byte range.
        body: Vec<u8>,
        /// Complete length of the entity on the server.
        total: u64,
    },
    /// 200: the server sent the whole entity (range ignored, or the
    /// `If-Range` validator went stale).
    Full(Vec<u8>),
    /// 416: no byte of the range exists; `total` is the entity length
    /// from `Content-Range: bytes */N`.
    Unsatisfiable {
        /// Complete length of the entity on the server.
        total: u64,
    },
}

/// What [`DavClient::put_delta`] did and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// `true` when the PUT created the resource (201) vs updated (204).
    pub created: bool,
    /// Literal body bytes shipped over the wire (re-used chunks cost
    /// only headers).
    pub bytes_sent: u64,
    /// Total size of the new entity.
    pub bytes_total: u64,
    /// Content-defined chunks in the new entity.
    pub chunks_total: usize,
    /// Chunks satisfied by server-side `X-Copy-From` instead of bytes.
    pub chunks_reused: usize,
    /// `true` when the client had no usable base (or the base changed
    /// mid-flight) and fell back to one full PUT.
    pub full_fallback: bool,
}

/// A blocking DAV client bound to one server.
pub struct DavClient {
    http: Client,
    parse_mode: ParseMode,
    cache: Option<ClientCache>,
}

impl DavClient {
    /// Connect to a DAV server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<DavClient> {
        Ok(DavClient {
            http: Client::connect(addr)?,
            parse_mode: ParseMode::default(),
            cache: None,
        })
    }

    /// Select DOM or SAX multistatus parsing.
    pub fn set_parse_mode(&mut self, mode: ParseMode) {
        self.parse_mode = mode;
    }

    /// Opt in to the validating cache: GET bodies and parsed PROPFIND
    /// results are kept and revalidated with `If-None-Match`; a 304
    /// answers from the cache without re-transferring (or re-parsing)
    /// the entity. Off by default.
    pub fn enable_cache(&mut self, config: CacheConfig) {
        self.cache = Some(ClientCache {
            bodies: ShardedCache::new(config.clone()),
            multistatus: ShardedCache::new(config),
        });
    }

    /// Drop the validating cache and return to plain requests.
    pub fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// Combined counters of both cache halves (bodies + multistatus).
    /// Zeros when the cache is disabled.
    pub fn cache_stats(&self) -> CacheStats {
        match &self.cache {
            None => CacheStats::default(),
            Some(c) => {
                let (a, b) = (c.bodies.stats(), c.multistatus.stats());
                CacheStats {
                    hits: a.hits + b.hits,
                    misses: a.misses + b.misses,
                    insertions: a.insertions + b.insertions,
                    evictions: a.evictions + b.evictions,
                    invalidations: a.invalidations + b.invalidations,
                    expirations: a.expirations + b.expirations,
                }
            }
        }
    }

    /// Flush cached entries for `path` (and its subtree) after a local
    /// mutation. Purely an optimisation — revalidation would catch the
    /// change anyway — but it avoids pointless conditional round trips.
    fn invalidate_cached(&self, path: &str) {
        let Some(c) = &self.cache else { return };
        c.bodies.remove(&path.to_owned());
        let prefix = format!("{}/", path.trim_end_matches('/'));
        c.bodies.invalidate_matching(|k| k.starts_with(&prefix));
        // Multistatus keys are `path \0 depth \0 body`; any cached view
        // rooted at an ancestor may include this resource, so drop all.
        c.multistatus.invalidate_all();
    }

    /// Attach basic-auth credentials.
    pub fn set_credentials(&mut self, creds: pse_http::auth::Credentials) {
        self.http.set_credentials(creds);
    }

    /// Persistent vs reconnect-per-request.
    pub fn set_policy(&mut self, policy: ConnectionPolicy) {
        self.http.set_policy(policy);
    }

    /// Follow up to `max_hops` `307`/`308` redirects transparently,
    /// replaying method and body (see
    /// [`pse_http::Client::set_follow_redirects`]). A cluster replica
    /// answers mutating methods with `307` to its primary; with this
    /// enabled a DAV client may be pointed at any node.
    pub fn set_follow_redirects(&mut self, max_hops: u32) {
        self.http.set_follow_redirects(max_hops);
    }

    /// Install a retry/timeout/backoff policy on the underlying HTTP
    /// client. Idempotent DAV traffic (GET, PUT, DELETE, PROPFIND, …)
    /// is re-sent across transport failures; non-idempotent methods
    /// (MKCOL, MOVE, COPY, LOCK) surface
    /// [`pse_http::Error::MaybeExecuted`] instead of risking a
    /// duplicated side effect.
    pub fn set_retry_policy(&mut self, policy: pse_http::RetryPolicy) {
        self.http.set_retry_policy(policy);
    }

    /// Access the underlying HTTP client (for raw requests).
    pub fn http(&mut self) -> &mut Client {
        &mut self.http
    }

    fn expect(&self, resp: Response, ok: &[u16], context: &str) -> Result<Response> {
        if ok.contains(&resp.status.code()) {
            Ok(resp)
        } else {
            Err(DavError::UnexpectedStatus {
                status: resp.status,
                context: format!("{context}: {}", resp.body_text()),
            })
        }
    }

    // ---- documents and collections ----

    /// OPTIONS: the server's DAV compliance classes.
    pub fn options(&mut self) -> Result<String> {
        let resp = self.http.send(Request::new(Method::Options, "/"))?;
        let resp = self.expect(resp, &[200], "OPTIONS")?;
        Ok(resp.headers.get("DAV").unwrap_or("").to_owned())
    }

    /// GET a document body. With the cache enabled, a remembered body
    /// is revalidated with `If-None-Match` and reused on 304.
    pub fn get(&mut self, path: &str) -> Result<Vec<u8>> {
        let cached = self
            .cache
            .as_ref()
            .and_then(|c| c.bodies.get(&path.to_owned()));
        let mut req = Request::new(Method::Get, path);
        if let Some(c) = &cached {
            req = req.with_header("If-None-Match", &c.etag);
        }
        let resp = self.http.send(req)?;
        if resp.status.code() == StatusCode::NOT_MODIFIED.code() {
            if let Some(c) = cached {
                return Ok(c.body.clone());
            }
        }
        let resp = self.expect(resp, &[200], "GET")?;
        if let Some(cache) = &self.cache {
            if let Some(etag) = resp.headers.get("ETag") {
                let cost = path.len() + etag.len() + resp.body.len() + 64;
                cache.bodies.insert(
                    path.to_owned(),
                    Arc::new(CachedBody {
                        etag: etag.to_owned(),
                        body: resp.body.clone(),
                    }),
                    cost,
                );
            }
        }
        Ok(resp.body)
    }

    /// PUT a document; returns `true` when created (201) vs updated (204).
    pub fn put(
        &mut self,
        path: &str,
        body: impl Into<Vec<u8>>,
        content_type: Option<&str>,
    ) -> Result<bool> {
        let mut req = Request::new(Method::Put, path).with_body(body);
        if let Some(ct) = content_type {
            req = req.with_header("Content-Type", ct);
        }
        let resp = self.http.send(req)?;
        self.invalidate_cached(path);
        Ok(self.expect(resp, &[201, 204], "PUT")?.status.code() == 201)
    }

    /// PUT under a lock token.
    pub fn put_locked(
        &mut self,
        path: &str,
        body: impl Into<Vec<u8>>,
        token: &str,
    ) -> Result<bool> {
        let req = Request::new(Method::Put, path)
            .with_header("If", format!("(<{token}>)"))
            .with_body(body);
        let resp = self.http.send(req)?;
        self.invalidate_cached(path);
        Ok(self.expect(resp, &[201, 204], "PUT")?.status.code() == 201)
    }

    // ---- bulk transfer (range GET, resumable PUT, delta sync) ----

    /// GET a byte range (`spec` is the `Range` header value, e.g.
    /// `bytes=0-1023`), optionally gated by an `If-Range` validator.
    ///
    /// This deliberately bypasses the validating cache in *both*
    /// directions: a cached full body is never sliced and passed off as
    /// the server's answer (only the server can couple the range to the
    /// entity's current validator), and a partial body is never stored
    /// as if it were the whole entity.
    pub fn get_range(
        &mut self,
        path: &str,
        spec: &str,
        if_range: Option<&str>,
    ) -> Result<RangeBody> {
        let mut req = Request::new(Method::Get, path).with_header("Range", spec);
        if let Some(v) = if_range {
            req = req.with_header("If-Range", v);
        }
        let resp = self.http.send(req)?;
        let content_range_total = |resp: &Response| {
            resp.headers
                .get("Content-Range")
                .and_then(pse_http::range::parse_content_range)
                .map(|(_, total)| total)
                .ok_or_else(|| {
                    DavError::BadRequest("ranged response without a Content-Range".into())
                })
        };
        match resp.status.code() {
            206 => {
                let total = content_range_total(&resp)?;
                Ok(RangeBody::Partial {
                    body: resp.body,
                    total,
                })
            }
            200 => Ok(RangeBody::Full(resp.body)),
            416 => {
                let total = content_range_total(&resp)?;
                Ok(RangeBody::Unsatisfiable { total })
            }
            _ => Err(DavError::UnexpectedStatus {
                status: resp.status,
                context: format!("ranged GET: {}", resp.body_text()),
            }),
        }
    }

    /// PUT `body` in `chunk_size`-byte pieces via `Content-Range`,
    /// resuming where a previous (crashed or interrupted) upload left
    /// off. A progress probe runs first; a mid-flight 416 resynchronises
    /// from the server's `X-Staged-Bytes`. Returns `true` on create.
    pub fn put_resumable(
        &mut self,
        path: &str,
        body: &[u8],
        content_type: Option<&str>,
        chunk_size: usize,
    ) -> Result<bool> {
        let total = body.len() as u64;
        if total == 0 {
            // Zero-length entities have nothing to resume.
            return self.put(path, Vec::new(), content_type);
        }
        let chunk_size = chunk_size.max(1);
        let mut offset = self.stage_probe(path, total)?;
        let mut resyncs = 0u32;
        while offset < total {
            let end = (offset + chunk_size as u64).min(total) - 1;
            let mut req = Request::new(Method::Put, path)
                .with_header("Content-Range", format!("bytes {offset}-{end}/{total}"))
                .with_body(body[offset as usize..=end as usize].to_vec());
            if let Some(ct) = content_type {
                req = req.with_header("Content-Type", ct);
            }
            let resp = self.http.send(req)?;
            match resp.status.code() {
                202 => offset = end + 1,
                201 | 204 => {
                    let created = resp.status.code() == 201;
                    self.invalidate_cached(path);
                    self.remember_body(path, resp.headers.get("ETag"), body);
                    return Ok(created);
                }
                416 => {
                    // The stage moved under us (or a stale stage from an
                    // earlier total survived a server-side restart):
                    // trust the server's count and continue from there.
                    resyncs += 1;
                    if resyncs > 3 {
                        return Err(DavError::StageMismatch { staged: offset });
                    }
                    let staged = resp
                        .headers
                        .get("X-Staged-Bytes")
                        .and_then(|v| v.parse::<u64>().ok());
                    match staged {
                        Some(s) if s <= total => offset = s,
                        _ => {
                            self.stage_abort(path, total)?;
                            offset = 0;
                        }
                    }
                }
                _ => {
                    return Err(DavError::UnexpectedStatus {
                        status: resp.status,
                        context: format!("resumable PUT: {}", resp.body_text()),
                    })
                }
            }
        }
        // The server auto-commits the request that completes the stage,
        // so the loop can only exit through a 201/204 above.
        Err(DavError::BadRequest(
            "resumable PUT fully staged but the server never committed".into(),
        ))
    }

    /// PUT with content-defined delta sync: unchanged chunks of the
    /// previously-fetched entity are re-used server-side via
    /// `X-Copy-From`; only changed chunks travel as bytes. Needs the
    /// validating cache enabled and holding the current entity (a prior
    /// [`get`](Self::get), [`put_delta`](Self::put_delta) or full
    /// [`put`](Self::put) seeds it); otherwise — or when the server's
    /// entity changed mid-flight (412) — it degrades to one full PUT.
    pub fn put_delta(
        &mut self,
        path: &str,
        body: &[u8],
        content_type: Option<&str>,
    ) -> Result<DeltaOutcome> {
        self.put_delta_with(path, body, content_type, ChunkParams::default())
    }

    /// [`put_delta`](Self::put_delta) with explicit chunking parameters.
    pub fn put_delta_with(
        &mut self,
        path: &str,
        body: &[u8],
        content_type: Option<&str>,
        params: ChunkParams,
    ) -> Result<DeltaOutcome> {
        let total = body.len() as u64;
        let base = self
            .cache
            .as_ref()
            .and_then(|c| c.bodies.get(&path.to_owned()));
        let base = match base {
            // X-Copy-From rides an If-Match guard, which uses strong
            // comparison — a weak base validator can never pass it.
            Some(b) if !b.etag.starts_with("W/") && total > 0 && !b.body.is_empty() => b,
            _ => return self.put_full_fallback(path, body, content_type),
        };

        // Index the base's chunks by content hash (byte-compare on use:
        // a 64-bit hash is a match *hint*, not proof).
        let old_chunks = cdc::chunk(&base.body, params);
        let mut index: std::collections::HashMap<u64, Vec<&cdc::Chunk>> =
            std::collections::HashMap::new();
        for c in &old_chunks {
            index.entry(c.hash).or_default().push(c);
        }

        // Plan the upload as coalesced copy/literal runs.
        enum Op {
            Copy { src: u64, len: u64 },
            Literal { start: usize, len: usize },
        }
        let new_chunks = cdc::chunk(body, params);
        let mut ops: Vec<Op> = Vec::new();
        let mut reused = 0usize;
        for c in &new_chunks {
            let matched = index.get(&c.hash).and_then(|cands| {
                cands.iter().find(|o| {
                    o.len == c.len
                        && base.body[o.offset..o.offset + o.len] == body[c.offset..c.offset + c.len]
                })
            });
            match matched {
                Some(o) => {
                    reused += 1;
                    if let Some(Op::Copy { src, len }) = ops.last_mut() {
                        if *src + *len == o.offset as u64 {
                            *len += o.len as u64;
                            continue;
                        }
                    }
                    ops.push(Op::Copy {
                        src: o.offset as u64,
                        len: o.len as u64,
                    });
                }
                None => {
                    if let Some(Op::Literal { len, .. }) = ops.last_mut() {
                        *len += c.len;
                        continue;
                    }
                    ops.push(Op::Literal {
                        start: c.offset,
                        len: c.len,
                    });
                }
            }
        }

        // Ship the plan. Every request carries If-Match so a base that
        // changes under us surfaces as 412 instead of silent corruption.
        let mut retried = false;
        'attempt: loop {
            let mut offset = 0u64;
            let mut bytes_sent = 0u64;
            for op in &ops {
                let (len, mut req) = match *op {
                    Op::Copy { src, len } => (
                        len,
                        Request::new(Method::Put, path)
                            .with_header(
                                "Content-Range",
                                format!("bytes {offset}-{}/{total}", offset + len - 1),
                            )
                            .with_header("X-Copy-From", format!("bytes={src}-{}", src + len - 1)),
                    ),
                    Op::Literal { start, len } => {
                        bytes_sent += len as u64;
                        (
                            len as u64,
                            Request::new(Method::Put, path)
                                .with_header(
                                    "Content-Range",
                                    format!("bytes {offset}-{}/{total}", offset + len as u64 - 1),
                                )
                                .with_body(body[start..start + len].to_vec()),
                        )
                    }
                };
                req = req.with_header("If-Match", &base.etag);
                if let Some(ct) = content_type {
                    req = req.with_header("Content-Type", ct);
                }
                let resp = self.http.send(req)?;
                match resp.status.code() {
                    202 => offset += len,
                    201 | 204 => {
                        let created = resp.status.code() == 201;
                        self.invalidate_cached(path);
                        self.remember_body(path, resp.headers.get("ETag"), body);
                        return Ok(DeltaOutcome {
                            created,
                            bytes_sent,
                            bytes_total: total,
                            chunks_total: new_chunks.len(),
                            chunks_reused: reused,
                            full_fallback: false,
                        });
                    }
                    // Base entity changed server-side: our copy sources
                    // are meaningless now. Discard the stage, full PUT.
                    412 => {
                        self.stage_abort(path, total)?;
                        return self.put_full_fallback(path, body, content_type);
                    }
                    // Stale stage from an earlier failed upload: discard
                    // it and replay the plan once from byte zero.
                    416 if !retried => {
                        retried = true;
                        self.stage_abort(path, total)?;
                        continue 'attempt;
                    }
                    _ => {
                        return Err(DavError::UnexpectedStatus {
                            status: resp.status,
                            context: format!("delta PUT: {}", resp.body_text()),
                        })
                    }
                }
            }
            // A non-empty plan always ends in a committing request, so
            // falling out of the loop means the server never reached
            // `staged == total`.
            return Err(DavError::BadRequest(
                "delta PUT finished without a commit".into(),
            ));
        }
    }

    /// Progress probe: how many bytes of a `total`-byte upload to `path`
    /// are already staged server-side? Discards a stage whose declared
    /// total disagrees with `total` (it belongs to a different entity).
    fn stage_probe(&mut self, path: &str, total: u64) -> Result<u64> {
        let req = Request::new(Method::Put, path)
            .with_header("Content-Range", format!("bytes */{total}"));
        let resp = self.http.send(req)?;
        let resp = self.expect(resp, &[202], "stage probe")?;
        let staged = resp
            .headers
            .get("X-Staged-Bytes")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        let staged_total = resp
            .headers
            .get("X-Staged-Total")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(total);
        // A stage declared for a different total belongs to a different
        // entity; a stage already at (or past) `total` can't accept the
        // append that would trigger the commit. Discard both.
        if staged_total != total || staged >= total {
            self.stage_abort(path, total)?;
            return Ok(0);
        }
        Ok(staged)
    }

    /// Discard any staged upload for `path`.
    fn stage_abort(&mut self, path: &str, total: u64) -> Result<()> {
        let req = Request::new(Method::Put, path)
            .with_header("Content-Range", format!("bytes */{total}"))
            .with_header("X-Stage-Abort", "1");
        let resp = self.http.send(req)?;
        self.expect(resp, &[204], "stage abort")?;
        Ok(())
    }

    /// Full-body PUT used when delta sync has no base, remembering the
    /// result so the *next* delta does.
    fn put_full_fallback(
        &mut self,
        path: &str,
        body: &[u8],
        content_type: Option<&str>,
    ) -> Result<DeltaOutcome> {
        let mut req = Request::new(Method::Put, path).with_body(body.to_vec());
        if let Some(ct) = content_type {
            req = req.with_header("Content-Type", ct);
        }
        let resp = self.http.send(req)?;
        self.invalidate_cached(path);
        let resp = self.expect(resp, &[201, 204], "PUT")?;
        let created = resp.status.code() == 201;
        self.remember_body(path, resp.headers.get("ETag"), body);
        Ok(DeltaOutcome {
            created,
            bytes_sent: body.len() as u64,
            bytes_total: body.len() as u64,
            chunks_total: 0,
            chunks_reused: 0,
            full_fallback: true,
        })
    }

    /// Seed the validating cache with a body we just wrote, keyed by the
    /// ETag the server answered with — the base for future delta syncs.
    fn remember_body(&self, path: &str, etag: Option<&str>, body: &[u8]) {
        let (Some(cache), Some(etag)) = (&self.cache, etag) else {
            return;
        };
        let cost = path.len() + etag.len() + body.len() + 64;
        cache.bodies.insert(
            path.to_owned(),
            Arc::new(CachedBody {
                etag: etag.to_owned(),
                body: body.to_vec(),
            }),
            cost,
        );
    }

    /// MKCOL a collection.
    pub fn mkcol(&mut self, path: &str) -> Result<()> {
        let resp = self.http.send(Request::new(Method::MkCol, path))?;
        self.expect(resp, &[201], "MKCOL")?;
        Ok(())
    }

    /// DELETE a resource.
    pub fn delete(&mut self, path: &str) -> Result<()> {
        let resp = self.http.send(Request::new(Method::Delete, path))?;
        self.invalidate_cached(path);
        self.expect(resp, &[204, 200], "DELETE")?;
        Ok(())
    }

    /// COPY `src` to `dst`.
    pub fn copy(&mut self, src: &str, dst: &str, overwrite: bool) -> Result<bool> {
        let req = Request::new(Method::Copy, src)
            .with_header("Destination", dst)
            .with_header("Overwrite", if overwrite { "T" } else { "F" });
        let resp = self.http.send(req)?;
        self.invalidate_cached(dst);
        Ok(self.expect(resp, &[201, 204], "COPY")?.status.code() == 201)
    }

    /// MOVE `src` to `dst`.
    pub fn move_(&mut self, src: &str, dst: &str, overwrite: bool) -> Result<bool> {
        let req = Request::new(Method::Move, src)
            .with_header("Destination", dst)
            .with_header("Overwrite", if overwrite { "T" } else { "F" });
        let resp = self.http.send(req)?;
        self.invalidate_cached(src);
        self.invalidate_cached(dst);
        Ok(self.expect(resp, &[201, 204], "MOVE")?.status.code() == 201)
    }

    /// Does a resource exist? (PROPFIND depth 0 naming only
    /// `DAV:resourcetype`, so the server reads no dead property.)
    pub fn exists(&mut self, path: &str) -> Result<bool> {
        let body = Self::propfind_body(Some(&[PropertyName::dav("resourcetype")]), false);
        let req = Request::new(Method::PropFind, path)
            .with_header("Depth", "0")
            .with_xml_body(body);
        let resp = self.http.send(req)?;
        match resp.status.code() {
            207 => Ok(true),
            404 => Ok(false),
            _ => Err(DavError::UnexpectedStatus {
                status: resp.status,
                context: "existence check".into(),
            }),
        }
    }

    // ---- properties ----

    fn propfind_body(names: Option<&[PropertyName]>, names_only: bool) -> String {
        let mut root = Element::new(Some(DAV_NS), "propfind");
        match names {
            None if names_only => {
                root.push_elem(Element::new(Some(DAV_NS), "propname"));
            }
            None => {
                root.push_elem(Element::new(Some(DAV_NS), "allprop"));
            }
            Some(list) => {
                let mut prop = Element::new(Some(DAV_NS), "prop");
                for n in list {
                    prop.push_elem(Element::new(Some(&n.namespace), &n.local));
                }
                root.push_elem(prop);
            }
        }
        Writer::new().write_document(&Document::with_root(root))
    }

    /// PROPFIND for all properties.
    pub fn propfind_all(&mut self, path: &str, depth: Depth) -> Result<Multistatus> {
        self.propfind_inner(path, depth, Self::propfind_body(None, false))
    }

    /// PROPFIND for property names only.
    pub fn propfind_names(&mut self, path: &str, depth: Depth) -> Result<Multistatus> {
        self.propfind_inner(path, depth, Self::propfind_body(None, true))
    }

    /// PROPFIND for a selected set — "request only the values of
    /// metadata it understands".
    pub fn propfind(
        &mut self,
        path: &str,
        depth: Depth,
        names: &[PropertyName],
    ) -> Result<Multistatus> {
        self.propfind_inner(path, depth, Self::propfind_body(Some(names), false))
    }

    fn propfind_inner(&mut self, path: &str, depth: Depth, body: String) -> Result<Multistatus> {
        // Cache key covers everything that shapes the multistatus:
        // root, depth, and the request body (which carries the asked-for
        // property set).
        let key = self
            .cache
            .as_ref()
            .map(|_| format!("{path}\u{0}{}\u{0}{body}", depth.as_str()));
        let cached = match (&self.cache, &key) {
            (Some(c), Some(k)) => c.multistatus.get(k),
            _ => None,
        };
        let mut req = Request::new(Method::PropFind, path)
            .with_header("Depth", depth.as_str())
            .with_xml_body(body);
        if let Some(c) = &cached {
            req = req.with_header("If-None-Match", &c.etag);
        }
        let resp = self.http.send(req)?;
        if resp.status.code() == StatusCode::NOT_MODIFIED.code() {
            if let Some(c) = cached {
                // The server vouched the tree is unchanged: skip the
                // XML transfer *and* the parse.
                return Ok(c.ms.clone());
            }
        }
        let resp = self.expect(resp, &[207], "PROPFIND")?;
        let ms = parse_multistatus(self.parse_mode, &resp.body)?;
        if let (Some(cache), Some(k)) = (&self.cache, key) {
            if let Some(etag) = resp.headers.get("ETag") {
                let cost = k.len() + etag.len() + resp.body.len() + 64;
                cache.multistatus.insert(
                    k,
                    Arc::new(CachedMultistatus {
                        etag: etag.to_owned(),
                        ms: ms.clone(),
                    }),
                    cost,
                );
            }
        }
        Ok(ms)
    }

    /// Read one property's text value (depth 0), `None` when undefined.
    pub fn get_prop(&mut self, path: &str, name: &PropertyName) -> Result<Option<String>> {
        let ms = self.propfind(path, Depth::Zero, std::slice::from_ref(name))?;
        Ok(ms
            .responses
            .first()
            .and_then(|r| r.prop(name))
            .map(|p| p.text_value()))
    }

    /// PROPPATCH with explicit set and remove lists.
    pub fn proppatch(
        &mut self,
        path: &str,
        set: &[Property],
        remove: &[PropertyName],
    ) -> Result<Multistatus> {
        let mut root = Element::new(Some(DAV_NS), "propertyupdate");
        if !set.is_empty() {
            let mut s = Element::new(Some(DAV_NS), "set");
            let mut prop = Element::new(Some(DAV_NS), "prop");
            for p in set {
                prop.push_elem(p.value.clone());
            }
            s.push_elem(prop);
            root.push_elem(s);
        }
        if !remove.is_empty() {
            let mut r = Element::new(Some(DAV_NS), "remove");
            let mut prop = Element::new(Some(DAV_NS), "prop");
            for n in remove {
                prop.push_elem(Element::new(Some(&n.namespace), &n.local));
            }
            r.push_elem(prop);
            root.push_elem(r);
        }
        let body = Writer::new().write_document(&Document::with_root(root));
        let req = Request::new(Method::PropPatch, path).with_xml_body(body);
        let resp = self.http.send(req)?;
        self.invalidate_cached(path);
        let resp = self.expect(resp, &[207], "PROPPATCH")?;
        let ms = parse_multistatus(self.parse_mode, &resp.body)?;
        // Surface per-property failures as an error for convenience.
        for entry in &ms.responses {
            for ps in &entry.propstats {
                if ps.status.is_error() {
                    return Err(DavError::UnexpectedStatus {
                        status: ps.status,
                        context: format!(
                            "PROPPATCH of {} on {}",
                            ps.props
                                .first()
                                .map(|p| p.name.to_string())
                                .unwrap_or_default(),
                            entry.href
                        ),
                    });
                }
            }
        }
        Ok(ms)
    }

    /// Set one text property.
    pub fn proppatch_set(&mut self, path: &str, name: &PropertyName, value: &str) -> Result<()> {
        self.proppatch(path, &[Property::text(name.clone(), value)], &[])?;
        Ok(())
    }

    /// Remove one property.
    pub fn proppatch_remove(&mut self, path: &str, name: &PropertyName) -> Result<()> {
        self.proppatch(path, &[], std::slice::from_ref(name))?;
        Ok(())
    }

    // ---- locking ----

    /// LOCK a resource; returns the lock token.
    pub fn lock(
        &mut self,
        path: &str,
        scope: LockScope,
        depth: Depth,
        owner: &str,
        timeout: Option<Duration>,
    ) -> Result<String> {
        let mut root = Element::new(Some(DAV_NS), "lockinfo");
        let mut ls = Element::new(Some(DAV_NS), "lockscope");
        ls.push_elem(Element::new(Some(DAV_NS), scope.as_str()));
        root.push_elem(ls);
        let mut lt = Element::new(Some(DAV_NS), "locktype");
        lt.push_elem(Element::new(Some(DAV_NS), "write"));
        root.push_elem(lt);
        if !owner.is_empty() {
            let mut o = Element::new(Some(DAV_NS), "owner");
            o.push_text(owner);
            root.push_elem(o);
        }
        let body = Writer::new().write_document(&Document::with_root(root));
        let mut req = Request::new(Method::Lock, path)
            .with_header("Depth", depth.as_str())
            .with_xml_body(body);
        if let Some(t) = timeout {
            req = req.with_header("Timeout", format!("Second-{}", t.as_secs()));
        }
        let resp = self.http.send(req)?;
        let resp = self.expect(resp, &[200, 201], "LOCK")?;
        resp.headers
            .get("Lock-Token")
            .map(|t| t.trim_matches(['<', '>']).to_owned())
            .ok_or_else(|| DavError::BadRequest("LOCK response without Lock-Token".into()))
    }

    /// UNLOCK by token.
    pub fn unlock(&mut self, path: &str, token: &str) -> Result<()> {
        let req =
            Request::new(Method::Unlock, path).with_header("Lock-Token", format!("<{token}>"));
        let resp = self.http.send(req)?;
        self.expect(resp, &[204], "UNLOCK")?;
        Ok(())
    }

    // ---- extensions ----

    /// DASL SEARCH with a raw `searchrequest` body.
    pub fn search_raw(&mut self, body: &str) -> Result<Multistatus> {
        Ok(self.search_raw_paged(body)?.0)
    }

    /// DASL SEARCH returning the continuation cursor a `DAV:limit`ed
    /// query carries in `X-Search-Cursor` (`None` = no further pages).
    pub fn search_raw_paged(&mut self, body: &str) -> Result<(Multistatus, Option<String>)> {
        let req = Request::new(Method::Search, "/").with_xml_body(body);
        let resp = self.http.send(req)?;
        let resp = self.expect(resp, &[207], "SEARCH")?;
        let cursor = resp
            .headers
            .get(crate::search::CURSOR_HEADER)
            .map(str::to_owned);
        Ok((parse_multistatus(self.parse_mode, &resp.body)?, cursor))
    }

    /// SEARCH for resources where `name` equals `value` under `scope`,
    /// fetching matches `page_size` at a time until the server's cursor
    /// runs dry. Bounded memory per round trip regardless of match count.
    /// Returns the matching hrefs; see [`search_eq`](Self::search_eq).
    pub fn search_eq_paged(
        &mut self,
        scope: &str,
        name: &PropertyName,
        value: &str,
        page_size: usize,
    ) -> Result<Vec<String>> {
        self.search_eq_pages(scope, name, value, Some(page_size))
    }

    /// SEARCH for resources where `name` equals `value`, under `scope`,
    /// returning the matching hrefs. The query selects only `name`
    /// (`DAV:select`), so the server reads and ships that one property
    /// per match instead of every property (allprop).
    pub fn search_eq(
        &mut self,
        scope: &str,
        name: &PropertyName,
        value: &str,
    ) -> Result<Vec<String>> {
        self.search_eq_pages(scope, name, value, None)
    }

    /// The one `eq` SEARCH body builder behind [`search_eq`](Self::search_eq)
    /// and [`search_eq_paged`](Self::search_eq_paged). Without a page size
    /// the server sends every match at once and no cursor, so the loop
    /// runs once.
    fn search_eq_pages(
        &mut self,
        scope: &str,
        name: &PropertyName,
        value: &str,
        page_size: Option<usize>,
    ) -> Result<Vec<String>> {
        let limit = page_size
            .map(|n| format!("<D:limit><D:nresults>{n}</D:nresults></D:limit>"))
            .unwrap_or_default();
        let mut hrefs = Vec::new();
        let mut cursor: Option<String> = None;
        loop {
            let cursor_elem = cursor
                .as_deref()
                .map(|c| format!("<D:cursor>{c}</D:cursor>"))
                .unwrap_or_default();
            let body = format!(
                r#"<D:searchrequest xmlns:D="DAV:" xmlns:q="{ns}"><D:basicsearch>
                  <D:select><D:prop><q:{local}/></D:prop></D:select>
                  <D:from><D:scope><D:href>{scope}</D:href></D:scope></D:from>
                  <D:where><D:eq><D:prop><q:{local}/></D:prop><D:literal>{value}</D:literal></D:eq></D:where>
                  {limit}{cursor_elem}
                </D:basicsearch></D:searchrequest>"#,
                ns = name.namespace,
                local = name.local,
                value = pse_xml::escape::escape_text(value),
            );
            let (ms, next) = self.search_raw_paged(&body)?;
            hrefs.extend(ms.responses.into_iter().map(|r| r.href));
            match next {
                Some(c) => cursor = Some(c),
                None => return Ok(hrefs),
            }
        }
    }

    /// Put a document under version control.
    pub fn version_control(&mut self, path: &str) -> Result<()> {
        let resp = self.http.send(Request::new(Method::VersionControl, path))?;
        self.expect(resp, &[200], "VERSION-CONTROL")?;
        Ok(())
    }

    /// Version numbers and sizes for a versioned document.
    pub fn version_tree(&mut self, path: &str) -> Result<Vec<(u32, u64)>> {
        let req =
            Request::new(Method::Report, path).with_xml_body(r#"<D:version-tree xmlns:D="DAV:"/>"#);
        let resp = self.http.send(req)?;
        let resp = self.expect(resp, &[200], "REPORT version-tree")?;
        let doc = Document::parse(&resp.body_text())?;
        let mut out = Vec::new();
        for v in doc.root().children_named(Some(DAV_NS), "version") {
            let num = v
                .child(Some(DAV_NS), "version-name")
                .and_then(|n| n.text().trim().parse().ok())
                .unwrap_or(0);
            let len = v
                .child(Some(DAV_NS), "getcontentlength")
                .and_then(|n| n.text().trim().parse().ok())
                .unwrap_or(0);
            out.push((num, len));
        }
        Ok(out)
    }

    /// Retrieve the body of one stored version.
    pub fn version_content(&mut self, path: &str, number: u32) -> Result<Vec<u8>> {
        let body = format!(
            r#"<D:version-content xmlns:D="DAV:"><D:version>{number}</D:version></D:version-content>"#
        );
        let req = Request::new(Method::Report, path).with_xml_body(body);
        let resp = self.http.send(req)?;
        Ok(self.expect(resp, &[200], "REPORT version-content")?.body)
    }

    /// CHECKOUT: suspend auto-versioning on `path` until [`checkin`]
    /// (RFC 3253 working-resource flow, collapsed to in-place editing).
    ///
    /// [`checkin`]: Self::checkin
    pub fn checkout(&mut self, path: &str) -> Result<()> {
        let resp = self.http.send(Request::new(Method::Checkout, path))?;
        self.expect(resp, &[200], "CHECKOUT")?;
        Ok(())
    }

    /// CHECKIN: record exactly one new version from the current content
    /// and resume normal gating. Returns the new version number.
    pub fn checkin(&mut self, path: &str) -> Result<u32> {
        let resp = self.http.send(Request::new(Method::Checkin, path))?;
        let resp = self.expect(resp, &[201], "CHECKIN")?;
        resp.headers
            .get("X-Version")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| DavError::BadRequest("CHECKIN answered without X-Version".into()))
    }

    /// Full version metadata for a versioned document, oldest first.
    pub fn versions(&mut self, path: &str) -> Result<Vec<VersionEntry>> {
        let req =
            Request::new(Method::Report, path).with_xml_body(r#"<D:version-tree xmlns:D="DAV:"/>"#);
        let resp = self.http.send(req)?;
        let resp = self.expect(resp, &[200], "REPORT version-tree")?;
        let doc = Document::parse(&resp.body_text())?;
        let mut out = Vec::new();
        for v in doc.root().children_named(Some(DAV_NS), "version") {
            let text = |name: &str| {
                v.child(Some(DAV_NS), name)
                    .map(|n| n.text().trim().to_owned())
                    .unwrap_or_default()
            };
            out.push(VersionEntry {
                number: text("version-name").parse().unwrap_or(0),
                len: text("getcontentlength").parse().unwrap_or(0),
                created: text("creationdate"),
                checked_in: text("checked-in") == "true",
                href: text("href"),
            });
        }
        Ok(out)
    }

    /// `path`'s whole history with every body (None when it has none),
    /// from `REPORT version-tree` and one `version-content` per version.
    pub fn history_image(&mut self, path: &str) -> Result<Option<HistoryImage>> {
        let entries = self.versions(path)?;
        let Some(newest) = entries.last() else {
            return Ok(None);
        };
        let checked_out = !newest.checked_in;
        let mut versions = Vec::with_capacity(entries.len());
        for e in &entries {
            let created = crate::repo::parse_iso8601(&e.created)
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .ok_or_else(|| DavError::BadRequest(format!("bad creationdate {:?}", e.created)))?;
            let meta = VersionMeta {
                number: e.number,
                created: created.as_secs(),
                len: e.len,
            };
            versions.push((meta, self.version_content(path, e.number)?));
        }
        Ok(Some(HistoryImage {
            versions,
            checked_out,
        }))
    }

    /// Revert `path` to its stored version `number`: COPY from the
    /// version's history URL onto the live resource. The revert is
    /// itself recorded as a new version (auto-version mode) or requires
    /// a prior [`checkout`](Self::checkout) (manual mode).
    pub fn revert_to(&mut self, path: &str, number: u32) -> Result<()> {
        let src = crate::version::history_url(path, number);
        let req = Request::new(Method::Copy, &src).with_header("Destination", path);
        let resp = self.http.send(req)?;
        self.invalidate_cached(path);
        self.expect(resp, &[201, 204], "COPY (revert)")?;
        Ok(())
    }

    /// List a collection's children via PROPFIND depth 1 (names only,
    /// using the `displayname` live property).
    pub fn list(&mut self, path: &str) -> Result<Vec<String>> {
        let norm = pse_http::uri::normalize_path(path);
        let ms = self.propfind(&norm, Depth::One, &[PropertyName::dav("displayname")])?;
        let mut out: Vec<String> = ms
            .responses
            .iter()
            .filter(|r| r.href != norm)
            .map(|r| pse_http::uri::basename(&r.href).to_owned())
            .collect();
        out.sort();
        Ok(out)
    }

    /// Is the resource a collection? (resourcetype live property.)
    pub fn is_collection(&mut self, path: &str) -> Result<bool> {
        let name = PropertyName::dav("resourcetype");
        let ms = self.propfind(path, Depth::Zero, std::slice::from_ref(&name))?;
        Ok(ms
            .responses
            .first()
            .and_then(|r| r.prop(&name))
            .map(|p| p.value.child(Some(DAV_NS), "collection").is_some())
            .unwrap_or(false))
    }
}

/// Parse a 207 body where it lies. A body that is not UTF-8 is an error,
/// not a parse of its lossy repair.
fn parse_multistatus(mode: ParseMode, body: &[u8]) -> Result<Multistatus> {
    let xml = std::str::from_utf8(body)
        .map_err(|_| DavError::BadRequest("multistatus body is not UTF-8".into()))?;
    match mode {
        ParseMode::Dom => Multistatus::parse_dom(xml),
        ParseMode::Sax => Multistatus::parse_sax(xml),
    }
}

/// Expose the 423 check: was an error caused by a lock?
pub fn is_locked_error(e: &DavError) -> bool {
    matches!(
        e,
        DavError::UnexpectedStatus {
            status,
            ..
        } if status.code() == StatusCode::LOCKED.code()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multistatus_bodies_must_be_utf8() {
        let ok = br#"<D:multistatus xmlns:D="DAV:"><D:response><D:href>/a</D:href></D:response></D:multistatus>"#;
        let mut bad = ok.to_vec();
        let at = bad
            .iter()
            .position(|&b| b == b'a')
            .expect("the href has an a");
        bad[at] = 0xFF;
        for mode in [ParseMode::Dom, ParseMode::Sax] {
            assert_eq!(parse_multistatus(mode, ok).unwrap().responses[0].href, "/a");
            assert!(
                matches!(parse_multistatus(mode, &bad), Err(DavError::BadRequest(_))),
                "{mode:?}"
            );
        }
    }
}
