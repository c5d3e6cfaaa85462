//! The DAV method dispatcher — the mod_dav equivalent.
//!
//! [`DavHandler`] turns HTTP requests into [`Repository`] operations,
//! enforcing locks and marshalling multistatus bodies. It implements all
//! of RFC 2518 plus the extension methods the paper lists as "currently
//! under development" (DASL SEARCH, DeltaV versioning).

use crate::depth::Depth;
use crate::error::{DavError, Result};
use crate::ifheader::{Condition, IfHeader};
use crate::lock::{LockManager, LockScope};
use crate::multistatus::{Multistatus, PropStat};
use crate::property::{Property, PropertyName, PropfindKind, DAV_NS};
use crate::repo::{PropPatchOp, Repository, ResourceMeta, StageStatus};
use crate::search;
use crate::version::{DeltaV, HistoryTarget, VersionMeta, VersionStore};
use pse_http::{Method, Request, Response, StatusCode};
use pse_obs::Registry;
use pse_xml::dom::{Document, Element};
use pse_xml::writer::Writer;
use std::sync::Arc;
use std::time::Duration;

/// A DAV protocol engine over a repository. Cheap to clone; all state is
/// shared.
pub struct DavHandler<R: Repository> {
    repo: Arc<R>,
    locks: Arc<LockManager>,
    obs: Arc<Registry>,
}

impl<R: Repository> Clone for DavHandler<R> {
    fn clone(&self) -> Self {
        DavHandler {
            repo: Arc::clone(&self.repo),
            locks: Arc::clone(&self.locks),
            obs: Arc::clone(&self.obs),
        }
    }
}

impl<R: Repository> DavHandler<R> {
    /// Wrap a repository, recording metrics into a fresh registry.
    pub fn new(repo: R) -> DavHandler<R> {
        Self::with_registry(repo, Registry::new())
    }

    /// Wrap a repository, recording metrics into `registry`. The
    /// repository is given the chance to contribute its own stats
    /// (property cache, DBM engines, version store) via
    /// [`Repository::register_obs`].
    pub fn with_registry(repo: R, registry: Arc<Registry>) -> DavHandler<R> {
        let repo = Arc::new(repo);
        repo.register_obs(&registry);
        DavHandler {
            repo,
            locks: Arc::new(LockManager::new()),
            obs: registry,
        }
    }

    /// Shared access to the repository (used by agents and tests).
    pub fn repo(&self) -> Arc<R> {
        Arc::clone(&self.repo)
    }

    /// Shared access to the lock table.
    pub fn locks(&self) -> Arc<LockManager> {
        Arc::clone(&self.locks)
    }

    /// The metric registry this handler records into.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.obs)
    }

    /// Dispatch one request. Never panics; protocol errors become status
    /// codes.
    pub fn handle(&self, req: Request) -> Response {
        let timer = if self.obs.is_enabled() {
            Some(
                self.obs
                    .histogram(&format!(
                        "dav.latency_us.{}",
                        req.method.as_str().to_ascii_lowercase()
                    ))
                    .start_timer(),
            )
        } else {
            None
        };
        let resp = self.dispatch(req);
        drop(timer);
        if self.obs.is_enabled() {
            // Interesting DAV-level outcomes: precondition misses and
            // lock conflicts point at contention; multistatus sizes show
            // how much metadata each PROPFIND moves.
            match resp.status.code() {
                412 => self.obs.counter("dav.precondition_failures").inc(),
                423 => self.obs.counter("dav.lock_conflicts").inc(),
                207 => self
                    .obs
                    .histogram_with("dav.multistatus_bytes", pse_obs::SIZE_BUCKETS_BYTES)
                    .observe(resp.body.len() as u64),
                _ => {}
            }
        }
        resp
    }

    fn dispatch(&self, req: Request) -> Response {
        // Version histories own their URL prefix outright: read-only
        // resources served before method dispatch (COPY falls through —
        // COPY *from* a version URL is the revert flow in copy_move).
        if let Some(resp) = self.history(&req) {
            return resp;
        }
        let result = match req.method {
            Method::Options => self.options(&req),
            Method::Get => self.get(&req, false),
            Method::Head => self.get(&req, true),
            Method::Put => self.put(&req),
            Method::Delete => self.delete(&req),
            Method::MkCol => self.mkcol(&req),
            Method::Copy => self.copy_move(&req, false),
            Method::Move => self.copy_move(&req, true),
            Method::PropFind => self.propfind(&req),
            Method::PropPatch => self.proppatch(&req),
            Method::Lock => self.lock(&req),
            Method::Unlock => self.unlock(&req),
            Method::Search => search::handle(self.repo.as_ref(), &req, &self.obs),
            Method::VersionControl | Method::Report | Method::Checkout | Method::Checkin => {
                self.deltav(&req)
            }
            Method::Post | Method::Trace | Method::Extension(_) => {
                return Response::error(StatusCode::NOT_IMPLEMENTED, "method not implemented")
            }
        };
        match result {
            Ok(resp) => resp,
            Err(e) => {
                let status = e.status();
                if status.code() == 412 || status.code() == 416 {
                    // RFC 7232/7233: precondition and range failures
                    // answer bodyless but carry the current validators
                    // (and, for 416, the `bytes */N` probe form) so one
                    // round trip is enough to resynchronise.
                    let mut resp = Response::new(status);
                    if let DavError::StageMismatch { staged } = &e {
                        resp = resp.with_header("X-Staged-Bytes", staged.to_string());
                    }
                    if let Ok(meta) = self.repo.meta(req.target.path()) {
                        if !meta.is_collection {
                            resp = resp.with_header("ETag", meta.etag()).with_header(
                                "Last-Modified",
                                crate::repo::format_http_date(meta.modified),
                            );
                            if status.code() == 416 {
                                resp = resp.with_header(
                                    "Content-Range",
                                    format!("bytes */{}", meta.content_length),
                                );
                            }
                        }
                    }
                    resp
                } else {
                    Response::error(status, &e.to_string())
                }
            }
        }
    }

    /// VERSION-CONTROL, CHECKOUT, CHECKIN and REPORT. CHECKIN answers
    /// 201 with the new version's history URL in `Location`.
    fn deltav(&self, req: &Request) -> Result<Response> {
        let Some(deltav) = self.repo.deltav() else {
            return Ok(Response::error(
                StatusCode::NOT_IMPLEMENTED,
                "this repository keeps no version histories",
            ));
        };
        let path = &pse_http::uri::normalize_path(req.target.path());
        match req.method {
            Method::VersionControl => deltav.version_control(path, None).map(|_| Response::ok()),
            Method::Checkout => deltav.checkout(path).map(|()| Response::ok()),
            Method::Checkin => {
                let number = deltav.checkin(path, None)?;
                let url = crate::version::history_url(path, number);
                Ok(Response::created()
                    .with_header("Location", pse_http::uri::percent_encode_path(&url))
                    .with_header("X-Version", number.to_string()))
            }
            _ => deltav.versions().report(self.repo.as_ref(), req),
        }
    }

    fn options(&self, _req: &Request) -> Result<Response> {
        Ok(Response::ok()
            .with_header("DAV", "1,2,version-control")
            .with_header("MS-Author-Via", "DAV")
            .with_header(
                "Allow",
                "OPTIONS, GET, HEAD, PUT, DELETE, MKCOL, COPY, MOVE, \
                 PROPFIND, PROPPATCH, LOCK, UNLOCK, SEARCH, VERSION-CONTROL, \
                 CHECKOUT, CHECKIN, REPORT",
            ))
    }

    fn get(&self, req: &Request, head: bool) -> Result<Response> {
        let path = req.target.path();
        let meta = self.repo.meta(path)?;
        if meta.is_collection {
            // Browsable index — the paper's "users can run standard Web
            // browsers to surf the Ecce database".
            let mut html = String::from("<html><body><h1>Collection ");
            html.push_str(path);
            html.push_str("</h1><ul>");
            for child in self.repo.list(path)? {
                let href =
                    pse_http::uri::percent_encode_path(&pse_http::uri::join_path(path, &child));
                html.push_str(&format!("<li><a href=\"{href}\">{child}</a></li>"));
            }
            html.push_str("</ul></body></html>");
            // HEAD carries the body too: the wire frames Content-Length
            // from it and leaves it off.
            return Ok(Response::ok()
                .with_header("Content-Type", "text/html")
                .with_body(html.into_bytes()));
        }
        let etag = meta.etag();
        let last_modified = crate::repo::format_http_date(meta.modified);
        if not_modified(req, &etag, Some(meta.modified)) {
            return Ok(Response::new(StatusCode::NOT_MODIFIED)
                .with_header("ETag", etag)
                .with_header("Last-Modified", last_modified));
        }
        let body = self.repo.get(path)?;
        let total = body.len() as u64;
        // Range handling (RFC 7233): GET only (Range on any other
        // method is ignored), single ranges only — a malformed or
        // multi-range header parses to None and the full entity is
        // served, the spec's ignore-don't-error posture.
        if !head {
            if let Some(spec) = req
                .headers
                .get("Range")
                .and_then(pse_http::range::parse_range)
            {
                if if_range_fresh(req, &etag, meta.modified) {
                    match pse_http::range::resolve(spec, total) {
                        pse_http::range::ResolvedRange::Satisfiable { start, end } => {
                            return Ok(Response::new(StatusCode::PARTIAL_CONTENT)
                                .with_header(
                                    "Content-Type",
                                    meta.content_type
                                        .as_deref()
                                        .unwrap_or("application/octet-stream"),
                                )
                                .with_header("ETag", etag)
                                .with_header("Last-Modified", last_modified)
                                .with_header("Accept-Ranges", "bytes")
                                .with_header(
                                    "Content-Range",
                                    format!("bytes {start}-{end}/{total}"),
                                )
                                .with_body(body[start as usize..=end as usize].to_vec()));
                        }
                        pse_http::range::ResolvedRange::Unsatisfiable => {
                            // Bodyless, but with validators and the
                            // `bytes */N` probe form so the client can
                            // recompute a satisfiable range.
                            return Ok(Response::new(StatusCode::RANGE_NOT_SATISFIABLE)
                                .with_header("ETag", etag)
                                .with_header("Last-Modified", last_modified)
                                .with_header("Accept-Ranges", "bytes")
                                .with_header("Content-Range", format!("bytes */{total}")));
                        }
                    }
                }
            }
        }
        Ok(Response::ok()
            .with_header(
                "Content-Type",
                meta.content_type
                    .as_deref()
                    .unwrap_or("application/octet-stream"),
            )
            .with_header("ETag", etag)
            .with_header("Last-Modified", last_modified)
            .with_header("Accept-Ranges", "bytes")
            .with_body(body))
    }

    fn check_lock(&self, req: &Request, path: &str) -> Result<()> {
        let ifh = IfHeader::parse(req.headers.get("If"));
        self.check_if_etags(&ifh, path)?;
        self.locks.check_write(path, &ifh.tokens)
    }

    /// Enforce the `[...]` entity-tag conditions of an `If` header
    /// (RFC 2518 §9.4): every claimed tag must match the target's
    /// current etag, else the request fails with 412.
    fn check_if_etags(&self, ifh: &IfHeader, path: &str) -> Result<()> {
        let mut current: Option<String> = None;
        for cond in &ifh.conditions {
            let Condition::ETag(claimed) = cond else {
                continue;
            };
            let etag = current
                .get_or_insert_with(|| self.repo.meta(path).map(|m| m.etag()).unwrap_or_default());
            // State-changing condition → strong comparison (RFC 7232
            // §2.1): a weak `W/` tag never authorises the write. The If
            // parser strips the surrounding quotes from `["..."]`;
            // etag_matches normalises the rest.
            if !etag_matches(claimed, etag, true) {
                return Err(DavError::PreconditionFailed(format!(
                    "If header entity tag \"{claimed}\" does not match {etag}"
                )));
            }
        }
        Ok(())
    }

    fn put(&self, req: &Request) -> Result<Response> {
        let path = req.target.path();
        // Conditional PUT (RFC 2616 §14.24/.26): If-Match must name the
        // stored entity; If-None-Match (typically `*`) must not.
        let current_etag = self.repo.meta(path).ok().map(|m| m.etag());
        if let Some(im) = req.headers.get("If-Match") {
            // Strong comparison (RFC 7232 §3.1): a weak tag can never
            // prove the stored entity is byte-identical.
            let ok = current_etag
                .as_deref()
                .is_some_and(|etag| etag_list_matches(im, etag, true));
            if !ok {
                return Err(DavError::PreconditionFailed(
                    "If-Match: stored entity tag differs".into(),
                ));
            }
        }
        if let (Some(inm), Some(etag)) = (req.headers.get("If-None-Match"), &current_etag) {
            if etag_list_matches(inm, etag, false) {
                return Err(DavError::PreconditionFailed(
                    "If-None-Match: the resource already exists".into(),
                ));
            }
        }
        self.check_lock(req, path)?;
        if req.headers.get("Content-Range").is_some() || req.headers.get("X-Copy-From").is_some() {
            return self.put_partial(req, path);
        }
        let created = self
            .repo
            .put(path, &req.body, req.headers.get("Content-Type"))?;
        self.put_response(path, created)
    }

    /// Success response for a PUT (or a committed staged upload): the
    /// new entity's validators ride along so a client can go straight
    /// into conditional requests without a revalidating GET.
    fn put_response(&self, path: &str, created: bool) -> Result<Response> {
        let mut resp = if created {
            Response::created()
        } else {
            Response::no_content()
        };
        if let Ok(meta) = self.repo.meta(path) {
            resp = resp.with_header("ETag", meta.etag()).with_header(
                "Last-Modified",
                crate::repo::format_http_date(meta.modified),
            );
        }
        Ok(resp)
    }

    /// Resumable / delta PUT. `Content-Range: bytes a-b/N` appends the
    /// body into the staged upload for `path` at offset `a`;
    /// `X-Copy-From: bytes=s-e` (same Content-Range contract, empty
    /// body) appends bytes `s..=e` of the *stored* entity instead — the
    /// server-side copy that lets delta sync reference unchanged
    /// chunks. `Content-Range: bytes */N` with an empty body probes
    /// progress (adding `X-Stage-Abort` instead discards the stage so a
    /// client can restart from byte zero). The stage auto-commits (atomic rename) when it
    /// reaches its declared total; until then the answer is 202 with
    /// `X-Staged-Bytes`. An offset that disagrees with the stage
    /// surfaces as 416 + `X-Staged-Bytes` via [`DavError::StageMismatch`].
    fn put_partial(&self, req: &Request, path: &str) -> Result<Response> {
        let header = req.headers.get("Content-Range").ok_or_else(|| {
            DavError::BadRequest("X-Copy-From requires a Content-Range header".into())
        })?;
        let (range, total) = pse_http::range::parse_content_range(header)
            .ok_or_else(|| DavError::BadRequest(format!("unparseable Content-Range {header:?}")))?;
        let status = match (range, req.headers.get("X-Copy-From")) {
            (None, None) => {
                if !req.body.is_empty() {
                    return Err(DavError::BadRequest(
                        "a Content-Range: bytes */N probe takes no body".into(),
                    ));
                }
                if req.headers.get("X-Stage-Abort").is_some() {
                    // Probe + abort: discard any stale stage so a client
                    // can restart an upload from byte zero.
                    self.repo.stage_abort(path)?;
                    return Ok(Response::no_content()
                        .with_header("X-Staged-Bytes", "0")
                        .with_header("X-Staged-Total", total.to_string()));
                }
                self.repo
                    .stage_status(path)?
                    .unwrap_or(StageStatus { staged: 0, total })
            }
            (Some((a, b)), None) => {
                if req.body.len() as u64 != b - a + 1 {
                    return Err(DavError::BadRequest(format!(
                        "Content-Range bytes {a}-{b} disagrees with the {}-byte body",
                        req.body.len()
                    )));
                }
                self.repo.stage_append(path, a, total, &req.body)?
            }
            (Some((a, b)), Some(copy)) => {
                if !req.body.is_empty() {
                    return Err(DavError::BadRequest(
                        "an X-Copy-From request takes no body".into(),
                    ));
                }
                let (s, e) = parse_copy_from(copy)?;
                if e - s != b - a {
                    return Err(DavError::BadRequest(format!(
                        "X-Copy-From bytes {s}-{e} disagrees with Content-Range bytes {a}-{b}"
                    )));
                }
                self.repo
                    .stage_copy_from(path, a, total, path, s, e - s + 1)?
            }
            (None, Some(_)) => {
                return Err(DavError::BadRequest(
                    "X-Copy-From needs an explicit Content-Range (bytes a-b/N)".into(),
                ))
            }
        };
        if range.is_some() && status.staged == status.total {
            let created = self
                .repo
                .stage_commit(path, req.headers.get("Content-Type"))?;
            return self.put_response(path, created);
        }
        Ok(Response::new(StatusCode::ACCEPTED)
            .with_header("X-Staged-Bytes", status.staged.to_string())
            .with_header("X-Staged-Total", status.total.to_string()))
    }

    fn delete(&self, req: &Request) -> Result<Response> {
        let path = req.target.path();
        let ifh = IfHeader::parse(req.headers.get("If"));
        self.check_if_etags(&ifh, path)?;
        self.locks.check_write_recursive(path, &ifh.tokens)?;
        self.repo.delete(path)?;
        self.locks.forget_subtree(path);
        Ok(Response::no_content())
    }

    fn mkcol(&self, req: &Request) -> Result<Response> {
        let path = req.target.path();
        if !req.body.is_empty() {
            return Ok(Response::error(
                StatusCode::UNSUPPORTED_MEDIA_TYPE,
                "MKCOL with a request body is not supported",
            ));
        }
        self.check_lock(req, path)?;
        if self.repo.exists(path) {
            return Ok(Response::error(
                StatusCode::METHOD_NOT_ALLOWED,
                "resource already exists",
            ));
        }
        self.repo.mkcol(path)?;
        Ok(Response::created())
    }

    fn copy_move(&self, req: &Request, is_move: bool) -> Result<Response> {
        let src = req.target.path().to_owned();
        let dst_raw = req
            .headers
            .get("Destination")
            .ok_or_else(|| DavError::BadRequest("missing Destination header".into()))?;
        let dst = pse_http::uri::Target::parse(dst_raw).path().to_owned();
        // COPY from a version URL is the DeltaV revert flow; anything
        // else aimed at the history space is refused (it is read-only).
        if src.starts_with(crate::version::HISTORY_PREFIX) {
            return self.revert(req, &src, &dst, is_move);
        }
        if dst.starts_with(crate::version::HISTORY_PREFIX) {
            return Ok(Response::error(
                StatusCode::FORBIDDEN,
                "version history is read-only",
            ));
        }
        if dst == src {
            return Err(DavError::PreconditionFailed(
                "source and destination are the same resource".into(),
            ));
        }
        let overwrite = !matches!(req.headers.get("Overwrite").map(str::trim), Some("F"));
        let ifh = IfHeader::parse(req.headers.get("If"));
        self.check_if_etags(&ifh, &src)?;
        self.locks.check_write_recursive(&dst, &ifh.tokens)?;
        if is_move {
            self.locks.check_write_recursive(&src, &ifh.tokens)?;
        }
        let depth = Depth::parse(req.headers.get("Depth"));
        let created = if !is_move && depth == Depth::Zero && self.repo.meta(&src)?.is_collection {
            // Shallow collection copy: new empty collection, then the
            // dead properties in one all-or-nothing patch.
            let existed = self.repo.exists(&dst);
            if existed && !overwrite {
                return Err(DavError::PreconditionFailed(format!("{dst} exists")));
            }
            if existed {
                self.repo.delete(&dst)?;
            }
            self.repo.mkcol(&dst)?;
            let ops: Vec<PropPatchOp> = self
                .repo
                .all_props(&src)?
                .into_iter()
                .filter(|p| !p.name.is_live())
                .map(PropPatchOp::Set)
                .collect();
            if !ops.is_empty() {
                self.repo.patch_props(&dst, &ops).map_err(|(_, e)| e)?;
            }
            !existed
        } else if is_move {
            let created = self.repo.rename(&src, &dst, overwrite)?;
            self.locks.forget_subtree(&src);
            created
        } else {
            self.repo.copy(&src, &dst, overwrite)?
        };
        Ok(if created {
            Response::created()
        } else {
            Response::no_content()
        })
    }

    // ---- DeltaV history resources ----

    /// COPY whose source is a version URL: write that version's body
    /// over `dst` — the revert flow. Routed through the same gating and
    /// auto-versioning as PUT, so a revert is itself a recorded edit.
    fn revert(&self, req: &Request, src: &str, dst: &str, is_move: bool) -> Result<Response> {
        if is_move {
            return Ok(Response::error(
                StatusCode::FORBIDDEN,
                "version history is read-only; COPY from a version URL to revert",
            ));
        }
        let target = self
            .repo
            .deltav()
            .map(DeltaV::versions)
            .and_then(|versions| Some((versions, versions.parse_history_target(src)?)));
        let Some((versions, HistoryTarget::Version(vpath, number))) = target else {
            return Ok(Response::error(
                StatusCode::FORBIDDEN,
                "COPY a single version URL (/.well-known/history/<path>/<n>) to revert",
            ));
        };
        if dst.starts_with(crate::version::HISTORY_PREFIX) {
            return Ok(Response::error(
                StatusCode::FORBIDDEN,
                "version history is read-only",
            ));
        }
        let overwrite = !matches!(req.headers.get("Overwrite").map(str::trim), Some("F"));
        let ifh = IfHeader::parse(req.headers.get("If"));
        self.locks.check_write_recursive(dst, &ifh.tokens)?;
        if !overwrite && self.repo.exists(dst) {
            return Err(DavError::PreconditionFailed(format!("{dst} exists")));
        }
        let body = versions.version_body(vpath, number)?;
        let created = self.repo.put(dst, &body, None)?;
        versions.note_revert();
        if self.obs.is_enabled() {
            self.obs.counter("dav.version_reverts").inc();
        }
        self.put_response(dst, created)
    }

    /// Serve `/.well-known/history/...` — version histories as
    /// read-only DAV resources. GET/HEAD a version URL for its body,
    /// PROPFIND for live props; every mutating method answers 403.
    fn history(&self, req: &Request) -> Option<Response> {
        let target = req.target.path();
        let under = target == crate::version::HISTORY_PREFIX
            || target
                .strip_prefix(crate::version::HISTORY_PREFIX)
                .is_some_and(|r| r.starts_with('/'));
        if !under || req.method == Method::Copy {
            return None;
        }
        let Some(versions) = self.repo.deltav().map(DeltaV::versions) else {
            return Some(Response::error(
                StatusCode::NOT_FOUND,
                "this repository keeps no version histories",
            ));
        };
        let result = match req.method {
            Method::Get | Method::Head => Self::history_get(versions, req),
            Method::PropFind => Self::history_propfind(versions, req),
            Method::Options => Ok(Response::ok()
                .with_header("DAV", "1,2,version-control")
                .with_header("Allow", "OPTIONS, GET, HEAD, PROPFIND, COPY")),
            _ => Ok(Response::error(
                StatusCode::FORBIDDEN,
                "version history is read-only (GET, HEAD, PROPFIND, COPY-from only)",
            )),
        };
        Some(result.unwrap_or_else(|e| Response::error(e.status(), &e.to_string())))
    }

    /// GET or HEAD of a history resource. HEAD gets the body too, like
    /// [`get`](Self::get): the wire frames Content-Length from it.
    fn history_get(versions: &VersionStore, req: &Request) -> Result<Response> {
        match versions.parse_history_target(req.target.path()) {
            Some(HistoryTarget::Version(path, number)) => {
                let meta = versions
                    .version_meta(path, number)
                    .ok_or_else(|| DavError::NotFound(format!("{path} version {number}")))?;
                let body = versions.version_body(path, number)?;
                Ok(Response::ok()
                    .with_header("Content-Type", "application/octet-stream")
                    .with_header("ETag", version_etag(&meta))
                    .with_header(
                        "Last-Modified",
                        crate::repo::format_http_date(
                            std::time::UNIX_EPOCH + Duration::from_secs(meta.created),
                        ),
                    )
                    .with_header("X-Version", number.to_string())
                    .with_body(body))
            }
            Some(HistoryTarget::Index(path)) => {
                let (metas, _) = versions
                    .versions_of(path)
                    .ok_or_else(|| DavError::NotFound(path.to_owned()))?;
                let mut html = String::from("<html><body><h1>History ");
                html.push_str(path);
                html.push_str("</h1><ul>");
                for m in &metas {
                    let href = pse_http::uri::percent_encode_path(&crate::version::history_url(
                        path, m.number,
                    ));
                    html.push_str(&format!(
                        "<li><a href=\"{href}\">version {}</a> ({} bytes)</li>",
                        m.number, m.len
                    ));
                }
                html.push_str("</ul></body></html>");
                Ok(Response::ok()
                    .with_header("Content-Type", "text/html")
                    .with_body(html.into_bytes()))
            }
            None => Err(DavError::NotFound(req.target.path().to_owned())),
        }
    }

    fn history_propfind(versions: &VersionStore, req: &Request) -> Result<Response> {
        let depth = Depth::parse(req.headers.get("Depth"));
        let mut ms = Multistatus::new();
        match versions.parse_history_target(req.target.path()) {
            Some(HistoryTarget::Version(path, number)) => {
                let (metas, checked_out) = versions
                    .versions_of(path)
                    .ok_or_else(|| DavError::NotFound(path.to_owned()))?;
                let meta = metas
                    .iter()
                    .find(|m| m.number == number)
                    .copied()
                    .ok_or_else(|| DavError::NotFound(format!("{path} version {number}")))?;
                let newest = metas.last().map(|m| m.number);
                let checked_in = !checked_out && newest == Some(number);
                ms.push_propstats(
                    &crate::version::history_url(path, number),
                    vec![PropStat {
                        props: version_props(&meta, checked_in),
                        status: StatusCode::OK,
                    }],
                );
            }
            Some(HistoryTarget::Index(path)) => {
                let (metas, checked_out) = versions
                    .versions_of(path)
                    .ok_or_else(|| DavError::NotFound(path.to_owned()))?;
                let mut rt = Element::new(Some(DAV_NS), "resourcetype");
                rt.push_elem(Element::new(Some(DAV_NS), "collection"));
                ms.push_propstats(
                    &format!("{}{}", crate::version::HISTORY_PREFIX, path),
                    vec![PropStat {
                        props: vec![
                            Property::from_element(rt),
                            Property::text(
                                PropertyName::dav("displayname"),
                                &format!("history of {path}"),
                            ),
                        ],
                        status: StatusCode::OK,
                    }],
                );
                if depth != Depth::Zero {
                    let newest = metas.last().map(|m| m.number);
                    for m in &metas {
                        let checked_in = !checked_out && newest == Some(m.number);
                        ms.push_propstats(
                            &crate::version::history_url(path, m.number),
                            vec![PropStat {
                                props: version_props(m, checked_in),
                                status: StatusCode::OK,
                            }],
                        );
                    }
                }
            }
            None => return Err(DavError::NotFound(req.target.path().to_owned())),
        }
        Ok(Response::new(StatusCode::MULTI_STATUS).with_xml_body(ms.to_xml()))
    }

    // ---- PROPFIND ----

    fn parse_propfind(body: &[u8]) -> Result<PropfindKind> {
        if body.is_empty() {
            return Ok(PropfindKind::AllProp);
        }
        let text = std::str::from_utf8(body)
            .map_err(|_| DavError::BadRequest("body is not UTF-8".into()))?;
        let doc = Document::parse(text)?;
        let root = doc.root();
        if !root.is(Some(DAV_NS), "propfind") {
            return Err(DavError::BadRequest("expected DAV:propfind".into()));
        }
        if root.child(Some(DAV_NS), "allprop").is_some() {
            return Ok(PropfindKind::AllProp);
        }
        if root.child(Some(DAV_NS), "propname").is_some() {
            return Ok(PropfindKind::PropName);
        }
        let prop = root
            .child(Some(DAV_NS), "prop")
            .ok_or_else(|| DavError::BadRequest("propfind without prop/allprop/propname".into()))?;
        Ok(PropfindKind::Named(
            prop.children_elems()
                .map(|e| PropertyName::new(e.namespace().unwrap_or(""), &e.name.local))
                .collect(),
        ))
    }

    /// The lockdiscovery live property for `path`.
    fn lockdiscovery(&self, path: &str) -> Property {
        let mut ld = Element::new(Some(DAV_NS), "lockdiscovery");
        for lock in self.locks.locks_on(path) {
            ld.push_elem(active_lock_element(&lock));
        }
        Property::from_element(ld)
    }

    /// The propstats of one member, whose metadata `meta` the caller has
    /// read (AllProp and PropName read it again with the dead properties).
    fn propstats_for(
        &self,
        path: &str,
        meta: &ResourceMeta,
        kind: &PropfindKind,
    ) -> Result<Vec<PropStat>> {
        match kind {
            PropfindKind::AllProp => {
                let mut props = self.repo.all_props(path)?;
                props.push(self.lockdiscovery(path));
                props.push(supported_lock_property());
                Ok(vec![PropStat {
                    props,
                    status: StatusCode::OK,
                }])
            }
            PropfindKind::PropName => {
                let mut props: Vec<Property> = self
                    .repo
                    .all_props(path)?
                    .into_iter()
                    .map(|p| Property::text(p.name, ""))
                    .collect();
                props.push(Property::text(PropertyName::dav("lockdiscovery"), ""));
                props.push(Property::text(PropertyName::dav("supportedlock"), ""));
                Ok(vec![PropStat {
                    props,
                    status: StatusCode::OK,
                }])
            }
            PropfindKind::Named(names) => {
                let live = crate::repo::live_props_from_meta(path, meta);
                // Resolve lock and live names inline, then batch every
                // remaining name into ONE repository read so the dead
                // properties come from a single consistent snapshot — a
                // concurrent PROPPATCH can never tear this response.
                let mut resolved: Vec<Option<Property>> = vec![None; names.len()];
                let mut dead_idx = Vec::new();
                let mut dead_names = Vec::new();
                for (i, name) in names.iter().enumerate() {
                    if name == &PropertyName::dav("lockdiscovery") {
                        resolved[i] = Some(self.lockdiscovery(path));
                    } else if name == &PropertyName::dav("supportedlock") {
                        resolved[i] = Some(supported_lock_property());
                    } else if let Some(p) = live.iter().find(|p| &p.name == name) {
                        resolved[i] = Some(p.clone());
                    } else {
                        dead_idx.push(i);
                        dead_names.push(name.clone());
                    }
                }
                if !dead_names.is_empty() {
                    let dead = self.repo.get_props(path, &dead_names)?;
                    for (i, p) in dead_idx.into_iter().zip(dead) {
                        resolved[i] = p;
                    }
                }
                let mut found = Vec::new();
                let mut missing = Vec::new();
                for (slot, name) in resolved.into_iter().zip(names) {
                    match slot {
                        Some(p) => found.push(p),
                        None => missing.push(Property::text(name.clone(), "")),
                    }
                }
                let mut out = Vec::new();
                if !found.is_empty() || missing.is_empty() {
                    out.push(PropStat {
                        props: found,
                        status: StatusCode::OK,
                    });
                }
                if !missing.is_empty() {
                    out.push(PropStat {
                        props: missing,
                        status: StatusCode::NOT_FOUND,
                    });
                }
                Ok(out)
            }
        }
    }

    fn propfind(&self, req: &Request) -> Result<Response> {
        let path = req.target.path();
        if !self.repo.exists(path) {
            return Err(DavError::NotFound(path.to_owned()));
        }
        let kind = Self::parse_propfind(&req.body)?;
        let depth = Depth::parse(req.headers.get("Depth"));
        let mut ms = Multistatus::new();
        let max_depth = match depth {
            Depth::Zero => Some(0),
            Depth::One => Some(1),
            Depth::Infinity => None,
        };
        let mut paths = Vec::new();
        self.repo
            .walk(path, max_depth, &mut |p| paths.push(p.to_owned()))?;
        // One metadata read per member feeds both the validator and the
        // live properties, so the validator is never newer than the body.
        // Only getcontenttype needs the full metadata; `stat` answers the
        // rest and on the fs repository reads no property database. A
        // member deleted since the walk reads as `None`.
        let full = matches!(&kind, PropfindKind::Named(names)
            if names.contains(&PropertyName::dav("getcontenttype")));
        let members = paths
            .into_iter()
            .map(|p| {
                let meta = if full {
                    self.repo.meta(&p)
                } else {
                    self.repo.stat(&p)
                };
                match meta {
                    Ok(m) => Ok((p, Some(m))),
                    Err(DavError::NotFound(_)) => Ok((p, None)),
                    Err(e) => Err(e),
                }
            })
            .collect::<Result<Vec<_>>>()?;
        // A validator over the whole multistatus: any member's etag,
        // the member set, the requested properties, or lock state moving
        // changes it. Lets clients revalidate cached PROPFIND results
        // with If-None-Match instead of re-fetching the XML.
        let state_etag = self.propfind_state_etag(&members, &kind, depth);
        if let Some(inm) = req.headers.get("If-None-Match") {
            if etag_list_matches(inm, &state_etag, false) {
                return Ok(Response::new(StatusCode::NOT_MODIFIED).with_header("ETag", state_etag));
            }
        }
        for (p, meta) in &members {
            // A member deleted since the walk is reported as its own 404
            // row, not a failed response — under concurrent writers the
            // rest of the tree is still good.
            let Some(meta) = meta else {
                ms.push_status(p, StatusCode::NOT_FOUND);
                continue;
            };
            match self.propstats_for(p, meta, &kind) {
                Ok(propstats) => ms.push_propstats(p, propstats),
                Err(DavError::NotFound(_)) => ms.push_status(p, StatusCode::NOT_FOUND),
                Err(e) => return Err(e),
            }
        }
        Ok(Response::new(StatusCode::MULTI_STATUS)
            .with_header("ETag", state_etag)
            .with_xml_body(ms.to_xml()))
    }

    /// Hash the walked members' (path, etag) pairs plus the request
    /// shape and lock tokens into a single entity tag for the 207 body.
    fn propfind_state_etag(
        &self,
        members: &[(String, Option<ResourceMeta>)],
        kind: &PropfindKind,
        depth: Depth,
    ) -> String {
        let mut state = Vec::new();
        for (p, meta) in members {
            // Vanished mid-walk: it contributes nothing to the
            // validator, matching the 404 row the body will carry.
            let Some(meta) = meta else { continue };
            state.extend_from_slice(p.as_bytes());
            state.push(0);
            state.extend_from_slice(meta.etag().as_bytes());
            state.push(0);
            for lock in self.locks.locks_on(p) {
                state.extend_from_slice(lock.token.as_bytes());
                state.push(0);
            }
        }
        state.extend_from_slice(depth.as_str().as_bytes());
        state.push(0);
        match kind {
            PropfindKind::AllProp => state.extend_from_slice(b"allprop"),
            PropfindKind::PropName => state.extend_from_slice(b"propname"),
            PropfindKind::Named(names) => {
                for n in names {
                    state.extend_from_slice(n.to_string().as_bytes());
                    state.push(0);
                }
            }
        }
        format!("\"ms-{:x}\"", pse_cache::fnv1a_64(&state))
    }

    // ---- PROPPATCH ----

    fn proppatch(&self, req: &Request) -> Result<Response> {
        let path = req.target.path();
        if !self.repo.exists(path) {
            return Err(DavError::NotFound(path.to_owned()));
        }
        self.check_lock(req, path)?;
        let text = std::str::from_utf8(&req.body)
            .map_err(|_| DavError::BadRequest("body is not UTF-8".into()))?;
        let doc = Document::parse(text)?;
        let root = doc.root();
        if !root.is(Some(DAV_NS), "propertyupdate") {
            return Err(DavError::BadRequest("expected DAV:propertyupdate".into()));
        }

        // Collect the operations in document order.
        let mut ops: Vec<PropPatchOp> = Vec::new();
        for child in root.children_elems() {
            let is_set = child.is(Some(DAV_NS), "set");
            let is_remove = child.is(Some(DAV_NS), "remove");
            if !is_set && !is_remove {
                continue;
            }
            let prop = child
                .child(Some(DAV_NS), "prop")
                .ok_or_else(|| DavError::BadRequest("set/remove without prop".into()))?;
            for value in prop.children_elems() {
                if is_set {
                    ops.push(PropPatchOp::Set(Property::from_element(value.clone())));
                } else {
                    ops.push(PropPatchOp::Remove(PropertyName::new(
                        value.namespace().unwrap_or(""),
                        &value.name.local,
                    )));
                }
            }
        }

        // RFC 2518 §8.2: instructions are applied in order and the whole
        // request is atomic. The repository applies (or rolls back) the
        // batch under a single write lock, so a concurrent PROPFIND sees
        // the state before the patch or after it — never in between.
        let mut ms = Multistatus::new();
        match self.repo.patch_props(path, &ops) {
            Ok(()) => ms.push_propstats(
                path,
                vec![PropStat {
                    props: ops
                        .iter()
                        .map(|op| Property::text(op.name().clone(), ""))
                        .collect(),
                    status: StatusCode::OK,
                }],
            ),
            Err((failed_idx, e)) => {
                let mut propstats = vec![PropStat {
                    props: vec![Property::text(ops[failed_idx].name().clone(), "")],
                    status: e.status(),
                }];
                if failed_idx > 0 {
                    propstats.push(PropStat {
                        props: ops[..failed_idx]
                            .iter()
                            .map(|op| Property::text(op.name().clone(), ""))
                            .collect(),
                        status: StatusCode::FAILED_DEPENDENCY,
                    });
                }
                ms.push_propstats(path, propstats);
            }
        }
        Ok(Response::new(StatusCode::MULTI_STATUS).with_xml_body(ms.to_xml()))
    }

    // ---- LOCK / UNLOCK ----

    fn parse_timeout(header: Option<&str>) -> Option<Duration> {
        // `Timeout: Second-3600` or `Infinite, Second-...`.
        header?
            .split(',')
            .filter_map(|part| part.trim().strip_prefix("Second-"))
            .filter_map(|s| s.parse::<u64>().ok())
            .map(Duration::from_secs)
            .next()
    }

    fn lock(&self, req: &Request) -> Result<Response> {
        let path = req.target.path();
        let timeout = Self::parse_timeout(req.headers.get("Timeout"));
        let depth = Depth::parse(req.headers.get("Depth"));

        if req.body.is_empty() {
            // Refresh via the If header.
            let ifh = IfHeader::parse(req.headers.get("If"));
            let token = ifh.tokens.first().ok_or_else(|| {
                DavError::BadRequest("LOCK refresh requires an If header with a token".into())
            })?;
            let lock = self.locks.refresh(path, token, timeout)?;
            return Ok(lock_response(&lock, false));
        }

        let text = std::str::from_utf8(&req.body)
            .map_err(|_| DavError::BadRequest("body is not UTF-8".into()))?;
        let doc = Document::parse(text)?;
        let root = doc.root();
        if !root.is(Some(DAV_NS), "lockinfo") {
            return Err(DavError::BadRequest("expected DAV:lockinfo".into()));
        }
        let scope = match root.child(Some(DAV_NS), "lockscope") {
            Some(s) if s.child(Some(DAV_NS), "shared").is_some() => LockScope::Shared,
            _ => LockScope::Exclusive,
        };
        let owner = root
            .child(Some(DAV_NS), "owner")
            .map(|o| o.deep_text().trim().to_owned())
            .unwrap_or_default();

        // Locking an unmapped URL creates an empty (lock-null-ish)
        // resource, per RFC 2518 §7.4.
        let created = if !self.repo.exists(path) {
            crate::repo::require_parent(self.repo.as_ref(), path)?;
            self.repo.put(path, b"", None)?;
            true
        } else {
            false
        };
        let lock = self.locks.lock(path, scope, depth, &owner, timeout)?;
        Ok(lock_response(&lock, created))
    }

    fn unlock(&self, req: &Request) -> Result<Response> {
        let path = req.target.path();
        let token = IfHeader::parse_lock_token(req.headers.get("Lock-Token"))
            .ok_or_else(|| DavError::BadRequest("missing Lock-Token header".into()))?;
        self.locks.unlock(path, &token)?;
        Ok(Response::no_content())
    }
}

/// Strong entity tag of one immutable stored version.
fn version_etag(meta: &VersionMeta) -> String {
    format!("\"v{}-{}-{}\"", meta.number, meta.len, meta.created)
}

/// Live properties of one version resource (RFC 3253's version-name /
/// creationdate plus the checked-in flag and standard entity props).
fn version_props(meta: &VersionMeta, checked_in: bool) -> Vec<Property> {
    let created = std::time::UNIX_EPOCH + Duration::from_secs(meta.created);
    vec![
        Property::text(PropertyName::dav("version-name"), &meta.number.to_string()),
        Property::text(
            PropertyName::dav("creationdate"),
            &crate::repo::format_iso8601(created),
        ),
        Property::text(PropertyName::dav("getcontentlength"), &meta.len.to_string()),
        Property::text(
            PropertyName::dav("checked-in"),
            if checked_in { "true" } else { "false" },
        ),
        Property::text(PropertyName::dav("getetag"), &version_etag(meta)),
        Property::from_element(Element::new(Some(DAV_NS), "resourcetype")),
    ]
}

/// Parse an `X-Copy-From: bytes=s-e` header into its inclusive byte
/// pair. Unlike `Range`, a malformed value here is a hard 400 — the
/// request is a write and silently ignoring the header would corrupt
/// the staged upload.
fn parse_copy_from(value: &str) -> Result<(u64, u64)> {
    let bad = || DavError::BadRequest(format!("unparseable X-Copy-From {value:?}"));
    let spec = value.trim().strip_prefix("bytes=").ok_or_else(bad)?;
    let (s, e) = spec.split_once('-').ok_or_else(bad)?;
    let s: u64 = s.trim().parse().map_err(|_| bad())?;
    let e: u64 = e.trim().parse().map_err(|_| bad())?;
    if s > e {
        return Err(bad());
    }
    Ok((s, e))
}

/// RFC 7232 §2.3.2 entity-tag comparison. `claimed` comes off the wire
/// (quoted or bare, possibly `W/`-prefixed); `stored` is the
/// repository's etag, which is a *strong* validator (see
/// [`crate::repo::ResourceMeta::etag`]). Strong comparison — required
/// for If-Match, If-Range, and If-header conditions — never matches a
/// weak claimed tag; weak comparison ignores weakness on either side.
/// Quoting is normalised on both sides, so `abc`, `"abc"`, and
/// `W/"abc"` all name the same opaque value.
fn etag_matches(claimed: &str, stored: &str, strong: bool) -> bool {
    let claimed = claimed.trim();
    let (claimed_weak, claimed) = match claimed.strip_prefix("W/") {
        Some(rest) => (true, rest),
        None => (false, claimed),
    };
    if strong && claimed_weak {
        return false;
    }
    let stored = stored.trim().trim_start_matches("W/");
    claimed.trim_matches('"') == stored.trim_matches('"')
}

/// Does a comma-separated `If-Match`/`If-None-Match` list name `etag`?
/// `*` matches anything; individual tags compare via [`etag_matches`]
/// with the caller's strength (If-Match demands strong comparison,
/// If-None-Match allows weak).
fn etag_list_matches(header: &str, etag: &str, strong: bool) -> bool {
    header.split(',').any(|t| {
        let t = t.trim();
        t == "*" || etag_matches(t, etag, strong)
    })
}

/// RFC 7233 §3.2 `If-Range`: apply the Range only while the validator
/// still names the stored entity — otherwise serve the full 200 so a
/// client resuming a download against a changed file never splices two
/// versions together. Entity tags compare *strongly* (`W/` never
/// matches); a date validator matches only the exact Last-Modified
/// instant (second granularity, the precision HTTP dates carry).
fn if_range_fresh(req: &Request, etag: &str, modified: std::time::SystemTime) -> bool {
    let Some(v) = req.headers.get("If-Range") else {
        return true;
    };
    let v = v.trim();
    if v.starts_with('"') || v.starts_with("W/") {
        return etag_matches(v, etag, true);
    }
    let secs = |t: std::time::SystemTime| {
        t.duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    };
    match crate::repo::parse_http_date(v) {
        Some(t) => secs(t) == secs(modified),
        None => false,
    }
}

/// Should a GET/HEAD answer 304? `If-None-Match` wins when present;
/// `If-Modified-Since` is compared at second granularity because HTTP
/// dates carry no sub-second precision (RFC 2616 §14.25).
fn not_modified(req: &Request, etag: &str, modified: Option<std::time::SystemTime>) -> bool {
    if let Some(inm) = req.headers.get("If-None-Match") {
        return etag_list_matches(inm, etag, false);
    }
    if let (Some(ims), Some(modified)) = (req.headers.get("If-Modified-Since"), modified) {
        if let Some(since) = crate::repo::parse_http_date(ims) {
            let secs = |t: std::time::SystemTime| {
                t.duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0)
            };
            return secs(modified) <= secs(since);
        }
    }
    false
}

/// Build the `DAV:activelock` element for a lock.
fn active_lock_element(lock: &crate::lock::Lock) -> Element {
    let mut al = Element::new(Some(DAV_NS), "activelock");
    let mut lt = Element::new(Some(DAV_NS), "locktype");
    lt.push_elem(Element::new(Some(DAV_NS), "write"));
    al.push_elem(lt);
    let mut ls = Element::new(Some(DAV_NS), "lockscope");
    ls.push_elem(Element::new(Some(DAV_NS), lock.scope.as_str()));
    al.push_elem(ls);
    let mut d = Element::new(Some(DAV_NS), "depth");
    d.push_text(lock.depth.as_str());
    al.push_elem(d);
    if !lock.owner.is_empty() {
        let mut o = Element::new(Some(DAV_NS), "owner");
        o.push_text(&lock.owner);
        al.push_elem(o);
    }
    let mut t = Element::new(Some(DAV_NS), "timeout");
    t.push_text(format!("Second-{}", lock.timeout.as_secs()));
    al.push_elem(t);
    let mut lt = Element::new(Some(DAV_NS), "locktoken");
    let mut href = Element::new(Some(DAV_NS), "href");
    href.push_text(&lock.token);
    lt.push_elem(href);
    al.push_elem(lt);
    al
}

/// The static `DAV:supportedlock` property.
fn supported_lock_property() -> Property {
    let mut sl = Element::new(Some(DAV_NS), "supportedlock");
    for scope in ["exclusive", "shared"] {
        let mut entry = Element::new(Some(DAV_NS), "lockentry");
        let mut ls = Element::new(Some(DAV_NS), "lockscope");
        ls.push_elem(Element::new(Some(DAV_NS), scope));
        entry.push_elem(ls);
        let mut lt = Element::new(Some(DAV_NS), "locktype");
        lt.push_elem(Element::new(Some(DAV_NS), "write"));
        entry.push_elem(lt);
        sl.push_elem(entry);
    }
    Property::from_element(sl)
}

/// Build the LOCK success response (prop/lockdiscovery body + headers).
fn lock_response(lock: &crate::lock::Lock, created: bool) -> Response {
    let mut prop = Element::new(Some(DAV_NS), "prop");
    let mut ld = Element::new(Some(DAV_NS), "lockdiscovery");
    ld.push_elem(active_lock_element(lock));
    prop.push_elem(ld);
    let xml = Writer::new().write_document(&Document::with_root(prop));
    Response::new(if created {
        StatusCode::CREATED
    } else {
        StatusCode::OK
    })
    .with_header("Lock-Token", format!("<{}>", lock.token))
    .with_xml_body(xml)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsrepo::{FsConfig, FsRepository};
    use crate::memrepo::MemRepository;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn handler() -> DavHandler<MemRepository> {
        DavHandler::new(MemRepository::new())
    }

    fn req(method: Method, path: &str) -> Request {
        Request::new(method, path)
    }

    #[test]
    fn options_advertises_dav_class_2() {
        let h = handler();
        let resp = h.handle(req(Method::Options, "/"));
        assert_eq!(resp.status.code(), 200);
        assert!(resp.headers.get("DAV").unwrap().starts_with("1,2"));
        assert!(resp.headers.get("Allow").unwrap().contains("PROPFIND"));
    }

    #[test]
    fn put_get_delete_cycle() {
        let h = handler();
        let resp = h.handle(
            req(Method::Put, "/doc.xyz")
                .with_header("Content-Type", "chemical/x-xyz")
                .with_body("3\natoms"),
        );
        assert_eq!(resp.status.code(), 201);
        let resp = h.handle(req(Method::Put, "/doc.xyz").with_body("new"));
        assert_eq!(resp.status.code(), 204);
        let resp = h.handle(req(Method::Get, "/doc.xyz"));
        assert_eq!(resp.status.code(), 200);
        assert_eq!(resp.body_text(), "new");
        assert_eq!(resp.headers.get("content-type"), Some("chemical/x-xyz"));
        assert!(resp.headers.get("etag").is_some());
        let resp = h.handle(req(Method::Delete, "/doc.xyz"));
        assert_eq!(resp.status.code(), 204);
        assert_eq!(h.handle(req(Method::Get, "/doc.xyz")).status.code(), 404);
    }

    #[test]
    fn mkcol_and_collection_get() {
        let h = handler();
        assert_eq!(h.handle(req(Method::MkCol, "/proj")).status.code(), 201);
        assert_eq!(h.handle(req(Method::MkCol, "/proj")).status.code(), 405);
        assert_eq!(h.handle(req(Method::MkCol, "/a/b")).status.code(), 409);
        assert_eq!(
            h.handle(req(Method::MkCol, "/x").with_body("<x/>"))
                .status
                .code(),
            415
        );
        h.handle(req(Method::Put, "/proj/data").with_body("d"));
        let resp = h.handle(req(Method::Get, "/proj"));
        assert_eq!(resp.status.code(), 200);
        assert!(resp.body_text().contains("data"));
    }

    #[test]
    fn propfind_depth_one_lists_children() {
        let h = handler();
        h.handle(req(Method::MkCol, "/c"));
        h.handle(req(Method::Put, "/c/a").with_body("1"));
        h.handle(req(Method::Put, "/c/b").with_body("22"));
        let resp = h.handle(req(Method::PropFind, "/c").with_header("Depth", "1"));
        assert_eq!(resp.status.code(), 207);
        let ms = Multistatus::parse_dom(&resp.body_text()).unwrap();
        assert_eq!(ms.responses.len(), 3);
        let b = ms.response_for("/c/b").unwrap();
        assert_eq!(
            b.prop(&PropertyName::dav("getcontentlength"))
                .unwrap()
                .text_value(),
            "2"
        );
    }

    #[test]
    fn propfind_named_reports_404_for_missing() {
        let h = handler();
        h.handle(req(Method::Put, "/d").with_body(""));
        let body = r#"<D:propfind xmlns:D="DAV:"><D:prop>
            <D:getcontentlength/>
            <x:nope xmlns:x="urn:x"/>
        </D:prop></D:propfind>"#;
        let resp = h.handle(
            req(Method::PropFind, "/d")
                .with_header("Depth", "0")
                .with_xml_body(body),
        );
        let ms = Multistatus::parse_sax(&resp.body_text()).unwrap();
        let entry = &ms.responses[0];
        assert_eq!(entry.propstats.len(), 2);
        assert!(entry.prop(&PropertyName::dav("getcontentlength")).is_some());
        let nf = entry
            .propstats
            .iter()
            .find(|ps| ps.status.code() == 404)
            .unwrap();
        assert_eq!(nf.props[0].name, PropertyName::new("urn:x", "nope"));
    }

    #[test]
    fn propfind_missing_resource_404() {
        let h = handler();
        assert_eq!(h.handle(req(Method::PropFind, "/gone")).status.code(), 404);
    }

    #[test]
    fn proppatch_set_and_remove() {
        let h = handler();
        h.handle(req(Method::Put, "/m").with_body(""));
        let body = r#"<D:propertyupdate xmlns:D="DAV:" xmlns:e="urn:ecce">
          <D:set><D:prop><e:formula>H2O</e:formula><e:charge>0</e:charge></D:prop></D:set>
          <D:remove><D:prop><e:charge/></D:prop></D:remove>
        </D:propertyupdate>"#;
        let resp = h.handle(req(Method::PropPatch, "/m").with_xml_body(body));
        assert_eq!(resp.status.code(), 207);
        let repo = h.repo();
        assert_eq!(
            repo.get_prop("/m", &PropertyName::new("urn:ecce", "formula"))
                .unwrap()
                .unwrap()
                .text_value(),
            "H2O"
        );
        assert!(repo
            .get_prop("/m", &PropertyName::new("urn:ecce", "charge"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn proppatch_is_atomic_on_failure() {
        let h = handler();
        h.handle(req(Method::Put, "/m").with_body(""));
        // Second set targets a live property → fails → first must roll back.
        let body = r#"<D:propertyupdate xmlns:D="DAV:" xmlns:e="urn:e">
          <D:set><D:prop><e:ok>1</e:ok></D:prop></D:set>
          <D:set><D:prop><D:getcontentlength>99</D:getcontentlength></D:prop></D:set>
        </D:propertyupdate>"#;
        let resp = h.handle(req(Method::PropPatch, "/m").with_xml_body(body));
        assert_eq!(resp.status.code(), 207);
        let ms = Multistatus::parse_dom(&resp.body_text()).unwrap();
        let statuses: Vec<u16> = ms.responses[0]
            .propstats
            .iter()
            .map(|ps| ps.status.code())
            .collect();
        assert!(statuses.contains(&400));
        assert!(statuses.contains(&424));
        // Rolled back.
        assert!(h
            .repo()
            .get_prop("/m", &PropertyName::new("urn:e", "ok"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn copy_and_move_with_destination() {
        let h = handler();
        h.handle(req(Method::MkCol, "/a"));
        h.handle(req(Method::Put, "/a/f").with_body("x"));
        let resp = h.handle(req(Method::Copy, "/a").with_header("Destination", "http://host/b"));
        assert_eq!(resp.status.code(), 201);
        assert_eq!(h.handle(req(Method::Get, "/b/f")).body_text(), "x");
        // Overwrite: F on existing target → 412.
        let resp = h.handle(
            req(Method::Copy, "/a")
                .with_header("Destination", "/b")
                .with_header("Overwrite", "F"),
        );
        assert_eq!(resp.status.code(), 412);
        // MOVE.
        let resp = h.handle(req(Method::Move, "/a").with_header("Destination", "/c"));
        assert_eq!(resp.status.code(), 201);
        assert_eq!(h.handle(req(Method::Get, "/a/f")).status.code(), 404);
        assert_eq!(h.handle(req(Method::Get, "/c/f")).body_text(), "x");
        // Missing Destination → 400.
        assert_eq!(h.handle(req(Method::Move, "/c")).status.code(), 400);
    }

    #[test]
    fn shallow_collection_copy() {
        let h = handler();
        h.handle(req(Method::MkCol, "/a"));
        h.handle(req(Method::Put, "/a/f").with_body("x"));
        let body = r#"<D:propertyupdate xmlns:D="DAV:" xmlns:e="urn:e">
          <D:set><D:prop><e:title>T</e:title></D:prop></D:set></D:propertyupdate>"#;
        h.handle(req(Method::PropPatch, "/a").with_xml_body(body));
        let resp = h.handle(
            req(Method::Copy, "/a")
                .with_header("Destination", "/shallow")
                .with_header("Depth", "0"),
        );
        assert_eq!(resp.status.code(), 201);
        // Children were not copied; properties were.
        assert_eq!(h.handle(req(Method::Get, "/shallow/f")).status.code(), 404);
        assert_eq!(
            h.repo()
                .get_prop("/shallow", &PropertyName::new("urn:e", "title"))
                .unwrap()
                .unwrap()
                .text_value(),
            "T"
        );
    }

    /// A Depth 0 COPY of a collection carries every dead property in
    /// one patch: the commit hook sees the MKCOL and one `PatchProps`.
    #[test]
    fn shallow_collection_copy_patches_once() {
        use std::sync::Mutex;
        let h = handler();
        h.handle(req(Method::MkCol, "/a"));
        let body = r#"<D:propertyupdate xmlns:D="DAV:" xmlns:e="urn:e">
          <D:set><D:prop><e:x>1</e:x><e:y>2</e:y><e:z>3</e:z></D:prop></D:set>
          </D:propertyupdate>"#;
        h.handle(req(Method::PropPatch, "/a").with_xml_body(body));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        h.repo().set_commit_hook(move |change| {
            let kind = format!("{change:?}");
            let kind = kind.split(' ').next().unwrap_or_default().to_owned();
            log.lock().unwrap().push(kind);
            Ok(())
        });
        let resp = h.handle(
            req(Method::Copy, "/a")
                .with_header("Destination", "/b")
                .with_header("Depth", "0"),
        );
        assert_eq!(resp.status.code(), 201);
        assert_eq!(*seen.lock().unwrap(), ["Mkcol", "PatchProps"]);
        let names = h.repo().list_props("/b").unwrap();
        let locals: Vec<_> = names.iter().map(|n| n.local.as_str()).collect();
        assert_eq!(locals, ["x", "y", "z"]);
    }

    /// A character reference outside XML's `Char` production is a
    /// malformed body: the PROPPATCH answers 400 and stores nothing.
    #[test]
    fn proppatch_with_an_illegal_character_reference_is_400() {
        let h = handler();
        h.handle(req(Method::Put, "/d").with_body(""));
        for body in [
            r#"<D:propertyupdate xmlns:D="DAV:" xmlns:e="urn:a&#0;b">
              <D:set><D:prop><e:k>v</e:k></D:prop></D:set></D:propertyupdate>"#,
            r#"<D:propertyupdate xmlns:D="DAV:" xmlns:e="urn:e">
              <D:set><D:prop><e:k>a&#x1;b</e:k></D:prop></D:set></D:propertyupdate>"#,
        ] {
            let resp = h.handle(req(Method::PropPatch, "/d").with_xml_body(body));
            assert_eq!(resp.status.code(), 400, "{body}");
        }
        assert!(h.repo().list_props("/d").unwrap().is_empty());
    }

    /// A raw character outside XML's `Char` production is malformed
    /// too, in a namespace name as in a value: 400, and nothing stored.
    #[test]
    fn proppatch_with_a_raw_illegal_character_is_400() {
        let h = handler();
        h.handle(req(Method::Put, "/d").with_body(""));
        for bad in ['\0', '\u{1}', '\u{FFFF}'] {
            for body in [
                format!(
                    r#"<D:propertyupdate xmlns:D="DAV:" xmlns:e="urn:a{bad}b">
                      <D:set><D:prop><e:k>v</e:k></D:prop></D:set></D:propertyupdate>"#
                ),
                format!(
                    r#"<D:propertyupdate xmlns:D="DAV:" xmlns:e="urn:e">
                      <D:set><D:prop><e:k>a{bad}b</e:k></D:prop></D:set></D:propertyupdate>"#
                ),
            ] {
                let resp = h.handle(req(Method::PropPatch, "/d").with_xml_body(body.clone()));
                assert_eq!(resp.status.code(), 400, "{body:?}");
            }
        }
        assert!(h.repo().list_props("/d").unwrap().is_empty());
    }

    #[test]
    fn lock_blocks_writes_without_token() {
        let h = handler();
        h.handle(req(Method::Put, "/doc").with_body("v1"));
        let lock_body = r#"<D:lockinfo xmlns:D="DAV:">
            <D:lockscope><D:exclusive/></D:lockscope>
            <D:locktype><D:write/></D:locktype>
            <D:owner>karen</D:owner></D:lockinfo>"#;
        let resp = h.handle(
            req(Method::Lock, "/doc")
                .with_header("Timeout", "Second-60")
                .with_xml_body(lock_body),
        );
        assert_eq!(resp.status.code(), 200);
        let token = resp
            .headers
            .get("lock-token")
            .unwrap()
            .trim_matches(['<', '>'])
            .to_owned();
        // Write without token → 423.
        assert_eq!(
            h.handle(req(Method::Put, "/doc").with_body("v2"))
                .status
                .code(),
            423
        );
        // Write with token → OK.
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If", format!("(<{token}>)"))
                .with_body("v2"),
        );
        assert_eq!(resp.status.code(), 204);
        // UNLOCK then write freely.
        let resp =
            h.handle(req(Method::Unlock, "/doc").with_header("Lock-Token", format!("<{token}>")));
        assert_eq!(resp.status.code(), 204);
        assert_eq!(
            h.handle(req(Method::Put, "/doc").with_body("v3"))
                .status
                .code(),
            204
        );
    }

    #[test]
    fn lock_unmapped_url_creates_resource() {
        let h = handler();
        let lock_body = r#"<D:lockinfo xmlns:D="DAV:">
            <D:lockscope><D:exclusive/></D:lockscope>
            <D:locktype><D:write/></D:locktype></D:lockinfo>"#;
        let resp = h.handle(req(Method::Lock, "/fresh").with_xml_body(lock_body));
        assert_eq!(resp.status.code(), 201);
        assert!(h.repo().exists("/fresh"));
    }

    #[test]
    fn lock_refresh_via_if_header() {
        let h = handler();
        h.handle(req(Method::Put, "/doc").with_body(""));
        let lock_body = r#"<D:lockinfo xmlns:D="DAV:">
            <D:lockscope><D:exclusive/></D:lockscope>
            <D:locktype><D:write/></D:locktype></D:lockinfo>"#;
        let resp = h.handle(req(Method::Lock, "/doc").with_xml_body(lock_body));
        let token = resp.headers.get("lock-token").unwrap().to_owned();
        let resp = h.handle(
            req(Method::Lock, "/doc")
                .with_header("If", format!("({token})"))
                .with_header("Timeout", "Second-120"),
        );
        assert_eq!(resp.status.code(), 200);
        assert!(resp.body_text().contains("Second-120"));
    }

    #[test]
    fn propfind_reports_lockdiscovery() {
        let h = handler();
        h.handle(req(Method::Put, "/doc").with_body(""));
        let lock_body = r#"<D:lockinfo xmlns:D="DAV:">
            <D:lockscope><D:shared/></D:lockscope>
            <D:locktype><D:write/></D:locktype><D:owner>eric</D:owner></D:lockinfo>"#;
        h.handle(req(Method::Lock, "/doc").with_xml_body(lock_body));
        let body = r#"<D:propfind xmlns:D="DAV:"><D:prop><D:lockdiscovery/></D:prop></D:propfind>"#;
        let resp = h.handle(req(Method::PropFind, "/doc").with_xml_body(body));
        let text = resp.body_text();
        assert!(text.contains("activelock"), "{text}");
        assert!(text.contains("shared"), "{text}");
        assert!(text.contains("eric"), "{text}");
    }

    #[test]
    fn conditional_get_revalidates_with_304() {
        let h = handler();
        h.handle(req(Method::Put, "/doc").with_body("body"));
        let resp = h.handle(req(Method::Get, "/doc"));
        let etag = resp.headers.get("etag").unwrap().to_owned();
        let lm = resp.headers.get("last-modified").unwrap().to_owned();

        // Matching If-None-Match → 304 carrying the validators, no body.
        let resp = h.handle(req(Method::Get, "/doc").with_header("If-None-Match", &etag));
        assert_eq!(resp.status.code(), 304);
        assert!(resp.body.is_empty());
        assert_eq!(resp.headers.get("etag"), Some(etag.as_str()));
        // `*` and a list containing the etag also match.
        assert_eq!(
            h.handle(req(Method::Get, "/doc").with_header("If-None-Match", "*"))
                .status
                .code(),
            304
        );
        let list = format!("\"zz\", {etag}");
        assert_eq!(
            h.handle(req(Method::Get, "/doc").with_header("If-None-Match", list))
                .status
                .code(),
            304
        );
        // A stale etag re-fetches.
        let resp = h.handle(req(Method::Get, "/doc").with_header("If-None-Match", "\"stale\""));
        assert_eq!(resp.status.code(), 200);
        assert_eq!(resp.body_text(), "body");

        // If-Modified-Since at the reported Last-Modified → 304; HEAD too.
        assert_eq!(
            h.handle(req(Method::Get, "/doc").with_header("If-Modified-Since", &lm))
                .status
                .code(),
            304
        );
        assert_eq!(
            h.handle(req(Method::Head, "/doc").with_header("If-Modified-Since", &lm))
                .status
                .code(),
            304
        );
        // An unparseable date is ignored.
        assert_eq!(
            h.handle(req(Method::Get, "/doc").with_header("If-Modified-Since", "garbage"))
                .status
                .code(),
            200
        );
        // An If-Modified-Since before the change re-fetches.
        assert_eq!(
            h.handle(
                req(Method::Get, "/doc")
                    .with_header("If-Modified-Since", "Thu, 01 Jan 1970 00:00:00 GMT")
            )
            .status
            .code(),
            200
        );
    }

    #[test]
    fn conditional_put_enforces_preconditions() {
        let h = handler();
        // If-None-Match: * on a fresh name → create; repeated → 412.
        let resp = h.handle(
            req(Method::Put, "/new")
                .with_header("If-None-Match", "*")
                .with_body("v1"),
        );
        assert_eq!(resp.status.code(), 201);
        let resp = h.handle(
            req(Method::Put, "/new")
                .with_header("If-None-Match", "*")
                .with_body("v2"),
        );
        assert_eq!(resp.status.code(), 412);
        assert_eq!(h.handle(req(Method::Get, "/new")).body_text(), "v1");

        // If-Match with the current etag succeeds; a stale one is 412.
        let etag = h
            .handle(req(Method::Get, "/new"))
            .headers
            .get("etag")
            .unwrap()
            .to_owned();
        let resp = h.handle(
            req(Method::Put, "/new")
                .with_header("If-Match", &etag)
                .with_body("v2"),
        );
        assert_eq!(resp.status.code(), 204);
        let resp = h.handle(
            req(Method::Put, "/new")
                .with_header("If-Match", etag)
                .with_body("v3"),
        );
        assert_eq!(resp.status.code(), 412);
        // If-Match on a nonexistent resource → 412 (even `*`).
        let resp = h.handle(
            req(Method::Put, "/absent")
                .with_header("If-Match", "*")
                .with_body("x"),
        );
        assert_eq!(resp.status.code(), 412);
    }

    #[test]
    fn if_header_etag_conditions_enforced() {
        let h = handler();
        h.handle(req(Method::Put, "/doc").with_body("v1"));
        let etag = h
            .handle(req(Method::Get, "/doc"))
            .headers
            .get("etag")
            .unwrap()
            .to_owned();

        // A matching `[...]` condition lets the write through.
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If", format!("([{etag}])"))
                .with_body("v2"),
        );
        assert_eq!(resp.status.code(), 204);
        // The old etag no longer matches → 412, write refused.
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If", format!("([{etag}])"))
                .with_body("v3"),
        );
        assert_eq!(resp.status.code(), 412);
        assert_eq!(h.handle(req(Method::Get, "/doc")).body_text(), "v2");
        // DELETE and MOVE honour the same condition.
        let resp = h.handle(req(Method::Delete, "/doc").with_header("If", "([\"bogus\"])"));
        assert_eq!(resp.status.code(), 412);
        let resp = h.handle(
            req(Method::Move, "/doc")
                .with_header("Destination", "/doc2")
                .with_header("If", "([\"bogus\"])"),
        );
        assert_eq!(resp.status.code(), 412);
        assert!(h.repo().exists("/doc"));
    }

    #[test]
    fn propfind_carries_a_state_etag() {
        let h = handler();
        h.handle(req(Method::MkCol, "/c"));
        h.handle(req(Method::Put, "/c/a").with_body("1"));
        let resp = h.handle(req(Method::PropFind, "/c").with_header("Depth", "1"));
        assert_eq!(resp.status.code(), 207);
        let etag = resp.headers.get("etag").unwrap().to_owned();

        // Unchanged tree revalidates without a body.
        let resp = h.handle(
            req(Method::PropFind, "/c")
                .with_header("Depth", "1")
                .with_header("If-None-Match", &etag),
        );
        assert_eq!(resp.status.code(), 304);
        assert!(resp.body.is_empty());
        // A different depth is a different entity.
        let resp = h.handle(
            req(Method::PropFind, "/c")
                .with_header("Depth", "0")
                .with_header("If-None-Match", &etag),
        );
        assert_eq!(resp.status.code(), 207);
        // A member change moves the etag.
        h.handle(req(Method::Put, "/c/b").with_body("2"));
        let resp = h.handle(
            req(Method::PropFind, "/c")
                .with_header("Depth", "1")
                .with_header("If-None-Match", &etag),
        );
        assert_eq!(resp.status.code(), 207);
        assert_ne!(resp.headers.get("etag"), Some(etag.as_str()));
    }

    #[test]
    fn weak_and_quoted_etag_forms_compare_correctly() {
        let h = handler();
        h.handle(req(Method::Put, "/doc").with_body("v1"));
        let etag = h
            .handle(req(Method::Get, "/doc"))
            .headers
            .get("etag")
            .unwrap()
            .to_owned();

        // If-Match is a strong comparison: W/"current" must NOT match,
        // even though the opaque value is right (RFC 7232 §3.1).
        let weak = format!("W/{etag}");
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If-Match", &weak)
                .with_body("x"),
        );
        assert_eq!(resp.status.code(), 412, "weak tag authorised a write");
        assert_eq!(h.handle(req(Method::Get, "/doc")).body_text(), "v1");
        // Quoted and bare forms of the real tag both match. (Each PUT
        // moves the etag, so refetch between attempts.)
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If-Match", &etag)
                .with_body("v1"),
        );
        assert_eq!(resp.status.code(), 204, "quoted {etag:?} should match");
        let bare = h
            .handle(req(Method::Get, "/doc"))
            .headers
            .get("etag")
            .unwrap()
            .trim_matches('"')
            .to_owned();
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If-Match", &bare)
                .with_body("v1"),
        );
        assert_eq!(resp.status.code(), 204, "bare {bare:?} should match");
        // List form: the current tag hiding behind strangers still matches.
        let etag = h
            .handle(req(Method::Get, "/doc"))
            .headers
            .get("etag")
            .unwrap()
            .to_owned();
        let list = format!("\"zz\", W/\"yy\", {etag}");
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If-Match", &list)
                .with_body("v1"),
        );
        assert_eq!(resp.status.code(), 204);
        // A list of only weak/wrong tags does not.
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header(
                    "If-Match",
                    format!(
                        "\"zz\", W/{}",
                        h.handle(req(Method::Get, "/doc"))
                            .headers
                            .get("etag")
                            .unwrap()
                    ),
                )
                .with_body("x"),
        );
        assert_eq!(resp.status.code(), 412);

        // If-header `[...]` conditions are strong too.
        let etag = h
            .handle(req(Method::Get, "/doc"))
            .headers
            .get("etag")
            .unwrap()
            .to_owned();
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If", format!("([W/{etag}])"))
                .with_body("x"),
        );
        assert_eq!(resp.status.code(), 412, "weak tag passed an If condition");
        // If-None-Match stays weak: W/"current" still revalidates a GET.
        let resp =
            h.handle(req(Method::Get, "/doc").with_header("If-None-Match", format!("W/{etag}")));
        assert_eq!(resp.status.code(), 304);
    }

    #[test]
    fn precondition_failures_are_bodyless_with_validators() {
        let h = handler();
        h.handle(req(Method::Put, "/doc").with_body("content"));
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If-Match", "\"stale\"")
                .with_body("x"),
        );
        assert_eq!(resp.status.code(), 412);
        assert!(resp.body.is_empty(), "412 must not carry a body");
        assert!(resp.headers.get("etag").is_some());
        assert!(resp.headers.get("last-modified").is_some());
    }

    #[test]
    fn range_get_matrix() {
        let h = handler();
        h.handle(
            req(Method::Put, "/d")
                .with_header("Content-Type", "text/plain")
                .with_body("0123456789"),
        );

        // Plain GET/HEAD advertise byte ranges.
        let resp = h.handle(req(Method::Get, "/d"));
        assert_eq!(resp.headers.get("accept-ranges"), Some("bytes"));
        let resp = h.handle(req(Method::Head, "/d"));
        assert_eq!(resp.headers.get("accept-ranges"), Some("bytes"));

        // Single range → 206 with exact framing.
        let resp = h.handle(req(Method::Get, "/d").with_header("Range", "bytes=2-5"));
        assert_eq!(resp.status.code(), 206);
        assert_eq!(resp.body_text(), "2345");
        assert_eq!(resp.headers.get("content-range"), Some("bytes 2-5/10"));
        assert_eq!(resp.headers.get("content-type"), Some("text/plain"));
        assert!(resp.headers.get("etag").is_some());

        // Open-ended, suffix, and off-by-one at EOF.
        let resp = h.handle(req(Method::Get, "/d").with_header("Range", "bytes=7-"));
        assert_eq!((resp.status.code(), resp.body_text()), (206, "789".into()));
        let resp = h.handle(req(Method::Get, "/d").with_header("Range", "bytes=-3"));
        assert_eq!(resp.headers.get("content-range"), Some("bytes 7-9/10"));
        let resp = h.handle(req(Method::Get, "/d").with_header("Range", "bytes=9-9"));
        assert_eq!((resp.status.code(), resp.body_text()), (206, "9".into()));
        // End past EOF clamps rather than erroring.
        let resp = h.handle(req(Method::Get, "/d").with_header("Range", "bytes=8-99"));
        assert_eq!(resp.headers.get("content-range"), Some("bytes 8-9/10"));
        // A suffix longer than the file is the whole file.
        let resp = h.handle(req(Method::Get, "/d").with_header("Range", "bytes=-999"));
        assert_eq!(resp.headers.get("content-range"), Some("bytes 0-9/10"));

        // Unsatisfiable → 416, bodyless, with validators and */N.
        let resp = h.handle(req(Method::Get, "/d").with_header("Range", "bytes=10-"));
        assert_eq!(resp.status.code(), 416);
        assert!(resp.body.is_empty());
        assert_eq!(resp.headers.get("content-range"), Some("bytes */10"));
        assert!(resp.headers.get("etag").is_some());
        assert!(resp.headers.get("last-modified").is_some());

        // Malformed, multi-range, inverted, non-bytes: ignored → 200.
        for bad in [
            "bytes=5-2",
            "bytes=1-2,4-5",
            "chunks=1-2",
            "bytes=x-y",
            "garbage",
        ] {
            let resp = h.handle(req(Method::Get, "/d").with_header("Range", bad));
            assert_eq!(resp.status.code(), 200, "Range {bad:?} must be ignored");
            assert_eq!(resp.body_text(), "0123456789");
        }
        // Range on HEAD is ignored: the handler answers the whole
        // entity, and the wire sends only its Content-Length.
        let resp = h.handle(req(Method::Head, "/d").with_header("Range", "bytes=2-5"));
        assert_eq!(resp.status.code(), 200);
        assert_eq!(resp.body_text(), "0123456789");
    }

    #[test]
    fn if_range_gates_partial_responses() {
        let h = handler();
        h.handle(req(Method::Put, "/d").with_body("0123456789"));
        let resp = h.handle(req(Method::Get, "/d"));
        let etag = resp.headers.get("etag").unwrap().to_owned();
        let lm = resp.headers.get("last-modified").unwrap().to_owned();

        // Fresh etag → 206; stale etag → full 200; weak form of the
        // current etag → full 200 (strong comparison required).
        let get = |ir: &str| {
            h.handle(
                req(Method::Get, "/d")
                    .with_header("Range", "bytes=0-3")
                    .with_header("If-Range", ir),
            )
        };
        assert_eq!(get(&etag).status.code(), 206);
        assert_eq!(get("\"stale\"").status.code(), 200);
        assert_eq!(get(&format!("W/{etag}")).status.code(), 200);
        // Date forms: the reported Last-Modified matches, older does not.
        assert_eq!(get(&lm).status.code(), 206);
        assert_eq!(get("Thu, 01 Jan 1970 00:00:00 GMT").status.code(), 200);
        assert_eq!(get("not a date").status.code(), 200);
    }

    #[test]
    fn resumable_put_protocol() {
        let h = handler();
        h.handle(req(Method::MkCol, "/c"));

        // First chunk: 202 + progress headers.
        let resp = h.handle(
            req(Method::Put, "/c/big")
                .with_header("Content-Range", "bytes 0-4/10")
                .with_body("01234"),
        );
        assert_eq!(resp.status.code(), 202);
        assert_eq!(resp.headers.get("x-staged-bytes"), Some("5"));
        assert_eq!(resp.headers.get("x-staged-total"), Some("10"));
        // Nothing visible yet.
        assert_eq!(h.handle(req(Method::Get, "/c/big")).status.code(), 404);

        // Probe after a "crash": bytes */N with empty body.
        let resp = h.handle(req(Method::Put, "/c/big").with_header("Content-Range", "bytes */10"));
        assert_eq!(resp.status.code(), 202);
        assert_eq!(resp.headers.get("x-staged-bytes"), Some("5"));

        // Wrong offset → 416 + X-Staged-Bytes, stage intact.
        let resp = h.handle(
            req(Method::Put, "/c/big")
                .with_header("Content-Range", "bytes 9-9/10")
                .with_body("9"),
        );
        assert_eq!(resp.status.code(), 416);
        assert!(resp.body.is_empty());
        assert_eq!(resp.headers.get("x-staged-bytes"), Some("5"));

        // Body length disagreeing with Content-Range → 400.
        let resp = h.handle(
            req(Method::Put, "/c/big")
                .with_header("Content-Range", "bytes 5-9/10")
                .with_body("56"),
        );
        assert_eq!(resp.status.code(), 400);

        // Final chunk completes the total → auto-commit → 201 + ETag.
        let resp = h.handle(
            req(Method::Put, "/c/big")
                .with_header("Content-Range", "bytes 5-9/10")
                .with_header("Content-Type", "text/plain")
                .with_body("56789"),
        );
        assert_eq!(resp.status.code(), 201);
        assert!(resp.headers.get("etag").is_some());
        let resp = h.handle(req(Method::Get, "/c/big"));
        assert_eq!(resp.body_text(), "0123456789");
        assert_eq!(resp.headers.get("content-type"), Some("text/plain"));
    }

    #[test]
    fn delta_put_via_x_copy_from() {
        let h = handler();
        h.handle(req(Method::Put, "/doc").with_body("AAAABBBBCCCC"));
        let etag = h
            .handle(req(Method::Get, "/doc"))
            .headers
            .get("etag")
            .unwrap()
            .to_owned();

        // Reuse bytes 0-3 of the stored entity, upload 4 new bytes,
        // reuse bytes 8-11 — guarded by If-Match on the base version.
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If-Match", &etag)
                .with_header("Content-Range", "bytes 0-3/12")
                .with_header("X-Copy-From", "bytes=0-3"),
        );
        assert_eq!(resp.status.code(), 202);
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If-Match", &etag)
                .with_header("Content-Range", "bytes 4-7/12")
                .with_body("XYZW"),
        );
        assert_eq!(resp.status.code(), 202);
        let resp = h.handle(
            req(Method::Put, "/doc")
                .with_header("If-Match", &etag)
                .with_header("Content-Range", "bytes 8-11/12")
                .with_header("X-Copy-From", "bytes=8-11"),
        );
        assert_eq!(resp.status.code(), 204, "complete → committed in place");
        assert_eq!(
            h.handle(req(Method::Get, "/doc")).body_text(),
            "AAAAXYZWCCCC"
        );

        // Guard rails: copy-from length mismatch and missing
        // Content-Range are hard 400s.
        assert_eq!(
            h.handle(
                req(Method::Put, "/doc")
                    .with_header("Content-Range", "bytes 0-3/8")
                    .with_header("X-Copy-From", "bytes=0-5"),
            )
            .status
            .code(),
            400
        );
        assert_eq!(
            h.handle(req(Method::Put, "/other").with_header("X-Copy-From", "bytes=0-3"))
                .status
                .code(),
            400
        );
    }

    #[test]
    fn unknown_method_501() {
        let h = handler();
        let resp = h.handle(req(Method::Extension("BREW".into()), "/"));
        assert_eq!(resp.status.code(), 501);
    }

    #[test]
    fn malformed_xml_body_400() {
        let h = handler();
        h.handle(req(Method::Put, "/d").with_body(""));
        let resp = h.handle(req(Method::PropPatch, "/d").with_xml_body("<not-closed"));
        assert_eq!(resp.status.code(), 400);
        let resp = h.handle(req(Method::PropFind, "/d").with_xml_body("<wrong-root/>"));
        assert_eq!(resp.status.code(), 400);
    }

    #[test]
    fn delete_clears_subtree_locks() {
        let h = handler();
        h.handle(req(Method::MkCol, "/c"));
        h.handle(req(Method::Put, "/c/doc").with_body(""));
        let lock_body = r#"<D:lockinfo xmlns:D="DAV:">
            <D:lockscope><D:exclusive/></D:lockscope>
            <D:locktype><D:write/></D:locktype></D:lockinfo>"#;
        let resp = h.handle(req(Method::Lock, "/c/doc").with_xml_body(lock_body));
        let token = resp.headers.get("lock-token").unwrap().to_owned();
        // Delete the parent with the lock token supplied.
        let resp = h.handle(req(Method::Delete, "/c").with_header("If", format!("({token})")));
        assert_eq!(resp.status.code(), 204);
        // Re-create; no stale lock applies.
        h.handle(req(Method::MkCol, "/c"));
        assert_eq!(
            h.handle(req(Method::Put, "/c/doc").with_body(""))
                .status
                .code(),
            201
        );
    }

    /// A handler over an fs repository in a fresh temporary directory.
    fn fs_handler(kind: pse_dbm::DbmKind) -> (DavHandler<FsRepository>, std::path::PathBuf) {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pse-handler-{}-{}-{}",
            kind.name(),
            N.fetch_add(1, Ordering::Relaxed),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = FsConfig {
            dbm_kind: kind,
            ..FsConfig::default()
        };
        let repo = FsRepository::create(&dir, config).unwrap();
        (DavHandler::new(repo), dir)
    }

    fn propfind_body(names: &str) -> String {
        format!(
            r#"<D:propfind xmlns:D="DAV:" xmlns:e="urn:e"><D:prop>{names}</D:prop></D:propfind>"#
        )
    }

    /// Documents with and without a content type and dead properties,
    /// beside a subcollection with one, then a depth-1 PROPFIND of each
    /// shape: every member's getetag is its HEAD ETag (for a document)
    /// or its `meta` ETag (for a collection, whose HEAD carries none).
    fn getetags_match_head<R: Repository>(h: &DavHandler<R>, label: &str) {
        let k = PropertyName::new("urn:e", "k");
        h.handle(req(Method::MkCol, "/c"));
        h.handle(req(Method::MkCol, "/c/sub"));
        h.handle(req(Method::Put, "/c/plain").with_body("1"));
        h.handle(
            req(Method::Put, "/c/typed")
                .with_header("Content-Type", "text/plain")
                .with_body("22"),
        );
        h.handle(req(Method::Put, "/c/propped").with_body("333"));
        for path in ["/c", "/c/sub", "/c/propped"] {
            h.repo()
                .set_prop(path, &Property::text(k.clone(), "v"))
                .unwrap();
        }
        for body in [
            propfind_body("<D:getetag/>"),
            propfind_body("<D:getetag/><e:k/>"),
            propfind_body("<D:getetag/><D:getcontenttype/><e:k/>"),
            String::new(),
        ] {
            let resp = h.handle(
                req(Method::PropFind, "/c")
                    .with_header("Depth", "1")
                    .with_xml_body(body.as_str()),
            );
            assert_eq!(resp.status.code(), 207, "{label}");
            let ms = Multistatus::parse_dom(&resp.body_text()).unwrap();
            assert_eq!(ms.responses.len(), 5, "{label}");
            for entry in &ms.responses {
                let getetag = entry
                    .prop(&PropertyName::dav("getetag"))
                    .unwrap_or_else(|| panic!("{label} {}: no getetag", entry.href))
                    .text_value();
                let expected = match h.handle(req(Method::Head, &entry.href)).headers.get("etag") {
                    Some(etag) => etag.to_owned(),
                    None => h.repo().meta(&entry.href).unwrap().etag(),
                };
                assert_eq!(getetag, expected, "{label} {} for {body:?}", entry.href);
            }
        }
    }

    #[test]
    fn propfind_getetag_is_each_members_head_etag() {
        getetags_match_head(&handler(), "mem");
        for kind in [pse_dbm::DbmKind::Sdbm, pse_dbm::DbmKind::Gdbm] {
            let (h, dir) = fs_handler(kind);
            getetags_match_head(&h, kind.name());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A property database that is not a whole database (a GDBM `.db`
    /// shorter than its header, an SDBM `.pag` without its `.dir`) reads
    /// as no properties, and reading it changes nothing on disk: the
    /// read side never creates or re-initialises a file. `k` is XML-valued,
    /// so the property index declines it and its reads open the file;
    /// `held` is plain text, answered by the index without opening it.
    #[test]
    fn reads_leave_a_partial_property_database_as_they_found_it() {
        let k = PropertyName::new("urn:e", "k");
        let held = PropertyName::new("urn:e", "held");
        let mut value = Element::new(Some("urn:e"), "k");
        value.push_elem(Element::new(Some("urn:e"), "v"));
        for kind in [pse_dbm::DbmKind::Sdbm, pse_dbm::DbmKind::Gdbm] {
            let (h, dir) = fs_handler(kind);
            let repo = h.repo();
            repo.put("/doc", b"x", None).unwrap();
            repo.set_prop("/doc", &Property::from_element(value.clone()))
                .unwrap();
            repo.set_prop("/doc", &Property::text(held.clone(), "v"))
                .unwrap();
            let dav = dir.join(".DAV");
            match kind {
                pse_dbm::DbmKind::Gdbm => std::fs::OpenOptions::new()
                    .write(true)
                    .open(dav.join("doc.db"))
                    .unwrap()
                    .set_len(40)
                    .unwrap(),
                pse_dbm::DbmKind::Sdbm => std::fs::remove_file(dav.join("doc.dir")).unwrap(),
            }
            let listing = || {
                let mut files: Vec<(String, u64)> = std::fs::read_dir(&dav)
                    .unwrap()
                    .filter_map(|e| {
                        let e = e.unwrap();
                        let m = e.metadata().unwrap();
                        m.is_file()
                            .then(|| (e.file_name().to_string_lossy().into_owned(), m.len()))
                    })
                    .collect();
                files.sort();
                files
            };
            let before = listing();
            assert_eq!(
                repo.get_props("/doc", std::slice::from_ref(&k)).unwrap(),
                [None]
            );
            assert_eq!(
                repo.get_props("/doc", std::slice::from_ref(&held)).unwrap(),
                [Some(Property::text(held.clone(), "v"))]
            );
            let resp = h.handle(
                req(Method::PropFind, "/doc")
                    .with_header("Depth", "0")
                    .with_xml_body(propfind_body("<e:k/>")),
            );
            assert_eq!(resp.status.code(), 207);
            let ms = Multistatus::parse_dom(&resp.body_text()).unwrap();
            assert!(ms.responses[0].prop(&k).is_none(), "{kind:?}");
            let resp = h.handle(req(Method::PropFind, "/doc").with_header("Depth", "0"));
            let ms = Multistatus::parse_dom(&resp.body_text()).unwrap();
            assert!(ms.responses[0].prop(&k).is_none(), "{kind:?} allprop");
            assert_eq!(listing(), before, "{kind:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A named depth-1 PROPFIND of a cold collection loads no property
    /// snapshot into the cache: the walk learns that the collection is
    /// one from `stat`, and each member's validators and named dead
    /// properties come from `stat` and the property index.
    #[test]
    fn named_propfind_of_a_cold_collection_caches_no_snapshot() {
        let k = PropertyName::new("urn:e", "k");
        for kind in [pse_dbm::DbmKind::Sdbm, pse_dbm::DbmKind::Gdbm] {
            let (h, dir) = fs_handler(kind);
            let repo = h.repo();
            repo.mkcol("/c").unwrap();
            repo.mkcol("/c/sub").unwrap();
            repo.put("/c/doc", b"x", Some("text/plain")).unwrap();
            // Each write drops the path's snapshot: all three start cold.
            for path in ["/c", "/c/sub", "/c/doc"] {
                repo.set_prop(path, &Property::text(k.clone(), "v"))
                    .unwrap();
            }
            let inserted = repo.cache_stats().insertions;
            let resp = h.handle(
                req(Method::PropFind, "/c")
                    .with_header("Depth", "1")
                    .with_xml_body(propfind_body("<D:getetag/><e:k/>")),
            );
            assert_eq!(resp.status.code(), 207, "{kind:?}");
            let ms = Multistatus::parse_dom(&resp.body_text()).unwrap();
            assert_eq!(ms.responses.len(), 3, "{kind:?}");
            for entry in &ms.responses {
                assert_eq!(
                    entry.prop(&k).map(Property::text_value).as_deref(),
                    Some("v"),
                    "{kind:?} {}",
                    entry.href
                );
            }
            assert_eq!(repo.cache_stats().insertions, inserted, "{kind:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Counts the `stat`, `meta` and `get_props` calls the handler makes
    /// on a [`MemRepository`]; `walk` is forwarded whole, so its own
    /// reads are not counted.
    #[derive(Default)]
    struct CountingRepo {
        inner: MemRepository,
        stat: AtomicUsize,
        meta: AtomicUsize,
        get_props: AtomicUsize,
    }

    impl CountingRepo {
        fn take(&self) -> [usize; 3] {
            [&self.stat, &self.meta, &self.get_props].map(|n| n.swap(0, Ordering::Relaxed))
        }
    }

    impl Repository for CountingRepo {
        fn exists(&self, path: &str) -> bool {
            self.inner.exists(path)
        }
        fn meta(&self, path: &str) -> Result<ResourceMeta> {
            self.meta.fetch_add(1, Ordering::Relaxed);
            self.inner.meta(path)
        }
        fn stat(&self, path: &str) -> Result<ResourceMeta> {
            self.stat.fetch_add(1, Ordering::Relaxed);
            self.inner.stat(path)
        }
        fn get(&self, path: &str) -> Result<Vec<u8>> {
            self.inner.get(path)
        }
        fn put(&self, path: &str, data: &[u8], ct: Option<&str>) -> Result<bool> {
            self.inner.put(path, data, ct)
        }
        fn mkcol(&self, path: &str) -> Result<()> {
            self.inner.mkcol(path)
        }
        fn delete(&self, path: &str) -> Result<()> {
            self.inner.delete(path)
        }
        fn copy(&self, s: &str, d: &str, o: bool) -> Result<bool> {
            self.inner.copy(s, d, o)
        }
        fn rename(&self, s: &str, d: &str, o: bool) -> Result<bool> {
            self.inner.rename(s, d, o)
        }
        fn list(&self, path: &str) -> Result<Vec<String>> {
            self.inner.list(path)
        }
        fn get_props(&self, path: &str, names: &[PropertyName]) -> Result<Vec<Option<Property>>> {
            self.get_props.fetch_add(1, Ordering::Relaxed);
            self.inner.get_props(path, names)
        }
        fn patch_props(
            &self,
            path: &str,
            ops: &[PropPatchOp],
        ) -> std::result::Result<(), (usize, DavError)> {
            self.inner.patch_props(path, ops)
        }
        fn all_props(&self, path: &str) -> Result<Vec<Property>> {
            self.inner.all_props(path)
        }
        fn disk_usage(&self) -> Result<u64> {
            self.inner.disk_usage()
        }
        fn walk(
            &self,
            path: &str,
            max_depth: Option<u32>,
            visit: &mut dyn FnMut(&str),
        ) -> Result<()> {
            self.inner.walk(path, max_depth, visit)
        }
    }

    #[test]
    fn named_propfind_reads_each_member_once() {
        let h = DavHandler::new(CountingRepo::default());
        h.handle(req(Method::MkCol, "/c"));
        h.handle(req(Method::MkCol, "/c/sub"));
        for doc in ["/c/a", "/c/b", "/c/d"] {
            h.handle(req(Method::Put, doc).with_body("x"));
        }
        h.repo().take();
        let propfind = |names: &str| {
            let resp = h.handle(
                req(Method::PropFind, "/c")
                    .with_header("Depth", "1")
                    .with_xml_body(propfind_body(names)),
            );
            assert_eq!(resp.status.code(), 207);
            h.repo().take()
        };
        // Five members: one stat and one named-property read each.
        assert_eq!(propfind("<D:getetag/><D:resourcetype/><e:k/>"), [5, 0, 5]);
        // No dead property named: no property read at all.
        assert_eq!(propfind("<D:getetag/>"), [5, 0, 0]);
        // The content type needs the full metadata, read once instead.
        assert_eq!(propfind("<D:getcontenttype/><e:k/>"), [0, 5, 5]);
    }
}
