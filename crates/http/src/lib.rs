//! # pse-http — HTTP/1.1 for the DAV data architecture
//!
//! The paper layers its whole open-data architecture on HTTP 1.1 (RFC
//! 2616): the Apache server carries mod_dav, and the Ecce client speaks
//! HTTP with persistent connections and basic authentication. This crate
//! is that substrate, built from scratch on `std::net`:
//!
//! * [`message`] — [`Request`]/[`Response`] with builder APIs;
//! * [`wire`] — serialisation, the client's response reader (including
//!   chunked transfer encoding), and defensive size limits;
//! * [`server::Server`] — a TCP server with Apache-style
//!   configuration: persistent connections with a bounded request count,
//!   an inter-request ("keep-alive") timeout, and a fixed worker pool —
//!   the paper's "limits of 100 connections per minute, 15 seconds
//!   between requests, and a minimum of 5 daemons". It runs on an epoll
//!   reactor (`poll`, `conn`, `reactor` modules) with an incremental
//!   request parser, so a parked keep-alive connection costs a fd
//!   instead of a thread;
//! * [`client::Client`] — a blocking client supporting both persistent
//!   connections and per-request reconnects (the paper found reconnecting
//!   *faster* in its environment — an anomaly the `connections` ablation
//!   bench revisits), plus basic authentication;
//! * [`auth`] — base64 and an HTTP Basic credential store;
//! * [`uri`] — origin-form request targets and percent-encoding;
//! * [`retry`] — an idempotency-aware retry/timeout/backoff policy the
//!   client applies to transport failures;
//! * [`fault`] — a deterministic fault-injecting TCP proxy (resets,
//!   delays, truncation, corruption) used by the robustness suite to
//!   exercise the retry policy;
//! * [`gzip`] — zero-dependency `gzip` content-coding (RFC 1952/1951)
//!   negotiated per request by the server engine and client; bodies are
//!   encoded before serialisation so `Content-Length` frames the encoded
//!   length exactly;
//! * [`range`] — RFC 7233 `Range`/`Content-Range` parsing shared by the
//!   DAV layer's partial GET and resumable PUT paths.
//!
//! The DAV layer (`pse-dav`) sits directly on these types; nothing here
//! knows anything about DAV beyond allowing extension methods.
//!
//! The crate builds on Linux only: the server's reactor is written
//! against epoll and eventfd.
//!
//! ```no_run
//! use pse_http::{client::Client, message::Request, server::{Server, ServerConfig}};
//! use pse_http::message::Response;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default(), |req: Request| {
//!     Response::ok().with_body(format!("you asked for {}", req.target.path()))
//! }).unwrap();
//! let addr = server.local_addr();
//! let mut client = Client::connect(addr).unwrap();
//! let resp = client.get("/hello").unwrap();
//! assert_eq!(resp.status.code(), 200);
//! server.shutdown();
//! ```

pub mod auth;
pub mod client;
mod conn;
pub mod error;
pub mod fault;
pub mod gzip;
pub mod headers;
pub mod message;
pub mod method;
pub mod poll;
pub mod range;
mod reactor;
pub mod retry;
pub mod server;
pub mod status;
pub mod uri;
pub mod wire;

#[cfg(not(target_os = "linux"))]
compile_error!("pse-http builds on Linux only: the server's reactor is written against epoll");

pub use client::Client;
pub use error::{Error, Result};
pub use fault::{Fault, FaultProxy, Point, Schedule};
pub use headers::Headers;
pub use message::{Request, Response, Version};
pub use method::Method;
pub use retry::RetryPolicy;
pub use server::{Server, ServerConfig};
pub use status::StatusCode;
pub use uri::Target;
