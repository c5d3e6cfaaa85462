//! # pse-dav — WebDAV (RFC 2518) for open, metadata-driven repositories
//!
//! This crate is the paper's central artifact: a DAV server equivalent to
//! Apache + mod_dav, and a client library equivalent to the paper's C++
//! DAV classes. DAV gives the PSE exactly the constructs §3.1 asks for —
//! opaque, MIME-typed *documents* organised into *collections*, each
//! documented by arbitrary XML *metadata* (properties) that any
//! application can extend without schema coordination.
//!
//! ## Server side
//!
//! [`handler::DavHandler`] dispatches every RFC 2518 method (plus the
//! DASL `SEARCH` and DeltaV `VERSION-CONTROL`/`REPORT` extensions the
//! paper tracks as "currently under development") over a pluggable [`repo::Repository`]:
//!
//! * [`fsrepo::FsRepository`] — mod_dav's layout: documents are plain
//!   files, collections are directories, and each resource's dead
//!   properties live in **a DBM file of their own** (SDBM or GDBM via
//!   `pse-dbm`), with a configurable per-property size cap (the paper
//!   settled on 10 MB);
//! * [`memrepo::MemRepository`] — an in-memory repository for tests.
//!
//! Both are [`repo::Repo`] over a storage-only [`repo::Store`]: one
//! generic layer owns path normalisation, the path-lock plan of every
//! operation ([`pathlock`]), the SEARCH property index ([`propindex`]),
//! the DeltaV version histories ([`version`]) and an optional commit
//! hook that sees each successful mutation under its plan (the
//! cluster's change log is that hook).
//!
//! Locking ([`lock`]), `If:` preconditions ([`ifheader`]), and
//! multistatus marshalling ([`multistatus`]) complete protocol class 2.
//!
//! ## Client side
//!
//! [`client::DavClient`] issues PROPFIND/PROPPATCH/PUT/GET/COPY/MOVE/
//! LOCK… over `pse-http`, and can parse multistatus responses through
//! either the DOM or the streaming parser ([`client::ParseMode`]) — the
//! DOM-vs-SAX distinction whose cost dominates the paper's Table 1.
//!
//! ```no_run
//! use pse_dav::{client::DavClient, fsrepo::FsRepository, handler::DavHandler, server};
//! use pse_dav::property::PropertyName;
//! use pse_http::server::ServerConfig;
//!
//! let repo = FsRepository::create("/tmp/dav-root", Default::default()).unwrap();
//! let srv = server::serve("127.0.0.1:0", ServerConfig::default(), DavHandler::new(repo)).unwrap();
//! let mut client = DavClient::connect(srv.local_addr()).unwrap();
//! client.mkcol("/Projects").unwrap();
//! client.put("/Projects/readme.txt", "hello", Some("text/plain")).unwrap();
//! client.proppatch_set("/Projects/readme.txt",
//!     &PropertyName::new("http://emsl.pnl.gov/ecce", "author"), "karen").unwrap();
//! srv.shutdown();
//! ```

pub mod cdc;
pub mod client;
pub mod depth;
pub mod error;
pub mod fsrepo;
pub mod handler;
pub mod ifheader;
pub mod lock;
pub mod memrepo;
pub mod multistatus;
pub mod pathlock;
pub mod propindex;
pub mod property;
pub mod repo;
pub mod search;
pub mod server;
pub mod version;

pub use client::{DavClient, ParseMode};
pub use depth::Depth;
pub use error::{DavError, Result};
pub use fsrepo::{FsConfig, FsRepository};
pub use handler::DavHandler;
pub use memrepo::MemRepository;
pub use multistatus::Multistatus;
pub use pathlock::{PathGuard, PathLocks};
pub use propindex::{IndexStats, PropIndex};
pub use property::{Property, PropertyName};
pub use repo::Repository;
