//! # pie-serve — a concurrent sketch-query service over persisted snapshots
//!
//! The paper's estimators are built for exactly one operational shape: a
//! small summary is computed once, then answers many downstream queries.
//! This crate is that serving layer for the workspace — a pure-`std`,
//! multi-threaded TCP service that loads finalized sketches once (from
//! `pie-store` snapshot files or live ingest) and answers concurrent
//! estimation queries with **per-query estimator choice** (HT baseline vs.
//! the Pareto-optimal `L`/`U` families) and statistic choice:
//!
//! * [`Server`] — accept loop + thread-per-connection dispatcher over a
//!   shared, lock-sharded [`SketchCatalog`];
//! * [`ServeClient`] — the blocking client library (one per worker thread;
//!   no async runtime);
//! * [`wire`] — the versioned, length-prefixed binary protocol: one
//!   [`pie_store::frame`] frame per message (magic `PIEW`,
//!   [`wire::WIRE_VERSION`], FNV-1a checksum), payloads in the same
//!   [`pie_store::Encode`]/[`pie_store::Decode`] codec as snapshots;
//! * [`ServeError`] — the typed failure surface: malformed input never
//!   panics, and survivable faults (wrong version, checksum mismatch, bad
//!   payload) leave the connection serving.
//!
//! Requests: `ListCatalog`, `LoadSnapshot`, `IngestBatch`,
//! `Estimate { sketch, estimator, statistic }`, and the multi-tenant
//! engine surface — `Identify { tenant }` (connection-scoped billing
//! identity), `BatchEstimate { sketch, queries }` (many combinations from
//! one shared replay), and `Stats` (cache/queue/tenant observability).
//! Estimation dispatches through the existing `EstimatorRegistry` suites
//! and the shared estimation core, so a served report is
//! **bit-identical** to running `Pipeline` / `StreamPipeline` in-process
//! on the same configuration — moving estimation behind the wire changes
//! where it runs, not what it returns.  Every estimation request passes
//! the [`pie_engine::QueryEngine`] first: per-tenant token-bucket quotas
//! and a bounded in-flight gate shed overload with the typed
//! [`ServeError::Overloaded`] (the request was *not* executed — always
//! safe to retry, which [`RetryPolicy`] automates), and an
//! invalidation-correct estimate cache serves repeated combinations
//! without recomputing.
//!
//! # Quickstart
//!
//! ```
//! use partial_info_estimators::{CatalogEntry, Scheme};
//! use partial_info_estimators::datagen::paper_example;
//! use pie_serve::{ServeClient, Server};
//!
//! // A server with one preloaded sketch (50 trials over the paper's
//! // two-instance example, sampled obliviously at p = 1/2).
//! let server = Server::bind("127.0.0.1:0").unwrap();
//! let entry = CatalogEntry::build(
//!     paper_example().take_instances(2),
//!     Scheme::oblivious(0.5),
//!     1,
//!     50,
//!     7,
//! )
//! .unwrap();
//! server.catalog().insert("example", entry);
//!
//! // Any number of clients query it concurrently; this one asks for the
//! // max estimators under the max-dominance statistic.
//! let mut client = ServeClient::connect(server.local_addr()).unwrap();
//! let report = client
//!     .estimate("example", "max_oblivious", "max_dominance")
//!     .unwrap();
//! assert_eq!(report.trials, 50);
//! let l = report.get("max_l_2").unwrap();
//! let ht = report.get("max_ht_oblivious").unwrap();
//! assert!(l.variance <= ht.variance, "L never loses to HT");
//! server.shutdown();
//! ```

// `deny` (not `forbid`) because exactly one module — the poll(2) syscall
// shim in `poll::imp::sys` — carries a scoped `allow`: the readiness
// syscall has no safe pure-`std` spelling.  Everything else stays safe.
#![deny(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod catalog;
pub mod client;
mod conn;
pub mod error;
mod poll;
pub mod server;
pub mod wire;

pub use catalog::SketchCatalog;
pub use client::{ClientConfig, IngestAck, RetryPolicy, RetryStats, ServeClient};
pub use error::ServeError;
pub use server::{ObsConfig, Server, ShutdownHandle, DEFAULT_TENANT};
pub use wire::{
    BatchQuery, IngestRecord, Request, Response, SketchConfig, SketchInfo, MAX_BATCH_QUERIES,
    MAX_FRAME_BYTES, WIRE_MAGIC, WIRE_VERSION,
};

// The engine tunables taken by [`Server::bind_with`], re-exported so server
// embedders configure quotas without naming `pie-engine` directly.
pub use pie_engine::{EngineConfig, EngineStatsReport, RequestCountRow, TenantQuota};

// The observability vocabulary spoken by the `Metrics` / `QueryTrace`
// requests, re-exported so clients read snapshots and stamp trace contexts
// without naming `pie-obs` directly.
pub use pie_obs::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SlowQueryRecord,
    SpanRecord, TraceContext,
};
