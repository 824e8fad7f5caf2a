//! # partial-info-estimators
//!
//! Umbrella crate for the Rust reproduction of Cohen & Kaplan,
//! *"Get the Most out of Your Sample: Optimal Unbiased Estimators using
//! Partial Information"* (PODS 2011).
//!
//! The workspace is organized as five focused crates, re-exported here for
//! convenience:
//!
//! * [`sampling`] (`pie-sampling`) — hash-seeded randomization, rank
//!   distributions, Poisson and bottom-k samplers, per-key outcomes;
//! * [`core`] (`pie-core`) — the paper's estimators: Horvitz–Thompson
//!   baselines, the Pareto-optimal `L`/`U` estimators for `max` and `OR`,
//!   the known-seed PPS estimators, the Algorithm 1 derivation engine, the
//!   impossibility results, and sum aggregates (distinct count, dominance
//!   norms);
//! * [`store`] (`pie-store`) — the versioned, checksummed binary snapshot
//!   substrate behind sketch persistence, checkpoint/restore, and
//!   cross-process merge;
//! * [`datagen`] (`pie-datagen`) — synthetic workloads (Zipf traffic, set
//!   pairs with controlled Jaccard, the paper's worked example);
//! * [`analysis`] (`pie-analysis`) — Monte-Carlo and quadrature evaluation,
//!   statistics, and report formatting.
//!
//! # Streaming ingestion, batch-first estimation
//!
//! The API is shaped around the production regime — keyed record streams of
//! millions of keys — rather than materialized instances and one outcome at
//! a time:
//!
//! * sampling runs through the unified [`sampling::SamplingScheme`] /
//!   [`sampling::Sketch`] streaming API (`ingest` → `merge` → `finalize`);
//!   the sharded [`StreamPipeline`] front-end ingests N key-partitioned
//!   shards concurrently and merges them, bit-identically to single-stream
//!   sampling for the hash-seeded schemes;
//! * outcomes are read through the borrowed, allocation-free
//!   [`sampling::OutcomeView`] accessors;
//! * estimators run over slices of outcomes via the object-safe
//!   [`core::Estimator::estimate_batch`] hot path and are enumerated
//!   dynamically through [`core::EstimatorRegistry`] (prebuilt line-ups in
//!   [`core::suite`]);
//! * Monte-Carlo trial loops run on the parallel deterministic trial engine
//!   ([`TrialRunner`]): trials are chunked across OS threads
//!   (`PIE_THREADS` / [`Pipeline::threads`]) and reduced in a canonical
//!   order with mergeable statistics, so every report is **bit-identical at
//!   any thread count**;
//! * sketch state survives the process: [`StreamPipeline`] ingest sessions
//!   checkpoint to — and resume from — versioned binary snapshot files
//!   ([`checkpoint`]), and shard snapshots written by independent processes
//!   merge into reports bit-identical to a single-process run;
//! * finalized sketches become servable units: a [`CatalogEntry`]
//!   ([`catalog`]) persists whole, loads once, and answers estimation
//!   queries with per-query estimator and statistic choice — the substrate
//!   behind the `pie-serve` TCP service, whose responses are bit-identical
//!   to in-process estimation;
//! * the top-level [`Pipeline`] builder wires dataset → sampling → outcome
//!   assembly → batched estimation → sum aggregation end to end:
//!
//! ```
//! use partial_info_estimators::{Pipeline, Scheme, Statistic};
//! use partial_info_estimators::core::suite::max_oblivious_suite;
//! use partial_info_estimators::datagen::paper_example;
//!
//! let report = Pipeline::new()
//!     .dataset(paper_example().take_instances(2))
//!     .scheme(Scheme::oblivious(0.5))
//!     .estimators(max_oblivious_suite(0.5, 0.5))
//!     .statistic(Statistic::max_dominance())
//!     .trials(500)
//!     .run()
//!     .unwrap();
//! println!("{}", report.render());
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `pie-bench` crate for the benchmarks and figure-regeneration harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod checkpoint;
pub mod obs;
pub mod pipeline;
pub mod stream;

pub use pie_analysis as analysis;
pub use pie_core as core;
pub use pie_datagen as datagen;
pub use pie_sampling as sampling;
pub use pie_store as store;

pub use pie_analysis::TrialRunner;

pub use catalog::{CatalogEntry, CatalogError};
pub use checkpoint::{CheckpointError, SnapshotKind, SnapshotManifest, StreamIngestSession};
pub use obs::{PipelineObserver, StageNanos};
pub use pipeline::{
    EstimatorReport, EstimatorSet, Pipeline, PipelineError, PipelineReport, Scheme, Statistic,
};
pub use stream::{ingest_merge_finalize, merge_finalize, sketch_pools, StreamPipeline};
