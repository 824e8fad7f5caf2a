//! # pie-bench — benchmarks and figure-regeneration harnesses
//!
//! For every table and figure in the evaluation of Cohen & Kaplan (PODS 2011)
//! this crate provides:
//!
//! * a computation module under [`figures`] that produces the figure's data
//!   series / tables through the public API of the other workspace crates;
//! * a binary (`src/bin/fig*.rs`) that prints the regenerated rows
//!   (`cargo run -p pie-bench --release --bin fig1_max_oblivious`, …).
//!
//! The hand-timed throughput benches under `benches/` (lane kernels, stream
//! ingest, snapshot codec, trial engine, serving, engine load) each rewrite
//! their `BENCH_*.json` at the workspace root.
//!
//! EXPERIMENTS.md records the paper-reported versus regenerated values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod figures;
pub mod latency;

pub use figures::{fig1, fig2, fig3, fig4, fig6, fig7};
pub use latency::{percentile, LatencySummary};
