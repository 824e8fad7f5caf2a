//! # pie-core — optimal unbiased estimators using partial information
//!
//! A faithful implementation of the estimators and derivation methodology of
//! Cohen & Kaplan, *"Get the Most out of Your Sample: Optimal Unbiased
//! Estimators using Partial Information"* (PODS 2011):
//!
//! * multi-instance primitive functions ([`functions`]);
//! * the estimator abstraction — including the batched
//!   [`Estimator::estimate_batch`] hot path and the name-keyed
//!   [`EstimatorRegistry`] — and its properties ([`estimate`]);
//! * prebuilt estimator suites for the families the paper compares
//!   ([`suite`]);
//! * Horvitz–Thompson baselines and the paper's Pareto-optimal `L`/`U`
//!   estimators for `max` and Boolean `OR` over weight-oblivious Poisson
//!   samples ([`oblivious`]);
//! * the known-seed estimators for weighted (PPS) Poisson samples
//!   ([`weighted`]), including the Figure 3 closed form for `max^(L)`;
//! * quantile / range inverse-probability estimators ([`quantile`]);
//! * the order-based derivation engine of Algorithm 1 over finite models
//!   ([`derive`]);
//! * the impossibility results for unknown seeds ([`negative`]);
//! * closed-form variance expressions and exact enumeration ([`variance`]);
//! * sum aggregates: distinct counts, dominance norms, distances
//!   ([`aggregate`]).
//!
//! Sampling itself (Poisson, bottom-k, seed assignments, outcomes)
//! lives in the companion crate `pie-sampling`; workload generation and the
//! evaluation harness live in `pie-datagen` and `pie-analysis`.
//!
//! ## Quick example
//!
//! ```
//! use pie_core::oblivious::{MaxHtOblivious, MaxL2};
//! use pie_core::Estimator;
//! use pie_sampling::{ObliviousEntry, ObliviousOutcome};
//!
//! // One key's outcome over two instances sampled with probability 1/2:
//! // instance 1 revealed the value 8.0, instance 2 was not sampled.
//! let outcome = ObliviousOutcome::new(vec![
//!     ObliviousEntry { p: 0.5, value: Some(8.0) },
//!     ObliviousEntry { p: 0.5, value: None },
//! ]);
//!
//! // The HT estimator ignores the partial information…
//! assert_eq!(MaxHtOblivious.estimate(&outcome), 0.0);
//! // …while the Pareto-optimal max^(L) estimator uses it.
//! let est = MaxL2::new(0.5, 0.5).estimate(&outcome);
//! assert!(est > 8.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod derive;
pub mod estimate;
pub mod functions;
pub mod negative;
pub mod oblivious;
pub mod quantile;
pub mod suite;
pub mod variance;
pub mod weighted;

pub use estimate::{
    check_batch_len, check_lanes_len, DocumentedEstimator, DynEstimator, Estimator,
    EstimatorProperties, EstimatorRegistry,
};
pub use functions::MultiInstanceFn;
