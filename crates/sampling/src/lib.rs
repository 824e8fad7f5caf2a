//! # pie-sampling — streaming sampling substrate for partial-information
//! estimation
//!
//! This crate implements every sampling scheme used by Cohen & Kaplan,
//! *"Get the Most out of Your Sample: Optimal Unbiased Estimators using
//! Partial Information"* (PODS 2011), organized **stream-first**: records
//! `(key, weight)` are ingested one at a time into per-shard sketches,
//! shard sketches are merged, and the merged sketch finalizes into the
//! rank-conditioned per-instance sample the estimators consume.
//!
//! * the unified streaming API ([`scheme`]): [`SamplingScheme`] opens a
//!   mergeable [`Sketch`] per instance/shard — `ingest` → `merge` →
//!   `finalize`, with pooling support for allocation-free hot loops;
//! * reproducible hash-based randomization ([`hash`], [`seed`]) — the basis
//!   of the paper's "known seeds" and coordinated-sampling models, and of
//!   the bit-identical shard-merge guarantee;
//! * rank distributions ([`rank`]): PPS ranks and exponential ranks;
//! * the four scheme families: weight-oblivious and weighted Poisson
//!   ([`poisson`]), bottom-k / priority / weighted-without-replacement over
//!   a bounded heap ([`bottomk`]), and VarOpt with threshold merge
//!   ([`varopt`]);
//! * the per-instance sample representation ([`sample`]) with
//!   rank-conditioned inclusion probabilities and deterministic (key-sorted)
//!   iteration;
//! * multi-instance drivers and per-key outcomes ([`multi`], [`outcome`]) —
//!   the inputs consumed by the estimators in the `pie-core` crate;
//! * the borrowed, allocation-free outcome accessors ([`view`]) read by the
//!   batched estimation hot path, and the struct-of-arrays outcome lanes
//!   ([`lanes`]) that the vectorized lane kernels consume.
//!
//! Every sketch family — plus [`InstanceSample`] and [`SeedAssignment`] —
//! implements the `pie-store` snapshot codec (`Encode`/`Decode`, defined
//! next to each type), so sketch state can be persisted, checkpointed, and
//! merged across processes with bitwise-exact round-trips; see
//! [`scheme::sketch_tag`] for the family discriminants.
//!
//! Batch `sample()` methods still exist on every sampler, but they are thin
//! wrappers over ingest-then-finalize on the corresponding sketch — the
//! streaming path is the implementation, not an afterthought.
//!
//! The guiding constraint (Section 2 of the paper) is that the processing of
//! one instance never depends on the values of another: all coordination
//! happens through the shared, hash-derived seed assignment.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bottomk;
pub mod hash;
pub mod instance;
pub mod lanes;
pub mod multi;
pub mod outcome;
pub mod poisson;
pub mod rank;
pub mod sample;
pub mod scheme;
pub mod seed;
pub mod varopt;
pub mod view;

pub use bottomk::{
    BottomKBuilder, BottomKSampler, BottomKSketch, PrioritySampler, WsWithoutReplacementSampler,
};
pub use hash::Hasher64;
pub use instance::{key_union, value_vector, Instance, Key};
pub use lanes::{LaneOutcome, ObliviousLanes, WeightedLanes};
pub use multi::{
    oblivious_outcomes, sample_all, sample_all_with_universe, sampled_key_union, weighted_outcomes,
};
pub use outcome::{ObliviousEntry, ObliviousOutcome, WeightedEntry, WeightedOutcome};
pub use poisson::{
    ObliviousPoissonSampler, ObliviousPoissonSketch, PoissonSketch, PpsPoissonSampler,
    PpsPoissonSketch, ThresholdRankSampler,
};
pub use rank::{ExpRanks, PpsRanks, RankFamily};
pub use sample::{InstanceSample, RankKind, SampleScheme};
pub use scheme::{merge_tree, SamplingScheme, Sketch};
pub use seed::{Coordination, SeedAssignment, SeedVisibility};
pub use varopt::{VarOptSampler, VarOptScheme, VarOptSketch};
pub use view::OutcomeView;
