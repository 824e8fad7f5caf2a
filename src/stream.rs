//! The sharded streaming front-end: traffic source → N shard sketches →
//! merge tree → the batched estimation stage.
//!
//! [`StreamPipeline`] is the streaming counterpart of [`Pipeline`]: instead
//! of sampling fully materialized instances, it replays each instance's
//! record stream through per-shard [`Sketch`]es (one OS thread per shard),
//! combines them with a binary merge tree, and finalizes into the exact
//! per-instance samples the estimation stage already consumes.  For the
//! hash-seeded schemes the estimates are **bit-identical** to the batch
//! [`Pipeline`] on the same seeds, whatever the shard count — sharding is an
//! execution strategy, not a statistical choice.
//!
//! Sketches are pooled per `(instance, shard)` and reset between
//! Monte-Carlo trials, so the steady-state ingest loop performs no
//! per-record heap allocation.
//!
//! ```
//! use partial_info_estimators::{Pipeline, Scheme, Statistic, StreamPipeline};
//! use partial_info_estimators::core::suite::max_weighted_suite;
//! use partial_info_estimators::datagen::{generate_two_hours, TrafficConfig};
//! use std::sync::Arc;
//!
//! let data = Arc::new(generate_two_hours(&TrafficConfig::small(3)));
//! let streamed = StreamPipeline::new()
//!     .dataset(Arc::clone(&data))
//!     .scheme(Scheme::pps(200.0))
//!     .shards(4)
//!     .estimators(max_weighted_suite())
//!     .statistic(Statistic::max_dominance())
//!     .trials(10)
//!     .run()
//!     .unwrap();
//! let batch = Pipeline::new()
//!     .dataset(data)
//!     .scheme(Scheme::pps(200.0))
//!     .estimators(max_weighted_suite())
//!     .statistic(Statistic::max_dominance())
//!     .trials(10)
//!     .run()
//!     .unwrap();
//! assert_eq!(streamed, batch, "sharding must not change the estimates");
//! ```

use std::sync::Arc;

use pie_datagen::{Dataset, ShardedStream};
use pie_sampling::{InstanceSample, Key, SamplingScheme, SeedAssignment, Sketch};

use crate::pipeline::{
    EstimatorSet, PipelineError, PipelineReport, Scheme, StageBuilder, Stages, Statistic,
};

/// Builder wiring record stream → sharded ingest → merge tree → batched
/// estimation.  See the [module docs](self) for the full walkthrough.
#[derive(Debug)]
#[must_use = "a stream pipeline does nothing until .run()"]
pub struct StreamPipeline {
    stages: StageBuilder,
    shards: usize,
}

impl Default for StreamPipeline {
    /// Same as [`StreamPipeline::new`]: empty stages, 1 shard, 100 trials,
    /// salt 0.
    fn default() -> Self {
        Self::new()
    }
}

impl StreamPipeline {
    /// Starts an empty stream pipeline (1 shard, 100 trials, salt 0).
    pub fn new() -> Self {
        Self {
            stages: StageBuilder::default(),
            shards: 1,
        }
    }

    /// Sets the dataset whose record stream is replayed.
    pub fn dataset(mut self, dataset: impl Into<Arc<Dataset>>) -> Self {
        self.stages.dataset = Some(dataset.into());
        self
    }

    /// Sets the per-instance sampling scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.stages.scheme = Some(scheme);
        self
    }

    /// Sets the number of ingest shards per instance (default 1; values
    /// below 1 are clamped to 1).  Each shard ingests on its own thread.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the estimators to run (registry regime must match the scheme).
    pub fn estimators(mut self, estimators: impl Into<EstimatorSet>) -> Self {
        self.stages.estimators = Some(estimators.into());
        self
    }

    /// Sets the aggregated statistic (and the ground truth it implies).
    pub fn statistic(mut self, statistic: Statistic) -> Self {
        self.stages.statistic = Some(statistic);
        self
    }

    /// Sets the number of Monte-Carlo sampling trials (default 100).
    pub fn trials(mut self, trials: u64) -> Self {
        self.stages.trials = trials;
        self
    }

    /// Sets the base hash salt; trial `t` uses salt `base_salt + t`.
    pub fn base_salt(mut self, base_salt: u64) -> Self {
        self.stages.base_salt = base_salt;
        self
    }

    /// Sets the number of worker threads for the Monte-Carlo trial loop
    /// (clamped to ≥ 1; default `PIE_THREADS`, else available parallelism).
    ///
    /// Trial workers are orthogonal to [`shards`](Self::shards): each worker
    /// owns a full set of per-`(instance, shard)` sketch pools and replays
    /// whole trials.  As with the batch [`crate::Pipeline`], the thread
    /// count never changes the report — only the wall clock.
    pub fn threads(mut self, threads: usize) -> Self {
        self.stages.threads = Some(threads.max(1));
        self
    }

    /// Runs the pipeline: partitions each instance's record stream across
    /// the configured shards once, then per trial ingests all `(instance,
    /// shard)` parts concurrently into pooled sketches, merges, finalizes,
    /// and feeds the estimation stage shared with [`crate::Pipeline`].
    ///
    /// # Errors
    /// Returns a [`PipelineError`] if a stage is missing, the scheme or
    /// trial count is invalid, or the estimator regime does not match the
    /// scheme.
    pub fn run(self) -> Result<PipelineReport, PipelineError> {
        let (stages, stream) = self.validate()?;
        let (scheme, stream) = (stages.scheme, &stream);
        let seeds0 = SeedAssignment::independent_known(stages.base_salt);
        stages.estimate(|_worker| {
            // Each trial worker owns one full sketch-pool set; sketches
            // reset to the trial's seeds before ingest, so any worker
            // replays any trial identically.
            let mut pools = sketch_pools(&scheme, stream, &seeds0);
            move |_t, seeds: &SeedAssignment| ingest_merge_finalize(stream, &mut pools, seeds)
        })
    }

    /// Validates the stages (the rules of [`crate::Pipeline::run`]) and
    /// partitions the record stream the scheme samples into the configured
    /// shards.
    pub(crate) fn validate(self) -> Result<(Stages, ShardedStream), PipelineError> {
        let stages = self.stages.validate()?;
        let stream = stages.scheme.stream(&stages.dataset, self.shards);
        Ok((stages, stream))
    }

    /// Samples the configured dataset and finalizes the per-trial samples
    /// into a servable [`CatalogEntry`](crate::CatalogEntry) instead of
    /// estimating — the export hook behind `pie-serve`'s sketch catalog.
    ///
    /// Only the dataset, scheme, shards, trials, and base salt are
    /// consulted: estimator and statistic choice is deferred to each query
    /// against the entry (that deferral is the point of serving).
    ///
    /// # Errors
    /// [`PipelineError::MissingDataset`] / [`PipelineError::MissingScheme`]
    /// / [`PipelineError::InvalidScheme`] / [`PipelineError::ZeroTrials`].
    pub fn into_catalog_entry(self) -> Result<crate::CatalogEntry, PipelineError> {
        let stages = self.stages;
        let dataset = stages.dataset.ok_or(PipelineError::MissingDataset)?;
        let scheme = stages.scheme.ok_or(PipelineError::MissingScheme)?;
        crate::CatalogEntry::build(
            dataset,
            scheme,
            self.shards,
            stages.trials,
            stages.base_salt,
        )
    }
}

/// Allocates the pooled sketches for one [`ShardedStream`], laid out
/// `pools[shard][instance]` — the shape [`ingest_merge_finalize`] consumes,
/// chosen so each shard's ingest thread owns one contiguous column.
pub fn sketch_pools<S: SamplingScheme>(
    scheme: &S,
    stream: &ShardedStream,
    seeds: &SeedAssignment,
) -> Vec<Vec<S::Sketch>> {
    (0..stream.shards())
        .map(|s| {
            (0..stream.num_instances())
                .map(|i| scheme.sketch_for_shard(seeds, i as u64, s as u64))
                .collect()
        })
        .collect()
}

/// How a sharded ingest pass executes its per-shard work.
///
/// The finalized samples are identical whichever strategy runs — strategy is
/// an execution choice, never a statistical one — so [`Auto`] is the right
/// default everywhere; the explicit variants exist for benchmarks and tests
/// that must pin one path (e.g. exercising [`Threaded`] on a single-core CI
/// runner, where [`Auto`] would pick [`Sequential`]).
///
/// [`Auto`]: IngestStrategy::Auto
/// [`Sequential`]: IngestStrategy::Sequential
/// [`Threaded`]: IngestStrategy::Threaded
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestStrategy {
    /// [`Threaded`](IngestStrategy::Threaded) when the host has more than one
    /// hardware thread and the stream has more than one shard, else
    /// [`Sequential`](IngestStrategy::Sequential).
    Auto,
    /// All shards ingest on the calling thread via [`Sketch::ingest_group`],
    /// which lets set-determined schemes (bottom-k) share one bounded
    /// retention structure across the whole group instead of paying per-shard
    /// retention that grows with the shard count.
    Sequential,
    /// One OS thread per shard, each covering all instances.
    Threaded,
}

/// Cached hardware-parallelism probe for [`IngestStrategy::Auto`]: querying
/// it per trial in the hot loop would be a syscall per pass.
fn multi_core() -> bool {
    use std::sync::OnceLock;
    static MULTI_CORE: OnceLock<bool> = OnceLock::new();
    *MULTI_CORE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// One sharded sampling pass over a record stream: resets the pooled
/// sketches (layout `pools[shard][instance]`, from [`sketch_pools`]) to this
/// randomization, ingests every shard's parts ([`IngestStrategy::Auto`]),
/// merges the shard sketches per instance via [`Sketch::merge_many`], and
/// finalizes into one [`InstanceSample`] per instance.
///
/// This is the single implementation of the sketch lifecycle choreography:
/// the [`StreamPipeline`] hot loop calls it once per trial, and the
/// `stream_ingest_throughput` bench and `sharded_traffic` example call it
/// directly, so all three exercise the same code path.  The sketches are
/// drained but keep their allocations, so repeated passes perform no
/// per-record heap allocation.
///
/// # Panics
/// Panics if `pools` does not match the stream's `[shard][instance]` shape.
pub fn ingest_merge_finalize<K: Sketch>(
    stream: &ShardedStream,
    pools: &mut [Vec<K>],
    seeds: &SeedAssignment,
) -> Vec<InstanceSample> {
    ingest_merge_finalize_with(stream, pools, seeds, IngestStrategy::Auto)
}

/// [`ingest_merge_finalize`] with an explicit [`IngestStrategy`].
///
/// # Panics
/// Panics if `pools` does not match the stream's `[shard][instance]` shape.
pub fn ingest_merge_finalize_with<K: Sketch>(
    stream: &ShardedStream,
    pools: &mut [Vec<K>],
    seeds: &SeedAssignment,
    strategy: IngestStrategy,
) -> Vec<InstanceSample> {
    let shards = stream.shards();
    let instances = stream.num_instances();
    assert!(
        pools.len() == shards && pools.iter().all(|column| column.len() == instances),
        "sketch pools must be [shard][instance]-shaped for this stream"
    );
    let threaded = match strategy {
        IngestStrategy::Auto => shards > 1 && multi_core(),
        IngestStrategy::Sequential => false,
        IngestStrategy::Threaded => true,
    };
    if threaded {
        let ingest_column = |s: usize, column: &mut Vec<K>| {
            for (i, sketch) in column.iter_mut().enumerate() {
                sketch.reset(seeds, i as u64);
                for &(key, value) in stream.part(i, s) {
                    sketch.ingest(key, value);
                }
            }
        };
        std::thread::scope(|scope| {
            for (s, column) in pools.iter_mut().enumerate() {
                scope.spawn(move || ingest_column(s, column));
            }
        });
    } else {
        // Single-worker pass: hand each instance's whole shard group to the
        // scheme at once so set-determined sketches can pool retention work.
        let mut columns: Vec<std::slice::IterMut<'_, K>> =
            pools.iter_mut().map(|column| column.iter_mut()).collect();
        let mut group: Vec<&mut K> = Vec::with_capacity(shards);
        let mut parts: Vec<&[(Key, f64)]> = Vec::with_capacity(shards);
        for i in 0..instances {
            group.clear();
            group.extend(
                columns
                    .iter_mut()
                    .map(|column| column.next().expect("pool column length checked above")),
            );
            parts.clear();
            parts.extend((0..shards).map(|s| stream.part(i, s)));
            K::ingest_group(&mut group, &parts, seeds, i as u64);
        }
    }
    merge_finalize(pools)
}

/// The merge + finalize tail of one sharded sampling pass: combines the
/// `pools[shard][instance]` sketches per instance via
/// [`Sketch::merge_many`] — a balanced binary merge tree by default, a
/// single k-bounded selection for bottom-k — and finalizes one
/// [`InstanceSample`] per instance, draining every sketch.
///
/// Factored out of [`ingest_merge_finalize`] so sketches restored from
/// snapshot files — a resumed checkpoint, or shard snapshots written by
/// other processes — flow through the *same* merge path as live in-process
/// ingestion, which is what keeps cross-process reports bit-identical.
pub fn merge_finalize<K: Sketch>(pools: &mut [Vec<K>]) -> Vec<InstanceSample> {
    let shards = pools.len();
    if shards > 1 {
        let instances = pools.first().map_or(0, Vec::len);
        let mut columns: Vec<std::slice::IterMut<'_, K>> =
            pools.iter_mut().map(|column| column.iter_mut()).collect();
        let mut group: Vec<&mut K> = Vec::with_capacity(shards);
        for _ in 0..instances {
            group.clear();
            group.extend(
                columns
                    .iter_mut()
                    .map(|column| column.next().expect("pool columns share a length")),
            );
            K::merge_many(&mut group);
        }
    }
    pools[0].iter_mut().map(Sketch::finalize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, Statistic};
    use pie_core::suite::{max_oblivious_suite, max_weighted_suite};
    use pie_datagen::{generate_two_hours, paper_example, TrafficConfig};

    #[test]
    fn stream_pipeline_requires_every_stage() {
        assert_eq!(
            StreamPipeline::new().run().unwrap_err(),
            PipelineError::MissingDataset
        );
        assert_eq!(
            StreamPipeline::new()
                .dataset(paper_example())
                .run()
                .unwrap_err(),
            PipelineError::MissingScheme
        );
        assert_eq!(
            StreamPipeline::new()
                .dataset(paper_example())
                .scheme(Scheme::oblivious(0.5))
                .run()
                .unwrap_err(),
            PipelineError::MissingEstimators
        );
    }

    #[test]
    fn stream_pipeline_rejects_regime_mismatch_and_bad_parameters() {
        let err = StreamPipeline::new()
            .dataset(paper_example())
            .scheme(Scheme::oblivious(0.5))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::RegimeMismatch { .. }));
        let err = StreamPipeline::new()
            .dataset(paper_example())
            .scheme(Scheme::pps(-1.0))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidScheme { .. }));
    }

    #[test]
    fn stream_pipeline_rejects_zero_trials() {
        let err = StreamPipeline::new()
            .dataset(paper_example().take_instances(2))
            .scheme(Scheme::pps(5.0))
            .shards(2)
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(0)
            .run()
            .unwrap_err();
        assert_eq!(err, PipelineError::ZeroTrials);
    }

    #[test]
    fn sharded_pps_stream_matches_batch_pipeline_bitwise() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(5)));
        let batch = Pipeline::new()
            .dataset(Arc::clone(&data))
            .scheme(Scheme::pps(150.0))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(25)
            .base_salt(3)
            .run()
            .unwrap();
        for shards in [1, 2, 4, 7] {
            let streamed = StreamPipeline::new()
                .dataset(Arc::clone(&data))
                .scheme(Scheme::pps(150.0))
                .shards(shards)
                .estimators(max_weighted_suite())
                .statistic(Statistic::max_dominance())
                .trials(25)
                .base_salt(3)
                .run()
                .unwrap();
            assert_eq!(streamed, batch, "{shards} shards");
        }
    }

    #[test]
    fn sharded_oblivious_stream_matches_batch_pipeline_bitwise() {
        let data = Arc::new(paper_example().take_instances(2));
        let batch = Pipeline::new()
            .dataset(Arc::clone(&data))
            .scheme(Scheme::oblivious(0.5))
            .estimators(max_oblivious_suite(0.5, 0.5))
            .statistic(Statistic::max_dominance())
            .trials(200)
            .run()
            .unwrap();
        for shards in [1, 3, 4] {
            let streamed = StreamPipeline::new()
                .dataset(Arc::clone(&data))
                .scheme(Scheme::oblivious(0.5))
                .shards(shards)
                .estimators(max_oblivious_suite(0.5, 0.5))
                .statistic(Statistic::max_dominance())
                .trials(200)
                .run()
                .unwrap();
            assert_eq!(streamed, batch, "{shards} shards");
        }
    }

    #[test]
    fn forced_ingest_strategies_are_bit_identical_across_shard_counts() {
        use pie_sampling::{BottomKSampler, PpsPoissonSampler, PpsRanks};
        let data = generate_two_hours(&TrafficConfig::small(3));
        let seeds = SeedAssignment::independent_known(7);

        fn all_strategies<S: SamplingScheme>(
            scheme: &S,
            stream: &ShardedStream,
            seeds: &SeedAssignment,
        ) -> [Vec<InstanceSample>; 3] {
            [
                IngestStrategy::Sequential,
                IngestStrategy::Threaded,
                IngestStrategy::Auto,
            ]
            .map(|strategy| {
                let mut pools = sketch_pools(scheme, stream, seeds);
                ingest_merge_finalize_with(stream, &mut pools, seeds, strategy)
            })
        }

        let bottomk = BottomKSampler::new(PpsRanks, 128);
        let pps = PpsPoissonSampler::new(50.0);
        let bottomk_ref =
            all_strategies(&bottomk, &ShardedStream::from_dataset(&data, 1), &seeds)[0].clone();
        let pps_ref =
            all_strategies(&pps, &ShardedStream::from_dataset(&data, 1), &seeds)[0].clone();
        for shards in [1usize, 2, 3, 5, 8] {
            let stream = ShardedStream::from_dataset(&data, shards);
            let [seq, thr, auto] = all_strategies(&bottomk, &stream, &seeds);
            assert_eq!(seq, thr, "bottom-k sequential vs threaded, {shards} shards");
            assert_eq!(seq, auto, "bottom-k sequential vs auto, {shards} shards");
            assert_eq!(
                seq, bottomk_ref,
                "bottom-k vs single stream, {shards} shards"
            );
            let [seq, thr, auto] = all_strategies(&pps, &stream, &seeds);
            assert_eq!(seq, thr, "pps sequential vs threaded, {shards} shards");
            assert_eq!(seq, auto, "pps sequential vs auto, {shards} shards");
            assert_eq!(seq, pps_ref, "pps vs single stream, {shards} shards");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let report = StreamPipeline::new()
            .dataset(paper_example().take_instances(2))
            .scheme(Scheme::oblivious(0.5))
            .shards(0)
            .estimators(max_oblivious_suite(0.5, 0.5))
            .statistic(Statistic::max_dominance())
            .trials(5)
            .run()
            .unwrap();
        assert_eq!(report.trials, 5);
    }
}
