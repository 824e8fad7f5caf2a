//! The end-to-end estimation pipeline: dataset → sampling → outcome
//! assembly → batched estimation → sum aggregation.
//!
//! [`Pipeline`] is the one-stop builder that replaces the hand-rolled loops
//! previously copied across examples, benches, and figure harnesses.  It
//! wires the workspace crates together:
//!
//! 1. a [`Dataset`] (from `pie-datagen` or your own instances),
//! 2. a sampling [`Scheme`] applied independently per instance
//!    (`pie-sampling`),
//! 3. per-trial outcome assembly into reusable struct-of-arrays **lanes**
//!    ([`ObliviousLanes`]/[`WeightedLanes`]): each per-instance field becomes
//!    one contiguous `f64` slice, built once per trial straight from the
//!    samples and shared by every registered estimator, so the hot loop
//!    performs **no per-outcome heap allocation** after warm-up,
//! 4. a registry of estimators run over the shared lanes through the
//!    vectorized hot path ([`Estimator::estimate_lanes`]),
//! 5. the sum aggregate over selected keys, repeated over Monte-Carlo trials
//!    on the parallel deterministic trial engine ([`TrialRunner`], thread
//!    count via [`Pipeline::threads`] or `PIE_THREADS` — reports are
//!    bit-identical at any thread count) and summarized against the exact
//!    ground truth (`pie-analysis`).
//!
//! ```
//! use partial_info_estimators::{Pipeline, Scheme, Statistic};
//! use partial_info_estimators::core::suite::max_weighted_suite;
//! use partial_info_estimators::datagen::{generate_two_hours, TrafficConfig};
//!
//! let report = Pipeline::new()
//!     .dataset(generate_two_hours(&TrafficConfig::small(3)))
//!     .scheme(Scheme::pps(200.0))
//!     .estimators(max_weighted_suite())
//!     .statistic(Statistic::max_dominance())
//!     .trials(40)
//!     .run()
//!     .unwrap();
//! let l = report.get("max_l_pps_2").unwrap();
//! let ht = report.get("max_ht_pps").unwrap();
//! assert!(l.variance < ht.variance, "L dominates HT on traffic data");
//! ```

use std::fmt;
use std::sync::Arc;

use pie_analysis::{Evaluation, RunningStats, Table, TrialRunner};
use pie_core::{functions, EstimatorRegistry};
use pie_datagen::{Dataset, ShardedStream};
use pie_sampling::{
    sample_all, sample_all_with_universe, sampled_key_union, Instance, InstanceSample, Key,
    LaneOutcome, ObliviousOutcome, ObliviousPoissonSampler, PoissonSketch, PpsPoissonSampler,
    SamplingScheme, SeedAssignment, WeightedOutcome,
};

/// How each instance is sampled, independently of the others.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Weight-oblivious Poisson sampling: every key of the universe is
    /// included with probability `p`, regardless of its value (Section 4).
    ObliviousPoisson {
        /// Per-entry inclusion probability, in `(0, 1]`.
        p: f64,
    },
    /// Weighted Poisson PPS sampling with known seeds: a key with value `v`
    /// is included iff `v ≥ u·τ*` (Sections 5–6).
    PpsPoisson {
        /// The PPS threshold τ*.
        tau_star: f64,
    },
}

impl Scheme {
    /// Weight-oblivious Poisson sampling with probability `p`.
    #[must_use]
    pub fn oblivious(p: f64) -> Self {
        Self::ObliviousPoisson { p }
    }

    /// Weighted PPS Poisson sampling with threshold `tau_star`.
    #[must_use]
    pub fn pps(tau_star: f64) -> Self {
        Self::PpsPoisson { tau_star }
    }

    /// Checks the scheme's parameter and a Monte-Carlo trial count before
    /// anything is sampled under them — the one validation every front end
    /// ([`Pipeline`], [`StreamPipeline`](crate::StreamPipeline), the
    /// checkpoint sessions, [`CatalogEntry::build`](crate::CatalogEntry::build)
    /// and the serving layer) calls.
    ///
    /// # Errors
    /// [`PipelineError::InvalidScheme`] for an oblivious `p` outside
    /// `(0, 1]` or a PPS `tau_star` that is not positive and finite;
    /// [`PipelineError::ZeroTrials`] for `trials == 0`, which has no
    /// estimate to summarize.
    pub fn validate(self, trials: u64) -> Result<(), PipelineError> {
        let reason = match self {
            Self::ObliviousPoisson { p } if !(p > 0.0 && p <= 1.0) => {
                Some("sampling probability must lie in (0, 1]")
            }
            Self::PpsPoisson { tau_star } if !(tau_star > 0.0 && tau_star.is_finite()) => {
                Some("tau_star must be positive and finite")
            }
            _ => None,
        };
        if let Some(reason) = reason {
            return Err(PipelineError::InvalidScheme {
                scheme: format!("{self:?}"),
                reason,
            });
        }
        if trials == 0 {
            return Err(PipelineError::ZeroTrials);
        }
        Ok(())
    }

    /// Partitions `dataset` into the record stream this scheme's sketches
    /// ingest, `shards` key partitions per instance.  Weight-oblivious
    /// sampling runs over the key universe, because zero-valued keys take
    /// part in its Bernoulli trials; PPS never samples a zero, so it runs
    /// over the explicit records.
    pub(crate) fn stream(self, dataset: &Dataset, shards: usize) -> ShardedStream {
        match self {
            Self::ObliviousPoisson { .. } => ShardedStream::over_universe(dataset, shards),
            Self::PpsPoisson { .. } => ShardedStream::from_dataset(dataset, shards),
        }
    }

    /// The key universe [`sample_all`](Self::sample_all) runs over: the
    /// dataset's sorted key union for weight-oblivious sampling, and none for
    /// PPS.  Computed once per run, outside the trial loop.
    fn universe(self, dataset: &Dataset) -> Vec<Key> {
        match self {
            Self::ObliviousPoisson { .. } => dataset.keys(),
            Self::PpsPoisson { .. } => Vec::new(),
        }
    }

    /// Samples every instance once under `seeds` with the batch samplers:
    /// over `universe` for weight-oblivious sampling (see
    /// [`stream`](Self::stream)), over each instance's records for PPS.
    fn sample_all(
        self,
        instances: &[Instance],
        universe: &[Key],
        seeds: &SeedAssignment,
    ) -> Vec<InstanceSample> {
        match self {
            Self::ObliviousPoisson { p } => sample_all_with_universe(
                &ObliviousPoissonSampler::new(p),
                instances,
                universe,
                seeds,
            ),
            Self::PpsPoisson { tau_star } => {
                sample_all(&PpsPoissonSampler::new(tau_star), instances, seeds)
            }
        }
    }
}

/// A [`Scheme`] samples through a [`PoissonSketch`] of its own regime, so
/// the sharded, checkpointed and served paths hold one sketch type for
/// either regime.
impl SamplingScheme for Scheme {
    type Sketch = PoissonSketch;

    fn name(&self) -> &'static str {
        match self {
            Self::ObliviousPoisson { .. } => "oblivious_poisson",
            Self::PpsPoisson { .. } => "pps_poisson",
        }
    }

    fn sketch(&self, seeds: &SeedAssignment, instance_index: u64) -> PoissonSketch {
        match *self {
            Self::ObliviousPoisson { p } => PoissonSketch::Oblivious(
                ObliviousPoissonSampler::new(p).sketch(seeds, instance_index),
            ),
            Self::PpsPoisson { tau_star } => {
                PoissonSketch::Pps(PpsPoissonSampler::new(tau_star).sketch(seeds, instance_index))
            }
        }
    }
}

/// The boxed per-key function inside a [`Statistic`].
type StatisticFn = Box<dyn Fn(&[f64]) -> f64 + Send + Sync>;

/// The per-key statistic being aggregated: a named function of one key's
/// value vector, summed over keys.
pub struct Statistic {
    name: String,
    f: StatisticFn,
}

impl Statistic {
    /// A custom statistic: `name` is used in reports, `f` maps one key's
    /// value vector to its contribution.
    #[must_use]
    pub fn new(name: impl Into<String>, f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Self {
        Self {
            name: name.into(),
            f: Box::new(f),
        }
    }

    /// The max-dominance norm `Σ_key max_i v_i(key)` (Section 8.2, Figure 7).
    #[must_use]
    pub fn max_dominance() -> Self {
        Self::new("max_dominance", functions::maximum)
    }

    /// The distinct count `Σ_key OR_i (v_i(key) > 0)` — the size of the union
    /// over instances (Section 8.1, Figure 6).
    #[must_use]
    pub fn distinct_count() -> Self {
        Self::new("distinct_count", functions::boolean_or)
    }

    /// Every statistic name resolvable through [`Statistic::by_name`], in a
    /// stable order.
    pub const NAMES: [&'static str; 2] = ["max_dominance", "distinct_count"];

    /// Resolves a built-in statistic by its report name — the lookup used
    /// when the statistic choice arrives as data (a CLI flag, a served
    /// `Estimate` request).  Returns `None` for unknown names.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "max_dominance" => Some(Self::max_dominance()),
            "distinct_count" => Some(Self::distinct_count()),
            _ => None,
        }
    }

    /// The statistic's report name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the per-key contribution on one value vector.
    #[must_use]
    pub fn eval(&self, values: &[f64]) -> f64 {
        (self.f)(values)
    }
}

impl fmt::Debug for Statistic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Statistic")
            .field("name", &self.name)
            .finish()
    }
}

/// The estimators a pipeline runs: a registry for whichever outcome regime
/// the scheme produces.  Constructed via `From`/`Into` so
/// [`Pipeline::estimators`] accepts either registry type directly.
pub enum EstimatorSet {
    /// Estimators over weight-oblivious outcomes.
    Oblivious(EstimatorRegistry<ObliviousOutcome>),
    /// Estimators over weighted (known-seed) outcomes.
    Weighted(EstimatorRegistry<WeightedOutcome>),
}

impl From<EstimatorRegistry<ObliviousOutcome>> for EstimatorSet {
    fn from(registry: EstimatorRegistry<ObliviousOutcome>) -> Self {
        Self::Oblivious(registry)
    }
}

impl From<EstimatorRegistry<WeightedOutcome>> for EstimatorSet {
    fn from(registry: EstimatorRegistry<WeightedOutcome>) -> Self {
        Self::Weighted(registry)
    }
}

impl EstimatorSet {
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Oblivious(r) => r.len(),
            Self::Weighted(r) => r.len(),
        }
    }
}

/// Why a [`Pipeline`] could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// No dataset was supplied.
    MissingDataset,
    /// No sampling scheme was supplied.
    MissingScheme,
    /// No estimators were supplied (or the registry was empty).
    MissingEstimators,
    /// No statistic was supplied.
    MissingStatistic,
    /// The estimator registry's outcome regime does not match the scheme's
    /// (e.g. weighted estimators with an oblivious scheme).
    RegimeMismatch {
        /// Debug rendering of the configured scheme.
        scheme: String,
        /// The regime of the supplied estimators.
        estimators: &'static str,
    },
    /// A scheme parameter is out of range (oblivious `p` outside `(0, 1]`,
    /// or a PPS `tau_star` that is not positive and finite).
    InvalidScheme {
        /// Debug rendering of the rejected scheme.
        scheme: String,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// The trial count is zero: there would be no estimate to summarize.
    ZeroTrials,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingDataset => write!(f, "pipeline has no dataset; call .dataset(..)"),
            Self::MissingScheme => write!(f, "pipeline has no sampling scheme; call .scheme(..)"),
            Self::MissingEstimators => {
                write!(f, "pipeline has no estimators; call .estimators(..) with a non-empty registry")
            }
            Self::MissingStatistic => write!(f, "pipeline has no statistic; call .statistic(..)"),
            Self::RegimeMismatch { scheme, estimators } => write!(
                f,
                "scheme {scheme} produces a different outcome regime than the {estimators} estimators consume"
            ),
            Self::InvalidScheme { scheme, reason } => {
                write!(f, "invalid scheme {scheme}: {reason}")
            }
            Self::ZeroTrials => write!(f, "trial count must be at least 1"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Per-estimator slice of a [`PipelineReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorReport {
    /// The estimator's registered name.
    pub name: String,
    /// Bias/variance summary of its aggregate estimates across trials.
    pub evaluation: Evaluation,
}

/// The result of running a [`Pipeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Name of the aggregated statistic.
    pub statistic: String,
    /// The exact aggregate computed from the raw dataset.
    pub truth: f64,
    /// Number of Monte-Carlo sampling trials.
    pub trials: u64,
    /// One entry per registered estimator, in registration order.
    pub estimators: Vec<EstimatorReport>,
}

impl PipelineReport {
    /// Looks up one estimator's evaluation by registered name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Evaluation> {
        self.estimators
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.evaluation)
    }

    /// The name of the estimator with the lowest variance, if any ran.
    #[must_use]
    pub fn best_by_variance(&self) -> Option<&str> {
        self.estimators
            .iter()
            .min_by(|a, b| a.evaluation.variance.total_cmp(&b.evaluation.variance))
            .map(|e| e.name.as_str())
    }

    /// Renders the report as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = Table::new(
            format!(
                "{} (truth {:.4}, {} trials)",
                self.statistic, self.truth, self.trials
            ),
            &["estimator", "mean", "rel. bias", "variance", "cv"],
        );
        for e in &self.estimators {
            table.push_row(&[
                e.name.clone(),
                format!("{:.4}", e.evaluation.mean),
                format!("{:.5}", e.evaluation.relative_bias),
                format!("{:.4}", e.evaluation.variance),
                format!("{:.4}", e.evaluation.cv()),
            ]);
        }
        table.render()
    }
}

impl pie_store::Encode for Scheme {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), pie_store::StoreError> {
        match *self {
            Self::ObliviousPoisson { p } => {
                0u32.encode(w)?;
                p.encode(w)
            }
            Self::PpsPoisson { tau_star } => {
                1u32.encode(w)?;
                tau_star.encode(w)
            }
        }
    }
}

impl pie_store::Decode for Scheme {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, pie_store::StoreError> {
        match u32::decode(r)? {
            0 => Ok(Self::ObliviousPoisson { p: f64::decode(r)? }),
            1 => Ok(Self::PpsPoisson {
                tau_star: f64::decode(r)?,
            }),
            tag => Err(pie_store::StoreError::InvalidTag {
                what: "Scheme",
                tag,
            }),
        }
    }
}

impl pie_store::Encode for EstimatorReport {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), pie_store::StoreError> {
        self.name.encode(w)?;
        self.evaluation.encode(w)
    }
}

impl pie_store::Decode for EstimatorReport {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, pie_store::StoreError> {
        Ok(Self {
            name: String::decode(r)?,
            evaluation: Evaluation::decode(r)?,
        })
    }
}

impl pie_store::Encode for PipelineReport {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), pie_store::StoreError> {
        self.statistic.encode(w)?;
        self.truth.encode(w)?;
        self.trials.encode(w)?;
        self.estimators.encode(w)
    }
}

impl pie_store::Decode for PipelineReport {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, pie_store::StoreError> {
        Ok(Self {
            statistic: String::decode(r)?,
            truth: f64::decode(r)?,
            trials: u64::decode(r)?,
            estimators: Vec::decode(r)?,
        })
    }
}

impl PipelineReport {
    /// Persists the report as a snapshot file (versioned, checksummed).
    ///
    /// # Errors
    /// Propagates file I/O failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), pie_store::StoreError> {
        pie_store::write_snapshot_file(path, self)
    }

    /// Loads a report previously written by [`PipelineReport::save`] —
    /// bit-identical to the saved one, so reports from different processes
    /// can be compared exactly.
    ///
    /// # Errors
    /// Propagates snapshot validation and decoding failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, pie_store::StoreError> {
        pie_store::read_snapshot_file(path)
    }
}

/// Builder wiring datagen → sampling → outcome assembly → batched estimation
/// → sum aggregation.  See the [module docs](self) for the full walkthrough.
#[derive(Debug, Default)]
#[must_use = "a pipeline does nothing until .run()"]
pub struct Pipeline {
    stages: StageBuilder,
}

impl fmt::Debug for EstimatorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Oblivious(r) => write!(f, "EstimatorSet::Oblivious({} estimators)", r.len()),
            Self::Weighted(r) => write!(f, "EstimatorSet::Weighted({} estimators)", r.len()),
        }
    }
}

impl Pipeline {
    /// Starts an empty pipeline (100 trials, salt 0 by default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the dataset to sample and estimate over.
    ///
    /// Accepts either an owned [`Dataset`] or an `Arc<Dataset>`; pass a
    /// shared `Arc` when running several pipelines over the same data (e.g.
    /// a parameter sweep) to avoid deep-copying the instances per run.
    pub fn dataset(mut self, dataset: impl Into<Arc<Dataset>>) -> Self {
        self.stages.dataset = Some(dataset.into());
        self
    }

    /// Sets the per-instance sampling scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.stages.scheme = Some(scheme);
        self
    }

    /// Sets the estimators to run; accepts a registry for either outcome
    /// regime (it must match the scheme at [`run`](Self::run) time).
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

    /// Sets the base hash salt; trial `t` uses salt `base_salt + t`, so
    /// different salts give independent experiments (default 0).
    pub fn base_salt(mut self, base_salt: u64) -> Self {
        self.stages.base_salt = base_salt;
        self
    }

    /// Sets the number of worker threads for the Monte-Carlo trial loop
    /// (clamped to ≥ 1).
    ///
    /// The default follows the `PIE_THREADS` environment variable, falling
    /// back to the machine's available parallelism.  Thread count **never
    /// changes the report**: trials are partitioned into fixed chunks and
    /// reduced in a canonical order (see [`TrialRunner`]), so any thread
    /// count reproduces the sequential output bit for bit.
    pub fn threads(mut self, threads: usize) -> Self {
        self.stages.threads = Some(threads.max(1));
        self
    }

    /// Runs the pipeline: samples every instance `trials` times, assembles
    /// per-key outcomes into reusable buffers, pushes them through each
    /// estimator's batched hot path, and summarizes the per-trial sum
    /// aggregates against the exact truth.
    ///
    /// # Estimator requirements
    ///
    /// Under the PPS scheme, outcomes are only assembled for keys present in
    /// at least one sample; keys sampled nowhere are credited **zero**
    /// without consulting the estimators.  Every estimator in the registry
    /// must therefore return `0.0` on a fully-unsampled outcome — true of
    /// all unbiased *nonnegative* estimators (an all-`None` outcome is
    /// consistent with the all-zero vector), and of everything in
    /// [`pie_core::suite`] — or its aggregate will be biased.  The
    /// oblivious scheme evaluates every dataset key, so it carries no such
    /// requirement.
    ///
    /// # Errors
    /// Returns a [`PipelineError`] if a stage is missing, the scheme or
    /// trial count is invalid, or the estimator regime does not match the
    /// scheme.
    pub fn run(self) -> Result<PipelineReport, PipelineError> {
        let stages = self.stages.validate()?;
        let (scheme, instances) = (stages.scheme, stages.dataset.instances());
        let universe = &scheme.universe(&stages.dataset);
        stages.estimate(|_worker| {
            move |_t, seeds: &SeedAssignment| scheme.sample_all(instances, universe, seeds)
        })
    }
}

/// The Monte-Carlo execution plan shared by both pipeline front-ends: how
/// many trials, the salt from which trial `t` derives its randomization
/// (`base_salt + t`), and the engine that runs the loop.
pub(crate) struct TrialPlan {
    pub(crate) trials: u64,
    pub(crate) base_salt: u64,
    pub(crate) runner: TrialRunner,
    pub(crate) observer: crate::obs::PipelineObserver,
}

impl TrialPlan {
    /// Builds a plan from a builder's `.trials`/`.base_salt`/`.threads`
    /// settings: an explicit thread count wins, otherwise `PIE_THREADS` /
    /// available parallelism (see [`TrialRunner::new`]).
    pub(crate) fn new(trials: u64, base_salt: u64, threads: Option<usize>) -> Self {
        Self {
            trials,
            base_salt,
            runner: match threads {
                Some(n) => TrialRunner::with_threads(n),
                None => TrialRunner::new(),
            },
            observer: crate::obs::PipelineObserver::disabled(),
        }
    }

    /// Installs observation hooks: stage totals accumulate into the
    /// observer's [`StageNanos`](crate::obs::StageNanos), and any chunk
    /// hook becomes the trial engine's recorder.  Observation never changes
    /// results.
    pub(crate) fn with_observer(mut self, observer: crate::obs::PipelineObserver) -> Self {
        self.runner = self.runner.recorder(observer.recorder());
        self.observer = observer;
        self
    }
}

/// The stages a builder collects — [`Pipeline`]'s, and
/// [`StreamPipeline`](crate::StreamPipeline)'s besides its shard count —
/// checked only when it runs.
#[derive(Debug)]
pub(crate) struct StageBuilder {
    pub(crate) dataset: Option<Arc<Dataset>>,
    pub(crate) scheme: Option<Scheme>,
    pub(crate) estimators: Option<EstimatorSet>,
    pub(crate) statistic: Option<Statistic>,
    pub(crate) trials: u64,
    pub(crate) base_salt: u64,
    pub(crate) threads: Option<usize>,
}

impl Default for StageBuilder {
    /// Empty stages, 100 trials, salt 0, the default thread count.
    fn default() -> Self {
        Self {
            dataset: None,
            scheme: None,
            estimators: None,
            statistic: None,
            trials: 100,
            base_salt: 0,
            threads: None,
        }
    }
}

impl StageBuilder {
    /// Checks that every stage was supplied and that they fit together: a
    /// non-empty estimator registry, a valid scheme and trial count
    /// ([`Scheme::validate`]), and estimators of the scheme's regime.
    pub(crate) fn validate(self) -> Result<Stages, PipelineError> {
        let dataset = self.dataset.ok_or(PipelineError::MissingDataset)?;
        let scheme = self.scheme.ok_or(PipelineError::MissingScheme)?;
        let estimators = self.estimators.ok_or(PipelineError::MissingEstimators)?;
        let statistic = self.statistic.ok_or(PipelineError::MissingStatistic)?;
        if estimators.len() == 0 {
            return Err(PipelineError::MissingEstimators);
        }
        scheme.validate(self.trials)?;
        check_regime(scheme, &estimators)?;
        Ok(Stages {
            dataset,
            scheme,
            estimators,
            statistic,
            trials: self.trials,
            base_salt: self.base_salt,
            threads: self.threads,
        })
    }
}

/// A builder's stages, all supplied and validated: what [`Pipeline`],
/// [`StreamPipeline`](crate::StreamPipeline) and the checkpoint sessions
/// hand the estimation core.
pub(crate) struct Stages {
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) scheme: Scheme,
    estimators: EstimatorSet,
    statistic: Statistic,
    pub(crate) trials: u64,
    pub(crate) base_salt: u64,
    threads: Option<usize>,
}

impl Stages {
    /// Runs the estimation core over the per-trial samples `make_sampler`'s
    /// closures produce (see [`estimate`]).
    pub(crate) fn estimate<R, G, F>(&self, make_sampler: F) -> Result<PipelineReport, PipelineError>
    where
        F: Fn(usize) -> G + Sync,
        G: FnMut(u64, &SeedAssignment) -> R + Send,
        R: AsRef<[InstanceSample]>,
    {
        let plan = TrialPlan::new(self.trials, self.base_salt, self.threads);
        let combos = [(&self.estimators, &self.statistic)];
        let mut reports = estimate(&self.dataset, self.scheme, &combos, &plan, make_sampler)?;
        Ok(reports.pop().expect("one combination in, one report out"))
    }
}

/// Checks that `estimators` consume the outcome regime `scheme` produces —
/// the one place a [`PipelineError::RegimeMismatch`] is raised.
fn check_regime(scheme: Scheme, estimators: &EstimatorSet) -> Result<(), PipelineError> {
    let estimators = match (scheme, estimators) {
        (Scheme::ObliviousPoisson { .. }, EstimatorSet::Oblivious(_))
        | (Scheme::PpsPoisson { .. }, EstimatorSet::Weighted(_)) => return Ok(()),
        (_, EstimatorSet::Oblivious(_)) => "weight-oblivious",
        (_, EstimatorSet::Weighted(_)) => "weighted",
    };
    Err(PipelineError::RegimeMismatch {
        scheme: format!("{scheme:?}"),
        estimators,
    })
}

/// Exact ground truth of the aggregate: `Σ_key statistic(v(key))`.
fn exact_truth(dataset: &Dataset, statistic: &Statistic) -> f64 {
    dataset
        .keys()
        .iter()
        .map(|&k| statistic.eval(&dataset.value_vector(k)))
        .sum()
}

fn summarize(
    statistic: &Statistic,
    truth: f64,
    trials: u64,
    names: impl Iterator<Item = impl Into<String>>,
    stats: &[RunningStats],
) -> PipelineReport {
    PipelineReport {
        statistic: statistic.name().to_string(),
        truth,
        trials,
        estimators: names
            .zip(stats)
            .map(|(name, stat)| EstimatorReport {
                name: name.into(),
                evaluation: Evaluation::from_stats(stat, truth),
            })
            .collect(),
    }
}

/// What the two sampling regimes decide differently inside the one
/// estimation core: which estimators apply, which keys get an outcome in a
/// trial, and how the outcome lanes are filled.
trait Regime: Sync {
    /// The per-key outcome the regime's estimators consume.
    type Outcome: LaneOutcome<Lanes: Default + Send>;

    /// The registry in `estimators`, if it consumes this regime's outcomes.
    fn registry(estimators: &EstimatorSet) -> Option<&EstimatorRegistry<Self::Outcome>>;

    /// Fills `lanes` with one outcome per key that gets one in this trial.
    fn fill(
        &self,
        samples: &[InstanceSample],
        seeds: &SeedAssignment,
        lanes: &mut <Self::Outcome as LaneOutcome>::Lanes,
    );
}

/// Weight-oblivious Poisson sampling (Section 4): every key of the dataset
/// universe gets an outcome, sampled or not.
struct Oblivious {
    /// The sorted key union, computed once per run.
    universe: Vec<Key>,
}

impl Regime for Oblivious {
    type Outcome = ObliviousOutcome;

    fn registry(estimators: &EstimatorSet) -> Option<&EstimatorRegistry<ObliviousOutcome>> {
        match estimators {
            EstimatorSet::Oblivious(registry) => Some(registry),
            _ => None,
        }
    }

    fn fill(
        &self,
        samples: &[InstanceSample],
        _seeds: &SeedAssignment,
        lanes: &mut pie_sampling::ObliviousLanes,
    ) {
        lanes.fill_from_samples(&self.universe, samples);
    }
}

/// PPS sampling with known seeds (Sections 5–6): only keys sampled in some
/// instance get an outcome.  A key sampled nowhere is credited zero without
/// consulting the estimators, which is exact for every nonnegative
/// unbiased estimator (see [`Pipeline::run`]).
struct Pps {
    tau_star: f64,
}

impl Regime for Pps {
    type Outcome = WeightedOutcome;

    fn registry(estimators: &EstimatorSet) -> Option<&EstimatorRegistry<WeightedOutcome>> {
        match estimators {
            EstimatorSet::Weighted(registry) => Some(registry),
            _ => None,
        }
    }

    fn fill(
        &self,
        samples: &[InstanceSample],
        seeds: &SeedAssignment,
        lanes: &mut pie_sampling::WeightedLanes,
    ) {
        let keys = sampled_key_union(samples);
        lanes.fill_pps(&keys, samples, seeds, self.tau_star);
    }
}

/// The estimation core behind every front end: runs `plan.trials`
/// Monte-Carlo trials on the parallel trial engine and answers every
/// `(estimators, statistic)` combination from that **one** replay.
///
/// Per trial, the samples come from a worker's sampling closure, and the
/// outcome lanes are filled once and shared by every combination; each
/// combination then pays only for its own lane kernels and accumulation.
/// Every float operation a combination sees is the one it would see
/// running alone, so each report is **bit-identical** to a
/// single-combination call.
///
/// `make_sampler(worker)` builds one worker thread's sampling closure
/// (batch samplers, per-worker sketch pools, …).  Each closure must be a
/// pure function of `(trial, seeds)` — a trial's samples may not depend on
/// which worker draws them — which is what makes the report bit-identical
/// at every thread count.  The closure may return owned samples (live
/// sampling) or borrow precomputed ones (`&[InstanceSample]`, the
/// catalog/checkpoint replay paths), so replaying finalized samples costs
/// no per-trial deep copy.
///
/// # Errors
/// [`PipelineError::RegimeMismatch`] if some estimators consume a
/// different outcome regime than `scheme` produces.
pub(crate) fn estimate<R, G, F>(
    dataset: &Dataset,
    scheme: Scheme,
    combos: &[(&EstimatorSet, &Statistic)],
    plan: &TrialPlan,
    make_sampler: F,
) -> Result<Vec<PipelineReport>, PipelineError>
where
    F: Fn(usize) -> G + Sync,
    G: FnMut(u64, &SeedAssignment) -> R + Send,
    R: AsRef<[InstanceSample]>,
{
    for (estimators, _) in combos {
        check_regime(scheme, estimators)?;
    }
    Ok(match scheme {
        Scheme::ObliviousPoisson { .. } => {
            let regime = Oblivious {
                universe: dataset.keys(),
            };
            run_regime(&regime, dataset, combos, plan, make_sampler)
        }
        Scheme::PpsPoisson { tau_star } => {
            run_regime(&Pps { tau_star }, dataset, combos, plan, make_sampler)
        }
    })
}

/// One trial worker's state: its sampling closure plus the lane and estimate
/// buffers it rewrites in place every trial, so the hot loop stays
/// allocation-free after warm-up.
struct Worker<G, L> {
    sample_trial: G,
    lanes: L,
    estimates: Vec<f64>,
}

/// [`estimate`] for one regime, its combinations already regime-checked.
fn run_regime<Rg, R, G, F>(
    regime: &Rg,
    dataset: &Dataset,
    combos: &[(&EstimatorSet, &Statistic)],
    plan: &TrialPlan,
    make_sampler: F,
) -> Vec<PipelineReport>
where
    Rg: Regime,
    F: Fn(usize) -> G + Sync,
    G: FnMut(u64, &SeedAssignment) -> R + Send,
    R: AsRef<[InstanceSample]>,
{
    let registries: Vec<&EstimatorRegistry<Rg::Outcome>> = combos
        .iter()
        .map(|(estimators, _)| Rg::registry(estimators).expect("regime checked by `estimate`"))
        .collect();
    let truths: Vec<f64> = combos
        .iter()
        .map(|(_, statistic)| exact_truth(dataset, statistic))
        .collect();
    let base_salt = plan.base_salt;
    // One statistics lane per (combination, estimator), flattened in
    // combination order; chunk accumulators merge per lane exactly as in a
    // single-combination run.
    let lanes: usize = registries.iter().map(|registry| registry.len()).sum();
    // Stage attribution is observation only — clock reads between stages,
    // never inside the float path — so observed runs stay bit-identical.
    let stages = plan.observer.stages.as_deref();
    let stats = plan.runner.run(
        plan.trials,
        lanes,
        |worker| Worker {
            sample_trial: make_sampler(worker),
            lanes: <Rg::Outcome as LaneOutcome>::Lanes::default(),
            estimates: Vec::new(),
        },
        |w, t, stats| {
            let replay_start = stages.map(|_| std::time::Instant::now());
            let seeds = SeedAssignment::independent_known(base_salt.wrapping_add(t));
            let samples = (w.sample_trial)(t, &seeds);
            regime.fill(samples.as_ref(), &seeds, &mut w.lanes);
            w.estimates.resize(Rg::Outcome::lanes_len(&w.lanes), 0.0);
            let batch_start = stages.map(|_| std::time::Instant::now());
            let mut lane = 0;
            for registry in &registries {
                for (_, estimator) in registry.iter() {
                    estimator.estimate_lanes(&w.lanes, &mut w.estimates);
                    stats[lane].push(w.estimates.iter().sum());
                    lane += 1;
                }
            }
            if let (Some(totals), Some(replayed), Some(batched)) =
                (stages, replay_start, batch_start)
            {
                totals.add_trial_replay(elapsed_nanos(replayed, batched));
                totals.add_estimator_batch(nanos_since(batched));
            }
        },
    );
    let mut lane = 0;
    registries
        .iter()
        .zip(combos)
        .zip(truths)
        .map(|((registry, (_, statistic)), truth)| {
            let slice = &stats[lane..lane + registry.len()];
            lane += registry.len();
            summarize(statistic, truth, plan.trials, registry.names(), slice)
        })
        .collect()
}

/// Saturating nanoseconds between two stage boundary clock reads.
fn elapsed_nanos(from: std::time::Instant, to: std::time::Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Saturating nanoseconds since a stage boundary clock read.
fn nanos_since(from: std::time::Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pie_core::suite::{max_oblivious_suite, max_weighted_suite};
    use pie_datagen::{generate_two_hours, paper_example, TrafficConfig};

    #[test]
    fn pipeline_requires_every_stage() {
        assert_eq!(
            Pipeline::new().run().unwrap_err(),
            PipelineError::MissingDataset
        );
        assert_eq!(
            Pipeline::new()
                .dataset(paper_example().take_instances(2))
                .run()
                .unwrap_err(),
            PipelineError::MissingScheme
        );
        assert_eq!(
            Pipeline::new()
                .dataset(paper_example().take_instances(2))
                .scheme(Scheme::oblivious(0.5))
                .run()
                .unwrap_err(),
            PipelineError::MissingEstimators
        );
        assert_eq!(
            Pipeline::new()
                .dataset(paper_example().take_instances(2))
                .scheme(Scheme::oblivious(0.5))
                .estimators(max_oblivious_suite(0.5, 0.5))
                .run()
                .unwrap_err(),
            PipelineError::MissingStatistic
        );
    }

    #[test]
    fn pipeline_rejects_out_of_range_scheme_parameters() {
        for scheme in [Scheme::oblivious(0.0), Scheme::oblivious(1.5)] {
            let err = Pipeline::new()
                .dataset(paper_example().take_instances(2))
                .scheme(scheme)
                .estimators(max_oblivious_suite(0.5, 0.5))
                .statistic(Statistic::max_dominance())
                .run()
                .unwrap_err();
            assert!(
                matches!(err, PipelineError::InvalidScheme { .. }),
                "{scheme:?}"
            );
        }
        for tau in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let err = Pipeline::new()
                .dataset(paper_example().take_instances(2))
                .scheme(Scheme::pps(tau))
                .estimators(max_weighted_suite())
                .statistic(Statistic::max_dominance())
                .run()
                .unwrap_err();
            assert!(
                matches!(err, PipelineError::InvalidScheme { .. }),
                "tau_star {tau}"
            );
            assert!(err.to_string().contains("positive and finite"));
        }
    }

    #[test]
    fn pipeline_rejects_zero_trials() {
        let err = Pipeline::new()
            .dataset(paper_example().take_instances(2))
            .scheme(Scheme::pps(5.0))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(0)
            .run()
            .unwrap_err();
        assert_eq!(err, PipelineError::ZeroTrials);
        // The scheme parameter is checked first.
        let err = Scheme::pps(0.0).validate(0).unwrap_err();
        assert!(matches!(err, PipelineError::InvalidScheme { .. }), "{err}");
    }

    #[test]
    fn scheme_is_named_like_its_concrete_sampler() {
        assert_eq!(
            Scheme::oblivious(0.5).name(),
            ObliviousPoissonSampler::new(0.5).name()
        );
        assert_eq!(Scheme::pps(2.0).name(), PpsPoissonSampler::new(2.0).name());
    }

    #[test]
    fn pipeline_default_matches_new() {
        // A derived Default would zero `trials`; the manual impl must keep
        // new()'s documented 100-trial default.
        let report = Pipeline::default()
            .dataset(paper_example().take_instances(2))
            .scheme(Scheme::oblivious(0.5))
            .estimators(max_oblivious_suite(0.5, 0.5))
            .statistic(Statistic::max_dominance())
            .run()
            .unwrap();
        assert_eq!(report.trials, 100);
        assert!(report.estimators.iter().all(|e| e.evaluation.trials == 100));
    }

    #[test]
    fn pipeline_rejects_regime_mismatch() {
        let err = Pipeline::new()
            .dataset(paper_example().take_instances(2))
            .scheme(Scheme::oblivious(0.5))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::RegimeMismatch { .. }));
        assert!(err.to_string().contains("weighted"));
    }

    #[test]
    fn oblivious_pipeline_is_unbiased_and_ranks_l_first() {
        let report = Pipeline::new()
            .dataset(paper_example().take_instances(2))
            .scheme(Scheme::oblivious(0.5))
            .estimators(max_oblivious_suite(0.5, 0.5))
            .statistic(Statistic::max_dominance())
            .trials(4000)
            .base_salt(11)
            .run()
            .unwrap();
        assert_eq!(report.estimators.len(), 3);
        for e in &report.estimators {
            assert!(
                e.evaluation.relative_bias < 0.05,
                "{} bias {}",
                e.name,
                e.evaluation.relative_bias
            );
        }
        let ht = report.get("max_ht_oblivious").unwrap();
        let l = report.get("max_l_2").unwrap();
        assert!(l.variance < ht.variance, "L should beat HT");
        assert_ne!(report.best_by_variance(), Some("max_ht_oblivious"));
        let rendered = report.render();
        assert!(rendered.contains("max_dominance"));
        assert!(rendered.contains("max_l_2"));
    }

    #[test]
    fn pps_pipeline_matches_bespoke_aggregate_loop() {
        use pie_analysis::{all_keys, evaluate_aggregate_pps};
        use pie_core::aggregate::{max_dominance_l, true_max_dominance};

        let dataset = generate_two_hours(&TrafficConfig::small(3));
        let truth = true_max_dominance(dataset.instances(), |_| true);
        let trials = 60;
        let salt = 7;
        let report = Pipeline::new()
            .dataset(dataset.clone())
            .scheme(Scheme::pps(200.0))
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(trials)
            .base_salt(salt)
            .run()
            .unwrap();
        assert!((report.truth - truth).abs() < 1e-9);
        // The pipeline's L-estimator path must reproduce the bespoke
        // `evaluate_aggregate_pps` + `max_dominance_l` loop it replaced.
        let bespoke = evaluate_aggregate_pps(&dataset, 200.0, truth, trials, salt, |s, seeds| {
            max_dominance_l(s, seeds, all_keys)
        });
        let l = report.get("max_l_pps_2").unwrap();
        assert!(
            (l.mean - bespoke.mean).abs() <= 1e-9 * bespoke.mean.abs().max(1.0),
            "pipeline mean {} vs bespoke {}",
            l.mean,
            bespoke.mean
        );
        assert!(
            (l.variance - bespoke.variance).abs() <= 1e-6 * bespoke.variance.max(1.0),
            "pipeline variance {} vs bespoke {}",
            l.variance,
            bespoke.variance
        );
    }

    #[test]
    fn distinct_count_statistic_on_binary_data() {
        use pie_datagen::{generate_set_pair, SetPairConfig};
        let dataset = generate_set_pair(&SetPairConfig::new(200, 0.5));
        let report = Pipeline::new()
            .dataset(dataset)
            .scheme(Scheme::oblivious(0.4))
            .estimators(pie_core::suite::or_oblivious_suite(0.4, 0.4))
            .statistic(Statistic::distinct_count())
            .trials(300)
            .run()
            .unwrap();
        for e in &report.estimators {
            assert!(
                e.evaluation.relative_bias < 0.05,
                "{} bias {}",
                e.name,
                e.evaluation.relative_bias
            );
        }
        let ht = report.get("or_ht_oblivious").unwrap();
        let l = report.get("or_l_2").unwrap();
        assert!(l.variance < ht.variance);
    }
}
