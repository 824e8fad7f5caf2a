//! Servable sketch state: a finalized, persistable unit of sampled data
//! that answers estimation queries with per-query estimator choice.
//!
//! The paper's setting is exactly "small summary, many downstream queries":
//! a sketch is computed once, then interrogated repeatedly — often by
//! parties that were not present at sampling time and want to pick their
//! own estimator (HT baseline vs. the Pareto-optimal `L`/`U` families) and
//! statistic per query.  [`CatalogEntry`] is that unit:
//!
//! * **built once** — from a dataset's record stream via
//!   [`CatalogEntry::build`] / [`StreamPipeline::into_catalog_entry`], or
//!   from a completed (possibly checkpoint-resumed) ingest session via
//!   [`StreamIngestSession::finish_into_catalog`] — holding one finalized
//!   [`InstanceSample`] per `(trial, instance)`;
//! * **persisted whole** — [`CatalogEntry::save`] / [`CatalogEntry::load`]
//!   write one versioned, checksummed `pie-store` snapshot file, so a
//!   serving process can load sketch state produced elsewhere;
//! * **queried many times, by name** — [`CatalogEntry::estimate_named`] and
//!   [`CatalogEntry::estimate_batch_named`] resolve estimator suites
//!   ([`pie_core::suite`]) and statistics ([`Statistic::by_name`]) from
//!   strings and run them over the *same* estimation core the live
//!   pipelines use, so a served answer is **bit-identical** to what
//!   [`Pipeline`](crate::Pipeline) / [`StreamPipeline`] would have produced
//!   in-process on the same configuration.  Unknown names, regime
//!   mismatches, and arity/domain violations are typed [`CatalogError`]s
//!   instead of panics — the contract a network service needs.
//!
//! [`StreamIngestSession::finish_into_catalog`]:
//! crate::StreamIngestSession::finish_into_catalog
//! [`StreamPipeline::into_catalog_entry`]:
//! crate::StreamPipeline::into_catalog_entry
//!
//! ```
//! use partial_info_estimators::{CatalogEntry, Scheme};
//! use partial_info_estimators::datagen::paper_example;
//!
//! let entry = CatalogEntry::build(
//!     paper_example().take_instances(2),
//!     Scheme::oblivious(0.5),
//!     2,   // shards
//!     50,  // trials
//!     7,   // base salt
//! )
//! .unwrap();
//! let report = entry.estimate_named("max_oblivious", "max_dominance", Some(1)).unwrap();
//! assert_eq!(report.trials, 50);
//! ```

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use pie_core::suite::{oblivious_suite_by_name, suite_regime, weighted_suite_by_name, SuiteRegime};
use pie_datagen::Dataset;
use pie_sampling::{InstanceSample, SeedAssignment};
use pie_store::{Decode, Encode, StoreError};

use crate::pipeline::{
    estimate, EstimatorSet, PipelineError, PipelineReport, Scheme, Statistic, TrialPlan,
};
use crate::stream::{ingest_merge_finalize, sketch_pools};

/// Why a catalog entry could not resolve or answer a query.
#[derive(Debug)]
#[non_exhaustive]
pub enum CatalogError {
    /// The underlying pipeline configuration or estimation failed.
    Pipeline(PipelineError),
    /// No estimator suite is registered under this name (see
    /// [`pie_core::suite::SUITE_NAMES`]).
    UnknownSuite {
        /// The unresolvable suite name.
        name: String,
    },
    /// The named suite consumes a different outcome regime than this
    /// entry's sampling scheme produces.
    RegimeMismatch {
        /// The requested suite name.
        suite: String,
        /// Debug rendering of the entry's scheme.
        scheme: String,
    },
    /// The named suite is defined for a different number of instances than
    /// this entry holds (the paper's pairwise estimators need exactly two).
    ArityMismatch {
        /// The requested suite name.
        suite: String,
        /// Instances the suite requires.
        required: usize,
        /// Instances the entry holds.
        found: usize,
    },
    /// The named suite requires binary (0/1) data, but this entry's dataset
    /// has other values (Boolean `OR` is only defined over indicators).
    NonBinaryData {
        /// The requested suite name.
        suite: String,
    },
    /// No statistic is registered under this name (see
    /// [`Statistic::NAMES`]).
    UnknownStatistic {
        /// The unresolvable statistic name.
        name: String,
    },
    /// Reading or writing the entry's snapshot file failed.
    Store(StoreError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Pipeline(e) => write!(f, "{e}"),
            Self::UnknownSuite { name } => write!(f, "unknown estimator suite {name:?}"),
            Self::RegimeMismatch { suite, scheme } => write!(
                f,
                "suite {suite:?} consumes a different outcome regime than scheme {scheme}"
            ),
            Self::ArityMismatch {
                suite,
                required,
                found,
            } => write!(
                f,
                "suite {suite:?} is defined for {required} instances, sketch has {found}"
            ),
            Self::NonBinaryData { suite } => write!(
                f,
                "suite {suite:?} requires binary (0/1) data, sketch holds other values"
            ),
            Self::UnknownStatistic { name } => write!(f, "unknown statistic {name:?}"),
            Self::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Pipeline(e) => Some(e),
            Self::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for CatalogError {
    fn from(e: PipelineError) -> Self {
        Self::Pipeline(e)
    }
}

impl From<StoreError> for CatalogError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

/// A finalized, persistable, queryable sketch of one dataset: the sampled
/// state of every `(trial, instance)` pair plus the configuration that
/// produced it.  See the [module docs](self) for the life cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    dataset: Arc<Dataset>,
    scheme: Scheme,
    shards: usize,
    trials: u64,
    base_salt: u64,
    /// Whether every explicit dataset value is 0 or 1 (precomputed so
    /// binary-only suites can be gated per query without rescanning).
    binary: bool,
    /// Content fingerprint over the entry's full encoded state (precomputed
    /// so result caches can key on it without rescanning; see
    /// [`fingerprint`](Self::fingerprint)).
    fingerprint: u64,
    /// One finalized sample per `[trial][instance]`.
    samples: Vec<Vec<InstanceSample>>,
}

/// `io::Write` adapter that folds encoded bytes into the store's frame
/// checksum, fingerprinting an entry without materializing its encoding.
struct ChecksumWriter(pie_store::frame::Checksum);

impl std::io::Write for ChecksumWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl CatalogEntry {
    /// Samples `dataset` under `scheme` across `shards` ingest shards for
    /// `trials` Monte-Carlo trials (trial `t` seeded from `base_salt + t`)
    /// and finalizes the per-instance samples.
    ///
    /// The sampling path is the same sharded ingest → merge tree → finalize
    /// choreography [`StreamPipeline`](crate::StreamPipeline) runs per
    /// trial, so estimates over the entry are bit-identical to the live
    /// pipelines on the same configuration.
    ///
    /// # Errors
    /// [`PipelineError::InvalidScheme`] for out-of-range scheme parameters,
    /// [`PipelineError::ZeroTrials`] for `trials == 0`.
    pub fn build(
        dataset: impl Into<Arc<Dataset>>,
        scheme: Scheme,
        shards: usize,
        trials: u64,
        base_salt: u64,
    ) -> Result<Self, PipelineError> {
        scheme.validate(trials)?;
        let dataset = dataset.into();
        let shards = shards.max(1);
        let stream = scheme.stream(&dataset, shards);
        let seeds = |t: u64| SeedAssignment::independent_known(base_salt.wrapping_add(t));
        let mut pools = sketch_pools(&scheme, &stream, &seeds(0));
        let samples = (0..trials)
            .map(|t| ingest_merge_finalize(&stream, &mut pools, &seeds(t)))
            .collect();
        Ok(Self::from_parts(
            dataset, scheme, shards, trials, base_salt, samples,
        ))
    }

    /// Assembles an entry from already-finalized per-trial samples (the
    /// checkpoint/session export path).
    pub(crate) fn from_parts(
        dataset: Arc<Dataset>,
        scheme: Scheme,
        shards: usize,
        trials: u64,
        base_salt: u64,
        samples: Vec<Vec<InstanceSample>>,
    ) -> Self {
        let binary = dataset
            .instances()
            .iter()
            .all(|inst| inst.iter().all(|(_, v)| v == 0.0 || v == 1.0));
        let mut entry = Self {
            dataset,
            scheme,
            shards,
            trials,
            base_salt,
            binary,
            fingerprint: 0,
            samples,
        };
        let mut hasher = ChecksumWriter(pie_store::frame::Checksum::new());
        entry
            .encode(&mut hasher)
            .expect("checksum writer cannot fail");
        entry.fingerprint = hasher.0.value();
        entry
    }

    /// The sampling scheme the entry was built under.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Number of ingest shards the entry was built with.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of Monte-Carlo trials the entry holds samples for.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The base hash salt; trial `t` derives its seeds from `base_salt + t`.
    #[must_use]
    pub fn base_salt(&self) -> u64 {
        self.base_salt
    }

    /// Number of instances in the underlying dataset.
    #[must_use]
    pub fn num_instances(&self) -> usize {
        self.dataset.num_instances()
    }

    /// Whether every explicit dataset value is 0 or 1 — the domain the
    /// Boolean `OR` suites require.
    #[must_use]
    pub fn is_binary(&self) -> bool {
        self.binary
    }

    /// Content fingerprint: an FNV-1a digest over the entry's full encoded
    /// state (dataset, scheme, shards, trials, base salt, and every
    /// finalized sample).  Two entries answer every query bit-identically
    /// whenever their fingerprints match, so a result cache keyed on
    /// `(name, fingerprint, query)` can never serve a report computed from
    /// a sketch that has since been replaced under the same name.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The dataset the entry summarizes (kept for exact ground truth and,
    /// under the oblivious scheme, the key universe).
    #[must_use]
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// Resolves a named estimator suite against this entry's scheme,
    /// instance count, and value domain.
    ///
    /// # Errors
    /// [`CatalogError::UnknownSuite`], [`CatalogError::RegimeMismatch`],
    /// [`CatalogError::ArityMismatch`] (the pairwise suites are defined for
    /// exactly two instances, `max_oblivious_uniform` for at least two), or
    /// [`CatalogError::NonBinaryData`] for `OR` suites over non-indicator
    /// data — each the typed refusal a serving boundary needs in place of
    /// the estimators' own assertions.
    pub fn suite(&self, name: &str) -> Result<EstimatorSet, CatalogError> {
        let regime = suite_regime(name).ok_or_else(|| CatalogError::UnknownSuite {
            name: name.to_string(),
        })?;
        let r = self.num_instances();
        let arity = |required: usize, exact: bool| -> Result<(), CatalogError> {
            if (exact && r != required) || (!exact && r < required) {
                Err(CatalogError::ArityMismatch {
                    suite: name.to_string(),
                    required,
                    found: r,
                })
            } else {
                Ok(())
            }
        };
        let binary = |required: bool| -> Result<(), CatalogError> {
            if required && !self.binary {
                Err(CatalogError::NonBinaryData {
                    suite: name.to_string(),
                })
            } else {
                Ok(())
            }
        };
        match (self.scheme, regime) {
            (Scheme::ObliviousPoisson { p }, SuiteRegime::Oblivious) => {
                arity(2, name != "max_oblivious_uniform")?;
                binary(name == "or_oblivious")?;
                Ok(oblivious_suite_by_name(name, r, p)
                    .expect("regime-checked suite name")
                    .into())
            }
            (Scheme::PpsPoisson { .. }, SuiteRegime::Weighted) => {
                arity(2, true)?;
                binary(name == "or_weighted")?;
                Ok(weighted_suite_by_name(name)
                    .expect("regime-checked suite name")
                    .into())
            }
            _ => Err(CatalogError::RegimeMismatch {
                suite: name.to_string(),
                scheme: format!("{:?}", self.scheme),
            }),
        }
    }

    /// Resolves `suite` and `statistic` by name and estimates — the one
    /// call a query dispatcher needs.
    ///
    /// # Errors
    /// Name-resolution failures as [`suite`](Self::suite) /
    /// [`Statistic::by_name`]; estimation failures wrapped as
    /// [`CatalogError::Pipeline`].
    pub fn estimate_named(
        &self,
        suite: &str,
        statistic: &str,
        threads: Option<usize>,
    ) -> Result<PipelineReport, CatalogError> {
        self.estimate_named_observed(
            suite,
            statistic,
            threads,
            crate::obs::PipelineObserver::disabled(),
        )
    }

    /// [`estimate_named`](Self::estimate_named) under an observation hook —
    /// the serving layer's tracing path: `observer` collects per-stage
    /// wall-clock totals (trial replay vs estimator batch) and optional
    /// per-chunk timings.  The report is bit-identical to the unobserved
    /// call.
    ///
    /// # Errors
    /// As [`estimate_named`](Self::estimate_named).
    pub fn estimate_named_observed(
        &self,
        suite: &str,
        statistic: &str,
        threads: Option<usize>,
        observer: crate::obs::PipelineObserver,
    ) -> Result<PipelineReport, CatalogError> {
        let mut reports =
            self.estimate_batch_named_observed(&[(suite, statistic)], threads, observer)?;
        Ok(reports.pop().expect("one query in, one report out"))
    }

    /// Answers many `(suite, statistic)` queries from **one** replay over
    /// the finalized samples: per trial, the sampled outcomes are assembled
    /// once and every query's estimators run over that shared assembly —
    /// the paper's "one summary, many queries" promise made literal at the
    /// serving layer.  Each returned report (in request order) is
    /// **bit-identical** to the corresponding single
    /// [`estimate_named`](Self::estimate_named) call.
    ///
    /// ```
    /// use partial_info_estimators::{CatalogEntry, Scheme};
    /// use partial_info_estimators::datagen::paper_example;
    ///
    /// let entry = CatalogEntry::build(
    ///     paper_example().take_instances(2),
    ///     Scheme::oblivious(0.5),
    ///     2,
    ///     20,
    ///     7,
    /// )
    /// .unwrap();
    /// let reports = entry
    ///     .estimate_batch_named(
    ///         &[
    ///             ("max_oblivious", "max_dominance"),
    ///             ("max_oblivious", "distinct_count"),
    ///             ("max_oblivious_uniform", "max_dominance"),
    ///         ],
    ///         Some(1),
    ///     )
    ///     .unwrap();
    /// assert_eq!(reports.len(), 3);
    /// assert_eq!(
    ///     reports[1],
    ///     entry.estimate_named("max_oblivious", "distinct_count", Some(1)).unwrap()
    /// );
    /// ```
    ///
    /// # Errors
    /// Name-resolution failures as [`estimate_named`](Self::estimate_named);
    /// every query is resolved before any estimation runs, so a failure
    /// means no work was done.
    pub fn estimate_batch_named(
        &self,
        queries: &[(&str, &str)],
        threads: Option<usize>,
    ) -> Result<Vec<PipelineReport>, CatalogError> {
        self.estimate_batch_named_observed(
            queries,
            threads,
            crate::obs::PipelineObserver::disabled(),
        )
    }

    /// [`estimate_batch_named`](Self::estimate_batch_named) under an
    /// observation hook.  Reports are bit-identical to the unobserved call.
    ///
    /// # Errors
    /// As [`estimate_batch_named`](Self::estimate_batch_named).
    pub fn estimate_batch_named_observed(
        &self,
        queries: &[(&str, &str)],
        threads: Option<usize>,
        observer: crate::obs::PipelineObserver,
    ) -> Result<Vec<PipelineReport>, CatalogError> {
        let mut resolved = Vec::with_capacity(queries.len());
        for (suite, statistic) in queries {
            let estimators = self.suite(suite)?;
            let statistic =
                Statistic::by_name(statistic).ok_or_else(|| CatalogError::UnknownStatistic {
                    name: (*statistic).to_string(),
                })?;
            resolved.push((estimators, statistic));
        }
        if resolved.is_empty() {
            return Ok(Vec::new());
        }
        let plan = TrialPlan::new(self.trials, self.base_salt, threads).with_observer(observer);
        let combos: Vec<_> = resolved.iter().map(|(set, stat)| (set, stat)).collect();
        let samples = &self.samples;
        // Borrow the finalized samples: the serving hot path must not
        // deep-copy every trial's entries per query.
        Ok(estimate(
            &self.dataset,
            self.scheme,
            &combos,
            &plan,
            |_worker| move |t, _seeds: &SeedAssignment| samples[t as usize].as_slice(),
        )?)
    }

    /// Persists the entry as one versioned, checksummed snapshot file.
    ///
    /// # Errors
    /// Propagates encoding and file I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        pie_store::write_snapshot_file(path, self)
    }

    /// Loads an entry previously written by [`save`](Self::save) —
    /// bit-identical to the saved one.
    ///
    /// # Errors
    /// Propagates snapshot validation and decoding failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        pie_store::read_snapshot_file(path)
    }
}

impl Encode for CatalogEntry {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), StoreError> {
        self.dataset.as_ref().encode(w)?;
        self.scheme.encode(w)?;
        (self.shards as u64).encode(w)?;
        self.trials.encode(w)?;
        self.base_salt.encode(w)?;
        self.samples.encode(w)
    }
}

impl Decode for CatalogEntry {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, StoreError> {
        let dataset = Arc::new(Dataset::decode(r)?);
        let scheme = Scheme::decode(r)?;
        let shards = usize::decode(r)?;
        let trials = u64::decode(r)?;
        let base_salt = u64::decode(r)?;
        let samples: Vec<Vec<InstanceSample>> = Vec::decode(r)?;
        if shards == 0 {
            return Err(StoreError::InvalidValue {
                what: "CatalogEntry shard count must be at least 1",
            });
        }
        if trials == 0 {
            return Err(StoreError::InvalidValue {
                what: "CatalogEntry trial count must be at least 1",
            });
        }
        if samples.len() as u64 != trials {
            return Err(StoreError::InvalidValue {
                what: "CatalogEntry must hold exactly one sample set per trial",
            });
        }
        let r_instances = dataset.num_instances();
        if samples.iter().any(|trial| trial.len() != r_instances) {
            return Err(StoreError::InvalidValue {
                what: "CatalogEntry trial must hold exactly one sample per instance",
            });
        }
        Ok(Self::from_parts(
            dataset, scheme, shards, trials, base_salt, samples,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pipeline, StreamPipeline};
    use pie_datagen::{
        generate_set_pair, generate_two_hours, paper_example, SetPairConfig, TrafficConfig,
    };

    #[test]
    fn estimates_are_bit_identical_to_both_pipelines() {
        let data = Arc::new(generate_two_hours(&TrafficConfig::small(2)));
        let entry = CatalogEntry::build(Arc::clone(&data), Scheme::pps(150.0), 3, 15, 4).unwrap();
        let expected = Pipeline::new()
            .dataset(Arc::clone(&data))
            .scheme(Scheme::pps(150.0))
            .estimators(pie_core::suite::max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(15)
            .base_salt(4)
            .run()
            .unwrap();
        let got = entry
            .estimate_named("max_weighted", "max_dominance", Some(1))
            .unwrap();
        assert_eq!(got, expected);
        let streamed = StreamPipeline::new()
            .dataset(Arc::clone(&data))
            .scheme(Scheme::pps(150.0))
            .shards(3)
            .estimators(pie_core::suite::max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(15)
            .base_salt(4)
            .run()
            .unwrap();
        assert_eq!(got, streamed);
    }

    #[test]
    fn save_load_roundtrips_and_still_estimates_identically() {
        let data = Arc::new(paper_example().take_instances(2));
        let entry =
            CatalogEntry::build(Arc::clone(&data), Scheme::oblivious(0.5), 2, 30, 9).unwrap();
        let dir = std::env::temp_dir().join(format!("pie-catalog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.pies");
        entry.save(&path).unwrap();
        let loaded = CatalogEntry::load(&path).unwrap();
        assert_eq!(loaded, entry);
        assert_eq!(
            loaded
                .estimate_named("max_oblivious", "max_dominance", Some(1))
                .unwrap(),
            entry
                .estimate_named("max_oblivious", "max_dominance", None)
                .unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn suite_resolution_failures_are_typed() {
        let data = Arc::new(paper_example()); // 3 instances, non-binary
        let entry = CatalogEntry::build(data, Scheme::oblivious(0.5), 1, 5, 0).unwrap();
        assert!(matches!(
            entry.suite("nope").unwrap_err(),
            CatalogError::UnknownSuite { .. }
        ));
        assert!(matches!(
            entry.suite("max_weighted").unwrap_err(),
            CatalogError::RegimeMismatch { .. }
        ));
        // Pairwise suite over three instances.
        assert!(matches!(
            entry.suite("max_oblivious").unwrap_err(),
            CatalogError::ArityMismatch {
                required: 2,
                found: 3,
                ..
            }
        ));
        // OR over non-binary data, even at the right arity.
        let two = Arc::new(paper_example().take_instances(2));
        let entry2 = CatalogEntry::build(two, Scheme::oblivious(0.5), 1, 5, 0).unwrap();
        assert!(matches!(
            entry2.suite("or_oblivious").unwrap_err(),
            CatalogError::NonBinaryData { .. }
        ));
        assert!(matches!(
            entry2
                .estimate_named("max_oblivious", "nope", Some(1))
                .unwrap_err(),
            CatalogError::UnknownStatistic { .. }
        ));
        // The uniform suite accepts any r ≥ 2.
        assert!(entry.suite("max_oblivious_uniform").is_ok());
    }

    #[test]
    fn binary_data_unlocks_or_suites() {
        let data = Arc::new(generate_set_pair(&SetPairConfig::new(80, 0.5)));
        let entry =
            CatalogEntry::build(Arc::clone(&data), Scheme::oblivious(0.4), 2, 40, 1).unwrap();
        assert!(entry.is_binary());
        let report = entry
            .estimate_named("or_oblivious", "distinct_count", Some(1))
            .unwrap();
        let expected = Pipeline::new()
            .dataset(data)
            .scheme(Scheme::oblivious(0.4))
            .estimators(pie_core::suite::or_oblivious_suite(0.4, 0.4))
            .statistic(Statistic::distinct_count())
            .trials(40)
            .base_salt(1)
            .run()
            .unwrap();
        assert_eq!(report, expected);
    }

    #[test]
    fn zero_trials_are_rejected_at_build_and_decode() {
        let data = Arc::new(paper_example().take_instances(2));
        let err = CatalogEntry::build(Arc::clone(&data), Scheme::pps(5.0), 1, 0, 0).unwrap_err();
        assert_eq!(err, PipelineError::ZeroTrials);
        // A zero-trial entry on disk (zero trials, zero sample sets) is
        // refused rather than served.
        let mut empty = CatalogEntry::build(data, Scheme::pps(5.0), 1, 1, 0).unwrap();
        empty.trials = 0;
        empty.samples.clear();
        let bytes = pie_store::encode_to_vec(&empty).unwrap();
        assert!(matches!(
            pie_store::decode_from_slice::<CatalogEntry>(&bytes).unwrap_err(),
            StoreError::InvalidValue { .. }
        ));
    }

    #[test]
    fn decode_rejects_inconsistent_shapes() {
        let data = Arc::new(paper_example().take_instances(2));
        let entry = CatalogEntry::build(data, Scheme::oblivious(0.5), 1, 3, 0).unwrap();
        let bytes = pie_store::encode_to_vec(&entry).unwrap();
        let back: CatalogEntry = pie_store::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, entry);
        // Truncating one trial's samples must be caught by the shape check:
        // rebuild the frame with trials = 4 but only 3 sample sets.
        let mut tampered = entry.clone();
        tampered.trials = 4;
        let bytes = pie_store::encode_to_vec(&tampered).unwrap();
        assert!(matches!(
            pie_store::decode_from_slice::<CatalogEntry>(&bytes).unwrap_err(),
            StoreError::InvalidValue { .. }
        ));
    }
}
