//! Generated inputs: every dataset, salt and sketch configuration a
//! workload uses, sized for a full run or for `--smoke`, plus the
//! in-process `Pipeline` reference every served answer is compared with.

use std::sync::Arc;

use partial_info_estimators::core::suite::{oblivious_suite_by_name, weighted_suite_by_name};
use partial_info_estimators::datagen::{
    generate_set_pair, generate_two_hours, Dataset, SetPairConfig, TrafficConfig,
};
use partial_info_estimators::sampling::Instance;
use partial_info_estimators::{
    CatalogEntry, EstimatorSet, Pipeline, PipelineReport, Scheme, Statistic, StreamPipeline,
};

/// How big a run is.  `smoke` shrinks every input so that a debug build
/// finishes a workload in about a second; it changes no code path.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub smoke: bool,
    /// Set-ups per run, at least; `setup_s` is their median.
    pub setup_reps: usize,
    /// More set-ups run while the ones so far took less than this.
    pub setup_budget_s: f64,
    /// `serve_recompute` / `montecarlo_batch` traffic: keys per hour.
    pub paper_keys_per_hour: usize,
    pub recompute_trials: u64,
    /// Simulated users behind `serve_hot`'s zipf plan.
    pub hot_users: usize,
    pub hot_trials: u64,
    /// `publish_then_read`: sketch size, names, distinct sketch variants.
    pub mid_keys_per_hour: usize,
    pub mid_trials: u64,
    pub publish_names: usize,
    pub publish_variants: usize,
    pub reads_per_cycle: usize,
    pub mc_trials: u64,
    pub mc_set_size: usize,
    /// Requests the traced run replays step by step for the ledger.
    pub ledger_replays: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            smoke: false,
            setup_reps: 7,
            setup_budget_s: 3.5,
            paper_keys_per_hour: TrafficConfig::paper_scale().keys_per_hour,
            recompute_trials: 32,
            hot_users: 1_000_000,
            hot_trials: 8,
            mid_keys_per_hour: 8_000,
            mid_trials: 16,
            publish_names: 16,
            publish_variants: 24,
            reads_per_cycle: 60,
            mc_trials: 64,
            mc_set_size: 10_000,
            ledger_replays: 200,
        }
    }

    pub fn smoke() -> Self {
        Self {
            smoke: true,
            setup_reps: 1,
            setup_budget_s: 0.0,
            paper_keys_per_hour: 400,
            recompute_trials: 4,
            hot_users: 10_000,
            hot_trials: 4,
            mid_keys_per_hour: 200,
            mid_trials: 4,
            publish_names: 4,
            publish_variants: 6,
            reads_per_cycle: 8,
            mc_trials: 4,
            mc_set_size: 200,
            ledger_replays: 10,
        }
    }
}

/// PPS threshold for the traffic datasets: ~10x the mean flow count, so a
/// few percent of the keys are sampled, as in the paper's Section 8.2.
pub const TRAFFIC_TAU: f64 = 220.0;

/// Two-hour traffic with the paper's shape at `keys_per_hour` keys.
pub fn traffic(seed: u64, keys_per_hour: usize) -> Arc<Dataset> {
    let paper = TrafficConfig::paper_scale();
    Arc::new(generate_two_hours(&TrafficConfig {
        keys_per_hour,
        flows_per_hour: paper.flows_per_hour * keys_per_hour as f64 / paper.keys_per_hour as f64,
        seed,
        ..paper
    }))
}

/// Two binary sets of `set_size` keys each with Jaccard coefficient 0.5.
pub fn set_pair(set_size: usize) -> Arc<Dataset> {
    Arc::new(generate_set_pair(&SetPairConfig::new(set_size, 0.5)))
}

pub fn records(data: &Dataset) -> usize {
    data.instances().iter().map(Instance::len).sum()
}

/// Everything `CatalogEntry::build` and the matching `Pipeline` need.
#[derive(Debug, Clone)]
pub struct SketchSpec {
    pub data: Arc<Dataset>,
    pub scheme: Scheme,
    pub shards: usize,
    pub trials: u64,
    pub salt: u64,
}

impl SketchSpec {
    pub fn build(&self) -> CatalogEntry {
        CatalogEntry::build(
            Arc::clone(&self.data),
            self.scheme,
            self.shards,
            self.trials,
            self.salt,
        )
        .expect("benchmark schemes are in range")
    }

    pub fn records(&self) -> usize {
        records(&self.data)
    }

    fn estimators(&self, suite: &str) -> EstimatorSet {
        match self.scheme {
            Scheme::ObliviousPoisson { p } => {
                oblivious_suite_by_name(suite, self.data.num_instances(), p)
                    .expect("oblivious suite name")
                    .into()
            }
            Scheme::PpsPoisson { .. } => weighted_suite_by_name(suite)
                .expect("weighted suite name")
                .into(),
        }
    }

    /// A `Pipeline` over this configuration; `threads: None` leaves the
    /// trial engine at its default.
    pub fn pipeline(&self, suite: &str, statistic: &str, threads: Option<usize>) -> Pipeline {
        let pipeline = Pipeline::new()
            .dataset(Arc::clone(&self.data))
            .scheme(self.scheme)
            .estimators(self.estimators(suite))
            .statistic(Statistic::by_name(statistic).expect("statistic name"))
            .trials(self.trials)
            .base_salt(self.salt);
        match threads {
            Some(n) => pipeline.threads(n),
            None => pipeline,
        }
    }

    /// The sharded twin of [`pipeline`](Self::pipeline): per trial, ingest
    /// into `shards` sketches, merge, finalize.
    pub fn stream_pipeline(&self, suite: &str, statistic: &str, threads: usize) -> StreamPipeline {
        StreamPipeline::new()
            .dataset(Arc::clone(&self.data))
            .scheme(self.scheme)
            .shards(self.shards)
            .estimators(self.estimators(suite))
            .statistic(Statistic::by_name(statistic).expect("statistic name"))
            .trials(self.trials)
            .base_salt(self.salt)
            .threads(threads)
    }

    /// The in-process reference: fresh sampling through `Pipeline`, which
    /// every served, routed or batched report must equal bit for bit.
    pub fn reference(&self, suite: &str, statistic: &str) -> PipelineReport {
        self.pipeline(suite, statistic, None)
            .run()
            .expect("reference pipeline")
    }
}

/// Bit-for-bit equality: `==` on floats would let `-0.0` pass for `0.0`.
pub fn bit_identical(a: &PipelineReport, b: &PipelineReport) -> bool {
    a.statistic == b.statistic
        && a.truth.to_bits() == b.truth.to_bits()
        && a.trials == b.trials
        && a.estimators.len() == b.estimators.len()
        && a.estimators.iter().zip(&b.estimators).all(|(x, y)| {
            let (e, f) = (&x.evaluation, &y.evaluation);
            x.name == y.name
                && e.trials == f.trials
                && [e.truth, e.mean, e.variance, e.relative_bias]
                    .iter()
                    .zip([f.truth, f.mean, f.variance, f.relative_bias])
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(traffic(5, 300), traffic(5, 300));
        assert_ne!(traffic(5, 300), traffic(6, 300));
        assert_eq!(records(&traffic(5, 300)), 600);
    }

    #[test]
    fn entry_answers_equal_the_reference_bit_for_bit() {
        let spec = SketchSpec {
            data: traffic(1, 200),
            scheme: Scheme::pps(TRAFFIC_TAU),
            shards: 2,
            trials: 3,
            salt: 9,
        };
        let reference = spec.reference("max_weighted", "max_dominance");
        let served = spec
            .build()
            .estimate_named("max_weighted", "max_dominance", Some(1))
            .expect("estimate");
        assert!(bit_identical(&served, &reference));
        let mut other = reference.clone();
        other.estimators[0].evaluation.mean = -other.estimators[0].evaluation.mean;
        assert!(!bit_identical(&other, &reference));
        other = reference.clone();
        other.truth = -0.0;
        let mut zero = reference.clone();
        zero.truth = 0.0;
        assert!(!bit_identical(&other, &zero));
    }
}
