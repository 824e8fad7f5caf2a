//! Monte-Carlo evaluation of estimators, batch-first.
//!
//! For the sampling regimes whose outcome space is continuous (PPS with known
//! seeds) or whose aggregates span many keys, variance is measured by
//! repeated simulation.  Each evaluation reports bias, variance, and the
//! coefficient of variation of the estimator, together with the ground truth.
//!
//! Simulation is organized around *batches of outcomes*: trials are
//! materialized into a reusable buffer of outcomes (entry vectors are
//! rewritten in place, so the hot loop performs no per-outcome allocation),
//! and estimators consume each batch through
//! [`Estimator::estimate_batch`].  The `*_family` evaluators amortize
//! outcome generation further by running a whole [`EstimatorRegistry`] over
//! each batch in one pass — the shape benches and figure harnesses want.
//!
//! All evaluators execute on the parallel trial engine
//! ([`crate::trial::TrialRunner`]): the trial range is partitioned into
//! chunks of [`SIMULATION_BATCH`] trials, each chunk draws its outcomes from
//! an RNG seeded by `(seed, chunk index)`, and per-chunk statistics are
//! merged in chunk order.  Results therefore depend only on `(inputs,
//! trials, seed)` — never on the worker-thread count, which follows
//! `PIE_THREADS` / the machine's available parallelism.

use pie_core::{Estimator, EstimatorRegistry};
use pie_datagen::{Dataset, Xoshiro256pp};
use pie_sampling::{
    hash, sample_all, Key, ObliviousEntry, ObliviousOutcome, PpsPoissonSampler, SeedAssignment,
    WeightedEntry, WeightedOutcome,
};

use crate::stats::RunningStats;
use crate::trial::TrialRunner;

/// Number of simulated outcomes materialized per batch by the Monte-Carlo
/// evaluators — also their trial-engine reduction chunk width, so each chunk
/// is generated as exactly one batch.  Large enough to amortize per-batch
/// dispatch, small enough to stay cache-resident.
pub const SIMULATION_BATCH: usize = 256;

/// A dynamically dispatched, thread-shareable estimator reference — the lane
/// unit of the batched Monte-Carlo evaluators.
type DynLane<'a, O> = &'a (dyn Estimator<O> + Send + Sync);

/// The result of evaluating an estimator against a known ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The true value of the estimated quantity.
    pub truth: f64,
    /// Mean of the estimates.
    pub mean: f64,
    /// Variance of the estimates (population variance over the trials).
    pub variance: f64,
    /// `|mean − truth| / truth` (absolute bias when the truth is 0).
    pub relative_bias: f64,
    /// Number of trials.
    pub trials: u64,
}

impl Evaluation {
    /// Summarizes accumulated trial statistics against a known ground truth.
    #[must_use]
    pub fn from_stats(stats: &RunningStats, truth: f64) -> Self {
        Self {
            truth,
            mean: stats.mean(),
            variance: stats.variance(),
            relative_bias: crate::stats::relative_error(stats.mean(), truth),
            trials: stats.count(),
        }
    }

    /// The normalized variance `Var / truth²` (∞ if the truth is 0 and the
    /// variance is positive), the quantity plotted in Figure 7.
    #[must_use]
    pub fn normalized_variance(&self) -> f64 {
        if self.truth == 0.0 {
            if self.variance == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.variance / (self.truth * self.truth)
        }
    }

    /// The coefficient of variation of the estimator around the truth.
    #[must_use]
    pub fn cv(&self) -> f64 {
        self.normalized_variance().sqrt()
    }
}

impl pie_store::Encode for Evaluation {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), pie_store::StoreError> {
        self.truth.encode(w)?;
        self.mean.encode(w)?;
        self.variance.encode(w)?;
        self.relative_bias.encode(w)?;
        self.trials.encode(w)
    }
}

impl pie_store::Decode for Evaluation {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, pie_store::StoreError> {
        Ok(Self {
            truth: f64::decode(r)?,
            mean: f64::decode(r)?,
            variance: f64::decode(r)?,
            relative_bias: f64::decode(r)?,
            trials: u64::decode(r)?,
        })
    }
}

/// The evaluators' trial engine: thread count from the environment, chunk
/// width pinned to [`SIMULATION_BATCH`] so every chunk is one batch.
fn evaluator_runner() -> TrialRunner {
    TrialRunner::new().chunk_trials(SIMULATION_BATCH as u64)
}

/// The RNG seed of one reduction chunk: a pure function of the evaluation
/// seed and the chunk index, so chunk outcomes are reproducible whichever
/// worker generates them.
fn chunk_rng(seed: u64, chunk_start: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(hash::combine(seed, chunk_start / SIMULATION_BATCH as u64))
}

/// Runs every estimator lane over `trials` simulated weight-oblivious
/// outcomes of one key's value vector, one reduction chunk per outcome
/// batch, returning the merged per-lane statistics.
///
/// The batch buffer is allocated once per worker thread; each trial rewrites
/// an outcome's entries in place, so the per-trial hot loop is
/// allocation-free.
fn oblivious_lanes(
    estimators: &[DynLane<'_, ObliviousOutcome>],
    values: &[f64],
    probs: &[f64],
    trials: u64,
    seed: u64,
) -> Vec<RunningStats> {
    assert_eq!(
        values.len(),
        probs.len(),
        "values and probabilities must align"
    );
    let template: Vec<ObliviousEntry> = probs
        .iter()
        .map(|&p| ObliviousEntry { p, value: None })
        .collect();
    let batch = SIMULATION_BATCH.min(trials.max(1) as usize);
    evaluator_runner().run_chunks(
        trials,
        estimators.len(),
        |_worker| {
            let buffer: Vec<ObliviousOutcome> = (0..batch)
                .map(|_| ObliviousOutcome::new(template.clone()))
                .collect();
            (buffer, vec![0.0; batch])
        },
        |(buffer, out), range, stats| {
            let mut rng = chunk_rng(seed, range.start);
            let n = (range.end - range.start) as usize;
            for outcome in &mut buffer[..n] {
                for (entry, &v) in outcome.entries.iter_mut().zip(values) {
                    entry.value = (rng.gen::<f64>() < entry.p).then_some(v);
                }
            }
            for (estimator, stat) in estimators.iter().zip(stats) {
                estimator.estimate_batch(&buffer[..n], &mut out[..n]);
                stat.extend(out[..n].iter().copied());
            }
        },
    )
}

/// The weighted (PPS, known seeds) counterpart of [`oblivious_lanes`].
fn pps_lanes(
    estimators: &[DynLane<'_, WeightedOutcome>],
    values: &[f64],
    tau_stars: &[f64],
    trials: u64,
    seed: u64,
) -> Vec<RunningStats> {
    assert_eq!(
        values.len(),
        tau_stars.len(),
        "values and thresholds must align"
    );
    let template: Vec<WeightedEntry> = tau_stars
        .iter()
        .map(|&tau| WeightedEntry {
            tau_star: tau,
            seed: Some(0.5),
            value: None,
        })
        .collect();
    let batch = SIMULATION_BATCH.min(trials.max(1) as usize);
    evaluator_runner().run_chunks(
        trials,
        estimators.len(),
        |_worker| {
            let buffer: Vec<WeightedOutcome> = (0..batch)
                .map(|_| WeightedOutcome::new(template.clone()))
                .collect();
            (buffer, vec![0.0; batch])
        },
        |(buffer, out), range, stats| {
            let mut rng = chunk_rng(seed, range.start);
            let n = (range.end - range.start) as usize;
            for outcome in &mut buffer[..n] {
                for (entry, &v) in outcome.entries.iter_mut().zip(values) {
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    entry.seed = Some(u);
                    entry.value = (v > 0.0 && v >= u * entry.tau_star).then_some(v);
                }
            }
            for (estimator, stat) in estimators.iter().zip(stats) {
                estimator.estimate_batch(&buffer[..n], &mut out[..n]);
                stat.extend(out[..n].iter().copied());
            }
        },
    )
}

/// Evaluates an estimator of `f(v)` under weight-oblivious Poisson sampling of
/// a single key's value vector, by Monte-Carlo simulation through the batched
/// hot path ([`Estimator::estimate_batch`]).
///
/// (The exact enumeration in `pie_core::variance` is preferable for small `r`;
/// this exists for cross-checking and for large `r`.)
pub fn evaluate_oblivious<E, F>(
    estimator: &E,
    f: F,
    values: &[f64],
    probs: &[f64],
    trials: u64,
    seed: u64,
) -> Evaluation
where
    E: Estimator<ObliviousOutcome> + Send + Sync,
    F: Fn(&[f64]) -> f64,
{
    let lanes = oblivious_lanes(&[estimator], values, probs, trials, seed);
    Evaluation::from_stats(&lanes[0], f(values))
}

/// Evaluates a whole registry of weight-oblivious estimators against the same
/// simulated outcomes, generating each outcome batch once and running every
/// estimator over it through [`Estimator::estimate_batch`].
///
/// Each registered estimator is one lane of the shared trial run, so its
/// evaluation is bit-identical to an [`evaluate_oblivious`] call with the
/// same inputs (the workspace property tests assert this).
///
/// Returns `(name, evaluation)` pairs in registration order.
pub fn evaluate_oblivious_family<F>(
    registry: &EstimatorRegistry<ObliviousOutcome>,
    f: F,
    values: &[f64],
    probs: &[f64],
    trials: u64,
    seed: u64,
) -> Vec<(String, Evaluation)>
where
    F: Fn(&[f64]) -> f64,
{
    let estimators: Vec<DynLane<'_, ObliviousOutcome>> = registry.iter().map(|(_, e)| e).collect();
    let lanes = oblivious_lanes(&estimators, values, probs, trials, seed);
    let truth = f(values);
    registry
        .names()
        .zip(&lanes)
        .map(|(name, stat)| (name.to_string(), Evaluation::from_stats(stat, truth)))
        .collect()
}

/// Evaluates an estimator of `f(v)` under weighted PPS Poisson sampling with
/// known seeds of a single key's value vector, by Monte-Carlo simulation
/// through the batched hot path.
pub fn evaluate_pps_known_seeds<E, F>(
    estimator: &E,
    f: F,
    values: &[f64],
    tau_stars: &[f64],
    trials: u64,
    seed: u64,
) -> Evaluation
where
    E: Estimator<WeightedOutcome> + Send + Sync,
    F: Fn(&[f64]) -> f64,
{
    let lanes = pps_lanes(&[estimator], values, tau_stars, trials, seed);
    Evaluation::from_stats(&lanes[0], f(values))
}

/// Evaluates a whole registry of weighted (known-seed) estimators against the
/// same simulated outcomes; the PPS counterpart of
/// [`evaluate_oblivious_family`].
pub fn evaluate_pps_family<F>(
    registry: &EstimatorRegistry<WeightedOutcome>,
    f: F,
    values: &[f64],
    tau_stars: &[f64],
    trials: u64,
    seed: u64,
) -> Vec<(String, Evaluation)>
where
    F: Fn(&[f64]) -> f64,
{
    let estimators: Vec<DynLane<'_, WeightedOutcome>> = registry.iter().map(|(_, e)| e).collect();
    let lanes = pps_lanes(&estimators, values, tau_stars, trials, seed);
    let truth = f(values);
    registry
        .names()
        .zip(&lanes)
        .map(|(name, stat)| (name.to_string(), Evaluation::from_stats(stat, truth)))
        .collect()
}

/// Evaluates a *sum-aggregate* estimator over PPS samples of a whole dataset,
/// repeating the sampling `trials` times with different hash salts.
///
/// `aggregate` receives the per-instance samples and the seed assignment and
/// returns the aggregate estimate (e.g.
/// [`pie_core::aggregate::max_dominance_l`]); `truth` is the exact aggregate.
///
/// Trial `t` samples with salt `base_salt + t`, so the trial loop runs on
/// the parallel engine ([`crate::trial::TrialRunner`]) without changing any
/// trial's sample.
pub fn evaluate_aggregate_pps<A>(
    dataset: &Dataset,
    tau_star: f64,
    truth: f64,
    trials: u64,
    base_salt: u64,
    aggregate: A,
) -> Evaluation
where
    A: Fn(&[pie_sampling::InstanceSample], &SeedAssignment) -> f64 + Sync,
{
    let stats = TrialRunner::new().run(
        trials,
        1,
        |_worker| PpsPoissonSampler::new(tau_star),
        |sampler, t, stats| {
            let seeds = SeedAssignment::independent_known(base_salt.wrapping_add(t));
            let samples = sample_all(sampler, dataset.instances(), &seeds);
            stats[0].push(aggregate(&samples, &seeds));
        },
    );
    Evaluation::from_stats(&stats[0], truth)
}

/// Convenience selection predicate accepting every key.
#[must_use]
pub fn all_keys(_key: Key) -> bool {
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pie_core::aggregate::{max_dominance_ht, max_dominance_l, true_max_dominance};
    use pie_core::functions::maximum;
    use pie_core::oblivious::{MaxHtOblivious, MaxL2};
    use pie_core::variance::exact_oblivious_variance;
    use pie_core::weighted::MaxLPps2;
    use pie_datagen::{generate_two_hours, TrafficConfig};

    #[test]
    fn family_evaluation_matches_individual_evaluation() {
        let v = [4.0, 1.5];
        let p = [0.5, 0.3];
        let registry = pie_core::suite::max_oblivious_suite(0.5, 0.3);
        let family = evaluate_oblivious_family(&registry, maximum, &v, &p, 20_000, 5);
        assert_eq!(family.len(), registry.len());
        // The family evaluator replays the same seeded outcome stream as the
        // single-estimator evaluator, so the evaluations agree bit-for-bit.
        for (name, eval) in &family {
            let single =
                evaluate_oblivious(&registry.get(name).unwrap(), maximum, &v, &p, 20_000, 5);
            assert_eq!(eval.mean, single.mean, "{name} mean");
            assert_eq!(eval.variance, single.variance, "{name} variance");
        }
    }

    #[test]
    fn pps_family_evaluation_matches_individual_evaluation() {
        let v = [5.0, 2.0];
        let tau = [10.0, 10.0];
        let registry = pie_core::suite::max_weighted_suite();
        let family = evaluate_pps_family(&registry, maximum, &v, &tau, 20_000, 6);
        for (name, eval) in &family {
            let single = evaluate_pps_known_seeds(
                &registry.get(name).unwrap(),
                maximum,
                &v,
                &tau,
                20_000,
                6,
            );
            assert_eq!(eval.mean, single.mean, "{name} mean");
            assert_eq!(eval.variance, single.variance, "{name} variance");
        }
    }

    #[test]
    fn oblivious_monte_carlo_matches_exact_enumeration() {
        let v = [4.0, 1.5];
        let p = [0.5, 0.3];
        let est = MaxL2::new(0.5, 0.3);
        let eval = evaluate_oblivious(&est, maximum, &v, &p, 200_000, 1);
        assert!(eval.relative_bias < 0.02, "bias {}", eval.relative_bias);
        let exact = exact_oblivious_variance(&est, &v, &p);
        assert!(
            (eval.variance - exact).abs() / exact < 0.05,
            "MC variance {} vs exact {exact}",
            eval.variance
        );
    }

    #[test]
    fn pps_monte_carlo_is_unbiased_for_max_l() {
        let eval =
            evaluate_pps_known_seeds(&MaxLPps2, maximum, &[5.0, 2.0], &[10.0, 10.0], 300_000, 2);
        assert!(eval.relative_bias < 0.02, "bias {}", eval.relative_bias);
        assert!(eval.variance > 0.0);
        assert!(eval.cv() > 0.0);
    }

    #[test]
    fn aggregate_evaluation_reports_shrinking_cv() {
        // The aggregate CV should be far below the per-key CV (error averages out).
        let ds = generate_two_hours(&TrafficConfig::small(3));
        let truth = true_max_dominance(ds.instances(), |_| true);
        let eval = evaluate_aggregate_pps(&ds, 200.0, truth, 60, 7, |samples, seeds| {
            max_dominance_l(samples, seeds, all_keys)
        });
        assert!(eval.relative_bias < 0.05, "bias {}", eval.relative_bias);
        assert!(eval.cv() < 0.2, "cv {}", eval.cv());
    }

    #[test]
    fn aggregate_l_beats_ht_on_traffic_data() {
        let ds = generate_two_hours(&TrafficConfig::small(5));
        let truth = true_max_dominance(ds.instances(), |_| true);
        let l = evaluate_aggregate_pps(&ds, 300.0, truth, 80, 11, |s, seeds| {
            max_dominance_l(s, seeds, all_keys)
        });
        let ht = evaluate_aggregate_pps(&ds, 300.0, truth, 80, 11, |s, seeds| {
            max_dominance_ht(s, seeds, all_keys)
        });
        assert!(
            l.variance < ht.variance,
            "L variance {} should be below HT variance {}",
            l.variance,
            ht.variance
        );
    }

    #[test]
    fn evaluation_normalized_variance_and_cv() {
        let eval = Evaluation {
            truth: 10.0,
            mean: 10.0,
            variance: 4.0,
            relative_bias: 0.0,
            trials: 100,
        };
        assert!((eval.normalized_variance() - 0.04).abs() < 1e-12);
        assert!((eval.cv() - 0.2).abs() < 1e-12);
        let zero = Evaluation {
            truth: 0.0,
            mean: 0.0,
            variance: 0.0,
            relative_bias: 0.0,
            trials: 1,
        };
        assert_eq!(zero.normalized_variance(), 0.0);
    }

    #[test]
    fn ht_oblivious_evaluation_matches_formula() {
        let v = [3.0, 3.0];
        let p = [0.4, 0.4];
        let eval = evaluate_oblivious(&MaxHtOblivious, maximum, &v, &p, 300_000, 9);
        let expected = pie_core::variance::full_sample_ht_variance(3.0, &p);
        assert!(
            (eval.variance - expected).abs() / expected < 0.05,
            "variance {} vs {expected}",
            eval.variance
        );
    }
}
