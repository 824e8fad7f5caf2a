//! Quantile and range estimators (Sections 2.2 and 4).
//!
//! For several functions the best available unbiased nonnegative estimator is
//! the plain inverse-probability estimator that is positive only when *every*
//! entry is sampled:
//!
//! * the minimum and (for `r = 2`) the range over weight-oblivious samples —
//!   for these the full-sample HT estimator is in fact Pareto optimal, because
//!   any outcome with a missing entry is consistent with `f(v) = 0`;
//! * any ℓ-th order statistic over weight-oblivious samples (not optimal for
//!   `ℓ < r`, but well defined);
//! * the minimum over *weighted* samples, where `S = [r]` has positive
//!   probability whenever `min(v) > 0`.
//!
//! [`FullSampleHt`] packages the weight-oblivious version for any
//! [`MultiInstanceFn`]; [`MinHtWeighted`] is the weighted-sampling minimum
//! estimator.

use pie_sampling::{ObliviousOutcome, WeightedOutcome};

use crate::estimate::{DocumentedEstimator, Estimator, EstimatorProperties};
use crate::functions::MultiInstanceFn;

/// The full-sample inverse-probability estimator for an arbitrary
/// multi-instance function over weight-oblivious Poisson samples
/// (Section 2.2, Equation (10)).
///
/// `f̂ = f(v)/∏_i p_i` when every entry is sampled and 0 otherwise.  Unbiased,
/// nonnegative (for nonnegative `f`), monotone.  Pareto optimal for
/// `f = min` and for `f = range` with `r = 2`; *not* optimal for `max`, `OR`,
/// other quantiles, or the range with `r > 2` — that is precisely the gap the
/// paper's L/U estimators close.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullSampleHt {
    f: MultiInstanceFn,
}

impl FullSampleHt {
    /// Creates the estimator for the given function.
    #[must_use]
    pub fn new(f: MultiInstanceFn) -> Self {
        Self { f }
    }

    /// The estimated function.
    #[must_use]
    pub fn function(&self) -> MultiInstanceFn {
        self.f
    }

    /// Convenience constructor: minimum.
    #[must_use]
    pub fn min() -> Self {
        Self::new(MultiInstanceFn::Min)
    }

    /// Convenience constructor: range.
    #[must_use]
    pub fn range() -> Self {
        Self::new(MultiInstanceFn::Range)
    }

    /// Convenience constructor: ℓ-th largest entry.
    #[must_use]
    pub fn lth_largest(l: usize) -> Self {
        Self::new(MultiInstanceFn::LthLargest(l))
    }
}

impl Estimator<ObliviousOutcome> for FullSampleHt {
    fn estimate(&self, outcome: &ObliviousOutcome) -> f64 {
        if !outcome.all_sampled() {
            return 0.0;
        }
        let values: Vec<f64> = outcome.entries.iter().filter_map(|e| e.value).collect();
        self.f.eval(&values) / outcome.all_sampled_probability()
    }

    fn name(&self) -> &'static str {
        "full_sample_ht"
    }
}

impl DocumentedEstimator<ObliviousOutcome> for FullSampleHt {
    fn properties(&self) -> EstimatorProperties {
        EstimatorProperties::ht()
    }
}

/// The inverse-probability estimator for `min(v)` over weighted (PPS) Poisson
/// samples (Section 6, closing discussion).
///
/// The minimum is the one quantile that remains estimable even with *unknown*
/// seeds: the set `S* = {S = [r]}` (all entries sampled) has positive
/// probability whenever `min(v) > 0`, and on it `min(v)` and
/// `Pr[S = [r] | v] = ∏_i min(1, v_i/τ*_i)` are both computable from the
/// outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinHtWeighted;

impl Estimator<WeightedOutcome> for MinHtWeighted {
    fn estimate(&self, outcome: &WeightedOutcome) -> f64 {
        if outcome.num_sampled() != outcome.num_instances() {
            return 0.0;
        }
        let mut min_v = f64::INFINITY;
        let mut prob = 1.0;
        for e in &outcome.entries {
            let v = e.value.expect("all entries sampled");
            min_v = min_v.min(v);
            prob *= e.inclusion_probability(v);
        }
        if prob > 0.0 {
            min_v / prob
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "min_ht_weighted"
    }
}

impl DocumentedEstimator<WeightedOutcome> for MinHtWeighted {
    fn properties(&self) -> EstimatorProperties {
        // Pareto optimal: any nonnegative estimator must vanish on outcomes
        // missing an entry (they are consistent with min = 0).
        EstimatorProperties::pareto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pie_datagen::Xoshiro256pp;
    use pie_sampling::{ObliviousEntry, WeightedEntry};

    fn enumerate_outcomes(v: &[f64], p: &[f64]) -> Vec<(f64, ObliviousOutcome)> {
        let r = v.len();
        let mut out = Vec::with_capacity(1 << r);
        for mask in 0u32..(1 << r) {
            let mut prob = 1.0;
            let mut entries = Vec::with_capacity(r);
            for i in 0..r {
                let sampled = mask & (1 << i) != 0;
                prob *= if sampled { p[i] } else { 1.0 - p[i] };
                entries.push(ObliviousEntry {
                    p: p[i],
                    value: if sampled { Some(v[i]) } else { None },
                });
            }
            out.push((prob, ObliviousOutcome::new(entries)));
        }
        out
    }

    fn expectation<E: Estimator<ObliviousOutcome>>(est: &E, v: &[f64], p: &[f64]) -> f64 {
        enumerate_outcomes(v, p)
            .iter()
            .map(|(prob, o)| prob * est.estimate(o))
            .sum()
    }

    #[test]
    fn full_sample_ht_is_unbiased_for_min_range_lth() {
        let data = [[3.0, 1.0, 2.0], [0.0, 5.0, 1.0], [2.0, 2.0, 2.0]];
        let p = [0.5, 0.4, 0.8];
        for v in &data {
            for (f, truth) in [
                (MultiInstanceFn::Min, crate::functions::minimum(v)),
                (MultiInstanceFn::Range, crate::functions::range(v)),
                (
                    MultiInstanceFn::LthLargest(2),
                    crate::functions::lth_largest(v, 2),
                ),
                (MultiInstanceFn::Max, crate::functions::maximum(v)),
            ] {
                let e = expectation(&FullSampleHt::new(f), v, &p);
                assert!(
                    (e - truth).abs() < 1e-10,
                    "{f:?} biased on {v:?}: {e} vs {truth}"
                );
            }
        }
    }

    #[test]
    fn full_sample_ht_variance_matches_eq_10() {
        // VAR = f(v)² (1/∏p − 1).
        let v = [3.0, 1.0];
        let p = [0.5, 0.4];
        let est = FullSampleHt::range();
        let truth = 2.0;
        let outcomes = enumerate_outcomes(&v, &p);
        let mean: f64 = outcomes.iter().map(|(pr, o)| pr * est.estimate(o)).sum();
        let var: f64 = outcomes
            .iter()
            .map(|(pr, o)| pr * (est.estimate(o) - mean).powi(2))
            .sum();
        let expected = truth * truth * (1.0 / (0.5 * 0.4) - 1.0);
        assert!((var - expected).abs() < 1e-10);
    }

    #[test]
    fn full_sample_ht_zero_when_not_all_sampled() {
        let o = ObliviousOutcome::new(vec![
            ObliviousEntry {
                p: 0.5,
                value: Some(4.0),
            },
            ObliviousEntry {
                p: 0.5,
                value: None,
            },
        ]);
        assert_eq!(FullSampleHt::min().estimate(&o), 0.0);
        assert_eq!(FullSampleHt::range().estimate(&o), 0.0);
    }

    #[test]
    fn min_ht_weighted_is_unbiased_monte_carlo() {
        let tau = [10.0, 8.0];
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        for v in &[[5.0f64, 3.0], [2.0, 6.0], [1.0, 1.0]] {
            let truth = v[0].min(v[1]);
            let trials = 300_000;
            let mut sum = 0.0;
            for _ in 0..trials {
                let entries = (0..2)
                    .map(|i| {
                        let u: f64 = rng.gen_range(1e-12..1.0);
                        let sampled = v[i] >= u * tau[i];
                        WeightedEntry {
                            tau_star: tau[i],
                            seed: Some(u),
                            value: if sampled { Some(v[i]) } else { None },
                        }
                    })
                    .collect();
                sum += MinHtWeighted.estimate(&WeightedOutcome::new(entries));
            }
            let mean = sum / trials as f64;
            assert!(
                (mean - truth).abs() / truth < 0.03,
                "min HT biased on {v:?}: {mean} vs {truth}"
            );
        }
    }

    #[test]
    fn min_ht_weighted_zero_when_an_entry_is_missing() {
        let o = WeightedOutcome::new(vec![
            WeightedEntry {
                tau_star: 10.0,
                seed: Some(0.2),
                value: Some(5.0),
            },
            WeightedEntry {
                tau_star: 10.0,
                seed: Some(0.9),
                value: None,
            },
        ]);
        assert_eq!(MinHtWeighted.estimate(&o), 0.0);
    }

    #[test]
    fn constructors_pick_the_right_function() {
        assert_eq!(FullSampleHt::min().function(), MultiInstanceFn::Min);
        assert_eq!(FullSampleHt::range().function(), MultiInstanceFn::Range);
        assert_eq!(
            FullSampleHt::lth_largest(2).function(),
            MultiInstanceFn::LthLargest(2)
        );
    }

    #[test]
    fn documented_properties() {
        assert!(FullSampleHt::min().properties().unbiased);
        assert!(MinHtWeighted.properties().pareto_optimal);
    }
}
