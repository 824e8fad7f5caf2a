//! Property-based tests (proptest) for the core invariants:
//!
//! * unbiasedness of every estimator, verified by exact enumeration
//!   (weight-oblivious) or quadrature (PPS with known seeds);
//! * nonnegativity of the L/U estimators on arbitrary outcomes;
//! * dominance of the L/U estimators over Horvitz–Thompson;
//! * structural invariants of the sampling substrate (rank monotonicity,
//!   bottom-k sample size, seed determinism);
//! * consistency of the batched estimation path: `estimate_batch` agrees
//!   with per-outcome `estimate` for every registered estimator, and the
//!   borrowed `OutcomeView` accessors agree with the deprecated
//!   `Vec`-returning shims;
//! * bit-identity of the struct-of-arrays lane path: `estimate_lanes` over
//!   filled lanes agrees bit for bit with `estimate` and `estimate_batch`
//!   for every estimator of every suite in `SUITE_NAMES`, on adversarial
//!   batches (empty, single-outcome, chunk-boundary lengths, extreme and
//!   zero values, near-zero probabilities).

use proptest::prelude::*;

use partial_info_estimators::analysis::{pps2_expectation, pps2_variance};
use partial_info_estimators::core::oblivious::{
    MaxHtOblivious, MaxL2, MaxLUniform, MaxU2, OrL2, OrU2,
};
use partial_info_estimators::core::suite::{
    max_oblivious_suite, max_weighted_suite, oblivious_suite_by_name, or_oblivious_suite,
    or_weighted_suite, suite_regime, weighted_suite_by_name, SuiteRegime, SUITE_NAMES,
};
use partial_info_estimators::core::variance::{
    exact_oblivious_expectation, exact_oblivious_variance,
};
use partial_info_estimators::core::weighted::{MaxHtPps, MaxLPps2};
use partial_info_estimators::core::Estimator;
use partial_info_estimators::sampling::{
    BottomKSampler, ExpRanks, Instance, ObliviousEntry, ObliviousLanes, ObliviousOutcome,
    OutcomeView, PpsRanks, RankFamily, SeedAssignment, WeightedEntry, WeightedLanes,
    WeightedOutcome,
};

/// Builds `n` weight-oblivious outcomes over two instances from flat random
/// draws.
fn oblivious_outcomes(
    n: usize,
    p1: f64,
    p2: f64,
    values: &[f64],
    sampled: &[bool],
) -> Vec<ObliviousOutcome> {
    (0..n)
        .map(|i| {
            ObliviousOutcome::new(vec![
                ObliviousEntry {
                    p: p1,
                    value: sampled[2 * i].then_some(values[2 * i]),
                },
                ObliviousEntry {
                    p: p2,
                    value: sampled[2 * i + 1].then_some(values[2 * i + 1]),
                },
            ])
        })
        .collect()
}

/// Builds `n` weighted (known-seed) outcomes over two instances; entry
/// `values[j]` is sampled exactly when the PPS rule `v ≥ u·τ*` fires.
fn weighted_outcomes(n: usize, tau: f64, values: &[f64], seeds: &[f64]) -> Vec<WeightedOutcome> {
    (0..n)
        .map(|i| {
            WeightedOutcome::new(
                (0..2)
                    .map(|j| {
                        let v = values[2 * i + j];
                        let u = seeds[2 * i + j];
                        WeightedEntry {
                            tau_star: tau,
                            seed: Some(u),
                            value: (v > 0.0 && v >= u * tau).then_some(v),
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

fn prob() -> impl Strategy<Value = f64> {
    0.05f64..1.0
}

fn value() -> impl Strategy<Value = f64> {
    0.0f64..100.0
}

/// Values stressing the lane kernels: exact zeros and magnitude extremes
/// alongside ordinary draws.
fn adversarial_value() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1e-300), Just(1e300), 0.0f64..100.0,]
}

/// Probabilities stressing the lane kernels: near-zero (inverse blow-up),
/// exactly one, and ordinary draws.
fn adversarial_prob() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1e-9), Just(1.0), 0.05f64..1.0]
}

/// Batch lengths around the fixed chunk width of the lane kernels: empty,
/// single, one below/at/above one and two chunks, and a long tail.
fn lane_len() -> impl Strategy<Value = usize> {
    proptest::sample::select(vec![0usize, 1, 7, 8, 9, 15, 16, 17, 33])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// max^(L) and max^(U) (r = 2) are unbiased for arbitrary values and
    /// probabilities, by exact enumeration over the 4 outcomes.
    #[test]
    fn max_l2_and_u2_unbiased(v1 in value(), v2 in value(), p1 in prob(), p2 in prob()) {
        let truth = v1.max(v2);
        let l = exact_oblivious_expectation(&MaxL2::new(p1, p2), &[v1, v2], &[p1, p2]);
        let u = exact_oblivious_expectation(&MaxU2::new(p1, p2), &[v1, v2], &[p1, p2]);
        prop_assert!((l - truth).abs() <= 1e-8 * truth.max(1.0));
        prop_assert!((u - truth).abs() <= 1e-8 * truth.max(1.0));
    }

    /// Both Pareto-optimal estimators dominate HT on every input.
    #[test]
    fn l_and_u_dominate_ht(v1 in value(), v2 in value(), p1 in prob(), p2 in prob()) {
        let var_ht = exact_oblivious_variance(&MaxHtOblivious, &[v1, v2], &[p1, p2]);
        let var_l = exact_oblivious_variance(&MaxL2::new(p1, p2), &[v1, v2], &[p1, p2]);
        let var_u = exact_oblivious_variance(&MaxU2::new(p1, p2), &[v1, v2], &[p1, p2]);
        prop_assert!(var_l <= var_ht + 1e-6 + 1e-9 * var_ht);
        prop_assert!(var_u <= var_ht + 1e-6 + 1e-9 * var_ht);
    }

    /// The L/U estimates are nonnegative on every outcome.
    #[test]
    fn l_and_u_nonnegative(v1 in value(), v2 in value(), p1 in prob(), p2 in prob(),
                           s1 in any::<bool>(), s2 in any::<bool>()) {
        let o = ObliviousOutcome::new(vec![
            ObliviousEntry { p: p1, value: s1.then_some(v1) },
            ObliviousEntry { p: p2, value: s2.then_some(v2) },
        ]);
        prop_assert!(MaxL2::new(p1, p2).estimate(&o) >= -1e-9);
        prop_assert!(MaxU2::new(p1, p2).estimate(&o) >= -1e-9);
    }

    /// OR^(L) / OR^(U) are unbiased and nonnegative on binary data.
    #[test]
    fn or_estimators_unbiased(b1 in any::<bool>(), b2 in any::<bool>(), p1 in prob(), p2 in prob()) {
        let v = [f64::from(b1 as u8), f64::from(b2 as u8)];
        let truth = if b1 || b2 { 1.0 } else { 0.0 };
        let l = exact_oblivious_expectation(&OrL2::new(p1, p2), &v, &[p1, p2]);
        let u = exact_oblivious_expectation(&OrU2::new(p1, p2), &v, &[p1, p2]);
        prop_assert!((l - truth).abs() < 1e-9);
        prop_assert!((u - truth).abs() < 1e-9);
    }

    /// Algorithm 3 (uniform p, r instances) stays unbiased and keeps the
    /// Lemma 4.2 coefficient signs for r up to 5.
    #[test]
    fn max_l_uniform_unbiased_and_signed(
        r in 2usize..=5,
        p in 0.1f64..0.95,
        raw in proptest::collection::vec(0.0f64..50.0, 5),
    ) {
        let v = &raw[..r];
        let est = MaxLUniform::new(r, p);
        let probs = vec![p; r];
        let truth = v.iter().copied().fold(0.0, f64::max);
        let mean = exact_oblivious_expectation(&est, v, &probs);
        prop_assert!((mean - truth).abs() <= 1e-7 * truth.max(1.0), "bias {mean} vs {truth}");
        let alpha = est.coefficients();
        prop_assert!(alpha[0] > 0.0);
        for &a in &alpha[1..] {
            prop_assert!(a <= 1e-12);
        }
    }

    /// The weighted known-seed max^(L) (Figure 3) is unbiased for arbitrary
    /// values and (possibly asymmetric) thresholds, by quadrature.
    #[test]
    fn max_l_pps2_unbiased(
        v1 in 0.5f64..20.0,
        v2 in 0.0f64..20.0,
        t1 in 5.0f64..30.0,
        t2 in 5.0f64..30.0,
    ) {
        let truth = v1.max(v2);
        let mean = pps2_expectation(&MaxLPps2, [v1, v2], [t1, t2]);
        prop_assert!((mean - truth).abs() <= 3e-3 * truth, "bias {mean} vs {truth}");
    }

    /// With equal thresholds — the setting of Section 5.2 and Figure 4 — the
    /// weighted known-seed max^(L) dominates max^(HT).  (With very asymmetric
    /// thresholds, one zero entry and max(v) above the smaller threshold, the
    /// Figure 3 estimator's logarithmic branch can exceed HT's variance; see
    /// EXPERIMENTS.md.)
    #[test]
    fn max_l_pps2_dominates_ht_for_equal_thresholds(
        v1 in 0.5f64..20.0,
        v2 in 0.0f64..20.0,
        tau in 5.0f64..30.0,
    ) {
        let var_l = pps2_variance(&MaxLPps2, [v1, v2], [tau, tau]);
        let var_ht = pps2_variance(&MaxHtPps, [v1, v2], [tau, tau]);
        prop_assert!(var_l <= var_ht + 1e-6 + 1e-3 * var_ht,
            "var_l {var_l} should not exceed var_ht {var_ht}");
    }

    /// Rank families: ranks decrease with the value for a fixed seed
    /// (the consistency property behind coordinated sampling).
    #[test]
    fn ranks_monotone_in_value(u in 0.01f64..0.99, w1 in 0.1f64..100.0, delta in 0.1f64..50.0) {
        let w2 = w1 + delta;
        prop_assert!(PpsRanks.rank_from_seed(u, w2) <= PpsRanks.rank_from_seed(u, w1));
        prop_assert!(ExpRanks.rank_from_seed(u, w2) <= ExpRanks.rank_from_seed(u, w1));
    }

    /// Bottom-k samples have exactly min(k, #positive keys) entries and their
    /// threshold upper-bounds every sampled rank.
    #[test]
    fn bottom_k_size_and_threshold(n in 1usize..200, k in 1usize..50, salt in 0u64..1000) {
        let inst = Instance::from_pairs((0..n as u64).map(|i| (i, 1.0 + (i % 7) as f64)));
        let seeds = SeedAssignment::independent_known(salt);
        let sampler = BottomKSampler::new(PpsRanks, k);
        let s = sampler.sample(&inst, &seeds, 0);
        prop_assert_eq!(s.len(), k.min(n));
        for (key, value) in s.iter() {
            let rank = sampler.rank_of(key, value, &seeds, 0);
            prop_assert!(rank <= s.threshold);
        }
    }

    /// `estimate_batch` agrees with per-outcome `estimate` for every
    /// registered weight-oblivious estimator, on batches of random outcomes.
    #[test]
    fn estimate_batch_matches_per_outcome_oblivious(
        p1 in prob(), p2 in prob(),
        values in proptest::collection::vec(0.0f64..50.0, 16),
        sampled in proptest::collection::vec(any::<bool>(), 16),
        binary in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let n = 8;
        // max estimators on arbitrary values, OR estimators on binary data.
        let max_batch = oblivious_outcomes(n, p1, p2, &values, &sampled);
        let bits: Vec<f64> = binary.iter().map(|&b| f64::from(b as u8)).collect();
        let or_batch = oblivious_outcomes(n, p1, p2, &bits, &sampled);
        for (registry, outcomes) in [
            (max_oblivious_suite(p1, p2), &max_batch),
            (or_oblivious_suite(p1, p2), &or_batch),
        ] {
            let mut out = vec![f64::NAN; outcomes.len()];
            for (name, estimator) in registry.iter() {
                estimator.estimate_batch(outcomes, &mut out);
                for (outcome, &batched) in outcomes.iter().zip(&out) {
                    let single = estimator.estimate(outcome);
                    prop_assert!(
                        batched == single || (batched.is_nan() && single.is_nan()),
                        "{name}: batched {batched} != single {single}"
                    );
                }
            }
        }
    }

    /// `estimate_batch` agrees with per-outcome `estimate` for every
    /// registered weighted (known-seed) estimator.
    #[test]
    fn estimate_batch_matches_per_outcome_weighted(
        tau in 5.0f64..30.0,
        values in proptest::collection::vec(0.0f64..40.0, 16),
        seeds in proptest::collection::vec(0.001f64..0.999, 16),
        binary in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let n = 8;
        let max_batch = weighted_outcomes(n, tau, &values, &seeds);
        let bits: Vec<f64> = binary.iter().map(|&b| f64::from(b as u8)).collect();
        let or_batch = weighted_outcomes(n, 0.9, &bits, &seeds);
        for (registry, outcomes) in [
            (max_weighted_suite(), &max_batch),
            (or_weighted_suite(), &or_batch),
        ] {
            let mut out = vec![f64::NAN; outcomes.len()];
            for (name, estimator) in registry.iter() {
                estimator.estimate_batch(outcomes, &mut out);
                for (outcome, &batched) in outcomes.iter().zip(&out) {
                    let single = estimator.estimate(outcome);
                    prop_assert!(
                        batched == single || (batched.is_nan() && single.is_nan()),
                        "{name}: batched {batched} != single {single}"
                    );
                }
            }
        }
    }

    /// The borrowed `OutcomeView` accessors are internally consistent with
    /// the entry slices on random outcomes of both regimes.
    #[test]
    fn outcome_view_accessors_are_consistent(
        p1 in prob(), p2 in prob(),
        tau in 5.0f64..30.0,
        values in proptest::collection::vec(0.0f64..50.0, 16),
        sampled in proptest::collection::vec(any::<bool>(), 16),
        seeds in proptest::collection::vec(0.001f64..0.999, 16),
    ) {
        for o in oblivious_outcomes(8, p1, p2, &values, &sampled) {
            prop_assert_eq!(o.num_sampled(), o.sampled_indices_iter().count());
            prop_assert_eq!(o.max_sampled(), o.sampled_values().fold(None, |a: Option<f64>, v| Some(a.map_or(v, |x| x.max(v)))));
            prop_assert_eq!(o.values().collect::<Vec<_>>(), o.entries().iter().map(|e| e.value).collect::<Vec<_>>());
            prop_assert_eq!(o.probabilities_iter().collect::<Vec<_>>(), o.entries().iter().map(|e| e.p).collect::<Vec<_>>());
        }
        for w in weighted_outcomes(8, tau, &values, &seeds) {
            prop_assert_eq!(w.num_sampled(), w.sampled_indices_iter().count());
            prop_assert_eq!(w.values().collect::<Vec<_>>(), w.entries().iter().map(|e| e.value).collect::<Vec<_>>());
        }
    }

    /// The struct-of-arrays lane path is bit-identical to both scalar paths
    /// for every estimator of every *oblivious* suite in `SUITE_NAMES`, on
    /// adversarial batches: chunk-boundary lengths, extreme magnitudes,
    /// near-zero probabilities, and arbitrary presence patterns.
    #[test]
    fn lane_kernels_bit_identical_for_every_oblivious_suite(
        len in lane_len(),
        r_uniform in 2usize..=4,
        p in adversarial_prob(),
        values in proptest::collection::vec(adversarial_value(), 4 * 33),
        sampled in proptest::collection::vec(any::<bool>(), 4 * 33),
    ) {
        for name in SUITE_NAMES {
            if suite_regime(name) != Some(SuiteRegime::Oblivious) {
                continue;
            }
            let r = if name == "max_oblivious_uniform" { r_uniform } else { 2 };
            let binary = name.starts_with("or");
            let outcomes: Vec<ObliviousOutcome> = (0..len)
                .map(|i| {
                    ObliviousOutcome::new(
                        (0..r)
                            .map(|j| {
                                let k = i * r + j;
                                let v = if binary {
                                    f64::from(u8::from(values[k] > 1.0))
                                } else {
                                    values[k]
                                };
                                ObliviousEntry { p, value: sampled[k].then_some(v) }
                            })
                            .collect(),
                    )
                })
                .collect();
            let registry = oblivious_suite_by_name(name, r, p).unwrap();
            let mut lanes = ObliviousLanes::new();
            lanes.fill_from_outcomes(&outcomes);
            let mut by_lane = vec![f64::NAN; len];
            let mut by_batch = vec![f64::NAN; len];
            for (ename, estimator) in registry.iter() {
                estimator.estimate_lanes(&lanes, &mut by_lane);
                estimator.estimate_batch(&outcomes, &mut by_batch);
                for (k, o) in outcomes.iter().enumerate() {
                    let single = estimator.estimate(o);
                    prop_assert_eq!(
                        by_lane[k].to_bits(), single.to_bits(),
                        "{}::{} lanes vs scalar at k={} len={}", name, ename, k, len
                    );
                    prop_assert_eq!(
                        by_lane[k].to_bits(), by_batch[k].to_bits(),
                        "{}::{} lanes vs batch at k={} len={}", name, ename, k, len
                    );
                }
            }
        }
    }

    /// Same bit-identity contract for every *weighted* suite in
    /// `SUITE_NAMES`: PPS-consistent outcomes (sampled iff `v ≥ u·τ*`, all
    /// seeds visible) over extreme values, plus binary data for the OR suite.
    #[test]
    fn lane_kernels_bit_identical_for_every_weighted_suite(
        len in lane_len(),
        tau in prop_oneof![Just(0.9), 5.0f64..30.0, Just(1e6)],
        values in proptest::collection::vec(adversarial_value(), 2 * 33),
        seeds in proptest::collection::vec(0.001f64..0.999, 2 * 33),
        bits in proptest::collection::vec(any::<bool>(), 2 * 33),
    ) {
        let binary: Vec<f64> = bits.iter().map(|&b| f64::from(u8::from(b))).collect();
        for name in SUITE_NAMES {
            if suite_regime(name) != Some(SuiteRegime::Weighted) {
                continue;
            }
            let outcomes = if name == "or_weighted" {
                weighted_outcomes(len, tau, &binary, &seeds)
            } else {
                weighted_outcomes(len, tau, &values, &seeds)
            };
            let registry = weighted_suite_by_name(name).unwrap();
            let mut lanes = WeightedLanes::new();
            lanes.fill_from_outcomes(&outcomes);
            let mut by_lane = vec![f64::NAN; len];
            let mut by_batch = vec![f64::NAN; len];
            for (ename, estimator) in registry.iter() {
                estimator.estimate_lanes(&lanes, &mut by_lane);
                estimator.estimate_batch(&outcomes, &mut by_batch);
                for (k, o) in outcomes.iter().enumerate() {
                    let single = estimator.estimate(o);
                    prop_assert_eq!(
                        by_lane[k].to_bits(), single.to_bits(),
                        "{}::{} lanes vs scalar at k={} len={}", name, ename, k, len
                    );
                    prop_assert_eq!(
                        by_lane[k].to_bits(), by_batch[k].to_bits(),
                        "{}::{} lanes vs batch at k={} len={}", name, ename, k, len
                    );
                }
            }
        }
    }

    /// Seed assignments are deterministic and respect coordination.
    #[test]
    fn seed_assignment_properties(salt in 0u64..10_000, key in 0u64..1_000_000, inst in 0u64..8) {
        let shared = SeedAssignment::shared(salt);
        let indep = SeedAssignment::independent_known(salt);
        prop_assert_eq!(shared.seed(key, inst), shared.seed(key, inst + 1));
        prop_assert_eq!(indep.seed(key, inst), indep.seed(key, inst));
        let u = indep.seed(key, inst);
        prop_assert!(u > 0.0 && u < 1.0);
    }
}
