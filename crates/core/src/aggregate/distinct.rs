//! Distinct-count (set-union size) estimation over two independently sampled
//! sets with known seeds (Section 8.1).
//!
//! Two periodic logs each have a set `N_i` of active keys, summarized by
//! Poisson sampling with probability `p_i` and hash-derived seeds.  The number
//! of distinct keys `|(N_1 ∪ N_2) ∩ A|` satisfying a selection predicate `A`
//! is the sum aggregate of `OR` over keys, and is estimated by summing the
//! per-key OR estimators of Section 5.1.
//!
//! Per the paper, sampled keys are first classified by the information
//! available about their membership in the two sets:
//!
//! | class | condition                                     | what is known            |
//! |-------|-----------------------------------------------|--------------------------|
//! | `F1?` | `h ∈ S_1 ∧ u_2(h) > p_2`                      | in `N_1`; `N_2` unknown  |
//! | `F?1` | `h ∈ S_2 ∧ u_1(h) > p_1`                      | in `N_2`; `N_1` unknown  |
//! | `F11` | `h ∈ S_1 ∩ S_2`                               | in both                  |
//! | `F10` | `h ∈ S_1 ∧ u_2(h) < p_2` (and `h ∉ S_2`)      | in `N_1`, not in `N_2`   |
//! | `F01` | `h ∈ S_2 ∧ u_1(h) < p_1` (and `h ∉ S_1`)      | in `N_2`, not in `N_1`   |
//!
//! and then the HT estimator counts only keys whose membership in the union is
//! certain, while the `L` estimator also credits the partially-informative
//! classes.

use pie_sampling::{InstanceSample, Key, SampleScheme, SeedAssignment};

use crate::variance::{or_l_variance_change, or_l_variance_equal};

/// The information class of a sampled key (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyClass {
    /// In `N_1`; membership in `N_2` unknown.
    F1Unknown,
    /// In `N_2`; membership in `N_1` unknown.
    FUnknown1,
    /// In both sets.
    F11,
    /// In `N_1` and certainly not in `N_2`.
    F10,
    /// In `N_2` and certainly not in `N_1`.
    F01,
}

/// The effective sampling probability of a set sample: `min(1, 1/τ*)` for a
/// PPS sample of binary data, `p` for an explicitly weight-oblivious one, and
/// for bottom-k the rank-conditioned probability of a unit value (the
/// `(k+1)`-st rank serves as the effective threshold).
#[must_use]
pub fn effective_probability(sample: &InstanceSample) -> f64 {
    match sample.scheme {
        SampleScheme::ObliviousPoisson { p } => p,
        SampleScheme::PpsPoisson { tau_star } => (1.0 / tau_star).min(1.0),
        SampleScheme::BottomK { .. } => sample.inclusion_probability(1.0),
    }
}

/// Classifies a key given the two set samples and the seed assignment.
///
/// Returns `None` if the key is in neither sample (no information — such keys
/// contribute 0 to every nonnegative estimator).
#[must_use]
pub fn classify_key(
    key: Key,
    s1: &InstanceSample,
    s2: &InstanceSample,
    seeds: &SeedAssignment,
) -> Option<KeyClass> {
    let p1 = effective_probability(s1);
    let p2 = effective_probability(s2);
    let in1 = s1.contains(key);
    let in2 = s2.contains(key);
    match (in1, in2) {
        (true, true) => Some(KeyClass::F11),
        (true, false) => {
            let u2 = seeds
                .visible_seed(key, s2.instance_index)
                .expect("distinct-count L/HT estimators require known seeds");
            if u2 < p2 {
                Some(KeyClass::F10)
            } else {
                Some(KeyClass::F1Unknown)
            }
        }
        (false, true) => {
            let u1 = seeds
                .visible_seed(key, s1.instance_index)
                .expect("distinct-count L/HT estimators require known seeds");
            if u1 < p1 {
                Some(KeyClass::F01)
            } else {
                Some(KeyClass::FUnknown1)
            }
        }
        (false, false) => None,
    }
}

/// Per-class counts of selected sampled keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// `|A ∩ F1?|`
    pub f1_unknown: usize,
    /// `|A ∩ F?1|`
    pub funknown_1: usize,
    /// `|A ∩ F11|`
    pub f11: usize,
    /// `|A ∩ F10|`
    pub f10: usize,
    /// `|A ∩ F01|`
    pub f01: usize,
}

impl ClassCounts {
    /// Tallies the classes of all keys appearing in either sample and passing
    /// the selection predicate.
    #[must_use]
    pub fn tally<F: Fn(Key) -> bool>(
        s1: &InstanceSample,
        s2: &InstanceSample,
        seeds: &SeedAssignment,
        select: F,
    ) -> Self {
        let mut counts = Self::default();
        let mut keys: Vec<Key> = s1
            .iter()
            .map(|(k, _)| k)
            .chain(s2.iter().map(|(k, _)| k))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            if !select(key) {
                continue;
            }
            match classify_key(key, s1, s2, seeds) {
                Some(KeyClass::F1Unknown) => counts.f1_unknown += 1,
                Some(KeyClass::FUnknown1) => counts.funknown_1 += 1,
                Some(KeyClass::F11) => counts.f11 += 1,
                Some(KeyClass::F10) => counts.f10 += 1,
                Some(KeyClass::F01) => counts.f01 += 1,
                None => {}
            }
        }
        counts
    }

    /// Total number of classified (i.e. sampled and selected) keys.
    #[must_use]
    pub fn total(&self) -> usize {
        self.f1_unknown + self.funknown_1 + self.f11 + self.f10 + self.f01
    }
}

/// The HT distinct-count estimate `|A ∩ (F11 ∪ F10 ∪ F01)| / (p_1 p_2)`
/// (Section 8.1).
#[must_use]
pub fn distinct_count_ht<F: Fn(Key) -> bool>(
    s1: &InstanceSample,
    s2: &InstanceSample,
    seeds: &SeedAssignment,
    select: F,
) -> f64 {
    let p1 = effective_probability(s1);
    let p2 = effective_probability(s2);
    let counts = ClassCounts::tally(s1, s2, seeds, select);
    (counts.f11 + counts.f10 + counts.f01) as f64 / (p1 * p2)
}

/// The `L` distinct-count estimate (Section 8.1):
///
/// ```text
/// |A ∩ (F1? ∪ F?1 ∪ F11)| / (p1+p2−p1p2)
///   + |A ∩ F10| / (p1 (p1+p2−p1p2))
///   + |A ∩ F01| / (p2 (p1+p2−p1p2))
/// ```
#[must_use]
pub fn distinct_count_l<F: Fn(Key) -> bool>(
    s1: &InstanceSample,
    s2: &InstanceSample,
    seeds: &SeedAssignment,
    select: F,
) -> f64 {
    let p1 = effective_probability(s1);
    let p2 = effective_probability(s2);
    let p_any = p1 + p2 - p1 * p2;
    let counts = ClassCounts::tally(s1, s2, seeds, select);
    (counts.f1_unknown + counts.funknown_1 + counts.f11) as f64 / p_any
        + counts.f10 as f64 / (p1 * p_any)
        + counts.f01 as f64 / (p2 * p_any)
}

// ---------------------------------------------------------------------------
// Variance and sample-size planning (Section 8.1 / Figure 6)
// ---------------------------------------------------------------------------

/// `VAR[D̂^(HT)_A] = |D_A| (1/(p_1 p_2) − 1)`.
#[must_use]
pub fn distinct_ht_variance(distinct: f64, p1: f64, p2: f64) -> f64 {
    distinct * (1.0 / (p1 * p2) - 1.0)
}

/// `VAR[D̂^(L)_A] = |D_A| ( J·VAR[OR^(L)|(1,1)] + (1−J)·VAR[OR^(L)|(1,0)] )`
/// where `J` is the Jaccard coefficient of the two selected sets.
#[must_use]
pub fn distinct_l_variance(distinct: f64, jaccard: f64, p1: f64, p2: f64) -> f64 {
    assert!((0.0..=1.0).contains(&jaccard), "Jaccard must be in [0,1]");
    distinct
        * (jaccard * or_l_variance_equal(p1, p2) + (1.0 - jaccard) * or_l_variance_change(p1, p2))
}

/// Coefficient of variation of the HT distinct-count estimator for union size
/// `n_union` and sampling probability `p = p_1 = p_2`.
#[must_use]
pub fn distinct_ht_cv(n_union: f64, p: f64) -> f64 {
    (distinct_ht_variance(n_union, p, p)).sqrt() / n_union
}

/// Coefficient of variation of the L distinct-count estimator.
#[must_use]
pub fn distinct_l_cv(n_union: f64, jaccard: f64, p: f64) -> f64 {
    (distinct_l_variance(n_union, jaccard, p, p)).sqrt() / n_union
}

/// The smallest sampling probability `p` at which an estimator's coefficient
/// of variation drops to `cv_target`, found by bisection of a monotone
/// CV-vs-p function.  Returns 1.0 if even full sampling misses the target
/// (it never does for these estimators: at `p = 1` the CV is 0).
fn solve_probability<F: Fn(f64) -> f64>(cv_of_p: F, cv_target: f64) -> f64 {
    let mut lo = 1e-9;
    let mut hi = 1.0;
    if cv_of_p(hi) > cv_target {
        return 1.0;
    }
    if cv_of_p(lo) <= cv_target {
        return lo;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if cv_of_p(mid) > cv_target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Figure 6: the expected per-instance sample size (`p · n`) needed by the HT
/// estimator to reach coefficient of variation `cv_target`, when both sets
/// have `n` keys and Jaccard coefficient `jaccard`.
#[must_use]
pub fn required_sample_size_ht(n: f64, jaccard: f64, cv_target: f64) -> f64 {
    let n_union = 2.0 * n / (1.0 + jaccard);
    let p = solve_probability(|p| distinct_ht_cv(n_union, p), cv_target);
    p * n
}

/// Figure 6: the expected per-instance sample size (`p · n`) needed by the L
/// estimator to reach coefficient of variation `cv_target`.
#[must_use]
pub fn required_sample_size_l(n: f64, jaccard: f64, cv_target: f64) -> f64 {
    let n_union = 2.0 * n / (1.0 + jaccard);
    let p = solve_probability(|p| distinct_l_cv(n_union, jaccard, p), cv_target);
    p * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Estimator;
    use crate::weighted::or::OrLKnownSeeds;
    use pie_sampling::{Instance, PpsPoissonSampler, WeightedOutcome};

    /// Builds two set instances with |N1| = |N2| = n and the given overlap.
    fn set_pair(n: u64, overlap: u64) -> (Instance, Instance) {
        // Keys 0..overlap shared; N1 also has [overlap, n); N2 has [n, 2n-overlap).
        let n1 = Instance::from_pairs((0..n).map(|k| (k, 1.0)));
        let n2 = Instance::from_pairs((0..overlap).chain(n..(2 * n - overlap)).map(|k| (k, 1.0)));
        (n1, n2)
    }

    fn sample_sets(
        n1: &Instance,
        n2: &Instance,
        p: f64,
        salt: u64,
    ) -> (InstanceSample, InstanceSample, SeedAssignment) {
        let seeds = SeedAssignment::independent_known(salt);
        let sampler = PpsPoissonSampler::new(1.0 / p);
        (
            sampler.sample(n1, &seeds, 0),
            sampler.sample(n2, &seeds, 1),
            seeds,
        )
    }

    #[test]
    fn classification_covers_all_sampled_keys() {
        let (n1, n2) = set_pair(500, 200);
        let (s1, s2, seeds) = sample_sets(&n1, &n2, 0.4, 7);
        let counts = ClassCounts::tally(&s1, &s2, &seeds, |_| true);
        let sampled_union = {
            let mut ks: Vec<Key> = s1
                .iter()
                .map(|(k, _)| k)
                .chain(s2.iter().map(|(k, _)| k))
                .collect();
            ks.sort_unstable();
            ks.dedup();
            ks.len()
        };
        assert_eq!(counts.total(), sampled_union);
    }

    #[test]
    fn estimators_are_unbiased_over_repetitions() {
        let (n1, n2) = set_pair(400, 100);
        let truth = 2.0 * 400.0 - 100.0; // |union|
        let p = 0.3;
        let reps = 300;
        let (mut sum_ht, mut sum_l) = (0.0, 0.0);
        for salt in 0..reps {
            let (s1, s2, seeds) = sample_sets(&n1, &n2, p, salt);
            sum_ht += distinct_count_ht(&s1, &s2, &seeds, |_| true);
            sum_l += distinct_count_l(&s1, &s2, &seeds, |_| true);
        }
        let mean_ht = sum_ht / reps as f64;
        let mean_l = sum_l / reps as f64;
        assert!(
            (mean_ht - truth).abs() / truth < 0.05,
            "HT bias: {mean_ht} vs {truth}"
        );
        assert!(
            (mean_l - truth).abs() / truth < 0.05,
            "L bias: {mean_l} vs {truth}"
        );
    }

    #[test]
    fn l_estimate_equals_sum_of_per_key_or_estimates() {
        // The counting form must agree with summing the per-key OR^(L)
        // estimator over the union of sampled keys.
        let (n1, n2) = set_pair(300, 120);
        let p = 0.35;
        let (s1, s2, seeds) = sample_sets(&n1, &n2, p, 42);
        let by_counting = distinct_count_l(&s1, &s2, &seeds, |_| true);
        let mut keys: Vec<Key> = s1
            .iter()
            .map(|(k, _)| k)
            .chain(s2.iter().map(|(k, _)| k))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let by_summing: f64 = keys
            .iter()
            .map(|&k| {
                let o = WeightedOutcome::from_samples(k, &[s1.clone(), s2.clone()], &seeds);
                OrLKnownSeeds.estimate(&o)
            })
            .sum();
        assert!(
            (by_counting - by_summing).abs() < 1e-6,
            "counting {by_counting} vs per-key sum {by_summing}"
        );
    }

    #[test]
    fn selection_predicate_restricts_the_estimate() {
        let (n1, n2) = set_pair(400, 100);
        let p = 0.5;
        let (s1, s2, seeds) = sample_sets(&n1, &n2, p, 3);
        let all = distinct_count_l(&s1, &s2, &seeds, |_| true);
        let even = distinct_count_l(&s1, &s2, &seeds, |k| k % 2 == 0);
        let odd = distinct_count_l(&s1, &s2, &seeds, |k| k % 2 == 1);
        assert!((all - (even + odd)).abs() < 1e-9);
        assert!(even > 0.0 && odd > 0.0);
    }

    #[test]
    fn l_variance_is_lower_than_ht_variance_in_practice() {
        let (n1, n2) = set_pair(400, 200);
        let truth = 600.0;
        let p = 0.2;
        let reps = 400;
        let (mut ht_sq, mut l_sq) = (0.0, 0.0);
        for salt in 1000..(1000 + reps) {
            let (s1, s2, seeds) = sample_sets(&n1, &n2, p, salt);
            ht_sq += (distinct_count_ht(&s1, &s2, &seeds, |_| true) - truth).powi(2);
            l_sq += (distinct_count_l(&s1, &s2, &seeds, |_| true) - truth).powi(2);
        }
        let var_ht = ht_sq / reps as f64;
        let var_l = l_sq / reps as f64;
        assert!(
            var_l < var_ht,
            "L variance {var_l} should be below HT variance {var_ht}"
        );
        // And the analytic prediction should be in the right ballpark.
        let jaccard = 200.0 / 600.0;
        let pred_ht = distinct_ht_variance(truth, p, p);
        let pred_l = distinct_l_variance(truth, jaccard, p, p);
        assert!(
            (var_ht / pred_ht - 1.0).abs() < 0.35,
            "{var_ht} vs {pred_ht}"
        );
        assert!((var_l / pred_l - 1.0).abs() < 0.35, "{var_l} vs {pred_l}");
    }

    #[test]
    fn sample_size_planning_matches_asymptotics() {
        // Section 8.1: for small p the L estimator needs about √(1−J)/2 times
        // the HT sample size.
        let n = 1e7;
        let cv = 0.1;
        for &j in &[0.0, 0.5, 0.9] {
            let s_ht = required_sample_size_ht(n, j, cv);
            let s_l = required_sample_size_l(n, j, cv);
            let ratio = s_l / s_ht;
            let expected = (1.0 - j).sqrt() / 2.0;
            assert!(
                (ratio - expected).abs() < 0.12,
                "J={j}: ratio {ratio} vs expected ≈ {expected}"
            );
            assert!(s_l <= s_ht, "L must never need more samples than HT");
        }
    }

    #[test]
    fn sample_size_for_identical_sets_is_tiny() {
        // J = 1: Θ(1) samples suffice for a fixed CV once p > (1−J)/(2J) = 0.
        let s_l = required_sample_size_l(1e8, 1.0, 0.1);
        let s_ht = required_sample_size_ht(1e8, 1.0, 0.1);
        assert!(s_l < 0.01 * s_ht, "L: {s_l}, HT: {s_ht}");
    }

    #[test]
    fn cv_decreases_with_p() {
        let n_union = 1e6;
        assert!(distinct_ht_cv(n_union, 0.2) < distinct_ht_cv(n_union, 0.1));
        assert!(distinct_l_cv(n_union, 0.5, 0.2) < distinct_l_cv(n_union, 0.5, 0.1));
    }
}
