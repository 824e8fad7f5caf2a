//! Estimators for `max(v)` under weighted (PPS) Poisson sampling with known
//! seeds (Section 5.2 and Appendix A).
//!
//! Entry `i` is sampled iff `v_i ≥ u_i·τ*_i` (probability `min(1, v_i/τ*_i)`),
//! and the seeds `u_i` are available to the estimator.  The key consequence is
//! that an *unsampled* entry still reveals the upper bound `v_i < u_i·τ*_i`.
//!
//! * [`MaxHtPps`] is the optimal inverse-probability estimator of
//!   Cohen–Kaplan–Sen: positive exactly on outcomes from which `max(v)` can be
//!   recovered (every unsampled entry's upper bound is below the sampled
//!   maximum).
//! * [`MaxLPps2`] is the paper's Pareto-optimal order-based estimator for two
//!   instances (Figure 3): it maps each outcome to its ≺-minimal consistent
//!   ("determining") vector and applies a closed-form expression with four
//!   regimes, derived in Appendix A.  With equal thresholds it dominates
//!   [`MaxHtPps`], with the largest gains (factor ≈ 2/ρ, `ρ = max(v)/τ*`) when
//!   the two entries are similar; see EXPERIMENTS.md for how the measured
//!   ratios compare with the paper's §5.2 claims.

use pie_sampling::{WeightedLanes, WeightedOutcome};

use crate::estimate::{DocumentedEstimator, Estimator, EstimatorProperties, LANE_BLOCK};

/// The optimal inverse-probability estimator `max^(HT)` for PPS samples with
/// known seeds, any number of instances (Section 5.2, after [17, 18]).
///
/// Positive exactly when `max_{i∉S} u_i·τ*_i ≤ max_{i∈S} v_i`, in which case
/// the estimate is `max_{i∈S} v_i / ∏_{i∈[r]} min(1, max_{i∈S} v_i / τ*_i)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxHtPps;

impl Estimator<WeightedOutcome> for MaxHtPps {
    fn estimate(&self, outcome: &WeightedOutcome) -> f64 {
        let Some(max_sampled) = outcome.max_sampled() else {
            return 0.0;
        };
        let bound = outcome
            .max_unsampled_bound()
            .expect("max^(HT) for PPS requires known seeds");
        if bound > max_sampled {
            return 0.0;
        }
        let mut prob = 1.0;
        for e in &outcome.entries {
            prob *= (max_sampled / e.tau_star).min(1.0);
        }
        if prob > 0.0 {
            max_sampled / prob
        } else {
            0.0
        }
    }

    fn name(&self) -> &'static str {
        "max_ht_pps"
    }

    /// Lane-kernel hot path: two fused blocked passes over the
    /// struct-of-arrays lanes.  The first accumulates the sampled maximum
    /// (same fold order as [`WeightedOutcome::max_sampled`]), the largest
    /// unsampled upper bound `u·τ*`, and a seed-visibility flag — as
    /// branch-free selects, so the accumulation loop vectorizes; the second
    /// accumulates the inclusion-probability product at the sampled maximum,
    /// in entry order exactly as [`estimate`](Self::estimate) does (its
    /// running product also starts from `1.0`), so results are
    /// bit-identical.  Bounds and products of outcomes that estimate to zero
    /// are computed speculatively and discarded by the final select, and the
    /// missing-seed panic (which, as in the scalar path, only outcomes with
    /// at least one sampled entry can raise) is deferred to one reduced
    /// check per block.
    fn estimate_lanes(&self, lanes: &WeightedLanes, out: &mut [f64]) {
        crate::estimate::check_lanes_len(lanes.len(), out);
        let r = lanes.num_instances();
        let len = lanes.len();
        if r == 0 {
            out.fill(0.0);
            return;
        }
        let mut max = [0.0f64; LANE_BLOCK];
        let mut has = [false; LANE_BLOCK];
        let mut bound = [0.0f64; LANE_BLOCK];
        let mut seeds_ok = [true; LANE_BLOCK];
        let mut prob = [0.0f64; LANE_BLOCK];
        let mut start = 0usize;
        while start < len {
            let n = LANE_BLOCK.min(len - start);
            for i in 0..n {
                max[i] = 0.0;
                has[i] = false;
                bound[i] = 0.0;
                seeds_ok[i] = true;
            }
            for j in 0..r {
                let v = &lanes.value_lane(j)[start..start + n];
                let s = &lanes.present_lane(j)[start..start + n];
                let u = &lanes.seed_lane(j)[start..start + n];
                let k = &lanes.seed_known_lane(j)[start..start + n];
                let t = &lanes.tau_lane(j)[start..start + n];
                for i in 0..n {
                    let sampled = s[i] > 0.0;
                    let new_max = if has[i] { max[i].max(v[i]) } else { v[i] };
                    let new_bound = bound[i].max(u[i] * t[i]);
                    max[i] = if sampled { new_max } else { max[i] };
                    bound[i] = if sampled { bound[i] } else { new_bound };
                    seeds_ok[i] &= sampled | (k[i] > 0.0);
                    has[i] |= sampled;
                }
            }
            let mut block_ok = true;
            for i in 0..n {
                block_ok &= !has[i] | seeds_ok[i];
            }
            if !block_ok {
                missing_ht_seeds();
            }
            prob[..n].fill(1.0);
            for j in 0..r {
                let t = &lanes.tau_lane(j)[start..start + n];
                for i in 0..n {
                    prob[i] *= (max[i] / t[i]).min(1.0);
                }
            }
            let o = &mut out[start..start + n];
            for i in 0..n {
                // Mirrors the scalar `bound > max_sampled` rejection exactly,
                // negation included, so incomparable pairs behave the same.
                let exceeded = bound[i] > max[i];
                o[i] = if has[i] & !exceeded & (prob[i] > 0.0) {
                    max[i] / prob[i]
                } else {
                    0.0
                };
            }
            start += n;
        }
    }
}

#[cold]
#[inline(never)]
fn missing_ht_seeds() -> ! {
    panic!("max^(HT) for PPS requires known seeds");
}

impl DocumentedEstimator<WeightedOutcome> for MaxHtPps {
    fn properties(&self) -> EstimatorProperties {
        EstimatorProperties::ht()
    }
}

/// The Pareto-optimal `max^(L)` estimator for two PPS-sampled instances with
/// known seeds (Section 5.2, Figure 3, Appendix A).
///
/// The outcome is first mapped to its determining vector `φ(S)`
/// (unsampled entries replaced by `min(u_i·τ*_i, max sampled value)`), then a
/// four-case closed form is evaluated.  The estimator is unbiased,
/// nonnegative and monotone; with equal thresholds it dominates [`MaxHtPps`],
/// with the gain growing as the two entries become similar and as the
/// sampling rate increases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaxLPps2;

impl MaxLPps2 {
    /// The determining vector `φ(S)` of a two-instance outcome.
    ///
    /// * `S = ∅` → `(0, 0)`
    /// * `S = {1}` → `(v_1, min(u_2·τ*_2, v_1))`
    /// * `S = {2}` → `(min(u_1·τ*_1, v_2), v_2)`
    /// * `S = {1,2}` → `(v_1, v_2)`
    ///
    /// # Panics
    /// Panics if the outcome does not have exactly two entries or seeds are
    /// missing for unsampled entries.
    #[must_use]
    pub fn determining_vector(outcome: &WeightedOutcome) -> [f64; 2] {
        assert_eq!(
            outcome.num_instances(),
            2,
            "MaxLPps2 is defined for exactly two instances"
        );
        let e1 = &outcome.entries[0];
        let e2 = &outcome.entries[1];
        match (e1.value, e2.value) {
            (None, None) => [0.0, 0.0],
            (Some(v1), None) => {
                let bound = e2
                    .unsampled_upper_bound()
                    .expect("max^(L) for PPS requires known seeds");
                [v1, bound.min(v1)]
            }
            (None, Some(v2)) => {
                let bound = e1
                    .unsampled_upper_bound()
                    .expect("max^(L) for PPS requires known seeds");
                [bound.min(v2), v2]
            }
            (Some(v1), Some(v2)) => [v1, v2],
        }
    }

    /// Evaluates the Figure 3 closed form on a determining vector `(v1, v2)`
    /// with thresholds `(tau1, tau2)`, assuming `v1 ≥ v2` (the caller swaps
    /// indices otherwise).
    fn closed_form(v1: f64, v2: f64, tau1: f64, tau2: f64) -> f64 {
        debug_assert!(v1 >= v2);
        if v1 <= 0.0 {
            return 0.0;
        }
        if v2 >= tau2 {
            // Case: v1 ≥ v2 ≥ τ*_2.
            return v2 + (v1 - v2) / (v1 / tau1).min(1.0);
        }
        if v1 >= tau1 {
            // Case: v1 ≥ τ*_1, v2 ≤ min(τ*_2, v1).
            return v1;
        }
        let s = tau1 + tau2;
        if v1 <= tau2 {
            // Case: v2 ≤ v1 ≤ min(τ*_1, τ*_2).
            let a = tau1 * tau2 / (s - v1);
            let b = tau1 * tau2 * (tau1 - v1) / (v1 * s);
            let log_arg = (s - v2) * v1 / (v2 * (s - v1));
            let d = (v1 - v2) * tau1 * tau2 * (tau1 - v1) / (v1 * (s - v2) * (s - v1));
            a + b * log_arg.ln() + d
        } else {
            // Case: v2 ≤ τ*_2 ≤ v1 ≤ τ*_1 (Equation (30) / last row of Figure 3).
            //
            // Note on the logarithm's argument: the paper prints
            // `(τ1+τ2−v2)·τ1 / (τ2·(τ1+τ2−v1))`, but evaluating the
            // antiderivative of Footnote 2 at the lower limit `x = v1 − τ2`
            // (where the case-(26) boundary value must be recovered) gives
            // `(τ1+τ2−v2)·τ2 / (τ1·v2)`; the printed form does not reduce to
            // the boundary value at `v2 = τ2` and breaks unbiasedness, so we
            // use the re-derived argument.  See EXPERIMENTS.md.
            let e = tau1 + tau2 - tau1 * tau2 / v1;
            let f = tau1 * tau2 * (tau1 - v1) / (v1 * s);
            let log_arg = (s - v2) * tau2 / (tau1 * v2);
            let h = tau2 * (tau1 - v1) * (tau2 - v2) / ((s - v2) * v1);
            e + f * log_arg.ln() + h
        }
    }
}

impl Estimator<WeightedOutcome> for MaxLPps2 {
    fn estimate(&self, outcome: &WeightedOutcome) -> f64 {
        let phi = Self::determining_vector(outcome);
        let tau1 = outcome.entries[0].tau_star;
        let tau2 = outcome.entries[1].tau_star;
        if phi[0] >= phi[1] {
            Self::closed_form(phi[0], phi[1], tau1, tau2)
        } else {
            // Symmetric expression with the roles of the instances exchanged.
            Self::closed_form(phi[1], phi[0], tau2, tau1)
        }
    }

    fn name(&self) -> &'static str {
        "max_l_pps_2"
    }

    /// Two-phase lane-kernel hot path.  Phase one is a select-only pass —
    /// multiplies, compares and mask selects, no divisions and no side
    /// exits — that computes the determining vector, the ordered swap, and
    /// the dominant deterministic cases (`x ≤ 0 → 0`, `x ≥ τ*_x → x`, and
    /// the division arm when its divisor is exactly 1.0), writing a NaN
    /// sentinel for the lanes that fall into the logarithmic or
    /// truly-dividing regimes; the seed validity check rides along as a
    /// mask reduction in the same loop, and LLVM turns the whole thing
    /// into masked-blend vector code.  Phase two rescans just the sentinel
    /// lanes — rare on production workloads, where almost every key is
    /// either unsampled or above its threshold — recomputing the
    /// determining vector and calling the exact scalar
    /// [`closed_form`](Self::closed_form).  Every expression matches
    /// [`estimate`](Self::estimate) verbatim, so results are bit-identical.
    fn estimate_lanes(&self, lanes: &WeightedLanes, out: &mut [f64]) {
        crate::estimate::check_lanes_len(lanes.len(), out);
        if lanes.is_empty() {
            // An empty batch has no outcomes to assert the instance count on.
            return;
        }
        assert_eq!(
            lanes.num_instances(),
            2,
            "MaxLPps2 is defined for exactly two instances"
        );
        let len = lanes.len();
        let v1l = &lanes.value_lane(0)[..len];
        let v2l = &lanes.value_lane(1)[..len];
        let s1l = &lanes.present_lane(0)[..len];
        let s2l = &lanes.present_lane(1)[..len];
        let u1l = &lanes.seed_lane(0)[..len];
        let u2l = &lanes.seed_lane(1)[..len];
        let t1l = &lanes.tau_lane(0)[..len];
        let t2l = &lanes.tau_lane(1)[..len];
        let k1l = &lanes.seed_known_lane(0)[..len];
        let k2l = &lanes.seed_known_lane(1)[..len];
        // Accumulated seed-validity mask: an unsampled entry paired with a
        // sampled one must expose its seed, exactly as `determining_vector`
        // requires.  Checked once after the batch — the panic unwinds
        // before any caller can observe `out`.
        let mut seeds_ok = true;
        let mut start = 0usize;
        while start < len {
            let m = LANE_BLOCK.min(len - start);
            let v1c = &v1l[start..start + m];
            let v2c = &v2l[start..start + m];
            let s1c = &s1l[start..start + m];
            let s2c = &s2l[start..start + m];
            let u1c = &u1l[start..start + m];
            let u2c = &u2l[start..start + m];
            let t1c = &t1l[start..start + m];
            let t2c = &t2l[start..start + m];
            let k1c = &k1l[start..start + m];
            let k2c = &k2l[start..start + m];
            let o = &mut out[start..start + m];
            // Phase one.  The present and seed-known lanes hold exactly
            // 0.0 or 1.0, so the ordered `> 0.0` test (one vector compare,
            // no NaN parity fixup) is the scalar path's presence check;
            // the case logic uses eager `&`/`|` — short-circuit booleans
            // would reintroduce control flow and defeat if-conversion.
            for c in 0..m {
                let s1 = s1c[c] > 0.0;
                let s2 = s2c[c] > 0.0;
                let k1 = k1c[c] > 0.0;
                let k2 = k2c[c] > 0.0;
                seeds_ok &= (!s1 | s2 | k2) & (s1 | !s2 | k1);
                let (v1, v2) = (v1c[c], v2c[c]);
                let (tau1, tau2) = (t1c[c], t2c[c]);
                let m1 = (u1c[c] * tau1).min(v2);
                let m2 = (u2c[c] * tau2).min(v1);
                let phi0 = if s1 {
                    v1
                } else if s2 {
                    m1
                } else {
                    0.0
                };
                let phi1 = if s2 {
                    v2
                } else if s1 {
                    m2
                } else {
                    0.0
                };
                let swap = phi0 >= phi1;
                let x = if swap { phi0 } else { phi1 };
                let y = if swap { phi1 } else { phi0 };
                let tx = if swap { tau1 } else { tau2 };
                let ty = if swap { tau2 } else { tau1 };
                // Case order as in `closed_form`: zero, division (y ≥ τ*_y),
                // deterministic x, logarithmic.  When the division arm
                // fires with x ≥ τ*_x > 0 — in practice almost always,
                // since x is the larger coordinate — its divisor
                // `(x / τ*_x).min(1.0)` is exactly 1.0 and the arm reduces
                // bit-for-bit to `y + (x - y)`, so the kernel needs no
                // division at all (`vdivpd` throughput would otherwise
                // dominate).  The remaining lanes — logarithmic regime or a
                // truly-dividing division arm (unequal thresholds with
                // τ*_y ≤ y ≤ x < τ*_x) — get a NaN sentinel and defer to
                // phase two.  A lane whose *inputs* already produce NaN is
                // also caught by the sentinel scan and recomputed through
                // the scalar chain, so the sentinel never masks a real
                // result.
                let zero = x <= 0.0;
                let div = !zero & (y >= ty);
                let easy_div = (x >= tx) & (tx > 0.0);
                let take_x = !zero & !div & (x >= tx);
                let det = y + (x - y);
                o[c] = if div & easy_div {
                    det
                } else if take_x {
                    x
                } else if zero {
                    0.0
                } else {
                    f64::NAN
                };
            }
            // Phase two: sentinel lanes (logarithmic regime or a
            // truly-dividing division arm) rerun the full scalar chain.
            // On skewed workloads both regimes are rare, so the scan branch
            // is almost never taken and predicts well.
            for c in 0..m {
                if o[c].is_nan() {
                    let s1 = s1c[c] > 0.0;
                    let s2 = s2c[c] > 0.0;
                    let (tau1, tau2) = (t1c[c], t2c[c]);
                    let phi0 = if s1 {
                        v1c[c]
                    } else if s2 {
                        (u1c[c] * tau1).min(v2c[c])
                    } else {
                        0.0
                    };
                    let phi1 = if s2 {
                        v2c[c]
                    } else if s1 {
                        (u2c[c] * tau2).min(v1c[c])
                    } else {
                        0.0
                    };
                    o[c] = if phi0 >= phi1 {
                        Self::closed_form(phi0, phi1, tau1, tau2)
                    } else {
                        Self::closed_form(phi1, phi0, tau2, tau1)
                    };
                }
            }
            start += m;
        }
        if !seeds_ok {
            missing_l_seeds();
        }
    }
}

#[cold]
#[inline(never)]
fn missing_l_seeds() -> ! {
    panic!("max^(L) for PPS requires known seeds");
}

impl DocumentedEstimator<WeightedOutcome> for MaxLPps2 {
    fn properties(&self) -> EstimatorProperties {
        EstimatorProperties::pareto()
    }
}

/// The closed-form estimate on a determining vector with two *equal* entries
/// (Equation (25)): `v / (q_1 + (1−q_1) q_2)` where `q_i = min(1, v/τ*_i)`.
///
/// Exposed for tests and for the derivation walk-through example.
#[must_use]
pub fn max_l_pps2_equal_entries(v: f64, tau1: f64, tau2: f64) -> f64 {
    if v <= 0.0 {
        return 0.0;
    }
    let q1 = (v / tau1).min(1.0);
    let q2 = (v / tau2).min(1.0);
    v / (q1 + (1.0 - q1) * q2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pie_datagen::Xoshiro256pp;
    use pie_sampling::WeightedEntry;

    /// Scales Monte-Carlo trial counts down in debug builds so that
    /// `cargo test` (unoptimized) stays fast; tolerances below are set for the
    /// scaled counts.
    fn trials(n: usize) -> usize {
        if cfg!(debug_assertions) {
            n / 10
        } else {
            n
        }
    }

    /// Simulates PPS sampling with known seeds for a two-entry data vector and
    /// returns the outcome.
    fn simulate(v: &[f64; 2], tau: &[f64; 2], u: [f64; 2]) -> WeightedOutcome {
        let entries = (0..2)
            .map(|i| {
                let sampled = v[i] > 0.0 && v[i] >= u[i] * tau[i];
                WeightedEntry {
                    tau_star: tau[i],
                    seed: Some(u[i]),
                    value: if sampled { Some(v[i]) } else { None },
                }
            })
            .collect();
        WeightedOutcome::new(entries)
    }

    fn monte_carlo_mean_var<E: Estimator<WeightedOutcome>>(
        est: &E,
        v: &[f64; 2],
        tau: &[f64; 2],
        trials: usize,
        seed: u64,
    ) -> (f64, f64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..trials {
            let u = [rng.gen_range(1e-12..1.0), rng.gen_range(1e-12..1.0)];
            let x = est.estimate(&simulate(v, tau, u));
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / trials as f64;
        (mean, sum_sq / trials as f64 - mean * mean)
    }

    #[test]
    fn determining_vector_cases() {
        let tau = [10.0, 8.0];
        // Both sampled.
        let o = simulate(&[6.0, 3.0], &tau, [0.5, 0.3]);
        assert_eq!(o.num_sampled(), 2);
        assert_eq!(MaxLPps2::determining_vector(&o), [6.0, 3.0]);
        // Only entry 1 sampled, bound below v1.
        let o = simulate(&[6.0, 3.0], &tau, [0.5, 0.6]); // u2*tau2 = 4.8 > 3 -> not sampled
        assert_eq!(o.num_sampled(), 1);
        assert_eq!(MaxLPps2::determining_vector(&o), [6.0, 4.8]);
        // Only entry 1 sampled, bound above v1 -> capped at v1.
        let o = simulate(&[6.0, 3.0], &tau, [0.5, 0.9]); // u2*tau2 = 7.2 > 6
        assert_eq!(MaxLPps2::determining_vector(&o), [6.0, 6.0]);
        // Nothing sampled.
        let o = simulate(&[6.0, 3.0], &tau, [0.7, 0.9]);
        assert_eq!(o.num_sampled(), 0);
        assert_eq!(MaxLPps2::determining_vector(&o), [0.0, 0.0]);
    }

    #[test]
    fn ht_pps_is_unbiased_monte_carlo() {
        let tau = [10.0, 10.0];
        for v in &[[5.0f64, 3.0], [2.0, 2.0], [9.0, 0.5], [4.0, 0.0]] {
            let truth = v[0].max(v[1]);
            // The HT estimate is heavy-tailed (a large value with small
            // probability), so this check keeps the full trial count even in
            // debug builds; each trial is just a comparison and a division.
            let (mean, _) = monte_carlo_mean_var(&MaxHtPps, v, &tau, 400_000, 7);
            assert!(
                (mean - truth).abs() / truth.max(1.0) < 0.02,
                "HT biased on {v:?}: {mean} vs {truth}"
            );
        }
    }

    #[test]
    fn max_l_pps2_is_unbiased_monte_carlo() {
        let cases: &[([f64; 2], [f64; 2])] = &[
            ([5.0, 3.0], [10.0, 10.0]),
            ([2.0, 2.0], [10.0, 8.0]),
            ([9.0, 0.5], [10.0, 10.0]),
            ([4.0, 0.0], [10.0, 6.0]),
            ([12.0, 3.0], [10.0, 10.0]), // v1 above tau*: always sampled
            ([7.0, 6.5], [8.0, 6.0]),    // v2 above tau2*
            ([0.5, 0.2], [10.0, 10.0]),  // tiny values, heavy subsampling
        ];
        for (i, (v, tau)) in cases.iter().enumerate() {
            let truth = v[0].max(v[1]);
            let (mean, _) =
                monte_carlo_mean_var(&MaxLPps2, v, tau, trials(600_000), 100 + i as u64);
            assert!(
                (mean - truth).abs() / truth < 0.02,
                "max^L biased on {v:?} tau {tau:?}: {mean} vs {truth}"
            );
        }
    }

    #[test]
    fn max_l_pps2_is_nonnegative_and_monotone_under_information() {
        // Nonnegativity on a grid of outcomes.
        let tau = [10.0, 7.0];
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = [rng.gen_range(0.0..12.0), rng.gen_range(0.0..12.0)];
            let u = [rng.gen_range(1e-9..1.0), rng.gen_range(1e-9..1.0)];
            let o = simulate(&v, &tau, u);
            let est = MaxLPps2.estimate(&o);
            assert!(est >= -1e-9, "negative estimate {est} for v={v:?} u={u:?}");
        }
    }

    #[test]
    fn max_l_dominates_ht_in_variance() {
        let tau = [10.0, 10.0];
        for v in &[[5.0, 3.0], [5.0, 5.0], [5.0, 0.0], [2.0, 1.0]] {
            let (_, var_ht) = monte_carlo_mean_var(&MaxHtPps, v, &tau, trials(300_000), 11);
            let (_, var_l) = monte_carlo_mean_var(&MaxLPps2, v, &tau, trials(300_000), 13);
            assert!(
                var_l <= var_ht * 1.05,
                "L variance {var_l} should not exceed HT variance {var_ht} on {v:?}"
            );
        }
    }

    #[test]
    fn variance_ratio_bound_section_5_2() {
        // Section 5.2 claims VAR[HT]/VAR[L] ≥ (1+ρ)/ρ where ρ = max(v)/τ*.
        // For vectors whose entries are similar the measured ratio of the
        // Figure 3 estimator comfortably exceeds that bound; on the extreme
        // vector (ρτ*, 0) the Figure 3 estimator is more variable than the
        // paper's back-of-envelope analysis assumes (see EXPERIMENTS.md), so
        // there we only assert clear dominance over HT (ratio near 2).
        let tau = [10.0, 10.0];
        for v in &[[5.0f64, 2.0], [2.0, 2.0]] {
            let rho: f64 = v[0].max(v[1]) / tau[0];
            let (_, var_ht) = monte_carlo_mean_var(&MaxHtPps, v, &tau, trials(400_000), 21);
            let (_, var_l) = monte_carlo_mean_var(&MaxLPps2, v, &tau, trials(400_000), 23);
            let ratio = var_ht / var_l;
            let bound = (1.0 + rho) / rho;
            assert!(
                ratio > bound * 0.9,
                "ratio {ratio} should be at least about {bound} on {v:?}"
            );
        }
        let (_, var_ht) = monte_carlo_mean_var(&MaxHtPps, &[5.0, 0.0], &tau, trials(400_000), 21);
        let (_, var_l) = monte_carlo_mean_var(&MaxLPps2, &[5.0, 0.0], &tau, trials(400_000), 23);
        let ratio = var_ht / var_l;
        assert!(
            ratio > 1.8,
            "ratio on the extreme vector should stay near 2, got {ratio}"
        );
    }

    #[test]
    fn closed_form_matches_equal_entry_formula() {
        // Equation (25) specializations.
        let (tau1, tau2) = (10.0, 6.0);
        for &v in &[0.5, 2.0, 5.0, 7.0, 12.0] {
            let expected = max_l_pps2_equal_entries(v, tau1, tau2);
            let got = MaxLPps2::closed_form(v, v, tau1, tau2);
            assert!(
                (got - expected).abs() < 1e-9,
                "equal-entry mismatch at v={v}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn deterministic_regime_when_values_exceed_thresholds() {
        // If max(v) ≥ τ* in both instances the maximum is known with certainty
        // and both estimators return it exactly (zero variance).
        let tau = [5.0, 4.0];
        let v = [7.0, 6.0];
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..1000 {
            let u = [rng.gen_range(1e-9..1.0), rng.gen_range(1e-9..1.0)];
            let o = simulate(&v, &tau, u);
            assert!((MaxLPps2.estimate(&o) - 7.0).abs() < 1e-9);
            assert!((MaxHtPps.estimate(&o) - 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ht_requires_known_seeds() {
        let o = WeightedOutcome::new(vec![
            WeightedEntry {
                tau_star: 10.0,
                seed: None,
                value: Some(3.0),
            },
            WeightedEntry {
                tau_star: 10.0,
                seed: None,
                value: None,
            },
        ]);
        let result = std::panic::catch_unwind(|| MaxHtPps.estimate(&o));
        assert!(result.is_err(), "HT for PPS must require known seeds");
    }

    #[test]
    fn zero_vector_estimates_zero() {
        let o = simulate(&[0.0, 0.0], &[10.0, 10.0], [0.4, 0.6]);
        assert_eq!(MaxHtPps.estimate(&o), 0.0);
        assert_eq!(MaxLPps2.estimate(&o), 0.0);
    }

    #[test]
    fn documented_properties() {
        assert!(MaxHtPps.properties().unbiased);
        assert!(!MaxHtPps.properties().pareto_optimal);
        assert!(MaxLPps2.properties().pareto_optimal);
    }

    /// Deterministic adversarial batch covering all four determining-vector
    /// cases and all four closed-form regimes: values straddling both
    /// thresholds, zeros, extremes, and near-ties.
    fn adversarial_batch(len: usize) -> Vec<WeightedOutcome> {
        let values = [0.0, 0.5, 2.0, 5.999, 6.0, 9.0, 12.0, 1e-12, 1e12];
        let seeds = [0.001, 0.25, 0.5, 0.75, 0.999];
        (0..len)
            .map(|k| {
                let v = [values[k % values.len()], values[(k / 3 + 2) % values.len()]];
                let tau = [10.0, 6.0];
                let u = [seeds[k % seeds.len()], seeds[(k / 2 + 1) % seeds.len()]];
                simulate(&v, &tau, u)
            })
            .collect()
    }

    #[test]
    fn weighted_lane_kernels_bit_identical_to_scalar() {
        use pie_sampling::WeightedLanes;
        for len in [0usize, 1, 7, 8, 9, 16, 33] {
            let outcomes = adversarial_batch(len);
            let mut lanes = WeightedLanes::new();
            lanes.fill_from_outcomes(&outcomes);
            let mut out = vec![f64::NAN; len];
            MaxHtPps.estimate_lanes(&lanes, &mut out);
            for (k, o) in outcomes.iter().enumerate() {
                assert_eq!(
                    out[k].to_bits(),
                    MaxHtPps.estimate(o).to_bits(),
                    "ht k={k} len={len}"
                );
            }
            MaxLPps2.estimate_lanes(&lanes, &mut out);
            for (k, o) in outcomes.iter().enumerate() {
                assert_eq!(
                    out[k].to_bits(),
                    MaxLPps2.estimate(o).to_bits(),
                    "l k={k} len={len}"
                );
            }
        }
    }

    #[test]
    fn lane_kernels_require_known_seeds_like_scalar() {
        use pie_sampling::WeightedLanes;
        let o = WeightedOutcome::new(vec![
            WeightedEntry {
                tau_star: 10.0,
                seed: None,
                value: Some(3.0),
            },
            WeightedEntry {
                tau_star: 10.0,
                seed: None,
                value: None,
            },
        ]);
        let mut lanes = WeightedLanes::new();
        lanes.fill_from_outcomes(std::slice::from_ref(&o));
        let mut out = vec![0.0; 1];
        let ht = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MaxHtPps.estimate_lanes(&lanes, &mut out)
        }));
        assert!(ht.is_err(), "HT lane kernel must require known seeds");
        let mut out = vec![0.0; 1];
        let l = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MaxLPps2.estimate_lanes(&lanes, &mut out)
        }));
        assert!(l.is_err(), "L lane kernel must require known seeds");
        // Fully-unsampled outcomes never consult the seeds in either path.
        let quiet = WeightedOutcome::new(vec![
            WeightedEntry {
                tau_star: 10.0,
                seed: None,
                value: None,
            },
            WeightedEntry {
                tau_star: 10.0,
                seed: None,
                value: None,
            },
        ]);
        let mut lanes = WeightedLanes::new();
        lanes.fill_from_outcomes(std::slice::from_ref(&quiet));
        let mut out = vec![f64::NAN; 1];
        MaxHtPps.estimate_lanes(&lanes, &mut out);
        assert_eq!(out[0], 0.0);
        MaxLPps2.estimate_lanes(&lanes, &mut out);
        assert_eq!(out[0], 0.0);
    }
}
