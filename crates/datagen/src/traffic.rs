//! Synthetic IP-traffic-like workloads (the Section 8.2 substitution).
//!
//! The paper's max-dominance experiment (Figure 7) uses two consecutive hours
//! of destination-IP → flow-count logs from a production gateway; that data is
//! proprietary, so this module generates a synthetic stand-in with the same
//! relevant structure:
//!
//! * heavy-tailed (Zipf) per-key flow counts,
//! * a configurable fraction of keys active in both hours,
//! * hour-to-hour jitter of per-key values for the shared keys,
//! * aggregate statistics calibrated to those the paper reports
//!   (≈2.45·10⁴ active keys per hour, ≈3.8·10⁴ distinct keys over the two
//!   hours, ≈5.5·10⁵ flows per hour, Σ max ≈ 7.47·10⁵).
//!
//! The experiment measures the *variance ratio of two estimators on the same
//! samples*, which depends on the joint distribution of per-key value pairs —
//! heavy-tailed marginals plus partial overlap — not on the identity of the
//! keys, so this substitution preserves the behaviour being measured.

use pie_sampling::Instance;

use crate::dataset::Dataset;
use crate::rng::Xoshiro256pp;
use crate::zipf::zipf_values;

/// Configuration for the two-hour traffic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Number of active keys in each hour.
    pub keys_per_hour: usize,
    /// Fraction of each hour's keys that are active in both hours.
    pub shared_fraction: f64,
    /// Fraction of each hour's flow volume carried by the shared (persistent)
    /// keys.  Persistent destinations are typically the heavy ones, so this is
    /// larger than `shared_fraction`.
    pub shared_volume_fraction: f64,
    /// Total flow count per hour (the sum of values in each instance).
    pub flows_per_hour: f64,
    /// Zipf exponent of the per-key flow-count distribution.
    pub zipf_exponent: f64,
    /// Relative hour-to-hour jitter of shared keys' values: hour-2 values are
    /// drawn as `value · U[1−jitter, 1+jitter]`.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

impl TrafficConfig {
    /// The configuration calibrated to the aggregate statistics reported in
    /// Section 8.2 of the paper: ≈24.5k keys per hour, ≈38k distinct keys,
    /// 5.5·10⁵ flows per hour, Σ max ≈ 7.47·10⁵.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            keys_per_hour: 24_500,
            shared_fraction: 0.45,        // union = (2 − 0.45)·24.5k ≈ 38k keys
            shared_volume_fraction: 0.72, // Σ max ≈ (0.72·1.1 + 0.28·2)·5.5e5 ≈ 7.45e5
            flows_per_hour: 5.5e5,
            zipf_exponent: 1.05,
            jitter: 0.4,
            seed: 0xC0FFEE,
        }
    }

    /// A smaller configuration for unit tests and quick runs.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        Self {
            keys_per_hour: 2_000,
            shared_fraction: 0.45,
            shared_volume_fraction: 0.72,
            flows_per_hour: 4.5e4,
            zipf_exponent: 1.05,
            jitter: 0.4,
            seed,
        }
    }
}

/// Generates the two-hour traffic dataset described by `config`.
///
/// Instance 0 is "hour 1", instance 1 is "hour 2".
///
/// # Panics
/// Panics if the configuration is degenerate (no keys, fractions outside
/// `[0, 1]`, non-positive totals).
#[must_use]
pub fn generate_two_hours(config: &TrafficConfig) -> Dataset {
    assert!(config.keys_per_hour > 0, "need at least one key per hour");
    assert!(
        (0.0..=1.0).contains(&config.shared_fraction),
        "shared_fraction must be in [0,1]"
    );
    assert!(
        config.flows_per_hour > 0.0,
        "flows_per_hour must be positive"
    );
    assert!(
        (0.0..1.0).contains(&config.jitter),
        "jitter must be in [0,1)"
    );
    assert!(
        (0.0..=1.0).contains(&config.shared_volume_fraction),
        "shared_volume_fraction must be in [0,1]"
    );

    let mut rng = Xoshiro256pp::seed_from_u64(config.seed);
    let n = config.keys_per_hour;
    let shared = ((n as f64) * config.shared_fraction).round() as usize;
    let only = n - shared;

    // Key layout: [0, shared) shared, [shared, n) hour-1 only,
    // [n, 2n − shared) hour-2 only.
    let shared_volume = config.flows_per_hour * config.shared_volume_fraction;
    let only_volume = config.flows_per_hour - shared_volume;

    let mut hour1 = Instance::new();
    let shared_values = if shared > 0 {
        zipf_values(shared, config.zipf_exponent, shared_volume, &mut rng)
    } else {
        Vec::new()
    };
    for (i, &v) in shared_values.iter().enumerate() {
        hour1.set(i as u64, v);
    }
    if only > 0 {
        let h1_only_values = zipf_values(only, config.zipf_exponent, only_volume, &mut rng);
        for (i, &v) in h1_only_values.iter().enumerate() {
            hour1.set((shared + i) as u64, v);
        }
    }

    // Hour 2: shared keys keep (jittered) hour-1 values, fresh keys draw new
    // heavy-tailed values; then rescale to hit the per-hour flow total.  The
    // pairs are accumulated in a deterministic order so that the rescaling is
    // reproducible bit-for-bit across runs.
    let mut hour2_pairs: Vec<(u64, f64)> = Vec::with_capacity(n);
    for (i, &v) in shared_values.iter().enumerate() {
        let factor = rng.gen_range(1.0 - config.jitter..=1.0 + config.jitter);
        hour2_pairs.push((i as u64, v * factor));
    }
    if only > 0 {
        let fresh_values = zipf_values(only, config.zipf_exponent, only_volume, &mut rng);
        for (i, &v) in fresh_values.iter().enumerate() {
            hour2_pairs.push(((n + i) as u64, v));
        }
    }
    let total: f64 = hour2_pairs.iter().map(|&(_, v)| v).sum();
    let scale = config.flows_per_hour / total;
    let hour2 = Instance::from_pairs(hour2_pairs.into_iter().map(|(k, v)| (k, v * scale)));

    Dataset::new("synthetic-two-hour-traffic", vec![hour1, hour2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pie_core::functions::maximum;

    #[test]
    fn small_config_has_expected_structure() {
        let ds = generate_two_hours(&TrafficConfig::small(7));
        assert_eq!(ds.num_instances(), 2);
        let n = 2000usize;
        let shared = 900usize; // 0.45 * 2000
        assert_eq!(ds.instances()[0].len(), n);
        assert_eq!(ds.instances()[1].len(), n);
        assert_eq!(ds.keys().len(), 2 * n - shared);
        // Totals match the configured flows per hour.
        assert!((ds.instances()[0].total() - 4.5e4).abs() < 1.0);
        assert!((ds.instances()[1].total() - 4.5e4).abs() < 1.0);
    }

    #[test]
    fn paper_scale_matches_reported_statistics() {
        let ds = generate_two_hours(&TrafficConfig::paper_scale());
        let distinct = ds.keys().len() as f64;
        assert!(
            (distinct - 3.8e4).abs() / 3.8e4 < 0.05,
            "distinct keys {distinct} should be ≈ 3.8e4"
        );
        for inst in ds.instances() {
            assert!((inst.total() - 5.5e5).abs() / 5.5e5 < 0.01);
            assert!((inst.len() as f64 - 2.45e4).abs() / 2.45e4 < 0.01);
        }
        // Σ max should land near the value the paper reports (7.47e5).
        let sum_max = ds.sum_aggregate(maximum, |_| true);
        assert!(
            (7.0e5..8.0e5).contains(&sum_max),
            "sum of maxima {sum_max} should be near 7.47e5"
        );
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        let a = generate_two_hours(&TrafficConfig::small(3));
        let b = generate_two_hours(&TrafficConfig::small(3));
        assert_eq!(a, b);
        let c = generate_two_hours(&TrafficConfig::small(4));
        assert_ne!(a, c);
    }

    #[test]
    fn shared_keys_have_correlated_values() {
        let ds = generate_two_hours(&TrafficConfig::small(11));
        let (h1, h2) = (&ds.instances()[0], &ds.instances()[1]);
        // For shared keys, hour-2 values should be within the jitter band of
        // hour-1 values (up to the global rescaling factor).
        let mut checked = 0;
        for k in 0..900u64 {
            let (a, b) = (h1.value(k), h2.value(k));
            if a > 0.0 && b > 0.0 {
                let ratio = b / a;
                assert!(
                    ratio > 0.3 && ratio < 2.0,
                    "ratio {ratio} out of band for key {k}"
                );
                checked += 1;
            }
        }
        assert!(checked > 800);
    }

    #[test]
    fn values_are_heavy_tailed() {
        let ds = generate_two_hours(&TrafficConfig::small(5));
        let h1 = &ds.instances()[0];
        let max = h1.max_value();
        let mean = h1.total() / h1.len() as f64;
        assert!(max > 20.0 * mean, "max {max} should dwarf the mean {mean}");
    }

    #[test]
    #[should_panic(expected = "shared_fraction")]
    fn invalid_shared_fraction_rejected() {
        let mut cfg = TrafficConfig::small(1);
        cfg.shared_fraction = 1.5;
        let _ = generate_two_hours(&cfg);
    }
}
