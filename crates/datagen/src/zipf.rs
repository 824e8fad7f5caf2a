//! Zipf / power-law value generation.
//!
//! Request logs and traffic measurements — the data sources motivating the
//! paper — are heavy-tailed: a few keys carry most of the volume.  The figure
//! harness therefore uses Zipf-distributed values when synthesizing the
//! Section 8.2 traffic workload.

use crate::rng::Xoshiro256pp;

/// A Zipf distribution over ranks `1..=n` with exponent `s ≥ 0`
/// (`Pr[rank = k] ∝ k^{-s}`), sampled by inversion of the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n ≥ 1` ranks with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative or non-finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "Zipf needs at least one rank");
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and nonnegative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Number of ranks.
    #[must_use]
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws a rank in `1..=n`.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }

    /// The expected value of the rank's frequency weight `rank^{-s}`,
    /// normalized so that weights over all ranks sum to 1.
    #[must_use]
    pub fn probability(&self, rank: usize) -> f64 {
        assert!(rank >= 1 && rank <= self.cdf.len(), "rank out of range");
        if rank == 1 {
            self.cdf[0]
        } else {
            self.cdf[rank - 1] - self.cdf[rank - 2]
        }
    }
}

/// Generates `count` heavy-tailed positive values with the given Zipf exponent
/// and approximate total sum.
///
/// Values are the expected per-rank shares of `total` (deterministic given the
/// parameters), shuffled into a random order.  This gives a reproducible
/// workload whose sum is exactly `total` up to rounding.
#[must_use]
pub fn zipf_values(count: usize, s: f64, total: f64, rng: &mut Xoshiro256pp) -> Vec<f64> {
    assert!(count >= 1, "need at least one value");
    let zipf = Zipf::new(count, s);
    let mut values: Vec<f64> = (1..=count).map(|k| zipf.probability(k) * total).collect();
    // Fisher–Yates shuffle so value magnitude is not correlated with key id.
    for i in (1..values.len()).rev() {
        let j = rng.gen_range(0..=i);
        values.swap(i, j);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_normalized_and_monotone() {
        let z = Zipf::new(100, 1.0);
        assert!((z.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        for w in z.cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn samples_cover_range_and_favour_small_ranks() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut count_rank1 = 0;
        let mut count_tail = 0;
        let trials = 50_000;
        for _ in 0..trials {
            let r = z.sample(&mut rng);
            assert!((1..=1000).contains(&r));
            if r == 1 {
                count_rank1 += 1;
            }
            if r > 500 {
                count_tail += 1;
            }
        }
        assert!(
            count_rank1 > count_tail,
            "rank 1 should dominate the tail half"
        );
        let expected_rank1 = z.probability(1) * trials as f64;
        assert!((count_rank1 as f64 - expected_rank1).abs() < 0.1 * expected_rank1);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = Zipf::new(50, 0.8);
        let total: f64 = (1..=50).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_exponent_gives_uniform_probabilities() {
        let z = Zipf::new(10, 0.0);
        for k in 1..=10 {
            assert!((z.probability(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_values_sum_to_total() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let values = zipf_values(1000, 1.0, 5.5e5, &mut rng);
        assert_eq!(values.len(), 1000);
        let sum: f64 = values.iter().sum();
        assert!((sum - 5.5e5).abs() < 1.0);
        assert!(values.iter().all(|&v| v > 0.0));
        // Heavy tail: the largest value should be a substantial share of the total.
        let max = values.iter().copied().fold(0.0, f64::max);
        assert!(max > 0.05 * sum);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
