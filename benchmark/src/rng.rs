//! The runner's own randomness: every dataset seed, salt and request plan
//! derives from `--seed` through these two types, so the program under
//! test only ever sees generated inputs.

/// splitmix64 step: a well-mixed 64-bit hash of `x`.
pub fn mix(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one named purpose under one benchmark seed, so two
    /// plans of one run never share draws.
    pub fn new(seed: u64, purpose: &str) -> Self {
        let tag = purpose.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        Self(mix(seed ^ tag))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Inverse-CDF sampler over popularity ranks `0..n`, rank `i` drawn with
/// probability proportional to `1 / (i + 1)^exponent`.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += (rank as f64).powf(-exponent);
                total
            })
            .collect();
        for value in &mut cdf {
            *value /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_purposes_differ() {
        let draw = |seed, purpose| {
            let mut rng = Rng::new(seed, purpose);
            [rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(draw(7, "plan"), draw(7, "plan"));
        assert_ne!(draw(7, "plan"), draw(8, "plan"));
        assert_ne!(draw(7, "plan"), draw(7, "salt"));
    }

    #[test]
    fn zipf_prefers_the_head() {
        let zipf = Zipf::new(1000, 1.1);
        let mut rng = Rng::new(1, "zipf");
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        let head = draws.iter().filter(|&&r| r < 10).count();
        let tail = draws.iter().filter(|&&r| r >= 990).count();
        assert!(draws.iter().all(|&r| r < 1000));
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
    }
}
