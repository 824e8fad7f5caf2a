//! The workspace's one pseudo-random generator: xoshiro256++ seeded through
//! SplitMix64.
//!
//! Every generated dataset, every Monte-Carlo simulation in `pie-analysis`
//! and the seeded unit tests draw from [`Xoshiro256pp`], so its stream *is*
//! the reproduction's data.  `tests/report_golden.rs` pins its first
//! outputs, one of each draw, and the datasets generated from it; a change
//! here changes every dataset, figure and snapshot size, and must update
//! those pins on purpose.
//!
//! It offers exactly the draws the workspace makes: a unit `f64`, `f64`
//! over `a..b` and `a..=b`, `usize` over `a..b` and `a..=b`, `u32` over
//! `a..b`, and a raw `u32`.

use std::ops::{Range, RangeInclusive};

/// xoshiro256++ (Blackman & Vigna), seeded through SplitMix64.
///
/// Not cryptographic; deterministic per seed on every platform.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// A generator whose stream is fully determined by `seed`: the four
    /// state words are the first four SplitMix64 outputs from `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A value from `T`'s standard distribution: `f64` uniform in `[0, 1)`
    /// (53 random mantissa bits), or a uniform `u32` (the high 32 bits).
    pub fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value drawn uniformly from `range`.
    ///
    /// # Panics
    /// Panics if `range` is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.draw(self)
    }

    /// Unbiased uniform draw from `[0, bound)` by rejection sampling.
    fn below(&mut self, bound: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// Types [`Xoshiro256pp::gen`] can draw: `f64` and `u32`.
pub trait Standard {
    /// Draws one value.
    fn draw(rng: &mut Xoshiro256pp) -> Self;
}

impl Standard for f64 {
    fn draw(rng: &mut Xoshiro256pp) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u32 {
    fn draw(rng: &mut Xoshiro256pp) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

/// Ranges [`Xoshiro256pp::gen_range`] can draw from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn draw(self, rng: &mut Xoshiro256pp) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn draw(self, rng: &mut Xoshiro256pp) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let x = self.start + rng.gen::<f64>() * (self.end - self.start);
        // `start + u·(end − start)` can round up to exactly `end` even
        // though u < 1; clamp to keep the range half-open.
        if x < self.end {
            x
        } else {
            self.end.next_down()
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn draw(self, rng: &mut Xoshiro256pp) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        lo + rng.gen::<f64>() * (hi - lo)
    }
}

impl SampleRange<usize> for Range<usize> {
    fn draw(self, rng: &mut Xoshiro256pp) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

impl SampleRange<usize> for RangeInclusive<usize> {
    fn draw(self, rng: &mut Xoshiro256pp) -> usize {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        match ((hi - lo) as u64).checked_add(1) {
            Some(bound) => lo + rng.below(bound) as usize,
            None => lo + rng.next_u64() as usize,
        }
    }
}

impl SampleRange<u32> for Range<u32> {
    fn draw(self, rng: &mut Xoshiro256pp) -> u32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.below(u64::from(self.end - self.start)) as u32
    }
}
