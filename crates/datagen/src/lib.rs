//! # pie-datagen — synthetic workloads for partial-information estimation
//!
//! Workload generators used by the examples, the test-suite, and the figure
//! harness:
//!
//! * [`dataset`] — the instances × keys matrix model and the paper's Figure 5
//!   worked example;
//! * [`rng`] — [`Xoshiro256pp`], the workspace's one seeded generator;
//! * [`zipf`] — heavy-tailed value generation;
//! * [`traffic`] — the synthetic stand-in for the paper's proprietary two-hour
//!   IP-traffic logs (Section 8.2 / Figure 7);
//! * [`sets`] — binary set pairs with a controlled Jaccard coefficient
//!   (Section 8.1 / Figure 6);
//! * [`stream`] — adapters that expose a dataset as a sharded record stream
//!   for the streaming `SamplingScheme` ingest path.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod dataset;
pub mod rng;
pub mod sets;
pub mod stream;
pub mod traffic;
pub mod zipf;

pub use dataset::{paper_example, Dataset};
pub use rng::Xoshiro256pp;
pub use sets::{generate_set_pair, SetPairConfig};
pub use stream::{dataset_records, shard_of, ShardedStream, StreamRecord};
pub use traffic::{generate_two_hours, TrafficConfig};
pub use zipf::{zipf_values, Zipf};

/// Sanity checks of the generator's draws; its exact stream is pinned by
/// `tests/report_golden.rs`.
#[cfg(test)]
mod tests {
    use crate::Xoshiro256pp;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256pp::seed_from_u64(43);
        assert_ne!(Xoshiro256pp::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_draws_lie_in_unit_interval_and_look_uniform() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(2.0f64..3.0);
            assert!((2.0..3.0).contains(&x));
            let y = rng.gen_range(0usize..=4);
            assert!(y <= 4);
            let z = rng.gen_range(10u32..20);
            assert!((10..20).contains(&z));
        }
    }

    #[test]
    fn integer_draws_cover_small_ranges() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..=4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
