//! Poisson (independent per-key) sampling, streaming-first.
//!
//! Poisson sampling makes a pure per-record decision — keep `(key, weight)`
//! iff a function of the key's hash seed fires — so it shards trivially: a
//! stream can be ingested by any number of [`Sketch`]es partitioned by key
//! and merged into the exact sample single-stream ingestion would produce.
//! Three schemes are provided, matching Section 2 and Section 7.1 of the
//! paper:
//!
//! * [`ObliviousPoissonSampler`] — weight-oblivious: each key of the stream
//!   (including zero-weight universe keys) is kept with a fixed probability
//!   `p`, independent of its value.  This is the scheme of Section 4.
//! * [`PpsPoissonSampler`] — weighted PPS: a key of value `v` is kept with
//!   probability `min(1, v/τ*)` (inclusion probability proportional to size).
//!   This is the scheme of Section 5.
//! * [`ThresholdRankSampler`] — generic Poisson-τ sampling for any
//!   [`RankFamily`]: a key is kept iff its rank falls below a fixed threshold.
//!
//! All schemes draw their randomness from a [`SeedAssignment`], so samples
//! are reproducible and the "known seeds" estimation model is available
//! post hoc.  The batch `sample()` methods are thin wrappers over
//! ingest-then-finalize on the corresponding sketch.

use pie_store::{Decode as _, Encode as _, StoreError};

use crate::instance::{Instance, Key};
use crate::rank::RankFamily;
use crate::sample::{InstanceSample, RankKind, SampleScheme};
use crate::scheme::{sketch_tag, SamplingScheme, Sketch};
use crate::seed::SeedAssignment;

/// Weight-oblivious Poisson sampling: keep each key of the universe with
/// probability `p`, regardless of its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObliviousPoissonSampler {
    p: f64,
}

impl ObliviousPoissonSampler {
    /// Creates a sampler with per-key inclusion probability `p ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics if `p` is not in `(0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1], got {p}");
        Self { p }
    }

    /// The per-key inclusion probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Samples `instance` over the key universe `universe` — a thin batch
    /// wrapper over streaming ingest-then-finalize.
    ///
    /// The universe must be supplied explicitly because weight-oblivious
    /// sampling also selects keys whose value is zero (they carry information
    /// for multi-instance functions such as OR and max).  Keys in the
    /// universe that are absent from the instance are treated as having
    /// value 0.
    #[must_use]
    pub fn sample(
        &self,
        instance: &Instance,
        universe: &[Key],
        seeds: &SeedAssignment,
        instance_index: u64,
    ) -> InstanceSample {
        let mut sketch = self.sketch(seeds, instance_index);
        for &key in universe {
            sketch.ingest(key, instance.value(key));
        }
        sketch.finalize()
    }
}

impl SamplingScheme for ObliviousPoissonSampler {
    type Sketch = ObliviousPoissonSketch;

    fn name(&self) -> &'static str {
        "oblivious_poisson"
    }

    fn sketch(&self, seeds: &SeedAssignment, instance_index: u64) -> Self::Sketch {
        ObliviousPoissonSketch {
            p: self.p,
            seeds: *seeds,
            instance_index,
            entries: Vec::new(),
            ingested: 0,
        }
    }
}

/// Streaming state of weight-oblivious Poisson sampling: the records whose
/// Bernoulli trial fired.
///
/// Zero-weight records participate — the stream defines the key universe, so
/// feed every universe key (with weight 0 where the instance has no value)
/// when downstream estimators need oblivious outcomes over the full universe.
#[derive(Debug, Clone)]
pub struct ObliviousPoissonSketch {
    p: f64,
    seeds: SeedAssignment,
    instance_index: u64,
    entries: Vec<(Key, f64)>,
    ingested: usize,
}

impl Sketch for ObliviousPoissonSketch {
    fn ingest(&mut self, key: Key, weight: f64) {
        self.ingested += 1;
        if self.seeds.seed(key, self.instance_index) < self.p {
            self.entries.push((key, weight));
        }
    }

    fn merge(&mut self, other: &mut Self) {
        assert!(
            self.p == other.p && self.instance_index == other.instance_index,
            "cannot merge oblivious sketches with different p or instance"
        );
        self.entries.append(&mut other.entries);
        self.ingested += std::mem::take(&mut other.ingested);
    }

    fn finalize(&mut self) -> InstanceSample {
        self.ingested = 0;
        InstanceSample::new(
            self.instance_index,
            SampleScheme::ObliviousPoisson { p: self.p },
            0.0,
            self.entries.drain(..),
        )
    }

    fn reset(&mut self, seeds: &SeedAssignment, instance_index: u64) {
        self.seeds = *seeds;
        self.instance_index = instance_index;
        self.entries.clear();
        self.ingested = 0;
    }

    fn ingested(&self) -> usize {
        self.ingested
    }
}

/// Writes a sketch's retained entries in canonical (key-ascending) order so
/// equal sketch states always encode to identical bytes, whatever the
/// in-memory push order was.
fn encode_entries_sorted(
    entries: &[(Key, f64)],
    w: &mut dyn std::io::Write,
) -> Result<(), StoreError> {
    if entries.windows(2).all(|pair| pair[0].0 < pair[1].0) {
        entries.encode(w)
    } else {
        let mut sorted = entries.to_vec();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        sorted.encode(w)
    }
}

/// Decodes a Poisson sketch's entry list, enforcing the canonical
/// strictly-ascending key order the encoder writes — so a decoded sketch
/// always re-encodes to the identical bytes, and duplicate keys cannot
/// slip through to be silently dropped by `InstanceSample::new`'s dedup.
fn decode_entries_sorted(r: &mut dyn std::io::Read) -> Result<Vec<(Key, f64)>, StoreError> {
    let entries: Vec<(Key, f64)> = Vec::decode(r)?;
    if entries.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
        return Err(StoreError::InvalidValue {
            what: "Poisson sketch entries must be strictly ascending by key",
        });
    }
    Ok(entries)
}

impl pie_store::Encode for ObliviousPoissonSketch {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), StoreError> {
        sketch_tag::OBLIVIOUS_POISSON.encode(w)?;
        self.p.encode(w)?;
        self.seeds.encode(w)?;
        self.instance_index.encode(w)?;
        encode_entries_sorted(&self.entries, w)?;
        self.ingested.encode(w)
    }
}

impl pie_store::Decode for ObliviousPoissonSketch {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, StoreError> {
        let tag = u32::decode(r)?;
        if tag != sketch_tag::OBLIVIOUS_POISSON {
            return Err(StoreError::InvalidTag {
                what: "ObliviousPoissonSketch",
                tag,
            });
        }
        Self::decode_fields(r)
    }
}

impl ObliviousPoissonSketch {
    /// Decodes the fields that follow the family tag.
    fn decode_fields(r: &mut dyn std::io::Read) -> Result<Self, StoreError> {
        let p = f64::decode(r)?;
        if !(p > 0.0 && p <= 1.0) {
            return Err(StoreError::InvalidValue {
                what: "oblivious sampling probability must lie in (0, 1]",
            });
        }
        Ok(Self {
            p,
            seeds: SeedAssignment::decode(r)?,
            instance_index: u64::decode(r)?,
            entries: decode_entries_sorted(r)?,
            ingested: usize::decode(r)?,
        })
    }
}

/// Weighted Poisson PPS sampling: keep a key of value `v` iff `v ≥ u·τ*`,
/// i.e. with probability `min(1, v/τ*)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpsPoissonSampler {
    tau_star: f64,
}

impl PpsPoissonSampler {
    /// Creates a sampler with PPS threshold `τ* > 0`.
    ///
    /// # Panics
    /// Panics if `tau_star` is not strictly positive and finite.
    #[must_use]
    pub fn new(tau_star: f64) -> Self {
        assert!(
            tau_star > 0.0 && tau_star.is_finite(),
            "tau_star must be positive and finite, got {tau_star}"
        );
        Self { tau_star }
    }

    /// Chooses τ* so that the expected sample size over `instance` is `k`.
    ///
    /// Returns `None` if the instance has fewer than `⌈k⌉` positive keys (in
    /// which case every positive key should simply be kept).
    #[must_use]
    pub fn with_expected_size(instance: &Instance, k: f64) -> Option<Self> {
        let weights: Vec<f64> = instance.iter().map(|(_, v)| v).collect();
        let tau = crate::rank::PpsRanks.threshold_for_expected_size(&weights, k);
        if tau.is_finite() && tau > 0.0 {
            // PPS inclusion prob with threshold tau is min(1, v*tau); τ* = 1/tau.
            Some(Self::new(1.0 / tau))
        } else {
            None
        }
    }

    /// The PPS threshold τ*.
    #[must_use]
    pub fn tau_star(&self) -> f64 {
        self.tau_star
    }

    /// Samples `instance` — a thin batch wrapper over streaming
    /// ingest-then-finalize.  Only keys with positive value can be selected;
    /// the key universe is implicit (zero-valued keys are never sampled by a
    /// weighted scheme).
    #[must_use]
    pub fn sample(
        &self,
        instance: &Instance,
        seeds: &SeedAssignment,
        instance_index: u64,
    ) -> InstanceSample {
        let mut sketch = self.sketch(seeds, instance_index);
        for (key, value) in instance.iter() {
            sketch.ingest(key, value);
        }
        sketch.finalize()
    }
}

impl SamplingScheme for PpsPoissonSampler {
    type Sketch = PpsPoissonSketch;

    fn name(&self) -> &'static str {
        "pps_poisson"
    }

    fn sketch(&self, seeds: &SeedAssignment, instance_index: u64) -> Self::Sketch {
        PpsPoissonSketch {
            tau_star: self.tau_star,
            seeds: *seeds,
            instance_index,
            entries: Vec::new(),
            ingested: 0,
        }
    }
}

/// Streaming state of weighted PPS Poisson sampling: the records that
/// passed the `v ≥ u·τ*` test.  Non-positive weights are ignored.
#[derive(Debug, Clone)]
pub struct PpsPoissonSketch {
    tau_star: f64,
    seeds: SeedAssignment,
    instance_index: u64,
    entries: Vec<(Key, f64)>,
    ingested: usize,
}

impl Sketch for PpsPoissonSketch {
    fn ingest(&mut self, key: Key, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        self.ingested += 1;
        if weight >= self.seeds.seed(key, self.instance_index) * self.tau_star {
            self.entries.push((key, weight));
        }
    }

    fn merge(&mut self, other: &mut Self) {
        assert!(
            self.tau_star == other.tau_star && self.instance_index == other.instance_index,
            "cannot merge PPS sketches with different tau_star or instance"
        );
        self.entries.append(&mut other.entries);
        self.ingested += std::mem::take(&mut other.ingested);
    }

    fn finalize(&mut self) -> InstanceSample {
        self.ingested = 0;
        InstanceSample::new(
            self.instance_index,
            SampleScheme::PpsPoisson {
                tau_star: self.tau_star,
            },
            self.tau_star,
            self.entries.drain(..),
        )
    }

    fn reset(&mut self, seeds: &SeedAssignment, instance_index: u64) {
        self.seeds = *seeds;
        self.instance_index = instance_index;
        self.entries.clear();
        self.ingested = 0;
    }

    fn ingested(&self) -> usize {
        self.ingested
    }
}

impl pie_store::Encode for PpsPoissonSketch {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), StoreError> {
        sketch_tag::PPS_POISSON.encode(w)?;
        self.tau_star.encode(w)?;
        self.seeds.encode(w)?;
        self.instance_index.encode(w)?;
        encode_entries_sorted(&self.entries, w)?;
        self.ingested.encode(w)
    }
}

impl pie_store::Decode for PpsPoissonSketch {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, StoreError> {
        let tag = u32::decode(r)?;
        if tag != sketch_tag::PPS_POISSON {
            return Err(StoreError::InvalidTag {
                what: "PpsPoissonSketch",
                tag,
            });
        }
        Self::decode_fields(r)
    }
}

impl PpsPoissonSketch {
    /// Decodes the fields that follow the family tag.
    fn decode_fields(r: &mut dyn std::io::Read) -> Result<Self, StoreError> {
        let tau_star = f64::decode(r)?;
        if !(tau_star > 0.0 && tau_star.is_finite()) {
            return Err(StoreError::InvalidValue {
                what: "PPS tau_star must be positive and finite",
            });
        }
        let seeds = SeedAssignment::decode(r)?;
        let instance_index = u64::decode(r)?;
        let entries = decode_entries_sorted(r)?;
        if entries.iter().any(|&(_, v)| !(v.is_finite() && v > 0.0)) {
            return Err(StoreError::InvalidValue {
                what: "PPS sketch entries must have finite positive weights",
            });
        }
        Ok(Self {
            tau_star,
            seeds,
            instance_index,
            entries,
            ingested: usize::decode(r)?,
        })
    }
}

/// Either Poisson sketch: the one sketch type for callers that choose the
/// sampling regime at run time (weight-oblivious for Section 4, PPS for
/// Sections 5–6) instead of at compile time.
///
/// Every operation delegates to the wrapped sketch, and so does the codec:
/// a `PoissonSketch` encodes to exactly the bytes of the sketch it wraps,
/// and decodes either family's bytes by their [`sketch_tag`].
#[derive(Debug, Clone)]
pub enum PoissonSketch {
    /// A weight-oblivious Poisson sketch.
    Oblivious(ObliviousPoissonSketch),
    /// A weighted PPS Poisson sketch.
    Pps(PpsPoissonSketch),
}

impl PoissonSketch {
    /// The slot the sketch was opened for: its scheme (regime and
    /// parameter), instance index, and seed assignment.  Only sketches of
    /// one slot may merge, so a sketch restored from a file can be checked
    /// against the slot it is loaded into.
    #[must_use]
    pub fn slot(&self) -> (SampleScheme, u64, SeedAssignment) {
        match self {
            Self::Oblivious(s) => (
                SampleScheme::ObliviousPoisson { p: s.p },
                s.instance_index,
                s.seeds,
            ),
            Self::Pps(s) => (
                SampleScheme::PpsPoisson {
                    tau_star: s.tau_star,
                },
                s.instance_index,
                s.seeds,
            ),
        }
    }
}

impl Sketch for PoissonSketch {
    #[inline]
    fn ingest(&mut self, key: Key, weight: f64) {
        match self {
            Self::Oblivious(s) => s.ingest(key, weight),
            Self::Pps(s) => s.ingest(key, weight),
        }
    }

    fn merge(&mut self, other: &mut Self) {
        match (self, other) {
            (Self::Oblivious(a), Self::Oblivious(b)) => a.merge(b),
            (Self::Pps(a), Self::Pps(b)) => a.merge(b),
            _ => panic!("cannot merge weight-oblivious and PPS sketches"),
        }
    }

    fn finalize(&mut self) -> InstanceSample {
        match self {
            Self::Oblivious(s) => s.finalize(),
            Self::Pps(s) => s.finalize(),
        }
    }

    fn reset(&mut self, seeds: &SeedAssignment, instance_index: u64) {
        match self {
            Self::Oblivious(s) => s.reset(seeds, instance_index),
            Self::Pps(s) => s.reset(seeds, instance_index),
        }
    }

    fn ingested(&self) -> usize {
        match self {
            Self::Oblivious(s) => s.ingested(),
            Self::Pps(s) => s.ingested(),
        }
    }
}

impl pie_store::Encode for PoissonSketch {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), StoreError> {
        match self {
            Self::Oblivious(s) => s.encode(w),
            Self::Pps(s) => s.encode(w),
        }
    }
}

impl pie_store::Decode for PoissonSketch {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, StoreError> {
        match u32::decode(r)? {
            sketch_tag::OBLIVIOUS_POISSON => {
                ObliviousPoissonSketch::decode_fields(r).map(Self::Oblivious)
            }
            sketch_tag::PPS_POISSON => PpsPoissonSketch::decode_fields(r).map(Self::Pps),
            tag => Err(StoreError::InvalidTag {
                what: "PoissonSketch",
                tag,
            }),
        }
    }
}

/// Generic Poisson-τ sampling for an arbitrary rank family: keep a key iff
/// its rank (drawn from `F_{v}` using the key's seed) is below `tau`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdRankSampler<R: RankFamily> {
    family: R,
    tau: f64,
}

impl<R: RankFamily> ThresholdRankSampler<R> {
    /// Creates a sampler keeping keys with rank below `tau > 0`.
    ///
    /// # Panics
    /// Panics if `tau` is not strictly positive.
    #[must_use]
    pub fn new(family: R, tau: f64) -> Self {
        assert!(tau > 0.0, "tau must be positive, got {tau}");
        Self { family, tau }
    }

    /// The rank threshold τ.
    #[must_use]
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Samples `instance`; only positive-valued keys can be selected.
    #[must_use]
    pub fn sample(
        &self,
        instance: &Instance,
        seeds: &SeedAssignment,
        instance_index: u64,
    ) -> InstanceSample {
        let mut entries = Vec::new();
        for (key, value) in instance.iter() {
            if value <= 0.0 {
                continue;
            }
            let u = seeds.seed(key, instance_index);
            let rank = self.family.rank_from_seed(u, value);
            if rank < self.tau {
                entries.push((key, value));
            }
        }
        // Represent as a PPS or bottom-k style scheme?  The natural mapping is a
        // "bottom-k with known threshold" — we reuse the PpsPoisson descriptor
        // when the family is PPS (tau_star = 1/tau) and the BottomK descriptor
        // otherwise, so inclusion probabilities stay recomputable.
        let (scheme, threshold) = match self.family.name() {
            "pps" => (
                SampleScheme::PpsPoisson {
                    tau_star: 1.0 / self.tau,
                },
                1.0 / self.tau,
            ),
            _ => (
                SampleScheme::BottomK {
                    k: entries.len(),
                    ranks: RankKind::Exp,
                },
                self.tau,
            ),
        };
        InstanceSample::new(instance_index, scheme, threshold, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::{ExpRanks, PpsRanks};

    fn big_instance(n: u64, value: f64) -> Instance {
        Instance::from_pairs((0..n).map(|k| (k, value)))
    }

    #[test]
    fn oblivious_sampler_rate_matches_p() {
        let inst = big_instance(20_000, 1.0);
        let universe = inst.sorted_keys();
        let sampler = ObliviousPoissonSampler::new(0.3);
        let seeds = SeedAssignment::independent_known(7);
        let s = sampler.sample(&inst, &universe, &seeds, 0);
        let rate = s.len() as f64 / universe.len() as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn oblivious_sampler_includes_zero_valued_keys() {
        let inst = Instance::from_pairs([(1, 0.0), (2, 5.0)]);
        let universe = vec![1, 2, 3];
        let sampler = ObliviousPoissonSampler::new(1.0);
        let seeds = SeedAssignment::independent_known(7);
        let s = sampler.sample(&inst, &universe, &seeds, 0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.value(1), Some(0.0));
        assert_eq!(s.value(3), Some(0.0));
        assert_eq!(s.value(2), Some(5.0));
    }

    #[test]
    fn pps_sampler_rate_matches_inclusion_probability() {
        let inst = big_instance(20_000, 2.0);
        let sampler = PpsPoissonSampler::new(8.0); // p = 2/8 = 0.25
        let seeds = SeedAssignment::independent_known(3);
        let s = sampler.sample(&inst, &seeds, 0);
        let rate = s.len() as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn pps_sampler_always_keeps_heavy_keys() {
        let mut inst = big_instance(100, 0.001);
        inst.set(999, 100.0);
        let sampler = PpsPoissonSampler::new(50.0);
        let seeds = SeedAssignment::independent_known(11);
        let s = sampler.sample(&inst, &seeds, 0);
        assert!(s.contains(999), "value above tau_star must always be kept");
    }

    #[test]
    fn pps_sampler_never_keeps_zero_keys() {
        let inst = Instance::from_pairs([(1, 0.0), (2, 1.0)]);
        let sampler = PpsPoissonSampler::new(0.5);
        let seeds = SeedAssignment::independent_known(11);
        let s = sampler.sample(&inst, &seeds, 0);
        assert!(!s.contains(1));
        assert!(s.contains(2), "value >= tau_star is always sampled");
    }

    #[test]
    fn pps_with_expected_size_hits_target() {
        let inst = Instance::from_pairs((0..1000u64).map(|k| (k, 1.0 + (k % 7) as f64)));
        let sampler = PpsPoissonSampler::with_expected_size(&inst, 100.0).unwrap();
        let mut total = 0usize;
        let reps = 30;
        for rep in 0..reps {
            let seeds = SeedAssignment::independent_known(rep);
            total += sampler.sample(&inst, &seeds, 0).len();
        }
        let mean = total as f64 / reps as f64;
        assert!((mean - 100.0).abs() < 10.0, "mean sample size {mean}");
    }

    #[test]
    fn pps_with_expected_size_returns_none_when_k_too_large() {
        let inst = Instance::from_pairs([(1, 1.0), (2, 2.0)]);
        assert!(PpsPoissonSampler::with_expected_size(&inst, 5.0).is_none());
    }

    #[test]
    fn threshold_rank_sampler_pps_equivalent_to_pps_poisson() {
        // ThresholdRankSampler with PPS ranks and tau = 1/τ* selects exactly the
        // same keys as PpsPoissonSampler with τ*.
        let inst = Instance::from_pairs((0..500u64).map(|k| (k, 0.5 + (k % 13) as f64)));
        let seeds = SeedAssignment::independent_known(5);
        let tau_star = 20.0;
        let a = PpsPoissonSampler::new(tau_star).sample(&inst, &seeds, 0);
        let b = ThresholdRankSampler::new(PpsRanks, 1.0 / tau_star).sample(&inst, &seeds, 0);
        assert_eq!(a.sorted_keys(), b.sorted_keys());
    }

    #[test]
    fn threshold_rank_sampler_exp_rate() {
        let inst = big_instance(20_000, 1.0);
        // With EXP ranks and tau, inclusion prob = 1 - e^{-tau}.
        let tau = 0.5f64;
        let sampler = ThresholdRankSampler::new(ExpRanks, tau);
        let seeds = SeedAssignment::independent_known(17);
        let s = sampler.sample(&inst, &seeds, 0);
        let rate = s.len() as f64 / 20_000.0;
        let expect = 1.0 - (-tau).exp();
        assert!((rate - expect).abs() < 0.02, "rate {rate} expect {expect}");
    }

    #[test]
    fn shared_seed_sampling_is_coordinated() {
        // With shared seeds and equal values, the *same* keys are sampled in
        // both instances (full coordination).
        let inst = big_instance(5000, 1.0);
        let sampler = PpsPoissonSampler::new(4.0);
        let seeds = SeedAssignment::shared(23);
        let s0 = sampler.sample(&inst, &seeds, 0);
        let s1 = sampler.sample(&inst, &seeds, 1);
        assert_eq!(s0.sorted_keys(), s1.sorted_keys());
    }

    #[test]
    fn independent_sampling_is_not_coordinated() {
        let inst = big_instance(5000, 1.0);
        let sampler = PpsPoissonSampler::new(4.0);
        let seeds = SeedAssignment::independent_known(23);
        let s0 = sampler.sample(&inst, &seeds, 0);
        let s1 = sampler.sample(&inst, &seeds, 1);
        assert_ne!(s0.sorted_keys(), s1.sorted_keys());
        // Overlap should be roughly p^2 * n = 312, far less than p*n = 1250.
        let keys0 = s0.sorted_keys();
        let overlap = keys0.iter().filter(|&&k| s1.contains(k)).count();
        assert!(
            (overlap as f64) < 0.6 * keys0.len() as f64,
            "overlap {overlap} of {}",
            keys0.len()
        );
    }

    #[test]
    #[should_panic(expected = "p must be in (0,1]")]
    fn oblivious_rejects_bad_p() {
        let _ = ObliviousPoissonSampler::new(1.5);
    }

    #[test]
    #[should_panic(expected = "tau_star must be positive")]
    fn pps_rejects_bad_tau() {
        let _ = PpsPoissonSampler::new(0.0);
    }
}
