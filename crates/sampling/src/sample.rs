//! The result of summarizing one instance: an [`InstanceSample`].
//!
//! A sample stores the sampled keys with their exact values plus just enough
//! metadata (the scheme and its threshold) to recompute per-key inclusion
//! probabilities — which is all downstream estimators need.  For bottom-k
//! samples the stored threshold is the `(k+1)`-st smallest rank, so inclusion
//! probabilities are the *rank-conditioned* (RC) probabilities of
//! Section 7.1, which let bottom-k samples be treated like Poisson samples
//! for estimation purposes.
//!
//! Samples are produced either by a streaming [`Sketch`](crate::Sketch)
//! (`ingest` → `merge` → `finalize`) or by the batch `sample()` wrappers,
//! which are thin shims over the same sketches.  Entries are stored **sorted
//! by key**, so iteration order, equality, and report output are
//! deterministic across processes — two runs with the same seeds produce
//! bit-identical samples regardless of ingestion sharding.

use pie_store::StoreError;

use crate::instance::Key;

/// Which rank family a rank-based sampler used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankKind {
    /// PPS ranks `u/w` (priority sampling when used with bottom-k).
    Pps,
    /// Exponential ranks `−ln(1−u)/w` (weighted sampling without replacement).
    Exp,
}

/// The sampling scheme that produced an [`InstanceSample`], with the
/// parameters needed to recompute inclusion probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleScheme {
    /// Weight-oblivious Poisson sampling: every key of the universe is kept
    /// independently with probability `p`, regardless of its value.
    ObliviousPoisson {
        /// Per-key inclusion probability.
        p: f64,
    },
    /// Weighted Poisson PPS sampling: a key of value `v` is kept with
    /// probability `min(1, v / tau_star)`.
    PpsPoisson {
        /// The PPS threshold τ*.
        tau_star: f64,
    },
    /// Bottom-k (order) sampling with the given rank family.  `threshold` on
    /// the sample is the `(k+1)`-st smallest rank; conditioned on it, a key of
    /// value `v` is included with probability `F_v(threshold)`.
    BottomK {
        /// Sample size.
        k: usize,
        /// Rank family used to draw ranks.
        ranks: RankKind,
    },
}

impl SampleScheme {
    /// Whether this scheme is weighted (inclusion depends on the value).
    #[must_use]
    pub fn is_weighted(&self) -> bool {
        !matches!(self, SampleScheme::ObliviousPoisson { .. })
    }
}

/// A summary of one instance: the sampled keys with their values, plus the
/// scheme metadata needed to compute inclusion probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSample {
    /// Index of the instance this sample summarizes (matches the instance's
    /// position in the multi-instance sampling call).
    pub instance_index: u64,
    /// The scheme that produced the sample.
    pub scheme: SampleScheme,
    /// Scheme-specific threshold:
    /// * `ObliviousPoisson` — unused (0),
    /// * `PpsPoisson` — τ* (duplicated for convenience),
    /// * `BottomK` — the `(k+1)`-st smallest rank (`+∞` if fewer than `k+1` keys).
    pub threshold: f64,
    /// Sampled `(key, value)` pairs, sorted ascending by key.
    entries: Vec<(Key, f64)>,
}

impl InstanceSample {
    /// Creates a sample from its parts.
    ///
    /// `entries` may arrive in any order (a `HashMap`, a drained sketch
    /// buffer, …); they are canonicalized to ascending key order so that
    /// iteration, equality, and rendering are deterministic.  If a key occurs
    /// more than once, the occurrence that survives is unspecified — sketches
    /// and samplers never emit duplicates.
    #[must_use]
    pub fn new(
        instance_index: u64,
        scheme: SampleScheme,
        threshold: f64,
        entries: impl IntoIterator<Item = (Key, f64)>,
    ) -> Self {
        let mut entries: Vec<(Key, f64)> = entries.into_iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.dedup_by_key(|&mut (k, _)| k);
        Self {
            instance_index,
            scheme,
            threshold,
            entries,
        }
    }

    /// Number of sampled keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the sample is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` was sampled.
    #[must_use]
    pub fn contains(&self, key: Key) -> bool {
        self.entries.binary_search_by_key(&key, |&(k, _)| k).is_ok()
    }

    /// The sampled value of `key`, or `None` if the key was not sampled.
    #[must_use]
    pub fn value(&self, key: Key) -> Option<f64> {
        self.entries
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Iterator over sampled `(key, value)` pairs in ascending key order
    /// (deterministic across runs and processes).
    pub fn iter(&self) -> impl Iterator<Item = (Key, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The sampled `(key, value)` pairs as a slice, sorted ascending by key.
    #[must_use]
    pub fn entries(&self) -> &[(Key, f64)] {
        &self.entries
    }

    /// Writes this sample's value/presence lanes for `keys` in one merge-join
    /// pass: `value[i]` gets the sampled value of `keys[i]` (or `0.0`), and
    /// `present[i]` gets `1.0` where sampled, `0.0` otherwise.
    ///
    /// `keys` must be sorted ascending (the key-union invariant); the walk is
    /// then `O(keys.len() + sample_len)` instead of a binary search per key.
    ///
    /// # Panics
    /// Panics if the output slices do not match `keys` in length.
    pub fn fill_value_lane(&self, keys: &[Key], value: &mut [f64], present: &mut [f64]) {
        assert_eq!(keys.len(), value.len(), "value lane length mismatch");
        assert_eq!(keys.len(), present.len(), "present lane length mismatch");
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "fill_value_lane requires strictly ascending keys"
        );
        let mut cursor = 0usize;
        for ((slot_v, slot_m), &key) in value.iter_mut().zip(present.iter_mut()).zip(keys) {
            while cursor < self.entries.len() && self.entries[cursor].0 < key {
                cursor += 1;
            }
            if cursor < self.entries.len() && self.entries[cursor].0 == key {
                *slot_v = self.entries[cursor].1;
                *slot_m = 1.0;
            } else {
                *slot_v = 0.0;
                *slot_m = 0.0;
            }
        }
    }

    /// Sampled keys sorted ascending (deterministic order for reports/tests).
    #[must_use]
    pub fn sorted_keys(&self) -> Vec<Key> {
        self.entries.iter().map(|&(k, _)| k).collect()
    }

    /// The inclusion probability of a key with value `value` under this
    /// sample's scheme (conditioned on the stored threshold for bottom-k).
    ///
    /// This is the `p` used by Horvitz–Thompson style estimators.  It is well
    /// defined for any value, whether or not the key was sampled.
    #[must_use]
    pub fn inclusion_probability(&self, value: f64) -> f64 {
        match self.scheme {
            SampleScheme::ObliviousPoisson { p } => p,
            SampleScheme::PpsPoisson { tau_star } => {
                if tau_star <= 0.0 {
                    1.0
                } else {
                    (value / tau_star).clamp(0.0, 1.0)
                }
            }
            SampleScheme::BottomK { ranks, .. } => {
                if !self.threshold.is_finite() {
                    // Fewer than k+1 keys: everything with positive value is kept.
                    if value > 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    match ranks {
                        RankKind::Pps => (value * self.threshold).clamp(0.0, 1.0),
                        RankKind::Exp => -(-value * self.threshold).exp_m1(),
                    }
                }
            }
        }
    }

    /// The Horvitz–Thompson estimate of the total value of all keys in a
    /// selected subset, `Σ_{h ∈ K'} v(h)` (a single-instance subset-sum query).
    ///
    /// `select` decides membership of a key in the queried subset `K'`.
    #[must_use]
    pub fn ht_subset_sum<F: Fn(Key) -> bool>(&self, select: F) -> f64 {
        self.iter()
            .filter(|&(k, _)| select(k))
            .map(|(_, v)| {
                let p = self.inclusion_probability(v);
                if p > 0.0 {
                    v / p
                } else {
                    0.0
                }
            })
            .sum()
    }
}

impl pie_store::Encode for RankKind {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), StoreError> {
        let tag: u32 = match self {
            Self::Pps => 0,
            Self::Exp => 1,
        };
        tag.encode(w)
    }
}

impl pie_store::Decode for RankKind {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, StoreError> {
        match u32::decode(r)? {
            0 => Ok(Self::Pps),
            1 => Ok(Self::Exp),
            tag => Err(StoreError::InvalidTag {
                what: "RankKind",
                tag,
            }),
        }
    }
}

impl pie_store::Encode for SampleScheme {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), StoreError> {
        match *self {
            Self::ObliviousPoisson { p } => {
                0u32.encode(w)?;
                p.encode(w)
            }
            Self::PpsPoisson { tau_star } => {
                1u32.encode(w)?;
                tau_star.encode(w)
            }
            Self::BottomK { k, ranks } => {
                2u32.encode(w)?;
                k.encode(w)?;
                ranks.encode(w)
            }
        }
    }
}

impl pie_store::Decode for SampleScheme {
    /// Tag `3` belonged to a retired fixed-size reservoir scheme; it is
    /// reserved, never reused, and decodes to [`StoreError::InvalidTag`].
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, StoreError> {
        match u32::decode(r)? {
            0 => Ok(Self::ObliviousPoisson { p: f64::decode(r)? }),
            1 => Ok(Self::PpsPoisson {
                tau_star: f64::decode(r)?,
            }),
            2 => Ok(Self::BottomK {
                k: usize::decode(r)?,
                ranks: RankKind::decode(r)?,
            }),
            tag => Err(StoreError::InvalidTag {
                what: "SampleScheme",
                tag,
            }),
        }
    }
}

impl pie_store::Encode for InstanceSample {
    /// Entries are stored key-sorted already, so the encoding is canonical:
    /// equal samples produce identical bytes.
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), StoreError> {
        self.instance_index.encode(w)?;
        self.scheme.encode(w)?;
        self.threshold.encode(w)?;
        self.entries.encode(w)
    }
}

impl pie_store::Decode for InstanceSample {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, StoreError> {
        let instance_index = u64::decode(r)?;
        let scheme = SampleScheme::decode(r)?;
        let threshold = f64::decode(r)?;
        let entries: Vec<(Key, f64)> = Vec::decode(r)?;
        // The strictly-ascending key order is the invariant every accessor
        // (binary search, deterministic iteration) relies on; reject inputs
        // that violate it rather than silently re-sorting, so a decoded
        // sample is guaranteed byte-identical to its source.
        if entries.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(StoreError::InvalidValue {
                what: "InstanceSample entries must be strictly ascending by key",
            });
        }
        Ok(Self {
            instance_index,
            scheme,
            threshold,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_with(scheme: SampleScheme, threshold: f64) -> InstanceSample {
        InstanceSample::new(0, scheme, threshold, [(2, 0.5), (1, 10.0)])
    }

    #[test]
    fn oblivious_inclusion_probability_is_constant() {
        let s = sample_with(SampleScheme::ObliviousPoisson { p: 0.3 }, 0.0);
        assert_eq!(s.inclusion_probability(10.0), 0.3);
        assert_eq!(s.inclusion_probability(0.0), 0.3);
    }

    #[test]
    fn pps_inclusion_probability_caps_at_one() {
        let s = sample_with(SampleScheme::PpsPoisson { tau_star: 4.0 }, 4.0);
        assert_eq!(s.inclusion_probability(2.0), 0.5);
        assert_eq!(s.inclusion_probability(8.0), 1.0);
        assert_eq!(s.inclusion_probability(0.0), 0.0);
    }

    #[test]
    fn bottomk_pps_rank_conditioned_probability() {
        let s = sample_with(
            SampleScheme::BottomK {
                k: 2,
                ranks: RankKind::Pps,
            },
            0.1,
        );
        // rank = u/v < 0.1  ⇔  u < 0.1 v ⇒ probability min(1, 0.1 v)
        assert!((s.inclusion_probability(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.inclusion_probability(100.0), 1.0);
    }

    #[test]
    fn bottomk_exp_rank_conditioned_probability() {
        let s = sample_with(
            SampleScheme::BottomK {
                k: 2,
                ranks: RankKind::Exp,
            },
            0.2,
        );
        let expected = 1.0 - (-0.2f64 * 3.0).exp();
        assert!((s.inclusion_probability(3.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn bottomk_infinite_threshold_keeps_positive_keys() {
        let s = sample_with(
            SampleScheme::BottomK {
                k: 10,
                ranks: RankKind::Pps,
            },
            f64::INFINITY,
        );
        assert_eq!(s.inclusion_probability(1.0), 1.0);
        assert_eq!(s.inclusion_probability(0.0), 0.0);
    }

    #[test]
    fn ht_subset_sum_uses_inclusion_probability() {
        let s = sample_with(SampleScheme::PpsPoisson { tau_star: 20.0 }, 20.0);
        // key 1 value 10 => p = 0.5 => contributes 20; key 2 value 0.5 => p = 0.025 => 20.
        let total = s.ht_subset_sum(|_| true);
        assert!((total - 40.0).abs() < 1e-9);
        let only_key1 = s.ht_subset_sum(|k| k == 1);
        assert!((only_key1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn accessors() {
        let s = sample_with(SampleScheme::ObliviousPoisson { p: 0.5 }, 0.0);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(s.contains(1));
        assert!(!s.contains(3));
        assert_eq!(s.value(2), Some(0.5));
        assert_eq!(s.value(3), None);
        assert_eq!(s.sorted_keys(), vec![1, 2]);
    }

    #[test]
    fn entries_are_canonicalized_to_key_order() {
        let scheme = SampleScheme::ObliviousPoisson { p: 0.5 };
        let a = InstanceSample::new(0, scheme, 0.0, [(5, 1.0), (1, 2.0), (3, 4.0)]);
        let b = InstanceSample::new(0, scheme, 0.0, [(3, 4.0), (5, 1.0), (1, 2.0)]);
        assert_eq!(a, b, "insertion order must not affect equality");
        assert_eq!(a.entries(), &[(1, 2.0), (3, 4.0), (5, 1.0)]);
        let collected: Vec<(Key, f64)> = a.iter().collect();
        assert_eq!(collected, vec![(1, 2.0), (3, 4.0), (5, 1.0)]);
    }

    #[test]
    fn scheme_weighted_flag() {
        assert!(!SampleScheme::ObliviousPoisson { p: 0.1 }.is_weighted());
        assert!(SampleScheme::PpsPoisson { tau_star: 1.0 }.is_weighted());
        assert!(SampleScheme::BottomK {
            k: 3,
            ranks: RankKind::Exp
        }
        .is_weighted());
    }
}
