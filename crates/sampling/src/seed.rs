//! Seed assignments: the source of randomness used when sampling instances.
//!
//! The paper (Section 2) formalizes weighted sampling via a *seed vector*
//! `u ∈ [0,1]^r` with uniformly distributed entries: entry `i` of the data
//! vector is sampled iff `v_i ≥ τ_i(u_i)`.  Two joint distributions of the
//! seed vector matter:
//!
//! * **Independent** seeds — `u_1, …, u_r` are independent; the samples of
//!   different instances are independent.
//! * **Shared-seed (coordinated)** seeds — `u_1 = … = u_r`; similar instances
//!   receive similar samples, which benefits multi-instance estimation
//!   (Section 7.2).
//!
//! Orthogonally, seeds may be **known** to the estimator (hash-generated and
//! recomputable — the model of Section 5) or **unknown** (the model of
//! Section 6, where no nonnegative unbiased estimator exists for most
//! multi-instance functions).
//!
//! [`SeedAssignment`] captures a concrete choice of randomization.  All
//! variants are deterministic functions of `(key, instance)` given a salt, so
//! the *processing of one instance never depends on values in another* — the
//! dispersed-data constraint of Section 2.

use crate::hash::Hasher64;

/// How seeds of the same key are related across instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coordination {
    /// Every `(key, instance)` pair gets an independent uniform seed.
    Independent,
    /// All instances share a single per-key seed (`u_1 = … = u_r`), producing
    /// coordinated (PRN / consistent-rank) samples.
    SharedSeed,
}

/// Whether the seeds are available to the estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedVisibility {
    /// Seeds are hash-generated and can be recomputed by the estimator
    /// (the "known seeds" model of Section 5).
    Known,
    /// Seeds are not available to the estimator (Section 6).  Sampling
    /// behaves the same; only the information exposed in outcomes changes.
    Unknown,
}

/// A deterministic assignment of uniform seeds to `(key, instance)` pairs.
///
/// The assignment is a pure function: calling [`SeedAssignment::seed`] twice
/// with the same arguments always returns the same value, which is what makes
/// the "known seeds" estimation model implementable in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedAssignment {
    hasher: Hasher64,
    coordination: Coordination,
    visibility: SeedVisibility,
}

impl SeedAssignment {
    /// Creates an independent, known-seed assignment (the main model of Section 5).
    #[must_use]
    pub fn independent_known(salt: u64) -> Self {
        Self {
            hasher: Hasher64::new(salt),
            coordination: Coordination::Independent,
            visibility: SeedVisibility::Known,
        }
    }

    /// Creates an independent, unknown-seed assignment (the model of Section 6).
    #[must_use]
    pub fn independent_unknown(salt: u64) -> Self {
        Self {
            hasher: Hasher64::new(salt),
            coordination: Coordination::Independent,
            visibility: SeedVisibility::Unknown,
        }
    }

    /// Creates a shared-seed (coordinated) known-seed assignment (Section 7.2).
    #[must_use]
    pub fn shared(salt: u64) -> Self {
        Self {
            hasher: Hasher64::new(salt),
            coordination: Coordination::SharedSeed,
            visibility: SeedVisibility::Known,
        }
    }

    /// Creates an assignment with explicit coordination and visibility.
    #[must_use]
    pub fn new(salt: u64, coordination: Coordination, visibility: SeedVisibility) -> Self {
        Self {
            hasher: Hasher64::new(salt),
            coordination,
            visibility,
        }
    }

    /// The coordination mode of this assignment.
    #[must_use]
    pub fn coordination(&self) -> Coordination {
        self.coordination
    }

    /// Whether estimators are allowed to observe these seeds.
    #[must_use]
    pub fn visibility(&self) -> SeedVisibility {
        self.visibility
    }

    /// Returns the uniform seed in `(0, 1)` for `key` in `instance`.
    ///
    /// For [`Coordination::SharedSeed`] the instance index is ignored, so all
    /// instances see the same per-key seed.
    #[inline]
    #[must_use]
    pub fn seed(&self, key: u64, instance: u64) -> f64 {
        match self.coordination {
            Coordination::Independent => self.hasher.open_unit_pair(key, instance),
            Coordination::SharedSeed => self.hasher.open_unit(key),
        }
    }

    /// Derives a deterministic 64-bit RNG seed for `(instance, shard)`.
    ///
    /// Schemes that need fresh (non-hash-seeded) randomness — VarOpt's
    /// eviction draws — use this to seed a per-sketch RNG: runs with the same
    /// salt are reproducible, while distinct shards of the same instance get
    /// decorrelated streams.  Per-key sampling seeds are untouched.
    #[inline]
    #[must_use]
    pub fn rng_seed(&self, instance: u64, shard: u64) -> u64 {
        self.hasher.hash_pair(instance, shard)
    }

    /// Returns the seed if it is visible to estimators, `None` otherwise.
    ///
    /// This is the accessor estimator-construction code should use: it makes
    /// it impossible to accidentally build a "known seeds" estimator on top of
    /// an unknown-seed sampling configuration.
    #[inline]
    #[must_use]
    pub fn visible_seed(&self, key: u64, instance: u64) -> Option<f64> {
        match self.visibility {
            SeedVisibility::Known => Some(self.seed(key, instance)),
            SeedVisibility::Unknown => None,
        }
    }
}

impl pie_store::Encode for Coordination {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), pie_store::StoreError> {
        let tag: u32 = match self {
            Self::Independent => 0,
            Self::SharedSeed => 1,
        };
        tag.encode(w)
    }
}

impl pie_store::Decode for Coordination {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, pie_store::StoreError> {
        match u32::decode(r)? {
            0 => Ok(Self::Independent),
            1 => Ok(Self::SharedSeed),
            tag => Err(pie_store::StoreError::InvalidTag {
                what: "Coordination",
                tag,
            }),
        }
    }
}

impl pie_store::Encode for SeedVisibility {
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), pie_store::StoreError> {
        let tag: u32 = match self {
            Self::Known => 0,
            Self::Unknown => 1,
        };
        tag.encode(w)
    }
}

impl pie_store::Decode for SeedVisibility {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, pie_store::StoreError> {
        match u32::decode(r)? {
            0 => Ok(Self::Known),
            1 => Ok(Self::Unknown),
            tag => Err(pie_store::StoreError::InvalidTag {
                what: "SeedVisibility",
                tag,
            }),
        }
    }
}

impl pie_store::Encode for SeedAssignment {
    /// Writes the mixed hash salt plus the coordination and visibility tags;
    /// the decoded assignment reproduces every seed bit for bit.
    fn encode(&self, w: &mut dyn std::io::Write) -> Result<(), pie_store::StoreError> {
        self.hasher.encode(w)?;
        self.coordination.encode(w)?;
        self.visibility.encode(w)
    }
}

impl pie_store::Decode for SeedAssignment {
    fn decode(r: &mut dyn std::io::Read) -> Result<Self, pie_store::StoreError> {
        Ok(Self {
            hasher: crate::hash::Hasher64::decode(r)?,
            coordination: Coordination::decode(r)?,
            visibility: SeedVisibility::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_seed_ignores_instance() {
        let s = SeedAssignment::shared(3);
        for key in 0..100u64 {
            assert_eq!(s.seed(key, 0), s.seed(key, 1));
            assert_eq!(s.seed(key, 0), s.seed(key, 17));
        }
    }

    #[test]
    fn independent_seed_differs_across_instances() {
        let s = SeedAssignment::independent_known(3);
        let mut diffs = 0;
        for key in 0..100u64 {
            if s.seed(key, 0) != s.seed(key, 1) {
                diffs += 1;
            }
        }
        assert_eq!(diffs, 100);
    }

    #[test]
    fn seeds_are_deterministic() {
        let a = SeedAssignment::independent_known(9);
        let b = SeedAssignment::independent_known(9);
        for key in 0..50u64 {
            for inst in 0..3u64 {
                assert_eq!(a.seed(key, inst), b.seed(key, inst));
            }
        }
    }

    #[test]
    fn seeds_in_open_unit_interval() {
        let s = SeedAssignment::independent_known(11);
        for key in 0..1000u64 {
            let u = s.seed(key, key % 5);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn unknown_visibility_hides_seed() {
        let s = SeedAssignment::independent_unknown(5);
        assert_eq!(s.visible_seed(1, 0), None);
        let k = SeedAssignment::independent_known(5);
        assert_eq!(k.visible_seed(1, 0), Some(k.seed(1, 0)));
    }

    #[test]
    fn different_salts_give_different_assignments() {
        let a = SeedAssignment::independent_known(1);
        let b = SeedAssignment::independent_known(2);
        let same = (0..100u64)
            .filter(|&k| a.seed(k, 0) == b.seed(k, 0))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn independent_seeds_look_uniform() {
        let s = SeedAssignment::independent_known(123);
        let n = 20_000u64;
        let mean = (0..n).map(|k| s.seed(k, 1)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01);
    }
}
