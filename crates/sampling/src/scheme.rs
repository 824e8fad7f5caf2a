//! The unified streaming sampling API: [`SamplingScheme`] and [`Sketch`].
//!
//! Production ingestion does not see fully materialized
//! [`Instance`](crate::Instance)s: records `(key, weight)` arrive one at a
//! time, usually spread over many shards.  Every sampling family in this
//! crate therefore summarizes an instance through a *sketch* — a small,
//! mergeable accumulator driven by three operations:
//!
//! 1. [`Sketch::ingest`] — one-pass per-record update, no instance
//!    materialization;
//! 2. [`Sketch::merge`] — combine the sketches of two shards of the same
//!    logical stream;
//! 3. [`Sketch::finalize`] — produce the [`InstanceSample`] the estimators
//!    in `pie-core` consume (rank-conditioned thresholds included).
//!
//! A [`SamplingScheme`] is the scheme configuration (sampling probability,
//! PPS threshold, `k`, …) that knows how to open sketches for a given
//! randomization.  The legacy batch `sample()` methods on the concrete
//! samplers are retained as thin wrappers: they open one sketch, ingest the
//! instance, and finalize — so streaming and batch paths cannot drift apart.
//!
//! # Sharding contract
//!
//! A logical stream is the set of records of **one instance**.  It may be
//! split into any number of shards as long as records of the same key land in
//! the same shard (partition by key, e.g. [`crate::hash::mix64`]`(key) %
//! shards`) and each key appears at most once per logical stream (records are
//! pre-aggregated per key, as in a keyed log).  Under that contract the
//! merged result of every scheme here (oblivious Poisson, PPS Poisson,
//! bottom-k) is **bit-identical** to ingesting the concatenated stream into
//! a single sketch: per-record decisions are pure functions of
//! `(key, weight, seed)`.
//!
//! # Reuse
//!
//! Sketches are designed to be pooled: [`Sketch::finalize`] drains the
//! accumulated state but keeps the allocation, and [`Sketch::reset`] rebinds
//! the sketch to a new trial's randomization.  A steady-state ingest loop
//! performs no per-record heap allocation.

use crate::instance::Key;
use crate::sample::InstanceSample;
use crate::seed::SeedAssignment;

/// A streaming, mergeable summary of one instance's record stream.
///
/// See the [module docs](self) for the ingest → merge → finalize lifecycle
/// and the sharding contract.
pub trait Sketch: Send {
    /// Offers one `(key, weight)` record.
    ///
    /// Weighted schemes ignore non-positive weights (their rank is infinite);
    /// the weight-oblivious scheme gives zero-weight records the same
    /// Bernoulli trial as any other, because zero-valued universe keys carry
    /// information for multi-instance functions such as OR and max.
    fn ingest(&mut self, key: Key, weight: f64);

    /// Merges `other` — a sketch of the same scheme over a disjoint shard of
    /// the same logical stream — into `self`, draining `other` (it is left
    /// empty and can be reset and reused).
    ///
    /// # Panics
    /// Implementations panic if the two sketches have incompatible
    /// configurations (different `k`, different thresholds, …).
    fn merge(&mut self, other: &mut Self);

    /// Finalizes the accumulated stream into an [`InstanceSample`], draining
    /// the sketch.  The sketch keeps its allocations and can be [`reset`]
    /// (or ingested into again, which restarts an empty stream).
    ///
    /// [`reset`]: Sketch::reset
    fn finalize(&mut self) -> InstanceSample;

    /// Clears accumulated state and rebinds the sketch to a (possibly new)
    /// randomization, retaining allocated capacity — the pool-reuse path.
    fn reset(&mut self, seeds: &SeedAssignment, instance_index: u64);

    /// Number of records counted since the last reset/finalize (weighted
    /// schemes count positive-weight records only).
    fn ingested(&self) -> usize;

    /// Merges a group of sibling sketches — shards of the same logical stream
    /// — leaving the combined result in `group[0]` and draining the rest.
    ///
    /// The default implementation runs the balanced binary merge tree that
    /// [`merge_tree`] always used.  Schemes whose retained state is a pure
    /// function of the record *set* (bottom-k) override this with a single
    /// k-bounded selection over all candidates, which costs O(total
    /// candidates) comparisons instead of O(shards · k log k)
    /// re-heapification.
    fn merge_many(group: &mut [&mut Self])
    where
        Self: Sized,
    {
        let mut step = 1;
        while step < group.len() {
            let mut i = 0;
            while i + step < group.len() {
                let (left, right) = group.split_at_mut(i + step);
                left[i].merge(&mut *right[0]);
                i += 2 * step;
            }
            step *= 2;
        }
    }

    /// Resets and sequentially ingests the key-partitioned parts of **one**
    /// logical stream into this group of sketches (`group[s]` receives
    /// `parts[s]`), on the calling thread.
    ///
    /// This is the single-worker execution of a sharded ingest pass: the
    /// default implementation ingests each shard independently, producing
    /// exactly the sketch states the one-thread-per-shard path produces.
    /// Schemes whose retained state is a pure function of the record set may
    /// override it to share retention work across the group (bottom-k routes
    /// all parts through one bounded candidate set).  After an overriding
    /// scheme's group ingest, the individual sketches are only meaningful
    /// merged together via [`merge_many`](Sketch::merge_many) over the full
    /// group — which is what the sharded ingest choreography does.
    ///
    /// # Panics
    /// Panics if `group` and `parts` have different lengths.
    fn ingest_group(
        group: &mut [&mut Self],
        parts: &[&[(Key, f64)]],
        seeds: &SeedAssignment,
        instance_index: u64,
    ) where
        Self: Sized,
    {
        assert_eq!(
            group.len(),
            parts.len(),
            "group ingest needs one sketch per stream part"
        );
        for (sketch, part) in group.iter_mut().zip(parts) {
            sketch.reset(seeds, instance_index);
            for &(key, value) in *part {
                sketch.ingest(key, value);
            }
        }
    }
}

/// A sampling scheme whose per-instance summarization runs as a streaming,
/// mergeable [`Sketch`].
///
/// Implemented by all three sampling families:
///
/// | scheme | sketch | retained state |
/// |---|---|---|
/// | [`ObliviousPoissonSampler`](crate::ObliviousPoissonSampler) | [`ObliviousPoissonSketch`](crate::ObliviousPoissonSketch) | selected records |
/// | [`PpsPoissonSampler`](crate::PpsPoissonSampler) | [`PpsPoissonSketch`](crate::PpsPoissonSketch) | selected records |
/// | [`BottomKSampler`](crate::BottomKSampler) | [`BottomKSketch`](crate::BottomKSketch) | bounded `k + 1` heap |
pub trait SamplingScheme {
    /// The streaming summary state this scheme accumulates.
    type Sketch: Sketch;

    /// Human-readable scheme name (used in reports and bench output).
    fn name(&self) -> &'static str;

    /// Opens an empty sketch for `instance_index` under `seeds` (shard 0).
    fn sketch(&self, seeds: &SeedAssignment, instance_index: u64) -> Self::Sketch;

    /// Opens an empty sketch for one shard of `instance_index`'s stream.
    ///
    /// Every scheme here is hash-seeded and ignores `shard`: its per-record
    /// decisions depend only on `(key, seed)`, which is what makes shard
    /// merges bit-identical to single-stream ingestion.
    fn sketch_for_shard(
        &self,
        seeds: &SeedAssignment,
        instance_index: u64,
        shard: u64,
    ) -> Self::Sketch {
        let _ = shard;
        self.sketch(seeds, instance_index)
    }
}

/// Discriminant tags identifying the sketch family at the head of every
/// sketch snapshot payload.
///
/// Each sketch's [`Encode`](pie_store::Encode) impl writes its family tag
/// first and its [`Decode`](pie_store::Decode) impl validates it, so feeding
/// a snapshot of one family to another family's decoder yields a typed
/// [`InvalidTag`](pie_store::StoreError::InvalidTag) instead of garbage
/// state.
pub mod sketch_tag {
    /// [`ObliviousPoissonSketch`](crate::ObliviousPoissonSketch) snapshots.
    pub const OBLIVIOUS_POISSON: u32 = 1;
    /// [`PpsPoissonSketch`](crate::PpsPoissonSketch) snapshots.
    pub const PPS_POISSON: u32 = 2;
    /// [`BottomKSketch`](crate::BottomKSketch) snapshots (any rank family).
    pub const BOTTOM_K: u32 = 3;
    /// Reserved: the tag of a retired fixed-size reservoir (VarOpt) sketch.
    /// Never reused, so an old snapshot carrying it is rejected by every
    /// decoder with a typed error instead of being misread.
    pub const VAR_OPT: u32 = 4;
}

/// Merges a slice of sibling sketches, leaving the combined result in
/// `sketches[0]` (all others are drained).
///
/// Delegates to [`Sketch::merge_many`]: the default is a balanced binary
/// merge tree (shard `i` absorbs shard `i + step` per round, as in a
/// distributed reduce), while set-determined schemes such as bottom-k
/// substitute a single k-bounded selection over all candidates.  For
/// deterministic, hash-seeded schemes the finalized result is independent of
/// the merge strategy.
///
/// Does nothing on an empty slice.
pub fn merge_tree<K: Sketch>(sketches: &mut [K]) {
    let mut group: Vec<&mut K> = sketches.iter_mut().collect();
    K::merge_many(&mut group);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottomk::BottomKSampler;
    use crate::poisson::{ObliviousPoissonSampler, PpsPoissonSampler};
    use crate::rank::PpsRanks;

    fn records(n: u64) -> Vec<(Key, f64)> {
        (0..n).map(|k| (k, 0.5 + (k % 7) as f64)).collect()
    }

    /// Ingests `records` into a single sketch and via `shards`-way key
    /// partitioning + merge tree, and returns both finalized samples.
    fn single_vs_sharded<S: SamplingScheme>(
        scheme: &S,
        recs: &[(Key, f64)],
        shards: usize,
        seeds: &SeedAssignment,
    ) -> (InstanceSample, InstanceSample) {
        let mut single = scheme.sketch(seeds, 0);
        for &(k, v) in recs {
            single.ingest(k, v);
        }
        let mut pool: Vec<S::Sketch> = (0..shards)
            .map(|s| scheme.sketch_for_shard(seeds, 0, s as u64))
            .collect();
        for &(k, v) in recs {
            pool[crate::hash::mix64(k) as usize % shards].ingest(k, v);
        }
        merge_tree(&mut pool);
        (single.finalize(), pool[0].finalize())
    }

    #[test]
    fn merge_tree_is_bit_identical_for_hash_seeded_schemes() {
        let recs = records(500);
        let seeds = SeedAssignment::independent_known(42);
        for shards in [1, 2, 3, 4, 7] {
            let (a, b) = single_vs_sharded(&PpsPoissonSampler::new(8.0), &recs, shards, &seeds);
            assert_eq!(a, b, "pps, {shards} shards");
            let (a, b) =
                single_vs_sharded(&ObliviousPoissonSampler::new(0.3), &recs, shards, &seeds);
            assert_eq!(a, b, "oblivious, {shards} shards");
            let (a, b) =
                single_vs_sharded(&BottomKSampler::new(PpsRanks, 32), &recs, shards, &seeds);
            assert_eq!(a, b, "bottom-k, {shards} shards");
        }
    }

    #[test]
    fn sketches_are_reusable_after_finalize_and_reset() {
        let scheme = PpsPoissonSampler::new(4.0);
        let seeds_a = SeedAssignment::independent_known(1);
        let seeds_b = SeedAssignment::independent_known(2);
        let recs = records(200);
        let mut sketch = scheme.sketch(&seeds_a, 0);
        for &(k, v) in &recs {
            sketch.ingest(k, v);
        }
        let first = sketch.finalize();
        assert_eq!(sketch.ingested(), 0, "finalize drains the sketch");
        sketch.reset(&seeds_b, 3);
        for &(k, v) in &recs {
            sketch.ingest(k, v);
        }
        let second = sketch.finalize();
        assert_eq!(second.instance_index, 3);
        assert_ne!(first.sorted_keys(), second.sorted_keys());
        // Resetting back to the first randomization reproduces it exactly.
        sketch.reset(&seeds_a, 0);
        for &(k, v) in &recs {
            sketch.ingest(k, v);
        }
        assert_eq!(sketch.finalize(), first);
    }

    #[test]
    fn scheme_names_are_distinct() {
        assert_eq!(
            ObliviousPoissonSampler::new(0.5).name(),
            "oblivious_poisson"
        );
        assert_eq!(PpsPoissonSampler::new(2.0).name(), "pps_poisson");
        assert_eq!(BottomKSampler::new(PpsRanks, 4).name(), "bottomk_pps");
    }
}
