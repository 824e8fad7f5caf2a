//! Snapshot codec property tests: encode → decode is **bitwise** for every
//! sketch family (and for `InstanceSample`/`SeedAssignment`), at random
//! sample sizes and shard counts; malformed input — truncated, corrupted,
//! wrong version, wrong family — always yields a typed `StoreError`, never a
//! panic.
//!
//! "Bitwise" is asserted two ways:
//!
//! 1. re-encoding the decoded sketch reproduces the original bytes exactly
//!    (the encoding is canonical), and
//! 2. the decoded sketch *behaves* identically — continuing to ingest the
//!    same records and finalizing yields a bit-identical `InstanceSample`.

use pie_sampling::{
    merge_tree, BottomKSampler, ExpRanks, InstanceSample, ObliviousPoissonSampler, PoissonSketch,
    PpsPoissonSampler, PpsRanks, SamplingScheme, SeedAssignment, Sketch,
};
use pie_store::{snapshot_from_slice, snapshot_to_vec, StoreError};
use proptest::prelude::*;

/// A deterministic synthetic record stream.
fn records(n: usize, salt: u64) -> Vec<(u64, f64)> {
    (0..n as u64)
        .map(|k| (k, 0.25 + ((k ^ salt) % 13) as f64))
        .collect()
}

/// Ingests `recs` into per-shard sketches of `scheme`, snapshots each shard
/// sketch mid-stream (after `split` records), and checks both bitwise
/// properties; then merges originals and decoded copies and compares the
/// final samples.
fn assert_roundtrip_bitwise<S: SamplingScheme>(
    scheme: &S,
    recs: &[(u64, f64)],
    shards: usize,
    split: usize,
    seeds: &SeedAssignment,
) where
    S::Sketch: pie_store::Encode + pie_store::Decode,
{
    let shard_of = |key: u64| (pie_sampling::hash::mix64(key) % shards as u64) as usize;
    let mut originals: Vec<S::Sketch> = (0..shards)
        .map(|s| scheme.sketch_for_shard(seeds, 0, s as u64))
        .collect();
    for &(k, v) in &recs[..split] {
        originals[shard_of(k)].ingest(k, v);
    }

    // Snapshot every shard sketch mid-stream.
    let mut decoded: Vec<S::Sketch> = Vec::with_capacity(shards);
    for sketch in &originals {
        let bytes = snapshot_to_vec(sketch).unwrap();
        let restored: S::Sketch = snapshot_from_slice(&bytes).unwrap();
        // (1) Canonical bytes: re-encoding the decoded sketch is identical.
        assert_eq!(snapshot_to_vec(&restored).unwrap(), bytes);
        decoded.push(restored);
    }

    // (2) Behavioral bit-identity: both copies finish the stream, merge, and
    // finalize to the same sample.
    for &(k, v) in &recs[split..] {
        originals[shard_of(k)].ingest(k, v);
        decoded[shard_of(k)].ingest(k, v);
    }
    merge_tree(&mut originals);
    merge_tree(&mut decoded);
    let a: InstanceSample = originals[0].finalize();
    let b: InstanceSample = decoded[0].finalize();
    assert_eq!(a, b);
    assert_eq!(
        snapshot_to_vec(&a).unwrap(),
        snapshot_to_vec(&b).unwrap(),
        "finalized samples must encode identically"
    );
}

/// A Poisson scheme whose sketches are wrapped in [`PoissonSketch`], the
/// sketch type of a sampling regime chosen at run time.
struct Wrapped<S: SamplingScheme>(S, fn(S::Sketch) -> PoissonSketch);

impl<S: SamplingScheme> SamplingScheme for Wrapped<S> {
    type Sketch = PoissonSketch;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn sketch(&self, seeds: &SeedAssignment, instance_index: u64) -> PoissonSketch {
        (self.1)(self.0.sketch(seeds, instance_index))
    }
}

/// Asserts that a [`PoissonSketch`] encodes to exactly the bytes of the
/// sketch it wraps and decodes from them, so snapshot files written with the
/// concrete sketch types load into the wrapper.
fn assert_wrapper_bytes_identical<S: SamplingScheme>(
    wrapped: &Wrapped<S>,
    recs: &[(u64, f64)],
    seeds: &SeedAssignment,
) where
    S::Sketch: pie_store::Encode,
{
    let mut sketch = wrapped.0.sketch(seeds, 0);
    for &(k, v) in recs {
        sketch.ingest(k, v);
    }
    let concrete = snapshot_to_vec(&sketch).unwrap();
    assert_eq!(snapshot_to_vec(&(wrapped.1)(sketch)).unwrap(), concrete);
    let decoded: PoissonSketch = snapshot_from_slice(&concrete).unwrap();
    assert_eq!(snapshot_to_vec(&decoded).unwrap(), concrete);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oblivious_poisson_roundtrip(salt in 0u64..1_000, n in 1usize..300, shards in 1usize..8, split_frac in 0.0f64..1.0, p in 0.05f64..1.0) {
        let recs = records(n, salt);
        let split = ((n as f64) * split_frac) as usize;
        let seeds = SeedAssignment::independent_known(salt);
        assert_roundtrip_bitwise(&ObliviousPoissonSampler::new(p), &recs, shards, split, &seeds);
        let wrapped = Wrapped(ObliviousPoissonSampler::new(p), PoissonSketch::Oblivious);
        assert_roundtrip_bitwise(&wrapped, &recs, shards, split, &seeds);
        assert_wrapper_bytes_identical(&wrapped, &recs, &seeds);
    }

    #[test]
    fn pps_poisson_roundtrip(salt in 0u64..1_000, n in 1usize..300, shards in 1usize..8, split_frac in 0.0f64..1.0, tau in 0.5f64..50.0) {
        let recs = records(n, salt);
        let split = ((n as f64) * split_frac) as usize;
        let seeds = SeedAssignment::independent_known(salt.wrapping_add(7));
        assert_roundtrip_bitwise(&PpsPoissonSampler::new(tau), &recs, shards, split, &seeds);
        let wrapped = Wrapped(PpsPoissonSampler::new(tau), PoissonSketch::Pps);
        assert_roundtrip_bitwise(&wrapped, &recs, shards, split, &seeds);
        assert_wrapper_bytes_identical(&wrapped, &recs, &seeds);
    }

    #[test]
    fn bottomk_roundtrip_both_rank_families(salt in 0u64..1_000, n in 1usize..300, shards in 1usize..8, split_frac in 0.0f64..1.0, k in 1usize..64) {
        let recs = records(n, salt);
        let split = ((n as f64) * split_frac) as usize;
        let seeds = SeedAssignment::independent_known(salt.wrapping_add(13));
        assert_roundtrip_bitwise(&BottomKSampler::new(PpsRanks, k), &recs, shards, split, &seeds);
        assert_roundtrip_bitwise(&BottomKSampler::new(ExpRanks, k), &recs, shards, split, &seeds);
    }

    #[test]
    fn instance_sample_and_seed_assignment_roundtrip(salt in 0u64..10_000, n in 0usize..200, tau in 0.5f64..50.0) {
        let recs = records(n, salt);
        let seeds = SeedAssignment::independent_known(salt);
        let mut sketch = PpsPoissonSampler::new(tau).sketch(&seeds, 3);
        for &(k, v) in &recs {
            sketch.ingest(k, v);
        }
        let sample = sketch.finalize();
        let bytes = snapshot_to_vec(&sample).unwrap();
        let back: InstanceSample = snapshot_from_slice(&bytes).unwrap();
        prop_assert_eq!(&back, &sample);
        prop_assert_eq!(snapshot_to_vec(&back).unwrap(), bytes);

        let seed_bytes = snapshot_to_vec(&seeds).unwrap();
        let seeds_back: SeedAssignment = snapshot_from_slice(&seed_bytes).unwrap();
        for key in 0..50u64 {
            prop_assert_eq!(
                seeds.seed(key, key % 3).to_bits(),
                seeds_back.seed(key, key % 3).to_bits()
            );
        }
        prop_assert_eq!(seeds.coordination(), seeds_back.coordination());
        prop_assert_eq!(seeds.visibility(), seeds_back.visibility());
    }

    #[test]
    fn malformed_sketch_snapshots_never_panic(salt in 0u64..500, n in 1usize..120, tau in 0.5f64..50.0) {
        let recs = records(n, salt);
        let seeds = SeedAssignment::independent_known(salt);
        let mut sketch = PpsPoissonSampler::new(tau).sketch(&seeds, 0);
        for &(k, v) in &recs {
            sketch.ingest(k, v);
        }
        let bytes = snapshot_to_vec(&sketch).unwrap();
        // Every truncation yields a typed error.
        for cut in (0..bytes.len()).step_by(7) {
            let err = snapshot_from_slice::<pie_sampling::PpsPoissonSketch>(&bytes[..cut]).unwrap_err();
            prop_assert!(matches!(
                err,
                StoreError::Truncated { .. } | StoreError::BadMagic { .. }
            ), "cut {}: {}", cut, err);
        }
        // Every single-byte corruption is either detected by the checksum or
        // (if it hit the magic) reported as not-a-snapshot.
        for i in (0..bytes.len()).step_by(5) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x20;
            prop_assert!(snapshot_from_slice::<pie_sampling::PpsPoissonSketch>(&corrupted).is_err(),
                "corruption at byte {} went unnoticed", i);
        }
    }
}

#[test]
fn wrong_version_is_rejected_for_sketch_snapshots() {
    let seeds = SeedAssignment::independent_known(1);
    let sketch = ObliviousPoissonSampler::new(0.5).sketch(&seeds, 0);
    let mut bytes = snapshot_to_vec(&sketch).unwrap();
    bytes[4] = 0xFE; // format version field (little-endian u32 after magic)
    let err = snapshot_from_slice::<pie_sampling::ObliviousPoissonSketch>(&bytes).unwrap_err();
    assert!(
        matches!(err, StoreError::UnsupportedVersion { .. }),
        "{err}"
    );
}

#[test]
fn cross_family_snapshots_are_rejected_with_typed_tags() {
    let seeds = SeedAssignment::independent_known(2);
    let mut pps = PpsPoissonSampler::new(4.0).sketch(&seeds, 0);
    for (k, v) in records(50, 3) {
        pps.ingest(k, v);
    }
    let bytes = snapshot_to_vec(&pps).unwrap();
    let err = snapshot_from_slice::<pie_sampling::ObliviousPoissonSketch>(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::InvalidTag {
                what: "ObliviousPoissonSketch",
                ..
            }
        ),
        "{err}"
    );
    let err = snapshot_from_slice::<pie_sampling::BottomKSketch<PpsRanks>>(&bytes).unwrap_err();
    assert!(matches!(err, StoreError::InvalidTag { .. }), "{err}");

    // Retired tags stay reserved: a hand-built snapshot of the deleted
    // VarOpt sketch family, and an `InstanceSample` whose `SampleScheme`
    // carries that family's retired tag 3, decode to typed errors.
    let mut w = pie_store::SnapshotWriter::new(Vec::new());
    w.write(&pie_sampling::scheme::sketch_tag::VAR_OPT).unwrap();
    w.write(&16usize).unwrap(); // the retired family's capacity k
    w.write(&seeds).unwrap();
    let retired_sketch = w.finish().unwrap();
    for err in [
        snapshot_from_slice::<pie_sampling::ObliviousPoissonSketch>(&retired_sketch).unwrap_err(),
        snapshot_from_slice::<pie_sampling::PpsPoissonSketch>(&retired_sketch).unwrap_err(),
        snapshot_from_slice::<PoissonSketch>(&retired_sketch).unwrap_err(),
        snapshot_from_slice::<pie_sampling::BottomKSketch<PpsRanks>>(&retired_sketch).unwrap_err(),
    ] {
        assert!(
            matches!(err, StoreError::InvalidTag { tag: 4, .. }),
            "{err}"
        );
    }
    let mut w = pie_store::SnapshotWriter::new(Vec::new());
    w.write(&0u64).unwrap(); // instance index
    w.write(&3u32).unwrap(); // retired SampleScheme tag
    w.write(&16usize).unwrap(); // its k
    w.write(&1.0f64).unwrap();
    w.write(&vec![(1u64, 2.0f64)]).unwrap();
    let sample = w.finish().unwrap();
    let err = snapshot_from_slice::<InstanceSample>(&sample).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::InvalidTag {
                what: "SampleScheme",
                tag: 3
            }
        ),
        "{err}"
    );
}

#[test]
fn poisson_sketch_rejects_non_poisson_families() {
    let seeds = SeedAssignment::independent_known(2);
    let sketch = BottomKSampler::new(PpsRanks, 8).sketch(&seeds, 0);
    let bytes = snapshot_to_vec(&sketch).unwrap();
    let err = snapshot_from_slice::<PoissonSketch>(&bytes).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::InvalidTag {
                what: "PoissonSketch",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn bottomk_rejects_rank_family_mismatch() {
    let seeds = SeedAssignment::independent_known(4);
    let mut sketch = BottomKSampler::new(PpsRanks, 8).sketch(&seeds, 0);
    for (k, v) in records(100, 5) {
        sketch.ingest(k, v);
    }
    let bytes = snapshot_to_vec(&sketch).unwrap();
    // Same BOTTOM_K family tag, wrong rank family type parameter.
    let err = snapshot_from_slice::<pie_sampling::BottomKSketch<ExpRanks>>(&bytes).unwrap_err();
    assert!(matches!(err, StoreError::InvalidValue { .. }), "{err}");
}

#[test]
fn poisson_decoders_reject_unsorted_or_nonpositive_entries() {
    use pie_store::SnapshotWriter;
    // Hand-build a PpsPoissonSketch payload (field order: family tag,
    // tau_star, seeds, instance index, entries, ingested) with out-of-order
    // entries; the frame checksum is valid, so only the decoder's invariant
    // check can reject it.
    let seeds = SeedAssignment::independent_known(3);
    let build = |entries: &[(u64, f64)]| {
        let mut w = SnapshotWriter::new(Vec::new());
        w.write(&2u32).unwrap(); // sketch_tag::PPS_POISSON
        w.write(&4.0f64).unwrap();
        w.write(&seeds).unwrap();
        w.write(&0u64).unwrap();
        w.write(&entries.to_vec()).unwrap();
        w.write(&(entries.len() as u64)).unwrap();
        w.finish().unwrap()
    };
    let sorted = build(&[(1, 2.0), (5, 1.0)]);
    assert!(snapshot_from_slice::<pie_sampling::PpsPoissonSketch>(&sorted).is_ok());
    for bad in [
        &[(5, 1.0), (1, 2.0)][..],      // out of order
        &[(1, 2.0), (1, 3.0)][..],      // duplicate key
        &[(1, 0.0), (5, 1.0)][..],      // non-positive weight
        &[(1, f64::NAN), (5, 1.0)][..], // non-finite weight
    ] {
        let err = snapshot_from_slice::<pie_sampling::PpsPoissonSketch>(&build(bad)).unwrap_err();
        assert!(
            matches!(err, StoreError::InvalidValue { .. }),
            "{bad:?}: {err}"
        );
    }
}

#[test]
fn empty_sketch_snapshots_roundtrip() {
    let seeds = SeedAssignment::independent_known(9);
    let recs: Vec<(u64, f64)> = Vec::new();
    assert_roundtrip_bitwise(&ObliviousPoissonSampler::new(0.4), &recs, 1, 0, &seeds);
    assert_roundtrip_bitwise(&PpsPoissonSampler::new(2.0), &recs, 1, 0, &seeds);
    assert_roundtrip_bitwise(&BottomKSampler::new(PpsRanks, 4), &recs, 1, 0, &seeds);
}
