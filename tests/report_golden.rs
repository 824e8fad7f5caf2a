//! Committed pins for the numbers every path derives from: the generator's
//! stream, the generated datasets, and built catalog entries.
//!
//! The bit-identity tests elsewhere compare two paths inside one build
//! (served == `Pipeline` == `StreamPipeline`, checkpoint resume, shard
//! merge), so a change that moves every path alike passes them.  These
//! constants catch that: a generator swap changes the stream rows, a
//! datagen change the dataset rows, and any change to datagen, sampling or
//! the snapshot codec an entry fingerprint.
//!
//! A change that means to move a number edits its row here and says why;
//! a change that claims no behaviour change leaves this file alone.

use partial_info_estimators::datagen::Xoshiro256pp as Generator;
use partial_info_estimators::datagen::{
    generate_set_pair, generate_two_hours, paper_example, Dataset, SetPairConfig, TrafficConfig,
};
use partial_info_estimators::{CatalogEntry, Scheme};

/// FNV-1a over a stream of 64-bit words (little-endian bytes).
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// Digest of a dataset's key universe and every key's value vector.
fn dataset_digest(dataset: &Dataset) -> u64 {
    let keys = dataset.keys();
    let words = keys.iter().flat_map(|&key| {
        std::iter::once(key).chain(dataset.value_vector(key).into_iter().map(f64::to_bits))
    });
    fnv(std::iter::once(keys.len() as u64).chain(words))
}

const STREAM_SEEDS: [u64; 2] = [0, 0xC0FFEE];

/// The first eight raw outputs for each of [`STREAM_SEEDS`].
const FIRST_OUTPUTS: [[u64; 8]; 2] = [
    [
        0x53175d61490b23df,
        0x61da6f3dc380d507,
        0x5c0fdf91ec9a7bfc,
        0x02eebf8c3bbe5e1a,
        0x7eca04ebaf4a5eea,
        0x0543c37757f08d9a,
        0xdb7490c75ab5026e,
        0xd87343e6464bc959,
    ],
    [
        0x8c7615e9af6b4ae5,
        0xd175fd6e7f597969,
        0xac823e0ae898e8ec,
        0x671278cc50163c69,
        0xb667cb9226a19096,
        0x5a29ff026eb6d50e,
        0x033317478868e9a6,
        0xeafc7ec5ec4add36,
    ],
];

/// One of each draw the workspace makes, in this order, after a fresh seed:
/// unit `f64`, `f64` over `a..b`, `f64` over `a..=b`, `usize` over `a..b`,
/// `usize` over `a..=b`, `u32` over `a..b`, and a raw `u32` — each as its
/// 64-bit pattern.
const DRAWS: [[u64; 7]; 2] = [
    [
        0x3fd4c5d7585242c8,
        0x3fd8769bcf710bac,
        0x3fec67fcc1cadc3f,
        0x8b,
        0x0,
        0x2,
        0xdb7490c7,
    ],
    [
        0x3fe18ec2bd35ed69,
        0x3fea2ebfadcff194,
        0x3ff239b64d586e0c,
        0x2bb,
        0x2,
        0x6,
        0x03331747,
    ],
];

fn draws(seed: u64) -> [u64; 7] {
    let mut rng = Generator::seed_from_u64(seed);
    [
        rng.gen::<f64>().to_bits(),
        rng.gen_range(1e-12..1.0f64).to_bits(),
        rng.gen_range(0.6..=1.4f64).to_bits(),
        rng.gen_range(3usize..1000) as u64,
        rng.gen_range(0usize..=12) as u64,
        u64::from(rng.gen_range(0u32..8)),
        u64::from(rng.gen::<u32>()),
    ]
}

#[test]
fn generator_stream_is_pinned() {
    for (i, &seed) in STREAM_SEEDS.iter().enumerate() {
        let mut rng = Generator::seed_from_u64(seed);
        let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(first, FIRST_OUTPUTS[i], "raw outputs, seed {seed:#x}");
        assert_eq!(draws(seed), DRAWS[i], "typed draws, seed {seed:#x}");
    }
}

#[test]
fn paper_example_is_pinned() {
    assert_eq!(dataset_digest(&paper_example()), 0x1c42585505fccbdc);
}

#[test]
fn small_traffic_is_pinned() {
    for (seed, digest) in [(1, 0x79de68379260bd30), (0xBEEF, 0x708f64fae5304309)] {
        let dataset = generate_two_hours(&TrafficConfig::small(seed));
        assert_eq!(dataset_digest(&dataset), digest, "small({seed:#x})");
    }
}

#[test]
fn paper_scale_traffic_is_pinned() {
    let dataset = generate_two_hours(&TrafficConfig::paper_scale());
    assert_eq!(dataset_digest(&dataset), 0x0137a1f1ab6472c7);
}

#[test]
fn set_pair_is_pinned() {
    let dataset = generate_set_pair(&SetPairConfig::new(500, 0.3));
    assert_eq!(dataset_digest(&dataset), 0x4ac3b1f7ba7fff24);
}

/// Entry fingerprints (2 shards, 8 trials) under both schemes.  A fixed
/// PPS threshold, not `PpsPoissonSampler::with_expected_size`, whose τ*
/// sums weights in hash-map order.
#[test]
fn entry_fingerprints_are_pinned() {
    let paper = paper_example();
    let traffic = generate_two_hours(&TrafficConfig::small(1));
    let rows = [
        (
            "paper/oblivious(0.5)",
            &paper,
            Scheme::oblivious(0.5),
            0x9860af021ea224bf,
        ),
        ("paper/pps(5)", &paper, Scheme::pps(5.0), 0x0782af6dd3b542d8),
        (
            "traffic/oblivious(0.2)",
            &traffic,
            Scheme::oblivious(0.2),
            0x5a29d5d093076428,
        ),
        (
            "traffic/pps(40)",
            &traffic,
            Scheme::pps(40.0),
            0xa8efdc819ed2cc01,
        ),
    ];
    for (name, dataset, scheme, fingerprint) in rows {
        let entry = CatalogEntry::build(dataset.clone(), scheme, 2, 8, 0x5EED)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(entry.fingerprint(), fingerprint, "{name}");
    }
}
