//! Per-layer probes: each times calls into one crate's public functions
//! on fixed probe inputs derived from `--seed`.  Every traced run takes
//! them, so a layer's own cost is on record next to each workload's
//! end-to-end numbers.  Which end-to-end metric each should move, and on
//! which workload, is tabulated in the README.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::Arc;

use partial_info_estimators::core::suite::{
    oblivious_suite_by_name, weighted_suite_by_name, SUITE_NAMES,
};
use partial_info_estimators::core::EstimatorRegistry;
use partial_info_estimators::datagen::ShardedStream;
use partial_info_estimators::sampling::{
    sample_all, InstanceSample, LaneOutcome, ObliviousEntry, ObliviousLanes, ObliviousOutcome,
    ObliviousPoissonSampler, PpsPoissonSampler, SeedAssignment, WeightedEntry, WeightedLanes,
    WeightedOutcome,
};
use partial_info_estimators::store::{decode_from_slice, encode_to_vec};
use partial_info_estimators::{
    ingest_merge_finalize, sketch_pools, CatalogEntry, PipelineObserver, PipelineReport, Scheme,
    StageNanos,
};
use pie_engine::{AdmissionController, CacheKey, EstimateCache, InflightGate, TenantQuota};
use pie_serve::wire::{read_request, read_response, write_message};
use pie_serve::{Request, Response};

use crate::data::{set_pair, traffic, Sizes, SketchSpec, TRAFFIC_TAU};
use crate::metrics::Readings;
use crate::rng::Rng;
use crate::stats::median_seconds;

/// Outcomes per kernel batch: one key-range shard of a replay sweep, and
/// more than a branch predictor memorizes across rounds.
const KERNEL_BATCH: usize = 16_384;

/// Median nanoseconds per call over `rounds` rounds of `calls` calls.
fn ns_per_call(rounds: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut index = 0;
    median_seconds(rounds, || {
        for _ in 0..calls {
            f(index);
            index += 1;
        }
    }) * 1e9
        / calls as f64
}

/// Runs every probe and records its readings.
pub fn run(seed: u64, sizes: &Sizes, readings: &mut Readings) {
    let rounds = if sizes.smoke { 1 } else { 5 };
    let salt = Rng::new(seed, "probe salt").next_u64() >> 16;

    readings.set(
        "datagen.generate_s",
        median_seconds(rounds.min(3), || {
            (
                traffic(seed, sizes.paper_keys_per_hour),
                set_pair(sizes.mc_set_size),
            )
        }),
    );
    let pps = SketchSpec {
        data: traffic(seed, sizes.paper_keys_per_hour),
        scheme: Scheme::pps(TRAFFIC_TAU),
        shards: 2,
        trials: sizes.recompute_trials,
        salt,
    };
    let obl = SketchSpec {
        data: set_pair(sizes.mc_set_size),
        scheme: Scheme::oblivious(0.3),
        shards: 2,
        trials: sizes.recompute_trials,
        salt,
    };

    let outcomes_per_trial = sampling(&pps, &obl, rounds, readings);
    let kernel_max_weighted = kernels(seed, rounds, readings);
    let report = pipeline(
        &pps,
        &obl,
        rounds,
        outcomes_per_trial,
        kernel_max_weighted,
        readings,
    );
    engine(rounds, readings);
    wire(report, rounds, readings);
}

/// `sample_all` per record in both regimes, the sharded sketch lifecycle,
/// and the exact mean number of outcomes a PPS trial assembles.
fn sampling(pps: &SketchSpec, obl: &SketchSpec, rounds: usize, readings: &mut Readings) -> f64 {
    let seeds = |t: u64| SeedAssignment::independent_known(pps.salt.wrapping_add(t));
    let sampler = PpsPoissonSampler::new(TRAFFIC_TAU);
    let mut t = 0;
    let per_trial_s = median_seconds(rounds * 4, || {
        t += 1;
        sample_all(&sampler, pps.data.instances(), &seeds(t))
    });
    readings.set(
        "sampling.sample_all_ns_per_record.pps",
        per_trial_s * 1e9 / pps.records() as f64,
    );

    let sampled_keys = |samples: &[InstanceSample]| {
        samples
            .iter()
            .flat_map(|s| s.entries().iter().map(|&(key, _)| key))
            .collect::<BTreeSet<_>>()
            .len()
    };
    let outcomes: usize = (0..pps.trials)
        .map(|t| sampled_keys(&sample_all(&sampler, pps.data.instances(), &seeds(t))))
        .sum();
    let outcomes_per_trial = outcomes as f64 / pps.trials as f64;
    readings.set("sampling.outcomes_per_trial", outcomes_per_trial);

    let oblivious = ObliviousPoissonSampler::new(0.3);
    let per_trial_s = median_seconds(rounds * 4, || {
        t += 1;
        sample_all(&oblivious, obl.data.instances(), &seeds(t))
    });
    readings.set(
        "sampling.sample_all_ns_per_record.obl",
        per_trial_s * 1e9 / obl.records() as f64,
    );

    let stream = ShardedStream::from_dataset(&pps.data, pps.shards);
    let mut pools = sketch_pools(&sampler, &stream, &seeds(0));
    let per_trial_s = median_seconds(rounds * 4, || {
        t += 1;
        ingest_merge_finalize(&stream, &mut pools, &seeds(t))
    });
    readings.set(
        "sampling.stream_ingest_ns_per_record",
        per_trial_s * 1e9 / stream.num_records() as f64,
    );
    outcomes_per_trial
}

/// Two-instance oblivious outcomes at p = 1/2; `binary` for the OR suites.
fn oblivious_outcomes(rng: &mut Rng, binary: bool) -> Vec<ObliviousOutcome> {
    (0..KERNEL_BATCH)
        .map(|_| {
            let entry = |rng: &mut Rng| ObliviousEntry {
                p: 0.5,
                value: (rng.unit() < 0.5).then(|| {
                    if binary {
                        f64::from(rng.unit() < 0.7)
                    } else {
                        0.5 + 16.0 * rng.unit()
                    }
                }),
            };
            ObliviousOutcome::new(vec![entry(rng), entry(rng)])
        })
        .collect()
}

/// Two-instance known-seed PPS outcomes as a weighted replay assembles
/// them: heavy-tailed (or binary) values, an entry sampled exactly when
/// `value >= seed * tau`, and every outcome sampled somewhere.
fn weighted_outcomes(rng: &mut Rng, binary: bool) -> Vec<WeightedOutcome> {
    let tau = if binary { 1.5 } else { 10.0 };
    let mut outcomes = Vec::with_capacity(KERNEL_BATCH);
    while outcomes.len() < KERNEL_BATCH {
        let entry = |rng: &mut Rng| {
            let seed = 0.001 + 0.998 * rng.unit();
            let value = if binary {
                f64::from(rng.unit() < 0.8)
            } else {
                let t = rng.unit();
                tau * 4.0 * t * t * t
            };
            WeightedEntry {
                tau_star: tau,
                seed: Some(seed),
                value: (value > 0.0 && value >= seed * tau).then_some(value),
            }
        };
        let entries = vec![entry(rng), entry(rng)];
        if entries.iter().any(|e| e.value.is_some()) {
            outcomes.push(WeightedOutcome::new(entries));
        }
    }
    outcomes
}

/// Nanoseconds per outcome for one `estimate_lanes` pass of every
/// estimator in `registry` over lanes filled once.
fn suite_ns_per_outcome<O: LaneOutcome>(
    registry: &EstimatorRegistry<O>,
    lanes: &O::Lanes,
    rounds: usize,
) -> f64 {
    let mut out = vec![0.0; KERNEL_BATCH];
    median_seconds(rounds * 3, || {
        for (_, estimator) in registry.iter() {
            estimator.estimate_lanes(black_box(lanes), &mut out);
            black_box(out.last().copied());
        }
    }) * 1e9
        / KERNEL_BATCH as f64
}

/// The five suites' lane kernels; returns the `max_weighted` reading.
fn kernels(seed: u64, rounds: usize, readings: &mut Readings) -> f64 {
    const NAMES: [&str; 5] = [
        "core.kernel_ns_per_outcome.max_oblivious",
        "core.kernel_ns_per_outcome.max_oblivious_uniform",
        "core.kernel_ns_per_outcome.or_oblivious",
        "core.kernel_ns_per_outcome.max_weighted",
        "core.kernel_ns_per_outcome.or_weighted",
    ];
    let mut rng = Rng::new(seed, "kernel outcomes");
    let mut max_weighted = 0.0;
    for (suite, metric) in SUITE_NAMES.iter().zip(NAMES) {
        debug_assert!(metric.ends_with(suite));
        let binary = suite.starts_with("or_");
        let ns = if let Some(registry) = oblivious_suite_by_name(suite, 2, 0.5) {
            let mut lanes = ObliviousLanes::new();
            lanes.fill_from_outcomes(&oblivious_outcomes(&mut rng, binary));
            suite_ns_per_outcome(&registry, &lanes, rounds)
        } else {
            let registry = weighted_suite_by_name(suite).expect("every suite has a regime");
            let mut lanes = WeightedLanes::new();
            lanes.fill_from_outcomes(&weighted_outcomes(&mut rng, binary));
            suite_ns_per_outcome(&registry, &lanes, rounds)
        };
        readings.set(metric, ns);
        if *suite == "max_weighted" {
            max_weighted = ns;
        }
    }
    max_weighted
}

/// `CatalogEntry` build, estimate, batch and codec costs, and the trial
/// engine's thread scaling; returns one of the reports estimated.
fn pipeline(
    pps: &SketchSpec,
    obl: &SketchSpec,
    rounds: usize,
    outcomes_per_trial: f64,
    kernel_max_weighted: f64,
    readings: &mut Readings,
) -> PipelineReport {
    let mut entry = pps.build();
    readings.set(
        "pipeline.build_ms",
        median_seconds(rounds.min(3), || entry = pps.build()) * 1e3,
    );
    let single = |entry: &CatalogEntry, suite: &str, statistic: &str| {
        median_seconds(rounds * 3, || {
            entry
                .estimate_named(suite, statistic, Some(1))
                .expect("probe estimate")
        })
    };
    let single_pps_s = single(&entry, "max_weighted", "max_dominance");
    readings.set("pipeline.estimate_named_ms.pps", single_pps_s * 1e3);
    readings.set(
        "pipeline.estimate_named_ms.obl",
        single(&obl.build(), "or_oblivious", "distinct_count") * 1e3,
    );
    let ns_per_outcome = single_pps_s * 1e9 / (pps.trials as f64 * outcomes_per_trial);
    readings.set("pipeline.estimate_ns_per_outcome", ns_per_outcome);
    readings.set(
        "pipeline.overhead_over_kernel_ratio",
        ns_per_outcome / kernel_max_weighted,
    );

    let stages = Arc::new(StageNanos::new());
    entry
        .estimate_named_observed(
            "max_weighted",
            "max_dominance",
            Some(1),
            PipelineObserver::stages(&stages),
        )
        .expect("observed estimate");
    let (replay, batch) = (
        stages.trial_replay_nanos() as f64,
        stages.estimator_batch_nanos() as f64,
    );
    readings.set("pipeline.trial_replay_share", replay / (replay + batch));

    let batch_s = median_seconds(rounds * 3, || {
        entry
            .estimate_batch_named(
                &[
                    ("max_weighted", "max_dominance"),
                    ("max_weighted", "distinct_count"),
                ],
                Some(1),
            )
            .expect("probe batch")
    });
    readings.set("pipeline.batch2_over_single_ratio", batch_s / single_pps_s);

    let bytes = encode_to_vec(&entry).expect("encode entry");
    let megabytes = bytes.len() as f64 / 1e6;
    readings.set("store.snapshot_bytes", bytes.len() as f64);
    readings.set(
        "store.encode_mb_per_s",
        megabytes / median_seconds(rounds, || encode_to_vec(&entry).expect("encode entry")),
    );
    readings.set(
        "store.decode_mb_per_s",
        megabytes
            / median_seconds(rounds, || {
                decode_from_slice::<CatalogEntry>(&bytes).expect("decode entry")
            }),
    );

    // One hardware thread cannot show scaling: the reading stays 0 and
    // the report says not measured.
    if crate::provenance::nproc() >= 2 {
        let run = |threads: usize| {
            median_seconds(rounds.min(3), || {
                pps.pipeline("max_weighted", "max_dominance", Some(threads))
                    .run()
                    .expect("scaling pipeline")
            })
        };
        readings.set("analysis.thread_scaling_2_over_1", run(1) / run(2));
    }
    entry
        .estimate_named("max_weighted", "max_dominance", Some(1))
        .expect("probe estimate")
}

/// Stand-alone cache, admission and in-flight gate costs.
fn engine(rounds: usize, readings: &mut Readings) {
    const CAPACITY: usize = 1024;
    let report = Arc::new(PipelineReport {
        statistic: "max_dominance".to_string(),
        truth: 1.0,
        trials: 1,
        estimators: Vec::new(),
    });
    let key = |i: usize| CacheKey {
        sketch: format!("sketch-{}", i % 64),
        estimator: "max_weighted".to_string(),
        statistic: "max_dominance".to_string(),
        fingerprint: i as u64,
    };
    let cache = EstimateCache::new(CAPACITY);
    let resident: Vec<CacheKey> = (0..CAPACITY / 2).map(key).collect();
    for k in &resident {
        cache.insert(k.clone(), Arc::clone(&report));
    }
    readings.set(
        "engine.cache_get_ns",
        ns_per_call(rounds, 20_000, |i| {
            black_box(cache.get(&resident[i % resident.len()]));
        }),
    );
    // Fresh keys into a cache filled to capacity: every insert evicts.
    let full = EstimateCache::new(CAPACITY);
    for i in 0..4 * CAPACITY {
        full.insert(key(i), Arc::clone(&report));
    }
    let fresh: Vec<CacheKey> = (0..rounds * 2_000).map(|i| key(1_000_000 + i)).collect();
    readings.set(
        "engine.cache_insert_ns",
        ns_per_call(rounds, 2_000, |i| {
            full.insert(fresh[i].clone(), Arc::clone(&report));
        }),
    );
    let admission = AdmissionController::new(TenantQuota::unlimited(), HashMap::new());
    let gate = InflightGate::new(64, 1024);
    readings.set(
        "engine.admit_ns",
        ns_per_call(rounds, 20_000, |_| {
            admission
                .admit_query("anonymous", 1)
                .expect("unlimited quota");
            black_box(gate.admit().expect("free gate"));
        }),
    );
}

/// Wire codec costs on in-memory buffers.
fn wire(report: PipelineReport, rounds: usize, readings: &mut Readings) {
    let request = Request::Estimate {
        sketch: "traffic".to_string(),
        estimator: "max_weighted".to_string(),
        statistic: "max_dominance".to_string(),
    };
    let response = Response::Estimated(report);
    let mut frame = Vec::new();
    readings.set(
        "serve.wire_encode_request_ns",
        ns_per_call(rounds, 20_000, |_| {
            frame.clear();
            write_message(&mut frame, black_box(&request)).expect("encode request");
        }),
    );
    let request_frame = frame.clone();
    readings.set(
        "serve.wire_decode_request_ns",
        ns_per_call(rounds, 20_000, |_| {
            black_box(read_request(&mut request_frame.as_slice()).expect("decode request"));
        }),
    );
    readings.set(
        "serve.wire_encode_response_ns",
        ns_per_call(rounds, 20_000, |_| {
            frame.clear();
            write_message(&mut frame, black_box(&response)).expect("encode response");
        }),
    );
    let response_frame = frame.clone();
    readings.set("serve.response_bytes", response_frame.len() as f64);
    readings.set(
        "serve.wire_decode_response_ns",
        ns_per_call(rounds, 20_000, |_| {
            black_box(read_response(&mut response_frame.as_slice()).expect("decode response"));
        }),
    );
}
