//! Snapshot codec throughput on a 1M-record traffic workload.
//!
//! Two questions, answered with machine-readable output:
//!
//! 1. **Codec speed** — encode / decode MB/s for every sketch family
//!    (oblivious Poisson, PPS Poisson, bottom-k), each filled from
//!    the same 1M-record stream.  Sketch snapshots are only useful
//!    operationally if serializing them is much cheaper than rebuilding
//!    them.
//! 2. **Checkpoint-restore vs recompute-from-scratch** — through the real
//!    `StreamPipeline` ingest-session API: time to re-ingest the whole
//!    stream versus time to restore the equivalent sketch state from
//!    snapshot files (plus the cost of writing the checkpoint itself).
//!    Restore is also asserted to reproduce the uninterrupted report bit
//!    for bit, so the speedup is measured on a path whose correctness is
//!    enforced in the same run.
//!
//! Besides the console table, running this bench rewrites
//! `BENCH_snapshot_throughput.json` at the workspace root (uploaded as a CI
//! artifact).
//!
//! ```text
//! cargo bench -p pie-bench --bench snapshot_throughput
//! ```

use std::sync::Arc;
use std::time::Instant;

use partial_info_estimators::core::suite::max_weighted_suite;
use partial_info_estimators::{Scheme, Statistic, StreamPipeline};
use pie_datagen::{generate_two_hours, Dataset, TrafficConfig};
use pie_sampling::{
    BottomKSampler, Instance, ObliviousPoissonSampler, PpsPoissonSampler, PpsRanks, SamplingScheme,
    SeedAssignment, Sketch,
};
use pie_store::{snapshot_from_slice, snapshot_to_vec, Decode, Encode};

const KEYS_PER_INSTANCE: usize = 500_000;
const ROUNDS: usize = 5;
const CHECKPOINT_SHARDS: usize = 4;
const CHECKPOINT_TRIALS: u64 = 8;

/// One measured codec row.
struct CodecCase {
    family: &'static str,
    encoded_bytes: usize,
    encode_mb_s: f64,
    decode_mb_s: f64,
}

fn best_of<T>(mut pass: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let out = pass();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("ROUNDS > 0"))
}

/// Fills one sketch per instance from the dataset's record stream and
/// measures encode/decode throughput over the combined snapshot bytes.
fn codec_case<S: SamplingScheme>(
    family: &'static str,
    scheme: &S,
    dataset: &Dataset,
    seeds: &SeedAssignment,
) -> CodecCase
where
    S::Sketch: Encode + Decode,
{
    let sketches: Vec<S::Sketch> = dataset
        .instances()
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let mut sketch = scheme.sketch(seeds, i as u64);
            for key in inst.sorted_keys() {
                sketch.ingest(key, inst.value(key));
            }
            sketch
        })
        .collect();

    let (encode_s, frames) = best_of(|| {
        sketches
            .iter()
            .map(|s| snapshot_to_vec(s).expect("encode sketch"))
            .collect::<Vec<_>>()
    });
    let encoded_bytes: usize = frames.iter().map(Vec::len).sum();
    let (decode_s, decoded) = best_of(|| {
        frames
            .iter()
            .map(|f| snapshot_from_slice::<S::Sketch>(f).expect("decode sketch"))
            .collect::<Vec<_>>()
    });
    // Decoded state must re-encode to the identical bytes (canonical codec).
    for (frame, sketch) in frames.iter().zip(&decoded) {
        assert_eq!(&snapshot_to_vec(sketch).unwrap(), frame, "{family}");
    }

    let mb = encoded_bytes as f64 / 1e6;
    CodecCase {
        family,
        encoded_bytes,
        encode_mb_s: mb / encode_s,
        decode_mb_s: mb / decode_s,
    }
}

fn main() {
    let mut config = TrafficConfig::paper_scale();
    config.keys_per_hour = KEYS_PER_INSTANCE;
    config.flows_per_hour = 1.1e7;
    let dataset = Arc::new(generate_two_hours(&config));
    let total_records: usize = dataset.instances().iter().map(Instance::len).sum();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "traffic workload: {total_records} records over {} instances, {threads} hardware thread(s)\n",
        dataset.num_instances()
    );

    let seeds = SeedAssignment::independent_known(0xFEED);
    let cases = vec![
        codec_case(
            "oblivious_poisson_p0.1",
            &ObliviousPoissonSampler::new(0.1),
            &dataset,
            &seeds,
        ),
        codec_case(
            "pps_poisson_tau220",
            &PpsPoissonSampler::new(220.0),
            &dataset,
            &seeds,
        ),
        codec_case(
            "bottomk_pps_4096",
            &BottomKSampler::new(PpsRanks, 4096),
            &dataset,
            &seeds,
        ),
    ];
    for c in &cases {
        println!(
            "{:<24} {:>10} bytes   encode {:>8.1} MB/s   decode {:>8.1} MB/s",
            c.family, c.encoded_bytes, c.encode_mb_s, c.decode_mb_s
        );
    }

    // Checkpoint-restore vs recompute-from-scratch through the session API.
    let configure = || {
        StreamPipeline::new()
            .dataset(Arc::clone(&dataset))
            .scheme(Scheme::pps(220.0))
            .shards(CHECKPOINT_SHARDS)
            .estimators(max_weighted_suite())
            .statistic(Statistic::max_dominance())
            .trials(CHECKPOINT_TRIALS)
            .base_salt(3)
    };
    let dir = std::env::temp_dir().join(format!("pie-snapshot-bench-{}", std::process::id()));

    // Both recompute and restore pay the same fixed session setup
    // (partitioning the 1M-record stream, opening empty sketches); measure
    // it separately so the JSON can expose the net sketch-state cost too.
    let (setup_s, _) = best_of(|| configure().ingest_session().expect("configured"));
    let (recompute_s, full_session) = best_of(|| {
        let mut session = configure().ingest_session().expect("configured");
        session.ingest_all();
        session
    });
    let (checkpoint_s, ()) = best_of(|| full_session.checkpoint(&dir).expect("checkpoint"));
    let (restore_s, restored) = best_of(|| configure().resume(&dir).expect("resume"));
    let report = restored.finish().expect("complete");
    assert_eq!(
        report,
        configure().run().expect("configured"),
        "restored report must be bit-identical to the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();

    let setup_ms = setup_s * 1e3;
    let recompute_ms = recompute_s * 1e3;
    let checkpoint_ms = checkpoint_s * 1e3;
    let restore_ms = restore_s * 1e3;
    let speedup = recompute_ms / restore_ms;
    // Net of the shared session setup: re-ingesting all trials' sketch
    // state vs decoding it from snapshot files.
    let net_recompute_ms = (recompute_ms - setup_ms).max(0.0);
    let net_restore_ms = (restore_ms - setup_ms).max(0.01);
    let net_speedup = net_recompute_ms / net_restore_ms;
    println!(
        "\ncheckpoint/restore on the {total_records}-record stream ({CHECKPOINT_SHARDS} shards, {CHECKPOINT_TRIALS} trials):"
    );
    println!("  session setup (both paths)      : {setup_ms:8.2} ms");
    println!("  recompute from scratch          : {recompute_ms:8.2} ms");
    println!("  write checkpoint                : {checkpoint_ms:8.2} ms");
    println!(
        "  restore from snapshot           : {restore_ms:8.2} ms   ({speedup:.2}x vs recompute)"
    );
    println!(
        "  sketch state only (net of setup): {net_recompute_ms:8.2} ms re-ingest vs {net_restore_ms:8.2} ms decode ({net_speedup:.2}x)"
    );

    let rows: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{ \"family\": \"{}\", \"encoded_bytes\": {}, \"encode_mb_per_s\": {:.1}, \"decode_mb_per_s\": {:.1} }}",
                c.family, c.encoded_bytes, c.encode_mb_s, c.decode_mb_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"snapshot_throughput\",\n  \"records\": {total_records},\n  \"threads_available\": {threads},\n  \"note\": \"encode/decode MB/s of one full-stream sketch per instance and family (snapshot frame bytes, best of {ROUNDS}); checkpoint block times the StreamPipeline ingest-session path: recompute = fresh ingest of the whole stream, restore = load per-(instance, shard) snapshot files; both paths share session_setup_ms (stream partitioning), and the sketch_state_* fields net it out. The restored report is asserted bit-identical to the uninterrupted run.\",\n  \"codec\": [\n{}\n  ],\n  \"checkpoint\": {{ \"shards\": {CHECKPOINT_SHARDS}, \"trials\": {CHECKPOINT_TRIALS}, \"session_setup_ms\": {setup_ms:.2}, \"recompute_ms\": {recompute_ms:.2}, \"checkpoint_ms\": {checkpoint_ms:.2}, \"restore_ms\": {restore_ms:.2}, \"restore_vs_recompute_speedup\": {speedup:.2}, \"sketch_state_reingest_ms\": {net_recompute_ms:.2}, \"sketch_state_decode_ms\": {net_restore_ms:.2}, \"sketch_state_speedup\": {net_speedup:.2} }}\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_snapshot_throughput.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
    print!("{json}");
}
