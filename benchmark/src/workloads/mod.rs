//! The four workloads and what they share: the run context, repeated
//! set-up, the end-to-end summary, and the step-by-step request replay
//! behind the ledger.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use partial_info_estimators::store::encode_to_vec;
use partial_info_estimators::{CatalogEntry, PipelineObserver, PipelineReport, Scheme, StageNanos};
use pie_cluster::router::{ClusterConfig, NodeSpec};
use pie_cluster::Router;
use pie_engine::{
    AdmissionController, CacheKey, EngineStatsReport, EstimateCache, InflightGate, TenantQuota,
};
use pie_serve::wire::{read_request, read_response, write_message};
use pie_serve::{IngestRecord, Request, Response, ServeClient, SketchConfig};

use crate::data::{bit_identical, traffic, Sizes, SketchSpec, TRAFFIC_TAU};
use crate::load::{client_config, closed_loop, Combo, Menu, Op, Window};
use crate::metrics::{Readings, RunResult, PER_LAYER};
use crate::rng::Rng;
use crate::stats::{median, median_seconds, quantile_sorted, LatencyWindows};
use crate::trace::{median_self_us_by_name, Ledger, Recorder, Span};

mod montecarlo_batch;
mod publish_then_read;
mod serve_hot;
mod serve_recompute;

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed part, split among the workload's phases.
    pub seconds: f64,
    /// Traced runs report the per-layer metrics, untraced runs the
    /// end-to-end ones.
    pub traced: bool,
    pub sizes: Sizes,
    /// Where `trace-<workload>.jsonl` and the ledger go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// How many windows a phase runs: `full`, or two at smoke size.
    fn windows(&self, full: usize) -> usize {
        if self.sizes.smoke {
            2
        } else {
            full
        }
    }

    /// One of `windows` windows that together take `share` of the timed
    /// part.
    fn window(&self, share: f64, windows: usize) -> Duration {
        Duration::from_secs_f64(self.seconds * share / windows as f64)
    }

    /// Calls a round-trip probe makes: `full`, or twenty at smoke size.
    fn rounds(&self, full: usize) -> usize {
        if self.sizes.smoke {
            20
        } else {
            full
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists (repeated in `/BENCHMARK.json`).
    pub why: &'static str,
    pub run: fn(&Ctx) -> RunResult,
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "serve_recompute",
        why: "cache off, paper-scale sketch: estimation is ~95% of a query, so a pipeline or kernel win shows here and a serving-layer change must not",
        run: serve_recompute::run,
    },
    Workload {
        name: "serve_hot",
        why: "every request a cache hit on small sketches: wire, event loop, engine and obs do all the work, estimation none",
        run: serve_hot::run,
    },
    Workload {
        name: "publish_then_read",
        why: "3-node cluster, writes beside reads: build, snapshot codec, replicated publish, router hop, cache miss/evict/invalidate paths",
        run: publish_then_read::run,
    },
    Workload {
        name: "montecarlo_batch",
        why: "in-process Pipeline and StreamPipeline with fresh sampling every trial: no sockets, no cache; sampling and trial-engine changes show here first",
        run: montecarlo_batch::run,
    },
];

/// Runs `setup` at least `sizes.setup_reps` times, and up to three times
/// as often while the set-ups so far fit `sizes.setup_budget_s`, so that a
/// cheap set-up's median rests on more samples.  Keeps the last world and
/// returns the median set-up time.  Each earlier world is dropped (servers
/// shut down and joined) before the next is built.
fn repeat_setup<W>(sizes: &Sizes, mut setup: impl FnMut() -> W) -> (W, f64) {
    let mut times = Vec::new();
    let mut world = None;
    while times.len() < sizes.setup_reps
        || (times.len() < 3 * sizes.setup_reps && times.iter().sum::<f64>() < sizes.setup_budget_s)
    {
        drop(world.take());
        let start = Instant::now();
        world = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    println!("# set-ups: {}", times.len());
    (world.expect("at least one set-up"), median(&times))
}

/// `VmHWM` of this process in MB: its peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A router over one node: how set-up puts a built entry on a single
/// server (encode once, `PutSnapshot`, decode, fingerprint, bind).
fn single_node_router(addr: std::net::SocketAddr) -> Router {
    Router::new(ClusterConfig {
        nodes: vec![NodeSpec::new("node-0", addr)],
        replication: 1,
        client: client_config(),
    })
    .expect("one named node is a valid cluster")
}

/// Publish-side samples of `publish_then_read`: one pair per rebind of a
/// name.
#[derive(Debug, Default)]
struct Publishes {
    /// `CatalogEntry::build` + `publish_entry`, records in hand to servable.
    publish_ms: Vec<f64>,
    /// The first query of the freshly published sketch.
    cold_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Publishes {
    /// Median of `CatalogEntry::build` + `publish_entry`.
    fn publish_p50_ms(&self) -> f64 {
        median_or_nan(&self.publish_ms)
    }

    /// The publish times' quartiles: about half the publishes meet a
    /// ~40 ms stall, so the median sits between two modes.
    fn describe(&self) -> String {
        let mut sorted = self.publish_ms.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return "no publish samples".to_string();
        }
        format!(
            "{} publish samples, p25 {:.2} p50 {:.2} p75 {:.2} ms (not gated)",
            sorted.len(),
            quantile_sorted(&sorted, 0.25),
            self.publish_p50_ms(),
            quantile_sorted(&sorted, 0.75)
        )
    }
}

/// Median, or NaN (which no result line accepts) without samples.
fn median_or_nan(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        median(samples)
    }
}

/// The mid-size sketches `publish_then_read` publishes, drawn from the
/// seed.  Every workload sizes `snapshot_bytes_per_record` on them.
fn mid_variants(ctx: &Ctx) -> Vec<SketchSpec> {
    let mut rng = Rng::new(ctx.seed, "publish_then_read");
    (0..ctx.sizes.publish_variants)
        .map(|_| SketchSpec {
            data: traffic(rng.next_u64(), ctx.sizes.mid_keys_per_hour),
            scheme: Scheme::pps(TRAFFIC_TAU),
            shards: 2,
            trials: ctx.sizes.mid_trials,
            salt: rng.next_u64() >> 16,
        })
        .collect()
}

/// Encoded `CatalogEntry` bytes per ingested record, over all of `specs`:
/// one sketch's ratio moves ~2% with the seed's heavy tail, two dozen
/// together a few tenths of a percent.
fn snapshot_bytes_per_record(specs: &[SketchSpec]) -> f64 {
    let (bytes, records) = specs.iter().fold((0, 0), |(bytes, records), spec| {
        let encoded = encode_to_vec(&spec.build()).expect("encode entry");
        (bytes + encoded.len(), records + spec.records())
    });
    bytes as f64 / records as f64
}

/// The parts a workload's end-to-end reading is made of.  The driver reads
/// every end-to-end metric from every workload, so a cell the workload has
/// no measurement for repeats one it has (README: "Cells").
struct EndToEnd {
    setup_s: f64,
    /// Timed windows: both rates are the median over them.
    windows: Vec<Window>,
    /// The query class whose latency is reported.
    latency: LatencyWindows,
    /// `publish_then_read` only; elsewhere nothing is read cold in the
    /// timed part and the cell repeats `query_p50_ms`.
    publishes: Option<Publishes>,
}

/// A run's result from its readings and everything it attempted: the
/// timed `windows` plus `(attempted, failed)` counted elsewhere.
fn run_result(readings: Readings, windows: &[Window], other: (u64, u64)) -> RunResult {
    RunResult {
        attempted: windows.iter().map(|w| w.attempted).sum::<u64>() + other.0,
        failed: windows.iter().map(|w| w.failed).sum::<u64>() + other.1,
        readings,
    }
}

impl EndToEnd {
    /// `other`: `(attempted, failed)` outside the windows and publishes.
    fn result(self, ctx: &Ctx, other: (u64, u64)) -> RunResult {
        let mut readings = Readings::default();
        let over_windows =
            |f: fn(&Window) -> f64| median(&self.windows.iter().map(f).collect::<Vec<f64>>());
        println!(
            "# windows: {} of reports/s {}",
            self.windows.len(),
            self.windows
                .iter()
                .map(|w| format!("{:.1}", w.reports_per_s()))
                .collect::<Vec<_>>()
                .join(" ")
        );
        readings.set("setup_s", self.setup_s);
        readings.set("queries_per_s", over_windows(Window::reports_per_s));
        readings.set("trials_per_s", over_windows(Window::trials_per_s));
        let latency = self.latency.summary();
        let query_p50_ms = latency.map_or(f64::NAN, |l| l.p50);
        readings.set("query_p50_ms", query_p50_ms);
        if let Some(l) = latency {
            println!(
                "# query latency: {} samples; tail (p{:.0}, not gated) {:.4} ms",
                l.count,
                l.tail_q * 100.0,
                l.tail
            );
        }
        let (cold, published) = match &self.publishes {
            Some(p) => {
                println!(
                    "# publishes: {} cold-query samples; {}",
                    p.cold_ms.len(),
                    p.describe()
                );
                (median_or_nan(&p.cold_ms), (p.attempted, p.failed))
            }
            None => (query_p50_ms, (0, 0)),
        };
        readings.set("cold_query_p50_ms", cold);
        readings.set(
            "snapshot_bytes_per_record",
            snapshot_bytes_per_record(&mid_variants(ctx)),
        );
        run_result(
            readings,
            &self.windows,
            (other.0 + published.0, other.1 + published.1),
        )
    }
}

/// Per-layer readings start at 0: a layer the workload never calls into
/// stays there.
fn layer_readings() -> Readings {
    let mut readings = Readings::default();
    for def in PER_LAYER {
        readings.set(def.name, 0.0);
    }
    readings
}

/// Cache and shed counters moved between two `stats()` snapshots.
fn set_engine_deltas(
    readings: &mut Readings,
    before: &EngineStatsReport,
    after: &EngineStatsReport,
) {
    let hits = after.cache.hits - before.cache.hits;
    let lookups = hits + after.cache.misses - before.cache.misses;
    readings.set(
        "engine.cache_hit_rate",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    readings.set(
        "engine.cache_evictions",
        (after.cache.evictions - before.cache.evictions) as f64,
    );
    readings.set(
        "engine.cache_invalidations",
        (after.cache.invalidated - before.cache.invalidated) as f64,
    );
    let sheds = |stats: &EngineStatsReport| {
        stats.queue.shed
            + stats
                .tenants
                .iter()
                .map(|t| t.queries_shed + t.ingests_shed)
                .sum::<u64>()
    };
    readings.set("engine.sheds", (sheds(after) - sheds(before)) as f64);
}

/// Replays `replays` `Estimate` requests of one combination step by step
/// in this process — encode request, decode request, admit, cache probe,
/// `estimate_named` on a miss (children from `StageNanos`), encode
/// response, decode response — with one span per step, and closes the
/// ledger on `client_p50_us`, the latency clients observed for that class.
/// `cached` replays the hit path: the probe finds the report and no
/// estimation runs.
fn replay_ledger(
    entry: &CatalogEntry,
    combo: &Combo,
    expected: &PipelineReport,
    cached: bool,
    replays: usize,
    client_p50_us: f64,
    epoch: Instant,
) -> (Ledger, Vec<Span>) {
    let mut recorder = Recorder::new(true, epoch, 0xFFFF);
    let admission =
        AdmissionController::new(TenantQuota::unlimited(), std::collections::HashMap::new());
    let gate = InflightGate::new(64, 1024);
    let cache = EstimateCache::new(if cached { 1024 } else { 0 });
    let key = CacheKey {
        sketch: combo.sketch.clone(),
        estimator: combo.estimator.to_string(),
        statistic: combo.statistic.to_string(),
        fingerprint: entry.fingerprint(),
    };
    cache.insert(key.clone(), Arc::new(expected.clone()));
    let request = Request::Estimate {
        sketch: combo.sketch.clone(),
        estimator: combo.estimator.to_string(),
        statistic: combo.statistic.to_string(),
    };
    for replay in 0..replays as u64 {
        let id = (0xFFFFu64 << 40) | replay;
        let root = recorder.open("request", None, id);
        let mut frame = Vec::new();
        let span = recorder.open("serve.wire_encode_request", Some(root.id), id);
        write_message(&mut frame, &request).expect("encode request");
        recorder.close(span);
        let span = recorder.open("serve.wire_decode_request", Some(root.id), id);
        let decoded = read_request(&mut frame.as_slice()).expect("decode request");
        recorder.close(span);
        assert_eq!(decoded.as_ref(), Some(&request));

        let span = recorder.open("engine.admit", Some(root.id), id);
        admission
            .admit_query("anonymous", 1)
            .expect("unlimited quota");
        let permit = gate.admit().expect("free gate");
        recorder.close(span);

        let span = recorder.open("engine.cache_probe", Some(root.id), id);
        let hit = cache.get(&key);
        recorder.close(span);
        let report = match hit {
            Some(report) => (*report).clone(),
            None => {
                let stages = Arc::new(StageNanos::new());
                let span = recorder.open("pipeline.estimate_named", Some(root.id), id);
                let started_ns = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let report = entry
                    .estimate_named_observed(
                        combo.estimator,
                        combo.statistic,
                        Some(1),
                        PipelineObserver::stages(&stages),
                    )
                    .expect("replayed estimate");
                let replay_ns = stages.trial_replay_nanos();
                recorder.child_of_duration("pipeline.trial_replay", &span, started_ns, replay_ns);
                recorder.child_of_duration(
                    "core.estimator_batch",
                    &span,
                    started_ns + replay_ns,
                    stages.estimator_batch_nanos(),
                );
                recorder.close(span);
                report
            }
        };
        drop(permit);
        assert!(bit_identical(&report, expected), "replayed report diverged");

        let response = Response::Estimated(report);
        frame.clear();
        let span = recorder.open("serve.wire_encode_response", Some(root.id), id);
        write_message(&mut frame, &response).expect("encode response");
        recorder.close(span);
        let span = recorder.open("serve.wire_decode_response", Some(root.id), id);
        let decoded = read_response(&mut frame.as_slice()).expect("decode response");
        recorder.close(span);
        assert!(decoded.is_some());
        recorder.close(root);
    }
    let spans = recorder.into_spans();
    // The root's own self time is the replay loop's glue (allocation,
    // asserts): benchmark code, not a layer of the program.
    let rows = median_self_us_by_name(&spans)
        .into_iter()
        .filter(|(name, _)| *name != "request")
        .map(|(name, us)| (name.to_string(), us))
        .collect();
    (Ledger::close(rows, client_p50_us), spans)
}

/// Records the ledger's readings and prints it row by row.
fn report_ledger(workload: &str, ledger: &Ledger, readings: &mut Readings) {
    readings.set("ledger.client_p50_us", ledger.client_p50_us);
    readings.set("serve.unattributed_us", ledger.unattributed_us);
    readings.set(
        "ledger.pipeline_core_share",
        ledger.share(&["pipeline.", "core."]),
    );
    println!(
        "# ledger {workload}: client-observed p50 {:.1} us",
        ledger.client_p50_us
    );
    for (name, us) in &ledger.rows {
        println!("# ledger {workload}:   {name:<32} {us:>10.2} us self");
    }
    println!(
        "# ledger {workload}:   {:<32} {:>10.2} us",
        "serve.unattributed", ledger.unattributed_us
    );
}

/// Median microseconds of `rounds` calls of `f`.
fn median_us(rounds: usize, f: impl FnMut()) -> f64 {
    median_seconds(rounds.max(1), f) * 1e6
}

/// What one connection sees of a node whatever it serves: the bare round
/// trip and the metrics plane's snapshot.
fn socket_probes(client: &mut ServeClient, rounds: usize, readings: &mut Readings) {
    readings.set(
        "serve.ping_rtt_us",
        median_us(rounds, || client.ping().expect("ping")),
    );
    readings.set(
        "obs.metrics_snapshot_ms",
        median_us(rounds / 20, || {
            client.metrics().expect("metrics");
        }) / 1e3,
    );
}

/// Records per second through the live-ingest path of one node: the
/// sketch's records in four wire `IngestBatch`es, then the finalize that
/// builds every trial's sample server-side.
fn wire_ingest_records_per_s(addr: std::net::SocketAddr, spec: &SketchSpec) -> f64 {
    // The finalize builds every trial's sample before it answers: no
    // socket deadline on this one connection.
    let mut client = ServeClient::connect(addr).expect("connect to the benchmark's server");
    let records: Vec<IngestRecord> = spec
        .data
        .instances()
        .iter()
        .enumerate()
        .flat_map(|(instance, inst)| {
            inst.iter().map(move |(key, value)| IngestRecord {
                instance: instance as u64,
                key,
                value,
            })
        })
        .collect();
    let config = SketchConfig {
        scheme: spec.scheme,
        shards: spec.shards as u64,
        trials: spec.trials,
        base_salt: spec.salt,
    };
    let start = Instant::now();
    for batch in records.chunks(records.len().div_ceil(4)) {
        client
            .ingest_batch("ingest_probe", config, batch.to_vec(), false)
            .expect("ingest batch");
    }
    let ack = client
        .ingest_batch("ingest_probe", config, Vec::new(), true)
        .expect("finalize");
    assert!(ack.ready, "finalized sketch must be servable");
    records.len() as f64 / start.elapsed().as_secs_f64()
}

/// Writes the run's spans to `trace-<workload>.jsonl`.
fn write_trace(ctx: &Ctx, workload: &str, spans: &[Span]) {
    let path = ctx.out_dir.join(format!("trace-{workload}.jsonl"));
    match std::fs::create_dir_all(&ctx.out_dir)
        .and_then(|()| crate::trace::write_jsonl(&path, spans))
    {
        Ok(()) => println!("# trace: {} spans in {}", spans.len(), path.display()),
        Err(e) => println!("# trace: could not write {}: {e}", path.display()),
    }
}

/// `windows` closed-loop windows of `window` each against one node.  With
/// an `epoch`, odd windows are traced (a span per call) and even ones are
/// not, which prices the tracing itself.
fn closed_windows(
    clients: &mut [ServeClient],
    menu: &Menu,
    plans: &[Vec<Op>],
    window: Duration,
    windows: usize,
    epoch: Option<Instant>,
) -> (Vec<Window>, Vec<Span>) {
    println!(
        "# closed loop: {windows} windows of {:.3} s, {} connections",
        window.as_secs_f64(),
        clients.len()
    );
    let mut spans = Vec::new();
    let results = (0..windows)
        .map(|w| {
            let traced = epoch.filter(|_| w % 2 == 1);
            let (result, recorded) = closed_loop(clients, menu, plans, w, window, traced);
            spans.extend(recorded);
            result
        })
        .collect();
    (results, spans)
}

/// Records the query class's tail latency (traced runs only: the metric is
/// reported, not gated) and says which percentile it is.
fn set_query_tail(readings: &mut Readings, latency: &LatencyWindows) {
    if let Some(l) = latency.summary() {
        readings.set("query_p99_ms", l.tail);
        println!(
            "# query latency: {} samples, p50 {:.4} ms, tail percentile p{:.0}",
            l.count,
            l.p50,
            l.tail_q * 100.0
        );
    }
}

/// The `Estimate`-class latencies of `windows`, window by window.
fn estimate_latencies(windows: &[Window]) -> LatencyWindows {
    let mut latency = LatencyWindows::default();
    for window in windows {
        latency.push(window.estimate_ms.clone());
    }
    latency
}

/// Traced over untraced closed-loop throughput from alternating windows
/// (even windows untraced, odd ones traced).
fn trace_overhead_ratio(windows: &[Window]) -> f64 {
    let rate = |parity: usize| {
        let rates: Vec<f64> = windows
            .iter()
            .enumerate()
            .filter(|(w, _)| w % 2 == parity)
            .map(|(_, window)| window.reports_per_s())
            .collect();
        if rates.is_empty() {
            f64::NAN
        } else {
            median(&rates)
        }
    };
    rate(1) / rate(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::END_TO_END;

    #[test]
    fn setup_time_is_the_median_of_the_set_ups() {
        let sizes = |setup_reps, setup_budget_s| Sizes {
            setup_reps,
            setup_budget_s,
            ..Sizes::smoke()
        };
        let mut built = 0;
        let mut setup = || {
            built += 1;
            std::thread::sleep(Duration::from_millis(built * 4));
            built
        };
        let (world, seconds) = repeat_setup(&sizes(3, 0.0), &mut setup);
        assert_eq!(world, 3);
        assert!((0.008..0.012).contains(&seconds), "{seconds}");
        // A budget buys more set-ups, up to three times the minimum.
        let (world, _) = repeat_setup(&sizes(1, 60.0), &mut setup);
        assert_eq!(world, 3 + 3);
    }

    #[test]
    fn overhead_ratio_compares_alternating_windows() {
        let window = |reports| Window {
            elapsed_s: 1.0,
            reports,
            ..Window::default()
        };
        let windows = [window(100), window(90), window(102), window(92), window(98)];
        assert!((trace_overhead_ratio(&windows) - 0.91).abs() < 1e-12);
    }

    /// Drives every workload end to end at smoke size, untraced and traced,
    /// and checks the printed result against the contract: exactly the
    /// catalogue's metrics, all finite, and no operation failed.
    #[test]
    fn smoke_runs_every_workload_in_both_modes() {
        let out_dir =
            std::env::temp_dir().join(format!("pie-benchmark-smoke-{}", std::process::id()));
        for workload in ALL {
            for traced in [false, true] {
                let ctx = Ctx {
                    seed: 42,
                    seconds: 1.0,
                    traced,
                    sizes: Sizes::smoke(),
                    out_dir: out_dir.clone(),
                };
                let started = Instant::now();
                let result = (workload.run)(&ctx);
                let catalogue = if traced { PER_LAYER } else { END_TO_END };
                let line = result
                    .json_line(catalogue)
                    .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", workload.name));
                let parsed = Json::parse(&line).expect("result line is JSON");
                let keys: Vec<&str> = parsed
                    .as_object()
                    .expect("object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(
                    parsed.get("correct"),
                    Some(&Json::Bool(true)),
                    "{}",
                    workload.name
                );
                assert_eq!(result.failed, 0, "{}", workload.name);
                assert!(result.attempted >= 1);
                if !traced {
                    for def in END_TO_END {
                        let value = result.readings.get(def.name).expect("reading");
                        assert!(value > 0.0, "{} {} = {value}", workload.name, def.name);
                    }
                }
                println!(
                    "{} traced={traced}: {:.2?}",
                    workload.name,
                    started.elapsed()
                );
            }
            assert!(out_dir
                .join(format!("trace-{}.jsonl", workload.name))
                .exists());
        }
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
