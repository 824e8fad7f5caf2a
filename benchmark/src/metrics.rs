//! The metric catalogue (name, unit, direction, bound) and the result a
//! workload run prints.  `/BENCHMARK.json` repeats the catalogue; a
//! self-test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One catalogue entry.  `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// How far an end-to-end median may worsen before it is a regression.  A
/// metric that cannot repeat within it is demoted to [`PER_LAYER`], never
/// given a wider bound.
const BOUND: f64 = 0.10;

/// What a user of the system sees.  The driver reads every one of them
/// from every workload (README: "Cells").  The tenth gated quantity,
/// `failed_share`, is the result line's `failed / attempted`: it may not
/// rise above 0, and a metric that is 0 cannot be listed here.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, BOUND, "datagen + build + references + bind + publish + warm-up; median over the run's set-ups"),
    e2e("queries_per_s", "1/s", Higher, BOUND, "correct reports delivered per second of closed-loop time; median over windows"),
    e2e("query_p50_ms", "ms", Lower, BOUND, "caller-observed latency of the workload's query class; median over windows of the window p50"),
    e2e("cold_query_p50_ms", "ms", Lower, BOUND, "first query of a freshly published sketch (nothing cached for it)"),
    e2e("snapshot_bytes_per_record", "B/record", Lower, 0.02, "encoded CatalogEntry bytes per ingested record (exact for the seed)"),
    e2e("trials_per_s", "1/s", Higher, BOUND, "Monte-Carlo trials covered by the correct reports delivered, per second"),
];

/// Single-layer numbers from the traced run; no bounds.  A layer the
/// workload never calls into reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Demoted from the end-to-end list: its run-to-run spread (10-25% on
    // three of the four workloads) does not fit the bound.  Reported, not
    // gated.
    layer("query_p99_ms", "ms", Lower, "tail of the query class: highest percentile, up to p99, with >= 10 samples beyond it; median over windows"),
    // Demoted likewise: on `serve_recompute` the peak moves between 36 and
    // 43 MB (spread 9-12%) with how many of the server's workers, each
    // with an allocator arena of its own, ever ran a query.
    layer("peak_rss_mb", "MB", Lower, "VmHWM of the workload's own process when it ends"),
    // Demoted likewise: about half of `publish_then_read`'s publishes meet a
    // ~40 ms delayed-ACK stall (p25 22 ms, p75 65 ms), so the median sits
    // between two modes: 22.8-29.8 ms on unchanged code, spread 11.5%.
    layer("publish_p50_ms", "ms", Lower, "records in hand -> servable on both owners: CatalogEntry::build + publish_entry"),
    layer("datagen.generate_s", "s", Lower, "generate the workload's datasets"),
    layer("sampling.sample_all_ns_per_record.pps", "ns/record", Lower, "sample_all, PPS, paper-scale traffic"),
    layer("sampling.sample_all_ns_per_record.obl", "ns/record", Lower, "sample_all, oblivious p=0.3, 10k-key set pair"),
    layer("sampling.stream_ingest_ns_per_record", "ns/record", Lower, "ingest_merge_finalize, PPS, 2 shards"),
    layer("sampling.outcomes_per_trial", "count", Lower, "keys sampled in >= 1 instance per PPS trial (exact for the seed)"),
    layer("core.kernel_ns_per_outcome.max_weighted", "ns/outcome", Lower, "estimate_lanes over the whole suite, lanes filled once"),
    layer("core.kernel_ns_per_outcome.or_weighted", "ns/outcome", Lower, "as above"),
    layer("core.kernel_ns_per_outcome.max_oblivious", "ns/outcome", Lower, "as above"),
    layer("core.kernel_ns_per_outcome.max_oblivious_uniform", "ns/outcome", Lower, "as above"),
    layer("core.kernel_ns_per_outcome.or_oblivious", "ns/outcome", Lower, "as above"),
    layer("analysis.thread_scaling_2_over_1", "ratio", Higher, "Pipeline::threads(2) trials/s over threads(1); 0 = not measured (nproc < 2)"),
    layer("pipeline.estimate_named_ms.pps", "ms", Lower, "CatalogEntry::estimate_named, Some(1) thread, paper-scale PPS sketch"),
    layer("pipeline.estimate_named_ms.obl", "ms", Lower, "same, oblivious set-pair sketch"),
    layer("pipeline.estimate_ns_per_outcome", "ns/outcome", Lower, "estimate_named over trials x outcomes per trial (PPS)"),
    layer("pipeline.overhead_over_kernel_ratio", "ratio", Lower, "that over core.kernel_ns_per_outcome.max_weighted"),
    layer("pipeline.trial_replay_share", "share", Lower, "StageNanos trial replay over replay + estimator batch"),
    layer("pipeline.batch2_over_single_ratio", "ratio", Lower, "estimate_batch_named of 2 over estimate_named of 1"),
    layer("pipeline.build_ms", "ms", Lower, "CatalogEntry::build of the paper-scale PPS sketch"),
    layer("store.encode_mb_per_s", "MB/s", Higher, "encode_to_vec of a whole CatalogEntry"),
    layer("store.decode_mb_per_s", "MB/s", Higher, "decode_from_slice: validation + fingerprint included"),
    layer("store.snapshot_bytes", "B", Lower, "encoded size of that entry"),
    layer("engine.cache_hit_rate", "share", Higher, "stats() delta over the timed part"),
    layer("engine.cache_evictions", "count", Lower, "stats() delta"),
    layer("engine.cache_invalidations", "count", Lower, "stats() delta"),
    layer("engine.sheds", "count", Lower, "queue + tenant sheds, stats() delta"),
    layer("engine.cache_get_ns", "ns", Lower, "standalone EstimateCache::get, hit"),
    layer("engine.cache_insert_ns", "ns", Lower, "standalone EstimateCache::insert into a full cache"),
    layer("engine.admit_ns", "ns", Lower, "AdmissionController::admit_query + InflightGate::admit"),
    layer("serve.wire_encode_request_ns", "ns", Lower, "write_message(Request::Estimate) into memory"),
    layer("serve.wire_decode_request_ns", "ns", Lower, "read_request from memory"),
    layer("serve.wire_encode_response_ns", "ns", Lower, "write_message(Response::Estimated) into memory"),
    layer("serve.wire_decode_response_ns", "ns", Lower, "read_response from memory"),
    layer("serve.response_bytes", "B", Lower, "one Estimated frame"),
    layer("serve.ping_rtt_us", "us", Lower, "ServeClient::ping p50: socket + event-loop floor"),
    layer("serve.hit_rtt_us", "us", Lower, "ServeClient::estimate p50 on a cached combination"),
    layer("serve.rate_2000.p50_ms", "ms", Lower, "open loop at 2000 req/s, from due time"),
    layer("serve.rate_2000.p99_ms", "ms", Lower, "as above"),
    layer("serve.rate_2000.late_ms", "ms", Lower, "generator lateness p99 at that rate"),
    layer("serve.rate_4000.p50_ms", "ms", Lower, "open loop at 4000 req/s"),
    layer("serve.rate_4000.p99_ms", "ms", Lower, "as above"),
    layer("serve.rate_4000.late_ms", "ms", Lower, "as above"),
    layer("serve.rate_8000.p50_ms", "ms", Lower, "open loop at 8000 req/s"),
    layer("serve.rate_8000.p99_ms", "ms", Lower, "as above"),
    layer("serve.rate_8000.late_ms", "ms", Lower, "as above"),
    layer("serve.rate_16000.p50_ms", "ms", Lower, "open loop at 16000 req/s"),
    layer("serve.rate_16000.p99_ms", "ms", Lower, "as above"),
    layer("serve.rate_16000.late_ms", "ms", Lower, "as above"),
    layer("serve.knee_rate_per_s", "1/s", Higher, "highest rung with p99 <= 2 ms and no growing backlog; quantised, so not gated"),
    layer("serve.ingest_records_per_s", "1/s", Higher, "wire IngestBatch x 4 + finalize on one node"),
    layer("serve.unattributed_us", "us", Lower, "client p50 minus the ledger's layer self times"),
    layer("ledger.client_p50_us", "us", Lower, "client-observed p50 the ledger closes on"),
    layer("ledger.pipeline_core_share", "share", Lower, "pipeline.* + core.* self time over that p50"),
    layer("cluster.router_hop_us", "us", Lower, "routed p50 minus direct p50 against the owner"),
    layer("cluster.publish_fanout_ms", "ms", Lower, "publish_entry minus encode_to_vec"),
    layer("cluster.failovers", "count", Lower, "router_failovers_total; expect 0"),
    layer("obs.on_over_off_ratio", "ratio", Higher, "closed-loop q/s with ObsConfig::default() over ObsConfig::disabled()"),
    layer("obs.metrics_snapshot_ms", "ms", Lower, "ServeClient::metrics round trip"),
    layer("bench.trace_overhead_ratio", "ratio", Higher, "traced over untraced closed-loop q/s, alternating windows"),
    layer("bench.generator_late_ms_p99", "ms", Lower, "open-loop generator lateness p99 at the reference rate"),
];

/// Seconds one run measures when the driver runs it.
pub const RUN_SECONDS: u32 = 20;

/// The text of `/BENCHMARK.json`: the command, the workloads with their
/// reasons, and this catalogue.
pub fn benchmark_json() -> String {
    let metric = |def: &MetricDef| {
        let bound = def
            .bound
            .map_or_else(String::new, |b| format!(", \"bound\": {b:?}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            def.name,
            def.unit,
            def.better.as_str()
        )
    };
    let list = |defs: &[MetricDef]| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    let workloads = crate::workloads::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(END_TO_END),
        list(PER_LAYER)
    )
}

/// Every metric with its unit, direction, bound and meaning.
pub fn print_catalogue() {
    for (title, defs) in [("end to end", END_TO_END), ("per layer", PER_LAYER)] {
        println!("== {title} ==");
        for def in defs {
            let bound = def
                .bound
                .map_or_else(|| "-".to_string(), |b| format!("{b}"));
            println!(
                "{:<52} {:<10} {:<7} {:<5} {}",
                def.name,
                def.unit,
                def.better.as_str(),
                bound,
                def.what
            );
        }
        if title == "end to end" {
            println!(
                "{:<52} {:<10} {:<7} {:<5} failed / attempted of the result line; may not rise above 0",
                "failed_share", "share", "lower", "0"
            );
        }
    }
}

/// `[A-Za-z0-9_.-]+`, at most 64 characters, starting with a letter or a
/// digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Values measured by one workload run, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Readings(BTreeMap<&'static str, f64>);

impl Readings {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// What one workload run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub readings: Readings,
}

/// Why a result may not be printed as a success.
#[derive(Debug, PartialEq, Eq)]
pub enum ResultError {
    InvalidName(String),
    Unknown(String),
    Missing(&'static str),
    NotFinite(&'static str),
}

impl std::fmt::Display for ResultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidName(name) => write!(f, "metric name {name:?} is not [A-Za-z0-9_.-]+"),
            Self::Unknown(name) => write!(f, "metric {name} is not in the catalogue"),
            Self::Missing(name) => write!(f, "metric {name} was not measured"),
            Self::NotFinite(name) => write!(f, "metric {name} is not a finite number"),
        }
    }
}

impl RunResult {
    /// The last line of a run's standard output: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`, the metrics being
    /// every entry of `catalogue` and nothing else.
    ///
    /// # Errors
    /// A reading outside the catalogue, a catalogue entry without a finite
    /// reading, or an invalid name.
    pub fn json_line(&self, catalogue: &[MetricDef]) -> Result<String, ResultError> {
        for name in self.readings.names() {
            if !valid_name(name) {
                return Err(ResultError::InvalidName(name.to_string()));
            }
            if !catalogue.iter().any(|def| def.name == name) {
                return Err(ResultError::Unknown(name.to_string()));
            }
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, def) in catalogue.iter().enumerate() {
            let value = self
                .readings
                .get(def.name)
                .ok_or(ResultError::Missing(def.name))?;
            if !value.is_finite() {
                return Err(ResultError::NotFinite(def.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest decimal that round-trips: all the
            // digits measured, and valid JSON for every finite f64.
            write!(
                line,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
            .expect("writing to a String");
        }
        line.push_str("}}");
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_follow_the_pattern() {
        for ok in ["setup_s", "serve.rate_2000.p50_ms", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "p50(ms)", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_is_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.unit.len() <= 16 && !def.unit.is_empty(), "{}", def.name);
            assert!(
                def.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                def.unit
            );
            assert!(!def.what.is_empty());
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    /// `/BENCHMARK.json` must list exactly this catalogue: it is the
    /// output of `pie-benchmark catalogue --json`.
    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        assert_eq!(include_str!("../../BENCHMARK.json"), benchmark_json());
        let parsed = Json::parse(&benchmark_json()).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            parsed
                .get("paths")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = parsed.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (entry, def) in listed.iter().zip(catalogue) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let workloads: Vec<&str> = parsed
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let known: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn json_line_carries_exactly_the_catalogue() {
        let catalogue = &END_TO_END[..2];
        assert_eq!(catalogue[1].name, "queries_per_s");
        let mut result = RunResult {
            attempted: 10,
            failed: 0,
            readings: Readings::default(),
        };
        result.readings.set("setup_s", 0.8127);
        assert_eq!(
            result.json_line(catalogue),
            Err(ResultError::Missing("queries_per_s"))
        );
        result.readings.set("queries_per_s", 1e21);
        let line = result.json_line(catalogue).expect("complete");
        let parsed = Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(10.0));
        let metrics = parsed
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), 2);
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.8127)
        );
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("queries_per_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1e21)
        );
        result.readings.set("trials_per_s", 1.0);
        assert_eq!(
            result.json_line(catalogue),
            Err(ResultError::Unknown("trials_per_s".to_string()))
        );
        result.failed = 1;
        result.readings = Readings::default();
        result.readings.set("setup_s", f64::NAN);
        result.readings.set("queries_per_s", 1.0);
        assert_eq!(
            result.json_line(catalogue),
            Err(ResultError::NotFinite("setup_s"))
        );
    }
}
