//! `all`: every workload, each in a fresh process of its own, so that one
//! workload's allocations never show in another's `peak_rss_mb`.
//! `agree`: two sets of runs of the whole benchmark on the same code, on
//! the default seed and on another, failing when the twin sets' medians
//! differ by more than a metric's bound.  A metric that cannot pass this by
//! longer or more windows is demoted to per-layer, never given a wider
//! bound.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END};
use crate::workloads::{Workload, ALL};
use crate::{catalogue, Options};

/// `(workload, metric) -> value` for one run of the whole benchmark.
pub type Readings = BTreeMap<(&'static str, String), f64>;

/// Reads a workload process's output: the last line is the result.
fn parse_result(stdout: &str, expected: &[MetricDef]) -> Result<Vec<(String, f64)>, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let parsed = Json::parse(last).ok_or_else(|| format!("last line is not JSON: {last}"))?;
    if parsed.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("run was not correct: {last}"));
    }
    let metrics = parsed
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result has no metrics")?;
    let names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|def| def.name).collect();
    if names != wanted {
        return Err(format!(
            "metrics {names:?} are not the catalogue {wanted:?}"
        ));
    }
    metrics
        .iter()
        .map(|(name, metric)| {
            metric
                .get("value")
                .and_then(Json::as_f64)
                .map(|value| (name.clone(), value))
                .ok_or_else(|| format!("{name} has no value"))
        })
        .collect()
}

/// Runs `workload` in a fresh process, echoes its lines (minus the JSON
/// it ends with) and returns its metrics.
fn run_workload(workload: &Workload, options: &Options) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("{}: cannot start: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|line| !line.starts_with('{')) {
        println!("{line}");
    }
    println!();
    if !output.status.success() {
        return Err(format!("{}: exited with {}", workload.name, output.status));
    }
    parse_result(&stdout, catalogue(options.traced)).map_err(|e| format!("{}: {e}", workload.name))
}

/// Runs every workload in its own process and prints one table.
///
/// # Errors
/// Names the workload that failed, printed a malformed result, or could
/// not be started.
pub fn run_all(options: &Options) -> Result<(), String> {
    let mut readings = Readings::new();
    for workload in ALL {
        for (metric, value) in run_workload(workload, options)? {
            readings.insert((workload.name, metric), value);
        }
    }
    print_table(&readings, catalogue(options.traced));
    Ok(())
}

fn print_table(readings: &Readings, catalogue: &[MetricDef]) {
    print!("{:<52} {:<9}", "metric", "unit");
    for workload in ALL {
        print!(" {:>17}", workload.name);
    }
    println!();
    for def in catalogue {
        print!("{:<52} {:<9}", def.name, def.unit);
        for workload in ALL {
            match readings.get(&(workload.name, def.name.to_string())) {
                Some(_) if crate::provenance::not_measured(def.name) => {
                    print!(" {:>17}", "not_measured");
                }
                Some(value) => print!(" {value:>17.4}"),
                None => print!(" {:>17}", "-"),
            }
        }
        println!();
    }
}

/// Twin readings that differ by more than the metric's bound, as a share
/// of the smaller one.
fn disagreements(first: &Readings, second: &Readings, seed: u64) -> Vec<String> {
    let mut found = Vec::new();
    for def in END_TO_END {
        let bound = def.bound.expect("end-to-end metrics have bounds");
        for workload in ALL {
            let key = (workload.name, def.name.to_string());
            let (Some(&a), Some(&b)) = (first.get(&key), second.get(&key)) else {
                found.push(format!(
                    "{} on {}: missing from a run",
                    def.name, workload.name
                ));
                continue;
            };
            let spread = (a - b).abs() / a.abs().min(b.abs());
            // A reading that is not a number compares as beyond any bound.
            if spread.is_nan() || spread > bound {
                found.push(format!(
                    "{} on {} (seed {seed}): {a:.4} vs {b:.4} {} differ by {:.1}%, bound {:.0}%",
                    def.name,
                    workload.name,
                    def.unit,
                    spread * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    found
}

/// Per-key median over one set of runs; a key missing from any run is
/// dropped (and then reported as missing).
fn medians(set: &[Readings]) -> Readings {
    let mut out = Readings::new();
    if let Some(first) = set.first() {
        for key in first.keys() {
            let values: Option<Vec<f64>> = set.iter().map(|run| run.get(key).copied()).collect();
            if let Some(values) = values {
                out.insert(key.clone(), crate::stats::median(&values));
            }
        }
    }
    out
}

/// Runs of the whole benchmark in each of `agree`'s sets.  A set is
/// compared by its medians, so two runs in five may fall in a slow spell of
/// the host without moving them.
const RUNS_PER_SET: usize = 5;

/// Two sets of [`RUNS_PER_SET`] runs of the whole benchmark on
/// `options.seed`, and two more on another seed; succeeds only if, for
/// every end-to-end metric and workload, the twin sets' medians agree
/// within the bound.  The sets take turns run by run, so a change in the
/// host's speed falls on both.
pub fn run(options: &Options) -> ExitCode {
    let mut options = options.clone();
    options.traced = false;
    let mut found = Vec::new();
    for seed in [options.seed, options.seed.wrapping_add(1)] {
        options.seed = seed;
        let mut sets = [
            vec![Readings::new(); RUNS_PER_SET],
            vec![Readings::new(); RUNS_PER_SET],
        ];
        for workload in ALL {
            for run in 0..RUNS_PER_SET {
                for (set, runs) in sets.iter_mut().enumerate() {
                    println!(
                        "== agree: seed {seed}, set {}, run {} of {RUNS_PER_SET} ==",
                        set + 1,
                        run + 1
                    );
                    match run_workload(workload, &options) {
                        Ok(metrics) => {
                            for (metric, value) in metrics {
                                runs[run].insert((workload.name, metric), value);
                            }
                        }
                        Err(message) => {
                            eprintln!("{message}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
        }
        let (first, second) = (medians(&sets[0]), medians(&sets[1]));
        println!("== agree: seed {seed}, medians of set 1 ==");
        print_table(&first, END_TO_END);
        println!("== agree: seed {seed}, medians of set 2 ==");
        print_table(&second, END_TO_END);
        found.extend(disagreements(&first, &second, seed));
    }
    if found.is_empty() {
        println!("agree: every end-to-end metric of every workload agrees with its twin within its bound, on both seeds");
        ExitCode::SUCCESS
    } else {
        for line in &found {
            eprintln!("agree: {line}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRIC: &str = "query_p50_ms";

    fn bound() -> f64 {
        let def = END_TO_END
            .iter()
            .find(|d| d.name == METRIC)
            .expect("listed");
        def.bound.expect("gated")
    }

    /// Every reading 100, except `METRIC` on `serve_hot`.
    fn readings(value: f64) -> Readings {
        let mut readings = Readings::new();
        for workload in ALL {
            for def in END_TO_END {
                readings.insert((workload.name, def.name.to_string()), 100.0);
            }
        }
        readings.insert(("serve_hot", METRIC.to_string()), value);
        readings
    }

    #[test]
    fn twins_within_the_bound_agree() {
        let inside = 100.0 * (1.0 + bound() - 0.01);
        assert!(disagreements(&readings(100.0), &readings(inside), 1).is_empty());
        assert!(disagreements(&readings(inside), &readings(100.0), 1).is_empty());
    }

    #[test]
    fn a_twin_beyond_the_bound_is_named() {
        let outside = 100.0 * (1.0 + bound() + 0.02);
        let found = disagreements(&readings(100.0), &readings(outside), 1);
        assert_eq!(found.len(), 1);
        assert!(
            found[0].contains("query_p50_ms on serve_hot"),
            "{}",
            found[0]
        );
        // A reading that is not a number never agrees.
        assert_eq!(
            disagreements(&readings(100.0), &readings(f64::NAN), 1).len(),
            1
        );
        let mut missing = readings(100.0);
        missing.remove(&("serve_hot", METRIC.to_string()));
        assert_eq!(disagreements(&readings(100.0), &missing, 1).len(), 1);
    }

    #[test]
    fn a_set_is_compared_by_its_medians() {
        let set = [readings(90.0), readings(500.0), readings(100.0)];
        let key = ("serve_hot", METRIC.to_string());
        assert_eq!(medians(&set).get(&key), Some(&100.0));
        let mut short = readings(100.0);
        short.remove(&key);
        assert_eq!(medians(&[readings(100.0), short]).get(&key), None);
        assert!(medians(&[]).is_empty());
    }

    #[test]
    fn result_lines_are_checked_against_the_catalogue() {
        let catalogue = &END_TO_END[..1];
        let good = "# note\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}";
        assert_eq!(
            parse_result(good, catalogue),
            Ok(vec![("setup_s".to_string(), 0.5)])
        );
        assert!(parse_result(&good.replace("true", "false"), catalogue).is_err());
        assert!(parse_result(&good.replace("setup_s", "other"), catalogue).is_err());
        assert!(parse_result("no json here", catalogue).is_err());
        assert!(parse_result("", catalogue).is_err());
    }
}
