//! The repository's benchmark runner.  See `benchmark/README.md`.
//!
//! ```text
//! pie-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pie-benchmark all   [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
//! pie-benchmark agree [--seed <n>] [--seconds <s>] [--smoke]
//! pie-benchmark catalogue [--json]
//! ```
//!
//! The first form runs one workload in this process and prints one line
//! per metric, then one JSON object as the last line of standard output.
//! `all` runs every workload, each in a fresh process of its own; `agree`
//! runs two sets of `all` on each of two seeds and fails if the twin sets'
//! medians disagree by more than a metric's bound.  `catalogue` prints every metric with its
//! unit, direction and bound; with `--json`, as the text of
//! `/BENCHMARK.json`.

mod agree;
mod data;
mod json;
mod load;
mod metrics;
mod probes;
mod provenance;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use data::Sizes;
use metrics::{MetricDef, RunResult, END_TO_END, PER_LAYER};
use workloads::{Ctx, Workload};

/// Seed used when none is given; recorded with every result.
const DEFAULT_SEED: u64 = 20_110_612;
/// Length of a workload's timed part when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// Command-line options shared by every mode.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    mode: Mode,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    One(String),
    All,
    Agree,
    Catalogue { json: bool },
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        mode: Mode::All,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "all" => options.mode = Mode::All,
            "agree" => options.mode = Mode::Agree,
            "catalogue" => options.mode = Mode::Catalogue { json: false },
            "--json" if matches!(options.mode, Mode::Catalogue { .. }) => {
                options.mode = Mode::Catalogue { json: true };
            }
            "--workload" => options.mode = Mode::One(value("a workload name")?.to_string()),
            "--seed" => {
                options.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
                seconds_given = true;
            }
            "--trace" => {
                options.traced = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if options.smoke && !seconds_given {
        options.seconds = 1.0;
    }
    if let Mode::One(name) = &options.mode {
        if !workloads::ALL.iter().any(|w| w.name == name) {
            let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
    }
    Ok(options)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn catalogue(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Runs one workload in this process and prints its result; the JSON
/// object is the last line.
fn run_one(workload: &Workload, options: &Options) -> ExitCode {
    let sizes = if options.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let mode = if options.traced { "traced" } else { "untraced" };
    println!("# workload {}: {}", workload.name, workload.why);
    println!("{}", provenance::Provenance::collect().line());
    println!(
        "# seed {} mode {mode} seconds {} generators {}{}",
        options.seed,
        options.seconds,
        load::generators(),
        if options.smoke { " smoke" } else { "" }
    );
    let ctx = Ctx {
        seed: options.seed,
        seconds: options.seconds,
        traced: options.traced,
        sizes,
        out_dir: out_dir(),
    };
    let mut result = (workload.run)(&ctx);
    // Each workload runs in a process of its own, so this is its peak.
    let peak_rss_mb = workloads::peak_rss_mb();
    if options.traced {
        result.readings.set("peak_rss_mb", peak_rss_mb);
    } else {
        println!("# peak rss {peak_rss_mb:.4} MB (reported by the traced run, not gated)");
    }
    print_result(workload.name, &result, catalogue(options.traced))
}

/// One `name value unit` line per metric, then the JSON line.  Fails on a
/// metric outside the catalogue or the name pattern, and when any
/// operation failed.
fn print_result(workload: &str, result: &RunResult, catalogue: &[MetricDef]) -> ExitCode {
    let line = match result.json_line(catalogue) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for def in catalogue {
        let value = result
            .readings
            .get(def.name)
            .expect("json_line checked every metric");
        if provenance::not_measured(def.name) {
            println!("{:<52} {:>16} {}", def.name, "not_measured", def.unit);
        } else {
            println!("{:<52} {value:>16.4} {}", def.name, def.unit);
        }
    }
    println!(
        "{:<52} {:>16.6} share ({} of {})",
        "failed_share",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    println!("{line}");
    if result.failed > 0 {
        eprintln!(
            "{workload}: {} of {} operations failed",
            result.failed, result.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\nusage: pie-benchmark [all|agree|catalogue [--json]|--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]");
            return ExitCode::from(2);
        }
    };
    match &options.mode {
        Mode::One(name) => {
            let workload = workloads::ALL
                .iter()
                .find(|w| w.name == name)
                .expect("parse checked the name");
            run_one(workload, &options)
        }
        Mode::All => match agree::run_all(&options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        },
        Mode::Agree => agree::run(&options),
        Mode::Catalogue { json: true } => {
            print!("{}", metrics::benchmark_json());
            ExitCode::SUCCESS
        }
        Mode::Catalogue { json: false } => {
            metrics::print_catalogue();
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_form() {
        let options = parse(&args(
            "--workload serve_hot --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            options,
            Options {
                mode: Mode::One("serve_hot".to_string()),
                seed: 7,
                seconds: 10.0,
                traced: true,
                smoke: false,
            }
        );
    }

    #[test]
    fn defaults_and_smoke() {
        let options = parse(&[]).expect("valid");
        assert_eq!(
            (options.mode, options.seed, options.seconds),
            (Mode::All, DEFAULT_SEED, DEFAULT_SECONDS)
        );
        assert_eq!(parse(&args("agree --smoke")).expect("valid").seconds, 1.0);
        assert_eq!(
            parse(&args("--smoke --seconds 3")).expect("valid").seconds,
            3.0
        );
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seconds soon",
            "--seed -1",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
