//! `montecarlo_batch`: the paper-reproduction user.  In-process `Pipeline`
//! and `StreamPipeline` runs with fresh sampling every trial (nothing is
//! replayed from a stored sample), both regimes, on
//! `threads = min(nproc, 2)`.  No sockets, no cache: a serving-stack change
//! must not move it; a sampling or trial-engine change shows here first.

use std::time::{Duration, Instant};

use partial_info_estimators::{PipelineReport, Scheme};

use super::{
    estimate_latencies, layer_readings, repeat_setup, run_result, set_query_tail,
    trace_overhead_ratio, write_trace, Ctx, EndToEnd,
};
use crate::data::{bit_identical, set_pair, traffic, SketchSpec, TRAFFIC_TAU};
use crate::load::{generators, Window};
use crate::metrics::RunResult;
use crate::rng::Rng;
use crate::trace::Recorder;

const PPS_QUERY: (&str, &str) = ("max_weighted", "max_dominance");
const OBL_QUERY: (&str, &str) = ("or_oblivious", "distinct_count");
/// Timed windows of a full run, each about ten cycles of fixed work.
const WINDOWS: usize = 10;

struct World {
    pps: SketchSpec,
    obl: SketchSpec,
    /// One-thread `Pipeline` references: every timed run, at any thread
    /// or shard count, must reproduce them bit for bit.
    pps_reference: PipelineReport,
    obl_reference: PipelineReport,
    threads: usize,
}

fn setup(ctx: &Ctx) -> World {
    let mut rng = Rng::new(ctx.seed, "montecarlo_batch");
    let pps = SketchSpec {
        data: traffic(rng.next_u64(), ctx.sizes.paper_keys_per_hour),
        scheme: Scheme::pps(TRAFFIC_TAU),
        shards: 2,
        trials: ctx.sizes.mc_trials,
        salt: rng.next_u64() >> 16,
    };
    let obl = SketchSpec {
        data: set_pair(ctx.sizes.mc_set_size),
        scheme: Scheme::oblivious(0.3),
        shards: 2,
        trials: ctx.sizes.mc_trials,
        salt: rng.next_u64() >> 16,
    };
    let reference = |spec: &SketchSpec, query: (&str, &str)| {
        spec.pipeline(query.0, query.1, Some(1))
            .run()
            .expect("reference pipeline")
    };
    let mut world = World {
        pps_reference: reference(&pps, PPS_QUERY),
        obl_reference: reference(&obl, OBL_QUERY),
        pps,
        obl,
        threads: generators(),
    };
    // Warm-up: one whole cycle, checked like the timed ones.
    let mut warmup = Cycles::default();
    warmup.cycle(&mut world, &mut Recorder::disabled());
    assert_eq!(warmup.runs.failed, 0, "warm-up run diverged");
    world
}

#[derive(Default)]
struct Cycles {
    /// The three estimation runs of each cycle: the fixed work.
    runs: Window,
    run_time: Duration,
}

impl Cycles {
    fn run(
        &mut self,
        name: &'static str,
        expected: &PipelineReport,
        recorder: &mut Recorder,
        run: impl FnOnce() -> PipelineReport,
    ) -> Duration {
        let span = recorder.open(name, None, self.runs.attempted);
        let start = Instant::now();
        let report = run();
        let took = start.elapsed();
        recorder.close(span);
        self.runs.attempted += 1;
        self.run_time += took;
        if bit_identical(&report, expected) {
            self.runs.reports += 1;
            self.runs.trials += report.trials;
        } else {
            self.runs.failed += 1;
        }
        took
    }

    /// One cycle of fixed work: `Pipeline` PPS, `StreamPipeline` PPS (must
    /// equal it), `Pipeline` oblivious.
    fn cycle(&mut self, world: &mut World, recorder: &mut Recorder) {
        let threads = world.threads;
        let took = self.run("pipeline.run.pps", &world.pps_reference, recorder, || {
            world
                .pps
                .pipeline(PPS_QUERY.0, PPS_QUERY.1, Some(threads))
                .run()
                .expect("pipeline run")
        });
        // The query class: one `Pipeline` run on paper-scale traffic.
        self.runs.estimate_ms.push(took.as_secs_f64() * 1e3);
        self.run(
            "pipeline.stream_run.pps",
            &world.pps_reference,
            recorder,
            || {
                world
                    .pps
                    .stream_pipeline(PPS_QUERY.0, PPS_QUERY.1, threads)
                    .run()
                    .expect("stream pipeline run")
            },
        );
        self.run("pipeline.run.obl", &world.obl_reference, recorder, || {
            world
                .obl
                .pipeline(OBL_QUERY.0, OBL_QUERY.1, Some(threads))
                .run()
                .expect("pipeline run")
        });
    }

    fn take_window(&mut self) -> Window {
        let mut window = std::mem::take(&mut self.runs);
        window.elapsed_s = std::mem::take(&mut self.run_time).as_secs_f64();
        window
    }
}

fn timed_windows(
    world: &mut World,
    cycles: &mut Cycles,
    window: Duration,
    windows: usize,
    traced: impl Fn(usize) -> bool,
    recorder: &mut Recorder,
) -> Vec<Window> {
    println!(
        "# cycles: {windows} windows of {:.3} s, {} trial-engine threads",
        window.as_secs_f64(),
        world.threads
    );
    (0..windows)
        .map(|w| {
            recorder.set_enabled(traced(w));
            let start = Instant::now();
            while start.elapsed() < window {
                cycles.cycle(world, recorder);
            }
            cycles.take_window()
        })
        .collect()
}

pub(super) fn run(ctx: &Ctx) -> RunResult {
    let (mut world, setup_s) = repeat_setup(&ctx.sizes, || setup(ctx));
    let mut cycles = Cycles::default();
    if ctx.traced {
        let mut readings = layer_readings();
        crate::probes::run(ctx.seed, &ctx.sizes, &mut readings);
        let mut recorder = Recorder::new(false, Instant::now(), 1);
        let windows = ctx.windows(WINDOWS);
        let windows = timed_windows(
            &mut world,
            &mut cycles,
            ctx.window(0.5, windows),
            windows,
            |w| w % 2 == 1,
            &mut recorder,
        );
        readings.set("bench.trace_overhead_ratio", trace_overhead_ratio(&windows));
        set_query_tail(&mut readings, &estimate_latencies(&windows));
        write_trace(ctx, "montecarlo_batch", &recorder.into_spans());
        return run_result(readings, &windows, (0, 0));
    }
    let windows = ctx.windows(WINDOWS);
    let windows = timed_windows(
        &mut world,
        &mut cycles,
        ctx.window(1.0, windows),
        windows,
        |_| false,
        &mut Recorder::disabled(),
    );
    EndToEnd {
        setup_s,
        latency: estimate_latencies(&windows),
        windows,
        publishes: None,
    }
    .result(ctx, (0, 0))
}
