//! `publish_then_read`: a 3-node cluster with replication 2 and a small
//! per-node cache, one generator thread that keeps publishing mid-size
//! sketches onto rotating names and reading all of them through the router.
//! The same layers as the serving workloads, used differently: writes
//! beside reads, the router hop, and the cache's miss, evict and
//! invalidate paths.

use std::time::{Duration, Instant};

use partial_info_estimators::store::encode_to_vec;
use partial_info_estimators::PipelineReport;
use pie_cluster::{ClusterConfig, LocalCluster, Router};
use pie_serve::EngineConfig;

use super::{
    estimate_latencies, layer_readings, median_us, mid_variants, repeat_setup, run_result,
    set_engine_deltas, set_query_tail, socket_probes, trace_overhead_ratio, write_trace, Ctx,
    EndToEnd, Publishes,
};
use crate::data::{bit_identical, SketchSpec};
use crate::load::{client_config, connect, Window, OP_TIMEOUT};
use crate::metrics::RunResult;
use crate::rng::{Rng, Zipf};
use crate::stats::median;
use crate::trace::Recorder;

const NODES: usize = 3;
const REPLICATION: usize = 2;
/// Reports each node's cache holds: fewer than the combinations a node
/// serves, so steady-state reads mostly hit, some miss, and inserts evict.
const CACHE_CAPACITY: usize = 16;
const SUITE: &str = "max_weighted";
const STATISTICS: [&str; 2] = ["max_dominance", "distinct_count"];
const ZIPF_EXPONENT: f64 = 1.1;
/// Timed windows of a full run, each a couple of dozen cycles.
const WINDOWS: usize = 10;

struct World {
    cluster: LocalCluster,
    router: Router,
    /// Distinct sketches; cycle `c` publishes variant `c % variants`.
    variants: Vec<SketchSpec>,
    /// `Pipeline` reference per variant and statistic.
    expected: Vec<[PipelineReport; 2]>,
    names: Vec<String>,
    /// Which variant each name is bound to.
    bound: Vec<usize>,
    popularity: Zipf,
    /// Cycles run so far (set-up publishes every name once).
    cycle: usize,
}

fn setup(ctx: &Ctx) -> World {
    let variants = mid_variants(ctx);
    let expected = variants
        .iter()
        .map(|spec| STATISTICS.map(|statistic| spec.reference(SUITE, statistic)))
        .collect();
    let cluster = LocalCluster::launch_with(
        NODES,
        EngineConfig {
            cache_capacity: CACHE_CAPACITY,
            ..EngineConfig::default()
        },
    )
    .expect("launch the benchmark's cluster");
    let router = Router::new(ClusterConfig {
        nodes: cluster.specs(),
        replication: REPLICATION,
        client: client_config(),
    })
    .expect("router over the cluster");
    let names: Vec<String> = (0..ctx.sizes.publish_names)
        .map(|n| format!("sketch-{n:02}"))
        .collect();
    let mut world = World {
        cluster,
        router,
        variants,
        expected,
        popularity: Zipf::new(names.len(), ZIPF_EXPONENT),
        bound: vec![0; names.len()],
        names,
        cycle: 0,
    };
    // Publish every name once (nothing to read yet), then warm up with
    // two full cycles.
    let mut warmup = Cycles::new(&mut Rng::new(ctx.seed, "warm-up reads"));
    for publish in 0..world.names.len() + 2 {
        let reads = if publish < world.names.len() {
            0
        } else {
            ctx.sizes.reads_per_cycle
        };
        warmup.cycle(&mut world, reads, &mut Recorder::disabled());
    }
    assert_eq!(warmup.failed(), 0, "warm-up answer diverged");
    world
}

/// What a run of cycles measured.
struct Cycles {
    rng: Rng,
    publishes: Publishes,
    /// Reads of the current window.
    reads: Window,
    read_time: Duration,
}

impl Cycles {
    fn new(rng: &mut Rng) -> Self {
        Self {
            rng: Rng::new(rng.next_u64(), "cycle reads"),
            publishes: Publishes::default(),
            reads: Window::default(),
            read_time: Duration::ZERO,
        }
    }

    fn failed(&self) -> u64 {
        self.publishes.failed + self.reads.failed
    }

    /// Builds variant `variant`, publishes it onto name `name` through the
    /// router, then sends the name's first query and checks it.
    fn rebind(&mut self, world: &mut World, name: usize, variant: usize, recorder: &mut Recorder) {
        let request = self.publishes.attempted;
        self.publishes.attempted += 2;
        let name = &world.names[name];
        let root = recorder.open("publish", None, request);
        let start = Instant::now();
        let span = recorder.open("pipeline.build", Some(root.id), request);
        let entry = world.variants[variant].build();
        recorder.close(span);
        let span = recorder.open("cluster.publish_entry", Some(root.id), request);
        let published = world.router.publish_entry(name, &entry);
        recorder.close(span);
        let publish = start.elapsed();
        recorder.close(root);
        if published.is_ok() && publish <= OP_TIMEOUT {
            self.publishes.publish_ms.push(publish.as_secs_f64() * 1e3);
        } else {
            self.publishes.failed += 1;
        }
        let span = recorder.open("cluster.router.estimate", None, request);
        let start = Instant::now();
        let report = world.router.estimate(name, SUITE, STATISTICS[0]);
        let cold = start.elapsed();
        recorder.close(span);
        match report {
            Ok(report)
                if bit_identical(&report, &world.expected[variant][0]) && cold <= OP_TIMEOUT =>
            {
                self.publishes.cold_ms.push(cold.as_secs_f64() * 1e3);
            }
            _ => self.publishes.failed += 1,
        }
    }

    /// One cycle: build a fresh sketch, publish it onto the next name,
    /// read it cold, then `reads` routed zipf reads over every name and
    /// both statistics.
    fn cycle(&mut self, world: &mut World, reads: usize, recorder: &mut Recorder) {
        let variant = world.cycle % world.variants.len();
        let name = world.cycle % world.names.len();
        world.cycle += 1;
        world.bound[name] = variant;
        self.rebind(world, name, variant, recorder);
        let segment = Instant::now();
        for _ in 0..reads {
            // Popularity rank -> name, scattered so hot names spread over
            // the nodes and cache shards.
            let name = (world.popularity.sample(&mut self.rng) * 7 + 3) % world.names.len();
            let statistic = (self.rng.next_u64() & 1) as usize;
            let request = (1 << 32) | self.reads.attempted;
            let span = recorder.open("cluster.router.estimate", None, request);
            let sent = Instant::now();
            let report = world
                .router
                .estimate(&world.names[name], SUITE, STATISTICS[statistic]);
            let latency = sent.elapsed();
            recorder.close(span);
            self.reads.attempted += 1;
            match report {
                Ok(report)
                    if latency <= OP_TIMEOUT
                        && bit_identical(
                            &report,
                            &world.expected[world.bound[name]][statistic],
                        ) =>
                {
                    self.reads.reports += 1;
                    self.reads.trials += report.trials;
                    self.reads.estimate_ms.push(latency.as_secs_f64() * 1e3);
                }
                _ => self.reads.failed += 1,
            }
        }
        self.read_time += segment.elapsed();
    }

    /// Ends the current window: its reads, timed over the read segments.
    fn take_window(&mut self) -> Window {
        let mut window = std::mem::take(&mut self.reads);
        window.elapsed_s = std::mem::take(&mut self.read_time).as_secs_f64();
        window
    }
}

/// Runs cycles in `windows` windows of `window` each; `traced(w)` turns
/// span recording on for window `w`.
fn timed_windows(
    ctx: &Ctx,
    world: &mut World,
    cycles: &mut Cycles,
    window: Duration,
    windows: usize,
    traced: impl Fn(usize) -> bool,
    recorder: &mut Recorder,
) -> Vec<Window> {
    println!(
        "# cycles: {windows} windows of {:.3} s, one generator thread",
        window.as_secs_f64()
    );
    (0..windows)
        .map(|w| {
            recorder.set_enabled(traced(w));
            let start = Instant::now();
            while start.elapsed() < window {
                cycles.cycle(world, ctx.sizes.reads_per_cycle, recorder);
            }
            cycles.take_window()
        })
        .collect()
}

pub(super) fn run(ctx: &Ctx) -> RunResult {
    let (mut world, setup_s) = repeat_setup(&ctx.sizes, || setup(ctx));
    let mut cycles = Cycles::new(&mut Rng::new(ctx.seed, "timed reads"));
    if ctx.traced {
        return traced(ctx, &mut world, &mut cycles);
    }
    let windows = ctx.windows(WINDOWS);
    let windows = timed_windows(
        ctx,
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
        publishes: Some(cycles.publishes),
    }
    .result(ctx, (0, 0))
}

fn traced(ctx: &Ctx, world: &mut World, cycles: &mut Cycles) -> RunResult {
    let mut readings = layer_readings();
    crate::probes::run(ctx.seed, &ctx.sizes, &mut readings);
    let epoch = Instant::now();
    let mut recorder = Recorder::new(false, epoch, 1);
    let before = world.router.stats().expect("fleet stats");
    let windows = ctx.windows(WINDOWS);
    let windows = timed_windows(
        ctx,
        world,
        cycles,
        ctx.window(0.5, windows),
        windows,
        |w| w % 2 == 1,
        &mut recorder,
    );
    let after = world.router.stats().expect("fleet stats");
    set_engine_deltas(&mut readings, &before, &after);
    readings.set("bench.trace_overhead_ratio", trace_overhead_ratio(&windows));
    set_query_tail(&mut readings, &estimate_latencies(&windows));
    readings.set("publish_p50_ms", cycles.publishes.publish_p50_ms());
    println!("# publishes: {}", cycles.publishes.describe());

    // Router hop: the same cached combination asked through the router
    // and straight from its primary owner.
    let rounds = ctx.rounds(2_000);
    let name = world.names[0].clone();
    let routed_us = median_us(rounds, || {
        world
            .router
            .estimate(&name, SUITE, STATISTICS[0])
            .expect("routed estimate");
    });
    let owner = world.router.owners(&name)[0].to_string();
    let node = world
        .cluster
        .specs()
        .iter()
        .position(|spec| spec.name == owner)
        .expect("owner is a cluster node");
    let mut direct = connect(world.cluster.addr(node));
    let direct_us = median_us(rounds, || {
        direct
            .estimate(name.as_str(), SUITE, STATISTICS[0])
            .expect("direct estimate");
    });
    readings.set("cluster.router_hop_us", routed_us - direct_us);
    readings.set("serve.hit_rtt_us", direct_us);
    socket_probes(&mut direct, rounds, &mut readings);

    // Publish fan-out: what `publish_entry` costs beyond encoding once.
    let spec = &world.variants[world.bound[0]];
    let entry = spec.build();
    let fanout_ms: Vec<f64> = (0..rounds.min(20))
        .map(|_| {
            let start = Instant::now();
            let bytes = encode_to_vec(&entry).expect("encode entry");
            let encode = start.elapsed();
            std::hint::black_box(bytes);
            let start = Instant::now();
            world.router.publish_entry(&name, &entry).expect("publish");
            (start.elapsed().as_secs_f64() - encode.as_secs_f64()) * 1e3
        })
        .collect();
    readings.set("cluster.publish_fanout_ms", median(&fanout_ms));
    readings.set(
        "cluster.failovers",
        world
            .router
            .local_metrics()
            .counter("router_failovers_total")
            .unwrap_or(0) as f64,
    );

    write_trace(ctx, "publish_then_read", &recorder.into_spans());
    run_result(
        readings,
        &windows,
        (cycles.publishes.attempted, cycles.publishes.failed),
    )
}
