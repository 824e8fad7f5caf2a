//! `serve_hot`: one server with the default cache, four small sketches
//! covering all five suites, every combination warmed, so each request is
//! a cache hit.  Estimation does nothing here; the wire, the event loop,
//! the engine's cache and admission, and the metrics plane do all of it.

use std::net::SocketAddr;
use std::time::Instant;

use partial_info_estimators::datagen::paper_example;
use partial_info_estimators::{CatalogEntry, Scheme};
use pie_serve::{EngineConfig, ObsConfig, ServeClient, Server};

use super::{
    closed_windows, estimate_latencies, layer_readings, median_us, repeat_setup, replay_ledger,
    report_ledger, set_engine_deltas, single_node_router, socket_probes, trace_overhead_ratio,
    write_trace, Ctx, EndToEnd,
};
use crate::data::{set_pair, traffic, SketchSpec, TRAFFIC_TAU};
use crate::load::{closed_loop, connect, generators, open_loop, Combo, Menu, Op, OpenWindow};
use crate::metrics::RunResult;
use crate::rng::{mix, Rng, Zipf};
use crate::stats::{median, quantile_sorted, LatencyWindows};

/// Popularity exponent of the simulated users.
const ZIPF_EXPONENT: f64 = 1.1;
/// The rate `query_p50_ms` / `query_p99_ms` are read at.
const REFERENCE_RATE: f64 = 4000.0;
/// The traced run's rate ladder; the top rung sits near the closed-loop
/// ceiling of two blocking connections, so queueing shows.
const LADDER: [(f64, [&str; 3]); 4] = [
    (
        2000.0,
        [
            "serve.rate_2000.p50_ms",
            "serve.rate_2000.p99_ms",
            "serve.rate_2000.late_ms",
        ],
    ),
    (
        4000.0,
        [
            "serve.rate_4000.p50_ms",
            "serve.rate_4000.p99_ms",
            "serve.rate_4000.late_ms",
        ],
    ),
    (
        8000.0,
        [
            "serve.rate_8000.p50_ms",
            "serve.rate_8000.p99_ms",
            "serve.rate_8000.late_ms",
        ],
    ),
    (
        16000.0,
        [
            "serve.rate_16000.p50_ms",
            "serve.rate_16000.p99_ms",
            "serve.rate_16000.late_ms",
        ],
    ),
];
/// A rung meets the limit when its p99 from due time stays under this.
const LIMIT_P99_MS: f64 = 2.0;
/// The sketch the ledger replays.
const TRAFFIC: usize = 3;
/// `traffic / max_weighted / max_dominance` in the menu.
const TRAFFIC_COMBO: usize = 5;

struct World {
    server: Server,
    clients: Vec<ServeClient>,
    menu: Menu,
    sketches: Vec<(&'static str, SketchSpec, CatalogEntry)>,
    users: Zipf,
}

/// The four sketches and seven combinations of the `engine_load` bench,
/// with salts and the traffic dataset drawn from the seed.
fn sketches(ctx: &Ctx) -> Vec<(&'static str, SketchSpec)> {
    let mut rng = Rng::new(ctx.seed, "serve_hot");
    let trials = ctx.sizes.hot_trials;
    let sets = set_pair(90);
    let mut spec = |data, scheme| SketchSpec {
        data,
        scheme,
        shards: 2,
        trials,
        salt: rng.next_u64() >> 16,
    };
    let hot_keys = ctx.sizes.paper_keys_per_hour.min(2_000);
    vec![
        (
            "pair",
            spec(
                std::sync::Arc::new(paper_example().take_instances(2)),
                Scheme::oblivious(0.5),
            ),
        ),
        ("sets_obl", spec(sets.clone(), Scheme::oblivious(0.4))),
        ("sets_pps", spec(sets, Scheme::pps(1.5))),
        (
            "traffic",
            spec(
                traffic(ctx.seed ^ 0x5EED, hot_keys),
                Scheme::pps(TRAFFIC_TAU),
            ),
        ),
    ]
}

const COMBOS: [(&str, &str, &str); 7] = [
    ("pair", "max_oblivious", "max_dominance"),
    ("pair", "max_oblivious", "distinct_count"),
    ("pair", "max_oblivious_uniform", "max_dominance"),
    ("sets_obl", "or_oblivious", "distinct_count"),
    ("sets_pps", "or_weighted", "distinct_count"),
    ("traffic", "max_weighted", "max_dominance"),
    ("traffic", "max_weighted", "distinct_count"),
];

fn menu(sketches: &[(&'static str, SketchSpec)]) -> Menu {
    let mut menu = Menu::default();
    for (sketch, estimator, statistic) in COMBOS {
        let (_, spec) = sketches
            .iter()
            .find(|(name, _)| *name == sketch)
            .expect("combination names a sketch");
        menu.push(
            Combo {
                sketch: sketch.to_string(),
                estimator,
                statistic,
            },
            spec.reference(estimator, statistic),
        );
    }
    // One whole-sketch batch per sketch, in sketch order.
    for (name, _) in sketches {
        let combos = (0..COMBOS.len())
            .filter(|&c| COMBOS[c].0 == *name)
            .collect();
        menu.batches.push(((*name).to_string(), combos));
    }
    menu
}

/// Binds a server, publishes every sketch through the wire, and asks
/// every combination and batch once per client, so all later requests hit.
fn serve(
    sketches: &[(&'static str, SketchSpec, CatalogEntry)],
    menu: &Menu,
    obs: ObsConfig,
) -> (Server, Vec<ServeClient>) {
    let server = Server::bind_with_obs("127.0.0.1:0", EngineConfig::default(), obs)
        .expect("bind the benchmark's server");
    let mut router = single_node_router(server.local_addr());
    for (name, _, entry) in sketches {
        router.publish_entry(name, entry).expect("publish");
    }
    let mut clients: Vec<ServeClient> = (0..generators())
        .map(|_| connect(server.local_addr()))
        .collect();
    for client in &mut clients {
        let every = (0..menu.combos.len())
            .map(Op::Estimate)
            .chain((0..menu.batches.len()).map(Op::Batch));
        for op in every {
            assert!(menu.issue(client, op).correct, "warm-up answer diverged");
        }
    }
    (server, clients)
}

fn setup(ctx: &Ctx) -> World {
    let specs = sketches(ctx);
    let menu = menu(&specs);
    let sketches: Vec<_> = specs
        .into_iter()
        .map(|(name, spec)| {
            let entry = spec.build();
            (name, spec, entry)
        })
        .collect();
    let (server, clients) = serve(&sketches, &menu, ObsConfig::default());
    World {
        server,
        clients,
        menu,
        sketches,
        users: Zipf::new(ctx.sizes.hot_users, ZIPF_EXPONENT),
    }
}

impl World {
    /// `n` requests: a zipf user picks the combination; every 4th request
    /// is the whole-sketch batch of that combination's sketch.
    fn plan(&self, rng: &mut Rng, n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| {
                let user = self.users.sample(rng) as u64;
                let combo = (mix(user) % COMBOS.len() as u64) as usize;
                if i % 4 == 3 {
                    let sketch = COMBOS[combo].0;
                    Op::Batch(
                        self.sketches
                            .iter()
                            .position(|(name, _, _)| *name == sketch)
                            .expect("combination names a sketch"),
                    )
                } else {
                    Op::Estimate(combo)
                }
            })
            .collect()
    }

    fn open_window(&mut self, rng: &mut Rng, rate: f64, seconds: f64) -> OpenWindow {
        let plan = self.plan(rng, ((rate * seconds) as usize).max(8));
        open_loop(&mut self.clients, &self.menu, &plan, rate)
    }

    /// One closed-loop plan per generator, long enough not to repeat soon.
    fn closed_plans(&self, rng: &mut Rng) -> Vec<Vec<Op>> {
        (0..generators()).map(|_| self.plan(rng, 4096)).collect()
    }
}

/// Latencies (from due time) of the correct `Estimate` requests of one
/// open-loop window, ascending.
fn estimate_latencies_ms(window: &OpenWindow) -> Vec<f64> {
    let mut latencies: Vec<f64> = window
        .samples
        .iter()
        .filter(|s| s.ok() && matches!(s.op, Op::Estimate(_)))
        .map(|s| s.latency_ms())
        .collect();
    latencies.sort_by(f64::total_cmp);
    latencies
}

fn open_counts(window: &OpenWindow) -> (u64, u64) {
    let failed = window.samples.iter().filter(|s| !s.ok()).count() + window.unsent;
    ((window.samples.len() + window.unsent) as u64, failed as u64)
}

/// Open-loop and closed-loop windows of a full run.  A small virtual
/// machine's speed moves in spells of seconds; many short windows, the two
/// phases interleaved, let the median over windows see through them.
const WINDOWS: usize = 20;

pub(super) fn run(ctx: &Ctx) -> RunResult {
    let (mut world, setup_s) = repeat_setup(&ctx.sizes, || setup(ctx));
    if ctx.traced {
        return traced(ctx, &mut world);
    }
    let mut rng = Rng::new(ctx.seed, "serve_hot plan");
    let windows = ctx.windows(WINDOWS);
    let window = ctx.window(0.5, windows);
    println!(
        "# {windows} x (open loop at {REFERENCE_RATE} req/s, closed loop), windows of {:.3} s, {} connections",
        window.as_secs_f64(),
        world.clients.len()
    );
    let plans = world.closed_plans(&mut rng);
    let mut latency = LatencyWindows::default();
    let (mut open_attempted, mut open_failed) = (0, 0);
    let mut late_ms = Vec::new();
    let mut closed = Vec::new();
    for w in 0..windows {
        // Open loop at the reference rate: latency from the due time.
        let open = world.open_window(&mut rng, REFERENCE_RATE, window.as_secs_f64());
        let (attempted, failed) = open_counts(&open);
        open_attempted += attempted;
        open_failed += failed;
        late_ms.extend(open.samples.iter().map(|s| s.late_ms()));
        latency.push(estimate_latencies_ms(&open));
        // Closed loop: throughput.
        closed.push(closed_loop(&mut world.clients, &world.menu, &plans, w, window, None).0);
    }
    late_ms.sort_by(f64::total_cmp);
    println!(
        "# open loop at {REFERENCE_RATE} req/s: generator lateness p99 {:.3} ms",
        quantile_sorted(&late_ms, 0.99)
    );
    let result = EndToEnd {
        setup_s,
        windows: closed,
        latency,
        publishes: None,
    }
    .result(ctx, (open_attempted, open_failed));
    world.server.shutdown();
    result
}

/// Closed-loop throughput of one short window through `clients`.
fn closed_rate(
    menu: &Menu,
    clients: &mut [ServeClient],
    plans: &[Vec<Op>],
    ctx: &Ctx,
    index: usize,
) -> f64 {
    closed_loop(clients, menu, plans, index, ctx.window(0.3, 30), None)
        .0
        .reports_per_s()
}

fn traced(ctx: &Ctx, world: &mut World) -> RunResult {
    let mut readings = layer_readings();
    crate::probes::run(ctx.seed, &ctx.sizes, &mut readings);
    let epoch = Instant::now();
    let mut rng = Rng::new(ctx.seed, "serve_hot traced plan");
    let addr: SocketAddr = world.server.local_addr();
    let mut probe = connect(addr);
    let before = probe.stats().expect("stats");
    let (mut attempted, mut failed) = (0, 0);

    // The rate ladder: passes over all rungs, samples pooled per rung.
    let passes = ctx.windows(5);
    let rung_s = ctx.seconds * 0.3 / (passes * LADDER.len()) as f64;
    println!("# rate ladder: {passes} passes, {rung_s:.3} s per rung");
    let mut rungs: Vec<Vec<OpenWindow>> = LADDER.iter().map(|_| Vec::new()).collect();
    for _ in 0..passes {
        for (rung, (rate, _)) in LADDER.iter().enumerate() {
            rungs[rung].push(world.open_window(&mut rng, *rate, rung_s));
        }
    }
    let mut knee = 0.0;
    for ((rate, names), windows) in LADDER.iter().zip(&rungs) {
        let mut latencies: Vec<f64> = windows.iter().flat_map(estimate_latencies_ms).collect();
        latencies.sort_by(f64::total_cmp);
        let mut late: Vec<f64> = windows
            .iter()
            .flat_map(|w| w.samples.iter().map(|s| s.late_ms()))
            .collect();
        late.sort_by(f64::total_cmp);
        let (p50, p99, late_p99) = if latencies.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            (
                quantile_sorted(&latencies, 0.5),
                quantile_sorted(&latencies, 0.99),
                quantile_sorted(&late, 0.99),
            )
        };
        readings.set(names[0], p50);
        readings.set(names[1], p99);
        readings.set(names[2], late_p99);
        if *rate == REFERENCE_RATE {
            readings.set("bench.generator_late_ms_p99", late_p99);
            readings.set("query_p99_ms", p99);
        }
        // A rung holds when nothing failed, the backlog did not outgrow
        // the window, and the tail stayed under the limit.  Rungs above the
        // reference rate are diagnostic: their misses are not the run's.
        let (rung_attempted, rung_failed) = windows
            .iter()
            .map(open_counts)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        if *rate <= REFERENCE_RATE {
            attempted += rung_attempted;
            failed += rung_failed;
        }
        let held = rung_failed == 0 && !latencies.is_empty() && p99 <= LIMIT_P99_MS;
        let achieved = rung_attempted as f64 / windows.iter().map(|w| w.elapsed_s).sum::<f64>();
        println!(
            "# open loop {rate:>6.0} req/s: achieved {achieved:>6.0}  p50 {p50:.3} ms  p99 {p99:.3} ms  late p99 {late_p99:.3} ms  failed {rung_failed}/{rung_attempted}  {}",
            if held { "holds" } else { "misses the limit" }
        );
        if held {
            knee = *rate;
        }
    }
    readings.set("serve.knee_rate_per_s", knee);

    // Closed loop, alternating untraced and traced windows.
    let plans = world.closed_plans(&mut rng);
    let windows = ctx.windows(12);
    let (windows, mut spans) = closed_windows(
        &mut world.clients,
        &world.menu,
        &plans,
        ctx.window(0.25, windows),
        windows,
        Some(epoch),
    );
    attempted += windows.iter().map(|w| w.attempted).sum::<u64>();
    failed += windows.iter().map(|w| w.failed).sum::<u64>();
    readings.set("bench.trace_overhead_ratio", trace_overhead_ratio(&windows));
    let after = probe.stats().expect("stats");
    set_engine_deltas(&mut readings, &before, &after);

    // Socket floor and cached-estimate round trips, one connection.
    let rounds = ctx.rounds(4_000);
    socket_probes(&mut probe, rounds, &mut readings);
    let combo = world.menu.combos[TRAFFIC_COMBO].clone();
    let hit_rtt_us = median_us(rounds, || {
        probe
            .estimate(combo.sketch.as_str(), combo.estimator, combo.statistic)
            .expect("cached estimate");
    });
    readings.set("serve.hit_rtt_us", hit_rtt_us);

    // The ledger closes on the closed loop's client-observed p50.
    let client_p50_us = estimate_latencies(&windows)
        .summary()
        .map_or(0.0, |l| l.p50 * 1e3);
    let (_, _, entry) = &world.sketches[TRAFFIC];
    let (ledger, replayed) = replay_ledger(
        entry,
        &combo,
        &world.menu.expected[TRAFFIC_COMBO],
        true,
        ctx.sizes.ledger_replays,
        client_p50_us,
        epoch,
    );
    spans.extend(replayed);
    report_ledger("serve_hot", &ledger, &mut readings);

    // Observability on over off: a second server, same sketches, obs
    // disabled; windows alternate between the two.
    let (quiet_server, mut quiet_clients) =
        serve(&world.sketches, &world.menu, ObsConfig::disabled());
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for w in 0..ctx.windows(15) {
        on.push(closed_rate(&world.menu, &mut world.clients, &plans, ctx, w));
        off.push(closed_rate(&world.menu, &mut quiet_clients, &plans, ctx, w));
    }
    readings.set("obs.on_over_off_ratio", median(&on) / median(&off));
    drop(quiet_clients);
    quiet_server.shutdown();

    write_trace(ctx, "serve_hot", &spans);
    RunResult {
        attempted,
        failed,
        readings,
    }
}
