//! `serve_recompute`: one server with the estimate cache off and one
//! paper-scale PPS traffic sketch, so every query replays every trial.
//! Estimation is ~95% of a query here; wire and engine do almost nothing.

use std::time::Instant;

use partial_info_estimators::{CatalogEntry, Scheme};
use pie_serve::{EngineConfig, ServeClient, Server};

use super::{
    closed_windows, estimate_latencies, layer_readings, repeat_setup, replay_ledger, report_ledger,
    run_result, set_engine_deltas, set_query_tail, single_node_router, socket_probes,
    trace_overhead_ratio, wire_ingest_records_per_s, write_trace, Ctx, EndToEnd,
};
use crate::data::{traffic, SketchSpec, TRAFFIC_TAU};
use crate::load::{connect, generators, Combo, Menu, Op};
use crate::metrics::RunResult;
use crate::rng::Rng;

const SKETCH: &str = "traffic";
const QUERY: (&str, &str) = ("max_weighted", "max_dominance");

struct World {
    server: Server,
    clients: Vec<ServeClient>,
    menu: Menu,
    spec: SketchSpec,
    entry: CatalogEntry,
}

/// Datagen, build, references, bind, publish, warm-up.
fn setup(ctx: &Ctx) -> World {
    let mut rng = Rng::new(ctx.seed, "serve_recompute");
    let spec = SketchSpec {
        data: traffic(rng.next_u64(), ctx.sizes.paper_keys_per_hour),
        scheme: Scheme::pps(TRAFFIC_TAU),
        shards: 2,
        trials: ctx.sizes.recompute_trials,
        salt: rng.next_u64() >> 16,
    };
    let entry = spec.build();
    let mut menu = Menu::default();
    for statistic in ["max_dominance", "distinct_count"] {
        menu.push(
            Combo {
                sketch: SKETCH.to_string(),
                estimator: QUERY.0,
                statistic,
            },
            spec.reference(QUERY.0, statistic),
        );
    }
    menu.batches.push((SKETCH.to_string(), vec![0, 1]));

    let server = Server::bind_with(
        "127.0.0.1:0",
        EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        },
    )
    .expect("bind the benchmark's server");
    single_node_router(server.local_addr())
        .publish_entry(SKETCH, &entry)
        .expect("publish");
    let mut clients: Vec<ServeClient> = (0..generators())
        .map(|_| connect(server.local_addr()))
        .collect();
    for client in &mut clients {
        for op in [
            Op::Estimate(0),
            Op::Estimate(1),
            Op::Batch(0),
            Op::Estimate(0),
        ] {
            assert!(menu.issue(client, op).correct, "warm-up answer diverged");
        }
    }
    // Both connections at once, untimed, until the worker pool is warm.
    let warm = std::time::Duration::from_secs_f64(if ctx.sizes.smoke { 0.05 } else { 0.3 });
    let (window, _) = super::closed_loop(&mut clients, &menu, &plans(), 0, warm, None);
    assert_eq!(window.failed, 0, "warm-up answer diverged");
    World {
        server,
        clients,
        menu,
        spec,
        entry,
    }
}

/// 3 x `Estimate` : 1 x 2-query `BatchEstimate`, the lanes half a cycle
/// apart so their batches do not coincide.
fn plans() -> Vec<Vec<Op>> {
    let cycle = [
        Op::Estimate(0),
        Op::Estimate(0),
        Op::Estimate(0),
        Op::Batch(0),
    ];
    (0..generators())
        .map(|lane| {
            let mut plan = cycle.to_vec();
            plan.rotate_left(2 * lane % cycle.len());
            plan
        })
        .collect()
}

/// Timed closed-loop windows of a full run, each some hundreds of ~7 ms
/// queries; enough of them that a slow spell of the host, which lasts
/// seconds, moves a minority.
const WINDOWS: usize = 10;

pub(super) fn run(ctx: &Ctx) -> RunResult {
    let (mut world, setup_s) = repeat_setup(&ctx.sizes, || setup(ctx));
    if ctx.traced {
        return traced(ctx, &mut world);
    }
    let windows = ctx.windows(WINDOWS);
    let (windows, _) = closed_windows(
        &mut world.clients,
        &world.menu,
        &plans(),
        ctx.window(1.0, windows),
        windows,
        None,
    );
    let result = EndToEnd {
        setup_s,
        latency: estimate_latencies(&windows),
        windows,
        publishes: None,
    }
    .result(ctx, (0, 0));
    world.server.shutdown();
    result
}

fn traced(ctx: &Ctx, world: &mut World) -> RunResult {
    let mut readings = layer_readings();
    crate::probes::run(ctx.seed, &ctx.sizes, &mut readings);
    let epoch = Instant::now();
    let mut stats_client = connect(world.server.local_addr());
    let before = stats_client.stats().expect("stats");
    let windows = ctx.windows(WINDOWS);
    let (windows, mut spans) = closed_windows(
        &mut world.clients,
        &world.menu,
        &plans(),
        ctx.window(0.5, windows),
        windows,
        Some(epoch),
    );
    let after = stats_client.stats().expect("stats");
    set_engine_deltas(&mut readings, &before, &after);
    readings.set("bench.trace_overhead_ratio", trace_overhead_ratio(&windows));

    let latency = estimate_latencies(&windows);
    set_query_tail(&mut readings, &latency);
    let client_p50_us = latency.summary().map_or(0.0, |l| l.p50 * 1e3);
    let (ledger, replayed) = replay_ledger(
        &world.entry,
        &world.menu.combos[0],
        &world.menu.expected[0],
        false,
        ctx.sizes.ledger_replays,
        client_p50_us,
        epoch,
    );
    spans.extend(replayed);
    report_ledger("serve_recompute", &ledger, &mut readings);

    socket_probes(&mut stats_client, ctx.rounds(2_000), &mut readings);
    readings.set(
        "serve.ingest_records_per_s",
        wire_ingest_records_per_s(world.server.local_addr(), &world.spec),
    );
    write_trace(ctx, "serve_recompute", &spans);
    run_result(readings, &windows, (0, 0))
}
