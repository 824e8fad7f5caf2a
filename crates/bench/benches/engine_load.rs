//! Million-user open-loop load harness for the multi-tenant query engine.
//!
//! One server hosts four finalized sketches covering all five estimator
//! suites.  Traffic is simulated from a population of 10^6 users whose
//! request frequencies follow a zipf law (exponent 1.1) — a hot head of
//! users re-asks the same few combinations, the long tail spreads across
//! the rest — and each user deterministically maps to one (sketch,
//! estimator, statistic) combination, so the estimate cache sees a
//! realistic skewed key distribution.  Arrivals are **open-loop**: each
//! request has a scheduled arrival time derived from the offered rate, and
//! latency is measured from that scheduled arrival to completion, so
//! server-side queueing shows up in the tail instead of silently
//! throttling the generator.
//!
//! Per offered-rate row the JSON reports achieved throughput,
//! p50/p99/p999 latency, typed `Overloaded` sheds, and the engine's
//! cumulative cache hit rate.  A separate cold-vs-warm section pins the
//! tentpole claim: serving a cached report must be at least 10x faster
//! than recomputing it (asserted in-run against a 128-trial sketch).
//!
//! Environment knobs: `PIE_LOAD_REQUESTS_PER_ROW` (default 1200) and
//! `PIE_LOAD_WORKERS` (default 8).
//!
//! ```text
//! cargo bench -p pie-bench --bench engine_load
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use partial_info_estimators::datagen::{
    generate_set_pair, generate_two_hours, paper_example, SetPairConfig, TrafficConfig,
    Xoshiro256pp,
};
use partial_info_estimators::{CatalogEntry, Scheme};
use pie_bench::LatencySummary;
use pie_serve::{BatchQuery, ServeClient, ServeError, Server};

/// Simulated user population.
const USERS: usize = 1_000_000;
/// Zipf frequency exponent: user of popularity rank `i` is drawn with
/// probability proportional to `1 / i^s`.
const ZIPF_EXPONENT: f64 = 1.1;
/// Offered arrival rates, requests per second, one bench row each.
const OFFERED_RATES: [f64; 3] = [400.0, 1200.0, 2400.0];
/// Cold/warm comparison rounds (medians are reported).
const COLD_WARM_ROUNDS: usize = 5;

/// Inverse-CDF sampler over the zipf popularity ranks `0..n`.
struct ZipfUsers {
    cdf: Vec<f64>,
}

impl ZipfUsers {
    fn new(n: usize, exponent: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-exponent);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// splitmix64: a cheap, well-mixed hash from user rank to combination.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One servable (sketch, estimator, statistic) combination.
struct Combo {
    sketch: &'static str,
    estimator: &'static str,
    statistic: &'static str,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct RowResult {
    offered_rate: f64,
    summary: LatencySummary,
    sheds: u64,
    hit_rate: f64,
}

fn main() {
    let requests_per_row = env_usize("PIE_LOAD_REQUESTS_PER_ROW", 1200);
    let workers = env_usize("PIE_LOAD_WORKERS", 8).max(1);
    let threads_available = std::thread::available_parallelism().map_or(1, usize::from);

    // Four sketches spanning the five suites, small enough that a cache
    // miss is cheap — the load rows measure serving, not estimation.
    let server = Server::bind("127.0.0.1:0").expect("bind server");
    let addr = server.local_addr();
    let pair = Arc::new(paper_example().take_instances(2));
    let sets = Arc::new(generate_set_pair(&SetPairConfig::new(90, 0.5)));
    let traffic = Arc::new(generate_two_hours(&TrafficConfig::small(6)));
    server.catalog().insert(
        "pair",
        CatalogEntry::build(Arc::clone(&pair), Scheme::oblivious(0.5), 2, 8, 5).unwrap(),
    );
    server.catalog().insert(
        "sets_obl",
        CatalogEntry::build(Arc::clone(&sets), Scheme::oblivious(0.4), 2, 8, 9).unwrap(),
    );
    server.catalog().insert(
        "sets_pps",
        CatalogEntry::build(Arc::clone(&sets), Scheme::pps(1.5), 2, 8, 4).unwrap(),
    );
    server.catalog().insert(
        "traffic",
        CatalogEntry::build(Arc::clone(&traffic), Scheme::pps(150.0), 2, 8, 8).unwrap(),
    );
    let combos = [
        Combo {
            sketch: "pair",
            estimator: "max_oblivious",
            statistic: "max_dominance",
        },
        Combo {
            sketch: "pair",
            estimator: "max_oblivious",
            statistic: "distinct_count",
        },
        Combo {
            sketch: "pair",
            estimator: "max_oblivious_uniform",
            statistic: "max_dominance",
        },
        Combo {
            sketch: "sets_obl",
            estimator: "or_oblivious",
            statistic: "distinct_count",
        },
        Combo {
            sketch: "sets_pps",
            estimator: "or_weighted",
            statistic: "distinct_count",
        },
        Combo {
            sketch: "traffic",
            estimator: "max_weighted",
            statistic: "max_dominance",
        },
        Combo {
            sketch: "traffic",
            estimator: "max_weighted",
            statistic: "distinct_count",
        },
    ];

    println!(
        "zipf({ZIPF_EXPONENT}) traffic from {USERS} simulated users over {} combinations; \
         {workers} worker(s), {requests_per_row} requests/row, {threads_available} hardware thread(s)\n",
        combos.len()
    );
    let zipf = ZipfUsers::new(USERS, ZIPF_EXPONENT);

    // Warm every combination once so row-to-row comparisons measure a
    // steady-state cache, then snapshot the counters.
    {
        let mut client = ServeClient::connect(addr).expect("warmup connect");
        for combo in &combos {
            client
                .estimate(combo.sketch, combo.estimator, combo.statistic)
                .expect("warmup estimate");
        }
    }

    let mut rows = Vec::new();
    for offered_rate in OFFERED_RATES {
        // The request plan is drawn up front (zipf user → combination;
        // every 4th request is a whole-sketch BatchEstimate) so workers
        // only race on the shared arrival index.
        let mut rng = Xoshiro256pp::seed_from_u64(0xE7617E + offered_rate as u64);
        let plan: Vec<(usize, bool)> = (0..requests_per_row)
            .map(|i| {
                let user = zipf.sample(&mut rng);
                (
                    (mix(user as u64) % combos.len() as u64) as usize,
                    i % 4 == 3,
                )
            })
            .collect();
        let before = {
            let mut client = ServeClient::connect(addr).expect("stats connect");
            client.stats().expect("stats")
        };

        let next = AtomicUsize::new(0);
        let sheds = AtomicUsize::new(0);
        let start = Instant::now();
        let latencies_ms: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let plan = &plan;
                    let next = &next;
                    let sheds = &sheds;
                    let combos = &combos;
                    scope.spawn(move || {
                        let mut client = ServeClient::connect(addr).expect("connect");
                        client.identify(format!("load_{worker}")).expect("identify");
                        let mut latencies = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= plan.len() {
                                break;
                            }
                            let scheduled = i as f64 / offered_rate;
                            let now = start.elapsed().as_secs_f64();
                            if scheduled > now {
                                std::thread::sleep(Duration::from_secs_f64(scheduled - now));
                            }
                            let (combo_index, batch) = plan[i];
                            let combo = &combos[combo_index];
                            let outcome = if batch {
                                let queries: Vec<BatchQuery> = combos
                                    .iter()
                                    .filter(|c| c.sketch == combo.sketch)
                                    .map(|c| BatchQuery {
                                        estimator: c.estimator.to_string(),
                                        statistic: c.statistic.to_string(),
                                    })
                                    .collect();
                                client.batch_estimate(combo.sketch, queries).map(|_| ())
                            } else {
                                client
                                    .estimate(combo.sketch, combo.estimator, combo.statistic)
                                    .map(|_| ())
                            };
                            match outcome {
                                Ok(()) => latencies
                                    .push((start.elapsed().as_secs_f64() - scheduled) * 1e3),
                                Err(ServeError::Overloaded { .. }) => {
                                    sheds.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => panic!("load request failed: {e}"),
                            }
                        }
                        latencies
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker thread"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let after = {
            let mut client = ServeClient::connect(addr).expect("stats connect");
            client.stats().expect("stats")
        };
        let lookups = (after.cache.hits + after.cache.misses)
            .saturating_sub(before.cache.hits + before.cache.misses);
        let hit_rate = if lookups > 0 {
            after.cache.hits.saturating_sub(before.cache.hits) as f64 / lookups as f64
        } else {
            f64::NAN
        };
        let row = RowResult {
            offered_rate,
            summary: LatencySummary::from_latencies_ms(latencies_ms, elapsed),
            sheds: sheds.load(Ordering::Relaxed) as u64,
            hit_rate,
        };
        println!(
            "offered {:>6.0} req/s: achieved {:>7.0} req/s   p50 {:>6.2} ms   p99 {:>6.2} ms   \
             p999 {:>6.2} ms   sheds {:>3}   cache hit rate {:>5.1}%",
            row.offered_rate,
            row.summary.throughput_per_s,
            row.summary.p50_ms,
            row.summary.p99_ms,
            row.summary.p999_ms,
            row.sheds,
            row.hit_rate * 100.0
        );
        rows.push(row);
    }

    // Cold vs. warm: against a deliberately heavy sketch (128 trials) the
    // cache-hit path must beat recomputation by at least 10x.
    server.catalog().insert(
        "heavy",
        CatalogEntry::build(Arc::clone(&traffic), Scheme::pps(150.0), 2, 128, 17).unwrap(),
    );
    let mut client = ServeClient::connect(addr).expect("cold/warm connect");
    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    for _ in 0..COLD_WARM_ROUNDS {
        server.engine().cache().invalidate_sketch("heavy");
        let t = Instant::now();
        client
            .estimate("heavy", "max_weighted", "max_dominance")
            .expect("cold estimate");
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        client
            .estimate("heavy", "max_weighted", "max_dominance")
            .expect("warm estimate");
        warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    cold_ms.sort_by(f64::total_cmp);
    warm_ms.sort_by(f64::total_cmp);
    let cold_median = cold_ms[cold_ms.len() / 2];
    let warm_median = warm_ms[warm_ms.len() / 2];
    let speedup = cold_median / warm_median;
    println!(
        "\ncold (recompute) median {cold_median:.3} ms, warm (cache hit) median {warm_median:.3} ms: {speedup:.1}x"
    );
    assert!(
        speedup >= 10.0,
        "cache-hit serving must be at least 10x faster than recompute \
         (cold {cold_median:.3} ms vs warm {warm_median:.3} ms)"
    );
    server.shutdown();

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"offered_rate_per_s\": {:.0}, \"completed\": {}, \"achieved_per_s\": {:.1}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \"sheds\": {}, \
                 \"cache_hit_rate\": {:.4} }}",
                r.offered_rate,
                r.summary.count,
                r.summary.throughput_per_s,
                r.summary.p50_ms,
                r.summary.p99_ms,
                r.summary.p999_ms,
                r.sheds,
                r.hit_rate
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"engine_load\",\n  \"users\": {USERS},\n  \"zipf_exponent\": {ZIPF_EXPONENT},\n  \
         \"workers\": {workers},\n  \"requests_per_row\": {requests_per_row},\n  \
         \"threads_available\": {threads_available},\n  \
         \"note\": \"open-loop zipf traffic from 10^6 simulated users against one pie-serve server fronted by the pie-engine estimate cache and admission control; latency is measured from each request's scheduled arrival (queueing included); every 4th request is a whole-sketch BatchEstimate; cold/warm medians compare recompute vs cache-hit serving of a 128-trial sketch.\",\n  \
         \"rows\": [\n{}\n  ],\n  \"cold_vs_warm\": {{ \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"speedup\": {:.1} }}\n}}\n",
        json_rows.join(",\n"),
        cold_median,
        warm_median,
        speedup
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine_load.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
    print!("{json}");
}
