//! Load generation against a `pie-serve` node: what may be asked and what
//! must come back, the closed loop, and the open loop with its due-time
//! and lateness accounting.  One process generates all load, over at most
//! [`generators`] threads, one connection each.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use partial_info_estimators::PipelineReport;
use pie_serve::{BatchQuery, ClientConfig, RetryPolicy, ServeClient};

use crate::data::bit_identical;
use crate::trace::{Recorder, Span};

/// An operation slower than this has failed, whatever it returned.
pub const OP_TIMEOUT: Duration = Duration::from_secs(1);

/// Generator threads (= connections): `min(nproc, 2)`.
pub fn generators() -> usize {
    crate::provenance::nproc().min(2)
}

/// The client profile of every benchmark connection: each socket
/// operation capped at [`OP_TIMEOUT`], no retries (a shed counts).
pub fn client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(OP_TIMEOUT),
        read_timeout: Some(OP_TIMEOUT),
        write_timeout: Some(OP_TIMEOUT),
        retry: RetryPolicy::default(),
    }
}

pub fn connect(addr: SocketAddr) -> ServeClient {
    ServeClient::connect_with_config(addr, client_config())
        .expect("connect to the benchmark's server")
}

/// One servable `(sketch, estimator, statistic)` combination.
#[derive(Debug, Clone)]
pub struct Combo {
    pub sketch: String,
    pub estimator: &'static str,
    pub statistic: &'static str,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Estimate` of combination `.0`.
    Estimate(usize),
    /// `BatchEstimate` number `.0` of the menu.
    Batch(usize),
}

/// Everything the generators may ask, with the in-process reference each
/// answer must equal.
#[derive(Debug, Default)]
pub struct Menu {
    pub combos: Vec<Combo>,
    /// `Pipeline` reference per combination, built during set-up.
    pub expected: Vec<PipelineReport>,
    /// `(sketch, combinations)` per batch; a batch stays on one sketch.
    pub batches: Vec<(String, Vec<usize>)>,
}

/// How one operation ended.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Answered in time, every report bit-identical to its reference.
    pub correct: bool,
    /// Reports delivered and the Monte-Carlo trials they cover.
    pub reports: u64,
    pub trials: u64,
}

impl Menu {
    pub fn push(&mut self, combo: Combo, expected: PipelineReport) -> usize {
        self.combos.push(combo);
        self.expected.push(expected);
        self.combos.len() - 1
    }

    fn check(&self, combos: &[usize], reports: &[PipelineReport]) -> Done {
        let correct = reports.len() == combos.len()
            && reports
                .iter()
                .zip(combos)
                .all(|(report, &c)| bit_identical(report, &self.expected[c]));
        Done {
            correct,
            reports: reports.len() as u64,
            trials: reports.iter().map(|r| r.trials).sum(),
        }
    }

    /// Sends `op` and checks the answer.  An error of any kind (shed,
    /// timeout, refusal) is an incorrect completion with no reports.
    pub fn issue(&self, client: &mut ServeClient, op: Op) -> Done {
        const FAILED: Done = Done {
            correct: false,
            reports: 0,
            trials: 0,
        };
        match op {
            Op::Estimate(c) => {
                let combo = &self.combos[c];
                client
                    .estimate(combo.sketch.as_str(), combo.estimator, combo.statistic)
                    .map_or(FAILED, |report| self.check(&[c], &[report]))
            }
            Op::Batch(b) => {
                let (sketch, combos) = &self.batches[b];
                let queries = combos
                    .iter()
                    .map(|&c| BatchQuery {
                        estimator: self.combos[c].estimator.to_string(),
                        statistic: self.combos[c].statistic.to_string(),
                    })
                    .collect();
                client
                    .batch_estimate(sketch.as_str(), queries)
                    .map_or(FAILED, |reports| self.check(combos, &reports))
            }
        }
    }
}

/// One timed closed-loop window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Reports in correct completions, and the trials they cover.
    pub reports: u64,
    pub trials: u64,
    /// Latencies of correct `Estimate` operations (the unimodal class).
    pub estimate_ms: Vec<f64>,
}

impl Window {
    pub fn reports_per_s(&self) -> f64 {
        self.reports as f64 / self.elapsed_s
    }

    pub fn trials_per_s(&self) -> f64 {
        self.trials as f64 / self.elapsed_s
    }

    fn absorb(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reports += other.reports;
        self.trials += other.trials;
        self.estimate_ms.extend(other.estimate_ms);
    }

    fn record(&mut self, op: Op, done: Done, latency: Duration) {
        self.attempted += 1;
        if done.correct && latency <= OP_TIMEOUT {
            self.reports += done.reports;
            self.trials += done.trials;
            if matches!(op, Op::Estimate(_)) {
                self.estimate_ms.push(latency.as_secs_f64() * 1e3);
            }
        } else {
            self.failed += 1;
        }
    }
}

/// One closed-loop window: each client sends its next operation when the
/// previous one completed, cycling through its own plan, until `window` has
/// passed.  `index` numbers the window: it shifts where the plans start and
/// keeps span and request ids of different windows apart.  Every window starts fresh generator threads, so a
/// lucky or unlucky thread placement does not outlive it.  A traced window
/// records one span per call.
pub fn closed_loop(
    clients: &mut [ServeClient],
    menu: &Menu,
    plans: &[Vec<Op>],
    index: usize,
    window: Duration,
    traced: Option<Instant>,
) -> (Window, Vec<Span>) {
    let start = Instant::now();
    let (mut result, mut spans) = (Window::default(), Vec::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let plan = &plans[lane % plans.len()];
                scope.spawn(move || {
                    let mut mine = Window::default();
                    let lane = ((index as u64) << 4) | lane as u64;
                    let mut recorder =
                        Recorder::new(traced.is_some(), traced.unwrap_or(start), lane + 1);
                    let mut next = index * 997;
                    while start.elapsed() < window {
                        let op = plan[next % plan.len()];
                        let request = (lane << 40) | next as u64;
                        next += 1;
                        let span = recorder.open(span_name(op), None, request);
                        let sent = Instant::now();
                        let done = menu.issue(client, op);
                        let latency = sent.elapsed();
                        recorder.close(span);
                        mine.record(op, done, latency);
                    }
                    (mine, recorder.into_spans())
                })
            })
            .collect();
        for handle in handles {
            let (mine, recorded) = handle.join().expect("generator thread");
            result.absorb(mine);
            spans.extend(recorded);
        }
    });
    result.elapsed_s = start.elapsed().as_secs_f64();
    (result, spans)
}

fn span_name(op: Op) -> &'static str {
    match op {
        Op::Estimate(_) => "serve.client.estimate",
        Op::Batch(_) => "serve.client.batch_estimate",
    }
}

/// When request `index` of an open loop at `rate` per second is due, in
/// seconds from the start of the window.
pub fn due_s(index: usize, rate: f64) -> f64 {
    index as f64 / rate
}

/// One open-loop request, all times in seconds from the window's start.
#[derive(Debug, Clone, Copy)]
pub struct OpenSample {
    pub due_s: f64,
    pub sent_s: f64,
    pub done_s: f64,
    pub op: Op,
    pub correct: bool,
}

impl OpenSample {
    /// Latency from the due time: a stall's wait is charged to every
    /// request queued behind it, not hidden by a slowed generator.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }

    /// How late the generator sent it (0 when on time).
    pub fn late_ms(&self) -> f64 {
        (self.sent_s - self.due_s).max(0.0) * 1e3
    }

    pub fn ok(&self) -> bool {
        self.correct && self.latency_ms() <= OP_TIMEOUT.as_secs_f64() * 1e3
    }
}

/// One open-loop window.
#[derive(Debug, Default)]
pub struct OpenWindow {
    pub samples: Vec<OpenSample>,
    /// Requests of the plan never sent because the backlog outgrew the
    /// window (the generator gives up at twice the planned duration).
    pub unsent: usize,
    pub elapsed_s: f64,
}

/// Waits until `due_s` seconds after `start` by yielding in a loop, never
/// by sleeping.  A thread that sleeps on an otherwise idle virtual CPU wakes
/// a timer tick and a scheduling delay late, by an amount that changes from
/// second to second, and all of it would be charged to the request as
/// lateness.  Yielding keeps the CPU awake and hands it to the server
/// whenever the server has work.
fn wait_until(start: Instant, due_s: f64) {
    while start.elapsed().as_secs_f64() < due_s {
        std::thread::yield_now();
    }
}

/// Open loop: `plan[i]` is due at `i / rate` whatever happened to the
/// requests before it; the clients share the schedule through one index.
pub fn open_loop(clients: &mut [ServeClient], menu: &Menu, plan: &[Op], rate: f64) -> OpenWindow {
    let give_up_s = 2.0 * due_s(plan.len(), rate);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut samples: Vec<OpenSample> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let now_s = start.elapsed().as_secs_f64();
                        if index >= plan.len() || now_s > give_up_s {
                            return mine;
                        }
                        let due_s = due_s(index, rate);
                        wait_until(start, due_s);
                        let sent_s = start.elapsed().as_secs_f64();
                        let done = menu.issue(client, plan[index]);
                        mine.push(OpenSample {
                            due_s,
                            sent_s,
                            done_s: start.elapsed().as_secs_f64(),
                            op: plan[index],
                            correct: done.correct,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    samples.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    OpenWindow {
        unsent: plan.len() - samples.len(),
        samples,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(due_s: f64, sent_s: f64, done_s: f64) -> OpenSample {
        OpenSample {
            due_s,
            sent_s,
            done_s,
            op: Op::Estimate(0),
            correct: true,
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        assert_eq!(due_s(0, 4000.0), 0.0);
        assert_eq!(due_s(4000, 4000.0), 1.0);
        // Due at 1.000 s, sent 3 ms late behind a stall, answered 1 ms
        // after that: the request waited 4 ms, and 3 ms of it is lateness.
        let stalled = sample(1.000, 1.003, 1.004);
        assert!((stalled.latency_ms() - 4.0).abs() < 1e-9);
        assert!((stalled.late_ms() - 3.0).abs() < 1e-9);
        // Sent on time: no lateness, never negative.
        let on_time = sample(1.000, 1.000, 1.0002);
        assert_eq!(on_time.late_ms(), 0.0);
        assert!((on_time.latency_ms() - 0.2).abs() < 1e-9);
        assert!(on_time.ok());
        // A correct answer past the timeout still fails.
        assert!(!sample(1.0, 1.0, 2.5).ok());
        let mut wrong = on_time;
        wrong.correct = false;
        assert!(!wrong.ok());
    }

    #[test]
    fn window_counts_failures_and_keeps_estimate_latencies_only() {
        let ok = Done {
            correct: true,
            reports: 2,
            trials: 64,
        };
        let bad = Done {
            correct: false,
            reports: 0,
            trials: 0,
        };
        let mut window = Window::default();
        window.record(Op::Estimate(0), ok, Duration::from_millis(5));
        window.record(Op::Batch(0), ok, Duration::from_millis(9));
        window.record(Op::Estimate(0), bad, Duration::from_millis(1));
        window.record(Op::Estimate(0), ok, Duration::from_millis(1500));
        assert_eq!((window.attempted, window.failed), (4, 2));
        assert_eq!((window.reports, window.trials), (4, 128));
        assert_eq!(window.estimate_ms, vec![5.0]);
        window.elapsed_s = 2.0;
        assert_eq!(window.reports_per_s(), 2.0);
        assert_eq!(window.trials_per_s(), 64.0);
    }
}
