//! Spans recorded by the runner around its own calls into each layer, the
//! self-time arithmetic over them, and the ledger that closes a request's
//! layer costs against the latency its client observed.
//!
//! Spans live in memory until the workload ends and are then written as one
//! JSON object per line.  Nothing here reaches into the program under test:
//! a span brackets a call made from the benchmark's own code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// Spans one recorder keeps; later ones are dropped and counted.
const SPAN_CAP: usize = 1_000_000;

/// One timed call: `start_ns`/`end_ns` count from the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one request share this identifier.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has started; hand it back to [`Recorder::close`].
#[derive(Debug)]
pub struct OpenSpan {
    pub id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start_ns: u64,
}

/// One generator thread's span buffer.  A disabled recorder hands out ids
/// and reads no clock, so the untraced run pays nothing for it.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    /// `lane` keeps ids of recorders that share an `epoch` apart.
    pub fn new(enabled: bool, epoch: Instant, lane: u64) -> Self {
        Self {
            enabled,
            epoch,
            next_id: lane << 48,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn disabled() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> OpenSpan {
        self.next_id += 1;
        OpenSpan {
            id: self.next_id,
            parent,
            request,
            name,
            start_ns: if self.enabled { self.now_ns() } else { 0 },
        }
    }

    pub fn close(&mut self, open: OpenSpan) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Records a child whose duration the program reported itself (a
    /// `StageNanos` total), laid out from `start_ns` inside its parent.
    pub fn child_of_duration(
        &mut self,
        name: &'static str,
        parent: &OpenSpan,
        start_ns: u64,
        duration_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.next_id += 1;
        self.push(Span {
            id: self.next_id,
            parent: Some(parent.id),
            request: parent.request,
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
        });
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// The spans kept; says so when the cap dropped any.
    pub fn into_spans(self) -> Vec<Span> {
        if self.dropped > 0 {
            println!("# trace: kept {SPAN_CAP} spans, dropped {}", self.dropped);
        }
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children clipped to the parent, overlapping
/// children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for span in spans {
        if let Some((start, end)) = span.parent.and_then(|p| bounds.get(&p)) {
            let clipped = (span.start_ns.max(*start), span.end_ns.min(*end));
            if clipped.0 < clipped.1 {
                children
                    .entry(span.parent.expect("parent checked above"))
                    .or_default()
                    .push(clipped);
            }
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_unstable();
                let mut reach = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (span.id, (span.end_ns - span.start_ns) - covered)
        })
        .collect()
}

/// Median self time per span name, in microseconds: per request, the self
/// times of same-named spans are summed, then the median is taken over
/// requests.
pub fn median_self_us_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let own = self_times(spans);
    let mut per_request: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for span in spans {
        *per_request.entry((span.name, span.request)).or_default() += own[&span.id];
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), nanos) in per_request {
        by_name.entry(name).or_default().push(nanos as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}

/// A request's layer costs set against the latency its client observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// `(span name, median self time in µs)`.
    pub rows: Vec<(String, f64)>,
    pub client_p50_us: f64,
    /// What no span accounts for: sockets, epoll, worker hand-off, write
    /// queue, and contention the in-process replay does not meet.  It is
    /// negative when the replay, run alone, is slower than the served path.
    pub unattributed_us: f64,
}

impl Ledger {
    /// Closes the ledger: rows + `unattributed_us` = `client_p50_us`.
    pub fn close(rows: Vec<(String, f64)>, client_p50_us: f64) -> Self {
        let attributed: f64 = rows.iter().map(|(_, us)| us).sum();
        Self {
            rows,
            client_p50_us,
            unattributed_us: client_p50_us - attributed,
        }
    }

    /// Share of the client-observed latency spent in rows whose name
    /// starts with one of `prefixes`.
    pub fn share(&self, prefixes: &[&str]) -> f64 {
        let matching: f64 = self
            .rows
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(_, us)| us)
            .sum();
        // `+ 0.0`: an empty sum is -0.0, which would print as "-0".
        matching / self.client_p50_us + 0.0
    }
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            span.id, span.request, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span(1, None, "request", 0, 100),
            span(2, Some(1), "decode", 10, 30),
            // Overlaps `decode` for 5 ns and overruns the parent by 20 ns:
            // only [30, 100) adds cover.
            span(3, Some(1), "estimate", 25, 120),
            span(4, Some(3), "kernel", 40, 60),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - (20 + 70));
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 95 - 20);
        assert_eq!(own[&4], 20);
    }

    #[test]
    fn ledger_closes_on_the_client_latency() {
        let ledger = Ledger::close(
            vec![
                ("serve.wire_decode_request".to_string(), 2.0),
                ("pipeline.trial_replay".to_string(), 60.0),
                ("core.estimator_batch".to_string(), 20.0),
            ],
            100.0,
        );
        assert_eq!(ledger.unattributed_us, 18.0);
        let total: f64 = ledger.rows.iter().map(|(_, us)| us).sum::<f64>() + ledger.unattributed_us;
        assert_eq!(total, ledger.client_p50_us);
        assert!((ledger.share(&["pipeline.", "core."]) - 0.8).abs() < 1e-12);
        // A replay slower than the served path shows as a negative rest,
        // not as a clamped zero.
        assert_eq!(
            Ledger::close(vec![("x".to_string(), 5.0)], 3.0).unattributed_us,
            -2.0
        );
    }

    #[test]
    fn recorder_links_children_and_medians_group_by_name() {
        let mut recorder = Recorder::new(true, Instant::now(), 3);
        for request in 0..3 {
            let root = recorder.open("request", None, request);
            let child = recorder.open("engine.admit", Some(root.id), request);
            recorder.close(child);
            let at = recorder.now_ns();
            recorder.child_of_duration("core.estimator_batch", &root, at, 0);
            recorder.close(root);
        }
        let spans = recorder.into_spans();
        assert_eq!(spans.len(), 9);
        assert!(spans.iter().all(|s| s.id >> 48 == 3));
        let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 3);
        let names: Vec<&str> = median_self_us_by_name(&spans)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(names, ["core.estimator_batch", "engine.admit", "request"]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut recorder = Recorder::disabled();
        let open = recorder.open("request", None, 0);
        recorder.close(open);
        assert!(recorder.into_spans().is_empty());
    }
}
