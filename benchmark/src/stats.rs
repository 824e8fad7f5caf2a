//! Order statistics for the runner: nearest-rank quantiles, the choice of
//! the tail percentile a sample can support, and medians over windows.

/// Percentiles the runner is willing to name, lowest first.
const LADDER: [f64; 5] = [0.50, 0.75, 0.90, 0.95, 0.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one window.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median seconds of `rounds` timed runs of `f`.
pub fn median_seconds<T>(rounds: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Index of the nearest-rank `q`-quantile in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank `q`-quantile of an ascending sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// The highest percentile on the ladder that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; p50 when none does.
pub fn tail_quantile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n > 0 && n - (rank(n, q) + 1) >= MIN_BEYOND)
        .unwrap_or(LADDER[0])
}

/// Latency samples of one request class, kept per timed window.
#[derive(Debug, Default, Clone)]
pub struct LatencyWindows {
    windows: Vec<Vec<f64>>,
}

/// What [`LatencyWindows::summary`] reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median over windows of each window's p50.
    pub p50: f64,
    /// Median over windows of each window's `tail_q` quantile.
    pub tail: f64,
    /// The percentile `tail` is: the highest the pooled count supports.
    pub tail_q: f64,
    /// Samples over all windows.
    pub count: usize,
}

impl LatencyWindows {
    /// Adds one window's samples; a window without samples is dropped.
    pub fn push(&mut self, mut samples: Vec<f64>) {
        if !samples.is_empty() {
            samples.sort_by(f64::total_cmp);
            self.windows.push(samples);
        }
    }

    /// Samples over all windows.
    pub fn count(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// p50 and tail, each the median over windows; `None` without samples.
    pub fn summary(&self) -> Option<LatencySummary> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let tail_q = tail_quantile(count);
        let over_windows = |q: f64| {
            let per_window: Vec<f64> = self.windows.iter().map(|w| quantile_sorted(w, q)).collect();
            median(&per_window)
        };
        Some(LatencySummary {
            p50: over_windows(0.5),
            tail: over_windows(tail_q),
            tail_q,
            count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle_or_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 is the 990th value: exactly ten lie beyond it.
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.90);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(20), 0.50);
        assert_eq!(tail_quantile(5), 0.50);
        assert_eq!(tail_quantile(0), 0.50);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(quantile_sorted(&[4.0], 0.99), 4.0);
    }

    #[test]
    fn latency_summary_is_the_median_over_windows() {
        let mut windows = LatencyWindows::default();
        // Window p50s are 2, 20 and 200; one outlying window must not move
        // the reported p50 off the middle one.
        windows.push(vec![1.0, 2.0, 3.0]);
        windows.push(vec![30.0, 10.0, 20.0]);
        windows.push(vec![100.0, 200.0, 300.0]);
        windows.push(Vec::new());
        let summary = windows.summary().expect("samples");
        assert_eq!(summary.count, 9);
        assert_eq!(summary.p50, 20.0);
        assert_eq!(summary.tail_q, 0.5);
        assert!(LatencyWindows::default().summary().is_none());
    }
}
