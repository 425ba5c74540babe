//! Per-request SLO accounting: latency percentiles, throughput, and
//! element-exact volume conformance aggregated over every batch a
//! model ran.

use distconv_trace::{ConformanceReport, ConformanceRow, Tolerance};
use std::time::Duration;

/// Nearest-rank percentile (`q` in `[0, 100]`) over a sorted slice of
/// latencies, in milliseconds. Empty input yields 0.
pub fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    sorted[idx].as_secs_f64() * 1e3
}

/// One model's (tenant's) serving outcome.
#[derive(Clone, Debug)]
pub struct ModelReport {
    /// The model's name (from [`crate::ModelSpec`]).
    pub name: String,
    /// Requests that completed with a result digest.
    pub completed: usize,
    /// Requests rejected at admission (queue saturated).
    pub rejected: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Batches flushed below `Nb` by the latency budget or shutdown.
    pub partial_flushes: usize,
    /// Aborted attempts across all batches (replays, including the
    /// ones that exhausted the retries before a degraded re-plan).
    pub replays: u32,
    /// Batches that finished on a degraded (re-planned) grid: the one
    /// that lost a rank, and every later batch its cluster ran on the
    /// survivor plan.
    pub degraded_batches: usize,
    /// p50 queueing+execution latency, milliseconds.
    pub p50_ms: f64,
    /// p95 latency, milliseconds.
    pub p95_ms: f64,
    /// p99 latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
    /// Completed requests per wall-clock second over the serve window.
    pub throughput_rps: f64,
    /// Sum of the executor's exact expected volumes over all batches.
    pub expected_volume: u128,
    /// Sum of the measured wire counters over all batches.
    pub measured_volume: u128,
}

/// The whole server's outcome: one [`ModelReport`] per tenant plus the
/// serve window length.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-model reports, in registration order.
    pub models: Vec<ModelReport>,
    /// Wall-clock serve window (start of serving to shutdown), ms.
    pub wall_ms: f64,
}

impl ServeReport {
    /// Element-exact conformance of everything this server executed:
    /// per model, the summed measured wire volume must equal the
    /// summed analytic expectation — sums of exact per-batch
    /// quantities are exact, so the serving layer composes with the
    /// same [`Tolerance::Exact`] contract as a single run. Batches
    /// that recovered via replay or a degraded re-plan are excluded by
    /// the executor's own accounting (wasted traffic is reported
    /// separately), so the rows stay exact under chaos.
    pub fn conformance(&self) -> ConformanceReport {
        let mut report = ConformanceReport::new();
        for m in &self.models {
            report.push(ConformanceRow::new(
                format!("serve/{}/volume", m.name),
                m.measured_volume as f64,
                m.expected_volume as f64,
                Tolerance::Exact,
            ));
        }
        report
    }

    /// Completed requests across all models.
    pub fn total_completed(&self) -> usize {
        self.models.iter().map(|m| m.completed).sum()
    }

    /// Rejected requests across all models.
    pub fn total_rejected(&self) -> usize {
        self.models.iter().map(|m| m.rejected).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(&ms, 50.0), 50.0);
        assert_eq!(percentile_ms(&ms, 95.0), 95.0);
        assert_eq!(percentile_ms(&ms, 99.0), 99.0);
        assert_eq!(percentile_ms(&ms, 100.0), 100.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
        let one = [Duration::from_millis(7)];
        for q in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile_ms(&one, q), 7.0);
        }
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut ms: Vec<Duration> = (0..37).map(|i| Duration::from_micros(i * 131)).collect();
        ms.sort();
        let (p50, p95, p99) = (
            percentile_ms(&ms, 50.0),
            percentile_ms(&ms, 95.0),
            percentile_ms(&ms, 99.0),
        );
        assert!(p50 <= p95 && p95 <= p99);
    }
}
