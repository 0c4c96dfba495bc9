//! Tick traces: the per-tick time series an experiment records.

use serde::{Deserialize, Serialize};

use crate::distribution::TickDistribution;
use crate::isr::{instability_ratio, IsrParams};
use crate::stats::{BoxplotSummary, Percentiles};

/// One recorded game tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TickRecord {
    /// Tick sequence number within the iteration.
    pub index: u64,
    /// Virtual time at which the tick started, in milliseconds since the
    /// start of the iteration.
    pub start_ms: f64,
    /// How long the tick's computation took, in milliseconds.
    pub busy_ms: f64,
    /// The full tick period: `max(busy, budget)` plus any catch-up backlog.
    pub period_ms: f64,
    /// Breakdown of the busy time across workload operations.
    pub distribution: TickDistribution,
}

/// A complete trace of ticks for one iteration of one experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TickTrace {
    records: Vec<TickRecord>,
    budget_ms: f64,
}

impl TickTrace {
    /// Creates an empty trace with the given tick budget (50 ms for MLGs).
    #[must_use]
    pub fn new(budget_ms: f64) -> Self {
        TickTrace {
            records: Vec::new(),
            budget_ms,
        }
    }

    /// Appends a tick record.
    pub fn push(&mut self, record: TickRecord) {
        self.records.push(record);
    }

    /// The tick budget this trace was recorded against.
    #[must_use]
    pub fn budget_ms(&self) -> f64 {
        self.budget_ms
    }

    /// Number of ticks recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no ticks were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the recorded ticks in order.
    pub fn iter(&self) -> impl Iterator<Item = &TickRecord> {
        self.records.iter()
    }

    /// The busy durations of all ticks, in milliseconds.
    #[must_use]
    pub fn busy_durations(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.busy_ms).collect()
    }

    /// The Instability Ratio of this trace (Equation 1 of the paper).
    ///
    /// `expected_ticks` is the number of ticks the iteration should have
    /// contained at the intended rate (duration / 50 ms); when `None` it is
    /// derived from the trace itself.
    #[must_use]
    pub fn instability_ratio(&self, expected_ticks: Option<u64>) -> f64 {
        instability_ratio(
            &self.busy_durations(),
            IsrParams {
                budget_ms: self.budget_ms,
                expected_ticks,
            },
        )
    }

    /// Percentile summary of the busy durations.
    #[must_use]
    pub fn percentiles(&self) -> Percentiles {
        Percentiles::of(&self.busy_durations())
    }

    /// Boxplot summary of the busy durations.
    #[must_use]
    pub fn boxplot(&self) -> BoxplotSummary {
        BoxplotSummary::of(&self.busy_durations())
    }

    /// Number of ticks whose busy time exceeded the budget (overloaded ticks).
    #[must_use]
    pub fn overloaded_ticks(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.busy_ms > self.budget_ms)
            .count()
    }

    /// The aggregate tick-time distribution over the whole trace, i.e. the
    /// share of total busy time attributed to each workload operation
    /// (Figure 11 of the paper).
    #[must_use]
    pub fn aggregate_distribution(&self) -> TickDistribution {
        let mut total = TickDistribution::default();
        for r in &self.records {
            total.merge(&r.distribution);
        }
        total
    }

    /// The downsampled time series `(start_ms, busy_ms)` used by the
    /// tick-time-over-time plots (Figure 9). At most `max_points` evenly
    /// spaced points are returned.
    #[must_use]
    pub fn time_series(&self, max_points: usize) -> Vec<(f64, f64)> {
        if self.records.is_empty() || max_points == 0 {
            return Vec::new();
        }
        let step = (self.records.len() / max_points.max(1)).max(1);
        self.records
            .iter()
            .step_by(step)
            .map(|r| (r.start_ms, r.busy_ms))
            .collect()
    }
}

impl Extend<TickRecord> for TickTrace {
    fn extend<T: IntoIterator<Item = TickRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: u64, busy: f64) -> TickRecord {
        TickRecord {
            index,
            start_ms: index as f64 * 50.0,
            busy_ms: busy,
            period_ms: busy.max(50.0),
            distribution: TickDistribution::default(),
        }
    }

    fn trace_of(busy: &[f64]) -> TickTrace {
        let mut t = TickTrace::new(50.0);
        for (i, &b) in busy.iter().enumerate() {
            t.push(record(i as u64, b));
        }
        t
    }

    #[test]
    fn empty_trace_properties() {
        let t = TickTrace::new(50.0);
        assert!(t.is_empty());
        assert_eq!(t.overloaded_ticks(), 0);
        assert_eq!(t.instability_ratio(None), 0.0);
        assert!(t.time_series(100).is_empty());
    }

    #[test]
    fn overload_counting() {
        let t = trace_of(&[10.0, 20.0, 60.0, 70.0, 30.0]);
        assert_eq!(t.overloaded_ticks(), 2);
    }

    #[test]
    fn stable_trace_has_zero_isr_and_unstable_does_not() {
        let stable = trace_of(&vec![10.0; 200]);
        assert_eq!(stable.instability_ratio(Some(200)), 0.0);
        let unstable = trace_of(
            &(0..200)
                .map(|i| if i % 2 == 0 { 10.0 } else { 500.0 })
                .collect::<Vec<_>>(),
        );
        assert!(unstable.instability_ratio(Some(200)) > 0.5);
    }

    #[test]
    fn percentiles_reflect_busy_times() {
        let t = trace_of(&[10.0, 20.0, 30.0, 40.0, 1000.0]);
        let p = t.percentiles();
        assert_eq!(p.max, 1000.0);
        assert_eq!(p.min, 10.0);
        assert!(p.mean > p.p50);
    }

    #[test]
    fn time_series_is_downsampled() {
        let t = trace_of(&vec![10.0; 1200]);
        let series = t.time_series(100);
        assert!(series.len() <= 120);
        assert!(series.len() >= 100);
        assert_eq!(series[0], (0.0, 10.0));
    }

    #[test]
    fn extend_appends_records() {
        let mut t = TickTrace::new(50.0);
        t.extend((0..10).map(|i| record(i, 25.0)));
        assert_eq!(t.len(), 10);
    }
}
