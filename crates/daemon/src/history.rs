//! Rolling in-memory metrics history.
//!
//! The daemon is *resident*: it observes an unbounded stream of ticks, so
//! everything it retains must be windowed. [`MetricsHistory`] keeps the
//! last `window` ticks in a ring (a `VecDeque` allocated once at
//! construction and never grown past the window) plus a handful of
//! cumulative counters — memory stays flat no matter how long the soak
//! runs. Windowed aggregates (overload ratio, busy-time mean, coefficient
//! of variation, per-stage means) are computed on demand from the ring;
//! the alert rules in [`crate::alerts`] evaluate against exactly these.

use std::collections::VecDeque;

use meterstick::TickSample;
use meterstick_metrics::stats;
use mlg_server::TickStageBreakdown;

/// Bounded rolling window over the observed tick stream, plus cumulative
/// totals that cost O(1) memory.
#[derive(Debug)]
pub struct MetricsHistory {
    window: usize,
    ticks: VecDeque<TickSample>,
    total_ticks: u64,
    total_overloaded: u64,
    iterations_completed: u64,
    last_iteration_isr: Option<f64>,
}

impl MetricsHistory {
    /// Creates a history retaining the last `window` ticks (`window` must
    /// be at least 1; the ring is allocated once, up front).
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "the metrics window must hold at least one tick");
        MetricsHistory {
            window,
            ticks: VecDeque::with_capacity(window),
            total_ticks: 0,
            total_overloaded: 0,
            iterations_completed: 0,
            last_iteration_isr: None,
        }
    }

    /// The configured window size.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Ticks currently held in the window (≤ the window size, always).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// `true` until the first tick is observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Ticks observed since daemon start (cumulative, not windowed).
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.total_ticks
    }

    /// Overloaded ticks observed since daemon start.
    #[must_use]
    pub fn total_overloaded(&self) -> u64 {
        self.total_overloaded
    }

    /// Iterations completed since daemon start.
    #[must_use]
    pub fn iterations_completed(&self) -> u64 {
        self.iterations_completed
    }

    /// ISR of the most recently completed iteration, if any.
    #[must_use]
    pub fn last_iteration_isr(&self) -> Option<f64> {
        self.last_iteration_isr
    }

    /// Records one observed tick, evicting the oldest entry once the
    /// window is full.
    pub fn push(&mut self, sample: &TickSample) {
        if self.ticks.len() == self.window {
            self.ticks.pop_front();
        }
        self.ticks.push_back(*sample);
        self.total_ticks += 1;
        self.total_overloaded += u64::from(sample.is_overloaded());
    }

    /// Records one completed iteration and its Instability Ratio.
    pub fn record_iteration(&mut self, isr: f64) {
        self.iterations_completed += 1;
        self.last_iteration_isr = Some(isr);
    }

    /// Fraction of windowed ticks that ran over budget — the windowed
    /// analogue of the paper's ISR numerator. `0.0` on an empty window.
    #[must_use]
    pub fn windowed_overload_ratio(&self) -> f64 {
        if self.ticks.is_empty() {
            return 0.0;
        }
        let over = self.ticks.iter().filter(|t| t.is_overloaded()).count();
        over as f64 / self.ticks.len() as f64
    }

    /// Mean busy time over the window, ms. `0.0` on an empty window.
    #[must_use]
    pub fn windowed_mean_busy_ms(&self) -> f64 {
        let busy: Vec<f64> = self.ticks.iter().map(|t| t.busy_ms).collect();
        stats::mean(&busy)
    }

    /// Coefficient of variation of busy times over the window — the
    /// daemon's live tick-variability signal. `0.0` on an empty window.
    #[must_use]
    pub fn windowed_cov(&self) -> f64 {
        let busy: Vec<f64> = self.ticks.iter().map(|t| t.busy_ms).collect();
        stats::coefficient_of_variation(&busy)
    }

    /// Per-stage mean busy time over the window, ms per stage.
    #[must_use]
    pub fn windowed_stage_means(&self) -> TickStageBreakdown {
        let mut sums = TickStageBreakdown::default();
        if self.ticks.is_empty() {
            return sums;
        }
        for t in &self.ticks {
            sums.accumulate(&t.stages);
        }
        let n = self.ticks.len() as f64;
        TickStageBreakdown::from_array(sums.as_array().map(|ms| ms / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: u64, busy_ms: f64) -> TickSample {
        TickSample {
            tick,
            end_ms: tick as f64 * 50.0,
            busy_ms,
            period_ms: busy_ms.max(50.0),
            budget_ms: 50.0,
            stages: TickStageBreakdown {
                player_ms: busy_ms / 2.0,
                terrain_ms: busy_ms / 2.0,
                ..TickStageBreakdown::default()
            },
            entity_count: 0,
            player_count: 0,
        }
    }

    #[test]
    fn window_stays_bounded_while_totals_accumulate() {
        let mut history = MetricsHistory::new(8);
        for i in 0..1_000 {
            history.push(&sample(i, 10.0));
            assert!(history.len() <= 8);
            // The ring never reallocates past its window.
            assert!(history.ticks.capacity() >= 8);
        }
        assert_eq!(history.len(), 8);
        assert_eq!(history.total_ticks(), 1_000);
        assert_eq!(history.ticks.back().unwrap().tick, 999);
    }

    #[test]
    fn windowed_aggregates_only_see_the_window() {
        let mut history = MetricsHistory::new(4);
        // Four overloaded ticks, then four calm ones: the window forgets.
        for i in 0..4 {
            history.push(&sample(i, 80.0));
        }
        assert!((history.windowed_overload_ratio() - 1.0).abs() < 1e-12);
        for i in 4..8 {
            history.push(&sample(i, 10.0));
        }
        assert!((history.windowed_overload_ratio() - 0.0).abs() < 1e-12);
        assert!((history.windowed_mean_busy_ms() - 10.0).abs() < 1e-12);
        assert_eq!(history.total_overloaded(), 4);
        let stages = history.windowed_stage_means();
        assert!((stages.player_ms - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cov_reflects_windowed_variability() {
        let mut history = MetricsHistory::new(16);
        for i in 0..16 {
            history.push(&sample(i, 10.0));
        }
        assert!(history.windowed_cov() < 1e-12, "constant ticks have no CoV");
        for i in 16..24 {
            history.push(&sample(i, if i % 2 == 0 { 1.0 } else { 40.0 }));
        }
        assert!(history.windowed_cov() > 0.5);
    }

    #[test]
    fn iteration_records_are_cumulative() {
        let mut history = MetricsHistory::new(2);
        assert_eq!(history.last_iteration_isr(), None);
        history.record_iteration(0.25);
        history.record_iteration(0.5);
        assert_eq!(history.iterations_completed(), 2);
        assert_eq!(history.last_iteration_isr(), Some(0.5));
    }
}
