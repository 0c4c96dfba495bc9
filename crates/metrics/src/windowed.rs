//! Windowed streaming aggregation for long-horizon campaigns.
//!
//! A stationary iteration keeps its full tick trace in memory; a
//! long-horizon iteration (hours → days of simulated wall-clock) cannot.
//! [`WindowedAggregator`] folds the tick stream incrementally, mirroring the
//! benchmark daemon's `MetricsHistory` idiom so memory stays flat with
//! horizon:
//!
//! * the **open window** buffers at most `window_ticks` samples; when it
//!   fills, it is summarized into a [`WindowSummary`] (mean, CoV,
//!   percentiles, overload count — computed with the batch [`stats`]
//!   functions, so a window summary equals the batch statistics of the same
//!   slice exactly);
//! * closed summaries live in a **bounded ring** of `max_windows` entries
//!   (oldest evicted first);
//! * horizon-wide aggregates (mean, CoV, ISR) fold into **O(1) cumulative
//!   counters** — the ISR jitter sum accumulates in tick order, so the
//!   horizon ISR matches [`isr::instability_ratio`] over the full series
//!   bit-for-bit without retaining it.
//!
//! [`stats`]: crate::stats
//! [`isr::instability_ratio`]: crate::isr::instability_ratio

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::stats;

/// Summary statistics of one closed window of consecutive ticks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowSummary {
    /// Zero-based index of this window within the iteration.
    pub index: u64,
    /// Tick index of the window's first sample.
    pub start_tick: u64,
    /// Number of tick samples in the window (equal to the configured window
    /// length except for a trailing partial window).
    pub ticks: usize,
    /// Mean tick busy time, in milliseconds.
    pub mean_ms: f64,
    /// Coefficient of variation of the window's busy times.
    pub cov: f64,
    /// Median busy time, in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile busy time, in milliseconds.
    pub p95_ms: f64,
    /// Maximum busy time, in milliseconds.
    pub max_ms: f64,
    /// Number of ticks that exceeded the budget.
    pub overloaded: usize,
}

/// Final report of a windowed iteration: the bounded tail of window
/// summaries plus the horizon-wide cumulative aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedReport {
    /// Configured window length, in ticks.
    pub window_ticks: usize,
    /// Configured bound on retained window summaries.
    pub max_windows: usize,
    /// The most recent window summaries (at most `max_windows`).
    pub windows: Vec<WindowSummary>,
    /// Total number of windows closed over the horizon (may exceed
    /// `windows.len()` — the difference is what eviction dropped).
    pub windows_closed: u64,
    /// Total ticks folded into the aggregator.
    pub total_ticks: u64,
    /// Total over-budget ticks over the horizon.
    pub total_overloaded: u64,
    /// Horizon-wide mean busy time, in milliseconds.
    pub mean_ms: f64,
    /// Horizon-wide coefficient of variation (population, from cumulative
    /// moments).
    pub cov: f64,
    /// Horizon-wide Instability Ratio, identical to the batch computation
    /// over the full (unretained) tick series.
    pub instability_ratio: f64,
}

/// Streaming aggregator: see the [module docs](self).
#[derive(Debug, Clone)]
pub struct WindowedAggregator {
    window_ticks: usize,
    max_windows: usize,
    budget_ms: f64,
    current: Vec<f64>,
    current_overloaded: usize,
    windows: VecDeque<WindowSummary>,
    windows_closed: u64,
    total_ticks: u64,
    total_overloaded: u64,
    sum: f64,
    sum_sq: f64,
    // ISR folding state: Σ|max(b,tᵢ)−max(b,tᵢ₋₁)| and Σ max(b,tᵢ) in tick
    // order, plus the previous clamped period.
    jitter_sum: f64,
    period_sum: f64,
    last_period: Option<f64>,
}

impl WindowedAggregator {
    /// Creates an aggregator with `window_ticks`-tick windows, retaining at
    /// most `max_windows` summaries. `budget_ms` is the tick budget used for
    /// overload counting and ISR clamping.
    ///
    /// # Panics
    ///
    /// Panics if `window_ticks` or `max_windows` is zero, or if `budget_ms`
    /// is not strictly positive.
    #[must_use]
    pub fn new(window_ticks: usize, max_windows: usize, budget_ms: f64) -> Self {
        assert!(window_ticks > 0, "window length must be positive");
        assert!(max_windows > 0, "window ring bound must be positive");
        assert!(budget_ms > 0.0, "tick budget must be positive");
        WindowedAggregator {
            window_ticks,
            max_windows,
            budget_ms,
            current: Vec::with_capacity(window_ticks),
            current_overloaded: 0,
            windows: VecDeque::with_capacity(max_windows),
            windows_closed: 0,
            total_ticks: 0,
            total_overloaded: 0,
            sum: 0.0,
            sum_sq: 0.0,
            jitter_sum: 0.0,
            period_sum: 0.0,
            last_period: None,
        }
    }

    /// Folds one tick's busy time into the aggregator, closing the open
    /// window if it fills.
    pub fn push(&mut self, busy_ms: f64) {
        self.total_ticks += 1;
        if busy_ms > self.budget_ms {
            self.total_overloaded += 1;
            self.current_overloaded += 1;
        }
        self.sum += busy_ms;
        self.sum_sq += busy_ms * busy_ms;
        let period = busy_ms.max(self.budget_ms);
        if let Some(last) = self.last_period {
            self.jitter_sum += (period - last).abs();
        }
        self.period_sum += period;
        self.last_period = Some(period);
        self.current.push(busy_ms);
        if self.current.len() == self.window_ticks {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let ticks = self.current.len();
        let summary = WindowSummary {
            index: self.windows_closed,
            start_tick: self.total_ticks - ticks as u64,
            ticks,
            mean_ms: stats::mean(&self.current),
            cov: stats::coefficient_of_variation(&self.current),
            p50_ms: stats::percentile(&self.current, 50.0),
            p95_ms: stats::percentile(&self.current, 95.0),
            max_ms: self
                .current
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max),
            overloaded: self.current_overloaded,
        };
        if self.windows.len() == self.max_windows {
            self.windows.pop_front();
        }
        self.windows.push_back(summary);
        self.windows_closed += 1;
        self.current.clear();
        self.current_overloaded = 0;
    }

    /// The retained window summaries, oldest first.
    #[must_use]
    pub fn windows(&self) -> &VecDeque<WindowSummary> {
        &self.windows
    }

    /// Total ticks folded so far.
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.total_ticks
    }

    /// Total over-budget ticks folded so far.
    #[must_use]
    pub fn total_overloaded(&self) -> u64 {
        self.total_overloaded
    }

    /// Number of windows closed so far (retained or evicted).
    #[must_use]
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Horizon-wide mean busy time from the cumulative sum.
    #[must_use]
    pub fn cumulative_mean(&self) -> f64 {
        if self.total_ticks == 0 {
            return 0.0;
        }
        self.sum / self.total_ticks as f64
    }

    /// Horizon-wide population coefficient of variation from the cumulative
    /// moments.
    #[must_use]
    pub fn cumulative_cov(&self) -> f64 {
        let mean = self.cumulative_mean();
        if mean == 0.0 || self.total_ticks == 0 {
            return 0.0;
        }
        let variance = (self.sum_sq / self.total_ticks as f64 - mean * mean).max(0.0);
        variance.sqrt() / mean
    }

    /// Horizon-wide Instability Ratio, identical to
    /// [`isr::instability_ratio`](crate::isr::instability_ratio) over the
    /// full tick series (the jitter sum folds in the same order the batch
    /// function sums it). `expected_ticks` pins `Ne` as in
    /// [`IsrParams`](crate::isr::IsrParams); `None` derives it from the
    /// accumulated period sum.
    #[must_use]
    pub fn instability_ratio(&self, expected_ticks: Option<u64>) -> f64 {
        if self.total_ticks < 2 {
            return 0.0;
        }
        let expected =
            expected_ticks.unwrap_or_else(|| (self.period_sum / self.budget_ms).ceil() as u64);
        if expected == 0 {
            return 0.0;
        }
        (self.jitter_sum / (expected as f64 * 2.0 * self.budget_ms)).clamp(0.0, 1.0)
    }

    /// Closes the trailing partial window (if any) and produces the final
    /// report. The iteration's planned tick count pins the ISR
    /// normalization, exactly like the batch path.
    #[must_use]
    pub fn finish(mut self, expected_ticks: Option<u64>) -> WindowedReport {
        let isr = self.instability_ratio(expected_ticks);
        self.close_window();
        let (mean_ms, cov) = (self.cumulative_mean(), self.cumulative_cov());
        WindowedReport {
            window_ticks: self.window_ticks,
            max_windows: self.max_windows,
            windows: self.windows.into_iter().collect(),
            windows_closed: self.windows_closed,
            total_ticks: self.total_ticks,
            total_overloaded: self.total_overloaded,
            mean_ms,
            cov,
            instability_ratio: isr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isr::{instability_ratio, IsrParams};

    const B: f64 = 50.0;

    fn series(n: usize) -> Vec<f64> {
        // A deterministic, irregular series crossing the budget both ways.
        (0..n)
            .map(|i| 20.0 + 45.0 * ((i * 7 + 3) % 11) as f64 / 10.0 + (i % 3) as f64 * 8.0)
            .collect()
    }

    #[test]
    fn window_summaries_match_batch_stats_exactly() {
        let data = series(1000);
        let mut agg = WindowedAggregator::new(250, 16, B);
        for &v in &data {
            agg.push(v);
        }
        assert_eq!(agg.windows_closed(), 4);
        for (w, chunk) in agg.windows().iter().zip(data.chunks(250)) {
            assert_eq!(w.ticks, 250);
            assert_eq!(w.mean_ms, stats::mean(chunk));
            assert_eq!(w.cov, stats::coefficient_of_variation(chunk));
            assert_eq!(w.p50_ms, stats::percentile(chunk, 50.0));
            assert_eq!(w.p95_ms, stats::percentile(chunk, 95.0));
            assert_eq!(w.overloaded, chunk.iter().filter(|&&v| v > B).count());
        }
    }

    #[test]
    fn streamed_isr_matches_batch_isr_bit_for_bit() {
        let data = series(5_000);
        let mut agg = WindowedAggregator::new(100, 8, B);
        for &v in &data {
            agg.push(v);
        }
        for expected in [None, Some(5_000), Some(6_000)] {
            let batch = instability_ratio(
                &data,
                IsrParams {
                    budget_ms: B,
                    expected_ticks: expected,
                },
            );
            assert_eq!(agg.instability_ratio(expected).to_bits(), batch.to_bits());
        }
    }

    #[test]
    fn hand_computed_two_window_fixture() {
        // Windows of 3: [50, 60, 70] and [80, 40, 60], trailing [90].
        let mut agg = WindowedAggregator::new(3, 8, B);
        for v in [50.0, 60.0, 70.0, 80.0, 40.0, 60.0, 90.0] {
            agg.push(v);
        }
        assert_eq!(agg.windows_closed(), 2);
        let w0 = &agg.windows()[0];
        assert_eq!(w0.mean_ms, 60.0);
        assert_eq!(w0.p50_ms, 60.0);
        assert_eq!(w0.max_ms, 70.0);
        assert_eq!(w0.overloaded, 2); // 60 and 70 exceed the 50 ms budget
        let w1 = &agg.windows()[1];
        assert_eq!(w1.mean_ms, 60.0);
        assert_eq!(w1.start_tick, 3);
        // CoV of [80, 40, 60]: σ = √(800/3), mean 60.
        assert!((w1.cov - (800.0f64 / 3.0).sqrt() / 60.0).abs() < 1e-12);
        // finish() closes the trailing partial window.
        let report = agg.finish(Some(7));
        assert_eq!(report.windows_closed, 3);
        assert_eq!(report.windows[2].ticks, 1);
        assert_eq!(report.windows[2].mean_ms, 90.0);
        assert_eq!(report.total_ticks, 7);
        assert_eq!(report.total_overloaded, 5);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_most_recent_windows() {
        let mut agg = WindowedAggregator::new(10, 4, B);
        for i in 0..200 {
            agg.push(f64::from(i));
        }
        assert_eq!(agg.windows_closed(), 20);
        assert_eq!(agg.windows().len(), 4, "ring must stay bounded");
        let indices: Vec<u64> = agg.windows().iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![16, 17, 18, 19]);
        assert_eq!(agg.total_ticks(), 200);
    }

    #[test]
    fn edge_cases_empty_single_and_window_equals_horizon() {
        // Empty: nothing pushed, nothing reported.
        let empty = WindowedAggregator::new(5, 2, B).finish(None);
        assert_eq!(empty.total_ticks, 0);
        assert_eq!(empty.windows_closed, 0);
        assert_eq!(empty.mean_ms, 0.0);
        assert_eq!(empty.cov, 0.0);
        assert_eq!(empty.instability_ratio, 0.0);

        // Single sample: a lone partial window, zero ISR (no pair).
        let mut single = WindowedAggregator::new(5, 2, B);
        single.push(75.0);
        assert_eq!(single.instability_ratio(None), 0.0);
        let report = single.finish(None);
        assert_eq!(report.windows_closed, 1);
        assert_eq!(report.windows[0].ticks, 1);
        assert_eq!(report.windows[0].mean_ms, 75.0);
        assert_eq!(report.windows[0].cov, 0.0);

        // Window == horizon: exactly one full window, equal to batch stats.
        let data = series(64);
        let mut whole = WindowedAggregator::new(64, 2, B);
        for &v in &data {
            whole.push(v);
        }
        assert_eq!(whole.windows_closed(), 1);
        let w = &whole.windows()[0];
        assert_eq!(w.mean_ms, stats::mean(&data));
        assert_eq!(w.cov, stats::coefficient_of_variation(&data));
        assert_eq!(w.p95_ms, stats::percentile(&data, 95.0));
    }

    #[test]
    #[should_panic(expected = "window length must be positive")]
    fn zero_window_length_panics() {
        let _ = WindowedAggregator::new(0, 1, B);
    }
}
