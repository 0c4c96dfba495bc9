//! Game response time and playability thresholds.
//!
//! "Response time is how system latency becomes visible to the user. Lower
//! values are better, and we use existing latency thresholds for the game
//! becoming noticeable and unplayable at 60 ms and 116 ms respectively."
//! (Section 3.5.1; the figures draw the unplayable line at 118 ms.)

use serde::{Deserialize, Serialize};

use crate::stats::{BoxplotSummary, Percentiles};

/// Latency at which added delay becomes noticeable to players, in ms.
pub const NOTICEABLE_DELAY_MS: f64 = 60.0;

/// Latency at which the game becomes unplayable, in ms.
pub const UNPLAYABLE_MS: f64 = 118.0;

/// Summary of the response-time measurements of one experiment, reporting the
/// quantities Figure 7 and MF1 use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResponseTimeSummary {
    /// Number of samples.
    pub samples: usize,
    /// Percentile summary of the round-trip times.
    pub percentiles: Percentiles,
    /// Boxplot summary (5th/95th whiskers are taken from percentiles).
    pub boxplot: BoxplotSummary,
    /// Fraction of samples above the noticeable-delay threshold (0–1).
    pub noticeable_fraction: f64,
    /// Fraction of samples above the unplayable threshold (0–1).
    pub unplayable_fraction: f64,
    /// Ratio of the maximum to the arithmetic mean (MF1 reports up to 20.7×).
    pub max_over_mean: f64,
    /// Ratio of the maximum to the unplayable threshold (MF1 reports 7.4×).
    pub max_over_unplayable: f64,
}

impl ResponseTimeSummary {
    /// Computes the summary of a set of round-trip times (milliseconds).
    /// Returns an all-zero summary when the sample set is empty.
    #[must_use]
    pub fn of(round_trips_ms: &[f64]) -> Self {
        let percentiles = Percentiles::of(round_trips_ms);
        let boxplot = BoxplotSummary::of(round_trips_ms);
        let n = round_trips_ms.len();
        let frac = |threshold: f64| {
            if n == 0 {
                0.0
            } else {
                round_trips_ms.iter().filter(|&&v| v > threshold).count() as f64 / n as f64
            }
        };
        ResponseTimeSummary {
            samples: n,
            percentiles,
            boxplot,
            noticeable_fraction: frac(NOTICEABLE_DELAY_MS),
            unplayable_fraction: frac(UNPLAYABLE_MS),
            max_over_mean: if percentiles.mean > 0.0 {
                percentiles.max / percentiles.mean
            } else {
                0.0
            },
            max_over_unplayable: percentiles.max / UNPLAYABLE_MS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_thresholds() {
        // A sample exactly at a threshold still counts on the better side.
        let s = ResponseTimeSummary::of(&[30.0, 60.0, 61.0, 118.0, 119.0]);
        assert!((s.noticeable_fraction - 0.6).abs() < 1e-12);
        assert!((s.unplayable_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_summary_is_zero() {
        let s = ResponseTimeSummary::of(&[]);
        assert_eq!(s.samples, 0);
        assert_eq!(s.max_over_mean, 0.0);
        assert_eq!(s.noticeable_fraction, 0.0);
    }

    #[test]
    fn fractions_count_threshold_crossings() {
        let samples = vec![30.0, 40.0, 70.0, 80.0, 130.0];
        let s = ResponseTimeSummary::of(&samples);
        assert!((s.noticeable_fraction - 0.6).abs() < 1e-12);
        assert!((s.unplayable_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn mf1_style_ratios() {
        // A mostly-good trace with a huge connection spike, like Figure 7's
        // Control workload: mean stays low, max is enormous.
        let mut samples = vec![25.0; 99];
        samples.push(600.0);
        let s = ResponseTimeSummary::of(&samples);
        assert!(s.max_over_mean > 15.0, "max/mean = {}", s.max_over_mean);
        assert!(s.max_over_unplayable > 5.0);
        assert!(s.percentiles.p50 <= NOTICEABLE_DELAY_MS);
    }

    #[test]
    fn percentiles_and_boxplot_are_consistent() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = ResponseTimeSummary::of(&samples);
        assert_eq!(s.percentiles.max, 100.0);
        assert_eq!(s.boxplot.max, 100.0);
        assert!((s.percentiles.p50 - s.boxplot.median).abs() < 1e-12);
    }
}
