//! Summary statistics: percentiles, boxplot summaries, IQR.
//!
//! The paper reports its results as means, medians, 5th/95th percentiles,
//! maxima, and box-and-whisker summaries with whiskers at ±1.5 × IQR bounded
//! by the observed minimum and maximum (Figures 7, 10, 12). These helpers
//! compute exactly those summaries.

use serde::{Deserialize, Serialize};

/// Common percentiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Minimum observed value.
    pub min: f64,
    /// 5th percentile.
    pub p5: f64,
    /// 25th percentile (first quartile).
    p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile (third quartile).
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum observed value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Computes the arithmetic mean of a sample; 0 for an empty sample.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Computes the population standard deviation of a sample; 0 for fewer than
/// two values.
#[must_use]
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

/// Computes the coefficient of variation (CoV = population standard
/// deviation / mean) of a sample; 0 when the sample is empty or its mean is
/// zero.
///
/// The paper uses CoV as the scale-free measure of tick-time variability
/// when comparing environments whose mean tick times differ (the quantity
/// the ISR metric is then argued to improve on).
#[must_use]
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    let m = mean(values);
    if m == 0.0 {
        return 0.0;
    }
    std_dev(values) / m
}

/// Computes percentile `p` (0–100) of a sample using linear interpolation
/// between closest ranks. Returns 0 for an empty sample.
///
/// # Panics
///
/// Panics if `p` is outside `0..=100`.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lower = rank.floor() as usize;
    let upper = rank.ceil() as usize;
    let fraction = rank - lower as f64;
    sorted[lower] + (sorted[upper] - sorted[lower]) * fraction
}

impl Percentiles {
    /// Computes the percentile summary of a sample. Returns an all-zero
    /// summary for an empty sample.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Percentiles {
                min: 0.0,
                p5: 0.0,
                p25: 0.0,
                p50: 0.0,
                p75: 0.0,
                p95: 0.0,
                max: 0.0,
                mean: 0.0,
            };
        }
        Percentiles {
            min: values.iter().cloned().fold(f64::INFINITY, f64::min),
            p5: percentile(values, 5.0),
            p25: percentile(values, 25.0),
            p50: percentile(values, 50.0),
            p75: percentile(values, 75.0),
            p95: percentile(values, 95.0),
            max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            mean: mean(values),
        }
    }

    /// The interquartile range (p75 − p25).
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }
}

/// A box-and-whisker summary with whiskers at ±1.5 × IQR bounded by the
/// observed extremes, as drawn in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxplotSummary {
    /// Lower whisker end.
    pub whisker_low: f64,
    /// First quartile (box bottom/left edge).
    pub q1: f64,
    /// Median (line inside the box).
    pub median: f64,
    /// Third quartile (box top/right edge).
    pub q3: f64,
    /// Upper whisker end.
    pub whisker_high: f64,
    /// Arithmetic mean (the black diamond in the paper's plots).
    pub mean: f64,
    /// Maximum observed value (the paper annotates extreme maxima with
    /// arrows, e.g. "2718 ms" in Figure 7).
    pub max: f64,
    /// Minimum observed value.
    pub min: f64,
}

impl BoxplotSummary {
    /// Computes the boxplot summary of a sample. Returns an all-zero summary
    /// for an empty sample.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let p = Percentiles::of(values);
        let iqr = p.iqr();
        let whisker_low = (p.p25 - 1.5 * iqr).max(p.min);
        let whisker_high = (p.p75 + 1.5 * iqr).min(p.max);
        BoxplotSummary {
            whisker_low,
            q1: p.p25,
            median: p.p50,
            q3: p.p75,
            whisker_high,
            mean: p.mean,
            max: p.max,
            min: p.min,
        }
    }

    /// The interquartile range.
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_dev_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0, 6.0]), 4.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn coefficient_of_variation_matches_hand_computed_fixtures() {
        // Fixture: mean 5, population std dev 2 ⇒ CoV = 0.4 exactly.
        let sample = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((coefficient_of_variation(&sample) - 0.4).abs() < 1e-12);
        // A constant trace has no variation.
        assert_eq!(coefficient_of_variation(&[50.0; 20]), 0.0);
        // Scale invariance: CoV(k·x) = CoV(x).
        let scaled: Vec<f64> = sample.iter().map(|v| v * 17.5).collect();
        assert!(
            (coefficient_of_variation(&scaled) - coefficient_of_variation(&sample)).abs() < 1e-12
        );
        // Degenerate inputs.
        assert_eq!(coefficient_of_variation(&[]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn mean_std_dev_and_percentiles_match_the_paper_style_fixture() {
        // A 20-tick trace shaped like a stable server with one outlier
        // (values in ms). Every statistic below is hand-computed.
        let mut trace = vec![50.0; 19];
        trace.push(250.0);
        assert!((mean(&trace) - 60.0).abs() < 1e-12, "mean = (19·50+250)/20");
        // Variance = (19·(50−60)² + (250−60)²)/20 = (1900 + 36100)/20 = 1900.
        assert!((std_dev(&trace) - 1900.0_f64.sqrt()).abs() < 1e-12);
        assert!((coefficient_of_variation(&trace) - 1900.0_f64.sqrt() / 60.0).abs() < 1e-12);
        // Sorted trace: 19×50 then 250. Linear-interpolation ranks over
        // n−1 = 19 intervals: p95 sits at rank 18.05 ⇒ 50 + 0.05·200 = 60.
        assert_eq!(percentile(&trace, 50.0), 50.0);
        assert!((percentile(&trace, 95.0) - 60.0).abs() < 1e-9);
        assert_eq!(percentile(&trace, 100.0), 250.0);
        let p = Percentiles::of(&trace);
        assert_eq!((p.min, p.p50, p.max), (50.0, 50.0, 250.0));
        assert!((p.mean - 60.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_fixture_with_exact_interpolation_points() {
        // Hand-computed interpolation fixture: values 10, 20, 30, 40 (n=4,
        // 3 rank intervals). p(33.3…%) lands exactly on rank 1 ⇒ 20;
        // p50 = rank 1.5 ⇒ 25; p75 = rank 2.25 ⇒ 32.5; p90 = rank 2.7 ⇒ 37.
        let values = [40.0, 10.0, 30.0, 20.0];
        assert!((percentile(&values, 100.0 / 3.0) - 20.0).abs() < 1e-9);
        assert!((percentile(&values, 50.0) - 25.0).abs() < 1e-12);
        assert!((percentile(&values, 75.0) - 32.5).abs() < 1e-12);
        assert!((percentile(&values, 90.0) - 37.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let values = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 100.0), 5.0);
        assert_eq!(percentile(&values, 50.0), 3.0);
        assert_eq!(percentile(&values, 25.0), 2.0);
        assert_eq!(percentile(&values, 10.0), 1.4);
    }

    #[test]
    fn percentile_is_order_independent() {
        let sorted = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let shuffled = vec![4.0, 1.0, 5.0, 3.0, 2.0];
        for p in [5.0, 25.0, 50.0, 75.0, 95.0] {
            assert_eq!(percentile(&sorted, p), percentile(&shuffled, p));
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be in 0..=100")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1.0], 150.0);
    }

    #[test]
    fn empty_sample_gives_zero_summaries() {
        let p = Percentiles::of(&[]);
        assert_eq!(p.mean, 0.0);
        assert_eq!(p.max, 0.0);
        let b = BoxplotSummary::of(&[]);
        assert_eq!(b.median, 0.0);
    }

    #[test]
    fn percentiles_are_monotone() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 37.0) % 500.0).collect();
        let p = Percentiles::of(&values);
        assert!(p.min <= p.p5);
        assert!(p.p5 <= p.p25);
        assert!(p.p25 <= p.p50);
        assert!(p.p50 <= p.p75);
        assert!(p.p75 <= p.p95);
        assert!(p.p95 <= p.max);
    }

    #[test]
    fn boxplot_whiskers_are_bounded_by_observations() {
        let mut values = vec![50.0; 100];
        values.push(5_000.0); // one extreme outlier
        let b = BoxplotSummary::of(&values);
        assert!(b.whisker_high <= b.max);
        assert!(b.whisker_low >= b.min);
        assert_eq!(b.max, 5_000.0);
        // The outlier inflates the mean above the median.
        assert!(b.mean > b.median);
    }

    #[test]
    fn iqr_matches_quartiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::of(&values);
        assert!((p.iqr() - 49.5).abs() < 1.0);
        let b = BoxplotSummary::of(&values);
        assert!((b.iqr() - p.iqr()).abs() < 1e-12);
    }

    #[test]
    fn single_value_sample() {
        let p = Percentiles::of(&[42.0]);
        assert_eq!(p.min, 42.0);
        assert_eq!(p.max, 42.0);
        assert_eq!(p.p50, 42.0);
        assert_eq!(p.mean, 42.0);
    }
}
