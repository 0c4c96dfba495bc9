//! The alert engine: seeded rules evaluated against the rolling history.
//!
//! Rules are *edge-triggered*: a rule fires once when its condition
//! transitions from false to true and re-arms only after the condition
//! clears, so a sustained overload produces one alert, not one per tick.
//! The fired-alert log is bounded ([`AlertEngine::FIRED_LOG_CAP`]) for the
//! same reason the history is windowed: a resident daemon must not grow
//! memory with uptime, even under a flapping rule.

use std::collections::VecDeque;

use crate::history::MetricsHistory;

/// One alert condition over the windowed metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlertRule {
    /// Fires when more than `max_overloaded_fraction` of the windowed
    /// ticks ran over their budget (sustained tick overload — the live
    /// analogue of a high ISR).
    TickOverload {
        /// Fraction of the window above which the rule fires, 0..=1.
        max_overloaded_fraction: f64,
        /// Minimum windowed ticks before the rule is considered (avoids
        /// firing on a half-empty window at startup).
        min_ticks: usize,
    },
    /// Fires when the windowed coefficient of variation of tick busy
    /// times exceeds `baseline_cov * factor` (tick-time variability has
    /// regressed against the expected baseline).
    CovRegression {
        /// Expected steady-state CoV of tick busy times.
        baseline_cov: f64,
        /// Multiple of the baseline above which the rule fires.
        factor: f64,
        /// Minimum windowed ticks before the rule is considered.
        min_ticks: usize,
        /// Minimum windowed mean busy time before the rule is considered.
        /// A near-idle server has a meaninglessly large CoV (any jitter
        /// dwarfs a tiny mean), so variability only counts as a regression
        /// once the server is doing real work.
        min_mean_busy_ms: f64,
    },
}

impl AlertRule {
    /// Stable rule identifier used in alert records and metric labels.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AlertRule::TickOverload { .. } => "tick-overload",
            AlertRule::CovRegression { .. } => "cov-regression",
        }
    }

    /// Evaluates the rule against the history; `Some(message)` when the
    /// condition currently holds.
    #[must_use]
    pub fn evaluate(&self, history: &MetricsHistory) -> Option<String> {
        match *self {
            AlertRule::TickOverload {
                max_overloaded_fraction,
                min_ticks,
            } => {
                if history.len() < min_ticks {
                    return None;
                }
                let ratio = history.windowed_overload_ratio();
                (ratio > max_overloaded_fraction).then(|| {
                    format!(
                        "{:.1}% of the last {} ticks ran over budget (limit {:.1}%)",
                        ratio * 100.0,
                        history.len(),
                        max_overloaded_fraction * 100.0,
                    )
                })
            }
            AlertRule::CovRegression {
                baseline_cov,
                factor,
                min_ticks,
                min_mean_busy_ms,
            } => {
                if history.len() < min_ticks || history.windowed_mean_busy_ms() < min_mean_busy_ms {
                    return None;
                }
                let cov = history.windowed_cov();
                let limit = baseline_cov * factor;
                (cov > limit).then(|| {
                    format!(
                        "windowed tick-time CoV {cov:.3} exceeds {factor:.1}x the \
                         baseline {baseline_cov:.3} (limit {limit:.3})",
                    )
                })
            }
        }
    }
}

/// The default rule set every daemon starts with: sustained overload over
/// half the window, and CoV regressing past twice a conservative baseline
/// once the server carries meaningful load (≥ 10% of the 50 ms budget).
#[must_use]
pub fn seeded_rules() -> Vec<AlertRule> {
    vec![
        AlertRule::TickOverload {
            max_overloaded_fraction: 0.5,
            min_ticks: 20,
        },
        AlertRule::CovRegression {
            baseline_cov: 0.5,
            factor: 2.0,
            min_ticks: 20,
            min_mean_busy_ms: 5.0,
        },
    ]
}

/// One fired alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The [`AlertRule::name`] of the rule that fired.
    pub rule: &'static str,
    /// Human-readable description of the violated condition.
    pub message: String,
    /// Cumulative tick count ([`MetricsHistory::total_ticks`]) at which
    /// the rule fired.
    pub at_tick: u64,
}

/// Evaluates a fixed rule set against the history after every tick,
/// keeping a bounded log of fired alerts.
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    active: Vec<bool>,
    fired: VecDeque<Alert>,
    fired_total: u64,
}

impl AlertEngine {
    /// Retained fired-alert records; older records are dropped first.
    pub const FIRED_LOG_CAP: usize = 256;

    /// Creates an engine over `rules` (typically [`seeded_rules`]).
    #[must_use]
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let active = vec![false; rules.len()];
        AlertEngine {
            rules,
            active,
            fired: VecDeque::new(),
            fired_total: 0,
        }
    }

    /// The configured rules.
    #[must_use]
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Alerts fired since daemon start (cumulative, unlike the bounded
    /// [`AlertEngine::fired`] log).
    #[must_use]
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// The retained fired-alert log, oldest first.
    pub fn fired(&self) -> impl Iterator<Item = &Alert> {
        self.fired.iter()
    }

    /// Re-evaluates every rule against `history`, returning the alerts
    /// that *newly* fired (false→true transitions only).
    pub fn evaluate(&mut self, history: &MetricsHistory) -> Vec<Alert> {
        let mut newly = Vec::new();
        for (rule, active) in self.rules.iter().zip(&mut self.active) {
            match rule.evaluate(history) {
                Some(message) if !*active => {
                    *active = true;
                    let alert = Alert {
                        rule: rule.name(),
                        message,
                        at_tick: history.total_ticks(),
                    };
                    if self.fired.len() == Self::FIRED_LOG_CAP {
                        self.fired.pop_front();
                    }
                    self.fired.push_back(alert.clone());
                    self.fired_total += 1;
                    newly.push(alert);
                }
                Some(_) => {}
                None => *active = false,
            }
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meterstick::TickSample;
    use mlg_server::TickStageBreakdown;

    fn sample(tick: u64, busy_ms: f64) -> TickSample {
        TickSample {
            tick,
            end_ms: tick as f64 * 50.0,
            busy_ms,
            period_ms: busy_ms.max(50.0),
            budget_ms: 50.0,
            stages: TickStageBreakdown::default(),
            entity_count: 0,
            player_count: 0,
        }
    }

    #[test]
    fn overload_alert_fires_once_per_episode() {
        let mut history = MetricsHistory::new(32);
        let mut engine = AlertEngine::new(seeded_rules());

        // Sustained synthetic overload: every tick over budget.
        let mut fired = 0;
        for i in 0..64 {
            history.push(&sample(i, 80.0));
            fired += engine
                .evaluate(&history)
                .iter()
                .filter(|a| a.rule == "tick-overload")
                .count();
        }
        assert_eq!(fired, 1, "edge-triggered: one alert per episode");
        assert!(engine.active.contains(&true));

        // The episode clears, the rule re-arms, a second episode re-fires.
        for i in 64..128 {
            history.push(&sample(i, 5.0));
            engine.evaluate(&history);
        }
        assert!(!engine.active.contains(&true));
        for i in 128..192 {
            history.push(&sample(i, 80.0));
            fired += engine
                .evaluate(&history)
                .iter()
                .filter(|a| a.rule == "tick-overload")
                .count();
        }
        assert_eq!(fired, 2);
        // The busy-time swings between episodes legitimately trip the
        // CoV-regression rule too (twice); the log holds both rules.
        assert_eq!(
            engine.fired().filter(|a| a.rule == "tick-overload").count(),
            2
        );
        assert_eq!(engine.fired_total(), 4);
    }

    #[test]
    fn overload_alert_waits_for_a_meaningful_window() {
        let mut history = MetricsHistory::new(32);
        let mut engine = AlertEngine::new(seeded_rules());
        for i in 0..19 {
            history.push(&sample(i, 80.0));
            assert!(
                engine.evaluate(&history).is_empty(),
                "must not fire below min_ticks"
            );
        }
    }

    #[test]
    fn cov_regression_fires_on_erratic_ticks_only() {
        let mut history = MetricsHistory::new(64);
        let mut engine = AlertEngine::new(seeded_rules());
        // Steady ticks: CoV ~0, no alert.
        for i in 0..64 {
            history.push(&sample(i, 20.0));
            assert!(engine
                .evaluate(&history)
                .iter()
                .all(|a| a.rule != "cov-regression"));
        }
        // Erratic ticks: alternate near-zero and heavy busy times. CoV of
        // {1, 41} alternating is ~0.95 < 1.0 — still under the limit — so
        // widen the swing to push CoV past baseline*factor = 1.0.
        let mut fired = 0;
        for i in 64..128 {
            let busy = if i % 8 == 0 { 200.0 } else { 2.0 };
            history.push(&sample(i, busy));
            fired += engine
                .evaluate(&history)
                .iter()
                .filter(|a| a.rule == "cov-regression")
                .count();
        }
        assert_eq!(fired, 1);
    }

    #[test]
    fn cov_regression_ignores_idle_jitter() {
        // A near-idle server: microsecond-scale busy times with relative
        // jitter far past the CoV limit. The min_mean_busy_ms floor must
        // keep the rule silent — idle variability is not a regression.
        let mut history = MetricsHistory::new(64);
        let mut engine = AlertEngine::new(seeded_rules());
        for i in 0..128 {
            let busy = if i % 4 == 0 { 0.9 } else { 0.01 };
            history.push(&sample(i, busy));
            assert!(
                engine.evaluate(&history).is_empty(),
                "idle jitter must not alert (tick {i})"
            );
        }
        assert!(history.windowed_cov() > 1.0, "jitter is past the limit");
    }

    #[test]
    fn fired_log_stays_bounded_under_flapping() {
        let mut history = MetricsHistory::new(20);
        let mut engine = AlertEngine::new(vec![AlertRule::TickOverload {
            max_overloaded_fraction: 0.5,
            min_ticks: 20,
        }]);
        // Flip between all-over and all-under budget to flap the rule.
        let mut tick = 0;
        for _ in 0..2 * AlertEngine::FIRED_LOG_CAP {
            for _ in 0..20 {
                history.push(&sample(tick, 80.0));
                engine.evaluate(&history);
                tick += 1;
            }
            for _ in 0..20 {
                history.push(&sample(tick, 5.0));
                engine.evaluate(&history);
                tick += 1;
            }
        }
        assert!(engine.fired_total() >= AlertEngine::FIRED_LOG_CAP as u64);
        assert_eq!(engine.fired().count(), AlertEngine::FIRED_LOG_CAP);
    }
}
