//! Temporal (non-stationary) cloud variability: the tenancy point process.
//!
//! The paper measures cloud variability as if it were stationary per
//! environment, but follow-up work (Henning et al., "When Should I Run My
//! Application Benchmark?"; Baresi et al.) shows diurnal and weekly cloud
//! variability is first-order: *when* a benchmark starts changes the answer
//! as much as *where* it runs. This module models that dimension:
//!
//! * [`StartTime`] — a point in the simulated week (minutes since Monday
//!   00:00) at which an iteration begins;
//! * [`TemporalProfile`] — a per-environment diurnal + day-of-week intensity
//!   curve for noisy-neighbour arrivals (dedicated hardware stays
//!   [`TemporalProfile::flat`]);
//! * [`TenancyProcess`] — a seeded, time-inhomogeneous arrival/departure
//!   process over co-resident neighbours, each resident contributing
//!   multiplicatively to steal probability and placement pressure.
//!
//! # Determinism
//!
//! Every draw the process makes is a pure function of
//! `(seed, start_time, tick)` via a counter-based splitmix64 hash — there is
//! no stateful RNG stream. Two consequences the test suite pins:
//!
//! * the process replays bit-identically across pause/resume splits and
//!   tick-thread counts (nothing here depends on execution order);
//! * a flat profile consumes **zero** randomness and contributes exactly-1.0
//!   factors, so layering it over [`InterferenceState`] leaves the existing
//!   stationary behaviour byte-identical.
//!
//! [`InterferenceState`]: crate::interference::InterferenceState

use serde::{Deserialize, Serialize};
use std::fmt;

/// Simulated game ticks per second (the 20 Hz Minecraft-like tick rate).
const TICKS_PER_SECOND: u32 = 20;
/// Simulated game ticks per minute of simulated wall-clock.
const TICKS_PER_MINUTE: u32 = 60 * TICKS_PER_SECOND;
/// Simulated game ticks per hour of simulated wall-clock.
const TICKS_PER_HOUR: u32 = 60 * TICKS_PER_MINUTE;
/// Minutes in a simulated day.
const MINUTES_PER_DAY: u32 = 24 * 60;
/// Minutes in a simulated week (the period of the intensity curve).
pub const MINUTES_PER_WEEK: u32 = 7 * MINUTES_PER_DAY;

const DAY_NAMES: [&str; 7] = ["mon", "tue", "wed", "thu", "fri", "sat", "sun"];

/// A point in the simulated week at which an iteration starts, stored as
/// minutes since Monday 00:00 (wrapping modulo one week).
///
/// The default (`mon-00:00`) is what every pre-existing campaign implicitly
/// ran at; like `tick_threads`, a start time is excluded from seed
/// derivation so sweeping it compares the same world and interference seeds
/// at different points of the week.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct StartTime {
    minute_of_week: u32,
}

impl StartTime {
    /// Monday 00:00 — the implicit start of every stationary campaign.
    pub const MONDAY_MIDNIGHT: StartTime = StartTime { minute_of_week: 0 };

    /// Builds a start time from raw minutes since Monday 00:00 (wraps).
    #[must_use]
    pub fn from_minutes(minutes: u32) -> Self {
        StartTime {
            minute_of_week: minutes % MINUTES_PER_WEEK,
        }
    }

    /// Builds a start time from a day index (0 = Monday … 6 = Sunday), hour
    /// and minute.
    ///
    /// # Panics
    ///
    /// Panics if `day > 6`, `hour > 23` or `minute > 59`.
    #[must_use]
    pub fn from_day_hour_minute(day: u32, hour: u32, minute: u32) -> Self {
        assert!(day < 7, "day index out of range: {day}");
        assert!(hour < 24, "hour out of range: {hour}");
        assert!(minute < 60, "minute out of range: {minute}");
        StartTime {
            minute_of_week: day * MINUTES_PER_DAY + hour * 60 + minute,
        }
    }

    /// Parses the stable label format, e.g. `"fri-20:30"`.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        let (day_name, clock) = label.split_once('-')?;
        let day = DAY_NAMES.iter().position(|&d| d == day_name)? as u32;
        let (hour, minute) = clock.split_once(':')?;
        let hour: u32 = hour.parse().ok()?;
        let minute: u32 = minute.parse().ok()?;
        if hour > 23 || minute > 59 {
            return None;
        }
        Some(StartTime::from_day_hour_minute(day, hour, minute))
    }

    /// Minutes since Monday 00:00.
    #[must_use]
    pub fn minute_of_week(&self) -> u32 {
        self.minute_of_week
    }

    /// The minute-of-week reached after `tick` simulated ticks.
    #[must_use]
    fn minute_at_tick(&self, tick: u64) -> u32 {
        let advanced = u64::from(self.minute_of_week) + tick / u64::from(TICKS_PER_MINUTE);
        (advanced % u64::from(MINUTES_PER_WEEK)) as u32
    }
}

impl fmt::Display for StartTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.minute_of_week / MINUTES_PER_DAY;
        let hour = (self.minute_of_week % MINUTES_PER_DAY) / 60;
        let minute = self.minute_of_week % 60;
        write!(f, "{}-{:02}:{:02}", DAY_NAMES[day as usize], hour, minute)
    }
}

/// Per-environment diurnal + day-of-week curve for noisy-neighbour tenancy.
///
/// Intensity (arrivals per simulated hour) is `arrivals_per_hour`, scaled by
/// `peak_multiplier` during `peak_hours` (a `[start, end)` hour-of-day range)
/// and by `weekend_factor` on Saturday/Sunday. Each resident neighbour
/// multiplies the steal-episode probability by `steal_factor_per_neighbor`
/// and the per-tick compute pressure by `pressure_per_neighbor`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemporalProfile {
    /// Off-peak neighbour arrival intensity, in arrivals per simulated hour.
    // detlint: allow(pub-without-caller) -- tests/temporal_properties.rs builds its own profile
    pub arrivals_per_hour: f64,
    /// `[start, end)` hour-of-day range during which arrivals are scaled by
    /// `peak_multiplier`. An empty range (`start >= end`) disables the peak.
    // detlint: allow(pub-without-caller) -- tests/temporal_properties.rs builds its own profile
    pub peak_hours: (u32, u32),
    /// Arrival-intensity multiplier during peak hours.
    // detlint: allow(pub-without-caller) -- tests/temporal_properties.rs builds its own profile
    pub peak_multiplier: f64,
    /// Arrival-intensity multiplier on Saturday and Sunday.
    // detlint: allow(pub-without-caller) -- tests/temporal_properties.rs builds its own profile
    pub weekend_factor: f64,
    /// Residency span of one neighbour, in ticks (inclusive range).
    // detlint: allow(pub-without-caller) -- tests/temporal_properties.rs builds its own profile
    pub residency_ticks: (u32, u32),
    /// Multiplicative boost to the steal-episode probability per resident.
    // detlint: allow(pub-without-caller) -- tests/temporal_properties.rs builds its own profile
    pub steal_factor_per_neighbor: f64,
    /// Multiplicative per-tick compute pressure per resident.
    // detlint: allow(pub-without-caller) -- tests/temporal_properties.rs builds its own profile
    pub pressure_per_neighbor: f64,
    /// Host capacity: arrivals beyond this resident count are rejected.
    // detlint: allow(pub-without-caller) -- tests/temporal_properties.rs builds its own profile
    pub max_neighbors: u32,
}

impl TemporalProfile {
    /// The stationary profile: zero arrivals, neutral factors. Dedicated
    /// hardware uses this, and it is the default for every environment so
    /// pre-existing campaigns reproduce byte-identically.
    #[must_use]
    pub fn flat() -> Self {
        TemporalProfile {
            arrivals_per_hour: 0.0,
            peak_hours: (0, 0),
            peak_multiplier: 1.0,
            weekend_factor: 1.0,
            residency_ticks: (1, 1),
            steal_factor_per_neighbor: 1.0,
            pressure_per_neighbor: 1.0,
            max_neighbors: 0,
        }
    }

    /// Consumer-gaming-shaped AWS curve: quiet nights, strong evening peak,
    /// busier weekends. Calibrated so the MF5 node-size recommendation flips
    /// between off-peak and peak starts (see `tests/end_to_end.rs`).
    #[must_use]
    pub fn aws() -> Self {
        TemporalProfile {
            arrivals_per_hour: 0.25,
            peak_hours: (17, 23),
            peak_multiplier: 24.0,
            weekend_factor: 1.5,
            residency_ticks: (18_000, 90_000),
            steal_factor_per_neighbor: 1.6,
            pressure_per_neighbor: 1.10,
            max_neighbors: 6,
        }
    }

    /// Returns `true` for profiles that can never produce a neighbour; flat
    /// profiles short-circuit the tenancy process entirely.
    #[must_use]
    fn is_flat(&self) -> bool {
        self.arrivals_per_hour <= 0.0 || self.max_neighbors == 0
    }

    /// Arrival intensity (arrivals per simulated hour) at a minute of the
    /// week.
    #[must_use]
    fn intensity_at(&self, minute_of_week: u32) -> f64 {
        let m = minute_of_week % MINUTES_PER_WEEK;
        let day = m / MINUTES_PER_DAY; // 0 = Monday
        let hour = (m % MINUTES_PER_DAY) / 60;
        let mut intensity = self.arrivals_per_hour;
        let (peak_start, peak_end) = self.peak_hours;
        if peak_start < peak_end && hour >= peak_start && hour < peak_end {
            intensity *= self.peak_multiplier;
        }
        if day >= 5 {
            intensity *= self.weekend_factor;
        }
        intensity
    }

    /// Mean residency span in ticks.
    #[must_use]
    fn mean_residency_ticks(&self) -> f64 {
        let (lo, hi) = self.residency_ticks;
        f64::from(lo.min(hi)) / 2.0 + f64::from(lo.max(hi)) / 2.0
    }

    /// Expected stationary neighbour count at a minute of the week (Little's
    /// law: arrival rate × mean residency), capped at host capacity.
    #[must_use]
    fn expected_occupancy_at(&self, minute_of_week: u32) -> f64 {
        if self.is_flat() {
            return 0.0;
        }
        let occupancy = self.intensity_at(minute_of_week) * self.mean_residency_ticks()
            / f64::from(TICKS_PER_HOUR);
        occupancy.min(f64::from(self.max_neighbors))
    }
}

/// Multiplicative contribution of the current resident set to one tick.
///
/// With zero residents both factors are exactly `1.0`, so a flat profile is
/// a bit-identical no-op over the stationary interference model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenancyEffect {
    /// Number of co-resident neighbours during this tick.
    // detlint: allow(pub-without-caller) -- tests/temporal_properties.rs asserts a flat profile has none
    pub residents: u32,
    /// Factor applied to the steal-episode probability.
    pub steal_probability_factor: f64,
    /// Factor applied to the tick's compute time (placement pressure).
    pub pressure: f64,
}

impl TenancyEffect {
    /// The no-neighbour effect: both factors exactly `1.0`.
    const NEUTRAL: TenancyEffect = TenancyEffect {
        residents: 0,
        steal_probability_factor: 1.0,
        pressure: 1.0,
    };
}

// Distinct hash streams so arrival coin flips, residency draws and the
// warm-start population never reuse a counter value.
const ARRIVAL_STREAM: u64 = 0x41;
const DURATION_STREAM: u64 = 0xD1;
const WARM_START_STREAM: u64 = 0x57;

/// The seeded time-inhomogeneous tenancy point process.
///
/// Constructed warm: the initial resident population is drawn from the
/// stationary occupancy at `start_time`, so short iterations see the
/// intensity level of their start time instead of an empty cold host.
#[derive(Debug, Clone)]
pub struct TenancyProcess {
    profile: TemporalProfile,
    seed: u64,
    start: StartTime,
    tick: u64,
    /// Departure tick of each resident neighbour.
    residents: Vec<u64>,
}

impl TenancyProcess {
    /// Creates the process for one iteration, warm-started at `start`.
    #[must_use]
    pub fn new(profile: TemporalProfile, seed: u64, start: StartTime) -> Self {
        let mut residents = Vec::new();
        if !profile.is_flat() {
            let expected = profile.expected_occupancy_at(start.minute_of_week());
            let h = mix(seed, u64::from(start.minute_of_week()), WARM_START_STREAM);
            let whole = expected.floor() as u32;
            let count = (whole + u32::from(unit(h) < expected.fract())).min(profile.max_neighbors);
            for i in 0..count {
                let hi = mix(
                    seed ^ WARM_START_STREAM,
                    u64::from(start.minute_of_week()),
                    u64::from(i),
                );
                // Remaining (not total) residency: residents arrived at
                // various points before the start.
                let remaining = draw_residency(&profile, hi).max(1);
                residents.push(u64::from(remaining));
            }
        }
        TenancyProcess {
            profile,
            seed,
            start,
            tick: 0,
            residents,
        }
    }

    /// The next tick index [`step`](Self::step) will evaluate.
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Number of currently resident neighbours.
    #[cfg(test)]
    pub(crate) fn resident_count(&self) -> u32 {
        self.residents.len() as u32
    }

    /// Advances the process by one tick and returns the resident set's
    /// multiplicative effect on that tick.
    pub fn step(&mut self) -> TenancyEffect {
        let tick = self.tick;
        self.tick += 1;
        if self.profile.is_flat() {
            return TenancyEffect::NEUTRAL;
        }
        self.residents.retain(|&departure| departure > tick);
        if (self.residents.len() as u32) < self.profile.max_neighbors {
            let h = mix(
                self.seed ^ ARRIVAL_STREAM,
                u64::from(self.start.minute_of_week()),
                tick,
            );
            let minute = self.start.minute_at_tick(tick);
            let p = (self.profile.intensity_at(minute) / f64::from(TICKS_PER_HOUR)).clamp(0.0, 1.0);
            if unit(h) < p {
                let duration = draw_residency(&self.profile, splitmix64(h ^ DURATION_STREAM));
                self.residents.push(tick + 1 + u64::from(duration.max(1)));
            }
        }
        let n = self.residents.len() as i32;
        if n == 0 {
            return TenancyEffect::NEUTRAL;
        }
        TenancyEffect {
            residents: n as u32,
            steal_probability_factor: self.profile.steal_factor_per_neighbor.powi(n),
            pressure: self.profile.pressure_per_neighbor.powi(n),
        }
    }
}

fn draw_residency(profile: &TemporalProfile, h: u64) -> u32 {
    let (lo, hi) = profile.residency_ticks;
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    lo + (h % u64::from(hi - lo + 1)) as u32
}

/// The splitmix64 finalizer: a high-quality 64-bit mixing function.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counter-based hash of `(seed, a, b)` — the process's only randomness.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ a) ^ b)
}

/// Maps a hash to a uniform value in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_time_label_round_trips() {
        for label in ["mon-00:00", "fri-20:30", "sat-04:05", "sun-23:59"] {
            let parsed = StartTime::parse(label).unwrap();
            assert_eq!(parsed.to_string(), label);
        }
        assert_eq!(StartTime::default(), StartTime::MONDAY_MIDNIGHT);
        assert_eq!(StartTime::default().to_string(), "mon-00:00");
        assert!(StartTime::parse("fri-24:00").is_none());
        assert!(StartTime::parse("someday-10:00").is_none());
        assert!(StartTime::parse("garbage").is_none());
    }

    #[test]
    fn start_time_wraps_modulo_one_week() {
        assert_eq!(
            StartTime::from_minutes(MINUTES_PER_WEEK + 90),
            StartTime::from_day_hour_minute(0, 1, 30)
        );
        // A full simulated week of ticks lands back on the same minute.
        let start = StartTime::parse("wed-12:00").unwrap();
        let week_ticks = u64::from(MINUTES_PER_WEEK) * u64::from(TICKS_PER_MINUTE);
        assert_eq!(start.minute_at_tick(week_ticks), start.minute_of_week());
    }

    #[test]
    fn intensity_curve_reflects_peak_and_weekend() {
        let profile = TemporalProfile::aws();
        let off_peak =
            profile.intensity_at(StartTime::parse("mon-04:00").unwrap().minute_of_week());
        let peak = profile.intensity_at(StartTime::parse("fri-20:30").unwrap().minute_of_week());
        let weekend_peak =
            profile.intensity_at(StartTime::parse("sat-20:30").unwrap().minute_of_week());
        assert!(peak > off_peak * 10.0, "peak {peak} vs off-peak {off_peak}");
        assert!(weekend_peak > peak, "weekend factor must stack on the peak");
    }

    #[test]
    fn flat_profile_never_produces_residents() {
        let mut process = TenancyProcess::new(TemporalProfile::flat(), 42, StartTime::default());
        for _ in 0..10_000 {
            assert_eq!(process.step(), TenancyEffect::NEUTRAL);
        }
        assert_eq!(process.resident_count(), 0);
    }

    #[test]
    fn process_is_deterministic_and_resumable() {
        let profile = TemporalProfile::aws();
        let start = StartTime::parse("fri-20:30").unwrap();
        let mut a = TenancyProcess::new(profile.clone(), 7, start);
        let mut b = TenancyProcess::new(profile, 7, start);
        let full: Vec<TenancyEffect> = (0..5_000).map(|_| a.step()).collect();
        // Pause b at an arbitrary tick, clone it (resume from snapshot) and
        // continue: the tail must be bit-identical to the uninterrupted run.
        let head: Vec<TenancyEffect> = (0..1_234).map(|_| b.step()).collect();
        let mut resumed = b.clone();
        let tail: Vec<TenancyEffect> = (1_234..5_000).map(|_| resumed.step()).collect();
        assert_eq!(&full[..1_234], head.as_slice());
        assert_eq!(&full[1_234..], tail.as_slice());
    }

    #[test]
    fn peak_start_sees_more_neighbors_than_off_peak() {
        let profile = TemporalProfile::aws();
        let sum_residents = |start: &str, seed: u64| -> u64 {
            let mut p =
                TenancyProcess::new(profile.clone(), seed, StartTime::parse(start).unwrap());
            (0..10_000).map(|_| u64::from(p.step().residents)).sum()
        };
        let mut peak_total = 0;
        let mut off_total = 0;
        for seed in 0..20 {
            peak_total += sum_residents("fri-20:30", seed);
            off_total += sum_residents("mon-04:00", seed);
        }
        assert!(
            peak_total > off_total * 3,
            "peak {peak_total} vs off-peak {off_total}"
        );
    }

    #[test]
    fn expected_occupancy_follows_littles_law() {
        let profile = TemporalProfile::aws();
        let minute = StartTime::parse("fri-20:30").unwrap().minute_of_week();
        let expected = profile.intensity_at(minute) * profile.mean_residency_ticks()
            / f64::from(TICKS_PER_HOUR);
        assert_eq!(
            profile.expected_occupancy_at(minute),
            expected.min(f64::from(profile.max_neighbors))
        );
        assert_eq!(TemporalProfile::flat().expected_occupancy_at(minute), 0.0);
    }
}
