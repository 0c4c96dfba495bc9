//! Interference models: the sources of cloud performance variability.
//!
//! The paper (Section 5.4) attributes cloud performance variability to
//! "hardware manufacturing differences, shared tenancy of hardware and
//! networks, specific software configurations, and resource allocation and
//! scheduling systems", citing prior work. This module models those sources
//! as composable stochastic processes:
//!
//! * **placement heterogeneity** — a per-iteration slowdown factor sampled
//!   when a VM is (re)placed on a physical host, driving the large
//!   inter-iteration IQR the paper observes on clouds (MF3);
//! * **CPU-steal bursts** — a two-state Markov process producing episodes of
//!   degraded throughput (noisy neighbours, hypervisor scheduling);
//! * **scheduler jitter** — small per-tick noise present everywhere, tiny on
//!   dedicated hardware;
//! * **burstable-credit throttling** — AWS T3 instances fall back to their
//!   baseline CPU fraction once credits run out, which is what makes the
//!   recommended `t3.large` node inadequate under environment workloads (MF5).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::temporal::{StartTime, TemporalProfile, TenancyProcess};

/// Static description of an environment's interference behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterferenceProfile {
    /// Range of the per-iteration placement slowdown factor (1.0 = no
    /// slowdown). Sampled once per iteration.
    pub placement_factor_range: (f64, f64),
    /// Probability per tick of entering a CPU-steal episode.
    pub steal_episode_probability: f64,
    /// Range of the slowdown multiplier during a steal episode.
    pub steal_multiplier_range: (f64, f64),
    /// Range of steal-episode lengths, in ticks.
    pub steal_duration_ticks: (u32, u32),
    /// Maximum per-tick scheduler jitter, as a fraction of tick work
    /// (0.02 = up to 2% extra).
    pub scheduler_jitter: f64,
}

impl InterferenceProfile {
    /// Interference profile of a dedicated, self-hosted node (DAS-5):
    /// essentially no interference beyond sub-percent OS jitter.
    #[must_use]
    pub fn dedicated() -> Self {
        InterferenceProfile {
            placement_factor_range: (1.0, 1.02),
            steal_episode_probability: 0.0005,
            steal_multiplier_range: (1.05, 1.15),
            steal_duration_ticks: (1, 2),
            scheduler_jitter: 0.01,
        }
    }

    /// Interference profile of AWS T-family instances: moderate steal
    /// episodes, noticeable placement heterogeneity.
    #[must_use]
    pub fn aws() -> Self {
        InterferenceProfile {
            placement_factor_range: (1.0, 1.35),
            steal_episode_probability: 0.012,
            steal_multiplier_range: (1.3, 3.5),
            steal_duration_ticks: (2, 30),
            scheduler_jitter: 0.06,
        }
    }

    /// Interference profile of Azure Dv3 instances: slightly fewer but longer
    /// episodes than AWS, larger placement spread — the paper finds neither
    /// cloud dominates the other for every game.
    #[must_use]
    pub fn azure() -> Self {
        InterferenceProfile {
            placement_factor_range: (1.0, 1.45),
            steal_episode_probability: 0.008,
            steal_multiplier_range: (1.4, 4.0),
            steal_duration_ticks: (4, 40),
            scheduler_jitter: 0.05,
        }
    }
}

/// Per-iteration interference state: the sampled placement factor plus the
/// evolving steal-episode process, with the seeded tenancy point process of
/// [`crate::temporal`] layered over both.
#[derive(Debug, Clone)]
pub struct InterferenceState {
    profile: InterferenceProfile,
    rng: StdRng,
    placement_factor: f64,
    steal_ticks_remaining: u32,
    steal_multiplier: f64,
    tenancy: TenancyProcess,
}

impl InterferenceState {
    /// Samples a fresh interference state for one benchmark iteration, with
    /// stationary (flat) tenancy.
    #[must_use]
    pub fn new(profile: InterferenceProfile, seed: u64) -> Self {
        InterferenceState::with_temporal(
            profile,
            TemporalProfile::flat(),
            StartTime::default(),
            seed,
        )
    }

    /// [`InterferenceState::new`] with a non-stationary tenancy process
    /// starting at `start`. The tenancy layer draws from its own
    /// counter-based hash stream — never from this state's `StdRng` — so a
    /// flat `temporal` profile reproduces [`InterferenceState::new`]
    /// bit-identically.
    #[must_use]
    pub fn with_temporal(
        profile: InterferenceProfile,
        temporal: TemporalProfile,
        start: StartTime,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lo, hi) = profile.placement_factor_range;
        let placement_factor = if hi > lo { rng.gen_range(lo..hi) } else { lo };
        InterferenceState {
            profile,
            rng,
            placement_factor,
            steal_ticks_remaining: 0,
            steal_multiplier: 1.0,
            tenancy: TenancyProcess::new(temporal, seed, start),
        }
    }

    /// Advances the interference process by one tick and returns the total
    /// slowdown multiplier to apply to that tick's compute (≥ 1.0).
    pub fn sample_tick(&mut self) -> f64 {
        // Tenancy first: it draws only from its own counter-based hash
        // stream, so the `StdRng` draws below see the exact same stream
        // regardless of the temporal profile. With zero residents both
        // factors are exactly 1.0 and the multiplications below are
        // bit-exact no-ops.
        let tenancy = self.tenancy.step();
        // Steal episode process.
        if self.steal_ticks_remaining > 0 {
            self.steal_ticks_remaining -= 1;
        } else if self.rng.gen_bool(
            (self.profile.steal_episode_probability * tenancy.steal_probability_factor)
                .clamp(0.0, 1.0),
        ) {
            let (dlo, dhi) = self.profile.steal_duration_ticks;
            self.steal_ticks_remaining = self.rng.gen_range(dlo..=dhi.max(dlo));
            let (mlo, mhi) = self.profile.steal_multiplier_range;
            self.steal_multiplier = if mhi > mlo {
                self.rng.gen_range(mlo..mhi)
            } else {
                mlo
            };
        }
        let steal = if self.steal_ticks_remaining > 0 {
            self.steal_multiplier
        } else {
            1.0
        };
        let jitter = 1.0
            + self
                .rng
                .gen_range(0.0..self.profile.scheduler_jitter.max(1e-9));
        self.placement_factor * steal * jitter * tenancy.pressure
    }
}

/// Burstable CPU-credit accounting for AWS T-family nodes.
///
/// Credits accrue at the baseline rate and are spent whenever actual CPU use
/// exceeds the baseline; once exhausted, the instance is throttled to its
/// baseline fraction. Credit units are vCPU-seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstCredits {
    /// Whether the node is burstable at all (non-T3 nodes are not throttled).
    enabled: bool,
    /// Baseline CPU fraction per vCPU (e.g. 0.3 for t3.large).
    baseline_fraction: f64,
    /// Number of vCPUs on the node.
    vcpus: u32,
    /// Current credit balance in vCPU-seconds.
    balance: f64,
    /// Maximum credit balance.
    max_balance: f64,
}

impl BurstCredits {
    /// Creates the credit state for a node, starting with a partial balance —
    /// the paper's experiments run long enough that launch credits do not
    /// mask throttling.
    #[must_use]
    pub fn new(enabled: bool, baseline_fraction: f64, vcpus: u32) -> Self {
        // The benchmark hammers the same instance iteration after iteration,
        // so the credit balance hovers near empty: the cap models only the
        // short-term burst headroom that survives between iterations, scaled
        // with the vCPU count like the real T3 accrual rate.
        let max_balance = f64::from(vcpus) * 1.8;
        BurstCredits {
            enabled,
            baseline_fraction,
            vcpus,
            balance: 1.0,
            max_balance,
        }
    }

    /// Accounts for one tick: `busy_core_seconds` of CPU were consumed over
    /// `wall_seconds` of wall-clock time. Returns the throttle multiplier to
    /// apply to the *next* tick (1.0 = full speed, >1.0 = throttled).
    pub fn account(&mut self, busy_core_seconds: f64, wall_seconds: f64) -> f64 {
        if !self.enabled {
            return 1.0;
        }
        let earned = self.baseline_fraction * f64::from(self.vcpus) * wall_seconds;
        let spent = busy_core_seconds;
        self.balance = (self.balance + earned - spent).clamp(0.0, self.max_balance);
        if self.balance <= 0.0 {
            // Throttled to baseline.
            (1.0 / self.baseline_fraction).max(1.0)
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_profile_is_nearly_noise_free() {
        let mut state = InterferenceState::new(InterferenceProfile::dedicated(), 1);
        let samples: Vec<f64> = (0..2_000).map(|_| state.sample_tick()).collect();
        let max = samples.iter().cloned().fold(0.0, f64::max);
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            mean < 1.05,
            "dedicated mean multiplier should be ~1, got {mean}"
        );
        assert!(max < 1.3, "dedicated spikes should be small, got {max}");
    }

    #[test]
    fn cloud_profiles_produce_episodes() {
        let mut state = InterferenceState::new(InterferenceProfile::aws(), 3);
        let samples: Vec<f64> = (0..5_000).map(|_| state.sample_tick()).collect();
        let above = samples.iter().filter(|&&m| m > 1.4).count();
        assert!(
            above > 10,
            "AWS profile should show steal episodes, got {above}"
        );
    }

    #[test]
    fn cloud_minimum_exceeds_dedicated_maximum_on_average() {
        // MF3: the minimum cloud ISR exceeds the maximum DAS-5 ISR. At the
        // interference level this shows up as cloud placement factors and
        // episode rates that dominate dedicated ones across iterations.
        let mut das_max: f64 = 0.0;
        let mut cloud_min = f64::INFINITY;
        for seed in 0..20 {
            let das = InterferenceState::new(InterferenceProfile::dedicated(), seed);
            das_max = das_max.max(das.placement_factor);
            let cloud = InterferenceState::new(InterferenceProfile::aws(), 1_000 + seed);
            cloud_min = cloud_min.min(cloud.placement_factor);
        }
        // Placement alone may overlap; what must hold is that clouds have a
        // far wider spread.
        assert!(das_max < 1.03);
        assert!(cloud_min >= 1.0);
    }

    #[test]
    fn interference_is_deterministic_per_seed() {
        let mut a = InterferenceState::new(InterferenceProfile::azure(), 77);
        let mut b = InterferenceState::new(InterferenceProfile::azure(), 77);
        for _ in 0..100 {
            assert_eq!(a.sample_tick(), b.sample_tick());
        }
    }

    #[test]
    fn flat_temporal_profile_is_bit_identical_to_stationary() {
        use crate::temporal::{StartTime, TemporalProfile};
        // The temporal layer must consume zero RNG draws and contribute
        // exactly-1.0 factors when flat — even at a non-default start time.
        let mut plain = InterferenceState::new(InterferenceProfile::aws(), 901);
        let mut layered = InterferenceState::with_temporal(
            InterferenceProfile::aws(),
            TemporalProfile::flat(),
            StartTime::parse("fri-20:30").unwrap(),
            901,
        );
        assert_eq!(plain.placement_factor, layered.placement_factor);
        for _ in 0..5_000 {
            assert_eq!(
                plain.sample_tick().to_bits(),
                layered.sample_tick().to_bits()
            );
        }
        assert_eq!(layered.tenancy.resident_count(), 0);
    }

    #[test]
    fn diurnal_peak_slows_ticks_beyond_stationary() {
        use crate::temporal::{StartTime, TemporalProfile};
        let mean_of = |start: &str, seed: u64| -> f64 {
            let mut state = InterferenceState::with_temporal(
                InterferenceProfile::aws(),
                TemporalProfile::aws(),
                StartTime::parse(start).unwrap(),
                seed,
            );
            (0..5_000).map(|_| state.sample_tick()).sum::<f64>() / 5_000.0
        };
        let mut peak = 0.0;
        let mut off = 0.0;
        for seed in 0..10 {
            peak += mean_of("fri-20:30", seed);
            off += mean_of("mon-04:00", seed);
        }
        assert!(
            peak > off * 1.1,
            "peak-start interference should dominate off-peak: {peak} vs {off}"
        );
    }

    #[test]
    fn different_seeds_sample_different_placements() {
        let a = InterferenceState::new(InterferenceProfile::aws(), 1);
        let b = InterferenceState::new(InterferenceProfile::aws(), 2);
        assert_ne!(a.placement_factor, b.placement_factor);
    }

    #[test]
    fn credits_throttle_sustained_load() {
        let mut credits = BurstCredits::new(true, 0.3, 2);
        let mut throttled = false;
        // Sustained 100% usage of both cores: 0.1 core-seconds per 50 ms tick.
        for _ in 0..20_000 {
            let m = credits.account(0.1, 0.05);
            if m > 1.0 {
                throttled = true;
                break;
            }
        }
        assert!(throttled, "sustained full load must exhaust burst credits");
        assert!(credits.balance <= 0.0);
    }

    #[test]
    fn light_load_never_throttles() {
        let mut credits = BurstCredits::new(true, 0.3, 2);
        for _ in 0..20_000 {
            // 10% of one core per tick, well under the 60% total baseline.
            let m = credits.account(0.005, 0.05);
            assert_eq!(m, 1.0);
        }
        assert!(credits.balance > 0.0);
    }

    #[test]
    fn non_burstable_nodes_are_never_throttled() {
        let mut credits = BurstCredits::new(false, 1.0, 2);
        for _ in 0..1_000 {
            assert_eq!(credits.account(10.0, 0.05), 1.0);
        }
        assert!(credits.balance > 0.0);
    }

    #[test]
    fn credits_recover_during_idle_periods() {
        let mut credits = BurstCredits::new(true, 0.3, 2);
        // Exhaust.
        for _ in 0..20_000 {
            credits.account(0.1, 0.05);
        }
        assert!(credits.balance <= 0.0);
        // Idle for a while: credits accrue again.
        for _ in 0..2_000 {
            credits.account(0.0, 0.05);
        }
        assert!(credits.balance > 0.0);
    }
}
