//! Benchmark configuration (Table 4 of the paper).

use serde::{Deserialize, Serialize};

use cloud_sim::environment::Environment;
use cloud_sim::temporal::StartTime;
use meterstick_workloads::{WorkloadKind, WorkloadSpec};
use mlg_protocol::netsim::LinkConfig;
use mlg_server::{ServerConfig, ServerFlavor};

/// The plain per-job record of one Meterstick benchmark run: what
/// [`Campaign::plan`](crate::campaign::Campaign::plan) writes into every
/// [`IterationJob`](crate::campaign::IterationJob) and what
/// [`execute_iteration_observed`](crate::experiment::execute_iteration_observed)
/// reads. It is not a builder — experiments are composed with
/// [`Campaign`](crate::campaign::Campaign), which also owns the
/// campaign-level parameters of Table 4 (the "Servers" list and
/// "Iterations").
///
/// The fields mirror the configurable parameters of Table 4. The table's
/// machine parameters (IPs, SSL keys, JMX ports, RAM, affinity, resume)
/// have no simulated counterpart and are not modelled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkConfig {
    /// The workload world (Table 4 "World").
    pub workload: WorkloadSpec,
    /// The deployment environment the server node runs in.
    pub environment: Environment,
    /// Length of one iteration, in (virtual) seconds (Table 4 "Duration").
    pub duration_secs: u64,
    /// Number of emulated players; `None` uses the workload's own player
    /// configuration (Table 4 "Number of Bots", typical value 25).
    pub bots_override: Option<u32>,
    /// Network link between the player-emulation node and the server node.
    pub link: LinkConfig,
    /// Base random seed: seeds the workload world directly, and every job
    /// seed derives from it (see [`Axis`](crate::campaign::Axis)).
    pub base_seed: u64,
    /// Worker threads the server's sharded tick pipeline may use. Pure
    /// execution infrastructure: identical results at any value, only
    /// wall-clock time changes (there are tests pinning this).
    pub tick_threads: u32,
    /// Overrides the flavor's adaptive shard-rebalancing knob: `None` uses
    /// the flavor default (on for Folia, off for the paper's flavors),
    /// `Some(v)` forces it for sharded flavors. Serial flavors
    /// (`tick_shards <= 1`) ignore the override — they have no partition
    /// to rebalance. A modeled-architecture change, unlike `tick_threads`
    /// — campaigns sweep it via the `shard_rebalance` axis.
    pub shard_rebalance: Option<bool>,
    /// Overrides the flavor's eager-lighting knob: `None` uses the flavor
    /// default (eager for Vanilla/Forge, pipelined for Paper/Folia),
    /// `Some(true)` forces eager in-stage relighting, `Some(false)` forces
    /// the cross-tick pipelined lighting stage. A modeled-architecture
    /// change — campaigns sweep it via the `eager_lighting` axis to
    /// measure what pipelining the lighting phase buys.
    pub eager_lighting: Option<bool>,
    /// Point of the simulated week at which iterations start. Only matters
    /// for environments with a non-flat temporal (tenancy) profile; like
    /// `tick_threads`, it is excluded from seed derivation so a `start_time`
    /// sweep compares identical worlds and interference seeds at different
    /// points of the week.
    pub start_time: StartTime,
    /// When set, iterations fold their tick stream through a
    /// [`meterstick_metrics::windowed::WindowedAggregator`] instead of
    /// retaining the full trace — memory stays flat with horizon, enabling
    /// hours→days of simulated wall-clock. The retained trace is bounded to
    /// the final window.
    pub metrics_window: Option<MetricsWindow>,
}

/// Windowed-aggregation knob for long-horizon iterations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricsWindow {
    /// Ticks per aggregation window (e.g. 1 200 = one simulated minute).
    pub window_ticks: u32,
    /// Bound on retained window summaries (oldest evicted first).
    pub max_windows: u32,
}

impl BenchmarkConfig {
    /// Creates a configuration for one workload with the paper's defaults
    /// (Table 4): AWS `t3.large`, 60-second iterations, datacenter link.
    #[must_use]
    pub fn new(workload: WorkloadKind) -> Self {
        BenchmarkConfig {
            workload: WorkloadSpec::new(workload),
            environment: Environment::aws_default(),
            duration_secs: 60,
            bots_override: None,
            link: LinkConfig::datacenter(),
            base_seed: 392_114_485,
            tick_threads: 1,
            shard_rebalance: None,
            eager_lighting: None,
            start_time: StartTime::default(),
            metrics_window: None,
        }
    }

    /// Number of game ticks one iteration spans at 20 Hz.
    #[must_use]
    pub fn ticks_per_iteration(&self) -> u64 {
        self.duration_secs * 20
    }

    /// The server configuration this job runs `flavor` under: the flavor's
    /// defaults plus the job's world seed, tick threads, architecture
    /// overrides and start time.
    #[must_use]
    pub fn server_config(&self, flavor: ServerFlavor) -> ServerConfig {
        ServerConfig::for_flavor(flavor)
            .with_seed(self.base_seed)
            .with_tick_threads(self.tick_threads)
            .with_shard_rebalance(self.shard_rebalance)
            .with_eager_lighting(self.eager_lighting)
            .with_start_time_minute(self.start_time.minute_of_week())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table4() {
        let c = BenchmarkConfig::new(WorkloadKind::Control);
        assert_eq!(c.duration_secs, 60);
        assert_eq!(c.ticks_per_iteration(), 1_200);
        assert_eq!(c.tick_threads, 1);
        assert_eq!(c.start_time, StartTime::default());
    }

    #[test]
    fn server_config_carries_the_job_knobs() {
        let mut c = BenchmarkConfig::new(WorkloadKind::Control);
        c.base_seed = 7;
        c.tick_threads = 4;
        c.shard_rebalance = Some(true);
        c.eager_lighting = Some(false);
        c.start_time = StartTime::from_day_hour_minute(4, 20, 30);
        let expected = ServerConfig::for_flavor(ServerFlavor::Folia)
            .with_seed(7)
            .with_tick_threads(4)
            .with_shard_rebalance(Some(true))
            .with_eager_lighting(Some(false))
            .with_start_time_minute(c.start_time.minute_of_week());
        assert_eq!(c.server_config(ServerFlavor::Folia), expected);
        assert_ne!(
            c.server_config(ServerFlavor::Folia),
            ServerConfig::for_flavor(ServerFlavor::Folia)
        );
    }
}
