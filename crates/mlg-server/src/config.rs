//! Server configuration.

use serde::{Deserialize, Serialize};

use crate::flavor::ServerFlavor;

/// Configuration of one game-server instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Which server flavor (system under test) to run.
    pub flavor: ServerFlavor,
    /// View distance in chunks: how far around each player chunks are loaded
    /// and streamed.
    pub view_distance: u32,
    /// Intended tick period, in milliseconds (50 ms at 20 Hz).
    pub tick_budget_ms: f64,
    /// If the server stalls longer than this without serving a client, the
    /// client connection times out; when all clients time out the server run
    /// is aborted — this reproduces the Lag-workload crashes on AWS (MF2).
    pub keepalive_timeout_ms: f64,
    /// World seed (also seeds entity AI and spawning).
    pub seed: u64,
    /// Worker threads the sharded tick pipeline may use. Pure execution
    /// infrastructure: results are bit-identical at any value (1 = the
    /// sequential reference path); only wall-clock time changes.
    pub tick_threads: u32,
    /// Overrides the flavor's [`FlavorProfile::rebalance`] knob: `None`
    /// uses the flavor default, `Some(v)` forces adaptive shard rebalancing
    /// on or off *for sharded flavors* — flavors with `tick_shards <= 1`
    /// have no partition to rebalance and ignore the override (their serial
    /// game loop is the architecture being modeled). Unlike `tick_threads`
    /// this is a *modeled-architecture* change — results legitimately
    /// differ across it (campaigns sweep it through the `shard_rebalance`
    /// axis).
    ///
    /// [`FlavorProfile::rebalance`]: crate::flavor::FlavorProfile::rebalance
    pub shard_rebalance: Option<bool>,
    /// Overrides the flavor's [`FlavorProfile::eager_lighting`] knob:
    /// `None` uses the flavor default, `Some(true)` forces eager in-stage
    /// relighting, `Some(false)` forces the cross-tick pipelined lighting
    /// stage. A modeled-architecture change (results legitimately differ
    /// across it); campaigns sweep it through the `eager_lighting` axis to
    /// measure what pipelining the lighting phase buys.
    ///
    /// [`FlavorProfile::eager_lighting`]: crate::flavor::FlavorProfile::eager_lighting
    pub eager_lighting: Option<bool>,
    /// Minute of the simulated week (0 = Monday 00:00) at which this run
    /// starts. Purely informational for the server today — the temporal
    /// interference model lives in the environment layer — but plumbed here
    /// so time-of-day-aware workloads (e.g. the planned `Tidal` diurnal
    /// population workload) can key their behaviour off the same clock. Must
    /// never feed the tick determinism contract's forbidden sources: this is
    /// simulated calendar time, not wall-clock time.
    // detlint: allow(pub-without-caller) -- nothing reads it, but benchmark/src/trace.rs calls the frozen setter that writes it
    pub start_time_minute: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            flavor: ServerFlavor::Vanilla,
            view_distance: 6,
            tick_budget_ms: 50.0,
            keepalive_timeout_ms: 30_000.0,
            seed: 392_114_485,
            tick_threads: 1,
            shard_rebalance: None,
            eager_lighting: None,
            start_time_minute: 0,
        }
    }
}

impl ServerConfig {
    /// A configuration for the given flavor with all other values default.
    #[must_use]
    pub fn for_flavor(flavor: ServerFlavor) -> Self {
        ServerConfig {
            flavor,
            ..ServerConfig::default()
        }
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different view distance.
    #[must_use]
    // detlint: allow(pub-without-caller) -- tests/ shrink the view distance to keep join streaming small
    pub fn with_view_distance(mut self, chunks: u32) -> Self {
        self.view_distance = chunks;
        self
    }

    /// Returns a copy with a different tick-pipeline worker thread count.
    #[must_use]
    pub fn with_tick_threads(mut self, threads: u32) -> Self {
        self.tick_threads = threads.max(1);
        self
    }

    /// Returns a copy with the shard-rebalancing override set (`None` =
    /// flavor default).
    #[must_use]
    pub fn with_shard_rebalance(mut self, rebalance: Option<bool>) -> Self {
        self.shard_rebalance = rebalance;
        self
    }

    /// Returns a copy with the eager-lighting override set (`None` = flavor
    /// default; `Some(false)` = cross-tick pipelined lighting).
    #[must_use]
    pub fn with_eager_lighting(mut self, eager: Option<bool>) -> Self {
        self.eager_lighting = eager;
        self
    }

    /// Returns a copy starting at a different minute of the simulated week
    /// (wraps modulo one week).
    #[must_use]
    pub fn with_start_time_minute(mut self, minute: u32) -> Self {
        self.start_time_minute = minute % (7 * 24 * 60);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_the_paper_setup() {
        let c = ServerConfig::default();
        assert_eq!(c.tick_budget_ms, 50.0);
        assert_eq!(c.seed, 392_114_485);
        assert_eq!(c.flavor, ServerFlavor::Vanilla);
        assert_eq!(c.tick_threads, 1);
    }

    #[test]
    fn builders_override_fields() {
        let c = ServerConfig::for_flavor(ServerFlavor::Paper)
            .with_seed(42)
            .with_view_distance(10);
        assert_eq!(c.flavor, ServerFlavor::Paper);
        assert_eq!(c.seed, 42);
        assert_eq!(c.view_distance, 10);
        // Unrelated fields keep their defaults.
        assert_eq!(c.tick_budget_ms, 50.0);
        assert_eq!(
            ServerConfig::default().with_tick_threads(0).tick_threads,
            1,
            "thread count is clamped"
        );
    }
}
