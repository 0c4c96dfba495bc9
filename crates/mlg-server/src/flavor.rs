//! Server flavors: Vanilla, Forge and PaperMC performance models.
//!
//! The paper evaluates three MLGs that speak the same protocol but differ in
//! their engineering (Section 5.1.1 and Appendix A). The reproduction models
//! each one as a set of multipliers and capabilities applied to the same
//! underlying simulation:
//!
//! * **Vanilla** — the reference behaviour.
//! * **Forge** — behaves like Vanilla (the paper finds their flamegraphs
//!   identical) plus a small mod-loader overhead on every stage.
//! * **Paper** — asynchronous chat (why PaperMC is omitted from the paper's
//!   response-time figure), asynchronous environment processing on dedicated
//!   threads, a rewritten entity handler, and targeted optimizations for TNT
//!   and redstone, reducing both total work and the share bound to the main
//!   thread.
//!
//! Beyond the paper's three systems, the reproduction also models a
//! **Folia-like sharded flavor** ([`ServerFlavor::Folia`]): the game loop is
//! split into independently ticked spatial shards, so every tick stage —
//! player handler, terrain, entities, lighting, dissemination — becomes
//! parallelizable across vCPUs ([`FlavorProfile::tick_shards`],
//! [`FlavorProfile::stage_parallel`]), and the shard partition
//! **rebalances adaptively** ([`FlavorProfile::rebalance`]): a 2D region
//! quadtree splits hot regions and merges cold ones between ticks, so
//! clustered hotspot workloads (TNT cascades) spread across shards instead
//! of pinning one. It is excluded from [`ServerFlavor::all`] (the paper's
//! set).

use serde::{Deserialize, Serialize};

/// Per-stage parallel fractions of the tick stage graph: which share of
/// each stage's work the flavor's architecture can fan out across vCPUs
/// *within* the game loop.
///
/// Serial flavors still get JVM-runtime parallelism (parallel GC, JIT,
/// netty I/O) on the simulation-heavy stages — that is
/// `StageParallelism::jvm`, the mechanism behind the paper's MF5 (bigger
/// nodes reduce TNT overload even for vanilla) — while their player handler
/// and dissemination stay on the main thread. Sharded flavors
/// (`StageParallelism::sharded`) parallelize every stage over their tick
/// shards: the player handler batches players by shard, dissemination
/// assembles per-shard packet buffers, and lighting fans out over the
/// worker pool. Redstone/block-update cascades are *never* included: they
/// are serial dependency chains even under sharding (boundary escalation),
/// which is what preserves MF2's Lag crash.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageParallelism {
    /// Player-handler stage (action processing + connection upkeep).
    pub player: f64,
    /// Terrain stage — applies to chunk generation/encoding only; update
    /// cascades stay serial.
    pub terrain: f64,
    /// Entity simulation stage.
    pub entity: f64,
    /// Lighting stage (eager lighting only; a pipelined lighting stage is
    /// modeled as fully overlapped instead — see
    /// [`FlavorProfile::eager_lighting`]).
    pub lighting: f64,
    /// State-update dissemination stage (packet assembly + broadcast).
    pub dissemination: f64,
}

impl StageParallelism {
    /// JVM-runtime parallelism for a serial game loop: `fraction` of the
    /// simulation-heavy stages (terrain chunks, entities, lighting) spreads
    /// across vCPUs, the player handler and dissemination stay serial.
    #[must_use]
    fn jvm(fraction: f64) -> Self {
        StageParallelism {
            player: 0.0,
            terrain: fraction,
            entity: fraction,
            lighting: fraction,
            dissemination: 0.0,
        }
    }

    /// A region-sharded game loop: `fraction` of every stage fans out over
    /// the tick shards, the player handler and dissemination included.
    #[must_use]
    fn sharded(fraction: f64) -> Self {
        StageParallelism {
            player: fraction,
            terrain: fraction,
            entity: fraction,
            lighting: fraction,
            dissemination: fraction,
        }
    }
}

/// The three systems under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServerFlavor {
    /// The official ("vanilla") Minecraft server.
    Vanilla,
    /// Forge: vanilla plus mod-loader hooks.
    Forge,
    /// PaperMC: the community high-performance fork.
    Paper,
    /// A Folia-like region-sharded server: the tick pipeline is partitioned
    /// into spatial shards ticked in parallel. Not part of the paper's
    /// evaluation; used to study how tick-level parallelism changes the
    /// variability picture.
    Folia,
}

impl ServerFlavor {
    /// All flavors in the order the paper lists them.
    #[must_use]
    pub fn all() -> [ServerFlavor; 3] {
        [
            ServerFlavor::Vanilla,
            ServerFlavor::Forge,
            ServerFlavor::Paper,
        ]
    }

    /// The performance profile of this flavor.
    #[must_use]
    pub fn profile(self) -> FlavorProfile {
        match self {
            ServerFlavor::Vanilla => FlavorProfile {
                flavor: self,
                overhead_multiplier: 1.0,
                entity_multiplier: 1.0,
                redstone_multiplier: 1.0,
                explosion_multiplier: 1.0,
                lighting_multiplier: 1.0,
                offload_fraction: 0.05,
                // The game loop is single-threaded, but the JVM around it
                // is not: parallel GC, JIT threads and netty I/O spread a
                // modest slice of the simulation stages' work across
                // however many vCPUs exist (the mechanism behind the
                // paper's MF5: bigger nodes reduce TNT overload even for
                // vanilla). The player handler and dissemination stay on
                // the main thread, and lighting is recomputed eagerly
                // inside the terrain stage.
                stage_parallel: StageParallelism::jvm(0.20),
                tick_shards: 1,
                rebalance: false,
                eager_lighting: true,
                async_chat: false,
                max_tnt_per_tick: usize::MAX,
                aoi_dissemination: false,
            },
            ServerFlavor::Forge => FlavorProfile {
                flavor: self,
                overhead_multiplier: 1.08,
                entity_multiplier: 1.0,
                redstone_multiplier: 1.0,
                explosion_multiplier: 1.0,
                lighting_multiplier: 1.0,
                offload_fraction: 0.05,
                stage_parallel: StageParallelism::jvm(0.20),
                tick_shards: 1,
                rebalance: false,
                eager_lighting: true,
                async_chat: false,
                max_tnt_per_tick: usize::MAX,
                aoi_dissemination: false,
            },
            ServerFlavor::Paper => FlavorProfile {
                flavor: self,
                overhead_multiplier: 0.95,
                entity_multiplier: 0.45,
                redstone_multiplier: 0.60,
                explosion_multiplier: 0.40,
                lighting_multiplier: 0.70,
                offload_fraction: 0.35,
                stage_parallel: StageParallelism::jvm(0.25),
                tick_shards: 1,
                rebalance: false,
                // PaperMC batches and defers lighting off the critical
                // path: the relight pass over a tick's changes runs
                // pipelined during the next tick instead of eagerly
                // inside the terrain stage.
                eager_lighting: false,
                async_chat: true,
                max_tnt_per_tick: 60,
                aoi_dissemination: true,
            },
            ServerFlavor::Folia => FlavorProfile {
                flavor: self,
                // Paper-derived optimizations plus a region-sharded tick:
                // most entity/terrain/lighting work fans out across shards.
                overhead_multiplier: 0.98,
                entity_multiplier: 0.45,
                redstone_multiplier: 0.60,
                explosion_multiplier: 0.40,
                lighting_multiplier: 0.70,
                offload_fraction: 0.35,
                stage_parallel: StageParallelism::sharded(0.80),
                tick_shards: 8,
                rebalance: true,
                eager_lighting: false,
                async_chat: true,
                max_tnt_per_tick: 60,
                aoi_dissemination: true,
            },
        }
    }

    /// The display name used in figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ServerFlavor::Vanilla => "Minecraft",
            ServerFlavor::Forge => "Forge",
            ServerFlavor::Paper => "PaperMC",
            ServerFlavor::Folia => "Folia",
        }
    }
}

impl std::fmt::Display for ServerFlavor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The tunable performance model of one flavor.
///
/// The profile can also be constructed directly (rather than through
/// [`ServerFlavor::profile`]) to run ablation studies on individual
/// optimizations, as `meterstick-bench ablation_paper_opts` does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlavorProfile {
    /// Which flavor this profile belongs to.
    pub flavor: ServerFlavor,
    /// Multiplier applied to all work (mod-loader overhead, general tuning).
    pub overhead_multiplier: f64,
    /// Multiplier applied to entity-stage work (PaperMC's rewritten entity
    /// handler).
    pub entity_multiplier: f64,
    /// Multiplier applied to redstone/block-update work.
    pub redstone_multiplier: f64,
    /// Multiplier applied to explosion handling work.
    pub explosion_multiplier: f64,
    /// Multiplier applied to lighting work.
    pub lighting_multiplier: f64,
    /// Fraction of terrain/lighting/chat work that can run on auxiliary
    /// threads concurrently with the main game loop.
    pub offload_fraction: f64,
    /// Per-stage parallel fractions of the tick stage graph: how much of
    /// each stage's work the architecture fans out across vCPUs *within*
    /// the game loop (JVM-runtime parallelism on the simulation stages for
    /// the serial flavors; every stage over the tick shards for Folia-like
    /// flavors). JVM GC work is always parallelizable on top of this.
    /// Redstone/block-update cascades are never included: they are serial
    /// dependency chains even under sharding (boundary escalation).
    pub stage_parallel: StageParallelism,
    /// Number of spatial shards the tick pipeline partitions the world into
    /// (1 = the classic serial loop). Also caps how many cores the sharded
    /// work can spread over. For rebalancing flavors this is the *target*
    /// leaf count of the adaptive partition, which may grow to twice this
    /// value under hotspot load.
    pub tick_shards: u32,
    /// Whether the shard partition rebalances between ticks: the static
    /// stripe partition is replaced by a 2D region quadtree that splits hot
    /// regions and merges cold ones based on the previous tick's merged
    /// load report. On for the Folia-like flavor (real Folia regionizes
    /// dynamically); off for the paper's serial flavors, whose Lag-workload
    /// crash behaviour (MF2) depends on the load staying serial.
    pub rebalance: bool,
    /// Whether lighting is recomputed eagerly inside the terrain stage
    /// (vanilla behaviour) or deferred into a cross-tick *pipelined*
    /// lighting stage (PaperMC/Folia): each tick's relight positions queue
    /// up and are consumed against a frozen world snapshot while the next
    /// tick's player stage runs, so lighting overlaps the game loop instead
    /// of extending its critical path. [`ServerConfig::eager_lighting`]
    /// can override this per run.
    ///
    /// [`ServerConfig::eager_lighting`]: crate::config::ServerConfig::eager_lighting
    pub eager_lighting: bool,
    /// Whether chat is handled on a dedicated asynchronous thread.
    pub async_chat: bool,
    /// Cap on primed-TNT entities processed per tick (explosion batching).
    pub max_tnt_per_tick: usize,
    /// Whether state-update dissemination uses per-player area-of-interest
    /// filtering: positioned packets (entity moves/spawns, block changes)
    /// are delivered only to players whose view distance covers the event,
    /// so dissemination cost scales with the summed interest-set sizes
    /// instead of `packets × players`. Vanilla/Forge broadcast everything
    /// to everyone (keeping the paper's measured behaviour untouched);
    /// the Paper/Folia-like flavors filter, modeling their rewritten
    /// tracker-range entity broadcast paths. A run that wants the other
    /// mode sets its own profile ([`GameServer::set_profile`]).
    ///
    /// [`GameServer::set_profile`]: crate::server::GameServer::set_profile
    pub aoi_dissemination: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_is_cheaper_than_vanilla_everywhere_that_matters() {
        let vanilla = ServerFlavor::Vanilla.profile();
        let paper = ServerFlavor::Paper.profile();
        assert!(paper.entity_multiplier < vanilla.entity_multiplier);
        assert!(paper.redstone_multiplier < vanilla.redstone_multiplier);
        assert!(paper.explosion_multiplier < vanilla.explosion_multiplier);
        assert!(paper.offload_fraction > vanilla.offload_fraction);
        assert!(paper.async_chat && !vanilla.async_chat);
    }

    #[test]
    fn folia_is_the_sharded_flavor() {
        let folia = ServerFlavor::Folia.profile();
        let vanilla = ServerFlavor::Vanilla.profile();
        assert!(folia.tick_shards > 1);
        assert_eq!(vanilla.tick_shards, 1);
        assert!(folia.stage_parallel.entity > vanilla.stage_parallel.entity);
        assert!(
            folia.stage_parallel.player > 0.0 && vanilla.stage_parallel.player == 0.0,
            "only the sharded flavor parallelizes the player handler"
        );
        assert!(
            folia.stage_parallel.dissemination > 0.0 && vanilla.stage_parallel.dissemination == 0.0,
            "only the sharded flavor parallelizes dissemination"
        );
        assert!(
            folia.rebalance && !vanilla.rebalance,
            "only the Folia-like flavor rebalances its shard partition"
        );
        assert!(!ServerFlavor::Paper.profile().rebalance);
        assert!(ServerFlavor::all()
            .iter()
            .all(|f| *f != ServerFlavor::Folia));
        assert_eq!(ServerFlavor::Folia.to_string(), "Folia");
    }

    #[test]
    fn lighting_modes_match_the_architectures() {
        // Vanilla/Forge relight eagerly inside the terrain stage; Paper and
        // Folia defer into the cross-tick pipelined lighting stage.
        assert!(ServerFlavor::Vanilla.profile().eager_lighting);
        assert!(ServerFlavor::Forge.profile().eager_lighting);
        assert!(!ServerFlavor::Paper.profile().eager_lighting);
        assert!(!ServerFlavor::Folia.profile().eager_lighting);
    }

    #[test]
    fn aoi_dissemination_matches_the_architectures() {
        // Vanilla/Forge broadcast every packet to every player (the paper's
        // measured behaviour); the Paper/Folia-like flavors model their
        // rewritten tracker-range broadcast paths with per-player areas of
        // interest.
        assert!(!ServerFlavor::Vanilla.profile().aoi_dissemination);
        assert!(!ServerFlavor::Forge.profile().aoi_dissemination);
        assert!(ServerFlavor::Paper.profile().aoi_dissemination);
        assert!(ServerFlavor::Folia.profile().aoi_dissemination);
    }

    #[test]
    fn stage_parallelism_constructors() {
        let jvm = StageParallelism::jvm(0.2);
        let fractions =
            |p: StageParallelism| [p.player, p.terrain, p.entity, p.lighting, p.dissemination];
        assert_eq!(fractions(jvm), [0.0, 0.2, 0.2, 0.2, 0.0]);
        assert_eq!(fractions(StageParallelism::sharded(0.8)), [0.8; 5]);
    }

    #[test]
    fn forge_is_vanilla_plus_overhead() {
        let vanilla = ServerFlavor::Vanilla.profile();
        let forge = ServerFlavor::Forge.profile();
        assert!(forge.overhead_multiplier > vanilla.overhead_multiplier);
        assert_eq!(forge.entity_multiplier, vanilla.entity_multiplier);
        assert_eq!(forge.redstone_multiplier, vanilla.redstone_multiplier);
        assert_eq!(forge.async_chat, vanilla.async_chat);
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(ServerFlavor::Vanilla.to_string(), "Minecraft");
        assert_eq!(ServerFlavor::Forge.to_string(), "Forge");
        assert_eq!(ServerFlavor::Paper.to_string(), "PaperMC");
        assert_eq!(ServerFlavor::all().len(), 3);
    }
}
