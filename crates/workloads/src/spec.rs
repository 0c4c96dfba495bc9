//! Workload specification and construction.

use serde::{Deserialize, Serialize};

use mlg_entity::{EntityKind, Vec3};
use mlg_world::World;

use crate::{control, farm, lag, tnt};

/// The five Meterstick workloads, plus the beyond-paper Crowd workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Freshly generated world; best-case baseline.
    Control,
    /// The TNT cuboid world; entity actions and terrain updates.
    Tnt,
    /// The resource-farm world; simulated constructs.
    Farm,
    /// The lag-machine world; worst-case stress test.
    Lag,
    /// The player-based workload: 25 bots random-walking on the Control world.
    Players,
    /// The player-heavy crowd workload: 200+ bots clustered in a small
    /// area, walking *and* editing terrain (block place/dig). Not part of
    /// the paper's evaluation; it exists to load the player-handler and
    /// dissemination stages of the tick graph the way the paper's TNT
    /// world loads the entity stage. Excluded from [`WorkloadKind::all`]
    /// (the paper's set), included in [`WorkloadKind::extended`].
    Crowd,
    /// The scaled-population workload: thousands of wandering/building
    /// bots scattered over a large world — 10–100× the paper's player
    /// counts. Exists to exercise the entity substrate and area-of-interest
    /// dissemination at populations the paper's benchmark could not reach:
    /// the scatter keeps each player's interest set small, so per-tick
    /// dissemination cost tracks Σ|interest set| instead of
    /// packets × players. Excluded from [`WorkloadKind::all`] (the paper's
    /// set), included in [`WorkloadKind::extended`].
    Horde,
}

impl WorkloadKind {
    /// All workloads in the order the paper's figures list them.
    #[must_use]
    pub fn all() -> [WorkloadKind; 5] {
        [
            WorkloadKind::Control,
            WorkloadKind::Farm,
            WorkloadKind::Tnt,
            WorkloadKind::Lag,
            WorkloadKind::Players,
        ]
    }

    /// The paper's five workloads plus the player-heavy Crowd workload and
    /// the scaled-population Horde workload.
    #[must_use]
    pub fn extended() -> [WorkloadKind; 7] {
        [
            WorkloadKind::Control,
            WorkloadKind::Farm,
            WorkloadKind::Tnt,
            WorkloadKind::Lag,
            WorkloadKind::Players,
            WorkloadKind::Crowd,
            WorkloadKind::Horde,
        ]
    }

    /// Display name as used in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Control => "Control",
            WorkloadKind::Tnt => "TNT",
            WorkloadKind::Farm => "Farm",
            WorkloadKind::Lag => "Lag",
            WorkloadKind::Players => "Players",
            WorkloadKind::Crowd => "Crowd",
            WorkloadKind::Horde => "Horde",
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The player-based part of a workload: how many bots connect and how they
/// behave (Section 3.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlayerWorkload {
    /// Number of emulated players to connect.
    pub bots: u32,
    /// Side length of the square area the bots random-walk in, in blocks.
    pub walk_area: u32,
    /// Whether the bots move at all (environment workloads connect a single
    /// idle observer that only probes response time).
    pub moving: bool,
    /// Whether the bots also edit terrain (periodic block place/dig near
    /// their position) — the Crowd workload's player-handler load.
    pub building: bool,
    /// Side length of the square the bots' *home positions* scatter over,
    /// in blocks (0 = everyone starts at the spawn point). Each bot walks
    /// its `walk_area` around its own home, so a large scatter spreads the
    /// population thin — the Horde workload's area-of-interest regime.
    pub scatter: u32,
}

impl PlayerWorkload {
    /// A single idle observer used by the environment-based workloads
    /// ("During all environment-based workloads, Meterstick connects to the
    /// game a single player that performs no actions").
    #[must_use]
    pub fn single_observer() -> Self {
        PlayerWorkload {
            bots: 1,
            walk_area: 0,
            moving: false,
            building: false,
            scatter: 0,
        }
    }

    /// The Players workload: 25 bots random-walking in a 32×32 area.
    #[must_use]
    fn random_walkers() -> Self {
        PlayerWorkload {
            bots: 25,
            walk_area: 32,
            moving: true,
            building: false,
            scatter: 0,
        }
    }

    /// The Crowd workload: 220 bots clustered in a 24x24 area, walking and
    /// editing terrain. The cluster fits inside a handful of chunks, so on
    /// a sharded server the load lands on few shards until the adaptive
    /// partition splits them -- a player-stage hotspot by construction.
    #[must_use]
    fn builder_crowd() -> Self {
        PlayerWorkload {
            bots: 220,
            walk_area: 24,
            moving: true,
            building: true,
            scatter: 0,
        }
    }

    /// The Horde workload: 5,000 wandering builder bots, their homes
    /// scattered over a ~1 km² area. Population is 10–100× the paper's
    /// player counts; the spread keeps interest sets small, so this is the
    /// regime where area-of-interest dissemination separates from full
    /// broadcast (Σ|AoI| ≪ packets × players).
    #[must_use]
    fn horde() -> Self {
        PlayerWorkload {
            bots: 5_000,
            walk_area: 16,
            moving: true,
            building: true,
            scatter: 1_024,
        }
    }
}

/// A workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Which workload.
    pub kind: WorkloadKind,
}

impl WorkloadSpec {
    /// Creates the spec of one workload.
    #[must_use]
    pub fn new(kind: WorkloadKind) -> Self {
        WorkloadSpec { kind }
    }

    /// Builds the workload world deterministically from `seed`.
    #[must_use]
    pub fn build(&self, seed: u64) -> BuiltWorkload {
        match self.kind {
            WorkloadKind::Control => control::build(seed),
            WorkloadKind::Tnt => tnt::build(seed),
            WorkloadKind::Farm => farm::build(seed),
            WorkloadKind::Lag => lag::build(seed),
            WorkloadKind::Players => {
                let mut built = control::build(seed);
                built.kind = WorkloadKind::Players;
                built.players = PlayerWorkload::random_walkers();
                built
            }
            WorkloadKind::Crowd => {
                let mut built = control::build(seed);
                built.kind = WorkloadKind::Crowd;
                built.players = PlayerWorkload::builder_crowd();
                built.description =
                    "player-heavy crowd: 220 building bots clustered on the Control world".into();
                built
            }
            WorkloadKind::Horde => {
                let mut built = control::build(seed);
                built.kind = WorkloadKind::Horde;
                built.players = PlayerWorkload::horde();
                built.description =
                    "scaled population: 5,000 wandering builder bots scattered over ~1 km²".into();
                built
            }
        }
    }
}

/// A fully constructed workload, ready to hand to a game server.
pub struct BuiltWorkload {
    /// Which workload this is.
    pub kind: WorkloadKind,
    /// The world to load into the server.
    pub world: World,
    /// Where connected players spawn.
    pub spawn_point: Vec3,
    /// The player-based part of the workload.
    pub players: PlayerWorkload,
    /// If set, every TNT block in the world is scheduled to ignite this many
    /// ticks after the experiment starts (TNT workload: ~20 seconds).
    pub tnt_fuse_delay_ticks: Option<u64>,
    /// Ambient entities present when the experiment starts (grazing animals,
    /// villagers); freshly generated Minecraft worlds are never empty of
    /// entities, and their movement packets are what makes entity traffic
    /// dominate even the Control workload (Table 8).
    pub ambient_entities: Vec<(EntityKind, Vec3)>,
    /// Human-readable description of what was built.
    pub description: String,
}

impl std::fmt::Debug for BuiltWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltWorkload")
            .field("kind", &self.kind)
            .field("spawn_point", &self.spawn_point)
            .field("players", &self.players)
            .field("description", &self.description)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build() {
        for kind in WorkloadKind::all() {
            let built = WorkloadSpec::new(kind).build(42);
            assert_eq!(built.kind, kind);
            assert!(
                built.world.loaded_chunk_count() > 0,
                "{kind} world must have chunks"
            );
            assert!(!built.description.is_empty());
        }
    }

    #[test]
    fn players_workload_uses_random_walkers() {
        let built = WorkloadSpec::new(WorkloadKind::Players).build(1);
        assert_eq!(built.players.bots, 25);
        assert_eq!(built.players.walk_area, 32);
        assert!(built.players.moving);
    }

    #[test]
    fn environment_workloads_use_a_single_observer() {
        for kind in [
            WorkloadKind::Control,
            WorkloadKind::Farm,
            WorkloadKind::Tnt,
            WorkloadKind::Lag,
        ] {
            let built = WorkloadSpec::new(kind).build(1);
            assert_eq!(built.players.bots, 1, "{kind}");
            assert!(!built.players.moving);
        }
    }

    #[test]
    fn only_tnt_has_a_fuse() {
        for kind in WorkloadKind::all() {
            let built = WorkloadSpec::new(kind).build(3);
            if kind == WorkloadKind::Tnt {
                assert!(built.tnt_fuse_delay_ticks.is_some());
            } else {
                assert!(built.tnt_fuse_delay_ticks.is_none(), "{kind}");
            }
        }
    }

    #[test]
    fn kind_lists_and_names() {
        assert_eq!(WorkloadKind::all().len(), 5);
        assert_eq!(WorkloadKind::Tnt.to_string(), "TNT");
        assert!(
            !WorkloadKind::all().contains(&WorkloadKind::Crowd),
            "Crowd is not one of the paper's workloads"
        );
        assert_eq!(WorkloadKind::extended().len(), 7);
        assert!(WorkloadKind::extended().contains(&WorkloadKind::Crowd));
        assert!(WorkloadKind::extended().contains(&WorkloadKind::Horde));
        assert!(
            !WorkloadKind::all().contains(&WorkloadKind::Horde),
            "Horde is not one of the paper's workloads"
        );
    }

    #[test]
    fn horde_workload_is_a_scattered_swarm_at_scale() {
        let built = WorkloadSpec::new(WorkloadKind::Horde).build(1);
        assert_eq!(built.kind, WorkloadKind::Horde);
        assert!(
            built.players.bots >= 5_000,
            "Horde must be 10-100x the paper's populations"
        );
        assert!(built.players.moving);
        assert!(built.players.building);
        assert!(
            built.players.scatter >= 1_000,
            "the horde spreads out so interest sets stay small"
        );
        // Every other workload keeps the whole swarm at the spawn point.
        for kind in WorkloadKind::extended() {
            if kind != WorkloadKind::Horde {
                assert_eq!(
                    WorkloadSpec::new(kind).build(1).players.scatter,
                    0,
                    "{kind}"
                );
            }
        }
    }

    #[test]
    fn crowd_workload_is_a_clustered_builder_swarm() {
        let built = WorkloadSpec::new(WorkloadKind::Crowd).build(1);
        assert_eq!(built.kind, WorkloadKind::Crowd);
        assert!(built.players.bots >= 200, "Crowd must be player-heavy");
        assert!(built.players.moving);
        assert!(built.players.building);
        assert!(
            built.players.walk_area <= 32,
            "the crowd stays clustered so the player load is a shard hotspot"
        );
        assert!(
            !WorkloadSpec::new(WorkloadKind::Players)
                .build(1)
                .players
                .building
        );
    }
}
