//! Dynamic entity spawning.
//!
//! "In contrast to static environments, where game developers typically place
//! these spawn points manually, MLGs need to compute spawn points dynamically
//! as terrain modification may obstruct existing spawn points."
//! (Section 2.2.3.)
//!
//! Hostile mobs spawn on dark, spawnable surfaces near players (the mechanism
//! exploited by the entity farms of the Farm workload); the spawner scans
//! candidate positions every tick, which costs work even when nothing spawns.
//!
//! The scan is modeled per *candidate* (`positions_scanned`), not per block
//! read, so [`Spawner::is_valid_spawn_position`] stops at the first read
//! that fails — most of a player's 40 attempts per tick die on the ground
//! block. That is observationally identical to reading ground, feet and
//! head first: the reads share a column, so whichever comes first
//! generates the chunk if anything does, and [`Spawner::tick`] clamps
//! candidates to `y ≥ 1`, where the ground read is always inside the world
//! whenever a later one would be. The function is public, so for `y ≤ 0` —
//! ground below the world, feet or head inside it — it still touches the
//! column before answering.

use rand::Rng;

use mlg_world::light::sky_light_at;
use mlg_world::{BlockPos, World};

use crate::entity::EntityKind;
use crate::math::Vec3;

/// Maximum number of hostile mobs per loaded "spawning area" before spawning
/// pauses (the hostile mob cap).
pub const HOSTILE_MOB_CAP: usize = 70;

/// Sky-light level at or below which hostile mobs may spawn.
pub const MAX_SPAWN_LIGHT: u8 = 0;

/// Horizontal radius around players in which spawning is attempted.
pub const SPAWN_RADIUS: i32 = 48;

/// Result of one spawning pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpawnOutcome {
    /// Positions (and kinds) at which new mobs should be created.
    pub spawns: Vec<(EntityKind, Vec3)>,
    /// Candidate positions examined.
    pub positions_scanned: u32,
}

/// Configuration of the spawning pass.
#[derive(Debug, Clone, Copy)]
pub struct Spawner {
    /// Spawn attempts per player per tick.
    pub attempts_per_player: u32,
    /// Whether hostile spawning is enabled at all.
    pub hostile_spawning: bool,
}

impl Default for Spawner {
    fn default() -> Self {
        Spawner {
            attempts_per_player: 40,
            hostile_spawning: true,
        }
    }
}

impl Spawner {
    /// Creates a spawner with default settings.
    #[must_use]
    pub fn new() -> Self {
        Spawner::default()
    }

    /// Returns `true` if a hostile mob could spawn standing at `pos`:
    /// spawnable solid ground below, two passable blocks of room, and no sky
    /// light (dark).
    ///
    /// Returns at the first read that rules the position out — ground,
    /// feet, head, then sky light. All of them are in one column, so
    /// stopping early touches (and lazily generates) the same chunk reading
    /// everything would; see the module docs for the one exception handled
    /// below.
    pub fn is_valid_spawn_position(&self, world: &mut World, pos: BlockPos) -> bool {
        if !world.block(pos.down()).kind().is_spawnable_surface() {
            if pos.y <= 0 {
                // The ground read was below the world and touched nothing;
                // the reads above it are what load this column.
                let _ = world.block(pos.up());
            }
            return false;
        }
        let feet = world.block(pos);
        if feet.is_solid() || feet.kind().is_fluid() || world.block(pos.up()).is_solid() {
            return false;
        }
        // `<=` keeps the comparison correct if MAX_SPAWN_LIGHT is ever
        // raised above 0 (its current value makes this equivalent to `==`).
        #[allow(clippy::absurd_extreme_comparisons)]
        let dark_enough = sky_light_at(world, pos) <= MAX_SPAWN_LIGHT;
        dark_enough
    }

    /// Runs one spawning pass around the given player positions.
    ///
    /// `current_hostile_count` is the number of hostile mobs already alive;
    /// when it is at or above [`HOSTILE_MOB_CAP`] no new mobs spawn, but the
    /// candidate scan (and its cost) still happens, matching real servers.
    pub fn tick<R: Rng>(
        &self,
        world: &mut World,
        players: &[Vec3],
        current_hostile_count: usize,
        rng: &mut R,
    ) -> SpawnOutcome {
        let mut outcome = SpawnOutcome::default();
        if !self.hostile_spawning {
            return outcome;
        }
        for player in players {
            for _ in 0..self.attempts_per_player {
                let dx = rng.gen_range(-SPAWN_RADIUS..=SPAWN_RADIUS);
                let dz = rng.gen_range(-SPAWN_RADIUS..=SPAWN_RADIUS);
                let dy = rng.gen_range(-8..=8);
                let candidate = BlockPos::new(
                    player.x.floor() as i32 + dx,
                    (player.y.floor() as i32 + dy).max(1),
                    player.z.floor() as i32 + dz,
                );
                outcome.positions_scanned += 1;
                if current_hostile_count + outcome.spawns.len() >= HOSTILE_MOB_CAP {
                    continue;
                }
                if self.is_valid_spawn_position(world, candidate) {
                    let kind = if rng.gen_bool(0.7) {
                        EntityKind::Zombie
                    } else {
                        EntityKind::Skeleton
                    };
                    outcome
                        .spawns
                        .push((kind, Vec3::from_block_center(candidate)));
                }
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlg_world::generation::FlatGenerator;
    use mlg_world::{Block, BlockKind, ChunkPos};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    /// Builds a dark platform (roofed area) like an entity farm's spawning
    /// floor, and returns a position on it.
    fn build_dark_platform(w: &mut World) -> BlockPos {
        let base = BlockPos::new(4, 61, 4);
        for dx in -3..=3 {
            for dz in -3..=3 {
                // Roof 3 blocks above the floor blocks all sky light.
                w.set_block_silent(base.offset(dx, 3, dz), Block::simple(BlockKind::Stone));
            }
        }
        base
    }

    /// The validity check as it was before the early return, kept as the
    /// oracle: all three blocks are read before any is judged.
    fn reference_is_valid_spawn_position(world: &mut World, pos: BlockPos) -> bool {
        let ground = world.block(pos.down());
        let feet = world.block(pos);
        let head = world.block(pos.up());
        if !ground.kind().is_spawnable_surface() || feet.is_solid() || head.is_solid() {
            return false;
        }
        if feet.kind().is_fluid() {
            return false;
        }
        #[allow(clippy::absurd_extreme_comparisons)]
        let dark_enough = sky_light_at(world, pos) <= MAX_SPAWN_LIGHT;
        dark_enough
    }

    /// [`Spawner::tick`] as it was, over the reference check.
    fn reference_tick(
        spawner: &Spawner,
        world: &mut World,
        players: &[Vec3],
        current_hostile_count: usize,
        rng: &mut StdRng,
    ) -> SpawnOutcome {
        let mut outcome = SpawnOutcome::default();
        if !spawner.hostile_spawning {
            return outcome;
        }
        for player in players {
            for _ in 0..spawner.attempts_per_player {
                let dx = rng.gen_range(-SPAWN_RADIUS..=SPAWN_RADIUS);
                let dz = rng.gen_range(-SPAWN_RADIUS..=SPAWN_RADIUS);
                let dy = rng.gen_range(-8..=8);
                let candidate = BlockPos::new(
                    player.x.floor() as i32 + dx,
                    (player.y.floor() as i32 + dy).max(1),
                    player.z.floor() as i32 + dz,
                );
                outcome.positions_scanned += 1;
                if current_hostile_count + outcome.spawns.len() >= HOSTILE_MOB_CAP {
                    continue;
                }
                if reference_is_valid_spawn_position(world, candidate) {
                    let kind = if rng.gen_bool(0.7) {
                        EntityKind::Zombie
                    } else {
                        EntityKind::Skeleton
                    };
                    outcome
                        .spawns
                        .push((kind, Vec3::from_block_center(candidate)));
                }
            }
        }
        outcome
    }

    /// A flat world with roofs, water, ceilings at the top of the world and
    /// bedrock-level holes scattered over the columns around the origin, or
    /// — for every fourth seed — nothing loaded at all.
    fn cluttered_world(seed: u64) -> World {
        let mut w = world();
        if seed.is_multiple_of(4) {
            return w;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..120 {
            let x = rng.gen_range(-24..=24);
            let z = rng.gen_range(-24..=24);
            let (y, kind) = match rng.gen_range(0..6) {
                0 => (64, BlockKind::Stone),
                1 => (61, BlockKind::Water),
                2 => (62, BlockKind::Stone),
                3 => (127, BlockKind::Stone),
                4 => (126, BlockKind::Grass),
                _ => (0, BlockKind::Air),
            };
            w.set_block_silent(BlockPos::new(x, y, z), Block::simple(kind));
        }
        w
    }

    fn loaded(w: &World) -> Vec<ChunkPos> {
        w.iter_chunks().map(mlg_world::Chunk::pos).collect()
    }

    proptest::proptest! {
        #[test]
        fn early_return_matches_reading_everything_first(seed in proptest::prelude::any::<u64>()) {
            let (mut expected_world, mut actual_world) = (cluttered_world(seed), cluttered_world(seed));
            let spawner = Spawner::new();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            for _ in 0..200 {
                let y = match rng.gen_range(0..3) {
                    0 => [-2, -1, 0, 1, 126, 127, 128, 129][rng.gen_range(0..8)],
                    1 => rng.gen_range(58..=66),
                    _ => rng.gen_range(-4..=132),
                };
                let pos = BlockPos::new(rng.gen_range(-40..=40), y, rng.gen_range(-40..=40));
                assert_eq!(
                    spawner.is_valid_spawn_position(&mut actual_world, pos),
                    reference_is_valid_spawn_position(&mut expected_world, pos),
                    "verdict at {pos}"
                );
                assert_eq!(loaded(&actual_world), loaded(&expected_world), "chunks after {pos}");
                assert_eq!(
                    actual_world.chunks_generated_this_tick(),
                    expected_world.chunks_generated_this_tick()
                );
            }
        }
    }

    #[test]
    fn two_hundred_spawning_passes_match_the_reference_draw_for_draw() {
        for seed in [1_u64, 2, 4] {
            let (mut expected_world, mut actual_world) =
                (cluttered_world(seed), cluttered_world(seed));
            let spawner = Spawner::new();
            let (mut expected_rng, mut actual_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            // One player over the clutter, one far out over unloaded
            // columns, one low enough for the `y ≥ 1` clamp to bite.
            let players = [
                Vec3::new(0.5, 61.0, 0.5),
                Vec3::new(300.5, 61.0, -180.5),
                Vec3::new(-10.5, 4.0, 12.5),
            ];
            let mut hostile = 0;
            let mut spawned = 0;
            for tick in 0..200 {
                let expected = reference_tick(
                    &spawner,
                    &mut expected_world,
                    &players,
                    hostile,
                    &mut expected_rng,
                );
                let actual = spawner.tick(&mut actual_world, &players, hostile, &mut actual_rng);
                assert_eq!(actual, expected, "seed {seed}, tick {tick}");
                spawned += actual.spawns.len();
                // Let the cap come and go.
                hostile = (hostile + actual.spawns.len()) % (HOSTILE_MOB_CAP + 5);
            }
            assert!(
                spawned > 0 || seed == 4,
                "seed {seed}: the clutter must admit spawns"
            );
            assert_eq!(loaded(&actual_world), loaded(&expected_world));
            assert_eq!(actual_rng.gen::<u64>(), expected_rng.gen::<u64>());
        }
    }

    #[test]
    fn surface_positions_are_too_bright() {
        let mut w = world();
        let spawner = Spawner::new();
        // Open grass at noon: sky light 15, no spawning.
        assert!(!spawner.is_valid_spawn_position(&mut w, BlockPos::new(0, 61, 0)));
    }

    #[test]
    fn dark_covered_positions_are_valid() {
        let mut w = world();
        let spawner = Spawner::new();
        let pos = build_dark_platform(&mut w);
        assert!(spawner.is_valid_spawn_position(&mut w, pos));
    }

    #[test]
    fn blocked_positions_are_invalid() {
        let mut w = world();
        let spawner = Spawner::new();
        let pos = build_dark_platform(&mut w);
        w.set_block_silent(pos, Block::simple(BlockKind::Stone));
        assert!(!spawner.is_valid_spawn_position(&mut w, pos));
    }

    #[test]
    fn water_positions_are_invalid() {
        let mut w = world();
        let spawner = Spawner::new();
        let pos = build_dark_platform(&mut w);
        w.set_block_silent(pos, Block::simple(BlockKind::Water));
        assert!(!spawner.is_valid_spawn_position(&mut w, pos));
    }

    #[test]
    fn spawning_pass_finds_dark_platform() {
        let mut w = world();
        w.ensure_area(ChunkPos::new(0, 0), 3);
        // Build a large dark platform so random attempts hit it.
        for dx in -20..=20 {
            for dz in -20..=20 {
                w.set_block_silent(BlockPos::new(dx, 64, dz), Block::simple(BlockKind::Stone));
            }
        }
        let spawner = Spawner {
            attempts_per_player: 1_000,
            hostile_spawning: true,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let players = vec![Vec3::new(0.5, 61.0, 0.5)];
        let outcome = spawner.tick(&mut w, &players, 0, &mut rng);
        assert!(outcome.positions_scanned == 1_000);
        assert!(
            !outcome.spawns.is_empty(),
            "the dark area should produce spawns"
        );
        for (kind, _) in &outcome.spawns {
            assert!(kind.is_hostile());
        }
    }

    #[test]
    fn mob_cap_stops_spawning_but_not_scanning() {
        let mut w = world();
        for dx in -20..=20 {
            for dz in -20..=20 {
                w.set_block_silent(BlockPos::new(dx, 64, dz), Block::simple(BlockKind::Stone));
            }
        }
        let spawner = Spawner {
            attempts_per_player: 100,
            hostile_spawning: true,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let players = vec![Vec3::new(0.5, 61.0, 0.5)];
        let outcome = spawner.tick(&mut w, &players, HOSTILE_MOB_CAP, &mut rng);
        assert!(outcome.spawns.is_empty());
        assert_eq!(outcome.positions_scanned, 100);
    }

    #[test]
    fn disabled_spawner_does_nothing() {
        let mut w = world();
        let spawner = Spawner {
            attempts_per_player: 100,
            hostile_spawning: false,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = spawner.tick(&mut w, &[Vec3::ZERO], 0, &mut rng);
        assert_eq!(outcome, SpawnOutcome::default());
    }
}
