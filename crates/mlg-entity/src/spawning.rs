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
//! read, so `Spawner::is_valid_spawn_position` answers as cheaply as it
//! can. It first looks up the candidate's column summary
//! ([`World::column_summary`]): feet above the column's `top` stand on air,
//! or on `top` itself under open sky (light 15); feet at or below its
//! `base` are inside solid or fluid blocks. Either way the candidate is
//! rejected without a block read. On the benchmark's workloads that settles
//! 99.4–99.7 % of candidates (the ground-air rule alone settled 35–49 %);
//! the rest go on to ground, feet, head and sky light, stopping at the
//! first read that fails.
//!
//! All of that is observationally identical to reading ground, feet and
//! head first: the summary and the reads share a column, so whichever
//! comes first generates the chunk if anything does, and [`Spawner::tick`]
//! clamps candidates to `y ≥ 1`, where the ground read is always inside the
//! world whenever a later one would be. A candidate whose ground is above
//! the world touches no chunk, as its ground read never did. The function
//! is public, so for `y ≤ 0` — ground below the world, feet or head inside
//! it — it skips the summary and still touches the column before
//! answering.

use rand::Rng;

use mlg_world::light::{sky_light_at, MAX_LIGHT};
use mlg_world::{BlockPos, World, WORLD_HEIGHT};

use crate::entity::EntityKind;
use crate::math::Vec3;

/// Maximum number of hostile mobs per loaded "spawning area" before spawning
/// pauses (the hostile mob cap).
const HOSTILE_MOB_CAP: usize = 70;

/// Sky-light level at or below which hostile mobs may spawn.
const MAX_SPAWN_LIGHT: u8 = 0;

// Open sky must be too bright: a candidate above its column's top is
// rejected without reading the light.
const _: () = assert!(MAX_SPAWN_LIGHT < MAX_LIGHT);

/// Horizontal radius around players in which spawning is attempted.
const SPAWN_RADIUS: i32 = 48;

/// Result of one spawning pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpawnOutcome {
    /// Positions (and kinds) at which new mobs should be created.
    pub spawns: Vec<(EntityKind, Vec3)>,
    /// Candidate positions examined.
    pub positions_scanned: u32,
}

/// Configuration of the spawning pass. Whether it runs at all is
/// `EntityManager::natural_spawning`.
#[derive(Debug, Clone, Copy)]
pub struct Spawner {
    /// Spawn attempts per player per tick.
    attempts_per_player: u32,
}

impl Default for Spawner {
    fn default() -> Self {
        Spawner {
            attempts_per_player: 40,
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
    /// Returns as soon as the position is ruled out: by the column's
    /// summary, then at the first failing read — ground, feet, head, then
    /// sky light. All of them are in one column, so stopping early touches
    /// (and lazily generates) the same chunk reading everything would; see
    /// the module docs for the edges of the world.
    fn is_valid_spawn_position(&self, world: &mut World, pos: BlockPos) -> bool {
        if pos.y > WORLD_HEIGHT as i32 {
            // Ground above the world reads as air and touches nothing.
            return false;
        }
        if pos.y >= 1 {
            // Ground inside the world: its column's summary loads the chunk
            // the ground read would, and settles most candidates. Above
            // `top` the ground is air, or it is `top` itself with open sky
            // above the feet (light 15); at or below `base` the feet block
            // is solid or fluid.
            let (base, top) = world.column_summary(pos.x, pos.z);
            if pos.y > top || pos.y <= base {
                return false;
            }
        }
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
    /// when it is at or above `HOSTILE_MOB_CAP` no new mobs spawn, but the
    /// candidate scan (and its cost) still happens, matching real servers.
    pub fn tick<R: Rng>(
        &self,
        world: &mut World,
        players: &[Vec3],
        current_hostile_count: usize,
        rng: &mut R,
    ) -> SpawnOutcome {
        let mut outcome = SpawnOutcome::default();
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
    use mlg_world::generation::{FlatGenerator, NoiseGenerator};
    use mlg_world::{Block, BlockKind, ChunkPos, Region, ShardMap, TickPipeline};
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

    /// A flat world (grass at y = 60), or for seeds 3 mod 4 a noise world
    /// of trees, beaches and sea, cluttered over the columns around the
    /// origin with what a column summary must get right — roofs and
    /// overhangs, water and lava, plants, dust and torches on the grass
    /// (top above base), air pockets under the grass and at bedrock level,
    /// blocks at the top of the world — or, for every fourth seed, nothing
    /// loaded at all. Odd seeds then move every chunk into a quadtree of
    /// seven `Regions` shards.
    fn cluttered_world(seed: u64) -> World {
        if seed.is_multiple_of(4) {
            return world();
        }
        let mut w = if seed % 4 == 3 {
            World::new(Box::new(NoiseGenerator::new(seed)), 7)
        } else {
            world()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let open = [
            BlockKind::Wheat,
            BlockKind::SugarCane,
            BlockKind::Sapling,
            BlockKind::RedstoneTorch,
            BlockKind::RedstoneDust,
        ];
        for _ in 0..160 {
            let (x, z) = (rng.gen_range(-24..=24), rng.gen_range(-24..=24));
            // Heights are taken from the column's surface `s`.
            let s = w.highest_block_y(x, z).unwrap_or(0);
            let mut fill = |(y_lo, y_hi): (i32, i32), (dx, dz): (i32, i32), kind: BlockKind| {
                let region = Region::new(
                    BlockPos::new(x, y_lo, z),
                    BlockPos::new(x + dx, y_hi, z + dz),
                );
                w.fill_region(region, Block::simple(kind));
            };
            match rng.gen_range(0..10) {
                // A roof, and an overhang: a pillar carrying a plate.
                0 => fill((s + 4, s + 4), (0, 0), BlockKind::Stone),
                1 => {
                    fill((s + 1, s + 4), (0, 0), BlockKind::Stone);
                    fill((s + 4, s + 4), (3, 2), BlockKind::Planks);
                }
                // Fluids: standing water, lava in the ground.
                2 => fill((s + 1, s + 3), (0, 0), BlockKind::Water),
                3 => fill((s, s + 1), (0, 0), BlockKind::Lava),
                4 => fill((s + 1, s + 1), (0, 0), open[rng.gen_range(0..open.len())]),
                // Pockets roofed by the ground, holes in the bedrock.
                5 => fill((s - 3, s - 1), (1, 1), BlockKind::Air),
                6 => fill((0, 0), (0, 0), BlockKind::Air),
                // The top of the world.
                7 => fill((127, 127), (0, 0), BlockKind::Stone),
                8 => fill((126, 126), (1, 0), BlockKind::Grass),
                _ => fill((s + 2, s + 2), (0, 0), BlockKind::Stone),
            }
        }
        if seed % 2 == 1 {
            let bounds = Some((ChunkPos::new(-8, -8), ChunkPos::new(7, 7)));
            w.reshard(TickPipeline::adaptive(bounds, 7, 1).shard_map().clone());
            assert_eq!(w.shard_map().count(), 7);
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
                    0 => [-2, -1, 0, 1, 2, 126, 127, 128, 129, 130][rng.gen_range(0..10)],
                    1 => rng.gen_range(56..=66),
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
        for seed in [1_u64, 2, 3, 4] {
            let (mut expected_world, mut actual_world) =
                (cluttered_world(seed), cluttered_world(seed));
            let spawner = Spawner::new();
            let (mut expected_rng, mut actual_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            // One player over the clutter, one far out over unloaded
            // columns, one low enough for the `y ≥ 1` clamp to bite, one
            // whose candidates reach 116..=132 over the top-of-world
            // clutter, and one whose candidates (129..=145) all stand on
            // ground above the world, over columns nothing else loads.
            let players = [
                Vec3::new(0.5, 61.0, 0.5),
                Vec3::new(300.5, 61.0, -180.5),
                Vec3::new(-10.5, 4.0, 12.5),
                Vec3::new(8.5, 124.0, -8.5),
                Vec3::new(-420.5, 137.0, 260.5),
            ];
            let mut hostile = 0;
            let mut spawned = 0;
            for tick in 0..200 {
                if tick == 100 {
                    // Stores move under the chunk cursor mid-run.
                    expected_world.reshard(ShardMap::stripes(3));
                    actual_world.reshard(ShardMap::stripes(3));
                }
                let expected = reference_tick(
                    &spawner,
                    &mut expected_world,
                    &players,
                    hostile,
                    &mut expected_rng,
                );
                let actual = spawner.tick(&mut actual_world, &players, hostile, &mut actual_rng);
                let ctx = format!("seed {seed}, tick {tick}");
                assert_eq!(actual, expected, "{ctx}");
                assert_eq!(
                    actual_world.chunks_generated_this_tick(),
                    expected_world.chunks_generated_this_tick(),
                    "{ctx}"
                );
                assert_eq!(loaded(&actual_world), loaded(&expected_world), "{ctx}");
                expected_world.advance_tick();
                actual_world.advance_tick();
                spawned += actual.spawns.len();
                // Let the cap come and go.
                hostile = (hostile + actual.spawns.len()) % (HOSTILE_MOB_CAP + 5);
            }
            assert!(
                spawned > 0 || seed == 4,
                "seed {seed}: the clutter must admit spawns"
            );
            let far_above = BlockPos::new(-420, 0, 260).chunk();
            assert!(
                actual_world.chunk_if_loaded(far_above).is_none(),
                "seed {seed}: ground above the world loaded a chunk"
            );
            assert_eq!(actual_rng.gen::<u64>(), expected_rng.gen::<u64>());
        }
    }

    /// The clutter reaches every branch: candidates settled above `top`,
    /// candidates settled at or below `base`, and candidates the summaries
    /// leave to the block reads — among them plant-topped columns, pockets
    /// and roofs, where mobs do spawn.
    #[test]
    fn the_summaries_settle_most_candidates_and_leave_the_rest_to_the_reads() {
        let (mut above, mut under, mut read, mut valid) = (0, 0, 0, 0);
        for seed in [1_u64, 2, 3, 5, 6, 7] {
            let mut w = cluttered_world(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..4_000 {
                let pos = BlockPos::new(
                    rng.gen_range(-24..=24),
                    rng.gen_range(53..=69),
                    rng.gen_range(-24..=24),
                );
                let verdict = Spawner::new().is_valid_spawn_position(&mut w, pos);
                let (base, top) = w.column_summary(pos.x, pos.z);
                if pos.y > top {
                    above += 1;
                } else if pos.y <= base {
                    under += 1;
                } else {
                    read += 1;
                    valid += usize::from(verdict);
                }
                // Strictly under `top`: feet at `top` are blocked or under
                // open sky, so `y ≥ top` would settle exactly too.
                assert!(!verdict || (base < pos.y && pos.y < top), "{pos}");
            }
        }
        assert!(above > 0 && under > 0 && read > 0 && valid > 0);
        let settled = f64::from(above + under) / f64::from(above + under + read);
        assert!(settled > 0.9, "{above} above, {under} under, {read} read");
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
        };
        let mut rng = StdRng::seed_from_u64(3);
        let players = vec![Vec3::new(0.5, 61.0, 0.5)];
        let outcome = spawner.tick(&mut w, &players, HOSTILE_MOB_CAP, &mut rng);
        assert!(outcome.spawns.is_empty());
        assert_eq!(outcome.positions_scanned, 100);
    }
}
