//! The TNT workload: a cuboid of TNT detonated shortly after a player joins.
//!
//! "The TNT world contains a 16-by-16-by-14 cuboid filled with TNT blocks
//! which are set to explode around 20 seconds after a player connects. […]
//! when a large section of TNT is activated, the MLG must perform a large
//! number of both entity-collision and physics calculations."
//! (Section 3.3.1.)

use mlg_entity::Vec3;
use mlg_world::generation::FlatGenerator;
use mlg_world::{Block, BlockKind, BlockPos, ChunkPos, Region, World};

use crate::spec::{BuiltWorkload, PlayerWorkload, WorkloadKind};

/// Ticks between experiment start and TNT ignition (~20 seconds at 20 Hz).
const FUSE_DELAY_TICKS: u64 = 400;

/// Dimensions of the TNT cuboid (x, y, z), matching Table 2.
const CUBOID_DIMENSIONS: (u32, u32, u32) = (16, 14, 16);

/// Distance between the spawn point and the nearest cuboid face, in blocks.
const STANDOFF: i32 = 24;

/// Builds the TNT world.
#[must_use]
pub fn build(seed: u64) -> BuiltWorkload {
    let generator = FlatGenerator::grassland();
    let surface = generator.surface_y();
    let mut world = World::new(Box::new(generator), seed);
    world.ensure_area(ChunkPos::new(0, 0), 4);

    let (dx, dy, dz) = CUBOID_DIMENSIONS;
    let min = BlockPos::new(STANDOFF, surface + 1, 0);
    let max = min.offset(dx as i32 - 1, dy as i32 - 1, dz as i32 - 1);
    let region = Region::new(min, max);
    world.fill_region(region, Block::simple(BlockKind::Tnt));

    let spawn_point = Vec3::new(0.5, f64::from(surface) + 1.0, 8.5);
    BuiltWorkload {
        kind: WorkloadKind::Tnt,
        world,
        spawn_point,
        players: PlayerWorkload::single_observer(),
        tnt_fuse_delay_ticks: Some(FUSE_DELAY_TICKS),
        ambient_entities: Vec::new(),
        description: format!(
            "{}x{}x{} TNT cuboid ({} blocks), fused {} ticks after start",
            dx,
            dy,
            dz,
            region.volume(),
            FUSE_DELAY_TICKS
        ),
    }
}

/// Builds the clustered-TNT *hotspot* scene used by the shard-rebalancing
/// regression tests (not one of the paper's workloads).
///
/// Six TNT slabs sit inside the first 4-chunk x-stripe, spread along z —
/// the shape a static stripe partition piles onto a single shard (one
/// stripe owns the whole column) while an adaptive 2D region partition can
/// split along z and spread across shards.
#[must_use]
// detlint: allow(pub-without-caller) -- tests/sharded_determinism.rs and tests/tnt_ignition.rs build this scene
pub fn clustered_hotspot_world(seed: u64) -> World {
    let mut world = World::new(Box::new(FlatGenerator::grassland()), seed);
    world.ensure_area(ChunkPos::new(8, 8), 8);
    for cluster in 0..6 {
        let z0 = 8 + cluster * 40;
        world.fill_region(
            Region::new(BlockPos::new(8, 61, z0), BlockPos::new(40, 62, z0 + 8)),
            Block::simple(BlockKind::Tnt),
        );
    }
    world
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_hotspot_sits_inside_one_x_stripe() {
        let world = clustered_hotspot_world(7);
        assert!(world.count_kind(BlockKind::Tnt) > 0);
        // Every TNT block lives in chunk columns 0..3 — a single 4-chunk
        // stripe — which is the property the rebalancing comparison needs.
        for chunk in world.iter_chunks() {
            if chunk.count_kind(BlockKind::Tnt) > 0 {
                assert!(
                    (0..4).contains(&chunk.pos().x),
                    "TNT leaked outside the first stripe: {:?}",
                    chunk.pos()
                );
            }
        }
    }

    #[test]
    fn cuboid_has_the_paper_dimensions_at_scale_one() {
        let built = build(1);
        let tnt = built.world.count_kind(BlockKind::Tnt);
        assert_eq!(tnt, 16 * 14 * 16);
    }

    #[test]
    fn fuse_is_about_twenty_seconds() {
        let built = build(1);
        assert_eq!(built.tnt_fuse_delay_ticks, Some(400));
        // 400 ticks at 50 ms = 20 s.
        assert_eq!(400 * 50, 20_000);
    }

    #[test]
    fn spawn_is_outside_the_blast_cuboid() {
        let built = build(1);
        let spawn_block = built.spawn_point.block_pos();
        assert!(
            spawn_block.x < STANDOFF - 4,
            "observer spawns away from the cuboid"
        );
    }
}
