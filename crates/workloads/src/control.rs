//! The Control workload: a freshly generated world.
//!
//! "The Control world is an unmodified world generated by Minecraft version
//! 1.16.4 using the seed -392114485. The measured results of this workload
//! are used as a workload-level baseline to compare the other workloads."
//! (Section 3.3.1.) The reproduction uses the procedural noise generator with
//! the same (absolute-valued) seed.

use mlg_entity::{EntityKind, Vec3};
use mlg_world::generation::NoiseGenerator;
use mlg_world::{ChunkPos, World};

use crate::spec::{BuiltWorkload, PlayerWorkload, WorkloadKind};

/// Radius, in chunks, of the pre-generated spawn area.
const PREGENERATED_RADIUS: u32 = 4;

/// Builds the Control world.
#[must_use]
pub fn build(seed: u64) -> BuiltWorkload {
    let mut world = World::new(Box::new(NoiseGenerator::new(seed)), seed);
    world.ensure_area(ChunkPos::new(0, 0), PREGENERATED_RADIUS);
    // Pick a dry spawn column: walk outwards from the origin until the
    // highest block is solid ground rather than the ocean surface.
    let mut spawn_point = Vec3::new(8.5, 65.0, 8.5);
    'search: for ring in 0..48 {
        for (x, z) in [(8 + ring, 8), (8 - ring, 8), (8, 8 + ring), (8, 8 - ring)] {
            let surface = world.highest_block_y(x, z).unwrap_or(64);
            let top = world.block(mlg_world::BlockPos::new(x, surface, z));
            if top.is_solid() {
                spawn_point = Vec3::new(
                    f64::from(x) + 0.5,
                    f64::from(surface) + 1.0,
                    f64::from(z) + 0.5,
                );
                break 'search;
            }
        }
    }
    // Freshly generated worlds come with ambient passive mobs near spawn;
    // their movement is the baseline entity workload and traffic.
    let mut ambient_entities = Vec::new();
    for i in 0..14 {
        let angle = f64::from(i) / 14.0 * std::f64::consts::TAU;
        let x = spawn_point.x + angle.cos() * 12.0;
        let z = spawn_point.z + angle.sin() * 12.0;
        let y = world
            .highest_block_y(x.floor() as i32, z.floor() as i32)
            .unwrap_or(64);
        let kind = if i % 4 == 0 {
            EntityKind::Villager
        } else {
            EntityKind::Cow
        };
        ambient_entities.push((kind, Vec3::new(x, f64::from(y) + 1.0, z)));
    }
    BuiltWorkload {
        kind: WorkloadKind::Control,
        world,
        spawn_point,
        players: PlayerWorkload::single_observer(),
        tnt_fuse_delay_ticks: None,
        ambient_entities,
        description: format!(
            "freshly generated noise world, seed {seed}, {PREGENERATED_RADIUS}-chunk pregenerated radius"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_world_is_pregenerated_around_spawn() {
        let built = build(392_114_485);
        let expected = (2 * PREGENERATED_RADIUS + 1) * (2 * PREGENERATED_RADIUS + 1);
        assert_eq!(built.world.loaded_chunk_count(), expected as usize);
    }

    #[test]
    fn spawn_point_is_above_the_surface() {
        let mut built = build(392_114_485);
        let below = built.spawn_point - Vec3::new(0.0, 1.0, 0.0);
        assert!(built.world.block(below.block_pos()).is_solid());
        assert!(!built.world.block(built.spawn_point.block_pos()).is_solid());
    }

    #[test]
    fn same_seed_builds_identical_worlds() {
        let a = build(7);
        let b = build(7);
        assert_eq!(
            a.world.total_non_air_blocks(),
            b.world.total_non_air_blocks()
        );
        assert_eq!(a.spawn_point, b.spawn_point);
    }
}
