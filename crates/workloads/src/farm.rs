//! The Farm workload: popular community resource-farm constructs.
//!
//! Table 3 of the paper lists the constructs placed in the Farm world: 12
//! entity farms, 4 stone farms, 4 kelp farms and 1 item sorter, sourced from
//! popular community creators. The original world downloads cannot be
//! redistributed, so this module rebuilds functionally equivalent constructs
//! from the simulation primitives this repository implements:
//!
//! * **entity farm** — a roofed, dark spawning platform near the player;
//!   hostile mobs spawn there and exercise spawning, AI and pathfinding;
//! * **stone farm** — a clock-driven dispenser that periodically ejects
//!   cobblestone item entities next to a hopper (periodic activation roughly
//!   every 0.75 s; the paper's farms activate every ~4 s but with an order of
//!   magnitude more moving parts each);
//! * **kelp farm** — kelp growing in a water basin, harvested by a
//!   clock-driven piston, with hoppers collecting the drops;
//! * **item sorter** — a hopper/chest line with a repeater chain that item
//!   entities are funnelled through.

use mlg_entity::Vec3;
use mlg_world::generation::FlatGenerator;
use mlg_world::{Block, BlockKind, BlockPos, ChunkPos, World};

use crate::spec::{BuiltWorkload, PlayerWorkload, WorkloadKind};

/// Number of entity farms (Table 3).
pub(crate) const ENTITY_FARMS: u32 = 12;
/// Number of stone farms (Table 3).
pub(crate) const STONE_FARMS: u32 = 4;
/// Number of kelp farms (Table 3).
pub(crate) const KELP_FARMS: u32 = 4;
/// Number of item sorters (Table 3).
pub(crate) const ITEM_SORTERS: u32 = 1;

/// Clock period (in game ticks) used by the farm activation clocks.
const FARM_CLOCK_PERIOD: u8 = 15;

/// Length of the redstone bus that distributes each farm's activation pulse
/// to its moving parts. The bus is what turns an activation into a burst of
/// block updates and relighting, mirroring how the paper's farm constructs
/// produce periodic load spikes.
const FARM_BUS_LENGTH: i32 = 24;

fn place(world: &mut World, pos: BlockPos, kind: BlockKind) {
    world.set_block_silent(pos, Block::simple(kind));
}

fn place_state(world: &mut World, pos: BlockPos, kind: BlockKind, state: u8) {
    world.set_block_silent(pos, Block::with_state(kind, state));
}

/// Builds one roofed dark platform where hostile mobs can spawn.
fn build_entity_farm(world: &mut World, origin: BlockPos) {
    let size = 9;
    for dx in 0..size {
        for dz in 0..size {
            // Solid floor one block above the terrain surface keeps the farm
            // isolated from terrain changes.
            place(world, origin.offset(dx, 0, dz), BlockKind::Stone);
            // Roof three blocks above the floor blocks all sky light.
            place(world, origin.offset(dx, 3, dz), BlockKind::Stone);
        }
    }
    // Collection hoppers along one edge of the platform.
    for dz in 0..size {
        place(world, origin.offset(0, 1, dz), BlockKind::Hopper);
    }
}

/// Builds one clock-driven dispenser "stone farm".
fn build_stone_farm(world: &mut World, origin: BlockPos) {
    let clock = origin;
    place_state(world, clock, BlockKind::Comparator, FARM_CLOCK_PERIOD);
    place(world, clock.offset(1, 0, 0), BlockKind::RedstoneDust);
    place(world, clock.offset(2, 0, 0), BlockKind::Dispenser);
    place(world, clock.offset(2, 0, 1), BlockKind::Hopper);
    place(world, clock.offset(2, 0, -1), BlockKind::Chest);
    // The activation bus that feeds the farm's moving parts.
    for k in 1..=FARM_BUS_LENGTH {
        place(world, clock.offset(-k, 0, 0), BlockKind::RedstoneDust);
    }
    // A decorative lava/water corner so the construct also owns fluid state.
    place(world, clock.offset(0, 0, 3), BlockKind::Lava);
    place(world, clock.offset(2, 0, 3), BlockKind::Water);
    world.schedule_tick(clock, 1);
}

/// Builds one kelp farm: a water basin with kelp, a harvesting piston driven
/// by a clock, and a hopper floor.
fn build_kelp_farm(world: &mut World, origin: BlockPos) {
    // Basin walls (3 wide, 4 tall) filled with water.
    for dy in 0..4 {
        for dx in -1..=1 {
            for dz in -1..=1 {
                let pos = origin.offset(dx, dy, dz);
                if dx.abs() == 1 || dz.abs() == 1 {
                    place(world, pos, BlockKind::Glass);
                } else {
                    place(world, pos, BlockKind::Water);
                }
            }
        }
    }
    // Hopper below the kelp column, kelp planted inside the water.
    place(world, origin.offset(0, -1, 0), BlockKind::Hopper);
    place(world, origin, BlockKind::Kelp);
    // Harvesting piston at the height kelp grows into, driven by a clock.
    let piston = origin.offset(1, 1, 0);
    place(world, piston, BlockKind::Piston);
    let clock = origin.offset(2, 1, 0);
    place_state(world, clock, BlockKind::Comparator, FARM_CLOCK_PERIOD);
    // The activation bus that feeds the farm's moving parts.
    for k in 1..=FARM_BUS_LENGTH {
        place(world, clock.offset(k, 0, 0), BlockKind::RedstoneDust);
    }
    // Kelp farms activate on the off-beat relative to stone farms.
    world.schedule_tick(clock, 8);
}

/// Builds the item sorter: a hopper line with chests and a repeater chain,
/// fed by a clock-driven dispenser.
fn build_item_sorter(world: &mut World, origin: BlockPos) {
    let length = 8;
    for i in 0..length {
        place(world, origin.offset(i, 0, 0), BlockKind::Hopper);
        place(world, origin.offset(i, -1, 0), BlockKind::Chest);
        place(world, origin.offset(i, 0, 1), BlockKind::Repeater);
        place(world, origin.offset(i, 0, 2), BlockKind::RedstoneDust);
    }
    let dispenser = origin.offset(-1, 1, 0);
    place(world, dispenser, BlockKind::Dispenser);
    let clock = origin.offset(-2, 1, 0);
    place_state(world, clock, BlockKind::Comparator, FARM_CLOCK_PERIOD);
    world.schedule_tick(clock, 1);
}

/// Builds the Farm world.
#[must_use]
pub fn build(seed: u64) -> BuiltWorkload {
    let generator = FlatGenerator::grassland();
    let surface = generator.surface_y();
    let mut world = World::new(Box::new(generator), seed);
    world.ensure_area(ChunkPos::new(0, 0), 4);
    let base_y = surface + 1;

    let mut constructs = 0u32;
    // Entity farms in a ring around spawn, close enough for the spawner's
    // per-player radius to cover them.
    for i in 0..ENTITY_FARMS {
        let angle = f64::from(i) / f64::from(ENTITY_FARMS) * std::f64::consts::TAU;
        let cx = (angle.cos() * 26.0).round() as i32;
        let cz = (angle.sin() * 26.0).round() as i32;
        build_entity_farm(&mut world, BlockPos::new(cx, base_y, cz));
        constructs += 1;
    }
    // Stone farms west of spawn.
    for i in 0..STONE_FARMS {
        build_stone_farm(&mut world, BlockPos::new(-14, base_y, -10 + 6 * i as i32));
        constructs += 1;
    }
    // Kelp farms east of spawn.
    for i in 0..KELP_FARMS {
        build_kelp_farm(&mut world, BlockPos::new(14, base_y, -10 + 6 * i as i32));
        constructs += 1;
    }
    // Item sorter(s) north of spawn.
    for i in 0..ITEM_SORTERS {
        build_item_sorter(&mut world, BlockPos::new(-4, base_y, 16 + 4 * i as i32));
        constructs += 1;
    }

    let spawn_point = Vec3::new(0.5, f64::from(base_y), 0.5);
    // Farm worlds keep a handful of villagers around their constructs.
    let ambient_entities = (0..6)
        .map(|i| {
            (
                mlg_entity::EntityKind::Villager,
                Vec3::new(4.0 + f64::from(i) * 2.0, f64::from(base_y), 6.5),
            )
        })
        .collect();
    BuiltWorkload {
        kind: WorkloadKind::Farm,
        world,
        spawn_point,
        players: PlayerWorkload::single_observer(),
        tnt_fuse_delay_ticks: None,
        ambient_entities,
        description: format!(
            "{constructs} resource-farm constructs ({} entity, {} stone, {} kelp, {} sorter)",
            ENTITY_FARMS, STONE_FARMS, KELP_FARMS, ITEM_SORTERS
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_world_contains_the_table3_constructs() {
        let built = build(1);
        // Hoppers appear in every construct type (a few may be overwritten
        // where construct footprints touch, which real community worlds also
        // tolerate).
        assert!(built.world.count_kind(BlockKind::Hopper) >= 110);
        // One activation clock per stone farm, kelp farm and sorter.
        assert_eq!(
            built.world.count_kind(BlockKind::Comparator),
            (STONE_FARMS + KELP_FARMS + ITEM_SORTERS) as usize
        );
        assert_eq!(built.world.count_kind(BlockKind::Kelp), KELP_FARMS as usize);
        assert!(built.world.count_kind(BlockKind::Piston) >= KELP_FARMS as usize);
    }

    #[test]
    fn clocks_are_armed() {
        let mut built = build(1);
        let armed = built.world.updates_mut().pop_due(u64::MAX);
        let armed_clocks = armed
            .iter()
            .filter(|u| built.world.block(u.pos).kind() == BlockKind::Comparator)
            .count();
        assert_eq!(
            armed_clocks,
            (STONE_FARMS + KELP_FARMS + ITEM_SORTERS) as usize,
            "every clock must have a pending scheduled tick"
        );
    }

    #[test]
    fn entity_farms_are_dark_inside() {
        let mut built = build(1);
        // Check one platform interior: roof above, floor below, darkness.
        let interior = BlockPos::new(26 + 3, 62, 3);
        let light = mlg_world::light::sky_light_at(&mut built.world, interior);
        // Interior points under the roof must be dark enough for spawning.
        assert!(
            light <= 2,
            "entity farm interior should be dark, light={light}"
        );
    }
}
