//! The Lag workload: a lag machine.
//!
//! "Lag Machines are a specific subset of simulated constructs that are
//! designed to cause high computational load for the MLG […] it uses many
//! logic-gate constructs in a small area to cause a high volume of simulation
//! rule activations." (Section 3.3.1.) The paper further notes the machine
//! "consists mainly of parts which are only simulated every other tick,
//! causing the game to alternate between extremely short and extremely long
//! ticks", which is what maximizes ISR.
//!
//! The reproduction builds a dense grid of period-2 clocks, each driving a
//! cross of redstone dust, packed into a small area next to spawn. Every
//! other tick all clocks toggle simultaneously, flooding the update queue
//! with dust recomputations and the lighting engine with block-state changes.

use mlg_entity::Vec3;
use mlg_world::generation::FlatGenerator;
use mlg_world::{Block, BlockKind, BlockPos, ChunkPos, World};

use crate::spec::{BuiltWorkload, PlayerWorkload, WorkloadKind};

/// Number of clock cells along one edge of the machine.
const GRID_EDGE: u32 = 8;

/// Length of each dust arm attached to a clock cell.
const DUST_ARM_LENGTH: i32 = 2;

/// Clock period in game ticks: every other tick, per the paper's analysis.
const CLOCK_PERIOD: u8 = 2;

/// Builds one clock cell: a period-2 clock with four dust arms.
fn build_clock_cell(world: &mut World, center: BlockPos) {
    world.set_block_silent(
        center,
        Block::with_state(BlockKind::Comparator, CLOCK_PERIOD),
    );
    for (dx, dz) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
        for step in 1..=DUST_ARM_LENGTH {
            world.set_block_silent(
                center.offset(dx * step, 0, dz * step),
                Block::simple(BlockKind::RedstoneDust),
            );
        }
    }
    world.schedule_tick(center, 1);
}

/// Builds the Lag world.
#[must_use]
pub fn build(seed: u64) -> BuiltWorkload {
    let generator = FlatGenerator::grassland();
    let surface = generator.surface_y();
    let mut world = World::new(Box::new(generator), seed);
    world.ensure_area(ChunkPos::new(0, 0), 4);
    let y = surface + 1;

    // The machine sits in a compact square starting a few blocks from spawn,
    // cells spaced far enough apart that their dust arms do not touch.
    let spacing = 2 * DUST_ARM_LENGTH + 2;
    let mut cells = 0u32;
    for ix in 0..GRID_EDGE {
        for iz in 0..GRID_EDGE {
            let center = BlockPos::new(
                8 + (ix as i32) * spacing,
                y,
                -((GRID_EDGE as i32 * spacing) / 2) + (iz as i32) * spacing,
            );
            build_clock_cell(&mut world, center);
            cells += 1;
        }
    }

    let spawn_point = Vec3::new(0.5, f64::from(y), 0.5);
    BuiltWorkload {
        kind: WorkloadKind::Lag,
        world,
        spawn_point,
        players: PlayerWorkload::single_observer(),
        tnt_fuse_delay_ticks: None,
        ambient_entities: Vec::new(),
        description: format!(
            "lag machine: {cells} period-{CLOCK_PERIOD} clocks with {DUST_ARM_LENGTH}-block dust arms"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_has_the_expected_component_counts() {
        let built = build(1);
        let clocks = built.world.count_kind(BlockKind::Comparator);
        let dust = built.world.count_kind(BlockKind::RedstoneDust);
        assert_eq!(clocks, (GRID_EDGE * GRID_EDGE) as usize);
        assert_eq!(dust, clocks * (4 * DUST_ARM_LENGTH) as usize);
    }

    #[test]
    fn every_clock_is_armed() {
        let mut built = build(1);
        let armed = built.world.updates_mut().pop_due(u64::MAX);
        assert_eq!(armed.len(), (GRID_EDGE * GRID_EDGE) as usize);
        for update in armed {
            assert_eq!(built.world.block(update.pos).kind(), BlockKind::Comparator);
        }
    }

    #[test]
    fn clock_period_is_every_other_tick() {
        assert_eq!(CLOCK_PERIOD, 2);
        let mut built = build(1);
        // The clock block itself stores its period in the low state nibble.
        let spacing = 2 * DUST_ARM_LENGTH + 2;
        let clock_pos = BlockPos::new(8, 61, -((GRID_EDGE as i32 * spacing) / 2));
        assert_eq!(built.world.block(clock_pos).kind(), BlockKind::Comparator);
        assert_eq!(built.world.block(clock_pos).state() & 0x0F, CLOCK_PERIOD);
    }
}
