//! Fluid simulation: water and lava spreading plus fluid interactions.
//!
//! Fluids are one of the terrain-simulation physics components listed in the
//! paper's workload model (Figure 3). Stone and cobblestone resource farms
//! rely on the interaction rule (water touching lava produces stone or
//! cobblestone), and kelp/item farms use flowing water to transport item
//! entities.

use crate::block::{Block, BlockKind};
use crate::pos::BlockPos;
use crate::shard::TerrainView;

/// Maximum horizontal flow level: level 0 is a source, levels 1..=MAX_LEVEL
/// are flowing fluid that gets shallower with distance.
const MAX_FLOW_LEVEL: u8 = 7;

/// Tick delay between water spread steps.
const WATER_SPREAD_DELAY: u64 = 5;

/// Tick delay between lava spread steps (lava flows slower than water).
const LAVA_SPREAD_DELAY: u64 = 10;

/// Result of one fluid update at a position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FluidOutcome {
    /// Number of new fluid blocks placed by this update.
    pub spread_to: u32,
    /// Number of solidification events (water+lava interactions).
    pub solidified: u32,
    /// Number of neighbouring positions inspected.
    pub blocks_scanned: u32,
}

/// Returns the spread delay in ticks for a fluid kind.
///
/// # Panics
///
/// Panics if `kind` is not a fluid.
#[must_use]
fn spread_delay(kind: BlockKind) -> u64 {
    match kind {
        BlockKind::Water => WATER_SPREAD_DELAY,
        BlockKind::Lava => LAVA_SPREAD_DELAY,
        other => panic!("{other} is not a fluid"),
    }
}

fn other_fluid(kind: BlockKind) -> BlockKind {
    match kind {
        BlockKind::Water => BlockKind::Lava,
        _ => BlockKind::Water,
    }
}

/// The block produced when `kind` (the fluid being updated) meets the other
/// fluid: lava touched by water becomes obsidian (source) or cobblestone
/// (flowing); water flowing onto lava becomes stone.
fn solidification_product(kind: BlockKind, other_state: u8) -> BlockKind {
    match kind {
        BlockKind::Water => {
            if other_state == 0 {
                BlockKind::Obsidian
            } else {
                BlockKind::Cobblestone
            }
        }
        _ => BlockKind::Stone,
    }
}

/// Applies the fluid rule at `pos`.
///
/// The rule, modelled on Minecraft's behaviour but simplified to one state
/// byte per block:
///
/// 1. If the fluid can flow straight down it does so (level resets to 1).
/// 2. Otherwise it spreads to horizontally adjacent air blocks with
///    `level + 1`, up to `MAX_FLOW_LEVEL`.
/// 3. Flowing fluid whose source has disappeared dries up.
/// 4. Contact with the opposing fluid solidifies into
///    stone/cobblestone/obsidian.
///
/// Every spread step schedules a follow-up tick so flows advance over time
/// rather than instantaneously, matching the cascade-of-updates behaviour the
/// paper identifies as a variability source.
pub fn apply_fluid<W: TerrainView>(world: &mut W, pos: BlockPos) -> FluidOutcome {
    let mut outcome = FluidOutcome::default();
    let block = world.block(pos);
    let kind = block.kind();
    if !kind.is_fluid() {
        return outcome;
    }
    let level = block.state();

    // Rule 4: solidify on contact with the opposing fluid.
    for n in pos.neighbors() {
        let nb = world.block(n);
        outcome.blocks_scanned += 1;
        if nb.kind() == other_fluid(kind) {
            let product = solidification_product(kind, nb.state());
            world.set_block(n, Block::simple(product));
            outcome.solidified += 1;
        }
    }

    // Rule 3: flowing fluid with no adjacent shallower fluid dries up.
    if level > 0 {
        let fed = pos.horizontal_neighbors().iter().any(|&n| {
            let nb = world.block(n);
            nb.kind() == kind && nb.state() < level
        }) || {
            let above = world.block(pos.up());
            above.kind() == kind
        };
        outcome.blocks_scanned += 5;
        if !fed {
            world.set_block(pos, Block::AIR);
            return outcome;
        }
    }

    // Rule 1: flow down.
    let below = pos.down();
    let below_block = world.block(below);
    outcome.blocks_scanned += 1;
    if below_block.is_air() {
        world.set_block(below, Block::with_state(kind, 1));
        world.schedule_tick(below, spread_delay(kind));
        outcome.spread_to += 1;
        return outcome;
    }

    // Rule 2: spread horizontally.
    if level < MAX_FLOW_LEVEL {
        for n in pos.horizontal_neighbors() {
            let nb = world.block(n);
            outcome.blocks_scanned += 1;
            if nb.is_air() {
                world.set_block(n, Block::with_state(kind, level + 1));
                world.schedule_tick(n, spread_delay(kind));
                outcome.spread_to += 1;
            }
        }
    }
    outcome
}

/// Block kinds that the fluid rule reacts to.
#[must_use]
pub fn reacts_to_updates(kind: BlockKind) -> bool {
    kind.is_fluid()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::FlatGenerator;
    use crate::world::World;

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    #[test]
    fn water_flows_down_first() {
        let mut w = world();
        let pos = BlockPos::new(4, 70, 4);
        w.set_block_silent(pos, Block::simple(BlockKind::Water));
        let out = apply_fluid(&mut w, pos);
        assert_eq!(out.spread_to, 1);
        assert_eq!(w.block(pos.down()).kind(), BlockKind::Water);
        assert_eq!(w.block(pos.down()).state(), 1);
        // No horizontal spread while falling.
        assert_eq!(w.block(pos.offset(1, 0, 0)), Block::AIR);
    }

    #[test]
    fn water_spreads_horizontally_on_the_ground() {
        let mut w = world();
        let pos = BlockPos::new(4, 61, 4); // resting on the grass surface
        w.set_block_silent(pos, Block::simple(BlockKind::Water));
        let out = apply_fluid(&mut w, pos);
        assert_eq!(out.spread_to, 4);
        for n in pos.horizontal_neighbors() {
            assert_eq!(w.block(n).kind(), BlockKind::Water);
            assert_eq!(w.block(n).state(), 1);
        }
    }

    #[test]
    fn flow_level_increases_with_distance_and_stops() {
        let mut w = world();
        let pos = BlockPos::new(4, 61, 4);
        w.set_block_silent(pos, Block::with_state(BlockKind::Water, MAX_FLOW_LEVEL));
        // A max-level flow with a feeding neighbour spreads no further.
        w.set_block_silent(
            pos.offset(1, 0, 0),
            Block::with_state(BlockKind::Water, MAX_FLOW_LEVEL - 1),
        );
        let out = apply_fluid(&mut w, pos);
        assert_eq!(out.spread_to, 0);
    }

    #[test]
    fn unfed_flowing_water_dries_up() {
        let mut w = world();
        let pos = BlockPos::new(4, 61, 4);
        w.set_block_silent(pos, Block::with_state(BlockKind::Water, 3));
        apply_fluid(&mut w, pos);
        assert_eq!(w.block(pos), Block::AIR);
    }

    #[test]
    fn water_meeting_lava_source_makes_obsidian() {
        let mut w = world();
        let water = BlockPos::new(4, 61, 4);
        let lava = water.offset(1, 0, 0);
        w.set_block_silent(water, Block::simple(BlockKind::Water));
        w.set_block_silent(lava, Block::simple(BlockKind::Lava));
        let out = apply_fluid(&mut w, water);
        assert_eq!(out.solidified, 1);
        assert_eq!(w.block(lava).kind(), BlockKind::Obsidian);
    }

    #[test]
    fn water_meeting_flowing_lava_makes_cobblestone() {
        let mut w = world();
        let water = BlockPos::new(4, 61, 4);
        let lava = water.offset(1, 0, 0);
        w.set_block_silent(water, Block::simple(BlockKind::Water));
        w.set_block_silent(lava, Block::with_state(BlockKind::Lava, 2));
        apply_fluid(&mut w, water);
        assert_eq!(w.block(lava).kind(), BlockKind::Cobblestone);
    }

    #[test]
    fn lava_meeting_water_makes_stone() {
        let mut w = world();
        let lava = BlockPos::new(4, 61, 4);
        let water = lava.offset(0, 0, 1);
        w.set_block_silent(lava, Block::simple(BlockKind::Lava));
        w.set_block_silent(water, Block::simple(BlockKind::Water));
        apply_fluid(&mut w, lava);
        assert_eq!(w.block(water).kind(), BlockKind::Stone);
    }

    #[test]
    fn spread_schedules_follow_up_ticks() {
        let mut w = world();
        let pos = BlockPos::new(4, 61, 4);
        w.set_block_silent(pos, Block::simple(BlockKind::Water));
        apply_fluid(&mut w, pos);
        assert!(!w.updates_mut().pop_due(u64::MAX).is_empty());
    }

    #[test]
    fn lava_spreads_slower_than_water() {
        assert!(spread_delay(BlockKind::Lava) > spread_delay(BlockKind::Water));
    }

    #[test]
    #[should_panic(expected = "is not a fluid")]
    fn spread_delay_rejects_non_fluids() {
        let _ = spread_delay(BlockKind::Stone);
    }

    #[test]
    fn non_fluid_update_is_ignored() {
        let mut w = world();
        let pos = BlockPos::new(4, 61, 4);
        w.set_block_silent(pos, Block::simple(BlockKind::Stone));
        let out = apply_fluid(&mut w, pos);
        assert_eq!(out, FluidOutcome::default());
    }
}
