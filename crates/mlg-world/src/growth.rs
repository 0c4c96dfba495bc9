//! Plant growth driven by random ticks.
//!
//! "Plant growth is an example of a dynamic element unique to MLGs. Plants and
//! trees change over time, reshaping the nearby terrain, thus generating new
//! workload." (Section 2.2.2.) Kelp growth in particular drives the Kelp farm
//! construct of the Farm workload world (Table 3).

use crate::block::{Block, BlockKind};
use crate::chunk::WORLD_HEIGHT;
use crate::pos::BlockPos;
use crate::shard::TerrainView;

/// Maximum growth stage for staged crops (wheat, sugar cane).
const MAX_CROP_STAGE: u8 = 7;

/// Maximum natural height of a kelp stalk, in blocks.
const MAX_KELP_HEIGHT: u8 = 16;

/// Result of applying a random tick to a plant block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrowthOutcome {
    /// Whether the plant advanced a growth stage or grew a new block.
    pub grew: bool,
    /// Number of new blocks placed (tree growth, kelp extension).
    pub blocks_placed: u32,
    /// Number of world positions read while evaluating growth conditions.
    pub blocks_scanned: u32,
}

/// Applies a random tick to the block at `pos`, if it is a plant.
pub fn apply_random_tick<W: TerrainView>(world: &mut W, pos: BlockPos) -> GrowthOutcome {
    let block = world.block(pos);
    match block.kind() {
        BlockKind::Wheat => grow_wheat(world, pos, block),
        BlockKind::Kelp => grow_kelp(world, pos, block),
        BlockKind::SugarCane => grow_sugar_cane(world, pos, block),
        BlockKind::Sapling => grow_sapling(world, pos, block),
        _ => GrowthOutcome::default(),
    }
}

fn grow_wheat<W: TerrainView>(world: &mut W, pos: BlockPos, block: Block) -> GrowthOutcome {
    let mut outcome = GrowthOutcome {
        blocks_scanned: 1,
        ..GrowthOutcome::default()
    };
    let below = world.block(pos.down());
    outcome.blocks_scanned += 1;
    if below.kind() != BlockKind::Farmland {
        // Wheat without farmland pops off.
        world.set_block(pos, Block::AIR);
        return outcome;
    }
    if block.state() < MAX_CROP_STAGE {
        world.set_block(pos, block.set_state(block.state() + 1));
        outcome.grew = true;
    }
    outcome
}

fn grow_kelp<W: TerrainView>(world: &mut W, pos: BlockPos, block: Block) -> GrowthOutcome {
    let mut outcome = GrowthOutcome {
        blocks_scanned: 2,
        ..GrowthOutcome::default()
    };
    let height = block.state();
    if height >= MAX_KELP_HEIGHT {
        return outcome;
    }
    let above = pos.up();
    if above.y >= WORLD_HEIGHT as i32 {
        return outcome;
    }
    // Kelp only grows upwards through water.
    if world.block(above).kind() == BlockKind::Water {
        world.set_block(above, Block::with_state(BlockKind::Kelp, height + 1));
        outcome.grew = true;
        outcome.blocks_placed = 1;
    }
    outcome
}

fn grow_sugar_cane<W: TerrainView>(world: &mut W, pos: BlockPos, block: Block) -> GrowthOutcome {
    let mut outcome = GrowthOutcome {
        blocks_scanned: 2,
        ..GrowthOutcome::default()
    };
    if block.state() >= 2 {
        return outcome; // Max stack height of 3 blocks.
    }
    let above = pos.up();
    if world.block(above).is_air() {
        world.set_block(
            above,
            Block::with_state(BlockKind::SugarCane, block.state() + 1),
        );
        outcome.grew = true;
        outcome.blocks_placed = 1;
    }
    outcome
}

fn grow_sapling<W: TerrainView>(world: &mut W, pos: BlockPos, block: Block) -> GrowthOutcome {
    let mut outcome = GrowthOutcome {
        blocks_scanned: 1,
        ..GrowthOutcome::default()
    };
    // Saplings need two random ticks to mature before turning into a tree.
    if block.state() < 1 {
        world.set_block(pos, block.set_state(block.state() + 1));
        outcome.grew = true;
        return outcome;
    }
    // Grow a small tree: 4-block trunk with a 3×3×2 canopy.
    let trunk_height = 4;
    for dy in 0..trunk_height {
        world.set_block(pos.offset(0, dy, 0), Block::simple(BlockKind::Log));
        outcome.blocks_placed += 1;
    }
    for dy in trunk_height - 1..=trunk_height + 1 {
        for dx in -1..=1 {
            for dz in -1..=1 {
                let p = pos.offset(dx, dy, dz);
                outcome.blocks_scanned += 1;
                if world.block(p).is_air() {
                    world.set_block(p, Block::simple(BlockKind::Leaves));
                    outcome.blocks_placed += 1;
                }
            }
        }
    }
    outcome.grew = true;
    outcome
}

/// Block kinds that react to random ticks.
#[must_use]
pub fn reacts_to_random_tick(kind: BlockKind) -> bool {
    kind.is_plant()
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
    fn wheat_advances_stages_on_farmland() {
        let mut w = world();
        let soil = BlockPos::new(3, 61, 3);
        let crop = soil.up();
        w.set_block_silent(soil, Block::with_state(BlockKind::Farmland, 1));
        w.set_block_silent(crop, Block::simple(BlockKind::Wheat));
        for expected in 1..=MAX_CROP_STAGE {
            let out = apply_random_tick(&mut w, crop);
            assert!(out.grew);
            assert_eq!(w.block(crop).state(), expected);
        }
        // Fully grown wheat stops growing.
        let out = apply_random_tick(&mut w, crop);
        assert!(!out.grew);
        assert_eq!(w.block(crop).state(), MAX_CROP_STAGE);
    }

    #[test]
    fn wheat_without_farmland_breaks() {
        let mut w = world();
        let crop = BlockPos::new(3, 61, 3); // standing on grass, not farmland
        w.set_block_silent(crop, Block::simple(BlockKind::Wheat));
        apply_random_tick(&mut w, crop);
        assert_eq!(w.block(crop), Block::AIR);
    }

    #[test]
    fn kelp_grows_upward_through_water() {
        let mut w = world();
        let base = BlockPos::new(3, 61, 3);
        w.set_block_silent(base, Block::simple(BlockKind::Kelp));
        for y in 62..70 {
            w.set_block_silent(BlockPos::new(3, y, 3), Block::simple(BlockKind::Water));
        }
        let out = apply_random_tick(&mut w, base);
        assert!(out.grew);
        assert_eq!(w.block(base.up()).kind(), BlockKind::Kelp);
        assert_eq!(w.block(base.up()).state(), 1);
    }

    #[test]
    fn kelp_does_not_grow_into_air() {
        let mut w = world();
        let base = BlockPos::new(3, 61, 3);
        w.set_block_silent(base, Block::simple(BlockKind::Kelp));
        let out = apply_random_tick(&mut w, base);
        assert!(!out.grew);
        assert_eq!(w.block(base.up()), Block::AIR);
    }

    #[test]
    fn kelp_respects_height_limit() {
        let mut w = world();
        let top = BlockPos::new(3, 61, 3);
        w.set_block_silent(top, Block::with_state(BlockKind::Kelp, MAX_KELP_HEIGHT));
        w.set_block_silent(top.up(), Block::simple(BlockKind::Water));
        let out = apply_random_tick(&mut w, top);
        assert!(!out.grew);
    }

    #[test]
    fn sapling_becomes_tree_after_two_ticks() {
        let mut w = world();
        let pos = BlockPos::new(3, 61, 3);
        w.set_block_silent(pos, Block::simple(BlockKind::Sapling));
        let first = apply_random_tick(&mut w, pos);
        assert!(first.grew);
        assert_eq!(w.block(pos).kind(), BlockKind::Sapling);
        let second = apply_random_tick(&mut w, pos);
        assert!(second.grew);
        assert!(second.blocks_placed > 4);
        assert_eq!(w.block(pos).kind(), BlockKind::Log);
        assert_eq!(w.block(pos.offset(1, 4, 0)).kind(), BlockKind::Leaves);
    }

    #[test]
    fn sugar_cane_grows_to_height_three() {
        let mut w = world();
        let base = BlockPos::new(3, 61, 3);
        w.set_block_silent(base, Block::simple(BlockKind::SugarCane));
        let out1 = apply_random_tick(&mut w, base);
        assert!(out1.grew);
        let mid = base.up();
        assert_eq!(w.block(mid).kind(), BlockKind::SugarCane);
        let out2 = apply_random_tick(&mut w, mid);
        assert!(out2.grew);
        // The top segment has state 2 and refuses to grow further.
        let top = mid.up();
        let out3 = apply_random_tick(&mut w, top);
        assert!(!out3.grew);
    }

    /// The premise of the random-tick lottery's chunk filter
    /// (`World::pick_random_tick_positions`): a random tick puts plants in
    /// its own column only, so a chunk without a plant never gains one.
    #[test]
    fn random_ticks_grow_plants_only_in_the_ticked_column() {
        use crate::pos::ChunkPos;
        use BlockKind::{Air, Dirt, Farmland, Kelp, Sand, Sapling, Stone, SugarCane, Water, Wheat};
        let top = WORLD_HEIGHT as i32 - 1;
        // (plant, its state, block below, block above) per case.
        let cases = [
            (Wheat, 0, Farmland, Air),
            (Wheat, 0, Stone, Air),
            (Kelp, 0, Sand, Water),
            (SugarCane, 0, Sand, Air),
            (Sapling, 0, Dirt, Air),
            (Sapling, 1, Dirt, Air),
        ];
        let mut plants_placed = 0;
        for (kind, state, below, above) in cases {
            let plant = Block::with_state(kind, state);
            for (x, z) in [(0, 0), (15, 0), (0, 15), (15, 15)] {
                for y in [61, top] {
                    let mut w = world();
                    w.ensure_area(ChunkPos::new(0, 0), 1);
                    let pos = BlockPos::new(x, y, z);
                    w.set_block_silent(pos.down(), Block::simple(below));
                    w.set_block_silent(pos, plant);
                    w.set_block_silent(pos.up(), Block::simple(above));
                    apply_random_tick(&mut w, pos);
                    for change in w.drain_changes() {
                        if change.new.kind().is_plant() {
                            plants_placed += 1;
                            let column = (change.pos.x, change.pos.z);
                            assert_eq!(column, (x, z), "{plant} at {pos} grew {change:?}");
                        }
                    }
                    let home = pos.chunk();
                    assert!(w.iter_chunks().all(|c| c.pos() == home || !c.holds_plant()));
                }
            }
        }
        // Wheat, kelp, sugar cane and young saplings grew at every corner.
        assert!(plants_placed >= 4 * 4);
    }

    #[test]
    fn non_plants_ignore_random_ticks() {
        let mut w = world();
        let pos = BlockPos::new(3, 61, 3);
        w.set_block_silent(pos, Block::simple(BlockKind::Stone));
        assert_eq!(apply_random_tick(&mut w, pos), GrowthOutcome::default());
        assert!(!reacts_to_random_tick(BlockKind::Stone));
        assert!(reacts_to_random_tick(BlockKind::Kelp));
    }
}
