//! Block physics: gravity-affected blocks and support checks.
//!
//! Section 2.2.2 of the paper: "MLGs need to perform physics simulations on
//! the many blocks that compose the terrain itself. For example, a bridge can
//! collapse when a player removes its support pillars."
//!
//! This module implements the falling-block rule for gravity-affected kinds
//! (sand, gravel): whenever such a block receives an update and has no support
//! below, it falls to the highest solid block underneath it.

use crate::block::{Block, BlockKind};
use crate::pos::BlockPos;
use crate::shard::TerrainView;

/// Applies gravity at `pos`: if the block there is gravity-affected and
/// unsupported, it is moved down to rest on the first solid block below.
/// Returns the number of world reads spent scanning for the landing spot.
///
/// The move is performed through [`TerrainView::set_block`] so the change is
/// recorded and neighbours (including the vacated position above) receive
/// updates — this is what lets a whole sand pillar collapse over successive
/// updates, exactly like the bridge example in the paper.
pub fn apply_gravity<W: TerrainView>(world: &mut W, pos: BlockPos) -> u32 {
    let block = world.block(pos);
    let mut blocks_scanned = 1;
    if !block.kind().is_gravity_affected() {
        return blocks_scanned;
    }
    // Scan downwards for the landing position.
    let mut landing = pos;
    loop {
        let below = landing.down();
        if below.y < 0 {
            break;
        }
        let below_block = world.block(below);
        blocks_scanned += 1;
        if below_block.is_air() || below_block.kind().is_fluid() {
            landing = below;
        } else {
            break;
        }
    }
    if landing != pos {
        world.set_block(pos, Block::AIR);
        world.set_block(landing, block);
    }
    blocks_scanned
}

/// Block kinds that the physics rule is interested in. Exposed so that the
/// terrain simulator can cheaply pre-filter updates.
#[must_use]
pub fn reacts_to_updates(kind: BlockKind) -> bool {
    kind.is_gravity_affected()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::FlatGenerator;
    use crate::world::World;

    fn world() -> World {
        // Flat grass surface at y = 60.
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    #[test]
    fn sand_falls_to_the_ground() {
        let mut w = world();
        let start = BlockPos::new(4, 80, 4);
        w.set_block_silent(start, Block::simple(BlockKind::Sand));
        apply_gravity(&mut w, start);
        // 80 -> 61, on top of the grass at 60.
        assert_eq!(w.block(start), Block::AIR);
        assert_eq!(w.block(BlockPos::new(4, 61, 4)).kind(), BlockKind::Sand);
    }

    #[test]
    fn supported_sand_does_not_fall() {
        let mut w = world();
        let pos = BlockPos::new(4, 61, 4); // directly on the grass surface
        w.set_block_silent(pos, Block::simple(BlockKind::Sand));
        apply_gravity(&mut w, pos);
        assert_eq!(w.pending_change_count(), 0);
        assert_eq!(w.block(pos).kind(), BlockKind::Sand);
    }

    #[test]
    fn stone_never_falls() {
        let mut w = world();
        let pos = BlockPos::new(4, 80, 4);
        w.set_block_silent(pos, Block::simple(BlockKind::Stone));
        apply_gravity(&mut w, pos);
        assert_eq!(w.pending_change_count(), 0);
        assert_eq!(w.block(pos).kind(), BlockKind::Stone);
    }

    #[test]
    fn sand_falls_through_water() {
        let mut w = world();
        let pos = BlockPos::new(4, 70, 4);
        for y in 61..70 {
            w.set_block_silent(BlockPos::new(4, y, 4), Block::simple(BlockKind::Water));
        }
        w.set_block_silent(pos, Block::simple(BlockKind::Sand));
        apply_gravity(&mut w, pos);
        assert_eq!(w.block(pos), Block::AIR);
        assert_eq!(w.block(BlockPos::new(4, 61, 4)).kind(), BlockKind::Sand);
    }

    #[test]
    fn falling_triggers_neighbor_updates() {
        let mut w = world();
        let start = BlockPos::new(4, 70, 4);
        w.set_block_silent(start, Block::simple(BlockKind::Sand));
        apply_gravity(&mut w, start);
        // Two set_block calls: the vacated position and the landing position,
        // each enqueueing itself plus six neighbours (with dedup).
        let queued = std::iter::from_fn(|| w.updates_mut().pop_immediate()).count();
        assert!(queued > 6);
        assert_eq!(w.pending_change_count(), 2);
    }

    #[test]
    fn support_detection() {
        // Only the block directly below supports a gravity block: solid
        // neighbours at its side do not hold it up.
        let mut w = world();
        let floating = BlockPos::new(4, 90, 4);
        w.set_block_silent(floating, Block::simple(BlockKind::Sand));
        for side in floating.horizontal_neighbors() {
            w.set_block_silent(side, Block::simple(BlockKind::Stone));
        }
        apply_gravity(&mut w, floating);
        assert_eq!(w.block(floating), Block::AIR);
    }

    #[test]
    fn sand_pillar_collapses_block_by_block() {
        let mut w = world();
        // Build a floating pillar of sand with a gap below it.
        for y in 70..73 {
            w.set_block_silent(BlockPos::new(2, y, 2), Block::simple(BlockKind::Sand));
        }
        // Apply gravity bottom-up as the update queue would.
        for y in 70..73 {
            apply_gravity(&mut w, BlockPos::new(2, y, 2));
        }
        for y in 61..64 {
            assert_eq!(w.block(BlockPos::new(2, y, 2)).kind(), BlockKind::Sand);
        }
        for y in 70..73 {
            assert_eq!(w.block(BlockPos::new(2, y, 2)), Block::AIR);
        }
    }
}
