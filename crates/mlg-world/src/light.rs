//! Dynamic lighting recomputation.
//!
//! The paper (Section 2.2.2) uses lighting as the canonical example of a
//! terrain-simulation workload that static game worlds do not have: "Once the
//! bridge has collapsed, the bridge no longer casts shadow, so the simulator
//! needs to recompute lighting (frequently) at runtime."
//!
//! This module computes the *cost* of relighting after a block change by
//! performing the same traversals a real engine would perform — a sky-light
//! column scan plus a breadth-first flood through transparent blocks around
//! the change — and reports how many positions were visited. Light values are
//! recomputed on demand rather than persisted per block; persisting them
//! would only change memory usage, not the simulated per-tick work that
//! Meterstick measures.
//!
//! Substrate notes (modeled output is unaffected by either):
//!
//! * [`sky_light_at`] consults [`BlockReader::column_top`] so the vertical
//!   scan starts at the column's highest non-air block instead of
//!   [`WORLD_HEIGHT`] — everything above the heightmap is air with zero
//!   opacity, so skipping it cannot change the result;
//! * the flood fill tracks visited positions in a fixed-size bitmask over
//!   the `17³` offset cube reachable within [`LIGHT_FLOOD_RADIUS`]
//!   ([`FloodScratch`]), reusable across floods so steady-state relighting
//!   allocates nothing.

use std::collections::VecDeque;

use crate::chunk::WORLD_HEIGHT;
use crate::pos::BlockPos;
use crate::shard::BlockReader;

/// Maximum light level (fully lit).
pub const MAX_LIGHT: u8 = 15;

/// Default propagation radius used for block-light floods.
pub const LIGHT_FLOOD_RADIUS: u32 = 8;

/// Edge length of the offset cube a flood can reach (Chebyshev radius 8).
const FLOOD_CUBE: usize = 2 * LIGHT_FLOOD_RADIUS as usize + 1;

/// `u64` words in the visited bitmask covering the offset cube.
const FLOOD_WORDS: usize = (FLOOD_CUBE * FLOOD_CUBE * FLOOD_CUBE).div_ceil(64);

/// Report of a relighting pass around one block change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LightReport {
    /// Positions visited by the sky-light column scan.
    pub sky_positions: u32,
    /// Positions visited by the block-light flood fill.
    pub flood_positions: u32,
}

impl LightReport {
    /// Total number of positions visited by the relighting pass.
    #[must_use]
    pub fn total_positions(&self) -> u32 {
        self.sky_positions + self.flood_positions
    }
}

/// Reusable scratch state for [`relight_after_change_with`] flood fills.
///
/// The visited set is a bitmask over the `17×17×17` offset cube centred on
/// the flood origin (every reachable position is within Chebyshev distance
/// [`LIGHT_FLOOD_RADIUS`] of it), so clearing it between floods is a 77-word
/// memset rather than a hash-set teardown, and the queue keeps its capacity
/// across floods.
#[derive(Debug, Clone)]
pub struct FloodScratch {
    visited: [u64; FLOOD_WORDS],
    queue: VecDeque<(BlockPos, u32)>,
}

impl FloodScratch {
    /// Creates an empty scratch. One instance serves any number of floods.
    #[must_use]
    pub fn new() -> Self {
        FloodScratch {
            visited: [0; FLOOD_WORDS],
            queue: VecDeque::new(),
        }
    }

    fn reset(&mut self) {
        self.visited = [0; FLOOD_WORDS];
        self.queue.clear();
    }

    /// Marks `p` (relative to `origin`) visited; returns `true` if it was
    /// not visited before.
    fn mark(&mut self, origin: BlockPos, p: BlockPos) -> bool {
        let r = LIGHT_FLOOD_RADIUS as i32;
        let dx = (p.x - origin.x + r) as usize;
        let dy = (p.y - origin.y + r) as usize;
        let dz = (p.z - origin.z + r) as usize;
        let bit = (dy * FLOOD_CUBE + dz) * FLOOD_CUBE + dx;
        let word = &mut self.visited[bit / 64];
        let mask = 1u64 << (bit % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    fn contains(&self, origin: BlockPos, p: BlockPos) -> bool {
        let r = LIGHT_FLOOD_RADIUS as i32;
        let dx = (p.x - origin.x + r) as usize;
        let dy = (p.y - origin.y + r) as usize;
        let dz = (p.z - origin.z + r) as usize;
        let bit = (dy * FLOOD_CUBE + dz) * FLOOD_CUBE + dx;
        self.visited[bit / 64] & (1u64 << (bit % 64)) != 0
    }
}

impl Default for FloodScratch {
    fn default() -> Self {
        FloodScratch::new()
    }
}

/// Computes the sky-light level at a position: 15 if nothing opaque is above
/// it, otherwise attenuated by the opacity of the blocks above.
///
/// When the reader exposes a maintained heightmap
/// ([`BlockReader::column_top`]), the scan starts at the column's highest
/// non-air block rather than the top of the world; the skipped blocks are
/// all air and contribute zero opacity, so the returned level is identical.
#[must_use]
pub fn sky_light_at<W: BlockReader>(world: &mut W, pos: BlockPos) -> u8 {
    if pos.y + 1 >= WORLD_HEIGHT as i32 {
        // Nothing can sit above the world ceiling; bail before consulting the
        // heightmap so a top-of-world probe touches no chunks at all.
        return MAX_LIGHT;
    }
    let top = match world.column_top(pos.x, pos.z) {
        Some(top) => top.min(WORLD_HEIGHT as i32 - 1),
        None => WORLD_HEIGHT as i32 - 1,
    };
    let mut light = i32::from(MAX_LIGHT);
    for y in (pos.y + 1)..=top {
        let b = world.block(BlockPos::new(pos.x, y, pos.z));
        light -= i32::from(b.kind().light_opacity());
        if light <= 0 {
            return 0;
        }
    }
    light as u8
}

/// Recomputes lighting after a change at `pos` using caller-provided scratch
/// state, and returns the work report.
///
/// The pass has two parts, mirroring real MLG engines:
///
/// * a vertical sky-light rescan of the changed column (the shadow cast by the
///   block has changed), and
/// * a breadth-first flood from the changed position through transparent
///   blocks, bounded by [`LIGHT_FLOOD_RADIUS`], representing block-light
///   propagation from or towards nearby emitters.
pub fn relight_after_change_with<W: BlockReader>(
    world: &mut W,
    pos: BlockPos,
    scratch: &mut FloodScratch,
) -> LightReport {
    let mut report = LightReport::default();

    // Sky-light column rescan: from the top of the world down to the lowest
    // block the change could have shadowed.
    let top = WORLD_HEIGHT as i32;
    let bottom = (pos.y - 16).max(0);
    report.sky_positions = (top - bottom) as u32;

    // Block-light flood through transparent space.
    scratch.reset();
    scratch.queue.push_back((pos, 0));
    scratch.mark(pos, pos);
    while let Some((current, depth)) = scratch.queue.pop_front() {
        report.flood_positions += 1;
        if depth >= LIGHT_FLOOD_RADIUS {
            continue;
        }
        for n in current.neighbors() {
            if n.y < 0 || n.y >= WORLD_HEIGHT as i32 || scratch.contains(pos, n) {
                continue;
            }
            let b = world.block(n);
            // Light propagates through anything that is not fully opaque.
            if b.kind().light_opacity() < MAX_LIGHT {
                scratch.mark(pos, n);
                scratch.queue.push_back((n, depth + 1));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockKind};
    use crate::generation::FlatGenerator;
    use crate::world::World;

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    #[test]
    fn open_sky_is_fully_lit() {
        let mut w = world();
        assert_eq!(sky_light_at(&mut w, BlockPos::new(0, 61, 0)), MAX_LIGHT);
    }

    #[test]
    fn underground_is_dark() {
        let mut w = world();
        assert_eq!(sky_light_at(&mut w, BlockPos::new(0, 30, 0)), 0);
    }

    #[test]
    fn single_cover_block_shadows_column() {
        let mut w = world();
        let pos = BlockPos::new(5, 61, 5);
        assert_eq!(sky_light_at(&mut w, pos), MAX_LIGHT);
        w.set_block_silent(pos.offset(0, 5, 0), Block::simple(BlockKind::Stone));
        assert_eq!(sky_light_at(&mut w, pos), 0);
    }

    #[test]
    fn leaves_attenuate_partially() {
        let mut w = world();
        let pos = BlockPos::new(5, 61, 5);
        w.set_block_silent(pos.offset(0, 5, 0), Block::simple(BlockKind::Leaves));
        assert_eq!(sky_light_at(&mut w, pos), MAX_LIGHT - 1);
    }

    #[test]
    fn relight_in_open_air_floods_widely() {
        let mut w = world();
        let report =
            relight_after_change_with(&mut w, BlockPos::new(0, 90, 0), &mut FloodScratch::new());
        assert!(
            report.flood_positions > 100,
            "open air flood should visit many positions"
        );
        assert!(report.sky_positions > 0);
    }

    #[test]
    fn relight_underground_is_cheap() {
        let mut w = world();
        // Fully enclosed in stone: the flood cannot expand.
        let report =
            relight_after_change_with(&mut w, BlockPos::new(0, 30, 0), &mut FloodScratch::new());
        assert_eq!(report.flood_positions, 1);
    }

    #[test]
    fn surface_change_costs_less_than_open_air() {
        let mut w = world();
        let surface =
            relight_after_change_with(&mut w, BlockPos::new(0, 61, 0), &mut FloodScratch::new());
        let open_air =
            relight_after_change_with(&mut w, BlockPos::new(0, 100, 0), &mut FloodScratch::new());
        assert!(surface.flood_positions < open_air.flood_positions);
    }

    #[test]
    fn report_total_is_sum() {
        let r = LightReport {
            sky_positions: 10,
            flood_positions: 32,
        };
        assert_eq!(r.total_positions(), 42);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let mut w = world();
        let mut scratch = FloodScratch::new();
        for pos in [
            BlockPos::new(0, 90, 0),
            BlockPos::new(0, 30, 0),
            BlockPos::new(3, 61, 3),
            BlockPos::new(0, 90, 0),
        ] {
            let reused = relight_after_change_with(&mut w, pos, &mut scratch);
            let fresh = relight_after_change_with(&mut w, pos, &mut FloodScratch::new());
            assert_eq!(reused, fresh, "scratch reuse diverged at {pos:?}");
        }
    }

    /// A reader that counts `block` calls while forwarding the heightmap,
    /// pinning how many positions the sky scan actually visits.
    struct CountingReader<'a> {
        inner: &'a mut World,
        block_reads: u32,
    }

    impl BlockReader for CountingReader<'_> {
        fn block(&mut self, pos: BlockPos) -> Block {
            self.block_reads += 1;
            self.inner.block(pos)
        }

        fn column_top(&mut self, x: i32, z: i32) -> Option<i32> {
            self.inner.column_top(x, z)
        }
    }

    #[test]
    fn sky_scan_above_surface_reads_no_blocks() {
        let mut w = world();
        let surface = w.highest_block_y(0, 0).expect("generated column");
        let mut reader = CountingReader {
            inner: &mut w,
            block_reads: 0,
        };
        // Everything above the heightmap is air: the scan short-circuits.
        let light = sky_light_at(&mut reader, BlockPos::new(0, surface + 1, 0));
        assert_eq!(light, MAX_LIGHT);
        assert_eq!(
            reader.block_reads, 0,
            "scan above the heightmap must not read blocks"
        );
    }

    #[test]
    fn sky_scan_is_bounded_by_the_heightmap() {
        let mut w = world();
        let surface = w.highest_block_y(3, 3).expect("generated column");
        let pos = BlockPos::new(3, surface - 2, 3);
        let mut reader = CountingReader {
            inner: &mut w,
            block_reads: 0,
        };
        let light = sky_light_at(&mut reader, pos);
        // Only the two covering blocks (surface-1, surface) are visited —
        // the legacy scan would read up to WORLD_HEIGHT.
        assert!(reader.block_reads <= 2, "reads: {}", reader.block_reads);
        // Same result as a reader without a heightmap (full scan).
        struct NoHeightmap<'a>(&'a mut World);
        impl BlockReader for NoHeightmap<'_> {
            fn block(&mut self, pos: BlockPos) -> Block {
                self.0.block(pos)
            }
        }
        assert_eq!(light, sky_light_at(&mut NoHeightmap(&mut w), pos));
    }
}
