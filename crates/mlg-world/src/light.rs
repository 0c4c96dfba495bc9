//! Dynamic lighting recomputation.
//!
//! The paper (Section 2.2.2) uses lighting as the canonical example of a
//! terrain-simulation workload that static game worlds do not have: "Once the
//! bridge has collapsed, the bridge no longer casts shadow, so the simulator
//! needs to recompute lighting (frequently) at runtime."
//!
//! This module computes the *cost* of relighting after a block change by
//! performing the same traversals a real engine would perform — a sky-light
//! column scan plus a flood through transparent blocks around the change —
//! and reports how many positions were visited. Light values are
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
//! * the flood fill is a bit-parallel wavefront over the `17³` offset cube
//!   reachable within [`LIGHT_FLOOD_RADIUS`]: each of the cube's `17 × 17`
//!   `(dy, dz)` rows is a `u32` mask over `dx`, one step of the flood is a
//!   handful of shifts and ors per row, and a row's transparency is decoded
//!   from the world only the first time the wavefront can enter it. It
//!   visits exactly the positions a breadth-first search would, lives on
//!   the stack and allocates nothing.

use crate::chunk::WORLD_HEIGHT;
use crate::pos::BlockPos;
use crate::shard::BlockReader;

/// Maximum light level (fully lit).
pub const MAX_LIGHT: u8 = 15;

/// Default propagation radius used for block-light floods.
pub const LIGHT_FLOOD_RADIUS: u32 = 8;

/// [`LIGHT_FLOOD_RADIUS`] as a signed offset.
const R: i32 = LIGHT_FLOOD_RADIUS as i32;

/// Edge length of the offset cube a flood can reach (Chebyshev radius 8).
const FLOOD_CUBE: usize = 2 * LIGHT_FLOOD_RADIUS as usize + 1;

/// Rows per side of the wavefront's row arrays: the cube's 17 plus one
/// always-empty row on each side, so every row of the cube has four
/// neighbours and the edges need no special case.
const PADDED: usize = FLOOD_CUBE + 2;

/// `(dy, dz)` rows in the padded arrays.
const ROWS: usize = PADDED * PADDED;

/// Every `dx` bit of a row.
const FULL: u32 = (1 << FLOOD_CUBE) - 1;

/// A row's transparency before it is decoded: no real row has bit 31 set.
const UNDECODED: u32 = 1 << 31;

/// A `dz`'s highest column top before its tops are read: no column top is
/// below `-1`.
const TOPS_UNREAD: i32 = i32::MIN;

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

/// Recomputes lighting after a change at `pos` and returns the work report.
///
/// The pass has two parts, mirroring real MLG engines:
///
/// * a vertical sky-light rescan of the changed column (the shadow cast by the
///   block has changed), and
/// * a flood from the changed position through every block that is not
///   fully opaque, bounded by [`LIGHT_FLOOD_RADIUS`] steps, representing
///   block-light propagation from or towards nearby emitters. It counts the
///   positions a breadth-first search would visit: every position within
///   that many face-adjacent steps of `pos` through such blocks, `pos`
///   itself even when it is opaque, and never one outside
///   `0..WORLD_HEIGHT`.
///
/// In production only frozen snapshots
/// ([`FrozenChunks`](crate::shard::FrozenChunks)) call it, and they generate
/// nothing. A lazily generating reader such as [`World`](crate::world::World)
/// gets the same count, but the flood asks [`BlockReader::column_top`] about
/// columns a search would never have read, so the set of chunks it generates
/// is not part of its contract.
pub fn relight_after_change<W: BlockReader>(world: &mut W, pos: BlockPos) -> LightReport {
    // Sky-light column rescan: from the top of the world down to the lowest
    // block the change could have shadowed.
    let bottom = (pos.y - 16).max(0);
    LightReport {
        sky_positions: (WORLD_HEIGHT as i32 - bottom) as u32,
        flood_positions: Wavefront::new(pos).flood(world),
    }
}

/// Index of row `(dy, dz)` in the padded row arrays.
fn row(dy: i32, dz: i32) -> usize {
    (dy + R + 1) as usize * PADDED + (dz + R + 1) as usize
}

/// The block-light flood of [`relight_after_change`] around one origin.
///
/// Bit `dx + R` of row `(dy, dz)` is the position `origin + (dx, dy, dz)`.
/// Step `k` of the flood reaches only positions `k` steps from the origin,
/// so it visits only rows with `|dy| + |dz| ≤ k`, and a row is decoded only
/// over the cells the flood can ever reach, `|dx| ≤ R - |dy| - |dz|`.
struct Wavefront {
    origin: BlockPos,
    /// Per row: the positions that let light through, or [`UNDECODED`].
    transparent: [u32; ROWS],
    /// Per row: the positions the flood has reached.
    visited: [u32; ROWS],
    /// Column tops ([`BlockReader::column_top`]) by `dz + R`, then `dx + R`.
    tops: [[i32; FLOOD_CUBE]; FLOOD_CUBE],
    /// The highest of each `dz`'s reachable column tops, or [`TOPS_UNREAD`].
    highest_top: [i32; FLOOD_CUBE],
}

impl Wavefront {
    fn new(origin: BlockPos) -> Self {
        Wavefront {
            origin,
            transparent: [UNDECODED; ROWS],
            visited: [0; ROWS],
            tops: [[0; FLOOD_CUBE]; FLOOD_CUBE],
            highest_top: [TOPS_UNREAD; FLOOD_CUBE],
        }
    }

    /// Runs the flood and returns how many positions it visited: the
    /// origin plus each position counted by the step that first reaches it.
    fn flood<W: BlockReader>(mut self, world: &mut W) -> u32 {
        let centre = row(0, 0);
        self.visited[centre] = 1 << R;
        // The positions first reached by the previous step and by this one.
        let mut frontier = [[0u32; ROWS]; 2];
        frontier[0][centre] = 1 << R;
        // Rows outside the world are never entered.
        let dy_lo = (-self.origin.y).max(-R);
        let dy_hi = (WORLD_HEIGHT as i32 - 1 - self.origin.y).min(R);
        let mut count = 1;
        for k in 1..=R {
            let [even, odd] = &mut frontier;
            let (cur, next) = if k % 2 == 1 { (even, odd) } else { (odd, even) };
            let reached = self.step(world, k, (dy_lo, dy_hi), cur, next);
            if reached == 0 {
                break;
            }
            count += reached;
        }
        count
    }

    /// Step `k`: fills `next` with the positions first reached from `cur`,
    /// the positions first reached by step `k - 1`, and returns how many
    /// there are.
    fn step<W: BlockReader>(
        &mut self,
        world: &mut W,
        k: i32,
        (dy_lo, dy_hi): (i32, i32),
        cur: &[u32; ROWS],
        next: &mut [u32; ROWS],
    ) -> u32 {
        let mut reached = 0;
        for dy in dy_lo.max(-k)..=dy_hi.min(k) {
            let span = k - dy.abs();
            for dz in -span..=span {
                // `r ± PADDED` are the `dy ± 1` rows, `r ± 1` the `dz ± 1` rows.
                let r = row(dy, dz);
                let f = cur[r];
                let near = (f << 1) | (f >> 1) | cur[r - PADDED] | cur[r + PADDED];
                let near = (near | cur[r - 1] | cur[r + 1]) & FULL & !self.visited[r];
                let new = if near == 0 {
                    0
                } else {
                    near & self.transparency(world, dy, dz)
                };
                next[r] = new;
                self.visited[r] |= new;
                reached += new.count_ones();
            }
        }
        reached
    }

    /// Row `(dy, dz)`'s transparency, decoded the first time it is asked
    /// for.
    fn transparency<W: BlockReader>(&mut self, world: &mut W, dy: i32, dz: i32) -> u32 {
        let r = row(dy, dz);
        if self.transparent[r] == UNDECODED {
            self.transparent[r] = self.decode(world, dy, dz);
        }
        self.transparent[r]
    }

    /// Decodes the cells of row `(dy, dz)` the flood can reach. A cell
    /// above its column's top is air and costs no block read, and a row
    /// above all of those columns' tops costs none at all.
    fn decode<W: BlockReader>(&mut self, world: &mut W, dy: i32, dz: i32) -> u32 {
        self.read_tops(world, dz);
        let zi = (dz + R) as usize;
        let (y, z) = (self.origin.y + dy, self.origin.z + dz);
        let span = R - dy.abs() - dz.abs();
        if y > self.highest_top[zi] {
            return (FULL >> (R - span)) & (FULL << (R - span));
        }
        let mut bits = 0;
        for dx in -span..=span {
            let i = (dx + R) as usize;
            if y > self.tops[zi][i]
                || world
                    .block(BlockPos::new(self.origin.x + dx, y, z))
                    .kind()
                    .light_opacity()
                    < MAX_LIGHT
            {
                bits |= 1 << i;
            }
        }
        bits
    }

    /// Reads the column tops of `dz`'s reachable columns, once per flood.
    /// A reader without a cheap answer gets every cell read.
    fn read_tops<W: BlockReader>(&mut self, world: &mut W, dz: i32) {
        let zi = (dz + R) as usize;
        if self.highest_top[zi] != TOPS_UNREAD {
            return;
        }
        let z = self.origin.z + dz;
        let span = R - dz.abs();
        let mut highest = -1;
        for dx in -span..=span {
            let top = world
                .column_top(self.origin.x + dx, z)
                .unwrap_or(WORLD_HEIGHT as i32 - 1);
            self.tops[zi][(dx + R) as usize] = top;
            highest = highest.max(top);
        }
        self.highest_top[zi] = highest;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::block::{Block, BlockKind};
    use crate::chunk::{Chunk, CHUNK_SIZE};
    use crate::generation::{ChunkGenerator, FlatGenerator};
    use crate::pool::PoolScope;
    use crate::pos::ChunkPos;
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
        // Open air all round: the L1 ball of radius 8.
        let report = relight_after_change(&mut w, BlockPos::new(0, 90, 0));
        assert_eq!(report.flood_positions, 833);
        assert!(report.sky_positions > 0);
        // At the ceiling only the lower half of the ball is in the world.
        let ceiling = relight_after_change(&mut w, BlockPos::new(0, 127, 0));
        assert_eq!(ceiling.flood_positions, 489);
        // Enclosed in stone: the origin alone.
        let enclosed = relight_after_change(&mut w, BlockPos::new(0, 30, 0));
        assert_eq!(enclosed.flood_positions, 1);
    }

    #[test]
    fn relight_underground_is_cheap() {
        let mut w = world();
        // Fully enclosed in stone: the flood cannot expand.
        let report = relight_after_change(&mut w, BlockPos::new(0, 30, 0));
        assert_eq!(report.flood_positions, 1);
    }

    #[test]
    fn surface_change_costs_less_than_open_air() {
        let mut w = world();
        let surface = relight_after_change(&mut w, BlockPos::new(0, 61, 0));
        let open_air = relight_after_change(&mut w, BlockPos::new(0, 100, 0));
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

    /// The breadth-first search the wavefront replaced, kept as its oracle.
    fn queue_flood<W: BlockReader>(world: &mut W, origin: BlockPos) -> u32 {
        let index = |p: BlockPos| {
            let d = |a: i32, b: i32| (a - b + R) as usize;
            (d(p.y, origin.y) * FLOOD_CUBE + d(p.z, origin.z)) * FLOOD_CUBE + d(p.x, origin.x)
        };
        let mut visited = vec![false; FLOOD_CUBE * FLOOD_CUBE * FLOOD_CUBE];
        let mut queue = VecDeque::from([(origin, 0)]);
        visited[index(origin)] = true;
        let mut count = 0;
        while let Some((current, depth)) = queue.pop_front() {
            count += 1;
            if depth == LIGHT_FLOOD_RADIUS {
                continue;
            }
            for n in current.neighbors() {
                if n.y < 0 || n.y >= WORLD_HEIGHT as i32 || visited[index(n)] {
                    continue;
                }
                if world.block(n).kind().light_opacity() < MAX_LIGHT {
                    visited[index(n)] = true;
                    queue.push_back((n, depth + 1));
                }
            }
        }
        count
    }

    /// A seeded scatter of every opacity class: stone (opaque) with
    /// probability `rock_percent`, otherwise air, glass, water (opacity 2),
    /// leaves or slab (opacity 1).
    struct Scatter {
        seed: u64,
        rock_percent: u32,
    }

    impl ChunkGenerator for Scatter {
        fn generate(&self, pos: ChunkPos) -> Chunk {
            const SEE_THROUGH: [BlockKind; 5] = [
                BlockKind::Air,
                BlockKind::Glass,
                BlockKind::Water,
                BlockKind::Leaves,
                BlockKind::Slab,
            ];
            let salt = u64::from(pos.x as u32) << 32 | u64::from(pos.z as u32);
            let mut rng = StdRng::seed_from_u64(self.seed ^ salt);
            let mut chunk = Chunk::empty(pos);
            for y in 0..WORLD_HEIGHT as i32 {
                for z in 0..CHUNK_SIZE {
                    for x in 0..CHUNK_SIZE {
                        let kind = if rng.gen_range(0..100) < self.rock_percent {
                            BlockKind::Stone
                        } else {
                            SEE_THROUGH[rng.gen_range(0..SEE_THROUGH.len())]
                        };
                        chunk.set_block(x, y, z, Block::simple(kind));
                    }
                }
            }
            chunk
        }

        fn name(&self) -> &str {
            "scatter"
        }
    }

    proptest::proptest! {
        /// The wavefront against the search it replaced, both reading one
        /// frozen snapshot (the production reader) flood after flood: a
        /// 3 × 3-chunk scatter whose unloaded chunks read as air, with
        /// origins at chunk corners, at the floor and the ceiling of the
        /// world and inside solid rock.
        #[test]
        fn bit_flood_equals_the_queue_flood(
            seed in proptest::prelude::any::<u64>(),
            rock_percent in 0u32..=80,
            loaded in 0u32..512,
        ) {
            let mut w = World::new(Box::new(Scatter { seed, rock_percent }), seed);
            for (i, pos) in ChunkPos::new(0, 0).square(1).enumerate() {
                if pos == ChunkPos::new(0, 0) || loaded & (1 << i) != 0 {
                    w.ensure_area(pos, 0);
                }
            }
            let rock = [
                BlockPos::new(1, 1, 1),
                BlockPos::new(8, 64, 8),
                BlockPos::new(14, 126, 14),
            ];
            for centre in rock {
                for dy in -1..=1 {
                    for dz in -1..=1 {
                        for dx in -1..=1 {
                            w.set_block_silent(
                                centre.offset(dx, dy, dz),
                                Block::simple(BlockKind::Stone),
                            );
                        }
                    }
                }
            }
            let mut origins = rock.to_vec();
            for x in [-16, -1, 0, 15, 16, 31] {
                for z in [-16, -1, 0, 15, 16, 31] {
                    for y in [0, 1, 2, 64, 125, 126, 127] {
                        origins.push(BlockPos::new(x, y, z));
                    }
                }
            }
            let task = (origins, Vec::new());
            let (tasks, ()) = w.run_frozen_phase(
                &PoolScope::scoped(1),
                vec![task],
                (),
                |mut frozen, (origins, counts): &mut (Vec<BlockPos>, Vec<(u32, u32)>), ()| {
                    for &origin in origins.iter() {
                        let bits = relight_after_change(&mut frozen, origin).flood_positions;
                        counts.push((bits, queue_flood(&mut frozen, origin)));
                    }
                },
            );
            let (origins, counts) = &tasks[0];
            for (origin, &(bits, queue)) in origins.iter().zip(counts) {
                proptest::prop_assert_eq!(bits, queue, "flood from {:?}", origin);
            }
            for &(bits, _) in &counts[..rock.len()] {
                proptest::prop_assert_eq!(bits, 1, "an origin inside rock floods nothing");
            }
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
