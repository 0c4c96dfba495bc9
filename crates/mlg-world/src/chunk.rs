//! Chunk columns: the unit of terrain storage and lazy generation.
//!
//! The world is split into vertical columns of `CHUNK_SIZE × CHUNK_SIZE`
//! blocks spanning the full world height. Chunks are generated lazily when a
//! player (or a workload builder) first touches them — Section 2.2.2 of the
//! paper: "This world is split into areas, which are lazily generated when
//! players come near them."
//!
//! Block storage is palette-compressed (see [`crate::palette`]): the chunk
//! keeps a small palette of distinct block values and packs per-position
//! palette indices into a bit array, so a freshly generated column costs
//! ~12 KB instead of the 64 KB a dense `Vec<Block>` body would, and an
//! untouched all-air chunk costs nothing at all. The `block`/`set_block`/
//! heightmap API is unchanged — rule modules cannot observe the layout.
//!
//! Terrain generators do not write through that API at all: they fill a
//! `ChunkBuilder` — a dense scratch of one-byte palette slots — and
//! `ChunkBuilder::finish` packs it once into the chunk a per-block replay
//! of the same writes would have produced.
//!
//! Every `(x, z)` column carries two summaries, kept exact by every write
//! ([`Chunk::column_summary`]): `top`, the heightmap — the highest non-air
//! block — and `base`, the top of the column's unbroken solid-or-fluid
//! foundation. Between them they answer most spawn candidates without a
//! block read: ground above `top` is air, feet at or below `base` are
//! blocked.
//!
//! Besides the summaries, the chunk tracks *light-dirty columns*: a 256-bit
//! mask of `(x, z)` columns whose light opacity profile changed since the
//! last relight pass consumed them. The incremental relighting cache in
//! [`crate::world`] uses this mask (plus a pass stamp) to skip re-flooding
//! positions whose 17×17 neighborhood is untouched. State-only block
//! changes (a redstone torch toggling) do not alter opacity and therefore
//! do not dirty the mask — that is what makes clock-driven worlds cheap to
//! relight.

use serde::{Deserialize, Serialize};

use crate::block::{Block, BlockKind};
use crate::palette::PaletteStore;
use crate::pos::ChunkPos;

/// Horizontal edge length of a chunk, in blocks.
pub const CHUNK_SIZE: usize = 16;

/// Height of the world, in blocks. Valid block `y` coordinates are
/// `0..WORLD_HEIGHT`.
pub const WORLD_HEIGHT: usize = 128;

// Column summaries store a `y` (or −1) in an `i8`.
const _: () = assert!(WORLD_HEIGHT - 1 <= i8::MAX as usize);

pub(crate) const BLOCKS_PER_CHUNK: usize = CHUNK_SIZE * CHUNK_SIZE * WORLD_HEIGHT;

/// Blocks in one horizontal layer (one per column); layers are contiguous
/// in the y-major block index.
pub(crate) const LAYER: usize = CHUNK_SIZE * CHUNK_SIZE;

/// Words in the per-chunk light-dirty column bitmask (256 columns).
const LIGHT_DIRTY_WORDS: usize = LAYER / 64;

/// Heap bytes a dense `Vec<Block>` chunk body would occupy: the baseline
/// of the palette-compression regression tests.
#[cfg(test)]
const DENSE_BODY_BYTES: usize = BLOCKS_PER_CHUNK * std::mem::size_of::<Block>();

/// `true` for a block a mob's feet cannot occupy: solid or fluid.
fn solid_or_fluid(block: Block) -> bool {
    block.is_solid() || block.kind().is_fluid()
}

/// What each `(x, z)` column holds, as far as lighting and spawning ask:
/// column `z * CHUNK_SIZE + x` of each array. 512 bytes, the size of the
/// `i16` heightmap they replaced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ColumnSummaries {
    /// Highest `y` such that every block in `0..=base` is solid or fluid,
    /// or −1.
    base: [i8; LAYER],
    /// Highest non-air `y`, or −1 (the heightmap).
    top: [i8; LAYER],
}

/// A single chunk column of blocks.
///
/// Blocks live in a [`PaletteStore`] indexed by `(x, y, z)` local
/// coordinates. The chunk also tracks a summary per column (its heightmap
/// and its solid-or-fluid base, see [`Chunk::column_summary`]) used by
/// lighting and spawning.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Chunk {
    pos: ChunkPos,
    store: PaletteStore,
    columns: Box<ColumnSummaries>,
    /// Number of non-air blocks, maintained incrementally.
    non_air: u32,
    /// Bit per `(x, z)` column (bit `z * CHUNK_SIZE + x`): set when a block
    /// change altered the column's light opacity since the last relight-pass
    /// fold. Substrate-only bookkeeping for the relight cache.
    light_dirty: [u64; LIGHT_DIRTY_WORDS],
    /// Relight-pass stamp recorded when the dirty mask was last folded;
    /// cache entries tagged at or before this stamp are invalid for any
    /// window overlapping this chunk.
    light_stamp: u64,
}

impl Chunk {
    /// Creates a new chunk filled with air.
    ///
    /// O(1): the palette store represents an all-air column without index
    /// storage and materializes lazily on the first non-air write.
    #[must_use]
    pub fn empty(pos: ChunkPos) -> Self {
        Chunk {
            pos,
            store: PaletteStore::new_air(),
            columns: Box::new(ColumnSummaries {
                base: [-1; LAYER],
                top: [-1; LAYER],
            }),
            non_air: 0,
            light_dirty: [0; LIGHT_DIRTY_WORDS],
            light_stamp: 0,
        }
    }

    /// Returns the chunk's position in the chunk grid.
    #[must_use]
    pub fn pos(&self) -> ChunkPos {
        self.pos
    }

    fn index(x: usize, y: i32, z: usize) -> Option<usize> {
        if x >= CHUNK_SIZE || z >= CHUNK_SIZE || y < 0 || y as usize >= WORLD_HEIGHT {
            return None;
        }
        Some((y as usize * CHUNK_SIZE + z) * CHUNK_SIZE + x)
    }

    /// Returns the block at local coordinates, or air when out of bounds
    /// vertically.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `z` are outside `0..CHUNK_SIZE`.
    #[must_use]
    pub fn block(&self, x: usize, y: i32, z: usize) -> Block {
        assert!(x < CHUNK_SIZE && z < CHUNK_SIZE, "local xz out of range");
        match Self::index(x, y, z) {
            Some(i) => self.store.get(i),
            None => Block::AIR,
        }
    }

    /// Sets the block at local coordinates and returns the previous block.
    ///
    /// Out-of-range vertical coordinates are ignored and return air.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `z` are outside `0..CHUNK_SIZE`.
    pub fn set_block(&mut self, x: usize, y: i32, z: usize, block: Block) -> Block {
        assert!(x < CHUNK_SIZE && z < CHUNK_SIZE, "local xz out of range");
        let Some(i) = Self::index(x, y, z) else {
            return Block::AIR;
        };
        let old = self.store.get(i);
        if old == block {
            return old;
        }
        self.store.set(i, block);
        if old.kind().light_opacity() != block.kind().light_opacity() {
            let col = z * CHUNK_SIZE + x;
            self.light_dirty[col / 64] |= 1u64 << (col % 64);
        }
        match (old.is_air(), block.is_air()) {
            (true, false) => self.non_air += 1,
            (false, true) => self.non_air -= 1,
            _ => {}
        }
        self.settle_column(x, z, y, block);
        old
    }

    /// Fills the vertical run `y_lo..=y_hi` of column `(x, z)` with `block`,
    /// clamping the run to the world's vertical bounds: [`Chunk::set_block`]
    /// for every `y` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `z` are outside `0..CHUNK_SIZE`, even when the
    /// clamped run is empty.
    pub fn fill_column(&mut self, x: usize, z: usize, y_lo: i32, y_hi: i32, block: Block) {
        assert!(x < CHUNK_SIZE && z < CHUNK_SIZE, "local xz out of range");
        for y in y_lo.max(0)..=y_hi.min(WORLD_HEIGHT as i32 - 1) {
            self.set_block(x, y, z, block);
        }
    }

    /// Brings column `(x, z)`'s summary up to date after block `y` (inside
    /// the world) was set to `block`, reading blocks only where the write
    /// moved an edge: a removed top scans down for the next non-air block,
    /// a filled gap just above `base` scans up to the top while the blocks
    /// stay solid or fluid — so a block laid on top of its column, the way
    /// builders and players build, reads nothing. The summary was exact
    /// before the write, so nothing outside those scans can have changed.
    fn settle_column(&mut self, x: usize, z: usize, y: i32, block: Block) {
        let (base, top) = self.column_summary(x, z);
        let read = |y: i32| self.block(x, y, z);
        let top = if !block.is_air() {
            top.max(y)
        } else if y == top {
            (0..y).rev().find(|&y| !read(y).is_air()).unwrap_or(-1)
        } else {
            top
        };
        let base = if !solid_or_fluid(block) {
            base.min(y - 1)
        } else if y == base + 1 {
            // Above `top` is air, or the world ends.
            (y + 1..=top)
                .find(|&y| !solid_or_fluid(read(y)))
                .unwrap_or(top + 1)
                - 1
        } else {
            base
        };
        let column = z * CHUNK_SIZE + x;
        self.columns.base[column] = base as i8;
        self.columns.top[column] = top as i8;
    }

    /// Returns the `y` coordinate of the highest non-air block in the given
    /// column, or `None` if the column is entirely air.
    #[must_use]
    pub fn height_at(&self, x: usize, z: usize) -> Option<i32> {
        let top = self.column_summary(x, z).1;
        (top >= 0).then_some(top)
    }

    /// Column `(x, z)`'s `(base, top)`, each a `y` or −1, kept exact by
    /// every write without reading a block:
    ///
    /// * `top` — the highest non-air block ([`Chunk::height_at`]);
    /// * `base` — the highest `y` such that every block in `0..=base` is
    ///   solid or fluid. Plants, redstone dust, torches, levers and air
    ///   break it, so `base < top` under a plant or a roof over a cave.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `z` are outside `0..CHUNK_SIZE`.
    #[must_use]
    pub fn column_summary(&self, x: usize, z: usize) -> (i32, i32) {
        assert!(x < CHUNK_SIZE && z < CHUNK_SIZE, "local xz out of range");
        let column = z * CHUNK_SIZE + x;
        (
            i32::from(self.columns.base[column]),
            i32::from(self.columns.top[column]),
        )
    }

    /// Returns the number of non-air blocks stored in the chunk.
    #[must_use]
    pub fn non_air_blocks(&self) -> u32 {
        self.non_air
    }

    /// Relight-pass stamp recorded at the last light-dirty fold.
    pub(crate) fn light_stamp(&self) -> u64 {
        self.light_stamp
    }

    /// Returns `true` if any column in the inclusive local rectangle
    /// `[x0..=x1] × [z0..=z1]` had its light opacity changed since the last
    /// relight-pass fold.
    pub(crate) fn light_dirty_in(&self, x0: usize, x1: usize, z0: usize, z1: usize) -> bool {
        if self.light_dirty == [0; LIGHT_DIRTY_WORDS] {
            return false;
        }
        for z in z0..=z1 {
            // Each z row is 16 consecutive bits; mask the x span in one op.
            let row = z * CHUNK_SIZE;
            let row_mask = (((1u32 << (x1 - x0 + 1)) - 1) as u64) << ((row + x0) % 64);
            if self.light_dirty[row / 64] & row_mask != 0 {
                return true;
            }
        }
        false
    }

    /// Folds the light-dirty mask into the stamp at the end of a relight
    /// pass: if any column was dirtied, records `stamp` (which invalidates
    /// all cache entries tagged at or before it) and clears the mask.
    pub(crate) fn fold_light_dirty(&mut self, stamp: u64) {
        if self.light_dirty != [0; LIGHT_DIRTY_WORDS] {
            self.light_stamp = stamp;
            self.light_dirty = [0; LIGHT_DIRTY_WORDS];
        }
    }

    /// Compacts the palette store (drops dead palette entries, narrows the
    /// packed index width). Substrate-only; cheap when already compact.
    pub fn compact_storage(&mut self) {
        self.store.gc();
    }

    /// Heap bytes owned by the block store (palette + packed indices).
    ///
    /// Compare with a dense `Vec<Block>` body to measure the palette win.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.store.storage_bytes()
    }

    /// Iterates over the blocks of one kind as `(local_x, y, local_z,
    /// block)`, in ascending `y`, then `z`, then `x`. A chunk holding no
    /// block of that kind yields nothing without reading its block storage
    /// ([`PaletteStore::iter_kind`]).
    pub fn iter_kind(
        &self,
        kind: BlockKind,
    ) -> impl Iterator<Item = (usize, i32, usize, Block)> + '_ {
        self.store.iter_kind(kind).map(|(i, b)| {
            let x = i % CHUNK_SIZE;
            let z = (i / CHUNK_SIZE) % CHUNK_SIZE;
            let y = (i / (CHUNK_SIZE * CHUNK_SIZE)) as i32;
            (x, y, z, b)
        })
    }

    /// Counts blocks of the given kind in the chunk.
    #[must_use]
    pub fn count_kind(&self, kind: BlockKind) -> usize {
        self.store.count_kind(kind)
    }

    /// Approximate serialized size in bytes when sent as a chunk-data packet.
    ///
    /// The protocol sends 3 bytes per non-air block (position-in-chunk is
    /// implicit via run-length sections) plus a fixed header; this mirrors how
    /// real MLG protocols compress mostly-air chunks.
    #[must_use]
    pub fn network_size_bytes(&self) -> usize {
        64 + self.non_air as usize * 3
    }
}

/// The block writes a terrain generator issues while shaping one chunk.
///
/// [`ChunkBuilder`] is the implementation generators run on; tests replay
/// the same calls through per-block [`Chunk::set_block`] as the reference
/// the builder must equal. Vertical ranges clamp to the world's bounds and
/// out-of-range `y` reads as air, exactly as on [`Chunk`].
///
/// # Panics
///
/// Every method panics if `x` or `z` are outside `0..CHUNK_SIZE`.
pub(crate) trait BlockSink {
    /// Fills every column of the horizontal slab `y_lo..=y_hi`.
    fn slab(&mut self, y_lo: i32, y_hi: i32, block: Block);
    /// Fills the vertical run `y_lo..=y_hi` of column `(x, z)`.
    fn column(&mut self, x: usize, z: usize, y_lo: i32, y_hi: i32, block: Block);
    /// Sets one block.
    fn set(&mut self, x: usize, y: i32, z: usize, block: Block);
    /// Reads one block back.
    fn get(&self, x: usize, y: i32, z: usize) -> Block;
}

/// Clamps an inclusive vertical range to the world, as a `usize` range.
fn clamp_layers(y_lo: i32, y_hi: i32) -> std::ops::Range<usize> {
    let lo = y_lo.max(0) as usize;
    let hi = (y_hi.min(WORLD_HEIGHT as i32 - 1) + 1).max(0) as usize;
    lo..hi.max(lo)
}

/// Number of block kinds: `kind as usize` indexes a table with one entry per
/// kind, because [`BlockKind::all`] lists them in discriminant order.
const KINDS: usize = BlockKind::all().len();

const _: () = {
    let mut i = 0;
    while i < KINDS {
        assert!(BlockKind::all()[i] as usize == i);
        i += 1;
    }
};

/// One-shot builder for a freshly generated chunk.
///
/// Writes land in a dense scratch of one-byte palette slots (32 KiB, on the
/// caller's stack), blocks are interned in first-write order, and
/// [`ChunkBuilder::finish`] derives everything a [`Chunk`] tracks from the
/// final state in one pass. Nothing is settled per write — no refcounts, no
/// column summary, no packed read-modify-write, no index widening — which is the
/// whole point: a generator's thousand-odd overlapping writes cost a byte
/// store each (a stateless block's slot is one table read away), and the
/// palette is packed exactly once, per word.
pub(crate) struct ChunkBuilder {
    slots: [u8; BLOCKS_PER_CHUNK],
    /// Interned blocks; `interned[0]` is air, the scratch's initial content.
    interned: [Block; 256],
    interned_len: usize,
    /// The slot of each stateless block interned so far, by kind; 0 (air's
    /// slot) for a kind not interned yet.
    stateless: [u8; KINDS],
    /// The layers column and block writes have reached. Every layer outside
    /// this band still holds one slot throughout: air, or a slab's.
    mixed: std::ops::Range<usize>,
}

impl ChunkBuilder {
    /// An all-air scratch.
    pub(crate) fn new() -> Self {
        ChunkBuilder {
            slots: [0; BLOCKS_PER_CHUNK],
            interned: [Block::AIR; 256],
            interned_len: 1,
            stateless: [0; KINDS],
            mixed: 0..0,
        }
    }

    /// The slot of `block`, interned on first use. A stateless block is
    /// found by kind; a block with state by searching what is interned.
    fn intern(&mut self, block: Block) -> u8 {
        let stateless = block.state() == 0;
        if stateless {
            let slot = self.stateless[block.kind() as usize];
            if slot != 0 || block.is_air() {
                return slot;
            }
        } else if let Some(slot) = self.interned[..self.interned_len]
            .iter()
            .position(|&b| b == block)
        {
            return slot as u8;
        }
        assert!(
            self.interned_len < self.interned.len(),
            "a generated chunk holds at most 256 distinct blocks"
        );
        let slot = self.interned_len as u8;
        self.interned[self.interned_len] = block;
        self.interned_len += 1;
        if stateless {
            self.stateless[block.kind() as usize] = slot;
        }
        slot
    }

    /// Packs the scratch into the chunk at `pos`: every column light-dirty
    /// (a new chunk has never been lit), storage compact.
    ///
    /// The column summaries come from one top-down pass over the layers:
    /// a column's `top` is the first non-air layer it meets, its `base`
    /// lies just under the last (lowest) layer where it is neither solid
    /// nor fluid. A uniform layer is judged once for every column; only
    /// the mixed band is read per column.
    pub(crate) fn finish(self, pos: ChunkPos) -> Chunk {
        let interned = &self.interned[..self.interned_len];
        let store = PaletteStore::from_dense(&self.slots, interned, self.mixed.clone());
        // The air slots, and the open ones (neither solid nor fluid): in
        // what generators write, air's slot 0 is the only air slot and the
        // only open one, so a mixed layer costs one byte-compare sweep for
        // the tops and one for the bases, which the compiler vectorizes.
        let mut air = [false; 256];
        let (mut open, mut opens) = ([0u8; 256], 0);
        for (slot, &block) in interned.iter().enumerate() {
            air[slot] = block.is_air();
            if !solid_or_fluid(block) {
                open[opens] = slot as u8;
                opens += 1;
            }
        }
        let open = &open[..opens];
        let lone_air = !air[1..interned.len()].contains(&true);
        // Every column starts solid to the ceiling; `floor` is the base the
        // uniform layers leave all of them.
        let mut columns = Box::new(ColumnSummaries {
            base: [(WORLD_HEIGHT - 1) as i8; LAYER],
            top: [-1; LAYER],
        });
        let mut floor = (WORLD_HEIGHT - 1) as i8;
        let mut tops_found = false;
        for (layer_y, layer) in self.slots.chunks_exact(LAYER).enumerate().rev() {
            let y = layer_y as i8;
            if !self.mixed.contains(&layer_y) {
                if open.contains(&layer[0]) {
                    floor = y - 1;
                }
                if !tops_found && !air[layer[0] as usize] {
                    tops_found = true;
                    for top in columns.top.iter_mut().filter(|top| **top < 0) {
                        *top = y;
                    }
                }
                continue;
            }
            if lone_air {
                for (top, &slot) in columns.top.iter_mut().zip(layer) {
                    *top = if *top < 0 && slot != 0 { y } else { *top };
                }
            } else {
                for (top, &slot) in columns.top.iter_mut().zip(layer) {
                    if *top < 0 && !air[slot as usize] {
                        *top = y;
                    }
                }
            }
            for &open_slot in open {
                for (base, &slot) in columns.base.iter_mut().zip(layer) {
                    *base = if slot == open_slot { y - 1 } else { *base };
                }
            }
        }
        for base in &mut columns.base {
            *base = (*base).min(floor);
        }
        Chunk {
            pos,
            non_air: (BLOCKS_PER_CHUNK - store.count_kind(BlockKind::Air)) as u32,
            store,
            columns,
            light_dirty: [!0; LIGHT_DIRTY_WORDS],
            light_stamp: 0,
        }
    }
}

impl BlockSink for ChunkBuilder {
    fn slab(&mut self, y_lo: i32, y_hi: i32, block: Block) {
        let layers = clamp_layers(y_lo, y_hi);
        if layers.is_empty() {
            return;
        }
        let slot = self.intern(block);
        // y-major layout: a horizontal slab is one contiguous run.
        self.slots[layers.start * LAYER..layers.end * LAYER].fill(slot);
    }

    // Inlined into the generator's column loop: the call, not the stores,
    // was a sixth of a noise chunk's terrain writes.
    #[inline]
    fn column(&mut self, x: usize, z: usize, y_lo: i32, y_hi: i32, block: Block) {
        assert!(x < CHUNK_SIZE && z < CHUNK_SIZE, "local xz out of range");
        let layers = clamp_layers(y_lo, y_hi);
        if layers.is_empty() {
            return;
        }
        let slot = self.intern(block);
        self.mixed = if self.mixed.is_empty() {
            layers.clone()
        } else {
            self.mixed.start.min(layers.start)..self.mixed.end.max(layers.end)
        };
        let column = z * CHUNK_SIZE + x;
        for layer in self.slots[layers.start * LAYER..layers.end * LAYER].chunks_exact_mut(LAYER) {
            layer[column] = slot;
        }
    }

    fn set(&mut self, x: usize, y: i32, z: usize, block: Block) {
        self.column(x, z, y, y, block);
    }

    fn get(&self, x: usize, y: i32, z: usize) -> Block {
        assert!(x < CHUNK_SIZE && z < CHUNK_SIZE, "local xz out of range");
        match Chunk::index(x, y, z) {
            Some(i) => self.interned[self.slots[i] as usize],
            None => Block::AIR,
        }
    }
}

/// The reference [`ChunkBuilder`] is tested against: the same writes, one
/// [`Chunk::set_block`] at a time, then compaction.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    impl BlockSink for Chunk {
        fn slab(&mut self, y_lo: i32, y_hi: i32, block: Block) {
            for x in 0..CHUNK_SIZE {
                for z in 0..CHUNK_SIZE {
                    self.column(x, z, y_lo, y_hi, block);
                }
            }
        }

        fn column(&mut self, x: usize, z: usize, y_lo: i32, y_hi: i32, block: Block) {
            for y in y_lo..=y_hi {
                self.set_block(x, y, z, block);
            }
        }

        fn set(&mut self, x: usize, y: i32, z: usize, block: Block) {
            self.set_block(x, y, z, block);
        }

        fn get(&self, x: usize, y: i32, z: usize) -> Block {
            self.block(x, y, z)
        }
    }

    /// Replays `writes` per block, finishes the way generators always have
    /// (compacted storage) and asserts `built` is that chunk: every block,
    /// column summary, counter and light-dirty bit, and the same packed
    /// width and storage footprint.
    pub(crate) fn assert_equals_replay(built: &Chunk, writes: impl FnOnce(&mut Chunk), ctx: &str) {
        let mut replayed = Chunk::empty(built.pos());
        writes(&mut replayed);
        replayed.compact_storage();
        let width = |chunk: &Chunk| (bits_per_entry(chunk), chunk.storage_bytes());
        assert_eq!(width(built), width(&replayed), "bits, bytes: {ctx}");
        tests::assert_chunks_equivalent(built, &replayed, ctx);
    }

    /// The chunk's packed index width.
    pub(crate) fn bits_per_entry(chunk: &Chunk) -> u8 {
        chunk.store.bits_per_entry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chunk() -> Chunk {
        Chunk::empty(ChunkPos::new(0, 0))
    }

    /// Column `(x, z)`'s `(base, top)` by reading every block: the last `y`
    /// of the solid-or-fluid run from the bottom, and the highest non-air
    /// `y` (−1 for none).
    fn scanned_summary(chunk: &Chunk, x: usize, z: usize) -> (i32, i32) {
        let ys = 0..WORLD_HEIGHT as i32;
        let base = ys.clone().find(|&y| !solid_or_fluid(chunk.block(x, y, z)));
        let top = ys.rev().find(|&y| !chunk.block(x, y, z).is_air());
        (base.unwrap_or(WORLD_HEIGHT as i32) - 1, top.unwrap_or(-1))
    }

    /// Asserts two chunks are observably identical: blocks, column
    /// summaries (each also against a scan of its blocks), non-air count
    /// and per-column light-dirty bits.
    pub(super) fn assert_chunks_equivalent(a: &Chunk, b: &Chunk, ctx: &str) {
        assert_eq!(a.non_air_blocks(), b.non_air_blocks(), "non_air: {ctx}");
        for x in 0..CHUNK_SIZE {
            for z in 0..CHUNK_SIZE {
                assert_eq!(
                    a.column_summary(x, z),
                    b.column_summary(x, z),
                    "base, top {x},{z}: {ctx}"
                );
                assert_eq!(
                    a.column_summary(x, z),
                    scanned_summary(a, x, z),
                    "base, top against a scan {x},{z}: {ctx}"
                );
                assert_eq!(
                    a.light_dirty_in(x, x, z, z),
                    b.light_dirty_in(x, x, z, z),
                    "light_dirty {x},{z}: {ctx}"
                );
                for y in 0..WORLD_HEIGHT as i32 {
                    assert_eq!(
                        a.block(x, y, z),
                        b.block(x, y, z),
                        "block {x},{y},{z}: {ctx}"
                    );
                }
            }
        }
    }

    /// The first `distinct` blocks of: air, four stateless blocks, two
    /// redstone dust states, air with state 1 (a second air slot, so
    /// `finish` cannot find tops by slot alone), then every non-air kind at
    /// state 0, 1, 2, … — enough for palettes of every width up to 8 bits.
    fn block_set(distinct: usize) -> Vec<Block> {
        let head = [
            Block::AIR,
            Block::simple(BlockKind::Stone),
            Block::simple(BlockKind::Dirt),
            Block::simple(BlockKind::Water),
            Block::simple(BlockKind::Leaves),
            Block::with_state(BlockKind::RedstoneDust, 3),
            Block::with_state(BlockKind::RedstoneDust, 9),
            Block::with_state(BlockKind::Air, 1),
        ];
        let grid = (0..=u8::MAX).flat_map(|state| {
            BlockKind::all()[1..]
                .iter()
                .map(move |&kind| Block::with_state(kind, state))
        });
        head.into_iter()
            .chain(grid.filter(|block| !head.contains(block)))
            .take(distinct)
            .collect()
    }

    /// A random write sequence over `blocks` (small sets make overwrites
    /// common, large ones wide palettes): clamped and empty ranges, air,
    /// refills, and `get`-guarded writes like a canopy's. Opens with an
    /// opaque slab because a finished builder marks every column
    /// light-dirty, as every generated chunk is.
    fn random_writes(out: &mut impl BlockSink, seed: u64, blocks: &[Block]) {
        let mut s = seed | 1;
        let mut next = |bound: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % bound
        };
        out.slab(0, 0, Block::simple(BlockKind::Bedrock));
        // Runs start in a band of layers whose ends vary with the seed, so
        // the builder's mixed band starts and ends at different layers, or
        // is clamped at the floor or the ceiling.
        let (floor, span) = (next(70) as i32 - 6, next(100) + 20);
        // A large set writes more, and mostly into air, so that most of its
        // blocks survive: slabs would overwrite them.
        let extra = blocks.len() as u64;
        for _ in 0..next(40) + 3 * blocks.len() as u64 {
            let (x, z) = (next(16) as usize, next(16) as usize);
            let y_lo = floor + next(span) as i32;
            let y_hi = y_lo + next(40) as i32 - 4;
            let block = blocks[next(blocks.len() as u64) as usize];
            match next(8 + extra) {
                0 => out.slab(y_lo, y_hi, block),
                1..=4 => out.column(x, z, y_lo, y_hi, block),
                5 | 6 => out.set(x, y_lo, z, block),
                _ => {
                    if out.get(x, y_lo, z).is_air() {
                        out.set(x, y_lo, z, block);
                    }
                }
            }
        }
    }

    /// Builds `random_writes(seed, block_set(distinct))`, asserts it equals
    /// the per-block replay, and returns its packed width and mixed band.
    fn build_and_replay(seed: u64, distinct: usize) -> (u8, std::ops::Range<usize>) {
        let blocks = block_set(distinct);
        let mut builder = ChunkBuilder::new();
        random_writes(&mut builder, seed, &blocks);
        let mixed = builder.mixed.clone();
        let built = builder.finish(ChunkPos::new(-3, 5));
        let ctx = format!("seed {seed}, {distinct} blocks");
        reference::assert_equals_replay(&built, |c| random_writes(c, seed, &blocks), &ctx);
        (reference::bits_per_entry(&built), mixed)
    }

    proptest! {
        #[test]
        fn builder_equals_per_block_replay(seed in any::<u64>(), distinct in 1usize..=200) {
            build_and_replay(seed, distinct);
        }
    }

    #[test]
    fn builder_packs_every_width_with_bands_that_cut_words() {
        // At 3, 5, 6 and 7 bits a word holds 21, 12, 10 and 9 entries, so
        // layer boundaries fall inside words: a band's first and last words
        // straddle it and the uniform stretch beside it.
        let mut cut = [false; 9];
        let mut widths = [false; 9];
        for distinct in [1, 2, 3, 5, 7, 8, 12, 20, 40, 64, 100, 150, 200] {
            for seed in (1..12).step_by(2) {
                let (bits, mixed) = build_and_replay(seed, distinct);
                let epw = 64 / usize::from(bits.max(1));
                widths[usize::from(bits)] = true;
                let mid_word = |layer: usize| !(layer * LAYER).is_multiple_of(epw);
                cut[usize::from(bits)] |= mixed.start > 0
                    && mixed.end < WORLD_HEIGHT
                    && mid_word(mixed.start)
                    && mid_word(mixed.end);
            }
        }
        assert_eq!(widths[1..], [true; 8], "widths 1..=8 reached");
        assert!(
            cut[3] && cut[5] && cut[6] && cut[7],
            "bands cutting words: {cut:?}"
        );
    }

    #[test]
    fn builder_forgets_a_block_whose_every_reference_was_overwritten() {
        let pos = ChunkPos::new(0, 0);
        fn terrain(out: &mut impl BlockSink, bury_the_sand: bool) {
            out.slab(0, 0, Block::simple(BlockKind::Bedrock));
            out.slab(1, 8, Block::simple(BlockKind::Stone));
            out.slab(9, 9, Block::simple(BlockKind::Sand));
            out.set(4, 10, 4, Block::simple(BlockKind::Dirt));
            if bury_the_sand {
                for x in 0..CHUNK_SIZE {
                    for z in 0..CHUNK_SIZE {
                        out.column(x, z, 9, 9, Block::simple(BlockKind::Stone));
                    }
                }
            }
        }
        for (bury_the_sand, bits) in [(false, 3), (true, 2)] {
            let mut builder = ChunkBuilder::new();
            terrain(&mut builder, bury_the_sand);
            let built = builder.finish(pos);
            // Air + four blocks need 3 bits; without the sand, 2 suffice.
            assert_eq!(built.store.bits_per_entry(), bits);
            assert_eq!(built.count_kind(BlockKind::Sand) == 0, bury_the_sand);
            reference::assert_equals_replay(&built, |c| terrain(c, bury_the_sand), "sand");
        }
    }

    #[test]
    fn untouched_builder_finishes_as_an_unmaterialized_air_chunk() {
        let built = ChunkBuilder::new().finish(ChunkPos::new(1, -1));
        assert_eq!(built.storage_bytes(), 0);
        assert_eq!(built.non_air_blocks(), 0);
        assert_eq!(built.height_at(3, 3), None);
    }

    #[test]
    fn empty_chunk_is_air() {
        let c = chunk();
        assert_eq!(c.block(0, 0, 0), Block::AIR);
        assert_eq!(c.block(15, 127, 15), Block::AIR);
        assert_eq!(c.non_air_blocks(), 0);
    }

    #[test]
    fn empty_chunk_owns_no_block_storage() {
        let c = chunk();
        assert_eq!(c.storage_bytes(), 0);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut c = chunk();
        let b = Block::simple(BlockKind::Stone);
        assert_eq!(c.set_block(3, 10, 4, b), Block::AIR);
        assert_eq!(c.block(3, 10, 4), b);
        assert_eq!(c.non_air_blocks(), 1);
    }

    #[test]
    fn out_of_range_y_returns_air() {
        let mut c = chunk();
        assert_eq!(c.block(0, -1, 0), Block::AIR);
        assert_eq!(c.block(0, WORLD_HEIGHT as i32, 0), Block::AIR);
        assert_eq!(
            c.set_block(
                0,
                WORLD_HEIGHT as i32 + 5,
                0,
                Block::simple(BlockKind::Stone)
            ),
            Block::AIR
        );
        assert_eq!(c.non_air_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "local xz out of range")]
    fn out_of_range_x_panics() {
        let c = chunk();
        let _ = c.block(16, 0, 0);
    }

    #[test]
    fn heightmap_tracks_highest_block() {
        let mut c = chunk();
        assert_eq!(c.height_at(2, 2), None);
        c.set_block(2, 10, 2, Block::simple(BlockKind::Stone));
        c.set_block(2, 20, 2, Block::simple(BlockKind::Dirt));
        assert_eq!(c.height_at(2, 2), Some(20));
        // Removing the top block scans down to the next one.
        c.set_block(2, 20, 2, Block::AIR);
        assert_eq!(c.height_at(2, 2), Some(10));
        c.set_block(2, 10, 2, Block::AIR);
        assert_eq!(c.height_at(2, 2), None);
    }

    #[test]
    fn column_base_follows_every_write() {
        /// Writes `block` over `y_lo..=y_hi` of column (2, 3) — one
        /// `set_block` when the run is one block — and requires `summary`
        /// from the chunk and from a scan.
        fn expect(c: &mut Chunk, (y_lo, y_hi): (i32, i32), block: Block, summary: (i32, i32)) {
            if y_lo == y_hi {
                c.set_block(2, y_lo, 3, block);
            } else {
                c.fill_column(2, 3, y_lo, y_hi, block);
            }
            let ctx = format!("{block} over {y_lo}..={y_hi}");
            assert_eq!(c.column_summary(2, 3), summary, "{ctx}");
            assert_eq!(scanned_summary(c, 2, 3), summary, "scan after {ctx}");
        }
        let kind = Block::simple;
        let mut c = chunk();
        assert_eq!(c.column_summary(2, 3), (-1, -1));
        // A foundation, then water and lava on it: fluids extend the base.
        expect(&mut c, (0, 59), kind(BlockKind::Stone), (59, 59));
        expect(&mut c, (60, 60), kind(BlockKind::Water), (60, 60));
        expect(&mut c, (61, 61), kind(BlockKind::Lava), (61, 61));
        // A plant on top raises the top only; so does a roof over air.
        expect(&mut c, (62, 62), kind(BlockKind::Wheat), (61, 62));
        expect(&mut c, (70, 70), kind(BlockKind::Stone), (61, 70));
        // A hole in the foundation drops the base under it; filling it
        // scans up through stone, water and lava to the plant.
        expect(&mut c, (30, 30), Block::AIR, (29, 70));
        expect(&mut c, (30, 30), kind(BlockKind::Dirt), (61, 70));
        // Overwriting the plant and the pocket joins the base to the roof.
        expect(&mut c, (62, 69), kind(BlockKind::Stone), (70, 70));
        // The bottom block opens and closes the whole base.
        let torch = Block::with_state(BlockKind::RedstoneTorch, 1);
        expect(&mut c, (0, 0), torch, (-1, 70));
        expect(&mut c, (0, 0), kind(BlockKind::Bedrock), (70, 70));
        // The ceiling: a clamped run fills the column to 127.
        expect(&mut c, (71, 300), kind(BlockKind::Water), (127, 127));
        expect(&mut c, (127, 127), kind(BlockKind::SugarCane), (126, 127));
        // Refilling a hole scans up to the top itself, the open cane.
        expect(&mut c, (10, 10), Block::AIR, (9, 127));
        expect(&mut c, (10, 10), kind(BlockKind::Stone), (126, 127));
        expect(&mut c, (127, 127), Block::AIR, (126, 126));
        // An air run through the middle cuts the base, not the top; a
        // solid run that does not reach `base + 1` leaves it alone, one
        // that does scans up from its top.
        expect(&mut c, (40, 50), Block::AIR, (39, 126));
        expect(&mut c, (42, 50), kind(BlockKind::Stone), (39, 126));
        expect(&mut c, (0, 41), kind(BlockKind::Dirt), (126, 126));
        // Clearing everything from the bottom up empties the column.
        expect(&mut c, (-5, 200), Block::AIR, (-1, -1));
        assert_eq!(c.column_summary(3, 2), (-1, -1), "a neighbour moved");
    }

    #[test]
    fn non_air_counter_stays_consistent() {
        let mut c = chunk();
        c.set_block(0, 0, 0, Block::simple(BlockKind::Stone));
        c.set_block(0, 0, 0, Block::simple(BlockKind::Dirt)); // replace, not add
        assert_eq!(c.non_air_blocks(), 1);
        c.set_block(0, 0, 0, Block::AIR);
        assert_eq!(c.non_air_blocks(), 0);
    }

    #[test]
    fn iter_kind_yields_placed_blocks() {
        let mut c = chunk();
        c.set_block(1, 2, 3, Block::simple(BlockKind::Stone));
        c.set_block(4, 5, 6, Block::simple(BlockKind::Sand));
        c.set_block(7, 5, 6, Block::simple(BlockKind::Sand));
        let stone: Vec<_> = c.iter_kind(BlockKind::Stone).collect();
        assert_eq!(stone, vec![(1, 2, 3, Block::simple(BlockKind::Stone))]);
        let sand: Vec<_> = c.iter_kind(BlockKind::Sand).collect();
        assert_eq!(
            sand,
            vec![
                (4, 5, 6, Block::simple(BlockKind::Sand)),
                (7, 5, 6, Block::simple(BlockKind::Sand)),
            ]
        );
        assert_eq!(c.iter_kind(BlockKind::Tnt).count(), 0);
    }

    #[test]
    fn network_size_grows_with_blocks() {
        let mut c = chunk();
        let empty = c.network_size_bytes();
        for x in 0..8 {
            c.set_block(x, 0, 0, Block::simple(BlockKind::Stone));
        }
        assert_eq!(c.network_size_bytes(), empty + 8 * 3);
    }

    #[test]
    fn count_kind_counts_exactly() {
        let mut c = chunk();
        for i in 0..5 {
            c.set_block(i, 3, 0, Block::simple(BlockKind::Tnt));
        }
        c.set_block(0, 4, 0, Block::simple(BlockKind::Stone));
        assert_eq!(c.count_kind(BlockKind::Tnt), 5);
        assert_eq!(c.count_kind(BlockKind::Stone), 1);
    }

    #[test]
    fn opacity_changes_dirty_the_light_column_mask() {
        let mut c = chunk();
        assert!(!c.light_dirty_in(0, 15, 0, 15));
        c.set_block(3, 10, 4, Block::simple(BlockKind::Stone));
        assert!(c.light_dirty_in(3, 3, 4, 4));
        assert!(c.light_dirty_in(0, 15, 0, 15));
        assert!(!c.light_dirty_in(0, 2, 0, 15), "wrong column flagged");
        c.fold_light_dirty(7);
        assert!(!c.light_dirty_in(0, 15, 0, 15));
        assert_eq!(c.light_stamp(), 7);
    }

    #[test]
    fn state_only_changes_do_not_dirty_light() {
        let mut c = chunk();
        // Stone changes opacity (air 0 -> stone 15), so this fold restamps;
        // the torch itself is opacity 0 and leaves the mask untouched.
        c.set_block(4, 5, 5, Block::simple(BlockKind::Stone));
        c.set_block(5, 5, 5, Block::simple(BlockKind::RedstoneTorch));
        c.fold_light_dirty(1);
        // Torch toggling state: same kind, same opacity — no light dirt.
        c.set_block(5, 5, 5, Block::with_state(BlockKind::RedstoneTorch, 1));
        assert!(!c.light_dirty_in(0, 15, 0, 15));
        assert_eq!(c.light_stamp(), 1);
        c.fold_light_dirty(9);
        assert_eq!(c.light_stamp(), 1, "fold without dirt must not restamp");
    }

    #[test]
    fn generated_style_chunk_compresses_at_least_4x() {
        // A flat-generator-shaped column: bedrock, stone, dirt, grass.
        let mut c = chunk();
        for x in 0..CHUNK_SIZE {
            for z in 0..CHUNK_SIZE {
                c.set_block(x, 0, z, Block::simple(BlockKind::Bedrock));
                for y in 1..60 {
                    c.set_block(x, y, z, Block::simple(BlockKind::Stone));
                }
                for y in 60..63 {
                    c.set_block(x, y, z, Block::simple(BlockKind::Dirt));
                }
                c.set_block(x, 63, z, Block::simple(BlockKind::Grass));
            }
        }
        c.compact_storage();
        let ratio = DENSE_BODY_BYTES as f64 / c.storage_bytes() as f64;
        assert!(ratio >= 4.0, "palette ratio {ratio:.2} below 4x");
        // Storage must still read back exactly.
        assert_eq!(c.block(7, 30, 7), Block::simple(BlockKind::Stone));
        assert_eq!(c.block(7, 63, 7), Block::simple(BlockKind::Grass));
        assert_eq!(c.block(7, 64, 7), Block::AIR);
        assert_eq!(c.height_at(7, 7), Some(63));
    }
}
