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
//! Besides the heightmap and the dissemination dirty flag, the chunk tracks
//! *light-dirty columns*: a 256-bit mask of `(x, z)` columns whose light
//! opacity profile changed since the last relight pass consumed them. The
//! incremental relighting cache in [`crate::world`] uses this mask (plus a
//! pass stamp) to skip re-flooding positions whose 17×17 neighborhood is
//! untouched. State-only block changes (a redstone torch toggling) do not
//! alter opacity and therefore do not dirty the mask — that is what makes
//! clock-driven worlds cheap to relight.

use serde::{Deserialize, Serialize};

use crate::block::{Block, BlockKind};
use crate::palette::PaletteStore;
use crate::pos::ChunkPos;

/// Horizontal edge length of a chunk, in blocks.
pub const CHUNK_SIZE: usize = 16;

/// Height of the world, in blocks. Valid block `y` coordinates are
/// `0..WORLD_HEIGHT`.
pub const WORLD_HEIGHT: usize = 128;

pub(crate) const BLOCKS_PER_CHUNK: usize = CHUNK_SIZE * CHUNK_SIZE * WORLD_HEIGHT;

/// Blocks in one horizontal layer (one per column); layers are contiguous
/// in the y-major block index.
pub(crate) const LAYER: usize = CHUNK_SIZE * CHUNK_SIZE;

/// Words in the per-chunk light-dirty column bitmask (256 columns).
const LIGHT_DIRTY_WORDS: usize = LAYER / 64;

/// Heap bytes a dense `Vec<Block>` chunk body would occupy. Kept as the
/// baseline for the palette-compression regression tests and benches.
pub const DENSE_BODY_BYTES: usize = BLOCKS_PER_CHUNK * std::mem::size_of::<Block>();

/// A single chunk column of blocks.
///
/// Blocks live in a [`PaletteStore`] indexed by `(x, y, z)` local
/// coordinates. The chunk also tracks a heightmap (highest non-air block per
/// column) used by lighting and spawning, and a dirty flag used by the server
/// to know which chunks need to be re-sent to clients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Chunk {
    pos: ChunkPos,
    store: PaletteStore,
    heightmap: Vec<i16>,
    /// Number of non-air blocks, maintained incrementally.
    non_air: u32,
    /// Set when the chunk was modified since the last time it was marked clean.
    dirty: bool,
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
            heightmap: vec![-1; CHUNK_SIZE * CHUNK_SIZE],
            non_air: 0,
            dirty: false,
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
        self.dirty = true;
        if old.kind().light_opacity() != block.kind().light_opacity() {
            let col = z * CHUNK_SIZE + x;
            self.light_dirty[col / 64] |= 1u64 << (col % 64);
        }
        match (old.is_air(), block.is_air()) {
            (true, false) => self.non_air += 1,
            (false, true) => self.non_air -= 1,
            _ => {}
        }
        self.update_heightmap_column(x, z, y, block);
        old
    }

    /// Fills the vertical run `y_lo..=y_hi` of column `(x, z)` with `block`,
    /// clamping the run to the world's vertical bounds.
    ///
    /// Behaviourally identical to calling [`Chunk::set_block`] for every `y`
    /// in ascending order, but the palette slot is acquired once for the
    /// whole run and the heightmap, light-dirty and non-air bookkeeping are
    /// settled once per column instead of once per block — the bulk write
    /// path for columns of an existing chunk (whole new chunks come from a
    /// `ChunkBuilder`).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `z` are outside `0..CHUNK_SIZE`.
    pub fn fill_column(&mut self, x: usize, z: usize, y_lo: i32, y_hi: i32, block: Block) {
        assert!(x < CHUNK_SIZE && z < CHUNK_SIZE, "local xz out of range");
        let y_lo = y_lo.max(0);
        let y_hi = y_hi.min(WORLD_HEIGHT as i32 - 1);
        if y_lo > y_hi {
            return;
        }
        let start = Self::index(x, y_lo, z).expect("run clamped to world bounds");
        let count = (y_hi - y_lo + 1) as usize;
        let new_opacity = block.kind().light_opacity();
        let mut non_air_delta: i64 = 0;
        let mut opacity_changed = false;
        let changed =
            self.store
                .fill_strided(start, CHUNK_SIZE * CHUNK_SIZE, count, block, |old, n| {
                    match (old.is_air(), block.is_air()) {
                        (true, false) => non_air_delta += i64::from(n),
                        (false, true) => non_air_delta -= i64::from(n),
                        _ => {}
                    }
                    if old.kind().light_opacity() != new_opacity {
                        opacity_changed = true;
                    }
                });
        if changed == 0 {
            return;
        }
        self.dirty = true;
        self.non_air = u32::try_from(i64::from(self.non_air) + non_air_delta)
            .expect("non-air counter stays within the chunk volume");
        if opacity_changed {
            let col = z * CHUNK_SIZE + x;
            self.light_dirty[col / 64] |= 1u64 << (col % 64);
        }
        let hm_idx = z * CHUNK_SIZE + x;
        let current = self.heightmap[hm_idx];
        if !block.is_air() {
            if y_hi as i16 > current {
                self.heightmap[hm_idx] = y_hi as i16;
            }
        } else if (y_lo as i16..=y_hi as i16).contains(&current) {
            // The run cleared the column top: scan downwards below the run
            // for the new top, exactly as per-block removal would.
            let mut new_top = -1;
            for yy in (0..y_lo).rev() {
                if let Some(i) = Self::index(x, yy, z) {
                    if !self.store.get(i).is_air() {
                        new_top = yy as i16;
                        break;
                    }
                }
            }
            self.heightmap[hm_idx] = new_top;
        }
    }

    fn update_heightmap_column(&mut self, x: usize, z: usize, y: i32, placed: Block) {
        let hm_idx = z * CHUNK_SIZE + x;
        let current = self.heightmap[hm_idx];
        if !placed.is_air() {
            if y as i16 > current {
                self.heightmap[hm_idx] = y as i16;
            }
        } else if y as i16 == current {
            // The top block was removed: scan downwards for the new top.
            let mut new_top = -1;
            for yy in (0..y).rev() {
                if let Some(i) = Self::index(x, yy, z) {
                    if !self.store.get(i).is_air() {
                        new_top = yy as i16;
                        break;
                    }
                }
            }
            self.heightmap[hm_idx] = new_top;
        }
    }

    /// Returns the `y` coordinate of the highest non-air block in the given
    /// column, or `None` if the column is entirely air.
    #[must_use]
    pub fn height_at(&self, x: usize, z: usize) -> Option<i32> {
        assert!(x < CHUNK_SIZE && z < CHUNK_SIZE, "local xz out of range");
        let h = self.heightmap[z * CHUNK_SIZE + x];
        (h >= 0).then_some(i32::from(h))
    }

    /// Returns the number of non-air blocks stored in the chunk.
    #[must_use]
    pub fn non_air_blocks(&self) -> u32 {
        self.non_air
    }

    /// Returns `true` if the chunk has been modified since the last call to
    /// [`Chunk::mark_clean`].
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Clears the dirty flag.
    pub fn mark_clean(&mut self) {
        self.dirty = false;
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
    /// Compare with [`DENSE_BODY_BYTES`] to measure the palette win.
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

/// One-shot builder for a freshly generated chunk.
///
/// Writes land in a dense scratch of one-byte palette slots (32 KiB, on the
/// caller's stack), blocks are interned in first-write order, and
/// [`ChunkBuilder::finish`] derives everything a [`Chunk`] tracks from the
/// final state in one pass. Nothing is settled per write — no refcounts, no
/// heightmap, no packed read-modify-write, no index widening — which is the
/// whole point: a generator's thousand-odd overlapping writes cost a byte
/// store each, and the palette is packed exactly once.
pub(crate) struct ChunkBuilder {
    slots: [u8; BLOCKS_PER_CHUNK],
    /// Interned blocks; `interned[0]` is air, the scratch's initial content.
    interned: [Block; 256],
    interned_len: usize,
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
            mixed: 0..0,
        }
    }

    fn intern(&mut self, block: Block) -> u8 {
        let known = &self.interned[..self.interned_len];
        if let Some(slot) = known.iter().position(|&b| b == block) {
            return slot as u8;
        }
        assert!(
            self.interned_len < self.interned.len(),
            "a generated chunk holds at most 256 distinct blocks"
        );
        self.interned[self.interned_len] = block;
        self.interned_len += 1;
        (self.interned_len - 1) as u8
    }

    /// Packs the scratch into the chunk at `pos`: clean, every column
    /// light-dirty (a new chunk has never been lit), storage compact.
    pub(crate) fn finish(self, pos: ChunkPos) -> Chunk {
        let interned = &self.interned[..self.interned_len];
        let store = PaletteStore::from_dense(&self.slots, interned, self.mixed.clone());
        let mut heightmap = vec![-1i16; LAYER];
        for (y, layer) in self.slots.chunks_exact(LAYER).enumerate().rev() {
            let uniform = !self.mixed.contains(&y);
            if uniform && interned[layer[0] as usize].is_air() {
                continue;
            }
            for (top, &slot) in heightmap.iter_mut().zip(layer) {
                if *top < 0 && !interned[slot as usize].is_air() {
                    *top = y as i16;
                }
            }
            if uniform {
                break;
            }
        }
        Chunk {
            pos,
            non_air: (BLOCKS_PER_CHUNK - store.count_kind(BlockKind::Air)) as u32,
            store,
            heightmap,
            dirty: false,
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
    /// (compacted storage, clean flag) and asserts `built` is that chunk:
    /// every block, heightmap cell, counter, flag and light-dirty bit, and
    /// the same packed width and storage footprint.
    pub(crate) fn assert_equals_replay(built: &Chunk, writes: impl FnOnce(&mut Chunk), ctx: &str) {
        let mut replayed = Chunk::empty(built.pos());
        writes(&mut replayed);
        replayed.compact_storage();
        replayed.mark_clean();
        let width = |chunk: &Chunk| (chunk.store.bits_per_entry(), chunk.storage_bytes());
        assert_eq!(width(built), width(&replayed), "bits, bytes: {ctx}");
        tests::assert_chunks_equivalent(built, &replayed, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chunk() -> Chunk {
        Chunk::empty(ChunkPos::new(0, 0))
    }

    /// Asserts two chunks are observably identical: blocks, heightmap,
    /// non-air count, dirty flag and per-column light-dirty bits.
    pub(super) fn assert_chunks_equivalent(a: &Chunk, b: &Chunk, ctx: &str) {
        assert_eq!(a.non_air_blocks(), b.non_air_blocks(), "non_air: {ctx}");
        assert_eq!(a.is_dirty(), b.is_dirty(), "dirty: {ctx}");
        for x in 0..CHUNK_SIZE {
            for z in 0..CHUNK_SIZE {
                assert_eq!(
                    a.height_at(x, z),
                    b.height_at(x, z),
                    "height {x},{z}: {ctx}"
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

    proptest! {
        #[test]
        fn fill_column_equals_per_block_set(seed in any::<u64>()) {
            // Random column fills (including out-of-bounds ranges that must
            // clamp, air fills, and refills) applied to one chunk via
            // `fill_column` and to a sibling via per-block `set_block`,
            // with `compact_storage` (palette gc) interleaved mid-sequence.
            let palette = [
                Block::AIR,
                Block::simple(BlockKind::Stone),
                Block::simple(BlockKind::Dirt),
                Block::simple(BlockKind::Grass),
                Block::simple(BlockKind::Water),
                Block::simple(BlockKind::Sand),
                Block::simple(BlockKind::Log),
                Block::with_state(BlockKind::RedstoneDust, 3),
            ];
            let mut a = chunk();
            let mut b = chunk();
            let mut s = seed;
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for op in 0..40u32 {
                let x = (next() % CHUNK_SIZE as u64) as usize;
                let z = (next() % CHUNK_SIZE as u64) as usize;
                // Biased toward in-bounds but can start below 0 / end above
                // the world height to exercise clamping.
                let y_lo = (next() % 140) as i32 - 6;
                let y_hi = y_lo + (next() % 70) as i32 - 4;
                let block = palette[(next() % palette.len() as u64) as usize];
                a.fill_column(x, z, y_lo, y_hi, block);
                for y in y_lo..=y_hi {
                    b.set_block(x, y, z, block);
                }
                if op % 9 == 8 {
                    a.compact_storage();
                    b.compact_storage();
                }
            }
            assert_chunks_equivalent(&a, &b, &format!("seed {seed}"));
        }
    }

    /// A random write sequence over a small block set (so overwrites are
    /// common): clamped and empty ranges, air, refills, and `get`-guarded
    /// writes like a canopy's. Opens with an opaque slab because a finished
    /// builder marks every column light-dirty, as every generated chunk is.
    fn random_writes(out: &mut impl BlockSink, seed: u64) {
        let blocks = [
            Block::AIR,
            Block::simple(BlockKind::Stone),
            Block::simple(BlockKind::Dirt),
            Block::simple(BlockKind::Water),
            Block::simple(BlockKind::Leaves),
            Block::with_state(BlockKind::RedstoneDust, 3),
            Block::with_state(BlockKind::RedstoneDust, 9),
        ];
        let mut s = seed | 1;
        let mut next = |bound: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % bound
        };
        out.slab(0, 0, Block::simple(BlockKind::Bedrock));
        for _ in 0..next(40) {
            let (x, z) = (next(16) as usize, next(16) as usize);
            let y_lo = next(140) as i32 - 6;
            let y_hi = y_lo + next(40) as i32 - 4;
            let block = blocks[next(blocks.len() as u64) as usize];
            match next(8) {
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

    proptest! {
        #[test]
        fn builder_equals_per_block_replay(seed in any::<u64>()) {
            let pos = ChunkPos::new(-3, 5);
            let mut builder = ChunkBuilder::new();
            random_writes(&mut builder, seed);
            let built = builder.finish(pos);
            reference::assert_equals_replay(&built, |c| random_writes(c, seed), &format!("seed {seed}"));
        }
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
        assert!(!built.is_dirty());
    }

    #[test]
    fn empty_chunk_is_air() {
        let c = chunk();
        assert_eq!(c.block(0, 0, 0), Block::AIR);
        assert_eq!(c.block(15, 127, 15), Block::AIR);
        assert_eq!(c.non_air_blocks(), 0);
        assert!(!c.is_dirty());
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
        assert!(c.is_dirty());
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
    fn non_air_counter_stays_consistent() {
        let mut c = chunk();
        c.set_block(0, 0, 0, Block::simple(BlockKind::Stone));
        c.set_block(0, 0, 0, Block::simple(BlockKind::Dirt)); // replace, not add
        assert_eq!(c.non_air_blocks(), 1);
        c.set_block(0, 0, 0, Block::AIR);
        assert_eq!(c.non_air_blocks(), 0);
    }

    #[test]
    fn setting_same_block_does_not_dirty() {
        let mut c = chunk();
        c.set_block(1, 1, 1, Block::simple(BlockKind::Stone));
        c.mark_clean();
        c.set_block(1, 1, 1, Block::simple(BlockKind::Stone));
        assert!(!c.is_dirty());
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
