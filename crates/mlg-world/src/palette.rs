//! Palette-compressed block storage for chunk columns.
//!
//! A dense chunk body stores 32,768 two-byte [`Block`]s (64 KB per column)
//! even though a typical generated column contains fewer than ten distinct
//! block values. The palette store keeps one copy of each distinct value in
//! a small `palette` vector and packs a per-entry *palette index* into a
//! `u64` bit array instead: 1/2/4/8 bits per entry while the palette grows
//! (auto-widening steps up through power-of-two widths when the palette
//! overflows the current one), and [`PaletteStore::gc`] compacts back down
//! to the narrowest width that still addresses every live palette entry.
//! Generated chunks never climb that ladder: `PaletteStore::from_dense`
//! packs a finished dense slot array once, directly at the compacted width.
//!
//! Invariants:
//!
//! * a materialized store always keeps `palette[0] == Block::AIR`, so an
//!   all-zero index word means "64/bits consecutive air blocks" and scans
//!   can skip it wholesale;
//! * `bits == 0` means the store is an unmaterialized all-air column that
//!   owns no index words at all (`Chunk::empty` is O(1));
//! * an entry never straddles a word boundary: each `u64` word holds
//!   `64 / bits` entries, with any remainder bits unused (and kept zero)
//!   for the compacted widths that do not divide 64.
//!
//! The store is pure substrate: every observable read goes through
//! [`PaletteStore::get`], which returns exactly what a dense `Vec<Block>`
//! at the same logical state would, so the modeled simulation cannot tell
//! the representations apart.

use serde::{Deserialize, Serialize};

use crate::block::{Block, BlockKind};
use crate::chunk::{BLOCKS_PER_CHUNK, LAYER};

/// Widths the auto-widening path steps through while a palette grows.
/// `gc` and `from_dense` may leave intermediate widths (3, 5, 6, …); growth
/// always jumps to the next power of two, so a run of play-time inserts
/// repacks the index array at most four times.
const WIDEN_LADDER: [u8; 5] = [1, 2, 4, 8, 16];

/// `(entries per word, ⌈2³² / entries per word⌉)` for each index width
/// `bits` (row 0, the unmaterialized store, is never consulted). With the
/// reciprocal `m`, `(i · m) >> 32 == i / entries_per_word` for every
/// `i < 65,536`: `m` exceeds `2³² / epw` by less than one, so `i · m / 2³²`
/// exceeds `i / epw` by less than `2⁻¹⁶` — too little to lift a fractional
/// part of at most `1 − 1/64` over the next integer. The test
/// `locate_divides_exactly` checks every width and every such `i`.
const GEOMETRY: [(u32, u32); 17] = {
    let mut table = [(0, 0); 17];
    let mut bits = 1;
    while bits <= 16 {
        let epw = 64 / bits as u64;
        table[bits] = (epw as u32, (1u64 << 32).div_ceil(epw) as u32);
        bits += 1;
    }
    table
};

/// Narrowest width whose index space addresses `len` palette entries.
fn minimal_bits(len: usize) -> u8 {
    (1..=16u8)
        .find(|&b| (1usize << b) >= len)
        .expect("palette cannot exceed 2^16 distinct blocks")
}

/// A palette-compressed array of `BLOCKS_PER_CHUNK` (16×16×128) blocks.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PaletteStore {
    /// Distinct block values; index 0 is always [`Block::AIR`] once
    /// materialized. Entries whose refcount drops to zero stay in place
    /// (for slot reuse) until [`PaletteStore::gc`] compacts them away.
    palette: Vec<Block>,
    /// Number of stored entries referencing each palette slot.
    refs: Vec<u32>,
    /// Bits per packed index; 0 = unmaterialized all-air store.
    bits: u8,
    /// Count of dead palette slots (`refs == 0`, excluding slot 0),
    /// maintained so `gc` can no-op cheaply on already-compact stores.
    dead: u32,
    /// The packed index words.
    data: Vec<u64>,
}

/// The index word of the (at most `64 / width`) entries from `first` on,
/// each slot remapped: entry `first` in the lowest bits.
fn pack_word(
    slots: &[u8; BLOCKS_PER_CHUNK],
    remap: &[u64; 256],
    width: usize,
    first: usize,
) -> u64 {
    let entries = &slots[first..(first + 64 / width).min(BLOCKS_PER_CHUNK)];
    entries
        .iter()
        .rev()
        .fold(0, |packed, &slot| packed << width | remap[slot as usize])
}

/// [`pack_word`] for each of `words` at the width `BITS`, known to the
/// compiler: a whole word's entries are a fixed-length run, so its loop
/// unrolls into constant shifts. Only a chunk's last word can be short.
fn pack_words<const BITS: usize>(
    slots: &[u8; BLOCKS_PER_CHUNK],
    remap: &[u64; 256],
    data: &mut [u64],
    words: std::ops::Range<usize>,
) {
    let epw = 64 / BITS;
    let whole = words.start..words.end.min(BLOCKS_PER_CHUNK / epw);
    for (word, out) in whole.clone().zip(&mut data[whole.clone()]) {
        let entries = &slots[word * epw..][..epw];
        *out = entries
            .iter()
            .rev()
            .fold(0, |packed, &slot| packed << BITS | remap[slot as usize]);
    }
    for (word, out) in (whole.end..words.end).zip(&mut data[whole.end..words.end]) {
        *out = pack_word(slots, remap, BITS, word * epw);
    }
}

impl PaletteStore {
    /// Creates an all-air store without allocating index storage.
    #[must_use]
    pub fn new_air() -> Self {
        PaletteStore::default()
    }

    /// Packs a finished dense array of one-byte palette slots in one pass,
    /// producing the store that per-entry [`PaletteStore::set`] calls
    /// followed by [`PaletteStore::gc`] would have left: interned values no
    /// entry references are dropped, the rest keep their interning order,
    /// and the index words are written once, at the minimal width.
    ///
    /// `interned[s]` is the block slot `s` stands for (`interned[0]` must be
    /// air). The caller promises that every layer (run of [`LAYER`] entries)
    /// outside the layer range `mixed` holds one slot throughout; such
    /// layers are counted arithmetically and packed as broadcast words, so
    /// only the mixed band is read entry by entry, and its words — with the
    /// ragged ends of uniform stretches — are built per word.
    pub(crate) fn from_dense(
        slots: &[u8; BLOCKS_PER_CHUNK],
        interned: &[Block],
        mixed: std::ops::Range<usize>,
    ) -> Self {
        debug_assert_eq!(interned[0], Block::AIR);
        let is_uniform = |layer: usize| !mixed.contains(&layer);
        // Four interleaved histograms: a run of equal slots would otherwise
        // serialise on one counter's store-to-load latency.
        let mut lanes = [[0u32; 256]; 4];
        for (layer, entries) in slots.chunks_exact(LAYER).enumerate() {
            if is_uniform(layer) {
                lanes[0][entries[0] as usize] += LAYER as u32;
            } else {
                for four in entries.chunks_exact(4) {
                    for (lane, &slot) in lanes.iter_mut().zip(four) {
                        lane[slot as usize] += 1;
                    }
                }
            }
        }
        let count = |slot: usize| lanes.iter().map(|lane| lane[slot]).sum::<u32>();
        if count(0) as usize == BLOCKS_PER_CHUNK {
            return PaletteStore::default();
        }
        let mut remap = [0u64; 256];
        let mut palette = vec![Block::AIR];
        let mut refs = vec![count(0)];
        for (slot, &block) in interned.iter().enumerate().skip(1) {
            if count(slot) > 0 {
                remap[slot] = palette.len() as u64;
                palette.push(block);
                refs.push(count(slot));
            }
        }
        let bits = minimal_bits(palette.len());
        let (epw, width) = ((64 / bits) as usize, bits as usize);
        let broadcast = (0..epw).fold(0u64, |w, e| w | 1 << (e * width));
        let mut data = vec![0u64; BLOCKS_PER_CHUNK.div_ceil(epw)];
        // Builds each word of `words` in a register from its entries and
        // stores it once. A word is built from `slots`, which hold every
        // entry's final value, so building a word twice (a ragged end
        // shared by two stretches) writes the same value twice.
        let pack = |data: &mut [u64], words: std::ops::Range<usize>| match bits {
            1 => pack_words::<1>(slots, &remap, data, words),
            2 => pack_words::<2>(slots, &remap, data, words),
            3 => pack_words::<3>(slots, &remap, data, words),
            4 => pack_words::<4>(slots, &remap, data, words),
            5 => pack_words::<5>(slots, &remap, data, words),
            6 => pack_words::<6>(slots, &remap, data, words),
            7 => pack_words::<7>(slots, &remap, data, words),
            8 => pack_words::<8>(slots, &remap, data, words),
            _ => {
                for (word, out) in words.clone().zip(&mut data[words]) {
                    *out = pack_word(slots, &remap, width, word * epw);
                }
            }
        };
        let mut layer = 0;
        while layer < BLOCKS_PER_CHUNK / LAYER {
            // A stretch of uniform layers holding one slot, or one mixed layer.
            let (lo, mut end) = (layer * LAYER, layer + 1);
            let mut whole_words = 0..0;
            if is_uniform(layer) {
                while end * LAYER < BLOCKS_PER_CHUNK
                    && is_uniform(end)
                    && slots[end * LAYER] == slots[lo]
                {
                    end += 1;
                }
                whole_words = lo.div_ceil(epw)..end * LAYER / epw;
            }
            // Words wholly inside a uniform stretch are one broadcast
            // pattern; its ragged ends, and mixed layers, are built per word.
            let words = lo / epw..(end * LAYER).div_ceil(epw);
            if whole_words.is_empty() {
                pack(&mut data, words);
            } else {
                pack(&mut data, words.start..whole_words.start);
                pack(&mut data, whole_words.end..words.end);
                data[whole_words].fill(remap[slots[lo] as usize] * broadcast);
            }
            layer = end;
        }
        PaletteStore {
            palette,
            refs,
            bits,
            dead: 0,
            data,
        }
    }

    fn mask(&self) -> u64 {
        (1u64 << self.bits) - 1
    }

    fn capacity(&self) -> usize {
        1usize << self.bits
    }

    /// The `(word, shift)` of entry `i` in the packed layout, without
    /// dividing by the run-time entries-per-word (see [`GEOMETRY`]).
    fn locate(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < 1 << 16);
        let (epw, reciprocal) = GEOMETRY[self.bits as usize];
        let word = ((i as u64 * u64::from(reciprocal)) >> 32) as usize;
        (word, (i - word * epw as usize) * self.bits as usize)
    }

    fn index_at(&self, i: usize) -> usize {
        let (word, shift) = self.locate(i);
        ((self.data[word] >> shift) & self.mask()) as usize
    }

    fn write_index(&mut self, i: usize, idx: usize) {
        let (word, shift) = self.locate(i);
        let mask = self.mask();
        self.data[word] = (self.data[word] & !(mask << shift)) | ((idx as u64) << shift);
    }

    /// Lays out the 1-bit index array for the first non-air write.
    fn materialize(&mut self) {
        self.bits = 1;
        self.data = vec![0u64; BLOCKS_PER_CHUNK / 64];
        self.palette = vec![Block::AIR];
        self.refs = vec![BLOCKS_PER_CHUNK as u32];
        self.dead = 0;
    }

    /// Repacks the index array at `new_bits` per entry, optionally applying
    /// a palette-index remapping (used by `gc`; `remap[old] == new`).
    fn repack(&mut self, new_bits: u8, remap: Option<&[usize]>) {
        let old_bits = self.bits as usize;
        let old_epw = 64 / old_bits;
        let old_mask = self.mask();
        let new_epw = (64 / new_bits) as usize;
        let new_bits_u = new_bits as usize;
        let mut new_data = vec![0u64; BLOCKS_PER_CHUNK.div_ceil(new_epw)];
        // Walk both layouts with running word/shift cursors instead of
        // dividing by the (runtime-valued) entries-per-word each entry,
        // and skip all-zero old words wholesale: an all-zero word is a run
        // of air entries and air's palette slot is pinned at 0 under any
        // remap, so it contributes nothing to the (zeroed) new layout.
        // Repack runs over all 32k entries on every widen/narrow — during
        // generation the store widens while still mostly air, so these two
        // short-cuts are what keep the widening cascade off the hot path.
        let (mut nw, mut ns, mut nc) = (0usize, 0usize, 0usize);
        let mut base = 0usize;
        for ow in 0..self.data.len() {
            let in_word = old_epw.min(BLOCKS_PER_CHUNK - base);
            let w = self.data[ow];
            if w == 0 {
                nc += in_word;
                nw += nc / new_epw;
                nc %= new_epw;
                ns = nc * new_bits_u;
            } else {
                let mut os = 0;
                for _ in 0..in_word {
                    let mut idx = ((w >> os) & old_mask) as usize;
                    if let Some(map) = remap {
                        idx = map[idx];
                    }
                    if idx != 0 {
                        new_data[nw] |= (idx as u64) << ns;
                    }
                    os += old_bits;
                    nc += 1;
                    if nc == new_epw {
                        nc = 0;
                        ns = 0;
                        nw += 1;
                    } else {
                        ns += new_bits_u;
                    }
                }
            }
            base += in_word;
        }
        self.data = new_data;
        self.bits = new_bits;
    }

    /// Returns a palette index holding `block`, reusing an existing or dead
    /// slot where possible and widening the index array when the palette
    /// outgrows it. Increments the slot's refcount.
    fn acquire(&mut self, block: Block) -> usize {
        if let Some(j) = self.palette.iter().position(|&b| b == block) {
            if self.refs[j] == 0 && j != 0 {
                self.dead -= 1;
            }
            self.refs[j] += 1;
            return j;
        }
        if self.dead > 0 {
            if let Some(j) = (1..self.palette.len()).find(|&j| self.refs[j] == 0) {
                self.palette[j] = block;
                self.refs[j] = 1;
                self.dead -= 1;
                return j;
            }
        }
        if self.palette.len() == self.capacity() {
            let wider = WIDEN_LADDER
                .iter()
                .copied()
                .find(|&b| b > self.bits)
                .expect("palette cannot exceed 2^16 distinct blocks");
            self.repack(wider, None);
        }
        self.palette.push(block);
        self.refs.push(1);
        self.palette.len() - 1
    }

    /// Returns the block at entry `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> Block {
        debug_assert!(i < BLOCKS_PER_CHUNK);
        if self.bits == 0 {
            return Block::AIR;
        }
        self.palette[self.index_at(i)]
    }

    /// Sets entry `i` and returns its previous block.
    pub fn set(&mut self, i: usize, block: Block) -> Block {
        debug_assert!(i < BLOCKS_PER_CHUNK);
        if self.bits == 0 {
            if block == Block::AIR {
                return Block::AIR;
            }
            self.materialize();
        }
        let old_idx = self.index_at(i);
        let old = self.palette[old_idx];
        if old == block {
            return old;
        }
        let new_idx = self.acquire(block);
        self.refs[old_idx] -= 1;
        if self.refs[old_idx] == 0 && old_idx != 0 {
            self.dead += 1;
        }
        self.write_index(i, new_idx);
        old
    }

    /// Compacts the palette: drops dead slots and narrows the index array
    /// to the minimal width addressing the remaining entries. A store that
    /// became all-air reverts to the O(1) unmaterialized representation.
    ///
    /// Cheap to call speculatively — an already-compact store returns
    /// immediately.
    pub fn gc(&mut self) {
        if self.bits == 0 {
            return;
        }
        if self.refs[0] as usize == BLOCKS_PER_CHUNK {
            *self = PaletteStore::default();
            return;
        }
        let live = self.palette.len() - self.dead as usize;
        let minimal = minimal_bits(live);
        if self.dead == 0 && self.bits == minimal {
            return;
        }
        let mut remap = vec![0usize; self.palette.len()];
        let mut palette = Vec::with_capacity(live);
        let mut refs = Vec::with_capacity(live);
        palette.push(Block::AIR);
        refs.push(self.refs[0]);
        for (j, slot) in remap.iter_mut().enumerate().skip(1) {
            if self.refs[j] > 0 {
                *slot = palette.len();
                palette.push(self.palette[j]);
                refs.push(self.refs[j]);
            }
        }
        self.repack(minimal, Some(&remap));
        self.palette = palette;
        self.refs = refs;
        self.dead = 0;
    }

    /// Number of stored entries whose kind is `kind`, via refcounts
    /// (O(palette), not O(entries)).
    #[must_use]
    pub fn count_kind(&self, kind: BlockKind) -> usize {
        if self.bits == 0 {
            return if kind == BlockKind::Air {
                BLOCKS_PER_CHUNK
            } else {
                0
            };
        }
        self.palette
            .iter()
            .zip(&self.refs)
            .filter(|&(b, _)| b.kind() == kind)
            .map(|(_, &r)| r as usize)
            .sum()
    }

    /// Whether some stored entry's kind satisfies `pred`, via refcounts
    /// (O(palette), no entry is read): a dead slot of a matching kind does
    /// not count.
    #[must_use]
    pub(crate) fn holds_kind(&self, pred: impl Fn(BlockKind) -> bool) -> bool {
        if self.bits == 0 {
            return pred(BlockKind::Air);
        }
        (self.palette.iter().zip(&self.refs)).any(|(b, &r)| r > 0 && pred(b.kind()))
    }

    /// Heap bytes owned by this store (index words + palette + refcounts).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u64>()
            + self.palette.len() * std::mem::size_of::<Block>()
            + self.refs.len() * std::mem::size_of::<u32>()
    }

    /// The palette, in slot order, and the packed index words.
    #[cfg(test)]
    pub(crate) fn layout(&self) -> (&[Block], &[u64]) {
        (&self.palette, &self.data)
    }

    /// Bits per packed index entry (0 for an unmaterialized all-air store).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn bits_per_entry(&self) -> u8 {
        self.bits
    }

    /// Iterates `(entry_index, block)` over the entries whose kind is
    /// `kind`, in ascending entry index. The refcounts bound the search: a
    /// store with no live palette slot of that kind yields nothing without
    /// reading an index word, and the walk stops at the last match instead
    /// of the last entry.
    pub fn iter_kind(&self, kind: BlockKind) -> KindEntries<'_> {
        let mut live = (0..self.palette.len())
            .filter(|&slot| self.refs[slot] > 0 && self.palette[slot].kind() == kind);
        let first = live.next().unwrap_or(0);
        KindEntries {
            store: self,
            kind,
            slots: first..=live.next_back().unwrap_or(first),
            i: 0,
            remaining: self.count_kind(kind),
        }
    }
}

/// Iterator over the entries of one [`BlockKind`] in a [`PaletteStore`].
#[derive(Debug)]
pub struct KindEntries<'a> {
    store: &'a PaletteStore,
    kind: BlockKind,
    /// First to last live palette slot of `kind`: a packed index outside
    /// this range is rejected without looking at the palette.
    slots: std::ops::RangeInclusive<usize>,
    i: usize,
    /// Matching entries not yet yielded, from the slots' refcounts.
    remaining: usize,
}

impl Iterator for KindEntries<'_> {
    type Item = (usize, Block);

    fn next(&mut self) -> Option<(usize, Block)> {
        let s = self.store;
        while self.remaining > 0 {
            let i = self.i;
            self.i += 1;
            // An unmaterialized store has no slots to compare: every entry
            // is air, which is what was asked for or nothing would remain.
            let block = if s.bits == 0 {
                Block::AIR
            } else {
                let slot = s.index_at(i);
                if !self.slots.contains(&slot) {
                    continue;
                }
                s.palette[slot]
            };
            if block.kind() == self.kind {
                self.remaining -= 1;
                return Some((i, block));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> Vec<Block> {
        BlockKind::all().iter().map(|&k| Block::simple(k)).collect()
    }

    #[test]
    fn empty_store_reads_air_and_owns_nothing() {
        let s = PaletteStore::new_air();
        assert_eq!(s.get(0), Block::AIR);
        assert_eq!(s.get(BLOCKS_PER_CHUNK - 1), Block::AIR);
        assert_eq!(s.bits_per_entry(), 0);
        assert_eq!(s.storage_bytes(), 0);
        assert_eq!(s.count_kind(BlockKind::Air), BLOCKS_PER_CHUNK);
    }

    #[test]
    fn first_write_materializes_at_one_bit() {
        let mut s = PaletteStore::new_air();
        assert_eq!(s.set(5, Block::simple(BlockKind::Stone)), Block::AIR);
        assert_eq!(s.bits_per_entry(), 1);
        assert_eq!(s.get(5), Block::simple(BlockKind::Stone));
        assert_eq!(s.get(4), Block::AIR);
        assert_eq!(s.count_kind(BlockKind::Stone), 1);
        assert_eq!(s.count_kind(BlockKind::Air), BLOCKS_PER_CHUNK - 1);
    }

    #[test]
    fn widening_preserves_every_entry() {
        let mut s = PaletteStore::new_air();
        let blocks = kinds();
        // 20 distinct non-air values forces 1 -> 2 -> 4 -> 8 bit widening.
        for (i, b) in blocks.iter().skip(1).take(20).enumerate() {
            s.set(i * 97, *b);
        }
        assert_eq!(s.bits_per_entry(), 8);
        for (i, b) in blocks.iter().skip(1).take(20).enumerate() {
            assert_eq!(s.get(i * 97), *b, "entry {i} lost in widening");
        }
    }

    #[test]
    fn dead_slots_are_reused_without_widening() {
        let mut s = PaletteStore::new_air();
        s.set(0, Block::simple(BlockKind::Stone));
        // Overwrite: stone's slot dies, sand should reuse it.
        s.set(0, Block::simple(BlockKind::Sand));
        let bits_before = s.bits_per_entry();
        s.set(1, Block::simple(BlockKind::Dirt));
        assert_eq!(s.bits_per_entry(), bits_before, "dead slot not reused");
        assert_eq!(s.get(0), Block::simple(BlockKind::Sand));
        assert_eq!(s.get(1), Block::simple(BlockKind::Dirt));
    }

    #[test]
    fn gc_narrows_after_palette_shrinks() {
        let mut s = PaletteStore::new_air();
        let blocks = kinds();
        for (i, b) in blocks.iter().skip(1).take(20).enumerate() {
            s.set(i, *b);
        }
        assert_eq!(s.bits_per_entry(), 8);
        // Remove all but three distinct values.
        for i in 3..20 {
            s.set(i, Block::AIR);
        }
        s.gc();
        // 4 live entries (air + 3) fit in 2 bits.
        assert_eq!(s.bits_per_entry(), 2);
        for (i, b) in blocks.iter().skip(1).take(3).enumerate() {
            assert_eq!(s.get(i), *b, "entry {i} lost in gc");
        }
        assert_eq!(s.get(10), Block::AIR);
    }

    #[test]
    fn gc_on_compact_store_is_a_no_op() {
        let mut s = PaletteStore::new_air();
        s.set(0, Block::simple(BlockKind::Stone));
        s.gc();
        let bits = s.bits_per_entry();
        let bytes = s.storage_bytes();
        s.gc();
        assert_eq!(s.bits_per_entry(), bits);
        assert_eq!(s.storage_bytes(), bytes);
    }

    #[test]
    fn all_air_store_reverts_to_unmaterialized_on_gc() {
        let mut s = PaletteStore::new_air();
        s.set(100, Block::simple(BlockKind::Stone));
        s.set(100, Block::AIR);
        s.gc();
        assert_eq!(s.bits_per_entry(), 0);
        assert_eq!(s.storage_bytes(), 0);
        assert_eq!(s.get(100), Block::AIR);
    }

    #[test]
    fn gc_compacts_to_non_power_of_two_widths() {
        let mut s = PaletteStore::new_air();
        let blocks = kinds();
        // 6 distinct non-air values + air = 7 live entries: minimal width 3.
        for (i, b) in blocks.iter().skip(1).take(6).enumerate() {
            s.set(i, *b);
        }
        s.gc();
        assert_eq!(s.bits_per_entry(), 3);
        for (i, b) in blocks.iter().skip(1).take(6).enumerate() {
            assert_eq!(s.get(i), *b);
        }
        // 64/3 = 21 entries per word, 1 bit of waste per word.
        let words = BLOCKS_PER_CHUNK.div_ceil(64 / 3);
        assert_eq!(s.storage_bytes(), words * 8 + 7 * 2 + 7 * 4);
    }

    #[test]
    fn state_variants_are_distinct_palette_entries() {
        let mut s = PaletteStore::new_air();
        s.set(0, Block::with_state(BlockKind::RedstoneDust, 3));
        s.set(1, Block::with_state(BlockKind::RedstoneDust, 9));
        assert_eq!(s.get(0).state(), 3);
        assert_eq!(s.get(1).state(), 9);
        assert_eq!(s.count_kind(BlockKind::RedstoneDust), 2);
    }

    #[test]
    fn iter_kind_finds_every_entry_of_each_kind() {
        let mut s = PaletteStore::new_air();
        s.set(7, Block::simple(BlockKind::Stone));
        s.set(5_000, Block::simple(BlockKind::Sand));
        s.set(BLOCKS_PER_CHUNK - 1, Block::simple(BlockKind::Tnt));
        let found: Vec<(usize, Block)> = [BlockKind::Stone, BlockKind::Sand, BlockKind::Tnt]
            .iter()
            .flat_map(|&kind| s.iter_kind(kind))
            .collect();
        assert_eq!(
            found,
            vec![
                (7, Block::simple(BlockKind::Stone)),
                (5_000, Block::simple(BlockKind::Sand)),
                (BLOCKS_PER_CHUNK - 1, Block::simple(BlockKind::Tnt)),
            ]
        );
        assert_eq!(s.iter_kind(BlockKind::Dirt).next(), None);
        assert_eq!(s.iter_kind(BlockKind::Air).count(), BLOCKS_PER_CHUNK - 3);
    }

    #[test]
    fn locate_divides_exactly() {
        for bits in 1..=16u8 {
            let s = PaletteStore {
                bits,
                ..PaletteStore::default()
            };
            let epw = 64 / bits as usize;
            for i in 0..1 << 16 {
                let want = (i / epw, (i % epw) * bits as usize);
                assert_eq!(s.locate(i), want, "bits {bits}, entry {i}");
            }
        }
    }

    /// Asserts `iter_kind` equals a `get` scan filtered by kind, in order,
    /// for every kind there is.
    fn assert_iter_kind_matches_scan(s: &PaletteStore, ctx: &str) {
        let dense: Vec<Block> = (0..BLOCKS_PER_CHUNK).map(|i| s.get(i)).collect();
        for &kind in BlockKind::all() {
            let want: Vec<(usize, Block)> = dense
                .iter()
                .copied()
                .enumerate()
                .filter(|(_, b)| b.kind() == kind)
                .collect();
            let got: Vec<(usize, Block)> = s.iter_kind(kind).collect();
            assert_eq!(got, want, "{kind:?}: {ctx}");
        }
    }

    proptest::proptest! {
        #[test]
        fn iter_kind_equals_a_get_scan(seed in proptest::any::<u64>(), distinct in 2usize..30) {
            // `distinct` values: four states of one kind, then simple kinds.
            // Past 15 of them the index widens from 4 bits to 8, which the
            // `gc` below narrows to 5.
            let blocks: Vec<Block> = (0..4)
                .map(|state| Block::with_state(BlockKind::RedstoneDust, state))
                .chain(kinds().into_iter().skip(1))
                .take(distinct)
                .collect();
            let mut s = PaletteStore::new_air();
            assert_iter_kind_matches_scan(&s, "unmaterialized");
            let mut x = seed | 1;
            let mut next = |bound: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % bound as u64) as usize
            };
            let span = 1 + next(BLOCKS_PER_CHUNK);
            for _ in 0..400 {
                s.set(next(span), blocks[next(blocks.len())]);
            }
            // Overwrite every block of one kind: its slots die but stay in
            // the palette until `gc`.
            let victim = blocks[next(blocks.len())].kind();
            for i in 0..span {
                if s.get(i).kind() == victim {
                    s.set(i, Block::AIR);
                }
            }
            let ctx = format!("seed {seed}, {distinct} values, victim {victim:?}");
            assert_eq!(s.iter_kind(victim).next(), None, "dead slot: {ctx}");
            assert_iter_kind_matches_scan(&s, &ctx);
            s.gc();
            assert_iter_kind_matches_scan(&s, &format!("after gc: {ctx}"));
        }
    }

    #[test]
    fn iter_kind_survives_widening_and_narrowing_through_five_bits() {
        let mut s = PaletteStore::new_air();
        let blocks = kinds();
        // Air + 15 values fill the 4-bit index; the 17th value widens it.
        for (i, b) in blocks.iter().skip(1).take(15).enumerate() {
            s.set(i * 13, *b);
        }
        assert_eq!(s.bits_per_entry(), 4);
        assert_iter_kind_matches_scan(&s, "4 bits");
        s.set(999, blocks[16]);
        assert_eq!(s.bits_per_entry(), 8);
        assert_iter_kind_matches_scan(&s, "widened");
        s.gc();
        assert_eq!(s.bits_per_entry(), 5);
        assert_iter_kind_matches_scan(&s, "5 bits");
    }

    #[test]
    fn matches_dense_reference_under_random_writes() {
        // Deterministic xorshift write storm, checked against Vec<Block>.
        let mut dense = vec![Block::AIR; BLOCKS_PER_CHUNK];
        let mut s = PaletteStore::new_air();
        let blocks = kinds();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for step in 0..20_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % BLOCKS_PER_CHUNK as u64) as usize;
            let b = blocks[(x >> 32) as usize % blocks.len()];
            let expected = std::mem::replace(&mut dense[i], b);
            assert_eq!(s.set(i, b), expected, "old value diverged at step {step}");
            if step % 4_096 == 0 {
                s.gc();
            }
        }
        for (i, &b) in dense.iter().enumerate() {
            assert_eq!(s.get(i), b, "entry {i} diverged");
        }
    }
}
