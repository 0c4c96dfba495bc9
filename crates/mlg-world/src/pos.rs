//! Block and chunk coordinates.
//!
//! MLG worlds address individual blocks by integer coordinates and group them
//! into vertical chunk columns of [`crate::CHUNK_SIZE`]×[`crate::CHUNK_SIZE`]
//! blocks. This module provides the coordinate types and the conversions
//! between them, and [`PosHasher`], the fixed hasher every lookup-only
//! position-keyed table on the tick path is declared with.

use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use crate::chunk::CHUNK_SIZE;

/// Position of a single block in the world, in absolute block coordinates.
///
/// `y` is the vertical axis (height); `x` and `z` span the horizontal plane.
///
/// # Example
///
/// ```
/// use mlg_world::BlockPos;
///
/// let p = BlockPos::new(17, 64, -3);
/// assert_eq!(p.chunk().x, 1);
/// assert_eq!(p.chunk().z, -1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockPos {
    /// East–west coordinate.
    pub x: i32,
    /// Vertical coordinate (height).
    pub y: i32,
    /// North–south coordinate.
    pub z: i32,
}

impl BlockPos {
    /// Creates a new block position.
    #[must_use]
    pub const fn new(x: i32, y: i32, z: i32) -> Self {
        BlockPos { x, y, z }
    }

    /// Returns the position of the chunk column containing this block.
    #[must_use]
    pub fn chunk(self) -> ChunkPos {
        ChunkPos {
            x: self.x.div_euclid(CHUNK_SIZE as i32),
            z: self.z.div_euclid(CHUNK_SIZE as i32),
        }
    }

    /// Returns the block coordinates relative to the containing chunk,
    /// `(local_x, y, local_z)` with `local_x, local_z` in `0..CHUNK_SIZE`.
    #[must_use]
    pub fn local(self) -> (usize, i32, usize) {
        (
            self.x.rem_euclid(CHUNK_SIZE as i32) as usize,
            self.y,
            self.z.rem_euclid(CHUNK_SIZE as i32) as usize,
        )
    }

    /// Returns the position offset by the given deltas.
    #[must_use]
    pub const fn offset(self, dx: i32, dy: i32, dz: i32) -> Self {
        BlockPos::new(self.x + dx, self.y + dy, self.z + dz)
    }

    /// Returns the position directly above this one.
    #[must_use]
    pub const fn up(self) -> Self {
        self.offset(0, 1, 0)
    }

    /// Returns the position directly below this one.
    #[must_use]
    pub const fn down(self) -> Self {
        self.offset(0, -1, 0)
    }

    /// Returns the six face-adjacent neighbour positions.
    #[must_use]
    pub fn neighbors(self) -> [BlockPos; 6] {
        [
            self.offset(1, 0, 0),
            self.offset(-1, 0, 0),
            self.offset(0, 1, 0),
            self.offset(0, -1, 0),
            self.offset(0, 0, 1),
            self.offset(0, 0, -1),
        ]
    }

    /// Returns the four horizontally adjacent neighbour positions.
    #[must_use]
    pub fn horizontal_neighbors(self) -> [BlockPos; 4] {
        [
            self.offset(1, 0, 0),
            self.offset(-1, 0, 0),
            self.offset(0, 0, 1),
            self.offset(0, 0, -1),
        ]
    }

    /// Manhattan (taxicab) distance to another block position.
    #[must_use]
    pub fn manhattan_distance(self, other: BlockPos) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y) + self.z.abs_diff(other.z)
    }

    /// Squared Euclidean distance to another block position.
    #[must_use]
    pub fn distance_squared(self, other: BlockPos) -> u64 {
        let dx = i64::from(self.x - other.x);
        let dy = i64::from(self.y - other.y);
        let dz = i64::from(self.z - other.z);
        (dx * dx + dy * dy + dz * dz) as u64
    }
}

impl std::fmt::Display for BlockPos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl From<(i32, i32, i32)> for BlockPos {
    fn from((x, y, z): (i32, i32, i32)) -> Self {
        BlockPos::new(x, y, z)
    }
}

/// Position of a chunk column in the horizontal chunk grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChunkPos {
    /// East–west chunk coordinate.
    pub x: i32,
    /// North–south chunk coordinate.
    pub z: i32,
}

impl ChunkPos {
    /// Creates a new chunk position.
    #[must_use]
    pub const fn new(x: i32, z: i32) -> Self {
        ChunkPos { x, z }
    }

    /// Returns the block position of this chunk's minimum corner at `y = 0`.
    #[must_use]
    pub fn origin_block(self) -> BlockPos {
        BlockPos::new(self.x * CHUNK_SIZE as i32, 0, self.z * CHUNK_SIZE as i32)
    }

    /// Iterates all chunk positions within `radius` (Chebyshev) of this one,
    /// including this one, `x`-major: the order in which a view square is
    /// generated and streamed.
    pub fn square(self, radius: u32) -> impl ExactSizeIterator<Item = ChunkPos> {
        let r = radius as i32;
        let side = 2 * r + 1;
        (0..side * side).map(move |i| ChunkPos::new(self.x - r + i / side, self.z - r + i % side))
    }
}

impl std::fmt::Display for ChunkPos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.x, self.z)
    }
}

impl From<(i32, i32)> for ChunkPos {
    fn from((x, z): (i32, i32)) -> Self {
        ChunkPos::new(x, z)
    }
}

/// A fixed multiplicative hasher for tables keyed by positions.
///
/// Position keys come from the simulator itself, never from outside the
/// program, so the per-process random SipHash of the standard tables buys
/// nothing on the tick path and costs most of every chunk resolution. Each
/// integer a key writes is folded in with one add and one multiply; the
/// result is rotated so that both ends of the word the standard table
/// consumes (low bits pick the bucket, the top seven tag it) come from the
/// well-mixed high half of the product.
///
/// It is for **lookup-only** tables: like any hash, its *order* must never
/// escape (detlint's `no-hash-iteration` rule), and being fixed it must
/// not key a table on input from outside the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct PosHasher(u64);

/// The `BuildHasher` of a [`PosHasher`]-keyed table.
pub(crate) type PosHashBuilder = std::hash::BuildHasherDefault<PosHasher>;

impl PosHasher {
    /// An odd multiplier with no short bit pattern; the tests below pin
    /// its spread on the chunk grids and block neighbourhoods the simulator
    /// actually builds.
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for PosHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    /// Byte fallback for keys that are not built from the integers below.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.add(u64::from(i as u32));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_to_chunk_positive() {
        assert_eq!(BlockPos::new(0, 0, 0).chunk(), ChunkPos::new(0, 0));
        assert_eq!(BlockPos::new(15, 0, 15).chunk(), ChunkPos::new(0, 0));
        assert_eq!(BlockPos::new(16, 0, 31).chunk(), ChunkPos::new(1, 1));
    }

    #[test]
    fn block_to_chunk_negative() {
        assert_eq!(BlockPos::new(-1, 0, -1).chunk(), ChunkPos::new(-1, -1));
        assert_eq!(BlockPos::new(-16, 0, -17).chunk(), ChunkPos::new(-1, -2));
    }

    #[test]
    fn local_coordinates_are_in_range() {
        for x in [-33, -16, -1, 0, 1, 15, 16, 47] {
            for z in [-33, -16, -1, 0, 1, 15, 16, 47] {
                let (lx, _, lz) = BlockPos::new(x, 5, z).local();
                assert!(lx < CHUNK_SIZE, "x={x} -> {lx}");
                assert!(lz < CHUNK_SIZE, "z={z} -> {lz}");
            }
        }
    }

    #[test]
    fn local_matches_chunk_origin() {
        let p = BlockPos::new(-7, 12, 39);
        let chunk = p.chunk();
        let (lx, y, lz) = p.local();
        let origin = chunk.origin_block();
        assert_eq!(origin.x + lx as i32, p.x);
        assert_eq!(origin.z + lz as i32, p.z);
        assert_eq!(y, p.y);
    }

    #[test]
    fn neighbors_are_adjacent() {
        let p = BlockPos::new(3, 4, 5);
        for n in p.neighbors() {
            assert_eq!(p.manhattan_distance(n), 1);
        }
        assert_eq!(p.neighbors().len(), 6);
    }

    #[test]
    fn horizontal_neighbors_stay_on_plane() {
        let p = BlockPos::new(3, 4, 5);
        for n in p.horizontal_neighbors() {
            assert_eq!(n.y, p.y);
            assert_eq!(p.manhattan_distance(n), 1);
        }
    }

    #[test]
    fn distances() {
        let a = BlockPos::new(0, 0, 0);
        let b = BlockPos::new(3, 4, 0);
        assert_eq!(a.distance_squared(b), 25);
        assert_eq!(a.manhattan_distance(b), 7);
    }

    #[test]
    fn chunk_radius_includes_center() {
        let c = ChunkPos::new(2, -3);
        let within: Vec<ChunkPos> = c.square(2).collect();
        assert_eq!(within.len(), 25);
        assert!(within.contains(&c));
        for other in &within {
            assert!(c.x.abs_diff(other.x).max(c.z.abs_diff(other.z)) <= 2);
        }
    }

    fn hash_of(key: impl std::hash::Hash) -> u64 {
        use std::hash::BuildHasher;
        PosHashBuilder::default().hash_one(key)
    }

    /// Distinct values of the top 16 bits, and the fullest bucket when the
    /// low bits index a table at the standard map's load (≤ 7/8).
    fn spread(hashes: &[u64]) -> (usize, u32) {
        let top: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h >> 48).collect();
        let buckets = (hashes.len() * 8 / 7).next_power_of_two();
        let mut load = vec![0u32; buckets];
        for h in hashes {
            load[*h as usize & (buckets - 1)] += 1;
        }
        (top.len(), load.into_iter().max().unwrap_or(0))
    }

    #[test]
    fn pos_hasher_spreads_the_chunk_squares_the_simulator_builds() {
        // The 64×64-chunk square a Horde world loads (wherever it is
        // centred) and a 19×19 view square: a fixed multiplier must not
        // fold a grid onto few buckets. Random hashing would leave ≈ 3,970
        // of 4,096 keys distinct in the top 16 bits and a fullest bucket
        // of 5.
        for (ox, oz) in [(-32, -32), (0, 0), (-5, 100), (1_000, -2_000)] {
            let hashes: Vec<u64> = ChunkPos::new(ox + 32, oz + 32)
                .square(32)
                .filter(|c| c.x < ox + 64 && c.z < oz + 64)
                .map(hash_of)
                .collect();
            assert_eq!(hashes.len(), 4_096);
            let (distinct_top, fullest) = spread(&hashes);
            assert!(
                distinct_top >= 4_000,
                "square at ({ox}, {oz}): {distinct_top}"
            );
            assert!(fullest <= 4, "square at ({ox}, {oz}): bucket of {fullest}");
        }
        let view: Vec<u64> = ChunkPos::new(3, -7).square(9).map(hash_of).collect();
        let (distinct_top, fullest) = spread(&view);
        assert_eq!(distinct_top, view.len());
        assert!(fullest <= 4, "view square: bucket of {fullest}");
    }

    #[test]
    fn pos_hasher_spreads_block_neighbourhoods_and_compound_keys() {
        // What a pathfinding search, an update queue or the relight cache
        // holds: a few thousand blocks around one spot, alone or paired
        // with a tick number or a flag. No worse than random hashing, whose
        // fullest bucket at this size is 5 or 6.
        for (cx, cz) in [(8, 8), (-200, 300)] {
            let blocks: Vec<BlockPos> = (-25..=25)
                .flat_map(|dx: i32| (-25..=25).map(move |dz: i32| (dx, dz)))
                .filter(|(dx, dz)| dx.abs() + dz.abs() <= 30)
                .flat_map(|(dx, dz)| (59..=63).map(move |y| BlockPos::new(cx + dx, y, cz + dz)))
                .collect();
            let plain: Vec<u64> = blocks.iter().map(hash_of).collect();
            let timed: Vec<u64> = blocks.iter().map(|b| hash_of((*b, 1_234_u64))).collect();
            let flagged: Vec<u64> = blocks.iter().map(|b| hash_of((*b, true))).collect();
            for (name, hashes) in [("plain", plain), ("timed", timed), ("flagged", flagged)] {
                let (distinct_top, fullest) = spread(&hashes);
                assert!(
                    distinct_top * 100 >= hashes.len() * 98,
                    "{name} at ({cx}, {cz}): {distinct_top} of {}",
                    hashes.len()
                );
                assert!(fullest <= 6, "{name} at ({cx}, {cz}): bucket of {fullest}");
            }
        }
        // Keys that differ only in the trailing member must not collide.
        let p = BlockPos::new(1, 2, 3);
        assert_ne!(hash_of((p, true)), hash_of((p, false)));
        assert_ne!(hash_of((p, 7_u64)), hash_of((p, 8_u64)));
    }

    #[test]
    fn pos_hasher_byte_fallback_reads_every_byte() {
        let mut a = PosHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = PosHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn display_formats() {
        assert_eq!(BlockPos::new(1, 2, 3).to_string(), "(1, 2, 3)");
        assert_eq!(ChunkPos::new(-1, 4).to_string(), "[-1, 4]");
    }
}
