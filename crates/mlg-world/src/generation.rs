//! Terrain generation.
//!
//! The Control workload of the Meterstick paper uses "an unmodified world
//! generated by Minecraft version 1.16.4 using the seed -392114485". We cannot
//! reproduce Mojang's generator, so this module provides a deterministic,
//! seedable procedural generator ([`NoiseGenerator`]) producing comparable
//! terrain (rolling hills, water at sea level, trees and surface vegetation),
//! plus a trivial [`FlatGenerator`] used as a controlled substrate for the
//! constructed workload worlds (TNT, Farm, Lag).
//!
//! Both generators describe a chunk as a sequence of `BlockSink` writes and
//! run it on a `ChunkBuilder`, which packs the result once; nothing here
//! touches the palette store's per-block write path.

use crate::block::{Block, BlockKind};
use crate::chunk::{BlockSink, Chunk, ChunkBuilder, CHUNK_SIZE, LAYER, WORLD_HEIGHT};
use crate::pos::ChunkPos;

/// Default sea level used by the generators.
const SEA_LEVEL: i32 = 62;

/// A chunk generator: produces the initial content of a chunk column.
///
/// Generators must be deterministic: generating the same chunk position twice
/// (for the same generator configuration and seed) must produce identical
/// chunks, because lazily generated worlds rely on it for reproducibility.
/// `Sync` because the sharded tick pipeline shares one generator across
/// concurrent shard workers (each lazily generating chunks it owns).
pub trait ChunkGenerator: Send + Sync {
    /// Generates the chunk at the given position.
    fn generate(&self, pos: ChunkPos) -> Chunk;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;
}

/// A flat "superflat" generator: bedrock, stone, dirt, grass at fixed levels.
#[derive(Debug, Clone)]
pub struct FlatGenerator {
    surface_y: i32,
    surface: BlockKind,
}

impl FlatGenerator {
    /// A grassland flat world with the surface at `y = 60`.
    #[must_use]
    pub fn grassland() -> Self {
        FlatGenerator::with_surface(60, BlockKind::Grass)
    }

    /// A flat world with a custom surface height and surface block. The
    /// height is clamped into `1..WORLD_HEIGHT`, above the bedrock floor and
    /// inside the world; [`FlatGenerator::surface_y`] reports the clamped
    /// value, which is where workload builders put their structures.
    #[must_use]
    fn with_surface(surface_y: i32, surface: BlockKind) -> Self {
        FlatGenerator {
            surface_y: surface_y.clamp(1, WORLD_HEIGHT as i32 - 1),
            surface,
        }
    }

    /// The `y` coordinate of the top (surface) layer.
    #[must_use]
    pub fn surface_y(&self) -> i32 {
        self.surface_y
    }

    /// Every layer is uniform across the chunk: four slabs, no per-column
    /// work at all.
    fn terrain(&self, out: &mut impl BlockSink) {
        let top = self.surface_y;
        out.slab(0, 0, Block::simple(BlockKind::Bedrock));
        out.slab(1, top - 4, Block::simple(BlockKind::Stone));
        out.slab((top - 3).max(1), top - 1, Block::simple(BlockKind::Dirt));
        out.slab(top, top, Block::simple(self.surface));
    }
}

impl ChunkGenerator for FlatGenerator {
    fn generate(&self, pos: ChunkPos) -> Chunk {
        let mut builder = ChunkBuilder::new();
        self.terrain(&mut builder);
        builder.finish(pos)
    }

    fn name(&self) -> &str {
        "flat"
    }
}

/// Lattice scale (blocks per cell), hash salt and weight of each value-noise
/// octave summed by [`NoiseGenerator::height_at`].
const OCTAVES: [(f64, u64, f64); 3] = [(64.0, 1, 0.6), (23.0, 2, 0.3), (7.0, 3, 0.1)];

/// Most lattice points per axis any octave needs for one chunk: the finest
/// octave's `CHUNK_SIZE` columns span at most four cells, so five points.
const LATTICE_SPAN: usize = (CHUNK_SIZE - 1).div_ceil(7) + 2;

/// One octave of one chunk, tabulated: each lattice row the chunk touches,
/// interpolated along x once per column, and each local z coordinate's
/// `(row, weight)` into them — so a column's octave sample is one lerp
/// between two rows.
struct OctaveRows {
    rows: [[f64; CHUNK_SIZE]; LATTICE_SPAN],
    zs: [(usize, f64); CHUNK_SIZE],
}

/// One coordinate of a value-noise sample: the lattice cell it falls in and
/// its smoothstep weight toward the cell's far edge.
fn noise_axis(coord: i32, scale: f64) -> (i64, f64) {
    let scaled = f64::from(coord) / scale;
    let cell = scaled.floor();
    let f = scaled - cell;
    (cell as i64, f * f * (3.0 - 2.0 * f))
}

/// `a` moved toward `b` by the weight `t`.
fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Bilinear interpolation of a sample's four lattice points
/// `[v00, v10, v01, v11]` (x-major within each z row) by its weights: each
/// z row along x, then between the rows along z.
fn value_noise([v00, v10, v01, v11]: [f64; 4], sx: f64, sz: f64) -> f64 {
    lerp(lerp(v00, v10, sx), lerp(v01, v11, sx), sz)
}

/// Fills the terrain layer at `y` of a noise chunk: each column's slot is
/// `stone` more than four blocks under its surface `surfaces[column]`,
/// `dirt` less deep, `surface_slots[column]` at the surface and `above`
/// over it.
///
/// Out of line on purpose: inlined into `generate`, the compiler spilled the
/// two column tables and the fill ran at about 1 ns a slot, eight times
/// slower than this function does.
#[inline(never)]
fn fill_layer(
    layer: &mut [u8; LAYER],
    y: u8,
    surfaces: &[u8; LAYER],
    surface_slots: &[u8; LAYER],
    [stone, dirt, above]: [u8; 3],
) {
    for ((slot, &surface), &surface_slot) in layer.iter_mut().zip(surfaces).zip(surface_slots) {
        *slot = if y + 4 < surface {
            stone
        } else if y < surface {
            dirt
        } else if y == surface {
            surface_slot
        } else {
            above
        };
    }
}

/// Procedural rolling-hills generator with water, sand beaches and trees.
///
/// Uses seeded value noise (bilinear interpolation of hashed lattice points)
/// so the same seed always produces the same world — the reproduction analogue
/// of the paper's fixed Minecraft seed.
#[derive(Debug, Clone)]
pub struct NoiseGenerator {
    seed: u64,
    amplitude: f64,
    base_height: f64,
    tree_density: f64,
}

impl NoiseGenerator {
    /// Creates a generator reproducing the Control-world style terrain.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        NoiseGenerator {
            seed,
            amplitude: 14.0,
            base_height: 64.0,
            tree_density: 0.004,
        }
    }

    /// Overrides the terrain amplitude (hill height range in blocks).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn with_amplitude(mut self, amplitude: f64) -> Self {
        self.amplitude = amplitude;
        self
    }

    /// Returns the generator seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn hash(&self, x: i64, z: i64, salt: u64) -> u64 {
        // SplitMix64-style hash of the lattice coordinates and seed.
        let mut h = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((x as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((z as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        h
    }

    fn lattice(&self, x: i64, z: i64, salt: u64) -> f64 {
        (self.hash(x, z, salt) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The one height expression: the weighted octave sum of a column whose
    /// per-octave samples are `samples`. [`NoiseGenerator::height_at`]
    /// derives axes and hashes lattice points on demand; chunk generation
    /// reads per-chunk tables of both. Sharing this arithmetic (and
    /// [`noise_axis`], [`value_noise`]) is what keeps the two bit-equal.
    fn height_from(&self, samples: [f64; 3]) -> i32 {
        let combined =
            samples[0] * OCTAVES[0].2 + samples[1] * OCTAVES[1].2 + samples[2] * OCTAVES[2].2;
        let h = self.base_height + (combined - 0.5) * 2.0 * self.amplitude;
        // `h.round() as i32` without the libm call: truncate toward zero,
        // then step away from zero when the dropped fraction is at least a
        // half. `h - t` is exact, as is `as` on a value this small.
        let t = h as i32;
        let fraction = h - f64::from(t);
        let rounded = t + i32::from(fraction >= 0.5) - i32::from(fraction <= -0.5);
        rounded.clamp(8, WORLD_HEIGHT as i32 - 12)
    }

    /// Terrain height at the given world column, in blocks.
    #[must_use]
    pub fn height_at(&self, x: i32, z: i32) -> i32 {
        self.height_from(OCTAVES.map(|(scale, salt, _)| {
            let ((x0, sx), (z0, sz)) = (noise_axis(x, scale), noise_axis(z, scale));
            let lattice = |dx, dz| self.lattice(x0 + dx, z0 + dz, salt);
            value_noise(
                [lattice(0, 0), lattice(1, 0), lattice(0, 1), lattice(1, 1)],
                sx,
                sz,
            )
        }))
    }

    /// Terrain heights of all columns of the chunk at `pos` (index
    /// `z * CHUNK_SIZE + x`), equal to [`NoiseGenerator::height_at`] on each.
    /// A lone column hashes twelve lattice points and scales six
    /// coordinates, but a chunk's 256 columns share 16 + 16 coordinates and
    /// a handful of lattice points per octave. Each octave hashes its points
    /// once and interpolates every lattice row it touches along x once per
    /// column — at most 5 rows × 16 columns — so a column's sample is the z
    /// lerp between two of those rows. That is [`value_noise`]'s arithmetic
    /// on the same operands: a column's lower row is the next column's upper
    /// one, computed once.
    fn chunk_heights(&self, pos: ChunkPos) -> [i32; CHUNK_SIZE * CHUNK_SIZE] {
        let origin = pos.origin_block();
        let octaves = OCTAVES.map(|(scale, salt, _)| {
            let xs: [_; CHUNK_SIZE] =
                std::array::from_fn(|l| noise_axis(origin.x + l as i32, scale));
            let zs: [_; CHUNK_SIZE] =
                std::array::from_fn(|l| noise_axis(origin.z + l as i32, scale));
            // Cells grow with the coordinate, so the first and last column
            // bound every lattice point a column will ask for.
            let (x0, z0) = (xs[0].0, zs[0].0);
            let (nx, nz) = (xs[CHUNK_SIZE - 1].0 - x0 + 2, zs[CHUNK_SIZE - 1].0 - z0 + 2);
            assert!(
                nx.max(nz) as usize <= LATTICE_SPAN,
                "lattice rows outgrew their table"
            );
            let xs = xs.map(|(cell, weight)| ((cell - x0) as usize, weight));
            let mut rows = [[0.0; CHUNK_SIZE]; LATTICE_SPAN];
            for (row, dz) in rows[..nz as usize].iter_mut().zip(0..) {
                let mut lattice = [0.0; LATTICE_SPAN];
                for (value, dx) in lattice[..nx as usize].iter_mut().zip(0..) {
                    *value = self.lattice(x0 + dx, z0 + dz, salt);
                }
                for (sample, &(x, sx)) in row.iter_mut().zip(&xs) {
                    *sample = lerp(lattice[x], lattice[x + 1], sx);
                }
            }
            OctaveRows {
                rows,
                zs: zs.map(|(cell, weight)| ((cell - z0) as usize, weight)),
            }
        });
        let mut heights = [0; CHUNK_SIZE * CHUNK_SIZE];
        for (row, lz) in heights.chunks_exact_mut(CHUNK_SIZE).zip(0..) {
            for (height, lx) in row.iter_mut().zip(0..) {
                *height = self.height_from(octaves.each_ref().map(|octave| {
                    let (r, sz) = octave.zs[lz];
                    lerp(octave.rows[r][lx], octave.rows[r + 1][lx], sz)
                }));
            }
        }
        heights
    }

    /// The trunk height of the tree rooted on the grass of column
    /// `(lx, lz)`, world column `(wx, wz)`, if one grows there.
    fn tree_at(&self, lx: usize, lz: usize, wx: i32, wz: i32) -> Option<i32> {
        // Keep trees away from chunk borders so their canopy fits in one chunk.
        if !(2..CHUNK_SIZE - 2).contains(&lx) || !(2..CHUNK_SIZE - 2).contains(&lz) {
            return None;
        }
        let roll = self.lattice(i64::from(wx), i64::from(wz), 77);
        if roll >= self.tree_density {
            return None;
        }
        Some(4 + (self.hash(i64::from(wx), i64::from(wz), 78) % 3) as i32)
    }

    /// Grows a tree with a trunk of `trunk_height` logs on `surface_y` of
    /// column `(lx, lz)`: leaves only replace air.
    fn place_tree(
        out: &mut impl BlockSink,
        lx: usize,
        lz: usize,
        surface_y: i32,
        trunk_height: i32,
    ) {
        for dy in 1..=trunk_height {
            out.set(lx, surface_y + dy, lz, Block::simple(BlockKind::Log));
        }
        let canopy_base = surface_y + trunk_height - 1;
        for dy in 0..=2 {
            let r = if dy == 2 { 1 } else { 2 };
            for dx in -r..=r {
                for dz in -r..=r {
                    let (cx, cz) = (lx as i32 + dx, lz as i32 + dz);
                    if (0..CHUNK_SIZE as i32).contains(&cx) && (0..CHUNK_SIZE as i32).contains(&cz)
                    {
                        let y = canopy_base + dy;
                        let pos_is_trunk = dx == 0 && dz == 0 && dy < 2;
                        if !pos_is_trunk && out.get(cx as usize, y, cz as usize).is_air() {
                            out.set(
                                cx as usize,
                                y,
                                cz as usize,
                                Block::simple(BlockKind::Leaves),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Shapes the chunk at `pos` on `out`: the chunk the column loop
    /// [`NoiseGenerator::column_terrain`] describes, written layer by layer.
    ///
    /// Every column is bedrock at 0, stone up to `surface − 5`, four dirt,
    /// the surface block (sand on a beach, else grass), water up to sea
    /// level and air above. The floor and the stone under the lowest
    /// surface are slabs; each layer of the band above them is filled whole,
    /// every slot chosen by comparing its `y` with its column's surface.
    /// Then trees grow in the column loop's order through `set` and `get`.
    ///
    /// The column loop wrote each column's layers after the trees of the
    /// columns before it, so a leaf could land in a later column and be
    /// overwritten there. Here every column already holds its layers — it
    /// is non-air up to the higher of its surface and sea level and air
    /// above, as the column loop leaves it — so such a leaf finds no air
    /// and is never written: the final blocks are the same. Blocks are
    /// interned in the column loop's first-write order, which keeps the
    /// palette order.
    fn terrain(&self, pos: ChunkPos, out: &mut ChunkBuilder) {
        let origin = pos.origin_block();
        let heights = self.chunk_heights(pos);
        let (lowest, highest) = heights
            .iter()
            .fold((i32::MAX, i32::MIN), |(lo, hi), &h| (lo.min(h), hi.max(h)));
        let slot = |out: &mut ChunkBuilder, kind| out.intern(Block::simple(kind));
        out.slab(0, 0, Block::simple(BlockKind::Bedrock));
        out.slab(1, lowest - 5, Block::simple(BlockKind::Stone));
        let (stone, dirt) = (slot(out, BlockKind::Stone), slot(out, BlockKind::Dirt));
        // What each column writes, in the column loop's order: its surface
        // block, water below sea level, a tree.
        let mut surfaces = [0u8; LAYER];
        let mut surface_slots = [0u8; LAYER];
        let mut trunks = [0u8; LAYER];
        for lx in 0..CHUNK_SIZE {
            for lz in 0..CHUNK_SIZE {
                let column = lz * CHUNK_SIZE + lx;
                let surface = heights[column];
                surfaces[column] = surface as u8;
                let beach = surface <= SEA_LEVEL + 1;
                let kind = if beach {
                    BlockKind::Sand
                } else {
                    BlockKind::Grass
                };
                surface_slots[column] = slot(out, kind);
                if surface < SEA_LEVEL {
                    slot(out, BlockKind::Water);
                }
                let (wx, wz) = (origin.x + lx as i32, origin.z + lz as i32);
                let tree = if beach {
                    None
                } else {
                    self.tree_at(lx, lz, wx, wz)
                };
                if let Some(trunk) = tree {
                    // A first tree always writes a leaf: the top of its
                    // canopy, over its own trunk, is air.
                    slot(out, BlockKind::Log);
                    slot(out, BlockKind::Leaves);
                    trunks[column] = trunk as u8;
                }
            }
        }
        // Interned above if any column holds it; otherwise never written,
        // and `finish` drops what nothing references.
        let (water, air) = (slot(out, BlockKind::Water), slot(out, BlockKind::Air));
        out.fill_layers((lowest - 4).max(1), highest.max(SEA_LEVEL), |y, layer| {
            let above = if y <= SEA_LEVEL { water } else { air };
            fill_layer(
                layer,
                y as u8,
                &surfaces,
                &surface_slots,
                [stone, dirt, above],
            );
        });
        for lx in 0..CHUNK_SIZE {
            for lz in 0..CHUNK_SIZE {
                let column = lz * CHUNK_SIZE + lx;
                if trunks[column] > 0 {
                    let trunk = i32::from(trunks[column]);
                    Self::place_tree(out, lx, lz, heights[column], trunk);
                }
            }
        }
    }

    /// The column loop [`NoiseGenerator::terrain`] replaced, kept as its
    /// reference: each column's stone, dirt, surface block and water, then
    /// its tree, one column after another.
    #[cfg(test)]
    fn column_terrain(&self, pos: ChunkPos, out: &mut impl BlockSink) {
        let origin = pos.origin_block();
        let heights = self.chunk_heights(pos);
        let min_surface = *heights.iter().min().expect("chunk has columns");
        out.slab(0, 0, Block::simple(BlockKind::Bedrock));
        out.slab(1, min_surface - 5, Block::simple(BlockKind::Stone));
        for lx in 0..CHUNK_SIZE {
            for lz in 0..CHUNK_SIZE {
                let wx = origin.x + lx as i32;
                let wz = origin.z + lz as i32;
                let surface = heights[lz * CHUNK_SIZE + lx];
                out.column(
                    lx,
                    lz,
                    (min_surface - 4).max(1),
                    surface - 5,
                    Block::simple(BlockKind::Stone),
                );
                out.column(
                    lx,
                    lz,
                    (surface - 4).max(1),
                    surface - 1,
                    Block::simple(BlockKind::Dirt),
                );
                let beach = surface <= SEA_LEVEL + 1;
                let surface_block = if beach {
                    BlockKind::Sand
                } else {
                    BlockKind::Grass
                };
                out.set(lx, surface, lz, Block::simple(surface_block));
                // Fill water up to sea level above low terrain.
                out.column(
                    lx,
                    lz,
                    surface + 1,
                    SEA_LEVEL,
                    Block::simple(BlockKind::Water),
                );
                if !beach {
                    if let Some(trunk) = self.tree_at(lx, lz, wx, wz) {
                        Self::place_tree(out, lx, lz, surface, trunk);
                    }
                }
            }
        }
    }
}

impl ChunkGenerator for NoiseGenerator {
    fn generate(&self, pos: ChunkPos) -> Chunk {
        let mut builder = ChunkBuilder::new();
        self.terrain(pos, &mut builder);
        builder.finish(pos)
    }

    fn name(&self) -> &str {
        "noise"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::reference;

    #[test]
    fn flat_generator_produces_expected_layers() {
        let gen = FlatGenerator::grassland();
        let chunk = gen.generate(ChunkPos::new(0, 0));
        assert_eq!(chunk.block(0, 0, 0).kind(), BlockKind::Bedrock);
        assert_eq!(chunk.block(5, 30, 5).kind(), BlockKind::Stone);
        assert_eq!(chunk.block(5, 58, 5).kind(), BlockKind::Dirt);
        assert_eq!(chunk.block(5, 60, 5).kind(), BlockKind::Grass);
        assert_eq!(chunk.block(5, 61, 5).kind(), BlockKind::Air);
        assert_eq!(chunk.height_at(5, 5), Some(60));
    }

    #[test]
    fn flat_surface_is_clamped_once_and_reported_as_generated() {
        for (asked, top) in [(-3, 1), (2, 2), (500, WORLD_HEIGHT as i32 - 1)] {
            let gen = FlatGenerator::with_surface(asked, BlockKind::Sand);
            assert_eq!(gen.surface_y(), top, "with_surface({asked})");
            let chunk = gen.generate(ChunkPos::new(-1, 3));
            assert_eq!(chunk.height_at(9, 9), Some(top));
            assert_eq!(chunk.block(9, top, 9).kind(), BlockKind::Sand);
            assert_eq!(chunk.block(9, 0, 9).kind(), BlockKind::Bedrock);
        }
    }

    /// The per-block replay of `chunk::reference`, counting the leaves a
    /// later write replaced.
    struct LeafCountingReplay<'a> {
        chunk: &'a mut Chunk,
        leaves_overwritten: usize,
    }

    impl BlockSink for LeafCountingReplay<'_> {
        fn slab(&mut self, y_lo: i32, y_hi: i32, block: Block) {
            for x in 0..CHUNK_SIZE {
                for z in 0..CHUNK_SIZE {
                    self.column(x, z, y_lo, y_hi, block);
                }
            }
        }

        fn column(&mut self, x: usize, z: usize, y_lo: i32, y_hi: i32, block: Block) {
            for y in y_lo..=y_hi {
                self.set(x, y, z, block);
            }
        }

        fn set(&mut self, x: usize, y: i32, z: usize, block: Block) {
            let old = self.chunk.set_block(x, y, z, block);
            let leaves = Block::simple(BlockKind::Leaves);
            self.leaves_overwritten += usize::from(old == leaves && block != leaves);
        }

        fn get(&self, x: usize, y: i32, z: usize) -> Block {
            self.chunk.block(x, y, z)
        }
    }

    #[test]
    fn generated_chunks_equal_a_per_block_replay_of_their_writes() {
        let (mut chunks, mut trees, mut beaches, mut water) = (0, 0, 0, 0);
        let mut leaves_overwritten = [0; 2];
        let mut check_noise = |gen: &NoiseGenerator, radius: i32| {
            for cx in -radius..=radius {
                for cz in -radius..=radius {
                    let pos = ChunkPos::new(cx, cz);
                    let ctx = format!("seed {} amplitude {} {pos}", gen.seed, gen.amplitude);
                    let generated = gen.generate(pos);
                    chunks += 1;
                    trees += usize::from(generated.count_kind(BlockKind::Log) > 0);
                    beaches += usize::from(generated.count_kind(BlockKind::Sand) > 0);
                    water += usize::from(generated.count_kind(BlockKind::Water) > 0);
                    // The interpolated lattice rows give `height_at`'s heights.
                    let origin = pos.origin_block();
                    for (i, &height) in gen.chunk_heights(pos).iter().enumerate() {
                        let (lx, lz) = ((i % CHUNK_SIZE) as i32, (i / CHUNK_SIZE) as i32);
                        assert_eq!(height, gen.height_at(origin.x + lx, origin.z + lz), "{ctx}");
                    }
                    // The layer fill equals the column loop's writes, replayed
                    // per block ...
                    reference::assert_equals_replay(
                        &generated,
                        |c| {
                            let mut replay = LeafCountingReplay {
                                chunk: c,
                                leaves_overwritten: 0,
                            };
                            gen.column_terrain(pos, &mut replay);
                            leaves_overwritten[usize::from(gen.amplitude > 14.0)] +=
                                replay.leaves_overwritten;
                        },
                        &ctx,
                    );
                    // ... and packs the store the column loop's builder
                    // packed: the same palette order and index words.
                    let mut columns = ChunkBuilder::new();
                    gen.column_terrain(pos, &mut columns);
                    reference::assert_same_store(&generated, &columns.finish(pos), &ctx);
                }
            }
        };
        for seed in [392_114_485, 7, 99, 0xDEAD_BEEF] {
            check_noise(&NoiseGenerator::new(seed), 5);
            check_noise(&NoiseGenerator::new(seed).with_amplitude(100.0), 3);
        }
        assert!(chunks >= 600, "only {chunks} chunks compared");
        assert!(
            trees > 20 && beaches > 20 && water > 20,
            "{trees} {beaches} {water}"
        );
        // Steep terrain buries leaves the column loop wrote into a later,
        // higher column: the case the layer fill skips through `is_air`.
        assert!(
            leaves_overwritten[1] > 0,
            "no overwritten leaf at amplitude 100: {leaves_overwritten:?}"
        );

        for surface in [1, 60, WORLD_HEIGHT as i32 - 1] {
            let gen = FlatGenerator::with_surface(surface, BlockKind::Grass);
            let pos = ChunkPos::new(-7, 2);
            let ctx = format!("flat {surface}");
            reference::assert_equals_replay(&gen.generate(pos), |c| gen.terrain(c), &ctx);
        }
    }

    /// FNV-1a, 64-bit.
    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &byte in bytes {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Everything observable about the noise generator's output: every
    /// block, column summary, packed width, storage footprint and non-air
    /// count of 9 × 9 chunks around (0, 0) and around (−40, 37), then
    /// `height_at` on a 200 × 200 grid with stride 10.
    fn noise_digest(gen: &NoiseGenerator) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325;
        for (cx, cz) in [(0, 0), (-40, 37)] {
            for dx in -4..=4 {
                for dz in -4..=4 {
                    let chunk = gen.generate(ChunkPos::new(cx + dx, cz + dz));
                    for y in 0..WORLD_HEIGHT as i32 {
                        for z in 0..CHUNK_SIZE {
                            for x in 0..CHUNK_SIZE {
                                let block = chunk.block(x, y, z);
                                fnv1a(&mut hash, &block.kind().protocol_id().to_le_bytes());
                                fnv1a(&mut hash, &[block.state()]);
                            }
                        }
                    }
                    for z in 0..CHUNK_SIZE {
                        for x in 0..CHUNK_SIZE {
                            let (base, top) = chunk.column_summary(x, z);
                            fnv1a(&mut hash, &base.to_le_bytes());
                            fnv1a(&mut hash, &top.to_le_bytes());
                        }
                    }
                    fnv1a(&mut hash, &[reference::bits_per_entry(&chunk)]);
                    fnv1a(&mut hash, &(chunk.storage_bytes() as u64).to_le_bytes());
                    fnv1a(&mut hash, &chunk.non_air_blocks().to_le_bytes());
                }
            }
        }
        for x in (-1000..1000).step_by(10) {
            for z in (-1000..1000).step_by(10) {
                fnv1a(&mut hash, &gen.height_at(x, z).to_le_bytes());
            }
        }
        hash
    }

    /// Pins *what* the noise generator produces, which the replay tests
    /// cannot see: they compare two paths over the same writes, and
    /// `chunk_heights` with `height_at`. Re-record the digests only for a
    /// deliberate change to the generated terrain.
    #[test]
    fn noise_output_matches_the_recorded_digest() {
        let recorded: [(NoiseGenerator, u64); 6] = [
            (NoiseGenerator::new(392_114_485), 0x3d35_5602_63fa_3f10),
            (NoiseGenerator::new(7), 0x5d3b_23b9_7f8b_43cc),
            (NoiseGenerator::new(0xDEAD_BEEF), 0x022c_0dc0_3033_2d96),
            (
                NoiseGenerator::new(392_114_485).with_amplitude(100.0),
                0xe3a7_0240_2015_7b02,
            ),
            (
                NoiseGenerator::new(7).with_amplitude(100.0),
                0x53d3_d74f_069e_4917,
            ),
            (
                NoiseGenerator::new(0xDEAD_BEEF).with_amplitude(100.0),
                0x2db2_c076_c021_34e0,
            ),
        ];
        let all: Vec<String> = recorded
            .iter()
            .map(|(gen, _)| format!("{:#018x}", noise_digest(gen)))
            .collect();
        for ((gen, want), got) in recorded.iter().zip(&all) {
            assert_eq!(
                got,
                &format!("{want:#018x}"),
                "seed {} amplitude {}; all digests: {all:?}",
                gen.seed,
                gen.amplitude
            );
        }
    }

    #[test]
    fn flat_generator_is_uniform_across_chunks() {
        let gen = FlatGenerator::grassland();
        let a = gen.generate(ChunkPos::new(0, 0));
        let b = gen.generate(ChunkPos::new(7, -4));
        assert_eq!(a.non_air_blocks(), b.non_air_blocks());
    }

    #[test]
    fn noise_generator_is_deterministic() {
        let g1 = NoiseGenerator::new(392_114_485);
        let g2 = NoiseGenerator::new(392_114_485);
        for pos in [ChunkPos::new(0, 0), ChunkPos::new(3, -2)] {
            let a = g1.generate(pos);
            let b = g2.generate(pos);
            assert_eq!(a.non_air_blocks(), b.non_air_blocks());
            for x in 0..CHUNK_SIZE {
                for z in 0..CHUNK_SIZE {
                    assert_eq!(a.height_at(x, z), b.height_at(x, z));
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = NoiseGenerator::new(1);
        let g2 = NoiseGenerator::new(2);
        let heights1: Vec<_> = (0..64).map(|x| g1.height_at(x, 0)).collect();
        let heights2: Vec<_> = (0..64).map(|x| g2.height_at(x, 0)).collect();
        assert_ne!(heights1, heights2);
    }

    #[test]
    fn noise_heights_stay_in_world_bounds() {
        // `height_from` clamps to 8..=116: bedrock and the dirt under the
        // surface stay in the world, and a tree's canopy fits under the
        // ceiling. Amplitude 100 hits both ends of the clamp.
        let bounds = 8..=WORLD_HEIGHT as i32 - 12;
        for amplitude in [14.0, 100.0] {
            let gen = NoiseGenerator::new(42).with_amplitude(amplitude);
            let mut reached = (i32::MAX, i32::MIN);
            for x in (-200..200).step_by(13) {
                for z in (-200..200).step_by(17) {
                    let h = gen.height_at(x, z);
                    assert!(bounds.contains(&h), "amplitude {amplitude}: {h} at {x},{z}");
                    reached = (reached.0.min(h), reached.1.max(h));
                }
            }
            for (cx, cz) in [(0, 0), (-5, 9), (11, -3)] {
                for h in gen.chunk_heights(ChunkPos::new(cx, cz)) {
                    assert!(
                        bounds.contains(&h),
                        "amplitude {amplitude}: {h} in {cx},{cz}"
                    );
                }
            }
            if amplitude == 100.0 {
                assert_eq!(
                    reached,
                    (*bounds.start(), *bounds.end()),
                    "clamp not reached"
                );
            }
        }
    }

    #[test]
    fn noise_chunk_has_surface_everywhere() {
        let gen = NoiseGenerator::new(7);
        let chunk = gen.generate(ChunkPos::new(2, 2));
        for x in 0..CHUNK_SIZE {
            for z in 0..CHUNK_SIZE {
                assert!(chunk.height_at(x, z).is_some());
            }
        }
    }

    #[test]
    fn water_fills_to_sea_level() {
        // Find some column below sea level and check it is water-covered.
        let gen = NoiseGenerator::new(99);
        let mut found_water = false;
        for cx in -4..4 {
            for cz in -4..4 {
                let chunk = gen.generate(ChunkPos::new(cx, cz));
                for x in 0..CHUNK_SIZE {
                    for z in 0..CHUNK_SIZE {
                        let origin = chunk.pos().origin_block();
                        let surface = gen.height_at(origin.x + x as i32, origin.z + z as i32);
                        if surface < SEA_LEVEL {
                            assert_eq!(chunk.block(x, SEA_LEVEL, z).kind(), BlockKind::Water);
                            found_water = true;
                        }
                    }
                }
            }
        }
        assert!(
            found_water,
            "expected at least one underwater column in the test area"
        );
    }
}
