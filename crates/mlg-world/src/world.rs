//! The world: a lazily generated collection of chunks plus the global
//! block-update and change-tracking state shared by the terrain simulation.
//!
//! Chunk storage is physically partitioned by a [`ShardMap`] so the sharded
//! tick pipeline can hand each worker exclusive ownership of one shard's
//! chunks without per-tick repartitioning. The hand-off itself — stores
//! leaving the world and coming back — is crate-private and driven only by
//! [`World::run_owned_phase`] and [`World::run_frozen_phase`] in
//! [`crate::shard`]. A freshly created world has a single
//! shard — the classic layout — and [`World::reshard`] repartitions it when
//! a server with a sharded tick pipeline adopts it. Chunk iteration is in
//! deterministic (shard-major, insertion) order, never hash order, so
//! everything derived from it is reproducible run-to-run.
//!
//! Resolving a block's chunk is the most-executed step of the tick path
//! and none of it is modeled work, so it is kept cheap in two ways that
//! cannot be observed. The position index of a [`ShardStore`] (like every
//! other lookup-only position-keyed table here: the update queue's
//! coalescing sets, the relight cache, the relight miss index) hashes with
//! the fixed [`PosHasher`](crate::pos::PosHasher) instead of per-process
//! SipHash — the tables are only ever probed, so their order never
//! escapes, which detlint's `no-hash-iteration` rule keeps true. And
//! [`World`] remembers where it found chunks, as `(position, shard, slot)`
//! entries in front of the shard map and the index, in one 64-way
//! direct-mapped table, one way per `(x & 7, z & 7)` of a chunk position:
//! a run of reads inside one column hits one way, and a player's spawn
//! candidates, which scatter over a 7 × 7-chunk window, land in different
//! ways. Every read probes the table inline and writes nothing on a hit.
//! Every entry is dropped by the five functions that move
//! stores (`reshard`, `take_shard_store`, `put_shard_store`,
//! `snapshot_chunks`, `restore_chunks`) and by nothing else, since chunks
//! are otherwise only appended.
//!
//! Most spawn candidates need no block at all: [`World::column_gap`] hands
//! out a column's `(base, top)` when they leave a gap, `None` when they do
//! not ([`Chunk::column_gap`]; every chunk keeps both exact on each write),
//! after loading the chunk exactly as a block read of that column would.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::block::{Block, BlockKind};
use crate::chunk::{Chunk, CHUNK_SIZE, WORLD_HEIGHT};
use crate::generation::ChunkGenerator;
use crate::pos::{BlockPos, ChunkPos, PosHashBuilder};
use crate::region::Region;
use crate::shard::ShardMap;
use crate::update::UpdateQueue;

/// A record of a single block change applied during the current tick.
///
/// The server drains these at the end of every tick and converts them into
/// block-change packets for connected clients (state-update dissemination in
/// the paper's operational model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockChange {
    /// Where the change happened.
    pub pos: BlockPos,
    /// The block before the change.
    pub old: Block,
    /// The block after the change.
    pub new: Block,
}

/// The chunks owned by one shard: dense insertion-ordered storage with a
/// hash *index* on the side for O(1) position lookup.
///
/// The chunks themselves live in a `Vec`, so **every** way of iterating a
/// store — shared or mutable — walks insertion order; the `HashMap` only
/// ever resolves a position to a slot and is never iterated. This is the
/// structure the `detlint` `no-hash-iteration` rule pushes the tick path
/// toward: hash lookup is fine, hash order is not.
#[derive(Debug, Default)]
pub struct ShardStore {
    chunks: Vec<Chunk>,
    index: HashMap<ChunkPos, usize, PosHashBuilder>,
}

impl ShardStore {
    /// The chunk at `pos`, if loaded in this store.
    #[must_use]
    pub fn get(&self, pos: ChunkPos) -> Option<&Chunk> {
        self.index.get(&pos).map(|&slot| &self.chunks[slot])
    }

    /// Inserts a freshly generated chunk (appending it to the iteration
    /// order). A chunk already present keeps its slot and is overwritten.
    fn insert(&mut self, chunk: Chunk) {
        match self.index.get(&chunk.pos()) {
            Some(&slot) => self.chunks[slot] = chunk,
            None => {
                self.index.insert(chunk.pos(), self.chunks.len());
                self.chunks.push(chunk);
            }
        }
    }

    /// The slot of the chunk at `pos` — one index probe — generating the
    /// chunk and appending it first when it is absent (then `true`). A slot
    /// names the same chunk for as long as the store only appends, which is
    /// all an owned phase's [`ShardWorld`](crate::shard::ShardWorld) does.
    pub(crate) fn slot_or_generate(
        &mut self,
        pos: ChunkPos,
        generator: &dyn ChunkGenerator,
    ) -> (usize, bool) {
        match self.index.entry(pos) {
            Entry::Occupied(slot) => (*slot.get(), false),
            Entry::Vacant(vacant) => {
                let chunk = generator.generate(pos);
                debug_assert_eq!(chunk.pos(), pos, "generator answered another chunk");
                vacant.insert(self.chunks.len());
                self.chunks.push(chunk);
                (self.chunks.len() - 1, true)
            }
        }
    }

    /// The chunk in `slot` (see [`ShardStore::slot_or_generate`]).
    pub(crate) fn slot_mut(&mut self, slot: usize) -> &mut Chunk {
        &mut self.chunks[slot]
    }

    /// Number of chunks in this store.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Returns `true` when the store holds no chunks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Iterates the chunks in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks.iter()
    }

    /// Iterates the chunks mutably, also in insertion order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Chunk> {
        self.chunks.iter_mut()
    }

    /// Iterates the chunk positions in insertion order.
    pub fn positions(&self) -> impl Iterator<Item = ChunkPos> + '_ {
        self.chunks.iter().map(Chunk::pos)
    }

    /// Consumes the store, yielding its chunks in insertion order.
    fn into_chunks(self) -> Vec<Chunk> {
        self.chunks
    }
}

/// Every chunk of the world, moved out for the duration of a frozen phase
/// ([`World::run_frozen_phase`]) and read through
/// [`FrozenChunks`](crate::shard::FrozenChunks).
///
/// It holds the world's actual [`ShardStore`]s plus the shard map they are
/// partitioned by — nothing is copied. Reads behave exactly like
/// [`World::block_if_loaded`] — unloaded positions are air, nothing is
/// generated — which is the contract the frozen lighting and entity phases
/// are specified against.
#[derive(Debug)]
pub(crate) struct WorldSnapshot {
    map: Arc<ShardMap>,
    stores: Vec<ShardStore>,
    /// [`World::terrain_epoch`] when the snapshot was taken.
    terrain_epoch: u64,
}

impl WorldSnapshot {
    /// Returns the chunk at `pos`, if it was loaded when the snapshot was
    /// taken: every frozen read — block or heightmap — resolves through
    /// here.
    #[must_use]
    pub(crate) fn chunk_if_loaded(&self, pos: ChunkPos) -> Option<&Chunk> {
        self.stores[self.map.shard_of_chunk(pos)].get(pos)
    }

    /// The terrain version the snapshot holds (see [`World::terrain_epoch`]).
    #[must_use]
    pub(crate) fn terrain_epoch(&self) -> u64 {
        self.terrain_epoch
    }
}

/// One memoized relight result: the flood+scan position count computed for
/// a position, tagged with the relight pass that computed it.
#[derive(Debug, Clone, Copy)]
struct RelightEntry {
    /// Relight pass (see [`RelightCache::pass`]) that computed this entry.
    tag: u64,
    /// `LightReport::total_positions()` of the computed relight.
    total: u32,
}

/// Memoized relight results keyed by position.
///
/// Validity is checked structurally, not by expiry: an entry is reusable
/// iff, for every loaded chunk overlapping the position's 17×17 flood
/// window, (a) the chunk's light-stamp predates the entry's tag and (b) no
/// column in the window intersection is light-dirty (see
/// [`Chunk::light_dirty_in`]). State-only block changes never dirty the
/// mask, so redstone clocks keep their entries alive indefinitely — the
/// common case the cache exists for.
///
/// The map is only ever probed (`get`/`insert`/`remove`) — never iterated —
/// so hash order cannot leak into modeled output (the detlint contract).
/// Bounded eviction order comes from the side `queue`, which records first
/// insertion order: a deterministic FIFO, independent of hash layout.
#[derive(Debug)]
struct RelightCache {
    entries: HashMap<BlockPos, RelightEntry, PosHashBuilder>,
    /// Keys in first-insertion order; exactly the map's key set (an updated
    /// entry keeps its queue position, so `queue.len() == entries.len()`
    /// always holds and evicting the front is O(1)).
    queue: VecDeque<BlockPos>,
    /// Monotone pass counter; incremented by [`World::begin_relight_pass`].
    pass: u64,
    /// Entry cap; reaching it evicts the oldest-inserted entry rather than
    /// clearing the whole cache, so a working set near the cap keeps its
    /// hit rate. Configurable for tests only.
    cap: usize,
}

impl Default for RelightCache {
    fn default() -> Self {
        RelightCache {
            entries: HashMap::default(),
            queue: VecDeque::new(),
            pass: 0,
            cap: RELIGHT_CACHE_CAP,
        }
    }
}

/// Default eviction cap for the relight cache: bounds memory on worlds that
/// relight unbounded position sets.
const RELIGHT_CACHE_CAP: usize = 1 << 16;

/// Ways of [`ChunkCursor::ways`]: one per `(x & 7, z & 7)` of a chunk
/// position, so any 8 × 8 square of chunks — a spawn window of 7 × 7 among
/// them — holds one chunk per way.
const CURSOR_WAYS: usize = 64;

/// The way of the chunk cursor that remembers `pos`.
fn cursor_way(pos: ChunkPos) -> usize {
    ((pos.x & 7) << 3 | (pos.z & 7)) as usize
}

/// Where chunk reads found chunks, each as an entry `E` (where the chunk
/// is stored): a direct-mapped table, which runs of reads inside one
/// column and reads scattered over a spawn window both hit. A hit is one
/// probe and writes nothing. [`World::load_chunk`] and the owned-phase
/// view [`ShardWorld`](crate::shard::ShardWorld) each keep one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkCursor<E> {
    /// `ways[cursor_way(position)]` is the last chunk found in that way.
    ways: [Option<(ChunkPos, E)>; CURSOR_WAYS],
}

impl<E: Copy> ChunkCursor<E> {
    /// A cursor that remembers nothing.
    pub(crate) const EMPTY: Self = ChunkCursor {
        ways: [None; CURSOR_WAYS],
    };

    /// The entry of `pos`, when its way remembers it.
    #[inline]
    pub(crate) fn find(&self, pos: ChunkPos) -> Option<E> {
        match self.ways[cursor_way(pos)] {
            Some((at, entry)) if at == pos => Some(entry),
            _ => None,
        }
    }

    /// Remembers `entry` for `pos` in its way.
    pub(crate) fn remember(&mut self, pos: ChunkPos, entry: E) {
        self.ways[cursor_way(pos)] = Some((pos, entry));
    }
}

/// The game world.
///
/// Owns every loaded chunk, the terrain generator used to lazily populate new
/// chunks, the block-update queues and the per-tick change log. All mutation
/// goes through [`World::set_block`] (or the silent variant used by workload
/// builders) so that neighbour updates and change tracking stay consistent.
pub struct World {
    /// Shared with the phase contexts and chunk snapshots of
    /// [`crate::shard`], which must own a handle for the same reason as
    /// `generator` below; replaced, never mutated, by [`World::reshard`].
    shard_map: Arc<ShardMap>,
    stores: Vec<ShardStore>,
    /// Where [`World::load_chunk`] found chunks. Slots are stable while a
    /// store stays in place (chunks are only ever appended), so the whole
    /// cursor is cleared exactly where stores move: `reshard`,
    /// `take_shard_store`, `put_shard_store`, `snapshot_chunks` and
    /// `restore_chunks`. An entry is the chunk's `(shard, slot)`.
    cursor: ChunkCursor<(u32, u32)>,
    /// Version of the stored terrain: see [`World::terrain_epoch`].
    terrain_epoch: u64,
    /// `Arc` rather than `Box` so tick-phase contexts can own a handle and
    /// run on the persistent worker pool (whose jobs cannot borrow the
    /// world); the world itself never shares mutable generator state — the
    /// [`ChunkGenerator`] trait is `&self` + `Send + Sync`.
    generator: Arc<dyn ChunkGenerator>,
    updates: UpdateQueue,
    changes: Vec<BlockChange>,
    chunks_generated_this_tick: u32,
    current_tick: u64,
    rng: StdRng,
    seed: u64,
    relight: RelightCache,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("generator", &self.generator.name())
            .field("shards", &self.shard_map.count())
            .field("loaded_chunks", &self.loaded_chunk_count())
            .field("current_tick", &self.current_tick)
            .field("pending_changes", &self.changes.len())
            .finish()
    }
}

impl World {
    /// Creates a new, empty world backed by the given generator.
    ///
    /// `seed` drives the random-tick lottery used for plant growth and other
    /// stochastic terrain behaviour; the generator carries its own seed.
    #[must_use]
    pub fn new(generator: Box<dyn ChunkGenerator>, seed: u64) -> Self {
        World {
            shard_map: Arc::new(ShardMap::stripes(1)),
            stores: vec![ShardStore::default()],
            cursor: ChunkCursor::EMPTY,
            terrain_epoch: 0,
            generator: Arc::from(generator),
            updates: UpdateQueue::new(),
            changes: Vec::new(),
            chunks_generated_this_tick: 0,
            current_tick: 0,
            rng: StdRng::seed_from_u64(seed),
            seed,
            relight: RelightCache::default(),
        }
    }

    /// Returns the world seed used for random ticks.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard map chunk storage is currently partitioned by.
    #[must_use]
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard_map
    }

    /// Repartitions chunk storage for `map`, preserving the global
    /// insertion order within each shard. Called once when a server with a
    /// sharded tick pipeline adopts a world; a no-op when the map is
    /// unchanged.
    pub fn reshard(&mut self, map: ShardMap) {
        if map != *self.shard_map {
            self.repartition(map);
        }
    }

    /// [`World::reshard`] for a map the caller keeps: clones `map` only
    /// when it differs from the world's, as the tick stages do every tick.
    pub fn reshard_to(&mut self, map: &ShardMap) {
        if *map != *self.shard_map {
            self.repartition(map.clone());
        }
    }

    /// Moves every chunk into the store `map` assigns it.
    fn repartition(&mut self, map: ShardMap) {
        let mut stores: Vec<ShardStore> = Vec::new();
        stores.resize_with(map.count(), ShardStore::default);
        for store in self.stores.drain(..) {
            for chunk in store.into_chunks() {
                stores[map.shard_of_chunk(chunk.pos())].insert(chunk);
            }
        }
        self.shard_map = Arc::new(map);
        self.stores = stores;
        self.cursor = ChunkCursor::EMPTY;
    }

    /// An owning handle to the shard map, for phase contexts.
    pub(crate) fn shard_map_arc(&self) -> Arc<ShardMap> {
        Arc::clone(&self.shard_map)
    }

    /// Moves one shard's chunk store out of the world, leaving an empty
    /// store in its place, until [`World::put_shard_store`] returns it.
    pub(crate) fn take_shard_store(&mut self, shard: usize) -> ShardStore {
        self.cursor = ChunkCursor::EMPTY;
        std::mem::take(&mut self.stores[shard])
    }

    /// Returns a shard's chunk store taken with [`World::take_shard_store`].
    pub(crate) fn put_shard_store(&mut self, shard: usize, store: ShardStore) {
        self.cursor = ChunkCursor::EMPTY;
        self.stores[shard] = store;
    }

    /// Read access to one shard's chunk store.
    #[must_use]
    // detlint: allow(pub-without-caller) -- tests/shard_properties.rs checks every chunk sits in the shard the map assigns
    pub fn shard_store(&self, shard: usize) -> &ShardStore {
        &self.stores[shard]
    }

    /// The version of the stored terrain: a counter that moves whenever a
    /// stored block value changes or a chunk enters a store, and at no other
    /// time. While it stands still every block read answers as it did and
    /// every chunk a read once generated is still loaded, which is what lets
    /// a caller keep an answer computed from terrain (a mob's route) instead
    /// of computing it again.
    ///
    /// It moves in exactly three places — the private `place` when the
    /// value written differs from the one stored, the generate arm of
    /// `load_chunk`, and the merge of [`World::run_owned_phase`], by the
    /// changes and generations each shard brings back — and a new way of
    /// writing terrain must move it too
    /// (`tests::every_write_path_moves_the_epoch`). Moving stores around
    /// (`reshard`, either shard phase's hand-off) and repacking a chunk's
    /// storage leave it alone: no block reads differently afterwards.
    #[must_use]
    pub fn terrain_epoch(&self) -> u64 {
        self.terrain_epoch
    }

    /// Records `by` terrain edits made to this world's chunks while they
    /// were out of it (an owned phase's block changes and generations).
    pub(crate) fn advance_terrain_epoch(&mut self, by: u64) {
        self.terrain_epoch += by;
    }

    /// Returns the current game tick number.
    #[must_use]
    pub fn current_tick(&self) -> u64 {
        self.current_tick
    }

    /// Advances the world's tick counter by one. Called by the game loop at
    /// the start of every tick.
    pub fn advance_tick(&mut self) {
        self.current_tick += 1;
        self.chunks_generated_this_tick = 0;
    }

    /// Number of chunks currently loaded in memory.
    #[must_use]
    pub fn loaded_chunk_count(&self) -> usize {
        self.stores.iter().map(ShardStore::len).sum()
    }

    /// Inclusive bounding box `(min, max)` of all loaded chunk positions,
    /// or `None` when no chunk is loaded. Used to size the root square of
    /// an adaptive shard partition around the world's actual footprint.
    #[must_use]
    pub fn chunk_bounds(&self) -> Option<(ChunkPos, ChunkPos)> {
        let mut positions = self.stores.iter().flat_map(ShardStore::positions);
        let first = positions.next()?;
        let (mut min, mut max) = (first, first);
        for pos in positions {
            min.x = min.x.min(pos.x);
            min.z = min.z.min(pos.z);
            max.x = max.x.max(pos.x);
            max.z = max.z.max(pos.z);
        }
        Some((min, max))
    }

    /// Number of chunks generated since the last [`World::advance_tick`] call.
    ///
    /// Chunk generation is one of the data- and compute-intensive terrain
    /// workloads (Section 2.2.2), so the per-tick count feeds into tick cost.
    #[must_use]
    pub fn chunks_generated_this_tick(&self) -> u32 {
        self.chunks_generated_this_tick
    }

    /// Adds externally performed chunk generations (from shard workers) to
    /// this tick's generation counter.
    pub(crate) fn note_chunks_generated(&mut self, generated: u32) {
        self.chunks_generated_this_tick += generated;
    }

    /// An owning handle to the terrain generator, for tick-phase contexts
    /// that must outlive any borrow of the world (persistent-pool jobs).
    pub(crate) fn generator_arc(&self) -> Arc<dyn ChunkGenerator> {
        Arc::clone(&self.generator)
    }

    /// Moves every shard's chunk store out of the world into an owned
    /// [`WorldSnapshot`], leaving empty stores behind — pointer-level
    /// moves, no chunk data is copied. Until [`World::restore_chunks`] the
    /// world reads as empty.
    pub(crate) fn snapshot_chunks(&mut self) -> WorldSnapshot {
        let mut empty: Vec<ShardStore> = Vec::new();
        empty.resize_with(self.stores.len(), ShardStore::default);
        self.cursor = ChunkCursor::EMPTY;
        WorldSnapshot {
            map: Arc::clone(&self.shard_map),
            stores: std::mem::replace(&mut self.stores, empty),
            terrain_epoch: self.terrain_epoch,
        }
    }

    /// Returns the chunk stores taken by [`World::snapshot_chunks`].
    pub(crate) fn restore_chunks(&mut self, snapshot: WorldSnapshot) {
        self.cursor = ChunkCursor::EMPTY;
        self.stores = snapshot.stores;
    }

    /// The one generate-if-absent: returns the chunk at `pos` and whether
    /// this call had to generate it (counted into this tick's generations).
    ///
    /// Reads come in runs inside one chunk column (an entity's collision
    /// box, a pathfinding neighbourhood) or scatter over a few nearby
    /// chunks (a player's spawn candidates), so resolutions are kept in
    /// `cursor` and a repeat skips the shard map and the index. The
    /// cursor's one probe is inlined into callers.
    #[inline]
    fn load_chunk(&mut self, pos: ChunkPos) -> (&mut Chunk, bool) {
        if let Some((shard, slot)) = self.cursor.find(pos) {
            let chunk = &mut self.stores[shard as usize].chunks[slot as usize];
            debug_assert_eq!(chunk.pos(), pos, "chunk cursor outlived a store move");
            return (chunk, false);
        }
        self.resolve_chunk(pos)
    }

    /// [`World::load_chunk`] past the cursor: the shard map, the index
    /// and, for a chunk not loaded yet, generation.
    #[inline(never)]
    fn resolve_chunk(&mut self, pos: ChunkPos) -> (&mut Chunk, bool) {
        let shard = self.shard_map.shard_of_chunk(pos);
        let store = &mut self.stores[shard];
        let loaded = store.index.get(&pos).copied();
        let slot = loaded.unwrap_or_else(|| {
            store.insert(self.generator.generate(pos));
            self.chunks_generated_this_tick += 1;
            self.terrain_epoch += 1;
            store.chunks.len() - 1
        });
        self.cursor.remember(pos, (shard as u32, slot as u32));
        (&mut store.chunks[slot], loaded.is_none())
    }

    /// Ensures the chunk at `pos` is loaded, generating it if needed, and
    /// returns a reference to it.
    pub fn ensure_chunk(&mut self, pos: ChunkPos) -> &Chunk {
        self.load_chunk(pos).0
    }

    /// Ensures every chunk within `radius` (Chebyshev, in chunks) of `center`
    /// is loaded. Returns how many chunks were newly generated.
    pub fn ensure_area(&mut self, center: ChunkPos, radius: u32) -> usize {
        center
            .square(radius)
            .filter(|&pos| self.load_chunk(pos).1)
            .count()
    }

    /// Returns the chunk at `pos` if it is already loaded.
    #[must_use]
    pub fn chunk_if_loaded(&self, pos: ChunkPos) -> Option<&Chunk> {
        self.stores[self.shard_map.shard_of_chunk(pos)].get(pos)
    }

    /// Iterates over all loaded chunks in deterministic (shard-major,
    /// insertion) order.
    pub fn iter_chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.stores.iter().flat_map(ShardStore::iter)
    }

    /// Iterates mutably over all loaded chunks, in the same deterministic
    /// (shard-major, insertion) order as [`World::iter_chunks`].
    ///
    /// Crate-private so that no `&mut Chunk` — and with it
    /// [`Chunk::set_block`] — reaches a caller who could edit terrain behind
    /// [`World::terrain_epoch`]; the users here (storage compaction, folding
    /// light-dirty masks) change no block value and so do not move it.
    pub(crate) fn iter_chunks_mut(&mut self) -> impl Iterator<Item = &mut Chunk> {
        self.stores.iter_mut().flat_map(ShardStore::iter_mut)
    }

    /// Returns the block at `pos`, lazily generating the containing chunk.
    #[must_use]
    pub fn block(&mut self, pos: BlockPos) -> Block {
        if pos.y < 0 || pos.y >= WORLD_HEIGHT as i32 {
            return Block::AIR;
        }
        let chunk_pos = pos.chunk();
        let (lx, y, lz) = pos.local();
        self.ensure_chunk(chunk_pos).block(lx, y, lz)
    }

    /// Returns the block at `pos` without generating missing chunks;
    /// unloaded positions read as air.
    #[must_use]
    pub fn block_if_loaded(&self, pos: BlockPos) -> Block {
        if pos.y < 0 || pos.y >= WORLD_HEIGHT as i32 {
            return Block::AIR;
        }
        let (lx, y, lz) = pos.local();
        self.chunk_if_loaded(pos.chunk())
            .map_or(Block::AIR, |c| c.block(lx, y, lz))
    }

    /// Sets the block at `pos`, recording the change and enqueueing neighbour
    /// updates. Returns the previous block.
    ///
    /// Positions outside the vertical world bounds are ignored and read as
    /// air; no change is recorded for them.
    pub fn set_block(&mut self, pos: BlockPos, block: Block) -> Block {
        if pos.y < 0 || pos.y >= WORLD_HEIGHT as i32 {
            return Block::AIR;
        }
        let old = self.place(pos, block);
        if old != block {
            self.changes.push(BlockChange {
                pos,
                old,
                new: block,
            });
            for n in pos.neighbors() {
                self.updates.push_neighbor(n);
            }
            self.updates.push_neighbor(pos);
        }
        old
    }

    /// Sets the block at `pos` without enqueueing neighbour updates or
    /// recording a change. Used by workload builders to construct worlds
    /// without triggering the simulation, mirroring how the paper's workload
    /// worlds are prepared offline and only start simulating when loaded.
    pub fn set_block_silent(&mut self, pos: BlockPos, block: Block) -> Block {
        self.place(pos, block)
    }

    fn place(&mut self, pos: BlockPos, block: Block) -> Block {
        if pos.y < 0 || pos.y >= WORLD_HEIGHT as i32 {
            return Block::AIR;
        }
        let chunk_pos = pos.chunk();
        let (lx, y, lz) = pos.local();
        let old = self.load_chunk(chunk_pos).0.set_block(lx, y, lz, block);
        if old != block {
            self.terrain_epoch += 1;
        }
        old
    }

    /// Fills an entire region with the given block (silently, without
    /// neighbour updates). Returns the number of blocks written.
    pub fn fill_region(&mut self, region: Region, block: Block) -> u64 {
        let mut written = 0;
        for pos in region.iter() {
            self.set_block_silent(pos, block);
            written += 1;
        }
        written
    }

    /// Returns the `y` of the highest non-air block in the column containing
    /// `(x, z)`, lazily generating the chunk.
    #[must_use]
    pub fn highest_block_y(&mut self, x: i32, z: i32) -> Option<i32> {
        let pos = BlockPos::new(x, 0, z);
        let chunk_pos = pos.chunk();
        let (lx, _, lz) = pos.local();
        self.ensure_chunk(chunk_pos).height_at(lx, lz)
    }

    /// Returns the `y` of the highest non-air block in column `(x, z)` from
    /// the chunk heightmap (`Some(-1)` for an all-air column), lazily
    /// generating the chunk — the same generation a block scan of that
    /// column would have triggered, so the modeled generation counter is
    /// unaffected by callers switching from scans to this lookup.
    #[must_use]
    pub fn column_top(&mut self, x: i32, z: i32) -> Option<i32> {
        Some(self.highest_block_y(x, z).unwrap_or(-1))
    }

    /// Column `(x, z)`'s `(base, top)` ([`Chunk::column_summary`]) when
    /// `base < top`, `None` for a closed column ([`Chunk::column_gap`]):
    /// every block in `0..=base` is solid or fluid, every block above `top`
    /// is air, so in a closed column no `y` lies strictly between them.
    /// Lazily generates the chunk — the one any block read of the column
    /// would have generated — and reads no block.
    #[must_use]
    pub fn column_gap(&mut self, x: i32, z: i32) -> Option<(i32, i32)> {
        let pos = BlockPos::new(x, 0, z);
        let (lx, _, lz) = pos.local();
        self.load_chunk(pos.chunk()).0.column_gap(lx, lz)
    }

    /// Compacts every loaded chunk's palette storage (drops dead palette
    /// entries, narrows packed index widths). Substrate-only: invoked from
    /// the server's simulated GC ticks and after bulk world building; cheap
    /// when chunks are already compact.
    pub fn compact_chunk_storage(&mut self) {
        for chunk in self.iter_chunks_mut() {
            chunk.compact_storage();
        }
    }

    /// Heap bytes currently owned by all loaded chunks' block stores.
    /// Compare against a dense `Vec<Block>` body per loaded chunk to
    /// measure the palette-compression win.
    #[must_use]
    // detlint: allow(pub-without-caller) -- tests/substrate_perf.rs and tests/tnt_ignition.rs measure chunk storage
    pub fn chunk_storage_bytes(&self) -> usize {
        self.iter_chunks().map(Chunk::storage_bytes).sum()
    }

    /// Starts a relight pass and returns its pass number. Each pass must be
    /// closed with [`World::end_relight_pass`].
    pub(crate) fn begin_relight_pass(&mut self) -> u64 {
        self.relight.pass += 1;
        self.relight.pass
    }

    /// Looks up a memoized relight count for `pos`, returning it only if no
    /// chunk overlapping the position's flood window was light-dirtied since
    /// the entry was computed.
    #[must_use]
    pub(crate) fn cached_relight(&self, pos: BlockPos) -> Option<u32> {
        let entry = self.relight.entries.get(&pos)?;
        self.relight_window_clean(pos, entry.tag)
            .then_some(entry.total)
    }

    /// `true` iff every loaded chunk overlapping the 17×17 flood window
    /// around `pos` is clean with respect to a cache entry tagged `tag`.
    fn relight_window_clean(&self, pos: BlockPos, tag: u64) -> bool {
        let r = crate::light::LIGHT_FLOOD_RADIUS as i32;
        let (x0, x1) = (pos.x - r, pos.x + r);
        let (z0, z1) = (pos.z - r, pos.z + r);
        let c0 = BlockPos::new(x0, 0, z0).chunk();
        let c1 = BlockPos::new(x1, 0, z1).chunk();
        for cx in c0.x..=c1.x {
            for cz in c0.z..=c1.z {
                let Some(chunk) = self.chunk_if_loaded(ChunkPos::new(cx, cz)) else {
                    continue;
                };
                if chunk.light_stamp() >= tag {
                    return false;
                }
                let origin = ChunkPos::new(cx, cz).origin_block();
                let lx0 = (x0 - origin.x).max(0) as usize;
                let lx1 = (x1 - origin.x).min(CHUNK_SIZE as i32 - 1) as usize;
                let lz0 = (z0 - origin.z).max(0) as usize;
                let lz1 = (z1 - origin.z).min(CHUNK_SIZE as i32 - 1) as usize;
                if chunk.light_dirty_in(lx0, lx1, lz0, lz1) {
                    return false;
                }
            }
        }
        true
    }

    /// Memoizes a relight count computed during the current pass.
    ///
    /// At the cap the oldest-inserted entry is evicted (deterministic FIFO
    /// by first insertion, via the cache's side queue — hash order is never
    /// consulted). Re-memoizing an existing key updates it in place and
    /// keeps its queue position, preserving the 1:1 map↔queue invariant.
    pub(crate) fn insert_relight(&mut self, pos: BlockPos, total: u32) {
        let entry = RelightEntry {
            tag: self.relight.pass,
            total,
        };
        if let Some(slot) = self.relight.entries.get_mut(&pos) {
            *slot = entry;
            return;
        }
        if self.relight.entries.len() >= self.relight.cap {
            let oldest = self
                .relight
                .queue
                .pop_front()
                .expect("cache at cap implies a non-empty queue");
            self.relight.entries.remove(&oldest);
        }
        self.relight.queue.push_back(pos);
        self.relight.entries.insert(pos, entry);
    }

    /// Shrinks the relight-cache cap (tests only: exercises eviction
    /// without building a 2^16-entry working set).
    #[cfg(test)]
    pub(crate) fn set_relight_cache_cap(&mut self, cap: usize) {
        assert!(cap > 0, "a zero cap cannot hold the entry being inserted");
        self.relight.cap = cap;
        while self.relight.entries.len() > cap {
            let oldest = self
                .relight
                .queue
                .pop_front()
                .expect("map and queue stay 1:1");
            self.relight.entries.remove(&oldest);
        }
    }

    /// Closes a relight pass: folds every dirtied chunk's light-dirty mask
    /// into its stamp, invalidating all cache entries from earlier passes
    /// whose windows overlap those chunks while keeping this pass's fresh
    /// entries valid.
    pub(crate) fn end_relight_pass(&mut self) {
        let stamp = self.relight.pass.saturating_sub(1);
        for chunk in self.iter_chunks_mut() {
            chunk.fold_light_dirty(stamp);
        }
    }

    /// Enqueues an immediate neighbour update at `pos`.
    pub fn push_neighbor_update(&mut self, pos: BlockPos) {
        self.updates.push_neighbor(pos);
    }

    /// Schedules a block update for `pos` to run `delay_ticks` ticks from now.
    pub fn schedule_tick(&mut self, pos: BlockPos, delay_ticks: u64) {
        let due = self.current_tick + delay_ticks.max(1);
        self.updates.schedule_at(pos, due);
    }

    /// Schedules a block update for `pos` at the absolute game tick
    /// `due_tick` (used by the sharded pipeline to register shard workers'
    /// deferred schedules).
    pub fn schedule_tick_at(&mut self, pos: BlockPos, due_tick: u64) {
        self.updates.schedule_at(pos, due_tick);
    }

    /// Grants the terrain simulator access to the update queue.
    pub fn updates_mut(&mut self) -> &mut UpdateQueue {
        &mut self.updates
    }

    /// Read-only access to the update queue (for diagnostics and tests).
    #[must_use]
    pub fn updates(&self) -> &UpdateQueue {
        &self.updates
    }

    /// Drains and returns all block changes recorded since the last drain.
    pub fn drain_changes(&mut self) -> Vec<BlockChange> {
        std::mem::take(&mut self.changes)
    }

    /// Returns the block changes recorded and not yet drained, without
    /// consuming them. The terrain simulator uses this to classify the
    /// changes it caused (added vs removed vs updated) for the tick-time
    /// distribution metric.
    #[must_use]
    pub fn changes(&self) -> &[BlockChange] {
        &self.changes
    }

    /// Appends externally recorded block changes (from shard workers) to the
    /// change log, in the order given.
    pub(crate) fn append_changes(&mut self, changes: impl IntoIterator<Item = BlockChange>) {
        self.changes.extend(changes);
    }

    /// Number of block changes recorded and not yet drained.
    #[must_use]
    // detlint: allow(pub-without-caller) -- tests/shard_properties.rs checks sharded ticks drain the change log
    pub fn pending_change_count(&self) -> usize {
        self.changes.len()
    }

    /// Selects positions to receive a random tick this game tick.
    ///
    /// Mirrors Minecraft's behaviour: every loaded chunk draws
    /// `random_ticks_per_chunk` randomly chosen block positions per tick,
    /// in ascending chunk order, so the draws depend on the seed and the
    /// chunk set only — not on shard partitioning or load order. Only the
    /// picks of chunks that hold a plant ([`BlockKind::is_plant`], read from
    /// the palette) are returned: a pick elsewhere lands on a block that
    /// cannot react, and no random tick creates a plant outside its own
    /// column, so no chunk gains one before its picks are applied. A
    /// plantless chunk still makes its draws — the RNG stream, and every
    /// later pick, is the same as if all picks were returned.
    pub fn pick_random_tick_positions(&mut self, random_ticks_per_chunk: u32) -> Vec<BlockPos> {
        let mut chunks: Vec<(ChunkPos, bool)> = self
            .iter_chunks()
            .map(|chunk| (chunk.pos(), chunk.holds_plant()))
            .collect();
        chunks.sort_unstable_by_key(|&(pos, _)| pos);
        let mut picks = Vec::new();
        for (chunk_pos, holds_plant) in chunks {
            let origin = chunk_pos.origin_block();
            for _ in 0..random_ticks_per_chunk {
                let x = origin.x + self.rng.gen_range(0..CHUNK_SIZE as i32);
                let z = origin.z + self.rng.gen_range(0..CHUNK_SIZE as i32);
                let y = self.rng.gen_range(0..WORLD_HEIGHT as i32);
                if holds_plant {
                    picks.push(BlockPos::new(x, y, z));
                }
            }
        }
        picks
    }

    /// Total number of non-air blocks across all loaded chunks.
    #[must_use]
    pub fn total_non_air_blocks(&self) -> u64 {
        self.iter_chunks()
            .map(|c| u64::from(c.non_air_blocks()))
            .sum()
    }

    /// Counts blocks of a given kind across all loaded chunks, from each
    /// chunk's palette reference counts: O(chunks × palette), no block is
    /// read.
    #[must_use]
    pub fn count_kind(&self, kind: BlockKind) -> usize {
        self.iter_chunks().map(|c| c.count_kind(kind)).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::generation::FlatGenerator;

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 1234)
    }

    #[test]
    fn lazy_generation_on_block_access() {
        let mut w = world();
        assert_eq!(w.loaded_chunk_count(), 0);
        let b = w.block(BlockPos::new(100, 60, -200));
        assert_eq!(b.kind(), BlockKind::Grass);
        assert_eq!(w.loaded_chunk_count(), 1);
        assert_eq!(w.chunks_generated_this_tick(), 1);
    }

    #[test]
    fn set_block_records_change_and_neighbors() {
        let mut w = world();
        let pos = BlockPos::new(5, 70, 5);
        w.set_block(pos, Block::simple(BlockKind::Stone));
        assert_eq!(w.pending_change_count(), 1);
        // The block itself plus its six neighbours are queued for updates.
        let queued = std::iter::from_fn(|| w.updates_mut().pop_immediate()).count();
        assert_eq!(queued, 7);
        let changes = w.drain_changes();
        assert_eq!(changes[0].pos, pos);
        assert_eq!(changes[0].old, Block::AIR);
        assert_eq!(changes[0].new.kind(), BlockKind::Stone);
        assert_eq!(w.pending_change_count(), 0);
    }

    #[test]
    fn silent_set_does_not_record() {
        let mut w = world();
        w.set_block_silent(BlockPos::new(1, 70, 1), Block::simple(BlockKind::Stone));
        assert_eq!(w.pending_change_count(), 0);
        assert!(w.updates().is_empty());
    }

    #[test]
    fn setting_identical_block_is_a_no_op() {
        let mut w = world();
        let pos = BlockPos::new(0, 60, 0);
        let existing = w.block(pos);
        w.drain_changes();
        w.set_block(pos, existing);
        assert_eq!(w.pending_change_count(), 0);
    }

    #[test]
    fn out_of_bounds_y_is_air() {
        let mut w = world();
        assert_eq!(w.block(BlockPos::new(0, -5, 0)), Block::AIR);
        assert_eq!(w.block(BlockPos::new(0, 500, 0)), Block::AIR);
        assert_eq!(
            w.set_block(BlockPos::new(0, 500, 0), Block::simple(BlockKind::Stone)),
            Block::AIR
        );
        assert_eq!(w.pending_change_count(), 0);
    }

    #[test]
    fn ensure_area_generates_square() {
        let mut w = world();
        let generated = w.ensure_area(ChunkPos::new(0, 0), 2);
        assert_eq!(generated, 25);
        assert_eq!(w.loaded_chunk_count(), 25);
        // Chunks enter the store in `square` order.
        let loaded: Vec<ChunkPos> = w.iter_chunks().map(Chunk::pos).collect();
        assert_eq!(loaded, ChunkPos::new(0, 0).square(2).collect::<Vec<_>>());
        // Already loaded: generating again is a no-op.
        assert_eq!(w.ensure_area(ChunkPos::new(0, 0), 2), 0);
        // The return value and the per-tick counter (both feed the modeled
        // join spike) count exactly the chunks each call had to generate,
        // whichever entry point reached them.
        assert_eq!(w.ensure_area(ChunkPos::new(2, 0), 2), 10);
        assert_eq!(w.chunks_generated_this_tick(), 35);
        w.ensure_chunk(ChunkPos::new(9, 9));
        w.ensure_chunk(ChunkPos::new(9, 9));
        w.set_block_silent(BlockPos::new(-200, 70, 5), Block::simple(BlockKind::Stone));
        let _ = w.block(BlockPos::new(-200, 71, 5));
        assert_eq!(w.chunks_generated_this_tick(), 37);
        assert_eq!(w.loaded_chunk_count(), 37);
    }

    #[test]
    fn advance_tick_resets_generation_counter() {
        let mut w = world();
        w.ensure_area(ChunkPos::new(0, 0), 1);
        assert!(w.chunks_generated_this_tick() > 0);
        w.advance_tick();
        assert_eq!(w.chunks_generated_this_tick(), 0);
        assert_eq!(w.current_tick(), 1);
    }

    #[test]
    fn fill_region_writes_volume() {
        let mut w = world();
        let region = Region::new(BlockPos::new(0, 70, 0), BlockPos::new(3, 72, 3));
        let written = w.fill_region(region, Block::simple(BlockKind::Tnt));
        assert_eq!(written, region.volume());
        assert_eq!(w.count_kind(BlockKind::Tnt), region.volume() as usize);
    }

    #[test]
    fn highest_block_matches_flat_surface() {
        let mut w = world();
        assert_eq!(w.highest_block_y(8, 8), Some(60));
        w.set_block(BlockPos::new(8, 90, 8), Block::simple(BlockKind::Stone));
        assert_eq!(w.highest_block_y(8, 8), Some(90));
    }

    /// The lottery before it filtered by chunk: every loaded chunk's picks,
    /// from the same draws in the same order.
    fn unfiltered_picks(w: &mut World, random_ticks_per_chunk: u32) -> Vec<BlockPos> {
        let mut chunk_positions: Vec<ChunkPos> = w
            .stores
            .iter()
            .flat_map(|store| store.positions())
            .collect();
        chunk_positions.sort();
        let mut picks = Vec::new();
        for chunk_pos in chunk_positions {
            let origin = chunk_pos.origin_block();
            for _ in 0..random_ticks_per_chunk {
                let x = origin.x + w.rng.gen_range(0..CHUNK_SIZE as i32);
                let z = origin.z + w.rng.gen_range(0..CHUNK_SIZE as i32);
                let y = w.rng.gen_range(0..WORLD_HEIGHT as i32);
                picks.push(BlockPos::new(x, y, z));
            }
        }
        picks
    }

    /// A grassland world of `(2r+1)²` chunks around the origin with one
    /// plant at each of `plants`.
    fn planted(seed: u64, radius: u32, plants: &[(BlockPos, BlockKind)]) -> World {
        let mut w = World::new(Box::new(FlatGenerator::grassland()), seed);
        w.ensure_area(ChunkPos::new(0, 0), radius);
        for &(pos, kind) in plants {
            w.set_block_silent(pos, Block::simple(kind));
        }
        w
    }

    /// Plants in five chunks of a 7×7-chunk world, one on a chunk corner,
    /// spread across several stripes of `ShardMap::stripes(4)`.
    const PLANTS: [(BlockPos, BlockKind); 6] = [
        (BlockPos::new(0, 61, 0), BlockKind::Sapling),
        (BlockPos::new(5, 61, 9), BlockKind::Wheat),
        (BlockPos::new(-17, 61, 40), BlockKind::Kelp),
        (BlockPos::new(47, 61, -48), BlockKind::SugarCane),
        (BlockPos::new(-33, 30, -20), BlockKind::Sapling),
        (BlockPos::new(20, 100, 3), BlockKind::Wheat),
    ];

    fn plant_chunks() -> BTreeSet<ChunkPos> {
        PLANTS.iter().map(|(pos, _)| pos.chunk()).collect()
    }

    #[test]
    fn random_tick_positions_are_deterministic_for_seed() {
        let mut w1 = planted(99, 3, &PLANTS);
        let mut w2 = planted(99, 3, &PLANTS);
        let plant_chunks = plant_chunks();
        assert_eq!(plant_chunks.len(), 5);
        let p1 = w1.pick_random_tick_positions(3);
        // Three picks per chunk that holds a plant, none anywhere else, in
        // ascending chunk order.
        let mut per_chunk: BTreeMap<ChunkPos, usize> = BTreeMap::new();
        for pos in &p1 {
            *per_chunk.entry(pos.chunk()).or_default() += 1;
        }
        assert!(per_chunk.keys().eq(plant_chunks.iter()));
        assert!(per_chunk.values().all(|&n| n == 3));
        assert!(p1.windows(2).all(|pair| pair[0].chunk() <= pair[1].chunk()));
        // Same seed and same chunk set: the picks must match exactly.
        assert_eq!(p1, w2.pick_random_tick_positions(3));
    }

    #[test]
    fn random_tick_positions_keep_the_unfiltered_draws() {
        let mut filtered = planted(7, 3, &PLANTS);
        let mut reference = planted(7, 3, &PLANTS);
        let plant_chunks = plant_chunks();
        for _ in 0..3 {
            let picks = filtered.pick_random_tick_positions(3);
            let all = unfiltered_picks(&mut reference, 3);
            assert_eq!(all.len(), 49 * 3);
            let kept: Vec<BlockPos> = (all.into_iter())
                .filter(|pos| plant_chunks.contains(&pos.chunk()))
                .collect();
            assert_eq!(picks, kept);
            // A plantless chunk still made its draws: the streams agree.
            assert_eq!(filtered.rng.gen::<u64>(), reference.rng.gen::<u64>());
        }
    }

    #[test]
    fn random_tick_positions_skip_a_chunk_whose_plant_is_gone() {
        let corner = BlockPos::new(15, 61, 15);
        let mut w = planted(3, 1, &[(corner, BlockKind::Kelp)]);
        assert_eq!(w.pick_random_tick_positions(3).len(), 3);
        // The palette keeps the dead kelp slot; its refcount is zero.
        w.set_block_silent(corner, Block::AIR);
        assert!(w.pick_random_tick_positions(3).is_empty());
    }

    #[test]
    fn random_tick_positions_are_shard_partition_independent() {
        let mut flat = planted(4242, 3, &PLANTS);
        let mut sharded = planted(4242, 3, &PLANTS);
        sharded.reshard(ShardMap::stripes(4));
        let picks = flat.pick_random_tick_positions(3);
        assert_eq!(picks.len(), 5 * 3);
        assert_eq!(picks, sharded.pick_random_tick_positions(3));
    }

    #[test]
    fn scheduled_tick_becomes_due() {
        let mut w = world();
        let pos = BlockPos::new(1, 61, 1);
        w.schedule_tick(pos, 2);
        assert!(w.updates_mut().pop_due(1).is_empty());
        w.advance_tick();
        w.advance_tick();
        let tick = w.current_tick();
        let due = w.updates_mut().pop_due(tick);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].pos, pos);
    }

    #[test]
    fn reshard_preserves_content_and_lookup() {
        let mut w = world();
        w.ensure_area(ChunkPos::new(0, 0), 3);
        let pos = BlockPos::new(37, 70, -12);
        w.set_block(pos, Block::simple(BlockKind::Tnt));
        let chunks_before = w.loaded_chunk_count();
        let non_air_before = w.total_non_air_blocks();
        w.reshard(ShardMap::stripes(4));
        assert_eq!(w.loaded_chunk_count(), chunks_before);
        assert_eq!(w.total_non_air_blocks(), non_air_before);
        assert_eq!(w.block(pos).kind(), BlockKind::Tnt);
        assert_eq!(w.shard_map().count(), 4);
        // Every chunk landed in the store its shard map entry names.
        for shard in 0..4 {
            for chunk_pos in w.shard_store(shard).positions().collect::<Vec<_>>() {
                assert_eq!(w.shard_map().shard_of_chunk(chunk_pos), shard);
            }
        }
    }

    #[test]
    fn take_and_put_shard_store_round_trips() {
        let mut w = world();
        w.ensure_area(ChunkPos::new(0, 0), 2);
        w.reshard(ShardMap::stripes(2));
        let before = w.loaded_chunk_count();
        let store = w.take_shard_store(1);
        assert!(w.loaded_chunk_count() < before || store.is_empty());
        w.put_shard_store(1, store);
        assert_eq!(w.loaded_chunk_count(), before);
    }

    #[test]
    fn chunk_cursor_is_dropped_on_both_sides_of_a_store_hand_off() {
        // While a store is out the world reads as empty (and regenerates
        // lazily into the placeholder); once it is back the real chunk
        // answers again. An entry kept across either edge, in any way of
        // the cursor, would index the wrong store.
        let mut w = world();
        // 9 × 9 chunks: every way of the cursor, and 17 ways twice.
        w.ensure_area(ChunkPos::new(3, 3), 4);
        w.reshard(ShardMap::stripes(2));
        let kinds = [BlockKind::Stone, BlockKind::Dirt, BlockKind::Sand];
        let chunks: Vec<ChunkPos> = w.iter_chunks().map(Chunk::pos).collect();
        let markers: Vec<(BlockPos, Block, usize)> = chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| {
                let pos = chunk.origin_block().offset(5, 70, 5);
                let block = Block::simple(kinds[i % kinds.len()]);
                w.set_block_silent(pos, block);
                (pos, block, w.shard_map().shard_of_block(pos))
            })
            .collect();
        let ways: std::collections::BTreeSet<usize> =
            chunks.iter().map(|&c| cursor_way(c)).collect();
        assert_eq!(ways.len(), CURSOR_WAYS);

        // Reads every marker — filling every way — and requires it present
        // exactly when its shard's store is in the world. While a store is
        // out the markers are read backwards, so the placeholder holds its
        // chunks in other slots than the real store.
        let read_all = |w: &mut World, present: &dyn Fn(usize) -> bool| {
            let mut order: Vec<_> = markers.iter().collect();
            if !(0..2).all(present) {
                order.reverse();
            }
            for &(pos, block, shard) in order {
                let expected = if present(shard) { block } else { Block::AIR };
                assert_eq!(w.block(pos), expected, "{pos} in shard {shard}");
                assert_eq!(w.block(pos), w.block_if_loaded(pos), "{pos}");
            }
        };
        for shard in [0, 1] {
            read_all(&mut w, &|_| true);
            let store = w.take_shard_store(shard);
            read_all(&mut w, &|s| s != shard);
            w.put_shard_store(shard, store);
            read_all(&mut w, &|_| true);
        }
        let snapshot = w.snapshot_chunks();
        read_all(&mut w, &|_| false);
        w.restore_chunks(snapshot);
        read_all(&mut w, &|_| true);
    }

    #[test]
    fn every_write_path_moves_the_epoch() {
        use crate::pool::PoolScope;
        use crate::shard::{BlockReader, TerrainView};

        let mut w = world();
        w.ensure_area(ChunkPos::new(0, 0), 3);
        w.reshard(ShardMap::stripes(2));
        let stone = Block::simple(BlockKind::Stone);
        let inside = BlockPos::new(5, 70, 5);
        let mut far = 1_000;
        let mut unloaded = || {
            far += 100;
            BlockPos::new(far, 60, far)
        };

        /// Runs `edit` and requires the epoch to have moved, or not.
        fn check(w: &mut World, moves: bool, what: &str, edit: impl FnOnce(&mut World)) {
            let before = w.terrain_epoch();
            edit(w);
            assert_eq!(w.terrain_epoch() != before, moves, "{what}");
        }

        // Every way a stored block value changes.
        check(&mut w, true, "set_block", |w| {
            w.set_block(inside, stone);
        });
        check(&mut w, true, "set_block_silent", |w| {
            w.set_block_silent(inside.up(), stone);
        });
        check(&mut w, true, "fill_region", |w| {
            w.fill_region(
                Region::new(inside.offset(2, 0, 0), inside.offset(3, 1, 1)),
                stone,
            );
        });
        check(&mut w, true, "sim::explode", |w| {
            assert!(crate::sim::explode(w, BlockPos::new(20, 60, 20), 3).blocks_destroyed > 0);
        });
        // Every way a chunk enters a store.
        let pos = unloaded();
        check(&mut w, true, "lazy generation through block", |w| {
            let _ = w.block(pos);
        });
        let pos = unloaded();
        check(&mut w, true, "lazy generation through column_top", |w| {
            let _ = w.column_top(pos.x, pos.z);
        });
        let pos = unloaded();
        check(&mut w, true, "lazy generation through column_gap", |w| {
            let _ = w.column_gap(pos.x, pos.z);
        });
        let pos = unloaded();
        check(&mut w, true, "lazy generation through ensure_area", |w| {
            assert_eq!(w.ensure_area(pos.chunk(), 0), 1);
        });
        // What a shard worker does while the store is out of the world: a
        // write to a loaded chunk (nothing generated) ...
        let owned = |w: &mut World, pos: BlockPos, write: Option<Block>| {
            let before = (w.pending_change_count(), w.chunks_generated_this_tick());
            let shard = w.shard_map().shard_of_block(pos);
            let scope = PoolScope::scoped(1);
            w.run_owned_phase(&scope, false, vec![(shard, ())], (), move |view, (), ()| {
                match write {
                    Some(block) => view.set_block(pos, block),
                    None => view.block(pos),
                };
            });
            (
                w.pending_change_count() - before.0,
                w.chunks_generated_this_tick() - before.1,
            )
        };
        check(&mut w, true, "an owned phase that writes", |w| {
            assert_eq!(owned(w, inside.offset(0, 5, 0), Some(stone)), (1, 0));
        });
        // ... and a read that generates (nothing written).
        let pos = unloaded();
        check(&mut w, true, "an owned phase that only generates", |w| {
            assert_eq!(owned(w, pos, None), (0, 1));
        });

        // What changes no block value leaves the epoch alone — above all
        // the store hand-offs of both shard phases, which happen every
        // tick of a sharded server.
        check(&mut w, false, "a same-value write", |w| {
            w.set_block(inside, stone);
            w.set_block_silent(inside, stone);
        });
        check(&mut w, false, "reads of loaded chunks", |w| {
            let _ = (
                w.block(inside),
                w.column_top(5, 5),
                w.column_gap(5, 5),
                w.block_if_loaded(inside),
            );
            assert_eq!(w.ensure_area(ChunkPos::new(0, 0), 3), 0);
        });
        check(&mut w, false, "an owned phase that changes nothing", |w| {
            assert_eq!(owned(w, inside, None), (0, 0));
            assert_eq!(owned(w, inside, Some(stone)), (0, 0));
        });
        check(&mut w, false, "a frozen phase", |w| {
            let scope = PoolScope::scoped(1);
            w.run_frozen_phase(&scope, vec![()], (), |mut frozen, (), ()| {
                let _ = frozen.block(BlockPos::new(5, 70, 5));
                let _ = frozen.block(BlockPos::new(9_000, 70, 9_000));
            });
        });
        check(&mut w, false, "reshard", |w| {
            w.reshard(ShardMap::stripes(3))
        });
        check(
            &mut w,
            false,
            "compact_chunk_storage",
            World::compact_chunk_storage,
        );
    }

    /// Spreads cache keys across far-apart, unloaded chunks so the
    /// structural validity check (which only consults loaded chunks) is
    /// trivially clean and tests observe pure eviction behaviour.
    fn far_pos(i: i32) -> BlockPos {
        BlockPos::new(i * 1000, 60, -i * 1000)
    }

    #[test]
    fn relight_cache_hit_rate_survives_cap_pressure() {
        let mut w = world();
        w.set_relight_cache_cap(8);
        w.begin_relight_pass();
        for i in 0..8 {
            w.insert_relight(far_pos(i), i as u32);
        }
        for i in 0..8 {
            assert_eq!(w.cached_relight(far_pos(i)), Some(i as u32));
        }
        // Crossing the cap evicts exactly the oldest entry; the wholesale
        // clear this replaces would have dropped all eight.
        w.insert_relight(far_pos(8), 8);
        assert_eq!(w.cached_relight(far_pos(0)), None, "oldest evicted");
        for i in 1..=8 {
            assert_eq!(
                w.cached_relight(far_pos(i)),
                Some(i as u32),
                "entry {i} lost under cap pressure"
            );
        }
        w.end_relight_pass();
    }

    #[test]
    fn relight_cache_update_keeps_first_insertion_order() {
        let mut w = world();
        w.set_relight_cache_cap(2);
        w.begin_relight_pass();
        w.insert_relight(far_pos(1), 10);
        w.insert_relight(far_pos(2), 20);
        // Re-memoizing an existing key updates in place (no queue growth,
        // no duplicate): FIFO order stays first-insertion, so the next
        // insert at cap still evicts key 1.
        w.insert_relight(far_pos(1), 11);
        assert_eq!(w.cached_relight(far_pos(1)), Some(11));
        w.insert_relight(far_pos(3), 30);
        assert_eq!(w.cached_relight(far_pos(1)), None);
        assert_eq!(w.cached_relight(far_pos(2)), Some(20));
        assert_eq!(w.cached_relight(far_pos(3)), Some(30));
        // The 1:1 map<->queue invariant holds through further churn: each
        // insert evicts exactly one entry, never more.
        w.insert_relight(far_pos(4), 40);
        assert_eq!(w.cached_relight(far_pos(2)), None);
        assert_eq!(w.cached_relight(far_pos(3)), Some(30));
        assert_eq!(w.cached_relight(far_pos(4)), Some(40));
        w.end_relight_pass();
    }

    #[test]
    fn relight_cache_misses_after_overlapping_generation() {
        let mut w = world();
        let pos = BlockPos::new(8, 60, 8);
        w.begin_relight_pass();
        w.insert_relight(pos, 42);
        assert_eq!(w.cached_relight(pos), Some(42));
        // Generating the chunk under the cached window leaves its freshly
        // filled columns light-dirty, so the entry must structurally miss
        // rather than serve a count computed against an air window.
        w.ensure_chunk(pos.chunk());
        assert_eq!(
            w.cached_relight(pos),
            None,
            "stale entry survived generation under its window"
        );
        w.end_relight_pass();
    }

    #[test]
    fn chunk_iteration_is_insertion_ordered() {
        let mut w = world();
        w.ensure_chunk(ChunkPos::new(2, 2));
        w.ensure_chunk(ChunkPos::new(-1, 0));
        w.ensure_chunk(ChunkPos::new(0, 5));
        let order: Vec<ChunkPos> = w.iter_chunks().map(Chunk::pos).collect();
        assert_eq!(
            order,
            vec![
                ChunkPos::new(2, 2),
                ChunkPos::new(-1, 0),
                ChunkPos::new(0, 5)
            ]
        );
    }
}
