//! Spatial chunk sharding: the partitioning layer of the sharded tick
//! pipeline.
//!
//! Folia-style MLG servers split the loaded world into independently ticked
//! regions. This module provides the deterministic partitioning primitives
//! the rest of the workspace builds on:
//!
//! * [`ShardMap`] — a pure function from chunk coordinates to shard index,
//!   in one of two modes:
//!   - **static stripes** ([`ShardMap::stripes`]): chunks are grouped into
//!     contiguous stripes of `SHARD_STRIPE_CHUNKS` columns along the x
//!     axis, assigned to shards round-robin;
//!   - **adaptive 2D regions** (`ShardMap::regions_over`): a region
//!     quadtree over the chunk plane whose leaves are the shards, in
//!     canonical pre-order (NW, NE, SW, SE) leaf order. Leaves are square,
//!     at least `MIN_REGION_CHUNKS` chunks on a side, and can be split
//!     and merged between ticks by [`ShardMap::rebalanced`] — a **pure
//!     function of the previous tick's merged [`ShardLoadReport`]** with a
//!     hysteresis rule: the busiest splittable leaf is split when its load
//!     exceeds 2× the mean shard load, and the coldest all-leaf quad is
//!     merged back when its combined load falls below ½× the mean. The gap
//!     between the two thresholds prevents oscillation, and because the
//!     decision depends only on (map, report) — never on scheduling — the
//!     partition evolves identically at any worker-thread count.
//!
//!   In both modes a position is *interior* to its shard when every chunk
//!   in its 3×3 chunk neighbourhood maps to the same shard: every terrain
//!   rule in this crate reads and writes within 8 blocks of the update
//!   position it is dispatched for (cascades travel through queued updates,
//!   not in-dispatch traversal), so interior updates can be processed by
//!   concurrent shard workers without ever touching another shard's chunks.
//!   Boundary updates are escalated to a serial merge phase.
//! * [`TickPipeline`] — the execution configuration of one server: the
//!   current shard partition, whether it rebalances, and the worker thread
//!   count. Shard count and partition shape are part of the *simulated
//!   architecture* (they change scheduling and therefore the modeled
//!   execution, like Folia's region count does); thread count is pure
//!   execution infrastructure and never changes results: the sharded tick
//!   is bit-identical at any thread count by construction.
//! * [`BlockReader`] / [`TerrainView`] — the world-access traits the
//!   simulation rules are generic over, so the same rule code runs against
//!   the full [`World`], a read-only [`FrozenChunks`] view, or a mutable
//!   single-shard [`ShardWorld`] view during a parallel phase.
//! * [`World::run_owned_phase`] / [`World::run_frozen_phase`] — the two
//!   shard-phase protocols: the only code that moves chunk stores out of
//!   the world, hands them to workers and merges the results back. Every
//!   parallel phase of the tick path is a call to one of them, on the
//!   scope [`TickPipeline::scope`] hands out (the pipeline's persistent
//!   [`TickWorkerPool`](crate::pool), the one fan-out implementation).
//!
//! # Determinism contract
//!
//! The three rules that make the whole tick path **bit-identical at any
//! worker-thread count** — pure partitioning, canonical (ascending shard)
//! merge order, serial-tail escalation — and the two protocols that
//! implement the second are written down once, in `docs/ARCHITECTURE.md`
//! ("The determinism contract", "The two shard-phase protocols"). This
//! module owns rules 1 and 2: [`ShardMap`] is the pure partition and
//! [`World::run_owned_phase`] is the merge order; rule 3, deciding what
//! may enter a parallel phase at all, is each stage's routing step.

use std::collections::{HashSet, VecDeque};

use serde::{Deserialize, Serialize};

use std::sync::Arc;

use crate::block::Block;
use crate::chunk::{Chunk, WORLD_HEIGHT};
use crate::generation::ChunkGenerator;
use crate::pool::{PoolScope, TickWorkerPool};
use crate::pos::{BlockPos, ChunkPos, PosHashBuilder};
use crate::update::BlockUpdate;
use crate::world::{BlockChange, ShardStore, World, WorldSnapshot};

/// Width of one shard stripe, in chunks, along the x axis.
///
/// Wider stripes mean a larger interior fraction (more parallel work) but
/// fewer distinct stripes to spread across shards; 4 chunks (64 blocks)
/// keeps both reasonable for the workload worlds of the paper.
const SHARD_STRIPE_CHUNKS: i32 = 4;

/// Minimum side length of an adaptive quadtree region, in chunks.
///
/// A region narrower than this would have no interior chunks at all (the
/// 3×3 neighbourhood test fails everywhere), turning its entire workload
/// into serial boundary escalation; splits stop above this floor.
const MIN_REGION_CHUNKS: i32 = 4;

/// Split threshold of the rebalancing hysteresis: a leaf is split when its
/// load exceeds this multiple of the mean shard load.
const SPLIT_LOAD_FACTOR: u64 = 2;

/// Merge threshold of the rebalancing hysteresis: an all-leaf quad is
/// merged when its combined load falls below the mean shard load divided by
/// this factor. Together with [`SPLIT_LOAD_FACTOR`] this leaves a wide dead
/// band (½× … 2× mean) so the partition cannot oscillate between ticks.
const MERGE_LOAD_DIVISOR: u64 = 2;

/// One node of the region quadtree: a square of chunks, either a leaf (one
/// shard) or split into four equal quadrants. `leaves` caches the subtree's
/// leaf count so shard lookup is O(depth).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct QuadNode {
    x0: i32,
    z0: i32,
    size: i32,
    leaves: u32,
    children: Option<Box<[QuadNode; 4]>>,
}

impl QuadNode {
    fn leaf(x0: i32, z0: i32, size: i32) -> Self {
        QuadNode {
            x0,
            z0,
            size,
            leaves: 1,
            children: None,
        }
    }

    fn contains(&self, cx: i32, cz: i32) -> bool {
        cx >= self.x0 && cx < self.x0 + self.size && cz >= self.z0 && cz < self.z0 + self.size
    }

    /// Leaf index (in canonical pre-order) of the leaf containing the given
    /// chunk coordinates, which must lie inside this node.
    fn leaf_index_of(&self, cx: i32, cz: i32) -> usize {
        let mut node = self;
        let mut index = 0usize;
        'descend: while let Some(children) = node.children.as_deref() {
            for child in children {
                if child.contains(cx, cz) {
                    node = child;
                    continue 'descend;
                }
                index += child.leaves as usize;
            }
            unreachable!("quadrants tile their parent");
        }
        index
    }

    /// Appends every leaf square as `(x0, z0, size)`, in canonical order.
    fn collect_leaves(&self, out: &mut Vec<(i32, i32, i32)>) {
        match self.children.as_deref() {
            None => out.push((self.x0, self.z0, self.size)),
            Some(children) => {
                for child in children {
                    child.collect_leaves(out);
                }
            }
        }
    }

    /// Appends the starting leaf index of every internal node whose four
    /// children are all leaves (the merge candidates), in canonical order.
    fn collect_merge_starts(&self, base: u32, out: &mut Vec<u32>) {
        if let Some(children) = self.children.as_deref() {
            if children.iter().all(|c| c.children.is_none()) {
                out.push(base);
            } else {
                let mut b = base;
                for child in children {
                    child.collect_merge_starts(b, out);
                    b += child.leaves;
                }
            }
        }
    }

    /// Splits the leaf at `index` (subtree-relative) into four quadrants.
    /// Returns `false` when the leaf is already at the minimum size.
    fn split_leaf(&mut self, index: u32) -> bool {
        if self.children.is_none() {
            debug_assert_eq!(index, 0, "leaf index exhausted at a leaf");
            if self.size < 2 * MIN_REGION_CHUNKS {
                return false;
            }
            let h = self.size / 2;
            self.children = Some(Box::new([
                QuadNode::leaf(self.x0, self.z0, h),
                QuadNode::leaf(self.x0 + h, self.z0, h),
                QuadNode::leaf(self.x0, self.z0 + h, h),
                QuadNode::leaf(self.x0 + h, self.z0 + h, h),
            ]));
            self.leaves = 4;
            return true;
        }
        let mut base = index;
        let mut split = false;
        for child in self.children.as_deref_mut().expect("checked above") {
            if base < child.leaves {
                split = child.split_leaf(base);
                break;
            }
            base -= child.leaves;
        }
        if split {
            self.recount();
        }
        split
    }

    /// Merges the all-leaf quad whose first leaf has index `index`
    /// (subtree-relative) back into a single leaf.
    fn merge_quad(&mut self, index: u32) -> bool {
        let is_this_quad = match self.children.as_deref() {
            None => return false,
            Some(children) => index == 0 && children.iter().all(|c| c.children.is_none()),
        };
        if is_this_quad {
            self.children = None;
            self.leaves = 1;
            return true;
        }
        let mut base = index;
        let mut merged = false;
        for child in self.children.as_deref_mut().expect("checked above") {
            if base < child.leaves {
                merged = child.merge_quad(base);
                break;
            }
            base -= child.leaves;
        }
        if merged {
            self.recount();
        }
        merged
    }

    fn recount(&mut self) {
        if let Some(children) = self.children.as_deref() {
            self.leaves = children.iter().map(|c| c.leaves).sum();
        }
    }
}

/// The two partition modes a [`ShardMap`] can be in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Partition {
    /// Static round-robin x-stripes.
    Stripes { count: u32 },
    /// Adaptive 2D quadtree regions.
    Regions { root: QuadNode },
}

/// Per-shard load observed during one tick, used to drive rebalancing.
///
/// The server's cost model prices the pipeline's *merged* per-shard
/// counters (which are bit-identical at any thread count) into one load per
/// shard, so the rebalancer sees the same numbers regardless of execution
/// parallelism. This crate only counts; it attaches no weights.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardLoadReport {
    loads: Vec<u64>,
}

impl ShardLoadReport {
    /// Wraps raw per-shard load values (index = shard index).
    #[must_use]
    pub fn new(loads: Vec<u64>) -> Self {
        ShardLoadReport { loads }
    }

    /// The per-shard loads (index = shard index).
    #[must_use]
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }
}

/// Deterministic assignment of chunks to spatial shards.
///
/// The mapping is a pure function of the chunk coordinates and the map's
/// own structure — independent of load order, thread count and execution
/// history — which is the foundation of the pipeline's bit-identical
/// parallelism. Static stripe maps never change; adaptive region maps
/// evolve only through [`ShardMap::rebalanced`], itself a pure function of
/// the previous tick's merged load report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    partition: Partition,
}

impl ShardMap {
    /// Creates a static stripe map over `count` shards (clamped to at least
    /// 1).
    #[must_use]
    pub fn stripes(count: u32) -> Self {
        ShardMap {
            partition: Partition::Stripes {
                count: count.max(1),
            },
        }
    }

    /// Creates a single-region adaptive map whose root square covers the
    /// given inclusive chunk bounds (or a default 16×16-chunk square around
    /// the origin when `bounds` is `None` — e.g. for a world with no loaded
    /// chunks yet). Chunks outside the root are clamped onto its edge
    /// shards, so the map is total over the chunk plane.
    #[must_use]
    fn regions_over(bounds: Option<(ChunkPos, ChunkPos)>) -> Self {
        let (min, max) = bounds.unwrap_or((ChunkPos::new(-8, -8), ChunkPos::new(7, 7)));
        let extent = (max.x.saturating_sub(min.x) + 1)
            .max(max.z.saturating_sub(min.z) + 1)
            .max(2 * MIN_REGION_CHUNKS);
        // Next power of two, capped so x0 + size cannot overflow for any
        // realistic world (2^20 chunks = 16 Mblocks across).
        let size = (extent as u32).next_power_of_two().min(1 << 20) as i32;
        ShardMap {
            partition: Partition::Regions {
                root: QuadNode::leaf(min.x, min.z, size),
            },
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        match &self.partition {
            Partition::Stripes { count } => *count as usize,
            Partition::Regions { root } => root.leaves as usize,
        }
    }

    /// The shard owning the given chunk.
    #[must_use]
    pub fn shard_of_chunk(&self, chunk: ChunkPos) -> usize {
        match &self.partition {
            // Every serial flavour: one shard owns the plane, no division.
            Partition::Stripes { count: 1 } => 0,
            Partition::Stripes { count } => chunk
                .x
                .div_euclid(SHARD_STRIPE_CHUNKS)
                .rem_euclid(*count as i32) as usize,
            Partition::Regions { root } => {
                let cx = chunk.x.clamp(root.x0, root.x0 + root.size - 1);
                let cz = chunk.z.clamp(root.z0, root.z0 + root.size - 1);
                root.leaf_index_of(cx, cz)
            }
        }
    }

    /// The shard owning the chunk containing the given block.
    #[must_use]
    pub fn shard_of_block(&self, pos: BlockPos) -> usize {
        self.shard_of_chunk(pos.chunk())
    }

    /// Returns `Some(shard)` when `chunk` *and its full 3×3 chunk
    /// neighbourhood* belong to the same shard — the condition under which
    /// a terrain rule dispatched inside `chunk` is guaranteed never to read
    /// or write another shard's chunks (rule footprints are bounded by 8
    /// blocks; see the module docs). Returns `None` for boundary chunks,
    /// whose updates must be processed in the serial merge phase.
    #[must_use]
    pub fn interior_shard(&self, chunk: ChunkPos) -> Option<usize> {
        let owner = self.shard_of_chunk(chunk);
        for dx in -1..=1 {
            for dz in -1..=1 {
                if self.shard_of_chunk(ChunkPos::new(chunk.x + dx, chunk.z + dz)) != owner {
                    return None;
                }
            }
        }
        Some(owner)
    }

    /// [`ShardMap::interior_shard`] for the chunk containing a block.
    #[must_use]
    pub fn interior_shard_of_block(&self, pos: BlockPos) -> Option<usize> {
        self.interior_shard(pos.chunk())
    }

    /// One rebalancing step: a **pure function** of `(self, report)`.
    ///
    /// Returns the next partition when the hysteresis rule fires, `None`
    /// when the partition is already balanced (or the map is a static
    /// stripe map, the report is empty/stale, or no eligible candidate
    /// exists). At most one operation happens per step, preferring splits:
    ///
    /// 1. **Split** the busiest leaf whose load exceeds
    ///    `SPLIT_LOAD_FACTOR` (2)× the mean shard load (a lone leaf holds
    ///    the whole load by definition and splits under any load at all),
    ///    provided its children would stay at least `MIN_REGION_CHUNKS`
    ///    wide and the leaf count stays within `max_shards`.
    /// 2. Otherwise **merge** the coldest quad of four sibling leaves whose
    ///    combined load is below the mean divided by `MERGE_LOAD_DIVISOR`
    ///    (2).
    ///
    /// Ties break toward the lowest shard index, so the step is fully
    /// deterministic.
    #[must_use]
    // detlint: allow(pub-without-caller) -- tests/shard_properties.rs property-tests the step as a pure function
    pub fn rebalanced(&self, report: &ShardLoadReport, max_shards: u32) -> Option<ShardMap> {
        let Partition::Regions { root } = &self.partition else {
            return None;
        };
        let loads = report.loads();
        if loads.len() != self.count() {
            return None; // stale report from a different partition
        }
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return None;
        }
        let count = self.count() as u64;

        // Split phase. A lone leaf carries the whole load by definition
        // (its share can never exceed the mean), so any load at all splits
        // it; from two shards up the hysteresis threshold applies.
        if self.count() as u32 + 3 <= max_shards {
            let mut rects = Vec::with_capacity(self.count());
            root.collect_leaves(&mut rects);
            let mut candidate: Option<(u32, u64)> = None;
            for (index, (_, _, size)) in rects.iter().enumerate() {
                if *size < 2 * MIN_REGION_CHUNKS {
                    continue;
                }
                let load = loads[index];
                let hot = count == 1 || load * count > SPLIT_LOAD_FACTOR * total;
                if hot && candidate.is_none_or(|(_, best)| load > best) {
                    candidate = Some((index as u32, load));
                }
            }
            if let Some((index, _)) = candidate {
                let mut next = root.clone();
                if next.split_leaf(index) {
                    return Some(ShardMap {
                        partition: Partition::Regions { root: next },
                    });
                }
            }
        }

        // Merge phase.
        let mut starts = Vec::new();
        root.collect_merge_starts(0, &mut starts);
        let mut candidate: Option<(u32, u64)> = None;
        for start in starts {
            let quad: u64 = loads[start as usize..start as usize + 4].iter().sum();
            if quad * count * MERGE_LOAD_DIVISOR < total
                && candidate.is_none_or(|(_, best)| quad < best)
            {
                candidate = Some((start, quad));
            }
        }
        if let Some((start, _)) = candidate {
            let mut next = root.clone();
            if next.merge_quad(start) {
                return Some(ShardMap {
                    partition: Partition::Regions { root: next },
                });
            }
        }
        None
    }

    /// Splits the largest splittable leaf (ties toward the lowest index);
    /// used to pre-split an adaptive map toward its target shard count
    /// before any load has been observed.
    fn split_largest_leaf(&self) -> Option<ShardMap> {
        let Partition::Regions { root } = &self.partition else {
            return None;
        };
        let mut rects = Vec::with_capacity(self.count());
        root.collect_leaves(&mut rects);
        let (index, _) = rects
            .iter()
            .enumerate()
            .filter(|(_, (_, _, size))| *size >= 2 * MIN_REGION_CHUNKS)
            .max_by(|(ai, (_, _, a)), (bi, (_, _, b))| a.cmp(b).then(bi.cmp(ai)))?;
        let mut next = root.clone();
        next.split_leaf(index as u32).then_some(ShardMap {
            partition: Partition::Regions { root: next },
        })
    }
}

/// Execution configuration of the sharded tick pipeline: the current shard
/// partition of the world, whether it rebalances between ticks, and the
/// worker pool that fans the per-shard work out.
#[derive(Debug, Clone)]
pub struct TickPipeline {
    rebalance: bool,
    max_shards: u32,
    map: ShardMap,
    /// The pipeline's persistent worker pool, sized by the `threads` it was
    /// built with (at 1 thread it spawns no workers). Execution
    /// infrastructure only: results are bit-identical at any size. Clones
    /// share the pool.
    pool: Arc<TickWorkerPool>,
}

impl TickPipeline {
    /// Creates a static stripe pipeline (both values clamped to at least 1).
    #[must_use]
    pub fn new(shards: u32, threads: u32) -> Self {
        let shards = shards.max(1);
        TickPipeline {
            rebalance: false,
            max_shards: shards,
            map: ShardMap::stripes(shards),
            pool: Arc::new(TickWorkerPool::new(threads)),
        }
    }

    /// The classic single-shard, single-thread game loop.
    #[must_use]
    pub fn serial() -> Self {
        TickPipeline::new(1, 1)
    }

    /// Creates an adaptive pipeline whose quadtree root covers the given
    /// chunk bounds (see `ShardMap::regions_over`), pre-split toward
    /// `target_shards` leaves and allowed to grow to `2 × target_shards`
    /// leaves under load (the extra headroom is what lets hotspot regions
    /// split without starving the rest of the map of shards).
    ///
    /// A `target_shards` of 1 is degenerate: a split needs headroom for 3
    /// extra leaves, which a cap of 2 never grants, so the partition stays
    /// frozen at one region (serial-equivalent execution through the
    /// sharded path). Callers wanting an adaptive partition should pass a
    /// target of at least 2 — the server layer only builds adaptive
    /// pipelines for profiles with `tick_shards > 1`.
    #[must_use]
    pub fn adaptive(
        bounds: Option<(ChunkPos, ChunkPos)>,
        target_shards: u32,
        threads: u32,
    ) -> Self {
        let target = target_shards.max(1);
        let mut map = ShardMap::regions_over(bounds);
        while (map.count() as u32) + 3 <= target {
            match map.split_largest_leaf() {
                Some(next) => map = next,
                None => break,
            }
        }
        TickPipeline {
            rebalance: true,
            max_shards: target.saturating_mul(2),
            map,
            pool: Arc::new(TickWorkerPool::new(threads)),
        }
    }

    /// Number of spatial shards in the current partition. For adaptive
    /// pipelines this changes as the partition rebalances, and it is what
    /// the compute model reports as the tick's parallel width.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.map.count() as u32
    }

    /// Number of executors (worker threads plus the caller) the pool fans
    /// shards over.
    #[must_use]
    pub fn threads(&self) -> u32 {
        self.pool.executors()
    }

    /// Replaces the pipeline's worker pool with `pool`; the old one is
    /// shut down once no clone shares it.
    pub fn attach_pool(&mut self, pool: Arc<TickWorkerPool>) {
        self.pool = pool;
    }

    /// The execution scope for this tick's parallel phases: the pipeline's
    /// pool, which runs inline at 1 thread.
    #[must_use]
    pub fn scope(&self) -> PoolScope<'_> {
        self.pool.scope()
    }

    /// Returns `true` when the sharded tick path should be used at all:
    /// more than one shard, or an adaptive partition that may split later.
    #[must_use]
    pub fn is_sharded(&self) -> bool {
        self.map.count() > 1 || self.rebalance
    }

    /// The shard map this pipeline currently partitions the world with.
    #[must_use]
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Applies one tick's merged load report: runs one
    /// [`ShardMap::rebalanced`] step and adopts the result. Returns `true`
    /// when the partition changed. A no-op (returning `false`) for
    /// non-rebalancing pipelines.
    pub fn apply_load_report(&mut self, report: &ShardLoadReport) -> bool {
        if !self.rebalance {
            return false;
        }
        match self.map.rebalanced(report, self.max_shards) {
            Some(next) => {
                self.map = next;
                true
            }
            None => false,
        }
    }
}

/// Read access to terrain blocks.
///
/// `&mut self` because the canonical implementation ([`World`]) lazily
/// generates missing chunks on read. Snapshot implementations
/// ([`FrozenChunks`]) simply read unloaded positions as air.
pub trait BlockReader {
    /// Returns the block at `pos`.
    fn block(&mut self, pos: BlockPos) -> Block;

    /// Returns the `y` of the highest non-air block in column `(x, z)` from
    /// a maintained heightmap: `Some(-1)` when the column is known to be all
    /// air, or `None` when the reader has no cheap answer (callers fall back
    /// to a full column scan).
    ///
    /// Implementations must agree with [`BlockReader::block`]: every
    /// position strictly above the returned top reads as air, and the
    /// implementation performs the same chunk generation `block` would for
    /// that column (lazily generating readers generate, frozen readers
    /// don't), so consulting the heightmap instead of scanning is
    /// observationally identical.
    fn column_top(&mut self, _x: i32, _z: i32) -> Option<i32> {
        None
    }

    /// A version of everything this reader answers, for callers that keep
    /// an answer computed from terrain (a mob's route) instead of computing
    /// it again: two reads that report the same `Some` value see the same
    /// block at every position, and a lazily generating reader has nothing
    /// left to generate that was read under that value before. `None` — the
    /// default — promises nothing, and nothing may be kept.
    ///
    /// The value names the *kind* of reader as well as the terrain, because
    /// [`World`] and [`FrozenChunks`] disagree about unloaded chunks
    /// (generated against air): the lowest bit is clear for the one and set
    /// for the other above the same [`World::terrain_epoch`], so an answer
    /// obtained through one never serves the other.
    fn terrain_epoch(&self) -> Option<u64> {
        None
    }
}

/// The world-access surface the terrain-simulation rules are written
/// against: block reads and writes plus delayed-update scheduling.
///
/// Implemented by [`World`] (the serial tick and every serial tail) and by
/// the per-shard [`ShardWorld`] view, so one copy of the rule code serves
/// both.
pub trait TerrainView: BlockReader {
    /// Returns the block at `pos` without generating missing chunks.
    fn block_if_loaded(&self, pos: BlockPos) -> Block;

    /// Sets the block at `pos`, recording the change and enqueueing
    /// neighbour updates. Returns the previous block.
    fn set_block(&mut self, pos: BlockPos, block: Block) -> Block;

    /// Schedules a block update for `pos` to run `delay_ticks` from now.
    fn schedule_tick(&mut self, pos: BlockPos, delay_ticks: u64);

    /// The current game tick number.
    fn current_tick(&self) -> u64;
}

impl BlockReader for World {
    fn block(&mut self, pos: BlockPos) -> Block {
        World::block(self, pos)
    }

    fn column_top(&mut self, x: i32, z: i32) -> Option<i32> {
        World::column_top(self, x, z)
    }

    fn terrain_epoch(&self) -> Option<u64> {
        Some(World::terrain_epoch(self) << 1)
    }
}

impl TerrainView for World {
    fn block_if_loaded(&self, pos: BlockPos) -> Block {
        World::block_if_loaded(self, pos)
    }

    fn set_block(&mut self, pos: BlockPos, block: Block) -> Block {
        World::set_block(self, pos, block)
    }

    fn schedule_tick(&mut self, pos: BlockPos, delay_ticks: u64) {
        World::schedule_tick(self, pos, delay_ticks);
    }

    fn current_tick(&self) -> u64 {
        World::current_tick(self)
    }
}

/// A read-only view of every chunk of the world during a frozen phase
/// ([`World::run_frozen_phase`]).
///
/// Unloaded positions read as air instead of being generated, so any number
/// of views (`Clone`) can read the same snapshot from worker threads. Each
/// view remembers the last chunk position it resolved — loaded or not —
/// because consecutive reads of an entity or a light flood stay inside one
/// chunk column for long runs; nothing moves while the snapshot is borrowed,
/// so the remembered answer cannot go stale.
#[derive(Debug, Clone)]
pub struct FrozenChunks<'a> {
    snapshot: &'a WorldSnapshot,
    cursor: Option<(ChunkPos, Option<&'a Chunk>)>,
}

impl<'a> FrozenChunks<'a> {
    fn new(snapshot: &'a WorldSnapshot) -> Self {
        FrozenChunks {
            snapshot,
            cursor: None,
        }
    }

    fn chunk(&mut self, pos: ChunkPos) -> Option<&'a Chunk> {
        match self.cursor {
            Some((at, chunk)) if at == pos => chunk,
            _ => {
                let chunk = self.snapshot.chunk_if_loaded(pos);
                self.cursor = Some((pos, chunk));
                chunk
            }
        }
    }
}

impl BlockReader for FrozenChunks<'_> {
    fn block(&mut self, pos: BlockPos) -> Block {
        if pos.y < 0 || pos.y >= WORLD_HEIGHT as i32 {
            return Block::AIR;
        }
        let (lx, y, lz) = pos.local();
        self.chunk(pos.chunk())
            .map_or(Block::AIR, |c| c.block(lx, y, lz))
    }

    fn column_top(&mut self, x: i32, z: i32) -> Option<i32> {
        let probe = BlockPos::new(x, 0, z);
        let (lx, _, lz) = probe.local();
        Some(
            self.chunk(probe.chunk())
                .and_then(|c| c.height_at(lx, lz))
                .unwrap_or(-1),
        )
    }

    fn terrain_epoch(&self) -> Option<u64> {
        Some(self.snapshot.terrain_epoch() << 1 | 1)
    }
}

/// One shard's chunks while they are out of the world, plus every side
/// effect buffered against them: what travels to a worker and back in an
/// owned phase.
#[derive(Default)]
struct OwnedShard {
    store: ShardStore,
    /// Chunks lazily generated by the view during the phase.
    chunks_generated: u32,
    /// Block changes recorded by the view, in application order.
    changes: Vec<BlockChange>,
    /// Neighbour updates that left the shard interior (or all updates, when
    /// `defer_local_pushes` is set), in emission order.
    outbound: Vec<BlockPos>,
    /// Scheduled ticks requested by rules, as (position, absolute due tick).
    scheduled: Vec<(BlockPos, u64)>,
}

/// A mutable view over exactly one shard's chunks, handed to shard workers
/// by [`World::run_owned_phase`].
///
/// The view owns the shard's [`ShardStore`] for the duration of the phase
/// and buffers every side effect that crosses the shard boundary or must be
/// ordered globally — block changes, outbound neighbour updates, scheduled
/// ticks — for the phase's merge to apply in canonical shard order.
/// Reads and writes outside the shard are a modeling-invariant violation
/// (interior classification guarantees rules never reach that far) and
/// panic loudly rather than silently corrupting determinism.
pub struct ShardWorld<'a> {
    shard: usize,
    map: &'a ShardMap,
    generator: &'a dyn ChunkGenerator,
    tick: u64,
    /// When set, even in-shard interior neighbour pushes are buffered into
    /// `outbound` instead of the local queue — used by phases whose
    /// cascades must reach the world's global queue (random ticks, whose
    /// cascades carry over to the *next* tick; the player stage, which
    /// leaves the cascade to the terrain stage).
    defer_local_pushes: bool,
    owned: OwnedShard,
    queue: VecDeque<BlockUpdate>,
    queued: HashSet<BlockPos, PosHashBuilder>,
}

impl ShardWorld<'_> {
    /// Seeds the local work queue with an update routed to this shard
    /// (coalescing duplicates, like the global update queue does).
    pub(crate) fn push_local(&mut self, update: BlockUpdate) {
        if self.queued.insert(update.pos) {
            self.queue.push_back(update);
        }
    }

    /// Pops the next local update, if any.
    pub(crate) fn pop_local(&mut self) -> Option<BlockUpdate> {
        let update = self.queue.pop_front()?;
        self.queued.remove(&update.pos);
        Some(update)
    }

    /// Drains whatever is left in the local queue (budget exhaustion).
    pub(crate) fn drain_local(&mut self) -> Vec<BlockUpdate> {
        self.queued.clear();
        self.queue.drain(..).collect()
    }

    fn route_push(&mut self, pos: BlockPos) {
        if !self.defer_local_pushes && self.map.interior_shard(pos.chunk()) == Some(self.shard) {
            self.push_local(BlockUpdate::neighbor(pos));
        } else {
            self.owned.outbound.push(pos);
        }
    }

    fn owned_chunk_mut(&mut self, chunk_pos: ChunkPos) -> &mut Chunk {
        assert_eq!(
            self.map.shard_of_chunk(chunk_pos),
            self.shard,
            "shard {} touched foreign chunk {chunk_pos} — interior classification is broken",
            self.shard
        );
        let owned = &mut self.owned;
        if !owned.store.contains(chunk_pos) {
            owned.store.insert(self.generator.generate(chunk_pos));
            owned.chunks_generated += 1;
        }
        owned.store.get_mut(chunk_pos).expect("chunk just ensured")
    }
}

impl BlockReader for ShardWorld<'_> {
    fn block(&mut self, pos: BlockPos) -> Block {
        if pos.y < 0 || pos.y >= WORLD_HEIGHT as i32 {
            return Block::AIR;
        }
        let (lx, y, lz) = pos.local();
        self.owned_chunk_mut(pos.chunk()).block(lx, y, lz)
    }

    fn column_top(&mut self, x: i32, z: i32) -> Option<i32> {
        let probe = BlockPos::new(x, 0, z);
        let chunk_pos = probe.chunk();
        // Only in-shard columns have a cheap answer; a foreign-column scan
        // panics in `block`, which is where the violation belongs.
        if self.map.shard_of_chunk(chunk_pos) != self.shard {
            return None;
        }
        let (lx, _, lz) = probe.local();
        Some(
            self.owned_chunk_mut(chunk_pos)
                .height_at(lx, lz)
                .unwrap_or(-1),
        )
    }
}

impl TerrainView for ShardWorld<'_> {
    fn block_if_loaded(&self, pos: BlockPos) -> Block {
        if pos.y < 0 || pos.y >= WORLD_HEIGHT as i32 {
            return Block::AIR;
        }
        let (lx, y, lz) = pos.local();
        self.owned
            .store
            .get(pos.chunk())
            .map_or(Block::AIR, |c| c.block(lx, y, lz))
    }

    fn set_block(&mut self, pos: BlockPos, block: Block) -> Block {
        if pos.y < 0 || pos.y >= WORLD_HEIGHT as i32 {
            return Block::AIR;
        }
        let (lx, y, lz) = pos.local();
        let old = self
            .owned_chunk_mut(pos.chunk())
            .set_block(lx, y, lz, block);
        if old != block {
            self.owned.changes.push(BlockChange {
                pos,
                old,
                new: block,
            });
            for n in pos.neighbors() {
                self.route_push(n);
            }
            self.route_push(pos);
        }
        old
    }

    fn schedule_tick(&mut self, pos: BlockPos, delay_ticks: u64) {
        self.owned
            .scheduled
            .push((pos, self.tick + delay_ticks.max(1)));
    }

    fn current_tick(&self) -> u64 {
        self.tick
    }
}

/// One shard's job in an owned phase: the caller's payload next to the
/// shard's chunks.
struct OwnedShardJob<P> {
    shard: usize,
    payload: P,
    owned: OwnedShard,
}

/// What every worker of an owned phase reads: the world-side inputs of a
/// [`ShardWorld`] (owned, because pool jobs cannot borrow the world) next
/// to the caller's own context.
struct OwnedPhaseCtx<C> {
    map: Arc<ShardMap>,
    generator: Arc<dyn ChunkGenerator>,
    tick: u64,
    defer_local_pushes: bool,
    caller: C,
}

/// The two shard-phase protocols: the only code that moves chunk stores
/// out of a [`World`] and back. See `docs/ARCHITECTURE.md`, "The two
/// shard-phase protocols".
impl World {
    /// Runs one **owned phase**: every shard listed in `work` leaves the
    /// world, `f` mutates it through a [`ShardWorld`] view on `scope`, and
    /// the buffered effects merge back in ascending shard order — chunk
    /// store, block changes, scheduled ticks, generated-chunk count, shard
    /// by shard. That order is the determinism contract; completion order
    /// never shows.
    ///
    /// `work` pairs a shard index with the caller's payload for it, in
    /// strictly ascending shard order; shards not listed stay in the world
    /// untouched. The phase is confined to `f`: it sees its own shard's
    /// view, its own payload and the shared `ctx`, nothing else. Returns
    /// `(shard, payload, outbound)` per listed shard, in the same order,
    /// plus `ctx`: `outbound` holds the neighbour updates that left the
    /// shard interior (with `defer_local_pushes`, all of them) in emission
    /// order, and routing them — the next cascade round, or
    /// [`World::push_neighbor_update`] — is the one decision left to the
    /// caller.
    ///
    /// # Panics
    ///
    /// Panics when `work` is not in strictly ascending shard order.
    /// Propagates a panic raised inside `f` (from a fanned-out job as
    /// `tick worker panicked: …`); the stores of the listed shards are
    /// lost with it, so the world must not be used afterwards.
    pub fn run_owned_phase<P, C, F>(
        &mut self,
        scope: &PoolScope<'_>,
        defer_local_pushes: bool,
        work: Vec<(usize, P)>,
        ctx: C,
        f: F,
    ) -> (Vec<(usize, P, Vec<BlockPos>)>, C)
    where
        P: Send + 'static,
        C: Send + Sync + 'static,
        F: Fn(&mut ShardWorld<'_>, &mut P, &C) + Send + Sync + 'static,
    {
        // A repeated shard would have its store taken twice and the first
        // copy overwritten on the way back.
        assert!(
            work.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "owned-phase work must list each shard once, in ascending order"
        );
        if work.is_empty() {
            return (Vec::new(), ctx);
        }
        let jobs: Vec<OwnedShardJob<P>> = work
            .into_iter()
            .map(|(shard, payload)| OwnedShardJob {
                shard,
                payload,
                owned: OwnedShard {
                    store: self.take_shard_store(shard),
                    ..OwnedShard::default()
                },
            })
            .collect();
        let phase = OwnedPhaseCtx {
            map: self.shard_map_arc(),
            generator: self.generator_arc(),
            tick: self.current_tick(),
            defer_local_pushes,
            caller: ctx,
        };
        let (jobs, phase) = scope.run_tasks_ctx(
            jobs,
            phase,
            move |_, job: &mut OwnedShardJob<P>, phase: &OwnedPhaseCtx<C>| {
                let mut view = ShardWorld {
                    shard: job.shard,
                    map: &phase.map,
                    generator: &*phase.generator,
                    tick: phase.tick,
                    defer_local_pushes: phase.defer_local_pushes,
                    owned: std::mem::take(&mut job.owned),
                    queue: VecDeque::new(),
                    queued: HashSet::default(),
                };
                f(&mut view, &mut job.payload, &phase.caller);
                job.owned = view.owned;
            },
        );
        let mut results = Vec::with_capacity(jobs.len());
        for job in jobs {
            let OwnedShard {
                store,
                chunks_generated,
                changes,
                outbound,
                scheduled,
            } = job.owned;
            self.put_shard_store(job.shard, store);
            // What the worker did to the shard's terrain, counted as the
            // serial path counts it: one per changed block, one per chunk.
            self.advance_terrain_epoch(changes.len() as u64 + u64::from(chunks_generated));
            self.append_changes(changes);
            for (pos, due) in scheduled {
                self.schedule_tick_at(pos, due);
            }
            self.note_chunks_generated(chunks_generated);
            results.push((job.shard, job.payload, outbound));
        }
        (results, phase.caller)
    }

    /// Runs one **frozen phase**: every chunk leaves the world, `f` reads
    /// them through a [`FrozenChunks`] view on `scope` — unloaded
    /// positions are air, nothing is generated, nothing is written — and
    /// the chunks are back in place when this returns. Returns the tasks
    /// in input order plus `ctx`.
    ///
    /// # Panics
    ///
    /// Propagates a panic raised inside `f`; the chunks are lost with it.
    pub fn run_frozen_phase<T, C, F>(
        &mut self,
        scope: &PoolScope<'_>,
        tasks: Vec<T>,
        ctx: C,
        f: F,
    ) -> (Vec<T>, C)
    where
        T: Send + 'static,
        C: Send + Sync + 'static,
        F: Fn(FrozenChunks<'_>, &mut T, &C) + Send + Sync + 'static,
    {
        let phase = (self.snapshot_chunks(), ctx);
        let (tasks, (snapshot, ctx)) = scope.run_tasks_ctx(
            tasks,
            phase,
            move |_, task: &mut T, (snapshot, ctx): &(WorldSnapshot, C)| {
                f(FrozenChunks::new(snapshot), task, ctx);
            },
        );
        self.restore_chunks(snapshot);
        (tasks, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_chunk_is_stripe_round_robin() {
        let map = ShardMap::stripes(4);
        // Chunks 0..4 share stripe 0, 4..8 stripe 1, etc.
        assert_eq!(map.shard_of_chunk(ChunkPos::new(0, 0)), 0);
        assert_eq!(map.shard_of_chunk(ChunkPos::new(3, 7)), 0);
        assert_eq!(map.shard_of_chunk(ChunkPos::new(4, -2)), 1);
        assert_eq!(map.shard_of_chunk(ChunkPos::new(8, 0)), 2);
        assert_eq!(map.shard_of_chunk(ChunkPos::new(12, 0)), 3);
        assert_eq!(map.shard_of_chunk(ChunkPos::new(16, 0)), 0);
        // Negative coordinates wrap without bias.
        assert_eq!(map.shard_of_chunk(ChunkPos::new(-1, 0)), 3);
        assert_eq!(map.shard_of_chunk(ChunkPos::new(-4, 0)), 3);
        assert_eq!(map.shard_of_chunk(ChunkPos::new(-5, 0)), 2);
    }

    #[test]
    fn single_shard_owns_everything_and_is_always_interior() {
        let map = ShardMap::stripes(1);
        for x in -40..40 {
            let chunk = ChunkPos::new(x, x / 3);
            assert_eq!(map.shard_of_chunk(chunk), 0);
            assert_eq!(map.interior_shard(chunk), Some(0));
        }
    }

    #[test]
    fn stripe_edges_are_boundary_chunks() {
        let map = ShardMap::stripes(2);
        // x = 0 has a left neighbour in the previous stripe.
        assert_eq!(map.interior_shard(ChunkPos::new(0, 0)), None);
        assert_eq!(map.interior_shard(ChunkPos::new(3, 0)), None);
        // The inner two columns of each stripe are interior.
        assert_eq!(map.interior_shard(ChunkPos::new(1, 0)), Some(0));
        assert_eq!(map.interior_shard(ChunkPos::new(2, 5)), Some(0));
        assert_eq!(map.interior_shard(ChunkPos::new(5, -9)), Some(1));
    }

    #[test]
    fn block_and_chunk_mapping_agree() {
        let map = ShardMap::stripes(3);
        for &(x, z) in &[(0, 0), (63, 10), (-17, 5), (128, -4)] {
            let pos = BlockPos::new(x, 64, z);
            assert_eq!(map.shard_of_block(pos), map.shard_of_chunk(pos.chunk()));
        }
    }

    #[test]
    fn pipeline_clamps_degenerate_values() {
        let p = TickPipeline::new(0, 0);
        assert_eq!(p.shards(), 1);
        assert_eq!(p.threads(), 1);
        assert!(!p.is_sharded());
        assert!(TickPipeline::new(4, 2).is_sharded());
    }

    /// The leaf squares of a map as `(x0, z0, size)` in shard order; empty
    /// for stripe maps.
    fn leaf_rects(map: &ShardMap) -> Vec<(i32, i32, i32)> {
        let Partition::Regions { root } = &map.partition else {
            return Vec::new();
        };
        let mut rects = Vec::new();
        root.collect_leaves(&mut rects);
        rects
    }

    fn is_adaptive(map: &ShardMap) -> bool {
        matches!(map.partition, Partition::Regions { .. })
    }

    fn region_map(bounds_min: (i32, i32), bounds_max: (i32, i32)) -> ShardMap {
        ShardMap::regions_over(Some((
            ChunkPos::new(bounds_min.0, bounds_min.1),
            ChunkPos::new(bounds_max.0, bounds_max.1),
        )))
    }

    #[test]
    fn region_root_covers_the_bounds_with_one_leaf() {
        let map = region_map((-4, -4), (4, 4));
        assert!(is_adaptive(&map));
        assert_eq!(map.count(), 1);
        let rects = leaf_rects(&map);
        assert_eq!(rects.len(), 1);
        let (x0, z0, size) = rects[0];
        assert_eq!((x0, z0), (-4, -4));
        assert!(size >= 9 && (size as u32).is_power_of_two());
        // Every chunk — inside or outside the root — maps to the one shard.
        for &(x, z) in &[(0, 0), (-4, 4), (1_000, -1_000)] {
            assert_eq!(map.shard_of_chunk(ChunkPos::new(x, z)), 0);
            assert_eq!(map.interior_shard(ChunkPos::new(x, z)), Some(0));
        }
    }

    #[test]
    fn split_partitions_the_root_into_quadrants() {
        let map = region_map((-8, -8), (7, 7));
        let report = ShardLoadReport::new(vec![100]);
        let split = map.rebalanced(&report, 8).expect("one hot leaf must split");
        assert_eq!(split.count(), 4);
        // Quadrant membership in canonical (NW, NE, SW, SE) order.
        assert_eq!(split.shard_of_chunk(ChunkPos::new(-8, -8)), 0);
        assert_eq!(split.shard_of_chunk(ChunkPos::new(0, -8)), 1);
        assert_eq!(split.shard_of_chunk(ChunkPos::new(-8, 0)), 2);
        assert_eq!(split.shard_of_chunk(ChunkPos::new(0, 0)), 3);
        // Chunks outside the root clamp onto the edge shards.
        assert_eq!(split.shard_of_chunk(ChunkPos::new(-100, -100)), 0);
        assert_eq!(split.shard_of_chunk(ChunkPos::new(100, 100)), 3);
        // The quadrant seam is boundary, quadrant cores are interior.
        assert_eq!(split.interior_shard(ChunkPos::new(0, 0)), None);
        assert_eq!(split.interior_shard(ChunkPos::new(-1, -1)), None);
        assert_eq!(split.interior_shard(ChunkPos::new(-5, -5)), Some(0));
        assert_eq!(split.interior_shard(ChunkPos::new(4, 4)), Some(3));
    }

    #[test]
    fn rebalancing_is_a_pure_function_of_the_report() {
        let mut map = region_map((-8, -8), (7, 7));
        // Evolve through a few steps; at every step the same (map, report)
        // pair must produce the same partition again.
        let reports = [
            vec![10_000u64],
            vec![9_000, 100, 100, 100],
            vec![8_000, 200, 200, 200, 100, 100, 100],
        ];
        for loads in reports {
            let report = ShardLoadReport::new(loads);
            let a = map.rebalanced(&report, 16);
            let b = map.rebalanced(&report, 16);
            assert_eq!(a, b, "rebalancing must be deterministic");
            if let Some(next) = a {
                map = next;
            }
        }
        assert!(map.count() > 4, "hot shard 0 should keep splitting");
    }

    #[test]
    fn split_respects_the_minimum_region_size_and_shard_cap() {
        // Root of 8 chunks: one split produces minimum-size leaves that can
        // never split again.
        let map = region_map((0, 0), (7, 7));
        let split = map
            .rebalanced(&ShardLoadReport::new(vec![100]), 8)
            .expect("root splits");
        assert_eq!(split.count(), 4);
        assert!(leaf_rects(&split).iter().all(|r| r.2 == MIN_REGION_CHUNKS));
        let again = split.rebalanced(&ShardLoadReport::new(vec![100, 0, 0, 0]), 8);
        assert_eq!(again, None, "minimum-size leaves must not split");
        // Cap: a map already at the shard budget cannot split either.
        let capped = split.rebalanced(&ShardLoadReport::new(vec![100, 0, 0, 0]), 4);
        assert_eq!(capped, None);
    }

    #[test]
    fn cold_quads_merge_back_and_hysteresis_prevents_oscillation() {
        let map = region_map((-16, -16), (15, 15));
        let split = map
            .rebalanced(&ShardLoadReport::new(vec![100]), 8)
            .expect("root splits");
        assert_eq!(split.count(), 4);
        // Balanced load: inside the dead band, nothing happens.
        let balanced = ShardLoadReport::new(vec![25, 25, 25, 25]);
        assert_eq!(split.rebalanced(&balanced, 8), None);
        // A quad well below half the mean merges… except the only quad here
        // is the whole root, whose load IS the total; craft a deeper tree.
        let deeper = split
            .rebalanced(&ShardLoadReport::new(vec![1_000, 10, 10, 10]), 16)
            .expect("hot quadrant splits");
        assert_eq!(deeper.count(), 7);
        // Now the sub-quad (leaves 0..4) has gone cold while the remaining
        // quadrants are hot; with the shard cap blocking further splits the
        // cold quad merges back into one leaf.
        let merged = deeper
            .rebalanced(&ShardLoadReport::new(vec![1, 1, 1, 1, 500, 500, 500]), 8)
            .expect("cold quad merges");
        assert_eq!(merged.count(), 4);
        // And the merged partition equals the original 4-leaf split.
        assert_eq!(merged, split);
    }

    #[test]
    fn stripe_maps_never_rebalance() {
        let map = ShardMap::stripes(4);
        assert!(!is_adaptive(&map));
        assert_eq!(
            map.rebalanced(&ShardLoadReport::new(vec![100, 0, 0, 0]), 16),
            None
        );
        assert!(leaf_rects(&map).is_empty());
    }

    #[test]
    fn stale_or_empty_reports_leave_the_partition_alone() {
        let map = region_map((-8, -8), (7, 7));
        assert_eq!(map.rebalanced(&ShardLoadReport::new(vec![]), 8), None);
        assert_eq!(map.rebalanced(&ShardLoadReport::new(vec![0]), 8), None);
        assert_eq!(
            map.rebalanced(&ShardLoadReport::new(vec![5, 5]), 8),
            None,
            "a report sized for a different partition is stale"
        );
    }

    #[test]
    fn adaptive_pipeline_pre_splits_toward_the_target() {
        let bounds = Some((ChunkPos::new(-16, -16), ChunkPos::new(15, 15)));
        let p = TickPipeline::adaptive(bounds, 8, 2);
        assert!(p.is_sharded());
        assert!(p.rebalance);
        assert_eq!(p.shards(), 7, "1 -> 4 -> 7 leaves, then 7 + 3 > 8");
        assert!(is_adaptive(p.shard_map()));
        // A target of 1 is degenerate: the 2×target cap leaves no headroom
        // for a split (which adds 3 leaves), so the partition is frozen at
        // one region — serial-equivalent, though still on the sharded path.
        let mut single = TickPipeline::adaptive(None, 1, 1);
        assert_eq!(single.shards(), 1);
        assert!(single.is_sharded());
        assert!(!single.apply_load_report(&ShardLoadReport::new(vec![1_000_000])));
        assert_eq!(single.shards(), 1, "degenerate target never splits");
        // Static pipelines ignore load reports entirely.
        let mut static_p = TickPipeline::new(4, 2);
        assert!(!static_p.apply_load_report(&ShardLoadReport::new(vec![100, 0, 0, 0])));
        assert_eq!(static_p.shards(), 4);
    }

    #[test]
    fn every_chunk_maps_to_exactly_one_valid_shard_after_any_sequence() {
        let mut pipeline =
            TickPipeline::adaptive(Some((ChunkPos::new(-16, -16), ChunkPos::new(15, 15))), 8, 1);
        let mut rng: u64 = 0x5EED;
        for _ in 0..40 {
            let count = pipeline.shards() as usize;
            let loads: Vec<u64> = (0..count)
                .map(|_| {
                    rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    rng >> 40
                })
                .collect();
            pipeline.apply_load_report(&ShardLoadReport::new(loads));
            let map = pipeline.shard_map();
            for x in -20..20 {
                for z in -20..20 {
                    let shard = map.shard_of_chunk(ChunkPos::new(x, z));
                    assert!(shard < map.count());
                }
            }
            // Leaf rects tile the root exactly once.
            let rects = leaf_rects(map);
            let area: i64 = rects.iter().map(|r| i64::from(r.2) * i64::from(r.2)).sum();
            assert_eq!(area, 32 * 32, "leaves must tile the root");
        }
    }

    use crate::block::BlockKind;
    use crate::generation::FlatGenerator;

    /// A flat world over chunks x 1..=14, z -2..=2, partitioned into the
    /// four stripes 0..=3, 4..=7, 8..=11, 12..=15 (interior columns x = 1,
    /// 2, 5, 6, 9, 10, 13, 14), with this tick's generation count at zero.
    fn striped_world() -> World {
        let mut w = World::new(Box::new(FlatGenerator::grassland()), 5);
        for x in 1..=14 {
            for z in -2..=2 {
                w.ensure_chunk(ChunkPos::new(x, z));
            }
        }
        w.reshard(ShardMap::stripes(4));
        w.advance_tick();
        w
    }

    fn chunk_order(w: &World) -> Vec<ChunkPos> {
        w.iter_chunks().map(crate::chunk::Chunk::pos).collect()
    }

    /// A block in the interior column `stripe * 4 + 1`, in chunk row `cz`.
    fn interior_block(stripe: i32, cz: i32, dy: i32) -> BlockPos {
        BlockPos::new((stripe * 4 + 1) * 16 + 8, 70 + dy, cz * 16 + 8)
    }

    #[test]
    fn owned_phase_returns_every_chunk_once_and_counts_worker_generation() {
        let mut w = striped_world();
        let loaded = w.loaded_chunk_count();
        // Shards 0 and 1 each also write into one unloaded chunk of their
        // own interior (row 9); shard 2 stays on loaded terrain.
        let work: Vec<(usize, (Vec<BlockPos>, u32))> = (0..3)
            .map(|s| {
                let mut writes = vec![interior_block(s, 0, 0)];
                if s < 2 {
                    writes.push(interior_block(s, 9, 0));
                }
                (s as usize, (writes, 0))
            })
            .collect();
        let (results, ()) = w.run_owned_phase(
            &PoolScope::scoped(4),
            false,
            work,
            (),
            |view, (writes, generated): &mut (Vec<BlockPos>, u32), ()| {
                for &pos in writes.iter() {
                    view.set_block(pos, Block::simple(BlockKind::Planks));
                }
                *generated = view.owned.chunks_generated;
            },
        );
        let generated: u32 = results.iter().map(|(_, payload, _)| payload.1).sum();
        assert_eq!(generated, 2);
        assert_eq!(w.chunks_generated_this_tick(), generated);
        let mut positions = chunk_order(&w);
        assert_eq!(positions.len(), loaded + 2);
        positions.sort();
        positions.dedup();
        assert_eq!(positions.len(), loaded + 2, "a chunk came back twice");
        for shard in 0..4 {
            for pos in w.shard_store(shard).positions() {
                assert_eq!(w.shard_map().shard_of_chunk(pos), shard);
            }
        }
        assert_eq!(w.count_kind(BlockKind::Planks), 5);
    }

    /// Everything an owned phase leaves behind, in a comparable form.
    type PhaseFootprint = (
        Vec<(usize, Vec<BlockPos>)>,
        u64,
        Vec<BlockChange>,
        Vec<BlockUpdate>,
        Vec<BlockUpdate>,
    );

    fn owned_phase_footprint(width: u32) -> PhaseFootprint {
        let mut w = striped_world();
        // Lower shards get more writes, so on a wide scope the higher
        // shards tend to finish first.
        let work: Vec<(usize, Vec<BlockPos>)> = (0..4)
            .map(|s| {
                let writes = (0..(8 - 2 * s)).map(|dy| interior_block(s, 0, dy));
                // Local x = 0 of the interior column: its west neighbour
                // lies in the stripe's boundary column, so it goes outbound.
                let edge = BlockPos::new((s * 4 + 1) * 16, 70, 8);
                (s as usize, writes.chain([edge]).collect())
            })
            .collect();
        let (results, ()) = w.run_owned_phase(
            &PoolScope::scoped(width),
            false,
            work,
            (),
            |view, writes: &mut Vec<BlockPos>, ()| {
                for &pos in writes.iter() {
                    view.set_block(pos, Block::simple(BlockKind::Stone));
                    view.schedule_tick(pos, 2);
                }
            },
        );
        let outbound: Vec<(usize, Vec<BlockPos>)> = results
            .into_iter()
            .map(|(shard, _, outbound)| (shard, outbound))
            .collect();
        for pos in outbound.iter().flat_map(|(_, positions)| positions) {
            w.push_neighbor_update(*pos);
        }
        let immediate = std::iter::from_fn(|| w.updates_mut().pop_immediate()).collect();
        let due = w.updates_mut().pop_due(u64::MAX);
        (
            outbound,
            w.total_non_air_blocks(),
            w.drain_changes(),
            immediate,
            due,
        )
    }

    #[test]
    fn owned_phase_merges_in_ascending_shard_order_at_any_scope_width() {
        let reference = owned_phase_footprint(1);
        let (outbound, _, changes, immediate, due) = &reference;
        let map = ShardMap::stripes(4);
        let ascending =
            |shards: Vec<usize>| shards.windows(2).all(|pair| pair[0] <= pair[1]) && shards[0] == 0;
        assert!(ascending(
            outbound.iter().map(|(shard, _)| *shard).collect()
        ));
        assert!(outbound.iter().all(|(_, positions)| !positions.is_empty()));
        assert!(ascending(
            changes.iter().map(|c| map.shard_of_block(c.pos)).collect()
        ));
        assert!(ascending(
            due.iter().map(|u| map.shard_of_block(u.pos)).collect()
        ));
        assert_eq!(changes.len(), due.len());
        assert!(!immediate.is_empty());
        for width in [4, 8] {
            assert_eq!(owned_phase_footprint(width), reference, "width {width}");
        }
    }

    #[test]
    fn owned_phase_takes_only_the_listed_shards() {
        let mut w = striped_world();
        let before = chunk_order(&w);
        let (results, ctx) = w.run_owned_phase(
            &PoolScope::scoped(4),
            true,
            vec![(1, Vec::new()), (3, Vec::new())],
            7u8,
            |view, visits: &mut Vec<(usize, usize)>, _: &u8| {
                visits.push((view.shard, view.owned.store.len()));
            },
        );
        assert_eq!(ctx, 7);
        // One visit per listed shard, each seeing exactly its own chunks.
        let chunks = |shard: usize| w.shard_store(shard).len();
        assert_eq!(
            results,
            vec![
                (1, vec![(1, chunks(1))], Vec::new()),
                (3, vec![(3, chunks(3))], Vec::new())
            ]
        );
        assert_eq!(chunk_order(&w), before);
        assert!(w.changes().is_empty() && w.updates().is_empty());

        let nothing: Vec<(usize, ())> = Vec::new();
        let (results, ()) =
            w.run_owned_phase(&PoolScope::scoped(4), true, nothing, (), |_, _, _| {
                unreachable!("no shard listed");
            });
        assert!(results.is_empty());
        assert_eq!(chunk_order(&w), before);
    }

    #[test]
    #[should_panic(expected = "tick worker panicked: shard 2 went wrong")]
    fn owned_phase_surfaces_a_panicking_job() {
        let mut w = striped_world();
        let work = (0..4).map(|s| (s, ())).collect();
        let _ = w.run_owned_phase(&PoolScope::scoped(4), false, work, (), |view, (), ()| {
            assert!(view.shard != 2, "shard 2 went wrong");
        });
    }

    #[test]
    fn frozen_phase_restores_the_chunks_after_empty_and_full_runs() {
        let mut w = striped_world();
        let before = (chunk_order(&w), w.total_non_air_blocks());
        let read = |mut frozen: FrozenChunks<'_>, task: &mut (BlockPos, Block, Option<i32>)| {
            task.1 = frozen.block(task.0);
            task.2 = frozen.column_top(task.0.x, task.0.z);
        };

        let (tasks, ctx) = w.run_frozen_phase(
            &PoolScope::scoped(4),
            Vec::new(),
            3u8,
            move |frozen, task, _| read(frozen, task),
        );
        assert!(tasks.is_empty());
        assert_eq!(ctx, 3);
        assert_eq!((chunk_order(&w), w.total_non_air_blocks()), before);

        // Loaded surface positions across all four shards, plus one
        // unloaded position that must read as air without being generated.
        let mut tasks: Vec<(BlockPos, Block, Option<i32>)> = (0..4)
            .map(|s| (interior_block(s, 0, -10), Block::AIR, None))
            .collect();
        tasks.push((
            interior_block(0, 40, -10),
            Block::simple(BlockKind::Stone),
            None,
        ));
        let (tasks, ()) =
            w.run_frozen_phase(&PoolScope::scoped(4), tasks, (), move |frozen, task, ()| {
                read(frozen, task);
            });
        for (_, block, top) in &tasks[..4] {
            assert_eq!((block.kind(), *top), (BlockKind::Grass, Some(60)));
        }
        assert_eq!((tasks[4].1, tasks[4].2), (Block::AIR, Some(-1)));
        assert_eq!((chunk_order(&w), w.total_non_air_blocks()), before);
        assert_eq!(w.chunks_generated_this_tick(), 0);
        assert_eq!(w.block(interior_block(2, 0, -10)).kind(), BlockKind::Grass);
    }

    /// A world whose every chunk carries its own marker block at local
    /// (3, 70, 3), so a read resolved to the wrong chunk shows. Its 12 × 8
    /// chunks cover every way of `World`'s chunk cursor.
    fn marked_world() -> (World, Vec<BlockPos>) {
        let kinds = [
            BlockKind::Stone,
            BlockKind::Dirt,
            BlockKind::Cobblestone,
            BlockKind::Sand,
            BlockKind::Obsidian,
        ];
        let mut w = World::new(Box::new(FlatGenerator::grassland()), 5);
        let mut markers = Vec::new();
        for x in 0..12 {
            for z in -1..=6 {
                let marker = BlockPos::new(x * 16 + 3, 70, z * 16 + 3);
                let kind = kinds[(x + 2 * (z + 1)) as usize % kinds.len()];
                w.set_block_silent(marker, Block::simple(kind));
                markers.push(marker);
            }
        }
        (w, markers)
    }

    /// Reads `pos` through the cursor path and requires the cursor-free
    /// answer.
    fn assert_reads_true(w: &mut World, pos: BlockPos) {
        let expected = w.block_if_loaded(pos);
        assert_eq!(w.block(pos), expected, "read of {pos}");
        assert_eq!(
            w.highest_block_y(pos.x, pos.z),
            Some(if expected.is_air() { 60 } else { 70 }),
            "column top at {pos}"
        );
    }

    #[test]
    fn chunk_cursor_does_not_survive_a_store_move() {
        let (mut w, markers) = marked_world();
        let probe = BlockPos::new(5 * 16 + 3, 70, 3);
        let neighbour = BlockPos::new(6 * 16 + 3, 70, 3);

        // Resharding, to stripes and on to quadtree regions: the slot each
        // way of the cursor names now belongs to another chunk, or to none.
        let regions = ShardMap::regions_over(Some((ChunkPos::new(0, -1), ChunkPos::new(11, 6))))
            .split_largest_leaf()
            .expect("a 16-chunk root splits");
        for map in [
            ShardMap::stripes(4),
            regions.clone(),
            ShardMap::stripes(1),
            ShardMap::stripes(3),
        ] {
            for &marker in &markers {
                assert_reads_true(&mut w, marker);
            }
            assert_reads_true(&mut w, probe);
            w.reshard(map);
            assert_reads_true(&mut w, probe);
            assert_reads_true(&mut w, neighbour);
            for &marker in &markers {
                assert_reads_true(&mut w, marker);
            }
        }

        // Chunks 8 apart share a way, so each read evicts the other; a
        // reshard between two reads must leave neither entry behind.
        let alias = BlockPos::new(13 * 16 + 3, 70, 3);
        w.set_block_silent(alias, Block::simple(BlockKind::Gravel));
        for map in [regions, ShardMap::stripes(2), ShardMap::stripes(5)] {
            assert_reads_true(&mut w, probe);
            assert_reads_true(&mut w, alias);
            w.reshard(map);
            assert_reads_true(&mut w, probe);
            assert_reads_true(&mut w, alias);
            assert_reads_true(&mut w, probe);
        }

        // An owned phase takes the probe's store away and brings it back
        // changed: the worker overwrites the marker.
        assert_reads_true(&mut w, probe);
        let shard = w.shard_map().shard_of_block(probe);
        let tnt = Block::simple(BlockKind::Tnt);
        let (_, ()) = w.run_owned_phase(
            &PoolScope::scoped(2),
            true,
            vec![(shard, probe)],
            (),
            move |view, pos, ()| {
                view.set_block(*pos, tnt);
            },
        );
        assert_eq!(w.block(probe), tnt);
        assert_reads_true(&mut w, probe);
        assert_reads_true(&mut w, neighbour);

        // A frozen phase empties every store and refills it.
        assert_reads_true(&mut w, neighbour);
        let (_, ()) = w.run_frozen_phase(&PoolScope::scoped(2), vec![0u8; 3], (), |_, _, ()| {});
        assert_reads_true(&mut w, neighbour);
        assert_reads_true(&mut w, probe);
        for &marker in &markers {
            assert_reads_true(&mut w, marker);
        }
    }

    #[test]
    fn frozen_view_cursor_answers_like_the_uncached_snapshot() {
        let (mut w, markers) = marked_world();
        w.reshard(ShardMap::stripes(4));
        // Hop between loaded chunks, an unloaded one and back, with runs
        // inside one chunk in between; remember unloaded answers too.
        let unloaded = BlockPos::new(40 * 16 + 3, 60, 3);
        let mut reads: Vec<BlockPos> = Vec::new();
        for pair in markers.chunks(2) {
            reads.extend([pair[0], pair[0].up(), unloaded, unloaded.offset(1, 0, 1)]);
            reads.extend([pair[0], pair[pair.len() - 1], pair[0].offset(0, 500, 0)]);
        }
        let expected: Vec<(Block, Option<i32>)> = reads
            .iter()
            .map(|&pos| {
                let loaded = w.chunk_if_loaded(pos.chunk());
                let (lx, _, lz) = pos.local();
                (
                    w.block_if_loaded(pos),
                    Some(loaded.and_then(|c| c.height_at(lx, lz)).unwrap_or(-1)),
                )
            })
            .collect();
        let loaded_before = w.loaded_chunk_count();
        let (tasks, ()) = w.run_frozen_phase(
            &PoolScope::scoped(2),
            vec![(reads.clone(), Vec::new()), (reads, Vec::new())],
            (),
            |mut frozen, (reads, out): &mut (Vec<BlockPos>, Vec<_>), ()| {
                for &pos in reads.iter() {
                    // Alternate the two entry points so each sees the
                    // other's cursor.
                    let top = frozen.column_top(pos.x, pos.z);
                    out.push((frozen.block(pos), top));
                }
            },
        );
        for (_, actual) in &tasks {
            assert_eq!(actual, &expected);
        }
        assert_eq!(w.loaded_chunk_count(), loaded_before);
    }
}
