//! Reusable per-tick scratch buffers (the tick "arena").
//!
//! Every tick of the terrain pipeline needs the same transient collections:
//! the pending/next-round cascade queues, the per-shard cascade tasks (routed
//! batch, the coalescing FIFO the shard's view works through, event and
//! leftover lists), the relight position list and the relight miss-tracking
//! buffers. Allocating them per tick (or worse, per cascade round) puts
//! allocator traffic on the hot path and adds wall-clock jitter that is pure
//! harness overhead, not modeled work.
//!
//! [`TickScratch`] owns all of them. The server constructs one per
//! `GameServer` and threads it through `TerrainSimulator::tick_sharded_with`
//! (which `tick_with` calls on one shard) and the frozen relight pass it
//! runs, so a steady-state tick recycles capacity instead of allocating. The
//! buffers carry **no observable state** across ticks: every consumer clears
//! what it uses before use, and a FIFO is handed back empty, its stale
//! stamps all at or below its pop count, so a recycled scratch is
//! bit-identical to a fresh one.

use std::collections::{HashMap, VecDeque};

use crate::pos::{BlockPos, PosHashBuilder};
use crate::sim::TerrainShardTask;
use crate::update::BlockUpdate;

/// Reusable buffers for one server's tick loop. See the module docs.
#[derive(Debug, Default)]
pub struct TickScratch {
    /// Cascade updates produced for the next round.
    pub(crate) next_pending: VecDeque<BlockUpdate>,
    /// Per-shard cascade tasks (index = shard): routed FIFO, events and
    /// leftovers, all drained between rounds.
    pub(crate) shard_tasks: Vec<TerrainShardTask>,
    /// Boundary updates escalated to the serial phase.
    pub(crate) serial_batch: VecDeque<BlockUpdate>,
    /// Positions queued for relighting this tick.
    pub(crate) relight_positions: Vec<BlockPos>,
    /// Miss bookkeeping for the cached relight passes.
    pub(crate) light: LightPassScratch,
}

impl TickScratch {
    /// Creates an empty scratch. One instance serves any number of ticks.
    #[must_use]
    pub fn new() -> Self {
        TickScratch::default()
    }
}

/// Miss-tracking buffers for one cached relight pass: the deduplicated miss
/// list (with per-position multiplicities, since a position can be relit
/// several times in one pass) and the index that deduplicates it.
#[derive(Debug, Default)]
pub(crate) struct LightPassScratch {
    /// Position → slot in `misses` (probed, never iterated).
    pub(crate) miss_index: HashMap<BlockPos, usize, PosHashBuilder>,
    /// Unique positions that missed the relight cache, in first-seen order.
    pub(crate) misses: Vec<BlockPos>,
    /// How many times each miss position occurred in the pass input.
    pub(crate) miss_counts: Vec<u32>,
}

impl LightPassScratch {
    pub(crate) fn clear(&mut self) {
        self.miss_index.clear();
        self.misses.clear();
        self.miss_counts.clear();
    }
}
