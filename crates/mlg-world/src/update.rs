//! Block-update scheduling.
//!
//! Terrain simulation in an MLG is driven by *block updates*: when a block
//! changes, its neighbours are informed and may react (fluids start flowing,
//! unsupported sand falls, redstone recomputes power). Some components also
//! schedule themselves to update after a fixed delay (repeaters, observers,
//! growing plants). This module implements the queues that carry those events
//! between ticks; the rules that react to them live in the sibling modules and
//! are orchestrated by [`crate::sim::TerrainSimulator`].
//!
//! Immediate updates travel through one coalescing FIFO type,
//! `UpdateFifo`, which serves both the world's [`UpdateQueue`] and a shard
//! worker's local queue ([`crate::shard::ShardWorld`]). It holds each
//! position at most once and remembers, per position, the push number it
//! was last queued at: a position is pending exactly when that stamp is
//! greater than the number of pops, so a pop removes nothing from the stamp
//! table. Most updates hit a block that does not react, so the queue's own
//! cost is a large share of a cascade.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use serde::{Deserialize, Serialize};

use crate::pos::{BlockPos, PosHashBuilder};

/// Why a block update was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UpdateKind {
    /// A neighbouring block changed.
    NeighborChanged,
    /// A previously scheduled tick (repeater delay, observer pulse, fluid
    /// spread step) became due.
    Scheduled,
    /// The block was selected by the random-tick lottery (plant growth).
    Random,
}

/// A single pending block update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockUpdate {
    /// The block position to update.
    pub pos: BlockPos,
    /// Why the update fires.
    pub kind: UpdateKind,
}

impl BlockUpdate {
    /// Creates a neighbour-changed update.
    #[must_use]
    pub fn neighbor(pos: BlockPos) -> Self {
        BlockUpdate {
            pos,
            kind: UpdateKind::NeighborChanged,
        }
    }

    /// Creates a scheduled update.
    #[must_use]
    pub fn scheduled(pos: BlockPos) -> Self {
        BlockUpdate {
            pos,
            kind: UpdateKind::Scheduled,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScheduledEntry {
    due_tick: u64,
    seq: u64,
    pos: BlockPos,
}

impl Ord for ScheduledEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due_tick, self.seq, self.pos).cmp(&(other.due_tick, other.seq, other.pos))
    }
}

impl PartialOrd for ScheduledEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// How many stale stamps an [`UpdateFifo`] keeps once it has drained: past
/// this many entries the stamp table is cleared. Clearing costs one pass
/// over the table's buckets, so it is done only when that pass is paid for
/// by at least this many pushes; below it, stale stamps are harmless.
const STALE_STAMPS: usize = 256;

/// A FIFO of block updates that holds each position at most once: a push of
/// a position already waiting is dropped, a push after its pop queues it
/// again.
///
/// Every accepted push takes the next push number as its position's stamp,
/// so the queue holds the stamps `pops + 1 ..= pushes` in order, and a
/// position is pending exactly when its stamp is greater than `pops`. A pop
/// is a `pop_front` and a counter increment; the stamp table is only probed
/// (never iterated), and a push clears it when the queue has drained and it
/// holds more than [`STALE_STAMPS`] entries.
#[derive(Debug, Default)]
pub(crate) struct UpdateFifo {
    queue: VecDeque<BlockUpdate>,
    /// The push number each position was last queued at.
    stamps: HashMap<BlockPos, u64, PosHashBuilder>,
    pushes: u64,
    pops: u64,
}

impl UpdateFifo {
    /// Queues `update` unless its position is already waiting.
    pub(crate) fn push(&mut self, update: BlockUpdate) {
        if self.queue.is_empty() && self.stamps.len() > STALE_STAMPS {
            self.stamps.clear();
        }
        let stamp = self.stamps.entry(update.pos).or_insert(0);
        if *stamp <= self.pops {
            self.pushes += 1;
            *stamp = self.pushes;
            self.queue.push_back(update);
        }
    }

    /// Pops the oldest waiting update, if any.
    pub(crate) fn pop(&mut self) -> Option<BlockUpdate> {
        let update = self.queue.pop_front()?;
        self.pops += 1;
        Some(update)
    }

    /// Whether no update is waiting.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Removes every waiting update and forgets every stamp.
    pub(crate) fn clear(&mut self) {
        self.queue.clear();
        self.stamps.clear();
        self.pops = self.pushes;
    }
}

/// The per-world block-update queue.
///
/// Holds immediate neighbour updates (processed in FIFO order within the
/// current tick) and time-scheduled updates (processed when their due tick is
/// reached).
#[derive(Debug, Default)]
pub struct UpdateQueue {
    immediate: UpdateFifo,
    scheduled: BinaryHeap<Reverse<ScheduledEntry>>,
    scheduled_set: HashSet<(BlockPos, u64), PosHashBuilder>,
    seq: u64,
}

impl UpdateQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        UpdateQueue::default()
    }

    /// Enqueues an immediate neighbour-changed update for `pos`.
    ///
    /// Duplicate positions already waiting in the immediate queue are
    /// coalesced, mirroring how real MLG servers deduplicate neighbour
    /// updates within a tick.
    pub fn push_neighbor(&mut self, pos: BlockPos) {
        self.immediate.push(BlockUpdate::neighbor(pos));
    }

    /// Schedules an update for `pos` to fire at absolute game tick `due_tick`.
    ///
    /// Scheduling the same position for the same tick twice is coalesced.
    pub fn schedule_at(&mut self, pos: BlockPos, due_tick: u64) {
        if self.scheduled_set.insert((pos, due_tick)) {
            self.seq += 1;
            self.scheduled.push(Reverse(ScheduledEntry {
                due_tick,
                seq: self.seq,
                pos,
            }));
        }
    }

    /// Pops the next immediate update, if any.
    pub fn pop_immediate(&mut self) -> Option<BlockUpdate> {
        self.immediate.pop()
    }

    /// Pops all scheduled updates that are due at or before `current_tick`,
    /// in due-tick then insertion order.
    pub fn pop_due(&mut self, current_tick: u64) -> Vec<BlockUpdate> {
        let mut due = Vec::new();
        while let Some(next) = self.scheduled.peek_mut() {
            if next.0.due_tick > current_tick {
                break;
            }
            let Reverse(entry) = PeekMut::pop(next);
            self.scheduled_set.remove(&(entry.pos, entry.due_tick));
            due.push(BlockUpdate::scheduled(entry.pos));
        }
        due
    }

    /// Returns `true` if no updates of any kind are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.immediate.is_empty() && self.scheduled.is_empty()
    }

    /// Removes every pending update. Used when resetting a world between
    /// benchmark iterations.
    pub fn clear(&mut self) {
        self.immediate.clear();
        self.scheduled.clear();
        self.scheduled_set.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The coalescing FIFO as it was written before the stamps: a queue
    /// plus the set of positions in it.
    #[derive(Default)]
    struct ReferenceFifo {
        queue: VecDeque<BlockUpdate>,
        queued: HashSet<BlockPos, PosHashBuilder>,
    }

    impl ReferenceFifo {
        fn push(&mut self, update: BlockUpdate) {
            if self.queued.insert(update.pos) {
                self.queue.push_back(update);
            }
        }

        fn pop(&mut self) -> Option<BlockUpdate> {
            let update = self.queue.pop_front()?;
            self.queued.remove(&update.pos);
            Some(update)
        }

        fn clear(&mut self) {
            self.queue.clear();
            self.queued.clear();
        }
    }

    proptest! {
        /// Random push / pop / pop-until-empty / clear runs through the
        /// stamped FIFO and the reference. Pushes pick from eight positions
        /// (so repeats and re-pushes after a pop are common) or a never-seen
        /// one (so the stamp table outgrows `STALE_STAMPS`). `clear` is
        /// drawn only in the second half of a run, which leaves the first
        /// half long enough to cross the stale-stamp clear.
        #[test]
        fn stamped_fifo_matches_the_set_backed_reference(
            ops in prop::collection::vec(0u16..1000, 4000..5000),
        ) {
            let mut fifo = UpdateFifo::default();
            let mut reference = ReferenceFifo::default();
            let mut fresh = 0;
            let mut stale_clears = 0;
            for (i, &op) in ops.iter().enumerate() {
                let stamps_before = fifo.stamps.len();
                match op {
                    0..=399 => {
                        let pos = BlockPos::new(i32::from(op % 8), 0, 0);
                        let update = if op % 3 == 0 {
                            BlockUpdate::scheduled(pos)
                        } else {
                            BlockUpdate::neighbor(pos)
                        };
                        fifo.push(update);
                        reference.push(update);
                    }
                    400..=699 => {
                        fresh += 1;
                        let update = BlockUpdate::neighbor(BlockPos::new(0, 1, fresh));
                        fifo.push(update);
                        reference.push(update);
                    }
                    700..=959 => prop_assert_eq!(fifo.pop(), reference.pop()),
                    960..=997 => loop {
                        let popped = fifo.pop();
                        prop_assert_eq!(popped, reference.pop());
                        if popped.is_none() {
                            break;
                        }
                    },
                    _ if i >= ops.len() / 2 => {
                        fifo.clear();
                        reference.clear();
                    }
                    _ => prop_assert_eq!(fifo.pop(), reference.pop()),
                }
                if op < 700 && fifo.stamps.len() < stamps_before {
                    stale_clears += 1;
                }
                prop_assert_eq!(fifo.is_empty(), reference.queue.is_empty());
            }
            prop_assert!(stale_clears > 0, "the run never crossed the stale-stamp clear");
            let rest: Vec<_> = std::iter::from_fn(|| fifo.pop()).collect();
            prop_assert_eq!(rest, std::iter::from_fn(|| reference.pop()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn immediate_updates_are_fifo() {
        let mut q = UpdateQueue::new();
        q.push_neighbor(BlockPos::new(1, 0, 0));
        q.push_neighbor(BlockPos::new(2, 0, 0));
        q.push_neighbor(BlockPos::new(3, 0, 0));
        assert_eq!(q.pop_immediate().unwrap().pos, BlockPos::new(1, 0, 0));
        assert_eq!(q.pop_immediate().unwrap().pos, BlockPos::new(2, 0, 0));
        assert_eq!(q.pop_immediate().unwrap().pos, BlockPos::new(3, 0, 0));
        assert!(q.pop_immediate().is_none());
    }

    #[test]
    fn immediate_duplicates_are_coalesced() {
        let mut q = UpdateQueue::new();
        let p = BlockPos::new(1, 2, 3);
        q.push_neighbor(p);
        q.push_neighbor(p);
        assert_eq!(q.pop_immediate().unwrap().pos, p);
        assert!(q.pop_immediate().is_none());
        // After popping, the position may be queued again.
        q.push_neighbor(p);
        assert_eq!(q.pop_immediate().unwrap().pos, p);
    }

    #[test]
    fn scheduled_updates_fire_at_due_tick() {
        let mut q = UpdateQueue::new();
        let p1 = BlockPos::new(1, 0, 0);
        let p2 = BlockPos::new(2, 0, 0);
        q.schedule_at(p1, 10);
        q.schedule_at(p2, 5);
        assert!(q.pop_due(4).is_empty());
        let due5 = q.pop_due(5);
        assert_eq!(due5.len(), 1);
        assert_eq!(due5[0].pos, p2);
        assert_eq!(due5[0].kind, UpdateKind::Scheduled);
        let due10 = q.pop_due(20);
        assert_eq!(due10.len(), 1);
        assert_eq!(due10[0].pos, p1);
        assert!(q.is_empty());
    }

    #[test]
    fn scheduled_same_tick_keeps_insertion_order() {
        let mut q = UpdateQueue::new();
        let positions: Vec<_> = (0..5).map(|i| BlockPos::new(i, 0, 0)).collect();
        for &p in &positions {
            q.schedule_at(p, 3);
        }
        let due: Vec<_> = q.pop_due(3).into_iter().map(|u| u.pos).collect();
        assert_eq!(due, positions);
    }

    #[test]
    fn scheduled_duplicates_for_same_tick_coalesce() {
        let mut q = UpdateQueue::new();
        let p = BlockPos::new(0, 0, 0);
        q.schedule_at(p, 2);
        q.schedule_at(p, 2);
        q.schedule_at(p, 3);
        assert_eq!(q.pop_due(2).len(), 1);
        assert_eq!(q.pop_due(3).len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn clear_removes_everything() {
        let mut q = UpdateQueue::new();
        q.push_neighbor(BlockPos::new(0, 0, 0));
        q.schedule_at(BlockPos::new(1, 1, 1), 100);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop_immediate().is_none());
        assert!(q.pop_due(u64::MAX).is_empty());
        // Cleared positions are not remembered as queued.
        q.push_neighbor(BlockPos::new(0, 0, 0));
        assert!(q.pop_immediate().is_some());
    }
}
