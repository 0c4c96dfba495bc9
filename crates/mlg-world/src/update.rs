//! Block-update scheduling.
//!
//! Terrain simulation in an MLG is driven by *block updates*: when a block
//! changes, its neighbours are informed and may react (fluids start flowing,
//! unsupported sand falls, redstone recomputes power). Some components also
//! schedule themselves to update after a fixed delay (repeaters, observers,
//! growing plants). This module implements the queues that carry those events
//! between ticks; the rules that react to them live in the sibling modules and
//! are orchestrated by [`crate::sim::TerrainSimulator`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

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

/// The per-world block-update queue.
///
/// Holds immediate neighbour updates (processed in FIFO order within the
/// current tick) and time-scheduled updates (processed when their due tick is
/// reached).
#[derive(Debug, Default)]
pub struct UpdateQueue {
    immediate: VecDeque<BlockUpdate>,
    immediate_set: HashSet<BlockPos, PosHashBuilder>,
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
        if self.immediate_set.insert(pos) {
            self.immediate.push_back(BlockUpdate::neighbor(pos));
        }
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
        let update = self.immediate.pop_front()?;
        self.immediate_set.remove(&update.pos);
        Some(update)
    }

    /// Pops all scheduled updates that are due at or before `current_tick`,
    /// in due-tick then insertion order.
    pub fn pop_due(&mut self, current_tick: u64) -> Vec<BlockUpdate> {
        let mut due = Vec::new();
        while let Some(Reverse(entry)) = self.scheduled.peek() {
            if entry.due_tick > current_tick {
                break;
            }
            let Reverse(entry) = self.scheduled.pop().expect("peeked entry exists");
            self.scheduled_set.remove(&(entry.pos, entry.due_tick));
            due.push(BlockUpdate::scheduled(entry.pos));
        }
        due
    }

    /// Number of immediate updates currently queued.
    #[must_use]
    pub fn immediate_len(&self) -> usize {
        self.immediate.len()
    }

    /// Number of scheduled updates currently queued (including not-yet-due).
    #[must_use]
    pub fn scheduled_len(&self) -> usize {
        self.scheduled.len()
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
        self.immediate_set.clear();
        self.scheduled.clear();
        self.scheduled_set.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(q.immediate_len(), 1);
        q.pop_immediate();
        // After popping, the position may be queued again.
        q.push_neighbor(p);
        assert_eq!(q.immediate_len(), 1);
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
        assert_eq!(q.scheduled_len(), 2);
        assert_eq!(q.pop_due(2).len(), 1);
        assert_eq!(q.pop_due(3).len(), 1);
    }

    #[test]
    fn clear_removes_everything() {
        let mut q = UpdateQueue::new();
        q.push_neighbor(BlockPos::new(0, 0, 0));
        q.schedule_at(BlockPos::new(1, 1, 1), 100);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.immediate_len(), 0);
        assert_eq!(q.scheduled_len(), 0);
    }
}
