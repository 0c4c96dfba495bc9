//! Spatial indexing for entity–entity proximity queries.
//!
//! Entity collision detection and item merging need "which entities are near
//! this one" queries every tick. A uniform grid keeps those queries cheap
//! while still reflecting the paper's observation that densely packed
//! entities (TNT cuboids, farm collection pits) make the entity stage
//! expensive — dense cells still produce quadratic pair counts.
//!
//! The index is a **dense open-addressed table** (linear probing over a
//! power-of-two slot array), not a hash map: cell lookups are explicit
//! probes, no code path ever iterates the table in layout order, and every
//! per-cell bucket is kept sorted by [`EntityId`]. Because entity ids are
//! allocated monotonically and never reused, id order *is* spawn order, so
//! neighborhood queries walk candidates in canonical order natively — the
//! determinism contract holds by construction, with no hash-iteration
//! waiver. [`SpatialGrid::clear`] is O(1): it bumps an epoch stamp and
//! leaves slot and bucket allocations in place for the next tick's rebuild,
//! so maintaining the index from the entity store's position column touches
//! only the entities that actually moved cells.

use crate::entity::EntityId;
use crate::math::Vec3;

/// Cell edge length of the spatial grid, in blocks.
const CELL_SIZE: f64 = 4.0;

/// Bits per axis in the packed cell key. Coordinates wrap beyond
/// ±2²⁰ cells (±4 million blocks), far outside any benchmark world.
const KEY_BITS: u64 = 21;
const KEY_MASK: u64 = (1 << KEY_BITS) - 1;

/// Initial slot-table size (power of two).
const INITIAL_SLOTS: usize = 64;

/// One open-addressed table slot: a claimed cell and its member bucket.
///
/// `stamp` records the epoch in which the slot was last claimed; a slot
/// whose stamp differs from the grid's current epoch is vacant, and its
/// bucket (capacity retained) is lazily cleared on the next claim.
#[derive(Default)]
struct Slot {
    key: u64,
    stamp: u64,
    bucket: Vec<(EntityId, Vec3)>,
}

/// A uniform-grid spatial index over entity positions, backed by a dense
/// open-addressed cell table with id-sorted buckets.
pub struct SpatialGrid {
    slots: Vec<Slot>,
    mask: usize,
    /// Current epoch; slots stamped with an older epoch are vacant. Starts
    /// at 1 so zero-initialised slots are vacant.
    epoch: u64,
    /// Slots claimed in the current epoch (load-factor accounting).
    occupied: usize,
    len: usize,
}

impl Default for SpatialGrid {
    fn default() -> Self {
        SpatialGrid {
            slots: (0..INITIAL_SLOTS).map(|_| Slot::default()).collect(),
            mask: INITIAL_SLOTS - 1,
            epoch: 1,
            occupied: 0,
            len: 0,
        }
    }
}

impl std::fmt::Debug for SpatialGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpatialGrid")
            .field("len", &self.len)
            .field("cells", &self.occupied)
            .field("slots", &self.slots.len())
            .finish()
    }
}

fn cell_of(pos: Vec3) -> (i32, i32, i32) {
    (
        (pos.x / CELL_SIZE).floor() as i32,
        (pos.y / CELL_SIZE).floor() as i32,
        (pos.z / CELL_SIZE).floor() as i32,
    )
}

fn cell_key(cell: (i32, i32, i32)) -> u64 {
    (cell.0 as u64 & KEY_MASK)
        | ((cell.1 as u64 & KEY_MASK) << KEY_BITS)
        | ((cell.2 as u64 & KEY_MASK) << (2 * KEY_BITS))
}

/// SplitMix64 finalizer: a strong, cheap mix for the packed cell key.
fn hash_key(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SpatialGrid {
    /// Creates an empty grid.
    #[must_use]
    pub fn new() -> Self {
        SpatialGrid::default()
    }

    /// Removes all entries in O(1) by advancing the epoch; slot and bucket
    /// allocations are retained for reuse.
    pub fn clear(&mut self) {
        self.epoch += 1;
        self.occupied = 0;
        self.len = 0;
    }

    /// Index of the slot holding `key`, if that cell is claimed this epoch.
    ///
    /// Linear probing terminates at the first vacant slot: inserts always
    /// claim the earliest vacant slot of their probe sequence and nothing
    /// is ever vacated mid-epoch, so a vacant slot proves absence.
    fn find_slot(&self, key: u64) -> Option<usize> {
        let mut i = hash_key(key) as usize & self.mask;
        loop {
            let slot = &self.slots[i];
            if slot.stamp != self.epoch {
                return None;
            }
            if slot.key == key {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Index of the slot for `key`, claiming a vacant slot if needed.
    fn slot_for_insert(&mut self, key: u64) -> usize {
        if (self.occupied + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = hash_key(key) as usize & self.mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.epoch {
                slot.key = key;
                slot.stamp = self.epoch;
                slot.bucket.clear();
                self.occupied += 1;
                return i;
            }
            if slot.key == key {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Doubles the slot table, re-probing the cells claimed this epoch.
    /// Buckets move wholesale, so per-cell candidate order is unaffected
    /// (and is id-sorted regardless of table layout).
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let mut new_slots: Vec<Slot> = (0..new_len).map(|_| Slot::default()).collect();
        let new_mask = new_len - 1;
        for slot in &mut self.slots {
            if slot.stamp != self.epoch {
                continue;
            }
            let mut i = hash_key(slot.key) as usize & new_mask;
            while new_slots[i].stamp == self.epoch {
                i = (i + 1) & new_mask;
            }
            new_slots[i].key = slot.key;
            new_slots[i].stamp = self.epoch;
            new_slots[i].bucket = std::mem::take(&mut slot.bucket);
        }
        self.slots = new_slots;
        self.mask = new_mask;
    }

    /// Inserts an entity at the given position. The cell bucket stays
    /// sorted by id, so candidate order is canonical spawn order.
    pub fn insert(&mut self, id: EntityId, pos: Vec3) {
        let slot = self.slot_for_insert(cell_key(cell_of(pos)));
        let bucket = &mut self.slots[slot].bucket;
        let at = bucket.partition_point(|&(bid, _)| bid < id);
        bucket.insert(at, (id, pos));
        self.len += 1;
    }

    /// Removes the entry for `id` previously inserted at `pos` (the exact
    /// position it was indexed under). Returns `true` if it was present.
    pub fn remove(&mut self, id: EntityId, pos: Vec3) -> bool {
        let Some(slot) = self.find_slot(cell_key(cell_of(pos))) else {
            return false;
        };
        let bucket = &mut self.slots[slot].bucket;
        let at = bucket.partition_point(|&(bid, _)| bid < id);
        if bucket.get(at).map(|&(bid, _)| bid) == Some(id) {
            bucket.remove(at);
            self.len -= 1;
            return true;
        }
        false
    }

    /// Number of entities currently indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no entities are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the ids of all entities within `radius` blocks of `pos`,
    /// excluding `exclude` (typically the querying entity itself), together
    /// with the number of candidate entities examined.
    #[must_use]
    pub fn query_radius(
        &self,
        pos: Vec3,
        radius: f64,
        exclude: Option<EntityId>,
    ) -> (Vec<EntityId>, u32) {
        let mut hits = Vec::new();
        let mut examined = 0u32;
        let r_sq = radius * radius;
        let min = cell_of(pos.sub(Vec3::new(radius, radius, radius)));
        let max = cell_of(pos.add(Vec3::new(radius, radius, radius)));
        for cx in min.0..=max.0 {
            for cy in min.1..=max.1 {
                for cz in min.2..=max.2 {
                    if let Some(slot) = self.find_slot(cell_key((cx, cy, cz))) {
                        for &(id, epos) in &self.slots[slot].bucket {
                            examined += 1;
                            if Some(id) == exclude {
                                continue;
                            }
                            if epos.distance_squared(pos) <= r_sq {
                                hits.push(id);
                            }
                        }
                    }
                }
            }
        }
        (hits, examined)
    }

    /// Number of proximity candidates a [`SpatialGrid::query_radius`] at
    /// `pos` would examine, without materializing the hit list. The entity
    /// tick uses this for its collision-candidate accounting, which needs
    /// the examined count only.
    #[must_use]
    pub fn proximity_examined(&self, pos: Vec3, radius: f64) -> u32 {
        let mut examined = 0u32;
        let min = cell_of(pos.sub(Vec3::new(radius, radius, radius)));
        let max = cell_of(pos.add(Vec3::new(radius, radius, radius)));
        for cx in min.0..=max.0 {
            for cy in min.1..=max.1 {
                for cz in min.2..=max.2 {
                    if let Some(slot) = self.find_slot(cell_key((cx, cy, cz))) {
                        examined += self.slots[slot].bucket.len() as u32;
                    }
                }
            }
        }
        examined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid_has_no_hits() {
        let grid = SpatialGrid::new();
        assert!(grid.is_empty());
        let (hits, examined) = grid.query_radius(Vec3::ZERO, 10.0, None);
        assert!(hits.is_empty());
        assert_eq!(examined, 0);
    }

    #[test]
    fn finds_entities_within_radius() {
        let mut grid = SpatialGrid::new();
        grid.insert(EntityId(1), Vec3::new(0.0, 64.0, 0.0));
        grid.insert(EntityId(2), Vec3::new(2.0, 64.0, 0.0));
        grid.insert(EntityId(3), Vec3::new(50.0, 64.0, 0.0));
        let (hits, _) = grid.query_radius(Vec3::new(0.0, 64.0, 0.0), 5.0, None);
        assert!(hits.contains(&EntityId(1)));
        assert!(hits.contains(&EntityId(2)));
        assert!(!hits.contains(&EntityId(3)));
    }

    #[test]
    fn exclude_skips_the_querying_entity() {
        let mut grid = SpatialGrid::new();
        grid.insert(EntityId(1), Vec3::ZERO);
        grid.insert(EntityId(2), Vec3::new(0.5, 0.0, 0.0));
        let (hits, _) = grid.query_radius(Vec3::ZERO, 2.0, Some(EntityId(1)));
        assert_eq!(hits, vec![EntityId(2)]);
    }

    #[test]
    fn radius_boundary_is_inclusive() {
        let mut grid = SpatialGrid::new();
        grid.insert(EntityId(1), Vec3::new(3.0, 0.0, 0.0));
        let (hits, _) = grid.query_radius(Vec3::ZERO, 3.0, None);
        assert_eq!(hits.len(), 1);
        let (miss, _) = grid.query_radius(Vec3::ZERO, 2.9, None);
        assert!(miss.is_empty());
    }

    #[test]
    fn clear_resets_but_len_tracks_inserts() {
        let mut grid = SpatialGrid::new();
        for i in 0..10 {
            grid.insert(EntityId(i), Vec3::new(i as f64, 0.0, 0.0));
        }
        assert_eq!(grid.len(), 10);
        grid.clear();
        assert!(grid.is_empty());
        let (hits, _) = grid.query_radius(Vec3::ZERO, 100.0, None);
        assert!(hits.is_empty());
    }

    #[test]
    fn dense_cells_examine_many_candidates() {
        let mut grid = SpatialGrid::new();
        for i in 0..100 {
            grid.insert(EntityId(i), Vec3::new(0.1 * i as f64 % 2.0, 64.0, 0.0));
        }
        let (_, examined) = grid.query_radius(Vec3::new(1.0, 64.0, 0.0), 1.0, None);
        assert!(examined >= 100, "dense cluster should be fully examined");
    }

    #[test]
    fn remove_deletes_exactly_one_entry() {
        let mut grid = SpatialGrid::new();
        grid.insert(EntityId(1), Vec3::new(1.0, 0.0, 1.0));
        grid.insert(EntityId(2), Vec3::new(1.1, 0.0, 1.0));
        assert!(grid.remove(EntityId(1), Vec3::new(1.0, 0.0, 1.0)));
        assert!(!grid.remove(EntityId(1), Vec3::new(1.0, 0.0, 1.0)));
        assert_eq!(grid.len(), 1);
        let (hits, _) = grid.query_radius(Vec3::new(1.0, 0.0, 1.0), 2.0, None);
        assert_eq!(hits, vec![EntityId(2)]);
    }

    #[test]
    fn candidates_come_back_in_id_order_regardless_of_insertion_order() {
        let mut grid = SpatialGrid::new();
        for id in [5u64, 1, 9, 3, 7] {
            grid.insert(EntityId(id), Vec3::new(0.5, 0.0, 0.5));
        }
        let (hits, _) = grid.query_radius(Vec3::new(0.5, 0.0, 0.5), 1.0, None);
        assert_eq!(
            hits,
            [1, 3, 5, 7, 9].map(EntityId).to_vec(),
            "bucket order is canonical id (spawn) order"
        );
    }

    #[test]
    fn table_growth_preserves_entries_and_order() {
        let mut grid = SpatialGrid::new();
        // Hundreds of distinct cells force several table doublings.
        for i in 0..500u64 {
            grid.insert(
                EntityId(i),
                Vec3::new((i % 25) as f64 * 8.0, 0.0, (i / 25) as f64 * 8.0),
            );
        }
        assert_eq!(grid.len(), 500);
        for i in 0..500u64 {
            let pos = Vec3::new((i % 25) as f64 * 8.0, 0.0, (i / 25) as f64 * 8.0);
            let (hits, _) = grid.query_radius(pos, 0.5, None);
            assert!(hits.contains(&EntityId(i)), "entity {i} lost in growth");
        }
    }

    #[test]
    fn epoch_reuse_never_leaks_previous_contents() {
        let mut grid = SpatialGrid::new();
        for round in 0..5u64 {
            grid.clear();
            for i in 0..50 {
                grid.insert(EntityId(round * 100 + i), Vec3::new(i as f64, 0.0, 0.0));
            }
            let (hits, examined) = grid.query_radius(Vec3::new(25.0, 0.0, 0.0), 100.0, None);
            assert_eq!(hits.len(), 50, "round {round}");
            assert_eq!(examined, 50, "round {round}: stale entries leaked");
        }
    }

    #[test]
    fn proximity_examined_matches_query_radius_accounting() {
        let mut grid = SpatialGrid::new();
        for i in 0..40 {
            grid.insert(EntityId(i), Vec3::new((i % 8) as f64, 64.0, (i / 8) as f64));
        }
        for probe in [
            Vec3::new(0.0, 64.0, 0.0),
            Vec3::new(4.0, 64.0, 2.0),
            Vec3::new(100.0, 0.0, 100.0),
        ] {
            let (_, examined) = grid.query_radius(probe, 1.5, None);
            assert_eq!(grid.proximity_examined(probe, 1.5), examined);
        }
    }
}
