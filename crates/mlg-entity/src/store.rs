//! Row storage for the live entity population: the backing of the
//! [`EntityManager`](crate::manager::EntityManager).
//!
//! Each entity is one row — the [`Entity`] itself, its liveness, and the
//! position the tick's [`SpatialGrid`] has it indexed under — appended in
//! spawn order. Because entity ids are allocated monotonically and never
//! reused, the rows are always sorted by id, so the row of any id is a
//! binary search away — no id→row hash map exists, and every iteration is
//! a dense walk in canonical spawn order, which keeps the determinism
//! contract structural. Callers reach an entity through `&mut Entity`
//! into its row; no other copy of its fields exists to keep in step.
//!
//! Removal tombstones the row in O(1) after the search, and a stable
//! compaction (`Vec::retain`) reclaims rows once tombstones outnumber live
//! entities, giving amortized O(1) removal without ever disturbing the
//! canonical order of the survivors. The monotonic id doubles as the slot
//! generation: a stale id can never alias a new entity, so lookups after
//! compaction are ABA-safe by construction.
//!
//! The grid position kept per row lets the per-tick grid maintenance touch
//! only entities that spawned or moved across ticks instead of
//! re-inserting the whole population, and lets a removal hand the caller
//! the position its deferred grid eviction must use.

use crate::entity::{Entity, EntityId};
use crate::math::Vec3;
use crate::spatial::SpatialGrid;

/// One stored entity.
struct Row {
    entity: Entity,
    alive: bool,
    /// Position the spatial grid has this row indexed under, if any.
    indexed_at: Option<Vec3>,
}

/// Dense, id-sorted row storage for the live entity population.
#[derive(Default)]
pub(crate) struct EntityStore {
    rows: Vec<Row>,
    live: usize,
}

/// Tombstone count below which compaction never runs (avoids churning tiny
/// populations).
const COMPACT_MIN_DEAD: usize = 64;

impl EntityStore {
    /// Number of live entities.
    pub(crate) fn live_count(&self) -> usize {
        self.live
    }

    /// Appends a new entity row. Ids must arrive in strictly increasing
    /// order (the manager allocates them monotonically), which keeps the
    /// rows sorted by id and row lookup a binary search.
    ///
    /// # Panics
    ///
    /// Panics if `entity.id` is not greater than every stored id.
    pub(crate) fn push(&mut self, entity: Entity) {
        assert!(
            self.rows
                .last()
                .is_none_or(|last| last.entity.id < entity.id),
            "entity ids must be appended in increasing order"
        );
        self.rows.push(Row {
            entity,
            alive: true,
            indexed_at: None,
        });
        self.live += 1;
    }

    /// The row holding `id`, if that entity is live.
    fn row_of(&self, id: EntityId) -> Option<usize> {
        let row = self
            .rows
            .binary_search_by_key(&id, |row| row.entity.id)
            .ok()?;
        self.rows[row].alive.then_some(row)
    }

    /// The live entity with `id`, if any.
    pub(crate) fn get(&self, id: EntityId) -> Option<&Entity> {
        self.row_of(id).map(|row| &self.rows[row].entity)
    }

    /// The live entity with `id`, if any, for editing in place. The id
    /// must not change: it is the sort key of the rows.
    pub(crate) fn get_mut(&mut self, id: EntityId) -> Option<&mut Entity> {
        self.row_of(id).map(|row| &mut self.rows[row].entity)
    }

    /// The entity at `row`, which must be live, for editing in place.
    pub(crate) fn entity_mut(&mut self, row: usize) -> &mut Entity {
        debug_assert!(self.rows[row].alive, "row {row} is a tombstone");
        &mut self.rows[row].entity
    }

    /// Tombstones the entity with `id` in O(log n). Returns the removed
    /// entity and, when the row was indexed in the spatial grid, the
    /// position it is indexed under (the caller owes the grid a deferred
    /// eviction — the tick-start snapshot semantics keep the grid frozen
    /// mid-tick).
    pub(crate) fn kill(&mut self, id: EntityId) -> Option<(Entity, Option<Vec3>)> {
        let at = self.row_of(id)?;
        let row = &mut self.rows[at];
        row.alive = false;
        self.live -= 1;
        Some((row.entity, row.indexed_at.take()))
    }

    /// Removes every entity. Grid state must be reset by the caller.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.live = 0;
    }

    /// Iterates the live entities in canonical spawn order.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = &Entity> {
        self.rows
            .iter()
            .filter(|row| row.alive)
            .map(|row| &row.entity)
    }

    /// Iterates the live entities in canonical spawn order, for editing in
    /// place. Ids must not change.
    pub(crate) fn iter_live_mut(&mut self) -> impl Iterator<Item = &mut Entity> {
        self.rows
            .iter_mut()
            .filter(|row| row.alive)
            .map(|row| &mut row.entity)
    }

    /// Iterates the live entities in canonical spawn order with their row
    /// indices, which stay valid until the next [`EntityStore::maybe_compact`].
    pub(crate) fn live_rows(&self) -> impl Iterator<Item = (usize, &Entity)> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.alive)
            .map(|(at, row)| (at, &row.entity))
    }

    /// Stable-compacts the rows if tombstones dominate, dropping dead rows
    /// while preserving the relative (spawn) order of the survivors.
    /// Amortized O(1) per removal: a sweep over n rows reclaims at least
    /// n/2 tombstones.
    pub(crate) fn maybe_compact(&mut self) {
        let dead = self.rows.len() - self.live;
        if dead < COMPACT_MIN_DEAD || dead <= self.live {
            return;
        }
        self.rows.retain(|row| row.alive);
    }

    /// Brings `grid` in sync with the live population: evicts nothing (the
    /// caller evicts tombstoned rows from their recorded grid positions),
    /// inserts rows not yet indexed, and re-indexes rows whose position
    /// changed since they were last indexed. The result is exactly the
    /// grid a full rebuild in spawn order would produce — buckets are
    /// id-sorted either way — at the cost of touching only what moved.
    pub(crate) fn sync_grid(&mut self, grid: &mut SpatialGrid) {
        for row in self.rows.iter_mut().filter(|row| row.alive) {
            let Entity { id, pos, .. } = row.entity;
            match row.indexed_at {
                Some(at) if at == pos => continue,
                Some(at) => {
                    grid.remove(id, at);
                }
                None => {}
            }
            grid.insert(id, pos);
            row.indexed_at = Some(pos);
        }
        debug_assert_eq!(grid.len(), self.live, "grid out of sync with store");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityKind;

    fn entity(id: u64, x: f64) -> Entity {
        Entity::new(EntityId(id), EntityKind::Cow, Vec3::new(x, 64.0, 0.0))
    }

    fn live_ids(store: &EntityStore) -> Vec<u64> {
        store.iter_live().map(|e| e.id.0).collect()
    }

    #[test]
    fn push_get_and_kill_round_trip() {
        let mut store = EntityStore::default();
        store.push(entity(1, 0.0));
        store.push(entity(2, 1.0));
        assert_eq!(store.live_count(), 2);
        let got = store.get(EntityId(2)).unwrap();
        assert_eq!(got.pos.x, 1.0);
        let (killed, grid_entry) = store.kill(EntityId(1)).unwrap();
        assert_eq!(killed.id, EntityId(1));
        assert!(grid_entry.is_none(), "never indexed, no eviction owed");
        assert_eq!(store.live_count(), 1);
        assert!(store.get(EntityId(1)).is_none());
        assert!(store.kill(EntityId(1)).is_none(), "double kill is a no-op");
    }

    #[test]
    fn ids_must_increase() {
        let mut store = EntityStore::default();
        store.push(entity(5, 0.0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.push(entity(3, 0.0));
        }));
        assert!(result.is_err(), "out-of-order id must be rejected");
    }

    #[test]
    fn iter_live_skips_tombstones_in_spawn_order() {
        let mut store = EntityStore::default();
        for id in 1..=5 {
            store.push(entity(id, id as f64));
        }
        store.kill(EntityId(2));
        store.kill(EntityId(4));
        assert_eq!(live_ids(&store), vec![1, 3, 5]);
        let rows: Vec<usize> = store.live_rows().map(|(row, _)| row).collect();
        assert_eq!(rows, vec![0, 2, 4]);
    }

    #[test]
    fn compaction_preserves_survivors_and_order() {
        let mut store = EntityStore::default();
        for id in 1..=300 {
            store.push(entity(id, id as f64));
        }
        for id in 1..=200 {
            store.kill(EntityId(id));
        }
        assert_eq!(store.rows.len(), 300);
        store.maybe_compact();
        assert_eq!(store.rows.len(), 100, "tombstones reclaimed");
        assert_eq!(live_ids(&store), (201..=300).collect::<Vec<_>>());
        // Lookup still works over the compacted rows.
        assert_eq!(store.get(EntityId(250)).unwrap().pos.x, 250.0);
    }

    #[test]
    fn compaction_skips_small_tombstone_counts() {
        let mut store = EntityStore::default();
        for id in 1..=10 {
            store.push(entity(id, id as f64));
        }
        store.kill(EntityId(1));
        store.maybe_compact();
        assert_eq!(
            store.rows.len(),
            10,
            "small dead counts are not worth a sweep"
        );
    }

    #[test]
    fn sync_grid_tracks_inserts_moves_and_evictions() {
        let mut store = EntityStore::default();
        let mut grid = SpatialGrid::new();
        for id in 1..=3 {
            store.push(entity(id, id as f64));
        }
        store.sync_grid(&mut grid);
        assert_eq!(grid.len(), 3);

        // Move one entity far away; sync touches only that entry.
        store.get_mut(EntityId(2)).unwrap().pos = Vec3::new(100.0, 64.0, 0.0);
        store.sync_grid(&mut grid);
        let (hits, _) = grid.query_radius(Vec3::new(100.0, 64.0, 0.0), 1.0, None);
        assert_eq!(hits, vec![EntityId(2)]);

        // Kill returns the indexed position for the deferred eviction.
        let (_, grid_entry) = store.kill(EntityId(2)).unwrap();
        let evict_pos = grid_entry.expect("was indexed");
        assert!(grid.remove(EntityId(2), evict_pos));
        store.sync_grid(&mut grid);
        assert_eq!(grid.len(), 2);
    }
}
