//! Struct-of-arrays entity storage: the columnar backing of the
//! [`EntityManager`](crate::manager::EntityManager).
//!
//! Entity state lives in parallel columns (position, velocity, kind, fuse,
//! health, …) appended in spawn order. Because entity ids are allocated
//! monotonically and never reused, the id column is always sorted, so the
//! row of any id is a binary search away — no id→row hash map exists, and
//! every iteration is a dense array walk in canonical spawn order, which
//! keeps the determinism contract structural.
//!
//! Removal tombstones the row in O(1) (the `alive` mask) and a stable
//! compaction sweep reclaims rows once tombstones outnumber live entities,
//! giving amortized O(1) removal without ever disturbing the canonical
//! order of the survivors. The monotonic id doubles as the slot
//! generation: a stale id can never alias a new entity, so lookups after
//! compaction are ABA-safe by construction ([`EntityStore::generation`]
//! counts the sweeps for observability).
//!
//! The store also tracks, per row, the position under which the entity is
//! currently indexed in the tick's [`SpatialGrid`], so the per-tick grid
//! maintenance touches only entities that moved across ticks instead of
//! re-inserting the whole population.

use crate::entity::{Entity, EntityId, EntityKind};
use crate::math::Vec3;
use crate::spatial::SpatialGrid;

/// Columnar (struct-of-arrays) storage for the live entity population.
#[derive(Default)]
pub struct EntityStore {
    ids: Vec<EntityId>,
    kinds: Vec<EntityKind>,
    positions: Vec<Vec3>,
    velocities: Vec<Vec3>,
    on_ground: Vec<bool>,
    ages: Vec<u64>,
    fuses: Vec<u16>,
    stack_sizes: Vec<u32>,
    healths: Vec<f64>,
    path_targets: Vec<Option<Vec3>>,
    alive: Vec<bool>,
    /// Position each row is currently indexed under in the spatial grid
    /// (meaningful only when `in_grid` is set).
    grid_positions: Vec<Vec3>,
    in_grid: Vec<bool>,
    live: usize,
    generation: u64,
}

impl std::fmt::Debug for EntityStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntityStore")
            .field("live", &self.live)
            .field("rows", &self.ids.len())
            .field("generation", &self.generation)
            .finish()
    }
}

/// Tombstone count below which compaction never runs (avoids churning tiny
/// populations).
const COMPACT_MIN_DEAD: usize = 64;

impl EntityStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        EntityStore::default()
    }

    /// Number of live entities.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Returns `true` when no live entities exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of rows including tombstones — the bound for row-indexed
    /// walks.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.ids.len()
    }

    /// Number of stable compaction sweeps performed so far.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the row holds a live entity.
    #[must_use]
    pub fn is_live(&self, row: usize) -> bool {
        self.alive[row]
    }

    /// The id stored at `row` (live or tombstoned).
    #[must_use]
    pub fn id_at(&self, row: usize) -> EntityId {
        self.ids[row]
    }

    /// The kind stored at `row`.
    #[must_use]
    pub fn kind_at(&self, row: usize) -> EntityKind {
        self.kinds[row]
    }

    /// The position stored at `row`.
    #[must_use]
    pub fn position_at(&self, row: usize) -> Vec3 {
        self.positions[row]
    }

    /// Adds `delta` to the velocity stored at `row`.
    pub fn add_velocity(&mut self, row: usize, delta: Vec3) {
        self.velocities[row] = self.velocities[row].add(delta);
    }

    /// Sets the fuse at `row` (chain-reaction staggering).
    pub fn set_fuse(&mut self, row: usize, fuse: u16) {
        self.fuses[row] = fuse;
    }

    /// Appends a new entity row. Ids must arrive in strictly increasing
    /// order (the manager allocates them monotonically), which keeps the id
    /// column sorted and row lookup a binary search.
    ///
    /// # Panics
    ///
    /// Panics if `entity.id` is not greater than every stored id.
    pub fn push(&mut self, entity: Entity) -> usize {
        assert!(
            self.ids.last().is_none_or(|&last| last < entity.id),
            "entity ids must be appended in increasing order"
        );
        let row = self.ids.len();
        self.ids.push(entity.id);
        self.kinds.push(entity.kind);
        self.positions.push(entity.pos);
        self.velocities.push(entity.velocity);
        self.on_ground.push(entity.on_ground);
        self.ages.push(entity.age);
        self.fuses.push(entity.fuse);
        self.stack_sizes.push(entity.stack_size);
        self.healths.push(entity.health);
        self.path_targets.push(entity.path_target);
        self.alive.push(true);
        self.grid_positions.push(entity.pos);
        self.in_grid.push(false);
        self.live += 1;
        row
    }

    /// The row holding `id`, if that entity is live.
    #[must_use]
    pub fn row_of(&self, id: EntityId) -> Option<usize> {
        let row = self.ids.binary_search(&id).ok()?;
        self.alive[row].then_some(row)
    }

    /// Materializes the entity at `row` from its columns.
    #[must_use]
    pub fn entity_at(&self, row: usize) -> Entity {
        Entity {
            id: self.ids[row],
            kind: self.kinds[row],
            pos: self.positions[row],
            velocity: self.velocities[row],
            on_ground: self.on_ground[row],
            age: self.ages[row],
            fuse: self.fuses[row],
            stack_size: self.stack_sizes[row],
            health: self.healths[row],
            path_target: self.path_targets[row],
        }
    }

    /// Materializes the live entity with `id`, if any.
    #[must_use]
    pub fn get(&self, id: EntityId) -> Option<Entity> {
        self.row_of(id).map(|row| self.entity_at(row))
    }

    /// Writes an entity's mutable state back into its row's columns. The
    /// id and kind are fixed at spawn and not rewritten.
    pub fn write_row(&mut self, row: usize, entity: &Entity) {
        debug_assert_eq!(self.ids[row], entity.id, "row/id mismatch on write-back");
        self.positions[row] = entity.pos;
        self.velocities[row] = entity.velocity;
        self.on_ground[row] = entity.on_ground;
        self.ages[row] = entity.age;
        self.fuses[row] = entity.fuse;
        self.stack_sizes[row] = entity.stack_size;
        self.healths[row] = entity.health;
        self.path_targets[row] = entity.path_target;
    }

    /// Sets the stack size of the live entity with `id`, if any.
    pub fn set_stack_size(&mut self, id: EntityId, stack_size: u32) {
        if let Some(row) = self.row_of(id) {
            self.stack_sizes[row] = stack_size;
        }
    }

    /// Tombstones the entity with `id` in O(log n). Returns the removed
    /// entity and, when the row was indexed in the spatial grid, the
    /// position it is indexed under (the caller owes the grid a deferred
    /// eviction — the tick-start snapshot semantics keep the grid frozen
    /// mid-tick).
    pub fn kill(&mut self, id: EntityId) -> Option<(Entity, Option<Vec3>)> {
        let row = self.row_of(id)?;
        let entity = self.entity_at(row);
        self.alive[row] = false;
        self.live -= 1;
        let grid_entry = self.in_grid[row].then_some(self.grid_positions[row]);
        self.in_grid[row] = false;
        Some((entity, grid_entry))
    }

    /// Removes every entity. Grid state must be reset by the caller.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.kinds.clear();
        self.positions.clear();
        self.velocities.clear();
        self.on_ground.clear();
        self.ages.clear();
        self.fuses.clear();
        self.stack_sizes.clear();
        self.healths.clear();
        self.path_targets.clear();
        self.alive.clear();
        self.grid_positions.clear();
        self.in_grid.clear();
        self.live = 0;
    }

    /// Iterates the live entities in canonical spawn order, materialized.
    pub fn iter_live(&self) -> impl Iterator<Item = Entity> + '_ {
        (0..self.rows())
            .filter(|&row| self.alive[row])
            .map(|row| self.entity_at(row))
    }

    /// Stable-compacts the columns if tombstones dominate, dropping dead
    /// rows while preserving the relative (spawn) order of the survivors.
    /// Amortized O(1) per removal: a sweep over n rows reclaims at least
    /// n/2 tombstones.
    pub fn maybe_compact(&mut self) {
        let dead = self.ids.len() - self.live;
        if dead < COMPACT_MIN_DEAD || dead <= self.live {
            return;
        }
        let mut write = 0usize;
        for read in 0..self.ids.len() {
            if !self.alive[read] {
                continue;
            }
            if write != read {
                self.ids[write] = self.ids[read];
                self.kinds[write] = self.kinds[read];
                self.positions[write] = self.positions[read];
                self.velocities[write] = self.velocities[read];
                self.on_ground[write] = self.on_ground[read];
                self.ages[write] = self.ages[read];
                self.fuses[write] = self.fuses[read];
                self.stack_sizes[write] = self.stack_sizes[read];
                self.healths[write] = self.healths[read];
                self.path_targets[write] = self.path_targets[read];
                self.alive[write] = true;
                self.grid_positions[write] = self.grid_positions[read];
                self.in_grid[write] = self.in_grid[read];
            }
            write += 1;
        }
        self.ids.truncate(write);
        self.kinds.truncate(write);
        self.positions.truncate(write);
        self.velocities.truncate(write);
        self.on_ground.truncate(write);
        self.ages.truncate(write);
        self.fuses.truncate(write);
        self.stack_sizes.truncate(write);
        self.healths.truncate(write);
        self.path_targets.truncate(write);
        self.alive.truncate(write);
        self.grid_positions.truncate(write);
        self.in_grid.truncate(write);
        self.generation += 1;
    }

    /// Brings `grid` in sync with the live population: evicts nothing (the
    /// caller evicts tombstoned rows from their recorded grid positions),
    /// inserts rows not yet indexed, and re-indexes rows whose position
    /// changed since they were last indexed. The result is exactly the
    /// grid a full rebuild in spawn order would produce — buckets are
    /// id-sorted either way — at the cost of touching only what moved.
    pub fn sync_grid(&mut self, grid: &mut SpatialGrid) {
        for row in 0..self.ids.len() {
            if !self.alive[row] {
                continue;
            }
            let pos = self.positions[row];
            if !self.in_grid[row] {
                grid.insert(self.ids[row], pos);
                self.in_grid[row] = true;
                self.grid_positions[row] = pos;
            } else if self.grid_positions[row] != pos {
                grid.remove(self.ids[row], self.grid_positions[row]);
                grid.insert(self.ids[row], pos);
                self.grid_positions[row] = pos;
            }
        }
        debug_assert_eq!(grid.len(), self.live, "grid out of sync with store");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entity(id: u64, x: f64) -> Entity {
        Entity::new(EntityId(id), EntityKind::Cow, Vec3::new(x, 64.0, 0.0))
    }

    #[test]
    fn push_get_and_kill_round_trip() {
        let mut store = EntityStore::new();
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
        let mut store = EntityStore::new();
        store.push(entity(5, 0.0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.push(entity(3, 0.0));
        }));
        assert!(result.is_err(), "out-of-order id must be rejected");
    }

    #[test]
    fn iter_live_skips_tombstones_in_spawn_order() {
        let mut store = EntityStore::new();
        for id in 1..=5 {
            store.push(entity(id, id as f64));
        }
        store.kill(EntityId(2));
        store.kill(EntityId(4));
        let ids: Vec<u64> = store.iter_live().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn compaction_preserves_survivors_and_order() {
        let mut store = EntityStore::new();
        for id in 1..=300 {
            store.push(entity(id, id as f64));
        }
        for id in 1..=200 {
            store.kill(EntityId(id));
        }
        assert_eq!(store.rows(), 300);
        store.maybe_compact();
        assert_eq!(store.rows(), 100, "tombstones reclaimed");
        assert_eq!(store.generation(), 1);
        let ids: Vec<u64> = store.iter_live().map(|e| e.id.0).collect();
        assert_eq!(ids, (201..=300).collect::<Vec<_>>());
        // Lookup still works over the compacted column.
        assert_eq!(store.get(EntityId(250)).unwrap().pos.x, 250.0);
    }

    #[test]
    fn compaction_skips_small_tombstone_counts() {
        let mut store = EntityStore::new();
        for id in 1..=10 {
            store.push(entity(id, id as f64));
        }
        store.kill(EntityId(1));
        store.maybe_compact();
        assert_eq!(store.rows(), 10, "small dead counts are not worth a sweep");
    }

    #[test]
    fn sync_grid_tracks_inserts_moves_and_evictions() {
        let mut store = EntityStore::new();
        let mut grid = SpatialGrid::new();
        for id in 1..=3 {
            store.push(entity(id, id as f64));
        }
        store.sync_grid(&mut grid);
        assert_eq!(grid.len(), 3);

        // Move one entity far away; sync touches only that entry.
        let mut moved = store.get(EntityId(2)).unwrap();
        moved.pos = Vec3::new(100.0, 64.0, 0.0);
        let row = store.row_of(EntityId(2)).unwrap();
        store.write_row(row, &moved);
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

    #[test]
    fn write_back_updates_columns() {
        let mut store = EntityStore::new();
        store.push(entity(1, 0.0));
        let row = store.row_of(EntityId(1)).unwrap();
        let mut e = store.entity_at(row);
        e.age = 42;
        e.fuse = 7;
        e.velocity = Vec3::new(0.0, -1.0, 0.0);
        store.write_row(row, &e);
        let back = store.get(EntityId(1)).unwrap();
        assert_eq!(back.age, 42);
        assert_eq!(back.fuse, 7);
        assert_eq!(back.velocity.y, -1.0);
    }
}
