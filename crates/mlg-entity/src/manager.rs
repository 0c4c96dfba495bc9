//! The entity manager: one entity-simulation stage per game tick.
//!
//! This is element 6 of the paper's operational model (Figure 4): "Entities
//! are primarily driven by the Game State, including the state of the terrain,
//! players, and entities themselves." The manager owns every entity, runs
//! physics, AI, fuses, item maintenance and spawning each tick, and reports
//! the work performed — the paper's MF4 finding is that this stage dominates
//! non-idle tick time.
//!
//! Entity state lives in the crate-private row store (`store.rs`): one
//! dense row per entity in spawn order, tombstoned removal, stable
//! compaction; an entity is reached through `&mut Entity` into its row.
//! The spatial grid is maintained incrementally from the rows' positions
//! at the start of each tick and then **frozen** for the tick's
//! duration: mid-tick removals record a deferred grid eviction instead of
//! touching the index, so every proximity query in a tick sees the same
//! tick-start snapshot regardless of processing order — a load-bearing
//! piece of the bit-identity contract.
//!
//! [`EntityManager::tick_batched`] is the sharded variant: its per-entity
//! phase is a frozen phase (`World::run_frozen_phase`; see
//! `docs/ARCHITECTURE.md`, "The two shard-phase protocols") and everything
//! that writes the world runs in a serial tail after the canonical merge.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mlg_world::shard::{FrozenChunks, TickPipeline};
use mlg_world::{BlockPos, World};

use crate::ai;
use crate::entity::{Entity, EntityId, EntityKind};
use crate::items;
use crate::math::Vec3;
use crate::pathfinding::PathScratch;
use crate::physics;
use crate::spatial::SpatialGrid;
use crate::spawning::Spawner;
use crate::store::EntityStore;
use crate::tnt;

/// Counters and change lists describing one entity stage tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EntityTickReport {
    /// Number of live entities processed this tick.
    pub entities_processed: u64,
    /// World block reads performed by movement/collision physics.
    pub physics_blocks_checked: u64,
    /// Pathfinding nodes expanded by mob AI.
    pub path_nodes_expanded: u64,
    /// Entity-pair proximity candidates examined (collisions, merging).
    pub proximity_candidates: u64,
    /// Spawn candidate positions scanned.
    pub spawn_positions_scanned: u64,
    /// Item entities merged away.
    pub items_merged: u64,
    /// Item entities collected by hoppers.
    pub items_collected: u64,
    /// TNT explosions that went off.
    pub explosions: u64,
    /// Terrain blocks destroyed by explosions this tick.
    pub blocks_destroyed: u64,
    /// Entities spawned this tick (id and kind), for state-update packets.
    pub spawned: Vec<(EntityId, EntityKind)>,
    /// Entities removed this tick, for state-update packets.
    pub removed: Vec<EntityId>,
    /// Entities that moved this tick and their new positions.
    pub moved: Vec<(EntityId, Vec3)>,
}

/// Owns and simulates all entities of one server instance. Every tick of a
/// manager must be given the same [`World`]: mob routes are remembered from
/// tick to tick by that world's terrain epoch.
pub struct EntityManager {
    store: EntityStore,
    next_id: u64,
    grid: SpatialGrid,
    /// Grid entries owed an eviction at the next tick start: entities
    /// removed mid-tick stay visible to the tick's remaining proximity
    /// queries (frozen tick-start snapshot semantics).
    grid_evictions: Vec<(EntityId, Vec3)>,
    spawner: Spawner,
    rng: StdRng,
    /// Pathfinding working memory of the serial [`EntityManager::tick`]. It
    /// remembers routes by the world's terrain epoch, which is why a manager
    /// is ticked against one world for its whole life.
    path_scratch: PathScratch,
    /// The sharded tick's per-shard tasks, kept between ticks for their
    /// buffers and their own pathfinding working memory.
    shard_tasks: Vec<EntityShardTask>,
    /// The sharded tick's copy of the player positions (the phase context
    /// must own what it shares with the pool), kept for its capacity.
    phase_players: Vec<Vec3>,
    /// Maximum number of primed TNT entities processed per tick; the PaperMC
    /// flavor lowers this (explosion batching/merging optimization).
    pub max_tnt_per_tick: usize,
    /// Whether natural hostile spawning is enabled.
    pub natural_spawning: bool,
}

impl std::fmt::Debug for EntityManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntityManager")
            .field("entities", &self.store.live_count())
            .field("next_id", &self.next_id)
            .finish()
    }
}

impl EntityManager {
    /// Creates an empty entity manager seeded for deterministic behaviour.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        EntityManager {
            store: EntityStore::default(),
            next_id: 1,
            grid: SpatialGrid::new(),
            grid_evictions: Vec::new(),
            spawner: Spawner::new(),
            rng: StdRng::seed_from_u64(seed),
            path_scratch: PathScratch::default(),
            shard_tasks: Vec::new(),
            phase_players: Vec::new(),
            max_tnt_per_tick: usize::MAX,
            natural_spawning: true,
        }
    }

    /// Spawns an entity of `kind` at `pos` and returns its id.
    pub fn spawn(&mut self, kind: EntityKind, pos: Vec3) -> EntityId {
        let id = EntityId(self.next_id);
        self.next_id += 1;
        self.store.push(Entity::new(id, kind, pos));
        id
    }

    /// Removes an entity by id in O(log n). Returns the entity if it
    /// existed. The spatial index keeps its entry until the next tick
    /// start (see [`EntityManager`] docs on frozen-grid semantics).
    pub fn remove(&mut self, id: EntityId) -> Option<Entity> {
        let (entity, grid_entry) = self.store.kill(id)?;
        if let Some(pos) = grid_entry {
            self.grid_evictions.push((id, pos));
        }
        Some(entity)
    }

    /// Removes all entities (used when resetting between iterations).
    pub fn clear(&mut self) {
        self.store.clear();
        self.grid.clear();
        self.grid_evictions.clear();
    }

    /// Number of live entities.
    #[must_use]
    pub fn count(&self) -> usize {
        self.store.live_count()
    }

    /// Number of live hostile mobs: a dense walk over the rows.
    #[must_use]
    fn hostile_count(&self) -> usize {
        self.store
            .iter_live()
            .filter(|e| e.kind.is_hostile())
            .count()
    }

    /// Returns a copy of the entity with `id`.
    #[must_use]
    pub fn get(&self, id: EntityId) -> Option<Entity> {
        self.store.get(id).copied()
    }

    /// Applies `f` to the entity with `id` in place. Returns `false` when
    /// no such live entity exists. Position changes are picked up by the
    /// next tick's grid sync; `f` must not change the id.
    fn modify(&mut self, id: EntityId, f: impl FnOnce(&mut Entity)) -> bool {
        let Some(entity) = self.store.get_mut(id) else {
            return false;
        };
        f(entity);
        debug_assert_eq!(entity.id, id, "modify must not change an entity's id");
        true
    }

    /// Iterates over copies of all live entities in spawn order.
    pub fn iter(&self) -> impl Iterator<Item = Entity> + '_ {
        self.store.iter_live().copied()
    }

    /// Brings the spatial index to this tick's frozen snapshot: applies
    /// the evictions deferred from last tick, compacts the store if
    /// tombstones dominate, and re-indexes entities that spawned or moved
    /// since the last sync. Equivalent to (but much cheaper than) a full
    /// clear-and-rebuild in spawn order.
    fn prepare_grid(&mut self) {
        for (id, pos) in self.grid_evictions.drain(..) {
            self.grid.remove(id, pos);
        }
        self.store.maybe_compact();
        self.store.sync_grid(&mut self.grid);
    }

    /// Runs one entity-simulation tick.
    ///
    /// `players` are the positions of connected players (used by AI targeting,
    /// hostile despawning and the spawner). Returns the work report, which
    /// also carries the spawn/remove/move lists the server turns into
    /// state-update packets.
    pub fn tick(&mut self, world: &mut World, players: &[Vec3]) -> EntityTickReport {
        let mut report = EntityTickReport::default();

        self.prepare_grid();

        // Entities spawned during the tick (chain reactions, natural
        // spawning) are appended after this pass and first processed next
        // tick.
        let mut exploded: Vec<(EntityId, Vec3)> = Vec::new();
        let mut chain_ignitions: Vec<mlg_world::BlockPos> = Vec::new();
        let mut tnt_processed = 0usize;

        for stored in self.store.iter_live_mut() {
            // Work on a stack copy and store it back once: editing the row
            // in place read ≈ 1.7 % slower on `campaign_sweep` `run_wall_s`
            // (10 of 11 alternating pairs, 2-core host).
            let mut copy = *stored;
            let entity = &mut copy;
            report.entities_processed += 1;
            entity.age += 1;
            let before_pos = entity.pos;

            // Movement physics for everything.
            let move_out = physics::step(world, entity);
            report.physics_blocks_checked += u64::from(move_out.blocks_checked);

            // Kind-specific behaviour.
            match entity.kind {
                EntityKind::PrimedTnt if tnt_processed < self.max_tnt_per_tick => {
                    tnt_processed += 1;
                    let out = tnt::tick_fuse(world, entity);
                    if out.exploded {
                        let explosion = out.explosion.expect("explosion present when exploded");
                        report.explosions += 1;
                        report.blocks_destroyed += explosion.blocks_destroyed;
                        chain_ignitions.extend(explosion.tnt_ignited);
                        exploded.push((entity.id, entity.pos));
                    }
                }
                kind if kind.is_mob() => {
                    let nodes = ai::decide(
                        world,
                        entity,
                        players,
                        &mut self.rng,
                        &mut self.path_scratch,
                    );
                    report.path_nodes_expanded += u64::from(nodes);
                }
                _ => {}
            }

            // Entity-entity proximity (collision candidates). The query
            // discards hits, so only the candidate count is computed.
            let examined = self.grid.proximity_examined(entity.pos, 1.0);
            report.proximity_candidates += u64::from(examined);

            if entity.pos.distance_squared(before_pos) > 1e-8 {
                report.moved.push((entity.id, entity.pos));
            }
            *stored = copy;
        }

        self.resolve_explosions(exploded, chain_ignitions, &mut report);
        self.maintain_items_and_lifecycle(world, players, &mut report);
        report
    }

    /// Runs one entity-simulation tick through the sharded pipeline.
    ///
    /// Entities are batched by owning shard (the shard of the chunk their
    /// position falls in) and the per-entity phase — aging, movement
    /// physics, AI, fuse countdown, proximity queries — fans out across the
    /// worker pool as a frozen phase (`World::run_frozen_phase`): it reads
    /// the terrain without generating or writing and mutates only the
    /// entities of its own batch, so batches are fully independent;
    /// results merge in canonical shard order. World-mutating
    /// effects (TNT detonations) and cross-entity phases (knockback, item
    /// merging, hopper collection, despawning, natural spawning) run in a
    /// serial phase afterwards, in the same canonical order.
    ///
    /// Entities are partitioned against the pipeline's *current* shard
    /// map every tick, so after an adaptive rebalance (split or merge of a
    /// quadtree region) they re-batch onto the new partition automatically
    /// — no migration bookkeeping exists to get wrong.
    ///
    /// Mob wander randomness comes from per-shard RNG streams derived from
    /// one serial draw per tick, so the result is **bit-identical at any
    /// thread count**; `pipeline.threads() == 1` is the sequential
    /// reference path. Returns the tick report plus the per-shard entity
    /// counts the compute model uses for its load-balance floor.
    pub fn tick_batched(
        &mut self,
        world: &mut World,
        players: &[Vec3],
        pipeline: &TickPipeline,
    ) -> (EntityTickReport, Vec<u64>) {
        let map = pipeline.shard_map();
        let shard_count = map.count();
        let mut report = EntityTickReport::default();

        self.prepare_grid();

        // Explosion batching (PaperMC): the first `max_tnt_per_tick` primed
        // TNT entities in canonical spawn order are processed this tick.
        // Ids rise with the row, so "the first N" is everything up to the
        // N-th one's id.
        let tnt_cutoff = self
            .store
            .iter_live()
            .filter(|e| e.kind == EntityKind::PrimedTnt)
            .take(self.max_tnt_per_tick)
            .last()
            .map(|e| e.id);

        // One serial draw per tick seeds the per-shard RNG streams, keeping
        // wander decisions deterministic at any thread count.
        let tick_seed: u64 = self.rng.gen();

        // Partition entities by owning shard, preserving spawn order; each
        // copy carries its row for the write-back.
        let mut tasks = std::mem::take(&mut self.shard_tasks);
        tasks.resize_with(shard_count, EntityShardTask::default);
        for (shard, task) in tasks.iter_mut().enumerate() {
            task.reset(shard);
        }
        for (row, entity) in self.store.live_rows() {
            let shard = map.shard_of_block(entity.pos.block_pos());
            tasks[shard].batch.push((row, *entity));
        }

        // The spatial grid rides along in the phase context (pool jobs
        // cannot borrow `self`) and moves back as soon as the phase ends.
        let mut phase_players = std::mem::take(&mut self.phase_players);
        phase_players.clear();
        phase_players.extend_from_slice(players);
        let ctx = EntityPhaseCtx {
            grid: std::mem::take(&mut self.grid),
            tnt_cutoff,
            players: phase_players,
            tick_seed,
        };
        let (mut tasks, ctx) = world.run_frozen_phase(
            &pipeline.scope(),
            tasks,
            ctx,
            |frozen, task: &mut EntityShardTask, ctx: &EntityPhaseCtx| task.simulate(frozen, ctx),
        );
        self.grid = ctx.grid;
        self.phase_players = ctx.players;

        // Merge in canonical shard order, writing each entity back into its
        // row.
        let mut per_shard = vec![0u64; shard_count];
        let mut detonations: Vec<(EntityId, Vec3)> = Vec::new();
        for task in &mut tasks {
            per_shard[task.shard] = task.processed;
            report.entities_processed += task.processed;
            report.physics_blocks_checked += task.physics_blocks_checked;
            report.path_nodes_expanded += task.path_nodes_expanded;
            report.proximity_candidates += task.proximity_candidates;
            report.moved.append(&mut task.moved);
            detonations.append(&mut task.detonations);
            for (row, entity) in task.batch.drain(..) {
                *self.store.entity_mut(row) = entity;
            }
        }
        self.shard_tasks = tasks;

        // Serial phase: detonations against the real world, in canonical
        // order, then the shared cross-entity tail.
        let mut exploded: Vec<(EntityId, Vec3)> = Vec::new();
        let mut chain_ignitions: Vec<BlockPos> = Vec::new();
        for (id, pos) in detonations {
            let explosion = mlg_world::sim::explode(world, pos.block_pos(), tnt::TNT_POWER);
            report.explosions += 1;
            report.blocks_destroyed += explosion.blocks_destroyed;
            chain_ignitions.extend(explosion.tnt_ignited);
            exploded.push((id, pos));
        }
        self.resolve_explosions(exploded, chain_ignitions, &mut report);
        self.maintain_items_and_lifecycle(world, players, &mut report);
        (report, per_shard)
    }

    /// Removes exploded TNT entities (with knockback on everything nearby)
    /// and primes the chain-reaction spawns.
    fn resolve_explosions(
        &mut self,
        exploded: Vec<(EntityId, Vec3)>,
        chain_ignitions: Vec<BlockPos>,
        report: &mut EntityTickReport,
    ) {
        // Remove exploded TNT and knock back nearby entities, in spawn
        // order. Each entity's velocity update is independent, but spawn
        // order keeps the traversal canonical (and any future non-commutative
        // effect deterministic by construction). The knockback is applied
        // unconditionally (it is zero outside the blast radius): the goldens
        // pin that float operation sequence on every velocity.
        for (id, blast_pos) in &exploded {
            self.remove(*id);
            report.removed.push(*id);
            for entity in self.store.iter_live_mut() {
                let push = tnt::knockback(*blast_pos, entity.pos);
                entity.velocity = entity.velocity.add(push);
            }
        }

        // Chain reaction: ignited TNT blocks become primed TNT entities with
        // short, staggered fuses so the chain progresses over several ticks.
        for (i, pos) in chain_ignitions.iter().enumerate() {
            let id = self.spawn(EntityKind::PrimedTnt, Vec3::from_block_center(*pos));
            self.modify(id, |e| e.fuse = 10 + (i % 10) as u16);
            report.spawned.push((id, EntityKind::PrimedTnt));
        }
    }

    /// Item maintenance: merging and hopper collection share one copy of
    /// the item-like entities, in spawn order (the hopper snapshot is the
    /// merge list minus the merged-away entities — no second copy). Both
    /// are functions of item-like entities only, so a world without any
    /// pays one walk over the rows.
    fn maintain_items(&mut self, world: &mut World, report: &mut EntityTickReport) {
        let mut item_like: Vec<Entity> = self
            .store
            .iter_live()
            .filter(|e| e.kind.is_item_like())
            .copied()
            .collect();
        if item_like.is_empty() {
            return;
        }
        let merge_out = items::merge_items(&mut item_like, &self.grid);
        report.proximity_candidates += u64::from(merge_out.candidates_examined);
        report.items_merged += merge_out.merged_away.len() as u64;
        for e in &item_like {
            self.modify(e.id, |stored| stored.stack_size = e.stack_size);
        }
        let mut merged = merge_out.merged_away.clone();
        merged.sort_unstable();
        for id in merge_out.merged_away {
            self.remove(id);
            report.removed.push(id);
        }
        item_like.retain(|e| merged.binary_search(&e.id).is_err());
        let collect_out = items::collect_into_hoppers(world, &item_like);
        report.items_collected += collect_out.collected.len() as u64;
        for id in collect_out.collected {
            self.remove(id);
            report.removed.push(id);
        }
    }

    /// The cross-entity tail every tick variant shares: item merging,
    /// hopper collection, despawning and natural spawning.
    fn maintain_items_and_lifecycle(
        &mut self,
        world: &mut World,
        players: &[Vec3],
        report: &mut EntityTickReport,
    ) {
        self.maintain_items(world, report);

        // Despawning: a dense walk in spawn order so the removal list is
        // deterministic.
        let mut despawn_ids: Vec<EntityId> = Vec::new();
        for entity in self.store.iter_live() {
            let nearest = players
                .iter()
                .map(|p| p.distance(entity.pos))
                .fold(f64::INFINITY, f64::min);
            if entity.should_despawn(nearest) {
                despawn_ids.push(entity.id);
            }
        }
        for id in despawn_ids {
            self.remove(id);
            report.removed.push(id);
        }

        // Natural spawning near players.
        if self.natural_spawning && !players.is_empty() {
            let hostile = self.hostile_count();
            let spawn_out = self.spawner.tick(world, players, hostile, &mut self.rng);
            report.spawn_positions_scanned += u64::from(spawn_out.positions_scanned);
            for (kind, pos) in spawn_out.spawns {
                let id = self.spawn(kind, pos);
                report.spawned.push((id, kind));
            }
        }
    }
}

/// Per-shard entity batch processed by one worker during
/// [`EntityManager::tick_batched`]. The manager keeps the tasks from tick to
/// tick: [`EntityShardTask::reset`] empties everything but `path_scratch`.
#[derive(Default)]
struct EntityShardTask {
    shard: usize,
    /// The shard's entities in spawn order, each with its store row for
    /// the write-back after the phase (named distinctly from any
    /// hash-typed identifier: detlint's scanner tracks such names within a
    /// file).
    batch: Vec<(usize, Entity)>,
    moved: Vec<(EntityId, Vec3)>,
    detonations: Vec<(EntityId, Vec3)>,
    processed: u64,
    physics_blocks_checked: u64,
    path_nodes_expanded: u64,
    proximity_candidates: u64,
    /// This shard's pathfinding working memory: capacity, and the routes
    /// it remembers for whichever mobs the shard holds.
    path_scratch: PathScratch,
}

impl EntityShardTask {
    /// Readies the task for a tick as shard `shard`'s, keeping capacity.
    fn reset(&mut self, shard: usize) {
        self.shard = shard;
        self.batch.clear();
        self.moved.clear();
        self.detonations.clear();
        self.processed = 0;
        self.physics_blocks_checked = 0;
        self.path_nodes_expanded = 0;
        self.proximity_candidates = 0;
    }

    /// The per-entity phase over this shard's batch: aging, movement
    /// physics, fuse countdown or AI, proximity — against frozen terrain
    /// and the tick-start grid, touching nothing outside the task.
    fn simulate(&mut self, mut frozen: FrozenChunks<'_>, ctx: &EntityPhaseCtx) {
        let mut rng = StdRng::seed_from_u64(
            ctx.tick_seed ^ (self.shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        for (_, entity) in &mut self.batch {
            self.processed += 1;
            entity.age += 1;
            let before_pos = entity.pos;
            let move_out = physics::step(&mut frozen, entity);
            self.physics_blocks_checked += u64::from(move_out.blocks_checked);
            match entity.kind {
                EntityKind::PrimedTnt if ctx.tnt_cutoff.is_some_and(|last| entity.id <= last) => {
                    if entity.fuse > 0 {
                        entity.fuse -= 1;
                    } else {
                        // World mutation is deferred to the serial phase;
                        // only mark the detonation here.
                        self.detonations.push((entity.id, entity.pos));
                    }
                }
                kind if kind.is_mob() => {
                    let nodes = ai::decide(
                        &mut frozen,
                        entity,
                        &ctx.players,
                        &mut rng,
                        &mut self.path_scratch,
                    );
                    self.path_nodes_expanded += u64::from(nodes);
                }
                _ => {}
            }
            let examined = ctx.grid.proximity_examined(entity.pos, 1.0);
            self.proximity_candidates += u64::from(examined);
            if entity.pos.distance_squared(before_pos) > 1e-8 {
                self.moved.push((entity.id, entity.pos));
            }
        }
    }
}

/// Shared context of the parallel per-entity phase: the tick's spatial
/// grid, the TNT batching allowance, player positions and the tick's RNG
/// seed — everything the shard workers read besides the frozen terrain,
/// owned so the phase can run on the persistent worker pool. The grid and
/// the player buffer move back into place when the phase ends.
struct EntityPhaseCtx {
    grid: SpatialGrid,
    /// Id of the last primed TNT (in spawn order) this tick may process;
    /// `None` when it may process none.
    tnt_cutoff: Option<EntityId>,
    players: Vec<Vec3>,
    tick_seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlg_world::generation::FlatGenerator;
    use mlg_world::{Block, BlockKind, BlockPos};

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    fn manager() -> EntityManager {
        let mut m = EntityManager::new(11);
        m.natural_spawning = false;
        m
    }

    #[test]
    fn spawn_and_remove_entities() {
        let mut m = manager();
        let id = m.spawn(EntityKind::Cow, Vec3::new(0.5, 61.0, 0.5));
        assert_eq!(m.count(), 1);
        assert!(m.get(id).is_some());
        let removed = m.remove(id).unwrap();
        assert_eq!(removed.id, id);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let mut m = manager();
        let a = m.spawn(EntityKind::Cow, Vec3::ZERO);
        let b = m.spawn(EntityKind::Cow, Vec3::ZERO);
        assert!(b > a);
    }

    #[test]
    fn modify_edits_live_entities_only() {
        let mut m = manager();
        let id = m.spawn(EntityKind::Cow, Vec3::ZERO);
        assert!(m.modify(id, |e| e.age = 99));
        assert_eq!(m.get(id).unwrap().age, 99);
        m.remove(id);
        assert!(!m.modify(id, |e| e.age = 7));
    }

    #[test]
    fn tick_processes_every_entity() {
        let mut m = manager();
        let mut w = world();
        for i in 0..10 {
            m.spawn(EntityKind::Cow, Vec3::new(i as f64, 65.0, 0.5));
        }
        let report = m.tick(&mut w, &[]);
        assert_eq!(report.entities_processed, 10);
        assert!(report.physics_blocks_checked > 0);
        // Falling cows moved.
        assert_eq!(report.moved.len(), 10);
    }

    #[test]
    fn an_idle_mob_searches_once_per_block_it_crosses() {
        // The Control workload under the Vanilla tick, rebuilt from what
        // this crate can reach: the paper's seed on the noise generator, a
        // pre-generated spawn area, one observer standing still on dry
        // land, fourteen passive mobs in a ring around it, natural spawning
        // on, and the terrain simulation running (its random ticks are what
        // moves the terrain epoch here).
        const SEED: u64 = 392_114_485;
        let mut w = World::new(
            Box::new(mlg_world::generation::NoiseGenerator::new(SEED)),
            SEED,
        );
        w.ensure_area(mlg_world::ChunkPos::new(0, 0), 4);
        let stand_on = |w: &mut World, x: f64, z: f64| {
            let top = w.highest_block_y(x.floor() as i32, z.floor() as i32);
            Vec3::new(x, f64::from(top.unwrap_or(64)) + 1.0, z)
        };
        let observer = (0..48)
            .find_map(|ring| {
                let feet = stand_on(&mut w, 8.5 + f64::from(ring), 8.5);
                w.block(feet.block_pos().down()).is_solid().then_some(feet)
            })
            .expect("dry land within 48 blocks of the origin");
        let mut m = EntityManager::new(SEED ^ 0xE47);
        for i in 0..14 {
            let angle = f64::from(i) / 14.0 * std::f64::consts::TAU;
            let feet = stand_on(
                &mut w,
                observer.x + angle.cos() * 12.0,
                observer.z + angle.sin() * 12.0,
            );
            m.spawn(
                if i % 4 == 0 {
                    EntityKind::Villager
                } else {
                    EntityKind::Cow
                },
                feet,
            );
        }

        let terrain = mlg_world::TerrainSimulator::new();
        let mut scratch = mlg_world::TickScratch::default();
        for _ in 0..400 {
            w.advance_tick();
            let _ = terrain.tick_with(&mut w, &mut scratch);
            w.drain_changes();
            m.tick(&mut w, &[observer]);
        }
        // The run is deterministic, so the counts are exact: of the
        // decisions that needed a route, one in eight ran a search (a mob
        // walks a block in about a dozen ticks). The memo is held to 15 %.
        let (asked, searched) = (m.path_scratch.routes_asked, m.path_scratch.searches_run);
        assert_eq!((asked, searched), (4_595, 587));
        assert!(searched * 100 <= asked * 15);
    }

    #[test]
    fn tnt_explosion_removes_entity_and_reports_destruction() {
        let mut m = manager();
        let mut w = world();
        let id = m.spawn(EntityKind::PrimedTnt, Vec3::new(8.5, 61.0, 8.5));
        // Shorten the fuse so it detonates on the second tick.
        m.modify(id, |e| e.fuse = 1);
        let first = m.tick(&mut w, &[]);
        assert_eq!(first.explosions, 0);
        let second = m.tick(&mut w, &[]);
        assert_eq!(second.explosions, 1);
        assert!(second.blocks_destroyed > 0);
        assert!(second.removed.contains(&id));
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn tnt_chain_reaction_spawns_more_primed_tnt() {
        let mut m = manager();
        let mut w = world();
        // A small cluster of TNT blocks next to the primed charge.
        for dx in 0..4 {
            w.set_block_silent(BlockPos::new(9 + dx, 61, 8), Block::simple(BlockKind::Tnt));
        }
        let id = m.spawn(EntityKind::PrimedTnt, Vec3::new(8.5, 61.0, 8.5));
        m.modify(id, |e| e.fuse = 0);
        let report = m.tick(&mut w, &[]);
        assert_eq!(report.explosions, 1);
        assert_eq!(
            report.spawned.len(),
            4,
            "ignited blocks become primed TNT entities"
        );
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn explosions_knock_back_other_entities() {
        let mut m = manager();
        let mut w = world();
        let bystander = m.spawn(EntityKind::Cow, Vec3::new(11.5, 61.0, 8.5));
        let charge = m.spawn(EntityKind::PrimedTnt, Vec3::new(8.5, 61.0, 8.5));
        m.modify(charge, |e| e.fuse = 0);
        m.tick(&mut w, &[]);
        let cow = m.get(bystander).unwrap();
        assert!(
            cow.velocity.x > 0.0,
            "cow should be pushed away from the blast"
        );
    }

    #[test]
    fn item_merging_reduces_entity_count() {
        let mut m = manager();
        let mut w = world();
        for i in 0..5 {
            m.spawn(
                EntityKind::Item(BlockKind::Cobblestone),
                Vec3::new(4.0 + 0.1 * i as f64, 61.5, 4.0),
            );
        }
        let report = m.tick(&mut w, &[]);
        assert!(report.items_merged > 0);
        assert!(m.count() < 5);
    }

    #[test]
    fn hoppers_collect_dropped_items() {
        let mut m = manager();
        let mut w = world();
        w.set_block_silent(BlockPos::new(4, 61, 4), Block::simple(BlockKind::Hopper));
        m.spawn(EntityKind::Item(BlockKind::Kelp), Vec3::new(4.5, 62.2, 4.5));
        // Give the item a couple of ticks to settle onto the hopper.
        let mut collected = 0;
        for _ in 0..5 {
            let r = m.tick(&mut w, &[]);
            collected += r.items_collected;
        }
        assert!(collected >= 1);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn old_items_despawn() {
        let mut m = manager();
        let mut w = world();
        let id = m.spawn(
            EntityKind::Item(BlockKind::Stone),
            Vec3::new(4.5, 61.5, 4.5),
        );
        m.modify(id, |e| e.age = 7_000);
        let report = m.tick(&mut w, &[]);
        assert!(report.removed.contains(&id));
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn natural_spawning_requires_players_and_darkness() {
        let mut m = EntityManager::new(5);
        m.natural_spawning = true;
        let mut w = world();
        // No players: nothing spawns and nothing is scanned.
        let r = m.tick(&mut w, &[]);
        assert_eq!(r.spawn_positions_scanned, 0);
        // With a player on the bright surface, positions are scanned but the
        // surface is too bright to spawn hostiles.
        let r2 = m.tick(&mut w, &[Vec3::new(0.5, 61.0, 0.5)]);
        assert!(r2.spawn_positions_scanned > 0);
    }

    #[test]
    fn disabled_natural_spawning_does_nothing() {
        let mut m = EntityManager::new(5);
        m.natural_spawning = false;
        let mut w = world();
        let r = m.tick(&mut w, &[Vec3::new(0.5, 61.0, 0.5)]);
        assert_eq!(r.spawn_positions_scanned, 0);
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn work_units_reflect_activity() {
        // The report only counts; pricing lives in the server's cost model.
        let mut m = manager();
        let mut w = world();
        assert_eq!(m.tick(&mut w, &[]), EntityTickReport::default());
        for i in 0..10 {
            m.spawn(EntityKind::Cow, Vec3::new(i as f64, 65.0, 0.5));
        }
        let charge = m.spawn(EntityKind::PrimedTnt, Vec3::new(8.5, 61.0, 8.5));
        m.modify(charge, |e| e.fuse = 0);
        let report = m.tick(&mut w, &[]);
        assert_eq!(report.entities_processed, 11);
        assert_eq!(report.explosions, 1);
    }

    /// A cross-stripe entity population: cows, zombies, items and fused
    /// TNT spread over several shard stripes.
    fn batched_setup(seed: u64) -> (EntityManager, World) {
        let mut m = EntityManager::new(seed);
        m.natural_spawning = false;
        let mut w = world();
        w.ensure_area(mlg_world::ChunkPos::new(2, 0), 4);
        for x in [5, 40, 75, 100] {
            m.spawn(EntityKind::Cow, Vec3::new(x as f64 + 0.5, 64.0, 8.5));
            m.spawn(EntityKind::Zombie, Vec3::new(x as f64 + 2.5, 61.0, 8.5));
            m.spawn(
                EntityKind::Item(BlockKind::Cobblestone),
                Vec3::new(x as f64 + 0.6, 61.5, 8.6),
            );
            m.spawn(
                EntityKind::Item(BlockKind::Cobblestone),
                Vec3::new(x as f64 + 0.9, 61.5, 8.7),
            );
            let tnt = m.spawn(EntityKind::PrimedTnt, Vec3::new(x as f64 + 5.5, 61.0, 12.5));
            m.modify(tnt, |e| e.fuse = 2);
            w.set_block_silent(
                BlockPos::new(x + 7, 61, 12),
                mlg_world::Block::simple(BlockKind::Tnt),
            );
        }
        (m, w)
    }

    fn run_batched(
        seed: u64,
        pipeline: &TickPipeline,
        ticks: u32,
    ) -> (Vec<EntityTickReport>, usize, u64) {
        let (mut m, mut w) = batched_setup(seed);
        let players = [Vec3::new(8.5, 61.0, 8.5)];
        let mut reports = Vec::new();
        for _ in 0..ticks {
            let (report, per_shard) = m.tick_batched(&mut w, &players, pipeline);
            assert_eq!(per_shard.len(), pipeline.shards() as usize);
            assert_eq!(
                per_shard.iter().sum::<u64>(),
                report.entities_processed,
                "per-shard counts must cover every processed entity"
            );
            reports.push(report);
        }
        (reports, m.count(), w.total_non_air_blocks())
    }

    #[test]
    fn batched_tick_is_bit_identical_across_thread_counts() {
        for shards in [1, 2, 4, 8] {
            let reference = run_batched(77, &TickPipeline::new(shards, 1), 10);
            let parallel = run_batched(77, &TickPipeline::new(shards, 4), 10);
            assert_eq!(
                reference, parallel,
                "shards={shards} threads=4 diverged from the sequential path"
            );
        }
    }

    #[test]
    fn batched_tick_detonates_tnt_and_chains() {
        let (reports, _, _) = run_batched(9, &TickPipeline::new(4, 2), 10);
        let explosions: u64 = reports.iter().map(|r| r.explosions).sum();
        assert!(explosions >= 4, "all primed TNT should detonate");
        let spawned: usize = reports.iter().map(|r| r.spawned.len()).sum();
        assert!(spawned >= 4, "chain reactions should prime the TNT blocks");
    }

    #[test]
    fn batched_tick_respects_the_tnt_cap() {
        let (mut m, mut w) = batched_setup(31);
        m.max_tnt_per_tick = 1;
        let pipeline = TickPipeline::new(4, 2);
        // Fuses are 2: with the cap only one TNT progresses per tick.
        let mut first_explosion_report = None;
        for tick in 0..6 {
            let (report, _) = m.tick_batched(&mut w, &[], &pipeline);
            if report.explosions > 0 {
                first_explosion_report = Some((tick, report.explosions));
                break;
            }
        }
        let (_, explosions) = first_explosion_report.expect("one TNT must explode");
        assert_eq!(explosions, 1, "the cap limits detonations per tick");
    }

    #[test]
    fn batched_tnt_cap_admits_the_first_n_in_spawn_order() {
        // Five fused-out TNT interleaved with cows over four stripes, cap
        // 2: each tick detonates exactly the two oldest survivors, wherever
        // their shards are — the allowance is an id cutoff, so it must
        // agree with "first N rows" after removals too.
        let mut m = manager();
        m.max_tnt_per_tick = 2;
        let mut w = world();
        w.ensure_area(mlg_world::ChunkPos::new(3, 0), 5);
        let mut tnt = Vec::new();
        for x in [100, 5, 70, 40, 120] {
            m.spawn(EntityKind::Cow, Vec3::new(f64::from(x) + 3.5, 61.0, 2.5));
            let id = m.spawn(
                EntityKind::PrimedTnt,
                Vec3::new(f64::from(x) + 0.5, 61.0, 8.5),
            );
            m.modify(id, |e| e.fuse = 0);
            tnt.push(id);
        }
        let pipeline = TickPipeline::new(4, 2);
        for expected in tnt.chunks(2) {
            let (report, _) = m.tick_batched(&mut w, &[], &pipeline);
            assert_eq!(report.explosions, expected.len() as u64);
            // Detonations merge in shard order; the *set* is the oldest two.
            let mut removed = report.removed[..expected.len()].to_vec();
            removed.sort_unstable();
            assert_eq!(removed, expected);
        }
        let (report, _) = m.tick_batched(&mut w, &[], &pipeline);
        assert_eq!(report.explosions, 0);

        // A cap of zero admits none.
        let id = m.spawn(EntityKind::PrimedTnt, Vec3::new(8.5, 61.0, 8.5));
        m.modify(id, |e| e.fuse = 0);
        m.max_tnt_per_tick = 0;
        let (report, _) = m.tick_batched(&mut w, &[], &pipeline);
        assert_eq!(report.explosions, 0);
    }

    #[test]
    fn clear_empties_the_manager() {
        let mut m = manager();
        m.spawn(EntityKind::Cow, Vec3::ZERO);
        m.spawn(EntityKind::Villager, Vec3::ZERO);
        m.clear();
        assert_eq!(m.count(), 0);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn despawn_heavy_churn_stays_consistent() {
        // Spawn/despawn churn far past the compaction threshold: lookups,
        // counts and ticks must stay correct as rows tombstone and compact.
        let mut m = manager();
        let mut w = world();
        let mut live: Vec<EntityId> = Vec::new();
        for wave in 0..10 {
            for i in 0..40 {
                let x = ((wave * 40 + i) % 96) as f64;
                live.push(m.spawn(EntityKind::Cow, Vec3::new(x + 0.5, 61.0, 8.5)));
            }
            // Remove the older half of the population.
            let half = live.len() / 2;
            for id in live.drain(..half) {
                assert!(m.remove(id).is_some());
            }
            m.tick(&mut w, &[]);
            assert_eq!(m.count(), live.len());
            for id in &live {
                assert!(m.get(*id).is_some(), "live entity lost after churn");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn manager_matches_reference_model_on_random_sequences(seed in proptest::prelude::any::<u64>()) {
            use std::collections::BTreeMap;

            // Random spawn/remove/modify sequences against a BTreeMap
            // reference model. Ids are monotonic, so the model's key order
            // is spawn order and must match the store's canonical dense
            // iteration — through tombstoning and compaction alike. A tick
            // every 50 operations drains the deferred grid evictions,
            // compacts and re-indexes moved entities mid-sequence; after
            // each, the incrementally kept grid must answer like one
            // rebuilt from scratch in spawn order.
            let kinds = [
                EntityKind::Cow,
                EntityKind::Zombie,
                EntityKind::Item(mlg_world::BlockKind::Dirt),
                EntityKind::PrimedTnt,
                EntityKind::FallingBlock(mlg_world::BlockKind::Sand),
            ];
            let mut m = manager();
            let mut w = world();
            let mut model: BTreeMap<EntityId, Entity> = BTreeMap::new();
            let mut s = seed | 1;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            for step in 1..=400 {
                // Spawn-heavy and removal-heavy hundreds alternate, so
                // tombstones pile up past the compaction threshold.
                let churn = step / 100 % 2 == 1;
                match (next() % 4, churn) {
                    (0, false) | (1, _) => {
                        let kind = kinds[(next() as usize) % kinds.len()];
                        let pos = Vec3::new(
                            (next() % 192) as f64 - 96.0,
                            80.0,
                            (next() % 192) as f64 - 96.0,
                        );
                        let id = m.spawn(kind, pos);
                        model.insert(id, Entity::new(id, kind, pos));
                    }
                    (0, true) | (2, _) if !model.is_empty() => {
                        let keys: Vec<EntityId> = model.keys().copied().collect();
                        let id = keys[(next() as usize) % keys.len()];
                        assert_eq!(m.remove(id), model.remove(&id));
                        assert_eq!(m.remove(id), None, "double remove must miss");
                    }
                    _ => {
                        let id = EntityId(next() % 320 + 1);
                        let bump = next() % 7;
                        let changed = m.modify(id, |e| {
                            e.age += bump;
                            e.pos.x += 0.25;
                        });
                        assert_eq!(changed, model.contains_key(&id));
                        if let Some(e) = model.get_mut(&id) {
                            e.age += bump;
                            e.pos.x += 0.25;
                        }
                    }
                }
                let probe = EntityId(next() % 320 + 1);
                assert_eq!(m.get(probe), model.get(&probe).copied());
                if step % 50 == 0 {
                    assert_eq!(m.count(), model.len());
                    let live: Vec<Entity> = m.iter().collect();
                    let expected: Vec<Entity> = model.values().copied().collect();
                    assert_eq!(live, expected, "iteration must walk spawn (= id) order");
                    // Every survivor is processed exactly once, the tick's
                    // removals and spawns are all it changes about who is
                    // live, and the model takes on the ticked state.
                    let report = m.tick(&mut w, &[Vec3::ZERO]);
                    assert_eq!(report.entities_processed as usize, model.len());
                    let mut ids: Vec<EntityId> = model
                        .keys()
                        .copied()
                        .filter(|id| !report.removed.contains(id))
                        .collect();
                    ids.extend(report.spawned.iter().map(|&(id, _)| id));
                    assert!(m.iter().map(|e| e.id).eq(ids));
                    model = m.iter().map(|e| (e.id, e)).collect();
                    assert_grid_matches_a_rebuild(&mut m);
                }
            }
        }
    }

    /// Brings the grid to what the next tick would start from and checks
    /// that every live entity's proximity query reads the same on it as
    /// on a grid rebuilt from [`EntityManager::iter`] in spawn order.
    fn assert_grid_matches_a_rebuild(m: &mut EntityManager) {
        m.prepare_grid();
        let mut rebuilt = SpatialGrid::new();
        for e in m.iter() {
            rebuilt.insert(e.id, e.pos);
        }
        assert_eq!(m.grid.len(), rebuilt.len());
        for e in m.iter() {
            assert_eq!(
                m.grid.query_radius(e.pos, 8.0, None),
                rebuilt.query_radius(e.pos, 8.0, None),
                "grid query around {:?} differs from a rebuild",
                e.id
            );
            assert_eq!(
                m.grid.proximity_examined(e.pos, 1.0),
                rebuilt.proximity_examined(e.pos, 1.0)
            );
        }
    }
}
