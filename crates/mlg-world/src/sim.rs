//! The terrain simulator: one game tick of terrain simulation.
//!
//! This is element 5 of the paper's operational model (Figure 4): "Terrain
//! Simulation is largely independent from player input, and is instead driven
//! by terrain state updates. When a terrain state update occurs, the Terrain
//! Simulation applies its simulation rules to the new state. […] These rules
//! trigger in a loop, where each iteration informs the adjacent terrain."
//!
//! [`TerrainSimulator::tick_with`] drains the world's update queues, dispatches
//! each update to the appropriate rule module (physics, fluid, redstone,
//! growth), performs lighting recomputation for the blocks that changed, and
//! returns a [`TerrainTickReport`] describing how much work was done plus any
//! [`TerrainEvent`]s that other subsystems (entities, players) must react to.

use std::collections::VecDeque;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::block::{Block, BlockKind};
use crate::generation::ChunkGenerator;
use crate::pool::PoolScope;
use crate::pos::BlockPos;
use crate::region::Region;
use crate::scratch::{LightPassScratch, TickScratch};
use crate::shard::{FrozenChunks, ShardMap, ShardWorld, TerrainView, TickPipeline};
use crate::update::{BlockUpdate, UpdateKind};
use crate::world::{ShardStore, World, WorldSnapshot};
use crate::{fluid, growth, light, physics, redstone};

/// An event produced by terrain simulation that concerns other subsystems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TerrainEvent {
    /// A harvestable block was broken by a piston; an item entity representing
    /// it should be spawned.
    BlockHarvested {
        /// Where the block was.
        pos: BlockPos,
        /// What kind of block it was.
        kind: BlockKind,
    },
    /// A dispenser ejected an item; an item entity should be spawned.
    ItemDispensed {
        /// The dispenser position.
        pos: BlockPos,
    },
    /// A TNT block was ignited (removed from the terrain); a primed TNT entity
    /// should be spawned in its place.
    TntIgnited {
        /// Where the TNT block was.
        pos: BlockPos,
    },
}

/// Counters describing the terrain work done in one game tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TerrainTickReport {
    /// Neighbour-changed updates processed.
    pub neighbor_updates: u64,
    /// Scheduled updates processed.
    pub scheduled_updates: u64,
    /// Random ticks dispatched to plants.
    pub random_ticks: u64,
    /// Blocks newly placed this tick (old was air).
    pub blocks_added: u64,
    /// Blocks removed this tick (new is air).
    pub blocks_removed: u64,
    /// Blocks whose state changed in place.
    pub blocks_updated: u64,
    /// Positions visited by lighting recomputation.
    pub light_positions: u64,
    /// Fluid spread steps performed.
    pub fluid_spreads: u64,
    /// Redstone signal propagation steps performed.
    pub redstone_propagations: u64,
    /// Plant growth events.
    pub growths: u64,
    /// Raw world positions read by the rules.
    pub blocks_scanned: u64,
    /// Chunks generated during this tick (lazy generation near players).
    pub chunks_generated: u64,
    /// Whether the per-tick update budget was exhausted (cascade truncated).
    pub update_budget_exhausted: bool,
}

impl TerrainTickReport {
    /// Total number of block updates processed, regardless of origin.
    #[must_use]
    pub fn total_updates(&self) -> u64 {
        self.neighbor_updates + self.scheduled_updates + self.random_ticks
    }

    /// Merges another report into this one (summing every counter).
    pub fn merge(&mut self, other: &TerrainTickReport) {
        self.neighbor_updates += other.neighbor_updates;
        self.scheduled_updates += other.scheduled_updates;
        self.random_ticks += other.random_ticks;
        self.blocks_added += other.blocks_added;
        self.blocks_removed += other.blocks_removed;
        self.blocks_updated += other.blocks_updated;
        self.light_positions += other.light_positions;
        self.fluid_spreads += other.fluid_spreads;
        self.redstone_propagations += other.redstone_propagations;
        self.growths += other.growths;
        self.blocks_scanned += other.blocks_scanned;
        self.chunks_generated += other.chunks_generated;
        self.update_budget_exhausted |= other.update_budget_exhausted;
    }
}

/// Result of detonating an explosion in the world.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExplosionOutcome {
    /// Number of blocks destroyed.
    pub blocks_destroyed: u64,
    /// Positions of TNT blocks ignited by the blast (chain reaction).
    pub tnt_ignited: Vec<BlockPos>,
    /// Number of positions examined by the blast.
    pub blocks_scanned: u64,
}

/// Destroys terrain in a spherical blast of the given `power` (radius in
/// blocks) centred at `center`.
///
/// TNT blocks caught in the blast are not destroyed but *ignited*: they are
/// removed from the terrain and reported in
/// [`ExplosionOutcome::tnt_ignited`] so the caller can spawn primed TNT
/// entities — this is the chain-reaction mechanism that makes the TNT
/// workload explode "a large section of TNT" from a single trigger.
pub fn explode(world: &mut World, center: BlockPos, power: u32) -> ExplosionOutcome {
    let mut outcome = ExplosionOutcome::default();
    let radius = power as i32;
    let region = Region::cube_around(center, radius);
    let radius_sq = u64::from(power) * u64::from(power);
    for pos in region.iter().collect::<Vec<_>>() {
        outcome.blocks_scanned += 1;
        if pos.distance_squared(center) > radius_sq {
            continue;
        }
        let block = world.block(pos);
        if block.is_air() || !block.kind().is_destructible() {
            continue;
        }
        if block.kind() == BlockKind::Tnt {
            world.set_block(pos, Block::AIR);
            outcome.tnt_ignited.push(pos);
        } else {
            world.set_block(pos, Block::AIR);
            outcome.blocks_destroyed += 1;
        }
    }
    outcome
}

/// Configuration and state of the terrain simulation stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TerrainSimulator {
    /// How many random ticks each loaded chunk receives per game tick.
    pub random_ticks_per_chunk: u32,
    /// Safety limit on the number of block updates processed in one tick.
    /// Real servers have no such limit, but an unbounded cascade would hang
    /// the simulation; the limit is high enough that only pathological
    /// workloads (lag machines on slow nodes) ever reach it.
    pub max_updates_per_tick: u32,
    /// Whether lighting is recomputed eagerly for every change (vanilla
    /// behaviour) or deferred/batched (PaperMC-style optimization).
    pub eager_lighting: bool,
}

impl Default for TerrainSimulator {
    fn default() -> Self {
        TerrainSimulator {
            random_ticks_per_chunk: 3,
            max_updates_per_tick: 200_000,
            eager_lighting: true,
        }
    }
}

impl TerrainSimulator {
    /// Creates a simulator with default (vanilla-like) settings.
    #[must_use]
    pub fn new() -> Self {
        TerrainSimulator::default()
    }

    /// Runs one tick of terrain simulation over the world, recycling the
    /// caller's scratch buffers (the server owns one [`TickScratch`] for
    /// its whole life).
    ///
    /// Returns the work report and the events other subsystems must handle.
    pub fn tick_with(
        &self,
        world: &mut World,
        scratch: &mut TickScratch,
    ) -> (TerrainTickReport, Vec<TerrainEvent>) {
        let mut report = TerrainTickReport::default();
        let mut events = Vec::new();
        let changes_before = world.changes().len();
        let mut processed: u32 = 0;

        // 1. Scheduled updates that became due this tick.
        let current_tick = world.current_tick();
        let due = world.updates_mut().pop_due(current_tick);
        for update in due {
            report.scheduled_updates += 1;
            processed += 1;
            self.dispatch(world, update, &mut report, &mut events);
        }

        // 2. Immediate neighbour updates, including any produced while
        //    processing — this is the cascading simulation-rule loop.
        while let Some(update) = world.updates_mut().pop_immediate() {
            if processed >= self.max_updates_per_tick {
                report.update_budget_exhausted = true;
                break;
            }
            report.neighbor_updates += 1;
            processed += 1;
            self.dispatch(world, update, &mut report, &mut events);
        }

        // 3. Random ticks (plant growth).
        let random_positions = world.pick_random_tick_positions(self.random_ticks_per_chunk);
        for pos in random_positions {
            let kind = world.block_if_loaded(pos).kind();
            if growth::reacts_to_random_tick(kind) {
                report.random_ticks += 1;
                let outcome = growth::apply_random_tick(world, pos);
                report.blocks_scanned += u64::from(outcome.blocks_scanned);
                if outcome.grew {
                    report.growths += 1;
                }
            }
        }

        // 4. Classify the changes made this tick and relight around them.
        // Classification only reads the change log, so the relight positions
        // can be batched into one cached pass instead of interleaving.
        scratch.relight_positions.clear();
        for change in &world.changes()[changes_before..] {
            match (change.old.is_air(), change.new.is_air()) {
                (true, false) => report.blocks_added += 1,
                (false, true) => report.blocks_removed += 1,
                _ => report.blocks_updated += 1,
            }
            if self.eager_lighting {
                scratch.relight_positions.push(change.pos);
            }
        }
        report.light_positions +=
            relight_positions_serial(world, &scratch.relight_positions, &mut scratch.flood);

        report.chunks_generated += u64::from(world.chunks_generated_this_tick());
        (report, events)
    }

    fn dispatch<W: TerrainView>(
        &self,
        world: &mut W,
        update: BlockUpdate,
        report: &mut TerrainTickReport,
        events: &mut Vec<TerrainEvent>,
    ) {
        let kind = world.block(update.pos).kind();
        report.blocks_scanned += 1;
        if physics::reacts_to_updates(kind) {
            let out = physics::apply_gravity(world, update.pos);
            report.blocks_scanned += u64::from(out.blocks_scanned);
        } else if fluid::reacts_to_updates(kind) {
            let out = fluid::apply_fluid(world, update.pos);
            report.blocks_scanned += u64::from(out.blocks_scanned);
            report.fluid_spreads += u64::from(out.spread_to + out.solidified);
        } else if redstone::reacts_to_updates(kind) {
            let out = redstone::apply_redstone(world, update.pos, update.kind);
            report.blocks_scanned += u64::from(out.blocks_scanned);
            report.redstone_propagations += u64::from(out.propagations) + u64::from(out.changed);
            events.extend(out.events);
        } else if kind == BlockKind::Tnt && update.kind == UpdateKind::Scheduled {
            // A scheduled tick on a TNT block means it was fused for ignition.
            world.set_block(update.pos, Block::AIR);
            events.push(TerrainEvent::TntIgnited { pos: update.pos });
        }
    }

    /// Runs one tick of terrain simulation through the sharded pipeline,
    /// recycling the caller's scratch buffers (cascade queues, shard
    /// batches, relight buffers) so steady-state ticks reuse queue capacity
    /// instead of allocating per round.
    ///
    /// The tick is decomposed into deterministic phases:
    ///
    /// 1. **Cascade rounds.** Pending updates are routed by position:
    ///    updates whose 3×3 chunk neighbourhood lies inside one shard go to
    ///    that shard's queue; boundary updates are escalated to a serial
    ///    queue. Shard queues are processed *concurrently* by the worker
    ///    pool — each worker owns its shard's chunks outright, so there is
    ///    no cross-thread interaction — and results (reports, changes,
    ///    events, scheduled ticks, outbound cross-shard pushes) are merged
    ///    in canonical shard order at the round barrier. The serial queue
    ///    is then processed against the whole world; cascades that re-enter
    ///    shard interiors start the next round.
    /// 2. **Random ticks.** Interior picks are applied per shard in
    ///    parallel (their next-tick cascades buffered and re-queued in
    ///    shard order), boundary picks serially.
    /// 3. **Classification and lighting.** The canonical change log is
    ///    classified serially; relighting is a read-only pass over a frozen
    ///    world snapshot and fans out across the worker pool (per-change
    ///    relights are independent, so any partition sums identically).
    ///    One deliberate difference from [`TerrainSimulator::tick_with`]: the
    ///    frozen snapshot reads unloaded chunks as air, while the serial
    ///    path lazily *generates* chunks its light floods wander into — so
    ///    for changes near the edge of the loaded area the two paths can
    ///    report different `light_positions`/`chunks_generated`. (Both
    ///    behaviours are deterministic; the sharded one avoids generating
    ///    terrain merely because a light scan looked at it.)
    ///
    /// Because work assignment, merge order and every per-shard computation
    /// depend only on the shard map — never on scheduling — the result is
    /// **bit-identical at any thread count**; `pipeline.threads() == 1` is
    /// the sequential reference path. Changing the *shard count* is a
    /// modeled-architecture change (like Folia's region count) and is
    /// allowed to change scheduling, exactly as the serial-vs-sharded
    /// comparison in the paper's sense would.
    pub fn tick_sharded_with(
        &self,
        world: &mut World,
        pipeline: &TickPipeline,
        scratch: &mut TickScratch,
    ) -> ShardedTerrainTick {
        let map = pipeline.shard_map();
        world.reshard(map.clone());
        let shard_count = map.count();
        let scope = pipeline.scope();
        let tick = world.current_tick();
        // Phase context for the pool: owned copies of everything the shard
        // workers need, built once per tick and threaded through every
        // parallel phase (persistent-pool jobs cannot borrow the tick's
        // stack; see `crate::pool`).
        let mut phase_ctx = TerrainPhaseCtx {
            sim: self.clone(),
            map: map.clone(),
            generator: world.generator_arc(),
            tick,
        };
        let budget = u64::from(self.max_updates_per_tick);

        let mut report = TerrainTickReport::default();
        let mut events: Vec<TerrainEvent> = Vec::new();
        let mut per_shard_work = vec![0u64; shard_count];
        let mut serial_work = 0u64;
        let mut processed_total = 0u64;
        let changes_before = world.changes().len();

        // ---- Phase 1: cascade rounds ------------------------------------
        // All round-local queues live in the scratch arena: `pending` is
        // drained at the top of each round and `next_pending` swapped in at
        // the bottom, shard batches are moved into the tasks and their
        // (drained, capacity-bearing) queues moved back after the merge.
        scratch.pending.clear();
        scratch.next_pending.clear();
        scratch.serial_batch.clear();
        if scratch.shard_batches.len() != shard_count {
            scratch
                .shard_batches
                .resize_with(shard_count, VecDeque::new);
        }
        for batch in &mut scratch.shard_batches {
            batch.clear();
        }
        scratch.pending.extend(world.updates_mut().pop_due(tick));
        while let Some(update) = world.updates_mut().pop_immediate() {
            scratch.pending.push_back(update);
        }

        'rounds: while !scratch.pending.is_empty() {
            for update in scratch.pending.drain(..) {
                match map.interior_shard(update.pos.chunk()) {
                    Some(s) => scratch.shard_batches[s].push_back(update),
                    None => scratch.serial_batch.push_back(update),
                }
            }
            if processed_total >= budget {
                report.update_budget_exhausted = true;
                let requeued = scratch
                    .shard_batches
                    .iter_mut()
                    .flat_map(|b| b.drain(..))
                    .chain(scratch.serial_batch.drain(..));
                requeue_updates(world, requeued, tick);
                break 'rounds;
            }
            let remaining = budget - processed_total;
            // Split the remaining budget across the shards that have work
            // (each gets at least 1 so rounds always progress): without the
            // split, N shards could process N x max_updates_per_tick in one
            // round, silently inflating the per-tick budget under sharding.
            let active = scratch
                .shard_batches
                .iter()
                .filter(|b| !b.is_empty())
                .count()
                .max(1) as u64;
            let per_shard_cap = (remaining / active).max(1);

            // Parallel phase: shards with work, processed by the pool.
            let mut tasks: Vec<TerrainShardTask> = Vec::new();
            for (s, batch) in scratch.shard_batches.iter_mut().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                tasks.push(TerrainShardTask {
                    shard: s,
                    store: world.take_shard_store(s),
                    batch: std::mem::take(batch),
                    cap: per_shard_cap,
                    report: TerrainTickReport::default(),
                    events: Vec::new(),
                    changes: Vec::new(),
                    outbound: Vec::new(),
                    scheduled: Vec::new(),
                    leftover: Vec::new(),
                    chunks_generated: 0,
                    processed: 0,
                });
            }
            if !tasks.is_empty() {
                (tasks, phase_ctx) =
                    scope.run_tasks_ctx(tasks, phase_ctx, |_, task, ctx: &TerrainPhaseCtx| {
                        ctx.sim
                            .process_shard_batch(task, &ctx.map, &*ctx.generator, ctx.tick);
                    });
            }

            // Barrier merge, in canonical (ascending shard) order.
            for task in tasks {
                world.put_shard_store(task.shard, task.store);
                report.merge(&task.report);
                events.extend(task.events);
                world.append_changes(task.changes);
                for (pos, due) in task.scheduled {
                    world.schedule_tick_at(pos, due);
                }
                for pos in task.outbound {
                    scratch.next_pending.push_back(BlockUpdate::neighbor(pos));
                }
                scratch.next_pending.extend(task.leftover);
                world.note_chunks_generated(task.chunks_generated);
                per_shard_work[task.shard] += task.processed;
                processed_total += task.processed;
                // The batch was drained inside the worker; returning it to
                // its slot keeps the queue's capacity for the next round.
                scratch.shard_batches[task.shard] = task.batch;
            }

            // Serial phase: escalated boundary updates on the full world.
            while let Some(update) = scratch.serial_batch.pop_front() {
                // Scheduled updates stay budget-exempt here too.
                if update.kind != UpdateKind::Scheduled && processed_total >= budget {
                    report.update_budget_exhausted = true;
                    world.push_neighbor_update(update.pos);
                    continue;
                }
                match update.kind {
                    UpdateKind::Scheduled => report.scheduled_updates += 1,
                    _ => report.neighbor_updates += 1,
                }
                processed_total += 1;
                serial_work += 1;
                self.dispatch(world, update, &mut report, &mut events);
                while let Some(cascaded) = world.updates_mut().pop_immediate() {
                    match map.interior_shard(cascaded.pos.chunk()) {
                        Some(_) => scratch.next_pending.push_back(cascaded),
                        None => scratch.serial_batch.push_back(cascaded),
                    }
                }
            }
            std::mem::swap(&mut scratch.pending, &mut scratch.next_pending);
        }

        // ---- Phase 2: random ticks --------------------------------------
        let picks = world.pick_random_tick_positions(self.random_ticks_per_chunk);
        let mut shard_picks: Vec<Vec<BlockPos>> = vec![Vec::new(); shard_count];
        let mut serial_picks: Vec<BlockPos> = Vec::new();
        for pos in picks {
            match map.interior_shard(pos.chunk()) {
                Some(s) => shard_picks[s].push(pos),
                None => serial_picks.push(pos),
            }
        }
        let mut tasks: Vec<RandomTickShardTask> = Vec::new();
        for (s, picks) in shard_picks.into_iter().enumerate() {
            if picks.is_empty() {
                continue;
            }
            tasks.push(RandomTickShardTask {
                shard: s,
                store: world.take_shard_store(s),
                picks,
                random_ticks: 0,
                growths: 0,
                blocks_scanned: 0,
                changes: Vec::new(),
                outbound: Vec::new(),
                scheduled: Vec::new(),
                chunks_generated: 0,
            });
        }
        if !tasks.is_empty() {
            // Last parallel consumer of the context; it can be moved in.
            tasks = scope
                .run_tasks_ctx(tasks, phase_ctx, |_, task, ctx: &TerrainPhaseCtx| {
                    process_shard_random_ticks(task, &ctx.map, &*ctx.generator, ctx.tick);
                })
                .0;
        }
        for task in tasks {
            world.put_shard_store(task.shard, task.store);
            report.random_ticks += task.random_ticks;
            report.growths += task.growths;
            report.blocks_scanned += task.blocks_scanned;
            world.append_changes(task.changes);
            // Growth cascades carry over to the next tick, exactly like the
            // serial path's.
            for pos in task.outbound {
                world.push_neighbor_update(pos);
            }
            for (pos, due) in task.scheduled {
                world.schedule_tick_at(pos, due);
            }
            world.note_chunks_generated(task.chunks_generated);
            per_shard_work[task.shard] += task.random_ticks;
        }
        for pos in serial_picks {
            let kind = world.block_if_loaded(pos).kind();
            if growth::reacts_to_random_tick(kind) {
                report.random_ticks += 1;
                serial_work += 1;
                let outcome = growth::apply_random_tick(world, pos);
                report.blocks_scanned += u64::from(outcome.blocks_scanned);
                if outcome.grew {
                    report.growths += 1;
                }
            }
        }

        // ---- Phase 3: classification and lighting -----------------------
        scratch.relight_positions.clear();
        for change in &world.changes()[changes_before..] {
            match (change.old.is_air(), change.new.is_air()) {
                (true, false) => report.blocks_added += 1,
                (false, true) => report.blocks_removed += 1,
                _ => report.blocks_updated += 1,
            }
            if self.eager_lighting {
                scratch.relight_positions.push(change.pos);
            }
        }
        report.light_positions += relight_misses_frozen(
            world,
            &scratch.relight_positions,
            &scope,
            &mut scratch.light,
        );

        report.chunks_generated += u64::from(world.chunks_generated_this_tick());
        ShardedTerrainTick {
            report,
            events,
            per_shard_work,
            serial_work,
        }
    }

    /// Processes one shard's routed update batch against its own chunks.
    fn process_shard_batch(
        &self,
        task: &mut TerrainShardTask,
        map: &ShardMap,
        generator: &dyn ChunkGenerator,
        tick: u64,
    ) {
        let store = std::mem::take(&mut task.store);
        let mut view = ShardWorld::new(task.shard, map, store, generator, tick, false);
        for update in task.batch.drain(..) {
            view.push_local(update);
        }
        while let Some(update) = view.pop_local() {
            // Scheduled updates are budget-exempt, mirroring the serial
            // path (which processes every due update): truncating them
            // would silently defuse TNT and stall repeaters.
            if update.kind != UpdateKind::Scheduled && task.processed >= task.cap {
                // Over this round's fair-share cap: carry the update to the
                // next round. Whether the *tick* budget was truly exhausted
                // is decided by the requeue paths, not here — leftovers
                // often complete in a later round of the same tick.
                task.leftover.push(update);
                continue;
            }
            match update.kind {
                UpdateKind::Scheduled => task.report.scheduled_updates += 1,
                _ => task.report.neighbor_updates += 1,
            }
            task.processed += 1;
            self.dispatch(&mut view, update, &mut task.report, &mut task.events);
        }
        task.leftover.extend(view.drain_local());
        task.chunks_generated = view.chunks_generated;
        task.changes = std::mem::take(&mut view.changes);
        task.outbound = std::mem::take(&mut view.outbound);
        task.scheduled = std::mem::take(&mut view.scheduled);
        task.store = view.into_store();
    }
}

/// Result of one sharded terrain tick: the merged report and events plus
/// the per-shard work split the compute model uses for its load-balance
/// floor.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedTerrainTick {
    /// The merged work report (same semantics as [`TerrainSimulator::tick_with`]).
    pub report: TerrainTickReport,
    /// Events for other subsystems, in canonical shard-then-serial order.
    pub events: Vec<TerrainEvent>,
    /// Updates + random ticks processed inside each shard's parallel phase.
    pub per_shard_work: Vec<u64>,
    /// Updates + random ticks escalated to the serial merge phase.
    pub serial_work: u64,
}

/// Shared context of the parallel terrain phases (cascade rounds and
/// random ticks): owned copies of the simulator config, shard map and a
/// generator handle, so the phase can execute on the persistent worker
/// pool, whose jobs cannot borrow the tick's stack. Threaded through
/// [`PoolScope::run_tasks_ctx`] and handed back between phases.
struct TerrainPhaseCtx {
    sim: TerrainSimulator,
    map: ShardMap,
    generator: Arc<dyn ChunkGenerator>,
    tick: u64,
}

struct TerrainShardTask {
    shard: usize,
    store: ShardStore,
    batch: VecDeque<BlockUpdate>,
    cap: u64,
    report: TerrainTickReport,
    events: Vec<TerrainEvent>,
    changes: Vec<crate::world::BlockChange>,
    outbound: Vec<BlockPos>,
    scheduled: Vec<(BlockPos, u64)>,
    leftover: Vec<BlockUpdate>,
    chunks_generated: u32,
    processed: u64,
}

struct RandomTickShardTask {
    shard: usize,
    store: ShardStore,
    picks: Vec<BlockPos>,
    random_ticks: u64,
    growths: u64,
    blocks_scanned: u64,
    changes: Vec<crate::world::BlockChange>,
    outbound: Vec<BlockPos>,
    scheduled: Vec<(BlockPos, u64)>,
    chunks_generated: u32,
}

struct LightSliceTask {
    positions: Vec<BlockPos>,
    /// Positions visited per input position, in input order — kept
    /// per-position (not pre-summed) so the caller can memoize each result
    /// in the world's relight cache.
    results: Vec<u32>,
}

/// Relights every position in `positions` against a frozen snapshot of
/// `world`, fanning the independent per-change passes out over the given
/// execution scope, and returns the total number of positions visited.
///
/// This is the lighting stage of the sharded tick pipeline: because each
/// relight is a read-only pass over the same snapshot, the sum is
/// partition-invariant — the slicing can follow the worker count without
/// affecting the result. The game server also calls it directly for the
/// cross-tick *pipelined* lighting stage (positions queued by the previous
/// tick, consumed against the current snapshot while the next tick's player
/// stage runs in the compute model).
///
/// The snapshot is *moved*, not copied: the world's chunks travel into the
/// phase context via [`World::snapshot_chunks`] (which is why this takes
/// `&mut World`) and are restored before returning, so persistent pool
/// workers can read them without borrowing the world. The frozen snapshot
/// reads unloaded chunks as air instead of generating them — see
/// [`TerrainSimulator::tick_sharded_with`] for why that is a deliberate
/// difference from the eager serial path. Scratch buffers come from the
/// caller (the server's per-tick arena).
#[must_use]
pub fn relight_positions_frozen_with(
    world: &mut World,
    positions: &[BlockPos],
    scope: &PoolScope<'_>,
    scratch: &mut TickScratch,
) -> u64 {
    relight_misses_frozen(world, positions, scope, &mut scratch.light)
}

/// [`relight_positions_frozen_with`] on the miss-tracking scratch alone.
///
/// The pass consults the world's relight cache first: a position whose
/// 17×17-column flood window is untouched since its last computation (no
/// light-relevant opacity change, tracked per chunk column) reuses the cached
/// visit count — bit-identical by construction, since an untouched window
/// floods identically. Only cache misses are deduplicated, sliced across the
/// scope's workers against the frozen snapshot, and folded back into the
/// cache. Duplicate positions in one pass multiply the single computed count,
/// which equals computing each occurrence against the same snapshot.
pub(crate) fn relight_misses_frozen(
    world: &mut World,
    positions: &[BlockPos],
    scope: &PoolScope<'_>,
    scratch: &mut LightPassScratch,
) -> u64 {
    if positions.is_empty() {
        return 0;
    }
    world.begin_relight_pass();
    scratch.clear();
    let mut total: u64 = 0;
    for &pos in positions {
        if let Some(&slot) = scratch.miss_index.get(&pos) {
            scratch.miss_counts[slot] += 1;
            continue;
        }
        match world.cached_relight(pos, true) {
            Some(count) => total += u64::from(count),
            None => {
                scratch.miss_index.insert(pos, scratch.misses.len());
                scratch.misses.push(pos);
                scratch.miss_counts.push(1);
            }
        }
    }
    if !scratch.misses.is_empty() {
        let slice_len = scratch
            .misses
            .len()
            .div_ceil(scope.threads().max(1) as usize);
        let slices: Vec<LightSliceTask> = scratch
            .misses
            .chunks(slice_len.max(1))
            .map(|positions| LightSliceTask {
                positions: positions.to_vec(),
                results: Vec::new(),
            })
            .collect();
        let snapshot = world.snapshot_chunks();
        let (slices, snapshot) =
            scope.run_tasks_ctx(slices, snapshot, |_, task, snapshot: &WorldSnapshot| {
                let mut frozen = FrozenChunks(snapshot);
                let mut flood = light::FloodScratch::new();
                task.results.reserve(task.positions.len());
                for pos in &task.positions {
                    let lr = light::relight_after_change_with(&mut frozen, *pos, &mut flood);
                    task.results.push(lr.total_positions());
                }
            });
        world.restore_chunks(snapshot);
        // Fold per-position results back in input (slot) order: slicing
        // followed the worker count, but the flattened result order did not.
        let mut slot = 0usize;
        for task in &slices {
            for &count in &task.results {
                total += u64::from(count) * u64::from(scratch.miss_counts[slot]);
                world.insert_relight(scratch.misses[slot], true, count);
                slot += 1;
            }
        }
    }
    world.end_relight_pass();
    total
}

/// Serial (lazily generating) counterpart of
/// [`relight_positions_frozen_with`], used by the vanilla-flavor tick: cache
/// hits are validated the same way; misses flood the live world — generating
/// chunks exactly where an uncached flood would — and are memoized under the
/// lazy-mode cache key, which is kept separate from the frozen-mode key
/// because the two modes read unloaded chunks differently.
fn relight_positions_serial(
    world: &mut World,
    positions: &[BlockPos],
    flood: &mut light::FloodScratch,
) -> u64 {
    if positions.is_empty() {
        return 0;
    }
    world.begin_relight_pass();
    let mut total: u64 = 0;
    for &pos in positions {
        if let Some(count) = world.cached_relight(pos, false) {
            total += u64::from(count);
        } else {
            let count = light::relight_after_change_with(world, pos, flood).total_positions();
            world.insert_relight(pos, false, count);
            total += u64::from(count);
        }
    }
    world.end_relight_pass();
    total
}

/// Applies one shard's random-tick picks, deferring every cascade push.
fn process_shard_random_ticks(
    task: &mut RandomTickShardTask,
    map: &ShardMap,
    generator: &dyn ChunkGenerator,
    tick: u64,
) {
    let store = std::mem::take(&mut task.store);
    let mut view = ShardWorld::new(task.shard, map, store, generator, tick, true);
    for pos in std::mem::take(&mut task.picks) {
        let kind = TerrainView::block_if_loaded(&view, pos).kind();
        if growth::reacts_to_random_tick(kind) {
            task.random_ticks += 1;
            let outcome = growth::apply_random_tick(&mut view, pos);
            task.blocks_scanned += u64::from(outcome.blocks_scanned);
            if outcome.grew {
                task.growths += 1;
            }
        }
    }
    task.chunks_generated = view.chunks_generated;
    task.changes = std::mem::take(&mut view.changes);
    task.outbound = std::mem::take(&mut view.outbound);
    task.scheduled = std::mem::take(&mut view.scheduled);
    task.store = view.into_store();
}

/// Returns unprocessed updates to the world's queues for the next tick
/// (budget exhaustion): scheduled updates re-fire as scheduled next tick so
/// fuses are not lost, neighbour updates re-queue as immediates.
fn requeue_updates(world: &mut World, updates: impl IntoIterator<Item = BlockUpdate>, tick: u64) {
    for update in updates {
        match update.kind {
            UpdateKind::Scheduled => world.schedule_tick_at(update.pos, tick + 1),
            _ => world.push_neighbor_update(update.pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::FlatGenerator;
    use crate::pos::ChunkPos;

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    #[test]
    fn idle_world_does_minimal_work() {
        let mut w = world();
        w.ensure_area(ChunkPos::new(0, 0), 1);
        w.advance_tick();
        let sim = TerrainSimulator::new();
        let (report, events) = sim.tick_with(&mut w, &mut TickScratch::new());
        assert_eq!(report.neighbor_updates, 0);
        assert_eq!(report.scheduled_updates, 0);
        assert!(events.is_empty());
        // Random ticks still happen, but on a flat grass world nothing grows.
        assert_eq!(report.growths, 0);
    }

    #[test]
    fn placed_block_cascades_updates() {
        let mut w = world();
        let sim = TerrainSimulator::new();
        w.set_block(BlockPos::new(4, 80, 4), Block::simple(BlockKind::Sand));
        w.advance_tick();
        let (report, _) = sim.tick_with(&mut w, &mut TickScratch::new());
        assert!(report.neighbor_updates >= 7);
        // The sand fell: one removal at the origin and one addition below.
        assert!(report.blocks_added >= 1);
        assert!(report.blocks_removed >= 1);
        assert_eq!(w.block(BlockPos::new(4, 61, 4)).kind(), BlockKind::Sand);
    }

    #[test]
    fn scheduled_tnt_ignition_produces_event() {
        let mut w = world();
        let sim = TerrainSimulator::new();
        let pos = BlockPos::new(2, 61, 2);
        w.set_block_silent(pos, Block::simple(BlockKind::Tnt));
        w.schedule_tick(pos, 1);
        w.advance_tick();
        let (_, events) = sim.tick_with(&mut w, &mut TickScratch::new());
        assert_eq!(events, vec![TerrainEvent::TntIgnited { pos }]);
        assert_eq!(w.block(pos), Block::AIR);
    }

    #[test]
    fn clock_driven_work_alternates_between_ticks() {
        let mut w = world();
        let sim = TerrainSimulator::new();
        // A period-2 clock surrounded by dust: every other tick it toggles and
        // pushes updates into the dust, mirroring the lag-machine behaviour.
        let clock = BlockPos::new(4, 61, 4);
        w.set_block_silent(clock, Block::with_state(BlockKind::Comparator, 2));
        for n in clock.horizontal_neighbors() {
            w.set_block_silent(n, Block::simple(BlockKind::RedstoneDust));
        }
        w.schedule_tick(clock, 1);
        let mut per_tick_updates = Vec::new();
        for _ in 0..8 {
            w.advance_tick();
            let (report, _) = sim.tick_with(&mut w, &mut TickScratch::new());
            per_tick_updates.push(report.total_updates());
        }
        let busy_ticks = per_tick_updates.iter().filter(|&&u| u > 0).count();
        let idle_ticks = per_tick_updates.iter().filter(|&&u| u == 0).count();
        assert!(
            busy_ticks >= 3,
            "clock should fire repeatedly: {per_tick_updates:?}"
        );
        assert!(
            idle_ticks >= 3,
            "clock should idle between firings: {per_tick_updates:?}"
        );
    }

    #[test]
    fn explosion_destroys_terrain_and_ignites_tnt() {
        let mut w = world();
        let center = BlockPos::new(8, 60, 8);
        let tnt_pos = BlockPos::new(10, 60, 8);
        w.set_block_silent(tnt_pos, Block::simple(BlockKind::Tnt));
        let outcome = explode(&mut w, center, 4);
        assert!(outcome.blocks_destroyed > 10);
        assert_eq!(outcome.tnt_ignited, vec![tnt_pos]);
        assert_eq!(w.block(center), Block::AIR);
        // Bedrock at y=0 is out of range, and would be indestructible anyway.
        assert_eq!(w.block(BlockPos::new(8, 0, 8)).kind(), BlockKind::Bedrock);
    }

    #[test]
    fn explosion_respects_indestructible_blocks() {
        let mut w = world();
        let center = BlockPos::new(8, 61, 8);
        let obsidian = BlockPos::new(9, 61, 8);
        w.set_block_silent(obsidian, Block::simple(BlockKind::Obsidian));
        explode(&mut w, center, 3);
        assert_eq!(w.block(obsidian).kind(), BlockKind::Obsidian);
    }

    #[test]
    fn update_budget_truncates_runaway_cascades() {
        let mut w = world();
        let sim = TerrainSimulator {
            max_updates_per_tick: 10,
            ..TerrainSimulator::default()
        };
        // Dump a large water cube in the air: the cascade exceeds the budget.
        let region = Region::new(BlockPos::new(0, 80, 0), BlockPos::new(5, 85, 5));
        for pos in region.iter().collect::<Vec<_>>() {
            w.set_block(pos, Block::simple(BlockKind::Water));
        }
        w.advance_tick();
        let (report, _) = sim.tick_with(&mut w, &mut TickScratch::new());
        assert!(report.update_budget_exhausted);
        assert!(report.neighbor_updates <= 10);
    }

    #[test]
    fn report_merge_sums_counters() {
        let mut a = TerrainTickReport {
            neighbor_updates: 5,
            blocks_added: 2,
            ..TerrainTickReport::default()
        };
        let b = TerrainTickReport {
            neighbor_updates: 3,
            light_positions: 10,
            update_budget_exhausted: true,
            ..TerrainTickReport::default()
        };
        a.merge(&b);
        assert_eq!(a.neighbor_updates, 8);
        assert_eq!(a.blocks_added, 2);
        assert_eq!(a.light_positions, 10);
        assert!(a.update_budget_exhausted);
    }

    #[test]
    fn work_units_scale_with_activity() {
        // The report only counts; pricing lives in the server's cost model.
        let quiet = TerrainTickReport::default();
        let busy = TerrainTickReport {
            neighbor_updates: 100,
            scheduled_updates: 7,
            random_ticks: 5,
            light_positions: 500,
            ..TerrainTickReport::default()
        };
        assert_eq!(quiet.total_updates(), 0);
        assert_eq!(busy.total_updates(), 112);
    }

    /// Builds a world with activity spanning several shard stripes: falling
    /// sand, spreading water, a redstone clock driving dust, and a fused
    /// TNT line — every rule family the cascade dispatches to.
    fn busy_world(seed: u64) -> World {
        let mut w = World::new(Box::new(FlatGenerator::grassland()), seed);
        w.ensure_area(ChunkPos::new(2, 0), 4);
        for x in [10, 40, 70] {
            for y in 70..74 {
                w.set_block(BlockPos::new(x, y, 8), Block::simple(BlockKind::Sand));
            }
            w.set_block(
                BlockPos::new(x + 3, 61, 20),
                Block::simple(BlockKind::Water),
            );
            let clock = BlockPos::new(x + 6, 61, 8);
            w.set_block_silent(clock, Block::with_state(BlockKind::Comparator, 2));
            for n in clock.horizontal_neighbors() {
                w.set_block_silent(n, Block::simple(BlockKind::RedstoneDust));
            }
            w.schedule_tick(clock, 1);
            for dx in 0..2 {
                let tnt = BlockPos::new(x + 9 + dx, 61, 12);
                w.set_block_silent(tnt, Block::simple(BlockKind::Tnt));
                w.schedule_tick(tnt, 3);
            }
        }
        w
    }

    fn world_digest(w: &World) -> (u64, usize, usize, usize) {
        (
            w.total_non_air_blocks(),
            w.count_kind(BlockKind::Sand),
            w.count_kind(BlockKind::Water),
            w.count_kind(BlockKind::Tnt),
        )
    }

    fn run_sharded(
        seed: u64,
        pipeline: &TickPipeline,
        ticks: u64,
    ) -> (
        Vec<TerrainTickReport>,
        Vec<TerrainEvent>,
        (u64, usize, usize, usize),
    ) {
        let sim = TerrainSimulator::new();
        let mut w = busy_world(seed);
        let mut reports = Vec::new();
        let mut events = Vec::new();
        for _ in 0..ticks {
            w.advance_tick();
            let out = sim.tick_sharded_with(&mut w, pipeline, &mut TickScratch::new());
            assert_eq!(out.per_shard_work.len(), pipeline.shards() as usize);
            reports.push(out.report);
            events.extend(out.events);
        }
        (reports, events, world_digest(&w))
    }

    #[test]
    fn sharded_tick_is_bit_identical_across_thread_counts() {
        for shards in [1, 2, 4, 8] {
            let reference = run_sharded(11, &TickPipeline::new(shards, 1), 8);
            let parallel = run_sharded(11, &TickPipeline::new(shards, 4), 8);
            assert_eq!(
                reference, parallel,
                "shards={shards} threads=4 diverged from the sequential path"
            );
        }
    }

    #[test]
    fn sharded_tick_produces_real_parallel_phase_work() {
        let sim = TerrainSimulator::new();
        let mut w = busy_world(3);
        let pipeline = TickPipeline::new(4, 2);
        let mut parallel_work = 0u64;
        let mut serial_work = 0u64;
        for _ in 0..8 {
            w.advance_tick();
            let out = sim.tick_sharded_with(&mut w, &pipeline, &mut TickScratch::new());
            parallel_work += out.per_shard_work.iter().sum::<u64>();
            serial_work += out.serial_work;
        }
        assert!(
            parallel_work > 0,
            "interior updates must reach the parallel phase"
        );
        // The busy world spans several stripes, so more than one shard sees
        // work overall (serial escalation alone would defeat the point).
        assert!(serial_work < parallel_work * 10);
    }

    #[test]
    fn single_shard_pipeline_matches_the_legacy_serial_tick() {
        let sim = TerrainSimulator::new();
        let mut legacy = busy_world(23);
        let mut sharded = busy_world(23);
        let pipeline = TickPipeline::new(1, 1);
        for _ in 0..8 {
            legacy.advance_tick();
            sharded.advance_tick();
            let (legacy_report, legacy_events) =
                sim.tick_with(&mut legacy, &mut TickScratch::new());
            let out = sim.tick_sharded_with(&mut sharded, &pipeline, &mut TickScratch::new());
            assert_eq!(legacy_report, out.report);
            assert_eq!(legacy_events, out.events);
        }
        assert_eq!(world_digest(&legacy), world_digest(&sharded));
    }

    #[test]
    fn sharded_budget_exhaustion_is_deterministic_and_preserves_fuses() {
        let sim = TerrainSimulator {
            max_updates_per_tick: 25,
            ..TerrainSimulator::default()
        };
        let run = |threads: u32| {
            let mut w = busy_world(5);
            let pipeline = TickPipeline::new(4, threads);
            let mut reports = Vec::new();
            for _ in 0..14 {
                w.advance_tick();
                reports.push(
                    sim.tick_sharded_with(&mut w, &pipeline, &mut TickScratch::new())
                        .report,
                );
            }
            (reports, world_digest(&w))
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b);
        assert!(
            a.0.iter().any(|r| r.update_budget_exhausted),
            "tiny budget must truncate the cascade"
        );
        // All scheduled TNT fuses eventually fired despite truncation.
        assert_eq!(a.1 .3, 0, "every TNT block should have ignited");
    }

    #[test]
    fn tnt_fuses_survive_a_mid_cascade_shard_migration() {
        use crate::shard::ShardLoadReport;

        // Fused TNT in chunk (1, 1) plus a water dump big enough to exhaust
        // a tiny per-tick budget for several consecutive ticks, so the
        // partition change below lands mid-cascade.
        let fuse_positions: Vec<BlockPos> = (0..4).map(|i| BlockPos::new(20 + i, 61, 20)).collect();
        let build = |fuses: &[BlockPos]| {
            let mut w = World::new(Box::new(FlatGenerator::grassland()), 99);
            w.ensure_area(ChunkPos::new(0, 0), 3);
            let region = Region::new(BlockPos::new(4, 80, 4), BlockPos::new(9, 84, 9));
            for pos in region.iter().collect::<Vec<_>>() {
                w.set_block(pos, Block::simple(BlockKind::Water));
            }
            for (i, &pos) in fuses.iter().enumerate() {
                w.set_block_silent(pos, Block::simple(BlockKind::Tnt));
                w.schedule_tick(pos, 3 + i as u64);
            }
            w
        };
        let sim = TerrainSimulator {
            max_updates_per_tick: 30,
            ..TerrainSimulator::default()
        };
        let bounds = Some((ChunkPos::new(-3, -3), ChunkPos::new(3, 3)));

        let run = |migrate: bool| {
            let mut w = build(&fuse_positions);
            let mut pipeline = TickPipeline::adaptive(bounds, 1, 2);
            let mut detonations: Vec<(u64, BlockPos)> = Vec::new();
            let mut truncated = false;
            for tick in 1..=12u64 {
                if migrate && tick == 3 {
                    // Force a split mid-cascade: the fused chunk migrates
                    // out of the lone root leaf into a quadrant shard.
                    let before = pipeline.shard_map().shard_of_chunk(ChunkPos::new(1, 1));
                    let next = pipeline
                        .shard_map()
                        .rebalanced(&ShardLoadReport::new(vec![1]), 8)
                        .expect("root leaf splits");
                    pipeline.set_map(next);
                    let after = pipeline.shard_map().shard_of_chunk(ChunkPos::new(1, 1));
                    assert_ne!(before, after, "the fused chunk must change shards");
                }
                w.advance_tick();
                let out = sim.tick_sharded_with(&mut w, &pipeline, &mut TickScratch::new());
                truncated |= out.report.update_budget_exhausted;
                for event in out.events {
                    if let TerrainEvent::TntIgnited { pos } = event {
                        detonations.push((tick, pos));
                    }
                }
            }
            assert!(truncated, "the scene must actually exhaust the budget");
            assert_eq!(w.count_kind(BlockKind::Tnt), 0, "no fuse may be lost");
            detonations.sort_unstable();
            detonations
        };

        let stable = run(false);
        let migrated = run(true);
        // Scheduled fuses are budget-exempt: every TNT detonates on its
        // exact due tick whether or not its chunk migrated mid-cascade.
        let expected: Vec<(u64, BlockPos)> = fuse_positions
            .iter()
            .enumerate()
            .map(|(i, &pos)| (3 + i as u64, pos))
            .collect();
        assert_eq!(stable, expected);
        assert_eq!(migrated, expected);
    }

    #[test]
    fn lighting_can_be_disabled() {
        let mut w = world();
        let sim = TerrainSimulator {
            eager_lighting: false,
            ..TerrainSimulator::default()
        };
        w.set_block(BlockPos::new(4, 61, 4), Block::simple(BlockKind::Stone));
        w.advance_tick();
        let (report, _) = sim.tick_with(&mut w, &mut TickScratch::new());
        assert_eq!(report.light_positions, 0);
    }
}
