//! The terrain simulator: one game tick of terrain simulation.
//!
//! This is element 5 of the paper's operational model (Figure 4): "Terrain
//! Simulation is largely independent from player input, and is instead driven
//! by terrain state updates. When a terrain state update occurs, the Terrain
//! Simulation applies its simulation rules to the new state. […] These rules
//! trigger in a loop, where each iteration informs the adjacent terrain."
//!
//! [`TerrainSimulator::tick_sharded_with`] drains the world's update queues,
//! dispatches each update to the appropriate rule module (physics, fluid,
//! redstone, growth), performs lighting recomputation for the blocks that
//! changed, and returns a [`TerrainTickReport`] describing how much work was
//! done plus any [`TerrainEvent`]s that other subsystems (entities, players)
//! must react to. It is a driver over the two shard-phase protocols of
//! [`crate::shard`] (`docs/ARCHITECTURE.md`, "The two shard-phase
//! protocols"), and the only terrain tick: a serial flavor runs it on one
//! shard, where every update is interior and the cascade is the serial
//! loop. [`TerrainSimulator::tick_with`] is that one-shard call.

use serde::{Deserialize, Serialize};

use crate::block::{Block, BlockKind};
use crate::pool::PoolScope;
use crate::pos::BlockPos;
use crate::region::Region;
use crate::scratch::{LightPassScratch, TickScratch};
use crate::shard::{RouteMemo, ShardMap, ShardWorld, TerrainView, TickPipeline};
use crate::update::{BlockUpdate, UpdateFifo, UpdateKind};
use crate::world::World;
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

/// How many random ticks each loaded chunk receives per game tick.
const RANDOM_TICKS_PER_CHUNK: u32 = 3;

/// Configuration and state of the terrain simulation stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TerrainSimulator {
    /// Safety limit on the number of block updates processed in one tick.
    /// Real servers have no such limit, but an unbounded cascade would hang
    /// the simulation; the limit is high enough that only pathological
    /// workloads (lag machines on slow nodes) ever reach it.
    max_updates_per_tick: u32,
    /// Whether lighting is recomputed eagerly for every change (vanilla
    /// behaviour) or deferred/batched (PaperMC-style optimization).
    pub eager_lighting: bool,
}

impl Default for TerrainSimulator {
    fn default() -> Self {
        TerrainSimulator {
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

    /// Runs one tick of terrain simulation over the world on one shard,
    /// recycling the caller's scratch buffers: the body of
    /// [`TerrainSimulator::tick_sharded_with`] on a one-shard map with an
    /// inline scope, so it reshards `world` to that map.
    ///
    /// Returns the work report and the events other subsystems must handle.
    pub fn tick_with(
        &self,
        world: &mut World,
        scratch: &mut TickScratch,
    ) -> (TerrainTickReport, Vec<TerrainEvent>) {
        let out = self.tick_on(world, &ShardMap::stripes(1), &PoolScope::scoped(1), scratch);
        (out.report, out.events)
    }

    /// Counts the changes logged since `changes_before` as added, removed
    /// or updated, and collects the positions to relight around (none when
    /// lighting is not eager). Classification only reads the change log, so
    /// the relight positions can be batched into one cached pass instead of
    /// interleaving.
    fn classify_changes(
        &self,
        world: &World,
        changes_before: usize,
        report: &mut TerrainTickReport,
        relight_positions: &mut Vec<BlockPos>,
    ) {
        relight_positions.clear();
        for change in &world.changes()[changes_before..] {
            match (change.old.is_air(), change.new.is_air()) {
                (true, false) => report.blocks_added += 1,
                (false, true) => report.blocks_removed += 1,
                _ => report.blocks_updated += 1,
            }
            if self.eager_lighting {
                relight_positions.push(change.pos);
            }
        }
    }

    fn dispatch<W: TerrainView>(
        &self,
        world: &mut W,
        update: BlockUpdate,
        report: &mut TerrainTickReport,
        events: &mut Vec<TerrainEvent>,
    ) {
        // The one read of the updated block; every rule is handed it.
        let block = world.block(update.pos);
        let kind = block.kind();
        report.blocks_scanned += 1;
        if physics::reacts_to_updates(kind) {
            report.blocks_scanned += u64::from(physics::apply_gravity(world, update.pos, block));
        } else if fluid::reacts_to_updates(kind) {
            let out = fluid::apply_fluid(world, update.pos, block);
            report.blocks_scanned += u64::from(out.blocks_scanned);
            report.fluid_spreads += u64::from(out.spread_to + out.solidified);
        } else if redstone::reacts_to_updates(kind) {
            let out = redstone::apply_redstone(world, update.pos, block, update.kind);
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
    /// The tick is three deterministic phases (the protocols they run on
    /// and the merge order that makes them thread-count invariant are in
    /// `docs/ARCHITECTURE.md`, "The two shard-phase protocols"):
    ///
    /// 1. **Cascade rounds.** Pending updates are routed by position:
    ///    updates whose 3×3 chunk neighbourhood lies inside one shard go to
    ///    that shard's queue and are processed in an owned phase; boundary
    ///    updates are escalated to a serial queue, processed against the
    ///    whole world after the round's merge. Cascades that re-enter shard
    ///    interiors start the next round.
    /// 2. **Random ticks.** Interior picks are applied per shard in an
    ///    owned phase (their next-tick cascades buffered and re-queued in
    ///    shard order), boundary picks serially.
    /// 3. **Classification and lighting.** The canonical change log is
    ///    classified serially; relighting is a frozen phase (per-change
    ///    relights are independent, so any partition sums identically).
    ///
    /// The result is **bit-identical at any thread count**;
    /// `pipeline.threads() == 1` is the sequential reference path. Changing
    /// the *shard count* is a modeled-architecture change (like Folia's
    /// region count) and is allowed to change scheduling.
    pub fn tick_sharded_with(
        &self,
        world: &mut World,
        pipeline: &TickPipeline,
        scratch: &mut TickScratch,
    ) -> ShardedTerrainTick {
        self.tick_on(world, pipeline.shard_map(), &pipeline.scope(), scratch)
    }

    /// The one terrain tick: [`TerrainSimulator::tick_sharded_with`] on
    /// `map`, fanned over `scope`.
    fn tick_on(
        &self,
        world: &mut World,
        map: &ShardMap,
        scope: &PoolScope<'_>,
        scratch: &mut TickScratch,
    ) -> ShardedTerrainTick {
        world.reshard_to(map);
        let changes_before = world.changes().len();
        let mut out = ShardedTerrainTick {
            report: TerrainTickReport::default(),
            events: Vec::new(),
            per_shard_work: vec![0u64; map.count()],
        };

        let mut route = RouteMemo::new(map);
        self.cascade_rounds(world, &mut route, scope, scratch, &mut out);
        self.random_ticks(world, &mut route, scope, &mut out);

        let report = &mut out.report;
        self.classify_changes(
            world,
            changes_before,
            report,
            &mut scratch.relight_positions,
        );
        report.light_positions +=
            relight_misses_frozen(world, &scratch.relight_positions, scope, &mut scratch.light);
        report.chunks_generated += u64::from(world.chunks_generated_this_tick());
        out
    }

    /// Phase 1 of the sharded tick: drains the world's due and immediate
    /// updates through rounds of (owned interior phase, serial boundary
    /// escalation) until the cascade dies out or the tick budget is spent.
    ///
    /// Updates are routed straight into their shard's coalescing FIFO (or
    /// the serial batch): the world's queue before the first round, the
    /// round's outbound, leftover and escalated updates after each. Each
    /// shard's task — FIFO, event and leftover lists — lives in the scratch
    /// arena, moves into the owned phase and back after the merge, drained
    /// but with its capacity.
    fn cascade_rounds(
        &self,
        world: &mut World,
        route: &mut RouteMemo<'_>,
        scope: &PoolScope<'_>,
        scratch: &mut TickScratch,
        out: &mut ShardedTerrainTick,
    ) {
        let tick = world.current_tick();
        let budget = u64::from(self.max_updates_per_tick);
        let mut processed_total = 0u64;
        // The workers' copy of the simulator config, handed back by every
        // round (pool jobs cannot borrow `self`).
        let mut sim = self.clone();

        scratch.next_pending.clear();
        scratch.serial_batch.clear();
        scratch
            .shard_tasks
            .resize_with(route.map().count(), TerrainShardTask::default);
        for update in world.updates_mut().pop_due(tick) {
            route_update(route, scratch, update);
        }
        while let Some(update) = world.updates_mut().pop_immediate() {
            route_update(route, scratch, update);
        }

        loop {
            let active = (scratch.shard_tasks.iter())
                .filter(|task| !task.local.is_empty())
                .count();
            if active == 0 && scratch.serial_batch.is_empty() {
                break;
            }
            if processed_total >= budget {
                let requeued = (scratch.shard_tasks.iter_mut())
                    .flat_map(|task| std::iter::from_fn(|| task.local.pop()))
                    .chain(scratch.serial_batch.drain(..));
                requeue_updates(world, requeued, tick);
                break;
            }
            // Split the remaining budget across the shards that have work
            // (each gets at least 1 so rounds always progress): without the
            // split, N shards could process N x max_updates_per_tick in one
            // round, silently inflating the per-tick budget under sharding.
            let cap = ((budget - processed_total) / active.max(1) as u64).max(1);
            let work: Vec<(usize, TerrainShardTask)> = (scratch.shard_tasks.iter_mut().enumerate())
                .filter(|(_, task)| !task.local.is_empty())
                .map(|(shard, task)| {
                    task.cap = cap;
                    task.report = TerrainTickReport::default();
                    task.processed = 0;
                    (shard, std::mem::take(task))
                })
                .collect();

            let results;
            (results, sim) = world.run_owned_phase(
                scope,
                false,
                work,
                sim,
                |view, task: &mut TerrainShardTask, sim: &TerrainSimulator| {
                    sim.process_shard_batch(view, task);
                },
            );
            for (shard, mut task, outbound) in results {
                out.report.merge(&task.report);
                out.events.append(&mut task.events);
                let outbound = outbound.into_iter().map(BlockUpdate::neighbor);
                scratch.next_pending.extend(outbound);
                scratch.next_pending.extend(task.leftover.drain(..));
                out.per_shard_work[shard] += task.processed;
                processed_total += task.processed;
                // Every queue of the task is drained by now; returning it to
                // its slot keeps their capacity for the next round and tick.
                scratch.shard_tasks[shard] = task;
            }

            // The round may have overshot: scheduled updates are exempt.
            let remaining = budget.saturating_sub(processed_total);
            processed_total += self.escalated_updates(world, route, scratch, remaining, out);
            let mut next = std::mem::take(&mut scratch.next_pending);
            for update in next.drain(..) {
                route_update(route, scratch, update);
            }
            scratch.next_pending = next;
        }
    }

    /// The serial tail of one cascade round: the escalated boundary updates
    /// in `scratch.serial_batch`, against the full world, after the round's
    /// merge. Cascades that stay on boundary chunks are processed in the
    /// same tail; the rest seed the next round. Returns how many updates
    /// were processed; neighbour updates beyond `remaining` go back to the
    /// world's queue for the next tick.
    fn escalated_updates(
        &self,
        world: &mut World,
        route: &mut RouteMemo<'_>,
        scratch: &mut TickScratch,
        remaining: u64,
        out: &mut ShardedTerrainTick,
    ) -> u64 {
        let mut processed = 0u64;
        while let Some(update) = scratch.serial_batch.pop_front() {
            // Scheduled updates stay budget-exempt here too.
            if update.kind != UpdateKind::Scheduled && processed >= remaining {
                world.push_neighbor_update(update.pos);
                continue;
            }
            match update.kind {
                UpdateKind::Scheduled => out.report.scheduled_updates += 1,
                _ => out.report.neighbor_updates += 1,
            }
            processed += 1;
            self.dispatch(world, update, &mut out.report, &mut out.events);
            while let Some(cascaded) = world.updates_mut().pop_immediate() {
                match route.interior_shard(cascaded.pos.chunk()) {
                    Some(_) => scratch.next_pending.push_back(cascaded),
                    None => scratch.serial_batch.push_back(cascaded),
                }
            }
        }
        processed
    }

    /// Phase 2 of the sharded tick: the random-tick lottery, interior picks
    /// in an owned phase, boundary picks serially afterwards.
    fn random_ticks(
        &self,
        world: &mut World,
        route: &mut RouteMemo<'_>,
        scope: &PoolScope<'_>,
        out: &mut ShardedTerrainTick,
    ) {
        let mut shard_picks: Vec<Vec<BlockPos>> = vec![Vec::new(); route.map().count()];
        let mut serial_picks: Vec<BlockPos> = Vec::new();
        for pos in world.pick_random_tick_positions(RANDOM_TICKS_PER_CHUNK) {
            match route.interior_shard(pos.chunk()) {
                Some(s) => shard_picks[s].push(pos),
                None => serial_picks.push(pos),
            }
        }
        // Per shard: its picks in, the counters of applying them out.
        let work: Vec<(usize, (Vec<BlockPos>, TerrainTickReport))> = shard_picks
            .into_iter()
            .enumerate()
            .filter(|(_, picks)| !picks.is_empty())
            .map(|(shard, picks)| (shard, (picks, TerrainTickReport::default())))
            .collect();
        // Every cascade push is deferred: growth cascades carry over to the
        // next tick, exactly like `tick_with`'s.
        let (results, ()) = world.run_owned_phase(
            scope,
            true,
            work,
            (),
            |view, (picks, report): &mut (Vec<BlockPos>, TerrainTickReport), ()| {
                for pos in std::mem::take(picks) {
                    apply_random_pick(view, pos, report);
                }
            },
        );
        for (shard, (_, report), outbound) in results {
            out.report.merge(&report);
            for pos in outbound {
                world.push_neighbor_update(pos);
            }
            out.per_shard_work[shard] += report.random_ticks;
        }
        for pos in serial_picks {
            apply_random_pick(world, pos, &mut out.report);
        }
    }

    /// Processes one shard's routed updates against its own chunks: the
    /// task's FIFO is the view's queue for the phase.
    fn process_shard_batch(&self, view: &mut ShardWorld<'_>, task: &mut TerrainShardTask) {
        std::mem::swap(&mut view.local, &mut task.local);
        while let Some(update) = view.local.pop() {
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
            self.dispatch(view, update, &mut task.report, &mut task.events);
        }
        std::mem::swap(&mut view.local, &mut task.local);
    }
}

/// Routes a cascade update into the FIFO of the shard whose interior holds
/// it, or into the serial batch.
fn route_update(route: &mut RouteMemo<'_>, scratch: &mut TickScratch, update: BlockUpdate) {
    match route.interior_shard(update.pos.chunk()) {
        Some(s) => scratch.shard_tasks[s].local.push(update),
        None => scratch.serial_batch.push_back(update),
    }
}

/// Applies one random-tick pick to `world` and counts it into `report`
/// (as work only when a plant reacts).
fn apply_random_pick<W: TerrainView>(world: &mut W, pos: BlockPos, report: &mut TerrainTickReport) {
    let kind = world.block_if_loaded(pos).kind();
    if !growth::reacts_to_random_tick(kind) {
        return;
    }
    report.random_ticks += 1;
    let outcome = growth::apply_random_tick(world, pos);
    report.blocks_scanned += u64::from(outcome.blocks_scanned);
    if outcome.grew {
        report.growths += 1;
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
    /// Updates + random ticks processed inside each shard's parallel phase;
    /// the rest of the report's [`TerrainTickReport::total_updates`] ran in
    /// the serial merge phase.
    pub per_shard_work: Vec<u64>,
}

/// One shard's share of a cascade round: the routed updates in, counters,
/// events and the updates carried to the next round out. A task lives in
/// [`TickScratch`] between rounds, so its queues keep their capacity.
#[derive(Debug, Default)]
pub(crate) struct TerrainShardTask {
    /// The shard's coalescing FIFO: updates are routed into it, and it is
    /// lent to the view for the phase (a view's own would regrow from empty
    /// every round).
    local: UpdateFifo,
    /// This round's fair share of the remaining tick budget.
    cap: u64,
    report: TerrainTickReport,
    events: Vec<TerrainEvent>,
    leftover: Vec<BlockUpdate>,
    processed: u64,
}

struct LightSliceTask {
    positions: Vec<BlockPos>,
    /// Positions visited per input position, in input order — kept
    /// per-position (not pre-summed) so the caller can memoize each result
    /// in the world's relight cache.
    results: Vec<u32>,
}

/// Relights every position in `positions` in a frozen phase over `world`
/// ([`World::run_frozen_phase`], which is why this takes `&mut World`),
/// fanning the independent per-change passes out over the given execution
/// scope, and returns the total number of positions visited.
///
/// This is the lighting stage of the sharded tick pipeline: because each
/// relight is a read-only pass over the same frozen chunks, the sum is
/// partition-invariant — the slicing can follow the worker count without
/// affecting the result. The game server also calls it directly for the
/// cross-tick *pipelined* lighting stage (positions queued by the previous
/// tick, consumed against the current chunks while the next tick's player
/// stage runs in the compute model).
///
/// The frozen view reads unloaded chunks as air: a light scan never
/// generates terrain. Scratch buffers come from the caller (the server's
/// per-tick arena).
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
        match world.cached_relight(pos) {
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
        let (slices, ()) = world.run_frozen_phase(
            scope,
            slices,
            (),
            |mut frozen, task: &mut LightSliceTask, ()| {
                task.results.reserve(task.positions.len());
                for pos in &task.positions {
                    let lr = light::relight_after_change(&mut frozen, *pos);
                    task.results.push(lr.total_positions());
                }
            },
        );
        // Fold per-position results back in input (slot) order: slicing
        // followed the worker count, but the flattened result order did not.
        let mut slot = 0usize;
        for task in &slices {
            for &count in &task.results {
                total += u64::from(count) * u64::from(scratch.miss_counts[slot]);
                world.insert_relight(scratch.misses[slot], count);
                slot += 1;
            }
        }
    }
    world.end_relight_pass();
    total
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
        // Dump a large water cube in the air: the cascade exceeds the budget.
        let neighbor_updates = |max_updates_per_tick| {
            let mut w = world();
            let region = Region::new(BlockPos::new(0, 80, 0), BlockPos::new(5, 85, 5));
            for pos in region.iter().collect::<Vec<_>>() {
                w.set_block(pos, Block::simple(BlockKind::Water));
            }
            w.advance_tick();
            let sim = TerrainSimulator {
                max_updates_per_tick,
                ..TerrainSimulator::default()
            };
            sim.tick_with(&mut w, &mut TickScratch::new())
                .0
                .neighbor_updates
        };
        assert!(neighbor_updates(10) <= 10);
        assert!(neighbor_updates(TerrainSimulator::default().max_updates_per_tick) > 10);
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
            ..TerrainTickReport::default()
        };
        a.merge(&b);
        assert_eq!(a.neighbor_updates, 8);
        assert_eq!(a.blocks_added, 2);
        assert_eq!(a.light_positions, 10);
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
    /// TNT line — every rule family the cascade dispatches to — plus two
    /// floating slabs of rootless wheat (one in a stripe interior, one on a
    /// stripe edge) thick enough that the random-tick lottery, the only
    /// thing `seed` drives, pops a few blocks of them every tick.
    fn busy_world(seed: u64) -> World {
        let mut w = World::new(Box::new(FlatGenerator::grassland()), seed);
        w.ensure_area(ChunkPos::new(2, 0), 4);
        for x0 in [16, 48] {
            let slab = Region::new(BlockPos::new(x0, 100, 32), BlockPos::new(x0 + 15, 139, 47));
            w.fill_region(slab, Block::simple(BlockKind::Wheat));
        }
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
            let shard_work = out.per_shard_work.iter().sum::<u64>();
            parallel_work += shard_work;
            serial_work += out.report.total_updates() - shard_work;
        }
        assert!(
            parallel_work > 0,
            "interior updates must reach the parallel phase"
        );
        // The busy world spans several stripes, so more than one shard sees
        // work overall (serial escalation alone would defeat the point).
        assert!(serial_work < parallel_work * 10);
    }

    /// A 3 × 3-chunk world with a sand column dropped at x = 30: every
    /// relight around it floods to within 8 blocks of the unloaded chunks
    /// east of the loaded area, which it must read as air, not generate.
    fn edge_world(seed: u64) -> World {
        let mut w = World::new(Box::new(FlatGenerator::grassland()), seed);
        w.ensure_area(ChunkPos::new(0, 0), 1);
        for y in 70..74 {
            w.set_block(BlockPos::new(30, y, 8), Block::simple(BlockKind::Sand));
        }
        w
    }

    /// The serial terrain tick every flavour ran before the one-shard
    /// pipeline replaced it, kept as the reference of
    /// `single_shard_pipeline_matches_the_legacy_serial_tick`: due updates,
    /// then the world's immediate queue until it runs dry or the budget is
    /// spent, then the random-tick lottery, all against the whole world.
    ///
    /// Two lines differ from the tick it was, and both are where the
    /// pipeline parts from it. An update waiting in the immediate queue at
    /// a position due this tick is dropped, because the pipeline's shard
    /// FIFO coalesces it into the due one
    /// (`a_position_due_and_waiting_is_dispatched_once`). And the budget is
    /// checked before the pop: the old loop popped the first update past
    /// the budget and lost it, where the pipeline sends it back to the
    /// world's queue.
    fn legacy_serial_tick(
        sim: &TerrainSimulator,
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
        // The pipeline's coalescing: a waiting update at a due position goes.
        let waiting: Vec<BlockUpdate> =
            std::iter::from_fn(|| world.updates_mut().pop_immediate()).collect();
        for update in waiting {
            if !due.iter().any(|d| d.pos == update.pos) {
                world.push_neighbor_update(update.pos);
            }
        }
        for update in due {
            report.scheduled_updates += 1;
            processed += 1;
            sim.dispatch(world, update, &mut report, &mut events);
        }

        // 2. Immediate neighbour updates, including any produced while
        //    processing — this is the cascading simulation-rule loop.
        while processed < sim.max_updates_per_tick {
            let Some(update) = world.updates_mut().pop_immediate() else {
                break;
            };
            report.neighbor_updates += 1;
            processed += 1;
            sim.dispatch(world, update, &mut report, &mut events);
        }

        // 3. Random ticks (plant growth).
        for pos in world.pick_random_tick_positions(RANDOM_TICKS_PER_CHUNK) {
            apply_random_pick(world, pos, &mut report);
        }

        // 4. Classify the changes made this tick and relight around them.
        sim.classify_changes(
            world,
            changes_before,
            &mut report,
            &mut scratch.relight_positions,
        );
        report.light_positions += relight_misses_frozen(
            world,
            &scratch.relight_positions,
            &PoolScope::scoped(1),
            &mut scratch.light,
        );

        report.chunks_generated += u64::from(world.chunks_generated_this_tick());
        (report, events)
    }

    /// Runs six ticks of `build(seed)` through the legacy serial tick and
    /// the one-shard pipeline side by side, asserting that they agree on
    /// every tick; returns the random ticks applied.
    fn assert_single_shard_matches_serial(
        sim: &TerrainSimulator,
        build: fn(u64) -> World,
        seed: u64,
    ) -> u64 {
        let mut legacy = build(seed);
        let mut sharded = build(seed);
        let pipeline = TickPipeline::new(1, 1);
        let (mut legacy_scratch, mut sharded_scratch) = (TickScratch::new(), TickScratch::new());
        let mut random_ticks = 0;
        for tick in 1..=6 {
            legacy.advance_tick();
            sharded.advance_tick();
            let (legacy_report, legacy_events) =
                legacy_serial_tick(sim, &mut legacy, &mut legacy_scratch);
            let out = sim.tick_sharded_with(&mut sharded, &pipeline, &mut sharded_scratch);
            assert_eq!(legacy_report, out.report, "tick {tick}");
            assert_eq!(legacy_events, out.events, "tick {tick}");
            assert_eq!(
                legacy.drain_changes(),
                sharded.drain_changes(),
                "tick {tick}"
            );
            random_ticks += out.report.random_ticks;
        }
        assert_eq!(world_digest(&legacy), world_digest(&sharded));
        random_ticks
    }

    proptest::proptest! {
        /// The whole-tick oracle: on one shard everything is interior, so
        /// the sharded tick must reproduce the serial tick exactly — report,
        /// events, change log and terrain — whatever the lottery picks, on
        /// a busy world and on one whose relights reach past the loaded
        /// area's edge.
        #[test]
        fn single_shard_pipeline_matches_the_legacy_serial_tick(seed in proptest::prelude::any::<u64>()) {
            // Relighting the first tick's sand and water dominates a busy
            // case and the lottery moves only a handful of those positions,
            // so only every eighth case pays for it.
            let sim = TerrainSimulator {
                eager_lighting: seed.is_multiple_of(8),
                ..TerrainSimulator::default()
            };
            let random_ticks = assert_single_shard_matches_serial(&sim, busy_world, seed);
            assert!(random_ticks > 0, "the lottery must reach the wheat");
            assert_single_shard_matches_serial(&TerrainSimulator::default(), edge_world, seed);
        }
    }

    /// The oracle past the tick budget: on one shard the neighbour updates
    /// a spent budget leaves over travel through the round's leftovers and
    /// back to the world's queue, where the serial tick left them waiting.
    /// A budget below a tick's due updates also holds the scheduled ones
    /// to their exemption (tick 3 fires six fuses and three clocks).
    #[test]
    fn single_shard_pipeline_matches_the_legacy_serial_tick_past_the_budget() {
        for max_updates_per_tick in [4, 25] {
            let sim = TerrainSimulator {
                max_updates_per_tick,
                eager_lighting: false,
            };
            let mut w = busy_world(0);
            w.advance_tick();
            let (first, _) = sim.tick_with(&mut w, &mut TickScratch::new());
            let spent = first.neighbor_updates + first.scheduled_updates;
            assert_eq!(
                spent,
                u64::from(max_updates_per_tick),
                "the first tick spends the budget"
            );
            for seed in 0..8 {
                assert_single_shard_matches_serial(&sim, busy_world, seed);
            }
        }
    }

    /// A position due a scheduled tick that also waits in the world's
    /// immediate queue at tick start is dispatched once, as scheduled: the
    /// pipeline routes both into one shard FIFO, which coalesces them by
    /// position — on one shard (`tick_with`, a serial flavor's tick) as on
    /// four (Folia's, where the position is interior). The serial tick the
    /// pipeline replaced dispatched it from each queue.
    #[test]
    fn a_position_due_and_waiting_is_dispatched_once() {
        let pos = BlockPos::new(20, 61, 4);
        assert!(ShardMap::stripes(4).interior_shard_of_block(pos).is_some());
        for kind in [BlockKind::Sand, BlockKind::RedstoneDust, BlockKind::Stone] {
            let build = || {
                let mut w = world();
                w.ensure_area(ChunkPos::new(1, 0), 2);
                w.set_block_silent(pos, Block::simple(kind));
                w.schedule_tick(pos, 1);
                w.push_neighbor_update(pos);
                w.advance_tick();
                w
            };
            let sim = TerrainSimulator::default();
            let (mut one, mut four) = (build(), build());
            let (report, events) = sim.tick_with(&mut one, &mut TickScratch::new());
            assert_eq!(
                (report.scheduled_updates, report.neighbor_updates),
                (1, 0),
                "{kind:?}"
            );
            let four_out =
                sim.tick_sharded_with(&mut four, &TickPipeline::new(4, 1), &mut TickScratch::new());
            assert_eq!(
                (four_out.report, four_out.events),
                (report, events),
                "{kind:?}"
            );
            assert_eq!(four.drain_changes(), one.drain_changes(), "{kind:?}");
        }
    }

    #[test]
    fn sharded_budget_exhaustion_is_deterministic_and_preserves_fuses() {
        let sim = TerrainSimulator {
            max_updates_per_tick: 25,
            ..TerrainSimulator::default()
        };
        let run = |sim: &TerrainSimulator, threads: u32| {
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
        let a = run(&sim, 1);
        let b = run(&sim, 4);
        assert_eq!(a, b);
        let unbounded = run(&TerrainSimulator::default(), 1);
        assert_ne!(a.0, unbounded.0, "tiny budget must truncate the cascade");
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
            let mut pipeline = TickPipeline::adaptive(bounds, 2, 2);
            let mut detonations: Vec<(u64, BlockPos)> = Vec::new();
            let mut truncated = false;
            for tick in 1..=12u64 {
                if migrate && tick == 3 {
                    // Force a split mid-cascade: the fused chunk migrates
                    // out of the lone root leaf into a quadrant shard.
                    let before = pipeline.shard_map().shard_of_chunk(ChunkPos::new(1, 1));
                    assert!(
                        pipeline.apply_load_report(&ShardLoadReport::new(vec![1])),
                        "root leaf splits"
                    );
                    let after = pipeline.shard_map().shard_of_chunk(ChunkPos::new(1, 1));
                    assert_ne!(before, after, "the fused chunk must change shards");
                }
                w.advance_tick();
                let out = sim.tick_sharded_with(&mut w, &pipeline, &mut TickScratch::new());
                let processed = out.report.neighbor_updates + out.report.scheduled_updates;
                truncated |= processed >= u64::from(sim.max_updates_per_tick);
                for event in out.events {
                    if let TerrainEvent::TntIgnited { pos } = event {
                        detonations.push((tick, pos));
                    }
                }
            }
            assert!(truncated, "the scene must actually reach the budget");
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
