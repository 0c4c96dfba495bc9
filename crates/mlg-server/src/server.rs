//! The game server and its 20 Hz game loop.

use std::collections::BTreeMap;
use std::sync::Arc;

use cloud_sim::engine::{ComputeEngine, StageWork};
use meterstick_metrics::distribution::TickDistribution;
use meterstick_metrics::trace::TickRecord;
use mlg_entity::{EntityId, EntityKind, EntityManager, Vec3};
use mlg_protocol::{ClientboundPacket, ServerboundPacket, TrafficAccountant, TrafficSummary};
use mlg_world::pool::TickWorkerPool;
use mlg_world::shard::{ShardLoadReport, TickPipeline};
use mlg_world::sim::{self, TerrainEvent};
use mlg_world::{BlockKind, BlockPos, TerrainSimulator, TickScratch, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::ServerConfig;
use crate::flavor::FlavorProfile;
use crate::handler::{self, PlayerStageReport};
use crate::player::{ConnectedPlayer, PlayerId};
use crate::queues::{NetworkingQueues, PacketRecipients};

/// Why and when a server run aborted.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerCrash {
    /// Human-readable reason.
    pub reason: String,
    /// Tick index at which the crash happened.
    pub at_tick: u64,
    /// Virtual time of the crash, in milliseconds.
    pub at_ms: f64,
}

/// Per-stage busy-time breakdown of one tick under the stage-parallel tick
/// graph: each stage's contribution to the tick's critical path (its serial
/// part plus its Amdahl parallel phase), in milliseconds.
///
/// A *pipelined* lighting stage contributes (near) zero here by design —
/// its work overlaps the rest of the tick on idle cores and only surfaces
/// in `other_ms` when the node has no slack to hide it. The breakdown sums
/// to the tick's busy time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickStageBreakdown {
    /// Stage 1: player handler (action processing + connection upkeep).
    pub player_ms: f64,
    /// Stage 2: terrain simulation (update cascades, random ticks, chunk
    /// generation).
    pub terrain_ms: f64,
    /// Stage 3: entity simulation.
    pub entity_ms: f64,
    /// Lighting stage (eager mode only; ~0 when pipelined).
    pub lighting_ms: f64,
    /// Stage 4: state-update dissemination (packet assembly + broadcast).
    pub dissemination_ms: f64,
    /// Everything else: GC, fixed overhead, and any offloaded work that
    /// spilled past the tick's idle-core slack.
    pub other_ms: f64,
}

impl TickStageBreakdown {
    /// Adds another breakdown's stage times into this one (used to total
    /// per-tick breakdowns over an iteration).
    pub fn accumulate(&mut self, other: &TickStageBreakdown) {
        self.player_ms += other.player_ms;
        self.terrain_ms += other.terrain_ms;
        self.entity_ms += other.entity_ms;
        self.lighting_ms += other.lighting_ms;
        self.dissemination_ms += other.dissemination_ms;
        self.other_ms += other.other_ms;
    }

    /// Sum of all stage contributions (equals the tick's busy time).
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.player_ms
            + self.terrain_ms
            + self.entity_ms
            + self.lighting_ms
            + self.dissemination_ms
            + self.other_ms
    }
}

/// Summary of one executed game tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TickSummary {
    /// The metric record for this tick (busy time, period, distribution).
    pub record: TickRecord,
    /// Virtual time at which the tick started.
    pub start_ms: f64,
    /// Virtual time at which the tick ended (start + period).
    pub end_ms: f64,
    /// Number of live entities after the tick.
    pub entity_count: usize,
    /// Number of connected (non-disconnected) players.
    pub player_count: usize,
    /// Number of clientbound packets emitted during the tick (all players).
    pub packets_emitted: u64,
    /// Bytes received from clients during the tick.
    pub bytes_received: u64,
    /// CPU utilization reported by the compute engine for this tick.
    pub cpu_utilization: f64,
    /// Whether chat echoes emitted this tick were handled asynchronously
    /// (PaperMC behaviour) and therefore do not wait for the tick to finish.
    pub async_chat: bool,
    /// The busiest shard's share of this tick's parallelizable work, in
    /// work units, summed over the sharded stages (player, terrain,
    /// entity) — the load-balance floors the compute engine applied (0 on
    /// the serial path). Adaptive rebalancing exists to shrink this number
    /// under hotspot workloads.
    pub max_shard_work: u64,
    /// Per-stage busy-time breakdown of this tick.
    pub stages: TickStageBreakdown,
    /// Set when the server crashed during this tick.
    pub crash: Option<ServerCrash>,
}

impl TickSummary {
    /// The tick's computation time in milliseconds (shorthand for
    /// `record.busy_ms`; live observers read this every tick).
    #[must_use]
    pub fn busy_ms(&self) -> f64 {
        self.record.busy_ms
    }

    /// The full tick period in milliseconds (`max(busy, budget)` plus any
    /// catch-up backlog).
    #[must_use]
    pub fn period_ms(&self) -> f64 {
        self.record.period_ms
    }

    /// `true` when computation overran `budget_ms` — the per-tick predicate
    /// the paper's ISR counts and the daemon's tick-overload alert fires
    /// on.
    #[must_use]
    pub fn is_overloaded(&self, budget_ms: f64) -> bool {
        self.record.busy_ms > budget_ms
    }
}

/// The Minecraft-like game server.
pub struct GameServer {
    config: ServerConfig,
    profile: FlavorProfile,
    pipeline: TickPipeline,
    /// The server's persistent tick worker pool: `tick_threads - 1` parked
    /// workers spawned once here and reused by every parallel phase of
    /// every tick (the pipeline holds a shared handle). `None` when
    /// `tick_threads <= 1` (phases run inline). Dropped — and its workers
    /// joined — with the server.
    pool: Option<Arc<TickWorkerPool>>,
    world: World,
    terrain: TerrainSimulator,
    entities: EntityManager,
    players: Vec<ConnectedPlayer>,
    queues: NetworkingQueues,
    traffic: TrafficAccountant,
    spawn_point: Vec3,
    next_player_id: u32,
    tick_index: u64,
    clock_ms: f64,
    pending_join_chunks: u64,
    ms_since_keepalive: f64,
    crash: Option<ServerCrash>,
    gc_rng: StdRng,
    next_minor_gc_tick: u64,
    next_major_gc_tick: u64,
    /// Whether lighting runs eagerly inside the terrain stage (resolved
    /// from the flavor profile and the [`ServerConfig::eager_lighting`]
    /// override). When `false`, relight positions queue in
    /// `pending_relight` and are consumed by the next tick's pipelined
    /// lighting stage.
    eager_lighting: bool,
    /// Whether the dissemination stage filters positioned packets through
    /// per-player areas of interest (resolved from the flavor profile and
    /// the [`ServerConfig::aoi_dissemination`] override). When `false`,
    /// every packet is broadcast to every connection.
    aoi_dissemination: bool,
    /// Terrain-change positions awaiting the cross-tick pipelined lighting
    /// stage (empty under eager lighting).
    pending_relight: Vec<BlockPos>,
    /// Reused dissemination buffer: the tick's broadcast packets are
    /// assembled here and flushed with one `broadcast_many` call, so the
    /// hot path allocates no per-packet vectors.
    broadcast_buf: Vec<ClientboundPacket>,
    /// Per-tick scratch arena for the terrain/lighting stages: cascade
    /// queues, shard batches, relight buffers and flood state, recycled
    /// across ticks (see `mlg_world::scratch`). Together with
    /// `broadcast_buf` this is the server's whole steady-state tick arena.
    scratch: TickScratch,
}

/// Base cost, in work units, of keeping one player connected for one tick:
/// visibility-set maintenance, entity tracking, packet compression and
/// connection upkeep. This is what makes the 25-player Players workload
/// meaningfully heavier than a single observer.
const PER_PLAYER_TICK_WORK: u64 = 3_000;

/// Ticks between minor garbage-collection pauses of the simulated JVM.
const MINOR_GC_INTERVAL_TICKS: u64 = 180;

/// Ticks between major garbage-collection pauses of the simulated JVM.
const MAJOR_GC_INTERVAL_TICKS: u64 = 900;

impl std::fmt::Debug for GameServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GameServer")
            .field("flavor", &self.config.flavor)
            .field("tick", &self.tick_index)
            .field("players", &self.players.len())
            .field("entities", &self.entities.count())
            .field("crashed", &self.crash.is_some())
            .finish()
    }
}

impl GameServer {
    /// Creates a server running `config` over a pre-built world (usually one
    /// of the Meterstick workload worlds), with players spawning at
    /// `spawn_point`.
    #[must_use]
    pub fn new(config: ServerConfig, mut world: World, spawn_point: Vec3) -> Self {
        let profile = config.flavor.profile();
        // One persistent worker pool per server: spawned here, shared with
        // the pipeline, shut down (workers joined) when the server drops.
        let pool =
            (config.tick_threads > 1).then(|| Arc::new(TickWorkerPool::new(config.tick_threads)));
        let mut pipeline = build_pipeline(&profile, &config, &world);
        if let Some(pool) = &pool {
            pipeline.attach_pool(Arc::clone(pool));
        }
        if pipeline.is_sharded() {
            world.reshard(pipeline.shard_map().clone());
        }
        let mut entities = EntityManager::new(config.seed ^ 0xE47);
        entities.natural_spawning = config.natural_spawning;
        entities.max_tnt_per_tick = profile.max_tnt_per_tick;
        let eager_lighting = config.eager_lighting.unwrap_or(profile.eager_lighting);
        let aoi_dissemination = config
            .aoi_dissemination
            .unwrap_or(profile.aoi_dissemination);
        let terrain = TerrainSimulator {
            random_ticks_per_chunk: config.random_ticks_per_chunk,
            eager_lighting,
            ..TerrainSimulator::default()
        };
        let gc_seed = config.seed ^ 0x6C;
        GameServer {
            config,
            profile,
            pipeline,
            pool,
            world,
            terrain,
            entities,
            players: Vec::new(),
            queues: NetworkingQueues::new(),
            traffic: TrafficAccountant::new(),
            spawn_point,
            next_player_id: 1,
            tick_index: 0,
            clock_ms: 0.0,
            pending_join_chunks: 0,
            ms_since_keepalive: 0.0,
            crash: None,
            gc_rng: StdRng::seed_from_u64(gc_seed),
            next_minor_gc_tick: MINOR_GC_INTERVAL_TICKS,
            next_major_gc_tick: MAJOR_GC_INTERVAL_TICKS,
            eager_lighting,
            aoi_dissemination,
            pending_relight: Vec::new(),
            broadcast_buf: Vec::new(),
            scratch: TickScratch::new(),
        }
    }

    /// The server configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The flavor performance profile in effect.
    #[must_use]
    pub fn profile(&self) -> &FlavorProfile {
        &self.profile
    }

    /// Overrides the flavor profile (used by ablation benchmarks to toggle
    /// individual optimizations).
    pub fn set_profile(&mut self, profile: FlavorProfile) {
        self.entities.max_tnt_per_tick = profile.max_tnt_per_tick;
        self.pipeline = build_pipeline(&profile, &self.config, &self.world);
        if let Some(pool) = &self.pool {
            self.pipeline.attach_pool(Arc::clone(pool));
        }
        if self.pipeline.is_sharded() {
            self.world.reshard(self.pipeline.shard_map().clone());
        }
        self.eager_lighting = self.config.eager_lighting.unwrap_or(profile.eager_lighting);
        self.aoi_dissemination = self
            .config
            .aoi_dissemination
            .unwrap_or(profile.aoi_dissemination);
        self.terrain.eager_lighting = self.eager_lighting;
        if self.eager_lighting {
            // An eager server never runs the pipelined stage; drop any
            // queue carried over from a previous profile.
            self.pending_relight.clear();
        }
        self.profile = profile;
    }

    /// Whether lighting runs eagerly inside the terrain stage (`false` =
    /// the cross-tick pipelined lighting stage is active).
    #[must_use]
    pub fn eager_lighting(&self) -> bool {
        self.eager_lighting
    }

    /// Whether the dissemination stage filters positioned packets through
    /// per-player areas of interest (`false` = classic full broadcast).
    #[must_use]
    pub fn aoi_dissemination(&self) -> bool {
        self.aoi_dissemination
    }

    /// Number of terrain changes queued for the next tick's pipelined
    /// lighting stage (always 0 under eager lighting).
    #[must_use]
    pub fn pending_relight_len(&self) -> usize {
        self.pending_relight.len()
    }

    /// The tick-pipeline execution configuration in effect.
    #[must_use]
    pub fn pipeline(&self) -> &TickPipeline {
        &self.pipeline
    }

    /// Read access to the world (for workload validation and tests).
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the world (used by workload setup, e.g. fusing TNT).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Current virtual time in milliseconds.
    #[must_use]
    pub fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Number of ticks executed so far.
    #[must_use]
    pub fn ticks_executed(&self) -> u64 {
        self.tick_index
    }

    /// Number of live entities.
    #[must_use]
    pub fn entity_count(&self) -> usize {
        self.entities.count()
    }

    /// The crash record, if the server aborted.
    #[must_use]
    pub fn crash(&self) -> Option<&ServerCrash> {
        self.crash.as_ref()
    }

    /// Returns `true` while the server can keep ticking.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.crash.is_none()
    }

    /// Accumulated clientbound traffic summary (Table 8 source data).
    #[must_use]
    pub fn traffic_summary(&self) -> &TrafficSummary {
        self.traffic.summary()
    }

    /// Connects a new player and returns its id.
    ///
    /// Connection streams the spawn area to the client (chunk generation and
    /// chunk-data packets), which is the work burst behind the paper's
    /// observation that response-time outliers "occur directly after a player
    /// connects".
    pub fn connect_player(&mut self, name: &str) -> PlayerId {
        let spawn = self.spawn_point;
        self.connect_player_at(name, spawn)
    }

    /// Connects a new player at an explicit position and returns its id.
    ///
    /// Identical to [`GameServer::connect_player`] except the player spawns
    /// (and has its view-distance area streamed) at `pos` instead of the
    /// server's spawn point. Scaled workloads use this to scatter a large
    /// bot population over the world, so per-player join streaming and
    /// interest sets are anchored where each bot actually lives.
    pub fn connect_player_at(&mut self, name: &str, pos: Vec3) -> PlayerId {
        let id = PlayerId(self.next_player_id);
        self.next_player_id += 1;
        let entity_id = EntityId(u64::from(id.0) | 0x4000_0000);
        let player = ConnectedPlayer {
            id,
            entity_id,
            name: name.to_string(),
            pos,
            connected_at_tick: self.tick_index,
            last_served_ms: self.clock_ms,
            disconnected: false,
        };
        self.queues.add_connection(id);

        // Stream the spawn area in one walk of the view square: generate each
        // missing chunk, size it and queue its chunk-data packet behind the
        // login. The join's terrain traffic is recorded as one batch.
        let center = player.pos.block_pos().chunk();
        let login = ClientboundPacket::LoginAccepted {
            player_id: entity_id,
            spawn: player.pos,
        };
        self.traffic.record(&login, 1);
        let generated_before = self.world.chunks_generated_this_tick();
        let mut payload_total = 0;
        let chunks = center.square(self.config.view_distance).map(|pos| {
            let payload_bytes = self.world.ensure_chunk(pos).network_size_bytes() as u32;
            payload_total += u64::from(payload_bytes);
            ClientboundPacket::ChunkData { pos, payload_bytes }
        });
        let chunk_count = chunks.len() as u64;
        self.queues
            .extend_outgoing(id, std::iter::once(login).chain(chunks));
        self.traffic.record_chunk_data(chunk_count, payload_total);
        let generated = self.world.chunks_generated_this_tick() - generated_before;
        self.pending_join_chunks += u64::from(generated);
        self.players.push(player);
        id
    }

    /// Number of connected, non-disconnected players.
    #[must_use]
    pub fn player_count(&self) -> usize {
        self.players.iter().filter(|p| !p.disconnected).count()
    }

    /// Returns the connected player with the given id, if any.
    #[must_use]
    pub fn player(&self, id: PlayerId) -> Option<&ConnectedPlayer> {
        self.players.iter().find(|p| p.id == id)
    }

    /// Buffers a serverbound packet from `player` into the networking queues.
    pub fn enqueue_packet(&mut self, player: PlayerId, packet: ServerboundPacket) {
        self.queues.push_incoming(player, packet);
    }

    /// Drains the clientbound packets queued for `player`.
    pub fn drain_outgoing(&mut self, player: PlayerId) -> Vec<ClientboundPacket> {
        self.queues.drain_outgoing(player)
    }

    /// Schedules every TNT block currently loaded in the world to ignite
    /// `delay_ticks` from now. Used by the TNT workload ("set to explode
    /// around 20 seconds after a player connects").
    pub fn schedule_tnt_ignition(&mut self, delay_ticks: u64) -> usize {
        let mut positions = Vec::new();
        for chunk in self.world.iter_chunks() {
            let origin = chunk.pos().origin_block();
            for (lx, y, lz, block) in chunk.iter_non_air() {
                if block.kind() == BlockKind::Tnt {
                    positions.push(mlg_world::BlockPos::new(
                        origin.x + lx as i32,
                        y,
                        origin.z + lz as i32,
                    ));
                }
            }
        }
        for &pos in &positions {
            self.world.schedule_tick(pos, delay_ticks);
        }
        positions.len()
    }

    /// Spawns an entity directly (used by workload setup, e.g. villagers in
    /// farm worlds).
    pub fn spawn_entity(&mut self, kind: EntityKind, pos: Vec3) -> EntityId {
        self.entities.spawn(kind, pos)
    }

    fn handle_terrain_events(
        &mut self,
        events: Vec<TerrainEvent>,
    ) -> Vec<(EntityId, EntityKind, Vec3)> {
        let mut spawned = Vec::new();
        for event in events {
            match event {
                TerrainEvent::TntIgnited { pos } => {
                    let p = Vec3::from_block_center(pos);
                    let id = self.entities.spawn(EntityKind::PrimedTnt, p);
                    spawned.push((id, EntityKind::PrimedTnt, p));
                }
                TerrainEvent::BlockHarvested { pos, kind } => {
                    let p = Vec3::from_block_center(pos);
                    let id = self.entities.spawn(EntityKind::Item(kind), p);
                    spawned.push((id, EntityKind::Item(kind), p));
                }
                TerrainEvent::ItemDispensed { pos } => {
                    let p = Vec3::from_block_center(pos.up());
                    let id = self
                        .entities
                        .spawn(EntityKind::Item(BlockKind::Cobblestone), p);
                    spawned.push((id, EntityKind::Item(BlockKind::Cobblestone), p));
                }
            }
        }
        spawned
    }

    /// Runs one game tick, converting its work into time on the given compute
    /// engine, and returns the tick summary.
    ///
    /// Returns the last crash summary again (without doing any work) if the
    /// server has already crashed.
    pub fn run_tick(&mut self, engine: &mut ComputeEngine) -> TickSummary {
        let start_ms = self.clock_ms;
        if let Some(crash) = &self.crash {
            return TickSummary {
                record: TickRecord {
                    index: self.tick_index,
                    start_ms,
                    busy_ms: 0.0,
                    period_ms: self.config.tick_budget_ms,
                    distribution: TickDistribution::default(),
                },
                start_ms,
                end_ms: start_ms + self.config.tick_budget_ms,
                entity_count: self.entities.count(),
                player_count: 0,
                packets_emitted: 0,
                bytes_received: 0,
                cpu_utilization: 0.0,
                async_chat: self.profile.async_chat,
                max_shard_work: 0,
                stages: TickStageBreakdown::default(),
                crash: Some(crash.clone()),
            };
        }

        self.tick_index += 1;
        self.world.advance_tick();

        // --- Stage 0: pipelined lighting ---------------------------------
        // Under pipelined lighting (`eager_lighting = false`) the previous
        // tick queued its terrain-change positions; relight them now over a
        // frozen snapshot of the world at tick start. In the compute model
        // this work is fully offloadable — it overlaps this tick's player
        // stage on idle cores — which is the cross-tick pipelining win.
        let pipelined_light_positions = if self.eager_lighting || self.pending_relight.is_empty() {
            0
        } else {
            let mut positions = std::mem::take(&mut self.pending_relight);
            let visited = sim::relight_positions_frozen_with(
                &mut self.world,
                &positions,
                &self.pipeline.scope(),
                &mut self.scratch,
            );
            // Hand the (cleared) queue back so its capacity survives to the
            // next tick instead of re-growing from empty.
            positions.clear();
            self.pending_relight = positions;
            visited
        };

        // --- Stage 1: player handler -------------------------------------
        // Sharded pipelines batch players by owning shard and process the
        // interior batches in parallel (boundary players escalate to a
        // serial tail — see `handler::process_players_sharded`); serial
        // flavors keep the classic per-player loop. Either way the queues
        // are drained once, in player order.
        let mut bytes_received = 0u64;
        let (player_report, player_shard_work) = if self.pipeline.is_sharded() {
            let players = std::mem::take(&mut self.players);
            let mut actions: Vec<Vec<ServerboundPacket>> = Vec::with_capacity(players.len());
            for player in &players {
                if player.disconnected {
                    actions.push(Vec::new());
                    continue;
                }
                let queue = self.queues.drain_incoming(player.id);
                bytes_received += queue
                    .iter()
                    .map(|a| mlg_protocol::codec::serverbound_wire_size(a) as u64)
                    .sum::<u64>();
                actions.push(queue);
            }
            let (players, stage) =
                handler::process_players_sharded(&mut self.world, players, actions, &self.pipeline);
            self.players = players;
            (stage.report, Some(stage.per_shard_work))
        } else {
            let mut report = PlayerStageReport::default();
            // Index connected players once: iterating ids and re-scanning
            // the player list per id was O(P²) per tick.
            let connected: Vec<usize> = self
                .players
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.disconnected)
                .map(|(index, _)| index)
                .collect();
            for index in connected {
                let id = self.players[index].id;
                let actions = self.queues.drain_incoming(id);
                bytes_received += actions
                    .iter()
                    .map(|a| mlg_protocol::codec::serverbound_wire_size(a) as u64)
                    .sum::<u64>();
                handler::process_player_actions(
                    &mut self.world,
                    &mut self.players[index],
                    actions,
                    &mut report,
                );
            }
            (report, None)
        };

        // Player-stage block edits feed the lighting stage too (the
        // paper's workloads never place blocks, but the Crowd workload
        // does): relit immediately over a frozen post-player-stage
        // snapshot under eager lighting, queued for the next tick's
        // pipelined stage otherwise. The change log is empty at tick start
        // (stage 4 drains it), so everything in it here came from stage 1.
        let player_light_positions = if self.world.changes().is_empty() {
            0
        } else if self.eager_lighting {
            let positions: Vec<BlockPos> = self
                .world
                .changes()
                .iter()
                .map(|change| change.pos)
                .collect();
            sim::relight_positions_frozen_with(
                &mut self.world,
                &positions,
                &self.pipeline.scope(),
                &mut self.scratch,
            )
        } else {
            self.pending_relight
                .extend(self.world.changes().iter().map(|change| change.pos));
            0
        };

        // --- Stage 2: terrain simulation ----------------------------------
        let relight_from = self.world.changes().len();
        let (terrain_report, terrain_events, terrain_shard_work) = if self.pipeline.is_sharded() {
            let out =
                self.terrain
                    .tick_sharded_with(&mut self.world, &self.pipeline, &mut self.scratch);
            (out.report, out.events, Some(out.per_shard_work))
        } else {
            let (report, events) = self.terrain.tick_with(&mut self.world, &mut self.scratch);
            (report, events, None)
        };
        if !self.eager_lighting {
            // Queue this tick's terrain changes for the next tick's
            // pipelined lighting stage (the same set the eager path relights
            // in-stage; player- and entity-stage changes are excluded on
            // both paths).
            self.pending_relight.extend(
                self.world.changes()[relight_from..]
                    .iter()
                    .map(|change| change.pos),
            );
        }
        let event_spawns = self.handle_terrain_events(terrain_events);

        // --- Stage 3: entity simulation -----------------------------------
        let player_positions = handler::player_positions(&self.players);
        let (entity_report, entity_shard_work) = if self.pipeline.is_sharded() {
            let (report, per_shard) =
                self.entities
                    .tick_batched(&mut self.world, &player_positions, &self.pipeline);
            (report, Some(per_shard))
        } else {
            let report = self.entities.tick(&mut self.world, &player_positions);
            (report, None)
        };

        // --- Stage 4: state-update dissemination --------------------------
        // Every broadcast of this tick is assembled into one reused,
        // pre-sized buffer — in canonical order — and flushed with a single
        // batched `broadcast_many` + `record_many` pair instead of a
        // per-packet traversal of the connection map.
        let mut packets_emitted = 0u64;
        let recipients = self.player_count() as u64;
        let changes = self.world.drain_changes();
        let mut packets = std::mem::take(&mut self.broadcast_buf);
        packets.clear();
        if recipients > 0 {
            packets.reserve(
                recipients as usize
                    + changes.len()
                    + event_spawns.len()
                    + entity_report.spawned.len()
                    + entity_report.moved.len()
                    + entity_report.removed.len()
                    + player_report.pending_chat.len()
                    + 2,
            );
            // Player position synchronisation: every connected player's
            // position is broadcast each tick (entity-related traffic, which
            // is why Table 8 shows entity messages dominating even the
            // Control workload). Sharded pipelines assemble these per shard
            // — canonical shard order, player order within a shard —
            // mirroring how the player stage batches its work.
            if self.pipeline.is_sharded() {
                let map = self.pipeline.shard_map();
                let mut keyed: Vec<(usize, usize)> = self
                    .players
                    .iter()
                    .enumerate()
                    .filter(|(_, pl)| !pl.disconnected)
                    .map(|(index, pl)| (map.shard_of_chunk(pl.chunk()), index))
                    .collect();
                keyed.sort_unstable();
                for (_, index) in keyed {
                    let pl = &self.players[index];
                    packets.push(ClientboundPacket::EntityMove {
                        id: pl.entity_id,
                        pos: pl.pos,
                    });
                }
            } else {
                for pl in self.players.iter().filter(|pl| !pl.disconnected) {
                    packets.push(ClientboundPacket::EntityMove {
                        id: pl.entity_id,
                        pos: pl.pos,
                    });
                }
            }
            for change in &changes {
                packets.push(ClientboundPacket::BlockChange {
                    pos: change.pos,
                    block: change.new,
                });
            }
            for (id, kind, pos) in &event_spawns {
                packets.push(ClientboundPacket::EntitySpawn {
                    id: *id,
                    kind_id: entity_kind_id(*kind),
                    pos: *pos,
                });
            }
            for (id, kind) in &entity_report.spawned {
                packets.push(ClientboundPacket::EntitySpawn {
                    id: *id,
                    kind_id: entity_kind_id(*kind),
                    pos: self.spawn_point,
                });
            }
            for (id, pos) in &entity_report.moved {
                packets.push(ClientboundPacket::EntityMove { id: *id, pos: *pos });
            }
            for id in &entity_report.removed {
                packets.push(ClientboundPacket::EntityDestroy { id: *id });
            }
            for chat in &player_report.pending_chat {
                packets.push(ClientboundPacket::Chat {
                    message: format!("<{}> {}", chat.sender, chat.message),
                    echo_of_ms: chat.sent_at_ms,
                });
            }
            if self.tick_index.is_multiple_of(20) {
                packets.push(ClientboundPacket::TimeUpdate {
                    world_age_ticks: self.tick_index,
                });
            }
            if self.tick_index.is_multiple_of(100) {
                packets.push(ClientboundPacket::KeepAlive {
                    id: self.tick_index,
                });
            }
            if self.aoi_dissemination {
                // Area-of-interest dissemination: positioned packets reach
                // only the players whose view distance covers the event, so
                // the stage's cost scales with the summed interest-set
                // sizes (Σ|AoI|) instead of packets × players. Packets
                // without a position anchor (chat, time, keep-alives,
                // entity removal) stay global. Interest sets are computed
                // by hashing viewers into a coarse grid of radius-sized
                // cells and distance-testing the 3×3 cell neighborhood of
                // each packet's anchor, so a scaled population never pays a
                // full viewer scan per packet. Viewers land in the buckets
                // in ascending connection order (players are appended with
                // monotonically increasing ids) and cells are scanned in a
                // fixed order, keeping every interest set deterministic.
                let radius = f64::from(self.config.view_distance) * 16.0;
                let radius_sq = radius * radius;
                let cell = radius.max(1.0);
                let viewers: Vec<(PlayerId, Vec3)> = self
                    .players
                    .iter()
                    .filter(|pl| !pl.disconnected)
                    .map(|pl| (pl.id, pl.pos))
                    .collect();
                let mut buckets: BTreeMap<(i64, i64), Vec<usize>> = BTreeMap::new();
                for (index, (_, pos)) in viewers.iter().enumerate() {
                    let key = ((pos.x / cell).floor() as i64, (pos.z / cell).floor() as i64);
                    buckets.entry(key).or_default().push(index);
                }
                let interest: Vec<Option<Vec<PlayerId>>> = packets
                    .iter()
                    .map(|packet| {
                        packet_position(packet).map(|pos| {
                            let cx = (pos.x / cell).floor() as i64;
                            let cz = (pos.z / cell).floor() as i64;
                            let mut set = Vec::new();
                            for dx in -1..=1 {
                                for dz in -1..=1 {
                                    let Some(bucket) = buckets.get(&(cx + dx, cz + dz)) else {
                                        continue;
                                    };
                                    for &viewer in bucket {
                                        let (id, viewer_pos) = viewers[viewer];
                                        let ddx = viewer_pos.x - pos.x;
                                        let ddz = viewer_pos.z - pos.z;
                                        if ddx * ddx + ddz * ddz <= radius_sq {
                                            set.push(id);
                                        }
                                    }
                                }
                            }
                            set
                        })
                    })
                    .collect();
                packets_emitted =
                    self.queues
                        .multicast_many(&packets, |index| match &interest[index] {
                            None => PacketRecipients::All,
                            Some(set) => PacketRecipients::Only(set),
                        });
                // Per-packet recipient counts feed the accountant so the
                // traffic metrics reflect delivered bytes, not assembled
                // ones. When every viewer is in range of everything this
                // degenerates to exactly `record_many(&packets, recipients)`.
                for (packet, list) in packets.iter().zip(&interest) {
                    let count = match list {
                        None => recipients,
                        Some(set) => set.len() as u64,
                    };
                    if count > 0 {
                        self.traffic.record(packet, count);
                    }
                }
            } else {
                self.traffic.record_many(&packets, recipients);
                packets_emitted = self.queues.broadcast_many(&packets);
            }
        }
        self.broadcast_buf = packets;

        // --- Stage 5: work accounting and time conversion ------------------
        // Each stage of the tick graph declares its own serial/parallel
        // split (per-stage fractions from the flavor profile, per-stage
        // load-balance floors from the merged shard work); the engine folds
        // the records into one Amdahl critical path.
        let p = &self.profile;
        let player_work = player_report.base_work_units();
        let add_remove_work = terrain_report.blocks_added * 25
            + terrain_report.blocks_removed * 25
            + terrain_report.blocks_updated * 10;
        let update_work_raw = terrain_report.neighbor_updates * 12
            + terrain_report.scheduled_updates * 14
            + terrain_report.random_ticks * 4
            + terrain_report.fluid_spreads * 18
            + terrain_report.redstone_propagations * 16
            + terrain_report.growths * 20
            + terrain_report.blocks_scanned;
        let update_work = (update_work_raw as f64 * p.redstone_multiplier) as u64;
        // Under pipelined lighting this tick pays for the *previous* tick's
        // relight set (consumed by stage 0); the terrain stage reported no
        // light positions of its own.
        let light_positions = if self.eager_lighting {
            terrain_report.light_positions + player_light_positions
        } else {
            pipelined_light_positions
        };
        let light_work = (light_positions as f64 * 2.0 * p.lighting_multiplier) as u64;
        let chunk_work = (terrain_report.chunks_generated + self.pending_join_chunks) * 4_000;
        self.pending_join_chunks = 0;

        let explosion_component =
            entity_report.explosions * 500 + entity_report.blocks_destroyed * 30;
        let entity_base = entity_report.base_work_units();
        let entity_work = ((entity_base.saturating_sub(explosion_component)) as f64
            * p.entity_multiplier
            + explosion_component as f64 * p.explosion_multiplier) as u64;

        let chat_work = player_report.chat_messages * 25 * recipients.max(1);
        let packet_work = packets_emitted * 3;
        let connection_work = recipients * PER_PLAYER_TICK_WORK;
        let overhead_work = 2_000u64;

        // Simulated JVM garbage collection: periodic pauses whose length
        // grows with the live heap (entities and loaded chunks). Minor
        // collections stay within the tick budget; major collections are the
        // occasional large outliers that even self-hosted deployments show.
        let mut gc_work = 0u64;
        if self.tick_index >= self.next_minor_gc_tick {
            gc_work += 80_000
                + self.entities.count() as u64 * 60
                + self.world.loaded_chunk_count() as u64 * 150;
            self.next_minor_gc_tick =
                self.tick_index + MINOR_GC_INTERVAL_TICKS + self.gc_rng.gen_range(0..60);
        }
        if self.tick_index >= self.next_major_gc_tick {
            gc_work += 600_000
                + self.entities.count() as u64 * 400
                + self.world.loaded_chunk_count() as u64 * 800;
            self.next_major_gc_tick =
                self.tick_index + MAJOR_GC_INTERVAL_TICKS + self.gc_rng.gen_range(0..200);
            // Piggyback real substrate maintenance on the simulated major
            // collection: re-narrow chunk palettes that widened during play.
            // Purely a storage transform — block contents are unchanged, so
            // the modeled cost stream is unaffected.
            self.world.compact_chunk_storage();
        }

        let total_work = ((player_work
            + add_remove_work
            + update_work
            + light_work
            + chunk_work
            + entity_work
            + chat_work
            + packet_work
            + connection_work
            + gc_work
            + overhead_work) as f64
            * p.overhead_multiplier) as u64;

        // Asynchronously offloadable work, attributed per stage so serial
        // residues can be computed below: a flavor-dependent fraction of the
        // terrain/lighting/dissemination stages, chat wholesale under async
        // chat, and — the cross-tick pipelining win — the *whole* lighting
        // pass when it runs pipelined (stage 0 overlapped it with this
        // tick's player stage on idle cores).
        let offload_f = p.offload_fraction.clamp(0.0, 1.0);
        let off_terrain = (offload_f * (update_work + chunk_work) as f64) as u64;
        let off_light = if self.eager_lighting {
            (offload_f * light_work as f64) as u64
        } else {
            light_work
        };
        let off_dissemination =
            (offload_f * packet_work as f64) as u64 + if p.async_chat { chat_work } else { 0 };
        let offloadable = (off_terrain + off_light + off_dissemination).min(total_work);

        // Per-stage parallelizable shares: each stage fans its fraction out
        // over the tick shards (or plain JVM-runtime parallelism for serial
        // flavors — GC is always freely parallel on top). The light/chunk/
        // packet share already counted as offloadable is excluded so no
        // component is classified off the main thread twice. Redstone/
        // block-update cascades stay serial — they are dependency chains
        // even under sharding.
        let sp = p.stage_parallel;
        let player_pool = player_work + connection_work;
        let terrain_pool = add_remove_work + update_work + chunk_work;
        let dissemination_pool = packet_work + chat_work;
        let mut par_player = (sp.player * player_pool as f64) as u64;
        let mut par_terrain = (sp.terrain * (1.0 - offload_f) * chunk_work as f64) as u64;
        let mut par_entity = (sp.entity * entity_work as f64) as u64;
        let mut par_light = if self.eager_lighting {
            (sp.lighting * (1.0 - offload_f) * light_work as f64) as u64
        } else {
            0
        };
        let mut par_dissemination =
            (sp.dissemination * (1.0 - offload_f) * packet_work as f64) as u64;
        let mut par_gc = gc_work;
        // Keep offload + parallel within the (overhead-scaled) total; the
        // clamp order is fixed so the split stays deterministic.
        let mut parallel_budget = total_work.saturating_sub(offloadable);
        for share in [
            &mut par_player,
            &mut par_terrain,
            &mut par_entity,
            &mut par_light,
            &mut par_dissemination,
            &mut par_gc,
        ] {
            *share = (*share).min(parallel_budget);
            parallel_budget -= *share;
        }
        let parallelizable =
            par_player + par_terrain + par_entity + par_light + par_dissemination + par_gc;
        let main_total = total_work - offloadable - parallelizable;

        // Attribute the remaining main-thread work to stages in proportion
        // to their serial residues (work not offloaded and not parallel).
        // The engine only sums the serial parts, so the attribution shapes
        // the per-stage breakdown without changing busy time.
        let serial_player = player_pool.saturating_sub(par_player);
        let serial_terrain = terrain_pool.saturating_sub(off_terrain + par_terrain);
        let serial_entity = entity_work.saturating_sub(par_entity);
        let serial_light = light_work.saturating_sub(off_light + par_light);
        let serial_dissemination =
            dissemination_pool.saturating_sub(off_dissemination + par_dissemination);
        let serial_other = overhead_work + gc_work.saturating_sub(par_gc);
        let serial_total = (serial_player
            + serial_terrain
            + serial_entity
            + serial_light
            + serial_dissemination
            + serial_other)
            .max(1);
        let attribute =
            |units: u64| (main_total as f64 * units as f64 / serial_total as f64) as u64;
        let main_player = attribute(serial_player);
        let main_terrain = attribute(serial_terrain);
        let main_entity = attribute(serial_entity);
        let main_light = attribute(serial_light);
        let main_dissemination = attribute(serial_dissemination);
        let main_other = main_total
            - (main_player + main_terrain + main_entity + main_light + main_dissemination);

        let stage_width = if self.pipeline.is_sharded() {
            self.pipeline.shards()
        } else {
            // JVM-runtime parallelism is not bound to tick shards.
            u32::MAX
        };
        // Per-stage load-balance floors: the busiest shard's measured share
        // of that stage's parallel work (zero when nothing sharded ran).
        let stage_floor = |par: u64, loads: Option<&Vec<u64>>| -> u64 {
            let Some(loads) = loads else { return 0 };
            let total: u64 = loads.iter().sum();
            if total == 0 {
                return 0;
            }
            let max = loads.iter().copied().max().unwrap_or(0);
            ((par as u128 * u128::from(max) / u128::from(total)) as u64).min(par)
        };
        let floor_player = stage_floor(par_player, player_shard_work.as_ref());
        let floor_terrain = stage_floor(par_terrain, terrain_shard_work.as_ref());
        let floor_entity = stage_floor(par_entity, entity_shard_work.as_ref());
        let max_shard = floor_player + floor_terrain + floor_entity;

        // The same merged per-shard loads — player stage included — drive
        // adaptive rebalancing, so the compute model and the partition
        // always see identical hotspots.
        let load_report = match (&terrain_shard_work, &entity_shard_work) {
            (Some(terrain), Some(entities)) => {
                let mut report = ShardLoadReport::from_stage_work(terrain, entities);
                if let Some(player) = &player_shard_work {
                    report.fold_player_work(player);
                }
                Some(report)
            }
            _ => None,
        };

        // Adaptive rebalancing: apply this tick's merged load report to the
        // partition (a pure function of the report, so bit-identical at any
        // thread count). The world is resharded lazily by the next tick's
        // sharded player/terrain phases.
        if self.pipeline.rebalance_enabled() {
            if let Some(report) = &load_report {
                self.pipeline.apply_load_report(report);
            }
        }

        let stage_records = [
            StageWork {
                main_thread: main_player,
                parallelizable: par_player,
                parallel_width: stage_width,
                max_shard: floor_player,
            },
            StageWork {
                main_thread: main_terrain,
                parallelizable: par_terrain,
                parallel_width: stage_width,
                max_shard: floor_terrain,
            },
            StageWork {
                main_thread: main_entity,
                parallelizable: par_entity,
                parallel_width: stage_width,
                max_shard: floor_entity,
            },
            StageWork {
                main_thread: main_light,
                parallelizable: par_light,
                parallel_width: stage_width,
                max_shard: 0,
            },
            StageWork {
                main_thread: main_dissemination,
                parallelizable: par_dissemination,
                parallel_width: stage_width,
                max_shard: 0,
            },
            StageWork {
                main_thread: main_other,
                parallelizable: par_gc,
                // Parallel GC is freely divisible across however many
                // vCPUs exist, not bound to tick shards.
                parallel_width: u32::MAX,
                max_shard: 0,
            },
        ];
        let staged = engine.execute_stages(&stage_records, offloadable, self.config.tick_budget_ms);
        let stages = TickStageBreakdown {
            player_ms: staged.stage_ms[0],
            terrain_ms: staged.stage_ms[1],
            entity_ms: staged.stage_ms[2],
            lighting_ms: staged.stage_ms[3],
            dissemination_ms: staged.stage_ms[4],
            other_ms: staged.stage_ms[5] + staged.offload_overflow_ms,
        };
        let execution = staged.execution;
        let busy_ms = execution.busy_ms;

        // --- Stage 6: tick-time distribution -------------------------------
        let busy_components = [
            ((player_work + connection_work) as f64, 0usize), // Players
            (add_remove_work as f64, 1),                      // BlockAddRemove
            (update_work as f64, 2),                          // BlockUpdate
            (entity_work as f64, 3),                          // Entities
            (
                (light_work + chunk_work + chat_work + packet_work + gc_work + overhead_work)
                    as f64,
                4,
            ), // Other
        ];
        let component_total: f64 = busy_components.iter().map(|(w, _)| w).sum::<f64>().max(1.0);
        let mut distribution = TickDistribution::default();
        for (work, slot) in busy_components {
            let ms = busy_ms * work / component_total;
            match slot {
                0 => distribution.players_ms = ms,
                1 => distribution.block_add_remove_ms = ms,
                2 => distribution.block_update_ms = ms,
                3 => distribution.entities_ms = ms,
                _ => distribution.other_ms = ms,
            }
        }
        distribution.wait_before_ms = 0.1;
        distribution.wait_after_ms = (self.config.tick_budget_ms - busy_ms).max(0.0);

        // --- Stage 7: clock advance and overload handling ------------------
        let period_ms = busy_ms.max(self.config.tick_budget_ms);
        self.clock_ms += period_ms;
        let end_ms = self.clock_ms;
        for player in self.players.iter_mut().filter(|pl| !pl.disconnected) {
            player.last_served_ms = end_ms;
        }

        // Crash semantics: clients time out when the server cannot serve them
        // a keep-alive within the timeout window. Keep-alives go out every
        // 100 ticks, so sustained overload stretches the interval between
        // them until it exceeds the timeout — the mechanism by which the Lag
        // workload crashes every MLG on AWS in the paper (MF2). A single
        // monster tick longer than the window has the same effect.
        self.ms_since_keepalive += period_ms;
        if self.tick_index.is_multiple_of(100) {
            self.ms_since_keepalive = 0.0;
        }
        let stalled = busy_ms > self.config.keepalive_timeout_ms
            || self.ms_since_keepalive > self.config.keepalive_timeout_ms;
        let mut crash = None;
        if stalled && self.player_count() > 0 {
            for player in self.players.iter_mut() {
                player.disconnected = true;
            }
            let c = ServerCrash {
                reason: format!(
                    "tick {} stalled for {:.0} ms; all client connections timed out",
                    self.tick_index, busy_ms
                ),
                at_tick: self.tick_index,
                at_ms: end_ms,
            };
            self.crash = Some(c.clone());
            crash = Some(c);
        }

        let record = TickRecord {
            index: self.tick_index,
            start_ms,
            busy_ms,
            period_ms,
            distribution,
        };

        TickSummary {
            record,
            start_ms,
            end_ms,
            entity_count: self.entities.count(),
            player_count: self.player_count(),
            packets_emitted,
            bytes_received,
            cpu_utilization: execution.cpu_utilization,
            async_chat: self.profile.async_chat,
            max_shard_work: max_shard,
            stages,
            crash,
        }
    }
}

/// Builds the tick pipeline for a profile: a static stripe partition, or —
/// when the flavor rebalances (subject to the [`ServerConfig`] override) —
/// an adaptive quadtree partition whose root covers the world's current
/// chunk footprint, pre-split toward the profile's target shard count.
fn build_pipeline(profile: &FlavorProfile, config: &ServerConfig, world: &World) -> TickPipeline {
    let rebalance = config.shard_rebalance.unwrap_or(profile.rebalance);
    if rebalance && profile.tick_shards > 1 {
        TickPipeline::adaptive(
            world.chunk_bounds(),
            profile.tick_shards,
            config.tick_threads,
        )
    } else {
        TickPipeline::new(profile.tick_shards, config.tick_threads)
    }
}

/// The world position a broadcast packet's relevance is anchored to, if
/// any. Positioned packets are subject to area-of-interest filtering;
/// packets with no anchor are global. `EntityDestroy` carries no position
/// on the wire, so removals are disseminated globally — clients must be
/// able to drop entities they stopped seeing move.
fn packet_position(packet: &ClientboundPacket) -> Option<Vec3> {
    match packet {
        ClientboundPacket::EntityMove { pos, .. } | ClientboundPacket::EntitySpawn { pos, .. } => {
            Some(*pos)
        }
        ClientboundPacket::BlockChange { pos, .. } => Some(Vec3::new(
            f64::from(pos.x) + 0.5,
            f64::from(pos.y) + 0.5,
            f64::from(pos.z) + 0.5,
        )),
        _ => None,
    }
}

fn entity_kind_id(kind: EntityKind) -> u16 {
    match kind {
        EntityKind::Item(_) => 0,
        EntityKind::PrimedTnt => 1,
        EntityKind::FallingBlock(_) => 2,
        EntityKind::Zombie => 3,
        EntityKind::Skeleton => 4,
        EntityKind::Cow => 5,
        EntityKind::Villager => 6,
        EntityKind::ExperienceOrb => 7,
        _ => u16::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flavor::ServerFlavor;
    use cloud_sim::environment::Environment;
    use mlg_world::generation::FlatGenerator;
    use mlg_world::{Block, BlockPos, Region};

    fn flat_world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    fn server(flavor: ServerFlavor) -> GameServer {
        let config = ServerConfig::for_flavor(flavor).with_view_distance(2);
        GameServer::new(config, flat_world(), Vec3::new(0.5, 61.0, 0.5))
    }

    fn engine() -> ComputeEngine {
        Environment::das5(2).instantiate(1).engine
    }

    #[test]
    fn idle_server_ticks_are_fast_and_stable() {
        let mut s = server(ServerFlavor::Vanilla);
        let mut e = engine();
        let mut max_busy: f64 = 0.0;
        for _ in 0..100 {
            let summary = s.run_tick(&mut e);
            max_busy = max_busy.max(summary.record.busy_ms);
            assert!(summary.crash.is_none());
        }
        assert!(
            max_busy < 10.0,
            "idle ticks should be far under budget, got {max_busy}"
        );
        assert_eq!(s.ticks_executed(), 100);
        assert!(s.clock_ms() >= 100.0 * 50.0);
    }

    #[test]
    fn connecting_a_player_streams_chunks_and_causes_a_spike() {
        let mut s = server(ServerFlavor::Vanilla);
        let mut e = engine();
        // Warm up.
        for _ in 0..5 {
            s.run_tick(&mut e);
        }
        let baseline = s.run_tick(&mut e).record.busy_ms;
        let id = s.connect_player("probe");
        let join_packets = s.drain_outgoing(id);
        assert!(
            join_packets
                .iter()
                .any(|p| matches!(p, ClientboundPacket::LoginAccepted { .. })),
            "join must produce a login packet"
        );
        assert!(
            join_packets
                .iter()
                .filter(|p| matches!(p, ClientboundPacket::ChunkData { .. }))
                .count()
                >= 25,
            "join must stream the spawn area"
        );
        let join_tick = s.run_tick(&mut e).record.busy_ms;
        assert!(
            join_tick > baseline * 3.0,
            "join tick ({join_tick} ms) should spike well above baseline ({baseline} ms)"
        );
        assert_eq!(s.player_count(), 1);
    }

    #[test]
    fn join_streams_the_view_square_like_per_packet_delivery() {
        use mlg_protocol::TrafficCategory;
        use mlg_world::generation::{ChunkGenerator, NoiseGenerator};
        use mlg_world::ChunkPos;

        // Noise terrain gives every chunk its own payload size, so a packet
        // paired with the wrong chunk shows. The totals are the ones the
        // per-packet join path (two walks, one `record` per packet) produced.
        let terrain = NoiseGenerator::new(7);
        let config = ServerConfig::for_flavor(ServerFlavor::Vanilla).with_view_distance(2);
        let world = World::new(Box::new(terrain.clone()), 7);
        let mut s = GameServer::new(config, world, Vec3::new(0.5, 70.0, 0.5));
        let expect_join = |s: &mut GameServer, name: &str, pos: Vec3| {
            let id = s.connect_player_at(name, pos);
            let mut expected = vec![ClientboundPacket::LoginAccepted {
                player_id: s.player(id).expect("just connected").entity_id,
                spawn: pos,
            }];
            for chunk in pos.block_pos().chunk().within_radius(2) {
                expected.push(ClientboundPacket::ChunkData {
                    pos: chunk,
                    payload_bytes: terrain.generate(chunk).network_size_bytes() as u32,
                });
            }
            assert_eq!(s.drain_outgoing(id), expected, "{name}'s join stream");
        };
        let counters = |s: &GameServer| {
            let terrain = s.traffic_summary().category(TrafficCategory::Terrain);
            let other = s.traffic_summary().category(TrafficCategory::Other);
            [terrain.messages, terrain.bytes, other.messages, other.bytes]
        };

        // A fresh world: the whole square around chunk (-3, 0) is generated.
        expect_join(&mut s, "first", Vec3::new(-40.5, 70.0, 9.5));
        assert_eq!(s.world().loaded_chunk_count(), 25);
        assert_eq!(s.world().chunks_generated_this_tick(), 25);
        assert_eq!(s.pending_join_chunks, 25);
        assert_eq!(counters(&s), [25, 1_259_375, 1, 30]);

        // A partly pre-generated one: two chunks east, 15 of the 25 chunks
        // are already loaded and are streamed all the same.
        expect_join(&mut s, "second", Vec3::new(-8.5, 70.0, 9.5));
        assert_eq!(s.world().loaded_chunk_count(), 35);
        assert_eq!(s.pending_join_chunks, 35);
        assert_eq!(counters(&s), [50, 2_523_628, 2, 60]);
        assert!(s.world().chunk_if_loaded(ChunkPos::new(1, 2)).is_some());
    }

    #[test]
    fn chat_is_echoed_back_to_the_sender() {
        let mut s = server(ServerFlavor::Vanilla);
        let mut e = engine();
        let id = s.connect_player("probe");
        s.drain_outgoing(id);
        s.enqueue_packet(
            id,
            ServerboundPacket::Chat {
                message: "ping".into(),
                sent_at_ms: 777.0,
            },
        );
        s.run_tick(&mut e);
        let packets = s.drain_outgoing(id);
        let echo = packets.iter().find_map(|p| match p {
            ClientboundPacket::Chat { echo_of_ms, .. } => Some(*echo_of_ms),
            _ => None,
        });
        assert_eq!(echo, Some(777.0));
    }

    #[test]
    fn player_block_changes_are_broadcast() {
        let mut s = server(ServerFlavor::Vanilla);
        let mut e = engine();
        let a = s.connect_player("alice");
        let b = s.connect_player("bob");
        s.drain_outgoing(a);
        s.drain_outgoing(b);
        s.enqueue_packet(
            a,
            ServerboundPacket::BlockPlace {
                pos: BlockPos::new(3, 61, 3),
                block: Block::simple(BlockKind::Planks),
            },
        );
        s.run_tick(&mut e);
        let to_bob = s.drain_outgoing(b);
        assert!(
            to_bob
                .iter()
                .any(|p| matches!(p, ClientboundPacket::BlockChange { .. })),
            "other players must receive the block change"
        );
    }

    #[test]
    fn paper_flavor_is_cheaper_than_vanilla_on_entity_load() {
        let world_with_tnt = || {
            let mut w = flat_world();
            w.fill_region(
                Region::new(BlockPos::new(0, 61, 0), BlockPos::new(7, 64, 7)),
                Block::simple(BlockKind::Tnt),
            );
            w
        };
        let run = |flavor: ServerFlavor| {
            let config = ServerConfig::for_flavor(flavor).with_view_distance(2);
            let mut s = GameServer::new(config, world_with_tnt(), Vec3::new(0.5, 61.0, 0.5));
            s.connect_player("probe");
            s.schedule_tnt_ignition(2);
            let mut e = engine();
            let mut total = 0.0;
            for _ in 0..100 {
                total += s.run_tick(&mut e).record.busy_ms;
            }
            total
        };
        let vanilla = run(ServerFlavor::Vanilla);
        let paper = run(ServerFlavor::Paper);
        assert!(
            paper < vanilla * 0.8,
            "PaperMC ({paper} ms) should be notably cheaper than Vanilla ({vanilla} ms)"
        );
    }

    #[test]
    fn tnt_ignition_schedules_every_tnt_block() {
        let mut s = server(ServerFlavor::Vanilla);
        s.world_mut().fill_region(
            Region::new(BlockPos::new(0, 61, 0), BlockPos::new(3, 61, 3)),
            Block::simple(BlockKind::Tnt),
        );
        let scheduled = s.schedule_tnt_ignition(10);
        assert_eq!(scheduled, 16);
    }

    #[test]
    fn tnt_chain_reaction_creates_entities_and_destroys_terrain() {
        let mut s = server(ServerFlavor::Vanilla);
        let mut e = engine();
        s.connect_player("probe");
        s.world_mut().fill_region(
            Region::new(BlockPos::new(4, 61, 4), BlockPos::new(9, 63, 9)),
            Block::simple(BlockKind::Tnt),
        );
        s.schedule_tnt_ignition(2);
        let mut saw_entities = false;
        for _ in 0..300 {
            let summary = s.run_tick(&mut e);
            if summary.entity_count > 10 {
                saw_entities = true;
            }
        }
        assert!(
            saw_entities,
            "chain reaction should prime many TNT entities"
        );
        assert_eq!(s.world().count_kind(BlockKind::Tnt), 0, "all TNT consumed");
    }

    #[test]
    fn stalled_tick_crashes_the_server() {
        let config = ServerConfig {
            keepalive_timeout_ms: 40.0, // absurdly low so a join spike trips it
            ..ServerConfig::for_flavor(ServerFlavor::Vanilla).with_view_distance(6)
        };
        let mut s = GameServer::new(config, flat_world(), Vec3::new(0.5, 61.0, 0.5));
        let mut e = engine();
        s.connect_player("probe");
        let mut crashed = false;
        for _ in 0..50 {
            let summary = s.run_tick(&mut e);
            if summary.crash.is_some() {
                crashed = true;
                break;
            }
        }
        assert!(
            crashed,
            "server should crash when a tick exceeds the keep-alive window"
        );
        assert!(!s.is_running());
        assert_eq!(s.player_count(), 0);
        // Further ticks are no-ops that keep reporting the crash.
        let again = s.run_tick(&mut e);
        assert!(again.crash.is_some());
    }

    #[test]
    fn traffic_summary_records_entity_packets() {
        let mut s = server(ServerFlavor::Vanilla);
        let mut e = engine();
        s.connect_player("probe");
        s.spawn_entity(EntityKind::Cow, Vec3::new(5.5, 70.0, 5.5));
        for _ in 0..20 {
            s.run_tick(&mut e);
        }
        let summary = s.traffic_summary();
        assert!(summary.total_messages() > 0);
        assert!(
            summary
                .category(mlg_protocol::TrafficCategory::Entity)
                .messages
                > 0,
            "falling cow should generate entity-move packets"
        );
    }

    #[test]
    fn sharded_server_ticks_are_bit_identical_at_any_thread_count() {
        let run = |threads: u32| {
            let config = ServerConfig::for_flavor(ServerFlavor::Folia)
                .with_view_distance(3)
                .with_tick_threads(threads);
            let mut s = GameServer::new(config, flat_world(), Vec3::new(0.5, 61.0, 0.5));
            assert!(s.pipeline().is_sharded());
            s.connect_player("probe");
            s.world_mut().fill_region(
                Region::new(BlockPos::new(4, 61, 4), BlockPos::new(12, 62, 12)),
                Block::simple(BlockKind::Tnt),
            );
            s.schedule_tnt_ignition(2);
            let mut e = engine();
            let mut summaries = Vec::new();
            for _ in 0..60 {
                summaries.push(s.run_tick(&mut e));
            }
            (summaries, s.traffic_summary().clone())
        };
        let reference = run(1);
        let parallel = run(4);
        for (a, b) in reference.0.iter().zip(&parallel.0) {
            assert_eq!(a, b, "TickSummary diverged between thread counts");
        }
        assert_eq!(reference.1, parallel.1, "traffic summaries diverged");
    }

    #[test]
    fn folia_flavor_beats_vanilla_on_entity_load_with_many_cores() {
        let world_with_tnt = || {
            let mut w = flat_world();
            w.fill_region(
                Region::new(BlockPos::new(0, 61, 0), BlockPos::new(7, 64, 7)),
                Block::simple(BlockKind::Tnt),
            );
            w
        };
        let run = |flavor: ServerFlavor| {
            let config = ServerConfig::for_flavor(flavor).with_view_distance(2);
            let mut s = GameServer::new(config, world_with_tnt(), Vec3::new(0.5, 61.0, 0.5));
            s.connect_player("probe");
            s.schedule_tnt_ignition(2);
            let mut e = Environment::das5(8).instantiate(1).engine;
            let mut total = 0.0;
            for _ in 0..100 {
                total += s.run_tick(&mut e).record.busy_ms;
            }
            total
        };
        let vanilla = run(ServerFlavor::Vanilla);
        let folia = run(ServerFlavor::Folia);
        assert!(
            folia < vanilla * 0.6,
            "sharded Folia ({folia} ms) should exploit the 8-core node far better than Vanilla ({vanilla} ms)"
        );
    }

    #[test]
    fn stage_breakdown_accounts_for_the_whole_tick() {
        let mut s = server(ServerFlavor::Vanilla);
        let mut e = engine();
        s.connect_player("probe");
        s.enqueue_packet(
            s.player(PlayerId(1)).unwrap().id,
            ServerboundPacket::BlockPlace {
                pos: BlockPos::new(3, 61, 3),
                block: Block::simple(BlockKind::Planks),
            },
        );
        for _ in 0..5 {
            let summary = s.run_tick(&mut e);
            assert!(
                (summary.stages.total_ms() - summary.record.busy_ms).abs() < 1e-9,
                "stage breakdown ({}) must sum to busy time ({})",
                summary.stages.total_ms(),
                summary.record.busy_ms
            );
            assert!(summary.stages.player_ms > 0.0, "players are connected");
        }
    }

    #[test]
    fn pipelined_lighting_defers_the_relight_one_tick() {
        // Folia defaults to pipelined lighting: a terrain change queues its
        // relight set for the next tick instead of lighting in-stage.
        let config = ServerConfig::for_flavor(ServerFlavor::Folia).with_view_distance(2);
        let mut s = GameServer::new(config, flat_world(), Vec3::new(0.5, 61.0, 0.5));
        assert!(!s.eager_lighting());
        let mut e = engine();
        s.connect_player("probe");
        s.run_tick(&mut e);
        assert_eq!(s.pending_relight_len(), 0, "idle ticks queue nothing");
        // A fused TNT block detonating is a terrain-stage change.
        s.world_mut()
            .set_block_silent(BlockPos::new(5, 61, 5), Block::simple(BlockKind::Tnt));
        s.schedule_tnt_ignition(1);
        s.run_tick(&mut e);
        assert!(
            s.pending_relight_len() > 0,
            "the ignition change must queue for the pipelined stage"
        );
        s.run_tick(&mut e);
        // The next tick consumed the queue (explosion fallout may requeue
        // new changes, but the original set is gone; on this quiet world
        // the queue drains as the cascade settles).
        for _ in 0..40 {
            s.run_tick(&mut e);
        }
        assert_eq!(s.pending_relight_len(), 0, "the queue must drain");

        // The ServerConfig override forces eager lighting back on.
        let eager_config = ServerConfig::for_flavor(ServerFlavor::Folia)
            .with_view_distance(2)
            .with_eager_lighting(Some(true));
        let eager = GameServer::new(eager_config, flat_world(), Vec3::new(0.5, 61.0, 0.5));
        assert!(eager.eager_lighting());
    }

    #[test]
    fn eager_and_pipelined_lighting_agree_on_world_state() {
        // Lighting is a pure cost model — pipelining it must not change
        // simulation results, only when the cost lands.
        let run = |eager: Option<bool>| {
            let config = ServerConfig::for_flavor(ServerFlavor::Folia)
                .with_view_distance(2)
                .with_eager_lighting(eager);
            let mut s = GameServer::new(config, flat_world(), Vec3::new(0.5, 61.0, 0.5));
            s.connect_player("probe");
            s.world_mut().fill_region(
                Region::new(BlockPos::new(4, 61, 4), BlockPos::new(9, 62, 9)),
                Block::simple(BlockKind::Tnt),
            );
            s.schedule_tnt_ignition(2);
            let mut e = engine();
            for _ in 0..60 {
                s.run_tick(&mut e);
            }
            (
                s.world().total_non_air_blocks(),
                s.entity_count(),
                s.ticks_executed(),
            )
        };
        assert_eq!(run(Some(true)), run(Some(false)));
    }

    #[test]
    fn tick_distribution_accounts_for_the_whole_tick() {
        let mut s = server(ServerFlavor::Vanilla);
        let mut e = engine();
        s.connect_player("probe");
        let summary = s.run_tick(&mut e);
        let d = summary.record.distribution;
        // Busy components sum to the busy time, waits fill the rest.
        assert!((d.busy_ms() - summary.record.busy_ms).abs() < 1e-6);
        assert!(d.total_ms() >= summary.record.busy_ms);
    }
}
