//! The game server and its 20 Hz game loop.
//!
//! [`GameServer::run_tick`] is a driver over the stage graph: one private
//! `stage_*` method per simulation stage (this file), packet assembly and
//! interest sets in `dissemination.rs`, the work→time cost model in
//! `cost.rs`.

use cloud_sim::engine::ComputeEngine;
use meterstick_metrics::distribution::TickDistribution;
use meterstick_metrics::trace::TickRecord;
use mlg_entity::{EntityId, EntityKind, EntityManager, EntityTickReport, Vec3};
use mlg_protocol::{ClientboundPacket, ServerboundPacket, TrafficAccountant, TrafficSummary};
use mlg_world::shard::TickPipeline;
use mlg_world::sim::{self, TerrainEvent};
use mlg_world::{BlockKind, BlockPos, TerrainSimulator, TerrainTickReport, TickScratch, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::ServerConfig;
use crate::cost::{self, TickCounters};
use crate::dissemination::{self, InterestSets, TickUpdates};
use crate::flavor::FlavorProfile;
use crate::handler::{self, PlayerStageReport};
use crate::player::{ConnectedPlayer, PlayerId};
use crate::queues::NetworkingQueues;

/// Why and when a server run aborted.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerCrash {
    /// Human-readable reason.
    pub reason: String,
    /// Tick index at which the crash happened.
    pub at_tick: u64,
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
    /// The stage names, in field order: the one list every renderer (CSV
    /// and JSONL columns, Prometheus labels) loops over, paired with
    /// [`Self::as_array`].
    pub const NAMES: [&'static str; 6] = [
        "player",
        "terrain",
        "entity",
        "lighting",
        "dissemination",
        "other",
    ];

    /// Builds a breakdown from per-stage milliseconds in [`Self::NAMES`]
    /// order.
    #[must_use]
    pub fn from_array(ms: [f64; 6]) -> Self {
        let [player_ms, terrain_ms, entity_ms, lighting_ms, dissemination_ms, other_ms] = ms;
        TickStageBreakdown {
            player_ms,
            terrain_ms,
            entity_ms,
            lighting_ms,
            dissemination_ms,
            other_ms,
        }
    }

    /// The per-stage milliseconds in [`Self::NAMES`] order.
    #[must_use]
    pub fn as_array(&self) -> [f64; 6] {
        [
            self.player_ms,
            self.terrain_ms,
            self.entity_ms,
            self.lighting_ms,
            self.dissemination_ms,
            self.other_ms,
        ]
    }

    /// Adds another breakdown's stage times into this one (used to total
    /// per-tick breakdowns over an iteration).
    pub fn accumulate(&mut self, other: &TickStageBreakdown) {
        let (sum, add) = (self.as_array(), other.as_array());
        *self = Self::from_array(std::array::from_fn(|i| sum[i] + add[i]));
    }

    /// Sum of all stage contributions (equals the tick's busy time).
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.as_array().iter().sum()
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

/// The Minecraft-like game server.
pub struct GameServer {
    config: ServerConfig,
    profile: FlavorProfile,
    pipeline: TickPipeline,
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
    /// Terrain-change positions awaiting the cross-tick pipelined lighting
    /// stage (empty under eager lighting).
    pending_relight: Vec<BlockPos>,
    /// Reused dissemination buffer: the tick's broadcast packets are
    /// assembled here and handed to the networking queues in one
    /// `broadcast_many` or `multicast_many` call, which stores each packet
    /// once for all its recipients, so the hot path allocates no per-packet
    /// vectors.
    broadcast_buf: Vec<ClientboundPacket>,
    /// Reused area-of-interest buffers: the recipients of every packet in
    /// `broadcast_buf`, for flavors that filter by interest.
    interest: InterestSets,
    /// Per-tick scratch arena for the terrain/lighting stages: cascade
    /// queues, shard batches, relight position list and miss buffers,
    /// recycled across ticks (see `mlg_world::scratch`). Together with
    /// `broadcast_buf` this is the server's whole steady-state tick arena.
    scratch: TickScratch,
}

/// What the player-handler stage hands the rest of the tick.
struct PlayerStage {
    report: PlayerStageReport,
    /// Work units per shard (sharded pipelines only).
    shard_work: Option<Vec<u64>>,
    bytes_received: u64,
    /// Positions relit eagerly for the stage's block edits.
    relit_positions: u64,
}

/// An entity spawned from a terrain event, as dissemination announces it.
type EventSpawn = (EntityId, EntityKind, Vec3);

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
    pub fn new(config: ServerConfig, world: World, spawn_point: Vec3) -> Self {
        let profile = config.flavor.profile();
        let entities = EntityManager::new(config.seed ^ 0xE47);
        let terrain = TerrainSimulator::default();
        let gc_seed = config.seed ^ 0x6C;
        let mut server = GameServer {
            config,
            profile,
            pipeline: TickPipeline::serial(),
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
            eager_lighting: true,
            pending_relight: Vec::new(),
            broadcast_buf: Vec::new(),
            interest: InterestSets::default(),
            scratch: TickScratch::new(),
        };
        server.apply_profile(profile);
        server
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
        self.apply_profile(profile);
    }

    /// Resolves `profile` against the [`ServerConfig`] overrides and pushes
    /// the result into every subsystem: the tick pipeline (with its worker
    /// pool, and the world resharded to match), the lighting and
    /// dissemination modes, and the entity manager's TNT cap.
    fn apply_profile(&mut self, profile: FlavorProfile) {
        self.pipeline = build_pipeline(&profile, &self.config, &self.world);
        if self.pipeline.is_sharded() {
            self.world.reshard(self.pipeline.shard_map().clone());
        }
        self.eager_lighting = self.config.eager_lighting.unwrap_or(profile.eager_lighting);
        self.terrain.eager_lighting = self.eager_lighting;
        self.entities.max_tnt_per_tick = profile.max_tnt_per_tick;
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
    // detlint: allow(pub-without-caller) -- tests/tnt_ignition.rs and tests/sharded_determinism.rs edit the running world
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

    /// The crash record, if the server aborted.
    #[must_use]
    pub fn crash(&self) -> Option<&ServerCrash> {
        self.crash.as_ref()
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
    // detlint: allow(pub-without-caller) -- tests/sharded_determinism.rs joins players at the spawn point
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

    /// Drains the clientbound packets queued for `player` without taking
    /// them, returning the `(packets, wire bytes)` drained
    /// ([`NetworkingQueues::drain_outgoing_with`]).
    pub fn drain_outgoing_with(
        &mut self,
        player: PlayerId,
        visit: impl FnMut(&[ClientboundPacket]),
    ) -> (u64, usize) {
        self.queues.drain_outgoing_with(player, visit)
    }

    /// Schedules every TNT block currently loaded in the world to ignite
    /// `delay_ticks` from now. Used by the TNT workload ("set to explode
    /// around 20 seconds after a player connects"). Returns how many were
    /// scheduled.
    ///
    /// Blocks are scheduled chunk by chunk in [`World::iter_chunks`] order
    /// and, inside a chunk, in ascending `y`, then `z`, then `x`
    /// ([`mlg_world::Chunk::iter_kind`]). All of them come due on the same
    /// tick, where scheduling order is the tie-break, so this order decides
    /// how the chain reaction unfolds and the recorded outputs pin it.
    /// Chunks that are not loaded are not searched, and a loaded chunk
    /// without TNT is dismissed on its palette's reference counts alone.
    pub fn schedule_tnt_ignition(&mut self, delay_ticks: u64) -> usize {
        let mut positions = Vec::new();
        for chunk in self.world.iter_chunks() {
            let origin = chunk.pos().origin_block();
            positions.extend(chunk.iter_kind(BlockKind::Tnt).map(|(lx, y, lz, _)| {
                mlg_world::BlockPos::new(origin.x + lx as i32, y, origin.z + lz as i32)
            }));
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

    /// Runs one game tick, converting its work into time on the given compute
    /// engine, and returns the tick summary.
    ///
    /// Returns the last crash summary again (without doing any work) if the
    /// server has already crashed.
    pub fn run_tick(&mut self, engine: &mut ComputeEngine) -> TickSummary {
        let start_ms = self.clock_ms;
        if let Some(crash) = self.crash.clone() {
            return self.crashed_summary(crash);
        }
        self.tick_index += 1;
        self.world.advance_tick();

        // Stages 0-4: simulate and disseminate. Each stage returns the
        // counters (and, when sharded, the per-shard loads) it produced.
        let pipelined_relit = self.stage_pipelined_lighting();
        let players = self.stage_players();
        let (terrain, event_spawns, terrain_shard_work) = self.stage_terrain();
        let (entities, entity_shard_work) = self.stage_entities();
        let recipients = self.player_count() as u64;
        let packets_emitted =
            self.stage_dissemination(recipients, &players.report, &event_spawns, &entities);

        // Stage 5: work accounting. The cost model is a pure function of
        // the counters; the stateful inputs (GC schedule, join backlog) are
        // resolved here and passed as numbers.
        let counters = TickCounters {
            player: &players.report,
            terrain: &terrain,
            entity: &entities,
            // Only one of the two relight passes runs in a given mode.
            relit_positions: pipelined_relit + players.relit_positions,
            join_chunks: std::mem::take(&mut self.pending_join_chunks),
            recipients,
            packets_emitted,
            gc_work: self.scheduled_gc_work(),
        };
        let stage_width = if self.pipeline.is_sharded() {
            self.pipeline.shards()
        } else {
            // JVM-runtime parallelism is not bound to tick shards.
            u32::MAX
        };
        let shard_loads = match (&players.shard_work, &terrain_shard_work, &entity_shard_work) {
            (Some(player), Some(terrain), Some(entity)) => {
                Some([player.as_slice(), terrain.as_slice(), entity.as_slice()])
            }
            _ => None,
        };
        let cost = cost::tick_cost(
            &counters,
            &self.profile,
            self.eager_lighting,
            stage_width,
            shard_loads,
        );
        // Adaptive rebalancing: apply this tick's merged load report to the
        // partition (a pure function of the report, so bit-identical at any
        // thread count). The world is resharded lazily by the next tick's
        // sharded player/terrain phases.
        if let Some(report) = &cost.load_report {
            self.pipeline.apply_load_report(report);
        }
        let staged =
            engine.execute_stages(&cost.stages, cost.offloadable, self.config.tick_budget_ms);
        let busy_ms = staged.execution.busy_ms;

        // Stage 6: tick-time distribution, then the end-of-tick bookkeeping.
        let distribution = cost.distribution(busy_ms, self.config.tick_budget_ms);
        let period_ms = busy_ms.max(self.config.tick_budget_ms);
        let crash = self.end_of_tick(busy_ms, period_ms);
        let mut stages =
            TickStageBreakdown::from_array(std::array::from_fn(|i| staged.stage_ms[i]));
        stages.other_ms += staged.offload_overflow_ms;
        TickSummary {
            record: TickRecord {
                index: self.tick_index,
                start_ms,
                busy_ms,
                period_ms,
                distribution,
            },
            start_ms,
            end_ms: self.clock_ms,
            entity_count: self.entities.count(),
            player_count: self.player_count(),
            packets_emitted,
            bytes_received: players.bytes_received,
            cpu_utilization: staged.execution.cpu_utilization,
            async_chat: self.profile.async_chat,
            max_shard_work: cost.max_shard_work,
            stages,
            crash,
        }
    }

    /// The do-nothing summary a crashed server keeps reporting.
    fn crashed_summary(&self, crash: ServerCrash) -> TickSummary {
        let start_ms = self.clock_ms;
        TickSummary {
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
            crash: Some(crash),
        }
    }

    /// Relights `positions` over a frozen snapshot of the world, fanned
    /// over the tick pipeline; returns the positions visited.
    fn relight_frozen(&mut self, positions: &[BlockPos]) -> u64 {
        sim::relight_positions_frozen_with(
            &mut self.world,
            positions,
            &self.pipeline.scope(),
            &mut self.scratch,
        )
    }

    /// Stage 0: pipelined lighting. Under pipelined lighting
    /// (`eager_lighting = false`) the previous tick queued its
    /// terrain-change positions; relight them now over a frozen snapshot of
    /// the world at tick start. In the compute model this work is fully
    /// offloadable — it overlaps this tick's player stage on idle cores —
    /// which is the cross-tick pipelining win. Returns the positions relit.
    fn stage_pipelined_lighting(&mut self) -> u64 {
        if self.eager_lighting || self.pending_relight.is_empty() {
            return 0;
        }
        let mut positions = std::mem::take(&mut self.pending_relight);
        let visited = self.relight_frozen(&positions);
        // Hand the (cleared) queue back so its capacity survives to the
        // next tick instead of re-growing from empty.
        positions.clear();
        self.pending_relight = positions;
        visited
    }

    /// Stage 1: player handler. Sharded pipelines batch players by owning
    /// shard and process the interior batches in parallel (boundary players
    /// escalate to a serial tail — see `handler::process_players_sharded`);
    /// serial flavors keep the classic per-player loop. Either way the
    /// queues are drained once, in player order.
    fn stage_players(&mut self) -> PlayerStage {
        let mut bytes_received = 0u64;
        let mut drain = |queues: &mut NetworkingQueues, id: PlayerId| {
            let actions = queues.drain_incoming(id);
            bytes_received += actions
                .iter()
                .map(|a| mlg_protocol::codec::serverbound_wire_size(a) as u64)
                .sum::<u64>();
            actions
        };
        // Serial flavors keep the per-player loop for speed, not output: the
        // one-shard path is byte-identical but took `player_crowd` from
        // 0.096 to 0.111 s `run_wall_s` (4 alternating pairs, 2-core VM).
        let (report, shard_work) = if self.pipeline.is_sharded() {
            let players = std::mem::take(&mut self.players);
            let actions = players
                .iter()
                .map(|player| {
                    if player.disconnected {
                        Vec::new()
                    } else {
                        drain(&mut self.queues, player.id)
                    }
                })
                .collect();
            let (players, stage) =
                handler::process_players_sharded(&mut self.world, players, actions, &self.pipeline);
            self.players = players;
            (stage.report, Some(stage.per_shard_work))
        } else {
            let mut report = PlayerStageReport::default();
            for index in 0..self.players.len() {
                if self.players[index].disconnected {
                    continue;
                }
                let actions = drain(&mut self.queues, self.players[index].id);
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
        let edits = self.world.changes().iter().map(|change| change.pos);
        let relit_positions = if self.world.changes().is_empty() {
            0
        } else if self.eager_lighting {
            let positions: Vec<BlockPos> = edits.collect();
            self.relight_frozen(&positions)
        } else {
            self.pending_relight.extend(edits);
            0
        };
        PlayerStage {
            report,
            shard_work,
            bytes_received,
            relit_positions,
        }
    }

    /// Stage 2: terrain simulation. Returns the stage report, the entities
    /// spawned from its events and, for sharded pipelines, the updates
    /// processed per shard.
    fn stage_terrain(&mut self) -> (TerrainTickReport, Vec<EventSpawn>, Option<Vec<u64>>) {
        let relight_from = self.world.changes().len();
        // Serial flavors keep `tick_with` for speed, not output: the
        // one-shard pipeline is byte-identical but took `env_worlds` from
        // 0.363 to 0.471 s `run_wall_s` (4 alternating pairs, 2-core VM).
        let (report, events, shard_work) = if self.pipeline.is_sharded() {
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
        let event_spawns = events
            .into_iter()
            .map(|event| {
                let (kind, pos) = match event {
                    TerrainEvent::TntIgnited { pos } => (EntityKind::PrimedTnt, pos),
                    TerrainEvent::BlockHarvested { pos, kind } => (EntityKind::Item(kind), pos),
                    TerrainEvent::ItemDispensed { pos } => {
                        (EntityKind::Item(BlockKind::Cobblestone), pos.up())
                    }
                };
                let at = Vec3::from_block_center(pos);
                (self.entities.spawn(kind, at), kind, at)
            })
            .collect();
        (report, event_spawns, shard_work)
    }

    /// Stage 3: entity simulation. Returns the stage report and, for
    /// sharded pipelines, the entities processed per shard.
    fn stage_entities(&mut self) -> (EntityTickReport, Option<Vec<u64>>) {
        let player_positions = handler::player_positions(&self.players);
        // Serial flavors keep `tick` because `tick_batched` on one shard
        // changes modeled output (9 of the 16 pinned figures, `tab08`,
        // `fig08` and `fig11` among them).
        if self.pipeline.is_sharded() {
            let (report, per_shard) =
                self.entities
                    .tick_batched(&mut self.world, &player_positions, &self.pipeline);
            (report, Some(per_shard))
        } else {
            (self.entities.tick(&mut self.world, &player_positions), None)
        }
    }

    /// Stage 4: state-update dissemination (see `dissemination.rs`).
    /// Drains the world's change log and returns the packets queued.
    fn stage_dissemination(
        &mut self,
        recipients: u64,
        player_report: &PlayerStageReport,
        event_spawns: &[EventSpawn],
        entities: &EntityTickReport,
    ) -> u64 {
        let changes = self.world.drain_changes();
        let mut packets = std::mem::take(&mut self.broadcast_buf);
        packets.clear();
        let mut packets_emitted = 0;
        if recipients > 0 {
            let updates = TickUpdates {
                changes: &changes,
                event_spawns,
                entities,
                chat: &player_report.pending_chat,
            };
            let sharded = self.pipeline.is_sharded();
            dissemination::assemble(
                &mut packets,
                &self.players,
                sharded.then(|| self.pipeline.shard_map()),
                &updates,
                self.spawn_point,
                self.tick_index,
            );
            packets_emitted = if self.profile.aoi_dissemination {
                dissemination::multicast_by_interest(
                    &mut self.queues,
                    &mut self.traffic,
                    &packets,
                    &self.players,
                    f64::from(self.config.view_distance) * 16.0,
                    &mut self.interest,
                )
            } else {
                self.traffic.record_many(&packets, recipients);
                self.queues.broadcast_many(&packets)
            };
        }
        self.broadcast_buf = packets;
        packets_emitted
    }

    /// Work of the simulated JVM collections due this tick (0 on most
    /// ticks), advancing the seeded GC schedule.
    fn scheduled_gc_work(&mut self) -> u64 {
        let entities = self.entities.count() as u64;
        let chunks = self.world.loaded_chunk_count() as u64;
        let mut gc_work = 0;
        if self.tick_index >= self.next_minor_gc_tick {
            gc_work += cost::gc_pause_work(false, entities, chunks);
            self.next_minor_gc_tick =
                self.tick_index + MINOR_GC_INTERVAL_TICKS + self.gc_rng.gen_range(0..60);
        }
        if self.tick_index >= self.next_major_gc_tick {
            gc_work += cost::gc_pause_work(true, entities, chunks);
            self.next_major_gc_tick =
                self.tick_index + MAJOR_GC_INTERVAL_TICKS + self.gc_rng.gen_range(0..200);
            // Piggyback real substrate maintenance on the simulated major
            // collection: re-narrow chunk palettes that widened during play.
            // Purely a storage transform — block contents are unchanged, so
            // the modeled cost stream is unaffected.
            self.world.compact_chunk_storage();
        }
        gc_work
    }

    /// Stage 7: clock advance, keep-alive bookkeeping and overload handling.
    /// Returns the crash record if this tick killed the server.
    ///
    /// Crash semantics: clients time out when the server cannot serve them
    /// a keep-alive within the timeout window. Keep-alives go out every 100
    /// ticks, so sustained overload stretches the interval between them
    /// until it exceeds the timeout — the mechanism by which the Lag
    /// workload crashes every MLG on AWS in the paper (MF2). A single
    /// monster tick longer than the window has the same effect.
    fn end_of_tick(&mut self, busy_ms: f64, period_ms: f64) -> Option<ServerCrash> {
        self.clock_ms += period_ms;
        let end_ms = self.clock_ms;
        for player in self.players.iter_mut().filter(|pl| !pl.disconnected) {
            player.last_served_ms = end_ms;
        }
        self.ms_since_keepalive += period_ms;
        if self.tick_index.is_multiple_of(100) {
            self.ms_since_keepalive = 0.0;
        }
        let stalled = busy_ms > self.config.keepalive_timeout_ms
            || self.ms_since_keepalive > self.config.keepalive_timeout_ms;
        if !stalled || self.player_count() == 0 {
            return None;
        }
        for player in &mut self.players {
            player.disconnected = true;
        }
        self.crash = Some(ServerCrash {
            reason: format!(
                "tick {} stalled for {:.0} ms; all client connections timed out",
                self.tick_index, busy_ms
            ),
            at_tick: self.tick_index,
        });
        self.crash.clone()
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

    /// Drains `player`'s queued packets into a `Vec`.
    fn drain(s: &mut GameServer, player: PlayerId) -> Vec<ClientboundPacket> {
        let mut packets = Vec::new();
        s.drain_outgoing_with(player, |run| packets.extend_from_slice(run));
        packets
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
        let join_packets = drain(&mut s, id);
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
            for chunk in pos.block_pos().chunk().square(2) {
                expected.push(ClientboundPacket::ChunkData {
                    pos: chunk,
                    payload_bytes: terrain.generate(chunk).network_size_bytes() as u32,
                });
            }
            let joined = drain(s, id);
            assert_eq!(joined, expected, "{name}'s join stream");
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
        s.drain_outgoing_with(id, |_| ());
        s.enqueue_packet(
            id,
            ServerboundPacket::Chat {
                message: "ping".into(),
                sent_at_ms: 777.0,
            },
        );
        s.run_tick(&mut e);
        let packets = drain(&mut s, id);
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
        s.drain_outgoing_with(a, |_| ());
        s.drain_outgoing_with(b, |_| ());
        s.enqueue_packet(
            a,
            ServerboundPacket::BlockPlace {
                pos: BlockPos::new(3, 61, 3),
                block: Block::simple(BlockKind::Planks),
            },
        );
        s.run_tick(&mut e);
        let to_bob = drain(&mut s, b);
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
        assert!(s.crash().is_some());
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
        assert!(s.pending_relight.is_empty(), "idle ticks queue nothing");
        // A fused TNT block detonating is a terrain-stage change.
        s.world_mut()
            .set_block_silent(BlockPos::new(5, 61, 5), Block::simple(BlockKind::Tnt));
        s.schedule_tnt_ignition(1);
        s.run_tick(&mut e);
        assert!(
            !s.pending_relight.is_empty(),
            "the ignition change must queue for the pipelined stage"
        );
        s.run_tick(&mut e);
        // The next tick consumed the queue (explosion fallout may requeue
        // new changes, but the original set is gone; on this quiet world
        // the queue drains as the cascade settles).
        for _ in 0..40 {
            s.run_tick(&mut e);
        }
        assert!(s.pending_relight.is_empty(), "the queue must drain");

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
                s.entities.count(),
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
