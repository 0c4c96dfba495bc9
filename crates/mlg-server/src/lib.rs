//! The Minecraft-like game server used as Meterstick's system under test.
//!
//! This crate implements the operational model of Figure 4 in the paper: a
//! 20 Hz game loop orchestrating three simulation elements — the player
//! handler, terrain simulation and entity simulation — connected to clients
//! through networking queues, all reading and writing the shared game state.
//!
//! Because the paper benchmarks three real server implementations (the
//! official Minecraft server, Forge and PaperMC) that cannot be run here, the
//! server supports [`flavor::ServerFlavor`]s that model their
//! performance-relevant differences: PaperMC's asynchronous chat and
//! environment processing, its reworked entity handling and explosion
//! optimizations; Forge's mod-loader overhead on top of vanilla behaviour;
//! plus a Folia-like sharded flavor that goes beyond the paper's systems.
//!
//! # The tick stage graph
//!
//! [`server::GameServer::run_tick`] is a driver over an explicit **stage
//! graph**, one private method per stage in `server.rs`: pipelined lighting
//! (`stage_pipelined_lighting`) → player handler (`stage_players`, over
//! [`handler`]) → terrain simulation (`stage_terrain`) → entity simulation
//! (`stage_entities`) → state-update dissemination (`stage_dissemination`,
//! over the private `dissemination` module) → work accounting (the private
//! `cost` module) → clock, keep-alive and overload handling
//! (`end_of_tick`). Every stage declares its shard-parallel and serial-tail
//! work against the **sharded tick pipeline** (`mlg_world::shard`); a
//! serial flavor's pipeline has one shard, and only its entity stage keeps
//! a serial model (`EntityManager::tick`):
//!
//! * the **player handler** batches connected players by the shard owning
//!   their chunk and processes interior batches concurrently against
//!   per-shard world views; boundary players — standing on a shard-edge
//!   chunk, or placing/digging across a shard edge — escalate to a serial
//!   tail ([`handler::process_players_sharded`]);
//! * **terrain** and **entities** fan per-shard work over the server's
//!   persistent tick worker pool (interior/boundary classification,
//!   serial escalation);
//! * **dissemination** assembles the tick's broadcasts into one reused,
//!   pre-sized buffer (player positions grouped per shard in canonical
//!   order) and hands it to the networking queues in one
//!   [`queues::NetworkingQueues::broadcast_many`] call (or
//!   `multicast_many`, for flavors that filter by area of interest), which
//!   stores each packet once and queues positions of that log per
//!   connection — one entry per connection for a broadcast, and per
//!   connection reached for a run of area-of-interest packets;
//! * **lighting** is either recomputed eagerly inside the terrain stage
//!   (vanilla) or — for [`FlavorProfile::eager_lighting`]` = false`
//!   flavors (Paper/Folia) — deferred into a **cross-tick pipelined
//!   stage**: each tick's relight positions queue up and are consumed
//!   against a frozen world snapshot at the start of the *next* tick,
//!   overlapping that tick's player stage in the compute model.
//!
//! Batching, merge order and escalation depend only on the shard map and
//! the inputs — never on scheduling — so the whole graph is
//! **bit-identical at any thread count**: `tick_threads = 1` is the
//! sequential reference path, and tests pin [`TickSummary`] equality
//! across settings, rebalance on and off, lighting eager and pipelined.
//!
//! Flavors with [`FlavorProfile::rebalance`] set (the Folia-like one)
//! replace the static stripe partition with an **adaptive 2D region
//! quadtree**: at the end of every tick the merged per-shard load report
//! (terrain updates + entity counts + player-stage work units) drives one
//! deterministic split/merge step — hot regions split while cold quads
//! merge back, within a hysteresis band — and players and entities are
//! re-batched against the new partition on the next tick. Scheduled
//! updates (TNT fuses, repeater delays) are keyed by position in the
//! world's global queue, so a chunk migrating between shards keeps its
//! fuses tick-exact (there is a regression test pinning this).
//!
//! The server runs entirely in virtual time. The stages only *count* what
//! they did; the private `cost` module (`src/cost.rs`) is the one place
//! those counters are priced into abstract work units — every weight of the
//! model is declared there — and split, as a pure function of the counters
//! and the flavor profile, into one `StageWork` record per stage for the
//! `cloud-sim` compute engine: serial main-thread work plus a
//! parallelizable share with a per-stage width (the shard count) and a
//! per-stage load-balance floor (that stage's busiest shard) — folded into
//! one Amdahl critical path, with asynchronously *offloadable* work (async
//! chat, the pipelined lighting pass) overlapped on spare cores. Per-stage
//! fractions come from [`FlavorProfile::stage_parallel`]; the resulting
//! per-stage busy-time breakdown is exposed as [`TickStageBreakdown`] on
//! every summary and as `stage_*_ms` columns in campaign CSVs, so
//! variability can be attributed to stages the way the paper's Figure 11
//! attributes it to work classes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
mod cost;
mod dissemination;
pub mod flavor;
pub mod handler;
pub mod player;
pub mod queues;
pub mod server;

pub use config::ServerConfig;
pub use flavor::{FlavorProfile, ServerFlavor, StageParallelism};
pub use player::{ConnectedPlayer, PlayerId};
pub use server::{GameServer, ServerCrash, TickStageBreakdown, TickSummary};
