//! Voxel world substrate for the Meterstick Minecraft-like-game (MLG) simulator.
//!
//! This crate implements the *terrain* part of the operational model described
//! in Section 2 of the Meterstick paper (Eickhoff, Donkervliet, Iosup,
//! ISPASS 2022): a modifiable block world split into lazily generated chunks,
//! together with the terrain-simulation rules that make MLG workloads unique —
//! block physics (gravity-affected blocks), fluid flow, dynamic lighting,
//! plant growth and redstone-like signal simulation used by *simulated
//! constructs* such as resource farms and lag machines.
//!
//! The crate is deliberately independent from wall-clock time: every
//! simulation step reports *counters* of what it did
//! ([`sim::TerrainTickReport`]). It attaches no cost to them — the server's
//! cost model (`mlg-server/src/cost.rs`) prices the counters into work
//! units, which the deployment-environment simulator (`cloud-sim`) converts
//! into milliseconds.
//!
//! The [`shard`] module partitions the loaded world for the sharded tick
//! pipeline: either static 4-chunk x-stripes or an adaptive 2D region
//! quadtree whose leaves split and merge between ticks from per-shard
//! load reports ([`shard::ShardLoadReport`]) under a hysteresis rule —
//! both partitions are pure functions of their inputs, keeping the
//! pipeline bit-identical at any worker-thread count. The [`pool`] module
//! provides the execution substrate: a persistent [`TickWorkerPool`] of
//! parked workers, spawned once per server and reused by every parallel
//! phase of every tick — the only fan-out implementation on the tick path
//! (a pool-less pipeline runs the same code on a short-lived pool). The
//! system-wide map — stage graph, determinism contract, cost model — lives
//! in `docs/ARCHITECTURE.md` at the repository root.
//!
//! # Example
//!
//! ```
//! use mlg_world::{World, BlockPos, Block, BlockKind};
//! use mlg_world::generation::FlatGenerator;
//!
//! let mut world = World::new(Box::new(FlatGenerator::grassland()), 42);
//! // Chunks are generated lazily on first access.
//! let pos = BlockPos::new(8, 64, 8);
//! world.set_block(pos, Block::simple(BlockKind::Stone));
//! assert_eq!(world.block(pos).kind(), BlockKind::Stone);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod chunk;
pub mod fluid;
pub mod generation;
pub mod growth;
pub mod light;
pub mod palette;
pub mod physics;
pub mod pool;
pub mod pos;
pub mod redstone;
pub mod region;
pub mod scratch;
pub mod shard;
pub mod sim;
pub mod update;
pub mod world;

pub use block::{Block, BlockKind};
pub use chunk::{Chunk, CHUNK_SIZE, WORLD_HEIGHT};
pub use palette::PaletteStore;
pub use pool::{PoolScope, TickWorkerPool};
pub use pos::{BlockPos, ChunkPos};
pub use region::Region;
pub use scratch::TickScratch;
pub use shard::{BlockReader, ShardLoadReport, ShardMap, TerrainView, TickPipeline};
pub use sim::{ShardedTerrainTick, TerrainSimulator, TerrainTickReport};
pub use update::{BlockUpdate, UpdateKind};
pub use world::World;

/// Number of game ticks per simulated second at the intended rate.
pub const TICKS_PER_SECOND: u64 = 20;
