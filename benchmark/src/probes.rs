//! Isolated layer probes. The stages *inside* `GameServer::run_tick` cannot
//! be told apart from outside the simulator, so each gets a probe: the
//! layer's public entry point driven on a fixed scene (the workload worlds,
//! or the scenes of `crates/bench/benches/tick_hotpaths.rs`), timed with
//! `Instant` and reported as the median of [`SAMPLES`] samples. Work counts
//! come from the layer's own report where it has one.
//!
//! Probes take fixed inputs, not `--seed`: they compare two versions of one
//! layer on identical work. Per-layer numbers carry no regression bound; they
//! say *where* an end-to-end change came from.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cloud_sim::engine::StageWork;
use cloud_sim::environment::Environment;
use cloud_sim::metrics_collector::{SystemMetricsCollector, TickObservation};
use cloud_sim::temporal::{StartTime, TemporalProfile, TenancyProcess};
use cloud_sim::{InterferenceProfile, InterferenceState};
use meterstick::campaign::Campaign;
use meterstick::sink::{CsvSink, JsonlSink, NullSink, ResultSink, TickSample};
use meterstick::{ParallelExecutor, SequentialExecutor};
use meterstick_daemon::MetricsHistory;
use meterstick_metrics::response::ResponseTimeSummary;
use meterstick_metrics::trace::{TickRecord, TickTrace};
use meterstick_metrics::windowed::WindowedAggregator;
use meterstick_metrics::TickDistribution;
use meterstick_workloads::{WorkloadKind, WorkloadSpec};
use mlg_entity::pathfinding::find_path;
use mlg_entity::{EntityId, EntityKind, EntityManager, Vec3};
use mlg_protocol::codec::{clientbound_wire_size, decode_clientbound, encode_clientbound};
use mlg_protocol::{ClientboundPacket, ServerboundPacket, TrafficAccountant};
use mlg_server::handler::{process_player_actions, process_players_sharded, PlayerStageReport};
use mlg_server::queues::{NetworkingQueues, PacketRecipients};
use mlg_server::{ConnectedPlayer, PlayerId, ServerFlavor, TickStageBreakdown};
use mlg_world::generation::FlatGenerator;
use mlg_world::sim::{explode, relight_positions_frozen_with};
use mlg_world::{
    Block, BlockKind, BlockPos, Chunk, ChunkPos, PoolScope, TerrainSimulator, TickPipeline,
    TickScratch, TickWorkerPool, World,
};

use crate::ledger::Metric;
use crate::workloads::{self, DEFAULT_SEED, MAX_THREADS};

/// Samples behind a probe's median.
pub const SAMPLES: usize = 30;

/// Samples behind the median of the two 4,000-mob entity ticks, whose every
/// sample is 0.1–0.2 s of work — thirty of each would outlast the rest of
/// the traced run.
const HEAVY_SAMPLES: usize = 10;

/// Shards of the probe pipelines — Folia's `tick_shards`.
const SHARDS: u32 = 8;

fn time_s<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

/// Median of `n` values of `sample`.
fn median_of_n(n: usize, mut sample: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| sample()).collect();
    crate::stats::median(&samples)
}

/// Median of [`SAMPLES`] values of `sample`.
fn median_of(sample: impl FnMut() -> f64) -> f64 {
    median_of_n(SAMPLES, sample)
}

fn flat_world() -> World {
    World::new(Box::new(FlatGenerator::grassland()), 7)
}

fn workload_world(kind: WorkloadKind) -> World {
    WorkloadSpec::new(kind).build(DEFAULT_SEED).world
}

/// A static-stripe pipeline on a persistent two-worker pool: what a Folia
/// server at `tick_threads = 2` ticks through.
fn sharded_pipeline(world: &mut World) -> TickPipeline {
    let mut pipeline = TickPipeline::new(SHARDS, MAX_THREADS);
    pipeline.attach_pool(Arc::new(TickWorkerPool::new(MAX_THREADS)));
    world.reshard(pipeline.shard_map().clone());
    pipeline
}

/// Seconds per terrain tick and total updates processed, over
/// `SAMPLES` samples of two ticks each (lag-machine clocks fire every other
/// tick) after a 40-tick warm-up.
fn terrain_ticks(world: &mut World, mut tick: impl FnMut(&mut World) -> u64) -> (f64, f64, f64) {
    let mut step = |world: &mut World| {
        world.advance_tick();
        let updates = tick(world);
        world.drain_changes();
        updates
    };
    for _ in 0..40 {
        step(world);
    }
    let (mut total_s, mut updates) = (0.0, 0.0);
    let per_tick = median_of(|| {
        let s = time_s(|| updates += (step(world) + step(world)) as f64);
        total_s += s;
        s / 2.0
    });
    (per_tick, total_s, updates)
}

fn world_probes() -> Vec<Metric> {
    let sim = TerrainSimulator::new();
    let mut scratch = TickScratch::new();

    let mut control = workload_world(WorkloadKind::Control);
    let mut center = 0;
    let ensure_area = median_of(|| {
        center += 20;
        let mut generated = 0;
        let s = time_s(|| generated = control.ensure_area(ChunkPos::new(center, 0), 4));
        s / generated.max(1) as f64
    });

    let mut farm = workload_world(WorkloadKind::Farm);
    let (farm_tick, farm_total, farm_updates) = terrain_ticks(&mut farm, |w| {
        sim.tick_with(w, &mut scratch).0.total_updates()
    });
    let mut lag = workload_world(WorkloadKind::Lag);
    let (lag_tick, _, _) = terrain_ticks(&mut lag, |w| {
        sim.tick_with(w, &mut scratch).0.total_updates()
    });

    let mut lag = workload_world(WorkloadKind::Lag);
    let pipeline = sharded_pipeline(&mut lag);
    let (lag_sharded_tick, _, _) = terrain_ticks(&mut lag, |w| {
        sim.tick_sharded_with(w, &pipeline, &mut scratch)
            .report
            .total_updates()
    });

    // Relighting: every sample toggles the 64 columns' top block first, so
    // the pass floods for real instead of answering from the relight cache.
    let mut lit = flat_world();
    lit.ensure_area(ChunkPos::new(0, 0), 2);
    let positions: Vec<BlockPos> = (0..64)
        .map(|i| BlockPos::new((i % 8) * 4 - 16, 61, (i / 8) * 4 - 16))
        .collect();
    let mut stone = false;
    let relight = median_of(|| {
        stone = !stone;
        let block = if stone {
            Block::simple(BlockKind::Stone)
        } else {
            Block::AIR
        };
        for &pos in &positions {
            lit.set_block_silent(pos, block);
        }
        time_s(|| {
            relight_positions_frozen_with(&mut lit, &positions, &PoolScope::scoped(1), &mut scratch)
        })
    });

    let explosion = median_of(|| {
        let mut world = flat_world();
        world.ensure_area(ChunkPos::new(0, 0), 1);
        time_s(|| explode(&mut world, BlockPos::new(8, 60, 8), 4))
    });

    // Palette storage: a generated-style column profile written block by
    // block and by bulk column fill, then read back in full.
    let layers = [
        (0, 0, BlockKind::Bedrock),
        (1, 59, BlockKind::Stone),
        (60, 62, BlockKind::Dirt),
        (63, 63, BlockKind::Grass),
    ];
    let palette_set = median_of(|| {
        let mut chunk = Chunk::empty(ChunkPos::new(0, 0));
        let s = time_s(|| {
            for (lo, hi, kind) in layers {
                for y in lo..=hi {
                    for z in 0..16 {
                        for x in 0..16 {
                            chunk.set_block(x, y, z, Block::simple(kind));
                        }
                    }
                }
            }
        });
        black_box(&chunk);
        s / (64.0 * 256.0)
    });
    let palette_fill_column = median_of(|| {
        let mut chunk = Chunk::empty(ChunkPos::new(0, 0));
        let s = time_s(|| {
            for x in 0..16 {
                for z in 0..16 {
                    for (lo, hi, kind) in layers {
                        chunk.fill_column(x, z, lo, hi, Block::simple(kind));
                    }
                }
            }
        });
        black_box(&chunk);
        s / (4.0 * 256.0)
    });
    let mut filled = Chunk::empty(ChunkPos::new(0, 0));
    for x in 0..16 {
        for z in 0..16 {
            for (lo, hi, kind) in layers {
                filled.fill_column(x, z, lo, hi, Block::simple(kind));
            }
        }
    }
    filled.compact_storage();
    let palette_get = median_of(|| {
        let s = time_s(|| {
            let mut non_air = 0u32;
            for y in 0..128 {
                for z in 0..16 {
                    for x in 0..16 {
                        non_air += u32::from(!filled.block(x, y, z).is_air());
                    }
                }
            }
            non_air
        });
        s / (128.0 * 256.0)
    });

    let pool = TickWorkerPool::new(MAX_THREADS);
    let pool_dispatch = median_of(|| {
        let s = time_s(|| {
            for _ in 0..100 {
                black_box(
                    pool.scope()
                        .run_tasks(vec![0u64; SHARDS as usize], |index, task| {
                            *task += index as u64;
                        }),
                );
            }
        });
        s / 100.0
    });

    vec![
        (
            "mlg_world.ensure_area_us_per_chunk",
            "us",
            ensure_area * 1e6,
        ),
        ("mlg_world.tick_with_us.farm", "us", farm_tick * 1e6),
        ("mlg_world.tick_with_us.lag", "us", lag_tick * 1e6),
        (
            "mlg_world.ns_per_update",
            "ns",
            farm_total * 1e9 / farm_updates.max(1.0),
        ),
        (
            "mlg_world.tick_sharded_with_us.lag",
            "us",
            lag_sharded_tick * 1e6,
        ),
        ("mlg_world.relight_frozen_us", "us", relight * 1e6),
        ("mlg_world.explode_r4_us", "us", explosion * 1e6),
        ("mlg_world.palette_get_ns", "ns", palette_get * 1e9),
        ("mlg_world.palette_set_ns", "ns", palette_set * 1e9),
        (
            "mlg_world.palette_fill_column_ns",
            "ns",
            palette_fill_column * 1e9,
        ),
        ("mlg_world.pool_dispatch_us", "us", pool_dispatch * 1e6),
    ]
}

/// `n` cows scattered over a 384-block square of flat world (the
/// `entity_scaling` scene of `tick_hotpaths`). The square is generated up
/// front: the sharded entity path reads unloaded chunks as air instead of
/// generating them, and both paths must tick the same terrain.
fn populated(n: usize) -> (EntityManager, World, Vec<EntityId>) {
    let mut world = flat_world();
    world.ensure_area(ChunkPos::new(0, 0), 13);
    let mut manager = EntityManager::new(7);
    manager.natural_spawning = false;
    let mut s = 0x5EED_u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let ids = (0..n)
        .map(|_| {
            let pos = Vec3::new(
                (next() % 384) as f64 - 192.0,
                62.0,
                (next() % 384) as f64 - 192.0,
            );
            manager.spawn(EntityKind::Cow, pos)
        })
        .collect();
    (manager, world, ids)
}

fn entity_probes() -> Vec<Metric> {
    // Two untimed ticks first let the mobs land.
    let tick_us = |n: usize, samples: usize| {
        let (mut manager, mut world, _) = populated(n);
        let mut tick = || time_s(|| manager.tick(&mut world, &[Vec3::ZERO]));
        tick();
        tick();
        median_of_n(samples, tick) * 1e6
    };
    let (tick_1k, tick_4k) = (tick_us(1_000, SAMPLES), tick_us(4_000, HEAVY_SAMPLES));

    let (mut manager, mut world, _) = populated(4_000);
    let pipeline = sharded_pipeline(&mut world);
    let mut tick = || time_s(|| manager.tick_batched(&mut world, &[Vec3::ZERO], &pipeline));
    tick();
    tick();
    let batched_4k = median_of_n(HEAVY_SAMPLES, tick);

    let churn = median_of(|| {
        let (mut manager, _, ids) = populated(4_000);
        time_s(|| {
            for id in ids {
                manager.remove(id);
            }
        })
    });

    // A wall with one gap forces a detour (the `pathfind_30_blocks` scene).
    let mut maze = flat_world();
    for z in -10..=10 {
        for y in 61..64 {
            if z != 8 {
                maze.set_block_silent(BlockPos::new(15, y, z), Block::simple(BlockKind::Stone));
            }
        }
    }
    let path = median_of(|| {
        time_s(|| {
            find_path(
                &mut maze,
                BlockPos::new(0, 61, 0),
                BlockPos::new(30, 61, 0),
                4_096,
            )
        })
    });

    vec![
        ("mlg_entity.tick_us.1k", "us", tick_1k),
        ("mlg_entity.tick_us.4k", "us", tick_4k),
        // 4.0 is linear in the population; above it the tick is superlinear.
        ("mlg_entity.scaling_ratio", "ratio", tick_4k / tick_1k),
        ("mlg_entity.tick_batched_us.4k", "us", batched_4k * 1e6),
        ("mlg_entity.despawn_churn_us.4k", "us", churn * 1e6),
        ("mlg_entity.find_path_us", "us", path * 1e6),
    ]
}

/// `n` connected players clustered in a 24x24 square around `center` — the
/// Crowd workload's shape.
fn crowd(n: u32, center: Vec3) -> Vec<ConnectedPlayer> {
    (0..n)
        .map(|i| ConnectedPlayer {
            id: PlayerId(i + 1),
            entity_id: EntityId(u64::from(i + 1) | 0x4000_0000),
            name: format!("probe-{i}"),
            pos: Vec3::new(
                center.x + f64::from(i % 24) - 12.0,
                center.y,
                center.z + f64::from(i / 24) - 12.0,
            ),
            connected_at_tick: 0,
            last_served_ms: 0.0,
            disconnected: false,
        })
        .collect()
}

/// One small step for every player; `flip` alternates the direction so the
/// crowd never drifts.
fn crowd_moves(players: &[ConnectedPlayer], flip: bool) -> Vec<Vec<ServerboundPacket>> {
    let dx = if flip { 0.25 } else { -0.25 };
    players
        .iter()
        .map(|p| {
            vec![ServerboundPacket::PlayerMove {
                pos: Vec3::new(p.pos.x + dx, p.pos.y, p.pos.z),
                on_ground: true,
            }]
        })
        .collect()
}

fn moves(n: u64) -> Vec<ClientboundPacket> {
    (0..n)
        .map(|i| ClientboundPacket::EntityMove {
            id: EntityId(i),
            pos: Vec3::new(i as f64, 64.0, -(i as f64)),
        })
        .collect()
}

fn connections(n: u32) -> NetworkingQueues {
    let mut queues = NetworkingQueues::new();
    (1..=n).for_each(|id| queues.add_connection(PlayerId(id)));
    queues
}

/// Seconds to broadcast `packets` to `players` connections, and seconds to
/// drain every connection afterwards.
fn broadcast_and_drain(players: u32, packets: u64) -> (f64, f64) {
    let mut queues = connections(players);
    let packets = moves(packets);
    let mut drain_samples = Vec::with_capacity(SAMPLES);
    let broadcast = median_of(|| {
        let s = time_s(|| queues.broadcast_many(&packets));
        drain_samples.push(time_s(|| {
            for id in 1..=players {
                black_box(queues.drain_outgoing(PlayerId(id)));
            }
        }));
        s
    });
    (broadcast, crate::stats::median(&drain_samples))
}

fn server_probes() -> Vec<Metric> {
    let built = WorkloadSpec::new(WorkloadKind::Crowd).build(DEFAULT_SEED);
    let mut world = built.world;
    let mut players = crowd(220, built.spawn_point);
    let mut flip = false;
    let player_actions = median_of(|| {
        flip = !flip;
        let actions = crowd_moves(&players, flip);
        let mut report = PlayerStageReport::default();
        time_s(|| {
            for (player, queue) in players.iter_mut().zip(actions) {
                process_player_actions(&mut world, player, queue, &mut report);
            }
        })
    });
    world.drain_changes();

    let pipeline = sharded_pipeline(&mut world);
    let mut roster = Some(crowd(220, built.spawn_point));
    let players_sharded = median_of(|| {
        flip = !flip;
        let players = roster.take().expect("roster is handed back every sample");
        let actions = crowd_moves(&players, flip);
        let mut stage = None;
        let s = time_s(|| {
            stage = Some(process_players_sharded(
                &mut world, players, actions, &pipeline,
            ))
        });
        roster = stage.map(|(players, _)| players);
        s
    });

    let (broadcast_220, drain_220) = broadcast_and_drain(220, 500);
    let (broadcast_1000, _) = broadcast_and_drain(1_000, 1_000);

    // Area-of-interest dissemination where it pays: 2,000 positioned packets,
    // each for the 8 players around it, over 2,000 connections.
    let mut queues = connections(2_000);
    let packets = moves(2_000);
    let interest: Vec<Vec<PlayerId>> = (0..2_000u32)
        .map(|i| (0..8).map(|k| PlayerId((i + k) % 2_000 + 1)).collect())
        .collect();
    let multicast = median_of(|| {
        let s =
            time_s(|| queues.multicast_many(&packets, |i| PacketRecipients::Only(&interest[i])));
        for id in 1..=2_000 {
            queues.drain_outgoing(PlayerId(id));
        }
        s
    });

    vec![
        (
            "mlg_server.player_actions_us.220",
            "us",
            player_actions * 1e6,
        ),
        (
            "mlg_server.players_sharded_us.220",
            "us",
            players_sharded * 1e6,
        ),
        ("mlg_server.drain_outgoing_us.220", "us", drain_220 * 1e6),
        (
            "mlg_server.broadcast_many_us.220x500",
            "us",
            broadcast_220 * 1e6,
        ),
        (
            "mlg_server.broadcast_many_us.1000x1000",
            "us",
            broadcast_1000 * 1e6,
        ),
        ("mlg_server.multicast_many_us.2000", "us", multicast * 1e6),
    ]
}

fn protocol_probes() -> Vec<Metric> {
    // The dissemination stage's mix: mostly moves, then block changes,
    // spawns, and the occasional chat line and chunk.
    let packets: Vec<ClientboundPacket> = (0..1_000u64)
        .map(|i| match i % 10 {
            0..=5 => ClientboundPacket::EntityMove {
                id: EntityId(i),
                pos: Vec3::new(i as f64, 64.0, 0.5),
            },
            6 | 7 => ClientboundPacket::BlockChange {
                pos: BlockPos::new(i as i32, 60, 3),
                block: Block::simple(BlockKind::Stone),
            },
            8 => ClientboundPacket::EntitySpawn {
                id: EntityId(i),
                kind_id: 3,
                pos: Vec3::new(0.5, 64.0, i as f64),
            },
            _ if i % 100 == 9 => ClientboundPacket::ChunkData {
                pos: ChunkPos::new(i as i32, 0),
                payload_bytes: 2_048,
            },
            _ => ClientboundPacket::Chat {
                message: format!("<meterstick-bot-{i:02}> ping"),
                echo_of_ms: i as f64,
            },
        })
        .collect();
    let per_packet = |s: f64| s / packets.len() as f64 * 1e9;
    let encode = median_of(|| {
        time_s(|| {
            packets
                .iter()
                .for_each(|p| drop(black_box(encode_clientbound(p))))
        })
    });
    let encoded: Vec<_> = packets.iter().map(encode_clientbound).collect();
    let decode = median_of(|| {
        time_s(|| {
            encoded
                .iter()
                .for_each(|bytes| drop(black_box(decode_clientbound(bytes.clone()))))
        })
    });
    let wire_size =
        median_of(|| time_s(|| packets.iter().map(clientbound_wire_size).sum::<usize>()));
    let record = median_of(|| {
        let mut accountant = TrafficAccountant::new();
        time_s(|| {
            packets.iter().for_each(|p| accountant.record(p, 25));
            accountant
        })
    });
    vec![
        (
            "mlg_protocol.encode_clientbound_ns",
            "ns",
            per_packet(encode),
        ),
        (
            "mlg_protocol.decode_clientbound_ns",
            "ns",
            per_packet(decode),
        ),
        ("mlg_protocol.wire_size_ns", "ns", per_packet(wire_size)),
        (
            "mlg_protocol.accounting_record_ns",
            "ns",
            per_packet(record),
        ),
    ]
}

/// Calls per sample of the per-tick fixed-overhead probes: one simulated
/// minute of ticks.
const TICKS: u32 = 1_200;

fn per_tick_ns(mut run: impl FnMut()) -> f64 {
    median_of(|| time_s(&mut run)) / f64::from(TICKS) * 1e9
}

fn tick_record(index: u64) -> TickRecord {
    TickRecord {
        index,
        start_ms: index as f64 * 50.0,
        // One tick in sixteen runs over the 50 ms budget.
        busy_ms: if index.is_multiple_of(16) {
            61.0
        } else {
            12.0 + (index % 7) as f64
        },
        period_ms: 50.0,
        distribution: TickDistribution::default(),
    }
}

fn fixed_overhead_probes() -> Vec<Metric> {
    // The six stages a tick hands the compute model.
    let stages: Vec<StageWork> = (1..=6u64)
        .map(|i| StageWork {
            main_thread: 4_000 * i,
            parallelizable: 9_000 * i,
            parallel_width: 8,
            max_shard: 2_000 * i,
        })
        .collect();
    let mut engine = Environment::aws_default().instantiate(1).engine;
    let execute_stages = per_tick_ns(|| {
        for _ in 0..TICKS {
            black_box(engine.execute_stages(&stages, 3_000, 50.0));
        }
    });
    let mut interference = InterferenceState::new(InterferenceProfile::aws(), 1);
    let interference_sample = per_tick_ns(|| {
        for _ in 0..TICKS {
            black_box(interference.sample_tick());
        }
    });
    let mut tenancy = TenancyProcess::new(TemporalProfile::aws(), 1, StartTime::default());
    let tenancy_step = per_tick_ns(|| {
        for _ in 0..TICKS {
            black_box(tenancy.step());
        }
    });
    let observation = TickObservation {
        cpu_utilization: 0.4,
        entities: 14,
        loaded_chunks: 81,
        players: 1,
        network_sent_bytes: 640,
        network_received_bytes: 48,
        blocks_written: 4,
    };
    let collector_observe = per_tick_ns(|| {
        let mut collector = SystemMetricsCollector::new(30);
        for tick in 0..TICKS {
            collector.observe_tick(f64::from(tick) * 50.0, observation);
        }
        black_box(collector.finish());
    });

    let records: Vec<TickRecord> = (0..u64::from(TICKS)).map(tick_record).collect();
    let trace_push = per_tick_ns(|| {
        let mut trace = TickTrace::new(50.0);
        records.iter().for_each(|r| trace.push(*r));
        black_box(trace);
    });
    let windowed_push = per_tick_ns(|| {
        let mut aggregator = WindowedAggregator::new(TICKS as usize, 60, 50.0);
        records.iter().for_each(|r| aggregator.push(r.busy_ms));
        black_box(aggregator);
    });
    let samples: Vec<TickSample> = records
        .iter()
        .map(|r| TickSample {
            tick: r.index,
            end_ms: r.start_ms + r.period_ms,
            busy_ms: r.busy_ms,
            period_ms: r.period_ms,
            budget_ms: 50.0,
            stages: TickStageBreakdown::default(),
            entity_count: 14,
            player_count: 1,
        })
        .collect();
    let mut history = MetricsHistory::new(1_024);
    let history_push = per_tick_ns(|| samples.iter().for_each(|s| history.push(s)));

    let mut trace = TickTrace::new(50.0);
    records.iter().for_each(|r| trace.push(*r));
    let isr = median_of(|| time_s(|| trace.instability_ratio(Some(u64::from(TICKS)))));
    let round_trips: Vec<f64> = (0..600).map(|i| 40.0 + f64::from(i % 37) * 3.0).collect();
    let response_summary = median_of(|| time_s(|| ResponseTimeSummary::of(&round_trips)));

    vec![
        ("cloud_sim.execute_stages_ns", "ns", execute_stages),
        (
            "cloud_sim.interference_sample_ns",
            "ns",
            interference_sample,
        ),
        ("cloud_sim.tenancy_step_ns", "ns", tenancy_step),
        ("cloud_sim.collector_observe_ns", "ns", collector_observe),
        ("metrics.trace_push_ns", "ns", trace_push),
        ("metrics.windowed_push_ns", "ns", windowed_push),
        ("daemon.history_push_ns", "ns", history_push),
        ("metrics.isr_us.1200", "us", isr * 1e6),
        ("metrics.response_summary_us", "us", response_summary * 1e6),
    ]
}

fn campaign_probes() -> Vec<Metric> {
    use WorkloadKind::{Control, Farm, Players, Tnt};
    let factorial = workloads::cloud_factorial([Control, Farm, Tnt, Players], DEFAULT_SEED);
    let plan = median_of(|| time_s(|| factorial.plan()));

    let small = Campaign::new()
        .workloads([WorkloadKind::Control])
        .flavors([ServerFlavor::Vanilla, ServerFlavor::Paper])
        .environments([Environment::das5(8)])
        .iterations(4)
        .duration_secs(1);
    let job = small.plan().expect("valid campaign").jobs()[0].clone();
    let result = job.run();
    let csv_row = median_of(|| {
        let mut sink = CsvSink::new(Vec::with_capacity(512));
        time_s(|| sink.on_result(&job, &result))
    });
    let jsonl_row = median_of(|| {
        let mut sink = JsonlSink::new(Vec::with_capacity(512));
        time_s(|| sink.on_result(&job, &result))
    });

    // Eight equal jobs on one worker and on two; each a median of five.
    let sweep = |executor: &dyn meterstick::Executor| {
        let walls: Vec<f64> = (0..5)
            .map(|_| {
                time_s(|| {
                    small
                        .run_with(executor, &mut NullSink)
                        .expect("valid campaign")
                })
            })
            .collect();
        crate::stats::median(&walls)
    };
    let sequential = sweep(&SequentialExecutor);
    let parallel = sweep(&ParallelExecutor::new(MAX_THREADS as usize));

    vec![
        ("core.plan_us.36", "us", plan * 1e6),
        ("core.csv_row_us", "us", csv_row * 1e6),
        ("core.jsonl_row_us", "us", jsonl_row * 1e6),
        ("core.parallel_speedup.2", "ratio", sequential / parallel),
    ]
}

/// Every probe's metric, in `BENCHMARK.json` order within each layer.
pub fn run_all() -> Vec<Metric> {
    [
        world_probes(),
        entity_probes(),
        server_probes(),
        protocol_probes(),
        fixed_overhead_probes(),
        campaign_probes(),
    ]
    .concat()
}
