//! Equivalence tests for the sharded tick pipeline at the campaign level:
//! tick records, traffic summaries and CSV output must be **bit-identical**
//! between the sequential reference path (`tick_threads = 1`) and any
//! parallel setting, across workloads and seeds.
//!
//! Lower-level equivalence (per-shard terrain/entity phases at 1/2/4/8
//! shard counts) is pinned by unit tests in `mlg-world` and `mlg-entity`;
//! this suite drives the whole stack the way the figure binaries do.

use cloud_sim::environment::Environment;
use meterstick::campaign::{Campaign, CampaignResults};
use meterstick::sink::CsvSink;
use meterstick_workloads::WorkloadKind;
use mlg_server::{FlavorProfile, GameServer, ServerConfig, ServerFlavor};
use mlg_world::generation::FlatGenerator;
use mlg_world::{Block, BlockKind, BlockPos, Region, World};

fn folia_campaign(workload: WorkloadKind, seed: u64, threads: u32) -> Campaign {
    // Folia defaults to the adaptive quadtree partition, so this pins the
    // rebalancing path; `rebalance_sweep_campaign` below additionally pins
    // the static stripes through the explicit axis.
    Campaign::new()
        .workloads([workload])
        .flavors([ServerFlavor::Folia])
        .environments([Environment::das5(4)])
        .tick_threads([threads])
        .duration_secs(3)
        .iterations(2)
        .seed(seed)
}

fn rebalance_sweep_campaign(workload: WorkloadKind, threads: u32) -> Campaign {
    // Both partition architectures through the explicit shard_rebalance
    // axis (static stripes AND the adaptive quadtree, seed-paired).
    Campaign::new()
        .workloads([workload])
        .flavors([ServerFlavor::Folia])
        .environments([Environment::das5(4)])
        .tick_threads([threads])
        .shard_rebalance([false, true])
        .duration_secs(3)
        .iterations(1)
        .seed(4242)
}

fn assert_bit_identical(a: &CampaignResults, b: &CampaignResults, context: &str) {
    assert_eq!(a.iterations().len(), b.iterations().len(), "{context}");
    for (x, y) in a.iterations().iter().zip(b.iterations()) {
        assert_eq!(
            x.trace.busy_durations(),
            y.trace.busy_durations(),
            "{context}: tick records diverged"
        );
        assert_eq!(
            x.response_samples, y.response_samples,
            "{context}: response samples diverged"
        );
        assert_eq!(x.traffic, y.traffic, "{context}: traffic diverged");
        assert_eq!(
            x.instability_ratio, y.instability_ratio,
            "{context}: ISR diverged"
        );
        assert_eq!(
            x.ticks_executed, y.ticks_executed,
            "{context}: tick counts diverged"
        );
    }
}

#[test]
fn sharded_campaigns_are_bit_identical_across_thread_counts() {
    for workload in [
        WorkloadKind::Control,
        WorkloadKind::Tnt,
        WorkloadKind::Farm,
        WorkloadKind::Lag,
    ] {
        for seed in [1234u64, 99_991] {
            let reference = folia_campaign(workload, seed, 1).run().unwrap();
            let parallel = folia_campaign(workload, seed, 4).run().unwrap();
            assert_bit_identical(
                &reference,
                &parallel,
                &format!("{workload} seed {seed} (1 vs 4 threads)"),
            );
        }
    }
}

#[test]
fn rebalancing_campaigns_are_bit_identical_at_1_4_and_8_threads() {
    // The adaptive partition evolves from merged load reports only, so the
    // hotspot workloads (TNT cascades, Lag's redstone storm) must replay
    // bit-identically at any worker-thread count.
    for workload in [WorkloadKind::Tnt, WorkloadKind::Lag] {
        let reference = rebalance_sweep_campaign(workload, 1).run().unwrap();
        for threads in [4u32, 8] {
            let parallel = rebalance_sweep_campaign(workload, threads).run().unwrap();
            assert_bit_identical(
                &reference,
                &parallel,
                &format!("{workload} rebalance sweep (1 vs {threads} threads)"),
            );
        }
    }
}

/// A clustered-TNT hotspot server over the shared
/// [`meterstick_workloads::tnt::clustered_hotspot_world`] scene — the shape
/// static stripes cannot split (one stripe owns the whole hotspot) but 2D
/// regions can.
fn clustered_tnt_server(rebalance: bool, threads: u32) -> GameServer {
    let world = meterstick_workloads::tnt::clustered_hotspot_world(7);
    let config = ServerConfig::for_flavor(ServerFlavor::Folia)
        .with_view_distance(2)
        .with_tick_threads(threads)
        .with_shard_rebalance(Some(rebalance));
    // Spawn well away from the TNT column, so the observer's streamed
    // chunks don't overlap it.
    let spawn = mlg_entity::Vec3::new(100.5, 61.0, 100.5);
    let mut server = GameServer::new(config, world, spawn);
    server.connect_player("probe");
    server.schedule_tnt_ignition(2);
    server
}

/// The persistent tick worker pool is pure execution substrate: one server,
/// its pool reused across two back-to-back probe runs (a second TNT hotspot
/// is rebuilt and re-ignited mid-run, so the pool sees two full cascade
/// bursts plus the adaptive rebalancer splitting and merging between them),
/// must produce tick summaries bit-identical to the 1-thread run, which
/// executes every phase inline on a pool with no workers — at 4 and 8 tick
/// threads alike.
#[test]
fn pool_reuse_is_bit_identical() {
    let run = |threads: u32| -> Vec<mlg_server::TickSummary> {
        let mut server = clustered_tnt_server(true, threads);
        assert_eq!(
            server.pipeline().threads(),
            threads,
            "the pipeline's pool has one executor per tick thread"
        );
        let mut engine = Environment::das5(8).instantiate(1).engine;
        let mut summaries: Vec<_> = (0..60).map(|_| server.run_tick(&mut engine)).collect();
        // Second probe run on the same server: rebuild the hotspot and
        // re-ignite, reusing the same (already warmed) worker pool.
        server.world_mut().fill_region(
            Region::new(BlockPos::new(64, 61, 64), BlockPos::new(72, 62, 72)),
            Block::simple(BlockKind::Tnt),
        );
        server.schedule_tnt_ignition(2);
        summaries.extend((0..60).map(|_| server.run_tick(&mut engine)));
        summaries
    };

    let inline = run(1);
    for threads in [4u32, 8] {
        assert_eq!(
            run(threads),
            inline,
            "threads={threads}: persistent pool diverged from the inline path"
        );
    }
}

#[test]
fn adaptive_regions_cut_the_busiest_shard_on_a_clustered_tnt_hotspot() {
    let run = |rebalance: bool, threads: u32| {
        let mut server = clustered_tnt_server(rebalance, threads);
        let mut engine = Environment::das5(8).instantiate(1).engine;
        (0..150)
            .map(|_| server.run_tick(&mut engine))
            .collect::<Vec<_>>()
    };

    let static_stripes = run(false, 8);
    let adaptive = run(true, 8);
    // Both partitions are thread-count invariant, rebalancing included.
    assert_eq!(
        adaptive,
        run(true, 1),
        "adaptive run diverged across threads"
    );

    let floor = |summaries: &[mlg_server::TickSummary]| -> u64 {
        summaries.iter().map(|s| s.max_shard_work).sum()
    };
    let busy = |summaries: &[mlg_server::TickSummary]| -> f64 {
        summaries.iter().map(|s| s.record.busy_ms).sum()
    };
    let (static_floor, adaptive_floor) = (floor(&static_stripes), floor(&adaptive));
    assert!(static_floor > 0, "the hotspot must load the busiest shard");
    assert!(
        adaptive_floor < static_floor * 4 / 5,
        "adaptive regions should cut the busiest-shard floor: static {static_floor}, adaptive {adaptive_floor}"
    );
    assert!(
        busy(&adaptive) < busy(&static_stripes),
        "lower busiest-shard floor should shorten tick busy time: static {} ms, adaptive {} ms",
        busy(&static_stripes),
        busy(&adaptive)
    );
}

/// A player-heavy clustered crowd (the Crowd workload's 220 building bots)
/// driven at server level: the stage-parallel tick graph — sharded player
/// handler, per-shard dissemination, pipelined lighting — must beat the
/// same server with stages 1/4 pinned to the main thread on an 8-core
/// node, and its output must be bit-identical at 1 vs 8 worker threads,
/// rebalance on and off.
#[test]
fn stage_parallel_graph_beats_serial_player_and_dissemination_stages() {
    use meterstick_workloads::WorkloadSpec;
    use mlg_bots::PlayerEmulation;
    use mlg_protocol::netsim::LinkConfig;
    use mlg_server::StageParallelism;

    let run = |stage_parallel: StageParallelism,
               threads: u32,
               rebalance: bool|
     -> Vec<mlg_server::TickSummary> {
        let built = WorkloadSpec::new(meterstick_workloads::WorkloadKind::Crowd).build(7);
        assert!(built.players.bots >= 200, "Crowd must be player-heavy");
        let config = ServerConfig::for_flavor(ServerFlavor::Folia)
            .with_view_distance(2)
            .with_tick_threads(threads)
            .with_shard_rebalance(Some(rebalance));
        let mut server = GameServer::new(config, built.world, built.spawn_point);
        let profile = FlavorProfile {
            stage_parallel,
            ..ServerFlavor::Folia.profile()
        };
        server.set_profile(profile);
        let mut emulation = PlayerEmulation::new(
            built.players.bots,
            built.spawn_point,
            built.players.walk_area,
            built.players.moving,
            LinkConfig::datacenter(),
            7,
        )
        .with_builders();
        emulation.connect_all(&mut server);
        let mut engine = Environment::das5(8).instantiate(1).engine;
        (0..80)
            .map(|_| emulation.step(&mut server, &mut engine))
            .collect()
    };

    let folia = ServerFlavor::Folia.profile().stage_parallel;
    let serial_stages = StageParallelism {
        player: 0.0,
        dissemination: 0.0,
        ..folia
    };

    let stage_parallel = run(folia, 8, true);
    let serial_14 = run(serial_stages, 8, true);
    let busy = |summaries: &[mlg_server::TickSummary]| -> f64 {
        summaries.iter().map(|s| s.record.busy_ms).sum()
    };
    assert!(
        busy(&stage_parallel) < busy(&serial_14),
        "sharding stages 1/4 must lower modeled busy time on 8 cores: \
         stage-parallel {} ms vs serial stages {} ms",
        busy(&stage_parallel),
        busy(&serial_14)
    );
    // The win comes from the player/dissemination stages specifically.
    let stage_ms = |summaries: &[mlg_server::TickSummary]| -> (f64, f64) {
        summaries.iter().fold((0.0, 0.0), |(p, d), s| {
            (p + s.stages.player_ms, d + s.stages.dissemination_ms)
        })
    };
    let (par_player, par_dissem) = stage_ms(&stage_parallel);
    let (ser_player, ser_dissem) = stage_ms(&serial_14);
    assert!(
        par_player < ser_player && par_dissem < ser_dissem,
        "per-stage breakdown must attribute the win: player {par_player} vs {ser_player}, \
         dissemination {par_dissem} vs {ser_dissem}"
    );

    // Bit-identical at 1 vs 8 threads, rebalance on and off.
    for rebalance in [false, true] {
        let reference = run(folia, 1, rebalance);
        let parallel = run(folia, 8, rebalance);
        assert_eq!(
            reference, parallel,
            "rebalance={rebalance}: crowd run diverged across thread counts"
        );
    }
}

#[test]
fn crowd_lighting_sweep_campaigns_are_bit_identical_across_threads() {
    // The Crowd workload through the campaign layer, sweeping the lighting
    // architecture (eager vs pipelined): CSV rows — stage breakdown columns
    // included — must not depend on the worker-thread count.
    let run_csv = |threads: u32| {
        let campaign = Campaign::new()
            .workloads([WorkloadKind::Crowd])
            .flavors([ServerFlavor::Folia])
            .environments([Environment::das5(8)])
            .tick_threads([threads])
            .eager_lighting([true, false])
            .duration_secs(2)
            .iterations(1)
            .seed(7);
        let mut sink = CsvSink::new(Vec::new());
        campaign
            .run_with(&meterstick::executor::SequentialExecutor, &mut sink)
            .unwrap();
        String::from_utf8(sink.into_inner()).unwrap()
    };
    let sequential = run_csv(1);
    let parallel = run_csv(4);
    assert!(
        sequential.lines().count() > 2,
        "two lighting cells expected"
    );
    assert!(
        sequential.contains("pipelined") && sequential.contains("eager"),
        "the lighting axis must be visible in the CSV"
    );
    assert_eq!(sequential, parallel);
}

#[test]
fn horde_campaign_csv_is_bit_identical_at_1_4_and_8_threads() {
    // The scaled-population workload end to end through the campaign
    // layer: scattered swarm, area-of-interest dissemination (Folia has it
    // on), SoA entity storage and the sharded tick pipeline all in one
    // cell. The CSV — `dissemination_bytes` column included — must not
    // depend on the worker-thread count. Scale is reduced via the bot
    // override to keep the unoptimized test build fast; the
    // `meterstick-bench sharded_determinism` probe runs the full 5,000-bot
    // swarm in release mode and CI diffs its CSVs the same way.
    let run_csv = |threads: u32| {
        let campaign = Campaign::new()
            .workloads([WorkloadKind::Horde])
            .flavors([ServerFlavor::Folia])
            .environments([Environment::das5(4)])
            .tick_threads([threads])
            .bots(600)
            .duration_secs(3)
            .iterations(1)
            .seed(7);
        let mut sink = CsvSink::new(Vec::new());
        campaign
            .run_with(&meterstick::executor::SequentialExecutor, &mut sink)
            .unwrap();
        String::from_utf8(sink.into_inner()).unwrap()
    };
    let reference = run_csv(1);
    assert!(
        reference.contains("Horde"),
        "the Horde cell must appear in the CSV"
    );
    for threads in [4u32, 8] {
        assert_eq!(
            reference,
            run_csv(threads),
            "Horde CSV diverged at {threads} threads"
        );
    }
}

#[test]
fn sharded_campaign_csv_streams_are_bit_identical() {
    let run_csv = |threads: u32| {
        let mut sink = CsvSink::new(Vec::new());
        folia_campaign(WorkloadKind::Tnt, 7, threads)
            .run_with(&meterstick::executor::SequentialExecutor, &mut sink)
            .unwrap();
        String::from_utf8(sink.into_inner()).unwrap()
    };
    let sequential = run_csv(1);
    let parallel = run_csv(4);
    assert!(
        sequential.lines().count() > 1,
        "CSV must contain header plus rows"
    );
    assert_eq!(
        sequential, parallel,
        "CSV streams must not depend on the tick-thread count"
    );
}

#[test]
fn shard_count_sweep_stays_thread_invariant_at_server_level() {
    // The shard count itself is part of the modeled architecture (results
    // legitimately differ between 1/2/4/8 shards); what must hold at every
    // shard count is thread invariance against the sequential path.
    let run = |shards: u32, threads: u32| {
        let profile = FlavorProfile {
            tick_shards: shards,
            ..ServerFlavor::Folia.profile()
        };
        let config = ServerConfig::for_flavor(ServerFlavor::Folia)
            .with_view_distance(3)
            .with_tick_threads(threads);
        let world = World::new(Box::new(FlatGenerator::grassland()), 7);
        let mut server = GameServer::new(config, world, mlg_entity::Vec3::new(0.5, 61.0, 0.5));
        server.set_profile(profile);
        server.connect_player("probe");
        server.world_mut().fill_region(
            Region::new(BlockPos::new(2, 61, 2), BlockPos::new(10, 62, 10)),
            Block::simple(BlockKind::Tnt),
        );
        server.schedule_tnt_ignition(2);
        let mut engine = Environment::das5(4).instantiate(1).engine;
        (0..50)
            .map(|_| server.run_tick(&mut engine))
            .collect::<Vec<_>>()
    };
    for shards in [2u32, 4, 8] {
        let reference = run(shards, 1);
        let parallel = run(shards, 4);
        assert_eq!(
            reference, parallel,
            "shards={shards}: thread count changed the tick summaries"
        );
    }
}
