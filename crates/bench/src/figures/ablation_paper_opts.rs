//! Ablation: which PaperMC optimization buys what?
//!
//! The Paper flavor's optimizations (asynchronous chat, asynchronous
//! environment processing, the rewritten entity handler, TNT and redstone
//! optimizations) are design choices worth isolating. This entry starts
//! from the Vanilla profile and enables one optimization at a time on the
//! TNT and Farm workloads, reporting mean tick time and ISR.

use cloud_sim::environment::Environment;
use meterstick::report::render_table;
use meterstick_metrics::trace::TickTrace;
use meterstick_workloads::{WorkloadKind, WorkloadSpec};
use mlg_bots::PlayerEmulation;
use mlg_protocol::netsim::LinkConfig;
use mlg_server::{FlavorProfile, GameServer, ServerConfig, ServerFlavor};

use crate::Cli;

fn profile_variant(name: &str) -> FlavorProfile {
    let vanilla = ServerFlavor::Vanilla.profile();
    let paper = ServerFlavor::Paper.profile();
    match name {
        "vanilla" => vanilla,
        "async chat" => FlavorProfile {
            async_chat: true,
            ..vanilla
        },
        "async environment" => FlavorProfile {
            offload_fraction: paper.offload_fraction,
            ..vanilla
        },
        "entity handler" => FlavorProfile {
            entity_multiplier: paper.entity_multiplier,
            ..vanilla
        },
        "tnt batching" => FlavorProfile {
            explosion_multiplier: paper.explosion_multiplier,
            max_tnt_per_tick: paper.max_tnt_per_tick,
            ..vanilla
        },
        "redstone batching" => FlavorProfile {
            redstone_multiplier: paper.redstone_multiplier,
            lighting_multiplier: paper.lighting_multiplier,
            ..vanilla
        },
        _ => paper,
    }
}

fn run_with_profile(
    workload: WorkloadKind,
    profile: FlavorProfile,
    duration_secs: u64,
) -> (f64, f64, bool) {
    let built = WorkloadSpec::new(workload).build(392_114_485);
    let config = ServerConfig::for_flavor(ServerFlavor::Vanilla);
    let mut server = GameServer::new(config, built.world, built.spawn_point);
    server.set_profile(profile);
    let mut emulation = PlayerEmulation::new(
        built.players.bots,
        built.spawn_point,
        built.players.walk_area,
        built.players.moving,
        LinkConfig::datacenter(),
        7,
    );
    emulation.connect_all(&mut server);
    for (kind, pos) in &built.ambient_entities {
        server.spawn_entity(*kind, *pos);
    }
    if let Some(delay) = built.tnt_fuse_delay_ticks {
        server.schedule_tnt_ignition(delay);
    }
    let mut engine = Environment::aws_default().instantiate(11).engine;
    let mut trace = TickTrace::new(50.0);
    let duration_ms = duration_secs as f64 * 1_000.0;
    let mut crashed = false;
    while server.clock_ms() < duration_ms {
        let summary = emulation.step(&mut server, &mut engine);
        trace.push(summary.record);
        if summary.crash.is_some() {
            crashed = true;
            break;
        }
    }
    (
        trace.percentiles().mean,
        trace.instability_ratio(Some(duration_secs * 20)),
        crashed,
    )
}

pub fn run(cli: &Cli) {
    let duration = cli.duration_secs();
    let variants = [
        "vanilla",
        "async chat",
        "async environment",
        "entity handler",
        "tnt batching",
        "redstone batching",
        "full paper",
    ];
    for workload in [WorkloadKind::Tnt, WorkloadKind::Farm] {
        println!("\n--- {workload} workload ---");
        let mut rows = Vec::new();
        for variant in variants {
            let (mean, isr, crashed) =
                run_with_profile(workload, profile_variant(variant), duration);
            rows.push(vec![
                variant.to_string(),
                format!("{mean:.1}"),
                format!("{isr:.3}"),
                if crashed {
                    "crashed".into()
                } else {
                    "-".into()
                },
            ]);
        }
        println!(
            "{}",
            render_table(
                &["optimization enabled", "mean tick [ms]", "ISR", "status"],
                &rows
            )
        );
    }
    println!("\nExpected shape: the entity handler and TNT batching dominate the TNT-workload");
    println!("improvement; redstone batching and async environment matter most for Farm;");
    println!("async chat changes tick time very little (it helps response time instead).");
}
