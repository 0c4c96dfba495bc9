//! Area-of-interest dissemination: equivalence and traffic-cut tests.
//!
//! The AoI path must be *observably equivalent* to a full broadcast put
//! through a per-recipient distance filter — byte-exact per connection —
//! while cutting the modeled dissemination volume by a large factor on a
//! scattered population (the Horde workload's regime). The wall-clock side
//! of the same claim is the `sharded_horde` workload of `benchmark/` and
//! its `mlg_server.multicast_many_us.2000` probe.

use cloud_sim::environment::Environment;
use meterstick_workloads::{WorkloadKind, WorkloadSpec};
use mlg_bots::PlayerEmulation;
use mlg_entity::{EntityKind, Vec3};
use mlg_protocol::netsim::LinkConfig;
use mlg_protocol::ClientboundPacket;
use mlg_server::{FlavorProfile, GameServer, PlayerId, ServerConfig, ServerFlavor};
use mlg_world::generation::FlatGenerator;
use mlg_world::{BlockKind, World};

/// The wire-visible position of a packet, mirroring the server's AoI
/// classification: entity packets at the entity position, block changes at
/// the block centre, everything else global (`None`).
fn reference_position(packet: &ClientboundPacket) -> Option<Vec3> {
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

/// Switches `server`'s flavor profile to AoI dissemination or to the
/// classic full broadcast.
fn set_aoi(server: &mut GameServer, aoi: bool) {
    let profile = FlavorProfile {
        aoi_dissemination: aoi,
        ..*server.profile()
    };
    server.set_profile(profile);
}

/// Drains `player`'s queued packets into a `Vec`.
fn drain(server: &mut GameServer, player: PlayerId) -> Vec<ClientboundPacket> {
    let mut packets = Vec::new();
    server.drain_outgoing_with(player, |run| packets.extend_from_slice(run));
    packets
}

/// Builds a server with stationary players at `spots`, plus a mix of
/// positioned traffic sources around each (wandering hostiles, falling
/// items, primed TNT producing block changes and destroys).
fn scene(
    flavor: ServerFlavor,
    view_distance: u32,
    spots: &[Vec3],
    aoi: bool,
) -> (GameServer, Vec<(PlayerId, Vec3)>) {
    let config = ServerConfig::for_flavor(flavor).with_view_distance(view_distance);
    let world = World::new(Box::new(FlatGenerator::grassland()), 7);
    let mut server = GameServer::new(config, world, Vec3::new(0.5, 61.0, 0.5));
    set_aoi(&mut server, aoi);
    let players: Vec<_> = spots
        .iter()
        .enumerate()
        .map(|(i, pos)| (server.connect_player_at(&format!("p{i}"), *pos), *pos))
        .collect();
    for (i, pos) in spots.iter().enumerate() {
        server.spawn_entity(EntityKind::Zombie, Vec3::new(pos.x + 3.0, 61.0, pos.z));
        server.spawn_entity(
            EntityKind::Item(BlockKind::Dirt),
            Vec3::new(pos.x, 70.0 + i as f64, pos.z + 2.0),
        );
        server.spawn_entity(
            EntityKind::PrimedTnt,
            Vec3::new(pos.x - 5.0, 61.0, pos.z - 5.0),
        );
    }
    (server, players)
}

/// A Folia server whose players are spread so that some pairs are inside
/// each other's view radius and some are far outside it.
fn scattered_scene(aoi: bool) -> (GameServer, Vec<(PlayerId, Vec3)>) {
    let spots = [
        Vec3::new(0.5, 61.0, 0.5),
        Vec3::new(20.0, 61.0, -12.0),
        Vec3::new(150.0, 61.0, 150.0),
        Vec3::new(-200.0, 61.0, 40.0),
        Vec3::new(160.0, 61.0, 120.0),
    ];
    scene(ServerFlavor::Folia, 2, &spots, aoi)
}

/// A Paper server whose players stand a few blocks apart with a view radius
/// of 96 blocks: every viewer is in range of everything the tick produces,
/// so every interest set is the whole roster (`player_crowd`'s regime).
fn clustered_scene(aoi: bool) -> (GameServer, Vec<(PlayerId, Vec3)>) {
    let spots = [
        Vec3::new(0.5, 61.0, 0.5),
        Vec3::new(6.0, 61.0, -4.0),
        Vec3::new(-5.0, 61.0, 7.5),
        Vec3::new(3.0, 61.0, 9.0),
    ];
    scene(ServerFlavor::Paper, 6, &spots, aoi)
}

/// Runs both servers for 30 ticks and checks, every tick, that each player's
/// stream on `filtered` is the broadcast server's stream filtered by XZ
/// distance. Returns how many packets that kept and how many it dropped.
fn assert_aoi_is_a_filtered_broadcast(
    filtered: &mut GameServer,
    broadcast: &mut GameServer,
    players: &[(PlayerId, Vec3)],
) -> (usize, usize) {
    assert!(filtered.profile().aoi_dissemination && !broadcast.profile().aoi_dissemination);
    // Join-time chunk streaming is identical on both servers; clear it so
    // the comparison below covers exactly the tick dissemination stage.
    for (id, _) in players {
        assert_eq!(drain(filtered, *id), drain(broadcast, *id));
    }

    let radius = f64::from(filtered.config().view_distance) * 16.0;
    let mut engine_a = Environment::das5(4).instantiate(1).engine;
    let mut engine_b = Environment::das5(4).instantiate(1).engine;
    let (mut kept, mut dropped) = (0, 0);
    for tick in 0..30 {
        filtered.run_tick(&mut engine_a);
        broadcast.run_tick(&mut engine_b);
        for (id, player_pos) in players {
            let everything = drain(broadcast, *id);
            let expected: Vec<_> = everything
                .iter()
                .filter(|packet| {
                    reference_position(packet).is_none_or(|pos| {
                        let dx = pos.x - player_pos.x;
                        let dz = pos.z - player_pos.z;
                        dx * dx + dz * dz <= radius * radius
                    })
                })
                .cloned()
                .collect();
            assert_eq!(
                drain(filtered, *id),
                expected,
                "tick {tick}: player {id:?} AoI stream is not the distance-filtered broadcast"
            );
            kept += expected.len();
            dropped += everything.len() - expected.len();
        }
    }
    (kept, dropped)
}

#[test]
fn aoi_delivery_equals_distance_filtered_broadcast() {
    let (mut filtered, players_a) = scattered_scene(true);
    let (mut broadcast, players_b) = scattered_scene(false);
    assert_eq!(players_a, players_b);
    let (kept, dropped) =
        assert_aoi_is_a_filtered_broadcast(&mut filtered, &mut broadcast, &players_a);
    assert!(
        kept > 0 && dropped > 0,
        "the scene filters: kept {kept}, dropped {dropped}"
    );
}

#[test]
fn aoi_delivery_to_a_cluster_equals_the_plain_broadcast() {
    // Every interest set is the whole roster, which the server answers as a
    // broadcast range: the streams must be the distance-filtered broadcast
    // and, since that filter drops nothing here, the broadcast itself.
    let (mut filtered, players_a) = clustered_scene(true);
    let (mut broadcast, players_b) = clustered_scene(false);
    assert_eq!(players_a, players_b);
    let (kept, dropped) =
        assert_aoi_is_a_filtered_broadcast(&mut filtered, &mut broadcast, &players_a);
    assert!(kept > 0, "the cluster must produce tick traffic");
    assert_eq!(dropped, 0, "every viewer is in range of everything");
    assert_eq!(filtered.traffic_summary(), broadcast.traffic_summary());
}

#[test]
fn aoi_cuts_horde_tick_dissemination_bytes_at_least_5x() {
    // The Horde regime at reduced scale: a scattered building swarm whose
    // interest sets are tiny compared to the population. Both runs replay
    // the identical simulation (AoI never changes what is simulated, only
    // who receives which packet), so the byte ratio is deterministic.
    let run = |aoi: bool| -> u64 {
        let built = WorkloadSpec::new(WorkloadKind::Horde).build(7);
        assert!(built.players.scatter >= 1_000);
        let config = ServerConfig::for_flavor(ServerFlavor::Folia).with_view_distance(2);
        let mut emulation = PlayerEmulation::new(
            500,
            built.spawn_point,
            built.players.walk_area,
            built.players.moving,
            LinkConfig::datacenter(),
            7,
        )
        .with_builders()
        .scattered(built.spawn_point, built.players.scatter, 7);
        let mut server = GameServer::new(config, built.world, built.spawn_point);
        set_aoi(&mut server, aoi);
        emulation.connect_all(&mut server);
        // Count tick-phase dissemination only: join-time chunk streaming is
        // identical in both runs and would dilute the ratio.
        let joined = server.traffic_summary().total_bytes();
        let mut engine = Environment::das5(4).instantiate(1).engine;
        for _ in 0..10 {
            emulation.step(&mut server, &mut engine);
        }
        server.traffic_summary().total_bytes() - joined
    };

    let aoi_bytes = run(true);
    let broadcast_bytes = run(false);
    assert!(aoi_bytes > 0, "the swarm must produce tick traffic");
    assert!(
        broadcast_bytes >= aoi_bytes * 5,
        "AoI must cut modeled dissemination bytes at least 5x on a scattered swarm: \
         broadcast {broadcast_bytes} vs AoI {aoi_bytes}"
    );
}
