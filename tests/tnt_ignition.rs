//! `GameServer::schedule_tnt_ignition` finds its fuses through the chunk
//! palettes. The order it schedules them in is the same-tick tie-break of
//! the whole chain reaction, so it is pinned here against a plain scan of
//! every loaded block — the search the server used to run.

use meterstick_workloads::tnt;
use mlg_entity::Vec3;
use mlg_server::{GameServer, ServerConfig, ServerFlavor};
use mlg_world::{Block, BlockKind, BlockPos, World, CHUNK_SIZE, WORLD_HEIGHT};

/// Every loaded TNT block by reading every block: chunks in `iter_chunks`
/// order, and inside a chunk ascending `y`, then `z`, then `x`.
fn tnt_by_full_scan(world: &World) -> Vec<BlockPos> {
    let mut found = Vec::new();
    for chunk in world.iter_chunks() {
        let origin = chunk.pos().origin_block();
        for y in 0..WORLD_HEIGHT as i32 {
            for z in 0..CHUNK_SIZE {
                for x in 0..CHUNK_SIZE {
                    if chunk.block(x, y, z).kind() == BlockKind::Tnt {
                        found.push(BlockPos::new(origin.x + x as i32, y, origin.z + z as i32));
                    }
                }
            }
        }
    }
    found
}

fn server(world: World) -> GameServer {
    let config = ServerConfig::for_flavor(ServerFlavor::Vanilla).with_view_distance(2);
    GameServer::new(config, world, Vec3::new(0.5, 61.0, 0.5))
}

/// The positions the server scheduled, in scheduling order (all share one
/// due tick, so the queue hands them back in insertion order).
fn scheduled(server: &mut GameServer) -> Vec<BlockPos> {
    let due = server.world_mut().updates_mut().pop_due(u64::MAX);
    due.into_iter().map(|update| update.pos).collect()
}

#[test]
fn ignition_schedules_what_a_full_scan_finds_in_the_same_order() {
    let hotspot = tnt::clustered_hotspot_world(7);
    let hotspot_count = hotspot.count_kind(BlockKind::Tnt);
    assert!(hotspot_count > 0);
    let worlds = [
        (tnt::build(3, 1).world, 3_584),
        (tnt::build(3, 2).world, 7_168),
        (hotspot, hotspot_count),
    ];
    for (world, count) in worlds {
        let want = tnt_by_full_scan(&world);
        assert_eq!(want.len(), count);
        let mut server = server(world);
        assert_eq!(server.schedule_tnt_ignition(400), count);
        assert_eq!(scheduled(&mut server), want);
    }
}

#[test]
fn ignition_finds_nothing_behind_a_dead_palette_slot() {
    let mut world = tnt::build(3, 1).world;
    for pos in tnt_by_full_scan(&world) {
        world.set_block_silent(pos, Block::AIR);
    }
    // The cuboid's chunks still carry TNT's palette slot, unreferenced.
    let with_dead_slots = world.chunk_storage_bytes();
    let mut server = server(world);
    assert_eq!(server.schedule_tnt_ignition(400), 0);
    assert!(scheduled(&mut server).is_empty());
    server.world_mut().compact_chunk_storage();
    assert!(server.world().chunk_storage_bytes() < with_dead_slots);
}
