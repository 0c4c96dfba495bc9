//! Property-based tests (vendored proptest) for the shard-partition
//! invariants the sharded tick pipeline's determinism rests on:
//!
//! * every loaded chunk maps to exactly one shard, before and after any
//!   split/merge sequence (chunk stores and the map never disagree);
//! * boundary classification is exact, and therefore symmetric: a chunk is
//!   interior to shard `s` exactly when its whole 3×3 neighbourhood belongs
//!   to `s`, so two adjacent chunks in different shards are both boundary
//!   chunks;
//! * rebalancing is a pure function of the load report — the same (map,
//!   report) pair always produces the same partition.

use std::ops::Range;

use proptest::prelude::*;

use mlg_entity::{EntityId, Vec3};
use mlg_protocol::ServerboundPacket;
use mlg_server::handler;
use mlg_server::{ConnectedPlayer, PlayerId};
use mlg_world::generation::FlatGenerator;
use mlg_world::shard::{ShardLoadReport, ShardMap, TickPipeline};
use mlg_world::{Block, BlockKind, BlockPos, ChunkPos, World};

/// Splitmix64 step: the deterministic load-report generator the properties
/// drive rebalancing with.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A synthetic load report for the map's current shard count: mostly small
/// loads with occasional hotspots, so both split and merge paths fire.
fn random_report(state: &mut u64, shards: usize) -> ShardLoadReport {
    let loads = (0..shards)
        .map(|_| {
            let draw = splitmix(state);
            if draw.is_multiple_of(5) {
                draw >> 40 // hotspot-sized load
            } else {
                draw % 97 // background noise
            }
        })
        .collect();
    ShardLoadReport::new(loads)
}

/// Runs `steps` rebalancing steps from a fixed initial adaptive partition
/// and returns every intermediate map (including the initial one).
fn rebalance_sequence(seed: u64, steps: usize) -> Vec<ShardMap> {
    let mut pipeline =
        TickPipeline::adaptive(Some((ChunkPos::new(-16, -16), ChunkPos::new(15, 15))), 8, 1);
    let mut state = seed;
    let mut maps = vec![pipeline.shard_map().clone()];
    for _ in 0..steps {
        let report = random_report(&mut state, pipeline.shards() as usize);
        pipeline.apply_load_report(&report);
        maps.push(pipeline.shard_map().clone());
    }
    maps
}

/// Checks, for every chunk of `xs × zs`, that `interior_shard` answers
/// `Some(s)` when all nine chunks of its 3×3 window map to `s`, and `None`
/// otherwise.
fn interior_is_exact(map: &ShardMap, xs: Range<i32>, zs: Range<i32>) {
    for x in xs {
        for z in zs.clone() {
            let chunk = ChunkPos::new(x, z);
            let owner = map.shard_of_chunk(chunk);
            let uniform = (-1..=1).all(|dx| {
                (-1..=1).all(|dz| map.shard_of_chunk(ChunkPos::new(x + dx, z + dz)) == owner)
            });
            prop_assert_eq!(
                map.interior_shard(chunk),
                uniform.then_some(owner),
                "chunk {}",
                chunk
            );
        }
    }
}

proptest! {
    #[test]
    fn every_chunk_maps_to_exactly_one_shard_through_any_split_merge_sequence(
        seed in any::<u64>(),
        steps in 1usize..24,
    ) {
        let mut world = World::new(Box::new(FlatGenerator::grassland()), seed ^ 0xA5);
        world.ensure_area(ChunkPos::new(0, 0), 6);
        let chunk_count = world.loaded_chunk_count();
        for map in rebalance_sequence(seed, steps) {
            // The map is total and in-range over a window wider than the
            // quadtree root (out-of-root chunks clamp onto edge shards).
            for x in (-40..40).step_by(5) {
                for z in (-40..40).step_by(5) {
                    prop_assert!(map.shard_of_chunk(ChunkPos::new(x, z)) < map.count());
                }
            }
            // Resharding the world to this partition loses no chunk, and
            // every chunk lands in exactly the store its shard index names.
            world.reshard(map.clone());
            prop_assert_eq!(world.loaded_chunk_count(), chunk_count);
            let mut seen = 0usize;
            for shard in 0..map.count() {
                for pos in world.shard_store(shard).positions() {
                    prop_assert_eq!(map.shard_of_chunk(pos), shard);
                    seen += 1;
                }
            }
            prop_assert_eq!(seen, chunk_count);
        }
    }

    /// Interior classification is exact — `Some(s)` exactly when all nine
    /// chunks of the 3×3 window map to `s` — which makes it symmetric: a
    /// chunk with a neighbour in another shard has that neighbour's shard
    /// in its window and vice versa, so both are boundary. Checked on the
    /// adaptive maps up to 40 chunks past the quadtree root (clamping) and
    /// on stripe maps of 1–8 shards.
    #[test]
    fn boundary_classification_is_symmetric(
        seed in any::<u64>(),
        steps in 1usize..24,
        stripes in 1u32..=8,
    ) {
        let maps = rebalance_sequence(seed, steps);
        let map = maps.last().expect("sequence is never empty");
        // The root covers chunks -16..16 on both axes.
        interior_is_exact(map, -56..56, -56..56);
        interior_is_exact(&ShardMap::stripes(stripes), -70..70, -3..3);
    }

    #[test]
    fn rebalancing_is_a_pure_function_of_the_load_report(
        seed in any::<u64>(),
        steps in 1usize..24,
    ) {
        // Replaying the identical report sequence reproduces the identical
        // partition sequence…
        let first = rebalance_sequence(seed, steps);
        let second = rebalance_sequence(seed, steps);
        prop_assert_eq!(&first, &second);
        // …and each individual step is idempotent on (map, report).
        let mut state = seed;
        for map in &first {
            let report = random_report(&mut state, map.count());
            prop_assert_eq!(map.rebalanced(&report, 16), map.rebalanced(&report, 16));
        }
    }

    #[test]
    fn static_stripe_maps_ignore_every_report(
        count in 1u32..12,
        load in 1u64..1_000_000,
    ) {
        let map = ShardMap::stripes(count);
        let report = ShardLoadReport::new(vec![load; map.count()]);
        prop_assert_eq!(map.rebalanced(&report, 64), None);
    }

    /// The sharded player stage — batching by owning shard, parallel
    /// interior processing, serial escalation, canonical merge — yields the
    /// identical [`PlayerStageReport`] (counters AND `pending_chat` order),
    /// identical players and identical per-shard work at 1, 4 and 8 worker
    /// threads, over random crowds, action queues and partitions.
    #[test]
    fn player_stage_is_identical_at_1_4_and_8_threads(
        seed in any::<u64>(),
        player_count in 1usize..32,
        adaptive in any::<bool>(),
    ) {
        let outcomes: Vec<_> = [1u32, 4, 8]
            .iter()
            .map(|&threads| {
                let pipeline = if adaptive {
                    TickPipeline::adaptive(
                        Some((ChunkPos::new(-8, -8), ChunkPos::new(7, 7))),
                        8,
                        threads,
                    )
                } else {
                    TickPipeline::new(4, threads)
                };
                let mut world = World::new(Box::new(FlatGenerator::grassland()), 42);
                world.ensure_area(ChunkPos::new(0, 0), 7);
                world.advance_tick();
                let (players, actions) = random_crowd(seed, player_count);
                let (players, stage) =
                    handler::process_players_sharded(&mut world, players, actions, &pipeline);
                // Fold world side effects into the comparison too: block
                // writes and the pending update count must match.
                (players, stage, world.pending_change_count(), world.total_non_air_blocks())
            })
            .collect();
        prop_assert_eq!(&outcomes[0], &outcomes[1], "1 vs 4 threads diverged");
        prop_assert_eq!(&outcomes[0], &outcomes[2], "1 vs 8 threads diverged");
        // Chat order sanity: every chat the crowd sent is in the merged
        // report exactly once.
        let chats_sent: usize = outcomes[0].1.report.chat_messages as usize;
        prop_assert_eq!(outcomes[0].1.report.pending_chat.len(), chats_sent);
    }
}

/// A deterministic crowd for the player-stage property: players scattered
/// over several shards, each with a random mix of moves, digs, placements
/// and chats (some deliberately crossing chunk boundaries).
fn random_crowd(seed: u64, count: usize) -> (Vec<ConnectedPlayer>, Vec<Vec<ServerboundPacket>>) {
    let mut state = seed ^ 0xC0FFEE;
    let mut players = Vec::with_capacity(count);
    let mut actions = Vec::with_capacity(count);
    for i in 0..count {
        let x = (splitmix(&mut state) % 96) as f64 - 48.0;
        let z = (splitmix(&mut state) % 96) as f64 - 48.0;
        let pos = Vec3::new(x + 0.5, 61.0, z + 0.5);
        let disconnected = splitmix(&mut state).is_multiple_of(11);
        players.push(ConnectedPlayer {
            id: PlayerId(i as u32 + 1),
            entity_id: EntityId(i as u64 + 1),
            name: format!("crowd-{i}"),
            pos,
            connected_at_tick: 0,
            last_served_ms: 0.0,
            disconnected,
        });
        if disconnected {
            actions.push(Vec::new());
            continue;
        }
        let mut queue = Vec::new();
        for _ in 0..(splitmix(&mut state) % 6) {
            let dx = (splitmix(&mut state) % 17) as i32 - 8;
            let dz = (splitmix(&mut state) % 17) as i32 - 8;
            let target = BlockPos::new(x as i32 + dx, 61, z as i32 + dz);
            match splitmix(&mut state) % 4 {
                0 => queue.push(ServerboundPacket::PlayerMove {
                    pos: Vec3::new(target.x as f64 + 0.5, 61.0, target.z as f64 + 0.5),
                    on_ground: true,
                }),
                1 => queue.push(ServerboundPacket::BlockPlace {
                    pos: target,
                    block: Block::simple(BlockKind::Planks),
                }),
                2 => queue.push(ServerboundPacket::BlockDig {
                    pos: BlockPos::new(target.x, 60, target.z),
                }),
                _ => queue.push(ServerboundPacket::Chat {
                    message: format!("msg-{}", splitmix(&mut state) % 1000),
                    sent_at_ms: (splitmix(&mut state) % 10_000) as f64,
                }),
            }
        }
        actions.push(queue);
    }
    (players, actions)
}

/// Regression: a player standing in one shard's interior whose dig crosses
/// the shard edge must be escalated to the serial tail — and the dig must
/// still happen.
#[test]
fn boundary_player_digging_across_a_shard_edge_lands_in_the_serial_tail() {
    // Interior of shard 0 (stripe chunks 0..4, interior 1..=2) reaching
    // into the NEXT stripe (shard 1's interior): the dig crosses the
    // shard edge, so the whole player escalates to the serial tail.
    let interior_pos = Vec3::new(24.5, 61.0, 8.5);
    let dig_target = BlockPos::new(80, 60, 8);

    let run = |threads: u32| {
        let pipeline = TickPipeline::new(2, threads);
        let map = pipeline.shard_map().clone();
        assert_eq!(map.interior_shard(ChunkPos::new(1, 0)), Some(0));
        assert_eq!(map.shard_of_chunk(dig_target.chunk()), 1);
        let mut world = World::new(Box::new(FlatGenerator::grassland()), 42);
        world.ensure_area(ChunkPos::new(2, 0), 5);
        world.advance_tick();
        let cross_digger = ConnectedPlayer {
            id: PlayerId(1),
            entity_id: EntityId(1),
            name: "cross-digger".into(),
            pos: interior_pos,
            connected_at_tick: 0,
            last_served_ms: 0.0,
            disconnected: false,
        };
        let mut local_builder = cross_digger.clone();
        local_builder.id = PlayerId(2);
        local_builder.entity_id = EntityId(2);
        local_builder.name = "local-builder".into();
        let actions = vec![
            vec![ServerboundPacket::BlockDig { pos: dig_target }],
            vec![ServerboundPacket::BlockPlace {
                pos: BlockPos::new(26, 61, 9),
                block: Block::simple(BlockKind::Planks),
            }],
        ];
        let (_, stage) = handler::process_players_sharded(
            &mut world,
            vec![cross_digger, local_builder],
            actions,
            &pipeline,
        );
        assert_eq!(world.block_if_loaded(dig_target), Block::AIR);
        stage
    };

    let stage = run(4);
    assert_eq!(
        stage.escalated_players, 1,
        "exactly the cross-shard digger escalates"
    );
    assert_eq!(stage.report.blocks_dug, 1, "the escalated dig still lands");
    assert_eq!(stage.report.blocks_placed, 1);
    assert_eq!(
        stage.per_shard_work[1], 0,
        "the dig ran in the serial tail, not shard 1's batch"
    );
    assert!(
        stage.per_shard_work[0] > 0,
        "the interior placement ran in shard 0's batch"
    );
    // Identical outcome at one worker thread.
    assert_eq!(stage, run(1));
}
