//! The player handler: processing player actions once per tick.
//!
//! Component 4 of the operational model (Figure 4): "The Player Handler is
//! driven by player actions, which the Game Loop retrieves from the
//! Networking Queues once per tick. […] Because the terrain can obstruct the
//! player from performing these actions, the Player Handler must read the
//! terrain state in the vicinity of the player."
//!
//! # The sharded player stage
//!
//! For sharded tick pipelines the stage runs shard-parallel:
//! [`process_players_sharded`] batches connected players by the shard that
//! owns their chunk, processes the batches in one owned phase
//! ([`World::run_owned_phase`]: each worker sees its shard through a
//! [`ShardWorld`](mlg_world::shard::ShardWorld) view, and the buffered side
//! effects merge in canonical shard order), and escalates *boundary
//! players* to a serial tail: players standing on a shard-boundary chunk,
//! or whose action queue touches terrain outside their shard's interior (a
//! cross-shard block placement or dig), run after the parallel phase
//! against the full world. The stage's output (the merged
//! [`PlayerStageReport`], including the `pending_chat` broadcast order, the
//! players' positions and every world side effect) is **bit-identical at
//! any worker-thread count**.
//!
//! # Determinism contract
//!
//! The stage follows the three pipeline-wide rules of
//! `docs/ARCHITECTURE.md`, "The determinism contract" (pure partitioning,
//! canonical merge order, serial-tail escalation). What is specific to the
//! player stage:
//!
//! * **Escalation rules** (`player_shard_assignment`): a player runs in
//!   the parallel phase only when its own chunk is *interior* to one shard
//!   AND every terrain-touching action in its queue (move target, block
//!   placement, dig) stays inside that same shard's interior. Anything
//!   else — a boundary-chunk player, a cross-shard edit — runs in the
//!   serial tail. Chat and keep-alives touch no terrain and never
//!   escalate.
//! * **Merge order**: shard batches merge in ascending shard order with
//!   players in ascending player-index order inside each batch; the serial
//!   tail runs last, in ascending index order; the returned player vector
//!   restores the original indexing exactly.

use mlg_entity::Vec3;
use mlg_protocol::ServerboundPacket;
use mlg_world::shard::{ShardMap, TerrainView, TickPipeline};
use mlg_world::{Block, BlockPos, World};

use crate::cost;
use crate::player::ConnectedPlayer;

/// A chat message accepted during the player stage, waiting to be broadcast.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingChat {
    /// The sender's display name.
    pub sender: String,
    /// Message text.
    pub message: String,
    /// The client timestamp carried by the chat packet (for response-time
    /// measurement).
    pub sent_at_ms: f64,
}

/// Work counters for the player-handler stage of one tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlayerStageReport {
    /// Player actions processed (all packet types).
    pub actions_processed: u64,
    /// Movement packets validated against the terrain.
    pub movements: u64,
    /// Blocks placed by players.
    pub blocks_placed: u64,
    /// Blocks dug (removed) by players.
    pub blocks_dug: u64,
    /// Chat messages accepted.
    pub chat_messages: u64,
    /// World block reads performed to validate actions.
    pub blocks_read: u64,
    /// Chat messages waiting to be broadcast at the end of the tick.
    pub pending_chat: Vec<PendingChat>,
}

impl PlayerStageReport {
    /// Folds another report into this one: counters sum, and the other
    /// report's pending chat is appended in order. The sharded player stage
    /// merges per-shard reports in canonical shard order, so the combined
    /// chat broadcast order is deterministic at any thread count.
    pub fn merge(&mut self, other: PlayerStageReport) {
        self.actions_processed += other.actions_processed;
        self.movements += other.movements;
        self.blocks_placed += other.blocks_placed;
        self.blocks_dug += other.blocks_dug;
        self.chat_messages += other.chat_messages;
        self.blocks_read += other.blocks_read;
        self.pending_chat.extend(other.pending_chat);
    }
}

/// Processes one player's buffered actions against a terrain view.
///
/// Movement is validated by reading the terrain around the destination
/// (collision and support checks); block placement/digging writes the terrain
/// through the normal update path so terrain simulation reacts to it.
///
/// Generic over [`TerrainView`] so the same code runs against the full
/// [`World`] (the serial loop and the sharded stage's escalation tail) and
/// against a [`ShardWorld`](mlg_world::shard::ShardWorld) view during the
/// parallel phase.
pub fn process_player_actions<W: TerrainView>(
    world: &mut W,
    player: &mut ConnectedPlayer,
    actions: Vec<ServerboundPacket>,
    report: &mut PlayerStageReport,
) {
    for action in actions {
        report.actions_processed += 1;
        match action {
            ServerboundPacket::PlayerMove { pos, .. } => {
                report.movements += 1;
                // Validate the destination: feet and head must be passable,
                // which requires reading the terrain near the player.
                let feet = pos.block_pos();
                let head = feet.up();
                let below = feet.down();
                report.blocks_read += 3;
                let blocked = world.block(feet).is_solid() || world.block(head).is_solid();
                let _support = world.block(below).is_solid();
                if !blocked {
                    player.pos = pos;
                } else {
                    // Rejected moves keep the old position; the client will be
                    // corrected by the next position broadcast.
                }
            }
            ServerboundPacket::BlockPlace { pos, block } => {
                report.blocks_read += 1;
                if world.block(pos).is_air() {
                    world.set_block(pos, block);
                    report.blocks_placed += 1;
                }
            }
            ServerboundPacket::BlockDig { pos } => {
                report.blocks_read += 1;
                if !world.block(pos).is_air() {
                    world.set_block(pos, Block::AIR);
                    report.blocks_dug += 1;
                }
            }
            ServerboundPacket::Chat {
                message,
                sent_at_ms,
            } => {
                report.chat_messages += 1;
                report.pending_chat.push(PendingChat {
                    sender: player.name.clone(),
                    message,
                    sent_at_ms,
                });
            }
            // Keep-alives only count as actions. Connection management
            // (login/disconnect) is handled by the server itself, not the
            // per-tick action loop; future packet kinds are ignored here.
            _ => {}
        }
    }
}

/// Result of the sharded player stage for one tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardedPlayerStage {
    /// The merged work report (per-shard batches in canonical shard order,
    /// then the serial escalation tail in player order).
    pub report: PlayerStageReport,
    /// Work units processed inside each shard's parallel batch (index =
    /// shard); feeds the compute model's player-stage load-balance floor
    /// and the adaptive rebalancer.
    pub per_shard_work: Vec<u64>,
    /// Players escalated to the serial tail this tick (boundary chunks or
    /// cross-shard actions).
    // detlint: allow(pub-without-caller) -- tests/shard_properties.rs asserts which players escalate
    pub escalated_players: u64,
}

/// The shard whose interior confines `player` and its whole action queue,
/// or `None` when the player must be escalated to the serial tail.
///
/// A player is *interior* to the shard owning its chunk
/// ([`ShardMap::shard_of_chunk`]) when the chunk itself is interior
/// ([`ShardMap::interior_shard`]) and every world-touching action stays
/// inside that shard's interior: movement validation reads the terrain
/// around the destination, and block placement/digging writes it, so a
/// move, placement or dig targeting another shard — or any boundary chunk —
/// makes the whole queue serial. Chat and keep-alives touch no terrain and
/// never force escalation.
#[must_use]
fn player_shard_assignment(
    map: &ShardMap,
    player: &ConnectedPlayer,
    actions: &[ServerboundPacket],
) -> Option<usize> {
    let owner = map.interior_shard(player.chunk())?;
    let confined = |pos: BlockPos| map.interior_shard_of_block(pos) == Some(owner);
    for action in actions {
        let stays = match action {
            ServerboundPacket::PlayerMove { pos, .. } => confined(pos.block_pos()),
            ServerboundPacket::BlockPlace { pos, .. } | ServerboundPacket::BlockDig { pos } => {
                confined(*pos)
            }
            _ => true,
        };
        if !stays {
            return None;
        }
    }
    Some(owner)
}

/// One player's slot in the stage: `(players-vec index, player, drained
/// action queue)`.
type QueuedPlayer = (usize, ConnectedPlayer, Vec<ServerboundPacket>);

/// One shard's share of the parallel player phase: its interior players in
/// ascending index order, and the report their actions fold into.
struct PlayerShardTask {
    players: Vec<QueuedPlayer>,
    report: PlayerStageReport,
}

/// Runs the sharded player stage: batches `players` by owning shard,
/// processes interior batches concurrently against per-shard world views,
/// runs the escalated tail serially, merges every side effect in canonical
/// shard order, and returns the players in their original order.
///
/// `actions` is parallel to `players` (one drained queue per player;
/// disconnected players must have empty queues). The caller passes the
/// players by value so each shard worker can own its batch outright — the
/// returned vector restores the original indexing exactly.
///
/// Determinism: batch assignment is a pure function of (map, players,
/// actions); shard batches merge in ascending shard order with players in
/// ascending index order inside each batch; the serial tail runs last in
/// ascending index order. None of it depends on `pipeline.threads()`.
#[must_use]
pub fn process_players_sharded(
    world: &mut World,
    players: Vec<ConnectedPlayer>,
    mut actions: Vec<Vec<ServerboundPacket>>,
    pipeline: &TickPipeline,
) -> (Vec<ConnectedPlayer>, ShardedPlayerStage) {
    assert_eq!(
        players.len(),
        actions.len(),
        "one action queue per player slot"
    );
    let map = pipeline.shard_map();
    world.reshard(map.clone());
    let total = players.len();

    // Classification: interior batches per shard, escalated tail, and
    // parked (disconnected) players that only need their slots back.
    let mut batches: Vec<Vec<QueuedPlayer>> = vec![Vec::new(); map.count()];
    let mut serial: Vec<QueuedPlayer> = Vec::new();
    let mut parked: Vec<(usize, ConnectedPlayer)> = Vec::new();
    for (index, player) in players.into_iter().enumerate() {
        if player.disconnected {
            parked.push((index, player));
            continue;
        }
        let queue = std::mem::take(&mut actions[index]);
        match player_shard_assignment(map, &player, &queue) {
            Some(shard) => batches[shard].push((index, player, queue)),
            None => serial.push((index, player, queue)),
        }
    }
    let mut stage = ShardedPlayerStage {
        per_shard_work: vec![0u64; map.count()],
        escalated_players: serial.len() as u64,
        ..ShardedPlayerStage::default()
    };

    // Parallel phase: an owned phase over the shards that have players.
    // Every neighbour push is deferred, so each cascade seed reaches the
    // world's global queue through the merge below — the terrain stage, not
    // the player stage, runs the cascade.
    let work: Vec<(usize, PlayerShardTask)> = (batches.into_iter().enumerate())
        .filter(|(_, batch)| !batch.is_empty())
        .map(|(shard, players)| {
            let report = PlayerStageReport::default();
            (shard, PlayerShardTask { players, report })
        })
        .collect();
    let (results, ()) = world.run_owned_phase(
        &pipeline.scope(),
        true,
        work,
        (),
        |view, task: &mut PlayerShardTask, ()| {
            for (_, player, queue) in &mut task.players {
                process_player_actions(view, player, std::mem::take(queue), &mut task.report);
            }
        },
    );
    let mut merged: Vec<(usize, ConnectedPlayer)> = Vec::with_capacity(total);
    for (shard, task, outbound) in results {
        stage.per_shard_work[shard] = cost::player_base_work(&task.report);
        stage.report.merge(task.report);
        for pos in outbound {
            world.push_neighbor_update(pos);
        }
        merged.extend(task.players.into_iter().map(|(i, p, _)| (i, p)));
    }

    // Serial tail: escalated players against the full world, in ascending
    // player order, after every parallel batch has merged.
    for (index, mut player, queue) in serial {
        process_player_actions(world, &mut player, queue, &mut stage.report);
        merged.push((index, player));
    }

    merged.extend(parked);
    merged.sort_unstable_by_key(|(index, _)| *index);
    (merged.into_iter().map(|(_, p)| p).collect(), stage)
}

/// Convenience: the positions of all connected, non-disconnected players,
/// used by entity AI and the spawner.
#[must_use]
pub fn player_positions(players: &[ConnectedPlayer]) -> Vec<Vec3> {
    players
        .iter()
        .filter(|p| !p.disconnected)
        .map(|p| p.pos)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::player::PlayerId;
    use mlg_entity::EntityId;
    use mlg_world::generation::FlatGenerator;
    use mlg_world::{BlockKind, BlockPos};

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    fn player() -> ConnectedPlayer {
        ConnectedPlayer {
            id: PlayerId(1),
            entity_id: EntityId(1),
            name: "bot-1".into(),
            pos: Vec3::new(0.5, 61.0, 0.5),
            connected_at_tick: 0,
            last_served_ms: 0.0,
            disconnected: false,
        }
    }

    #[test]
    fn valid_moves_update_the_position() {
        let mut w = world();
        let mut p = player();
        let mut report = PlayerStageReport::default();
        let target = Vec3::new(3.5, 61.0, 0.5);
        process_player_actions(
            &mut w,
            &mut p,
            vec![ServerboundPacket::PlayerMove {
                pos: target,
                on_ground: true,
            }],
            &mut report,
        );
        assert_eq!(p.pos, target);
        assert_eq!(report.movements, 1);
        assert!(report.blocks_read >= 3);
    }

    #[test]
    fn moves_into_walls_are_rejected() {
        let mut w = world();
        let mut p = player();
        // Moving into the solid ground (y = 60 is the grass surface).
        let inside_ground = Vec3::new(3.5, 59.0, 0.5);
        let before = p.pos;
        let mut report = PlayerStageReport::default();
        process_player_actions(
            &mut w,
            &mut p,
            vec![ServerboundPacket::PlayerMove {
                pos: inside_ground,
                on_ground: false,
            }],
            &mut report,
        );
        assert_eq!(p.pos, before, "move into terrain must be rejected");
    }

    #[test]
    fn block_place_and_dig_modify_the_world() {
        let mut w = world();
        let mut p = player();
        let mut report = PlayerStageReport::default();
        let pos = BlockPos::new(2, 61, 2);
        process_player_actions(
            &mut w,
            &mut p,
            vec![
                ServerboundPacket::BlockPlace {
                    pos,
                    block: Block::simple(BlockKind::Planks),
                },
                ServerboundPacket::BlockDig {
                    pos: BlockPos::new(4, 60, 4),
                },
            ],
            &mut report,
        );
        assert_eq!(w.block(pos).kind(), BlockKind::Planks);
        assert_eq!(w.block(BlockPos::new(4, 60, 4)), Block::AIR);
        assert_eq!(report.blocks_placed, 1);
        assert_eq!(report.blocks_dug, 1);
        // The writes went through the update path, so terrain simulation will
        // react next tick.
        assert!(w.updates_mut().pop_immediate().is_some());
    }

    #[test]
    fn placing_into_an_occupied_cell_is_rejected() {
        let mut w = world();
        let mut p = player();
        let mut report = PlayerStageReport::default();
        let pos = BlockPos::new(2, 60, 2); // already grass
        process_player_actions(
            &mut w,
            &mut p,
            vec![ServerboundPacket::BlockPlace {
                pos,
                block: Block::simple(BlockKind::Tnt),
            }],
            &mut report,
        );
        assert_eq!(report.blocks_placed, 0);
        assert_eq!(w.block(pos).kind(), BlockKind::Grass);
    }

    #[test]
    fn chat_is_collected_for_broadcast() {
        let mut w = world();
        let mut p = player();
        let mut report = PlayerStageReport::default();
        process_player_actions(
            &mut w,
            &mut p,
            vec![ServerboundPacket::Chat {
                message: "ping-1".into(),
                sent_at_ms: 123.0,
            }],
            &mut report,
        );
        assert_eq!(report.chat_messages, 1);
        assert_eq!(report.pending_chat.len(), 1);
        assert_eq!(report.pending_chat[0].sender, "bot-1");
        assert_eq!(report.pending_chat[0].sent_at_ms, 123.0);
    }

    #[test]
    fn work_units_scale_with_actions() {
        let mut report = PlayerStageReport::default();
        assert_eq!(cost::player_base_work(&report), 0);
        report.actions_processed = 10;
        report.movements = 8;
        report.blocks_placed = 2;
        assert_eq!(cost::player_base_work(&report), 10 * 8 + 8 * 30 + 2 * 60);
    }

    #[test]
    fn report_merge_sums_counters_and_appends_chat() {
        let mut a = PlayerStageReport {
            actions_processed: 3,
            movements: 2,
            chat_messages: 1,
            pending_chat: vec![PendingChat {
                sender: "a".into(),
                message: "first".into(),
                sent_at_ms: 1.0,
            }],
            ..PlayerStageReport::default()
        };
        let b = PlayerStageReport {
            actions_processed: 5,
            blocks_placed: 1,
            chat_messages: 1,
            pending_chat: vec![PendingChat {
                sender: "b".into(),
                message: "second".into(),
                sent_at_ms: 2.0,
            }],
            ..PlayerStageReport::default()
        };
        a.merge(b);
        assert_eq!(a.actions_processed, 8);
        assert_eq!(a.movements, 2);
        assert_eq!(a.blocks_placed, 1);
        assert_eq!(a.chat_messages, 2);
        let order: Vec<&str> = a.pending_chat.iter().map(|c| c.message.as_str()).collect();
        assert_eq!(order, vec!["first", "second"]);
    }

    #[test]
    fn interior_players_with_interior_actions_stay_parallel() {
        use mlg_world::shard::ShardMap;

        // Two stripes of 4 chunks: shard 0 interior chunks are x = 1..=2.
        let map = ShardMap::stripes(2);
        let mut p = player();
        p.pos = Vec3::new(24.5, 61.0, 8.5); // chunk (1, 0), interior of shard 0
        let actions = vec![
            ServerboundPacket::PlayerMove {
                pos: Vec3::new(26.0, 61.0, 9.0),
                on_ground: true,
            },
            ServerboundPacket::BlockDig {
                pos: BlockPos::new(30, 60, 9), // chunk (1, 0)
            },
            ServerboundPacket::Chat {
                message: "hi".into(),
                sent_at_ms: 0.0,
            },
        ];
        assert_eq!(player_shard_assignment(&map, &p, &actions), Some(0));
    }

    #[test]
    fn cross_shard_and_boundary_actions_escalate() {
        use mlg_world::shard::ShardMap;

        let map = ShardMap::stripes(2);
        let mut p = player();
        p.pos = Vec3::new(24.5, 61.0, 8.5); // chunk (1, 0), interior of shard 0

        // Digging into another stripe's interior escalates…
        let foreign_dig = vec![ServerboundPacket::BlockDig {
            pos: BlockPos::new(90, 60, 9), // chunk (5, 0), interior of shard 1
        }];
        assert_eq!(player_shard_assignment(&map, &p, &foreign_dig), None);
        // …and so does touching a boundary chunk of the *own* shard.
        let boundary_place = vec![ServerboundPacket::BlockPlace {
            pos: BlockPos::new(3, 61, 9), // chunk (0, 0): stripe edge
            block: Block::simple(BlockKind::Planks),
        }];
        assert_eq!(player_shard_assignment(&map, &p, &boundary_place), None);
        // A player standing on a boundary chunk escalates even when idle.
        let mut edge = player();
        edge.pos = Vec3::new(3.5, 61.0, 8.5); // chunk (0, 0)
        assert_eq!(player_shard_assignment(&map, &edge, &[]), None);
    }

    /// Everything the player stage leaves in a world, in a comparable form.
    fn stage_footprint(w: &mut World) -> impl PartialEq + std::fmt::Debug {
        let order: Vec<mlg_world::ChunkPos> = w.iter_chunks().map(|c| c.pos()).collect();
        let queued: Vec<_> = std::iter::from_fn(|| w.updates_mut().pop_immediate()).collect();
        (
            w.drain_changes(),
            queued,
            order,
            w.chunks_generated_this_tick(),
            w.total_non_air_blocks(),
        )
    }

    /// The oracle of the sharded stage: on inputs whose canonical merge
    /// order equals player order, `process_players_sharded` must leave the
    /// players, the report and the world exactly as the serial
    /// `process_player_actions` loop does. Returns the sharded result.
    fn assert_stage_matches_the_serial_loop(
        pipeline: &mlg_world::shard::TickPipeline,
        players: Vec<ConnectedPlayer>,
        actions: Vec<Vec<ServerboundPacket>>,
    ) -> ShardedPlayerStage {
        let build_world = || {
            let mut w = world();
            w.ensure_area(mlg_world::ChunkPos::new(3, 0), 4);
            w.reshard(pipeline.shard_map().clone());
            w.advance_tick();
            w
        };
        let mut serial_world = build_world();
        let mut serial_players = players.clone();
        let mut serial_report = PlayerStageReport::default();
        for (player, queue) in serial_players.iter_mut().zip(actions.clone()) {
            if !player.disconnected {
                process_player_actions(&mut serial_world, player, queue, &mut serial_report);
            }
        }

        let mut sharded_world = build_world();
        let (sharded_players, stage) =
            process_players_sharded(&mut sharded_world, players, actions, pipeline);

        assert_eq!(stage.report, serial_report);
        assert_eq!(sharded_players, serial_players);
        assert_eq!(
            stage_footprint(&mut sharded_world),
            stage_footprint(&mut serial_world)
        );
        stage
    }

    #[test]
    fn sharded_stage_matches_the_serial_loop_for_interior_players() {
        use mlg_world::shard::TickPipeline;

        // Two players in different stripes placing blocks and chatting
        // (chat merge order is canonical shard order, which here equals
        // player order).
        let mut a = player();
        a.pos = Vec3::new(24.5, 61.0, 8.5); // shard 0 interior
        let mut b = player();
        b.id = PlayerId(2);
        b.name = "bot-2".into();
        b.pos = Vec3::new(88.5, 61.0, 8.5); // chunk (5, 0): shard 1 interior
        let actions = vec![
            vec![
                ServerboundPacket::BlockPlace {
                    pos: BlockPos::new(26, 61, 9),
                    block: Block::simple(BlockKind::Planks),
                },
                ServerboundPacket::Chat {
                    message: "from-a".into(),
                    sent_at_ms: 1.0,
                },
            ],
            vec![
                ServerboundPacket::BlockDig {
                    pos: BlockPos::new(90, 60, 9),
                },
                ServerboundPacket::Chat {
                    message: "from-b".into(),
                    sent_at_ms: 2.0,
                },
            ],
        ];
        let stage =
            assert_stage_matches_the_serial_loop(&TickPipeline::new(2, 4), vec![a, b], actions);
        assert_eq!(stage.escalated_players, 0);
        assert_eq!(stage.report.blocks_placed + stage.report.blocks_dug, 2);
        assert!(stage.per_shard_work[0] > 0 && stage.per_shard_work[1] > 0);
    }

    proptest::proptest! {
        /// The player-stage half of the whole-tick oracle: on a one-shard
        /// map every player is interior and the canonical merge order is
        /// player order, so random crowds with random action queues —
        /// moves, edits on and far off the loaded area, chat, parked
        /// slots — must match the serial loop exactly.
        #[test]
        fn single_shard_stage_matches_the_serial_loop_on_random_queues(seed in proptest::prelude::any::<u64>()) {
            use mlg_world::shard::TickPipeline;

            let mut s = seed | 1;
            let mut next = move |bound: u64| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % bound
            };
            let mut players = Vec::new();
            let mut actions = Vec::new();
            for n in 0..1 + next(6) {
                let mut p = player();
                p.id = PlayerId(n as u32 + 1);
                p.name = format!("bot-{}", n + 1);
                p.pos = Vec3::new(next(96) as f64 + 0.5, 61.0, next(48) as f64 + 0.5);
                p.disconnected = next(8) == 0;
                let mut queue = Vec::new();
                for _ in 0..if p.disconnected { 0 } else { next(7) } {
                    // One edit in eight lands far outside the loaded area,
                    // so workers generate chunks too.
                    let reach = if next(8) == 0 { 400 } else { 6 };
                    let target = BlockPos::new(
                        p.pos.x as i32 + next(reach) as i32,
                        59 + next(4) as i32,
                        p.pos.z as i32 + next(reach) as i32,
                    );
                    queue.push(match next(5) {
                        0 => ServerboundPacket::PlayerMove {
                            pos: Vec3::from_block_center(target),
                            on_ground: true,
                        },
                        1 => ServerboundPacket::BlockPlace {
                            pos: target,
                            block: Block::simple(BlockKind::Sand),
                        },
                        2 => ServerboundPacket::BlockDig { pos: target },
                        3 => ServerboundPacket::Chat {
                            message: format!("m{}", next(100)),
                            sent_at_ms: next(1000) as f64,
                        },
                        _ => ServerboundPacket::KeepAlive { id: next(100) },
                    });
                }
                players.push(p);
                actions.push(queue);
            }
            let pipeline = TickPipeline::new(1, 1 + next(4) as u32);
            let stage = assert_stage_matches_the_serial_loop(&pipeline, players, actions);
            assert_eq!(stage.escalated_players, 0);
        }
    }

    #[test]
    fn player_positions_skip_disconnected_players() {
        let mut a = player();
        let mut b = player();
        b.id = PlayerId(2);
        b.disconnected = true;
        a.pos = Vec3::new(1.0, 61.0, 1.0);
        let positions = player_positions(&[a, b]);
        assert_eq!(positions.len(), 1);
        assert_eq!(positions[0], Vec3::new(1.0, 61.0, 1.0));
    }
}
