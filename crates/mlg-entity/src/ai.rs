//! Mob decision making: wandering and pathfinding towards targets.
//!
//! Decision making (Figure 3 of the paper) covers how NPCs choose where to
//! move. Hostile mobs path towards the nearest player; passive mobs wander
//! randomly. Both behaviours consume pathfinding budget, which is part of the
//! entity workload the paper measures.

use rand::Rng;

use mlg_world::BlockReader;

use crate::entity::Entity;
use crate::math::Vec3;
use crate::pathfinding::{self, NextStep, PathScratch};

/// How far a hostile mob can notice a player, in blocks.
pub const AGGRO_RANGE: f64 = 16.0;

/// Maximum wander distance for a single wander decision.
pub const WANDER_RANGE: i32 = 8;

/// Node budget for a single pathfinding request.
pub const PATH_NODE_BUDGET: u32 = 512;

/// Result of one AI decision step for one mob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AiOutcome {
    /// Whether a pathfinding search was executed.
    pub pathfinding_performed: bool,
    /// Nodes expanded by the pathfinding search (0 if none).
    pub path_nodes_expanded: u32,
    /// Whether the mob picked (or kept) a movement target.
    pub has_target: bool,
}

/// Runs one decision step for a mob: acquire or keep a target, pathfind
/// towards it when needed, and set the entity's velocity along the path.
///
/// `players` are the positions of currently connected players; hostile mobs
/// target the nearest one within [`AGGRO_RANGE`]. `scratch` is the caller's
/// pathfinding working memory, reused from mob to mob and tick to tick — on
/// one world: it remembers routes (see [`pathfinding::next_step_with`]).
pub fn decide<W: BlockReader, R: Rng>(
    world: &mut W,
    entity: &mut Entity,
    players: &[Vec3],
    rng: &mut R,
    scratch: &mut PathScratch,
) -> AiOutcome {
    let mut outcome = AiOutcome::default();
    if !entity.kind.is_mob() {
        return outcome;
    }

    // 1. Target selection.
    if entity.kind.is_hostile() {
        let nearest = players
            .iter()
            .copied()
            .map(|p| (p, p.distance(entity.pos)))
            .filter(|(_, d)| *d <= AGGRO_RANGE)
            .min_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((target, _)) = nearest {
            entity.path_target = Some(target);
        }
    }
    if entity.path_target.is_none() {
        // Wander: occasionally pick a random nearby target.
        if rng.gen_bool(0.05) {
            let dx = rng.gen_range(-WANDER_RANGE..=WANDER_RANGE);
            let dz = rng.gen_range(-WANDER_RANGE..=WANDER_RANGE);
            let target = entity.pos.add(Vec3::new(f64::from(dx), 0.0, f64::from(dz)));
            entity.path_target = Some(target);
        }
    }

    let Some(target) = entity.path_target else {
        return outcome;
    };
    outcome.has_target = true;

    // 2. Arrived?
    if entity.pos.distance(target) < 1.0 {
        entity.path_target = None;
        entity.velocity.x = 0.0;
        entity.velocity.z = 0.0;
        return outcome;
    }

    // 3. Pathfind towards the target and follow the first step. The route
    // is asked for by the blocks the mob and its target occupy, so a mob
    // that has not crossed a block boundary since last tick asks the same
    // question, and on unchanged terrain `scratch` still holds the answer.
    let NextStep {
        first_step,
        nodes_expanded,
        reached_goal,
    } = pathfinding::next_step_with(
        world,
        entity.pos.block_pos(),
        target.block_pos(),
        PATH_NODE_BUDGET,
        scratch,
    );
    outcome.pathfinding_performed = true;
    outcome.path_nodes_expanded = nodes_expanded;

    if !reached_goal {
        // Give up on unreachable targets.
        entity.path_target = None;
        return outcome;
    }
    let next = first_step.map_or(target, Vec3::from_block_center);
    let direction = next.sub(entity.pos);
    let horizontal = Vec3::new(direction.x, 0.0, direction.z).normalized();
    let speed = entity.kind.base_speed();
    entity.velocity.x = horizontal.x * speed;
    entity.velocity.z = horizontal.z * speed;
    // Hop up single-block steps.
    if direction.y > 0.5 && entity.on_ground {
        entity.velocity.y = 0.42;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{EntityId, EntityKind};
    use crate::pathfinding::tests::{chunk_order, xorshift, STAND_Y};
    use mlg_world::generation::FlatGenerator;
    use mlg_world::{Block, BlockKind, BlockPos, World};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn hostile_mob_targets_nearby_player() {
        let mut w = world();
        let mut zombie = Entity::new(EntityId(1), EntityKind::Zombie, Vec3::new(0.5, 61.0, 0.5));
        zombie.on_ground = true;
        let players = vec![Vec3::new(8.5, 61.0, 0.5)];
        let out = decide(
            &mut w,
            &mut zombie,
            &players,
            &mut rng(),
            &mut PathScratch::default(),
        );
        assert!(out.has_target);
        assert!(out.pathfinding_performed);
        assert!(
            zombie.velocity.x > 0.0,
            "zombie should move towards the player"
        );
    }

    #[test]
    fn hostile_mob_ignores_distant_player() {
        let mut w = world();
        let mut zombie = Entity::new(EntityId(1), EntityKind::Zombie, Vec3::new(0.5, 61.0, 0.5));
        let players = vec![Vec3::new(500.0, 61.0, 0.5)];
        let mut r = StdRng::seed_from_u64(1); // seed chosen so the wander roll fails
        let out = decide(
            &mut w,
            &mut zombie,
            &players,
            &mut r,
            &mut PathScratch::default(),
        );
        assert!(zombie.path_target.is_none() || out.has_target);
        // Whatever happened, the zombie must not be chasing the far player.
        if let Some(t) = zombie.path_target {
            assert!(t.distance(players[0]) > AGGRO_RANGE);
        }
    }

    #[test]
    fn passive_mob_eventually_wanders() {
        let mut w = world();
        let mut cow = Entity::new(EntityId(2), EntityKind::Cow, Vec3::new(0.5, 61.0, 0.5));
        cow.on_ground = true;
        let mut r = rng();
        let mut scratch = PathScratch::default();
        let mut wandered = false;
        for _ in 0..200 {
            let out = decide(&mut w, &mut cow, &[], &mut r, &mut scratch);
            if out.has_target {
                wandered = true;
                break;
            }
        }
        assert!(wandered, "cow should pick a wander target within 200 ticks");
    }

    #[test]
    fn arrival_clears_the_target() {
        let mut w = world();
        let mut cow = Entity::new(EntityId(3), EntityKind::Cow, Vec3::new(0.5, 61.0, 0.5));
        cow.path_target = Some(Vec3::new(0.9, 61.0, 0.5));
        decide(
            &mut w,
            &mut cow,
            &[],
            &mut rng(),
            &mut PathScratch::default(),
        );
        assert!(cow.path_target.is_none());
        assert_eq!(cow.velocity.x, 0.0);
    }

    #[test]
    fn items_make_no_decisions() {
        let mut w = world();
        let mut item = Entity::new(
            EntityId(4),
            EntityKind::Item(mlg_world::BlockKind::Stone),
            Vec3::new(0.5, 61.0, 0.5),
        );
        let out = decide(
            &mut w,
            &mut item,
            &[],
            &mut rng(),
            &mut PathScratch::default(),
        );
        assert_eq!(out, AiOutcome::default());
    }

    /// Some mobs, the RNG they share and the scratch they are decided with:
    /// one kept across decisions, or a fresh one for every decision, which
    /// has nothing to remember.
    struct Herd {
        mobs: Vec<Entity>,
        rng: StdRng,
        kept: Option<PathScratch>,
    }

    impl Herd {
        /// Two cows, a villager and two zombies standing around the origin.
        fn new(seed: u64, keep_scratch: bool) -> Self {
            let mut next = xorshift(seed);
            let kinds = [
                EntityKind::Cow,
                EntityKind::Zombie,
                EntityKind::Villager,
                EntityKind::Cow,
                EntityKind::Zombie,
            ];
            let mobs = (1..)
                .zip(kinds)
                .map(|(id, kind)| {
                    let (x, z) = ((next() % 20) as f64 - 9.5, (next() % 20) as f64 - 9.5);
                    let mut mob = Entity::new(EntityId(id), kind, Vec3::new(x, 61.0, z));
                    mob.on_ground = true;
                    mob
                })
                .collect();
            Herd {
                mobs,
                rng: StdRng::seed_from_u64(seed),
                kept: keep_scratch.then(PathScratch::default),
            }
        }

        /// One tick of every mob — physics, then a decision, as the entity
        /// manager runs them.
        fn tick<W: BlockReader>(&mut self, world: &mut W, players: &[Vec3]) -> Vec<AiOutcome> {
            let mut outcomes = Vec::new();
            for mob in &mut self.mobs {
                crate::physics::step(world, mob);
                let scratch = match &mut self.kept {
                    Some(kept) => kept,
                    None => &mut PathScratch::default(),
                };
                outcomes.push(decide(world, mob, players, &mut self.rng, scratch));
            }
            outcomes
        }

        /// The tick on the world itself, or as the only task of a frozen
        /// phase of it.
        fn tick_on(&mut self, world: &mut World, players: &[Vec3], frozen: bool) -> Vec<AiOutcome> {
            world.advance_tick();
            if !frozen {
                return self.tick(world, players);
            }
            let herd = std::mem::replace(self, Herd::new(0, false));
            let pipeline = mlg_world::shard::TickPipeline::new(1, 1);
            let (mut tasks, ()) = world.run_frozen_phase(
                &pipeline.scope(),
                vec![(herd, players.to_vec(), Vec::new())],
                (),
                |mut view,
                 (herd, players, outcomes): &mut (Herd, Vec<Vec3>, Vec<AiOutcome>),
                 ()| {
                    *outcomes = herd.tick(&mut view, players);
                },
            );
            let (herd, _, outcomes) = tasks.pop().expect("the one task comes back");
            *self = herd;
            outcomes
        }
    }

    /// What a step of a differential script does besides ticking.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Tick,
        /// Fill the three blocks above the ground at `at` and its four
        /// neighbours along z: with stone a wall goes up, with air it (or
        /// whatever stood there) comes down.
        Wall {
            at: BlockPos,
            block: Block,
        },
        /// Dig out the ground under `at`, three blocks deep.
        Pit {
            at: BlockPos,
        },
        /// Point mob `mob` at `target`.
        Retarget {
            mob: usize,
            target: Vec3,
        },
        /// Put mob `mob` within arm's reach of its target.
        Arrive {
            mob: usize,
        },
    }

    /// Draws the next step from the mobs' current state: half of all steps
    /// tick, the others edit the terrain on and off the remembered routes
    /// or move an end of a question.
    fn next_op(next: &mut impl FnMut() -> u64, mobs: &[Entity]) -> Op {
        let mob = (next() % mobs.len() as u64) as usize;
        let at = mobs[mob].pos.block_pos();
        let target = mobs[mob].path_target;
        let stone = Block::simple(BlockKind::Stone);
        match next() % 16 {
            0..=7 => Op::Tick,
            // A wall a block or two ahead of the mob, towards its target.
            8 | 9 => {
                let to = target.map_or(at, Vec3::block_pos);
                let ahead = 1 + (next() % 2) as i32;
                let at = BlockPos::new(at.x + (to.x - at.x).signum() * ahead, STAND_Y, at.z);
                Op::Wall { at, block: stone }
            }
            10 => Op::Wall {
                at: BlockPos::new(at.x + 1 - (next() % 3) as i32, STAND_Y, at.z),
                block: Block::AIR,
            },
            // An edit nowhere near any route: loaded terrain or not, it
            // moves the epoch all the same.
            11 => Op::Wall {
                at: BlockPos::new(200 + (next() % 64) as i32, STAND_Y, -200),
                block: stone,
            },
            // The ground goes from under the goal, so the goal moves down.
            12 => Op::Pit {
                at: target.map_or(at, Vec3::block_pos),
            },
            // A target inside the loaded chunk, or across its edge.
            13 | 14 => {
                let reach = if next() & 1 == 0 { 6 } else { 24 };
                let (dx, dz) = (
                    (next() % (2 * reach + 1)) as f64 - reach as f64,
                    (next() % (2 * reach + 1)) as f64 - reach as f64,
                );
                Op::Retarget {
                    mob,
                    target: mobs[mob].pos.add(Vec3::new(dx, 0.0, dz)),
                }
            }
            _ => Op::Arrive { mob },
        }
    }

    fn apply(op: Op, world: &mut World, herd: &mut Herd) {
        match op {
            Op::Tick => {}
            Op::Wall { at, block } => {
                for dz in -2..=2 {
                    for dy in 0..3 {
                        world.set_block(at.offset(0, dy, dz), block);
                    }
                }
            }
            Op::Pit { at } => {
                for dy in 1..=3 {
                    world.set_block(BlockPos::new(at.x, STAND_Y - dy, at.z), Block::AIR);
                }
            }
            Op::Retarget { mob, target } => herd.mobs[mob].path_target = Some(target),
            Op::Arrive { mob } => {
                if let Some(target) = herd.mobs[mob].path_target {
                    herd.mobs[mob].pos = target.add(Vec3::new(0.3, 0.0, -0.3));
                }
            }
        }
    }

    /// Runs one random script on two copies of one scene — a herd on a kept
    /// scratch, a herd on a fresh scratch per decision — and requires them
    /// to be indistinguishable after every step. Only the chunk around the
    /// origin is loaded, so routes cross into terrain that the lazy reader
    /// generates and the frozen one reads as air. Returns how many routes
    /// the kept scratch was asked for and how many searches it ran.
    fn assert_remembering_cannot_be_observed(seed: u64, frozen: bool) -> (u64, u64) {
        let scene = || {
            let mut w = world();
            w.ensure_area(mlg_world::ChunkPos::new(0, 0), 0);
            w
        };
        let (mut kept_world, mut fresh_world) = (scene(), scene());
        let (mut kept, mut fresh) = (Herd::new(seed, true), Herd::new(seed, false));
        let mut next = xorshift(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut player = Vec3::new(4.5, 61.0, -3.5);
        for step in 0..60 {
            // The first steps only tick, so every script has remembered
            // routes for its edits to invalidate.
            let op = if step < 3 {
                Op::Tick
            } else {
                next_op(&mut next, &kept.mobs)
            };
            apply(op, &mut kept_world, &mut kept);
            apply(op, &mut fresh_world, &mut fresh);
            player = player.add(Vec3::new(0.21, 0.0, -0.13));
            let players = [player, Vec3::new(-40.5, 61.0, 3.5)];
            let context = format!("seed {seed}, step {step}: {op:?}");
            assert_eq!(
                kept.tick_on(&mut kept_world, &players, frozen),
                fresh.tick_on(&mut fresh_world, &players, frozen),
                "{context}"
            );
            assert_eq!(kept.mobs, fresh.mobs, "{context}");
            assert_eq!(kept.rng.gen::<u64>(), fresh.rng.gen::<u64>(), "{context}");
            assert_eq!(
                kept_world.chunks_generated_this_tick(),
                fresh_world.chunks_generated_this_tick(),
                "{context}"
            );
            assert_eq!(
                chunk_order(&kept_world),
                chunk_order(&fresh_world),
                "{context}"
            );
        }
        let scratch = kept.kept.expect("the kept herd keeps its scratch");
        (scratch.routes_asked, scratch.searches_run)
    }

    proptest::proptest! {
        #[test]
        fn remembered_routes_equal_fresh_searches(seed in proptest::prelude::any::<u64>()) {
            for frozen in [false, true] {
                let (asked, searched) = assert_remembering_cannot_be_observed(seed, frozen);
                proptest::prop_assert!(
                    searched < asked,
                    "seed {} (frozen: {}) remembered nothing: {} of {}", seed, frozen, searched, asked
                );
            }
        }
    }

    /// A zombie at the origin and the player it chases, ten blocks east.
    fn chase() -> (Entity, [Vec3; 1]) {
        let mut zombie = Entity::new(EntityId(1), EntityKind::Zombie, Vec3::new(0.5, 61.0, 0.5));
        zombie.on_ground = true;
        (zombie, [Vec3::new(10.5, 61.0, 0.5)])
    }

    #[test]
    fn a_raised_wall_is_seen_the_same_tick() {
        let mut w = world();
        let (mut zombie, players) = chase();
        let mut scratch = PathScratch::default();
        let open = decide(&mut w, &mut zombie, &players, &mut rng(), &mut scratch);
        assert_eq!(
            decide(&mut w, &mut zombie, &players, &mut rng(), &mut scratch),
            open
        );
        assert_eq!((scratch.routes_asked, scratch.searches_run), (2, 1));

        // The wall goes up and the zombie decides again at once: nothing
        // else has happened, and the remembered route runs through it.
        for z in -3..=3 {
            for y in STAND_Y..STAND_Y + 3 {
                w.set_block(BlockPos::new(1, y, z), Block::simple(BlockKind::Stone));
            }
        }
        let walled = decide(&mut w, &mut zombie, &players, &mut rng(), &mut scratch);
        let (mut twin, _) = chase();
        assert_eq!(
            walled,
            decide(
                &mut w,
                &mut twin,
                &players,
                &mut rng(),
                &mut PathScratch::default()
            )
        );
        assert_eq!(zombie, twin);
        assert!(
            walled.path_nodes_expanded > open.path_nodes_expanded,
            "the detour costs more than the straight line: {walled:?} after {open:?}"
        );
        assert!(
            zombie.velocity.z != 0.0,
            "the first step now leads around the wall"
        );
    }

    #[test]
    fn one_scratch_never_answers_a_frozen_question_with_a_lazy_answer() {
        // The zombie stands a block from the edge of the only loaded chunk
        // and the player beyond it: the frozen reader sees no ground there
        // and gives up, the lazy reader generates the chunk and walks on.
        // Nothing changes between the two questions, so only the reader's
        // kind in the epoch keeps the first answer from serving the second.
        let mut w = world();
        w.ensure_area(mlg_world::ChunkPos::new(0, 0), 0);
        let scene = || {
            let mut zombie =
                Entity::new(EntityId(1), EntityKind::Zombie, Vec3::new(14.5, 61.0, 8.5));
            zombie.on_ground = true;
            (zombie, vec![Vec3::new(20.5, 61.0, 8.5)])
        };
        let frozen_decision = |w: &mut World, scratch: PathScratch| {
            let pipeline = mlg_world::shard::TickPipeline::new(1, 1);
            let (zombie, players) = scene();
            let (mut tasks, ()) = w.run_frozen_phase(
                &pipeline.scope(),
                vec![(zombie, players, scratch, AiOutcome::default())],
                (),
                |mut view,
                 (zombie, players, scratch, out): &mut (
                    Entity,
                    Vec<Vec3>,
                    PathScratch,
                    AiOutcome,
                ),
                 ()| {
                    *out = decide(&mut view, zombie, players, &mut rng(), scratch);
                },
            );
            let (zombie, _, scratch, out) = tasks.pop().expect("the one task comes back");
            (zombie, out, scratch)
        };

        let epoch = w.terrain_epoch();
        let (gave_up, frozen_out, scratch) = frozen_decision(&mut w, PathScratch::default());
        assert!(gave_up.path_target.is_none() && frozen_out.pathfinding_performed);
        assert_eq!(w.terrain_epoch(), epoch);

        let mut scratch = scratch;
        let (mut zombie, players) = scene();
        let lazy_out = decide(&mut w, &mut zombie, &players, &mut rng(), &mut scratch);
        assert!(zombie.path_target.is_some() && zombie.velocity.x > 0.0);
        assert_ne!(lazy_out, frozen_out);
        assert_eq!(
            w.loaded_chunk_count(),
            2,
            "the lazy search generated the chunk"
        );
        assert_eq!((scratch.routes_asked, scratch.searches_run), (2, 2));

        // The other way round the two readers agree — everything the lazy
        // search read is loaded now — but the answer is searched for again
        // all the same, and each reader then remembers its own.
        let (walked, frozen_again, scratch) = frozen_decision(&mut w, scratch);
        assert_eq!((walked, frozen_again), (zombie, lazy_out));
        assert_eq!((scratch.routes_asked, scratch.searches_run), (3, 3));
        let (_, _, scratch) = frozen_decision(&mut w, scratch);
        let mut scratch = scratch;
        let (mut zombie, players) = scene();
        decide(&mut w, &mut zombie, &players, &mut rng(), &mut scratch);
        assert_eq!((scratch.routes_asked, scratch.searches_run), (5, 4));
    }

    #[test]
    fn pathfinding_cost_is_reported() {
        let mut w = world();
        let mut zombie = Entity::new(EntityId(5), EntityKind::Zombie, Vec3::new(0.5, 61.0, 0.5));
        zombie.on_ground = true;
        let players = vec![Vec3::new(10.5, 61.0, 10.5)];
        let out = decide(
            &mut w,
            &mut zombie,
            &players,
            &mut rng(),
            &mut PathScratch::default(),
        );
        assert!(out.path_nodes_expanded > 0);
    }
}
