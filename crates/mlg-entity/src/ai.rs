//! Mob decision making: wandering and pathfinding towards targets.
//!
//! Decision making (Figure 3 of the paper) covers how NPCs choose where to
//! move. Hostile mobs path towards the nearest player; passive mobs wander
//! randomly. Both behaviours consume pathfinding budget, which is part of the
//! entity workload the paper measures.

use rand::Rng;

use mlg_world::{BlockPos, BlockReader};

use crate::entity::Entity;
use crate::math::Vec3;
use crate::pathfinding::{self, PathResult, PathScratch};

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
/// pathfinding working memory, reused from mob to mob and tick to tick.
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

    // 3. Pathfind towards the target and follow the first step.
    let start = standable_below(world, entity.pos.block_pos());
    let goal = standable_below(world, target.block_pos());
    let PathResult {
        path,
        nodes_expanded,
        reached_goal,
    } = pathfinding::find_path_with(world, start, goal, PATH_NODE_BUDGET, scratch);
    outcome.pathfinding_performed = true;
    outcome.path_nodes_expanded = nodes_expanded;

    if !reached_goal && path.is_empty() {
        // Give up on unreachable targets.
        entity.path_target = None;
        return outcome;
    }
    let next = path
        .first()
        .copied()
        .map_or(target, Vec3::from_block_center);
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

/// Finds the nearest standable position at or below `pos` (mobs float above
/// the ground slightly due to physics; pathfinding wants the block they stand
/// in).
fn standable_below<W: BlockReader>(world: &mut W, pos: BlockPos) -> BlockPos {
    let mut candidate = pos;
    for _ in 0..4 {
        if pathfinding::is_walkable(world, candidate) {
            return candidate;
        }
        candidate = candidate.down();
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{EntityId, EntityKind};
    use mlg_world::generation::FlatGenerator;
    use mlg_world::World;
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
