//! Item entities: merging nearby stacks and hopper collection.
//!
//! Resource farms produce large numbers of item entities ("The Stone and Kelp
//! farm continuously destroy blocks, which create passive entities to
//! represent items", Section 3.3.1). Servers keep the entity count manageable
//! by merging nearby identical items into stacks and by letting hoppers
//! collect items into chests; both behaviours cost proximity queries every
//! tick, contributing to the entity share of tick time (MF4).

use mlg_world::{BlockKind, BlockPos, BlockReader};

use crate::entity::{Entity, EntityId, EntityKind};
use crate::spatial::SpatialGrid;

/// Radius within which identical item entities merge into one stack.
pub const MERGE_RADIUS: f64 = 1.5;

/// Maximum stack size after merging.
pub const MAX_STACK: u32 = 64;

/// Result of one item-maintenance pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ItemPassOutcome {
    /// Ids of entities removed because they merged into another stack.
    pub merged_away: Vec<EntityId>,
    /// Ids of entities removed because a hopper collected them.
    pub collected: Vec<EntityId>,
    /// Number of proximity candidates examined.
    pub candidates_examined: u32,
}

/// Merges nearby identical item entities.
///
/// `entities` may be the full entity list or just its item-like members, in
/// spawn order: only item-like entities are read or touched, so both give
/// the same outcome. Entities whose ids end up in [`ItemPassOutcome::merged_away`] had their
/// stack size folded into a surviving entity and must be removed by the
/// caller.
pub fn merge_items(entities: &mut [Entity], grid: &SpatialGrid) -> ItemPassOutcome {
    let mut outcome = ItemPassOutcome::default();
    let mut absorbed: std::collections::HashSet<EntityId> = std::collections::HashSet::new();
    // Index entities by id for stack bookkeeping.
    let mut kind_by_id: std::collections::HashMap<EntityId, EntityKind> =
        std::collections::HashMap::new();
    for e in entities.iter() {
        kind_by_id.insert(e.id, e.kind);
    }
    let mut gains: std::collections::HashMap<EntityId, u32> = std::collections::HashMap::new();

    for e in entities.iter() {
        if !e.kind.is_item_like() || absorbed.contains(&e.id) {
            continue;
        }
        let (near, examined) = grid.query_radius(e.pos, MERGE_RADIUS, Some(e.id));
        outcome.candidates_examined += examined;
        for other_id in near {
            if absorbed.contains(&other_id) || other_id <= e.id {
                continue;
            }
            if kind_by_id.get(&other_id) == Some(&e.kind) && e.stack_size < MAX_STACK {
                if absorbed.insert(other_id) {
                    // Encounter order, not hash order: the removal list must
                    // be deterministic for the sharded pipeline's
                    // bit-identity guarantee.
                    outcome.merged_away.push(other_id);
                }
                *gains.entry(e.id).or_insert(0) += 1;
            }
        }
    }

    for e in entities.iter_mut() {
        if let Some(gain) = gains.get(&e.id) {
            // Each absorbed entity contributes its stack (assumed 1 per merge
            // round; multi-stack merges resolve over successive rounds).
            e.stack_size = (e.stack_size + gain).min(MAX_STACK);
        }
    }
    outcome
}

/// Lets hoppers collect item entities resting on top of them.
///
/// Any item entity whose supporting block (directly below its position) is a
/// hopper is collected: its id is returned for removal, modelling transfer
/// into storage.
pub fn collect_into_hoppers<W: BlockReader>(world: &mut W, entities: &[Entity]) -> ItemPassOutcome {
    let mut outcome = ItemPassOutcome::default();
    for e in entities {
        if !e.kind.is_item_like() {
            continue;
        }
        outcome.candidates_examined += 1;
        let below = BlockPos::new(
            e.pos.x.floor() as i32,
            e.pos.y.floor() as i32 - 1,
            e.pos.z.floor() as i32,
        );
        let standing_in = e.pos.block_pos();
        if world.block(below).kind() == BlockKind::Hopper
            || world.block(standing_in).kind() == BlockKind::Hopper
        {
            outcome.collected.push(e.id);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Vec3;
    use mlg_world::generation::FlatGenerator;
    use mlg_world::Block;
    use mlg_world::World;

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    fn item(id: u64, kind: BlockKind, pos: Vec3) -> Entity {
        Entity::new(EntityId(id), EntityKind::Item(kind), pos)
    }

    fn grid_for(entities: &[Entity]) -> SpatialGrid {
        let mut grid = SpatialGrid::new();
        for e in entities {
            grid.insert(e.id, e.pos);
        }
        grid
    }

    #[test]
    fn identical_items_close_together_merge() {
        let mut entities = vec![
            item(1, BlockKind::Cobblestone, Vec3::new(0.0, 61.0, 0.0)),
            item(2, BlockKind::Cobblestone, Vec3::new(0.5, 61.0, 0.0)),
            item(3, BlockKind::Cobblestone, Vec3::new(0.9, 61.0, 0.3)),
        ];
        let grid = grid_for(&entities);
        let outcome = merge_items(&mut entities, &grid);
        assert_eq!(outcome.merged_away.len(), 2);
        let survivor = entities.iter().find(|e| e.id == EntityId(1)).unwrap();
        assert_eq!(survivor.stack_size, 3);
    }

    #[test]
    fn different_item_kinds_do_not_merge() {
        let mut entities = vec![
            item(1, BlockKind::Cobblestone, Vec3::new(0.0, 61.0, 0.0)),
            item(2, BlockKind::Kelp, Vec3::new(0.5, 61.0, 0.0)),
        ];
        let grid = grid_for(&entities);
        let outcome = merge_items(&mut entities, &grid);
        assert!(outcome.merged_away.is_empty());
    }

    #[test]
    fn distant_items_do_not_merge() {
        let mut entities = vec![
            item(1, BlockKind::Cobblestone, Vec3::new(0.0, 61.0, 0.0)),
            item(2, BlockKind::Cobblestone, Vec3::new(10.0, 61.0, 0.0)),
        ];
        let grid = grid_for(&entities);
        let outcome = merge_items(&mut entities, &grid);
        assert!(outcome.merged_away.is_empty());
    }

    #[test]
    fn mobs_are_never_merged() {
        let mut entities = vec![
            Entity::new(EntityId(1), EntityKind::Zombie, Vec3::new(0.0, 61.0, 0.0)),
            Entity::new(EntityId(2), EntityKind::Zombie, Vec3::new(0.2, 61.0, 0.0)),
        ];
        let grid = grid_for(&entities);
        let outcome = merge_items(&mut entities, &grid);
        assert!(outcome.merged_away.is_empty());
    }

    #[test]
    fn merging_is_a_function_of_the_item_like_entities_only() {
        // The manager hands over item-like rows only. On a crowded mixed
        // population — items of two kinds, orbs, mobs, TNT, all within
        // merge range of something — that must give what the full list
        // gives: same removals in the same order, same candidate count,
        // same stacks.
        let mut s = 0x5EED_u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let kinds = [
            EntityKind::Item(BlockKind::Cobblestone),
            EntityKind::Cow,
            EntityKind::Item(BlockKind::Kelp),
            EntityKind::ExperienceOrb,
            EntityKind::PrimedTnt,
            EntityKind::Zombie,
            EntityKind::Item(BlockKind::Cobblestone),
        ];
        let all: Vec<Entity> = (1..=300)
            .map(|id| {
                let pos = Vec3::new(
                    (next() % 80) as f64 / 10.0,
                    61.0,
                    (next() % 80) as f64 / 10.0,
                );
                Entity::new(EntityId(id), kinds[(next() % 7) as usize], pos)
            })
            .collect();
        let grid = grid_for(&all);
        let mut full = all.clone();
        let mut item_like: Vec<Entity> = all
            .iter()
            .copied()
            .filter(|e| e.kind.is_item_like())
            .collect();
        let expected = merge_items(&mut full, &grid);
        let actual = merge_items(&mut item_like, &grid);
        assert!(!expected.merged_away.is_empty());
        assert_eq!(actual, expected);
        full.retain(|e| e.kind.is_item_like());
        assert_eq!(item_like, full);
    }

    #[test]
    fn hopper_collects_items_resting_on_it() {
        let mut w = world();
        let hopper_pos = BlockPos::new(4, 61, 4);
        w.set_block_silent(hopper_pos, Block::simple(BlockKind::Hopper));
        let entities = vec![
            item(1, BlockKind::Kelp, Vec3::new(4.5, 62.0, 4.5)), // on top of the hopper
            item(2, BlockKind::Kelp, Vec3::new(8.5, 62.0, 8.5)), // elsewhere
        ];
        let outcome = collect_into_hoppers(&mut w, &entities);
        assert_eq!(outcome.collected, vec![EntityId(1)]);
    }

    #[test]
    fn items_inside_hopper_block_are_collected() {
        let mut w = world();
        let hopper_pos = BlockPos::new(4, 61, 4);
        w.set_block_silent(hopper_pos, Block::simple(BlockKind::Hopper));
        let entities = vec![item(1, BlockKind::Stone, Vec3::new(4.5, 61.5, 4.5))];
        let outcome = collect_into_hoppers(&mut w, &entities);
        assert_eq!(outcome.collected.len(), 1);
    }

    #[test]
    fn stack_size_never_exceeds_max() {
        let mut entities: Vec<Entity> = (0..80)
            .map(|i| {
                let mut e = item(
                    i,
                    BlockKind::Cobblestone,
                    Vec3::new(0.1 * i as f64 % 1.0, 61.0, 0.0),
                );
                e.stack_size = 1;
                e
            })
            .collect();
        let grid = grid_for(&entities);
        merge_items(&mut entities, &grid);
        for e in &entities {
            assert!(e.stack_size <= MAX_STACK);
        }
    }
}
