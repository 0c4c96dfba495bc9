//! Primed TNT: fuses, explosions and chain reactions.
//!
//! "In the systems tested, TNT operates by spawning an entity, which can be
//! interacted with by other entities, including other TNT entities. Thus, when
//! a large section of TNT is activated, the MLG must perform a large number of
//! both entity-collision and physics calculations." (Section 3.3.1.)

use mlg_world::sim::{explode, ExplosionOutcome};
use mlg_world::World;

use crate::entity::Entity;
use crate::math::Vec3;

/// Blast radius of a single TNT explosion, in blocks.
pub const TNT_POWER: u32 = 4;

/// Radius within which an explosion knocks back other entities.
const KNOCKBACK_RADIUS: f64 = 8.0;

/// What happened when a primed TNT entity was ticked.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TntTickOutcome {
    /// Whether the entity exploded this tick (and must be removed).
    pub exploded: bool,
    /// The terrain outcome of the explosion, if any.
    pub explosion: Option<ExplosionOutcome>,
}

/// Ticks the fuse of a primed TNT entity; when it reaches zero the entity
/// explodes, destroying terrain and igniting any TNT blocks caught in the
/// blast (returned inside [`ExplosionOutcome::tnt_ignited`]).
pub fn tick_fuse(world: &mut World, entity: &mut Entity) -> TntTickOutcome {
    let mut outcome = TntTickOutcome::default();
    if entity.fuse > 0 {
        entity.fuse -= 1;
        return outcome;
    }
    let center = entity.pos.block_pos();
    let explosion = explode(world, center, TNT_POWER);
    outcome.exploded = true;
    outcome.explosion = Some(explosion);
    outcome
}

/// Applies explosion knockback to an entity at `target_pos` from a blast at
/// `blast_pos`, returning the velocity change to add.
#[must_use]
pub fn knockback(blast_pos: Vec3, target_pos: Vec3) -> Vec3 {
    let offset = target_pos.sub(blast_pos);
    let distance = offset.length();
    if !(1e-9..KNOCKBACK_RADIUS).contains(&distance) {
        return Vec3::ZERO;
    }
    let strength = (KNOCKBACK_RADIUS - distance) / KNOCKBACK_RADIUS;
    offset.normalized().scale(strength * 1.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{EntityId, EntityKind};
    use mlg_world::generation::FlatGenerator;
    use mlg_world::{Block, BlockKind, BlockPos};

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    #[test]
    fn fuse_counts_down_before_exploding() {
        let mut w = world();
        let mut tnt = Entity::new(
            EntityId(1),
            EntityKind::PrimedTnt,
            Vec3::new(8.5, 61.0, 8.5),
        );
        tnt.fuse = 3;
        for _ in 0..3 {
            let out = tick_fuse(&mut w, &mut tnt);
            assert!(!out.exploded);
        }
        let out = tick_fuse(&mut w, &mut tnt);
        assert!(out.exploded);
        assert!(out.explosion.is_some());
    }

    #[test]
    fn explosion_destroys_surrounding_terrain() {
        let mut w = world();
        let mut tnt = Entity::new(
            EntityId(1),
            EntityKind::PrimedTnt,
            Vec3::new(8.5, 61.0, 8.5),
        );
        tnt.fuse = 0;
        let out = tick_fuse(&mut w, &mut tnt);
        let explosion = out.explosion.unwrap();
        assert!(explosion.blocks_destroyed > 20);
        // Ground zero is now a crater.
        assert_eq!(w.block(BlockPos::new(8, 60, 8)), Block::AIR);
    }

    #[test]
    fn explosion_ignites_adjacent_tnt_blocks() {
        let mut w = world();
        // Place a small cluster of TNT blocks near the blast.
        for dx in 0..3 {
            w.set_block_silent(BlockPos::new(9 + dx, 61, 8), Block::simple(BlockKind::Tnt));
        }
        let mut tnt = Entity::new(
            EntityId(1),
            EntityKind::PrimedTnt,
            Vec3::new(8.5, 61.0, 8.5),
        );
        tnt.fuse = 0;
        let out = tick_fuse(&mut w, &mut tnt);
        let explosion = out.explosion.unwrap();
        assert_eq!(explosion.tnt_ignited.len(), 3, "all TNT in range chains");
        for pos in &explosion.tnt_ignited {
            assert_eq!(w.block(*pos), Block::AIR, "ignited TNT blocks are removed");
        }
    }

    #[test]
    fn knockback_decreases_with_distance() {
        let blast = Vec3::new(0.0, 64.0, 0.0);
        let near = knockback(blast, Vec3::new(1.0, 64.0, 0.0));
        let far = knockback(blast, Vec3::new(6.0, 64.0, 0.0));
        assert!(near.length() > far.length());
        assert!(far.length() > 0.0);
        let out_of_range = knockback(blast, Vec3::new(20.0, 64.0, 0.0));
        assert_eq!(out_of_range, Vec3::ZERO);
    }

    #[test]
    fn knockback_points_away_from_the_blast() {
        let blast = Vec3::new(0.0, 64.0, 0.0);
        let push = knockback(blast, Vec3::new(2.0, 64.0, 0.0));
        assert!(push.x > 0.0);
        assert_eq!(push.y, 0.0);
    }

    #[test]
    fn zero_distance_knockback_is_zero() {
        let blast = Vec3::new(1.0, 64.0, 1.0);
        assert_eq!(knockback(blast, blast), Vec3::ZERO);
    }
}
