//! Entity movement physics: gravity, drag and collision with the terrain.

use mlg_world::BlockReader;

use crate::entity::Entity;
use crate::math::Vec3;

/// Downward acceleration applied per tick, in blocks/tick².
const GRAVITY: f64 = 0.08;

/// Velocity retained each tick (air drag).
const DRAG: f64 = 0.98;

/// Additional horizontal velocity retention when on the ground (friction).
const GROUND_FRICTION: f64 = 0.6;

/// Result of integrating one entity for one tick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MoveOutcome {
    /// Whether the entity ended the tick standing on the ground.
    pub on_ground: bool,
    /// Number of world block reads performed for collision checks.
    pub blocks_checked: u32,
}

fn collides<W: BlockReader>(world: &mut W, entity: &Entity, pos: Vec3) -> (bool, u32) {
    let aabb = crate::math::Aabb::from_feet(pos, entity.kind.half_width(), entity.kind.height());
    let mut checked = 0;
    for bp in aabb.overlapping_blocks() {
        checked += 1;
        if world.block(bp).is_solid() {
            return (true, checked);
        }
    }
    (false, checked)
}

/// Integrates gravity, drag and axis-separated collision for one entity over
/// one tick, mutating its position, velocity and `on_ground` flag.
pub fn step<W: BlockReader>(world: &mut W, entity: &mut Entity) -> MoveOutcome {
    let mut outcome = MoveOutcome::default();

    // Apply gravity and drag.
    entity.velocity.y -= GRAVITY;
    entity.velocity = entity.velocity.scale(DRAG);
    if entity.on_ground {
        entity.velocity.x *= GROUND_FRICTION;
        entity.velocity.z *= GROUND_FRICTION;
    }

    // Move one axis at a time so the entity slides along walls.
    let mut pos = entity.pos;
    for axis in 0..3 {
        let delta = match axis {
            0 => Vec3::new(entity.velocity.x, 0.0, 0.0),
            1 => Vec3::new(0.0, entity.velocity.y, 0.0),
            _ => Vec3::new(0.0, 0.0, entity.velocity.z),
        };
        if delta.length_squared() == 0.0 {
            continue;
        }
        let candidate = pos.add(delta);
        let (hit, checked) = collides(world, entity, candidate);
        outcome.blocks_checked += checked;
        if hit {
            match axis {
                0 => entity.velocity.x = 0.0,
                1 => {
                    if entity.velocity.y < 0.0 {
                        outcome.on_ground = true;
                    }
                    entity.velocity.y = 0.0;
                }
                _ => entity.velocity.z = 0.0,
            }
        } else {
            pos = candidate;
        }
    }

    // Ground check: is there solid terrain just below the feet?
    if !outcome.on_ground {
        let (below_solid, checked) = collides(world, entity, pos.add(Vec3::new(0.0, -0.05, 0.0)));
        outcome.blocks_checked += checked;
        outcome.on_ground = below_solid;
    }

    entity.pos = pos;
    entity.on_ground = outcome.on_ground;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{EntityId, EntityKind};
    use mlg_world::generation::FlatGenerator;
    use mlg_world::World;
    use mlg_world::{Block, BlockKind, BlockPos};

    fn world() -> World {
        World::new(Box::new(FlatGenerator::grassland()), 7)
    }

    fn cow_at(pos: Vec3) -> Entity {
        Entity::new(EntityId(1), EntityKind::Cow, pos)
    }

    #[test]
    fn falling_entity_lands_on_the_surface() {
        let mut w = world();
        let mut e = cow_at(Vec3::new(8.5, 70.0, 8.5));
        for _ in 0..200 {
            step(&mut w, &mut e);
            if e.on_ground {
                break;
            }
        }
        assert!(e.on_ground, "entity should land");
        // Surface is at y = 60, so feet rest near y = 61.
        assert!(
            e.pos.y > 60.4 && e.pos.y < 61.6,
            "resting height {}",
            e.pos.y
        );
        assert_eq!(e.velocity.y, 0.0);
    }

    #[test]
    fn gravity_accelerates_free_fall() {
        let mut w = world();
        let mut e = cow_at(Vec3::new(8.5, 120.0, 8.5));
        let y0 = e.pos.y;
        step(&mut w, &mut e);
        let y1 = e.pos.y;
        step(&mut w, &mut e);
        assert!(y1 - e.pos.y > y0 - y1);
        assert!(!e.on_ground);
    }

    #[test]
    fn horizontal_motion_is_blocked_by_walls() {
        let mut w = world();
        // Build a wall right next to the entity.
        for y in 61..65 {
            w.set_block_silent(BlockPos::new(10, y, 8), Block::simple(BlockKind::Stone));
        }
        let mut e = cow_at(Vec3::new(9.2, 61.0, 8.5));
        e.on_ground = true;
        e.velocity = Vec3::new(1.0, 0.0, 0.0);
        step(&mut w, &mut e);
        assert_eq!(e.velocity.x, 0.0);
        assert!(e.pos.x < 9.6, "entity should not pass through the wall");
    }

    #[test]
    fn sliding_along_a_wall_preserves_other_axis() {
        let mut w = world();
        for y in 61..65 {
            w.set_block_silent(BlockPos::new(10, y, 8), Block::simple(BlockKind::Stone));
        }
        let mut e = cow_at(Vec3::new(9.2, 61.0, 8.5));
        e.velocity = Vec3::new(1.0, 0.0, 0.5);
        let before_z = e.pos.z;
        step(&mut w, &mut e);
        assert!(
            e.pos.z > before_z,
            "z motion should continue while x is blocked"
        );
    }

    #[test]
    fn drag_slows_entities_down() {
        let mut w = world();
        let mut e = cow_at(Vec3::new(8.5, 61.0, 8.5));
        e.on_ground = true;
        e.velocity = Vec3::new(0.5, 0.0, 0.0);
        for _ in 0..40 {
            step(&mut w, &mut e);
        }
        assert!(e.velocity.x.abs() < 0.01, "friction should stop the entity");
    }

    #[test]
    fn collision_checks_are_counted() {
        let mut w = world();
        let mut e = cow_at(Vec3::new(8.5, 70.0, 8.5));
        let out = step(&mut w, &mut e);
        assert!(out.blocks_checked > 0);
    }
}
