//! Entity kinds and entity state.

use serde::{Deserialize, Serialize};

use mlg_world::BlockKind;

use crate::math::{Aabb, Vec3};

/// Unique identifier of an entity within one server instance.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct EntityId(pub u64);

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "entity#{}", self.0)
    }
}

/// The kind of an entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EntityKind {
    /// A dropped item stack; carries the block kind it represents.
    Item(BlockKind),
    /// Primed TNT counting down to its explosion.
    PrimedTnt,
    /// A block that is currently falling (sand/gravel in mid-air).
    FallingBlock(BlockKind),
    /// Hostile mob (zombie-like): wanders, paths towards players.
    Zombie,
    /// Hostile ranged mob (skeleton-like).
    Skeleton,
    /// Passive mob (cow-like): wanders slowly.
    Cow,
    /// Villager NPC: wanders and paths between points of interest.
    Villager,
    /// Experience orb dropped by farms; merges aggressively.
    ExperienceOrb,
}

impl EntityKind {
    /// Half-width of the entity's collision box, in blocks.
    #[must_use]
    pub fn half_width(self) -> f64 {
        match self {
            EntityKind::Item(_) | EntityKind::ExperienceOrb => 0.125,
            EntityKind::PrimedTnt | EntityKind::FallingBlock(_) => 0.49,
            EntityKind::Zombie | EntityKind::Skeleton | EntityKind::Villager => 0.3,
            EntityKind::Cow => 0.45,
        }
    }

    /// Height of the entity's collision box, in blocks.
    #[must_use]
    pub fn height(self) -> f64 {
        match self {
            EntityKind::Item(_) | EntityKind::ExperienceOrb => 0.25,
            EntityKind::PrimedTnt | EntityKind::FallingBlock(_) => 0.98,
            EntityKind::Zombie | EntityKind::Skeleton | EntityKind::Villager => 1.95,
            EntityKind::Cow => 1.4,
        }
    }

    /// Returns `true` for mobs that make movement decisions (AI + pathfinding).
    #[must_use]
    pub fn is_mob(self) -> bool {
        matches!(
            self,
            EntityKind::Zombie | EntityKind::Skeleton | EntityKind::Cow | EntityKind::Villager
        )
    }

    /// Returns `true` for hostile mobs (spawned by the dark-room entity farms).
    #[must_use]
    pub fn is_hostile(self) -> bool {
        matches!(self, EntityKind::Zombie | EntityKind::Skeleton)
    }

    /// Returns `true` for item-like entities that merge when close together.
    #[must_use]
    pub fn is_item_like(self) -> bool {
        matches!(self, EntityKind::Item(_) | EntityKind::ExperienceOrb)
    }

    /// Ticks after which an unattended entity of this kind despawns, if any.
    #[must_use]
    fn despawn_after_ticks(self) -> Option<u64> {
        match self {
            // Items vanish after 5 minutes (6000 ticks).
            EntityKind::Item(_) | EntityKind::ExperienceOrb => Some(6_000),
            // Hostile mobs despawn after 30 seconds when far from players;
            // the manager applies the distance condition.
            EntityKind::Zombie | EntityKind::Skeleton => Some(600),
            _ => None,
        }
    }

    /// Base movement speed in blocks per tick.
    #[must_use]
    pub fn base_speed(self) -> f64 {
        match self {
            EntityKind::Zombie => 0.115,
            EntityKind::Skeleton => 0.125,
            EntityKind::Cow => 0.1,
            EntityKind::Villager => 0.125,
            _ => 0.0,
        }
    }

    /// A short name for reports and packet dumps.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EntityKind::Item(_) => "item",
            EntityKind::PrimedTnt => "primed_tnt",
            EntityKind::FallingBlock(_) => "falling_block",
            EntityKind::Zombie => "zombie",
            EntityKind::Skeleton => "skeleton",
            EntityKind::Cow => "cow",
            EntityKind::Villager => "villager",
            EntityKind::ExperienceOrb => "experience_orb",
        }
    }
}

impl std::fmt::Display for EntityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A single entity instance.
///
/// All fields are plain-old-data so the struct is `Copy`: the manager's
/// row store holds entities by value and the tick edits them in place,
/// while the sharded tick and [`EntityManager::get`](crate::EntityManager::get)
/// hand out copies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Entity {
    /// Unique identifier.
    pub id: EntityId,
    /// Kind of entity.
    pub kind: EntityKind,
    /// Position of the entity's feet.
    pub pos: Vec3,
    /// Velocity in blocks per tick.
    pub velocity: Vec3,
    /// Whether the entity is standing on solid ground.
    pub on_ground: bool,
    /// Age in ticks since the entity was spawned.
    pub age: u64,
    /// Remaining fuse ticks (primed TNT only).
    pub fuse: u16,
    /// Stack size for item entities (merging increases it).
    pub stack_size: u32,
    /// Current pathfinding target, if the AI chose one.
    pub path_target: Option<Vec3>,
}

impl Entity {
    /// Default TNT fuse length in ticks (4 seconds at 20 Hz).
    const TNT_FUSE_TICKS: u16 = 80;

    /// Creates a new entity of `kind` at `pos` with sensible defaults.
    #[must_use]
    pub fn new(id: EntityId, kind: EntityKind, pos: Vec3) -> Self {
        Entity {
            id,
            kind,
            pos,
            velocity: Vec3::ZERO,
            on_ground: false,
            age: 0,
            fuse: if kind == EntityKind::PrimedTnt {
                Self::TNT_FUSE_TICKS
            } else {
                0
            },
            stack_size: 1,
            path_target: None,
        }
    }

    /// The entity's collision box at its current position.
    #[must_use]
    pub fn aabb(&self) -> Aabb {
        Aabb::from_feet(self.pos, self.kind.half_width(), self.kind.height())
    }

    /// Returns `true` if this entity should despawn given its age and the
    /// positions of the players: past its age limit, a hostile mob despawns
    /// only when no player is within 32 blocks, anything else always. Only
    /// such a mob measures distances, and it stops at the first player in
    /// range.
    #[must_use]
    pub fn should_despawn(&self, players: &[Vec3]) -> bool {
        match self.kind.despawn_after_ticks() {
            Some(limit) if self.age > limit => {
                !self.kind.is_hostile() || !players.iter().any(|p| p.distance(self.pos) <= 32.0)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_entity_defaults() {
        let e = Entity::new(EntityId(1), EntityKind::Zombie, Vec3::new(0.0, 64.0, 0.0));
        assert_eq!(e.age, 0);
        assert_eq!(e.fuse, 0);
        assert!(e.kind.is_mob());
    }

    #[test]
    fn primed_tnt_gets_a_fuse() {
        let e = Entity::new(EntityId(2), EntityKind::PrimedTnt, Vec3::ZERO);
        assert_eq!(e.fuse, Entity::TNT_FUSE_TICKS);
        assert!(!e.kind.is_mob());
    }

    #[test]
    fn aabb_matches_kind_dimensions() {
        let e = Entity::new(EntityId(3), EntityKind::Cow, Vec3::new(10.0, 64.0, 10.0));
        let aabb = e.aabb();
        assert!((aabb.max.y - aabb.min.y - EntityKind::Cow.height()).abs() < 1e-9);
        assert!((aabb.max.x - aabb.min.x - 2.0 * EntityKind::Cow.half_width()).abs() < 1e-9);
    }

    #[test]
    fn items_despawn_when_old() {
        let mut e = Entity::new(
            EntityId(4),
            EntityKind::Item(BlockKind::Cobblestone),
            Vec3::ZERO,
        );
        let near = [Vec3::new(1.0, 0.0, 0.0)];
        assert!(!e.should_despawn(&near));
        e.age = 6_001;
        assert!(e.should_despawn(&near));
    }

    #[test]
    fn hostile_mobs_only_despawn_far_from_players() {
        let mut e = Entity::new(EntityId(5), EntityKind::Zombie, Vec3::ZERO);
        e.age = 10_000;
        let far = Vec3::new(100.0, 0.0, 0.0);
        assert!(!e.should_despawn(&[far, Vec3::new(0.0, 5.0, 0.0)]));
        assert!(e.should_despawn(&[far]));
        assert!(e.should_despawn(&[]));
    }

    #[test]
    fn villagers_never_despawn() {
        let mut e = Entity::new(EntityId(6), EntityKind::Villager, Vec3::ZERO);
        e.age = 1_000_000;
        assert!(!e.should_despawn(&[Vec3::new(1_000.0, 0.0, 0.0)]));
    }

    /// The decision as it was: every player's distance folded to the
    /// nearest, then tested.
    fn despawns_by_the_nearest_player(entity: &Entity, players: &[Vec3]) -> bool {
        let nearest = players
            .iter()
            .map(|p| p.distance(entity.pos))
            .fold(f64::INFINITY, f64::min);
        match entity.kind.despawn_after_ticks() {
            None => false,
            Some(limit) if entity.kind.is_hostile() => entity.age > limit && nearest > 32.0,
            Some(limit) => entity.age > limit,
        }
    }

    proptest::proptest! {
        /// The early-stopping scan decides like the fold over every player,
        /// on random kinds, ages and positions, with up to five players (none
        /// included), some of them right at the 32-block edge.
        #[test]
        fn despawn_scan_matches_the_nearest_player_fold(seed in proptest::prelude::any::<u64>()) {
            use rand::{Rng, SeedableRng};

            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let kinds = [
                EntityKind::Zombie,
                EntityKind::Skeleton,
                EntityKind::Cow,
                EntityKind::Villager,
                EntityKind::ExperienceOrb,
                EntityKind::Item(BlockKind::Sand),
                EntityKind::PrimedTnt,
            ];
            for _ in 0..64 {
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let pos = Vec3::new(rng.gen_range(-40.0..40.0), 64.0, rng.gen_range(-40.0..40.0));
                let mut e = Entity::new(EntityId(1), kind, pos);
                e.age = rng.gen_range(0..7_000);
                let players: Vec<Vec3> = (0..rng.gen_range(0..6))
                    .map(|_| match rng.gen_range(0..3) {
                        0 => pos.add(Vec3::new(32.0, 0.0, 0.0)),
                        _ => Vec3::new(rng.gen_range(-80.0..80.0), 64.0, rng.gen_range(-80.0..80.0)),
                    })
                    .collect();
                proptest::prop_assert_eq!(
                    e.should_despawn(&players),
                    despawns_by_the_nearest_player(&e, &players),
                    "{:?} aged {} at {:?} with players {:?}", kind, e.age, pos, players
                );
            }
        }
    }

    #[test]
    fn kind_classification() {
        assert!(EntityKind::Item(BlockKind::Kelp).is_item_like());
        assert!(EntityKind::ExperienceOrb.is_item_like());
        assert!(!EntityKind::Zombie.is_item_like());
        assert!(EntityKind::Zombie.is_hostile());
        assert!(!EntityKind::Cow.is_hostile());
        assert!(EntityKind::Cow.is_mob());
    }

    #[test]
    fn mobs_move_items_do_not() {
        assert!(EntityKind::Zombie.base_speed() > 0.0);
        assert_eq!(EntityKind::Item(BlockKind::Stone).base_speed(), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(EntityKind::PrimedTnt.to_string(), "primed_tnt");
        assert_eq!(EntityId(9).to_string(), "entity#9");
    }
}
