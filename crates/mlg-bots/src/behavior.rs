//! Programmed bot behaviours.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mlg_entity::Vec3;

/// How an emulated player behaves each tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Behavior {
    /// Performs no actions. Environment-based workloads connect a single
    /// idle player purely to observe response time.
    Idle,
    /// Bounded random movement inside a square area, as in the Players
    /// workload ("25 players which move randomly in a 32-by-32 area").
    RandomWalk {
        /// Centre of the walking area.
        center: Vec3,
        /// Half of the area's edge length, in blocks.
        half_extent: f64,
    },
    /// Random walk plus periodic block actions: the bot places and digs
    /// blocks near its position as it wanders. The player-heavy Crowd
    /// workload uses this to load the player-handler and dissemination
    /// stages with terrain-touching traffic (movement validation, block
    /// writes, block-change broadcasts).
    Builder {
        /// Centre of the walking area.
        center: Vec3,
        /// Half of the area's edge length, in blocks.
        half_extent: f64,
    },
}

impl Behavior {
    /// The bounded random walk used by the Players workload.
    #[must_use]
    pub fn players_workload(center: Vec3, area_edge: f64) -> Self {
        Behavior::RandomWalk {
            center,
            half_extent: (area_edge / 2.0).max(1.0),
        }
    }

    /// Converts a walking behaviour into the equivalent builder behaviour
    /// (idle bots stay idle).
    #[must_use]
    pub fn into_builder(self) -> Self {
        match self {
            Behavior::RandomWalk {
                center,
                half_extent,
            } => Behavior::Builder {
                center,
                half_extent,
            },
            other => other,
        }
    }

    /// Moves a walking behaviour's area to be centred on `home` (idle bots
    /// are unaffected). Used when scattering a swarm over a large world:
    /// each bot walks its area around its own home instead of the shared
    /// spawn point.
    #[must_use]
    pub fn rehomed(self, home: Vec3) -> Self {
        match self {
            Behavior::RandomWalk { half_extent, .. } => Behavior::RandomWalk {
                center: home,
                half_extent,
            },
            Behavior::Builder { half_extent, .. } => Behavior::Builder {
                center: home,
                half_extent,
            },
            Behavior::Idle => Behavior::Idle,
        }
    }

    /// Returns `true` when the behaviour emits block place/dig actions.
    #[must_use]
    pub fn builds(&self) -> bool {
        matches!(self, Behavior::Builder { .. })
    }

    /// Computes the next position for a bot currently at `pos`.
    ///
    /// Returns `None` when the behaviour does not move (idle observer).
    pub fn next_position<R: Rng>(&self, pos: Vec3, rng: &mut R) -> Option<Vec3> {
        match self {
            Behavior::Idle => None,
            Behavior::RandomWalk {
                center,
                half_extent,
            }
            | Behavior::Builder {
                center,
                half_extent,
            } => {
                // A bounded random step of at most one block per tick.
                let step = 0.3;
                let dx = rng.gen_range(-step..=step);
                let dz = rng.gen_range(-step..=step);
                let mut next = Vec3::new(pos.x + dx, pos.y, pos.z + dz);
                next.x = next.x.clamp(center.x - half_extent, center.x + half_extent);
                next.z = next.z.clamp(center.z - half_extent, center.z + half_extent);
                Some(next)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn idle_never_moves() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = Behavior::Idle;
        assert_eq!(b.next_position(Vec3::new(1.0, 64.0, 1.0), &mut rng), None);
    }

    #[test]
    fn random_walk_stays_inside_the_area() {
        let mut rng = StdRng::seed_from_u64(2);
        let center = Vec3::new(0.5, 61.0, 0.5);
        let b = Behavior::players_workload(center, 32.0);
        let mut pos = center;
        for _ in 0..10_000 {
            pos = b.next_position(pos, &mut rng).unwrap();
            assert!((pos.x - center.x).abs() <= 16.0);
            assert!((pos.z - center.z).abs() <= 16.0);
            assert_eq!(pos.y, center.y);
        }
    }

    #[test]
    fn random_walk_actually_moves() {
        let mut rng = StdRng::seed_from_u64(3);
        let center = Vec3::new(0.5, 61.0, 0.5);
        let b = Behavior::players_workload(center, 32.0);
        let next = b.next_position(center, &mut rng).unwrap();
        assert_ne!(next, center);
    }

    #[test]
    fn degenerate_area_is_clamped() {
        let b = Behavior::players_workload(Vec3::ZERO, 0.0);
        match b {
            Behavior::RandomWalk { half_extent, .. } => assert!(half_extent >= 1.0),
            other => panic!("expected a random walk, got {other:?}"),
        }
    }

    #[test]
    fn builder_walks_like_a_random_walker() {
        let center = Vec3::new(0.5, 61.0, 0.5);
        let walker = Behavior::players_workload(center, 32.0);
        let builder = walker.into_builder();
        assert!(builder.builds() && !walker.builds());
        assert!(!Behavior::Idle.into_builder().builds(), "idle stays idle");
        // Identical RNG stream => identical steps: building adds actions,
        // it does not change movement.
        let mut ra = StdRng::seed_from_u64(11);
        let mut rb = StdRng::seed_from_u64(11);
        let mut pa = center;
        let mut pb = center;
        for _ in 0..100 {
            pa = walker.next_position(pa, &mut ra).unwrap();
            pb = builder.next_position(pb, &mut rb).unwrap();
            assert_eq!(pa, pb);
        }
    }
}
