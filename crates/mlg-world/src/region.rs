//! Axis-aligned block regions (cuboids).
//!
//! Regions are used by workload builders (e.g. the 16×16×14 TNT cuboid of the
//! TNT world), by explosion handling, and by spatial queries such as "all
//! blocks near a player".

use serde::{Deserialize, Serialize};

use crate::pos::BlockPos;

/// An inclusive axis-aligned cuboid of block positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    min: BlockPos,
    max: BlockPos,
}

impl Region {
    /// Creates a region spanning the two corner positions (inclusive).
    ///
    /// The corners may be given in any order; they are normalized so that
    /// `min() <= max()` on every axis.
    #[must_use]
    pub fn new(a: BlockPos, b: BlockPos) -> Self {
        Region {
            min: BlockPos::new(a.x.min(b.x), a.y.min(b.y), a.z.min(b.z)),
            max: BlockPos::new(a.x.max(b.x), a.y.max(b.y), a.z.max(b.z)),
        }
    }

    /// Creates a cubic region centred on `center` extending `radius` blocks in
    /// every direction.
    #[must_use]
    pub fn cube_around(center: BlockPos, radius: i32) -> Self {
        Region::new(
            center.offset(-radius, -radius, -radius),
            center.offset(radius, radius, radius),
        )
    }

    /// Returns the minimum corner.
    #[must_use]
    pub fn min(&self) -> BlockPos {
        self.min
    }

    /// Returns the maximum corner.
    #[must_use]
    pub fn max(&self) -> BlockPos {
        self.max
    }

    /// Extent along each axis, in blocks (always at least 1).
    #[must_use]
    fn dimensions(&self) -> (u32, u32, u32) {
        (
            (self.max.x - self.min.x + 1) as u32,
            (self.max.y - self.min.y + 1) as u32,
            (self.max.z - self.min.z + 1) as u32,
        )
    }

    /// Total number of block positions contained in the region.
    #[must_use]
    pub fn volume(&self) -> u64 {
        let (dx, dy, dz) = self.dimensions();
        u64::from(dx) * u64::from(dy) * u64::from(dz)
    }

    /// Returns `true` if the position lies inside the region (inclusive).
    #[must_use]
    pub fn contains(&self, pos: BlockPos) -> bool {
        pos.x >= self.min.x
            && pos.x <= self.max.x
            && pos.y >= self.min.y
            && pos.y <= self.max.y
            && pos.z >= self.min.z
            && pos.z <= self.max.z
    }

    /// Iterates over every block position in the region in `y`-major order.
    pub fn iter(&self) -> impl Iterator<Item = BlockPos> + '_ {
        let min = self.min;
        let max = self.max;
        (min.y..=max.y).flat_map(move |y| {
            (min.z..=max.z).flat_map(move |z| (min.x..=max.x).map(move |x| BlockPos::new(x, y, z)))
        })
    }

    /// Returns the centre of the region, rounded towards the minimum corner.
    #[must_use]
    pub fn center(&self) -> BlockPos {
        BlockPos::new(
            self.min.x + (self.max.x - self.min.x) / 2,
            self.min.y + (self.max.y - self.min.y) / 2,
            self.min.z + (self.max.z - self.min.z) / 2,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_are_normalized() {
        let r = Region::new(BlockPos::new(5, 10, -3), BlockPos::new(-2, 1, 7));
        assert_eq!(r.min(), BlockPos::new(-2, 1, -3));
        assert_eq!(r.max(), BlockPos::new(5, 10, 7));
    }

    #[test]
    fn volume_matches_dimensions() {
        let r = Region::new(BlockPos::new(0, 0, 0), BlockPos::new(15, 13, 15));
        assert_eq!(r.dimensions(), (16, 14, 16));
        assert_eq!(r.volume(), 16 * 14 * 16);
    }

    #[test]
    fn single_block_region() {
        let p = BlockPos::new(3, 3, 3);
        let r = Region::new(p, p);
        assert_eq!(r.volume(), 1);
        assert!(r.contains(p));
        assert_eq!(r.iter().count(), 1);
    }

    #[test]
    fn contains_is_inclusive() {
        let r = Region::new(BlockPos::new(0, 0, 0), BlockPos::new(2, 2, 2));
        assert!(r.contains(BlockPos::new(0, 0, 0)));
        assert!(r.contains(BlockPos::new(2, 2, 2)));
        assert!(!r.contains(BlockPos::new(3, 0, 0)));
        assert!(!r.contains(BlockPos::new(0, -1, 0)));
    }

    #[test]
    fn iter_visits_every_position_once() {
        let r = Region::new(BlockPos::new(-1, 0, -1), BlockPos::new(1, 1, 1));
        let all: Vec<_> = r.iter().collect();
        assert_eq!(all.len() as u64, r.volume());
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len() as u64, r.volume());
        for p in &all {
            assert!(r.contains(*p));
        }
    }

    #[test]
    fn intersection() {
        // Bounds are inclusive: regions meeting at a corner share its block.
        let a = Region::new(BlockPos::new(0, 0, 0), BlockPos::new(4, 4, 4));
        let b = Region::new(BlockPos::new(4, 4, 4), BlockPos::new(8, 8, 8));
        let c = Region::new(BlockPos::new(5, 5, 5), BlockPos::new(8, 8, 8));
        let shared =
            |x: &Region, y: &Region| x.iter().filter(|p| y.contains(*p)).collect::<Vec<_>>();
        assert_eq!(shared(&a, &b), [BlockPos::new(4, 4, 4)]);
        assert_eq!(shared(&b, &a), [BlockPos::new(4, 4, 4)]);
        assert!(shared(&a, &c).is_empty());
    }

    #[test]
    fn cube_around_and_center() {
        let c = BlockPos::new(10, 20, 30);
        let r = Region::cube_around(c, 2);
        assert_eq!(r.dimensions(), (5, 5, 5));
        assert_eq!(r.center(), c);
        assert!(r.contains(c.offset(2, -2, 1)));
        assert!(!r.contains(c.offset(3, 0, 0)));
    }
}
