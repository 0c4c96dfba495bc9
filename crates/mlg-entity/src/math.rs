//! Minimal vector and bounding-box math used by entity simulation.

use serde::{Deserialize, Serialize};

use mlg_world::BlockPos;

/// A 3-component floating-point vector (position, velocity, offset).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    /// East–west component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
    /// North–south component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    #[must_use]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Component-wise addition.
    // Inherent rather than `std::ops::Add` so call sites stay explicit
    // method chains (`a.add(b).scale(c)`); widely used across the physics
    // and pathfinding code.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x + other.x, self.y + other.y, self.z + other.z)
    }

    /// Component-wise subtraction.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn sub(self, other: Vec3) -> Vec3 {
        Vec3::new(self.x - other.x, self.y - other.y, self.z - other.z)
    }

    /// Multiplication by a scalar.
    #[must_use]
    pub fn scale(self, factor: f64) -> Vec3 {
        Vec3::new(self.x * factor, self.y * factor, self.z * factor)
    }

    /// Euclidean length of the vector.
    #[must_use]
    pub fn length(self) -> f64 {
        self.length_squared().sqrt()
    }

    /// Squared Euclidean length (avoids the square root).
    #[must_use]
    pub fn length_squared(self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Distance to another point.
    #[must_use]
    pub fn distance(self, other: Vec3) -> f64 {
        self.sub(other).length()
    }

    /// Squared distance to another point.
    #[must_use]
    pub fn distance_squared(self, other: Vec3) -> f64 {
        self.sub(other).length_squared()
    }

    /// Returns the unit vector in the same direction, or zero for the zero
    /// vector.
    #[must_use]
    pub fn normalized(self) -> Vec3 {
        let len = self.length();
        if len < 1e-12 {
            Vec3::ZERO
        } else {
            self.scale(1.0 / len)
        }
    }

    /// The block position containing this point.
    #[must_use]
    pub fn block_pos(self) -> BlockPos {
        BlockPos::new(
            self.x.floor() as i32,
            self.y.floor() as i32,
            self.z.floor() as i32,
        )
    }

    /// The centre of the given block, at foot level.
    #[must_use]
    pub fn from_block_center(pos: BlockPos) -> Vec3 {
        Vec3::new(
            f64::from(pos.x) + 0.5,
            f64::from(pos.y),
            f64::from(pos.z) + 0.5,
        )
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::add(self, rhs)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::sub(self, rhs)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        self.scale(rhs)
    }
}

impl From<BlockPos> for Vec3 {
    fn from(pos: BlockPos) -> Self {
        Vec3::from_block_center(pos)
    }
}

/// An axis-aligned bounding box, used for entity collision volumes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Creates a bounding box from two corners (normalized automatically).
    #[must_use]
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: Vec3::new(a.x.min(b.x), a.y.min(b.y), a.z.min(b.z)),
            max: Vec3::new(a.x.max(b.x), a.y.max(b.y), a.z.max(b.z)),
        }
    }

    /// Creates a box centred horizontally on `feet` with the given half-width
    /// and height (how entity hitboxes are defined in MLGs).
    #[must_use]
    pub fn from_feet(feet: Vec3, half_width: f64, height: f64) -> Self {
        Aabb {
            min: Vec3::new(feet.x - half_width, feet.y, feet.z - half_width),
            max: Vec3::new(feet.x + half_width, feet.y + height, feet.z + half_width),
        }
    }

    /// Returns `true` if the point is inside the box.
    #[must_use]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// All block positions overlapped by the box, x-major, then y, then z
    /// (the order collision checks read them in, and stop in at the first
    /// solid block). A box with no extent along an axis still covers the
    /// block its minimum falls in.
    pub fn overlapping_blocks(&self) -> impl Iterator<Item = BlockPos> {
        let (x0, y0, z0) = (
            self.min.x.floor() as i32,
            self.min.y.floor() as i32,
            self.min.z.floor() as i32,
        );
        let (x1, y1, z1) = (
            self.max.x.ceil() as i32 - 1,
            self.max.y.ceil() as i32 - 1,
            self.max.z.ceil() as i32 - 1,
        );
        (x0..=x1.max(x0)).flat_map(move |x| {
            (y0..=y1.max(y0))
                .flat_map(move |y| (z0..=z1.max(z0)).map(move |z| BlockPos::new(x, y, z)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, -2.0, 0.5);
        assert_eq!(a + b, Vec3::new(5.0, 0.0, 3.5));
        assert_eq!(a - b, Vec3::new(-3.0, 4.0, 2.5));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
    }

    #[test]
    fn length_and_distance() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!((v.length() - 5.0).abs() < 1e-12);
        assert_eq!(v.length_squared(), 25.0);
        assert!((Vec3::ZERO.distance(v) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalization() {
        let v = Vec3::new(0.0, 10.0, 0.0).normalized();
        assert!((v.length() - 1.0).abs() < 1e-12);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn block_pos_conversion_floors() {
        assert_eq!(
            Vec3::new(1.9, 64.0, -0.1).block_pos(),
            BlockPos::new(1, 64, -1)
        );
        let center = Vec3::from_block_center(BlockPos::new(2, 60, -3));
        assert_eq!(center, Vec3::new(2.5, 60.0, -2.5));
        assert_eq!(center.block_pos(), BlockPos::new(2, 60, -3));
    }

    #[test]
    fn aabb_contains() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 4.0, 2.0));
        assert!(b.contains(Vec3::new(1.0, 2.0, 1.0)));
        assert!(!b.contains(Vec3::new(3.0, 2.0, 1.0)));
    }

    #[test]
    fn overlapping_blocks_cover_the_box() {
        let b = Aabb::from_feet(Vec3::new(0.5, 64.0, 0.5), 0.3, 1.8);
        let blocks: Vec<BlockPos> = b.overlapping_blocks().collect();
        assert!(blocks.contains(&BlockPos::new(0, 64, 0)));
        assert!(blocks.contains(&BlockPos::new(0, 65, 0)));
        // A wide box spans multiple columns.
        let wide = Aabb::from_feet(Vec3::new(0.0, 64.0, 0.0), 1.0, 1.0);
        assert!(wide.overlapping_blocks().count() >= 4);
    }

    /// [`Aabb::overlapping_blocks`] as it was when it returned a `Vec`,
    /// kept verbatim as the oracle for the iterator.
    fn reference_overlapping_blocks(aabb: &Aabb) -> Vec<BlockPos> {
        let mut out = Vec::new();
        let (x0, y0, z0) = (
            aabb.min.x.floor() as i32,
            aabb.min.y.floor() as i32,
            aabb.min.z.floor() as i32,
        );
        let (x1, y1, z1) = (
            aabb.max.x.ceil() as i32 - 1,
            aabb.max.y.ceil() as i32 - 1,
            aabb.max.z.ceil() as i32 - 1,
        );
        for x in x0..=x1.max(x0) {
            for y in y0..=y1.max(y0) {
                for z in z0..=z1.max(z0) {
                    out.push(BlockPos::new(x, y, z));
                }
            }
        }
        out
    }

    proptest::proptest! {
        #[test]
        fn overlapping_blocks_iterate_in_the_order_the_vec_held(
            cx in -40.0_f64..40.0, cy in -40.0_f64..40.0, cz in -40.0_f64..40.0,
            ex in 0.0_f64..3.5, ey in 0.0_f64..3.5, ez in 0.0_f64..3.5,
            // Per axis: leave the bounds as drawn, snap the minimum onto an
            // integer face, snap both (a box between two faces), or
            // collapse the box to no extent (the `x1.max(x0)` case).
            sx in 0_u8..4, sy in 0_u8..4, sz in 0_u8..4,
        ) {
            let axis = |lo: f64, len: f64, shape: u8| match shape {
                0 => (lo, lo + len),
                1 => (lo.floor(), lo.floor() + len),
                2 => (lo.floor(), lo.floor() + len.ceil()),
                _ => (lo, lo),
            };
            let (x, y, z) = (axis(cx, ex, sx), axis(cy, ey, sy), axis(cz, ez, sz));
            let aabb = Aabb {
                min: Vec3::new(x.0, y.0, z.0),
                max: Vec3::new(x.1, y.1, z.1),
            };
            let expected = reference_overlapping_blocks(&aabb);
            proptest::prop_assert!(!expected.is_empty());
            proptest::prop_assert_eq!(aabb.overlapping_blocks().collect::<Vec<_>>(), expected);
        }
    }
}
