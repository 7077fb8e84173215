//! Integer cell indices.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A 3-component integer vector indexing cells, nodes or patches.
///
/// Mirrors Uintah's `IntVector`. Components are `i32`; grids of up to
/// 2^31 cells per axis are far beyond anything the paper runs (512³ fine).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct IntVector {
    pub x: i32,
    pub y: i32,
    pub z: i32,
}

impl IntVector {
    pub const ZERO: IntVector = IntVector::new(0, 0, 0);
    pub const ONE: IntVector = IntVector::new(1, 1, 1);

    #[inline]
    pub const fn new(x: i32, y: i32, z: i32) -> Self {
        Self { x, y, z }
    }

    /// All three components equal to `v`.
    #[inline]
    pub const fn splat(v: i32) -> Self {
        Self::new(v, v, v)
    }

    /// Component-wise minimum.
    #[inline]
    pub(crate) fn min(self, o: Self) -> Self {
        Self::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub(crate) fn max(self, o: Self) -> Self {
        Self::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Product of the components as `usize`; panics on negative components.
    #[inline]
    pub fn volume(self) -> usize {
        assert!(
            self.x >= 0 && self.y >= 0 && self.z >= 0,
            "volume of negative extent {self:?}"
        );
        self.x as usize * self.y as usize * self.z as usize
    }

    /// True if every component of `self` is strictly less than `o`'s.
    #[inline]
    pub(crate) fn all_lt(self, o: Self) -> bool {
        self.x < o.x && self.y < o.y && self.z < o.z
    }

    /// True if every component of `self` is `<=` `o`'s.
    #[inline]
    pub(crate) fn all_le(self, o: Self) -> bool {
        self.x <= o.x && self.y <= o.y && self.z <= o.z
    }

    /// Component-wise Euclidean-floor division (rounds toward -inf), used to
    /// map fine cell indices to coarse cell indices for any sign.
    #[inline]
    pub fn div_floor(self, d: Self) -> Self {
        Self::new(
            self.x.div_euclid(d.x),
            self.y.div_euclid(d.y),
            self.z.div_euclid(d.z),
        )
    }

    /// Component-wise product.
    #[inline]
    pub fn comp_mul(self, o: Self) -> Self {
        Self::new(self.x * o.x, self.y * o.y, self.z * o.z)
    }
}

impl fmt::Debug for IntVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}, {}]", self.x, self.y, self.z)
    }
}

impl fmt::Display for IntVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}, {}]", self.x, self.y, self.z)
    }
}

impl Add for IntVector {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for IntVector {
    #[inline]
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl Sub for IntVector {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for IntVector {
    #[inline]
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

impl Neg for IntVector {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<i32> for IntVector {
    type Output = Self;
    #[inline]
    fn mul(self, s: i32) -> Self {
        Self::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<IntVector> for IntVector {
    type Output = Self;
    #[inline]
    fn mul(self, o: IntVector) -> Self {
        self.comp_mul(o)
    }
}

impl Div<IntVector> for IntVector {
    type Output = Self;
    /// Component-wise truncating division. For coarsening of possibly
    /// negative indices use [`IntVector::div_floor`].
    #[inline]
    fn div(self, o: IntVector) -> Self {
        Self::new(self.x / o.x, self.y / o.y, self.z / o.z)
    }
}

impl Index<usize> for IntVector {
    type Output = i32;
    #[inline]
    fn index(&self, i: usize) -> &i32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("IntVector index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for IntVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut i32 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("IntVector index {i} out of range"),
        }
    }
}

impl From<[i32; 3]> for IntVector {
    fn from(a: [i32; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl IntVector {
        /// Component-wise ceiling division for positive divisors.
        fn div_ceil(self, d: Self) -> Self {
            Self::new(
                (self.x + d.x - 1).div_euclid(d.x),
                (self.y + d.y - 1).div_euclid(d.y),
                (self.z + d.z - 1).div_euclid(d.z),
            )
        }
    }

    #[test]
    fn arithmetic() {
        let a = IntVector::new(1, 2, 3);
        let b = IntVector::new(4, 5, 6);
        assert_eq!(a + b, IntVector::new(5, 7, 9));
        assert_eq!(b - a, IntVector::new(3, 3, 3));
        assert_eq!(a * 2, IntVector::new(2, 4, 6));
        assert_eq!(a.comp_mul(b), IntVector::new(4, 10, 18));
        assert_eq!(-a, IntVector::new(-1, -2, -3));
    }

    #[test]
    fn volume_and_ordering() {
        assert_eq!(IntVector::splat(4).volume(), 64);
        assert_eq!(IntVector::ZERO.volume(), 0);
        assert!(IntVector::ZERO.all_lt(IntVector::ONE));
        assert!(!IntVector::ONE.all_lt(IntVector::ONE));
        assert!(IntVector::ONE.all_le(IntVector::ONE));
    }

    #[test]
    #[should_panic(expected = "volume of negative extent")]
    fn negative_volume_panics() {
        IntVector::new(-1, 2, 3).volume();
    }

    #[test]
    fn floor_division_handles_negatives() {
        let rr = IntVector::splat(4);
        assert_eq!(IntVector::new(-1, -4, -5).div_floor(rr), IntVector::new(-1, -1, -2));
        assert_eq!(IntVector::new(7, 8, 0).div_floor(rr), IntVector::new(1, 2, 0));
    }

    #[test]
    fn ceil_division() {
        let d = IntVector::splat(16);
        assert_eq!(IntVector::new(256, 255, 257).div_ceil(d), IntVector::new(16, 16, 17));
    }

    #[test]
    fn min_max() {
        let a = IntVector::new(1, 9, 3);
        let b = IntVector::new(4, 2, 3);
        assert_eq!(a.min(b), IntVector::new(1, 2, 3));
        assert_eq!(a.max(b), IntVector::new(4, 9, 3));
    }

    #[test]
    fn indexing() {
        let mut a = IntVector::new(1, 2, 3);
        assert_eq!(a[0], 1);
        assert_eq!(a[2], 3);
        a[1] = 7;
        assert_eq!(a.y, 7);
    }
}
