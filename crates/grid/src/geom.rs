//! Double-precision points and vectors.

use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub};

/// A position in physical space (metres).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

/// A direction / displacement in physical space.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Vector {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Point {
    pub const ORIGIN: Point = Point::new(0.0, 0.0, 0.0);

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }
}

impl Vector {
    pub const ZERO: Vector = Vector::new(0.0, 0.0, 0.0);

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    #[inline]
    pub const fn splat(v: f64) -> Self {
        Self::new(v, v, v)
    }

    #[inline]
    pub fn dot(self, o: Self) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn length(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Unit vector in the same direction. Panics on the zero vector in debug.
    #[inline]
    pub fn normalized(self) -> Self {
        let len = self.length();
        debug_assert!(len > 0.0, "normalizing zero vector");
        self / len
    }

    #[inline]
    pub fn cross(self, o: Self) -> Self {
        Self::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    #[inline]
    pub fn min_component(self) -> f64 {
        self.x.min(self.y).min(self.z)
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    #[inline]
    fn add(self, v: Vector) -> Point {
        Point::new(self.x + v.x, self.y + v.y, self.z + v.z)
    }
}

impl Sub<Point> for Point {
    type Output = Vector;
    #[inline]
    fn sub(self, o: Point) -> Vector {
        Vector::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, v: Vector) -> Point {
        Point::new(self.x - v.x, self.y - v.y, self.z - v.z)
    }
}

impl Add for Vector {
    type Output = Vector;
    #[inline]
    fn add(self, o: Vector) -> Vector {
        Vector::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vector {
    #[inline]
    fn add_assign(&mut self, o: Vector) {
        *self = *self + o;
    }
}

impl Sub for Vector {
    type Output = Vector;
    #[inline]
    fn sub(self, o: Vector) -> Vector {
        Vector::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Neg for Vector {
    type Output = Vector;
    #[inline]
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn mul(self, s: f64) -> Vector {
        Vector::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn div(self, s: f64) -> Vector {
        Vector::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vector index {i} out of range"),
        }
    }
}

impl Index<usize> for Point {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Point index {i} out of range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_vector_algebra() {
        let p = Point::new(1.0, 2.0, 3.0);
        let v = Vector::new(0.5, 0.5, 0.5);
        let q = p + v;
        assert_eq!(q, Point::new(1.5, 2.5, 3.5));
        assert_eq!(q - p, v);
        assert_eq!(p - v, Point::new(0.5, 1.5, 2.5));
    }

    #[test]
    fn dot_cross_length() {
        let a = Vector::new(1.0, 0.0, 0.0);
        let b = Vector::new(0.0, 1.0, 0.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), Vector::new(0.0, 0.0, 1.0));
        assert!((Vector::new(3.0, 4.0, 0.0).length() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn normalized_is_unit() {
        let n = Vector::new(1.0, 2.0, -2.0).normalized();
        assert!((n.length() - 1.0).abs() < 1e-14);
    }
}
