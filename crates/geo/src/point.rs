//! Planar points and elementary vector operations.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or vector) in a planar metric coordinate frame, in meters.
///
/// Used for indoor maps expressed in a [`crate::LocalFrame`] and for all
/// rasterization and transform math.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// East / x component in meters.
    pub x: f64,
    /// North / y component in meters.
    pub y: f64,
}

impl Point2 {
    /// Origin of the frame.
    pub const ZERO: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from components.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: Point2) -> f64 {
        (*self - other).norm()
    }

    /// Squared Euclidean distance to `other`, avoiding the square root.
    pub fn distance_sq(&self, other: Point2) -> f64 {
        let d = *self - other;
        d.x * d.x + d.y * d.y
    }

    /// Euclidean norm of the vector.
    pub fn norm(&self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(&self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

impl Add for Point2 {
    type Output = Point2;
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    fn mul(self, rhs: f64) -> Point2 {
        Point2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    fn div(self, rhs: f64) -> Point2 {
        Point2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point2 {
    type Output = Point2;
    fn neg(self) -> Point2 {
        Point2::new(-self.x, -self.y)
    }
}

impl std::fmt::Display for Point2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, -1.0);
        assert_eq!(a + b, Point2::new(4.0, 1.0));
        assert_eq!(a - b, Point2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point2::new(1.5, -0.5));
        assert_eq!(-a, Point2::new(-1.0, -2.0));
    }

    #[test]
    fn norm_and_distance() {
        let a = Point2::new(3.0, 4.0);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        assert!((a.distance(Point2::ZERO) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(Point2::ZERO) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_midpoint() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.5), Point2::new(1.0, 2.0));
    }
}
