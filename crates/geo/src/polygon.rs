//! Planar simple polygons: area, centroid, containment, distance.

use crate::{GeoError, Point2};

/// A simple (non-self-intersecting) polygon in a planar metric frame.
///
/// The ring is stored without a repeated closing vertex. Orientation is
/// normalized to counter-clockwise on construction so signed-area
/// consumers can rely on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    ring: Vec<Point2>,
}

impl Polygon {
    /// Creates a polygon from a ring of at least three vertices.
    ///
    /// A trailing vertex equal to the first is dropped. The ring is
    /// reversed if it was clockwise, so its signed area is always
    /// non-negative for valid input.
    pub fn new(mut ring: Vec<Point2>) -> Result<Self, GeoError> {
        if ring.len() >= 2 && ring.first() == ring.last() {
            ring.pop();
        }
        if ring.len() < 3 {
            return Err(GeoError::InsufficientPoints {
                needed: 3,
                got: ring.len(),
            });
        }
        let poly = Self { ring };
        if poly.raw_signed_area() < 0.0 {
            let mut r = poly.ring;
            r.reverse();
            Ok(Self { ring: r })
        } else {
            Ok(poly)
        }
    }

    /// A regular polygon with `n` vertices approximating a circle.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `radius <= 0`.
    pub fn regular(center: Point2, radius: f64, n: usize) -> Polygon {
        assert!(n >= 3 && radius > 0.0);
        let ring = (0..n)
            .map(|i| {
                let a = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                center + Point2::new(a.cos(), a.sin()) * radius
            })
            .collect();
        Polygon { ring }
    }

    /// The vertices of the ring (counter-clockwise, no closing repeat).
    pub fn ring(&self) -> &[Point2] {
        &self.ring
    }

    /// Signed area via the shoelace formula (non-negative after
    /// normalization).
    pub(crate) fn signed_area(&self) -> f64 {
        self.raw_signed_area()
    }

    fn raw_signed_area(&self) -> f64 {
        let n = self.ring.len();
        let mut acc = 0.0;
        for i in 0..n {
            let a = self.ring[i];
            let b = self.ring[(i + 1) % n];
            acc += a.cross(b);
        }
        acc / 2.0
    }

    /// Area in square meters.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Perimeter length.
    pub fn perimeter(&self) -> f64 {
        let n = self.ring.len();
        (0..n)
            .map(|i| self.ring[i].distance(self.ring[(i + 1) % n]))
            .sum()
    }

    /// Area centroid of the polygon.
    pub fn centroid(&self) -> Point2 {
        let n = self.ring.len();
        let a = self.signed_area();
        if a.abs() < 1e-12 {
            // Degenerate: fall back to vertex average.
            let sum = self.ring.iter().fold(Point2::ZERO, |acc, &p| acc + p);
            return sum / n as f64;
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.ring[i];
            let q = self.ring[(i + 1) % n];
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Point2::new(cx / (6.0 * a), cy / (6.0 * a))
    }

    /// Whether `p` is inside the polygon (boundary counts as inside).
    ///
    /// Uses the winding-independent crossing-number test with an explicit
    /// on-boundary check so edge and vertex hits are deterministic.
    pub fn contains(&self, p: Point2) -> bool {
        let n = self.ring.len();
        // Boundary check first.
        for i in 0..n {
            let a = self.ring[i];
            let b = self.ring[(i + 1) % n];
            if point_on_segment(p, a, b, 1e-9) {
                return true;
            }
        }
        let mut inside = false;
        for i in 0..n {
            let a = self.ring[i];
            let b = self.ring[(i + 1) % n];
            if (a.y > p.y) != (b.y > p.y) {
                let x_int = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if p.x < x_int {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Distance from `p` to the polygon boundary (zero if on it).
    pub(crate) fn boundary_distance(&self, p: Point2) -> f64 {
        let n = self.ring.len();
        let mut best = f64::INFINITY;
        for i in 0..n {
            let a = self.ring[i];
            let b = self.ring[(i + 1) % n];
            best = best.min(segment_distance(p, a, b));
        }
        best
    }

    /// Signed distance: negative inside, positive outside.
    pub fn signed_distance(&self, p: Point2) -> f64 {
        let d = self.boundary_distance(p);
        if self.contains(p) {
            -d
        } else {
            d
        }
    }

    /// Axis-aligned bounds as `(min, max)` corners.
    pub fn bounds(&self) -> (Point2, Point2) {
        let mut min = self.ring[0];
        let mut max = self.ring[0];
        for &p in &self.ring {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        (min, max)
    }

    /// A polygon offset outward by `margin` (approximate: vertices pushed
    /// along their angle bisectors). Suitable for the fuzzy-boundary
    /// padding the discovery layer needs, not for exact offsetting.
    pub fn inflated(&self, margin: f64) -> Polygon {
        let c = self.centroid();
        let ring = self
            .ring
            .iter()
            .map(|&p| {
                let dir = (p - c).normalized().unwrap_or(Point2::new(1.0, 0.0));
                p + dir * margin
            })
            .collect::<Vec<_>>();
        // Inflation from centroid preserves orientation for star-shaped
        // rings, which is all worldgen produces.
        Polygon { ring }
    }
}

/// Whether `p` lies on segment `ab` within tolerance `eps`.
fn point_on_segment(p: Point2, a: Point2, b: Point2, eps: f64) -> bool {
    segment_distance(p, a, b) < eps
}

/// Distance from point `p` to segment `ab`.
pub fn segment_distance(p: Point2, a: Point2, b: Point2) -> f64 {
    let ab = b - a;
    let len_sq = ab.dot(ab);
    if len_sq < 1e-24 {
        return p.distance(a);
    }
    let t = ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0);
    p.distance(a.lerp(b, t))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn new_requires_three_vertices() {
        assert!(Polygon::new(vec![Point2::ZERO, Point2::new(1.0, 0.0)]).is_err());
        // Closing repeat is dropped, then too few remain.
        assert!(Polygon::new(vec![Point2::ZERO, Point2::new(1.0, 0.0), Point2::ZERO]).is_err());
    }

    #[test]
    fn orientation_normalized_to_ccw() {
        let cw = Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.0, 1.0),
            Point2::new(1.0, 1.0),
            Point2::new(1.0, 0.0),
        ])
        .unwrap();
        assert!(cw.signed_area() > 0.0);
    }

    #[test]
    fn area_and_perimeter_of_square() {
        let s = unit_square();
        assert!((s.area() - 1.0).abs() < 1e-12);
        assert!((s.perimeter() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_square() {
        let c = unit_square().centroid();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contains_interior_boundary_exterior() {
        let s = unit_square();
        assert!(s.contains(Point2::new(0.5, 0.5)));
        assert!(s.contains(Point2::new(0.0, 0.5)), "edge is inside");
        assert!(s.contains(Point2::new(1.0, 1.0)), "vertex is inside");
        assert!(!s.contains(Point2::new(1.5, 0.5)));
        assert!(!s.contains(Point2::new(-0.001, 0.5)));
    }

    #[test]
    fn contains_concave_polygon() {
        // A "U" shape: point in the notch is outside.
        let u = Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(3.0, 0.0),
            Point2::new(3.0, 3.0),
            Point2::new(2.0, 3.0),
            Point2::new(2.0, 1.0),
            Point2::new(1.0, 1.0),
            Point2::new(1.0, 3.0),
            Point2::new(0.0, 3.0),
        ])
        .unwrap();
        assert!(u.contains(Point2::new(0.5, 2.0)));
        assert!(u.contains(Point2::new(2.5, 2.0)));
        assert!(!u.contains(Point2::new(1.5, 2.0)), "notch is outside");
        assert!(u.contains(Point2::new(1.5, 0.5)), "base is inside");
    }

    #[test]
    fn signed_distance_sign() {
        let s = unit_square();
        assert!(s.signed_distance(Point2::new(0.5, 0.5)) < 0.0);
        assert!(s.signed_distance(Point2::new(2.0, 0.5)) > 0.0);
        assert!((s.signed_distance(Point2::new(2.0, 0.5)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regular_polygon_approximates_circle() {
        let c = Polygon::regular(Point2::new(5.0, 5.0), 2.0, 64);
        let expected = std::f64::consts::PI * 4.0;
        assert!((c.area() - expected).abs() / expected < 0.01);
        let cent = c.centroid();
        assert!((cent.x - 5.0).abs() < 1e-9 && (cent.y - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_cover_ring() {
        let p = Polygon::regular(Point2::new(1.0, 2.0), 3.0, 12);
        let (min, max) = p.bounds();
        for &v in p.ring() {
            assert!(v.x >= min.x && v.x <= max.x && v.y >= min.y && v.y <= max.y);
        }
    }

    #[test]
    fn inflated_grows_area() {
        let s = unit_square();
        let big = s.inflated(0.5);
        assert!(big.area() > s.area());
        assert!(big.contains(Point2::new(-0.2, 0.5)) || big.area() > 2.0);
    }

    #[test]
    fn segment_distance_cases() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(10.0, 0.0);
        assert!((segment_distance(Point2::new(5.0, 3.0), a, b) - 3.0).abs() < 1e-12);
        assert!((segment_distance(Point2::new(-3.0, 4.0), a, b) - 5.0).abs() < 1e-12);
        assert!((segment_distance(Point2::new(13.0, 4.0), a, b) - 5.0).abs() < 1e-12);
        // Degenerate segment.
        assert!((segment_distance(Point2::new(3.0, 4.0), a, a) - 5.0).abs() < 1e-12);
    }
}
