//! Planar polylines: length, projection, simplification.

use crate::{GeoError, Point2};

/// An ordered sequence of planar points describing an open path.
///
/// Used for road centerlines, walls, navigation paths, and GPS traces in
/// local metric coordinates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polyline {
    points: Vec<Point2>,
}

/// The result of projecting a point onto a polyline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// The closest point on the polyline.
    pub point: Point2,
    /// Index of the segment `[i, i+1]` containing the closest point.
    pub segment: usize,
    /// Parameter in `[0, 1]` along that segment.
    pub t: f64,
    /// Distance from the query point to `point`.
    pub distance: f64,
    /// Arc length from the start of the polyline to `point`.
    pub along: f64,
}

impl Polyline {
    /// Creates a polyline; requires at least two points.
    pub fn new(points: Vec<Point2>) -> Result<Self, GeoError> {
        if points.len() < 2 {
            return Err(GeoError::InsufficientPoints {
                needed: 2,
                got: points.len(),
            });
        }
        Ok(Self { points })
    }

    /// The vertices of the polyline.
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the polyline has no vertices (never true for constructed
    /// values; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total arc length.
    pub fn length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// Projects `p` onto the polyline, returning the closest point and
    /// where it lies.
    pub fn project(&self, p: Point2) -> Projection {
        let mut best = Projection {
            point: self.points[0],
            segment: 0,
            t: 0.0,
            distance: p.distance(self.points[0]),
            along: 0.0,
        };
        let mut along_start = 0.0;
        for (i, w) in self.points.windows(2).enumerate() {
            let (a, b) = (w[0], w[1]);
            let ab = b - a;
            let seg_len_sq = ab.dot(ab);
            let t = if seg_len_sq < 1e-24 {
                0.0
            } else {
                ((p - a).dot(ab) / seg_len_sq).clamp(0.0, 1.0)
            };
            let q = a.lerp(b, t);
            let d = p.distance(q);
            if d < best.distance {
                best = Projection {
                    point: q,
                    segment: i,
                    t,
                    distance: d,
                    along: along_start + a.distance(q),
                };
            }
            along_start += a.distance(b);
        }
        best
    }

    /// Ramer-Douglas-Peucker simplification with tolerance `epsilon`.
    ///
    /// Returns a new polyline containing a subset of the original
    /// vertices whose maximum deviation from the original is at most
    /// `epsilon`.
    pub fn simplified(&self, epsilon: f64) -> Polyline {
        let mut keep = vec![false; self.points.len()];
        keep[0] = true;
        *keep.last_mut().expect("non-empty") = true;
        rdp_mark(&self.points, 0, self.points.len() - 1, epsilon, &mut keep);
        let points: Vec<Point2> = self
            .points
            .iter()
            .zip(keep.iter())
            .filter_map(|(p, &k)| if k { Some(*p) } else { None })
            .collect();
        Polyline { points }
    }
}

/// Marks vertices to keep for RDP between `lo` and `hi` (exclusive ends
/// already marked).
///
/// Uses distance to the *segment* (not the infinite line), which gives
/// the stronger guarantee that every dropped vertex is within `epsilon`
/// of the simplified polyline itself.
fn rdp_mark(points: &[Point2], lo: usize, hi: usize, epsilon: f64, keep: &mut [bool]) {
    if hi <= lo + 1 {
        return;
    }
    let (a, b) = (points[lo], points[hi]);
    let mut max_d = -1.0;
    let mut max_i = lo;
    for (i, &p) in points.iter().enumerate().take(hi).skip(lo + 1) {
        let d = crate::polygon::segment_distance(p, a, b);
        if d > max_d {
            max_d = d;
            max_i = i;
        }
    }
    if max_d > epsilon {
        keep[max_i] = true;
        rdp_mark(points, lo, max_i, epsilon, keep);
        rdp_mark(points, max_i, hi, epsilon, keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        Polyline::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(10.0, 10.0),
        ])
        .unwrap()
    }

    #[test]
    fn new_requires_two_points() {
        assert!(Polyline::new(vec![]).is_err());
        assert!(Polyline::new(vec![Point2::ZERO]).is_err());
        assert!(Polyline::new(vec![Point2::ZERO, Point2::new(1.0, 0.0)]).is_ok());
    }

    #[test]
    fn length_of_l_shape() {
        assert!((l_shape().length() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn project_onto_interior() {
        let l = l_shape();
        let pr = l.project(Point2::new(5.0, 3.0));
        assert_eq!(pr.segment, 0);
        assert!((pr.point.x - 5.0).abs() < 1e-12 && pr.point.y.abs() < 1e-12);
        assert!((pr.distance - 3.0).abs() < 1e-12);
        assert!((pr.along - 5.0).abs() < 1e-12);
    }

    #[test]
    fn project_clamps_to_endpoints() {
        let l = l_shape();
        let pr = l.project(Point2::new(-4.0, -3.0));
        assert_eq!(pr.point, Point2::new(0.0, 0.0));
        assert!((pr.distance - 5.0).abs() < 1e-12);
        let pr2 = l.project(Point2::new(13.0, 14.0));
        assert_eq!(pr2.point, Point2::new(10.0, 10.0));
        assert!((pr2.distance - 5.0).abs() < 1e-12);
    }

    #[test]
    fn project_picks_nearest_segment() {
        let l = l_shape();
        let pr = l.project(Point2::new(9.0, 8.0));
        assert_eq!(pr.segment, 1);
        assert!((pr.along - (10.0 + 8.0)).abs() < 1e-9);
    }

    #[test]
    fn simplify_removes_collinear_points() {
        let l = Polyline::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.001),
            Point2::new(2.0, -0.001),
            Point2::new(3.0, 0.0),
        ])
        .unwrap();
        let s = l.simplified(0.01);
        assert_eq!(s.len(), 2);
        assert_eq!(s.points()[0], Point2::new(0.0, 0.0));
        assert_eq!(s.points()[1], Point2::new(3.0, 0.0));
    }

    #[test]
    fn simplify_keeps_corners() {
        let s = l_shape().simplified(0.5);
        assert_eq!(s.len(), 3, "the right-angle corner must survive");
    }
}
