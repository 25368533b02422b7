//! Planar affine transforms and least-squares fitting from point
//! correspondences.
//!
//! This is the workspace's implementation of the MapCruncher-style
//! alignment the paper proposes for stitching maps in different
//! coordinate frames (paper §5.2): given a handful of manually matched points
//! between two frames, fit the transform that best aligns them.

use crate::{GeoError, Point2};

/// A 2-D affine transform `q = A·p + t` stored as
/// `[a, b, c, d, tx, ty]` meaning `qx = a·px + b·py + tx`,
/// `qy = c·px + d·py + ty`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Affine2 {
    /// Row-major linear part and translation: `[a, b, c, d, tx, ty]`.
    pub m: [f64; 6],
}

impl Affine2 {
    /// The identity transform.
    pub(crate) const IDENTITY: Affine2 = Affine2 {
        m: [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    };

    /// A pure translation.
    pub fn translation(t: Point2) -> Affine2 {
        Affine2 {
            m: [1.0, 0.0, 0.0, 1.0, t.x, t.y],
        }
    }

    /// A rotation by `angle_rad` counter-clockwise about the origin.
    pub fn rotation(angle_rad: f64) -> Affine2 {
        let (s, c) = angle_rad.sin_cos();
        Affine2 {
            m: [c, -s, s, c, 0.0, 0.0],
        }
    }

    /// A uniform scale about the origin.
    pub fn scale(factor: f64) -> Affine2 {
        Affine2 {
            m: [factor, 0.0, 0.0, factor, 0.0, 0.0],
        }
    }

    /// A similarity transform: rotate by `angle_rad`, scale by `s`, then
    /// translate by `t`.
    pub fn similarity(angle_rad: f64, s: f64, t: Point2) -> Affine2 {
        let (sin, cos) = angle_rad.sin_cos();
        Affine2 {
            m: [s * cos, -s * sin, s * sin, s * cos, t.x, t.y],
        }
    }

    /// Applies the transform to a point.
    pub fn apply(&self, p: Point2) -> Point2 {
        let [a, b, c, d, tx, ty] = self.m;
        Point2::new(a * p.x + b * p.y + tx, c * p.x + d * p.y + ty)
    }

    /// Composition: `self ∘ other`, i.e. apply `other` first.
    pub fn compose(&self, other: &Affine2) -> Affine2 {
        let [a1, b1, c1, d1, tx1, ty1] = self.m;
        let [a2, b2, c2, d2, tx2, ty2] = other.m;
        Affine2 {
            m: [
                a1 * a2 + b1 * c2,
                a1 * b2 + b1 * d2,
                c1 * a2 + d1 * c2,
                c1 * b2 + d1 * d2,
                a1 * tx2 + b1 * ty2 + tx1,
                c1 * tx2 + d1 * ty2 + ty1,
            ],
        }
    }

    /// The inverse transform, or an error if the linear part is singular.
    pub fn inverse(&self) -> Result<Affine2, GeoError> {
        let [a, b, c, d, tx, ty] = self.m;
        let det = a * d - b * c;
        if det.abs() < 1e-15 {
            return Err(GeoError::DegenerateFit("singular affine transform".into()));
        }
        let (ia, ib, ic, id) = (d / det, -b / det, -c / det, a / det);
        Ok(Affine2 {
            m: [ia, ib, ic, id, -(ia * tx + ib * ty), -(ic * tx + id * ty)],
        })
    }

    /// Fits a similarity transform (rotation + uniform scale +
    /// translation) minimizing the squared correspondence error. Needs at
    /// least two distinct correspondences.
    ///
    /// This is the right model when both frames are metric but one is
    /// rotated/offset — the common case for indoor maps surveyed in their
    /// own local frame (paper §3).
    pub fn fit_similarity(pairs: &[(Point2, Point2)]) -> Result<Affine2, GeoError> {
        if pairs.len() < 2 {
            return Err(GeoError::InsufficientPoints {
                needed: 2,
                got: pairs.len(),
            });
        }
        // Closed-form linear least squares over parameters (a, b, tx, ty)
        // with the transform [[a, -b], [b, a]].
        let n = pairs.len() as f64;
        let (mut sx, mut sy, mut dx, mut dy) = (0.0, 0.0, 0.0, 0.0);
        for (s, d) in pairs {
            sx += s.x;
            sy += s.y;
            dx += d.x;
            dy += d.y;
        }
        let (msx, msy, mdx, mdy) = (sx / n, sy / n, dx / n, dy / n);
        let (mut num_a, mut num_b, mut den) = (0.0, 0.0, 0.0);
        for (s, d) in pairs {
            let (ux, uy) = (s.x - msx, s.y - msy);
            let (vx, vy) = (d.x - mdx, d.y - mdy);
            num_a += ux * vx + uy * vy;
            num_b += ux * vy - uy * vx;
            den += ux * ux + uy * uy;
        }
        if den < 1e-18 {
            return Err(GeoError::DegenerateFit(
                "all source correspondence points coincide".into(),
            ));
        }
        let a = num_a / den;
        let b = num_b / den;
        let tx = mdx - a * msx + b * msy;
        let ty = mdy - b * msx - a * msy;
        Ok(Affine2 {
            m: [a, -b, b, a, tx, ty],
        })
    }

    /// Root-mean-square residual of the transform over correspondences.
    pub fn rms_error(&self, pairs: &[(Point2, Point2)]) -> f64 {
        if pairs.is_empty() {
            return 0.0;
        }
        let sum: f64 = pairs
            .iter()
            .map(|(s, d)| self.apply(*s).distance_sq(*d))
            .sum();
        (sum / pairs.len() as f64).sqrt()
    }

    /// The rotation angle (radians) implied by the linear part, assuming
    /// a similarity transform.
    pub fn rotation_angle(&self) -> f64 {
        self.m[2].atan2(self.m[0])
    }

    /// The uniform scale implied by the linear part, assuming a
    /// similarity transform.
    pub fn uniform_scale(&self) -> f64 {
        (self.m[0].hypot(self.m[2]) + self.m[1].hypot(self.m[3])) / 2.0
    }
}

impl Default for Affine2 {
    fn default() -> Self {
        Affine2::IDENTITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Point2, b: Point2, eps: f64) -> bool {
        a.distance(b) < eps
    }

    #[test]
    fn identity_is_noop() {
        let p = Point2::new(3.0, -4.0);
        assert_eq!(Affine2::IDENTITY.apply(p), p);
    }

    #[test]
    fn translation_rotation_scale() {
        let p = Point2::new(1.0, 0.0);
        assert!(close(
            Affine2::translation(Point2::new(2.0, 3.0)).apply(p),
            Point2::new(3.0, 3.0),
            1e-12
        ));
        assert!(close(
            Affine2::rotation(std::f64::consts::FRAC_PI_2).apply(p),
            Point2::new(0.0, 1.0),
            1e-12
        ));
        assert!(close(
            Affine2::scale(2.5).apply(p),
            Point2::new(2.5, 0.0),
            1e-12
        ));
    }

    #[test]
    fn compose_order() {
        // compose applies `other` first: translate then rotate.
        let t = Affine2::translation(Point2::new(1.0, 0.0));
        let r = Affine2::rotation(std::f64::consts::FRAC_PI_2);
        let rt = r.compose(&t);
        let p = rt.apply(Point2::ZERO);
        assert!(close(p, Point2::new(0.0, 1.0), 1e-12), "{p}");
        let tr = t.compose(&r);
        assert!(close(tr.apply(Point2::ZERO), Point2::new(1.0, 0.0), 1e-12));
    }

    #[test]
    fn inverse_round_trips() {
        let m = Affine2::similarity(0.7, 1.8, Point2::new(-4.0, 9.0));
        let inv = m.inverse().unwrap();
        for &(x, y) in &[(0.0, 0.0), (10.0, -3.0), (-7.5, 2.25)] {
            let p = Point2::new(x, y);
            assert!(close(inv.apply(m.apply(p)), p, 1e-9));
        }
    }

    #[test]
    fn inverse_rejects_singular() {
        let degenerate = Affine2 {
            m: [1.0, 2.0, 2.0, 4.0, 0.0, 0.0],
        };
        assert!(degenerate.inverse().is_err());
    }

    #[test]
    fn fit_similarity_recovers_exact_transform() {
        let truth = Affine2::similarity(0.35, 1.25, Point2::new(12.0, -7.0));
        let srcs = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(3.0, 8.0),
            Point2::new(-5.0, 4.0),
        ];
        let pairs: Vec<_> = srcs.iter().map(|&s| (s, truth.apply(s))).collect();
        let fit = Affine2::fit_similarity(&pairs).unwrap();
        assert!(fit.rms_error(&pairs) < 1e-9);
        assert!((fit.rotation_angle() - 0.35).abs() < 1e-9);
        assert!((fit.uniform_scale() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn fit_similarity_with_two_points() {
        let truth = Affine2::similarity(-0.5, 2.0, Point2::new(1.0, 1.0));
        let pairs = vec![
            (Point2::new(0.0, 0.0), truth.apply(Point2::new(0.0, 0.0))),
            (Point2::new(4.0, 0.0), truth.apply(Point2::new(4.0, 0.0))),
        ];
        let fit = Affine2::fit_similarity(&pairs).unwrap();
        assert!(fit.rms_error(&pairs) < 1e-9);
    }

    #[test]
    fn fit_similarity_rejects_degenerate() {
        assert!(Affine2::fit_similarity(&[]).is_err());
        let same = Point2::new(1.0, 1.0);
        assert!(Affine2::fit_similarity(&[(same, Point2::ZERO), (same, Point2::ZERO)]).is_err());
    }

    #[test]
    fn noisy_fit_reduces_error_with_more_points() {
        // With symmetric noise, more correspondences give a better fit
        // (paper §5.2's manual correspondences).
        let truth = Affine2::similarity(0.2, 1.0, Point2::new(3.0, 3.0));
        let noise = [0.5, -0.5, 0.3, -0.3, 0.2, -0.2, 0.1, -0.1];
        let mk_pairs = |n: usize| -> Vec<(Point2, Point2)> {
            (0..n)
                .map(|i| {
                    let s = Point2::new((i as f64 * 7.3) % 50.0, (i as f64 * 13.7) % 50.0);
                    let d = truth.apply(s) + Point2::new(noise[i % 8], noise[(i + 3) % 8]);
                    (s, d)
                })
                .collect()
        };
        let exact: Vec<(Point2, Point2)> = (0..32)
            .map(|i| {
                let s = Point2::new((i as f64 * 7.3) % 50.0, (i as f64 * 13.7) % 50.0);
                (s, truth.apply(s))
            })
            .collect();
        let fit4 = Affine2::fit_similarity(&mk_pairs(4)).unwrap();
        let fit24 = Affine2::fit_similarity(&mk_pairs(24)).unwrap();
        assert!(fit24.rms_error(&exact) <= fit4.rms_error(&exact) + 1e-9);
    }
}
