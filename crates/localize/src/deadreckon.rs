//! IMU-style dead reckoning with drift.

use crate::gnss::normal_sample;
use openflame_geo::Point2;
use rand::Rng;

/// Simulates inertial odometry: true motion deltas are observed with
/// per-step noise and a slowly accumulating heading bias, producing the
/// characteristic unbounded drift that makes pure dead reckoning
/// unusable alone — and fusion necessary (paper §5.2: the client compares
/// server results "with its own IMU sensors").
#[derive(Debug, Clone)]
pub struct DeadReckoner {
    /// Per-step relative distance noise (fraction of step length).
    pub step_noise_frac: f64,
    /// Per-step heading random walk, radians.
    pub heading_noise_rad: f64,
    heading_bias: f64,
    integrated: Point2,
}

impl DeadReckoner {
    /// Creates a reckoner with typical pedestrian-IMU noise.
    pub fn new() -> Self {
        Self {
            step_noise_frac: 0.05,
            heading_noise_rad: 0.01,
            heading_bias: 0.0,
            integrated: Point2::ZERO,
        }
    }

    /// Observes a true motion delta and returns the *measured* delta.
    pub fn observe<R: Rng>(&mut self, rng: &mut R, true_delta: Point2) -> Point2 {
        self.heading_bias += normal_sample(rng, 0.0, self.heading_noise_rad);
        let len = true_delta.norm();
        let noisy_len = len * (1.0 + normal_sample(rng, 0.0, self.step_noise_frac));
        let measured = if len < 1e-12 {
            Point2::ZERO
        } else {
            (true_delta / len).rotated(self.heading_bias) * noisy_len
        };
        self.integrated = self.integrated + measured;
        measured
    }

    /// Resets integration (e.g. after an absolute fix).
    pub fn reset(&mut self, to: Point2) {
        self.integrated = to;
    }
}

impl Default for DeadReckoner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn short_distances_track_well() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut dr = DeadReckoner::new();
        let mut truth = Point2::ZERO;
        for _ in 0..10 {
            let delta = Point2::new(1.0, 0.0);
            truth = truth + delta;
            dr.observe(&mut rng, delta);
        }
        assert!(
            dr.integrated.distance(truth) < 1.0,
            "10 m walk should drift < 1 m"
        );
    }

    #[test]
    fn drift_grows_with_distance() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut dr = DeadReckoner::new();
        let mut truth = Point2::ZERO;
        let mut err_at_100: f64 = 0.0;
        let mut err_at_1000: f64 = 0.0;
        for i in 0..1000 {
            let delta = Point2::new(1.0, 0.0);
            truth = truth + delta;
            dr.observe(&mut rng, delta);
            if i == 99 {
                err_at_100 = dr.integrated.distance(truth);
            }
        }
        err_at_1000 = err_at_1000.max(dr.integrated.distance(truth));
        assert!(
            err_at_1000 > err_at_100,
            "drift must accumulate: {err_at_100} -> {err_at_1000}"
        );
    }

    #[test]
    fn reset_clears_integration() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut dr = DeadReckoner::new();
        dr.observe(&mut rng, Point2::new(5.0, 5.0));
        dr.reset(Point2::new(1.0, 1.0));
        assert_eq!(dr.integrated, Point2::new(1.0, 1.0));
    }

    #[test]
    fn zero_motion_stays_put() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut dr = DeadReckoner::new();
        for _ in 0..100 {
            dr.observe(&mut rng, Point2::ZERO);
        }
        assert_eq!(dr.integrated, Point2::ZERO);
    }
}
