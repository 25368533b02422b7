//! Client-side fusion: a particle filter over odometry plus server
//! estimates.

use crate::cues::Estimate;
use crate::gnss::normal_sample;
use openflame_geo::Point2;
use rand::Rng;

/// A bootstrap particle filter tracking 2-D position.
///
/// Motion updates come from (noisy) odometry deltas; measurement
/// updates from absolute [`Estimate`]s. The posterior mean is the fused
/// position.
#[derive(Debug, Clone)]
pub struct ParticleFilter {
    particles: Vec<Point2>,
    weights: Vec<f64>,
}

impl ParticleFilter {
    /// Initializes `n` particles around `start` with `spread_m` sigma.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new<R: Rng>(rng: &mut R, n: usize, start: Point2, spread_m: f64) -> Self {
        assert!(n > 0);
        let particles = (0..n)
            .map(|_| {
                start
                    + Point2::new(
                        normal_sample(rng, 0.0, spread_m),
                        normal_sample(rng, 0.0, spread_m),
                    )
            })
            .collect();
        Self {
            particles,
            weights: vec![1.0 / n as f64; n],
        }
    }

    /// Motion update: shift every particle by `delta` plus process
    /// noise.
    pub fn predict<R: Rng>(&mut self, rng: &mut R, delta: Point2, noise_m: f64) {
        for p in &mut self.particles {
            *p = *p
                + delta
                + Point2::new(
                    normal_sample(rng, 0.0, noise_m),
                    normal_sample(rng, 0.0, noise_m),
                );
        }
    }

    /// Measurement update: reweight particles by the likelihood of the
    /// absolute estimate, then resample systematically.
    pub fn update<R: Rng>(&mut self, rng: &mut R, estimate: &Estimate) {
        let sigma = estimate.error_m.max(0.25);
        let inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);
        let mut total = 0.0;
        let mut best_likelihood: f64 = 0.0;
        for (p, w) in self.particles.iter().zip(self.weights.iter_mut()) {
            let d2 = p.distance_sq(estimate.pos);
            let likelihood = (-d2 * inv_two_sigma_sq).exp();
            best_likelihood = best_likelihood.max(likelihood);
            *w *= likelihood + 1e-300;
            total += *w;
        }
        if total <= 0.0 || !total.is_finite() || best_likelihood < 1e-9 {
            // The measurement is far outside the particle cloud (filter
            // divergence or a teleport): reinitialize at the measurement.
            let n = self.particles.len();
            *self = ParticleFilter::new(rng, n, estimate.pos, sigma);
            return;
        }
        for w in &mut self.weights {
            *w /= total;
        }
        self.resample(rng);
    }

    /// Systematic resampling to uniform weights.
    fn resample<R: Rng>(&mut self, rng: &mut R) {
        let n = self.particles.len();
        let step = 1.0 / n as f64;
        let mut u: f64 = rng.gen::<f64>() * step;
        let mut cumulative = self.weights[0];
        let mut i = 0usize;
        let mut new_particles = Vec::with_capacity(n);
        for _ in 0..n {
            while u > cumulative && i + 1 < n {
                i += 1;
                cumulative += self.weights[i];
            }
            new_particles.push(self.particles[i]);
            u += step;
        }
        self.particles = new_particles;
        self.weights = vec![step; n];
    }

    /// Posterior mean position.
    pub fn mean(&self) -> Point2 {
        let mut acc = Point2::ZERO;
        for (p, w) in self.particles.iter().zip(&self.weights) {
            acc = acc + *p * *w;
        }
        acc
    }

    /// Root-mean-square spread around the mean (uncertainty proxy).
    pub fn spread(&self) -> f64 {
        let m = self.mean();
        let var: f64 = self
            .particles
            .iter()
            .zip(&self.weights)
            .map(|(p, w)| w * p.distance_sq(m))
            .sum();
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn est(x: f64, y: f64, err: f64) -> Estimate {
        Estimate {
            pos: Point2::new(x, y),
            error_m: err,
            technology: "test".into(),
        }
    }

    #[test]
    fn converges_to_repeated_measurements() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut pf = ParticleFilter::new(&mut rng, 500, Point2::ZERO, 20.0);
        for _ in 0..10 {
            pf.predict(&mut rng, Point2::ZERO, 0.2);
            pf.update(&mut rng, &est(10.0, -5.0, 2.0));
        }
        assert!(pf.mean().distance(Point2::new(10.0, -5.0)) < 1.0);
        assert!(pf.spread() < 3.0);
    }

    #[test]
    fn tracks_motion_between_measurements() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut pf = ParticleFilter::new(&mut rng, 500, Point2::ZERO, 1.0);
        let mut truth = Point2::ZERO;
        for step in 0..30 {
            let delta = Point2::new(1.0, 0.5);
            truth = truth + delta;
            pf.predict(&mut rng, delta, 0.3);
            // Sparse absolute fixes every 5 steps.
            if step % 5 == 0 {
                pf.update(&mut rng, &est(truth.x, truth.y, 3.0));
            }
        }
        assert!(
            pf.mean().distance(truth) < 3.0,
            "err {}",
            pf.mean().distance(truth)
        );
    }

    #[test]
    fn fusion_beats_pure_odometry() {
        // Biased odometry drifts; fused with periodic fixes it must not.
        let mut rng = StdRng::seed_from_u64(22);
        let mut pf = ParticleFilter::new(&mut rng, 400, Point2::ZERO, 1.0);
        let mut truth = Point2::ZERO;
        let mut odom_only = Point2::ZERO;
        for step in 0..100 {
            let delta = Point2::new(1.0, 0.0);
            truth = truth + delta;
            // Odometry with a 2% scale bias and heading skew.
            let measured = Point2::new(1.02, 0.02);
            odom_only = odom_only + measured;
            pf.predict(&mut rng, measured, 0.2);
            if step % 10 == 9 {
                pf.update(&mut rng, &est(truth.x, truth.y, 2.0));
            }
        }
        let fused_err = pf.mean().distance(truth);
        let odom_err = odom_only.distance(truth);
        assert!(
            fused_err < odom_err / 2.0,
            "fused {fused_err} odom {odom_err}"
        );
    }

    #[test]
    fn degenerate_weights_reinitialize() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut pf = ParticleFilter::new(&mut rng, 100, Point2::ZERO, 0.5);
        // A measurement 1 km away zeroes all weights numerically.
        pf.update(&mut rng, &est(1000.0, 1000.0, 1.0));
        assert!(pf.mean().distance(Point2::new(1000.0, 1000.0)) < 5.0);
    }

    #[test]
    #[should_panic]
    fn zero_particles_panics() {
        let mut rng = StdRng::seed_from_u64(25);
        let _ = ParticleFilter::new(&mut rng, 0, Point2::ZERO, 1.0);
    }
}
