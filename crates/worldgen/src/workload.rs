//! Workloads: Zipf query locality, walk traces, and the Poisson
//! arrival process behind open-loop load.

use crate::World;
use openflame_geo::{LatLng, Point2};
use rand::Rng;

/// A Zipf-distributed sampler over `n` items with exponent `s`.
///
/// Models query locality: a few popular places attract most queries.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Creates a sampler over ranks `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0 && s >= 0.0);
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Samples a rank in `0..n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// One sample along a walk trace.
#[derive(Debug, Clone)]
pub struct WalkSample {
    /// Ground-truth geographic position.
    pub geo: LatLng,
    /// Ground-truth position in the city ENU frame.
    pub enu: Point2,
    /// Whether the walker is indoors at this sample.
    pub indoors: bool,
    /// If indoors, the venue index and position in its frame.
    pub venue_local: Option<(usize, Point2)>,
}

/// A ground-truth outdoor→indoor walk trace for scoring localization.
#[derive(Debug, Clone)]
pub struct WalkTrace {
    /// Samples at uniform 1 m spacing.
    pub samples: Vec<WalkSample>,
}

impl WalkTrace {
    /// Generates a walk that starts on the street near venue
    /// `venue_idx`'s entrance, approaches it, enters, and walks the
    /// south corridor to the back of the first aisle.
    pub fn into_venue(world: &World, venue_idx: usize, approach_m: f64) -> WalkTrace {
        let venue = &world.venues[venue_idx];
        let frame = world.city_frame();
        let entrance_local = venue
            .map
            .node(venue.entrance_local)
            .expect("entrance exists")
            .pos;
        let entrance_enu = venue.true_transform.apply(entrance_local);
        // Outdoor approach: a straight street-side walk to the entrance.
        let start_enu = entrance_enu + Point2::new(-approach_m, -approach_m * 0.3);
        let mut samples = Vec::new();
        let outdoor_len = start_enu.distance(entrance_enu);
        let n_out = outdoor_len.ceil() as usize;
        for i in 0..n_out {
            let t = i as f64 / n_out as f64;
            let enu = start_enu.lerp(entrance_enu, t);
            samples.push(WalkSample {
                geo: frame.from_local(enu),
                enu,
                indoors: false,
                venue_local: None,
            });
        }
        // Indoor leg: entrance → along the corridor → up an aisle.
        let inside_waypoints = [
            entrance_local,
            entrance_local + Point2::new(0.0, 2.0),
            entrance_local + Point2::new(-8.0, 2.0),
            entrance_local + Point2::new(-8.0, 12.0),
        ];
        for leg in inside_waypoints.windows(2) {
            let len = leg[0].distance(leg[1]).ceil() as usize;
            for i in 0..len.max(1) {
                let t = i as f64 / len.max(1) as f64;
                let local = leg[0].lerp(leg[1], t);
                let enu = venue.true_transform.apply(local);
                samples.push(WalkSample {
                    geo: frame.from_local(enu),
                    enu,
                    indoors: true,
                    venue_local: Some((venue_idx, local)),
                });
            }
        }
        WalkTrace { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Ground-truth motion deltas between consecutive samples (ENU).
    pub fn deltas(&self) -> Vec<Point2> {
        self.samples
            .windows(2)
            .map(|w| w[1].enu - w[0].enu)
            .collect()
    }
}

// --------------------------------------------------------------------
// Open-loop arrivals.
// --------------------------------------------------------------------

/// A Poisson arrival process at a fixed aggregate rate: inter-arrival
/// gaps are exponentially distributed, which is what makes the load
/// harness **open-loop** — arrivals keep coming at the offered rate
/// whether or not the system under test keeps up, so queueing delay
/// shows up in the measured latency instead of silently throttling the
/// generator (the coordinated-omission trap of closed-loop drivers).
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    mean_gap_us: f64,
}

impl PoissonArrivals {
    /// An arrival process offering `rate_per_sec` operations per
    /// second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not finite and positive.
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec.is_finite() && rate_per_sec > 0.0);
        Self {
            mean_gap_us: 1_000_000.0 / rate_per_sec,
        }
    }

    /// Samples the gap to the next arrival, microseconds (≥ 1: two
    /// arrivals never share an instant, keeping traces strictly
    /// ordered).
    pub fn next_gap_us<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        // Inverse-CDF of the exponential; 1-u keeps ln's argument > 0.
        let gap = -(1.0 - u).ln() * self.mean_gap_us;
        (gap as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorldConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[50]);
        // Rank 0 under Zipf(1.0, n=100) has probability ~0.19.
        let p0 = counts[0] as f64 / 20_000.0;
        assert!((p0 - 0.19).abs() < 0.03, "p0 = {p0}");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = vec![0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            let p = c as f64 / 50_000.0;
            assert!((p - 0.1).abs() < 0.01, "p = {p}");
        }
    }

    #[test]
    fn walk_trace_transitions_indoors() {
        let world = World::generate(WorldConfig::default());
        let trace = WalkTrace::into_venue(&world, 0, 60.0);
        assert!(trace.len() > 60);
        let first_indoor = trace.samples.iter().position(|s| s.indoors).unwrap();
        assert!(first_indoor > 30, "walk starts outdoors");
        // Once indoors, stays indoors.
        assert!(trace.samples[first_indoor..].iter().all(|s| s.indoors));
        // Indoor samples carry venue-local ground truth consistent with
        // the true transform.
        for s in &trace.samples[first_indoor..] {
            let (v, local) = s.venue_local.unwrap();
            let enu = world.venues[v].true_transform.apply(local);
            assert!(enu.distance(s.enu) < 1e-9);
        }
    }

    #[test]
    fn walk_samples_are_meter_spaced() {
        let world = World::generate(WorldConfig::default());
        let trace = WalkTrace::into_venue(&world, 1, 40.0);
        for d in trace.deltas() {
            assert!(d.norm() < 2.5, "step {} too large", d.norm());
        }
    }

    #[test]
    fn poisson_gaps_match_the_offered_rate() {
        let arrivals = PoissonArrivals::new(2_000.0); // mean gap 500 us
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| arrivals.next_gap_us(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 500.0).abs() < 15.0, "mean gap {mean}");
    }
}
