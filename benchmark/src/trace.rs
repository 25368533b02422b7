//! The query trace: a pure function of the seed.
//!
//! The city is a fixture (one fixed world per workload); the seed draws
//! the *queries*. A trace is built before timing starts and names each
//! query by index into the world, so the program under test receives
//! nothing but generated inputs.

use openflame_worldgen::{PoissonArrivals, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The six provider services, in the order every table prints them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Search,
    Route,
    Localize,
    Tile,
    Geocode,
    ReverseGeocode,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Search,
        Class::Route,
        Class::Localize,
        Class::Tile,
        Class::Geocode,
        Class::ReverseGeocode,
    ];

    /// Short name, as used in metric and span names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Search => "search",
            Class::Route => "route",
            Class::Localize => "localize",
            Class::Tile => "tile",
            Class::Geocode => "geocode",
            Class::ReverseGeocode => "rgeocode",
        }
    }

    /// Name of the root span of one provider call of this class.
    pub fn span_name(self) -> &'static str {
        match self {
            Class::Search => "provider.search",
            Class::Route => "provider.route",
            Class::Localize => "provider.localize",
            Class::Tile => "provider.tile",
            Class::Geocode => "provider.geocode",
            Class::ReverseGeocode => "provider.rgeocode",
        }
    }

    pub fn index(self) -> usize {
        Class::ALL
            .iter()
            .position(|c| *c == self)
            .expect("ALL lists every class")
    }
}

/// How many calls of each class (in [`Class::ALL`] order) every block
/// of a trace holds. A trace is a sequence of such blocks, each
/// shuffled, so class shares are exact over any long stretch: with a
/// 200 KB tile costing many searches, a sampled mix would put the tile
/// share's sampling noise into every rate and byte count.
pub type Mix = [u32; 6];

/// How a trace picks the venue a query is about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VenuePick {
    /// Every venue equally often.
    Uniform,
    /// Zipf(1.0): a few hot venues attract most queries.
    Zipf,
}

/// What a trace needs to know about the world: how many venues, how
/// many query points each has, and which products each stocks.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Product indices stocked per venue.
    pub stocked: Vec<Vec<usize>>,
    /// Query points per venue (every venue has the same number).
    pub points: usize,
    /// Route destinations are drawn from the first `route_pool`
    /// stocked products of a venue, so warm-up can resolve them all.
    pub route_pool: usize,
}

/// One generated query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    pub class: Class,
    /// Index into `world.venues`.
    pub venue: usize,
    /// Index into `world.products` (search and route target).
    pub product: usize,
    /// Which of the venue's query points the user stands at.
    pub point: usize,
    /// GNSS fix offset from the true position: bearing in degrees and
    /// distance in meters (at most 10 m).
    pub fix_offset: (f64, f64),
}

/// `n` queries in shuffled blocks of `mix`. Same arguments, same trace.
pub fn generate_ops(shape: &Shape, mix: &Mix, pick: VenuePick, n: usize, seed: u64) -> Vec<Op> {
    assert!(!shape.stocked.is_empty() && shape.points > 0 && shape.route_pool > 0);
    let block: Vec<Class> = Class::ALL
        .iter()
        .zip(mix)
        .flat_map(|(class, count)| std::iter::repeat_n(*class, *count as usize))
        .collect();
    assert!(!block.is_empty(), "mix needs a positive count");
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(shape.stocked.len(), 1.0);
    let mut shuffled: Vec<Class> = Vec::new();
    (0..n)
        .map(|_| {
            if shuffled.is_empty() {
                shuffled = block.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.gen_range(0..=i));
                }
            }
            let class = shuffled.pop().expect("refilled above");
            let venue = match pick {
                VenuePick::Uniform => rng.gen_range(0..shape.stocked.len()),
                VenuePick::Zipf => zipf.sample(&mut rng),
            };
            let stocked = &shape.stocked[venue];
            assert!(!stocked.is_empty(), "venue {venue} stocks nothing");
            let pool = if class == Class::Route {
                shape.route_pool.min(stocked.len())
            } else {
                stocked.len()
            };
            Op {
                class,
                venue,
                product: stocked[rng.gen_range(0..pool)],
                point: rng.gen_range(0..shape.points),
                fix_offset: (rng.gen_range(0.0..360.0), rng.gen_range(0.0..10.0)),
            }
        })
        .collect()
}

/// Poisson arrival offsets (µs from the start, strictly increasing) at
/// `rate_per_s` for `duration_us`.
pub fn generate_arrivals(rate_per_s: f64, duration_us: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let arrivals = PoissonArrivals::new(rate_per_s);
    let mut out = Vec::new();
    let mut at_us = 0u64;
    loop {
        at_us += arrivals.next_gap_us(&mut rng);
        if at_us >= duration_us {
            return out;
        }
        out.push(at_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            stocked: (0..4).map(|v| (v * 10..v * 10 + 10).collect()).collect(),
            points: 3,
            route_pool: 2,
        }
    }

    #[test]
    fn ops_are_a_pure_function_of_the_seed() {
        let mix = [1; 6];
        let a = generate_ops(&shape(), &mix, VenuePick::Uniform, 500, 9);
        let b = generate_ops(&shape(), &mix, VenuePick::Uniform, 500, 9);
        let c = generate_ops(&shape(), &mix, VenuePick::Uniform, 500, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ops_respect_mix_pool_and_stock() {
        let mix = [2, 1, 0, 1, 0, 0];
        let ops = generate_ops(&shape(), &mix, VenuePick::Zipf, 4000, 3);
        let count = |ops: &[Op], c: Class| ops.iter().filter(|o| o.class == c).count();
        assert_eq!(
            count(&ops, Class::Localize) + count(&ops, Class::Geocode),
            0
        );
        assert_eq!(count(&ops, Class::ReverseGeocode), 0);
        // Shares are exact over whole blocks, and blocks are shuffled.
        assert_eq!(count(&ops, Class::Search), 2000);
        for block in ops.chunks(4) {
            assert_eq!(count(block, Class::Search), 2);
        }
        assert!(ops.chunks(4).any(|b| b[0].class != ops[0].class));
        for op in &ops {
            assert_eq!(op.product / 10, op.venue, "product stocked at its venue");
            assert!(op.point < 3 && op.fix_offset.1 < 10.0);
            if op.class == Class::Route {
                assert!(op.product % 10 < 2, "route target outside the pool");
            }
        }
        // Zipf: venue 0 is the hottest.
        let at = |v: usize| ops.iter().filter(|o| o.venue == v).count();
        assert!(at(0) > at(3));
    }

    #[test]
    fn arrivals_are_seeded_ordered_and_at_rate() {
        let a = generate_arrivals(2_000.0, 1_000_000, 5);
        assert_eq!(a, generate_arrivals(2_000.0, 1_000_000, 5));
        assert_ne!(a, generate_arrivals(2_000.0, 1_000_000, 6));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(
            (a.len() as f64 - 2_000.0).abs() < 200.0,
            "{} arrivals",
            a.len()
        );
    }
}
