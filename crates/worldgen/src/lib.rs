//! Deterministic synthetic world generation.
//!
//! Every paper-claim test needs ground truth — true positions, true
//! inventories, true frame alignments — which real map extracts cannot
//! provide. This crate generates cities
//! with the exact structure the paper's example application needs
//! (paper §2):
//!
//! - an **outdoor map**: a street grid with named roads, addressed
//!   buildings and POIs, precisely geo-anchored (the "Google Maps"
//!   role),
//! - **venues**: grocery stores, malls and campus buildings, each with a
//!   private indoor map in its own *deliberately misaligned* local frame
//!   (paper §3 heterogeneity), stocked with products on shelves, instrumented
//!   with radio beacons and fiducial tags, and connected to the street
//!   network at entrance portals,
//! - **ground truth**: the true similarity transform of every venue
//!   frame, true product locations, and trace generators for
//!   localization experiments,
//! - **workloads**: Zipf-distributed query location samplers and
//!   outdoor→indoor walk traces.
//!
//! All randomness flows from the seed in [`WorldConfig`]; identical
//! configs produce byte-identical worlds.

pub mod city;
pub mod names;
pub mod venue;
pub mod workload;

pub use venue::Venue;
pub use workload::{PoissonArrivals, WalkSample, WalkTrace, ZipfSampler};

use city::build_outdoor;
use openflame_geo::{Affine2, LatLng, LocalFrame, Point2};
use openflame_mapdata::{MapDocument, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use venue::build_grocery;

/// Configuration of a synthetic world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; all structure derives from it.
    pub seed: u64,
    /// Geographic center of the city.
    pub center: LatLng,
    /// Number of city blocks east-west.
    pub blocks_x: usize,
    /// Number of city blocks north-south.
    pub blocks_y: usize,
    /// Block edge length in meters.
    pub block_m: f64,
    /// Number of grocery stores (each becomes a federated venue).
    pub stores: usize,
    /// Named POIs per block (restaurants, cafes, parking, ...).
    pub pois_per_block: usize,
    /// Distinct products stocked per store.
    pub products_per_store: usize,
    /// Radio beacons installed per store.
    pub beacons_per_store: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            center: LatLng::new_unchecked(40.4433, -79.9436),
            blocks_x: 6,
            blocks_y: 6,
            block_m: 120.0,
            stores: 8,
            pois_per_block: 2,
            products_per_store: 40,
            beacons_per_store: 6,
        }
    }
}

/// Ground-truth record of one stocked product.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductTruth {
    /// Full product name (brand + flavor + kind).
    pub name: String,
    /// Index of the venue stocking it.
    pub venue: usize,
    /// Shelf node inside the venue map.
    pub shelf: NodeId,
    /// Shelf position in the venue frame.
    pub shelf_pos: Point2,
}

/// A generated world.
#[derive(Debug, Clone)]
pub struct World {
    /// The configuration that produced this world.
    pub config: WorldConfig,
    /// The geo-anchored outdoor map.
    pub outdoor: MapDocument,
    /// Federated venues with private indoor maps.
    pub venues: Vec<Venue>,
    /// Every product stocked anywhere, with ground truth.
    pub products: Vec<ProductTruth>,
}

impl World {
    /// Generates a world from `config`.
    pub fn generate(config: WorldConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut outdoor = build_outdoor(&config, &mut rng);
        let mut venues = Vec::with_capacity(config.stores);
        let mut products = Vec::new();
        for store_idx in 0..config.stores {
            let venue = build_grocery(&config, store_idx, &mut outdoor, &mut rng);
            for p in &venue.stocked {
                products.push(ProductTruth {
                    name: p.0.clone(),
                    venue: store_idx,
                    shelf: p.1,
                    shelf_pos: p.2,
                });
            }
            venues.push(venue);
        }
        debug_assert!(outdoor.validate().is_ok());
        Self {
            config,
            outdoor,
            venues,
            products,
        }
    }

    /// The city frame (ENU at the configured center).
    pub fn city_frame(&self) -> LocalFrame {
        LocalFrame::new(self.config.center)
    }

    /// Ground-truth geographic position of a point in a venue's frame.
    pub fn venue_point_to_geo(&self, venue: usize, local: Point2) -> LatLng {
        let enu = self.venues[venue].true_transform.apply(local);
        self.city_frame().from_local(enu)
    }

    /// Produces the misalignment transform for a venue: a similarity
    /// with random rotation, slight scale error, positioned at
    /// `enu_anchor`.
    pub(crate) fn sample_misalignment<R: Rng>(rng: &mut R, enu_anchor: Point2) -> Affine2 {
        let angle = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        let scale = rng.gen_range(0.98..1.02);
        Affine2::similarity(angle, scale, enu_anchor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldConfig::default());
        let b = World::generate(WorldConfig::default());
        assert_eq!(a.outdoor.node_count(), b.outdoor.node_count());
        assert_eq!(a.outdoor.way_count(), b.outdoor.way_count());
        assert_eq!(a.products.len(), b.products.len());
        assert_eq!(a.products, b.products);
        assert_eq!(a.venues.len(), b.venues.len());
        for (va, vb) in a.venues.iter().zip(&b.venues) {
            assert_eq!(va.name, vb.name);
            assert_eq!(va.true_transform, vb.true_transform);
            assert_eq!(va.map.node_count(), vb.map.node_count());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldConfig::default());
        let b = World::generate(WorldConfig {
            seed: 43,
            ..WorldConfig::default()
        });
        // Same structure sizes (venue brand names are positional), but
        // placement, misalignment and inventory differ.
        assert_ne!(
            a.venues
                .iter()
                .map(|v| v.true_transform)
                .collect::<Vec<_>>(),
            b.venues
                .iter()
                .map(|v| v.true_transform)
                .collect::<Vec<_>>()
        );
        assert_ne!(a.products, b.products);
    }

    #[test]
    fn world_has_configured_scale() {
        let w = World::generate(WorldConfig::default());
        assert_eq!(w.venues.len(), 8);
        assert_eq!(w.products.len(), 8 * 40);
        assert!(w.outdoor.node_count() > 100);
        assert!(w.outdoor.validate().is_ok());
        for v in &w.venues {
            assert!(v.map.validate().is_ok());
        }
    }

    #[test]
    fn venue_transforms_place_venues_inside_city() {
        let w = World::generate(WorldConfig::default());
        let half_extent = 6.0 * 120.0; // generous bound
        for (i, v) in w.venues.iter().enumerate() {
            let geo = w.venue_point_to_geo(i, Point2::ZERO);
            let d = geo.haversine_distance(w.config.center);
            assert!(
                d < half_extent * 1.5,
                "venue {} origin {d} m from center",
                v.name
            );
        }
    }

    #[test]
    fn venue_geo_round_trip() {
        let w = World::generate(WorldConfig::default());
        let p = Point2::new(12.0, 7.0);
        let geo = w.venue_point_to_geo(0, p);
        let back = w.venues[0]
            .true_transform
            .inverse()
            .unwrap()
            .apply(w.city_frame().to_local(geo));
        assert!(p.distance(back) < 0.01, "{p} vs {back}");
    }

    #[test]
    fn products_reference_real_shelves() {
        let w = World::generate(WorldConfig::default());
        for p in &w.products {
            let venue = &w.venues[p.venue];
            let node = venue.map.node(p.shelf).expect("shelf node exists");
            assert_eq!(node.pos, p.shelf_pos);
            assert!(
                node.tags.has("product"),
                "shelf must be tagged with its product"
            );
        }
    }
}
