//! Outdoor city generation: street grid, addresses, POIs.

use crate::names::{pick, AVENUE_NAMES, POI_KINDS, POI_NAMES, STREET_NAMES};
use crate::WorldConfig;
use openflame_geo::Point2;
use openflame_mapdata::{GeoReference, MapDocument, NodeId, Tags};
use rand::Rng;

/// Builds the geo-anchored outdoor map: a `blocks_x × blocks_y` street
/// grid centered on the configured city center, with named streets,
/// addressed buildings, and POIs.
///
/// The map plays the "large world-map provider" role from paper §5.2 (the
/// OpenStreetMap/Google of the simulation): public, outdoor, coarse.
pub(crate) fn build_outdoor<R: Rng>(config: &WorldConfig, rng: &mut R) -> MapDocument {
    let mut map = MapDocument::new(GeoReference::Anchored {
        origin: config.center,
    });
    let w = config.blocks_x as f64 * config.block_m;
    let h = config.blocks_y as f64 * config.block_m;
    let origin = Point2::new(-w / 2.0, -h / 2.0);

    // Intersection grid, shared by all streets so the graph connects.
    let cols = config.blocks_x + 1;
    let rows = config.blocks_y + 1;
    let mut grid: Vec<Vec<NodeId>> = Vec::with_capacity(rows);
    for r in 0..rows {
        let mut row = Vec::with_capacity(cols);
        for c in 0..cols {
            let pos = origin + Point2::new(c as f64 * config.block_m, r as f64 * config.block_m);
            row.push(map.add_node(pos, Tags::new()));
        }
        grid.push(row);
    }

    // North-south streets.
    for c in 0..cols {
        let name = format!("{} St", STREET_NAMES[c % STREET_NAMES.len()]);
        let class = if c % 4 == 0 { "primary" } else { "residential" };
        let nodes: Vec<NodeId> = (0..rows).map(|r| grid[r][c]).collect();
        map.add_way(nodes, Tags::new().with("highway", class).with("name", name))
            .expect("grid nodes exist");
    }
    // East-west avenues.
    for r in 0..rows {
        let name = format!("{} Ave", AVENUE_NAMES[r % AVENUE_NAMES.len()]);
        let class = if r % 4 == 0 { "primary" } else { "residential" };
        let nodes: Vec<NodeId> = (0..cols).map(|c| grid[r][c]).collect();
        map.add_way(nodes, Tags::new().with("highway", class).with("name", name))
            .expect("grid nodes exist");
    }

    // Addressed buildings along each block's south side, and POIs inside
    // blocks.
    for br in 0..config.blocks_y {
        for bc in 0..config.blocks_x {
            let block_sw =
                origin + Point2::new(bc as f64 * config.block_m, br as f64 * config.block_m);
            let ave_name = format!("{} Ave", AVENUE_NAMES[br % AVENUE_NAMES.len()]);
            // Two address points per block face.
            for k in 0..2 {
                let number = 100 * (bc + 1) + 2 * k + 1;
                let pos = block_sw
                    + Point2::new(
                        config.block_m * (0.25 + 0.5 * k as f64),
                        config.block_m * 0.08,
                    );
                map.add_node(
                    pos,
                    Tags::new()
                        .with("building", "yes")
                        .with("addr:housenumber", number.to_string())
                        .with("addr:street", ave_name.clone())
                        .with("name", format!("{number} {ave_name}")),
                );
            }
            for _ in 0..config.pois_per_block {
                let (key, value, kind_label) = POI_KINDS[rng.gen_range(0..POI_KINDS.len())];
                let name = format!("{} {}", pick(rng, POI_NAMES), kind_label);
                let pos = block_sw
                    + Point2::new(
                        rng.gen_range(0.15..0.85) * config.block_m,
                        rng.gen_range(0.15..0.85) * config.block_m,
                    );
                map.add_node(pos, Tags::new().with(key, value).with("name", name));
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_routing_compat::routable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Local shim so these tests do not depend on the routing crate:
    /// counts ways usable on foot.
    mod openflame_routing_compat {
        use openflame_mapdata::MapDocument;

        pub fn routable(map: &MapDocument) -> usize {
            map.ways().filter(|w| w.tags.has("highway")).count()
        }
    }

    fn cfg() -> WorldConfig {
        WorldConfig {
            blocks_x: 4,
            blocks_y: 3,
            ..WorldConfig::default()
        }
    }

    #[test]
    fn grid_dimensions() {
        let mut rng = StdRng::seed_from_u64(1);
        let map = build_outdoor(&cfg(), &mut rng);
        // 5 vertical + 4 horizontal streets.
        assert_eq!(routable(&map), 9);
        // 5×4 intersections plus addresses plus POIs.
        assert!(map.node_count() >= 20 + 4 * 3 * 2);
        assert!(map.validate().is_ok());
    }

    #[test]
    fn streets_are_named() {
        let mut rng = StdRng::seed_from_u64(1);
        let map = build_outdoor(&cfg(), &mut rng);
        assert!(map.ways().all(|w| w.tags.has("name")));
        assert!(map
            .ways()
            .any(|w| w.tags.get("name").unwrap().ends_with("St")));
        assert!(map
            .ways()
            .any(|w| w.tags.get("name").unwrap().ends_with("Ave")));
    }

    #[test]
    fn addresses_present() {
        let mut rng = StdRng::seed_from_u64(1);
        let map = build_outdoor(&cfg(), &mut rng);
        let addressed = map
            .nodes()
            .filter(|n| n.tags.has("addr:housenumber"))
            .count();
        assert_eq!(addressed, 4 * 3 * 2);
    }

    #[test]
    fn pois_have_names_and_kinds() {
        let mut rng = StdRng::seed_from_u64(1);
        let map = build_outdoor(&cfg(), &mut rng);
        let pois: Vec<_> = map
            .nodes()
            .filter(|n| n.tags.has("amenity") || n.tags.has("leisure") || n.tags.has("tourism"))
            .collect();
        assert_eq!(pois.len(), 4 * 3 * 2);
        assert!(pois.iter().all(|p| p.tags.has("name")));
    }

    #[test]
    fn city_is_centered() {
        let mut rng = StdRng::seed_from_u64(1);
        let map = build_outdoor(&cfg(), &mut rng);
        let (min, max) = map.local_bounds().unwrap();
        assert!((min.x + max.x).abs() < 60.0, "x roughly centered");
        assert!((min.y + max.y).abs() < 60.0, "y roughly centered");
    }
}
