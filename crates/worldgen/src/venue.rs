//! Indoor venue generation: grocery stores with aisles, shelves,
//! beacons and fiducial tags, in deliberately misaligned local frames.

use crate::names::{product_name, STORE_BRANDS};
use crate::{World, WorldConfig};
use openflame_codec::Fnv1a;
use openflame_geo::{Affine2, LatLng, LocalFrame, Point2};
use openflame_localize::{Beacon, TagRegistry};
use openflame_mapdata::{GeoReference, MapDocument, NodeId, Tags};
use rand::Rng;

/// A federated venue: a private indoor map plus everything its map
/// server needs to offer services.
#[derive(Debug, Clone)]
pub struct Venue {
    /// Display name (e.g. `"FreshMart #3"`).
    pub name: String,
    /// The indoor map, in the venue's own local frame
    /// ([`GeoReference::Unaligned`] — paper §3 heterogeneity).
    pub map: MapDocument,
    /// Ground truth: venue frame → city ENU frame. *Not* known to the
    /// venue's map server; experiments use it to score accuracy.
    pub true_transform: Affine2,
    /// Coarse location hint (street address quality), used for
    /// discovery registration.
    pub hint: LatLng,
    /// Approximate zone radius for discovery coverings, meters.
    pub radius_m: f64,
    /// Entrance node inside the venue map.
    pub entrance_local: NodeId,
    /// Matching entrance node in the outdoor map (the portal pair for
    /// route stitching, paper §5.2).
    pub entrance_outdoor: NodeId,
    /// Radio beacons installed in the venue (venue frame).
    pub beacons: Vec<Beacon>,
    /// Fiducial tags installed in the venue (venue frame).
    pub tags: TagRegistry,
    /// Stocked products: `(name, shelf node, shelf position)`.
    pub stocked: Vec<(String, NodeId, Point2)>,
}

/// Builds grocery store `store_idx`, wiring its entrance into the
/// outdoor map, and returns the venue.
pub(crate) fn build_grocery<R: Rng>(
    config: &WorldConfig,
    store_idx: usize,
    outdoor: &mut MapDocument,
    rng: &mut R,
) -> Venue {
    let name = format!(
        "{} #{}",
        STORE_BRANDS[store_idx % STORE_BRANDS.len()],
        store_idx / STORE_BRANDS.len() + 1
    );
    let city_frame = LocalFrame::new(config.center);
    let w_city = config.blocks_x as f64 * config.block_m;
    let h_city = config.blocks_y as f64 * config.block_m;
    // Place the venue inside a random block, away from streets.
    let bc = rng.gen_range(0..config.blocks_x);
    let br = rng.gen_range(0..config.blocks_y);
    let block_sw = Point2::new(
        bc as f64 * config.block_m - w_city / 2.0,
        br as f64 * config.block_m - h_city / 2.0,
    );
    let anchor_enu = block_sw + Point2::new(config.block_m * 0.5, config.block_m * 0.55);

    // ---- Outdoor wiring: shop node + entrance + footway to the grid.
    let shop_node = outdoor.add_node(
        anchor_enu,
        Tags::new()
            .with("shop", "grocery")
            .with("name", name.clone())
            .with("addr:street", format!("Block {bc}-{br}")),
    );
    // The nearest grid intersection is a block corner.
    let corner = block_sw;
    let corner_node = outdoor
        .nearest_node(corner)
        .map(|(n, _)| n.id)
        .expect("outdoor map has intersections");
    let entrance_outdoor = outdoor.add_node(
        anchor_enu + Point2::new(0.0, -config.block_m * 0.2),
        Tags::new()
            .with("entrance", "main")
            .with("name", format!("{name} entrance")),
    );
    outdoor
        .add_way(
            vec![corner_node, entrance_outdoor, shop_node],
            Tags::new()
                .with("highway", "footway")
                .with("name", format!("{name} walkway")),
        )
        .expect("nodes just created");

    // ---- Indoor map in a misaligned local frame.
    let hint = city_frame.from_local(anchor_enu);
    let true_transform = World::sample_misalignment(rng, anchor_enu);
    let mut map = MapDocument::new(GeoReference::Unaligned);
    let store_w = rng.gen_range(30.0..50.0);
    let store_h = rng.gen_range(20.0..35.0);

    // Perimeter walls.
    let c1 = map.add_node(Point2::new(0.0, 0.0), Tags::new());
    let c2 = map.add_node(Point2::new(store_w, 0.0), Tags::new());
    let c3 = map.add_node(Point2::new(store_w, store_h), Tags::new());
    let c4 = map.add_node(Point2::new(0.0, store_h), Tags::new());
    map.add_way(
        vec![c1, c2, c3, c4, c1],
        Tags::new()
            .with("indoor", "wall")
            .with("name", format!("{name} walls")),
    )
    .expect("corners exist");

    // Entrance on the south wall, connected to a south corridor.
    let entrance_x = store_w / 2.0;
    let entrance_local = map.add_node(
        Point2::new(entrance_x, 0.5),
        Tags::new()
            .with("entrance", "main")
            .with("door", "yes")
            .with("name", "Entrance"),
    );

    // Aisles: vertical corridors joined by the south corridor.
    let n_aisles = rng.gen_range(4..=6usize);
    let margin = 4.0;
    let spacing = (store_w - 2.0 * margin) / (n_aisles.max(2) - 1) as f64;
    let corridor_y = 2.5;
    // South corridor nodes: west end, aisle feet (plus the entrance
    // foot), east end — built in x order so the way is a clean polyline.
    let mut corridor_stops: Vec<(f64, Option<NodeId>)> = Vec::new();
    corridor_stops.push((margin * 0.5, None));
    for a in 0..n_aisles {
        corridor_stops.push((margin + a as f64 * spacing, None));
    }
    corridor_stops.push((entrance_x, None));
    corridor_stops.push((store_w - margin * 0.5, None));
    corridor_stops.sort_by(|a, b| a.0.total_cmp(&b.0));
    corridor_stops.dedup_by(|a, b| (a.0 - b.0).abs() < 0.3);
    for stop in &mut corridor_stops {
        stop.1 = Some(map.add_node(Point2::new(stop.0, corridor_y), Tags::new()));
    }
    let corridor_nodes: Vec<NodeId> = corridor_stops
        .iter()
        .map(|s| s.1.expect("created above"))
        .collect();
    map.add_way(
        corridor_nodes.clone(),
        Tags::new()
            .with("indoor", "corridor")
            .with("name", "South corridor"),
    )
    .expect("nodes exist");
    // Entrance stub onto the corridor.
    let entrance_foot = corridor_stops
        .iter()
        .min_by(|a, b| {
            (a.0 - entrance_x)
                .abs()
                .total_cmp(&(b.0 - entrance_x).abs())
        })
        .and_then(|s| s.1)
        .expect("corridor non-empty");
    map.add_way(
        vec![entrance_local, entrance_foot],
        Tags::new().with("indoor", "corridor"),
    )
    .expect("nodes exist");

    // Stock shelves along aisles; each shelf hangs off an aisle node by
    // a short stub so it is routable.
    let mut stocked = Vec::with_capacity(config.products_per_store);
    let per_aisle = config.products_per_store.div_ceil(n_aisles);
    let mut product_counter = 0usize;
    for a in 0..n_aisles {
        let x = margin + a as f64 * spacing;
        let foot = corridor_stops
            .iter()
            .min_by(|p, q| (p.0 - x).abs().total_cmp(&(q.0 - x).abs()))
            .and_then(|s| s.1)
            .expect("corridor non-empty");
        // Aisle nodes from the corridor foot up to the back of the
        // store, with shelf attach points.
        let mut aisle_nodes = vec![foot];
        let shelf_count = per_aisle.min(config.products_per_store - product_counter);
        let usable_h = store_h - corridor_y - 3.0;
        for s in 0..shelf_count {
            let y = corridor_y + 1.5 + usable_h * (s as f64 + 0.5) / per_aisle.max(1) as f64;
            let attach = map.add_node(Point2::new(x, y), Tags::new());
            aisle_nodes.push(attach);
            let side = if s % 2 == 0 { 0.9 } else { -0.9 };
            let shelf_pos = Point2::new(x + side, y);
            let (full_name, flavor, kind_name) = product_name(rng);
            let shelf = map.add_node(
                shelf_pos,
                Tags::new()
                    .with("shelf", "yes")
                    .with("product", kind_name)
                    .with("flavor", flavor)
                    .with("name", full_name.clone()),
            );
            map.add_way(vec![attach, shelf], Tags::new().with("indoor", "aisle"))
                .expect("nodes exist");
            stocked.push((full_name, shelf, shelf_pos));
            product_counter += 1;
        }
        let top = map.add_node(Point2::new(x, store_h - 2.0), Tags::new());
        aisle_nodes.push(top);
        map.add_way(
            aisle_nodes,
            Tags::new()
                .with("indoor", "aisle")
                .with("name", format!("Aisle {}", a + 1)),
        )
        .expect("nodes exist");
    }

    // Beacons: four corners plus random interior.
    let mut beacons = Vec::with_capacity(config.beacons_per_store);
    let corner_positions = [
        Point2::new(1.0, 1.0),
        Point2::new(store_w - 1.0, 1.0),
        Point2::new(1.0, store_h - 1.0),
        Point2::new(store_w - 1.0, store_h - 1.0),
    ];
    for (i, &pos) in corner_positions.iter().enumerate() {
        if beacons.len() >= config.beacons_per_store {
            break;
        }
        beacons.push(Beacon {
            id: beacon_id(&name, i),
            pos,
            tx_power_dbm: -40.0,
        });
    }
    let mut extra = corner_positions.len();
    while beacons.len() < config.beacons_per_store {
        let pos = Point2::new(
            rng.gen_range(2.0..store_w - 2.0),
            rng.gen_range(2.0..store_h - 2.0),
        );
        beacons.push(Beacon {
            id: beacon_id(&name, extra),
            pos,
            tx_power_dbm: -40.0,
        });
        extra += 1;
    }

    // Fiducial tags at the entrance and aisle tops.
    let mut tags = TagRegistry::new();
    tags.install(beacon_id(&name, 1000), Point2::new(entrance_x, 0.5));
    for a in 0..n_aisles {
        let x = margin + a as f64 * spacing;
        tags.install(beacon_id(&name, 1001 + a), Point2::new(x, store_h - 2.0));
    }

    debug_assert!(map.validate().is_ok());
    Venue {
        name,
        map,
        true_transform,
        hint,
        radius_m: (store_w.max(store_h)) * 0.75,
        entrance_local,
        entrance_outdoor,
        beacons,
        tags,
        stocked,
    }
}

/// Deterministic unique ids for beacons/tags derived from the venue
/// name (FNV-1a over name and index).
fn beacon_id(name: &str, index: usize) -> u64 {
    Fnv1a::new()
        .write(name.as_bytes())
        .write(&index.to_le_bytes())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_outdoor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (WorldConfig, MapDocument, StdRng) {
        let config = WorldConfig::default();
        let mut rng = StdRng::seed_from_u64(5);
        let outdoor = build_outdoor(&config, &mut rng);
        (config, outdoor, rng)
    }

    #[test]
    fn grocery_has_expected_structure() {
        let (config, mut outdoor, mut rng) = setup();
        let v = build_grocery(&config, 0, &mut outdoor, &mut rng);
        assert!(v.map.validate().is_ok());
        assert!(outdoor.validate().is_ok());
        assert_eq!(v.stocked.len(), config.products_per_store);
        assert_eq!(v.beacons.len(), config.beacons_per_store);
        assert!(!v.tags.is_empty());
        // The entrance exists in both maps.
        assert!(v.map.node(v.entrance_local).is_some());
        assert!(outdoor.node(v.entrance_outdoor).is_some());
    }

    #[test]
    fn indoor_graph_is_connected_to_entrance() {
        // Walkability: every shelf's attach point must be reachable from
        // the entrance through indoor ways. Verified structurally: all
        // indoor ways form one connected component containing the
        // entrance.
        let (config, mut outdoor, mut rng) = setup();
        let v = build_grocery(&config, 0, &mut outdoor, &mut rng);
        // Union-find over way-connected nodes.
        let mut parent: std::collections::HashMap<NodeId, NodeId> =
            std::collections::HashMap::new();
        fn find(parent: &mut std::collections::HashMap<NodeId, NodeId>, x: NodeId) -> NodeId {
            let p = *parent.get(&x).unwrap_or(&x);
            if p == x {
                return x;
            }
            let root = find(parent, p);
            parent.insert(x, root);
            root
        }
        for way in v.map.ways() {
            if !way.tags.has("indoor") || way.tags.is("indoor", "wall") {
                continue;
            }
            for pair in way.nodes.windows(2) {
                let ra = find(&mut parent, pair[0]);
                let rb = find(&mut parent, pair[1]);
                if ra != rb {
                    parent.insert(ra, rb);
                }
            }
        }
        let entrance_root = find(&mut parent, v.entrance_local);
        for (name, shelf, _) in &v.stocked {
            let root = find(&mut parent, *shelf);
            assert_eq!(root, entrance_root, "shelf {name} disconnected");
        }
    }

    #[test]
    fn products_are_searchable_tags() {
        let (config, mut outdoor, mut rng) = setup();
        let v = build_grocery(&config, 0, &mut outdoor, &mut rng);
        for (name, shelf, _) in &v.stocked {
            let node = v.map.node(*shelf).unwrap();
            assert_eq!(node.tags.get("name"), Some(name.as_str()));
            assert!(node.tags.has("product"));
            assert!(node.tags.has("flavor"));
        }
    }

    #[test]
    fn venue_is_unaligned_with_hint() {
        let (config, mut outdoor, mut rng) = setup();
        let v = build_grocery(&config, 0, &mut outdoor, &mut rng);
        assert_eq!(v.map.georef(), GeoReference::Unaligned);
        // The hint is within the city.
        let d = v.hint.haversine_distance(config.center);
        assert!(d < config.blocks_x as f64 * config.block_m);
    }

    #[test]
    fn beacon_ids_unique_across_venues() {
        let (config, mut outdoor, mut rng) = setup();
        let a = build_grocery(&config, 0, &mut outdoor, &mut rng);
        let b = build_grocery(&config, 1, &mut outdoor, &mut rng);
        let mut ids: Vec<u64> = a.beacons.iter().chain(&b.beacons).map(|bc| bc.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "beacon id collision");
    }

    #[test]
    fn outdoor_entrance_connected_to_grid() {
        let (config, mut outdoor, mut rng) = setup();
        let v = build_grocery(&config, 0, &mut outdoor, &mut rng);
        // A footway containing the entrance must also touch a grid
        // intersection (a node shared with a street way).
        let footway = outdoor
            .ways()
            .find(|w| w.nodes.contains(&v.entrance_outdoor))
            .expect("entrance footway exists");
        let street_nodes: std::collections::HashSet<NodeId> = outdoor
            .ways()
            .filter(|w| w.tags.has("highway") && !w.tags.is("highway", "footway"))
            .flat_map(|w| w.nodes.iter().copied())
            .collect();
        assert!(
            footway.nodes.iter().any(|n| street_nodes.contains(n)),
            "footway must join the street grid"
        );
    }
}
