//! Property-based routing correctness: all engines agree on cost.

use openflame_geo::Point2;
use openflame_mapdata::{GeoReference, MapDocument, NodeId, Tags};
use openflame_routing::{
    astar, bidirectional, dijkstra, ContractionHierarchy, Profile, RoadGraph, RouteError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random footway map from a seed: points on a bounded plane
/// connected by random segments plus a spanning chain (so most pairs
/// are connected).
fn random_graph(seed: u64, n: usize, extra_edges: usize) -> (RoadGraph, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut map = MapDocument::new(GeoReference::Unaligned);
    let ids: Vec<NodeId> = (0..n)
        .map(|_| {
            map.add_node(
                Point2::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                Tags::new(),
            )
        })
        .collect();
    map.add_way(ids.clone(), Tags::new().with("highway", "footway"))
        .unwrap();
    for _ in 0..extra_edges {
        let a = ids[rng.gen_range(0..n)];
        let b = ids[rng.gen_range(0..n)];
        if a != b {
            map.add_way(vec![a, b], Tags::new().with("highway", "footway"))
                .unwrap();
        }
    }
    (RoadGraph::from_map(&map, Profile::Walking), ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_engines_agree(seed in any::<u64>(), n in 8usize..60, extra in 0usize..80) {
        let (g, ids) = random_graph(seed, n, extra);
        let ch = ContractionHierarchy::build(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..6 {
            let s = ids[rng.gen_range(0..ids.len())];
            let t = ids[rng.gen_range(0..ids.len())];
            let d = dijkstra(&g, s, t);
            let b = bidirectional(&g, s, t);
            let a = astar(&g, s, t);
            let c = ch.query(s, t);
            match d {
                Ok(ref dr) => {
                    let bc = b.as_ref().expect("bidir must find a path").cost;
                    let ac = a.as_ref().expect("astar must find a path").cost;
                    let cc = c.as_ref().expect("ch must find a path").cost;
                    prop_assert!((dr.cost - bc).abs() < 1e-6, "bidir {} vs {}", bc, dr.cost);
                    prop_assert!((dr.cost - ac).abs() < 1e-6, "astar {} vs {}", ac, dr.cost);
                    prop_assert!((dr.cost - cc).abs() < 1e-6, "ch {} vs {}", cc, dr.cost);
                }
                Err(RouteError::NoPath) => {
                    prop_assert!(matches!(b, Err(RouteError::NoPath)));
                    prop_assert!(matches!(a, Err(RouteError::NoPath)));
                    prop_assert!(matches!(c, Err(RouteError::NoPath)));
                }
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn routes_are_contiguous_valid_paths(seed in any::<u64>(), n in 8usize..40) {
        let (g, ids) = random_graph(seed, n, n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let s = ids[rng.gen_range(0..ids.len())];
        let t = ids[rng.gen_range(0..ids.len())];
        if let Ok(route) = dijkstra(&g, s, t) {
            prop_assert_eq!(route.nodes.first(), Some(&s));
            prop_assert_eq!(route.nodes.last(), Some(&t));
            let mut cost = 0.0;
            for w in route.nodes.windows(2) {
                let ia = g.index_of(w[0]).unwrap();
                let ib = g.index_of(w[1]).unwrap();
                let edge = g.out_edges(ia).iter().find(|e| e.to == ib);
                prop_assert!(edge.is_some(), "missing edge {:?}->{:?}", w[0], w[1]);
                cost += edge.unwrap().weight;
            }
            prop_assert!((cost - route.cost).abs() < 1e-6);
        }
    }

    #[test]
    fn cost_obeys_triangle_inequality(seed in any::<u64>()) {
        let (g, ids) = random_graph(seed, 30, 40);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let a = ids[rng.gen_range(0..ids.len())];
        let b = ids[rng.gen_range(0..ids.len())];
        let c = ids[rng.gen_range(0..ids.len())];
        if let (Ok(ab), Ok(bc), Ok(ac)) =
            (dijkstra(&g, a, b), dijkstra(&g, b, c), dijkstra(&g, a, c))
        {
            prop_assert!(ac.cost <= ab.cost + bc.cost + 1e-6);
        }
    }
}
