//! Property-based tests for map data structures.

use openflame_codec::{from_bytes, to_bytes};
use openflame_geo::Point2;
use openflame_mapdata::{
    GeoReference, MapDocument, MapPatch, Node, NodeId, SpatialGrid, Tags, Way, WayId,
};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point2> {
    (-2_000.0f64..2_000.0, -2_000.0f64..2_000.0).prop_map(|(x, y)| Point2::new(x, y))
}

fn arb_tags() -> impl Strategy<Value = Tags> {
    proptest::collection::vec(("[a-z]{1,8}", "[a-z0-9 ]{0,12}"), 0..5)
        .prop_map(|kv| kv.into_iter().collect())
}

fn arb_node(id: u64) -> impl Strategy<Value = Node> {
    (arb_point(), arb_tags()).prop_map(move |(pos, tags)| Node::new(NodeId(id), pos, tags))
}

proptest! {
    #[test]
    fn grid_radius_matches_linear_scan(
        pts in proptest::collection::vec(arb_point(), 0..120),
        center in arb_point(),
        radius in 0.0f64..500.0,
    ) {
        let mut grid = SpatialGrid::new(25.0);
        for (i, p) in pts.iter().enumerate() {
            grid.insert(NodeId(i as u64), *p);
        }
        let mut got: Vec<u64> = grid
            .within_radius(center, radius)
            .into_iter()
            .map(|(id, _)| id.0)
            .collect();
        got.sort_unstable();
        let mut expect: Vec<u64> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(center) <= radius)
            .map(|(i, _)| i as u64)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn grid_nearest_matches_linear_scan(
        pts in proptest::collection::vec(arb_point(), 1..120),
        center in arb_point(),
    ) {
        let mut grid = SpatialGrid::new(25.0);
        for (i, p) in pts.iter().enumerate() {
            grid.insert(NodeId(i as u64), *p);
        }
        let (_, got_pos, got_d) = grid.nearest(center).unwrap();
        let best = pts.iter().map(|p| p.distance(center)).fold(f64::INFINITY, f64::min);
        prop_assert!((got_d - best).abs() < 1e-9, "got {got_d} want {best} at {got_pos}");
    }

    #[test]
    fn node_wire_round_trip(node in arb_node(77)) {
        prop_assert_eq!(from_bytes::<Node>(&to_bytes(&node)).unwrap(), node);
    }

    #[test]
    fn tags_wire_round_trip(tags in arb_tags()) {
        prop_assert_eq!(from_bytes::<Tags>(&to_bytes(&tags)).unwrap(), tags);
    }

    #[test]
    fn patch_apply_preserves_validity(
        adds in proptest::collection::vec(arb_point(), 1..20),
        move_first in arb_point(),
    ) {
        let mut doc = MapDocument::new(GeoReference::Unaligned);
        let a = doc.add_node(Point2::ZERO, Tags::new());
        let b = doc.add_node(Point2::new(5.0, 5.0), Tags::new());
        doc.add_way(vec![a, b], Tags::new()).unwrap();
        let mut patch = MapPatch::new(0);
        for (i, p) in adds.iter().enumerate() {
            patch.upsert_nodes.push(Node::new(NodeId(100 + i as u64), *p, Tags::new()));
        }
        patch.upsert_nodes.push(Node::new(a, move_first, Tags::new().with("touched", "yes")));
        patch.apply(&mut doc).unwrap();
        prop_assert!(doc.validate().is_ok());
        prop_assert_eq!(doc.meta().version, 1);
        prop_assert_eq!(doc.node(a).unwrap().pos, move_first);
        // The way still references the moved node.
        let way = doc.ways().next().unwrap().clone();
        prop_assert!(way.nodes.contains(&a));
        // Patch round-trips on the wire too.
        prop_assert_eq!(from_bytes::<MapPatch>(&to_bytes(&patch)).unwrap(), patch);
    }

    #[test]
    fn way_wire_round_trip(
        node_ids in proptest::collection::vec(0u64..1000, 2..20),
        tags in arb_tags(),
    ) {
        let way = Way::new(WayId(9), node_ids.into_iter().map(NodeId).collect(), tags);
        prop_assert_eq!(from_bytes::<Way>(&to_bytes(&way)).unwrap(), way);
    }
}
