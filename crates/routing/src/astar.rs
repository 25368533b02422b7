//! A* search with a straight-line admissible heuristic.

use crate::dijkstra::HeapEntry;
use crate::graph::{RoadGraph, Route};
use crate::RouteError;
use openflame_mapdata::NodeId;
use std::collections::BinaryHeap;

/// A* shortest path using the straight-line-distance-over-max-speed
/// heuristic, which is admissible and consistent for travel-time
/// weights (no edge is faster than the graph's maximum speed).
pub fn astar(graph: &RoadGraph, from: NodeId, to: NodeId) -> Result<Route, RouteError> {
    let src = graph
        .index_of(from)
        .ok_or(RouteError::NodeNotInGraph(from.0))?;
    let dst = graph.index_of(to).ok_or(RouteError::NodeNotInGraph(to.0))?;
    let goal = graph.position(dst);
    let max_speed = graph.max_speed().max(1e-9);
    let h = |idx: usize| graph.position(idx).distance(goal) / max_speed;

    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut heap = BinaryHeap::new();
    let mut settled = 0usize;
    dist[src] = 0.0;
    heap.push(HeapEntry {
        cost: h(src),
        node: src,
    });
    while let Some(HeapEntry { cost: f, node }) = heap.pop() {
        let g_node = dist[node];
        // Stale entry check against the f-value it was queued with.
        if f > g_node + h(node) + 1e-12 {
            continue;
        }
        settled += 1;
        if node == dst {
            let mut path = vec![dst];
            let mut cur = dst;
            while cur != src {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Ok(graph.route_from_indices(&path, g_node, settled));
        }
        for e in graph.out_edges(node) {
            let nd = g_node + e.weight;
            if nd < dist[e.to] {
                dist[e.to] = nd;
                prev[e.to] = node;
                heap.push(HeapEntry {
                    cost: nd + h(e.to),
                    node: e.to,
                });
            }
        }
    }
    Err(RouteError::NoPath)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::graph::Profile;
    use openflame_geo::Point2;
    use openflame_mapdata::{GeoReference, MapDocument, Tags};

    fn grid(n: usize, spacing: f64) -> (MapDocument, Vec<Vec<NodeId>>, RoadGraph) {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        let mut ids = vec![vec![]; n];
        for (r, row) in ids.iter_mut().enumerate() {
            for c in 0..n {
                row.push(map.add_node(
                    Point2::new(c as f64 * spacing, r as f64 * spacing),
                    Tags::new(),
                ));
            }
        }
        for row in &ids {
            map.add_way(row.clone(), Tags::new().with("highway", "footway"))
                .unwrap();
        }
        for c in 0..n {
            let col: Vec<NodeId> = ids.iter().map(|row| row[c]).collect();
            map.add_way(col, Tags::new().with("highway", "footway"))
                .unwrap();
        }
        let g = RoadGraph::from_map(&map, Profile::Walking);
        (map, ids, g)
    }

    #[test]
    fn astar_matches_dijkstra_cost() {
        let (_map, ids, g) = grid(8, 10.0);
        for (s, t) in [
            (ids[0][0], ids[7][7]),
            (ids[3][1], ids[0][6]),
            (ids[7][0], ids[0][7]),
            (ids[4][4], ids[4][4]),
        ] {
            let d = dijkstra(&g, s, t).unwrap();
            let a = astar(&g, s, t).unwrap();
            assert!((d.cost - a.cost).abs() < 1e-9, "{s:?} -> {t:?}");
        }
    }

    #[test]
    fn astar_settles_fewer_nodes_toward_goal() {
        let (_map, ids, g) = grid(12, 10.0);
        let d = dijkstra(&g, ids[0][0], ids[0][11]).unwrap();
        let a = astar(&g, ids[0][0], ids[0][11]).unwrap();
        assert!(
            a.settled < d.settled,
            "a* settled {} vs dijkstra {}",
            a.settled,
            d.settled
        );
    }

    #[test]
    fn astar_no_path() {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        let a = map.add_node(Point2::new(0.0, 0.0), Tags::new());
        let b = map.add_node(Point2::new(10.0, 0.0), Tags::new());
        let c = map.add_node(Point2::new(500.0, 0.0), Tags::new());
        let d = map.add_node(Point2::new(510.0, 0.0), Tags::new());
        map.add_way(vec![a, b], Tags::new().with("highway", "footway"))
            .unwrap();
        map.add_way(vec![c, d], Tags::new().with("highway", "footway"))
            .unwrap();
        let g = RoadGraph::from_map(&map, Profile::Walking);
        assert_eq!(astar(&g, a, d), Err(RouteError::NoPath));
    }

    #[test]
    fn astar_unknown_node() {
        let (_map, ids, g) = grid(3, 10.0);
        assert!(astar(&g, NodeId(424242), ids[0][0]).is_err());
    }
}
