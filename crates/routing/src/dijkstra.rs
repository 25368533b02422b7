//! Dijkstra and bidirectional Dijkstra shortest-path engines.

use crate::graph::{RoadGraph, Route};
use crate::RouteError;
use openflame_mapdata::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry ordered by cost.
#[derive(Debug, PartialEq)]
pub(crate) struct HeapEntry {
    pub cost: f64,
    pub node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; total_cmp handles all float values.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Classic single-source Dijkstra from `from` to `to`.
pub fn dijkstra(graph: &RoadGraph, from: NodeId, to: NodeId) -> Result<Route, RouteError> {
    let src = graph
        .index_of(from)
        .ok_or(RouteError::NodeNotInGraph(from.0))?;
    let dst = graph.index_of(to).ok_or(RouteError::NodeNotInGraph(to.0))?;
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut heap = BinaryHeap::new();
    let mut settled = 0usize;
    dist[src] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: src,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node] {
            continue;
        }
        settled += 1;
        if node == dst {
            return Ok(build_route(graph, &prev, src, dst, cost, settled));
        }
        for e in graph.out_edges(node) {
            let nd = cost + e.weight;
            if nd < dist[e.to] {
                dist[e.to] = nd;
                prev[e.to] = node;
                heap.push(HeapEntry {
                    cost: nd,
                    node: e.to,
                });
            }
        }
    }
    Err(RouteError::NoPath)
}

/// One-to-many Dijkstra: costs from `from` to every node in `targets`.
///
/// Returns `f64::INFINITY` for unreachable targets, and searches nothing
/// when no target is in the graph. Used by map servers to produce portal
/// cost matrices for stitching (paper §5.2).
pub fn dijkstra_many(graph: &RoadGraph, from: NodeId, targets: &[NodeId]) -> Vec<f64> {
    let target_idx: Vec<Option<usize>> = targets.iter().map(|t| graph.index_of(*t)).collect();
    let mut remaining: usize = target_idx.iter().flatten().count();
    let Some(src) = graph.index_of(from).filter(|_| remaining > 0) else {
        return vec![f64::INFINITY; targets.len()];
    };
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    heap.push(HeapEntry {
        cost: 0.0,
        node: src,
    });
    let mut found = vec![false; n];
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node] {
            continue;
        }
        if !found[node] && target_idx.contains(&Some(node)) {
            found[node] = true;
            remaining =
                remaining.saturating_sub(target_idx.iter().filter(|t| **t == Some(node)).count());
            if remaining == 0 {
                break;
            }
        }
        for e in graph.out_edges(node) {
            let nd = cost + e.weight;
            if nd < dist[e.to] {
                dist[e.to] = nd;
                heap.push(HeapEntry {
                    cost: nd,
                    node: e.to,
                });
            }
        }
    }
    target_idx
        .iter()
        .map(|t| t.map(|i| dist[i]).unwrap_or(f64::INFINITY))
        .collect()
}

/// Bidirectional Dijkstra: simultaneous forward and backward searches
/// meeting in the middle; settles far fewer nodes than unidirectional on
/// road networks.
pub fn bidirectional(graph: &RoadGraph, from: NodeId, to: NodeId) -> Result<Route, RouteError> {
    let src = graph
        .index_of(from)
        .ok_or(RouteError::NodeNotInGraph(from.0))?;
    let dst = graph.index_of(to).ok_or(RouteError::NodeNotInGraph(to.0))?;
    if src == dst {
        return Ok(graph.route_from_indices(&[src], 0.0, 0));
    }
    let n = graph.node_count();
    let mut dist_f = vec![f64::INFINITY; n];
    let mut dist_b = vec![f64::INFINITY; n];
    let mut prev_f = vec![usize::MAX; n];
    let mut prev_b = vec![usize::MAX; n];
    let mut heap_f = BinaryHeap::new();
    let mut heap_b = BinaryHeap::new();
    dist_f[src] = 0.0;
    dist_b[dst] = 0.0;
    heap_f.push(HeapEntry {
        cost: 0.0,
        node: src,
    });
    heap_b.push(HeapEntry {
        cost: 0.0,
        node: dst,
    });
    let mut best = f64::INFINITY;
    let mut meet = usize::MAX;
    let mut settled = 0usize;
    // Alternate the smaller frontier; stop when the sum of the two
    // frontier minima can no longer improve the best meeting.
    loop {
        let top_f = heap_f.peek().map(|e| e.cost).unwrap_or(f64::INFINITY);
        let top_b = heap_b.peek().map(|e| e.cost).unwrap_or(f64::INFINITY);
        if top_f + top_b >= best || (heap_f.is_empty() && heap_b.is_empty()) {
            break;
        }
        let forward = top_f <= top_b;
        let (heap, dist, prev, other_dist) = if forward {
            (&mut heap_f, &mut dist_f, &mut prev_f, &dist_b)
        } else {
            (&mut heap_b, &mut dist_b, &mut prev_b, &dist_f)
        };
        let Some(HeapEntry { cost, node }) = heap.pop() else {
            continue;
        };
        if cost > dist[node] {
            continue;
        }
        settled += 1;
        if other_dist[node].is_finite() && cost + other_dist[node] < best {
            best = cost + other_dist[node];
            meet = node;
        }
        let edges = if forward {
            graph.out_edges(node)
        } else {
            graph.in_edges(node)
        };
        for e in edges {
            let nd = cost + e.weight;
            if nd < dist[e.to] {
                dist[e.to] = nd;
                prev[e.to] = node;
                heap.push(HeapEntry {
                    cost: nd,
                    node: e.to,
                });
            }
        }
    }
    if meet == usize::MAX {
        return Err(RouteError::NoPath);
    }
    // Reconstruct: src → meet from the forward tree, meet → dst from the
    // backward tree.
    let mut forward_part = trace(&prev_f, src, meet);
    let mut cur = prev_b[meet];
    while cur != usize::MAX {
        forward_part.push(cur);
        if cur == dst {
            break;
        }
        cur = prev_b[cur];
    }
    Ok(graph.route_from_indices(&forward_part, best, settled))
}

fn trace(prev: &[usize], src: usize, end: usize) -> Vec<usize> {
    let mut path = vec![end];
    let mut cur = end;
    while cur != src {
        cur = prev[cur];
        debug_assert!(cur != usize::MAX, "broken predecessor chain");
        path.push(cur);
    }
    path.reverse();
    path
}

fn build_route(
    graph: &RoadGraph,
    prev: &[usize],
    src: usize,
    dst: usize,
    cost: f64,
    settled: usize,
) -> Route {
    let path = trace(prev, src, dst);
    graph.route_from_indices(&path, cost, settled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Profile;
    use openflame_geo::Point2;
    use openflame_mapdata::{GeoReference, MapDocument, Tags};

    /// A 4×4 grid of footways with 10 m spacing.
    fn grid_map() -> (MapDocument, Vec<Vec<NodeId>>) {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        let mut ids = vec![vec![]; 4];
        for (r, row) in ids.iter_mut().enumerate() {
            for c in 0..4 {
                row.push(map.add_node(Point2::new(c as f64 * 10.0, r as f64 * 10.0), Tags::new()));
            }
        }
        for row in &ids {
            map.add_way(row.clone(), Tags::new().with("highway", "footway"))
                .unwrap();
        }
        for c in 0..4 {
            let col: Vec<NodeId> = ids.iter().map(|row| row[c]).collect();
            map.add_way(col, Tags::new().with("highway", "footway"))
                .unwrap();
        }
        (map, ids)
    }

    #[test]
    fn dijkstra_straight_line() {
        let (map, ids) = grid_map();
        let g = RoadGraph::from_map(&map, Profile::Walking);
        let r = dijkstra(&g, ids[0][0], ids[0][3]).unwrap();
        assert!((r.length_m - 30.0).abs() < 1e-9);
        assert_eq!(r.nodes.len(), 4);
        assert!((r.cost - 30.0 / 1.4).abs() < 1e-9);
    }

    #[test]
    fn dijkstra_manhattan_distance_on_grid() {
        let (map, ids) = grid_map();
        let g = RoadGraph::from_map(&map, Profile::Walking);
        let r = dijkstra(&g, ids[0][0], ids[3][3]).unwrap();
        assert!(
            (r.length_m - 60.0).abs() < 1e-9,
            "grid shortest path is manhattan"
        );
    }

    #[test]
    fn dijkstra_same_node() {
        let (map, ids) = grid_map();
        let g = RoadGraph::from_map(&map, Profile::Walking);
        let r = dijkstra(&g, ids[1][1], ids[1][1]).unwrap();
        assert_eq!(r.nodes, vec![ids[1][1]]);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn dijkstra_unknown_node_errors() {
        let (map, ids) = grid_map();
        let g = RoadGraph::from_map(&map, Profile::Walking);
        assert!(matches!(
            dijkstra(&g, NodeId(99999), ids[0][0]),
            Err(RouteError::NodeNotInGraph(99999))
        ));
    }

    #[test]
    fn disconnected_components_no_path() {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        let a = map.add_node(Point2::new(0.0, 0.0), Tags::new());
        let b = map.add_node(Point2::new(10.0, 0.0), Tags::new());
        let c = map.add_node(Point2::new(100.0, 0.0), Tags::new());
        let d = map.add_node(Point2::new(110.0, 0.0), Tags::new());
        map.add_way(vec![a, b], Tags::new().with("highway", "footway"))
            .unwrap();
        map.add_way(vec![c, d], Tags::new().with("highway", "footway"))
            .unwrap();
        let g = RoadGraph::from_map(&map, Profile::Walking);
        assert_eq!(dijkstra(&g, a, d), Err(RouteError::NoPath));
        assert_eq!(bidirectional(&g, a, d), Err(RouteError::NoPath));
    }

    #[test]
    fn bidirectional_matches_dijkstra_cost() {
        let (map, ids) = grid_map();
        let g = RoadGraph::from_map(&map, Profile::Walking);
        for (s, t) in [
            (ids[0][0], ids[3][3]),
            (ids[1][2], ids[2][0]),
            (ids[0][3], ids[3][0]),
        ] {
            let d = dijkstra(&g, s, t).unwrap();
            let b = bidirectional(&g, s, t).unwrap();
            assert!((d.cost - b.cost).abs() < 1e-9, "{s:?}->{t:?}");
            // The path itself must be valid and connect s to t.
            assert_eq!(b.nodes.first(), Some(&s));
            assert_eq!(b.nodes.last(), Some(&t));
        }
    }

    #[test]
    fn bidirectional_settles_fewer_on_long_paths() {
        // A long chain: bidirectional should explore roughly half.
        let mut map = MapDocument::new(GeoReference::Unaligned);
        let ids: Vec<NodeId> = (0..200)
            .map(|i| map.add_node(Point2::new(i as f64 * 5.0, 0.0), Tags::new()))
            .collect();
        map.add_way(ids.clone(), Tags::new().with("highway", "footway"))
            .unwrap();
        let g = RoadGraph::from_map(&map, Profile::Walking);
        let d = dijkstra(&g, ids[0], ids[199]).unwrap();
        let b = bidirectional(&g, ids[0], ids[199]).unwrap();
        assert!((d.cost - b.cost).abs() < 1e-9);
        assert!(
            b.settled <= d.settled,
            "bidir {} vs dijkstra {}",
            b.settled,
            d.settled
        );
    }

    #[test]
    fn oneway_affects_driving_direction() {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        let a = map.add_node(Point2::new(0.0, 0.0), Tags::new());
        let b = map.add_node(Point2::new(100.0, 0.0), Tags::new());
        map.add_way(
            vec![a, b],
            Tags::new()
                .with("highway", "residential")
                .with("oneway", "yes"),
        )
        .unwrap();
        let g = RoadGraph::from_map(&map, Profile::Driving);
        assert!(dijkstra(&g, a, b).is_ok());
        assert_eq!(dijkstra(&g, b, a), Err(RouteError::NoPath));
    }

    #[test]
    fn dijkstra_many_costs() {
        let (map, ids) = grid_map();
        let g = RoadGraph::from_map(&map, Profile::Walking);
        let targets = [ids[0][3], ids[3][3], NodeId(98765), ids[0][0]];
        let costs = dijkstra_many(&g, ids[0][0], &targets);
        assert!((costs[0] - 30.0 / 1.4).abs() < 1e-9);
        assert!((costs[1] - 60.0 / 1.4).abs() < 1e-9);
        assert!(costs[2].is_infinite(), "unknown target is unreachable");
        assert_eq!(costs[3], 0.0);
    }

    #[test]
    fn dijkstra_many_without_a_target_in_the_graph_searches_nothing() {
        let (map, ids) = grid_map();
        let g = RoadGraph::from_map(&map, Profile::Walking);
        assert_eq!(dijkstra_many(&g, ids[0][0], &[]), Vec::<f64>::new());
        let unknown = [NodeId(98765), NodeId(98766)];
        assert_eq!(dijkstra_many(&g, ids[0][0], &unknown), [f64::INFINITY; 2]);
    }
}
