//! Contraction hierarchies: preprocessing-based fast shortest paths.
//!
//! The centralized map model (paper §4.1) preprocesses the routing graph with
//! contraction hierarchies "which makes routing queries faster to
//! compute" (citing Geisberger et al., ref. 11). This module implements
//! the algorithm from scratch:
//!
//! - **Preprocessing**: nodes are contracted in priority order (edge
//!   difference + contracted-neighbor count, with lazy re-evaluation).
//!   Contracting node `v` inserts a shortcut `u → w` for each pair of
//!   neighbors whose shortest connection runs through `v`, unless a
//!   bounded *witness search* finds an equally good detour.
//! - **Query**: a bidirectional Dijkstra where both searches only relax
//!   edges toward higher-ranked nodes; the meeting node with minimal
//!   combined distance yields the exact shortest path.
//! - **Unpacking**: shortcuts expand recursively into original edges so
//!   callers get the full node sequence.
//!
//! Witness searches are budgeted (settle limit), which can only cause
//! *extra* shortcuts — never an incorrect distance.

use crate::dijkstra::HeapEntry;
use crate::graph::{RoadGraph, Route};
use crate::RouteError;
use openflame_mapdata::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Budget for each witness search during preprocessing.
const WITNESS_SETTLE_LIMIT: usize = 64;

#[derive(Debug, Clone, Copy)]
struct ChEdge {
    to: usize,
    weight: f64,
}

/// A preprocessed contraction hierarchy over a road graph.
///
/// # Examples
///
/// ```
/// use openflame_geo::Point2;
/// use openflame_mapdata::{GeoReference, MapDocument, Tags};
/// use openflame_routing::{dijkstra, ContractionHierarchy, Profile, RoadGraph};
///
/// let mut map = MapDocument::new(GeoReference::Unaligned);
/// let a = map.add_node(Point2::new(0.0, 0.0), Tags::new());
/// let b = map.add_node(Point2::new(50.0, 0.0), Tags::new());
/// let c = map.add_node(Point2::new(100.0, 0.0), Tags::new());
/// map.add_way(vec![a, b, c], Tags::new().with("highway", "footway")).unwrap();
/// let graph = RoadGraph::from_map(&map, Profile::Walking);
/// let ch = ContractionHierarchy::build(&graph);
/// let fast = ch.query(a, c).unwrap();
/// let slow = dijkstra(&graph, a, c).unwrap();
/// assert!((fast.cost - slow.cost).abs() < 1e-9);
/// ```
pub struct ContractionHierarchy {
    graph: RoadGraph,
    /// Contraction order (higher = more important). Queries need only
    /// the upward graphs built from it; the determinism test compares
    /// it across builds.
    #[cfg_attr(not(test), allow(dead_code))]
    rank: Vec<usize>,
    up_out: Vec<Vec<ChEdge>>,
    up_in: Vec<Vec<ChEdge>>,
    /// Directed shortcut expansion: `(from, to) → via`.
    unpack: HashMap<(usize, usize), usize>,
}

impl ContractionHierarchy {
    /// Preprocesses `graph` into a hierarchy. The graph is cloned so the
    /// hierarchy is self-contained.
    pub fn build(graph: &RoadGraph) -> Self {
        let n = graph.node_count();
        // Working adjacency: (to → (weight, via)) per node, both
        // directions, updated as shortcuts appear.
        let mut out: Vec<HashMap<usize, f64>> = vec![HashMap::new(); n];
        let mut inn: Vec<HashMap<usize, f64>> = vec![HashMap::new(); n];
        let mut unpack: HashMap<(usize, usize), usize> = HashMap::new();
        for (u, out_u) in out.iter_mut().enumerate() {
            for e in graph.out_edges(u) {
                let w = out_u.entry(e.to).or_insert(f64::INFINITY);
                *w = w.min(e.weight);
                let r = inn[e.to].entry(u).or_insert(f64::INFINITY);
                *r = r.min(e.weight);
            }
        }
        let mut contracted = vec![false; n];
        let mut rank = vec![0usize; n];
        let mut deleted_neighbors = vec![0usize; n];

        // Initial priorities.
        let mut queue: BinaryHeap<(Reverse<i64>, usize)> = (0..n)
            .map(|v| {
                (
                    Reverse(Self::priority(
                        v,
                        &out,
                        &inn,
                        &contracted,
                        &deleted_neighbors,
                    )),
                    v,
                )
            })
            .collect();

        let mut next_rank = 0usize;
        while let Some((Reverse(prio), v)) = queue.pop() {
            if contracted[v] {
                continue;
            }
            // Lazy update: if the recomputed priority is now worse than
            // the head of the queue, requeue.
            let fresh = Self::priority(v, &out, &inn, &contracted, &deleted_neighbors);
            if let Some(&(Reverse(top), _)) = queue.peek() {
                if fresh > top && fresh > prio {
                    queue.push((Reverse(fresh), v));
                    continue;
                }
            }
            // Contract v.
            contracted[v] = true;
            rank[v] = next_rank;
            next_rank += 1;
            let mut preds: Vec<(usize, f64)> = inn[v]
                .iter()
                .filter(|(u, _)| !contracted[**u])
                .map(|(u, w)| (*u, *w))
                .collect();
            let mut succs: Vec<(usize, f64)> = out[v]
                .iter()
                .filter(|(w, _)| !contracted[**w])
                .map(|(w, wt)| (*w, *wt))
                .collect();
            // The adjacency maps iterate in `RandomState` order, and
            // the pair order decides which shortcuts earlier pairs leave
            // for later witness searches and which of two equal-cost
            // shortcuts wins: fix it, or two builds of one graph differ.
            preds.sort_unstable_by_key(|&(u, _)| u);
            succs.sort_unstable_by_key(|&(w, _)| w);
            for &(u, w_uv) in &preds {
                deleted_neighbors[u] += 1;
                for &(w, w_vw) in &succs {
                    if u == w {
                        continue;
                    }
                    let through = w_uv + w_vw;
                    if Self::has_witness(u, w, v, through, &out, &contracted) {
                        continue;
                    }
                    // Insert / improve shortcut u → w.
                    let cur = out[u].entry(w).or_insert(f64::INFINITY);
                    if through < *cur {
                        *cur = through;
                        inn[w].insert(u, through);
                        unpack.insert((u, w), v);
                    }
                }
            }
            for &(w, _) in &succs {
                deleted_neighbors[w] += 1;
            }
        }

        // Build the final upward graphs.
        let mut up_out = vec![Vec::new(); n];
        let mut up_in = vec![Vec::new(); n];
        for u in 0..n {
            for (&v, &w) in &out[u] {
                if rank[v] > rank[u] {
                    up_out[u].push(ChEdge { to: v, weight: w });
                }
            }
            for (&v, &w) in &inn[u] {
                // Original edge v → u; backward search goes u → v upward.
                if rank[v] > rank[u] {
                    up_in[u].push(ChEdge { to: v, weight: w });
                }
            }
        }
        Self {
            graph: graph.clone(),
            rank,
            up_out,
            up_in,
            unpack,
        }
    }

    fn priority(
        v: usize,
        out: &[HashMap<usize, f64>],
        inn: &[HashMap<usize, f64>],
        contracted: &[bool],
        deleted_neighbors: &[usize],
    ) -> i64 {
        let preds: Vec<(usize, f64)> = inn[v]
            .iter()
            .filter(|(u, _)| !contracted[**u])
            .map(|(u, w)| (*u, *w))
            .collect();
        let succs: Vec<(usize, f64)> = out[v]
            .iter()
            .filter(|(w, _)| !contracted[**w])
            .map(|(w, wt)| (*w, *wt))
            .collect();
        let mut shortcuts = 0i64;
        for &(u, w_uv) in &preds {
            for &(w, w_vw) in &succs {
                if u == w {
                    continue;
                }
                if !Self::has_witness(u, w, v, w_uv + w_vw, out, contracted) {
                    shortcuts += 1;
                }
            }
        }
        let removed = (preds.len() + succs.len()) as i64;
        // Classic blend: edge difference plus contracted-neighbor count
        // keeps contraction spatially uniform.
        shortcuts - removed + 2 * deleted_neighbors[v] as i64
    }

    /// Bounded Dijkstra: is there a path `u → w` avoiding `v` with cost
    /// ≤ `cap` among uncontracted nodes?
    fn has_witness(
        u: usize,
        w: usize,
        v: usize,
        cap: f64,
        out: &[HashMap<usize, f64>],
        contracted: &[bool],
    ) -> bool {
        if u == w {
            return true;
        }
        let mut dist: HashMap<usize, f64> = HashMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(u, 0.0);
        heap.push(HeapEntry { cost: 0.0, node: u });
        let mut settles = 0usize;
        while let Some(HeapEntry { cost, node }) = heap.pop() {
            if cost > *dist.get(&node).unwrap_or(&f64::INFINITY) {
                continue;
            }
            if cost > cap {
                return false;
            }
            if node == w {
                return cost <= cap;
            }
            settles += 1;
            if settles > WITNESS_SETTLE_LIMIT {
                // Budget exhausted: conservatively report no witness.
                return false;
            }
            for (&next, &weight) in &out[node] {
                if next == v || contracted[next] {
                    continue;
                }
                let nd = cost + weight;
                if nd < *dist.get(&next).unwrap_or(&f64::INFINITY) && nd <= cap {
                    dist.insert(next, nd);
                    heap.push(HeapEntry {
                        cost: nd,
                        node: next,
                    });
                }
            }
        }
        false
    }

    /// Exact shortest path between two map nodes.
    ///
    /// Flat-array bidirectional upward search: both directions run to
    /// exhaustion of their (small) upward search spaces with pruning
    /// against the best meeting found so far.
    pub fn query(&self, from: NodeId, to: NodeId) -> Result<Route, RouteError> {
        let src = self
            .graph
            .index_of(from)
            .ok_or(RouteError::NodeNotInGraph(from.0))?;
        let dst = self
            .graph
            .index_of(to)
            .ok_or(RouteError::NodeNotInGraph(to.0))?;
        if src == dst {
            return Ok(self.graph.route_from_indices(&[src], 0.0, 0));
        }
        let n = self.graph.node_count();
        let mut dist_f = vec![f64::INFINITY; n];
        let mut dist_b = vec![f64::INFINITY; n];
        let mut prev_f = vec![usize::MAX; n];
        let mut prev_b = vec![usize::MAX; n];
        let mut best = f64::INFINITY;
        let mut meet = usize::MAX;
        let mut settled = 0usize;
        // Both upward searches, interleaved by cheapest frontier so the
        // meeting bound starts pruning as early as possible.
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
        while !heap_f.is_empty() || !heap_b.is_empty() {
            let top_f = heap_f.peek().map(|e| e.cost).unwrap_or(f64::INFINITY);
            let top_b = heap_b.peek().map(|e| e.cost).unwrap_or(f64::INFINITY);
            if top_f.min(top_b) > best {
                break;
            }
            let forward = top_f <= top_b;
            let (heap, dist, prev, other_dist, up) = if forward {
                (&mut heap_f, &mut dist_f, &mut prev_f, &dist_b, &self.up_out)
            } else {
                (&mut heap_b, &mut dist_b, &mut prev_b, &dist_f, &self.up_in)
            };
            let Some(HeapEntry { cost, node }) = heap.pop() else {
                continue;
            };
            if cost > dist[node] || cost > best {
                // Stale entry, or provably unable to improve the best
                // meeting (upward costs only grow).
                continue;
            }
            settled += 1;
            if other_dist[node].is_finite() && cost + other_dist[node] < best {
                best = cost + other_dist[node];
                meet = node;
            }
            for e in &up[node] {
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
        // Upward chains: src → meet (forward), meet → dst (backward).
        let mut up_path = Vec::new();
        let mut cur = meet;
        while cur != src {
            let p = prev_f[cur];
            up_path.push((p, cur));
            cur = p;
        }
        up_path.reverse();
        let mut down_path = Vec::new();
        cur = meet;
        while cur != dst {
            // prev_b[x] = a means the backward search reached x from a,
            // i.e. the original-direction edge x → a is on the path.
            let p = prev_b[cur];
            down_path.push((cur, p));
            cur = p;
        }
        // Expand shortcuts into original node sequences.
        let mut indices = vec![src];
        for (a, b) in up_path.into_iter().chain(down_path) {
            self.expand(a, b, &mut indices);
        }
        Ok(self.graph.route_from_indices(&indices, best, settled))
    }

    /// Appends the expansion of edge `(a, b)` to `path` (excluding `a`,
    /// which is already present).
    fn expand(&self, a: usize, b: usize, path: &mut Vec<usize>) {
        if let Some(&via) = self.unpack.get(&(a, b)) {
            self.expand(a, via, path);
            self.expand(via, b, path);
        } else {
            path.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::graph::Profile;
    use openflame_geo::Point2;
    use openflame_mapdata::{GeoReference, MapDocument, Tags};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_graph(n: usize) -> (RoadGraph, Vec<NodeId>) {
        grid_graph_with_express(n, 1)
    }

    /// An `n x n` grid of footways; `express > 1` adds, along every row
    /// and column, a second way stopping only at every `express`-th
    /// node — exactly as long as the local hops it skips, so the graph
    /// is dense with equal-cost alternatives.
    fn grid_graph_with_express(n: usize, express: usize) -> (RoadGraph, Vec<NodeId>) {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        let mut ids = Vec::new();
        for r in 0..n {
            for c in 0..n {
                ids.push(map.add_node(Point2::new(c as f64 * 10.0, r as f64 * 10.0), Tags::new()));
            }
        }
        let footway = || Tags::new().with("highway", "footway");
        for r in 0..n {
            for step in [1, express] {
                let row: Vec<NodeId> = (0..n).step_by(step).map(|c| ids[r * n + c]).collect();
                map.add_way(row, footway()).unwrap();
                let col: Vec<NodeId> = (0..n).step_by(step).map(|c| ids[c * n + r]).collect();
                map.add_way(col, footway()).unwrap();
            }
        }
        (RoadGraph::from_map(&map, Profile::Walking), ids)
    }

    #[test]
    fn ch_matches_dijkstra_on_grid() {
        let (g, ids) = grid_graph(7);
        let ch = ContractionHierarchy::build(&g);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let s = ids[rng.gen_range(0..ids.len())];
            let t = ids[rng.gen_range(0..ids.len())];
            let d = dijkstra(&g, s, t).unwrap();
            let c = ch.query(s, t).unwrap();
            assert!(
                (d.cost - c.cost).abs() < 1e-6,
                "{s:?}->{t:?}: dijkstra {} ch {}",
                d.cost,
                c.cost
            );
        }
    }

    #[test]
    fn two_builds_of_one_graph_are_identical() {
        // Each build's adjacency maps hash under their own
        // `RandomState`, so any iteration order leaking into the
        // hierarchy shows up as two builds disagreeing. It only can
        // where equal-cost alternatives exist: an edge beside an
        // equally long two-hop path makes witness searches tie.
        let (g, ids) = grid_graph_with_express(8, 2);
        let a = ContractionHierarchy::build(&g);
        for _ in 0..3 {
            let b = ContractionHierarchy::build(&g);
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.unpack, b.unpack);
            for (i, &s) in ids.iter().enumerate() {
                for &t in ids.iter().skip(i % 3).step_by(3) {
                    assert_eq!(
                        a.query(s, t).unwrap().nodes,
                        b.query(s, t).unwrap().nodes,
                        "{s:?}->{t:?}: equal-cost alternatives resolved differently"
                    );
                }
            }
        }
    }

    #[test]
    fn ch_unpacked_path_is_contiguous_and_costs_match() {
        let (g, ids) = grid_graph(6);
        let ch = ContractionHierarchy::build(&g);
        let s = ids[0];
        let t = ids[ids.len() - 1];
        let route = ch.query(s, t).unwrap();
        assert_eq!(route.nodes.first(), Some(&s));
        assert_eq!(route.nodes.last(), Some(&t));
        // Recompute cost from the unpacked edges; must equal the
        // reported cost (all edges exist in the original graph).
        let mut total = 0.0;
        for w in route.nodes.windows(2) {
            let a = g.index_of(w[0]).unwrap();
            let b = g.index_of(w[1]).unwrap();
            let edge = g
                .out_edges(a)
                .iter()
                .find(|e| e.to == b)
                .expect("edge exists");
            total += edge.weight;
        }
        assert!(
            (total - route.cost).abs() < 1e-6,
            "unpacked {total} vs {}",
            route.cost
        );
    }

    #[test]
    fn ch_on_random_graphs_matches_dijkstra() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..8 {
            let mut map = MapDocument::new(GeoReference::Unaligned);
            let n = 30 + trial * 10;
            let ids: Vec<NodeId> = (0..n)
                .map(|_| {
                    map.add_node(
                        Point2::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0)),
                        Tags::new(),
                    )
                })
                .collect();
            // Random footway segments; some may be disconnected.
            for _ in 0..n * 2 {
                let a = ids[rng.gen_range(0..ids.len())];
                let b = ids[rng.gen_range(0..ids.len())];
                if a != b {
                    map.add_way(vec![a, b], Tags::new().with("highway", "footway"))
                        .unwrap();
                }
            }
            let g = RoadGraph::from_map(&map, Profile::Walking);
            let ch = ContractionHierarchy::build(&g);
            for _ in 0..20 {
                let s = ids[rng.gen_range(0..ids.len())];
                let t = ids[rng.gen_range(0..ids.len())];
                let d = dijkstra(&g, s, t);
                let c = ch.query(s, t);
                match (d, c) {
                    (Ok(d), Ok(c)) => assert!(
                        (d.cost - c.cost).abs() < 1e-6,
                        "trial {trial}: {} vs {}",
                        d.cost,
                        c.cost
                    ),
                    (Err(RouteError::NoPath), Err(RouteError::NoPath)) => {}
                    (Err(RouteError::NodeNotInGraph(_)), Err(RouteError::NodeNotInGraph(_))) => {}
                    (d, c) => panic!("trial {trial}: disagreement {d:?} vs {c:?}"),
                }
            }
        }
    }

    #[test]
    fn ch_settles_fewer_nodes_than_dijkstra() {
        let (g, ids) = grid_graph(14);
        let ch = ContractionHierarchy::build(&g);
        let s = ids[0];
        let t = ids[ids.len() - 1];
        let d = dijkstra(&g, s, t).unwrap();
        let c = ch.query(s, t).unwrap();
        assert!(
            c.settled < d.settled,
            "ch settled {} vs dijkstra {}",
            c.settled,
            d.settled
        );
    }

    #[test]
    fn ch_same_node_query() {
        let (g, ids) = grid_graph(3);
        let ch = ContractionHierarchy::build(&g);
        let r = ch.query(ids[4], ids[4]).unwrap();
        assert_eq!(r.cost, 0.0);
        assert_eq!(r.nodes, vec![ids[4]]);
    }

    #[test]
    fn ch_oneway_correctness() {
        // Driving graph with a one-way loop: s→t short one-way, t→s must
        // go around.
        let mut map = MapDocument::new(GeoReference::Unaligned);
        let a = map.add_node(Point2::new(0.0, 0.0), Tags::new());
        let b = map.add_node(Point2::new(100.0, 0.0), Tags::new());
        let c = map.add_node(Point2::new(100.0, 100.0), Tags::new());
        let d = map.add_node(Point2::new(0.0, 100.0), Tags::new());
        map.add_way(
            vec![a, b],
            Tags::new()
                .with("highway", "residential")
                .with("oneway", "yes"),
        )
        .unwrap();
        map.add_way(vec![b, c], Tags::new().with("highway", "residential"))
            .unwrap();
        map.add_way(vec![c, d], Tags::new().with("highway", "residential"))
            .unwrap();
        map.add_way(vec![d, a], Tags::new().with("highway", "residential"))
            .unwrap();
        let g = RoadGraph::from_map(&map, Profile::Driving);
        let ch = ContractionHierarchy::build(&g);
        let fwd = ch.query(a, b).unwrap();
        let back = ch.query(b, a).unwrap();
        assert!(
            back.length_m > fwd.length_m * 2.9,
            "return trip must loop around"
        );
        let d1 = dijkstra(&g, b, a).unwrap();
        assert!((back.cost - d1.cost).abs() < 1e-9);
    }
}
