//! Road graph extraction from map documents.

use openflame_geo::Point2;
use openflame_mapdata::{MapDocument, NodeId, Way, WayId};
use std::collections::HashMap;

/// Travel profile: which ways are usable and how fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// On foot: all routable ways, ~1.4 m/s, one-way restrictions
    /// ignored (pedestrians walk both directions).
    Walking,
    /// By car: road ways only, class/`maxspeed` speeds, one-way
    /// restrictions honored.
    Driving,
}

impl Profile {
    /// Speed in m/s on `way`, or `None` if the way is unusable under
    /// this profile.
    pub(crate) fn speed_on(&self, way: &Way) -> Option<f64> {
        let highway = way.tags.get("highway");
        let indoor = way.tags.get("indoor");
        match self {
            Profile::Walking => {
                // Pedestrians use everything except motorways, including
                // indoor corridors and aisles.
                match (highway, indoor) {
                    (Some("motorway"), _) => None,
                    (Some(_), _) | (_, Some(_)) => Some(1.4),
                    _ => None,
                }
            }
            Profile::Driving => {
                let class_speed_kmh = match highway? {
                    "motorway" => 90.0,
                    "primary" => 60.0,
                    "secondary" => 50.0,
                    "tertiary" => 40.0,
                    "residential" => 30.0,
                    "service" => 15.0,
                    // Footways, corridors, aisles: not drivable.
                    _ => return None,
                };
                let kmh = way
                    .tags
                    .get("maxspeed")
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or(class_speed_kmh);
                Some(kmh / 3.6)
            }
        }
    }

    /// Whether one-way restrictions apply.
    pub(crate) fn respects_oneway(&self) -> bool {
        matches!(self, Profile::Driving)
    }
}

/// A directed edge in the road graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Target graph index.
    pub to: usize,
    /// Travel cost in seconds.
    pub weight: f64,
    /// Ground distance in meters.
    pub dist_m: f64,
    /// Originating way.
    pub way: WayId,
}

/// A computed route.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Map node ids along the path, source first.
    pub nodes: Vec<NodeId>,
    /// Total cost in seconds.
    pub cost: f64,
    /// Total length in meters.
    pub length_m: f64,
    /// Number of queue settles the engine performed (work measure).
    pub settled: usize,
}

/// A directed weighted graph over a map document's routable ways.
///
/// # Examples
///
/// ```
/// use openflame_geo::Point2;
/// use openflame_mapdata::{GeoReference, MapDocument, Tags};
/// use openflame_routing::{dijkstra, Profile, RoadGraph};
///
/// let mut map = MapDocument::new(GeoReference::Unaligned);
/// let a = map.add_node(Point2::new(0.0, 0.0), Tags::new());
/// let b = map.add_node(Point2::new(100.0, 0.0), Tags::new());
/// map.add_way(vec![a, b], Tags::new().with("highway", "footway")).unwrap();
/// let graph = RoadGraph::from_map(&map, Profile::Walking);
/// let route = dijkstra(&graph, a, b).unwrap();
/// assert!((route.length_m - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RoadGraph {
    node_ids: Vec<NodeId>,
    positions: Vec<Point2>,
    index_of: HashMap<NodeId, usize>,
    out_edges: Vec<Vec<Edge>>,
    in_edges: Vec<Vec<Edge>>,
    max_speed: f64,
}

impl RoadGraph {
    /// Builds the graph for `profile` from all routable ways of `map`.
    pub fn from_map(map: &MapDocument, profile: Profile) -> Self {
        let mut g = RoadGraph {
            node_ids: Vec::new(),
            positions: Vec::new(),
            index_of: HashMap::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
            max_speed: 0.0,
        };
        for way in map.ways() {
            let Some(speed) = profile.speed_on(way) else {
                continue;
            };
            g.max_speed = g.max_speed.max(speed);
            let oneway = profile.respects_oneway() && way.is_oneway();
            for pair in way.nodes.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let (Some(na), Some(nb)) = (map.node(a), map.node(b)) else {
                    continue;
                };
                let dist = na.pos.distance(nb.pos);
                if dist < 1e-9 {
                    continue;
                }
                let ia = g.intern(a, na.pos);
                let ib = g.intern(b, nb.pos);
                g.add_edge(ia, ib, dist / speed, dist, way.id);
                if !oneway {
                    g.add_edge(ib, ia, dist / speed, dist, way.id);
                }
            }
        }
        g
    }

    fn intern(&mut self, id: NodeId, pos: Point2) -> usize {
        if let Some(&idx) = self.index_of.get(&id) {
            return idx;
        }
        let idx = self.node_ids.len();
        self.node_ids.push(id);
        self.positions.push(pos);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        self.index_of.insert(id, idx);
        idx
    }

    /// Adds a directed edge, keeping only the cheapest parallel edge.
    pub(crate) fn add_edge(
        &mut self,
        from: usize,
        to: usize,
        weight: f64,
        dist_m: f64,
        way: WayId,
    ) {
        if from == to {
            return;
        }
        if let Some(e) = self.out_edges[from].iter_mut().find(|e| e.to == to) {
            if weight < e.weight {
                e.weight = weight;
                e.dist_m = dist_m;
                e.way = way;
                if let Some(r) = self.in_edges[to].iter_mut().find(|e| e.to == from) {
                    r.weight = weight;
                    r.dist_m = dist_m;
                    r.way = way;
                }
            }
            return;
        }
        self.out_edges[from].push(Edge {
            to,
            weight,
            dist_m,
            way,
        });
        self.in_edges[to].push(Edge {
            to: from,
            weight,
            dist_m,
            way,
        });
    }

    /// Number of graph nodes.
    pub fn node_count(&self) -> usize {
        self.node_ids.len()
    }

    /// The graph index of a map node, if routable.
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.index_of.get(&id).copied()
    }

    /// The map node id at a graph index.
    pub fn node_id(&self, idx: usize) -> NodeId {
        self.node_ids[idx]
    }

    /// Node position in the document frame.
    pub fn position(&self, idx: usize) -> Point2 {
        self.positions[idx]
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, idx: usize) -> &[Edge] {
        &self.out_edges[idx]
    }

    /// Incoming edges of a node (each `Edge::to` is the *source*).
    pub(crate) fn in_edges(&self, idx: usize) -> &[Edge] {
        &self.in_edges[idx]
    }

    /// The fastest speed on any edge (m/s), for admissible A*
    /// heuristics.
    pub(crate) fn max_speed(&self) -> f64 {
        self.max_speed
    }

    /// The routable graph node nearest to a position.
    pub fn nearest_node(&self, pos: Point2) -> Option<usize> {
        (0..self.positions.len()).min_by(|&a, &b| {
            self.positions[a]
                .distance_sq(pos)
                .total_cmp(&self.positions[b].distance_sq(pos))
        })
    }

    /// Reconstructs a [`Route`] from graph-index predecessors.
    pub(crate) fn route_from_indices(&self, indices: &[usize], cost: f64, settled: usize) -> Route {
        let mut length = 0.0;
        for w in indices.windows(2) {
            length += self.positions[w[0]].distance(self.positions[w[1]]);
        }
        Route {
            nodes: indices.iter().map(|&i| self.node_ids[i]).collect(),
            cost,
            length_m: length,
            settled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_mapdata::{GeoReference, Tags};

    /// Number of directed edges.
    fn edge_count(g: &RoadGraph) -> usize {
        (0..g.node_count()).map(|i| g.out_edges(i).len()).sum()
    }

    /// One way spec: its node positions and its tags.
    type WaySpec<'a> = (&'a [(f64, f64)], &'a [(&'a str, &'a str)]);

    fn map_with_ways(ways: &[WaySpec<'_>]) -> (MapDocument, Vec<Vec<NodeId>>) {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        let mut all_ids = Vec::new();
        for (pts, tags) in ways {
            let ids: Vec<NodeId> = pts
                .iter()
                .map(|&(x, y)| map.add_node(Point2::new(x, y), Tags::new()))
                .collect();
            let mut t = Tags::new();
            for (k, v) in *tags {
                t.insert(*k, *v);
            }
            map.add_way(ids.clone(), t).unwrap();
            all_ids.push(ids);
        }
        (map, all_ids)
    }

    #[test]
    fn walking_uses_footways_both_directions() {
        let (map, ids) = map_with_ways(&[(
            &[(0.0, 0.0), (50.0, 0.0)],
            &[("highway", "footway"), ("oneway", "yes")],
        )]);
        let g = RoadGraph::from_map(&map, Profile::Walking);
        assert_eq!(g.node_count(), 2);
        // Oneway ignored for pedestrians: both directions present.
        assert_eq!(edge_count(&g), 2);
        let ia = g.index_of(ids[0][0]).unwrap();
        assert_eq!(g.out_edges(ia).len(), 1);
        assert!((g.out_edges(ia)[0].weight - 50.0 / 1.4).abs() < 1e-9);
    }

    #[test]
    fn driving_respects_oneway_and_skips_footways() {
        let (map, ids) = map_with_ways(&[
            (
                &[(0.0, 0.0), (100.0, 0.0)],
                &[("highway", "residential"), ("oneway", "yes")],
            ),
            (&[(0.0, 10.0), (100.0, 10.0)], &[("highway", "footway")]),
        ]);
        let g = RoadGraph::from_map(&map, Profile::Driving);
        // Footway not drivable: only the residential segment, one way.
        assert_eq!(g.node_count(), 2);
        assert_eq!(edge_count(&g), 1);
        let ia = g.index_of(ids[0][0]).unwrap();
        let edge = g.out_edges(ia)[0];
        // 30 km/h default for residential.
        assert!((edge.weight - 100.0 / (30.0 / 3.6)).abs() < 1e-6);
    }

    #[test]
    fn maxspeed_tag_overrides_class_default() {
        let (map, ids) = map_with_ways(&[(
            &[(0.0, 0.0), (100.0, 0.0)],
            &[("highway", "residential"), ("maxspeed", "50")],
        )]);
        let g = RoadGraph::from_map(&map, Profile::Driving);
        let ia = g.index_of(ids[0][0]).unwrap();
        assert!((g.out_edges(ia)[0].weight - 100.0 / (50.0 / 3.6)).abs() < 1e-6);
    }

    #[test]
    fn indoor_ways_walkable() {
        let (map, _) = map_with_ways(&[(&[(0.0, 0.0), (5.0, 0.0)], &[("indoor", "corridor")])]);
        assert_eq!(edge_count(&RoadGraph::from_map(&map, Profile::Walking)), 2);
        assert_eq!(edge_count(&RoadGraph::from_map(&map, Profile::Driving)), 0);
    }

    #[test]
    fn untagged_ways_ignored() {
        let (map, _) = map_with_ways(&[(&[(0.0, 0.0), (5.0, 0.0)], &[])]);
        assert_eq!(RoadGraph::from_map(&map, Profile::Walking).node_count(), 0);
    }

    #[test]
    fn parallel_edges_keep_cheapest() {
        let (map, ids) = map_with_ways(&[(&[(0.0, 0.0), (100.0, 0.0)], &[("highway", "service")])]);
        let mut g = RoadGraph::from_map(&map, Profile::Walking);
        let ia = g.index_of(ids[0][0]).unwrap();
        let ib = g.index_of(ids[0][1]).unwrap();
        let original = g.out_edges(ia)[0].weight;
        // A cheaper parallel edge replaces; an expensive one is ignored.
        g.add_edge(ia, ib, original + 100.0, 100.0, WayId(99));
        assert_eq!(g.out_edges(ia).len(), 1);
        assert!((g.out_edges(ia)[0].weight - original).abs() < 1e-12);
        g.add_edge(ia, ib, original / 2.0, 100.0, WayId(100));
        assert_eq!(g.out_edges(ia).len(), 1);
        assert!((g.out_edges(ia)[0].weight - original / 2.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_node_lookup() {
        let (map, ids) = map_with_ways(&[(
            &[(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)],
            &[("highway", "footway")],
        )]);
        let g = RoadGraph::from_map(&map, Profile::Walking);
        let near = g.nearest_node(Point2::new(95.0, 10.0)).unwrap();
        assert_eq!(g.node_id(near), ids[0][1]);
        let empty =
            RoadGraph::from_map(&MapDocument::new(GeoReference::Unaligned), Profile::Walking);
        assert!(empty.nearest_node(Point2::ZERO).is_none());
    }

    #[test]
    fn zero_length_segments_skipped() {
        let mut map = MapDocument::new(GeoReference::Unaligned);
        let a = map.add_node(Point2::new(0.0, 0.0), Tags::new());
        let b = map.add_node(Point2::new(0.0, 0.0), Tags::new());
        map.add_way(vec![a, b], Tags::new().with("highway", "footway"))
            .unwrap();
        let g = RoadGraph::from_map(&map, Profile::Walking);
        assert_eq!(edge_count(&g), 0);
    }
}
