//! The map document: element storage, indices, and geo-referencing.

use crate::element::{ElementId, Node, NodeId, Way, WayId};
use crate::spatial::SpatialGrid;
use crate::{MapError, Tags};
use openflame_geo::{LatLng, LocalFrame, Point2};
use std::collections::BTreeMap;

/// How a document's local metric frame relates to geographic space.
///
/// This encodes the heterogeneity challenge from paper §3 of the paper: a
/// well-surveyed outdoor map knows its anchor exactly, while an indoor
/// map surveyed with consumer tools only knows *roughly* where it is
/// (e.g. from the street address), and its rotation/scale relative to
/// true north may be arbitrary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeoReference {
    /// Precisely georeferenced: the document frame is the east-north-up
    /// tangent plane at `origin`.
    Anchored {
        /// Geodetic anchor of the frame origin.
        origin: LatLng,
    },
    /// Not aligned to the geographic frame: its positions name no
    /// place. Where the mapped space lies is its server's registration
    /// to say, not the map's.
    Unaligned,
}

impl GeoReference {
    /// The geographic position of a local point, if the frame is
    /// anchored.
    pub fn to_geo(&self, p: Point2) -> Option<LatLng> {
        match self {
            GeoReference::Anchored { origin } => Some(LocalFrame::new(*origin).from_local(p)),
            GeoReference::Unaligned => None,
        }
    }

    /// The local position of a geographic point, if the frame is
    /// anchored.
    pub fn from_geo(&self, p: LatLng) -> Option<Point2> {
        match self {
            GeoReference::Anchored { origin } => Some(LocalFrame::new(*origin).to_local(p)),
            GeoReference::Unaligned => None,
        }
    }
}

/// Document metadata.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MapMeta {
    /// Monotonically increasing data version, bumped by patches.
    pub version: u64,
}

/// A complete map: elements plus indices.
///
/// # Examples
///
/// ```
/// use openflame_mapdata::{MapDocument, GeoReference, Tags};
/// use openflame_geo::{LatLng, Point2};
///
/// let mut map = MapDocument::new(GeoReference::Anchored {
///     origin: LatLng::new(40.44, -79.94).unwrap(),
/// });
/// let a = map.add_node(Point2::new(0.0, 0.0), Tags::new().with("name", "corner"));
/// let b = map.add_node(Point2::new(100.0, 0.0), Tags::new());
/// let road = map.add_way(vec![a, b], Tags::new().with("highway", "residential")).unwrap();
/// assert!(map.validate().is_ok());
/// assert_eq!(map.way(road).unwrap().nodes.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MapDocument {
    meta: MapMeta,
    georef: GeoReference,
    nodes: BTreeMap<NodeId, Node>,
    ways: BTreeMap<WayId, Way>,
    grid: SpatialGrid,
    next_id: u64,
}

/// Spatial-grid bucket size: indoor shelves cluster at meter scale,
/// city blocks at hundreds of meters; 25 m balances both.
const GRID_CELL_M: f64 = 25.0;

impl MapDocument {
    /// Creates an empty document.
    pub fn new(georef: GeoReference) -> Self {
        Self {
            meta: MapMeta::default(),
            georef,
            nodes: BTreeMap::new(),
            ways: BTreeMap::new(),
            grid: SpatialGrid::new(GRID_CELL_M),
            next_id: 1,
        }
    }

    /// Document metadata.
    pub fn meta(&self) -> &MapMeta {
        &self.meta
    }

    /// Bumps the data version (called by patch application).
    pub fn bump_version(&mut self) {
        self.meta.version += 1;
    }

    /// The document's geo-reference.
    pub fn georef(&self) -> GeoReference {
        self.georef
    }

    /// Allocates a fresh element id number.
    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    // ---------------- nodes ----------------

    /// Adds a node with a fresh id; returns the id.
    pub fn add_node(&mut self, pos: Point2, tags: Tags) -> NodeId {
        let id = NodeId(self.alloc_id());
        self.insert_node(Node::new(id, pos, tags))
            .expect("fresh id cannot collide");
        id
    }

    /// Inserts a node with a caller-chosen id.
    pub(crate) fn insert_node(&mut self, node: Node) -> Result<(), MapError> {
        if self.nodes.contains_key(&node.id) {
            return Err(MapError::DuplicateId(ElementId::Node(node.id)));
        }
        self.next_id = self.next_id.max(node.id.0.saturating_add(1));
        self.grid.insert(node.id, node.pos);
        self.nodes.insert(node.id, node);
        Ok(())
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// Replaces a node's tags.
    pub fn set_node_tags(&mut self, id: NodeId, tags: Tags) -> Result<(), MapError> {
        let node = self
            .nodes
            .get_mut(&id)
            .ok_or(MapError::NotFound(ElementId::Node(id)))?;
        node.tags = tags;
        Ok(())
    }

    /// Moves a node to a new position, keeping the index consistent.
    pub(crate) fn move_node(&mut self, id: NodeId, pos: Point2) -> Result<(), MapError> {
        let node = self
            .nodes
            .get_mut(&id)
            .ok_or(MapError::NotFound(ElementId::Node(id)))?;
        self.grid.update(id, node.pos, pos);
        node.pos = pos;
        Ok(())
    }

    /// Removes a node. Fails if any way still references it.
    pub(crate) fn remove_node(&mut self, id: NodeId) -> Result<Node, MapError> {
        if let Some(way) = self.ways.values().find(|w| w.nodes.contains(&id)) {
            return Err(MapError::MissingReference {
                referrer: ElementId::Way(way.id),
                referee: ElementId::Node(id),
            });
        }
        let node = self
            .nodes
            .remove(&id)
            .ok_or(MapError::NotFound(ElementId::Node(id)))?;
        self.grid.remove(id, node.pos);
        Ok(node)
    }

    /// Iterates all nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    // ---------------- ways ----------------

    /// Adds a way over existing nodes with a fresh id.
    pub fn add_way(&mut self, nodes: Vec<NodeId>, tags: Tags) -> Result<WayId, MapError> {
        let id = WayId(self.alloc_id());
        self.insert_way(Way::new(id, nodes, tags))?;
        Ok(id)
    }

    /// Inserts a way with a caller-chosen id, validating node references.
    pub(crate) fn insert_way(&mut self, way: Way) -> Result<(), MapError> {
        if self.ways.contains_key(&way.id) {
            return Err(MapError::DuplicateId(ElementId::Way(way.id)));
        }
        if way.nodes.len() < 2 {
            return Err(MapError::DegenerateWay(way.id));
        }
        for n in &way.nodes {
            if !self.nodes.contains_key(n) {
                return Err(MapError::MissingReference {
                    referrer: ElementId::Way(way.id),
                    referee: ElementId::Node(*n),
                });
            }
        }
        self.next_id = self.next_id.max(way.id.0.saturating_add(1));
        self.ways.insert(way.id, way);
        Ok(())
    }

    /// Looks up a way.
    pub fn way(&self, id: WayId) -> Option<&Way> {
        self.ways.get(&id)
    }

    /// Removes a way.
    pub(crate) fn remove_way(&mut self, id: WayId) -> Result<Way, MapError> {
        self.ways
            .remove(&id)
            .ok_or(MapError::NotFound(ElementId::Way(id)))
    }

    /// Iterates all ways in id order.
    pub fn ways(&self) -> impl Iterator<Item = &Way> {
        self.ways.values()
    }

    /// Number of ways.
    pub fn way_count(&self) -> usize {
        self.ways.len()
    }

    /// The positions of a way's nodes, in order.
    pub fn way_geometry(&self, id: WayId) -> Option<Vec<Point2>> {
        let way = self.ways.get(&id)?;
        way.nodes
            .iter()
            .map(|n| self.nodes.get(n).map(|node| node.pos))
            .collect()
    }

    // ---------------- queries ----------------

    /// Nodes within `radius` meters of `center` (document frame).
    pub fn nodes_within(&self, center: Point2, radius: f64) -> Vec<&Node> {
        self.grid
            .within_radius(center, radius)
            .into_iter()
            .filter_map(|(id, _)| self.nodes.get(&id))
            .collect()
    }

    /// The node nearest to `center`, if any.
    pub fn nearest_node(&self, center: Point2) -> Option<(&Node, f64)> {
        let (id, _, d) = self.grid.nearest(center)?;
        self.nodes.get(&id).map(|n| (n, d))
    }

    /// Local-frame bounds of all node positions as `(min, max)`.
    pub fn local_bounds(&self) -> Option<(Point2, Point2)> {
        let mut iter = self.nodes.values();
        let first = iter.next()?.pos;
        let mut min = first;
        let mut max = first;
        for n in iter {
            min.x = min.x.min(n.pos.x);
            min.y = min.y.min(n.pos.y);
            max.x = max.x.max(n.pos.x);
            max.y = max.y.max(n.pos.y);
        }
        Some((min, max))
    }

    /// Full referential-integrity check, for use after bulk edits and in
    /// tests. Incremental mutators already maintain these invariants.
    pub fn validate(&self) -> Result<(), MapError> {
        for way in self.ways.values() {
            if way.nodes.len() < 2 {
                return Err(MapError::DegenerateWay(way.id));
            }
            for n in &way.nodes {
                if !self.nodes.contains_key(n) {
                    return Err(MapError::MissingReference {
                        referrer: ElementId::Way(way.id),
                        referee: ElementId::Node(*n),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anchored() -> GeoReference {
        GeoReference::Anchored {
            origin: LatLng::new(40.4433, -79.9436).unwrap(),
        }
    }

    fn sample_map() -> MapDocument {
        let mut m = MapDocument::new(anchored());
        let a = m.add_node(Point2::new(0.0, 0.0), Tags::new().with("name", "A"));
        let b = m.add_node(Point2::new(100.0, 0.0), Tags::new());
        let c = m.add_node(Point2::new(100.0, 100.0), Tags::new());
        m.add_way(vec![a, b, c], Tags::new().with("highway", "residential"))
            .unwrap();
        m
    }

    #[test]
    fn fresh_ids_are_unique() {
        let mut m = MapDocument::new(anchored());
        let a = m.add_node(Point2::ZERO, Tags::new());
        let b = m.add_node(Point2::ZERO, Tags::new());
        assert_ne!(a, b);
    }

    #[test]
    fn insert_duplicate_node_rejected() {
        let mut m = MapDocument::new(anchored());
        let a = m.add_node(Point2::ZERO, Tags::new());
        let dup = Node::new(a, Point2::ZERO, Tags::new());
        assert!(matches!(m.insert_node(dup), Err(MapError::DuplicateId(_))));
    }

    #[test]
    fn way_requires_existing_nodes() {
        let mut m = MapDocument::new(anchored());
        let a = m.add_node(Point2::ZERO, Tags::new());
        let err = m.add_way(vec![a, NodeId(999)], Tags::new()).unwrap_err();
        assert!(matches!(err, MapError::MissingReference { .. }));
    }

    #[test]
    fn way_requires_two_nodes() {
        let mut m = MapDocument::new(anchored());
        let a = m.add_node(Point2::ZERO, Tags::new());
        assert!(matches!(
            m.add_way(vec![a], Tags::new()),
            Err(MapError::DegenerateWay(_))
        ));
    }

    #[test]
    fn cannot_remove_referenced_node() {
        let mut m = sample_map();
        let first_node = m.nodes().next().unwrap().id;
        assert!(matches!(
            m.remove_node(first_node),
            Err(MapError::MissingReference { .. })
        ));
    }

    #[test]
    fn remove_unreferenced_node_updates_index() {
        let mut m = MapDocument::new(anchored());
        let a = m.add_node(Point2::new(5.0, 5.0), Tags::new());
        assert_eq!(m.nodes_within(Point2::new(5.0, 5.0), 1.0).len(), 1);
        m.remove_node(a).unwrap();
        assert!(m.nodes_within(Point2::new(5.0, 5.0), 1.0).is_empty());
        assert!(matches!(m.remove_node(a), Err(MapError::NotFound(_))));
    }

    #[test]
    fn move_node_updates_index() {
        let mut m = MapDocument::new(anchored());
        let a = m.add_node(Point2::ZERO, Tags::new());
        m.move_node(a, Point2::new(500.0, 0.0)).unwrap();
        assert!(m.nodes_within(Point2::ZERO, 10.0).is_empty());
        assert_eq!(m.nodes_within(Point2::new(500.0, 0.0), 1.0).len(), 1);
        assert_eq!(m.node(a).unwrap().pos, Point2::new(500.0, 0.0));
    }

    #[test]
    fn georef_round_trip() {
        let g = anchored();
        let p = Point2::new(250.0, -100.0);
        let geo = g.to_geo(p).unwrap();
        let back = g.from_geo(geo).unwrap();
        assert!(p.distance(back) < 1e-3);
        let un = GeoReference::Unaligned;
        assert!(un.to_geo(p).is_none());
        assert!(un.from_geo(geo).is_none());
    }

    #[test]
    fn local_bounds_cover_nodes() {
        let m = sample_map();
        let (min, max) = m.local_bounds().unwrap();
        assert_eq!(min, Point2::new(0.0, 0.0));
        assert_eq!(max, Point2::new(100.0, 100.0));
        let empty = MapDocument::new(anchored());
        assert!(empty.local_bounds().is_none());
    }

    #[test]
    fn way_geometry_in_order() {
        let m = sample_map();
        let way_id = m.ways().next().unwrap().id;
        let geom = m.way_geometry(way_id).unwrap();
        assert_eq!(geom.len(), 3);
        assert_eq!(geom[0], Point2::new(0.0, 0.0));
        assert_eq!(geom[2], Point2::new(100.0, 100.0));
    }

    #[test]
    fn nearest_node_query() {
        let m = sample_map();
        let (n, d) = m.nearest_node(Point2::new(98.0, 1.0)).unwrap();
        assert_eq!(n.pos, Point2::new(100.0, 0.0));
        assert!((d - (5.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn validate_passes_on_consistent_map() {
        assert!(sample_map().validate().is_ok());
    }

    #[test]
    fn insert_with_explicit_id_advances_allocator() {
        let mut m = MapDocument::new(anchored());
        m.insert_node(Node::new(NodeId(100), Point2::ZERO, Tags::new()))
            .unwrap();
        let next = m.add_node(Point2::ZERO, Tags::new());
        assert!(next.0 > 100, "allocator must skip past explicit ids");
    }
}
