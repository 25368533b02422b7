//! The two OSM element kinds a map is made of: nodes and ways.

use crate::Tags;
use openflame_geo::Point2;

/// Identifier of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// Identifier of a way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WayId(pub u64);

/// A typed reference to any element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElementId {
    /// A node reference.
    Node(NodeId),
    /// A way reference.
    Way(WayId),
}

/// A point on the map with metadata.
///
/// Positions are meters in the owning document's local frame; see
/// [`crate::GeoReference`] for how frames relate to geographic space.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Unique id within the document.
    pub id: NodeId,
    /// Position in the document frame (meters).
    pub pos: Point2,
    /// Metadata.
    pub tags: Tags,
}

impl Node {
    /// Creates a node.
    pub fn new(id: NodeId, pos: Point2, tags: Tags) -> Self {
        Self { id, pos, tags }
    }
}

/// An ordered polyline (or closed ring) of nodes with metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Way {
    /// Unique id within the document.
    pub id: WayId,
    /// Ordered node references; at least two.
    pub nodes: Vec<NodeId>,
    /// Metadata.
    pub tags: Tags,
}

impl Way {
    /// Creates a way.
    pub fn new(id: WayId, nodes: Vec<NodeId>, tags: Tags) -> Self {
        Self { id, nodes, tags }
    }

    /// Whether the way forms a closed ring (first node repeats last).
    pub fn is_closed(&self) -> bool {
        self.nodes.len() >= 3 && self.nodes.first() == self.nodes.last()
    }

    /// Whether traffic is one-way (`oneway=yes`).
    pub fn is_oneway(&self) -> bool {
        self.tags.is("oneway", "yes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn way_closed_detection() {
        let open = Way::new(WayId(1), vec![NodeId(1), NodeId(2), NodeId(3)], Tags::new());
        assert!(!open.is_closed());
        let closed = Way::new(
            WayId(2),
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(1)],
            Tags::new(),
        );
        assert!(closed.is_closed());
        // Two nodes can't close a ring.
        let tiny = Way::new(WayId(3), vec![NodeId(1), NodeId(1)], Tags::new());
        assert!(!tiny.is_closed());
    }

    #[test]
    fn way_oneway_tag() {
        let w = Way::new(
            WayId(1),
            vec![NodeId(1), NodeId(2)],
            Tags::new().with("oneway", "yes"),
        );
        assert!(w.is_oneway());
        let w2 = Way::new(WayId(1), vec![NodeId(1), NodeId(2)], Tags::new());
        assert!(!w2.is_oneway());
    }

    #[test]
    fn element_id_ordering_stable() {
        let mut ids = vec![
            ElementId::Way(WayId(5)),
            ElementId::Node(NodeId(9)),
            ElementId::Node(NodeId(2)),
        ];
        ids.sort();
        assert_eq!(
            ids,
            vec![
                ElementId::Node(NodeId(2)),
                ElementId::Node(NodeId(9)),
                ElementId::Way(WayId(5)),
            ]
        );
    }
}
