//! Incremental map updates.
//!
//! Federated map management (paper §1: "scalability of map management") means
//! each provider edits its own map independently. A [`MapPatch`] is the
//! unit of such an edit: a batch of element upserts and removals tagged
//! with the version it produces. The `paper_claims` test
//! `s1_venue_updates_stay_venue_sized` pushes patches through venue
//! servers and a centralized one.

use crate::element::{Node, NodeId, Way, WayId};
use crate::{MapDocument, MapError};

/// A batch of edits bringing a map from `base_version` to
/// `base_version + 1`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MapPatch {
    /// The document version this patch applies on top of.
    pub base_version: u64,
    /// Nodes to insert or replace.
    pub upsert_nodes: Vec<Node>,
    /// Ways to insert or replace.
    pub upsert_ways: Vec<Way>,
    /// Nodes to delete.
    pub remove_nodes: Vec<NodeId>,
    /// Ways to delete.
    pub remove_ways: Vec<WayId>,
}

impl MapPatch {
    /// An empty patch against the given base version.
    pub fn new(base_version: u64) -> Self {
        Self {
            base_version,
            ..Default::default()
        }
    }

    /// Whether the patch contains no edits.
    pub fn is_empty(&self) -> bool {
        self.upsert_nodes.is_empty()
            && self.upsert_ways.is_empty()
            && self.remove_nodes.is_empty()
            && self.remove_ways.is_empty()
    }

    /// Applies the patch to `map`.
    ///
    /// The patch is rejected wholesale (map untouched) if the base
    /// version does not match; element-level failures surface after the
    /// removals/upserts they depend on, so ordering within a patch is:
    /// way removals, node removals, node upserts, way upserts. On
    /// success the map version is bumped.
    pub fn apply(&self, map: &mut MapDocument) -> Result<(), MapError> {
        if map.meta().version != self.base_version {
            return Err(MapError::PatchConflict(format!(
                "patch base {} but map is at {}",
                self.base_version,
                map.meta().version
            )));
        }
        for id in &self.remove_ways {
            map.remove_way(*id)?;
        }
        for id in &self.remove_nodes {
            map.remove_node(*id)?;
        }
        for node in &self.upsert_nodes {
            if map.node(node.id).is_some() {
                map.move_node(node.id, node.pos)?;
                map.set_node_tags(node.id, node.tags.clone())?;
            } else {
                map.insert_node(node.clone())?;
            }
        }
        for way in &self.upsert_ways {
            if map.way(way.id).is_some() {
                map.remove_way(way.id)?;
            }
            map.insert_way(way.clone())?;
        }
        map.bump_version();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeoReference, Tags};
    use openflame_geo::{LatLng, Point2};

    fn base_map() -> MapDocument {
        let mut m = MapDocument::new(GeoReference::Anchored {
            origin: LatLng::new(40.0, -80.0).unwrap(),
        });
        let a = m.add_node(Point2::new(0.0, 0.0), Tags::new().with("name", "A"));
        let b = m.add_node(Point2::new(10.0, 0.0), Tags::new());
        m.add_way(vec![a, b], Tags::new().with("highway", "path"))
            .unwrap();
        m
    }

    #[test]
    fn empty_patch_bumps_version() {
        let mut m = base_map();
        assert_eq!(m.meta().version, 0);
        MapPatch::new(0).apply(&mut m).unwrap();
        assert_eq!(m.meta().version, 1);
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut m = base_map();
        let p = MapPatch::new(5);
        assert!(matches!(p.apply(&mut m), Err(MapError::PatchConflict(_))));
        assert_eq!(m.meta().version, 0, "map untouched");
    }

    #[test]
    fn upsert_inserts_and_updates() {
        let mut m = base_map();
        let existing = m.nodes().next().unwrap().id;
        let mut p = MapPatch::new(0);
        // Update an existing node's tags and position.
        p.upsert_nodes.push(Node::new(
            existing,
            Point2::new(1.0, 1.0),
            Tags::new().with("name", "A2"),
        ));
        // Insert a brand-new node.
        p.upsert_nodes
            .push(Node::new(NodeId(500), Point2::new(7.0, 7.0), Tags::new()));
        p.apply(&mut m).unwrap();
        assert_eq!(m.node(existing).unwrap().tags.get("name"), Some("A2"));
        assert_eq!(m.node(existing).unwrap().pos, Point2::new(1.0, 1.0));
        assert!(m.node(NodeId(500)).is_some());
        assert_eq!(m.meta().version, 1);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn remove_node_via_patch() {
        let mut m = base_map();
        let lone = m.add_node(Point2::new(99.0, 99.0), Tags::new());
        let mut p = MapPatch::new(0);
        p.remove_nodes.push(lone);
        p.apply(&mut m).unwrap();
        assert!(m.node(lone).is_none());
    }

    #[test]
    fn way_upsert_replaces_node_list() {
        let mut m = base_map();
        let way = m.ways().next().unwrap().clone();
        let c = m.add_node(Point2::new(20.0, 0.0), Tags::new());
        let mut new_way = way.clone();
        new_way.nodes.push(c);
        let mut p = MapPatch::new(0);
        p.upsert_ways.push(new_way);
        p.apply(&mut m).unwrap();
        assert_eq!(m.way(way.id).unwrap().nodes.len(), 3);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn sequential_patches_advance_versions() {
        let mut m = base_map();
        for v in 0..5 {
            let mut p = MapPatch::new(v);
            p.upsert_nodes.push(Node::new(
                NodeId(1000 + v),
                Point2::new(v as f64, 0.0),
                Tags::new(),
            ));
            p.apply(&mut m).unwrap();
        }
        assert_eq!(m.meta().version, 5);
        assert_eq!(m.node_count(), 2 + 5);
        // A stale patch now fails.
        assert!(MapPatch::new(3).apply(&mut m).is_err());
    }

    #[test]
    fn is_empty_sees_every_edit_list() {
        let mut p = MapPatch::new(0);
        assert!(p.is_empty());
        p.remove_ways.push(WayId(1));
        p.upsert_nodes
            .push(Node::new(NodeId(1), Point2::ZERO, Tags::new()));
        assert!(!p.is_empty());
    }
}
