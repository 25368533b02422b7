//! The OpenStreetMap-style map data model used by every OpenFLAME map
//! server (paper §3 of the paper).
//!
//! A *map* is a set of two element kinds:
//!
//! - [`Node`] — a point, with position and free-form tags,
//! - [`Way`] — an ordered list of nodes (roads, walls, aisles, borders).
//!
//! OSM's third kind, the relation, has no place here: every service a
//! map server runs (geocoding, search, routing, tiles) reads nodes and
//! ways only.
//!
//! Positions are metric [`Point2`](openflame_geo::Point2) coordinates in
//! the document's own frame, and each [`MapDocument`] carries a
//! [`GeoReference`] describing how (or whether) that frame is anchored to
//! geographic coordinates. This directly models the paper's map
//! heterogeneity: outdoor maps are precisely anchored, indoor maps are
//! surveyed in a private local frame that may be unaligned (paper §3).
//!
//! The crate also provides:
//!
//! - a [`SpatialGrid`] index for radius and rectangle queries,
//! - wire encoding of patches ([`wire`]),
//! - [`MapPatch`] diffs, each provider's unit of map update.

pub mod document;
pub mod element;
pub mod patch;
pub mod spatial;
pub mod tags;
pub mod wire;

pub use document::{GeoReference, MapDocument, MapMeta};
pub use element::{ElementId, Node, NodeId, Way, WayId};
pub use patch::MapPatch;
pub use spatial::SpatialGrid;
pub use tags::Tags;

/// Errors produced by map-document operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// An element id was already present.
    DuplicateId(ElementId),
    /// A referenced element does not exist.
    MissingReference {
        /// The element containing the dangling reference.
        referrer: ElementId,
        /// The missing element.
        referee: ElementId,
    },
    /// The element was not found.
    NotFound(ElementId),
    /// A way had fewer than two nodes.
    DegenerateWay(WayId),
    /// A patch could not be applied.
    PatchConflict(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::DuplicateId(id) => write!(f, "duplicate element id {id:?}"),
            MapError::MissingReference { referrer, referee } => {
                write!(f, "{referrer:?} references missing {referee:?}")
            }
            MapError::NotFound(id) => write!(f, "element {id:?} not found"),
            MapError::DegenerateWay(id) => write!(f, "way {id:?} has fewer than two nodes"),
            MapError::PatchConflict(msg) => write!(f, "patch conflict: {msg}"),
        }
    }
}

impl std::error::Error for MapError {}
