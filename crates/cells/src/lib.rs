//! Hierarchical spatial cell index for OpenFLAME discovery.
//!
//! The paper's discovery layer (paper §5.1) repurposes the DNS as a spatial
//! database by converting locations into hierarchical names via a spatial
//! indexing system such as S2 or H3. This crate implements an S2-style
//! index from scratch:
//!
//! - the unit sphere is projected onto the six faces of a cube,
//! - each face carries a 30-level quadtree in Hilbert-curve order,
//! - a cell is a 64-bit [`CellId`] whose bit layout makes parent/child
//!   and containment relations pure integer arithmetic,
//! - [`RegionCoverer`] approximates geographic regions (caps, rects) by
//!   small sets of cells,
//! - [`CellId::dns_labels`] turns a cell into the DNS label path used by
//!   the discovery layer.
//!
//! Deviation from Google's S2, noted for honesty: the face projection
//! uses the same cube layout and quadratic area-equalizing transform as
//! S2, and cell ids use the same trailing-sentinel bit layout; cross-face
//! neighbor computation is done geometrically (by stepping just beyond
//! the cell edge and re-projecting) rather than via S2's face-wrapping
//! tables. The observable semantics — a hierarchy of nested, roughly
//! equal-area cells addressable as names — match what the paper needs.

pub mod cellid;
pub mod coverer;
mod projection;

pub use cellid::CellId;
pub use coverer::{Region, RegionCoverer};

/// Errors produced by cell construction and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// A level was outside `[0, MAX_LEVEL]`.
    InvalidLevel(u8),
    /// A face index was outside `[0, 5]`.
    InvalidFace(u8),
    /// A token or label could not be parsed.
    ParseError(String),
    /// The raw id had an invalid bit pattern.
    InvalidId(u64),
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::InvalidLevel(l) => write!(f, "invalid cell level {l}"),
            CellError::InvalidFace(face) => write!(f, "invalid cube face {face}"),
            CellError::ParseError(s) => write!(f, "cell parse error: {s}"),
            CellError::InvalidId(id) => write!(f, "invalid cell id {id:#x}"),
        }
    }
}

impl std::error::Error for CellError {}
