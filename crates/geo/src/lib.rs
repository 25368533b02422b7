//! Geodetic and planar geometry primitives for the OpenFLAME federated
//! mapping system.
//!
//! This crate provides the foundation every other subsystem builds on:
//!
//! - [`LatLng`] geodetic coordinates with great-circle math (haversine
//!   distance, destination points).
//! - [`Point2`] planar points and vector operations.
//! - [`LocalFrame`] east-north-up tangent planes that let indoor maps live
//!   in metric local coordinates (paper §3 of the paper: indoor maps are rarely
//!   aligned with the geographic frame).
//! - [`Mercator`] Web-Mercator projection used by the tile pyramid.
//! - [`Polyline`] and [`Polygon`] with the usual computational-geometry
//!   toolkit (length, closest point, point-in-polygon, area,
//!   simplification).
//! - [`Affine2`] planar transforms plus least-squares fitting from point
//!   correspondences, the MapCruncher-style mechanism the paper proposes
//!   (paper §5.2) for stitching maps whose coordinate frames disagree.
//!
//! All angles at API boundaries are degrees unless a name says otherwise;
//! all distances are meters.

pub mod bbox;
pub mod frame;
pub mod latlng;
pub mod mercator;
pub mod point;
pub mod polygon;
pub mod polyline;
pub mod transform;

pub use bbox::BBox;
pub use frame::LocalFrame;
pub use latlng::{LatLng, EARTH_RADIUS_M};
pub use mercator::Mercator;
pub use point::Point2;
pub use polygon::Polygon;
pub use polyline::Polyline;
pub use transform::Affine2;

/// Errors produced by geometric constructions in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeoError {
    /// A latitude was outside `[-90, 90]` or a longitude was not finite.
    InvalidCoordinate(String),
    /// An operation required more input points than were provided.
    InsufficientPoints {
        /// How many points the operation needs at minimum.
        needed: usize,
        /// How many points were actually supplied.
        got: usize,
    },
    /// A least-squares system was singular or numerically degenerate.
    DegenerateFit(String),
}

impl std::fmt::Display for GeoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeoError::InvalidCoordinate(msg) => write!(f, "invalid coordinate: {msg}"),
            GeoError::InsufficientPoints { needed, got } => {
                write!(f, "insufficient points: needed {needed}, got {got}")
            }
            GeoError::DegenerateFit(msg) => write!(f, "degenerate fit: {msg}"),
        }
    }
}

impl std::error::Error for GeoError {}
