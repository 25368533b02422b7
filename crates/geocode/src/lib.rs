//! Geocoding substrate: address ↔ location translation.
//!
//! The paper defines forward geocode ("converting a text-based address
//! to a location on the map") and reverse geocode ("converts a
//! geographic location to a map node") as base services (paper §4).
//! This crate provides both against a single
//! [`MapDocument`](openflame_mapdata::MapDocument); the federated versions
//! that scatter across map servers live in `openflame-core`.
//!
//! - [`tokenize`] — shared text normalization,
//! - [`Geocoder`] — inverted-index forward geocoding over `name` and
//!   `addr:*` tags with TF-scored ranking,
//! - [`reverse_geocode`] — nearest named element.

pub mod forward;
pub mod reverse;
pub mod text;

pub use forward::{GeocodeHit, Geocoder};
pub use reverse::{reverse_geocode, ReverseHit};
pub use text::tokenize;
