//! Localization substrate.
//!
//! Localization is "the service that informs a device of its location
//! and orientation with respect to a map" (paper §4). In the federated design
//! (paper §5.2) the *client* collects location cues — GNSS fixes, beacon
//! signal strengths, fiducial tag scans — and sends them to discovered
//! map servers; each server localizes the device *within its own map*,
//! and the client orders the estimates it gathers by their reported
//! error, smallest first.
//!
//! This crate provides the pieces of that pipeline:
//!
//! - [`LocationCue`] — the cue vocabulary exchanged with servers,
//! - [`gnss`] — a noise-modelled outdoor-only GNSS fix source,
//! - [`radio`] — log-distance path-loss beacon simulation plus
//!   fingerprint-database (k-NN) indoor localization,
//! - [`fiducial`] — exact tag-based localization,
//! - [`fusion`] — a particle filter fusing odometry with server
//!   estimates.

pub mod cues;
pub mod fiducial;
pub mod fusion;
pub mod gnss;
pub mod radio;

pub use cues::{Estimate, LocationCue};
pub use fiducial::TagRegistry;
pub use fusion::ParticleFilter;
pub use gnss::GnssModel;
pub use radio::{Beacon, RadioMap};
