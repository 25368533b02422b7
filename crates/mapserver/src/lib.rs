//! The OpenFLAME map server (paper §3 of the paper).
//!
//! "A map server is a system that stores the map of a region and
//! provides services such as search and routing on the map. The
//! usefulness of a map server is determined by the services it
//! implements. It can also impose fine-grained security and privacy
//! policies on users and applications."
//!
//! A [`MapServer`] owns one [`MapDocument`](openflame_mapdata::MapDocument)
//! and builds every service engine over it:
//!
//! - forward/reverse geocoding (`openflame-geocode`),
//! - location-based search (`openflame-search`),
//! - routing with portal cost matrices (`openflame-routing`),
//! - localization from beacon/tag/GNSS cues (`openflame-localize`),
//! - tile rendering for anchored maps (`openflame-tiles`).
//!
//! Requests arrive over the simulated network as wire-encoded
//! [`Envelope`]s; every request passes the paper §5.3 [`AccessPolicy`] before
//! dispatch. [`naming`] defines the cell→domain-name scheme and
//! [`registry`] spells the DNS records a server publishes for its zone
//! covering.

pub mod acl;
pub mod naming;
pub mod protocol;
pub mod registry;
pub mod server;

pub use acl::{AccessPolicy, Principal, Rule, ServiceKind};
pub use protocol::{Envelope, Request, Response};
pub use server::{MapServer, MapServerConfig, ServerStats};

/// Errors produced by map-server operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The principal is not allowed to use the service.
    AccessDenied {
        /// The denied service.
        service: ServiceKind,
    },
    /// The requested service is not offered by this server.
    NotOffered(ServiceKind),
    /// The request is outside its well-formed range (spec §8).
    Malformed(String),
    /// The request could not be satisfied.
    Failed(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::AccessDenied { service } => write!(f, "access denied to {service:?}"),
            ServerError::NotOffered(s) => write!(f, "service {s:?} not offered"),
            ServerError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ServerError::Failed(msg) => write!(f, "request failed: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}
