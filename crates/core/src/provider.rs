//! The unified location-based-service abstraction (paper §4).
//!
//! The paper's core claim is that a federation of map servers can
//! serve the *same* services as a centralized map. [`SpatialProvider`]
//! makes that claim a compile-time fact: both [`OpenFlameClient`]
//! (Figure 2) and [`CentralizedProvider`] (Figure 1) implement this
//! trait, and everything above — the grocery scenario, the benches,
//! application code — programs against `&dyn SpatialProvider`.
//!
//! Every method takes a typed query in **geographic** coordinates (the
//! only frame a client portable across providers can speak) and
//! returns a typed outcome carrying:
//!
//! - the answers, each tagged with the server that produced it
//!   (provenance — meaningful in a federation, degenerate but honest
//!   for a centralized provider), and
//! - [`CallStats`]: messages, bytes and simulated wall time the call
//!   cost, measured at the network layer so the two architectures are
//!   directly comparable.
//!
//! [`OpenFlameClient`]: crate::OpenFlameClient
//! [`CentralizedProvider`]: crate::CentralizedProvider

use crate::client::{FederatedRoute, FederatedSearchHit};
use crate::ClientError;
use openflame_geo::LatLng;
use openflame_localize::LocationCue;
use openflame_mapserver::protocol::{WireEstimate, WireGeocodeHit};
use openflame_netsim::Transport;
use openflame_tiles::{Tile, TileCoord, MAX_ZOOM};

/// Per-call wire cost, measured at the transport layer (simulated or
/// real, per the backend the provider runs on).
///
/// The fields are read anywhere, but a private field keeps the literal
/// in this module, so a provider method measures through
/// `provider::measured`:
///
/// ```compile_fail
/// use openflame_core::CallStats;
/// let _ = CallStats { messages: 0, bytes: 0, elapsed_us: 0, servers_consulted: 0 };
/// ```
// Not `#[non_exhaustive]`: that would admit a literal anywhere in the crate.
#[allow(clippy::manual_non_exhaustive)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Messages exchanged (requests + responses, both directions).
    pub messages: u64,
    /// Bytes exchanged.
    pub bytes: u64,
    /// Time the call took on the transport clock, microseconds
    /// (simulated time on the simulator, wall-clock time on sockets).
    pub elapsed_us: u64,
    /// Distinct map servers that contributed to the outcome.
    pub servers_consulted: usize,
    measured: (),
}

/// Runs one provider call and measures its wire cost by snapshotting
/// the transport counters around it — the one place a [`CallStats`] is
/// built. `call` yields the answer and how many servers contributed.
pub(crate) fn measured<T>(
    transport: &dyn Transport,
    call: impl FnOnce() -> Result<(T, usize), ClientError>,
) -> Result<(T, CallStats), ClientError> {
    let (before, start_us) = (transport.stats(), transport.now_us());
    let (answer, servers_consulted) = call()?;
    let after = transport.stats();
    // Saturating: a non-monotonic wall clock (or counters reset
    // mid-call) must yield a zero reading, not a panic.
    let stats = CallStats {
        messages: after.messages.saturating_sub(before.messages),
        bytes: after.bytes.saturating_sub(before.bytes),
        elapsed_us: transport.now_us().saturating_sub(start_us),
        servers_consulted,
        measured: (),
    };
    Ok((answer, stats))
}

/// Forward geocode: free-text address or name → positions.
#[derive(Debug, Clone, PartialEq)]
pub struct GeocodeQuery {
    /// Free-text address or name.
    pub query: String,
    /// Maximum results.
    pub k: usize,
}

/// One geocode answer with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct GeocodeHit {
    /// The server that produced the hit.
    pub server_id: String,
    /// The hit (position in the *server's* frame).
    pub hit: WireGeocodeHit,
    /// The hit's geographic position, when the producing server is
    /// anchored (unaligned venue maps cannot place their hits on the
    /// globe — that missing alignment is the paper's §3 point).
    pub geo: Option<LatLng>,
}

/// Outcome of [`SpatialProvider::geocode`].
#[derive(Debug, Clone, PartialEq)]
pub struct GeocodeOutcome {
    /// Ranked hits, best first.
    pub hits: Vec<GeocodeHit>,
    /// Wire cost of the call.
    pub stats: CallStats,
}

/// Reverse geocode: position → named element.
#[derive(Debug, Clone, PartialEq)]
pub struct ReverseGeocodeQuery {
    /// The geographic position to name.
    pub location: LatLng,
    /// Search radius, meters; NaN or negative is refused.
    pub radius_m: f64,
}

/// Outcome of [`SpatialProvider::reverse_geocode`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReverseGeocodeOutcome {
    /// The best named element near the position, if any.
    pub hit: Option<GeocodeHit>,
    /// Wire cost of the call.
    pub stats: CallStats,
}

/// Location-based search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchQuery {
    /// Keyword query.
    pub query: String,
    /// Where the user is.
    pub location: LatLng,
    /// Radius filter, meters; NaN or negative is refused.
    pub radius_m: f64,
    /// Maximum results.
    pub k: usize,
}

/// Outcome of [`SpatialProvider::search`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Ranked hits, best first, each tagged with the producing server.
    pub hits: Vec<FederatedSearchHit>,
    /// Wire cost of the call.
    pub stats: CallStats,
}

/// Navigation from a street position to a search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteQuery {
    /// Where the user starts.
    pub from: LatLng,
    /// The destination, as returned by [`SpatialProvider::search`]
    /// (carries the server that knows the destination's map).
    pub target: FederatedSearchHit,
}

/// Outcome of [`SpatialProvider::route`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOutcome {
    /// The (possibly multi-leg, possibly stitched) route.
    pub route: FederatedRoute,
    /// Wire cost of the call.
    pub stats: CallStats,
}

/// Localization from device sensor cues.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizeQuery {
    /// Coarse position (drives discovery; GPS-grade is enough).
    pub coarse: LatLng,
    /// The cues the device collected.
    pub cues: Vec<LocationCue>,
}

/// One localization estimate with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderEstimate {
    /// The server that produced the estimate.
    pub server_id: String,
    /// The estimate (position in the *server's* frame).
    pub estimate: WireEstimate,
    /// The estimate's geographic position, when the producing server
    /// is anchored.
    pub geo: Option<LatLng>,
}

/// Outcome of [`SpatialProvider::localize`].
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizeOutcome {
    /// Estimates, best (smallest expected error) first.
    pub estimates: Vec<ProviderEstimate>,
    /// Wire cost of the call.
    pub stats: CallStats,
}

/// Map tile fetch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileQuery {
    /// Geographic position the tile must cover.
    pub center: LatLng,
    /// Zoom level, at most [`MAX_ZOOM`].
    pub z: u8,
}

/// The tile covering `center` at zoom `z`. A zoom deeper than the
/// pyramid (spec §8) is refused here, before anything is sent.
pub(crate) fn tile_coord(center: LatLng, z: u8) -> Result<TileCoord, ClientError> {
    TileCoord::covering(center, z).ok_or_else(|| {
        ClientError::InvalidQuery(format!("tile zoom {z} is deeper than {MAX_ZOOM}"))
    })
}

/// A query radius. NaN or negative names no region (spec §13.3), so it
/// is refused here, before anything is sent.
pub(crate) fn query_radius(radius_m: f64) -> Result<f64, ClientError> {
    let no_region = || ClientError::InvalidQuery(format!("radius {radius_m} m names no region"));
    (radius_m >= 0.0).then_some(radius_m).ok_or_else(no_region)
}

/// Outcome of [`SpatialProvider::tile`].
#[derive(Debug, Clone, PartialEq)]
pub struct TileOutcome {
    /// The (possibly composed) rendered tile.
    pub tile: Tile,
    /// Wire cost of the call.
    pub stats: CallStats,
}

/// The paper §4 location-based services, implemented by both the federated
/// client and the centralized baseline (see module docs).
pub trait SpatialProvider {
    /// A short human-readable identifier for reports.
    fn provider_id(&self) -> String;

    /// Forward geocode: free text → ranked positions.
    fn geocode(&self, query: GeocodeQuery) -> Result<GeocodeOutcome, ClientError>;

    /// Reverse geocode: position → nearest named element.
    fn reverse_geocode(
        &self,
        query: ReverseGeocodeQuery,
    ) -> Result<ReverseGeocodeOutcome, ClientError>;

    /// Location-based search around the user.
    fn search(&self, query: SearchQuery) -> Result<SearchOutcome, ClientError>;

    /// Navigation to a search hit.
    fn route(&self, query: RouteQuery) -> Result<RouteOutcome, ClientError>;

    /// Localization from sensor cues.
    fn localize(&self, query: LocalizeQuery) -> Result<LocalizeOutcome, ClientError>;

    /// A rendered map tile covering a position.
    fn tile(&self, query: TileQuery) -> Result<TileOutcome, ClientError>;
}
