//! The map server: service engines, ACL enforcement, RPC dispatch.
//!
//! # Concurrency
//!
//! [`MapServer::dispatch`] is invoked **concurrently** by the transport
//! layer (the TCP backend dispatches pipelined requests on one
//! connection through a worker pool; see the `WireService` contract in
//! `openflame-netsim`). Handler state is organized for parallel
//! readers: the service engines sit behind an `RwLock` (reads share,
//! only `ApplyPatch` writes), the tag registry / beacons / policy /
//! portals are immutable after spawn, and the request counters are
//! lock-free atomics — concurrent dispatch never serializes on a stats
//! mutex.

use crate::acl::{AccessPolicy, Principal, ServiceKind, ALL_SERVICES};
use crate::protocol::{
    principal_key, CoverageExtent, CoverageSummary, Envelope, HelloInfo, Request, Response,
    WireEstimate, WireGeocodeHit, WireRoute, WireSearchResult,
};
use crate::ServerError;
use openflame_cells::{Region, RegionCoverer};
use openflame_codec::{from_bytes, to_bytes};
use openflame_diag::{ranks, OrderedRwLock};
use openflame_geo::{LatLng, Point2};
use openflame_geocode::{reverse_geocode, Geocoder};
use openflame_localize::{Estimate, LocationCue, RadioMap, TagRegistry};
use openflame_mapdata::{MapDocument, MapPatch, NodeId};
use openflame_netsim::{EndpointId, OverloadPolicy, Transport, WireService};
use openflame_routing::dijkstra::dijkstra_many;
use openflame_routing::{bidirectional, ContractionHierarchy, Profile, RoadGraph};
use openflame_search::SearchIndex;
use openflame_tiles::{TileCoord, TileRenderer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Default admission-queue depth installed on every wire endpoint: deep
/// enough that a healthy server never sheds, shallow enough that a
/// saturated one answers [`Response::Busy`] in microseconds instead of
/// queueing seconds of work (wire protocol spec §10).
pub(crate) const DEFAULT_MAX_DISPATCH_DEPTH: usize = 256;

/// Default retry hint carried in shed [`Response::Busy`] replies.
pub(crate) const DEFAULT_RETRY_AFTER_US: u64 = 2_000;

/// Configuration for spawning a map server.
pub struct MapServerConfig {
    /// Stable server id (used in DNS MAPSRV records).
    pub id: String,
    /// The map this server is authoritative for.
    pub map: MapDocument,
    /// Radio beacons installed in the mapped space (map frame).
    pub beacons: Vec<openflame_localize::Beacon>,
    /// Fiducial tags installed in the mapped space.
    pub tags: TagRegistry,
    /// Access policy (paper §5.3).
    pub policy: AccessPolicy,
    /// Portal nodes advertised for route stitching, each with a coarse
    /// geographic hint of where the portal meets the outside world.
    pub portals: Vec<(NodeId, LatLng)>,
    /// Coarse location used for discovery registration.
    pub location_hint: LatLng,
    /// Zone radius used for discovery registration, meters.
    pub radius_m: f64,
    /// Whether to precompute a contraction hierarchy (paper §4.1).
    pub build_ch: bool,
}

/// Per-service counters (a point-in-time snapshot; see
/// [`MapServer::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests served per service.
    pub served: HashMap<ServiceKind, u64>,
    /// Requests denied by the ACL.
    pub denied: u64,
    /// Patches applied.
    pub patches: u64,
}

/// Lock-free request counters: with concurrent dispatch every request
/// thread bumps these, and a mutex here would serialize the very
/// parallelism the serve pool buys.
#[derive(Default)]
struct StatCounters {
    served: [AtomicU64; ALL_SERVICES.len()],
    denied: AtomicU64,
    patches: AtomicU64,
}

impl StatCounters {
    fn count(&self, service: ServiceKind) {
        let idx = ALL_SERVICES
            .iter()
            .position(|s| *s == service)
            .expect("every service kind is listed in ALL_SERVICES");
        self.served[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ServerStats {
        let mut served = HashMap::new();
        for (idx, kind) in ALL_SERVICES.iter().enumerate() {
            let n = self.served[idx].load(Ordering::Relaxed);
            if n > 0 {
                served.insert(*kind, n);
            }
        }
        ServerStats {
            served,
            denied: self.denied.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
        }
    }
}

/// What a spawn fixes for the server's life: the configuration half of
/// `(server configuration, map version)`, the pair every [`Engines`]
/// build — and with it the advertisement — is a function of.
struct Setup {
    id: String,
    tags: TagRegistry,
    beacons: Vec<openflame_localize::Beacon>,
    portals: Vec<(NodeId, LatLng)>,
    build_ch: bool,
    /// The committed extent (spec §13.1): the registration cap and its
    /// cell covering, computed once at spawn.
    extent: Option<CoverageExtent>,
}

/// The extent advertised for a registration cap (spec §13.1). The
/// extent MUST bound every answerable element — it is the same cap the
/// server registers in DNS, which deployments derive from the venue's
/// ground-truth zone, so the commitment holds by construction.
fn registration_extent(center: LatLng, radius_m: f64) -> Option<CoverageExtent> {
    (radius_m > 0.0).then(|| {
        let cells = RegionCoverer::new(4, crate::naming::QUERY_LEVEL, 16)
            .covering(&Region::Cap { center, radius_m })
            .into_iter()
            .map(|c| c.raw())
            .collect();
        CoverageExtent {
            cells,
            center,
            radius_m,
        }
    })
}

/// Engines rebuilt whenever the map changes, together with the
/// advertisement describing exactly this map version: both are replaced
/// in one `engines` write-lock section, so a `Hello` never pairs old
/// counts with new content (spec §13.1).
struct Engines {
    map: MapDocument,
    geocoder: Geocoder,
    search: SearchIndex,
    graph: RoadGraph,
    ch: Option<ContractionHierarchy>,
    radio: Option<RadioMap>,
    renderer: Option<TileRenderer>,
    hello: Arc<HelloInfo>,
}

impl Engines {
    fn build(map: MapDocument, setup: &Setup) -> Self {
        let geocoder = Geocoder::build(&map);
        let search = SearchIndex::build(&map);
        let graph = RoadGraph::from_map(&map, Profile::Walking);
        let ch = if setup.build_ch && graph.node_count() > 0 {
            Some(ContractionHierarchy::build(&graph))
        } else {
            None
        };
        let radio = if setup.beacons.is_empty() {
            None
        } else {
            let (min, max) = map
                .local_bounds()
                .unwrap_or((Point2::ZERO, Point2::new(1.0, 1.0)));
            Some(RadioMap::survey(
                setup.beacons.clone(),
                min - Point2::new(2.0, 2.0),
                max + Point2::new(2.0, 2.0),
                2.0,
            ))
        };
        let renderer = TileRenderer::new(&map);

        // The advertisement of this map version (paper §5.2: technology
        // advertisement drives which cues clients send), built here once
        // instead of per `Hello` (spec §13.1).
        let anchored = renderer.is_some();
        let mut techs = Vec::new();
        if !setup.tags.is_empty() {
            techs.push("tag".to_string());
        }
        if radio.is_some() {
            techs.push("beacon".to_string());
        }
        if anchored {
            techs.push("gnss".to_string());
        }
        let mut services: Vec<String> = ["geocode", "rgeocode", "search", "route", "localize"]
            .map(String::from)
            .into();
        if anchored {
            services.push("tiles".to_string());
        }
        let anchor = match map.georef() {
            openflame_mapdata::GeoReference::Anchored { origin } => Some(origin),
            openflame_mapdata::GeoReference::Unaligned { .. } => None,
        };
        // Per-kind document counts from the engines just built.
        let rgeocode = if anchored { geocoder.len() as u64 } else { 0 };
        let kinds = vec![
            ("search".to_string(), search.len() as u64),
            ("geocode".to_string(), geocoder.len() as u64),
            ("rgeocode".to_string(), rgeocode),
            ("route".to_string(), graph.node_count() as u64),
            ("localize".to_string(), techs.len() as u64),
            ("tiles".to_string(), u64::from(anchored)),
        ];
        let hello = Arc::new(HelloInfo {
            server_id: setup.id.clone(),
            map_name: map.meta().name.clone(),
            services,
            localization_techs: techs,
            anchor,
            portals: setup.portals.iter().map(|(n, hint)| (n.0, *hint)).collect(),
            version: map.meta().version,
            coverage: Some(CoverageSummary {
                kinds,
                extent: setup.extent.clone(),
            }),
        });
        Self {
            map,
            geocoder,
            search,
            graph,
            ch,
            radio,
            renderer,
            hello,
        }
    }
}

/// A federated map server bound to a network endpoint.
pub struct MapServer {
    setup: Setup,
    /// The endpoint [`MapServer::spawn_on`] bound (set once, there).
    endpoint: OnceLock<EndpointId>,
    engines: OrderedRwLock<Engines>,
    policy: AccessPolicy,
    location_hint: LatLng,
    radius_m: f64,
    stats: StatCounters,
}

impl MapServer {
    /// Spawns the server onto any transport backend: the simulator or a
    /// real-socket transport — the server code cannot tell which.
    pub fn spawn_on(transport: &Arc<dyn Transport>, config: MapServerConfig) -> Arc<Self> {
        let setup = Setup {
            id: config.id,
            tags: config.tags,
            beacons: config.beacons,
            portals: config.portals,
            build_ch: config.build_ch,
            extent: registration_extent(config.location_hint, config.radius_m),
        };
        let engines = Engines::build(config.map, &setup);
        let server = Arc::new(Self {
            setup,
            endpoint: OnceLock::new(),
            engines: OrderedRwLock::new(ranks::MAPSERVER_ENGINES, engines),
            policy: config.policy,
            location_hint: config.location_hint,
            radius_m: config.radius_m,
            stats: StatCounters::default(),
        });
        let endpoint = server.serve_on(transport.as_ref());
        server
            .endpoint
            .set(endpoint)
            .expect("a fresh server has no endpoint yet");
        server
    }

    /// The admission-control policy installed on every wire endpoint
    /// this server binds: requests are classified by the envelope's
    /// principal (so one flooding tenant is shed before quiet ones) and
    /// shed requests are answered with an encoded [`Response::Busy`]
    /// carrying `retry_after_us` (wire protocol spec §10). Pass a custom
    /// `max_depth` to tighten or loosen the queue bound; transports
    /// without admission support (the simulator) ignore the policy.
    pub(crate) fn overload_policy(max_depth: usize, retry_after_us: u64) -> OverloadPolicy {
        OverloadPolicy {
            max_depth,
            retry_after_us,
            classify: Arc::new(principal_key),
            busy_reply: Arc::new(|retry_after_us| {
                to_bytes(&Response::Busy { retry_after_us }).to_vec()
            }),
        }
    }

    /// [`MapServer::overload_policy`] at the default depth and retry
    /// hint — what [`MapServer::serve_on`] (and so
    /// [`MapServer::spawn_on`]) installs.
    pub(crate) fn default_overload_policy() -> OverloadPolicy {
        Self::overload_policy(DEFAULT_MAX_DISPATCH_DEPTH, DEFAULT_RETRY_AFTER_US)
    }

    /// The server's RPC dispatch loop as a transport-bindable service:
    /// decode envelope, dispatch under the envelope's principal, encode
    /// the response.
    pub(crate) fn wire_service(self: &Arc<Self>) -> Arc<dyn WireService> {
        let handler = self.clone();
        Arc::new(move |_from: EndpointId, payload: &[u8]| {
            let response = match from_bytes::<Envelope>(payload) {
                Ok(env) => handler.dispatch(&env.principal, env.request),
                Err(e) => Response::Error {
                    code: 3,
                    message: format!("bad envelope: {e}"),
                },
            };
            to_bytes(&response).to_vec()
        })
    }

    /// Binds this server's dispatch loop on a new endpoint of
    /// `transport` — any backend — with the default admission policy,
    /// and returns that endpoint (in `transport`'s address space).
    /// [`MapServer::spawn_on`] binds the server's own endpoint this
    /// way; calling it again serves the same engines on an *additional*
    /// transport, for hybrid setups where a simulator-spawned server
    /// must also answer real sockets.
    pub(crate) fn serve_on(self: &Arc<Self>, transport: &dyn Transport) -> EndpointId {
        let endpoint = transport.register(
            &format!("mapsrv:{}", self.setup.id),
            Some(self.location_hint),
        );
        transport.set_service(endpoint, self.wire_service());
        transport.set_overload_policy(endpoint, Some(Self::default_overload_policy()));
        endpoint
    }

    /// The server's stable identifier.
    pub fn id(&self) -> &str {
        &self.setup.id
    }

    /// The server's network endpoint.
    pub fn endpoint(&self) -> EndpointId {
        *self.endpoint.get().expect("spawn_on binds the endpoint")
    }

    /// Coarse registration location.
    pub fn location_hint(&self) -> LatLng {
        self.location_hint
    }

    /// Zone radius for discovery registration.
    pub fn radius_m(&self) -> f64 {
        self.radius_m
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    fn count(&self, service: ServiceKind) {
        self.stats.count(service);
    }

    fn check(&self, principal: &Principal, service: ServiceKind) -> Result<(), ServerError> {
        if self.policy.allows(principal, service) {
            Ok(())
        } else {
            self.stats.denied.fetch_add(1, Ordering::Relaxed);
            Err(ServerError::AccessDenied { service })
        }
    }

    /// Capability advertisement of the current map version (paper §5.2,
    /// spec §13.1). Built once per version, when the engines are; this
    /// is a refcount bump under the engines read lock.
    pub fn hello(&self) -> Arc<HelloInfo> {
        self.engines.read().hello.clone()
    }

    /// Forward geocode (ACL-checked).
    pub fn geocode(
        &self,
        principal: &Principal,
        query: &str,
        k: usize,
    ) -> Result<Vec<WireGeocodeHit>, ServerError> {
        self.check(principal, ServiceKind::Geocode)?;
        self.count(ServiceKind::Geocode);
        let engines = self.engines.read();
        Ok(engines
            .geocoder
            .query(query, k)
            .into_iter()
            .map(|h| WireGeocodeHit {
                element: h.element,
                pos: h.pos,
                score: h.score,
                label: h.label,
            })
            .collect())
    }

    /// Reverse geocode (ACL-checked).
    pub fn reverse_geocode(
        &self,
        principal: &Principal,
        pos: Point2,
        radius_m: f64,
    ) -> Result<Option<WireGeocodeHit>, ServerError> {
        self.check(principal, ServiceKind::ReverseGeocode)?;
        self.count(ServiceKind::ReverseGeocode);
        let engines = self.engines.read();
        Ok(
            reverse_geocode(&engines.map, pos, radius_m).map(|h| WireGeocodeHit {
                element: h.element,
                pos,
                score: 1.0 / (1.0 + h.distance_m),
                label: h.label,
            }),
        )
    }

    /// Location-based search (ACL-checked).
    pub fn search(
        &self,
        principal: &Principal,
        query: &str,
        center: Option<Point2>,
        radius_m: f64,
        k: usize,
    ) -> Result<Vec<WireSearchResult>, ServerError> {
        self.check(principal, ServiceKind::Search)?;
        self.count(ServiceKind::Search);
        let engines = self.engines.read();
        Ok(engines
            .search
            .query(query, center, radius_m, k)
            .into_iter()
            .map(|r| WireSearchResult {
                element: r.element,
                pos: r.pos,
                score: r.score,
                distance_m: r.distance_m,
                label: r.label,
            })
            .collect())
    }

    /// Point-to-point route within this map (ACL-checked).
    pub fn route(
        &self,
        principal: &Principal,
        from: NodeId,
        to: NodeId,
    ) -> Result<Option<WireRoute>, ServerError> {
        self.check(principal, ServiceKind::Route)?;
        self.count(ServiceKind::Route);
        let engines = self.engines.read();
        let result = match &engines.ch {
            Some(ch) => ch.query(from, to),
            None => bidirectional(&engines.graph, from, to),
        };
        match result {
            Ok(route) => {
                let geometry = route
                    .nodes
                    .iter()
                    .filter_map(|n| engines.map.node(*n).map(|node| node.pos))
                    .collect();
                Ok(Some(WireRoute {
                    nodes: route.nodes.iter().map(|n| n.0).collect(),
                    cost: route.cost,
                    length_m: route.length_m,
                    geometry,
                }))
            }
            Err(_) => Ok(None),
        }
    }

    /// Portal cost matrix for stitching (ACL-checked under `Route`).
    pub(crate) fn route_matrix(
        &self,
        principal: &Principal,
        entries: &[NodeId],
        exits: &[NodeId],
    ) -> Result<Vec<Vec<f64>>, ServerError> {
        self.check(principal, ServiceKind::Route)?;
        self.count(ServiceKind::Route);
        let engines = self.engines.read();
        Ok(entries
            .iter()
            .map(|e| dijkstra_many(&engines.graph, *e, exits))
            .collect())
    }

    /// Localization from cues (ACL-checked). Estimates are returned
    /// best-first.
    pub fn localize(
        &self,
        principal: &Principal,
        cues: &[LocationCue],
    ) -> Result<Vec<WireEstimate>, ServerError> {
        self.check(principal, ServiceKind::Localize)?;
        self.count(ServiceKind::Localize);
        let engines = self.engines.read();
        let mut estimates: Vec<Estimate> = Vec::new();
        for cue in cues {
            match cue {
                LocationCue::FiducialTag { .. } => {
                    if let Some(e) = self.setup.tags.localize(cue) {
                        estimates.push(e);
                    }
                }
                LocationCue::BeaconRssi { .. } => {
                    if let Some(radio) = &engines.radio {
                        if let Some(e) = radio.localize(cue, 4) {
                            estimates.push(e);
                        }
                    }
                }
                LocationCue::Gnss { fix, accuracy_m } => {
                    // Only anchored maps can place a geographic fix in
                    // their frame.
                    if let Some(local) = engines.map.georef().from_geo(*fix) {
                        estimates.push(Estimate {
                            pos: local,
                            error_m: *accuracy_m,
                            technology: "gnss".into(),
                        });
                    }
                }
            }
        }
        estimates.sort_by(|a, b| a.error_m.total_cmp(&b.error_m));
        Ok(estimates.into_iter().map(WireEstimate::from).collect())
    }

    /// A rendered tile in its wire form, the RGB bytes a `GetTile`
    /// answer carries (ACL-checked; anchored maps only); an in-process
    /// caller that wants pixels decodes them with
    /// [`Tile::from_rgb`](openflame_tiles::Tile::from_rgb). The bytes come
    /// from the current map version's renderer cache (bounded, see
    /// [`openflame_tiles::render`]), which a patch replaces with the
    /// engines. A coordinate outside the pyramid (spec §8) is
    /// [`ServerError::Malformed`]: nothing is counted, rendered or cached.
    pub fn tile(&self, principal: &Principal, coord: TileCoord) -> Result<Arc<[u8]>, ServerError> {
        if !coord.in_pyramid() {
            return Err(ServerError::Malformed(format!(
                "tile {}/{}/{} is outside the pyramid",
                coord.z, coord.x, coord.y
            )));
        }
        self.check(principal, ServiceKind::Tiles)?;
        self.count(ServiceKind::Tiles);
        let engines = self.engines.read();
        match &engines.renderer {
            Some(renderer) => Ok(renderer.tile(coord)),
            None => Err(ServerError::NotOffered(ServiceKind::Tiles)),
        }
    }

    /// Applies a patch and rebuilds service engines (ACL-checked).
    pub fn apply_patch(&self, principal: &Principal, patch: &MapPatch) -> Result<u64, ServerError> {
        self.check(principal, ServiceKind::Update)?;
        self.count(ServiceKind::Update);
        let mut engines = self.engines.write();
        let mut map = engines.map.clone();
        patch
            .apply(&mut map)
            .map_err(|e| ServerError::Failed(format!("patch: {e}")))?;
        let version = map.meta().version;
        *engines = Engines::build(map, &self.setup);
        self.stats.patches.fetch_add(1, Ordering::Relaxed);
        Ok(version)
    }

    /// Nearest routable node to a position (ACL-checked under `Route`).
    pub fn nearest_node(
        &self,
        principal: &Principal,
        pos: Point2,
    ) -> Result<Option<(NodeId, f64)>, ServerError> {
        self.check(principal, ServiceKind::Route)?;
        self.count(ServiceKind::Route);
        let engines = self.engines.read();
        Ok(engines.graph.nearest_node(pos).map(|idx| {
            let id = engines.graph.node_id(idx);
            (id, engines.graph.position(idx).distance(pos))
        }))
    }

    /// Runs `f` with shared access to the current map document.
    pub fn with_map<R>(&self, f: impl FnOnce(&MapDocument) -> R) -> R {
        f(&self.engines.read().map)
    }

    /// Dispatches a decoded request (the RPC entry point; also usable
    /// in-process). Safe to call from many threads at once — the
    /// transport layer does exactly that for pipelined requests (see
    /// the module-level concurrency notes). A failure becomes an `Error`
    /// item with the spec §8 code of its [`ServerError`]. A `GetTile`
    /// answer is a copy of the cached wire form ([`MapServer::tile`]);
    /// no pixel is converted on a cache hit.
    pub fn dispatch(&self, principal: &Principal, request: Request) -> Response {
        let into_error = |e: ServerError| {
            let code = match &e {
                ServerError::AccessDenied { .. } => 1,
                ServerError::NotOffered(_) => 2,
                ServerError::Malformed(_) => 3,
                ServerError::Failed(_) => 4,
            };
            Response::Error {
                code,
                message: e.to_string(),
            }
        };
        match request {
            Request::Hello => {
                if let Err(e) = self.check(principal, ServiceKind::Info) {
                    return into_error(e);
                }
                self.count(ServiceKind::Info);
                Response::Hello(HelloInfo::clone(&self.hello()))
            }
            Request::Geocode { query, k } => match self.geocode(principal, &query, k as usize) {
                Ok(hits) => Response::Geocode { hits },
                Err(e) => into_error(e),
            },
            Request::ReverseGeocode { pos, radius_m } => {
                match self.reverse_geocode(principal, pos, radius_m) {
                    Ok(hit) => Response::ReverseGeocode { hit },
                    Err(e) => into_error(e),
                }
            }
            Request::Search {
                query,
                center,
                radius_m,
                k,
            } => match self.search(principal, &query, center, radius_m, k as usize) {
                Ok(results) => Response::Search { results },
                Err(e) => into_error(e),
            },
            Request::Route { from, to } => match self.route(principal, NodeId(from), NodeId(to)) {
                Ok(route) => Response::Route { route },
                Err(e) => into_error(e),
            },
            Request::RouteMatrix { entries, exits } => {
                let entries: Vec<NodeId> = entries.into_iter().map(NodeId).collect();
                let exits: Vec<NodeId> = exits.into_iter().map(NodeId).collect();
                match self.route_matrix(principal, &entries, &exits) {
                    Ok(costs) => Response::RouteMatrix { costs },
                    Err(e) => into_error(e),
                }
            }
            Request::Localize { cues } => match self.localize(principal, &cues) {
                Ok(estimates) => Response::Localize { estimates },
                Err(e) => into_error(e),
            },
            Request::GetTile { z, x, y } => match self.tile(principal, TileCoord { z, x, y }) {
                Ok(rgb) => Response::Tile {
                    z,
                    x,
                    y,
                    rgb: rgb.to_vec(),
                },
                Err(e) => into_error(e),
            },
            Request::ApplyPatch { patch } => match self.apply_patch(principal, &patch) {
                Ok(version) => Response::PatchApplied { version },
                Err(e) => into_error(e),
            },
            Request::NearestNode { pos } => match self.nearest_node(principal, pos) {
                Ok(node) => Response::NearestNode {
                    node: node.map(|(id, d)| (id.0, d)),
                },
                Err(e) => into_error(e),
            },
            Request::Batch(requests) => {
                // Positional fan-in: each item is dispatched under the
                // same principal, and per-item failures stay per-item.
                let responses = requests
                    .into_iter()
                    .map(|req| match req {
                        Request::Batch(_) => Response::Error {
                            code: 3,
                            message: "nested batch".into(),
                        },
                        req => self.dispatch(principal, req),
                    })
                    .collect();
                Response::Batch(responses)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::Rule;
    use openflame_mapdata::Tags;
    use openflame_netsim::{BackendKind, CallHandle, QuicLiteTransport, TcpTransport};
    use openflame_worldgen::{World, WorldConfig};

    fn venue_server(net: &Arc<dyn Transport>) -> (Arc<MapServer>, World) {
        let world = World::generate(WorldConfig::default());
        let venue = &world.venues[0];
        let config = MapServerConfig {
            id: "venue0".into(),
            map: venue.map.clone(),
            beacons: venue.beacons.clone(),
            tags: venue.tags.clone(),
            policy: AccessPolicy::open(),
            portals: vec![(venue.entrance_local, venue.hint)],
            location_hint: venue.hint,
            radius_m: venue.radius_m,
            build_ch: false,
        };
        (MapServer::spawn_on(net, config), world)
    }

    #[test]
    fn hello_advertises_capabilities() {
        let net = BackendKind::Sim.build(1);
        let (server, _world) = venue_server(&net);
        let hello = server.hello();
        assert_eq!(hello.server_id, "venue0");
        assert_eq!(hello.anchor, None, "venue maps are unaligned");
        assert!(hello.localization_techs.contains(&"beacon".to_string()));
        assert!(hello.localization_techs.contains(&"tag".to_string()));
        assert!(!hello.localization_techs.contains(&"gnss".to_string()));
        assert_eq!(hello.portals.len(), 1);
        // The advertisement agrees with itself (spec §13.1): an
        // unaligned server answers no geographic query and renders no
        // tile, and says so in its summary and its services alike.
        let summary = hello
            .coverage
            .as_ref()
            .expect("servers advertise a summary");
        assert_eq!(summary.kind_count("rgeocode"), Some(0));
        assert_eq!(summary.kind_count("tiles"), Some(0));
        assert!(!hello.services.iter().any(|s| s == "tiles"));
        assert_eq!(
            summary.kind_count("localize"),
            Some(hello.localization_techs.len() as u64)
        );
    }

    #[test]
    fn search_finds_stocked_products() {
        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        let product = &world.products[0];
        let results = server
            .search(
                &Principal::anonymous(),
                &product.name,
                None,
                f64::INFINITY,
                5,
            )
            .unwrap();
        assert!(!results.is_empty());
        assert_eq!(results[0].label, product.name);
    }

    #[test]
    fn route_entrance_to_shelf() {
        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        let venue = &world.venues[0];
        let shelf = venue.stocked[5].1;
        let route = server
            .route(&Principal::anonymous(), venue.entrance_local, shelf)
            .unwrap()
            .expect("shelf is reachable");
        assert!(route.cost > 0.0);
        assert!(route.length_m > 1.0);
        assert_eq!(route.nodes.first().copied(), Some(venue.entrance_local.0));
        assert_eq!(route.nodes.last().copied(), Some(shelf.0));
    }

    #[test]
    fn localize_from_beacon_cue() {
        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        let venue = &world.venues[0];
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        let truth = Point2::new(10.0, 10.0);
        let radio = RadioMap::survey(
            venue.beacons.clone(),
            Point2::new(-2.0, -2.0),
            Point2::new(60.0, 40.0),
            2.0,
        );
        let cue = radio.observe(&mut rng, truth, 2.0);
        let estimates = server.localize(&Principal::anonymous(), &[cue]).unwrap();
        assert!(!estimates.is_empty());
        let best = &estimates[0];
        assert!(
            best.pos.distance(truth) < 8.0,
            "err {}",
            best.pos.distance(truth)
        );
    }

    #[test]
    fn localize_tag_beats_beacon() {
        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        let venue = &world.venues[0];
        let tag_id = {
            // Find any installed tag by probing the registry through a
            // known position: venue tags include entrance tag; we can't
            // enumerate, so test with beacon + tag cues where tag id is
            // reconstructed from the venue fixture.
            // The venue installs a tag at the entrance; recover its id by
            // trying ids derived the same way is fragile — instead
            // install a fresh registry for this test server.
            let mut tags = TagRegistry::new();
            tags.install(4242, Point2::new(5.0, 5.0));
            tags
        };
        let config = MapServerConfig {
            id: "tagged".into(),
            map: venue.map.clone(),
            beacons: venue.beacons.clone(),
            tags: tag_id,
            policy: AccessPolicy::open(),
            portals: vec![],
            location_hint: venue.hint,
            radius_m: venue.radius_m,
            build_ch: false,
        };
        let server2 = MapServer::spawn_on(&net, config);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(10);
        let radio = RadioMap::survey(
            venue.beacons.clone(),
            Point2::new(-2.0, -2.0),
            Point2::new(60.0, 40.0),
            2.0,
        );
        let cues = vec![
            radio.observe(&mut rng, Point2::new(5.0, 5.0), 3.0),
            LocationCue::FiducialTag { tag_id: 4242 },
        ];
        let estimates = server2.localize(&Principal::anonymous(), &cues).unwrap();
        assert!(estimates.len() >= 2);
        assert_eq!(estimates[0].technology, "tag", "tag is most precise");
        let _ = server;
    }

    #[test]
    fn acl_denies_and_counts() {
        let net = BackendKind::Sim.build(1);
        let world = World::generate(WorldConfig::default());
        let venue = &world.venues[1];
        let policy = AccessPolicy::locked().with(
            ServiceKind::Search,
            vec![
                Rule::AllowUserDomain("@staff.example".into()),
                Rule::DenyAll,
            ],
        );
        let config = MapServerConfig {
            id: "locked".into(),
            map: venue.map.clone(),
            beacons: vec![],
            tags: TagRegistry::new(),
            policy,
            portals: vec![],
            location_hint: venue.hint,
            radius_m: venue.radius_m,
            build_ch: false,
        };
        let server = MapServer::spawn_on(&net, config);
        let anon = server.search(&Principal::anonymous(), "seaweed", None, 100.0, 5);
        assert!(matches!(anon, Err(ServerError::AccessDenied { .. })));
        let staff = server.search(
            &Principal::user("a@staff.example"),
            "seaweed",
            None,
            f64::INFINITY,
            5,
        );
        assert!(staff.is_ok());
        assert_eq!(server.stats().denied, 1);
    }

    #[test]
    fn rpc_round_trip_over_network() {
        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        let client = net.register("client", None);
        let product = &world.products[2];
        let env = Envelope {
            principal: Principal::anonymous(),
            request: Request::Search {
                query: product.name.clone(),
                center: None,
                radius_m: f64::INFINITY,
                k: 3,
            },
        };
        let transfer = net
            .call(client, server.endpoint(), to_bytes(&env).to_vec())
            .unwrap();
        let resp: Response = from_bytes(&transfer.payload).unwrap();
        let Response::Search { results } = resp else {
            panic!("unexpected response {resp:?}")
        };
        assert!(!results.is_empty());
        assert_eq!(results[0].label, product.name);
        assert!(net.stats().messages >= 2);
    }

    #[test]
    fn batch_dispatch_answers_positionally() {
        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        let product = &world.products[0];
        let response = server.dispatch(
            &Principal::anonymous(),
            Request::Batch(vec![
                Request::Hello,
                Request::Search {
                    query: product.name.clone(),
                    center: None,
                    radius_m: f64::INFINITY,
                    k: 3,
                },
                Request::GetTile { z: 15, x: 0, y: 0 },
                Request::Batch(vec![Request::Hello]),
            ]),
        );
        let Response::Batch(items) = response else {
            panic!("expected batch response");
        };
        assert_eq!(items.len(), 4);
        assert!(matches!(items[0], Response::Hello(_)));
        let Response::Search { results } = &items[1] else {
            panic!("expected search item");
        };
        assert_eq!(results[0].label, product.name);
        // Unaligned venue: tiles not offered — the item fails alone.
        assert!(matches!(items[2], Response::Error { code: 2, .. }));
        // Nested batches are refused per-item.
        assert!(matches!(items[3], Response::Error { code: 3, .. }));
    }

    #[test]
    fn serve_tcp_answers_real_socket_clients() {
        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        // The same server, bound on an additional real-TCP listener.
        let tcp = TcpTransport::new(5);
        let tcp_endpoint = server.serve_on(&tcp);
        let client = tcp.register("tcp-client", None);
        let product = &world.products[1];
        let env = Envelope {
            principal: Principal::anonymous(),
            request: Request::Batch(vec![
                Request::Hello,
                Request::Search {
                    query: product.name.clone(),
                    center: None,
                    radius_m: f64::INFINITY,
                    k: 3,
                },
            ]),
        };
        let transfer = tcp
            .call(client, tcp_endpoint, to_bytes(&env).to_vec())
            .unwrap();
        let resp: Response = from_bytes(&transfer.payload).unwrap();
        let Response::Batch(items) = resp else {
            panic!("expected batch over TCP, got {resp:?}");
        };
        assert!(matches!(items[0], Response::Hello(_)));
        let Response::Search { results } = &items[1] else {
            panic!("expected search item over TCP");
        };
        assert_eq!(results[0].label, product.name);
        assert!(transfer.latency_us > 0);
        assert_eq!(tcp.stats().messages, 2);
    }

    #[test]
    fn serve_udp_answers_quiclite_datagram_clients() {
        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        // The same server, bound on an additional reliable-datagram
        // listener: the whole dispatch stack (batching, ACLs, engines)
        // must be reachable over UDP packets exactly as over streams.
        let quic = QuicLiteTransport::new(5);
        let quic_endpoint = server.serve_on(&quic);
        let client = quic.register("quic-client", None);
        let product = &world.products[1];
        let env = Envelope {
            principal: Principal::anonymous(),
            request: Request::Batch(vec![
                Request::Hello,
                Request::Search {
                    query: product.name.clone(),
                    center: None,
                    radius_m: f64::INFINITY,
                    k: 3,
                },
            ]),
        };
        let transfer = quic
            .call(client, quic_endpoint, to_bytes(&env).to_vec())
            .unwrap();
        let resp: Response = from_bytes(&transfer.payload).unwrap();
        let Response::Batch(items) = resp else {
            panic!("expected batch over QuicLite, got {resp:?}");
        };
        assert!(matches!(items[0], Response::Hello(_)));
        let Response::Search { results } = &items[1] else {
            panic!("expected search item over QuicLite");
        };
        assert_eq!(results[0].label, product.name);
        assert_eq!(quic.stats().messages, 2, "one exchange, two messages");
    }

    #[test]
    fn serve_tcp_echoes_correlation_ids_for_pipelined_requests() {
        use openflame_codec::framing::{read_frame, write_frame};
        use std::net::TcpStream;

        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        let tcp = TcpTransport::new(5);
        let tcp_endpoint = server.serve_on(&tcp);
        let addr = tcp.listen_addr(tcp_endpoint).expect("served endpoint");
        // Speak the v2 frame protocol directly: two requests pipelined
        // on one connection before reading anything back; each response
        // must carry its request's correlation id verbatim.
        let mut stream = TcpStream::connect(addr).unwrap();
        let product = &world.products[0];
        for (corr, query) in [(7001u64, product.name.as_str()), (7002, "no-such-thing")] {
            let env = Envelope {
                principal: Principal::anonymous(),
                request: Request::Search {
                    query: query.to_string(),
                    center: None,
                    radius_m: f64::INFINITY,
                    k: 3,
                },
            };
            write_frame(&mut stream, 42, corr, &to_bytes(&env)).unwrap();
        }
        // Responses arrive in completion order (the server dispatches
        // concurrently), so match them by correlation id — exactly
        // what the protocol obliges clients to do.
        let mut answered = std::collections::HashMap::new();
        for _ in 0..2 {
            let frame = read_frame(&mut stream).unwrap();
            assert_eq!(frame.sender, tcp_endpoint.0);
            answered.insert(frame.correlation, frame.payload);
        }
        let Response::Search { results } = from_bytes::<Response>(&answered[&7001]).unwrap() else {
            panic!("expected search response");
        };
        assert_eq!(results[0].label, product.name);
        let Response::Search { results } = from_bytes::<Response>(&answered[&7002]).unwrap() else {
            panic!("expected search response");
        };
        assert!(results.is_empty(), "nothing stocked under that name");
    }

    #[test]
    fn serve_tcp_answers_fast_requests_while_slow_request_is_in_flight() {
        use openflame_codec::framing::{read_frame, write_frame};
        use std::net::TcpStream;

        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        let tcp = TcpTransport::new(5);
        let tcp_endpoint = server.serve_on(&tcp);
        let addr = tcp.listen_addr(tcp_endpoint).expect("served endpoint");
        let mut stream = TcpStream::connect(addr).unwrap();
        // Slow request first: a batch of route-matrix items over every
        // stocked shelf — many milliseconds of dijkstra. Then a fast
        // Hello (microseconds) pipelined behind it on the SAME
        // connection. Concurrent server-side dispatch must answer the
        // Hello first, in completion order, correlation ids intact.
        let venue = &world.venues[0];
        let shelves: Vec<u64> = venue.stocked.iter().map(|s| s.1 .0).collect();
        let mut matrix_items: Vec<Request> = (0..64)
            .map(|_| Request::RouteMatrix {
                entries: shelves.clone(),
                exits: shelves.clone(),
            })
            .collect();
        // Calibrate: grow the batch until one in-process dispatch costs
        // well over any dispatch-worker wakeup, so the ordering
        // assertion below cannot flake on a fast machine.
        loop {
            let t0 = std::time::Instant::now();
            let _ = server.dispatch(
                &Principal::anonymous(),
                Request::Batch(matrix_items.clone()),
            );
            if t0.elapsed() >= std::time::Duration::from_millis(50) || matrix_items.len() >= 4096 {
                break;
            }
            matrix_items.extend_from_slice(&matrix_items.clone());
        }
        let item_count = matrix_items.len();
        let slow = Envelope {
            principal: Principal::anonymous(),
            request: Request::Batch(matrix_items),
        };
        write_frame(&mut stream, 42, 9001, &to_bytes(&slow)).unwrap();
        let fast = Envelope {
            principal: Principal::anonymous(),
            request: Request::Batch(vec![Request::Hello]),
        };
        write_frame(&mut stream, 42, 9002, &to_bytes(&fast)).unwrap();
        let first = read_frame(&mut stream).unwrap();
        assert_eq!(
            first.correlation, 9002,
            "fast request must complete while the slow batch is still executing"
        );
        let Response::Batch(items) = from_bytes::<Response>(&first.payload).unwrap() else {
            panic!("expected batch response");
        };
        assert!(matches!(items[0], Response::Hello(_)));
        // The slow batch still completes, positionally intact.
        let second = read_frame(&mut stream).unwrap();
        assert_eq!(second.correlation, 9001);
        let Response::Batch(items) = from_bytes::<Response>(&second.payload).unwrap() else {
            panic!("expected batch response");
        };
        assert_eq!(items.len(), item_count);
        assert!(items
            .iter()
            .all(|item| matches!(item, Response::RouteMatrix { .. })));
    }

    #[test]
    fn malformed_rpc_returns_error_response() {
        let net = BackendKind::Sim.build(1);
        let (server, _world) = venue_server(&net);
        let client = net.register("client", None);
        let transfer = net
            .call(client, server.endpoint(), vec![0xFF, 0xFE])
            .unwrap();
        let resp: Response = from_bytes(&transfer.payload).unwrap();
        assert!(matches!(resp, Response::Error { code: 3, .. }));
    }

    #[test]
    fn patch_updates_and_rebuilds_indices() {
        let net = BackendKind::Sim.build(1);
        let (server, _world) = venue_server(&net);
        let admin = Principal::anonymous(); // open policy
                                            // Add a new product node via patch.
        let (base_version, new_node) = server.with_map(|m| (m.meta().version, NodeId(500_000)));
        let mut patch = MapPatch::new(base_version);
        patch.upsert_nodes.push(openflame_mapdata::Node::new(
            new_node,
            Point2::new(3.0, 3.0),
            Tags::new()
                .with("product", "starfruit")
                .with("name", "Fresh Starfruit"),
        ));
        let v = server.apply_patch(&admin, &patch).unwrap();
        assert_eq!(v, base_version + 1);
        // The new product is searchable immediately.
        let results = server
            .search(&admin, "starfruit", None, f64::INFINITY, 5)
            .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(server.stats().patches, 1);
    }

    /// A venue-like server with structure but nothing searchable: two
    /// untagged nodes joined by a corridor.
    fn bare_config(id: &str, map: Option<MapDocument>) -> MapServerConfig {
        let map = map.unwrap_or_else(|| {
            let mut map = MapDocument::new(
                "Bare Hall",
                "tester",
                openflame_mapdata::GeoReference::Unaligned { hint: None },
            );
            let a = map.add_node(Point2::new(0.0, 0.0), Tags::new());
            let b = map.add_node(Point2::new(10.0, 0.0), Tags::new());
            map.add_way(vec![a, b], Tags::new().with("highway", "corridor"))
                .unwrap();
            map
        });
        MapServerConfig {
            id: id.into(),
            map,
            beacons: vec![],
            tags: TagRegistry::new(),
            policy: AccessPolicy::open(),
            portals: vec![(NodeId(1), LatLng::new(40.44, -79.94).unwrap())],
            location_hint: LatLng::new(40.44, -79.94).unwrap(),
            radius_m: 80.0,
            build_ch: false,
        }
    }

    /// A patch on `base_version` adding one searchable node.
    fn product_patch(base_version: u64, node: u64) -> MapPatch {
        let mut patch = MapPatch::new(base_version);
        patch.upsert_nodes.push(openflame_mapdata::Node::new(
            NodeId(node),
            Point2::new(3.0, 1.0),
            Tags::new()
                .with("product", format!("item{node}"))
                .with("name", format!("Item {node}")),
        ));
        patch
    }

    fn search_count(hello: &HelloInfo) -> u64 {
        hello
            .coverage
            .as_ref()
            .and_then(|c| c.kind_count("search"))
            .expect("servers advertise a search count")
    }

    #[test]
    fn patch_republishes_the_advertisement_with_the_content() {
        let net = BackendKind::Sim.build(1);
        let server = MapServer::spawn_on(&net, bare_config("bare", None));
        let before = server.hello();
        assert_eq!(search_count(&before), 0, "nothing searchable yet");
        let extent = |hello: &HelloInfo| hello.coverage.as_ref().unwrap().extent.clone();
        assert!(
            extent(&before).is_some(),
            "a positive radius commits an extent"
        );

        let version = server
            .apply_patch(
                &Principal::anonymous(),
                &product_patch(before.version, 700_000),
            )
            .unwrap();
        let after = server.hello();
        assert_eq!(after.version, version, "hello reports the patched version");
        assert_eq!(version, before.version + 1);
        assert_eq!(
            search_count(&after),
            1,
            "the first searchable element is advertised as soon as it is served"
        );
        // The extent depends on the registration cap only: a patch must
        // hand on the spawn-time covering untouched.
        assert_eq!(extent(&after), extent(&before));

        // The advertisement is a function of (configuration, map
        // version): a server spawned on the patched map says the same.
        let patched = server.with_map(Clone::clone);
        let fresh = MapServer::spawn_on(
            &BackendKind::Sim.build(2),
            bare_config("bare", Some(patched)),
        );
        assert_eq!(*after, *fresh.hello());
    }

    #[test]
    fn concurrent_hellos_over_tcp_never_mix_two_map_versions() {
        use std::sync::atomic::AtomicBool;
        const PATCHES: u64 = 40;
        const READERS: usize = 2;

        let tcp: Arc<dyn Transport> = Arc::new(TcpTransport::new(7));
        let server = MapServer::spawn_on(&tcp, bare_config("racing", None));
        let base = server.hello();
        let call = |from: EndpointId, request: Request| -> Response {
            let env = Envelope {
                principal: Principal::anonymous(),
                request,
            };
            let transfer = tcp
                .call(from, server.endpoint(), to_bytes(&env).to_vec())
                .unwrap();
            from_bytes(&transfer.payload).unwrap()
        };
        // Every patch adds exactly one searchable node, so the only
        // (version, search count) pairs any map version ever had are
        // (base + n, n).
        let check = |hello: &HelloInfo| {
            assert_eq!(
                search_count(hello),
                hello.version - base.version,
                "hello paired version {} with another version's counts",
                hello.version
            );
        };
        let start = std::sync::Barrier::new(READERS + 1);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    let reader = tcp.register("reader", None);
                    start.wait();
                    loop {
                        // Sampled before the call: the last hello of a
                        // reader is issued after the last patch landed.
                        let last = done.load(Ordering::SeqCst);
                        let Response::Hello(hello) = call(reader, Request::Hello) else {
                            panic!("expected a hello");
                        };
                        check(&hello);
                        if last {
                            assert_eq!(hello.version, base.version + PATCHES);
                            break;
                        }
                    }
                });
            }
            let writer = tcp.register("writer", None);
            start.wait();
            let mut version = base.version;
            for n in 0..PATCHES {
                let patch = product_patch(version, 800_000 + n);
                let Response::PatchApplied { version: applied } =
                    call(writer, Request::ApplyPatch { patch })
                else {
                    panic!("patch {n} refused");
                };
                version = applied;
            }
            done.store(true, Ordering::SeqCst);
        });
        check(&server.hello());
    }

    #[test]
    fn stale_patch_rejected() {
        let net = BackendKind::Sim.build(1);
        let (server, _world) = venue_server(&net);
        let patch = MapPatch::new(99);
        assert!(matches!(
            server.apply_patch(&Principal::anonymous(), &patch),
            Err(ServerError::Failed(_))
        ));
    }

    fn outdoor_server(net: &Arc<dyn Transport>) -> (Arc<MapServer>, World) {
        let world = World::generate(WorldConfig::default());
        let config = MapServerConfig {
            id: "outdoor".into(),
            map: world.outdoor.clone(),
            beacons: vec![],
            tags: TagRegistry::new(),
            policy: AccessPolicy::open(),
            portals: vec![],
            location_hint: world.config.center,
            radius_m: 2_000.0,
            build_ch: false,
        };
        (MapServer::spawn_on(net, config), world)
    }

    #[test]
    fn get_tile_outside_the_pyramid_is_malformed_and_renders_nothing() {
        let net = BackendKind::Sim.build(1);
        let (server, _world) = outdoor_server(&net);
        let renders = || {
            let engines = server.engines.read();
            engines.renderer.as_ref().map(|r| r.renders_performed())
        };
        for (z, x, y) in [(64, 0, 0), (30, 0, 0), (40, 1, 1), (16, u32::MAX, u32::MAX)] {
            let response = server.dispatch(&Principal::anonymous(), Request::GetTile { z, x, y });
            assert!(
                matches!(response, Response::Error { code: 3, .. }),
                "{z}/{x}/{y}: {response:?}"
            );
        }
        assert_eq!(renders(), Some(0), "nothing rendered");
        assert_eq!(server.stats().served.get(&ServiceKind::Tiles), None);
        // The last tile of the deepest zoom is still a tile.
        let last = (1 << openflame_tiles::MAX_ZOOM) - 1;
        let response = server.dispatch(
            &Principal::anonymous(),
            Request::GetTile {
                z: openflame_tiles::MAX_ZOOM,
                x: last,
                y: last,
            },
        );
        assert!(matches!(response, Response::Tile { .. }));
        assert_eq!(renders(), Some(1));
    }

    #[test]
    fn anchored_server_serves_tiles() {
        let net = BackendKind::Sim.build(1);
        let (server, world) = outdoor_server(&net);
        // The advertisement agrees with itself (spec §13.1).
        let hello = server.hello();
        assert!(hello.anchor.is_some());
        let summary = hello
            .coverage
            .as_ref()
            .expect("servers advertise a summary");
        assert_eq!(summary.kind_count("tiles"), Some(1));
        assert!(hello.services.iter().any(|s| s == "tiles"));
        assert_eq!(
            summary.kind_count("localize"),
            Some(hello.localization_techs.len() as u64)
        );
        let (x, y) = openflame_geo::Mercator::tile_for(world.config.center, 15);
        let coord = TileCoord { z: 15, x, y };
        let rgb = server.tile(&Principal::anonymous(), coord).unwrap();
        let tile = openflame_tiles::Tile::from_rgb(coord, &rgb).unwrap();
        assert!(tile.coverage() > 0.0);
        // Venue (unaligned) servers refuse tiles.
        let (venue_server, _) = venue_server(&net);
        assert!(matches!(
            venue_server.tile(&Principal::anonymous(), TileCoord { z: 15, x, y }),
            Err(ServerError::NotOffered(_))
        ));
    }

    #[test]
    fn overload_policy_classifies_principals_and_encodes_busy() {
        let policy = MapServer::overload_policy(8, 777);
        let env = |principal: Principal| {
            to_bytes(&Envelope {
                principal,
                request: Request::Hello,
            })
            .to_vec()
        };
        let anon = (policy.classify)(&env(Principal::anonymous()));
        let alice = (policy.classify)(&env(Principal::user("alice@example.com")));
        let bob = (policy.classify)(&env(Principal::user("bob@example.com")));
        assert_eq!(anon, 0, "anonymous traffic shares the zero key");
        assert_ne!(alice, 0);
        assert_ne!(alice, bob, "distinct principals get distinct keys");
        let busy: Response = from_bytes(&(policy.busy_reply)(777)).unwrap();
        assert!(matches!(
            busy,
            Response::Busy {
                retry_after_us: 777
            }
        ));
    }

    #[test]
    fn overloaded_tcp_endpoint_answers_wire_busy() {
        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        let tcp = TcpTransport::new(5);
        let tcp_endpoint = server.serve_on(&tcp);
        // Tighten the default policy so a small flood saturates it.
        tcp.set_overload_policy(tcp_endpoint, Some(MapServer::overload_policy(1, 777)));
        let client = tcp.register("flood", None);
        let venue = &world.venues[0];
        let shelves: Vec<u64> = venue.stocked.iter().map(|s| s.1 .0).collect();
        let heavy = to_bytes(&Envelope {
            principal: Principal::anonymous(),
            request: Request::Batch(
                (0..48)
                    .map(|_| Request::RouteMatrix {
                        entries: shelves.clone(),
                        exits: shelves.clone(),
                    })
                    .collect(),
            ),
        })
        .to_vec();
        let mut set = Vec::new();
        for _ in 0..16 {
            set.push(tcp.submit(client, tcp_endpoint, heavy.clone()));
        }
        let mut served = 0usize;
        let mut busy = 0usize;
        for result in set.into_iter().map(CallHandle::wait) {
            let transfer = result.expect("overload answers, not errors");
            match from_bytes::<Response>(&transfer.payload).unwrap() {
                Response::Busy { retry_after_us } => {
                    assert_eq!(retry_after_us, 777);
                    busy += 1;
                }
                Response::Batch(_) => served += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(served >= 1, "admitted requests still complete");
        assert!(busy >= 1, "overflow is answered with wire Busy");
        assert_eq!(tcp.shed_requests(), busy as u64);
    }

    #[test]
    fn route_matrix_shape_and_consistency() {
        let net = BackendKind::Sim.build(1);
        let (server, world) = venue_server(&net);
        let venue = &world.venues[0];
        let entrance = venue.entrance_local;
        let shelves: Vec<NodeId> = venue.stocked.iter().take(3).map(|s| s.1).collect();
        let matrix = server
            .route_matrix(&Principal::anonymous(), &[entrance], &shelves)
            .unwrap();
        assert_eq!(matrix.len(), 1);
        assert_eq!(matrix[0].len(), 3);
        // Matrix costs match individual routes.
        for (i, shelf) in shelves.iter().enumerate() {
            let route = server
                .route(&Principal::anonymous(), entrance, *shelf)
                .unwrap()
                .expect("reachable");
            assert!((matrix[0][i] - route.cost).abs() < 1e-6);
        }
    }
}
