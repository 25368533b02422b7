//! The Figure-1 centralized baseline.
//!
//! "Today's spatial naming systems are digital maps like Google and
//! Apple maps ... supported by centralized infrastructures" (paper §1). The
//! baseline serves the same client-facing services from a single
//! monolithic map. Two flavors matter for the evaluation:
//!
//! - [`CentralizedProvider::public_only_on`] — outdoor public data only.
//!   This is the *realistic* centralized provider: paper §2 argues exactly
//!   that store inventory and indoor maps "would not be part of the map
//!   database".
//! - [`CentralizedProvider::omniscient_on`] — every venue merged into the
//!   global frame using ground-truth alignments. Unrealizable in
//!   practice (it presumes the cartography and data sharing the paper
//!   says won't happen), but it provides the global optimum that
//!   stitched federated routes are scored against (the `paper_claims`
//!   test `s5_2_stitched_routes_track_the_centralized_optimum`).

use crate::client::{FederatedRoute, FederatedSearchHit, RouteLeg};
use crate::discovery::accepts_cue;
use crate::provider::{
    measured, query_radius, tile_coord, GeocodeHit, GeocodeOutcome, GeocodeQuery, LocalizeOutcome,
    LocalizeQuery, ProviderEstimate, ReverseGeocodeOutcome, ReverseGeocodeQuery, RouteOutcome,
    RouteQuery, SearchOutcome, SearchQuery, SpatialProvider, TileOutcome, TileQuery,
};
use crate::session::{expect_matrix, unexpected, unexpected_opt, wire_k, Session};
use crate::ClientError;
use openflame_geo::{LatLng, LocalFrame};
use openflame_localize::{LocationCue, TagRegistry};
use openflame_mapdata::{ElementId, GeoReference, NodeId, Tags};
use openflame_mapserver::protocol::{Request, Response, RouteEnd};
use openflame_mapserver::{AccessPolicy, MapServer, MapServerConfig, Principal};
use openflame_netsim::Transport;
use openflame_tiles::{Tile, TileCoord};
use openflame_worldgen::World;
use std::collections::HashMap;
use std::sync::Arc;

/// A centralized map provider (Figure 1).
///
/// Serves the same [`SpatialProvider`] API as the federation from a
/// single monolithic map. Its client side goes over the same wire
/// [`Transport`] (simulated or real TCP) through the same batched
/// [`Session`] layer, so message and byte accounting is directly
/// comparable with the federation's.
pub struct CentralizedProvider {
    /// The provider's single map server.
    pub server: Arc<MapServer>,
    /// For omniscient providers: venue-frame node id → merged node id.
    pub merged_nodes: HashMap<(usize, NodeId), NodeId>,
    /// The provider's geographic anchor (city center).
    anchor: LatLng,
    session: Session,
}

impl CentralizedProvider {
    fn assemble(
        transport: Arc<dyn Transport>,
        server: Arc<MapServer>,
        merged_nodes: HashMap<(usize, NodeId), NodeId>,
        anchor: LatLng,
    ) -> Self {
        let endpoint = transport.register("central-client", None);
        Self {
            server,
            merged_nodes,
            anchor,
            session: Session::new(transport, endpoint, Principal::anonymous()),
        }
    }

    /// The realistic centralized provider: public outdoor data only.
    pub fn public_only_on(transport: Arc<dyn Transport>, world: &World) -> Self {
        let server = MapServer::spawn_on(
            &transport,
            MapServerConfig {
                id: "central-public".into(),
                map: world.outdoor.clone(),
                beacons: Vec::new(),
                tags: TagRegistry::new(),
                policy: AccessPolicy::open(),
                portals: Vec::new(),
                location_hint: world.config.center,
                radius_m: city_radius(world),
                build_ch: false,
            },
        );
        Self::assemble(transport, server, HashMap::new(), world.config.center)
    }

    /// The omniscient upper bound: every venue merged into the global
    /// frame via ground-truth transforms, entrances fused into portal
    /// edges.
    pub fn omniscient_on(transport: Arc<dyn Transport>, world: &World) -> Self {
        let mut map = world.outdoor.clone();
        let mut merged_nodes = HashMap::new();
        for (vi, venue) in world.venues.iter().enumerate() {
            // Copy nodes with positions mapped into the city ENU frame.
            for node in venue.map.nodes() {
                let enu = venue.true_transform.apply(node.pos);
                let new_id = map.add_node(enu, node.tags.clone());
                merged_nodes.insert((vi, node.id), new_id);
            }
            // Copy ways with remapped node references.
            for way in venue.map.ways() {
                let nodes: Vec<NodeId> =
                    way.nodes.iter().map(|n| merged_nodes[&(vi, *n)]).collect();
                map.add_way(nodes, way.tags.clone())
                    .expect("remapped nodes exist");
            }
            // Fuse the entrance: connect the merged indoor entrance to
            // the outdoor entrance node so routing crosses the doorway.
            let indoor_entrance = merged_nodes[&(vi, venue.entrance_local)];
            map.add_way(
                vec![venue.entrance_outdoor, indoor_entrance],
                Tags::new()
                    .with("highway", "footway")
                    .with("name", format!("{} door", venue.name)),
            )
            .expect("entrance nodes exist");
        }
        debug_assert!(map.validate().is_ok());
        let server = MapServer::spawn_on(
            &transport,
            MapServerConfig {
                id: "central-omniscient".into(),
                map,
                beacons: Vec::new(),
                tags: TagRegistry::new(),
                policy: AccessPolicy::open(),
                portals: Vec::new(),
                location_hint: world.config.center,
                radius_m: city_radius(world),
                build_ch: false,
            },
        );
        Self::assemble(transport, server, merged_nodes, world.config.center)
    }

    /// The provider's local frame.
    fn local_frame(&self) -> LocalFrame {
        LocalFrame::new(self.anchor)
    }

    /// The session layer (batched wire calls + hello cache).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The wire transport the provider's client side speaks.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        self.session.transport()
    }

    /// One batched envelope to the central server, all items required.
    fn batch_all(&self, requests: Vec<Request>) -> Result<Vec<Response>, ClientError> {
        Session::expect_all(
            self.server.id(),
            self.session.batch(self.server.endpoint(), requests)?,
        )
    }

    /// A single-request envelope whose one response is required.
    fn call_one(&self, request: Request, expected: &'static str) -> Result<Response, ClientError> {
        self.batch_all(vec![request])?
            .pop()
            .ok_or_else(|| unexpected_opt(self.server.id(), expected, None))
    }

    /// The merged node id for a venue-frame node, if this provider has
    /// it.
    pub fn merged_node(&self, venue: usize, node: NodeId) -> Option<NodeId> {
        self.merged_nodes.get(&(venue, node)).copied()
    }

    /// The anchor of the provider's map.
    pub fn anchor(&self) -> Option<LatLng> {
        self.server.with_map(|m| match m.georef() {
            GeoReference::Anchored { origin } => Some(origin),
            GeoReference::Unaligned => None,
        })
    }
}

impl SpatialProvider for CentralizedProvider {
    fn provider_id(&self) -> String {
        self.server.id().to_string()
    }

    fn geocode(&self, query: GeocodeQuery) -> Result<GeocodeOutcome, ClientError> {
        measured(self.transport().as_ref(), || {
            let request = Request::Geocode {
                query: query.query,
                k: wire_k(query.k),
            };
            let hits = match self.call_one(request, "Geocode")? {
                Response::Geocode { hits } => hits,
                other => return Err(unexpected(self.server.id(), "Geocode", &other)),
            };
            let frame = self.local_frame();
            let hits = hits.into_iter().map(|hit| GeocodeHit {
                server_id: self.server.id().to_string(),
                geo: Some(frame.from_local(hit.pos)),
                hit,
            });
            Ok((hits.collect(), 1))
        })
        .map(|(hits, stats)| GeocodeOutcome { hits, stats })
    }

    fn reverse_geocode(
        &self,
        query: ReverseGeocodeQuery,
    ) -> Result<ReverseGeocodeOutcome, ClientError> {
        measured(self.transport().as_ref(), || {
            let frame = self.local_frame();
            let request = Request::ReverseGeocode {
                pos: frame.to_local(query.location),
                radius_m: query_radius(query.radius_m)?,
            };
            let hit = match self.call_one(request, "ReverseGeocode")? {
                Response::ReverseGeocode { hit } => hit,
                other => return Err(unexpected(self.server.id(), "ReverseGeocode", &other)),
            };
            let hit = hit.map(|hit| GeocodeHit {
                server_id: self.server.id().to_string(),
                geo: Some(frame.from_local(hit.pos)),
                hit,
            });
            Ok((hit, 1))
        })
        .map(|(hit, stats)| ReverseGeocodeOutcome { hit, stats })
    }

    fn search(&self, query: SearchQuery) -> Result<SearchOutcome, ClientError> {
        measured(self.transport().as_ref(), || {
            let request = Request::Search {
                query: query.query,
                center: Some(self.local_frame().to_local(query.location)),
                radius_m: query_radius(query.radius_m)?,
                k: wire_k(query.k),
            };
            let results = match self.call_one(request, "Search")? {
                Response::Search { results } => results,
                other => return Err(unexpected(self.server.id(), "Search", &other)),
            };
            let hits = results.into_iter().map(|result| FederatedSearchHit {
                server_id: self.server.id().to_string(),
                endpoint: self.server.endpoint(),
                result,
            });
            Ok((hits.collect(), 1))
        })
        .map(|(hits, stats)| SearchOutcome { hits, stats })
    }

    fn route(&self, query: RouteQuery) -> Result<RouteOutcome, ClientError> {
        measured(self.transport().as_ref(), || {
            let id = self.server.id();
            // A position's nearest routable node: a matrix with no exits.
            let snap = |pos| {
                let (entries, exits) = (vec![RouteEnd::At(pos)], Vec::new());
                let answer = self.batch_all(vec![Request::RouteMatrix { entries, exits }])?;
                Ok::<_, ClientError>(expect_matrix(id, answer, (1, 0))?.1[0])
            };
            let start = snap(self.local_frame().to_local(query.from))?;
            // Try the target node directly; non-node targets and POIs
            // that are not on the road graph get snapped to their
            // nearest routable node.
            let mut route = match query.target.result.element {
                ElementId::Node(node) => self.try_route(start, node.0)?,
                _ => None,
            };
            if route.is_none() {
                route = self.try_route(start, snap(query.target.result.pos)?)?;
            }
            let Some(route) = route else {
                return Err(ClientError::NotFound("no path in central map".into()));
            };
            let route = FederatedRoute {
                total_cost: route.cost,
                total_length_m: route.length_m,
                legs: vec![RouteLeg {
                    server_id: id.to_string(),
                    route,
                    anchored: true,
                }],
            };
            Ok((route, 1))
        })
        .map(|(route, stats)| RouteOutcome { route, stats })
    }

    fn localize(&self, query: LocalizeQuery) -> Result<LocalizeOutcome, ClientError> {
        measured(self.transport().as_ref(), || {
            // Send only the cues the server's catalogue accepts — for a
            // centralized outdoor map that is GNSS and nothing else (paper §2:
            // coverage stops at the door). No accepted cues, no wire call.
            let cues: Vec<LocationCue> = query
                .cues
                .into_iter()
                .filter(|c| accepts_cue(self.server.catalogue(), c))
                .collect();
            let estimates = if cues.is_empty() {
                Vec::new()
            } else {
                match self.call_one(Request::Localize { cues }, "Localize")? {
                    Response::Localize { estimates } => estimates,
                    other => return Err(unexpected(self.server.id(), "Localize", &other)),
                }
            };
            let frame = self.local_frame();
            let estimates: Vec<ProviderEstimate> = estimates
                .into_iter()
                .map(|estimate| ProviderEstimate {
                    server_id: self.server.id().to_string(),
                    geo: Some(frame.from_local(estimate.pos)),
                    estimate,
                })
                .collect();
            // When every cue was filtered out, no server contributed.
            let servers = usize::from(!estimates.is_empty());
            Ok((estimates, servers))
        })
        .map(|(estimates, stats)| LocalizeOutcome { estimates, stats })
    }

    fn tile(&self, query: TileQuery) -> Result<TileOutcome, ClientError> {
        measured(self.transport().as_ref(), || {
            let coord = tile_coord(query.center, query.z)?;
            let request = Request::GetTile {
                z: coord.z,
                x: coord.x,
                y: coord.y,
            };
            // The echoed coordinate must be the one asked for: another
            // tile is not an answer.
            let tile = match self.call_one(request, "Tile")? {
                Response::Tile { z, x, y, rgb } if (TileCoord { z, x, y }) == coord => {
                    Tile::from_runs(coord, &rgb)
                }
                Response::Tile { z, x, y, .. } => {
                    return Err(ClientError::Protocol(format!(
                        "asked for tile {coord:?}, got {z}/{x}/{y}"
                    )))
                }
                other => return Err(unexpected(self.server.id(), "Tile", &other)),
            };
            Ok((tile, 1))
        })
        .map(|(tile, stats)| TileOutcome { tile, stats })
    }
}

impl CentralizedProvider {
    /// One route attempt over the wire; `None` when no path exists.
    fn try_route(
        &self,
        from: u64,
        to: u64,
    ) -> Result<Option<openflame_mapserver::protocol::WireRoute>, ClientError> {
        match self.call_one(Request::Route { from, to }, "Route")? {
            Response::Route { route } => Ok(route),
            other => Err(unexpected(self.server.id(), "Route", &other)),
        }
    }
}

/// Radius covering the whole generated city.
pub(crate) fn city_radius(world: &World) -> f64 {
    let w = world.config.blocks_x as f64 * world.config.block_m;
    let h = world.config.blocks_y as f64 * world.config.block_m;
    (w.hypot(h) / 2.0) * 1.2
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_mapserver::Principal;
    use openflame_netsim::BackendKind;
    use openflame_worldgen::WorldConfig;

    #[test]
    fn public_provider_lacks_indoor_data() {
        let net = BackendKind::Sim.build(3);
        let world = World::generate(WorldConfig::default());
        let public = CentralizedProvider::public_only_on(net.clone(), &world);
        let product = &world.products[0];
        let hits = public
            .server
            .search(
                &Principal::anonymous(),
                &product.name,
                None,
                f64::INFINITY,
                5,
            )
            .unwrap();
        assert!(
            hits.is_empty(),
            "paper §2: centralized maps lack store inventory"
        );
        // But it knows outdoor POIs.
        let poi = public
            .server
            .search(
                &Principal::anonymous(),
                "restaurant",
                None,
                f64::INFINITY,
                5,
            )
            .unwrap();
        assert!(!poi.is_empty());
    }

    #[test]
    fn omniscient_provider_finds_products_and_routes_to_them() {
        let net = BackendKind::Sim.build(3);
        let world = World::generate(WorldConfig::default());
        let omni = CentralizedProvider::omniscient_on(net.clone(), &world);
        let product = &world.products[0];
        let hits = omni
            .server
            .search(
                &Principal::anonymous(),
                &product.name,
                None,
                f64::INFINITY,
                5,
            )
            .unwrap();
        assert!(!hits.is_empty());
        // Door-to-shelf route exists in the merged graph.
        let merged_shelf = omni.merged_node(product.venue, product.shelf).unwrap();
        let outdoor_start = world.outdoor.nodes().next().unwrap().id;
        let route = omni
            .server
            .route(&Principal::anonymous(), outdoor_start, merged_shelf)
            .unwrap();
        assert!(
            route.is_some(),
            "omniscient graph must connect street to shelf"
        );
    }

    #[test]
    fn localize_sends_the_cues_the_catalogue_accepts_without_a_handshake_first() {
        let world = World::generate(WorldConfig::default());
        let public = CentralizedProvider::public_only_on(BackendKind::Sim.build(3), &world);
        let at = world.config.center;
        let localize = |cues| {
            let query = LocalizeQuery { coarse: at, cues };
            let estimates = public.localize(query).unwrap().estimates;
            let session = public.session().stats();
            let messages = public.transport().stats().messages;
            (
                estimates,
                (messages, session.batches, session.batched_requests),
            )
        };
        // The outdoor map's catalogue accepts GNSS only: a beacon cue
        // puts nothing on the wire, not even a handshake.
        let (estimates, wire) = localize(vec![LocationCue::BeaconRssi {
            readings: vec![(1, -60.0)],
        }]);
        assert!(estimates.is_empty());
        assert_eq!(wire, (0, 0, 0));
        // A GNSS cue is one envelope, the handshake riding it (spec §8).
        let (estimates, wire) = localize(vec![LocationCue::Gnss {
            fix: at,
            accuracy_m: 4.0,
        }]);
        assert!(!estimates.is_empty());
        assert_eq!(wire, (2, 1, 2), "Localize and Hello in one envelope");
        let advertised = public.session().advertised(public.server.endpoint());
        assert!(advertised.is_some());
    }

    #[test]
    fn merged_positions_match_ground_truth() {
        let net = BackendKind::Sim.build(3);
        let world = World::generate(WorldConfig::default());
        let omni = CentralizedProvider::omniscient_on(net.clone(), &world);
        let product = &world.products[3];
        let merged = omni.merged_node(product.venue, product.shelf).unwrap();
        let merged_pos = omni.server.with_map(|m| m.node(merged).unwrap().pos);
        let truth_enu = world.venues[product.venue]
            .true_transform
            .apply(product.shelf_pos);
        assert!(merged_pos.distance(truth_enu) < 1e-9);
    }

    #[test]
    fn providers_are_anchored() {
        let net = BackendKind::Sim.build(3);
        let world = World::generate(WorldConfig::default());
        assert!(CentralizedProvider::public_only_on(net.clone(), &world)
            .anchor()
            .is_some());
        assert!(CentralizedProvider::omniscient_on(net.clone(), &world)
            .anchor()
            .is_some());
    }
}
