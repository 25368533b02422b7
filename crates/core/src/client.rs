//! The OpenFLAME client: federated location-based services (paper §5.2).
//!
//! "In OpenFLAME, the client device first has to discover relevant map
//! servers and request the required services from these map servers,
//! stitching the results if required."
//!
//! Wire discipline: every scatter round sends **one batched envelope
//! per server** through the [`Session`] layer, which also owns the
//! capability handshake — a server it has no fresh advertisement for is
//! asked on the first envelope that goes to it, whatever that envelope
//! carries (wire-protocol spec §8) — and caches advertisements and
//! discovery results, so a logical operation pays one round trip per
//! server, cold or warm. Nothing in this file sends a handshake or
//! remembers anything about a server: what a server advertised, and
//! whether it recently failed, is the session's one entry per endpoint,
//! which the planner ([`crate::plan`]) and replica selection
//! ([`crate::fleet`]) read.
//!
//! Multi-round operations are **pipelined** through the session's
//! [`crate::session::ScatterRound`]: envelopes whose inputs are already
//! known go on the wire immediately instead of barriering behind an
//! earlier round — the two query classes whose request is spelled in
//! the server's frame (search, reverse geocode) handshake cold servers
//! first *while* warm servers' envelopes are already in flight, and
//! stitched routing sends the venue's portal cost matrix alongside the
//! outdoor nearest-node probes. Pipelining reorders *waiting*, never
//! traffic.
//!
//! The client is transport-agnostic: it holds an `Arc<dyn Transport>`
//! and runs identically over the deterministic simulator
//! ([`openflame_netsim::SimNet`]) and real sockets
//! ([`openflame_netsim::TcpTransport`],
//! [`openflame_netsim::QuicLiteTransport`]) — pick the backend with
//! [`OpenFlameClientBuilder::build_on`].

use crate::discovery::{DiscoveredServer, DiscoveryClient};
use crate::fleet::DiscoveryView;
use crate::plan::{self, PlannedTarget, QueryKind, ScatterPlan};
use crate::provider::{
    GeocodeHit, GeocodeOutcome, GeocodeQuery, LocalizeOutcome, LocalizeQuery, ProviderEstimate,
    ReverseGeocodeOutcome, ReverseGeocodeQuery, RouteOutcome, RouteQuery, SearchOutcome,
    SearchQuery, SpatialProvider, StatScope, TileOutcome, TileQuery,
};
use crate::session::{expect_matrix, expect_nearest, expect_route, unexpected_opt, Session};
use crate::ClientError;
use openflame_cells::CellId;
use openflame_dns::Resolver;
use openflame_geo::{LatLng, LocalFrame, Point2};
use openflame_localize::LocationCue;
use openflame_mapdata::{ElementId, NodeId};
use openflame_mapserver::naming::QUERY_LEVEL;
use openflame_mapserver::protocol::{
    Request, Response, WireEstimate, WireGeocodeHit, WireRoute, WireSearchResult,
};
use openflame_mapserver::Principal;
use openflame_netsim::{EndpointId, Transport};
use openflame_routing::{stitch_legs, LegMatrix};
use openflame_search::{fuse_ranked, SearchResult};
use openflame_tiles::{stitch::compose, Tile, TileCoord};
use std::sync::Arc;

/// A search hit with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedSearchHit {
    /// The server that returned the hit.
    pub server_id: String,
    /// The server's endpoint (for follow-up requests such as routing).
    pub endpoint: EndpointId,
    /// The hit itself (positions are in the *server's* frame).
    pub result: WireSearchResult,
}

/// One leg of a stitched route.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteLeg {
    /// The server whose map this leg crosses.
    pub server_id: String,
    /// The in-map route.
    pub route: WireRoute,
    /// Whether this leg's geometry is geo-anchored.
    pub anchored: bool,
}

/// An end-to-end route stitched from per-server legs (paper §5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedRoute {
    /// Legs in travel order.
    pub legs: Vec<RouteLeg>,
    /// Total cost, seconds.
    pub total_cost: f64,
    /// Total length, meters.
    pub total_length_m: f64,
    /// Number of map servers consulted while planning.
    pub servers_consulted: usize,
}

/// Configures and builds an [`OpenFlameClient`].
///
/// ```
/// use openflame_core::OpenFlameClient;
/// use openflame_dns::{Resolver, ResolverConfig};
/// use openflame_mapserver::Principal;
/// use openflame_netsim::BackendKind;
/// use std::sync::Arc;
///
/// let net = BackendKind::Sim.build(1);
/// let dns = net.register("stub-dns", None);
/// let config = ResolverConfig::default();
/// let resolver = Arc::new(Resolver::with_config_on(net.clone(), "resolver", vec![dns], config));
/// let client = OpenFlameClient::builder()
///     .principal(Principal::user("alice@example.com"))
///     .build_on(net, resolver);
/// assert_eq!(client.session().principal(), &Principal::user("alice@example.com"));
/// ```
#[derive(Debug, Clone)]
pub struct OpenFlameClientBuilder {
    principal: Principal,
    world_provider: Option<EndpointId>,
    coverage_planner: bool,
}

impl Default for OpenFlameClientBuilder {
    fn default() -> Self {
        Self {
            principal: Principal::anonymous(),
            world_provider: None,
            coverage_planner: true,
        }
    }
}

impl OpenFlameClientBuilder {
    /// Starts from defaults: anonymous principal, no world provider.
    pub fn new() -> Self {
        Self::default()
    }

    /// The identity attached to requests (paper §5.3 ACLs).
    pub fn principal(mut self, principal: Principal) -> Self {
        self.principal = principal;
        self
    }

    /// The world-map provider used for coarse geocoding
    /// ([`SpatialProvider::geocode`] needs one; per-endpoint
    /// [`OpenFlameClient::federated_geocode`] does not).
    pub fn world_provider(mut self, endpoint: EndpointId) -> Self {
        self.world_provider = Some(endpoint);
        self
    }

    /// Whether the cost-based query planner prunes provably
    /// non-contributing sources from scatter plans using cached
    /// coverage summaries (wire-protocol spec §13). On by default;
    /// pruning is sound, so results are identical either way — the
    /// recall-parity tests pin exactly that. Off is for those tests,
    /// ablations and benches.
    pub fn coverage_planner(mut self, enabled: bool) -> Self {
        self.coverage_planner = enabled;
        self
    }

    /// Registers the client on any transport backend and builds it.
    /// The resolver should speak the same transport, or discovery will
    /// hand back endpoints the client cannot dial.
    pub fn build_on(
        self,
        transport: Arc<dyn Transport>,
        resolver: Arc<Resolver>,
    ) -> OpenFlameClient {
        let endpoint = transport.register("openflame-client", None);
        let session = Session::new(transport.clone(), endpoint, self.principal);
        OpenFlameClient {
            discovery: DiscoveryClient::new(resolver),
            session,
            coverage_planner: self.coverage_planner,
            world_provider: self.world_provider,
        }
    }
}

/// The OpenFLAME client device.
pub struct OpenFlameClient {
    discovery: DiscoveryClient,
    session: Session,
    coverage_planner: bool,
    world_provider: Option<EndpointId>,
}

/// The footprint radius used to prune shards for localization: coarse
/// fixes are street-address quality, so a shard further than this from
/// the coarse position cannot be where the client stands.
const LOCALIZE_FOOTPRINT_M: f64 = 150.0;

impl OpenFlameClient {
    /// A builder for configured clients.
    pub fn builder() -> OpenFlameClientBuilder {
        OpenFlameClientBuilder::new()
    }

    /// The discovery layer.
    pub fn discovery(&self) -> &DiscoveryClient {
        &self.discovery
    }

    /// The client's network endpoint.
    pub fn endpoint(&self) -> EndpointId {
        self.session.endpoint()
    }

    /// The session layer (batched wire calls + caches).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The wire transport the client speaks.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        self.session.transport()
    }

    /// Discovers map servers around a coarse location, consulting the
    /// session's per-cell cache before the DNS. Fleets are flattened:
    /// each shard contributes the replica [`crate::fleet::choose`]
    /// picks, so callers without a spatial footprint still consult
    /// every shard exactly once. Footprint-aware paths use the
    /// shard-pruning plan instead.
    pub fn discover(&self, location: LatLng) -> Result<Vec<DiscoveredServer>, ClientError> {
        Ok(self
            .plan_query_at(None, location, None)?
            .targets
            .into_iter()
            .map(|t| Arc::unwrap_or_clone(t.server))
            .collect())
    }

    /// The fleet-aware discovery view for a location, shard-stably
    /// cached in the session (per query cell). Returns the cache key
    /// cell alongside the view so failover can invalidate it.
    fn discover_view_at(&self, location: LatLng) -> Result<(u64, Arc<DiscoveryView>), ClientError> {
        let cell = CellId::from_latlng(location, QUERY_LEVEL)
            .map_err(|e| ClientError::Protocol(format!("bad location: {e}")))?;
        if let Some(view) = self.session.cached_discovery(cell.raw()) {
            return Ok((cell.raw(), view));
        }
        // Always with the query cell's edge neighbors (ablation E12
        // sweeps the flag on the discovery layer itself).
        let view = Arc::new(self.discovery.discover_view(location, true)?);
        self.session.store_discovery(cell.raw(), view.clone());
        Ok((cell.raw(), view))
    }

    /// Builds the scatter plan for one query: discovery (session-cached
    /// per cell) feeds the planner ([`plan::plan`]), which keeps every
    /// plain server plus one selected replica per fleet shard
    /// intersecting the footprint, minus the sources whose cached
    /// advertisements prove they cannot contribute to `kind`
    /// (wire-protocol spec §13).
    fn plan_query_at(
        &self,
        kind: Option<QueryKind>,
        location: LatLng,
        footprint: Option<(LatLng, f64)>,
    ) -> Result<ScatterPlan, ClientError> {
        let (cell_raw, view) = self.discover_view_at(location)?;
        Ok(plan::plan(
            &self.session,
            self.coverage_planner,
            cell_raw,
            &view,
            kind,
            footprint,
        ))
    }

    /// The planner's scatter plan for a `kind` query at `location`
    /// with footprint radius `radius_m`: consulted targets and pruned
    /// sources with their proofs. Costs no wire traffic beyond (cached)
    /// discovery — coverage is read from the session's cached
    /// advertisements only, so benches and tests use it to account for
    /// planner wire savings.
    pub fn plan_query(
        &self,
        kind: QueryKind,
        location: LatLng,
        radius_m: f64,
    ) -> Result<ScatterPlan, ClientError> {
        self.plan_query_at(Some(kind), location, Some((location, radius_m)))
    }

    // ----------------------------------------------------------------
    // Federated services (paper §5.2).
    // ----------------------------------------------------------------

    /// Federated location-based search: scatter one batched envelope to
    /// every discovered server, gather, and fuse rankings on the
    /// client.
    pub fn federated_search(
        &self,
        query: &str,
        location: LatLng,
        k: usize,
    ) -> Result<Vec<FederatedSearchHit>, ClientError> {
        self.search_impl(query, location, 2_000.0, k)
    }

    fn search_impl(
        &self,
        query: &str,
        location: LatLng,
        radius_m: f64,
        k: usize,
    ) -> Result<Vec<FederatedSearchHit>, ClientError> {
        // Planner-built scatter: plain servers plus one selected
        // replica per fleet shard whose extent intersects the query
        // cap, minus sources whose coverage summaries prove they
        // cannot contribute (spec §13.3 — absent summaries are always
        // consulted, so a cold federation is searched in full).
        let mut plan = self.plan_query_at(
            Some(QueryKind::Search),
            location,
            Some((location, radius_m)),
        )?;
        if plan.targets.is_empty() {
            if plan.pruned.is_empty() {
                return Err(ClientError::NothingDiscovered(format!(
                    "no servers near {location}"
                )));
            }
            // Every discovered source proved empty for this query: the
            // honest answer is "nothing here", same as consulting them
            // all would have returned.
            return Ok(Vec::new());
        }
        // One batched envelope per server. `center` is spelled in the
        // server's frame, so the executor handshakes cold servers first
        // (spec §8): an anchored server gets a frame-local center so it
        // can distance-rank; an unaligned venue map is small, so its
        // whole extent is relevant — center unknown in its frame, as it
        // is for a server whose handshake failed (which is queried all
        // the same). Search is idempotent (wire-protocol spec §7), so
        // failed fleet branches fail over to sibling replicas inside
        // the executor.
        let search_request = |center| Request::Search {
            query: query.to_string(),
            center,
            radius_m,
            k: k as u32,
        };
        let gathered = plan::execute(&self.session, &mut plan, |_, hello| {
            let center = hello
                .and_then(|h| h.anchor)
                .map(|anchor| LocalFrame::new(anchor).to_local(location));
            Some(vec![search_request(center)])
        });
        let targets = &plan.targets;
        let mut lists: Vec<Vec<SearchResult>> = Vec::new();
        let mut provenance: Vec<Vec<FederatedSearchHit>> = Vec::new();
        let mut tally = ScatterTally::default();
        for (idx, (target, outcome)) in targets.iter().zip(gathered).enumerate() {
            let server = &target.server;
            let results = match tally.record(idx, target, outcome) {
                Some(Some(Response::Search { results })) => results,
                // A paper §5.3 denial is an answer — skip it, the show goes
                // on with the rest of the federation — and a dead or
                // dropping server is already on the tally.
                Some(Some(Response::Error { .. })) | None => continue,
                Some(other) => return Err(unexpected_opt(&server.server_id, "Search", other)),
            };
            let mut list = Vec::with_capacity(results.len());
            let mut prov = Vec::with_capacity(results.len());
            for r in results {
                list.push(SearchResult {
                    element: r.element,
                    pos: r.pos,
                    text_score: r.score,
                    distance_m: r.distance_m,
                    score: r.score,
                    label: r.label.clone(),
                });
                prov.push(FederatedSearchHit {
                    server_id: server.server_id.clone(),
                    endpoint: server.endpoint,
                    result: r,
                });
            }
            lists.push(list);
            provenance.push(prov);
        }
        // A down shard means part of the advertised content is
        // unreachable, which must not read as "no results there" (a
        // lone plain server failing while others answer stays absorbed
        // — plain servers advertise no content partition).
        tally.verdict(true)?;
        // Client-side rank fusion (paper §5.2: "the client would then rank
        // results from multiple map servers"). RRF merges the
        // heterogeneous per-server rankings; a client-side relevance
        // check against the query then dominates, so an exact match from
        // one store outranks a near-miss stocked in several (server
        // scores are not comparable, but the client can always score
        // returned labels against its own query).
        // Fuse without truncation: the final cut happens after the
        // relevance re-scoring, otherwise a large federation can crowd
        // the exact match out of the fused prefix.
        let fused = fuse_ranked(lists, usize::MAX);
        let mut out: Vec<(f64, FederatedSearchHit)> = Vec::with_capacity(fused.len());
        for f in fused {
            let source_list = &provenance[f.source];
            if let Some(hit) = source_list
                .iter()
                .find(|h| h.result.label == f.result.label && h.result.element == f.result.element)
            {
                let relevance = label_relevance(query, &hit.result.label);
                out.push((relevance * (1.0 + f.fused_score), hit.clone()));
            }
        }
        out.sort_by(|a, b| b.0.total_cmp(&a.0));
        out.truncate(k);
        Ok(out.into_iter().map(|(_, h)| h).collect())
    }

    /// Federated forward geocode: coarse lookup on the world provider,
    /// then refinement by servers discovered at the coarse location
    /// (paper §5.2), one batched envelope per refining server.
    pub fn federated_geocode(
        &self,
        address: &str,
        world_provider: EndpointId,
        k: usize,
    ) -> Result<Vec<(String, WireGeocodeHit)>, ClientError> {
        Ok(self
            .geocode_impl(address, world_provider, k)?
            .into_iter()
            .map(|h| (h.server_id, h.hit))
            .collect())
    }

    fn geocode_impl(
        &self,
        address: &str,
        world_provider: EndpointId,
        k: usize,
    ) -> Result<Vec<GeocodeHit>, ClientError> {
        // Step 1: coarse position from the world-map provider. On first
        // contact its advertisement (the frame, below) rides this same
        // envelope.
        let responses = self.session.batch(
            world_provider,
            vec![Request::Geocode {
                query: address.to_string(),
                k: 1,
            }],
        )?;
        let coarse = match responses.into_iter().next() {
            Some(Response::Geocode { hits }) => hits.into_iter().next(),
            other => return Err(unexpected_opt("world", "Geocode", other)),
        };
        let Some(coarse_hit) = coarse else {
            return Err(ClientError::NotFound(format!(
                "no coarse geocode for {address:?}"
            )));
        };
        let anchor = self
            .session
            .hello(world_provider)?
            .anchor
            .ok_or_else(|| ClientError::Protocol("world provider must be anchored".into()))?;
        let world_frame = LocalFrame::new(anchor);
        let coarse_geo = world_frame.from_local(coarse_hit.pos);
        let mut out = vec![GeocodeHit {
            server_id: "world".to_string(),
            geo: Some(coarse_geo),
            hit: coarse_hit,
        }];
        // Step 2: fine geocode on the servers discovered there — one
        // batched envelope each, in one concurrent round (first
        // contact teaches the frames needed right below to geo-anchor
        // the hits).
        // The planner prunes refiners whose summaries advertise an
        // empty geocoder; an address is not a spatial footprint, so no
        // extent pruning applies.
        let mut plan = self.plan_query_at(Some(QueryKind::Geocode), coarse_geo, None)?;
        plan.targets.retain(|t| t.server.endpoint != world_provider);
        let outcomes = plan::execute(&self.session, &mut plan, |_, _| {
            Some(vec![Request::Geocode {
                query: address.to_string(),
                k: k as u32,
            }])
        });
        // Refinement is lenient on purpose — no blackout tally: the
        // world provider's coarse hit above is already an answer, so a
        // refiner that is down only costs precision.
        for (target, outcome) in plan.targets.iter().zip(outcomes) {
            let server = &target.server;
            if let Ok(Some(Response::Geocode { hits })) = outcome.map(|mut r| r.pop()) {
                let frame = self
                    .session
                    .cached_hello(server.endpoint)
                    .and_then(|h| h.anchor)
                    .map(LocalFrame::new);
                for hit in hits {
                    out.push(GeocodeHit {
                        server_id: server.server_id.clone(),
                        geo: frame.as_ref().map(|f| f.from_local(hit.pos)),
                        hit,
                    });
                }
            }
        }
        out.sort_by(|a, b| b.hit.score.total_cmp(&a.hit.score));
        out.truncate(k);
        Ok(out)
    }

    /// Federated reverse geocode: ask every discovered *anchored*
    /// server to name the position, best score wins. Unaligned venue
    /// maps cannot interpret a geographic position (paper §3) and are
    /// skipped without a wire call.
    pub fn federated_reverse_geocode(
        &self,
        location: LatLng,
        radius_m: f64,
    ) -> Result<Option<GeocodeHit>, ClientError> {
        // The planner prunes sources advertising no reverse-geocode
        // capability (unaligned venues advertise a zero count) or an
        // extent provably disjoint from the query cap; the anchored
        // filter below then drops whatever unanchored sources remain
        // unproven — they cannot interpret a geographic position
        // (paper §3) and get no service envelope. `pos` is spelled in
        // the server's frame, so the executor handshakes cold servers
        // first (spec §8) and the builder declines once it sees one is
        // unanchored (or unreachable).
        let mut plan = self.plan_query_at(
            Some(QueryKind::ReverseGeocode),
            location,
            Some((location, radius_m)),
        )?;
        let outcomes = plan::execute(&self.session, &mut plan, |_, hello| {
            let anchor = hello.and_then(|h| h.anchor)?;
            Some(vec![Request::ReverseGeocode {
                pos: LocalFrame::new(anchor).to_local(location),
                radius_m,
            }])
        });
        let mut best: Option<GeocodeHit> = None;
        let mut tally = ScatterTally::default();
        for (idx, (target, outcome)) in plan.targets.iter().zip(outcomes).enumerate() {
            let server = &target.server;
            // A server answering "nothing nearby" or denying the service
            // (paper §5.3) has spoken and contributes no candidate.
            let Some(Some(Response::ReverseGeocode { hit: Some(hit) })) =
                tally.record(idx, target, outcome)
            else {
                continue;
            };
            if best.as_ref().is_none_or(|b| hit.score > b.hit.score) {
                let geo = self
                    .session
                    .cached_hello(server.endpoint)
                    .and_then(|h| h.anchor)
                    .map(|anchor| LocalFrame::new(anchor).from_local(hit.pos));
                best = Some(GeocodeHit {
                    server_id: server.server_id.clone(),
                    geo,
                    hit,
                });
            }
        }
        // Best-of-those-answering is still an honest name for the
        // position; only a total blackout is an error.
        tally.verdict(false)?;
        Ok(best)
    }

    /// Routes from a street position to a search result, stitching an
    /// outdoor leg and (if the target is in a venue) an indoor leg at
    /// the portal the paper §5.2 dynamic program selects. The per-portal
    /// probes are coalesced into batched envelopes: one nearest-node
    /// batch, one concurrent matrix round, one concurrent leg round.
    pub fn federated_route(
        &self,
        from: LatLng,
        target: &FederatedSearchHit,
    ) -> Result<FederatedRoute, ClientError> {
        let target_node = match target.result.element {
            ElementId::Node(n) => n,
            _ => {
                return Err(ClientError::NotFound(
                    "route targets must be node elements".into(),
                ))
            }
        };
        let target_hello = self.session.hello(target.endpoint)?;
        let mut servers_consulted = 1usize;
        if let Some(anchor) = target_hello.anchor {
            // Single anchored map covers both endpoints.
            let frame = LocalFrame::new(anchor);
            let from_node = self.nearest_node(target.endpoint, frame.to_local(from))?;
            let route = self.route_on(target.endpoint, from_node, target_node)?;
            return Ok(FederatedRoute {
                total_cost: route.cost,
                total_length_m: route.length_m,
                legs: vec![RouteLeg {
                    server_id: target.server_id.clone(),
                    route,
                    anchored: true,
                }],
                servers_consulted,
            });
        }
        // Venue target: outdoor leg to a portal, indoor leg to the node.
        if target_hello.portals.is_empty() {
            return Err(ClientError::NotFound(format!(
                "venue {} advertises no portals",
                target.server_id
            )));
        }
        // Find the outdoor provider covering the start. The planner's
        // candidate plan prunes sources that provably cannot route
        // (an advertised node count of zero).
        let candidate_plan = self.plan_query_at(Some(QueryKind::Route), from, None)?;
        let candidates: Vec<Arc<DiscoveredServer>> = candidate_plan
            .targets
            .into_iter()
            .map(|t| t.server)
            .filter(|s| s.endpoint != target.endpoint)
            .collect();
        let candidate_endpoints: Vec<EndpointId> = candidates.iter().map(|s| s.endpoint).collect();
        self.session.ensure_hellos(&candidate_endpoints);
        let outdoor = candidates
            .into_iter()
            .find_map(|s| {
                let hello = self.session.cached_hello(s.endpoint)?;
                hello.anchor.map(|anchor| (s, anchor))
            })
            .ok_or_else(|| ClientError::NothingDiscovered("no anchored outdoor provider".into()))?;
        servers_consulted += 1;
        let (outdoor_server, outdoor_anchor) = outdoor;
        let outdoor_frame = LocalFrame::new(outdoor_anchor);
        // Round 1 — pipelined: one batch to the outdoor server (nearest
        // node to the start plus the outdoor side of every advertised
        // portal) *and*, in the same scatter round, the venue-side cost
        // matrix — its entries are the advertised portals and the
        // target node, none of which depend on the outdoor probes, so
        // it has no reason to wait behind them.
        let mut probes = vec![Request::NearestNode {
            pos: outdoor_frame.to_local(from),
        }];
        probes.extend(
            target_hello
                .portals
                .iter()
                .map(|(_, hint)| Request::NearestNode {
                    pos: outdoor_frame.to_local(*hint),
                }),
        );
        let venue_portals: Vec<NodeId> = target_hello
            .portals
            .iter()
            .map(|(n, _)| NodeId(*n))
            .collect();
        let mut round1 = self.session.scatter();
        let probe_idx = round1.submit(outdoor_server.endpoint, probes);
        let venue_idx = round1.submit(
            target.endpoint,
            vec![Request::RouteMatrix {
                entries: venue_portals.iter().map(|n| n.0).collect(),
                exits: vec![target_node.0],
            }],
        );
        // A dead or dropping server in either branch surfaces as a
        // PartialFailure carrying the source error, never a panic.
        let mut gathered: Vec<Option<Vec<Response>>> = Session::gather_all(round1.collect())?
            .into_iter()
            .map(Some)
            .collect();
        let (outdoor_id, venue_id) = (&outdoor_server.server_id, &target.server_id);
        let responses = Session::expect_all(
            outdoor_id,
            gathered[probe_idx].take().expect("probe branch present"),
        )?;
        let from_node = expect_nearest(outdoor_id, &responses[0])?;
        let outdoor_portals: Vec<NodeId> = responses[1..]
            .iter()
            .map(|response| expect_nearest(outdoor_id, response))
            .collect::<Result<_, _>>()?;
        let venue_matrix = expect_matrix(
            venue_id,
            Session::expect_all(
                venue_id,
                gathered[venue_idx].take().expect("venue branch present"),
            )?
            .into_iter()
            .next()
            .expect("one item sent"),
        )?;
        // Round 2 — the outdoor cost matrix (it needs round 1's snapped
        // nodes). Same failure discipline as the scatter rounds.
        let mut round2 = self.session.scatter();
        round2.submit(
            outdoor_server.endpoint,
            vec![Request::RouteMatrix {
                entries: vec![from_node.0],
                exits: outdoor_portals.iter().map(|n| n.0).collect(),
            }],
        );
        let outdoor_matrix = expect_matrix(
            outdoor_id,
            Session::expect_all(
                outdoor_id,
                Session::gather_all(round2.collect())?
                    .pop()
                    .expect("one branch sent"),
            )?
            .into_iter()
            .next()
            .expect("one item sent"),
        )?;
        // The paper §5.2 stitching DP selects the portal.
        let plan = stitch_legs(&[
            LegMatrix::new(outdoor_matrix).map_err(|e| ClientError::Protocol(e.to_string()))?,
            LegMatrix::new(venue_matrix).map_err(|e| ClientError::Protocol(e.to_string()))?,
        ])
        .map_err(|e| ClientError::NotFound(format!("no stitched path: {e}")))?;
        let portal_idx = plan.portal_choices[0];
        // Round 3 — fetch both chosen legs, concurrently.
        let leg_calls = vec![
            (
                outdoor_server.endpoint,
                vec![Request::Route {
                    from: from_node.0,
                    to: outdoor_portals[portal_idx].0,
                }],
            ),
            (
                target.endpoint,
                vec![Request::Route {
                    from: venue_portals[portal_idx].0,
                    to: target_node.0,
                }],
            ),
        ];
        let mut legs = Vec::with_capacity(2);
        let answers = Session::gather_all(self.session.batch_parallel(leg_calls))?;
        for (server, responses) in [outdoor_id, venue_id].into_iter().zip(answers) {
            let responses = Session::expect_all(server, responses)?;
            legs.push(expect_route(
                server,
                responses.into_iter().next().expect("one item sent"),
            )?);
        }
        let venue_route = legs.pop().expect("two legs");
        let outdoor_route = legs.pop().expect("two legs");
        Ok(FederatedRoute {
            total_cost: outdoor_route.cost + venue_route.cost,
            total_length_m: outdoor_route.length_m + venue_route.length_m,
            legs: vec![
                RouteLeg {
                    server_id: outdoor_server.server_id.clone(),
                    route: outdoor_route,
                    anchored: true,
                },
                RouteLeg {
                    server_id: target.server_id.clone(),
                    route: venue_route,
                    anchored: false,
                },
            ],
            servers_consulted,
        })
    }

    /// Federated localization: send each discovered server the cues its
    /// advertisement accepts — one batched envelope per server, in one
    /// concurrent round — gather estimates, best (smallest error) first
    /// (paper §5.2).
    pub fn federated_localize(
        &self,
        coarse: LatLng,
        cues: &[LocationCue],
    ) -> Result<Vec<(String, WireEstimate)>, ClientError> {
        Ok(self
            .localize_impl(coarse, cues)?
            .into_iter()
            .map(|(server, estimate)| (server.server_id.clone(), estimate))
            .collect())
    }

    /// The localize scatter, estimates paired with the server that
    /// produced them.
    fn localize_impl(
        &self,
        coarse: LatLng,
        cues: &[LocationCue],
    ) -> Result<Vec<(Arc<DiscoveredServer>, WireEstimate)>, ClientError> {
        // Planner-built scatter: the coarse fix bounds where the
        // client can stand, so shards outside the localize footprint
        // are skipped, and sources whose summaries prove no
        // localization coverage (no advertised techs, disjoint extent)
        // are pruned (spec §13.3).
        let mut plan = self.plan_query_at(
            Some(QueryKind::Localize),
            coarse,
            Some((coarse, LOCALIZE_FOOTPRINT_M)),
        )?;
        let cues_for = |server: &DiscoveredServer| -> Vec<LocationCue> {
            cues.iter()
                .filter(|c| server.accepts_cue(c.technology()))
                .cloned()
                .collect()
        };
        // One batched envelope per server accepting any of the offered
        // cues (the builder drops the rest from the plan without wire
        // traffic). Localization is idempotent (wire-protocol spec §7)
        // — a failed fleet branch retries on a sibling replica inside
        // the executor, which accepts the same cues (services are
        // advertised group-wide).
        let results = plan::execute(&self.session, &mut plan, |server, _| {
            let matching = cues_for(server);
            (!matching.is_empty()).then(|| vec![Request::Localize { cues: matching }])
        });
        let mut out: Vec<(Arc<DiscoveredServer>, WireEstimate)> = Vec::new();
        let mut tally = ScatterTally::default();
        for (idx, (target, outcome)) in plan.targets.iter().zip(results).enumerate() {
            // No fix and paper §5.3 denials are answers without estimates.
            if let Some(Some(Response::Localize { estimates })) = tally.record(idx, target, outcome)
            {
                out.extend(estimates.into_iter().map(|e| (target.server.clone(), e)));
            }
        }
        // An outage must not read as "no localization coverage here",
        // and neither must a fleet shard still down after failover.
        tally.verdict(true)?;
        out.sort_by(|a, b| a.1.error_m.total_cmp(&b.1.error_m));
        Ok(out)
    }

    /// Federated tiles: fetch the tile covering `center` at zoom `z`
    /// from every discovered server — one batched envelope each, in one
    /// concurrent round — and compose them (paper §5.2).
    pub fn federated_tile(&self, center: LatLng, z: u8) -> Result<Tile, ClientError> {
        Ok(self.tile_impl(center, z)?.0)
    }

    /// [`OpenFlameClient::federated_tile`] plus the number of servers
    /// whose layers went into the composition.
    fn tile_impl(&self, center: LatLng, z: u8) -> Result<(Tile, usize), ClientError> {
        let (x, y) = openflame_geo::Mercator::tile_for(center, z);
        let coord = TileCoord { z, x, y };
        // The planner prunes sources that provably serve no tiles —
        // unaligned venues advertise a zero tile count and refuse
        // `GetTile` outright, so skipping them saves a whole wire call
        // per venue per tile without changing the composition.
        let mut plan = self.plan_query_at(Some(QueryKind::Tile), center, None)?;
        let outcomes = plan::execute(&self.session, &mut plan, |_, _| {
            Some(vec![Request::GetTile { z, x, y }])
        });
        let mut layers: Vec<Tile> = Vec::new();
        let mut tally = ScatterTally::default();
        for (idx, (target, outcome)) in plan.targets.iter().zip(outcomes).enumerate() {
            // Unaligned venues and denied servers answer, but simply
            // don't contribute a layer.
            if let Some(Some(Response::Tile { rgb, .. })) = tally.record(idx, target, outcome) {
                layers.extend(Tile::from_rgb(coord, &rgb));
            }
        }
        // The layers that did arrive still compose; an outage of every
        // consulted server must not read as "no tile providers here".
        tally.verdict(false)?;
        if layers.is_empty() {
            return Err(ClientError::NothingDiscovered(format!(
                "no tile-serving providers near {center}"
            )));
        }
        let refs: Vec<&Tile> = layers.iter().collect();
        Ok((compose(&refs), layers.len()))
    }

    // ----------------------------------------------------------------
    // Single-server helpers.
    // ----------------------------------------------------------------

    /// Nearest routable node on a server.
    pub fn nearest_node(&self, to: EndpointId, pos: Point2) -> Result<NodeId, ClientError> {
        let server = self.session.server_name(to);
        let responses = Session::expect_all(
            &server,
            self.session.batch(to, vec![Request::NearestNode { pos }])?,
        )?;
        expect_nearest(&server, &responses[0])
    }

    /// Point-to-point route on one server.
    pub fn route_on(
        &self,
        to: EndpointId,
        from: NodeId,
        dest: NodeId,
    ) -> Result<WireRoute, ClientError> {
        let server = self.session.server_name(to);
        let request = Request::Route {
            from: from.0,
            to: dest.0,
        };
        let responses = Session::expect_all(&server, self.session.batch(to, vec![request])?)?;
        expect_route(
            &server,
            responses.into_iter().next().expect("one item sent"),
        )
    }
}

impl SpatialProvider for OpenFlameClient {
    fn provider_id(&self) -> String {
        "openflame-federated".into()
    }

    fn geocode(&self, query: GeocodeQuery) -> Result<GeocodeOutcome, ClientError> {
        let world = self.world_provider.ok_or_else(|| {
            ClientError::Protocol("no world provider configured for coarse geocoding".into())
        })?;
        let scope = StatScope::begin(self.session.transport().as_ref());
        let hits = self.geocode_impl(&query.query, world, query.k)?;
        let servers: std::collections::HashSet<&str> =
            hits.iter().map(|h| h.server_id.as_str()).collect();
        let stats = scope.finish(self.session.transport().as_ref(), servers.len());
        Ok(GeocodeOutcome { hits, stats })
    }

    fn reverse_geocode(
        &self,
        query: ReverseGeocodeQuery,
    ) -> Result<ReverseGeocodeOutcome, ClientError> {
        let scope = StatScope::begin(self.session.transport().as_ref());
        let hit = self.federated_reverse_geocode(query.location, query.radius_m)?;
        let stats = scope.finish(
            self.session.transport().as_ref(),
            usize::from(hit.is_some()),
        );
        Ok(ReverseGeocodeOutcome { hit, stats })
    }

    fn search(&self, query: SearchQuery) -> Result<SearchOutcome, ClientError> {
        let scope = StatScope::begin(self.session.transport().as_ref());
        let hits = self.search_impl(&query.query, query.location, query.radius_m, query.k)?;
        let servers: std::collections::HashSet<&str> =
            hits.iter().map(|h| h.server_id.as_str()).collect();
        let stats = scope.finish(self.session.transport().as_ref(), servers.len());
        Ok(SearchOutcome { hits, stats })
    }

    fn route(&self, query: RouteQuery) -> Result<RouteOutcome, ClientError> {
        let scope = StatScope::begin(self.session.transport().as_ref());
        let route = self.federated_route(query.from, &query.target)?;
        let servers = route.servers_consulted;
        let stats = scope.finish(self.session.transport().as_ref(), servers);
        Ok(RouteOutcome { route, stats })
    }

    fn localize(&self, query: LocalizeQuery) -> Result<LocalizeOutcome, ClientError> {
        let scope = StatScope::begin(self.session.transport().as_ref());
        let raw = self.localize_impl(query.coarse, &query.cues)?;
        // Geo-anchor the estimates whose producing server is anchored —
        // pure cache reads: the envelope that brought an estimate also
        // brought its server's advertisement on first contact.
        let estimates: Vec<ProviderEstimate> = raw
            .into_iter()
            .map(|(server, estimate)| {
                let geo = self
                    .session
                    .cached_hello(server.endpoint)
                    .and_then(|h| h.anchor)
                    .map(|anchor| LocalFrame::new(anchor).from_local(estimate.pos));
                ProviderEstimate {
                    server_id: server.server_id.clone(),
                    estimate,
                    geo,
                }
            })
            .collect();
        let servers: std::collections::HashSet<&str> =
            estimates.iter().map(|e| e.server_id.as_str()).collect();
        let stats = scope.finish(self.session.transport().as_ref(), servers.len());
        Ok(LocalizeOutcome { estimates, stats })
    }

    fn tile(&self, query: TileQuery) -> Result<TileOutcome, ClientError> {
        let scope = StatScope::begin(self.session.transport().as_ref());
        let (tile, layer_servers) = self.tile_impl(query.center, query.z)?;
        let stats = scope.finish(self.session.transport().as_ref(), layer_servers);
        Ok(TileOutcome { tile, stats })
    }
}

/// Who spoke and who did not in one scatter round — the bookkeeping
/// every federated gather shares. A server that answers at all (hits,
/// "nothing here", a paper §5.3 denial) has *answered*; only wire
/// failures are failures, kept with their plan index and source error.
#[derive(Default)]
struct ScatterTally {
    answered: usize,
    failures: Vec<(usize, ClientError)>,
    shard_down: bool,
}

impl ScatterTally {
    /// Books branch `idx` of the plan and hands back the (single)
    /// response of a branch that answered; `None` for a wire failure.
    fn record(
        &mut self,
        idx: usize,
        target: &PlannedTarget,
        outcome: Result<Vec<Response>, ClientError>,
    ) -> Option<Option<Response>> {
        match outcome {
            Ok(mut responses) => {
                self.answered += 1;
                Some(responses.pop())
            }
            Err(e) => {
                self.shard_down |= target.fleet.is_some();
                self.failures.push((idx, e));
                None
            }
        }
    }

    /// Surfaces an outage as [`ClientError::PartialFailure`], sources
    /// preserved: always when every consulted server was unreachable
    /// (a blackout must not pass for an honest empty answer), and —
    /// with `shard_down_is_partial`, for services whose answer would
    /// silently omit the shard's content — also when a fleet branch is
    /// still failing after failover, i.e. a whole shard is down.
    fn verdict(self, shard_down_is_partial: bool) -> Result<(), ClientError> {
        let shard_down = shard_down_is_partial && self.shard_down;
        if (self.answered == 0 || shard_down) && !self.failures.is_empty() {
            return Err(ClientError::PartialFailure {
                succeeded: self.answered,
                failures: self.failures,
            });
        }
        Ok(())
    }
}

/// Harmonic token-coverage relevance of a result label for a query
/// (same blend the geocoder uses): 1.0 for an exact token match, lower
/// when either side has unmatched tokens.
fn label_relevance(query: &str, label: &str) -> f64 {
    let q = openflame_geocode::tokenize(query);
    let l = openflame_geocode::tokenize(label);
    if q.is_empty() || l.is_empty() {
        return 0.0;
    }
    let matched = q.iter().filter(|t| l.contains(t)).count() as f64;
    if matched == 0.0 {
        return 0.0;
    }
    let qc = matched / q.len() as f64;
    let lc = matched / l.len() as f64;
    2.0 * qc * lc / (qc + lc)
}
