//! The OpenFLAME client: federated location-based services (paper §5.2).
//!
//! "In OpenFLAME, the client device first has to discover relevant map
//! servers and request the required services from these map servers,
//! stitching the results if required."
//!
//! **One way to ask.** The client answers queries only through
//! [`SpatialProvider`]: each trait method is its class's federated body,
//! measured, so a caller cannot reach a query without its
//! [`crate::CallStats`]. The world provider forward geocoding starts
//! from is named only on the builder
//! ([`OpenFlameClientBuilder::world_provider`]), and the client
//! handshakes only by the session's rule (below).
//!
//! **One scatter loop.** Every single-round service — search, forward
//! geocode's refinement, reverse geocode, localize, tile — is a request
//! builder, an absorber and a merge around the private
//! `OpenFlameClient::scatter`, which owns what they share: the plan
//! ([`plan::plan`]), its execution (`execute`, private to this module,
//! so nothing else can call it), handing each answering server's one
//! response to the absorber (a paper §5.3 denial is an answer with
//! nothing to absorb),
//! and the outage verdict. What else differs per class — whether cold
//! servers are handshaken first, and when unreachable servers turn the
//! call into a [`ClientError::PartialFailure`] — is read from the table
//! on [`QueryKind`], never passed in. Stitched routing runs several
//! rounds on the same executor, failover included: they depend on each
//! other's answers, so instead of the outage verdict every branch and
//! every item of every round must answer (`all_answered`).
//!
//! Wire discipline: every round sends **one batched envelope per
//! server** through the [`Session`] layer, which owns the capability
//! handshake — it rides the first envelope to a server the session has
//! no fresh advertisement for, whatever that envelope carries
//! (wire-protocol spec §8) — so a logical operation pays one round trip
//! per server, cold or warm. Nothing in this file sends a handshake or
//! remembers anything about a server: what a server advertised, and
//! whether it recently failed, is the session's one entry per endpoint,
//! which the planner ([`crate::plan`]) and replica selection
//! ([`crate::fleet`]) read. Rounds are **pipelined** through
//! [`crate::session::ScatterRound`]: envelopes whose inputs are known
//! go on the wire at once — the handshake-first classes handshake cold
//! servers that may have a frame *while* the other envelopes are
//! already in flight, and stitched routing sends the venue's portal
//! cost matrix alongside the outdoor one. Pipelining reorders
//! *waiting*, never traffic.
//!
//! The client is transport-agnostic: it holds an `Arc<dyn Transport>`
//! and runs identically over the deterministic simulator
//! ([`openflame_netsim::BackendKind::Sim`]) and real sockets
//! ([`openflame_netsim::TcpTransport`],
//! [`openflame_netsim::QuicLiteTransport`]) — pick the backend with
//! [`OpenFlameClientBuilder::build_on`].

use crate::discovery::{accepts_cue, DiscoveredServer, DiscoveryClient};
use crate::fleet;
use crate::plan::{self, Outage, PlannedTarget, QueryKind, ScatterPlan};
use crate::provider::{
    measured, query_radius, tile_coord, GeocodeHit, GeocodeOutcome, GeocodeQuery, LocalizeOutcome,
    LocalizeQuery, ProviderEstimate, ReverseGeocodeOutcome, ReverseGeocodeQuery, RouteOutcome,
    RouteQuery, SearchOutcome, SearchQuery, SpatialProvider, TileOutcome, TileQuery,
};
use crate::session::{expect_matrix, expect_route, unexpected, unexpected_opt, wire_k, Session};
use crate::ClientError;
use openflame_cells::CellId;
use openflame_dns::{Catalogue, Resolver};
use openflame_geo::{LatLng, LocalFrame};
use openflame_localize::LocationCue;
use openflame_mapdata::ElementId;
use openflame_mapserver::naming::QUERY_LEVEL;
use openflame_mapserver::protocol::{
    HelloInfo, Request, Response, RouteEnd, WireRoute, WireSearchResult,
};
use openflame_mapserver::Principal;
use openflame_netsim::{EndpointId, Transport};
use openflame_routing::{stitch_legs, LegMatrix};
use openflame_search::{fuse_ranked, SearchResult};
use openflame_tiles::{stitch::compose, PixelRuns, Tile, TileCoord};
use std::cell::Cell;
use std::collections::HashSet;
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

    /// The world-map provider used for coarse geocoding, the one way to
    /// name it: without one, [`SpatialProvider::geocode`] is
    /// [`ClientError::Protocol`] and sends nothing.
    pub fn world_provider(mut self, endpoint: EndpointId) -> Self {
        self.world_provider = Some(endpoint);
        self
    }

    /// Whether the cost-based query planner prunes provably
    /// non-contributing sources from scatter plans using discovery
    /// catalogues (wire-protocol spec §9.1) and cached coverage extents
    /// (spec §13). On by default;
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
    /// each shard contributes the replica `fleet::choose`
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

    /// Builds the scatter plan for one query: the fleet-aware discovery
    /// view (shard-stably cached in the session per query cell) feeds
    /// the planner ([`plan::plan`]),
    /// which keeps every plain server plus one selected replica per
    /// fleet shard intersecting the footprint, minus the sources whose
    /// cached advertisements prove they cannot contribute to `kind`
    /// (wire-protocol spec §13).
    fn plan_query_at(
        &self,
        kind: Option<QueryKind>,
        location: LatLng,
        footprint: Option<(LatLng, f64)>,
    ) -> Result<ScatterPlan, ClientError> {
        let cell = CellId::from_latlng(location, QUERY_LEVEL)
            .map_err(|e| ClientError::Protocol(format!("bad location: {e}")))?
            .raw();
        let view = match self.session.cached_discovery(cell) {
            Some(view) => view,
            None => {
                // Always with the query cell's edge neighbors: boundaries
                // are fuzzy (paper §3).
                let view = Arc::new(self.discovery.discover_view(location, true)?);
                self.session.store_discovery(cell, view.clone());
                view
            }
        };
        Ok(plan::plan(
            &self.session,
            self.coverage_planner,
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
        let footprint = (location, query_radius(radius_m)?);
        self.plan_query_at(Some(kind), location, Some(footprint))
    }

    // ----------------------------------------------------------------
    // The one scatter loop.
    // ----------------------------------------------------------------

    /// A server's local frame, if the server is geo-anchored — a pure
    /// cache read: the envelope that brought a server's answer also
    /// brought its advertisement on first contact.
    fn frame_of(&self, endpoint: EndpointId) -> Option<LocalFrame> {
        let hello = self.session.advertised(endpoint)?;
        hello.anchor.map(LocalFrame::new)
    }

    /// The shared part of every single-round federated query (module
    /// docs): plan, execute — one batched envelope per planned server,
    /// `request_for` building each server's one request from its
    /// advertisement or declining the server without wire traffic —
    /// hand every answer to `absorb`, then judge the round by
    /// [`QueryKind::outage`]. A paper §5.3 denial (or an empty batch)
    /// is an answer that carries nothing to absorb: the show goes on
    /// with the rest of the federation. Returns the executed plan
    /// (declined targets removed, failover provenance rewritten).
    fn scatter(
        &self,
        kind: QueryKind,
        location: LatLng,
        footprint: Option<(LatLng, f64)>,
        request_for: impl Fn(&DiscoveredServer, Option<&HelloInfo>) -> Option<Request>,
        mut absorb: impl FnMut(&DiscoveredServer, Response) -> Result<(), ClientError>,
    ) -> Result<ScatterPlan, ClientError> {
        let mut plan = self.plan_query_at(Some(kind), location, footprint)?;
        let outcomes = execute(&self.session, &mut plan, |_, server, hello| {
            request_for(server, hello).map(|request| vec![request])
        });
        // Only wire failures are failures, kept with their plan index
        // and source error.
        let mut answered = 0;
        let mut failures = Vec::new();
        let mut shard_down = false;
        for (idx, (target, (_, outcome))) in plan.targets.iter().zip(outcomes).enumerate() {
            match outcome.map(|mut responses| responses.pop()) {
                Ok(Some(Response::Error { .. }) | None) => answered += 1,
                Ok(Some(response)) => {
                    answered += 1;
                    absorb(&target.server, response)?;
                }
                Err(e) => {
                    shard_down |= target.fleet.is_some();
                    failures.push((idx, e));
                }
            }
        }
        let outage = match kind.outage() {
            Outage::Absorbed => false,
            Outage::Blackout => answered == 0,
            Outage::BlackoutOrShardDown => answered == 0 || shard_down,
        };
        if outage && !failures.is_empty() {
            return Err(ClientError::PartialFailure {
                succeeded: answered,
                failures,
            });
        }
        Ok(plan)
    }

    /// One route round, one batch per known target: `execute`, failover
    /// included, then [`all_answered`]. Each target is rewritten to the
    /// replica that answered.
    fn route_round<const N: usize>(
        &self,
        kind: Option<QueryKind>,
        mut targets: [&mut PlannedTarget; N],
        batches: [Vec<Request>; N],
    ) -> Result<[Vec<Response>; N], ClientError> {
        let mut plan = ScatterPlan {
            kind,
            targets: targets.iter().map(|t| PlannedTarget::clone(t)).collect(),
            pruned: Vec::new(),
        };
        let outcomes = execute(&self.session, &mut plan, |slot, _, _| {
            Some(batches[slot].clone())
        });
        // Nothing is declined, so the executed plan is the round's
        // targets in order.
        for (target, answering) in targets.iter_mut().zip(plan.targets) {
            **target = answering;
        }
        let mut outcomes = outcomes.into_iter().map(|(_, outcome)| outcome);
        all_answered(targets.each_ref().map(|t| {
            let outcome = outcomes.next().expect("one outcome per target");
            (t.server.server_id.as_str(), outcome)
        }))
    }
}

/// Executes the plan through the session — the single executor behind
/// every federated query path, called only by
/// [`OpenFlameClient::scatter`] and the route rounds. `request_for`
/// builds each target's batch from its slot (its index in the plan as
/// given, inherited by a failover sibling), the server and a borrow of
/// its cached advertisement (the executor holds the shared `Arc` for
/// the call); returning `None` drops the target from the plan (e.g. a
/// localize target accepting none of the offered cues). The returned
/// outcomes, each beside its slot, align positionally with
/// `plan.targets`, which is updated in place (skips removed, failover
/// provenance rewritten to the answering replica).
///
/// **Handshake-first** (spec §8, `QueryKind::handshake_first`): for
/// the kinds whose request is spelled in the *server's* frame a target
/// with no cached advertisement gets the bare handshake in the first
/// round — alongside the warm targets' service envelopes, never ahead
/// of them — and its builder runs in a follow-up round, seeing the
/// advertisement, or `None` if the handshake failed (declining then
/// leaves the target in the plan with the handshake's failure as its
/// outcome). A target whose catalogue omits `rgeocode` has no frame
/// (spec §9.1), so its builder runs in the first round, seeing `None`.
/// Every other kind's envelope simply goes out and the session's rule
/// teaches the advertisement on it.
///
/// **Idempotent requests only** (spec §7, spec §9): failed fleet
/// branches retry on sibling replicas, each failed endpoint marked
/// dead on the way ([`Session::mark_dead`]).
fn execute(
    session: &Session,
    plan: &mut ScatterPlan,
    request_for: impl Fn(usize, &DiscoveredServer, Option<&HelloInfo>) -> Option<Vec<Request>>,
) -> Vec<(usize, Result<Vec<Response>, ClientError>)> {
    let handshake_first = plan.kind.is_some_and(QueryKind::handshake_first);
    // Round one, one envelope per kept target in plan order: its
    // service envelope, or — `cold` — the bare handshake.
    let mut round = session.scatter();
    let mut kept: Vec<(usize, PlannedTarget, bool)> = Vec::new();
    for (slot, target) in plan.targets.drain(..).enumerate() {
        let endpoint = target.server.endpoint;
        let hello = session.advertised(endpoint);
        // A catalogue that omits `rgeocode` rules out a frame (spec §9.1).
        let cold = handshake_first
            && hello.is_none()
            && target.server.offers(QueryKind::ReverseGeocode) != Some(false);
        let requests = if cold {
            Some(Vec::new())
        } else {
            request_for(slot, &target.server, hello.as_deref())
        };
        if let Some(requests) = requests {
            round.submit(endpoint, requests);
            kept.push((slot, target, cold));
        }
    }
    // Round two for the cold targets: their hellos were absorbed
    // on collect, so the builder now sees the advertisement — or
    // `None` if the handshake failed, and a builder that cannot do
    // without it declines here. A decline drops a server the client
    // has seen; one whose handshake failed keeps its failure, so
    // failover and the class's outage rule still see it.
    let mut follow = session.scatter();
    let mut gathered = Vec::with_capacity(kept.len());
    let mut deferred: Vec<usize> = Vec::new();
    for ((slot, target, cold), outcome) in kept.into_iter().zip(round.collect()) {
        if cold {
            let endpoint = target.server.endpoint;
            let hello = session.advertised(endpoint);
            match request_for(slot, &target.server, hello.as_deref()) {
                Some(requests) => {
                    follow.submit(endpoint, requests);
                    deferred.push(gathered.len());
                }
                None if outcome.is_ok() => continue,
                None => {}
            }
        }
        // (A cold target's slot holds its handshake's outcome until
        // the follow-up round overwrites it below.)
        gathered.push((slot, outcome));
        plan.targets.push(target);
    }
    for (idx, outcome) in deferred.into_iter().zip(follow.collect()) {
        gathered[idx].1 = outcome;
    }

    failover(session, plan, &mut gathered, &request_for);
    gathered
}

/// Retries failed fleet branches on sibling replicas. Each failed
/// branch's endpoint is marked dead — one session call, which replaces
/// its advertisement, so the dead replica is neither served from cache
/// nor chosen by the next plan; the branch then retries on the first
/// untried live sibling, round after round, until it succeeds or its
/// replicas are exhausted. Plain (non-fleet) branches are left
/// untouched. On success the branch's plan entry is updated to the
/// answering replica.
fn failover(
    session: &Session,
    plan: &mut ScatterPlan,
    gathered: &mut [(usize, Result<Vec<Response>, ClientError>)],
    request_for: &impl Fn(usize, &DiscoveredServer, Option<&HelloInfo>) -> Option<Vec<Request>>,
) {
    let mut tried: Vec<Vec<EndpointId>> = plan
        .targets
        .iter()
        .map(|t| vec![t.server.endpoint])
        .collect();
    loop {
        let mut retry = session.scatter();
        let mut retrying: Vec<(usize, Arc<DiscoveredServer>)> = Vec::new();
        for (idx, (slot, outcome)) in gathered.iter().enumerate() {
            if outcome.is_ok() {
                continue;
            }
            let Some(shard) = &plan.targets[idx].fleet else {
                continue;
            };
            let failed = *tried[idx].last().expect("seeded with the first pick");
            session.mark_dead(failed);
            let Some(sibling) = fleet::sibling(session, shard, &tried[idx]) else {
                continue;
            };
            let sibling = sibling.clone();
            let hello = session.advertised(sibling.endpoint);
            let Some(requests) = request_for(*slot, &sibling, hello.as_deref()) else {
                continue;
            };
            retry.submit(sibling.endpoint, requests);
            retrying.push((idx, sibling));
        }
        if retrying.is_empty() {
            return;
        }
        let results = retry.collect();
        for ((idx, sibling), result) in retrying.into_iter().zip(results) {
            tried[idx].push(sibling.endpoint);
            plan.targets[idx].server = sibling;
            gathered[idx].1 = result;
        }
    }
}

/// Route's rule for its rounds, in place of an outage verdict: every
/// branch and every item must answer. A failed branch (after failover)
/// or a refused item is a [`ClientError::PartialFailure`] carrying the
/// source error, indexed by branch, or by item within its batch.
fn all_answered<const N: usize>(
    branches: [(&str, Result<Vec<Response>, ClientError>); N],
) -> Result<[Vec<Response>; N], ClientError> {
    let mut answered = Vec::with_capacity(N);
    let mut failures = Vec::new();
    for (idx, (server, outcome)) in branches.into_iter().enumerate() {
        match outcome {
            Ok(responses) => answered.push((server, responses)),
            Err(e) => failures.push((idx, e)),
        }
    }
    if !failures.is_empty() {
        return Err(ClientError::PartialFailure {
            succeeded: answered.len(),
            failures,
        });
    }
    let mut answers = [(); N].map(|()| Vec::new());
    for (slot, (server, responses)) in answers.iter_mut().zip(answered) {
        *slot = Session::expect_all(server, responses)?;
    }
    Ok(answers)
}

/// The route `legs` make, in travel order, and how many servers they
/// came from: each is its target, its one-item `Route` answer and
/// whether its geometry is geo-anchored.
fn route_of<const N: usize>(
    legs: [(&PlannedTarget, Vec<Response>, bool); N],
) -> Result<(FederatedRoute, usize), ClientError> {
    let mut out = Vec::with_capacity(N);
    for (target, answer, anchored) in legs {
        out.push(RouteLeg {
            route: expect_route(&target.server.server_id, answer)?,
            server_id: target.server.server_id.clone(),
            anchored,
        });
    }
    let route = FederatedRoute {
        total_cost: out.iter().map(|leg| leg.route.cost).sum(),
        total_length_m: out.iter().map(|leg| leg.route.length_m).sum(),
        legs: out,
    };
    Ok((route, N))
}

/// How many distinct servers a list of answers came from.
fn distinct<'a>(server_ids: impl Iterator<Item = &'a String>) -> usize {
    server_ids.collect::<HashSet<_>>().len()
}

/// The client's one entry per query class (paper §4): each method is
/// the class's federated body, measured by `provider::measured`.
impl SpatialProvider for OpenFlameClient {
    fn provider_id(&self) -> String {
        "openflame-federated".into()
    }

    /// Federated forward geocode: coarse lookup on the builder's
    /// world provider ([`OpenFlameClientBuilder::world_provider`];
    /// without one the call is [`ClientError::Protocol`], sent
    /// nowhere), then refinement by servers discovered at the coarse
    /// location (paper §5.2), one batched envelope per refining server.
    /// Hits are geo-anchored where the producing server is.
    fn geocode(&self, query: GeocodeQuery) -> Result<GeocodeOutcome, ClientError> {
        let world = self.world_provider.ok_or_else(|| {
            ClientError::Protocol("no world provider configured for coarse geocoding".into())
        })?;
        let GeocodeQuery { query: address, k } = query;
        measured(self.transport().as_ref(), || {
            // Step 1: coarse position from the world-map provider. On
            // first contact its advertisement rides this same envelope,
            // so its frame is a cache read: a provider that refused the
            // handshake has none, as an unanchored one has none.
            let coarse = Request::Geocode {
                query: address.clone(),
                k: 1,
            };
            let coarse_hit = match self.session.batch(world, vec![coarse])?.pop() {
                Some(Response::Geocode { hits }) => hits.into_iter().next().ok_or_else(|| {
                    ClientError::NotFound(format!("no coarse geocode for {address:?}"))
                })?,
                other => return Err(unexpected_opt("world", "Geocode", other)),
            };
            let frame = self.frame_of(world).ok_or_else(|| {
                ClientError::Protocol("world provider advertised no anchor".into())
            })?;
            let coarse_geo = frame.from_local(coarse_hit.pos);
            let mut out = vec![GeocodeHit {
                server_id: "world".to_string(),
                geo: Some(coarse_geo),
                hit: coarse_hit,
            }];
            // Step 2: fine geocode on the servers discovered there (the
            // world provider has spoken and is declined). An address is
            // not a spatial footprint, so no extent pruning applies.
            self.scatter(
                QueryKind::Geocode,
                coarse_geo,
                None,
                |server, _| {
                    (server.endpoint != world).then(|| Request::Geocode {
                        query: address.clone(),
                        k: wire_k(k),
                    })
                },
                |server, response| {
                    if let Response::Geocode { hits } = response {
                        let frame = self.frame_of(server.endpoint);
                        out.extend(hits.into_iter().map(|hit| GeocodeHit {
                            server_id: server.server_id.clone(),
                            geo: frame.as_ref().map(|f| f.from_local(hit.pos)),
                            hit,
                        }));
                    }
                    Ok(())
                },
            )?;
            out.sort_by(|a, b| b.hit.score.total_cmp(&a.hit.score));
            out.truncate(k);
            let servers = distinct(out.iter().map(|h| &h.server_id));
            Ok((out, servers))
        })
        .map(|(hits, stats)| GeocodeOutcome { hits, stats })
    }

    /// Federated reverse geocode: ask every discovered *anchored*
    /// server to name the position, best score wins. Unaligned venue
    /// maps cannot interpret a geographic position (paper §3) and are
    /// skipped without a wire call.
    fn reverse_geocode(
        &self,
        query: ReverseGeocodeQuery,
    ) -> Result<ReverseGeocodeOutcome, ClientError> {
        let ReverseGeocodeQuery { location, radius_m } = query;
        measured(self.transport().as_ref(), || {
            let radius_m = query_radius(radius_m)?;
            let mut best: Option<GeocodeHit> = None;
            // `pos` is spelled in the server's frame: the builder
            // declines a server it sees is unanchored — whatever
            // unanchored sources the planner could not prove out — or
            // whose handshake failed, which keeps its failure for the
            // blackout rule.
            self.scatter(
                QueryKind::ReverseGeocode,
                location,
                Some((location, radius_m)),
                |_, hello| {
                    let anchor = hello.and_then(|h| h.anchor)?;
                    Some(Request::ReverseGeocode {
                        pos: LocalFrame::new(anchor).to_local(location),
                        radius_m,
                    })
                },
                |server, response| {
                    // "Nothing nearby" contributes no candidate.
                    if let Response::ReverseGeocode { hit: Some(hit) } = response {
                        if best.as_ref().is_none_or(|b| hit.score > b.hit.score) {
                            let frame = self.frame_of(server.endpoint);
                            best = Some(GeocodeHit {
                                server_id: server.server_id.clone(),
                                geo: frame.map(|f| f.from_local(hit.pos)),
                                hit,
                            });
                        }
                    }
                    Ok(())
                },
            )?;
            let servers = usize::from(best.is_some());
            Ok((best, servers))
        })
        .map(|(hit, stats)| ReverseGeocodeOutcome { hit, stats })
    }

    /// Federated location-based search: scatter one batched envelope to
    /// every discovered server within the query's radius, gather, and
    /// fuse rankings on the client.
    fn search(&self, query: SearchQuery) -> Result<SearchOutcome, ClientError> {
        let SearchQuery {
            query,
            location,
            radius_m,
            k,
        } = query;
        measured(self.transport().as_ref(), || {
            let radius_m = query_radius(radius_m)?;
            // One ranked list per answering server, and who that server is.
            let mut lists: Vec<Vec<SearchResult>> = Vec::new();
            let mut sources: Vec<(String, EndpointId)> = Vec::new();
            // `center` is spelled in the server's frame: an anchored
            // server gets a frame-local center so it can distance-rank;
            // an unaligned venue map is small, so its whole extent is
            // relevant — center unknown in its frame, as it is for a
            // server whose handshake failed (which is queried all the
            // same).
            let plan = self.scatter(
                QueryKind::Search,
                location,
                Some((location, radius_m)),
                |_, hello| {
                    let anchor = hello.and_then(|h| h.anchor);
                    Some(Request::Search {
                        query: query.clone(),
                        center: anchor.map(|anchor| LocalFrame::new(anchor).to_local(location)),
                        radius_m,
                        k: wire_k(k),
                    })
                },
                |server, response| {
                    let Response::Search { results } = response else {
                        return Err(unexpected(&server.server_id, "Search", &response));
                    };
                    sources.push((server.server_id.clone(), server.endpoint));
                    let ranked = results.into_iter().map(|r| SearchResult {
                        element: r.element,
                        pos: r.pos,
                        text_score: r.score,
                        distance_m: r.distance_m,
                        score: r.score,
                        label: r.label,
                    });
                    lists.push(ranked.collect());
                    Ok(())
                },
            )?;
            // Sources that all proved empty for this query honestly
            // answer "nothing here" (below, as consulting them would
            // have); no sources at all is a different fact.
            if plan.targets.is_empty() && plan.pruned.is_empty() {
                return Err(ClientError::NothingDiscovered(format!(
                    "no servers near {location}"
                )));
            }
            // Client-side rank fusion (paper §5.2: "the client would then
            // rank results from multiple map servers"). RRF merges the
            // heterogeneous per-server rankings; a client-side relevance
            // check against the query then dominates, so an exact match
            // from one store outranks a near-miss stocked in several
            // (server scores are not comparable, but the client can
            // always score returned labels against its own query).
            // Fuse without truncation: the final cut happens after the
            // relevance re-scoring, otherwise a large federation can
            // crowd the exact match out of the fused prefix.
            let query_tokens = openflame_geocode::tokenize(&query);
            let mut out: Vec<(f64, FederatedSearchHit)> = fuse_ranked(lists, usize::MAX)
                .into_iter()
                .map(|f| {
                    let relevance = label_relevance(&query_tokens, &f.result.label);
                    let (server_id, endpoint) = sources[f.source].clone();
                    let result = WireSearchResult {
                        element: f.result.element,
                        pos: f.result.pos,
                        score: f.result.score,
                        distance_m: f.result.distance_m,
                        label: f.result.label,
                    };
                    let hit = FederatedSearchHit {
                        server_id,
                        endpoint,
                        result,
                    };
                    (relevance * (1.0 + f.fused_score), hit)
                })
                .collect();
            out.sort_by(|a, b| b.0.total_cmp(&a.0));
            out.truncate(k);
            let hits: Vec<FederatedSearchHit> = out.into_iter().map(|(_, h)| h).collect();
            let servers = distinct(hits.iter().map(|h| &h.server_id));
            Ok((hits, servers))
        })
        .map(|(hits, stats)| SearchOutcome { hits, stats })
    }

    /// Routes from a street position to a search result, stitching an
    /// outdoor leg and (if the target is in a venue) an indoor leg at
    /// the portal the paper §5.2 dynamic program selects. A warm venue
    /// route is two rounds: both cost matrices, concurrently, then both
    /// legs. The outdoor matrix names its ends as positions, which its
    /// server snaps to nodes itself (spec §8).
    ///
    /// Every round runs on the executor, so a fleet-served target fails
    /// over to a sibling replica (spec §9.4); its branch is found by the
    /// hit's endpoint in the plan at the start. The legs need the
    /// matrices' snapped nodes and stitched portal, so every branch and
    /// every item must answer (`all_answered`).
    fn route(&self, query: RouteQuery) -> Result<RouteOutcome, ClientError> {
        let RouteQuery { from, target } = query;
        measured(self.transport().as_ref(), || {
            let ElementId::Node(target_node) = target.result.element else {
                let reason = "route targets must be node elements";
                return Err(ClientError::NotFound(reason.into()));
            };
            // The route plan at the start: the outdoor candidates (the
            // planner prunes sources that provably cannot route) and,
            // when a fleet serves the target's map, the target's shard.
            let mut plan = self.plan_query_at(Some(QueryKind::Route), from, None)?;
            let shard = (plan.targets.iter().filter_map(|t| t.fleet.as_ref()))
                .find(|s| s.replicas.iter().any(|r| r.endpoint == target.endpoint));
            let mut dest = PlannedTarget {
                server: Arc::new(DiscoveredServer {
                    server_id: target.server_id.clone(),
                    endpoint: target.endpoint,
                    catalogue: Catalogue::default(),
                }),
                fleet: shard.cloned(),
            };
            // First contact: the target's frame and portals shape every
            // later round, so a cold target is handshaken first, in a
            // round asking for no service (no plan kind); one that will
            // not advertise cannot be routed into.
            let target_hello = match self.session.advertised(target.endpoint) {
                Some(hello) => hello,
                None => {
                    self.route_round(None, [&mut dest], [Vec::new()])?;
                    let advertised = self.session.advertised(dest.server.endpoint);
                    advertised.ok_or_else(|| {
                        let id = &dest.server.server_id;
                        ClientError::NotFound(format!("route target {id} advertises no map"))
                    })?
                }
            };
            let kind = plan.kind;
            if let Some(anchor) = target_hello.anchor {
                // Single anchored map covers both endpoints: snap the
                // start (a matrix with no exits), then route.
                let start = RouteEnd::At(LocalFrame::new(anchor).to_local(from));
                let (entries, exits) = (vec![start], Vec::new());
                let snap = Request::RouteMatrix { entries, exits };
                let [snapped] = self.route_round(kind, [&mut dest], [vec![snap]])?;
                let (_, nodes) = expect_matrix(&dest.server.server_id, snapped, (1, 0))?;
                let (from, to) = (nodes[0], target_node.0);
                let [route] =
                    self.route_round(kind, [&mut dest], [vec![Request::Route { from, to }]])?;
                return route_of([(&dest, route, true)]);
            }
            // Venue target: outdoor leg to a portal, indoor leg to the node.
            let portals = &target_hello.portals;
            if portals.is_empty() {
                let reason = format!("venue {} advertises no portals", target.server_id);
                return Err(ClientError::NotFound(reason));
            }
            // Round 1 — one handshake-first round (spec §8) for
            // candidates and target: cold candidates are handshaken
            // while warm envelopes fly, except those whose catalogue
            // rules out a frame. The first candidate seen to be anchored
            // gets the outdoor cost matrix, from the start to the
            // outdoor side of every portal, as positions in its frame;
            // the rest are declined without traffic, or passed over if
            // unreachable. The venue's cost matrix (portals to target)
            // needs none of that and goes out at once.
            let outdoor_costs = |frame: LocalFrame| {
                let at = |pos| RouteEnd::At(frame.to_local(pos));
                let entries = vec![at(from)];
                let exits = portals.iter().map(|(_, hint)| at(*hint)).collect();
                vec![Request::RouteMatrix { entries, exits }]
            };
            let entries = portals.iter().map(|(node, _)| RouteEnd::Node(*node));
            let (entries, exits) = (entries.collect(), vec![RouteEnd::Node(target_node.0)]);
            let venue_costs = Request::RouteMatrix { entries, exits };
            plan.targets
                .retain(|t| t.server.endpoint != target.endpoint);
            let venue_slot = plan.targets.len();
            plan.targets.push(dest);
            // The outdoor pick's slot and frame: a failover sibling of
            // the pick gets the same matrix.
            let pick = Cell::new(None);
            let outcomes = execute(&self.session, &mut plan, |slot, _, hello| {
                if slot == venue_slot {
                    return Some(vec![venue_costs.clone()]);
                }
                match pick.get() {
                    Some((picked, frame)) => (slot == picked).then(|| outdoor_costs(frame)),
                    None => {
                        let frame = LocalFrame::new(hello?.anchor?);
                        pick.set(Some((slot, frame)));
                        Some(outdoor_costs(frame))
                    }
                }
            });
            let (picked, _) = pick.get().ok_or_else(|| {
                ClientError::NothingDiscovered("no anchored outdoor provider".into())
            })?;
            // Both were sent, so both are in the executed plan, in order.
            let mut sent = (plan.targets.into_iter().zip(outcomes))
                .filter(|(_, (slot, _))| [picked, venue_slot].contains(slot));
            let (mut outdoor, (_, outdoor_matrix)) = sent.next().expect("the pick was sent");
            let (mut dest, (_, venue_matrix)) = sent.next().expect("the target was sent");
            let outdoor_id = outdoor.server.server_id.clone();
            let [outdoor_matrix, venue_matrix] = all_answered([
                (outdoor_id.as_str(), outdoor_matrix),
                (dest.server.server_id.as_str(), venue_matrix),
            ])?;
            let n = portals.len();
            let (outdoor_matrix, outdoor_nodes) =
                expect_matrix(&outdoor_id, outdoor_matrix, (1, n))?;
            let (venue_matrix, _) = expect_matrix(&dest.server.server_id, venue_matrix, (n, 1))?;
            // The paper §5.2 stitching DP selects the portal — an index
            // into both portal lists, because both matrices have exactly
            // the shape asked for (which is also all `LegMatrix::new`
            // would check).
            let legs = [outdoor_matrix, venue_matrix].map(|costs| LegMatrix { costs });
            let stitched = stitch_legs(&legs)
                .map_err(|e| ClientError::NotFound(format!("no stitched path: {e}")))?;
            let portal = stitched.portal_choices[0];
            // Round 2 — fetch both chosen legs, concurrently, from the
            // nodes the matrices resolved.
            let legs = [
                (outdoor_nodes[0], outdoor_nodes[1 + portal]),
                (portals[portal].0, target_node.0),
            ];
            let [outdoor_route, venue_route] = self.route_round(
                kind,
                [&mut outdoor, &mut dest],
                legs.map(|(from, to)| vec![Request::Route { from, to }]),
            )?;
            route_of([(&outdoor, outdoor_route, true), (&dest, venue_route, false)])
        })
        .map(|(route, stats)| RouteOutcome { route, stats })
    }

    /// Federated localization: send each discovered server the cues its
    /// catalogue accepts — one batched envelope per server, in one
    /// concurrent round — and gather the estimates, geo-anchored where
    /// the producing server is, best (smallest error) first
    /// (paper §5.2).
    fn localize(&self, query: LocalizeQuery) -> Result<LocalizeOutcome, ClientError> {
        let LocalizeQuery { coarse, cues } = query;
        measured(self.transport().as_ref(), || {
            let mut out: Vec<ProviderEstimate> = Vec::new();
            // The coarse fix bounds where the client can stand, so
            // shards outside the localize footprint are skipped; a
            // server accepting none of the offered cues is declined (a
            // failover sibling accepts the same cues — a catalogue is
            // group-wide).
            self.scatter(
                QueryKind::Localize,
                coarse,
                Some((coarse, LOCALIZE_FOOTPRINT_M)),
                |server, _| {
                    let matching: Vec<LocationCue> = cues
                        .iter()
                        .filter(|c| accepts_cue(server.catalogue, c))
                        .cloned()
                        .collect();
                    (!matching.is_empty()).then_some(Request::Localize { cues: matching })
                },
                |server, response| {
                    if let Response::Localize { estimates } = response {
                        let frame = self.frame_of(server.endpoint);
                        out.extend(estimates.into_iter().map(|estimate| ProviderEstimate {
                            server_id: server.server_id.clone(),
                            geo: frame.as_ref().map(|f| f.from_local(estimate.pos)),
                            estimate,
                        }));
                    }
                    Ok(())
                },
            )?;
            out.sort_by(|a, b| a.estimate.error_m.total_cmp(&b.estimate.error_m));
            let servers = distinct(out.iter().map(|e| &e.server_id));
            Ok((out, servers))
        })
        .map(|(estimates, stats)| LocalizeOutcome { estimates, stats })
    }

    /// Federated tiles: fetch the tile covering the query's center at
    /// its zoom from every discovered server — one batched envelope
    /// each, in one concurrent round — and compose them (paper §5.2);
    /// the servers consulted are the layers composed. A server whose
    /// layer the session holds from the last tile call at this
    /// coordinate is asked to revalidate it by its tag instead of
    /// sending it again (spec §8, "Tile revalidation"): `TileUnchanged`
    /// paints the held runs, a `Tile` replaces them, and any other
    /// answer drops them. Each layer's runs are painted straight into
    /// pixels, and a lone layer is returned as it is (composing one
    /// layer yields that layer). A zoom deeper than the pyramid is
    /// [`ClientError::InvalidQuery`], sent nowhere.
    fn tile(&self, query: TileQuery) -> Result<TileOutcome, ClientError> {
        let TileQuery { center, z } = query;
        measured(self.transport().as_ref(), || {
            let coord = tile_coord(center, z)?;
            let TileCoord { z, x, y } = coord;
            let held = self.session.tile_layers(coord);
            let held_from = |endpoint: EndpointId| {
                let mut layers = held.iter().flat_map(|layers| layers.iter());
                layers
                    .find(|(from, _)| *from == endpoint)
                    .map(|(_, runs)| runs)
            };
            let mut composed: Vec<(EndpointId, PixelRuns)> = Vec::new();
            // (The planner prunes unaligned venues, whose catalogues
            // omit `tiles` and which refuse `GetTile` outright.) A layer
            // echoing another coordinate is another tile and contributes
            // nothing, as does an `Unchanged` for a layer the session
            // sent no tag for.
            self.scatter(
                QueryKind::Tile,
                center,
                None,
                |server, _| {
                    Some(match held_from(server.endpoint) {
                        Some(runs) => Request::RevalidateTile {
                            z,
                            x,
                            y,
                            tag: runs.tag(),
                        },
                        None => Request::GetTile { z, x, y },
                    })
                },
                |server, response| {
                    let runs = match response {
                        Response::Tile { z, x, y, rgb } if (TileCoord { z, x, y }) == coord => {
                            Some(rgb)
                        }
                        Response::TileUnchanged { z, x, y } if (TileCoord { z, x, y }) == coord => {
                            held_from(server.endpoint).cloned()
                        }
                        _ => None,
                    };
                    composed.extend(runs.map(|runs| (server.endpoint, runs)));
                    Ok(())
                },
            )?;
            let mut layers: Vec<Tile> = composed
                .iter()
                .map(|(_, runs)| Tile::from_runs(coord, runs))
                .collect();
            self.session.store_tile_layers(coord, composed.into());
            match layers.len() {
                0 => Err(ClientError::NothingDiscovered(format!(
                    "no tile-serving providers near {center}"
                ))),
                1 => Ok((layers.swap_remove(0), 1)),
                n => Ok((compose(&layers.iter().collect::<Vec<_>>()), n)),
            }
        })
        .map(|(tile, stats)| TileOutcome { tile, stats })
    }
}

/// Harmonic token-coverage relevance of a result label for a query's
/// tokens `q` (same blend the geocoder uses): 1.0 for an exact token
/// match, lower when either side has unmatched tokens.
fn label_relevance(q: &[String], label: &str) -> f64 {
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
