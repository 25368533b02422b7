//! Cost-based federated query planning: one plan→execute pipeline for
//! every client scatter path (`docs/wire-protocol.md` spec §13).
//!
//! The paper's federated design makes a cold query scatter to *every*
//! server covering the query cells; at city scale most of those
//! servers cannot contribute anything, so wire cost grows with
//! federation size rather than answer size. The planner bends that
//! curve: it consumes the fleet-aware [`DiscoveryView`] plus the
//! session's cached per-server
//! [`CoverageSummary`](openflame_mapserver::CoverageSummary)
//! advertisements
//! (seeded from the extended `Hello` exchange, spec §13.1) and builds a
//! [`ScatterPlan`] — the servers to consult (one selected replica per
//! intersecting fleet shard, exactly as the pre-planner paths chose)
//! minus the sources whose summaries *prove* they cannot contribute.
//!
//! # Pruning soundness (spec §13.3)
//!
//! A server may be skipped only on proof, never on heuristics:
//!
//! - [`PruneReason::MissingKind`] — the query's service kind is absent
//!   from the advertised kind set (the set is exhaustive by spec);
//! - [`PruneReason::EmptyKind`] — the kind is advertised with a
//!   document count of zero;
//! - [`PruneReason::DisjointExtent`] — the query footprint is provably
//!   disjoint from the advertised extent (every extent cell fails the
//!   conservative `may_intersect` test **and** the two caps are
//!   further apart than the sum of their radii — both checks must
//!   agree, so a malformed advertisement can only cost an unnecessary
//!   consult, never a wrong skip).
//!
//! A server with an **absent or stale** summary has *unknown*
//! coverage and MUST be consulted. Empty-answer demotion streaks
//! ([`crate::session::CoverageState::empty_streaks`], refined via
//! [`Session::note_answer`]) are a cost signal only: they are exposed
//! on the plan ([`PlannedTarget::empty_streak`]) for observability and
//! bench accounting, but MUST NOT prune, and the executor keeps
//! advertisement order so planner-on and planner-off runs fuse
//! byte-identically (the recall-parity pin).
//!
//! # Execution
//!
//! [`PlanExecutor`] runs a plan through [`Session::scatter`] with the
//! fleet machinery the ad hoc paths used to duplicate: one batched
//! envelope per planned server — the session's handshake rule (spec §8)
//! teaches a cold server's advertisement on that same envelope, so the
//! executor's only handshake decision is *handshake-first* for the two
//! kinds whose request is spelled in the server's frame — replica
//! failover with dead-listing for fleet branches (idempotent requests
//! only, spec §7 — the dead replica's discovery cell is invalidated
//! *and* its per-endpoint cached state purged, so a dead endpoint is
//! never re-served from cache), and empty-answer refinement of the
//! coverage cache on the way out.

use crate::discovery::DiscoveredServer;
use crate::fleet::{DiscoveryView, FleetSelector, FleetShardView};
use crate::session::{CoverageState, Session};
use crate::ClientError;
use openflame_cells::{CellId, Region};
use openflame_geo::LatLng;
use openflame_mapserver::protocol::{CoverageExtent, HelloInfo, Request, Response};
use openflame_netsim::EndpointId;
use std::sync::Arc;

/// The service kind a query plan targets, mapped to the wire-level
/// kind vocabulary of the coverage summary (spec §13.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Location-based search (`Request::Search`).
    Search,
    /// Forward geocoding (`Request::Geocode`).
    Geocode,
    /// Reverse geocoding (`Request::ReverseGeocode`).
    ReverseGeocode,
    /// Routing (`Request::Route` / matrices / nearest-node probes).
    Route,
    /// Localization (`Request::Localize`).
    Localize,
    /// Tile rendering (`Request::GetTile`).
    Tile,
}

impl QueryKind {
    /// The wire-level kind string used in [`CoverageSummary::kinds`]
    /// (spec §13.1 vocabulary).
    ///
    /// [`CoverageSummary::kinds`]: openflame_mapserver::CoverageSummary
    pub fn wire_kind(self) -> &'static str {
        match self {
            QueryKind::Search => "search",
            QueryKind::Geocode => "geocode",
            QueryKind::ReverseGeocode => "rgeocode",
            QueryKind::Route => "route",
            QueryKind::Localize => "localize",
            QueryKind::Tile => "tiles",
        }
    }
}

/// Why the planner skipped a source (spec §13.3 — all three are
/// proofs, never heuristics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// The query kind is absent from the advertised kind set.
    MissingKind,
    /// The kind is advertised with a document count of zero.
    EmptyKind,
    /// The advertised extent is provably disjoint from the query
    /// footprint.
    DisjointExtent,
}

/// A source the planner proved non-contributing and skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedSource {
    /// The skipped server's id.
    pub server_id: String,
    /// The skipped server's endpoint.
    pub endpoint: EndpointId,
    /// The proof that let the planner skip it.
    pub reason: PruneReason,
}

/// Fleet context of a planned branch: the shard it consults (sibling
/// replicas live in `shard.replicas`) and the discovery-cache cell to
/// invalidate on failover.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBranch {
    /// The shard this branch consults, shared with the discovery view
    /// it was planned from.
    pub shard: Arc<FleetShardView>,
    /// The session discovery-cache cell to invalidate on failover.
    pub cell_raw: u64,
}

/// One branch of a scatter plan: the concrete server to consult,
/// plus — when the branch serves a fleet shard — the failover context.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedTarget {
    /// The server to consult (updated to the answering replica on
    /// failover, keeping provenance honest), shared with the discovery
    /// view it was planned from.
    pub server: Arc<DiscoveredServer>,
    /// Fleet failover context, `None` for plain servers.
    pub fleet: Option<FleetBranch>,
    /// The server's consecutive-empty streak for the plan's kind — a
    /// cost signal for observability and bench accounting. MUST NOT
    /// influence pruning (spec §13.3), and the executor keeps
    /// advertisement order, so it never changes what a query returns.
    pub empty_streak: u32,
}

/// A scatter plan: which sources to consult for one query, which were
/// provably skipped, and enough accounting for the bench sweeps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScatterPlan {
    /// The service kind planned for, `None` for kind-agnostic plans
    /// (pure discovery listings — those never prune).
    pub kind: Option<QueryKind>,
    /// The sources to consult, in advertisement order.
    pub targets: Vec<PlannedTarget>,
    /// The sources skipped, each with its proof.
    pub pruned: Vec<PrunedSource>,
}

impl ScatterPlan {
    /// Sources this plan consults.
    pub fn consulted(&self) -> usize {
        self.targets.len()
    }

    /// Sources the planner proved non-contributing.
    pub fn pruned_count(&self) -> usize {
        self.pruned.len()
    }

    /// Candidate sources the planner considered (after the fleet
    /// layer's own shard-footprint filtering, which predates the
    /// planner and applies in both planner modes). No production
    /// caller: it is the planner-parity oracle — `planner_parity`
    /// asserts the pruned and unpruned arms considered the same
    /// sources, `plan_allocations` that its fixture covers every fleet.
    pub fn considered(&self) -> usize {
        self.targets.len() + self.pruned.len()
    }
}

/// Builds [`ScatterPlan`]s from discovery views and cached coverage.
///
/// With the planner disabled the plan is exactly the pre-planner
/// scatter set (every plain server plus one replica per intersecting
/// shard); enabling it only ever removes provably non-contributing
/// sources — the recall-parity tests pin that the results are
/// identical either way.
#[derive(Debug, Clone)]
pub struct QueryPlanner {
    enabled: bool,
}

impl Default for QueryPlanner {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl QueryPlanner {
    /// A planner with coverage-based pruning on or off.
    pub fn new(enabled: bool) -> Self {
        Self { enabled }
    }

    /// Whether coverage-based pruning is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Builds the scatter plan for one query: every plain server plus
    /// one selected replica per fleet shard intersecting `footprint`,
    /// minus (when enabled) the sources whose cached coverage
    /// summaries prove they cannot contribute to `kind`.
    ///
    /// Costs no wire traffic: coverage is read from the session cache
    /// only, so a cold federation (no summaries yet) is consulted in
    /// full — pruning is a warm-path optimization by construction.
    pub fn plan(
        &self,
        session: &Session,
        fleet: &FleetSelector,
        cell_raw: u64,
        view: &DiscoveryView,
        kind: Option<QueryKind>,
        footprint: Option<(LatLng, f64)>,
    ) -> ScatterPlan {
        let transport = session.transport().as_ref();
        let mut plan = ScatterPlan {
            kind,
            targets: Vec::new(),
            pruned: Vec::new(),
        };
        for server in &view.servers {
            self.admit(session, &mut plan, server, None, footprint);
        }
        for shard in view.fleets.iter().flat_map(|f| &f.shards) {
            if shard.replicas.is_empty() {
                continue;
            }
            if let Some((center, radius_m)) = footprint {
                if !shard.intersects(center, radius_m) {
                    continue;
                }
            }
            // Every replica dead-listed: consult the first anyway —
            // the dead-list is a hint, and the wire (not the cache)
            // should decide whether the shard is truly down.
            let server = fleet.choose(transport, shard).unwrap_or(&shard.replicas[0]);
            self.admit(
                session,
                &mut plan,
                server,
                Some((shard, cell_raw)),
                footprint,
            );
        }
        plan
    }

    /// Admits one candidate into the plan, or prunes it on proof. Only
    /// an admitted candidate is cloned out of the view, and that clone
    /// is a refcount bump.
    fn admit(
        &self,
        session: &Session,
        plan: &mut ScatterPlan,
        server: &Arc<DiscoveredServer>,
        fleet: Option<(&Arc<FleetShardView>, u64)>,
        footprint: Option<(LatLng, f64)>,
    ) {
        let state = session.cached_coverage(server.endpoint);
        if self.enabled {
            if let (Some(kind), Some(state)) = (plan.kind, state.as_deref()) {
                if let Some(reason) = prune_reason(state, kind, footprint) {
                    plan.pruned.push(PrunedSource {
                        server_id: server.server_id.clone(),
                        endpoint: server.endpoint,
                        reason,
                    });
                    return;
                }
            }
        }
        let empty_streak = match (plan.kind, state) {
            (Some(kind), Some(state)) => state
                .empty_streaks
                .get(kind.wire_kind())
                .copied()
                .unwrap_or(0),
            _ => 0,
        };
        plan.targets.push(PlannedTarget {
            server: server.clone(),
            fleet: fleet.map(|(shard, cell_raw)| FleetBranch {
                shard: shard.clone(),
                cell_raw,
            }),
            empty_streak,
        });
    }
}

/// The proof (if any) that a source with this coverage state cannot
/// contribute to a `kind` query over `footprint` (spec §13.3). A state
/// without a summary proves nothing — "unknown coverage, never prune".
fn prune_reason(
    state: &CoverageState,
    kind: QueryKind,
    footprint: Option<(LatLng, f64)>,
) -> Option<PruneReason> {
    let summary = state.summary.as_ref()?;
    match summary.kind_count(kind.wire_kind()) {
        // The advertised kind set is exhaustive (spec §13.1): absence
        // is a commitment that the kind cannot be answered.
        None => return Some(PruneReason::MissingKind),
        Some(0) => return Some(PruneReason::EmptyKind),
        Some(_) => {}
    }
    let (center, radius_m) = footprint?;
    let extent = summary.extent.as_ref()?;
    footprint_disjoint(extent, center, radius_m).then_some(PruneReason::DisjointExtent)
}

/// Whether a query cap is *provably* disjoint from an advertised
/// extent. Requires both the cell-covering test and the cap-distance
/// test to agree; any malformed or empty advertisement proves nothing.
fn footprint_disjoint(extent: &CoverageExtent, center: LatLng, radius_m: f64) -> bool {
    if extent.cells.is_empty() {
        return false;
    }
    let cap = Region::Cap { center, radius_m };
    for &raw in &extent.cells {
        match CellId::from_raw(raw) {
            Ok(cell) => {
                if cap.may_intersect_cell(cell) {
                    return false;
                }
            }
            // A cell that does not decode proves nothing.
            Err(_) => return false,
        }
    }
    center.haversine_distance(extent.center) > radius_m + extent.radius_m
}

/// Runs [`ScatterPlan`]s through the session: one batched envelope per
/// planned server, fleet failover, and coverage refinement. The single
/// executor behind every federated query path.
pub struct PlanExecutor<'a> {
    session: &'a Session,
    fleet: &'a FleetSelector,
}

impl<'a> PlanExecutor<'a> {
    /// An executor over the client's session and fleet selector.
    pub fn new(session: &'a Session, fleet: &'a FleetSelector) -> Self {
        Self { session, fleet }
    }

    /// Executes the plan. `request_for` builds each target's batch
    /// from the server and a borrow of its cached advertisement (the
    /// executor holds the shared `Arc` for the call); returning `None`
    /// drops the target from the plan (e.g. a localize target accepting
    /// none of the offered cues). The returned outcomes align
    /// positionally with `plan.targets`, which is updated in place
    /// (skips removed, failover provenance rewritten to the answering
    /// replica).
    ///
    /// **Handshake-first** (spec §8): a `Search` carries `center` and a
    /// `ReverseGeocode` carries `pos` in the *server's* frame, so for
    /// those two kinds a target with no cached advertisement gets the
    /// bare handshake in the first round — alongside the warm targets'
    /// service envelopes, never ahead of them — and its builder runs in
    /// a follow-up round, seeing the advertisement, or `None` if the
    /// handshake failed. Every other kind's envelope simply goes out
    /// and the session's rule teaches the advertisement on it.
    ///
    /// **Idempotent requests only** (spec §7, spec §9): failed fleet
    /// branches retry on sibling replicas. Each failed endpoint is
    /// dead-listed, its discovery cell invalidated *and* its
    /// per-endpoint cached state (hello + coverage) purged — a dead
    /// replica must not be re-served from any cache for up to a TTL.
    ///
    /// When the plan carries a kind, gathered answers refine the
    /// coverage cache ([`Session::note_answer`]): empty answers extend
    /// a server's demotion streak, non-empty ones reset it. The streak
    /// is a cost signal only and never prunes (spec §13.3).
    pub fn run(
        &self,
        plan: &mut ScatterPlan,
        request_for: impl Fn(&DiscoveredServer, Option<&HelloInfo>) -> Option<Vec<Request>>,
    ) -> Vec<Result<Vec<Response>, ClientError>> {
        let handshake_first = matches!(
            plan.kind,
            Some(QueryKind::Search | QueryKind::ReverseGeocode)
        );
        // Round one, one envelope per kept target in plan order: its
        // service envelope, or — `cold` — the bare handshake.
        let mut round = self.session.scatter();
        let mut kept: Vec<(PlannedTarget, bool)> = Vec::new();
        for target in plan.targets.drain(..) {
            let endpoint = target.server.endpoint;
            // One probe: a fresh advertisement counts as a hit, a
            // missing one is counted by the session when the envelope
            // that asks goes out.
            let hello = self.session.cached_hello(endpoint);
            let cold = handshake_first && hello.is_none();
            let requests = if cold {
                Some(Vec::new())
            } else {
                request_for(&target.server, hello.as_deref())
            };
            if let Some(requests) = requests {
                round.submit(endpoint, requests);
                kept.push((target, cold));
            }
        }
        // Round two for the cold targets: their hellos were absorbed
        // on collect, so the builder now sees the advertisement — or
        // `None` if the handshake failed, and a builder that cannot do
        // without it declines here.
        let mut follow = self.session.scatter();
        let mut gathered = Vec::with_capacity(kept.len());
        let mut deferred: Vec<usize> = Vec::new();
        for ((target, cold), outcome) in kept.into_iter().zip(round.collect()) {
            if cold {
                let endpoint = target.server.endpoint;
                let hello = self.session.cached_hello(endpoint);
                let Some(requests) = request_for(&target.server, hello.as_deref()) else {
                    continue;
                };
                follow.submit(endpoint, requests);
                deferred.push(gathered.len());
            }
            // (A cold target's slot holds its handshake's outcome until
            // the follow-up round overwrites it below.)
            gathered.push(outcome);
            plan.targets.push(target);
        }
        for (idx, outcome) in deferred.into_iter().zip(follow.collect()) {
            gathered[idx] = outcome;
        }

        self.failover(plan, &mut gathered, &request_for);

        if let Some(kind) = plan.kind {
            for (target, outcome) in plan.targets.iter().zip(&gathered) {
                let Ok(responses) = outcome else { continue };
                if let Some(empty) = responses.last().and_then(answer_emptiness) {
                    self.session
                        .note_answer(target.server.endpoint, kind.wire_kind(), empty);
                }
            }
        }
        gathered
    }

    /// Retries failed fleet branches on sibling replicas. Each failed
    /// branch's endpoint is dead-listed, its discovery-cache cell
    /// invalidated and its per-endpoint cached state purged, so the
    /// dead replica is not re-served from cache; the branch then
    /// retries on the first untried live sibling, round after round,
    /// until it succeeds or its replicas are exhausted. Plain
    /// (non-fleet) branches are left untouched. On success the
    /// branch's plan entry is updated to the answering replica.
    fn failover(
        &self,
        plan: &mut ScatterPlan,
        gathered: &mut [Result<Vec<Response>, ClientError>],
        request_for: &impl Fn(&DiscoveredServer, Option<&HelloInfo>) -> Option<Vec<Request>>,
    ) {
        let transport = self.session.transport().clone();
        let mut tried: Vec<Vec<EndpointId>> = plan
            .targets
            .iter()
            .map(|t| vec![t.server.endpoint])
            .collect();
        loop {
            let mut retry = self.session.scatter();
            let mut retrying: Vec<(usize, Arc<DiscoveredServer>)> = Vec::new();
            for (idx, outcome) in gathered.iter().enumerate() {
                if outcome.is_ok() {
                    continue;
                }
                let Some(branch) = &plan.targets[idx].fleet else {
                    continue;
                };
                let failed = *tried[idx].last().expect("seeded with the first pick");
                self.fleet.mark_dead(transport.as_ref(), failed);
                self.session.invalidate_cell(branch.cell_raw);
                // The bugfix half of dead-listing: without the purge,
                // the dead replica's hello and coverage entries
                // survive the discovery invalidation and are re-served
                // for up to a TTL.
                self.session.purge_endpoint(failed);
                let Some(sibling) =
                    self.fleet
                        .sibling(transport.as_ref(), &branch.shard, &tried[idx])
                else {
                    continue;
                };
                let sibling = sibling.clone();
                let hello = self.session.cached_hello(sibling.endpoint);
                let Some(requests) = request_for(&sibling, hello.as_deref()) else {
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
                gathered[idx] = result;
            }
        }
    }
}

/// Whether a service response is an *empty* answer, for coverage
/// refinement. Errors (denials) and non-service responses are answers
/// but not emptiness evidence.
fn answer_emptiness(response: &Response) -> Option<bool> {
    match response {
        Response::Search { results } => Some(results.is_empty()),
        Response::Geocode { hits } => Some(hits.is_empty()),
        Response::ReverseGeocode { hit } => Some(hit.is_none()),
        Response::Localize { estimates } => Some(estimates.is_empty()),
        Response::Tile { .. } => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_mapserver::protocol::CoverageSummary;
    use std::collections::HashMap;

    fn state(summary: Option<CoverageSummary>) -> CoverageState {
        CoverageState {
            summary,
            empty_streaks: HashMap::new(),
        }
    }

    fn anchor() -> LatLng {
        LatLng::new(37.0, -122.0).unwrap()
    }

    fn summary_with(kinds: Vec<(&str, u64)>, extent: Option<CoverageExtent>) -> CoverageSummary {
        CoverageSummary {
            kinds: kinds.into_iter().map(|(k, n)| (k.to_string(), n)).collect(),
            extent,
        }
    }

    fn extent_around(center: LatLng, radius_m: f64) -> CoverageExtent {
        let cells = openflame_cells::RegionCoverer::new(4, 14, 16)
            .covering(&Region::Cap { center, radius_m })
            .into_iter()
            .map(|c| c.raw())
            .collect();
        CoverageExtent {
            cells,
            center,
            radius_m,
        }
    }

    #[test]
    fn absent_summary_never_prunes() {
        // "Unknown coverage, never prune" (spec §13.3): a state with no
        // summary — pre-coverage peer, or refinement-only entry — is
        // consulted regardless of kind or footprint.
        let s = state(None);
        assert_eq!(
            prune_reason(&s, QueryKind::Search, Some((anchor(), 10.0))),
            None
        );
        assert_eq!(prune_reason(&s, QueryKind::Tile, None), None);
    }

    #[test]
    fn kind_proofs_prune() {
        let missing = state(Some(summary_with(vec![("search", 3)], None)));
        assert_eq!(
            prune_reason(&missing, QueryKind::Tile, None),
            Some(PruneReason::MissingKind)
        );
        let empty = state(Some(summary_with(vec![("tiles", 0), ("search", 3)], None)));
        assert_eq!(
            prune_reason(&empty, QueryKind::Tile, None),
            Some(PruneReason::EmptyKind)
        );
        assert_eq!(prune_reason(&empty, QueryKind::Search, None), None);
    }

    #[test]
    fn disjoint_extent_prunes_overlapping_does_not() {
        let venue = anchor();
        let summary = summary_with(vec![("search", 5)], Some(extent_around(venue, 80.0)));
        let s = state(Some(summary));
        // A footprint at the venue intersects.
        assert_eq!(
            prune_reason(&s, QueryKind::Search, Some((venue, 50.0))),
            None
        );
        // A footprint 50 km away is provably disjoint.
        let far = LatLng::new(37.45, -122.0).unwrap();
        assert!(venue.haversine_distance(far) > 10_000.0);
        assert_eq!(
            prune_reason(&s, QueryKind::Search, Some((far, 100.0))),
            Some(PruneReason::DisjointExtent)
        );
        // No footprint: nothing to prove disjointness against.
        assert_eq!(prune_reason(&s, QueryKind::Search, None), None);
    }

    #[test]
    fn malformed_or_empty_extent_proves_nothing() {
        let far = LatLng::new(37.45, -122.0).unwrap();
        // No cells: the covering half of the proof cannot run.
        let empty = CoverageExtent {
            cells: vec![],
            center: anchor(),
            radius_m: 80.0,
        };
        assert!(!footprint_disjoint(&empty, far, 100.0));
        // An undecodable cell poisons the proof even when the caps are
        // far apart — the consult is wasted, never the skip.
        let malformed = CoverageExtent {
            cells: vec![0],
            center: anchor(),
            radius_m: 80.0,
        };
        assert!(!footprint_disjoint(&malformed, far, 100.0));
    }

    #[test]
    fn wire_kind_matches_spec_vocabulary() {
        let kinds = [
            (QueryKind::Search, "search"),
            (QueryKind::Geocode, "geocode"),
            (QueryKind::ReverseGeocode, "rgeocode"),
            (QueryKind::Route, "route"),
            (QueryKind::Localize, "localize"),
            (QueryKind::Tile, "tiles"),
        ];
        for (kind, wire) in kinds {
            assert_eq!(kind.wire_kind(), wire);
        }
    }

    #[test]
    fn empty_streaks_ride_the_plan_but_never_prune() {
        let mut s = state(Some(summary_with(vec![("search", 5)], None)));
        s.empty_streaks.insert("search".to_string(), 7);
        // A long empty streak is not a proof.
        assert_eq!(prune_reason(&s, QueryKind::Search, None), None);
    }
}
