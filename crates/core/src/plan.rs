//! Cost-based federated query planning: one plan→execute pipeline for
//! every client scatter path (`docs/wire-protocol.md` spec §13).
//!
//! The paper's federated design makes a cold query scatter to *every*
//! server covering the query cells; at city scale most of those
//! servers cannot contribute anything, so wire cost grows with
//! federation size rather than answer size. The planner bends that
//! curve: [`plan`] consumes the fleet-aware [`DiscoveryView`], whose
//! records carry each server's catalogue and each fleet shard's extent,
//! plus the extent cells riding in each server's cached advertisement
//! (spec §13.1) and builds a [`ScatterPlan`] — the servers
//! to consult (one selected replica per intersecting fleet shard,
//! exactly as the pre-planner paths chose) minus the sources whose
//! catalogue or extent *proves* they cannot contribute.
//!
//! # Pruning soundness (spec §13.3)
//!
//! A server may be skipped only on proof, never on heuristics:
//!
//! - [`PruneReason::MissingKind`] — the query's service kind's bit is
//!   clear in the server's discovery catalogue (its record's
//!   `catalogue`, spec §9.1), the server's one kind list and exhaustive
//!   by spec;
//! - [`PruneReason::DisjointExtent`] — every cell of the advertised
//!   extent fails the conservative may-intersect test against the
//!   query footprint. An empty or malformed extent proves nothing, so
//!   it can only cost an unnecessary consult, never a wrong skip.
//!
//! A fleet shard's extent and an advertisement's are one `Extent`, its
//! cell bounds computed once and cached with it, so a warm plan computes
//! no cell geometry. A shard whose extent misses the footprint is
//! filtered before the proofs run, in both planner modes (spec §9.2).
//!
//! The catalogue rides every discovery record, so a kind proof holds
//! before first contact: a cold plan already skips the servers that do
//! not offer the kind. Beyond that, a server with an **absent or
//! stale** advertisement — or one whose extent proves nothing, or one
//! marked dead — has *unknown* coverage and MUST be consulted, and so
//! must a server whose catalogue names no kind of the vocabulary.
//! Nothing else feeds the decision: past answers are not remembered,
//! and the executor keeps advertisement order so planner-on and
//! planner-off runs fuse byte-identically (the recall-parity pin).
//!
//! # Execution
//!
//! The executor that runs a plan is private to the [`crate::client`]
//! module, beside its two callers, the client's scatter loop and
//! stitched routing's rounds, so no other module can grow a second. It
//! sends one batched envelope per planned server through
//! [`Session::scatter`]: the session's
//! handshake rule (spec §8) teaches a cold server's advertisement on
//! that same envelope, so the executor's only handshake decision is
//! *handshake-first* ([`QueryKind`]'s table says for which kinds, and
//! when failed servers make a round an outage; a server whose
//! catalogue rules out a frame skips it). It fails fleet
//! branches over to sibling replicas (idempotent requests only, spec
//! §7): each failed replica is marked dead in the session, which
//! replaces its advertisement, so a dead endpoint is never re-served
//! from cache, and the next plan, reading the mark, chooses a sibling.

use crate::discovery::DiscoveredServer;
use crate::fleet::{self, DiscoveryView, FleetShardView};
use crate::session::Session;
use openflame_cells::{CellId, Region};
use openflame_dns::Catalogue;
use openflame_geo::{BBox, LatLng};
use openflame_netsim::EndpointId;
use std::sync::{Arc, OnceLock};

/// The service kind a query plan targets, mapped to its bit in the
/// discovery catalogue (spec §9.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Location-based search (`Request::Search`).
    Search,
    /// Forward geocoding (`Request::Geocode`).
    Geocode,
    /// Reverse geocoding (`Request::ReverseGeocode`).
    ReverseGeocode,
    /// Routing (`Request::Route` / `Request::RouteMatrix`).
    Route,
    /// Localization (`Request::Localize`).
    Localize,
    /// Tile rendering (`Request::GetTile`, or `Request::RevalidateTile`
    /// for a layer the session holds).
    Tile,
}

impl QueryKind {
    /// The kind's bit in a discovery catalogue (spec §9.1).
    pub(crate) fn entry(self) -> Catalogue {
        match self {
            QueryKind::Search => Catalogue::SEARCH,
            QueryKind::Geocode => Catalogue::GEOCODE,
            QueryKind::ReverseGeocode => Catalogue::RGEOCODE,
            QueryKind::Route => Catalogue::ROUTE,
            QueryKind::Localize => Catalogue::LOCALIZE,
            QueryKind::Tile => Catalogue::TILES,
        }
    }

    /// Whether the request is spelled in the *server's* frame
    /// (`Search::center`, `ReverseGeocode::pos`, the positional ends of
    /// the `RouteMatrix` in route's candidate round), so the executor
    /// needs a cold target's advertisement before it can build it
    /// (spec §8).
    pub(crate) fn handshake_first(self) -> bool {
        matches!(self, Self::Search | Self::ReverseGeocode | Self::Route)
    }

    /// When servers that failed at the wire make a scatter round of
    /// this class an outage instead of an answer.
    pub(crate) fn outage(self) -> Outage {
        match self {
            // The answer would silently omit a down shard's content.
            // (Route is stricter still and judges its own rounds: every
            // branch and every item must answer.)
            QueryKind::Search | QueryKind::Localize | QueryKind::Route => {
                Outage::BlackoutOrShardDown
            }
            // Best-of-those-answering still names the position; the
            // layers that did arrive still compose.
            QueryKind::ReverseGeocode | QueryKind::Tile => Outage::Blackout,
            // The world provider's coarse hit is already an answer: a
            // refiner that is down only costs precision.
            QueryKind::Geocode => Outage::Absorbed,
        }
    }
}

/// A class's rule for surfacing [`crate::ClientError::PartialFailure`]
/// (sources preserved) although some servers may have answered. A
/// server that answers at all — hits, "nothing here", a paper §5.3
/// denial — has answered; only wire failures count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outage {
    /// Never.
    Absorbed,
    /// When every consulted server failed: a blackout must not pass
    /// for an honest empty answer.
    Blackout,
    /// On a blackout, and when a fleet branch still fails after
    /// failover: a whole shard of advertised content is down.
    BlackoutOrShardDown,
}

/// An extent as the planner tests it (spec §13.3): its cells and, from
/// the first footprint tested against it, their bounding boxes, cached
/// with it (in a [`FleetShardView`], in the session's entry for an
/// advertisement) and shared by its clones.
#[derive(Debug, Clone)]
pub(crate) struct Extent(Arc<Cells>);

/// An extent's cells, and their bounding boxes once computed.
#[derive(Debug)]
struct Cells(Box<[CellId]>, OnceLock<Box<[BBox]>>);

impl Extent {
    /// The extent of raw cell ids; `None`, proving nothing (spec §13.3),
    /// when the list is empty or holds an id that is not a valid cell.
    pub(crate) fn new(ids: &[u64]) -> Option<Self> {
        let cells: Box<[CellId]> = ids
            .iter()
            .map(|&raw| CellId::from_raw(raw).ok())
            .collect::<Option<_>>()?;
        (!cells.is_empty()).then(|| Self(Arc::new(Cells(cells, OnceLock::new()))))
    }

    /// Whether a query cap may intersect the extent, conservatively (the
    /// verdict of `may_intersect_cell` per cell): `false` is a proof.
    pub(crate) fn may_intersect(&self, center: LatLng, radius_m: f64) -> bool {
        let Cells(cells, boxes) = &*self.0;
        let boxes = boxes.get_or_init(|| cells.iter().map(CellId::bbox).collect());
        let cap = Region::Cap { center, radius_m };
        boxes.iter().any(|bb| cap.may_intersect_bbox(bb))
    }
}

/// Extents are equal when their cells are: the boxes are a cache.
impl PartialEq for Extent {
    fn eq(&self, other: &Self) -> bool {
        self.0 .0 == other.0 .0
    }
}

/// Why the planner skipped a source (spec §13.3 — both are proofs,
/// never heuristics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// The query kind is absent from the server's discovery catalogue.
    MissingKind,
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

/// One branch of a scatter plan: the concrete server to consult,
/// plus — when the branch serves a fleet shard — the shard it fails
/// over within.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedTarget {
    /// The server to consult (updated to the answering replica on
    /// failover, keeping provenance honest), shared with the discovery
    /// view it was planned from.
    pub server: Arc<DiscoveredServer>,
    /// The fleet shard this branch consults (sibling replicas live in
    /// its `replicas`), shared with the discovery view it was planned
    /// from; `None` for plain servers.
    pub fleet: Option<Arc<FleetShardView>>,
}

/// A scatter plan: which sources to consult for one query, which were
/// provably skipped, and enough accounting for the bench sweeps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScatterPlan {
    /// The service kind planned for, `None` for kind-agnostic plans
    /// (pure discovery listings, which never prune, and route's
    /// first-contact round, which asks for no service).
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

/// Builds the scatter plan for one query: every plain server plus
/// one selected replica per fleet shard intersecting `footprint`,
/// minus — with `coverage_planner` on — the sources whose catalogue or
/// advertised extent proves they cannot contribute to `kind`.
///
/// With `coverage_planner` off the plan is exactly the pre-planner
/// scatter set; turning it on only ever removes provably
/// non-contributing sources — the recall-parity tests pin that the
/// results are identical either way.
///
/// Costs no wire traffic: a server's catalogue is read from the
/// discovery view, its extent from the session's entry for it. A cold
/// plan therefore prunes only what catalogues rule out, and a warm one
/// also what extents prove.
pub fn plan(
    session: &Session,
    coverage_planner: bool,
    view: &DiscoveryView,
    kind: Option<QueryKind>,
    footprint: Option<(LatLng, f64)>,
) -> ScatterPlan {
    let mut plan = ScatterPlan {
        kind,
        targets: Vec::new(),
        pruned: Vec::new(),
    };
    // A kind-agnostic plan never prunes.
    let prune_for = kind.filter(|_| coverage_planner);
    // Admits one candidate into the plan, or prunes it on proof. Only
    // an admitted candidate is cloned out of the view, and that clone
    // is a refcount bump.
    let mut admit = |server: &Arc<DiscoveredServer>, shard: Option<&Arc<FleetShardView>>| {
        let proof = prune_for.and_then(|kind| {
            if server.offers(kind) == Some(false) {
                return Some(PruneReason::MissingKind);
            }
            prune_reason(&session.extent(server.endpoint)?, footprint)
        });
        match proof {
            Some(reason) => plan.pruned.push(PrunedSource {
                server_id: server.server_id.clone(),
                endpoint: server.endpoint,
                reason,
            }),
            None => plan.targets.push(PlannedTarget {
                server: server.clone(),
                fleet: shard.cloned(),
            }),
        }
    };
    for server in &view.servers {
        admit(server, None);
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
        // Every replica marked dead: consult the first anyway — the
        // mark is a hint, and the wire (not the cache) should decide
        // whether the shard is truly down.
        let server = fleet::choose(session, shard).unwrap_or(&shard.replicas[0]);
        admit(server, Some(shard));
    }
    plan
}

/// The proof (if any) that a source advertising `extent` cannot
/// contribute to a query over `footprint` (spec §13.3).
fn prune_reason(extent: &Extent, footprint: Option<(LatLng, f64)>) -> Option<PruneReason> {
    let (center, radius_m) = footprint?;
    (!extent.may_intersect(center, radius_m)).then_some(PruneReason::DisjointExtent)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::session::tests::stub_hello;
    use crate::session::DEFAULT_TTL_US;
    use openflame_cells::RegionCoverer;
    use openflame_mapserver::naming::QUERY_LEVEL;
    use openflame_mapserver::protocol::HelloInfo;
    use openflame_mapserver::Principal;
    use openflame_netsim::BackendKind;

    fn anchor() -> LatLng {
        LatLng::new(37.0, -122.0).unwrap()
    }

    /// A point 50 km north of [`anchor`].
    fn far() -> LatLng {
        LatLng::new(37.45, -122.0).unwrap()
    }

    /// An extent's cells, in advertisement order.
    pub(crate) fn cells(extent: &Extent) -> &[CellId] {
        &extent.0 .0
    }

    /// The raw cells a server registered at `center` with `radius_m`
    /// advertises: the covering of its registration cap.
    fn extent_around(center: LatLng, radius_m: f64) -> Vec<u64> {
        RegionCoverer::new(4, QUERY_LEVEL, 16)
            .covering(&Region::Cap { center, radius_m })
            .into_iter()
            .map(|c| c.raw())
            .collect()
    }

    /// A one-server discovery view, a session on the simulator, and
    /// that server's advertisement carrying `coverage`.
    fn one_source(coverage: Vec<u64>) -> (Session, DiscoveryView, HelloInfo) {
        let transport = BackendKind::Sim.build(1);
        let endpoint = transport.register("client", None);
        let session = Session::new(transport, endpoint, Principal::anonymous());
        let view = DiscoveryView {
            servers: vec![Arc::new(DiscoveredServer {
                server_id: "venue-0".into(),
                endpoint: EndpointId(50),
                catalogue: Catalogue::SEARCH,
            })],
            fleets: Vec::new(),
        };
        let hello = HelloInfo {
            coverage,
            ..stub_hello(50)
        };
        (session, view, hello)
    }

    /// A search plan over a footprint at [`far`], disjoint from every
    /// extent these tests advertise.
    fn search_plan(session: &Session, view: &DiscoveryView) -> ScatterPlan {
        let footprint = Some((far(), 100.0));
        plan(session, true, view, Some(QueryKind::Search), footprint)
    }

    #[test]
    fn absent_summary_never_prunes() {
        // "Unknown coverage, never prune" (spec §13.3): a source with no
        // cached advertisement, or one whose extent is empty, is
        // consulted.
        let (session, view, hello) = one_source(Vec::new());
        assert_eq!(search_plan(&session, &view).consulted(), 1);
        session.store_hello(EndpointId(50), hello);
        let plan = search_plan(&session, &view);
        assert_eq!((plan.consulted(), plan.pruned_count()), (1, 0));
    }

    #[test]
    fn the_planner_prunes_from_the_cached_advertisement_alone() {
        let (session, view, hello) = one_source(extent_around(anchor(), 80.0));
        // One stored advertisement carrying the proof is enough.
        session.store_hello(EndpointId(50), hello.clone());
        let pruned = search_plan(&session, &view);
        assert_eq!(pruned.consulted(), 0);
        assert_eq!(pruned.pruned[0].reason, PruneReason::DisjointExtent);
        // The recall oracle and kind-agnostic listings never prune.
        let (search, footprint) = (Some(QueryKind::Search), Some((far(), 100.0)));
        assert_eq!(
            plan(&session, false, &view, search, footprint).consulted(),
            1
        );
        assert_eq!(plan(&session, true, &view, None, footprint).consulted(), 1);
        // A re-advertisement with an empty extent withdraws the proof.
        let bare = HelloInfo {
            coverage: Vec::new(),
            ..hello.clone()
        };
        session.store_hello(EndpointId(50), bare);
        assert_eq!(search_plan(&session, &view).consulted(), 1);
        // A stale advertisement proves nothing, and neither does the
        // advertisement of an endpoint since marked dead.
        session.store_hello(EndpointId(50), hello.clone());
        session.transport().advance_us(DEFAULT_TTL_US + 1);
        assert_eq!(search_plan(&session, &view).consulted(), 1);
        session.store_hello(EndpointId(50), hello);
        assert_eq!(search_plan(&session, &view).consulted(), 0);
        session.mark_dead(EndpointId(50));
        assert_eq!(search_plan(&session, &view).consulted(), 1);
    }

    /// The advertisement proves no kind (spec §13.3): a server whose
    /// catalogue lists the kind and whose cached extent overlaps the
    /// footprint, or meets no footprint at all, is consulted.
    #[test]
    fn a_listed_kind_over_an_overlapping_extent_is_consulted() {
        let (session, view, hello) = one_source(extent_around(anchor(), 80.0));
        session.store_hello(EndpointId(50), hello);
        for footprint in [None, Some((anchor(), 50.0))] {
            let plan = plan(&session, true, &view, Some(QueryKind::Search), footprint);
            let kept = (plan.consulted(), plan.pruned_count());
            assert_eq!(kept, (1, 0), "{footprint:?}");
        }
    }

    /// Spec §9.1: the discovery catalogue is exhaustive over the kind
    /// vocabulary, so it proves a kind missing before first contact —
    /// unless it names no kind at all.
    #[test]
    fn the_catalogue_prunes_an_omitted_kind_before_first_contact() {
        let (session, mut view, _) = one_source(Vec::new());
        let tile_plan = |view: &DiscoveryView, coverage_planner| {
            plan(
                &session,
                coverage_planner,
                view,
                Some(QueryKind::Tile),
                None,
            )
        };
        // No advertisement stored: the catalogue `search` alone is the
        // proof.
        assert!(session.advertised(EndpointId(50)).is_none());
        let pruned = tile_plan(&view, true);
        assert_eq!(pruned.consulted(), 0);
        assert_eq!(pruned.pruned[0].reason, PruneReason::MissingKind);
        // The planner-off arm prunes nothing.
        assert_eq!(tile_plan(&view, false).consulted(), 1);
        // A catalogue naming no kind of the vocabulary proves nothing,
        // and neither does a bit the spec does not name.
        for catalogue in [
            Catalogue::default(),
            Catalogue::LOCALIZE_BEACON,
            Catalogue(1 << 20),
        ] {
            view.servers[0] = Arc::new(DiscoveredServer {
                catalogue,
                ..DiscoveredServer::clone(&view.servers[0])
            });
            let plan = tile_plan(&view, true);
            assert_eq!(
                (plan.consulted(), plan.pruned_count()),
                (1, 0),
                "{catalogue:?}"
            );
        }
    }

    #[test]
    fn disjoint_extent_prunes_overlapping_does_not() {
        let venue = anchor();
        let extent = Extent::new(&extent_around(venue, 80.0)).expect("a covering is an extent");
        // A footprint at the venue intersects.
        assert_eq!(prune_reason(&extent, Some((venue, 50.0))), None);
        // A footprint 50 km away is provably disjoint.
        assert!(venue.haversine_distance(far()) > 10_000.0);
        assert_eq!(
            prune_reason(&extent, Some((far(), 100.0))),
            Some(PruneReason::DisjointExtent)
        );
        // No footprint: nothing to prove disjointness against.
        assert_eq!(prune_reason(&extent, None), None);
    }

    #[test]
    fn malformed_or_empty_extent_proves_nothing() {
        // Spec §13.3: no cells, an undecodable id alone, and one beside
        // a valid cell are no extent — the consult is wasted, never the
        // skip.
        let valid = extent_around(anchor(), 80.0);
        let malformed = [vec![], vec![0], [valid.as_slice(), &[0]].concat()];
        for ids in &malformed {
            assert_eq!(Extent::new(ids), None, "{ids:?}");
        }
        // So the planner consults a source advertising one, at a
        // footprint its valid cells alone would prove disjoint.
        let (session, view, hello) = one_source(valid);
        session.store_hello(EndpointId(50), hello.clone());
        assert_eq!(search_plan(&session, &view).consulted(), 0);
        for coverage in malformed {
            let hello = HelloInfo {
                coverage,
                ..hello.clone()
            };
            session.store_hello(EndpointId(50), hello);
            assert_eq!(search_plan(&session, &view).consulted(), 1);
        }
    }

    /// The advertised extent before it became its cells alone (spec
    /// §13.1): a cap beside its covering.
    #[derive(Debug)]
    struct CoverageExtent {
        cells: Vec<u64>,
        center: LatLng,
        radius_m: f64,
    }

    /// The proof the planner ran on a [`CoverageExtent`], verbatim:
    /// the oracle [`Extent`]'s verdicts must equal.
    fn footprint_disjoint(extent: &CoverageExtent, center: LatLng, radius_m: f64) -> bool {
        // Written as "apart" rather than "not overlapping" so a NaN radius
        // or centre proves nothing.
        let caps_apart = center.haversine_distance(extent.center) > radius_m + extent.radius_m;
        if !caps_apart || extent.cells.is_empty() {
            return false;
        }
        let cap = Region::Cap { center, radius_m };
        // A cell that does not decode proves nothing.
        extent
            .cells
            .iter()
            .all(|&raw| CellId::from_raw(raw).is_ok_and(|cell| !cap.may_intersect_cell(cell)))
    }

    /// A server advertises the covering of its registration cap, which
    /// holds the cap, so "every cell is disjoint" already implies "the
    /// caps are apart": dropping the cap changes no verdict.
    #[test]
    fn the_cells_alone_decide_what_the_cap_and_cells_decided() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(29);
        let near = |rng: &mut StdRng, spread_m: f64| {
            anchor().destination(rng.gen_range(0.0..360.0), rng.gen_range(0.0..spread_m))
        };
        let (mut disjoint, mut kept) = (0, 0);
        for _ in 0..200 {
            let (center, radius_m) = (near(&mut rng, 5_000.0), rng.gen_range(10.0..2_000.0));
            let advertised = CoverageExtent {
                cells: extent_around(center, radius_m),
                center,
                radius_m,
            };
            let extent = Extent::new(&advertised.cells).expect("a covering is an extent");
            for _ in 0..10 {
                let center = near(&mut rng, 8_000.0);
                let radius_m = 10f64.powf(rng.gen_range(0.0..4.0));
                let verdict = !extent.may_intersect(center, radius_m);
                assert_eq!(
                    verdict,
                    footprint_disjoint(&advertised, center, radius_m),
                    "extent {advertised:?}, cap {center:?} r={radius_m}"
                );
                disjoint += usize::from(verdict);
                kept += usize::from(!verdict);
            }
        }
        assert!(
            disjoint > 100 && kept > 100,
            "both verdicts occur: {disjoint} disjoint, {kept} kept"
        );
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
            assert_eq!(kind.entry().names().collect::<Vec<_>>(), [wire]);
        }
    }
}
