//! The serving fleet: replicated + sharded per-cell map serving.
//!
//! A venue that outgrows one map server advertises a **fleet** instead
//! of a single `MAPSRV` record: one `FLEETSRV` record carrying the
//! venue's replica set and its **shard map** — a spatial split of the
//! venue's documents at a sub-cell level, skew-aware so hot sub-areas
//! (a busy aisle, a crowded wing) get their own shard. The client then
//! does three things a single-server federation never had to:
//!
//! - **Shard-aware scatter**: a spatial query consults only the shards
//!   whose advertised extent intersects the query footprint — wire cost
//!   scales with shards *consulted*, not fleet size. A shard's extent is
//!   the planner's one `Extent` type, as an advertisement's is, built
//!   when discovery builds the view, its cell bounds computed the first
//!   time a query tests it; a shard whose extent proves nothing is
//!   consulted by every query (spec §9.2 and spec §13.3).
//! - **Replica selection**: within a shard, the client picks one
//!   replica by power-of-two-choices over the per-endpoint latency
//!   summaries the transport already collects
//!   ([`Transport::endpoint_latency`](openflame_netsim::Transport::endpoint_latency)).
//! - **Failover**: when a consulted replica fails at the wire, the
//!   client retries the branch on a sibling replica — for *idempotent*
//!   requests only (`docs/wire-protocol.md` spec §7) — and marks the
//!   endpoint dead in the session (`Session::mark_dead`) so it is not
//!   re-consulted until the mark ages out or the endpoint answers a
//!   handshake. Only a fully-down shard surfaces
//!   [`ClientError::PartialFailure`](crate::ClientError::PartialFailure),
//!   with the per-replica source errors preserved.
//!
//! The types here are the *client-side view* of an advertisement
//! ([`DiscoveryView`], [`FleetView`], [`FleetShardView`]) plus replica
//! selection (`choose`, [`sibling`]) and the deployment-side shard
//! planner (`plan_venue_shards`). Selection keeps no state of its
//! own: latency knowledge lives in the transport, who recently failed
//! in the session's per-endpoint entry. Everything is
//! backend-agnostic: selection is deterministic given identical
//! latency books, so the fleet wire discipline holds identically on
//! the simulator, TCP and QuicLite (the fleet parity test pins this).

use crate::discovery::DiscoveredServer;
use crate::plan::Extent;
use crate::session::Session;
use openflame_cells::CellId;
use openflame_codec::Fnv1a;
use openflame_dns::Catalogue;
use openflame_geo::LatLng;
use openflame_netsim::EndpointId;
use openflame_worldgen::World;
use std::sync::Arc;

/// One content shard of a fleet, as the client sees it: the sub-cell
/// extent it owns and the replicas serving it (advertisement order is
/// stable — it is part of the DNS record — so every client derives the
/// same candidate order).
///
/// The extent is built once, by [`FleetShardView::new`], and lives as
/// long as the discovery view that holds the shard, its cell bounds
/// with it: only the first query that tests the shard computes cell
/// geometry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetShardView {
    /// The fine cells whose content this shard owns; `None` when the
    /// advertised extent proves nothing (spec §13.3), so the shard
    /// intersects every footprint.
    extent: Option<Extent>,
    /// Replicas serving this shard (each carries the group's catalogue).
    /// Shared: a scatter plan clones the `Arc`, not the record.
    pub replicas: Vec<Arc<DiscoveredServer>>,
}

impl FleetShardView {
    /// The client view of one advertised shard: its raw extent cell ids
    /// (`FLEETSRV` order) and its replicas. An extent that proves
    /// nothing (spec §13.3) leaves the shard unbounded: a malformed
    /// advertisement can only cost a consult.
    pub fn new(extent_ids: &[u64], replicas: Vec<Arc<DiscoveredServer>>) -> Self {
        let extent = Extent::new(extent_ids);
        Self { extent, replicas }
    }

    /// Whether this shard's extent may intersect a query cap
    /// (`Extent::may_intersect`, conservative): a shard is never
    /// wrongly skipped, it can only be consulted unnecessarily.
    pub fn intersects(&self, center: LatLng, radius_m: f64) -> bool {
        (self.extent.as_ref()).is_none_or(|extent| extent.may_intersect(center, radius_m))
    }
}

/// A discovered fleet: one group (typically one venue) split into
/// shards, each replicated.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetView {
    /// Stable group id (e.g. `"venue-3"`).
    pub group_id: String,
    /// The catalogue (spec §9.1), shared by every replica of the group.
    pub catalogue: Catalogue,
    /// The shard map, in advertisement order. Shared: a planned fleet
    /// branch keeps its shard (for failover) by cloning the `Arc`.
    pub shards: Vec<Arc<FleetShardView>>,
}

/// Everything one discovery round learned about a location: plain
/// single-server providers plus fleet groups. Cached shard-stably in
/// the session's discovery cache — repeated queries against the same
/// cell reuse the same shard map, so replica choice (and therefore the
/// hello cache) stays warm across requests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiscoveryView {
    /// Plain (non-fleet) servers, e.g. the outdoor world-map provider.
    pub servers: Vec<Arc<DiscoveredServer>>,
    /// Fleet groups advertising at this location.
    pub fleets: Vec<FleetView>,
}

impl DiscoveryView {
    /// Whether the round discovered nothing at all.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty() && self.fleets.iter().all(|f| f.shards.is_empty())
    }
}

/// Picks the replica to consult for `shard`: power-of-two-choices
/// over the transport's per-endpoint latency EWMA
/// ([`Transport::endpoint_latency`](openflame_netsim::Transport::endpoint_latency)).
///
/// Two candidate indices are derived from a deterministic hash of
/// the replica set, then the one with the lower latency score wins;
/// a replica with no samples scores worst (so an incumbent with
/// measured latency is sticky — keeping its hello cache warm — and
/// a fresh book falls back to the lower candidate index, making the
/// pick identical across backends and runs). Replicas the session has
/// marked dead are excluded. Returns `None` only when every replica is
/// marked — callers typically fall back to `replicas[0]` then,
/// letting the wire surface the truth.
pub(crate) fn choose<'a>(
    session: &Session,
    shard: &'a FleetShardView,
) -> Option<&'a Arc<DiscoveredServer>> {
    let alive: Vec<&Arc<DiscoveredServer>> = shard
        .replicas
        .iter()
        .filter(|r| !session.is_dead(r.endpoint))
        .collect();
    match alive.len() {
        0 => None,
        1 => Some(alive[0]),
        n => {
            let h = fingerprint(shard);
            let c1 = (h % n as u64) as usize;
            // Second candidate from the high bits, shifted past the
            // first so the two are always distinct.
            let mut c2 = ((h >> 32) % (n as u64 - 1)) as usize;
            if c2 >= c1 {
                c2 += 1;
            }
            let score = |r: &DiscoveredServer| {
                session
                    .transport()
                    .endpoint_latency(r.endpoint)
                    .filter(|l| l.count > 0)
                    .map(|l| l.ewma_us)
                    .unwrap_or(u64::MAX)
            };
            // Strict `<` on the swapped compare: ties (both
            // unsampled) go to the lower index, deterministically.
            let (lo, hi) = if c1 < c2 { (c1, c2) } else { (c2, c1) };
            if score(alive[hi]) < score(alive[lo]) {
                Some(alive[hi])
            } else {
                Some(alive[lo])
            }
        }
    }
}

/// The failover sibling: the first replica (advertisement order)
/// that is neither marked dead nor in `tried`. Advertisement order
/// keeps the retry deterministic across backends.
pub fn sibling<'a>(
    session: &Session,
    shard: &'a FleetShardView,
    tried: &[EndpointId],
) -> Option<&'a Arc<DiscoveredServer>> {
    shard
        .replicas
        .iter()
        .find(|r| !tried.contains(&r.endpoint) && !session.is_dead(r.endpoint))
}

/// FNV-1a over the shard's replica endpoints: a stable fingerprint that
/// spreads different shards across different candidate pairs without
/// any per-process randomness.
fn fingerprint(shard: &FleetShardView) -> u64 {
    shard
        .replicas
        .iter()
        .fold(Fnv1a::new(), |h, r| h.write(&r.endpoint.0.to_le_bytes()))
        .finish()
}

// --------------------------------------------------------------------
// Deployment-side shard planning.
// --------------------------------------------------------------------

/// The spatial plan for one content shard of a venue: which fine cells
/// it owns and which content nodes land in it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardPlan {
    /// Deduplicated fine cells owned by this shard (the advertised
    /// extent).
    pub extents: Vec<CellId>,
    /// Venue-map node ids whose searchable content this shard serves.
    pub members: Vec<u64>,
}

/// Splits venue `venue_idx`'s searchable content into `shards`
/// spatial shards, **skew-aware**: content nodes are geo-positioned
/// through the world's ground-truth transform, mapped to fine cells
/// (a level chosen from the venue radius), ordered along the
/// space-filling curve the cell ids encode, and cut into equal-*count*
/// contiguous runs. Equal counts — not equal areas — is what makes the
/// split skew-aware: a hot sub-area holding half the documents gets
/// half the shards, an empty corner costs none.
///
/// `is_content` decides which nodes count as shardable content
/// (typically: nodes carrying searchable tags); structural nodes,
/// beacons and ways are replicated into every shard by the deployment.
pub(crate) fn plan_venue_shards(
    world: &World,
    venue_idx: usize,
    shards: usize,
    is_content: impl Fn(u64) -> bool,
) -> Vec<ShardPlan> {
    let venue = &world.venues[venue_idx];
    let fine_level = fine_level_for(venue.radius_m);
    // (curve position, node id) for every content node.
    let mut ordered: Vec<(u64, u64, CellId)> = venue
        .map
        .nodes()
        .filter(|n| is_content(n.id.0))
        .filter_map(|n| {
            let geo = world.venue_point_to_geo(venue_idx, n.pos);
            let cell = CellId::from_latlng(geo, fine_level).ok()?;
            Some((cell.raw(), n.id.0, cell))
        })
        .collect();
    // Cell ids order points along the face's space-filling curve, so a
    // contiguous run of this sort is spatially contiguous; node id
    // breaks ties deterministically.
    ordered.sort_unstable();
    let k = shards.max(1).min(ordered.len().max(1));
    let mut plans = Vec::with_capacity(k);
    let per = ordered.len().div_ceil(k.max(1)).max(1);
    for chunk in ordered.chunks(per) {
        let mut extents: Vec<CellId> = chunk.iter().map(|(_, _, c)| *c).collect();
        extents.dedup();
        plans.push(ShardPlan {
            extents,
            members: chunk.iter().map(|(_, id, _)| *id).collect(),
        });
    }
    // Degenerate worlds (fewer content nodes than shards): pad with
    // empty shards so the advertised shard count matches the config.
    while plans.len() < shards.max(1) {
        plans.push(ShardPlan {
            extents: Vec::new(),
            members: Vec::new(),
        });
    }
    plans
}

/// The fine cell level used for shard extents: the coarsest level whose
/// cells are comfortably smaller than the venue, clamped to stay
/// meaningful for tiny venues.
fn fine_level_for(radius_m: f64) -> u8 {
    for level in 14..=24u8 {
        if CellId::approx_side_length_m(level) <= (radius_m / 3.0).max(1.0) {
            return level;
        }
    }
    24
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::cells;
    use crate::session::DEAD_TTL_US;
    use openflame_cells::Region;
    use openflame_mapserver::Principal;
    use openflame_netsim::BackendKind;
    use openflame_worldgen::WorldConfig;

    fn server(id: u64) -> DiscoveredServer {
        DiscoveredServer {
            server_id: format!("r{id}"),
            endpoint: EndpointId(id),
            catalogue: Catalogue::SEARCH,
        }
    }

    fn shard(ids: &[u64]) -> FleetShardView {
        FleetShardView::new(&[], ids.iter().map(|&i| Arc::new(server(i))).collect())
    }

    fn session() -> Session {
        let transport = BackendKind::Sim.build(1);
        let endpoint = transport.register("client", None);
        Session::new(transport, endpoint, Principal::anonymous())
    }

    #[test]
    fn choose_is_deterministic_on_a_fresh_latency_book() {
        let session = session();
        let s = shard(&[10, 11, 12]);
        let first = choose(&session, &s).unwrap().endpoint;
        for _ in 0..5 {
            assert_eq!(
                choose(&session, &s).unwrap().endpoint,
                first,
                "fresh-book pick must be stable"
            );
        }
    }

    #[test]
    fn dead_list_excludes_and_expires() {
        let session = session();
        let s = shard(&[20, 21]);
        let victim = choose(&session, &s).unwrap().endpoint;
        session.mark_dead(victim);
        let other = choose(&session, &s).unwrap().endpoint;
        assert_ne!(other, victim, "dead replica must not be chosen");
        assert!(session.is_dead(victim) && !session.is_dead(other));
        session.mark_dead(other);
        assert!(choose(&session, &s).is_none(), "all dead → no candidate");
        // The dead marks age out on the transport clock.
        session.transport().advance_us(DEAD_TTL_US + 1);
        assert!(!session.is_dead(victim));
        assert!(choose(&session, &s).is_some());
    }

    #[test]
    fn sibling_skips_tried_and_dead() {
        let session = session();
        let s = shard(&[30, 31, 32]);
        session.mark_dead(EndpointId(31));
        let sib = sibling(&session, &s, &[EndpointId(30)]).unwrap();
        assert_eq!(sib.endpoint, EndpointId(32));
        assert!(sibling(&session, &s, &[EndpointId(30), EndpointId(32)]).is_none());
    }

    #[test]
    fn shard_plan_is_equal_count_and_spatially_disjoint() {
        let world = World::generate(WorldConfig {
            stores: 1,
            ..WorldConfig::default()
        });
        let content: Vec<u64> = world.venues[0]
            .map
            .nodes()
            .filter(|n| n.tags.get("product").is_some())
            .map(|n| n.id.0)
            .collect();
        assert!(content.len() >= 8, "worldgen stocks shelves");
        let plans = plan_venue_shards(&world, 0, 4, |id| content.contains(&id));
        assert_eq!(plans.len(), 4);
        let total: usize = plans.iter().map(|p| p.members.len()).sum();
        assert_eq!(total, content.len(), "every content node lands somewhere");
        // Equal-count cuts: no shard holds more than ceil(n/k) nodes.
        let cap = content.len().div_ceil(4);
        for p in &plans {
            assert!(p.members.len() <= cap, "skew-aware cut exceeded: {p:?}");
        }
        // Membership is a partition (no node in two shards).
        let mut seen = std::collections::HashSet::new();
        for p in &plans {
            for m in &p.members {
                assert!(seen.insert(*m), "node {m} assigned twice");
            }
        }
    }

    #[test]
    fn narrow_cap_intersects_fewer_shards_than_fleet_size() {
        let world = World::generate(WorldConfig {
            stores: 1,
            ..WorldConfig::default()
        });
        let plans = plan_venue_shards(&world, 0, 4, |_| true);
        let views: Vec<FleetShardView> = plans
            .iter()
            .map(|p| {
                let ids: Vec<u64> = p.extents.iter().map(|c| c.raw()).collect();
                FleetShardView::new(&ids, Vec::new())
            })
            .collect();
        // A cap tight around one shard's first cell must miss at least
        // one other shard — the consulted-shards < K invariant.
        let center = plans[0].extents[0].center();
        let consulted = views.iter().filter(|v| v.intersects(center, 3.0)).count();
        assert!(
            consulted < views.len(),
            "narrow query consulted every shard ({consulted}/{})",
            views.len()
        );
        assert!(consulted >= 1);
        // A city-sized cap consults everything.
        let wide = views
            .iter()
            .filter(|v| v.intersects(center, 10_000.0))
            .count();
        assert_eq!(wide, views.len());
    }

    #[test]
    fn cached_bounds_decide_exactly_what_the_per_cell_test_did() {
        use crate::deployment::{Deployment, DeploymentConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // The warm-plan fixture: 16 venues, each a 2 × 2 fleet.
        let dep = Deployment::build(
            World::generate(WorldConfig {
                stores: 16,
                blocks_x: 8,
                blocks_y: 8,
                products_per_store: 20,
                ..WorldConfig::default()
            }),
            DeploymentConfig {
                backend: BackendKind::Sim,
                replicas: 2,
                content_shards: 2,
                ..DeploymentConfig::default()
            },
        );
        let centre = dep.world.config.center;
        let view = dep.client.discovery().discover_view(centre, true).unwrap();
        let shards: Vec<&FleetShardView> = view
            .fleets
            .iter()
            .flat_map(|f| &f.shards)
            .map(|s| &**s)
            .collect();
        assert_eq!(shards.len(), 32, "every fleet of the fixture is discovered");

        let mut rng = StdRng::seed_from_u64(29);
        let (mut hits, mut misses) = (0, 0);
        for _ in 0..2_000 {
            let center = centre.destination(rng.gen_range(0.0..360.0), rng.gen_range(0.0..3_000.0));
            // Log-uniform from 1 m to 20 km, so narrow caps are drawn
            // as often as wide ones.
            let radius_m = 10f64.powf(rng.gen_range(0.0..20_000f64.log10()));
            let cap = Region::Cap { center, radius_m };
            for shard in &shards {
                let extent = (shard.extent.as_ref()).expect("deployed extents are well formed");
                let oracle = cells(extent).iter().any(|&c| cap.may_intersect_cell(c));
                assert_eq!(
                    extent.may_intersect(center, radius_m),
                    oracle,
                    "cap {center:?} r={radius_m}"
                );
                if oracle {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        assert!(
            hits > 1_000 && misses > 1_000,
            "both verdicts exercised: {hits}/{misses}"
        );
    }

    #[test]
    fn an_extent_that_proves_nothing_intersects_every_footprint() {
        let cell = CellId::from_latlng(LatLng::new(37.0, -122.0).unwrap(), 18).unwrap();
        let far = LatLng::new(37.45, -122.0).unwrap();
        assert!(!FleetShardView::new(&[cell.raw()], Vec::new()).intersects(far, 100.0));
        // Empty, an invalid id alone, and an invalid id beside a valid
        // cell: spec §9.2 forbids skipping on any of them.
        for ids in [vec![], vec![0], vec![cell.raw(), 0]] {
            let shard = FleetShardView::new(&ids, Vec::new());
            assert!(shard.intersects(far, 100.0), "extent {ids:?} was skipped");
        }
    }
}
