//! Fleet parity: the replicated + sharded serving fleet behaves
//! identically over the deterministic network simulator, real loopback
//! TCP sockets, and QuicLite reliable datagrams.
//!
//! Four claims are enforced here:
//!
//! 1. **Wire-count parity** — an identical fleet workload (cold and
//!    warm searches against a replicated, content-sharded deployment)
//!    costs identical message counts on every backend. Replica
//!    selection is p2c over live latency, yet the *count* never
//!    depends on which replica was picked: one envelope per consulted
//!    shard.
//! 2. **Shard-aware scatter** — a spatially narrow warm search sends
//!    envelopes only to shards whose extent intersects the query cap:
//!    wire cost scales with shards consulted, not fleet size, and is
//!    independent of the replication factor.
//! 3. **Transparent failover** — a downed replica is absorbed: the
//!    scatter retries the branch on a sibling replica (search and route
//!    reads are idempotent, `docs/wire-protocol.md` spec §7), the caller
//!    sees a clean success, and provenance names the replica that
//!    actually answered. A route to a hit whose replica died is the
//!    same route, its venue leg served by the sibling — with warm
//!    caches, and cold, where the target's first-contact `Hello` fails
//!    over too.
//! 4. **Honest shard outage** — when *every* replica of a shard is
//!    down, search and route surface `ClientError::PartialFailure` with
//!    the branch's source error preserved: a down shard must never read
//!    as "no results here".

use openflame_core::{
    ClientError, Deployment, DeploymentConfig, FederatedRoute, FederatedSearchHit, OpenFlameClient,
    QueryKind, RouteQuery, SearchQuery, SpatialProvider,
};
use openflame_geo::LatLng;
use openflame_netsim::BackendKind;
use openflame_worldgen::{World, WorldConfig};
use std::error::Error;

/// A federated search within 2 km: its hits.
fn search_hits(
    client: &OpenFlameClient,
    query: &str,
    location: LatLng,
    k: usize,
) -> Result<Vec<FederatedSearchHit>, ClientError> {
    let (query, radius_m) = (query.to_string(), 2_000.0);
    let found = client.search(SearchQuery {
        query,
        location,
        radius_m,
        k,
    })?;
    Ok(found.hits)
}

/// A federated route from `from` to a search hit.
fn route_to(
    client: &OpenFlameClient,
    from: LatLng,
    target: &FederatedSearchHit,
) -> Result<FederatedRoute, ClientError> {
    let target = target.clone();
    Ok(client.route(RouteQuery { from, target })?.route)
}

const BACKENDS: [BackendKind; 3] = [BackendKind::Sim, BackendKind::Tcp, BackendKind::QuicLite];

/// Shards per venue in every fleet deployment below.
const SHARDS: usize = 4;

fn small_world() -> World {
    World::generate(WorldConfig {
        stores: 4,
        products_per_store: 10,
        ..WorldConfig::default()
    })
}

fn fleet_deployment_on(backend: BackendKind, replicas: usize, world: World) -> Deployment {
    Deployment::build(
        world,
        DeploymentConfig {
            backend,
            replicas,
            content_shards: SHARDS,
            ..DeploymentConfig::default()
        },
    )
}

/// Fleet workload cost on one backend: (cold messages, warm messages,
/// narrow-warm messages, fleet targets consulted by the narrow plan).
fn fleet_search_cost(backend: BackendKind, replicas: usize) -> (u64, u64, u64, usize) {
    let dep = fleet_deployment_on(backend, replicas, small_world());
    let product = dep.world.products[0].clone();
    let near = dep.world.venues[product.venue].hint;
    let shelf_geo = dep
        .world
        .venue_point_to_geo(product.venue, product.shelf_pos);

    dep.transport.reset_stats();
    search_hits(&dep.client, &product.name, near, 3).unwrap();
    let cold = dep.transport.stats().messages;

    dep.transport.reset_stats();
    search_hits(&dep.client, &product.name, near, 3).unwrap();
    let warm = dep.transport.stats().messages;

    // Narrow warm search: only shards whose extent intersects the tiny
    // cap around the shelf are consulted.
    let plan = dep
        .client
        .plan_query(QueryKind::Search, shelf_geo, 5.0)
        .unwrap();
    let fleet_targets = plan
        .targets
        .iter()
        .filter(|t| t.server.server_id.starts_with("venue-"))
        .count();
    dep.transport.reset_stats();
    let hits = dep
        .client
        .search(SearchQuery {
            query: product.name.clone(),
            location: shelf_geo,
            radius_m: 5.0,
            k: 3,
        })
        .unwrap()
        .hits;
    let narrow = dep.transport.stats().messages;
    assert!(
        hits.iter().any(|h| h.result.label == product.name),
        "{backend:?}: narrow search must still find the product"
    );
    assert_eq!(
        narrow,
        2 * plan.consulted() as u64,
        "{backend:?}: warm wire cost is one envelope (two messages) per planned target"
    );
    (cold, warm, narrow, fleet_targets)
}

#[test]
fn fleet_workload_costs_identical_messages_on_every_backend() {
    let (sim_cold, sim_warm, sim_narrow, sim_targets) = fleet_search_cost(BackendKind::Sim, 2);
    // Pinned invariant: a narrow query at one shelf consults strictly
    // fewer shards than the venue's shard count — wire cost scales
    // with shards intersected, not fleet size.
    assert!(
        (1..SHARDS).contains(&sim_targets),
        "narrow plan must consult some but not all {SHARDS} shards, got {sim_targets}"
    );
    assert!(sim_narrow < sim_warm, "pruned scatter costs less");
    for backend in [BackendKind::Tcp, BackendKind::QuicLite] {
        let (cold, warm, narrow, targets) = fleet_search_cost(backend, 2);
        assert_eq!(cold, sim_cold, "{backend:?}: cold fleet search parity");
        assert_eq!(warm, sim_warm, "{backend:?}: warm fleet search parity");
        assert_eq!(narrow, sim_narrow, "{backend:?}: narrow search parity");
        assert_eq!(targets, sim_targets, "{backend:?}: plan parity");
    }
}

#[test]
fn warm_wire_cost_is_independent_of_replication_factor() {
    // Same world, same shard count, different replication: the warm
    // and narrow-warm message counts must not move — only ONE replica
    // per consulted shard is ever spoken to.
    let (_, warm_r2, narrow_r2, targets_r2) = fleet_search_cost(BackendKind::Sim, 2);
    let (_, warm_r3, narrow_r3, targets_r3) = fleet_search_cost(BackendKind::Sim, 3);
    assert_eq!(warm_r2, warm_r3, "replication must not inflate wire cost");
    assert_eq!(narrow_r2, narrow_r3);
    assert_eq!(targets_r2, targets_r3);
}

#[test]
fn downed_replica_is_transparently_absorbed_on_every_backend() {
    for backend in BACKENDS {
        let dep = fleet_deployment_on(backend, 2, small_world());
        let product = dep.world.products[0].clone();
        let near = dep.world.venues[product.venue].hint;
        let hit = search_hits(&dep.client, &product.name, near, 3)
            .unwrap()
            .into_iter()
            .find(|h| h.result.label == product.name)
            .expect("product is stocked");
        let serving = dep
            .fleet_servers
            .iter()
            .find(|m| m.server.id() == hit.server_id)
            .expect("hit came from a fleet member");
        let (venue, shard) = (serving.venue, serving.shard);
        // The replica that served the hit dies; the client's caches
        // and latency book still prefer it.
        dep.transport.set_down(serving.server.endpoint(), true);
        let hits = search_hits(&dep.client, &product.name, near, 3)
            .expect("a downed replica must be absorbed, not surfaced");
        let retried = hits
            .iter()
            .find(|h| h.result.label == product.name)
            .expect("failover must preserve the result");
        assert_ne!(
            retried.server_id, hit.server_id,
            "{backend:?}: provenance must name the sibling that answered"
        );
        let sibling = dep
            .fleet_servers
            .iter()
            .find(|m| m.server.id() == retried.server_id)
            .expect("sibling is a fleet member");
        assert_eq!(
            (sibling.venue, sibling.shard),
            (venue, shard),
            "{backend:?}: the answer must come from the SAME shard's sibling replica"
        );
        // Steady state after failover: the dead replica is
        // dead-listed, so the next search needs no retry round.
        assert!(search_hits(&dep.client, &product.name, near, 3).is_ok());
    }
}

/// A failover marks the dead replica and nothing else: the cell's
/// cached discovery records no liveness, so the next call on the cell
/// asks DNS nothing, and its plan, which reads the dead mark, skips
/// the dead replica without a retry round.
#[test]
fn a_failover_keeps_the_cells_discovery_and_skips_the_dead_replica() {
    let dep = fleet_deployment_on(BackendKind::Sim, 2, small_world());
    let product = dep.world.products[0].clone();
    let near = dep.world.venues[product.venue].hint;
    let hit = search_hits(&dep.client, &product.name, near, 3)
        .unwrap()
        .into_iter()
        .find(|h| h.result.label == product.name)
        .expect("product is stocked");
    let victim = dep
        .fleet_servers
        .iter()
        .find(|m| m.server.id() == hit.server_id)
        .expect("hit came from a fleet member")
        .server
        .endpoint();
    dep.transport.set_down(victim, true);
    search_hits(&dep.client, &product.name, near, 3).expect("the failover absorbs the replica");

    let session = dep.client.session();
    let (lookups, before) = (dep.client.discovery().stats().lookups, session.stats());
    let plan = dep
        .client
        .plan_query(QueryKind::Search, near, 2_000.0)
        .unwrap();
    assert!(
        plan.targets.iter().all(|t| t.server.endpoint != victim),
        "the plan reads the dead mark"
    );
    let hits = search_hits(&dep.client, &product.name, near, 3).unwrap();
    assert!(hits.iter().any(|h| h.result.label == product.name));
    let after = session.stats();
    assert_eq!(dep.client.discovery().stats().lookups - lookups, 0);
    assert_eq!(after.discovery_misses - before.discovery_misses, 0);
    assert_eq!(
        after.batches - before.batches,
        plan.consulted() as u64,
        "one envelope per planned target: the dead replica is not consulted"
    );
}

#[test]
fn fully_down_shard_surfaces_partial_failure_on_every_backend() {
    for backend in BACKENDS {
        let dep = fleet_deployment_on(backend, 2, small_world());
        let product = dep.world.products[0].clone();
        let near = dep.world.venues[product.venue].hint;
        let hit = search_hits(&dep.client, &product.name, near, 3)
            .unwrap()
            .into_iter()
            .find(|h| h.result.label == product.name)
            .expect("product is stocked");
        let serving = dep
            .fleet_servers
            .iter()
            .find(|m| m.server.id() == hit.server_id)
            .expect("hit came from a fleet member");
        let (venue, shard) = (serving.venue, serving.shard);
        // The WHOLE shard dies: every replica.
        for m in dep
            .fleet_servers
            .iter()
            .filter(|m| m.venue == venue && m.shard == shard)
        {
            dep.transport.set_down(m.server.endpoint(), true);
        }
        let err = search_hits(&dep.client, &product.name, near, 3)
            .expect_err("a fully-down shard must not read as an empty result");
        let ClientError::PartialFailure {
            succeeded,
            ref failures,
        } = err
        else {
            panic!("{backend:?}: expected PartialFailure, got {err}");
        };
        assert!(
            succeeded >= 1,
            "{backend:?}: the rest of the federation still answered"
        );
        assert!(!failures.is_empty(), "{backend:?}");
        assert!(
            err.source().is_some(),
            "{backend:?}: source chain must be preserved"
        );
        assert!(
            failures.iter().all(|(_, e)| e.to_string().contains("down")),
            "{backend:?}: branch errors must name the dead endpoint"
        );
    }
}

#[test]
fn a_route_fails_over_to_the_sibling_replica_on_every_backend() {
    for backend in BACKENDS {
        for cold in [false, true] {
            let dep = fleet_deployment_on(backend, 2, small_world());
            let product = dep.world.products[0].clone();
            let near = dep.world.venues[product.venue].hint;
            let user = near.destination(225.0, 80.0);
            let hit = search_hits(&dep.client, &product.name, near, 3)
                .unwrap()
                .into_iter()
                .find(|h| h.result.label == product.name)
                .expect("product is stocked");
            let undisturbed = route_to(&dep.client, user, &hit).unwrap();
            let member = |server_id: &str| {
                let m = dep
                    .fleet_servers
                    .iter()
                    .find(|m| m.server.id() == server_id);
                m.expect("a fleet member").clone()
            };
            let serving = member(&hit.server_id);
            // The replica that served the hit dies.
            dep.transport.set_down(serving.server.endpoint(), true);
            if cold {
                dep.client.session().invalidate();
            }
            let route = route_to(&dep.client, user, &hit)
                .unwrap_or_else(|e| panic!("{backend:?} cold={cold}: {e}"));
            let venue_leg = route.legs.last().unwrap();
            assert_ne!(
                venue_leg.server_id, hit.server_id,
                "{backend:?} cold={cold}"
            );
            let sibling = member(&venue_leg.server_id);
            assert_eq!(
                (sibling.venue, sibling.shard),
                (serving.venue, serving.shard),
                "{backend:?} cold={cold}: the venue leg comes from the same shard"
            );
            assert_eq!(route.total_length_m, undisturbed.total_length_m);
            assert_eq!(route.total_cost, undisturbed.total_cost);
            let nodes = |r: &openflame_core::FederatedRoute| {
                r.legs
                    .iter()
                    .map(|l| l.route.nodes.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                nodes(&route),
                nodes(&undisturbed),
                "{backend:?} cold={cold}"
            );
            // The whole shard dies: an outage, its source preserved.
            dep.transport.set_down(sibling.server.endpoint(), true);
            let err = route_to(&dep.client, user, &hit)
                .expect_err("a fully-down shard cannot be routed into");
            assert!(
                matches!(err, ClientError::PartialFailure { .. }),
                "{backend:?} cold={cold}: {err}"
            );
            let source = err.source().map(|e| e.to_string()).unwrap_or_default();
            assert!(source.contains("down"), "{backend:?} cold={cold}: {source}");
        }
    }
}
