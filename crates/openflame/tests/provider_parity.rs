//! The paper's core claim as tests: the federation serves the *same*
//! services as a centralized map, behind the same `SpatialProvider`
//! trait — plus the wire-discipline guarantees of the batched session
//! layer (exactly one `Request::Batch` envelope per discovered server
//! per scatter round).

use openflame_core::{
    CentralizedProvider, ClientError, Deployment, DeploymentConfig, FederatedRoute,
    FederatedSearchHit, GeocodeHit, GeocodeQuery, LocalizeQuery, OpenFlameClient, RouteQuery,
    SearchQuery, SpatialProvider, TileQuery,
};
use openflame_geo::LatLng;
use openflame_geo::Point2;
use openflame_localize::LocationCue;
use openflame_mapdata::{ElementId, NodeId};
use openflame_mapserver::protocol::WireSearchResult;
use openflame_netsim::BackendKind;
use openflame_worldgen::{World, WorldConfig};

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

/// A federated forward geocode through the client's world provider.
fn geocode_hits(
    client: &OpenFlameClient,
    query: &str,
    k: usize,
) -> Result<Vec<GeocodeHit>, ClientError> {
    let query = query.to_string();
    Ok(client.geocode(GeocodeQuery { query, k })?.hits)
}

fn one_venue_world() -> World {
    World::generate(WorldConfig {
        stores: 1,
        products_per_store: 8,
        ..WorldConfig::default()
    })
}

/// An outdoor address that exists in the public world map.
fn some_address(world: &World) -> String {
    world
        .outdoor
        .nodes()
        .find_map(|n| {
            n.tags
                .has("addr:housenumber")
                .then(|| n.tags.get("name").unwrap().to_string())
        })
        .expect("world has addresses")
}

#[test]
fn federated_and_omniscient_geocode_agree_on_one_venue_world() {
    let world = one_venue_world();
    let address = some_address(&world);
    let dep = Deployment::build(world.clone(), DeploymentConfig::default());
    let omni = CentralizedProvider::omniscient_on(BackendKind::Sim.build(9), &world);

    let federated: &dyn SpatialProvider = &dep.client;
    let centralized: &dyn SpatialProvider = &omni;
    let query = GeocodeQuery {
        query: address.clone(),
        k: 3,
    };
    let fed = federated.geocode(query.clone()).unwrap();
    let cen = centralized.geocode(query).unwrap();

    // Identical top answer: same label, same place on the globe.
    let fed_top = &fed.hits[0];
    let cen_top = &cen.hits[0];
    assert_eq!(fed_top.hit.label, cen_top.hit.label, "address {address:?}");
    assert!((fed_top.hit.score - cen_top.hit.score).abs() < 1e-9);
    let (fed_geo, cen_geo) = (fed_top.geo.unwrap(), cen_top.geo.unwrap());
    assert!(
        fed_geo.haversine_distance(cen_geo) < 0.5,
        "geocoded positions diverge: {fed_geo} vs {cen_geo}"
    );
    // Both calls actually crossed the wire and said who answered.
    assert!(fed.stats.messages > 0 && cen.stats.messages > 0);
    assert_eq!(fed_top.server_id, "world");
    assert_eq!(cen_top.server_id, "central-omniscient");
}

#[test]
fn every_service_runs_under_both_architectures() {
    let world = one_venue_world();
    let dep = Deployment::build(world.clone(), DeploymentConfig::default());
    let omni = CentralizedProvider::omniscient_on(BackendKind::Sim.build(5), &world);
    let product = world.products[0].clone();
    let near = world.venues[product.venue].hint;

    for provider in [&dep.client as &dyn SpatialProvider, &omni] {
        let id = provider.provider_id();
        let search = provider
            .search(SearchQuery {
                query: product.name.clone(),
                location: near,
                radius_m: 5_000.0,
                k: 3,
            })
            .unwrap();
        assert_eq!(search.hits[0].result.label, product.name, "{id}");
        let route = provider
            .route(RouteQuery {
                from: near.destination(225.0, 80.0),
                target: search.hits[0].clone(),
            })
            .unwrap();
        assert!(route.route.total_length_m > 1.0, "{id}");
        let localize = provider
            .localize(LocalizeQuery {
                coarse: near,
                cues: vec![LocationCue::Gnss {
                    fix: near,
                    accuracy_m: 4.0,
                }],
            })
            .unwrap();
        assert!(
            localize
                .estimates
                .iter()
                .any(|e| e.estimate.technology == "gnss" && e.geo.is_some()),
            "{id}"
        );
        let tile = provider
            .tile(TileQuery {
                center: world.config.center,
                z: 16,
            })
            .unwrap();
        assert!(tile.tile.coverage() > 0.0, "{id}");
        let rev = provider
            .reverse_geocode(openflame_core::ReverseGeocodeQuery {
                location: world.config.center,
                radius_m: 100.0,
            })
            .unwrap();
        assert!(rev.hit.is_some(), "{id}");
    }
}

#[test]
fn warm_search_issues_exactly_one_batch_envelope_per_server() {
    let world = World::generate(WorldConfig {
        stores: 4,
        products_per_store: 10,
        ..WorldConfig::default()
    });
    let dep = Deployment::build(world, DeploymentConfig::default());
    let product = dep.world.products[0].clone();
    let near = dep.world.venues[product.venue].hint;
    // Warm the session: discovery and hellos are cached after this.
    search_hits(&dep.client, &product.name, near, 3).unwrap();
    let servers = dep.client.discover(near).unwrap();
    assert!(servers.len() >= 2, "need a federation to make the point");

    dep.transport.reset_stats();
    let batches_before = dep.client.session().stats().batches;
    search_hits(&dep.client, &product.name, near, 3).unwrap();
    let stats = dep.transport.stats();
    let batches = dep.client.session().stats().batches - batches_before;
    // One batch envelope per discovered server...
    assert_eq!(batches, servers.len() as u64);
    // ...and nothing else on the wire: request + response per server,
    // no DNS, no hello traffic.
    assert_eq!(stats.messages, 2 * servers.len() as u64);
}

#[test]
fn warm_geocode_issues_exactly_one_batch_envelope_per_server() {
    let world = one_venue_world();
    let address = some_address(&world);
    let dep = Deployment::build(world, DeploymentConfig::default());
    // Warm: coarse hit location discovered, hellos cached.
    geocode_hits(&dep.client, &address, 3).unwrap();
    // The refinement fan-out happens at the coarse hit's location.
    let coarse = geocode_hits(&dep.client, &address, 1).unwrap();
    let _ = coarse;

    dep.transport.reset_stats();
    let batches_before = dep.client.session().stats().batches;
    geocode_hits(&dep.client, &address, 3).unwrap();
    let batches = dep.client.session().stats().batches - batches_before;
    let stats = dep.transport.stats();
    // One envelope to the world provider plus one per refining server;
    // every envelope is exactly one request + one response message.
    assert_eq!(stats.messages, 2 * batches);
    assert!(batches >= 2, "coarse + at least one refiner");
}

#[test]
fn session_discovery_cache_short_circuits_repeat_lookups() {
    let world = one_venue_world();
    let dep = Deployment::build(world, DeploymentConfig::default());
    let near = dep.world.venues[0].hint;
    dep.client.discover(near).unwrap();
    let resolver_queries = dep.client.discovery().resolver().stats().queries;
    dep.transport.reset_stats();
    dep.client.discover(near).unwrap();
    // No resolver traffic, no network traffic: pure cache hit.
    assert_eq!(
        dep.client.discovery().resolver().stats().queries,
        resolver_queries
    );
    assert_eq!(dep.transport.stats().messages, 0);
    assert!(dep.client.session().stats().discovery_hits >= 1);
}

#[test]
fn partial_failure_carries_item_errors_and_successes() {
    use openflame_core::{ClientError, FederatedSearchHit};
    use openflame_mapserver::{AccessPolicy, MapServer};
    use std::error::Error;

    // A hand-made hit on a node no map holds.
    let bogus_hit = |server: &MapServer| FederatedSearchHit {
        server_id: server.id().to_string(),
        endpoint: server.endpoint(),
        result: WireSearchResult {
            element: ElementId::Node(NodeId(u64::MAX)),
            pos: Point2::ZERO,
            score: 1.0,
            distance_m: 0.0,
            label: "bogus".into(),
        },
    };
    let world = one_venue_world();
    let start = world.venues[0].hint.destination(225.0, 80.0);
    // On an anchored server every item answers — the start snaps, and
    // the bogus leg is "no path": an answer, not a failure.
    let dep = Deployment::build(world.clone(), DeploymentConfig::default());
    let err = route_to(&dep.client, start, &bogus_hit(&dep.outdoor_server))
        .expect_err("bogus nodes cannot route");
    assert!(matches!(err, ClientError::NotFound(_)), "{err}");
    // A venue whose policy denies routing: the outdoor matrix answers,
    // the venue's one matrix item is refused, and the round surfaces a
    // PartialFailure naming the venue, its source chain intact.
    let locked = DeploymentConfig {
        venue_policy: AccessPolicy::locked(),
        ..DeploymentConfig::default()
    };
    let dep = Deployment::build(world, locked);
    let venue = &dep.venue_servers[0];
    let err =
        route_to(&dep.client, start, &bogus_hit(venue)).expect_err("a locked venue denies Route");
    let ClientError::PartialFailure {
        succeeded,
        ref failures,
    } = err
    else {
        panic!("expected PartialFailure, got {err}");
    };
    assert_eq!((succeeded, failures.len()), (0, 1), "{err}");
    let denial = failures[0].1.to_string();
    assert!(
        denial.contains(&format!("server {} error 1", venue.id())),
        "the item error must name the venue, got {denial}"
    );
    assert_eq!(err.source().map(|e| e.to_string()), Some(denial));
}
