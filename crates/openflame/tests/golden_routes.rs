//! Golden routes: the node lists and costs of fixed-seed routes, pinned
//! on the simulator and on loopback TCP. A route's ends are snapped by
//! the server that routes them (spec §8), so these hold the snap to the
//! node the nearest-node search picks: a different snap is a different
//! route. The constants were recorded while the start and the portals
//! were still snapped by a round of their own.

use openflame_core::{
    CentralizedProvider, ClientError, Deployment, DeploymentConfig, FederatedRoute,
    FederatedSearchHit, OpenFlameClient, RouteQuery, SearchQuery, SpatialProvider,
};
use openflame_geo::LatLng;
use openflame_mapdata::ElementId;
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

/// One leg as `(server, node ids, cost in seconds, length in meters)`.
type Leg = (&'static str, &'static [u64], f64, f64);

/// A venue route from 90 m off the venue (bearing 200°): a short outdoor leg,
/// then the indoor leg to the shelf.
const VENUE: [Leg; 2] = [
    (
        "world-map",
        &[29, 209],
        52.313809781715875,
        73.23933369440222,
    ),
    (
        "venue-0",
        &[6, 11, 10, 34, 37, 38],
        18.73558517898391,
        26.229819250577478,
    ),
];

/// The same shelf from the next venue's door: a long outdoor leg.
const CROSS_VENUE: [Leg; 2] = [
    (
        "world-map",
        &[211, 212, 39, 38, 37, 36, 29, 209],
        464.6276195634318,
        650.4786673888044,
    ),
    (
        "venue-0",
        &[6, 11, 10, 34, 37, 38],
        18.73558517898391,
        26.229819250577478,
    ),
];

/// From the venue route's start to a street corner of the anchored
/// world map: one leg.
const ANCHORED: [Leg; 1] = [(
    "world-map",
    &[29, 36, 43, 44, 45, 46],
    428.5714285714286,
    600.0,
)];

/// The omniscient centralized provider's route to the same shelf.
const CENTRAL: [Leg; 1] = [(
    "central-omniscient",
    &[29, 209, 224, 229, 228, 244, 246, 247],
    99.26009682701691,
    138.96413555782368,
)];

fn assert_legs(what: &str, route: &FederatedRoute, expected: &[Leg]) {
    let legs: Vec<(&str, &[u64], f64, f64)> = (route.legs.iter())
        .map(|leg| {
            let route = &leg.route;
            let nodes = route.nodes.as_slice();
            (leg.server_id.as_str(), nodes, route.cost, route.length_m)
        })
        .collect();
    assert_eq!(legs, expected, "{what}");
}

#[test]
fn fixed_seed_routes_keep_their_nodes_and_costs_on_sim_and_tcp() {
    let world = World::generate(WorldConfig {
        stores: 4,
        products_per_store: 12,
        ..WorldConfig::default()
    });
    for backend in [BackendKind::Sim, BackendKind::Tcp] {
        let config = DeploymentConfig {
            backend,
            ..DeploymentConfig::default()
        };
        let dep = Deployment::build(world.clone(), config);
        let product = &world.products[5];
        let user = world.venues[product.venue].hint.destination(200.0, 90.0);
        let hit = search_hits(&dep.client, &product.name, user, 5).unwrap()[0].clone();
        let route = route_to(&dep.client, user, &hit).unwrap();
        assert_legs(&format!("{backend:?} venue"), &route, &VENUE);
        let door = world.venues[(product.venue + 1) % world.venues.len()].hint;
        let route = route_to(&dep.client, door, &hit).unwrap();
        assert_legs(&format!("{backend:?} cross-venue"), &route, &CROSS_VENUE);

        let street = world.outdoor.ways().nth(3).unwrap();
        let corner = *street.nodes.last().unwrap();
        let target = FederatedSearchHit {
            server_id: dep.outdoor_server.id().to_string(),
            endpoint: dep.outdoor_server.endpoint(),
            result: WireSearchResult {
                element: ElementId::Node(corner),
                pos: world.outdoor.node(corner).unwrap().pos,
                score: 1.0,
                distance_m: 0.0,
                label: "street corner".into(),
            },
        };
        let route = route_to(&dep.client, user, &target).unwrap();
        assert_legs(&format!("{backend:?} anchored"), &route, &ANCHORED);

        let omni = CentralizedProvider::omniscient_on(backend.build(5), &world);
        let search = SearchQuery {
            query: product.name.clone(),
            location: user,
            radius_m: 5_000.0,
            k: 3,
        };
        let target = omni.search(search).unwrap().hits[0].clone();
        let route = omni.route(RouteQuery { from: user, target }).unwrap();
        assert_legs(&format!("{backend:?} centralized"), &route.route, &CENTRAL);
    }
}
