//! A seed is a replayable artifact: two simulated deployments built
//! from one seed and driven through the same six-class trace agree
//! exactly — on simulated time, on the messages and bytes the wire
//! carried, and on every answer. Nothing a call observes may depend on
//! `HashMap` iteration order or on anything else outside the seed.

use openflame_core::{
    ClientError, Deployment, DeploymentConfig, FederatedRoute, FederatedSearchHit, GeocodeHit,
    GeocodeQuery, LocalizeQuery, OpenFlameClient, ProviderEstimate, ReverseGeocodeQuery,
    RouteQuery, SearchQuery, SpatialProvider, TileQuery,
};
use openflame_geo::LatLng;
use openflame_localize::LocationCue;
use openflame_tiles::Tile;
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

/// A federated localization from `cues`: its estimates.
fn localize_at(
    client: &OpenFlameClient,
    coarse: LatLng,
    cues: &[LocationCue],
) -> Result<Vec<ProviderEstimate>, ClientError> {
    let cues = cues.to_vec();
    Ok(client.localize(LocalizeQuery { coarse, cues })?.estimates)
}

/// A federated tile and the number of layers composed into it.
fn tile_at(client: &OpenFlameClient, center: LatLng, z: u8) -> Result<(Tile, usize), ClientError> {
    let found = client.tile(TileQuery { center, z })?;
    Ok((found.tile, found.stats.servers_consulted))
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

/// A federated reverse geocode: the best hit, if any.
fn reverse_geocode_at(
    client: &OpenFlameClient,
    location: LatLng,
    radius_m: f64,
) -> Result<Option<GeocodeHit>, ClientError> {
    let query = ReverseGeocodeQuery { location, radius_m };
    Ok(client.reverse_geocode(query)?.hit)
}

/// Calls in the trace: six rounds of the six classes.
const CALLS: usize = 36;

/// One call's answer, as the client returned it.
#[derive(Debug, PartialEq)]
enum Answer {
    Search(Result<Vec<FederatedSearchHit>, ClientError>),
    Route(Result<FederatedRoute, ClientError>),
    Localize(Result<Vec<ProviderEstimate>, ClientError>),
    Tile(Result<(Tile, usize), ClientError>),
    Geocode(Result<Vec<GeocodeHit>, ClientError>),
    ReverseGeocode(Result<Option<GeocodeHit>, ClientError>),
}

impl Answer {
    fn answered(&self) -> bool {
        match self {
            Answer::Search(r) => r.as_ref().is_ok_and(|hits| !hits.is_empty()),
            Answer::Route(r) => r.is_ok(),
            Answer::Localize(r) => r.as_ref().is_ok_and(|est| !est.is_empty()),
            Answer::Tile(r) => r.is_ok(),
            Answer::Geocode(r) => r.as_ref().is_ok_and(|hits| !hits.is_empty()),
            Answer::ReverseGeocode(r) => r.as_ref().is_ok_and(Option::is_some),
        }
    }
}

/// What one deployment observed over the trace.
#[derive(Debug, PartialEq)]
struct Replay {
    sim_us: u64,
    messages: u64,
    bytes: u64,
    answers: Vec<Answer>,
}

/// Builds a deployment of `seed` (world and network both) and runs the
/// trace on it: call `i` is class `i % 6`, at venue `5i mod venues`,
/// about product `7i mod products`.
fn replay(seed: u64) -> Replay {
    let world = World::generate(WorldConfig {
        seed,
        stores: 4,
        products_per_store: 12,
        ..WorldConfig::default()
    });
    let config = DeploymentConfig {
        net_seed: seed,
        ..DeploymentConfig::default()
    };
    let dep = Deployment::build(world, config);
    let (client, world) = (&dep.client, &dep.world);
    let answers = (0..CALLS)
        .map(|i| {
            let venue = &world.venues[i * 5 % world.venues.len()];
            let product = &world.products[i * 7 % world.products.len()];
            let here = venue.hint;
            match i % 6 {
                0 => Answer::Search(search_hits(client, &product.name, here, 3)),
                1 => {
                    let near = world.venues[product.venue].hint;
                    let hits = search_hits(client, &product.name, near, 1);
                    let hit = hits.expect("a stocked product is found at its venue");
                    Answer::Route(route_to(client, here, &hit[0]))
                }
                2 => {
                    let fix = here.destination(45.0, 8.0);
                    let gnss = LocationCue::Gnss {
                        fix,
                        accuracy_m: 10.0,
                    };
                    Answer::Localize(localize_at(client, here, &[gnss]))
                }
                3 => Answer::Tile(tile_at(client, here, 16)),
                4 => Answer::Geocode(geocode_hits(client, &venue.name, 3)),
                _ => Answer::ReverseGeocode(reverse_geocode_at(client, here, 100.0)),
            }
        })
        .collect();
    let stats = dep.transport.stats();
    Replay {
        sim_us: dep.transport.now_us(),
        messages: stats.messages,
        bytes: stats.bytes,
        answers,
    }
}

#[test]
fn same_seed_deployments_agree_exactly_on_a_six_class_trace() {
    for seed in [1, 2] {
        let (first, second) = (replay(seed), replay(seed));
        // Agreement on a trace that failed would prove little: every
        // class must have answered.
        for class in 0..6 {
            assert!(
                first.answers[class..]
                    .iter()
                    .step_by(6)
                    .any(Answer::answered),
                "seed {seed}: class {class} never answered: {:?}",
                first.answers[class]
            );
        }
        assert_eq!(first.sim_us, second.sim_us, "seed {seed}: simulated time");
        assert_eq!(
            (first.messages, first.bytes),
            (second.messages, second.bytes),
            "seed {seed}: messages and bytes"
        );
        for (i, (a, b)) in first.answers.iter().zip(&second.answers).enumerate() {
            assert_eq!(a, b, "seed {seed}: answer {i}");
        }
    }
}
