//! Cross-crate integration tests: the full federated stack from world
//! generation through DNS discovery to stitched services.

use openflame_codec::to_bytes;
use openflame_core::{
    ClientError, Deployment, DeploymentConfig, FederatedRoute, FederatedSearchHit, GeocodeHit,
    GeocodeQuery, LocalizeQuery, OpenFlameClient, ProviderEstimate, ProviderKind,
    ReverseGeocodeQuery, RouteQuery, SearchQuery, SpatialProvider, TileQuery,
};
use openflame_dns::{Catalogue, ResolverConfig};
use openflame_geo::LatLng;
use openflame_localize::{LocationCue, RadioMap};
use openflame_mapserver::{AccessPolicy, Principal, Rule, ServiceKind};
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

fn small_world() -> World {
    World::generate(WorldConfig {
        stores: 4,
        products_per_store: 12,
        ..WorldConfig::default()
    })
}

#[test]
fn discovery_to_search_to_route_pipeline() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let product = dep.world.products[5].clone();
    let venue_hint = dep.world.venues[product.venue].hint;
    let user = venue_hint.destination(200.0, 90.0);

    // Discover, search, route — the paper §2 flow.
    let hit = search_hits(&dep.client, &product.name, user, 5).unwrap()[0].clone();
    assert_eq!(hit.result.label, product.name);
    let route = route_to(&dep.client, user, &hit).unwrap();
    assert_eq!(route.legs.len(), 2, "outdoor leg + indoor leg");
    assert!(route.legs[0].anchored);
    assert!(!route.legs[1].anchored);
    assert_eq!(
        route.legs[1].route.nodes.last().copied(),
        Some(product.shelf.0),
        "indoor leg ends at the shelf"
    );
    assert!(route.total_length_m > 50.0, "user starts ~100 m away");
}

#[test]
fn partially_warm_search_pipelines_handshakes_without_extra_traffic() {
    // The pipelined cold-search path splits a scatter round: servers
    // with a cached Hello get their search envelope immediately, and
    // so do unknown servers whose catalogue rules out a frame (no
    // `rgeocode`, spec §9.1), the Hello riding it; other unknown
    // servers get a Hello first and their search in a follow-up round.
    // Warm a session in one part of the city, then search near a
    // different venue so the round mixes warm servers (the city-wide
    // world map) with cold ones (the new venue) — the wire cost must be
    // exactly one envelope per server plus one per cold anchored
    // server, and the results must be correct.
    //
    // A city big enough that venues land in different query cells —
    // in the 720 m default world one neighbor-expanded discovery
    // already blankets every server.
    let world = World::generate(WorldConfig {
        stores: 6,
        products_per_store: 8,
        blocks_x: 40,
        blocks_y: 40,
        ..WorldConfig::default()
    });
    let dep = Deployment::build(world, DeploymentConfig::default());
    let first = dep.world.products[0].clone();
    let near_first = dep.world.venues[first.venue].hint;
    search_hits(&dep.client, &first.name, near_first, 3).unwrap();

    // Find a product whose venue discovery includes at least one
    // server the session has not yet handshaken with.
    let (product, near, warm, cold, cold_anchored) = dep
        .world
        .products
        .iter()
        .find_map(|p| {
            let near = dep.world.venues[p.venue].hint;
            let servers = dep.client.discover(near).ok()?;
            let (warm, cold): (Vec<_>, Vec<_>) = servers
                .iter()
                .partition(|s| dep.client.session().advertised(s.endpoint).is_some());
            let cold_anchored = cold
                .iter()
                .filter(|s| s.catalogue.contains(Catalogue::RGEOCODE))
                .count();
            (!cold.is_empty()).then(|| (p.clone(), near, warm.len(), cold.len(), cold_anchored))
        })
        .expect("some venue outside the first discovery footprint");
    assert!(warm > 0, "the city-wide world map is always warm");
    assert!(
        cold > cold_anchored,
        "a cold unaligned venue joins the round"
    );

    let batches_before = dep.client.session().stats().batches;
    dep.transport.reset_stats();
    let hits = search_hits(&dep.client, &product.name, near, 3).unwrap();
    assert!(hits.iter().any(|h| h.result.label == product.name));

    let batches = dep.client.session().stats().batches - batches_before;
    assert_eq!(
        batches,
        (warm + cold + cold_anchored) as u64,
        "one envelope per server, plus a hello first per cold anchored server"
    );
    // Discovery was cached by the probe above, so the whole search is
    // exactly those envelopes: two messages each, nothing else.
    assert_eq!(dep.transport.stats().messages, 2 * batches);

    // Steady state thereafter: everyone is warm, one envelope each.
    let batches_before = dep.client.session().stats().batches;
    search_hits(&dep.client, &product.name, near, 3).unwrap();
    let warm_batches = dep.client.session().stats().batches - batches_before;
    assert_eq!(warm_batches, (warm + cold) as u64);
}

/// Paper §2, Figures 1 and 2: only the federation finishes the errand.
/// The public map has no inventory; the omniscient map finds the shelf
/// but cannot localize indoors; the federation does both.
#[test]
fn scenario_comparison_federated_wins_indoors() {
    let world = small_world();
    let errands: Vec<usize> = (0..world.products.len()).step_by(11).take(5).collect();
    for kind in [
        ProviderKind::CentralizedPublic,
        ProviderKind::CentralizedOmniscient,
        ProviderKind::Federated,
    ] {
        let (mut found, mut shelf, mut indoor_estimates, mut full_indoor) = (0, 0, 0, 0);
        for (i, &product) in errands.iter().enumerate() {
            let r =
                openflame_core::run_grocery_scenario(&world, kind, product, 5 + i as u64).unwrap();
            found += usize::from(r.found_product);
            shelf += usize::from(r.route_reaches_shelf);
            indoor_estimates += usize::from(r.indoor_median_err_m.is_some());
            full_indoor += usize::from(r.indoor_availability == 1.0);
        }
        let n = errands.len();
        println!(
            "{kind:?}: found {found}/{n}, to shelf {shelf}/{n}, \
             localized indoors {indoor_estimates}/{n}, 100 % indoor availability {full_indoor}/{n}"
        );
        let expected = match kind {
            ProviderKind::CentralizedPublic => (0, 0, 0, 0),
            ProviderKind::CentralizedOmniscient => (n, n, 0, 0),
            ProviderKind::Federated => (n, n, n, n),
        };
        assert_eq!(
            (found, shelf, indoor_estimates, full_indoor),
            expected,
            "{kind:?}"
        );
    }
}

#[test]
fn acl_protected_venue_invisible_to_strangers_but_searchable_by_staff() {
    let policy = AccessPolicy::locked().with(
        ServiceKind::Search,
        vec![
            Rule::AllowUserDomain("@staff.example".into()),
            Rule::DenyAll,
        ],
    );
    let dep = Deployment::build(
        small_world(),
        DeploymentConfig {
            venue_policy: policy,
            ..DeploymentConfig::default()
        },
    );
    let product = dep.world.products[0].clone();
    let hint = dep.world.venues[product.venue].hint;
    // Anonymous: venue search denied everywhere, so nothing found.
    let anon_hits = search_hits(&dep.client, &product.name, hint, 5).unwrap_or_default();
    assert!(
        anon_hits.iter().all(|h| h.result.label != product.name),
        "protected inventory leaked to anonymous client"
    );
    // Staff identity: same query succeeds.
    let staff = openflame_core::OpenFlameClient::builder()
        .principal(Principal::user("worker@staff.example"))
        .build_on(dep.transport.clone(), dep.resolver.clone());
    let staff_hits = search_hits(&staff, &product.name, hint, 5).unwrap();
    assert_eq!(staff_hits[0].result.label, product.name);
}

#[test]
fn dead_venue_server_degrades_gracefully() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let product = dep.world.products[0].clone();
    let hint = dep.world.venues[product.venue].hint;
    // Kill the venue's server.
    dep.transport
        .set_down(dep.venue_servers[product.venue].endpoint(), true);
    // Search still completes using the remaining federation; the dead
    // server's inventory is simply missing.
    let hits = search_hits(&dep.client, &product.name, hint, 5).unwrap_or_default();
    assert!(hits
        .iter()
        .all(|h| h.server_id != format!("venue-{}", product.venue)));
    // Revive and retry: the product is back.
    dep.transport
        .set_down(dep.venue_servers[product.venue].endpoint(), false);
    let hits = search_hits(&dep.client, &product.name, hint, 5).unwrap();
    assert_eq!(hits[0].result.label, product.name);
}

#[test]
fn federated_localization_switches_indoors() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let venue = &dep.world.venues[1];
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    // Outdoors: GNSS cue answered by the anchored world map.
    let outdoor_geo = dep.world.config.center;
    let gnss = LocationCue::Gnss {
        fix: outdoor_geo,
        accuracy_m: 4.0,
    };
    let outdoor_est = localize_at(&dep.client, outdoor_geo, &[gnss]).unwrap();
    assert!(outdoor_est
        .iter()
        .any(|e| e.server_id == "world-map" && e.estimate.technology == "gnss"));
    // Indoors: beacon cue answered by the venue server.
    let radio = RadioMap::survey(
        venue.beacons.clone(),
        openflame_geo::Point2::new(-5.0, -5.0),
        openflame_geo::Point2::new(60.0, 45.0),
        2.0,
    );
    let truth = openflame_geo::Point2::new(12.0, 10.0);
    let cue = radio.observe(&mut rng, truth, 2.0);
    let indoor_est = localize_at(&dep.client, venue.hint, &[cue]).unwrap();
    let (sid, est) = (&indoor_est[0].server_id, &indoor_est[0].estimate);
    assert_eq!(sid, "venue-1");
    assert_eq!(est.technology, "beacon");
    assert!(est.pos.distance(truth) < 8.0);
}

#[test]
fn resolver_cache_makes_repeat_discovery_cheap() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let hint = dep.world.venues[0].hint;
    dep.client.discover(hint).unwrap();
    let cold_upstream = dep.client.discovery().resolver().stats().upstream_queries;
    dep.client.discover(hint).unwrap();
    let warm_upstream = dep.client.discovery().resolver().stats().upstream_queries - cold_upstream;
    assert_eq!(
        warm_upstream, 0,
        "warm discovery must be answered from cache"
    );
}

#[test]
fn ttl_expiry_picks_up_reregistration() {
    let mut dep = Deployment::build(
        small_world(),
        DeploymentConfig {
            resolver: ResolverConfig {
                negative_ttl_s: 5,
                ..Default::default()
            },
            ..DeploymentConfig::default()
        },
    );
    // A location outside every venue: initially only the outdoor map.
    let corner = dep.world.config.center.destination(45.0, 1_000.0);
    let before = dep.client.discover(corner).unwrap();
    // Spawn a new venue server there at runtime and register it.
    let venue = dep.world.venues[0].clone();
    let server = openflame_mapserver::MapServer::spawn_on(
        &dep.transport,
        openflame_mapserver::MapServerConfig {
            id: "popup-store".into(),
            map: venue.map.clone(),
            beacons: vec![],
            tags: openflame_localize::TagRegistry::new(),
            policy: AccessPolicy::open(),
            portals: vec![],
            location_hint: corner,
            radius_m: 50.0,
            build_ch: false,
        },
    );
    dep.register(&server);
    // Cached (possibly negative) answers hide it until TTL expiry.
    dep.transport.advance_us(301 * 1_000_000);
    let after = dep.client.discover(corner).unwrap();
    assert!(
        after.len() > before.len(),
        "new registration visible after TTL"
    );
    assert!(after.iter().any(|s| s.server_id == "popup-store"));
}

#[test]
fn packet_loss_surfaces_as_client_errors_not_panics() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    dep.transport.set_drop_probability(0.35);
    dep.transport.set_timeout_us(10_000);
    let hint = dep.world.venues[0].hint;
    // Run a bunch of operations; all must return Ok or Err, never panic.
    for i in 0..10 {
        let _ = dep.client.discover(hint);
        let _ = search_hits(&dep.client, "seaweed", hint, 3);
        let _ = localize_at(
            &dep.client,
            hint,
            &[LocationCue::Gnss {
                fix: hint,
                accuracy_m: 4.0,
            }],
        );
        let _ = i;
    }
}

#[test]
fn geocode_through_world_provider() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    // The outdoor map has addressed buildings like "105 Forbes Ave".
    let address = dep
        .world
        .outdoor
        .nodes()
        .find_map(|n| {
            n.tags
                .has("addr:housenumber")
                .then(|| n.tags.get("name").unwrap().to_string())
        })
        .expect("world has addresses");
    let hits = geocode_hits(&dep.client, &address, 3).unwrap();
    assert!(!hits.is_empty());
    assert!(hits[0].hit.score > 0.9, "address {address:?} hits {hits:?}");
}

/// The session's handshake counters count envelopes (spec §8): an
/// envelope to an endpoint whose advertisement the session holds is a
/// hit, one that carries the handshake a miss, and reading an
/// advertisement counts nothing. So a warm call of every class is all
/// hits, and a cold call's hits and misses add up to its envelopes.
#[test]
fn the_hello_counters_count_envelopes_warm_and_cold() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let client = &dep.client;
    let center = dep.world.config.center;
    let product = &dep.world.products[5];
    let near = dep.world.venues[product.venue].hint;
    let shelf = search_hits(client, &product.name, near, 5).unwrap()[0].clone();
    let address = (dep.world.outdoor.nodes())
        .find_map(|n| {
            (n.tags.has("addr:housenumber")).then(|| n.tags.get("name").unwrap().to_string())
        })
        .expect("world has addresses");
    let gnss = LocationCue::Gnss {
        fix: center,
        accuracy_m: 4.0,
    };
    let rgeocode = || {
        let query = ReverseGeocodeQuery {
            location: center,
            radius_m: 50.0,
        };
        client.reverse_geocode(query).map(drop)
    };
    type Call<'a> = &'a dyn Fn() -> Result<(), ClientError>;
    let classes: [(&str, Call); 6] = [
        ("geocode", &|| geocode_hits(client, &address, 3).map(drop)),
        ("search", &|| {
            search_hits(client, &product.name, near, 5).map(drop)
        }),
        ("rgeocode", &rgeocode),
        ("route", &|| route_to(client, center, &shelf).map(drop)),
        ("localize", &|| {
            localize_at(client, center, std::slice::from_ref(&gnss)).map(drop)
        }),
        ("tile", &|| tile_at(client, center, 16).map(drop)),
    ];
    for (class, call) in classes {
        for warm in [false, true] {
            if !warm {
                client.session().invalidate();
            }
            let before = client.session().stats();
            call().unwrap_or_else(|e| panic!("{class}: {e}"));
            let after = client.session().stats();
            let batches = after.batches - before.batches;
            let hits = after.hello_hits - before.hello_hits;
            let misses = after.hello_misses - before.hello_misses;
            assert!(batches > 0, "{class} sent nothing");
            if warm {
                assert_eq!((hits, misses), (batches, 0), "{class}, warm");
            } else {
                assert_eq!(hits + misses, batches, "{class}, cold");
                assert!(misses > 0, "{class}, cold: first contact handshakes");
            }
        }
    }
}

#[test]
fn tiles_compose_from_outdoor_provider() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    let (tile, _layers) = tile_at(&dep.client, dep.world.config.center, 16).unwrap();
    assert!(tile.coverage() > 0.0, "city center tile must show streets");
}

#[test]
fn world_scales_up_cleanly() {
    // A larger world exercises allocator paths and index growth.
    let world = World::generate(WorldConfig {
        blocks_x: 10,
        blocks_y: 10,
        stores: 12,
        products_per_store: 25,
        ..WorldConfig::default()
    });
    assert!(world.outdoor.validate().is_ok());
    let dep = Deployment::build(world, DeploymentConfig::default());
    let product = dep.world.products[100].clone();
    let hint = dep.world.venues[product.venue].hint;
    let hit = search_hits(&dep.client, &product.name, hint, 3).unwrap();
    assert_eq!(hit[0].result.label, product.name);
}

#[test]
fn sharded_dns_deployment_serves_discovery() {
    let dep = Deployment::build(
        small_world(),
        DeploymentConfig {
            dns_shards: 3,
            ..DeploymentConfig::default()
        },
    );
    for venue in 0..dep.world.venues.len() {
        let hint = dep.world.venues[venue].hint;
        let found = dep.client.discover(hint).unwrap();
        assert!(
            found
                .iter()
                .any(|s| s.server_id == format!("venue-{venue}")),
            "venue {venue} undiscoverable under sharded DNS"
        );
    }
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let dep = Deployment::build(small_world(), DeploymentConfig::default());
        let product = dep.world.products[7].clone();
        let hint = dep.world.venues[product.venue].hint;
        let hit = search_hits(&dep.client, &product.name, hint, 3).unwrap();
        let route = route_to(&dep.client, hint.destination(10.0, 120.0), &hit[0]).unwrap();
        (
            hit[0].result.label.clone(),
            route.total_cost,
            dep.transport.now_us(),
        )
    };
    assert_eq!(run(), run(), "identical seeds must give identical runs");
}

#[test]
fn same_seed_deployments_return_byte_identical_routes() {
    // Two deployments of one seed must agree on every route down to
    // the node sequence, not just its cost: each cross-venue call
    // starts at another venue's door, so the outdoor leg is long and
    // rich in equal-cost alternatives, and the servers answer from
    // contraction hierarchies built independently per deployment.
    // They must also agree on the search hit each route leads to: this
    // world stocks some product names on two shelves of one venue,
    // whose search ties on score and label.
    let world = || {
        World::generate(WorldConfig {
            stores: 4,
            products_per_store: 40,
            ..WorldConfig::default()
        })
    };
    let products = world().products;
    let twins: Vec<usize> = (0..products.len())
        .filter(|&a| {
            (0..products.len()).any(|b| {
                a != b
                    && products[a].venue == products[b].venue
                    && products[a].name == products[b].name
            })
        })
        .collect();
    assert!(
        !twins.is_empty(),
        "the world must stock one name twice inside one venue"
    );
    let picks: Vec<usize> = twins
        .into_iter()
        .chain((0..20).map(|i| (i * 7) % products.len()))
        .collect();
    let run = || {
        let config = DeploymentConfig {
            build_ch: true,
            ..DeploymentConfig::default()
        };
        let dep = Deployment::build(world(), config);
        let venues = dep.world.venues.len();
        let mut hits = Vec::new();
        let mut encoded: Vec<Vec<u8>> = Vec::new();
        for (i, &pick) in picks.iter().enumerate() {
            let product = dep.world.products[pick].clone();
            let start = dep.world.venues[(product.venue + 1 + i % (venues - 1)) % venues].hint;
            let near = dep.world.venues[product.venue].hint;
            let hit = search_hits(&dep.client, &product.name, near, 3).unwrap()[0].clone();
            let route = route_to(&dep.client, start, &hit).unwrap();
            assert!(route.legs.len() >= 2, "call {i} must cross servers");
            encoded.extend(route.legs.iter().map(|leg| to_bytes(&leg.route).to_vec()));
            hits.push((hit.server_id, hit.result.element));
        }
        (hits, encoded)
    };
    assert_eq!(run(), run());
}

#[test]
fn localization_denied_while_tiles_allowed() {
    // The paper §5.3 service-level example, end to end through the client.
    let policy = AccessPolicy::open().with(ServiceKind::Localize, vec![Rule::DenyAll]);
    let dep = Deployment::build(
        small_world(),
        DeploymentConfig {
            venue_policy: policy,
            ..DeploymentConfig::default()
        },
    );
    let venue = &dep.world.venues[0];
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
    let radio = RadioMap::survey(
        venue.beacons.clone(),
        openflame_geo::Point2::new(-5.0, -5.0),
        openflame_geo::Point2::new(60.0, 45.0),
        2.0,
    );
    let cue = radio.observe(&mut rng, openflame_geo::Point2::new(10.0, 10.0), 2.0);
    let estimates = localize_at(&dep.client, venue.hint, &[cue]).unwrap();
    assert!(
        estimates.iter().all(|e| !e.server_id.starts_with("venue-")),
        "venue localization must be denied"
    );
    // Search on the same venue still works (service-level separation).
    let product = dep.world.products[0].clone();
    let hits = search_hits(&dep.client, &product.name, venue.hint, 3).unwrap();
    assert_eq!(hits[0].result.label, product.name);
}

#[test]
fn no_discovery_outside_registered_space() {
    let dep = Deployment::build(small_world(), DeploymentConfig::default());
    // Another continent: nothing registered there.
    let nowhere = LatLng::new(-33.86, 151.21).unwrap();
    let found = dep.client.discover(nowhere).unwrap();
    assert!(found.is_empty());
    let err = search_hits(&dep.client, "anything", nowhere, 3);
    assert!(matches!(
        err,
        Err(openflame_core::ClientError::NothingDiscovered(_))
    ));
}
