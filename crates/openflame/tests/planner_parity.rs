//! Recall parity for the cost-based query planner
//! (`docs/wire-protocol.md` spec §13): coverage-based pruning changes
//! what goes on the wire, never what a query returns.
//!
//! Four claims are enforced here:
//!
//! 1. **Recall parity on every backend** — a planner-on and a
//!    planner-off client produce byte-identical results for search,
//!    geocode, reverse geocode, localize and tiles, cold and warm, on
//!    the simulator, TCP, and QuicLite.
//! 2. **The pruning is real** — the planner consults strictly fewer
//!    sources, cold and warm alike (unaligned venues' discovery
//!    catalogues omit `tiles` and `rgeocode`, spec §9.1; when warm, a
//!    cached extent also proves a footprint disjoint, spec §13.3), and
//!    the saving shows up in transport message counts, not just plan
//!    accounting.
//! 3. **Dead replicas leave no cached state behind** — fleet failover
//!    purges the dead endpoint's advertisement, coverage extent
//!    included, so a replaced replica is never re-served (or re-pruned)
//!    from stale per-endpoint state.
//! 4. **The extent's cells hold the content** — every node of every
//!    venue lies in one of its server's advertised extent cells, the
//!    commitment extent pruning rests on (spec §13.1), and a server
//!    refuses a patch that would place a node outside them.

use openflame_cells::CellId;
use openflame_core::{
    ClientError, Deployment, DeploymentConfig, FederatedSearchHit, GeocodeHit, GeocodeQuery,
    LocalizeQuery, OpenFlameClient, ProviderEstimate, QueryKind, ReverseGeocodeQuery, SearchQuery,
    SpatialProvider, TileQuery,
};
use openflame_geo::{LatLng, LocalFrame, Point2};
use openflame_localize::LocationCue;
use openflame_mapdata::{MapPatch, Node, NodeId, Tags};
use openflame_mapserver::protocol::{Request, Response};
use openflame_mapserver::Principal;
use openflame_netsim::BackendKind;
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

const BACKENDS: [BackendKind; 3] = [BackendKind::Sim, BackendKind::Tcp, BackendKind::QuicLite];

/// Wide enough fan-out that pruning has something to prune.
fn fanout_world() -> World {
    World::generate(WorldConfig {
        stores: 4,
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

/// A second client on the deployment's transport with coverage-based
/// pruning disabled — the planner-off control arm.
fn planner_off_client(dep: &Deployment) -> OpenFlameClient {
    OpenFlameClient::builder()
        .principal(Principal::anonymous())
        .world_provider(dep.outdoor_server.endpoint())
        .coverage_planner(false)
        .build_on(dep.transport.clone(), dep.resolver.clone())
}

#[test]
fn planner_recall_parity_on_every_backend() {
    let world = fanout_world();
    let address = some_address(&world);
    for backend in BACKENDS {
        let dep = Deployment::build(
            world.clone(),
            DeploymentConfig {
                backend,
                ..DeploymentConfig::default()
            },
        );
        let on = &dep.client;
        let off = planner_off_client(&dep);
        let center = dep.world.config.center;

        // Two passes: the first compares the cold paths (no extents
        // cached yet — only the discovery catalogues prune, spec §9.1),
        // the second the warm paths, where the extents prune too.
        for pass in ["cold", "warm"] {
            for product in dep.world.products.iter().take(3) {
                let near = dep.world.venues[product.venue].hint;
                assert_eq!(
                    search_hits(on, &product.name, near, 5).unwrap(),
                    search_hits(&off, &product.name, near, 5).unwrap(),
                    "{backend:?}/{pass}: search recall must not depend on the planner"
                );
                let cues = [LocationCue::Gnss {
                    fix: near,
                    accuracy_m: 4.0,
                }];
                assert_eq!(
                    localize_at(on, near, &cues).unwrap(),
                    localize_at(&off, near, &cues).unwrap(),
                    "{backend:?}/{pass}: localize estimates must not depend on the planner"
                );
            }
            assert_eq!(
                geocode_hits(on, &address, 3).unwrap(),
                geocode_hits(&off, &address, 3).unwrap(),
                "{backend:?}/{pass}: geocode refinement must not depend on the planner"
            );
            assert_eq!(
                reverse_geocode_at(on, center, 150.0).unwrap(),
                reverse_geocode_at(&off, center, 150.0).unwrap(),
                "{backend:?}/{pass}: reverse geocode must not depend on the planner"
            );
            assert_eq!(
                tile_at(on, center, 16).unwrap(),
                tile_at(&off, center, 16).unwrap(),
                "{backend:?}/{pass}: tile composition must not depend on the planner"
            );
        }
    }
}

#[test]
fn warm_planner_consults_strictly_fewer_sources() {
    let dep = Deployment::build(fanout_world(), DeploymentConfig::default());
    let off = planner_off_client(&dep);
    let center = dep.world.config.center;

    // Warm both arms with a search: it contacts every discovered
    // server, and first contact seeds the coverage cache.
    let product = dep.world.products[0].clone();
    search_hits(&dep.client, &product.name, center, 3).unwrap();
    search_hits(&off, &product.name, center, 3).unwrap();
    let on_tile = tile_at(&dep.client, center, 16).unwrap();
    let off_tile = tile_at(&off, center, 16).unwrap();
    assert_eq!(on_tile, off_tile, "warm-up already agrees");

    // Plan accounting: the warm planner proves the unaligned venues
    // out of the tile scatter (their catalogues omit tiles, spec §9.1);
    // the off arm considers the same candidates and prunes none.
    let on_plan = dep
        .client
        .plan_query(QueryKind::Tile, center, 200.0)
        .unwrap();
    let off_plan = off.plan_query(QueryKind::Tile, center, 200.0).unwrap();
    assert_eq!(
        on_plan.considered(),
        off_plan.considered(),
        "both arms consider the same candidate set"
    );
    assert_eq!(off_plan.pruned_count(), 0, "planner off never prunes");
    assert!(
        on_plan.pruned_count() > 0,
        "a warm fan-out over unaligned venues must prune"
    );
    assert!(
        on_plan.consulted() < off_plan.consulted(),
        "pruning must consult strictly fewer sources: {} vs {}",
        on_plan.consulted(),
        off_plan.consulted()
    );

    // And the saving is wire-real: a warm tile query costs strictly
    // fewer transport messages with the planner on — same composition.
    dep.transport.reset_stats();
    let on_tile = tile_at(&dep.client, center, 16).unwrap();
    let on_msgs = dep.transport.stats().messages;
    dep.transport.reset_stats();
    let off_tile = tile_at(&off, center, 16).unwrap();
    let off_msgs = dep.transport.stats().messages;
    assert_eq!(on_tile, off_tile);
    assert!(
        on_msgs < off_msgs,
        "planner savings must show on the wire: {on_msgs} vs {off_msgs} messages"
    );
}

#[test]
fn first_contact_teaches_coverage_to_a_tile_only_client() {
    // A client that only ever fetches tiles prunes the venues that
    // refuse tiles from its first call on: their catalogues omit
    // `tiles` (spec §9.1). It still learns the consulted server's
    // coverage extent, which rides the first tile envelope (spec §8).
    let world = fanout_world();
    let mut costs = Vec::new();
    for backend in BACKENDS {
        let dep = Deployment::build(
            world.clone(),
            DeploymentConfig {
                backend,
                ..DeploymentConfig::default()
            },
        );
        let off = planner_off_client(&dep);
        let center = dep.world.config.center;
        // A call's tile, its messages, and the venues it reached.
        let tile_cost = |client: &OpenFlameClient| {
            dep.transport.reset_stats();
            let tile = tile_at(client, center, 16).unwrap();
            let reached = (dep.venue_servers.iter())
                .filter(|v| dep.transport.endpoint_stats(v.endpoint()).unwrap().rx_msgs > 0)
                .count();
            (tile, dep.transport.stats().messages, reached)
        };
        let (on_first, on_first_msgs, on_first_venues) = tile_cost(&dep.client);
        let (on_second, on_second_msgs, _) = tile_cost(&dep.client);
        let (off_first, _, off_first_venues) = tile_cost(&off);
        let (off_second, off_second_msgs, _) = tile_cost(&off);
        assert_eq!(
            on_first_venues, 0,
            "{backend:?}: the first call already prunes the unaligned venues"
        );
        assert!(off_first_venues > 0, "{backend:?}: the off arm asks them");
        assert!(
            on_second_msgs < on_first_msgs,
            "{backend:?}: {on_second_msgs} vs {on_first_msgs} messages"
        );
        // Discovery is cached for both arms by now, so the difference
        // is the refusing venues the planner-on client never asked.
        assert!(
            on_second_msgs < off_second_msgs,
            "{backend:?}: a tile-only client keeps pruning: \
             {on_second_msgs} vs {off_second_msgs} messages"
        );
        for tile in [&on_second, &off_first, &off_second] {
            assert_eq!(tile, &on_first, "{backend:?}: same tile, byte for byte");
        }
        costs.push((on_first_msgs, on_second_msgs, off_first_venues));
    }
    assert!(
        costs.iter().all(|cost| *cost == costs[0]),
        "identical message counts on every backend: {costs:?}"
    );
}

#[test]
fn dead_replica_cached_state_is_purged_on_failover() {
    // Fleet mode: every venue is two replicas of one content shard.
    let dep = Deployment::build(
        fanout_world(),
        DeploymentConfig {
            replicas: 2,
            ..DeploymentConfig::default()
        },
    );
    let product = dep.world.products[0].clone();
    let near = dep.world.venues[product.venue].hint;

    // Warm search: the chosen replica's Hello (and with it the
    // coverage extent) is cached per endpoint.
    let hits = search_hits(&dep.client, &product.name, near, 3).unwrap();
    assert!(hits.iter().any(|h| h.result.label == product.name));
    let victim = dep
        .fleet_servers
        .iter()
        .find(|m| {
            m.venue == product.venue
                && dep
                    .client
                    .session()
                    .advertised(m.server.endpoint())
                    .is_some()
        })
        .expect("the consulted replica cached its coverage")
        .server
        .clone();
    assert!(dep.client.session().advertised(victim.endpoint()).is_some());

    // The replica dies mid-deployment; the next search fails over to
    // its shard sibling and must still find the product.
    dep.transport.set_down(victim.endpoint(), true);
    let hits = search_hits(&dep.client, &product.name, near, 3).unwrap();
    assert!(
        hits.iter().any(|h| h.result.label == product.name),
        "failover to the shard sibling preserves recall"
    );

    // The regression pin: dead-listing must purge the dead endpoint's
    // per-endpoint cached state — capability AND coverage — so a
    // replacement server on a recycled endpoint is never served (or
    // pruned) from the dead server's advertisement.
    assert!(
        dep.client.session().advertised(victim.endpoint()).is_none(),
        "dead replica's cache entry, capability and coverage, must be purged"
    );

    // And the planner never routes at it again while dead-listed.
    let plan = dep
        .client
        .plan_query(QueryKind::Search, near, 2_000.0)
        .unwrap();
    assert!(
        plan.targets
            .iter()
            .all(|t| t.server.endpoint != victim.endpoint()),
        "dead replica must not be re-planned"
    );
}

/// Spec §13.1: an extent's cells are the server's commitment, so every
/// element a venue server can answer lies in one of them — far corners
/// included, which lie past the registration cap (0.75 × a venue's
/// larger side) the cells cover. The worlds are the default one and the
/// three the benchmark's gated workloads build.
#[test]
fn every_venue_node_lies_inside_its_advertised_extent_cells() {
    let bench = |stores, blocks| WorldConfig {
        stores,
        blocks_x: blocks,
        blocks_y: blocks,
        products_per_store: 20,
        ..WorldConfig::default()
    };
    for config in [
        WorldConfig::default(),
        bench(8, 8),
        bench(32, 12),
        bench(16, 8),
    ] {
        let dep = Deployment::build(World::generate(config), DeploymentConfig::default());
        let mut nodes = 0;
        for (venue, server) in dep.venue_servers.iter().enumerate() {
            let cells: Vec<CellId> = (server.hello().coverage.iter())
                .map(|&raw| CellId::from_raw(raw).unwrap())
                .collect();
            assert!(!cells.is_empty(), "a venue advertises an extent");
            for node in dep.world.venues[venue].map.nodes() {
                let geo = dep.world.venue_point_to_geo(venue, node.pos);
                assert!(
                    cells.iter().any(|cell| cell.contains_point(geo)),
                    "{}: node {:?} at {geo} lies outside every extent cell",
                    server.id(),
                    node.id
                );
                nodes += 1;
            }
        }
        println!(
            "{} stores: {nodes} venue nodes, all inside the extent cells",
            dep.world.venues.len()
        );
    }
}

/// Spec §13.1: a server refuses an update that would place a node
/// outside its extent, so no patch can hide content from the warm
/// planner. In each of five directions the test walks out from the
/// outdoor map's anchor to the first point outside its extent cells and
/// patches a uniquely named node 50, 150 or 400 m past it: every patch
/// is refused over the wire, and a warm search for each name at its
/// node answers the same with the planner on and off.
#[test]
fn a_patch_outside_its_servers_extent_is_refused_and_recall_holds() {
    let world = fanout_world();
    for backend in BACKENDS {
        let dep = Deployment::build(
            world.clone(),
            DeploymentConfig {
                backend,
                ..DeploymentConfig::default()
            },
        );
        let off = planner_off_client(&dep);
        let server = &dep.outdoor_server;
        let hello = server.hello();
        let frame = LocalFrame::new(hello.anchor.expect("the outdoor map is anchored"));
        let cells: Vec<CellId> = (hello.coverage.iter())
            .map(|&raw| CellId::from_raw(raw).unwrap())
            .collect();
        let inside = |p: Point2| cells.iter().any(|c| c.contains_point(frame.from_local(p)));
        let search = |client: &OpenFlameClient, name: &str, location: LatLng| {
            let (query, radius_m, k) = (name.to_string(), 40.0, 5);
            let query = SearchQuery {
                query,
                location,
                radius_m,
                k,
            };
            client.search(query).unwrap().hits
        };
        // Warm both arms, so the planner-on one holds the extent.
        let center = dep.world.config.center;
        let product = &dep.world.products[0].name;
        assert_eq!(
            search_hits(&dep.client, product, center, 3).unwrap(),
            search_hits(&off, product, center, 3).unwrap()
        );
        let base = server.with_map(|m| m.meta().version);
        for direction in 0..5 {
            let angle = direction as f64 * std::f64::consts::TAU / 5.0;
            let step = Point2::new(angle.cos(), angle.sin());
            let edge = (0..).map(|m| m as f64 * 10.0).find(|&d| !inside(step * d));
            let edge = edge.unwrap();
            for (margin, past) in [50.0, 150.0, 400.0].into_iter().enumerate() {
                let name = format!("Stray Kiosk {direction}{margin}");
                let pos = step * (edge + past);
                let mut patch = MapPatch::new(base);
                patch.upsert_nodes.push(Node::new(
                    NodeId(9_100_000 + 10 * direction + margin as u64),
                    pos,
                    Tags::new().with("amenity", "kiosk").with("name", &name),
                ));
                let answer = dep
                    .client
                    .session()
                    .batch(server.endpoint(), vec![Request::ApplyPatch { patch }])
                    .unwrap();
                assert!(
                    matches!(answer[..], [Response::Error { code: 4, .. }]),
                    "{backend:?}: {name} at {pos:?} was not refused: {answer:?}"
                );
                let at = frame.from_local(pos);
                assert_eq!(
                    search(&dep.client, &name, at),
                    search(&off, &name, at),
                    "{backend:?}: {name}: search recall must not depend on the planner"
                );
            }
        }
        assert_eq!(server.with_map(|m| m.meta().version), base);
    }
}
