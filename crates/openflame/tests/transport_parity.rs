//! Backend parity: the federation behaves identically over the
//! deterministic network simulator, real loopback TCP sockets, and
//! QuicLite reliable datagrams.
//!
//! Three claims are enforced here:
//!
//! 1. **End-to-end equivalence** — the grocery scenario and the
//!    provider-parity service sweep run unchanged (same code, through
//!    `&dyn SpatialProvider`) on every backend.
//! 2. **Wire-discipline parity** — an identical warm-search workload
//!    costs exactly one batched envelope per discovered server (two
//!    messages: request + response) on EVERY backend, with identical
//!    message counts. This is the warm-search invariant, enforced
//!    across transports.
//! 3. **Failure parity** — endpoint-down and dropped-message injection
//!    surface as `ClientError::PartialFailure` with per-branch source
//!    errors preserved on every backend: never a panic, never a silent
//!    empty result. (On QuicLite, drop injection below the timeout is
//!    *recovered* by retransmission; only total loss fails — the
//!    dedicated recovery test pins that.) The tile path obeys the same
//!    blackout rule as search, reverse geocode and localize.
//! 4. **Discovery parity** — one `MAPSRV` question per cell discovers
//!    exactly what a `MAPSRV` and a `FLEETSRV` question per cell did,
//!    order included, at five lookups and 7 upstream queries per cold
//!    discovery: one root ask and one TLD ask shared by the five cells,
//!    then five cell answers (spec §9.1).

use openflame_cells::CellId;
use openflame_codec::{from_bytes, to_bytes};
use openflame_core::{
    run_grocery_scenario_on, CentralizedProvider, ClientError, Deployment, DeploymentConfig,
    DiscoveredServer, DiscoveryView, FederatedRoute, FederatedSearchHit, FleetShardView, FleetView,
    GeocodeHit, GeocodeQuery, LocalizeQuery, OpenFlameClient, ProviderEstimate, ProviderKind,
    ReverseGeocodeQuery, RouteQuery, SearchQuery, Session, SpatialProvider, TileQuery,
};
use openflame_dns::{DnsError, DomainName, RecordData, RecordType};
use openflame_geo::LatLng;
use openflame_localize::LocationCue;
use openflame_mapdata::ElementId;
use openflame_mapserver::naming::{cell_to_name, QUERY_LEVEL};
use openflame_mapserver::protocol::{Envelope, Request, Response, WireSearchResult};
use openflame_mapserver::{AccessPolicy, MapServer, Principal};
use openflame_netsim::{BackendKind, EndpointId, Transport, WireService};
use openflame_tiles::Tile;
use openflame_worldgen::{World, WorldConfig};
use std::collections::BTreeSet;
use std::error::Error;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

fn small_world() -> World {
    World::generate(WorldConfig {
        stores: 4,
        products_per_store: 10,
        ..WorldConfig::default()
    })
}

fn deployment_on(backend: BackendKind, world: World) -> Deployment {
    Deployment::build(
        world,
        DeploymentConfig {
            backend,
            ..DeploymentConfig::default()
        },
    )
}

#[test]
fn grocery_scenario_completes_on_every_backend() {
    let world = small_world();
    for backend in BACKENDS {
        let report =
            run_grocery_scenario_on(&world, ProviderKind::Federated, 3, 11, backend).unwrap();
        assert!(report.found_product, "{backend:?}: product must be found");
        assert!(
            report.route_reaches_shelf,
            "{backend:?}: route must reach the shelf"
        );
        assert!(report.route_length_m.unwrap() > 10.0, "{backend:?}");
        assert!(
            report.indoor_availability > 0.5,
            "{backend:?}: indoor localization mostly available"
        );
        assert!(report.messages > 0, "{backend:?}: traffic was counted");
    }
}

#[test]
fn every_service_runs_under_both_architectures_on_tcp() {
    // The provider-parity sweep, over real sockets: one federated and
    // one centralized provider, the same `&dyn SpatialProvider` flow.
    let world = World::generate(WorldConfig {
        stores: 1,
        products_per_store: 8,
        ..WorldConfig::default()
    });
    let dep = deployment_on(BackendKind::Tcp, world.clone());
    let omni = CentralizedProvider::omniscient_on(BackendKind::Tcp.build(5), &world);
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
        assert!(search.stats.messages > 0, "{id}: real sockets were used");
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

/// Warm-search wire cost on one backend: (transport messages, session
/// batch envelopes, discovered servers).
fn warm_search_cost(backend: BackendKind) -> (u64, u64, usize) {
    let dep = deployment_on(backend, small_world());
    let product = dep.world.products[0].clone();
    let near = dep.world.venues[product.venue].hint;
    // Warm the session: discovery and hellos are cached after this.
    search_hits(&dep.client, &product.name, near, 3).unwrap();
    let servers = dep.client.discover(near).unwrap();
    assert!(servers.len() >= 2, "need a federation to make the point");

    dep.transport.reset_stats();
    let batches_before = dep.client.session().stats().batches;
    search_hits(&dep.client, &product.name, near, 3).unwrap();
    let messages = dep.transport.stats().messages;
    let batches = dep.client.session().stats().batches - batches_before;
    (messages, batches, servers.len())
}

#[test]
fn identical_warm_search_costs_identical_messages_on_every_backend() {
    let (sim_msgs, sim_batches, sim_servers) = warm_search_cost(BackendKind::Sim);
    // The warm-search invariant, on each backend: exactly one
    // batched envelope per discovered server, two messages each, and
    // nothing else (no DNS, no hello traffic). Pipelining must reorder
    // waiting, never traffic.
    assert_eq!(sim_batches, sim_servers as u64);
    assert_eq!(sim_msgs, 2 * sim_servers as u64);
    for backend in [BackendKind::Tcp, BackendKind::QuicLite] {
        let (msgs, batches, servers) = warm_search_cost(backend);
        // Same world, same registrations: discovery agrees.
        assert_eq!(servers, sim_servers, "{backend:?}");
        assert_eq!(batches, servers as u64, "{backend:?}");
        assert_eq!(
            msgs, sim_msgs,
            "{backend:?}: identical workload must cost identical message counts"
        );
    }
}

#[test]
fn identical_cold_search_costs_identical_messages_on_every_backend() {
    // The cold path is where the pipelining lives: DNS referral walks
    // for primary + neighbor cells interleaved, the capability
    // handshake overlapped with the search round. None of that may
    // change WHAT goes on the wire — a fresh client's first search must
    // cost the same messages on the simulator, on real TCP, and on
    // QuicLite datagrams (whose handshakes, acks and retransmissions
    // are packet-level concerns, never message-level ones).
    let cold_cost = |backend: BackendKind| {
        let dep = deployment_on(backend, small_world());
        let product = dep.world.products[0].clone();
        let near = dep.world.venues[product.venue].hint;
        dep.transport.reset_stats();
        search_hits(&dep.client, &product.name, near, 3).unwrap();
        dep.transport.stats().messages
    };
    let sim = cold_cost(BackendKind::Sim);
    assert!(sim > 0);
    for backend in [BackendKind::Tcp, BackendKind::QuicLite] {
        assert_eq!(
            sim,
            cold_cost(backend),
            "{backend:?}: cold search (DNS walks, then one round carrying \
             the unaligned venues' searches and the anchored servers' hellos, \
             then the anchored servers' searches) must cost identical messages"
        );
    }
}

/// A fresh client's first tile, search and reverse geocode on one
/// backend: each call's session envelopes and the map servers it
/// reached, beside the envelopes and servers the catalogue rule
/// predicts.
fn first_call_footprints(backend: BackendKind) -> Vec<(u64, Vec<EndpointId>)> {
    let dep = deployment_on(backend, small_world());
    let center = dep.world.config.center;
    let product = dep.world.products[0].clone();
    let near = dep.world.venues[product.venue].hint;
    let servers: Vec<_> = std::iter::once(&dep.outdoor_server)
        .chain(&dep.venue_servers)
        .collect();
    let anchored = |endpoint: EndpointId| {
        let server = servers.iter().find(|s| s.endpoint() == endpoint);
        server.is_some_and(|s| s.hello().anchor.is_some())
    };
    let mut footprints = Vec::new();
    for call in ["tile", "search", "rgeocode"] {
        let client = OpenFlameClient::builder()
            .principal(Principal::anonymous())
            .world_provider(dep.outdoor_server.endpoint())
            .build_on(dep.transport.clone(), dep.resolver.clone());
        dep.transport.reset_stats();
        let answered = match call {
            "tile" => tile_at(&client, center, 16).is_ok(),
            "search" => search_hits(&client, &product.name, near, 3).is_ok(),
            _ => reverse_geocode_at(&client, center, 150.0).is_ok(),
        };
        assert!(answered, "{backend:?}: {call}");
        let batches = client.session().stats().batches;
        let reached: Vec<EndpointId> = (servers.iter())
            .map(|s| s.endpoint())
            .filter(|&e| dep.transport.endpoint_stats(e).unwrap().rx_msgs > 0)
            .collect();
        match call {
            "tile" => {
                assert_eq!(batches, 1, "{backend:?}: one tile envelope");
                assert_eq!(reached, [dep.outdoor_server.endpoint()], "{backend:?}");
            }
            "search" => {
                let discovered = client.discover(near).unwrap();
                let anchored = discovered.iter().filter(|s| anchored(s.endpoint));
                let expected = discovered.len() + anchored.count();
                assert!(discovered.len() > 2, "{backend:?}: a federation");
                assert_eq!(batches, expected as u64, "{backend:?}: {call}");
            }
            _ => {
                assert!(!reached.is_empty(), "{backend:?}: someone names the spot");
                assert!(
                    reached.iter().all(|&e| anchored(e)),
                    "{backend:?}: only anchored servers are asked to place a position"
                );
            }
        }
        footprints.push((batches, reached));
    }
    footprints
}

#[test]
fn a_cold_call_skips_what_the_catalogue_rules_out_on_every_backend() {
    // Spec §9.1, spec §13.3 and spec §8: a fresh client reads each discovered
    // server's catalogue before first contact. The catalogue lists
    // `rgeocode` and `tiles` exactly when the map is geo-anchored, so a
    // cold tile call never reaches an unaligned venue, a cold search
    // handshakes first only the servers with a frame, and a cold
    // reverse geocode reaches only anchored servers.
    let sim = first_call_footprints(BackendKind::Sim);
    for backend in [BackendKind::Tcp, BackendKind::QuicLite] {
        assert_eq!(first_call_footprints(backend), sim, "{backend:?}");
    }
}

#[test]
fn cold_geocode_sends_one_envelope_per_server_on_every_backend() {
    // First contact costs no envelope of its own (spec §8): a fresh
    // client's first geocode — world provider, then every refiner it
    // has never spoken to — puts exactly one envelope to each server on
    // the wire, the advertisement riding it.
    let cold_geocode = |backend: BackendKind| {
        let dep = deployment_on(backend, small_world());
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
        let outcome = dep
            .client
            .geocode(GeocodeQuery {
                query: address,
                k: 3,
            })
            .unwrap();
        assert!(!outcome.hits.is_empty(), "{backend:?}");
        let contacted = std::iter::once(&dep.outdoor_server)
            .chain(&dep.venue_servers)
            .filter(|server| {
                let stats = dep.transport.endpoint_stats(server.endpoint()).unwrap();
                stats.rx_msgs > 0
            })
            .count() as u64;
        (dep.client.session().stats().batches, contacted)
    };
    let (sim_batches, sim_contacted) = cold_geocode(BackendKind::Sim);
    assert!(sim_contacted >= 2, "need refiners to make the point");
    assert_eq!(sim_batches, sim_contacted, "one envelope per server");
    for backend in [BackendKind::Tcp, BackendKind::QuicLite] {
        assert_eq!(
            cold_geocode(backend),
            (sim_batches, sim_contacted),
            "{backend:?}"
        );
    }
}

#[test]
fn a_denial_names_the_denying_server_on_every_backend() {
    // "Why was this query partial": a venue whose policy denies
    // routing must be named by the error it causes.
    for backend in BACKENDS {
        let dep = Deployment::build(
            small_world(),
            DeploymentConfig {
                backend,
                venue_policy: AccessPolicy::locked(),
                ..DeploymentConfig::default()
            },
        );
        let product = dep.world.products[0].clone();
        let venue = &dep.venue_servers[product.venue];
        // A locked venue denies search too, so the hit is hand-made.
        let hit = FederatedSearchHit {
            server_id: venue.id().to_string(),
            endpoint: venue.endpoint(),
            result: WireSearchResult {
                element: ElementId::Node(product.shelf),
                pos: product.shelf_pos,
                score: 1.0,
                distance_m: 0.0,
                label: product.name.clone(),
            },
        };
        let user = dep.world.venues[product.venue]
            .hint
            .destination(225.0, 80.0);
        let err = route_to(&dep.client, user, &hit).expect_err("a locked venue denies Route");
        assert!(
            matches!(err, ClientError::PartialFailure { .. }),
            "{backend:?}: {err}"
        );
        let shown = err.to_string();
        assert!(
            shown.contains(&format!("server {} error 1", venue.id())),
            "{backend:?}: the denial must name the venue, got {shown}"
        );
    }
}

#[test]
fn quiclite_deployment_recovers_injected_loss_by_retransmission() {
    // The datagram backend's loss story, end to end: with a third of
    // all datagrams dropped, a warm federated search must still
    // SUCCEED (the RTO timer repairs every loss below the call
    // timeout) — where the stream backends surface the same injection
    // as a failed call. Only total loss fails on QuicLite, which the
    // shared failure-parity test exercises with p = 1.0.
    let quic = openflame_netsim::QuicLiteTransport::new(7);
    let dep = Deployment::build_on(
        std::sync::Arc::new(quic.clone()),
        small_world(),
        DeploymentConfig {
            backend: BackendKind::QuicLite,
            ..DeploymentConfig::default()
        },
    );
    let product = dep.world.products[0].clone();
    let near = dep.world.venues[product.venue].hint;
    search_hits(&dep.client, &product.name, near, 3).unwrap();
    // Baseline: a scheduler stall during the (loss-free) warm-up can
    // already have tripped the RTO timer; only retransmits *under
    // injection* count.
    let base_retransmits = quic.retransmits();
    let base_drops = dep.transport.stats().drops;
    dep.transport.set_drop_probability(0.3);
    // A handful of warm searches puts dozens of datagrams under the
    // 30% loss injection; every one must succeed, and the losses must
    // have been repaired by the RTO timer.
    let mut rounds = 0;
    while rounds < 5 && (rounds == 0 || quic.retransmits() == base_retransmits) {
        let hits = search_hits(&dep.client, &product.name, near, 3)
            .expect("loss below the timeout must be recovered, not surfaced");
        assert!(hits.iter().any(|h| h.result.label == product.name));
        rounds += 1;
    }
    // A drop that hit an ack (rather than a data packet) is repaired
    // one RTO after the call already completed; give the timer a beat.
    let t0 = std::time::Instant::now();
    while quic.retransmits() == base_retransmits && t0.elapsed().as_millis() < 500 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        quic.retransmits() > base_retransmits,
        "recovery must have used retransmission"
    );
    assert!(
        dep.transport.stats().drops > base_drops,
        "loss really was injected"
    );
    dep.transport.set_drop_probability(0.0);
}

/// A service that sheds its first `busy_first` envelopes with
/// `Response::Busy { retry_after_us: 500 }` and then answers every
/// batch item with a `Hello`-shaped reply. This is the cross-backend
/// probe for the overload protocol (wire-protocol.md spec §10): the
/// simulator installs no admission policy and never sheds on its own,
/// so Busy parity is driven through the service layer, where all three
/// backends must carry it identically.
fn busy_then_serve(busy_first: u64) -> Arc<dyn WireService> {
    let calls = Arc::new(AtomicU64::new(0));
    Arc::new(move |_from: EndpointId, payload: &[u8]| {
        if calls.fetch_add(1, Ordering::SeqCst) < busy_first {
            return to_bytes(&Response::Busy {
                retry_after_us: 500,
            })
            .to_vec();
        }
        let env: Envelope = from_bytes(payload).expect("well-formed envelope");
        let Request::Batch(items) = env.request else {
            panic!("sessions always batch");
        };
        let answers: Vec<Response> = items
            .iter()
            .map(|_| Response::PatchApplied { version: 1 })
            .collect();
        to_bytes(&Response::Batch(answers)).to_vec()
    })
}

#[test]
fn busy_sheds_behave_identically_on_every_backend() {
    for backend in BACKENDS {
        let transport = backend.build(21);
        let client = transport.register("busy-parity-client", None);
        let recovering = transport.register("recovering", None);
        transport.set_service(recovering, busy_then_serve(2));
        let wedged = transport.register("wedged", None);
        transport.set_service(wedged, busy_then_serve(u64::MAX));
        let session = Session::new(transport.clone(), client, Principal::anonymous());

        // Two sheds then success: absorbed by the session's retry loop,
        // invisible to the caller except through the stats.
        let responses = session.batch(recovering, vec![Request::Hello]).unwrap();
        assert_eq!(responses.len(), 1, "{backend:?}");
        let absorbed = session.stats();
        assert_eq!(absorbed.busy_rejections, 2, "{backend:?}");
        assert_eq!(absorbed.busy_retries, 2, "{backend:?}");
        assert_eq!(
            absorbed.batches, 1,
            "{backend:?}: retries are wire attempts, not new logical batches"
        );

        // A wedged server exhausts the retry budget and surfaces
        // Overloaded with the server's hint — same error, same stat
        // deltas, on every backend.
        let err = session.batch(wedged, vec![Request::Hello]).unwrap_err();
        assert_eq!(
            err,
            ClientError::Overloaded {
                retry_after_us: 500
            },
            "{backend:?}"
        );
        let exhausted = session.stats();
        assert_eq!(
            exhausted.busy_rejections - absorbed.busy_rejections,
            u64::from(openflame_core::BUSY_RETRY_BUDGET) + 1,
            "{backend:?}"
        );
        assert_eq!(
            exhausted.busy_retries - absorbed.busy_retries,
            u64::from(openflame_core::BUSY_RETRY_BUDGET),
            "{backend:?}"
        );

        // In a scatter round the exhausted branch fails alone: the
        // healthy sibling's result is delivered, the wedged branch
        // carries Overloaded.
        let mut round = session.scatter();
        round.submit(recovering, vec![Request::Hello]);
        round.submit(wedged, vec![Request::Hello]);
        let results = round.collect();
        assert!(results[0].is_ok(), "{backend:?}");
        assert_eq!(
            results[1],
            Err(ClientError::Overloaded {
                retry_after_us: 500
            }),
            "{backend:?}"
        );
    }
}

/// Warm up a venue route, kill the venue server, route again: the
/// scatter round that needs the venue must report a PartialFailure
/// carrying the branch's source error.
fn endpoint_down_partial_failure(backend: BackendKind) -> ClientError {
    let dep = deployment_on(backend, small_world());
    let product = dep.world.products[0].clone();
    let near = dep.world.venues[product.venue].hint;
    let hit = search_hits(&dep.client, &product.name, near, 3)
        .unwrap()
        .into_iter()
        .find(|h| h.result.label == product.name)
        .expect("product is stocked");
    let user = near.destination(225.0, 80.0);
    // Warm route: caches (hello, discovery) are hot afterwards.
    route_to(&dep.client, user, &hit).unwrap();
    // The venue dies; the client's caches still point at it.
    dep.transport
        .set_down(dep.venue_servers[product.venue].endpoint(), true);
    route_to(&dep.client, user, &hit).expect_err("routing into a dead venue cannot succeed")
}

#[test]
fn endpoint_down_surfaces_as_partial_failure_on_every_backend() {
    for backend in BACKENDS {
        let err = endpoint_down_partial_failure(backend);
        let ClientError::PartialFailure {
            succeeded,
            ref failures,
        } = err
        else {
            panic!("{backend:?}: expected PartialFailure, got {err}");
        };
        // The outdoor branch of the matrix round still succeeded; the
        // venue branch failed with its source preserved.
        assert_eq!(succeeded, 1, "{backend:?}");
        assert_eq!(failures.len(), 1, "{backend:?}");
        assert!(
            err.source().is_some(),
            "{backend:?}: source chain must be preserved"
        );
        assert!(
            failures[0].1.to_string().contains("down"),
            "{backend:?}: source names the dead endpoint, got {}",
            failures[0].1
        );
    }
}

/// The items of each envelope a logged server received, by kind, in
/// arrival order.
type EnvelopeLog = Arc<Mutex<Vec<(EndpointId, Vec<&'static str>)>>>;

/// Serves `server` on its endpoint again, logging each envelope's
/// items before dispatching them.
fn serve_logged(transport: &Arc<dyn Transport>, server: &Arc<MapServer>, log: &EnvelopeLog) {
    let (endpoint, server, log) = (server.endpoint(), server.clone(), log.clone());
    let service = move |_from: EndpointId, payload: &[u8]| {
        let env: Envelope = from_bytes(payload).expect("well-formed envelope");
        let Request::Batch(items) = &env.request else {
            panic!("sessions always batch");
        };
        let kinds = items.iter().map(|item| match item {
            Request::RouteMatrix { .. } => "RouteMatrix",
            Request::Route { .. } => "Route",
            _ => "other",
        });
        log.lock().unwrap().push((endpoint, kinds.collect()));
        to_bytes(&server.dispatch(&env.principal, env.request)).to_vec()
    };
    transport.set_service(endpoint, Arc::new(service));
}

/// Spec §8: a warm venue route is two rounds, one envelope per server
/// each — the outdoor and venue cost matrices, then both legs — so 4
/// envelopes and 8 messages, identically on every backend.
#[test]
fn a_warm_venue_route_is_two_rounds_on_every_backend() {
    for backend in BACKENDS {
        let dep = deployment_on(backend, small_world());
        let product = dep.world.products[0].clone();
        let (outdoor, venue) = (&dep.outdoor_server, &dep.venue_servers[product.venue]);
        let log = EnvelopeLog::default();
        for server in [outdoor, venue] {
            serve_logged(&dep.transport, server, &log);
        }
        let near = dep.world.venues[product.venue].hint;
        let hit = search_hits(&dep.client, &product.name, near, 3).unwrap()[0].clone();
        assert_eq!(hit.endpoint, venue.endpoint(), "{backend:?}");
        let user = near.destination(225.0, 80.0);
        // Cold, then warm: only the warm route is counted.
        route_to(&dep.client, user, &hit).unwrap();
        log.lock().unwrap().clear();
        dep.transport.reset_stats();
        let batches = dep.client.session().stats().batches;
        let route = route_to(&dep.client, user, &hit).unwrap();
        assert_eq!(route.legs.len(), 2, "{backend:?}");
        let batches = dep.client.session().stats().batches - batches;
        assert_eq!(batches, 4, "{backend:?}: envelopes");
        assert_eq!(dep.transport.stats().messages, 8, "{backend:?}: messages");
        // Round 1 is both matrices, round 2 both legs: each server got
        // one envelope of each, and no leg left before both matrices
        // were in.
        let log = log.lock().unwrap();
        let items: Vec<&[&str]> = log.iter().map(|(_, items)| items.as_slice()).collect();
        let expected: [&[&str]; 4] = [&["RouteMatrix"], &["RouteMatrix"], &["Route"], &["Route"]];
        assert_eq!(items, expected, "{backend:?}");
        let both = BTreeSet::from([outdoor.endpoint(), venue.endpoint()]);
        for round in log.chunks(2) {
            let reached: BTreeSet<EndpointId> = round.iter().map(|(at, _)| *at).collect();
            assert_eq!(reached, both, "{backend:?}: {log:?}");
        }
    }
}

#[test]
fn dropped_messages_surface_as_partial_failure_not_silent_empty() {
    for backend in BACKENDS {
        let dep = deployment_on(backend, small_world());
        let product = dep.world.products[0].clone();
        let near = dep.world.venues[product.venue].hint;
        // Warm caches so the drop injection hits the search fan-out
        // itself, not discovery.
        search_hits(&dep.client, &product.name, near, 3).unwrap();
        dep.transport.set_timeout_us(50_000);
        dep.transport.set_drop_probability(1.0);
        let err = search_hits(&dep.client, &product.name, near, 3)
            .expect_err("total packet loss cannot look like an empty result");
        let ClientError::PartialFailure {
            succeeded,
            ref failures,
        } = err
        else {
            panic!("{backend:?}: expected PartialFailure, got {err}");
        };
        assert_eq!(succeeded, 0, "{backend:?}");
        assert!(!failures.is_empty(), "{backend:?}");
        assert!(
            failures
                .iter()
                .all(|(_, e)| e.to_string().contains("timed out")),
            "{backend:?}: branch errors must carry the timeout source"
        );
        // Localization under total loss is an outage too, not an
        // honest "no coverage here".
        let loc_err = localize_at(
            &dep.client,
            near,
            &[LocationCue::Gnss {
                fix: near,
                accuracy_m: 4.0,
            }],
        )
        .expect_err("total packet loss cannot look like missing coverage");
        assert!(
            matches!(loc_err, ClientError::PartialFailure { succeeded: 0, .. }),
            "{backend:?}: expected PartialFailure, got {loc_err}"
        );
        // Recovery: lifting the injection restores service.
        dep.transport.set_drop_probability(0.0);
        assert!(search_hits(&dep.client, &product.name, near, 3).is_ok());
    }
}

/// A tile outage on one backend: the number of failed branches the
/// blackout reported.
fn tile_blackout_failures(backend: BackendKind) -> usize {
    let dep = deployment_on(backend, small_world());
    let query = TileQuery {
        center: dep.world.venues[0].hint,
        z: 16,
    };
    dep.client.tile(query).unwrap();
    // The only tile-serving server dies. A client that consults the
    // unaligned venues regardless (planner off) still hears from them
    // — a refusal is an answer — so this is "no tile providers here",
    // not an outage.
    let unpruned = OpenFlameClient::builder()
        .coverage_planner(false)
        .build_on(dep.transport.clone(), dep.resolver.clone());
    dep.transport.set_down(dep.outdoor_server.endpoint(), true);
    let err = unpruned.tile(query).expect_err("no layer arrived");
    assert!(
        matches!(err, ClientError::NothingDiscovered(_)),
        "{backend:?}: a refusing venue has answered, got {err}"
    );
    // Every server the plan could consult is down: a blackout, with
    // one source error per consulted branch.
    for venue in &dep.venue_servers {
        dep.transport.set_down(venue.endpoint(), true);
    }
    let err = dep
        .client
        .tile(query)
        .expect_err("a total outage cannot look like an unmapped area");
    let ClientError::PartialFailure {
        succeeded: 0,
        ref failures,
    } = err
    else {
        panic!("{backend:?}: expected a blackout PartialFailure, got {err}");
    };
    assert!(
        err.source().is_some(),
        "{backend:?}: source chain preserved"
    );
    assert!(
        failures.iter().all(|(_, e)| e.to_string().contains("down")),
        "{backend:?}: every branch names its dead endpoint"
    );
    failures.len()
}

#[test]
fn tile_blackout_surfaces_as_partial_failure_on_every_backend() {
    let sim = tile_blackout_failures(BackendKind::Sim);
    assert!(sim > 0);
    for backend in [BackendKind::Tcp, BackendKind::QuicLite] {
        assert_eq!(sim, tile_blackout_failures(backend), "{backend:?}");
    }
}

/// The discovery rule before spec §9.1 let one question carry both
/// record types, kept as the oracle: a `MAPSRV` and a `FLEETSRV`
/// question per cell, each answer folded in that order, servers
/// deduplicated by id and fleets by group id.
fn two_question_view(dep: &Deployment, hint: LatLng) -> DiscoveryView {
    let cell = CellId::from_latlng(hint, QUERY_LEVEL).unwrap();
    let queries: Vec<(DomainName, RecordType)> = std::iter::once(cell)
        .chain(cell.edge_neighbors())
        .flat_map(|c| {
            let name = cell_to_name(c);
            [
                (name.clone(), RecordType::MapSrv),
                (name, RecordType::FleetSrv),
            ]
        })
        .collect();
    let mut view = DiscoveryView::default();
    for outcome in dep.resolver.resolve_many(&queries) {
        let records = match outcome {
            Ok(outcome) => outcome.records,
            Err(DnsError::NxDomain(_)) => continue,
            Err(e) => panic!("oracle lookup failed: {e}"),
        };
        for record in records.iter().cloned() {
            match record.data {
                RecordData::MapSrv {
                    endpoint,
                    server_id,
                    catalogue,
                } if view.servers.iter().all(|s| s.server_id != server_id) => {
                    view.servers.push(Arc::new(DiscoveredServer {
                        server_id,
                        endpoint: EndpointId(endpoint),
                        catalogue,
                    }));
                }
                RecordData::FleetSrv {
                    group_id,
                    catalogue,
                    shards,
                } if view.fleets.iter().all(|f| f.group_id != group_id) => {
                    let shards = shards
                        .into_iter()
                        .map(|shard| {
                            let replicas = shard
                                .replicas
                                .into_iter()
                                .map(|r| {
                                    Arc::new(DiscoveredServer {
                                        server_id: r.server_id,
                                        endpoint: EndpointId(r.endpoint),
                                        catalogue,
                                    })
                                })
                                .collect();
                            Arc::new(FleetShardView::new(&shard.extents, replicas))
                        })
                        .collect();
                    view.fleets.push(FleetView {
                        group_id,
                        catalogue,
                        shards,
                    });
                }
                _ => {}
            }
        }
    }
    view
}

/// Cold discovery asks one question per cell (spec §9.1) and finds what
/// two questions per cell found, order included, on every backend: in
/// the `cold_sim` benchmark's city (plain servers) and in a fleet city
/// (two replicas of two shards per venue, advertised only by
/// `FLEETSRV`). A warm repeat is answered from the resolver cache, whose
/// entries keep the additional records.
#[test]
fn one_question_per_cell_discovers_what_two_did_on_every_backend() {
    let cities = [
        (
            WorldConfig {
                seed: 42,
                stores: 32,
                blocks_x: 12,
                blocks_y: 12,
                products_per_store: 20,
                ..WorldConfig::default()
            },
            (1, 1),
        ),
        (
            WorldConfig {
                seed: 42,
                stores: 16,
                blocks_x: 8,
                blocks_y: 8,
                products_per_store: 20,
                ..WorldConfig::default()
            },
            (2, 2),
        ),
    ];
    for (world, (replicas, content_shards)) in cities {
        let world = World::generate(world);
        for backend in BACKENDS {
            let dep = Deployment::build(
                world.clone(),
                DeploymentConfig {
                    backend,
                    replicas,
                    content_shards,
                    ..DeploymentConfig::default()
                },
            );
            let discovery = dep.client.discovery();
            let mut fleets_seen = 0;
            for venue in &dep.world.venues {
                let at = format!("{backend:?}, {replicas}x{content_shards}, {:?}", venue.hint);
                dep.resolver.flush_cache();
                let (lookups, upstream) = (
                    discovery.stats().lookups,
                    dep.resolver.stats().upstream_queries,
                );
                let view = discovery.discover_view(venue.hint, true).unwrap();
                assert_eq!(discovery.stats().lookups - lookups, 5, "{at}");
                assert_eq!(
                    dep.resolver.stats().upstream_queries - upstream,
                    7,
                    "{at}: one root referral and one TLD referral shared by five cells, then five answers"
                );
                let upstream = dep.resolver.stats().upstream_queries;
                let warm = discovery.discover_view(venue.hint, true).unwrap();
                assert_eq!(dep.resolver.stats().upstream_queries, upstream, "{at}");
                assert_eq!(warm.fleets, view.fleets, "{at}: the cache kept them");
                dep.resolver.flush_cache();
                assert_eq!(view, two_question_view(&dep, venue.hint), "{at}");
                assert!(!view.servers.is_empty(), "{at}: the outdoor map");
                fleets_seen += view.fleets.len();
            }
            assert_eq!(
                fleets_seen > 0,
                replicas > 1,
                "{backend:?}: fleets are discovered exactly in the fleet city"
            );
        }
    }
}
