//! The one scatter loop, pinned on a stub federation.
//!
//! Every server here is a closure on the deterministic simulator,
//! injected into the client through `Session::store_discovery`, so each
//! test decides exactly what a peer says. Three things are pinned:
//!
//! 1. **The per-class outage table** (`QueryKind::outage`, and route's
//!    own every-branch-every-item rule): for each of the six classes ×
//!    {every server answers, one plain server down, one fleet shard
//!    down after failover, every consulted server down, every server
//!    denies}, whether the call is an answer or a
//!    `ClientError::PartialFailure` — and then with which `succeeded`
//!    count and which indices, sources preserved; plus a cold column
//!    for reverse geocode, whose request needs the frame a failed
//!    handshake never delivers.
//! 2. **The world provider comes from the builder only**: a client built
//!    without one refuses a forward geocode before sending anything,
//!    and one whose world provider refuses the handshake fails the call
//!    without a second envelope.
//! 3. **Peer bytes may make a query fail, never lie or panic**: a tile
//!    echoing another coordinate, portal cost matrices of a shape that
//!    was not asked for, and a result limit past `u32::MAX` — and a tile
//!    zoom deeper than the pyramid, or a NaN or negative search or
//!    reverse-geocode radius, is refused before any byte is sent.

use openflame_cells::CellId;
use openflame_codec::{from_bytes, to_bytes};
use openflame_core::{
    CentralizedProvider, ClientError, DiscoveredServer, DiscoveryView, FederatedRoute,
    FederatedSearchHit, FleetShardView, FleetView, GeocodeHit, GeocodeQuery, LocalizeQuery,
    OpenFlameClient, ProviderEstimate, QueryKind, ReverseGeocodeQuery, RouteQuery, SearchQuery,
    SpatialProvider, TileQuery,
};
use openflame_dns::{Catalogue, Resolver, ResolverConfig};
use openflame_geo::{LatLng, Mercator, Point2};
use openflame_localize::LocationCue;
use openflame_mapdata::{ElementId, NodeId};
use openflame_mapserver::naming::QUERY_LEVEL;
use openflame_mapserver::protocol::{
    Envelope, HelloInfo, Request, Response, RouteEnd, WireEstimate, WireGeocodeHit, WireRoute,
    WireSearchResult,
};
use openflame_netsim::{BackendKind, EndpointId, Transport};
use openflame_tiles::{Tile, TileCoord, MAX_ZOOM};
use openflame_worldgen::{World, WorldConfig};
use std::sync::atomic::{AtomicBool, Ordering};
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

type Net = Arc<dyn Transport>;

/// Where every stub is anchored and every query is asked.
fn here() -> LatLng {
    LatLng::new(40.44, -79.94).unwrap()
}

fn advertisement(anchor: Option<LatLng>, portals: Vec<(u64, LatLng)>) -> HelloInfo {
    HelloInfo {
        anchor,
        portals,
        coverage: Vec::new(),
    }
}

/// A service answering every batch item with `answer(item)`.
fn service(
    answer: impl Fn(&Request) -> Response + Send + Sync + 'static,
) -> Arc<dyn openflame_netsim::WireService> {
    Arc::new(move |_from: EndpointId, payload: &[u8]| {
        let envelope: Envelope = from_bytes(payload).expect("the session sends envelopes");
        let Request::Batch(items) = envelope.request else {
            panic!("the session always sends batches");
        };
        to_bytes(&Response::Batch(items.iter().map(&answer).collect())).to_vec()
    })
}

/// Registers a stub map server named `server_id` advertising `hello`;
/// every item but `Hello` is answered by `answer`.
fn stub(
    net: &Net,
    server_id: &str,
    hello: HelloInfo,
    answer: impl Fn(&Request) -> Response + Send + Sync + 'static,
) -> Arc<DiscoveredServer> {
    let endpoint = net.register(&format!("mapsrv:{server_id}"), None);
    net.set_service(
        endpoint,
        service(move |item| match item {
            Request::Hello => Response::Hello(hello.clone()),
            item => answer(item),
        }),
    );
    Arc::new(DiscoveredServer {
        server_id: server_id.into(),
        endpoint,
        catalogue: Catalogue::LOCALIZE_GNSS,
    })
}

/// A stub anchored [`here`].
fn anchored_stub(
    net: &Net,
    server_id: &str,
    answer: impl Fn(&Request) -> Response + Send + Sync + 'static,
) -> Arc<DiscoveredServer> {
    stub(
        net,
        server_id,
        advertisement(Some(here()), Vec::new()),
        answer,
    )
}

/// A client on `net` whose discovery at [`here`] is `view` — no DNS is
/// ever consulted. The view's `world-map` server, if it has one, is the
/// client's world provider.
fn client_seeing(net: &Net, view: DiscoveryView) -> OpenFlameClient {
    let dns = net.register("stub-dns", None);
    let config = ResolverConfig::default();
    let resolver = Arc::new(Resolver::with_config_on(
        net.clone(),
        "resolver",
        vec![dns],
        config,
    ));
    let mut builder = OpenFlameClient::builder();
    if let Some(world) = view.servers.iter().find(|s| s.server_id == "world-map") {
        builder = builder.world_provider(world.endpoint);
    }
    let client = builder.build_on(net.clone(), resolver);
    let cell = CellId::from_latlng(here(), QUERY_LEVEL).unwrap();
    client.session().store_discovery(cell.raw(), view);
    client
}

fn plain_view(servers: Vec<Arc<DiscoveredServer>>) -> DiscoveryView {
    DiscoveryView {
        servers,
        fleets: Vec::new(),
    }
}

fn blank_tile(z: u8, x: u32, y: u32) -> Response {
    let rgb = Tile::blank(TileCoord { z, x, y }).to_runs();
    Response::Tile { z, x, y, rgb }
}

/// The nodes a stub matrix's ends resolve to: a node end is itself,
/// and every position snaps to node 7.
fn snapped(entries: &[RouteEnd], exits: &[RouteEnd]) -> Vec<u64> {
    let node = |end: &RouteEnd| match end {
        RouteEnd::Node(node) => *node,
        RouteEnd::At(_) => 7,
    };
    entries.iter().chain(exits).map(node).collect()
}

/// An honest, open server: one hit, one estimate, one layer.
fn honest(item: &Request) -> Response {
    let element = ElementId::Node(NodeId(1));
    let pos = Point2::ZERO;
    let hit = WireGeocodeHit {
        element,
        pos,
        score: 1.0,
        label: "1 Main St".into(),
    };
    match item {
        Request::Search { .. } => Response::Search {
            results: vec![WireSearchResult {
                element,
                pos,
                score: 1.0,
                distance_m: 0.0,
                label: "kiosk".into(),
            }],
        },
        Request::Geocode { .. } => Response::Geocode { hits: vec![hit] },
        Request::ReverseGeocode { .. } => Response::ReverseGeocode { hit: Some(hit) },
        Request::Localize { .. } => Response::Localize {
            estimates: vec![WireEstimate {
                pos,
                error_m: 3.0,
                technology: "gnss".into(),
            }],
        },
        Request::GetTile { z, x, y } => blank_tile(*z, *x, *y),
        // Every coordinate's layer is blank, so a blank tile's tag
        // matches at every coordinate.
        Request::RevalidateTile { z, x, y, tag } => match blank_tile(*z, *x, *y) {
            Response::Tile { rgb, .. } if rgb.tag() == *tag => Response::TileUnchanged {
                z: *z,
                x: *x,
                y: *y,
            },
            tile => tile,
        },
        Request::RouteMatrix { entries, exits } => Response::RouteMatrix {
            costs: vec![vec![1.0; exits.len()]; entries.len()],
            nodes: snapped(entries, exits),
        },
        Request::Route { from, to } => Response::Route {
            route: Some(WireRoute {
                nodes: vec![*from, *to],
                cost: 1.0,
                length_m: 1.0,
                geometry: Vec::new(),
            }),
        },
        other => panic!("no class sends {other:?}"),
    }
}

/// A paper §5.3 denial of every service but capability discovery.
fn deny(_: &Request) -> Response {
    Response::Error {
        code: 1,
        message: "access denied".into(),
    }
}

/// The centralized provider over a one-store world, its server's
/// service replaced by `answer` (the handshake is refused, which the
/// session strips like any other answer to it).
fn central_answering(
    answer: impl Fn(&Request) -> Response + Send + Sync + 'static,
) -> (CentralizedProvider, World) {
    let net = BackendKind::Sim.build(1);
    let world = World::generate(WorldConfig {
        stores: 1,
        ..WorldConfig::default()
    });
    let central = CentralizedProvider::public_only_on(net.clone(), &world);
    net.set_service(
        central.server.endpoint(),
        service(move |item| match item {
            Request::Hello => deny(item),
            item => answer(item),
        }),
    );
    (central, world)
}

// --------------------------------------------------------------------
// The outage table.
// --------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Situation {
    AllAnswer,
    PlainDown,
    ShardDown,
    AllDown,
    AllDeny,
}

/// What a call came to: an answer (which may be "nothing here"), or an
/// outage with its `succeeded` count and failed plan indices.
#[derive(Debug, PartialEq)]
enum Verdict {
    Answer,
    Outage(usize, Vec<usize>),
}

/// One cell of the table: a fresh federation of the world provider
/// (plan index 0), a plain server (1) and a one-shard, two-replica
/// fleet (2) is asked one `class` query while all is well — so the
/// client is warm — then put into `situation` and asked again. Forward
/// geocode's scatter is its refinement step: the world provider is
/// declined there and stays up and open, since without the coarse hit
/// there is nothing to refine. A route goes from [`here`] to a shelf
/// in a venue the fleet serves (one portal), through the first replica.
fn verdict(class: QueryKind, situation: Situation) -> Verdict {
    judge(class, situation, true)
}

/// [`verdict`], with or without the warm-up: a cold client learns each
/// server's advertisement — a reverse geocode's frame included — from
/// the round it asks in.
fn judge(class: QueryKind, situation: Situation, warm: bool) -> Verdict {
    let net = BackendKind::Sim.build(1);
    let denying = Arc::new(AtomicBool::new(false));
    let switchable = || {
        let denying = denying.clone();
        move |item: &Request| {
            if denying.load(Ordering::SeqCst) {
                deny(item)
            } else {
                honest(item)
            }
        }
    };
    let world = match class {
        QueryKind::Geocode => anchored_stub(&net, "world-map", honest),
        _ => anchored_stub(&net, "world-map", switchable()),
    };
    let plain = anchored_stub(&net, "plain", switchable());
    let replica = |server_id: &str| match class {
        QueryKind::Route => stub(
            &net,
            server_id,
            advertisement(None, vec![(1, here())]),
            switchable(),
        ),
        _ => anchored_stub(&net, server_id, switchable()),
    };
    let replicas = vec![replica("shard-r0"), replica("shard-r1")];
    let shelf = FederatedSearchHit {
        server_id: replicas[0].server_id.clone(),
        endpoint: replicas[0].endpoint,
        result: WireSearchResult {
            element: ElementId::Node(NodeId(5)),
            pos: Point2::ZERO,
            score: 1.0,
            distance_m: 0.0,
            label: "shelf".into(),
        },
    };
    let down: Vec<EndpointId> = match situation {
        Situation::AllAnswer | Situation::AllDeny => Vec::new(),
        Situation::PlainDown => vec![plain.endpoint],
        Situation::ShardDown => replicas.iter().map(|r| r.endpoint).collect(),
        Situation::AllDown => replicas
            .iter()
            .chain([&plain, &world])
            .filter(|s| class != QueryKind::Geocode || s.endpoint != world.endpoint)
            .map(|s| s.endpoint)
            .collect(),
    };
    let shard = FleetShardView::new(&[CellId::from_latlng(here(), 16).unwrap().raw()], replicas);
    let view = DiscoveryView {
        servers: vec![world.clone(), plain],
        fleets: vec![FleetView {
            group_id: "fleet".into(),
            catalogue: Catalogue::default(),
            shards: vec![Arc::new(shard)],
        }],
    };
    let client = client_seeing(&net, view);
    let gnss = LocationCue::Gnss {
        fix: here(),
        accuracy_m: 4.0,
    };
    let ask = || match class {
        QueryKind::Search => search_hits(&client, "kiosk", here(), 3).map(drop),
        QueryKind::Geocode => geocode_hits(&client, "1 Main St", 3).map(drop),
        QueryKind::ReverseGeocode => reverse_geocode_at(&client, here(), 50.0).map(drop),
        QueryKind::Localize => localize_at(&client, here(), std::slice::from_ref(&gnss)).map(drop),
        QueryKind::Tile => tile_at(&client, here(), 16).map(drop),
        QueryKind::Route => route_to(&client, here(), &shelf).map(drop),
    };
    if warm {
        ask().expect("a healthy federation answers");
    }
    denying.store(situation == Situation::AllDeny, Ordering::SeqCst);
    for endpoint in down {
        net.set_down(endpoint, true);
    }
    match ask() {
        // Denied everywhere, a tile query has no layer to compose: the
        // round answered, and the answer is "no tile providers here".
        Ok(()) | Err(ClientError::NothingDiscovered(_)) => Verdict::Answer,
        Err(ClientError::PartialFailure {
            succeeded,
            failures,
        }) => {
            // Only a route fails on a denial.
            let cause = match situation {
                Situation::AllDeny => "access denied",
                _ => "down",
            };
            for (_, source) in &failures {
                assert!(
                    source.to_string().contains(cause),
                    "{class:?}/{situation:?}: the source error must survive, got {source}"
                );
            }
            Verdict::Outage(
                succeeded,
                failures.into_iter().map(|(idx, _)| idx).collect(),
            )
        }
        Err(other) => panic!("{class:?}/{situation:?}: unexpected error {other}"),
    }
}

#[test]
fn the_outage_table_holds_for_every_scattered_class() {
    use Situation::*;
    let situations = [AllAnswer, PlainDown, ShardDown, AllDown, AllDeny];
    let answer = || Verdict::Answer;
    let shard_down = || Verdict::Outage(2, vec![2]);
    let blackout = || Verdict::Outage(0, vec![0, 1, 2]);
    let table = [
        // `Outage::BlackoutOrShardDown`: the answer would silently omit
        // the down shard's content.
        (
            QueryKind::Search,
            [answer(), answer(), shard_down(), blackout(), answer()],
        ),
        (
            QueryKind::Localize,
            [answer(), answer(), shard_down(), blackout(), answer()],
        ),
        // `Outage::Blackout`: a down shard is absorbed.
        (
            QueryKind::ReverseGeocode,
            [answer(), answer(), answer(), blackout(), answer()],
        ),
        (
            QueryKind::Tile,
            [answer(), answer(), answer(), blackout(), answer()],
        ),
        // `Outage::Absorbed`: the coarse hit is already an answer.
        (
            QueryKind::Geocode,
            [answer(), answer(), answer(), answer(), answer()],
        ),
        // Route's own rule: every branch and every item of a round must
        // answer. Failures are indexed by round position (0 the outdoor
        // world provider, 1 the venue) or, for refused items, by batch
        // position.
        (
            QueryKind::Route,
            [
                // Both legs stitch at the one portal.
                answer(),
                // The plain server is a candidate the world provider,
                // first in plan order, beats to the outdoor leg.
                answer(),
                // The venue matrix fails on both replicas; the outdoor
                // matrix answered.
                Verdict::Outage(1, vec![1]),
                // Both branches of the candidate round fail.
                Verdict::Outage(0, vec![0, 1]),
                // The outdoor server refuses its one item, the matrix
                // whose ends it would snap.
                Verdict::Outage(0, vec![0]),
            ],
        ),
    ];
    for (class, row) in table {
        for (situation, expected) in situations.into_iter().zip(row) {
            assert_eq!(
                verdict(class, situation),
                expected,
                "{class:?} with {situation:?}"
            );
        }
    }
}

#[test]
fn a_cold_reverse_geocode_in_a_blackout_is_an_outage_not_nothing_here() {
    // No server's frame is known, so the builder declines every one
    // whose handshake failed; their failures must still count.
    assert_eq!(
        judge(QueryKind::ReverseGeocode, Situation::AllDown, false),
        Verdict::Outage(0, vec![0, 1, 2])
    );
    // A down plain server is absorbed, cold as warm.
    assert_eq!(
        judge(QueryKind::ReverseGeocode, Situation::PlainDown, false),
        Verdict::Answer
    );
}

// --------------------------------------------------------------------
// The world provider comes from the builder only.
// --------------------------------------------------------------------

#[test]
fn a_client_without_a_world_provider_refuses_geocode_and_sends_nothing() {
    let net = BackendKind::Sim.build(1);
    let client = client_seeing(&net, plain_view(vec![anchored_stub(&net, "a", honest)]));
    net.reset_stats();
    let query = GeocodeQuery {
        query: "1 Main St".into(),
        k: 3,
    };
    let err = client.geocode(query).unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err}");
    assert_eq!(net.stats().messages, 0, "nothing was sent");
}

#[test]
fn a_world_provider_refusing_the_handshake_fails_geocode_in_one_envelope() {
    // The world map answers `Geocode` but denies the `Hello` riding the
    // same envelope, so its frame is never learned: the call fails
    // without a second envelope to ask for it again.
    let net = BackendKind::Sim.build(1);
    let endpoint = net.register("mapsrv:world-map", None);
    net.set_service(
        endpoint,
        service(|item| match item {
            Request::Hello => deny(item),
            item => honest(item),
        }),
    );
    let world = Arc::new(DiscoveredServer {
        server_id: "world-map".into(),
        endpoint,
        catalogue: Catalogue::LOCALIZE_GNSS,
    });
    let client = client_seeing(&net, plain_view(vec![world]));
    net.reset_stats();
    let query = GeocodeQuery {
        query: "1 Main St".into(),
        k: 3,
    };
    let err = client.geocode(query).unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err}");
    assert_eq!(client.session().stats().batches, 1, "one envelope");
    assert_eq!(net.stats().messages, 2, "one request, one response");
}

// --------------------------------------------------------------------
// Peer bytes may make a query fail, never lie or panic.
// --------------------------------------------------------------------

#[test]
fn a_tile_echoing_another_coordinate_is_not_the_tile_asked_for() {
    let query = TileQuery {
        center: here(),
        z: 16,
    };
    let (x, y) = Mercator::tile_for(here(), 16);
    let liar = |item: &Request| match item {
        Request::GetTile { z, x, y } => blank_tile(*z, *x + 1, *y),
        other => honest(other),
    };

    // Federated: the mismatched layer contributes nothing.
    let net = BackendKind::Sim.build(1);
    let view = plain_view(vec![
        anchored_stub(&net, "honest", honest),
        anchored_stub(&net, "liar", liar),
    ]);
    let outcome = client_seeing(&net, view).tile(query).unwrap();
    assert_eq!(outcome.stats.servers_consulted, 1, "one layer composed");
    assert_eq!(outcome.tile.coord, TileCoord { z: 16, x, y });
    let net = BackendKind::Sim.build(1);
    let view = plain_view(vec![anchored_stub(&net, "liar", liar)]);
    let err = client_seeing(&net, view).tile(query).unwrap_err();
    assert!(matches!(err, ClientError::NothingDiscovered(_)), "{err}");

    // Centralized: there is no other layer, so it is a protocol error.
    let (central, world) = central_answering(liar);
    let err = central
        .tile(TileQuery {
            center: world.config.center,
            z: 16,
        })
        .unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err}");
}

#[test]
fn a_query_that_names_nothing_is_refused_before_anything_is_sent() {
    // A tile zoom deeper than the pyramid, or a NaN or negative search
    // or reverse-geocode radius — one no cell test passes, so an extent
    // would prove it disjoint from everything — on a plain view and on a
    // fleet view, and on the centralized provider.
    let net = BackendKind::Sim.build(1);
    let federated = client_seeing(&net, plain_view(vec![anchored_stub(&net, "a", honest)]));
    let shard = FleetShardView::new(
        &[CellId::from_latlng(here(), 16).unwrap().raw()],
        vec![anchored_stub(&net, "shard-r0", honest)],
    );
    let fleet = client_seeing(
        &net,
        DiscoveryView {
            servers: Vec::new(),
            fleets: vec![FleetView {
                group_id: "fleet".into(),
                catalogue: Catalogue::default(),
                shards: vec![Arc::new(shard)],
            }],
        },
    );
    let (central, world) = central_answering(honest);
    let refused = |err: ClientError| matches!(err, ClientError::InvalidQuery(_));
    for z in [MAX_ZOOM + 1, 64, u8::MAX] {
        net.reset_stats();
        assert!(refused(
            federated.tile(TileQuery { center: here(), z }).unwrap_err()
        ));
        assert_eq!(net.stats().messages, 0, "z {z}: nothing was sent");
        let sent = central.transport().stats().messages;
        let center = world.config.center;
        assert!(refused(central.tile(TileQuery { center, z }).unwrap_err()));
        assert_eq!(central.transport().stats().messages, sent, "z {z}");
    }
    let search = |location, radius_m| SearchQuery {
        query: "kiosk".into(),
        location,
        radius_m,
        k: 3,
    };
    for radius_m in [f64::NAN, -1.0] {
        for client in [&federated, &fleet] {
            net.reset_stats();
            assert!(refused(
                client.search(search(here(), radius_m)).unwrap_err()
            ));
            assert!(refused(
                reverse_geocode_at(client, here(), radius_m).unwrap_err()
            ));
            assert_eq!(net.stats().messages, 0, "r {radius_m}: nothing was sent");
        }
        let sent = central.transport().stats().messages;
        let location = world.config.center;
        assert!(refused(
            central.search(search(location, radius_m)).unwrap_err()
        ));
        let query = ReverseGeocodeQuery { location, radius_m };
        assert!(refused(central.reverse_geocode(query).unwrap_err()));
        assert_eq!(central.transport().stats().messages, sent, "r {radius_m}");
    }
    let deepest = TileQuery {
        center: here(),
        z: MAX_ZOOM,
    };
    assert!(federated.tile(deepest).is_ok());
    for client in [&federated, &fleet] {
        assert!(!search_hits(client, "kiosk", here(), 3).unwrap().is_empty());
    }
}

#[test]
fn portal_matrices_of_a_shape_not_asked_for_fail_the_route() {
    let net = BackendKind::Sim.build(1);
    // Two portals advertised, so the client asks for 1 × 2 and 2 × 1;
    // both peers answer one portal wider, the extra one the cheapest —
    // an index past the end of both of the client's portal lists.
    let portals = vec![(1, here()), (2, here())];
    let matrices = |costs: Vec<Vec<f64>>| {
        move |item: &Request| match item {
            Request::RouteMatrix { entries, exits } => Response::RouteMatrix {
                costs: costs.clone(),
                nodes: snapped(entries, exits),
            },
            other => panic!("routing stops at the matrices, got {other:?}"),
        }
    };
    let outdoor = anchored_stub(&net, "outdoor", matrices(vec![vec![9.0, 9.0, 1.0]]));
    let venue = stub(
        &net,
        "venue",
        advertisement(None, portals),
        matrices(vec![vec![9.0], vec![9.0], vec![1.0]]),
    );
    let target = FederatedSearchHit {
        server_id: venue.server_id.clone(),
        endpoint: venue.endpoint,
        result: WireSearchResult {
            element: ElementId::Node(NodeId(5)),
            pos: Point2::ZERO,
            score: 1.0,
            distance_m: 0.0,
            label: "shelf".into(),
        },
    };
    let client = client_seeing(&net, plain_view(vec![outdoor, venue]));
    let err = route_to(&client, here(), &target).unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err}");
}

#[cfg(target_pointer_width = "64")]
#[test]
fn a_result_limit_past_u32_max_saturates_on_the_wire() {
    let huge = 1usize << 32;
    let asked: Arc<Mutex<Vec<u32>>> = Arc::default();
    let recording = |asked: &Arc<Mutex<Vec<u32>>>| {
        let asked = asked.clone();
        move |item: &Request| {
            if let Request::Search { k, .. } | Request::Geocode { k, .. } = item {
                asked.lock().unwrap().push(*k);
            }
            honest(item)
        }
    };

    // Federated search and geocode refinement (the coarse step asks the
    // world provider for one hit).
    let net = BackendKind::Sim.build(1);
    let world = anchored_stub(&net, "world-map", honest);
    let refiner = anchored_stub(&net, "refiner", recording(&asked));
    let client = client_seeing(&net, plain_view(vec![world.clone(), refiner]));
    search_hits(&client, "kiosk", here(), huge).unwrap();
    geocode_hits(&client, "1 Main St", huge).unwrap();

    // Centralized search and geocode.
    let (central, world) = central_answering(recording(&asked));
    central
        .search(SearchQuery {
            query: "kiosk".into(),
            location: world.config.center,
            radius_m: 100.0,
            k: huge,
        })
        .unwrap();
    central
        .geocode(GeocodeQuery {
            query: "1 Main St".into(),
            k: huge,
        })
        .unwrap();

    assert_eq!(*asked.lock().unwrap(), [u32::MAX; 4]);
}
