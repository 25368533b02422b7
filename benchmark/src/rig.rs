//! Workload definitions and set-up: the fixed world, the deployment,
//! the clients and the warm-up pass.

use crate::queries::{raw_request, raw_response_ok, Ground, RawTarget, TILE_ZOOM};
use crate::spans::Tracer;
use crate::stats::fnv1a;
use crate::trace::{Class, Mix, Op, Shape, VenuePick};
use crate::traced::TracedTransport;
use openflame_codec::{from_bytes, to_bytes};
use openflame_core::{
    Deployment, DeploymentConfig, FederatedSearchHit, OpenFlameClient, SearchQuery,
    SpatialProvider, TileQuery,
};
use openflame_geo::{LatLng, LocalFrame, Mercator};
use openflame_mapserver::protocol::{Envelope, Request, Response};
use openflame_mapserver::{MapServer, Principal};
use openflame_netsim::{
    BackendKind, EndpointId, NetError, QuicLiteTransport, TcpTransport, Transport,
};
use openflame_tiles::TileCoord;
use openflame_worldgen::{World, WorldConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Seed of every workload's city. The city is a fixture: `--seed`
/// draws the queries, not the streets, so that runs with different
/// seeds measure the same deployment.
const WORLD_SEED: u64 = 42;
/// Query points per venue (or around the city centre).
const POINTS: usize = 4;
/// Route destinations per venue, all resolved to search hits in warm-up.
const ROUTE_POOL: usize = 8;

/// Which driver runs a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Closed loop through `&dyn SpatialProvider`, caches warm.
    Closed,
    /// Closed loop, one client, every cache dropped before every call.
    Cold,
    /// Closed-loop reader beside a fixed-rate wire patch writer.
    UpdateMix,
    /// Open loop of raw envelopes over a rate ladder.
    Open,
}

/// One workload: the name is normative (later issues cite it).
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver holds its metrics to
    /// their bounds. The other workloads run and check their answers
    /// like these, but this box cannot hold their figures steady.
    pub gated: bool,
    pub driver: Driver,
    pub backend: BackendKind,
    pub world: WorldConfig,
    pub replicas: usize,
    pub content_shards: usize,
    pub build_ch: bool,
    pub mix: Mix,
    pub pick: VenuePick,
    /// Closed-loop client threads (capped at the core count).
    pub clients: usize,
    pub search_radius_m: f64,
    /// Queries stand at the city centre instead of near their venue.
    pub at_centre: bool,
}

fn world(stores: usize, blocks: usize, products_per_store: usize) -> WorldConfig {
    WorldConfig {
        seed: WORLD_SEED,
        stores,
        blocks_x: blocks,
        blocks_y: blocks,
        products_per_store,
        ..WorldConfig::default()
    }
}

/// The six workloads, in the order the full command runs them.
pub fn specs() -> Vec<Spec> {
    let warm = Spec {
        name: "warm_tcp",
        why: "steady state over tcp, warm caches, uniform six-class mix: session, plan, codec, tcp and the engines all sit on the blocking path",
        gated: true,
        driver: Driver::Closed,
        backend: BackendKind::Tcp,
        world: world(8, 8, 20),
        replicas: 1,
        content_shards: 1,
        build_ch: false,
        mix: [1; 6],
        pick: VenuePick::Uniform,
        clients: 2,
        search_radius_m: 2_000.0,
        at_centre: false,
    };
    vec![
        warm.clone(),
        Spec {
            name: "warm_quiclite",
            why: "the warm_tcp trace on quiclite: everything above netsim is the same, so any difference is the datagram binding",
            gated: false,
            backend: BackendKind::QuicLite,
            ..warm.clone()
        },
        Spec {
            name: "cold_sim",
            why: "first query in a new area: every cache dropped before every call on sim, so dns walks, coverings and hellos dominate and counters repeat",
            driver: Driver::Cold,
            backend: BackendKind::Sim,
            world: world(32, 12, 20),
            clients: 1,
            ..warm.clone()
        },
        Spec {
            name: "fanout_tcp",
            why: "16 venues as 2x2 fleets queried at the centre: a call waits for many parallel branches, so the slowest branch and pruning set latency",
            world: world(16, 8, 20),
            replicas: 2,
            content_shards: 2,
            // search : tile : rgeocode = 2 : 1 : 1 carries the fan-out;
            // the other classes ride along so every latency is measured.
            mix: [4, 1, 1, 2, 1, 2],
            search_radius_m: 5_000.0,
            at_centre: true,
            ..warm.clone()
        },
        Spec {
            name: "update_mix_tcp",
            why: "reads beside 50 wire patches a second that rebuild engines under the write lock: a gain for reads that costs writes shows",
            gated: false,
            driver: Driver::UpdateMix,
            world: world(8, 8, 300),
            build_ch: true,
            mix: [3, 3, 3, 1, 1, 1],
            clients: 1,
            ..warm.clone()
        },
        Spec {
            name: "open_tcp",
            why: "open-loop Poisson/Zipf raw envelopes straight at the servers: per-message tcp, codec and dispatch cost, bypassing core and dns",
            gated: false,
            driver: Driver::Open,
            world: world(4, 6, 40),
            mix: [7, 4, 5, 2, 1, 1],
            pick: VenuePick::Zipf,
            ..warm
        },
    ]
}

pub fn spec(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

/// One closed-loop client with the search hits its routes target.
pub struct Client {
    pub client: OpenFlameClient,
    pub hits: HashMap<usize, FederatedSearchHit>,
}

/// A built and warmed deployment, ready to measure.
pub struct Rig {
    pub spec: Spec,
    /// What everything runs on: the backend, or the traced wrapper.
    pub transport: Arc<dyn Transport>,
    /// The concrete backend, for its own counters.
    pub tcp: Option<TcpTransport>,
    pub quic: Option<QuicLiteTransport>,
    pub dep: Deployment,
    pub sites: Vec<Vec<LatLng>>,
    pub clients: Vec<Client>,
    /// Client endpoints of the open loop (empty for provider workloads).
    pub raw_clients: Vec<EndpointId>,
    pub tile_hashes: HashMap<TileCoord, u64>,
}

/// Raw client endpoints of the open loop: logical sessions are labels
/// on envelopes, not connections.
const RAW_CLIENTS: usize = 2;

/// One raw request/response exchange with one server.
pub fn raw_call(
    transport: &dyn Transport,
    from: EndpointId,
    to: EndpointId,
    request: Request,
) -> Result<Response, NetError> {
    let envelope = Envelope {
        principal: Principal::anonymous(),
        request,
    };
    let transfer = transport.call(from, to, to_bytes(&envelope).to_vec())?;
    from_bytes::<Response>(&transfer.payload).map_err(|e| NetError::Service(e.to_string()))
}

impl Rig {
    pub fn ground(&self) -> Ground<'_> {
        Ground {
            world: &self.dep.world,
            sites: &self.sites,
            search_radius_m: self.spec.search_radius_m,
            tile_hashes: &self.tile_hashes,
        }
    }

    pub fn shape(&self) -> Shape {
        let mut stocked = vec![Vec::new(); self.dep.world.venues.len()];
        for (idx, product) in self.dep.world.products.iter().enumerate() {
            stocked[product.venue].push(idx);
        }
        Shape {
            stocked,
            points: POINTS,
            route_pool: ROUTE_POOL,
        }
    }

    /// The outdoor server's map frame (raw positions are in it).
    pub fn outdoor_frame(&self) -> LocalFrame {
        LocalFrame::new(
            self.dep
                .outdoor_server
                .hello()
                .anchor
                .expect("the outdoor map is anchored"),
        )
    }

    /// The endpoint a raw op is sent to.
    pub fn raw_endpoint(&self, target: RawTarget, venue: usize) -> EndpointId {
        match target {
            RawTarget::Venue => self.venue_server(venue).endpoint(),
            RawTarget::Outdoor => self.dep.outdoor_server.endpoint(),
        }
    }

    /// Every map server of the deployment, outdoor last.
    pub fn map_servers(&self) -> Vec<Arc<MapServer>> {
        self.dep
            .venue_servers
            .iter()
            .cloned()
            .chain(self.dep.fleet_servers.iter().map(|m| m.server.clone()))
            .chain([self.dep.outdoor_server.clone()])
            .collect()
    }

    /// A server holding venue `venue`'s map (any fleet member does:
    /// only searchable content is sharded).
    pub fn venue_server(&self, venue: usize) -> Arc<MapServer> {
        match self.dep.venue_servers.get(venue) {
            Some(server) => server.clone(),
            None => self
                .dep
                .fleet_servers
                .iter()
                .find(|m| m.venue == venue)
                .expect("every venue has a fleet")
                .server
                .clone(),
        }
    }
}

fn sites(spec: &Spec, world: &World) -> Vec<Vec<LatLng>> {
    world
        .venues
        .iter()
        .map(|venue| {
            let (anchor, reach_m) = if spec.at_centre {
                (world.config.center, 30.0)
            } else {
                (venue.hint, 60.0)
            };
            (0..POINTS)
                .map(|i| anchor.destination(45.0 + 90.0 * i as f64, reach_m))
                .collect()
        })
        .collect()
}

/// Builds the deployment for `spec` on a fresh backend (wrapped in a
/// [`TracedTransport`] when `tracer` is given) and warms it: every
/// client touches every venue and point with every class, so the
/// measured window starts with discovery, hello, coverage, tile and
/// connection state in place.
pub fn build(spec: &Spec, seed: u64, tracer: Option<&Arc<Tracer>>) -> Rig {
    let (backend, tcp, quic): (Arc<dyn Transport>, _, _) = match spec.backend {
        BackendKind::Sim => (BackendKind::Sim.build(seed), None, None),
        BackendKind::Tcp => {
            let tcp = TcpTransport::new(seed);
            (Arc::new(tcp.clone()), Some(tcp), None)
        }
        BackendKind::QuicLite => {
            let quic = QuicLiteTransport::new(seed);
            (Arc::new(quic.clone()), None, Some(quic))
        }
    };
    let transport: Arc<dyn Transport> = match tracer {
        Some(tracer) => Arc::new(TracedTransport::new(backend, tracer.clone())),
        None => backend,
    };
    let dep = Deployment::build_on(
        transport.clone(),
        World::generate(spec.world.clone()),
        DeploymentConfig {
            net_seed: seed,
            backend: spec.backend,
            build_ch: spec.build_ch,
            replicas: spec.replicas,
            content_shards: spec.content_shards,
            ..DeploymentConfig::default()
        },
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = if spec.driver == Driver::Open {
        0
    } else {
        spec.clients.min(cores)
    };
    let mut rig = Rig {
        spec: spec.clone(),
        transport,
        tcp,
        quic,
        sites: sites(spec, &dep.world),
        clients: (0..clients)
            .map(|_| Client {
                client: OpenFlameClient::builder()
                    .principal(Principal::anonymous())
                    .world_provider(dep.outdoor_server.endpoint())
                    .build_on(dep.transport.clone(), dep.resolver.clone()),
                hits: HashMap::new(),
            })
            .collect(),
        raw_clients: if spec.driver == Driver::Open {
            (0..RAW_CLIENTS)
                .map(|i| dep.transport.register(&format!("raw-client-{i}"), None))
                .collect()
        } else {
            Vec::new()
        },
        dep,
        tile_hashes: HashMap::new(),
    };
    if spec.driver == Driver::Open {
        warm_up_raw(&mut rig);
    } else {
        warm_up(&mut rig);
    }
    rig
}

/// The warm-up pass. Panics when the deployment cannot answer: a world
/// the checks do not hold on is a broken benchmark, not a slow one.
fn warm_up(rig: &mut Rig) {
    let shape = rig.shape();
    // The first fetch of every tile coordinate fixes its expected
    // content (and renders it: servers cache rendered tiles).
    let mut tile_points: BTreeMap<TileCoord, LatLng> = BTreeMap::new();
    for &point in rig.sites.iter().flatten() {
        let (x, y) = Mercator::tile_for(point, TILE_ZOOM);
        let coord = TileCoord { z: TILE_ZOOM, x, y };
        tile_points.entry(coord).or_insert(point);
    }
    if let Some(first) = rig.clients.first() {
        for (coord, center) in tile_points {
            let query = TileQuery {
                center,
                z: TILE_ZOOM,
            };
            let tile = first.client.tile(query).expect("warm-up tile").tile;
            assert_eq!(tile.coord, coord);
            rig.tile_hashes.insert(coord, fnv1a(tile.pixels()));
        }
    }
    // Route targets: the search hit of every product in the pool.
    for i in 0..rig.clients.len() {
        let mut hits = HashMap::new();
        for (venue, points) in rig.sites.iter().enumerate() {
            for &product in shape.stocked[venue].iter().take(ROUTE_POOL) {
                let outcome = rig.clients[i]
                    .client
                    .search(SearchQuery {
                        query: rig.dep.world.products[product].name.clone(),
                        location: points[0],
                        radius_m: rig.spec.search_radius_m,
                        k: 5,
                    })
                    .expect("warm-up search");
                let hit = outcome.hits.into_iter().next().expect("warm-up hit");
                hits.insert(product, hit);
            }
        }
        rig.clients[i].hits = hits;
    }
    // Every client: one checked op of every class at every venue, and a
    // search from each further point (discovery is cached per cell).
    let ground = rig.ground();
    for client in &rig.clients {
        for venue in 0..rig.sites.len() {
            for point in 0..POINTS {
                let classes: &[Class] = if point == 0 {
                    &Class::ALL
                } else {
                    &[Class::Search]
                };
                for &class in classes {
                    let op = Op {
                        class,
                        venue,
                        product: shape.stocked[venue][0],
                        point,
                        fix_offset: (0.0, 5.0),
                    };
                    let query = ground
                        .query(&client.hits, &op)
                        .expect("route target resolved");
                    let answer = query
                        .issue(&client.client)
                        .unwrap_or_else(|e| panic!("warm-up {} failed: {e}", class.name()));
                    assert!(
                        ground.check(&client.hits, &op, &answer),
                        "warm-up {} at venue {venue} returned a wrong answer",
                        class.name()
                    );
                }
            }
        }
    }
}

/// The open loop's warm-up: every raw client sends one checked op of
/// every class to every venue and point (connections dialled, tiles
/// rendered and their first content recorded).
fn warm_up_raw(rig: &mut Rig) {
    let shape = rig.shape();
    let frame = rig.outdoor_frame();
    for &from in &rig.raw_clients {
        for venue in 0..rig.sites.len() {
            for point in 0..POINTS {
                for class in Class::ALL {
                    let op = Op {
                        class,
                        venue,
                        product: shape.stocked[venue][0],
                        point,
                        fix_offset: (0.0, 5.0),
                    };
                    let (target, request) = raw_request(&rig.ground(), &frame, &op);
                    let to = rig.raw_endpoint(target, venue);
                    let response = raw_call(rig.transport.as_ref(), from, to, request)
                        .unwrap_or_else(|e| panic!("warm-up raw {} failed: {e}", class.name()));
                    if let Response::Tile { z, x, y, rgb } = &response {
                        let coord = TileCoord {
                            z: *z,
                            x: *x,
                            y: *y,
                        };
                        rig.tile_hashes.entry(coord).or_insert_with(|| fnv1a(rgb));
                    }
                    assert!(
                        raw_response_ok(&rig.ground(), &frame, &op, &response),
                        "warm-up raw {} at venue {venue} returned a wrong answer",
                        class.name()
                    );
                }
            }
        }
    }
}
