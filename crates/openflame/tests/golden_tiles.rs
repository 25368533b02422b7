//! Golden tiles: what the client's `SpatialProvider::tile` returns for
//! a fixed world is pinned by content hash, identically on the
//! simulator, TCP and QuicLite, a map patch reaches the very next `GetTile`, and a tile the
//! client holds is revalidated rather than sent again.
//!
//! The hashes were captured from the per-pixel encoder and compositor
//! that preceded the cached wire form, so any change to how a tile is
//! encoded, cached, decoded or composed that alters a single pixel
//! fails here. The patch test pins cache coherence: a server's tile
//! cache lives and dies with the engines of one map version, so after an
//! `ApplyPatch` the server serves exactly the bytes a fresh server built
//! from the patched map would.

use openflame_core::{
    ClientError, Deployment, DeploymentConfig, OpenFlameClient, SpatialProvider, TileQuery,
};
use openflame_geo::{LatLng, Mercator, Point2};
use openflame_mapdata::{MapPatch, Node, NodeId, Tags};
use openflame_mapserver::protocol::{Request, Response};
use openflame_mapserver::{AccessPolicy, MapServer, MapServerConfig, Principal};
use openflame_netsim::BackendKind;
use openflame_tiles::{Tile, TileCoord};
use openflame_worldgen::{World, WorldConfig};

/// A federated tile and the number of layers composed into it.
fn tile_at(client: &OpenFlameClient, center: LatLng, z: u8) -> Result<(Tile, usize), ClientError> {
    let found = client.tile(TileQuery { center, z })?;
    Ok((found.tile, found.stats.servers_consulted))
}

const BACKENDS: [BackendKind; 3] = [BackendKind::Sim, BackendKind::Tcp, BackendKind::QuicLite];

/// `(place, zoom, FNV-1a of the composed pixels)`.
const GOLDEN: [(&str, u8, u64); 4] = [
    ("centre", 14, 0xc0bb_008b_d61a_ddc4),
    ("centre", 15, 0xe14c_4616_a1e4_e2e3),
    ("centre", 16, 0xfbe2_de05_2a74_d70e),
    ("venue", 18, 0xcb93_ddb7_6543_26fe),
];

fn world() -> World {
    World::generate(WorldConfig {
        stores: 2,
        products_per_store: 8,
        ..WorldConfig::default()
    })
}

fn deployment_on(backend: BackendKind) -> Deployment {
    Deployment::build(
        world(),
        DeploymentConfig {
            backend,
            ..DeploymentConfig::default()
        },
    )
}

fn place(world: &World, name: &str) -> LatLng {
    match name {
        "centre" => world.config.center,
        _ => world.venue_point_to_geo(0, Point2::new(20.0, 12.0)),
    }
}

/// FNV-1a over the pixels' little-endian bytes.
fn fnv1a(pixels: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in pixels.iter().flat_map(|p| p.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn federated_tiles_match_the_golden_hashes_on_every_backend() {
    for backend in BACKENDS {
        let dep = deployment_on(backend);
        for (name, z, golden) in GOLDEN {
            let (tile, _layers) = tile_at(&dep.client, place(&dep.world, name), z).unwrap();
            assert_eq!(
                fnv1a(tile.pixels()),
                golden,
                "{backend:?}: {name} tile at z{z} changed"
            );
        }
    }
}

#[test]
fn a_patch_reaches_the_next_tile_on_every_backend() {
    for backend in BACKENDS {
        let dep = deployment_on(backend);
        let outdoor = dep.outdoor_server.endpoint();
        let (x, y) = Mercator::tile_for(dep.world.config.center, 16);
        let get = Request::GetTile { z: 16, x, y };
        let call = |request: Request| {
            let mut responses = dep.client.session().batch(outdoor, vec![request]).unwrap();
            responses.pop().expect("one response per item")
        };
        let fetch = || match call(get.clone()) {
            Response::Tile { rgb, .. } => rgb,
            other => panic!("{backend:?}: expected a tile, got {other:?}"),
        };
        let before = fetch();
        assert!(before == fetch(), "{backend:?}: a cached tile is stable");

        // A café a few metres from the centre, inside the centre tile.
        let mut patch = MapPatch::new(dep.outdoor_server.with_map(|m| m.meta().version));
        patch.upsert_nodes.push(Node::new(
            NodeId(9_000_001),
            Point2::new(4.0, -3.0),
            Tags::new().with("amenity", "cafe"),
        ));
        assert!(
            matches!(
                call(Request::ApplyPatch { patch }),
                Response::PatchApplied { .. }
            ),
            "{backend:?}: patch refused"
        );
        let after = fetch();
        assert!(
            before != after,
            "{backend:?}: the patch must reach the tile"
        );

        let fresh = MapServer::spawn_on(
            &BackendKind::Sim.build(1),
            MapServerConfig {
                id: "fresh".into(),
                map: dep.outdoor_server.with_map(|m| m.clone()),
                beacons: Vec::new(),
                tags: Default::default(),
                policy: AccessPolicy::open(),
                portals: Vec::new(),
                location_hint: dep.world.config.center,
                radius_m: 0.0,
                build_ch: false,
            },
        );
        let Response::Tile { rgb: expected, .. } = fresh.dispatch(&Principal::anonymous(), get)
        else {
            panic!("{backend:?}: the fresh server must render the tile");
        };
        assert!(
            after == expected,
            "{backend:?}: a patched server serves what a fresh server renders"
        );
    }
}

/// Tile revalidation (spec §8), through `SpatialProvider::tile`: a
/// second fetch of a coordinate is answered `TileUnchanged`, with the
/// same pixels for a few bytes; after an `ApplyPatch` the next fetch paints exactly what
/// a fresh server built from the patched map renders; and after
/// `Session::invalidate` the fetch is a plain `GetTile`, answered with
/// the whole tile although nothing changed.
#[test]
fn a_held_layer_is_revalidated_not_resent_on_every_backend() {
    for backend in BACKENDS {
        let dep = deployment_on(backend);
        let outdoor = dep.outdoor_server.endpoint();
        let centre = dep.world.config.center;
        let (x, y) = Mercator::tile_for(centre, 16);
        // The tile, and the bytes the outdoor server sent for it.
        let fetch = || {
            let sent = || dep.transport.endpoint_stats(outdoor).unwrap().tx_bytes;
            let before = sent();
            let (tile, layers) = tile_at(&dep.client, centre, 16).unwrap();
            assert_eq!(layers, 1, "{backend:?}: the outdoor map is the one layer");
            (tile, sent() - before)
        };
        let (first, first_bytes) = fetch();
        let (second, second_bytes) = fetch();
        assert_eq!(
            first, second,
            "{backend:?}: an unchanged layer paints alike"
        );
        assert!(
            second_bytes < 64,
            "{backend:?}: unchanged is {second_bytes} B, the tile {first_bytes} B"
        );

        // A café a few metres from the centre, inside the centre tile.
        let mut patch = MapPatch::new(dep.outdoor_server.with_map(|m| m.meta().version));
        patch.upsert_nodes.push(Node::new(
            NodeId(9_000_001),
            Point2::new(4.0, -3.0),
            Tags::new().with("amenity", "cafe"),
        ));
        let applied = dep
            .client
            .session()
            .batch(outdoor, vec![Request::ApplyPatch { patch }])
            .unwrap();
        assert!(
            matches!(applied[..], [Response::PatchApplied { .. }]),
            "{backend:?}: patch refused"
        );
        let (patched, patched_bytes) = fetch();
        let fresh = MapServer::spawn_on(
            &BackendKind::Sim.build(1),
            MapServerConfig {
                id: "fresh".into(),
                map: dep.outdoor_server.with_map(|m| m.clone()),
                beacons: Vec::new(),
                tags: Default::default(),
                policy: AccessPolicy::open(),
                portals: Vec::new(),
                location_hint: centre,
                radius_m: 0.0,
                build_ch: false,
            },
        );
        let coord = TileCoord { z: 16, x, y };
        let runs = fresh.tile(&Principal::anonymous(), coord).unwrap();
        assert_eq!(
            patched,
            Tile::from_runs(coord, &runs),
            "{backend:?}: a patched layer paints what a fresh server renders"
        );
        assert_ne!(patched, second, "{backend:?}: the patch reached the tile");
        assert!(patched_bytes > runs.as_bytes().len() as u64, "{backend:?}");

        // Nothing held: the whole tile comes back, though unchanged.
        dep.client.session().invalidate();
        let (cold, cold_bytes) = fetch();
        assert_eq!(cold, patched, "{backend:?}");
        assert!(cold_bytes > runs.as_bytes().len() as u64, "{backend:?}");
        // And the layer is held again.
        assert!(fetch().1 < 64, "{backend:?}");
    }
}
