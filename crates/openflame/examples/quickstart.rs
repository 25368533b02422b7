//! Quickstart: generate a world, stand up the federation, and use every
//! location-based service once — through the `SpatialProvider` trait,
//! the same API a centralized deployment would serve.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Transport selection: the whole stack runs on the deterministic
//! network simulator by default; pass `--tcp` to run every DNS server,
//! map server and client over real loopback TCP sockets, or `--quic`
//! for QuicLite reliable datagrams (0-RTT resumption, retransmission)
//! — the code below does not change.
//!
//! `cargo run --release --example quickstart -- --tcp`
//! `cargo run --release --example quickstart -- --quic`

use openflame_core::{
    Deployment, DeploymentConfig, GeocodeQuery, LocalizeQuery, RouteQuery, SearchQuery,
    SpatialProvider, TileQuery,
};
use openflame_localize::LocationCue;
use openflame_netsim::BackendKind;
use openflame_worldgen::{World, WorldConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let backend = if args.iter().any(|a| a == "--tcp") {
        BackendKind::Tcp
    } else if args.iter().any(|a| a == "--quic") {
        BackendKind::QuicLite
    } else {
        BackendKind::Sim
    };
    println!(
        "wire backend: {backend:?} (pass --tcp for loopback TCP, --quic for QuicLite datagrams)"
    );

    // 1. A synthetic city: street grid, POIs, and eight grocery stores,
    //    each with a private indoor map in its own coordinate frame.
    let world = World::generate(WorldConfig::default());
    println!(
        "world: {} outdoor nodes, {} venues, {} products",
        world.outdoor.node_count(),
        world.venues.len(),
        world.products.len()
    );

    // 2. The OpenFLAME deployment: DNS hierarchy, resolver, one map
    //    server per venue plus the outdoor world-map provider, all
    //    registered in the spatial namespace.
    let dep = Deployment::build(
        world,
        DeploymentConfig {
            backend,
            ..DeploymentConfig::default()
        },
    );
    println!(
        "deployment: {} venue servers, {} DNS records in the cell zone",
        dep.venue_servers.len(),
        dep.cell_dns.record_count()
    );

    // 3. Discovery: coarse location → map servers (a DNS lookup, paper §5.1;
    //    session-cached per cell after the first hit).
    let here = dep.world.venues[0].hint;
    let servers = dep.client.discover(here).unwrap();
    println!("\ndiscovered at {here}:");
    for s in &servers {
        let catalogue: Vec<&str> = s.catalogue.names().collect();
        println!("  {}: {}", s.server_id, catalogue.join(" "));
    }

    // Everything below goes through the provider trait: swap in a
    // `CentralizedProvider` and this code does not change.
    let provider: &dyn SpatialProvider = &dep.client;

    // 4. Search (paper §5.2): one batched envelope per discovered server,
    //    gathered concurrently, rank-fused on the client.
    let product = dep.world.products[0].clone();
    let search = provider
        .search(SearchQuery {
            query: product.name.clone(),
            location: here,
            radius_m: 2_000.0,
            k: 3,
        })
        .unwrap();
    println!("\nsearch {:?}:", product.name);
    for h in &search.hits {
        println!(
            "  [{}] {} (score {:.3})",
            h.server_id, h.result.label, h.result.score
        );
    }
    println!(
        "  cost: {} msgs, {} bytes, {:.1} ms across {} servers",
        search.stats.messages,
        search.stats.bytes,
        search.stats.elapsed_us as f64 / 1000.0,
        search.stats.servers_consulted
    );

    // 5. Routing (paper §5.2): outdoor leg + indoor leg stitched at the store
    //    entrance the dynamic program picks.
    let start = here.destination(225.0, 100.0);
    let route = provider
        .route(RouteQuery {
            from: start,
            target: search.hits[0].clone(),
        })
        .unwrap();
    println!(
        "\nroute: {:.0} m across {} legs",
        route.route.total_length_m,
        route.route.legs.len()
    );
    for leg in &route.route.legs {
        println!(
            "  [{}] {:.0} m, {:.0} s ({} nodes)",
            leg.server_id,
            leg.route.length_m,
            leg.route.cost,
            leg.route.nodes.len()
        );
    }

    // 6. Localization (paper §5.2): cues go only to servers advertising the
    //    matching technology; estimates come back with provenance and,
    //    where the server is anchored, a geographic position.
    let localize = provider
        .localize(LocalizeQuery {
            coarse: start,
            cues: vec![LocationCue::Gnss {
                fix: start,
                accuracy_m: 4.0,
            }],
        })
        .unwrap();
    let best = &localize.estimates[0];
    println!(
        "\noutdoor localization: {} via {} (±{:.1} m)",
        best.server_id, best.estimate.technology, best.estimate.error_m
    );

    // 7. Geocoding: coarse hit from the world map, refined by the
    //    servers discovered at the coarse position.
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
    let geocode = provider
        .geocode(GeocodeQuery {
            query: address.clone(),
            k: 3,
        })
        .unwrap();
    println!(
        "geocode {:?}: [{}] at {}",
        address,
        geocode.hits[0].server_id,
        geocode.hits[0].geo.expect("world hits are anchored")
    );

    // 8. Tiles: composed from every provider that can draw this area.
    let tile = provider
        .tile(TileQuery {
            center: dep.world.config.center,
            z: 16,
        })
        .unwrap();
    println!(
        "tile at city center: {:.1}% painted",
        tile.tile.coverage() * 100.0
    );

    println!(
        "\ntime elapsed on the {} transport: {:.1} ms",
        dep.transport.kind(),
        dep.transport.now_us() as f64 / 1000.0
    );
    println!("messages exchanged: {}", dep.transport.stats().messages);
    let session = dep.client.session().stats();
    println!(
        "session: {} batched envelopes carrying {} requests, {} hello cache hits, {} discovery cache hits",
        session.batches, session.batched_requests, session.hello_hits, session.discovery_hits
    );
}
