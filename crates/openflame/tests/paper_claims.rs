//! The paper's claims, asserted at small scale. One seeded test per
//! claim, named by paper section. Every assertion is on a count, a
//! simulated time or a ground-truth error, never on wall time; each
//! test prints the rows it asserts on (`-- --nocapture` shows them).
//!
//! Covered elsewhere:
//! - paper §2, Figures 1 and 2 (only the federation finishes the errand):
//!   `federation_end_to_end::scenario_comparison_federated_wins_indoors`.
//! - paper §4.1, contraction hierarchies and goal-directed search settle
//!   fewer nodes than Dijkstra: the routing unit tests
//!   `ch::tests::ch_settles_fewer_nodes_than_dijkstra`,
//!   `astar::tests::astar_settles_fewer_nodes_toward_goal` and
//!   `dijkstra::tests::bidirectional_settles_fewer_on_long_paths`.

use openflame_cells::{CellId, Region, RegionCoverer};
use openflame_core::{
    CentralizedProvider, ClientError, Deployment, DeploymentConfig, FederatedSearchHit,
    OpenFlameClient, RouteQuery, SearchQuery, SpatialProvider,
};
use openflame_dns::AuthServer;
use openflame_geo::{Affine2, LatLng, Point2};
use openflame_localize::gnss::normal_sample;
use openflame_localize::{GnssModel, ParticleFilter, RadioMap};
use openflame_mapdata::{ElementId, MapPatch, Node, NodeId, Tags};
use openflame_mapserver::naming::QUERY_LEVEL;
use openflame_mapserver::{AccessPolicy, MapServer, MapServerConfig, Principal, Rule, ServiceKind};
use openflame_netsim::BackendKind;
use openflame_worldgen::{WalkTrace, World, WorldConfig, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn world(stores: usize, products_per_store: usize) -> World {
    World::generate(WorldConfig {
        stores,
        products_per_store,
        ..WorldConfig::default()
    })
}

/// The median of a sample.
fn p50(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// A surveyed fingerprint map over a venue's floor.
fn radio_map(world: &World, venue: usize) -> RadioMap {
    RadioMap::survey(
        world.venues[venue].beacons.clone(),
        Point2::new(-5.0, -5.0),
        Point2::new(60.0, 45.0),
        2.0,
    )
}

/// A point up to `max_m` from venue `vi`'s hint, drawn from `rng`.
fn near_venue(world: &World, vi: usize, max_m: f64, rng: &mut StdRng) -> LatLng {
    world.venues[vi]
        .hint
        .destination(rng.gen_range(0.0..360.0), rng.gen_range(0.0..max_m))
}

/// Paper §5.1: the DNS "gives us access to its ubiquitous caching
/// mechanisms". A flushed discovery walks root → TLD → cell zone once,
/// its five cells sharing the root and TLD referrals, and asks the cell
/// zone for each cell; Zipf-local repeats are answered locally.
#[test]
fn s5_1_dns_caching_makes_discovery_cheap() {
    const QUERIES: usize = 200;
    let dep = Deployment::build(world(12, 40), DeploymentConfig::default());
    let discovery = dep.client.discovery();
    let resolver = discovery.resolver();
    let zipf = ZipfSampler::new(dep.world.venues.len(), 1.0);
    let mut rng = StdRng::seed_from_u64(99);
    let mut run = |flush: bool| {
        let before = resolver.stats();
        let mut latencies = Vec::with_capacity(QUERIES);
        for _ in 0..QUERIES {
            let loc = near_venue(&dep.world, zipf.sample(&mut rng), 80.0, &mut rng);
            if flush {
                resolver.flush_cache();
            }
            let t0 = dep.transport.now_us();
            let found = discovery.discover_view(loc, true).unwrap().servers;
            latencies.push((dep.transport.now_us() - t0) as f64);
            assert!(!found.is_empty(), "the city is fully covered");
        }
        let after = resolver.stats();
        let upstream = after.upstream_queries - before.upstream_queries;
        let hits = after.cache_hits - before.cache_hits;
        let median = p50(latencies);
        println!(
            "{:>8}: {:.2} upstream/discovery, {hits} cache hits, sim p50 {median:.0} us",
            if flush { "flushed" } else { "cached" },
            upstream as f64 / QUERIES as f64
        );
        (upstream, hits, median)
    };
    let (cold_upstream, cold_hits, cold_p50) = run(true);
    let (warm_upstream, _, warm_p50) = run(false);
    assert_eq!(
        cold_upstream,
        7 * QUERIES as u64,
        "one root and one TLD ask, then 5 cell answers"
    );
    assert_eq!(cold_hits, 0);
    assert!(
        warm_upstream < QUERIES as u64,
        "< 1 upstream query per discovery"
    );
    assert!(warm_p50 * 10.0 <= cold_p50, "{warm_p50} vs {cold_p50} us");
}

/// Paper §3 + paper §5.1: "the fuzziness of map boundaries does not require a
/// database that maintains precise polygonal boundaries". Finer
/// coverings cost more records and fewer false discoveries, but miss
/// users standing just past a venue's surveyed edge.
#[test]
fn s3_covering_level_trades_records_for_false_discoveries() {
    let mut rng = StdRng::seed_from_u64(5);
    let center = LatLng::new(40.4433, -79.9436).unwrap();
    // Fifty venues with 20–150 m zones scattered over the city.
    let venues: Vec<(LatLng, f64)> = (0..50)
        .map(|_| {
            let loc = center.destination(rng.gen_range(0.0..360.0), rng.gen_range(0.0..2_000.0));
            (loc, rng.gen_range(20.0..150.0))
        })
        .collect();
    let mut rows = Vec::new();
    for level in 11u8..=16 {
        let mut rng = StdRng::seed_from_u64(17);
        let (mut records, mut false_disc, mut misses, mut samples) = (0, 0, 0, 0);
        for &(loc, radius_m) in &venues {
            let cover = RegionCoverer::default().covering_at_level(
                &Region::Cap {
                    center: loc,
                    radius_m,
                },
                level,
            );
            records += 2 * cover.len(); // exact + wildcard
            for _ in 0..40 {
                samples += 1;
                // A covered point outside the venue's true zone.
                let cell = cover[rng.gen_range(0..cover.len())];
                false_disc += usize::from(cell.center().haversine_distance(loc) > radius_m);
                // A user up to 20 m past the fuzzy boundary.
                let user = loc.destination(
                    rng.gen_range(0.0..360.0),
                    radius_m + rng.gen_range(0.0..20.0),
                );
                let user = CellId::from_latlng(user, level).unwrap();
                misses += usize::from(!cover.contains(&user));
            }
        }
        println!(
            "level {level}: {records} records, {false_disc}/{samples} false discoveries, \
             {misses}/{samples} boundary misses"
        );
        rows.push((records, false_disc, misses));
    }
    for pair in rows.windows(2) {
        let ((r0, f0, m0), (r1, f1, m1)) = (pair[0], pair[1]);
        assert!(r1 >= r0 && f1 <= f0 && m1 >= m0, "{pair:?}");
    }
}

/// Paper §5.2: the client stitches per-server paths "such that the final
/// path optimizes a metric of interest". The stitched cost omits the
/// doorway seam between the outdoor portal and the venue entrance (the
/// alignment a federated client lacks, paper §3), so it sits a little under
/// the centralized optimum, never above it.
#[test]
fn s5_2_stitched_routes_track_the_centralized_optimum() {
    let world = world(8, 20);
    let dep = Deployment::build(world.clone(), DeploymentConfig::default());
    let omni = CentralizedProvider::omniscient_on(BackendKind::Sim.build(1), &world);
    let principal = Principal::anonymous();
    let city = world.city_frame();
    let mut rng = StdRng::seed_from_u64(21);
    let mut ratios = Vec::new();
    for _ in 0..30 {
        let product = &world.products[rng.gen_range(0..world.products.len())];
        let user = world.venues[product.venue]
            .hint
            .destination(rng.gen_range(0.0..360.0), rng.gen_range(60.0..300.0));
        let Some(hit) = (search_hits(&dep.client, &product.name, user, 5)
            .into_iter()
            .flatten())
        .next() else {
            continue;
        };
        // The optimum on the merged graph, to the shelf the federation
        // chose: a name stocked twice has two valid answers.
        let (Some(venue), ElementId::Node(shelf)) = (
            hit.server_id
                .strip_prefix("venue-")
                .and_then(|v| v.parse().ok()),
            hit.result.element,
        ) else {
            continue;
        };
        let Ok(outcome) = dep.client.route(RouteQuery {
            from: user,
            target: hit,
        }) else {
            continue;
        };
        // The nearest merged node may be an unrouted POI: skip the trial.
        let (start, _) = omni
            .server
            .nearest_node(&principal, city.to_local(user))
            .unwrap()
            .unwrap();
        let shelf = omni.merged_node(venue, shelf).unwrap();
        let Some(best) = omni.server.route(&principal, start, shelf).unwrap() else {
            continue;
        };
        ratios.push(outcome.route.total_cost / best.cost);
    }
    println!(
        "stitched/optimum over {} of 30 trials: {ratios:.3?}",
        ratios.len()
    );
    assert!(ratios.len() >= 5, "too few routed trials: {}", ratios.len());
    assert!(
        ratios.iter().all(|r| (0.75..=1.0).contains(r)),
        "{ratios:?}"
    );
}

/// Paper §5.2: the client asks each discovered server and ranks the merged
/// results. Source selection costs no recall: federated recall@1 equals
/// a centralized index's, while messages grow with the servers in the
/// discovery radius.
#[test]
fn s5_2_federated_search_recall_matches_centralized() {
    const TRIALS: usize = 20;
    let mut msgs_per_query = Vec::new();
    for stores in [5usize, 20] {
        let world = World::generate(WorldConfig {
            stores,
            products_per_store: 15,
            blocks_x: 8,
            blocks_y: 8,
            ..WorldConfig::default()
        });
        let dep = Deployment::build(world.clone(), DeploymentConfig::default());
        let omni = CentralizedProvider::omniscient_on(BackendKind::Sim.build(2), &world);
        let mut rng = StdRng::seed_from_u64(31);
        let (mut fed, mut cen, mut msgs) = (0, 0, 0);
        for _ in 0..TRIALS {
            let product = &world.products[rng.gen_range(0..world.products.len())];
            let near = near_venue(&world, product.venue, 120.0, &mut rng);
            let top_is_product = |provider: &dyn SpatialProvider, radius_m: f64| {
                let outcome = provider
                    .search(SearchQuery {
                        query: product.name.clone(),
                        location: near,
                        radius_m,
                        k: 5,
                    })
                    .unwrap();
                let found = outcome.hits.first().map(|h| &h.result.label) == Some(&product.name);
                (usize::from(found), outcome.stats.messages)
            };
            let (hit, messages) = top_is_product(&dep.client, 2_000.0);
            fed += hit;
            msgs += messages;
            cen += top_is_product(&omni, f64::INFINITY).0;
        }
        let per_query = msgs as f64 / TRIALS as f64;
        println!(
            "{} servers: recall@1 federated {fed}/{TRIALS}, centralized {cen}/{TRIALS}; \
             {per_query:.1} msgs/query",
            stores + 1
        );
        assert_eq!(fed, cen, "federation lost recall at {stores} stores");
        msgs_per_query.push(per_query);
    }
    assert!(msgs_per_query[1] > msgs_per_query[0], "{msgs_per_query:?}");
}

/// Paper §2: GPS availability "is limited to outdoor locations"; the venue's
/// own beacons cover indoors, fusing them with odometry does not hurt,
/// and denser beacons localize better.
#[test]
fn s2_venue_beacons_localize_where_gnss_cannot() {
    let world = World::generate(WorldConfig::default());
    let mut rng = StdRng::seed_from_u64(8);
    let gnss = GnssModel::default();
    let (mut indoor, mut gnss_indoor) = (0, 0);
    let (mut beacon_errs, mut fused_errs) = (Vec::new(), Vec::new());
    for vi in 0..world.venues.len() {
        let radio = radio_map(&world, vi);
        let mut filter: Option<ParticleFilter> = None;
        let mut prev: Option<Point2> = None;
        for sample in WalkTrace::into_venue(&world, vi, 70.0).samples {
            let Some((_, local)) = sample.venue_local.filter(|_| sample.indoors) else {
                continue;
            };
            indoor += 1;
            gnss_indoor += usize::from(gnss.sample(&mut rng, sample.geo, true).is_some());
            let cue = radio.observe(&mut rng, local, 3.0);
            let Some(est) = radio.localize(&cue, 4) else {
                continue;
            };
            beacon_errs.push(est.pos.distance(local));
            let filter = filter
                .get_or_insert_with(|| ParticleFilter::new(&mut rng, 300, est.pos, est.error_m));
            if let Some(prev) = prev {
                filter.predict(&mut rng, local - prev, 0.3);
            }
            filter.update(&mut rng, &est);
            fused_errs.push(filter.mean().distance(local));
            prev = Some(local);
        }
    }
    let beacon_fixes = beacon_errs.len();
    let (beacon_p50, fused_p50) = (p50(beacon_errs), p50(fused_errs));
    println!(
        "indoor samples {indoor}: gnss fixes {gnss_indoor}, beacon fixes {beacon_fixes}; \
         p50 beacon {beacon_p50:.1} m, fused {fused_p50:.1} m"
    );
    assert_eq!(gnss_indoor, 0);
    assert_eq!(beacon_fixes, indoor);
    assert!(fused_p50 <= beacon_p50);

    let density_p50 = |beacons: usize| {
        let world = World::generate(WorldConfig {
            beacons_per_store: beacons,
            stores: 6,
            ..WorldConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(80 + beacons as u64);
        let mut errs = Vec::new();
        for vi in 0..world.venues.len() {
            let radio = radio_map(&world, vi);
            for _ in 0..40 {
                let truth = Point2::new(rng.gen_range(2.0..30.0), rng.gen_range(2.0..18.0));
                let cue = radio.observe(&mut rng, truth, 3.0);
                errs.extend(radio.localize(&cue, 4).map(|e| e.pos.distance(truth)));
            }
        }
        let median = p50(errs);
        println!("{beacons} beacons/store: indoor p50 {median:.1} m");
        median
    };
    assert!(density_p50(12) < density_p50(2));
}

/// Paper §5.2: stitching maps in different coordinate systems "can be done
/// using manual correspondences between maps". Correspondences
/// surveyed with 0.5 m noise; the similarity fit's error falls with
/// their number toward the noise floor.
#[test]
fn s5_2_manual_correspondences_align_frames() {
    let world = World::generate(WorldConfig::default());
    let mut rng = StdRng::seed_from_u64(12);
    let mut rmse = |points: usize| {
        let mut sum = 0.0;
        for venue in &world.venues {
            let truth = venue.true_transform;
            let pairs: Vec<(Point2, Point2)> = (0..points)
                .map(|_| {
                    let src = Point2::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..25.0));
                    let noise = Point2::new(
                        normal_sample(&mut rng, 0.0, 0.5),
                        normal_sample(&mut rng, 0.0, 0.5),
                    );
                    (src, truth.apply(src) + noise)
                })
                .collect();
            let fit = Affine2::fit_similarity(&pairs).unwrap();
            // Scored on a clean grid over the venue floor.
            let squared: f64 = (0..100)
                .map(|i| {
                    let p = Point2::new((i % 10) as f64 * 4.0, (i / 10) as f64 * 2.5);
                    fit.apply(p).distance(truth.apply(p)).powi(2)
                })
                .sum();
            sum += (squared / 100.0).sqrt();
        }
        let mean = sum / world.venues.len() as f64;
        println!("{points} correspondences: mean RMSE {mean:.2} m");
        mean
    };
    let (two, six, sixteen) = (rmse(2), rmse(6), rmse(16));
    assert!(two > six, "{two} vs {six}");
    assert!(sixteen < 0.5, "{sixteen}");
}

/// Paper §5.3: federated providers "can control access to their data and
/// services in fine-grained ways". Venues 0–3 admit only staff to
/// search; an anonymous harvester gets none of their inventory from
/// the federation, and all of it from a centralized provider that
/// ingested it.
#[test]
fn s5_3_acls_hide_private_venues_from_a_harvester() {
    const PRIVATE: usize = 4;
    let mut dep = Deployment::build(world(8, 20), DeploymentConfig::default());
    let staff_only = AccessPolicy::locked().with(
        ServiceKind::Search,
        vec![
            Rule::AllowUserDomain("@staff.example".into()),
            Rule::DenyAll,
        ],
    );
    // Policies are fixed at spawn: replace the private venues' open
    // servers with locked ones.
    let city = dep.world.city_frame();
    for i in 0..PRIVATE {
        dep.transport
            .set_down(dep.venue_servers[i].endpoint(), true);
        let venue = dep.world.venues[i].clone();
        let entrance = city.from_local(dep.world.outdoor.node(venue.entrance_outdoor).unwrap().pos);
        let server = MapServer::spawn_on(
            &dep.transport,
            MapServerConfig {
                id: format!("venue-{i}"),
                map: venue.map,
                beacons: venue.beacons,
                tags: venue.tags,
                policy: staff_only.clone(),
                portals: vec![(venue.entrance_local, entrance)],
                location_hint: venue.hint,
                radius_m: venue.radius_m,
                build_ch: false,
            },
        );
        dep.register(&server);
        dep.venue_servers[i] = server;
    }
    let omni = CentralizedProvider::omniscient_on(BackendKind::Sim.build(4), &dep.world);
    let anonymous = Principal::anonymous();
    let (mut fed, mut cen, mut private) = ([0; 2], [0; 2], [0; 2]);
    for product in &dep.world.products {
        let class = usize::from(product.venue < PRIVATE);
        private[class] += 1;
        let home = format!("venue-{}", product.venue);
        let hint = dep.world.venues[product.venue].hint;
        let hits = search_hits(&dep.client, &product.name, hint, 5).unwrap();
        fed[class] += usize::from(
            hits.iter()
                .any(|h| h.result.label == product.name && h.server_id == home),
        );
        let hits = omni
            .server
            .search(&anonymous, &product.name, None, f64::INFINITY, 5)
            .unwrap();
        cen[class] += usize::from(hits.iter().any(|h| h.label == product.name));
    }
    for (name, exposed) in [("federated", fed), ("centralized", cen)] {
        println!(
            "{name}: private {}/{}, public {}/{} exposed",
            exposed[1], private[1], exposed[0], private[0]
        );
    }
    assert_eq!((fed[1], cen[1]), (0, private[1]));
    assert_eq!((fed[0], cen[0]), (private[0], private[0]));
}

/// Paper §1 + paper §3: surveying the world is "impractical for any single
/// centralized organization"; federated providers edit their own maps.
/// Every patch is searchable at once under both architectures, but a
/// venue patch rebuilds the venue's map, whose size does not depend on
/// the city's, while a centralized patch rebuilds the whole city.
#[test]
fn s1_venue_updates_stay_venue_sized() {
    const UPDATES: usize = 5;
    let patch = |server: &MapServer, id: u64, label: &str| {
        let mut patch = MapPatch::new(server.with_map(|m| m.meta().version));
        patch.upsert_nodes.push(Node::new(
            NodeId(id),
            Point2::new(5.0, 5.0),
            Tags::new().with("product", "restock").with("name", label),
        ));
        let anonymous = Principal::anonymous();
        server.apply_patch(&anonymous, &patch).unwrap();
        let hits = server
            .search(&anonymous, label, None, f64::INFINITY, 1)
            .unwrap();
        let visible = hits.first().is_some_and(|h| h.label == label);
        (usize::from(visible), server.with_map(|m| m.node_count()))
    };
    let mut rebuilt = Vec::new();
    for stores in [4usize, 12] {
        let world = world(stores, 20);
        let dep = Deployment::build(world.clone(), DeploymentConfig::default());
        let omni = CentralizedProvider::omniscient_on(BackendKind::Sim.build(9), &world);
        let (mut fed, mut cen) = ((0, 0), (0, 0));
        for (vi, server) in dep.venue_servers.iter().enumerate() {
            for u in 0..UPDATES {
                let id = 900_000 + (vi * UPDATES + u) as u64;
                let (visible, nodes) = patch(server, id, &format!("restock-v{vi}u{u}"));
                fed = (fed.0 + visible, fed.1.max(nodes));
                let (visible, nodes) = patch(&omni.server, id, &format!("central-v{vi}u{u}"));
                cen = (cen.0 + visible, cen.1.max(nodes));
            }
        }
        let total = stores * UPDATES;
        println!(
            "{stores} venues: visible federated {}/{total}, centralized {}/{total}; \
             largest map rebuilt: venue {} nodes, centralized {} nodes",
            fed.0, cen.0, fed.1, cen.1
        );
        assert_eq!((fed.0, cen.0), (total, total));
        rebuilt.push((fed.1, cen.1));
    }
    let ((venue_small, central_small), (venue_large, central_large)) = (rebuilt[0], rebuilt[1]);
    assert!(venue_large <= venue_small + UPDATES, "{rebuilt:?}");
    assert!(central_large > central_small + venue_small, "{rebuilt:?}");
}

/// Paper §5.1: repurposing the DNS inherits its "large-scale deployments and
/// infrastructure". Each covering cell is its own delegated zone, so
/// adding shard servers splits the answering load; the parent zone
/// still sees every (uncached) question once, whatever the shard count.
#[test]
fn s5_1_dns_shards_split_authoritative_load() {
    const DISCOVERIES: usize = 100;
    let world = World::generate(WorldConfig {
        stores: 24,
        blocks_x: 30,
        blocks_y: 30,
        ..WorldConfig::default()
    });
    let mut rows = Vec::new();
    for shards in [2usize, 4] {
        let dep = Deployment::build(
            world.clone(),
            DeploymentConfig {
                dns_shards: shards,
                covering_level: 14,
                ..DeploymentConfig::default()
            },
        );
        let zipf = ZipfSampler::new(dep.world.venues.len(), 0.8);
        let mut rng = StdRng::seed_from_u64(44);
        let discovery = dep.client.discovery();
        dep.transport.reset_stats();
        for _ in 0..DISCOVERIES {
            let loc = near_venue(&dep.world, zipf.sample(&mut rng), 150.0, &mut rng);
            // Every question reaches the authorities.
            discovery.resolver().flush_cache();
            discovery.discover_view(loc, true).unwrap();
        }
        let rx = |server: &AuthServer| {
            dep.transport
                .endpoint_stats(server.endpoint())
                .unwrap()
                .rx_msgs
        };
        let parent = rx(&dep.cell_dns);
        let shard_max = dep.shard_dns.iter().map(|s| rx(s)).max().unwrap();
        println!(
            "{shards} shards, {} zones: parent rx {parent}, max shard rx {shard_max}",
            dep.shard_of_cell.len()
        );
        rows.push((parent, shard_max));
    }
    assert_eq!(rows[0].0, rows[1].0, "{rows:?}");
    assert!(rows[1].1 < rows[0].1, "{rows:?}");
}

/// Paper §3 + paper §5.1, the two discovery design choices:
/// (a) boundaries are fuzzy, so the client also resolves the query
///     cell's four edge neighbours, finding venues whose covering the
///     coarse location just misses, at five lookups instead of one;
/// (b) the client queries at `QUERY_LEVEL` (14) and a wildcard only
///     matches descendants, so coverings at that level or coarser are
///     found and finer ones are not.
#[test]
fn s3_neighbour_expansion_and_the_naming_contract() {
    let world = world(12, 40);
    let found = |dep: &Deployment, loc: LatLng, vi: usize, expand: bool| {
        let servers = dep
            .client
            .discovery()
            .discover_view(loc, expand)
            .unwrap()
            .servers;
        usize::from(servers.iter().any(|s| s.server_id == format!("venue-{vi}")))
    };
    let dep_at = |covering_level: u8| {
        Deployment::build(
            world.clone(),
            DeploymentConfig {
                covering_level,
                ..DeploymentConfig::default()
            },
        )
    };

    const TRIALS: usize = 100;
    let mut recall = Vec::new();
    for expand in [false, true] {
        let dep = dep_at(14);
        let mut rng = StdRng::seed_from_u64(61);
        let hits: usize = (0..TRIALS)
            .map(|_| {
                let vi = rng.gen_range(0..world.venues.len());
                // Urban-canyon coarse location: up to 400 m off.
                found(&dep, near_venue(&world, vi, 400.0, &mut rng), vi, expand)
            })
            .sum();
        let stats = dep.client.discovery().stats();
        println!(
            "expansion {expand}: recall {hits}/{TRIALS}, {} lookups/discovery",
            stats.lookups / stats.discoveries
        );
        assert_eq!(
            stats.lookups,
            stats.discoveries * if expand { 5 } else { 1 }
        );
        recall.push(hits);
    }
    assert!(recall[1] > recall[0], "{recall:?}");

    const PROBES: usize = 50;
    for covering_level in 12u8..=16 {
        let dep = dep_at(covering_level);
        let mut rng = StdRng::seed_from_u64(62);
        let hits: usize = (0..PROBES)
            .map(|_| {
                let vi = rng.gen_range(0..world.venues.len());
                found(&dep, near_venue(&world, vi, 20.0, &mut rng), vi, true)
            })
            .sum();
        println!("covering level {covering_level}: {hits}/{PROBES} discovered");
        let expected = if covering_level <= QUERY_LEVEL {
            PROBES
        } else {
            0
        };
        assert_eq!(hits, expected, "covering level {covering_level}");
    }
}
