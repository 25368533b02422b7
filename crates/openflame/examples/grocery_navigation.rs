//! The paper's §2 example application, narrated end to end: find a
//! specific flavor of seaweed and navigate to the exact shelf, with
//! localization switching from GPS to the store's beacons at the door.
//!
//! Run with: `cargo run --release --example grocery_navigation`

use openflame_core::{
    run_grocery_scenario, Deployment, DeploymentConfig, ProviderKind, RouteQuery, SearchQuery,
    SpatialProvider,
};
use openflame_routing::turn_instructions;
use openflame_worldgen::{World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::default());
    // Find a seaweed product, like the paper's protagonist.
    let (idx, product) = world
        .products
        .iter()
        .enumerate()
        .find(|(_, p)| p.name.contains("seaweed"))
        .expect("every default world stocks seaweed somewhere");
    println!("user wants: {:?}", product.name);
    println!(
        "(stocked, unknown to the user, in {})\n",
        world.venues[product.venue].name
    );

    // ---- The federated flow, step by step.
    let dep = Deployment::build(world.clone(), DeploymentConfig::default());
    let store_hint = dep.world.venues[product.venue].hint;
    let user = store_hint.destination(225.0, 90.0);

    println!("1. discovery at the user's coarse GPS position:");
    for s in dep.client.discover(user).unwrap() {
        println!("   - {}", s.server_id);
    }

    println!("\n2. federated search for the product:");
    let query = SearchQuery {
        query: product.name.clone(),
        location: user,
        radius_m: 2_000.0,
        k: 3,
    };
    let hits = dep.client.search(query).unwrap().hits;
    for h in &hits {
        println!("   [{}] {}", h.server_id, h.result.label);
    }
    let target = hits[0].clone();

    println!("\n3. stitched route (outdoor → entrance → shelf):");
    let route = dep
        .client
        .route(RouteQuery { from: user, target })
        .unwrap()
        .route;
    for (i, leg) in route.legs.iter().enumerate() {
        println!(
            "   leg {} [{}]: {:.0} m",
            i + 1,
            leg.server_id,
            leg.route.length_m
        );
        let steps = turn_instructions(&leg.route.geometry);
        for step in steps.iter().take(6) {
            println!("      {:>6.1} m  {:?}", step.distance_m, step.maneuver);
        }
        if steps.len() > 6 {
            println!("      ... {} more steps", steps.len() - 6);
        }
    }
    println!(
        "   total: {:.0} m, {:.0} s on foot",
        route.total_length_m, route.total_cost
    );

    // ---- The comparison table (Figure 1 vs Figure 2).
    println!("\n4. architecture comparison for this errand:");
    println!(
        "   {:<24} {:>7} {:>7} {:>10} {:>12} {:>10}",
        "provider", "found", "shelf", "route (m)", "indoor loc", "err (m)"
    );
    for kind in [
        ProviderKind::CentralizedPublic,
        ProviderKind::CentralizedOmniscient,
        ProviderKind::Federated,
    ] {
        let r = run_grocery_scenario(&world, kind, idx, 42).unwrap();
        println!(
            "   {:<24} {:>7} {:>7} {:>10} {:>11.0}% {:>10}",
            format!("{kind:?}"),
            r.found_product,
            r.route_reaches_shelf,
            r.route_length_m
                .map(|l| format!("{l:.0}"))
                .unwrap_or_else(|| "-".into()),
            r.indoor_availability * 100.0,
            r.indoor_median_err_m
                .map(|e| format!("{e:.1}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!("\nThe centralized public map cannot find the product; the omniscient");
    println!("variant finds and routes to it but still cannot localize indoors;");
    println!("only the federation completes the errand (paper §2).");
}
