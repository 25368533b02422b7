//! E5 — paper §5.2: scatter/gather search with client-side rank fusion works
//! on federated maps: recall matches a centralized index, latency grows
//! gently with fan-out.
//!
//! `cargo run --release -p openflame-bench --bin e5_search`

use openflame_bench::{header, mean, row};
use openflame_core::{
    CentralizedProvider, Deployment, DeploymentConfig, SearchQuery, SpatialProvider,
};
use openflame_netsim::BackendKind;
use openflame_worldgen::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    header(
        "E5",
        "federated search: recall and latency vs number of map servers",
    );
    row(&[
        "servers".into(),
        "fed recall@1".into(),
        "fed recall@5".into(),
        "cen recall@1".into(),
        "lat ms".into(),
        "msgs/query".into(),
    ]);
    for stores in [5usize, 10, 20, 40] {
        let world = World::generate(WorldConfig {
            stores,
            products_per_store: 15,
            blocks_x: 8,
            blocks_y: 8,
            ..WorldConfig::default()
        });
        let dep = Deployment::build(world.clone(), DeploymentConfig::default());
        let omni = CentralizedProvider::omniscient_on(BackendKind::Sim.build(2), &world);
        // Both architectures behind the same trait — the comparison is
        // the point of the experiment.
        let federated: &dyn SpatialProvider = &dep.client;
        let centralized: &dyn SpatialProvider = &omni;
        let mut rng = StdRng::seed_from_u64(31);
        let trials: Vec<usize> = (0..60)
            .map(|_| rng.gen_range(0..world.products.len()))
            .collect();
        let (mut fed1, mut fed5, mut cen1) = (0usize, 0usize, 0usize);
        let mut lat = Vec::new();
        let mut msgs = Vec::new();
        for &pi in &trials {
            let product = &world.products[pi];
            let near = world.venues[product.venue]
                .hint
                .destination(rng.gen_range(0.0..360.0), rng.gen_range(0.0..120.0));
            if let Ok(outcome) = federated.search(SearchQuery {
                query: product.name.clone(),
                location: near,
                radius_m: 2_000.0,
                k: 5,
            }) {
                lat.push(outcome.stats.elapsed_us as f64 / 1000.0);
                msgs.push(outcome.stats.messages as f64);
                if outcome
                    .hits
                    .first()
                    .map(|h| h.result.label == product.name)
                    .unwrap_or(false)
                {
                    fed1 += 1;
                }
                if outcome.hits.iter().any(|h| h.result.label == product.name) {
                    fed5 += 1;
                }
            }
            if let Ok(outcome) = centralized.search(SearchQuery {
                query: product.name.clone(),
                location: near,
                radius_m: f64::INFINITY,
                k: 1,
            }) {
                if outcome
                    .hits
                    .first()
                    .map(|h| h.result.label == product.name)
                    .unwrap_or(false)
                {
                    cen1 += 1;
                }
            }
        }
        let n = trials.len();
        row(&[
            format!("{}", stores + 1),
            format!("{:.0}%", 100.0 * fed1 as f64 / n as f64),
            format!("{:.0}%", 100.0 * fed5 as f64 / n as f64),
            format!("{:.0}%", 100.0 * cen1 as f64 / n as f64),
            format!("{:.1}", mean(&lat)),
            format!("{:.0}", mean(&msgs)),
        ]);
    }
    println!(
        "\npaper claim (paper §5.2): the client asks each discovered server and ranks\n\
         the merged results. Expected shape: federated recall@1 tracks the\n\
         centralized index (duplicate product names across stores are legal\n\
         alternates); latency and message count grow with the number of\n\
         servers in the discovery radius, not with total world size."
    );
}
