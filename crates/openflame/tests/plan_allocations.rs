//! Pins the allocation cost of a **warm** `plan_query` for every
//! footprint class: with discovery, hello and coverage state cached,
//! planning a scatter reads shared (`Arc`) state — it must not
//! deep-copy the discovery view or the per-server advertisements — and
//! tests each fleet shard against extent bounds computed once, when the
//! discovery view was built, so it computes no cell geometry.
//!
//! The fixture is `fanout_tcp`'s shape on the simulator: 16 venues,
//! each a 2 × 2 fleet (content shards × replicas), queried at the city
//! centre. A 5 km search considers every fleet of the view (32 shards +
//! the outdoor server = 33 sources); a 100 m reverse geocode and a
//! 150 m localize test all 32 shards and keep few.
//!
//! Measured allocations per warm `plan_query` (median of 50 calls):
//!
//! | class, radius | deep-cloned view | per-call cell bounds | cached bounds |
//! |---|---|---|---|
//! | Search, 5 km | 1531 | 102 | 37 |
//! | ReverseGeocode, 100 m | — | 281 | 6 |
//! | Localize, 150 m | — | 267 | 5 |
//!
//! Each bound is half the per-call-bounds count. A cell bounding box
//! costs one allocation, so a return of per-call geometry shows up as
//! about one allocation per extent cell tested and fails every row; one
//! copied view alone is > 1000 allocations.

use openflame_core::{
    Deployment, DeploymentConfig, LocalizeQuery, QueryKind, ReverseGeocodeQuery, SearchQuery,
    SpatialProvider,
};
use openflame_localize::LocationCue;
use openflame_netsim::BackendKind;
use openflame_worldgen::{World, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// Counts allocations made by the current thread (the test harness and
/// other tests allocate on their own threads).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` with a const initialiser, so bumping it neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `(class, footprint radius, bound)`: each bound is half the count
/// measured with per-call cell bounds (102, 281, 267).
const WARM_PLAN_BOUNDS: [(QueryKind, f64, u64); 3] = [
    (QueryKind::Search, 5_000.0, 51),
    (QueryKind::ReverseGeocode, 100.0, 140),
    (QueryKind::Localize, 150.0, 133),
];

#[test]
fn warm_plan_query_shares_cached_state_instead_of_copying_it() {
    let dep = Deployment::build(
        World::generate(WorldConfig {
            stores: 16,
            blocks_x: 8,
            blocks_y: 8,
            products_per_store: 20,
            ..WorldConfig::default()
        }),
        DeploymentConfig {
            backend: BackendKind::Sim,
            replicas: 2,
            content_shards: 2,
            ..DeploymentConfig::default()
        },
    );
    let centre = dep.world.config.center;
    // Warm up: discovery and every consulted replica's advertisement
    // (coverage extent included), by one real call of each class.
    let product = dep.world.products[0].name.clone();
    for _ in 0..2 {
        dep.client
            .search(SearchQuery {
                query: product.clone(),
                location: centre,
                radius_m: 5_000.0,
                k: 3,
            })
            .unwrap();
    }
    dep.client
        .reverse_geocode(ReverseGeocodeQuery {
            location: centre,
            radius_m: 100.0,
        })
        .unwrap();
    dep.client
        .localize(LocalizeQuery {
            coarse: centre,
            cues: vec![LocationCue::Gnss {
                fix: centre,
                accuracy_m: 10.0,
            }],
        })
        .unwrap();

    let mut over = Vec::new();
    for (kind, radius_m, bound) in WARM_PLAN_BOUNDS {
        let plan = dep.client.plan_query(kind, centre, radius_m).unwrap();
        if kind == QueryKind::Search {
            assert!(
                plan.considered() >= 16 * 2,
                "the fixture must consider every fleet's shards, considered {}",
                plan.considered()
            );
        }
        let (mut counts, mut micros): (Vec<u64>, Vec<f64>) = (0..50)
            .map(|_| {
                let start = Instant::now();
                let before = allocations();
                let plan = dep.client.plan_query(kind, centre, radius_m).unwrap();
                let spent = allocations() - before;
                let elapsed = start.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(plan);
                (spent, elapsed)
            })
            .unzip();
        counts.sort_unstable();
        micros.sort_unstable_by(f64::total_cmp);
        let median = counts[counts.len() / 2];
        println!(
            "warm plan_query {kind:?} at {radius_m} m: median {median} allocations \
             (bound {bound}), {:.1} us; consulted {}, pruned {}",
            micros[micros.len() / 2],
            plan.consulted(),
            plan.pruned_count()
        );
        if median > bound {
            over.push(format!("{kind:?}: {median} > {bound}"));
        }
    }
    assert!(
        over.is_empty(),
        "a warm plan_query over-allocated ({}): cached discovery/hello/coverage state is \
         being deep-copied, or cell bounds are computed per call again",
        over.join("; ")
    );
}
