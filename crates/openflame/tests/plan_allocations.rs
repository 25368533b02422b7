//! Pins the allocation cost of a **warm** `plan_query`: with discovery,
//! hello and coverage state cached, planning a scatter reads shared
//! (`Arc`) state and must not deep-copy the discovery view or the
//! per-server advertisements.
//!
//! The fixture is `fanout_tcp`'s shape on the simulator: 16 venues,
//! each a 2 × 2 fleet (content shards × replicas), queried at the city
//! centre with a 5 km search radius, so every fleet of the view is
//! considered (32 shards + the outdoor server = 33 sources).
//!
//! Measured allocations per warm `plan_query` (median of 50 calls):
//!
//! - parent commit (deep-cloned `DiscoveryView`, one `HelloInfo` and one
//!   coverage-summary clone per considered source): **1531**
//! - this commit (borrowed view, `Arc` targets): **102**
//!
//! The bound below is half the parent's count, as the issue asks; the
//! headroom over the measured 102 absorbs `HashMap`/`Vec` growth policy
//! differences between toolchains, not a return of the deep copies
//! (one copied view alone is > 1000 allocations).

use openflame_core::{Deployment, DeploymentConfig, QueryKind, SearchQuery, SpatialProvider};
use openflame_netsim::BackendKind;
use openflame_worldgen::{World, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Half of the parent commit's 1531 allocations per warm plan.
const MAX_ALLOCATIONS_PER_WARM_PLAN: u64 = 765;

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
    let radius_m = 5_000.0;
    // Warm up: discovery and every consulted replica's advertisement
    // (coverage summary included).
    let product = dep.world.products[0].name.clone();
    for _ in 0..2 {
        dep.client
            .search(SearchQuery {
                query: product.clone(),
                location: centre,
                radius_m,
                k: 3,
            })
            .unwrap();
    }
    let plan = dep
        .client
        .plan_query(QueryKind::Search, centre, radius_m)
        .unwrap();
    assert!(
        plan.considered() >= 16 * 2,
        "the fixture must consider every fleet's shards, considered {}",
        plan.considered()
    );

    let mut counts: Vec<u64> = (0..50)
        .map(|_| {
            let before = allocations();
            let plan = dep
                .client
                .plan_query(QueryKind::Search, centre, radius_m)
                .unwrap();
            let spent = allocations() - before;
            std::hint::black_box(plan);
            spent
        })
        .collect();
    counts.sort_unstable();
    let median = counts[counts.len() / 2];
    assert!(
        median <= MAX_ALLOCATIONS_PER_WARM_PLAN,
        "a warm plan_query made {median} allocations (bound {MAX_ALLOCATIONS_PER_WARM_PLAN}): \
         cached discovery/hello/coverage state is being deep-copied again"
    );
}
