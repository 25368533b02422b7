//! Pins the allocation cost of a **cold** `discover_view`: with the
//! resolver flushed, one discovery walks the DNS from the root for the
//! query cell and its four edge neighbours (five lookups, one `MAPSRV`
//! question per cell, the root and TLD referrals shared by the batch:
//! 7 upstream queries), and every hop handles
//! 17-label names. A DNS name is one shared buffer, so cloning a name,
//! taking its parent and walking its ancestors in a zone lookup
//! allocate nothing. An answer names its owner once per run of records
//! (spec §9.5), so decoding it builds one name buffer per run, and the
//! resolver keeps that one decoded copy, shared with the caller, in its
//! cache entry. A record's service catalogue is one varint of bits
//! (spec §9.1), so decoding and absorbing it copies no string.
//!
//! The fixture is `cold_sim`'s world on the simulator: 32 stores on a
//! 12 × 12 block grid, 20 products each. Each venue's hint is
//! discovered once, from a flushed resolver.
//!
//! Measured allocations per cold `discover_view` (median over the 32
//! venues):
//!
//! - labels as a `Vec<String>` (every clone, parent and child copied
//!   every label), two questions per cell: **15 498**
//! - one shared buffer per name, two questions per cell: **2 713**
//! - one shared buffer per name, one question per cell: **2 394**
//! - owner runs, one name buffer per run: **2 124**
//! - owner runs, and the answer shared by `Arc` with the resolver cache
//!   instead of copied into it: **1 841**
//! - the root and TLD referrals asked once per batch, not once per
//!   lookup: **1 532**
//! - each record's catalogue one varint of bits, not a list of service
//!   strings: **489**
//!
//! The bound sits between the first and the rest with room for
//! toolchain growth policy; a return of per-label copies lands far
//! above it. The upstream count pins one question per cell.
//!
//! Measured DNS response bytes per cold `discover_view` (median, the
//! bytes every DNS server sent during the walk): **4 634** with
//! catalogues as strings, **1 207** as bits. The bound sits between
//! the two, so catalogue strings coming back fail it.

use openflame_core::{Deployment, DeploymentConfig};
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

/// A third of the label-vector count (15 498), well clear of the 1 841
/// shared names, owner runs and shared answers measure.
const MAX_ALLOCATIONS_PER_COLD_DISCOVERY: u64 = 5_000;

/// Between the 4 634 bytes of string catalogues and the 1 207 of bits.
const MAX_DNS_RESPONSE_BYTES_PER_COLD_DISCOVERY: u64 = 2_500;

/// One root referral and one TLD referral, shared by the batch's five
/// lookups, then one answer per lookup (one `MAPSRV` question per cell;
/// its answer carries the cell's `FLEETSRV` records, spec §9.1).
const UPSTREAM_PER_COLD_DISCOVERY: u64 = 7;

#[test]
fn cold_discovery_shares_name_buffers_instead_of_copying_labels() {
    let dep = Deployment::build(
        World::generate(WorldConfig {
            seed: 42,
            stores: 32,
            blocks_x: 12,
            blocks_y: 12,
            products_per_store: 20,
            ..WorldConfig::default()
        }),
        DeploymentConfig {
            backend: BackendKind::Sim,
            ..DeploymentConfig::default()
        },
    );
    let discovery = dep.client.discovery();
    // What every DNS server has sent: the answers of the walk.
    let dns_response_bytes = || {
        [&dep.root_dns, &dep.tld_dns, &dep.cell_dns]
            .into_iter()
            .chain(&dep.shard_dns)
            .map(|server| {
                dep.transport
                    .endpoint_stats(server.endpoint())
                    .unwrap()
                    .tx_bytes
            })
            .sum::<u64>()
    };
    let (mut counts, mut bytes): (Vec<u64>, Vec<u64>) = dep
        .world
        .venues
        .iter()
        .map(|venue| {
            dep.resolver.flush_cache();
            let upstream = dep.resolver.stats().upstream_queries;
            let sent = dns_response_bytes();
            let before = allocations();
            let view = discovery.discover_view(venue.hint, true).unwrap();
            let spent = allocations() - before;
            std::hint::black_box(view);
            assert_eq!(
                dep.resolver.stats().upstream_queries - upstream,
                UPSTREAM_PER_COLD_DISCOVERY,
                "the count must measure a full cold walk of the batch"
            );
            (spent, dns_response_bytes() - sent)
        })
        .unzip();
    counts.sort_unstable();
    bytes.sort_unstable();
    let median = counts[counts.len() / 2];
    let median_bytes = bytes[bytes.len() / 2];
    println!(
        "cold discover_view allocations: median {median}, range {}-{} over {} venues",
        counts[0],
        counts[counts.len() - 1],
        counts.len()
    );
    println!(
        "cold discover_view DNS response bytes: median {median_bytes}, range {}-{}",
        bytes[0],
        bytes[bytes.len() - 1]
    );
    assert!(
        median <= MAX_ALLOCATIONS_PER_COLD_DISCOVERY,
        "a cold discover_view made {median} allocations (bound \
         {MAX_ALLOCATIONS_PER_COLD_DISCOVERY}): DNS names are copying their labels again"
    );
    assert!(
        median_bytes <= MAX_DNS_RESPONSE_BYTES_PER_COLD_DISCOVERY,
        "a cold discover_view received {median_bytes} DNS response bytes (bound \
         {MAX_DNS_RESPONSE_BYTES_PER_COLD_DISCOVERY}): catalogues are travelling as strings again"
    );
}
