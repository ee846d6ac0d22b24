//! Allocation guard for the delta compile.
//!
//! A counting global allocator wraps `System`. One host subscribes to
//! one more filter on the 72-switch tree under MR, and the delta compile
//! of that burst is counted twice: once over 1 024 subscriptions and
//! once over 2 048. The subscribe dirties the host's ToR, its designated
//! agg and every core, and the cores hold every subscription. A compile
//! that copies each dirty list to diff it allocates for every rule of
//! it, so doubling the table nearly doubles its count. Handing the
//! compiler each list by reference leaves the diff and the replay
//! allocating for the rules they insert.
//!
//! The filters test two attributes over small domains, as Siena's
//! subscriptions do, so the predicate alphabet barely grows with the
//! table and neither does what the diagram itself costs to snapshot and
//! emit. Two subscribes are counted. A fresh symbol joins the top of
//! its band in O(1) (1 065 and 1 134 allocations at 1 024 and 2 048
//! subscriptions). A new second-attribute value under an existing
//! symbol (`stock == S7 and volume == 999`) adds a residual chain to
//! that symbol's member, whose tails — 32 at 1 024 subscriptions, 64 at
//! 2 048 — are unioned again, since the seed's sweep cleared the union
//! memo (1 070 and 1 143); a lo-spine walk that allocated its path
//! would make that cost grow with the square of the tails. What is left
//! to grow is the copy this guards. The counts are exact up to the
//! pool's thread handoffs, so this guards the cost model independently
//! of how noisy the host is.
//!
//! This file holds exactly one `#[test]`: the allocator counter is
//! global, so a second concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use camus_core::{Compiler, VarOrder};
use camus_lang::ast::Expr;
use camus_lang::parser::parse_expr;
use camus_routing::algorithm1::{route_hierarchical, Policy, RoutingConfig};
use camus_routing::compile::{compile_network_incremental, DeltaCache};
use camus_routing::topology::three_layer;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of the delta compile of subscribing to `filter` on a
/// tree holding `subscriptions` filters, and the lists it compiled.
fn one_subscribe(subscriptions: usize, filter: &str) -> (u64, usize) {
    let net = three_layer(8, 4, 4, 8, 4);
    assert_eq!(net.switch_count(), 72);
    let cfg = RoutingConfig::new(Policy::MemoryReduction);
    let compiler = Compiler::new().with_order(VarOrder::from_keys(["stock", "volume"]));
    let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); net.host_count()];
    for i in 0..subscriptions {
        let filter = format!("stock == S{} and volume == {}", i % 32, i / 32);
        subs[i % net.host_count()].push(parse_expr(&filter).unwrap());
    }
    let mut cache = DeltaCache::new();
    let seeded = route_hierarchical(&net, &subs, cfg);
    let previous = compile_network_incremental(&seeded, &compiler, None, Some(&mut cache)).unwrap();

    subs[0].push(parse_expr(filter).unwrap());
    let routed = route_hierarchical(&net, &subs, cfg);
    let before = ALLOCS.load(Ordering::Relaxed);
    let delta =
        compile_network_incremental(&routed, &compiler, Some(&previous), Some(&mut cache)).unwrap();
    let spent = ALLOCS.load(Ordering::Relaxed) - before;

    // The burst was a delta: most switches reused, every core replayed.
    assert!(delta.reused > 0 && delta.recompiled > 0);
    let core = net.switch_count() - 1;
    assert_eq!(routed.switch_filter_count(core), subscriptions + 1);
    assert!(!delta.switches[core].reused, "the cores hold the new filter");
    (spent, delta.distinct_compiles)
}

#[test]
fn a_delta_compile_allocates_for_the_delta_not_the_table() {
    for filter in ["stock == S99 and volume == 0", "stock == S7 and volume == 999"] {
        let (small, lists) = one_subscribe(1024, filter);
        let (large, same_lists) = one_subscribe(2048, filter);
        assert_eq!(lists, same_lists, "both bursts dirty the same switches");
        eprintln!("delta compile of `{filter}`: {small} allocations at 1024 subscriptions, {large} at 2048");
        // Doubling the table adds 1 024 rules to every core list; copying
        // a list costs at least one allocation per rule (its action), and
        // more for each filter.
        assert!(
            large <= small + small / 4,
            "`{filter}`: {large} allocations at 2048 subscriptions against {small} at 1024: the \
             delta compile grows with the table"
        );
    }
}
