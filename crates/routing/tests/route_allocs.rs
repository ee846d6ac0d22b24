//! Allocation budget for Algorithm 1.
//!
//! A counting global allocator wraps `System`; routing 1 024
//! two-predicate subscriptions over the 72-switch tree under MR must
//! stay within 32 heap allocations per subscription. Every filter is
//! cloned once (into the pool) and every set is a vector of ids, so
//! the count is a small multiple of the distinct filters; a router
//! that copies expressions from level to level blows the budget by an
//! order of magnitude. The count is exact and repeatable, so this
//! guards the cost model independently of how noisy the host is.
//!
//! This file holds exactly one `#[test]`: the allocator counter is
//! global, so a second concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use camus_lang::ast::Expr;
use camus_lang::parser::parse_expr;
use camus_routing::algorithm1::{route_hierarchical, Policy, RoutingConfig};
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

#[test]
fn routing_stays_within_its_allocation_budget() {
    const SUBS: usize = 1024;
    const BUDGET_PER_SUB: u64 = 32;

    let net = three_layer(8, 4, 4, 8, 4);
    assert_eq!(net.switch_count(), 72);
    let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); net.host_count()];
    for i in 0..SUBS {
        let filter = parse_expr(&format!("stock == S{} and price > {}", i % 97, i)).unwrap();
        subs[i % net.host_count()].push(filter);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    let routed = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::MemoryReduction));
    let spent = ALLOCS.load(Ordering::Relaxed) - before;

    // Every subscription reaches every core, so the work was real.
    let core = net.switch_count() - 1;
    assert_eq!(routed.switch_filter_count(core), SUBS);
    assert!(
        spent <= BUDGET_PER_SUB * SUBS as u64,
        "{spent} allocations for {SUBS} subscriptions ({:.1} per subscription, budget {BUDGET_PER_SUB})",
        spent as f64 / SUBS as f64
    );
    eprintln!("route: {spent} allocations, {:.1} per subscription", spent as f64 / SUBS as f64);
}
