//! Allocation guard for the per-batch bookkeeping of the service.
//!
//! A counting global allocator wraps `System`. One net-zero batch — a
//! subscribe and an unsubscribe of the same filter inside one window —
//! goes through `IntakeService` and `RouteCompileService::handle`, once
//! with 1 024 and once with 16 384 subscriptions held. A batch carries
//! its requests only, and the compile stage finds a noop from the net
//! edits since its last compile, so both runs must allocate exactly as
//! often. Copying the target state into every batch, or diffing whole
//! states, allocates in proportion to the subscriptions held.
//!
//! This file holds exactly one `#[test]`: the allocator counter is
//! global, so a second concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use camus_core::statics::compile_static;
use camus_lang::ast::Expr;
use camus_lang::parser::parse_expr;
use camus_lang::spec::itch_spec;
use camus_net::controller::Controller;
use camus_routing::algorithm1::{Policy, RoutingConfig};
use camus_routing::topology::paper_fat_tree;
use camus_service::{
    pipe, BatchPolicy, Ctl, IntakeService, RequestOp, RouteCompileService, Service, SubRequest,
};
use camus_telemetry::{Gauge, MetricsRegistry};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic only.
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

/// Allocations made while one net-zero batch crosses intake and the
/// compile stage, with `held` subscriptions spread over the hosts.
fn net_zero_batch_allocs(held: usize) -> u64 {
    let net = paper_fat_tree();
    let hosts = net.host_count();
    let ctrl = Controller::new(
        compile_static(&itch_spec()).unwrap(),
        RoutingConfig::new(Policy::TrafficReduction),
    );
    // A noop batch never routes or compiles, so the deployed compile
    // may stay empty while the stages hold `held` subscriptions.
    let deployment = ctrl.deploy(net.clone(), &vec![Vec::new(); hosts]).unwrap();
    let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); hosts];
    for i in 0..held {
        subs[i % hosts].push(parse_expr(&format!("price > {i}")).unwrap());
    }

    let reg = MetricsRegistry::new();
    let inflight = Arc::new(Gauge::new());
    let (batch_tx, batch_rx) = pipe(&reg, "compile");
    let (txn_tx, txn_rx) = pipe(&reg, "deploy");
    let mut intake = IntakeService::new(BatchPolicy::adaptive(), subs.clone(), inflight.clone());
    let mut compile = RouteCompileService::new(
        ctrl,
        net,
        deployment.network.fault_mask().clone(),
        deployment.compile,
        subs,
        None,
        true,
        inflight,
    );
    // Both sizes leave every host's list at capacity (a power of two
    // per host), so the subscribe regrows the touched list once in each
    // run.
    let filter = parse_expr("stock == GOOGL").unwrap();
    let sub =
        SubRequest { id: 0, host: 3, op: RequestOp::Subscribe(filter.clone()), arrival_ns: 1_000 };
    let unsub =
        SubRequest { id: 1, host: 3, op: RequestOp::Unsubscribe(filter), arrival_ns: 1_100 };

    let before = ALLOCS.load(Ordering::Relaxed);
    intake.handle(sub, &batch_tx).unwrap();
    intake.handle(unsub, &batch_tx).unwrap();
    intake.flush(&batch_tx).unwrap();
    let Some(Ctl::Msg(batch)) = batch_rx.try_recv() else { panic!("intake emits the batch") };
    compile.handle(batch, &txn_tx).unwrap();
    let spent = ALLOCS.load(Ordering::Relaxed) - before;

    let Some(Ctl::Msg(txn)) = txn_rx.try_recv() else { panic!("the stage emits a transaction") };
    assert!(txn.payload.is_none(), "a net-zero batch is a noop");
    assert_eq!(txn.cancelled, 2);
    assert_eq!(compile.compiles, 0);
    spent
}

#[test]
fn a_net_zero_batch_allocates_the_same_at_any_subscription_count() {
    let small = net_zero_batch_allocs(1 << 10);
    let large = net_zero_batch_allocs(1 << 14);
    eprintln!("net-zero batch: {small} allocations at 1 024 held, {large} at 16 384");
    assert_eq!(small, large, "per-batch allocations must not grow with the subscriptions held");
}
