//! Allocation budget for the bulk BDD constructor.
//!
//! A counting global allocator wraps `System`; `BddBuilder::build` of
//! an identifier list (`id == K`, every seventh `and price > t`, 32
//! ports) must stay within 2 heap allocations per rule at 1 k and at
//! 16 k rules (1.4 and 1.1). The filters are normalised into one
//! buffer of borrowed atoms, the predicate alphabet is sorted on
//! borrowed keys and cloned once per distinct atom, no predicate index
//! is built for a diagram nothing splices into, each conjunction's ids
//! go through one reused buffer, band members are counted by one sort
//! of their contributions, and a terminal `{label}` is built once per
//! label, so the count is about one per distinct atom whatever the
//! list's length. While every atom was hashed into the alphabet and a
//! cold build kept per-rule vectors and per-member maps it took
//! 8.4–8.7; normalising each filter into vectors of cloned atoms took
//! 21.3–21.7, and a sort comparator that formats operand keys
//! allocates per comparison, O(log n) per rule (50–70 at these sizes).
//! The count is exact and repeatable, so this guards the cost model
//! independently of how noisy the host is.
//!
//! This file holds exactly one `#[test]`: the allocator counter is
//! global, so a second concurrently running test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use camus_bdd::{BddBuilder, VarOrder};
use camus_lang::ast::{Action, Expr, Predicate, Rel, Rule};

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

fn identifier_list(n: i64) -> Vec<Rule> {
    (0..n)
        .map(|i| {
            let id = Expr::Atom(Predicate::field("id", Rel::Eq, i));
            let filter = if i % 7 == 0 {
                id.and(Expr::Atom(Predicate::field("price", Rel::Gt, (i * 37) % 1_000)))
            } else {
                id
            };
            Rule { filter, action: Action::Forward(vec![(i % 32) as u16 + 1]) }
        })
        .collect()
}

#[test]
fn bulk_build_stays_within_its_allocation_budget() {
    const BUDGET_PER_RULE: u64 = 2;

    for n in [1_000, 16_000] {
        let rules = identifier_list(n);
        let order = VarOrder::tie_break(["price", "id"]);
        let before = ALLOCS.load(Ordering::Relaxed);
        let bdd = BddBuilder::from_rules(&rules).with_order(order).build();
        let spent = ALLOCS.load(Ordering::Relaxed) - before;

        // One predicate per identifier, and more for the prices: the
        // work was real.
        assert!(bdd.preds().len() as i64 > n);
        let per_rule = spent as f64 / n as f64;
        assert!(
            spent <= BUDGET_PER_RULE * n as u64,
            "{spent} allocations for {n} rules ({per_rule:.1} per rule, budget {BUDGET_PER_RULE})"
        );
        eprintln!("bulk build: {spent} allocations for {n} rules, {per_rule:.1} per rule");
    }
}
