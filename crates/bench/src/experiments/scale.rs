//! The 10k→1M subscription `scale` ladder — compiler scaling evidence.
//!
//! The control-plane tentpole claims the compiler holds up at a
//! million subscriptions: cold builds stay near-linear and
//! memory-bounded, and a subscription change costs time proportional
//! to the *delta*, not the table. This experiment measures both ends
//! on the churn testbed (8 pods × 4 ToRs × 4 hosts, 72 switches) with
//! an identifier-heavy workload (`id == K`, ~15% carrying an extra
//! `price > t` conjunct — the shape of §VIII-C's big-table runs):
//!
//! * **cold compile**: the compile the controller runs on fresh state,
//!   `compile_network_incremental` with no previous compile and no
//!   cache (routing excluded). Content-addressing collapses the
//!   symmetric agg/core slots, so the distinct units are the 32 ToR
//!   lists (~N/32 rules), one agg list per pod (~N/8) and one shared
//!   core list (all N), compiled once for the 8 core twins.
//! * **per-op reconfigure**: on the hottest switch's live
//!   [`IncrementalBdd`] (the core: all N rules), one op = insert a
//!   fresh rule + remove it again. The full-recompile baseline is one
//!   `IncrementalBdd::from_rules` of the same list: the bulk
//!   constructor every cold path runs (it is also what builds each
//!   unit inside `cold_ms`), plus the per-rule bookkeeping of a seed —
//!   what a dirty-list recompile pays for that switch on every op,
//!   table emission excluded.
//! * **memory**: live vs allocated nodes after GC (the mark-and-sweep
//!   bound), the store's allocated-node high-water, plus process-level
//!   heap high-water (counting allocator, when the running binary
//!   installs the hook) and kernel `VmHWM`.
//!
//! Results land in `results/scale.csv`.

use super::churn::churn_net;
use super::Scale;
use crate::mem;
use crate::output::Table;
use camus_bdd::{IncrementalBdd, VarOrder};
use camus_core::compiler::Compiler;
use camus_lang::ast::{Expr, Rule};
use camus_lang::parser::{parse_expr, parse_rule};
use camus_routing::algorithm1::{route_hierarchical, Policy, RoutingConfig, RoutingResult};
use camus_routing::compile::compile_network_incremental;
use camus_routing::topology::HierNet;

/// One subscription of the identifier-heavy workload: a unique `id`
/// equality, with a price-threshold conjunct on roughly 15% of them.
fn subscription(i: usize) -> Expr {
    let text = if i.is_multiple_of(7) {
        format!("id == {i} and price > {}", (i * 37) % 1_000)
    } else {
        format!("id == {i}")
    };
    parse_expr(&text).expect("workload filter parses")
}

/// `n` identifier subscriptions dealt round-robin over the hosts.
pub fn subscriptions(net: &HierNet, n: usize) -> Vec<Vec<Expr>> {
    let hosts = net.host_count();
    let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); hosts];
    for i in 0..n {
        subs[i % hosts].push(subscription(i));
    }
    subs
}

/// The routed rule list of the most loaded switch (the shared core
/// list — every subscription in the network).
fn hottest_rules(routing: &RoutingResult) -> Vec<Rule> {
    let hottest = (0..routing.filters.len())
        .max_by_key(|&s| routing.switch_filter_count(s))
        .expect("network has switches");
    routing.switch_rules(hottest)
}

/// One rung of the ladder.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub subs: usize,
    /// Content-addressed cold network compile (routing excluded),
    /// wall-clock ms.
    pub cold_ms: f64,
    /// Total table entries across the network after the cold compile.
    pub entries: usize,
    /// Mean per-op incremental maintenance latency on the hottest
    /// switch (insert + remove), µs.
    pub inc_op_us: f64,
    /// One bulk construction (`IncrementalBdd::from_rules`) of the
    /// hottest switch's diagram, ms — the dirty-list recompile
    /// baseline for one op.
    pub full_op_ms: f64,
    /// Reachable nodes of the hottest diagram after a forced GC.
    pub live_nodes: usize,
    /// Node slots still allocated in the store after that GC.
    pub allocated_nodes: usize,
    /// Allocated-node high-water across the maintenance run.
    pub peak_alloc_nodes: usize,
    /// Capacity-triggered GC runs during the maintenance run.
    pub gc_runs: u64,
    /// Process heap high-water for this rung, MB (0 without the
    /// counting-allocator hook).
    pub peak_heap_mb: f64,
    /// Kernel `VmHWM` at the end of the rung, MB (monotone across
    /// rungs).
    pub peak_rss_mb: f64,
}

impl ScalePoint {
    /// Full-recompile cost over incremental per-op cost.
    pub fn speedup(&self) -> f64 {
        self.full_op_ms * 1e3 / self.inc_op_us.max(1e-9)
    }
}

/// Measure one rung: cold network compile, then `ops` incremental
/// insert+remove pairs against the hottest switch's live diagram,
/// whose seeding is timed as the dirty-list baseline.
pub fn measure(net: &HierNet, n: usize, ops: usize) -> ScalePoint {
    mem::reset_peak();
    let subs = subscriptions(net, n);
    let routing = route_hierarchical(net, &subs, RoutingConfig::new(Policy::MemoryReduction));

    let compiler = Compiler::new();
    let t0 = std::time::Instant::now();
    let cold = compile_network_incremental(&routing, &compiler, None, None).expect("cold compile");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let entries = cold.total_entries();
    drop(cold);

    // Per-op maintenance on the hottest switch's diagram. The field
    // order is pinned so every rung reduces over the same layering.
    let rules = hottest_rules(&routing);
    drop(routing);
    let order = VarOrder::from_keys(["id", "price"]);

    let t0 = std::time::Instant::now();
    let mut inc = IncrementalBdd::from_rules(&rules, &order);
    let full_op_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = std::time::Instant::now();
    for k in 0..ops {
        // One reconfiguration op: a brand-new subscriber arrives and
        // leaves again — an insert plus a remove, both O(delta).
        let fresh =
            parse_rule(&format!("id == {} and price > {}: fwd({})", n + k, k % 997, (k % 31) + 1))
                .expect("fresh rule parses");
        let digest = inc.insert_rule(&fresh);
        assert!(inc.remove_by_digest(digest), "freshly inserted rule must remove");
    }
    let inc_op_us = t0.elapsed().as_secs_f64() * 1e6 / ops.max(1) as f64;

    inc.force_gc();
    let live_nodes = inc.live_nodes();
    let stats = inc.bdd().gc_stats();
    let allocated_nodes = inc.bdd().allocated_nodes();

    ScalePoint {
        subs: n,
        cold_ms,
        entries,
        inc_op_us,
        full_op_ms,
        live_nodes,
        allocated_nodes,
        peak_alloc_nodes: stats.peak_allocated.max(allocated_nodes),
        gc_runs: stats.runs,
        peak_heap_mb: mem::peak_bytes() as f64 / (1 << 20) as f64,
        peak_rss_mb: mem::peak_rss_bytes() as f64 / (1 << 20) as f64,
    }
}

pub fn run(scale: Scale) -> Vec<Table> {
    let ladder: &[usize] = scale.pick(&[2_000][..], &[10_000, 100_000, 1_000_000][..]);
    let ops = scale.pick(64, 256);
    let net = churn_net();
    let mut t = Table::new(
        "scale",
        "Scale: cold compile and per-op reconfigure, 10k -> 1M subscriptions",
        &[
            "subs",
            "cold_ms",
            "entries",
            "inc_op_us",
            "full_op_ms",
            "speedup",
            "live_nodes",
            "alloc_nodes",
            "peak_alloc_nodes",
            "gc_runs",
            "peak_heap_mb",
            "peak_rss_mb",
        ],
    );
    for &n in ladder {
        let p = measure(&net, n, ops);
        if scale == Scale::Quick {
            // The CI smoke contract: even at the smoke size, per-op
            // incremental maintenance beats a scratch rebuild of the
            // hottest switch by 10x, and GC keeps the store within 2x
            // of the reachable nodes.
            assert!(
                p.speedup() >= 10.0,
                "incremental {:.2}us vs full {:.2}ms: speedup {:.1}x below 10x",
                p.inc_op_us,
                p.full_op_ms,
                p.speedup()
            );
            assert!(
                p.allocated_nodes <= 2 * p.live_nodes.max(1),
                "GC must bound allocation: {} allocated vs {} live",
                p.allocated_nodes,
                p.live_nodes
            );
        }
        t.row([
            p.subs.to_string(),
            format!("{:.1}", p.cold_ms),
            p.entries.to_string(),
            format!("{:.2}", p.inc_op_us),
            format!("{:.2}", p.full_op_ms),
            format!("{:.0}", p.speedup()),
            p.live_nodes.to_string(),
            p.allocated_nodes.to_string(),
            p.peak_alloc_nodes.to_string(),
            p.gc_runs.to_string(),
            format!("{:.1}", p.peak_heap_mb),
            format!("{:.1}", p.peak_rss_mb),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_smoke() {
        // The seeded smoke the CI lane runs: at even the Quick rung,
        // per-op incremental maintenance must beat a scratch rebuild
        // of the hottest switch by 10×, and after GC the store may
        // hold at most 2× the reachable nodes.
        let net = churn_net();
        let p = measure(&net, 2_000, 32);
        assert!(p.cold_ms > 0.0 && p.entries > 0);
        assert!(
            p.speedup() >= 10.0,
            "incremental {:.2}us vs full {:.2}ms: speedup {:.1}x below 10x",
            p.inc_op_us,
            p.full_op_ms,
            p.speedup()
        );
        assert!(
            p.allocated_nodes <= 2 * p.live_nodes.max(1),
            "GC must bound allocation: {} allocated vs {} live",
            p.allocated_nodes,
            p.live_nodes
        );
        assert!(p.peak_alloc_nodes >= p.allocated_nodes);
        assert!(p.peak_rss_mb > 0.0, "VmHWM must be readable on the CI host");
    }

    #[test]
    fn quick_run_emits_table() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 1);
    }
}
