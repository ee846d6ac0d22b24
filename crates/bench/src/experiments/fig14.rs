//! Fig. 14 — dynamic-reconfiguration compile time (§VIII-G.3): how
//! long the controller takes to recompile every switch's runtime table
//! entries when subscriptions change, as a function of subscription
//! count and variables per subscription, for both policies, with and
//! without α = 10 discretisation.
//!
//! The paper's observations to reproduce: α = 10 is about two orders
//! of magnitude faster than exact compilation at scale; TR recompiles
//! all 20 switches while MR effectively recompiles only the lower
//! layers; and 1–2-variable filters compile in negligible time.

use super::Scale;
use crate::output::Table;
use camus_core::compiler::Compiler;
use camus_lang::ast::Expr;
use camus_routing::algorithm1::{route_hierarchical, Policy, RoutingConfig};
use camus_routing::compile::compile_network;
use camus_routing::topology::paper_fat_tree;
use camus_workloads::siena::{SienaConfig, SienaGenerator};
use std::time::Duration;

fn subscriptions(total: usize, vars: usize, seed: u64) -> Vec<Vec<Expr>> {
    let mut g = SienaGenerator::new(SienaConfig {
        // The Fig. 14 x-axis: filters over a universe of `vars`
        // variables, each filter constraining all of them.
        predicates_per_filter: vars,
        n_attributes: vars,
        string_fraction: 0.25,
        anchor_universe: 400,
        anchor_skew: 0.5,
        seed,
        ..Default::default()
    });
    let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); 16];
    for (i, f) in g.filters(total).into_iter().enumerate() {
        subs[i % 16].push(f);
    }
    subs
}

/// Route + compile the whole network: the wall-clock time, and the
/// table entries compiled over all switches (what α shrinks).
pub fn recompile(total: usize, vars: usize, policy: Policy, alpha: i64) -> (Duration, usize) {
    let net = paper_fat_tree();
    let subs = subscriptions(total, vars, 0xF14);
    let t0 = std::time::Instant::now();
    let routing = route_hierarchical(&net, &subs, RoutingConfig::new(policy).with_alpha(alpha));
    let compiled = compile_network(&routing, &Compiler::new()).expect("fig14 compiles");
    let entries = compiled.total_entries();
    (t0.elapsed(), entries)
}

pub fn run(scale: Scale) -> Vec<Table> {
    let counts: &[usize] = match scale {
        Scale::Quick => &[64, 256],
        Scale::Full => &[64, 256, 1_024, 4_096],
    };
    let mut tables = Vec::new();
    for (panel, policy) in
        [("a (MR)", Policy::MemoryReduction), ("b (TR)", Policy::TrafficReduction)]
    {
        let mut t = Table::new(
            &format!("fig14{}", &panel[..1]),
            &format!("Fig. 14{panel}: network recompile time (ms)"),
            &["subscriptions", "1 var", "2 vars", "3 vars", "3 vars, α=10"],
        );
        for &n in counts {
            let ms = |vars: usize, alpha: i64| {
                format!("{:.1}", recompile(n, vars, policy, alpha).0.as_secs_f64() * 1e3)
            };
            t.row([n.to_string(), ms(1, 1), ms(2, 1), ms(3, 1), ms(3, 10)]);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discretisation_shrinks_the_tables() {
        // α=10 collapses similar constants, shrinking the BDDs and the
        // tables emitted from them — the work behind the paper's ~two
        // orders of magnitude of compile time at its largest scale.
        // Checked on the entry count, which is exact: two single-shot
        // wall times at this size flake under a loaded test run.
        let (_, exact) = recompile(512, 3, Policy::TrafficReduction, 1);
        let (_, approx) = recompile(512, 3, Policy::TrafficReduction, 10);
        assert!(approx < exact, "α=10 compiles {approx} entries, exact {exact}");
    }

    #[test]
    fn fewer_variables_compile_faster() {
        let one = recompile(256, 1, Policy::TrafficReduction, 1).0;
        let three = recompile(256, 3, Policy::TrafficReduction, 1).0;
        assert!(one < three * 2, "1-var {one:?} vs 3-var {three:?}");
    }

    #[test]
    fn quick_run_emits_two_tables() {
        assert_eq!(run(Scale::Quick).len(), 2);
    }
}
