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

/// Wall-clock time to route + compile the whole network.
pub fn recompile_time(total: usize, vars: usize, policy: Policy, alpha: i64) -> Duration {
    let net = paper_fat_tree();
    let subs = subscriptions(total, vars, 0xF14);
    let t0 = std::time::Instant::now();
    let routing = route_hierarchical(&net, &subs, RoutingConfig::new(policy).with_alpha(alpha));
    let compiled = compile_network(&routing, &Compiler::new()).expect("fig14 compiles");
    std::hint::black_box(compiled.total_entries());
    t0.elapsed()
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
                format!("{:.1}", recompile_time(n, vars, policy, alpha).as_secs_f64() * 1e3)
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
    fn discretisation_speeds_up_compilation() {
        // α=10 collapses similar constants, shrinking the BDDs — the
        // paper reports ~two orders of magnitude at its largest scale;
        // at our test size we just require a real speedup.
        let exact = recompile_time(512, 3, Policy::TrafficReduction, 1);
        let approx = recompile_time(512, 3, Policy::TrafficReduction, 10);
        assert!(approx < exact, "α=10 {approx:?} must be faster than exact {exact:?}");
    }

    #[test]
    fn fewer_variables_compile_faster() {
        let one = recompile_time(256, 1, Policy::TrafficReduction, 1);
        let three = recompile_time(256, 3, Policy::TrafficReduction, 1);
        assert!(one < three * 2, "1-var {one:?} vs 3-var {three:?}");
    }

    #[test]
    fn quick_run_emits_two_tables() {
        assert_eq!(run(Scale::Quick).len(), 2);
    }
}
