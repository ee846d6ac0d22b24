//! Fig. 13 — switch memory per Fat-Tree layer under the two routing
//! policies, the effect of α-discretisation, and the traffic cost of
//! the approximation (§VIII-G.1).
//!
//! Topology: the paper's Mininet testbed — 20 switches (8 ToR, 8 agg,
//! 4 core), 16 hosts — with Siena-generated filters of three variables
//! each.
//!
//! * **(a/b)** per-layer compiled table entries vs #filters, MR vs TR,
//! * **(c)** the same under α = 10 (aggregation shrinks upper layers),
//! * **(d)** % extra messages crossing the core layer vs α (the false
//!   positives the widened filters admit).

use super::Scale;
use crate::output::Table;
use camus_core::compiler::Compiler;
use camus_core::statics::compile_static;
use camus_dataplane::PacketBuilder;
use camus_lang::ast::Expr;
use camus_net::controller::Controller;
use camus_routing::algorithm1::{route_hierarchical, Policy, RoutingConfig};
use camus_routing::compile::compile_network;
use camus_routing::topology::paper_fat_tree;
use camus_workloads::siena::{SienaConfig, SienaGenerator};

fn generator(seed: u64) -> SienaGenerator {
    SienaGenerator::new(SienaConfig {
        // "each filter checks three variables" over a three-variable
        // universe (Fig. 14 sweeps that universe from 1 to 3).
        predicates_per_filter: 3,
        n_attributes: 3,
        string_fraction: 0.25,
        anchor_universe: 400,
        anchor_skew: 0.5,
        seed,
        ..Default::default()
    })
}

/// Distribute `total` filters round-robin over the 16 hosts.
fn host_subscriptions(total: usize, seed: u64) -> (Vec<Vec<Expr>>, SienaGenerator) {
    let mut generator = generator(seed);
    let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); 16];
    for (i, f) in generator.filters(total).into_iter().enumerate() {
        subs[i % 16].push(f);
    }
    (subs, generator)
}

/// Per-layer entries for a policy/α combination.
fn layer_entries(total: usize, policy: Policy, alpha: i64) -> [usize; 3] {
    let net = paper_fat_tree();
    let (subs, _) = host_subscriptions(total, 0xF13);
    let routing = route_hierarchical(&net, &subs, RoutingConfig::new(policy).with_alpha(alpha));
    let compiled = compile_network(&routing, &Compiler::new()).expect("fig13 compiles");
    let per = compiled.entries_per_layer(&net);
    [
        per.get(&0).copied().unwrap_or(0),
        per.get(&1).copied().unwrap_or(0),
        per.get(&2).copied().unwrap_or(0),
    ]
}

pub fn run(scale: Scale) -> Vec<Table> {
    let counts: &[usize] = match scale {
        Scale::Quick => &[64, 256],
        Scale::Full => &[64, 256, 1_024, 4_096],
    };
    let mut tables = Vec::new();

    // Panels a-c: per-layer memory.
    for (panel, policy, alpha) in [
        ("a (MR, exact)", Policy::MemoryReduction, 1),
        ("b (TR, exact)", Policy::TrafficReduction, 1),
        ("c (MR, α=10)", Policy::MemoryReduction, 10),
    ] {
        let mut t = Table::new(
            &format!("fig13{}", &panel[..1]),
            &format!("Fig. 13{panel}: table entries per layer"),
            &["filters", "ToR", "Agg", "Core"],
        );
        for &n in counts {
            let [tor, agg, core] = layer_entries(n, policy, alpha);
            t.row([n.to_string(), tor.to_string(), agg.to_string(), core.to_string()]);
        }
        tables.push(t);
    }

    // Panel d: extra core traffic vs α, measured by actually running
    // the network.
    let mut d = Table::new(
        "fig13d",
        "Fig. 13d: extra core-layer traffic vs discretisation unit α (TR)",
        &["alpha", "core messages", "extra %"],
    );
    let n_filters = scale.pick(128, 512);
    let packets = scale.pick(300, 2_000);
    let mut baseline_core = None;
    for alpha in [1i64, 5, 10, 50, 100] {
        let core = core_traffic(n_filters, packets, alpha);
        let base = *baseline_core.get_or_insert(core);
        let extra = if base == 0 { 0.0 } else { 100.0 * (core as f64 - base as f64) / base as f64 };
        d.row([alpha.to_string(), core.to_string(), format!("{extra:.1}")]);
    }
    tables.push(d);
    tables
}

/// Deploy the network with TR/α, replay a publisher feed, count
/// messages crossing core-layer links.
fn core_traffic(n_filters: usize, packets: usize, alpha: i64) -> u64 {
    let net = paper_fat_tree();
    let (subs, mut generator) = host_subscriptions(n_filters, 0xD13);
    let statics = compile_static(&generator.spec()).expect("siena spec compiles");
    let controller =
        Controller::new(statics, RoutingConfig::new(Policy::TrafficReduction).with_alpha(alpha));
    let mut d = controller.deploy(net.clone(), &subs).expect("fig13d deploys");
    let spec = generator.spec();
    // Publications correlate with subscriptions (publishers produce
    // what someone asked for): half exact matches, half *near-misses*
    // crafted against the maximally-widened (α=100) filters — the
    // packets that exact routing stops at the ToR but α-approximated
    // routing carries to the core. The stream is identical across α
    // runs so the traffic comparison is apples-to-apples.
    use camus_lang::approx::{approximate_expr, ApproxConfig};
    let all_filters: Vec<_> = subs.iter().flatten().cloned().collect();
    let widened: Vec<_> =
        all_filters.iter().map(|f| approximate_expr(f, ApproxConfig::new(100))).collect();
    for i in 0..packets {
        let vals = if i % 4 == 0 || all_filters.is_empty() {
            generator.packet()
        } else if i % 2 == 0 {
            let f = &all_filters[(i * 31) % all_filters.len()];
            generator.matching_packet(f)
        } else {
            let f = &widened[(i * 31) % widened.len()];
            generator.matching_packet(f)
        };
        let mut b = PacketBuilder::new(&spec);
        for (field, value) in vals {
            b = b.stack_field("siena", &field, value);
        }
        d.network.publish(i % 16, b.build(), i as u64 * 10_000);
    }
    d.network.run(None);
    d.network.stats().layer_messages(&net, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mr_upper_layers_are_smaller_than_tr() {
        let mr = layer_entries(128, Policy::MemoryReduction, 1);
        let tr = layer_entries(128, Policy::TrafficReduction, 1);
        assert!(mr[1] < tr[1], "agg: MR {} < TR {}", mr[1], tr[1]);
        // ToR layers are comparable (both store the original subs).
        assert!(mr[0] > 0 && tr[0] > 0);
    }

    #[test]
    fn discretisation_reduces_memory() {
        let exact = layer_entries(256, Policy::MemoryReduction, 1);
        let approx = layer_entries(256, Policy::MemoryReduction, 100);
        let sum = |x: [usize; 3]| x.iter().sum::<usize>();
        assert!(sum(approx) < sum(exact), "α=100 must shrink: {exact:?} -> {approx:?}");
    }

    #[test]
    fn alpha_never_loses_core_traffic() {
        // Wider filters can only add traffic.
        let base = core_traffic(64, 150, 1);
        let wide = core_traffic(64, 150, 100);
        assert!(wide >= base, "α=100 core {wide} >= exact {base}");
    }

    #[test]
    fn quick_run_emits_four_tables() {
        assert_eq!(run(Scale::Quick).len(), 4);
    }
}
