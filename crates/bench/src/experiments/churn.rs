//! Subscription churn — incremental vs full recompilation.
//!
//! The Fig. 14 experiment recompiles the whole network from scratch on
//! every subscription change. Real subscription workloads churn one
//! subscriber at a time, and fingerprint-based incremental
//! recompilation ([`camus_routing::compile::compile_network_incremental`])
//! only recompiles the switches whose routed rule list actually
//! changed. This experiment quantifies that: starting from N Siena
//! subscriptions spread over the hosts of a (wider-than-paper) fat
//! tree, each step replaces one host's newest subscription and measures
//! the compile-stage wall-clock of a full recompile vs an incremental
//! one, plus the recompiled/reused switch split.
//!
//! MR policy is used (up-filters are constant `True`), so a change at
//! one host dirties its access ToR, its designated agg, and the core
//! layer. The incremental path still wins big because its compile
//! cache is content-addressed: the full-mesh core layer carries one
//! shared rule list and costs one compile instead of one per core,
//! and every off-path ToR/agg is a fingerprint hit. (Under TR a
//! single change can legitimately dirty almost every up-filter in the
//! network, and incremental compilation honestly degrades to a full
//! one.)

use super::Scale;
use crate::output::Table;
use camus_core::compiler::Compiler;
use camus_lang::ast::Expr;
use camus_routing::algorithm1::{route_hierarchical, Policy, RoutingConfig, RoutingResult};
use camus_routing::compile::{compile_network, compile_network_incremental, NetworkCompile};
use camus_routing::topology::{three_layer, HierNet};
use camus_workloads::siena::{SienaConfig, SienaGenerator};
use rand::prelude::*;

/// The churn testbed: 8 pods × 4 ToRs × 4 hosts = 128 hosts,
/// 72 switches — wide enough that one host's distribution path is a
/// small fraction of the network.
pub fn churn_net() -> HierNet {
    three_layer(8, 4, 4, 8, 4)
}

fn routing_config() -> RoutingConfig {
    RoutingConfig::new(Policy::MemoryReduction)
}

/// The churn workload generator: a Zipf-skewed anchor universe — the
/// shape of the ITCH workload, where subscription mass concentrates on
/// popular symbols. One generator instance serves both the initial
/// population and the churned-in filters so attribute typing stays
/// consistent.
fn generator(seed: u64) -> SienaGenerator {
    SienaGenerator::new(SienaConfig {
        predicates_per_filter: 2,
        n_attributes: 3,
        string_fraction: 0.25,
        anchor_universe: 400,
        anchor_skew: 0.5,
        seed,
        ..Default::default()
    })
}

/// N Siena filters dealt round-robin over the hosts.
pub fn spread_subscriptions(g: &mut SienaGenerator, net: &HierNet, total: usize) -> Vec<Vec<Expr>> {
    let hosts = net.host_count();
    let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); hosts];
    for (i, f) in g.filters(total).into_iter().enumerate() {
        subs[i % hosts].push(f);
    }
    subs
}

/// One churn step's measurements.
#[derive(Debug, Clone)]
pub struct ChurnStep {
    pub full_ms: f64,
    pub incremental_ms: f64,
    pub recompiled: usize,
    pub reused: usize,
}

impl ChurnStep {
    pub fn speedup(&self) -> f64 {
        self.full_ms / self.incremental_ms.max(1e-6)
    }
}

fn route(net: &HierNet, subs: &[Vec<Expr>]) -> RoutingResult {
    route_hierarchical(net, subs, routing_config())
}

/// Run `steps` single-host churn steps against `subs`, measuring a full
/// and an incremental compile per step. Routing (Algorithm 1) is run
/// outside the timed regions: the controller pays it identically either
/// way, and the tentpole under test is the compile stage.
pub fn measure_churn(
    net: &HierNet,
    mut subs: Vec<Vec<Expr>>,
    mut fresh: SienaGenerator,
    steps: usize,
    seed: u64,
) -> Vec<ChurnStep> {
    let compiler = Compiler::new();
    let mut rng = StdRng::seed_from_u64(seed);

    let routing = route(net, &subs);
    let mut previous: NetworkCompile =
        compile_network(&routing, &compiler).expect("baseline compiles");

    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        // Churn: one host swaps its newest subscription for a fresh one
        // (an unsubscribe followed by a subscribe).
        let host = rng.gen_range(0..net.host_count());
        subs[host].pop();
        subs[host].push(fresh.filter());
        let routing = route(net, &subs);

        let t0 = std::time::Instant::now();
        let full = compile_network(&routing, &compiler).expect("full recompile");
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(full.total_entries());

        let t0 = std::time::Instant::now();
        let incremental = compile_network_incremental(&routing, &compiler, Some(&previous), None)
            .expect("incremental recompile");
        let incremental_ms = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(incremental.total_entries());

        out.push(ChurnStep {
            full_ms,
            incremental_ms,
            recompiled: incremental.recompiled,
            reused: incremental.reused,
        });
        previous = incremental;
    }
    out
}

pub fn run(scale: Scale) -> Vec<Table> {
    let counts: &[usize] = scale.pick(&[256][..], &[1_024, 4_096][..]);
    let steps = scale.pick(6, 12);
    let net = churn_net();
    let mut t = Table::new(
        "churn",
        "Churn: full vs incremental recompile per subscription change (ms)",
        &["subscriptions", "step", "full_ms", "incremental_ms", "speedup", "recompiled", "reused"],
    );
    for &n in counts {
        let mut g = generator(0xC4A2);
        let subs = spread_subscriptions(&mut g, &net, n);
        let steps = measure_churn(&net, subs, g, steps, 0x5EED);
        for (i, s) in steps.into_iter().enumerate() {
            t.row([
                n.to_string(),
                i.to_string(),
                format!("{:.2}", s.full_ms),
                format!("{:.2}", s.incremental_ms),
                format!("{:.1}", s.speedup()),
                s.recompiled.to_string(),
                s.reused.to_string(),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_is_5x_faster_at_1k_subscriptions() {
        // The headline claim: at 1k+ subscriptions, single-host churn
        // leaves most switches fingerprint-identical and beats a full
        // recompile by at least 5× on average.
        let net = churn_net();
        let mut g = generator(7);
        let subs = spread_subscriptions(&mut g, &net, 1_024);
        let steps = measure_churn(&net, subs, g, 4, 7);
        let mean_speedup: f64 =
            steps.iter().map(ChurnStep::speedup).sum::<f64>() / steps.len() as f64;
        assert!(mean_speedup >= 5.0, "mean speedup {mean_speedup:.1}x below 5x: {steps:?}");
        for s in &steps {
            assert!(s.recompiled > 0, "churn must dirty the subscriber's ToR");
            assert!(
                s.reused > net.switch_count() / 2,
                "most switches should be reused, got {} of {}",
                s.reused,
                net.switch_count()
            );
            assert_eq!(s.recompiled + s.reused, net.switch_count());
        }
    }

    #[test]
    fn quick_run_emits_table() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 1);
        assert!(!tables[0].rows.is_empty());
    }
}
