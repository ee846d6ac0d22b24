//! The ledger benchmark's `cold-deploy` input, rebuilt here so the
//! compiler's probes (`bddperf -- lists`) and tests read the same lists
//! the benchmark's controller compiles.

use camus_core::statics::{compile_static, StaticPipeline};
use camus_lang::ast::Rule;
use camus_lang::parser::parse_expr;
use camus_lang::spec::Spec;
use camus_routing::algorithm1::{route_hierarchical, Policy, RoutingConfig};
use camus_routing::topology::three_layer;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The `cold-deploy` ledger workload's input at `seed`: 25 000
/// subscriptions (`id == K`, every 7th `and price > t`) spread over the
/// hosts of the 72-switch tree and routed under MR, as the benchmark
/// generates them. Returns each distinct switch list once (by
/// fingerprint, first switch first) and the compiled spec.
pub fn cold_deploy_lists(seed: u64) -> (Vec<Vec<Rule>>, StaticPipeline) {
    const SPEC: &str =
        "header order {\n  @field_exact bit<32> id;\n  @field bit<32> price;\n}\nsequence order\n";
    let net = three_layer(8, 4, 4, 8, 4);
    let hosts = net.host_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let base: i64 = rng.gen_range(0..1 << 20);
    let mut subs = vec![Vec::new(); hosts];
    for i in 0..25_000usize {
        let id = base + i as i64;
        let text = if i % 7 == 0 {
            format!("id == {id} and price > {}", rng.gen_range(0..1_000))
        } else {
            format!("id == {id}")
        };
        subs[i % hosts].push(parse_expr(&text).unwrap());
    }
    let routing = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::MemoryReduction));
    let mut seen = Vec::new();
    let mut lists = Vec::new();
    for s in 0..net.switch_count() {
        let fingerprint = routing.switch_fingerprint(s);
        if !seen.contains(&fingerprint) {
            seen.push(fingerprint);
            lists.push(routing.switch_rules(s));
        }
    }
    let statics = compile_static(&Spec::parse(SPEC).unwrap()).unwrap();
    (lists, statics)
}
