//! Property: `Controller::repair` after a sequence of failures and
//! restores is indistinguishable from a cold deploy onto the same fault
//! mask.
//!
//! Random fault sequences (link cuts, switch crashes, and their
//! restores) are injected into a live network and healed step by step
//! through the incremental repair path, which reuses
//! fingerprint-matched pipelines from the previous compile. After every
//! step the repaired network must carry exactly the per-switch
//! pipelines a from-scratch deployment onto the degraded topology
//! would, and deliver publications identically.

use camus_core::pipeline::Pipeline;
use camus_dataplane::{Switch, SwitchConfig};
use camus_faults::FaultInjector;
use camus_lang::ast::Expr;
use camus_lang::value::Value;
use camus_net::channel::PerfectChannel;
use camus_net::controller::{Controller, Deployment};
use camus_net::Network;
use camus_oracle::{itch_controller, itch_pool, same_deliveries, same_tables, Publication};
use camus_routing::algorithm1::Policy;
use camus_routing::topology::{paper_fat_tree, FaultMask, HierNet};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One step of the environment: break something or fix something. The
/// indices are resolved against whatever is breakable (or broken) when
/// the step runs, so every generated sequence is applicable.
#[derive(Debug, Clone)]
enum FaultOp {
    FailLink(usize),
    RestoreLink(usize),
    CrashSwitch(usize),
    RestoreSwitch(usize),
}

fn arb_op() -> impl Strategy<Value = FaultOp> {
    prop_oneof![
        3 => (0usize..64).prop_map(FaultOp::FailLink),
        2 => (0usize..64).prop_map(FaultOp::RestoreLink),
        2 => (0usize..64).prop_map(FaultOp::CrashSwitch),
        2 => (0usize..64).prop_map(FaultOp::RestoreSwitch),
    ]
}

/// The cold "converge from empty" oracle: freshly booted empty switches
/// carrying `mask`, recovered with no logged epoch, so every rule list
/// compiles cold and every switch ends running its cold pipeline.
fn cold_deploy_onto(
    ctrl: &Controller,
    net: &HierNet,
    subs: &[Vec<Expr>],
    mask: &FaultMask,
) -> Deployment {
    let switches = (0..net.switch_count())
        .map(|_| Switch::new(&ctrl.statics, Pipeline::empty(), SwitchConfig::default()))
        .collect();
    let mut network = Network::new(net.clone(), switches);
    for (s, p) in mask.dead_links() {
        network.fail_link(s, p);
    }
    for s in mask.dead_switches() {
        network.crash_switch(s);
    }
    assert_eq!(network.fault_mask(), mask);
    let (deployment, _) = ctrl
        .recover_deployment(network, subs, &BTreeSet::new(), 1, &mut PerfectChannel)
        .expect("cold deploy onto the mask");
    deployment
}

/// Publications that exercise the pool filters from several hosts.
fn publications() -> Vec<Publication> {
    vec![
        (0, vec![("stock", Value::from("GOOGL")), ("price", Value::Int(30))]),
        (6, vec![("stock", Value::from("MSFT")), ("price", Value::Int(700))]),
        (11, vec![("stock", Value::from("FB")), ("price", Value::Int(1))]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn repair_equals_fresh_degraded_deploy(
        seed_adds in proptest::collection::vec((0usize..16, 0usize..9), 0..10),
        ops in proptest::collection::vec(arb_op(), 1..8),
        policy_tr in any::<bool>(),
    ) {
        let pool = itch_pool();
        let net = paper_fat_tree();
        let links = FaultInjector::links(&net);
        let policy =
            if policy_tr { Policy::TrafficReduction } else { Policy::MemoryReduction };
        let ctrl = itch_controller(policy);

        let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); net.host_count()];
        for (host, f) in &seed_adds {
            subs[*host].push(pool[*f].clone());
        }
        let mut live = ctrl.deploy(net.clone(), &subs).expect("initial deploy");

        for op in &ops {
            // Mutate the environment. Restores pick from whatever is
            // currently broken; a restore with nothing broken is a
            // no-op step (the repair must then also be a no-op).
            match op {
                FaultOp::FailLink(i) => {
                    let (s, p) = links[i % links.len()];
                    live.network.fail_link(s, p);
                }
                FaultOp::RestoreLink(i) => {
                    let dead = live.network.fault_mask().dead_links();
                    if !dead.is_empty() {
                        let (s, p) = dead[i % dead.len()];
                        live.network.restore_link(s, p);
                    }
                }
                FaultOp::CrashSwitch(i) => {
                    live.network.crash_switch(i % net.switch_count());
                }
                FaultOp::RestoreSwitch(i) => {
                    let dead = live.network.fault_mask().dead_switches();
                    if !dead.is_empty() {
                        live.network.restore_switch(dead[i % dead.len()]);
                    }
                }
            }
            ctrl.repair(&mut live, &subs, &mut PerfectChannel).expect("repair");
            let mut fresh = cold_deploy_onto(&ctrl, &net, &subs, live.network.fault_mask());

            prop_assert_eq!(same_tables(&live, &fresh), Ok(()));
            prop_assert_eq!(
                same_deliveries(&mut live.network, &mut fresh.network, &publications()),
                Ok(())
            );
        }
    }
}
