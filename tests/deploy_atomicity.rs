//! Property: a rejected deploy transaction is invisible.
//!
//! Whether the transaction dies at admission (a switch over its
//! resource budget) or on the control channel (retries exhausted mid
//! two-phase commit), the network must keep delivering **exactly** as
//! it did before the attempt — same installed pipelines, same compile
//! fingerprints, byte-identical deliveries for a fixed publication
//! scenario. And when degradation is enabled instead, the over-budget
//! switch's coarse fallback may only ever over-deliver, never
//! under-deliver. Switches with identical rule lists share one
//! immutable program, so undoing an install on one of them must be
//! invisible to its twins as well.

use camus_core::pipeline::Pipeline;
use camus_core::resources::ResourceBudget;
use camus_lang::ast::Expr;
use camus_lang::parser::parse_expr;
use camus_lang::value::Value;
use camus_net::channel::{ChannelOutcome, ControlChannel, ControlOp, PerfectChannel};
use camus_net::controller::{DeployError, Deployment};
use camus_oracle::{deliveries, itch_controller, same_deliveries, Publication};
use camus_routing::algorithm1::Policy;
use camus_routing::topology::paper_fat_tree;
use proptest::prelude::*;
use std::sync::Arc;

/// Equality-only filters: they compile to exact-match SRAM entries, so
/// a `max_tcam_entries: 0` budget admits them all.
fn equality_pool() -> Vec<Expr> {
    ["stock == GOOGL", "stock == MSFT", "stock == AAPL", "stock == FB"]
        .iter()
        .map(|s| parse_expr(s).expect("pool filter parses"))
        .collect()
}

/// Fixed publication scenario exercising the pool filters and the
/// range filter the tests churn in.
fn publications() -> Vec<Publication> {
    vec![
        (0, vec![("stock", Value::from("GOOGL")), ("price", Value::Int(30))]),
        (6, vec![("stock", Value::from("MSFT")), ("price", Value::Int(700))]),
        (11, vec![("stock", Value::from("AAPL")), ("price", Value::Int(90))]),
    ]
}

/// A channel that never delivers one op kind to one switch.
struct DeadOp {
    switch: usize,
    op: ControlOp,
}

impl ControlChannel for DeadOp {
    fn attempt(&mut self, switch: usize, op: ControlOp, _attempt: u32) -> ChannelOutcome {
        if switch == self.switch && op == self.op {
            ChannelOutcome::Dropped
        } else {
            ChannelOutcome::Delivered
        }
    }
}

fn fingerprints(d: &Deployment) -> Vec<u64> {
    d.compile.switches.iter().map(|s| s.fingerprint).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One switch forced over budget: the rejected deploy leaves the
    /// network delivering exactly as before the attempt.
    #[test]
    fn rejected_admission_is_invisible(
        seed_adds in proptest::collection::vec((0usize..16, 0usize..4), 0..8),
        target in 0usize..16,
        threshold in 1i64..500,
        policy_tr in any::<bool>(),
    ) {
        let pool = equality_pool();
        let net = paper_fat_tree();
        let policy =
            if policy_tr { Policy::TrafficReduction } else { Policy::MemoryReduction };
        // The target's ToR has no TCAM and no coarse fallback: any
        // range filter for the target must be refused there.
        let tor = net.designated_chain(target)[0];
        let mut ctrl = itch_controller(policy);
        ctrl.budget_overrides
            .insert(tor, ResourceBudget { max_tcam_entries: 0, ..ResourceBudget::unlimited() });
        ctrl.degrade_over_budget = false;

        let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); net.host_count()];
        for (host, f) in &seed_adds {
            subs[*host].push(pool[*f].clone());
        }
        // Equality-only state fits the zero-TCAM override.
        let mut live = ctrl.deploy(net.clone(), &subs).expect("equality-only deploy fits");
        let fp_before = fingerprints(&live);

        let mut wanted = subs.clone();
        wanted[target].push(parse_expr(&format!("price > {threshold}")).unwrap());
        match ctrl.repair(&mut live, &wanted, &mut PerfectChannel) {
            Err(DeployError::Admission { rejected, report }) => {
                prop_assert!(rejected.iter().any(|(s, _)| *s == tor), "must name ToR {}", tor);
                prop_assert_eq!(report.committed(), 0);
            }
            other => prop_assert!(false, "expected admission rejection, got {:?}", other.err()),
        }
        prop_assert_eq!(&fp_before, &fingerprints(&live), "compile state must be untouched");

        // Byte-identical deliveries vs a fresh deploy of the old subs.
        let mut fresh = ctrl.deploy(net.clone(), &subs).expect("fresh old-subs deploy");
        prop_assert_eq!(
            same_deliveries(&mut live.network, &mut fresh.network, &publications()),
            Ok(()),
            "after rejection"
        );
    }

    /// Degradation enabled instead: the deploy succeeds, and the
    /// coarse switch only ever over-delivers relative to the precise
    /// network — never under-delivers.
    #[test]
    fn degraded_switch_never_underdelivers(
        seed_adds in proptest::collection::vec((0usize..16, 0usize..4), 0..8),
        target in 0usize..16,
        threshold in 1i64..500,
        policy_tr in any::<bool>(),
    ) {
        let pool = equality_pool();
        let net = paper_fat_tree();
        let policy =
            if policy_tr { Policy::TrafficReduction } else { Policy::MemoryReduction };
        let tor = net.designated_chain(target)[0];

        let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); net.host_count()];
        for (host, f) in &seed_adds {
            subs[*host].push(pool[*f].clone());
        }
        subs[target].push(parse_expr(&format!("price > {threshold}")).unwrap());

        let mut ctrl = itch_controller(policy);
        ctrl.budget_overrides
            .insert(tor, ResourceBudget { max_tcam_entries: 0, ..ResourceBudget::unlimited() });
        let mut coarse = ctrl.deploy(net.clone(), &subs).expect("degraded deploy succeeds");
        prop_assert!(coarse.degraded.contains(&tor), "ToR {} must degrade", tor);

        let mut precise =
            itch_controller(policy).deploy(net.clone(), &subs).expect("precise deploy");
        let coarse_del = deliveries(&mut coarse.network, &publications());
        let precise_del = deliveries(&mut precise.network, &publications());
        for h in 0..net.host_count() {
            for delivery in &precise_del[h] {
                prop_assert!(
                    coarse_del[h].contains(delivery),
                    "host {} under-delivered: missing {:?}", h, delivery
                );
            }
        }
    }

    /// Control-channel exhaustion mid-transaction (stage or commit
    /// phase): full rollback, deliveries exactly as before.
    #[test]
    fn exhausted_channel_rolls_back_everything(
        seed_adds in proptest::collection::vec((0usize..16, 0usize..4), 1..8),
        target in 0usize..16,
        kill_commit in any::<bool>(),
        policy_tr in any::<bool>(),
    ) {
        let pool = equality_pool();
        let net = paper_fat_tree();
        let policy =
            if policy_tr { Policy::TrafficReduction } else { Policy::MemoryReduction };
        let tor = net.designated_chain(target)[0];
        let ctrl = itch_controller(policy);

        let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); net.host_count()];
        for (host, f) in &seed_adds {
            subs[*host].push(pool[*f].clone());
        }
        let mut live = ctrl.deploy(net.clone(), &subs).expect("initial deploy");
        let fp_before = fingerprints(&live);

        let mut wanted = subs.clone();
        wanted[target].push(parse_expr("price > 42").unwrap());
        let op = if kill_commit { ControlOp::Commit } else { ControlOp::Stage };
        let mut dead = DeadOp { switch: tor, op };
        match ctrl.repair(&mut live, &wanted, &mut dead) {
            Err(DeployError::Channel { failed, report }) => {
                prop_assert_eq!(failed, vec![tor]);
                for e in &report.switches {
                    prop_assert!(!e.committed, "switch {} left committed", e.switch);
                }
            }
            other => prop_assert!(false, "expected channel failure, got {:?}", other.err()),
        }
        prop_assert_eq!(&fp_before, &fingerprints(&live), "compile state must be untouched");

        let mut fresh = ctrl.deploy(net.clone(), &subs).expect("fresh old-subs deploy");
        prop_assert_eq!(
            same_deliveries(&mut live.network, &mut fresh.network, &publications()),
            Ok(()),
            "after rollback"
        );
    }
}

/// Twins (the full-mesh cores) hold one shared program. Aborting a
/// stage or reverting a commit on one of them must leave the twin —
/// and the network's forwarding — exactly as a fresh deploy has it.
#[test]
fn undoing_an_install_on_one_twin_leaves_the_other_alone() {
    let net = paper_fat_tree();
    let ctrl = itch_controller(Policy::MemoryReduction);
    let pool = equality_pool();
    let subs: Vec<Vec<Expr>> =
        (0..net.host_count()).map(|h| vec![pool[h % pool.len()].clone()]).collect();
    let mut live = ctrl.deploy(net.clone(), &subs).expect("deploy");
    let mut fresh = ctrl.deploy(net.clone(), &subs).expect("reference deploy");

    let cores: Vec<usize> =
        (0..net.switch_count()).filter(|&s| net.switches[s].layer == 2).collect();
    let (a, b) = (cores[0], cores[1]);
    let shared = Arc::clone(live.network.switches[a].program());
    assert!(Arc::ptr_eq(&shared, live.network.switches[b].program()), "cores must be twins");

    // Stage something else on `a`, abort: nothing happened.
    live.network.switches[a].stage(Pipeline::empty()).unwrap();
    assert!(live.network.switches[a].abort_staged());
    // Commit something else on `a` (it now drops everything), revert:
    // the shared program is back, the very same allocation.
    live.network.switches[a].stage(Pipeline::empty()).unwrap();
    assert!(live.network.switches[a].commit_staged());
    assert!(live.network.switches[a].pipeline().stages.is_empty());
    assert!(Arc::ptr_eq(&shared, live.network.switches[b].program()), "twin untouched");
    assert!(live.network.switches[a].revert_committed());
    assert!(Arc::ptr_eq(&shared, live.network.switches[a].program()));

    assert_eq!(same_deliveries(&mut live.network, &mut fresh.network, &publications()), Ok(()));
    for s in 0..net.switch_count() {
        assert_eq!(
            live.network.switches[s].stats(),
            fresh.network.switches[s].stats(),
            "switch {s}"
        );
    }
}
