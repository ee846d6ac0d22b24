//! A cold deploy compiles and lowers each distinct rule list once and
//! shares the result — and nothing observable changes.
//!
//! [`Controller::deploy`] goes through the content-addressed compile
//! and installs one immutable [`Program`](camus_dataplane::Program) per
//! distinct rule-list fingerprint. The oracle is the paper's baseline:
//! [`compile_network`] compiles every switch on its own and every
//! switch lowers a private copy. Both must agree switch for switch, and
//! admission must stay each switch's own decision even when the
//! program is shared.

use camus_core::compiler::Compiler;
use camus_core::resources::ResourceBudget;
use camus_dataplane::{Switch, SwitchConfig};
use camus_lang::ast::Expr;
use camus_lang::parser::parse_expr;
use camus_lang::value::Value;
use camus_net::controller::{AdmissionVerdict, DeployError};
use camus_net::Network;
use camus_oracle::{deliveries, itch_controller, Publication};
use camus_routing::algorithm1::Policy;
use camus_routing::compile::compile_network;
use camus_routing::topology::{paper_fat_tree, three_layer, FaultMask, HierNet};
use std::collections::HashSet;
use std::sync::Arc;

const STOCKS: [&str; 5] = ["GOOGL", "MSFT", "AAPL", "FB", "AMZN"];

/// Two filters per host: an equality and a range, so ToRs differ, and
/// the full-mesh cores end up with identical lists.
fn subs(net: &HierNet) -> Vec<Vec<Expr>> {
    (0..net.host_count())
        .map(|h| {
            vec![
                parse_expr(&format!("stock == {}", STOCKS[h % STOCKS.len()])).unwrap(),
                parse_expr(&format!("price > {}", 100 + 10 * (h % 7))).unwrap(),
            ]
        })
        .collect()
}

/// Publishers spread over the tree, packets sweeping the predicate
/// space of [`subs`].
fn matrix(hosts: usize) -> Vec<Publication> {
    let mut pubs = Vec::new();
    for publisher in [0, hosts / 2, hosts - 1] {
        for stock in STOCKS.iter().chain(&["NONE"]) {
            for price in [50, 125, 400] {
                pubs.push((
                    publisher,
                    vec![("stock", Value::from(*stock)), ("price", Value::Int(price))],
                ));
            }
        }
    }
    pubs
}

fn deploy_matches_per_switch_oracle(net: HierNet, policy: Policy) {
    let ctrl = itch_controller(policy);
    let subs = subs(&net);
    let mut d = ctrl.deploy(net.clone(), &subs).expect("deploy");

    // The oracle: every switch compiled and lowered on its own.
    let routing = ctrl.plan_routing(&net, &subs, &FaultMask::default());
    let oracle =
        compile_network(&routing, &Compiler::new().with_static(ctrl.statics.clone())).unwrap();
    let switches = oracle
        .switches
        .iter()
        .map(|sc| Switch::new(&ctrl.statics, sc.compiled.pipeline.clone(), SwitchConfig::default()))
        .collect();
    let mut oracle_net = Network::new(net.clone(), switches);

    let n = net.switch_count();
    assert_eq!(oracle.distinct_compiles, n, "the baseline compiles every switch");
    for s in 0..n {
        let (got, want) = (&d.compile.switches[s], &oracle.switches[s]);
        assert_eq!(got.fingerprint, want.fingerprint, "{policy:?} switch {s}");
        assert_eq!(got.entries, want.entries, "{policy:?} switch {s}");
        assert_eq!(
            d.network.switches[s].pipeline(),
            &want.compiled.pipeline,
            "{policy:?} switch {s}: installed pipeline"
        );
    }

    // One compile and one program per distinct rule list.
    let fps: Vec<u64> = d.compile.switches.iter().map(|sc| sc.fingerprint).collect();
    let distinct: HashSet<u64> = fps.iter().copied().collect();
    assert_eq!(d.compile.distinct_compiles, distinct.len(), "{policy:?}");
    assert!(distinct.len() < n, "{policy:?}: the full-mesh cores are twins");
    for a in 0..n {
        for b in a + 1..n {
            assert_eq!(
                Arc::ptr_eq(d.network.switches[a].program(), d.network.switches[b].program()),
                fps[a] == fps[b],
                "{policy:?}: switches {a} and {b} share a program iff their lists are equal"
            );
        }
    }

    // Sharing is invisible to traffic: same deliveries, and the same
    // counters on every switch.
    let got = deliveries(&mut d.network, &matrix(net.host_count()));
    assert_eq!(got, deliveries(&mut oracle_net, &matrix(net.host_count())), "{policy:?}");
    assert!(got.iter().any(|h| !h.is_empty()), "the matrix must deliver something");
    for s in 0..n {
        assert_eq!(
            d.network.switches[s].stats(),
            oracle_net.switches[s].stats(),
            "{policy:?} switch {s}: counters"
        );
    }
}

#[test]
fn deploy_matches_oracle_on_paper_fat_tree() {
    for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
        deploy_matches_per_switch_oracle(paper_fat_tree(), policy);
    }
}

#[test]
fn deploy_matches_oracle_on_72_switch_tree() {
    for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
        deploy_matches_per_switch_oracle(three_layer(8, 4, 4, 8, 4), policy);
    }
}

#[test]
fn admission_stays_per_switch_when_the_program_is_shared() {
    let net = three_layer(8, 4, 4, 8, 4);
    let subs = subs(&net);
    let cores: Vec<usize> =
        (0..net.switch_count()).filter(|&s| net.switches[s].layer == 2).collect();
    assert_eq!(cores.len(), 8);
    let tight = cores[3];

    // One core has no TCAM; the range filters every core carries need it.
    let mut ctrl = itch_controller(Policy::MemoryReduction);
    ctrl.budget_overrides
        .insert(tight, ResourceBudget { max_tcam_entries: 0, ..ResourceBudget::unlimited() });
    let d = ctrl.deploy(net.clone(), &subs).expect("degraded deploy succeeds");
    let fp = d.compile.switches[tight].fingerprint;
    assert!(cores.iter().all(|&c| d.compile.switches[c].fingerprint == fp), "cores are twins");

    // That core alone runs the coarse pipeline...
    assert_eq!(d.degraded.iter().copied().collect::<Vec<_>>(), vec![tight]);
    let degraded: Vec<usize> = d
        .report
        .switches
        .iter()
        .filter(|s| s.verdict == AdmissionVerdict::Degraded)
        .map(|s| s.switch)
        .collect();
    assert_eq!(degraded, vec![tight]);
    assert!(d.network.switches[tight].pipeline().stages.is_empty());
    // ...while its seven twins share the precise program.
    let precise = &d.compile.switches[tight].compiled.pipeline;
    let twins: Vec<usize> = cores.iter().copied().filter(|&c| c != tight).collect();
    for &c in &twins {
        assert_eq!(d.report.switches[c].verdict, AdmissionVerdict::Admitted);
        assert_eq!(d.network.switches[c].pipeline(), precise);
        assert!(Arc::ptr_eq(
            d.network.switches[c].program(),
            d.network.switches[twins[0]].program()
        ));
        assert!(!Arc::ptr_eq(d.network.switches[c].program(), d.network.switches[tight].program()));
    }

    // Without degradation the transaction is refused, naming only it.
    ctrl.degrade_over_budget = false;
    match ctrl.deploy(net, &subs) {
        Err(DeployError::Admission { rejected, report }) => {
            assert_eq!(rejected.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![tight]);
            for e in &report.switches {
                let refused = matches!(e.verdict, AdmissionVerdict::Rejected(_));
                assert_eq!(refused, e.switch == tight, "switch {}", e.switch);
            }
            assert_eq!(report.committed(), 0);
        }
        other => panic!("expected admission rejection, got {:?}", other.err()),
    }
}
