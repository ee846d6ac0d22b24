//! Definitional oracle for Algorithm 1.
//!
//! The router propagates filter sets bottom-up; this test never
//! propagates anything. For every switch and port it computes `F_p^s`
//! straight from the definition — the subscriptions of the hosts the
//! distribution tree serves through that port
//! (`designated_through_masked`, `designated_below_masked`,
//! `host_attached`), widened once per layer ascended when α > 1 — and
//! requires the routed rule list to hold exactly that set of `Expr`,
//! once each. It also requires the `O(ports)` fingerprint to equal a
//! recomputation over the materialised rule list.
//!
//! Only `switch_rules`, `switch_fingerprint` and `fingerprint_rules`
//! are consulted, so the oracle is independent of how the router
//! represents its sets.

use camus_lang::approx::{approximate_expr, ApproxConfig};
use camus_lang::ast::{Action, Expr, Port};
use camus_lang::parser::parse_expr;
use camus_routing::algorithm1::{route_hierarchical_degraded, Policy, RoutingConfig};
use camus_routing::compile::fingerprint_rules;
use camus_routing::topology::{
    paper_fat_tree, three_layer, DownTarget, FaultMask, HierNet, LOGICAL_UP,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A small pool, so hosts repeat filters within and across themselves;
/// the `price` thresholds collapse under α = 10.
fn filter_pool() -> Vec<Expr> {
    [
        "id == 3",
        "id == 4",
        "price > 51",
        "price > 53",
        "price > 58",
        "price < 67",
        "stock == GOOGL",
        "stock == GOOGL and price > 52",
        "stock == MSFT or price < 61",
        "not (id == 3) and price >= 77",
    ]
    .iter()
    .map(|s| parse_expr(s).expect("pool filter parses"))
    .collect()
}

/// `f` as it appears `levels` layers above the access port.
fn widened(f: &Expr, alpha: i64, levels: usize) -> Expr {
    let mut f = f.clone();
    if alpha > 1 {
        for _ in 0..levels {
            f = approximate_expr(&f, ApproxConfig::new(alpha)).0;
        }
    }
    f
}

/// `F_p^s` for every port of `s`, by definition. Ports whose set is
/// empty are absent.
fn defined_sets(
    net: &HierNet,
    subs: &[Vec<Expr>],
    cfg: RoutingConfig,
    mask: &FaultMask,
    s: usize,
) -> HashMap<Port, HashSet<Expr>> {
    let sw = &net.switches[s];
    let mut out: HashMap<Port, HashSet<Expr>> = HashMap::new();
    for (port, target) in sw.down.iter().enumerate() {
        let port = port as Port;
        let set: HashSet<Expr> = match target {
            // Access ports are exact (soundness).
            DownTarget::Host(h) if net.host_attached(*h, mask) => {
                subs[*h].iter().cloned().collect()
            }
            DownTarget::Host(_) => HashSet::new(),
            DownTarget::Switch(..) => net
                .designated_through_masked(s, port, mask)
                .into_iter()
                .flat_map(|h| subs[h].iter().map(|f| widened(f, cfg.alpha, sw.layer)))
                .collect(),
        };
        out.insert(port, set);
    }
    if !sw.up.is_empty() && net.designated_up_masked(s, mask).is_some() {
        let up: HashSet<Expr> = match cfg.policy {
            Policy::MemoryReduction => HashSet::from([Expr::True]),
            Policy::TrafficReduction => {
                let below = net.designated_below_masked(s, mask);
                (0..net.host_count())
                    .filter(|h| !below.contains(h) && net.host_attached(*h, mask))
                    .flat_map(|h| subs[h].iter().map(|f| widened(f, cfg.alpha, 1)))
                    .collect()
            }
        };
        out.insert(LOGICAL_UP, up);
    }
    out.retain(|_, set| !set.is_empty());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn routed_sets_equal_their_definition(
        paper in any::<bool>(),
        tr in any::<bool>(),
        approximate in any::<bool>(),
        picks in proptest::collection::vec((0usize..64, 0usize..10), 0..40),
        dead_switches in proptest::collection::vec(0usize..64, 0..3),
        dead_links in proptest::collection::vec(0usize..256, 0..4),
    ) {
        let net = if paper { paper_fat_tree() } else { three_layer(3, 2, 2, 3, 2) };
        let policy = if tr { Policy::TrafficReduction } else { Policy::MemoryReduction };
        let cfg = RoutingConfig::new(policy).with_alpha(if approximate { 10 } else { 1 });

        let pool = filter_pool();
        let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); net.host_count()];
        for &(h, f) in &picks {
            subs[h % net.host_count()].push(pool[f].clone());
        }

        let links: Vec<(usize, Port)> = (0..net.switch_count())
            .flat_map(|s| (0..net.switches[s].down.len()).map(move |p| (s, p as Port)))
            .collect();
        let mut mask = FaultMask::new();
        for &s in &dead_switches {
            mask.fail_switch(s % net.switch_count());
        }
        for &l in &dead_links {
            let (s, p) = links[l % links.len()];
            mask.fail_link(s, p);
        }

        let r = route_hierarchical_degraded(&net, &subs, cfg, &mask);
        for s in 0..net.switch_count() {
            let rules = r.switch_rules(s);
            let mut routed: HashMap<Port, HashSet<Expr>> = HashMap::new();
            for rule in &rules {
                let Action::Forward(ports) = &rule.action else {
                    panic!("switch {s}: routed rule does not forward: {rule:?}");
                };
                prop_assert_eq!(ports.len(), 1, "switch {}: one port per routed rule", s);
                prop_assert!(
                    routed.entry(ports[0]).or_default().insert(rule.filter.clone()),
                    "switch {} port {}: {:?} listed twice", s, ports[0], rule.filter
                );
            }
            prop_assert_eq!(
                &routed,
                &defined_sets(&net, &subs, cfg, &mask, s),
                "{:?} alpha={} switch {} under {:?}", policy, cfg.alpha, s, mask
            );
            prop_assert_eq!(
                fingerprint_rules(&rules),
                r.switch_fingerprint(s),
                "switch {} fingerprint", s
            );
        }
    }
}
