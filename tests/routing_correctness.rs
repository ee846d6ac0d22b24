//! Network-level correctness: on randomised hierarchical topologies
//! and subscription sets, every published message is delivered to
//! exactly the interested hosts — no loss, no duplicates, no spurious
//! deliveries — under both routing policies and under
//! α-approximation; and the static §IV-C checkers agree.
//!
//! The checkers live here, their only caller. A policy is correct
//! when, for every switch `s` and port `p`:
//!
//! * **completeness** — `F_p^s` matches a *superset* of the packets
//!   identified by the subscriptions of the hosts reachable from `s`
//!   through `p`, and
//! * **soundness** — when `p` leads directly to a host `h`, `F_p^s`
//!   matches *exactly* the packets `h` subscribed to.
//!
//! Filter equivalence is undecidable to check symbolically in general
//! (filters are arbitrary boolean combinations), so the checkers
//! evaluate both sides on a packet sample: sound counterexamples and,
//! with a dense sample, strong evidence of correctness.

use camus_core::statics::compile_static;
use camus_dataplane::PacketBuilder;
use camus_lang::ast::{Expr, Predicate, Rel};
use camus_lang::parser::parse_expr;
use camus_lang::spec::Spec;
use camus_lang::value::Value;
use camus_net::controller::Controller;
use camus_oracle::{expected_hosts, expected_ports};
use camus_routing::algorithm1::{route_hierarchical, Policy, RoutingConfig, RoutingResult};
use camus_routing::topology::{
    paper_fat_tree, three_layer, DownTarget, FaultMask, HierNet, LOGICAL_UP,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A sample packet: attribute assignments, one per field.
type SamplePacket = Vec<(String, Value)>;

/// A violated condition, as a counterexample.
#[derive(Debug, Clone, PartialEq)]
enum Violation {
    /// A host's subscription matched a packet that the port's filter
    /// set missed.
    Incomplete { switch: usize, port: u16, host: usize, packet: SamplePacket },
    /// An access port matched a packet the host did not subscribe to.
    Unsound { switch: usize, port: u16, host: usize, packet: SamplePacket },
}

/// Check completeness and soundness of a hierarchical routing result
/// over a packet sample. Returns every violation found.
fn check_policy(
    net: &HierNet,
    subs: &[Vec<Expr>],
    result: &RoutingResult,
    sample: &[SamplePacket],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let healthy = FaultMask::default();
    for (sid, sw) in net.switches.iter().enumerate() {
        // Ports to check: every down port plus the logical up port,
        // each with the hosts it reaches on the distribution tree. A
        // down port serves the hosts designated through it; the up port
        // serves the hosts outside the designated subtree.
        let mut ports: Vec<(u16, Vec<usize>)> = (0..sw.down.len() as u16)
            .map(|p| (p, net.designated_through_masked(sid, p, &healthy)))
            .collect();
        if !sw.up.is_empty() {
            let below = net.designated_below_masked(sid, &healthy);
            ports
                .push((LOGICAL_UP, (0..net.host_count()).filter(|h| !below.contains(h)).collect()));
        }
        let rules = result.switch_rules(sid);
        for pkt in sample {
            let interested = expected_hosts(subs, pkt, None);
            let forwarded = expected_ports(&rules, pkt);
            for (port, reachable) in &ports {
                let port = *port;
                let port_match = forwarded.contains(&port);
                // Completeness: any reachable host's subscription match
                // must be covered.
                for &h in reachable {
                    if interested.contains(&h) && !port_match {
                        violations.push(Violation::Incomplete {
                            switch: sid,
                            port,
                            host: h,
                            packet: pkt.clone(),
                        });
                    }
                }
                // Soundness: only at host-facing (access) ports.
                if let Some(DownTarget::Host(h)) = sw.down.get(port as usize) {
                    if port_match && !interested.contains(h) {
                        violations.push(Violation::Unsound {
                            switch: sid,
                            port,
                            host: *h,
                            packet: pkt.clone(),
                        });
                    }
                }
            }
        }
    }
    violations
}

/// Build a packet sample that exercises every constant mentioned in the
/// subscriptions: for each integer field, the boundary constants ±1;
/// for each string field, each constant plus a fresh non-matching
/// value. The cross product is capped to keep checking cheap.
fn boundary_sample(subs: &[Vec<Expr>], cap: usize) -> Vec<SamplePacket> {
    let mut int_vals: HashMap<String, Vec<i64>> = HashMap::new();
    let mut str_vals: HashMap<String, Vec<String>> = HashMap::new();
    let mut visit = |p: &Predicate| {
        let key = p.operand.key();
        match &p.constant {
            Value::Int(c) => {
                let v = int_vals.entry(key).or_default();
                // A neighbour beyond the `i64` range does not exist.
                for x in [c.checked_sub(1), Some(*c), c.checked_add(1)].into_iter().flatten() {
                    if !v.contains(&x) {
                        v.push(x);
                    }
                }
            }
            Value::Str(s) => {
                let v = str_vals.entry(key).or_default();
                if !v.contains(s) {
                    v.push(s.clone());
                }
                let other = format!("~{s}");
                if !v.contains(&other) {
                    v.push(other);
                }
            }
        }
    };
    fn walk(e: &Expr, f: &mut impl FnMut(&Predicate)) {
        match e {
            Expr::Atom(p) => f(p),
            Expr::Not(x) => walk(x, f),
            Expr::And(a, b) | Expr::Or(a, b) => {
                walk(a, f);
                walk(b, f);
            }
            _ => {}
        }
    }
    for host in subs {
        for filter in host {
            walk(filter, &mut visit);
        }
    }
    // Cross product, capped.
    let mut sample: Vec<SamplePacket> = vec![Vec::new()];
    let extend_with = |sample: Vec<SamplePacket>, key: &str, vals: Vec<Value>, cap: usize| {
        let mut next = Vec::new();
        for pkt in &sample {
            for v in &vals {
                let mut p = pkt.clone();
                p.push((key.to_string(), v.clone()));
                next.push(p);
                if next.len() >= cap {
                    return next;
                }
            }
        }
        next
    };
    let mut keys: Vec<String> = int_vals.keys().chain(str_vals.keys()).cloned().collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let mut vals: Vec<Value> = Vec::new();
        if let Some(is) = int_vals.get(&key) {
            vals.extend(is.iter().map(|&i| Value::Int(i)));
        }
        if let Some(ss) = str_vals.get(&key) {
            vals.extend(ss.iter().map(|s| Value::Str(s.clone())));
        }
        sample = extend_with(sample, &key, vals, cap);
    }
    sample
}

fn test_spec() -> Spec {
    Spec::parse(
        "header msg { @field bit<32> kind; @field bit<32> level; @field_exact str<8> tag; }\n\
         sequence msg",
    )
    .unwrap()
}

fn random_topology(rng: &mut StdRng) -> HierNet {
    three_layer(
        rng.gen_range(2..4), // pods
        rng.gen_range(1..3), // tors per pod
        rng.gen_range(1..3), // aggs per pod
        rng.gen_range(1..3), // cores
        rng.gen_range(1..3), // hosts per tor
    )
}

fn random_subs(rng: &mut StdRng, hosts: usize) -> Vec<Vec<Expr>> {
    (0..hosts)
        .map(|_| {
            (0..rng.gen_range(0..3))
                .map(|_| {
                    let mut parts = Vec::new();
                    if rng.gen_bool(0.6) {
                        parts.push(format!("kind == {}", rng.gen_range(0..4)));
                    }
                    if rng.gen_bool(0.6) {
                        let rel = ["<", ">", "=="][rng.gen_range(0..3)];
                        parts.push(format!("level {rel} {}", rng.gen_range(0..10)));
                    }
                    if rng.gen_bool(0.3) {
                        parts.push(format!("tag == T{}", rng.gen_range(0..3)));
                    }
                    if parts.is_empty() {
                        parts.push("kind == 0".into());
                    }
                    parse_expr(&parts.join(" and ")).unwrap()
                })
                .collect()
        })
        .collect()
}

fn random_packet(rng: &mut StdRng) -> Vec<(String, Value)> {
    vec![
        ("kind".to_string(), Value::Int(rng.gen_range(0..5))),
        // Wire fields are unsigned: keep generated values in range.
        ("level".to_string(), Value::Int(rng.gen_range(0..11))),
        ("tag".to_string(), Value::Str(format!("T{}", rng.gen_range(0..4)))),
    ]
}

#[test]
fn simulation_delivers_exactly_to_interested_hosts() {
    let spec = test_spec();
    let statics = compile_static(&spec).unwrap();
    let mut rng = StdRng::seed_from_u64(0xE2E);
    for trial in 0..12 {
        let net = random_topology(&mut rng);
        let subs = random_subs(&mut rng, net.host_count());
        for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
            let controller = Controller::new(statics.clone(), RoutingConfig::new(policy));
            let mut d = controller.deploy(net.clone(), &subs).unwrap();
            // Publish several packets from random hosts.
            let mut expected: Vec<Vec<usize>> = Vec::new(); // per packet: hosts
            for p in 0..6 {
                let vals = random_packet(&mut rng);
                let publisher = rng.gen_range(0..net.host_count());
                expected.push(expected_hosts(&subs, &vals, Some(publisher)));
                let mut b = PacketBuilder::new(&spec);
                for (f, v) in &vals {
                    b = b.stack_field("msg", f, v.clone());
                }
                d.network.publish(publisher, b.build(), p as u64 * 1_000_000);
            }
            d.network.run(None);
            // Exactly-once delivery to exactly the interested hosts.
            let mut want_per_host = vec![0usize; net.host_count()];
            for hosts in &expected {
                for &h in hosts {
                    want_per_host[h] += 1;
                }
            }
            for (h, &want) in want_per_host.iter().enumerate() {
                assert_eq!(
                    d.network.deliveries(h).len(),
                    want,
                    "trial {trial} {policy:?} host {h} (topology: {} sw / {} hosts)",
                    net.switch_count(),
                    net.host_count()
                );
            }
        }
    }
}

#[test]
fn policies_pass_static_checkers_on_random_topologies() {
    let mut rng = StdRng::seed_from_u64(0x51A71C);
    for _ in 0..8 {
        let net = random_topology(&mut rng);
        let subs = random_subs(&mut rng, net.host_count());
        let sample = boundary_sample(&subs, 1_500);
        for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
            for alpha in [1, 10] {
                let r =
                    route_hierarchical(&net, &subs, RoutingConfig::new(policy).with_alpha(alpha));
                let v = check_policy(&net, &subs, &r, &sample);
                assert!(v.is_empty(), "{policy:?} α={alpha}: {v:?}");
            }
        }
    }
}

#[test]
fn approximated_routing_still_delivers_everything() {
    // Completeness survives α in the *running network*, not just the
    // checker: every interested host still gets its messages (possibly
    // with extra traffic, never less).
    let spec = test_spec();
    let statics = compile_static(&spec).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA1FA);
    let net = three_layer(3, 2, 2, 2, 2);
    let subs = random_subs(&mut rng, net.host_count());
    for alpha in [1i64, 10, 100] {
        let controller = Controller::new(
            statics.clone(),
            RoutingConfig::new(Policy::TrafficReduction).with_alpha(alpha),
        );
        let mut d = controller.deploy(net.clone(), &subs).unwrap();
        let mut expected = 0usize;
        for p in 0..10 {
            let vals = random_packet(&mut rng);
            let publisher = p % net.host_count();
            expected += expected_hosts(&subs, &vals, Some(publisher)).len();
            let mut b = PacketBuilder::new(&spec);
            for (f, v) in &vals {
                b = b.stack_field("msg", f, v.clone());
            }
            d.network.publish(publisher, b.build(), p as u64 * 1_000_000);
        }
        d.network.run(None);
        let delivered: usize = (0..net.host_count()).map(|h| d.network.deliveries(h).len()).sum();
        assert_eq!(delivered, expected, "α={alpha} must not lose deliveries");
    }
}

#[test]
fn switch_failure_recovery_via_redeploy() {
    // A failed aggregation switch is handled the way the paper's
    // controller handles topology change (§VIII-G.3): recompute the
    // policy on the surviving topology and reinstall.
    let spec = test_spec();
    let statics = compile_static(&spec).unwrap();
    // "Fail" agg redundancy by deploying on a single-agg-per-pod
    // variant of the same pod structure — the reachable topology after
    // the failure.
    let degraded = three_layer(2, 2, 1, 2, 2);
    let subs: Vec<Vec<Expr>> = (0..degraded.host_count())
        .map(|h| vec![parse_expr(&format!("kind == {h}")).unwrap()])
        .collect();
    let controller = Controller::new(statics, RoutingConfig::new(Policy::TrafficReduction));
    let mut d = controller.deploy(degraded.clone(), &subs).unwrap();
    // Cross-pod delivery still works with only one agg per pod.
    let target = degraded.host_count() - 1;
    let spec2 = test_spec();
    let b = PacketBuilder::new(&spec2).stack_field("msg", "kind", target as i64);
    d.network.publish(0, b.build(), 0);
    d.network.run(None);
    assert_eq!(d.network.deliveries(target).len(), 1);
}

// --- The checkers on the paper's topology ---

fn heterogeneous_subs(n: usize) -> Vec<Vec<Expr>> {
    (0..n)
        .map(|h| {
            let mut v = vec![parse_expr(&format!("id == {h}")).unwrap()];
            if h % 3 == 0 {
                v.push(parse_expr(&format!("price > {}", h * 7 + 3)).unwrap());
            }
            if h % 4 == 0 {
                v.push(parse_expr(&format!("stock == S{h}")).unwrap());
            }
            v
        })
        .collect()
}

#[test]
fn boundary_sample_contains_boundaries() {
    let subs = vec![vec![parse_expr("price > 50").unwrap()]];
    let sample = boundary_sample(&subs, 100);
    let prices: Vec<i64> = sample
        .iter()
        .flatten()
        .filter(|(k, _)| k == "price")
        .filter_map(|(_, v)| v.as_int())
        .collect();
    assert!(prices.contains(&49) && prices.contains(&50) && prices.contains(&51));
}

#[test]
fn boundary_sample_survives_extreme_constants() {
    // `c - 1` / `c + 1` used to overflow (a debug-build panic) on
    // the extremes; the neighbour that does not exist is dropped.
    let subs = vec![vec![
        Expr::Atom(Predicate::field("lo", Rel::Ge, i64::MIN)),
        Expr::Atom(Predicate::field("hi", Rel::Le, i64::MAX)),
    ]];
    let sample = boundary_sample(&subs, 100);
    let values = |key: &str| -> Vec<i64> {
        let mut v: Vec<i64> = sample
            .iter()
            .flatten()
            .filter(|(k, _)| k == key)
            .filter_map(|(_, v)| v.as_int())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    assert_eq!(values("lo"), [i64::MIN, i64::MIN + 1]);
    assert_eq!(values("hi"), [i64::MAX - 1, i64::MAX]);
}

#[test]
fn both_policies_are_correct_on_paper_topology() {
    let net = paper_fat_tree();
    let subs = heterogeneous_subs(net.host_count());
    let sample = boundary_sample(&subs, 3000);
    assert!(!sample.is_empty());
    for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
        let r = route_hierarchical(&net, &subs, RoutingConfig::new(policy));
        let v = check_policy(&net, &subs, &r, &sample);
        assert!(v.is_empty(), "{policy:?}: {v:?}");
    }
}

#[test]
fn approximation_keeps_completeness_and_soundness() {
    let net = paper_fat_tree();
    let subs = heterogeneous_subs(net.host_count());
    let sample = boundary_sample(&subs, 3000);
    for alpha in [5, 10, 100] {
        let r = route_hierarchical(
            &net,
            &subs,
            RoutingConfig::new(Policy::TrafficReduction).with_alpha(alpha),
        );
        let v = check_policy(&net, &subs, &r, &sample);
        assert!(v.is_empty(), "alpha {alpha}: {v:?}");
    }
}

#[test]
fn detects_incompleteness() {
    let net = paper_fat_tree();
    let subs = heterogeneous_subs(net.host_count());
    let mut r = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::TrafficReduction));
    // Break it: clear a core switch's down sets.
    let core = 16;
    r.filters[core].clear();
    let sample = boundary_sample(&subs, 2000);
    let v = check_policy(&net, &subs, &r, &sample);
    assert!(v.iter().any(|x| matches!(x, Violation::Incomplete { switch, .. } if *switch == core)));
}

#[test]
fn detects_unsoundness() {
    let net = paper_fat_tree();
    let subs = heterogeneous_subs(net.host_count());
    let mut r = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::MemoryReduction));
    // Break it: host 0's access port also carries host 1's set.
    let (s, p) = net.access[0];
    let (s1, p1) = net.access[1];
    let theirs = r.filters[s1][&p1].clone();
    r.filters[s].insert(p, theirs);
    let sample = boundary_sample(&subs, 2000);
    let v = check_policy(&net, &subs, &r, &sample);
    assert!(v.iter().any(|x| matches!(x, Violation::Unsound { host: 0, .. })));
}
