//! Semantic verification of routing policies (§IV-C).
//!
//! A policy is correct when, for every switch `s` and port `p`:
//!
//! * **completeness** — `F_p^s` matches a *superset* of the packets
//!   identified by the subscriptions of the hosts reachable from `s`
//!   through `p`, and
//! * **soundness** — when `p` leads directly to a host `h`, `F_p^s`
//!   matches *exactly* the packets `h` subscribed to.
//!
//! Filter equivalence is undecidable to check symbolically in general
//! (filters are arbitrary boolean combinations), so the checkers here
//! evaluate both sides on a caller-supplied packet sample. This gives
//! sound counterexamples and, with a dense sample, strong evidence of
//! correctness. Tests and the simulator use it on exhaustive small
//! domains.

use crate::algorithm1::RoutingResult;
use crate::topology::{DownTarget, HierNet, LOGICAL_UP};
use camus_lang::ast::{Expr, Operand};
use camus_lang::value::Value;
use std::collections::HashMap;

/// A sample packet: attribute assignments.
pub type SamplePacket = HashMap<String, Value>;

fn matches_any<'a>(filters: impl IntoIterator<Item = &'a Expr>, pkt: &SamplePacket) -> bool {
    let lookup = |op: &Operand| pkt.get(&op.key()).cloned();
    filters.into_iter().any(|f| f.eval_with(lookup))
}

/// Hosts whose subscriptions match `witness`, the attribute values a
/// published packet carries, in host order. `publisher`, when given,
/// is left out: the network never loops a message back to its source.
pub fn matching_hosts(
    subs: &[Vec<Expr>],
    witness: &[(String, Value)],
    publisher: Option<usize>,
) -> Vec<usize> {
    let lookup = |op: &Operand| match op {
        Operand::Field(name) => witness.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone()),
        Operand::Aggregate { .. } => None,
    };
    subs.iter()
        .enumerate()
        .filter(|&(h, fs)| Some(h) != publisher && fs.iter().any(|f| f.eval_with(lookup)))
        .map(|(h, _)| h)
        .collect()
}

/// A violated condition, as a counterexample.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A host's subscription matched a packet that the port's filter
    /// set missed.
    Incomplete { switch: usize, port: u16, host: usize, packet: SamplePacket },
    /// An access port matched a packet the host did not subscribe to.
    Unsound { switch: usize, port: u16, host: usize, packet: SamplePacket },
}

/// Check completeness and soundness of a hierarchical routing result
/// over a packet sample. Returns every violation found.
pub fn check_policy(
    net: &HierNet,
    subs: &[Vec<Expr>],
    result: &RoutingResult,
    sample: &[SamplePacket],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (sid, sw) in net.switches.iter().enumerate() {
        // Ports to check: every down port plus the logical up port.
        let mut ports: Vec<u16> = (0..sw.down.len() as u16).collect();
        if !sw.up.is_empty() {
            ports.push(LOGICAL_UP);
        }
        for port in ports {
            let filters: Vec<&Expr> = result.port_filters(sid, port).collect();
            // Reachability on the distribution tree: a down port serves
            // the hosts designated through it; the up port serves the
            // hosts outside the designated subtree.
            let reachable: Vec<usize> = if port == LOGICAL_UP {
                let below: std::collections::HashSet<usize> =
                    net.designated_below(sid).into_iter().collect();
                (0..net.host_count()).filter(|h| !below.contains(h)).collect()
            } else {
                net.designated_through(sid, port)
            };
            for pkt in sample {
                let port_match = matches_any(filters.iter().copied(), pkt);
                // Completeness: any reachable host's subscription match
                // must be covered.
                for &h in &reachable {
                    if matches_any(&subs[h], pkt) && !port_match {
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
                    if port_match && !matches_any(&subs[*h], pkt) {
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
pub fn boundary_sample(subs: &[Vec<Expr>], cap: usize) -> Vec<SamplePacket> {
    use camus_lang::ast::Predicate;
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
    fn walk(e: &Expr, f: &mut impl FnMut(&camus_lang::ast::Predicate)) {
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
    let mut sample: Vec<SamplePacket> = vec![HashMap::new()];
    let extend_with = |sample: Vec<SamplePacket>, key: &str, vals: Vec<Value>, cap: usize| {
        let mut next = Vec::new();
        for pkt in &sample {
            for v in &vals {
                let mut p = pkt.clone();
                p.insert(key.to_string(), v.clone());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::{route_hierarchical, Policy, RoutingConfig};
    use crate::topology::paper_fat_tree;
    use camus_lang::ast::{Predicate, Rel};
    use camus_lang::parser::parse_expr;

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
    fn matching_hosts_leaves_out_the_publisher() {
        let subs: Vec<Vec<Expr>> = ["price > 10", "stock == GOOGL", "price > 99", "price > 10"]
            .iter()
            .map(|f| vec![parse_expr(f).unwrap()])
            .collect();
        let witness = vec![("price".to_string(), Value::Int(50))];
        assert_eq!(matching_hosts(&subs, &witness, None), vec![0, 3]);
        assert_eq!(matching_hosts(&subs, &witness, Some(3)), vec![0]);
        // A field the witness does not carry matches nothing.
        assert!(matching_hosts(&subs[1..2], &witness, None).is_empty());
    }

    #[test]
    fn boundary_sample_contains_boundaries() {
        let subs = vec![vec![parse_expr("price > 50").unwrap()]];
        let sample = boundary_sample(&subs, 100);
        let prices: Vec<i64> =
            sample.iter().filter_map(|p| p.get("price").and_then(|v| v.as_int())).collect();
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
            let mut v: Vec<i64> =
                sample.iter().filter_map(|p| p.get(key).and_then(|v| v.as_int())).collect();
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
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::Incomplete { switch, .. } if *switch == core)));
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
}
