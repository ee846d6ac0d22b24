//! The definitional oracle.
//!
//! Camus promises that a packet reaches exactly the ports — and, across
//! a network, exactly the hosts — whose subscriptions it satisfies. The
//! oracle states that promise in the plainest way available: evaluate
//! every filter on the packet's attribute values with
//! [`Expr::eval_with`]. It shares no code with the compiler, the BDD,
//! the tables or the fast path it checks.

use camus_dataplane::{Packet, SwitchOutput};
use camus_lang::ast::{Action, Expr, Operand, Port, Rule};
use camus_lang::spec::Spec;
use camus_lang::value::Value;
use camus_net::Network;
use std::collections::{BTreeMap, HashMap};

/// Whether `filter` holds on named attribute values.
pub fn matches(filter: &Expr, fields: &HashMap<String, Value>) -> bool {
    filter.eval_with(|op: &Operand| match op {
        Operand::Field(name) => fields.get(name).cloned(),
        Operand::Aggregate { .. } => None,
    })
}

fn as_map(values: &[(String, Value)]) -> HashMap<String, Value> {
    values.iter().cloned().collect()
}

/// The attribute maps a switch evaluates for `pkt`: one per batched
/// message, or the stack attributes when the application has none.
fn messages(spec: &Spec, pkt: &Packet) -> Vec<HashMap<String, Value>> {
    let n = pkt.message_count(spec);
    if n > 0 {
        return (0..n).filter_map(|i| pkt.message(spec, i)).collect();
    }
    let mut stack = HashMap::new();
    for name in &spec.sequence {
        stack.extend(pkt.stack_header(spec, name).unwrap_or_default());
    }
    vec![stack]
}

/// Per egress port, the indices of the messages of `pkt` that some
/// rule forwards there. A message never returns to its ingress port.
pub fn expected_egress(
    spec: &Spec,
    rules: &[Rule],
    pkt: &Packet,
    ingress: Port,
) -> BTreeMap<Port, Vec<usize>> {
    let mut out: BTreeMap<Port, Vec<usize>> = BTreeMap::new();
    for (index, fields) in messages(spec, pkt).iter().enumerate() {
        for rule in rules {
            let Action::Forward(ports) = &rule.action else { continue };
            if !matches(&rule.filter, fields) {
                continue;
            }
            for &p in ports.iter().filter(|&&p| p != ingress) {
                let kept = out.entry(p).or_default();
                if kept.last() != Some(&index) {
                    kept.push(index);
                }
            }
        }
    }
    out
}

/// Whether `out` carries exactly `expected`: the same ports, and on
/// each port exactly the expected messages, field for field.
pub fn egress_agrees(
    spec: &Spec,
    pkt: &Packet,
    out: &SwitchOutput,
    expected: &BTreeMap<Port, Vec<usize>>,
) -> bool {
    if out.ports.len() != expected.len() {
        return false;
    }
    let original = messages(spec, pkt);
    out.ports.iter().all(|(port, copy)| {
        let Some(kept) = expected.get(port) else { return false };
        let got = messages(spec, copy);
        got.len() == kept.len() && kept.iter().zip(&got).all(|(&i, m)| original[i] == *m)
    })
}

/// Whether two outputs forward the same bytes to the same ports.
pub fn same_egress(a: &SwitchOutput, b: &SwitchOutput) -> bool {
    a.ports.len() == b.ports.len()
        && a.ports
            .iter()
            .zip(&b.ports)
            .all(|((pa, ca), (pb, cb))| pa == pb && ca.bytes.as_slice() == cb.bytes.as_slice())
}

/// Every host other than the publisher with a subscription the values
/// satisfy.
pub fn expected_hosts(
    subs: &[Vec<Expr>],
    values: &[(String, Value)],
    publisher: usize,
) -> Vec<usize> {
    let fields = as_map(values);
    (0..subs.len())
        .filter(|&h| h != publisher && subs[h].iter().any(|f| matches(f, &fields)))
        .collect()
}

/// Publish `packet` from `publisher` at a fresh time stamp, run the
/// network to quiescence, and compare the hosts it reached with
/// `expected`. True when no host was missed, reached twice, or
/// reached without a matching subscription.
pub fn probe_delivers(
    net: &mut Network,
    publisher: usize,
    packet: Packet,
    expected: &[usize],
) -> bool {
    let hosts = net.topology.host_count();
    let seen: Vec<usize> = (0..hosts).map(|h| net.deliveries(h).len()).collect();
    let at = net.now_ns() + 1;
    let _ = net.publish(publisher, packet, at);
    net.run(None);
    (0..hosts).all(|h| {
        let n = net.deliveries(h)[seen[h]..].iter().filter(|d| d.published_ns == at).count();
        n == usize::from(expected.contains(&h))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_dataplane::PacketBuilder;
    use camus_lang::parser::{parse_expr, parse_rule};
    use camus_lang::spec::{int_spec, itch_spec};

    #[test]
    fn stack_only_packets_evaluate_their_stack_attributes() {
        let spec = int_spec();
        let rules = vec![
            parse_rule("switch_id == 2 and hop_latency > 100: fwd(3)").unwrap(),
            parse_rule("switch_id == 2: fwd(4)").unwrap(),
            parse_rule("switch_id == 9: fwd(5)").unwrap(),
        ];
        let pkt = PacketBuilder::new(&spec)
            .stack_field("int_report", "switch_id", 2)
            .stack_field("int_report", "hop_latency", 50)
            .build();
        let want = expected_egress(&spec, &rules, &pkt, 0);
        assert_eq!(want.keys().copied().collect::<Vec<_>>(), vec![4]);
        // A message never returns to its ingress port.
        assert!(expected_egress(&spec, &rules, &pkt, 4).is_empty());
    }

    #[test]
    fn batched_packets_keep_matching_messages_per_port() {
        let spec = itch_spec();
        let rules = vec![
            parse_rule("stock == GOOGL and price > 100: fwd(1)").unwrap(),
            parse_rule("stock == GOOGL and price > 500: fwd(2)").unwrap(),
        ];
        let msg = |stock: &str, price: i64| {
            vec![
                ("stock".to_string(), Value::from(stock)),
                ("price".to_string(), Value::Int(price)),
            ]
        };
        let pkt = PacketBuilder::new(&spec)
            .message(msg("GOOGL", 600))
            .message(msg("MSFT", 900))
            .message(msg("GOOGL", 200))
            .build();
        let want = expected_egress(&spec, &rules, &pkt, 0);
        assert_eq!(want[&1], vec![0, 2]);
        assert_eq!(want[&2], vec![0]);
    }

    #[test]
    fn expected_hosts_excludes_the_publisher() {
        let subs = vec![
            vec![parse_expr("id == 7").unwrap()],
            vec![parse_expr("id == 7 and price > 10").unwrap()],
            vec![parse_expr("id == 8").unwrap()],
        ];
        let values = vec![("id".to_string(), Value::Int(7)), ("price".to_string(), Value::Int(5))];
        assert_eq!(expected_hosts(&subs, &values, 2), vec![0]);
        assert_eq!(expected_hosts(&subs, &values, 0), Vec::<usize>::new());
    }
}
