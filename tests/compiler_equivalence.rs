//! Cross-crate property tests: the compiled pipeline must agree with
//! direct evaluation of the source rules, for arbitrary generated rule
//! sets and packets — the end-to-end correctness statement of the
//! compiler (language → DNF → BDD → tables).

use camus_core::compiler::Compiler;
use camus_core::VarOrder;
use camus_lang::ast::{Action, Expr, Operand, Predicate, Rel, Rule};
use camus_lang::value::Value;
use camus_oracle::expected_ports;
use proptest::prelude::*;

/// Strategy: an atomic predicate over a small typed universe.
fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let int_field = prop_oneof![Just("price"), Just("shares"), Just("qty")];
    let str_field = prop_oneof![Just("stock"), Just("venue")];
    let int_rel = prop_oneof![
        Just(Rel::Eq),
        Just(Rel::Ne),
        Just(Rel::Lt),
        Just(Rel::Le),
        Just(Rel::Gt),
        Just(Rel::Ge)
    ];
    let str_rel = prop_oneof![Just(Rel::Eq), Just(Rel::Ne), Just(Rel::Prefix)];
    let sym = prop_oneof![Just("AA"), Just("AAPL"), Just("GOOGL"), Just("GO"), Just("MSFT")];
    prop_oneof![
        (int_field, int_rel, -5i64..15).prop_map(|(f, r, c)| Predicate::field(f, r, c)),
        (str_field, str_rel, sym).prop_map(|(f, r, s)| Predicate::field(f, r, s)),
    ]
}

/// Strategy: a filter expression of bounded depth.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf =
        prop_oneof![arb_predicate().prop_map(Expr::Atom), Just(Expr::True), Just(Expr::False),];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

fn arb_rules() -> impl Strategy<Value = Vec<Rule>> {
    prop::collection::vec(arb_expr(), 1..10).prop_map(|filters| {
        filters
            .into_iter()
            .enumerate()
            .map(|(i, filter)| Rule { filter, action: Action::Forward(vec![i as u16 + 1]) })
            .collect()
    })
}

/// The universe's fields, in the order a spec would declare them.
const FIELDS: [&str; 5] = ["price", "shares", "qty", "stock", "venue"];

/// Strategy: a field order — a random permutation pinned verbatim, the
/// declaration order as a tie-break fitted to each rule list, or none
/// (first appearance).
fn arb_order() -> impl Strategy<Value = VarOrder> {
    let n = FIELDS.len();
    prop_oneof![
        prop::collection::vec(any::<u64>(), n..n + 1).prop_map(|draws| {
            let mut keyed: Vec<(u64, &str)> = draws.into_iter().zip(FIELDS).collect();
            keyed.sort_unstable();
            VarOrder::from_keys(keyed.into_iter().map(|(_, f)| f))
        }),
        Just(VarOrder::tie_break(FIELDS)),
        Just(VarOrder::empty()),
    ]
}

/// Strategy: a full packet assignment over the universe.
fn arb_packet() -> impl Strategy<Value = Vec<(String, Value)>> {
    let sym =
        prop_oneof![Just("AA"), Just("AAPL"), Just("GOOGL"), Just("GO"), Just("MSFT"), Just("ZZZ")];
    (-6i64..16, -6i64..16, -6i64..16, sym.clone(), sym).prop_map(|(p, s, q, st, v)| {
        vec![
            ("price".to_string(), Value::Int(p)),
            ("shares".to_string(), Value::Int(s)),
            ("qty".to_string(), Value::Int(q)),
            ("stock".to_string(), Value::Str(st.to_string())),
            ("venue".to_string(), Value::Str(v.to_string())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For any rule set, any field order and any packet, the pipeline's
    /// forwarding decision equals the union of ports of directly-matching
    /// rules: the order may change what the tables cost, never what they
    /// do.
    #[test]
    fn pipeline_equals_direct_evaluation(
        rules in arb_rules(),
        order in arb_order(),
        packets in prop::collection::vec(arb_packet(), 1..12),
    ) {
        let compiled = Compiler::new().with_order(order.clone()).compile(&rules).unwrap();
        for pkt in &packets {
            let lookup = |op: &Operand| {
                pkt.iter().find(|(n, _)| *n == op.key()).map(|(_, v)| v.clone())
            };
            let got = compiled.pipeline.evaluate(lookup);
            let got_ports = got.ports().map(<[u16]>::to_vec).unwrap_or_default();
            prop_assert_eq!(
                got_ports, expected_ports(&rules, pkt), "packet {:?} order {:?}", pkt, order
            );
        }
    }

    /// The BDD and the pipeline agree (tables are a faithful encoding
    /// of the diagram).
    #[test]
    fn tables_encode_bdd(
        rules in arb_rules(),
        packets in prop::collection::vec(arb_packet(), 1..8),
    ) {
        let compiled = Compiler::new().compile(&rules).unwrap();
        for pkt in &packets {
            let lookup = |op: &Operand| {
                pkt.iter().find(|(n, _)| *n == op.key()).map(|(_, v)| v.clone())
            };
            let matched = compiled.bdd.eval(lookup);
            let mut want: Vec<u16> = matched
                .iter()
                .flat_map(|&label| {
                    compiled.bdd.label(label).ports().unwrap().to_vec()
                })
                .collect();
            want.sort_unstable();
            want.dedup();
            let got = compiled.pipeline.evaluate(lookup);
            let got_ports = got.ports().map(<[u16]>::to_vec).unwrap_or_default();
            prop_assert_eq!(got_ports, want);
        }
    }

    /// α-approximation at the compiler level: the approximated rule
    /// set matches a superset of packets.
    #[test]
    fn approximation_is_complete(
        rules in arb_rules(),
        packets in prop::collection::vec(arb_packet(), 1..8),
        alpha in 2i64..20,
    ) {
        use camus_lang::approx::{approximate_expr, ApproxConfig};
        let cfg = ApproxConfig::new(alpha);
        let approx: Vec<Rule> = rules
            .iter()
            .map(|r| Rule { filter: approximate_expr(&r.filter, cfg), action: r.action.clone() })
            .collect();
        let exact_c = Compiler::new().compile(&rules).unwrap();
        let approx_c = Compiler::new().compile(&approx).unwrap();
        for pkt in &packets {
            let lookup = |op: &Operand| {
                pkt.iter().find(|(n, _)| *n == op.key()).map(|(_, v)| v.clone())
            };
            let exact_ports = exact_c
                .pipeline
                .evaluate(lookup)
                .ports()
                .map(<[u16]>::to_vec)
                .unwrap_or_default();
            let approx_ports = approx_c
                .pipeline
                .evaluate(lookup)
                .ports()
                .map(<[u16]>::to_vec)
                .unwrap_or_default();
            for p in &exact_ports {
                prop_assert!(
                    approx_ports.contains(p),
                    "approximation lost port {} (α={}): exact {:?} approx {:?}",
                    p, alpha, exact_ports, approx_ports
                );
            }
        }
    }
}
