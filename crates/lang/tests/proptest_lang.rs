//! Property-based tests for the language core: parser round-trips,
//! DNF semantic preservation, interval-set algebra, and approximation
//! soundness, over arbitrary generated inputs.

use camus_lang::approx::{approximate_expr, ApproxConfig};
use camus_lang::ast::{Expr, Operand, Predicate, Rel};
use camus_lang::dnf::to_dnf;
use camus_lang::parser::{parse_expr, parse_rule};
use camus_lang::sets::IntSet;
use camus_lang::value::Value;
use proptest::prelude::*;

fn arb_rel_int() -> impl Strategy<Value = Rel> {
    prop_oneof![
        Just(Rel::Eq),
        Just(Rel::Ne),
        Just(Rel::Lt),
        Just(Rel::Le),
        Just(Rel::Gt),
        Just(Rel::Ge)
    ]
}

fn arb_pred() -> impl Strategy<Value = Predicate> {
    let field = prop_oneof![Just("a"), Just("b"), Just("c")];
    let int_pred =
        (field, arb_rel_int(), -20i64..20).prop_map(|(f, r, c)| Predicate::field(f, r, c));
    let str_rel = prop_oneof![Just(Rel::Eq), Just(Rel::Ne), Just(Rel::Prefix)];
    let sym = prop_oneof![Just("x"), Just("xy"), Just("xyz"), Just("q")];
    let str_pred = (prop_oneof![Just("s"), Just("t")], str_rel, sym)
        .prop_map(|(f, r, c)| Predicate::field(f, r, c));
    prop_oneof![3 => int_pred, 1 => str_pred]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        4 => arb_pred().prop_map(Expr::Atom),
        1 => Just(Expr::True),
        1 => Just(Expr::False)
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Expr::not),
        ]
    })
}

fn arb_packet() -> impl Strategy<Value = Vec<(String, Value)>> {
    let sym = prop_oneof![Just("x"), Just("xy"), Just("xyz"), Just("q"), Just("zz")];
    (-25i64..25, -25i64..25, -25i64..25, sym.clone(), sym).prop_map(|(a, b, c, s, t)| {
        vec![
            ("a".into(), Value::Int(a)),
            ("b".into(), Value::Int(b)),
            ("c".into(), Value::Int(c)),
            ("s".into(), Value::Str(s.into())),
            ("t".into(), Value::Str(t.into())),
        ]
    })
}

fn eval(e: &Expr, pkt: &[(String, Value)]) -> bool {
    let lookup = |op: &Operand| pkt.iter().find(|(n, _)| *n == op.key()).map(|(_, v)| v.clone());
    e.eval_with(lookup)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pretty-printing any expression reparses to the same AST.
    #[test]
    fn parser_roundtrip(e in arb_expr()) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse of {printed:?} failed: {err}"));
        prop_assert_eq!(e, reparsed);
    }

    /// Rules round-trip too (filter + action).
    #[test]
    fn rule_roundtrip(e in arb_expr(), port in 1u16..100) {
        let rule = camus_lang::ast::Rule::fwd(e, port);
        let reparsed = parse_rule(&rule.to_string()).unwrap();
        prop_assert_eq!(rule, reparsed);
    }

    /// DNF normalisation preserves semantics on total assignments.
    #[test]
    fn dnf_preserves_semantics(e in arb_expr(), pkts in prop::collection::vec(arb_packet(), 1..8)) {
        let d = to_dnf(&e);
        for pkt in &pkts {
            let lookup = |op: &Operand| {
                pkt.iter().find(|(n, _)| *n == op.key()).map(|(_, v)| v.clone())
            };
            prop_assert_eq!(e.eval_with(lookup), d.eval_with(lookup), "expr {} dnf {}", e, d);
        }
    }

    /// α-approximation only widens the match set.
    #[test]
    fn approximation_is_superset(
        e in arb_expr(),
        pkts in prop::collection::vec(arb_packet(), 1..8),
        alpha in 2i64..30,
    ) {
        let approx = approximate_expr(&e, ApproxConfig::new(alpha));
        for pkt in &pkts {
            if eval(&e, pkt) {
                prop_assert!(
                    eval(&approx, pkt),
                    "α={} shrank: {} -> {}",
                    alpha, e, approx
                );
            }
        }
    }

    /// Interval-set algebra: De Morgan, involution, and membership
    /// consistency across operations.
    #[test]
    fn intset_algebra(
        rels in prop::collection::vec((arb_rel_int(), -30i64..30), 1..5),
        samples in prop::collection::vec(-40i64..40, 1..20),
    ) {
        let sets: Vec<IntSet> = rels.iter().map(|&(r, c)| IntSet::from_rel(r, c)).collect();
        for s in &sets {
            prop_assert_eq!(&s.complement().complement(), s);
        }
        for (i, a) in sets.iter().enumerate() {
            for b in &sets[i..] {
                let inter = a.intersect(b);
                let uni = a.union(b);
                // De Morgan.
                prop_assert_eq!(
                    inter.complement(),
                    a.complement().union(&b.complement())
                );
                prop_assert_eq!(
                    uni.complement(),
                    a.complement().intersect(&b.complement())
                );
                // Membership consistency.
                for &v in &samples {
                    prop_assert_eq!(inter.contains(v), a.contains(v) && b.contains(v));
                    prop_assert_eq!(uni.contains(v), a.contains(v) || b.contains(v));
                    prop_assert_eq!(a.complement().contains(v), !a.contains(v));
                }
                // Subset relations.
                prop_assert!(inter.is_subset(a) && inter.is_subset(b));
                prop_assert!(a.is_subset(&uni) && b.is_subset(&uni));
            }
        }
    }

    /// Predicate evaluation agrees with the denoted interval set.
    #[test]
    fn pred_eval_matches_set(rel in arb_rel_int(), c in -30i64..30, v in -40i64..40) {
        let set = IntSet::from_rel(rel, c);
        let pred = Predicate::field("f", rel, c);
        prop_assert_eq!(set.contains(v), pred.eval(&Value::Int(v)));
    }
}
