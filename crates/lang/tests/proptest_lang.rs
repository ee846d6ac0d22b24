//! Property-based tests for the language core: parser round-trips,
//! DNF semantic preservation, interval-set algebra, and approximation
//! soundness, over arbitrary generated inputs.

use camus_lang::approx::{approximate_expr, ApproxConfig};
use camus_lang::ast::{Expr, Operand, Predicate, Rel};
use camus_lang::dnf::{to_dnf, Conjunction, Dnf};
use camus_lang::parser::{parse_expr, parse_rule};
use camus_lang::sets::{implication, IntSet, StrSet};
use camus_lang::value::Value;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// The reference normaliser `to_dnf` is checked against: DNF over owned
/// atoms, one vector per conjunction, the algorithm `to_dnf` ran before
/// it borrowed its atoms. Satisfiability keys each operand by its
/// printed form, as it did then.
fn reference_dnf(expr: &Expr) -> Dnf {
    let mut terms: Vec<Conjunction> = Vec::new();
    for atoms in reference_rec(expr, false) {
        if !reference_satisfiable(&atoms) {
            continue;
        }
        let atoms = reference_simplify(atoms);
        if atoms.is_empty() {
            return Dnf { terms: vec![Conjunction { atoms }] };
        }
        terms.push(Conjunction { atoms });
    }
    let mut seen = HashSet::new();
    let keep: Vec<bool> = terms.iter().map(|c| seen.insert(c.clone())).collect();
    let mut keep = keep.into_iter();
    terms.retain(|_| keep.next().unwrap());
    Dnf { terms }
}

fn reference_rec(expr: &Expr, neg: bool) -> Vec<Vec<Predicate>> {
    match (expr, neg) {
        (Expr::Not(e), _) => reference_rec(e, !neg),
        (Expr::True, false) | (Expr::False, true) => vec![vec![]],
        (Expr::True, true) | (Expr::False, false) => vec![],
        (Expr::Atom(p), false) => vec![vec![p.clone()]],
        (Expr::Atom(p), true) => vec![vec![Predicate {
            operand: p.operand.clone(),
            rel: p.rel.negate(),
            constant: p.constant.clone(),
        }]],
        (Expr::And(a, b), false) | (Expr::Or(a, b), true) => {
            let (l, r) = (reference_rec(a, neg), reference_rec(b, neg));
            l.iter().flat_map(|l| r.iter().map(move |r| [&l[..], &r[..]].concat())).collect()
        }
        (Expr::Or(a, b), false) | (Expr::And(a, b), true) => {
            let mut out = reference_rec(a, neg);
            out.extend(reference_rec(b, neg));
            out
        }
    }
}

fn reference_satisfiable(atoms: &[Predicate]) -> bool {
    let mut ints: HashMap<String, IntSet> = HashMap::new();
    let mut strs: HashMap<String, StrSet> = HashMap::new();
    for a in atoms {
        let key = a.operand.key();
        match &a.constant {
            Value::Int(c) => {
                if strs.contains_key(&key) {
                    return false;
                }
                let e = ints.entry(key).or_insert_with(IntSet::full);
                *e = e.intersect(&IntSet::from_rel(a.rel, *c));
                if e.is_empty() {
                    return false;
                }
            }
            Value::Str(s) => {
                if ints.contains_key(&key) {
                    return false;
                }
                let e = strs.entry(key).or_insert_with(StrSet::full);
                e.add(a.rel, s);
                if e.is_empty() {
                    return false;
                }
            }
        }
    }
    true
}

fn reference_simplify(atoms: Vec<Predicate>) -> Vec<Predicate> {
    let implies = |k: &Predicate, q: &Predicate| {
        k.operand == q.operand && implication(k, true, q) == Some(true)
    };
    let mut kept: Vec<Predicate> = Vec::with_capacity(atoms.len());
    for a in atoms {
        if kept.iter().any(|k| implies(k, &a)) {
            continue;
        }
        kept.retain(|k| !implies(&a, k));
        kept.push(a);
    }
    kept
}

#[test]
fn to_dnf_equals_the_reference_on_each_construct() {
    for src in [
        "not (a > 3 and (b < 5 or not c == 2))",
        "(a == 1 or b == 2) and (c == 3 or not (a == 1))",
        "not (s =^ xy or t == q) and s =^ x",
        "a == 1 and true",
        "a == 1 and false or not false",
        "not true or b > 2",
        "a > 20 and a < 10 or s == x and s == q or s == x and a > 3",
        "a > 50 and a > 40 and b < 3 and a >= 51",
        "s =^ xyz and s =^ x and s == xyz",
        "(a == 1 or a == 1) and (b == 2 or b == 2)",
        "a > 1 and (a > 2 or b == 1) and (a > 1 or c == 0)",
    ] {
        let e = parse_expr(src).unwrap();
        assert_eq!(to_dnf(&e), reference_dnf(&e), "{src}");
    }
}

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

    /// The normaliser yields the reference's terms, atoms and order
    /// exactly.
    #[test]
    fn dnf_equals_the_reference(e in arb_expr()) {
        prop_assert_eq!(to_dnf(&e), reference_dnf(&e), "expr {}", e);
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
