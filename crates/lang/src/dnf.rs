//! Normalisation of filters into disjunctive normal form (§V-C).
//!
//! The compiler's first step turns each subscription filter into "a set
//! of independent rules in which the condition in each rule consists of
//! a conjunction of atomic predicates". Negation is pushed down to the
//! atoms (every relation in the language has a complementary relation),
//! unsatisfiable conjunctions are pruned using the predicate algebra of
//! [`crate::sets`], and redundant atoms within a conjunction are
//! dropped.

use crate::ast::{Expr, Predicate};
use crate::sets::{conjunction_satisfiable, implication};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// A conjunction of atomic predicates. The empty conjunction is `true`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conjunction {
    pub atoms: Vec<Predicate>,
}

impl Conjunction {
    pub(crate) fn new(atoms: Vec<Predicate>) -> Self {
        Conjunction { atoms }
    }

    /// Evaluate against an attribute lookup.
    pub(crate) fn eval_with<F: Fn(&crate::ast::Operand) -> Option<crate::value::Value>>(
        &self,
        lookup: F,
    ) -> bool {
        self.atoms.iter().all(|p| lookup(&p.operand).is_some_and(|v| p.eval(&v)))
    }

    /// Remove duplicate atoms and atoms implied by another atom on the
    /// same operand (e.g. `x > 40` is dropped when `x > 50` is present).
    fn simplify(&mut self) {
        let mut kept: Vec<Predicate> = Vec::with_capacity(self.atoms.len());
        'outer: for a in self.atoms.drain(..) {
            for k in &kept {
                if k.operand == a.operand && implication(k, true, &a) == Some(true) {
                    continue 'outer; // `a` is implied by `k`
                }
            }
            // Remove previously kept atoms that `a` implies.
            kept.retain(|k| !(k.operand == a.operand && implication(&a, true, k) == Some(true)));
            kept.push(a);
        }
        self.atoms = kept;
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return f.write_str("true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                f.write_str(" and ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// A filter in disjunctive normal form: a disjunction of conjunctions.
/// `Dnf(vec![])` is `false`; a DNF containing an empty conjunction
/// matches everything.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dnf {
    pub terms: Vec<Conjunction>,
}

impl Dnf {
    /// The DNF matching every packet.
    pub(crate) fn all() -> Self {
        Dnf { terms: vec![Conjunction::new(vec![])] }
    }

    /// Evaluate against an attribute lookup.
    pub fn eval_with<F: Fn(&crate::ast::Operand) -> Option<crate::value::Value> + Copy>(
        &self,
        lookup: F,
    ) -> bool {
        self.terms.iter().any(|c| c.eval_with(lookup))
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("false");
        }
        for (i, c) in self.terms.iter().enumerate() {
            if i > 0 {
                f.write_str(" or ")?;
            }
            write!(f, "({c})")?;
        }
        Ok(())
    }
}

/// Convert an arbitrary filter expression to DNF.
///
/// Negation is pushed to the leaves with De Morgan's laws and eliminated
/// at atoms by flipping the relation ([`crate::ast::Rel::negate`]).
/// Unsatisfiable conjunctions are pruned; each surviving conjunction is
/// simplified by removing implied atoms.
pub fn to_dnf(expr: &Expr) -> Dnf {
    let terms_raw = dnf_rec(expr, false);
    let mut terms = Vec::with_capacity(terms_raw.len());
    for mut c in terms_raw {
        if !conjunction_satisfiable(&c.atoms) {
            continue;
        }
        c.simplify();
        // An empty conjunction subsumes everything.
        if c.atoms.is_empty() {
            return Dnf::all();
        }
        terms.push(c);
    }
    // Drop repeated terms (a single term has none), keeping first
    // occurrences in order. Filters are external input, so the set
    // keeps std's randomly keyed hasher.
    if terms.len() > 1 {
        let repeats: Vec<usize> = {
            let mut seen = HashSet::with_capacity(terms.len());
            (0..terms.len()).filter(|&i| !seen.insert(&terms[i])).collect()
        };
        let mut repeats = repeats.into_iter().peekable();
        let mut i = 0;
        terms.retain(|_| {
            i += 1;
            repeats.next_if_eq(&(i - 1)).is_none()
        });
    }
    Dnf { terms }
}

/// DNF with negation context (`neg` = an odd number of `not`s above
/// us). A run of `not`s and a maximal chain of one operator are each
/// walked by a loop, so recursion follows how often the operators
/// alternate, not how long a chain is.
fn dnf_rec(mut expr: &Expr, mut neg: bool) -> Vec<Conjunction> {
    while let Expr::Not(e) = expr {
        expr = e;
        neg = !neg;
    }
    // ¬(a ∧ b) = ¬a ∨ ¬b and ¬(a ∨ b) = ¬a ∧ ¬b.
    let (conjunctive, mut out) = match (expr, neg) {
        (Expr::True, false) | (Expr::False, true) => return vec![Conjunction::new(vec![])],
        (Expr::True, true) | (Expr::False, false) => return vec![],
        (Expr::Atom(p), false) => return vec![Conjunction::new(vec![p.clone()])],
        (Expr::Atom(p), true) => return vec![Conjunction::new(vec![p.negated()])],
        (Expr::And(..), false) | (Expr::Or(..), true) => (true, vec![Conjunction::new(vec![])]),
        _ => (false, vec![]),
    };
    // The chain's operands left to right. Products and unions are
    // associative, term order included, so folding them in sequence
    // lists the terms in the order the nested definition does.
    let mut chain = vec![expr];
    while let Some(e) = chain.pop() {
        let operand = match (e, expr) {
            (Expr::And(a, b), Expr::And(..)) | (Expr::Or(a, b), Expr::Or(..)) => {
                chain.extend([&**b, &**a]);
                continue;
            }
            _ => dnf_rec(e, neg),
        };
        match (conjunctive, operand.as_slice()) {
            (false, _) => out.extend(operand),
            // A one-term operand extends every term in place.
            (true, [r]) => out.iter_mut().for_each(|l| l.atoms.extend_from_slice(&r.atoms)),
            (true, _) => {
                out = out
                    .iter()
                    .flat_map(|l| operand.iter().map(|r| [&l.atoms[..], &r.atoms[..]].concat()))
                    .map(Conjunction::new)
                    .collect()
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Operand, Rel};
    use crate::parser::parse_expr;
    use crate::value::Value;

    fn dnf(src: &str) -> Dnf {
        to_dnf(&parse_expr(src).unwrap())
    }

    #[test]
    fn atom_is_single_term() {
        let d = dnf("price > 50");
        assert_eq!(d.terms.len(), 1);
        assert_eq!(d.terms[0].atoms.len(), 1);
    }

    #[test]
    fn and_merges_or_splits() {
        let d = dnf("a == 1 and b == 2");
        assert_eq!(d.terms.len(), 1);
        assert_eq!(d.terms[0].atoms.len(), 2);
        let d = dnf("a == 1 or b == 2");
        assert_eq!(d.terms.len(), 2);
    }

    #[test]
    fn distribution() {
        // (a or b) and (c or d) -> 4 terms.
        let d = dnf("(a == 1 or b == 2) and (c == 3 or d == 4)");
        assert_eq!(d.terms.len(), 4);
    }

    #[test]
    fn negation_pushes_to_atoms() {
        let d = dnf("not (a > 5 and b < 3)");
        assert_eq!(d.terms.len(), 2);
        assert_eq!(d.terms[0].atoms[0].rel, Rel::Le);
        assert_eq!(d.terms[1].atoms[0].rel, Rel::Ge);
        let d = dnf("not not a == 1");
        assert_eq!(d.terms.len(), 1);
        assert_eq!(d.terms[0].atoms[0].rel, Rel::Eq);
    }

    /// Matches no packet.
    fn is_false(d: &Dnf) -> bool {
        d.terms.is_empty()
    }

    /// Has an empty conjunction, so matches every packet.
    fn is_true(d: &Dnf) -> bool {
        d.terms.iter().any(|c| c.atoms.is_empty())
    }

    #[test]
    fn constants() {
        assert!(is_true(&dnf("true")));
        assert!(is_false(&dnf("false")));
        assert!(is_false(&dnf("not true")));
        assert!(is_true(&dnf("not false")));
        assert!(is_true(&dnf("a == 1 or true")));
        assert_eq!(dnf("a == 1 and true").terms.len(), 1);
        assert!(is_false(&dnf("a == 1 and false")));
    }

    #[test]
    fn unsatisfiable_terms_pruned() {
        assert!(is_false(&dnf("a > 20 and a < 10")));
        let d = dnf("(a > 20 and a < 10) or b == 1");
        assert_eq!(d.terms.len(), 1);
        assert!(is_false(&dnf("stock == GOOGL and stock == MSFT")));
    }

    #[test]
    fn implied_atoms_dropped() {
        let d = dnf("a > 50 and a > 40");
        assert_eq!(d.terms.len(), 1);
        assert_eq!(d.terms[0].atoms.len(), 1);
        assert_eq!(d.terms[0].atoms[0].constant, Value::Int(50));
        // Prefix subsumption.
        let d = dnf("stock =^ GOO and stock =^ G");
        assert_eq!(d.terms[0].atoms.len(), 1);
        assert_eq!(d.terms[0].atoms[0].constant, Value::Str("GOO".into()));
    }

    #[test]
    fn duplicate_terms_dedup() {
        let d = dnf("a == 1 or a == 1");
        assert_eq!(d.terms.len(), 1);
    }

    #[test]
    fn dnf_preserves_semantics_randomised() {
        // Evaluate original and DNF against random small assignments.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let exprs = [
            "a > 3 and (b < 5 or not c == 2)",
            "not (a > 3 or b == 1) and c >= 0",
            "(a == 1 or a == 2) and (b != 2 and not a == 2)",
            "not (not (a < 5))",
            "a >= 2 and a <= 2 and b > -3",
        ];
        for src in exprs {
            let e = parse_expr(src).unwrap();
            let d = to_dnf(&e);
            for _ in 0..300 {
                let (a, b, c) =
                    (rng.gen_range(-4i64..8), rng.gen_range(-4i64..8), rng.gen_range(-4i64..8));
                let lookup = |op: &Operand| {
                    Some(Value::Int(match op.field_name() {
                        "a" => a,
                        "b" => b,
                        "c" => c,
                        _ => return None,
                    }))
                };
                assert_eq!(
                    e.eval_with(lookup),
                    d.eval_with(lookup),
                    "mismatch for {src} at a={a} b={b} c={c}; dnf = {d}"
                );
            }
        }
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let d = dnf("(a == 1 and b > 2) or c =^ xyz");
        let reparsed = to_dnf(&parse_expr(&d.to_string()).unwrap());
        assert_eq!(d, reparsed);
        assert_eq!(Dnf { terms: vec![] }.to_string(), "false");
        assert_eq!(Dnf::all().to_string(), "(true)");
    }
}
