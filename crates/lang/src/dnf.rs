//! Normalisation of filters into disjunctive normal form (§V-C).
//!
//! The compiler's first step turns each subscription filter into "a set
//! of independent rules in which the condition in each rule consists of
//! a conjunction of atomic predicates". Negation is pushed down to the
//! atoms (every relation in the language has a complementary relation),
//! unsatisfiable conjunctions are pruned using the predicate algebra of
//! [`crate::sets`], and redundant atoms within a conjunction are
//! dropped.
//!
//! There is one normaliser, [`DnfBuf`]. It keeps the conjunctions of a
//! whole rule list in one buffer of atoms borrowed from the filters, so
//! the compiler normalises a list without copying it. [`to_dnf`] is the
//! owned form of one filter.

use crate::ast::{Expr, Predicate};
use crate::sets::{conjunction_satisfiable, implication};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::ops::Range;

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

/// Convert an arbitrary filter expression to DNF: [`DnfBuf::push`]'s
/// conjunctions, each atom cloned.
pub fn to_dnf(expr: &Expr) -> Dnf {
    let mut buf = DnfBuf::default();
    buf.push(expr);
    let own = |atoms: &[Cow<'_, Predicate>]| atoms.iter().map(|a| a.clone().into_owned()).collect();
    Dnf { terms: buf.terms(0).map(|atoms| Conjunction::new(own(atoms))).collect() }
}

/// The DNF of a list of filters, in one buffer of atoms borrowed from
/// the filters; only an atom under an odd number of `not`s is owned.
///
/// [`DnfBuf::push`] pushes negation to the leaves with De Morgan's laws
/// and flips it into the atom's relation ([`crate::ast::Rel::negate`]).
/// It prunes unsatisfiable conjunctions and drops the atoms another
/// atom on the same operand implies (`x > 40` beside `x > 50`); a
/// conjunction left empty makes the filter `true`, and a repeated one
/// keeps its first occurrence. Operands are compared by reference, and
/// a conjunction over distinct operands is decided without allocating.
#[derive(Debug, Default)]
pub struct DnfBuf<'a> {
    atoms: Vec<Cow<'a, Predicate>>,
    /// Each conjunction's atoms in `atoms`, pairwise disjoint; atoms no
    /// range covers were dropped.
    terms: Vec<Range<usize>>,
    /// End of each filter's conjunctions in `terms`.
    filters: Vec<usize>,
    /// The operator chains being walked, shared by every level.
    chain: Vec<&'a Expr>,
}

impl<'a> DnfBuf<'a> {
    /// Filter `i`'s conjunctions, each as its atoms.
    pub fn terms(&self, i: usize) -> impl ExactSizeIterator<Item = &[Cow<'a, Predicate>]> + '_ {
        let first = if i == 0 { 0 } else { self.filters[i - 1] };
        self.terms[first..self.filters[i]].iter().map(|t| &self.atoms[t.clone()])
    }

    /// Every atom, in filter, conjunction, atom order.
    pub fn atoms(&self) -> impl Iterator<Item = &Predicate> + Clone + '_ {
        self.terms.iter().flat_map(|t| &self.atoms[t.clone()]).map(|a| &**a)
    }

    /// Normalise `filter` and append its conjunctions.
    pub fn push(&mut self, filter: &'a Expr) {
        let first = self.terms.len();
        self.raw(filter, false);
        let mut kept = first;
        for t in first..self.terms.len() {
            let term = self.terms[t].clone();
            if !conjunction_satisfiable(&self.atoms[term.clone()]) {
                continue;
            }
            let term = term.start..term.start + simplify(&mut self.atoms[term]);
            self.terms[kept] = term.clone();
            kept += 1;
            // An empty conjunction subsumes everything.
            if term.is_empty() {
                self.terms.swap(first, kept - 1);
                kept = first + 1;
                break;
            }
        }
        self.terms.truncate(kept);
        // Filters are external input, so the set keeps std's randomly
        // keyed hasher.
        if kept - first > 1 {
            let (atoms, mut seen, mut t) = (&self.atoms, HashSet::new(), 0);
            self.terms.retain(|term| {
                t += 1;
                t <= first || seen.insert(&atoms[term.clone()])
            });
        }
        self.filters.push(self.terms.len());
    }

    /// Append the conjunctions of `expr` under an odd (`neg`) or even
    /// number of `not`s, unpruned. A run of `not`s and a maximal chain
    /// of one operator are each walked by a loop, so recursion follows
    /// how often the operators alternate, not how long a chain is.
    fn raw(&mut self, mut expr: &'a Expr, mut neg: bool) {
        while let Expr::Not(e) = expr {
            expr = e;
            neg = !neg;
        }
        let at = self.atoms.len();
        // ¬(a ∧ b) = ¬a ∨ ¬b and ¬(a ∨ b) = ¬a ∧ ¬b.
        let conjunctive = match (expr, neg) {
            (Expr::True, false) | (Expr::False, true) => return self.terms.push(at..at),
            (Expr::True, true) | (Expr::False, false) => return,
            (Expr::Atom(p), neg) => {
                self.atoms.push(if neg { Cow::Owned(p.negated()) } else { Cow::Borrowed(p) });
                return self.terms.push(at..at + 1);
            }
            (Expr::And(..), false) | (Expr::Or(..), true) => true,
            _ => false,
        };
        // The running result: the product's unit, one empty
        // conjunction, or the union's, none. Products and unions are
        // associative, term order included, so folding the chain's
        // operands left to right lists the terms in the order the
        // nested definition does.
        let first = self.terms.len();
        if conjunctive {
            self.terms.push(at..at);
        }
        let base = self.chain.len();
        self.chain.push(expr);
        while self.chain.len() > base {
            let e = self.chain.pop().expect("the chain is above its base");
            match (e, expr) {
                (Expr::And(a, b), Expr::And(..)) | (Expr::Or(a, b), Expr::Or(..)) => {
                    self.chain.extend([&**b, &**a]);
                }
                // The operand's conjunctions land after the running
                // result's, which makes their union.
                _ => {
                    let operand = self.terms.len();
                    self.raw(e, neg);
                    if conjunctive {
                        self.product(first, operand);
                    }
                }
            }
        }
    }

    /// Replace the conjunctions `first..operand` and `operand..` with
    /// their product: each of the first extended by each of the second,
    /// the first major.
    fn product(&mut self, first: usize, operand: usize) {
        let end = self.terms.len();
        for l in first..operand {
            for r in operand..end {
                let (l, r) = (self.terms[l].clone(), self.terms[r].clone());
                // One by one, adjacent: the atoms are in place already.
                let term = if end - first == 2 && l.end == r.start {
                    l.start..r.end
                } else {
                    let at = self.atoms.len();
                    self.atoms.extend_from_within(l);
                    self.atoms.extend_from_within(r);
                    at..self.atoms.len()
                };
                self.terms.push(term);
            }
        }
        self.terms.drain(first..end);
    }
}

/// Collecting filters pushes each ([`DnfBuf::push`]), with room for as
/// many filters, conjunctions and atoms as the iterator promises filters.
impl<'a> FromIterator<&'a Expr> for DnfBuf<'a> {
    fn from_iter<I: IntoIterator<Item = &'a Expr>>(filters: I) -> Self {
        let (filters, mut buf) = (filters.into_iter(), DnfBuf::default());
        let n = filters.size_hint().0;
        buf.atoms.reserve(n);
        buf.terms.reserve(n);
        buf.filters.reserve(n);
        filters.for_each(|filter| buf.push(filter));
        buf
    }
}

/// Simplify a conjunction in place and return how many atoms it keeps,
/// at its front: an atom implied by one kept before it is dropped, and
/// an atom drops the kept ones it implies.
fn simplify(atoms: &mut [Cow<'_, Predicate>]) -> usize {
    let implies = |k: &Predicate, q: &Predicate| {
        k.operand == q.operand && implication(k, true, q) == Some(true)
    };
    let mut kept = 0;
    for i in 0..atoms.len() {
        if atoms[..kept].iter().any(|k| implies(k, &atoms[i])) {
            continue;
        }
        let mut keep = 0;
        for k in 0..kept {
            if !implies(&atoms[i], &atoms[k]) {
                atoms.swap(keep, k);
                keep += 1;
            }
        }
        atoms.swap(keep, i);
        kept = keep + 1;
    }
    kept
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
        assert_eq!(to_dnf(&Expr::True).to_string(), "(true)");
    }
}
