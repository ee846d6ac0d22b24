//! Semantic algebra of atomic predicates.
//!
//! The BDD reductions of §V-C(iii) need *domain-specific knowledge*: if
//! an ancestor node fixes `price > 50` to true, then `price > 40` is
//! implied true and `price < 30` implied false. This module provides
//! that reasoning for both numeric predicates (via exact interval sets
//! over `i64`) and string predicates (via equality/prefix constraint
//! sets), plus conjunction-satisfiability used to prune unsatisfiable
//! DNF terms and BDD paths.

use crate::ast::{Predicate, Rel};
use crate::value::Value;
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;

// ---------------------------------------------------------------------------
// Integer interval sets
// ---------------------------------------------------------------------------

/// A set of `i64` values represented as a sorted union of disjoint,
/// non-adjacent closed intervals. The representation is canonical, so
/// equality of sets is structural equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntSet {
    /// Sorted, disjoint, non-adjacent `[lo, hi]` intervals.
    ivs: Vec<(i64, i64)>,
}

impl IntSet {
    /// The empty set.
    pub(crate) fn empty() -> Self {
        IntSet { ivs: Vec::new() }
    }

    /// The full set of all `i64` values.
    pub fn full() -> Self {
        IntSet { ivs: vec![(i64::MIN, i64::MAX)] }
    }

    /// The singleton `{v}`.
    pub(crate) fn point(v: i64) -> Self {
        IntSet { ivs: vec![(v, v)] }
    }

    /// The closed interval `[lo, hi]` (empty when `lo > hi`).
    pub(crate) fn range(lo: i64, hi: i64) -> Self {
        if lo > hi {
            IntSet::empty()
        } else {
            IntSet { ivs: vec![(lo, hi)] }
        }
    }

    /// The set denoted by `field REL c`.
    pub fn from_rel(rel: Rel, c: i64) -> Self {
        match rel {
            Rel::Eq => IntSet::point(c),
            Rel::Ne => IntSet::point(c).complement(),
            Rel::Lt => {
                if c == i64::MIN {
                    IntSet::empty()
                } else {
                    IntSet::range(i64::MIN, c - 1)
                }
            }
            Rel::Le => IntSet::range(i64::MIN, c),
            Rel::Gt => {
                if c == i64::MAX {
                    IntSet::empty()
                } else {
                    IntSet::range(c + 1, i64::MAX)
                }
            }
            Rel::Ge => IntSet::range(c, i64::MAX),
            // String relations denote nothing over the integer domain.
            Rel::Prefix | Rel::NotPrefix => IntSet::empty(),
        }
    }

    /// Normalise: sort, merge overlapping and adjacent intervals.
    fn normalise(mut ivs: Vec<(i64, i64)>) -> Self {
        ivs.retain(|&(lo, hi)| lo <= hi);
        ivs.sort_unstable();
        let mut out: Vec<(i64, i64)> = Vec::with_capacity(ivs.len());
        for (lo, hi) in ivs {
            match out.last_mut() {
                // Merge if overlapping or adjacent (watch for overflow at MAX).
                Some(&mut (_, ref mut phi)) if lo <= phi.saturating_add(1) => {
                    *phi = (*phi).max(hi);
                }
                _ => out.push((lo, hi)),
            }
        }
        IntSet { ivs: out }
    }

    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.ivs == [(i64::MIN, i64::MAX)]
    }

    pub fn contains(&self, v: i64) -> bool {
        self.ivs
            .binary_search_by(|&(lo, hi)| {
                if v < lo {
                    std::cmp::Ordering::Greater
                } else if v > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// The intervals, sorted and disjoint. Useful for lowering to table
    /// entries (Algorithm 2 intersects predicate ranges along paths).
    pub fn intervals(&self) -> &[(i64, i64)] {
        &self.ivs
    }

    pub fn complement(&self) -> IntSet {
        let mut out = Vec::with_capacity(self.ivs.len() + 1);
        let mut next = i64::MIN;
        let mut exhausted = false;
        for &(lo, hi) in &self.ivs {
            if lo > next {
                out.push((next, lo - 1));
            }
            if hi == i64::MAX {
                exhausted = true;
                break;
            }
            next = hi + 1;
        }
        if !exhausted {
            out.push((next, i64::MAX));
        }
        // Handle the case where the set starts at i64::MIN: the loop
        // above pushes nothing for it because lo == next.
        IntSet::normalise(out)
    }

    pub fn intersect(&self, other: &IntSet) -> IntSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ivs.len() && j < other.ivs.len() {
            let (alo, ahi) = self.ivs[i];
            let (blo, bhi) = other.ivs[j];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if lo <= hi {
                out.push((lo, hi));
            }
            if ahi < bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntSet { ivs: out }
    }

    pub fn union(&self, other: &IntSet) -> IntSet {
        let mut ivs = self.ivs.clone();
        ivs.extend_from_slice(&other.ivs);
        IntSet::normalise(ivs)
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &IntSet) -> bool {
        self.intersect(other) == *self
    }

    /// Is `self ∩ other = ∅`?
    pub(crate) fn is_disjoint(&self, other: &IntSet) -> bool {
        self.intersect(other).is_empty()
    }

    /// Total number of values in the set, saturating at `u64::MAX`.
    pub fn len(&self) -> u64 {
        let mut n: u64 = 0;
        for &(lo, hi) in &self.ivs {
            let w = (hi as i128 - lo as i128 + 1) as u128;
            n = n.saturating_add(w.min(u128::from(u64::MAX)) as u64);
        }
        n
    }

    /// An arbitrary element of the set, if non-empty. Used by tests and
    /// by the workload generator to pick satisfying witnesses.
    pub fn sample(&self) -> Option<i64> {
        self.ivs.first().map(|&(lo, _)| lo)
    }
}

impl fmt::Display for IntSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("∅");
        }
        for (i, &(lo, hi)) in self.ivs.iter().enumerate() {
            if i > 0 {
                f.write_str(" ∪ ")?;
            }
            if lo == hi {
                write!(f, "{{{lo}}}")?;
            } else {
                write!(f, "[{lo},{hi}]")?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// String constraint sets
// ---------------------------------------------------------------------------

/// A set of strings described by equality/prefix constraints: the
/// intersection of `= eq?`, `starts_with(prefix)?`, `∉ ne`, and
/// `¬starts_with(p)` for every `p ∈ not_prefixes`. `Empty` is the
/// canonical unsatisfiable set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrSet {
    Empty,
    Constrained {
        eq: Option<String>,
        prefix: Option<String>,
        ne: BTreeSet<String>,
        not_prefixes: BTreeSet<String>,
    },
}

impl StrSet {
    /// The set of all strings.
    pub fn full() -> Self {
        StrSet::Constrained {
            eq: None,
            prefix: None,
            ne: BTreeSet::new(),
            not_prefixes: BTreeSet::new(),
        }
    }

    /// The set denoted by `field REL s`.
    pub fn from_rel(rel: Rel, s: &str) -> Self {
        let mut set = StrSet::full();
        set.add(rel, s);
        set
    }

    /// Intersect with the constraint `field REL s`, normalising.
    pub fn add(&mut self, rel: Rel, s: &str) {
        let StrSet::Constrained { eq, prefix, ne, not_prefixes } = self else {
            return; // already empty
        };
        match rel {
            Rel::Eq => match eq {
                Some(e) if e != s => *self = StrSet::Empty,
                _ => *eq = Some(s.to_string()),
            },
            Rel::Ne => {
                ne.insert(s.to_string());
            }
            Rel::Prefix => match prefix.as_deref() {
                // Keep the longer (more specific) of two nested prefixes;
                // incompatible prefixes make the set empty.
                Some(p) if p.starts_with(s) => {}
                Some(p) if s.starts_with(p) => *prefix = Some(s.to_string()),
                Some(_) => *self = StrSet::Empty,
                None => *prefix = Some(s.to_string()),
            },
            Rel::NotPrefix => {
                not_prefixes.insert(s.to_string());
            }
            // Numeric relations denote nothing over strings.
            _ => *self = StrSet::Empty,
        }
        self.canonicalise();
    }

    fn canonicalise(&mut self) {
        let StrSet::Constrained { eq, prefix, ne, not_prefixes } = self else {
            return;
        };
        if let Some(e) = eq.as_deref() {
            let violates = prefix.as_deref().is_some_and(|p| !e.starts_with(p))
                || ne.contains(e)
                || not_prefixes.iter().any(|p| e.starts_with(p));
            if violates {
                *self = StrSet::Empty;
                return;
            }
            // With an equality pinned, the other constraints are redundant.
            *prefix = None;
            ne.clear();
            not_prefixes.clear();
            return;
        }
        if let Some(p) = prefix.as_deref() {
            // A not-prefix that is a prefix of (or equal to) `p` empties
            // the set: everything starting with `p` also starts with it.
            if not_prefixes.iter().any(|np| p.starts_with(np)) {
                *self = StrSet::Empty;
                return;
            }
            // Drop irrelevant constraints outside the `p` subtree.
            ne.retain(|s| s.starts_with(p));
            not_prefixes.retain(|np| np.starts_with(p));
        }
    }

    pub fn is_empty(&self) -> bool {
        // `ne`/`not_prefixes` exclusions can never exhaust the infinite
        // string universe (or a prefix subtree), so `Constrained` is
        // always non-empty.
        matches!(self, StrSet::Empty)
    }

    /// The pinned equality value, when the set is a singleton.
    pub fn exact(&self) -> Option<&str> {
        match self {
            StrSet::Constrained { eq: Some(e), .. } => Some(e),
            _ => None,
        }
    }

    /// The required prefix, when one is pinned (and no equality).
    pub fn required_prefix(&self) -> Option<&str> {
        match self {
            StrSet::Constrained { eq: None, prefix: Some(p), .. } => Some(p),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Implication between same-operand predicates
// ---------------------------------------------------------------------------

/// Given that predicate `given` evaluated to `given_val` for the packet,
/// decide the value of `q` over the *same operand*:
/// `Some(true)` (implied true), `Some(false)` (implied false), or `None`
/// (undetermined). Predicates over different operands are independent
/// and must not be passed here.
pub fn implication(given: &Predicate, given_val: bool, q: &Predicate) -> Option<bool> {
    debug_assert_eq!(given.operand, q.operand, "implication requires a shared operand");
    match (&given.constant, &q.constant) {
        (Value::Int(gc), Value::Int(qc)) => {
            let gset = IntSet::from_rel(given.rel, *gc);
            let known = if given_val { gset } else { gset.complement() };
            let qset = IntSet::from_rel(q.rel, *qc);
            if known.is_empty() {
                // Contradictory ancestor: any answer is sound; pick true.
                return Some(true);
            }
            if known.is_subset(&qset) {
                Some(true)
            } else if known.is_disjoint(&qset) {
                Some(false)
            } else {
                None
            }
        }
        (Value::Str(gs), Value::Str(qs)) => str_implication(given.rel, gs, given_val, q.rel, qs),
        // Mixed types: the attribute can only have one type at runtime;
        // the parser prevents this, so treat as undetermined.
        _ => None,
    }
}

fn str_implication(grel: Rel, gs: &str, gval: bool, qrel: Rel, qs: &str) -> Option<bool> {
    // Normalise "given false" into the complementary relation.
    let grel = if gval { grel } else { grel.negate() };
    match (grel, qrel) {
        // field == gs
        (Rel::Eq, _) => Some(match qrel {
            Rel::Eq => gs == qs,
            Rel::Ne => gs != qs,
            Rel::Prefix => gs.starts_with(qs),
            Rel::NotPrefix => !gs.starts_with(qs),
            _ => false,
        }),
        // field != gs
        (Rel::Ne, Rel::Eq) if gs == qs => Some(false),
        (Rel::Ne, Rel::Ne) if gs == qs => Some(true),
        (Rel::Ne, _) => None,
        // field starts_with gs
        (Rel::Prefix, Rel::Eq) => {
            if !qs.starts_with(gs) {
                Some(false)
            } else {
                None
            }
        }
        (Rel::Prefix, Rel::Ne) => {
            if !qs.starts_with(gs) {
                Some(true)
            } else {
                None
            }
        }
        (Rel::Prefix, Rel::Prefix) => {
            if gs.starts_with(qs) {
                Some(true) // finer prefix implies coarser
            } else if qs.starts_with(gs) {
                None // coarser does not decide finer
            } else {
                Some(false) // incompatible subtrees
            }
        }
        (Rel::Prefix, Rel::NotPrefix) => {
            str_implication(Rel::Prefix, gs, true, Rel::Prefix, qs).map(|b| !b)
        }
        // field does NOT start with gs
        (Rel::NotPrefix, Rel::Eq) => {
            if qs.starts_with(gs) {
                Some(false)
            } else {
                None
            }
        }
        (Rel::NotPrefix, Rel::Ne) => {
            if qs.starts_with(gs) {
                Some(true)
            } else {
                None
            }
        }
        (Rel::NotPrefix, Rel::Prefix) => {
            if qs.starts_with(gs) {
                Some(false) // would require the forbidden prefix
            } else {
                None
            }
        }
        (Rel::NotPrefix, Rel::NotPrefix) => {
            if qs.starts_with(gs) {
                Some(true)
            } else {
                None
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Conjunction satisfiability
// ---------------------------------------------------------------------------

/// Decide whether a conjunction of atomic predicates is satisfiable,
/// i.e. some packet matches all of them. Predicates over distinct
/// operands are independent; per operand we intersect the denoted sets.
/// A mix of integer and string constraints on the same operand is
/// unsatisfiable (an attribute has a single type). Operands are compared
/// by reference, and an operand only one atom tests needs no set, so a
/// conjunction over distinct operands allocates nothing.
pub fn conjunction_satisfiable<P: Borrow<Predicate>>(atoms: &[P]) -> bool {
    atoms.iter().map(Borrow::borrow).enumerate().all(|(i, a)| {
        let same = |b: &P| Borrow::<Predicate>::borrow(b).operand == a.operand;
        let mut rest = atoms[i + 1..].iter().filter(|b| same(b)).map(Borrow::borrow).peekable();
        // The operand's first atom decides it.
        match (&a.constant, rest.peek()) {
            _ if atoms[..i].iter().any(same) => true,
            (Value::Int(c), None) => {
                !matches!((a.rel, *c), (Rel::Lt, i64::MIN) | (Rel::Gt, i64::MAX))
                    && !matches!(a.rel, Rel::Prefix | Rel::NotPrefix)
            }
            (Value::Str(_), None) => {
                matches!(a.rel, Rel::Eq | Rel::Ne | Rel::Prefix | Rel::NotPrefix)
            }
            (Value::Int(c), Some(_)) => rest
                .try_fold(IntSet::from_rel(a.rel, *c), |set, b| match b.constant {
                    Value::Int(d) => Some(set.intersect(&IntSet::from_rel(b.rel, d))),
                    Value::Str(_) => None,
                })
                .is_some_and(|set| !set.is_empty()),
            (Value::Str(s), Some(_)) => rest
                .try_fold(StrSet::from_rel(a.rel, s), |mut set, b| match &b.constant {
                    Value::Str(t) => {
                        set.add(b.rel, t);
                        Some(set)
                    }
                    Value::Int(_) => None,
                })
                .is_some_and(|set| !set.is_empty()),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Predicate;

    #[test]
    fn intset_from_rel_contains() {
        assert!(IntSet::from_rel(Rel::Gt, 50).contains(51));
        assert!(!IntSet::from_rel(Rel::Gt, 50).contains(50));
        assert!(IntSet::from_rel(Rel::Ge, 50).contains(50));
        assert!(IntSet::from_rel(Rel::Lt, 50).contains(49));
        assert!(!IntSet::from_rel(Rel::Lt, 50).contains(50));
        assert!(IntSet::from_rel(Rel::Ne, 5).contains(4));
        assert!(!IntSet::from_rel(Rel::Ne, 5).contains(5));
        assert!(IntSet::from_rel(Rel::Eq, 5).contains(5));
    }

    #[test]
    fn intset_boundaries() {
        assert!(IntSet::from_rel(Rel::Lt, i64::MIN).is_empty());
        assert!(IntSet::from_rel(Rel::Gt, i64::MAX).is_empty());
        assert!(IntSet::from_rel(Rel::Le, i64::MAX).is_full());
        assert!(IntSet::from_rel(Rel::Ge, i64::MIN).is_full());
    }

    #[test]
    fn intset_complement_involutive() {
        for set in [
            IntSet::empty(),
            IntSet::full(),
            IntSet::point(0),
            IntSet::point(i64::MIN),
            IntSet::point(i64::MAX),
            IntSet::range(10, 20),
            IntSet::range(10, 20).union(&IntSet::range(30, 40)),
            IntSet::from_rel(Rel::Ne, 7),
        ] {
            assert_eq!(set.complement().complement(), set, "double complement of {set}");
        }
        assert!(IntSet::full().complement().is_empty());
        assert!(IntSet::empty().complement().is_full());
    }

    #[test]
    fn intset_union_merges_adjacent() {
        let s = IntSet::range(1, 5).union(&IntSet::range(6, 9));
        assert_eq!(s.intervals(), &[(1, 9)]);
        let s = IntSet::range(1, 5).union(&IntSet::range(3, 9));
        assert_eq!(s.intervals(), &[(1, 9)]);
        let s = IntSet::range(1, 2).union(&IntSet::range(4, 5));
        assert_eq!(s.intervals(), &[(1, 2), (4, 5)]);
    }

    #[test]
    fn intset_intersect() {
        let a = IntSet::range(0, 10).union(&IntSet::range(20, 30));
        let b = IntSet::range(5, 25);
        assert_eq!(a.intersect(&b).intervals(), &[(5, 10), (20, 25)]);
        assert!(a.intersect(&IntSet::empty()).is_empty());
        assert_eq!(a.intersect(&IntSet::full()), a);
    }

    #[test]
    fn intset_subset_disjoint() {
        let gt50 = IntSet::from_rel(Rel::Gt, 50);
        let gt40 = IntSet::from_rel(Rel::Gt, 40);
        let lt30 = IntSet::from_rel(Rel::Lt, 30);
        assert!(gt50.is_subset(&gt40));
        assert!(!gt40.is_subset(&gt50));
        assert!(gt50.is_disjoint(&lt30));
        assert!(!gt40.is_disjoint(&gt50));
    }

    #[test]
    fn intset_len_and_sample() {
        assert_eq!(IntSet::range(1, 10).len(), 10);
        assert_eq!(IntSet::point(5).len(), 1);
        assert_eq!(IntSet::empty().len(), 0);
        assert_eq!(IntSet::range(3, 9).sample(), Some(3));
        assert_eq!(IntSet::empty().sample(), None);
        assert_eq!(IntSet::full().len(), u64::MAX); // saturates
    }

    /// Strings in `s`.
    fn contains(s: &StrSet, x: &str) -> bool {
        match s {
            StrSet::Empty => false,
            StrSet::Constrained { eq, prefix, ne, not_prefixes } => {
                eq.as_deref().is_none_or(|e| e == x)
                    && prefix.as_deref().is_none_or(|p| x.starts_with(p))
                    && !ne.contains(x)
                    && !not_prefixes.iter().any(|p| x.starts_with(p))
            }
        }
    }

    /// `a ∩ b`, by adding each of `b`'s constraints to `a`.
    fn intersect(a: &StrSet, b: &StrSet) -> StrSet {
        match (a, b) {
            (StrSet::Empty, _) | (_, StrSet::Empty) => StrSet::Empty,
            (a, StrSet::Constrained { eq, prefix, ne, not_prefixes }) => {
                let mut out = a.clone();
                if let Some(e) = eq {
                    out.add(Rel::Eq, e);
                }
                if let Some(p) = prefix {
                    out.add(Rel::Prefix, p);
                }
                for s in ne {
                    out.add(Rel::Ne, s);
                }
                for p in not_prefixes {
                    out.add(Rel::NotPrefix, p);
                }
                out
            }
        }
    }

    #[test]
    fn strset_eq_pin() {
        let mut s = StrSet::full();
        s.add(Rel::Eq, "GOOGL");
        assert!(contains(&s, "GOOGL"));
        assert!(!contains(&s, "MSFT"));
        assert_eq!(s.exact(), Some("GOOGL"));
        s.add(Rel::Eq, "MSFT");
        assert!(s.is_empty());
    }

    #[test]
    fn strset_prefix_nesting() {
        let mut s = StrSet::full();
        s.add(Rel::Prefix, "GO");
        s.add(Rel::Prefix, "GOO");
        assert_eq!(s.required_prefix(), Some("GOO"));
        s.add(Rel::Prefix, "MS");
        assert!(s.is_empty());
    }

    #[test]
    fn strset_eq_vs_prefix() {
        let s =
            intersect(&StrSet::from_rel(Rel::Eq, "GOOGL"), &StrSet::from_rel(Rel::Prefix, "GOO"));
        assert!(!s.is_empty());
        let s =
            intersect(&StrSet::from_rel(Rel::Eq, "MSFT"), &StrSet::from_rel(Rel::Prefix, "GOO"));
        assert!(s.is_empty());
    }

    #[test]
    fn strset_not_prefix_empties_prefix() {
        let s = intersect(
            &StrSet::from_rel(Rel::Prefix, "GOO"),
            &StrSet::from_rel(Rel::NotPrefix, "G"),
        );
        assert!(s.is_empty());
        // Not-prefix of a *finer* subtree does not empty it.
        let s = intersect(
            &StrSet::from_rel(Rel::Prefix, "GOO"),
            &StrSet::from_rel(Rel::NotPrefix, "GOOG"),
        );
        assert!(!s.is_empty());
        assert!(contains(&s, "GOOX"));
        assert!(!contains(&s, "GOOGL"));
    }

    #[test]
    fn strset_ne_exclusion() {
        let s = intersect(&StrSet::from_rel(Rel::Ne, "A"), &StrSet::from_rel(Rel::Ne, "B"));
        assert!(!contains(&s, "A"));
        assert!(!contains(&s, "B"));
        assert!(contains(&s, "C"));
        let s = intersect(&s, &StrSet::from_rel(Rel::Eq, "A"));
        assert!(s.is_empty());
    }

    fn pred(rel: Rel, v: impl Into<Value>) -> Predicate {
        Predicate::field("f", rel, v)
    }

    #[test]
    fn implication_numeric() {
        // price > 50 true ⇒ price > 40 true.
        assert_eq!(implication(&pred(Rel::Gt, 50i64), true, &pred(Rel::Gt, 40i64)), Some(true));
        // price > 50 true ⇒ price < 30 false.
        assert_eq!(implication(&pred(Rel::Gt, 50i64), true, &pred(Rel::Lt, 30i64)), Some(false));
        // price > 50 false ⇒ price < 60 undetermined? price <= 50 ⊆ price < 60 → true.
        assert_eq!(implication(&pred(Rel::Gt, 50i64), false, &pred(Rel::Lt, 60i64)), Some(true));
        // price > 50 true ⇒ price == 60 undetermined.
        assert_eq!(implication(&pred(Rel::Gt, 50i64), true, &pred(Rel::Eq, 60i64)), None);
        // price == 60 true ⇒ price > 50 true.
        assert_eq!(implication(&pred(Rel::Eq, 60i64), true, &pred(Rel::Gt, 50i64)), Some(true));
        // price == 60 false ⇒ price == 60 false (trivially).
        assert_eq!(implication(&pred(Rel::Eq, 60i64), false, &pred(Rel::Eq, 60i64)), Some(false));
        // price != 60 true ⇒ price == 60 false.
        assert_eq!(implication(&pred(Rel::Ne, 60i64), true, &pred(Rel::Eq, 60i64)), Some(false));
    }

    #[test]
    fn implication_string() {
        // stock == GOOGL true decides everything.
        assert_eq!(
            implication(&pred(Rel::Eq, "GOOGL"), true, &pred(Rel::Prefix, "GOO")),
            Some(true)
        );
        assert_eq!(implication(&pred(Rel::Eq, "GOOGL"), true, &pred(Rel::Eq, "MSFT")), Some(false));
        assert_eq!(implication(&pred(Rel::Eq, "GOOGL"), true, &pred(Rel::Ne, "MSFT")), Some(true));
        // stock == GOOGL false only decides GOOGL-related questions.
        assert_eq!(
            implication(&pred(Rel::Eq, "GOOGL"), false, &pred(Rel::Eq, "GOOGL")),
            Some(false)
        );
        assert_eq!(implication(&pred(Rel::Eq, "GOOGL"), false, &pred(Rel::Eq, "MSFT")), None);
        // prefix reasoning.
        assert_eq!(
            implication(&pred(Rel::Prefix, "GOO"), true, &pred(Rel::Prefix, "G")),
            Some(true)
        );
        assert_eq!(implication(&pred(Rel::Prefix, "G"), true, &pred(Rel::Prefix, "GOO")), None);
        assert_eq!(
            implication(&pred(Rel::Prefix, "GOO"), true, &pred(Rel::Prefix, "MS")),
            Some(false)
        );
        assert_eq!(
            implication(&pred(Rel::Prefix, "GOO"), true, &pred(Rel::Eq, "MSFT")),
            Some(false)
        );
        assert_eq!(
            implication(&pred(Rel::Prefix, "GOO"), false, &pred(Rel::Eq, "GOOGL")),
            Some(false)
        );
        assert_eq!(
            implication(&pred(Rel::Prefix, "GOO"), false, &pred(Rel::Prefix, "GOOG")),
            Some(false)
        );
    }

    #[test]
    fn implication_matches_brute_force_numeric() {
        // Exhaustive check over a small domain: implication() must agree
        // with truth-table evaluation over all values in [-3, 8].
        let rels = [Rel::Eq, Rel::Ne, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge];
        let consts = [-1i64, 0, 1, 3, 5];
        for &gr in &rels {
            for &gc in &consts {
                for &qr in &rels {
                    for &qc in &consts {
                        for gval in [true, false] {
                            let g = pred(gr, gc);
                            let q = pred(qr, qc);
                            let got = implication(&g, gval, &q);
                            // Brute force over a window that includes
                            // all boundaries (constants span [-1, 5]).
                            let mut all_true = true;
                            let mut all_false = true;
                            let mut any = false;
                            for v in -10i64..=15 {
                                if g.eval(&Value::Int(v)) == gval {
                                    any = true;
                                    if q.eval(&Value::Int(v)) {
                                        all_false = false;
                                    } else {
                                        all_true = false;
                                    }
                                }
                            }
                            if !any {
                                continue; // vacuous ancestors can answer anything
                            }
                            // The window [-10, 15] is conservative but not
                            // exhaustive; only check when implication()
                            // made a claim.
                            if let Some(b) = got {
                                if b {
                                    assert!(all_true, "{g} ={gval} wrongly implies {q} true");
                                } else {
                                    assert!(all_false, "{g} ={gval} wrongly implies {q} false");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn conjunction_sat_basic() {
        let sat = |atoms: &[Predicate]| conjunction_satisfiable(atoms);
        assert!(sat(&[pred(Rel::Gt, 10i64), pred(Rel::Lt, 20i64)]));
        assert!(!sat(&[pred(Rel::Gt, 20i64), pred(Rel::Lt, 10i64)]));
        assert!(!sat(&[pred(Rel::Eq, 5i64), pred(Rel::Ne, 5i64)]));
        assert!(!sat(&[pred(Rel::Eq, "A"), pred(Rel::Eq, "B")]));
        assert!(sat(&[pred(Rel::Eq, "GOOGL"), pred(Rel::Prefix, "GOO")]));
        // Type clash on the same operand.
        assert!(!sat(&[pred(Rel::Eq, 5i64), pred(Rel::Eq, "A")]));
        // Distinct operands are independent.
        let a = Predicate::field("a", Rel::Gt, 20i64);
        let b = Predicate::field("b", Rel::Lt, 10i64);
        assert!(sat(&[a, b]));
        assert!(sat(&[])); // empty conjunction is `true`
    }
}
