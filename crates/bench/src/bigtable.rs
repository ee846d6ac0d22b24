//! The naive "one big table" baseline of Fig. 12.
//!
//! §V-B: *"programmable switch ASICs only support matching a single
//! entry in a table, but a packet might satisfy multiple rules. Hence,
//! we would require a table entry for every possible combination of
//! rules, resulting in an exponential number of entries in the worst
//! case."*
//!
//! This module counts those entries: the number of non-empty rule
//! subsets whose filters are jointly satisfiable (each such combination
//! needs its own wide entry whose action is the merged forward). The
//! count saturates at a configurable cap, since the whole point of the
//! comparison is that it explodes.

use camus_lang::ast::{Rel, Rule};
use camus_lang::dnf::to_dnf;
use camus_lang::sets::{IntSet, StrSet};
use camus_lang::value::Value;
use std::collections::HashMap;

/// Joint terms kept per combination: satisfiability is already proven
/// by one witness, so wider lists only buy extensions the cut-off ones
/// would have found.
const WIDTH_CAP: usize = 16;

/// Result of a big-table sizing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BigTableSize {
    /// Number of entries, valid when `capped` is false.
    pub entries: u64,
    /// The count hit the cap and enumeration stopped.
    pub capped: bool,
}

/// What a joint term has fixed about one operand so far.
#[derive(Debug, Clone)]
enum Domain {
    Free,
    Int(IntSet),
    Str(StrSet),
}

/// An atom with its operand resolved to a dense slot.
struct Atom<'a> {
    slot: usize,
    rel: Rel,
    constant: &'a Value,
}

/// A satisfiable conjunction, as the domain of every operand slot.
type Joint = Vec<Domain>;

/// Intersect `joint` with `atoms`, in order; false once some operand's
/// domain is empty. This is `conjunction_satisfiable`'s fold, carried
/// from one extension to the next instead of redone from the root.
fn fold(joint: &mut Joint, atoms: &[Atom]) -> bool {
    for a in atoms {
        let domain = &mut joint[a.slot];
        if let Domain::Free = domain {
            *domain = match a.constant {
                Value::Int(_) => Domain::Int(IntSet::full()),
                Value::Str(_) => Domain::Str(StrSet::full()),
            };
        }
        let empty = match (a.constant, domain) {
            (Value::Int(c), Domain::Int(set)) => {
                *set = set.intersect(&IntSet::from_rel(a.rel, *c));
                set.is_empty()
            }
            (Value::Str(s), Domain::Str(set)) => {
                set.add(a.rel, s);
                set.is_empty()
            }
            // An attribute has a single type.
            _ => true,
        };
        if empty {
            return false;
        }
    }
    true
}

/// Count the entries the naive single-table representation needs, up to
/// `cap`. A combination `S` is counted when some packet satisfies every
/// filter in `S` — checked via joint DNF satisfiability.
pub fn big_table_entries(rules: &[Rule], cap: u64) -> BigTableSize {
    // Each rule's DNF terms, their operands resolved to slots once.
    let dnfs: Vec<_> = rules.iter().map(|r| to_dnf(&r.filter)).collect();
    let mut slots: HashMap<String, usize> = HashMap::new();
    let resolved: Vec<Vec<Vec<Atom>>> = dnfs
        .iter()
        .map(|d| {
            d.terms
                .iter()
                .map(|c| {
                    c.atoms
                        .iter()
                        .map(|p| {
                            let next = slots.len();
                            let slot = *slots.entry(p.operand.key()).or_insert(next);
                            Atom { slot, rel: p.rel, constant: &p.constant }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let free: Joint = vec![Domain::Free; slots.len()];

    let mut count: u64 = 0;
    // Depth-first over subsets: extend the current satisfiable
    // combination with rules of higher index. Memory stays O(depth):
    // only the current path's joint conjunctions are held (capped in
    // width).
    fn dfs(
        rules: &[Vec<Vec<Atom>>],
        from: usize,
        joint: &[Joint],
        count: &mut u64,
        cap: u64,
    ) -> bool {
        for (j, terms) in rules.iter().enumerate().skip(from) {
            if terms.is_empty() {
                continue;
            }
            let mut next: Vec<Joint> = Vec::new();
            'combine: for a in joint {
                for c in terms {
                    let mut atoms = a.clone();
                    if fold(&mut atoms, c) {
                        next.push(atoms);
                        if next.len() >= WIDTH_CAP {
                            break 'combine;
                        }
                    }
                }
            }
            if next.is_empty() {
                continue; // this combination never co-matches with j
            }
            *count += 1;
            if *count >= cap {
                return true; // capped
            }
            if dfs(rules, j + 1, &next, count, cap) {
                return true;
            }
        }
        false
    }

    // Seed with each single satisfiable rule.
    for (i, terms) in resolved.iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        count += 1;
        if count >= cap {
            return BigTableSize { entries: cap, capped: true };
        }
        let joint: Vec<Joint> = terms
            .iter()
            .filter_map(|c| {
                let mut atoms = free.clone();
                fold(&mut atoms, c).then_some(atoms)
            })
            .collect();
        if dfs(&resolved, i + 1, &joint, &mut count, cap) {
            return BigTableSize { entries: cap, capped: true };
        }
    }
    BigTableSize { entries: count, capped: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::ast::{Action, Expr, Predicate};
    use camus_lang::parser::parse_rules;
    use camus_lang::sets::conjunction_satisfiable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn entries(src: &str) -> u64 {
        big_table_entries(&parse_rules(src).unwrap(), 1 << 32).entries
    }

    #[test]
    fn disjoint_rules_are_linear() {
        // Mutually exclusive filters: one entry per rule.
        let n = entries(
            "stock == A: fwd(1)\n\
             stock == B: fwd(2)\n\
             stock == C: fwd(3)\n",
        );
        assert_eq!(n, 3);
    }

    #[test]
    fn nested_ranges_are_quadratic_ish() {
        // price > 10, > 20, > 30 pairwise overlap: all subsets of a
        // chain are satisfiable -> 2^3 - 1.
        let n = entries("price > 10: fwd(1)\nprice > 20: fwd(2)\nprice > 30: fwd(3)\n");
        assert_eq!(n, 7);
    }

    #[test]
    fn identical_rules_explode_exponentially() {
        // k identical filters -> 2^k - 1 combinations.
        for k in 1..10u32 {
            let src: String = (0..k).map(|i| format!("price > 5: fwd({})\n", i + 1)).collect();
            assert_eq!(entries(&src), (1u64 << k) - 1, "k={k}");
        }
    }

    #[test]
    fn partially_overlapping_mix() {
        // a and b overlap; c is disjoint from both.
        let n = entries(
            "price > 10: fwd(1)\n\
             price < 20: fwd(2)\n\
             price > 100 and price < 50: fwd(3)\n", // unsatisfiable rule
        );
        // {1}, {2}, {1,2}; rule 3 is unsatisfiable and contributes none.
        assert_eq!(n, 3);
    }

    #[test]
    fn cap_stops_enumeration() {
        let src: String = (0..40).map(|i| format!("price > 5: fwd({})\n", i + 1)).collect();
        let rules = parse_rules(&src).unwrap();
        let r = big_table_entries(&rules, 10_000);
        assert!(r.capped);
        assert_eq!(r.entries, 10_000);
    }

    #[test]
    fn empty_rule_set() {
        assert_eq!(entries(""), 0);
    }

    #[test]
    fn string_and_numeric_mix() {
        let n = entries(
            "stock == GOOGL and price > 50: fwd(1)\n\
             stock == GOOGL and price > 80: fwd(2)\n\
             stock == MSFT: fwd(3)\n",
        );
        // {1}, {2}, {1,2}, {3}.
        assert_eq!(n, 4);
    }

    /// A random atom over two integer fields and one string field; now
    /// and then a string constant lands on an integer field, so the
    /// type-conflict path runs too.
    fn random_atom(rng: &mut StdRng) -> Expr {
        let int_rels = [Rel::Eq, Rel::Ne, Rel::Lt, Rel::Le, Rel::Gt, Rel::Ge];
        let str_rels = [Rel::Eq, Rel::Ne, Rel::Prefix];
        let strs = ["x", "xy", "y"];
        let p = match rng.gen_range(0..7) {
            0 => Predicate::field("a", Rel::Eq, strs[rng.gen_range(0..3)]),
            1 | 2 => {
                Predicate::field("s", str_rels[rng.gen_range(0..3)], strs[rng.gen_range(0..3)])
            }
            k => {
                let field = if k < 5 { "a" } else { "b" };
                Predicate::field(field, int_rels[rng.gen_range(0..6)], rng.gen_range(0..6i64))
            }
        };
        let atom = Expr::Atom(p);
        if rng.gen_bool(0.2) {
            Expr::Not(Box::new(atom))
        } else {
            atom
        }
    }

    /// Every non-empty subset whose rules have, one DNF term each, a
    /// jointly satisfiable conjunction.
    fn brute_force(rules: &[Rule]) -> u64 {
        let dnfs: Vec<_> = rules.iter().map(|r| to_dnf(&r.filter)).collect();
        (1u32..1 << rules.len())
            .filter(|mask| {
                let members: Vec<_> = (0..rules.len()).filter(|i| mask & (1 << i) != 0).collect();
                // Walk the product of the members' terms like an odometer.
                let mut pick = vec![0usize; members.len()];
                if members.iter().any(|&i| dnfs[i].terms.is_empty()) {
                    return false;
                }
                loop {
                    let atoms: Vec<Predicate> = members
                        .iter()
                        .zip(&pick)
                        .flat_map(|(&i, &t)| dnfs[i].terms[t].atoms.iter().cloned())
                        .collect();
                    if conjunction_satisfiable(&atoms) {
                        return true;
                    }
                    let mut k = 0;
                    loop {
                        if k == members.len() {
                            return false;
                        }
                        pick[k] += 1;
                        if pick[k] < dnfs[members[k]].terms.len() {
                            break;
                        }
                        pick[k] = 0;
                        k += 1;
                    }
                }
            })
            .count() as u64
    }

    #[test]
    fn count_equals_brute_force_over_all_subsets() {
        let mut rng = StdRng::seed_from_u64(0xB16_7AB1E);
        for case in 0..400 {
            // At most 6 rules of at most 3 terms, and at most 16 joint
            // terms over all rules, so the width cap cannot bind.
            let mut width = 1;
            let rules: Vec<Rule> = (0..rng.gen_range(0..=6))
                .map(|i| {
                    let terms = rng.gen_range(1..=3).min(WIDTH_CAP / width);
                    width *= terms;
                    let filter = (0..terms)
                        .map(|_| {
                            (0..rng.gen_range(1..=3))
                                .map(|_| random_atom(&mut rng))
                                .reduce(Expr::and)
                                .unwrap()
                        })
                        .reduce(Expr::or)
                        .unwrap();
                    Rule { filter, action: Action::Forward(vec![i as u16 + 1]) }
                })
                .collect();
            let product: usize =
                rules.iter().map(|r| to_dnf(&r.filter).terms.len().max(1)).product();
            assert!(product <= WIDTH_CAP, "case {case}: {product} joint terms");
            let fast = big_table_entries(&rules, u64::MAX);
            assert!(!fast.capped);
            assert_eq!(fast.entries, brute_force(&rules), "case {case}: {rules:?}");
        }
    }
}
