//! Building a BDD from a rule set.
//!
//! Each rule's filter is normalised to DNF ([`camus_lang::dnf`]) and
//! every conjunction becomes a chain of decision nodes ending in a
//! terminal `{rule}`. [`BddBuilder`] is the one-shot façade over the
//! crate's single bulk constructor (`IncrementalBdd::bulk`, which
//! documents the band construction): it skips the per-rule bookkeeping
//! churn needs and hands the diagram back in place.

use crate::incremental::IncrementalBdd;
use crate::order::VarOrder;
use crate::store::Bdd;
use camus_lang::ast::{Action, Expr, Rule};

/// A 1 GiB stack size, kept for callers outside the workspace that name
/// it. No workspace code uses it: construction keeps its work on the
/// heap and runs on any thread.
pub const DEEP_STACK: usize = 1 << 30;

/// Configures and runs BDD construction.
pub struct BddBuilder<'a> {
    rules: Vec<(&'a Expr, &'a Action)>,
    order: VarOrder,
}

impl<'a> BddBuilder<'a> {
    /// Start from complete rules: [`BddBuilder::from_refs`] over the
    /// list.
    pub fn from_rules(rules: &'a [Rule]) -> Self {
        BddBuilder::from_refs(rules.iter().map(|r| (&r.filter, &r.action)))
    }

    /// Start from rules read by reference, each as its filter and
    /// action. Filters are DNF-normalised and actions interned at build
    /// time, so identical actions share a terminal label — the collapse
    /// that keeps e.g. 100 K same-collector telemetry filters compact.
    pub fn from_refs(rules: impl IntoIterator<Item = (&'a Expr, &'a Action)>) -> Self {
        BddBuilder { rules: rules.into_iter().collect(), order: VarOrder::empty() }
    }

    /// Use a field order: a [`VarOrder::tie_break`] (what a header spec
    /// yields) is fitted to the rules, any other order is used verbatim.
    pub fn with_order(mut self, order: VarOrder) -> Self {
        self.order = order;
        self
    }

    /// Construct the BDD.
    pub fn build(self) -> Bdd {
        IncrementalBdd::bulk(self.rules.iter().copied(), None::<std::iter::Empty<u64>>, &self.order)
            .into_bdd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{NodeRef, RuleId, TermId};
    use camus_lang::ast::Operand;
    use camus_lang::parser::{parse_rule, parse_rules};
    use camus_lang::value::Value;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn lookup_for<'a>(vals: &'a [(&'a str, Value)]) -> impl Fn(&Operand) -> Option<Value> + 'a {
        move |op: &Operand| vals.iter().find(|(n, _)| *n == op.key()).map(|(_, v)| v.clone())
    }

    #[test]
    fn figure5_rules() {
        // The three rules of Fig. 5 in the paper.
        let rules = parse_rules(
            "shares == 1 and stock == GOOGL: fwd(1)\n\
             stock == GOOGL: fwd(2)\n\
             shares > 5 and stock == FB: fwd(3)\n",
        )
        .unwrap();
        let bdd = BddBuilder::from_rules(&rules).build();

        // shares=1, stock=GOOGL matches rules 0 and 1.
        let m = bdd.eval(lookup_for(&[("shares", Value::Int(1)), ("stock", Value::from("GOOGL"))]));
        assert_eq!(m, &BTreeSet::from([0, 1]));

        // shares=9, stock=FB matches rule 2 only.
        let m = bdd.eval(lookup_for(&[("shares", Value::Int(9)), ("stock", Value::from("FB"))]));
        assert_eq!(m, &BTreeSet::from([2]));

        // shares=9, stock=GOOGL matches rule 1 only.
        let m = bdd.eval(lookup_for(&[("shares", Value::Int(9)), ("stock", Value::from("GOOGL"))]));
        assert_eq!(m, &BTreeSet::from([1]));

        // Nothing of interest.
        let m = bdd.eval(lookup_for(&[("shares", Value::Int(2)), ("stock", Value::from("MSFT"))]));
        assert!(m.is_empty());
    }

    #[test]
    fn empty_rule_set_is_empty_terminal() {
        let bdd = BddBuilder::from_rules(&[]).build();
        assert_eq!(bdd.root(), NodeRef::Term(TermId(0)));
        assert!(bdd.eval(|_| None).is_empty());
    }

    #[test]
    fn true_filter_matches_everything() {
        let rules = vec![parse_rule("true: fwd(1)").unwrap()];
        let bdd = BddBuilder::from_rules(&rules).build();
        assert_eq!(bdd.eval(|_| None), &BTreeSet::from([0]));
    }

    #[test]
    fn false_filter_matches_nothing() {
        let rules = vec![parse_rule("false: fwd(1)").unwrap()];
        let bdd = BddBuilder::from_rules(&rules).build();
        assert!(bdd.eval(|_| None).is_empty());
    }

    #[test]
    fn disjunction_creates_multiple_chains() {
        let rules = vec![parse_rule("stock == A or stock == B: fwd(1)").unwrap()];
        let bdd = BddBuilder::from_rules(&rules).build();
        for sym in ["A", "B"] {
            let m = bdd.eval(lookup_for(&[("stock", Value::from(sym))]));
            assert_eq!(m, &BTreeSet::from([0]), "stock {sym}");
        }
        let m = bdd.eval(lookup_for(&[("stock", Value::from("C"))]));
        assert!(m.is_empty());
    }

    #[test]
    fn explicit_order_is_respected() {
        let rules = parse_rules("a == 1 and b == 2: fwd(1)").unwrap();
        let order = VarOrder::from_keys(["b", "a"]);
        let bdd = BddBuilder::from_rules(&rules).with_order(order).build();
        // Root must test `b` (rank 0).
        match bdd.root() {
            NodeRef::Node(id) => {
                assert_eq!(bdd.pred(bdd.node(id).var).operand.key(), "b");
            }
            _ => panic!("expected a decision node"),
        }
    }

    #[test]
    fn shared_suffixes_are_merged() {
        // One rule with three disjuncts sharing the price tail: the
        // three chains end in the same terminal, so the price subgraph
        // is hash-consed into a single node.
        let rules =
            parse_rules("(stock == A or stock == B or stock == C) and price > 10: fwd(1)\n")
                .unwrap();
        let bdd = BddBuilder::from_rules(&rules).build();
        // Exactly one price node should exist among reachable nodes.
        let price_nodes = bdd
            .reachable_nodes()
            .into_iter()
            .filter(|&id| bdd.pred(bdd.node(id).var).operand.key() == "price")
            .count();
        assert_eq!(price_nodes, 1);
    }

    #[test]
    fn overlapping_rules_merge_terminals() {
        let rules = parse_rules(
            "price > 50: fwd(1)\n\
             price > 80: fwd(2)\n",
        )
        .unwrap();
        let bdd = BddBuilder::from_rules(&rules).build();
        let m = bdd.eval(lookup_for(&[("price", Value::Int(100))]));
        assert_eq!(m, &BTreeSet::from([0, 1]));
        let m = bdd.eval(lookup_for(&[("price", Value::Int(60))]));
        assert_eq!(m, &BTreeSet::from([0]));
        let m = bdd.eval(lookup_for(&[("price", Value::Int(10))]));
        assert!(m.is_empty());
    }

    #[test]
    fn aggregate_operands_are_distinct_variables() {
        let rules = parse_rules(
            "price > 50: fwd(1)\n\
             avg(price) > 50: fwd(2)\n",
        )
        .unwrap();
        let bdd = BddBuilder::from_rules(&rules).build();
        assert_eq!(bdd.field_groups().len(), 2);
        // Lookup that only resolves the plain field.
        let m = bdd.eval(|op| match op {
            Operand::Field(f) if f == "price" => Some(Value::Int(60)),
            _ => None,
        });
        assert_eq!(m, &BTreeSet::from([0]));
    }

    /// The central correctness property: BDD evaluation must agree with
    /// direct evaluation of every rule filter, for random rule sets and
    /// random packets.
    #[test]
    fn bdd_matches_direct_evaluation_randomised() {
        let mut rng = StdRng::seed_from_u64(99);
        let symbols = ["AAPL", "GOOGL", "MSFT", "FB"];
        for trial in 0..40 {
            // Generate a random rule set.
            let n_rules = rng.gen_range(1..12);
            let mut rules = Vec::new();
            for i in 0..n_rules {
                let mut parts = Vec::new();
                if rng.gen_bool(0.7) {
                    let sym = symbols[rng.gen_range(0..symbols.len())];
                    let op = if rng.gen_bool(0.8) { "==" } else { "!=" };
                    parts.push(format!("stock {op} {sym}"));
                }
                if rng.gen_bool(0.7) {
                    let rel = ["<", "<=", ">", ">=", "==", "!="][rng.gen_range(0..6)];
                    parts.push(format!("price {rel} {}", rng.gen_range(0..20)));
                }
                if rng.gen_bool(0.4) {
                    let rel = [">", "<"][rng.gen_range(0..2)];
                    parts.push(format!("shares {rel} {}", rng.gen_range(0..10)));
                }
                if parts.is_empty() {
                    parts.push("true".to_string());
                }
                let src = format!("{}: fwd({})", parts.join(" and "), (i % 16) + 1);
                rules.push(parse_rule(&src).unwrap());
            }
            let bdd = BddBuilder::from_rules(&rules).build();

            // Compare against direct evaluation on random packets.
            for _ in 0..200 {
                let stock = Value::from(symbols[rng.gen_range(0..symbols.len())]);
                let price = Value::Int(rng.gen_range(-2i64..22));
                let shares = Value::Int(rng.gen_range(-2i64..12));
                let lookup = |op: &Operand| match op.key().as_str() {
                    "stock" => Some(stock.clone()),
                    "price" => Some(price.clone()),
                    "shares" => Some(shares.clone()),
                    _ => None,
                };
                let expect: BTreeSet<RuleId> = rules
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.filter.eval_with(lookup))
                    .map(|(i, _)| i as RuleId)
                    .collect();
                let got = bdd.eval(lookup);
                assert_eq!(
                    got, &expect,
                    "trial {trial}: packet stock={stock} price={price} shares={shares}\n\
                     rules: {rules:#?}"
                );
            }
        }
    }

    #[test]
    fn node_count_scales_with_sharing() {
        // 50 disjoint exact-match rules build a linear chain: node
        // count stays O(n), far below the naive 2^n.
        let rules: Vec<Rule> =
            (0..50).map(|i| parse_rule(&format!("id == {i}: fwd(1)")).unwrap()).collect();
        let bdd = BddBuilder::from_rules(&rules).build();
        assert!(bdd.node_count() <= 50, "got {}", bdd.node_count());
    }
}
