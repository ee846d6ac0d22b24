//! Property-based tests for the BDD: evaluation must equal direct
//! filter evaluation on arbitrary rule sets and packets, construction
//! must be deterministic, and the reductions must never lose sharing
//! below the trivial bound.

use camus_bdd::{rule_digest, Bdd, BddBuilder, IncrementalBdd, NodeRef, VarOrder};
use camus_lang::ast::{Action, AggFunc, Expr, Operand, Predicate, Rel, Rule};
use camus_lang::dnf::{to_dnf, Dnf};
use camus_lang::value::Value;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};

fn arb_pred() -> impl Strategy<Value = Predicate> {
    let int_field = prop_oneof![Just("p"), Just("q")];
    let rel = prop_oneof![
        Just(Rel::Eq),
        Just(Rel::Ne),
        Just(Rel::Lt),
        Just(Rel::Le),
        Just(Rel::Gt),
        Just(Rel::Ge)
    ];
    let int_pred = (int_field, rel, -8i64..8).prop_map(|(f, r, c)| Predicate::field(f, r, c));
    let sym = prop_oneof![Just("A"), Just("AB"), Just("ABC"), Just("Z")];
    let srel = prop_oneof![Just(Rel::Eq), Just(Rel::Ne), Just(Rel::Prefix)];
    let str_pred = (srel, sym).prop_map(|(r, s)| Predicate::field("s", r, s));
    prop_oneof![2 => int_pred, 1 => str_pred]
}

fn arb_filter() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        6 => arb_pred().prop_map(Expr::Atom),
        1 => Just(Expr::True),
        1 => Just(Expr::False)
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Expr::not),
        ]
    })
}

fn arb_rules() -> impl Strategy<Value = Vec<Rule>> {
    prop::collection::vec(arb_filter(), 1..8).prop_map(|fs| {
        fs.into_iter()
            .enumerate()
            .map(|(i, filter)| Rule {
                filter,
                // Distinct actions so labels equal rule indices.
                action: Action::Forward(vec![i as u16 + 1]),
            })
            .collect()
    })
}

fn arb_packet() -> impl Strategy<Value = (i64, i64, String)> {
    let sym = prop_oneof![Just("A"), Just("AB"), Just("ABC"), Just("Z"), Just("QQ")];
    (-10i64..10, -10i64..10, sym.prop_map(String::from))
}

/// A churn operation for the incremental-maintenance properties.
#[derive(Debug, Clone)]
enum Op {
    Insert(Rule),
    /// Remove the rule at this index (mod live length) of the mirror.
    Remove(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let ins = (arb_filter(), 0u16..4)
        .prop_map(|(filter, a)| Op::Insert(Rule { filter, action: Action::Forward(vec![a + 1]) }));
    let rem = (0usize..64).prop_map(Op::Remove);
    prop::collection::vec(prop_oneof![2 => ins, 1 => rem], 1..24)
}

/// Identifier-routing churn: `id == K` subscriptions, some with a
/// `price > t` qualifier, plus occasional pure range rules.
fn arb_id_ops() -> impl Strategy<Value = Vec<Op>> {
    let ins = (0i64..512, 0i64..32, 0u16..4, 0u8..10).prop_map(|(k, t, a, shape)| {
        let id_atom = Expr::Atom(Predicate::field("id", Rel::Eq, k));
        let price_atom = Expr::Atom(Predicate::field("price", Rel::Gt, t));
        let filter = match shape {
            0..=5 => id_atom,
            6..=8 => id_atom.and(price_atom),
            _ => price_atom,
        };
        Op::Insert(Rule { filter, action: Action::Forward(vec![a + 1]) })
    });
    let rem = (0usize..64).prop_map(Op::Remove);
    prop::collection::vec(prop_oneof![2 => ins, 1 => rem], 1..32)
}

/// Rule lists that reach every attachment class of the bulk
/// constructor: `id == K` (a direct band label), `id == K and price ⋛ t`
/// (a residual tail — or a miscellaneous chain once `price` is ordered
/// above `id`), range-only, `true`, a disjunction, and duplicates (the
/// constants and actions are few, and the first rule is repeated).
fn arb_band_rules() -> impl Strategy<Value = Vec<Rule>> {
    let rule = (0i64..24, 0i64..12, 0u16..4, 0u8..12).prop_map(|(k, t, a, shape)| {
        let id = Expr::Atom(Predicate::field("id", Rel::Eq, k));
        let above = Expr::Atom(Predicate::field("price", Rel::Gt, t));
        let below = Expr::Atom(Predicate::field("price", Rel::Lt, t + 4));
        let filter = match shape {
            0..=3 => id,
            4..=5 => id.and(above),
            6 => id.and(above).and(below),
            7..=8 => above,
            9 => Expr::True,
            10 => id.or(below),
            _ => Expr::Atom(Predicate::field("id", Rel::Ne, k)).and(below),
        };
        Rule { filter, action: Action::Forward(vec![a + 1]) }
    });
    prop::collection::vec(rule, 1..24).prop_map(|mut rules| {
        rules.push(rules[0].clone());
        rules
    })
}

/// `arb_rules()` with single-atom rules spliced in over three operands
/// it lacks: the field `r`, which no order of the alphabet test ranks,
/// the aggregate `avg(p)`, both with the extreme integers among their
/// constants, and the field `m`, tested against integers and strings
/// alike.
fn arb_rules_more_operands() -> impl Strategy<Value = Vec<Rule>> {
    let rel = prop_oneof![Just(Rel::Eq), Just(Rel::Ne), Just(Rel::Lt), Just(Rel::Gt)];
    let int = prop_oneof![-4i64..4, Just(i64::MIN), Just(i64::MAX), Just(0), Just(-1)];
    let ranged = (any::<bool>(), rel, int.clone()).prop_map(|(agg, rel, c)| {
        let operand = if agg {
            Operand::Aggregate { func: AggFunc::Avg, field: "p".into() }
        } else {
            Operand::Field("r".into())
        };
        Predicate::new(operand, rel, c)
    });
    let sym = prop_oneof![Just("A"), Just("AB"), Just("Z")].prop_map(Value::from);
    let mixed =
        (prop_oneof![Just(Rel::Eq), Just(Rel::Ne)], prop_oneof![int.prop_map(Value::Int), sym])
            .prop_map(|(rel, c)| Predicate::field("m", rel, c));
    let extra = (prop_oneof![ranged, mixed], 0usize..16);
    (arb_rules(), prop::collection::vec(extra, 0..8)).prop_map(|(mut rules, extras)| {
        for (pred, at) in extras {
            let at = at % (rules.len() + 1);
            rules.insert(at, Rule { filter: Expr::Atom(pred), action: Action::Forward(vec![99]) });
        }
        rules
    })
}

/// Rule lists for the fold of constant rules into the deepest band,
/// over `g`, `id` and `price`: `true` beside `id == K` members, price
/// tails, tails on the band's own field (`id == K and id != J` and
/// `id == K and id < J`, which the normaliser drops as implied), a `g`
/// band above with `id` tails (an `id > K` one leaves the `id` band
/// not pure-equality, so its members go through `mk`), and, when
/// `unfolded`, chains that are not terminals, which keep the constant
/// rules out of the bands.
fn arb_fold_rules() -> impl Strategy<Value = Vec<Rule>> {
    let rule = (0i64..16, 0i64..8, 0u16..4, 0u8..14);
    (prop::collection::vec(rule, 1..24), any::<bool>()).prop_map(|(rules, unfolded)| {
        let atom = |f: &str, rel, c: i64| Expr::Atom(Predicate::field(f, rel, c));
        let rule = |(k, t, a, shape): (i64, i64, u16, u8)| {
            let id = atom("id", Rel::Eq, k);
            let filter = match if unfolded { shape } else { shape % 12 } {
                0..=2 => id,
                3 => id.and(atom("price", Rel::Gt, t)),
                4 => id.and(atom("price", Rel::Lt, t + 3)),
                5 | 6 => Expr::True,
                7 => id.and(atom("id", Rel::Ne, k + 1)),
                8 => id.and(atom("id", Rel::Lt, k + 3)),
                9 => atom("g", Rel::Eq, t).and(atom("id", Rel::Gt, k)),
                10 => atom("g", Rel::Eq, t).and(id),
                11 => atom("g", Rel::Eq, t).or(Expr::False),
                12 => atom("price", Rel::Gt, t),
                _ => atom("id", Rel::Lt, k),
            };
            Rule { filter, action: Action::Forward(vec![a + 1]) }
        };
        rules.into_iter().map(rule).collect()
    })
}

/// Whether two diagrams are one reduced diagram: a walk from both roots
/// in step pairs each node of `a` with one node of `b` that tests the
/// same predicate, and each terminal with one that matches the same
/// actions.
fn same_diagram(a: &Bdd, b: &Bdd) -> bool {
    let actions = |bdd: &Bdd, t| -> BTreeSet<String> {
        bdd.terminal(t).iter().map(|&l| format!("{:?}", bdd.label(l))).collect()
    };
    let mut paired: HashMap<NodeRef, NodeRef> = HashMap::new();
    let mut stack = vec![(a.root(), b.root())];
    while let Some((x, y)) = stack.pop() {
        if let Some(&z) = paired.get(&x) {
            if z != y {
                return false;
            }
            continue;
        }
        paired.insert(x, y);
        match (x, y) {
            (NodeRef::Term(s), NodeRef::Term(t)) if actions(a, s) == actions(b, t) => {}
            (NodeRef::Node(m), NodeRef::Node(n))
                if a.pred(a.node(m).var) == b.pred(b.node(n).var) =>
            {
                stack.push((a.node(m).lo, b.node(n).lo));
                stack.push((a.node(m).hi, b.node(n).hi));
            }
            _ => return false,
        }
    }
    paired.values().collect::<HashSet<_>>().len() == paired.len()
}

/// The within-field order as the bulk constructor first compared it,
/// owning the string constant.
fn owned_pred_sort_key(p: &Predicate) -> (u8, Option<i64>, Option<String>) {
    let relk = match p.rel {
        Rel::Eq => 0u8,
        Rel::Ne => 1,
        Rel::Lt => 2,
        Rel::Le => 3,
        Rel::Gt => 4,
        Rel::Ge => 5,
        Rel::Prefix => 6,
        Rel::NotPrefix => 7,
    };
    match &p.constant {
        Value::Int(i) => (relk, Some(*i), None),
        Value::Str(s) => (relk, None, Some(s.clone())),
    }
}

/// Reference alphabet: the distinct DNF atoms of `rules`, sorted by the
/// comparator the bulk constructor once used on every comparison —
/// operand rank in `order`, else order length plus the operand key's
/// first-appearance index, then operand key, then the owned
/// within-field key.
fn reference_alphabet(rules: &[Rule], order: &VarOrder) -> Vec<Predicate> {
    let dnfs: Vec<Dnf> = rules.iter().map(|r| to_dnf(&r.filter)).collect();
    let mut appearance: HashMap<String, usize> = HashMap::new();
    let mut seen: HashSet<&Predicate> = HashSet::new();
    let mut preds: Vec<Predicate> = Vec::new();
    for atom in dnfs.iter().flat_map(|d| &d.terms).flat_map(|c| &c.atoms) {
        if seen.insert(atom) {
            let next = appearance.len();
            appearance.entry(atom.operand.key()).or_insert(next);
            preds.push(atom.clone());
        }
    }
    let operand_rank = |op: &Operand| {
        let key = op.key();
        order.rank(&key).unwrap_or_else(|| {
            order.len() + appearance.get(&key).copied().unwrap_or(usize::MAX / 2)
        })
    };
    preds.sort_by(|a, b| {
        operand_rank(&a.operand)
            .cmp(&operand_rank(&b.operand))
            .then_with(|| a.operand.key().cmp(&b.operand.key()))
            .then_with(|| owned_pred_sort_key(a).cmp(&owned_pred_sort_key(b)))
    });
    preds
}

/// Matched *actions* for a packet: incremental label ids drift from
/// scratch ids once freed slots are recycled, so equivalence is over
/// the actions the labels resolve to.
fn matched_actions<F>(bdd: &Bdd, lookup: F) -> BTreeSet<String>
where
    F: Fn(&Operand) -> Option<Value>,
{
    bdd.eval(lookup).iter().map(|&l| format!("{:?}", bdd.label(l))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// BDD evaluation equals direct evaluation of the rule filters.
    #[test]
    fn bdd_equals_direct_eval(
        rules in arb_rules(),
        pkts in prop::collection::vec(arb_packet(), 1..10),
    ) {
        let bdd = BddBuilder::from_rules(&rules).build();
        for (p, q, s) in &pkts {
            let lookup = |op: &Operand| match op.key().as_str() {
                "p" => Some(Value::Int(*p)),
                "q" => Some(Value::Int(*q)),
                "s" => Some(Value::Str(s.clone())),
                _ => None,
            };
            let want: BTreeSet<u32> = rules
                .iter()
                .enumerate()
                .filter(|(_, r)| r.filter.eval_with(lookup))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(
                bdd.eval(lookup),
                &want,
                "packet p={} q={} s={:?}\nrules: {:#?}",
                p, q, s, rules
            );
        }
    }

    /// Construction is deterministic.
    #[test]
    fn construction_is_deterministic(rules in arb_rules()) {
        let a = BddBuilder::from_rules(&rules).build();
        let b = BddBuilder::from_rules(&rules).build();
        prop_assert_eq!(a.node_count(), b.node_count());
        prop_assert_eq!(a.terminal_count(), b.terminal_count());
        prop_assert_eq!(a.root(), b.root());
    }

    /// An explicit variable order changes structure but not semantics.
    #[test]
    fn order_preserves_semantics(
        rules in arb_rules(),
        pkts in prop::collection::vec(arb_packet(), 1..6),
    ) {
        let default = BddBuilder::from_rules(&rules).build();
        let reversed = BddBuilder::from_rules(&rules)
            .with_order(VarOrder::from_keys(["s", "q", "p"]))
            .build();
        for (p, q, s) in &pkts {
            let lookup = |op: &Operand| match op.key().as_str() {
                "p" => Some(Value::Int(*p)),
                "q" => Some(Value::Int(*q)),
                "s" => Some(Value::Str(s.clone())),
                _ => None,
            };
            prop_assert_eq!(default.eval(lookup), reversed.eval(lookup));
        }
    }

    /// Any insert/remove sequence on the incremental store is
    /// semantically identical to a scratch build of the surviving rule
    /// set, and its compacted snapshot is no larger.
    #[test]
    fn incremental_churn_equals_scratch(
        base in arb_rules(),
        ops in arb_ops(),
        pkts in prop::collection::vec(arb_packet(), 1..8),
    ) {
        let order = VarOrder::empty();
        let mut inc = IncrementalBdd::from_rules(&base, &order);
        let mut live: Vec<Rule> = base;
        for op in ops {
            match op {
                Op::Insert(r) => {
                    inc.insert_rule(&r);
                    live.push(r);
                }
                Op::Remove(i) if !live.is_empty() => {
                    let r = live.swap_remove(i % live.len());
                    prop_assert!(inc.remove_by_digest(rule_digest(&r)), "live rule must be removable");
                }
                Op::Remove(_) => {}
            }
        }
        prop_assert_eq!(inc.rule_count(), live.len());
        let scratch = BddBuilder::from_rules(&live).build();
        for (p, q, s) in &pkts {
            let lookup = |op: &Operand| match op.key().as_str() {
                "p" => Some(Value::Int(*p)),
                "q" => Some(Value::Int(*q)),
                "s" => Some(Value::Str(s.clone())),
                _ => None,
            };
            prop_assert_eq!(
                matched_actions(inc.bdd(), lookup),
                matched_actions(&scratch, lookup),
                "packet p={} q={} s={:?}\nlive: {:#?}",
                p, q, s, live
            );
        }
        // Leak check: churn must not grow the diagram beyond a small
        // factor of scratch. (Exact equality is not well-posed here:
        // operands first seen mid-churn append to the incremental
        // variable order but sort by appearance in a scratch build,
        // and BDD size is order-sensitive. The strict bound is
        // asserted under a pinned order in
        // `identifier_churn_node_count_bounded`.)
        inc.force_gc();
        let snap = inc.snapshot();
        prop_assert!(
            snap.node_count() <= 4 * scratch.node_count() + 16,
            "snapshot {} vs scratch {}",
            snap.node_count(),
            scratch.node_count()
        );
    }

    /// Under the identifier-routing workload with a pinned field
    /// order — the regime the million-subscription control plane runs
    /// in — the churned snapshot is node-count bounded by the scratch
    /// build.
    #[test]
    fn identifier_churn_node_count_bounded(
        ops in arb_id_ops(),
        pkts in prop::collection::vec((-2i64..520, -2i64..40), 1..8),
    ) {
        let order = VarOrder::from_keys(["id", "price"]);
        let mut inc = IncrementalBdd::from_rules(&[], &order);
        let mut live: Vec<Rule> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(r) => {
                    inc.insert_rule(&r);
                    live.push(r);
                }
                Op::Remove(i) if !live.is_empty() => {
                    let r = live.swap_remove(i % live.len());
                    prop_assert!(inc.remove_by_digest(rule_digest(&r)));
                }
                Op::Remove(_) => {}
            }
        }
        let scratch = BddBuilder::from_rules(&live)
            .with_order(VarOrder::from_keys(["id", "price"]))
            .build();
        for (id, price) in &pkts {
            let lookup = |op: &Operand| match op.key().as_str() {
                "id" => Some(Value::Int(*id)),
                "price" => Some(Value::Int(*price)),
                _ => None,
            };
            prop_assert_eq!(
                matched_actions(inc.bdd(), lookup),
                matched_actions(&scratch, lookup),
                "packet id={} price={}",
                id, price
            );
        }
        // With the field order pinned, the only structural freedom left
        // is the *member order inside the pure-equality `id` band*
        // (band-top insertion vs the scratch build's canonical sort),
        // and member permutation preserves node count: a chain is a
        // chain, and redundant-test elimination (store reduction iv)
        // elides a member whose residual is subsumed by the band exit
        // no matter where in the band it sits. Without that reduction
        // this bound is unattainable — whether a same-action-subsumed
        // rule leaves a vacuous test chain behind would depend on the
        // order unions were folded in, and the incremental refresh
        // (re-merging against the full misc conjunct) folds in a
        // different order than a scratch build.
        inc.force_gc();
        let snap = inc.snapshot();
        prop_assert!(
            snap.node_count() <= scratch.node_count(),
            "snapshot {} vs scratch {}",
            snap.node_count(),
            scratch.node_count()
        );
    }

    /// The Bdd-level primitives: unioning rules into a live diagram
    /// matches a scratch build of the concatenated list.
    #[test]
    fn bdd_insert_rule_matches_scratch(
        base in arb_rules(),
        extra in arb_rules(),
        pkts in prop::collection::vec(arb_packet(), 1..6),
    ) {
        let mut bdd = BddBuilder::from_rules(&base).build();
        for r in &extra {
            bdd.insert_rule(r);
        }
        let mut all = base;
        all.extend(extra);
        let scratch = BddBuilder::from_rules(&all).build();
        for (p, q, s) in &pkts {
            let lookup = |op: &Operand| match op.key().as_str() {
                "p" => Some(Value::Int(*p)),
                "q" => Some(Value::Int(*q)),
                "s" => Some(Value::Str(s.clone())),
                _ => None,
            };
            prop_assert_eq!(
                matched_actions(&bdd, lookup),
                matched_actions(&scratch, lookup),
                "packet p={} q={} s={:?}",
                p, q, s
            );
        }
    }

    /// Identical rules collapse to one label and add no structure.
    #[test]
    fn duplicate_rules_share_everything(filter in arb_filter()) {
        let one = vec![Rule { filter: filter.clone(), action: Action::Forward(vec![1]) }];
        let many: Vec<Rule> = (0..5)
            .map(|_| Rule { filter: filter.clone(), action: Action::Forward(vec![1]) })
            .collect();
        let a = BddBuilder::from_rules(&one).build();
        let b = BddBuilder::from_rules(&many).build();
        prop_assert_eq!(a.node_count(), b.node_count());
        prop_assert_eq!(a.terminal_count(), b.terminal_count());
    }

    /// Folding constant rules into the deepest band changes no diagram:
    /// the one-shot build (no digests: folded) and the seed (digests:
    /// unfolded, the constant rules unioned over the bands) reduce to
    /// one diagram, node for node, under each field order.
    #[test]
    fn bulk_without_digests_equals_bulk_with_digests(rules in arb_fold_rules()) {
        for order in [
            VarOrder::from_keys(["g", "id", "price"]),
            VarOrder::from_keys(["price", "id", "g"]),
            VarOrder::empty(),
        ] {
            let cold = BddBuilder::from_rules(&rules).with_order(order.clone()).build();
            let seed = IncrementalBdd::from_rules(&rules, &order);
            prop_assert_eq!(cold.node_count(), seed.bdd().node_count(), "rules: {:#?}", rules);
            prop_assert!(same_diagram(&cold, seed.bdd()), "rules: {:#?}", rules);
        }
    }

    /// The bulk alphabet is the reference order: with no field order,
    /// with a pinned one and with a fitted tie-break order, levels list
    /// the distinct atoms exactly as the per-comparison comparator
    /// sorted them, ranked under the order the diagram records.
    #[test]
    fn bulk_alphabet_equals_reference_order(rules in arb_rules_more_operands()) {
        for order in [
            VarOrder::empty(),
            VarOrder::from_keys(["s", "avg(p)", "m", "q"]),
            VarOrder::tie_break(["q", "m", "s", "p", "avg(p)"]),
        ] {
            let bdd = BddBuilder::from_rules(&rules).with_order(order).build();
            let levels: Vec<&Predicate> = (0..bdd.preds().len() as u32)
                .map(|l| bdd.pred(bdd.pred_at_level(l)))
                .collect();
            let want = reference_alphabet(&rules, bdd.var_order());
            prop_assert_eq!(levels, want.iter().collect::<Vec<_>>(), "rules: {:#?}", rules);
        }
    }

    /// The bulk constructor against two independent references: the
    /// naive one-rule-at-a-time fold of `Bdd::insert_rule` (chains and
    /// unions only, no bands) and direct evaluation of the filters —
    /// with the equality field on top (bands carry the list) and with
    /// the range field above it (every two-field conjunction is a
    /// miscellaneous chain).
    #[test]
    fn bulk_build_equals_naive_fold_equals_direct_eval(
        rules in arb_band_rules(),
        pkts in prop::collection::vec((-1i64..26, -1i64..18), 1..12),
    ) {
        for order in [VarOrder::empty(), VarOrder::from_keys(["price", "id"])] {
            let bulk = BddBuilder::from_rules(&rules).with_order(order.clone()).build();
            let mut naive = BddBuilder::from_rules(&[]).with_order(order).build();
            for r in &rules {
                naive.insert_rule(r);
            }
            for (id, price) in &pkts {
                let lookup = |op: &Operand| match op.key().as_str() {
                    "id" => Some(Value::Int(*id)),
                    "price" => Some(Value::Int(*price)),
                    _ => None,
                };
                let want: BTreeSet<String> = rules
                    .iter()
                    .filter(|r| r.filter.eval_with(lookup))
                    .map(|r| format!("{:?}", r.action))
                    .collect();
                prop_assert_eq!(
                    matched_actions(&bulk, lookup),
                    want.clone(),
                    "bulk: packet id={} price={}\nrules: {:#?}",
                    id, price, rules
                );
                prop_assert_eq!(
                    matched_actions(&naive, lookup),
                    want,
                    "naive: packet id={} price={}\nrules: {:#?}",
                    id, price, rules
                );
            }
        }
    }
}

/// Exact-count guard, taken before any timing: on an identifier-shaped
/// list the bulk constructor allocates the diagram and nothing else.
/// (Pairwise union of per-rule chains allocated 19 412 nodes for these
/// 3 429.)
#[test]
fn identifier_list_builds_without_garbage() {
    let rules: Vec<Rule> = (0..3_000i64)
        .map(|i| {
            let id = Expr::Atom(Predicate::field("id", Rel::Eq, i));
            let filter = if i % 7 == 0 {
                id.and(Expr::Atom(Predicate::field("price", Rel::Gt, (i * 37) % 1_000)))
            } else {
                id
            };
            Rule { filter, action: Action::Forward(vec![(i % 32) as u16 + 1]) }
        })
        .collect();
    let bdd =
        BddBuilder::from_rules(&rules).with_order(VarOrder::from_keys(["id", "price"])).build();
    assert_eq!(bdd.node_count(), 3_429);
    assert_eq!(bdd.allocated_nodes(), 3_429);
    assert_eq!(bdd.gc_stats().runs, 0, "the count is the construction's own, not a sweep's");
}
