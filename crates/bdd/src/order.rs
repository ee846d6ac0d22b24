//! Variable ordering.
//!
//! A BDD variable is an atomic predicate. Variables are ordered first by
//! *field* (operand), then canonically within a field. The per-field
//! grouping is what lets Algorithm 2 slice the BDD into contiguous
//! field-specific components; the field order itself is a heuristic
//! choice (§V-C: "determining an optimal field order is NP-hard, but
//! simple heuristics often work well").
//!
//! The heuristic here is chosen from the rule list, not from the spec
//! alone: a *tie-break* order ([`VarOrder::tie_break`], what a header
//! spec yields) is fitted to each list the bulk constructor is given.
//! Fields every rule tests go first, equality-only ones before ranged
//! ones. `stock == S and price > t` over a spec declaring `price` first
//! then builds one `stock` band with a few `price` tests under each
//! symbol, instead of a cross product of price bands and symbols.

use camus_lang::ast::{Operand, Predicate, Rel};
use camus_lang::value::Value;
use std::collections::HashMap;

/// An ordering over operands (fields and aggregates).
///
/// Operands not present in the order are appended in first-appearance
/// order at build time, so a partial order (e.g. derived from a header
/// spec) is always safe to use.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarOrder {
    keys: Vec<String>,
    rank: HashMap<String, usize>,
    /// A tie-break order is fitted to each rule list ([`VarOrder::fit`]);
    /// any other order is used verbatim.
    tie_break: bool,
}

impl VarOrder {
    /// An empty order: fields are ranked by first appearance in the
    /// rule set.
    pub fn empty() -> Self {
        VarOrder::default()
    }

    /// An explicit order over operand keys (`price`, `avg(price)`,
    /// `itch_order.stock` ... — must match [`Operand::key`] exactly),
    /// used verbatim for every rule list.
    pub fn from_keys<I, S>(keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut order = VarOrder::default();
        for k in keys {
            order.push(k.into());
        }
        order
    }

    /// An order the bulk constructor fits to each rule list it builds
    /// (`VarOrder::fit`), with `keys` breaking the ties: the order a
    /// header spec declares its fields in.
    pub fn tie_break<I, S>(keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        VarOrder { tie_break: true, ..VarOrder::from_keys(keys) }
    }

    /// Append a key (no-op if already present).
    pub(crate) fn push(&mut self, key: String) {
        if !self.rank.contains_key(&key) {
            self.rank.insert(key.clone(), self.keys.len());
            self.keys.push(key);
        }
    }

    /// Rank of an operand key, if present.
    pub fn rank(&self, key: &str) -> Option<usize> {
        self.rank.get(key).copied()
    }

    /// Rank of an operand, if present. A plain field's key is its name,
    /// so only an aggregate formats one.
    pub(crate) fn rank_of(&self, op: &Operand) -> Option<usize> {
        match op {
            Operand::Field(name) => self.rank(name),
            Operand::Aggregate { .. } => self.rank(&op.key()),
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The order to build a rule list with. A tie-break order moves the
    /// operands every field-bearing rule tests to the top — those tested
    /// only by `==` first, then the rest, each group in tie-break order —
    /// and keeps every other key in tie-break order; an aggregate key
    /// (`avg(price)`) follows its field wherever the field goes. With no
    /// such operand the result is the tie-break order itself. Any other
    /// order is returned as it is.
    pub(crate) fn fit(&self, stats: &FieldStats) -> VarOrder {
        if !self.tie_break {
            return self.clone();
        }
        // Operands every field-bearing rule tests, and whether any of
        // those tests is not an equality.
        let universal: HashMap<String, bool> = stats
            .uses
            .iter()
            .filter(|(_, u)| u.rules == stats.rules)
            .map(|(op, u)| (op.key(), u.ranged > 0))
            .collect();
        // The field an aggregate key reads, when that field is ranked.
        let field_of = |k: &str| -> Option<String> {
            let (_, field) = k.strip_suffix(')')?.split_once('(')?;
            self.rank.contains_key(field).then(|| field.to_string())
        };
        let class = |k: &String| match universal.get(k) {
            Some(false) => 0,
            Some(true) => 1,
            None => 2,
        };
        let heads: Vec<&String> = self.keys.iter().filter(|k| field_of(k).is_none()).collect();
        let mut keys = Vec::with_capacity(self.keys.len());
        for c in 0..3 {
            for &head in heads.iter().filter(|&&h| class(h) == c) {
                keys.push(head.clone());
                keys.extend(
                    self.keys.iter().filter(|k| field_of(k).as_ref() == Some(head)).cloned(),
                );
            }
        }
        VarOrder::from_keys(keys)
    }
}

/// What [`VarOrder::fit`] reads off a rule list: how many rules test any
/// field at all (`true` and `false` rules test none), and per operand how
/// many of those rules test it — and how many with anything but `==`.
/// Counts over DNF atoms, kept per rule insert and removal by
/// [`crate::IncrementalBdd`], so refitting after a delta costs
/// O(delta + fields).
#[derive(Debug, Clone, Default)]
pub(crate) struct FieldStats {
    rules: usize,
    uses: HashMap<Operand, FieldUse>,
    /// Calls to [`FieldStats::count`] so far: what a use is stamped with.
    calls: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct FieldUse {
    rules: usize,
    ranged: usize,
    /// The last call that counted this operand, and whether it counted
    /// it ranged: a rule counts each operand once, without a list of
    /// the operands it has counted.
    seen: (u64, bool),
}

impl FieldStats {
    /// Count (`add`) or uncount one rule, given all its DNF atoms.
    pub(crate) fn count<'a>(&mut self, atoms: impl IntoIterator<Item = &'a Predicate>, add: bool) {
        let step = |n: &mut usize| if add { *n += 1 } else { *n -= 1 };
        self.calls += 1;
        let mut any = false;
        for a in atoms {
            any = true;
            let u = match self.uses.get_mut(&a.operand) {
                Some(u) => u,
                // An earlier atom of the rule uncounted its operand's last rule.
                None if !add => continue,
                None => self.uses.entry(a.operand.clone()).or_default(),
            };
            if u.seen.0 != self.calls {
                u.seen = (self.calls, false);
                step(&mut u.rules);
            }
            if a.rel != Rel::Eq && !u.seen.1 {
                u.seen.1 = true;
                step(&mut u.ranged);
            }
            if u.rules == 0 {
                self.uses.remove(&a.operand);
            }
        }
        if any {
            step(&mut self.rules);
        }
    }
}

/// Canonical within-field ordering of predicates: by relation class
/// (in `Rel`'s declaration order, equalities first), then constant. Any
/// fixed total order works for correctness; keeping equalities together
/// helps the compiler emit dense exact-match tables. The key borrows
/// the predicate's string constant, so comparing two keys allocates
/// nothing.
pub(crate) fn pred_sort_key(p: &Predicate) -> (u8, Option<i64>, Option<&str>) {
    match &p.constant {
        Value::Int(i) => (p.rel as u8, Some(*i), None),
        Value::Str(s) => (p.rel as u8, None, Some(s)),
    }
}

/// The bulk constructor's alphabet: the distinct atoms of `atoms` in
/// variable order, and the level of each occurrence's atom in that
/// order (one entry per item of `atoms`, in the same sequence).
///
/// The order is the operand's rank in `order` — operands missing from
/// it rank after every listed one, in first-appearance order — then
/// [`pred_sort_key`]. A rank is resolved once per run of occurrences
/// with one operand. Each occurrence packs its rank and its key into
/// one `u128`, from the top: rank (28 bits), relation (3), whether the
/// constant is an integer (1: `None` before `Some`), the constant (64:
/// an integer sign-biased, so unsigned order is signed order; a string
/// by its rank among the list's distinct strings) and the occurrence's
/// index (32). One sort of the keys puts the occurrences of each atom
/// in one run, and one pass over the runs lists each atom once and
/// reads off every occurrence's level. Ranks
/// are distinct per operand key, so a run holds one atom unless two
/// operands share a key; those are told apart by operand, in
/// first-appearance order.
pub(crate) fn sorted_alphabet<'a>(
    order: &VarOrder,
    atoms: impl Iterator<Item = &'a Predicate>,
) -> (Vec<Predicate>, Vec<u32>) {
    let atoms: Vec<&Predicate> = atoms.collect();
    let mut strs: Vec<&str> = atoms.iter().filter_map(|a| pred_sort_key(a).2).collect();
    strs.sort_unstable();
    strs.dedup();
    let mut ranks: HashMap<&Operand, u128> = HashMap::new();
    let mut last: Option<(&Operand, u128)> = None;
    let mut keys: Vec<u128> = Vec::with_capacity(atoms.len());
    for (i, atom) in atoms.iter().enumerate() {
        let rank = match last {
            Some((op, rank)) if *op == atom.operand => rank,
            _ => {
                let appeared = ranks.len();
                let rank = *ranks.entry(&atom.operand).or_insert_with(|| {
                    order.rank_of(&atom.operand).unwrap_or(order.len() + appeared) as u128
                });
                debug_assert!(rank < 1 << 28, "operand rank {rank} overflows its key bits");
                last = Some((&atom.operand, rank));
                rank
            }
        };
        let (rel, int, string) = pred_sort_key(atom);
        let constant = match int {
            Some(v) => 1 << 64 | u128::from(v as u64 ^ 1 << 63),
            None => strs.partition_point(|t| Some(*t) < string) as u128,
        };
        keys.push((rank << 3 | u128::from(rel)) << 97 | constant << 32 | i as u128);
    }
    keys.sort_unstable();
    let same_atom = |a: &u128, b: &u128| a >> 32 == b >> 32;
    let mut preds: Vec<Predicate> = Vec::with_capacity(keys.chunk_by(same_atom).count());
    let mut levels = vec![0u32; keys.len()];
    for run in keys.chunk_by(same_atom) {
        let first = preds.len();
        for &key in run {
            let i = key as u32 as usize;
            let level = match preds[first..].iter().position(|p| p.operand == atoms[i].operand) {
                Some(k) => first + k,
                None => {
                    preds.push(atoms[i].clone());
                    preds.len() - 1
                }
            };
            levels[i] = level as u32;
        }
    }
    (preds, levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::dnf::to_dnf;
    use camus_lang::parser::parse_rules;

    /// The ITCH spec's declaration order, as `StaticPipeline::var_order`
    /// lists it: each field followed by its aggregates.
    fn itch_tie_break() -> VarOrder {
        VarOrder::tie_break(["shares", "price", "stock", "side"].iter().flat_map(|f| {
            [f.to_string(), format!("count({f})"), format!("sum({f})"), format!("avg({f})")]
        }))
    }

    fn fit(order: &VarOrder, rules: &str) -> Vec<String> {
        let mut stats = FieldStats::default();
        for r in parse_rules(rules).unwrap() {
            stats.count(to_dnf(&r.filter).terms.iter().flat_map(|c| &c.atoms), true);
        }
        order.fit(&stats).keys.to_vec()
    }

    /// The plain fields of an order, aggregates left out.
    fn fields(keys: &[String]) -> Vec<&str> {
        keys.iter().filter(|k| !k.contains('(')).map(String::as_str).collect()
    }

    #[test]
    fn from_keys_ranks_in_order() {
        let o = VarOrder::from_keys(["stock", "price", "shares"]);
        assert_eq!(o.rank("stock"), Some(0));
        assert_eq!(o.rank("price"), Some(1));
        assert_eq!(o.rank("shares"), Some(2));
        assert_eq!(o.rank("missing"), None);
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn push_is_idempotent() {
        let mut o = VarOrder::empty();
        o.push("a".into());
        o.push("a".into());
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn itch_shape_puts_the_symbol_above_the_price() {
        // Every rule tests `stock` with `==` and `price` with `>`: the
        // symbol band goes first, the price tests hang under it.
        let keys = fit(
            &itch_tie_break(),
            "stock == A and price > 1: fwd(1)\n\
             stock == B and price > 2: fwd(2)\n\
             stock == A and price > 7: fwd(3)\n",
        );
        assert_eq!(fields(&keys), ["stock", "price", "shares", "side"]);
        assert_eq!(keys.len(), itch_tie_break().len(), "a permutation of the tie-break");
    }

    #[test]
    fn anchored_siena_shape_keeps_spec_order() {
        // Only the anchor is tested by every rule, and it is declared
        // first already; a string field tested by some rules must not
        // rise above it.
        let order = VarOrder::tie_break(["attr0", "attr1", "attr2", "attr3"]);
        let keys = fit(
            &order,
            "attr0 == 1 and attr2 == SYM3 and attr1 > 5: fwd(1)\n\
             attr0 == 2 and attr3 < 9: fwd(2)\n\
             attr0 == 1 and attr2 == SYM1: fwd(3)\n",
        );
        assert_eq!(keys, order.keys);
    }

    #[test]
    fn no_universal_field_keeps_spec_order_exactly() {
        let order = itch_tie_break();
        let keys = fit(&order, "stock == A: fwd(1)\nprice > 3: fwd(2)\nside == 1: fwd(3)\n");
        assert_eq!(keys, order.keys);
        assert_eq!(fit(&order, ""), order.keys, "an empty list fits to the tie-break");
    }

    #[test]
    fn true_rules_are_ignored() {
        // `true` (and `false`) rules test no field, so they neither
        // count against a field's universality nor promote anything.
        let keys = fit(
            &itch_tie_break(),
            "true: fwd(9)\n\
             stock == A and price > 1: fwd(1)\n\
             false: fwd(8)\n\
             stock == B: fwd(2)\n",
        );
        assert_eq!(fields(&keys), ["stock", "shares", "price", "side"]);
    }

    #[test]
    fn equality_only_fields_go_before_ranged_ones() {
        // Both are universal; `shares` is declared first but tested
        // with `>`, so the equality-only `side` goes above it.
        let keys = fit(
            &itch_tie_break(),
            "shares > 1 and side == 1: fwd(1)\nshares == 4 and side == 2: fwd(2)\n",
        );
        assert_eq!(fields(&keys), ["side", "shares", "price", "stock"]);
    }

    #[test]
    fn aggregates_follow_their_field() {
        let keys = fit(&itch_tie_break(), "price > 5 and avg(price) > 60: fwd(1)\n");
        let at = |k: &str| keys.iter().position(|x| x == k).unwrap();
        assert_eq!(at("price"), 0);
        assert_eq!(at("avg(price)"), at("price") + 3, "count, sum, avg right after price");
        assert!(at("avg(price)") < at("shares"));
    }

    #[test]
    fn pinned_and_empty_orders_are_used_verbatim() {
        let rules = "stock == A and price > 1: fwd(1)\n";
        let pinned = VarOrder::from_keys(["price", "stock"]);
        assert_eq!(fit(&pinned, rules), pinned.keys);
        assert!(fit(&VarOrder::empty(), rules).is_empty());
    }

    #[test]
    fn counts_retract_exactly() {
        let rules = parse_rules("stock == A and price > 1: fwd(1)\nstock == B: fwd(2)\n").unwrap();
        let atoms = |i: usize| to_dnf(&rules[i].filter).terms;
        let mut stats = FieldStats::default();
        stats.count(atoms(0).iter().flat_map(|c| &c.atoms), true);
        let one = itch_tie_break().fit(&stats);
        stats.count(atoms(1).iter().flat_map(|c| &c.atoms), true);
        assert_ne!(itch_tie_break().fit(&stats), one, "price is no longer universal");
        stats.count(atoms(1).iter().flat_map(|c| &c.atoms), false);
        assert_eq!(itch_tie_break().fit(&stats), one);
        stats.count(atoms(0).iter().flat_map(|c| &c.atoms), false);
        assert!(stats.uses.is_empty() && stats.rules == 0);
    }

    #[test]
    fn pred_sort_key_separates_relations() {
        use camus_lang::ast::Predicate;
        let eq = Predicate::field("f", Rel::Eq, 5i64);
        let gt = Predicate::field("f", Rel::Gt, 1i64);
        assert!(pred_sort_key(&eq) < pred_sort_key(&gt));
        let s1 = Predicate::field("f", Rel::Eq, "A");
        let s2 = Predicate::field("f", Rel::Eq, "B");
        assert!(pred_sort_key(&s1) < pred_sort_key(&s2));
    }
}
