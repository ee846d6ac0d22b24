//! Incremental BDD maintenance: rule-granular insert/remove against a
//! live hash-consed store.
//!
//! Two layers are provided:
//!
//! * **The primitive on [`Bdd`]** — [`Bdd::insert_rule`] unions a
//!   rule's chains into the existing DAG (an apply against the live
//!   store). It is correct on any diagram and serves the tests as the
//!   naive reference fold.
//! * **[`IncrementalBdd`]** — the control-plane structure for
//!   million-subscription churn. It decomposes the diagram into
//!   per-field *exact-match chains* plus a small set of miscellaneous
//!   conjunction chains, remembers which chain slice each inserted
//!   rule occupies (keyed by its stable [`rule_digest`]), and on
//!   churn rebuilds only the affected chain prefix before re-merging
//!   the top-level union — whose operands are almost all unchanged, so
//!   the union memo answers them in O(1). Work per operation is
//!   proportional to the delta's position in its band, not to the
//!   table size.
//!
//! Both layers read rules by reference. The one bulk constructor (seed:
//! [`IncrementalBdd::from_refs`]; one-shot: [`crate::BddBuilder`]) and
//! [`IncrementalBdd::insert_ref`] take each rule's filter and action
//! borrowed, with its digest when churn will need it, and copy only the
//! distinct predicates and actions the diagram keeps;
//! [`IncrementalBdd::from_rules`] and [`IncrementalBdd::insert_rule`]
//! are their forms over owned rules.
//!
//! The store's level-table indirection is what makes this sound: a new
//! predicate is spliced into the variable order without disturbing any
//! existing node (`store::Alphabet::insert_pred`), and a new
//! equality joining a pure-equality band lands at the band *top*, so
//! the common churn op — subscribe to a fresh identifier — grows the
//! band chain with O(1) new nodes.
//!
//! Garbage: every chain rebuild strands its old prefix. The store's
//! capacity-triggered mark-and-sweep (`Bdd::gc`) runs at operation
//! boundaries with the maintenance structures as external roots, and
//! the returned `NodeRemap` is applied
//! back, keeping allocation within a constant factor of the reachable
//! size.

use crate::digest::rule_digest;
use crate::order::{sorted_alphabet, FieldStats, VarOrder};
use crate::store::{Bdd, NodeRef, PredId, RuleId, TermId};
use camus_lang::ast::{Action, Expr, Rel, Rule};
use camus_lang::dnf::DnfBuf;
use std::collections::{BTreeMap, HashMap};

const EMPTY: NodeRef = NodeRef::Term(TermId(0));

// -- Bdd-level primitives ----------------------------------------------------

impl Bdd {
    /// Insert one rule into the live diagram: build its conjunction
    /// chains (interning any new predicates into the variable order)
    /// and union them against the current root, reusing the
    /// hash-consed store and its memo tables. Returns the label the
    /// rule's action was interned under.
    pub fn insert_rule(&mut self, rule: &Rule) -> RuleId {
        let label = match self.labels().iter().position(|a| *a == rule.action) {
            Some(i) => i as RuleId,
            None => {
                self.labels_mut().push(rule.action.clone());
                self.labels().len() as RuleId - 1
            }
        };
        let mut dnf = DnfBuf::default();
        dnf.push(&rule.filter);
        let mut chains = Vec::with_capacity(dnf.terms(0).len());
        for conj in dnf.terms(0) {
            let mut pids: Vec<PredId> = conj.iter().map(|a| self.add_pred(a)).collect();
            pids.sort_unstable_by_key(|&p| self.level_of(p));
            chains.push(chain_ref(self, &pids, label));
        }
        let add = union_all(self, chains);
        let root = self.root();
        let merged = self.union(root, add);
        self.set_root(merged);
        label
    }
}

/// One conjunction as a chain over already-interned predicates sorted
/// by level, built bottom-up (deterministic: rebuilt at removal time it
/// reproduces the same hash-consed refs).
fn chain_ref(bdd: &mut Bdd, pids: &[PredId], label: RuleId) -> NodeRef {
    let mut cur = bdd.leaf(label);
    for &v in pids.iter().rev() {
        cur = bdd.mk(v, EMPTY, cur);
    }
    cur
}

/// Union a list of diagrams pairwise, halving each round. Balanced
/// merging keeps operands similar in size, which maximises memo hits.
fn union_all(bdd: &mut Bdd, mut items: Vec<NodeRef>) -> NodeRef {
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(2));
        let mut iter = items.into_iter();
        while let Some(a) = iter.next() {
            next.push(match iter.next() {
                Some(b) => bdd.union(a, b),
                None => a,
            });
        }
        items = next;
    }
    items.pop().unwrap_or(EMPTY)
}

// -- incremental maintenance structure --------------------------------------

/// One conjunction of an inserted rule: its predicates sorted by level,
/// and its miscellaneous chain slot, if it is not attached by its top
/// atom to a band member ([`join`] tells which, and rebuilds the same
/// tail at removal: levels shift under splices, but never reorder).
#[derive(Debug, Clone)]
struct Part {
    pids: Vec<PredId>,
    misc: Option<usize>,
}

/// One inserted occurrence of a rule (duplicates each get their own).
#[derive(Debug, Clone)]
struct Instance {
    label: RuleId,
    parts: Vec<Part>,
}

/// One member of a field band's exact-match chain: the predicate, the
/// refcounted contributions to its hi branch, and the cached branch.
#[derive(Debug)]
struct Member {
    pred: PredId,
    /// Direct labels of single-equality rules, then residual-chain
    /// diagrams, each with its count, sorted. A sweep's remap keeps
    /// the order: it renumbers terminals and nodes in ascending order.
    counts: Vec<(Delta, u32)>,
    /// Cached union of the contributions.
    hi: NodeRef,
}

/// A field group's exact-match chain: members ascending by level, plus
/// the chain suffixes (`suffix[i]` = chain from member `i` down;
/// `suffix[members.len()]` is the empty terminal). Changing member `i`
/// rebuilds `suffix[0..=i]` — O(1) for the band top, where fresh
/// identifiers land.
#[derive(Debug)]
struct EqGroup {
    members: Vec<Member>,
    suffix: Vec<NodeRef>,
}

impl Default for EqGroup {
    fn default() -> EqGroup {
        EqGroup { members: Vec::new(), suffix: vec![EMPTY] }
    }
}

/// What a conjunction contributes to (or retracts from) a member: a
/// direct label, or a residual chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Delta {
    Direct(RuleId),
    Tail(NodeRef),
}

/// A BDD maintained under rule-granular churn. See the module docs for
/// the decomposition; [`IncrementalBdd::snapshot`] produces a compact
/// standalone [`Bdd`] for deployment pipelines.
#[derive(Debug)]
pub struct IncrementalBdd {
    bdd: Bdd,
    /// Per-field exact-match chains, keyed by group id. Group ids are
    /// stable but *not* level-ordered (an ordered operand first seen
    /// mid-churn splices its level band between existing groups), so
    /// the merge fold sorts by current band level, not by key.
    groups: BTreeMap<u32, EqGroup>,
    /// Miscellaneous conjunction chains (freed slots hold `EMPTY`).
    misc: Vec<NodeRef>,
    free_misc: Vec<usize>,
    misc_root: NodeRef,
    /// Live rule occurrences by content digest.
    instances: HashMap<u64, Vec<Instance>>,
    label_index: HashMap<Action, RuleId>,
    label_refs: Vec<u32>,
    free_labels: Vec<RuleId>,
    rule_count: usize,
    /// How the live rules use their fields: what the order is fitted to.
    stats: FieldStats,
    roots_buf: Vec<NodeRef>,
}

impl IncrementalBdd {
    /// Seed from a full rule list: [`IncrementalBdd::from_refs`] over
    /// the list, each rule digested.
    pub fn from_rules(rules: &[Rule], order: &VarOrder) -> IncrementalBdd {
        IncrementalBdd::from_refs(
            rules.iter().map(|r| (rule_digest(r), &r.filter, &r.action)),
            order,
        )
    }

    /// Seed from a rule list read by reference, each rule as its
    /// [`rule_digest`], filter and action: the bulk constructor with
    /// per-rule bookkeeping, then one sweep so the capacity trigger
    /// measures churn garbage against the seeded live set.
    pub fn from_refs<'r, I>(rules: I, order: &VarOrder) -> IncrementalBdd
    where
        I: IntoIterator<Item = (u64, &'r Expr, &'r Action)>,
        I::IntoIter: Clone,
    {
        let rules = rules.into_iter();
        let digests = rules.clone().map(|(digest, ..)| digest);
        let mut inc = IncrementalBdd::bulk(
            rules.map(|(_, filter, action)| (filter, action)),
            Some(digests),
            order,
        );
        inc.force_gc();
        inc
    }

    /// The one bulk constructor of the crate (behind both
    /// [`IncrementalBdd::from_refs`] and [`crate::BddBuilder::build`]).
    /// It reads each rule's filter and action by reference: the filters
    /// are normalised into one [`DnfBuf`] whose atoms borrow from them,
    /// and only the alphabet's distinct predicates and the interned
    /// actions are cloned.
    ///
    /// Each conjunction attaches by its top atom ([`join`]). An
    /// equality head joins its field's *exact-match band*: same-field
    /// equalities are mutually exclusive, so the level-sorted chain
    /// `if p₁ then T₁ else if p₂ then T₂ … else ∅` is already the
    /// reduced diagram for all of them — O(k log k), where pairwise
    /// unions of k one-rule chains cost O(k²) and strand their
    /// intermediates. A residual (`id == K and price > t`) hangs off
    /// its member's hi branch instead of being unioned through the
    /// band. Everything else is a miscellaneous chain; those are merged
    /// by balanced union and the bands folded over the result bottom-up
    /// in level order.
    ///
    /// Hashing and allocation are a small constant per rule. The
    /// alphabet is sorted, not hashed ([`sorted_alphabet`]), and the
    /// alphabet is built sorted, so an atom's id is its level: no atom
    /// is interned again. Each conjunction's ids go through one reused
    /// buffer. What it brings to a band member is recorded as one
    /// `(member, label or tail)` pair, and one sort of those pairs
    /// lists each member's contributions in a run, duplicates adjacent:
    /// one pass counts them, whatever a member's size, and each band is
    /// chained once. A terminal `{label}` is built once per label.
    ///
    /// `order` is first fitted to the list ([`VarOrder::fit`]: a
    /// tie-break order puts the fields every rule tests on top), and the
    /// fitted order is the one the alphabet records, so churn splices
    /// keep it.
    ///
    /// `digests`, one per rule in list order, records what churn needs
    /// to retract a rule later (its digest, the conjunctions it attached
    /// and the members' counts). Without them nothing of that is built,
    /// and the result is only good for its diagram.
    pub(crate) fn bulk<'r>(
        rules: impl Iterator<Item = (&'r Expr, &'r Action)> + Clone,
        mut digests: Option<impl Iterator<Item = u64>>,
        order: &VarOrder,
    ) -> IncrementalBdd {
        let dnfs: DnfBuf = rules.clone().map(|(filter, _)| filter).collect();
        let mut stats = FieldStats::default();
        for i in 0..rules.clone().count() {
            stats.count(dnfs.terms(i).flatten().map(|a| &**a), true);
        }
        let order = &order.fit(&stats);

        // The predicate alphabet, and the level of every atom occurrence
        // in rule, term, atom order.
        let (preds, levels) = sorted_alphabet(order, dnfs.atoms());
        let mut inc = IncrementalBdd {
            bdd: Bdd::with_ordered_alphabet(preds, order.clone(), levels.len()),
            groups: BTreeMap::new(),
            misc: Vec::new(),
            free_misc: Vec::new(),
            misc_root: EMPTY,
            instances: HashMap::new(),
            label_index: HashMap::new(),
            label_refs: Vec::new(),
            free_labels: Vec::new(),
            rule_count: 0,
            stats,
            roots_buf: Vec::new(),
        };

        let mut levels = levels.into_iter();
        let mut joins: Vec<(PredId, Delta)> = Vec::with_capacity(rules.size_hint().0);
        let mut pids = Vec::new();
        for (i, (_, action)) in rules.enumerate() {
            inc.rule_count += 1;
            let label = inc.intern_label(action);
            let digest = digests.as_mut().and_then(Iterator::next);
            let mut parts = Vec::new();
            for conj in dnfs.terms(i) {
                pids.clear();
                pids.extend(levels.by_ref().take(conj.len()).map(PredId));
                debug_assert!(pids.iter().zip(conj).all(|(&p, a)| inc.bdd.pred(p) == &**a));
                pids.sort_unstable();
                let joined = join(&mut inc.bdd, &pids, label);
                joins.extend(joined);
                let misc = joined.is_none().then(|| inc.alloc_misc(&pids, label));
                if digest.is_some() {
                    parts.push(Part { pids: pids.clone(), misc });
                }
            }
            if let Some(digest) = digest {
                inc.instances.entry(digest).or_default().push(Instance { label, parts });
            }
        }
        // Chain each band once, in group-id order, so node ids — and
        // with them every later tie-break — repeat exactly from one
        // build of a list to the next. A band's members are the id run
        // of its group's level range, already in level order.
        joins.sort_unstable();
        let mut rest = &joins[..];
        for g in 0..inc.bdd.field_groups().len() {
            let end = inc.bdd.field_groups()[g].1.end;
            let (band, more) = rest.split_at(rest.partition_point(|&(pred, _)| pred.0 < end));
            rest = more;
            if band.is_empty() {
                continue;
            }
            let member = |a: &(PredId, Delta), b: &(PredId, Delta)| a.0 == b.0;
            let mut members = Vec::with_capacity(band.chunk_by(member).count());
            members.extend(band.chunk_by(member).map(|joined| {
                let counted = joined.chunk_by(|a, b| a == b).map(|c| (c[0].1, c.len() as u32));
                let hi = member_hi(&mut inc.bdd, counted.clone().map(|(delta, _)| delta));
                let counts = if digests.is_some() { counted.collect() } else { Vec::new() };
                Member { pred: joined[0].0, counts, hi }
            }));
            let mut group = EqGroup { suffix: vec![EMPTY; members.len() + 1], members };
            let last = group.members.len() - 1;
            rebuild_from(&mut inc.bdd, &mut group, last);
            inc.groups.insert(g as u32, group);
        }
        inc.merge_root(true);
        inc
    }

    /// The diagram, given up in place (no sweep, no copy).
    pub(crate) fn into_bdd(self) -> Bdd {
        self.bdd
    }

    // -- churn operations --------------------------------------------------

    /// Insert one rule; returns its content digest (the handle
    /// [`IncrementalBdd::remove_by_digest`] takes). Duplicates stack.
    pub fn insert_rule(&mut self, rule: &Rule) -> u64 {
        self.insert_ref(rule_digest(rule), &rule.filter, &rule.action)
    }

    /// Insert one rule read by reference, given its [`rule_digest`];
    /// returns the digest. Duplicates stack.
    pub fn insert_ref(&mut self, digest: u64, filter: &Expr, action: &Action) -> u64 {
        let label = self.intern_label(action);
        let mut dnf = DnfBuf::default();
        dnf.push(filter);
        self.stats.count(dnf.atoms(), true);
        let mut parts = Vec::with_capacity(dnf.terms(0).len());
        let mut misc_dirty = false;
        for conj in dnf.terms(0) {
            let mut pids: Vec<PredId> = conj.iter().map(|a| self.bdd.add_pred(a)).collect();
            pids.sort_unstable_by_key(|&p| self.bdd.level_of(p));
            let joined = join(&mut self.bdd, &pids, label);
            if let Some((pred, delta)) = joined {
                let g = self.bdd.group_of(pred);
                eq_apply(&mut self.bdd, self.groups.entry(g).or_default(), pred, delta, true);
            }
            let misc = joined.is_none().then(|| self.alloc_misc(&pids, label));
            misc_dirty |= misc.is_some();
            parts.push(Part { pids, misc });
        }
        self.instances.entry(digest).or_default().push(Instance { label, parts });
        self.rule_count += 1;
        self.refresh(misc_dirty);
        digest
    }

    /// Remove one occurrence of the rule with this content digest —
    /// no rule value needed, the stored bookkeeping suffices.
    pub fn remove_by_digest(&mut self, digest: u64) -> bool {
        let Some(insts) = self.instances.get_mut(&digest) else {
            return false;
        };
        let inst = insts.pop().expect("instance lists are never left empty");
        if insts.is_empty() {
            self.instances.remove(&digest);
        }
        let bdd = &self.bdd;
        self.stats.count(inst.parts.iter().flat_map(|p| &p.pids).map(|&p| bdd.pred(p)), false);
        let mut misc_dirty = false;
        for part in &inst.parts {
            if let Some(slot) = part.misc {
                self.misc[slot] = EMPTY;
                self.free_misc.push(slot);
                misc_dirty = true;
                continue;
            }
            // A tail diagram is rooted via its member's counts, so the
            // rebuild in `join` resolves to the identical refs.
            let (pred, delta) = join(&mut self.bdd, &part.pids, inst.label).expect("a band part");
            let g = self.bdd.group_of(pred);
            let group = self.groups.get_mut(&g).expect("group exists for live part");
            eq_apply(&mut self.bdd, group, pred, delta, false);
        }
        self.release_label(inst.label);
        self.rule_count -= 1;
        self.refresh(misc_dirty);
        true
    }

    // -- accessors ---------------------------------------------------------

    /// The live diagram (root is always current).
    pub fn bdd(&self) -> &Bdd {
        &self.bdd
    }

    /// Live rule occurrences.
    pub fn rule_count(&self) -> usize {
        self.rule_count
    }

    /// The live rule multiset: each held digest with its occurrences.
    pub fn digest_counts(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.instances.iter().map(|(&d, v)| (d, v.len()))
    }

    /// Whether `order`, fitted to the rules held now, is still the order
    /// the diagram was built with. O(fields): the fit reads counts kept
    /// per insert and removal. When it is not, a scratch build of the
    /// live list would order its fields differently.
    pub fn fits(&self, order: &VarOrder) -> bool {
        order.fit(&self.stats) == *self.bdd.var_order()
    }

    /// Reachable nodes via the store's reusable scratch.
    pub fn live_nodes(&mut self) -> usize {
        self.bdd.live_nodes()
    }

    /// A compact standalone copy of the current diagram for deployment:
    /// one post-order copy of the reachable nodes, then the dead
    /// predicates compacted away. The maintenance structure itself stays
    /// live for further churn. No sweep runs, so the copy's
    /// [`Bdd::gc_stats`] count none.
    pub fn snapshot(&self) -> Bdd {
        let mut out = self.bdd.reachable_copy();
        out.compact_preds();
        out
    }

    // -- internals ---------------------------------------------------------

    fn intern_label(&mut self, action: &Action) -> RuleId {
        if let Some(&id) = self.label_index.get(action) {
            self.label_refs[id as usize] += 1;
            return id;
        }
        let id = match self.free_labels.pop() {
            Some(id) => {
                self.bdd.labels_mut()[id as usize] = action.clone();
                self.label_refs[id as usize] = 1;
                id
            }
            None => {
                self.bdd.labels_mut().push(action.clone());
                self.label_refs.push(1);
                self.bdd.labels().len() as RuleId - 1
            }
        };
        self.label_index.insert(action.clone(), id);
        id
    }

    fn release_label(&mut self, id: RuleId) {
        self.label_refs[id as usize] -= 1;
        if self.label_refs[id as usize] == 0 {
            let action = self.bdd.label(id).clone();
            self.label_index.remove(&action);
            self.free_labels.push(id);
        }
    }

    /// Chain a miscellaneous conjunction into a free slot.
    fn alloc_misc(&mut self, pids: &[PredId], label: RuleId) -> usize {
        let leaf = chain_ref(&mut self.bdd, pids, label);
        match self.free_misc.pop() {
            Some(i) => {
                self.misc[i] = leaf;
                i
            }
            None => {
                self.misc.push(leaf);
                self.misc.len() - 1
            }
        }
    }

    /// Re-merge the root after chain updates, then sweep if due. Every
    /// union operand pair that did not change this op hits the memo, so
    /// the cost is the changed chain's merge path only.
    fn refresh(&mut self, misc_dirty: bool) {
        self.merge_root(misc_dirty);
        self.maybe_gc();
    }

    fn merge_root(&mut self, misc_dirty: bool) {
        if misc_dirty {
            self.misc_root = union_all(&mut self.bdd, self.misc.clone());
        }
        // Fold bottom-up in *band level* order (group ids are not
        // level-ordered once churn splices a new field group between
        // existing ones). The order is stable between ops, so every
        // unchanged operand pair hits the union memo.
        let mut by_level: Vec<u32> = self.groups.keys().copied().collect();
        by_level.sort_unstable_by_key(|&g| {
            std::cmp::Reverse(self.bdd.field_groups()[g as usize].1.start)
        });
        let mut inner = self.misc_root;
        let bdd = &mut self.bdd;
        for g in by_level {
            inner = bdd.union(self.groups[&g].suffix[0], inner);
        }
        bdd.set_root(inner);
    }

    /// Run the store's mark-and-sweep if the capacity trigger fired.
    pub(crate) fn maybe_gc(&mut self) {
        if self.bdd.gc_due() {
            self.force_gc();
        }
    }

    /// Unconditional sweep: collect every maintenance ref as an
    /// external root, then rewrite them through the returned remap.
    pub fn force_gc(&mut self) {
        let mut roots = std::mem::take(&mut self.roots_buf);
        roots.clear();
        roots.extend_from_slice(&self.misc);
        roots.push(self.misc_root);
        for g in self.groups.values() {
            roots.extend_from_slice(&g.suffix);
            for m in &g.members {
                roots.push(m.hi);
                roots.extend(m.deltas().filter_map(|delta| match delta {
                    Delta::Tail(t) => Some(t),
                    Delta::Direct(_) => None,
                }));
            }
        }
        let remap = self.bdd.gc(&roots);
        for r in self.misc.iter_mut() {
            *r = remap.apply(*r);
        }
        self.misc_root = remap.apply(self.misc_root);
        for g in self.groups.values_mut() {
            for s in g.suffix.iter_mut() {
                *s = remap.apply(*s);
            }
            for m in g.members.iter_mut() {
                m.hi = remap.apply(m.hi);
                for (delta, _) in m.counts.iter_mut() {
                    if let Delta::Tail(t) = delta {
                        *t = remap.apply(*t);
                    }
                }
            }
        }
        roots.clear();
        self.roots_buf = roots;
    }
}

impl Member {
    fn deltas(&self) -> impl Iterator<Item = Delta> + Clone + '_ {
        self.counts.iter().map(|&(delta, _)| delta)
    }
}

/// The band member a conjunction joins, its predicates sorted by level,
/// when its top atom is an equality, and what it brings there: its
/// label directly, or the chain of the rest. `None` when it is a
/// miscellaneous chain (the `true` filter's empty conjunction too).
fn join(bdd: &mut Bdd, pids: &[PredId], label: RuleId) -> Option<(PredId, Delta)> {
    let (&head, tail) = pids.split_first()?;
    if bdd.pred(head).rel != Rel::Eq {
        return None;
    }
    let delta = match tail {
        [] => Delta::Direct(label),
        tail => Delta::Tail(chain_ref(bdd, tail, label)),
    };
    Some((head, delta))
}

/// Union of a member's distinct contributions, sorted: the terminal of
/// its direct labels, then each residual tail in turn.
fn member_hi(bdd: &mut Bdd, deltas: impl Iterator<Item = Delta> + Clone) -> NodeRef {
    let mut labels = deltas.clone().map_while(|delta| match delta {
        Delta::Direct(label) => Some(label),
        Delta::Tail(_) => None,
    });
    let mut hi = match (labels.next(), labels.next()) {
        (None, _) => EMPTY,
        (Some(label), None) => bdd.leaf(label),
        (Some(a), Some(b)) => bdd.term([a, b].into_iter().chain(labels).collect()),
    };
    for delta in deltas {
        if let Delta::Tail(t) = delta {
            hi = bdd.union(hi, t);
        }
    }
    hi
}

/// Rebuild a group's chain suffixes from member `idx` up to the top.
fn rebuild_from(bdd: &mut Bdd, g: &mut EqGroup, idx: usize) {
    if g.members.is_empty() {
        g.suffix[0] = EMPTY;
        return;
    }
    for j in (0..=idx).rev() {
        let (pred, hi) = (g.members[j].pred, g.members[j].hi);
        let lo = g.suffix[j + 1];
        g.suffix[j] = bdd.mk(pred, lo, hi);
    }
}

/// Apply (`add = true`) or retract a delta on a band member, keeping
/// the chain suffixes current. Cost: O(member position), which the
/// band-top splice policy makes O(1) for fresh identifiers.
fn eq_apply(bdd: &mut Bdd, g: &mut EqGroup, pred: PredId, delta: Delta, add: bool) {
    let lvl = bdd.level_of(pred);
    let idx = g.members.partition_point(|m| bdd.level_of(m.pred) < lvl);
    let exists = idx < g.members.len() && g.members[idx].pred == pred;
    if add {
        if !exists {
            g.members.insert(idx, Member { pred, counts: Vec::new(), hi: EMPTY });
            g.suffix.insert(idx, EMPTY);
        }
        let counts = &mut g.members[idx].counts;
        match counts.binary_search_by_key(&delta, |&(d, _)| d) {
            Ok(i) => counts[i].1 += 1,
            Err(i) => counts.insert(i, (delta, 1)),
        }
        let hi = member_hi(bdd, g.members[idx].deltas());
        if exists && hi == g.members[idx].hi {
            return; // duplicate occurrence: diagram unchanged
        }
        g.members[idx].hi = hi;
        rebuild_from(bdd, g, idx);
    } else {
        assert!(exists, "retracting a delta from a member that is not present");
        let counts = &mut g.members[idx].counts;
        let i = counts.binary_search_by_key(&delta, |&(d, _)| d).expect("the delta is counted");
        counts[i].1 -= 1;
        if counts[i].1 == 0 {
            counts.remove(i);
        }
        if counts.is_empty() {
            g.members.remove(idx);
            g.suffix.remove(idx);
            if idx > 0 {
                rebuild_from(bdd, g, idx - 1);
            } else if g.members.is_empty() {
                g.suffix[0] = EMPTY;
            }
        } else {
            let hi = member_hi(bdd, g.members[idx].deltas());
            if hi != g.members[idx].hi {
                g.members[idx].hi = hi;
                rebuild_from(bdd, g, idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BddBuilder;
    use camus_lang::ast::Operand;
    use camus_lang::parser::{parse_rule, parse_rules};
    use camus_lang::value::Value;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Matched actions (not labels: label ids differ once freed ids
    /// are reused) for a packet, as debug strings.
    fn matched_actions<F>(bdd: &Bdd, lookup: F) -> BTreeSet<String>
    where
        F: Fn(&Operand) -> Option<Value>,
    {
        bdd.eval(lookup).iter().map(|&l| format!("{:?}", bdd.label(l))).collect()
    }

    fn lookup_for(vals: Vec<(&'static str, Value)>) -> impl Fn(&Operand) -> Option<Value> {
        move |op: &Operand| vals.iter().find(|(n, _)| *n == op.key()).map(|(_, v)| v.clone())
    }

    #[test]
    fn bdd_insert_rule_unions_into_root() {
        let rules = parse_rules("id == 1: fwd(1)\nid == 2: fwd(2)\n").unwrap();
        let mut bdd = BddBuilder::from_rules(&rules).build();
        let label = bdd.insert_rule(&parse_rule("id == 3 and price > 5: fwd(3)").unwrap());
        let m = bdd.eval(lookup_for(vec![("id", Value::Int(3)), ("price", Value::Int(9))]));
        assert_eq!(m, &BTreeSet::from([label]));
        let m = bdd.eval(lookup_for(vec![("id", Value::Int(3)), ("price", Value::Int(1))]));
        assert!(m.is_empty());
        // Old rules unaffected.
        let m = bdd.eval(lookup_for(vec![("id", Value::Int(1))]));
        assert_eq!(m, &BTreeSet::from([0]));
    }

    #[test]
    fn ordered_field_first_seen_mid_churn_splices_above() {
        // Churn touches the low-ranked `price` field before any `id`
        // rule exists. The pinned order must still win: the id group
        // opens *above* the price band when it first appears, exactly
        // where a scratch build would put it. (Regression: new operand
        // groups used to append below whatever churn created first,
        // inverting the order and inflating every later diagram.)
        let order = VarOrder::from_keys(["id", "price"]);
        let mut inc = IncrementalBdd::from_rules(&[], &order);
        inc.insert_rule(&parse_rule("price > 30: fwd(2)").unwrap());
        inc.insert_rule(&parse_rule("id == 7: fwd(1)").unwrap());
        inc.insert_rule(&parse_rule("id == 9 and price > 27: fwd(3)").unwrap());
        let groups: Vec<(String, u32)> =
            inc.bdd().field_groups().iter().map(|(op, r)| (op.key(), r.start)).collect();
        let id_start = groups.iter().find(|(k, _)| k == "id").unwrap().1;
        let price_start = groups.iter().find(|(k, _)| k == "price").unwrap().1;
        assert!(id_start < price_start, "id band must sit above price: {groups:?}");
        // And the snapshot matches the scratch build node-for-node.
        let live = parse_rules(
            "price > 30: fwd(2)\n\
             id == 7: fwd(1)\n\
             id == 9 and price > 27: fwd(3)\n",
        )
        .unwrap();
        let scratch =
            BddBuilder::from_rules(&live).with_order(VarOrder::from_keys(["id", "price"])).build();
        inc.force_gc();
        assert_eq!(inc.snapshot().node_count(), scratch.node_count());
    }

    #[test]
    fn incremental_matches_scratch_after_inserts() {
        let base = parse_rules(
            "id == 1: fwd(1)\n\
             id == 2 and price > 10: fwd(2)\n\
             price > 50: fwd(3)\n",
        )
        .unwrap();
        let order = VarOrder::empty();
        let mut inc = IncrementalBdd::from_rules(&base, &order);
        let extra = parse_rules(
            "id == 7: fwd(4)\n\
             id == 8 and shares > 3: fwd(5)\n\
             stock == ACME or price < 2: fwd(6)\n",
        )
        .unwrap();
        for r in &extra {
            inc.insert_rule(r);
        }
        let mut all = base.clone();
        all.extend(extra);
        let scratch = BddBuilder::from_rules(&all).build();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..400 {
            let id = Value::Int(rng.gen_range(-1i64..12));
            let price = Value::Int(rng.gen_range(-1i64..60));
            let shares = Value::Int(rng.gen_range(-1i64..6));
            let stock = Value::from(if rng.gen_bool(0.5) { "ACME" } else { "ZORG" });
            let lookup = |op: &Operand| match op.key().as_str() {
                "id" => Some(id.clone()),
                "price" => Some(price.clone()),
                "shares" => Some(shares.clone()),
                "stock" => Some(stock.clone()),
                _ => None,
            };
            assert_eq!(
                matched_actions(inc.bdd(), lookup),
                matched_actions(&scratch, lookup),
                "packet id={id} price={price} shares={shares} stock={stock}"
            );
        }
    }

    #[test]
    fn insert_then_remove_restores_semantics() {
        let base = parse_rules("id == 1: fwd(1)\nprice > 10: fwd(2)\n").unwrap();
        let order = VarOrder::empty();
        let mut inc = IncrementalBdd::from_rules(&base, &order);
        let scratch = BddBuilder::from_rules(&base).build();
        let extra = parse_rules(
            "id == 9: fwd(3)\n\
             id == 10 and price > 5: fwd(4)\n\
             shares > 2: fwd(5)\n",
        )
        .unwrap();
        let digests: Vec<u64> = extra.iter().map(|r| inc.insert_rule(r)).collect();
        for d in digests.iter().rev() {
            assert!(inc.remove_by_digest(*d));
        }
        assert_eq!(inc.rule_count(), base.len());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..300 {
            let id = Value::Int(rng.gen_range(-1i64..12));
            let price = Value::Int(rng.gen_range(-1i64..20));
            let shares = Value::Int(rng.gen_range(-1i64..6));
            let lookup = |op: &Operand| match op.key().as_str() {
                "id" => Some(id.clone()),
                "price" => Some(price.clone()),
                "shares" => Some(shares.clone()),
                _ => None,
            };
            assert_eq!(matched_actions(inc.bdd(), lookup), matched_actions(&scratch, lookup));
        }
        // The deployable snapshot is no larger than the scratch build
        // (the maintenance store itself additionally roots its chain
        // slices, so compare the compacted diagram).
        let snap = inc.snapshot();
        assert!(
            snap.node_count() <= scratch.node_count(),
            "snapshot {} vs scratch {}",
            snap.node_count(),
            scratch.node_count()
        );
    }

    #[test]
    fn duplicate_inserts_stack() {
        let order = VarOrder::empty();
        let mut inc = IncrementalBdd::from_rules(&[], &order);
        let r = parse_rule("id == 4: fwd(1)").unwrap();
        let d1 = inc.insert_rule(&r);
        let d2 = inc.insert_rule(&r);
        assert_eq!(d1, d2);
        assert_eq!(inc.digest_counts().collect::<Vec<_>>(), vec![(d1, 2)]);
        assert!(inc.remove_by_digest(d1));
        // Still matches: one occurrence remains.
        let m = inc.bdd().eval(lookup_for(vec![("id", Value::Int(4))]));
        assert_eq!(m.len(), 1);
        assert!(inc.remove_by_digest(d1));
        assert!(!inc.remove_by_digest(d1), "no occurrences left");
        assert!(inc.bdd().eval(lookup_for(vec![("id", Value::Int(4))])).is_empty());
    }

    #[test]
    fn label_slots_are_recycled() {
        let order = VarOrder::empty();
        let mut inc = IncrementalBdd::from_rules(&[], &order);
        let a = parse_rule("id == 1: fwd(1)").unwrap();
        let da = inc.insert_rule(&a);
        let labels_before = inc.bdd().labels().len();
        assert!(inc.remove_by_digest(da));
        // A different action reuses the freed label slot.
        let b = parse_rule("id == 2: fwd(9)").unwrap();
        inc.insert_rule(&b);
        assert_eq!(inc.bdd().labels().len(), labels_before);
        let m = matched_actions(inc.bdd(), lookup_for(vec![("id", Value::Int(2))]));
        assert_eq!(m.len(), 1);
        assert!(m.iter().next().unwrap().contains('9'), "label rebinds to the new action: {m:?}");
    }

    #[test]
    fn churn_under_gc_stays_correct_and_bounded() {
        let order = VarOrder::empty();
        let base: Vec<Rule> = (0..80)
            .map(|i| parse_rule(&format!("id == {i}: fwd({})", i % 8 + 1)).unwrap())
            .collect();
        let mut inc = IncrementalBdd::from_rules(&base, &order);
        let mut live: Vec<Rule> = base.clone();
        let mut rng = StdRng::seed_from_u64(23);
        for step in 0..600 {
            if rng.gen_bool(0.55) || live.len() < 10 {
                let i = 1000 + step;
                let r = if rng.gen_bool(0.8) {
                    parse_rule(&format!("id == {i}: fwd({})", i % 8 + 1)).unwrap()
                } else {
                    parse_rule(&format!("id == {i} and price > {}: fwd(2)", i % 30)).unwrap()
                };
                inc.insert_rule(&r);
                live.push(r);
            } else {
                let i = rng.gen_range(0..live.len());
                let r = live.swap_remove(i);
                assert!(inc.remove_by_digest(rule_digest(&r)), "rule must be removable");
            }
        }
        assert_eq!(inc.rule_count(), live.len());
        // Semantics match a scratch build of the surviving set.
        let scratch = BddBuilder::from_rules(&live).build();
        for _ in 0..400 {
            let id = Value::Int(rng.gen_range(-1i64..1700));
            let price = Value::Int(rng.gen_range(-1i64..35));
            let lookup = |op: &Operand| match op.key().as_str() {
                "id" => Some(id.clone()),
                "price" => Some(price.clone()),
                _ => None,
            };
            assert_eq!(
                matched_actions(inc.bdd(), lookup),
                matched_actions(&scratch, lookup),
                "packet id={id} price={price}"
            );
        }
        // The capacity trigger must have kept allocation bounded.
        let allocated = inc.bdd().allocated_nodes();
        let live_nodes = inc.live_nodes().max(1024);
        assert!(allocated <= 2 * live_nodes + 4096, "allocated {allocated} vs live {live_nodes}");
        assert!(inc.bdd().gc_stats().runs > 0, "gc must have run under this much churn");
    }

    #[test]
    fn snapshot_is_compact_and_equivalent() {
        let order = VarOrder::empty();
        let base = parse_rules("id == 1: fwd(1)\nid == 2 and price > 3: fwd(2)\n").unwrap();
        let mut inc = IncrementalBdd::from_rules(&base, &order);
        let d = inc.insert_rule(&parse_rule("stock == GONE: fwd(3)").unwrap());
        assert!(inc.remove_by_digest(d));
        let snap = inc.snapshot();
        // The dead `stock` predicate is compacted away.
        assert!(snap.preds().iter().all(|p| p.operand.key() != "stock"));
        for id in [-1i64, 1, 2, 3] {
            for price in [-1i64, 3, 4, 10] {
                let lookup = |op: &Operand| match op.key().as_str() {
                    "id" => Some(Value::Int(id)),
                    "price" => Some(Value::Int(price)),
                    _ => None,
                };
                assert_eq!(matched_actions(&snap, lookup), matched_actions(inc.bdd(), lookup));
            }
        }
    }

    #[test]
    fn fresh_identifier_insert_is_band_top() {
        // The dominant churn op: subscribing to a fresh identifier
        // must touch O(1) chain nodes, which shows up as a tiny
        // allocation delta even on a large band.
        let order = VarOrder::empty();
        let base: Vec<Rule> = (0..2000)
            .map(|i| parse_rule(&format!("id == {i}: fwd({})", i % 4 + 1)).unwrap())
            .collect();
        let mut inc = IncrementalBdd::from_rules(&base, &order);
        let before = inc.bdd().allocated_nodes();
        inc.insert_rule(&parse_rule("id == 999999: fwd(1)").unwrap());
        let delta = inc.bdd().allocated_nodes() - before;
        assert!(delta <= 8, "band-top insert allocated {delta} nodes");
    }
}
