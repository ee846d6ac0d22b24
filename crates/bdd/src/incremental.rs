//! Incremental BDD maintenance: rule-granular insert/remove against a
//! live hash-consed store.
//!
//! Two layers are provided:
//!
//! * **Primitives on [`Bdd`]** — [`Bdd::insert_rule`] unions a rule's
//!   chains into the existing DAG (an apply against the live store);
//!   [`Bdd::remove_rule`] erases a label from every terminal, letting
//!   same-child elimination collapse the paths that only that rule
//!   kept alive. These are correct on any diagram but `remove_rule` is
//!   a full O(n) sweep.
//! * **[`IncrementalBdd`]** — the control-plane structure for
//!   million-subscription churn. It decomposes the diagram into
//!   per-field *exact-match chains* plus a small set of miscellaneous
//!   conjunction chains, remembers which chain slice each inserted
//!   rule occupies (keyed by a stable FNV digest of the rule), and on
//!   churn rebuilds only the affected chain prefix before re-merging
//!   the top-level union — whose operands are almost all unchanged, so
//!   the union memo answers them in O(1). Work per operation is
//!   proportional to the delta's position in its band, not to the
//!   table size.
//!
//! The store's level-table indirection is what makes this sound: a new
//! predicate is spliced into the variable order without disturbing any
//! existing node ([`crate::store::Alphabet::insert_pred`]), and a new
//! equality joining a pure-equality band lands at the band *top*, so
//! the common churn op — subscribe to a fresh identifier — grows the
//! band chain with O(1) new nodes.
//!
//! Garbage: every chain rebuild strands its old prefix. The store's
//! capacity-triggered mark-and-sweep (`Bdd::gc`) runs at operation
//! boundaries with the maintenance structures as external roots, and
//! the returned [`NodeRemap`](crate::store::NodeRemap) is applied
//! back, keeping allocation within a constant factor of the reachable
//! size.

use crate::order::{operand_rank, pred_sort_key, FieldStats, VarOrder};
use crate::store::{Bdd, NodeRef, PredId, RuleId, TermId};
use camus_lang::ast::{Action, Predicate, Rel, Rule};
use camus_lang::dnf::{to_dnf, Conjunction, Dnf};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};

const EMPTY: NodeRef = NodeRef::Term(TermId(0));

// -- rule digests ------------------------------------------------------------

/// FNV-1a, kept dependency-free and stable across runs (unlike the std
/// `DefaultHasher`, whose keys are randomised per process).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Stable content digest of a rule (filter + action). The incremental
/// store keys its per-rule bookkeeping by this, so a caller can remove
/// a rule it no longer holds by digest alone, and fingerprint layers
/// can combine per-rule digests instead of re-hashing whole lists.
pub fn rule_digest(rule: &Rule) -> u64 {
    let mut h = Fnv1a::new();
    rule.hash(&mut h);
    h.finish()
}

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
        let dnf = to_dnf(&rule.filter);
        let mut chains = Vec::with_capacity(dnf.terms.len());
        for conj in &dnf.terms {
            let pids: Vec<PredId> = conj.atoms.iter().map(|a| self.add_pred(a)).collect();
            chains.push(chain_ref(self, &pids, label));
        }
        let add = union_all(self, chains);
        let root = self.root();
        let merged = self.union(root, add);
        self.set_root(merged);
        label
    }

    /// Remove every rule bound to `label` by erasing the label from
    /// all terminals; paths that only existed to reach it collapse via
    /// same-child elimination. A full memoised sweep of the reachable
    /// diagram — [`IncrementalBdd`] exists to avoid paying this per
    /// churn op.
    pub fn remove_rule(&mut self, label: RuleId) {
        enum Task {
            Visit(NodeRef),
            Build(u32),
        }
        let root = self.root();
        let mut memo: HashMap<NodeRef, NodeRef> = HashMap::new();
        let mut stack = vec![Task::Visit(root)];
        while let Some(task) = stack.pop() {
            match task {
                Task::Visit(r) => {
                    if memo.contains_key(&r) {
                        continue;
                    }
                    match r {
                        NodeRef::Term(t) => {
                            let out = if self.terminal(t).contains(&label) {
                                let mut set = self.terminal(t).clone();
                                set.remove(&label);
                                self.term(set)
                            } else {
                                r
                            };
                            memo.insert(r, out);
                        }
                        NodeRef::Node(id) => {
                            stack.push(Task::Build(id));
                            let n = *self.node(id);
                            stack.push(Task::Visit(n.hi));
                            stack.push(Task::Visit(n.lo));
                        }
                    }
                }
                Task::Build(id) => {
                    let key = NodeRef::Node(id);
                    if memo.contains_key(&key) {
                        continue;
                    }
                    let n = *self.node(id);
                    let (lo, hi) = (memo[&n.lo], memo[&n.hi]);
                    let out = self.mk(n.var, lo, hi);
                    memo.insert(key, out);
                }
            }
        }
        self.set_root(memo[&root]);
    }
}

/// One conjunction as a chain over already-interned predicates, in
/// descending level order (deterministic: rebuilt at removal time it
/// reproduces the same hash-consed refs).
fn chain_ref(bdd: &mut Bdd, pids: &[PredId], label: RuleId) -> NodeRef {
    let mut vars = pids.to_vec();
    vars.sort_unstable_by_key(|v| bdd.level_of(*v));
    let mut cur = bdd.term(BTreeSet::from([label]));
    for &v in vars.iter().rev() {
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

/// How one conjunction of an inserted rule is attached to the diagram.
#[derive(Debug, Clone)]
enum Part {
    /// A slot in the miscellaneous chain list, and the chain's atoms.
    Misc { slot: usize, atoms: Vec<PredId> },
    /// A single equality: a direct label on its band member.
    EqDirect { pred: PredId },
    /// An equality head with a residual chain hanging off the member's
    /// hi branch. `tail` keeps predicate ids (stable across splices),
    /// so removal can deterministically rebuild the same tail ref.
    EqTail { pred: PredId, tail: Vec<PredId> },
}

impl Part {
    /// Every atom of the conjunction this part attached.
    fn preds(&self) -> impl Iterator<Item = PredId> + '_ {
        let (head, rest): (Option<PredId>, &[PredId]) = match self {
            Part::Misc { atoms, .. } => (None, atoms),
            Part::EqDirect { pred } => (Some(*pred), &[]),
            Part::EqTail { pred, tail } => (Some(*pred), tail),
        };
        head.into_iter().chain(rest.iter().copied())
    }
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
    /// Labels of single-equality rules on this member, with counts.
    direct: HashMap<RuleId, u32>,
    /// Residual-chain diagrams hanging off this member, with counts.
    tails: HashMap<NodeRef, u32>,
    /// Cached union of `direct` ∪ `tails`.
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

/// What an operation contributes to (or retracts from) a member.
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
    /// Seed from a full rule list: the bulk constructor with per-rule
    /// bookkeeping, then one sweep so the capacity trigger measures
    /// churn garbage against the seeded live set.
    pub fn from_rules(rules: &[Rule], order: &VarOrder) -> IncrementalBdd {
        let mut inc = IncrementalBdd::bulk(rules, order, true);
        inc.force_gc();
        inc
    }

    /// The one bulk constructor of the crate (behind both
    /// [`IncrementalBdd::from_rules`] and [`crate::BddBuilder::build`]).
    ///
    /// Each conjunction attaches by its top atom ([`classify`]). An
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
    /// `order` is first fitted to the list ([`VarOrder::fit`]: a
    /// tie-break order puts the fields every rule tests on top), and the
    /// fitted order is the one the alphabet records, so churn splices
    /// keep it.
    ///
    /// `track` records what churn needs to retract a rule later (its
    /// digest and the chain slices it occupies). Without it the result
    /// is only good for its diagram.
    pub(crate) fn bulk(rules: &[Rule], order: &VarOrder, track: bool) -> IncrementalBdd {
        let dnfs: Vec<Dnf> = rules.iter().map(|r| to_dnf(&r.filter)).collect();
        let mut stats = FieldStats::default();
        for dnf in &dnfs {
            stats.count(dnf.terms.iter().flat_map(|c| &c.atoms), true);
        }
        let order = &order.fit(&stats);

        // The predicate alphabet: field group rank, then the canonical
        // within-field order.
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
        preds.sort_by(|a, b| {
            operand_rank(order, &appearance, &a.operand)
                .cmp(&operand_rank(order, &appearance, &b.operand))
                .then_with(|| a.operand.key().cmp(&b.operand.key()))
                .then_with(|| pred_sort_key(a).cmp(&pred_sort_key(b)))
        });

        let mut inc = IncrementalBdd {
            bdd: Bdd::with_ordered_alphabet(preds, order.clone()),
            groups: BTreeMap::new(),
            misc: Vec::new(),
            free_misc: Vec::new(),
            misc_root: EMPTY,
            instances: HashMap::new(),
            label_index: HashMap::new(),
            label_refs: Vec::new(),
            free_labels: Vec::new(),
            rule_count: rules.len(),
            stats,
            roots_buf: Vec::new(),
        };

        // Accumulate members per band, then sort and chain each once.
        // Bands are chained in group-id order (a `BTreeMap`), so node
        // ids — and with them every later tie-break — repeat exactly
        // from one build of a list to the next.
        let mut acc: BTreeMap<u32, HashMap<PredId, Member>> = BTreeMap::new();
        for (rule, dnf) in rules.iter().zip(&dnfs) {
            let label = inc.intern_label(&rule.action);
            let mut parts = Vec::with_capacity(dnf.terms.len());
            for conj in &dnf.terms {
                let pids: Vec<PredId> = conj.atoms.iter().map(|a| inc.bdd.add_pred(a)).collect();
                parts.push(match classify(&inc.bdd, conj, &pids) {
                    Class::Direct(pred) => {
                        *band_member(&mut acc, &inc.bdd, pred).direct.entry(label).or_insert(0) +=
                            1;
                        Part::EqDirect { pred }
                    }
                    Class::Tail(pred, tail) => {
                        let r = chain_ref(&mut inc.bdd, &tail, label);
                        *band_member(&mut acc, &inc.bdd, pred).tails.entry(r).or_insert(0) += 1;
                        Part::EqTail { pred, tail }
                    }
                    Class::Misc => {
                        let chain = chain_ref(&mut inc.bdd, &pids, label);
                        Part::Misc { slot: inc.alloc_misc(chain), atoms: pids }
                    }
                });
            }
            if track {
                inc.instances.entry(rule_digest(rule)).or_default().push(Instance { label, parts });
            }
        }
        for (g, members_map) in acc {
            let mut members: Vec<Member> = members_map.into_values().collect();
            members.sort_unstable_by_key(|m| inc.bdd.level_of(m.pred));
            for m in members.iter_mut() {
                m.hi = member_hi(&mut inc.bdd, &m.direct, &m.tails);
            }
            let mut group = EqGroup { suffix: vec![EMPTY; members.len() + 1], members };
            let last = group.members.len() - 1;
            rebuild_from(&mut inc.bdd, &mut group, last);
            inc.groups.insert(g, group);
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
        let digest = rule_digest(rule);
        let label = self.intern_label(&rule.action);
        let dnf = to_dnf(&rule.filter);
        self.stats.count(dnf.terms.iter().flat_map(|c| &c.atoms), true);
        let mut parts = Vec::with_capacity(dnf.terms.len());
        let mut misc_dirty = false;
        for conj in &dnf.terms {
            let pids: Vec<PredId> = conj.atoms.iter().map(|a| self.bdd.add_pred(a)).collect();
            match classify(&self.bdd, conj, &pids) {
                Class::Direct(pred) => {
                    let g = self.bdd.group_of(pred);
                    eq_apply(
                        &mut self.bdd,
                        self.groups.entry(g).or_default(),
                        pred,
                        Delta::Direct(label),
                        true,
                    );
                    parts.push(Part::EqDirect { pred });
                }
                Class::Tail(pred, tail) => {
                    let r = chain_ref(&mut self.bdd, &tail, label);
                    let g = self.bdd.group_of(pred);
                    eq_apply(
                        &mut self.bdd,
                        self.groups.entry(g).or_default(),
                        pred,
                        Delta::Tail(r),
                        true,
                    );
                    parts.push(Part::EqTail { pred, tail });
                }
                Class::Misc => {
                    let chain = chain_ref(&mut self.bdd, &pids, label);
                    let slot = self.alloc_misc(chain);
                    misc_dirty = true;
                    parts.push(Part::Misc { slot, atoms: pids });
                }
            }
        }
        self.instances.entry(digest).or_default().push(Instance { label, parts });
        self.rule_count += 1;
        self.refresh(misc_dirty);
        digest
    }

    /// Remove one occurrence of `rule`. Returns false if absent.
    pub fn remove_rule(&mut self, rule: &Rule) -> bool {
        self.remove_by_digest(rule_digest(rule))
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
        self.stats.count(inst.parts.iter().flat_map(Part::preds).map(|p| bdd.pred(p)), false);
        let mut misc_dirty = false;
        for part in &inst.parts {
            match part {
                Part::Misc { slot, .. } => {
                    self.misc[*slot] = EMPTY;
                    self.free_misc.push(*slot);
                    misc_dirty = true;
                }
                Part::EqDirect { pred } => {
                    let g = self.bdd.group_of(*pred);
                    let group = self.groups.get_mut(&g).expect("group exists for live part");
                    eq_apply(&mut self.bdd, group, *pred, Delta::Direct(inst.label), false);
                }
                Part::EqTail { pred, tail } => {
                    // The tail diagram is rooted via the tails map, so
                    // this rebuild resolves to the identical refs.
                    let r = chain_ref(&mut self.bdd, tail, inst.label);
                    let g = self.bdd.group_of(*pred);
                    let group = self.groups.get_mut(&g).expect("group exists for live part");
                    eq_apply(&mut self.bdd, group, *pred, Delta::Tail(r), false);
                }
            }
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

    /// A compact standalone copy of the current diagram for deployment
    /// (dead predicates and construction caches dropped); the
    /// maintenance structure itself stays live for further churn.
    pub fn snapshot(&self) -> Bdd {
        let mut out = Bdd::with_shared_alphabet(self.bdd.alphabet_arc());
        out.set_labels(self.bdd.labels().to_vec());
        let root = out.absorb(&self.bdd, self.bdd.root());
        out.set_root(root);
        out.shrink();
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

    fn alloc_misc(&mut self, leaf: NodeRef) -> usize {
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
    pub fn maybe_gc(&mut self) {
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
                roots.extend(m.tails.keys().copied());
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
                m.tails = m.tails.drain().map(|(k, v)| (remap.apply(k), v)).collect();
            }
        }
        roots.clear();
        self.roots_buf = roots;
    }
}

fn new_member(pred: PredId) -> Member {
    Member { pred, direct: HashMap::new(), tails: HashMap::new(), hi: EMPTY }
}

/// The bulk constructor's accumulator slot for a band member.
fn band_member<'a>(
    acc: &'a mut BTreeMap<u32, HashMap<PredId, Member>>,
    bdd: &Bdd,
    pred: PredId,
) -> &'a mut Member {
    acc.entry(bdd.group_of(pred)).or_default().entry(pred).or_insert_with(|| new_member(pred))
}

/// How a conjunction attaches: by its top (lowest-level) atom.
enum Class {
    Direct(PredId),
    Tail(PredId, Vec<PredId>),
    Misc,
}

fn classify(bdd: &Bdd, conj: &Conjunction, pids: &[PredId]) -> Class {
    if pids.is_empty() {
        return Class::Misc; // `true` filter: a bare terminal chain
    }
    let (head_i, head) =
        pids.iter().copied().enumerate().min_by_key(|&(_, p)| bdd.level_of(p)).expect("non-empty");
    if conj.atoms[head_i].rel != Rel::Eq {
        return Class::Misc;
    }
    if pids.len() == 1 {
        return Class::Direct(head);
    }
    let tail: Vec<PredId> =
        pids.iter().copied().enumerate().filter(|&(i, _)| i != head_i).map(|(_, p)| p).collect();
    Class::Tail(head, tail)
}

/// Union of a member's direct labels and residual tails, folded in a
/// deterministic order.
fn member_hi(
    bdd: &mut Bdd,
    direct: &HashMap<RuleId, u32>,
    tails: &HashMap<NodeRef, u32>,
) -> NodeRef {
    let mut hi = if direct.is_empty() {
        EMPTY
    } else {
        let set: BTreeSet<RuleId> = direct.keys().copied().collect();
        bdd.term(set)
    };
    let mut ts: Vec<NodeRef> = tails.keys().copied().collect();
    ts.sort_unstable_by_key(|r| match *r {
        NodeRef::Term(t) => (0u8, t.0),
        NodeRef::Node(n) => (1u8, n),
    });
    for t in ts {
        hi = bdd.union(hi, t);
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
            g.members.insert(idx, new_member(pred));
            g.suffix.insert(idx, EMPTY);
        }
        let m = &mut g.members[idx];
        match delta {
            Delta::Direct(label) => *m.direct.entry(label).or_insert(0) += 1,
            Delta::Tail(r) => *m.tails.entry(r).or_insert(0) += 1,
        }
        let hi = member_hi(bdd, &g.members[idx].direct, &g.members[idx].tails);
        if exists && hi == g.members[idx].hi {
            return; // duplicate occurrence: diagram unchanged
        }
        g.members[idx].hi = hi;
        rebuild_from(bdd, g, idx);
    } else {
        assert!(exists, "retracting a delta from a member that is not present");
        let m = &mut g.members[idx];
        match delta {
            Delta::Direct(label) => {
                let c = m.direct.get_mut(&label).expect("direct label present");
                *c -= 1;
                if *c == 0 {
                    m.direct.remove(&label);
                }
            }
            Delta::Tail(r) => {
                let c = m.tails.get_mut(&r).expect("tail diagram present");
                *c -= 1;
                if *c == 0 {
                    m.tails.remove(&r);
                }
            }
        }
        if m.direct.is_empty() && m.tails.is_empty() {
            g.members.remove(idx);
            g.suffix.remove(idx);
            if idx > 0 {
                rebuild_from(bdd, g, idx - 1);
            } else if g.members.is_empty() {
                g.suffix[0] = EMPTY;
            }
        } else {
            let hi = member_hi(bdd, &g.members[idx].direct, &g.members[idx].tails);
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
    fn bdd_remove_rule_erases_label_and_collapses() {
        let rules = parse_rules("id == 1: fwd(1)\nid == 2: fwd(2)\n").unwrap();
        let mut bdd = BddBuilder::from_rules(&rules).build();
        let before = bdd.node_count();
        bdd.remove_rule(1);
        assert!(bdd.eval(lookup_for(vec![("id", Value::Int(2))])).is_empty());
        assert_eq!(bdd.eval(lookup_for(vec![("id", Value::Int(1))])), &BTreeSet::from([0]));
        assert!(bdd.node_count() < before, "dead path must collapse");
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
                assert!(inc.remove_rule(&r), "rule must be removable");
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

    #[test]
    fn digests_are_stable_and_distinguish_rules() {
        let a = parse_rule("id == 1: fwd(1)").unwrap();
        let b = parse_rule("id == 1: fwd(2)").unwrap();
        let c = parse_rule("id == 2: fwd(1)").unwrap();
        assert_eq!(rule_digest(&a), rule_digest(&a));
        assert_ne!(rule_digest(&a), rule_digest(&b));
        assert_ne!(rule_digest(&a), rule_digest(&c));
    }
}
