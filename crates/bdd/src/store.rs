//! The hash-consed multi-terminal BDD store and its reduction rules.
//!
//! Reductions implemented in `Bdd::mk` (§V-C of the paper):
//!
//! 1. **Isomorphism sharing** — nodes are hash-consed in a unique
//!    table, so structurally equal subgraphs exist once.
//! 2. **Same-child elimination** — a node whose branches coincide is
//!    never materialised.
//! 3. **Implication pruning** — before a node is created, its subtrees
//!    are rewritten so that any descendant predicate *on the same
//!    field* that the new node's assignment decides (via the semantic
//!    algebra in [`camus_lang::sets`]) is bypassed. This removes
//!    unsatisfiable paths and is also what guarantees at most one
//!    In→Out path per node pair inside a field component, keeping
//!    Algorithm 2's table quadratic (§V-D).
//!
//! Scaling machinery (million-subscription stores):
//!
//! * The predicate alphabet lives in an [`Alphabet`] behind an `Arc`,
//!   so a snapshot is copied out over its store's alphabet instead of
//!   a clone of megabytes of predicates (it then compacts its own).
//!   Variable *order* is mediated by a level table rather than by
//!   predicate ids, which lets [`Alphabet::insert_pred`] splice a new
//!   predicate into its canonical position without rewriting any
//!   existing node.
//! * The unique table is open-addressing (a `Vec<u32>` of node ids),
//!   not a `HashMap<Node, u32>`: half the memory and no per-entry
//!   boxing at 10⁶⁺ nodes.
//! * Terminal rule sets are interned behind `Arc`, so the many
//!   diagrams that share a terminal share one allocation.
//! * `Bdd::gc` is a capacity-triggered mark-and-sweep over nodes and
//!   terminals with an id remap returned to the caller, so long-lived
//!   incremental stores ([`crate::incremental`]) stay within a
//!   constant factor of their reachable size.
//! * `union`, `prune` and `mk` run on one reused work stack, and every
//!   other walk keeps an explicit stack too, so construction runs on
//!   any thread with a bounded native stack.

use camus_lang::ast::{Action, Operand, Predicate, Rel};
use camus_lang::sets::implication;
use camus_lang::value::Value;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// Index of an interned rule *label* (action): terminals carry sets of
/// these. Rules with identical actions share a label, which is what
/// lets thousands of same-action filters collapse into a handful of
/// terminals (and their subgraphs merge).
pub type RuleId = u32;

/// A BDD variable: an interned atomic predicate. Ids are stable for
/// the lifetime of an alphabet; the *variable order* is the level
/// table ([`Bdd::level_of`]), not the id — new predicates keep old ids
/// (and therefore old nodes) valid when spliced into the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);

/// An interned terminal: a set of matching rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermId(pub u32);

/// A reference to either an internal node or a terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    Term(TermId),
    Node(u32),
}

impl NodeRef {
    pub fn is_terminal(&self) -> bool {
        matches!(self, NodeRef::Term(_))
    }
}

/// An internal decision node: `if var then hi else lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node {
    pub var: PredId,
    pub lo: NodeRef,
    pub hi: NodeRef,
}

/// The ordered predicate alphabet: interned predicates, their variable
/// levels, and the per-field grouping. Behind an `Arc` so a snapshot
/// is copied out over its store's alphabet, not over a clone.
#[derive(Debug, Clone, Default)]
pub struct Alphabet {
    preds: Vec<Predicate>,
    pred_index: HashMap<Predicate, PredId>,
    /// Field-group id per predicate (same operand ⇒ same group).
    groups: Vec<u32>,
    /// Variable level per predicate: *all* ordering comparisons go
    /// through this table.
    levels: Vec<u32>,
    /// Inverse of `levels`: predicate id at each level.
    pred_by_level: Vec<u32>,
    /// Operand of each field group, plus its **level** range. Group
    /// ids ascend with their level ranges.
    group_info: Vec<(Operand, Range<u32>)>,
    group_index: HashMap<Operand, u32>,
    /// Whether every predicate of a group is an equality. Pure-equality
    /// bands admit O(1) pruning: `Eq = false` decides nothing about the
    /// other equalities, and `Eq = true` falsifies all of them, which
    /// collapses the band to its lo-spine exit.
    group_pure_eq: Vec<bool>,
    /// The field order this alphabet was built for. A *new operand*
    /// arriving through [`Alphabet::insert_pred`] opens its group at
    /// the level this order dictates — without it, churn that happens
    /// to touch a low-ranked field first would pin that field above
    /// every later one, inverting the order a scratch build would pick.
    order: crate::order::VarOrder,
}

impl Alphabet {
    /// Build from a predicate list already sorted into variable order
    /// (all predicates of one operand contiguous). The builder
    /// establishes this invariant; levels start as the identity.
    pub fn from_sorted_preds(preds: Vec<Predicate>) -> Alphabet {
        let mut a = Alphabet::default();
        for (i, p) in preds.iter().enumerate() {
            match a.group_info.last_mut() {
                Some((op, range)) if *op == p.operand => range.end = i as u32 + 1,
                _ => {
                    a.group_index.insert(p.operand.clone(), a.group_info.len() as u32);
                    a.group_info.push((p.operand.clone(), i as u32..i as u32 + 1));
                    a.group_pure_eq.push(true);
                }
            }
            let g = a.group_info.len() as u32 - 1;
            a.group_pure_eq[g as usize] &= p.rel == Rel::Eq;
            a.groups.push(g);
            a.levels.push(i as u32);
            a.pred_by_level.push(i as u32);
            a.pred_index.insert(p.clone(), PredId(i as u32));
        }
        a.preds = preds;
        a
    }

    pub fn len(&self) -> usize {
        self.preds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    pub fn lookup(&self, p: &Predicate) -> Option<PredId> {
        self.pred_index.get(p).copied()
    }

    /// Record the field order future [`Alphabet::insert_pred`] calls
    /// place new operand groups by. Ranked operands splice before any
    /// group ranked after them; unranked operands append in first-use
    /// order (matching the builder's appearance-rank fallback).
    pub fn set_order(&mut self, order: crate::order::VarOrder) {
        self.order = order;
    }

    /// Intern `p`, splicing it into the variable order: into its
    /// operand's existing level band, or as a new group at the level
    /// the recorded field order dictates (at the end for unranked
    /// operands). Existing predicate ids, node references and relative
    /// levels are untouched — only the level table shifts, which is
    /// O(|alphabet|).
    ///
    /// Placement inside an existing band: a new *equality* joining a
    /// pure-equality band goes to the band **top** — equalities on one
    /// field are mutually exclusive, so any member order is reduced,
    /// and the top slot lets incremental maintenance grow the band's
    /// exact-match chain in O(1) new nodes instead of rebuilding the
    /// spine above a mid-band splice. Everything else takes its
    /// canonical [`crate::order::pred_sort_key`] position (the slot a
    /// from-scratch sorted build would choose).
    pub fn insert_pred(&mut self, p: &Predicate) -> PredId {
        if let Some(&id) = self.pred_index.get(p) {
            return id;
        }
        let id = PredId(self.preds.len() as u32);
        let level = match self.group_index.get(&p.operand) {
            Some(&g) => {
                let g = g as usize;
                let range = self.group_info[g].1.clone();
                let slot = if self.group_pure_eq[g] && p.rel == Rel::Eq {
                    range.start
                } else {
                    let key = crate::order::pred_sort_key(p);
                    // Binary search for the canonical slot in the band.
                    let mut lo = range.start;
                    let mut hi = range.end;
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        let q = &self.preds[self.pred_by_level[mid as usize] as usize];
                        if crate::order::pred_sort_key(q) < key {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    lo
                };
                self.group_pure_eq[g] &= p.rel == Rel::Eq;
                self.groups.push(g as u32);
                slot
            }
            None => {
                let g = self.group_info.len() as u32;
                self.group_index.insert(p.operand.clone(), g);
                // A ranked operand opens its group at the level the
                // field order dictates: just above the first group
                // ranked after it (unranked groups rank last, matching
                // the builder's appearance fallback). Unranked operands
                // append at the end in first-use order. Group *ids*
                // stay append-only — only level ranges shift — so
                // callers holding group ids are unaffected; anyone who
                // needs groups in variable order must sort by range.
                let end = self.pred_by_level.len() as u32;
                let slot = match self.order.rank(&p.operand.key()) {
                    None => end,
                    Some(rank) => self
                        .group_info
                        .iter()
                        .filter(|(op, _)| self.order.rank(&op.key()).is_none_or(|r| r > rank))
                        .map(|(_, range)| range.start)
                        .min()
                        .unwrap_or(end),
                };
                self.group_pure_eq.push(p.rel == Rel::Eq);
                self.groups.push(g);
                if slot == end {
                    self.group_info.push((p.operand.clone(), end..end + 1));
                    self.levels.push(end);
                    self.pred_by_level.push(id.0);
                } else {
                    for l in self.levels.iter_mut() {
                        if *l >= slot {
                            *l += 1;
                        }
                    }
                    for (_, r) in self.group_info.iter_mut() {
                        if r.start >= slot {
                            r.start += 1;
                            r.end += 1;
                        }
                    }
                    self.group_info.push((p.operand.clone(), slot..slot + 1));
                    self.pred_by_level.insert(slot as usize, id.0);
                    self.levels.push(slot);
                }
                self.preds.push(p.clone());
                self.pred_index.insert(p.clone(), id);
                return id;
            }
        };
        // Shift every level at or after the splice point.
        for l in self.levels.iter_mut() {
            if *l >= level {
                *l += 1;
            }
        }
        self.pred_by_level.insert(level as usize, id.0);
        self.levels.push(level);
        let g = *self.groups.last().unwrap() as usize;
        for (gi, (_, r)) in self.group_info.iter_mut().enumerate() {
            if gi == g {
                r.end += 1;
            } else if r.start >= level {
                r.start += 1;
                r.end += 1;
            }
        }
        self.preds.push(p.clone());
        self.pred_index.insert(p.clone(), id);
        id
    }
}

/// Remap of node/terminal ids produced by a `Bdd::gc` sweep. Callers
/// holding external `NodeRef`s (e.g. the incremental maintenance tree)
/// must rewrite them through [`NodeRemap::apply`].
#[derive(Debug)]
pub struct NodeRemap {
    nodes: Vec<u32>,
    terms: Vec<u32>,
}

impl NodeRemap {
    pub fn apply(&self, r: NodeRef) -> NodeRef {
        match r {
            NodeRef::Term(t) => NodeRef::Term(TermId(self.terms[t.0 as usize])),
            NodeRef::Node(n) => NodeRef::Node(self.nodes[n as usize]),
        }
    }
}

/// Mark-and-sweep statistics, plus the node high-water mark.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcStats {
    pub runs: u64,
    pub collected: u64,
    /// Highest `allocated_nodes()` ever observed.
    pub peak_allocated: usize,
    /// Live node count at the end of the last sweep.
    pub live_after_gc: usize,
}

/// Reusable traversal buffers: epoch-stamped marks plus a stack, so
/// the per-churn-op walks (gc, live counting) allocate nothing in
/// steady state.
#[derive(Debug, Clone, Default)]
struct Scratch {
    epoch: u32,
    marks: Vec<u32>,
    stack: Vec<NodeRef>,
}

/// One step on the construction kernels' work stack ([`Bdd::run`]). A
/// kernel call pushes the steps it takes, last first; a finished call
/// leaves its node on the result stack, and a step that consumes
/// results pops them there.
#[derive(Debug, Clone, Copy)]
enum Work {
    Union(NodeRef, NodeRef),
    Prune(NodeRef, PredId, bool),
    /// `mk(var, lo, hi)` of the two results on top.
    Mk(PredId),
    /// `union`'s four pruned cofactors are on top: the sub-unions next.
    Split,
    /// Memoise the result on top.
    UnionMemo(NodeRef, NodeRef),
    PruneMemo(u32, PredId, bool),
    /// `mk`'s pruned branches are on top.
    Reduce(PredId),
    /// `hi` restricted to `var = false` is on top.
    TestHi(PredId, NodeRef, NodeRef),
    /// `lo` restricted to `var = true` is on top.
    TestLo(PredId, NodeRef, NodeRef),
}

/// Room the kernels' stacks keep between walks (a few KiB per store).
const KEPT_STEPS: usize = 256;

/// Open-addressing unique table: slots hold node ids (`u32::MAX` =
/// empty), keys are the nodes themselves, compared against the node
/// arena. Rebuilt wholesale after a gc sweep.
#[derive(Debug, Clone, Default)]
struct UniqueTable {
    slots: Vec<u32>,
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

fn enc(r: NodeRef) -> u64 {
    match r {
        NodeRef::Term(t) => (t.0 as u64) << 1,
        NodeRef::Node(n) => ((n as u64) << 1) | 1,
    }
}

fn node_hash(n: &Node) -> u64 {
    mix64(
        (n.var.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(enc(n.lo).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(enc(n.hi).wrapping_mul(0x1656_67B1_9E37_79F9)),
    )
}

impl UniqueTable {
    fn with_capacity(n: usize) -> UniqueTable {
        let cap = (n * 2).next_power_of_two().max(1024);
        UniqueTable { slots: vec![EMPTY_SLOT; cap], len: 0 }
    }

    fn get(&self, nodes: &[Node], n: &Node) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (node_hash(n) as usize) & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY_SLOT {
                return None;
            }
            if nodes[s as usize] == *n {
                return Some(s);
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert a node known to be absent. Grows at ~70% load.
    fn insert(&mut self, nodes: &[Node], id: u32) {
        if self.slots.is_empty() || (self.len + 1) * 10 >= self.slots.len() * 7 {
            self.grow(nodes);
        }
        let mask = self.slots.len() - 1;
        let mut i = (node_hash(&nodes[id as usize]) as usize) & mask;
        while self.slots[i] != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = id;
        self.len += 1;
    }

    fn grow(&mut self, nodes: &[Node]) {
        let cap = (self.slots.len() * 2).max(1024);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; cap]);
        let mask = cap - 1;
        for id in old {
            if id != EMPTY_SLOT {
                let mut i = (node_hash(&nodes[id as usize]) as usize) & mask;
                while self.slots[i] != EMPTY_SLOT {
                    i = (i + 1) & mask;
                }
                self.slots[i] = id;
            }
        }
    }
}

/// The multi-terminal BDD: variables, nodes, terminals and the root.
#[derive(Debug, Clone)]
pub struct Bdd {
    alphabet: Arc<Alphabet>,
    nodes: Vec<Node>,
    terminals: Vec<Arc<BTreeSet<RuleId>>>,
    term_index: HashMap<Arc<BTreeSet<RuleId>>, TermId>,
    unique: UniqueTable,
    prune_memo: HashMap<(u32, PredId, bool), NodeRef>,
    union_memo: HashMap<(NodeRef, NodeRef), NodeRef>,
    /// Memo: node → exit of its all-false lo-spine within its group.
    spine_memo: HashMap<u32, NodeRef>,
    /// Interned rule labels (actions), indexed by [`RuleId`].
    labels: Vec<Action>,
    root: NodeRef,
    scratch: Scratch,
    /// The kernels' work and result stacks, reused from call to call.
    work: Vec<Work>,
    results: Vec<NodeRef>,
    stats: GcStats,
}

impl Bdd {
    /// Create an empty BDD over an ordered predicate alphabet with no
    /// recorded field order (tests only — production paths pin one).
    #[cfg(test)]
    pub(crate) fn with_alphabet(preds: Vec<Predicate>) -> Bdd {
        Bdd::with_shared_alphabet(Arc::new(Alphabet::from_sorted_preds(preds)))
    }

    /// Create an empty BDD over an ordered predicate alphabet. `preds`
    /// must be sorted: all predicates of one operand contiguous (the
    /// builder establishes this invariant). The field order is recorded
    /// so operands *not yet in the alphabet* splice into their ordered
    /// position when later interned by incremental maintenance.
    pub(crate) fn with_ordered_alphabet(
        preds: Vec<Predicate>,
        order: crate::order::VarOrder,
    ) -> Bdd {
        let mut alphabet = Alphabet::from_sorted_preds(preds);
        alphabet.set_order(order);
        Bdd::with_shared_alphabet(Arc::new(alphabet))
    }

    /// Create an empty BDD sharing an existing alphabet (snapshots).
    pub(crate) fn with_shared_alphabet(alphabet: Arc<Alphabet>) -> Bdd {
        let mut bdd = Bdd {
            alphabet,
            nodes: Vec::new(),
            terminals: Vec::new(),
            term_index: HashMap::new(),
            unique: UniqueTable::default(),
            prune_memo: HashMap::new(),
            union_memo: HashMap::new(),
            spine_memo: HashMap::new(),
            labels: Vec::new(),
            root: NodeRef::Term(TermId(0)),
            scratch: Scratch::default(),
            work: Vec::new(),
            results: Vec::new(),
            stats: GcStats::default(),
        };
        // Terminal 0 is the canonical empty set ("no rule matches").
        let empty = bdd.term(BTreeSet::new());
        debug_assert_eq!(empty, NodeRef::Term(TermId(0)));
        bdd
    }

    // -- accessors ---------------------------------------------------------

    pub fn root(&self) -> NodeRef {
        self.root
    }

    pub(crate) fn set_root(&mut self, root: NodeRef) {
        self.root = root;
    }

    pub(crate) fn alphabet_arc(&self) -> Arc<Alphabet> {
        Arc::clone(&self.alphabet)
    }

    pub fn pred(&self, id: PredId) -> &Predicate {
        &self.alphabet.preds[id.0 as usize]
    }

    /// The field order the diagram was built with: a tie-break order
    /// as fitted to the rule list, any other order as given.
    pub fn var_order(&self) -> &crate::order::VarOrder {
        &self.alphabet.order
    }

    /// The variable level of a predicate: the *order* every traversal
    /// compares by. Levels shift when predicates are spliced in; ids
    /// do not.
    pub fn level_of(&self, id: PredId) -> u32 {
        self.alphabet.levels[id.0 as usize]
    }

    /// The predicate at a variable level.
    pub fn pred_at_level(&self, level: u32) -> PredId {
        PredId(self.alphabet.pred_by_level[level as usize])
    }

    /// Intern a predicate, splicing it into the order if new (see
    /// [`Alphabet::insert_pred`]).
    pub(crate) fn add_pred(&mut self, p: &Predicate) -> PredId {
        Arc::make_mut(&mut self.alphabet).insert_pred(p)
    }

    /// The action a terminal label refers to.
    pub fn label(&self, id: RuleId) -> &Action {
        &self.labels[id as usize]
    }

    /// All interned labels.
    pub fn labels(&self) -> &[Action] {
        &self.labels
    }

    pub(crate) fn set_labels(&mut self, labels: Vec<Action>) {
        self.labels = labels;
    }

    pub(crate) fn labels_mut(&mut self) -> &mut Vec<Action> {
        &mut self.labels
    }

    pub fn preds(&self) -> &[Predicate] {
        &self.alphabet.preds
    }

    pub fn node(&self, id: u32) -> &Node {
        &self.nodes[id as usize]
    }

    pub fn terminal(&self, id: TermId) -> &BTreeSet<RuleId> {
        &self.terminals[id.0 as usize]
    }

    /// Number of terminals interned (including the empty terminal).
    pub fn terminal_count(&self) -> usize {
        self.terminals.len()
    }

    /// The field group id of a predicate.
    pub fn group_of(&self, id: PredId) -> u32 {
        self.alphabet.groups[id.0 as usize]
    }

    /// Field groups in variable order: operand plus **level** range
    /// (map levels to predicates with [`Bdd::pred_at_level`]).
    pub fn field_groups(&self) -> &[(Operand, Range<u32>)] {
        &self.alphabet.group_info
    }

    /// Nodes reachable from the root (the store may hold garbage from
    /// intermediate union results).
    pub fn reachable_nodes(&self) -> Vec<u32> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        let mut out = Vec::new();
        while let Some(r) = stack.pop() {
            if let NodeRef::Node(id) = r {
                if !seen[id as usize] {
                    seen[id as usize] = true;
                    out.push(id);
                    let n = self.nodes[id as usize];
                    stack.push(n.lo);
                    stack.push(n.hi);
                }
            }
        }
        out
    }

    /// Number of reachable internal nodes.
    pub fn node_count(&self) -> usize {
        self.reachable_nodes().len()
    }

    /// Reachable-node count via the reusable scratch buffers: no fresh
    /// allocation per call in steady state (unlike
    /// [`Bdd::reachable_nodes`], which keeps its allocating `&self`
    /// signature for read-only callers).
    pub fn live_nodes(&mut self) -> usize {
        let mut scratch = std::mem::take(&mut self.scratch);
        let n = {
            scratch.epoch = scratch.epoch.wrapping_add(1);
            if scratch.epoch == 0 {
                scratch.marks.iter_mut().for_each(|m| *m = u32::MAX);
                scratch.epoch = 1;
            }
            scratch.marks.resize(self.nodes.len(), scratch.epoch.wrapping_sub(1));
            scratch.stack.clear();
            scratch.stack.push(self.root);
            let mut count = 0usize;
            while let Some(r) = scratch.stack.pop() {
                if let NodeRef::Node(id) = r {
                    let i = id as usize;
                    if scratch.marks[i] != scratch.epoch {
                        scratch.marks[i] = scratch.epoch;
                        count += 1;
                        let n = self.nodes[i];
                        scratch.stack.push(n.lo);
                        scratch.stack.push(n.hi);
                    }
                }
            }
            count
        };
        self.scratch = scratch;
        n
    }

    /// Total nodes allocated, including unreachable intermediates.
    pub fn allocated_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn gc_stats(&self) -> GcStats {
        self.stats
    }

    // -- construction primitives -------------------------------------------

    /// Intern a terminal rule set.
    pub(crate) fn term(&mut self, set: BTreeSet<RuleId>) -> NodeRef {
        if let Some(&t) = self.term_index.get(&set) {
            return NodeRef::Term(t);
        }
        self.term_arc(Arc::new(set))
    }

    /// Intern a terminal rule set already behind an `Arc` (shared with
    /// another store during [`Bdd::absorb`]).
    pub(crate) fn term_arc(&mut self, set: Arc<BTreeSet<RuleId>>) -> NodeRef {
        if let Some(&t) = self.term_index.get(&*set) {
            return NodeRef::Term(t);
        }
        let t = TermId(self.terminals.len() as u32);
        self.term_index.insert(Arc::clone(&set), t);
        self.terminals.push(set);
        NodeRef::Term(t)
    }

    /// Make (or reuse) the node `if var then hi else lo`, applying all
    /// four reductions.
    pub(crate) fn mk(&mut self, var: PredId, lo: NodeRef, hi: NodeRef) -> NodeRef {
        self.run(&[lo, hi], Work::Mk(var))
    }

    /// Union of two BDDs (pointwise union of terminal rule sets).
    pub(crate) fn union(&mut self, a: NodeRef, b: NodeRef) -> NodeRef {
        self.run(&[], Work::Union(a, b))
    }

    /// Run `union`, `prune` and `mk` — which call each other once per
    /// band member — as one loop over the reused work stack, so the
    /// native stack stays flat. Each step returns the node it finishes
    /// with, if any. Steps run in depth-first call order, as recursive
    /// kernels would make the calls, and fill the memos at the same
    /// points, so nodes are created in the order recursion creates them.
    fn run(&mut self, args: &[NodeRef], first: Work) -> NodeRef {
        self.work.clear();
        self.results.clear();
        self.results.extend_from_slice(args);
        self.work.push(first);
        while let Some(step) = self.work.pop() {
            let done = match step {
                Work::Union(a, b) => self.union_step(a, b),
                Work::Prune(n, var, val) => self.prune_step(n, var, val),
                Work::Mk(var) => {
                    let [lo, hi] = self.take();
                    self.then([
                        Work::Reduce(var),
                        Work::Prune(hi, var, true),
                        Work::Prune(lo, var, false),
                    ])
                }
                Work::Split => {
                    let [alo, blo, ahi, bhi] = self.take();
                    self.then([Work::Union(ahi, bhi), Work::Union(alo, blo)])
                }
                Work::UnionMemo(a, b) => {
                    self.union_memo.insert((a, b), self.results[self.results.len() - 1]);
                    None
                }
                Work::PruneMemo(id, var, val) => {
                    self.prune_memo.insert((id, var, val), self.results[self.results.len() - 1]);
                    None
                }
                Work::Reduce(var) => match self.take() {
                    [lo, hi] if lo == hi => Some(lo), // reduction (ii)
                    [lo, hi] => self.then([Work::TestHi(var, lo, hi), Work::Prune(hi, var, false)]),
                },
                // Reduction (iv): redundant-test elimination. If `hi`
                // restricted to `var = false` is exactly `lo`, then the
                // test contributes nothing — every packet evaluates `hi`
                // to the same set whether or not it satisfies `var` (a
                // var-false packet walks `hi` along the branches the
                // restriction took). Symmetrically for `lo` restricted to
                // `var = true`. Without this check the reduced form
                // depends on the order unions are folded in: a rule
                // subsumed by a same-action rule on another field
                // collapses when the subsumer is merged first but leaves
                // a vacuous test chain when it is merged later, so
                // incremental maintenance (which re-merges against the
                // full misc conjunct every refresh) would keep nodes a
                // scratch build drops. For a pure-equality band the `lo`
                // restriction is the memoised lo-spine exit, so the
                // common identifier-routing path costs O(1).
                Work::TestHi(var, lo, hi) => match self.take() {
                    [r] if r == lo => Some(hi),
                    _ => self.then([Work::TestLo(var, lo, hi), Work::Prune(lo, var, true)]),
                },
                Work::TestLo(var, lo, hi) => Some(match self.take() {
                    [r] if r == hi => lo,
                    _ => self.intern(Node { var, lo, hi }),
                }),
            };
            self.results.extend(done);
        }
        // A store outlives its walks: what a deep walk grew the stacks
        // to goes back to the allocator.
        self.work.shrink_to(KEPT_STEPS);
        self.results.shrink_to(KEPT_STEPS);
        self.take::<1>()[0]
    }

    /// Push `steps`, the last to run first; the step that pushes them
    /// finishes with no node of its own.
    fn then<const N: usize>(&mut self, steps: [Work; N]) -> Option<NodeRef> {
        self.work.extend(steps);
        None
    }

    /// Pop the `N` results on top, oldest first.
    fn take<const N: usize>(&mut self) -> [NodeRef; N] {
        let at = self.results.len() - N;
        let out = std::array::from_fn(|i| self.results[at + i]);
        self.results.truncate(at);
        out
    }

    /// Reduction (i): the stored node equal to `node`, else `node`
    /// appended. `absorb`, whose source is already reduced over the same
    /// alphabet, interns without the other reductions.
    fn intern(&mut self, node: Node) -> NodeRef {
        if let Some(id) = self.unique.get(&self.nodes, &node) {
            return NodeRef::Node(id);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.stats.peak_allocated = self.stats.peak_allocated.max(self.nodes.len());
        self.unique.insert(&self.nodes, id);
        NodeRef::Node(id)
    }

    /// Reduction (iii): rewrite `n` under the assumption `var = val`,
    /// bypassing same-field descendant predicates that the assumption
    /// decides. Variables are grouped by field, so the walk stops as
    /// soon as it leaves `var`'s group.
    fn prune_step(&mut self, n: NodeRef, var: PredId, val: bool) -> Option<NodeRef> {
        let NodeRef::Node(id) = n else { return Some(n) };
        let node = self.nodes[id as usize];
        // Only same-field descendants can be decided by the assumption.
        let group = self.alphabet.groups[var.0 as usize];
        if self.alphabet.groups[node.var.0 as usize] != group {
            return Some(n);
        }
        debug_assert!(
            self.level_of(node.var) > self.level_of(var),
            "descendants have higher variable levels"
        );
        let given = &self.alphabet.preds[var.0 as usize];
        // Pure-equality bands have closed-form answers (O(1) instead of
        // walking the band) — the common case for identifier routing.
        if self.alphabet.group_pure_eq[group as usize] && given.rel == Rel::Eq {
            return Some(if val {
                // The assumed equality falsifies every other equality
                // on the field: take lo until the band is exited.
                self.lo_spine_exit(id, group)
            } else {
                // One equality being false decides nothing about the
                // others.
                n
            });
        }
        if let Some(&cached) = self.prune_memo.get(&(id, var, val)) {
            return Some(cached);
        }
        let memo = Work::PruneMemo(id, var, val);
        match implication(given, val, &self.alphabet.preds[node.var.0 as usize]) {
            Some(true) => self.then([memo, Work::Prune(node.hi, var, val)]),
            Some(false) => self.then([memo, Work::Prune(node.lo, var, val)]),
            None => self.then([
                memo,
                Work::Mk(node.var),
                Work::Prune(node.hi, var, val),
                Work::Prune(node.lo, var, val),
            ]),
        }
    }

    /// Exit of the all-false lo-spine of node `id` within `group`:
    /// where evaluation lands when every predicate of the band is
    /// false. Memoised per node (the result does not depend on which
    /// equality was assumed true).
    fn lo_spine_exit(&mut self, id: u32, group: u32) -> NodeRef {
        // Iterative: spines can be as long as the band (10⁵+ for large
        // exact-match alphabets).
        let mut path = Vec::new();
        let mut cur = id;
        let out = loop {
            if let Some(&cached) = self.spine_memo.get(&cur) {
                break cached;
            }
            path.push(cur);
            match self.nodes[cur as usize].lo {
                NodeRef::Node(l)
                    if self.alphabet.groups[self.nodes[l as usize].var.0 as usize] == group =>
                {
                    cur = l;
                }
                other => break other,
            }
        };
        for n in path {
            self.spine_memo.insert(n, out);
        }
        out
    }

    /// A `union` step: the trivial cases, the memo and terminal pairs
    /// finish here. Otherwise both operands split on the top variable,
    /// and each cofactor is pruned under the branch assumption *before*
    /// the sub-unions: a same-field chain that the assumption kills
    /// collapses now, instead of being merged into O(band²) garbage
    /// nodes that `mk` would only discard afterwards.
    fn union_step(&mut self, a: NodeRef, b: NodeRef) -> Option<NodeRef> {
        // The empty terminal is the identity.
        if a == b || b == NodeRef::Term(TermId(0)) {
            return Some(a);
        }
        if a == NodeRef::Term(TermId(0)) {
            return Some(b);
        }
        // Normalise the memo key: union is commutative.
        let key = normalise_pair(a, b);
        if let Some(&cached) = self.union_memo.get(&key) {
            return Some(cached);
        }
        if let (NodeRef::Term(ta), NodeRef::Term(tb)) = (a, b) {
            let set: BTreeSet<RuleId> = self.terminals[ta.0 as usize]
                .union(&self.terminals[tb.0 as usize])
                .copied()
                .collect();
            let out = self.term(set);
            self.union_memo.insert(key, out);
            return Some(out);
        }
        let v = match (top_var(self, a), top_var(self, b)) {
            (Some(x), Some(y)) => std::cmp::min_by_key(x, y, |&p| self.level_of(p)),
            (x, y) => x.or(y).expect("one operand is a node"),
        };
        let (alo, ahi) = cofactor(self, a, v);
        let (blo, bhi) = cofactor(self, b, v);
        self.then([
            Work::UnionMemo(key.0, key.1),
            Work::Mk(v),
            Work::Split,
            Work::Prune(bhi, v, true),
            Work::Prune(ahi, v, true),
            Work::Prune(blo, v, false),
            Work::Prune(alo, v, false),
        ])
    }

    /// Import the diagram rooted at `r` in `other` into this store,
    /// returning the translated root. Both stores must share (a clone
    /// of) the same alphabet; only node and terminal ids are remapped,
    /// via iterative post-order translation (spines can be
    /// band-length, so no recursion).
    pub(crate) fn absorb(&mut self, other: &Bdd, r: NodeRef) -> NodeRef {
        debug_assert_eq!(self.alphabet.len(), other.alphabet.len(), "alphabets must match");
        let mut node_map: HashMap<u32, NodeRef> = HashMap::new();
        let mut term_map: HashMap<u32, NodeRef> = HashMap::new();
        let mut translate_term = |slf: &mut Bdd, t: TermId| -> NodeRef {
            if let Some(&m) = term_map.get(&t.0) {
                return m;
            }
            let m = slf.term_arc(Arc::clone(&other.terminals[t.0 as usize]));
            term_map.insert(t.0, m);
            m
        };
        let NodeRef::Node(root_id) = r else {
            let NodeRef::Term(t) = r else { unreachable!() };
            return translate_term(self, t);
        };
        // Two-phase explicit stack: visit children first, then build.
        enum Task {
            Visit(u32),
            Build(u32),
        }
        let mut stack = vec![Task::Visit(root_id)];
        while let Some(task) = stack.pop() {
            match task {
                Task::Visit(id) => {
                    if node_map.contains_key(&id) {
                        continue;
                    }
                    stack.push(Task::Build(id));
                    let n = other.nodes[id as usize];
                    for child in [n.lo, n.hi] {
                        if let NodeRef::Node(c) = child {
                            if !node_map.contains_key(&c) {
                                stack.push(Task::Visit(c));
                            }
                        }
                    }
                }
                Task::Build(id) => {
                    if node_map.contains_key(&id) {
                        continue;
                    }
                    let n = other.nodes[id as usize];
                    let lo = match n.lo {
                        NodeRef::Node(c) => node_map[&c],
                        NodeRef::Term(t) => translate_term(self, t),
                    };
                    let hi = match n.hi {
                        NodeRef::Node(c) => node_map[&c],
                        NodeRef::Term(t) => translate_term(self, t),
                    };
                    debug_assert_ne!(lo, hi, "source diagrams are reduced");
                    node_map.insert(id, self.intern(Node { var: n.var, lo, hi }));
                }
            }
        }
        node_map[&root_id]
    }

    // -- evaluation ----------------------------------------------------------

    /// Evaluate the BDD against an attribute lookup, returning the set
    /// of matching rules. A missing attribute makes its predicates
    /// false (standard pub/sub semantics).
    pub fn eval<F>(&self, lookup: F) -> &BTreeSet<RuleId>
    where
        F: Fn(&Operand) -> Option<Value>,
    {
        let mut cur = self.root;
        loop {
            match cur {
                NodeRef::Term(t) => return &self.terminals[t.0 as usize],
                NodeRef::Node(id) => {
                    let n = &self.nodes[id as usize];
                    let p = &self.alphabet.preds[n.var.0 as usize];
                    let taken = lookup(&p.operand).is_some_and(|v| p.eval(&v));
                    cur = if taken { n.hi } else { n.lo };
                }
            }
        }
    }

    // -- garbage collection --------------------------------------------------

    /// Whether the capacity trigger would fire: allocation has drifted
    /// more than 2× past the live set of the last sweep.
    pub fn gc_due(&self) -> bool {
        self.nodes.len() > 4096 && self.nodes.len() > 2 * self.stats.live_after_gc.max(1024)
    }

    /// Mark-and-sweep: drop every node and terminal not reachable from
    /// the root or `external_roots`, compact the arenas, rebuild the
    /// unique table and terminal index, and return the id remap so
    /// callers can rewrite the refs they hold. Construction memos are
    /// cleared (the spine memo, which stays valid, is remapped).
    pub(crate) fn gc(&mut self, external_roots: &[NodeRef]) -> NodeRemap {
        let before = self.nodes.len();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            scratch.marks.iter_mut().for_each(|m| *m = u32::MAX);
            scratch.epoch = 1;
        }
        scratch.marks.resize(self.nodes.len(), scratch.epoch.wrapping_sub(1));
        scratch.stack.clear();
        let mut term_live = vec![false; self.terminals.len()];
        term_live[0] = true; // the canonical empty terminal survives
        scratch.stack.push(self.root);
        scratch.stack.extend_from_slice(external_roots);
        while let Some(r) = scratch.stack.pop() {
            match r {
                NodeRef::Term(t) => term_live[t.0 as usize] = true,
                NodeRef::Node(id) => {
                    let i = id as usize;
                    if scratch.marks[i] != scratch.epoch {
                        scratch.marks[i] = scratch.epoch;
                        let n = self.nodes[i];
                        scratch.stack.push(n.lo);
                        scratch.stack.push(n.hi);
                    }
                }
            }
        }

        // Terminal remap + compaction (ascending, so TermId(0) stays 0).
        let mut terms = vec![u32::MAX; self.terminals.len()];
        let mut tkeep = 0u32;
        for (i, live) in term_live.iter().enumerate() {
            if *live {
                terms[i] = tkeep;
                tkeep += 1;
            }
        }
        {
            let mut i = 0;
            self.terminals.retain(|_| {
                let keep = term_live[i];
                i += 1;
                keep
            });
        }
        self.term_index.clear();
        for (i, set) in self.terminals.iter().enumerate() {
            self.term_index.insert(Arc::clone(set), TermId(i as u32));
        }

        // Node remap + compaction. Children always precede parents in
        // the arena, so one ascending pass rewrites refs in place.
        let mut nodes = vec![u32::MAX; self.nodes.len()];
        let remap_ref = |r: NodeRef, nodes: &[u32], terms: &[u32]| -> NodeRef {
            match r {
                NodeRef::Term(t) => NodeRef::Term(TermId(terms[t.0 as usize])),
                NodeRef::Node(n) => NodeRef::Node(nodes[n as usize]),
            }
        };
        let mut keep = 0usize;
        for i in 0..self.nodes.len() {
            if scratch.marks[i] == scratch.epoch {
                let mut n = self.nodes[i];
                n.lo = remap_ref(n.lo, &nodes, &terms);
                n.hi = remap_ref(n.hi, &nodes, &terms);
                nodes[i] = keep as u32;
                self.nodes[keep] = n;
                keep += 1;
            }
        }
        self.nodes.truncate(keep);
        scratch.marks.truncate(keep);
        scratch.marks.iter_mut().for_each(|m| *m = scratch.epoch.wrapping_sub(1));
        self.scratch = scratch;

        // Rebuild the unique table; clear memos keyed by dead ids. The
        // spine memo survives (a live node's lo-spine is live) modulo
        // the remap.
        let mut unique = UniqueTable::with_capacity(keep);
        for id in 0..keep as u32 {
            unique.insert(&self.nodes, id);
        }
        self.unique = unique;
        self.prune_memo = HashMap::new();
        self.union_memo = HashMap::new();
        let spine = std::mem::take(&mut self.spine_memo);
        self.spine_memo = spine
            .into_iter()
            .filter(|(k, _)| nodes[*k as usize] != u32::MAX)
            .map(|(k, v)| (nodes[k as usize], remap_ref(v, &nodes, &terms)))
            .collect();

        self.root = remap_ref(self.root, &nodes, &terms);
        self.stats.runs += 1;
        self.stats.collected += (before - keep) as u64;
        self.stats.live_after_gc = keep;
        NodeRemap { nodes, terms }
    }

    /// Compact the predicate alphabet to the predicates actually used
    /// by current nodes, rewriting node vars. Call after a sweep, on a
    /// store that is done constructing (pred ids change).
    pub(crate) fn compact_preds(&mut self) {
        let mut used = vec![false; self.alphabet.len()];
        for n in &self.nodes {
            used[n.var.0 as usize] = true;
        }
        // Retain used predicates in level order so relative order (and
        // group contiguity) is preserved.
        let mut retained: Vec<Predicate> = Vec::new();
        let mut remap = vec![u32::MAX; self.alphabet.len()];
        for &pid in &self.alphabet.pred_by_level {
            if used[pid as usize] {
                remap[pid as usize] = retained.len() as u32;
                retained.push(self.alphabet.preds[pid as usize].clone());
            }
        }
        for n in self.nodes.iter_mut() {
            n.var = PredId(remap[n.var.0 as usize]);
        }
        let mut alphabet = Alphabet::from_sorted_preds(retained);
        alphabet.set_order(self.alphabet.order.clone());
        self.alphabet = Arc::new(alphabet);
    }

    /// Shrink for long-lived storage: sweep unreachable nodes and
    /// terminals, compact the predicate table (churn epochs leave dead
    /// predicates behind), and release construction caches. Evaluation
    /// and traversal remain available; further construction restarts
    /// cold.
    pub fn shrink(&mut self) {
        self.gc(&[]);
        self.compact_preds();
        self.unique = UniqueTable::default();
        self.prune_memo = HashMap::new();
        self.union_memo = HashMap::new();
        self.spine_memo = HashMap::new();
        self.term_index = HashMap::new();
        self.scratch = Scratch::default();
    }
}

fn normalise_pair(a: NodeRef, b: NodeRef) -> (NodeRef, NodeRef) {
    // Any deterministic commutative normalisation works.
    fn rank(r: NodeRef) -> (u8, u32) {
        match r {
            NodeRef::Term(t) => (0, t.0),
            NodeRef::Node(n) => (1, n),
        }
    }
    if rank(a) <= rank(b) {
        (a, b)
    } else {
        (b, a)
    }
}

fn top_var(bdd: &Bdd, r: NodeRef) -> Option<PredId> {
    match r {
        NodeRef::Term(_) => None,
        NodeRef::Node(id) => Some(bdd.node(id).var),
    }
}

fn cofactor(bdd: &Bdd, r: NodeRef, v: PredId) -> (NodeRef, NodeRef) {
    match r {
        NodeRef::Term(_) => (r, r),
        NodeRef::Node(id) => {
            let n = bdd.node(id);
            if n.var == v {
                (n.lo, n.hi)
            } else {
                (r, r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphabet() -> Vec<Predicate> {
        vec![
            Predicate::field("stock", Rel::Eq, "GOOGL"),
            Predicate::field("stock", Rel::Eq, "MSFT"),
            Predicate::field("price", Rel::Gt, 50i64),
            Predicate::field("price", Rel::Gt, 80i64),
        ]
    }

    #[test]
    fn alphabet_groups_are_contiguous() {
        let bdd = Bdd::with_alphabet(alphabet());
        assert_eq!(bdd.field_groups().len(), 2);
        assert_eq!(bdd.field_groups()[0].1, 0..2);
        assert_eq!(bdd.field_groups()[1].1, 2..4);
        assert_eq!(bdd.group_of(PredId(0)), 0);
        assert_eq!(bdd.group_of(PredId(3)), 1);
    }

    #[test]
    fn insert_pred_splices_into_band() {
        let mut bdd = Bdd::with_alphabet(alphabet());
        // A new equality joining a pure-equality band lands at the band
        // *top* (O(1) incremental chain growth; any member order of
        // mutually exclusive equalities is reduced).
        let p = Predicate::field("stock", Rel::Eq, "INTC");
        let id = bdd.add_pred(&p);
        assert_eq!(id, PredId(4));
        assert_eq!(bdd.level_of(id), 0); // INTC at the band top
        assert_eq!(bdd.level_of(PredId(0)), 1); // GOOGL shifted
        assert_eq!(bdd.level_of(PredId(1)), 2); // MSFT shifted
        assert_eq!(bdd.level_of(PredId(2)), 3); // price > 50 shifted
        assert_eq!(bdd.field_groups()[0].1, 0..3);
        assert_eq!(bdd.field_groups()[1].1, 3..5);
        assert_eq!(bdd.pred_at_level(0), id);
        // Idempotent.
        assert_eq!(bdd.add_pred(&p), id);
        // A non-equality splices at its canonical sorted slot (the
        // price band is not pure-equality).
        let r = Predicate::field("price", Rel::Gt, 65i64);
        let rid = bdd.add_pred(&r);
        assert_eq!(bdd.level_of(PredId(2)), 3); // price > 50 stays
        assert_eq!(bdd.level_of(rid), 4); // > 65 between
        assert_eq!(bdd.level_of(PredId(3)), 5); // price > 80 shifted
        assert_eq!(bdd.field_groups()[1].1, 3..6);
        // A new field appends a group at the end.
        let q = Predicate::field("shares", Rel::Gt, 1i64);
        let qid = bdd.add_pred(&q);
        assert_eq!(bdd.group_of(qid), 2);
        assert_eq!(bdd.field_groups()[2].1, 6..7);
    }

    #[test]
    fn mk_same_child_elimination() {
        let mut bdd = Bdd::with_alphabet(alphabet());
        let t = bdd.term(BTreeSet::from([1]));
        let r = bdd.mk(PredId(0), t, t);
        assert_eq!(r, t);
        assert_eq!(bdd.allocated_nodes(), 0);
    }

    #[test]
    fn mk_hash_consing() {
        let mut bdd = Bdd::with_alphabet(alphabet());
        let e = bdd.term(BTreeSet::new());
        let t = bdd.term(BTreeSet::from([1]));
        let a = bdd.mk(PredId(2), e, t);
        let b = bdd.mk(PredId(2), e, t);
        assert_eq!(a, b);
        assert_eq!(bdd.allocated_nodes(), 1);
    }

    #[test]
    fn mk_prunes_contradictory_descendant() {
        // if stock==GOOGL then (if stock==MSFT then T1 else T0):
        // under stock==GOOGL, stock==MSFT is implied false, so the
        // inner node collapses to T0.
        let mut bdd = Bdd::with_alphabet(alphabet());
        let e = bdd.term(BTreeSet::new());
        let t1 = bdd.term(BTreeSet::from([1]));
        let inner = bdd.mk(PredId(1), e, t1);
        // With lo = e too, the whole diagram collapses to the empty
        // terminal: under GOOGL the MSFT test is dead, elsewhere e.
        assert_eq!(bdd.mk(PredId(0), e, inner), e);
        // With lo = t1 the node survives but its hi branch is pruned.
        let outer = bdd.mk(PredId(0), t1, inner);
        match outer {
            NodeRef::Node(id) => {
                assert_eq!(bdd.node(id).hi, e);
                assert_eq!(bdd.node(id).lo, t1);
            }
            _ => panic!("expected a node"),
        }
    }

    #[test]
    fn mk_prunes_implied_true_descendant() {
        // under price>80 true, price>50 is implied true (note the
        // variable order puts >50 before >80, so build the other way:
        // outer tests price>50, inner tests price>80; under price>50
        // *false*, price>80 is implied false).
        let mut bdd = Bdd::with_alphabet(alphabet());
        let e = bdd.term(BTreeSet::new());
        let t1 = bdd.term(BTreeSet::from([1]));
        let inner = bdd.mk(PredId(3), e, t1); // price > 80
        let outer = bdd.mk(PredId(2), inner, t1); // price > 50: lo=inner
        match outer {
            // lo branch (price<=50) should collapse inner to e.
            NodeRef::Node(id) => assert_eq!(bdd.node(id).lo, e),
            _ => panic!("expected a node"),
        }
    }

    #[test]
    fn union_of_terminals_unions_sets() {
        let mut bdd = Bdd::with_alphabet(alphabet());
        let a = bdd.term(BTreeSet::from([1, 2]));
        let b = bdd.term(BTreeSet::from([2, 3]));
        let u = bdd.union(a, b);
        match u {
            NodeRef::Term(t) => assert_eq!(bdd.terminal(t), &BTreeSet::from([1, 2, 3])),
            _ => panic!("expected a terminal"),
        }
    }

    #[test]
    fn union_with_empty_is_identity() {
        let mut bdd = Bdd::with_alphabet(alphabet());
        let e = bdd.term(BTreeSet::new());
        let t = bdd.term(BTreeSet::from([7]));
        let n = bdd.mk(PredId(0), e, t);
        assert_eq!(bdd.union(e, n), n);
        assert_eq!(bdd.union(n, e), n);
        assert_eq!(bdd.union(n, n), n);
    }

    #[test]
    fn eval_walks_to_terminal() {
        let mut bdd = Bdd::with_alphabet(alphabet());
        let e = bdd.term(BTreeSet::new());
        let t = bdd.term(BTreeSet::from([0]));
        let price_node = bdd.mk(PredId(2), e, t);
        let root = bdd.mk(PredId(0), e, price_node);
        bdd.set_root(root);
        let matched = bdd.eval(|op| match op.field_name() {
            "stock" => Some("GOOGL".into()),
            "price" => Some(60i64.into()),
            _ => None,
        });
        assert_eq!(matched, &BTreeSet::from([0]));
        let unmatched = bdd.eval(|op| match op.field_name() {
            "stock" => Some("MSFT".into()),
            "price" => Some(60i64.into()),
            _ => None,
        });
        assert!(unmatched.is_empty());
        // Missing attribute -> predicates false.
        let missing = bdd.eval(|_| None);
        assert!(missing.is_empty());
    }

    #[test]
    fn reachable_excludes_garbage() {
        let mut bdd = Bdd::with_alphabet(alphabet());
        let e = bdd.term(BTreeSet::new());
        let t = bdd.term(BTreeSet::from([0]));
        let _garbage = bdd.mk(PredId(1), e, t);
        let root = bdd.mk(PredId(0), e, t);
        bdd.set_root(root);
        assert_eq!(bdd.allocated_nodes(), 2);
        assert_eq!(bdd.node_count(), 1);
        assert_eq!(bdd.live_nodes(), 1);
    }

    #[test]
    fn gc_collects_garbage_and_remaps() {
        let mut bdd = Bdd::with_alphabet(alphabet());
        let e = bdd.term(BTreeSet::new());
        let t0 = bdd.term(BTreeSet::from([0]));
        let t9 = bdd.term(BTreeSet::from([9])); // becomes garbage
        let garbage = bdd.mk(PredId(1), e, t9);
        let kept = bdd.mk(PredId(3), e, t0);
        let root = bdd.mk(PredId(0), kept, t0);
        bdd.set_root(root);
        // Keep `kept` alive twice over: reachable from root AND an
        // external root.
        let external = [kept];
        assert_eq!(bdd.allocated_nodes(), 3);
        let remap = bdd.gc(&external);
        assert_eq!(bdd.allocated_nodes(), 2);
        assert_eq!(bdd.node_count(), 2);
        // The garbage terminal was swept too.
        assert_eq!(bdd.terminal_count(), 2);
        let kept2 = remap.apply(kept);
        assert!(matches!(kept2, NodeRef::Node(_)));
        // Graph still evaluates.
        let m = bdd.eval(|op| match op.field_name() {
            "stock" => Some("MSFT".into()),
            "price" => Some(100i64.into()),
            _ => None,
        });
        assert_eq!(m, &BTreeSet::from([0]));
        let _ = garbage;
        assert_eq!(bdd.gc_stats().runs, 1);
        assert_eq!(bdd.gc_stats().collected, 1);
    }

    #[test]
    fn gc_keeps_construction_usable() {
        // After a sweep the unique table is rebuilt: further mk calls
        // must keep hash-consing against surviving nodes.
        let mut bdd = Bdd::with_alphabet(alphabet());
        let e = bdd.term(BTreeSet::new());
        let t = bdd.term(BTreeSet::from([0]));
        let n = bdd.mk(PredId(2), e, t);
        bdd.set_root(n);
        let remap = bdd.gc(&[]);
        let n2 = remap.apply(n);
        let again = bdd.mk(PredId(2), e, t);
        assert_eq!(again, n2);
        assert_eq!(bdd.allocated_nodes(), 1);
    }

    #[test]
    fn shrink_keeps_graph_usable_and_compacts_preds() {
        let mut bdd = Bdd::with_alphabet(alphabet());
        let e = bdd.term(BTreeSet::new());
        let t = bdd.term(BTreeSet::from([0]));
        let root = bdd.mk(PredId(2), e, t);
        bdd.set_root(root);
        bdd.shrink();
        // Only the used predicate survives.
        assert_eq!(bdd.preds().len(), 1);
        assert_eq!(bdd.field_groups().len(), 1);
        let m = bdd.eval(|op| (op.field_name() == "price").then_some(Value::Int(100)));
        assert_eq!(m, &BTreeSet::from([0]));
    }

    #[test]
    fn absorb_translates_between_stores() {
        let preds = alphabet();
        let shared = Arc::new(Alphabet::from_sorted_preds(preds));
        let mut a = Bdd::with_shared_alphabet(Arc::clone(&shared));
        let mut b = Bdd::with_shared_alphabet(shared);
        let e = b.term(BTreeSet::new());
        let t = b.term(BTreeSet::from([3]));
        let inner = b.mk(PredId(2), e, t);
        let root = b.mk(PredId(0), inner, t);
        // Pre-populate `a` with an unrelated terminal so ids diverge.
        let _ = a.term(BTreeSet::from([7]));
        let moved = a.absorb(&b, root);
        a.set_root(moved);
        let m = a.eval(|op| match op.field_name() {
            "stock" => Some("GOOGL".into()),
            _ => None,
        });
        assert_eq!(m, &BTreeSet::from([3]));
        let m = a.eval(|op| match op.field_name() {
            "price" => Some(60i64.into()),
            _ => None,
        });
        assert_eq!(m, &BTreeSet::from([3]));
        // Absorbing again is idempotent (hash-consed).
        let again = a.absorb(&b, root);
        assert_eq!(again, moved);
    }
}
