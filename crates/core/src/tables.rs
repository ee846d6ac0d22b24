//! Algorithm 2: translating the BDD into per-field match-action tables.
//!
//! The ordered BDD is sliced into *components*, one per field: the
//! subgraph of nodes predicating on that field (§V-D). Each component
//! becomes one pipeline stage whose table encodes the component's
//! transition function: for every **In** node `u` (entered from outside
//! the component) and every path `u → … → v` leaving the component, an
//! entry `(u, range) → v` is emitted, where `range` is the intersection
//! of the predicate outcomes along the path (Algorithm 2 in the paper).
//!
//! The domain-specific BDD reductions guarantee at most one path
//! between any In/Out pair, so the table is at most quadratic in the
//! component size.
//!
//! **Cost.** Emission is linear in the component walks plus the
//! entries they emit. States, In nodes and terminals are indexed by
//! node and terminal id in dense vectors. A range or ternary path moves
//! its region into its second child and copies it only for the first.
//! An exact stage (only `==`/`!=`) never copies: its path region is
//! unconstrained, one pinned point, or every value but the ones the
//! path excluded, and those exclusions live once per walk in a set
//! that a value joins on descent and leaves on backtrack. On a band's
//! lo-spine, where every member excludes one more value, a per-edge
//! copy would make a band of k members cost O(k²).
//!
//! Beyond the paper's pseudo-code, this implementation also handles:
//!
//! * **string fields** — paths accumulate a [`StrSet`]; pinned
//!   equalities become exact entries, pinned prefixes become ternary
//!   entries, and purely negative paths become a wildcard entry whose
//!   excluded regions are shadowed by the higher-priority positive
//!   entries (longest-prefix/exact-first semantics),
//! * **missing or type-mismatched attributes** — each In state records
//!   a *miss transition*: the exit taken by the all-false path, which
//!   is where a packet that does not carry the attribute must go,
//! * **range→exact lowering** (§V-E) — a stage whose predicates are all
//!   equalities/disequalities is emitted as an SRAM exact-match table.

use crate::multicast::MulticastAllocator;
use crate::pipeline::{
    LeafTable, MatchKind, MatchSpec, Pipeline, StageTable, StateId, TableEntry, STATE_INIT,
};
use camus_bdd::digest::WordHasher;
use camus_bdd::{Bdd, NodeRef, TermId};
#[cfg(test)]
use camus_lang::ast::Rule;
use camus_lang::ast::{Action, Predicate, Rel};
use camus_lang::sets::{IntSet, StrSet};
use camus_lang::value::{Type, Value};
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// Errors from table generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The switch ran out of multicast groups (§VII-C).
    MulticastExhausted { needed: usize, limit: usize },
    /// A field was constrained with both integer and string constants.
    MixedTypes(String),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::MulticastExhausted { needed, limit } => {
                write!(f, "multicast groups exhausted: need {needed}, limit {limit}")
            }
            TableError::MixedTypes(op) => {
                write!(f, "field `{op}` constrained with both integer and string constants")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Accumulated value constraint along a component path.
#[derive(Debug, Clone)]
enum Region {
    Unconstrained,
    Int(IntSet),
    Str(StrSet),
}

impl Region {
    fn apply(&mut self, rel: Rel, constant: &Value, taken: bool) -> Result<(), ()> {
        match constant {
            Value::Int(c) => {
                let set = IntSet::from_rel(rel, *c);
                let set = if taken { set } else { set.complement() };
                match self {
                    Region::Unconstrained => *self = Region::Int(set),
                    Region::Int(cur) => *cur = cur.intersect(&set),
                    Region::Str(_) => return Err(()),
                }
            }
            Value::Str(s) => {
                let rel = if taken { rel } else { rel.negate() };
                match self {
                    Region::Unconstrained => *self = Region::Str(StrSet::from_rel(rel, s)),
                    Region::Str(cur) => cur.add(rel, s),
                    Region::Int(_) => return Err(()),
                }
            }
        }
        Ok(())
    }

    fn is_empty(&self) -> bool {
        match self {
            Region::Unconstrained => false,
            Region::Int(s) => s.is_empty(),
            Region::Str(s) => s.is_empty(),
        }
    }
}

/// Generate the pipeline for a compiled BDD. Actions come from the
/// BDD's interned labels; `mcast` allocates groups for overlapping
/// forwards.
pub fn bdd_to_pipeline(bdd: &Bdd, mcast: &mut MulticastAllocator) -> Result<Pipeline, TableError> {
    // ---- state assignment --------------------------------------------------
    // The root is state 0 (§V-D). Every terminal and every In node of a
    // component gets a state: the root (if internal) plus the targets
    // of cross-component edges.
    let group = |id: u32| bdd.group_of(bdd.node(id).var);
    let mut states = States::new(bdd);
    let root = bdd.root();
    states.assign(bdd, root);
    debug_assert_eq!(states.of(root), STATE_INIT);

    // A stage's match kind follows the predicates the diagram still
    // tests, not the alphabet: a predicate whose every node was reduced
    // away must not widen the table, or a diagram emitted in place and
    // its compacted snapshot would disagree. Its node count sizes its
    // entries: a walk leaves a band by each hi branch and the last lo.
    let mut kinds = vec![MatchKind::Exact; bdd.field_groups().len()];
    let mut sizes = vec![0; bdd.field_groups().len()];
    for nid in bdd.reachable_nodes() {
        let n = bdd.node(nid);
        let g = group(nid);
        kinds[g as usize] = widen_kind(kinds[g as usize], bdd.pred(n.var));
        sizes[g as usize] += 1;
        for child in [n.lo, n.hi] {
            if !matches!(child, NodeRef::Node(c) if group(c) == g) {
                states.assign(bdd, child);
            }
        }
    }

    // ---- per-component tables ---------------------------------------------
    // Stages must execute in *band level* order (a state transition can
    // only jump forward in the pipeline). Group ids are append-only and
    // not necessarily level-ordered once incremental maintenance has
    // spliced a new field group into the variable order, so sort by the
    // groups' level ranges.
    let mut group_order: Vec<usize> = (0..bdd.field_groups().len()).collect();
    group_order.sort_unstable_by_key(|&g| bdd.field_groups()[g].1.start);
    let mut region_stack = Vec::new();
    let mut exact_stack = Vec::new();
    let mut excluded = Exclusions::default();
    let mut stages = Vec::with_capacity(group_order.len());
    for gid in group_order {
        let (operand, _) = &bdd.field_groups()[gid];
        let ins = &states.in_nodes[gid];
        if ins.is_empty() {
            continue; // no reachable node tests this field
        }
        let kind = kinds[gid];
        let mut entries = Vec::with_capacity(sizes[gid] + ins.len());
        for &u in ins {
            let first = entries.len();
            let component =
                Component { bdd, group: gid as u32, states: &states, entries: &mut entries };
            let miss = match kind {
                MatchKind::Exact => component.walk_exact(u, &mut exact_stack, &mut excluded),
                _ => component.walk_regions(u, &mut region_stack),
            }
            .map_err(|()| TableError::MixedTypes(operand.key()))?;
            // Miss transition: the exit of the all-false path is where a
            // packet lacking the attribute must go. A state whose paths
            // emitted no `Any` gets one as an explicit lowest-priority
            // entry — for attribute-carrying packets the region entries
            // match first (they tile the domain), so the extra wildcard
            // is only reachable on a genuine miss. Its `(state, priority)`
            // is unique, so the table's sort places it the same wherever
            // it is pushed.
            let has_any = entries[first..].iter().any(|e| matches!(e.spec, MatchSpec::Any));
            if let (Some(next), false) = (miss, has_any) {
                let state = states.nodes[u as usize];
                entries.push(TableEntry { state, spec: MatchSpec::Any, next });
            }
        }
        stages.push(StageTable::new(operand.clone(), kind, entries));
    }

    // ---- leaf table ----------------------------------------------------------
    // Terminals are processed in state order so that multicast group ids
    // are allocated deterministically: recompiling the same rule list
    // must yield a bit-identical pipeline (incremental recompilation
    // compares reused pipelines against fresh ones).
    let mut actions = HashMap::with_capacity(states.terminals.len());
    for &t in &states.terminals {
        let state = states.terms[t.0 as usize];
        let set = bdd.terminal(t);
        if set.is_empty() {
            actions.insert(state, (Action::Drop, None));
            continue;
        }
        let merged = set
            .iter()
            .map(|&rid| bdd.label(rid).clone())
            .reduce(|a, b| a.merge(&b))
            .expect("non-empty terminal");
        let mgid = match merged.ports() {
            Some(ports) if ports.len() > 1 => match mcast.alloc(ports) {
                Some(g) => Some(g),
                None => {
                    return Err(TableError::MulticastExhausted {
                        needed: mcast.group_count() + 1,
                        limit: mcast.limit(),
                    })
                }
            },
            _ => None,
        };
        actions.insert(state, (merged, mgid));
    }

    Ok(Pipeline { stages, leaf: LeafTable { actions, default: Action::Drop }, initial: STATE_INIT })
}

const NO_STATE: StateId = StateId::MAX;

/// State ids indexed by node id and by terminal id (`NO_STATE` where
/// none is assigned), plus what the assignment order yields: each
/// component's In nodes and the terminals, both in state order.
struct States {
    next: StateId,
    nodes: Vec<StateId>,
    terms: Vec<StateId>,
    /// Per field group.
    in_nodes: Vec<Vec<u32>>,
    terminals: Vec<TermId>,
}

impl States {
    fn new(bdd: &Bdd) -> States {
        States {
            next: STATE_INIT,
            nodes: vec![NO_STATE; bdd.allocated_nodes()],
            terms: vec![NO_STATE; bdd.terminal_count()],
            in_nodes: vec![Vec::new(); bdd.field_groups().len()],
            terminals: Vec::new(),
        }
    }

    /// Give `r` the next state unless it has one.
    fn assign(&mut self, bdd: &Bdd, r: NodeRef) {
        let slot = match r {
            NodeRef::Node(id) => &mut self.nodes[id as usize],
            NodeRef::Term(t) => &mut self.terms[t.0 as usize],
        };
        if *slot != NO_STATE {
            return;
        }
        *slot = self.next;
        self.next += 1;
        match r {
            NodeRef::Node(id) => self.in_nodes[bdd.group_of(bdd.node(id).var) as usize].push(id),
            NodeRef::Term(t) => self.terminals.push(t),
        }
    }

    fn of(&self, r: NodeRef) -> StateId {
        match r {
            NodeRef::Node(id) => self.nodes[id as usize],
            NodeRef::Term(t) => self.terms[t.0 as usize],
        }
    }
}

/// One component's walk from one In node: a depth-first search inside
/// the field group, high branch first, that emits one entry set per
/// path leaving the group.
struct Component<'a, 'e> {
    bdd: &'a Bdd,
    group: u32,
    states: &'a States,
    entries: &'e mut Vec<TableEntry>,
}

impl<'a> Component<'a, '_> {
    fn inside(&self, r: NodeRef) -> Option<u32> {
        match r {
            NodeRef::Node(id) if self.bdd.group_of(self.bdd.node(id).var) == self.group => Some(id),
            _ => None,
        }
    }

    /// Walk a range or ternary component, accumulating each path's
    /// [`Region`]. Returns the exit of the all-false path, where a
    /// packet lacking the attribute goes; `Err` on mixed types.
    fn walk_regions(
        self,
        u: u32,
        stack: &mut Vec<(NodeRef, Region, bool)>,
    ) -> Result<Option<StateId>, ()> {
        let state = self.states.nodes[u as usize];
        let mut miss = None;
        stack.clear();
        stack.push((NodeRef::Node(u), Region::Unconstrained, true));
        while let Some((r, region, all_false)) = stack.pop() {
            let Some(id) = self.inside(r) else {
                let next = self.states.of(r);
                if all_false {
                    miss = Some(next);
                }
                emit_entries(self.entries, state, &region, next);
                continue;
            };
            let n = self.bdd.node(id);
            let p = self.bdd.pred(n.var);
            let mut lo = region.clone();
            lo.apply(p.rel, &p.constant, false)?;
            let mut hi = region;
            hi.apply(p.rel, &p.constant, true)?;
            if !lo.is_empty() {
                stack.push((n.lo, lo, all_false));
            }
            if !hi.is_empty() {
                stack.push((n.hi, hi, false));
            }
        }
        Ok(miss)
    }

    /// Walk an exact-match component. Its paths test only `==`/`!=`,
    /// so a region is unconstrained, one pinned point, or every value
    /// but the ones the path excluded. Those live once per walk: a
    /// value joins them on descent and leaves on backtrack, so a band's
    /// lo-spine costs O(1) per node instead of a copy of the growing
    /// set. Returns as [`Component::walk_regions`] does.
    fn walk_exact(
        self,
        u: u32,
        stack: &mut Vec<ExactStep<'a>>,
        excluded: &mut Exclusions<'a>,
    ) -> Result<Option<StateId>, ()> {
        let state = self.states.nodes[u as usize];
        let mut miss = None;
        stack.clear();
        excluded.truncate(0);
        stack.push(ExactStep {
            r: NodeRef::Node(u),
            region: ExactRegion::Free,
            all_false: true,
            exclude: None,
            depth: 0,
        });
        while let Some(ExactStep { r, region, all_false, exclude, depth }) = stack.pop() {
            let Some(id) = self.inside(r) else {
                let next = self.states.of(r);
                if all_false {
                    miss = Some(next);
                }
                self.entries.push(TableEntry { state, spec: region.spec(), next });
                continue;
            };
            // Back up to the parent's exclusions, then add this branch's.
            excluded.truncate(depth);
            if let Some(v) = exclude {
                excluded.push(v);
            }
            let n = self.bdd.node(id);
            let p = self.bdd.pred(n.var);
            for (child, taken) in [(n.lo, false), (n.hi, true)] {
                if let Some((region, exclude)) = region.step(p, taken, excluded)? {
                    let all_false = all_false && !taken;
                    let depth = excluded.depth();
                    stack.push(ExactStep { r: child, region, all_false, exclude, depth });
                }
            }
        }
        Ok(miss)
    }
}

/// The values an exact walk's current path excludes: in path order,
/// and as a set per type, so integer keys hash and compare inline. The
/// sets are on [`WordHasher`], randomly seeded: the values are filter
/// constants, which subscribers choose.
#[derive(Default)]
struct Exclusions<'a> {
    path: Vec<&'a Value>,
    ints: HashSet<i64, BuildHasherDefault<WordHasher>>,
    strs: HashSet<&'a str, BuildHasherDefault<WordHasher>>,
}

impl<'a> Exclusions<'a> {
    fn depth(&self) -> usize {
        self.path.len()
    }

    /// Exclude a value not excluded yet.
    fn push(&mut self, v: &'a Value) {
        match v {
            Value::Int(i) => self.ints.insert(*i),
            Value::Str(s) => self.strs.insert(s),
        };
        self.path.push(v);
    }

    /// Keep the first `depth` exclusions of the path.
    fn truncate(&mut self, depth: usize) {
        for v in self.path.drain(depth..) {
            match v {
                Value::Int(i) => self.ints.remove(i),
                Value::Str(s) => self.strs.remove(s.as_str()),
            };
        }
    }

    fn contains(&self, v: &Value) -> bool {
        match v {
            Value::Int(i) => self.ints.contains(i),
            Value::Str(s) => self.strs.contains(s.as_str()),
        }
    }
}

/// The value constraint of an exact-match path.
#[derive(Debug, Clone, Copy)]
enum ExactRegion<'a> {
    Free,
    Point(&'a Value),
    /// Every value of this type outside the walk's exclusion set.
    Cofinite(Type),
}

/// A node the exact walk will enter: its path's region, whether the
/// path took only false branches, the value the branch excludes anew,
/// and how many exclusions the path had above it.
struct ExactStep<'a> {
    r: NodeRef,
    region: ExactRegion<'a>,
    all_false: bool,
    exclude: Option<&'a Value>,
    depth: usize,
}

impl<'a> ExactRegion<'a> {
    /// The region of the branch where `p` is `taken`, and the value it
    /// excludes anew; `None` when the branch is unsatisfiable, `Err`
    /// on a constant of the other type.
    fn step(
        self,
        p: &'a Predicate,
        taken: bool,
        excluded: &Exclusions<'a>,
    ) -> Result<Option<(ExactRegion<'a>, Option<&'a Value>)>, ()> {
        debug_assert!(matches!(p.rel, Rel::Eq | Rel::Ne), "exact stages test only ==/!=");
        let c = &p.constant;
        let pin = (p.rel == Rel::Eq) == taken;
        Ok(match self {
            ExactRegion::Free if pin => Some((ExactRegion::Point(c), None)),
            ExactRegion::Free => Some((ExactRegion::Cofinite(c.ty()), Some(c))),
            ExactRegion::Point(v) if v.ty() != c.ty() => return Err(()),
            ExactRegion::Point(v) => ((v == c) == pin).then_some((self, None)),
            ExactRegion::Cofinite(ty) if ty != c.ty() => return Err(()),
            ExactRegion::Cofinite(_) if excluded.contains(c) => (!pin).then_some((self, None)),
            ExactRegion::Cofinite(_) if pin => Some((ExactRegion::Point(c), None)),
            ExactRegion::Cofinite(_) => Some((self, Some(c))),
        })
    }

    /// The entry of a path ending in this region: a pinned point is an
    /// exact entry; the rest is the wildcard, shadowed by the exact
    /// entries of the excluded points.
    fn spec(self) -> MatchSpec {
        match self {
            ExactRegion::Point(Value::Int(i)) => MatchSpec::IntExact(*i),
            ExactRegion::Point(Value::Str(s)) => MatchSpec::StrExact(s.clone()),
            ExactRegion::Free | ExactRegion::Cofinite(_) => MatchSpec::Any,
        }
    }
}

/// Fold one tested predicate into a stage's match kind (§V-E: exact
/// matches go to SRAM whenever possible; any integer range predicate
/// makes the stage a range table, any string prefix a ternary one).
fn widen_kind(kind: MatchKind, p: &Predicate) -> MatchKind {
    match (&p.constant, p.rel) {
        (_, Rel::Eq | Rel::Ne) => kind,
        (Value::Int(_), _) => MatchKind::Range,
        (Value::Str(_), _) if kind == MatchKind::Exact => MatchKind::Ternary,
        (Value::Str(_), _) => kind,
    }
}

/// Emit the table entries for one range or ternary path: an integer
/// region's intervals (a single point as an exact entry), a string
/// region's pinned value or prefix, and the wildcard for the rest.
fn emit_entries(entries: &mut Vec<TableEntry>, state: StateId, region: &Region, next: StateId) {
    let mut push = |spec| entries.push(TableEntry { state, spec, next });
    match region {
        Region::Int(set) if !set.is_full() => {
            for &(lo, hi) in set.intervals() {
                push(if lo == hi { MatchSpec::IntExact(lo) } else { MatchSpec::IntRange(lo, hi) });
            }
        }
        Region::Str(set) => {
            if let Some(e) = set.exact() {
                push(MatchSpec::StrExact(e.to_string()));
            } else if let Some(p) = set.required_prefix() {
                push(MatchSpec::StrPrefix(p.to_string()));
            } else {
                // Purely negative region: wildcard shadowed by the
                // positive entries of sibling paths.
                push(MatchSpec::Any);
            }
        }
        Region::Unconstrained | Region::Int(_) => push(MatchSpec::Any),
    }
}

#[cfg(test)]
mod reference {
    use super::*;

    /// The clone-per-edge walk that `super::bdd_to_pipeline` replaced:
    /// every node copies its path's region into both children, and
    /// states live in hash maps. The differential tests hold the
    /// linear walk to it.
    pub(super) fn bdd_to_pipeline(
        bdd: &Bdd,
        mcast: &mut MulticastAllocator,
    ) -> Result<Pipeline, TableError> {
        // ---- state assignment --------------------------------------------------
        // The root is state 0 (§V-D). Every terminal and every In node of a
        // component gets a state.
        let mut states: HashMap<NodeRef, StateId> = HashMap::new();
        let mut next_state: StateId = 0;
        let assign = |r: NodeRef, states: &mut HashMap<NodeRef, StateId>, next: &mut StateId| {
            states.entry(r).or_insert_with(|| {
                let s = *next;
                *next += 1;
                s
            });
        };
        let root = bdd.root();
        assign(root, &mut states, &mut next_state);
        debug_assert_eq!(states[&root], STATE_INIT);

        let reachable = bdd.reachable_nodes();
        let group = |id: u32| bdd.group_of(bdd.node(id).var);

        // In nodes per component: the root (if internal) plus targets of
        // cross-component edges. Terminals always get states. A membership
        // set sidesteps the quadratic `Vec::contains` scan on components
        // with many In nodes (wide exact-match bands).
        let mut in_nodes: HashMap<u32, Vec<u32>> = HashMap::new(); // group -> node ids
        let mut in_seen: HashSet<u32> = HashSet::new();
        if let NodeRef::Node(rid) = root {
            in_nodes.entry(group(rid)).or_default().push(rid);
            in_seen.insert(rid);
        }
        // A stage's match kind follows the predicates the diagram still
        // tests, not the alphabet: a predicate whose every node was reduced
        // away must not widen the table, or a diagram emitted in place and
        // its compacted snapshot would disagree.
        let mut kinds = vec![MatchKind::Exact; bdd.field_groups().len()];
        for &nid in &reachable {
            let n = bdd.node(nid);
            let kind = &mut kinds[group(nid) as usize];
            *kind = widen_kind(*kind, bdd.pred(n.var));
            for child in [n.lo, n.hi] {
                match child {
                    NodeRef::Node(c) if group(c) != group(nid) => {
                        assign(child, &mut states, &mut next_state);
                        if in_seen.insert(c) {
                            in_nodes.entry(group(c)).or_default().push(c);
                        }
                    }
                    NodeRef::Term(_) => {
                        assign(child, &mut states, &mut next_state);
                    }
                    _ => {}
                }
            }
        }

        // ---- per-component tables ---------------------------------------------
        // Stages must execute in *band level* order (a state transition can
        // only jump forward in the pipeline). Group ids are append-only and
        // not necessarily level-ordered once incremental maintenance has
        // spliced a new field group into the variable order, so sort by the
        // groups' level ranges.
        let mut group_order: Vec<usize> = (0..bdd.field_groups().len()).collect();
        group_order.sort_unstable_by_key(|&g| bdd.field_groups()[g].1.start);
        let mut stages = Vec::new();
        for gid in group_order {
            let (operand, _) = &bdd.field_groups()[gid];
            let Some(ins) = in_nodes.get(&(gid as u32)) else {
                continue; // no reachable node tests this field
            };
            let kind = kinds[gid];
            let mut entries = Vec::new();
            for &u in ins {
                let ustate = states[&NodeRef::Node(u)];
                let first = entries.len();
                let mut miss = None;
                // DFS within the component, accumulating the region.
                let mut stack: Vec<(NodeRef, Region, bool)> =
                    vec![(NodeRef::Node(u), Region::Unconstrained, true)];
                while let Some((r, region, all_false)) = stack.pop() {
                    let exit = match r {
                        NodeRef::Node(id) if group(id) == gid as u32 => {
                            let n = bdd.node(id);
                            let p = bdd.pred(n.var);
                            for (child, taken) in [(n.lo, false), (n.hi, true)] {
                                let mut reg = region.clone();
                                if reg.apply(p.rel, &p.constant, taken).is_err() {
                                    return Err(TableError::MixedTypes(operand.key()));
                                }
                                if !reg.is_empty() {
                                    stack.push((child, reg, all_false && !taken));
                                }
                            }
                            continue;
                        }
                        other => other,
                    };
                    // `exit` leaves the component: emit entries.
                    let vstate = states[&exit];
                    if all_false {
                        miss = Some(vstate);
                    }
                    emit_entries(&mut entries, ustate, &region, vstate, kind);
                }
                // Miss transition: the exit of the all-false path is where a
                // packet lacking the attribute must go. A state whose paths
                // emitted no `Any` gets one as an explicit lowest-priority
                // entry — for attribute-carrying packets the region entries
                // match first (they tile the domain), so the extra wildcard
                // is only reachable on a genuine miss. Its `(state, priority)`
                // is unique, so the table's sort places it the same wherever
                // it is pushed.
                let has_any = entries[first..].iter().any(|e| matches!(e.spec, MatchSpec::Any));
                if let (Some(next), false) = (miss, has_any) {
                    entries.push(TableEntry { state: ustate, spec: MatchSpec::Any, next });
                }
            }
            stages.push(StageTable::new(operand.clone(), kind, entries));
        }

        // ---- leaf table ----------------------------------------------------------
        // Terminals are processed in state order so that multicast group ids
        // are allocated deterministically: recompiling the same rule list
        // must yield a bit-identical pipeline (incremental recompilation
        // compares reused pipelines against fresh ones).
        let mut terminals: Vec<(NodeRef, StateId)> = states
            .iter()
            .map(|(r, &s)| (*r, s))
            .filter(|(r, _)| matches!(r, NodeRef::Term(_)))
            .collect();
        terminals.sort_by_key(|&(_, s)| s);
        let mut actions: HashMap<StateId, (Action, Option<u32>)> = HashMap::new();
        for (r, state) in terminals {
            if let NodeRef::Term(t) = &r {
                let set = bdd.terminal(*t);
                if set.is_empty() {
                    actions.insert(state, (Action::Drop, None));
                    continue;
                }
                let merged = set
                    .iter()
                    .map(|&rid| bdd.label(rid).clone())
                    .reduce(|a, b| a.merge(&b))
                    .expect("non-empty terminal");
                let mgid = match merged.ports() {
                    Some(ports) if ports.len() > 1 => match mcast.alloc(ports) {
                        Some(g) => Some(g),
                        None => {
                            return Err(TableError::MulticastExhausted {
                                needed: mcast.group_count() + 1,
                                limit: mcast.limit(),
                            })
                        }
                    },
                    _ => None,
                };
                actions.insert(state, (merged, mgid));
            }
        }

        Ok(Pipeline {
            stages,
            leaf: LeafTable { actions, default: Action::Drop },
            initial: STATE_INIT,
        })
    }

    /// The entries of one region, exact stages included.
    fn emit_entries(
        entries: &mut Vec<TableEntry>,
        state: StateId,
        region: &Region,
        next: StateId,
        kind: MatchKind,
    ) {
        match region {
            Region::Unconstrained => {
                entries.push(TableEntry { state, spec: MatchSpec::Any, next });
            }
            Region::Int(set) => {
                if set.is_full() {
                    entries.push(TableEntry { state, spec: MatchSpec::Any, next });
                    return;
                }
                match kind {
                    MatchKind::Exact => {
                        // Finite point sets become exact entries; co-finite
                        // sets become the wildcard (their excluded points
                        // are matched first by the exact entries).
                        let finite =
                            set.len() <= 64 && set.intervals().iter().all(|&(lo, hi)| lo == hi);
                        if finite {
                            for &(lo, _) in set.intervals() {
                                entries.push(TableEntry {
                                    state,
                                    spec: MatchSpec::IntExact(lo),
                                    next,
                                });
                            }
                        } else {
                            entries.push(TableEntry { state, spec: MatchSpec::Any, next });
                        }
                    }
                    _ => {
                        for &(lo, hi) in set.intervals() {
                            let spec = if lo == hi {
                                MatchSpec::IntExact(lo)
                            } else {
                                MatchSpec::IntRange(lo, hi)
                            };
                            entries.push(TableEntry { state, spec, next });
                        }
                    }
                }
            }
            Region::Str(set) => {
                if let Some(e) = set.exact() {
                    entries.push(TableEntry {
                        state,
                        spec: MatchSpec::StrExact(e.to_string()),
                        next,
                    });
                } else if let Some(p) = set.required_prefix() {
                    entries.push(TableEntry {
                        state,
                        spec: MatchSpec::StrPrefix(p.to_string()),
                        next,
                    });
                } else {
                    // Purely negative region: wildcard shadowed by the
                    // positive entries of sibling paths.
                    entries.push(TableEntry { state, spec: MatchSpec::Any, next });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_bdd::{rule_digest, BddBuilder};
    use camus_lang::parser::parse_rules;

    fn compile(src: &str) -> (Pipeline, Vec<Rule>) {
        let rules = parse_rules(src).unwrap();
        let bdd = BddBuilder::from_rules(&rules).build();
        let mut mcast = MulticastAllocator::new(1024);
        let p = bdd_to_pipeline(&bdd, &mut mcast).unwrap();
        (p, rules)
    }

    #[test]
    fn figure5_tables_have_three_stages() {
        // Fig. 5/6: shares, stock, leaf.
        let (p, _) = compile(
            "shares == 1 and stock == GOOGL: fwd(1)\n\
             stock == GOOGL: fwd(2)\n\
             shares > 5 and stock == FB: fwd(3)\n",
        );
        assert_eq!(p.stages.len(), 2);
        assert!(p.leaf.entry_count() >= 3);
    }

    #[test]
    fn figure5_pipeline_merges_overlapping_actions() {
        let (p, _) = compile(
            "shares == 1 and stock == GOOGL: fwd(1)\n\
             stock == GOOGL: fwd(2)\n\
             shares > 5 and stock == FB: fwd(3)\n",
        );
        // shares=1, stock=GOOGL: rules 1 and 2 -> fwd(1,2).
        let act = p.evaluate(|op| match op.field_name() {
            "shares" => Some(Value::Int(1)),
            "stock" => Some(Value::from("GOOGL")),
            _ => None,
        });
        assert_eq!(act, Action::Forward(vec![1, 2]));
        // shares=9, stock=FB -> fwd(3).
        let act = p.evaluate(|op| match op.field_name() {
            "shares" => Some(Value::Int(9)),
            "stock" => Some(Value::from("FB")),
            _ => None,
        });
        assert_eq!(act, Action::Forward(vec![3]));
        // No interest -> drop.
        let act = p.evaluate(|op| match op.field_name() {
            "shares" => Some(Value::Int(2)),
            "stock" => Some(Value::from("MSFT")),
            _ => None,
        });
        assert_eq!(act, Action::Drop);
    }

    #[test]
    fn exact_only_field_uses_sram() {
        let (p, _) = compile("stock == A: fwd(1)\nstock == B: fwd(2)\n");
        assert_eq!(p.stages.len(), 1);
        assert_eq!(p.stages[0].kind, MatchKind::Exact);
    }

    #[test]
    fn range_field_uses_tcam() {
        let (p, _) = compile("price > 50: fwd(1)\n");
        assert_eq!(p.stages[0].kind, MatchKind::Range);
    }

    #[test]
    fn prefix_field_uses_ternary() {
        let (p, _) = compile("name =^ ab: fwd(1)\n");
        assert_eq!(p.stages[0].kind, MatchKind::Ternary);
        let act = p.evaluate(|_| Some(Value::from("abc")));
        assert_eq!(act, Action::Forward(vec![1]));
        let act = p.evaluate(|_| Some(Value::from("xyz")));
        assert_eq!(act, Action::Drop);
    }

    #[test]
    fn int_exact_lowering_for_equalities() {
        // All predicates are equalities -> exact table, point entries.
        let (p, _) = compile("id == 5: fwd(1)\nid == 9: fwd(2)\n");
        assert_eq!(p.stages[0].kind, MatchKind::Exact);
        assert!(p.stages[0].entries.iter().any(|e| matches!(e.spec, MatchSpec::IntExact(5))));
        let act = p.evaluate(|_| Some(Value::Int(9)));
        assert_eq!(act, Action::Forward(vec![2]));
        let act = p.evaluate(|_| Some(Value::Int(7)));
        assert_eq!(act, Action::Drop);
    }

    #[test]
    fn missing_attribute_takes_all_false_path() {
        // `a > 5 or b > 5` with only b present must still match.
        let (p, _) = compile("a > 5 or b > 5: fwd(1)\n");
        let act = p.evaluate(|op| (op.field_name() == "b").then_some(Value::Int(10)));
        assert_eq!(act, Action::Forward(vec![1]));
        let act = p.evaluate(|op| (op.field_name() == "b").then_some(Value::Int(1)));
        assert_eq!(act, Action::Drop);
        let act = p.evaluate(|_| None);
        assert_eq!(act, Action::Drop);
    }

    #[test]
    fn negated_rules_compile() {
        let (p, _) = compile("not (stock == GOOGL) and price > 10: fwd(4)\n");
        let act = p.evaluate(|op| match op.field_name() {
            "stock" => Some(Value::from("MSFT")),
            "price" => Some(Value::Int(20)),
            _ => None,
        });
        assert_eq!(act, Action::Forward(vec![4]));
        let act = p.evaluate(|op| match op.field_name() {
            "stock" => Some(Value::from("GOOGL")),
            "price" => Some(Value::Int(20)),
            _ => None,
        });
        assert_eq!(act, Action::Drop);
    }

    #[test]
    fn multicast_groups_allocated_for_overlaps() {
        let rules = parse_rules("price > 0: fwd(1)\nprice > 0: fwd(2)\n").unwrap();
        let bdd = BddBuilder::from_rules(&rules).build();
        let mut mcast = MulticastAllocator::new(8);
        let p = bdd_to_pipeline(&bdd, &mut mcast).unwrap();
        assert_eq!(mcast.group_count(), 1);
        let act = p.evaluate(|_| Some(Value::Int(5)));
        assert_eq!(act, Action::Forward(vec![1, 2]));
    }

    #[test]
    fn multicast_exhaustion_is_reported() {
        // Three distinct overlapping port sets but only 2 group slots.
        let rules = parse_rules(
            "a > 0: fwd(1)\na > 0: fwd(2)\n\
             b > 0: fwd(3)\nb > 0: fwd(4)\n\
             c > 0: fwd(5)\nc > 0: fwd(6)\n",
        )
        .unwrap();
        let bdd = BddBuilder::from_rules(&rules).build();
        let mut mcast = MulticastAllocator::new(2);
        // Overlaps: {1,2},{3,4},{5,6} plus combined regions -> >2 groups.
        let err = bdd_to_pipeline(&bdd, &mut mcast).unwrap_err();
        assert!(matches!(err, TableError::MulticastExhausted { .. }));
    }

    #[test]
    fn empty_rule_set_drops_everything() {
        let (p, _) = compile("");
        assert_eq!(p.stages.len(), 0);
        assert_eq!(p.evaluate(|_| Some(Value::Int(1))), Action::Drop);
    }

    #[test]
    fn true_rule_forwards_everything() {
        let (p, _) = compile("true: fwd(3)\n");
        assert_eq!(p.evaluate(|_| None), Action::Forward(vec![3]));
    }

    /// Pipeline evaluation must agree with BDD evaluation (and hence
    /// with direct rule evaluation) on random workloads.
    #[test]
    fn pipeline_matches_bdd_randomised() {
        use camus_lang::ast::Operand;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1234);
        let symbols = ["AAPL", "GOOGL", "MSFT", "FB", "AMZN"];
        for trial in 0..30 {
            let n_rules = rng.gen_range(1..15);
            let mut src = String::new();
            for i in 0..n_rules {
                let mut parts = Vec::new();
                if rng.gen_bool(0.6) {
                    let sym = symbols[rng.gen_range(0..symbols.len())];
                    let op = ["==", "!=", "=^"][rng.gen_range(0..3)];
                    let sym = if op == "=^" { &sym[..2] } else { sym };
                    parts.push(format!("stock {op} {sym}"));
                }
                if rng.gen_bool(0.7) {
                    let rel = ["<", "<=", ">", ">=", "==", "!="][rng.gen_range(0..6)];
                    parts.push(format!("price {rel} {}", rng.gen_range(0..15)));
                }
                if rng.gen_bool(0.3) {
                    parts.push(format!("shares > {}", rng.gen_range(0..5)));
                }
                if parts.is_empty() {
                    parts.push("true".into());
                }
                src.push_str(&format!("{}: fwd({})\n", parts.join(" and "), (i % 20) + 1));
            }
            let rules = parse_rules(&src).unwrap();
            let bdd = BddBuilder::from_rules(&rules).build();
            let mut mcast = MulticastAllocator::new(4096);
            let p = bdd_to_pipeline(&bdd, &mut mcast).unwrap();
            for _ in 0..150 {
                let stock = Value::from(symbols[rng.gen_range(0..symbols.len())]);
                let price = Value::Int(rng.gen_range(-2i64..17));
                let shares = Value::Int(rng.gen_range(-1i64..7));
                let lookup = |op: &Operand| match op.key().as_str() {
                    "stock" => Some(stock.clone()),
                    "price" => Some(price.clone()),
                    "shares" => Some(shares.clone()),
                    _ => None,
                };
                let want: Vec<u16> = {
                    let set = bdd.eval(lookup);
                    let mut ports: Vec<u16> = set
                        .iter()
                        .flat_map(|&r| rules[r as usize].action.ports().unwrap().to_vec())
                        .collect();
                    ports.sort_unstable();
                    ports.dedup();
                    ports
                };
                let got = p.evaluate(lookup);
                let got_ports = got.ports().map(|p| p.to_vec()).unwrap_or_default();
                assert_eq!(
                    got_ports, want,
                    "trial {trial}: stock={stock} price={price} shares={shares}\nsrc:\n{src}\npipeline:\n{p}"
                );
            }
        }
    }

    /// Rules over an int band (`id`), a string band (`sym`) and a
    /// range field (`price`). Each band is exact-only in about half
    /// the draws (`==`/`!=`), so both walks are exercised.
    fn random_rules(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Rule> {
        use rand::Rng;
        let syms = ["AAPL", "AMZN", "FB", "GOOGL", "MSFT", "AB", "S1", "S2"];
        let exact_id = rng.gen_bool(0.5);
        let exact_sym = rng.gen_bool(0.5);
        let mut src = String::new();
        for i in 0..n {
            let mut parts = Vec::new();
            if rng.gen_bool(0.7) {
                let rels: &[&str] = if exact_id {
                    &["==", "==", "!="]
                } else {
                    &["==", "!=", "<", ">", "<=", ">="]
                };
                let rel = rels[rng.gen_range(0..rels.len())];
                parts.push(format!("id {rel} {}", 2 * rng.gen_range(0..40)));
            }
            if rng.gen_bool(0.5) {
                let rels: &[&str] =
                    if exact_sym { &["==", "==", "!="] } else { &["==", "!=", "=^"] };
                let rel = rels[rng.gen_range(0..rels.len())];
                let sym = syms[rng.gen_range(0..syms.len())];
                let sym = if rel == "=^" { &sym[..1] } else { sym };
                parts.push(format!("sym {rel} {sym}"));
            }
            if rng.gen_bool(0.3) {
                parts.push(format!("price > {}", rng.gen_range(0..10)));
            }
            if parts.is_empty() {
                parts.push("true".into());
            }
            let joiner = if rng.gen_bool(0.15) { " or " } else { " and " };
            src.push_str(&format!("{}: fwd({})\n", parts.join(joiner), i % 6 + 1));
        }
        parse_rules(&src).unwrap()
    }

    /// The linear walk against the clone-per-edge reference: the same
    /// pipeline and the same multicast groups, or the same error.
    fn assert_matches_reference(bdd: &Bdd, what: &str) {
        let mut fast_groups = MulticastAllocator::new(64);
        let mut ref_groups = MulticastAllocator::new(64);
        let fast = bdd_to_pipeline(bdd, &mut fast_groups);
        let want = reference::bdd_to_pipeline(bdd, &mut ref_groups);
        assert_eq!(fast, want, "{what}");
        assert_eq!(fast_groups, ref_groups, "{what}");
    }

    #[test]
    fn linear_walk_equals_the_reference() {
        use camus_bdd::{IncrementalBdd, VarOrder};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(37);
        for trial in 0..40 {
            let n = rng.gen_range(1..60);
            let rules = random_rules(&mut rng, n);
            assert_matches_reference(&BddBuilder::from_rules(&rules).build(), "scratch build");
            // A churned live diagram (garbage, dead predicates and
            // spliced groups included) and its snapshot.
            let order = VarOrder::empty();
            let mut inc = IncrementalBdd::from_rules(&rules, &order);
            let mut live = rules.clone();
            for op in 0..40 {
                if live.is_empty() || rng.gen_bool(0.6) {
                    let extra = random_rules(&mut rng, 1).pop().unwrap();
                    inc.insert_rule(&extra);
                    live.push(extra);
                } else {
                    let gone = live.swap_remove(rng.gen_range(0..live.len()));
                    assert!(inc.remove_by_digest(rule_digest(&gone)));
                }
                if op % 10 == 9 {
                    let what = format!("trial {trial} op {op}");
                    assert_matches_reference(inc.bdd(), &format!("{what}: live"));
                    assert_matches_reference(&inc.snapshot(), &format!("{what}: snapshot"));
                }
            }
        }
    }

    #[test]
    fn wide_exact_bands_equal_the_reference() {
        // The lo-spine shape the exclusion set exists for: a long band
        // of `==` with `!=` members and a second band below it.
        let mut src = String::new();
        for i in 0..80 {
            src.push_str(&format!("id == {}: fwd({})\n", 2 * i, i % 4 + 1));
            src.push_str(&format!("sym == S{i} and id != {}: fwd(5)\n", 2 * i));
        }
        src.push_str("sym != S7: fwd(6)\nid != 11: fwd(7)\n");
        let rules = parse_rules(&src).unwrap();
        assert_matches_reference(&BddBuilder::from_rules(&rules).build(), "wide bands");
    }

    #[test]
    fn mixed_types_are_an_error() {
        for src in [
            "x == 1: fwd(1)\nx == abc: fwd(2)\n",
            "x != 1: fwd(1)\nx == abc: fwd(2)\n",
            "x > 1: fwd(1)\nx == abc: fwd(2)\n",
        ] {
            let bdd = BddBuilder::from_rules(&parse_rules(src).unwrap()).build();
            let got = bdd_to_pipeline(&bdd, &mut MulticastAllocator::new(8));
            assert_eq!(got, Err(TableError::MixedTypes("x".into())), "{src}");
            assert_matches_reference(&bdd, src);
        }
        // A conjunction of both types is unsatisfiable: it compiles to
        // the drop-everything leaf.
        let (p, _) = compile("x == abc and x == 3: fwd(1)\n");
        assert_eq!(p.total_entries(), 1);
    }

    #[test]
    fn snapshot_is_a_compact_copy_that_emits_the_live_pipeline() {
        use camus_bdd::{IncrementalBdd, VarOrder};
        use camus_lang::ast::Operand;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(200);
        let mut live = random_rules(&mut rng, 40);
        let mut inc = IncrementalBdd::from_rules(&live, &VarOrder::empty());
        for _ in 0..200 {
            if live.is_empty() || rng.gen_bool(0.55) {
                let extra = random_rules(&mut rng, 1).pop().unwrap();
                inc.insert_rule(&extra);
                live.push(extra);
            } else {
                let gone = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(inc.remove_by_digest(rule_digest(&gone)));
            }
        }
        let snap = inc.snapshot();
        // Only reachable nodes, and only predicates some node tests.
        assert_eq!(snap.allocated_nodes(), snap.node_count());
        let mut used = vec![false; snap.preds().len()];
        for id in snap.reachable_nodes() {
            used[snap.node(id).var.0 as usize] = true;
        }
        assert!(used.iter().all(|&u| u), "a snapshot keeps no dead predicate");
        // It evaluates like the live diagram ...
        let syms = ["AAPL", "AMZN", "FB", "GOOGL", "MSFT", "AB", "S1", "S2", "Z"];
        for _ in 0..500 {
            // Each attribute is absent one time in eight.
            let id = rng.gen_bool(0.875).then(|| Value::Int(rng.gen_range(-1..82)));
            let sym = rng.gen_bool(0.875).then(|| Value::from(syms[rng.gen_range(0..syms.len())]));
            let price = rng.gen_bool(0.875).then(|| Value::Int(rng.gen_range(-1..11)));
            let lookup = |op: &Operand| match op.key().as_str() {
                "id" => id.clone(),
                "sym" => sym.clone(),
                "price" => price.clone(),
                _ => None,
            };
            assert_eq!(snap.eval(lookup), inc.bdd().eval(lookup));
        }
        // ... and emits the same pipeline.
        let mut m = MulticastAllocator::new(64);
        assert_eq!(
            bdd_to_pipeline(&snap, &mut m),
            bdd_to_pipeline(inc.bdd(), &mut MulticastAllocator::new(64))
        );
    }
}
