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
use camus_bdd::{Bdd, NodeRef};
#[cfg(test)]
use camus_lang::ast::Rule;
use camus_lang::ast::{Action, Predicate, Rel};
use camus_lang::sets::{IntSet, StrSet};
use camus_lang::value::Value;
use std::collections::{HashMap, HashSet};

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

    Ok(Pipeline { stages, leaf: LeafTable { actions, default: Action::Drop }, initial: STATE_INIT })
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

/// Emit the table entries for one region (one component path).
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
                            entries.push(TableEntry { state, spec: MatchSpec::IntExact(lo), next });
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
                entries.push(TableEntry { state, spec: MatchSpec::StrExact(e.to_string()), next });
            } else if let Some(p) = set.required_prefix() {
                entries.push(TableEntry { state, spec: MatchSpec::StrPrefix(p.to_string()), next });
            } else {
                // Purely negative region: wildcard shadowed by the
                // positive entries of sibling paths.
                entries.push(TableEntry { state, spec: MatchSpec::Any, next });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_bdd::BddBuilder;
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
        assert_eq!(p.depth(), 2);
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
        assert_eq!(p.depth(), 0);
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
}
