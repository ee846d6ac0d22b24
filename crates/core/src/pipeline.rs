//! The pipeline intermediate representation (IR).
//!
//! This is the artifact the paper's compiler emits as "(i) a P4 control
//! block that specifies the control-flow and match-action tables in the
//! pipeline, and (ii) a set of control-plane rules to populate the
//! tables" (§III). One [`StageTable`] per field, in BDD variable order,
//! plus a final leaf stage mapping terminal states to actions (Fig. 6).
//!
//! Evaluation threads a *state* (the BDD macro-state, stored in packet
//! metadata on real hardware) through the stages: each stage looks up
//! `(state, field value)` and transitions; a lookup miss leaves the
//! state unchanged (the state belongs to a later component, §V-D).

use camus_bdd::digest::WordHasher;
use camus_lang::ast::{Action, Operand};
use camus_lang::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;

/// A pipeline state: an In-node of some BDD component, or a terminal.
pub(crate) type StateId = u32;

/// The initial state (the BDD root). Always 0 (§V-D: "the initial state
/// is set to 0").
pub const STATE_INIT: StateId = 0;

/// How a stage's value key is matched, deciding its memory type (§V-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchKind {
    /// SRAM exact match (plus a fallback wildcard entry).
    Exact,
    /// TCAM range match.
    Range,
    /// TCAM ternary match (string prefixes are masked matches).
    Ternary,
}

/// The value half of a table key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchSpec {
    /// Match when `lo <= value <= hi`.
    IntRange(i64, i64),
    /// Match when `value == v` (SRAM-friendly).
    IntExact(i64),
    /// Match when the string equals `s`.
    StrExact(String),
    /// Match when the string starts with `s` (masked/ternary).
    StrPrefix(String),
    /// Match any value (state-only transition).
    Any,
}

impl MatchSpec {
    /// Does a concrete attribute value satisfy this spec?
    pub(crate) fn matches(&self, v: &Value) -> bool {
        match (self, v) {
            (MatchSpec::Any, _) => true,
            (MatchSpec::IntRange(lo, hi), Value::Int(x)) => lo <= x && x <= hi,
            (MatchSpec::IntExact(c), Value::Int(x)) => c == x,
            (MatchSpec::StrExact(s), Value::Str(x)) => s == x,
            (MatchSpec::StrPrefix(p), Value::Str(x)) => x.starts_with(p),
            _ => false,
        }
    }

    /// Priority class: exact beats prefix beats range beats wildcard;
    /// longer prefixes beat shorter ones. Entries produced from one In
    /// node partition the domain except for these specificity overlaps,
    /// so this ordering makes lookup deterministic and correct.
    pub(crate) fn priority(&self) -> u32 {
        match self {
            MatchSpec::IntExact(_) | MatchSpec::StrExact(_) => 3_000_000,
            MatchSpec::StrPrefix(p) => 1_000_000 + p.len() as u32,
            MatchSpec::IntRange(_, _) => 500_000,
            MatchSpec::Any => 0,
        }
    }
}

impl fmt::Display for MatchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchSpec::IntRange(lo, hi) => {
                if *lo == i64::MIN && *hi == i64::MAX {
                    write!(f, "*")
                } else if *lo == i64::MIN {
                    write!(f, "<= {hi}")
                } else if *hi == i64::MAX {
                    write!(f, ">= {lo}")
                } else {
                    write!(f, "[{lo}, {hi}]")
                }
            }
            MatchSpec::IntExact(v) => write!(f, "== {v}"),
            MatchSpec::StrExact(s) => write!(f, "== \"{s}\""),
            MatchSpec::StrPrefix(p) => write!(f, "=^ \"{p}\""),
            MatchSpec::Any => write!(f, "*"),
        }
    }
}

/// One control-plane entry: `(state, value-spec) → next state`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableEntry {
    pub state: StateId,
    pub spec: MatchSpec,
    pub next: StateId,
}

/// One match-action stage: the transition table of a field component.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTable {
    /// The field (or aggregate) this stage matches on.
    pub operand: Operand,
    pub kind: MatchKind,
    /// Entries sorted per state by descending priority at build time.
    pub entries: Vec<TableEntry>,
    /// Lookup index: state → the range of `entries` it owns (sorting
    /// makes a state's entries adjacent, in priority order).
    #[serde(skip)]
    index: HashMap<StateId, (usize, usize), BuildHasherDefault<WordHasher>>,
}

impl StageTable {
    pub fn new(operand: Operand, kind: MatchKind, entries: Vec<TableEntry>) -> Self {
        let mut table = StageTable { operand, kind, entries, index: HashMap::default() };
        table.reindex();
        table
    }

    /// Re-sort entries into canonical priority order and rebuild the
    /// lookup index. Needed after deserialisation and after any direct
    /// mutation of the public `entries` field: lookup scans each
    /// state's entries in index order, so an unsorted table would
    /// silently resolve specificity overlaps (exact vs. prefix vs.
    /// range vs. Any) in the wrong direction.
    pub(crate) fn reindex(&mut self) {
        self.entries
            .sort_by(|a, b| a.state.cmp(&b.state).then(b.spec.priority().cmp(&a.spec.priority())));
        self.index.clear();
        for (i, e) in self.entries.iter().enumerate() {
            self.index.entry(e.state).or_insert((i, i)).1 = i + 1;
        }
    }

    /// Look up the transition for `(state, value)`. `None` is a miss:
    /// the state passes through unchanged.
    pub(crate) fn lookup(&self, state: StateId, value: Option<&Value>) -> Option<StateId> {
        let &(start, end) = self.index.get(&state)?;
        for e in &self.entries[start..end] {
            let hit = match value {
                Some(v) => e.spec.matches(v),
                // A packet without the attribute can only take Any
                // entries (every predicate on a missing field is false,
                // which in the BDD is the all-false path; Algorithm 2
                // emits that path's region, which contains every value
                // only when it is the unconstrained Any/full region).
                None => matches!(e.spec, MatchSpec::Any),
            };
            if hit {
                return Some(e.next);
            }
        }
        None
    }

    pub(crate) fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Distinct states this stage has entries for.
    pub(crate) fn state_count(&self) -> usize {
        self.index.len()
    }
}

/// The final stage: terminal state → forwarding action (Fig. 6's Leaf
/// table). Multicast forwards carry their allocated group id.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeafTable {
    /// `state → (action, multicast group)`; group is `None` for unicast
    /// and non-forward actions.
    pub actions: HashMap<StateId, (Action, Option<u32>)>,
    /// Action applied when the final state has no entry (can only be a
    /// non-terminal state on malformed input): drop.
    pub default: Action,
}

impl LeafTable {
    pub(crate) fn lookup(&self, state: StateId) -> &Action {
        self.actions.get(&state).map_or(&self.default, |(a, _)| a)
    }

    pub(crate) fn entry_count(&self) -> usize {
        self.actions.len()
    }
}

/// A complete compiled pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pipeline {
    pub stages: Vec<StageTable>,
    pub leaf: LeafTable,
    /// The initial metadata state.
    pub initial: StateId,
}

impl Pipeline {
    /// The empty pipeline: no stages, drop everything. The state a
    /// switch boots with before its first install.
    pub fn empty() -> Pipeline {
        Pipeline {
            stages: Vec::new(),
            leaf: LeafTable { actions: HashMap::new(), default: Action::Drop },
            initial: STATE_INIT,
        }
    }

    /// Distinct multicast groups referenced by the leaf table — the
    /// group count a switch must provision when it only has the
    /// pipeline (the compiler's [`crate::resources::ResourceReport`]
    /// carries the allocator's own count, which matches).
    pub fn multicast_group_count(&self) -> usize {
        let groups: std::collections::HashSet<u32> =
            self.leaf.actions.values().filter_map(|(_, g)| *g).collect();
        groups.len()
    }

    /// Evaluate the pipeline on a packet given by an attribute lookup,
    /// returning the merged action. This is the software model of the
    /// hardware traversal of Fig. 6.
    pub fn evaluate<F>(&self, lookup: F) -> Action
    where
        F: Fn(&Operand) -> Option<Value>,
    {
        let mut state = self.initial;
        for stage in &self.stages {
            let value = lookup(&stage.operand);
            if let Some(next) = stage.lookup(state, value.as_ref()) {
                state = next;
            }
        }
        self.leaf.lookup(state).clone()
    }

    /// Total control-plane entries across all stages plus the leaf
    /// table — the metric of Fig. 12.
    pub fn total_entries(&self) -> usize {
        self.stages.iter().map(|s| s.entry_count()).sum::<usize>() + self.leaf.entry_count()
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for stage in &self.stages {
            writeln!(f, "table {} ({:?}):", stage.operand, stage.kind)?;
            for e in &stage.entries {
                writeln!(f, "  ({}, {}) -> {}", e.state, e.spec, e.next)?;
            }
        }
        writeln!(f, "table leaf:")?;
        let mut states: Vec<_> = self.leaf.actions.iter().collect();
        states.sort_by_key(|(s, _)| **s);
        for (s, (a, g)) in states {
            match g {
                Some(g) => writeln!(f, "  {s} -> {a} [mcast {g}]")?,
                None => writeln!(f, "  {s} -> {a}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::ast::Action;

    fn op(name: &str) -> Operand {
        Operand::Field(name.to_string())
    }

    #[test]
    fn matchspec_semantics() {
        assert!(MatchSpec::Any.matches(&Value::Int(5)));
        assert!(MatchSpec::Any.matches(&Value::from("x")));
        assert!(MatchSpec::IntRange(1, 10).matches(&Value::Int(10)));
        assert!(!MatchSpec::IntRange(1, 10).matches(&Value::Int(11)));
        assert!(MatchSpec::IntExact(4).matches(&Value::Int(4)));
        assert!(!MatchSpec::IntExact(4).matches(&Value::from("4")));
        assert!(MatchSpec::StrExact("ab".into()).matches(&Value::from("ab")));
        assert!(MatchSpec::StrPrefix("ab".into()).matches(&Value::from("abc")));
        assert!(!MatchSpec::StrPrefix("ab".into()).matches(&Value::from("a")));
        assert!(!MatchSpec::StrExact("ab".into()).matches(&Value::Int(1)));
    }

    #[test]
    fn priority_ordering() {
        assert!(MatchSpec::IntExact(1).priority() > MatchSpec::IntRange(0, 5).priority());
        assert!(
            MatchSpec::StrExact("a".into()).priority()
                > MatchSpec::StrPrefix("a".into()).priority()
        );
        assert!(
            MatchSpec::StrPrefix("ab".into()).priority()
                > MatchSpec::StrPrefix("a".into()).priority()
        );
        assert!(MatchSpec::IntRange(0, 5).priority() > MatchSpec::Any.priority());
    }

    #[test]
    fn stage_lookup_respects_priority() {
        let t = StageTable::new(
            op("stock"),
            MatchKind::Exact,
            vec![
                TableEntry { state: 0, spec: MatchSpec::Any, next: 1 },
                TableEntry { state: 0, spec: MatchSpec::StrExact("GOOGL".into()), next: 2 },
                TableEntry { state: 0, spec: MatchSpec::StrPrefix("GO".into()), next: 3 },
            ],
        );
        assert_eq!(t.lookup(0, Some(&Value::from("GOOGL"))), Some(2));
        assert_eq!(t.lookup(0, Some(&Value::from("GOLD"))), Some(3));
        assert_eq!(t.lookup(0, Some(&Value::from("MSFT"))), Some(1));
        assert_eq!(t.lookup(0, None), Some(1)); // missing field -> Any
        assert_eq!(t.lookup(9, Some(&Value::from("GOOGL"))), None); // miss
    }

    #[test]
    fn stage_state_isolation() {
        let t = StageTable::new(
            op("x"),
            MatchKind::Range,
            vec![
                TableEntry { state: 0, spec: MatchSpec::IntRange(0, 10), next: 5 },
                TableEntry { state: 1, spec: MatchSpec::IntRange(0, 10), next: 6 },
            ],
        );
        assert_eq!(t.lookup(0, Some(&Value::Int(5))), Some(5));
        assert_eq!(t.lookup(1, Some(&Value::Int(5))), Some(6));
        assert_eq!(t.state_count(), 2);
        assert_eq!(t.entry_count(), 2);
    }

    #[test]
    fn pipeline_threads_state_and_passes_through() {
        // Stage 1 on "a": state 0 -[a>=5]-> 1, else -> 2.
        // Stage 2 on "b": state 1 -[any]-> 3; state 2 has no entries.
        let s1 = StageTable::new(
            op("a"),
            MatchKind::Range,
            vec![
                TableEntry { state: 0, spec: MatchSpec::IntRange(5, i64::MAX), next: 1 },
                TableEntry { state: 0, spec: MatchSpec::IntRange(i64::MIN, 4), next: 2 },
            ],
        );
        let s2 = StageTable::new(
            op("b"),
            MatchKind::Exact,
            vec![TableEntry { state: 1, spec: MatchSpec::Any, next: 3 }],
        );
        let mut actions = HashMap::new();
        actions.insert(3, (Action::Forward(vec![7]), None));
        actions.insert(2, (Action::Drop, None));
        let p = Pipeline {
            stages: vec![s1, s2],
            leaf: LeafTable { actions, default: Action::Drop },
            initial: 0,
        };
        let act = p.evaluate(|o| (o.field_name() == "a").then_some(Value::Int(9)));
        assert_eq!(act, Action::Forward(vec![7]));
        let act = p.evaluate(|o| (o.field_name() == "a").then_some(Value::Int(1)));
        assert_eq!(act, Action::Drop); // lands in state 2, leaf entry
        assert_eq!(p.total_entries(), 3 + 2);
        assert_eq!(p.stages.len(), 2);
    }

    #[test]
    fn reindex_resorts_mutated_entries() {
        // Mutating the public `entries` field out of priority order and
        // calling reindex must restore canonical resolution, exactly as
        // if the table had been built with `new`.
        let mut t = StageTable::new(
            op("stock"),
            MatchKind::Exact,
            vec![TableEntry { state: 0, spec: MatchSpec::StrExact("GOOGL".into()), next: 2 }],
        );
        // Worst-case order: wildcard first, most-specific last.
        t.entries.insert(0, TableEntry { state: 0, spec: MatchSpec::Any, next: 1 });
        t.entries.push(TableEntry { state: 0, spec: MatchSpec::StrPrefix("GO".into()), next: 3 });
        t.reindex();
        assert_eq!(t.lookup(0, Some(&Value::from("GOOGL"))), Some(2));
        assert_eq!(t.lookup(0, Some(&Value::from("GOLD"))), Some(3));
        assert_eq!(t.lookup(0, Some(&Value::from("MSFT"))), Some(1));
        let rebuilt = StageTable::new(t.operand.clone(), t.kind, t.entries.clone());
        assert_eq!(t, rebuilt);
    }

    #[test]
    fn leaf_default_for_unknown_state() {
        let leaf = LeafTable { actions: HashMap::new(), default: Action::Drop };
        assert_eq!(leaf.lookup(42), &Action::Drop);
    }

    #[test]
    fn serde_roundtrip_with_reindex() {
        let t = StageTable::new(
            op("x"),
            MatchKind::Range,
            vec![TableEntry { state: 0, spec: MatchSpec::IntRange(0, 10), next: 5 }],
        );
        let p = Pipeline {
            stages: vec![t],
            leaf: LeafTable {
                actions: HashMap::from([(5, (Action::Forward(vec![1]), None))]),
                default: Action::Drop,
            },
            initial: 0,
        };
        let json = serde_json::to_string(&p).unwrap();
        let mut back: Pipeline = serde_json::from_str(&json).unwrap();
        for s in &mut back.stages {
            s.reindex();
        }
        let act = back.evaluate(|_| Some(Value::Int(3)));
        assert_eq!(act, Action::Forward(vec![1]));
    }
}
