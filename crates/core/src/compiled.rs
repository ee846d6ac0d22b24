//! The compiled fast-path evaluator.
//!
//! [`Pipeline`] is the faithful *control-plane* artifact: string-keyed
//! operands, per-state entry lists scanned linearly in priority order,
//! and a cloned [`Action`] per evaluation. That shape mirrors the
//! paper's table layout but is the slowest possible software encoding.
//! [`CompiledPipeline::try_lower`] converts an installed pipeline once,
//! at install time, into one flat data-plane form.
//!
//! It lowers only the **compiler's table shape**, which is also all an
//! RMT pipeline can run (a stage passes metadata only to later stages):
//!
//! * every state id is below the pipeline's entry count plus one (the
//!   compiler numbers its states `0..n`);
//! * a state's entries sit in one stage, adjacent and in descending
//!   priority order, as [`StageTable::new`](crate::pipeline::StageTable::new) leaves them (Algorithm 2
//!   makes every state the In-node of one component);
//! * every transition goes to a state a later stage holds, or to one no
//!   stage holds (a terminal);
//! * a state's int ranges are non-empty and pairwise disjoint, and it
//!   holds each exact key, and `Any`, at most once.
//!
//! Anything else is a [`ShapeError`]; [`Pipeline::evaluate`] stays the
//! general reference the lowering is checked against. The lowered form:
//!
//! * **Slot interning** — every distinct operand gets a dense slot id;
//!   the parser resolves each slot against the `Spec` once and emits a
//!   slot-indexed `[Option<Value>]` array per message, so evaluation
//!   never hashes a field-name string.
//! * **Jump rows** — `rows[state]` is the state's one `Row`: its stage,
//!   the value slot it reads, and its match `Group` — typed probes
//!   (exact via open-addressing hash tables for large groups, binary
//!   search for small ones, prefixes via a length-ordered linear scan,
//!   ranges via binary search), not a priority scan. A terminal's row
//!   sits at the pipeline depth. A transition is one indexed load and
//!   one probe.
//! * **Flattened dispatch** — evaluation jumps from transition to
//!   transition instead of visiting every stage. Skipped stages hold no
//!   entry for the current state — §V-D pass-throughs by construction —
//!   and are accounted as bulk stage misses, so `hits + misses == depth`
//!   per message while the probe count (`entries_scanned`, the
//!   memory-accesses-per-lookup currency) covers only the transitions
//!   actually attempted.
//! * **Action arena** — leaf states map to [`ActionId`]s into a shared
//!   arena, so evaluation returns a copy-free id; callers borrow the
//!   `Action` only when they need it.
//!
//! Lowering preserves the interpreter's semantics entry-for-entry,
//! including §V-D pass-through (a lookup miss leaves the state
//! unchanged) and the missing-field rule (a `None` value can only take
//! `Any` entries). The differential property tests in
//! `tests/compiled_equivalence.rs` pin `eval ≡ Pipeline::evaluate` on
//! every table that lowers, and pin that the compiler emits only
//! tables that do.

use crate::digest::Fnv1a;
use crate::pipeline::{MatchSpec, Pipeline, StateId, TableEntry};
use camus_lang::ast::{Action, Operand};
use camus_lang::value::Value;
use std::fmt;
use std::hash::Hasher;

/// Index into the [`CompiledPipeline`] action arena. Id 0 is always the
/// leaf default action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActionId(pub u32);

impl ActionId {
    /// The leaf-default action (arena slot 0).
    pub const DEFAULT: ActionId = ActionId(0);
}

/// Evaluation counters, accumulated per call into the caller's scratch.
/// Cheap enough to keep on in production: three register adds per
/// stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounters {
    /// Stage lookups that found a transition.
    pub stage_hits: u64,
    /// Stage lookups that missed (state passed through, §V-D).
    pub stage_misses: u64,
    /// Match probes performed (binary-search steps + linear entries
    /// touched) — the work metric that `HashMap` priority scans hide.
    pub entries_scanned: u64,
}

/// Where a pipeline leaves the compiler's table shape (module docs):
/// why [`CompiledPipeline::try_lower`] refused it. Stages count from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// A state id at or above `bound`, the pipeline's entry count
    /// plus one.
    SparseState { state: StateId, bound: usize },
    /// `state`'s entries in `stage` are not adjacent, or not in
    /// descending priority order.
    Unsorted { stage: usize, state: StateId },
    /// `state` holds entries in two stages.
    SplitState { state: StateId, stages: [usize; 2] },
    /// An entry of `state` in `stage` goes to `next`, which that stage
    /// or an earlier one holds.
    BackwardJump { stage: usize, state: StateId, next: StateId },
    /// An int range of `state` in `stage` has `lo > hi`.
    EmptyRange { stage: usize, state: StateId },
    /// Two int ranges of `state` in `stage` overlap.
    OverlappingRanges { stage: usize, state: StateId },
    /// `state` holds one exact key, or `Any`, twice in `stage`.
    DuplicateKey { stage: usize, state: StateId },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not in the compiler's table shape: {self:?}")
    }
}

impl std::error::Error for ShapeError {}

/// Occupancy sentinel for the open-addressing exact tables. State ids
/// are below the entry count plus one, so no real state is `u32::MAX`.
const EMPTY_STATE: StateId = StateId::MAX;

/// Groups at or above this many exact keys get an open-addressing
/// table (≤50% load): ~1–2 probes per lookup instead of log₂(n).
const HASH_MIN_KEYS: usize = 8;

/// An exact-match key type and its hash.
trait ExactKey: Ord + Default + Clone {
    fn hash(&self) -> u64;
}

impl ExactKey for i64 {
    /// Fibonacci multiply + xor-fold: a full-avalanche hash for
    /// integer keys.
    #[inline]
    fn hash(&self) -> u64 {
        let h = (*self as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 29)
    }
}

impl ExactKey for String {
    /// FNV-1a over the key bytes.
    #[inline]
    fn hash(&self) -> u64 {
        let mut h = Fnv1a(Fnv1a::OFFSET);
        h.write(self.as_bytes());
        h.finish()
    }
}

/// Exact-match dispatch over one key type: open-addressed for large
/// groups, sorted binary search for small ones.
#[derive(Debug, Clone)]
enum ExactIndex<K> {
    Sorted(Vec<(K, StateId)>),
    /// Power-of-two open-addressing table, linear probing, `EMPTY_STATE`
    /// marks a free slot.
    Hashed(Vec<(K, StateId)>),
}

impl<K: ExactKey> ExactIndex<K> {
    /// Index `keys`; `None` if a key repeats.
    fn build(mut keys: Vec<(K, StateId)>) -> Option<Self> {
        keys.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if keys.windows(2).any(|w| w[0].0 == w[1].0) {
            return None;
        }
        if keys.len() < HASH_MIN_KEYS {
            return Some(ExactIndex::Sorted(keys));
        }
        let cap = (keys.len() * 2).next_power_of_two();
        let mut table = vec![(K::default(), EMPTY_STATE); cap];
        for (k, s) in keys {
            let mut i = k.hash() as usize & (cap - 1);
            while table[i].1 != EMPTY_STATE {
                i = (i + 1) & (cap - 1);
            }
            table[i] = (k, s);
        }
        Some(ExactIndex::Hashed(table))
    }

    #[inline]
    fn lookup(&self, x: &K, scanned: &mut u64) -> Option<StateId> {
        match self {
            ExactIndex::Sorted(v) => {
                *scanned += bsearch_cost(v.len());
                v.binary_search_by(|probe| probe.0.cmp(x)).ok().map(|i| v[i].1)
            }
            ExactIndex::Hashed(t) => {
                let mask = t.len() - 1;
                let mut i = x.hash() as usize & mask;
                loop {
                    *scanned += 1;
                    let (k, s) = &t[i];
                    if *s == EMPTY_STATE {
                        return None;
                    }
                    if k == x {
                        return Some(*s);
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }
}

/// Range dispatch strategy for one state's group.
#[derive(Debug, Clone)]
enum RangeIndex {
    /// Exactly one range: a pair of compares, no search. Deep state
    /// chains lower to one threshold range per stage, so this is the
    /// hottest shape in the depth ladder.
    Single(i64, i64, StateId),
    /// Pairwise-disjoint ranges sorted by `lo`: one binary search finds
    /// the only candidate. Algorithm 2 emits a partition of the value
    /// domain per In-node.
    Disjoint(Vec<(i64, i64, StateId)>),
}

/// All entries of one state, split by match type. The interpreter
/// scans the state's entries in priority order
/// (exact > prefix > range > any); typed values can only hit their own
/// class, so probing exact → prefix/range → any preserves
/// first-match-wins.
#[derive(Debug, Clone)]
struct Group {
    int_exact: ExactIndex<i64>,
    str_exact: ExactIndex<String>,
    /// Prefix entries in interpreter scan order (length-descending,
    /// stable): a linear first-match scan is exact-equivalent.
    str_prefix: Vec<(String, StateId)>,
    ranges: RangeIndex,
    any: Option<StateId>,
}

impl Group {
    /// The group no entry fills: every probe misses.
    fn empty() -> Group {
        Group {
            int_exact: ExactIndex::Sorted(Vec::new()),
            str_exact: ExactIndex::Sorted(Vec::new()),
            str_prefix: Vec::new(),
            ranges: RangeIndex::Disjoint(Vec::new()),
            any: None,
        }
    }

    /// Build the match group of `run`, one state's entries in `stage`,
    /// in scan order.
    fn lower(stage: usize, run: &[TableEntry]) -> Result<Group, ShapeError> {
        let state = run[0].state;
        let duplicate = ShapeError::DuplicateKey { stage, state };
        let mut int_exact: Vec<(i64, StateId)> = Vec::new();
        let mut str_exact: Vec<(String, StateId)> = Vec::new();
        let mut str_prefix: Vec<(String, StateId)> = Vec::new();
        // Sized up front: the group keeps this vector.
        let mut ranges: Vec<(i64, i64, StateId)> = Vec::with_capacity(
            run.iter().filter(|e| matches!(e.spec, MatchSpec::IntRange(..))).count(),
        );
        let mut any: Option<StateId> = None;
        for e in run {
            let next = e.next;
            match &e.spec {
                MatchSpec::IntExact(v) => int_exact.push((*v, next)),
                MatchSpec::StrExact(s) => str_exact.push((s.clone(), next)),
                MatchSpec::StrPrefix(p) => str_prefix.push((p.clone(), next)),
                MatchSpec::IntRange(lo, hi) if lo > hi => {
                    return Err(ShapeError::EmptyRange { stage, state })
                }
                MatchSpec::IntRange(lo, hi) => ranges.push((*lo, *hi, next)),
                MatchSpec::Any if any.is_some() => return Err(duplicate),
                MatchSpec::Any => any = Some(next),
            }
        }
        ranges.sort_unstable_by_key(|&(lo, _, _)| lo);
        if ranges.windows(2).any(|w| w[0].1 >= w[1].0) {
            return Err(ShapeError::OverlappingRanges { stage, state });
        }
        Ok(Group {
            int_exact: ExactIndex::build(int_exact).ok_or(duplicate)?,
            str_exact: ExactIndex::build(str_exact).ok_or(duplicate)?,
            str_prefix,
            ranges: match ranges[..] {
                [(lo, hi, next)] => RangeIndex::Single(lo, hi, next),
                _ => RangeIndex::Disjoint(ranges),
            },
            any,
        })
    }

    #[inline]
    fn lookup(&self, value: Option<&Value>, scanned: &mut u64) -> Option<StateId> {
        match value {
            // Missing attribute: only the unconstrained Any region
            // matches (Algorithm 2's all-false path).
            None => {
                *scanned += 1;
                self.any
            }
            Some(Value::Int(x)) => {
                // No emptiness pre-checks: an empty index probes at
                // `bsearch_cost(0) == 0` cost, so skipping the guard
                // branches is counter-neutral and shorter hot code.
                if let Some(next) = self.int_exact.lookup(x, scanned) {
                    return Some(next);
                }
                match &self.ranges {
                    // Cost parity with the counters' search model:
                    // bsearch_cost(1) == 1 probe.
                    RangeIndex::Single(lo, hi, next) => {
                        *scanned += 1;
                        if *lo <= *x && *x <= *hi {
                            return Some(*next);
                        }
                    }
                    RangeIndex::Disjoint(rs) => {
                        *scanned += bsearch_cost(rs.len());
                        let i = rs.partition_point(|&(lo, _, _)| lo <= *x);
                        if i > 0 {
                            let (_, hi, next) = rs[i - 1];
                            if *x <= hi {
                                return Some(next);
                            }
                        }
                    }
                }
                *scanned += 1;
                self.any
            }
            Some(Value::Str(s)) => {
                if let Some(next) = self.str_exact.lookup(s, scanned) {
                    return Some(next);
                }
                for (k, (prefix, next)) in self.str_prefix.iter().enumerate() {
                    if s.starts_with(prefix.as_str()) {
                        *scanned += k as u64 + 1;
                        return Some(*next);
                    }
                }
                *scanned += self.str_prefix.len() as u64 + 1;
                self.any
            }
        }
    }
}

/// Probes a binary search over `n` sorted keys performs, for the
/// `entries_scanned` counter.
fn bsearch_cost(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros())
}

/// One jump row: stage `stage` can transition the row's state, reading
/// value slot `slot`, probing the match group the row owns. Fusing the
/// header and group into one arena element makes a transition two
/// dependent loads (row, probe) instead of four (offset, entry, stage,
/// group).
#[derive(Debug, Clone)]
struct Row {
    /// The pipeline depth for a terminal, which no stage holds.
    stage: u32,
    slot: u32,
    /// Precomputed single-compare probe for the dominant group shape;
    /// `FastProbe::No` falls back to the full [`Group::lookup`].
    fast: FastProbe,
    group: Group,
}

/// A branch-free shortcut for groups that are exactly one int range
/// plus an optional `Any` entry — the shape Algorithm 2 emits for
/// threshold predicates (`hop_latency > k`), and every stage of a deep
/// state chain. The row header, the tag, and the bounds share the
/// row's first cache line, so a transition is one load and two
/// compares. Probe-count parity with [`Group::lookup`] is exact: a hit
/// scans 1 entry (`bsearch_cost(1)`), a miss scans the range and the
/// `Any` fallthrough (2).
#[derive(Debug, Clone)]
enum FastProbe {
    No,
    IntSingle { lo: i64, hi: i64, next: StateId, any_next: Option<StateId> },
}

impl FastProbe {
    fn of(group: &Group) -> FastProbe {
        match group {
            Group {
                int_exact: ExactIndex::Sorted(ie),
                str_exact: ExactIndex::Sorted(se),
                str_prefix,
                ranges: RangeIndex::Single(lo, hi, next),
                any,
            } if ie.is_empty() && se.is_empty() && str_prefix.is_empty() => {
                FastProbe::IntSingle { lo: *lo, hi: *hi, next: *next, any_next: *any }
            }
            _ => FastProbe::No,
        }
    }
}

impl Row {
    /// Probe the row: the precomputed fast path when it applies,
    /// [`Group::lookup`] otherwise. Counter-exact either way.
    #[inline(always)]
    fn probe(&self, value: Option<&Value>, scanned: &mut u64) -> Option<StateId> {
        if let (FastProbe::IntSingle { lo, hi, next, any_next }, Some(Value::Int(x))) =
            (&self.fast, value)
        {
            *scanned += 1;
            return if *lo <= *x && *x <= *hi {
                Some(*next)
            } else {
                // The range missed: the only remaining probe is `Any`.
                *scanned += 1;
                *any_next
            };
        }
        self.group.lookup(value, scanned)
    }
}

/// A pipeline lowered for the data-plane hot path. Build once per
/// install with [`CompiledPipeline::try_lower`]; evaluate with a
/// slot-indexed value array. Evaluation performs zero heap allocations.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    /// Interned operands; `slots[i]` is what value index `i` must hold.
    slots: Vec<Operand>,
    /// Number of match stages.
    depth: u32,
    /// `rows[s]` is state `s`'s row.
    rows: Vec<Row>,
    /// `leaf[s]` is state `s`'s action; `ActionId::DEFAULT` when the
    /// leaf table has no entry for it.
    leaf: Vec<ActionId>,
    /// Action arena; index 0 is the leaf default.
    actions: Vec<Action>,
    /// The initial state.
    pub initial: StateId,
}

impl CompiledPipeline {
    /// Lower an installed pipeline in the compiler's table shape (module
    /// docs), or name the first place it leaves that shape.
    pub fn try_lower(pipeline: &Pipeline) -> Result<CompiledPipeline, ShapeError> {
        let depth = pipeline.stages.len();
        let bound = pipeline.total_entries() + 1;
        let top = pipeline
            .stages
            .iter()
            .flat_map(|st| &st.entries)
            .flat_map(|e| [e.state, e.next])
            .chain(pipeline.leaf.actions.keys().copied())
            .fold(pipeline.initial, StateId::max);
        if top as usize >= bound {
            return Err(ShapeError::SparseState { state: top, bound });
        }
        let terminal =
            || Row { stage: depth as u32, slot: 0, fast: FastProbe::No, group: Group::empty() };
        let mut rows: Vec<Row> = (0..=top).map(|_| terminal()).collect();
        // Claim each state's stage first, so that every transition can
        // be checked against its target's.
        for (si, stage) in pipeline.stages.iter().enumerate() {
            for run in stage.entries.chunk_by(|a, b| a.state == b.state) {
                let state = run[0].state;
                let held = rows[state as usize].stage as usize;
                let unsorted = run.windows(2).any(|w| w[0].spec.priority() < w[1].spec.priority());
                if held == si || unsorted {
                    return Err(ShapeError::Unsorted { stage: si, state });
                } else if held != depth {
                    return Err(ShapeError::SplitState { state, stages: [held, si] });
                }
                rows[state as usize].stage = si as u32;
            }
        }

        let mut slots: Vec<Operand> = Vec::new();
        for (si, stage) in pipeline.stages.iter().enumerate() {
            let slot = slots.iter().position(|o| o == &stage.operand).unwrap_or_else(|| {
                slots.push(stage.operand.clone());
                slots.len() - 1
            });
            for run in stage.entries.chunk_by(|a, b| a.state == b.state) {
                let state = run[0].state;
                if let Some(e) = run.iter().find(|e| rows[e.next as usize].stage as usize <= si) {
                    return Err(ShapeError::BackwardJump { stage: si, state, next: e.next });
                }
                let group = Group::lower(si, run)?;
                rows[state as usize] =
                    Row { stage: si as u32, slot: slot as u32, fast: FastProbe::of(&group), group };
            }
        }

        let mut actions = vec![pipeline.leaf.default.clone()];
        let mut leaf = vec![ActionId::DEFAULT; rows.len()];
        let mut leaf_states: Vec<StateId> = pipeline.leaf.actions.keys().copied().collect();
        leaf_states.sort_unstable();
        for s in leaf_states {
            leaf[s as usize] = ActionId(actions.len() as u32);
            actions.push(pipeline.leaf.actions[&s].0.clone());
        }
        Ok(CompiledPipeline {
            slots,
            depth: depth as u32,
            rows,
            leaf,
            actions,
            initial: pipeline.initial,
        })
    }

    /// [`try_lower`](Self::try_lower) for a pipeline known to be in the
    /// compiler's shape, as everything the compiler emits is.
    ///
    /// # Panics
    ///
    /// If `pipeline` leaves that shape.
    pub fn lower(pipeline: &Pipeline) -> CompiledPipeline {
        Self::try_lower(pipeline).unwrap_or_else(|e| panic!("pipeline {e}"))
    }

    /// The interned operands, in slot order. The parser resolves each
    /// against the `Spec` once and fills `values[slot]` per message.
    pub fn slots(&self) -> &[Operand] {
        &self.slots
    }

    /// Borrow the action behind an id returned by [`eval`](Self::eval).
    pub fn action(&self, id: ActionId) -> &Action {
        &self.actions[id.0 as usize]
    }

    /// The action arena (index 0 is the leaf default).
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of match stages (pipeline depth, excluding the leaf).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Evaluate one message given its slot-indexed values.
    /// `values.len()` must equal `self.slots().len()`.
    #[inline]
    pub fn eval(&self, values: &[Option<Value>]) -> ActionId {
        let mut scratch = EvalCounters::default();
        self.eval_counted(values, &mut scratch)
    }

    /// [`eval`](Self::eval), accumulating hit/miss/scan counters.
    ///
    /// Flattened dispatch: follow the current state's row instead of
    /// probing every stage. A state has entries in its row's stage
    /// only, and every transition goes to a later stage, so the stages
    /// skipped between transitions are §V-D pass-throughs: they are
    /// bulk-counted as misses (`hits + misses == depth` per message),
    /// and `entries_scanned` counts only the probes made.
    #[inline]
    pub fn eval_counted(&self, values: &[Option<Value>], counters: &mut EvalCounters) -> ActionId {
        let mut state = self.initial;
        // Accumulate in registers; one write-back on exit.
        let mut hits: u32 = 0;
        let mut scanned = counters.entries_scanned;
        loop {
            let row = &self.rows[state as usize];
            // A terminal's row sits at the depth; a miss leaves the
            // state to pass through the rest of the pipeline.
            if row.stage == self.depth {
                break;
            }
            match row.probe(values[row.slot as usize].as_ref(), &mut scanned) {
                Some(next) => {
                    hits += 1;
                    state = next;
                }
                None => break,
            }
        }
        counters.stage_hits += u64::from(hits);
        counters.stage_misses += u64::from(self.depth - hits);
        counters.entries_scanned = scanned;
        self.leaf[state as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{LeafTable, MatchKind, StageTable};
    use std::collections::HashMap;

    fn op(name: &str) -> Operand {
        Operand::Field(name.to_string())
    }

    fn leaf(entries: &[(StateId, Action)]) -> LeafTable {
        LeafTable {
            actions: entries.iter().cloned().map(|(s, a)| (s, (a, None))).collect(),
            default: Action::Drop,
        }
    }

    /// `lower(p).eval` must agree with `p.evaluate` on every probe.
    fn assert_equivalent(p: &Pipeline, probes: &[HashMap<String, Value>]) {
        let c = CompiledPipeline::lower(p);
        for probe in probes {
            let interpreted = p.evaluate(|o| probe.get(&o.key()).cloned());
            let values: Vec<Option<Value>> =
                c.slots().iter().map(|o| probe.get(&o.key()).cloned()).collect();
            let compiled = c.action(c.eval(&values)).clone();
            assert_eq!(interpreted, compiled, "diverged on probe {probe:?}");
        }
    }

    #[test]
    fn exact_prefix_any_resolution_matches_interpreter() {
        let stage = StageTable::new(
            op("stock"),
            MatchKind::Exact,
            vec![
                TableEntry { state: 0, spec: MatchSpec::Any, next: 1 },
                TableEntry { state: 0, spec: MatchSpec::StrExact("GOOGL".into()), next: 2 },
                TableEntry { state: 0, spec: MatchSpec::StrPrefix("GO".into()), next: 3 },
                TableEntry { state: 0, spec: MatchSpec::StrPrefix("GOO".into()), next: 4 },
            ],
        );
        let p = Pipeline {
            stages: vec![stage],
            leaf: leaf(&[
                (1, Action::Forward(vec![1])),
                (2, Action::Forward(vec![2])),
                (3, Action::Forward(vec![3])),
                (4, Action::Forward(vec![4])),
            ]),
            initial: 0,
        };
        let probes: Vec<HashMap<String, Value>> = ["GOOGL", "GOOD", "GOLD", "MSFT"]
            .iter()
            .map(|s| HashMap::from([("stock".to_string(), Value::from(*s))]))
            .collect();
        assert_equivalent(&p, &probes);
        // Missing field takes the Any entry only.
        assert_equivalent(&p, &[HashMap::new()]);
    }

    #[test]
    fn disjoint_ranges_use_binary_search() {
        let entries: Vec<TableEntry> = (0..50)
            .map(|i| TableEntry {
                state: 0,
                spec: MatchSpec::IntRange(i * 10, i * 10 + 9),
                next: i as StateId + 1,
            })
            .collect();
        let stage = StageTable::new(op("price"), MatchKind::Range, entries);
        let c = CompiledPipeline::lower(&Pipeline {
            stages: vec![stage.clone()],
            leaf: leaf(&(1..=50).map(|s| (s, Action::Forward(vec![s as u16]))).collect::<Vec<_>>()),
            initial: 0,
        });
        // Lowered as Disjoint: a probe costs O(log n), not O(n).
        let mut counters = EvalCounters::default();
        let id = c.eval_counted(&[Some(Value::Int(437))], &mut counters);
        assert_eq!(c.action(id), &Action::Forward(vec![44]));
        assert!(counters.entries_scanned < 16, "scanned {}", counters.entries_scanned);
        // Out-of-domain probe misses every range and the leaf.
        assert_eq!(c.action(c.eval(&[Some(Value::Int(1_000))])), &Action::Drop);
    }

    #[test]
    fn overlapping_ranges_are_rejected() {
        let p = Pipeline {
            stages: vec![StageTable::new(
                op("x"),
                MatchKind::Range,
                vec![
                    TableEntry { state: 0, spec: MatchSpec::IntRange(0, 100), next: 1 },
                    TableEntry { state: 0, spec: MatchSpec::IntRange(100, 150), next: 2 },
                ],
            )],
            leaf: leaf(&[(1, Action::Forward(vec![1])), (2, Action::Forward(vec![2]))]),
            initial: 0,
        };
        let err = CompiledPipeline::try_lower(&p).unwrap_err();
        assert_eq!(err, ShapeError::OverlappingRanges { stage: 0, state: 0 });
    }

    #[test]
    fn duplicate_exact_keys_are_rejected() {
        // One key per group exercises the sorted index, 2 × HASH_MIN_KEYS
        // the open-addressed one: distinct keys lower and agree with the
        // interpreter, and any key given twice is refused.
        for keys in [1, 2 * HASH_MIN_KEYS as i64] {
            let stages = |twice: bool| {
                let entries = |spec: fn(i64) -> MatchSpec, state: StateId| -> Vec<TableEntry> {
                    (0..keys)
                        .flat_map(|k| if twice { vec![k, k] } else { vec![k] })
                        .map(|k| TableEntry { state, spec: spec(k), next: state + 1 })
                        .collect()
                };
                vec![
                    StageTable::new(op("x"), MatchKind::Exact, entries(MatchSpec::IntExact, 0)),
                    StageTable::new(
                        op("s"),
                        MatchKind::Exact,
                        entries(|k| MatchSpec::StrExact(format!("K{k}")), 1),
                    ),
                ]
            };
            let p = Pipeline {
                stages: stages(false),
                leaf: leaf(&[(2, Action::Forward(vec![2]))]),
                initial: 0,
            };
            let c = CompiledPipeline::lower(&p);
            let hashed = keys as usize >= HASH_MIN_KEYS;
            assert_eq!(matches!(c.rows[0].group.int_exact, ExactIndex::Hashed(_)), hashed);
            assert_eq!(matches!(c.rows[1].group.str_exact, ExactIndex::Hashed(_)), hashed);
            for k in 0..keys {
                let (x, s) = (Value::Int(k), Value::Str(format!("K{k}")));
                assert_eq!(
                    c.action(c.eval(&[Some(x.clone()), Some(s.clone())])),
                    &Action::Forward(vec![2])
                );
                assert_equivalent(
                    &p,
                    &[HashMap::from([("x".to_string(), x), ("s".to_string(), s)])],
                );
            }
            let twice = Pipeline { stages: stages(true), ..p.clone() };
            let err = CompiledPipeline::try_lower(&twice).unwrap_err();
            assert_eq!(err, ShapeError::DuplicateKey { stage: 0, state: 0 });
            let str_twice =
                Pipeline { stages: vec![p.stages[0].clone(), stages(true)[1].clone()], ..p };
            let err = CompiledPipeline::try_lower(&str_twice).unwrap_err();
            assert_eq!(err, ShapeError::DuplicateKey { stage: 1, state: 1 });
        }
    }

    #[test]
    fn pass_through_and_state_isolation() {
        // Stage 2 has entries only for state 1: state 2 passes through
        // to the leaf unchanged.
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
        let p = Pipeline {
            stages: vec![s1, s2],
            leaf: leaf(&[(3, Action::Forward(vec![7])), (2, Action::Drop)]),
            initial: 0,
        };
        let c = CompiledPipeline::lower(&p);
        assert_eq!(c.slots().len(), 2);
        let mut counters = EvalCounters::default();
        let hi = c.eval_counted(&[Some(Value::Int(9)), None], &mut counters);
        assert_eq!(c.action(hi), &Action::Forward(vec![7]));
        assert_eq!(counters.stage_hits, 2);
        let lo = c.eval_counted(&[Some(Value::Int(1)), None], &mut counters);
        assert_eq!(c.action(lo), &Action::Drop);
        // Second eval: stage 2 misses for state 2 (pass-through).
        assert_eq!(counters.stage_misses, 1);
    }

    #[test]
    fn large_exact_groups_hash_in_constant_probes() {
        // 1000 exact int keys: hashed lookup costs ~1-2 probes, far
        // below the log2(1000) ≈ 10 a binary search would take.
        let entries: Vec<TableEntry> = (0..1000)
            .map(|i| TableEntry {
                state: 0,
                spec: MatchSpec::IntExact(i * 3),
                next: i as StateId + 1,
            })
            .collect();
        let p = Pipeline {
            stages: vec![StageTable::new(op("k"), MatchKind::Exact, entries)],
            leaf: leaf(
                &(1..=1000)
                    .map(|s| (s, Action::Forward(vec![(s % 100) as u16])))
                    .collect::<Vec<_>>(),
            ),
            initial: 0,
        };
        let c = CompiledPipeline::lower(&p);
        let mut counters = EvalCounters::default();
        let id = c.eval_counted(&[Some(Value::Int(437 * 3))], &mut counters);
        assert_eq!(c.action(id), &Action::Forward(vec![438 % 100]));
        assert!(counters.entries_scanned <= 4, "scanned {}", counters.entries_scanned);
        // Misses terminate at the first empty probe and fall through to
        // the (absent) Any region.
        assert_eq!(c.action(c.eval(&[Some(Value::Int(1))])), &Action::Drop);
        assert_equivalent(
            &p,
            &[
                HashMap::from([("k".to_string(), Value::Int(999 * 3))]),
                HashMap::from([("k".to_string(), Value::Int(7))]),
                HashMap::new(),
            ],
        );
    }

    #[test]
    fn flattened_dispatch_counts_skipped_stages_as_misses() {
        // Depth-4 chain: state i transitions only in stage i. A probe
        // that resets to state 0 at stage 1 leaves stages 2..4 with no
        // row entries — they must still be accounted as misses so
        // hits + misses == depth.
        let mk = |stage_state: StateId, next: StateId| {
            StageTable::new(
                op(&format!("f{stage_state}")),
                MatchKind::Exact,
                vec![TableEntry { state: stage_state, spec: MatchSpec::IntExact(1), next }],
            )
        };
        let p = Pipeline {
            stages: vec![mk(0, 1), mk(1, 2), mk(2, 3), mk(3, 4)],
            leaf: leaf(&[(4, Action::Forward(vec![9]))]),
            initial: 0,
        };
        let c = CompiledPipeline::lower(&p);
        // Full chain: 4 hits, 0 misses.
        let all = vec![Some(Value::Int(1)); 4];
        let mut counters = EvalCounters::default();
        assert_eq!(c.action(c.eval_counted(&all, &mut counters)), &Action::Forward(vec![9]));
        assert_eq!((counters.stage_hits, counters.stage_misses), (4, 0));
        // Break the chain at stage 1: stage 0 hits, stage 1 probe
        // misses, stages 2-3 are bulk pass-throughs.
        let broken = vec![Some(Value::Int(1)), Some(Value::Int(2)), None, None];
        counters = EvalCounters::default();
        assert_eq!(c.action(c.eval_counted(&broken, &mut counters)), &Action::Drop);
        assert_eq!((counters.stage_hits, counters.stage_misses), (1, 3));
        assert_equivalent(
            &p,
            &[
                (0..4).map(|i| (format!("f{i}"), Value::Int(1))).collect(),
                HashMap::from([("f0".to_string(), Value::Int(1))]),
                HashMap::new(),
            ],
        );
    }

    #[test]
    fn sparse_state_ids_are_rejected() {
        // Two entries (one match, one leaf) bound the state ids below 3.
        let far = (1 << 22) + 5;
        let p = Pipeline {
            stages: vec![StageTable::new(
                op("x"),
                MatchKind::Exact,
                vec![TableEntry { state: 0, spec: MatchSpec::IntExact(1), next: far }],
            )],
            leaf: leaf(&[(far, Action::Forward(vec![9]))]),
            initial: 0,
        };
        let err = CompiledPipeline::try_lower(&p).unwrap_err();
        assert_eq!(err, ShapeError::SparseState { state: far, bound: 3 });
    }

    #[test]
    fn shared_operand_interns_to_one_slot() {
        let s1 = StageTable::new(
            op("x"),
            MatchKind::Exact,
            vec![TableEntry { state: 0, spec: MatchSpec::IntExact(1), next: 1 }],
        );
        let s2 = StageTable::new(
            op("x"),
            MatchKind::Exact,
            vec![TableEntry { state: 1, spec: MatchSpec::IntExact(1), next: 2 }],
        );
        let p = Pipeline {
            stages: vec![s1, s2],
            leaf: leaf(&[(2, Action::Forward(vec![4]))]),
            initial: 0,
        };
        let c = CompiledPipeline::lower(&p);
        assert_eq!(c.slots().len(), 1);
        assert_eq!(c.depth(), 2);
        assert_eq!(c.action(c.eval(&[Some(Value::Int(1))])), &Action::Forward(vec![4]));
    }
}
