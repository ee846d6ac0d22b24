//! The compiled fast-path evaluator.
//!
//! [`Pipeline`] is the faithful *control-plane* artifact: string-keyed
//! operands, per-state entry lists scanned linearly in priority order,
//! and a cloned [`Action`] per evaluation. That shape mirrors the
//! paper's table layout but is the slowest possible software encoding.
//! [`CompiledPipeline::lower`] converts an installed pipeline once, at
//! install time, into one flat data-plane form:
//!
//! * **Slot interning** — every distinct operand gets a dense slot id;
//!   the parser resolves each slot against the `Spec` once and emits a
//!   slot-indexed `[Option<Value>]` array per message, so evaluation
//!   never hashes a field-name string.
//! * **Dense state ids** — the ids the pipeline mentions (entry states
//!   and targets, leaf keys, the initial state) are renumbered onto
//!   `0..n` in id order. The compiler already emits `0..n`, so for its
//!   output this is the identity; a hand-written pipeline may use any
//!   `u32` and still lowers to tables no larger than its entry count.
//! * **Jump rows** — all entries one stage holds for one state become
//!   one `Row`: the stage, the value slot it reads, and the state's
//!   match `Group` — typed probes (exact via open-addressing hash
//!   tables for large groups, binary search for small ones, prefixes
//!   via a length-ordered linear scan, ranges via binary search when
//!   provably disjoint), not a priority scan. `rows[state]` is the
//!   state's first row, so a transition is one indexed load and one
//!   probe. Algorithm 2 makes every state the In-node of exactly one
//!   component, so compiler output has exactly one row per state; a
//!   hand-built state with entries in several stages chains its later
//!   rows behind the first, read only after a probe miss. Each group is
//!   built once and held once, by the row that owns it.
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
//! `Any` entries). The differential property test in
//! `tests/compiled_equivalence.rs` pins `eval ≡ Pipeline::evaluate` on
//! randomized pipelines and inputs.

use crate::pipeline::{MatchSpec, Pipeline, StageTable, StateId};
use camus_lang::ast::{Action, Operand};
use camus_lang::value::Value;

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

impl EvalCounters {
    pub fn merge(&mut self, other: &EvalCounters) {
        self.stage_hits += other.stage_hits;
        self.stage_misses += other.stage_misses;
        self.entries_scanned += other.entries_scanned;
    }
}

/// Occupancy sentinel for the open-addressing exact tables. Lowered
/// state ids are `0..n` with `n` bounded by the entry count, so no real
/// state is `u32::MAX`.
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
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in self.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01B3);
        }
        h
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
    /// Index `keys`, given in scan order. Of duplicate keys the first
    /// in scan order wins (the interpreter never reaches the later
    /// ones): a stable sort keeps it in front and `dedup` drops the
    /// rest.
    fn build(mut keys: Vec<(K, StateId)>) -> Self {
        keys.sort_by(|a, b| a.0.cmp(&b.0));
        keys.dedup_by(|later, first| later.0 == first.0);
        if keys.len() < HASH_MIN_KEYS {
            return ExactIndex::Sorted(keys);
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
        ExactIndex::Hashed(table)
    }

    fn len(&self) -> usize {
        match self {
            ExactIndex::Sorted(v) => v.len(),
            ExactIndex::Hashed(t) => t.iter().filter(|(_, s)| *s != EMPTY_STATE).count(),
        }
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

/// Range dispatch strategy for one `(stage, state)` group.
#[derive(Debug, Clone)]
enum RangeIndex {
    /// Exactly one range: a pair of compares, no search. Deep state
    /// chains lower to one threshold range per stage, so this is the
    /// hottest shape in the depth ladder.
    Single(i64, i64, StateId),
    /// Pairwise-disjoint ranges sorted by `lo`: one binary search finds
    /// the only candidate. This is the common case — Algorithm 2 emits
    /// a partition of the value domain per In-node.
    Disjoint(Vec<(i64, i64, StateId)>),
    /// Overlapping ranges (possible in hand-built or randomized
    /// pipelines): fall back to the interpreter's first-match priority
    /// scan order.
    Ordered(Vec<(i64, i64, StateId)>),
}

impl RangeIndex {
    fn len(&self) -> usize {
        match self {
            RangeIndex::Single(..) => 1,
            RangeIndex::Disjoint(v) | RangeIndex::Ordered(v) => v.len(),
        }
    }
}

/// All entries of one stage for one state, split by match type. The
/// interpreter scans the state's entries in priority order (exact >
/// prefix > range > any); typed values can only hit their own class,
/// so probing exact → prefix/range → any preserves first-match-wins.
#[derive(Debug, Clone)]
struct Group {
    /// Exact int keys, first-in-scan-order on duplicates.
    int_exact: ExactIndex<i64>,
    /// Exact string keys, first-in-scan-order on duplicates.
    str_exact: ExactIndex<String>,
    /// Prefix entries in interpreter scan order (length-descending,
    /// stable): a linear first-match scan is exact-equivalent.
    str_prefix: Vec<(String, StateId)>,
    ranges: RangeIndex,
    /// First `Any` entry in scan order, if present.
    any: Option<StateId>,
}

impl Group {
    /// Build one state's match group from its entries in scan order.
    fn lower<'a>(entries: impl Iterator<Item = (&'a MatchSpec, StateId)>) -> Group {
        let mut int_exact: Vec<(i64, StateId)> = Vec::new();
        let mut str_exact: Vec<(String, StateId)> = Vec::new();
        let mut str_prefix: Vec<(String, StateId)> = Vec::new();
        let mut ranges: Vec<(i64, i64, StateId)> = Vec::new();
        let mut any: Option<StateId> = None;
        for (spec, next) in entries {
            match spec {
                MatchSpec::IntExact(v) => int_exact.push((*v, next)),
                MatchSpec::StrExact(s) => str_exact.push((s.clone(), next)),
                // Scan order is length-descending (priority = 1M + len),
                // stable within a length — keep it for first-match scans.
                MatchSpec::StrPrefix(p) => str_prefix.push((p.clone(), next)),
                MatchSpec::IntRange(lo, hi) => {
                    // Empty ranges can never match.
                    if lo <= hi {
                        ranges.push((*lo, *hi, next));
                    }
                }
                MatchSpec::Any => any = any.or(Some(next)),
            }
        }
        Group {
            int_exact: ExactIndex::build(int_exact),
            str_exact: ExactIndex::build(str_exact),
            str_prefix,
            ranges: index_ranges(ranges),
            any,
        }
    }

    fn len(&self) -> usize {
        self.int_exact.len()
            + self.str_exact.len()
            + self.str_prefix.len()
            + self.ranges.len()
            + usize::from(self.any.is_some())
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
                    RangeIndex::Ordered(rs) => {
                        for (k, &(lo, hi, next)) in rs.iter().enumerate() {
                            if lo <= *x && *x <= hi {
                                *scanned += k as u64 + 1;
                                return Some(next);
                            }
                        }
                        *scanned += rs.len() as u64;
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

/// Choose the range dispatch strategy: binary search when the ranges
/// are pairwise disjoint, priority-scan order otherwise.
fn index_ranges(ranges: Vec<(i64, i64, StateId)>) -> RangeIndex {
    if let [(lo, hi, next)] = ranges[..] {
        return RangeIndex::Single(lo, hi, next);
    }
    let mut sorted = ranges.clone();
    sorted.sort_by_key(|&(lo, _, _)| lo);
    let disjoint = sorted.windows(2).all(|w| w[0].1 < w[1].0);
    if disjoint {
        RangeIndex::Disjoint(sorted)
    } else {
        RangeIndex::Ordered(ranges)
    }
}

/// "No later row" in [`Row::link`].
const NO_ROW: u32 = u32::MAX;

/// One jump row: stage `stage` can transition the row's state, reading
/// value slot `slot`, probing the match group the row owns. Fusing the
/// header and group into one arena element makes a transition two
/// dependent loads (row, probe) instead of four (offset, entry, stage,
/// group).
#[derive(Debug, Clone)]
struct Row {
    stage: u32,
    slot: u32,
    /// Index of the same state's row at its next later stage, or
    /// [`NO_ROW`] — always `NO_ROW` in compiler output, where a state
    /// belongs to one stage.
    link: u32,
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
    /// The row of a state no stage holds entries for (a terminal):
    /// every probe misses.
    fn empty() -> Row {
        Row {
            stage: 0,
            slot: 0,
            link: NO_ROW,
            fast: FastProbe::No,
            group: Group::lower(std::iter::empty()),
        }
    }

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
/// install with [`CompiledPipeline::lower`]; evaluate with a
/// slot-indexed value array. Evaluation performs zero heap allocations.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    /// Interned operands; `slots[i]` is what value index `i` must hold.
    slots: Vec<Operand>,
    /// Number of match stages.
    depth: u32,
    /// `rows[s]` for `s < leaf.len()` is state `s`'s first row; later
    /// rows of multi-stage states follow, reached through `Row::link`.
    rows: Vec<Row>,
    /// `leaf[s]` is state `s`'s action; `ActionId::DEFAULT` when the
    /// leaf table has no entry for it.
    leaf: Vec<ActionId>,
    /// Action arena; index 0 is the leaf default.
    actions: Vec<Action>,
    /// The initial state, as a lowered (dense) id.
    pub initial: StateId,
}

impl CompiledPipeline {
    /// Lower an installed pipeline. Entries are taken in canonical
    /// order — stable-sorted by `(state, priority desc)` exactly like
    /// [`StageTable::new`] — so lowering is correct even if the public
    /// `entries` field was mutated without a `reindex`.
    pub fn lower(pipeline: &Pipeline) -> CompiledPipeline {
        let mut ids: Vec<StateId> = pipeline
            .stages
            .iter()
            .flat_map(|st| &st.entries)
            .flat_map(|e| [e.state, e.next])
            .chain(pipeline.leaf.actions.keys().copied())
            .chain([pipeline.initial])
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let dense = |s: StateId| {
            ids.binary_search(&s).expect("every mentioned id was collected") as StateId
        };

        let mut slots: Vec<Operand> = Vec::new();
        let mut rows: Vec<Row> = ids.iter().map(|_| Row::empty()).collect();
        // Last row of each state's chain so far; `NO_ROW` while the
        // state's own `rows[s]` is still the empty placeholder.
        let mut tail = vec![NO_ROW; ids.len()];
        for (si, stage) in pipeline.stages.iter().enumerate() {
            let slot = slots.iter().position(|o| o == &stage.operand).unwrap_or_else(|| {
                slots.push(stage.operand.clone());
                slots.len() - 1
            });
            let order = scan_order(stage);
            for run in order.chunk_by(|&a, &b| stage.entries[a].state == stage.entries[b].state) {
                let s = dense(stage.entries[run[0]].state) as usize;
                let group = Group::lower(run.iter().map(|&k| {
                    let e = &stage.entries[k];
                    (&e.spec, dense(e.next))
                }));
                let row = Row {
                    stage: si as u32,
                    slot: slot as u32,
                    link: NO_ROW,
                    fast: FastProbe::of(&group),
                    group,
                };
                // Stages are visited in order, so each chain is
                // stage-ascending.
                if tail[s] == NO_ROW {
                    rows[s] = row;
                    tail[s] = s as u32;
                } else {
                    let at = rows.len() as u32;
                    rows[tail[s] as usize].link = at;
                    tail[s] = at;
                    rows.push(row);
                }
            }
        }

        let mut actions = vec![pipeline.leaf.default.clone()];
        let mut leaf = vec![ActionId::DEFAULT; ids.len()];
        let mut leaf_states: Vec<StateId> = pipeline.leaf.actions.keys().copied().collect();
        leaf_states.sort_unstable();
        for s in leaf_states {
            leaf[dense(s) as usize] = ActionId(actions.len() as u32);
            actions.push(pipeline.leaf.actions[&s].0.clone());
        }
        CompiledPipeline {
            slots,
            depth: pipeline.stages.len() as u32,
            rows,
            leaf,
            actions,
            initial: dense(pipeline.initial),
        }
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
    /// Flattened dispatch: follow the current state's rows instead of
    /// probing every stage. Stages skipped between transitions have no
    /// entry for the state — guaranteed §V-D pass-throughs — so they
    /// are bulk-counted as misses (`hits + misses == depth` per
    /// message) and `entries_scanned` counts only the probes made.
    #[inline]
    pub fn eval_counted(&self, values: &[Option<Value>], counters: &mut EvalCounters) -> ActionId {
        let rows = &self.rows[..];
        let depth = self.depth;
        let mut state = self.initial;
        let mut pos: u32 = 0;
        // Accumulate in registers; one write-back on exit.
        let mut hits: u64 = 0;
        let mut misses: u64 = 0;
        let mut scanned = counters.entries_scanned;
        'transition: while pos < depth {
            let mut row = &rows[state as usize];
            loop {
                // A row behind the cursor belongs to a stage already
                // evaluated under this state's predecessors.
                if row.stage >= pos {
                    misses += u64::from(row.stage - pos);
                    pos = row.stage + 1;
                    let value = values[row.slot as usize].as_ref();
                    if let Some(next) = row.probe(value, &mut scanned) {
                        hits += 1;
                        state = next;
                        continue 'transition;
                    }
                    misses += 1;
                }
                // Only a later stage's row can still transition the
                // state; without one the rest of the pipeline passes it
                // through.
                match rows.get(row.link as usize) {
                    Some(later) => row = later,
                    None => break 'transition,
                }
            }
        }
        counters.stage_hits += hits;
        counters.stage_misses += misses + u64::from(depth - pos);
        counters.entries_scanned = scanned;
        self.leaf[state as usize]
    }

    /// Total entries across all lowered stages (diagnostics).
    pub fn total_entries(&self) -> usize {
        self.rows.iter().map(|row| row.group.len()).sum()
    }
}

/// A stage's entry indices in canonical scan order, independent of the
/// order of the pub `entries` field.
fn scan_order(stage: &StageTable) -> Vec<usize> {
    let mut order: Vec<usize> = (0..stage.entries.len()).collect();
    order.sort_by(|&a, &b| {
        let (ea, eb) = (&stage.entries[a], &stage.entries[b]);
        ea.state.cmp(&eb.state).then(eb.spec.priority().cmp(&ea.spec.priority()))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{LeafTable, MatchKind, TableEntry};
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
    fn overlapping_ranges_fall_back_to_scan_order() {
        let p = Pipeline {
            stages: vec![StageTable::new(
                op("x"),
                MatchKind::Range,
                vec![
                    TableEntry { state: 0, spec: MatchSpec::IntRange(0, 100), next: 1 },
                    TableEntry { state: 0, spec: MatchSpec::IntRange(50, 150), next: 2 },
                ],
            )],
            leaf: leaf(&[(1, Action::Forward(vec![1])), (2, Action::Forward(vec![2]))]),
            initial: 0,
        };
        let probes: Vec<HashMap<String, Value>> = [-1i64, 0, 49, 50, 100, 101, 150, 151]
            .iter()
            .map(|v| HashMap::from([("x".to_string(), Value::Int(*v))]))
            .collect();
        assert_equivalent(&p, &probes);
    }

    #[test]
    fn duplicate_exact_keys_keep_first_in_scan_order() {
        // Every key appears twice with different targets;
        // StageTable::new's stable sort keeps input order, so the
        // interpreter hits the first. One key per group exercises the
        // sorted index, 2 × HASH_MIN_KEYS the open-addressed one; state
        // 0 owns both stages, so the string row hangs off the int row.
        for keys in [1, 2 * HASH_MIN_KEYS as i64] {
            let twice = |spec: fn(i64) -> MatchSpec, first: StateId| -> Vec<TableEntry> {
                (0..keys)
                    .flat_map(|k| [(k, first), (k, first + 1)])
                    .map(|(k, next)| TableEntry { state: 0, spec: spec(k), next })
                    .collect()
            };
            let p = Pipeline {
                stages: vec![
                    StageTable::new(op("x"), MatchKind::Exact, twice(MatchSpec::IntExact, 1)),
                    StageTable::new(
                        op("s"),
                        MatchKind::Exact,
                        twice(|k| MatchSpec::StrExact(format!("K{k}")), 3),
                    ),
                ],
                leaf: leaf(
                    &(1..=4).map(|s| (s, Action::Forward(vec![s as u16]))).collect::<Vec<_>>(),
                ),
                initial: 0,
            };
            let c = CompiledPipeline::lower(&p);
            let hashed = keys as usize >= HASH_MIN_KEYS;
            let str_row = &c.rows[c.rows[0].link as usize];
            assert_eq!(matches!(c.rows[0].group.int_exact, ExactIndex::Hashed(_)), hashed);
            assert_eq!(matches!(str_row.group.str_exact, ExactIndex::Hashed(_)), hashed);
            assert_eq!(c.total_entries(), 2 * keys as usize);
            for k in 0..keys {
                let (x, s) = (Value::Int(k), Value::Str(format!("K{k}")));
                assert_eq!(c.action(c.eval(&[Some(x.clone()), None])), &Action::Forward(vec![1]));
                assert_eq!(c.action(c.eval(&[None, Some(s.clone())])), &Action::Forward(vec![3]));
                assert_equivalent(
                    &p,
                    &[HashMap::from([("x".to_string(), x)]), HashMap::from([("s".to_string(), s)])],
                );
            }
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
    fn sparse_leaf_beyond_dense_limit() {
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
        let c = CompiledPipeline::lower(&p);
        assert_eq!(c.action(c.eval(&[Some(Value::Int(1))])), &Action::Forward(vec![9]));
        assert_eq!(c.action(c.eval(&[Some(Value::Int(2))])), &Action::Drop);
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
