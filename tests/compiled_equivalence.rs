//! Differential tests pinning the compiled fast path to the
//! interpreter: `CompiledPipeline::lower(p).eval(..)` must agree with
//! `Pipeline::evaluate(..)` for
//!
//! * every hand-built stage table that lowers (random states, exact /
//!   range / prefix / `Any` entries, cross-typed probes, and missing
//!   attributes) — a table that does not lower must break the
//!   invariant `try_lower` names (overlapping or empty ranges, sparse
//!   ids, split states, backward jumps, duplicate keys), and
//! * everything the real rule compiler emits (language → BDD → tables
//!   → lowering), which must always lower, scratch or delta.
//!
//! A fixed-vector test additionally pins the §V-D missing-field rule —
//! a packet without the attribute takes only `Any` entries — through
//! the lowering.

use std::collections::HashMap;

use camus_core::compiled::{CompiledPipeline, EvalCounters, ShapeError};
use camus_core::compiler::{CompileState, Compiler, RuleView};
use camus_core::pipeline::{
    LeafTable, MatchKind, MatchSpec, Pipeline, StageTable, TableEntry, STATE_INIT,
};
use camus_core::statics::compile_static;
use camus_lang::ast::{Action, Expr, Operand, Predicate, Rel, Rule};
use camus_lang::spec::itch_spec;
use camus_lang::value::Value;
use proptest::prelude::*;

/// Evaluate a pipeline through the compiled path. Every stage is
/// accounted as exactly one hit or one miss, whatever was skipped.
fn eval_compiled(
    compiled: &CompiledPipeline,
    lookup: impl Fn(&Operand) -> Option<Value>,
) -> Action {
    let values: Vec<Option<Value>> = compiled.slots().iter().map(&lookup).collect();
    let mut counters = EvalCounters::default();
    let id = compiled.eval_counted(&values, &mut counters);
    assert_eq!(counters.stage_hits + counters.stage_misses, compiled.depth() as u64);
    compiled.action(id).clone()
}

/// Strategy: one table entry spec over a small typed universe,
/// including empty ranges and every specificity tier.
fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    let sym = prop_oneof![Just("GO"), Just("GOO"), Just("GOOGL"), Just("AA"), Just("AAPL")];
    prop_oneof![
        4 => (-5i64..10).prop_map(MatchSpec::IntExact),
        4 => (-5i64..10, -5i64..10).prop_map(|(a, b)| MatchSpec::IntRange(a.min(b), a.max(b))),
        // Inverted bounds: an unsatisfiable entry.
        1 => Just(MatchSpec::IntRange(7, 3)),
        4 => sym.clone().prop_map(|s| MatchSpec::StrExact(s.into())),
        4 => sym.prop_map(|s| MatchSpec::StrPrefix(s.into())),
        4 => Just(MatchSpec::Any),
    ]
}

/// State ids far past any table this small, up to the `u32::MAX` the
/// exact index uses as its free-slot mark.
const FAR: [u32; 3] = [1 << 22, (1 << 22) + 5, u32::MAX];

/// An entry's state or target, resolved once its stage `i` and the
/// depth are known.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// One of stage `i`'s own states, `2i` and `2i + 1`.
    Own(u32),
    /// A state of a later stage, or a terminal: `2i + 2 ..= 2·depth + 1`.
    Later(u32),
    /// Any near state.
    Near(u32),
    Far(usize),
}

impl Pick {
    fn state(self, i: u32, depth: u32) -> u32 {
        match self {
            Pick::Own(k) => 2 * i + k % 2,
            Pick::Later(k) => 2 * i + 2 + k % (2 * (depth - i)),
            Pick::Near(k) => k % (2 * depth + 2),
            Pick::Far(j) => FAR[j],
        }
    }
}

/// Strategy: mostly `compiler`'s pick (the compiler's shape), else any
/// state, near or far.
fn arb_pick(compiler: fn(u32) -> Pick) -> impl Strategy<Value = Pick> {
    prop_oneof![
        80 => (0u32..64).prop_map(compiler),
        2 => (0u32..64).prop_map(Pick::Near),
        1 => (0..FAR.len()).prop_map(Pick::Far),
    ]
}

/// Strategy: a whole pipeline of random stage tables over three fields
/// (fields may repeat across stages — interning must still agree).
/// Stage `i`'s entries mostly come from its own states and go to a
/// later stage's or a terminal. The near ids an entry mentions are then
/// numbered `0..n` in order, as the compiler numbers its states; far
/// ids stay far. The leaf forwards from every odd near target.
fn arb_pipeline() -> impl Strategy<Value = Pipeline> {
    let field = prop_oneof![Just("price"), Just("shares"), Just("stock")];
    let entry = (arb_pick(Pick::Own), arb_spec(), arb_pick(Pick::Later));
    prop::collection::vec((field, prop::collection::vec(entry, 0..6)), 1..5).prop_map(|stages| {
        let depth = stages.len() as u32;
        let mut stages: Vec<(&str, Vec<TableEntry>)> = (0..depth)
            .zip(stages)
            .map(|(i, (field, entries))| {
                let entries = entries.into_iter().map(|(state, spec, next)| TableEntry {
                    state: state.state(i, depth),
                    spec,
                    next: next.state(i, depth),
                });
                (field, entries.collect())
            })
            .collect();
        let near = |s: u32| s < 2 * depth + 2;
        let mut ids: Vec<u32> =
            stages.iter().flat_map(|(_, es)| es).flat_map(|e| [e.state, e.next]).collect();
        ids.push(STATE_INIT);
        ids.retain(|&s| near(s));
        ids.sort_unstable();
        ids.dedup();
        let dense = |s: u32| if near(s) { ids.binary_search(&s).unwrap() as u32 } else { s };
        let mut actions = HashMap::new();
        for e in stages.iter_mut().flat_map(|(_, es)| es) {
            if near(e.next) && e.next % 2 == 1 {
                actions.insert(dense(e.next), (Action::Forward(vec![e.next as u16]), None));
            }
            (e.state, e.next) = (dense(e.state), dense(e.next));
        }
        let stages = stages
            .into_iter()
            .map(|(field, es)| {
                StageTable::new(Operand::Field(field.into()), MatchKind::Ternary, es)
            })
            .collect();
        Pipeline { stages, leaf: LeafTable { actions, default: Action::Drop }, initial: STATE_INIT }
    })
}

/// Does `p` really break the invariant `err` names? Checked on the
/// tables as given, independently of the lowering.
fn breaks(p: &Pipeline, err: &ShapeError) -> bool {
    let held = |stage: usize, state: u32| -> Vec<&TableEntry> {
        p.stages[stage].entries.iter().filter(|e| e.state == state).collect()
    };
    let pairs = |stage: usize, state: u32, twin: &dyn Fn(&MatchSpec, &MatchSpec) -> bool| {
        let entries = held(stage, state);
        entries
            .iter()
            .enumerate()
            .any(|(a, x)| entries[a + 1..].iter().any(|y| twin(&x.spec, &y.spec)))
    };
    match *err {
        ShapeError::SparseState { state, bound } => {
            let mentioned = p
                .stages
                .iter()
                .flat_map(|st| &st.entries)
                .any(|e| e.state == state || e.next == state)
                || p.leaf.actions.contains_key(&state)
                || p.initial == state;
            bound == p.total_entries() + 1 && state as usize >= bound && mentioned
        }
        ShapeError::Unsorted { stage, state } => {
            // Not as `StageTable::new` leaves it.
            let st = &p.stages[stage];
            let canonical = StageTable::new(st.operand.clone(), st.kind, st.entries.clone());
            !held(stage, state).is_empty() && canonical.entries != st.entries
        }
        ShapeError::SplitState { state, stages: [a, b] } => {
            a < b && !held(a, state).is_empty() && !held(b, state).is_empty()
        }
        ShapeError::BackwardJump { stage, state, next } => {
            held(stage, state).iter().any(|e| e.next == next)
                && (0..=stage).any(|k| !held(k, next).is_empty())
        }
        ShapeError::EmptyRange { stage, state } => held(stage, state)
            .iter()
            .any(|e| matches!(e.spec, MatchSpec::IntRange(lo, hi) if lo > hi)),
        ShapeError::OverlappingRanges { stage, state } => pairs(stage, state, &|x, y| {
            matches!((x, y), (MatchSpec::IntRange(a, b), MatchSpec::IntRange(c, d))
                if a <= b && c <= d && a <= d && c <= b)
        }),
        ShapeError::DuplicateKey { stage, state } => pairs(stage, state, &|x, y| {
            x == y && matches!(x, MatchSpec::IntExact(_) | MatchSpec::StrExact(_) | MatchSpec::Any)
        }),
    }
}

/// Strategy: one probe value — absent, an int, or a string (types may
/// mismatch the entries; both evaluators must shrug identically).
fn arb_opt_value() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        Just(None),
        (-6i64..12).prop_map(|i| Some(Value::Int(i))),
        prop_oneof![Just("GO"), Just("GOO"), Just("GOOGL"), Just("AA"), Just("AAPL"), Just("ZZ")]
            .prop_map(|s| Some(Value::Str(s.into()))),
    ]
}

type Probe = (Option<Value>, Option<Value>, Option<Value>);

fn probe_lookup(probe: &Probe) -> impl Fn(&Operand) -> Option<Value> + '_ {
    move |op: &Operand| match op.key().as_str() {
        "price" => probe.0.clone(),
        "shares" => probe.1.clone(),
        "stock" => probe.2.clone(),
        _ => None,
    }
}

/// Strategy: rule sets as the compiler sees them (mirrors the seed's
/// `compiler_equivalence` universe).
fn arb_rules() -> impl Strategy<Value = Vec<Rule>> {
    let int_field = prop_oneof![Just("price"), Just("shares")];
    let str_rel = prop_oneof![Just(Rel::Eq), Just(Rel::Ne), Just(Rel::Prefix)];
    let int_rel = prop_oneof![
        Just(Rel::Eq),
        Just(Rel::Ne),
        Just(Rel::Lt),
        Just(Rel::Le),
        Just(Rel::Gt),
        Just(Rel::Ge)
    ];
    let sym = prop_oneof![Just("AA"), Just("AAPL"), Just("GOOGL"), Just("GO")];
    let pred = prop_oneof![
        (int_field, int_rel, -5i64..15).prop_map(|(f, r, c)| Predicate::field(f, r, c)),
        (str_rel, sym).prop_map(|(r, s)| Predicate::field("stock", r, s)),
    ];
    let leaf = prop_oneof![pred.prop_map(Expr::Atom), Just(Expr::True), Just(Expr::False)];
    let expr = leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    });
    prop::collection::vec(expr, 1..8).prop_map(|filters| {
        filters
            .into_iter()
            .enumerate()
            .map(|(i, filter)| Rule { filter, action: Action::Forward(vec![i as u16 + 1]) })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Half 1: random hand-built stage tables. Each either lowers and
    /// agrees with the interpreter, or `try_lower` names an invariant
    /// the tables really break.
    #[test]
    fn compiled_equals_interpreter_on_random_tables(
        pipeline in arb_pipeline(),
        probes in prop::collection::vec((arb_opt_value(), arb_opt_value(), arb_opt_value()), 1..16),
    ) {
        match CompiledPipeline::try_lower(&pipeline) {
            Ok(compiled) => {
                for probe in &probes {
                    let lookup = probe_lookup(probe);
                    let want = pipeline.evaluate(&lookup);
                    let got = eval_compiled(&compiled, &lookup);
                    prop_assert_eq!(got, want, "probe {:?}", probe);
                }
            }
            Err(err) => prop_assert!(breaks(&pipeline, &err), "{err}:\n{pipeline}"),
        }
    }

    /// Half 2: everything the rule compiler emits.
    #[test]
    fn compiled_equals_interpreter_on_compiler_output(
        rules in arb_rules(),
        probes in prop::collection::vec((arb_opt_value(), arb_opt_value(), arb_opt_value()), 1..10),
    ) {
        let pipeline = Compiler::new().compile(&rules).unwrap().pipeline;
        let compiled = CompiledPipeline::lower(&pipeline);
        for probe in &probes {
            let lookup = probe_lookup(probe);
            let want = pipeline.evaluate(&lookup);
            let got = eval_compiled(&compiled, &lookup);
            prop_assert_eq!(got, want, "probe {:?}", probe);
        }
    }

    /// The compiler emits only its own table shape: every scratch
    /// compile, and every delta compile through churn, lowers — with
    /// and without the ITCH statics.
    #[test]
    fn compiler_output_is_in_compiler_shape(
        rules in arb_rules(),
        churn in prop::collection::vec((0usize..64, arb_rules()), 1..6),
        itch in any::<bool>(),
    ) {
        let compiler = if itch {
            Compiler::new().with_static(compile_static(&itch_spec()).unwrap())
        } else {
            Compiler::new()
        };
        let in_shape = |pipeline: &Pipeline| {
            CompiledPipeline::try_lower(pipeline).map(drop).map_err(|e| format!("{e}:\n{pipeline}"))
        };
        let scratch = compiler.compile(&rules).unwrap();
        prop_assert_eq!(in_shape(&scratch.pipeline), Ok(()));
        // Each step swaps one rule for another's filter and replays
        // the difference on the maintained diagram.
        let mut state = CompileState::default();
        let mut list = rules;
        for (at, fresh) in churn {
            let delta = compiler.compile_delta(&mut state, &RuleView::from(&list[..])).unwrap();
            prop_assert_eq!(in_shape(&delta.pipeline), Ok(()));
            list.remove(at % list.len());
            list.extend(fresh.into_iter().take(2));
        }
        let delta = compiler.compile_delta(&mut state, &RuleView::from(&list[..])).unwrap();
        prop_assert_eq!(in_shape(&delta.pipeline), Ok(()));
    }
}

/// §V-D fixed vector: a packet missing the attribute takes only `Any`
/// entries — more specific entries must not fire, and without an `Any`
/// the state passes through to the default action. Pinned through the
/// lowering, not just the interpreter.
#[test]
fn missing_field_takes_only_any_entries_after_lowering() {
    let stage =
        |entries| StageTable::new(Operand::Field("price".to_string()), MatchKind::Range, entries);
    let leaf = |states: &[u32]| LeafTable {
        actions: states.iter().map(|&s| (s, (Action::Forward(vec![s as u16]), None))).collect(),
        default: Action::Drop,
    };

    // With an Any fallback: present value takes the range, absent value
    // the Any.
    let with_any = Pipeline {
        stages: vec![stage(vec![
            TableEntry { state: 0, spec: MatchSpec::IntRange(0, 100), next: 1 },
            TableEntry { state: 0, spec: MatchSpec::Any, next: 2 },
        ])],
        leaf: leaf(&[1, 2]),
        initial: STATE_INIT,
    };
    let c = CompiledPipeline::lower(&with_any);
    assert_eq!(c.action(c.eval(&[Some(Value::Int(50))])), &Action::Forward(vec![1]));
    assert_eq!(c.action(c.eval(&[None])), &Action::Forward(vec![2]));

    // Without one: the missing field is a lookup miss; state 0 has no
    // leaf entry, so the default (drop) applies.
    let without_any = Pipeline {
        stages: vec![stage(vec![TableEntry {
            state: 0,
            spec: MatchSpec::IntRange(0, 100),
            next: 1,
        }])],
        leaf: leaf(&[1]),
        initial: STATE_INIT,
    };
    let c = CompiledPipeline::lower(&without_any);
    assert_eq!(c.action(c.eval(&[Some(Value::Int(7))])), &Action::Forward(vec![1]));
    assert_eq!(c.action(c.eval(&[None])), &Action::Drop);
}
