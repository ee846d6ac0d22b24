//! Differential tests pinning the compiled fast path to the
//! interpreter: `CompiledPipeline::lower(p).eval(..)` must agree with
//! `Pipeline::evaluate(..)` for
//!
//! * arbitrary hand-built stage tables (random states, exact / range /
//!   prefix / `Any` entries, including overlapping and empty ranges,
//!   cross-typed probes, and missing attributes), and
//! * everything the real rule compiler emits (language → BDD → tables
//!   → lowering).
//!
//! A fixed-vector test additionally pins the §V-D missing-field rule —
//! a packet without the attribute takes only `Any` entries — through
//! the lowering.

use std::collections::HashMap;

use camus_core::compiled::{CompiledPipeline, EvalCounters};
use camus_core::compiler::Compiler;
use camus_core::pipeline::{
    LeafTable, MatchKind, MatchSpec, Pipeline, StageTable, TableEntry, STATE_INIT,
};
use camus_lang::ast::{Action, Expr, Operand, Predicate, Rel, Rule};
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
        (-5i64..10).prop_map(MatchSpec::IntExact),
        (-5i64..10, -5i64..10).prop_map(|(a, b)| MatchSpec::IntRange(a.min(b), a.max(b))),
        // Inverted bounds: an unsatisfiable entry the lowering drops.
        Just(MatchSpec::IntRange(7, 3)),
        sym.clone().prop_map(|s| MatchSpec::StrExact(s.into())),
        sym.prop_map(|s| MatchSpec::StrPrefix(s.into())),
        Just(MatchSpec::Any),
    ]
}

/// The state universe: the small ids the compiler emits plus ids a
/// hand-written pipeline may use — far past any dense table, and the
/// `u32::MAX` the exact index uses as its free-slot mark.
const STATES: [u32; 8] = [0, 1, 2, 3, 4, 1 << 22, (1 << 22) + 5, u32::MAX];

fn arb_state() -> impl Strategy<Value = u32> {
    (0..STATES.len()).prop_map(|i| STATES[i])
}

fn arb_entries() -> impl Strategy<Value = Vec<TableEntry>> {
    prop::collection::vec((arb_state(), arb_spec(), arb_state()), 0..12).prop_map(|v| {
        v.into_iter().map(|(state, spec, next)| TableEntry { state, spec, next }).collect()
    })
}

/// Strategy: a whole pipeline of random stage tables over three fields
/// (fields may repeat across stages — interning must still agree).
fn arb_pipeline() -> impl Strategy<Value = Pipeline> {
    let field = prop_oneof![Just("price"), Just("shares"), Just("stock")];
    prop::collection::vec((field, arb_entries()), 1..5).prop_map(|stages| {
        let stages = stages
            .into_iter()
            .map(|(f, entries)| {
                StageTable::new(Operand::Field(f.to_string()), MatchKind::Ternary, entries)
            })
            .collect();
        let mut actions = HashMap::new();
        for s in STATES {
            if s % 2 == 1 {
                actions.insert(s, (Action::Forward(vec![s as u16]), None));
            }
        }
        Pipeline { stages, leaf: LeafTable { actions, default: Action::Drop }, initial: STATE_INIT }
    })
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

    /// Tentpole safety net, half 1: random hand-built stage tables.
    #[test]
    fn compiled_equals_interpreter_on_random_tables(
        pipeline in arb_pipeline(),
        probes in prop::collection::vec((arb_opt_value(), arb_opt_value(), arb_opt_value()), 1..16),
    ) {
        let compiled = CompiledPipeline::lower(&pipeline);
        for probe in &probes {
            let lookup = probe_lookup(probe);
            let want = pipeline.evaluate(&lookup);
            let got = eval_compiled(&compiled, &lookup);
            prop_assert_eq!(got, want, "probe {:?}", probe);
        }
    }

    /// Tentpole safety net, half 2: everything the rule compiler emits.
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
