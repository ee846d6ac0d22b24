//! Lowering is (quasi-)linear in the size of a match group.
//!
//! One state holding N distinct exact int keys is the shape of an
//! identifier-routing core switch. Building its group is a sort and a
//! hash-table fill, so four times the keys must cost about 4.3× the
//! time (n log n); a per-key scan of the keys already seen — what
//! lowering once did to find duplicates — costs 16×. Each size keeps
//! the fastest of seven lowerings: a busy host only ever slows a run
//! down, so the minimum is the run it disturbed least.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use camus_core::compiled::CompiledPipeline;
use camus_core::pipeline::{
    LeafTable, MatchKind, MatchSpec, Pipeline, StageTable, TableEntry, STATE_INIT,
};
use camus_lang::ast::{Action, Operand};
use camus_lang::value::Value;

fn one_state_exact_stage(keys: u32) -> Pipeline {
    let entries = (0..keys)
        .map(|k| TableEntry { state: STATE_INIT, spec: MatchSpec::IntExact(i64::from(k)), next: 1 })
        .collect();
    Pipeline {
        stages: vec![StageTable::new(Operand::Field("id".into()), MatchKind::Exact, entries)],
        leaf: LeafTable {
            actions: HashMap::from([(1, (Action::Forward(vec![1]), None))]),
            default: Action::Drop,
        },
        initial: STATE_INIT,
    }
}

fn fastest_lower_time(pipeline: &Pipeline) -> Duration {
    (0..7)
        .map(|_| {
            let t0 = Instant::now();
            let lowered = CompiledPipeline::lower(std::hint::black_box(pipeline));
            let elapsed = t0.elapsed();
            // Every key lowered: a sample of them forwards.
            for e in pipeline.stages[0].entries.iter().step_by(997) {
                let MatchSpec::IntExact(k) = e.spec else { unreachable!("exact keys only") };
                let id = lowered.eval(&[Some(Value::Int(k))]);
                assert_eq!(lowered.action(id), &Action::Forward(vec![1]));
            }
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
fn lowering_an_exact_group_scales_with_its_size() {
    let small = fastest_lower_time(&one_state_exact_stage(50_000));
    let large = fastest_lower_time(&one_state_exact_stage(200_000));
    assert!(
        large < small * 8,
        "lowering 200k keys took {large:?}, 50k took {small:?}: more than 8x for 4x the keys"
    );
}
