//! Table emission is linear in an exact-match band's length.
//!
//! A band of k `==` members is a lo-spine of k nodes: every path down
//! it excludes one more value. Emission keeps those exclusions once per
//! walk, so four times the members must cost about 4× the time. A walk
//! that copies the path's region into each child copies a set of up to
//! k values at every node and costs 14–17×. Each size keeps the fastest
//! of seven emissions: single runs take about a millisecond, where one
//! preemption would decide the ratio.

use std::time::{Duration, Instant};

use camus_bdd::{Bdd, BddBuilder};
use camus_core::multicast::MulticastAllocator;
use camus_core::tables::bdd_to_pipeline;
use camus_lang::parser::parse_rules;

fn band(members: usize, rule: impl Fn(usize) -> String) -> Bdd {
    let src: String = (0..members).map(|i| format!("{}: fwd({})\n", rule(i), i % 4 + 1)).collect();
    BddBuilder::from_rules(&parse_rules(&src).unwrap()).build()
}

fn fastest_emit_time(bdd: &Bdd, members: usize) -> Duration {
    (0..7)
        .map(|_| {
            let mut multicast = MulticastAllocator::new(MulticastAllocator::DEFAULT_LIMIT);
            let t0 = Instant::now();
            let pipeline = bdd_to_pipeline(std::hint::black_box(bdd), &mut multicast).unwrap();
            let elapsed = t0.elapsed();
            // One exact entry per member plus the band's wildcard exit.
            assert_eq!(pipeline.stages[0].entries.len(), members + 1);
            elapsed
        })
        .min()
        .unwrap()
}

fn assert_linear(kind: &str, rule: impl Fn(usize) -> String + Copy) {
    let small = fastest_emit_time(&band(2_000, rule), 2_000);
    let large = fastest_emit_time(&band(8_000, rule), 8_000);
    assert!(
        large < small * 8,
        "emitting 8k {kind} members took {large:?}, 2k took {small:?}: more than 8x for 4x"
    );
}

#[test]
fn emitting_an_int_band_scales_with_its_length() {
    // Even keys: the excluded points never merge into one interval.
    assert_linear("int", |i| format!("id == {}", 2 * i));
}

#[test]
fn emitting_a_string_band_scales_with_its_length() {
    assert_linear("string", |i| format!("sym == S{i}"));
}
