//! Measured fast-path throughput: the compiled evaluator vs the
//! interpreted reference, across filter counts, shard counts, and
//! pipeline depths.
//!
//! Five lanes:
//!
//! * **Table A** (`results/throughput.csv`) — the INT filtering
//!   workload end-to-end through [`Switch`]: per-packet eval latency of
//!   the interpreted reference path vs the compiled fast path, then
//!   batched ([`Switch::process_batch_indexed`]) and sharded-parallel
//!   throughput in Mpps.
//! * **Table B** — evaluator scaling with pipeline depth, isolated
//!   from parsing: hand-built state-chain pipelines of depth 1–8 timed
//!   through [`CompiledPipeline::eval`] directly.
//! * **Table C** — the per-switch [`SwitchStats`] eval counters
//!   (stage hits/misses, entries scanned, batch sizes, copy sharing)
//!   observed during the compiled runs.
//! * **Table D** — per-switch resource utilization vs the default
//!   Tofino-class budget.
//! * **Table E** (`results/throughput_scaling.csv`) — the shard
//!   scaling ladder: aggregate Mpps at 1/2/4/8 shards per filter
//!   count, with the speedup over one shard.
//!
//! ## How the sharded lane measures
//!
//! Each shard owns a fully private [`Switch`] **constructed before the
//! clock starts** (an earlier revision cloned the compiled pipeline
//! inside the timed region, burying the real scaling behind clone
//! cost) and drives its contiguous slice of the packet stream through
//! `process_batch_indexed` with *global* packet indices, so shards
//! agree with the sequential lanes on timestamp-keyed window
//! semantics. Each shard's busy time is measured individually and the
//! aggregate is `total packets / slowest shard's busy time` — the
//! throughput of the shard array with one core per shard. When the
//! host actually has a core per shard the shards run concurrently
//! (mode `concurrent` in the CSVs, per-shard wall time); on smaller
//! hosts they run back-to-back in isolation (mode `isolated`), which
//! measures the same quantity without cores fighting over time slices.
//! The driver asserts the per-shard counters sum exactly to the
//! single-core lane's, so the sharded run provably did the same
//! forwarding work.

use super::Scale;
use crate::output::{fmt_mpps, fmt_ns, Table};
use camus_core::compiled::{CompiledPipeline, EvalCounters};
use camus_core::compiler::Compiler;
use camus_core::pipeline::{
    LeafTable, MatchKind, MatchSpec, Pipeline, StageTable, TableEntry, STATE_INIT,
};
use camus_core::resources::{self, ResourceBudget, ResourceReport};
use camus_core::statics::compile_static;
use camus_dataplane::packet::{Packet, PacketBuilder};
use camus_dataplane::switch::{Switch, SwitchConfig, SwitchOutput, SwitchStats};
use camus_lang::ast::{Action, Operand, Port, Rule};
use camus_lang::parser::parse_expr;
use camus_lang::spec::int_spec;
use camus_lang::value::Value;
use camus_workloads::int::{IntFeed, IntFeedConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Shard counts of the scaling ladder (Table E / `parallel_scaling`).
pub(crate) const SHARD_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Packets per `process_batch_indexed` call in the driving loops.
const BATCH: usize = 64;

/// The fig. 9 filter family: 100 switch ids × rotating latency bounds.
pub(crate) fn rules(n: usize) -> Vec<Rule> {
    (0..n)
        .map(|i| Rule {
            filter: parse_expr(&format!(
                "switch_id == {} and hop_latency > {}",
                i % 100,
                100 + (i / 100) % 1000
            ))
            .unwrap(),
            action: Action::Forward(vec![(i % 64) as u16 + 1]),
        })
        .collect()
}

pub(crate) fn build_switch(n_filters: usize) -> Switch {
    let statics = compile_static(&int_spec()).expect("int spec compiles");
    let compiled =
        Compiler::new().with_static(statics.clone()).compile(&rules(n_filters)).expect("compiles");
    Switch::new(&statics, compiled.pipeline, SwitchConfig::default())
}

/// INT reports encoded as stack-only wire packets.
pub(crate) fn int_packets(n: usize) -> Vec<Packet> {
    let spec = int_spec();
    let mut feed = IntFeed::new(IntFeedConfig::default());
    feed.reports(n)
        .iter()
        .map(|r| {
            let mut b = PacketBuilder::new(&spec);
            for (k, v) in r.fields() {
                b = b.stack_field("int_report", &k, v);
            }
            b.build()
        })
        .collect()
}

/// One rung of the shard scaling ladder.
struct ShardRun {
    shards: usize,
    mpps: f64,
    mode: &'static str,
}

/// One filter-count measurement: eval latencies plus batched and
/// sharded throughput, and the compiled switch's counters.
struct Lane {
    filters: usize,
    interp_ns: f64,
    compiled_ns: f64,
    batch_mpps: f64,
    /// Aggregate Mpps at the top of the shard ladder.
    parallel_mpps: f64,
    parallel_mode: &'static str,
    scaling: Vec<ShardRun>,
    stats: SwitchStats,
}

/// Drive one switch over `pkts` in `BATCH`-sized chunks with global
/// packet indices starting at `first_index`, reusing one output
/// allocation, and return its busy time.
fn drive(sw: &mut Switch, pkts: &[(Packet, Port)], first_index: u64) -> Duration {
    let mut out: Vec<SwitchOutput> = Vec::with_capacity(BATCH);
    let t0 = Instant::now();
    let mut idx = first_index;
    for chunk in pkts.chunks(BATCH) {
        sw.process_batch_indexed(chunk, idx, &mut out);
        std::hint::black_box(&mut out);
        idx += chunk.len() as u64;
    }
    t0.elapsed()
}

/// The sharded lane: `shards` private switches built off-clock, each
/// driving its contiguous slice with global indices. Returns the
/// aggregate Mpps (`total packets / slowest shard's busy time`), how
/// the shards ran, and the merged per-shard stats.
fn measure_parallel(
    base: &Switch,
    packets: &[(Packet, Port)],
    shards: usize,
) -> (f64, &'static str, SwitchStats) {
    // Off-clock setup: the clone cost of the compiled pipeline is
    // install-time work, not forwarding work.
    let mut switches: Vec<Switch> = (0..shards).map(|_| base.clone()).collect();
    let chunk = packets.len().div_ceil(shards.max(1)).max(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let concurrent = shards > 1 && cores >= shards;
    let mut times = vec![Duration::ZERO; shards];
    if concurrent {
        std::thread::scope(|scope| {
            let handles: Vec<_> = switches
                .iter_mut()
                .zip(packets.chunks(chunk))
                .enumerate()
                .map(|(u, (sw, pkts))| scope.spawn(move || drive(sw, pkts, (u * chunk) as u64)))
                .collect();
            for (u, h) in handles.into_iter().enumerate() {
                times[u] = h.join().expect("shard thread");
            }
        });
    } else {
        for (u, (sw, pkts)) in switches.iter_mut().zip(packets.chunks(chunk)).enumerate() {
            times[u] = drive(sw, pkts, (u * chunk) as u64);
        }
    }
    let slowest = times.iter().max().copied().unwrap_or_default().as_secs_f64();
    let mut merged = SwitchStats::default();
    for sw in &switches {
        merged.merge(&sw.stats());
    }
    assert_eq!(merged.packets, packets.len() as u64, "every packet processed exactly once");
    let mode = if concurrent { "concurrent" } else { "isolated" };
    (packets.len() as f64 / slowest.max(1e-12), mode, merged)
}

fn measure_lane(n_filters: usize, packets: &[Packet], ladder: &[usize]) -> Lane {
    let base = build_switch(n_filters);

    let mut interp = base.clone();
    let t0 = Instant::now();
    for (i, p) in packets.iter().enumerate() {
        std::hint::black_box(interp.process_reference(p, 0, i as u64));
    }
    let interp_ns = t0.elapsed().as_nanos() as f64 / packets.len() as f64;

    let mut fast = base.clone();
    let t0 = Instant::now();
    for (i, p) in packets.iter().enumerate() {
        std::hint::black_box(fast.process(p, 0, i as u64));
    }
    let compiled_ns = t0.elapsed().as_nanos() as f64 / packets.len() as f64;

    let batch: Vec<(Packet, Port)> = packets.iter().map(|p| (p.clone(), 0)).collect();
    let mut batcher = base.clone();
    let batch_mpps = packets.len() as f64 / drive(&mut batcher, &batch, 0).as_secs_f64();

    // The shard ladder. The INT workload is stateless, so every rung's
    // merged per-shard counters must match the single-core batch lane
    // exactly (modulo batching shape) — the sharded run provably did
    // the same forwarding work it claims to have scaled.
    let scaling: Vec<ShardRun> = ladder
        .iter()
        .map(|&shards| {
            let (mpps, mode, merged) = measure_parallel(&base, &batch, shards);
            assert_eq!(
                merged.forwarding_stats(),
                batcher.stats().forwarding_stats(),
                "{shards}-shard run diverged from the single-core lane"
            );
            ShardRun { shards, mpps, mode }
        })
        .collect();
    let top = scaling.last().expect("ladder is non-empty");
    let (parallel_mpps, parallel_mode) = (top.mpps, top.mode);

    // Fold the batch run's counters in too (batch sizes live there).
    let mut stats = fast.stats();
    stats.batches = batcher.stats().batches;
    stats.batched_packets = batcher.stats().batched_packets;
    Lane {
        filters: n_filters,
        interp_ns,
        compiled_ns,
        batch_mpps,
        parallel_mpps,
        parallel_mode,
        scaling,
        stats,
    }
}

/// The resource report a switch's admission control would see for this
/// filter count, plus whether it fits the default Tofino-class budget.
fn resource_lane(n_filters: usize) -> (ResourceReport, bool) {
    let statics = compile_static(&int_spec()).expect("int spec compiles");
    let compiled =
        Compiler::new().with_static(statics.clone()).compile(&rules(n_filters)).expect("compiles");
    let report = resources::report(
        &compiled.pipeline,
        compiled.pipeline.multicast_group_count(),
        &statics.widths(),
    );
    let fits = ResourceBudget::default().admit(&report).is_ok();
    (report, fits)
}

/// A depth-`d` state chain over one operand: stage `i` advances state
/// `i → i+1` when the value is in range, and drops it otherwise (state
/// `d + 1`, a terminal); the leaf forwards from state `d`. Isolates
/// per-stage dispatch cost.
fn chain_pipeline(depth: usize) -> Pipeline {
    let stages = (0..depth)
        .map(|i| {
            StageTable::new(
                Operand::Field("hop_latency".to_string()),
                MatchKind::Range,
                vec![
                    TableEntry {
                        state: i as u32,
                        spec: MatchSpec::IntRange(0, 1 << 20),
                        next: i as u32 + 1,
                    },
                    TableEntry { state: i as u32, spec: MatchSpec::Any, next: depth as u32 + 1 },
                ],
            )
        })
        .collect();
    let mut actions = HashMap::new();
    actions.insert(depth as u32, (Action::Forward(vec![1]), None));
    Pipeline { stages, leaf: LeafTable { actions, default: Action::Drop }, initial: STATE_INIT }
}

fn measure_depth_ns(depth: usize, probes: usize) -> f64 {
    let compiled = CompiledPipeline::lower(&chain_pipeline(depth));
    let values: Vec<Vec<Option<Value>>> =
        (0..probes).map(|i| vec![Some(Value::Int((i % 4096) as i64))]).collect();
    // Drive `eval_counted` with a reused scratch — exactly how the
    // switch fast path calls it. Warm the caches, then time many short
    // slices and keep the fastest: the minimum over ~10 ms windows
    // estimates dispatch cost with preemption and noisy-neighbor
    // bursts excluded, where one long timed pass would average them
    // in.
    let mut scratch = EvalCounters::default();
    for v in values.iter().take(probes / 8) {
        std::hint::black_box(compiled.eval_counted(v, &mut scratch));
    }
    let slice = (probes / 8).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        for chunk in values.chunks(slice) {
            let t0 = Instant::now();
            for v in chunk {
                std::hint::black_box(compiled.eval_counted(v, &mut scratch));
            }
            best = best.min(t0.elapsed().as_nanos() as f64 / chunk.len() as f64);
        }
    }
    std::hint::black_box(scratch);
    best
}

/// One measured lane per filter count. Each lane checks its exact
/// counts: every shard count's merged per-shard counters equal the
/// single-core batch lane's.
fn lanes(scale: Scale) -> Vec<Lane> {
    let counts: &[usize] = match scale {
        Scale::Quick => &[10, 100, 1_000],
        Scale::Full => &[10, 100, 1_000, 10_000],
    };
    let packets = int_packets(scale.pick(4_000, 100_000));
    counts.iter().map(|&n| measure_lane(n, &packets, &SHARD_LADDER)).collect()
}

/// Scaling-regression guard: at the top of the ladder the sharded lane
/// must clearly beat the single-core batch lane. The threshold is
/// generous — the expected ratio approaches the shard count — to
/// tolerate CI jitter. It orders two wall-clock timings, so the
/// experiments binary checks it (the CI throughput smoke runs it
/// alone) and the unit tests, which share the host with other suites,
/// do not.
fn check_scaling(lanes: &[Lane]) {
    if let Some(l) = lanes.iter().find(|l| l.filters == 1_000) {
        assert!(
            l.parallel_mpps >= 2.0 * l.batch_mpps,
            "scaling wall is back: {} shards ({}) reached {:.2} Mpps vs {:.2} Mpps batched",
            SHARD_LADDER.last().unwrap(),
            l.parallel_mode,
            l.parallel_mpps / 1e6,
            l.batch_mpps / 1e6,
        );
    }
}

pub fn run(scale: Scale) -> Vec<Table> {
    let lanes = lanes(scale);
    check_scaling(&lanes);
    tables(scale, &lanes)
}

/// The five tables, from measured lanes.
fn tables(scale: Scale, lanes: &[Lane]) -> Vec<Table> {
    let mut a = Table::new(
        "throughput",
        "Throughput: compiled fast path vs interpreted reference (INT workload)",
        &["filters", "interp-eval", "compiled-eval", "speedup", "batch", "parallel", "par-mode"],
    );
    for l in lanes {
        a.row([
            l.filters.to_string(),
            fmt_ns(l.interp_ns as u64),
            fmt_ns(l.compiled_ns as u64),
            format!("{:.1}x", l.interp_ns / l.compiled_ns),
            fmt_mpps(l.batch_mpps),
            fmt_mpps(l.parallel_mpps),
            l.parallel_mode.to_string(),
        ]);
    }

    let depth_probes = scale.pick(200_000, 2_000_000);
    let depths: Vec<(usize, f64)> =
        [1usize, 2, 4, 8].iter().map(|&d| (d, measure_depth_ns(d, depth_probes))).collect();
    let mut b = Table::new(
        "throughput_depth",
        "Throughput: compiled eval ns vs pipeline depth (state chain)",
        &["depth", "eval-ns"],
    );
    for &(d, ns) in &depths {
        b.row([d.to_string(), format!("{ns:.1}")]);
    }

    let mut c = Table::new(
        "throughput_counters",
        "Eval counters (compiled runs)",
        &[
            "filters",
            "stage_hits",
            "stage_misses",
            "entries_scanned",
            "batches",
            "batched_pkts",
            "shared_copies",
            "deep_copies",
        ],
    );
    for l in lanes {
        let s = &l.stats;
        c.row([
            l.filters.to_string(),
            s.stage_hits.to_string(),
            s.stage_misses.to_string(),
            s.entries_scanned.to_string(),
            s.batches.to_string(),
            s.batched_packets.to_string(),
            s.shared_copies.to_string(),
            s.deep_copies.to_string(),
        ]);
    }

    let mut d = Table::new(
        "throughput_resources",
        "Per-switch resource utilization vs the default Tofino-class budget",
        &[
            "filters",
            "tables",
            "entries",
            "sram_kb",
            "tcam_entries",
            "mcast",
            "state_bits",
            "max_util_pct",
            "fits_budget",
        ],
    );
    let budget = ResourceBudget::default();
    for n in lanes.iter().map(|l| l.filters) {
        let (r, fits) = resource_lane(n);
        let max_util = budget.utilization(&r).into_iter().map(|(_, f)| f).fold(0.0f64, f64::max);
        d.row([
            n.to_string(),
            r.tables.to_string(),
            r.total_entries.to_string(),
            format!("{:.1}", r.sram_bits as f64 / 8.0 / 1024.0),
            r.tcam_entries.to_string(),
            r.multicast_groups.to_string(),
            r.state_bits.to_string(),
            format!("{:.2}", max_util * 100.0),
            fits.to_string(),
        ]);
    }

    let mut e = Table::new(
        "throughput_scaling",
        "Throughput scaling ladder: aggregate Mpps by shard count",
        &["filters", "shards", "mode", "mpps", "speedup-vs-1"],
    );
    for l in lanes {
        let one = l.scaling.first().map_or(1.0, |r| r.mpps);
        for r in &l.scaling {
            e.row([
                l.filters.to_string(),
                r.shards.to_string(),
                r.mode.to_string(),
                fmt_mpps(r.mpps),
                format!("{:.2}x", r.mpps / one),
            ]);
        }
    }

    vec![a, b, c, d, e]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_measures_consistently() {
        let packets = int_packets(400);
        let lane = measure_lane(100, &packets, &[1, 2]);
        assert!(lane.interp_ns > 0.0 && lane.compiled_ns > 0.0);
        assert!(lane.batch_mpps > 0.0 && lane.parallel_mpps > 0.0);
        assert_eq!(lane.scaling.len(), 2);
        // The compiled switch actually evaluated every packet.
        let s = &lane.stats;
        assert_eq!(s.stage_hits + s.stage_misses, 400 * 2, "2 stages x 400 stack evals");
        assert_eq!(s.batched_packets, 400);
        assert!(s.batches >= 7, "400 packets in chunks of 64");
    }

    #[test]
    fn sharded_lane_stats_sum_to_single_core() {
        // measure_parallel asserts forwarding-stat equality internally;
        // this pins the merge arithmetic itself against a hand-driven
        // single switch.
        let packets: Vec<(Packet, Port)> = int_packets(300).into_iter().map(|p| (p, 0)).collect();
        let base = build_switch(50);
        let mut single = base.clone();
        drive(&mut single, &packets, 0);
        let (_, _, merged) = measure_parallel(&base, &packets, 4);
        assert_eq!(merged.forwarding_stats(), single.stats().forwarding_stats());
        assert_eq!(merged.packets, 300);
    }

    #[test]
    fn shard_timestamps_are_global() {
        // A shard starting mid-stream must process its packets at the
        // global indices, not restart at zero — pinned by driving the
        // second half explicitly.
        let packets: Vec<(Packet, Port)> = int_packets(100).into_iter().map(|p| (p, 0)).collect();
        let base = build_switch(10);
        let mut whole = base.clone();
        drive(&mut whole, &packets, 0);
        let mut front = base.clone();
        let mut back = base.clone();
        drive(&mut front, &packets[..50], 0);
        drive(&mut back, &packets[50..], 50);
        let mut merged = front.stats();
        merged.merge(&back.stats());
        assert_eq!(merged.forwarding_stats(), whole.stats().forwarding_stats());
    }

    #[test]
    fn depth_chain_evaluates_to_forward() {
        let compiled = CompiledPipeline::lower(&chain_pipeline(4));
        let id = compiled.eval(&[Some(Value::Int(42))]);
        assert_eq!(compiled.action(id), &Action::Forward(vec![1]));
        assert!(measure_depth_ns(4, 1_000) > 0.0);
    }

    #[test]
    fn quick_run_emits_tables() {
        // `run` less `check_scaling`: the wall-clock ordering is the CI
        // smoke's, and every lane checks its per-shard counter sums.
        let tables = tables(Scale::Quick, &lanes(Scale::Quick));
        assert_eq!(tables.len(), 5);
        assert_eq!(tables[0].rows.len(), 3);
        // Ladder table: one row per (filter count, shard count).
        assert_eq!(tables[4].rows.len(), 3 * SHARD_LADDER.len());
    }

    #[test]
    fn thousand_filter_workload_fits_default_budget() {
        // The paper installs ~1 K filters on one Tofino (§VIII-E); the
        // modelled default budget must admit that pipeline with head
        // room to spare.
        let (report, fits) = resource_lane(1_000);
        assert!(fits, "1k-filter pipeline over budget: {}", report.summary());
        let worst = ResourceBudget::default()
            .utilization(&report)
            .into_iter()
            .fold(("", 0.0f64), |acc, (k, f)| if f > acc.1 { (k, f) } else { acc });
        assert!(
            worst.1 < 0.5,
            "dimension {} at {:.0}% leaves no head room",
            worst.0,
            worst.1 * 100.0
        );
    }
}
