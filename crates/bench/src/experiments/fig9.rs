//! Fig. 9 — filtering INT packets from a 100 G link: achievable
//! throughput vs number of installed filters (§VIII-E.2).
//!
//! Series:
//! * **c** and **dpdk** — the calibrated software cost models of
//!   [`crate::baselines::cost`] (plain C is syscall-bound; DPDK is
//!   CPU-bound at ~16 Mpps and falls off the cache cliff past 10 K
//!   filters),
//! * **camus** — line rate, independent of filter count,
//! * **rust-measured** — an honest measured point: the real
//!   [`LinearFilter`] engine timed on this machine, to show the
//!   software series' *shape* is not an artifact of the model,
//! * **rust-compiled** — the same filters compiled to a
//!   [`CompiledPipeline`]: per-packet cost is a fixed number of stage
//!   lookups, independent of filter count — the software analogue of
//!   the camus series (capped at 1 K filters on Quick / 10 K on Full
//!   to bound BDD compile time; "-" beyond).

use super::Scale;
use crate::baselines::cost::CostModel;
use crate::baselines::linear::LinearFilter;
use crate::output::{fmt_mpps, Table};
use camus_core::compiled::{ActionId, CompiledPipeline};
use camus_core::compiler::Compiler;
use camus_core::resources::{self, ResourceBudget};
use camus_core::statics::compile_static;
use camus_lang::ast::{Action, Expr, Rule};
use camus_lang::parser::parse_expr;
use camus_lang::spec::int_spec;
use camus_lang::value::Value;
use camus_workloads::int::{IntFeed, IntFeedConfig};
use std::collections::HashMap;
use std::time::Instant;

fn filters(n: usize) -> Vec<Expr> {
    (0..n)
        .map(|i| {
            parse_expr(&format!(
                "switch_id == {} and hop_latency > {}",
                i % 100,
                100 + (i / 100) % 1000
            ))
            .unwrap()
        })
        .collect()
}

/// Measure the real linear-scan engine: packets filtered per second.
fn measure_rust_pps(n_filters: usize, sample_packets: usize) -> f64 {
    let lf = LinearFilter::new(&filters(n_filters));
    let mut feed = IntFeed::new(IntFeedConfig::default());
    let packets: Vec<HashMap<String, Value>> =
        feed.reports(sample_packets).iter().map(|r| r.fields().into_iter().collect()).collect();
    let t0 = Instant::now();
    let mut hits = 0usize;
    for p in &packets {
        hits += usize::from(lf.matches_any(p));
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(hits);
    packets.len() as f64 / dt
}

/// Measure the compiled fast path on the same workload: filters →
/// BDD → pipeline → `CompiledPipeline`, slot arrays resolved outside
/// the timer (the switch resolves them once at install time too).
pub fn measure_compiled_pps(n_filters: usize, sample_packets: usize) -> f64 {
    let rules: Vec<Rule> = filters(n_filters)
        .into_iter()
        .enumerate()
        .map(|(i, filter)| Rule { filter, action: Action::Forward(vec![(i % 64) as u16 + 1]) })
        .collect();
    let pipeline = Compiler::new().compile(&rules).expect("fig9 filters compile").pipeline;
    let compiled = CompiledPipeline::lower(&pipeline);
    let mut feed = IntFeed::new(IntFeedConfig::default());
    let probes: Vec<Vec<Option<Value>>> = feed
        .reports(sample_packets)
        .iter()
        .map(|r| {
            let fields: HashMap<String, Value> = r.fields().into_iter().collect();
            compiled.slots().iter().map(|op| fields.get(&op.key()).cloned()).collect()
        })
        .collect();
    let t0 = Instant::now();
    let mut hits = 0usize;
    for v in &probes {
        hits += usize::from(compiled.eval(v) != ActionId::DEFAULT);
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(hits);
    probes.len() as f64 / dt
}

/// Worst-dimension hardware utilization of the compiled pipeline
/// against the default per-switch budget, as a percentage.
fn hw_util_pct(n_filters: usize) -> f64 {
    let statics = compile_static(&int_spec()).expect("int spec compiles");
    let rules: Vec<Rule> = filters(n_filters)
        .into_iter()
        .enumerate()
        .map(|(i, filter)| Rule { filter, action: Action::Forward(vec![(i % 64) as u16 + 1]) })
        .collect();
    let pipeline = Compiler::new()
        .with_static(statics.clone())
        .compile(&rules)
        .expect("fig9 filters compile")
        .pipeline;
    let report = resources::report(&pipeline, pipeline.multicast_group_count(), &statics.widths());
    ResourceBudget::default().utilization(&report).into_iter().map(|(_, f)| f).fold(0.0, f64::max)
        * 100.0
}

pub fn run(scale: Scale) -> Vec<Table> {
    let model = CostModel::default();
    let counts: &[usize] = match scale {
        Scale::Quick => &[1, 10, 100, 1_000, 10_000],
        Scale::Full => &[1, 10, 100, 1_000, 10_000, 50_000, 100_000],
    };
    let sample = scale.pick(2_000, 20_000);
    let compiled_cap = scale.pick(1_000, 10_000);
    let mut t = Table::new(
        "fig9",
        "Fig. 9: INT filtering throughput vs #filters",
        &["filters", "c", "dpdk", "camus", "rust-measured", "rust-compiled", "hw-util"],
    );
    for &n in counts {
        let (compiled, util) = if n <= compiled_cap {
            (fmt_mpps(measure_compiled_pps(n, sample)), format!("{:.2}%", hw_util_pct(n)))
        } else {
            ("-".to_string(), "-".to_string())
        };
        t.row([
            n.to_string(),
            fmt_mpps(model.c_pps(n)),
            fmt_mpps(model.dpdk_pps(n)),
            fmt_mpps(model.camus_pps(n)),
            fmt_mpps(measure_rust_pps(n, sample)),
            compiled,
            util,
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let m = CostModel::default();
        // DPDK starts near 16 Mpps (the bare 100-instruction fast
        // path), Camus is line rate and flat.
        assert!((m.dpdk_pps(0) - 16e6).abs() / 16e6 < 0.01);
        assert!(m.dpdk_pps(1) > 15e6);
        assert_eq!(m.camus_pps(1), m.camus_pps(100_000));
        // Software degrades drastically past 10K filters.
        assert!(m.dpdk_pps(100_000) < m.dpdk_pps(10_000) / 5.0);
        // Camus wins everywhere.
        for n in [1usize, 100, 10_000, 100_000] {
            assert!(m.camus_pps(n) > m.dpdk_pps(n));
        }
    }

    #[test]
    fn measured_rust_engine_degrades_with_filters() {
        let fast = measure_rust_pps(1, 300);
        let slow = measure_rust_pps(2_000, 300);
        assert!(slow < fast / 3.0, "linear scan must slow with filters: {fast:.0} vs {slow:.0}");
    }

    #[test]
    fn quick_run_emits_table() {
        let tables = run(Scale::Quick);
        assert_eq!(tables[0].rows.len(), 5);
    }

    #[test]
    fn compiled_path_beats_linear_scan_at_1k_filters() {
        // The ISSUE acceptance bar: >= 5x over the interpreted linear
        // scan at 1 K filters. In practice the gap is orders of
        // magnitude (fixed stage count vs 1 000 filter evaluations).
        let linear = measure_rust_pps(1_000, 300);
        let compiled = measure_compiled_pps(1_000, 300);
        assert!(
            compiled >= 5.0 * linear,
            "compiled {compiled:.0} pps must be >= 5x linear {linear:.0} pps"
        );
    }
}
