//! Controller-service throughput: batched/coalesced/overlapped vs
//! one-op-at-a-time.
//!
//! A seeded Poisson churn stream (subscribe/unsubscribe against the
//! 72-switch churn testbed) is fed to [`camus_service::CamusService`]
//! twice with identical events:
//!
//! * **naive** — singleton batches, installs serialized behind
//!   compiles, no backlog merging: the PR-4 controller called once per
//!   op, as a pre-service caller would;
//! * **batched** — the adaptive window batches bursts, net-zero churn
//!   cancels before it costs a compile, backlog merges when the
//!   compile executor falls behind, and transaction N+1 compiles while
//!   transaction N installs.
//!
//! Both runs carry audit probes, so every commit re-proves the
//! zero-mis-delivery invariant while transactions overlap. Measured
//! per mode: sustained accepted-ops/second on the modelled timeline,
//! p50/p99 time-to-traffic per request, batches/compiles/coalescing
//! ratio, and peak compile-queue depth (the most batches one compile
//! absorbed from the backlog). Per-request spans of the
//! batched run land in `results/service_trace.csv`.
//!
//! The in-run assertions double as the CI smoke: audits clean in both
//! modes, coalescing ratio > 1, and batched sustained throughput at
//! least 2× naive.

use super::churn::{churn_net, spread_subscriptions};
use super::Scale;
use crate::output::Table;
use camus_core::statics::compile_static;
use camus_dataplane::PacketBuilder;
use camus_lang::ast::Expr;
use camus_net::controller::Controller;
use camus_net::PerfectChannel;
use camus_routing::algorithm1::{Policy, RoutingConfig};
use camus_service::{AuditProbe, CamusService, RequestOp, ServiceConfig, ServiceOutcome};
use camus_workloads::churn::{ChurnConfig, ChurnOp, PoissonChurn};
use camus_workloads::siena::{SienaConfig, SienaGenerator};

/// Same workload shape as the `churn` experiment (Zipf-skewed anchor
/// universe), so the two tentpoles measure the same churn.
pub(super) fn generator(seed: u64) -> SienaGenerator {
    SienaGenerator::new(SienaConfig {
        predicates_per_filter: 2,
        n_attributes: 3,
        string_fraction: 0.25,
        anchor_universe: 400,
        anchor_skew: 0.5,
        seed,
        ..Default::default()
    })
}

/// Audit probes crafted against live initial subscriptions: packets a
/// correct deployment must keep delivering to exactly the matching
/// hosts after every transaction.
fn audit_probes(g: &mut SienaGenerator, subs: &[Vec<Expr>], n: usize) -> Vec<AuditProbe> {
    let spec = g.spec();
    let mut probes = Vec::new();
    let mut host = 0usize;
    while probes.len() < n && host < subs.len() {
        if let Some(f) = subs[host].first() {
            let values = g.matching_packet(f);
            let mut b = PacketBuilder::new(&spec);
            for (field, value) in &values {
                b = b.stack_field("siena", field, value.clone());
            }
            // Publish from the far end of the host range so the probe
            // has to cross the tree.
            let publisher = (host + subs.len() / 2) % subs.len();
            probes.push(AuditProbe { publisher, packet: b.build(), values });
        }
        host += 1;
    }
    probes
}

struct ModeRun {
    out: ServiceOutcome,
    sustained_per_s: f64,
    p50_ttt_ns: u64,
    p99_ttt_ns: u64,
    peak_compile_queue: u64,
    wall_ms: f64,
}

fn run_mode(naive: bool, scale: Scale, ops: usize) -> ModeRun {
    let net = churn_net();
    let mut g = generator(0xC4A2);
    let initial = spread_subscriptions(&mut g, &net, scale.pick(256, 1_000));
    let statics = compile_static(&g.spec()).expect("siena spec compiles");
    let ctrl = Controller::new(statics, RoutingConfig::new(Policy::MemoryReduction));
    let deployment = ctrl.deploy(net.clone(), &initial).expect("initial deploy");

    let probes = audit_probes(&mut g, &initial, scale.pick(2, 4));
    assert!(!probes.is_empty(), "initial subscriptions must yield audit probes");

    // Identical seeded churn for both modes: 4k ops/s Poisson, 30%
    // unsubscribes drawn from the live set.
    let mut churn = PoissonChurn::new(
        ChurnConfig { rate_per_s: 4_000.0, unsubscribe_fraction: 0.3, seed: 0x5EED },
        net.host_count(),
        &initial,
    );
    let events = churn.schedule(&mut g, ops);

    let cfg = if naive {
        ServiceConfig { probes, ..ServiceConfig::naive() }
    } else {
        ServiceConfig { probes, ..ServiceConfig::default() }
    };

    let wall = std::time::Instant::now();
    let mut svc = CamusService::start(ctrl, deployment, initial, Box::new(PerfectChannel), cfg);
    let first_arrival = events.first().map(|e| e.at_ns).unwrap_or(0);
    for ev in events {
        let op = match ev.op {
            ChurnOp::Subscribe(f) => RequestOp::Subscribe(f),
            ChurnOp::Unsubscribe(f) => RequestOp::Unsubscribe(f),
        };
        svc.request(ev.host, op, ev.at_ns);
    }
    let out = svc.shutdown();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    assert!(out.errors.is_empty(), "service run failed: {:?}", out.errors);

    // Exact percentiles from the spans themselves (the registry
    // histogram is log-bucketed; the CSV wants exact numbers).
    let mut ttts: Vec<u64> = out
        .reports
        .iter()
        .filter(|r| r.committed)
        .flat_map(|r| r.requests.iter().map(|s| s.time_to_traffic_ns()))
        .collect();
    ttts.sort_unstable();
    let pct = |q: f64| -> u64 {
        if ttts.is_empty() {
            return 0;
        }
        ttts[((ttts.len() - 1) as f64 * q).round() as usize]
    };
    let last_deployed =
        out.reports.iter().map(|r| r.deployed_ns).max().unwrap_or(first_arrival + 1);
    let span_ns = last_deployed.saturating_sub(first_arrival).max(1);
    let sustained_per_s = out.stats.accepted as f64 / span_ns as f64 * 1e9;
    let peak_compile_queue = out.registry.histogram("service.backlog.depth").snapshot().max;

    ModeRun {
        sustained_per_s,
        p50_ttt_ns: pct(0.50),
        p99_ttt_ns: pct(0.99),
        peak_compile_queue,
        wall_ms,
        out,
    }
}

pub fn run(scale: Scale) -> Vec<Table> {
    let ops = scale.pick(120, 600);
    let naive = run_mode(true, scale, ops);
    let batched = run_mode(false, scale, ops);

    let mut t = Table::new(
        "service",
        "Controller service: batched/coalesced vs one-op-at-a-time (modelled time)",
        &[
            "mode",
            "ops",
            "accepted",
            "batches",
            "merged",
            "compiles",
            "noops",
            "cancelled_ops",
            "coalesce_ratio",
            "committed_txns",
            "sustained_per_s",
            "p50_ttt_ms",
            "p99_ttt_ms",
            "peak_queue",
            "audit_probes",
            "misdelivered",
            "wall_ms",
        ],
    );
    for (mode, r) in [("naive", &naive), ("batched", &batched)] {
        let s = &r.out.stats;
        t.row([
            mode.to_string(),
            ops.to_string(),
            s.accepted.to_string(),
            s.batches.to_string(),
            s.merged_batches.to_string(),
            s.compiles.to_string(),
            s.noops.to_string(),
            s.cancelled_ops.to_string(),
            format!("{:.2}", s.coalescing_ratio()),
            s.committed_txns.to_string(),
            format!("{:.0}", r.sustained_per_s),
            format!("{:.3}", r.p50_ttt_ns as f64 / 1e6),
            format!("{:.3}", r.p99_ttt_ns as f64 / 1e6),
            r.peak_compile_queue.to_string(),
            s.audit.probes.to_string(),
            s.audit.misdelivered.to_string(),
            format!("{:.0}", r.wall_ms),
        ]);
    }

    // Per-request spans of the batched run: the raw material for the
    // time-to-traffic distribution.
    let mut spans = Table::new(
        "service_trace",
        "Batched run: per-request spans (ns, modelled)",
        &["request", "host", "arrival_ns", "batched_ns", "compiled_ns", "deployed_ns", "ttt_ns"],
    );
    for r in batched.out.reports.iter().filter(|r| r.committed) {
        for s in &r.requests {
            spans.row([
                s.request.to_string(),
                s.host.to_string(),
                s.arrival_ns.to_string(),
                s.batched_ns.to_string(),
                s.compiled_ns.to_string(),
                s.deployed_ns.to_string(),
                s.time_to_traffic_ns().to_string(),
            ]);
        }
    }

    let speedup = batched.sustained_per_s / naive.sustained_per_s.max(1e-9);
    t.bench_json.push((
        "service".to_string(),
        format!(
            "{{\"naive_subs_per_s\": {:.0}, \"batched_subs_per_s\": {:.0}, \
             \"speedup\": {:.2}, \"coalescing_ratio\": {:.2}, \
             \"batched_p99_ttt_ms\": {:.3}, \"audit_probes\": {}, \"misdelivered\": {}}}",
            naive.sustained_per_s,
            batched.sustained_per_s,
            speedup,
            batched.out.stats.coalescing_ratio(),
            batched.p99_ttt_ns as f64 / 1e6,
            batched.out.stats.audit.probes + naive.out.stats.audit.probes,
            batched.out.stats.audit.misdelivered + naive.out.stats.audit.misdelivered,
        ),
    ));

    // The CI smoke rides these (quick scale included): the audit must
    // stay clean in both modes, coalescing must actually coalesce, and
    // batching must beat the naive baseline by the ISSUE's 2× floor.
    for (mode, r) in [("naive", &naive), ("batched", &batched)] {
        assert!(r.out.stats.audit.clean(), "{mode}: audit violation: {:?}", r.out.stats.audit);
        assert!(r.out.stats.audit.probes > 0, "{mode}: audit never ran");
    }
    assert!(
        batched.out.stats.coalescing_ratio() > 1.0,
        "coalescing ratio {:.2} must exceed 1",
        batched.out.stats.coalescing_ratio()
    );
    assert!(
        speedup >= 2.0,
        "batched ({:.0}/s) must sustain at least 2x naive ({:.0}/s)",
        batched.sustained_per_s,
        naive.sustained_per_s
    );

    vec![t, spans]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_meets_the_issue_floors() {
        // run() asserts the floors internally: clean audits, ratio > 1,
        // batched >= 2x naive.
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert!(!tables[0].rows.is_empty());
        assert!(!tables[1].rows.is_empty(), "trace spans must be captured");
    }
}
