//! Telemetry — observability overhead and anomaly-detection coverage.
//!
//! Three tables, all seeded:
//!
//! * **Overhead** (`results/telemetry_overhead.csv`) — the PR-3
//!   compiled batch lane re-measured with [`SwitchTelemetry`] attached
//!   at sampling rates off, 1/256, 1/16 and 1/1, against the bare
//!   (unattached) switch. Disabled sampling must sit within noise of
//!   bare: the fast path pays one counter increment and a mask test.
//!   The measured overhead also lands under a `"telemetry"` key in
//!   `BENCH_throughput.json` (merged, not clobbered).
//! * **Anomaly** (`results/telemetry_anomaly.csv`) — the faults
//!   experiment's failure schedule on the 72-switch churn fat tree with
//!   every probe postcard-traced: per event, the collector-derived
//!   missing-delivery count must equal the delivery-log count (100%
//!   blackhole detection) with zero loop reports.
//! * **Trace** (`results/telemetry_trace.csv`) — the controller's
//!   [`DeployTrace`](camus_telemetry::DeployTrace) for the initial
//!   deploy: per-phase latency split into wall-clock (route, compile)
//!   and modelled control time (stage, commit).

use super::churn::{churn_net, spread_subscriptions};
use super::faults::{chain_link, generator};
use super::throughput::{build_switch, int_packets};
use super::Scale;
use crate::output::{fmt_mpps, Table};
use camus_core::statics::compile_static;
use camus_dataplane::packet::{Packet, PacketBuilder};
use camus_dataplane::{Switch, SwitchTelemetry};
use camus_faults::{run_fault, FaultKind, ProbeConfig, RepairModel};
use camus_lang::ast::Port;
use camus_net::controller::Controller;
use camus_routing::algorithm1::{Policy, RoutingConfig};
use camus_routing::verify::matching_hosts;
use camus_telemetry::{MetricsRegistry, SampleRate};
use std::time::Instant;

/// Per-packet cost of one full pass over `packets` through the batched
/// fast path (global packet indices, reusable output allocation).
fn one_pass_ns(sw: &mut Switch, packets: &[(Packet, Port)]) -> f64 {
    let mut out = Vec::with_capacity(64);
    let t0 = Instant::now();
    let mut idx = 0u64;
    for chunk in packets.chunks(64) {
        sw.process_batch_indexed(chunk, idx, &mut out);
        std::hint::black_box(&mut out);
        idx += chunk.len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / packets.len() as f64
}

struct OverheadLane {
    label: &'static str,
    ns_per_pkt: f64,
    overhead_pct: f64,
    sampled: u64,
}

/// Measure bare vs telemetry-attached throughput at each sampling rate.
///
/// All lanes are built and warmed before any timing, then repetitions
/// are *interleaved* round-robin with a per-lane best-of. An earlier revision
/// timed the bare lane first, start to finish: it absorbed the
/// process-wide warmup alone and the experiment reported *negative*
/// telemetry overhead. Interleaving spreads drift evenly, so the bare
/// lane is a fair baseline; residual negative differences are asserted
/// to sit within a small epsilon and clamped to zero in the report.
fn overhead_lanes(scale: Scale) -> (Vec<OverheadLane>, f64) {
    let n_filters = 1_000;
    let n_packets = scale.pick(4_000, 50_000);
    let reps = scale.pick(5, 9);
    let packets: Vec<(Packet, Port)> = int_packets(n_packets).into_iter().map(|p| (p, 0)).collect();
    let base = build_switch(n_filters);

    let rates = [
        ("off", SampleRate::DISABLED),
        ("1/256", SampleRate::every(256)),
        ("1/16", SampleRate::every(16)),
        ("1/1", SampleRate::always()),
    ];
    // Build every lane before any clock starts.
    let mut built: Vec<(&'static str, Switch, Option<MetricsRegistry>)> =
        vec![("bare", base.clone(), None)];
    for (label, rate) in rates {
        let registry = MetricsRegistry::new();
        let mut sw = base.clone();
        sw.attach_telemetry(SwitchTelemetry::new(&registry, rate));
        built.push((label, sw, Some(registry)));
    }
    // Warm caches and the branch predictor of every lane off the clock.
    for (_, sw, _) in built.iter_mut() {
        for chunk in packets.chunks(64).take(4) {
            std::hint::black_box(sw.process_batch(chunk, 0));
        }
    }
    // Interleaved best-of-N: one pass per lane per round. A lane
    // measuring *faster* than bare beyond eps means the bare minimum
    // has not hit a quiet window yet (e.g. the test harness runs
    // other suites concurrently), so keep adding rounds — best-of is
    // monotone, extra rounds only tighten both sides — and only treat
    // a persistent violation as a broken harness.
    let eps = scale.pick(15.0, 3.0);
    let mut best = vec![f64::INFINITY; built.len()];
    let mut rounds = 0;
    loop {
        for (i, (_, sw, _)) in built.iter_mut().enumerate() {
            best[i] = best[i].min(one_pass_ns(sw, &packets));
        }
        rounds += 1;
        let settled = best[1..].iter().all(|&ns| (ns - best[0]) / best[0] * 100.0 >= -eps);
        if (rounds >= reps && settled) || rounds >= reps * 5 {
            break;
        }
    }

    let bare_ns = best[0];
    // Negative overhead beyond measurement noise means the harness is
    // broken again (quick CI timings jitter more than the effect).
    let mut lanes =
        vec![OverheadLane { label: "bare", ns_per_pkt: bare_ns, overhead_pct: 0.0, sampled: 0 }];
    let mut disabled_overhead = 0.0;
    for (i, (label, _, registry)) in built.iter().enumerate().skip(1) {
        let ns = best[i];
        let raw = (ns - bare_ns) / bare_ns * 100.0;
        assert!(
            raw >= -eps,
            "{label}: telemetry measured {raw:.2}% *faster* than bare (eps {eps}%) — \
             the baseline absorbed warmup or drift"
        );
        let overhead = raw.max(0.0);
        let sampled = registry.as_ref().expect("instrumented lane").snapshot().counters
            ["switch.sampled_packets"];
        if *label == "off" {
            disabled_overhead = overhead;
            assert_eq!(sampled, 0, "disabled sampler must select nothing");
        }
        if *label == "1/1" {
            assert!(sampled as usize >= packets.len(), "1/1 sampler must select every packet");
        }
        lanes.push(OverheadLane { label, ns_per_pkt: ns, overhead_pct: overhead, sampled });
    }
    (lanes, disabled_overhead)
}

/// The faults schedule with every probe traced: log-derived and
/// postcard-derived accounting must agree pair-for-pair.
fn anomaly_table(scale: Scale) -> Table {
    let (warmup, after) = scale.pick((3, 30), (5, 40));
    let interval_ns = 20_000u64;
    let model = RepairModel::default();
    let net = churn_net();
    let n_subs = scale.pick(64, 256);

    let mut g = generator(0xFA17);
    let subs = spread_subscriptions(&mut g, &net, n_subs);
    let spec = g.spec();
    let statics = compile_static(&spec).expect("siena statics compile");
    let ctrl = Controller::new(statics, RoutingConfig::new(Policy::MemoryReduction));

    let target = (0..net.host_count()).find(|&h| !subs[h].is_empty()).expect("a subscriber");
    let witness = g.matching_packet(&subs[target][0]);
    let expected = matching_hosts(&subs, &witness, None);
    let publisher = (0..net.host_count())
        .find(|&h| net.access[h].0 != net.access[target].0 && !expected.contains(&h))
        .expect("a non-matching publisher on another ToR");

    let mut b = PacketBuilder::new(&spec);
    for (field, value) in &witness {
        b = b.stack_field("siena", field, value.clone());
    }
    let probe = ProbeConfig { publisher, packet: b.build(), expected, interval_ns, warmup, after };

    let mut d = ctrl.deploy(net.clone(), &subs).expect("deploy compiles");
    d.network.attach_telemetry(SampleRate::always());
    let (agg, port) = chain_link(&net, target);

    let mut t = Table::new(
        "telemetry_anomaly",
        "Telemetry: blackhole detection vs delivery-log ground truth",
        &[
            "failure",
            "probes",
            "measured_hosts",
            "injected_missing",
            "detected_missing",
            "blackholes",
            "hit_rate_pct",
            "loops",
            "blackout_us",
        ],
    );
    for kind in [
        FaultKind::LinkDown { switch: agg, port },
        FaultKind::LinkUp { switch: agg, port },
        FaultKind::SwitchCrash { switch: agg },
        FaultKind::SwitchRestore { switch: agg },
    ] {
        let r = run_fault(&ctrl, &mut d, &subs, kind, &probe, &model, 0).expect("repair compiles");
        let tel = r.telemetry.as_ref().expect("telemetry attached");
        // 100% detection: every (host, probe) pair the delivery logs
        // say went missing is named by a blackhole anomaly.
        assert_eq!(
            tel.dropped,
            r.dropped,
            "{}: collector missed {} of {} injected blackhole pairs",
            r.label,
            r.dropped.saturating_sub(tel.dropped),
            r.dropped
        );
        assert_eq!(tel.loops, 0, "{}: false loop report", r.label);
        assert_eq!(tel.blackholes > 0, r.dropped > 0, "{}: blackhole flagging", r.label);
        let hit_rate =
            if r.dropped == 0 { 100.0 } else { tel.dropped as f64 / r.dropped as f64 * 100.0 };
        t.row([
            r.label.to_string(),
            r.probes.to_string(),
            r.measured_hosts.to_string(),
            r.dropped.to_string(),
            tel.dropped.to_string(),
            tel.blackholes.to_string(),
            format!("{hit_rate:.1}"),
            tel.loops.to_string(),
            format!("{:.1}", tel.blackout_ns as f64 / 1e3),
        ]);
    }
    assert!(d.network.fault_mask().is_healthy(), "every fault was healed");
    t
}

/// The per-phase latency breakdown of a deploy on the churn tree.
fn trace_table(scale: Scale) -> Table {
    let net = churn_net();
    let n_subs = scale.pick(64, 256);
    let mut g = generator(0xFA17);
    let subs = spread_subscriptions(&mut g, &net, n_subs);
    let statics = compile_static(&g.spec()).expect("siena statics compile");
    let ctrl = Controller::new(statics, RoutingConfig::new(Policy::MemoryReduction));
    let d = ctrl.deploy(net, &subs).expect("deploy compiles");

    let ledger: u64 = d.report.switches.iter().map(|e| e.control_ns).sum();
    assert_eq!(d.trace.modelled_control_ns(), ledger, "trace must tile the ledger");

    let mut t = Table::new(
        "telemetry_trace",
        "Telemetry: deploy span trace (wall vs modelled control time)",
        &["phase", "clock", "duration_ns"],
    );
    for s in &d.trace.spans {
        t.row([
            s.phase.label().to_string(),
            if s.modelled { "modelled".to_string() } else { "wall".to_string() },
            s.duration_ns.to_string(),
        ]);
    }
    t
}

pub fn run(scale: Scale) -> Vec<Table> {
    let (lanes, disabled_overhead) = overhead_lanes(scale);
    let mut overhead = Table::new(
        "telemetry_overhead",
        "Telemetry: fast-path overhead by sampling rate (1k filters, batched)",
        &["rate", "ns_per_pkt", "mpps", "overhead_pct", "sampled_packets"],
    );
    for l in &lanes {
        overhead.row([
            l.label.to_string(),
            format!("{:.1}", l.ns_per_pkt),
            fmt_mpps(1e9 / l.ns_per_pkt),
            format!("{:+.2}", l.overhead_pct),
            l.sampled.to_string(),
        ]);
    }
    // The acceptance bound: disabled telemetry within 3% of the bare
    // PR-3 lane. Quick (CI) runs keep a looser bound — short timings on
    // shared runners jitter more than the effect being measured.
    let bound = scale.pick(25.0, 3.0);
    assert!(
        disabled_overhead <= bound,
        "disabled telemetry costs {disabled_overhead:.2}% (> {bound}%)"
    );
    overhead.bench_json.push((
        "telemetry".to_string(),
        format!(
            "{{\"disabled_overhead_pct\": {:.2}, \"ns_per_pkt\": {{{}}}}}",
            disabled_overhead,
            lanes
                .iter()
                .map(|l| format!("\"{}\": {:.1}", l.label, l.ns_per_pkt))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));

    vec![overhead, anomaly_table(scale), trace_table(scale)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_emits_overhead_anomaly_and_trace() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 3);
        // Overhead: bare + four rates.
        assert_eq!(tables[0].rows.len(), 5);
        assert_eq!(tables[0].rows[0][0], "bare");
        // Anomaly: all four failure kinds, all at 100% detection.
        assert_eq!(tables[1].rows.len(), 4);
        for row in &tables[1].rows {
            assert_eq!(row[6], "100.0", "{}: hit rate", row[0]);
            assert_eq!(row[7], "0", "{}: loops", row[0]);
        }
        // The cut must actually have injected something to detect.
        assert_ne!(tables[1].rows[0][3], "0", "link-down dropped nothing");
        // Trace: all six phases in order.
        let phases: Vec<&str> = tables[2].rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(phases, vec!["route", "compile", "admit", "stage", "commit", "finalize"]);
        let (key, json) = &tables[0].bench_json[0];
        assert_eq!(key, "telemetry");
        assert!(json.contains("\"disabled_overhead_pct\""));
    }

    #[test]
    fn anomaly_accounting_is_deterministic() {
        let a = anomaly_table(Scale::Quick);
        let b = anomaly_table(Scale::Quick);
        assert_eq!(a.rows, b.rows);
    }
}
