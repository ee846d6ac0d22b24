//! Telemetry — observability overhead and anomaly-detection coverage.
//!
//! Three tables, all seeded:
//!
//! * **Overhead** (`results/telemetry_overhead.csv`) — the PR-3
//!   compiled batch lane re-measured with [`SwitchTelemetry`] attached
//!   at sampling rates off, 1/256, 1/16 and 1/1, against the bare
//!   (unattached) switch. Disabled sampling must sit within noise of
//!   bare: the fast path pays one counter increment and a mask test.
//! * **Anomaly** (`results/telemetry_anomaly.csv`) — the faults
//!   experiment's failure schedule on the 72-switch churn fat tree with
//!   every probe postcard-traced: per event, the collector-derived
//!   missing-delivery count must equal the delivery-log count (100%
//!   blackhole detection) with zero loop reports.
//! * **Trace** (`results/telemetry_trace.csv`) — the initial deploy's
//!   latency per phase, read off the controller's own records:
//!   wall-clock route (Algorithm 1 timed again on the deploy's inputs)
//!   and compile ([`NetworkCompile::elapsed`]), and the modelled stage
//!   and commit time summed over the transaction ledger
//!   ([`DeployReport`]).
//!
//! [`NetworkCompile::elapsed`]: camus_routing::compile::NetworkCompile::elapsed
//! [`DeployReport`]: camus_net::controller::DeployReport

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
use camus_routing::topology::FaultMask;
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
    sampled: u64,
}

/// How far a telemetry lane may measure *faster* than bare, in percent
/// of bare: timing noise, not an effect. Quick (CI) timings jitter more.
fn noise_pct(scale: Scale) -> f64 {
    scale.pick(15.0, 3.0)
}

/// Measure bare vs telemetry-attached throughput at each sampling rate.
///
/// All lanes are built and warmed before any timing, then repetitions
/// are *interleaved* round-robin with a per-lane best-of. An earlier revision
/// timed the bare lane first, start to finish: it absorbed the
/// process-wide warmup alone and the experiment reported *negative*
/// telemetry overhead. Interleaving spreads drift evenly, so the bare
/// lane is a fair baseline; [`check_overhead`] holds residual negative
/// differences within [`noise_pct`], and the report clamps them to zero.
///
/// Every lane processes the same packets, so each sampler's count is
/// exact: one in `n` of them. That is checked here; the timings are not.
fn overhead_lanes(scale: Scale) -> Vec<OverheadLane> {
    let n_filters = 1_000;
    let n_packets = scale.pick(4_000, 50_000);
    let reps = scale.pick(5, 9);
    let packets: Vec<(Packet, Port)> = int_packets(n_packets).into_iter().map(|p| (p, 0)).collect();
    let base = build_switch(n_filters);

    // Each rate as the one-in-`n` it samples (`None`: never).
    let rates = [("off", None), ("1/256", Some(256)), ("1/16", Some(16)), ("1/1", Some(1))];
    // Build every lane before any clock starts.
    let mut built: Vec<(&'static str, Switch, Option<MetricsRegistry>)> =
        vec![("bare", base.clone(), None)];
    for (label, every) in rates {
        let registry = MetricsRegistry::new();
        let mut sw = base.clone();
        let rate = every.map_or(SampleRate::DISABLED, SampleRate::every);
        sw.attach_telemetry(SwitchTelemetry::new(&registry, rate));
        built.push((label, sw, Some(registry)));
    }
    // Warm caches and the branch predictor of every lane off the clock.
    let warmup = &packets[..packets.len().min(4 * 64)];
    for (_, sw, _) in built.iter_mut() {
        for chunk in warmup.chunks(64) {
            std::hint::black_box(sw.process_batch(chunk, 0));
        }
    }
    // Interleaved best-of-N: one pass per lane per round. A lane
    // measuring *faster* than bare beyond the noise means the bare
    // minimum has not hit a quiet window yet (e.g. the test harness
    // runs other suites concurrently), so keep adding rounds — best-of
    // is monotone, extra rounds only tighten both sides.
    let eps = noise_pct(scale);
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

    let processed = (warmup.len() + rounds * packets.len()) as u64;
    let mut lanes = vec![OverheadLane { label: "bare", ns_per_pkt: best[0], sampled: 0 }];
    for ((label, _, registry), (ns, (_, every))) in
        built.iter().skip(1).zip(best[1..].iter().zip(rates))
    {
        let sampled = registry.as_ref().expect("instrumented lane").snapshot().counters
            ["switch.sampled_packets"];
        assert_eq!(sampled, every.map_or(0, |n| processed / n), "{label}: sampled packets");
        lanes.push(OverheadLane { label, ns_per_pkt: *ns, sampled });
    }
    lanes
}

/// Telemetry's cost over bare, in percent of bare (negative: faster).
fn overhead_pct(lane: &OverheadLane, bare: &OverheadLane) -> f64 {
    (lane.ns_per_pkt - bare.ns_per_pkt) / bare.ns_per_pkt * 100.0
}

/// The overhead ladder's wall-clock orderings. They hold on a quiet
/// host, so the experiments binary checks them (the CI telemetry smoke
/// runs it alone); the unit tests, which share the host with other
/// suites, check only the exact counts.
///
/// * No telemetry lane measures faster than bare beyond the noise:
///   that would mean the baseline absorbed warmup or drift.
/// * Disabled telemetry costs within the acceptance bound: 3 % of the
///   bare PR-3 lane, looser for quick runs, whose short timings jitter
///   more than the effect being measured.
fn check_overhead(scale: Scale, lanes: &[OverheadLane]) {
    let (bare, eps) = (&lanes[0], noise_pct(scale));
    for lane in &lanes[1..] {
        let raw = overhead_pct(lane, bare);
        assert!(
            raw >= -eps,
            "{}: telemetry measured {raw:.2}% *faster* than bare (eps {eps}%) — \
             the baseline absorbed warmup or drift",
            lane.label
        );
    }
    let off = lanes.iter().find(|l| l.label == "off").expect("a disabled lane");
    let disabled_overhead = overhead_pct(off, bare).max(0.0);
    let bound = scale.pick(25.0, 3.0);
    assert!(
        disabled_overhead <= bound,
        "disabled telemetry costs {disabled_overhead:.2}% (> {bound}%)"
    );
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
        let (log, tel) = (r.audit, r.telemetry.expect("telemetry attached"));
        // 100% detection: every (host, probe) pair the delivery logs
        // say went missing is missing from the postcards too.
        assert_eq!(
            tel.missed,
            log.missed,
            "{}: collector missed {} of {} injected blackhole pairs",
            r.label,
            log.missed.saturating_sub(tel.missed),
            log.missed
        );
        assert_eq!(r.loops, 0, "{}: false loop report", r.label);
        assert_eq!(r.blackholes > 0, log.missed > 0, "{}: blackhole flagging", r.label);
        let hit_rate =
            if log.missed == 0 { 100.0 } else { tel.missed as f64 / log.missed as f64 * 100.0 };
        t.row([
            r.label.to_string(),
            log.probes.to_string(),
            r.measured_hosts.to_string(),
            log.missed.to_string(),
            tel.missed.to_string(),
            r.blackholes.to_string(),
            format!("{hit_rate:.1}"),
            r.loops.to_string(),
            format!("{:.1}", r.telemetry_blackout_ns as f64 / 1e3),
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
    let t0 = Instant::now();
    std::hint::black_box(ctrl.plan_routing(&net, &subs, &FaultMask::default()));
    let route_ns = t0.elapsed().as_nanos() as u64;
    let d = ctrl.deploy(net, &subs).expect("deploy compiles");

    let stage_ns: u64 = d.report.switches.iter().map(|e| e.stage_ns).sum();
    let commit_ns: u64 = d.report.switches.iter().map(|e| e.commit_ns).sum();
    assert_eq!(stage_ns + commit_ns, d.report.total_control_ns(), "the phases tile the ledger");

    let mut t = Table::new(
        "telemetry_trace",
        "Telemetry: deploy span trace (wall vs modelled control time)",
        &["phase", "clock", "duration_ns"],
    );
    for (phase, clock, ns) in [
        ("route", "wall", route_ns),
        ("compile", "wall", d.compile.elapsed.as_nanos() as u64),
        ("stage", "modelled", stage_ns),
        ("commit", "modelled", commit_ns),
    ] {
        t.row([phase.to_string(), clock.to_string(), ns.to_string()]);
    }
    t
}

pub fn run(scale: Scale) -> Vec<Table> {
    let lanes = overhead_lanes(scale);
    check_overhead(scale, &lanes);
    tables(scale, &lanes)
}

/// The three tables, from measured overhead lanes.
fn tables(scale: Scale, lanes: &[OverheadLane]) -> Vec<Table> {
    let mut overhead = Table::new(
        "telemetry_overhead",
        "Telemetry: fast-path overhead by sampling rate (1k filters, batched)",
        &["rate", "ns_per_pkt", "mpps", "overhead_pct", "sampled_packets"],
    );
    for l in lanes {
        overhead.row([
            l.label.to_string(),
            format!("{:.1}", l.ns_per_pkt),
            fmt_mpps(1e9 / l.ns_per_pkt),
            format!("{:+.2}", overhead_pct(l, &lanes[0]).max(0.0)),
            l.sampled.to_string(),
        ]);
    }
    vec![overhead, anomaly_table(scale), trace_table(scale)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_emits_overhead_anomaly_and_trace() {
        // `run` less `check_overhead`: the wall-clock orderings are the
        // CI smoke's, and `overhead_lanes` checks every sampler count.
        let tables = tables(Scale::Quick, &overhead_lanes(Scale::Quick));
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
        // Trace: the four phases in order.
        let phases: Vec<&str> = tables[2].rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(phases, vec!["route", "compile", "stage", "commit"]);
    }

    #[test]
    fn anomaly_accounting_is_deterministic() {
        let a = anomaly_table(Scale::Quick);
        let b = anomaly_table(Scale::Quick);
        assert_eq!(a.rows, b.rows);
    }
}
