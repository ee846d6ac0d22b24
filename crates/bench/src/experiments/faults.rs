//! Fault injection — self-healing routing and convergence cost.
//!
//! The paper's evaluation reconfigures on *subscription* changes
//! (§VIII-G.3); this experiment measures the same controller surviving
//! *network* changes. On the 72-switch churn fat tree carrying N Siena
//! subscriptions, it injects each failure type of
//! [`camus_faults::FaultKind`] onto a subscriber's designated
//! distribution chain — the worst case: the designated path is exactly
//! where the filters live — and reports, per event:
//!
//! * repair latency (degraded Algorithm 1 + incremental recompile) and
//!   the recompiled/reused/reinstalled split, showing the PR-1
//!   fingerprint cache also pays off for failures,
//! * the subscriber-observed blackout window, bounded by the modelled
//!   detection/control/install delay of [`RepairModel`],
//! * exact probe accounting: dropped, duplicated and mis-delivered
//!   counts (the last two must be zero — repair may lose traffic during
//!   the outage but must never corrupt delivery).
//!
//! Everything is seeded: the same command regenerates the same CSV.

use super::churn::{churn_net, spread_subscriptions};
use super::Scale;
use crate::output::Table;
use camus_core::statics::compile_static;
use camus_dataplane::PacketBuilder;
use camus_faults::{run_fault, FaultKind, ProbeConfig, RepairModel};
use camus_lang::ast::Port;
use camus_net::controller::Controller;
use camus_oracle::expected_hosts;
use camus_routing::algorithm1::{Policy, RoutingConfig};
use camus_routing::topology::{DownTarget, HierNet, SwitchId};
use camus_telemetry::SampleRate;
use camus_workloads::siena::{SienaConfig, SienaGenerator};

/// Same workload shape as the churn experiment (the point is to compare
/// repair against subscription churn on identical state). Shared with
/// the chaos soak, which interleaves both kinds of change.
pub(crate) fn generator(seed: u64) -> SienaGenerator {
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

/// The agg→ToR edge of `host`'s designated chain: cutting it blacks the
/// host out until the controller re-routes through a sibling agg.
pub(crate) fn chain_link(net: &HierNet, host: usize) -> (SwitchId, Port) {
    let chain = net.designated_chain(host);
    let (tor, agg) = (chain[0], chain[1]);
    let port = net.switches[agg]
        .down
        .iter()
        .position(|t| matches!(t, DownTarget::Switch(c, _) if *c == tor))
        .expect("designated agg has a port to its ToR");
    (agg, port as Port)
}

pub fn run(scale: Scale) -> Vec<Table> {
    let counts: &[usize] = scale.pick(&[64][..], &[256, 1_024][..]);
    let (warmup, after) = scale.pick((3, 30), (5, 40));
    let interval_ns = 20_000u64;
    let model = RepairModel::default();
    let net = churn_net();

    let mut t = Table::new(
        "faults",
        "Faults: repair latency and convergence per failure type",
        &[
            "failure",
            "subscriptions",
            "repair_ms",
            "compile_ms",
            "recompiled",
            "reused",
            "reinstalled",
            "blackout_us",
            "dropped",
            "duplicated",
            "misdelivered",
            "blackholes",
            "loops",
            "recovered",
        ],
    );

    for &n in counts {
        let mut g = generator(0xFA17);
        let subs = spread_subscriptions(&mut g, &net, n);
        let spec = g.spec();
        let statics = compile_static(&spec).expect("siena statics compile");
        let ctrl = Controller::new(statics, RoutingConfig::new(Policy::MemoryReduction));

        // Probe = a witness packet for some subscriber's first filter;
        // expected receivers are computed analytically by evaluating
        // every host's filters against the witness values.
        let target = (0..net.host_count()).find(|&h| !subs[h].is_empty()).expect("a subscriber");
        let witness = g.matching_packet(&subs[target][0]);
        let expected = expected_hosts(&subs, &witness, None);
        // Publish from a non-matching host on a different ToR, so the
        // probe always crosses the fabric and the publisher is never an
        // expected receiver.
        let publisher = (0..net.host_count())
            .find(|&h| net.access[h].0 != net.access[target].0 && !expected.contains(&h))
            .expect("a non-matching publisher on another ToR");
        assert!(expected.contains(&target));

        let mut b = PacketBuilder::new(&spec);
        for (field, value) in &witness {
            b = b.stack_field("siena", field, value.clone());
        }
        let probe =
            ProbeConfig { publisher, packet: b.build(), expected, interval_ns, warmup, after };

        let mut d = ctrl.deploy(net.clone(), &subs).expect("deploy compiles");
        // Postcard telemetry on every probe: the collector's audit must
        // equal the delivery-log audit the columns below report, and
        // its anomaly detectors fill the blackhole and loop columns.
        d.network.attach_telemetry(SampleRate::always());
        let (agg, port) = chain_link(&net, target);
        let events = [
            FaultKind::LinkDown { switch: agg, port },
            FaultKind::LinkUp { switch: agg, port },
            FaultKind::SwitchCrash { switch: agg },
            FaultKind::SwitchRestore { switch: agg },
        ];
        for kind in events {
            let r =
                run_fault(&ctrl, &mut d, &subs, kind, &probe, &model, 0).expect("repair compiles");
            // Correctness invariants, enforced even in smoke runs:
            // repair may lose probes during the outage, never corrupt.
            let a = &r.audit;
            assert_eq!(a.misdelivered, 0, "{}: mis-delivery", r.label);
            assert_eq!(a.duplicated, 0, "{}: duplicate delivery", r.label);
            assert!(r.recovered, "{}: subscribers still dark after repair", r.label);
            // Telemetry equivalence: the postcard audit equals the
            // delivery-log one (1/1 sampling traces every probe).
            assert_eq!(r.telemetry, Some(*a), "{}: postcard audit", r.label);
            assert_eq!(r.telemetry_blackout_ns, r.blackout_ns, "{}: postcard blackout", r.label);
            // Detection: a dropped probe is a blackhole anomaly, a
            // clean probe is not, and loop-free forwarding never trips
            // the loop detector.
            assert_eq!(r.blackholes > 0, a.missed > 0, "{}: blackhole detection", r.label);
            assert_eq!(r.loops, 0, "{}: false loop report", r.label);
            assert!(r.repair.reused > 0, "{}: repair must reuse off-path pipelines", r.label);
            if kind.is_degrading() {
                assert!(
                    r.blackout_ns <= model.window_ns(0) + 4 * interval_ns,
                    "{}: blackout {}ns exceeds the repair window",
                    r.label,
                    r.blackout_ns
                );
            } else {
                assert_eq!(a.missed, 0, "{}: restores are make-before-break", r.label);
            }
            t.row([
                r.label.to_string(),
                n.to_string(),
                format!("{:.2}", r.repair.elapsed.as_secs_f64() * 1e3),
                format!("{:.2}", r.repair.compile_elapsed.as_secs_f64() * 1e3),
                r.repair.recompiled.to_string(),
                r.repair.reused.to_string(),
                r.repair.reinstalled.to_string(),
                format!("{:.1}", r.blackout_ns as f64 / 1e3),
                a.missed.to_string(),
                a.duplicated.to_string(),
                a.misdelivered.to_string(),
                r.blackholes.to_string(),
                r.loops.to_string(),
                r.recovered.to_string(),
            ]);
        }
        assert!(d.network.fault_mask().is_healthy(), "every fault was healed");
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_emits_all_failure_types() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 1);
        let labels: Vec<&str> = tables[0].rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(labels, vec!["link-down", "link-up", "switch-crash", "switch-restore"]);
    }

    #[test]
    fn quick_run_is_deterministic() {
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        // Timing columns (2, 3) vary run to run; everything the fault
        // model controls must not.
        for (ra, rb) in a[0].rows.iter().zip(b[0].rows.iter()) {
            for i in [0usize, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] {
                assert_eq!(ra[i], rb[i], "column {i}");
            }
        }
    }
}
