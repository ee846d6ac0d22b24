//! The measurement harness: probe traffic around a fault.
//!
//! For each fault the harness publishes a fixed probe packet on a
//! steady interval — some probes before the fault (proving the path
//! worked), the rest after it (straddling the outage and the repair).
//! The repair itself is not instantaneous: a [`RepairModel`] charges a
//! detection + control + install window before the controller's
//! [`repair`](Controller::repair) lands, so probes published inside the
//! window exercise whatever self-healing the data plane manages on its
//! own (masked designated ascent).
//!
//! Accounting is exact because probes are identified by their publish
//! timestamp
//! ([`Delivered::published_ns`](camus_net::Delivered::published_ns)),
//! which the simulator carries end-to-end. The stream is audited with
//! the one probe fold ([`camus_telemetry::audit`]): every (attached
//! expected host, probe) pair is delivered or missed, extra copies are
//! duplicates, and any probe surfacing at a host that never subscribed
//! is a mis-delivery. With postcard telemetry attached the traced
//! probes are audited again from the collector, through the same fold.

use crate::event::{FaultKind, FaultSchedule};
use crate::report::FaultReport;
use camus_dataplane::Packet;
use camus_lang::ast::Expr;
use camus_net::channel::PerfectChannel;
use camus_net::controller::{Controller, DeployError, Deployment, RepairStats};
use camus_net::sim::Network;
use camus_routing::topology::HostId;
use camus_telemetry::{AuditReport, PostcardId};
use std::collections::BTreeSet;
use std::iter::repeat;

/// The probe stream published around each fault.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    pub publisher: HostId,
    /// The probe packet (republished verbatim at each tick).
    pub packet: Packet,
    /// Hosts whose subscriptions match the probe. The publisher must
    /// not be listed: a host never hears its own publications (the
    /// ingress-port rule).
    pub expected: Vec<HostId>,
    pub interval_ns: u64,
    /// Probes published before the fault.
    pub warmup: usize,
    /// Probes published after it.
    pub after: usize,
}

/// How long the control plane takes to notice and fix a fault.
///
/// The simulator has no failure detector of its own, so convergence
/// time is modelled: `detect` (BFD-style liveness timeout) + `control`
/// (controller round trip) + `install` (table write) elapse between the
/// fault and the repaired tables taking effect. The defaults are loosely
/// sized after §VIII-G.3's end-to-end update latency.
#[derive(Debug, Clone, Copy)]
pub struct RepairModel {
    pub detect_ns: u64,
    pub control_ns: u64,
    pub install_ns: u64,
}

impl Default for RepairModel {
    fn default() -> Self {
        RepairModel { detect_ns: 50_000, control_ns: 100_000, install_ns: 200_000 }
    }
}

impl RepairModel {
    /// Fault-to-repaired-tables delay, including any control-channel
    /// congestion (`extra_ns`).
    pub fn window_ns(&self, extra_ns: u64) -> u64 {
        self.detect_ns + self.control_ns + self.install_ns + extra_ns
    }
}

/// Inject one fault into the running network. Returns whether the
/// network state changed (`ControlDelay` and the control-channel
/// kinds never change the data plane — apply those to a
/// [`LossyChannel`](crate::channel::LossyChannel) instead).
pub fn apply_fault(network: &mut Network, kind: FaultKind) -> bool {
    match kind {
        FaultKind::LinkDown { switch, port } => network.fail_link(switch, port),
        FaultKind::LinkUp { switch, port } => network.restore_link(switch, port),
        FaultKind::SwitchCrash { switch } => network.crash_switch(switch),
        FaultKind::SwitchRestore { switch } => network.restore_switch(switch),
        FaultKind::ControlDelay { .. }
        | FaultKind::InstallDrop { .. }
        | FaultKind::InstallFail { .. }
        | FaultKind::ControlPartition { .. }
        | FaultKind::ControllerCrash { .. }
        | FaultKind::ControllerRestart => false,
    }
}

/// Convergence accounting for one fault.
#[derive(Debug, Clone)]
pub struct EventReport {
    /// [`FaultKind::label`] of the injected fault.
    pub label: &'static str,
    /// Simulation time the fault struck.
    pub fault_ns: u64,
    /// What the controller's repair pass did.
    pub repair: RepairStats,
    /// Control-channel congestion charged to this repair.
    pub control_extra_ns: u64,
    /// Widest per-host dark window over the measured hosts
    /// ([`Copies::blackout_ns`](camus_telemetry::Copies::blackout_ns); 0
    /// if nothing was missed).
    pub blackout_ns: u64,
    /// Expected hosts still attached under the post-fault mask (a host
    /// whose only access path died is unreachable by definition and is
    /// owed nothing).
    pub measured_hosts: usize,
    /// The probe stream's audit from the host delivery logs: must = the
    /// measured hosts, may = [`ProbeConfig::expected`]. Repair may miss
    /// probes but must never leak one (`misdelivered` stays 0).
    pub audit: AuditReport,
    /// Every measured host received the final probe.
    pub recovered: bool,
    /// The same audit over the postcard
    /// [`Collector`](camus_telemetry::Collector)'s copies of the traced
    /// probes; present when the network had telemetry attached and at
    /// least one probe was sampled. With 1/1 sampling it equals
    /// `audit`; at lower rates it covers the traced probes only.
    pub telemetry: Option<AuditReport>,
    /// The dark window rebuilt from the postcards' arrival times, the
    /// same way as `blackout_ns` (0 without telemetry). With 1/1
    /// sampling it equals `blackout_ns`.
    pub telemetry_blackout_ns: u64,
    /// Blackhole anomalies among this fault's traced probes.
    pub blackholes: usize,
    /// Loop anomalies among this fault's traced probes (must be zero —
    /// never-re-ascend forwarding cannot loop).
    pub loops: usize,
}

/// Inject `kind` into a deployed network under probe traffic, let the
/// repair window elapse, repair, drain, and account for every probe.
pub fn run_fault(
    ctrl: &Controller,
    d: &mut Deployment,
    subs: &[Vec<Expr>],
    kind: FaultKind,
    probe: &ProbeConfig,
    model: &RepairModel,
    control_extra_ns: u64,
) -> Result<EventReport, DeployError> {
    let before = d.network.log_lengths();

    let t0 = d.network.now_ns();
    let iv = probe.interval_ns;
    let total = probe.warmup + probe.after;
    assert!(total > 0 && iv > 0, "probe stream must be non-empty");
    let probe_times: Vec<u64> = (0..total as u64).map(|i| t0 + (i + 1) * iv).collect();
    let fault_ns = t0 + probe.warmup as u64 * iv + iv / 2;

    let mut traced: Vec<(PostcardId, u64)> = Vec::new();
    for &t in &probe_times[..probe.warmup] {
        if let Some(id) = d.network.publish(probe.publisher, probe.packet.clone(), t) {
            traced.push((id, t));
        }
    }
    d.network.run(Some(fault_ns));
    // Failures take effect immediately — the network breaks first, the
    // controller notices later. Restores are make-before-break: a
    // resurrected element still has stale (or no) tables, so traffic
    // must not be steered back onto it until the same control action
    // that re-admits it also installs its repaired pipeline; both land
    // together at the end of the control window.
    if kind.is_degrading() {
        apply_fault(&mut d.network, kind);
    }
    for &t in &probe_times[probe.warmup..] {
        if let Some(id) = d.network.publish(probe.publisher, probe.packet.clone(), t) {
            traced.push((id, t));
        }
    }
    // The outage persists for the detection + repair window, then the
    // controller converges the tables; remaining probes ride the
    // repaired routing.
    d.network.run(Some(fault_ns + model.window_ns(control_extra_ns)));
    if !kind.is_degrading() {
        apply_fault(&mut d.network, kind);
    }
    let repair = ctrl.repair(d, subs, &mut PerfectChannel)?;
    d.network.run(None);

    // --- accounting ---
    let may: BTreeSet<HostId> = probe.expected.iter().copied().collect();
    let attached = |h: &HostId| d.network.topology.host_attached(*h, d.network.fault_mask());
    let must: BTreeSet<HostId> = may.iter().copied().filter(attached).collect();
    let log = d.network.copies(&before, &probe_times);
    let last = log.probes.last().expect("probe stream is non-empty");
    let recovered = must.iter().all(|h| last.landed.contains_key(h));
    let now = d.network.now_ns();

    // The postcard side: the same fold and dark window over the
    // collector's copies.
    let (mut telemetry, mut telemetry_blackout_ns, mut blackholes, mut loops) = (None, 0, 0, 0);
    if let Some(col) = d.network.collector_mut().filter(|_| !traced.is_empty()) {
        let seen = col.copies(&traced, &must);
        telemetry = Some(seen.copies.audit(repeat((&must, &may))));
        telemetry_blackout_ns = seen.copies.blackout_ns(&must, now);
        (blackholes, loops) = (seen.blackholes, seen.loops);
    }

    Ok(EventReport {
        label: kind.label(),
        fault_ns,
        repair,
        control_extra_ns,
        blackout_ns: log.blackout_ns(&must, now),
        measured_hosts: must.len(),
        audit: log.audit(repeat((&must, &may))),
        recovered,
        telemetry,
        telemetry_blackout_ns,
        blackholes,
        loops,
    })
}

/// Run a whole schedule. `ControlDelay` events are not faults of their
/// own: they accumulate onto the repair window of the next real fault.
/// Event times pace the runs (the network idles forward to each).
pub fn run_schedule(
    ctrl: &Controller,
    d: &mut Deployment,
    subs: &[Vec<Expr>],
    schedule: &FaultSchedule,
    probe: &ProbeConfig,
    model: &RepairModel,
) -> Result<FaultReport, DeployError> {
    let mut report = FaultReport::default();
    let mut extra = 0u64;
    for ev in schedule.events() {
        if ev.at_ns > d.network.now_ns() {
            d.network.run(Some(ev.at_ns));
        }
        match ev.kind {
            FaultKind::ControlDelay { extra_ns } => extra += extra_ns,
            // Control-channel faults have no effect under this
            // harness's perfect channel; the chaos soak drives them
            // through a `LossyChannel` instead.
            kind if kind.is_control_channel() => {}
            kind => {
                report.events.push(run_fault(ctrl, d, subs, kind, probe, model, extra)?);
                extra = 0;
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_dataplane::PacketBuilder;
    use camus_lang::parser::parse_expr;
    use camus_lang::spec::itch_spec;
    use camus_lang::value::Value;
    use camus_net::controller::Controller;
    use camus_oracle::itch_controller;
    use camus_routing::algorithm1::Policy;
    use camus_routing::topology::{paper_fat_tree, DownTarget};

    fn setup() -> (Controller, Deployment, Vec<Vec<Expr>>, ProbeConfig) {
        let net = paper_fat_tree();
        let ctrl = itch_controller(Policy::TrafficReduction);
        let subs: Vec<Vec<Expr>> = (0..net.host_count())
            .map(|h| if h == 15 { vec![parse_expr("stock == GOOGL").unwrap()] } else { vec![] })
            .collect();
        let d = ctrl.deploy(net, &subs).unwrap();
        let packet = PacketBuilder::new(&itch_spec())
            .message(vec![("stock", Value::from("GOOGL")), ("price", Value::Int(10))])
            .build();
        let probe = ProbeConfig {
            publisher: 0,
            packet,
            expected: vec![15],
            interval_ns: 20_000,
            warmup: 3,
            after: 30,
        };
        (ctrl, d, subs, probe)
    }

    fn chain_link(d: &Deployment, host: usize) -> (usize, u16) {
        let net = &d.network.topology;
        let chain = net.designated_chain(host);
        let (tor, agg) = (chain[0], chain[1]);
        let port = net.switches[agg]
            .down
            .iter()
            .position(|t| matches!(t, DownTarget::Switch(c, _) if *c == tor))
            .unwrap();
        (agg, port as u16)
    }

    #[test]
    fn link_down_blacks_out_then_recovers() {
        let (ctrl, mut d, subs, probe) = setup();
        let (agg, port) = chain_link(&d, 15);
        let model = RepairModel::default();
        let r = run_fault(
            &ctrl,
            &mut d,
            &subs,
            FaultKind::LinkDown { switch: agg, port },
            &probe,
            &model,
            0,
        )
        .unwrap();
        assert_eq!(r.label, "link-down");
        assert_eq!(r.measured_hosts, 1);
        assert!(r.audit.missed > 0, "the cut must cost something");
        assert!(r.blackout_ns > 0);
        assert!(r.recovered, "repair must restore delivery");
        assert_eq!(r.audit.misdelivered, 0);
        assert_eq!(r.audit.duplicated, 0);
        assert_eq!(r.audit.delivered + r.audit.missed, r.audit.expected);
        assert!(r.repair.reinstalled > 0);
        assert!(r.repair.reused > 0);
        // Blackout is bounded by the repair window plus probe slack.
        assert!(r.blackout_ns <= model.window_ns(0) + 3 * probe.interval_ns);

        // Healing the link back is hitless: the degraded routing is
        // still valid on the healthier topology, so no probe is lost.
        let up = run_fault(
            &ctrl,
            &mut d,
            &subs,
            FaultKind::LinkUp { switch: agg, port },
            &probe,
            &model,
            0,
        )
        .unwrap();
        assert_eq!(up.audit.missed, 0, "restores are make-before-break");
        assert_eq!(up.blackout_ns, 0);
        assert_eq!(up.audit.misdelivered, 0);
        assert!(up.recovered);
        assert!(up.repair.reinstalled > 0, "repair moves back to the healthy routing");
    }

    #[test]
    fn control_delay_widens_the_blackout() {
        let (ctrl, mut d, subs, probe) = setup();
        let (agg, port) = chain_link(&d, 15);
        let model = RepairModel::default();
        let fast = run_fault(
            &ctrl,
            &mut d,
            &subs,
            FaultKind::LinkDown { switch: agg, port },
            &probe,
            &model,
            0,
        )
        .unwrap();
        run_fault(&ctrl, &mut d, &subs, FaultKind::LinkUp { switch: agg, port }, &probe, &model, 0)
            .unwrap();
        let extra = 200_000;
        let slow = run_fault(
            &ctrl,
            &mut d,
            &subs,
            FaultKind::LinkDown { switch: agg, port },
            &probe,
            &model,
            extra,
        )
        .unwrap();
        assert!(slow.blackout_ns > fast.blackout_ns, "congested control plane converges later");
        assert_eq!(slow.control_extra_ns, extra);
        assert!(slow.recovered);
    }

    #[test]
    fn telemetry_accounting_matches_probe_accounting() {
        use camus_telemetry::SampleRate;
        let (ctrl, mut d, subs, probe) = setup();
        d.network.attach_telemetry(SampleRate::always());
        let (agg, port) = chain_link(&d, 15);
        let model = RepairModel::default();
        let r = run_fault(
            &ctrl,
            &mut d,
            &subs,
            FaultKind::LinkDown { switch: agg, port },
            &probe,
            &model,
            0,
        )
        .unwrap();
        // Every number the probe harness computed from host delivery
        // logs must be reproduced from postcards alone.
        assert_eq!(r.telemetry, Some(r.audit), "1/1 sampling traces every probe");
        assert_eq!(r.audit.probes, probe.warmup + probe.after);
        assert_eq!(r.telemetry_blackout_ns, r.blackout_ns);
        // One measured host: each missed probe is exactly one
        // blackhole anomaly, and loop-free forwarding reports none.
        assert_eq!(r.blackholes, r.audit.missed);
        assert_eq!(r.loops, 0);

        // Without telemetry attached the field stays empty and the
        // probe accounting is unaffected.
        let (ctrl, mut d, subs, probe) = setup();
        let untraced = run_fault(
            &ctrl,
            &mut d,
            &subs,
            FaultKind::LinkDown { switch: agg, port },
            &probe,
            &model,
            0,
        )
        .unwrap();
        assert!(untraced.telemetry.is_none());
        assert_eq!(untraced.telemetry_blackout_ns, 0);
        assert_eq!(untraced.audit, r.audit);
        assert_eq!(untraced.blackout_ns, r.blackout_ns);
        assert!(untraced.recovered);
    }

    #[test]
    fn a_multi_message_probe_counts_each_pair_once() {
        // Two matching messages per probe. The delivery log keeps one
        // entry per delivered message; the copies view reads the two
        // entries a packet copy leaves as one copy, so no pair reads a
        // duplicate, and `delivered + missed` counts every (host, probe)
        // pair owed exactly once.
        let (ctrl, mut d, subs, mut probe) = setup();
        let googl = || vec![("stock", Value::from("GOOGL")), ("price", Value::Int(10))];
        probe.packet = PacketBuilder::new(&itch_spec()).message(googl()).message(googl()).build();
        let (agg, port) = chain_link(&d, 15);
        let model = RepairModel::default();
        let kind = FaultKind::LinkDown { switch: agg, port };
        let r = run_fault(&ctrl, &mut d, &subs, kind, &probe, &model, 0).unwrap();
        assert!(r.audit.missed > 0, "the cut must cost something");
        assert!(r.audit.delivered > 0);
        assert_eq!(r.audit.delivered + r.audit.missed, r.audit.expected);
        assert_eq!(r.audit.duplicated, 0, "one packet copy per landed pair");
    }

    #[test]
    fn switch_crash_and_restore_round_trip() {
        let (ctrl, mut d, subs, probe) = setup();
        let agg = d.network.topology.designated_chain(15)[1];
        let model = RepairModel::default();
        let mut schedule = FaultSchedule::new();
        schedule.push(0, FaultKind::SwitchCrash { switch: agg });
        schedule.push(1, FaultKind::ControlDelay { extra_ns: 50_000 });
        schedule.push(2, FaultKind::SwitchRestore { switch: agg });
        let report = run_schedule(&ctrl, &mut d, &subs, &schedule, &probe, &model).unwrap();
        assert_eq!(report.events.len(), 2, "control delay folds into the restore");
        assert_eq!(report.events[0].label, "switch-crash");
        assert_eq!(report.events[1].label, "switch-restore");
        assert_eq!(report.events[1].control_extra_ns, 50_000);
        assert_eq!(report.total_misdelivered(), 0);
        assert!(report.all_recovered());
        assert!(report.events[0].blackout_ns > 0);
        assert_eq!(report.events[1].audit.missed, 0, "restore is hitless");
        assert!(d.network.fault_mask().is_healthy());
    }
}
