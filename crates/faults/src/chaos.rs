//! The chaos soak: seeded random interleavings of subscription churn,
//! data-plane faults, and control-channel loss.
//!
//! Each step draws one operation (churn a host's subscriptions, cut or
//! splice a link, crash or restore a switch, re-dial the channel loss
//! rates, partition or heal a switch's control channel), lets the
//! controller attempt a repair over the lossy channel, then publishes
//! a burst of witness probes and audits it with the one probe fold
//! ([`camus_telemetry::audit`]), per (host, probe) pair: must = the
//! attached hosts the deployed subscriptions match, may = every host
//! they match (plus, while a crashed transaction is in doubt, the hosts
//! its target matches):
//!
//! * **no mis-delivery, ever** — a host whose *deployed* subscriptions
//!   do not match the witness must never receive it, rollback or not;
//! * **no duplicates, ever**;
//! * **committed ⇒ delivered** — after a successful (committed) repair
//!   every attached matching host receives every probe;
//! * **bounded blackout** — a host can only stay dark while repairs
//!   are rolling back *or the controller is down*, so the longest dark
//!   streak is bounded by the longest such outage streak;
//! * **eventual convergence** — once faults are restored and the
//!   channel heals, one repair converges the network to exactly what a
//!   fresh deploy would install (`camus_oracle::same_tables`:
//!   per-switch fingerprints, entry counts, compiled and installed
//!   pipelines).
//!
//! The schedule can also **kill the controller** mid-transaction
//! ([`FaultKind::ControllerCrash`] arms the channel to die after N
//! more ops — mid-compile, mid-stage, or mid-commit depending on N).
//! A crashed transaction is abandoned with *no rollback*: staged
//! shadow programs stay on the switches, and a crash after the commit
//! point leaves the fleet half-old half-new. While the controller is
//! down the audit checks deliveries against the *union* of the old
//! deployed state and the in-doubt transaction's target (either is
//! legitimate; anything else is a leak). [`FaultKind::ControllerRestart`]
//! brings a fresh controller up over the recorded commit decisions:
//! staged epochs are reconciled presumed-abort, divergent switches are
//! reinstalled, and the recovered step must deliver in full.
//!
//! With postcard sampling on, the collector's copies of a burst go
//! through the same fold, and a fully traced burst's postcard audit
//! must equal its delivery-log one; such a burst's dark streaks are
//! read from the postcards too.
//!
//! The harness asserts the invariants inline (a violation is a test
//! failure, not a data point) and returns a per-step report whose
//! columns are all deterministic in the seed.

use crate::channel::LossyChannel;
use crate::event::FaultKind;
use crate::inject::FaultInjector;
use crate::scenario::apply_fault;
use camus_dataplane::Packet;
use camus_lang::ast::Expr;
use camus_lang::ast::Port;
use camus_lang::value::Value;
use camus_net::controller::{Controller, Deployment};
use camus_net::{ChannelOutcome, ControlChannel, ControlOp, Network, ReconcileStats};
use camus_oracle::{expected_hosts, same_tables};
use camus_routing::topology::{HierNet, HostId, SwitchId};
use camus_telemetry::{AuditReport, PostcardId, SampleRate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::iter::repeat;

/// Knobs of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    pub seed: u64,
    /// Chaos steps (one operation + repair + probe burst each).
    pub steps: usize,
    /// Witness probes published per step.
    pub probes_per_step: usize,
    pub probe_interval_ns: u64,
    /// Postcard sampling for the witness probes. When enabled, each
    /// step's audit is recomputed from the telemetry collector and
    /// cross-checked against the delivery logs, and the collector's
    /// detectors count blackholes and loops.
    pub sample: SampleRate,
    /// Controller outage bound: after this many consecutive
    /// controller-down steps the next step restarts it (the operator's
    /// pager), whatever the schedule would otherwise draw. The RNG's
    /// restart arm can still fire earlier.
    pub restart_within: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A0,
            steps: 12,
            probes_per_step: 3,
            probe_interval_ns: 20_000,
            sample: SampleRate::DISABLED,
            restart_within: 4,
        }
    }
}

/// One audited chaos step. Every field is deterministic in the seed —
/// no wall-clock anywhere.
#[derive(Debug, Clone)]
pub struct ChaosStep {
    pub step: usize,
    /// What the step did (fault label, `churn`, `drop-pct=30`, ...).
    pub label: String,
    /// `committed`, `rolled-back`, `noop` (nothing to reinstall),
    /// `controller-down` (process dead, no repair ran or it died
    /// mid-flight), or `recovered` (restart + reconcile + reinstall).
    pub outcome: &'static str,
    /// Control-channel attempts / retries of the repair transaction.
    pub attempts: u32,
    pub retries: u32,
    /// Switches whose new pipeline was committed.
    pub reinstalled: usize,
    /// Switches currently on the coarse degraded pipeline.
    pub degraded: usize,
    /// The witness burst's audit from the delivery logs: must = the
    /// attached hosts the deployed subscriptions match, may = every
    /// host they match plus, while a crashed transaction is in doubt,
    /// the hosts its target matches.
    pub audit: AuditReport,
    /// Channel dials in force during the step.
    pub drop_pct: u8,
    pub fail_pct: u8,
    pub partitions: usize,
    /// The same fold over the postcards of the traced probes; `None`
    /// when the sampler traced none. Equal to `audit` whenever every
    /// probe was traced.
    pub telemetry: Option<AuditReport>,
    /// Blackhole anomalies the collector reported for this step's
    /// traced probes.
    pub blackholes: usize,
    /// Loop anomalies — must always be zero.
    pub loops: usize,
}

/// The whole soak, plus the convergence audit.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    pub steps: Vec<ChaosStep>,
    pub committed_steps: usize,
    pub rolled_back_steps: usize,
    /// Steps spent with the controller process dead.
    pub down_steps: usize,
    /// Controller crashes injected / recoveries performed.
    pub crashes: usize,
    pub recoveries: usize,
    /// Longest run of consecutive rolled-back repairs.
    pub max_rollback_streak: usize,
    /// Longest run of consecutive steps with no committed repair
    /// (rolled back or controller down) — the blackout bound.
    pub max_outage_streak: usize,
    /// Longest run of consecutive steps any single host stayed dark.
    pub max_dark_streak: usize,
    /// Delivered (host, probe) pairs of the post-heal final burst.
    pub final_delivered: usize,
    /// The healed network held a fresh deploy's tables, switch for
    /// switch (`camus_oracle::same_tables`).
    pub converged: bool,
}

/// Channel wrapper that records every commit decision at the commit
/// point — the soak's stand-in for the service's durable WAL (same
/// hook, same presumed-abort contract).
struct DecisionLog<'a> {
    inner: &'a mut LossyChannel,
    decisions: &'a mut BTreeSet<u64>,
}

impl ControlChannel for DecisionLog<'_> {
    fn attempt(&mut self, switch: usize, op: ControlOp, attempt: u32) -> ChannelOutcome {
        self.inner.attempt(switch, op, attempt)
    }

    fn commit_point(&mut self, epoch: u64) -> std::io::Result<()> {
        self.decisions.insert(epoch);
        self.inner.commit_point(epoch)
    }
}

/// Bring a dead (or about-to-die) controller back: revive the
/// channel, reconcile every switch's staged epoch against the logged
/// commit decisions (presumed abort), and reinstall whatever diverges
/// from a fresh compile of the target state. Recovery runs over the
/// management path — the chaos dials are lifted for its transaction
/// and restored afterwards — so it always commits, the way an
/// operator-driven restart does.
fn recover_controller(
    ctrl: &Controller,
    d: Deployment,
    subs: &[Vec<Expr>],
    channel: &mut LossyChannel,
    decisions: &mut BTreeSet<u64>,
) -> (Deployment, ReconcileStats) {
    let dials = (channel.drop_pct, channel.fail_pct, std::mem::take(&mut channel.partitioned));
    channel.revive();
    channel.heal_all();
    // The dead controller's memory is gone: the next epoch comes from
    // the durable decision log alone.
    let next_epoch = decisions.iter().max().map_or(1, |m| m + 1);
    let committed = decisions.clone();
    let (nd, stats) = ctrl
        .recover_deployment(
            d.network,
            subs,
            &committed,
            next_epoch,
            &mut DecisionLog { inner: channel, decisions },
        )
        .expect("recovery over the management channel must commit");
    channel.drop_pct = dials.0;
    channel.fail_pct = dials.1;
    channel.partitioned = dials.2;
    (nd, stats)
}

/// The scripted inputs of a run (the randomness lives in the config
/// seed, not here).
pub struct ChaosInput<'a> {
    pub ctrl: &'a Controller,
    pub net: &'a HierNet,
    /// Initial per-host subscriptions; churned in place as the soak
    /// runs.
    pub subs: Vec<Vec<Expr>>,
    /// Spare filters churn draws from.
    pub pool: Vec<Expr>,
    /// The witness packet probes are published as.
    pub witness: Packet,
    /// The witness's attribute values, for deciding who must hear it.
    pub witness_values: Vec<(String, Value)>,
    pub publisher: HostId,
}

/// Run the soak. Panics (test failure) on any invariant violation.
pub fn run_chaos(input: ChaosInput<'_>, cfg: &ChaosConfig) -> ChaosReport {
    let ChaosInput { ctrl, net, mut subs, pool, witness, witness_values, publisher } = input;
    assert!(!pool.is_empty(), "churn needs a filter pool");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut injector = FaultInjector::new(cfg.seed ^ 0x1517);
    let mut channel = LossyChannel::new(cfg.seed ^ 0xFA11);

    // One burst of witnesses, a probe interval apart, run out: its
    // copies from the delivery logs, and `(postcard, publish stamp)` of
    // every probe the sampler traced.
    let witness_burst = |net: &mut Network| {
        let (before, t0) = (net.log_lengths(), net.now_ns());
        let times: Vec<u64> =
            (1..=cfg.probes_per_step as u64).map(|i| t0 + i * cfg.probe_interval_ns).collect();
        let mut traced: Vec<(PostcardId, u64)> = Vec::new();
        for &t in &times {
            traced.extend(net.publish(publisher, witness.clone(), t).map(|id| (id, t)));
        }
        net.run(None);
        (net.copies(&before, &times), traced)
    };
    let mut d = ctrl.deploy(net.clone(), &subs).expect("initial deploy");
    if !cfg.sample.is_disabled() {
        d.network.attach_telemetry(cfg.sample);
    }
    // The subscriptions the network actually runs: follows `subs` on
    // every committed repair, freezes across rollbacks.
    let mut deployed_subs = subs.clone();
    let mut pool_next = 0usize;

    // Live fault state, bounded so no host is ever physically cut off
    // (crashes spare the ToRs; at most 2 links + 1 switch down at once).
    let mut broken_links: Vec<(SwitchId, Port)> = Vec::new();
    let mut dead_switch: Option<SwitchId> = None;

    let mut steps = Vec::new();
    let mut rollback_streak = 0usize;
    let mut max_rollback_streak = 0usize;
    let mut outage_streak = 0usize;
    let mut max_outage_streak = 0usize;
    let mut dark_streak: BTreeMap<HostId, usize> = BTreeMap::new();
    let mut max_dark_streak = 0usize;
    let (mut committed_steps, mut rolled_back_steps) = (0usize, 0usize);
    let (mut down_steps, mut crashes, mut recoveries) = (0usize, 0usize, 0usize);
    // Consecutive controller-down steps; bounded by the restart pager.
    let mut down_streak = 0usize;
    // The durable commit ledger: epoch 1 is the initial deploy. A
    // recovering controller knows *only* what is in here.
    let mut decisions: BTreeSet<u64> = BTreeSet::new();
    decisions.insert(1);
    // Target of a transaction the controller died inside of after its
    // commit point: deliveries may reflect it, the old state, or any
    // per-switch mix until recovery reconciles.
    let mut in_doubt: Option<Vec<Vec<Expr>>> = None;

    for step in 0..cfg.steps {
        // --- 1. one chaos operation ---
        // A restart step repairs inside the op itself; it sets this to
        // skip the normal lossy-channel repair below.
        let mut step_override: Option<(&'static str, usize)> = None;
        // The RNG always advances (keeps the schedule seed-stable);
        // past the outage bound the draw is overridden into the
        // restart arm.
        let roll = rng.gen_range(0..100u32);
        let roll = if channel.crash_after.is_some() && down_streak >= cfg.restart_within {
            99
        } else {
            roll
        };
        let label: String = match roll {
            0..40 => {
                let host = {
                    let mut h = rng.gen_range(0..net.host_count());
                    if h == publisher {
                        h = (h + 1) % net.host_count();
                    }
                    h
                };
                if !subs[host].is_empty() && rng.gen_bool(0.5) {
                    subs[host].pop();
                    format!("churn-unsub h{host}")
                } else {
                    subs[host].push(pool[pool_next % pool.len()].clone());
                    pool_next += 1;
                    format!("churn-sub h{host}")
                }
            }
            40..54 => {
                if !broken_links.is_empty() && (broken_links.len() >= 2 || rng.gen_bool(0.5)) {
                    let (s, p) = broken_links.swap_remove(rng.gen_range(0..broken_links.len()));
                    apply_fault(&mut d.network, FaultKind::LinkUp { switch: s, port: p });
                    format!("link-up {s}:{p}")
                } else {
                    let (s, p) = injector.pick_link(net);
                    if broken_links.contains(&(s, p)) || Some(s) == dead_switch {
                        "noop-link".to_string()
                    } else {
                        broken_links.push((s, p));
                        apply_fault(&mut d.network, FaultKind::LinkDown { switch: s, port: p });
                        format!("link-down {s}:{p}")
                    }
                }
            }
            54..63 => match dead_switch.take() {
                Some(s) => {
                    apply_fault(&mut d.network, FaultKind::SwitchRestore { switch: s });
                    format!("switch-restore {s}")
                }
                None => {
                    let s = injector.pick_switch(net, 1);
                    dead_switch = Some(s);
                    apply_fault(&mut d.network, FaultKind::SwitchCrash { switch: s });
                    format!("switch-crash {s}")
                }
            },
            63..74 => {
                let pct = [0u8, 10, 30, 60][rng.gen_range(0..4usize)];
                channel.apply(FaultKind::InstallDrop { pct });
                format!("drop-pct={pct}")
            }
            74..83 => {
                let pct = [0u8, 10, 30, 60][rng.gen_range(0..4usize)];
                channel.apply(FaultKind::InstallFail { pct });
                format!("fail-pct={pct}")
            }
            83..91 => {
                if channel.partitioned.is_empty() {
                    let s = rng.gen_range(0..net.switch_count());
                    channel.apply(FaultKind::ControlPartition { switch: s, healed: false });
                    format!("control-partition {s}")
                } else {
                    let s = *channel.partitioned.iter().next().unwrap();
                    channel.apply(FaultKind::ControlPartition { switch: s, healed: true });
                    format!("control-heal {s}")
                }
            }
            _ => {
                if channel.crash_after.is_some() {
                    // Restart: a fresh controller replays the decision
                    // ledger and reconciles the fleet.
                    let (nd, rstats) =
                        recover_controller(ctrl, d, &subs, &mut channel, &mut decisions);
                    d = nd;
                    deployed_subs = subs.clone();
                    in_doubt = None;
                    recoveries += 1;
                    step_override = Some(("recovered", rstats.reinstalled));
                    format!(
                        "controller-restart rf={} ab={} fin={} rev={}",
                        rstats.rolled_forward, rstats.aborted, rstats.finalized, rstats.reverted
                    )
                } else {
                    // Arm the crash N ops out so it lands mid-stage or
                    // mid-commit of whichever repair runs next.
                    let after_ops = [0u64, 1, 2, 3, 5, 8, 13, 21][rng.gen_range(0..8usize)];
                    channel.apply(FaultKind::ControllerCrash { after_ops });
                    crashes += 1;
                    format!("controller-crash after={after_ops}")
                }
            }
        };

        // --- 2. repair over the lossy channel ---
        let (outcome, attempts, retries, reinstalled) = if let Some((oc, ri)) = step_override {
            (oc, 0, 0, ri)
        } else if channel.is_crashed() {
            // No controller process: nothing even attempts a repair.
            // Forwarding keeps running on whatever is installed.
            ("controller-down", 0, 0, 0)
        } else {
            let mut logged = DecisionLog { inner: &mut channel, decisions: &mut decisions };
            match ctrl.repair(&mut d, &subs, &mut logged) {
                Ok(stats) => {
                    deployed_subs = subs.clone();
                    in_doubt = None;
                    let r = &d.report;
                    let oc = if stats.reinstalled == 0 { "noop" } else { "committed" };
                    (oc, r.total_attempts(), r.total_retries(), stats.reinstalled)
                }
                Err(camus_net::DeployError::Crashed { report, .. }) => {
                    // The armed crash fired mid-transaction. Past the
                    // commit point some switches already run the new
                    // program, so the target joins the audit's legit
                    // set; before it, staged shadows never forward.
                    if report.committed() > 0 {
                        in_doubt = Some(subs.clone());
                    }
                    ("controller-down", report.total_attempts(), report.total_retries(), 0)
                }
                Err(e) => {
                    let r = match &e {
                        camus_net::DeployError::Admission { report, .. }
                        | camus_net::DeployError::Channel { report, .. }
                        | camus_net::DeployError::CommitPoint { report, .. } => report.clone(),
                        camus_net::DeployError::Compile(_)
                        | camus_net::DeployError::HostCount { .. } => {
                            panic!("chaos repair failed: {e}")
                        }
                        camus_net::DeployError::Crashed { .. } => unreachable!("matched above"),
                    };
                    ("rolled-back", r.total_attempts(), r.total_retries(), 0)
                }
            }
        };
        match outcome {
            "rolled-back" => {
                rolled_back_steps += 1;
                rollback_streak += 1;
                max_rollback_streak = max_rollback_streak.max(rollback_streak);
            }
            "controller-down" => {
                down_steps += 1;
                down_streak += 1;
                rollback_streak = 0;
            }
            _ => {
                committed_steps += 1;
                rollback_streak = 0;
            }
        }
        if outcome != "controller-down" {
            down_streak = 0;
        }
        assert!(
            down_streak <= cfg.restart_within + 1,
            "controller outage ({down_streak} steps) exceeds the restart bound"
        );
        if outcome == "rolled-back" || outcome == "controller-down" {
            outage_streak += 1;
            max_outage_streak = max_outage_streak.max(outage_streak);
        } else {
            outage_streak = 0;
        }

        // --- 3. probe burst + audit ---
        let (log, traced) = witness_burst(&mut d.network);
        let deployed = expected_hosts(&deployed_subs, &witness_values, Some(publisher));
        let must: BTreeSet<HostId> = deployed
            .iter()
            .copied()
            .filter(|&h| d.network.topology.host_attached(h, d.network.fault_mask()))
            .collect();
        // While a crashed transaction is in doubt, a host matching
        // either the old deployed state or the half-committed target
        // may legitimately hear the witness; anything outside the
        // union is still a leak.
        let mut may: BTreeSet<HostId> = deployed.into_iter().collect();
        if let Some(target) = &in_doubt {
            may.extend(expected_hosts(target, &witness_values, Some(publisher)));
        }
        let audit = log.audit(repeat((&must, &may)));
        // Invariants: never leak, never duplicate; a committed repair
        // delivers in full.
        assert_eq!(audit.misdelivered, 0, "step {step} ({label}): witness leaked");
        assert_eq!(audit.duplicated, 0, "step {step} ({label}): duplicate delivery");
        if outcome != "rolled-back" && outcome != "controller-down" {
            assert_eq!(audit.missed, 0, "step {step} ({label}): committed repair must deliver");
        }

        // --- telemetry audit: the same fold over the postcards alone,
        // cross-checked against the logs when every probe was traced ---
        let seen = d.network.collector_mut().filter(|_| !traced.is_empty());
        let seen = seen.map(|col| col.copies(&traced, &must));
        let full = traced.len() == cfg.probes_per_step;
        let telemetry = seen.as_ref().map(|seen| {
            let postcard = seen.copies.audit(repeat((&must, &may)));
            assert_eq!(postcard.misdelivered, 0, "step {step} ({label}): postcard saw a leak");
            assert_eq!(seen.loops, 0, "step {step} ({label}): postcard saw a loop");
            if full {
                assert_eq!(postcard, audit, "step {step} ({label}): postcard audit");
            }
            postcard
        });
        let (blackholes, loops) = seen.as_ref().map_or((0, 0), |s| (s.blackholes, s.loops));

        // Dark-window accounting comes from the postcards when the
        // sampler traced the full burst; the delivery logs are the
        // fallback for untraced runs.
        let lit = seen.as_ref().filter(|_| full).map_or(&log, |seen| &seen.copies);
        for &h in &must {
            let streak = dark_streak.entry(h).or_insert(0);
            if lit.probes.iter().any(|p| p.landed.contains_key(&h)) {
                *streak = 0;
            } else {
                *streak += 1;
                max_dark_streak = max_dark_streak.max(*streak);
            }
        }

        steps.push(ChaosStep {
            step,
            label,
            outcome,
            attempts,
            retries,
            reinstalled,
            degraded: d.degraded.len(),
            audit,
            drop_pct: channel.drop_pct,
            fail_pct: channel.fail_pct,
            partitions: channel.partitioned.len(),
            telemetry,
            blackholes,
            loops,
        });
    }
    // Blackout is bounded: a host only stays dark while repairs are
    // rolling back or the controller is down.
    assert!(
        max_dark_streak <= max_outage_streak.max(1),
        "dark streak {max_dark_streak} exceeds outage streak {max_outage_streak}"
    );

    // --- finale: heal everything, converge, audit equivalence ---
    if channel.crash_after.is_some() {
        // A crash still armed (or in force) at the end of the soak:
        // recover before the convergence audit, like an operator would.
        let (nd, _) = recover_controller(ctrl, d, &subs, &mut channel, &mut decisions);
        d = nd;
        recoveries += 1;
    }
    for (s, p) in broken_links.drain(..) {
        apply_fault(&mut d.network, FaultKind::LinkUp { switch: s, port: p });
    }
    if let Some(s) = dead_switch.take() {
        apply_fault(&mut d.network, FaultKind::SwitchRestore { switch: s });
    }
    channel.heal_all();
    let mut logged = DecisionLog { inner: &mut channel, decisions: &mut decisions };
    ctrl.repair(&mut d, &subs, &mut logged).expect("healed repair must commit");
    assert!(d.network.fault_mask().is_healthy());

    let fresh = ctrl.deploy(net.clone(), &subs).expect("fresh oracle deploy");
    let converged = same_tables(&d, &fresh);
    assert_eq!(converged, Ok(()), "healed network must equal a fresh deploy");

    let (healed, _) = witness_burst(&mut d.network);
    let matching: BTreeSet<HostId> =
        expected_hosts(&subs, &witness_values, Some(publisher)).into_iter().collect();
    let healed = healed.audit(repeat((&matching, &matching)));
    assert!(healed.clean(), "healed network must deliver exactly once: {healed:?}");

    ChaosReport {
        steps,
        committed_steps,
        rolled_back_steps,
        down_steps,
        crashes,
        recoveries,
        max_rollback_streak,
        max_outage_streak,
        max_dark_streak,
        final_delivered: healed.delivered,
        converged: converged.is_ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_dataplane::PacketBuilder;
    use camus_lang::parser::parse_expr;
    use camus_lang::spec::itch_spec;
    use camus_oracle::itch_controller;
    use camus_routing::algorithm1::Policy;
    use camus_routing::topology::paper_fat_tree;

    fn setup() -> ChaosInput<'static> {
        let net: &'static HierNet = Box::leak(Box::new(paper_fat_tree()));
        let subs: Vec<Vec<Expr>> = (0..net.host_count())
            .map(|h| match h {
                5 | 11 => vec![parse_expr("stock == GOOGL").unwrap()],
                15 => vec![parse_expr("price < 100").unwrap()],
                _ => vec![],
            })
            .collect();
        let pool = vec![
            parse_expr("stock == GOOGL").unwrap(),
            parse_expr("price > 500").unwrap(),
            parse_expr("stock == MSFT").unwrap(),
            parse_expr("price < 50").unwrap(),
        ];
        let witness = PacketBuilder::new(&itch_spec())
            .message(vec![("stock", Value::from("GOOGL")), ("price", Value::Int(10))])
            .build();
        ChaosInput {
            ctrl: Box::leak(Box::new(itch_controller(Policy::TrafficReduction))),
            net,
            subs,
            pool,
            witness,
            witness_values: vec![
                ("stock".to_string(), Value::from("GOOGL")),
                ("price".to_string(), Value::Int(10)),
            ],
            publisher: 0,
        }
    }

    #[test]
    fn soak_holds_invariants_and_converges() {
        let input = setup();
        let cfg = ChaosConfig { seed: 0xD06, steps: 16, probes_per_step: 2, ..Default::default() };
        let r = run_chaos(input, &cfg);
        assert_eq!(r.steps.len(), 16);
        assert!(r.converged);
        assert!(r.final_delivered > 0);
        assert_eq!(r.committed_steps + r.rolled_back_steps + r.down_steps, 16);
        for s in &r.steps {
            assert_eq!(s.audit.misdelivered, 0);
            assert_eq!(s.audit.duplicated, 0);
            assert!(s.attempts >= s.retries);
        }
    }

    #[test]
    fn crash_soaks_kill_recover_and_still_converge() {
        // Longer soaks across seeds must actually exercise the
        // controller-crash arm end to end: crashes fire, restarts
        // reconcile, and every run still converges with a clean audit
        // (the inline asserts in run_chaos are the real teeth here).
        let (mut total_crashes, mut total_recoveries, mut total_down) = (0usize, 0usize, 0usize);
        for seed in [0xC4A5u64, 0xD1E, 0xFEED] {
            let input = setup();
            let cfg = ChaosConfig { seed, steps: 40, probes_per_step: 2, ..Default::default() };
            let r = run_chaos(input, &cfg);
            assert!(r.converged);
            assert!(r.final_delivered > 0);
            assert_eq!(r.committed_steps + r.rolled_back_steps + r.down_steps, 40);
            assert!(r.max_dark_streak <= r.max_outage_streak.max(1));
            total_crashes += r.crashes;
            total_recoveries += r.recoveries;
            total_down += r.down_steps;
        }
        assert!(total_crashes > 0, "no controller crashes in 120 chaos steps");
        assert!(total_recoveries > 0, "crashes never recovered");
        assert!(total_down > 0, "controller never observed down");
    }

    #[test]
    fn same_seed_same_soak() {
        let a = setup();
        let b = setup();
        let cfg = ChaosConfig { seed: 0xBEEF, steps: 12, ..Default::default() };
        let ra = run_chaos(a, &cfg);
        let rb = run_chaos(b, &cfg);
        let key = |r: &ChaosReport| {
            r.steps
                .iter()
                .map(|s| {
                    (s.label.clone(), s.outcome, s.attempts, s.retries, s.reinstalled, s.audit)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&ra), key(&rb));
        assert_eq!(ra.final_delivered, rb.final_delivered);
    }

    #[test]
    fn traced_soak_matches_log_audit_and_sees_every_outage() {
        let input = setup();
        let cfg = ChaosConfig {
            seed: 0xD06,
            steps: 16,
            probes_per_step: 2,
            sample: SampleRate::always(),
            ..Default::default()
        };
        let r = run_chaos(input, &cfg);
        for s in &r.steps {
            // 1/1 sampling traces every witness, and the postcard audit
            // is the log audit, field for field.
            assert_eq!(s.telemetry, Some(s.audit), "step {} ({})", s.step, s.label);
            assert_eq!(s.audit.probes, 2);
            assert_eq!(s.loops, 0);
            // A step with misses must surface at least one blackhole
            // anomaly, and a fully delivered step must surface none.
            assert_eq!(s.blackholes > 0, s.audit.missed > 0, "step {} ({})", s.step, s.label);
        }
        assert!(r.converged);

        // The traced soak is behaviourally identical to the untraced
        // one: same outcomes, same delivery accounting, same streaks.
        let untraced = setup();
        let base = run_chaos(untraced, &ChaosConfig { sample: SampleRate::DISABLED, ..cfg });
        let key = |r: &ChaosReport| {
            r.steps.iter().map(|s| (s.label.clone(), s.outcome, s.audit)).collect::<Vec<_>>()
        };
        assert_eq!(key(&r), key(&base));
        assert!(base.steps.iter().all(|s| s.telemetry.is_none()));
        assert_eq!(r.max_dark_streak, base.max_dark_streak);
    }

    #[test]
    fn lossy_seeds_do_roll_back_sometimes() {
        // Across a few seeds the channel dials must actually bite at
        // least once; otherwise the soak is not exercising retry paths.
        let mut rolled = 0usize;
        for seed in [1u64, 2, 3] {
            let input = setup();
            let cfg = ChaosConfig { seed, steps: 14, ..Default::default() };
            rolled += run_chaos(input, &cfg).rolled_back_steps;
        }
        assert!(rolled > 0, "no rollbacks in 42 lossy steps — dials too weak");
    }
}
