//! The transaction step: the service's one step machine.
//!
//! [`CamusService`](crate::CamusService) hands `TxnStage::handle` one
//! closed churn batch (or a merged backlog) on the caller's thread.
//! The step routes and delta-compiles the live target state, installs
//! it, audits the commit, snapshots on the cadence, and returns the
//! [`TxnReport`].
//!
//! The stage owns the service's one target state: the deployed
//! subscriptions with every closed batch's requests applied through
//! the edit rule (`TxnStage::apply`) as the service queues the batch.
//! It keeps the net edits since the last committed install as a
//! multiset `(host, filter) → count`. A batch after which that multiset
//! is empty (subscribe then unsubscribe inside one window) leaves the
//! installed state in place: it costs **zero** compiles and installs,
//! and its report is a noop. The multiset spans batches, so the edits
//! of a rolled-back install still make the next batch compile.
//!
//! Routing plus an incremental network compile run against the
//! installed compile (`deployment.compile`) as a content-addressed
//! cache, with a [`DeltaCache`] of live per-switch BDDs for the
//! switches that miss it. The delta cache can change a table's entries
//! but not its fingerprint, nor the forwarding of a packet that carries
//! every tested field. The dirty lists compile on the routing crate's
//! pool, this thread among its workers. The install then diffs against
//! the same installed state, serially.
//!
//! Two modelled [`Clock`]s keep the stamps. The compile executor's: a
//! batch's compile starts no earlier than its window closed and no
//! earlier than the previous compile finished (`TxnStage::start_ns`),
//! and advances by the measured route + compile wall time. The control
//! channel's: an install starts no earlier than its compile finished
//! and no earlier than the previous install finished (the channel is
//! serial), and advances by the transaction ledger's modelled control
//! time. By default the next compile does not wait for the channel,
//! so transaction N+1 compiles while N installs on the modelled
//! timelines; in naive mode it waits. After every commit the stage can
//! replay configured audit probes through the network and audit their
//! copies with the one probe fold ([`AuditReport`]): each probe must
//! and may reach exactly the hosts whose target subscriptions it
//! matches.
//!
//! The [`TxnReport`] is the transaction's one record: its stamps, its
//! ops, the windows it absorbed, its install's outcome and its audit.
//! The stage keeps no running totals beside it; the service folds the
//! reports into its run totals at shutdown.

use crate::durability::Wal;
use crate::error::{DeployStageError, ServiceError};
use crate::intake::{apply_request, ChurnBatch, RequestId, SubRequest};
use crate::service::ServiceConfig;
use camus_dataplane::Packet;
use camus_lang::ast::Expr;
use camus_lang::value::Value;
use camus_net::controller::{Controller, DeployError, Deployment};
use camus_net::{Clock, ControlChannel};
use camus_routing::compile::DeltaCache;
use camus_routing::verify::matching_hosts;
use camus_telemetry::AuditReport;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Publish-stamp spacing between the probes of one audit round.
const PROBE_GAP_NS: u64 = 10_000;

/// The transaction step machine: owns the target state, the
/// deployment and the control channel.
pub(crate) struct TxnStage {
    ctrl: Controller,
    /// The live deployment: the network and the routing and compile it
    /// runs.
    pub deployment: Deployment,
    channel: Box<dyn ControlChannel + Send>,
    /// The target state: the deployed subscriptions with every queued
    /// batch's requests applied, in order — every accepted request
    /// except those still in intake's open window.
    pub subs: Vec<Vec<Expr>>,
    /// Net edits to `subs` since the last committed install:
    /// subscribes minus unsubscribes per `(host, filter)`, zero counts
    /// dropped after each batch. Empty exactly when `subs` is the state
    /// behind `deployment.compile`.
    net_edits: HashMap<(usize, Expr), i64>,
    /// Live per-switch BDD states keyed by rule-list fingerprint:
    /// switches that miss the fingerprint cache are delta-maintained
    /// from their previous diagram instead of recompiled from scratch.
    /// A maintained table can differ from the scratch one in its
    /// entries; fingerprints and the forwarding of packets that carry
    /// every tested field are the same either way.
    delta: DeltaCache,
    /// The compile executor's modelled timeline.
    compile_clock: Clock,
    /// The control channel's modelled timeline.
    channel_clock: Clock,
    /// The one-op-at-a-time baseline ([`ServiceConfig::naive`]): each
    /// compile waits for the previous install, and the service merges
    /// no backlog.
    pub naive: bool,
    probes: Vec<AuditProbe>,
    /// Durability: where cadence snapshots go (`None` = volatile).
    wal: Option<Wal>,
    /// Snapshot after this many committed transactions (0 = never).
    snapshot_every: u64,
    committed_since_snapshot: u64,
    /// Highest request id applied to `subs`: after a committed install,
    /// exactly the watermark the deployed state reflects.
    last_request: Option<RequestId>,
    pub snapshots_written: u64,
}

/// Apply one request to `subs` and count it in `net_edits` (+1 for a
/// subscribe, −1 for an unsubscribe). The sum of the counts' absolute
/// values is then the number of single-filter edits separating `subs`
/// from the state the counting started at.
fn apply_counted(
    subs: &mut [Vec<Expr>],
    net_edits: &mut HashMap<(usize, Expr), i64>,
    req: &SubRequest,
) {
    // Intake accepted `req` against the same state, so this applies.
    if apply_request(subs, req).is_ok() {
        let (f, step) = req.op.edit();
        *net_edits.entry((req.host, f.clone())).or_insert(0) += step;
    }
}

impl TxnStage {
    /// `subs` must be the state `deployment` was deployed with. Takes
    /// the configuration's mode, audit and durability settings.
    pub(crate) fn new(
        ctrl: Controller,
        deployment: Deployment,
        subs: Vec<Vec<Expr>>,
        channel: Box<dyn ControlChannel + Send>,
        cfg: ServiceConfig,
    ) -> Self {
        TxnStage {
            ctrl,
            deployment,
            channel,
            subs,
            net_edits: HashMap::new(),
            delta: DeltaCache::new(),
            compile_clock: Clock::new(),
            channel_clock: Clock::new(),
            naive: cfg.naive,
            probes: cfg.probes,
            wal: cfg.wal,
            snapshot_every: cfg.snapshot_every,
            committed_since_snapshot: 0,
            last_request: None,
            snapshots_written: 0,
        }
    }

    /// Live delta-maintained BDD states, one per distinct rule-list
    /// fingerprint in the last compile.
    pub(crate) fn delta_states(&self) -> usize {
        self.delta.len()
    }

    /// When the executor picks up a batch that closed at `closed_ns`:
    /// once the batch has closed and the previous compile is done. The
    /// executor is serial, so every batch closed by then is queued
    /// behind it.
    pub(crate) fn start_ns(&self, closed_ns: u64) -> u64 {
        self.compile_clock.now_ns().max(closed_ns)
    }

    /// Apply a closed batch's requests to the target state as it is
    /// queued. Every earlier batch has been applied, and every batch
    /// it cannot join has run, so `handle` routes exactly the state
    /// through its own batch.
    pub(crate) fn apply(&mut self, batch: &ChurnBatch) {
        for req in &batch.requests {
            apply_counted(&mut self.subs, &mut self.net_edits, req);
            self.last_request = Some(req.id);
        }
        self.net_edits.retain(|_, count| *count != 0);
    }

    /// Run one applied batch (or a merged backlog) as a transaction. A
    /// rolled-back install is reported, not an error; a compile
    /// failure, a crashed coordinator or a failed log append is.
    pub(crate) fn handle(&mut self, batch: ChurnBatch) -> Result<TxnReport, ServiceError> {
        // Each accepted op moves the state by one edit, so ops beyond
        // the edits separating it from the installed state cancelled out.
        let ops = batch.requests.len();
        let distance: usize = self.net_edits.values().map(|c| c.unsigned_abs() as usize).sum();
        let cancelled = ops.saturating_sub(distance);

        let compile_start_ns = self.compile_clock.advance_to(batch.closed_ns);
        let mut report = TxnReport {
            txn: batch.txn,
            batches: batch.batches,
            ops,
            cancelled,
            noop: distance == 0,
            committed: true,
            error: None,
            opened_ns: batch.opened_ns,
            closed_ns: batch.closed_ns,
            compile_start_ns,
            compiled_ns: compile_start_ns,
            install_start_ns: 0,
            deployed_ns: 0,
            distinct_compiles: 0,
            reinstalled: 0,
            requests: Vec::new(),
            audit: None,
        };
        if report.noop {
            // Net-zero batch: the installed state is already the
            // target, so the batch is traffic-visible at once. Zero
            // compiles, zero installs — the whole point.
            report.install_start_ns = self.channel_clock.advance_to(compile_start_ns);
            report.deployed_ns = report.install_start_ns;
        } else {
            self.install(&mut report)?;
        }
        if self.naive {
            // The serialized baseline: the next compile waits for this
            // install to land.
            self.compile_clock.advance_to(self.channel_clock.now_ns());
        }

        report.requests = batch
            .requests
            .iter()
            .map(|r| RequestSpan { request: r.id, host: r.host, arrival_ns: r.arrival_ns })
            .collect();
        Ok(report)
    }

    /// Route, compile and install the target state, stamping `report`.
    fn install(&mut self, report: &mut TxnReport) -> Result<(), ServiceError> {
        let wall = Instant::now();
        let net = &self.deployment.network;
        let routing = self.ctrl.plan_routing(&net.topology, &self.subs, net.fault_mask());
        let route_ns = wall.elapsed().as_nanos() as u64;
        let installed = Some(&self.deployment.compile);
        let compile = self.ctrl.compile_routing_delta(&routing, installed, &mut self.delta)?;
        // Fold the measured wall time into the modelled timeline.
        report.compiled_ns = self.compile_clock.advance(wall.elapsed().as_nanos() as u64);

        // The control channel is serial: this install starts when its
        // compile is done and the channel is free.
        report.install_start_ns = self.channel_clock.advance_to(report.compiled_ns);
        let result =
            self.ctrl.install(&mut self.deployment, routing, compile, route_ns, &mut *self.channel);
        let control_ns = match result {
            Ok(stats) => {
                report.distinct_compiles = stats.distinct_compiles;
                report.reinstalled = stats.reinstalled;
                self.net_edits.clear();
                self.snapshot_on_cadence()?;
                report.audit = Some(self.audit());
                self.deployment.report.total_control_ns()
            }
            Err(DeployError::Crashed { epoch, .. }) => {
                // Dead coordinator: nothing was rolled back, staged
                // programs sit on the switches, and this "process"
                // does nothing further. The kill path harvests the
                // wreckage for the recovery arm to reconcile.
                return Err(DeployStageError::Crashed { txn: report.txn, epoch }.into());
            }
            Err(DeployError::CommitPoint { error, .. }) => {
                // Rolled back, but the log may no longer hold what
                // recovery needs: stop.
                return Err(ServiceError::Wal(error));
            }
            Err(e) => {
                // Rolled back: the channel time was still spent. The
                // net edits stay pending, so the next batch compiles
                // and installs the full target state.
                let control_ns = match &e {
                    DeployError::Admission { report: ledger, .. }
                    | DeployError::Channel { report: ledger, .. } => ledger.total_control_ns(),
                    DeployError::Compile(_)
                    | DeployError::CommitPoint { .. }
                    | DeployError::Crashed { .. }
                    | DeployError::HostCount { .. } => 0,
                };
                report.committed = false;
                report.error = Some(e);
                control_ns
            }
        };
        report.deployed_ns = self.channel_clock.advance(control_ns);
        Ok(())
    }

    /// Cadence snapshot of the committed state and the epoch and
    /// request watermarks: bounds the tail a recovery must replay.
    fn snapshot_on_cadence(&mut self) -> Result<(), ServiceError> {
        self.committed_since_snapshot += 1;
        let Some(w) = &self.wal else { return Ok(()) };
        if self.snapshot_every > 0 && self.committed_since_snapshot >= self.snapshot_every {
            w.append_snapshot(&self.subs, self.deployment.next_epoch, self.last_request)
                .map_err(ServiceError::Wal)?;
            self.committed_since_snapshot = 0;
            self.snapshots_written += 1;
        }
        Ok(())
    }

    /// Republish every configured probe and audit its copies against
    /// the target state: each probe must and may reach exactly its
    /// matching hosts.
    fn audit(&mut self) -> AuditReport {
        let net = &mut self.deployment.network;
        let before = net.log_lengths();
        // Distinct publish stamps attribute deliveries to probes.
        let base = net.now_ns() + 1;
        let times: Vec<u64> =
            (0..self.probes.len()).map(|i| base + i as u64 * PROBE_GAP_NS).collect();
        for (p, t) in self.probes.iter().zip(&times) {
            let _ = net.publish(p.publisher, p.packet.clone(), *t);
        }
        net.run(None);
        let owed: Vec<BTreeSet<usize>> = self
            .probes
            .iter()
            .map(|p| matching_hosts(&self.subs, &p.values, Some(p.publisher)).into_iter().collect())
            .collect();
        net.copies(&before, &times).audit(owed.iter().map(|o| (o, o)))
    }
}

/// A configured audit probe: a packet the transaction step republishes
/// after every commit, with the attribute values subscriptions are
/// matched against.
#[derive(Debug, Clone)]
pub struct AuditProbe {
    pub publisher: usize,
    pub packet: Packet,
    /// The witness values `Expr::eval_with` sees (must agree with the
    /// packet's encoded attributes).
    pub values: Vec<(String, Value)>,
}

/// What one transaction did, end to end: the service's one record of
/// it, which the run totals ([`ServiceStats`](crate::ServiceStats))
/// fold.
#[derive(Debug)]
pub struct TxnReport {
    pub txn: u64,
    /// Closed batch windows the transaction absorbed: 1, plus one per
    /// window merged into its backlog while the compile executor was
    /// busy — the compile queue's depth when it was picked up.
    pub batches: usize,
    pub ops: usize,
    pub cancelled: usize,
    /// Net-zero batch: no compile, no install.
    pub noop: bool,
    /// Whether the install committed (noops count as committed —
    /// the target state is live).
    pub committed: bool,
    /// The rolled-back install's error, when not committed.
    pub error: Option<DeployError>,
    /// First arrival in the transaction's first window.
    pub opened_ns: u64,
    /// When its (last) window closed: its requests' batched stamp.
    pub closed_ns: u64,
    pub compile_start_ns: u64,
    /// When its compile finished.
    pub compiled_ns: u64,
    pub install_start_ns: u64,
    /// When the transaction's effect was traffic-visible (modelled):
    /// its requests' deployed stamp.
    pub deployed_ns: u64,
    pub distinct_compiles: usize,
    pub reinstalled: usize,
    /// Intake→deployed span per request in the transaction.
    pub requests: Vec<RequestSpan>,
    pub audit: Option<AuditReport>,
}

impl TxnReport {
    /// Request → first packet deliverable, for one of this
    /// transaction's `requests`: the service experiment's p99 metric.
    /// Saturates, so a clock-skewed stamp reads 0.
    pub fn time_to_traffic_ns(&self, span: &RequestSpan) -> u64 {
        self.deployed_ns.saturating_sub(span.arrival_ns)
    }
}

/// One subscription request in a transaction. Its batched, compiled
/// and deployed stamps are its report's `closed_ns`, `compiled_ns` and
/// `deployed_ns`, all on the service's clock. That clock is not purely
/// modelled: `compiled_ns` folds in the measured wall time of the route
/// and compile, so it and every stamp after it can differ between runs
/// of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpan {
    /// Service-assigned request id.
    pub request: u64,
    /// The subscribing (or unsubscribing) host.
    pub host: usize,
    /// When the request entered intake (clamped monotonic).
    pub arrival_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intake::RequestOp;
    use camus_lang::parser::parse_expr;

    fn f(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    /// Apply `ops` to `subs` as the transaction step does, returning the
    /// net edit distance they leave.
    fn net_distance(subs: &mut [Vec<Expr>], ops: &[(usize, RequestOp)]) -> usize {
        let mut net = HashMap::new();
        for (id, (host, op)) in ops.iter().enumerate() {
            let req = SubRequest { id: id as u64, host: *host, op: op.clone(), arrival_ns: 0 };
            apply_counted(subs, &mut net, &req);
        }
        net.values().map(|c: &i64| c.unsigned_abs() as usize).sum()
    }

    #[test]
    fn net_edits_count_multiset_edits() {
        let a = vec![vec![f("price > 1"), f("price > 1")], vec![f("shares >= 5")]];
        assert_eq!(net_distance(&mut a.clone(), &[]), 0);

        // One copy of a duplicate filter removed, one filter added.
        let mut b = a.clone();
        let ops = [
            (0, RequestOp::Unsubscribe(f("price > 1"))),
            (1, RequestOp::Subscribe(f("price < 50"))),
        ];
        assert_eq!(net_distance(&mut b, &ops), 2);
        assert_eq!(b, vec![vec![f("price > 1")], vec![f("shares >= 5"), f("price < 50")]]);

        // A sub+unsub pair that cancels is distance 0 even though two
        // ops happened, whichever comes first.
        let (sub, unsub) =
            (RequestOp::Subscribe(f("price > 1")), RequestOp::Unsubscribe(f("price > 1")));
        for ops in [[(0, sub.clone()), (0, unsub.clone())], [(0, unsub), (0, sub)]] {
            let mut c = a.clone();
            assert_eq!(net_distance(&mut c, &ops), 0);
            assert_eq!(c, a);
        }

        // A rejected unsubscribe (the host holds no such filter) is no
        // edit at all.
        let unheld = [(1, RequestOp::Unsubscribe(f("price > 1")))];
        assert_eq!(net_distance(&mut a.clone(), &unheld), 0);
    }
}
