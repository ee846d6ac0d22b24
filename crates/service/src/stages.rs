//! The route/compile and deploy stages.
//!
//! Both are step machines: [`CamusService`](crate::CamusService) calls
//! `handle` with one input on the caller's thread and gets its output
//! back. Each keeps a modelled [`Clock`]; the service compares them to
//! decide what merges and what waits.
//!
//! [`RouteCompileService`] turns a closed churn batch into an
//! installable transaction: Algorithm-1 routing plus an incremental
//! network compile against the previous compile as a content-addressed
//! cache. Because the cache affects only *cost*, never the produced
//! pipelines, it is safe to compile transaction N+1 while transaction
//! N is still installing (or about to roll back) on the deploy stage's
//! clock. Its clock is the compile executor's timeline: a batch's
//! compile starts no earlier than its window closed and no earlier
//! than the previous compile finished ([`RouteCompileService::start_ns`]),
//! and advances by the measured route+compile wall time folded into
//! modelled nanoseconds.
//!
//! The stage owns the live target state: the deployed subscriptions
//! with every batch's requests applied through intake's edit rule,
//! before any other work on the batch. It keeps the net edits since its
//! last compile as a multiset `(host, filter) → count`. A batch after
//! which that multiset is empty (subscribe then unsubscribe inside one
//! window) leaves the state of the last compile in place — it costs
//! **zero** compiles and installs (a `Noop` transaction flows through
//! for accounting). The multiset spans batches, so the edits of a batch
//! lost to a panic still make the next batch compile.
//!
//! [`DeployService`] owns the live [`Deployment`] and the control
//! channel. Its clock is the control-plane timeline: an install
//! starts no earlier than its compile finished and no earlier than
//! the previous install finished (the channel is serial), and
//! advances by the transaction ledger's modelled control time. After
//! every commit it can replay configured audit probes through the
//! network and checks the zero-mis-delivery invariant — zero
//! mis-delivery, zero duplicates, committed ⇒ delivered — while
//! transactions overlap.

use crate::durability::Wal;
use crate::error::{DeployStageError, ServiceError};
use crate::intake::{apply_request, ChurnBatch, RequestId, RequestOp, SubRequest};
use camus_dataplane::Packet;
use camus_lang::ast::{Expr, Operand};
use camus_lang::value::Value;
use camus_net::controller::{Controller, DeployError, Deployment};
use camus_net::{Clock, ControlChannel};
use camus_routing::algorithm1::RoutingResult;
use camus_routing::compile::{DeltaCache, NetworkCompile};
use camus_routing::topology::{FaultMask, HierNet};
use camus_telemetry::{Histogram, RequestSpan};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// An installable transaction: the compile stage's output.
#[derive(Debug)]
pub struct Txn {
    pub txn: u64,
    pub requests: Vec<SubRequest>,
    /// Ops cancelled out inside the batch (paid zero compile work).
    pub cancelled: usize,
    pub opened_ns: u64,
    pub closed_ns: u64,
    /// When the compile executor picked the batch up.
    pub compile_start_ns: u64,
    /// When routing + compile finished (modelled).
    pub compiled_ns: u64,
    /// `None` for a net-zero batch: nothing to install.
    pub payload: Option<TxnPayload>,
}

/// The artefacts a non-noop transaction installs.
#[derive(Debug)]
pub struct TxnPayload {
    /// Target state (the audit's ground truth).
    pub subs: Vec<Vec<Expr>>,
    pub routing: RoutingResult,
    pub compile: NetworkCompile,
    /// Measured routing wall time (for the deploy trace).
    pub route_ns: u64,
}

/// The route + compile stage.
pub struct RouteCompileService {
    ctrl: Controller,
    topology: HierNet,
    mask: FaultMask,
    /// Content-addressed compile cache: the last compile *produced*
    /// here (not necessarily installed yet — that is the overlap).
    prev_compile: NetworkCompile,
    /// The live target state: the deployed subscriptions with every
    /// batch's requests applied, in order.
    subs: Vec<Vec<Expr>>,
    /// Net edits to `subs` since `prev_compile`: subscribes minus
    /// unsubscribes per `(host, filter)`, zero counts dropped after
    /// each batch. Empty exactly when `subs` is the state behind
    /// `prev_compile`.
    net_edits: HashMap<(usize, Expr), i64>,
    /// Live per-switch BDD states keyed by rule-list fingerprint:
    /// switches that miss the fingerprint cache are delta-maintained
    /// from their previous diagram instead of recompiled from scratch.
    /// Pure cost cache — produced pipelines are identical either way.
    delta: DeltaCache,
    /// The compile executor's modelled timeline.
    clock: Clock,
    /// Fault injection: transaction ids at which this stage panics
    /// (once each) right after applying the batch's requests —
    /// exercises the service's restart path. The poisoned batch's
    /// transaction is lost, but its edits stay in the target state and
    /// in `net_edits`, so the next compile deploys them.
    panic_on: std::collections::BTreeSet<u64>,
    pub compiles: u64,
    pub noops: u64,
    pub cancelled_ops: u64,
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
        let (f, step) = match &req.op {
            RequestOp::Subscribe(f) => (f, 1),
            RequestOp::Unsubscribe(f) => (f, -1),
        };
        *net_edits.entry((req.host, f.clone())).or_insert(0) += step;
    }
}

impl RouteCompileService {
    pub fn new(
        ctrl: Controller,
        topology: HierNet,
        mask: FaultMask,
        deployed_compile: NetworkCompile,
        deployed_subs: Vec<Vec<Expr>>,
    ) -> Self {
        RouteCompileService {
            ctrl,
            topology,
            mask,
            prev_compile: deployed_compile,
            subs: deployed_subs,
            net_edits: HashMap::new(),
            delta: DeltaCache::new(),
            clock: Clock::new(),
            panic_on: std::collections::BTreeSet::new(),
            compiles: 0,
            noops: 0,
            cancelled_ops: 0,
        }
    }

    /// Arm fault injection: panic on the named transaction ids.
    pub fn with_panic_on(mut self, txns: impl IntoIterator<Item = u64>) -> Self {
        self.panic_on = txns.into_iter().collect();
        self
    }

    /// Live delta-maintained BDD states, one per distinct rule-list
    /// fingerprint in the last produced compile.
    pub fn delta_states(&self) -> usize {
        self.delta.len()
    }

    /// When the executor picks up a batch that closed at `closed_ns`:
    /// once the batch has closed and the previous compile is done. The
    /// executor is serial, so every batch closed by then is queued
    /// behind it.
    pub fn start_ns(&self, closed_ns: u64) -> u64 {
        self.clock.now_ns().max(closed_ns)
    }

    /// Start no compile before `ns` (the serialized baseline waits for
    /// the previous install to land).
    pub fn wait_until(&mut self, ns: u64) {
        self.clock.advance_to(ns);
    }

    /// Compile one batch (or a merged backlog) into a transaction.
    pub fn handle(&mut self, batch: ChurnBatch) -> Result<Txn, ServiceError> {
        // The requests land before anything can fail, so a batch lost
        // below still moves the target state the next compile deploys.
        for req in &batch.requests {
            apply_counted(&mut self.subs, &mut self.net_edits, req);
        }
        self.net_edits.retain(|_, count| *count != 0);
        if self.panic_on.remove(&batch.txn) {
            panic!("injected compile-stage panic at txn {}", batch.txn);
        }
        // Each accepted op moves the state by one edit, so ops beyond
        // the edits separating it from the last compile cancelled out.
        let ops = batch.requests.len();
        let distance: usize = self.net_edits.values().map(|c| c.unsigned_abs() as usize).sum();
        let cancelled = ops.saturating_sub(distance);
        self.cancelled_ops += cancelled as u64;

        let compile_start_ns = self.clock.advance_to(batch.closed_ns);
        let (compiled_ns, payload) = if distance == 0 {
            // Net-zero batch: the state is back where the last compile
            // left it. Zero compiles, zero installs — the whole point.
            self.noops += 1;
            (compile_start_ns, None)
        } else {
            let wall = Instant::now();
            let routing = self.ctrl.plan_routing(&self.topology, &self.subs, &self.mask);
            let route_ns = wall.elapsed().as_nanos() as u64;
            let prev = Some(&self.prev_compile);
            let compile = self.ctrl.compile_routing_delta(&routing, prev, &mut self.delta)?;
            // Fold the measured wall time into the modelled timeline.
            let compiled_ns = self.clock.advance(wall.elapsed().as_nanos() as u64);
            self.prev_compile = compile.clone();
            self.net_edits.clear();
            self.compiles += 1;
            (compiled_ns, Some(TxnPayload { subs: self.subs.clone(), routing, compile, route_ns }))
        };
        Ok(Txn {
            txn: batch.txn,
            requests: batch.requests,
            cancelled,
            opened_ns: batch.opened_ns,
            closed_ns: batch.closed_ns,
            compile_start_ns,
            compiled_ns,
            payload,
        })
    }
}

/// A configured audit probe: a packet the deploy stage republishes
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

/// Audit counters for one transaction (or totals across a run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    pub probes: usize,
    /// Expected (host, probe) deliveries across probes.
    pub expected: usize,
    pub delivered: usize,
    pub misdelivered: usize,
    pub duplicated: usize,
    pub missed: usize,
}

impl AuditReport {
    pub fn absorb(&mut self, other: &AuditReport) {
        self.probes += other.probes;
        self.expected += other.expected;
        self.delivered += other.delivered;
        self.misdelivered += other.misdelivered;
        self.duplicated += other.duplicated;
        self.missed += other.missed;
    }

    pub fn clean(&self) -> bool {
        self.misdelivered == 0 && self.duplicated == 0 && self.missed == 0
    }
}

/// What one transaction did, end to end.
#[derive(Debug)]
pub struct TxnReport {
    pub txn: u64,
    pub ops: usize,
    pub cancelled: usize,
    /// Net-zero batch: no compile, no install.
    pub noop: bool,
    /// Whether the install committed (noops count as committed —
    /// the target state is live).
    pub committed: bool,
    /// The rolled-back install's error, when not committed.
    pub error: Option<DeployError>,
    pub opened_ns: u64,
    pub closed_ns: u64,
    pub compile_start_ns: u64,
    pub compiled_ns: u64,
    pub install_start_ns: u64,
    /// When the transaction's effect was traffic-visible (modelled).
    pub deployed_ns: u64,
    pub distinct_compiles: usize,
    pub reinstalled: usize,
    /// Intake→deployed span per request in the transaction.
    pub requests: Vec<RequestSpan>,
    pub audit: Option<AuditReport>,
}

/// The deploy stage: owns the live deployment and the channel.
pub struct DeployService {
    ctrl: Controller,
    pub deployment: Deployment,
    channel: Box<dyn ControlChannel + Send>,
    /// The control channel's modelled timeline.
    clock: Clock,
    probes: Vec<AuditProbe>,
    probe_gap_ns: u64,
    ttt: Arc<Histogram>,
    /// Durability: where cadence snapshots go (`None` = volatile).
    wal: Option<Wal>,
    /// Snapshot after this many committed transactions (0 = never).
    snapshot_every: u64,
    committed_since_snapshot: u64,
    /// Highest request id folded into any handled transaction; each
    /// payload's target state reflects every request up to its batch,
    /// so after a committed install this is exactly the watermark the
    /// deployed state reflects.
    max_seen_request: Option<RequestId>,
    pub committed_txns: u64,
    pub rejected_txns: u64,
    pub snapshots_written: u64,
    pub audit_totals: AuditReport,
}

/// Hosts whose subscriptions match `witness` (excluding the
/// publisher — the network never loops a message back to its source).
fn matching_hosts(subs: &[Vec<Expr>], witness: &[(String, Value)], publisher: usize) -> Vec<usize> {
    let lookup = |op: &Operand| match op {
        Operand::Field(name) => witness.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone()),
        Operand::Aggregate { .. } => None,
    };
    subs.iter()
        .enumerate()
        .filter(|(h, fs)| *h != publisher && fs.iter().any(|f| f.eval_with(lookup)))
        .map(|(h, _)| h)
        .collect()
}

impl DeployService {
    pub fn new(
        ctrl: Controller,
        deployment: Deployment,
        channel: Box<dyn ControlChannel + Send>,
        probes: Vec<AuditProbe>,
        probe_gap_ns: u64,
        ttt: Arc<Histogram>,
    ) -> Self {
        DeployService {
            ctrl,
            deployment,
            channel,
            clock: Clock::new(),
            probes,
            probe_gap_ns,
            ttt,
            wal: None,
            snapshot_every: 0,
            committed_since_snapshot: 0,
            max_seen_request: None,
            committed_txns: 0,
            rejected_txns: 0,
            snapshots_written: 0,
            audit_totals: AuditReport::default(),
        }
    }

    /// Arm durability: snapshot the committed state to `wal` every
    /// `every` committed transactions.
    pub fn with_wal(mut self, wal: Wal, every: u64) -> Self {
        self.wal = Some(wal);
        self.snapshot_every = every;
        self
    }

    /// When the last install finished on the control channel's
    /// timeline.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Republish every configured probe and check deliveries against
    /// the target state `subs`: no mis-delivery, no duplicates, every
    /// expected host reached.
    fn audit(&mut self, subs: &[Vec<Expr>]) -> AuditReport {
        let mut rep = AuditReport { probes: self.probes.len(), ..AuditReport::default() };
        if self.probes.is_empty() {
            return rep;
        }
        let net = &mut self.deployment.network;
        let hosts = net.topology.host_count();
        let before: Vec<usize> = (0..hosts).map(|h| net.deliveries(h).len()).collect();
        // Distinct publish stamps attribute deliveries to probes.
        let base = net.now_ns() + 1;
        let times: Vec<u64> =
            (0..self.probes.len()).map(|i| base + i as u64 * self.probe_gap_ns).collect();
        for (p, t) in self.probes.iter().zip(&times) {
            let _ = net.publish(p.publisher, p.packet.clone(), *t);
        }
        net.run(None);
        for (p, t) in self.probes.iter().zip(&times) {
            let expect = matching_hosts(subs, &p.values, p.publisher);
            rep.expected += expect.len();
            for (h, &seen) in before.iter().enumerate() {
                let n = net.deliveries(h)[seen..].iter().filter(|d| d.published_ns == *t).count();
                if expect.contains(&h) {
                    if n == 0 {
                        rep.missed += 1;
                    } else {
                        rep.delivered += 1;
                        rep.duplicated += n - 1;
                    }
                } else {
                    rep.misdelivered += n;
                }
            }
        }
        self.audit_totals.absorb(&rep);
        rep
    }

    /// Install one transaction and push its report onto `reports`. A
    /// rolled-back install is reported, not an error. A failed
    /// post-commit audit is reported *and* returned: the report goes
    /// out for the post-mortem, then the service stops.
    pub fn handle(
        &mut self,
        txn: Txn,
        reports: &mut Vec<TxnReport>,
    ) -> Result<(), DeployStageError> {
        // The control channel is serial: this install starts when its
        // compile is done and the channel is free.
        let install_start_ns = self.clock.advance_to(txn.compiled_ns);
        if let Some(m) = txn.requests.iter().map(|r| r.id).max() {
            self.max_seen_request = Some(self.max_seen_request.map_or(m, |x| x.max(m)));
        }
        let mut committed = false;
        let mut error = None;
        let mut distinct_compiles = 0;
        let mut reinstalled = 0;
        let mut audit = None;
        let mut violation = None;
        let noop = txn.payload.is_none();
        let deployed_ns = match txn.payload {
            None => {
                // Nothing to install: the target state is already
                // live, so the batch is traffic-visible at once.
                committed = true;
                install_start_ns
            }
            Some(p) => match self.ctrl.install(
                &mut self.deployment,
                p.routing,
                p.compile,
                p.route_ns,
                &mut *self.channel,
            ) {
                Ok(stats) => {
                    committed = true;
                    distinct_compiles = stats.distinct_compiles;
                    reinstalled = stats.reinstalled;
                    let control_ns = self.deployment.report.total_control_ns();
                    let done = self.clock.advance(control_ns);
                    // Cadence snapshot: the committed state, the
                    // fingerprints the controller believes are
                    // installed, and the epoch watermark — bounds the
                    // tail a recovery must replay.
                    self.committed_since_snapshot += 1;
                    if let Some(w) = &self.wal {
                        if self.snapshot_every > 0
                            && self.committed_since_snapshot >= self.snapshot_every
                        {
                            let fps: Vec<(usize, u64)> = self
                                .deployment
                                .compile
                                .switches
                                .iter()
                                .map(|s| (s.switch, s.fingerprint))
                                .collect();
                            w.append_snapshot(
                                &p.subs,
                                &fps,
                                self.deployment.next_epoch,
                                self.max_seen_request,
                            );
                            self.committed_since_snapshot = 0;
                            self.snapshots_written += 1;
                        }
                    }
                    let a = self.audit(&p.subs);
                    if !a.clean() {
                        // Invariant broken after a commit: stop the
                        // world once the report is out.
                        violation = Some(DeployStageError::Audit {
                            txn: txn.txn,
                            misdelivered: a.misdelivered,
                            duplicated: a.duplicated,
                            missed: a.missed,
                        });
                    }
                    audit = Some(a);
                    done
                }
                Err(DeployError::Crashed { epoch, .. }) => {
                    // Dead coordinator: nothing was rolled back, staged
                    // programs sit on the switches, and this "process"
                    // does nothing further. The kill path harvests the
                    // wreckage for the recovery arm to reconcile.
                    return Err(DeployStageError::Crashed { txn: txn.txn, epoch });
                }
                Err(e) => {
                    // Rolled back: the channel time was still spent.
                    // The next committed transaction carries the full
                    // target state, so nothing is lost — record and
                    // continue.
                    let control_ns = match &e {
                        DeployError::Admission { report, .. }
                        | DeployError::Channel { report, .. } => report.total_control_ns(),
                        DeployError::Compile(_) | DeployError::Crashed { .. } => 0,
                    };
                    let done = self.clock.advance(control_ns);
                    error = Some(e);
                    done
                }
            },
        };
        if committed {
            self.committed_txns += 1;
        } else {
            self.rejected_txns += 1;
        }

        let requests: Vec<RequestSpan> = txn
            .requests
            .iter()
            .map(|r| RequestSpan {
                request: r.id,
                host: r.host,
                arrival_ns: r.arrival_ns,
                batched_ns: txn.closed_ns,
                compiled_ns: txn.compiled_ns,
                deployed_ns,
            })
            .collect();
        for s in &requests {
            self.ttt.record(s.time_to_traffic_ns());
        }
        if committed && !noop {
            // The live trace carries the last transaction's spans.
            self.deployment.trace.requests = requests.clone();
        }

        reports.push(TxnReport {
            txn: txn.txn,
            ops: requests.len(),
            cancelled: txn.cancelled,
            noop,
            committed,
            error,
            opened_ns: txn.opened_ns,
            closed_ns: txn.closed_ns,
            compile_start_ns: txn.compile_start_ns,
            compiled_ns: txn.compiled_ns,
            install_start_ns,
            deployed_ns,
            distinct_compiles,
            reinstalled,
            requests,
            audit,
        });
        violation.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::parser::parse_expr;

    fn f(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    /// Apply `ops` to `subs` as the compile stage does, returning the
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
