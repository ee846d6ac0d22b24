//! The assembled controller service.
//!
//! [`CamusService`] is a step loop on the caller's thread. It owns two
//! stages — intake/batcher and the transaction step — and moves each
//! request through them as far as the modelled clocks allow before
//! [`CamusService::request`] returns:
//!
//! ```text
//!   subscribe()/unsubscribe()
//!        │ SubRequest
//!        ▼
//!   [intake] ── ChurnBatch ──▶ backlog ──▶ [route + compile + install + audit] ── TxnReport ──▶ reports
//! ```
//!
//! A `ChurnBatch` carries only the requests intake accepted. Intake
//! and the transaction step each keep a copy of the target state —
//! intake's runs ahead by the open window and the backlog — and apply
//! those requests to it with the one edit rule
//! (`intake::apply_request`), which WAL replay applies too.
//!
//! **Backlog.** A closed batch waits until the compile executor picks
//! it up, at `TxnStage::start_ns`: once the batch has closed and the
//! previous compile has finished on the modelled clock. A batch that
//! closes by then is already queued behind it and, with
//! [`ServiceConfig::merge_backlog`], merges into it (its requests are
//! appended), so repeated dirtying of one switch compiles once. The
//! loop runs the backlog once intake's clock passes that start (every
//! later batch closes after it), when a batch arrives that cannot
//! join it, and on drain. Which batches merge is therefore a function
//! of the arrival stamps and the modelled compile times alone.
//!
//! **Overlap.** By default transaction N+1 starts compiling when its
//! batch closes, while transaction N may still be installing on the
//! control channel's clock — the compile cache affects only cost,
//! never output, and the install diffs against the *installed* state.
//! With [`ServiceConfig::overlap`] off, each compile waits for the
//! previous install to land: the one-op-at-a-time baseline the
//! `service` experiment measures against.
//!
//! **Supervision.** Every intake step and every transaction step runs
//! under `catch_unwind`. A panic drops the step's input, counts into
//! `service.stage.restarts`, and the loop goes on with the next input;
//! `MAX_PANICS` in a row from one stage stop the service. After a
//! fatal error the service takes no more requests: their ids land in
//! [`ServiceOutcome::lost_requests`].
//!
//! [`CamusService::shutdown`] closes intake's open window, runs the
//! backlog, and hands every stage's state back in a [`ServiceOutcome`]
//! — the live [`Deployment`] included, so a caller can keep publishing
//! into the network after the service winds down.
//! [`CamusService::kill`] hands it back without closing or running
//! anything: the crash analogue.

use crate::durability::{Wal, WalChannel};
use crate::error::{DeployStageError, ServiceError};
use crate::intake::{BatchPolicy, ChurnBatch, IntakeService, RequestId, RequestOp, SubRequest};
use crate::stages::{AuditProbe, AuditReport, TxnReport, TxnStage};
use camus_lang::ast::Expr;
use camus_net::controller::{Controller, Deployment};
use camus_net::{ControlChannel, DeployError, Network, ReconcileStats};
use camus_telemetry::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;

/// How the service batches, overlaps, audits, persists, and survives.
pub struct ServiceConfig {
    pub batch: BatchPolicy,
    /// Compile transaction N+1 while transaction N installs. Off =
    /// the serialized naive baseline.
    pub overlap: bool,
    /// Merge batches that close while the compile executor is busy
    /// into one transaction.
    pub merge_backlog: bool,
    /// Probes the transaction step republishes after every commit for
    /// the zero-mis-delivery audit (empty = audit off).
    pub probes: Vec<AuditProbe>,
    /// Durability: every accepted request is write-ahead logged here,
    /// every install's commit decision is logged at the commit point,
    /// and the transaction step snapshots on a cadence. `None` = a
    /// volatile controller.
    pub wal: Option<Wal>,
    /// Snapshot the committed state every this many committed
    /// transactions (with `wal`; 0 disables cadence snapshots).
    pub snapshot_every: u64,
    /// Fault injection: transaction ids at which the transaction step
    /// panics (once each), after applying the batch's requests: the
    /// transaction is lost, and the next compile deploys its edits.
    pub compile_panic_on: Vec<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch: BatchPolicy::adaptive(),
            overlap: true,
            merge_backlog: true,
            probes: Vec::new(),
            wal: None,
            snapshot_every: 0,
            compile_panic_on: Vec::new(),
        }
    }
}

impl ServiceConfig {
    /// The one-op-at-a-time baseline: singleton batches, no overlap,
    /// no backlog merging.
    pub fn naive() -> Self {
        ServiceConfig {
            batch: BatchPolicy::naive(),
            overlap: false,
            merge_backlog: false,
            ..ServiceConfig::default()
        }
    }
}

/// Run totals, gathered from the stages at shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    pub accepted: u64,
    pub batches: u64,
    pub merged_batches: u64,
    pub compiles: u64,
    pub noops: u64,
    pub cancelled_ops: u64,
    /// Live delta-maintained per-switch BDD states at shutdown (one
    /// per distinct rule-list fingerprint in the last compile).
    pub delta_states: usize,
    pub committed_txns: u64,
    pub rejected_txns: u64,
    pub out_of_order: u64,
    /// Supervised stage restarts after panics.
    pub restarts: u64,
    /// Cadence snapshots the transaction step wrote to the WAL.
    pub snapshots: u64,
    /// Accepted requests that never surfaced in any transaction
    /// report: 0 on every clean shutdown (the loss-free drain
    /// invariant); non-zero only after a crash or a dropped poison
    /// batch, where it *names* the loss instead of hiding it.
    pub unaccounted_ops: u64,
    pub audit: AuditReport,
}

impl ServiceStats {
    /// Accepted ops per network compile — the coalescing win. The
    /// naive baseline sits at 1.0 by construction.
    pub fn coalescing_ratio(&self) -> f64 {
        self.accepted as f64 / self.compiles.max(1) as f64
    }
}

/// Everything the service hands back at shutdown.
pub struct ServiceOutcome {
    /// The live deployment, reflecting the last committed transaction.
    pub deployment: Deployment,
    /// The target subscription state intake had accepted.
    pub subs: Vec<Vec<Expr>>,
    /// Per-transaction reports, in commit order (drained ones
    /// included).
    pub reports: Vec<TxnReport>,
    /// Soft per-request rejects, in arrival order.
    pub rejected_requests: Vec<crate::error::IntakeError>,
    /// Requests submitted after a fatal error stopped the service:
    /// recorded here instead of being swallowed.
    pub lost_requests: Vec<RequestId>,
    /// The fatal error that stopped the service (empty on a clean run).
    pub errors: Vec<ServiceError>,
    pub stats: ServiceStats,
    pub registry: Arc<MetricsRegistry>,
}

/// What [`CamusService::recover`] did to bring a wrecked network back.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// Total WAL records scanned.
    pub wal_lines: usize,
    /// Request records replayed from the tail after the last snapshot.
    pub tail_replayed: u64,
    /// What staged-epoch reconciliation did on the switches.
    pub reconcile: ReconcileStats,
    /// Modelled control-plane time of the reconcile + reinstall
    /// transaction.
    pub control_ns: u64,
}

/// Consecutive panics of one stage that stop the service.
pub(crate) const MAX_PANICS: u32 = 3;

/// One stage's restart budget.
struct Supervisor {
    stage: &'static str,
    /// Panics since the stage last finished a step.
    panics: u32,
    restarts: Arc<Counter>,
}

impl Supervisor {
    fn new(stage: &'static str, restarts: &Arc<Counter>) -> Self {
        Supervisor { stage, panics: 0, restarts: restarts.clone() }
    }

    /// Run one step of the stage. A panic drops the step's input,
    /// counts a restart and yields `Ok(None)`; there is nothing to wait
    /// for, so the next input runs at once. The `MAX_PANICS`-th panic
    /// in a row is fatal.
    fn run<T>(
        &mut self,
        step: impl FnOnce() -> Result<T, ServiceError>,
    ) -> Result<Option<T>, ServiceError> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)) {
            Ok(done) => {
                self.panics = 0;
                done.map(Some)
            }
            Err(_panic) => {
                self.panics += 1;
                self.restarts.inc();
                if self.panics < MAX_PANICS {
                    Ok(None)
                } else {
                    Err(ServiceError::Panicked { stage: self.stage, panics: self.panics })
                }
            }
        }
    }
}

/// A running controller service.
pub struct CamusService {
    intake: IntakeService,
    txns: TxnStage,
    intake_sup: Supervisor,
    txn_sup: Supervisor,
    /// Closed batches the compile executor has not picked up yet,
    /// merged into one, and how many batches that is.
    backlog: Option<(ChurnBatch, u64)>,
    merge_backlog: bool,
    merged_batches: u64,
    /// Batches per picked-up backlog: the compile queue's depth.
    backlog_depth: Arc<Histogram>,
    next_request: RequestId,
    reports: Vec<TxnReport>,
    /// Reports already handed out by [`CamusService::drain`].
    drained: usize,
    lost_requests: Vec<RequestId>,
    /// The fatal error, once one stops the service.
    errors: Vec<ServiceError>,
    registry: Arc<MetricsRegistry>,
}

impl CamusService {
    /// Take a deployed network live. `subs` must be the subscription
    /// state `deployment` was deployed with — it seeds both intake's
    /// and the transaction step's copy of the target state.
    pub fn start(
        ctrl: Controller,
        deployment: Deployment,
        subs: Vec<Vec<Expr>>,
        channel: Box<dyn ControlChannel + Send>,
        cfg: ServiceConfig,
    ) -> CamusService {
        CamusService::start_at(ctrl, deployment, subs, channel, cfg, 0)
    }

    /// [`CamusService::start`], assigning request ids from
    /// `first_request` on: a recovered service continues above the
    /// log's watermark so ids stay monotonic across incarnations.
    fn start_at(
        ctrl: Controller,
        deployment: Deployment,
        subs: Vec<Vec<Expr>>,
        channel: Box<dyn ControlChannel + Send>,
        cfg: ServiceConfig,
        first_request: RequestId,
    ) -> CamusService {
        let registry = Arc::new(MetricsRegistry::new());

        // Durability: anchor the log with a snapshot of the state the
        // service starts from (it carries the host count replay needs
        // and bounds any earlier incarnation's records), log every
        // commit decision through the channel wrapper, and every
        // accepted request through intake.
        let mut intake = IntakeService::new(cfg.batch, subs.clone());
        let channel: Box<dyn ControlChannel + Send> = match &cfg.wal {
            Some(w) => {
                w.append_snapshot(&subs, deployment.next_epoch, first_request.checked_sub(1));
                intake = intake.with_wal(w.clone());
                Box::new(WalChannel::new(channel, w.clone()))
            }
            None => channel,
        };
        let merge_backlog = cfg.merge_backlog;
        let ttt = registry.histogram("service.request.ttt_ns");
        let txns = TxnStage::new(ctrl, deployment, subs, channel, cfg, ttt);

        let restarts = registry.counter("service.stage.restarts");
        CamusService {
            intake,
            txns,
            intake_sup: Supervisor::new("camus-intake", &restarts),
            txn_sup: Supervisor::new("camus-txn", &restarts),
            backlog: None,
            merge_backlog,
            merged_batches: 0,
            backlog_depth: registry.histogram("service.backlog.depth"),
            next_request: first_request,
            reports: Vec::new(),
            drained: 0,
            lost_requests: Vec::new(),
            errors: Vec::new(),
            registry,
        }
    }

    /// Bring a crashed controller back over the wreckage it left.
    ///
    /// `network` is the live network exactly as the crash left it —
    /// staged shadow programs, committed-but-unfinalised epochs and
    /// all (harvest it from [`CamusService::kill`]'s outcome). The log
    /// is replayed to the last complete snapshot plus its tail,
    /// staged epochs on the switches are reconciled against the
    /// logged commit decisions (presumed abort), and a recovery
    /// transaction reinstalls every switch whose live pipeline
    /// disagrees with a fresh compile of the replayed target state.
    /// The returned service runs with the same WAL armed, starting
    /// with a fresh snapshot so the next recovery replays a short log.
    pub fn recover(
        ctrl: Controller,
        network: Network,
        wal: Wal,
        mut channel: Box<dyn ControlChannel + Send>,
        mut cfg: ServiceConfig,
    ) -> Result<(CamusService, RecoveryStats), DeployError> {
        let st = wal.replay();
        let (deployment, reconcile) = ctrl.recover_deployment(
            network,
            &st.subs,
            &st.committed_epochs,
            st.next_epoch,
            &mut *channel,
        )?;
        let stats = RecoveryStats {
            wal_lines: st.lines,
            tail_replayed: st.replayed_requests,
            reconcile,
            control_ns: deployment.report.total_control_ns(),
        };
        cfg.wal = Some(wal);
        let first_request = st.last_request.map_or(0, |x| x + 1);
        Ok((CamusService::start_at(ctrl, deployment, st.subs, channel, cfg, first_request), stats))
    }

    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Submit a request with its modelled arrival time and run the
    /// stages as far as it lets them. Once a fatal error has stopped
    /// the service the request is *recorded* — its id lands in
    /// [`ServiceOutcome::lost_requests`] — never silently swallowed.
    pub fn request(&mut self, host: usize, op: RequestOp, arrival_ns: u64) -> RequestId {
        let id = self.next_request;
        self.next_request += 1;
        if !self.errors.is_empty() {
            self.lost_requests.push(id);
            return id;
        }
        let intake = &mut self.intake;
        let req = SubRequest { id, host, op, arrival_ns };
        match self.intake_sup.run(|| Ok(intake.handle(req))) {
            Ok(closed) => {
                if let Some(batch) = closed.flatten() {
                    self.enqueue(batch);
                }
            }
            Err(e) => self.errors.push(e),
        }
        // Every batch still to come closes at or after intake's clock,
        // so a backlog the executor picked up before it is complete.
        let now = self.intake.now_ns();
        if self.backlog.as_ref().is_some_and(|(b, _)| self.txns.start_ns(b.closed_ns) < now) {
            self.run_backlog();
        }
        id
    }

    pub fn subscribe(&mut self, host: usize, filter: Expr, arrival_ns: u64) -> RequestId {
        self.request(host, RequestOp::Subscribe(filter), arrival_ns)
    }

    pub fn unsubscribe(&mut self, host: usize, filter: Expr, arrival_ns: u64) -> RequestId {
        self.request(host, RequestOp::Unsubscribe(filter), arrival_ns)
    }

    /// Queue a closed batch. It merges into the backlog if it closed
    /// by the time the executor picks the backlog up; otherwise the
    /// backlog runs first and the batch takes its place.
    fn enqueue(&mut self, batch: ChurnBatch) {
        if let Some((queued, depth)) = &mut self.backlog {
            if self.merge_backlog && batch.closed_ns <= self.txns.start_ns(queued.closed_ns) {
                queued.requests.extend(batch.requests);
                queued.closed_ns = batch.closed_ns;
                *depth += 1;
                self.merged_batches += 1;
                return;
            }
            self.run_backlog();
        }
        self.backlog = Some((batch, 1));
    }

    /// The executor picks the backlog up: one transaction step.
    fn run_backlog(&mut self) {
        if !self.errors.is_empty() {
            return;
        }
        let Some((batch, depth)) = self.backlog.take() else { return };
        self.backlog_depth.record(depth);
        let txns = &mut self.txns;
        match self.txn_sup.run(|| txns.handle(batch)) {
            Ok(Some(report)) => {
                if let Some(a) = report.audit.filter(|a| !a.clean()) {
                    // Invariant broken after a commit: stop the world
                    // once the report is out for the post-mortem.
                    self.errors.push(ServiceError::Deploy(DeployStageError::Audit {
                        txn: report.txn,
                        misdelivered: a.misdelivered,
                        duplicated: a.duplicated,
                        missed: a.missed,
                    }));
                }
                self.reports.push(report);
            }
            // The batch is lost; its edits are in the step's target
            // state, so the next compile deploys them.
            Ok(None) => {}
            Err(e) => self.errors.push(e),
        }
    }

    /// Close intake's open window and run the backlog.
    fn flush(&mut self) {
        if let Some(batch) = self.intake.flush() {
            self.enqueue(batch);
        }
        self.run_backlog();
    }

    /// Flush everything in flight — intake's open window included —
    /// and return the transaction reports that landed since the last
    /// drain.
    pub fn drain(&mut self) -> &[TxnReport] {
        self.flush();
        let from = std::mem::replace(&mut self.drained, self.reports.len());
        &self.reports[from..]
    }

    /// Stop the service: flush, then collect the pieces. Loss-free by
    /// construction: every request accepted before the stop is
    /// compiled, deployed, and reported (`stats.unaccounted_ops == 0`
    /// on a clean run — the regression the audit checks).
    pub fn shutdown(mut self) -> ServiceOutcome {
        self.flush();
        self.collect()
    }

    /// Fault injection: "kill" the controller process. Nothing is
    /// flushed — intake's open window and the backlog are lost exactly
    /// the way a real crash loses them. The outcome's [`Deployment`]
    /// is the *wreckage*: the network as the crash left it (staged
    /// shadow programs included), ready for [`CamusService::recover`].
    pub fn kill(self) -> ServiceOutcome {
        self.collect()
    }

    fn collect(self) -> ServiceOutcome {
        let CamusService {
            mut intake,
            txns,
            merged_batches,
            reports,
            lost_requests,
            errors,
            registry,
            ..
        } = self;
        let reported_ops: u64 = reports.iter().map(|r| r.ops as u64).sum();
        let stats = ServiceStats {
            accepted: intake.accepted,
            batches: intake.batches,
            merged_batches,
            compiles: txns.compiles,
            noops: txns.noops,
            cancelled_ops: txns.cancelled_ops,
            delta_states: txns.delta_states(),
            committed_txns: txns.committed_txns,
            rejected_txns: txns.rejected_txns,
            out_of_order: intake.out_of_order,
            restarts: registry.counter("service.stage.restarts").get(),
            snapshots: txns.snapshots_written,
            unaccounted_ops: intake.accepted.saturating_sub(reported_ops),
            audit: txns.audit_totals,
        };
        let rejected_requests = std::mem::take(&mut intake.rejected);
        ServiceOutcome {
            deployment: txns.deployment,
            subs: intake.into_subs(),
            reports,
            rejected_requests,
            lost_requests,
            errors,
            stats,
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_core::statics::compile_static;
    use camus_dataplane::PacketBuilder;
    use camus_lang::parser::parse_expr;
    use camus_lang::spec::itch_spec;
    use camus_lang::value::Value;
    use camus_net::PerfectChannel;
    use camus_routing::algorithm1::{Policy, RoutingConfig};
    use camus_routing::topology::paper_fat_tree;

    fn controller() -> Controller {
        let statics = compile_static(&itch_spec()).unwrap();
        Controller::new(statics, RoutingConfig::new(Policy::TrafficReduction))
    }

    fn f(s: &str) -> Expr {
        parse_expr(s).unwrap()
    }

    fn start(cfg: ServiceConfig) -> (CamusService, usize) {
        let net = paper_fat_tree();
        let hosts = net.host_count();
        let subs = vec![Vec::new(); hosts];
        let ctrl = controller();
        let d = ctrl.deploy(net, &subs).unwrap();
        (CamusService::start(ctrl, d, subs, Box::new(PerfectChannel), cfg), hosts)
    }

    fn probe(price: i64) -> AuditProbe {
        let spec = itch_spec();
        let values = vec![
            ("stock".to_string(), Value::from("GOOGL")),
            ("price".to_string(), Value::Int(price)),
        ];
        let packet = PacketBuilder::new(&spec)
            .message(vec![("stock", Value::from("GOOGL")), ("price", Value::Int(price))])
            .build();
        AuditProbe { publisher: 0, packet, values }
    }

    #[test]
    fn live_service_matches_a_fresh_deploy() {
        let (mut svc, hosts) = start(ServiceConfig::default());
        svc.subscribe(15, f("stock == GOOGL"), 1_000);
        svc.subscribe(7, f("price > 50"), 1_200);
        svc.unsubscribe(7, f("price > 50"), 1_400);
        svc.subscribe(3, f("price > 10"), 9_000_000);
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert!(out.rejected_requests.is_empty());
        assert_eq!(out.stats.accepted, 4);

        // The live deployment must equal a cold deploy of the same
        // target state, pipeline for pipeline.
        let mut expect = vec![Vec::new(); hosts];
        expect[15].push(f("stock == GOOGL"));
        expect[3].push(f("price > 10"));
        assert_eq!(out.subs, expect);
        let fresh = controller().deploy(paper_fat_tree(), &expect).unwrap();
        let fp = |c: &camus_routing::compile::NetworkCompile| {
            c.switches.iter().map(|s| (s.switch, s.fingerprint, s.entries)).collect::<Vec<_>>()
        };
        assert_eq!(
            fp(&out.deployment.compile),
            fp(&fresh.compile),
            "live state must converge to the cold-deploy compile"
        );

        // And deliver: host 15 subscribed to GOOGL.
        let mut d = out.deployment;
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec)
            .message(vec![("stock", Value::from("GOOGL")), ("price", Value::Int(5))])
            .build();
        let t = d.network.now_ns() + 1;
        d.network.publish(0, pkt, t);
        d.network.run(None);
        assert!(d.network.deliveries(15).iter().any(|dl| dl.published_ns == t));
    }

    #[test]
    fn delta_compiled_service_matches_fresh_deploy_under_random_churn() {
        // Drive the live service through several windows of random
        // subscribe/unsubscribe churn. The transaction step maintains
        // per-switch BDDs incrementally through its delta cache; the
        // final deployment must still be pipeline-identical (same
        // fingerprints, same table sizes) to a cold deploy of the
        // target state — the delta path may only change cost.
        let (mut svc, hosts) = start(ServiceConfig::default());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let filters =
            ["price > 10", "price > 50", "stock == GOOGL", "stock == MSFT", "shares >= 5"];
        let mut target: Vec<Vec<Expr>> = vec![Vec::new(); hosts];
        let mut t = 1_000u64;
        for _ in 0..4 {
            for _ in 0..12 {
                let h = (rng() % hosts as u64) as usize;
                let filt = f(filters[(rng() % filters.len() as u64) as usize]);
                let held = target[h].iter().position(|e| *e == filt);
                match held {
                    Some(pos) if rng() % 2 == 0 => {
                        target[h].remove(pos);
                        svc.unsubscribe(h, filt, t);
                    }
                    _ => {
                        target[h].push(filt.clone());
                        svc.subscribe(h, filt, t);
                    }
                }
                t += 500;
            }
            // Close the window so each round is its own transaction
            // (or several) and the delta cache is exercised per round.
            svc.drain();
            t += 10_000_000;
        }
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert!(out.rejected_requests.is_empty(), "{:?}", out.rejected_requests);
        assert_eq!(out.subs, target);
        assert!(out.stats.compiles > 1, "churn this size must compile repeatedly");
        assert!(out.stats.delta_states > 0, "live BDD states must survive shutdown");

        let fresh = controller().deploy(paper_fat_tree(), &target).unwrap();
        for (got, want) in out.deployment.compile.switches.iter().zip(fresh.compile.switches.iter())
        {
            assert_eq!(got.fingerprint, want.fingerprint, "switch {}", got.switch);
            assert_eq!(
                got.compiled.report.total_entries, want.compiled.report.total_entries,
                "switch {}: delta-maintained tables must match a cold deploy",
                got.switch
            );
        }
    }

    #[test]
    fn cancelling_churn_compiles_nothing() {
        let (mut svc, _) = start(ServiceConfig::default());
        // Sub + unsub inside one window: net-zero batch.
        svc.subscribe(4, f("price > 10"), 1_000);
        svc.unsubscribe(4, f("price > 10"), 1_100);
        let landed = svc.drain();
        assert_eq!(landed.len(), 1);
        assert!(landed[0].noop);
        assert_eq!(landed[0].cancelled, 2);
        assert!(svc.drain().is_empty(), "a drain hands each report out once");
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.stats.compiles, 0, "cancelled churn must cost zero compiles");
        assert_eq!(out.stats.noops, 1);
        assert_eq!(out.stats.cancelled_ops, 2);
    }

    #[test]
    fn audit_rides_every_commit_and_stays_clean() {
        // merge_backlog off: batches must not merge, so each commit's
        // audit round is individually checkable.
        let cfg = ServiceConfig {
            probes: vec![probe(75), probe(5)],
            merge_backlog: false,
            ..ServiceConfig::default()
        };
        let (mut svc, _) = start(cfg);
        svc.subscribe(9, f("price > 50"), 1_000);
        svc.subscribe(2, f("stock == GOOGL"), 5_000_000);
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.stats.committed_txns, 2);
        let a = out.stats.audit;
        assert!(a.probes > 0 && a.expected > 0);
        assert!(a.clean(), "audit must be clean: {a:?}");
        // price>75 probe matches host 9 both rounds; GOOGL probe
        // matches 9 (price 75 > 50) and later 2 as well.
        assert_eq!(a.delivered, a.expected);
    }

    #[test]
    fn naive_mode_is_one_transaction_per_op() {
        let (mut svc, _) = start(ServiceConfig::naive());
        for i in 0..5u64 {
            svc.subscribe((i % 3) as usize, f("price > 10"), 1_000 * i);
        }
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.stats.batches, 5);
        assert_eq!(out.stats.compiles, 5);
        assert_eq!(out.stats.merged_batches, 0, "naive mode must not coalesce");
        assert!((out.stats.coalescing_ratio() - 1.0).abs() < 1e-9);
        // Serialized: each compile starts after the previous install's
        // modelled completion.
        for w in out.reports.windows(2) {
            assert!(w[1].compile_start_ns >= w[0].deployed_ns);
        }
    }

    #[test]
    fn backlog_merging_follows_the_modelled_clock() {
        // Singleton batches. Three close at t = 1 µs, when the idle
        // executor picks them up together; two more close at 2 and
        // 3 µs, while that compile (well over a microsecond of
        // measured route + compile time) is still running, and queue
        // up behind it. The merges follow from the stamps and the
        // modelled clock alone.
        for merge_backlog in [true, false] {
            let cfg = ServiceConfig {
                batch: BatchPolicy::naive(),
                merge_backlog,
                ..ServiceConfig::default()
            };
            let (mut svc, _) = start(cfg);
            for (host, at) in [(1, 1_000), (2, 1_000), (3, 1_000), (4, 2_000), (5, 3_000)] {
                svc.subscribe(host, f("price > 10"), at);
            }
            let out = svc.shutdown();
            assert!(out.errors.is_empty(), "{:?}", out.errors);
            assert_eq!(out.stats.batches, 5);
            let ops: Vec<usize> = out.reports.iter().map(|r| r.ops).collect();
            let depth = out.registry.histogram("service.backlog.depth").snapshot();
            if merge_backlog {
                assert_eq!(ops, vec![3, 2]);
                assert_eq!((out.stats.compiles, out.stats.merged_batches), (2, 3));
                assert_eq!(depth.max, 3);
                let (first, second) = (&out.reports[0], &out.reports[1]);
                assert_eq!(first.compile_start_ns, 1_000);
                assert_eq!(second.closed_ns, 3_000);
                assert_eq!(
                    second.compile_start_ns, first.compiled_ns,
                    "the merged backlog starts when the executor frees up"
                );
            } else {
                assert_eq!(ops, vec![1; 5]);
                assert_eq!((out.stats.compiles, out.stats.merged_batches), (5, 0));
                assert_eq!(depth.max, 1);
            }
        }
    }

    /// A control channel whose controller process "dies" after a fixed
    /// number of ops — the service-level twin of the faults crate's
    /// armed crash, without the cross-crate dependency.
    struct DyingChannel {
        ops_left: u64,
    }

    impl ControlChannel for DyingChannel {
        fn attempt(
            &mut self,
            _switch: usize,
            _op: camus_net::ControlOp,
            _attempt: u32,
        ) -> camus_net::ChannelOutcome {
            if self.ops_left == 0 {
                return camus_net::ChannelOutcome::ControllerCrashed;
            }
            self.ops_left -= 1;
            camus_net::ChannelOutcome::Delivered
        }
    }

    fn fingerprints(c: &camus_routing::compile::NetworkCompile) -> Vec<(usize, u64)> {
        c.switches.iter().map(|s| (s.switch, s.fingerprint)).collect()
    }

    /// A control channel that loses its first `lost` attempts, then
    /// delivers everything.
    struct LosingChannel {
        lost: u32,
    }

    impl ControlChannel for LosingChannel {
        fn attempt(
            &mut self,
            _switch: usize,
            _op: camus_net::ControlOp,
            _attempt: u32,
        ) -> camus_net::ChannelOutcome {
            if self.lost == 0 {
                return camus_net::ChannelOutcome::Delivered;
            }
            self.lost -= 1;
            camus_net::ChannelOutcome::Dropped
        }
    }

    #[test]
    fn a_rolled_back_install_is_reported_and_the_next_commit_converges() {
        // The first install's first op exhausts its retries, so the
        // install raises a channel error and rolls back. Its edit stays
        // owed to the network: a later batch whose own ops cancel must
        // still compile against the installed state and commit it.
        let net = paper_fat_tree();
        let hosts = net.host_count();
        let subs = vec![Vec::new(); hosts];
        let ctrl = controller();
        let d = ctrl.deploy(net, &subs).unwrap();
        let channel = LosingChannel { lost: ctrl.retry.max_attempts };
        let cfg = ServiceConfig { probes: vec![probe(75)], ..ServiceConfig::default() };
        let mut svc = CamusService::start(ctrl, d, subs, Box::new(channel), cfg);
        svc.subscribe(15, f("stock == GOOGL"), 1_000);
        svc.drain(); // txn 0: every op of its install is lost
        svc.subscribe(7, f("price > 50"), 9_000_000);
        svc.unsubscribe(7, f("price > 50"), 9_000_100);
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "a rollback is not fatal: {:?}", out.errors);
        assert_eq!(out.stats.rejected_txns, 1);
        assert_eq!(out.stats.committed_txns, 1);

        let [rejected, later] = &out.reports[..] else {
            panic!("two transactions, got {}", out.reports.len())
        };
        assert!(!rejected.committed);
        assert!(
            matches!(rejected.error, Some(DeployError::Channel { .. })),
            "{:?}",
            rejected.error
        );
        assert!(rejected.audit.is_none(), "a rolled-back install is not audited");
        assert!(later.committed && !later.noop, "the owed edit compiles and commits");
        assert!(later.audit.is_some_and(|a| a.clean() && a.delivered == 1));

        let mut expect = vec![Vec::new(); hosts];
        expect[15].push(f("stock == GOOGL"));
        assert_eq!(out.subs, expect);
        let fresh = controller().deploy(paper_fat_tree(), &expect).unwrap();
        assert_eq!(fingerprints(&out.deployment.compile), fingerprints(&fresh.compile));
        let installed = out.deployment.network.switches.iter().zip(&fresh.network.switches);
        for (s, (got, want)) in installed.enumerate() {
            assert_eq!(got.pipeline(), want.pipeline(), "switch {s}");
        }
    }

    #[test]
    fn shutdown_drains_open_window_loss_free() {
        // Regression (loss-free drain): requests sitting in intake's
        // *open* window when shutdown arrives must still be compiled,
        // deployed, and reported — never silently dropped.
        let (mut svc, hosts) = start(ServiceConfig::default());
        svc.subscribe(15, f("stock == GOOGL"), 1_000);
        svc.subscribe(7, f("price > 50"), 1_100);
        // No drain: the window is still open at shutdown.
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert!(out.lost_requests.is_empty());
        assert_eq!(out.stats.accepted, 2);
        let reported: u64 = out.reports.iter().map(|r| r.ops as u64).sum();
        assert_eq!(reported, 2, "every accepted op must surface in a report");
        assert_eq!(out.stats.unaccounted_ops, 0, "clean shutdown may not lose work");
        let mut expect = vec![Vec::new(); hosts];
        expect[15].push(f("stock == GOOGL"));
        expect[7].push(f("price > 50"));
        assert_eq!(out.subs, expect);
        let fresh = controller().deploy(paper_fat_tree(), &expect).unwrap();
        assert_eq!(fingerprints(&out.deployment.compile), fingerprints(&fresh.compile));
    }

    #[test]
    fn kill_then_recover_converges_to_fresh_deploy() {
        // The whole durability story in one arc: WAL on, some churn
        // committed, more churn still in flight when the process is
        // killed; a recovered service replays the log, reinstalls, and
        // ends up indistinguishable from a never-crashed controller.
        let wal = Wal::in_memory();
        let cfg =
            ServiceConfig { wal: Some(wal.clone()), snapshot_every: 1, ..ServiceConfig::default() };
        let (mut svc, hosts) = start(cfg);
        svc.subscribe(15, f("stock == GOOGL"), 1_000);
        svc.subscribe(7, f("price > 50"), 1_200);
        svc.drain();
        // These land in intake (and the WAL) but die in the open window.
        svc.subscribe(3, f("price > 10"), 9_000_000);
        svc.subscribe(9, f("stock == MSFT"), 9_000_100);
        let wreck = svc.kill();
        assert!(wreck.errors.is_empty(), "{:?}", wreck.errors);
        assert_eq!(wreck.stats.accepted, 4);
        assert_eq!(wreck.stats.snapshots, 1, "the committed txn snapshotted on cadence");
        assert_eq!(
            wreck.stats.unaccounted_ops, 2,
            "the crash names the two ops it dropped instead of hiding them"
        );

        let (mut svc2, rstats) = CamusService::recover(
            controller(),
            wreck.deployment.network,
            wal.clone(),
            Box::new(PerfectChannel),
            ServiceConfig::default(),
        )
        .expect("recovery must commit");
        assert!(rstats.wal_lines > 0);
        assert_eq!(rstats.tail_replayed, 2, "the two post-snapshot requests replay from the tail");
        assert!(rstats.control_ns > 0, "reinstalling the lost churn costs control time");

        // The recovered incarnation keeps living — and keeps ids
        // monotonic above the log's watermark.
        let id = svc2.subscribe(2, f("shares >= 5"), 20_000_000);
        assert!(id >= 4, "recovered ids must not collide with logged ones (got {id})");
        let out = svc2.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.stats.unaccounted_ops, 0);

        let mut expect = vec![Vec::new(); hosts];
        expect[15].push(f("stock == GOOGL"));
        expect[7].push(f("price > 50"));
        expect[3].push(f("price > 10"));
        expect[9].push(f("stock == MSFT"));
        expect[2].push(f("shares >= 5"));
        assert_eq!(out.subs, expect, "WAL replay must restore every accepted request");
        let fresh = controller().deploy(paper_fat_tree(), &expect).unwrap();
        assert_eq!(fingerprints(&out.deployment.compile), fingerprints(&fresh.compile));
        for (got, want) in out.deployment.network.switches.iter().zip(fresh.network.switches.iter())
        {
            assert_eq!(got.pipeline(), want.pipeline(), "installed pipelines must converge");
        }

        // Double replay is idempotent: recovery did not duplicate
        // anything the snapshot already carried.
        let once = wal.replay();
        let twice = wal.replay();
        assert_eq!(once.subs, twice.subs);
    }

    #[test]
    fn mid_install_crash_leaves_wreckage_that_recovery_reconciles() {
        // Kill the controller *inside* the two-phase install: the
        // channel dies after 2 ops, stranding staged shadow programs
        // with no commit decision. Recovery must abort them (presumed
        // abort) and reinstall the replayed target state.
        let net = paper_fat_tree();
        let hosts = net.host_count();
        let subs = vec![Vec::new(); hosts];
        let ctrl = controller();
        let d = ctrl.deploy(net, &subs).unwrap();
        let wal = Wal::in_memory();
        let cfg = ServiceConfig { wal: Some(wal.clone()), ..ServiceConfig::default() };
        let mut svc =
            CamusService::start(controller(), d, subs, Box::new(DyingChannel { ops_left: 2 }), cfg);
        svc.subscribe(15, f("stock == GOOGL"), 1_000);
        let out = svc.shutdown();
        assert!(
            out.errors.iter().any(|e| matches!(
                e,
                ServiceError::Deploy(crate::error::DeployStageError::Crashed { .. })
            )),
            "the transaction step must surface the crash: {:?}",
            out.errors
        );
        let wrecked: usize = out
            .deployment
            .network
            .switches
            .iter()
            .filter(|s| s.staged_epoch().is_some() || s.unfinalized_epoch().is_some())
            .count();
        assert!(wrecked > 0, "a mid-install crash must strand in-doubt programs");

        let (svc2, rstats) = CamusService::recover(
            controller(),
            out.deployment.network,
            wal,
            Box::new(PerfectChannel),
            ServiceConfig::default(),
        )
        .expect("recovery must commit");
        let rec = rstats.reconcile;
        assert_eq!(
            rec.aborted + rec.rolled_forward + rec.finalized + rec.reverted,
            wrecked,
            "every in-doubt switch is deterministically resolved: {rec:?}"
        );
        let out2 = svc2.shutdown();
        assert!(out2.errors.is_empty(), "{:?}", out2.errors);
        let mut expect = vec![Vec::new(); hosts];
        expect[15].push(f("stock == GOOGL"));
        assert_eq!(out2.subs, expect, "the crashed request was WAL-logged, so it survives");
        let fresh = controller().deploy(paper_fat_tree(), &expect).unwrap();
        assert_eq!(fingerprints(&out2.deployment.compile), fingerprints(&fresh.compile));
        assert!(
            out2.deployment
                .network
                .switches
                .iter()
                .all(|s| s.staged_epoch().is_none() && s.unfinalized_epoch().is_none()),
            "no staged wreckage may survive recovery"
        );
    }

    #[test]
    fn compile_panic_is_supervised_and_later_batches_land() {
        // A panicking compile must not take the service down. The
        // poison batch's transaction is dropped and the loop moves on;
        // the transaction step applied the batch's requests before it
        // panicked, so the next compile deploys the lost work.
        let cfg = ServiceConfig { compile_panic_on: vec![0], ..ServiceConfig::default() };
        let (mut svc, hosts) = start(cfg);
        svc.subscribe(15, f("stock == GOOGL"), 1_000);
        svc.drain(); // txn 0: compile panics, batch dropped
        svc.subscribe(7, f("price > 50"), 9_000_000);
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "one panic is within budget: {:?}", out.errors);
        assert_eq!(out.stats.restarts, 1, "the panic must be counted");
        assert_eq!(out.stats.unaccounted_ops, 1, "the poisoned batch's op is named, not hidden");
        let mut expect = vec![Vec::new(); hosts];
        expect[15].push(f("stock == GOOGL"));
        expect[7].push(f("price > 50"));
        assert_eq!(out.subs, expect);
        let fresh = controller().deploy(paper_fat_tree(), &expect).unwrap();
        assert_eq!(
            fingerprints(&out.deployment.compile),
            fingerprints(&fresh.compile),
            "the next compile deploys the dropped batch's edits"
        );
    }

    #[test]
    fn a_cancelling_batch_after_a_poisoned_one_still_compiles() {
        // The noop test spans batches: the edits of a batch lost to a
        // panic stay pending, so a later batch whose own ops cancel
        // must still compile them. Counting each batch's ops on their
        // own would call it a noop and never deploy host 15's filter.
        let cfg = ServiceConfig { compile_panic_on: vec![0], ..ServiceConfig::default() };
        let (mut svc, hosts) = start(cfg);
        svc.subscribe(15, f("stock == GOOGL"), 1_000);
        svc.drain(); // txn 0: compile panics, batch dropped
        svc.subscribe(7, f("price > 50"), 9_000_000);
        svc.unsubscribe(7, f("price > 50"), 9_000_100);
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "one panic is within budget: {:?}", out.errors);
        assert_eq!(out.stats.restarts, 1);
        assert_eq!((out.stats.compiles, out.stats.noops), (1, 0));
        let mut expect = vec![Vec::new(); hosts];
        expect[15].push(f("stock == GOOGL"));
        assert_eq!(out.subs, expect);
        let fresh = controller().deploy(paper_fat_tree(), &expect).unwrap();
        assert_eq!(fingerprints(&out.deployment.compile), fingerprints(&fresh.compile));
    }

    #[test]
    fn panic_budget_exhaustion_stops_the_service_but_not_the_collector() {
        // Every batch panics: the budget runs out and the outcome
        // names the dead stage instead of hanging; requests after that
        // are recorded as lost.
        let cfg = ServiceConfig {
            compile_panic_on: (0..16).collect(),
            batch: BatchPolicy::naive(),
            merge_backlog: false,
            ..ServiceConfig::default()
        };
        let (mut svc, _) = start(cfg);
        // Request k's batch runs when request k + 1 arrives, so the
        // fourth request sets off the third panic and the fifth is lost.
        for i in 0..MAX_PANICS + 2 {
            svc.subscribe(1 + i as usize, f("price > 10"), 1_000 + u64::from(i) * 2_000_000);
        }
        let out = svc.shutdown();
        assert!(
            matches!(
                out.errors[..],
                [ServiceError::Panicked { stage: "camus-txn", panics: MAX_PANICS }]
            ),
            "{:?}",
            out.errors
        );
        assert_eq!(out.stats.restarts, u64::from(MAX_PANICS));
        assert_eq!(out.stats.committed_txns, 0);
        assert_eq!(out.lost_requests, vec![u64::from(MAX_PANICS) + 1]);
    }

    #[test]
    fn supervisor_drops_a_panicked_step_and_counts_it() {
        let restarts = Arc::new(Counter::new());
        let mut sup = Supervisor::new("test-stage", &restarts);
        let step = |x: u64| -> Result<u64, ServiceError> {
            if x == 13 {
                panic!("injected stage panic");
            }
            Ok(x * 2)
        };
        // Panics that are not consecutive never exhaust the budget.
        for _ in 0..MAX_PANICS {
            assert!(matches!(sup.run(|| step(13)), Ok(None)), "the poison input is dropped");
            assert!(matches!(sup.run(|| step(4)), Ok(Some(8))), "the next input runs at once");
        }
        assert_eq!(restarts.get(), u64::from(MAX_PANICS));
        for _ in 1..MAX_PANICS {
            assert!(matches!(sup.run(|| step(13)), Ok(None)));
        }
        assert!(matches!(
            sup.run(|| step(13)),
            Err(ServiceError::Panicked { stage: "test-stage", panics: MAX_PANICS })
        ));
        assert_eq!(restarts.get(), u64::from(2 * MAX_PANICS), "each panic counted");
    }

    #[test]
    fn request_spans_land_in_trace_and_histogram() {
        let (mut svc, _) = start(ServiceConfig::default());
        svc.subscribe(1, f("price > 10"), 2_000);
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        let spans = &out.deployment.trace.requests;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].arrival_ns, 2_000);
        assert!(spans[0].deployed_ns >= spans[0].compiled_ns);
        assert!(spans[0].time_to_traffic_ns() > 0);
        let h = out.registry.histogram("service.request.ttt_ns");
        assert_eq!(h.count(), 1);
        assert_eq!(out.registry.histogram("service.backlog.depth").count(), 1);
    }
}
