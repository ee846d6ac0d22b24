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
//! A `ChurnBatch` carries only the requests intake accepted. The
//! transaction step keeps the one target state: the loop applies a
//! batch's requests to it (`TxnStage::apply`, through the edit rule
//! `intake::apply_request` that WAL replay applies too) as soon as the
//! batch is queued, so it holds every accepted request except those in
//! intake's open window. Intake keeps only that window, and checks a
//! request against the state plus the window.
//!
//! **Backlog.** A closed batch waits until the compile executor picks
//! it up, at `TxnStage::start_ns`: once the batch has closed and the
//! previous compile has finished on the modelled clock. A batch that
//! closes by then is already queued behind it and, by default, merges
//! into it (its requests are appended), so repeated dirtying of one
//! switch compiles once. The transaction's [`TxnReport::batches`]
//! counts the windows it absorbed: the queue's depth. The loop runs the
//! backlog once intake's clock passes that start (every later batch
//! closes after it), when a batch arrives that cannot join it, and on
//! drain. Which batches merge is therefore a function of the arrival
//! stamps and the compile times, and a compile's time is measured: the
//! compile clock advances by the wall time of each route and compile
//! (`TxnReport::compiled_ns`), so two runs of one seed can merge
//! differently.
//!
//! **Overlap.** By default transaction N+1 starts compiling when its
//! batch closes, while transaction N may still be installing on the
//! control channel's clock — the compile cache affects only cost,
//! never output, and the install diffs against the *installed* state.
//!
//! **One switch.** [`ServiceConfig::naive`] is the one-op-at-a-time
//! baseline the `service` experiment measures against: singleton
//! batches, each compile waiting for the previous install to land, and
//! no backlog merging. The default is adaptive windows, overlap and
//! merging.
//!
//! **Fail-stop.** The service fails only by a typed [`ServiceError`]: a
//! compile failure, a crashed or audit-violating install, or a log
//! append that failed (a request's, a snapshot's or an install's commit
//! decision). After a fatal error the service takes no more requests:
//! their ids, and the one whose append failed, land in
//! [`ServiceOutcome::lost_requests`]. A panic is a bug, and propagates
//! to the caller.
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
use crate::stages::{AuditProbe, TxnReport, TxnStage};
use camus_lang::ast::Expr;
use camus_net::controller::{Controller, Deployment};
use camus_net::{ControlChannel, Network, ReconcileStats};
use camus_telemetry::AuditReport;
use std::io;

/// How the service batches, audits and persists.
#[derive(Default)]
pub struct ServiceConfig {
    /// The one-op-at-a-time baseline: singleton batches, each compile
    /// waits for the previous install, no backlog merging. Off (the
    /// default): adaptive batch windows (500 µs quiet period, 2 ms
    /// deadline, 256 ops), transaction N+1 compiles while N installs,
    /// and batches that close while the compile executor is busy merge
    /// into one transaction.
    pub naive: bool,
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
}

impl ServiceConfig {
    /// The one-op-at-a-time baseline: `naive` on.
    pub fn naive() -> Self {
        ServiceConfig { naive: true, ..ServiceConfig::default() }
    }
}

/// Run totals at shutdown.
///
/// The transaction totals — `merged_batches`, `compiles`, `noops`,
/// `cancelled_ops`, `committed_txns`, `rejected_txns` and `audit` — are
/// a fold over [`ServiceOutcome::reports`]. A transaction that died
/// with a fatal error has no report, so they do not count it; the
/// error is in [`ServiceOutcome::errors`], and its accepted ops in
/// `unaccounted_ops`. The rest are intake's and the transaction
/// step's own facts.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests intake accepted.
    pub accepted: u64,
    /// Batch windows intake closed.
    pub batches: u64,
    /// Windows merged into a backlog: the sum of each report's
    /// `batches - 1`.
    pub merged_batches: u64,
    /// Reports that compiled (every report that is not a noop).
    pub compiles: u64,
    pub noops: u64,
    pub cancelled_ops: u64,
    /// Live delta-maintained per-switch BDD states at shutdown (one
    /// per distinct rule-list fingerprint in the last compile).
    pub delta_states: usize,
    pub committed_txns: u64,
    pub rejected_txns: u64,
    /// Cadence snapshots the transaction step wrote to the WAL.
    pub snapshots: u64,
    /// Accepted requests that never surfaced in any transaction
    /// report: 0 on every clean shutdown (the loss-free drain
    /// invariant); non-zero only after a kill or a fatal error, where
    /// it *names* the loss instead of hiding it.
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
    /// The target subscription state: every accepted request, except,
    /// after [`CamusService::kill`], those in intake's open window.
    pub subs: Vec<Vec<Expr>>,
    /// Per-transaction reports, in commit order (drained ones
    /// included).
    pub reports: Vec<TxnReport>,
    /// Soft per-request rejects, in arrival order.
    pub rejected_requests: Vec<crate::error::IntakeError>,
    /// Requests submitted after a fatal error stopped the service (or
    /// whose log append stopped it): recorded instead of swallowed.
    pub lost_requests: Vec<RequestId>,
    /// The fatal error that stopped the service (empty on a clean run).
    pub errors: Vec<ServiceError>,
    pub stats: ServiceStats,
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

/// A running controller service.
pub struct CamusService {
    intake: IntakeService,
    txns: TxnStage,
    /// Closed batches the compile executor has not picked up yet,
    /// merged into one.
    backlog: Option<ChurnBatch>,
    next_request: RequestId,
    reports: Vec<TxnReport>,
    /// Reports already handed out by [`CamusService::drain`].
    drained: usize,
    lost_requests: Vec<RequestId>,
    /// The fatal error, once one stops the service.
    errors: Vec<ServiceError>,
}

impl CamusService {
    /// Take a deployed network live. `subs` must be the subscription
    /// state `deployment` was deployed with — it becomes the
    /// transaction step's target state.
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
        // Durability: anchor the log with a snapshot of the state the
        // service starts from (it carries the host count replay needs
        // and bounds any earlier incarnation's records), log every
        // commit decision through the channel wrapper, and every
        // accepted request through intake.
        let policy = if cfg.naive { BatchPolicy::NAIVE } else { BatchPolicy::ADAPTIVE };
        let intake = IntakeService::new(policy, cfg.wal.clone());
        let mut errors = Vec::new();
        let channel: Box<dyn ControlChannel + Send> = match &cfg.wal {
            Some(w) => {
                let anchor = first_request.checked_sub(1);
                let snapshot = w.append_snapshot(&subs, deployment.next_epoch, anchor);
                errors.extend(snapshot.err().map(ServiceError::Wal));
                Box::new(WalChannel::new(channel, w.clone()))
            }
            None => channel,
        };
        let txns = TxnStage::new(ctrl, deployment, subs, channel, cfg);

        CamusService {
            intake,
            txns,
            backlog: None,
            next_request: first_request,
            reports: Vec::new(),
            drained: 0,
            lost_requests: Vec::new(),
            errors,
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
    /// A log that cannot be read, or that replays no state for this
    /// network's hosts, is [`ServiceError::Wal`]; a failed recovery
    /// transaction is [`ServiceError::Recovery`].
    pub fn recover(
        ctrl: Controller,
        network: Network,
        wal: Wal,
        mut channel: Box<dyn ControlChannel + Send>,
        mut cfg: ServiceConfig,
    ) -> Result<(CamusService, RecoveryStats), ServiceError> {
        let st = wal.replay().map_err(ServiceError::Wal)?;
        let hosts = network.topology.host_count();
        if st.subs.len() != hosts {
            // No complete snapshot for this topology: every log starts
            // with one, so the log is truncated or another network's.
            let msg = format!("log replays {} hosts, network has {hosts}", st.subs.len());
            return Err(ServiceError::Wal(io::Error::new(io::ErrorKind::InvalidData, msg)));
        }
        let (deployment, reconcile) = ctrl
            .recover_deployment(
                network,
                &st.subs,
                &st.committed_epochs,
                st.next_epoch,
                &mut *channel,
            )
            .map_err(ServiceError::Recovery)?;
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

    /// Submit a request with its modelled arrival time and run the
    /// stages as far as it lets them. A request whose log append fails
    /// stops the service; it and every later request are *recorded* in
    /// [`ServiceOutcome::lost_requests`], never silently swallowed.
    pub fn request(&mut self, host: usize, op: RequestOp, arrival_ns: u64) -> RequestId {
        let id = self.next_request;
        self.next_request += 1;
        if !self.errors.is_empty() {
            self.lost_requests.push(id);
            return id;
        }
        let mut req = SubRequest { id, host, op, arrival_ns };
        let expired = match self.intake.arrive(&mut req) {
            Ok(expired) => expired,
            Err(e) => {
                self.errors.push(ServiceError::Wal(e));
                self.lost_requests.push(id);
                return id;
            }
        };
        // The expired window is queued, and so in the target state,
        // before the request is checked against it.
        if let Some(batch) = expired {
            self.enqueue(batch);
        }
        if let Some(full) = self.intake.admit(req, &self.txns.subs) {
            self.enqueue(full);
        }
        // Every batch still to come closes at or after intake's clock,
        // so a backlog the executor picked up before it is complete.
        let now = self.intake.now_ns();
        if self.backlog.as_ref().is_some_and(|b| self.txns.start_ns(b.closed_ns) < now) {
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

    /// Queue a closed batch and apply it to the target state. Outside
    /// naive mode it merges into the backlog if it closed by the time
    /// the executor picks the backlog up; otherwise the backlog runs
    /// first and the batch takes its place.
    fn enqueue(&mut self, batch: ChurnBatch) {
        if let Some(queued) = &mut self.backlog {
            if !self.txns.naive && batch.closed_ns <= self.txns.start_ns(queued.closed_ns) {
                self.txns.apply(&batch);
                queued.requests.extend(batch.requests);
                queued.closed_ns = batch.closed_ns;
                queued.batches += batch.batches;
                return;
            }
            self.run_backlog();
        }
        self.txns.apply(&batch);
        self.backlog = Some(batch);
    }

    /// The executor picks the backlog up: one transaction step.
    fn run_backlog(&mut self) {
        if !self.errors.is_empty() {
            return;
        }
        let Some(batch) = self.backlog.take() else { return };
        match self.txns.handle(batch) {
            Ok(report) => {
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
        let CamusService { mut intake, txns, reports, lost_requests, errors, .. } = self;
        let reported_ops: u64 = reports.iter().map(|r| r.ops as u64).sum();
        let mut stats = ServiceStats {
            accepted: intake.accepted,
            batches: intake.batches,
            delta_states: txns.delta_states(),
            snapshots: txns.snapshots_written,
            unaccounted_ops: intake.accepted.saturating_sub(reported_ops),
            ..ServiceStats::default()
        };
        for r in &reports {
            stats.merged_batches += r.batches as u64 - 1;
            stats.compiles += u64::from(!r.noop);
            stats.noops += u64::from(r.noop);
            stats.cancelled_ops += r.cancelled as u64;
            stats.committed_txns += u64::from(r.committed);
            stats.rejected_txns += u64::from(!r.committed);
            if let Some(a) = &r.audit {
                stats.audit.absorb(a);
            }
        }
        let rejected_requests = std::mem::take(&mut intake.rejected);
        ServiceOutcome {
            deployment: txns.deployment,
            subs: txns.subs,
            reports,
            rejected_requests,
            lost_requests,
            errors,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_dataplane::PacketBuilder;
    use camus_lang::parser::parse_expr;
    use camus_lang::spec::itch_spec;
    use camus_lang::value::Value;
    use camus_net::{DeployError, PerfectChannel};
    use camus_oracle::itch_controller;
    use camus_routing::algorithm1::Policy;
    use camus_routing::topology::paper_fat_tree;
    use std::sync::{Arc, Mutex};

    fn controller() -> Controller {
        itch_controller(Policy::TrafficReduction)
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
        // Ten seconds apart, far longer than any compile and install:
        // the batches cannot merge, so each commit's audit round is
        // individually checkable.
        let cfg = ServiceConfig { probes: vec![probe(75), probe(5)], ..ServiceConfig::default() };
        let (mut svc, _) = start(cfg);
        svc.subscribe(9, f("price > 50"), 1_000);
        svc.subscribe(2, f("stock == GOOGL"), 10_000_001_000);
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
        assert!(out.reports.iter().all(|r| r.batches == 1), "the compile queue stays at depth 1");
        assert!((out.stats.coalescing_ratio() - 1.0).abs() < 1e-9);
        // Serialized: each compile starts after the previous install's
        // modelled completion.
        for w in out.reports.windows(2) {
            assert!(w[1].compile_start_ns >= w[0].deployed_ns);
        }
    }

    #[test]
    fn backlog_merging_follows_the_modelled_clock() {
        // Three windows fill to the 256-op cap at t = 1, 2 and 3 µs,
        // each closing the moment it fills. The idle executor picks the
        // first up at 1 µs, alone. The second and third close while
        // that compile (well over two microseconds of measured route +
        // compile time for 256 subscriptions) is still running, so they
        // queue up behind it and merge. The merges follow from the
        // stamps and the modelled clock alone.
        let (mut svc, hosts) = start(ServiceConfig::default());
        let cap = BatchPolicy::ADAPTIVE.max_ops;
        for at in [1_000, 2_000, 3_000] {
            for i in 0..cap {
                svc.subscribe(i % hosts, f("price > 10"), at);
            }
        }
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.stats.batches, 3);
        let shape: Vec<(usize, usize)> = out.reports.iter().map(|r| (r.ops, r.batches)).collect();
        assert_eq!(shape, vec![(cap, 1), (2 * cap, 2)]);
        assert_eq!((out.stats.compiles, out.stats.merged_batches), (2, 1));
        let (first, second) = (&out.reports[0], &out.reports[1]);
        assert_eq!(first.compile_start_ns, 1_000);
        assert_eq!(second.closed_ns, 3_000);
        assert_eq!(
            second.compile_start_ns, first.compiled_ns,
            "the merged backlog starts when the executor frees up"
        );
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
        let channel = LosingChannel { lost: camus_net::channel::MAX_ATTEMPTS };
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
        let once = wal.replay().unwrap();
        let twice = wal.replay().unwrap();
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

    /// An in-memory log the test reads back, whose appends fail where
    /// `fails` says.
    struct TestWal {
        lines: Arc<Mutex<Vec<String>>>,
        fails: Box<dyn FnMut(&str) -> bool + Send>,
    }

    impl crate::durability::WalBackend for TestWal {
        fn append(&mut self, line: &str) -> std::io::Result<()> {
            if (self.fails)(line) {
                return Err(std::io::Error::other("disk full"));
            }
            self.lines.lock().unwrap().push(line.to_string());
            Ok(())
        }

        fn read_all(&self) -> std::io::Result<Vec<String>> {
            Ok(self.lines.lock().unwrap().clone())
        }
    }

    /// A `TestWal`-backed log and its records.
    fn test_wal(
        fails: impl FnMut(&str) -> bool + Send + 'static,
    ) -> (Wal, Arc<Mutex<Vec<String>>>) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        let backend = TestWal { lines: lines.clone(), fails: Box::new(fails) };
        (Wal::new(Box::new(backend)), lines)
    }

    #[test]
    fn a_failed_log_append_stops_the_service_and_loses_only_its_request() {
        let mut requests = 0;
        let (wal, _) = test_wal(move |line| {
            requests += usize::from(line.starts_with("req "));
            requests == 3
        });
        let (mut svc, _) =
            start(ServiceConfig { wal: Some(wal.clone()), ..ServiceConfig::naive() });
        let mut ids = Vec::new();
        for (i, host) in [15, 7, 3, 9].into_iter().enumerate() {
            ids.push(svc.subscribe(host, f("stock == GOOGL"), 1_000 * (i as u64 + 1)));
            svc.drain();
        }
        let out = svc.shutdown();
        assert!(
            matches!(out.errors[..], [ServiceError::Wal(_)]),
            "one fatal WAL error: {:?}",
            out.errors
        );
        // The two requests logged before the failure committed; the
        // third is named lost, and so is the one after the stop.
        assert_eq!(out.stats.committed_txns, 2);
        assert_eq!(out.reports.iter().map(|r| r.requests[0].request).collect::<Vec<_>>(), ids[..2]);
        assert_eq!(out.lost_requests, ids[2..]);
        assert_eq!(out.stats.accepted, 2);
        assert_eq!(out.stats.unaccounted_ops, 0);
        // The failed request never reached the target state or the log.
        assert!(out.subs[3].is_empty());
        let logged = wal.replay().unwrap().subs;
        assert_eq!(logged[15], vec![f("stock == GOOGL")]);
        assert!(logged[3].is_empty());
    }

    #[test]
    fn stamps_near_the_end_of_the_clock_still_batch() {
        let (mut svc, _) = start(ServiceConfig::default());
        svc.subscribe(15, f("stock == GOOGL"), u64::MAX - 1);
        svc.subscribe(7, f("price > 50"), u64::MAX - 1);
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert!(out.lost_requests.is_empty());
        assert_eq!(out.stats.batches, 1, "one window took both requests");
        assert_eq!(out.stats.accepted, 2);
        assert_eq!(out.stats.unaccounted_ops, 0);
    }

    #[test]
    fn request_spans_land_in_reports() {
        let (mut svc, _) = start(ServiceConfig::default());
        svc.subscribe(1, f("price > 10"), 2_000);
        let mut out = svc.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        let [report] = &mut out.reports[..] else { panic!("one transaction") };
        assert_eq!(report.batches, 1);
        let [span] = report.requests[..] else { panic!("one request") };
        assert_eq!((span.request, span.host, span.arrival_ns), (0, 1, 2_000));
        assert!(report.deployed_ns >= report.compiled_ns);
        assert_eq!(report.time_to_traffic_ns(&span), report.deployed_ns - 2_000);
        assert!(report.time_to_traffic_ns(&span) > 0);
        // A clock-skewed stamp must not panic the metric.
        report.deployed_ns = 50;
        assert_eq!(report.time_to_traffic_ns(&span), 0);
    }

    /// The hosts a GOOGL quote at price 75, published by host 0, reaches.
    fn probe_hosts(net: &mut Network) -> Vec<usize> {
        let t = net.now_ns() + 1;
        let _ = net.publish(0, probe(75).packet, t);
        net.run(None);
        let hosts = net.topology.host_count();
        (0..hosts).filter(|&h| net.deliveries(h).iter().any(|d| d.published_ns == t)).collect()
    }

    #[test]
    fn a_failed_commit_decision_rolls_back_and_stops_the_service() {
        let net = paper_fat_tree();
        let mut subs = vec![Vec::new(); net.host_count()];
        subs[15].push(f("stock == GOOGL"));
        let ctrl = controller();
        let mut d = ctrl.deploy(net, &subs).unwrap();
        let before = probe_hosts(&mut d.network);
        assert_eq!(before, vec![15]);
        let (wal, _) = test_wal(|line| line.starts_with("commit "));
        let cfg = ServiceConfig { wal: Some(wal.clone()), ..ServiceConfig::default() };
        let mut svc = CamusService::start(ctrl, d, subs, Box::new(PerfectChannel), cfg);
        svc.subscribe(7, f("price > 50"), 1_000);
        svc.subscribe(9, f("stock == GOOGL"), 1_100);
        svc.drain(); // the install's commit decision cannot be logged
        let late = svc.subscribe(3, f("price > 10"), 9_000_000);
        let mut out = svc.shutdown();
        assert!(matches!(out.errors[..], [ServiceError::Wal(_)]), "{:?}", out.errors);
        assert!(out.reports.is_empty());
        assert_eq!(out.lost_requests, vec![late]);
        assert_eq!(out.stats.unaccounted_ops, 2, "the batch's two ops are named lost");
        let net = &mut out.deployment.network;
        let in_doubt = |s: &camus_dataplane::Switch| {
            s.staged_epoch().is_some() || s.unfinalized_epoch().is_some()
        };
        assert!(!net.switches.iter().any(in_doubt), "every staged program is rolled back");
        assert_eq!(probe_hosts(net), before, "the network forwards as before the batch");
        let logged = wal.replay().unwrap().subs;
        assert_eq!(logged[7], vec![f("price > 50")]);
        assert_eq!(logged[9], vec![f("stock == GOOGL")]);
    }

    #[test]
    fn recovering_from_a_deleted_log_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("camus-service-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deleted.wal");
        let _ = std::fs::remove_file(&path);
        let wal = Wal::file(&path).unwrap();
        let (mut svc, _) =
            start(ServiceConfig { wal: Some(wal.clone()), ..ServiceConfig::default() });
        svc.subscribe(15, f("stock == GOOGL"), 1_000);
        let wreck = svc.kill();
        std::fs::remove_file(&path).unwrap();
        assert!(wal.replay().is_err(), "a missing log is no empty state");
        let recovered = CamusService::recover(
            controller(),
            wreck.deployment.network,
            wal,
            Box::new(PerfectChannel),
            ServiceConfig::default(),
        );
        match recovered {
            Err(ServiceError::Wal(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            Err(e) => panic!("expected a log error, got {e}"),
            Ok(_) => panic!("recovery rebuilt a state from a missing log"),
        }
    }

    #[test]
    fn recovering_from_a_log_without_a_snapshot_is_a_typed_error() {
        let (mut svc, _) = start(ServiceConfig::default());
        svc.subscribe(15, f("stock == GOOGL"), 1_000);
        let wreck = svc.kill();
        let recovered = CamusService::recover(
            controller(),
            wreck.deployment.network,
            Wal::in_memory(),
            Box::new(PerfectChannel),
            ServiceConfig::default(),
        );
        match recovered {
            Err(ServiceError::Wal(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            Err(e) => panic!("expected a log error, got {e}"),
            Ok(_) => panic!("recovery rebuilt a state for no hosts"),
        }
    }

    #[test]
    fn a_fixed_schedule_writes_a_fixed_log() {
        let (wal, lines) = test_wal(|_| false);
        let cfg = ServiceConfig { wal: Some(wal), snapshot_every: 1, ..ServiceConfig::default() };
        let (mut svc, _) = start(cfg);
        // Two subscribes around a soft reject: host 3 holds nothing.
        svc.subscribe(15, f("stock == GOOGL"), 1_000);
        svc.unsubscribe(3, f("price > 10"), 1_100);
        svc.subscribe(7, f("price > 50"), 1_200);
        svc.drain();
        // A cancelling pair: a noop transaction.
        svc.subscribe(4, f("price > 10"), 9_000_000);
        svc.unsubscribe(4, f("price > 10"), 9_000_100);
        svc.drain();
        // A window left open until the next arrival expires it.
        svc.unsubscribe(7, f("price > 50"), 20_000_000);
        svc.subscribe(9, f("stock == MSFT"), 20_000_100);
        svc.subscribe(2, f("shares >= 5"), 10_000_000_000);
        svc.drain();
        let out = svc.shutdown();
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.rejected_requests.len(), 1);
        let reports: Vec<_> =
            out.reports.iter().map(|r| (r.txn, r.ops, r.noop, r.committed)).collect();
        assert_eq!(
            reports,
            vec![(0, 2, false, true), (1, 2, true, true), (2, 2, false, true), (3, 1, false, true)]
        );
        let want = [
            // The anchor snapshot of the deployed state.
            "snap begin 2 - 16",
            "snap end",
            r#"req 0 15 1000 sub stock == "GOOGL""#,
            "req 1 3 1100 unsub price > 10",
            "req 2 7 1200 sub price > 50",
            // Transaction 0 commits and snapshots.
            "commit 2",
            "snap begin 3 2 16",
            "snap sub 7 price > 50",
            r#"snap sub 15 stock == "GOOGL""#,
            "snap end",
            // The noop logs no decision and no snapshot.
            "req 3 4 9000000 sub price > 10",
            "req 4 4 9000100 unsub price > 10",
            "req 5 7 20000000 unsub price > 50",
            r#"req 6 9 20000100 sub stock == "MSFT""#,
            // This request expires the open window, whose transaction
            // runs after the request is logged.
            "req 7 2 10000000000 sub shares >= 5",
            "commit 3",
            "snap begin 4 6 16",
            r#"snap sub 9 stock == "MSFT""#,
            r#"snap sub 15 stock == "GOOGL""#,
            "snap end",
            "commit 4",
            "snap begin 5 7 16",
            "snap sub 2 shares >= 5",
            r#"snap sub 9 stock == "MSFT""#,
            r#"snap sub 15 stock == "GOOGL""#,
            "snap end",
        ];
        assert_eq!(*lines.lock().unwrap(), want);
    }
}
