//! The logically centralised controller (Fig. 2, §III).
//!
//! Input: the topology, the application's static pipeline, and the
//! per-host subscription filters. The controller runs Algorithm 1 to
//! obtain per-switch rule lists, compiles each with the Camus compiler
//! (in parallel), and instantiates the dataplane switches. It also
//! supports *dynamic reconfiguration* (§VIII-G.3): on a subscription
//! change it recomputes and reinstalls only the pipelines, preserving
//! switch state.

use crate::channel::{timed_op, ControlChannel, ControlOp, PerfectChannel};
use crate::clock::Clock;
use crate::sim::Network;
use camus_core::compiler::{CompileError, Compiler};
use camus_core::pipeline::{LeafTable, Pipeline, STATE_INIT};
use camus_core::resources::ResourceBudget;
use camus_core::statics::StaticPipeline;
use camus_dataplane::{InstallError, Program, Switch, SwitchConfig};
use camus_lang::ast::{Action, Expr, Port};
use camus_routing::algorithm1::{route_hierarchical_degraded, RoutingConfig, RoutingResult};
use camus_routing::compile::{compile_network_incremental, DeltaCache, NetworkCompile};
use camus_routing::topology::{FaultMask, HierNet};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Controller configuration and handles.
#[derive(Debug, Clone)]
pub struct Controller {
    pub statics: StaticPipeline,
    pub routing: RoutingConfig,
    /// When a switch's precise pipeline is over budget, fall back to a
    /// conservative coarse pipeline (over-deliver, never under-deliver)
    /// instead of failing the whole deploy.
    pub degrade_over_budget: bool,
    /// Per-switch resource budgets; switches not listed are
    /// unbudgeted.
    pub budget_overrides: HashMap<usize, ResourceBudget>,
}

/// A deployed network plus the artefacts the evaluation wants to see.
pub struct Deployment {
    pub network: Network,
    pub routing: RoutingResult,
    /// Per-switch compile results (entry counts, times).
    pub compile: NetworkCompile,
    /// What the last successful deploy/repair transaction did on the
    /// control channel, per touched switch.
    pub report: DeployReport,
    /// Switches currently running the coarse degraded pipeline because
    /// their precise one was over budget.
    pub degraded: BTreeSet<usize>,
    /// Epoch the *next* install transaction will stage under. Epochs
    /// tag shadow programs on switches (see [`Switch::stage_epoch`])
    /// so a recovering controller can tell which transaction left
    /// staged state behind and look its commit decision up in the log.
    pub next_epoch: u64,
}

/// Why a deployment transaction failed. Any error leaves the previous
/// deployment forwarding byte-identically: staged state is rolled
/// back, nothing is half-committed.
#[derive(Debug)]
pub enum DeployError {
    /// A switch pipeline failed to compile.
    Compile(CompileError),
    /// One or more switches rejected their program at admission; the
    /// offenders (every one found, not just the first) are named with
    /// their budget violations (or spec mismatch).
    Admission { rejected: Vec<(usize, InstallError)>, report: DeployReport },
    /// A control-channel operation to the named switches exhausted its
    /// retries.
    Channel { failed: Vec<usize>, report: DeployReport },
    /// The channel could not log the commit decision for `epoch`
    /// ([`ControlChannel::commit_point`] failed), so the decision may
    /// not be durable: every switch admitted its program, and every
    /// staged program was aborted.
    CommitPoint { epoch: u64, error: std::io::Error, report: DeployReport },
    /// The controller process died mid-transaction. Unlike every other
    /// arm, **nothing was rolled back**: a dead coordinator cannot
    /// clean up, so staged and committed-but-unfinalised programs are
    /// left on the switches for recovery to reconcile (the ledger
    /// records how far the transaction got).
    Crashed { epoch: u64, report: DeployReport },
    /// The subscriptions hold one list per host for `lists` hosts, but
    /// the topology has `hosts`. Nothing was routed or staged, and no
    /// epoch was consumed.
    HostCount { hosts: usize, lists: usize },
}

impl From<CompileError> for DeployError {
    fn from(e: CompileError) -> Self {
        DeployError::Compile(e)
    }
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Compile(e) => write!(f, "compile failed: {e}"),
            DeployError::Admission { rejected, .. } => {
                write!(f, "deploy rejected at admission:")?;
                for (s, e) in rejected {
                    write!(f, " switch {s}: {e};")?;
                }
                Ok(())
            }
            DeployError::Channel { failed, .. } => {
                write!(f, "control channel exhausted retries to switches {failed:?}")
            }
            DeployError::CommitPoint { epoch, error, .. } => {
                write!(f, "commit decision for epoch {epoch} not logged ({error}); rolled back")
            }
            DeployError::Crashed { epoch, .. } => {
                write!(f, "controller crashed mid-transaction (epoch {epoch}); switches hold unreconciled state")
            }
            DeployError::HostCount { hosts, lists } => {
                write!(f, "subscription lists for {lists} hosts on a topology of {hosts} hosts")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// Admission outcome for one switch in a deploy transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The precise pipeline fits the budget.
    Admitted,
    /// Precise pipeline over budget; the coarse fallback was staged
    /// instead (over-delivers, never under-delivers).
    Degraded,
    /// Over budget and degradation disabled (or the fallback itself
    /// rejected), or a program built for another spec.
    Rejected(InstallError),
    /// The control channel never reached the switch.
    Unreachable,
}

/// Per-switch record of what one deploy transaction did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchDeploy {
    pub switch: usize,
    /// Control-channel attempts across stage and commit ops.
    pub attempts: u32,
    /// Attempts beyond the first per op.
    pub retries: u32,
    pub verdict: AdmissionVerdict,
    pub staged: bool,
    pub committed: bool,
    /// Staged or committed state undone because the transaction
    /// failed elsewhere.
    pub rolled_back: bool,
    /// Modelled control-plane time spent staging on this switch (ops,
    /// timeouts and backoff).
    pub stage_ns: u64,
    /// Modelled control-plane time spent committing on this switch.
    pub commit_ns: u64,
}

impl SwitchDeploy {
    fn new(switch: usize) -> Self {
        SwitchDeploy {
            switch,
            attempts: 0,
            retries: 0,
            verdict: AdmissionVerdict::Unreachable,
            staged: false,
            committed: false,
            rolled_back: false,
            stage_ns: 0,
            commit_ns: 0,
        }
    }

    /// Modelled control-plane time spent on this switch across both
    /// phases.
    fn control_ns(&self) -> u64 {
        self.stage_ns + self.commit_ns
    }
}

/// The per-switch ledger of a two-phase deploy transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeployReport {
    pub switches: Vec<SwitchDeploy>,
}

impl DeployReport {
    pub fn committed(&self) -> usize {
        self.switches.iter().filter(|s| s.committed).count()
    }

    pub fn total_attempts(&self) -> u32 {
        self.switches.iter().map(|s| s.attempts).sum()
    }

    pub fn total_retries(&self) -> u32 {
        self.switches.iter().map(|s| s.retries).sum()
    }

    pub fn total_control_ns(&self) -> u64 {
        self.switches.iter().map(SwitchDeploy::control_ns).sum()
    }
}

/// The conservative fallback for an over-budget switch: no match
/// stages at all, every message forwarded to every port any of the
/// switch's rules forwards to. Over-delivers (downstream switches and
/// hosts still filter), never under-delivers; deterministic in the
/// rule list so repair and fresh deploy converge to the same program.
fn coarse_pipeline(rules: &[camus_lang::ast::Rule]) -> Pipeline {
    let mut ports: BTreeSet<Port> = BTreeSet::new();
    for r in rules {
        if let Action::Forward(ps) = &r.action {
            ports.extend(ps.iter().copied());
        }
    }
    let default =
        if ports.is_empty() { Action::Drop } else { Action::Forward(ports.into_iter().collect()) };
    Pipeline {
        stages: Vec::new(),
        leaf: LeafTable { actions: HashMap::new(), default },
        initial: STATE_INIT,
    }
}

/// What a [`Controller::repair`] pass did (§VIII-G.3 extended to
/// failures): how long it took and how much of the previous deployment
/// it could keep.
#[derive(Debug, Clone, Copy)]
pub struct RepairStats {
    /// Total repair wall-clock: degraded routing + compile + reinstall.
    pub elapsed: Duration,
    /// The compile share of `elapsed` (the Fig. 14 metric).
    pub compile_elapsed: Duration,
    /// Switches whose pipeline changed and was recompiled.
    pub recompiled: usize,
    /// Switches whose previous pipeline was reused (fingerprint hit).
    pub reused: usize,
    /// Compiler invocations actually paid (identical rule lists share).
    pub distinct_compiles: usize,
    /// Switches whose installed pipeline actually changed.
    pub reinstalled: usize,
}

impl Controller {
    pub fn new(statics: StaticPipeline, routing: RoutingConfig) -> Self {
        Controller { statics, routing, degrade_over_budget: true, budget_overrides: HashMap::new() }
    }

    fn compiler(&self) -> Compiler {
        Compiler::new().with_static(self.statics.clone())
    }

    /// The switch config for slot `s`, with any budget override.
    fn config_for(&self, s: usize) -> SwitchConfig {
        let mut cfg = SwitchConfig::default();
        if let Some(b) = self.budget_overrides.get(&s) {
            cfg.budget = *b;
        }
        cfg
    }

    /// Drive one per-switch control operation through the channel with
    /// retry + capped exponential backoff, accounting attempts and
    /// modelled time into `entry`. Returns the full outcome so callers
    /// can distinguish an exhausted channel from a crashed controller.
    fn channel_op(
        &self,
        channel: &mut dyn ControlChannel,
        entry: &mut SwitchDeploy,
        op: ControlOp,
    ) -> crate::channel::OpOutcome {
        // Each op runs on a fresh clock slice; the ledger accumulates.
        let mut clock = Clock::new();
        let out = timed_op(channel, &mut clock, entry.switch, op);
        entry.attempts += out.attempts;
        entry.retries += out.retries;
        let spent = clock.now_ns();
        match op {
            ControlOp::Stage => entry.stage_ns += spent,
            ControlOp::Commit => entry.commit_ns += spent,
        }
        out
    }

    /// The two-phase deployment transaction over `targets` (slot ids):
    /// stage everything under `epoch` (admission happens at the
    /// switch), announce the commit decision through
    /// [`ControlChannel::commit_point`], then commit only if every
    /// stage landed and was admitted and the decision was logged; any
    /// failure rolls every touched switch back so forwarding is
    /// byte-identical to before the call —
    /// except a controller crash ([`DeployError::Crashed`]), which
    /// leaves the wreckage in place for recovery to reconcile. Returns
    /// the ledger and the switches that fell back to the coarse
    /// degraded pipeline.
    ///
    /// Targets with equal rule-list fingerprints stage one shared
    /// immutable [`Program`], lowered on first use and admitted by the
    /// resource report its compile already computed (the controller's
    /// compiler reports under the spec's field widths, as
    /// [`Program::build`] would); admission, degradation and rollback
    /// stay each switch's own.
    fn apply_transaction(
        &self,
        network: &mut Network,
        compile: &NetworkCompile,
        routing: &RoutingResult,
        targets: &[usize],
        epoch: u64,
        channel: &mut dyn ControlChannel,
    ) -> Result<(DeployReport, BTreeSet<usize>), DeployError> {
        // The ledger is ordered by switch index regardless of how the
        // caller discovered the targets, so reports from different
        // change-detection orders compare equal.
        let mut targets: Vec<usize> = targets.to_vec();
        targets.sort_unstable();
        let targets = &targets[..];
        let mut report = DeployReport::default();
        let mut degraded = BTreeSet::new();
        let mut rejected: Vec<(usize, InstallError)> = Vec::new();
        // Keyed by fingerprint, the content address the compile cache
        // already trusts, so twins share even when the caller handed
        // each its own `Arc<Compiled>`.
        let mut programs: HashMap<u64, Arc<Program>> = HashMap::new();

        // Phase one: stage every target shadow-side.
        for (ti, &s) in targets.iter().enumerate() {
            let mut entry = SwitchDeploy::new(s);
            let out = self.channel_op(channel, &mut entry, ControlOp::Stage);
            if out.crashed {
                // Dead coordinator: leave everything staged so far in
                // place (recovery's presumed-abort rule cleans it up)
                // and record the untouched tail for a complete ledger.
                report.switches.push(entry);
                for &rest in &targets[ti + 1..] {
                    report.switches.push(SwitchDeploy::new(rest));
                }
                return Err(DeployError::Crashed { epoch, report });
            }
            if !out.landed {
                // Channel exhausted: abort the scan, roll back
                // everything staged so far.
                report.switches.push(entry);
                roll_back(network, &mut report);
                // Remaining targets were never attempted; record them
                // as untouched for a complete ledger.
                for &rest in &targets[ti + 1..] {
                    report.switches.push(SwitchDeploy::new(rest));
                }
                return Err(DeployError::Channel { failed: vec![s], report });
            }
            let sc = &compile.switches[s];
            let program = Arc::clone(programs.entry(sc.fingerprint).or_insert_with(|| {
                Arc::new(Program::with_report(
                    &self.statics.spec,
                    sc.compiled.pipeline.clone(),
                    sc.compiled.report.clone(),
                ))
            }));
            match network.switches[s].stage_epoch(program, epoch) {
                Ok(()) => {
                    entry.verdict = AdmissionVerdict::Admitted;
                    entry.staged = true;
                }
                Err(err @ InstallError::OverBudget(_)) if self.degrade_over_budget => {
                    // Fall back to the coarse pipeline; admission of
                    // the fallback is still the switch's call.
                    let coarse = Program::build(
                        &self.statics.spec,
                        coarse_pipeline(&routing.switch_rules(s)),
                    );
                    match network.switches[s].stage_epoch(Arc::new(coarse), epoch) {
                        Ok(()) => {
                            entry.verdict = AdmissionVerdict::Degraded;
                            entry.staged = true;
                            degraded.insert(s);
                        }
                        Err(fallback_err) => {
                            entry.verdict = AdmissionVerdict::Rejected(fallback_err.clone());
                            rejected.push((s, err));
                        }
                    }
                }
                Err(err) => {
                    entry.verdict = AdmissionVerdict::Rejected(err.clone());
                    rejected.push((s, err));
                }
            }
            report.switches.push(entry);
        }

        // Every admission verdict is in; reject the whole transaction
        // if any switch refused, naming all offenders.
        if !rejected.is_empty() {
            roll_back(network, &mut report);
            return Err(DeployError::Admission { rejected, report });
        }

        // Commit point: every switch admitted its staged program, so
        // the transaction *will* commit. A durable channel logs the
        // decision for `epoch` here — before the first commit op — so
        // recovery can roll a half-committed transaction forward
        // (presumed abort: no logged decision ⇒ abort the epoch). A
        // decision that may not be logged aborts like a rejection.
        if let Err(error) = channel.commit_point(epoch) {
            roll_back(network, &mut report);
            return Err(DeployError::CommitPoint { epoch, error, report });
        }

        // Phase two: commit. A commit keeps the displaced program
        // retired until finalisation, so a late channel failure can
        // still revert the already-committed prefix.
        for i in 0..report.switches.len() {
            let out = self.channel_op(channel, &mut report.switches[i], ControlOp::Commit);
            if out.crashed {
                // Dead coordinator past the commit point: the committed
                // prefix and staged tail stay exactly as they are;
                // recovery rolls the whole epoch forward.
                return Err(DeployError::Crashed { epoch, report });
            }
            if !out.landed {
                let failed = report.switches[i].switch;
                roll_back(network, &mut report);
                return Err(DeployError::Channel { failed: vec![failed], report });
            }
            let s = report.switches[i].switch;
            network.switches[s].commit_staged();
            report.switches[i].committed = true;
        }
        for e in &report.switches {
            network.switches[e.switch].finalize_install();
        }
        Ok((report, degraded))
    }

    /// Compute routing, compile every switch, and build the network. A
    /// cold deploy is "converge from empty": the switches boot with the
    /// empty pipeline and nothing compiled, so the first
    /// [`repair`](Self::repair) compiles each distinct rule list once
    /// and installs every switch through the admission-checked
    /// transaction. On error no [`Deployment`] is produced at all, so
    /// the caller's previous deployment (if any) is untouched.
    pub fn deploy(&self, topology: HierNet, subs: &[Vec<Expr>]) -> Result<Deployment, DeployError> {
        let switches = (0..topology.switch_count())
            .map(|s| Switch::new(&self.statics, Pipeline::empty(), self.config_for(s)))
            .collect();
        let mut deployment = Deployment::adopt(Network::new(topology, switches), 1);
        self.repair(&mut deployment, subs, &mut PerfectChannel)?;
        Ok(deployment)
    }

    /// Recompute routing around the network's current fault mask and
    /// reinstall, over `channel`, only the switches whose pipeline
    /// changed. This is the convergence step after a failure (or a
    /// restore — the same code path heals in both directions), and also
    /// dynamic reconfiguration (§VIII-G.3): with a healthy mask it
    /// recomputes and reinstalls pipelines after a subscription change,
    /// preserving switch state. Recompilation is *incremental*:
    /// switches whose routed rule list is fingerprint-identical to the
    /// deployed one keep their compiled pipeline and are not
    /// reinstalled ([`RepairStats::compile_elapsed`] is the Fig. 14
    /// measurement).
    ///
    /// Any error (admission or exhausted retries) rolls the transaction
    /// back: the deployment keeps its previous routing, compile state
    /// and installed pipelines, and deliveries are byte-identical to
    /// before the call.
    pub fn repair(
        &self,
        deployment: &mut Deployment,
        subs: &[Vec<Expr>],
        channel: &mut dyn ControlChannel,
    ) -> Result<RepairStats, DeployError> {
        let (routing, compile, route_ns) = self.replan(deployment, subs)?;
        self.install(deployment, routing, compile, route_ns, channel)
    }

    /// Stages one and two against a live deployment: route around its
    /// current fault mask, then compile with its installed compile as
    /// the content-addressed cache (no maintained diagrams — callers
    /// that carry a [`DeltaCache`] drive the stages themselves). Fails
    /// with [`DeployError::HostCount`] unless `subs` holds one list per
    /// host.
    fn replan(
        &self,
        deployment: &Deployment,
        subs: &[Vec<Expr>],
    ) -> Result<(RoutingResult, NetworkCompile, u64), DeployError> {
        let network = &deployment.network;
        let hosts = network.topology.host_count();
        if subs.len() != hosts {
            return Err(DeployError::HostCount { hosts, lists: subs.len() });
        }
        let start = Instant::now();
        let routing = self.plan_routing(&network.topology, subs, network.fault_mask());
        let route_ns = start.elapsed().as_nanos() as u64;
        let compile = compile_network_incremental(
            &routing,
            &self.compiler(),
            Some(&deployment.compile),
            None,
        )?;
        Ok((routing, compile, route_ns))
    }

    /// Stage one of a repair: run Algorithm 1 around `mask`. Split out
    /// with [`compile_routing_delta`](Self::compile_routing_delta) and
    /// [`install`](Self::install) so a caller that keeps its own delta
    /// cache and times each step (the service's transaction step) can
    /// run them one by one.
    ///
    /// # Panics
    ///
    /// If `subs` does not hold one list per host of `topology`.
    pub fn plan_routing(
        &self,
        topology: &HierNet,
        subs: &[Vec<Expr>],
        mask: &FaultMask,
    ) -> RoutingResult {
        route_hierarchical_degraded(topology, subs, self.routing, mask)
    }

    /// Stage two: compile a routing result, reusing `previous` as a
    /// content-addressed cache and maintaining, through `cache`, the
    /// per-switch BDDs of the switches that miss it — in time
    /// proportional to the rule-list delta instead of a rebuild. Any
    /// earlier compile may serve as `previous`; the installed one
    /// (`deployment.compile`) is the natural choice. Callers own the
    /// cache and carry it across reconfigurations; a fresh cache
    /// degenerates to seeding every representative.
    ///
    /// A delta-maintained table is not the table a cold compile of the
    /// same list builds: through churn it can hold more entries or
    /// fewer, or the same entries in another order. What holds is the
    /// fingerprints, and the forwarding of every packet that carries
    /// every field the list tests. A packet that lacks a tested field
    /// can be forwarded differently (see the absent-attribute item in
    /// ROADMAP.md).
    pub fn compile_routing_delta(
        &self,
        routing: &RoutingResult,
        previous: Option<&NetworkCompile>,
        cache: &mut DeltaCache,
    ) -> Result<NetworkCompile, CompileError> {
        compile_network_incremental(routing, &self.compiler(), previous, Some(cache))
    }

    /// Stage three: install a precomputed `(routing, compile)` pair
    /// into a live deployment over `channel`, reinstalling exactly the
    /// switches whose own rule list differs from what is *actually
    /// installed* (`deployment.compile` — not whatever cache the
    /// compile was computed against). `reused` is not the right gate:
    /// the compile cache is content-addressed across slots, so a switch
    /// can reuse another switch's previous pipeline while its own
    /// installed one is stale. Error semantics match
    /// [`repair`](Self::repair): any failure rolls back and the
    /// deployment keeps forwarding byte-identically. Switches admit each
    /// pipeline by its compile's own resource report, so `compile` must
    /// report under this controller's spec, as
    /// [`compile_routing_delta`](Self::compile_routing_delta) does.
    pub fn install(
        &self,
        deployment: &mut Deployment,
        routing: RoutingResult,
        compile: NetworkCompile,
        route_ns: u64,
        channel: &mut dyn ControlChannel,
    ) -> Result<RepairStats, DeployError> {
        let changed = compile.changed_since(&deployment.compile);
        self.install_on(deployment, routing, compile, route_ns, &changed, channel)
    }

    /// The one install step: run the two-phase transaction over
    /// `targets` under the deployment's next epoch and, once it has
    /// committed, make `(routing, compile)` the deployment's state.
    fn install_on(
        &self,
        deployment: &mut Deployment,
        routing: RoutingResult,
        compile: NetworkCompile,
        route_ns: u64,
        targets: &[usize],
        channel: &mut dyn ControlChannel,
    ) -> Result<RepairStats, DeployError> {
        let start = Instant::now();
        // Consume the epoch up front: even a crashed transaction used
        // it (switches may hold state tagged with it), so the next
        // attempt must stage under a fresh one.
        let epoch = deployment.next_epoch;
        deployment.next_epoch += 1;
        let (report, degraded) = self.apply_transaction(
            &mut deployment.network,
            &compile,
            &routing,
            targets,
            epoch,
            channel,
        )?;
        let stats = RepairStats {
            elapsed: Duration::from_nanos(route_ns) + compile.elapsed + start.elapsed(),
            compile_elapsed: compile.elapsed,
            recompiled: compile.recompiled,
            reused: compile.reused,
            distinct_compiles: compile.distinct_compiles,
            reinstalled: report.committed(),
        };
        // A target that re-admitted its precise pipeline is no longer
        // degraded; newly over-budget ones join the set.
        for s in targets {
            deployment.degraded.remove(s);
        }
        deployment.degraded.extend(degraded);
        deployment.routing = routing;
        deployment.compile = compile;
        deployment.report = report;
        Ok(stats)
    }

    /// Reconcile every switch's staged / committed-but-unfinalised
    /// state after a controller crash — the recovery arm of the
    /// two-phase install. `committed_epochs` is the set of epochs whose
    /// commit decision made it to the durable log; the rule is
    /// presumed abort:
    ///
    /// * staged under a *logged* epoch → commit + finalise (the
    ///   coordinator had decided to commit; finish its job),
    /// * staged under an unlogged epoch → abort (the decision was
    ///   never made, so the transaction never happened),
    /// * committed-but-unfinalised under a logged epoch → finalise,
    /// * committed-but-unfinalised under an unlogged epoch → revert
    ///   (defensive: the protocol logs the decision before the first
    ///   commit op, so this arm only fires on a corrupted log).
    fn reconcile_staged(
        &self,
        network: &mut Network,
        committed_epochs: &BTreeSet<u64>,
    ) -> ReconcileStats {
        let mut stats = ReconcileStats::default();
        for sw in &mut network.switches {
            if let Some(e) = sw.unfinalized_epoch() {
                if committed_epochs.contains(&e) {
                    sw.finalize_install();
                    stats.finalized += 1;
                } else {
                    sw.revert_committed();
                    stats.reverted += 1;
                }
            }
            if let Some(e) = sw.staged_epoch() {
                if committed_epochs.contains(&e) {
                    sw.commit_staged();
                    sw.finalize_install();
                    stats.rolled_forward += 1;
                } else {
                    sw.abort_staged();
                    stats.aborted += 1;
                }
            }
        }
        stats
    }

    /// Rebuild a [`Deployment`] around a surviving network after a
    /// controller crash. The controller-side artefacts (routing,
    /// compile state, ledger) died with the old process, so recovery
    /// interrogates the switches instead:
    ///
    /// 1. `reconcile_staged` settles every
    ///    in-doubt install against the logged commit decisions,
    /// 2. routing is re-planned from the durable subscription set and
    ///    the network's *current* fault mask, and every distinct rule
    ///    list is recompiled cold,
    /// 3. exactly the switches whose installed pipeline differs from
    ///    the recompiled intent are reinstalled through the normal
    ///    install step under `next_epoch`.
    ///
    /// Every switch ends with the pipeline a cold compile of its list
    /// gives (or its coarse fallback, when that is over budget),
    /// whatever it ran before, and switches that already
    /// forward correctly are not disturbed. Recovering a network of
    /// freshly booted empty switches that carries a fault mask is
    /// therefore a cold deploy onto that mask: the oracle repairs are
    /// checked against.
    pub fn recover_deployment(
        &self,
        network: Network,
        subs: &[Vec<Expr>],
        committed_epochs: &BTreeSet<u64>,
        next_epoch: u64,
        channel: &mut dyn ControlChannel,
    ) -> Result<(Deployment, ReconcileStats), DeployError> {
        let mut deployment = Deployment::adopt(network, next_epoch);
        let mut stats = self.reconcile_staged(&mut deployment.network, committed_epochs);
        let (routing, compile, route_ns) = self.replan(&deployment, subs)?;
        // Interrogation-based diff: the old compile baseline is gone,
        // so compare compiled intent against what each switch actually
        // runs. Degraded switches always differ from their precise
        // pipeline and re-degrade deterministically, so they converge
        // too.
        let switches = &deployment.network.switches;
        let targets: Vec<usize> = (0..compile.switches.len())
            .filter(|&s| compile.switches[s].compiled.pipeline != *switches[s].pipeline())
            .collect();
        stats.reinstalled = self
            .install_on(&mut deployment, routing, compile, route_ns, &targets, channel)?
            .reinstalled;
        Ok((deployment, stats))
    }
}

impl Deployment {
    /// A deployment around `network` as it stands, with nothing routed
    /// or compiled on the controller side yet: what a cold deploy boots
    /// and what recovery starts from. An empty compile holds no
    /// fingerprint, so the first install sees every switch as changed.
    fn adopt(network: Network, next_epoch: u64) -> Deployment {
        Deployment {
            network,
            routing: RoutingResult::default(),
            compile: NetworkCompile::default(),
            report: DeployReport::default(),
            degraded: BTreeSet::new(),
            next_epoch,
        }
    }
}

/// What [`Controller::recover_deployment`] (its `reconcile_staged`
/// step and the recovery transaction) did to settle a crash's
/// in-doubt state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconcileStats {
    /// Staged programs committed because their epoch's decision was
    /// logged.
    pub rolled_forward: usize,
    /// Staged programs aborted (no logged decision — presumed abort).
    pub aborted: usize,
    /// Committed-but-unfinalised installs finalised.
    pub finalized: usize,
    /// Committed-but-unfinalised installs reverted (unlogged epoch).
    pub reverted: usize,
    /// Switches reinstalled by the recovery transaction because their
    /// running pipeline differed from the recompiled intent.
    pub reinstalled: usize,
}

/// Undo a failed transaction: revert every switch it committed, abort
/// every program it staged, and mark each rolled back in the ledger, so
/// the ledger shows the final state.
fn roll_back(network: &mut Network, report: &mut DeployReport) {
    for e in report.switches.iter_mut().filter(|e| e.committed || e.staged) {
        if e.committed {
            network.switches[e.switch].revert_committed();
        } else {
            network.switches[e.switch].abort_staged();
        }
        e.committed = false;
        e.staged = false;
        e.rolled_back = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelOutcome, MAX_ATTEMPTS};
    use camus_core::digest::Fnv1a;
    use camus_core::statics::compile_static;
    use camus_dataplane::PacketBuilder;
    use camus_lang::parser::parse_expr;
    use camus_lang::spec::itch_spec;
    use camus_lang::value::Value;
    use camus_routing::algorithm1::Policy;
    use camus_routing::topology::{paper_fat_tree, DownTarget};
    use std::hash::Hasher;

    fn controller(policy: Policy) -> Controller {
        let statics = compile_static(&itch_spec()).unwrap();
        Controller::new(statics, RoutingConfig::new(policy))
    }

    fn subs(net: &HierNet, f: impl Fn(usize) -> Vec<&'static str>) -> Vec<Vec<Expr>> {
        (0..net.host_count())
            .map(|h| f(h).into_iter().map(|s| parse_expr(s).unwrap()).collect())
            .collect()
    }

    /// Messages delivered to any host.
    fn delivered(network: &Network) -> usize {
        (0..network.topology.host_count()).map(|h| network.deliveries(h).len()).sum()
    }

    fn googl_packet(price: i64) -> camus_dataplane::Packet {
        let spec = itch_spec();
        PacketBuilder::new(&spec)
            .message(vec![("stock", Value::from("GOOGL")), ("price", Value::Int(price))])
            .build()
    }

    #[test]
    fn end_to_end_delivery_across_fat_tree() {
        // Publisher at host 0 (pod 0), subscriber at host 15 (pod 3).
        let net = paper_fat_tree();
        let subs = subs(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
            let mut d = controller(policy).deploy(net.clone(), &subs).unwrap();
            d.network.publish(0, googl_packet(10), 0);
            d.network.run(None);
            let got = d.network.deliveries(15);
            assert_eq!(got.len(), 1, "{policy:?}");
            assert_eq!(got[0].values["stock"], Value::from("GOOGL"));
            assert!(got[0].latency_ns() > 0);
            // Nobody else hears it.
            for h in 0..15 {
                assert!(d.network.deliveries(h).is_empty(), "{policy:?} host {h}");
            }
        }
    }

    #[test]
    fn a_host_count_mismatch_is_a_typed_error() {
        let net = paper_fat_tree();
        let ctrl = controller(Policy::TrafficReduction);
        let mut subs = subs(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        let mut d = ctrl.deploy(net.clone(), &subs).unwrap();
        let fingerprints: Vec<_> = d.compile.switches.iter().map(|c| c.fingerprint).collect();
        let pipelines: Vec<Pipeline> =
            d.network.switches.iter().map(|s| s.pipeline().clone()).collect();
        let next_epoch = d.next_epoch;

        subs.pop();
        match ctrl.repair(&mut d, &subs, &mut PerfectChannel) {
            Err(DeployError::HostCount { hosts: 16, lists: 15 }) => {}
            other => panic!("expected a host-count error, got {:?}", other.map(|_| ())),
        }
        assert_eq!(
            d.compile.switches.iter().map(|c| c.fingerprint).collect::<Vec<_>>(),
            fingerprints
        );
        assert!(d.network.switches.iter().map(|s| s.pipeline()).eq(pipelines.iter()));
        assert_eq!(d.next_epoch, next_epoch);
        assert!(matches!(
            ctrl.deploy(net, &subs),
            Err(DeployError::HostCount { hosts: 16, lists: 15 })
        ));
    }

    #[test]
    fn multicast_to_multiple_pods_no_duplicates() {
        let net = paper_fat_tree();
        // Hosts 3 (pod 0), 7 (pod 1), 12 (pod 3) subscribe.
        let subs = subs(&net, |h| if [3, 7, 12].contains(&h) { vec!["price > 5"] } else { vec![] });
        for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
            let mut d = controller(policy).deploy(net.clone(), &subs).unwrap();
            d.network.publish(0, googl_packet(10), 0);
            d.network.run(None);
            for h in [3usize, 7, 12] {
                assert_eq!(d.network.deliveries(h).len(), 1, "{policy:?} host {h}");
            }
            let total: usize = (0..16).map(|h| d.network.deliveries(h).len()).sum();
            assert_eq!(total, 3, "{policy:?}: no duplicate deliveries");
        }
    }

    #[test]
    fn non_matching_messages_do_not_leave_tor() {
        let net = paper_fat_tree();
        let subs = subs(&net, |h| if h == 1 { vec!["price > 100"] } else { vec![] });
        // TR: a price-10 message from host 0 dies at ToR 0.
        let mut d = controller(Policy::TrafficReduction).deploy(net.clone(), &subs).unwrap();
        d.network.publish(0, googl_packet(10), 0);
        d.network.run(None);
        assert_eq!(delivered(&d.network), 0);
        let stats = d.network.stats();
        assert_eq!(stats.layer_messages(&net, 1), 0, "nothing at agg layer");
        assert_eq!(stats.layer_messages(&net, 2), 0, "nothing at core layer");
    }

    #[test]
    fn mr_policy_sends_everything_up() {
        let net = paper_fat_tree();
        let subs = subs(&net, |h| if h == 1 { vec!["price > 100"] } else { vec![] });
        let mut d = controller(Policy::MemoryReduction).deploy(net.clone(), &subs).unwrap();
        d.network.publish(0, googl_packet(10), 0);
        d.network.run(None);
        assert_eq!(delivered(&d.network), 0);
        // The message still ascended (MR's F_up = true).
        assert!(d.network.stats().layer_messages(&net, 0) > 0);
    }

    #[test]
    fn same_tor_delivery_stays_local() {
        let net = paper_fat_tree();
        let subs = subs(&net, |h| if h == 1 { vec!["stock == GOOGL"] } else { vec![] });
        let mut d = controller(Policy::TrafficReduction).deploy(net.clone(), &subs).unwrap();
        d.network.publish(0, googl_packet(10), 0);
        d.network.run(None);
        assert_eq!(d.network.deliveries(1).len(), 1);
        // Host 0 and 1 share ToR 0: two link hops, no agg/core traffic.
        assert_eq!(d.network.stats().layer_messages(&net, 1), 0);
        assert_eq!(d.network.stats().layer_messages(&net, 2), 0);
    }

    #[test]
    fn per_message_pruning_across_network() {
        let net = paper_fat_tree();
        let subs = subs(&net, |h| match h {
            5 => vec!["stock == GOOGL"],
            9 => vec!["stock == MSFT"],
            _ => vec![],
        });
        let mut d = controller(Policy::TrafficReduction).deploy(net.clone(), &subs).unwrap();
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec)
            .message(vec![("stock", Value::from("GOOGL")), ("price", Value::Int(1))])
            .message(vec![("stock", Value::from("MSFT")), ("price", Value::Int(2))])
            .message(vec![("stock", Value::from("FB")), ("price", Value::Int(3))])
            .build();
        d.network.publish(0, pkt, 0);
        d.network.run(None);
        let h5 = d.network.deliveries(5);
        assert_eq!(h5.len(), 1);
        assert_eq!(h5[0].values["stock"], Value::from("GOOGL"));
        let h9 = d.network.deliveries(9);
        assert_eq!(h9.len(), 1);
        assert_eq!(h9[0].values["stock"], Value::from("MSFT"));
    }

    #[test]
    fn reconfigure_switches_subscriptions() {
        let net = paper_fat_tree();
        let sub_a = subs(&net, |h| if h == 2 { vec!["stock == GOOGL"] } else { vec![] });
        let sub_b = subs(&net, |h| if h == 2 { vec!["stock == MSFT"] } else { vec![] });
        let ctrl = controller(Policy::TrafficReduction);
        let mut d = ctrl.deploy(net.clone(), &sub_a).unwrap();
        d.network.publish(0, googl_packet(10), 0);
        d.network.run(None);
        assert_eq!(d.network.deliveries(2).len(), 1);
        // Reconfigure: GOOGL no longer interesting.
        let elapsed = ctrl.repair(&mut d, &sub_b, &mut PerfectChannel).unwrap().compile_elapsed;
        assert!(elapsed.as_nanos() > 0);
        d.network.publish(0, googl_packet(10), 1_000_000);
        d.network.run(None);
        assert_eq!(d.network.deliveries(2).len(), 1, "no new GOOGL delivery");
    }

    #[test]
    fn reconfigure_recompiles_only_distribution_path() {
        // One host's subscription changes: under MR (up-filters are
        // constant True) only the switches that carry that host's
        // down-path filters — its access ToR, designated agg, and the
        // cores above it — can change, so everything else must be
        // reused from the previous compile.
        let net = paper_fat_tree();
        let host = 5;
        let base = subs(&net, |h| if h % 3 == 0 { vec!["price > 10"] } else { vec![] });
        let mut changed = base.clone();
        changed[host] = vec![parse_expr("stock == MSFT").unwrap()];

        let ctrl = controller(Policy::MemoryReduction);
        let mut d = ctrl.deploy(net.clone(), &base).unwrap();
        assert_eq!(d.compile.reused, 0, "initial deploy compiles everything");
        ctrl.repair(&mut d, &changed, &mut PerfectChannel).unwrap();

        // Distribution path: the designated chain plus every core the
        // chain's agg can ascend to.
        let chain = net.designated_chain(host);
        let agg = chain[1];
        let mut path: std::collections::HashSet<usize> = chain.iter().copied().collect();
        path.extend(net.switches[agg].up.iter().map(|(core, _)| *core));

        let recompiled: std::collections::HashSet<usize> =
            d.compile.switches.iter().filter(|s| !s.reused).map(|s| s.switch).collect();
        assert!(!recompiled.is_empty(), "the changed host's path must recompile");
        assert!(
            recompiled.is_subset(&path),
            "recompiled {recompiled:?} not within distribution path {path:?}"
        );
        assert_eq!(
            d.compile.reused,
            net.switch_count() - recompiled.len(),
            "every off-path switch is reused"
        );
        assert!(d.compile.reused >= net.switch_count() - path.len());

        // The incrementally reconfigured network still behaves like a
        // fresh deployment of the new subscription set.
        let spec = itch_spec();
        let msft = PacketBuilder::new(&spec)
            .message(vec![("stock", Value::from("MSFT")), ("price", Value::Int(7))])
            .build();
        d.network.publish(0, msft, 0);
        d.network.run(None);
        assert_eq!(d.network.deliveries(host).len(), 1);
    }

    #[test]
    fn reconfigure_delta_matches_fresh_deploy_through_churn() {
        // Drive a deployment through a sequence of subscription changes
        // with the delta-maintained compile path (plan, delta-compile,
        // install — the stages `camus-service` runs) and check after
        // every round that the installed pipelines have the fingerprints
        // a fresh deploy of the same subscriptions installs. Delta and
        // scratch tables can differ in size in general; on these rounds
        // they happen not to, and the entry counts pin that.
        let net = paper_fat_tree();
        let ctrl = controller(Policy::MemoryReduction);
        let rounds: Vec<Vec<Vec<Expr>>> = vec![
            subs(&net, |h| if h % 2 == 0 { vec!["price > 10"] } else { vec![] }),
            subs(&net, |h| match h {
                5 => vec!["stock == MSFT", "price > 10"],
                h if h % 2 == 0 => vec!["price > 10"],
                _ => vec![],
            }),
            subs(&net, |h| match h {
                5 => vec!["stock == MSFT"],
                15 => vec!["stock == GOOGL"],
                h if h % 2 == 0 => vec!["price > 10"],
                _ => vec![],
            }),
            subs(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] }),
        ];

        let mut cache = DeltaCache::new();
        let mut d = ctrl.deploy(net.clone(), &rounds[0]).unwrap();
        let mut delta_hits = 0;
        for round in &rounds[1..] {
            let routing = ctrl.plan_routing(&net, round, &FaultMask::default());
            let compile =
                ctrl.compile_routing_delta(&routing, Some(&d.compile), &mut cache).unwrap();
            ctrl.install(&mut d, routing, compile, 0, &mut PerfectChannel).unwrap();
            delta_hits += d.compile.reused;
            let oracle = ctrl.deploy(net.clone(), round).unwrap();
            for (got, want) in d.compile.switches.iter().zip(oracle.compile.switches.iter()) {
                assert_eq!(got.fingerprint, want.fingerprint, "switch {}", got.switch);
                assert_eq!(
                    got.compiled.report.total_entries, want.compiled.report.total_entries,
                    "switch {}: entry count moved on this fixed churn",
                    got.switch
                );
            }
        }
        assert!(delta_hits > 0, "churn this local must reuse off-path switches");
        assert!(!cache.is_empty(), "live fingerprints stay cached across rounds");

        // The delta-reconfigured network forwards like a fresh deploy.
        d.network.publish(0, googl_packet(10), 0);
        d.network.run(None);
        assert_eq!(d.network.deliveries(15).len(), 1);
        assert_eq!(delivered(&d.network), 1);
    }

    #[test]
    fn installed_programs_carry_the_report_of_their_pipeline() {
        // The install admits each program by its compile's report
        // instead of recomputing it; that is sound only while the
        // report is what `Program::build` would compute from the
        // pipeline under the spec's field widths — after a deploy and
        // after every delta-compiled round, multicast groups included.
        let net = paper_fat_tree();
        let ctrl = controller(Policy::TrafficReduction);
        let widths = ctrl.statics.spec.field_widths();
        let check = |d: &Deployment, round: usize| {
            for (s, sw) in d.network.switches.iter().enumerate() {
                let pipeline = sw.pipeline();
                let recomputed = camus_core::resources::report(
                    pipeline,
                    pipeline.multicast_group_count(),
                    &widths,
                );
                assert_eq!(sw.program().report(), &recomputed, "round {round} switch {s}");
            }
        };
        let rounds: Vec<Vec<Vec<Expr>>> = vec![
            subs(&net, |h| match h % 3 {
                0 => vec!["stock == GOOGL", "price > 10"],
                1 => vec!["stock == GOOGL and price < 100"],
                _ => vec![],
            }),
            subs(&net, |h| match h % 3 {
                0 => vec!["stock == GOOGL", "price > 20"],
                1 => vec!["stock == MSFT or price > 50"],
                _ => vec!["price > 10"],
            }),
            subs(&net, |h| if h < 4 { vec!["stock == GOOGL"] } else { vec![] }),
        ];
        let mut d = ctrl.deploy(net.clone(), &rounds[0]).unwrap();
        assert!(
            d.network.switches.iter().any(|sw| sw.pipeline().multicast_group_count() > 0),
            "some switch must replicate for the group count to be checked"
        );
        check(&d, 0);
        let mut cache = DeltaCache::new();
        for (round, hosts) in rounds.iter().enumerate().skip(1) {
            let routing = ctrl.plan_routing(&net, hosts, &FaultMask::default());
            let compile =
                ctrl.compile_routing_delta(&routing, Some(&d.compile), &mut cache).unwrap();
            ctrl.install(&mut d, routing, compile, 0, &mut PerfectChannel).unwrap();
            check(&d, round);
        }
    }

    #[test]
    fn reconfigure_with_identical_subs_reuses_everything() {
        let net = paper_fat_tree();
        let s = subs(&net, |h| if h == 3 { vec!["price > 1"] } else { vec![] });
        let ctrl = controller(Policy::TrafficReduction);
        let mut d = ctrl.deploy(net.clone(), &s).unwrap();
        ctrl.repair(&mut d, &s, &mut PerfectChannel).unwrap();
        assert_eq!(d.compile.recompiled, 0);
        assert_eq!(d.compile.reused, net.switch_count());
    }

    #[test]
    fn ascent_self_heals_before_repair() {
        // Fail the publisher ToR's designated up link. The masked
        // designation falls over to the sibling agg, and under MR every
        // core carries the subscriber's filters, so delivery survives
        // with no controller involvement at all.
        let net = paper_fat_tree();
        let subs = subs(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        let mut d = controller(Policy::MemoryReduction).deploy(net.clone(), &subs).unwrap();
        let tor = net.access[0].0;
        let (agg, port) = net.switches[tor].up[0];
        assert!(d.network.fail_link(agg, port));
        d.network.publish(0, googl_packet(10), 0);
        d.network.run(None);
        assert_eq!(d.network.deliveries(15).len(), 1);
        assert_eq!(delivered(&d.network), 1, "still duplicate-free");
    }

    #[test]
    fn link_failure_on_distribution_path_repairs_incrementally() {
        let net = paper_fat_tree();
        let subs = subs(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        let ctrl = controller(Policy::TrafficReduction);
        let mut d = ctrl.deploy(net.clone(), &subs).unwrap();
        d.network.publish(0, googl_packet(10), 0);
        d.network.run(None);
        assert_eq!(d.network.deliveries(15).len(), 1);

        // Cut the designated agg -> ToR link on the subscriber's chain.
        let chain = net.designated_chain(15);
        let (tor, agg) = (chain[0], chain[1]);
        let port = net.switches[agg]
            .down
            .iter()
            .position(|t| matches!(t, DownTarget::Switch(c, _) if *c == tor))
            .unwrap() as camus_lang::ast::Port;
        assert!(d.network.fail_link(agg, port));
        d.network.publish(0, googl_packet(11), 1_000_000);
        d.network.run(None);
        assert_eq!(d.network.deliveries(15).len(), 1, "blackout until repair");

        let stats = ctrl.repair(&mut d, &subs, &mut PerfectChannel).unwrap();
        assert!(stats.reinstalled > 0, "the detour must be installed");
        assert!(stats.reused > 0, "off-path switches keep their pipelines");
        d.network.publish(0, googl_packet(12), 2_000_000);
        d.network.run(None);
        assert_eq!(d.network.deliveries(15).len(), 2, "repaired path delivers");
        assert_eq!(delivered(&d.network), 2, "nobody else hears it");

        // Repair converged to exactly what a cold deploy onto the
        // degraded topology installs: empty switches carrying the mask,
        // recovered with no logged epoch, compile every list cold.
        let switches = (0..net.switch_count())
            .map(|_| Switch::new(&ctrl.statics, Pipeline::empty(), SwitchConfig::default()))
            .collect();
        let mut cold = Network::new(net.clone(), switches);
        assert!(cold.fail_link(agg, port));
        assert_eq!(cold.fault_mask(), d.network.fault_mask());
        let (oracle, _) =
            ctrl.recover_deployment(cold, &subs, &BTreeSet::new(), 1, &mut PerfectChannel).unwrap();
        for (got, want) in d.compile.switches.iter().zip(oracle.compile.switches.iter()) {
            assert_eq!(got.fingerprint, want.fingerprint, "switch {}", got.switch);
        }

        // Restoring the link and repairing again heals back to the
        // original deployment.
        assert!(d.network.restore_link(agg, port));
        let back = ctrl.repair(&mut d, &subs, &mut PerfectChannel).unwrap();
        assert!(back.reinstalled > 0);
        let fresh = ctrl.deploy(net.clone(), &subs).unwrap();
        for (got, want) in d.compile.switches.iter().zip(fresh.compile.switches.iter()) {
            assert_eq!(got.fingerprint, want.fingerprint, "switch {}", got.switch);
        }
    }

    #[test]
    fn publishing_through_dead_tor_is_dropped_and_recorded() {
        let net = paper_fat_tree();
        let subs = subs(&net, |h| if h == 15 { vec!["price > 0"] } else { vec![] });
        let ctrl = controller(Policy::TrafficReduction);
        let mut d = ctrl.deploy(net.clone(), &subs).unwrap();
        let tor = net.access[0].0;
        assert!(d.network.crash_switch(tor));
        d.network.publish(0, googl_packet(10), 0);
        d.network.run(None);
        assert_eq!(delivered(&d.network), 0);
        assert_eq!(d.network.stats().fault_drops, 1);
        // The other host on the dead ToR is unreachable, but a repair
        // keeps everyone else consistent: host 2 (pod 0, other ToR) can
        // still reach host 15.
        ctrl.repair(&mut d, &subs, &mut PerfectChannel).unwrap();
        d.network.publish(2, googl_packet(10), 1_000_000);
        d.network.run(None);
        assert_eq!(d.network.deliveries(15).len(), 1);
        // Restore heals completely.
        assert!(d.network.restore_switch(tor));
        ctrl.repair(&mut d, &subs, &mut PerfectChannel).unwrap();
        d.network.publish(0, googl_packet(10), 2_000_000);
        d.network.run(None);
        assert_eq!(d.network.deliveries(15).len(), 2);
    }

    #[test]
    fn bounded_run_leaves_pending_events() {
        let net = paper_fat_tree();
        let subs = subs(&net, |_| vec!["price > 0"]);
        let mut d = controller(Policy::TrafficReduction).deploy(net.clone(), &subs).unwrap();
        d.network.publish(0, googl_packet(10), 0);
        d.network.run(Some(1)); // 1 ns horizon: nothing can complete
        assert_eq!(delivered(&d.network), 0);
        d.network.run(None);
        assert!(delivered(&d.network) > 0, "the held events run on");
    }

    /// A channel that eats every op of one kind to one switch; every
    /// other op is delivered.
    struct DeadOp {
        switch: usize,
        op: Option<ControlOp>,
    }

    impl ControlChannel for DeadOp {
        fn attempt(&mut self, switch: usize, op: ControlOp, _attempt: u32) -> ChannelOutcome {
            if switch == self.switch && self.op.is_none_or(|o| o == op) {
                ChannelOutcome::Dropped
            } else {
                ChannelOutcome::Delivered
            }
        }
    }

    fn msft_packet(price: i64) -> camus_dataplane::Packet {
        let spec = itch_spec();
        PacketBuilder::new(&spec)
            .message(vec![("stock", Value::from("MSFT")), ("price", Value::Int(price))])
            .build()
    }

    #[test]
    fn admission_rejection_names_offenders_and_preserves_delivery() {
        let net = paper_fat_tree();
        let tor = net.designated_chain(15)[0];
        let mut ctrl = controller(Policy::TrafficReduction);
        // The ToR has no TCAM: equality filters fit, ranges do not.
        ctrl.budget_overrides
            .insert(tor, ResourceBudget { max_tcam_entries: 0, ..ResourceBudget::unlimited() });
        ctrl.degrade_over_budget = false;

        let old = subs(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        let mut d = ctrl.deploy(net.clone(), &old).unwrap();

        // A range filter needs TCAM on the ToR: the deploy must be
        // rejected naming that switch, with a budget violation inside.
        let new =
            subs(&net, |h| if h == 15 { vec!["stock == GOOGL", "price > 5"] } else { vec![] });
        let before_fp: Vec<u64> = d.compile.switches.iter().map(|s| s.fingerprint).collect();
        match ctrl.repair(&mut d, &new, &mut PerfectChannel) {
            Err(DeployError::Admission { rejected, report }) => {
                assert!(rejected.iter().any(|(s, _)| *s == tor), "must name the ToR");
                for (_, e) in &rejected {
                    assert!(matches!(e, InstallError::OverBudget(_)));
                }
                let entry = report.switches.iter().find(|e| e.switch == tor).unwrap();
                assert!(matches!(entry.verdict, AdmissionVerdict::Rejected(_)));
                assert_eq!(report.committed(), 0, "nothing may commit");
            }
            other => panic!("expected admission rejection, got {other:?}"),
        }
        // The rejected deploy left the old program running everywhere.
        let after_fp: Vec<u64> = d.compile.switches.iter().map(|s| s.fingerprint).collect();
        assert_eq!(before_fp, after_fp);
        d.network.publish(0, googl_packet(10), 0);
        d.network.publish(0, msft_packet(10), 100);
        d.network.run(None);
        // Old subscription still delivers; the half-deployed new one
        // must not (price > 5 would also match the MSFT packet).
        assert_eq!(d.network.deliveries(15).len(), 1);
        assert_eq!(d.network.deliveries(15)[0].values["stock"], Value::from("GOOGL"));
    }

    #[test]
    fn over_budget_switch_degrades_to_coarse_overdelivery() {
        let net = paper_fat_tree();
        let tor = net.designated_chain(15)[0];
        let mut ctrl = controller(Policy::TrafficReduction);
        ctrl.budget_overrides
            .insert(tor, ResourceBudget { max_tcam_entries: 0, ..ResourceBudget::unlimited() });

        // Host 14 shares the ToR with host 15, so its messages meet
        // only the degraded switch on the way.
        let subs = subs(&net, |h| if h == 15 { vec!["price > 5"] } else { vec![] });
        let d0 = ctrl.deploy(net.clone(), &subs);
        let mut d = d0.unwrap();
        assert!(d.degraded.contains(&tor), "the ToR must be degraded");
        let degraded: Vec<usize> = d
            .report
            .switches
            .iter()
            .filter(|s| s.verdict == AdmissionVerdict::Degraded)
            .map(|s| s.switch)
            .collect();
        assert_eq!(degraded, vec![tor]);

        d.network.publish(14, googl_packet(10), 0); // matches price > 5
        d.network.publish(14, googl_packet(2), 100); // does not match
        d.network.run(None);
        // The coarse pipeline over-delivers: host 15 receives both the
        // matching and the non-matching message, and nobody else
        // receives anything.
        assert_eq!(d.network.deliveries(15).len(), 2);
        for h in 0..net.host_count() {
            if h != 15 {
                assert!(d.network.deliveries(h).is_empty(), "host {h} must stay silent");
            }
        }

        // Lifting the budget and repairing restores the precise
        // pipeline: a later non-matching message is filtered again.
        ctrl.budget_overrides.clear();
        let mut fixed = ctrl.deploy(net.clone(), &subs).unwrap();
        assert!(fixed.degraded.is_empty());
        fixed.network.publish(14, googl_packet(2), 0);
        fixed.network.run(None);
        assert!(fixed.network.deliveries(15).is_empty());
    }

    #[test]
    fn cold_deploy_equals_empty_deploy_plus_the_three_stages() {
        // A cold deploy is nothing but the first transaction on booted
        // switches, so booting with no subscriptions and then driving
        // plan → compile → install by hand must land in the same place:
        // same installed pipelines, same degraded set, same deliveries,
        // one epoch further on.
        for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
            let net = paper_fat_tree();
            let tor = net.designated_chain(15)[0];
            let mut ctrl = controller(policy);
            ctrl.budget_overrides
                .insert(tor, ResourceBudget { max_tcam_entries: 0, ..ResourceBudget::unlimited() });
            let wanted = subs(&net, |h| match h {
                15 => vec!["price > 5"],
                h if h % 3 == 0 => vec!["stock == GOOGL"],
                _ => vec![],
            });

            let mut cold = ctrl.deploy(net.clone(), &wanted).unwrap();
            let mut staged = ctrl.deploy(net.clone(), &subs(&net, |_| vec![])).unwrap();
            assert!(staged.degraded.is_empty(), "{policy:?}: nothing to reject yet");
            let routing = ctrl.plan_routing(&net, &wanted, &FaultMask::default());
            let compile = ctrl
                .compile_routing_delta(&routing, Some(&staged.compile), &mut DeltaCache::new())
                .unwrap();
            ctrl.install(&mut staged, routing, compile, 0, &mut PerfectChannel).unwrap();

            for (a, b) in cold.network.switches.iter().zip(&staged.network.switches) {
                assert_eq!(a.pipeline(), b.pipeline(), "{policy:?}");
                assert_eq!(b.staged_epoch(), None);
            }
            assert_eq!(cold.degraded, BTreeSet::from([tor]), "{policy:?}");
            assert_eq!(staged.degraded, cold.degraded, "{policy:?}");
            assert_eq!((cold.next_epoch, staged.next_epoch), (2, 3), "one epoch per transaction");
            for d in [&mut cold, &mut staged] {
                d.network.publish(14, googl_packet(10), 0);
                d.network.publish(1, msft_packet(2), 100);
                d.network.run(None);
            }
            for h in 0..net.host_count() {
                assert_eq!(
                    cold.network.deliveries(h).len(),
                    staged.network.deliveries(h).len(),
                    "{policy:?} host {h}"
                );
            }
            assert!(delivered(&cold.network) > 1, "{policy:?}: probes must land");
        }
    }

    #[test]
    fn exhausted_stage_op_rolls_the_transaction_back() {
        let net = paper_fat_tree();
        let tor = net.designated_chain(15)[0];
        let ctrl = controller(Policy::TrafficReduction);
        let old = subs(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        let mut d = ctrl.deploy(net.clone(), &old).unwrap();

        let new =
            subs(&net, |h| if h == 15 { vec!["stock == GOOGL", "stock == MSFT"] } else { vec![] });
        let before_fp: Vec<u64> = d.compile.switches.iter().map(|s| s.fingerprint).collect();
        let mut dead = DeadOp { switch: tor, op: Some(ControlOp::Stage) };
        match ctrl.repair(&mut d, &new, &mut dead) {
            Err(DeployError::Channel { failed, report }) => {
                assert_eq!(failed, vec![tor]);
                let entry = report.switches.iter().find(|e| e.switch == tor).unwrap();
                assert_eq!(entry.attempts, MAX_ATTEMPTS);
                assert_eq!(entry.retries, MAX_ATTEMPTS - 1);
                assert!(!entry.staged && !entry.committed);
                assert_eq!(entry.verdict, AdmissionVerdict::Unreachable);
                assert!(entry.control_ns() > 0, "timeouts and backoff must cost time");
                assert_eq!(report.committed(), 0);
                // The ledger shows the final state: nothing is left
                // staged or committed, every switch staged before the
                // ToR was rolled back, and none after it was touched.
                let at = report.switches.iter().position(|e| e.switch == tor).unwrap();
                assert!(at > 0, "the ToR must not be the first switch staged");
                for (i, e) in report.switches.iter().enumerate() {
                    assert!(!e.staged && !e.committed, "switch {} left staged", e.switch);
                    assert_eq!(e.rolled_back, i < at, "switch {}", e.switch);
                }
            }
            other => panic!("expected channel failure, got {other:?}"),
        }
        let after_fp: Vec<u64> = d.compile.switches.iter().map(|s| s.fingerprint).collect();
        assert_eq!(before_fp, after_fp, "failed repair must keep the old compile state");

        d.network.publish(0, msft_packet(10), 0);
        d.network.publish(0, googl_packet(10), 100);
        d.network.run(None);
        assert_eq!(d.network.deliveries(15).len(), 1, "only the old subscription delivers");
    }

    #[test]
    fn exhausted_commit_op_reverts_committed_switches() {
        let net = paper_fat_tree();
        let tor = net.designated_chain(15)[0];
        let ctrl = controller(Policy::TrafficReduction);
        let old = subs(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        let mut d = ctrl.deploy(net.clone(), &old).unwrap();

        let new =
            subs(&net, |h| if h == 15 { vec!["stock == GOOGL", "stock == MSFT"] } else { vec![] });
        // Stages land everywhere, but the ToR never acks its commit:
        // switches committed before it must be reverted.
        let mut dead = DeadOp { switch: tor, op: Some(ControlOp::Commit) };
        match ctrl.repair(&mut d, &new, &mut dead) {
            Err(DeployError::Channel { failed, report }) => {
                assert_eq!(failed, vec![tor]);
                let entry = report.switches.iter().find(|e| e.switch == tor).unwrap();
                // The ledger reflects final state: the stage was
                // rolled back, so nothing is left staged or committed.
                assert!(!entry.staged && !entry.committed && entry.rolled_back);
                // Every touched switch was rolled back, none left
                // staged or committed.
                for e in &report.switches {
                    assert!(!e.committed, "switch {} left committed", e.switch);
                    assert!(e.rolled_back || e.verdict == AdmissionVerdict::Unreachable);
                }
            }
            other => panic!("expected channel failure, got {other:?}"),
        }
        d.network.publish(0, msft_packet(10), 0);
        d.network.publish(0, googl_packet(10), 100);
        d.network.run(None);
        assert_eq!(d.network.deliveries(15).len(), 1, "reverted network forwards as before");

        // The same repair over a healthy channel then succeeds and the
        // new subscription goes live.
        ctrl.repair(&mut d, &new, &mut PerfectChannel).unwrap();
        d.network.publish(0, msft_packet(10), 1_000_000);
        d.network.run(None);
        assert_eq!(d.network.deliveries(15).len(), 2);
    }

    /// Delivers every op, but cannot log a commit decision.
    struct Undecided;

    impl ControlChannel for Undecided {
        fn attempt(&mut self, _switch: usize, _op: ControlOp, _attempt: u32) -> ChannelOutcome {
            ChannelOutcome::Delivered
        }

        fn commit_point(&mut self, _epoch: u64) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn an_unlogged_commit_decision_aborts_every_stage() {
        let net = paper_fat_tree();
        let ctrl = controller(Policy::TrafficReduction);
        let old = subs(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        let mut d = ctrl.deploy(net.clone(), &old).unwrap();

        let new =
            subs(&net, |h| if h == 15 { vec!["stock == GOOGL", "stock == MSFT"] } else { vec![] });
        match ctrl.repair(&mut d, &new, &mut Undecided) {
            Err(DeployError::CommitPoint { epoch, report, .. }) => {
                assert_eq!(epoch, 2);
                assert!(!report.switches.is_empty());
                for e in &report.switches {
                    assert!(!e.staged && !e.committed && e.rolled_back, "switch {}", e.switch);
                }
            }
            other => panic!("expected an unlogged decision, got {other:?}"),
        }
        assert!(d.network.switches.iter().all(|s| s.staged_epoch().is_none()));
        d.network.publish(0, msft_packet(10), 0);
        d.network.publish(0, googl_packet(10), 100);
        d.network.run(None);
        assert_eq!(d.network.deliveries(15).len(), 1, "only the old subscription delivers");
    }

    #[test]
    fn postcards_trace_delivery_and_flag_blackholes() {
        use camus_telemetry::{Anomaly, SampleRate};
        let net = paper_fat_tree();
        let ctrl = controller(Policy::TrafficReduction);
        let subs = subs(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        let mut d = ctrl.deploy(net.clone(), &subs).unwrap();
        d.network.attach_telemetry(SampleRate::always());

        let id = d.network.publish(0, googl_packet(10), 0).expect("sampled");
        d.network.collector_mut().unwrap().expect(id, 0, &[15]);
        d.network.run(None);
        let c = d.network.collector().unwrap();
        let g = c.group(id).unwrap();
        assert_eq!(g.delivered_hosts().into_iter().collect::<Vec<_>>(), vec![15]);
        assert_eq!(g.deliveries, vec![(15, d.network.deliveries(15)[0].time_ns)]);
        // Host 0 (pod 0) to host 15 (pod 3) crosses the core: the one
        // delivered path is ToR→agg→core→agg→ToR, five switch hops.
        let delivered: Vec<usize> = g
            .completed
            .iter()
            .filter(|(_, end)| end.delivered_host().is_some())
            .map(|(card, _)| card.path_len())
            .collect();
        assert_eq!(delivered, vec![5]);
        assert!(c.anomalies().is_empty(), "{:?}", c.anomalies());

        // Cut the subscriber's access link: the next traced packet dies
        // mid-network and the collector calls it a blackhole (and never
        // a loop — the postcard path has no repeated switch).
        let (tor, port) = net.access[15];
        d.network.fail_link(tor, port);
        let id2 = d.network.publish(0, googl_packet(11), 1_000).expect("sampled");
        d.network.collector_mut().unwrap().expect(id2, 1_000, &[15]);
        d.network.run(None);
        let c = d.network.collector().unwrap();
        assert!(
            matches!(&c.anomalies()[..], [Anomaly::Blackhole { id, missing, .. }] if *id == id2 && missing[..] == [15]),
            "{:?}",
            c.anomalies()
        );
    }

    /// Deterministic flaky channel: the outcome of every attempt is a
    /// pure hash of (seed, switch, op, attempt), so two runs with the
    /// same seed see identical loss and two seeds see different loss.
    struct HashFlaky {
        seed: u64,
    }

    impl ControlChannel for HashFlaky {
        fn attempt(&mut self, switch: usize, op: ControlOp, attempt: u32) -> ChannelOutcome {
            let mut h = Fnv1a(Fnv1a::OFFSET ^ self.seed);
            h.write(&(switch as u64).to_le_bytes());
            h.write(&[matches!(op, ControlOp::Commit) as u8]);
            h.write(&attempt.to_le_bytes());
            match h.finish() % 5 {
                0 => ChannelOutcome::Dropped,
                1 => ChannelOutcome::Nacked,
                _ => ChannelOutcome::Delivered,
            }
        }
    }

    #[test]
    fn same_seed_runs_produce_identical_report_timings() {
        // The modelled clock is the only time source on the control
        // path: two deploys over the same flaky schedule must produce
        // byte-identical ledgers (attempts, retries, stage/commit ns),
        // however the wall clock jitters between runs.
        let net = paper_fat_tree();
        let ctrl = controller(Policy::TrafficReduction);
        let subs = subs(&net, |h| if h % 2 == 0 { vec!["price > 10"] } else { vec![] });
        let run = |seed: u64| {
            let mut d = ctrl.deploy(net.clone(), &subs).unwrap();
            let more = self::subs(&net, |h| match h {
                3 => vec!["stock == MSFT"],
                h if h % 2 == 0 => vec!["price > 10"],
                _ => vec![],
            });
            ctrl.repair(&mut d, &more, &mut HashFlaky { seed }).unwrap();
            d.report
        };
        let a = run(0xFEED);
        let b = run(0xFEED);
        assert_eq!(a, b, "same-seed timings must be identical");
        assert!(a.total_retries() > 0, "the flaky schedule must actually retry");
        // A different loss schedule must be visible in the timings,
        // otherwise this test would pass vacuously.
        let c = run(0xBEEF);
        assert_ne!(a, c, "different seeds must produce different ledgers");
    }

    #[test]
    fn deploy_ledger_is_ordered_by_switch_index() {
        let net = paper_fat_tree();
        let ctrl = controller(Policy::TrafficReduction);
        let subs = subs(&net, |h| if h % 3 == 0 { vec!["stock == GOOGL"] } else { vec![] });
        let mut d = ctrl.deploy(net.clone(), &subs).unwrap();
        let sorted = |r: &DeployReport| r.switches.windows(2).all(|w| w[0].switch < w[1].switch);
        assert!(sorted(&d.report), "full deploy ledger out of order");
        assert_eq!(d.report.switches.len(), net.switch_count());

        // Feed the transaction a deliberately shuffled target list; the
        // ledger must come back sorted anyway.
        let shuffled: Vec<usize> = (0..net.switch_count()).rev().collect();
        let (routing, compile) = (d.routing.clone(), d.compile.clone());
        ctrl.install_on(&mut d, routing, compile, 0, &shuffled, &mut PerfectChannel).unwrap();
        assert!(sorted(&d.report), "shuffled-target ledger out of order");
        assert_eq!(d.report.switches.len(), net.switch_count());
    }

    /// Drops the first attempt of the first `Commit` op to one switch;
    /// every other attempt is delivered.
    struct FirstCommitLost {
        switch: usize,
        lost: bool,
    }

    impl ControlChannel for FirstCommitLost {
        fn attempt(&mut self, switch: usize, op: ControlOp, _attempt: u32) -> ChannelOutcome {
            if switch == self.switch && op == ControlOp::Commit && !self.lost {
                self.lost = true;
                ChannelOutcome::Dropped
            } else {
                ChannelOutcome::Delivered
            }
        }
    }

    #[test]
    fn a_commit_retry_is_paid_for_by_the_commit_phase() {
        use crate::channel::{backoff_ns, OP_NS, TIMEOUT_NS};
        let net = paper_fat_tree();
        let tor = net.designated_chain(15)[0];
        let ctrl = controller(Policy::TrafficReduction);
        let subs = subs(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        let mut d = ctrl.deploy(net.clone(), &subs).unwrap();
        // Reinstall every switch over the lossy channel.
        let targets: Vec<usize> = (0..net.switch_count()).collect();
        let (routing, compile) = (d.routing.clone(), d.compile.clone());
        let mut channel = FirstCommitLost { switch: tor, lost: false };
        ctrl.install_on(&mut d, routing, compile, 0, &targets, &mut channel).unwrap();

        let report = &d.report;
        let entry = |s: usize| report.switches.iter().find(|e| e.switch == s).unwrap();
        let (lossy, clean) = (entry(tor), entry(net.designated_chain(0)[0]));
        assert_eq!((clean.stage_ns, clean.commit_ns, clean.retries), (OP_NS, OP_NS, 0));
        // The lost commit costs its timeout and one backoff, and both
        // land in the commit phase: staging was clean.
        assert_eq!(lossy.retries, 1);
        assert_eq!(lossy.stage_ns, clean.stage_ns);
        assert_eq!(lossy.commit_ns, TIMEOUT_NS + backoff_ns(tor, 0) + OP_NS);
        assert!(lossy.committed);
        let phases: u64 = report.switches.iter().map(|e| e.stage_ns + e.commit_ns).sum();
        assert_eq!(report.total_control_ns(), phases);
    }
}
