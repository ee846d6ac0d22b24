//! The full per-packet switch path (§VI).
//!
//! Ingress extracts the packet's units — its whole batched messages, or
//! the whole stack of a spec without messages
//! ([`Framing::units`](camus_lang::spec::Framing::units)) — within the
//! parser's PHV and recirculation budget (Fig. 7, [`SwitchConfig`]),
//! and evaluates the compiled pipeline once per unit, producing a port
//! mask per unit. The crossbar then replicates the packet —
//! one copy per output port — and egress prunes from each copy the
//! messages that port's subscribers did not ask for (§VI-A; on
//! hardware the mask rides in an unused header field, here it is
//! explicit: a bit row over the program's own port table, see
//! `replicate`). Non-forward actions (`answerDNS`, custom) are
//! surfaced to the embedding application.
//!
//! Latency is modelled as a base pipeline traversal plus a penalty per
//! recirculation pass, defaulting to the paper's sub-microsecond
//! pipeline (§VIII-F).

use crate::fastpath::{EvalPlan, EvalScratch};
use crate::packet::Packet;
use crate::replicate::{Egress, PortMasks};
use crate::state::StateStore;
use crate::telemetry::SwitchTelemetry;
use camus_core::compiled::{CompiledPipeline, EvalCounters, ShapeError};
use camus_core::pipeline::Pipeline;
use camus_core::resources::{self, AdmissionError, ResourceBudget, ResourceReport};
use camus_core::statics::StaticPipeline;
use camus_lang::ast::{Action, AggFunc, Operand, Port};
use camus_lang::spec::{FieldSource, Spec};
use camus_lang::value::Value;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One pipeline traversal, in nanoseconds (§VIII-F: < 1 μs).
const BASE_LATENCY_NS: u64 = 600;
/// Extra latency per recirculation pass.
const RECIRC_LATENCY_NS: u64 = 400;

/// Hardware-model parameters.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Messages extracted per parser pass (PHV budget). Must be
    /// positive.
    pub max_msgs_per_pass: usize,
    /// Dedicated recirculation ports.
    pub recirc_ports: usize,
    /// Window for aggregates without an explicit `@counter`.
    pub default_window_us: u64,
    /// Resource budget every installed pipeline must fit (Table I).
    /// Defaults to unlimited so unbudgeted simulations never reject;
    /// the controller overrides it per switch for admission control.
    pub budget: ResourceBudget,
}

impl SwitchConfig {
    /// The deep-parsing budget of Fig. 7 applied to a packet of `units`
    /// units. The PHV holds `B = max_msgs_per_pass` messages, so the
    /// first pass extracts `B` and multicasts copies onto the `R`
    /// recirculation ports; the copy returning on port `k` skips `k·B`
    /// messages and extracts the next `B`. At most `(R + 1)·B` units
    /// are extracted; the rest are truncated.
    #[inline]
    pub(crate) fn extraction(&self, units: usize) -> Extraction {
        let extracted = units.min((self.recirc_ports + 1) * self.max_msgs_per_pass);
        Extraction {
            extracted,
            truncated: units - extracted,
            passes: extracted.div_ceil(self.max_msgs_per_pass).max(1),
        }
    }
}

/// What one packet's parse extracts ([`SwitchConfig::extraction`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extraction {
    /// Units evaluated: the first `extracted` of the packet.
    pub extracted: usize,
    /// Units past the recirculation budget, never evaluated.
    pub truncated: usize,
    /// Pipeline passes used (1 = no recirculation).
    pub passes: usize,
}

impl Extraction {
    /// Modelled latency: one traversal plus a penalty per recirculation.
    fn latency_ns(&self) -> u64 {
        BASE_LATENCY_NS + RECIRC_LATENCY_NS * (self.passes as u64 - 1)
    }

    /// Fold the parse into the counters.
    fn count(&self, stats: &mut SwitchStats) {
        stats.truncated_messages += self.truncated as u64;
        stats.recirculation_passes += (self.passes - 1) as u64;
    }
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            max_msgs_per_pass: 4,
            recirc_ports: 3,
            default_window_us: 100,
            budget: ResourceBudget::unlimited(),
        }
    }
}

/// Why an install was refused. The previous program keeps forwarding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// The compiled pipeline exceeds this switch's resource budget.
    OverBudget(AdmissionError),
    /// The pipeline leaves the compiler's table shape, so it has no
    /// lowering.
    Malformed(ShapeError),
    /// The program's slot offsets were resolved against another spec
    /// than this switch parses; running it would mis-read packets.
    SpecMismatch { switch_spec: u64, program_spec: u64 },
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::OverBudget(e) => write!(f, "{e}"),
            InstallError::Malformed(e) => write!(f, "pipeline {e}"),
            InstallError::SpecMismatch { switch_spec, program_spec } => write!(
                f,
                "program built for spec {program_spec:016x}, switch parses spec {switch_spec:016x}"
            ),
        }
    }
}

impl std::error::Error for InstallError {}

/// Identity of a spec: a program is only valid on switches parsing the
/// spec it was resolved against. In-process only (not a wire format).
fn spec_identity(spec: &Spec) -> u64 {
    let mut h = DefaultHasher::new();
    spec.hash(&mut h);
    h.finish()
}

/// A complete forwarding program: the control-plane pipeline plus
/// everything lowered from it. Immutable once built, so switches with
/// identical rule lists hold one `Arc<Program>` between them; whatever
/// a packet mutates (registers, scratch, counters, port state) lives
/// in the [`Switch`]. Built shadow-side and swapped in atomically, so a
/// failed build never disturbs forwarding.
#[derive(Debug)]
pub struct Program {
    pipeline: Pipeline,
    /// Fast-path lowering of `pipeline`.
    compiled: CompiledPipeline,
    /// Slot resolution of `compiled` against the spec.
    plan: EvalPlan,
    /// The forward set of each of `compiled`'s actions, as a bit row
    /// over the program's port table.
    masks: PortMasks,
    /// Aggregate operands appearing in the pipeline, cached.
    aggregates: Vec<(String, AggFunc, String)>, // (key, func, field)
    /// What `pipeline` costs under the spec's field widths; every
    /// switch checks it against its own budget.
    report: ResourceReport,
    /// [`spec_identity`] of the spec `plan` was resolved against.
    spec_id: u64,
}

impl Program {
    /// Lower `pipeline` and resolve it against `spec`. The result runs
    /// only on switches built from the same spec. A pipeline outside
    /// the compiler's table shape is [`InstallError::Malformed`].
    pub fn build(spec: &Spec, pipeline: Pipeline) -> Result<Program, InstallError> {
        let report =
            resources::report(&pipeline, pipeline.multicast_group_count(), &spec.field_widths());
        Program::with_report(spec, pipeline, report)
    }

    /// [`Program::build`] with the pipeline's resource report already
    /// in hand — the one the compiler computed for it under `spec`'s
    /// field widths ([`Compiled::report`](camus_core::compiler::Compiled::report))
    /// — instead of recomputing it.
    pub fn with_report(
        spec: &Spec,
        pipeline: Pipeline,
        report: ResourceReport,
    ) -> Result<Program, InstallError> {
        let aggregates = pipeline
            .stages
            .iter()
            .filter_map(|s| match &s.operand {
                Operand::Aggregate { func, field } => Some((s.operand.key(), *func, field.clone())),
                Operand::Field(_) => None,
            })
            .collect();
        let compiled = CompiledPipeline::try_lower(&pipeline).map_err(InstallError::Malformed)?;
        let plan = EvalPlan::build(spec, &compiled, &pipeline);
        let masks = PortMasks::build(compiled.actions());
        Ok(Program {
            pipeline,
            compiled,
            plan,
            masks,
            aggregates,
            report,
            spec_id: spec_identity(spec),
        })
    }

    /// The program's port table: the distinct ports its forward actions
    /// name, ascending. Port masks are bit rows over it.
    pub fn ports(&self) -> &[Port] {
        self.masks.ports()
    }

    /// The resource usage switches admit this program by.
    pub fn report(&self) -> &ResourceReport {
        &self.report
    }
}

/// Running counters exposed for the evaluation: the switch's exact
/// totals, bumped on every packet, and the one count of each fact.
///
/// Cache-line aligned so per-shard switches laid out contiguously (the
/// sharded throughput driver owns one `Switch` per shard) never share a
/// line of hot counters between cores — false sharing on these would
/// serialise the very scaling the shards exist to measure.
#[repr(align(64))]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    pub packets: u64,
    pub messages: u64,
    /// Packets whose geometry does not fit the spec
    /// ([`Framing::is_malformed`](camus_lang::spec::Framing::is_malformed)):
    /// a cut stack, which carries no unit and is evaluated nowhere, or
    /// a partial trailing message, which is skipped while the whole
    /// messages before it are evaluated.
    pub malformed: u64,
    /// Messages lost to resource exhaustion: past the parser's PHV and
    /// recirculation budget, never evaluated.
    pub truncated_messages: u64,
    pub recirculation_passes: u64,
    /// Messages forwarded nowhere (every target port pruned), whatever
    /// the cause — the total the per-cause counters below attribute.
    pub dropped_messages: u64,
    /// Output packet copies emitted.
    pub copies: u64,
    /// Messages dropped because no rule routed them anywhere usable:
    /// explicit `drop` actions and ingress-only matches.
    pub dropped_no_route: u64,
    /// Per-port forwarding decisions suppressed because the egress
    /// port was down. Counted per (message, port) pair, so it can
    /// exceed `dropped_messages` when a multicast message loses some
    /// ports but still leaves through others.
    pub dropped_port_down: u64,
    /// Compiled-path stage lookups that found a transition.
    pub stage_hits: u64,
    /// Compiled-path stage lookups that missed (§V-D pass-through).
    pub stage_misses: u64,
    /// Compiled-path match probes performed (binary-search steps plus
    /// linear entries touched) — attributes where evaluation time goes.
    pub entries_scanned: u64,
    /// `process_batch_indexed` invocations.
    pub batches: u64,
    /// Packets processed through `process_batch_indexed` (with
    /// `batches`, the mean batch size).
    pub batched_packets: u64,
    /// Output copies that share an existing buffer: the input's (no
    /// message pruned) or an identical pruned copy's (another port keeps
    /// the same messages). An `Arc` bump, not a byte copy.
    pub shared_copies: u64,
    /// Output copies that materialised a pruned buffer: one per distinct
    /// kept-message set of a packet that is not the whole packet.
    pub deep_copies: u64,
}

impl SwitchStats {
    /// Fold another switch's counters into this one — the reduction the
    /// sharded throughput driver applies across per-shard switches.
    pub fn merge(&mut self, other: &SwitchStats) {
        self.packets += other.packets;
        self.messages += other.messages;
        self.malformed += other.malformed;
        self.truncated_messages += other.truncated_messages;
        self.recirculation_passes += other.recirculation_passes;
        self.dropped_messages += other.dropped_messages;
        self.copies += other.copies;
        self.dropped_no_route += other.dropped_no_route;
        self.dropped_port_down += other.dropped_port_down;
        self.stage_hits += other.stage_hits;
        self.stage_misses += other.stage_misses;
        self.entries_scanned += other.entries_scanned;
        self.batches += other.batches;
        self.batched_packets += other.batched_packets;
        self.shared_copies += other.shared_copies;
        self.deep_copies += other.deep_copies;
    }

    /// The counters that describe *what was forwarded*, with the
    /// batching-shape counters (`batches`, `batched_packets`) zeroed.
    /// Drivers with different chunk sizes legitimately disagree on
    /// those two while forwarding identically; this is the projection
    /// the shard-sum differential tests compare.
    pub fn forwarding_stats(&self) -> SwitchStats {
        SwitchStats { batches: 0, batched_packets: 0, ..*self }
    }
}

/// The result of processing one packet.
#[derive(Debug, Clone, Default)]
pub struct SwitchOutput {
    /// One (port, pruned copy) per output port.
    pub ports: Vec<(Port, Packet)>,
    /// Non-forward actions raised by messages: `(message index, action)`.
    pub actions: Vec<(usize, Action)>,
    /// Modelled processing latency.
    pub latency_ns: u64,
    /// Parser passes used.
    pub passes: usize,
}

/// A switch loaded with an application and a compiled pipeline.
#[derive(Debug, Clone)]
pub struct Switch {
    /// The application spec this switch parses.
    spec: Spec,
    /// [`spec_identity`] of `spec`.
    spec_id: u64,
    /// The live forwarding program, possibly shared with twins.
    program: Arc<Program>,
    /// Shadow-side program staged by [`stage`](Self::stage), awaiting
    /// commit, tagged with the install transaction's epoch so a
    /// recovering controller can tell *which* transaction left it
    /// behind. Never touches the data path.
    staged: Option<(u64, Arc<Program>)>,
    /// Epoch of the last commit that has not been finalised or
    /// reverted — the other half of the reconciliation handshake.
    committed_epoch: Option<u64>,
    /// The program displaced by the last commit, retained until
    /// [`finalize_install`](Self::finalize_install) so a network-wide
    /// transaction can still revert this switch.
    retired: Option<Arc<Program>>,
    /// Reusable per-message slot values.
    scratch: EvalScratch,
    /// `port_down` as a row of the live program's port table, plus the
    /// scratch replication reuses across packets.
    egress: Egress,
    state: StateStore,
    config: SwitchConfig,
    stats: SwitchStats,
    /// Egress ports currently marked down (fault model): forwarding
    /// decisions towards them are suppressed and counted.
    port_down: HashSet<Port>,
    /// Optional sampling; `None` keeps the fast path free
    /// of even the sampler tick. Boxed so the common case stays one
    /// pointer in the hot struct.
    telemetry: Option<Box<SwitchTelemetry>>,
    /// Evaluation counters of the most recent [`process`](Self::process)
    /// call, for the simulator to copy into packet postcards.
    last_eval: EvalCounters,
}

impl Switch {
    /// Build from the static pipeline (application) and a dynamically
    /// compiled rule pipeline. Panics if the initial pipeline is over
    /// `config.budget` — only possible once a finite budget is
    /// configured — or leaves the compiler's table shape.
    pub fn new(statics: &StaticPipeline, pipeline: Pipeline, config: SwitchConfig) -> Self {
        assert!(config.max_msgs_per_pass > 0, "PHV must hold at least one message");
        let mut state = StateStore::new(config.default_window_us);
        for reg in &statics.registers {
            state.allocate(&reg.name, reg.window_us);
        }
        let spec = statics.spec.clone();
        let program = Arc::new(Program::build(&spec, pipeline).expect("install rejected"));
        config.budget.admit(&program.report).expect("install rejected by resource budget");
        let mut scratch = EvalScratch::default();
        scratch.reset(program.compiled.slots().len());
        let mut sw = Switch {
            spec_id: program.spec_id,
            spec,
            program,
            staged: None,
            committed_epoch: None,
            retired: None,
            scratch,
            egress: Egress::default(),
            state,
            config,
            stats: SwitchStats::default(),
            port_down: HashSet::new(),
            telemetry: None,
            last_eval: EvalCounters::default(),
        };
        sw.sync_down();
        sw
    }

    /// Re-derive the down row over the live program's port table: after
    /// a port changes state and whenever the live program changes.
    fn sync_down(&mut self) {
        self.egress.set_down(&self.program.masks, &self.port_down);
    }

    /// Check `program` against this switch — its spec and its own
    /// resource budget — without touching any install state.
    pub(crate) fn admit(&self, program: &Program) -> Result<(), InstallError> {
        if program.spec_id != self.spec_id {
            return Err(InstallError::SpecMismatch {
                switch_spec: self.spec_id,
                program_spec: program.spec_id,
            });
        }
        self.config.budget.admit(&program.report).map_err(InstallError::OverBudget)
    }

    /// Phase one of an install: lower `pipeline` into a private
    /// program and stage it under transaction epoch 0 (library callers
    /// that never recover). Forwarding is untouched; on rejection — a
    /// malformed pipeline, or one this switch does not admit — nothing
    /// is staged and the previous staged program (if any) is kept.
    pub fn stage(&mut self, pipeline: Pipeline) -> Result<ResourceReport, InstallError> {
        let program = Arc::new(Program::build(&self.spec, pipeline)?);
        let report = program.report.clone();
        self.stage_epoch(program, 0)?;
        Ok(report)
    }

    /// Phase one with an explicit transaction epoch and a prebuilt,
    /// possibly shared program: admission is this switch's call alone
    /// (its spec, its budget), whoever else holds the same program.
    /// The epoch rides with the shadow program so
    /// [`staged_epoch`](Self::staged_epoch) can answer a recovering
    /// controller's "what did I leave here?".
    pub fn stage_epoch(&mut self, program: Arc<Program>, epoch: u64) -> Result<(), InstallError> {
        self.admit(&program)?;
        self.staged = Some((epoch, program));
        Ok(())
    }

    /// Phase two: atomically swap the staged program into the data
    /// path. The displaced program is retained so the commit can still
    /// be reverted until [`finalize_install`](Self::finalize_install).
    /// Returns `false` (a no-op) when nothing is staged.
    pub fn commit_staged(&mut self) -> bool {
        match self.staged.take() {
            Some((epoch, p)) => {
                self.scratch.reset(p.compiled.slots().len());
                self.retired = Some(std::mem::replace(&mut self.program, p));
                self.committed_epoch = Some(epoch);
                self.sync_down();
                true
            }
            None => false,
        }
    }

    /// Undo a not-yet-finalised commit: the retired program resumes
    /// forwarding. Returns `false` when there is nothing to revert.
    pub fn revert_committed(&mut self) -> bool {
        match self.retired.take() {
            Some(p) => {
                self.scratch.reset(p.compiled.slots().len());
                self.program = p;
                self.committed_epoch = None;
                self.sync_down();
                true
            }
            None => false,
        }
    }

    /// Discard a staged-but-uncommitted program. Returns `false` when
    /// nothing was staged.
    pub fn abort_staged(&mut self) -> bool {
        self.staged.take().is_some()
    }

    /// Make the last commit permanent by dropping the retired program.
    pub fn finalize_install(&mut self) {
        self.retired = None;
        self.committed_epoch = None;
    }

    /// Epoch of the staged-but-uncommitted program, if any — what a
    /// recovering controller interrogates to decide commit vs. abort.
    pub fn staged_epoch(&self) -> Option<u64> {
        self.staged.as_ref().map(|(e, _)| *e)
    }

    /// Epoch of a committed-but-unfinalised install, if any. A
    /// recovering controller finalises these when the commit decision
    /// was logged, and reverts them otherwise.
    pub fn unfinalized_epoch(&self) -> Option<u64> {
        self.committed_epoch
    }

    /// Atomic install outside a transaction (tests and unbudgeted
    /// simulations; dynamic reconfiguration, §VIII-G.3): stage, commit,
    /// finalize. State registers persist across reconfigurations.
    /// Panics if the pipeline is rejected — only possible once a finite
    /// budget is configured, or for a pipeline outside the compiler's
    /// table shape; a caller that must survive rejection uses
    /// [`stage`](Self::stage) and keeps forwarding on the old program.
    pub fn install(&mut self, pipeline: Pipeline) {
        self.stage(pipeline).expect("install rejected");
        self.commit_staged();
        self.finalize_install();
    }

    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    pub fn pipeline(&self) -> &Pipeline {
        &self.program.pipeline
    }

    /// The live program; twins installed from one rule list hold the
    /// same allocation.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The fast-path lowering of the installed pipeline.
    pub fn compiled(&self) -> &CompiledPipeline {
        &self.program.compiled
    }

    /// Mark an egress port up or down (link/peer failure). While a
    /// port is down, forwarding decisions towards it are suppressed
    /// and counted in [`SwitchStats::dropped_port_down`]; pipelines
    /// and state are untouched, so restoring the port resumes
    /// forwarding without a reinstall.
    pub fn set_port_down(&mut self, port: Port, down: bool) {
        if down {
            self.port_down.insert(port);
        } else {
            self.port_down.remove(&port);
        }
        self.sync_down();
    }

    /// Attach sampling to this switch, replacing any attached before.
    /// From then on every processed packet pays one sampler tick, and
    /// sampled packets bump the registry's `switch.sampled_packets`.
    pub fn attach_telemetry(&mut self, telemetry: SwitchTelemetry) {
        self.telemetry = Some(Box::new(telemetry));
    }

    /// Evaluation counters of the most recent fast-path
    /// [`process`](Self::process) call (postcard source material).
    pub fn last_eval(&self) -> EvalCounters {
        self.last_eval
    }

    /// Process a packet arriving on `ingress` at absolute time
    /// `now_us`, through the compiled fast path: slot-indexed decode
    /// straight from the packet bytes, then replication by port mask —
    /// each forwarded message's egress set is a bit row over the
    /// program's port table, and copies come out in port order. Once
    /// warm, a packet that leaves through no port allocates nothing; a
    /// forwarded one allocates its port vector plus one buffer per
    /// distinct pruned copy (a copy keeping every message shares the
    /// input buffer, and ports that keep the same messages share one
    /// pruned buffer).
    pub fn process(&mut self, pkt: &Packet, ingress: Port, now_us: u64) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        self.process_into(pkt, ingress, now_us, &mut out);
        out
    }

    /// [`process`](Self::process) into a caller-owned slot: every field
    /// of `out` is overwritten, and its `ports`/`actions` vectors are
    /// cleared but keep their capacity.
    fn process_into(&mut self, pkt: &Packet, ingress: Port, now_us: u64, out: &mut SwitchOutput) {
        let Switch { program, state, scratch, egress, config, stats, telemetry, last_eval, .. } =
            self;
        // One deref of the shared program per call; the hot loop below
        // never touches the `Arc` (or its refcount) again.
        let program: &Program = program;
        let (plan, compiled, masks) = (&program.plan, &program.compiled, &program.masks);
        stats.packets += 1;
        if plan.framing.is_malformed(pkt.len()) {
            stats.malformed += 1;
        }
        let units = plan.framing.units(pkt.len());
        let parse = config.extraction(units);
        parse.count(stats);

        out.ports.clear();
        out.actions.clear();
        out.passes = parse.passes;
        out.latency_ns = parse.latency_ns();

        let mut counters = EvalCounters::default();
        let messages = plan.framing.message.is_some();
        let mut forwarded = false;
        for index in 0..parse.extracted {
            stats.messages += 1;
            let off = messages.then(|| plan.msg_offset(index));
            let id =
                plan.eval(compiled, state, &mut scratch.values, pkt, off, now_us, &mut counters);
            // Drops and custom actions touch no mask state.
            match compiled.action(id) {
                Action::Forward(_) => {
                    if !forwarded {
                        egress.begin(masks, ingress, parse.extracted);
                        forwarded = true;
                    }
                    egress.forward(masks, id, index, stats);
                }
                Action::Drop => {
                    stats.dropped_messages += 1;
                    stats.dropped_no_route += 1;
                }
                other => out.actions.push((index, other.clone())),
            }
        }
        stats.stage_hits += counters.stage_hits;
        stats.stage_misses += counters.stage_misses;
        stats.entries_scanned += counters.entries_scanned;
        *last_eval = counters;
        if let Some(t) = telemetry.as_deref_mut() {
            t.observe();
        }
        if forwarded {
            egress.replicate(masks, plan, pkt, units, stats, &mut out.ports);
        }
    }

    /// Process a batch of `(packet, ingress)` pairs arriving together,
    /// amortising per-call overhead and feeding the batch-size
    /// counters. Packet `j` of the batch is processed at time
    /// `first_index + j`, so a driver that splits one packet stream
    /// across shards can hand each shard its *global* packet indices
    /// and every shard agrees with the sequential lanes on
    /// timestamp-keyed aggregate/window semantics. `out` ends with
    /// exactly one slot per packet, and the slots a previous batch left
    /// are overwritten in place — their `ports`/`actions` vectors
    /// cleared but keeping their capacity — so a hot loop that reuses
    /// one `out` allocates, once warm, only one buffer per distinct
    /// pruned copy of each packet. The next packet's header bytes are
    /// prefetched while the current one evaluates.
    pub fn process_batch_indexed(
        &mut self,
        pkts: &[(Packet, Port)],
        first_index: u64,
        out: &mut Vec<SwitchOutput>,
    ) {
        self.stats.batches += 1;
        self.stats.batched_packets += pkts.len() as u64;
        out.resize_with(pkts.len(), SwitchOutput::default);
        for (j, ((pkt, ingress), slot)) in pkts.iter().zip(out.iter_mut()).enumerate() {
            if let Some((next, _)) = pkts.get(j + 1) {
                crate::fastpath::prefetch_read(next.bytes.as_slice());
            }
            self.process_into(pkt, *ingress, first_index + j as u64, slot);
        }
    }

    /// The interpreted reference path: the same units and budget as
    /// [`process`](Self::process), each decoded into string-keyed maps
    /// (`Packet::message`, `Packet::stack_header`) whose fields
    /// [`Spec::locate`] names, then `Pipeline::evaluate` per unit and
    /// replication by linear scan. Semantically identical to
    /// [`process`](Self::process) (the differential tests pin this);
    /// kept for equivalence testing and as the measured baseline in the
    /// `throughput` experiment.
    pub fn process_reference(&mut self, pkt: &Packet, ingress: Port, now_us: u64) -> SwitchOutput {
        let Switch { spec, program, state, config, stats, port_down, .. } = self;
        let framing = spec.framing();
        let parse = config.extraction(framing.units(pkt.len()));
        stats.packets += 1;
        if framing.is_malformed(pkt.len()) {
            stats.malformed += 1;
        }
        parse.count(stats);
        let mut out = SwitchOutput {
            passes: parse.passes,
            latency_ns: parse.latency_ns(),
            ..Default::default()
        };

        // Per-port keep lists (the port mask of §VI-A), found by linear
        // scan: the oracle's own representation, independent of the
        // fast path's bit rows.
        let mut keep: Vec<(Port, Vec<usize>)> = Vec::new();
        let stack: HashMap<&str, HashMap<String, Value>> = spec
            .sequence
            .iter()
            .filter_map(|name| Some((name.as_str(), pkt.stack_header(spec, name)?)))
            .collect();
        for index in 0..parse.extracted {
            stats.messages += 1;
            // `None` for the stack unit of a spec without messages.
            let message = pkt.message(spec, index);
            let field = |name: &str| match spec.locate(name)? {
                FieldSource::Message(f) => message.as_ref()?.get(&f.name).cloned(),
                FieldSource::Stack { header, field, .. } => {
                    stack.get(header.name.as_str())?.get(&field.name).cloned()
                }
            };
            let action = eval_unit(program, state, field, now_us);
            apply_action(&action, index, ingress, port_down, &mut keep, stats, &mut out);
        }

        // Crossbar replication + egress pruning: one copy per port.
        keep.sort_unstable_by_key(|&(port, _)| port);
        for (port, indices) in keep {
            let copy = if spec.messages.is_some() {
                pkt.prune_messages(spec, &indices)
            } else {
                pkt.clone()
            };
            stats.copies += 1;
            out.ports.push((port, copy));
        }
        out
    }
}

/// Evaluate the interpreted pipeline on one unit, whose fields `field`
/// reads, updating aggregate registers first so each aggregate includes
/// the current observation.
fn eval_unit(
    program: &Program,
    state: &mut StateStore,
    field: impl Fn(&str) -> Option<Value>,
    now_us: u64,
) -> Action {
    let mut agg_values: HashMap<String, Value> = HashMap::new();
    for (key, func, name) in &program.aggregates {
        if let Some(Value::Int(v)) = field(name) {
            state.update(key, now_us, v);
        }
        agg_values.insert(key.clone(), Value::Int(state.read(key, now_us, *func)));
    }
    program.pipeline.evaluate(|op: &Operand| match op {
        Operand::Field(_) => field(&op.key()),
        Operand::Aggregate { .. } => agg_values.get(&op.key()).cloned(),
    })
}

/// Route one message's action into the reference path's keep lists and
/// stats.
fn apply_action(
    action: &Action,
    msg_index: usize,
    ingress: Port,
    port_down: &HashSet<Port>,
    keep: &mut Vec<(Port, Vec<usize>)>,
    stats: &mut SwitchStats,
    out: &mut SwitchOutput,
) {
    match action {
        Action::Forward(ports) => {
            let mut any = false;
            let mut suppressed_down = false;
            for &p in ports {
                if p == ingress {
                    continue;
                }
                if port_down.contains(&p) {
                    stats.dropped_port_down += 1;
                    suppressed_down = true;
                    continue;
                }
                match keep.iter_mut().find(|(q, _)| *q == p) {
                    Some((_, list)) => list.push(msg_index),
                    None => keep.push((p, vec![msg_index])),
                }
                any = true;
            }
            if !any {
                stats.dropped_messages += 1;
                // Attribute the loss once: a message that lost a down
                // port is a port-down drop (already counted above);
                // otherwise nothing routed it.
                if !suppressed_down {
                    stats.dropped_no_route += 1;
                }
            }
        }
        Action::Drop => {
            stats.dropped_messages += 1;
            stats.dropped_no_route += 1;
        }
        other => out.actions.push((msg_index, other.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBuilder;
    use camus_core::compiler::Compiler;
    use camus_core::statics::compile_static;
    use camus_lang::parser::parse_rules;
    use camus_lang::spec::itch_spec;

    fn itch_switch(rules_src: &str) -> Switch {
        let statics = compile_static(&itch_spec()).unwrap();
        let rules = parse_rules(rules_src).unwrap();
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        Switch::new(&statics, compiled.pipeline, SwitchConfig::default())
    }

    fn order(stock: &str, price: i64) -> Vec<(&'static str, Value)> {
        vec![("stock", Value::from(stock)), ("price", Value::Int(price))]
    }

    #[test]
    fn forwards_matching_messages_to_ports() {
        let mut sw = itch_switch(
            "stock == GOOGL: fwd(1)\n\
             stock == MSFT: fwd(2)\n",
        );
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec)
            .message(order("GOOGL", 10))
            .message(order("MSFT", 20))
            .message(order("FB", 30))
            .build();
        let out = sw.process(&pkt, 0, 0);
        assert_eq!(out.ports.len(), 2);
        let (p1, c1) = &out.ports[0];
        assert_eq!(*p1, 1);
        assert_eq!(c1.message_count(&spec), 1);
        assert_eq!(c1.message(&spec, 0).unwrap()["stock"], Value::from("GOOGL"));
        let (p2, c2) = &out.ports[1];
        assert_eq!(*p2, 2);
        assert_eq!(c2.message(&spec, 0).unwrap()["stock"], Value::from("MSFT"));
        assert_eq!(sw.stats().dropped_messages, 1); // FB
        assert_eq!(sw.stats().messages, 3);
    }

    #[test]
    fn multicast_message_reaches_both_subscribers() {
        let mut sw = itch_switch(
            "stock == GOOGL: fwd(1)\n\
             price > 5: fwd(2)\n",
        );
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 10)).build();
        let out = sw.process(&pkt, 0, 0);
        let ports: Vec<Port> = out.ports.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![1, 2]);
        // Both copies carry the single message.
        for (_, c) in &out.ports {
            assert_eq!(c.message_count(&spec), 1);
        }
    }

    #[test]
    fn never_forwards_to_ingress_port() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 10)).build();
        let out = sw.process(&pkt, 1, 0);
        assert!(out.ports.is_empty());
        assert_eq!(sw.stats().dropped_messages, 1);
    }

    #[test]
    fn recirculation_latency_model() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let mut b = PacketBuilder::new(&spec);
        for _ in 0..10 {
            b = b.message(order("GOOGL", 1));
        }
        let out = sw.process(&b.build(), 0, 0);
        // 10 messages, 4 per pass -> 3 passes -> base + 2*recirc.
        assert_eq!(out.passes, 3);
        assert_eq!(out.latency_ns, 600 + 2 * 400);
        assert_eq!(sw.stats().recirculation_passes, 2);
        // All 10 messages forwarded in one copy.
        assert_eq!(out.ports[0].1.message_count(&spec), 10);
    }

    #[test]
    fn truncation_counts() {
        let statics = compile_static(&itch_spec()).unwrap();
        let rules = parse_rules("stock == GOOGL: fwd(1)\n").unwrap();
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        let cfg = SwitchConfig { max_msgs_per_pass: 2, recirc_ports: 1, ..Default::default() };
        let mut sw = Switch::new(&statics, compiled.pipeline, cfg);
        let spec = itch_spec();
        let mut b = PacketBuilder::new(&spec);
        for _ in 0..7 {
            b = b.message(order("GOOGL", 1));
        }
        let out = sw.process(&b.build(), 0, 0);
        assert_eq!(sw.stats().truncated_messages, 3);
        assert_eq!(out.ports[0].1.message_count(&spec), 4);
    }

    #[test]
    fn stateful_average_gates_forwarding() {
        // §II example: forward GOOGL only when avg(price) > 60.
        let mut sw = itch_switch("stock == GOOGL and avg(price) > 60: fwd(1)\n");
        let spec = itch_spec();
        let pkt = |price: i64| PacketBuilder::new(&spec).message(order("GOOGL", price)).build();
        // First message: avg = 50 -> no match.
        let out = sw.process(&pkt(50), 0, 0);
        assert!(out.ports.is_empty());
        // Second message at price 90 -> avg = 70 -> match.
        let out = sw.process(&pkt(90), 0, 10);
        assert_eq!(out.ports.len(), 1);
        // After the 100 μs default window tumbles, a 50 alone fails again.
        let out = sw.process(&pkt(50), 0, 200);
        assert!(out.ports.is_empty());
    }

    #[test]
    fn stack_only_application_forwards_whole_packet() {
        // INT-style spec without batched messages.
        let spec = camus_lang::spec::int_spec();
        let statics = compile_static(&spec).unwrap();
        let rules = parse_rules("switch_id == 2 and hop_latency > 100: fwd(3)\n").unwrap();
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        let mut sw = Switch::new(&statics, compiled.pipeline, SwitchConfig::default());
        let pkt = PacketBuilder::new(&spec)
            .stack_field("int_report", "switch_id", 2i64)
            .stack_field("int_report", "hop_latency", 500i64)
            .build();
        let out = sw.process(&pkt, 0, 0);
        assert_eq!(out.ports.len(), 1);
        assert_eq!(out.ports[0].0, 3);
        assert_eq!(out.ports[0].1, pkt); // forwarded intact
                                         // Non-matching report is dropped.
        let quiet = PacketBuilder::new(&spec)
            .stack_field("int_report", "switch_id", 2i64)
            .stack_field("int_report", "hop_latency", 50i64)
            .build();
        let out = sw.process(&quiet, 0, 1);
        assert!(out.ports.is_empty());
    }

    #[test]
    fn custom_actions_are_surfaced() {
        let mut sw = itch_switch("stock == GOOGL: mirror(9)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        let out = sw.process(&pkt, 0, 0);
        assert!(out.ports.is_empty());
        assert_eq!(out.actions, vec![(0, Action::Custom("mirror".into(), vec![9]))]);
    }

    #[test]
    fn down_port_suppresses_and_counts() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 10)).build();
        sw.set_port_down(1, true);
        assert!(sw.port_down.contains(&1));
        let out = sw.process(&pkt, 0, 0);
        assert!(out.ports.is_empty());
        assert_eq!(sw.stats().dropped_messages, 1);
        assert_eq!(sw.stats().dropped_port_down, 1);
        assert_eq!(sw.stats().dropped_no_route, 0, "loss attributed to the dead port");
        // Restoring the port resumes forwarding with no reinstall.
        sw.set_port_down(1, false);
        let out = sw.process(&pkt, 0, 1);
        assert_eq!(out.ports.len(), 1);
        assert_eq!(sw.stats().dropped_messages, 1);
    }

    #[test]
    fn multicast_survives_partial_port_failure() {
        let mut sw = itch_switch(
            "stock == GOOGL: fwd(1)\n\
             price > 5: fwd(2)\n",
        );
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 10)).build();
        sw.set_port_down(1, true);
        let out = sw.process(&pkt, 0, 0);
        let ports: Vec<Port> = out.ports.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![2], "surviving port still served");
        assert_eq!(sw.stats().dropped_port_down, 1);
        assert_eq!(sw.stats().dropped_messages, 0, "the message did leave the switch");
    }

    #[test]
    fn drop_causes_attribute_no_route_and_resource() {
        // No-route: ingress-only match.
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 10)).build();
        sw.process(&pkt, 1, 0);
        assert_eq!(sw.stats().dropped_no_route, 1);
        assert_eq!(sw.stats().dropped_port_down, 0);

        // Resource: PHV/recirculation budget truncation.
        let statics = compile_static(&itch_spec()).unwrap();
        let rules = parse_rules("stock == GOOGL: fwd(1)\n").unwrap();
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        let cfg = SwitchConfig { max_msgs_per_pass: 2, recirc_ports: 1, ..Default::default() };
        let mut sw = Switch::new(&statics, compiled.pipeline, cfg);
        let mut b = PacketBuilder::new(&spec);
        for _ in 0..7 {
            b = b.message(order("GOOGL", 1));
        }
        sw.process(&b.build(), 0, 0);
        assert_eq!(sw.stats().truncated_messages, 3);
    }

    #[test]
    fn copy_on_prune_shares_unpruned_buffers() {
        let mut sw = itch_switch("price > 0: fwd(1)\n");
        let spec = itch_spec();
        // Every message kept: the output copy shares the input buffer.
        let pkt = PacketBuilder::new(&spec).message(order("A", 1)).message(order("B", 2)).build();
        let out = sw.process(&pkt, 0, 0);
        assert_eq!(out.ports.len(), 1);
        assert_eq!(out.ports[0].1, pkt);
        assert_eq!(sw.stats().shared_copies, 1);
        assert_eq!(sw.stats().deep_copies, 0);
        // One message pruned: a materialised copy is unavoidable.
        let pkt = PacketBuilder::new(&spec).message(order("A", 9)).message(order("B", 0)).build();
        let out = sw.process(&pkt, 0, 1);
        assert_eq!(out.ports[0].1.message_count(&spec), 1);
        assert_eq!(sw.stats().shared_copies, 1);
        assert_eq!(sw.stats().deep_copies, 1);
        assert_eq!(sw.stats().copies, 2);
    }

    #[test]
    fn identical_prunes_share_one_buffer() {
        let mut sw =
            itch_switch("stock == GOOGL: fwd(4)\nprice > 5: fwd(2)\nshares > 50: fwd(7)\n");
        assert_eq!(sw.program().ports(), &[2, 4, 7]);
        let spec = itch_spec();
        let msg = |stock: &str, price: i64, shares: i64| {
            vec![
                ("stock", Value::from(stock)),
                ("price", Value::Int(price)),
                ("shares", Value::Int(shares)),
            ]
        };
        // Ports 2 and 4 keep message 0 alone, port 7 keeps message 1.
        let pkt =
            PacketBuilder::new(&spec).message(msg("GOOGL", 9, 1)).message(msg("FB", 1, 99)).build();
        let out = sw.process(&pkt, 0, 0);
        let ports: Vec<Port> = out.ports.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![2, 4, 7]);
        let buf = |i: usize| out.ports[i].1.bytes.as_slice().as_ptr();
        assert_eq!(buf(0), buf(1), "ports 2 and 4 share one pruned buffer");
        assert_ne!(buf(0), buf(2));
        assert_eq!(out.ports[0].1.message(&spec, 0).unwrap()["stock"], Value::from("GOOGL"));
        assert_eq!(out.ports[2].1.message(&spec, 0).unwrap()["stock"], Value::from("FB"));
        let s = sw.stats();
        assert_eq!((s.copies, s.deep_copies, s.shared_copies), (3, 2, 1));
    }

    #[test]
    fn duplicate_forward_ports_send_one_copy() {
        // `fwd(2, 2)` names port 2 once: its copy carries the message
        // once, on the fast path and the reference alike. The GOOGL
        // message matches that rule alone, so no merge dedups it.
        let mut fast = itch_switch("stock == GOOGL: fwd(2, 2)\nprice > 5: fwd(3)\n");
        let mut reference = fast.clone();
        let spec = itch_spec();
        let pkt =
            PacketBuilder::new(&spec).message(order("GOOGL", 1)).message(order("MSFT", 10)).build();
        let (a, r) = (fast.process(&pkt, 0, 0), reference.process_reference(&pkt, 0, 0));
        assert_eq!(a.ports, r.ports);
        assert_eq!(a.ports.iter().map(|(p, _)| *p).collect::<Vec<_>>(), vec![2, 3]);
        assert!(a.ports.iter().all(|(_, c)| c.message_count(&spec) == 1));
        // Port 2 down: one suppressed decision, not two.
        fast.set_port_down(2, true);
        reference.set_port_down(2, true);
        let (a, r) = (fast.process(&pkt, 0, 1), reference.process_reference(&pkt, 0, 1));
        assert_eq!(a.ports, r.ports);
        assert_eq!(fast.stats().dropped_port_down, 1);
        assert_eq!(reference.stats().dropped_port_down, 1);
    }

    #[test]
    fn stack_only_copies_are_shared() {
        let spec = camus_lang::spec::int_spec();
        let statics = compile_static(&spec).unwrap();
        let rules = parse_rules("switch_id == 2: fwd(3)\n").unwrap();
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        let mut sw = Switch::new(&statics, compiled.pipeline, SwitchConfig::default());
        let pkt = PacketBuilder::new(&spec).stack_field("int_report", "switch_id", 2i64).build();
        sw.process(&pkt, 0, 0);
        assert_eq!(sw.stats().shared_copies, 1);
        assert_eq!(sw.stats().deep_copies, 0);
    }

    #[test]
    fn process_batch_counts_batch_sizes() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let pkts: Vec<(Packet, Port)> = (0..5)
            .map(|i| (PacketBuilder::new(&spec).message(order("GOOGL", i)).build(), 0))
            .collect();
        let mut outs = Vec::new();
        sw.process_batch_indexed(&pkts, 0, &mut outs);
        assert_eq!(outs.len(), 5);
        assert!(outs.iter().all(|o| o.ports.len() == 1));
        assert_eq!(sw.stats().batches, 1);
        assert_eq!(sw.stats().batched_packets, 5);
        assert_eq!(sw.stats().packets, 5);
    }

    #[test]
    fn eval_counters_accumulate() {
        let mut sw = itch_switch("stock == GOOGL and price > 50: fwd(1)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec)
            .message(order("GOOGL", 60))
            .message(order("MSFT", 10))
            .build();
        sw.process(&pkt, 0, 0);
        let s = sw.stats();
        assert!(s.stage_hits > 0, "matching message transitions stages");
        assert!(s.entries_scanned > 0);
        assert_eq!(s.stage_hits + s.stage_misses, 2 * sw.compiled().depth() as u64);
    }

    #[test]
    fn fast_path_matches_reference_path() {
        let rules = "stock == GOOGL and avg(price) > 40: fwd(1)\n\
                     price > 25: fwd(2)\n\
                     shares < 100 and price >= 30: fwd(3)\n\
                     side == 1: drop()\n";
        let mut fast = itch_switch(rules);
        let mut reference = fast.clone();
        let spec = itch_spec();
        let feeds = [
            vec![order("GOOGL", 50)],
            vec![order("GOOD", 10), order("MSFT", 30)],
            vec![order("GOOGL", 80), order("GOOGL", 5), order("AAPL", 26)],
            vec![],
        ];
        for (t, msgs) in feeds.iter().enumerate() {
            let mut b = PacketBuilder::new(&spec).stack_field("moldudp", "seq", t as i64);
            for m in msgs {
                b = b.message(m.clone());
            }
            let pkt = b.build();
            let a = fast.process(&pkt, 0, t as u64 * 10);
            let r = reference.process_reference(&pkt, 0, t as u64 * 10);
            assert_eq!(a.ports, r.ports, "packet {t}");
            assert_eq!(a.actions, r.actions, "packet {t}");
            assert_eq!(a.latency_ns, r.latency_ns);
            assert_eq!(a.passes, r.passes);
        }
        let (f, r) = (fast.stats(), reference.stats());
        assert_eq!(f.messages, r.messages);
        assert_eq!(f.dropped_messages, r.dropped_messages);
        assert_eq!(f.copies, r.copies);
        assert_eq!(f.dropped_no_route, r.dropped_no_route);
    }

    #[test]
    fn install_swaps_pipeline_keeps_state() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        assert_eq!(sw.process(&pkt, 0, 0).ports.len(), 1);
        // Reconfigure: now only MSFT is interesting.
        let statics = compile_static(&itch_spec()).unwrap();
        let rules = parse_rules("stock == MSFT: fwd(2)\n").unwrap();
        let compiled = Compiler::new().with_static(statics).compile(&rules).unwrap();
        sw.install(compiled.pipeline);
        assert!(sw.process(&pkt, 0, 1).ports.is_empty());
    }

    fn compile_itch(rules_src: &str) -> Pipeline {
        let statics = compile_static(&itch_spec()).unwrap();
        let rules = parse_rules(rules_src).unwrap();
        Compiler::new().with_static(statics).compile(&rules).unwrap().pipeline
    }

    #[test]
    fn failed_install_preserves_previous_program() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        sw.config.budget = ResourceBudget { max_tables: 1, ..ResourceBudget::unlimited() };
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        assert_eq!(sw.process(&pkt, 0, 0).ports.len(), 1);
        let before_pipeline = sw.pipeline().clone();
        let before_stats = sw.stats();

        let err = sw.stage(compile_itch("stock == MSFT: fwd(2)\n")).unwrap_err();
        let InstallError::OverBudget(adm) = &err else { panic!("expected OverBudget, got {err}") };
        assert!(!adm.violations.is_empty());

        // The previous compiled pipeline, port masks and stats are
        // untouched, and forwarding is byte-identical.
        assert_eq!(sw.pipeline(), &before_pipeline);
        assert_eq!(sw.stats(), before_stats);
        assert_eq!(sw.staged_epoch(), None);
        let out = sw.process(&pkt, 0, 1);
        assert_eq!(out.ports.len(), 1);
        assert_eq!(out.ports[0].0, 1);
        assert_eq!(out.ports[0].1, pkt);
    }

    /// One hand-built pipeline per [`ShapeError`] variant, each leaving
    /// the compiler's table shape in that one way.
    fn malformed_pipelines() -> Vec<(Pipeline, ShapeError)> {
        use camus_core::pipeline::{LeafTable, MatchKind, MatchSpec, StageTable, TableEntry};
        let entry = |state, spec, next| TableEntry { state, spec, next };
        let stage = |field: &str, entries| {
            StageTable::new(Operand::Field(field.into()), MatchKind::Ternary, entries)
        };
        let pipeline = |stages, leaf: &[u32]| Pipeline {
            stages,
            leaf: LeafTable {
                actions: leaf.iter().map(|&s| (s, (Action::Forward(vec![2]), None))).collect(),
                default: Action::Drop,
            },
            initial: 0,
        };
        let range = |lo, hi| MatchSpec::IntRange(lo, hi);
        let mut unsorted =
            stage("price", vec![entry(0, range(0, 9), 1), entry(0, MatchSpec::Any, 2)]);
        unsorted.entries.swap(0, 1);
        let msft = || MatchSpec::StrExact("MSFT".into());
        vec![
            (
                pipeline(vec![stage("price", vec![entry(0, range(0, 9), 100)])], &[100]),
                ShapeError::SparseState { state: 100, bound: 3 },
            ),
            (pipeline(vec![unsorted], &[1, 2]), ShapeError::Unsorted { stage: 0, state: 0 }),
            (
                pipeline(
                    vec![
                        stage("price", vec![entry(0, range(0, 9), 1)]),
                        stage("stock", vec![entry(0, msft(), 1)]),
                    ],
                    &[1],
                ),
                ShapeError::SplitState { state: 0, stages: [0, 1] },
            ),
            (
                pipeline(
                    vec![
                        stage("price", vec![entry(0, range(0, 9), 1)]),
                        stage("stock", vec![entry(1, msft(), 0)]),
                    ],
                    &[1],
                ),
                ShapeError::BackwardJump { stage: 1, state: 1, next: 0 },
            ),
            (
                pipeline(vec![stage("price", vec![entry(0, range(9, 0), 1)])], &[1]),
                ShapeError::EmptyRange { stage: 0, state: 0 },
            ),
            (
                pipeline(
                    vec![stage("price", vec![entry(0, range(0, 9), 1), entry(0, range(5, 20), 2)])],
                    &[1, 2],
                ),
                ShapeError::OverlappingRanges { stage: 0, state: 0 },
            ),
            (
                pipeline(
                    vec![stage("stock", vec![entry(0, msft(), 1), entry(0, msft(), 2)])],
                    &[1, 2],
                ),
                ShapeError::DuplicateKey { stage: 0, state: 0 },
            ),
        ]
    }

    #[test]
    fn malformed_pipeline_is_refused_and_old_program_forwards() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        let before_pipeline = sw.pipeline().clone();
        for (i, (pipeline, shape)) in malformed_pipelines().into_iter().enumerate() {
            let err = sw.stage(pipeline).unwrap_err();
            assert_eq!(err, InstallError::Malformed(shape));
            assert_eq!(sw.staged_epoch(), None);
            assert!(!sw.commit_staged(), "nothing staged");
            assert_eq!(sw.pipeline(), &before_pipeline);
            let out = sw.process(&pkt, 0, i as u64);
            assert_eq!(out.ports.len(), 1);
            assert_eq!((out.ports[0].0, &out.ports[0].1), (1, &pkt));
        }
    }

    #[test]
    fn staged_program_only_forwards_after_commit() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let spec = itch_spec();
        let googl = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        let msft = PacketBuilder::new(&spec).message(order("MSFT", 1)).build();

        sw.stage(compile_itch("stock == MSFT: fwd(2)\n")).unwrap();
        assert!(sw.staged_epoch().is_some());
        // Shadow program does not affect the data path.
        assert_eq!(sw.process(&googl, 0, 0).ports.len(), 1);
        assert!(sw.process(&msft, 0, 1).ports.is_empty());

        assert!(sw.commit_staged());
        assert!(sw.process(&googl, 0, 2).ports.is_empty());
        assert_eq!(sw.process(&msft, 0, 3).ports.len(), 1);

        // The commit can still be reverted until finalised.
        assert!(sw.revert_committed());
        assert_eq!(sw.process(&googl, 0, 4).ports.len(), 1);
        assert!(!sw.revert_committed(), "retired program consumed");

        // A finalised commit is permanent.
        sw.stage(compile_itch("stock == MSFT: fwd(2)\n")).unwrap();
        sw.commit_staged();
        sw.finalize_install();
        assert!(!sw.revert_committed());
        assert_eq!(sw.process(&msft, 0, 5).ports.len(), 1);
    }

    #[test]
    fn abort_staged_discards_shadow_program() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        sw.stage(compile_itch("stock == MSFT: fwd(2)\n")).unwrap();
        assert!(sw.abort_staged());
        assert!(!sw.abort_staged());
        assert!(!sw.commit_staged(), "nothing staged after abort");
        let spec = itch_spec();
        let googl = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        assert_eq!(sw.process(&googl, 0, 0).ports.len(), 1);
    }

    #[test]
    fn program_for_another_spec_is_refused_not_run() {
        let mut sw = itch_switch("stock == GOOGL: fwd(1)\n");
        let before = sw.pipeline().clone();
        // Same pipeline, resolved against the INT spec: every slot
        // offset would point into the wrong header.
        let foreign =
            Arc::new(Program::build(&camus_lang::spec::int_spec(), sw.pipeline().clone()).unwrap());
        let err = sw.stage_epoch(foreign, 7).unwrap_err();
        assert!(matches!(err, InstallError::SpecMismatch { .. }), "{err}");
        assert_eq!(sw.staged_epoch(), None);
        assert_eq!(sw.pipeline(), &before);
        // A program built against an equal spec is welcome, whoever built it.
        let native = Arc::new(
            Program::build(&itch_spec(), compile_itch("stock == MSFT: fwd(2)\n")).unwrap(),
        );
        sw.stage_epoch(native, 7).unwrap();
        assert_eq!(sw.staged_epoch(), Some(7));
    }

    #[test]
    fn twins_sharing_a_program_keep_private_state() {
        // One immutable program, two switches: everything a packet
        // mutates (stats, aggregate registers, scratch, port state)
        // must stay per switch.
        let program = Arc::new(
            Program::build(
                &itch_spec(),
                compile_itch("stock == GOOGL and avg(price) > 60: fwd(1)\nstock == MSFT: fwd(2)\n"),
            )
            .unwrap(),
        );
        let mut a = itch_switch("stock == FB: fwd(3)\n");
        let mut b = a.clone();
        let mut solo = a.clone();
        for sw in [&mut a, &mut b] {
            sw.stage_epoch(Arc::clone(&program), 1).unwrap();
            assert!(sw.commit_staged());
            sw.finalize_install();
        }
        solo.install(program.pipeline.clone());
        assert!(Arc::ptr_eq(a.program(), b.program()));
        assert!(!Arc::ptr_eq(a.program(), solo.program()));

        let spec = itch_spec();
        let googl = |p: i64| PacketBuilder::new(&spec).message(order("GOOGL", p)).build();
        let msft = PacketBuilder::new(&spec).message(order("MSFT", 1)).build();

        // `a` sees a low price first, so its running average stays
        // below the threshold where `b`'s (fed only the high price)
        // crosses it: the registers are not shared.
        assert!(a.process(&googl(10), 0, 0).ports.is_empty());
        assert!(a.process(&googl(90), 0, 1).ports.is_empty(), "avg(10, 90) = 50");
        assert_eq!(b.process(&googl(90), 0, 1).ports.len(), 1, "avg(90) = 90");

        // Port state and counters are private too.
        a.set_port_down(2, true);
        assert!(a.process(&msft, 0, 2).ports.is_empty());
        assert_eq!(b.process(&msft, 0, 2).ports.len(), 1);
        assert_eq!(a.stats().dropped_port_down, 1);
        assert_eq!(b.stats().dropped_port_down, 0);
        assert_eq!((a.stats().packets, b.stats().packets), (3, 2));

        // And a twin forwards exactly like a switch that owns a
        // private copy of the same program.
        let out_b = b.process(&googl(90), 0, 3);
        solo.process(&googl(90), 0, 1);
        solo.process(&msft, 0, 2);
        let out_solo = solo.process(&googl(90), 0, 3);
        assert_eq!(out_b.ports, out_solo.ports);
        assert_eq!(b.stats(), solo.stats());

        // Undoing an install on one twin leaves the other's program alone.
        a.stage(compile_itch("stock == FB: fwd(3)\n")).unwrap();
        a.commit_staged();
        assert!(a.revert_committed());
        assert!(Arc::ptr_eq(a.program(), b.program()));
    }

    #[test]
    fn malformed_packets_counted_in_both_paths() {
        let mut fast = itch_switch("stock == GOOGL: fwd(1)\n");
        let mut reference = fast.clone();
        let spec = itch_spec();
        let good = PacketBuilder::new(&spec).message(order("GOOGL", 1)).build();
        // Chop off the last byte: a partial trailing message.
        let truncated = Packet::new(good.bytes[..good.len() - 1].into());
        for sw in [&mut fast, &mut reference] {
            assert_eq!(sw.process(&good, 0, 0).ports.len(), 1);
        }
        let f = fast.process(&truncated, 0, 1);
        let r = reference.process_reference(&truncated, 0, 1);
        assert_eq!(f.ports, r.ports, "graceful miss in both paths");
        assert_eq!(fast.stats().malformed, 1);
        assert_eq!(reference.stats().malformed, 1);
        assert_eq!(fast.stats().malformed, reference.stats().malformed);
    }

    /// Run `pkt` through a copy of `sw` on each path: the outputs and
    /// the forwarding counters must agree. Returns the fast path's.
    fn both_paths(sw: &Switch, pkt: &Packet) -> (SwitchOutput, SwitchStats) {
        let (mut fast, mut reference) = (sw.clone(), sw.clone());
        let (a, r) = (fast.process(pkt, 0, 0), reference.process_reference(pkt, 0, 0));
        assert_eq!(a.ports, r.ports);
        assert_eq!(a.actions, r.actions);
        assert_eq!((a.passes, a.latency_ns), (r.passes, r.latency_ns));
        let (f, r) = (fast.stats(), reference.stats());
        let forwarding = |s: &SwitchStats| {
            (s.packets, s.messages, s.malformed, s.dropped_messages, s.dropped_no_route, s.copies)
        };
        assert_eq!(forwarding(&f), forwarding(&r));
        (a, f)
    }

    #[test]
    fn extraction_budget() {
        let cfg = SwitchConfig::default();
        let got = |cfg: &SwitchConfig, units| {
            let e = cfg.extraction(units);
            (e.extracted, e.truncated, e.passes)
        };
        assert_eq!(got(&cfg, 0), (0, 0, 1));
        assert_eq!(got(&cfg, 3), (3, 0, 1));
        // 10 messages, 4 per pass: 3 passes.
        assert_eq!(got(&cfg, 10), (10, 0, 3));
        // Room for (1 + 1) passes of 2 messages.
        let small = SwitchConfig { max_msgs_per_pass: 2, recirc_ports: 1, ..Default::default() };
        assert_eq!(got(&small, 7), (4, 3, 2));
    }

    #[test]
    #[should_panic(expected = "PHV must hold at least one message")]
    fn zero_budget_panics() {
        let statics = compile_static(&itch_spec()).unwrap();
        let cfg = SwitchConfig { max_msgs_per_pass: 0, ..Default::default() };
        Switch::new(&statics, compile_itch("stock == GOOGL: fwd(1)\n"), cfg);
    }

    #[test]
    fn heartbeat_is_evaluated_nowhere() {
        // A MoldUDP heartbeat: the 18-byte header and no message. Read
        // with every message field absent, it would reach port 2.
        let sw = itch_switch("price < 5: fwd(1)\nprice > 2: fwd(2)\n");
        let spec = itch_spec();
        let heartbeat = PacketBuilder::new(&spec).stack_field("moldudp", "seq", 9i64).build();
        assert_eq!(heartbeat.len(), 18);
        let (out, stats) = both_paths(&sw, &heartbeat);
        assert!(out.ports.is_empty());
        assert_eq!((stats.packets, stats.messages, stats.malformed), (1, 0, 0));
    }

    #[test]
    fn stack_cut_inside_a_later_header_is_evaluated_nowhere() {
        let spec = Spec::parse(
            "header a { @field bit<8> x; }\nheader b { @field bit<16> y; }\nsequence a b",
        )
        .unwrap();
        let statics = compile_static(&spec).unwrap();
        let rules = parse_rules("x == 1: fwd(1)\n").unwrap();
        let compiled = Compiler::new().with_static(statics.clone()).compile(&rules).unwrap();
        let sw = Switch::new(&statics, compiled.pipeline, SwitchConfig::default());
        let whole = PacketBuilder::new(&spec).stack_field("a", "x", 1i64).build();
        let (out, stats) = both_paths(&sw, &whole);
        assert_eq!(out.ports, vec![(1, whole.clone())]);
        assert_eq!((stats.messages, stats.malformed), (1, 0));
        // `a` is whole, `b` is cut: the stack is no unit.
        let cut = Packet::new(whole.bytes[..2].into());
        let (out, stats) = both_paths(&sw, &cut);
        assert!(out.ports.is_empty());
        assert_eq!((stats.messages, stats.malformed), (0, 1));
    }

    #[test]
    fn field_names_resolve_alike_on_both_paths() {
        // Only a compiler without the spec emits `moldudp.price`. The
        // spec names no such field, so it reads absent and its rule
        // never fires, though the message carries a `price`.
        let statics = compile_static(&itch_spec()).unwrap();
        let rules = parse_rules(
            "itch_order.price > 5: fwd(1)\n\
             price > 5: fwd(2)\n\
             moldudp.seq == 7: fwd(3)\n\
             seq == 7: fwd(4)\n\
             moldudp.price > 5: fwd(5)\n",
        )
        .unwrap();
        let pipeline = Compiler::new().compile(&rules).unwrap().pipeline;
        let sw = Switch::new(&statics, pipeline, SwitchConfig::default());
        let spec = itch_spec();
        let pkt = PacketBuilder::new(&spec)
            .stack_field("moldudp", "seq", 7i64)
            .message(order("GOOGL", 10))
            .build();
        let (out, _) = both_paths(&sw, &pkt);
        assert_eq!(out.ports.iter().map(|(p, _)| *p).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }
}
