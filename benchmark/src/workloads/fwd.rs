//! `fwd-int` and `fwd-itch-fanout`: one switch, packets through the
//! batched fast path.
//!
//! Both drive pre-built packets through
//! [`Switch::process_batch_indexed`] in batches of [`BATCH`], one
//! generator thread, closed loop. They use the same dataplane layer
//! differently. `fwd-int` sends minimum-size stack-only packets of
//! which under 1 % match, so per-packet cost is slot extraction and
//! jump dispatch. `fwd-itch-fanout` sends multi-message packets that
//! fan out to several ports with pruned copies, so replication
//! dominates and dispatch is noise.

use super::stages::{self, compile_staged};
use crate::digest::Fnv1a;
use crate::oracle;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{contract_rows, mem, scaled, Metric, Outcome, RunConfig, Tamper};
use camus_apps::itch::ItchApp;
use camus_core::compiled::{CompiledPipeline, EvalCounters};
use camus_core::compiler::Compiler;
use camus_core::pipeline::Pipeline;
use camus_core::statics::{compile_static, StaticPipeline};
use camus_dataplane::{
    EvalPlan, Packet, PacketBuilder, StateStore, Switch, SwitchConfig, SwitchOutput, SwitchStats,
    SwitchTelemetry,
};
use camus_lang::ast::{Port, Rule};
use camus_lang::parser::parse_rule;
use camus_lang::spec::int_spec;
use camus_lang::value::Value;
use camus_telemetry::metrics::{MetricsRegistry, SampleRate};
use camus_workloads::int::{IntFeed, IntFeedConfig};
use camus_workloads::itch::{ItchFeed, ItchFeedConfig, WATCHED};
use rand::prelude::*;
use std::time::Instant;

/// Packets per `process_batch_indexed` call.
pub const BATCH: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Int,
    ItchFanout,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Int => "fwd-int",
            Kind::ItchFanout => "fwd-itch-fanout",
        }
    }
}

/// Op counts. [`Sizes::pinned`] is the benchmark; the oracle self-test
/// runs the same code at a fraction of it.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub filters: usize,
    pub packets: usize,
    /// Timed passes over the packets in a run of the pinned length.
    pub passes: usize,
    /// Every packet is checked against `process_reference`; every
    /// `oracle_stride`-th also against the definitional oracle.
    pub oracle_stride: usize,
    /// Set-up repetitions behind the `setup_s` median.
    pub setups: usize,
    /// Packets the traced run's per-call probes cover.
    pub probe_packets: usize,
}

impl Sizes {
    pub fn pinned(kind: Kind) -> Sizes {
        match kind {
            Kind::Int => Sizes {
                filters: 1_000,
                packets: 1_000_000,
                passes: 150,
                oracle_stride: 64,
                setups: 31,
                probe_packets: 200_000,
            },
            Kind::ItchFanout => Sizes {
                filters: 800,
                packets: 250_000,
                passes: 36,
                oracle_stride: 16,
                setups: 5,
                probe_packets: 100_000,
            },
        }
    }
}

/// Everything generated from the seed: the product sees only this.
pub struct Inputs {
    pub rule_texts: Vec<String>,
    pub packets: Vec<(Packet, Port)>,
    pub digest: u64,
}

/// Symbols × [`ITCH_PORTS`] subscriber ports, each with its own price
/// threshold per symbol.
const ITCH_PORTS: usize = 8;

/// `ItchFeedConfig::synthetic` draws prices from `1..=2000`.
const ITCH_MAX_PRICE: i64 = 2_000;

pub fn generate(kind: Kind, sizes: &Sizes, seed: u64) -> Inputs {
    let (rule_texts, packets): (Vec<String>, Vec<Packet>) = match kind {
        Kind::Int => {
            // The fig. 9 family: 100 switch ids x rotating latency
            // bounds just above the anomaly floor.
            let rules = (0..sizes.filters)
                .map(|i| {
                    format!(
                        "switch_id == {} and hop_latency > {}: fwd({})",
                        i % 100,
                        100 + (i / 100) % 1000,
                        i % 64 + 1
                    )
                })
                .collect();
            let spec = int_spec();
            let mut feed = IntFeed::new(IntFeedConfig { seed, ..IntFeedConfig::default() });
            let packets = (0..sizes.packets)
                .map(|_| {
                    let mut b = PacketBuilder::new(&spec);
                    for (k, v) in feed.report().fields() {
                        b = b.stack_field("int_report", &k, v);
                    }
                    b.build()
                })
                .collect();
            (rules, packets)
        }
        Kind::ItchFanout => {
            let symbols = sizes.filters / ITCH_PORTS;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rules = Vec::with_capacity(symbols * ITCH_PORTS);
            // Every symbol's thresholds are one per eighth of the price
            // range, at an offset of its own, so a message reaches about
            // half the ports whatever the seed. The seed moves each
            // threshold a little and picks which port gets which: free
            // draws over the whole range made the popular symbols'
            // fan-out, and with it the packet rate, differ by 15 %
            // from seed to seed.
            let step = ITCH_MAX_PRICE / ITCH_PORTS as i64;
            let jitter = step / 8;
            for s in 0..symbols {
                let stock = if s == 0 { WATCHED.to_string() } else { format!("S{s:04}") };
                let mut ports: Vec<usize> = (1..=ITCH_PORTS).collect();
                for i in (1..ports.len()).rev() {
                    ports.swap(i, rng.gen_range(0..=i));
                }
                for (k, port) in ports.into_iter().enumerate() {
                    let offset = (s as i64 * 37) % (step - jitter);
                    let floor = k as i64 * step + offset + rng.gen_range(0..jitter);
                    rules.push(format!("stock == {stock} and price > {floor}: fwd({port})"));
                }
            }
            let app = ItchApp::new();
            let mut feed = ItchFeed::new(ItchFeedConfig {
                n_symbols: symbols.max(2),
                ..ItchFeedConfig::synthetic(seed)
            });
            let packets =
                (0..sizes.packets).map(|i| app.packet(i as i64, &feed.packet())).collect();
            (rules, packets)
        }
    };
    let mut h = Fnv1a::default();
    for r in &rule_texts {
        h.text(r);
    }
    for p in &packets {
        h.u64(p.len() as u64);
        h.bytes(p.bytes.as_slice());
    }
    Inputs {
        rule_texts,
        packets: packets.into_iter().map(|p| (p, 0)).collect(),
        digest: h.finish(),
    }
}

fn parse_rules(texts: &[String]) -> Vec<Rule> {
    texts.iter().map(|t| parse_rule(t).expect("generated rule parses")).collect()
}

fn statics(kind: Kind) -> StaticPipeline {
    match kind {
        Kind::Int => compile_static(&int_spec()).expect("INT spec compiles"),
        Kind::ItchFanout => ItchApp::new().statics,
    }
}

/// The product's set-up, from rule text to a loaded switch: parse,
/// static compile, dynamic compile, lowering, install.
fn set_up(kind: Kind, texts: &[String]) -> (Vec<Rule>, Switch) {
    let rules = parse_rules(texts);
    let sw = match kind {
        Kind::Int => {
            let statics = statics(kind);
            let compiled = Compiler::new()
                .with_static(statics.clone())
                .compile(&rules)
                .expect("INT filters compile");
            Switch::new(&statics, compiled.pipeline, SwitchConfig::default())
        }
        Kind::ItchFanout => {
            ItchApp::new().switch(&rules, SwitchConfig::default()).expect("ITCH filters compile")
        }
    };
    (rules, sw)
}

/// Install a pipeline compiled without one rule that some checked
/// packet matches, so the definitional oracle must disagree.
fn drop_one_rule(kind: Kind, sw: &mut Switch, rules: &[Rule], inputs: &Inputs, stride: usize) {
    let spec = sw.spec().clone();
    let victim = inputs
        .packets
        .iter()
        .step_by(stride)
        .find_map(|(p, _)| {
            rules.iter().position(|r| {
                !oracle::expected_egress(&spec, std::slice::from_ref(r), p, 0).is_empty()
            })
        })
        .expect("some checked packet matches some rule");
    let mut fewer = rules.to_vec();
    fewer.remove(victim);
    let compiled =
        Compiler::new().with_static(statics(kind)).compile(&fewer).expect("rules compile");
    sw.install(compiled.pipeline);
}

/// Check every packet: fast path against the interpreted reference,
/// and every `stride`-th against the definitional oracle. Returns the
/// number that differ.
fn verify(sw: &Switch, rules: &[Rule], packets: &[(Packet, Port)], stride: usize) -> u64 {
    let spec = sw.spec().clone();
    let (mut fast, mut reference) = (sw.clone(), sw.clone());
    let mut failed = 0u64;
    for (i, (pkt, ingress)) in packets.iter().enumerate() {
        let got = fast.process(pkt, *ingress, i as u64);
        let mut ok =
            oracle::same_egress(&got, &reference.process_reference(pkt, *ingress, i as u64));
        if i % stride == 0 {
            let want = oracle::expected_egress(&spec, rules, pkt, *ingress);
            ok &= oracle::egress_agrees(&spec, pkt, &got, &want);
        }
        failed += u64::from(!ok);
    }
    failed
}

/// One pass: every packet once, in batches, timing each batch.
/// Returns the pass wall time in ns.
fn timed_pass(
    sw: &mut Switch,
    packets: &[(Packet, Port)],
    out: &mut Vec<SwitchOutput>,
    batch_ns: &mut Vec<f64>,
) -> u64 {
    let start = Instant::now();
    let mut index = 0u64;
    for chunk in packets.chunks(BATCH) {
        let t = Instant::now();
        sw.process_batch_indexed(chunk, index, out);
        std::hint::black_box(&mut *out);
        batch_ns.push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
        index += chunk.len() as u64;
    }
    start.elapsed().as_nanos() as u64
}

pub fn run(kind: Kind, sizes: &Sizes, cfg: &RunConfig) -> Outcome {
    let inputs = generate(kind, sizes, cfg.seed);
    if cfg.trace {
        return traced(kind, sizes, cfg, &inputs);
    }

    // Set up several times; the last one is the switch under test.
    let mut setup_s = Vec::with_capacity(sizes.setups);
    let (mut rules, mut sw) = (Vec::new(), None);
    for _ in 0..sizes.setups.max(1) {
        let t = Instant::now();
        let (r, s) = set_up(kind, &inputs.rule_texts);
        setup_s.push(t.elapsed().as_secs_f64());
        (rules, sw) = (r, Some(s));
    }
    let mut sw = sw.expect("at least one set-up");
    if cfg.tamper == Tamper::DropRule {
        drop_one_rule(kind, &mut sw, &rules, &inputs, sizes.oracle_stride);
    }

    // The first pass is the checked one; it also warms the caches.
    let failed = verify(&sw, &rules, &inputs.packets, sizes.oracle_stride);

    let passes = scaled(sizes.passes, cfg.seconds, 3);
    let mut out: Vec<SwitchOutput> = Vec::with_capacity(BATCH);
    let mut batch_ns = Vec::with_capacity(passes * inputs.packets.len().div_ceil(BATCH));
    let mut pass_mpps = Vec::with_capacity(passes);
    for _ in 0..passes {
        let ns = timed_pass(&mut sw, &inputs.packets, &mut out, &mut batch_ns);
        pass_mpps.push(inputs.packets.len() as f64 * 1e3 / ns as f64);
    }

    let setup = Summary::new(setup_s).expect("set-up samples");
    let mpps = Summary::new(pass_mpps).expect("pass samples");
    let per_pkt = Summary::new(batch_ns).expect("batch samples");
    let mut end_to_end = vec![
        Metric::new("setup_s", setup.median(), "s", setup.count()),
        Metric::new("pkt_mpps", mpps.median(), "Mpkt/s", mpps.count()),
        Metric::new("pkt_ns_p50", per_pkt.median(), "ns", per_pkt.count()),
    ];
    let mut notes = vec![format!(
        "{} filters, {} packets x {passes} passes in batches of {BATCH}; one generator thread, \
         closed loop, one core; in-process Switch model, no real link",
        rules.len(),
        inputs.packets.len()
    )];
    match per_pkt.percentile(99.0) {
        Ok(p99) => end_to_end.push(Metric::new("pkt_ns_p99", p99, "ns", per_pkt.count())),
        Err(e) => notes.push(format!("pkt_ns_p99 not reported: {e}")),
    }
    let contract = contract_rows(
        &end_to_end[0],
        (mpps.median() * 1e6, mpps.count()),
        (per_pkt.median() / 1e3, per_pkt.count()),
    );
    end_to_end.push(contract[3].clone());
    Outcome {
        attempted: inputs.packets.len() as u64,
        failed,
        input_digest: inputs.digest,
        end_to_end,
        contract,
        notes,
        ..Outcome::default()
    }
}

/// The counters the per-packet ratios use, as the difference of two
/// readings of one switch.
fn stats_since(now: &SwitchStats, before: &SwitchStats) -> SwitchStats {
    SwitchStats {
        messages: now.messages - before.messages,
        copies: now.copies - before.copies,
        shared_copies: now.shared_copies - before.shared_copies,
        deep_copies: now.deep_copies - before.deep_copies,
        entries_scanned: now.entries_scanned - before.entries_scanned,
        recirculation_passes: now.recirculation_passes - before.recirculation_passes,
        ..SwitchStats::default()
    }
}

/// A plain pass with no per-batch clock: the telemetry comparison's
/// unit of work.
fn plain_pass(sw: &mut Switch, packets: &[(Packet, Port)], out: &mut Vec<SwitchOutput>) -> f64 {
    let start = Instant::now();
    let mut index = 0u64;
    for chunk in packets.chunks(BATCH) {
        sw.process_batch_indexed(chunk, index, out);
        std::hint::black_box(&mut *out);
        index += chunk.len() as u64;
    }
    start.elapsed().as_nanos() as f64
}

/// Passes with `SwitchTelemetry` attached at 1/256 against bare
/// passes, interleaved; the median slowdown in percent.
fn telemetry_overhead_pct(sw: &Switch, packets: &[(Packet, Port)], pairs: usize) -> f64 {
    let registry = MetricsRegistry::new();
    let (mut bare, mut sampled) = (sw.clone(), sw.clone());
    sampled.attach_telemetry(SwitchTelemetry::new(&registry, SampleRate::every(256)));
    let mut out = Vec::with_capacity(BATCH);
    let (mut bare_ns, mut sampled_ns) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        bare_ns.push(plain_pass(&mut bare, packets, &mut out));
        sampled_ns.push(plain_pass(&mut sampled, packets, &mut out));
    }
    let bare = Summary::new(bare_ns).expect("bare passes").median();
    let sampled = Summary::new(sampled_ns).expect("sampled passes").median();
    (sampled - bare) / bare * 100.0
}

/// The traced run: a tenth of the passes, each public call the packet
/// path is made of inside a span, and the install path stage by stage.
fn traced(kind: Kind, sizes: &Sizes, cfg: &RunConfig, inputs: &Inputs) -> Outcome {
    mem::set_counting(true);
    let packets = &inputs.packets;
    let batches = packets.len().div_ceil(BATCH);
    let passes = (scaled(sizes.passes, cfg.seconds, 1) / 10).max(2);
    let mut tr = Tracer::with_capacity(passes * (batches + 1) + 64);

    // Operation 0: set-up, stage by stage.
    let statics = statics(kind);
    let mut sw = Switch::new(&statics, Pipeline::empty(), SwitchConfig::default());
    let (rules, compiled, lowered) = tr.span("setup", |tr| {
        let rules = tr.span("lang.parse", |_| parse_rules(&inputs.rule_texts));
        let compiled = compile_staged(tr, &rules, &statics);
        let lowered = tr.span("core.lower", |_| CompiledPipeline::lower(&compiled.pipeline));
        let pipeline = compiled.pipeline.clone();
        tr.span("dataplane.install", |_| {
            stages::install(&mut sw, pipeline);
        });
        (rules, compiled, lowered)
    });
    let failed = verify(&sw, &rules, packets, sizes.oracle_stride);

    // Untraced and traced passes interleaved: the same work, with and
    // without a span around every batch.
    let mut out: Vec<SwitchOutput> = Vec::with_capacity(BATCH);
    let mut batch_ns = Vec::with_capacity(passes * batches);
    let mut untraced_ns = Vec::with_capacity(passes);
    for pass in 0..passes {
        untraced_ns.push(timed_pass(&mut sw, packets, &mut out, &mut batch_ns) as f64);
        tr.set_op(pass as u32 + 1);
        tr.span("pass", |tr| {
            let mut index = 0u64;
            for chunk in packets.chunks(BATCH) {
                tr.span("dataplane.process_batch", |_| {
                    sw.process_batch_indexed(chunk, index, &mut out);
                    std::hint::black_box(&mut out);
                });
                index += chunk.len() as u64;
            }
        });
    }

    // Per-call probes over the head of the packet stream.
    let probe = &packets[..sizes.probe_packets.min(packets.len())];
    let n = probe.len() as f64;
    tr.set_op(passes as u32 + 1);
    let mut fast = sw.clone();
    let stats_before = fast.stats();
    let before = mem::mark();
    tr.span("dataplane.process", |_| {
        for (i, (pkt, ingress)) in probe.iter().enumerate() {
            std::hint::black_box(fast.process(pkt, *ingress, i as u64));
        }
    });
    let (allocs, alloc_bytes) = mem::mark().since(&before);
    let stats = stats_since(&fast.stats(), &stats_before);

    let plan = EvalPlan::build(sw.spec(), sw.compiled(), sw.pipeline());
    let mut state = StateStore::new(SwitchConfig::default().default_window_us);
    for reg in &statics.registers {
        state.allocate(&reg.name, reg.window_us);
    }
    let mut values: Vec<Option<Value>> = vec![None; lowered.slots().len()];
    let mut counters = EvalCounters::default();
    // Evaluate what the switch evaluates for each packet: every
    // message, or the bare stack when the application has none.
    // `keep`, when given, receives the slot values of each evaluation.
    let mut eval_all = |keep: Option<&mut Vec<Vec<Option<Value>>>>| -> usize {
        let mut keep = keep;
        let mut evals = 0;
        for (i, (pkt, _)) in probe.iter().enumerate() {
            let messages = plan.message_count(pkt);
            for m in 0..messages.max(1) {
                let off = (messages > 0).then(|| plan.msg_offset(m));
                let id =
                    plan.eval(&lowered, &mut state, &mut values, pkt, off, i as u64, &mut counters);
                std::hint::black_box(id);
                if let Some(keep) = keep.as_deref_mut() {
                    keep.push(values.clone());
                }
                evals += 1;
            }
        }
        evals
    };
    let evals = tr.span("dataplane.eval_plan", |_| eval_all(None));
    // The same evaluations again, off the clock, keeping the slot
    // values each one extracted: the dispatch probe's input.
    let mut extracted: Vec<Vec<Option<Value>>> = Vec::with_capacity(evals);
    eval_all(Some(&mut extracted));
    tr.span("core.dispatch", |_| {
        for v in &extracted {
            std::hint::black_box(lowered.eval(v));
        }
    });
    let mut reference = sw.clone();
    tr.span("dataplane.reference", |_| {
        for (i, (pkt, ingress)) in probe.iter().enumerate() {
            std::hint::black_box(reference.process_reference(pkt, *ingress, i as u64));
        }
    });
    let telemetry_pct = telemetry_overhead_pct(&sw, packets, passes.max(5));
    mem::set_counting(false);

    let per_call = |name: &str, calls: f64| tr.total_ns(name) as f64 / calls;
    let process_ns = per_call("dataplane.process", n);
    let eval_ns = per_call("dataplane.eval_plan", evals as f64);
    let dispatch_ns = per_call("core.dispatch", evals as f64);
    let msgs_per_pkt = stats.messages as f64 / n;
    let traced_pass = Summary::new(tr.durations("pass")).expect("traced passes");
    let untraced_pass = Summary::new(untraced_ns).expect("untraced passes");
    let copies = (stats.shared_copies + stats.deep_copies).max(1) as f64;
    let subs = rules.len() as f64;
    let ms = |name: &str| tr.total_ns(name) as f64 / 1e6;
    let per_layer = vec![
        Metric::new("lang.parse_us", ms("lang.parse") * 1e3 / subs, "us", rules.len()),
        Metric::new("bdd.build_ms", ms("bdd.build"), "ms", 1),
        Metric::new("bdd.live_nodes", compiled.bdd.node_count() as f64, "count", 1),
        Metric::new("core.emit_ms", ms("core.emit"), "ms", 1),
        Metric::new("core.lower_ms", ms("core.lower"), "ms", 1),
        Metric::new("core.dispatch_ns", dispatch_ns, "ns", evals),
        Metric::new("core.table_entries", compiled.report.total_entries as f64, "count", 1),
        Metric::new("core.sram_bits_per_sub", compiled.report.sram_bits as f64 / subs, "bits", 1),
        Metric::new("core.tcam_bits_per_sub", compiled.report.tcam_bits as f64 / subs, "bits", 1),
        Metric::new("dataplane.process_ns", process_ns, "ns", probe.len()),
        Metric::new("dataplane.extract_ns", eval_ns - dispatch_ns, "ns", evals),
        Metric::new("dataplane.action_ns", process_ns - eval_ns * msgs_per_pkt, "ns", probe.len()),
        Metric::new(
            "dataplane.reference_ns",
            per_call("dataplane.reference", n),
            "ns",
            probe.len(),
        ),
        Metric::new("dataplane.install_us", ms("dataplane.install") * 1e3, "us", 1),
        Metric::new("dataplane.msgs_per_pkt", msgs_per_pkt, "count", probe.len()),
        Metric::new("dataplane.copies_per_pkt", stats.copies as f64 / n, "count", probe.len()),
        Metric::new(
            "dataplane.deep_copies_per_pkt",
            stats.deep_copies as f64 / n,
            "count",
            probe.len(),
        ),
        Metric::new(
            "dataplane.shared_copy_ratio",
            stats.shared_copies as f64 / copies,
            "ratio",
            probe.len(),
        ),
        Metric::new(
            "dataplane.entries_scanned_per_msg",
            stats.entries_scanned as f64 / stats.messages.max(1) as f64,
            "count",
            probe.len(),
        ),
        Metric::new(
            "dataplane.recirc_per_pkt",
            stats.recirculation_passes as f64 / n,
            "count",
            probe.len(),
        ),
        Metric::new("dataplane.allocs_per_pkt", allocs as f64 / n, "count", probe.len()),
        Metric::new("dataplane.alloc_bytes_per_pkt", alloc_bytes as f64 / n, "B", probe.len()),
        Metric::new("telemetry.overhead_pct", telemetry_pct, "%", passes.max(5)),
        Metric::new("trace.coverage", tr.coverage("pass").unwrap_or(0.0), "ratio", passes),
        Metric::new(
            "trace.overhead_pct",
            (traced_pass.median() - untraced_pass.median()) / untraced_pass.median() * 100.0,
            "%",
            passes,
        ),
    ];
    let mut notes = vec![format!(
        "traced: {passes} untraced + {passes} traced passes interleaved, per-call probes over \
         {} packets, {} spans",
        probe.len(),
        tr.spans().len()
    )];
    notes.push(tr.save(&cfg.out_dir, kind.name()));
    Outcome {
        attempted: packets.len() as u64,
        failed,
        input_digest: inputs.digest,
        per_layer,
        self_time: tr.by_name(),
        notes,
        ..Outcome::default()
    }
}
