//! `cold-deploy`: the cold path, end to end.
//!
//! [`Controller::deploy`] of identifier-heavy subscriptions (`id == K`,
//! every seventh `and price > t`) on the 72-switch tree: Algorithm 1
//! over everything, a bulk BDD build per switch, table emission,
//! lowering, 72 installs. The BDD is *built* here, not maintained, and
//! memory is a first-class result.

use super::churn::tree;
use super::stages::{self, compile_staged};
use crate::digest::Fnv1a;
use crate::oracle;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{contract_rows, mem, scaled, Metric, Outcome, RunConfig, Tamper};
use camus_core::compiled::CompiledPipeline;
use camus_core::pipeline::Pipeline;
use camus_core::statics::compile_static;
use camus_dataplane::{Packet, PacketBuilder, Switch, SwitchConfig};
use camus_lang::ast::{Expr, Rule};
use camus_lang::parser::parse_expr;
use camus_lang::spec::Spec;
use camus_lang::value::Value;
use camus_net::controller::Controller;
use camus_net::{Network, PerfectChannel};
use camus_routing::algorithm1::{Policy, RoutingConfig};
use camus_routing::compile::{NetworkCompile, SwitchCompile};
use camus_routing::topology::{FaultMask, HierNet};
use rand::prelude::*;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub subs: usize,
    /// Timed deploys, each on fresh state, in a run of the pinned length.
    pub reps: usize,
    /// Publications checked against the oracle after the last deploy.
    pub probes: usize,
    /// Set-up repetitions behind the `setup_s` median.
    pub setups: usize,
}

impl Sizes {
    pub fn pinned() -> Sizes {
        Sizes { subs: 25_000, reps: 8, probes: 1_000, setups: 31 }
    }
}

const SPEC: &str =
    "header order {\n  @field_exact bit<32> id;\n  @field bit<32> price;\n}\nsequence order\n";

#[derive(Debug, Clone)]
pub struct Probe {
    pub publisher: usize,
    pub values: Vec<(String, Value)>,
}

pub struct Inputs {
    pub net: HierNet,
    /// Per host, the subscription filters as a subscriber writes them.
    pub texts: Vec<Vec<String>>,
    pub probes: Vec<Probe>,
    pub digest: u64,
}

pub fn generate(sizes: &Sizes, seed: u64) -> Inputs {
    let net = tree();
    let hosts = net.host_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let base: i64 = rng.gen_range(0..1 << 20);
    let mut texts: Vec<Vec<String>> = vec![Vec::new(); hosts];
    for i in 0..sizes.subs {
        let id = base + i as i64;
        texts[i % hosts].push(if i % 7 == 0 {
            format!("id == {id} and price > {}", rng.gen_range(0..1_000))
        } else {
            format!("id == {id}")
        });
    }
    // A fifth of the probes carry an id nobody subscribed to.
    let probes: Vec<Probe> = (0..sizes.probes)
        .map(|_| Probe {
            publisher: rng.gen_range(0..hosts),
            values: vec![
                ("id".to_string(), Value::Int(base + rng.gen_range(0..sizes.subs as i64 * 5 / 4))),
                ("price".to_string(), Value::Int(rng.gen_range(0..1_000))),
            ],
        })
        .collect();
    let mut h = Fnv1a::default();
    h.text(SPEC);
    for (host, ts) in texts.iter().enumerate() {
        for t in ts {
            h.u64(host as u64);
            h.text(t);
        }
    }
    for p in &probes {
        h.u64(p.publisher as u64);
        for (k, v) in &p.values {
            h.text(k);
            h.text(&v.to_string());
        }
    }
    Inputs { net, texts, probes, digest: h.finish() }
}

pub fn parse_spec() -> Spec {
    Spec::parse(SPEC).expect("the two-field spec parses")
}

pub fn parse_subs(texts: &[Vec<String>]) -> Vec<Vec<Expr>> {
    texts
        .iter()
        .map(|ts| ts.iter().map(|t| parse_expr(t).expect("generated filter parses")).collect())
        .collect()
}

/// The product's set-up before the first deploy: parse every
/// subscription, parse and statically compile the spec.
pub fn set_up(inputs: &Inputs) -> (Controller, Vec<Vec<Expr>>) {
    let subs = parse_subs(&inputs.texts);
    let statics = compile_static(&parse_spec()).expect("the two-field spec compiles");
    (Controller::new(statics, RoutingConfig::new(Policy::MemoryReduction)), subs)
}

pub fn packet(spec: &Spec, values: &[(String, Value)]) -> Packet {
    let mut b = PacketBuilder::new(spec);
    for (field, value) in values {
        b = b.stack_field("order", field, value.clone());
    }
    b.build()
}

pub fn run(sizes: &Sizes, cfg: &RunConfig) -> Outcome {
    let inputs = generate(sizes, cfg.seed);
    if cfg.trace {
        return traced(sizes, cfg, &inputs);
    }

    let mut setup_s = Vec::with_capacity(sizes.setups);
    let mut ready = None;
    for _ in 0..sizes.setups.max(1) {
        let t = Instant::now();
        ready = Some(set_up(&inputs));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (ctrl, subs) = ready.expect("at least one set-up");

    // The oracle always judges by what the subscribers asked for.
    let mut deployed = subs.clone();
    if cfg.tamper == Tamper::DropHost {
        let hit = inputs
            .probes
            .iter()
            .find_map(|p| oracle::expected_hosts(&subs, &p.values, p.publisher).first().copied())
            .expect("some probe matches a subscription");
        deployed[hit].clear();
    }

    let reps = scaled(sizes.reps, cfg.seconds, 3);
    let mut deploy_s = Vec::with_capacity(reps);
    let mut deployment = None;
    for _ in 0..reps {
        // Fresh state: the previous deployment is gone before the
        // clock starts.
        drop(deployment.take());
        let t = Instant::now();
        let d = ctrl.deploy(inputs.net.clone(), &deployed).expect("cold deploy");
        deploy_s.push(t.elapsed().as_secs_f64());
        deployment = Some(d);
    }
    let mut deployment = deployment.expect("at least one deploy");

    let spec = ctrl.statics.spec.clone();
    let failed = check_probes(&mut deployment.network, &spec, &subs, &inputs.probes, None);

    let setup = Summary::new(setup_s).expect("set-up samples");
    let deploy = Summary::new(deploy_s).expect("deploy samples");
    let entries = deployment.compile.total_entries();
    let setup = Metric::new("setup_s", setup.median(), "s", setup.count());
    let contract = contract_rows(
        &setup,
        (sizes.subs as f64 / deploy.median(), deploy.count()),
        (deploy.median() * 1e6, deploy.count()),
    );
    Outcome {
        attempted: inputs.probes.len() as u64,
        failed,
        input_digest: inputs.digest,
        end_to_end: vec![
            setup,
            Metric::new("cold_deploy_s", deploy.median(), "s", deploy.count()),
            contract[3].clone(),
        ],
        contract,
        notes: vec![format!(
            "{} subscriptions on {} switches / {} hosts, {reps} deploys on fresh state, {} table \
             entries installed, {} probe publications; one generator thread, closed loop, the \
             product's compile pool; in-process Network model, no real link",
            sizes.subs,
            inputs.net.switch_count(),
            inputs.net.host_count(),
            entries,
            inputs.probes.len(),
        )],
        ..Outcome::default()
    }
}

/// Publish every probe into `net` and count those the oracle rejects;
/// with a tracer, each publication runs inside a `net.publish` span.
fn check_probes(
    net: &mut Network,
    spec: &Spec,
    subs: &[Vec<Expr>],
    probes: &[Probe],
    mut tr: Option<&mut Tracer>,
) -> u64 {
    let mut failed = 0;
    for p in probes {
        let want = oracle::expected_hosts(subs, &p.values, p.publisher);
        let pkt = packet(spec, &p.values);
        let ok = match tr.as_deref_mut() {
            Some(tr) => {
                tr.span("net.publish", |_| oracle::probe_delivers(net, p.publisher, pkt, &want))
            }
            None => oracle::probe_delivers(net, p.publisher, pkt, &want),
        };
        failed += u64::from(!ok);
    }
    failed
}

/// The traced run: one `Controller::deploy` off the trace as the
/// reference, then the same deploy replayed stage by stage against a
/// second deployment — route, rule lists, fingerprints, and per switch
/// BDD build, table emission and resource accounting, then one install
/// transaction — so the children of one `deploy` span account for it.
fn traced(sizes: &Sizes, cfg: &RunConfig, inputs: &Inputs) -> Outcome {
    let (ctrl, subs) = set_up(inputs);
    let spec = ctrl.statics.spec.clone();
    let n = inputs.net.switch_count();
    let mut tr = Tracer::with_capacity(8 * n + 2 * inputs.probes.len() + 64);

    // The reference: what the untraced run times, once.
    let t = Instant::now();
    let mut reference = ctrl.deploy(inputs.net.clone(), &subs).expect("cold deploy");
    let reference_ns = t.elapsed().as_nanos() as f64;
    let product = (
        reference.compile.recompiled,
        reference.compile.reused,
        reference.compile.distinct_compiles,
    );
    let mut failed = check_probes(&mut reference.network, &spec, &subs, &inputs.probes, None);
    drop(reference);

    // The same deploy once more with the heap counters on, for the
    // memory rows only: two compile threads bumping shared counters
    // on every allocation slow it far too much to time.
    mem::set_counting(true);
    mem::reset_peak();
    let heap_before = mem::mark();
    let counted = ctrl.deploy(inputs.net.clone(), &subs).expect("cold deploy");
    let heap_after = mem::mark();
    let peak_heap = mem::peak_bytes().saturating_sub(heap_before.live);
    mem::set_counting(false);
    drop(counted);

    // Operation 0: the replay. Its switches boot empty, as a fresh
    // deploy's do, outside the span.
    let empty = vec![Vec::new(); inputs.net.host_count()];
    let mut replay = ctrl.deploy(inputs.net.clone(), &empty).expect("empty deploy");
    tr.set_op(0);
    tr.span("lang.parse", |_| std::hint::black_box(parse_subs(&inputs.texts)));
    let mut bdd_nodes = (0usize, 0usize, 0u64);
    let mut table = (0usize, 0u64, 0u64);
    let mut pipelines = Vec::with_capacity(n);
    let stats = tr.span("deploy", |tr| {
        let started = Instant::now();
        let routing = tr.span("routing.route", |_| {
            ctrl.plan_routing(&inputs.net, &subs, &FaultMask::default())
        });
        let route_ns = started.elapsed().as_nanos() as u64;
        let lists: Vec<Vec<Rule>> =
            tr.span("routing.rules", |_| (0..n).map(|s| routing.switch_rules(s)).collect());
        let fingerprints: Vec<u64> = tr.span("routing.fingerprint", |_| {
            (0..n).map(|s| routing.switch_fingerprint(s)).collect()
        });
        // `compile_network` compiles every switch, identical lists
        // included; so does the replay.
        let compile_started = Instant::now();
        let switches: Vec<SwitchCompile> = (0..n)
            .map(|s| {
                let t = Instant::now();
                let compiled = compile_staged(tr, &lists[s], &ctrl.statics);
                let gc = compiled.bdd.gc_stats();
                bdd_nodes.0 = bdd_nodes.0.max(compiled.bdd.node_count());
                bdd_nodes.1 =
                    bdd_nodes.1.max(gc.peak_allocated.max(compiled.bdd.allocated_nodes()));
                bdd_nodes.2 += gc.runs;
                table.0 += compiled.report.total_entries;
                table.1 += compiled.report.sram_bits;
                table.2 += compiled.report.tcam_bits;
                pipelines.push(compiled.pipeline.clone());
                SwitchCompile {
                    switch: s,
                    entries: compiled.pipeline.total_entries(),
                    elapsed: t.elapsed(),
                    fingerprint: fingerprints[s],
                    reused: false,
                    compiled: Arc::new(compiled),
                }
            })
            .collect();
        let compile = NetworkCompile {
            switches,
            elapsed: compile_started.elapsed(),
            recompiled: n,
            reused: 0,
            distinct_compiles: n,
        };
        tr.span("net.install", |_| {
            ctrl.install(&mut replay, routing, compile, route_ns, &mut PerfectChannel)
                .expect("replay install")
        })
    });
    let events_before = replay.network.stats().events;
    tr.set_op(1);
    failed += check_probes(&mut replay.network, &spec, &subs, &inputs.probes, Some(&mut tr));
    let events = replay.network.stats().events - events_before;

    // Probes beside the replay: lowering and the single-switch install
    // are inside `net.install` above and cannot be seen from outside
    // it, so each switch's pipeline goes through them once more here.
    tr.set_op(2);
    let mut sw = Switch::new(&ctrl.statics, Pipeline::empty(), SwitchConfig::default());
    for pipeline in pipelines {
        tr.span("core.lower", |_| std::hint::black_box(CompiledPipeline::lower(&pipeline)));
        tr.span("dataplane.install", |_| {
            stages::install(&mut sw, pipeline);
        });
    }

    let subs_n = sizes.subs as f64;
    let ms = |name: &str| tr.total_ns(name) as f64 / 1e6;
    let replay_ns = tr.total_ns("deploy") as f64;
    let distinct = {
        let mut fps: Vec<u64> = replay.compile.switches.iter().map(|s| s.fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        fps.len()
    };
    let per_layer = vec![
        Metric::new("lang.parse_us", ms("lang.parse") * 1e3 / subs_n, "us", sizes.subs),
        Metric::new("routing.route_ms", ms("routing.route"), "ms", 1),
        Metric::new("routing.rules_ms", ms("routing.rules"), "ms", n),
        Metric::new("routing.fingerprint_ms", ms("routing.fingerprint"), "ms", n),
        Metric::new(
            "routing.compile_ms",
            ms("bdd.build") + ms("core.emit") + ms("core.resources"),
            "ms",
            n,
        ),
        Metric::new("routing.recompiled", product.0 as f64, "count", 1),
        Metric::new("routing.reused", product.1 as f64, "count", 1),
        Metric::new("routing.distinct_compiles", product.2 as f64, "count", 1),
        Metric::new("routing.cache_hit_ratio", product.1 as f64 / n as f64, "ratio", 1),
        Metric::new("bdd.build_ms", ms("bdd.build"), "ms", n),
        Metric::new("bdd.live_nodes", bdd_nodes.0 as f64, "count", 1),
        Metric::new("bdd.peak_alloc_nodes", bdd_nodes.1 as f64, "count", 1),
        Metric::new("bdd.gc_runs", bdd_nodes.2 as f64, "count", n),
        Metric::new("core.emit_ms", ms("core.emit"), "ms", n),
        Metric::new("core.lower_ms", ms("core.lower"), "ms", n),
        Metric::new("core.table_entries", table.0 as f64, "count", n),
        Metric::new("core.sram_bits_per_sub", table.1 as f64 / subs_n, "bits", n),
        Metric::new("core.tcam_bits_per_sub", table.2 as f64 / subs_n, "bits", n),
        Metric::new("dataplane.install_us", ms("dataplane.install") * 1e3 / n as f64, "us", n),
        Metric::new("net.install_ms", ms("net.install"), "ms", 1),
        Metric::new(
            "net.publish_us",
            ms("net.publish") * 1e3 / inputs.probes.len() as f64,
            "us",
            inputs.probes.len(),
        ),
        Metric::new("net.reinstalled", stats.reinstalled as f64, "count", 1),
        Metric::new("net.control_ops", replay.report.total_attempts() as f64, "count", 1),
        Metric::new(
            "net.events_per_publish",
            events as f64 / inputs.probes.len() as f64,
            "count",
            inputs.probes.len(),
        ),
        Metric::new("mem.peak_heap_mb", peak_heap as f64 / (1 << 20) as f64, "MB", 1),
        Metric::new(
            "mem.heap_kb_per_sub",
            heap_after.live.saturating_sub(heap_before.live) as f64 / 1024.0 / subs_n,
            "KB",
            1,
        ),
        Metric::new("mem.allocs_per_txn", heap_after.since(&heap_before).0 as f64, "count", 1),
        Metric::new("trace.coverage", tr.coverage("deploy").unwrap_or(0.0), "ratio", 1),
        Metric::new(
            "trace.overhead_pct",
            (replay_ns - reference_ns) / reference_ns * 100.0,
            "%",
            1,
        ),
    ];
    let mut notes = vec![format!(
        "traced: one Controller::deploy of {} subscriptions as the reference ({:.3} s), then the \
         same deploy replayed stage by stage on one thread ({:.3} s; the product compiles \
         switches on its pool); {distinct} distinct rule lists among {n} switches; {} spans",
        sizes.subs,
        reference_ns / 1e9,
        replay_ns / 1e9,
        tr.spans().len()
    )];
    notes.push(tr.save(&cfg.out_dir, "cold-deploy"));
    Outcome {
        attempted: 2 * inputs.probes.len() as u64,
        failed,
        input_digest: inputs.digest,
        per_layer,
        self_time: tr.by_name(),
        notes,
        ..Outcome::default()
    }
}
