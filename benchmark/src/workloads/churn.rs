//! `churn-burst`: the incremental control path through the front
//! door.
//!
//! A 72-switch tree carries Siena subscriptions; bursts of subscribe
//! and unsubscribe requests go through [`CamusService`] one at a time
//! (closed loop): intake, routing, delta compile on maintained BDDs,
//! transactional install, and the service's own post-commit probes.
//! One burst is one deterministic transaction, unlike a Poisson lane
//! whose compile count varies from run to run.

use super::stages;
use crate::digest::Fnv1a;
use crate::oracle;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{contract_rows, mem, scaled, Metric, Outcome, RunConfig};
use camus_bdd::IncrementalBdd;
use camus_core::compiled::CompiledPipeline;
use camus_core::multicast::MulticastAllocator;
use camus_core::pipeline::Pipeline;
use camus_core::statics::compile_static;
use camus_core::tables::bdd_to_pipeline;
use camus_dataplane::{Packet, PacketBuilder, Switch, SwitchConfig};
use camus_lang::ast::{Action, Expr, Rule};
use camus_lang::parser::parse_expr;
use camus_lang::spec::Spec;
use camus_lang::value::{Type, Value};
use camus_net::controller::{Controller, Deployment, RepairStats};
use camus_net::PerfectChannel;
use camus_routing::algorithm1::{Policy, RoutingConfig};
use camus_routing::compile::DeltaCache;
use camus_routing::topology::{three_layer, HierNet};
use camus_service::{AuditProbe, CamusService, RequestOp, ServiceConfig};
use camus_workloads::siena::{SienaConfig, SienaGenerator};
use rand::prelude::*;
use std::collections::HashSet;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Subscriptions deployed before the first burst.
    pub subs: usize,
    /// Timed bursts in a run of the pinned length, over all services.
    pub bursts: usize,
    pub subscribes: usize,
    pub unsubscribes: usize,
    /// Probes the service republishes after every commit.
    pub audit_probes: usize,
    /// Independent services the bursts are dealt over; each set-up is
    /// one `setup_s` sample.
    pub setups: usize,
}

impl Sizes {
    pub fn pinned() -> Sizes {
        Sizes {
            subs: 1_024,
            bursts: 300,
            subscribes: 6,
            unsubscribes: 2,
            audit_probes: 4,
            setups: 4,
        }
    }

    /// Bursts each service replays in a run scaled to `seconds`.
    pub fn bursts_per_service(&self, seconds: u32) -> usize {
        let services = self.setups.max(1);
        scaled(self.bursts, seconds, services).div_ceil(services)
    }
}

/// The churn testbed: 8 pods x 4 ToRs x 4 hosts = 128 hosts, 72
/// switches.
pub fn tree() -> HierNet {
    three_layer(8, 4, 4, 8, 4)
}

/// A publication crafted to match one filter.
#[derive(Debug, Clone)]
pub struct Probe {
    pub publisher: usize,
    pub values: Vec<(String, Value)>,
    pub packet: Packet,
}

/// One burst: requests sharing one modelled arrival stamp, and the
/// two publications that test it.
#[derive(Debug, Clone)]
pub struct Burst {
    pub at_ns: u64,
    pub requests: Vec<(usize, RequestOp)>,
    /// Matches a filter this burst added.
    pub added: Probe,
    /// Matches a filter this burst removed.
    pub removed: Probe,
}

pub struct Inputs {
    pub net: HierNet,
    pub spec: Spec,
    pub initial: Vec<Vec<Expr>>,
    pub audit: Vec<AuditProbe>,
    /// Untimed bursts that touch every ToR, so every maintained
    /// diagram exists before the first timed burst.
    pub warmup: Vec<Burst>,
    pub bursts: Vec<Burst>,
    /// Subscription state after every burst, warm-up included.
    pub final_subs: Vec<Vec<Expr>>,
    pub digest: u64,
}

/// Which attributes are strings is part of the workload, not of its
/// random draw: `attr0` (the anchor) and `attr1` are integers, `attr2`
/// is a string.
const STRING_ATTRS: [bool; 3] = [false, false, true];

fn siena(seed: u64) -> SienaGenerator {
    // The generator derives its attribute typing from its seed, and an
    // all-integer workload costs something else than one with a string
    // anchor. Step the seed until the typing is the pinned one (one
    // seed in seven has it).
    (0u64..)
        .map(|k| {
            // The shape of the `churn` and `service` experiments: a
            // Zipf-skewed anchor universe, two predicates per filter.
            SienaGenerator::new(SienaConfig {
                predicates_per_filter: 2,
                n_attributes: STRING_ATTRS.len(),
                string_fraction: 0.25,
                anchor_universe: 400,
                anchor_skew: 0.5,
                seed: seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..Default::default()
            })
        })
        .find(|g| {
            let spec = g.spec();
            let fields = &spec.header("siena").expect("the generator's header").fields;
            fields.iter().map(|f| f.ty == Type::Str).eq(STRING_ATTRS)
        })
        .expect("some seed yields the pinned typing")
}

fn probe(g: &mut SienaGenerator, spec: &Spec, filter: &Expr, host: usize, hosts: usize) -> Probe {
    let mut b = PacketBuilder::new(spec);
    for (field, value) in g.matching_packet(filter) {
        b = b.stack_field("siena", &field, value);
    }
    let packet = b.build();
    // The oracle judges by what is on the wire: a witness the 32-bit
    // fields cannot carry (`attr < 0` has none that they can) must not
    // count as a match.
    let mut values: Vec<(String, Value)> =
        packet.stack_header(spec, "siena").expect("siena header decodes").into_iter().collect();
    values.sort_by(|a, b| a.0.cmp(&b.0));
    // Publish from the far end of the host range so the probe has to
    // cross the tree.
    Probe { publisher: (host + hosts / 2) % hosts, values, packet }
}

pub fn generate(sizes: &Sizes, seed: u64, bursts: usize) -> Inputs {
    let net = tree();
    let hosts = net.host_count();
    let mut g = siena(seed);
    let spec = g.spec();
    let mut live: Vec<Vec<Expr>> = vec![Vec::new(); hosts];
    for (i, f) in g.filters(sizes.subs).into_iter().enumerate() {
        live[i % hosts].push(f);
    }
    let initial = live.clone();
    let audit = (0..hosts)
        .filter_map(|h| initial[h].first().map(|f| (h, f)))
        .take(sizes.audit_probes)
        .map(|(h, f)| {
            let p = probe(&mut g, &spec, f, h, hosts);
            AuditProbe { publisher: p.publisher, packet: p.packet, values: p.values }
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0_5757);
    let per_burst = sizes.subscribes + sizes.unsubscribes;
    let hosts_per_tor = hosts / net.switches.iter().filter(|s| s.layer == 0).count();
    let warmup_bursts = (hosts / hosts_per_tor).div_ceil(per_burst);
    let mut all = Vec::with_capacity(warmup_bursts + bursts);
    for b in 0..warmup_bursts + bursts {
        let warm = b < warmup_bursts;
        let mut requests = Vec::with_capacity(per_burst);
        // Unsubscribes name filters that were live before the burst.
        let mut removed = None;
        for _ in 0..if warm { 0 } else { sizes.unsubscribes } {
            let host = loop {
                let h = rng.gen_range(0..hosts);
                if !live[h].is_empty() {
                    break h;
                }
            };
            let at = rng.gen_range(0..live[host].len());
            let f = live[host].remove(at);
            removed.get_or_insert((host, f.clone()));
            requests.push((host, RequestOp::Unsubscribe(f)));
        }
        let mut added = None;
        for k in 0..if warm { per_burst } else { sizes.subscribes } {
            // Warm-up walks the ToRs in order; timed bursts pick hosts
            // at random.
            let host = if warm {
                ((b * per_burst + k) * hosts_per_tor) % hosts
            } else {
                rng.gen_range(0..hosts)
            };
            let f = g.filter();
            added.get_or_insert((host, f.clone()));
            live[host].push(f.clone());
            requests.push((host, RequestOp::Subscribe(f)));
        }
        let (ah, af) = added.expect("every burst subscribes");
        let (rh, rf) = removed.unwrap_or((ah, af.clone()));
        all.push(Burst {
            at_ns: (b as u64 + 1) * 1_000_000_000,
            requests,
            added: probe(&mut g, &spec, &af, ah, hosts),
            removed: probe(&mut g, &spec, &rf, rh, hosts),
        });
    }

    let mut h = Fnv1a::default();
    for (host, fs) in initial.iter().enumerate() {
        for f in fs {
            h.u64(host as u64);
            h.text(&f.to_string());
        }
    }
    for b in &all {
        h.u64(b.at_ns);
        for (host, op) in &b.requests {
            h.u64(*host as u64);
            match op {
                RequestOp::Subscribe(f) => h.text(&format!("+{f}")),
                RequestOp::Unsubscribe(f) => h.text(&format!("-{f}")),
            }
        }
        for p in [&b.added, &b.removed] {
            h.u64(p.publisher as u64);
            h.bytes(p.packet.bytes.as_slice());
        }
    }
    let bursts = all.split_off(warmup_bursts);
    Inputs { net, spec, initial, audit, warmup: all, bursts, final_subs: live, digest: h.finish() }
}

pub fn controller(spec: &Spec) -> Controller {
    let statics = compile_static(spec).expect("siena spec compiles");
    Controller::new(statics, RoutingConfig::new(Policy::MemoryReduction))
}

/// What the service reported for one burst.
#[derive(Debug, Clone, Default)]
pub struct Landed {
    /// Ids the service assigned to the burst's requests.
    pub ids: Vec<u64>,
    /// Ids it reported in a committed transaction whose post-commit
    /// probes were clean.
    pub committed: Vec<u64>,
    /// Modelled ns from the transactions' stamps: batching window,
    /// route + compile, and time spent waiting for a stage.
    pub window_ns: u64,
    pub compile_ns: u64,
    pub wait_ns: u64,
}

/// Send one burst and wait for it to land.
pub fn send(svc: &mut CamusService, burst: &Burst) -> Landed {
    let mut landed = Landed {
        ids: burst
            .requests
            .iter()
            .map(|(host, op)| svc.request(*host, op.clone(), burst.at_ns))
            .collect(),
        ..Landed::default()
    };
    for r in svc.drain() {
        landed.window_ns += r.closed_ns - r.opened_ns;
        landed.compile_ns += r.compiled_ns - r.compile_start_ns;
        landed.wait_ns += (r.compile_start_ns - r.closed_ns) + (r.install_start_ns - r.compiled_ns);
        if r.committed && r.audit.is_none_or(|a| a.clean()) {
            landed.committed.extend(r.requests.iter().map(|s| s.request));
        }
    }
    landed
}

/// The product's set-up: static compile, cold deploy of the initial
/// subscriptions, service start, and the warm-up bursts.
pub fn set_up(inputs: &Inputs) -> CamusService {
    let ctrl = controller(&inputs.spec);
    let deployment = ctrl.deploy(inputs.net.clone(), &inputs.initial).expect("initial deploy");
    let cfg = ServiceConfig { probes: inputs.audit.clone(), ..ServiceConfig::default() };
    let mut svc = CamusService::start(
        ctrl,
        deployment,
        inputs.initial.clone(),
        Box::new(PerfectChannel),
        cfg,
    );
    for b in &inputs.warmup {
        send(&mut svc, b);
    }
    svc
}

/// Multiset equality of two hosts' filter lists.
fn same_filters(a: &[Expr], b: &[Expr]) -> bool {
    let mut a: Vec<String> = a.iter().map(|f| f.to_string()).collect();
    let mut b: Vec<String> = b.iter().map(|f| f.to_string()).collect();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

pub fn run(sizes: &Sizes, cfg: &RunConfig) -> Outcome {
    if cfg.trace {
        return traced(sizes, cfg);
    }
    // Every set-up starts an independent service on a fresh deploy, and
    // each replays the same bursts: a run's numbers pool several draws
    // of whatever differs between two instances of the product (hash
    // order, thread placement) instead of carrying one.
    let instances = sizes.setups.max(1);
    let bursts = sizes.bursts_per_service(cfg.seconds);
    let inputs = generate(sizes, cfg.seed, bursts);

    let mut setup_s = Vec::with_capacity(instances);
    let mut ttt_ms = Vec::with_capacity(instances * bursts);
    let (mut attempted, mut failed, mut accepted) = (0u64, 0u64, 0usize);
    let mut region_s = 0.0;
    let mut service_notes = String::new();
    for _ in 0..instances {
        let t = Instant::now();
        let mut svc = set_up(&inputs);
        setup_s.push(t.elapsed().as_secs_f64());

        let mut requested: Vec<u64> = Vec::new();
        let mut committed: HashSet<u64> = HashSet::new();
        let region = Instant::now();
        for burst in &inputs.bursts {
            let t = Instant::now();
            let landed = send(&mut svc, burst);
            ttt_ms.push(t.elapsed().as_secs_f64() * 1e3);
            requested.extend(landed.ids);
            committed.extend(landed.committed);
        }
        region_s += region.elapsed().as_secs_f64();

        // A request fails when no committed, audit-clean transaction
        // reports it.
        attempted += requested.len() as u64;
        failed += requested.iter().filter(|id| !committed.contains(id)).count() as u64;
        accepted += committed.len();

        // The service owns the network while it runs, so the per-burst
        // publications are checked on the network it hands back: every
        // added filter still live must deliver, every removed one must
        // not, exactly as the final subscription state says.
        let mut out = svc.shutdown();
        let clean = out.errors.is_empty()
            && out.lost_requests.is_empty()
            && out.subs.len() == inputs.final_subs.len()
            && out.subs.iter().zip(&inputs.final_subs).all(|(a, b)| same_filters(a, b));
        attempted += 1;
        failed += u64::from(!clean);
        for burst in &inputs.bursts {
            for p in [&burst.added, &burst.removed] {
                let want = oracle::expected_hosts(&inputs.final_subs, &p.values, p.publisher);
                let ok = oracle::probe_delivers(
                    &mut out.deployment.network,
                    p.publisher,
                    p.packet.clone(),
                    &want,
                );
                attempted += 1;
                failed += u64::from(!ok);
            }
        }
        service_notes = format!(
            "each service: {} batches, {} compiles, {} noops, {} committed txns, {} audit probes",
            out.stats.batches,
            out.stats.compiles,
            out.stats.noops,
            out.stats.committed_txns,
            out.stats.audit.probes
        );
    }

    let setup = Summary::new(setup_s).expect("set-up samples");
    let ttt = Summary::new(ttt_ms).expect("burst samples");
    let mut end_to_end = vec![
        Metric::new("setup_s", setup.median(), "s", setup.count()),
        Metric::new("sub_ttt_ms_p50", ttt.median(), "ms", ttt.count()),
    ];
    let mut notes = vec![
        format!(
            "{} subscriptions on {} switches / {} hosts, then {bursts} bursts of {}+{} requests \
             ({} warm-up bursts untimed), on each of {instances} services set up independently; \
             one generator thread, closed loop, CamusService stage threads; in-process Network \
             model, PerfectChannel, no real link",
            sizes.subs,
            inputs.net.switch_count(),
            inputs.net.host_count(),
            sizes.subscribes,
            sizes.unsubscribes,
            inputs.warmup.len(),
        ),
        service_notes,
    ];
    match ttt.percentile(95.0) {
        Ok(p95) => end_to_end.push(Metric::new("sub_ttt_ms_p95", p95, "ms", ttt.count())),
        Err(e) => notes.push(format!("sub_ttt_ms_p95 not reported: {e}")),
    }
    let ops_per_s = accepted as f64 / region_s;
    let contract =
        contract_rows(&end_to_end[0], (ops_per_s, accepted), (ttt.median() * 1e3, ttt.count()));
    end_to_end.push(Metric::new("sub_ops_per_s", ops_per_s, "ops/s", accepted));
    end_to_end.push(contract[3].clone());
    Outcome {
        attempted,
        failed,
        input_digest: inputs.digest,
        end_to_end,
        contract,
        notes,
        ..Outcome::default()
    }
}

/// Apply a burst's requests to a subscription state.
fn apply(live: &mut [Vec<Expr>], burst: &Burst) {
    for (host, op) in &burst.requests {
        match op {
            RequestOp::Subscribe(f) => live[*host].push(f.clone()),
            RequestOp::Unsubscribe(f) => {
                let at = live[*host]
                    .iter()
                    .position(|g| g == f)
                    .expect("unsubscribes name live filters");
                live[*host].remove(at);
            }
        }
    }
}

/// The controller's own steps for one subscription state, called
/// directly: route, delta compile against the installed state, install.
struct Replay {
    ctrl: Controller,
    deployment: Deployment,
    cache: DeltaCache,
}

impl Replay {
    fn step(&mut self, live: &[Vec<Expr>], tr: &mut Tracer) -> RepairStats {
        let net = self.deployment.network.topology.clone();
        let mask = self.deployment.network.fault_mask().clone();
        let started = Instant::now();
        let routing = tr.span("routing.route", |_| self.ctrl.plan_routing(&net, live, &mask));
        let route_ns = started.elapsed().as_nanos() as u64;
        let compile = tr.span("routing.compile", |_| {
            self.ctrl
                .compile_routing_delta(&routing, Some(&self.deployment.compile), &mut self.cache)
                .expect("delta compile")
        });
        tr.span("net.install", |_| {
            self.ctrl
                .install(&mut self.deployment, routing, compile, route_ns, &mut PerfectChannel)
                .expect("replay install")
        })
    }
}

/// The traced run: a tenth of the bursts. Each goes through the
/// service inside one span, then the same delta is replayed against a
/// second controller, deployment and delta cache step by step — parse,
/// route, delta compile, install, the burst's two publications — so
/// the children of one `replay` span account for it. Beside the replay,
/// probes time the calls a delta compile makes internally, on the most
/// loaded switch's rule list.
fn traced(sizes: &Sizes, cfg: &RunConfig) -> Outcome {
    // The whole schedule is generated so the inputs — and their digest
    // — are the untraced run's; the trace covers its head.
    let inputs = generate(sizes, cfg.seed, sizes.bursts_per_service(cfg.seconds));
    let counted = 3.min(inputs.bursts.len() / 2);
    let traced = (inputs.bursts.len() / 10).max(2).min(inputs.bursts.len() - counted);
    let n = inputs.net.switch_count();
    let mut tr = Tracer::with_capacity(traced * 24 + 64);

    let mut svc = set_up(&inputs);
    let ctrl = controller(&inputs.spec);
    let mut live = inputs.initial.clone();
    let deployment = ctrl.deploy(inputs.net.clone(), &live).expect("initial deploy");
    let mut replay = Replay { ctrl, deployment, cache: DeltaCache::new() };
    let mut unrecorded = Tracer::with_capacity(8 * (inputs.warmup.len() + counted));
    for b in &inputs.warmup {
        apply(&mut live, b);
        replay.step(&live, &mut unrecorded);
    }

    // A few bursts through the service with the heap counters on, for
    // the memory rows only; the replay follows without them.
    let mut requested: Vec<u64> = Vec::new();
    let mut committed: HashSet<u64> = HashSet::new();
    mem::reset_peak();
    let heap_before = mem::mark();
    for b in &inputs.bursts[..counted] {
        mem::set_counting(true);
        let landed = send(&mut svc, b);
        mem::set_counting(false);
        requested.extend(landed.ids);
        committed.extend(landed.committed);
        apply(&mut live, b);
        replay.step(&live, &mut unrecorded);
    }
    let (allocs, _) = mem::mark().since(&heap_before);
    let peak_heap = mem::peak_bytes().saturating_sub(heap_before.live);

    // The most loaded switch's rule list, as a maintained diagram and
    // a stand-alone switch, for the probes.
    let hottest = (0..n)
        .max_by_key(|&s| replay.deployment.routing.switch_filter_count(s))
        .expect("the tree has switches");
    let statics = replay.ctrl.statics.clone();
    let mut inc = IncrementalBdd::from_rules(
        &replay.deployment.routing.switch_rules(hottest),
        &statics.var_order(),
    );
    let mut sw = Switch::new(&statics, Pipeline::empty(), SwitchConfig::default());

    let mut failed = 0u64;
    let mut attempted = 0u64;
    let (mut bare_ms, mut landed_all) = (Vec::new(), Vec::new());
    let mut install_stats = Vec::with_capacity(traced);
    let events_before = replay.deployment.network.stats().events;
    for (i, burst) in inputs.bursts[counted..counted + traced].iter().enumerate() {
        tr.set_op(i as u32);
        // Odd bursts go unspanned, timed by a bare clock: the
        // difference is what a span costs.
        let landed = if i % 2 == 0 {
            tr.span("service.burst", |_| send(&mut svc, burst))
        } else {
            let t = Instant::now();
            let landed = send(&mut svc, burst);
            bare_ms.push(t.elapsed().as_secs_f64() * 1e3);
            landed
        };
        requested.extend(landed.ids.iter().copied());
        committed.extend(landed.committed.iter().copied());
        landed_all.push(landed);

        apply(&mut live, burst);
        tr.span("replay", |tr| {
            tr.span("lang.parse", |_| {
                for (_, op) in &burst.requests {
                    let (RequestOp::Subscribe(f) | RequestOp::Unsubscribe(f)) = op;
                    std::hint::black_box(
                        parse_expr(&f.to_string()).expect("filters print as they parse"),
                    );
                }
            });
            install_stats.push(replay.step(&live, tr));
            for p in [&burst.added, &burst.removed] {
                let want = oracle::expected_hosts(&live, &p.values, p.publisher);
                let net = &mut replay.deployment.network;
                let ok = tr.span("net.publish", |_| {
                    oracle::probe_delivers(net, p.publisher, p.packet.clone(), &want)
                });
                attempted += 1;
                failed += u64::from(!ok);
            }
        });

        tr.span("probes", |tr| {
            let routing = &replay.deployment.routing;
            tr.span("routing.rules", |_| {
                (0..n).for_each(|s| {
                    std::hint::black_box(routing.switch_rules(s));
                })
            });
            tr.span("routing.fingerprint", |_| {
                (0..n).for_each(|s| {
                    std::hint::black_box(routing.switch_fingerprint(s));
                })
            });
            let (_, RequestOp::Subscribe(f) | RequestOp::Unsubscribe(f)) = &burst.requests[0];
            let rule = Rule { filter: f.clone(), action: Action::Forward(vec![1]) };
            tr.span("bdd.maintain", |_| {
                let digest = inc.insert_rule(&rule);
                assert!(inc.remove_by_digest(digest), "a rule just inserted removes");
            });
            let snapshot = tr.span("bdd.snapshot", |_| inc.snapshot());
            let mut multicast = MulticastAllocator::new(MulticastAllocator::DEFAULT_LIMIT);
            let pipeline = tr
                .span("core.emit", |_| bdd_to_pipeline(&snapshot, &mut multicast))
                .expect("the hottest list fits the multicast budget");
            tr.span("core.lower", |_| std::hint::black_box(CompiledPipeline::lower(&pipeline)));
            tr.span("dataplane.install", |_| {
                stages::install(&mut sw, pipeline);
            });
        });
    }
    let events = replay.deployment.network.stats().events - events_before;
    let live_nodes = inc.live_nodes();
    let gc = inc.bdd().gc_stats();
    let peak_alloc = gc.peak_allocated.max(inc.bdd().allocated_nodes());

    // The service's network must have ended where the replay's did:
    // the replay's per-burst publications then speak for both.
    let out = svc.shutdown();
    attempted += requested.len() as u64 + 1;
    failed += requested.iter().filter(|id| !committed.contains(id)).count() as u64;
    let same_programs = out.errors.is_empty()
        && out
            .deployment
            .compile
            .switches
            .iter()
            .zip(&replay.deployment.compile.switches)
            .all(|(a, b)| a.fingerprint == b.fingerprint);
    failed += u64::from(!same_programs);

    let median_ms = |name: &str| Summary::new(tr.durations(name)).map_or(0.0, |s| s.median() / 1e6);
    let median_of = |xs: Vec<f64>| Summary::new(xs).map_or(0.0, |s| s.median());
    let stamp_ms =
        |f: fn(&Landed) -> u64| median_of(landed_all.iter().map(|l| f(l) as f64 / 1e6).collect());
    let stat = |f: fn(&RepairStats) -> usize| {
        median_of(install_stats.iter().map(|s| f(s) as f64).collect())
    };
    let direct_ms =
        median_ms("routing.route") + median_ms("routing.compile") + median_ms("net.install");
    let spanned_ms = median_ms("service.burst");
    let bare_ms = median_of(bare_ms);
    let publishes = (2 * traced) as f64;
    let per_layer = vec![
        Metric::new(
            "lang.parse_us",
            tr.total_ns("lang.parse") as f64
                / 1e3
                / (traced * (sizes.subscribes + sizes.unsubscribes)) as f64,
            "us",
            traced * (sizes.subscribes + sizes.unsubscribes),
        ),
        Metric::new("routing.route_ms", median_ms("routing.route"), "ms", traced),
        Metric::new("routing.rules_ms", median_ms("routing.rules"), "ms", traced),
        Metric::new("routing.fingerprint_ms", median_ms("routing.fingerprint"), "ms", traced),
        Metric::new("routing.compile_ms", median_ms("routing.compile"), "ms", traced),
        Metric::new("routing.recompiled", stat(|s| s.recompiled), "count", traced),
        Metric::new("routing.reused", stat(|s| s.reused), "count", traced),
        Metric::new("routing.distinct_compiles", stat(|s| s.distinct_compiles), "count", traced),
        Metric::new("routing.cache_hit_ratio", stat(|s| s.reused) / n as f64, "ratio", traced),
        Metric::new("bdd.maintain_us", median_ms("bdd.maintain") * 1e3, "us", traced),
        Metric::new("bdd.snapshot_ms", median_ms("bdd.snapshot"), "ms", traced),
        Metric::new("bdd.live_nodes", live_nodes as f64, "count", 1),
        Metric::new("bdd.peak_alloc_nodes", peak_alloc as f64, "count", 1),
        Metric::new("bdd.gc_runs", gc.runs as f64, "count", 1),
        Metric::new("core.emit_ms", median_ms("core.emit"), "ms", traced),
        Metric::new("core.lower_ms", median_ms("core.lower"), "ms", traced),
        Metric::new("dataplane.install_us", median_ms("dataplane.install") * 1e3, "us", traced),
        Metric::new("net.install_ms", median_ms("net.install"), "ms", traced),
        Metric::new("net.publish_us", median_ms("net.publish") * 1e3, "us", 2 * traced),
        Metric::new("net.reinstalled", stat(|s| s.reinstalled), "count", traced),
        Metric::new(
            "net.control_ops",
            replay.deployment.report.total_attempts() as f64,
            "count",
            1,
        ),
        Metric::new("net.events_per_publish", events as f64 / publishes, "count", 2 * traced),
        Metric::new("service.compile_ms", stamp_ms(|l| l.compile_ns), "ms", traced),
        Metric::new("service.wait_ms", stamp_ms(|l| l.wait_ns), "ms", traced),
        Metric::new("service.window_ms", stamp_ms(|l| l.window_ns), "ms", traced),
        Metric::new("service.overhead_ms", spanned_ms - direct_ms, "ms", traced.div_ceil(2)),
        Metric::new("service.batches", out.stats.batches as f64, "count", 1),
        Metric::new("service.compiles", out.stats.compiles as f64, "count", 1),
        Metric::new("service.noops", out.stats.noops as f64, "count", 1),
        Metric::new("service.cancelled_ops", out.stats.cancelled_ops as f64, "count", 1),
        Metric::new("mem.peak_heap_mb", peak_heap as f64 / (1 << 20) as f64, "MB", counted),
        Metric::new("mem.allocs_per_txn", allocs as f64 / counted.max(1) as f64, "count", counted),
        Metric::new("trace.coverage", tr.coverage("replay").unwrap_or(0.0), "ratio", traced),
        Metric::new(
            "trace.overhead_pct",
            if bare_ms > 0.0 { (spanned_ms - bare_ms) / bare_ms * 100.0 } else { 0.0 },
            "%",
            traced,
        ),
    ];
    let mut notes = vec![format!(
        "traced: {traced} bursts through the service (even ones inside a span, odd ones under a \
         bare clock), each then replayed on a second controller + deployment + delta cache; \
         {counted} bursts before them ran with the heap counters on; probes on switch \
         {hottest}'s rule list; {} spans",
        tr.spans().len()
    )];
    notes.push(tr.save(&cfg.out_dir, "churn-burst"));
    Outcome {
        attempted,
        failed,
        input_digest: inputs.digest,
        per_layer,
        self_time: tr.by_name(),
        notes,
        ..Outcome::default()
    }
}
