//! Application 4: hybrid-ICN video streaming (§VIII-C.4, §VIII-E.3).
//!
//! hICN embeds a content identifier in the IPv6 address so content can
//! be served by in-network software forwarders acting as caches. The
//! forwarder helps for *hot* content but is a bottleneck for cold
//! content: a miss pays the forwarder's queue **and** the upstream
//! fetch. The Camus improvement routes a request to the forwarder only
//! when the meter state says a cache hit is likely; cold requests
//! bypass straight upstream.
//!
//! This module models the full path: an LRU content store, a
//! single-server forwarder queue, the upstream producer, and the
//! meter-driven Camus subscriptions (`content_id == HOT: fwd(FWD)` with
//! a `true: fwd(UP)` default) recompiled when the hot set changes.

use camus_core::compiled::CompiledPipeline;
use camus_core::compiler::Compiler;
use camus_core::statics::{compile_static, StaticPipeline};
use camus_lang::ast::{Action, Operand, Rule};
use camus_lang::parser::parse_rule;
use camus_lang::spec::Spec;
use camus_lang::value::Value;
use camus_workloads::content::Request;
use std::collections::HashMap;

/// The hICN header spec: the content identifier inside the IPv6
/// destination (hICN's trick for brownfield deployment).
pub fn hicn_spec() -> Spec {
    Spec::parse(
        r#"
        header hicn {
            bit<64> dst_prefix;
            @field bit<64> content_id;
            @field bit<8>  is_request;
        }
        sequence hicn
        "#,
    )
    .expect("hICN spec parses")
}

// ---------------------------------------------------------------------------
// LRU content store
// ---------------------------------------------------------------------------

/// A fixed-capacity LRU set of content identifiers (the forwarder's
/// content store).
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    /// id → tick of last use.
    last_use: HashMap<u64, u64>,
    tick: u64,
}

impl LruCache {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        LruCache { capacity, last_use: HashMap::new(), tick: 0 }
    }

    /// Look up and touch; returns whether it was a hit. On a miss the
    /// content is fetched and inserted (evicting the LRU entry).
    pub fn access(&mut self, id: u64) -> bool {
        self.tick += 1;
        let hit = self.last_use.contains_key(&id);
        self.last_use.insert(id, self.tick);
        if self.last_use.len() > self.capacity {
            // Evict the least recently used entry.
            if let Some((&victim, _)) = self.last_use.iter().min_by_key(|(_, &t)| t) {
                self.last_use.remove(&victim);
            }
        }
        hit
    }

    pub fn contains(&self, id: u64) -> bool {
        self.last_use.contains_key(&id)
    }

    pub fn len(&self) -> usize {
        self.last_use.len()
    }

    pub fn is_empty(&self) -> bool {
        self.last_use.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Path model
// ---------------------------------------------------------------------------

/// Routing modes compared in Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every request goes through the software forwarder (the hICN
    /// deployment the paper starts from).
    Baseline,
    /// Camus: meter-gated — only likely-hot requests visit the
    /// forwarder, the rest go straight upstream.
    Camus,
}

/// Timing and sizing parameters.
#[derive(Debug, Clone)]
pub struct HicnConfig {
    pub cache_capacity: usize,
    /// Forwarder per-request service time (the VPP forwarder tops out
    /// around 3.5 Gbps in the paper; for ~1 kB objects that is ~2.4 μs
    /// per request, putting it near saturation under the hot streams).
    pub forwarder_service_ns: u64,
    /// One-way-ish cost of fetching from the upstream producer.
    pub upstream_ns: u64,
    /// Hardware-switch hop latency.
    pub switch_ns: u64,
    /// Meter: requests per id within a window to count as hot.
    pub hot_threshold: u32,
    /// Meter window length (requests, tumbling).
    pub meter_window: usize,
}

impl Default for HicnConfig {
    fn default() -> Self {
        HicnConfig {
            cache_capacity: 64,
            forwarder_service_ns: 2_400,
            upstream_ns: 200_000,
            switch_ns: 1_000,
            hot_threshold: 3,
            meter_window: 512,
        }
    }
}

/// Per-request outcome.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub content_id: u64,
    pub latency_ns: u64,
    pub via_forwarder: bool,
    pub cache_hit: bool,
}

/// The simulation: forwarder queue + cache + meter + (for Camus mode)
/// an actually compiled subscription pipeline.
pub struct HicnSim {
    cfg: HicnConfig,
    statics: StaticPipeline,
    cache: LruCache,
    forwarder_busy_until_ns: u64,
    meter: HashMap<u64, u32>,
    meter_seen: usize,
    hot: Vec<u64>,
    /// The lowered subscription pipeline every request is routed by.
    pipeline: Option<CompiledPipeline>,
    /// Count of pipeline recompilations (hot-set changes).
    pub recompiles: usize,
}

/// Port names used by the compiled rules.
pub const PORT_FORWARDER: u16 = 1;
pub const PORT_UPSTREAM: u16 = 2;

impl HicnSim {
    pub fn new(cfg: HicnConfig) -> Self {
        let statics_src = hicn_spec();
        let spec = statics_src;
        let statics = compile_static(&spec).expect("hICN spec compiles");
        let mut sim = HicnSim {
            cache: LruCache::new(cfg.cache_capacity),
            cfg,
            statics,
            forwarder_busy_until_ns: 0,
            meter: HashMap::new(),
            meter_seen: 0,
            hot: Vec::new(),
            pipeline: None,
            recompiles: 0,
        };
        sim.recompile();
        sim
    }

    /// The Camus subscription set for the current hot set: one exact
    /// rule per hot id routing to the forwarder, plus the default
    /// upstream route. This is the paper's "filters refer to meter
    /// state and content identifier" realised as controller-driven
    /// resubscription.
    pub fn rules(&self) -> Vec<Rule> {
        let mut rules: Vec<Rule> = self
            .hot
            .iter()
            .map(|id| {
                parse_rule(&format!("content_id == {id}: fwd({PORT_FORWARDER})"))
                    .expect("well-formed hot rule")
            })
            .collect();
        rules.push(parse_rule(&format!("true: fwd({PORT_UPSTREAM})")).unwrap());
        rules
    }

    fn recompile(&mut self) {
        let compiled = Compiler::new()
            .with_static(self.statics.clone())
            .compile(&self.rules())
            .expect("hICN rules compile");
        self.pipeline = Some(CompiledPipeline::lower(&compiled.pipeline));
        self.recompiles += 1;
    }

    fn meter_update(&mut self, id: u64) {
        *self.meter.entry(id).or_insert(0) += 1;
        self.meter_seen += 1;
        if self.meter_seen >= self.cfg.meter_window {
            // Tumble: refresh the hot set, recompile if it changed.
            let mut hot: Vec<u64> = self
                .meter
                .iter()
                .filter(|(_, &c)| c >= self.cfg.hot_threshold)
                .map(|(&id, _)| id)
                .collect();
            hot.sort_unstable();
            self.meter.clear();
            self.meter_seen = 0;
            if hot != self.hot {
                self.hot = hot;
                self.recompile();
            }
        }
    }

    /// Route one request through the compiled pipeline (Camus mode).
    fn camus_route(&self, id: u64) -> u16 {
        let pipeline = self.pipeline.as_ref().expect("pipeline compiled");
        let values: Vec<Option<Value>> = pipeline
            .slots()
            .iter()
            .map(|op: &Operand| match op.key().as_str() {
                "content_id" => Some(Value::Int(id as i64)),
                "is_request" => Some(Value::Int(1)),
                _ => None,
            })
            .collect();
        match pipeline.action(pipeline.eval(&values)) {
            Action::Forward(ports) => ports[0],
            _ => PORT_UPSTREAM,
        }
    }

    /// Serve one request under a mode.
    pub fn serve(&mut self, req: &Request, mode: Mode) -> Served {
        let via_forwarder = match mode {
            Mode::Baseline => true,
            Mode::Camus => {
                self.meter_update(req.content_id);
                self.camus_route(req.content_id) == PORT_FORWARDER
            }
        };
        if via_forwarder {
            // Queue at the single-server forwarder.
            let start = self.forwarder_busy_until_ns.max(req.time_ns);
            let done = start + self.cfg.forwarder_service_ns;
            self.forwarder_busy_until_ns = done;
            let hit = self.cache.access(req.content_id);
            let fetch = if hit { 0 } else { self.cfg.upstream_ns };
            Served {
                content_id: req.content_id,
                latency_ns: (done - req.time_ns) + fetch + self.cfg.switch_ns,
                via_forwarder: true,
                cache_hit: hit,
            }
        } else {
            // Bypass: switch hop + upstream fetch; no queueing, no
            // cache pollution.
            Served {
                content_id: req.content_id,
                latency_ns: self.cfg.switch_ns + self.cfg.upstream_ns,
                via_forwarder: false,
                cache_hit: false,
            }
        }
    }

    pub fn hot_set(&self) -> &[u64] {
        &self.hot
    }
}

/// Run a request mix and return per-request outcomes.
pub fn run(requests: &[Request], mode: Mode, cfg: HicnConfig) -> Vec<Served> {
    let mut sim = HicnSim::new(cfg);
    requests.iter().map(|r| sim.serve(r, mode)).collect()
}

/// The `q`-quantile of served latencies, ns.
pub fn latency_quantile(served: &[Served], q: f64) -> u64 {
    if served.is_empty() {
        return 0;
    }
    let mut lat: Vec<u64> = served.iter().map(|s| s.latency_ns).collect();
    lat.sort_unstable();
    lat[((lat.len() - 1) as f64 * q).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_workloads::content::{ContentConfig, ContentStream};

    fn mixed_workload(n_hot: usize, n_cold: usize) -> Vec<Request> {
        let mut s =
            ContentStream::new(ContentConfig { catalogue: 50, skew: 1.3, gap_ns: 3_000, seed: 9 });
        let mut reqs = Vec::new();
        let mut cold_pos = 0u64;
        for i in 0..(n_hot + n_cold) {
            if i % (1 + n_hot / n_cold.max(1)) == 0 && cold_pos < n_cold as u64 {
                reqs.push(s.next_cold(&mut cold_pos));
            } else {
                reqs.push(s.next_popular());
            }
        }
        reqs
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(c.access(1)); // hit, refreshes 1
        assert!(!c.access(3)); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn meter_promotes_hot_content() {
        let mut sim =
            HicnSim::new(HicnConfig { hot_threshold: 2, meter_window: 8, ..Default::default() });
        let mut t = 0;
        let req = |id: u64, t: &mut u64| {
            *t += 1_000;
            Request { content_id: id, time_ns: *t }
        };
        // 8 requests: id 1 appears 4 times -> hot after the window.
        for id in [1u64, 2, 1, 3, 1, 4, 1, 5] {
            sim.serve(&req(id, &mut t), Mode::Camus);
        }
        assert_eq!(sim.hot_set(), &[1]);
        // Hot id now routes via the forwarder; a cold one bypasses.
        let hot = sim.serve(&req(1, &mut t), Mode::Camus);
        assert!(hot.via_forwarder);
        let cold = sim.serve(&req(999, &mut t), Mode::Camus);
        assert!(!cold.via_forwarder);
        assert!(sim.recompiles >= 2);
    }

    #[test]
    fn baseline_sends_everything_through_forwarder() {
        let reqs = mixed_workload(200, 50);
        let served = run(&reqs, Mode::Baseline, HicnConfig::default());
        assert!(served.iter().all(|s| s.via_forwarder));
        // Popular content eventually hits the cache.
        assert!(served.iter().any(|s| s.cache_hit));
    }

    #[test]
    fn camus_reduces_cold_content_tail_latency() {
        // The Fig. 11 claim: p95 latency for uncached content drops.
        let reqs = mixed_workload(4_000, 1_000);
        let cfg = HicnConfig::default();
        let base = run(&reqs, Mode::Baseline, cfg.clone());
        let camus = run(&reqs, Mode::Camus, cfg);
        let cold = |served: &[Served]| -> Vec<Served> {
            served
                .iter()
                .zip(&reqs)
                .filter(|(_, r)| r.content_id >= 50) // the cold scan ids
                .map(|(s, _)| *s)
                .collect()
        };
        let base_p95 = latency_quantile(&cold(&base), 0.95);
        let camus_p95 = latency_quantile(&cold(&camus), 0.95);
        assert!(
            camus_p95 < base_p95,
            "cold p95 must drop: camus {camus_p95} vs baseline {base_p95}"
        );
    }

    #[test]
    fn camus_reduces_forwarder_load() {
        let reqs = mixed_workload(4_000, 1_000);
        let cfg = HicnConfig::default();
        let base = run(&reqs, Mode::Baseline, cfg.clone());
        let camus = run(&reqs, Mode::Camus, cfg);
        let load = |s: &[Served]| s.iter().filter(|x| x.via_forwarder).count();
        assert!(load(&camus) < load(&base));
    }

    #[test]
    fn rules_include_default_upstream() {
        let sim = HicnSim::new(HicnConfig::default());
        let rules = sim.rules();
        assert_eq!(rules.last().unwrap().filter, camus_lang::ast::Expr::True);
    }
}
