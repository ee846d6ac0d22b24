//! Network-wide compilation: run the Camus compiler for every switch.
//!
//! The controller recompiles runtime table entries whenever
//! subscriptions or topology change (§VIII-G.3); Fig. 13 plots the
//! resulting per-layer FIB sizes and Fig. 14 the recompile times.
//!
//! There are two network compiles. [`compile_network`] is the paper's
//! per-switch baseline and the test oracle: one compiler invocation per
//! switch, nothing cached or shared. [`compile_network_incremental`] is
//! what the controller runs: every switch's routed rule list is
//! [fingerprinted](fingerprint_rules), a fingerprint the previous run
//! holds reuses that [`Compiled`] artefact, and each distinct new list
//! is built once and shared — cold, or, for a caller that carries a
//! [`DeltaCache`] through churn, by replaying its rule delta on the
//! maintained diagram of its predecessor. The incremental compile reads
//! each list by reference ([`RoutingResult::switch_view`]) and copies no
//! rule of it: a cold build, a seed and a rebuild hand the view to the
//! bulk constructor, and a delta inserts its rules by reference.
//! [`RoutingResult::switch_rules`], the owned list, serves the oracle.
//!
//! Both compiles run their switches on one pool, the calling thread
//! among its workers, through an atomic claim index, longest rule list
//! first, so one slow core-layer switch cannot serialise the rest
//! behind it. Worker panics are caught per switch and surfaced as
//! [`CompileError::Panicked`] instead of aborting the controller.

use crate::algorithm1::RoutingResult;
use crate::par::{run_parallel, UnitPanic};
use crate::topology::HierNet;
use camus_core::compiler::{CompileError, CompileState, Compiled, Compiler};
use camus_core::digest::{expr_digest, Fnv1a};
use camus_lang::ast::Rule;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

impl From<UnitPanic> for CompileError {
    fn from(p: UnitPanic) -> Self {
        CompileError::Panicked { unit: p.unit, message: p.message }
    }
}

/// Per-switch compile outcome retained by the controller.
#[derive(Debug, Clone)]
pub struct SwitchCompile {
    pub switch: usize,
    pub entries: usize,
    /// Time spent on this switch in this run (near zero when reused).
    pub elapsed: Duration,
    /// Stable hash of the switch's routed rule list.
    pub fingerprint: u64,
    /// Whether the pipeline was reused from the previous compile.
    pub reused: bool,
    /// Shared compile artefact; reuse is an `Arc` bump, not a rebuild.
    pub compiled: Arc<Compiled>,
}

/// Aggregate of a network-wide compilation run.
#[derive(Debug, Clone, Default)]
pub struct NetworkCompile {
    pub switches: Vec<SwitchCompile>,
    /// Wall-clock time for the whole parallel run (the Fig. 14 metric).
    pub elapsed: Duration,
    /// Switches whose pipeline changed in this run (their new artefact
    /// must be installed).
    pub recompiled: usize,
    /// Switches whose previous pipeline was reused (fingerprint hit).
    pub reused: usize,
    /// Compiler invocations actually paid: identical rule lists (e.g.
    /// the core layer of a full-mesh Fat Tree) are compiled once and
    /// shared, so this is at most `recompiled`.
    pub distinct_compiles: usize,
}

impl NetworkCompile {
    /// Total table entries per topology layer (Fig. 13).
    pub fn entries_per_layer(&self, net: &HierNet) -> HashMap<usize, usize> {
        let mut out = HashMap::new();
        for sc in &self.switches {
            *out.entry(net.switches[sc.switch].layer).or_insert(0) += sc.entries;
        }
        out
    }

    pub fn total_entries(&self) -> usize {
        self.switches.iter().map(|s| s.entries).sum()
    }

    /// Switch slots whose *installed* pipeline must change relative to
    /// `previous`: exactly the slots whose own fingerprint differs.
    /// `reused` is not the right gate for reinstallation — the compile
    /// cache is content-addressed across slots, so a switch can reuse
    /// another slot's previous artefact while its own installed
    /// pipeline is stale.
    pub fn changed_since(&self, previous: &NetworkCompile) -> Vec<usize> {
        self.switches
            .iter()
            .filter(|sc| {
                previous.switches.get(sc.switch).map(|p| p.fingerprint) != Some(sc.fingerprint)
            })
            .map(|sc| sc.switch)
            .collect()
    }
}

/// splitmix64 finaliser: decorrelates the per-filter FNV hashes before
/// they enter a commutative (wrapping-sum) combination, so sets whose
/// raw hashes are related (e.g. filters differing in one trailing byte)
/// still produce well-separated fingerprints.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Stable fingerprint of a switch's canonical rule list (the order
/// [`RoutingResult::switch_rules`] emits: port-sorted, hash-ordered
/// within a port). Equal fingerprints ⇒ the compiler would produce an
/// identical pipeline, so the previous artefact can be reused.
///
/// The fingerprint is *run-based*: the list is split into runs of equal
/// action (= one port of one filter set), each run contributing its
/// action, its length, and a commutative combination of its filters'
/// memoisable hashes. Within-run order therefore does not matter —
/// deliberately, so [`RoutingResult::switch_fingerprint`] can fold
/// per-port accumulators maintained at filter-insertion time and skip
/// materialising (and re-hashing) the rule list entirely: `O(ports)`
/// per switch instead of `O(rules)`, which is what keeps the
/// fingerprint stage affordable at 10⁶ subscriptions. Run order still
/// matters, so permuting ports changes the fingerprint.
pub fn fingerprint_rules(rules: &[Rule]) -> u64 {
    let mut h = Fnv1a(Fnv1a::OFFSET);
    rules.len().hash(&mut h);
    let mut i = 0;
    while i < rules.len() {
        let start = i;
        let action = &rules[start].action;
        let mut acc = 0u64;
        while i < rules.len() && rules[i].action == *action {
            acc = acc.wrapping_add(mix64(expr_digest(&rules[i].filter)));
            i += 1;
        }
        action.hash(&mut h);
        (i - start).hash(&mut h);
        h.write(&acc.to_le_bytes());
    }
    h.finish()
}

/// Indices into `units` (switch ids), longest rule list first; ties
/// keep their order.
fn largest_first(result: &RoutingResult, units: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(result.switch_filter_count(units[i])));
    order
}

/// Run `f(switch)` for every switch in `units` on the pool, claiming
/// the longest rule lists first: topology builders number ToRs, then
/// aggs, then cores, so an ascending claim would start the biggest
/// compile last and leave it alone on the critical path. Results come
/// back in the order of `units`; a worker panic names the switch id.
fn run_largest_first<T, F>(
    result: &RoutingResult,
    units: &[usize],
    f: F,
) -> Result<Vec<T>, CompileError>
where
    T: Send,
    F: Fn(usize) -> Result<T, CompileError> + Sync,
{
    let order = largest_first(result, units);
    let mut slots: Vec<Option<Result<T, CompileError>>> = units.iter().map(|_| None).collect();
    for (k, outcome) in run_parallel(order.len(), |k| f(units[order[k]])).into_iter().enumerate() {
        slots[order[k]] = Some(outcome.map_err(|e| match e {
            CompileError::Panicked { message, .. } => {
                CompileError::Panicked { unit: units[order[k]], message }
            }
            e => e,
        }));
    }
    slots.into_iter().map(|slot| slot.expect("every unit ran")).collect()
}

/// Compile every switch of a hierarchical routing result in parallel —
/// the exhaustive baseline: one compiler invocation per switch, no
/// caching or sharing. This is what a controller without incremental
/// recompilation pays on every subscription change (the Fig. 13/14
/// lanes), and the oracle the content-addressed paths are tested
/// against; the controller itself never calls it.
pub fn compile_network(
    result: &RoutingResult,
    compiler: &Compiler,
) -> Result<NetworkCompile, CompileError> {
    let start = Instant::now();
    let n = result.filters.len();
    let units: Vec<usize> = (0..n).collect();
    let switches = run_largest_first(result, &units, |s| {
        let t0 = Instant::now();
        let rules = result.switch_rules(s);
        let fingerprint = fingerprint_rules(&rules);
        let compiled = compiler.compile(&rules)?;
        Ok(SwitchCompile {
            switch: s,
            entries: compiled.pipeline.total_entries(),
            elapsed: t0.elapsed(),
            fingerprint,
            reused: false,
            compiled: Arc::new(compiled),
        })
    })?;
    Ok(NetworkCompile {
        recompiled: n,
        reused: 0,
        distinct_compiles: n,
        switches,
        elapsed: start.elapsed(),
    })
}

/// What a content-addressed compile must actually build: every
/// switch's fingerprint resolved against the previous run, and one
/// representative elected per distinct fingerprint the previous run
/// does not hold.
struct Election<'p> {
    start: Instant,
    /// The previous run, if it came from the same switch count.
    previous: Option<&'p NetworkCompile>,
    fingerprints: Vec<u64>,
    prev_by_fp: HashMap<u64, &'p SwitchCompile>,
    /// Switch ids, ascending; one per distinct uncached fingerprint.
    representatives: Vec<usize>,
}

impl<'p> Election<'p> {
    fn new(result: &RoutingResult, previous: Option<&'p NetworkCompile>) -> Self {
        let start = Instant::now();
        let n = result.filters.len();
        let previous = previous.filter(|p| p.switches.len() == n);
        // Fingerprints come from the per-port accumulators Algorithm 1
        // maintains — `O(ports)` per switch, no rule list materialised
        // or re-hashed; only representatives pay to build theirs.
        let fingerprints: Vec<u64> = (0..n).map(|s| result.switch_fingerprint(s)).collect();
        let prev_by_fp: HashMap<u64, &SwitchCompile> = previous
            .map(|p| p.switches.iter().map(|sc| (sc.fingerprint, sc)).collect())
            .unwrap_or_default();
        let mut elected = HashSet::new();
        let representatives = (0..n)
            .filter(|&s| {
                !prev_by_fp.contains_key(&fingerprints[s]) && elected.insert(fingerprints[s])
            })
            .collect();
        Election { start, previous, fingerprints, prev_by_fp, representatives }
    }

    /// Assemble per-switch outcomes from `fresh`, the representatives'
    /// artefacts and compile times in `representatives` order.
    fn assemble(self, fresh: Vec<(Arc<Compiled>, Duration)>) -> NetworkCompile {
        let fresh: HashMap<u64, (usize, Arc<Compiled>, Duration)> = self
            .representatives
            .iter()
            .zip(fresh)
            .map(|(&rep, (compiled, took))| (self.fingerprints[rep], (rep, compiled, took)))
            .collect();
        let switches: Vec<SwitchCompile> = self
            .fingerprints
            .iter()
            .enumerate()
            .map(|(s, &fingerprint)| match self.prev_by_fp.get(&fingerprint) {
                Some(prev) => SwitchCompile {
                    switch: s,
                    entries: prev.entries,
                    elapsed: Duration::ZERO,
                    fingerprint,
                    reused: true,
                    compiled: Arc::clone(&prev.compiled),
                },
                None => {
                    let (rep, compiled, took) = &fresh[&fingerprint];
                    SwitchCompile {
                        switch: s,
                        entries: compiled.pipeline.total_entries(),
                        // Only the representative carries the compile
                        // cost; sharers record zero.
                        elapsed: if *rep == s { *took } else { Duration::ZERO },
                        fingerprint,
                        reused: false,
                        compiled: Arc::clone(compiled),
                    }
                }
            })
            .collect();
        let reused = switches.iter().filter(|s| s.reused).count();
        NetworkCompile {
            recompiled: switches.len() - reused,
            reused,
            distinct_compiles: fresh.len(),
            switches,
            elapsed: self.start.elapsed(),
        }
    }
}

/// Live incremental-compile states, content-addressed by rule-list
/// fingerprint. A state is **moved** from its old fingerprint to its
/// new one as a switch's rule list transitions, so one maintained
/// diagram follows each distinct rule list through churn and the cache
/// never holds more states than there are distinct lists in the
/// current epoch (stale fingerprints are pruned after every run).
/// States are replayed and seeded on the compile pool, so they are
/// built on whichever worker claimed their list, the caller included.
///
/// A held rule was validated by the compiler that inserted it and a
/// replay validates only what it inserts, so a cache serves one
/// compiler: pass the same one (the same spec) on every call.
#[derive(Debug, Default)]
pub struct DeltaCache {
    states: HashMap<u64, CompileState>,
}

impl DeltaCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live maintained diagrams.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Compile a routing result incrementally. The compile is
/// *content-addressed* by rule-list fingerprint:
///
/// * a switch whose fingerprint appeared anywhere in `previous` reuses
///   that artefact (`reused = true` — no reinstall needed when it is
///   the same switch slot, which it virtually always is);
/// * switches that do need new pipelines are grouped by fingerprint and
///   each distinct rule list is compiled once, then shared — in a
///   full-mesh Fat Tree the entire core layer has identical rule lists,
///   so N core switches cost one compile.
///
/// Each distinct new list is compiled on the pool, longest first, the
/// calling thread among the workers, from its
/// [`RoutingResult::switch_view`], built once per list. How depends on
/// `cache`. Without one every list is built cold from its view
/// ([`Compiler::compile_refs`]): a cold deploy or a recovery. With one,
/// a list whose slot's *previous* rule list left a maintained diagram
/// in the cache (keyed by the slot's old fingerprint) replays only the
/// rule delta on it ([`Compiler::compile_delta`], which inserts only
/// the rules the diagram lacks) and the state moves to the new
/// fingerprint; a list with no state to inherit replays on an empty
/// state, which seeds it with one bulk construction. Each list's base
/// is taken before the pool starts, in switch order, so the first of several
/// twins that diverge from one old list takes its state and the rest
/// are seeded whatever order the workers claim them in. A
/// failed compile drops the states it took, which costs warmth, not
/// correctness.
///
/// The cache changes cost, and it can change the produced pipelines
/// too: a maintained diagram's table can hold more entries or fewer
/// than a scratch build of the same list, or the same entries in
/// another order. Fingerprints are the same either way, and so is the
/// forwarding of every packet that carries every field the list tests;
/// a packet that lacks a tested field can be forwarded differently.
///
/// With `previous = None` this is the cold deploy: every distinct rule
/// list compiles exactly once. `previous` must come from the same
/// topology (same switch count) — anything else is ignored and every
/// switch recompiles.
///
/// Pin a variable order on `compiler` (e.g. via a static spec) when
/// passing a cache: with an unpinned order a maintained diagram keeps
/// the field order of its construction history as well.
pub fn compile_network_incremental(
    result: &RoutingResult,
    compiler: &Compiler,
    previous: Option<&NetworkCompile>,
    mut cache: Option<&mut DeltaCache>,
) -> Result<NetworkCompile, CompileError> {
    let election = Election::new(result, previous);
    let maintain = cache.is_some();
    let bases: HashMap<usize, Mutex<Option<CompileState>>> = election
        .representatives
        .iter()
        .map(|&s| {
            let old_fp = election.previous.and_then(|p| p.switches.get(s)).map(|sc| sc.fingerprint);
            let base = cache.as_deref_mut().zip(old_fp).and_then(|(c, fp)| c.states.remove(&fp));
            (s, Mutex::new(base))
        })
        .collect();
    let built = run_largest_first(result, &election.representatives, |s| {
        let t0 = Instant::now();
        let view = result.switch_view(s);
        let base = bases[&s].lock().expect("a base is only ever taken").take();
        let (compiled, state) = if maintain {
            let mut state = base.unwrap_or_default();
            (compiler.compile_delta(&mut state, &view)?, Some(state))
        } else {
            (compiler.compile_refs(view.iter().map(|(_, filter, action)| (filter, action)))?, None)
        };
        Ok((Arc::new(compiled), t0.elapsed(), state))
    })?;

    let mut fresh = Vec::with_capacity(built.len());
    for (&s, (compiled, took, state)) in election.representatives.iter().zip(built) {
        if let (Some(cache), Some(state)) = (cache.as_deref_mut(), state) {
            cache.states.entry(election.fingerprints[s]).or_insert(state);
        }
        fresh.push((compiled, took));
    }
    if let Some(cache) = cache {
        // Keep only states whose fingerprint is live in this epoch:
        // churn must not accumulate diagrams for rule lists no one
        // holds anymore.
        let live: HashSet<u64> = election.fingerprints.iter().copied().collect();
        cache.states.retain(|fp, _| live.contains(fp));
    }
    Ok(election.assemble(fresh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::{route_hierarchical, Policy, RoutingConfig};
    use crate::topology::paper_fat_tree;
    use camus_lang::ast::Expr;
    use camus_lang::parser::parse_expr;

    fn subs(n: usize) -> Vec<Vec<Expr>> {
        (0..n)
            .map(|h| {
                vec![
                    parse_expr(&format!("id == {h}")).unwrap(),
                    parse_expr(&format!("price > {}", h * 10)).unwrap(),
                ]
            })
            .collect()
    }

    #[test]
    fn network_compile_produces_entries_everywhere() {
        let net = paper_fat_tree();
        let r = route_hierarchical(
            &net,
            &subs(net.host_count()),
            RoutingConfig::new(Policy::TrafficReduction),
        );
        let nc = compile_network(&r, &Compiler::new()).unwrap();
        assert_eq!(nc.switches.len(), net.switch_count());
        assert!(nc.total_entries() > 0);
        let per_layer = nc.entries_per_layer(&net);
        assert!(per_layer[&0] > 0 && per_layer[&1] > 0 && per_layer[&2] > 0);
        assert!(nc.elapsed.as_nanos() > 0);
        // A full compile reuses nothing.
        assert_eq!(nc.reused, 0);
        assert_eq!(nc.recompiled, net.switch_count());
    }

    #[test]
    fn mr_uses_fewer_entries_above_tor() {
        let net = paper_fat_tree();
        let hosts = subs(net.host_count());
        let mr = compile_network(
            &route_hierarchical(&net, &hosts, RoutingConfig::new(Policy::MemoryReduction)),
            &Compiler::new(),
        )
        .unwrap();
        let tr = compile_network(
            &route_hierarchical(&net, &hosts, RoutingConfig::new(Policy::TrafficReduction)),
            &Compiler::new(),
        )
        .unwrap();
        let mr_agg = mr.entries_per_layer(&net)[&1];
        let tr_agg = tr.entries_per_layer(&net)[&1];
        assert!(mr_agg < tr_agg, "MR agg layer {mr_agg} < TR agg layer {tr_agg}");
    }

    #[test]
    fn fingerprints_are_stable_and_order_sensitive() {
        let a = vec![parse_rule_list("price > 5", 1), parse_rule_list("id == 2", 2)];
        let b = vec![parse_rule_list("price > 5", 1), parse_rule_list("id == 2", 2)];
        assert_eq!(fingerprint_rules(&a), fingerprint_rules(&b));
        // Swapping across runs (different actions) changes the run
        // order and therefore the fingerprint.
        let swapped = vec![b[1].clone(), b[0].clone()];
        assert_ne!(fingerprint_rules(&a), fingerprint_rules(&swapped));
        assert_ne!(fingerprint_rules(&a), fingerprint_rules(&a[..1]));
    }

    #[test]
    fn fingerprint_is_run_based() {
        // Within one action run the combination is commutative: the
        // canonical list is hash-sorted within a port anyway, so
        // within-run order carries no information — which is what lets
        // `switch_fingerprint` fold per-port accumulators in O(ports).
        let a = vec![parse_rule_list("price > 5", 1), parse_rule_list("id == 2", 1)];
        let b = vec![parse_rule_list("id == 2", 1), parse_rule_list("price > 5", 1)];
        assert_eq!(fingerprint_rules(&a), fingerprint_rules(&b));
        // Splitting the run with another action is a different list.
        let split = vec![
            parse_rule_list("price > 5", 1),
            parse_rule_list("volume > 0", 2),
            parse_rule_list("id == 2", 1),
        ];
        let joined = vec![
            parse_rule_list("price > 5", 1),
            parse_rule_list("id == 2", 1),
            parse_rule_list("volume > 0", 2),
        ];
        assert_ne!(fingerprint_rules(&split), fingerprint_rules(&joined));
        // Multiplicity matters within a run.
        let doubled = vec![a[0].clone(), a[0].clone()];
        assert_ne!(fingerprint_rules(&a), fingerprint_rules(&doubled));
    }

    #[test]
    fn switch_fingerprint_matches_materialised_rule_list() {
        // The O(ports) accumulator fold must equal a recomputation over
        // the materialised canonical rule list — for both policies,
        // with and without α-widening, and under faults.
        let net = paper_fat_tree();
        let hosts = subs(net.host_count());
        for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
            for alpha in [1, 100] {
                let cfg = RoutingConfig::new(policy).with_alpha(alpha);
                let r = route_hierarchical(&net, &hosts, cfg);
                for s in 0..net.switch_count() {
                    assert_eq!(
                        r.switch_fingerprint(s),
                        fingerprint_rules(&r.switch_rules(s)),
                        "{policy:?} alpha={alpha} switch {s}"
                    );
                }
            }
        }
        let mut mask = crate::topology::FaultMask::new();
        mask.fail_switch(8);
        let r = crate::algorithm1::route_hierarchical_degraded(
            &net,
            &hosts,
            RoutingConfig::new(Policy::TrafficReduction),
            &mask,
        );
        for s in 0..net.switch_count() {
            assert_eq!(
                r.switch_fingerprint(s),
                fingerprint_rules(&r.switch_rules(s)),
                "degraded switch {s}"
            );
        }
    }

    fn parse_rule_list(filter: &str, port: u16) -> Rule {
        Rule::fwd(parse_expr(filter).unwrap(), port)
    }

    #[test]
    fn delta_compile_matches_scratch_through_churn() {
        let net = paper_fat_tree();
        // MR keeps up sets constant (`true`), so single-host churn only
        // dirties the distribution path — the regime where delta
        // recompilation and fingerprint reuse both matter. The variable
        // order is pinned (as a production controller's static spec
        // does). A delta-maintained table can differ in size from a
        // scratch build in general; on this churn the entry counts
        // happen to agree, and asserting them pins that.
        let cfg = RoutingConfig::new(Policy::MemoryReduction);
        let compiler = Compiler::new().with_order(camus_core::VarOrder::from_keys(["id", "price"]));
        let mut cache = DeltaCache::new();
        let mut hosts = subs(net.host_count());

        let r0 = route_hierarchical(&net, &hosts, cfg);
        let mut prev = compile_network_incremental(&r0, &compiler, None, Some(&mut cache)).unwrap();
        assert!(!cache.is_empty());

        for round in 0..4 {
            // Churn one host per round.
            let h = (round * 5) % hosts.len();
            hosts[h] = vec![parse_expr(&format!("price > {}", 1000 + round)).unwrap()];
            let r = route_hierarchical(&net, &hosts, cfg);
            let delta =
                compile_network_incremental(&r, &compiler, Some(&prev), Some(&mut cache)).unwrap();
            let scratch = compile_network(&r, &compiler).unwrap();
            assert!(delta.reused > 0, "round {round}: unchanged switches must be reused");
            for (a, b) in delta.switches.iter().zip(&scratch.switches) {
                assert_eq!(a.fingerprint, b.fingerprint, "round {round} switch {}", a.switch);
                assert_eq!(a.entries, b.entries, "round {round} switch {}", a.switch);
            }
            // The cache tracks live rule lists only.
            let distinct: std::collections::HashSet<u64> =
                delta.switches.iter().map(|sc| sc.fingerprint).collect();
            assert!(cache.len() <= distinct.len(), "cache leaks stale states");
            prev = delta;
        }

        // Twins diverge. The cores have held one list all along — one
        // fingerprint, one maintained state. A churned host changes
        // that list everywhere while a dead down-link changes it
        // differently at the last core: the first core to ask takes the
        // state and replays its delta, the last finds it gone and is
        // seeded cold. Both keep scratch's fingerprints and, on this
        // churn, its entry counts, and both lists end the run with a
        // state of their own.
        let cores: Vec<usize> =
            (0..net.switch_count()).filter(|&s| net.switches[s].layer == 2).collect();
        let (first, last) = (cores[0], *cores.last().unwrap());
        assert_eq!(prev.switches[first].fingerprint, prev.switches[last].fingerprint);
        hosts[7] = vec![parse_expr("price > 5000").unwrap()];
        let mut mask = crate::topology::FaultMask::new();
        mask.fail_link(last, 0);
        let r = crate::algorithm1::route_hierarchical_degraded(&net, &hosts, cfg, &mask);
        let delta =
            compile_network_incremental(&r, &compiler, Some(&prev), Some(&mut cache)).unwrap();
        let scratch = compile_network(&r, &compiler).unwrap();
        let (a, b) = (&delta.switches[first], &delta.switches[last]);
        assert_ne!(a.fingerprint, b.fingerprint, "the dead link must split the twins");
        assert!(!a.reused && !b.reused);
        for (got, want) in delta.switches.iter().zip(&scratch.switches) {
            assert_eq!(got.fingerprint, want.fingerprint, "diverged switch {}", got.switch);
            assert_eq!(got.entries, want.entries, "diverged switch {}", got.switch);
        }
        assert!(cache.states.contains_key(&a.fingerprint), "the taken state moved");
        assert!(cache.states.contains_key(&b.fingerprint), "the cold twin was seeded");
    }

    #[test]
    fn empty_cache_compile_equals_uncached_and_seeds_each_representative() {
        let net = paper_fat_tree();
        let compiler = Compiler::new().with_order(camus_core::VarOrder::from_keys(["id", "price"]));
        let r = route_hierarchical(
            &net,
            &subs(net.host_count()),
            RoutingConfig::new(Policy::MemoryReduction),
        );
        let plain = compile_network_incremental(&r, &compiler, None, None).unwrap();
        let mut cache = DeltaCache::new();
        let seeded = compile_network_incremental(&r, &compiler, None, Some(&mut cache)).unwrap();
        // With no state to find, a cache changes what is kept, not what
        // is built: the same representatives, the same pipelines.
        assert_eq!(seeded.distinct_compiles, plain.distinct_compiles);
        assert!(seeded.distinct_compiles < net.switch_count(), "the cores share");
        for (a, b) in seeded.switches.iter().zip(&plain.switches) {
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.compiled.pipeline, b.compiled.pipeline, "switch {}", a.switch);
        }
        assert_eq!(cache.len(), seeded.distinct_compiles, "one state per distinct list");
        for sc in &seeded.switches {
            assert_eq!(
                cache.states[&sc.fingerprint].rule_count(),
                r.switch_filter_count(sc.switch),
                "switch {}",
                sc.switch
            );
        }
    }

    #[test]
    fn panic_in_a_pool_build_surfaces_as_compile_error_naming_the_switch() {
        // Filter sets spliced in from another routing run point past
        // this run's pool, so building core 16's rule view panics
        // inside its worker; the fingerprint fold never resolves ids
        // and the election does not notice.
        let net = paper_fat_tree();
        let cfg = RoutingConfig::new(Policy::MemoryReduction);
        let foreign = route_hierarchical(&net, &subs(net.host_count()), cfg);
        let mut r = route_hierarchical(&net, &vec![Vec::new(); net.host_count()], cfg);
        r.filters[16] = foreign.filters[16].clone();
        match compile_network_incremental(&r, &Compiler::new(), None, None) {
            Err(CompileError::Panicked { unit, .. }) => assert_eq!(unit, 16),
            other => panic!("expected Panicked, got {:?}", other.map(|nc| nc.recompiled)),
        }
    }

    #[test]
    fn a_delta_naming_an_unknown_field_reports_the_scratch_rule_index() {
        // Host 3 adds a filter on a field the spec does not declare. Its
        // ToR replays the delta from the view; the error must name the
        // rule a scratch compile of the owned list names, and
        // the ToR's state must come out as it went in.
        let net = paper_fat_tree();
        let cfg = RoutingConfig::new(Policy::MemoryReduction);
        let statics = camus_core::statics::compile_static(&camus_lang::spec::itch_spec()).unwrap();
        let compiler = Compiler::new().with_static(statics);
        let hosts: Vec<Vec<Expr>> = (0..net.host_count())
            .map(|h| vec![parse_expr(&format!("stock == S{h} and price > {h}")).unwrap()])
            .collect();
        let mut cache = DeltaCache::new();
        let r0 = route_hierarchical(&net, &hosts, cfg);
        let prev = compile_network_incremental(&r0, &compiler, None, Some(&mut cache)).unwrap();

        let mut churned = hosts.clone();
        churned[3].push(parse_expr("bogus == 1").unwrap());
        let r1 = route_hierarchical(&net, &churned, cfg);
        let tor = net.access[3].0;
        let scratch = compiler.compile(&r1.switch_rules(tor)).unwrap_err();
        assert!(matches!(scratch, CompileError::UnknownField { .. }), "{scratch:?}");
        let mut state = cache.states.remove(&prev.switches[tor].fingerprint).unwrap();
        let held = state.rule_count();
        let err = compiler.compile_delta(&mut state, &r1.switch_view(tor)).unwrap_err();
        assert_eq!(err, scratch);
        assert_eq!(state.rule_count(), held);
        // The state still replays to what a scratch compile builds.
        let c = compiler.compile_delta(&mut state, &r0.switch_view(tor)).unwrap();
        assert_eq!(c.pipeline, compiler.compile(&r0.switch_rules(tor)).unwrap().pipeline);
    }

    #[test]
    fn panic_in_a_delta_build_names_the_switch_and_costs_only_warmth() {
        let net = paper_fat_tree();
        let cfg = RoutingConfig::new(Policy::MemoryReduction);
        let compiler = Compiler::new().with_order(camus_core::VarOrder::from_keys(["id", "price"]));
        let hosts = subs(net.host_count());
        let mut cache = DeltaCache::new();
        let r0 = route_hierarchical(&net, &hosts, cfg);
        let prev = compile_network_incremental(&r0, &compiler, None, Some(&mut cache)).unwrap();

        // A churned host dirties every core; core 16, the first of the
        // twins, takes their maintained state, and its filter set,
        // spliced in from a run with a larger pool, panics when its
        // rule view is built.
        let mut churned = hosts.clone();
        churned[3] = vec![parse_expr("price > 4000").unwrap()];
        let mut wider = hosts.clone();
        wider.iter_mut().enumerate().for_each(|(h, fs)| {
            fs.push(parse_expr(&format!("volume > {h}")).unwrap());
        });
        let foreign = route_hierarchical(&net, &wider, cfg);
        let mut r = route_hierarchical(&net, &churned, cfg);
        assert_eq!(prev.switches[16].fingerprint, prev.switches[17].fingerprint);
        r.filters[16] = foreign.filters[16].clone();
        match compile_network_incremental(&r, &compiler, Some(&prev), Some(&mut cache)) {
            Err(CompileError::Panicked { unit, .. }) => assert_eq!(unit, 16),
            other => panic!("expected Panicked, got {:?}", other.map(|nc| nc.recompiled)),
        }
        let cores_fp = prev.switches[16].fingerprint;
        assert!(!cache.states.contains_key(&cores_fp), "core 16 replayed on the cores' state");

        // The next compile with the same cache replays what is left and
        // seeds what the failure dropped: the pipelines are scratch's.
        let r1 = route_hierarchical(&net, &churned, cfg);
        let delta =
            compile_network_incremental(&r1, &compiler, Some(&prev), Some(&mut cache)).unwrap();
        let scratch = compile_network(&r1, &compiler).unwrap();
        assert!(delta.reused > 0);
        for (got, want) in delta.switches.iter().zip(&scratch.switches) {
            assert_eq!(got.fingerprint, want.fingerprint, "switch {}", got.switch);
            assert_eq!(got.compiled.pipeline, want.compiled.pipeline, "switch {}", got.switch);
        }
        assert!(cache.states.contains_key(&delta.switches[16].fingerprint));
    }

    #[test]
    fn incremental_reuses_unchanged_switches() {
        let net = paper_fat_tree();
        let cfg = RoutingConfig::new(Policy::MemoryReduction);
        let compiler = Compiler::new();
        let base = subs(net.host_count());
        let r0 = route_hierarchical(&net, &base, cfg);
        let full = compile_network(&r0, &compiler).unwrap();

        // Change one host's subscriptions: only its distribution path
        // (access ToR + designated ancestors) recompiles under MR.
        let mut churned = base.clone();
        churned[5] = vec![parse_expr("volume > 999").unwrap()];
        let r1 = route_hierarchical(&net, &churned, cfg);
        let inc = compile_network_incremental(&r1, &compiler, Some(&full), None).unwrap();

        assert_eq!(inc.recompiled + inc.reused, net.switch_count());
        assert!(inc.reused > 0, "unchanged switches must be reused");
        assert!(inc.distinct_compiles <= inc.recompiled);
        // The cache is content-addressed: a switch is reused exactly
        // when its fingerprint appeared somewhere in the previous run.
        let prev_fps: std::collections::HashSet<u64> =
            full.switches.iter().map(|sc| sc.fingerprint).collect();
        for sc in &inc.switches {
            assert_eq!(fingerprint_rules(&r1.switch_rules(sc.switch)), sc.fingerprint);
            assert_eq!(
                sc.reused,
                prev_fps.contains(&sc.fingerprint),
                "switch {} reuse flag disagrees with cache content",
                sc.switch
            );
        }
        // Reuse must not change the produced pipelines.
        let fresh = compile_network(&r1, &compiler).unwrap();
        for (a, b) in inc.switches.iter().zip(&fresh.switches) {
            assert_eq!(a.entries, b.entries);
            assert_eq!(a.fingerprint, b.fingerprint);
        }
    }

    #[test]
    fn identical_rule_lists_share_one_compile() {
        // In a full-mesh Fat Tree every core sees the same per-pod
        // unions on the same port numbers, so all cores carry identical
        // rule lists: the content-addressed incremental path must pay
        // one compile for the whole layer.
        let net = paper_fat_tree();
        let r = route_hierarchical(
            &net,
            &subs(net.host_count()),
            RoutingConfig::new(Policy::MemoryReduction),
        );
        let cores: Vec<usize> =
            (0..net.switch_count()).filter(|&s| net.switches[s].layer == 2).collect();
        let fps: std::collections::HashSet<u64> =
            cores.iter().map(|&s| fingerprint_rules(&r.switch_rules(s))).collect();
        assert_eq!(fps.len(), 1, "cores must share one fingerprint");

        let inc = compile_network_incremental(&r, &Compiler::new(), None, None).unwrap();
        assert_eq!(inc.reused, 0);
        assert_eq!(inc.recompiled, net.switch_count());
        assert!(
            inc.distinct_compiles <= net.switch_count() - (cores.len() - 1),
            "{} distinct compiles for {} switches with {} identical cores",
            inc.distinct_compiles,
            net.switch_count(),
            cores.len()
        );
        // Sharers hold literally the same artefact.
        let first = &inc.switches[cores[0]];
        for &c in &cores[1..] {
            assert!(Arc::ptr_eq(&first.compiled, &inc.switches[c].compiled));
        }
        // And the shared pipelines match what a per-switch compile produces.
        let full = compile_network(&r, &Compiler::new()).unwrap();
        for (a, b) in inc.switches.iter().zip(&full.switches) {
            assert_eq!(a.entries, b.entries);
            assert_eq!(a.fingerprint, b.fingerprint);
        }
    }

    #[test]
    fn incremental_with_mismatched_topology_recompiles_fully() {
        let net = paper_fat_tree();
        let cfg = RoutingConfig::new(Policy::MemoryReduction);
        let compiler = Compiler::new();
        let r = route_hierarchical(&net, &subs(net.host_count()), cfg);
        let full = compile_network(&r, &compiler).unwrap();
        // A "previous" result with the wrong switch count is ignored.
        let mut wrong = full.clone();
        wrong.switches.truncate(3);
        let inc = compile_network_incremental(&r, &compiler, Some(&wrong), None).unwrap();
        assert_eq!(inc.reused, 0);
        assert_eq!(inc.recompiled, net.switch_count());
    }

    #[test]
    fn worker_panic_surfaces_as_compile_error() {
        let results = run_parallel(8, |i| {
            if i == 5 {
                panic!("boom at {i}");
            }
            Ok(i * 2)
        });
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                match r {
                    Err(CompileError::Panicked { unit, message }) => {
                        assert_eq!(*unit, 5);
                        assert!(message.contains("boom"), "message: {message}");
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                }
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 2);
            }
        }
    }

    #[test]
    fn largest_rule_lists_are_claimed_first_and_results_keep_unit_order() {
        let net = paper_fat_tree();
        let r = route_hierarchical(
            &net,
            &subs(net.host_count()),
            RoutingConfig::new(Policy::MemoryReduction),
        );
        // A ToR, a core, an agg, another core: not in size order.
        let units = [0, 19, 9, 16];
        let order = largest_first(&r, &units);
        let sizes: Vec<usize> = order.iter().map(|&i| r.switch_filter_count(units[i])).collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "claim order {sizes:?}");
        assert!(sizes[0] > sizes[3], "the workload must be skewed for this to mean anything");
        assert_eq!(&order[..2], &[1, 3], "the two cores first, ties in unit order");

        // Whatever the claim order, results line up with `units`...
        let out = run_largest_first(&r, &units, |s| Ok(s * 10)).unwrap();
        assert_eq!(out, vec![0, 190, 90, 160]);
        // ...and a panic names the switch, not a dense index.
        let err = run_largest_first(&r, &units, |s| {
            if s == 9 {
                panic!("boom at {s}");
            }
            Ok(s)
        })
        .unwrap_err();
        match err {
            CompileError::Panicked { unit, message } => {
                assert_eq!(unit, 9);
                assert!(message.contains("boom"), "message: {message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn work_stealing_covers_all_units_once() {
        // Many more units than workers: every unit must be produced
        // exactly once and in order after the sort.
        let results = run_parallel::<_, CompileError, _>(257, Ok);
        let values: Vec<usize> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, (0..257).collect::<Vec<_>>());
    }
}
