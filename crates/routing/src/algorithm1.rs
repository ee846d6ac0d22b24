//! Algorithm 1: routing in a hierarchical (Fat-Tree) network.
//!
//! Computes the filter sets `F_p^s` for every switch `s` and port `p`
//! from the per-host subscriptions, under one of the two policies of
//! §IV-C (illustrated in Fig. 3):
//!
//! * **MR (memory reduction)** — down-port sets are exact, and every
//!   up set is the single `true` filter: all traffic is pushed through
//!   the core, but switches store few rules.
//! * **TR (traffic reduction)** — the up set contains exactly the
//!   subscriptions of the hosts *outside* the switch's subtree, so no
//!   unnecessary traffic ascends, at the cost of storing filters from
//!   the whole network.
//!
//! The α-discretisation approximation of §IV-D is applied to every
//! filter that is *aggregated upward* (anything above the access
//! ports); access-port sets are never approximated, preserving the
//! soundness condition of §IV-C.

use crate::topology::{FaultMask, HierNet, SwitchId, LOGICAL_UP};
use camus_core::digest::{expr_digest, Fnv1a};
use camus_core::RuleView;
use camus_lang::approx::{approximate_expr, ApproxConfig};
use camus_lang::ast::{Action, Expr, Port, Rule};
use std::collections::{HashMap, HashSet};

/// The two routing policies of §IV-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    MemoryReduction,
    TrafficReduction,
}

/// Routing configuration.
#[derive(Debug, Clone, Copy)]
pub struct RoutingConfig {
    pub policy: Policy,
    /// Discretisation unit for aggregated filters; `1` disables the
    /// approximation.
    pub alpha: i64,
}

impl RoutingConfig {
    pub fn new(policy: Policy) -> Self {
        RoutingConfig { policy, alpha: 1 }
    }

    pub fn with_alpha(mut self, alpha: i64) -> Self {
        self.alpha = alpha;
        self
    }

    fn approx(&self) -> Option<ApproxConfig> {
        (self.alpha > 1).then(|| ApproxConfig::new(self.alpha))
    }
}

/// Dense id of one distinct filter in a [`FilterPool`].
type FilterId = u32;

/// The hash-consed filters of one routing run: every distinct `Expr`
/// exists once, network-wide, next to its stable structural hash. A
/// subscription is hashed and looked up once on entry; everything after
/// that (set membership, union, replication, fingerprinting, rule
/// digests) works on ids and the memoised hash; [`RoutingResult::switch_view`]
/// lends the expressions out and only [`RoutingResult::switch_rules`]
/// copies them.
#[derive(Debug, Clone, Default)]
struct FilterPool {
    exprs: Vec<Expr>,
    /// `expr_digest` of each member, by id.
    hashes: Vec<u64>,
    /// Stable hash → id. Distinct filters whose 64-bit hashes collide
    /// probe linearly (`hash + 1`, …), so identity is always `Expr`
    /// equality, never hash equality.
    index: HashMap<u64, FilterId>,
}

impl FilterPool {
    fn intern(&mut self, f: &Expr) -> FilterId {
        let hash = expr_digest(f);
        let mut key = hash;
        loop {
            match self.index.get(&key) {
                Some(&id) if self.exprs[id as usize] == *f => return id,
                Some(_) => key = key.wrapping_add(1),
                None => break,
            }
        }
        let id = FilterId::try_from(self.exprs.len()).expect("fewer than 2^32 distinct filters");
        self.index.insert(key, id);
        self.exprs.push(f.clone());
        self.hashes.push(hash);
        id
    }
}

/// An ordered, deduplicated filter set (one `F_p^s`), as ids into the
/// routing result's pool.
///
/// Each member's memoised stable hash is folded into a commutative
/// per-set accumulator on insertion — so a whole set fingerprints in
/// `O(1)` and a switch in `O(ports)`
/// ([`RoutingResult::switch_fingerprint`]) instead of re-hashing every
/// filter of every switch on every reconfiguration.
#[derive(Debug, Clone, Default)]
pub struct FilterSet {
    ids: Vec<FilterId>,
    /// Wrapping sum of `mix64(hash)` over the members.
    acc: u64,
}

impl FilterSet {
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The computed routing policy: `F_p^s` for every switch and port.
#[derive(Debug, Clone, Default)]
pub struct RoutingResult {
    /// Per switch: port → filter set. [`LOGICAL_UP`] keys the up set.
    pub filters: Vec<HashMap<Port, FilterSet>>,
    pool: FilterPool,
}

impl RoutingResult {
    /// Switch `s`'s rule list held by reference: one
    /// `filter: fwd(port)` rule per filter (§IV-D's intermediate
    /// representation), each with its rule digest, continued from the
    /// pool's memoised filter hash. This is what the delta compile
    /// diffs; only the rules it inserts are ever cloned.
    ///
    /// The order is *canonical* — port-major, then a stable structural
    /// sort within each port — so that two routing runs producing the
    /// same filter sets yield identical lists. Incremental
    /// recompilation fingerprints this list; without the within-port
    /// sort, removing a duplicate-held filter could merely shift where
    /// the surviving copy sits in the deduplicated set and spuriously
    /// invalidate an unchanged switch.
    pub fn switch_view(&self, s: SwitchId) -> RuleView<'_> {
        let mut ports: Vec<(Port, &FilterSet)> = (self.filters[s].iter())
            .filter(|(_, set)| !set.is_empty())
            .map(|(&port, set)| (port, set))
            .collect();
        ports.sort_unstable_by_key(|&(port, _)| port);
        let mut view = RuleView::with_capacity(self.switch_filter_count(s));
        let mut ids = Vec::new();
        for (port, set) in ports {
            view.start_run(Action::Forward(vec![port]));
            ids.clone_from(&set.ids);
            ids.sort_unstable_by_key(|&id| self.pool.hashes[id as usize]);
            for &id in &ids {
                view.push(self.pool.hashes[id as usize], &self.pool.exprs[id as usize]);
            }
        }
        view
    }

    /// Switch `s`'s canonical rule list ([`RoutingResult::switch_view`])
    /// as owned rules: every filter cloned.
    pub fn switch_rules(&self, s: SwitchId) -> Vec<Rule> {
        self.switch_view(s).to_rules()
    }

    /// Stable fingerprint of the switch's canonical rule list, computed
    /// from the per-port accumulators in `O(ports)` — identical to
    /// [`crate::compile::fingerprint_rules`] over
    /// [`RoutingResult::switch_rules`] without materialising (or
    /// re-hashing) the list.
    pub fn switch_fingerprint(&self, s: SwitchId) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut ports: Vec<&Port> = self.filters[s].keys().collect();
        ports.sort_unstable();
        let mut h = Fnv1a(Fnv1a::OFFSET);
        self.switch_filter_count(s).hash(&mut h);
        for &port in ports {
            let set = &self.filters[s][&port];
            if set.is_empty() {
                continue; // emits no rules, so no run either
            }
            Action::Forward(vec![port]).hash(&mut h);
            set.len().hash(&mut h);
            h.write(&set.acc.to_le_bytes());
        }
        h.finish()
    }

    /// Number of filters stored by switch `s` (all ports).
    pub fn switch_filter_count(&self, s: SwitchId) -> usize {
        self.filters[s].values().map(|f| f.len()).sum()
    }
}

/// The working state of one routing run: the pool being filled, the
/// α-widening memo, and the stamp array that deduplicates set members
/// by id instead of by hashing expressions.
struct Router {
    pool: FilterPool,
    approx: Option<ApproxConfig>,
    /// Id → id of its widened form, filled on first use, so each
    /// distinct filter is approximated once per run.
    widened: Vec<Option<FilterId>>,
    /// `stamp[id] == generation` ⇔ `id` is in the set being extended.
    stamp: Vec<u32>,
    generation: u32,
}

impl Router {
    /// The filter that stands for `id` above the access ports.
    fn widen(&mut self, id: FilterId) -> FilterId {
        let Some(cfg) = self.approx else { return id };
        if self.widened.len() < self.pool.exprs.len() {
            self.widened.resize(self.pool.exprs.len(), None);
        }
        if let Some(wide) = self.widened[id as usize] {
            return wide;
        }
        let wide = approximate_expr(&self.pool.exprs[id as usize], cfg);
        let wide = self.pool.intern(&wide);
        self.widened[id as usize] = Some(wide);
        wide
    }

    /// Insert `ids` into `set` in order, skipping the members it holds.
    fn extend(&mut self, set: &mut FilterSet, ids: &[FilterId]) {
        self.generation += 1;
        self.stamp.resize(self.pool.exprs.len(), 0);
        for &id in &set.ids {
            self.stamp[id as usize] = self.generation;
        }
        for &id in ids {
            if std::mem::replace(&mut self.stamp[id as usize], self.generation) != self.generation {
                set.ids.push(id);
                set.acc =
                    set.acc.wrapping_add(crate::compile::mix64(self.pool.hashes[id as usize]));
            }
        }
    }
}

/// Run Algorithm 1 over a hierarchical network. `subs[h]` is host `h`'s
/// subscription filters.
pub fn route_hierarchical(net: &HierNet, subs: &[Vec<Expr>], cfg: RoutingConfig) -> RoutingResult {
    route_hierarchical_degraded(net, subs, cfg, &FaultMask::default())
}

/// Algorithm 1 over a degraded topology: elements failed in `mask` are
/// routed around. Dead switches keep their slot in the result but get
/// empty filter sets (an empty rule list still compiles), so per-slot
/// fingerprint caches stay valid across failures; detached hosts (dead
/// access link or ToR) are excluded from every filter set. With an
/// empty mask this is exactly [`route_hierarchical`].
pub fn route_hierarchical_degraded(
    net: &HierNet,
    subs: &[Vec<Expr>],
    cfg: RoutingConfig,
    mask: &FaultMask,
) -> RoutingResult {
    assert_eq!(subs.len(), net.host_count(), "one subscription list per host");
    let mut r = Router {
        pool: FilterPool::default(),
        approx: cfg.approx(),
        widened: Vec::new(),
        stamp: Vec::new(),
        generation: 0,
    };
    let mut filters: Vec<HashMap<Port, FilterSet>> = vec![HashMap::new(); net.switch_count()];

    // The only place a subscription's `Expr` is hashed, compared or
    // cloned: from here on a filter is its id. Detached hosts get no
    // ids, which is what keeps them out of every set below.
    let host_ids: Vec<Vec<FilterId>> = (subs.iter().enumerate())
        .map(|(h, fs)| {
            if net.host_attached(h, mask) {
                fs.iter().map(|f| r.pool.intern(f)).collect()
            } else {
                Vec::new()
            }
        })
        .collect();

    // Access ports: exact subscription sets (soundness, §IV-C), for the
    // hosts that are still attached.
    for (h, &(s, p)) in net.access.iter().enumerate() {
        if net.host_attached(h, mask) {
            r.extend(filters[s].entry(p).or_default(), &host_ids[h]);
        }
    }

    // Bottom-up: each switch's union of down sets ascends along the
    // distribution tree (approximated when α > 1): to the *designated*
    // parent only, except that the level below the top replicates to
    // every (surviving) top-layer switch, so the peak of any ascent can
    // serve every subscriber. Single-parent propagation is what keeps
    // multicast forwarding duplicate-free in a multi-rooted Fat Tree;
    // under a mask the designated parent is the first up link that
    // still works, which is how the tree self-heals.
    let top = net.top_layer();
    let mut ascending: Vec<FilterId> = Vec::new();
    for src in net.bottom_up() {
        let Some(designated) = net.designated_up_masked(src, mask) else {
            continue; // dead, top layer, or partitioned from above
        };
        let parents: Vec<(SwitchId, Port)> = if net.switches[designated.0].layer == top {
            // Replicate to all surviving top switches.
            net.switches[src]
                .up
                .iter()
                .copied()
                .filter(|&(peer, port)| {
                    net.switches[peer].layer == top && net.link_usable(peer, port, mask)
                })
                .collect()
        } else {
            vec![designated]
        };
        // The down sets back to back; `extend` deduplicates the union.
        ascending.clear();
        for port in 0..net.switches[src].down.len() {
            if let Some(set) = filters[src].get(&(port as Port)) {
                ascending.extend(set.ids.iter().map(|&id| r.widen(id)));
            }
        }
        for (dst, q) in parents {
            r.extend(filters[dst].entry(q).or_default(), &ascending);
        }
    }

    // Up sets, per policy.
    match cfg.policy {
        Policy::MemoryReduction => {
            let everything = [r.pool.intern(&Expr::True)];
            for (s, fs) in filters.iter_mut().enumerate() {
                if net.designated_up_masked(s, mask).is_some() {
                    r.extend(fs.entry(LOGICAL_UP).or_default(), &everything);
                }
            }
        }
        Policy::TrafficReduction => {
            // §IV-C: under TR, `F_up` "matches the exact and therefore
            // minimal set of packets that are of interest to hosts
            // reachable through (one of) the up port" — i.e. the hosts
            // *outside* the switch's subtree. (The paper's pseudo-code
            // derives this from the first up link's parent, which in a
            // multi-parent Fat Tree re-imports the subtree's own
            // subscriptions through the sibling aggregate; we compute
            // the partition directly to honour the minimality claim.)
            for (src, sw) in net.switches.iter().enumerate() {
                if sw.up.is_empty() || net.designated_up_masked(src, mask).is_none() {
                    continue; // top layer, dead, or partitioned from above
                }
                // Outside the switch's *distribution-tree* subtree: a
                // subscriber below the switch physically but designated
                // through a sibling still needs the packet to ascend.
                let below: HashSet<usize> =
                    net.designated_below_masked(src, mask).into_iter().collect();
                ascending.clear();
                for (h, ids) in host_ids.iter().enumerate() {
                    if !below.contains(&h) {
                        ascending.extend(ids.iter().map(|&id| r.widen(id)));
                    }
                }
                let mut up = FilterSet::default();
                r.extend(&mut up, &ascending);
                if !up.is_empty() {
                    filters[src].insert(LOGICAL_UP, up);
                }
            }
        }
    }

    RoutingResult { filters, pool: r.pool }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::paper_fat_tree;
    use camus_lang::parser::parse_expr;

    fn subs_for(net: &HierNet, make: impl Fn(usize) -> Vec<&'static str>) -> Vec<Vec<Expr>> {
        (0..net.host_count())
            .map(|h| make(h).into_iter().map(|s| parse_expr(s).unwrap()).collect())
            .collect()
    }

    /// The members of `F_p^s`, in insertion order (nothing when the
    /// port holds no set).
    fn port_filters(r: &RoutingResult, s: SwitchId, port: Port) -> Vec<&Expr> {
        let ids = r.filters[s].get(&port).map_or(&[][..], |set| set.ids.as_slice());
        ids.iter().map(|&id| &r.pool.exprs[id as usize]).collect()
    }

    #[test]
    fn access_ports_are_exact() {
        let net = paper_fat_tree();
        let subs = subs_for(&net, |h| if h == 0 { vec!["stock == GOOGL"] } else { vec![] });
        for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
            let r = route_hierarchical(&net, &subs, RoutingConfig::new(policy).with_alpha(10));
            let (s, p) = net.access[0];
            assert_eq!(port_filters(&r, s, p), [&parse_expr("stock == GOOGL").unwrap()]);
        }
    }

    #[test]
    fn mr_up_sets_are_true() {
        let net = paper_fat_tree();
        let subs = subs_for(&net, |_| vec!["price > 5"]);
        let r = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::MemoryReduction));
        for (s, sw) in net.switches.iter().enumerate() {
            if sw.up.is_empty() {
                assert!(!r.filters[s].contains_key(&LOGICAL_UP), "core has no up set");
            } else {
                assert_eq!(port_filters(&r, s, LOGICAL_UP), [&Expr::True]);
            }
        }
    }

    #[test]
    fn tr_up_sets_cover_outside_subscriptions() {
        let net = paper_fat_tree();
        // Host 15 (last pod) subscribes; ToR 0's up set must cover it.
        let subs = subs_for(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        let r = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::TrafficReduction));
        assert_eq!(port_filters(&r, 0, LOGICAL_UP), [&parse_expr("stock == GOOGL").unwrap()]);
        // ...and must NOT appear on ToR 0's up set if only host 0 (own
        // subtree) subscribes.
        let subs = subs_for(&net, |h| if h == 0 { vec!["stock == GOOGL"] } else { vec![] });
        let r = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::TrafficReduction));
        assert!(r.filters[0].get(&LOGICAL_UP).is_none_or(|s| s.is_empty()));
    }

    #[test]
    fn tr_stores_more_filters_than_mr() {
        let net = paper_fat_tree();
        let subs: Vec<Vec<Expr>> = (0..net.host_count())
            .map(|h| vec![parse_expr(&format!("id == {h}")).unwrap()])
            .collect();
        let mr = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::MemoryReduction));
        let tr = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::TrafficReduction));
        let total = |r: &RoutingResult| -> usize {
            (0..net.switch_count()).map(|s| r.switch_filter_count(s)).sum()
        };
        assert!(
            total(&tr) > total(&mr),
            "TR ({}) must store more than MR ({})",
            total(&tr),
            total(&mr)
        );
    }

    #[test]
    fn aggregation_dedups_identical_filters() {
        let net = paper_fat_tree();
        // Every host subscribes to the same thing: aggregate sets stay
        // size 1.
        let subs = subs_for(&net, |_| vec!["stock == GOOGL"]);
        let r = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::MemoryReduction));
        // Agg switch 8, down port 0 (towards ToR 0).
        assert_eq!(r.filters[8][&0].len(), 1);
    }

    #[test]
    fn alpha_aggregates_similar_filters_upward() {
        let net = paper_fat_tree();
        // Hosts under ToR 0 subscribe to slightly different thresholds.
        let subs: Vec<Vec<Expr>> = (0..net.host_count())
            .map(|h| vec![parse_expr(&format!("price > {}", 51 + h)).unwrap()])
            .collect();
        let exact = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::MemoryReduction));
        let approx = route_hierarchical(
            &net,
            &subs,
            RoutingConfig::new(Policy::MemoryReduction).with_alpha(100),
        );
        // At an agg's down port the 2 ToR-hosts' filters collapse to 1.
        assert_eq!(exact.filters[8][&0].len(), 2);
        assert_eq!(approx.filters[8][&0].len(), 1);
        // Access ports stay exact.
        let (s, p) = net.access[0];
        assert_eq!(port_filters(&approx, s, p).first(), Some(&&parse_expr("price > 51").unwrap()));
    }

    #[test]
    fn switch_rules_use_port_actions() {
        let net = paper_fat_tree();
        let subs = subs_for(&net, |h| if h == 0 { vec!["a == 1"] } else { vec![] });
        let r = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::TrafficReduction));
        let rules = r.switch_rules(0);
        assert!(rules.iter().any(|r| r.action == Action::Forward(vec![0])));
        // Rules are port-sorted and well formed.
        for rule in &rules {
            assert!(rule.action.ports().is_some());
        }
    }

    #[test]
    fn view_digests_are_the_rule_digests_of_the_rule_list() {
        // The delta compile diffs the view's digests, continued from the
        // pool's memoised filter hashes, against digests `rule_digest`
        // took of owned rules; they must agree rule by rule and in
        // order. Host 0..4 hold one filter between them; the thresholds
        // widen under α.
        use camus_core::digest::rule_digest;
        let net = paper_fat_tree();
        let subs: Vec<Vec<Expr>> = (0..net.host_count())
            .map(|h| {
                let mut fs = vec![parse_expr(&format!("price > {}", 51 + 7 * h)).unwrap()];
                if h < 4 {
                    fs.push(parse_expr("stock == GOOGL").unwrap());
                }
                fs
            })
            .collect();
        for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
            for alpha in [1, 100] {
                for dead in [None, Some(8)] {
                    let mut mask = FaultMask::new();
                    if let Some(s) = dead {
                        mask.fail_switch(s);
                    }
                    let cfg = RoutingConfig::new(policy).with_alpha(alpha);
                    let r = route_hierarchical_degraded(&net, &subs, cfg, &mask);
                    for s in 0..net.switch_count() {
                        let rules = r.switch_rules(s);
                        let view = r.switch_view(s);
                        assert_eq!(view.len(), rules.len());
                        for (i, (rule, (digest, filter, action))) in
                            rules.iter().zip(view.iter()).enumerate()
                        {
                            let at = format!("{policy:?} α={alpha} {dead:?} switch {s} rule {i}");
                            assert_eq!(digest, rule_digest(rule), "{at}");
                            assert_eq!((filter, action), (&rule.filter, &rule.action), "{at}");
                        }
                    }
                    if let Some(s) = dead {
                        assert!(r.switch_view(s).is_empty(), "a dead switch holds nothing");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one subscription list per host")]
    fn wrong_subscription_arity_panics() {
        let net = paper_fat_tree();
        route_hierarchical(&net, &[], RoutingConfig::new(Policy::MemoryReduction));
    }

    #[test]
    fn degraded_with_empty_mask_is_identity() {
        let net = paper_fat_tree();
        let subs = subs_for(&net, |h| vec![if h % 2 == 0 { "price > 10" } else { "id == 3" }]);
        for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
            let cfg = RoutingConfig::new(policy);
            let a = route_hierarchical(&net, &subs, cfg);
            let b = route_hierarchical_degraded(&net, &subs, cfg, &FaultMask::default());
            for s in 0..net.switch_count() {
                assert_eq!(a.switch_rules(s), b.switch_rules(s), "{policy:?} switch {s}");
            }
        }
    }

    #[test]
    fn degraded_routing_moves_filters_to_surviving_agg() {
        let net = paper_fat_tree();
        let subs = subs_for(&net, |h| if h == 0 { vec!["stock == GOOGL"] } else { vec![] });
        let cfg = RoutingConfig::new(Policy::MemoryReduction);
        let chain = net.designated_chain(0);
        let (agg, sibling) = (chain[1], net.switches[0].up[1].0);

        let mut mask = FaultMask::new();
        mask.fail_switch(agg);
        let r = route_hierarchical_degraded(&net, &subs, cfg, &mask);
        // The dead agg carries nothing; the sibling now carries host 0's
        // filter on its port towards ToR 0.
        assert!(r.switch_rules(agg).is_empty());
        assert!(r.switch_filter_count(sibling) > 0, "sibling agg takes over");
        // Host 0's filter still reaches every core via the sibling.
        for core in 16..20 {
            assert!(
                r.switch_rules(core)
                    .iter()
                    .any(|rule| rule.filter == parse_expr("stock == GOOGL").unwrap()),
                "core {core} lost the subscription"
            );
        }
    }

    #[test]
    fn detached_host_is_dropped_from_all_filter_sets() {
        let net = paper_fat_tree();
        let subs = subs_for(&net, |h| if h == 0 { vec!["stock == GOOGL"] } else { vec![] });
        let needle = parse_expr("stock == GOOGL").unwrap();
        for policy in [Policy::MemoryReduction, Policy::TrafficReduction] {
            let cfg = RoutingConfig::new(policy);
            let mut mask = FaultMask::new();
            let (tor, port) = net.access[0];
            mask.fail_link(tor, port);
            let r = route_hierarchical_degraded(&net, &subs, cfg, &mask);
            for s in 0..net.switch_count() {
                assert!(
                    !r.switch_rules(s).iter().any(|rule| rule.filter == needle),
                    "{policy:?}: detached host's filter survives on switch {s}"
                );
            }
        }
    }

    #[test]
    fn tr_up_sets_exclude_detached_outside_hosts() {
        let net = paper_fat_tree();
        // Host 15 subscribes; kill its ToR: ToR 0's up set must not
        // carry a filter that can no longer be delivered anywhere.
        let subs = subs_for(&net, |h| if h == 15 { vec!["stock == GOOGL"] } else { vec![] });
        let mut mask = FaultMask::new();
        mask.fail_switch(net.access[15].0);
        let r = route_hierarchical_degraded(
            &net,
            &subs,
            RoutingConfig::new(Policy::TrafficReduction),
            &mask,
        );
        assert!(r.filters[0].get(&LOGICAL_UP).is_none_or(|s| s.is_empty()));
    }
}
