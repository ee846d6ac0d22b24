//! Hierarchical data-center topologies (§III, §IV-B).
//!
//! A [`HierNet`] is a layered network: layer 0 switches (ToR) attach
//! hosts, higher layers interconnect. Links are classified *up* or
//! *down* by layer, which is all Algorithm 1 needs. Following §IV-C,
//! the upward physical ports of a switch form a single logical **up**
//! port ([`LOGICAL_UP`]); a packet received on an upward port is never
//! forwarded back up.

use camus_lang::ast::Port;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

pub type SwitchId = usize;
pub type HostId = usize;

/// The logical up port (§IV-C: "Camus treats the upward ports of a
/// switch ... as a single logical up port").
pub const LOGICAL_UP: Port = u16::MAX;

/// What a downward port connects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DownTarget {
    Host(HostId),
    /// `(switch, its local upward-port index)` — used to map traffic
    /// back onto the peer's port space.
    Switch(SwitchId, usize),
}

/// One switch in the hierarchy.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HierSwitch {
    /// 0 = ToR; parents have strictly larger layer numbers.
    pub layer: usize,
    /// Down links, indexed by local port number `0..`.
    pub down: Vec<DownTarget>,
    /// Up links: `(peer switch, peer's down-port index)`.
    pub up: Vec<(SwitchId, Port)>,
}

/// Failed elements of a [`HierNet`], masked out of routing and
/// forwarding.
///
/// Links are identified by their *upper* endpoint `(switch,
/// down-port)` — the canonical direction [`DownTarget`] already uses —
/// and a failed link is dead in both directions. A failed switch
/// implicitly disables every link incident to it *without* touching
/// the link set, so restoring the switch restores its links unless
/// they were failed individually.
///
/// Switch indices are never removed from the topology: a dead switch
/// keeps its slot (and gets an empty rule list from degraded routing),
/// which keeps per-slot fingerprint caches valid across failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultMask {
    dead_switches: HashSet<SwitchId>,
    dead_links: HashSet<(SwitchId, Port)>,
}

impl FaultMask {
    pub fn new() -> Self {
        FaultMask::default()
    }

    /// Mark a switch failed. Returns whether the state changed.
    pub fn fail_switch(&mut self, s: SwitchId) -> bool {
        self.dead_switches.insert(s)
    }

    /// Bring a failed switch back. Returns whether the state changed.
    pub fn restore_switch(&mut self, s: SwitchId) -> bool {
        self.dead_switches.remove(&s)
    }

    /// Mark the link behind down-port `(upper, port)` failed.
    pub fn fail_link(&mut self, upper: SwitchId, port: Port) -> bool {
        self.dead_links.insert((upper, port))
    }

    /// Bring a failed link back.
    pub fn restore_link(&mut self, upper: SwitchId, port: Port) -> bool {
        self.dead_links.remove(&(upper, port))
    }

    pub fn switch_alive(&self, s: SwitchId) -> bool {
        !self.dead_switches.contains(&s)
    }

    /// Is the link itself alive? Endpoint liveness is *not* considered
    /// here — see [`HierNet::link_usable`] for the full check.
    pub(crate) fn link_alive(&self, upper: SwitchId, port: Port) -> bool {
        !self.dead_links.contains(&(upper, port))
    }

    /// No failures at all.
    pub fn is_healthy(&self) -> bool {
        self.dead_switches.is_empty() && self.dead_links.is_empty()
    }

    /// Currently failed switches, sorted for deterministic iteration.
    pub fn dead_switches(&self) -> Vec<SwitchId> {
        let mut v: Vec<SwitchId> = self.dead_switches.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Currently failed links, sorted for deterministic iteration.
    pub fn dead_links(&self) -> Vec<(SwitchId, Port)> {
        let mut v: Vec<(SwitchId, Port)> = self.dead_links.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

/// A hierarchical network with hosts attached at the bottom layer.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HierNet {
    pub switches: Vec<HierSwitch>,
    /// Host attachment: `host -> (switch, down-port)`.
    pub access: Vec<(SwitchId, Port)>,
}

impl HierNet {
    /// Switch ids sorted bottom-up (ToR first), as Algorithm 1 iterates.
    pub(crate) fn bottom_up(&self) -> Vec<SwitchId> {
        let mut ids: Vec<SwitchId> = (0..self.switches.len()).collect();
        ids.sort_by_key(|&s| self.switches[s].layer);
        ids
    }

    pub fn host_count(&self) -> usize {
        self.access.len()
    }

    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// The highest layer number (core layer).
    pub(crate) fn top_layer(&self) -> usize {
        self.switches.iter().map(|s| s.layer).max().unwrap_or(0)
    }

    /// Is the physical link behind down-port `(s, port)` usable under
    /// `mask`: the link itself alive, both endpoint switches alive, and
    /// the port actually wired? (A host endpoint is always alive.)
    pub fn link_usable(&self, s: SwitchId, port: Port, mask: &FaultMask) -> bool {
        if !mask.switch_alive(s) || !mask.link_alive(s, port) {
            return false;
        }
        match self.switches[s].down.get(port as usize) {
            Some(DownTarget::Host(_)) => true,
            Some(DownTarget::Switch(c, _)) => mask.switch_alive(*c),
            None => false,
        }
    }

    /// Is `host` reachable at all: its access link and ToR alive?
    pub fn host_attached(&self, host: HostId, mask: &FaultMask) -> bool {
        let (s, p) = self.access[host];
        self.link_usable(s, p, mask)
    }

    /// The designated up link of a switch: its first up link (§IV-C's
    /// pseudo-code also uses the first up link) whose peer and wire
    /// survive `mask`. Subscription propagation and upward forwarding
    /// both follow designated links, which makes the distribution
    /// structure a tree — the property that keeps multicast forwarding
    /// duplicate-free in a multi-rooted Fat Tree. Failing over to the
    /// next surviving up link is what lets the tree self-heal around a
    /// dead designated parent.
    pub fn designated_up_masked(&self, s: SwitchId, mask: &FaultMask) -> Option<(SwitchId, Port)> {
        if !mask.switch_alive(s) {
            return None;
        }
        self.switches[s].up.iter().copied().find(|&(peer, port)| self.link_usable(peer, port, mask))
    }

    /// The designated chain of a host: its access switch followed by
    /// successive designated parents up to a top-layer switch.
    pub fn designated_chain(&self, host: HostId) -> Vec<SwitchId> {
        self.designated_chain_masked(host, &FaultMask::default())
    }

    /// [`HierNet::designated_chain`] over a degraded topology. Empty
    /// when the host's access link or ToR is dead; otherwise the chain
    /// climbs designated-masked parents as far as it can (a chain that
    /// peaks below the top layer means the host is partitioned from
    /// the core).
    pub(crate) fn designated_chain_masked(&self, host: HostId, mask: &FaultMask) -> Vec<SwitchId> {
        if !self.host_attached(host, mask) {
            return vec![];
        }
        let mut chain = vec![self.access[host].0];
        while let Some((up, _)) = self.designated_up_masked(*chain.last().unwrap(), mask) {
            chain.push(up);
        }
        chain
    }

    /// Hosts whose designated chain under `mask` passes through
    /// `switch` — the subscribers this switch serves on the
    /// distribution tree. A top-layer switch serves every host whose
    /// chain peaks in the top layer (the second-to-top level replicates
    /// its subscriptions to *all* top switches, so any of them can
    /// serve as the peak of a path). A dead switch serves nobody.
    pub fn designated_below_masked(&self, switch: SwitchId, mask: &FaultMask) -> Vec<HostId> {
        if !mask.switch_alive(switch) {
            return vec![];
        }
        let top = self.top_layer();
        if self.switches[switch].layer == top && top > 0 {
            return (0..self.access.len())
                .filter(|&h| {
                    let chain = self.designated_chain_masked(h, mask);
                    chain.last().is_some_and(|&peak| self.switches[peak].layer == top)
                })
                .collect();
        }
        (0..self.access.len())
            .filter(|&h| self.designated_chain_masked(h, mask).contains(&switch))
            .collect()
    }

    /// Hosts served by the down port `(switch, port)` on the
    /// distribution tree under `mask`: the host itself for an access
    /// port, or the hosts whose designated chain uses the edge
    /// `child → switch`. When `switch` is a top-layer switch, the edge
    /// from `child` serves every host whose chain ascends from `child`
    /// into the top layer (the child replicates to all top switches). A
    /// port whose link is unusable serves nobody.
    pub fn designated_through_masked(
        &self,
        switch: SwitchId,
        port: Port,
        mask: &FaultMask,
    ) -> Vec<HostId> {
        if !self.link_usable(switch, port, mask) {
            return vec![];
        }
        let top = self.top_layer();
        match self.switches[switch].down.get(port as usize) {
            Some(DownTarget::Host(h)) => vec![*h],
            Some(DownTarget::Switch(c, _)) => {
                let at_top = self.switches[switch].layer == top;
                (0..self.access.len())
                    .filter(|&h| {
                        let chain = self.designated_chain_masked(h, mask);
                        chain.windows(2).any(|w| {
                            w[0] == *c
                                && (w[1] == switch || (at_top && self.switches[w[1]].layer == top))
                        })
                    })
                    .collect()
            }
            None => vec![],
        }
    }

    /// Sanity-check link symmetry and layering. Used by tests and the
    /// builders.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (sid, sw) in self.switches.iter().enumerate() {
            for &(peer, peer_port) in &sw.up {
                let p = self
                    .switches
                    .get(peer)
                    .ok_or_else(|| format!("switch {sid} up-links to missing {peer}"))?;
                if p.layer <= sw.layer {
                    return Err(format!("up link {sid}->{peer} does not ascend"));
                }
                match p.down.get(peer_port as usize) {
                    Some(DownTarget::Switch(back, _)) if *back == sid => {}
                    other => {
                        return Err(format!(
                            "asymmetric link {sid}->{peer} port {peer_port}: {other:?}"
                        ))
                    }
                }
            }
            for (port, d) in sw.down.iter().enumerate() {
                if let DownTarget::Switch(c, up_idx) = d {
                    let child = self
                        .switches
                        .get(*c)
                        .ok_or_else(|| format!("switch {sid} down-links to missing {c}"))?;
                    if child.layer >= sw.layer {
                        return Err(format!("down link {sid}->{c} does not descend"));
                    }
                    match child.up.get(*up_idx) {
                        Some(&(back, back_port)) if back == sid && back_port as usize == port => {}
                        other => {
                            return Err(format!(
                                "asymmetric down link {sid}:{port}->{c}: {other:?}"
                            ))
                        }
                    }
                }
            }
        }
        for (h, &(s, p)) in self.access.iter().enumerate() {
            match self.switches.get(s).and_then(|sw| sw.down.get(p as usize)) {
                Some(DownTarget::Host(hh)) if *hh == h => {}
                other => return Err(format!("host {h} access mismatch: {other:?}")),
            }
        }
        Ok(())
    }
}

/// Build a three-layer hierarchical topology: `pods` pods of
/// `tors_per_pod` ToR and `aggs_per_pod` aggregation switches (full
/// bipartite inside a pod), `cores` core switches each connected to
/// every aggregation switch, and `hosts_per_tor` hosts per ToR.
///
/// `three_layer(4, 2, 2, 4, 2)` reproduces the paper's Fig. 3 testbed:
/// 20 switches and 16 hosts.
pub fn three_layer(
    pods: usize,
    tors_per_pod: usize,
    aggs_per_pod: usize,
    cores: usize,
    hosts_per_tor: usize,
) -> HierNet {
    let n_tor = pods * tors_per_pod;
    let n_agg = pods * aggs_per_pod;
    let mut net = HierNet::default();
    // Ids: ToRs first, then aggs, then cores.
    for _ in 0..n_tor {
        net.switches.push(HierSwitch { layer: 0, ..Default::default() });
    }
    for _ in 0..n_agg {
        net.switches.push(HierSwitch { layer: 1, ..Default::default() });
    }
    for _ in 0..cores {
        net.switches.push(HierSwitch { layer: 2, ..Default::default() });
    }
    // Hosts.
    for t in 0..n_tor {
        for _ in 0..hosts_per_tor {
            let h = net.access.len();
            let port = net.switches[t].down.len() as Port;
            net.switches[t].down.push(DownTarget::Host(h));
            net.access.push((t, port));
        }
    }
    // ToR <-> agg inside each pod.
    for pod in 0..pods {
        for ti in 0..tors_per_pod {
            let t = pod * tors_per_pod + ti;
            for ai in 0..aggs_per_pod {
                let a = n_tor + pod * aggs_per_pod + ai;
                let up_idx = net.switches[t].up.len();
                let a_port = net.switches[a].down.len() as Port;
                net.switches[a].down.push(DownTarget::Switch(t, up_idx));
                net.switches[t].up.push((a, a_port));
            }
        }
    }
    // agg <-> core (full mesh).
    for pod in 0..pods {
        for ai in 0..aggs_per_pod {
            let a = n_tor + pod * aggs_per_pod + ai;
            for c in 0..cores {
                let core = n_tor + n_agg + c;
                let up_idx = net.switches[a].up.len();
                let c_port = net.switches[core].down.len() as Port;
                net.switches[core].down.push(DownTarget::Switch(a, up_idx));
                net.switches[a].up.push((core, c_port));
            }
        }
    }
    debug_assert_eq!(net.validate(), Ok(()));
    net
}

/// The exact topology of the paper's Fig. 3 / Mininet evaluation:
/// 20 switches (8 ToR, 8 aggregation, 4 core) and 16 hosts.
pub fn paper_fat_tree() -> HierNet {
    three_layer(4, 2, 2, 4, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_dimensions() {
        let net = paper_fat_tree();
        assert_eq!(net.switch_count(), 20);
        assert_eq!(net.host_count(), 16);
        assert_eq!(net.top_layer(), 2);
        assert_eq!(net.validate(), Ok(()));
        let layers: Vec<usize> =
            (0..3).map(|l| net.switches.iter().filter(|s| s.layer == l).count()).collect();
        assert_eq!(layers, vec![8, 8, 4]);
    }

    #[test]
    fn bottom_up_orders_by_layer() {
        let net = paper_fat_tree();
        let order = net.bottom_up();
        let layers: Vec<usize> = order.iter().map(|&s| net.switches[s].layer).collect();
        let mut sorted = layers.clone();
        sorted.sort_unstable();
        assert_eq!(layers, sorted);
    }

    #[test]
    fn up_links_ascend_layers() {
        let net = three_layer(2, 2, 2, 2, 1);
        assert_eq!(net.validate(), Ok(()));
        for sw in &net.switches {
            for &(peer, _) in &sw.up {
                assert!(net.switches[peer].layer > sw.layer);
            }
        }
    }

    #[test]
    fn validate_catches_asymmetry() {
        let mut net = paper_fat_tree();
        net.switches[0].up[0].1 = 99; // corrupt peer port
        assert!(net.validate().is_err());
    }

    #[test]
    fn empty_mask_matches_unmasked_designations() {
        let net = paper_fat_tree();
        let mask = FaultMask::default();
        assert!(mask.is_healthy());
        for h in 0..net.host_count() {
            assert!(net.host_attached(h, &mask));
            assert_eq!(net.designated_chain(h), net.designated_chain_masked(h, &mask));
        }
    }

    #[test]
    fn masked_designated_up_fails_over_to_sibling() {
        let net = paper_fat_tree();
        let mut mask = FaultMask::new();
        // ToR 0's designated parent is its first agg.
        let (agg, agg_port) = net.designated_up_masked(0, &mask).unwrap();
        assert!(mask.fail_link(agg, agg_port));
        let (next, _) = net.designated_up_masked(0, &mask).unwrap();
        assert_ne!(next, agg, "failover must pick the sibling agg");
        // Crashing the sibling too partitions the ToR from above.
        mask.fail_switch(next);
        assert_eq!(net.designated_up_masked(0, &mask), None);
        // Restores undo in either order.
        assert!(mask.restore_link(agg, agg_port));
        assert_eq!(net.designated_up_masked(0, &mask), Some((agg, agg_port)));
        mask.restore_switch(next);
        assert!(mask.is_healthy());
    }

    #[test]
    fn dead_switch_detaches_its_hosts() {
        let net = paper_fat_tree();
        let mut mask = FaultMask::new();
        mask.fail_switch(0); // ToR 0: hosts 0 and 1
        assert!(!net.host_attached(0, &mask));
        assert!(!net.host_attached(1, &mask));
        assert!(net.host_attached(2, &mask));
        assert!(net.designated_chain_masked(0, &mask).is_empty());
        assert!(net.designated_below_masked(0, &mask).is_empty());
        // A top switch no longer serves the detached hosts.
        let top = net.designated_below_masked(16, &mask);
        assert!(!top.contains(&0) && !top.contains(&1));
        assert_eq!(top.len(), 14);
        assert_eq!(mask.dead_switches(), vec![0]);
    }

    #[test]
    fn masked_chain_reroutes_through_sibling_agg() {
        let net = paper_fat_tree();
        let chain = net.designated_chain(0);
        let mut mask = FaultMask::new();
        mask.fail_switch(chain[1]); // the designated agg
        let rerouted = net.designated_chain_masked(0, &mask);
        assert_eq!(rerouted.len(), 3);
        assert_ne!(rerouted[1], chain[1]);
        assert_eq!(net.switches[rerouted[2]].layer, 2);
        // The rerouted agg now serves host 0; the dead one serves nobody.
        assert!(net.designated_below_masked(rerouted[1], &mask).contains(&0));
        assert!(net.designated_below_masked(chain[1], &mask).is_empty());
    }

    #[test]
    fn single_pod_no_core() {
        let net = three_layer(1, 4, 2, 0, 3);
        assert_eq!(net.switch_count(), 6);
        assert_eq!(net.host_count(), 12);
        assert_eq!(net.validate(), Ok(()));
        assert_eq!(net.top_layer(), 1);
    }
}
