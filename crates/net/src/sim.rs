//! The event-driven packet-level simulator.
//!
//! Discrete events move packets between switches and hosts over links
//! with a fixed propagation latency. Each switch runs its own
//! [`camus_dataplane::Switch`]; message-level multicast, egress pruning
//! and recirculation latency all come from the dataplane model.
//!
//! Port conventions (matching [`camus_routing::topology`]):
//!
//! * a switch's *down* ports are numbered `0..down.len()`,
//! * all physical up links form the single logical port
//!   [`LOGICAL_UP`]; when a pipeline forwards there, the simulator
//!   ascends via the *designated* up link (the paper also allows
//!   random or round-robin; designated ascent pairs with
//!   single-parent subscription propagation to keep multicast
//!   duplicate-free),
//! * a packet that arrived from above enters on `LOGICAL_UP`, so the
//!   dataplane's "never forward to the ingress port" rule doubles as
//!   the "never re-ascend" rule of §IV-C, keeping forwarding loop-free.

use camus_dataplane::{Packet, Switch};
use camus_lang::ast::Port;
use camus_lang::value::Value;
use camus_routing::topology::{DownTarget, FaultMask, HierNet, HostId, SwitchId, LOGICAL_UP};
use camus_telemetry::metrics::{SampleRate, Sampler};
use camus_telemetry::postcard::{Collector, HopRecord, Postcard, PostcardEnd, PostcardId};
use camus_telemetry::Copies;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Link propagation latency per hop: 1 μs.
const LINK_LATENCY_NS: u64 = 1_000;

/// A message delivered to a host.
#[derive(Debug, Clone)]
pub struct Delivered {
    pub host: HostId,
    /// Sequence number of the packet copy that carried the message:
    /// the messages of one copy share it.
    pub copy: u64,
    /// Simulation time of delivery (ns).
    pub time_ns: u64,
    /// Time the enclosing packet was published (ns).
    pub published_ns: u64,
    /// The message's attribute values (or the stack attributes for
    /// message-less applications).
    pub values: HashMap<String, Value>,
}

impl Delivered {
    /// Publish-to-deliver latency. Saturating: replayed or clock-skewed
    /// traces can carry a publish stamp later than the delivery time,
    /// and a latency query must not panic the stats pass.
    pub fn latency_ns(&self) -> u64 {
        self.time_ns.saturating_sub(self.published_ns)
    }
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    /// Messages crossing each directed switch egress `(switch, port)`.
    pub link_messages: HashMap<(SwitchId, Port), u64>,
    /// Packets delivered to hosts.
    pub deliveries: u64,
    /// Events processed.
    pub events: u64,
    /// Messages the simulator discarded because of injected faults.
    pub fault_drops: u64,
}

impl NetworkStats {
    /// Messages that crossed links adjacent to switches of `layer`
    /// (egress side) — Fig. 13d reports this for the core layer.
    pub fn layer_messages(&self, net: &HierNet, layer: usize) -> u64 {
        self.link_messages
            .iter()
            .filter(|((s, _), _)| net.switches[*s].layer == layer)
            .map(|(_, n)| *n)
            .sum()
    }
}

#[derive(Debug)]
enum Dest {
    Switch { id: SwitchId, ingress: Port },
    Host(HostId),
}

/// Where a copy leaving a switch port goes next.
enum NextHop {
    /// Over a live link into `Dest`.
    Link(Dest),
    /// The link, or every ascent, is down: the copy is a fault drop.
    Faulted,
    /// No link is behind the port: the copy goes nowhere.
    Dangling,
}

struct Event {
    time_ns: u64,
    seq: u64, // tie-breaker for determinism
    dest: Dest,
    packet: Packet,
    published_ns: u64,
    /// The INT-style postcard riding with a sampled packet. Side-band
    /// (never serialized into the packet), so tracing cannot perturb
    /// parsing or forwarding.
    card: Option<Box<Postcard>>,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time_ns, self.seq) == (other.time_ns, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time_ns, self.seq).cmp(&(other.time_ns, other.seq))
    }
}

/// Network-level telemetry state: the publish-time postcard sampler
/// and the controller-side collector postcards finalize into.
#[derive(Debug, Clone)]
pub(crate) struct NetTelemetry {
    sampler: Sampler,
    next_id: PostcardId,
    pub collector: Collector,
}

impl NetTelemetry {
    pub(crate) fn new(rate: SampleRate) -> Self {
        NetTelemetry { sampler: Sampler::new(rate), next_id: 0, collector: Collector::new() }
    }
}

/// The simulated network: topology + per-switch dataplanes.
pub struct Network {
    pub topology: HierNet,
    pub switches: Vec<Switch>,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now_ns: u64,
    deliveries: Vec<Vec<Delivered>>,
    stats: NetworkStats,
    /// Currently injected faults; drives per-switch port-down state.
    mask: FaultMask,
    /// Postcard sampling + collection; `None` = untraced (free).
    telemetry: Option<Box<NetTelemetry>>,
}

impl Network {
    pub fn new(topology: HierNet, switches: Vec<Switch>) -> Self {
        assert_eq!(topology.switch_count(), switches.len());
        let hosts = topology.host_count();
        Network {
            topology,
            switches,
            queue: BinaryHeap::new(),
            seq: 0,
            now_ns: 0,
            deliveries: vec![Vec::new(); hosts],
            stats: NetworkStats::default(),
            mask: FaultMask::default(),
            telemetry: None,
        }
    }

    /// Start sampling published packets into postcards at `rate`.
    /// Replaces any previous telemetry state.
    pub fn attach_telemetry(&mut self, rate: SampleRate) {
        self.telemetry = Some(Box::new(NetTelemetry::new(rate)));
    }

    pub fn collector(&self) -> Option<&Collector> {
        self.telemetry.as_ref().map(|t| &t.collector)
    }

    pub fn collector_mut(&mut self) -> Option<&mut Collector> {
        self.telemetry.as_mut().map(|t| &mut t.collector)
    }

    fn ingest_card(&mut self, card: Postcard, end: PostcardEnd) {
        if let Some(t) = self.telemetry.as_mut() {
            t.collector.ingest(card, end);
        }
    }

    /// Count a copy of `units` messages lost to a fault at `switch`,
    /// and end its postcard there.
    fn fault_drop(
        &mut self,
        switch: SwitchId,
        units: u64,
        card: Option<Box<Postcard>>,
        time_ns: u64,
    ) {
        self.stats.fault_drops += units;
        if let Some(c) = card {
            self.ingest_card(*c, PostcardEnd::FaultDropped { switch, time_ns });
        }
    }

    /// The faults currently injected into this network.
    pub fn fault_mask(&self) -> &FaultMask {
        &self.mask
    }

    /// Fail the link behind `switch`'s down-port `port`. Packets already
    /// in flight on the link still arrive (a cut cable does not eat the
    /// photons already past it); new traffic is dropped at the egress.
    /// Returns whether the mask changed.
    pub fn fail_link(&mut self, switch: SwitchId, port: Port) -> bool {
        let changed = self.mask.fail_link(switch, port);
        self.refresh_port_state();
        changed
    }

    pub fn restore_link(&mut self, switch: SwitchId, port: Port) -> bool {
        let changed = self.mask.restore_link(switch, port);
        self.refresh_port_state();
        changed
    }

    /// Crash a switch: packets arriving at it (including ones already in
    /// flight) are dropped, and every incident link goes down.
    pub fn crash_switch(&mut self, switch: SwitchId) -> bool {
        let changed = self.mask.fail_switch(switch);
        self.refresh_port_state();
        changed
    }

    pub fn restore_switch(&mut self, switch: SwitchId) -> bool {
        let changed = self.mask.restore_switch(switch);
        self.refresh_port_state();
        changed
    }

    /// Recompute every switch's port-down state from the mask, so the
    /// dataplane suppresses (and counts) forwards onto dead links even
    /// before the controller repairs the routing.
    fn refresh_port_state(&mut self) {
        for s in 0..self.topology.switch_count() {
            let alive = self.mask.switch_alive(s);
            for p in 0..self.topology.switches[s].down.len() {
                let usable = self.topology.link_usable(s, p as Port, &self.mask);
                self.switches[s].set_port_down(p as Port, !usable);
            }
            if !self.topology.switches[s].up.is_empty() {
                let up_ok = alive && self.topology.designated_up_masked(s, &self.mask).is_some();
                self.switches[s].set_port_down(LOGICAL_UP, !up_ok);
            }
        }
    }

    /// The units `packet` carries under `switch`'s spec: its whole
    /// messages, or its whole stack under a spec without messages.
    fn message_units(&self, switch: SwitchId, packet: &Packet) -> u64 {
        self.switches[switch].spec().framing().units(packet.len()) as u64
    }

    /// Publish a packet from a host at an absolute time. When
    /// telemetry is attached and the sampler selects this packet, a
    /// postcard rides along and its id is returned so the caller can
    /// register delivery expectations with the collector.
    pub fn publish(&mut self, host: HostId, packet: Packet, time_ns: u64) -> Option<PostcardId> {
        let card = self.telemetry.as_mut().and_then(|t| {
            t.sampler.tick().then(|| {
                let id = t.next_id;
                t.next_id += 1;
                Box::new(Postcard::new(id, time_ns))
            })
        });
        let id = card.as_ref().map(|c| c.id);
        let (s, p) = self.topology.access[host];
        if !self.topology.link_usable(s, p, &self.mask) {
            // The host's access link (or ToR) is dead: the publication
            // never makes it into the fabric.
            self.fault_drop(s, self.message_units(s, &packet), card, time_ns);
            return id;
        }
        self.push(Event {
            time_ns: time_ns + LINK_LATENCY_NS,
            seq: 0,
            dest: Dest::Switch { id: s, ingress: p },
            packet,
            published_ns: time_ns,
            card,
        });
        id
    }

    fn push(&mut self, mut ev: Event) {
        ev.seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(ev));
    }

    /// Run until the event queue drains (or `until_ns`, if given).
    pub fn run(&mut self, until_ns: Option<u64>) {
        while let Some(Reverse(ev)) = self.queue.pop() {
            if let Some(limit) = until_ns {
                if ev.time_ns > limit {
                    // Past the horizon: keep it pending and stop.
                    self.queue.push(Reverse(ev));
                    break;
                }
            }
            self.now_ns = self.now_ns.max(ev.time_ns);
            self.stats.events += 1;
            match ev.dest {
                Dest::Host(h) => self.deliver(h, ev),
                Dest::Switch { id, ingress } => {
                    if self.mask.switch_alive(id) {
                        self.forward(id, ingress, ev);
                    } else {
                        // The packet was in flight when the switch died.
                        let units = self.message_units(id, &ev.packet);
                        self.fault_drop(id, units, ev.card, ev.time_ns);
                    }
                }
            }
        }
    }

    fn deliver(&mut self, host: HostId, mut ev: Event) {
        self.stats.deliveries += 1;
        if let Some(c) = ev.card.take() {
            self.ingest_card(*c, PostcardEnd::Delivered { host, time_ns: ev.time_ns });
        }
        // All switches share the application spec; read it from the
        // host's access switch.
        let spec = self.switches[self.topology.access[host].0].spec();
        let units = spec.framing().units(ev.packet.len());
        let delivered = |values| Delivered {
            host,
            copy: ev.seq,
            time_ns: ev.time_ns,
            published_ns: ev.published_ns,
            values,
        };
        let log = &mut self.deliveries[host];
        if spec.messages.is_some() {
            log.extend((0..units).filter_map(|i| ev.packet.message(spec, i)).map(delivered));
        } else if units == 1 {
            // The stack unit: record the stack attributes.
            let mut values = HashMap::new();
            for name in &spec.sequence {
                values.extend(ev.packet.stack_header(spec, name).unwrap_or_default());
            }
            log.push(delivered(values));
        }
    }

    fn forward(&mut self, id: SwitchId, ingress: Port, ev: Event) {
        let now_us = ev.time_ns / 1_000;
        let out = self.switches[id].process(&ev.packet, ingress, now_us);
        let depart = ev.time_ns + out.latency_ns;
        // What this switch did to a traced packet: the postcard hop
        // every forwarded copy extends (with its own egress).
        let base_hop = ev.card.as_ref().map(|_| {
            let eval = self.switches[id].last_eval();
            HopRecord {
                switch: id,
                ingress,
                egress: None,
                stage_hits: eval.stage_hits,
                stage_misses: eval.stage_misses,
                entries_scanned: eval.entries_scanned,
                eval_ns: out.latency_ns,
                recirculations: out.passes as u64 - 1,
            }
        });
        let card = ev.card;
        if out.ports.is_empty() {
            // The data plane forwarded nowhere: a legitimate filter
            // (or every egress suppressed). The postcard ends here.
            if let (Some(c), Some(hop)) = (card, base_hop) {
                let mut c = *c;
                c.record_hop(hop);
                self.ingest_card(c, PostcardEnd::Filtered { switch: id, time_ns: depart });
            }
            return;
        }
        for (port, copy) in out.ports {
            let msgs = self.message_units(id, &copy);
            // Each forwarded copy carries its own postcard clone with
            // this switch's hop stamped with the copy's egress.
            let copy_card = match (&card, &base_hop) {
                (Some(c), Some(hop)) => {
                    let mut cc = (**c).clone();
                    let full = !cc.record_hop(HopRecord { egress: Some(port), ..*hop });
                    if full {
                        // Record bound hit: the packet forwards on
                        // untracked, the card ends here.
                        self.ingest_card(cc, PostcardEnd::HopLimit { switch: id, time_ns: depart });
                        None
                    } else {
                        Some(Box::new(cc))
                    }
                }
                _ => None,
            };
            match self.next_hop(id, port) {
                NextHop::Link(dest) => {
                    *self.stats.link_messages.entry((id, port)).or_insert(0) += msgs;
                    self.push(Event {
                        time_ns: depart + LINK_LATENCY_NS,
                        seq: 0,
                        dest,
                        packet: copy,
                        published_ns: ev.published_ns,
                        card: copy_card,
                    });
                }
                NextHop::Faulted => self.fault_drop(id, msgs, copy_card, depart),
                NextHop::Dangling => {
                    if let Some(c) = copy_card {
                        self.ingest_card(*c, PostcardEnd::Filtered { switch: id, time_ns: depart });
                    }
                }
            }
        }
    }

    /// Where a copy leaving `switch` through `port` goes.
    fn next_hop(&self, switch: SwitchId, port: Port) -> NextHop {
        if port == LOGICAL_UP {
            // Ascend via the designated up link. (The paper allows
            // random/round-robin here; deterministic designated ascent
            // is what pairs with single-parent subscription propagation
            // to keep multicast duplicate-free, see DESIGN.md.) Under
            // faults the masked designation skips dead parents, so the
            // data plane self-heals its ascent before the controller
            // has even repaired the routing.
            return match self.topology.designated_up_masked(switch, &self.mask) {
                Some((peer, ingress)) => NextHop::Link(Dest::Switch { id: peer, ingress }),
                None => NextHop::Faulted,
            };
        }
        let Some(&target) = self.topology.switches[switch].down.get(port as usize) else {
            return NextHop::Dangling;
        };
        if !self.topology.link_usable(switch, port, &self.mask) {
            // Defense in depth: the dataplane's port-down state
            // normally suppresses this before it reaches us (e.g. a
            // fault injected between process and drain).
            return NextHop::Faulted;
        }
        NextHop::Link(match target {
            DownTarget::Host(h) => Dest::Host(h),
            // Arrives at the child from above: ingress is the child's
            // logical up port.
            DownTarget::Switch(c, _) => Dest::Switch { id: c, ingress: LOGICAL_UP },
        })
    }

    pub fn deliveries(&self, host: HostId) -> &[Delivered] {
        &self.deliveries[host]
    }

    /// Every host's delivery-log length: record before a probe burst
    /// and hand to [`copies`](Self::copies) after it.
    pub fn log_lengths(&self) -> Vec<usize> {
        self.deliveries.iter().map(Vec::len).collect()
    }

    /// The copies view of the probes published at `stamps`, from the
    /// delivery logs past `before`: one copy per packet copy delivered,
    /// however many of its messages the log holds.
    pub fn copies(&self, before: &[usize], stamps: &[u64]) -> Copies {
        let mut copies = Copies::new(stamps.iter().copied());
        for (host, &seen) in before.iter().enumerate() {
            let mut last_copy = None;
            for d in &self.deliveries[host][seen..] {
                if last_copy.replace(d.copy) == Some(d.copy) {
                    continue;
                }
                if let Some(probe) = stamps.iter().position(|&t| t == d.published_ns) {
                    copies.probes[probe].land(host, d.time_ns);
                }
            }
        }
        copies
    }

    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_saturates_instead_of_underflowing() {
        let d = Delivered {
            host: 0,
            copy: 0,
            time_ns: 100,
            published_ns: 250, // publish stamp after delivery (trace skew)
            values: HashMap::new(),
        };
        assert_eq!(d.latency_ns(), 0);
        let ok = Delivered { time_ns: 300, ..d };
        assert_eq!(ok.latency_ns(), 50);
    }
}
