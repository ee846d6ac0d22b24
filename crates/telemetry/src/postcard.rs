//! INT-style packet postcards.
//!
//! A sampled packet carries a bounded per-hop record through the
//! fabric — like in-band network telemetry, the switch appends what
//! it knows (ports, table activity, modelled evaluation time) and the
//! collector at the edge reconstructs paths. Unlike real INT the
//! record rides next to the packet rather than inside it, so it never
//! perturbs parsing or the PHV budget; the sampling decision is the
//! only thing the data plane pays for.
//!
//! The controller-side [`Collector`] groups finished postcards by
//! publication and runs two anomaly detectors over them (for one probe
//! burst, with its [`Copies`] view, in [`Collector::copies`]):
//!
//! * **blackhole** — a postcard group with a known expected
//!   subscriber that never produced a delivery (the card ended at a
//!   drop, a filter, or nowhere at all);
//! * **loop** — a single card visiting the same switch twice, which
//!   the never-re-ascend rule makes impossible in a healthy fabric,
//!   so any report is a routing bug.

use crate::audit::{Copies, ProbeCopies};
use camus_lang::ast::Port;
use std::collections::{BTreeMap, BTreeSet};

/// Identifies all copies of one sampled publication.
pub type PostcardId = u64;

/// Hard cap on recorded hops; deeper paths end in
/// [`PostcardEnd::HopLimit`] (the packet itself keeps forwarding).
pub(crate) const MAX_HOPS: usize = 16;

/// What one switch appended to a postcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HopRecord {
    pub switch: usize,
    pub ingress: Port,
    /// The port this copy left on; `None` for a terminal hop (the
    /// card ended at this switch).
    pub egress: Option<Port>,
    pub stage_hits: u64,
    pub stage_misses: u64,
    pub entries_scanned: u64,
    /// Modelled evaluation latency of this switch's pipeline pass.
    pub eval_ns: u64,
    /// Recirculation passes beyond the first.
    pub recirculations: u64,
}

/// How a postcard's journey ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostcardEnd {
    /// Reached a host.
    Delivered { host: usize, time_ns: u64 },
    /// The data plane forwarded it nowhere (legitimate filtering).
    Filtered { switch: usize, time_ns: u64 },
    /// The simulator discarded it because of an injected fault.
    FaultDropped { switch: usize, time_ns: u64 },
    /// The hop record filled up; the packet went on untracked.
    HopLimit { switch: usize, time_ns: u64 },
}

impl PostcardEnd {
    pub fn delivered_host(&self) -> Option<usize> {
        match *self {
            PostcardEnd::Delivered { host, .. } => Some(host),
            _ => None,
        }
    }

    /// The switch the card ended at, if it ended inside the fabric.
    pub(crate) fn last_switch(&self) -> Option<usize> {
        match *self {
            PostcardEnd::Delivered { .. } => None,
            PostcardEnd::Filtered { switch, .. }
            | PostcardEnd::FaultDropped { switch, .. }
            | PostcardEnd::HopLimit { switch, .. } => Some(switch),
        }
    }
}

/// The in-flight record one packet copy accumulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Postcard {
    pub id: PostcardId,
    pub published_ns: u64,
    pub hops: Vec<HopRecord>,
}

impl Postcard {
    pub fn new(id: PostcardId, published_ns: u64) -> Self {
        Postcard { id, published_ns, hops: Vec::new() }
    }

    /// Append a hop; returns `false` (and records nothing) once the
    /// bound is reached.
    pub fn record_hop(&mut self, hop: HopRecord) -> bool {
        if self.hops.len() >= MAX_HOPS {
            return false;
        }
        self.hops.push(hop);
        true
    }

    /// The first switch id visited twice, if any.
    fn find_loop(&self) -> Option<usize> {
        let mut seen = BTreeSet::new();
        self.hops.iter().map(|h| h.switch).find(|s| !seen.insert(*s))
    }

    pub fn path_len(&self) -> usize {
        self.hops.len()
    }
}

/// Something the collector believes is wrong with the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anomaly {
    /// An expected subscriber never saw the publication.
    Blackhole {
        id: PostcardId,
        published_ns: u64,
        /// Expected hosts with no delivery.
        missing: Vec<usize>,
        /// Where a non-delivered copy last was, if any copy finished
        /// inside the fabric.
        last_switch: Option<usize>,
    },
    /// A card visited `switch` twice.
    Loop { id: PostcardId, switch: usize },
}

/// Everything the collector knows about one sampled publication.
#[derive(Debug, Clone, Default)]
pub struct PostcardGroup {
    pub published_ns: u64,
    /// Hosts the control plane says should receive this publication.
    pub expected: BTreeSet<usize>,
    /// `(host, delivery time)` per delivered copy.
    pub deliveries: Vec<(usize, u64)>,
    /// Every finished copy with its full hop record.
    pub completed: Vec<(Postcard, PostcardEnd)>,
}

impl PostcardGroup {
    pub fn delivered_hosts(&self) -> BTreeSet<usize> {
        self.deliveries.iter().map(|&(h, _)| h).collect()
    }

    /// Expected hosts that never got a copy.
    fn missing_hosts(&self) -> Vec<usize> {
        let got = self.delivered_hosts();
        self.expected.iter().filter(|h| !got.contains(h)).copied().collect()
    }
}

/// The controller-side aggregation point for finished postcards.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    groups: BTreeMap<PostcardId, PostcardGroup>,
}

impl Collector {
    pub fn new() -> Self {
        Collector::default()
    }

    /// Register which hosts should see publication `id`. May be
    /// called before or after the card finishes.
    pub fn expect(&mut self, id: PostcardId, published_ns: u64, hosts: &[usize]) {
        let g = self.groups.entry(id).or_default();
        g.published_ns = published_ns;
        g.expected.extend(hosts.iter().copied());
    }

    /// A copy finished its journey.
    pub fn ingest(&mut self, card: Postcard, end: PostcardEnd) {
        let g = self.groups.entry(card.id).or_default();
        if g.published_ns == 0 {
            g.published_ns = card.published_ns;
        }
        if let PostcardEnd::Delivered { host, time_ns } = end {
            g.deliveries.push((host, time_ns));
        }
        g.completed.push((card, end));
    }

    pub fn group(&self, id: PostcardId) -> Option<&PostcardGroup> {
        self.groups.get(&id)
    }

    /// Run both detectors over everything collected so far. Groups
    /// whose expectation was satisfied, and cards with strictly
    /// increasing switch paths, report nothing.
    pub fn anomalies(&self) -> Vec<Anomaly> {
        let mut out = Vec::new();
        for (&id, g) in &self.groups {
            g.anomalies(id, &mut out);
        }
        out
    }

    /// Register `owed` as the expected hosts of each traced probe
    /// `(id, publish stamp)` — the blackhole detector reads them — and
    /// read the burst into its copies view, one probe per id in order,
    /// with the anomalies [`anomalies`](Self::anomalies) reports for it.
    pub fn copies(&mut self, traced: &[(PostcardId, u64)], owed: &BTreeSet<usize>) -> TracedCopies {
        let hosts: Vec<usize> = owed.iter().copied().collect();
        let mut burst = TracedCopies::default();
        let mut found = Vec::new();
        for &(id, published_ns) in traced {
            self.expect(id, published_ns, &hosts);
            let g = &self.groups[&id];
            let mut probe = ProbeCopies { published_ns, ..ProbeCopies::default() };
            for &(host, time_ns) in &g.deliveries {
                probe.land(host, time_ns);
            }
            g.anomalies(id, &mut found);
            burst.copies.probes.push(probe);
        }
        burst.blackholes = found.iter().filter(|a| matches!(a, Anomaly::Blackhole { .. })).count();
        burst.loops = found.len() - burst.blackholes;
        burst
    }
}

impl PostcardGroup {
    /// Both detectors over this group, appended to `out`.
    fn anomalies(&self, id: PostcardId, out: &mut Vec<Anomaly>) {
        let missing = self.missing_hosts();
        if !missing.is_empty() {
            let last_switch = self
                .completed
                .iter()
                .filter(|(_, end)| end.delivered_host().is_none())
                .filter_map(|(card, end)| {
                    end.last_switch().or_else(|| card.hops.last().map(|h| h.switch))
                })
                .next();
            out.push(Anomaly::Blackhole {
                id,
                published_ns: self.published_ns,
                missing,
                last_switch,
            });
        }
        let mut looped: BTreeSet<usize> = BTreeSet::new();
        for (card, _) in &self.completed {
            if let Some(s) = card.find_loop() {
                if looped.insert(s) {
                    out.push(Anomaly::Loop { id, switch: s });
                }
            }
        }
    }
}

/// A probe burst as the [`Collector`] saw it: its copies view and the
/// anomalies among its postcards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TracedCopies {
    pub copies: Copies,
    /// Postcard groups of the burst with an expected host missing.
    pub blackholes: usize,
    /// Switches some card of the burst visited twice, counted once per
    /// postcard group.
    pub loops: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(switch: usize, egress: Option<Port>) -> HopRecord {
        HopRecord { switch, egress, ..HopRecord::default() }
    }

    #[test]
    fn delivered_group_with_met_expectation_is_clean() {
        let mut c = Collector::new();
        c.expect(1, 100, &[7]);
        let mut card = Postcard::new(1, 100);
        card.record_hop(hop(0, Some(1)));
        card.record_hop(hop(3, Some(0)));
        c.ingest(card, PostcardEnd::Delivered { host: 7, time_ns: 4_100 });
        assert!(c.anomalies().is_empty());
        assert_eq!(c.group(1).unwrap().deliveries, vec![(7, 4_100)]);
    }

    #[test]
    fn missing_expected_host_is_a_blackhole() {
        let mut c = Collector::new();
        c.expect(9, 50, &[2, 3]);
        let mut card = Postcard::new(9, 50);
        card.record_hop(hop(0, Some(1)));
        c.ingest(card.clone(), PostcardEnd::Delivered { host: 2, time_ns: 99 });
        c.ingest(card, PostcardEnd::FaultDropped { switch: 5, time_ns: 80 });
        match &c.anomalies()[..] {
            [Anomaly::Blackhole { id: 9, missing, last_switch, .. }] => {
                assert_eq!(missing, &[3]);
                assert_eq!(*last_switch, Some(5));
            }
            other => panic!("expected one blackhole, got {other:?}"),
        }
    }

    #[test]
    fn repeated_switch_is_a_loop() {
        let mut c = Collector::new();
        let mut card = Postcard::new(4, 0);
        card.record_hop(hop(1, Some(9)));
        card.record_hop(hop(2, Some(9)));
        card.record_hop(hop(1, None));
        c.ingest(card, PostcardEnd::Filtered { switch: 1, time_ns: 10 });
        assert_eq!(c.anomalies(), vec![Anomaly::Loop { id: 4, switch: 1 }]);
    }

    #[test]
    fn burst_copies_carry_the_detectors_counts() {
        let mut c = Collector::new();
        let mut looped = Postcard::new(2, 20);
        looped.record_hop(hop(1, Some(9)));
        looped.record_hop(hop(1, None));
        c.ingest(Postcard::new(1, 10), PostcardEnd::Delivered { host: 4, time_ns: 15 });
        c.ingest(Postcard::new(1, 10), PostcardEnd::Delivered { host: 4, time_ns: 14 });
        c.ingest(looped, PostcardEnd::Filtered { switch: 1, time_ns: 25 });
        // A group outside the burst reports nothing here.
        c.ingest(Postcard::new(3, 30), PostcardEnd::Filtered { switch: 0, time_ns: 31 });
        c.expect(3, 30, &[4]);

        let burst = c.copies(&[(1, 10), (2, 20)], &BTreeSet::from([4]));
        let p = &burst.copies.probes;
        assert_eq!(
            (p[0].published_ns, p[0].landed[&4].copies, p[0].landed[&4].first_ns),
            (10, 2, 14)
        );
        assert_eq!((p[1].published_ns, p[1].landed.len()), (20, 0));
        // Probe 2 missed host 4 and its card looped; probe 3 is not in
        // the burst.
        assert_eq!((burst.blackholes, burst.loops), (1, 1));
        assert_eq!(c.anomalies().len(), 3);
    }

    #[test]
    fn hop_bound_is_enforced() {
        let mut card = Postcard::new(0, 0);
        for i in 0..MAX_HOPS {
            assert!(card.record_hop(hop(i, Some(0))));
        }
        assert!(!card.record_hop(hop(99, None)));
        assert_eq!(card.path_len(), MAX_HOPS);
    }

    #[test]
    fn repeated_deliveries_keep_every_copy() {
        let mut c = Collector::new();
        c.expect(1, 0, &[4]);
        let card = Postcard::new(1, 0);
        c.ingest(card.clone(), PostcardEnd::Delivered { host: 4, time_ns: 10 });
        c.ingest(card.clone(), PostcardEnd::Delivered { host: 4, time_ns: 12 });
        c.ingest(card, PostcardEnd::Delivered { host: 8, time_ns: 11 });
        let g = c.group(1).unwrap();
        assert_eq!(g.deliveries.len(), 3);
        assert_eq!(g.delivered_hosts(), BTreeSet::from([4, 8]));
        assert!(g.missing_hosts().is_empty());
    }
}
