//! The one probe audit. A burst is read into a [`Copies`] view — per
//! probe, per host that got a copy, the copy count and first arrival —
//! from the host delivery logs (`camus_net::Network::copies`) or the
//! postcard [`Collector`](crate::Collector) (`Collector::copies`), and
//! [`Copies::audit`] folds it per (host, probe) pair against the hosts
//! that *must* and *may* receive each probe, so two copies of one probe
//! cannot hide a missing copy of another.

use std::collections::{BTreeMap, BTreeSet};

/// How many copies of one probe reached one host, and when the first
/// did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Landing {
    pub copies: usize,
    pub first_ns: u64,
}

/// One probe of a burst: its publish stamp and the hosts it reached.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeCopies {
    pub published_ns: u64,
    /// Hosts with at least one copy.
    pub landed: BTreeMap<usize, Landing>,
}

impl ProbeCopies {
    /// Count one copy landing at `host` at `time_ns`.
    pub fn land(&mut self, host: usize, time_ns: u64) {
        let l = self.landed.entry(host).or_insert(Landing { copies: 0, first_ns: time_ns });
        l.copies += 1;
        l.first_ns = l.first_ns.min(time_ns);
    }
}

/// The copies view of a probe burst, one entry per probe in publish
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Copies {
    pub probes: Vec<ProbeCopies>,
}

impl Copies {
    /// An empty view of the probes published at `stamps`.
    pub fn new(stamps: impl IntoIterator<Item = u64>) -> Self {
        let probes = stamps
            .into_iter()
            .map(|published_ns| ProbeCopies { published_ns, landed: BTreeMap::new() })
            .collect();
        Copies { probes }
    }

    /// The one fold: audit each probe against its `(must, may)` host
    /// sets, given in probe order. `must` must be a subset of `may`.
    pub fn audit<'a>(
        &self,
        owed: impl IntoIterator<Item = (&'a BTreeSet<usize>, &'a BTreeSet<usize>)>,
    ) -> AuditReport {
        let mut rep = AuditReport::default();
        for (probe, (must, may)) in self.probes.iter().zip(owed) {
            rep.probes += 1;
            rep.expected += must.len();
            rep.missed += must.iter().filter(|h| !probe.landed.contains_key(h)).count();
            for (h, l) in &probe.landed {
                if may.contains(h) {
                    rep.delivered += 1;
                    rep.duplicated += l.copies - 1;
                } else {
                    rep.misdelivered += l.copies;
                }
            }
        }
        rep
    }

    /// Widest dark window over `hosts`: from the publish stamp of a
    /// host's first missed probe to the first copy of any probe
    /// published after its last missed one (or `now_ns`, if none
    /// landed). 0 when no host missed a probe.
    pub fn blackout_ns(&self, hosts: &BTreeSet<usize>, now_ns: u64) -> u64 {
        let mut widest = 0;
        for h in hosts {
            let mut missed = self.probes.iter().filter(|p| !p.landed.contains_key(h));
            let Some(first) = missed.next().map(|p| p.published_ns) else { continue };
            let last = missed.next_back().map_or(first, |p| p.published_ns);
            let end = self
                .probes
                .iter()
                .filter(|p| p.published_ns > last)
                .filter_map(|p| p.landed.get(h).map(|l| l.first_ns))
                .min()
                .unwrap_or(now_ns);
            widest = widest.max(end.saturating_sub(first));
        }
        widest
    }
}

/// Audit counters for one probe burst (or totals across bursts),
/// counted per (host, probe) pair by [`Copies::audit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    pub probes: usize,
    /// Must-host (host, probe) pairs across probes.
    pub expected: usize,
    /// May-host pairs with at least one copy.
    pub delivered: usize,
    /// Copies at hosts outside the may set.
    pub misdelivered: usize,
    /// Copies beyond the first at a may-host.
    pub duplicated: usize,
    /// Must-host pairs with no copy.
    pub missed: usize,
}

impl AuditReport {
    /// Add another burst's counters to these.
    pub fn absorb(&mut self, other: &AuditReport) {
        self.probes += other.probes;
        self.expected += other.expected;
        self.delivered += other.delivered;
        self.misdelivered += other.misdelivered;
        self.duplicated += other.duplicated;
        self.missed += other.missed;
    }

    /// No mis-delivery, no duplicate, no miss.
    pub fn clean(&self) -> bool {
        self.misdelivered == 0 && self.duplicated == 0 && self.missed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::iter::repeat;

    fn set(hosts: &[usize]) -> BTreeSet<usize> {
        hosts.iter().copied().collect()
    }

    #[test]
    fn counts_per_host_probe_pair() {
        // One must-host gets two copies of probe 0 and none of probe 1:
        // a per-host sum over the burst (2 copies for 2 probes) would
        // read 2 delivered, 0 duplicated, 0 missed.
        let mut c = Copies::new([10, 20]);
        c.probes[0].land(3, 15);
        c.probes[0].land(3, 16);
        let must = set(&[3]);
        let rep = c.audit(repeat((&must, &must)));
        assert_eq!(
            rep,
            AuditReport {
                probes: 2,
                expected: 2,
                delivered: 1,
                misdelivered: 0,
                duplicated: 1,
                missed: 1
            }
        );
        assert!(!rep.clean());
    }

    #[test]
    fn a_may_only_host_without_copies_is_not_missed() {
        let c = Copies::new([10]);
        let (must, may) = (set(&[]), set(&[4]));
        let rep = c.audit(repeat((&must, &may)));
        assert_eq!((rep.expected, rep.missed, rep.delivered), (0, 0, 0));
        assert!(rep.clean());
    }

    #[test]
    fn a_copy_outside_the_may_set_is_misdelivered() {
        let mut c = Copies::new([10]);
        c.probes[0].land(4, 12);
        c.probes[0].land(9, 12);
        c.probes[0].land(9, 13);
        let (must, may) = (set(&[4]), set(&[4, 5]));
        let rep = c.audit(repeat((&must, &may)));
        assert_eq!((rep.delivered, rep.misdelivered, rep.missed), (1, 2, 0));
    }

    #[test]
    fn per_probe_sets_follow_probe_order() {
        let mut c = Copies::new([10, 20]);
        c.probes[0].land(1, 11);
        c.probes[1].land(2, 21);
        let (a, b) = (set(&[1]), set(&[2]));
        assert!(c.audit([(&a, &a), (&b, &b)]).clean());
        assert_eq!(c.audit([(&b, &b), (&a, &a)]).misdelivered, 2);
    }

    #[test]
    fn blackout_runs_from_the_first_miss_to_the_next_landing() {
        let mut c = Copies::new([10, 20, 30, 40]);
        c.probes[0].land(1, 11);
        c.probes[3].land(1, 47);
        c.probes[3].land(1, 45);
        // Host 1 missed 20 and 30; the first later copy landed at 45.
        assert_eq!(c.blackout_ns(&set(&[1]), 100), 25);
        // Host 2 never got anything: dark from 10 to now.
        assert_eq!(c.blackout_ns(&set(&[1, 2]), 100), 90);
        assert_eq!(c.blackout_ns(&set(&[]), 100), 0);
    }
}
