//! The lock-free metrics core.
//!
//! Instruments are cheap enough to live on the data-plane fast path:
//! counters are sharded over cache-line-padded atomics, and the only
//! coordination anywhere is a relaxed atomic add. Reading happens
//! through [`MetricsRegistry::snapshot`], which is allowed to be
//! (mildly) expensive.
//!
//! Sampling is a power-of-two mask ([`Sampler`]): deciding whether a
//! packet is observed costs one increment and one mask test, with no
//! data-dependent branches, so disabling telemetry keeps the compiled
//! fast path within noise.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shards per [`Counter`]; must be a power of two.
const SHARDS: usize = 8;

/// One cache line per shard so concurrent writers do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Shard(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_HINT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stable shard index.
fn shard_hint() -> usize {
    SHARD_HINT.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
            c.set(v);
        }
        v
    })
}

/// A monotonically increasing, wait-free counter. Writers add to a
/// per-thread shard; readers sum the shards.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_hint()].0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// How often the data plane observes a packet.
///
/// Rates are powers of two so the per-packet decision is a single
/// mask test. [`SampleRate::DISABLED`] uses an all-ones mask: the
/// test only passes when the tick counter wraps to zero, i.e. once
/// every 2^64 packets — never, for any practical run — while keeping
/// the disabled path byte-identical to the enabled one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRate {
    mask: u64,
}

impl SampleRate {
    /// Sampling off (rate 0).
    pub const DISABLED: SampleRate = SampleRate { mask: u64::MAX };

    /// Sample one packet in `n`; `n` must be a power of two.
    pub fn every(n: u64) -> SampleRate {
        assert!(n.is_power_of_two(), "sample rate must be a power of two, got {n}");
        SampleRate { mask: n - 1 }
    }

    /// Sample every packet (rate 1/1).
    pub fn always() -> SampleRate {
        SampleRate::every(1)
    }

    pub fn is_disabled(&self) -> bool {
        self.mask == u64::MAX
    }
}

/// The per-packet sampling decision: one increment plus one mask test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampler {
    mask: u64,
    ticks: u64,
}

impl Sampler {
    pub fn new(rate: SampleRate) -> Sampler {
        Sampler { mask: rate.mask, ticks: 0 }
    }

    /// Advance and report whether this packet is sampled.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.ticks = self.ticks.wrapping_add(1);
        self.ticks & self.mask == 0
    }
}

/// Named instruments, created on first use and shared via `Arc`.
///
/// The registry itself takes a mutex, but only on instrument creation
/// and snapshotting — the handles it returns are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().unwrap();
        counters.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self.counters.lock().unwrap();
        Snapshot { counters: counters.iter().map(|(k, c)| (k.clone(), c.get())).collect() }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shards_sum() {
        let c = Counter::new();
        for _ in 0..100 {
            c.inc();
        }
        c.add(17);
        assert_eq!(c.get(), 117);
    }

    #[test]
    fn sampler_mask_rates() {
        let mut s = Sampler::new(SampleRate::every(4));
        let hits = (0..16).filter(|_| s.tick()).count();
        assert_eq!(hits, 4);
        let mut always = Sampler::new(SampleRate::always());
        assert!((0..10).all(|_| always.tick()));
        let mut off = Sampler::new(SampleRate::DISABLED);
        assert!((0..10_000).filter(|_| off.tick()).count() == 0);
    }

    #[test]
    fn registry_snapshot_reads_every_instrument() {
        let r = MetricsRegistry::new();
        let c = r.counter("pkts");
        c.add(5);
        // A second lookup returns the same instrument.
        r.counter("pkts").add(7);
        let s = r.snapshot();
        assert_eq!(s.counters["pkts"], 12);
    }
}
