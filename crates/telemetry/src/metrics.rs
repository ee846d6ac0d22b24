//! The lock-free metrics core.
//!
//! Instruments are cheap enough to live on the data-plane fast path:
//! counters are sharded over cache-line-padded atomics, histograms use
//! log-scaled buckets (4 linear sub-buckets per power of two, so any
//! recorded value lands in a bucket whose width is at most 25% of its
//! lower bound), and the only coordination anywhere is a relaxed
//! atomic add. Reading happens through [`MetricsRegistry::snapshot`],
//! which is allowed to be (mildly) expensive.
//!
//! Sampling is a power-of-two mask ([`Sampler`]): deciding whether a
//! packet is observed costs one increment and one mask test, with no
//! data-dependent branches, so disabling telemetry keeps the PR-3
//! fast path within noise.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shards per [`Counter`]; must be a power of two.
const SHARDS: usize = 8;

/// Sub-buckets per power of two in a [`Histogram`].
const SUB_BITS: u32 = 2;
const SUB: usize = 1 << SUB_BITS;
/// Total histogram buckets (enough for the full `u64` range).
pub(crate) const BUCKETS: usize = 64 * SUB;

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

/// The bucket a value lands in: log-scaled with `SUB` linear
/// sub-buckets per octave. Monotone in `v`, total over `u64`.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        ((msb - SUB_BITS) as usize + 1) * SUB + sub
    }
}

/// Inclusive value range `[lo, hi]` covered by bucket `idx`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        (idx as u64, idx as u64)
    } else {
        let shift = (idx / SUB - 1) as u32;
        let lo = ((SUB + idx % SUB) as u64) << shift;
        let width = 1u64 << shift;
        (lo, lo + (width - 1))
    }
}

/// A lock-free log-bucketed histogram of `u64` samples.
///
/// Recording is five relaxed atomic RMWs (bucket, count, sum, min,
/// max) and never allocates, so the data plane can call it directly.
/// Cache-line aligned so the count/sum/min/max header words of
/// adjacent per-shard histograms never false-share.
#[repr(align(64))]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new([0u64; BUCKETS].map(AtomicU64::new)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.percentile(0.50))
            .field("p99", &s.percentile(0.99))
            .field("max", &s.max)
            .finish()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// The `q`-quantile estimate (`0.0 ..= 1.0`): the upper bound of
    /// the bucket containing the exact order statistic, so the
    /// estimate is always within one log-bucket of the true value.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max);
            }
        }
        self.max
    }

    /// Merge another snapshot in; equivalent to a snapshot of the
    /// concatenated sample streams.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        // Matches the live histogram's relaxed fetch_add, which wraps.
        self.sum = self.sum.wrapping_add(other.sum);
        if other.count > 0 {
            self.min = if self.count == 0 { other.min } else { self.min.min(other.min) };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
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

    pub fn rate(&self) -> SampleRate {
        SampleRate { mask: self.mask }
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
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        inner.histograms.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        Snapshot {
            counters: inner.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_consistent_with_bounds() {
        let mut prev = 0;
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= prev, "bucket_index must be monotone at {v}");
            prev = i;
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "value {v} outside its bucket [{lo}, {hi}]");
        }
        // Adjacent buckets tile the range with no gaps.
        for i in 0..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            if hi == u64::MAX {
                break;
            }
            let (lo_next, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo_next, "gap after bucket {i}");
        }
    }

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
    fn histogram_percentiles_track_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // The p50 bucket must contain 500; upper bound is within 25%.
        let p50 = s.percentile(0.50);
        assert!((500..=640).contains(&p50), "p50 {p50}");
        let p999 = s.percentile(0.999);
        assert!((999..=1000).contains(&p999), "p999 {p999}");
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
        let h = r.histogram("lat");
        c.add(5);
        h.record(10);
        // A second lookup returns the same instrument.
        r.counter("pkts").add(7);
        let s = r.snapshot();
        assert_eq!(s.counters["pkts"], 12);
        assert_eq!(s.histograms["lat"].count, 1);
    }
}
