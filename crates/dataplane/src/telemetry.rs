//! The data-plane end of the telemetry subsystem.
//!
//! A [`SwitchTelemetry`] is an optional attachment on a
//! [`Switch`](crate::switch::Switch): when present, every processed
//! packet pays one sampler tick (an increment plus a mask test), and
//! sampled packets record their evaluation latency and table activity
//! into shared lock-free instruments from a [`MetricsRegistry`].
//! Nothing on this path allocates, so the PR-3 zero-alloc guarantee
//! holds with telemetry attached, disabled or enabled.

use camus_core::compiled::EvalCounters;
use camus_telemetry::metrics::{Counter, Histogram, MetricsRegistry, SampleRate, Sampler};
use std::sync::Arc;

/// Per-switch sampled instruments, handles into a shared registry.
#[derive(Debug, Clone)]
pub struct SwitchTelemetry {
    sampler: Sampler,
    /// Modelled per-packet pipeline latency (ns).
    pub eval_ns: Arc<Histogram>,
    /// Match probes per sampled packet.
    pub entries_scanned: Arc<Histogram>,
    /// Packets the sampler selected.
    pub sampled_packets: Arc<Counter>,
    pub stage_hits: Arc<Counter>,
    pub stage_misses: Arc<Counter>,
    /// Recirculation passes beyond the first, over sampled packets.
    pub recirculations: Arc<Counter>,
}

impl SwitchTelemetry {
    /// Instruments are registered under `switch.*`; switches sharing a
    /// registry aggregate into the same instruments.
    pub fn new(registry: &MetricsRegistry, rate: SampleRate) -> Self {
        SwitchTelemetry {
            sampler: Sampler::new(rate),
            eval_ns: registry.histogram("switch.eval_ns"),
            entries_scanned: registry.histogram("switch.entries_scanned"),
            sampled_packets: registry.counter("switch.sampled_packets"),
            stage_hits: registry.counter("switch.stage_hits"),
            stage_misses: registry.counter("switch.stage_misses"),
            recirculations: registry.counter("switch.recirculations"),
        }
    }

    pub fn rate(&self) -> SampleRate {
        self.sampler.rate()
    }

    /// Called by the switch once per processed packet. The unsampled
    /// path is the sampler tick and nothing else.
    #[inline]
    pub(crate) fn observe(&mut self, counters: &EvalCounters, latency_ns: u64, passes: usize) {
        if !self.sampler.tick() {
            return;
        }
        self.sampled_packets.inc();
        self.eval_ns.record(latency_ns);
        self.entries_scanned.record(counters.entries_scanned);
        self.stage_hits.add(counters.stage_hits);
        self.stage_misses.add(counters.stage_misses);
        self.recirculations.add(passes as u64 - 1);
    }
}
