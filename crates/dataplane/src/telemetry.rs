//! The data-plane end of the telemetry subsystem.
//!
//! A [`SwitchTelemetry`] is an optional attachment on a
//! [`Switch`](crate::switch::Switch): when present, every processed
//! packet pays one sampler tick (an increment plus a mask test), and
//! a sampled packet bumps one shared lock-free counter,
//! `switch.sampled_packets`, in a [`MetricsRegistry`]. It counts
//! nothing else: the switch's exact totals (stage hits and misses,
//! recirculations, drops) are its
//! [`SwitchStats`](crate::switch::SwitchStats), and a traced packet's
//! per-hop detail rides in its postcard. Nothing on this path
//! allocates, so the switch's zero-alloc guarantee holds with
//! telemetry attached, disabled or enabled.

use camus_telemetry::metrics::{Counter, MetricsRegistry, SampleRate, Sampler};
use std::sync::Arc;

/// Per-switch sampling, with a handle into a shared registry.
#[derive(Debug, Clone)]
pub struct SwitchTelemetry {
    sampler: Sampler,
    /// Packets the sampler selected.
    sampled_packets: Arc<Counter>,
}

impl SwitchTelemetry {
    /// The counter is registered as `switch.sampled_packets`; switches
    /// sharing a registry aggregate into the same counter.
    pub fn new(registry: &MetricsRegistry, rate: SampleRate) -> Self {
        SwitchTelemetry {
            sampler: Sampler::new(rate),
            sampled_packets: registry.counter("switch.sampled_packets"),
        }
    }

    /// Called by the switch once per processed packet. The unsampled
    /// path is the sampler tick and nothing else.
    #[inline]
    pub(crate) fn observe(&mut self) {
        if self.sampler.tick() {
            self.sampled_packets.inc();
        }
    }
}
