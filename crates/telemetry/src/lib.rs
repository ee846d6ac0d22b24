//! Observability for the Camus reproduction.
//!
//! Two pillars, one crate, and the probe audit that reads them:
//!
//! * [`metrics`] — a lock-free metrics core (sharded counters,
//!   log-bucketed histograms) behind a [`MetricsRegistry`],
//!   with power-of-two [`Sampler`] masks so the data-plane fast path
//!   pays one mask test when telemetry is disabled;
//! * [`postcard`] — INT-style packet postcards: sampled packets
//!   accumulate a bounded per-hop record that a controller-side
//!   [`Collector`] turns into blackhole/loop anomaly reports;
//! * [`audit`] — the one probe audit: a burst's [`Copies`] view, read
//!   from the host delivery logs or from the collector, folded into an
//!   [`AuditReport`] against the hosts that must and may receive each
//!   probe.
//!
//! The crate deliberately depends only on `camus-lang` (for the
//! `Port` type), so every other layer — dataplane, simulator,
//! controller, harnesses — can depend on it without cycles.

pub mod audit;
pub mod metrics;
pub mod postcard;

pub use audit::{AuditReport, Copies};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricsRegistry, SampleRate, Sampler, Snapshot,
};
pub use postcard::{
    Anomaly, Collector, HopRecord, Postcard, PostcardEnd, PostcardGroup, PostcardId,
};
