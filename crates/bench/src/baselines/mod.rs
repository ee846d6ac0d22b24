//! The software systems Camus is compared against.
//!
//! The paper's evaluation pits in-network filtering against software:
//! a plain C userspace filter, a DPDK filter (Fig. 9), subscriber-side
//! filtering of the ITCH feed (Fig. 8), and a Kafka broker (§VIII-D).
//! None of those artefacts run here, so each is replaced by (a) a real,
//! timeable Rust implementation of the same algorithm, and (b) a
//! calibrated analytical cost model reproducing the paper's hardware
//! numbers (1.6 GHz Xeon, ~100 instructions/packet for DPDK, kernel
//! stack overhead for plain C).
//!
//! * [`linear`] — the linear-scan filter engine software subscribers
//!   run: evaluate every filter against every message. Really executes;
//!   Fig. 9 times it.
//! * [`cost`] — throughput models for Fig. 9: plain C (syscall-bound),
//!   DPDK (CPU-bound, with the >10 K-filter cache cliff the paper
//!   observed), and the Tofino line-rate constant.
//! * [`queue`] — an M/G/1-style FIFO service simulation producing
//!   latency distributions for subscriber-side filtering (Fig. 8's
//!   baseline): messages arrive from the feed, a single core filters
//!   them at a measured/modelled service rate, latency = queueing +
//!   service.
//! * [`kafka`] — a minimal broker throughput/latency model for the
//!   §VIII-D co-existence experiments and the pub/sub application.

pub mod cost;
pub mod kafka;
pub mod linear;
pub mod queue;
