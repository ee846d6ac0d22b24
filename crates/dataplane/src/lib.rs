//! # camus-dataplane — a programmable-switch simulator
//!
//! The execution substrate standing in for the paper's Barefoot Tofino
//! switches: it runs the pipelines produced by [`camus_core`] against
//! real packet bytes, with the hardware mechanisms of §V–§VI modelled
//! explicitly:
//!
//! * [`packet`] — wire-format packets: the fixed header stack of the
//!   application spec followed by batched fixed-width messages
//!   (MoldUDP-style framing, §VIII-C.1).
//! * [`state`] — the register file for stateful predicates: tumbling
//!   windows computing `count`/`sum`/`avg` (§II), pre-allocated by the
//!   static compiler and linked to subscription actions dynamically.
//! * [`switch`] — the full per-packet path: the deep-parsing budget
//!   of Fig. 7 (a first pass multicasts copies onto recirculation
//!   ports; pass *k* skips `k·B` messages and extracts the next `B`
//!   into the PHV) → per-unit pipeline evaluation in ingress →
//!   port-mask computation → crossbar replication (one copy per
//!   output port) → egress pruning of the
//!   messages each subscriber did not ask for (§VI-A) → custom actions
//!   (e.g. `answerDNS`). Port masks are bit rows over each program's
//!   own port table (`replicate`, crate-private).
//! * [`telemetry`] — optional sampling on the switch path: one mask
//!   test per packet when attached, nothing at all when not, and a
//!   [`camus_telemetry`] counter of the packets it sampled.
//!
//! Each fact is counted once: exact totals in [`SwitchStats`], bumped
//! on every packet; per-packet detail in postcards, from
//! [`Switch::last_eval`]; and the sampled-packet count in
//! [`SwitchTelemetry`].
//!
//! Latency is modelled, not measured: a base pipeline traversal cost
//! plus a per-recirculation penalty, calibrated to the paper's "less
//! than 1 μs" pipeline latency (§VIII-F).

mod fastpath;
pub mod packet;
mod replicate;
pub mod state;
pub mod switch;
pub mod telemetry;

pub use fastpath::EvalPlan;
pub use packet::{Packet, PacketBuilder};
pub use state::StateStore;
pub use switch::{InstallError, Program, Switch, SwitchConfig, SwitchOutput, SwitchStats};
pub use telemetry::SwitchTelemetry;
