//! # camus-net — network-level simulation of a Camus deployment
//!
//! Ties the pieces together the way Fig. 2 of the paper draws them: a
//! logically centralised controller with a global view ([`controller`])
//! computes the routing policy (Algorithm 1), compiles a pipeline per
//! switch, and installs them into an event-driven packet-level network
//! simulator ([`sim`]) built over the hierarchical topologies of
//! [`camus_routing::topology`].
//!
//! The simulator models what the paper measures at the network level:
//!
//! * multi-hop forwarding with per-switch pipelines and per-message
//!   multicast,
//! * the logical **up** port: round-robin choice among physical up
//!   links, and the rule that a packet received from above never
//!   re-ascends (§IV-C) — which with the tree-structured policies makes
//!   forwarding loop-free,
//! * per-link traffic accounting (the Fig. 13d "extra traffic in the
//!   core layer" metric),
//! * end-to-end message delivery records with publish→deliver latency
//!   (the Fig. 8 metric),
//! * optional INT-style postcard tracing ([`camus_telemetry`]): sampled
//!   publications accumulate per-hop records that finalize into a
//!   controller-side collector.
//!
//! Each deploy or repair transaction records what it did once, in its
//! per-switch ledger ([`DeployReport`]): attempts, retries, verdicts
//! and the modelled stage and commit time of every touched switch.

pub mod channel;
pub mod clock;
pub mod controller;
pub mod sim;

pub use channel::{ChannelOutcome, ControlChannel, ControlOp, PerfectChannel};
pub use clock::Clock;
pub use controller::{
    AdmissionVerdict, Controller, DeployError, DeployReport, Deployment, ReconcileStats,
    RepairStats, SwitchDeploy,
};
pub use sim::{Delivered, Network, NetworkStats};
