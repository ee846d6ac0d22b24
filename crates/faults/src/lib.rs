//! # camus-faults — fault injection and self-healing measurement
//!
//! The paper's controller (§III) recomputes routing when subscriptions
//! change; the same machinery must also survive the *network* changing
//! under it. This crate injects deterministic faults into a running
//! [`camus_net::sim::Network`], drives the controller's
//! [`repair`](camus_net::controller::Controller::repair) path, and
//! measures convergence: how long subscribers were dark (blackout),
//! what was dropped, duplicated or mis-delivered, and how much of the
//! previous deployment the incremental recompiler could keep.
//!
//! Layering:
//!
//! * [`event`] — the fault taxonomy ([`event::FaultKind`]) and timed
//!   schedules of them,
//! * [`inject`] — a seeded injector that picks *which* link or switch
//!   to break, reproducibly,
//! * [`scenario`] — the measurement harness: probe traffic around a
//!   fault, a modelled detection/repair window, per-event accounting,
//! * [`report`] — aggregation across a whole schedule
//!   ([`report::FaultReport`]).

pub mod channel;
pub mod chaos;
pub mod event;
pub mod inject;
pub mod report;
pub mod scenario;

pub use channel::LossyChannel;
pub use chaos::{run_chaos, ChaosConfig, ChaosInput, ChaosReport, ChaosStep};
pub use event::{FaultEvent, FaultKind, FaultSchedule};
pub use inject::FaultInjector;
pub use report::FaultReport;
pub use scenario::{apply_fault, run_fault, run_schedule, EventReport, ProbeConfig, RepairModel};
