//! camus-service: the long-running Camus controller.
//!
//! Everything below PR 6 treats the controller as a *function*: hand
//! it a full subscription table, get a deployed network back. Real
//! brokers do not work that way — subscriptions arrive one at a time,
//! continuously, and the expensive part (routing + per-switch
//! pipeline compiles + the transactional install) must amortize
//! across churn instead of rerunning from scratch per op. This crate
//! turns the PR-4 transactional controller into a service:
//!
//! * [`intake`] — the live subscribe/unsubscribe API, the one
//!   subscription-edit rule, and the adaptive churn batcher
//!   (quiet-period window with a hard deadline; a batch carries its
//!   accepted requests). Intake keeps only the open window, and checks
//!   a request against the target state plus that window;
//! * [`stages`] — the transaction step: it owns the one target state,
//!   the deployment and the control channel, and turns a batch into a
//!   reported transaction — route, delta compile against the installed
//!   state, transactional install, per-commit zero-mis-delivery audit
//!   and cadence snapshot — skipping net-zero batches, with the
//!   compile executor and the control channel on two modelled clocks;
//! * [`service`] — [`CamusService`]: the step loop that drives intake
//!   and the transaction step on the caller's thread, applies each
//!   closed batch to the target state as it queues it, merges the
//!   compile backlog on the modelled clock, stops at the first fatal
//!   error, drains and shuts down; and the [`ServiceOutcome`] with the
//!   per-transaction reports, each transaction's one record, and the
//!   run totals folded from them;
//! * [`durability`] — the write-ahead log, snapshots and replay;
//! * [`error`] — the soft per-request rejects and the fatal
//!   [`ServiceError`].
//!
//! The service has one mode switch, [`ServiceConfig::naive`]. By
//! default transactions overlap — transaction N+1 compiles while
//! transaction N installs, on the two modelled clocks — which the
//! content-addressed compile cache makes safe: the cache changes
//! compile *cost*, never compile *output*, and every install diffs
//! against the state actually installed. Naive mode is the
//! one-op-per-transaction baseline: singleton batches, serialized
//! compiles, no backlog merging. The `service` experiment in
//! camus-bench measures what batching, merging and overlap buy over
//! it.

pub mod durability;
pub mod error;
pub mod intake;
pub mod service;
pub mod stages;

pub use crate::durability::{Wal, WalState};
pub use crate::error::{DeployStageError, IntakeError, ServiceError};
pub use crate::intake::RequestOp;
pub use crate::service::{CamusService, ServiceConfig, ServiceOutcome, ServiceStats};
pub use crate::stages::{AuditProbe, TxnReport};
pub use camus_telemetry::AuditReport;
