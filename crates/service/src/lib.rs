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
//!   accepted requests);
//! * [`stages`] — route+compile (owns the live target state,
//!   incremental against the last compile, cancels net-zero batches)
//!   and deploy (owns the network, serial modelled control channel,
//!   per-commit zero-mis-delivery audit), each a step machine on a
//!   modelled clock;
//! * [`service`] — [`CamusService`]: the step loop that drives the
//!   stages on the caller's thread, merges the compile backlog on the
//!   modelled clock, supervises panics, drains and shuts down; and the
//!   [`ServiceOutcome`] with per-transaction reports;
//! * [`durability`] — the write-ahead log, snapshots and replay;
//! * [`error`] — the soft per-request rejects and the fatal
//!   [`ServiceError`].
//!
//! Transactions overlap by default — transaction N+1 compiles while
//! transaction N installs, on the two stages' modelled clocks — which
//! the content-addressed compile cache makes safe: the cache changes
//! compile *cost*, never compile *output*, and the deploy stage diffs
//! each transaction against the state actually installed. The
//! `service` experiment in camus-bench measures what that buys over
//! the one-op-per-transaction baseline.

pub mod durability;
pub mod error;
pub mod intake;
pub mod service;
pub mod stages;

pub use crate::durability::{FileWal, MemoryWal, Wal, WalBackend, WalChannel, WalState};
pub use crate::error::{DeployStageError, IntakeError, ServiceError};
pub use crate::intake::{BatchPolicy, ChurnBatch, IntakeService, RequestId, RequestOp, SubRequest};
pub use crate::service::{CamusService, ServiceConfig, ServiceOutcome, ServiceStats};
pub use crate::stages::{
    AuditProbe, AuditReport, DeployService, RouteCompileService, Txn, TxnPayload, TxnReport,
};
