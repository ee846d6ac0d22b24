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
//! * [`core`] — the message-passing spine: gauge-tracked pipes,
//!   drain/stop markers, and the [`Service`](core::Service) trait with
//!   its thread harness (std `mpsc`, one thread per stage, no
//!   executor);
//! * [`intake`] — the live subscribe/unsubscribe API, the one
//!   subscription-edit rule, and the adaptive churn batcher
//!   (quiet-period window with a hard deadline; a batch carries its
//!   accepted requests);
//! * [`stages`] — route+compile (owns the live target state,
//!   incremental against the last compile, cancels net-zero batches,
//!   merges backlog) and deploy
//!   (owns the network, serial modelled control channel, per-commit
//!   zero-mis-delivery audit);
//! * [`service`] — [`CamusService`]: wiring, drain, shutdown, and the
//!   [`ServiceOutcome`] with per-transaction reports;
//! * [`error`] — one error enum per stage, rolled up in
//!   [`ServiceError`].
//!
//! The pipeline overlaps by default — transaction N+1 compiles while
//! transaction N installs — which the PR-1 content-addressed compile
//! cache makes safe: the cache changes compile *cost*, never compile
//! *output*, and the deploy stage diffs each transaction against the
//! state actually installed. The `service` experiment in camus-bench
//! measures what that buys over the one-op-per-transaction baseline.

pub mod core;
pub mod durability;
pub mod error;
pub mod intake;
pub mod service;
pub mod stages;

pub use crate::core::{pipe, spawn, Ctl, Pipe, PipeClosed, Service, StageFailure, StageRx};
pub use crate::durability::{FileWal, MemoryWal, Wal, WalBackend, WalChannel, WalState};
pub use crate::error::{CompileStageError, DeployStageError, IntakeError, ServiceError};
pub use crate::intake::{BatchPolicy, ChurnBatch, IntakeService, RequestId, RequestOp, SubRequest};
pub use crate::service::{CamusService, ServiceConfig, ServiceOutcome, ServiceStats};
pub use crate::stages::{
    AuditProbe, AuditReport, DeployService, RouteCompileService, Txn, TxnPayload, TxnReport,
};
