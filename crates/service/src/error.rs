//! Per-service error taxonomy.
//!
//! Each stage of the controller service owns an explicit error enum —
//! intake, compile, deploy — with hand-rolled `Display` and
//! `Error` impls (the vendored-deps build has no `thiserror`; the
//! shape follows the same taxonomy style). Soft, per-request failures
//! (an unknown host, an unsubscribe with no matching subscription)
//! are *recorded*, not fatal: the service keeps running and reports
//! them at shutdown. Fatal variants — a hung-up pipe, a compile
//! failure, an audit violation — stop the stage and surface through
//! [`ServiceError`], the roll-up the service owner sees.
//!
//! The batch controller API has one error enum of its own,
//! [`camus_net::DeployError`]: what the install transaction returns is
//! what the deploy stage matches on.

use camus_core::compiler::CompileError;
use std::fmt;

/// Intake-stage errors. The first two are soft per-request rejects
/// (recorded, service keeps running); `Closed` is fatal.
#[derive(Debug)]
pub enum IntakeError {
    /// The request named a host outside the deployed topology.
    UnknownHost { request: u64, host: usize, hosts: usize },
    /// An unsubscribe for a filter the host does not hold.
    NoSuchSubscription { request: u64, host: usize },
    /// The compile stage hung up.
    Closed,
}

impl fmt::Display for IntakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntakeError::UnknownHost { request, host, hosts } => {
                write!(f, "request {request}: host {host} outside topology ({hosts} hosts)")
            }
            IntakeError::NoSuchSubscription { request, host } => {
                write!(f, "request {request}: host {host} holds no matching subscription")
            }
            IntakeError::Closed => write!(f, "intake: downstream stage hung up"),
        }
    }
}

impl std::error::Error for IntakeError {}

/// Compile-stage errors. A compile failure is fatal for the service:
/// it means a routed rule list the compiler cannot lower, which no
/// retry will fix.
#[derive(Debug)]
pub enum CompileStageError {
    Compile(CompileError),
    /// The deploy stage hung up.
    Closed,
}

impl fmt::Display for CompileStageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileStageError::Compile(e) => write!(f, "pipeline compile failed: {e}"),
            CompileStageError::Closed => write!(f, "compile: downstream stage hung up"),
        }
    }
}

impl std::error::Error for CompileStageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileStageError::Compile(e) => Some(e),
            CompileStageError::Closed => None,
        }
    }
}

impl From<CompileError> for CompileStageError {
    fn from(e: CompileError) -> Self {
        CompileStageError::Compile(e)
    }
}

/// Deploy-stage errors. A *rejected transaction* (admission or
/// channel failure) is soft — it rolls back and is reported per-txn;
/// what is fatal here is a broken invariant: the post-commit audit
/// finding mis-delivery, or the report pipe hanging up.
#[derive(Debug)]
pub enum DeployStageError {
    /// The zero-mis-delivery audit failed after a commit. The network
    /// is in a state the controller believes is wrong; stop the world.
    Audit { txn: u64, misdelivered: usize, duplicated: usize, missed: usize },
    /// The controller died mid-transaction (fault injection): the
    /// install was abandoned with staged state still on the switches.
    /// Fatal by construction — a dead coordinator does nothing else.
    Crashed { txn: u64, epoch: u64 },
    /// The report consumer hung up.
    Closed,
}

impl fmt::Display for DeployStageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployStageError::Audit { txn, misdelivered, duplicated, missed } => write!(
                f,
                "audit violation after txn {txn}: {misdelivered} misdelivered, \
                 {duplicated} duplicated, {missed} missed"
            ),
            DeployStageError::Crashed { txn, epoch } => {
                write!(f, "controller crashed installing txn {txn} (epoch {epoch})")
            }
            DeployStageError::Closed => write!(f, "deploy: report consumer hung up"),
        }
    }
}

impl std::error::Error for DeployStageError {}

/// The roll-up: any stage's fatal error, tagged by service.
#[derive(Debug)]
pub enum ServiceError {
    Intake(IntakeError),
    Compile(CompileStageError),
    Deploy(DeployStageError),
    /// A stage thread panicked repeatedly enough to exhaust its
    /// supervisor's restart budget and was taken down.
    Panicked {
        stage: &'static str,
        panics: u32,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Intake(e) => write!(f, "intake service: {e}"),
            ServiceError::Compile(e) => write!(f, "compile service: {e}"),
            ServiceError::Deploy(e) => write!(f, "deploy service: {e}"),
            ServiceError::Panicked { stage, panics } => {
                write!(f, "{stage}: stage thread panicked {panics}x, restart budget exhausted")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Intake(e) => Some(e),
            ServiceError::Compile(e) => Some(e),
            ServiceError::Deploy(e) => Some(e),
            ServiceError::Panicked { .. } => None,
        }
    }
}

impl From<IntakeError> for ServiceError {
    fn from(e: IntakeError) -> Self {
        ServiceError::Intake(e)
    }
}

impl From<CompileStageError> for ServiceError {
    fn from(e: CompileStageError) -> Self {
        ServiceError::Compile(e)
    }
}

impl From<DeployStageError> for ServiceError {
    fn from(e: DeployStageError) -> Self {
        ServiceError::Deploy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn displays_and_sources_chain() {
        let e = ServiceError::from(IntakeError::UnknownHost { request: 9, host: 200, hosts: 128 });
        assert_eq!(
            e.to_string(),
            "intake service: request 9: host 200 outside topology (128 hosts)"
        );
        assert!(e.source().is_some());

        let e = DeployStageError::Audit { txn: 3, misdelivered: 1, duplicated: 0, missed: 0 };
        assert!(e.to_string().contains("audit violation after txn 3"));
        assert!(ServiceError::from(e).source().is_some());
    }
}
