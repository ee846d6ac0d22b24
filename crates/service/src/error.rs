//! Per-service error taxonomy.
//!
//! Errors are explicit enums with hand-rolled `Display` and `Error`
//! impls (the vendored-deps build has no `thiserror`; the shape follows
//! the same taxonomy style). Soft, per-request failures (an unknown
//! host, an unsubscribe with no matching subscription) are
//! [`IntakeError`]s: *recorded*, not fatal — the service keeps running
//! and reports them at shutdown. Fatal errors — a compile failure, a
//! crashed or audit-violating install, a stage out of restarts — stop
//! the service and surface through [`ServiceError`], the roll-up the
//! service owner sees.
//!
//! The batch controller API has one error enum of its own,
//! [`camus_net::DeployError`]: what the install transaction returns is
//! what the transaction step matches on.

use camus_core::compiler::CompileError;
use std::fmt;

/// Soft per-request rejects: recorded, the service keeps running.
#[derive(Debug)]
pub enum IntakeError {
    /// The request named a host outside the deployed topology.
    UnknownHost { request: u64, host: usize, hosts: usize },
    /// An unsubscribe for a filter the host does not hold.
    NoSuchSubscription { request: u64, host: usize },
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
        }
    }
}

impl std::error::Error for IntakeError {}

/// Install errors of the transaction step. A *rejected transaction*
/// (admission or channel failure) is soft — it rolls back and is
/// reported per-txn; what is fatal here is a broken invariant or a
/// dead coordinator.
#[derive(Debug)]
pub enum DeployStageError {
    /// The zero-mis-delivery audit failed after a commit. The network
    /// is in a state the controller believes is wrong; stop the world.
    Audit { txn: u64, misdelivered: usize, duplicated: usize, missed: usize },
    /// The controller died mid-transaction (fault injection): the
    /// install was abandoned with staged state still on the switches.
    /// Fatal by construction — a dead coordinator does nothing else.
    Crashed { txn: u64, epoch: u64 },
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
        }
    }
}

impl std::error::Error for DeployStageError {}

/// The roll-up: the fatal error that stopped the service.
#[derive(Debug)]
pub enum ServiceError {
    /// A routed rule list the compiler cannot lower, which no retry
    /// will fix.
    Compile(CompileError),
    Deploy(DeployStageError),
    /// A stage panicked repeatedly enough to exhaust its restart
    /// budget and was taken down.
    Panicked {
        stage: &'static str,
        panics: u32,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Compile(e) => write!(f, "compile service: pipeline compile failed: {e}"),
            ServiceError::Deploy(e) => write!(f, "deploy service: {e}"),
            ServiceError::Panicked { stage, panics } => {
                write!(f, "{stage}: stage panicked {panics}x, restart budget exhausted")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Compile(e) => Some(e),
            ServiceError::Deploy(e) => Some(e),
            ServiceError::Panicked { .. } => None,
        }
    }
}

impl From<CompileError> for ServiceError {
    fn from(e: CompileError) -> Self {
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
        let e = IntakeError::UnknownHost { request: 9, host: 200, hosts: 128 };
        assert_eq!(e.to_string(), "request 9: host 200 outside topology (128 hosts)");

        let e = DeployStageError::Audit { txn: 3, misdelivered: 1, duplicated: 0, missed: 0 };
        assert!(e.to_string().contains("audit violation after txn 3"));
        let e = ServiceError::from(e);
        assert!(e.to_string().starts_with("deploy service: audit violation"));
        assert!(e.source().is_some());

        let e = ServiceError::Panicked { stage: "camus-deploy", panics: 3 };
        assert_eq!(e.to_string(), "camus-deploy: stage panicked 3x, restart budget exhausted");
        assert!(e.source().is_none());
    }
}
