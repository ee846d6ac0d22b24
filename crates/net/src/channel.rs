//! The controller → switch control channel.
//!
//! On real hardware the controller programs switches over a network
//! (gRPC to the switch agent): messages are dropped, time out, or are
//! rejected by a busy agent. The simulator models this with a
//! [`ControlChannel`] trait the deployment transaction drives every
//! stage/commit operation through, retried a fixed [`MAX_ATTEMPTS`]
//! times with capped exponential backoff and deterministic hash jitter
//! (no wall-clock, so every run is reproducible).
//!
//! The faults crate provides the lossy implementation; here lives the
//! abstraction and the always-delivering [`PerfectChannel`] default.
//!
//! Time accounting is factored out of the controller: `timed_op`
//! drives one operation through a channel with retries and charges
//! every modelled cost (op, timeout, backoff) to an explicit
//! [`Clock`]. The costs and the jitter seed are constants: one
//! controller, one retry schedule.

use crate::clock::Clock;
use camus_core::digest::Fnv1a;
use std::hash::Hasher;
use std::io;

/// A control-plane operation sent to one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// Validate + shadow-install a pipeline (phase one).
    Stage,
    /// Atomically activate the staged pipeline (phase two).
    Commit,
}

/// What happened to one attempt on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelOutcome {
    /// The operation reached the switch and was executed.
    Delivered,
    /// The message (or its ack) was lost: the controller burns the
    /// full per-op timeout before retrying.
    Dropped,
    /// The switch agent answered with a transient failure.
    Nacked,
    /// The *controller* died before the operation left the process.
    /// Nothing reached the switch, no retry is possible — the caller
    /// must unwind as a dead coordinator (no rollback, no cleanup).
    /// Only fault-injection channels ever return this.
    ControllerCrashed,
}

/// The transport the deployment transaction sends every per-switch
/// operation through. `attempt` is 1-based, letting implementations
/// model first-try-only loss or flaky-until-retried behaviour.
pub trait ControlChannel {
    fn attempt(&mut self, switch: usize, op: ControlOp, attempt: u32) -> ChannelOutcome;

    /// Commit-point hook: called by the deployment transaction after
    /// every switch admitted its staged program and *before* the first
    /// commit op is sent. Durable channels append the commit decision
    /// for `epoch` to a write-ahead log here, turning recovery into
    /// presumed-abort two-phase commit: a staged epoch with a logged
    /// decision rolls forward, one without rolls back. An error means
    /// the decision may not be durable, so the transaction aborts
    /// instead of committing. The default is a no-op (volatile
    /// controllers log nothing).
    fn commit_point(&mut self, epoch: u64) -> io::Result<()> {
        let _ = epoch;
        Ok(())
    }
}

/// The lossless default: every operation is delivered first try.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectChannel;

impl ControlChannel for PerfectChannel {
    fn attempt(&mut self, _switch: usize, _op: ControlOp, _attempt: u32) -> ChannelOutcome {
        ChannelOutcome::Delivered
    }
}

/// Attempts per operation before the transaction gives up.
pub const MAX_ATTEMPTS: u32 = 6;
/// Backoff after the first failed attempt.
const BASE_BACKOFF_NS: u64 = 50_000;
/// Backoff growth cap.
const MAX_BACKOFF_NS: u64 = 800_000;
/// Modelled cost of one delivered (or nacked) operation.
pub(crate) const OP_NS: u64 = 20_000;
/// Modelled cost of waiting out a dropped operation.
pub(crate) const TIMEOUT_NS: u64 = 100_000;
/// Seed for the deterministic backoff jitter.
const JITTER_SEED: u64 = 0xC0DE;

/// Backoff before retry number `retry` (0 = after the first failure)
/// of an operation to `switch`: capped exponential with deterministic
/// jitter in `[cap/2, cap]`, decorrelated across switches and retries
/// so a fleet-wide partition does not retry in lockstep.
pub(crate) fn backoff_ns(switch: usize, retry: u32) -> u64 {
    let exp = BASE_BACKOFF_NS.saturating_mul(1u64 << retry.min(20));
    let cap = exp.min(MAX_BACKOFF_NS);
    let mut h = Fnv1a(Fnv1a::OFFSET);
    h.write(
        &(JITTER_SEED ^ (switch as u64).rotate_left(17) ^ u64::from(retry) << 40).to_le_bytes(),
    );
    cap / 2 + h.finish() % (cap - cap / 2 + 1)
}

/// What one [`timed_op`] call did: whether the op ever landed, and the
/// attempt/retry counts the transaction ledger wants. All modelled
/// time was charged to the caller's [`Clock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpOutcome {
    pub landed: bool,
    pub attempts: u32,
    pub retries: u32,
    /// The controller died mid-operation: the op never landed and no
    /// further modelled time was charged (a dead process burns no
    /// timeouts). Callers must abandon the transaction in place.
    pub crashed: bool,
}

/// Drive one per-switch control operation through `channel` with
/// retry + capped exponential backoff, advancing `clock` by the
/// modelled cost of every attempt: `OP_NS` for a delivered or nacked
/// op, `TIMEOUT_NS` for a dropped one, and the deterministic
/// jittered backoff before each retry. The clock is the *only* time
/// sink, so any two runs that feed the same attempt outcomes advance
/// identically.
pub(crate) fn timed_op(
    channel: &mut dyn ControlChannel,
    clock: &mut Clock,
    switch: usize,
    op: ControlOp,
) -> OpOutcome {
    let mut out = OpOutcome { landed: false, attempts: 0, retries: 0, crashed: false };
    for attempt in 1..=MAX_ATTEMPTS {
        out.attempts += 1;
        if attempt > 1 {
            out.retries += 1;
            clock.advance(backoff_ns(switch, attempt - 2));
        }
        match channel.attempt(switch, op, attempt) {
            ChannelOutcome::Delivered => {
                clock.advance(OP_NS);
                out.landed = true;
                break;
            }
            ChannelOutcome::Dropped => {
                clock.advance(TIMEOUT_NS);
            }
            ChannelOutcome::Nacked => {
                clock.advance(OP_NS);
            }
            ChannelOutcome::ControllerCrashed => {
                out.crashed = true;
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_channel_always_delivers() {
        let mut ch = PerfectChannel;
        for a in 1..5 {
            assert_eq!(ch.attempt(3, ControlOp::Stage, a), ChannelOutcome::Delivered);
            assert_eq!(ch.attempt(3, ControlOp::Commit, a), ChannelOutcome::Delivered);
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        for retry in 0..12 {
            let b = backoff_ns(0, retry);
            let exp = BASE_BACKOFF_NS.saturating_mul(1 << retry.min(20));
            let cap = exp.min(MAX_BACKOFF_NS);
            assert!(b >= cap / 2 && b <= cap, "retry {retry}: {b} not in [{}, {cap}]", cap / 2);
        }
        // Late retries saturate at the cap window.
        assert!(backoff_ns(0, 30) <= MAX_BACKOFF_NS);
    }

    #[test]
    fn backoff_is_pinned() {
        // Every modelled control time in the ledgers and the CSVs is
        // built from this schedule, so any change to it shows here.
        for (switch, retry, want) in [
            (0, 0, 26_358),
            (7, 0, 48_738),
            (7, 1, 81_050),
            (3, 2, 101_121),
            (5, 3, 360_084),
            (11, 4, 581_941),
            (0, 5, 433_706),
            (71, 9, 550_506),
            (2, 30, 477_957),
        ] {
            assert_eq!(backoff_ns(switch, retry), want, "switch {switch} retry {retry}");
        }
    }

    /// Fails `fail` times, then delivers.
    struct FlakyN {
        fail: u32,
        with: ChannelOutcome,
    }

    impl ControlChannel for FlakyN {
        fn attempt(&mut self, _s: usize, _op: ControlOp, attempt: u32) -> ChannelOutcome {
            if attempt <= self.fail {
                self.with
            } else {
                ChannelOutcome::Delivered
            }
        }
    }

    #[test]
    fn timed_op_charges_every_attempt_to_the_clock() {
        let mut clock = Clock::new();
        let mut ch = FlakyN { fail: 2, with: ChannelOutcome::Dropped };
        let out = timed_op(&mut ch, &mut clock, 7, ControlOp::Stage);
        assert!(out.landed);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.retries, 2);
        // Two timeouts, two backoffs, one delivered op — exactly.
        let want = 2 * TIMEOUT_NS + backoff_ns(7, 0) + backoff_ns(7, 1) + OP_NS;
        assert_eq!(clock.now_ns(), want);

        // A nack costs an op, not a timeout.
        let mut clock2 = Clock::new();
        let mut ch2 = FlakyN { fail: 1, with: ChannelOutcome::Nacked };
        timed_op(&mut ch2, &mut clock2, 7, ControlOp::Commit);
        assert_eq!(clock2.now_ns(), 2 * OP_NS + backoff_ns(7, 0));
    }

    #[test]
    fn timed_op_exhaustion_burns_all_attempts() {
        let mut clock = Clock::new();
        let mut ch = FlakyN { fail: u32::MAX, with: ChannelOutcome::Dropped };
        let out = timed_op(&mut ch, &mut clock, 0, ControlOp::Stage);
        assert!(!out.landed);
        assert_eq!(out.attempts, MAX_ATTEMPTS);
        assert_eq!(out.retries, MAX_ATTEMPTS - 1);
        let want: u64 = u64::from(MAX_ATTEMPTS) * TIMEOUT_NS
            + (0..MAX_ATTEMPTS - 1).map(|r| backoff_ns(0, r)).sum::<u64>();
        assert_eq!(clock.now_ns(), want);
    }

    #[test]
    fn backoff_is_deterministic_and_decorrelated() {
        assert_eq!(backoff_ns(5, 2), backoff_ns(5, 2));
        // Different switches (almost surely) jitter differently.
        let distinct: std::collections::HashSet<u64> = (0..16).map(|s| backoff_ns(s, 3)).collect();
        assert!(distinct.len() > 1, "jitter must decorrelate switches");
    }
}
