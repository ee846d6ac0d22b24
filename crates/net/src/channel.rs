//! The controller → switch control channel.
//!
//! On real hardware the controller programs switches over a network
//! (gRPC to the switch agent): messages are dropped, time out, or are
//! rejected by a busy agent. The simulator models this with a
//! [`ControlChannel`] trait the deployment transaction drives every
//! stage/commit operation through, plus a deterministic seeded
//! [`RetryPolicy`] (capped exponential backoff with hash jitter — no
//! wall-clock, so every run is reproducible).
//!
//! The faults crate provides the lossy implementation; here lives the
//! abstraction and the always-delivering [`PerfectChannel`] default.
//!
//! Time accounting is factored out of the controller: `timed_op`
//! drives one operation through a channel with retries and charges
//! every modelled cost (op, timeout, backoff) to an explicit
//! [`Clock`], so the deployment transaction and the service
//! scheduler's overlapped timelines share one reproducible notion of
//! control-plane time.

use crate::clock::Clock;
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

/// Deterministic retry/backoff parameters for control-channel
/// operations. All time is modelled (summed into the deploy report),
/// never slept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per operation before the transaction gives up.
    pub max_attempts: u32,
    /// Backoff after the first failed attempt.
    pub base_backoff_ns: u64,
    /// Backoff growth cap.
    pub max_backoff_ns: u64,
    /// Modelled cost of one delivered (or nacked) operation.
    pub op_ns: u64,
    /// Modelled cost of waiting out a dropped operation.
    pub timeout_ns: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_ns: 50_000,
            max_backoff_ns: 800_000,
            op_ns: 20_000,
            timeout_ns: 100_000,
            seed: 0xC0DE,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0 = after the first
    /// failure) of an operation to `switch`: capped exponential with
    /// deterministic jitter in `[cap/2, cap]`, decorrelated across
    /// switches and retries so a fleet-wide partition does not retry
    /// in lockstep.
    pub(crate) fn backoff_ns(&self, switch: usize, retry: u32) -> u64 {
        let exp = self.base_backoff_ns.saturating_mul(1u64 << retry.min(20));
        let cap = exp.min(self.max_backoff_ns).max(1);
        let h = fnv64(self.seed ^ (switch as u64).rotate_left(17) ^ u64::from(retry) << 40);
        cap / 2 + h % (cap - cap / 2 + 1)
    }
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

/// Drive one per-switch control operation through `channel` with the
/// policy's retry + capped exponential backoff, advancing `clock` by
/// the modelled cost of every attempt: `op_ns` for a delivered or
/// nacked op, `timeout_ns` for a dropped one, and the deterministic
/// jittered backoff before each retry. The clock is the *only* time
/// sink, so any two runs that feed the same attempt outcomes advance
/// identically.
pub(crate) fn timed_op(
    channel: &mut dyn ControlChannel,
    retry: &RetryPolicy,
    clock: &mut Clock,
    switch: usize,
    op: ControlOp,
) -> OpOutcome {
    let mut out = OpOutcome { landed: false, attempts: 0, retries: 0, crashed: false };
    for attempt in 1..=retry.max_attempts {
        out.attempts += 1;
        if attempt > 1 {
            out.retries += 1;
            clock.advance(retry.backoff_ns(switch, attempt - 2));
        }
        match channel.attempt(switch, op, attempt) {
            ChannelOutcome::Delivered => {
                clock.advance(retry.op_ns);
                out.landed = true;
                break;
            }
            ChannelOutcome::Dropped => {
                clock.advance(retry.timeout_ns);
            }
            ChannelOutcome::Nacked => {
                clock.advance(retry.op_ns);
            }
            ChannelOutcome::ControllerCrashed => {
                out.crashed = true;
                break;
            }
        }
    }
    out
}

/// FNV-1a over the 8 bytes of `x` — the same cheap deterministic hash
/// the fingerprint machinery uses.
fn fnv64(x: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
        let p = RetryPolicy::default();
        for retry in 0..12 {
            let b = p.backoff_ns(0, retry);
            let exp = p.base_backoff_ns.saturating_mul(1 << retry.min(20));
            let cap = exp.min(p.max_backoff_ns);
            assert!(b >= cap / 2 && b <= cap, "retry {retry}: {b} not in [{}, {cap}]", cap / 2);
        }
        // Late retries saturate at the cap window.
        assert!(p.backoff_ns(0, 30) <= p.max_backoff_ns);
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
        let p = RetryPolicy::default();
        let mut clock = Clock::new();
        let mut ch = FlakyN { fail: 2, with: ChannelOutcome::Dropped };
        let out = timed_op(&mut ch, &p, &mut clock, 7, ControlOp::Stage);
        assert!(out.landed);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.retries, 2);
        // Two timeouts, two backoffs, one delivered op — exactly.
        let want = 2 * p.timeout_ns + p.backoff_ns(7, 0) + p.backoff_ns(7, 1) + p.op_ns;
        assert_eq!(clock.now_ns(), want);

        // A nack costs an op, not a timeout.
        let mut clock2 = Clock::new();
        let mut ch2 = FlakyN { fail: 1, with: ChannelOutcome::Nacked };
        timed_op(&mut ch2, &p, &mut clock2, 7, ControlOp::Commit);
        assert_eq!(clock2.now_ns(), 2 * p.op_ns + p.backoff_ns(7, 0));
    }

    #[test]
    fn timed_op_exhaustion_burns_all_attempts() {
        let p = RetryPolicy::default();
        let mut clock = Clock::new();
        let mut ch = FlakyN { fail: u32::MAX, with: ChannelOutcome::Dropped };
        let out = timed_op(&mut ch, &p, &mut clock, 0, ControlOp::Stage);
        assert!(!out.landed);
        assert_eq!(out.attempts, p.max_attempts);
        assert_eq!(out.retries, p.max_attempts - 1);
        let want: u64 = u64::from(p.max_attempts) * p.timeout_ns
            + (0..p.max_attempts - 1).map(|r| p.backoff_ns(0, r)).sum::<u64>();
        assert_eq!(clock.now_ns(), want);
    }

    #[test]
    fn backoff_is_deterministic_and_decorrelated() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ns(5, 2), p.backoff_ns(5, 2));
        // Different switches (almost surely) jitter differently.
        let distinct: std::collections::HashSet<u64> =
            (0..16).map(|s| p.backoff_ns(s, 3)).collect();
        assert!(distinct.len() > 1, "jitter must decorrelate switches");
        // A different seed reshuffles the jitter.
        let q = RetryPolicy { seed: 99, ..p };
        assert!((0..16).any(|s| p.backoff_ns(s, 3) != q.backoff_ns(s, 3)));
    }
}
