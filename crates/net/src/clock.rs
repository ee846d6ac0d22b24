//! The modelled control-plane clock.
//!
//! Every control-plane cost in the simulator — channel ops, timeouts,
//! retry backoff, and the service scheduler's compile/install overlap
//! — is *modelled* time: deterministic nanoseconds summed from the
//! retry policy and measured stage durations, never read from a wall
//! clock. [`Clock`] makes that timeline an explicit value that can be
//! advanced, handed between components, and compared across runs: two
//! runs with the same seed advance their clocks identically, which is
//! what makes `DeployReport` timings and the service experiment's
//! overlapped schedules reproducible.
//!
//! A `Clock` is deliberately not `Copy`: each modelled resource (the
//! control channel, the compile executor) owns exactly one timeline,
//! and accidental clock duplication is the classic way overlap
//! accounting goes wrong.

/// A monotonically advancing modelled-time cursor (nanoseconds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Clock {
    now_ns: u64,
}

impl Clock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Clock { now_ns: 0 }
    }

    /// Current modelled time.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Spend `ns` of modelled time; returns the new now.
    pub fn advance(&mut self, ns: u64) -> u64 {
        self.now_ns = self.now_ns.saturating_add(ns);
        self.now_ns
    }

    /// Move forward to `ns` if it is in the future; a modelled clock
    /// never runs backwards, so an earlier target is a no-op (the
    /// resource was simply idle until `now`).
    pub fn advance_to(&mut self, ns: u64) -> u64 {
        self.now_ns = self.now_ns.max(ns);
        self.now_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_never_rewinds() {
        let mut c = Clock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance(100), 100);
        assert_eq!(c.advance_to(50), 100, "advance_to must not rewind");
        assert_eq!(c.advance_to(250), 250);
        assert_eq!(c.advance(u64::MAX), u64::MAX, "saturates instead of wrapping");
    }
}
