//! Stateful predicates: the register file and tumbling windows (§II).
//!
//! The static compiler pre-allocates a block of registers; each
//! register implements a *tumbling window* over a field: when the
//! window elapses, the aggregate resets and starts accumulating anew
//! (the paper's restriction — no sliding windows, only count/sum/avg).
//! Stateful predicates are only evaluated at the last-hop switch (§II);
//! the network layer enforces that, this module just does the
//! arithmetic.

use camus_lang::ast::AggFunc;
use serde::{Deserialize, Serialize};

/// One tumbling-window register.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct WindowRegister {
    pub window_us: u64,
    window_start_us: u64,
    count: u64,
    sum: i64,
}

impl WindowRegister {
    pub(crate) fn new(window_us: u64) -> Self {
        assert!(window_us > 0, "window must be positive");
        WindowRegister { window_us, window_start_us: 0, count: 0, sum: 0 }
    }

    fn roll(&mut self, now_us: u64) {
        if now_us >= self.window_start_us + self.window_us {
            // Tumble: align the new window to the configured size.
            self.window_start_us = now_us - (now_us % self.window_us);
            self.count = 0;
            self.sum = 0;
        }
    }

    /// Record one observation at time `now_us`.
    pub(crate) fn update(&mut self, now_us: u64, value: i64) {
        self.roll(now_us);
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Read an aggregate at time `now_us` (rolls the window first, so a
    /// stale window reads as empty).
    pub(crate) fn read(&mut self, now_us: u64, func: AggFunc) -> i64 {
        self.roll(now_us);
        match func {
            AggFunc::Count => self.count as i64,
            AggFunc::Sum => self.sum,
            AggFunc::Avg => {
                if self.count == 0 {
                    0
                } else {
                    self.sum / self.count as i64
                }
            }
        }
    }
}

/// The switch's register file: one window register per aggregate
/// operand key (`avg(price)`, `count(hop_latency)`, ...). Registers are
/// created on first use with the default window unless pre-allocated by
/// the static compiler's `@counter` declarations.
#[derive(Debug, Clone, Default)]
pub struct StateStore {
    regs: std::collections::HashMap<String, WindowRegister>,
    /// Window applied to aggregates without an explicit `@counter`.
    pub default_window_us: u64,
}

impl StateStore {
    pub fn new(default_window_us: u64) -> Self {
        StateStore { regs: Default::default(), default_window_us }
    }

    /// Pre-allocate a register (static compilation path).
    pub fn allocate(&mut self, key: &str, window_us: u64) {
        self.regs.entry(key.to_string()).or_insert_with(|| WindowRegister::new(window_us));
    }

    fn reg(&mut self, key: &str) -> &mut WindowRegister {
        // Probe before inserting: the steady-state hit path must not
        // allocate a `String` just to look the register up.
        if !self.regs.contains_key(key) {
            let w = if self.default_window_us == 0 { 1_000_000 } else { self.default_window_us };
            self.regs.insert(key.to_string(), WindowRegister::new(w));
        }
        self.regs.get_mut(key).expect("present or just inserted")
    }

    /// Record a field observation into the aggregate register `key`.
    pub(crate) fn update(&mut self, key: &str, now_us: u64, value: i64) {
        self.reg(key).update(now_us, value);
    }

    /// Read aggregate `func` from register `key`.
    pub(crate) fn read(&mut self, key: &str, now_us: u64, func: AggFunc) -> i64 {
        self.reg(key).read(now_us, func)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sum_avg_within_window() {
        let mut r = WindowRegister::new(100);
        r.update(10, 5);
        r.update(20, 15);
        assert_eq!(r.read(30, AggFunc::Count), 2);
        assert_eq!(r.read(30, AggFunc::Sum), 20);
        assert_eq!(r.read(30, AggFunc::Avg), 10);
    }

    #[test]
    fn window_tumbles_and_resets() {
        let mut r = WindowRegister::new(100);
        r.update(10, 50);
        assert_eq!(r.read(99, AggFunc::Sum), 50);
        // At t=100 the window [0,100) has elapsed.
        assert_eq!(r.read(100, AggFunc::Sum), 0);
        r.update(150, 7);
        assert_eq!(r.read(199, AggFunc::Sum), 7);
        // Next window.
        assert_eq!(r.read(200, AggFunc::Sum), 0);
    }

    #[test]
    fn window_alignment_is_absolute() {
        let mut r = WindowRegister::new(100);
        // First observation late in a window still tumbles at the
        // absolute boundary.
        r.update(90, 1);
        assert_eq!(r.read(95, AggFunc::Count), 1);
        assert_eq!(r.read(105, AggFunc::Count), 0);
    }

    #[test]
    fn avg_of_empty_window_is_zero() {
        let mut r = WindowRegister::new(10);
        assert_eq!(r.read(5, AggFunc::Avg), 0);
    }

    #[test]
    fn sum_saturates() {
        let mut r = WindowRegister::new(1_000);
        r.update(1, i64::MAX);
        r.update(2, i64::MAX);
        assert_eq!(r.read(3, AggFunc::Sum), i64::MAX);
    }

    #[test]
    fn store_allocates_and_defaults() {
        let mut s = StateStore::new(100);
        s.allocate("avg(price)", 500);
        s.update("avg(price)", 10, 8);
        s.update("count(x)", 10, 1); // implicit register, window 100
        assert_eq!(s.regs.len(), 2);
        assert_eq!(s.read("avg(price)", 400, AggFunc::Avg), 8); // still in 500us window
        assert_eq!(s.read("count(x)", 10, AggFunc::Count), 1);
        assert_eq!(s.read("count(x)", 150, AggFunc::Count), 0); // tumbled
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        WindowRegister::new(0);
    }
}
