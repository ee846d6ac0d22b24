//! Work-stealing parallel execution over indexed units.
//!
//! `run_parallel` distributes `f(0..n)` to worker threads through an
//! atomic claim index rather than static chunks, so one slow unit
//! delays only itself. Per-unit panics are caught and surfaced as
//! `UnitPanic` values converted into the caller's error type, instead
//! of aborting the process.
//!
//! The controller uses this for network-wide compiles (Figs. 13/14).
//! Workers are plain threads: the compiler runs in place on whichever
//! thread calls it, so a unit claimed by a worker compiles on that
//! worker, and each worker's allocator arena serves its units for the
//! whole call.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A worker panic while processing unit `unit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct UnitPanic {
    pub unit: usize,
    pub message: String,
}

impl std::fmt::Display for UnitPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked on unit {}: {}", self.unit, self.message)
    }
}

impl std::error::Error for UnitPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Run `f(0..n)` across worker threads with an atomic work-stealing
/// claim index: each worker grabs the next unclaimed unit, so a slow
/// unit delays only itself. Results come back in unit order. Per-unit
/// panics become `E::from(UnitPanic)`.
pub(crate) fn run_parallel<T, E, F>(n: usize, f: F) -> Vec<Result<T, E>>
where
    T: Send,
    E: Send + From<UnitPanic>,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get()).min(n);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Result<T, E>)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let res = catch_unwind(AssertUnwindSafe(|| f(i))).unwrap_or_else(|payload| {
                        Err(E::from(UnitPanic {
                            unit: i,
                            message: panic_message(payload.as_ref()),
                        }))
                    });
                    local.push((i, res));
                }
                results.lock().unwrap().extend(local);
            });
        }
    });
    let mut collected = results.into_inner().unwrap();
    collected.sort_unstable_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_unit_order() {
        let out = run_parallel::<_, UnitPanic, _>(64, |i| Ok(i * 2));
        let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn panics_become_unit_errors() {
        let out = run_parallel::<usize, UnitPanic, _>(8, |i| {
            if i == 3 {
                panic!("boom {i}");
            }
            Ok(i)
        });
        assert_eq!(out[2], Ok(2));
        let err = out[3].as_ref().unwrap_err();
        assert_eq!(err.unit, 3);
        assert!(err.message.contains("boom"));
        assert_eq!(out[7], Ok(7));
    }

    #[test]
    fn zero_units_is_empty() {
        let out = run_parallel::<usize, UnitPanic, _>(0, |_| Ok(0));
        assert!(out.is_empty());
    }
}
