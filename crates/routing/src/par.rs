//! Work-stealing parallel execution over indexed units.
//!
//! `run_parallel` distributes `f(0..n)` to workers through an atomic
//! claim index rather than static chunks, so one slow unit delays only
//! itself. Per-unit panics are caught and surfaced as `UnitPanic`
//! values converted into the caller's error type, instead of aborting
//! the process.
//!
//! The controller uses this for every network compile (Figs. 13/14),
//! cold or delta. The calling thread is one of the workers: a call
//! spawns `workers − 1` scoped threads beside it, so a single unit runs
//! on the caller with no thread made at all. The compiler runs in place
//! on whichever thread claims a unit, so each worker's allocator arena
//! serves its units for the whole call; what the caller builds, such as
//! a delta cache's long-lived diagrams, stays in the arena it already
//! uses. This is the only place the product crates make threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Run `f(0..n)` across `available_parallelism` workers, the calling
/// thread among them, with an atomic work-stealing claim index: each
/// worker grabs the next unclaimed unit, so a slow unit delays only
/// itself. Results come back in unit order. Per-unit panics become
/// `E::from(UnitPanic)`.
pub(crate) fn run_parallel<T, E, F>(n: usize, f: F) -> Vec<Result<T, E>>
where
    T: Send,
    E: Send + From<UnitPanic>,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get()).min(n);
    let next = AtomicUsize::new(0);
    // Every worker's results, and so the caller's, which gathers them
    // all, fit in `n` slots: sized up front, the buffers allocate the
    // same however the units split among the workers.
    let work = || {
        let mut local = Vec::with_capacity(n);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break local;
            }
            let res = catch_unwind(AssertUnwindSafe(|| f(i))).unwrap_or_else(|payload| {
                Err(E::from(UnitPanic { unit: i, message: panic_message(payload.as_ref()) }))
            });
            local.push((i, res));
        }
    };
    let mut collected = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut all = work();
        for helper in helpers {
            all.extend(helper.join().expect("workers catch their units' panics"));
        }
        all
    });
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

    #[test]
    fn one_unit_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = run_parallel::<_, UnitPanic, _>(1, |_| Ok(std::thread::current().id()));
        assert_eq!(out, vec![Ok(caller)]);
    }

    #[test]
    fn the_caller_is_one_of_at_most_available_parallelism_workers() {
        use std::collections::HashSet;
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;

        let cores = std::thread::available_parallelism().map_or(4, |p| p.get());
        for n in [2, 3, 16, 64] {
            let workers = cores.min(n);
            // The first `workers` units hold their worker until that
            // many have arrived, so each lands on a different worker
            // and every worker is seen; a pool with fewer workers times
            // out instead of hanging.
            let arrived = (Mutex::new(0), Condvar::new());
            let out = run_parallel::<_, UnitPanic, _>(n, |i| {
                if i < workers {
                    let (count, cv) = &arrived;
                    let mut count = count.lock().unwrap();
                    *count += 1;
                    cv.notify_all();
                    let (count, _) = cv
                        .wait_timeout_while(count, Duration::from_secs(10), |c| *c < workers)
                        .unwrap();
                    assert_eq!(*count, workers, "{n} units: only {} workers arrived", *count);
                }
                Ok(std::thread::current().id())
            });
            let ids: HashSet<_> = out.into_iter().map(Result::unwrap).collect();
            assert!(ids.contains(&std::thread::current().id()), "{n} units: caller idle");
            assert_eq!(ids.len(), workers, "{n} units on {cores} cores");
        }
    }
}
