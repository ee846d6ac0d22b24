//! Heap accounting: a counting `#[global_allocator]` and `VmHWM`.
//!
//! The allocator forwards to the system allocator. Counting is off
//! until [`set_counting`] turns it on, so an untraced run pays one
//! relaxed load per allocation and nothing else; the traced run reads
//! allocation counts, bytes and the live-heap high-water around the
//! calls it times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct CountingAlloc;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let now = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(now, Relaxed);
}

fn on_dealloc(size: usize) {
    // Blocks allocated before counting began may be freed after it:
    // saturate instead of wrapping.
    let _ = LIVE.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(size)));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counters are statistics and guard nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && COUNTING.load(Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && COUNTING.load(Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if COUNTING.load(Relaxed) {
            on_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && COUNTING.load(Relaxed) {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Turn allocation counting on or off (off at start-up).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Counter readings at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapMark {
    pub allocs: u64,
    pub bytes: u64,
    pub live: usize,
}

pub fn mark() -> HeapMark {
    HeapMark { allocs: ALLOCS.load(Relaxed), bytes: BYTES.load(Relaxed), live: LIVE.load(Relaxed) }
}

impl HeapMark {
    /// Allocations and bytes requested since `earlier`.
    pub fn since(&self, earlier: &HeapMark) -> (u64, u64) {
        (self.allocs - earlier.allocs, self.bytes - earlier.bytes)
    }
}

/// Restart the live-heap high-water mark from the current live count.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Live-heap high-water in bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_readable() {
        assert!(peak_rss_mb() > 0.0, "a running process has a nonzero VmHWM");
    }

    #[test]
    fn marks_subtract() {
        let a = HeapMark { allocs: 3, bytes: 100, live: 0 };
        let b = HeapMark { allocs: 10, bytes: 164, live: 0 };
        assert_eq!(b.since(&a), (7, 64));
    }
}
