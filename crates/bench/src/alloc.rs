//! A counting global allocator — the harness's `free -m` substitute.
//!
//! The paper sampled `free -m` during each run (Figures 8 and 15); this
//! allocator tracks live and peak heap bytes exactly and deterministically
//! instead. Binaries opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: smda_bench::alloc::CountingAlloc = smda_bench::alloc::CountingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed allocator that counts live and peak bytes.
pub struct CountingAlloc;

// SAFETY: delegates entirely to `System`; only the counters are added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, the
        // one `System.alloc` asks for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            TOTAL.fetch_add(layout.size(), Ordering::Relaxed);
            let now = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`; `ptr` came from `System` through `alloc`.
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A grow costs new bytes; a shrink allocates nothing new.
            TOTAL.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
            if new_size >= layout.size() {
                let now = CURRENT.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(now, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Live heap bytes right now.
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak heap bytes since the last measured region began.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Cumulative heap bytes ever allocated (monotonic; never decreases on
/// free). Subtract two readings to get the churn of a region.
pub fn total_bytes() -> usize {
    TOTAL.load(Ordering::Relaxed)
}

/// Reset the peak to the current level (call before a measured region).
fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Measure the peak heap growth while running `f`.
///
/// Returns `(result, peak_delta_bytes)`. Meaningful only when
/// [`CountingAlloc`] is installed as the global allocator; otherwise the
/// delta is zero.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = current_bytes();
    reset_peak();
    let out = f();
    let peak = peak_bytes();
    (out, peak.saturating_sub(before))
}

/// Measure cumulative allocation and peak heap growth while running `f`.
///
/// Returns `(result, bytes_allocated, peak_delta_bytes)`. Both deltas are
/// zero when [`CountingAlloc`] is not installed.
pub fn measure_alloc<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let total_before = total_bytes();
    let before = current_bytes();
    reset_peak();
    let out = f();
    (
        out,
        total_bytes().saturating_sub(total_before),
        peak_bytes().saturating_sub(before),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so only the API
    // contract (monotonicity, no panics) is checked here; end-to-end
    // counting is exercised by the smda-bench binary itself.
    #[test]
    fn measure_peak_returns_result() {
        let (v, _) = measure_peak(|| vec![0u8; 1024].len());
        assert_eq!(v, 1024);
    }

    #[test]
    fn counters_are_readable() {
        let _ = current_bytes();
        let _ = peak_bytes();
        reset_peak();
        assert!(peak_bytes() >= current_bytes());
    }
}
