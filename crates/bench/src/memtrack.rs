//! A counting global allocator: live bytes and a resettable high-water
//! mark. The only `unsafe` in the whole workspace; it
//! delegates every operation to the system allocator and only adds atomic
//! counters.

// The one sanctioned exception to the workspace-wide `unsafe_code` deny:
// `GlobalAlloc` is an unsafe trait by definition.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The counting allocator. Install with `#[global_allocator]` (done by
/// `regcube-bench`'s lib).
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let now = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let now = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(now, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Currently live heap bytes.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live volume.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Serializes measurement sections: the counters are process-global, so
/// overlapping measurements (e.g. parallel unit tests) would pollute each
/// other's peaks.
static MEASURE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` and returns its result together with the allocation peak
/// *delta*: how far above the starting live volume the heap grew while
/// `f` ran. This is the "memory usage" number the figure harness reports.
///
/// Measurements are mutually exclusive (a global lock), but allocations
/// from unrelated threads during `f` still count — run figure harnesses
/// single-threaded for clean numbers.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = live_bytes();
    reset_peak();
    let out = f();
    let delta = peak_bytes().saturating_sub(before);
    (out, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests share process-global counters with every other test in
    // the binary, so they use spikes far larger than any concurrent
    // test's allocations and avoid tight upper bounds.
    const SPIKE: usize = 64 << 20; // 64 MiB

    #[test]
    fn peak_tracks_transient_allocations() {
        let (_, delta) = measure_peak(|| {
            let v: Vec<u8> = vec![7; SPIKE];
            drop(v);
            let w: Vec<u8> = vec![7; 1 << 10];
            w.len()
        });
        assert!(
            delta >= SPIKE / 2,
            "peak {delta} missed the {SPIKE}-byte spike"
        );
    }

    #[test]
    fn retained_allocations_count_as_live() {
        // Hold the measurement lock so the other memtrack spikes cannot
        // land inside this window.
        let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = live_bytes();
        let v: Vec<u8> = vec![1; SPIKE];
        assert!(live_bytes() >= before.saturating_add(SPIKE / 2));
        drop(v);
    }

    #[test]
    fn measure_peak_is_composable() {
        let ((), first) = measure_peak(|| {
            let _v: Vec<u8> = vec![0; SPIKE];
        });
        let ((), second) = measure_peak(|| {
            let _v: Vec<u8> = vec![0; 1 << 12];
        });
        assert!(first >= SPIKE / 2);
        assert!(
            second < SPIKE / 2,
            "second measurement ({second}) must not inherit the first peak"
        );
    }
}
