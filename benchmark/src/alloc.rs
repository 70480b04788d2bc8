//! A counting global allocator local to the benchmark, for the `mem.*`
//! layer metrics. It forwards to the system allocator and, only while
//! [`set_counting`] is on (traced units of a traced run), counts calls
//! and bytes per thread. End-to-end metrics are taken with it off, where
//! it costs one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Threads the harness ever runs: the driver, two pump workers, one
/// cubing worker, plus slack. Threads beyond this share the last slot.
const SLOTS: usize = 16;

/// One thread's counters, on its own cache line so the pump workers do
/// not bounce a line between them on every allocation.
#[repr(align(64))]
struct Slot {
    calls: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    calls: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static COUNTERS: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and `Copy`, so reading it never allocates — it
    // is read from inside the allocator.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

pub struct CountingAlloc;

fn count(bytes: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    // `try_with`: a thread that is tearing down its locals still
    // allocates; those few calls go uncounted.
    let _ = MY_SLOT.try_with(|slot| {
        let mut i = slot.get();
        if i == usize::MAX {
            i = NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(SLOTS - 1);
            slot.set(i);
        }
        // A slot has one writer, its thread, so a plain load and store
        // (no locked read-modify-write) loses nothing; a thread past
        // `SLOTS` shares the last slot and may lose a count. Statistics
        // only — they publish no other data — so Relaxed.
        let slot = &COUNTERS[i];
        let calls = slot.calls.load(Ordering::Relaxed) + 1;
        slot.calls.store(calls, Ordering::Relaxed);
        let total = slot.bytes.load(Ordering::Relaxed) + bytes as u64;
        slot.bytes.store(total, Ordering::Relaxed);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting on the side
// touches only atomics and a const-initialised thread-local `Cell`, and
// never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with the
        // same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(calls, bytes)` counted so far, summed over threads.
pub fn totals() -> (u64, u64) {
    COUNTERS.iter().fold((0, 0), |(c, b), slot| {
        (
            c + slot.calls.load(Ordering::Relaxed),
            b + slot.bytes.load(Ordering::Relaxed),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_switched_on() {
        // Other tests allocate concurrently, so only monotonicity and a
        // lower bound are checked.
        set_counting(true);
        let before = totals();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let after = totals();
        set_counting(false);
        assert!(after.0 > before.0);
        assert!(after.1 >= before.1 + 4096);
    }
}
