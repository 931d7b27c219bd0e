//! A counting global allocator for the allocation-guard suites: it counts
//! allocations and keeps the live and peak heap bytes.
//!
//! Counts are kept **per thread**: `cargo test` runs the tests of one
//! binary on parallel threads, and a process-wide counter would charge a
//! measured window with whatever a sibling test allocates meanwhile. The
//! counters are const-initialised `thread_local!` cells without
//! destructors, so reading or bumping them never allocates and never runs
//! lazy initialisation inside the allocator hook.

#![allow(dead_code)] // each suite uses the counters it needs

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations at least this large count as "large" (64 KiB).
pub(crate) const LARGE_BYTES: usize = 64 * 1024;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// `(size, count)`: allocations of at least `size` bytes since `watch`.
    static WATCHED: Cell<(usize, u64)> = const { Cell::new((usize::MAX, 0)) };
    /// `(live, peak)` heap bytes: what this thread allocated minus what it
    /// freed, and the most that ever was since `reset_peak`. A block freed
    /// on another thread than the one that allocated it moves both
    /// threads' counts; the suites that read them measure one thread's
    /// work.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn grow(by: isize) {
    LIVE.with(|c| {
        let (live, peak) = c.get();
        c.set((live + by, peak.max(live + by)));
    });
}

fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    if size >= LARGE_BYTES {
        LARGE_ALLOCS.with(|c| c.set(c.get() + 1));
    }
    WATCHED.with(|c| {
        let (at_least, n) = c.get();
        c.set((at_least, n + u64::from(size >= at_least)));
    });
}

/// Forwards to the system allocator, counting every allocation and every
/// reallocation on the calling thread.
pub(crate) struct CountingAlloc;

// SAFETY: pure pass-through to `System`, which upholds the `GlobalAlloc`
// contract; bumping thread-local counters has no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size() as isize);
        // SAFETY: `layout` is forwarded unchanged from our caller, who
        // guarantees it is valid per the `GlobalAlloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size() as isize);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr`/`layout` come from a matching `alloc` via `System`
        // and `new_size` is forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        // SAFETY: `ptr`/`layout` come from a matching `alloc` via `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
pub(crate) fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations of at least [`LARGE_BYTES`] made so far by the calling thread.
pub(crate) fn large_allocations() -> u64 {
    LARGE_ALLOCS.with(Cell::get)
}

/// Starts counting the calling thread's allocations of at least `bytes`.
pub(crate) fn watch(bytes: usize) {
    WATCHED.with(|c| c.set((bytes, 0)));
}

/// Allocations of at least the watched size since [`watch`]. A buffer the
/// tensor pool hands out was allocated once by the thread that first took
/// it: zero here, counted from before a thread's first step, means no buffer
/// of that size is allocated *or* recycled on it.
pub(crate) fn watched_allocations() -> u64 {
    WATCHED.with(|c| c.get().1)
}

/// Bytes of the buffer the tensor pool hands out for `floats` values: its
/// capacity classes are powers of two.
pub(crate) fn pooled_bytes(floats: usize) -> usize {
    floats.next_power_of_two() * 4
}

/// Heap bytes the calling thread holds: allocated minus freed.
pub(crate) fn live_bytes() -> isize {
    LIVE.with(|c| c.get().0)
}

/// Starts the calling thread's peak over again from what it holds now.
pub(crate) fn reset_peak() {
    LIVE.with(|c| {
        let (live, _) = c.get();
        c.set((live, live));
    });
}

/// The most heap the calling thread has held since [`reset_peak`].
pub(crate) fn peak_bytes() -> isize {
    LIVE.with(|c| c.get().1)
}
