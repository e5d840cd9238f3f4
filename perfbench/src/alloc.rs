//! A counting global allocator, active only while a trace is recorded.
//!
//! Each allocation (including a `realloc`) bumps a counter of the
//! allocating thread. The span recorder samples that counter when a span
//! opens and closes, so an allocation is charged to the innermost span
//! open on its thread. Allocations on threads that record no spans (the
//! `spawn_engine` thread) go to one process-wide counter instead.
//! Outside a traced run the hook costs one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static UNTRACED_THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static RECORDS_SPANS: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // `try_with` cannot fail for these const-initialised cells (they have
    // no destructor), and never allocates.
    let _ = RECORDS_SPANS.try_with(|own| {
        if own.get() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        } else {
            UNTRACED_THREADS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches no memory the allocation hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts or stops counting. The calling thread becomes the one whose
/// allocations are charged to spans.
pub fn set_counting(on: bool) {
    RECORDS_SPANS.with(|c| c.set(on));
    ENABLED.store(on, Ordering::SeqCst);
}

/// Allocations the calling thread made while counting was on.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made while counting was on by threads that record no spans.
pub fn untraced_thread_allocs() -> u64 {
    UNTRACED_THREADS.load(Ordering::Relaxed)
}
