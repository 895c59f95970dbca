//! The memory a round takes: the most heap bytes live from the start of
//! set-up to the end of the timed work, above those live at its start,
//! counted by the global allocator. Unlike the resident set, the count can
//! restart every round, and it leaves out thread stacks, allocator arenas
//! and page rounding, which outweigh what `kv_closed` and `log_contended`
//! allocate. Counting costs every allocation two shared atomic updates, so
//! it is on only between [`start`] and [`stop`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// A counter on a cache line of its own, so that updating one counter
/// does not take the other's line from a thread that only reads it.
#[repr(align(64))]
struct Counter(AtomicIsize);

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated less bytes freed since [`start`]; below 0 when memory
/// from before it is freed.
static LIVE: Counter = Counter(AtomicIsize::new(0));
/// The most `LIVE` has been since [`start`].
static PEAK: Counter = Counter(AtomicIsize::new(0));

/// The system allocator, counting the bytes it has live while counting is
/// on.
pub struct CountingAlloc;

fn grown(bytes: usize) {
    if COUNTING.load(Relaxed) {
        let live = LIVE.0.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        if live > PEAK.0.load(Relaxed) {
            PEAK.0.fetch_max(live, Relaxed);
        }
    }
}

fn shrunk(bytes: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.0.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every call is passed to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grown(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grown(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrunk(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size >= layout.size() {
                grown(new_size - layout.size());
            } else {
                shrunk(layout.size() - new_size);
            }
        }
        moved
    }
}

/// Starts counting from zero.
pub fn start() {
    LIVE.0.store(0, Relaxed);
    PEAK.0.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Stops counting; returns the most bytes live since [`start`], in MB.
pub fn stop() -> f64 {
    COUNTING.store(false, Relaxed);
    PEAK.0.load(Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}
