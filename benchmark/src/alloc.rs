//! A counting wrapper around the system allocator.
//!
//! Peak live heap repeats far tighter between identical runs than RSS (which
//! depends on what the kernel and the allocator chose to keep mapped), so it
//! is the benchmark's memory metric; RSS is still reported as a layer
//! metric. All counters are relaxed atomics: they are statistics and
//! publish no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The allocator installed by `main.rs` as `#[global_allocator]`.
pub struct Counting;

#[inline]
fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    TOTAL_BYTES.fetch_add(size as u64, Relaxed);
    TOTAL_ALLOCS.fetch_add(1, Relaxed);
}

// SAFETY: every method forwards the caller's layout and pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counters never
// influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only ever hands out `System`'s
        // pointers.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live block
        // of this allocator and that `new_size` is valid for the alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Bytes currently allocated and not yet freed.
#[cfg(test)]
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Highest value [`live_bytes`] has reached since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Restarts peak tracking from the current live size (between workloads of
/// one `run --workload all`).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// `(bytes requested, allocation calls)` since process start; take deltas.
pub fn totals() -> (u64, u64) {
    (TOTAL_BYTES.load(Relaxed), TOTAL_ALLOCS.load(Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs `Counting` too (main.rs is its crate root).
    // Other tests allocate concurrently, so the block is far larger than
    // anything they hold and the assertions leave them room. It is reserved,
    // never touched, so it costs address space only.
    #[test]
    fn live_and_peak_follow_a_large_block() {
        const BLOCK: usize = 512 << 20;
        const SLACK: usize = 128 << 20;
        let before = live_bytes();
        let (bytes0, allocs0) = totals();
        let block = Vec::<u8>::with_capacity(BLOCK);
        std::hint::black_box(&block);
        assert!(live_bytes() >= before + BLOCK - SLACK);
        assert!(peak_bytes() >= before + BLOCK - SLACK);
        let (bytes1, allocs1) = totals();
        assert!(bytes1 - bytes0 >= BLOCK as u64);
        assert!(allocs1 > allocs0);
        drop(block);
        assert!(live_bytes() <= before + SLACK);
        // The peak outlives the block until it is reset.
        assert!(peak_bytes() >= before + BLOCK - SLACK);
        reset_peak();
        assert!(peak_bytes() <= before + SLACK);
    }
}
