//! A dictionary block past its decode bound is refused from its entry
//! headers alone, before anything is allocated for its names. A counting
//! global allocator measures what the refusal costs; the file holds one
//! test, so nothing else allocates meanwhile.

mod common;

use common::{growing_names, sample_snapshot_v2, with_more_symbols};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use wdpt_store::{decode_snapshot, StoreError};

/// The system allocator, counting the bytes it hands out (relaxed: the
/// count is a statistic and publishes no other data).
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards the caller's layout and pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the count never
// influences what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only hands out `System`'s
        // pointers.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Relaxed);
        // SAFETY: the caller guarantees `ptr` and `layout` describe a live
        // block of this allocator and that `new_size` is valid for the
        // alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_block_past_the_decode_bound_is_refused_before_its_names_are_built() {
    // 20 000 names in about 100 kB, 200 MB of them decoded: the bound is
    // crossed at symbol 3 645, 6.6 MB of names in. Decoding the names up to
    // there allocates 13.5 MB; the walk of the entry headers refuses the
    // block first.
    let n = 20_000;
    let snapshot = with_more_symbols(&sample_snapshot_v2(), 0x01, 0, n as u64, &growing_names(n));
    let before = ALLOCATED.load(Relaxed);
    let err = decode_snapshot(&snapshot).unwrap_err();
    let allocated = ALLOCATED.load(Relaxed) - before;
    match err {
        StoreError::Malformed { section, detail } => {
            assert_eq!(section, "dictionary");
            let past =
                "symbol 3645 takes the names past 6625408 bytes, 64× the block's 103522 bytes";
            assert_eq!(detail, past);
        }
        other => panic!("expected Malformed, got {other}"),
    }
    assert!(
        allocated < 1 << 20,
        "{allocated} bytes allocated before the refusal"
    );
}
