//! Bounded decode memory: a hostile length prefix must not make
//! `WireCodec for Vec<T>` reserve more memory than the frame it arrived
//! in holds. A byte-counting global allocator records the largest single
//! request while one frame decodes.
//!
//! One `#[test]` only: the record is process-global, and sibling tests
//! in the same binary would run on other threads and pollute it.

use simlocal::WireCodec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

#[test]
fn hostile_vec_length_prefix_allocates_at_most_the_frame() {
    // A 1 MiB frame: a `Vec<u64>` length prefix of u32::MAX, then filler
    // that runs out long before u32::MAX elements.
    const FRAME: usize = 1 << 20;
    let mut frame = Vec::with_capacity(FRAME);
    u32::MAX.encode(&mut frame);
    frame.resize(FRAME, 0xab);

    LARGEST.store(0, Ordering::SeqCst);
    let decoded = Vec::<u64>::decode(&mut frame.as_slice());
    let largest = LARGEST.load(Ordering::SeqCst);

    assert_eq!(decoded, None, "the frame holds too few elements");
    assert!(
        largest <= FRAME,
        "decoding a {FRAME}-byte frame allocated {largest} bytes at once"
    );
}
