//! Zero-allocation steady state of the bulk hot path.
//!
//! The SoA rewrite's pitch is that per-batch working state is *cleared,
//! not reallocated*: after the scratch has grown to the high-water mark of
//! the batch size in use, `process_batch` must never touch the heap again.
//! This test pins that with a counting global allocator — not a profiler
//! claim, an asserted invariant.
//!
//! This file must stay a dedicated integration-test binary with exactly
//! one `#[test]`: a process has a single `#[global_allocator]`, and any
//! sibling test running on another thread would count its own allocations
//! into the measurement window.

// A global allocator is an `unsafe impl`; the workspace denies
// `unsafe_code` everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tristream::prelude::*;

/// Forwards to the system allocator, counting every allocation path that
/// acquires memory (`alloc`, `alloc_zeroed`, `realloc`).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn bulk_batches_do_not_allocate_in_the_steady_state() {
    // A clustered stream with enough distinct vertices to exercise the
    // degree table, cut into fixed-size batches.
    let stream = tristream::gen::holme_kim(600, 4, 0.4, 9);
    let batches: Vec<&[Edge]> = stream.batches(512).collect();
    assert!(
        batches.len() >= 4,
        "need several batches to warm and measure"
    );

    let mut counter = BulkTriangleCounter::new(256, 7);
    // Warm-up: the first pass over the batches grows the scratch (the
    // vertex table, the per-vertex and per-edge arrays and the occurrence
    // lists to the batch size; the closing-edge table to its r-bounded
    // capacity).
    for batch in &batches {
        counter.process_batch(batch);
    }
    // Steady state: replaying the same batches — same batch size, same
    // vertex universe — must perform zero heap allocations.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..3 {
        for batch in &batches {
            counter.process_batch(batch);
        }
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocations, 0, "steady-state batches must not allocate");
    // The estimate is read after every batch by the sharded engine's
    // workers, so it must not allocate either.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let estimate = counter.estimate();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocations, 0, "estimate() must not allocate");
    assert!(estimate.is_finite() && estimate > 0.0, "{estimate}");
    assert_eq!(
        counter.edges_seen(),
        4 * stream.len() as u64,
        "every replayed batch was ingested"
    );
}
