//! A `.tsb` header inside an EDGES frame cannot size the daemon's decode
//! buffer.
//!
//! The embedded stream's header states a record count; until records
//! arrive it is only a claim. A decoder that trusted it would reserve
//! 2^24 edges — 256 MiB of address space — for a 19-byte EDGES payload
//! (stream name `s` plus a header claiming 2^24 records, with no
//! records) before the truncation error came back. This test decodes
//! exactly that payload under a counting global allocator and pins the
//! bytes it requests.
//!
//! Like `tests/alloc_steady_state.rs`, this file must stay a dedicated
//! integration-test binary with exactly one `#[test]`: a process has a
//! single `#[global_allocator]`, and a sibling test on another thread
//! would count its own allocations into the measurement window.

// A global allocator is an `unsafe impl`; the workspace denies
// `unsafe_code` everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tristream_serve::protocol::{ErrorCode, FrameType, Request};

/// Forwards to the system allocator, adding up the bytes every acquiring
/// call (`alloc`, `alloc_zeroed`, `realloc`) asks for.
struct ByteCountingAllocator;

static BYTES_REQUESTED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES_REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES_REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES_REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAllocator = ByteCountingAllocator;

#[test]
fn a_hostile_record_count_allocates_less_than_two_mib() {
    // An empty EDGES payload whose `.tsb` record count (its last 8 bytes)
    // is rewritten to claim 2^24 records.
    let mut payload = Request::Edges {
        name: "s".to_string(),
        edges: Vec::new(),
    }
    .encode_payload()
    .expect("encode");
    let len = payload.len();
    payload[len - 8..].copy_from_slice(&(1u64 << 24).to_le_bytes());
    assert_eq!(len, 19, "a 24-byte frame with its 5-byte header");

    let before = BYTES_REQUESTED.load(Ordering::Relaxed);
    let result = Request::decode(FrameType::Edges.byte(), &payload);
    let requested = BYTES_REQUESTED.load(Ordering::Relaxed) - before;

    let err = result.expect_err("no records behind the claimed count");
    assert_eq!(err.code, ErrorCode::BadEdgePayload);
    assert!(err.message.contains("truncated"), "{err}");
    assert!(
        requested < 2 << 20,
        "decoding a record-less frame requested {requested} bytes"
    );
}
