//! Hand-unrolled u64×4 lane helpers for the bulk hot path.
//!
//! [`BulkTriangleCounter::process_batch`](crate::bulk::BulkTriangleCounter::process_batch)
//! runs its steps in lane groups built from these helpers, with per-item
//! remainder loops for the tail past the last full group. The helpers are
//! *portable-SIMD-shaped* — fixed-width `[u64; LANES]` groups that a
//! vectorising backend maps onto 256-bit registers — and compile on every
//! target. `tests/lane_equivalence.rs` checks pool sizes with and without a
//! tail against the scalar [`crate::reference::ReferenceBulkCounter`] bit
//! for bit.
//!
//! # Bit-identity contract
//!
//! [`lemire4`] replicates the vendored `rand` crate's bounded-draw formula
//! — `(raw as u128 * span as u128) >> 64`, one raw `u64` per draw — over a
//! lane group, so drawing a group at a time consumes the RNG stream in
//! exactly the order a per-item loop does. Everything else in this module
//! is memory schedule (probe-start prefetching for
//! [`crate::fastmap::FastMap`]) and cannot change results by construction.

/// Lane width of the hand-unrolled hot path: four `u64`s — one 256-bit
/// vector register on AVX2-class hardware, two on 128-bit NEON/SSE.
pub const LANES: usize = 4;

// The helpers below run inside the per-edge batch loops; the region lets
// `tristream-analyze` reject allocating tokens at review time.
// analyze: region(no-alloc)

/// `rand`'s multiply-shift bounded draw (`gen_range(0..span)`) applied to a
/// lane group of raw `u64` draws. Bit-identical per lane to the vendored
/// implementation: `((raw as u128 * span as u128) >> 64) as u64`.
#[inline]
pub fn lemire4(raws: [u64; LANES], span: u64) -> [u64; LANES] {
    debug_assert!(span > 0, "cannot draw from an empty range");
    let mut out = [0u64; LANES];
    for (slot, raw) in out.iter_mut().zip(raws) {
        *slot = ((raw as u128 * span as u128) >> 64) as u64;
    }
    out
}

/// Prefetches the cache line holding `slice[idx]` into all cache levels
/// (x86-64 `PREFETCHT0`; a no-op on other architectures and for
/// out-of-range indices). Purely a scheduling hint — it never faults and
/// never changes an architecturally visible result.
#[inline]
pub fn prefetch_read<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < slice.len() {
        // SAFETY: the pointer is in bounds (checked above), and PREFETCHT0
        // performs no architecturally visible memory access — it cannot
        // fault, write, or alias anything; the intrinsic is hint-only.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(slice.as_ptr().add(idx).cast::<i8>());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}
// analyze: endregion

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    /// An RNG that replays a fixed word — lets each lane's formula be
    /// checked against the vendored `gen_range` one raw value at a time.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn lemire4_matches_the_vendored_gen_range_per_lane() {
        let raws = [0u64, 1, u64::MAX / 3, u64::MAX];
        for span in [1u64, 2, 7, 4096, u64::MAX] {
            let lanes = lemire4(raws, span);
            for (lane, &raw) in raws.iter().enumerate() {
                let expected: u64 = Fixed(raw).gen_range(0..span);
                assert_eq!(lanes[lane], expected, "raw {raw:#x}, span {span}");
                assert!(lanes[lane] < span);
            }
        }
    }

    #[test]
    fn prefetch_is_safe_at_any_index() {
        let data = [1u64, 2, 3];
        for idx in 0..10 {
            prefetch_read(&data, idx);
        }
        prefetch_read::<u64>(&[], 0);
        assert_eq!(data, [1, 2, 3]);
    }
}
