//! Equivalence of the lane kernel with the scalar reference kernel.
//!
//! The SIMD-shaped hot path ([`BulkTriangleCounter::process_batch`])
//! processes estimators in groups of four with hand-unrolled lane loops and
//! precomputed probe starts, and runs the pool tail past the last full
//! group one estimator at a time. The scalar kernel is the straight-line
//! per-estimator loop of [`ReferenceBulkCounter`]. They must be
//! **bit-identical** — same RNG consumption order, same estimator states
//! after every batch, same estimate bits — for *any* pool size, which is
//! only interesting at the remainder: pools of `r = 1` and `r = 3` never
//! fill a lane group, `r = 4` is exactly one group, `r = 5` is one group
//! plus a one-estimator tail. Proptest drives those shapes (plus random
//! `r`) over random streams and random batch splits.

use proptest::prelude::*;
use tristream::core::reference::ReferenceBulkCounter;
use tristream::prelude::*;

/// Strategy: a random small simple graph given as deduplicated endpoint
/// pairs over at most `max_vertex + 1` vertices.
fn random_edge_pairs(max_vertex: u64, max_edges: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..=max_vertex, 0..=max_vertex), 1..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(a, b)| a != b).collect())
}

/// Pool sizes that exercise every lane-remainder shape — below one lane
/// group (1, 3), exactly one group (4), a group plus a one-estimator tail
/// (5) — alongside arbitrary sizes (`shape` selects, `random_r` supplies
/// the arbitrary case).
fn lane_remainder_pool_size(shape: usize, random_r: usize) -> usize {
    match shape {
        0 => 1,
        1 => 3,
        2 => 4,
        3 => 5,
        _ => random_r,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lane_and_scalar_kernels_are_bit_identical_at_every_remainder(
        shape in 0usize..6,
        random_r in 1usize..40,
        pairs in random_edge_pairs(24, 80),
        seed in 0u64..1_000,
        cuts in prop::collection::vec(1usize..12, 1..6),
    ) {
        let r = lane_remainder_pool_size(shape, random_r);
        let stream = EdgeStream::from_pairs_dedup(pairs);
        prop_assume!(!stream.is_empty());
        let mut lanes = BulkTriangleCounter::new(r, seed);
        let mut scalar = ReferenceBulkCounter::new(r, seed);
        let mut start = 0;
        let mut cut = 0;
        while start < stream.len() {
            let size = cuts[cut % cuts.len()].min(stream.len() - start);
            let batch = &stream.edges()[start..start + size];
            start += size;
            cut += 1;
            lanes.process_batch(batch);
            scalar.process_batch(batch);
            // Full state equality after every batch, not just at the end:
            // a divergence that later re-converges by luck must still fail.
            prop_assert!(lanes.validate());
            prop_assert_eq!(lanes.estimators(), scalar.estimators());
            prop_assert_eq!(lanes.edges_seen(), scalar.edges_seen());
        }
        prop_assert_eq!(lanes.raw_estimates(), scalar.raw_estimates());
        prop_assert_eq!(
            TriangleEstimator::estimate(&lanes).to_bits(),
            scalar.estimate().to_bits()
        );
    }
}
