//! Equivalence of the bulk kernel with the scalar reference kernel at the
//! prefetch look-ahead boundary.
//!
//! [`BulkTriangleCounter::process_batch`] runs each step as one loop over
//! its items. The Step-2a scan over the batch edges and the Step-2b walk
//! over the listed estimators prefetch the vertex-table slots of the item
//! `PREFETCH_AHEAD = 8` positions on, and run their last eight items with
//! no look-ahead item at all. The scalar kernel is the straight-line
//! per-estimator loop of [`ReferenceBulkCounter`]. They must be
//! **bit-identical** — same RNG consumption order, same estimator states
//! after every batch, same estimate bits — whether a loop ends inside the
//! look-ahead or past it. Pools of `r = 1`, `3`, `4` and `5` list fewer
//! estimators than the look-ahead, `r = 8` at most as many, and `r = 9`
//! up to one more; batches of 1 to 19 edges end on both sides of it in
//! the Step-2a scan. Proptest drives those shapes (plus random `r`) over
//! random streams and random batch splits.

use proptest::prelude::*;
use tristream::core::reference::ReferenceBulkCounter;
use tristream::prelude::*;

/// Strategy: a random small simple graph given as deduplicated endpoint
/// pairs over at most `max_vertex + 1` vertices.
fn random_edge_pairs(max_vertex: u64, max_edges: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..=max_vertex, 0..=max_vertex), 1..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(a, b)| a != b).collect())
}

/// Pool sizes on both sides of the prefetch look-ahead — shorter than it
/// (1, 3, 4, 5), exactly as long (8), one longer (9) — alongside arbitrary
/// sizes (`shape` selects, `random_r` supplies the arbitrary case).
fn lane_remainder_pool_size(shape: usize, random_r: usize) -> usize {
    match shape {
        0 => 1,
        1 => 3,
        2 => 4,
        3 => 5,
        4 => 8,
        5 => 9,
        _ => random_r,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lane_and_scalar_kernels_are_bit_identical_at_every_remainder(
        shape in 0usize..8,
        random_r in 1usize..40,
        pairs in random_edge_pairs(24, 80),
        seed in 0u64..1_000,
        cuts in prop::collection::vec(1usize..20, 1..6),
    ) {
        let r = lane_remainder_pool_size(shape, random_r);
        let stream = EdgeStream::from_pairs_dedup(pairs);
        prop_assume!(!stream.is_empty());
        let mut pooled = BulkTriangleCounter::new(r, seed);
        let mut scalar = ReferenceBulkCounter::new(r, seed);
        let mut start = 0;
        let mut cut = 0;
        while start < stream.len() {
            let size = cuts[cut % cuts.len()].min(stream.len() - start);
            let batch = &stream.edges()[start..start + size];
            start += size;
            cut += 1;
            pooled.process_batch(batch);
            scalar.process_batch(batch);
            // Full state equality after every batch, not just at the end:
            // a divergence that later re-converges by luck must still fail.
            prop_assert!(pooled.validate());
            prop_assert_eq!(pooled.estimators(), scalar.estimators());
            prop_assert_eq!(pooled.edges_seen(), scalar.edges_seen());
        }
        prop_assert_eq!(pooled.raw_estimates(), scalar.raw_estimates());
        prop_assert_eq!(
            TriangleEstimator::estimate(&pooled).to_bits(),
            scalar.estimate().to_bits()
        );
    }
}
