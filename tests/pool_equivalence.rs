//! Equivalence of the struct-of-arrays bulk pipeline with its references.
//!
//! The SoA rewrite of `BulkTriangleCounter` claims two things:
//!
//! 1. **Bit-identity with the retained pre-pool implementation**
//!    ([`ReferenceBulkCounter`]): both consume the seeded RNG stream in the
//!    same order, so for any seed and any batch boundaries every estimator
//!    ends every batch in exactly the same state. Proptest drives this over
//!    random streams, with and without repeated edges, and random batch
//!    splits, including empty and single-edge batches — on small dense
//!    graphs where every batch meets almost every estimator, and on sparse
//!    ones where a batch misses much of the pool.
//! 2. **Distributional identity with the scalar one-at-a-time state
//!    machine** ([`EstimatorState`] driven by `TriangleCounter`): Theorem
//!    3.5's guarantee. Checked two ways — the state *invariants* (`c =
//!    |N(r₁)|`, `r₂ ∈ N(r₁)`, closer closes the wedge after `r₂`) hold for
//!    every estimator after any random batching, and the per-estimator
//!    outcome distribution (held-triangle frequency, mean `c`) over many
//!    seeds matches one-at-a-time processing.
//!
//! The word-accounting convention for the pooled counter is pinned here
//! too, since it is part of the pool's public contract.

use proptest::prelude::*;
use std::collections::HashMap;
use tristream::core::reference::ReferenceBulkCounter;
use tristream::graph::exact::edge_neighborhood_sizes;
use tristream::prelude::*;
use tristream::sample::mean;

/// Strategy: random endpoint pairs over at most `max_vertex + 1` vertices,
/// self-loops removed. Repeats stay; `EdgeStream::from_pairs_dedup` turns
/// the pairs into a simple graph.
fn random_edge_pairs(max_vertex: u64, max_edges: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..=max_vertex, 0..=max_vertex), 1..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(a, b)| a != b).collect())
}

/// Splits `edges` into batches whose sizes are drawn from `cuts` — batch
/// sizes of 0 (empty batches, which must be no-ops) and 1 (single-edge
/// batches) are deliberately in-distribution.
fn batched<'a>(edges: &'a [Edge], cuts: &[usize]) -> Vec<&'a [Edge]> {
    let mut batches = Vec::new();
    let mut start = 0;
    let mut cut_index = 0;
    while start < edges.len() {
        let size = cuts[cut_index % cuts.len()].min(edges.len() - start);
        batches.push(&edges[start..start + size]);
        start += size;
        cut_index += 1;
        if size == 0 {
            // An empty batch: emit it (it must be a no-op) and force
            // progress with the next cut.
            let forced = cuts[cut_index % cuts.len()].max(1).min(edges.len() - start);
            batches.push(&edges[start..start + forced]);
            start += forced;
            cut_index += 1;
        }
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pooled_and_reference_counters_are_bit_identical_over_random_batchings(
        pairs in random_edge_pairs(24, 80),
        seed in 0u64..1_000,
        cuts in prop::collection::vec(0usize..12, 1..6),
        keep_repeats in 0u8..2,
    ) {
        // Half the cases keep repeated edges, in either orientation, as
        // `.tsb` files and EDGES frames do: a repeat is where the
        // occurrence lists and the wait chains must count every copy.
        let stream = if keep_repeats == 1 {
            EdgeStream::new(pairs.into_iter().map(|(a, b)| Edge::new(a, b)).collect())
        } else {
            EdgeStream::from_pairs_dedup(pairs)
        };
        prop_assume!(!stream.is_empty());
        let mut pooled = BulkTriangleCounter::new(16, seed);
        let mut reference = ReferenceBulkCounter::new(16, seed);
        for batch in batched(stream.edges(), &cuts) {
            pooled.process_batch(batch);
            reference.process_batch(batch);
            // Structural self-check first (bitset/column consistency, the
            // closer ⊆ r2 ⊆ r1 subset chain, scratch-table load), then the
            // full state comparison after every batch, not just at the end:
            // position fields, counters and presence must all agree.
            prop_assert!(pooled.validate());
            prop_assert_eq!(pooled.estimators(), reference.estimators());
            prop_assert_eq!(pooled.edges_seen(), reference.edges_seen());
        }
        prop_assert_eq!(pooled.raw_estimates(), reference.raw_estimates());
        prop_assert_eq!(
            TriangleEstimator::estimate(&pooled).to_bits(),
            reference.estimate().to_bits()
        );
        // The allocation-free sum over held triangles against the mean of
        // the materialised per-estimator estimates.
        prop_assert_eq!(
            pooled.estimate().to_bits(),
            mean(&pooled.raw_estimates()).to_bits()
        );
    }

    #[test]
    fn pooled_and_reference_counters_agree_when_batches_miss_most_estimators(
        pairs in random_edge_pairs(299, 600),
        r in 100usize..400,
        seed in 0u64..1_000,
        cuts in prop::collection::vec(1usize..=64, 1..6),
        keep_repeats in 0u8..2,
    ) {
        // The test above packs 16 estimators onto at most 25 vertices, so
        // nearly every estimator meets nearly every batch. Here a batch of
        // at most 64 edges over a few hundred vertices misses much of a
        // pool of hundreds: the kernel skips those estimators in Step 2b
        // and skips their closing pairs in Step 3, and must still consume
        // the RNG exactly as the reference's walk over every estimator.
        let stream = if keep_repeats == 1 {
            EdgeStream::new(pairs.into_iter().map(|(a, b)| Edge::new(a, b)).collect())
        } else {
            EdgeStream::from_pairs_dedup(pairs)
        };
        prop_assume!(!stream.is_empty());
        let mut pooled = BulkTriangleCounter::new(r, seed);
        let mut reference = ReferenceBulkCounter::new(r, seed);
        for batch in batched(stream.edges(), &cuts) {
            pooled.process_batch(batch);
            reference.process_batch(batch);
            prop_assert!(pooled.validate());
            prop_assert_eq!(pooled.estimators(), reference.estimators());
            prop_assert_eq!(
                pooled.estimate().to_bits(),
                mean(&pooled.raw_estimates()).to_bits()
            );
        }
        prop_assert_eq!(
            TriangleEstimator::estimate(&pooled).to_bits(),
            reference.estimate().to_bits()
        );
    }

    #[test]
    fn pooled_states_satisfy_the_scalar_invariants_after_random_batchings(
        pairs in random_edge_pairs(16, 60),
        seed in 0u64..1_000,
        cuts in prop::collection::vec(0usize..9, 1..5),
    ) {
        // The paper's state invariants, checked against exact per-edge
        // neighborhood sizes — the same checks `tests/property_based.rs`
        // runs for the scalar state machine, here over the SoA pool with
        // empty and single-edge batches in the split distribution.
        let stream = EdgeStream::from_pairs_dedup(pairs);
        prop_assume!(!stream.is_empty());
        let exact_c = edge_neighborhood_sizes(&stream);
        let positions: HashMap<Edge, u64> =
            stream.iter_positioned().map(|(p, e)| (e, p)).collect();

        let mut counter = BulkTriangleCounter::new(8, seed);
        for batch in batched(stream.edges(), &cuts) {
            counter.process_batch(batch);
            prop_assert!(counter.validate());
        }
        prop_assert_eq!(counter.edges_seen(), stream.len() as u64);
        for est in counter.estimators() {
            let r1 = est.r1.expect("non-empty stream yields a level-1 edge");
            prop_assert_eq!(positions[&r1.edge], r1.position);
            prop_assert_eq!(est.c, exact_c[&r1.edge]);
            if let Some(r2) = est.r2 {
                prop_assert!(r2.position > r1.position);
                prop_assert!(r2.edge.is_adjacent(&r1.edge));
            } else {
                prop_assert_eq!(est.c, 0);
            }
            if let Some(closer) = est.closer {
                let r2 = est.r2.expect("closer requires a level-2 edge");
                prop_assert!(closer.position > r2.position);
                prop_assert!(closer.edge.closes_wedge(&r1.edge, &r2.edge));
            }
        }
    }

    #[test]
    fn pooled_memory_accounting_follows_the_word_convention(
        r in 1usize..600,
        pairs in random_edge_pairs(16, 60),
    ) {
        // ARCHITECTURE.md convention: resident sketch state only — ten u64
        // columns plus three presence bitsets per pool, rounded up to
        // 8-byte words; the O(r + w) batch scratch is working memory and
        // must not leak into the accounting (so processing cannot change
        // the number).
        let stream = EdgeStream::from_pairs_dedup(pairs);
        prop_assume!(!stream.is_empty());
        let mut counter = BulkTriangleCounter::new(r, 7);
        let expected_bytes = 10 * r * 8 + 3 * r.div_ceil(64) * 8;
        prop_assert_eq!(counter.estimator_memory_bytes(), expected_bytes);
        let expected_words = expected_bytes.div_ceil(8);
        prop_assert_eq!(TriangleEstimator::memory_words(&counter), expected_words);
        counter.process_batch(stream.edges());
        prop_assert_eq!(TriangleEstimator::memory_words(&counter), expected_words);
    }
}

/// Distribution comparison between the pooled bulk counter (random-ish
/// batching) and the scalar one-at-a-time state machine: over many seeds,
/// the held-triangle frequency and the mean neighborhood counter must
/// agree — Theorem 3.5's distributional identity observed from the outside.
#[test]
fn pooled_bulk_and_one_at_a_time_reach_the_same_state_distribution() {
    let stream = tristream::gen::planted_triangles(12, 30, 5);
    let runs = 1_500u64;
    let batch_sizes = [1usize, 3, 7, stream.len()];

    let mut bulk_held = 0u64;
    let mut bulk_c_sum = 0.0f64;
    let mut single_held = 0u64;
    let mut single_c_sum = 0.0f64;
    for seed in 0..runs {
        let mut bulk = BulkTriangleCounter::new(1, seed);
        bulk.process_stream(stream.edges(), batch_sizes[(seed % 4) as usize]);
        let states = bulk.estimators();
        bulk_held += u64::from(states[0].closer.is_some());
        bulk_c_sum += states[0].c as f64;

        let mut single = TriangleCounter::new(1, seed.wrapping_add(0x9E37_79B9));
        for e in stream.iter() {
            TriangleEstimator::process_edge(&mut single, e);
        }
        let state = &single.estimators()[0];
        single_held += u64::from(state.closer.is_some());
        single_c_sum += state.c as f64;
    }

    let bulk_rate = bulk_held as f64 / runs as f64;
    let single_rate = single_held as f64 / runs as f64;
    assert!(
        (bulk_rate - single_rate).abs() < 0.03,
        "held-triangle frequency: bulk {bulk_rate}, one-at-a-time {single_rate}"
    );
    let bulk_c = bulk_c_sum / runs as f64;
    let single_c = single_c_sum / runs as f64;
    assert!(
        (bulk_c - single_c).abs() < 0.15 * single_c.max(1.0),
        "mean c: bulk {bulk_c}, one-at-a-time {single_c}"
    );
}

#[test]
fn a_pool_holding_no_triangle_estimates_positive_zero_like_the_mean() {
    // A path has wedges but no triangle, so no estimator ever closes one:
    // the sum over held triangles is empty, and it must still give the
    // bits of the mean over r zero estimates.
    let path: Vec<Edge> = (0..200u64).map(|i| Edge::new(i, i + 1)).collect();
    let mut counter = BulkTriangleCounter::new(64, 3);
    assert_eq!(counter.estimate().to_bits(), 0.0f64.to_bits());
    for batch in path.chunks(16) {
        counter.process_batch(batch);
        assert_eq!(counter.estimators_with_triangle(), 0);
        assert_eq!(
            counter.estimate().to_bits(),
            mean(&counter.raw_estimates()).to_bits()
        );
        assert_eq!(counter.estimate().to_bits(), 0.0f64.to_bits());
    }
}
