//! Checkpoint/restore contract of the estimator snapshots.
//!
//! Three properties, the first two proptest-driven over random streams,
//! seeds and batch splits:
//!
//! 1. **Round-trip bit-identity** — snapshotting a counter mid-stream,
//!    restoring into a fresh instance, and continuing produces `estimate()`
//!    bits equal to the uninterrupted run, at every batch boundary after
//!    the restore. Holds for the sequential bulk counter and for the
//!    sharded wrapper, and for bulk snapshots written with the retired
//!    level-1 tag 0 as well as the current tag 1.
//! 2. **Corruption totality** — every truncation, any single bit flip, and
//!    section reordering of a valid snapshot surface as a typed
//!    [`SnapshotError`], never a panic. A failed restore leaves a bulk
//!    counter untouched; a sharded one is reported and discarded.
//! 3. **A stable layout** — the bulk meta section is pinned byte for byte,
//!    so `TSS\0` snapshots and the checkpoints that nest them do not move.

use proptest::prelude::*;
use tristream::core::snapshot::SnapshotError;
use tristream::graph::snapshot::{SnapshotReader, SnapshotWriter};
use tristream::prelude::*;

/// Strategy: a random small simple graph given as deduplicated endpoint
/// pairs over at most `max_vertex + 1` vertices.
fn random_edge_pairs(max_vertex: u64, max_edges: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..=max_vertex, 0..=max_vertex), 1..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(a, b)| a != b).collect())
}

fn edges_of(pairs: &[(u64, u64)]) -> Vec<Edge> {
    pairs.iter().map(|&(a, b)| Edge::new(a, b)).collect()
}

/// Splits `edges` into batches whose sizes cycle through `cuts`; size 0
/// (empty batches) is deliberately in-distribution.
fn batched<'a>(edges: &'a [Edge], cuts: &[usize]) -> Vec<&'a [Edge]> {
    let mut batches = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while start < edges.len() {
        let size = cuts[i % cuts.len()].min(edges.len() - start);
        batches.push(&edges[start..start + size]);
        start += size;
        i += 1;
        if size == 0 {
            // Still emit the empty batch, then force progress.
            let step = 1.min(edges.len() - start);
            batches.push(&edges[start..start + step]);
            start += step;
        }
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bulk_snapshot_restore_is_bit_identical(
        pairs in random_edge_pairs(40, 120),
        seed in 0u64..1_000,
        cut_a in 1usize..9,
        cut_b in 0usize..7,
        split in 0usize..6,
    ) {
        prop_assume!(!pairs.is_empty());
        let edges = edges_of(&pairs);
        let batches = batched(&edges, &[cut_a, cut_b]);
        let split = split.min(batches.len());

        let mut uninterrupted = BulkTriangleCounter::new(64, seed);
        let mut snapshotted = BulkTriangleCounter::new(64, seed);
        for batch in &batches[..split] {
            uninterrupted.process_batch(batch);
            snapshotted.process_batch(batch);
        }
        let bytes = snapshotted.to_snapshot().expect("snapshot");
        // Restore into a fresh counter with a *different* seed and
        // configuration: everything must come from the snapshot.
        let mut restored = BulkTriangleCounter::new(1, seed ^ 0xFFFF);
        TriangleEstimator::restore(&mut restored, &bytes).expect("restore");
        prop_assert_eq!(restored.estimate().to_bits(), uninterrupted.estimate().to_bits());
        for batch in &batches[split..] {
            uninterrupted.process_batch(batch);
            restored.process_batch(batch);
            prop_assert_eq!(
                restored.estimate().to_bits(),
                uninterrupted.estimate().to_bits()
            );
        }
        prop_assert_eq!(
            TriangleEstimator::edges_seen(&restored),
            TriangleEstimator::edges_seen(&uninterrupted)
        );
        prop_assert_eq!(
            TriangleEstimator::memory_words(&restored),
            TriangleEstimator::memory_words(&uninterrupted)
        );
    }

    #[test]
    fn every_corruption_is_a_typed_error_never_a_panic(
        pairs in random_edge_pairs(20, 60),
        seed in 0u64..500,
        cut_fraction in 0u32..1_000,
        flip_site in 0u32..1_000,
    ) {
        prop_assume!(!pairs.is_empty());
        let edges = edges_of(&pairs);
        let mut counter = BulkTriangleCounter::new(16, seed);
        counter.process_batch(&edges);
        let bytes = counter.to_snapshot().expect("snapshot");

        // Truncation at any length is an error.
        let cut = (cut_fraction as usize * bytes.len()) / 1_000;
        prop_assert!(BulkTriangleCounter::from_snapshot(&bytes[..cut]).is_err());

        // Any single bit flip is an error (a flipped payload bit trips the
        // section checksum; a flipped framing bit trips the structure).
        let mut flipped = bytes.clone();
        let byte = (flip_site as usize * bytes.len()) / 1_000;
        let bit = flip_site % 8;
        flipped[byte] ^= 1 << bit;
        prop_assert!(BulkTriangleCounter::from_snapshot(&flipped).is_err());
    }
}

/// Offsets in a bulk snapshot's meta section of its aggregation tag and
/// its level-1 tag (the last byte): kind `u8`; `r`, seed and edges seen,
/// `u64`s; aggregation tag `u8`; group count `u64`; level-1 tag `u8`.
const AGGREGATION_TAG_AT: usize = 25;
const LEVEL1_TAG_AT: usize = 34;

/// Rewrites byte `at` of a bulk snapshot's meta section and re-frames the
/// container, so the checksums stay valid.
fn with_meta_byte(bytes: &[u8], at: usize, value: u8) -> Result<Vec<u8>, SnapshotError> {
    let reader = SnapshotReader::parse(bytes)?;
    let mut writer = SnapshotWriter::new();
    for (id, payload) in reader.iter() {
        let mut payload = payload.to_vec();
        if let (tristream::core::snapshot::SEC_META, Some(byte)) = (id, payload.get_mut(at)) {
            *byte = value;
        }
        writer.section(id, &payload)?;
    }
    Ok(writer.finish())
}

/// Rewrites a bulk snapshot's level-1 tag and re-frames the container.
fn with_level1_tag(bytes: &[u8], tag: u8) -> Result<Vec<u8>, SnapshotError> {
    with_meta_byte(bytes, LEVEL1_TAG_AT, tag)
}

#[test]
fn bulk_meta_layout_is_pinned_and_only_the_mean_aggregation_restores() {
    // The meta section of this snapshot as the build that still had a
    // median-of-means mode wrote it: kind 1, r = 8, seed 3, 5 edges seen,
    // aggregation tag 0 (the mean) with group count 0, level-1 tag 1.
    const GOLDEN_META: [u8; 35] = [
        1, // kind: bulk
        8, 0, 0, 0, 0, 0, 0, 0, // r
        3, 0, 0, 0, 0, 0, 0, 0, // construction seed
        5, 0, 0, 0, 0, 0, 0, 0, // edges seen
        0, // aggregation tag: the mean
        0, 0, 0, 0, 0, 0, 0, 0, // group count
        1, // level-1 tag: the geometric-skip walk
    ];
    let mut counter = BulkTriangleCounter::new(8, 3);
    let edges: Vec<Edge> = (0..5u64).map(|i| Edge::new(i, i + 1)).collect();
    counter.process_batch(&edges);
    let bytes = counter.to_snapshot().expect("snapshot");
    let reader = SnapshotReader::parse(&bytes).expect("parse");
    let meta = reader
        .iter()
        .find_map(|(id, payload)| (id == tristream::core::snapshot::SEC_META).then_some(payload))
        .expect("meta section");
    assert_eq!(meta, GOLDEN_META);
    assert_eq!(meta[AGGREGATION_TAG_AT], 0);
    assert_eq!(meta[LEVEL1_TAG_AT], 1);
    assert_eq!(
        with_meta_byte(&bytes, AGGREGATION_TAG_AT, 0).expect("re-framed"),
        bytes,
        "re-framing alone changes no byte"
    );

    // Tag 1 once marked median-of-means; it and every other value are
    // refused, naming the aggregation.
    for tag in [1u8, 2, u8::MAX] {
        let retagged = with_meta_byte(&bytes, AGGREGATION_TAG_AT, tag).expect("re-framed");
        match BulkTriangleCounter::from_snapshot(&retagged) {
            Err(SnapshotError::Incompatible { reason }) => {
                assert!(reason.contains("aggregation"), "tag {tag}: {reason}");
            }
            other => panic!("tag {tag}: expected Incompatible, got {other:?}"),
        }
    }
}

#[test]
fn level1_tags_0_and_1_restore_and_ingest_bit_identically_and_others_are_refused() {
    // Builds that still had a per-estimator level-1 walk wrote tag 0 for
    // `neighborhood-bulk`, and `serve --state-dir` checkpoints hold such
    // snapshots. The tag never described the saved state, so both tags
    // must restore to one counter that draws its later batches the same
    // way.
    let stream = tristream::gen::holme_kim(200, 3, 0.5, 4);
    let (head, tail) = stream.edges().split_at(stream.len() / 2);
    let mut counter = BulkTriangleCounter::new(96, 31);
    for batch in head.chunks(64) {
        counter.process_batch(batch);
    }
    let tag1 = counter.to_snapshot().expect("snapshot");
    let tag0 = with_level1_tag(&tag1, 0).expect("re-framed");
    assert_ne!(tag0, tag1);
    assert_eq!(
        with_level1_tag(&tag1, 1).expect("re-framed"),
        tag1,
        "writers put tag 1"
    );

    let mut from_tag0 = BulkTriangleCounter::from_snapshot(&tag0).expect("tag 0 restores");
    let mut from_tag1 = BulkTriangleCounter::from_snapshot(&tag1).expect("tag 1 restores");
    for batch in tail.chunks(64) {
        from_tag0.process_batch(batch);
        from_tag1.process_batch(batch);
        counter.process_batch(batch);
        assert_eq!(from_tag0.estimators(), from_tag1.estimators());
        assert_eq!(from_tag0.estimators(), counter.estimators());
    }
    assert_eq!(
        from_tag0.estimate().to_bits(),
        from_tag1.estimate().to_bits()
    );
    assert_eq!(
        from_tag0.to_snapshot().expect("snapshot"),
        counter.to_snapshot().expect("snapshot"),
        "a restored tag-0 snapshot is written back as tag 1"
    );
    // Any other tag is a snapshot this build does not understand.
    for tag in [2u8, u8::MAX] {
        let retagged = with_level1_tag(&tag1, tag).expect("re-framed");
        match BulkTriangleCounter::from_snapshot(&retagged) {
            Err(SnapshotError::Incompatible { reason }) => {
                assert!(reason.contains("level-1"), "tag {tag}: {reason}");
            }
            other => panic!("tag {tag}: expected Incompatible, got {other:?}"),
        }
    }
}

#[test]
fn sharded_snapshot_round_trips_through_the_trait() {
    let edges: Vec<Edge> = (0..80u64)
        .flat_map(|i| [Edge::new(i, i + 1), Edge::new(i + 1, i + 3)])
        .collect();
    let mut original = ShardedEstimator::from_factory(3, 7, |s| BulkTriangleCounter::new(24, s));
    original.process_batch(&edges[..90]);
    let bytes = TriangleEstimator::snapshot(&original).expect("snapshot");

    let mut restored = ShardedEstimator::from_factory(3, 999, |s| BulkTriangleCounter::new(24, s));
    TriangleEstimator::restore(&mut restored, &bytes).expect("restore");
    original.process_batch(&edges[90..]);
    restored.process_batch(&edges[90..]);
    assert_eq!(
        TriangleEstimator::estimate(&restored).to_bits(),
        TriangleEstimator::estimate(&original).to_bits()
    );
    assert_eq!(
        TriangleEstimator::edges_seen(&restored),
        TriangleEstimator::edges_seen(&original)
    );
}

#[test]
fn sharded_restore_refuses_a_shard_count_mismatch() {
    let mut a = ShardedEstimator::from_factory(2, 1, |s| BulkTriangleCounter::new(8, s));
    a.process_batch(&[Edge::new(1u64, 2u64)]);
    let bytes = TriangleEstimator::snapshot(&a).expect("snapshot");
    let mut b = ShardedEstimator::from_factory(3, 1, |s| BulkTriangleCounter::new(8, s));
    assert!(matches!(
        TriangleEstimator::restore(&mut b, &bytes),
        Err(SnapshotError::Incompatible { .. })
    ));
}

#[test]
fn a_sharded_restore_refused_by_one_shard_is_an_error_and_the_receiver_is_discarded() {
    // A 2-shard container whose shard-1 section holds a bulk snapshot
    // re-tagged with level-1 tag 2, re-framed so every checksum holds. The
    // container's own checks pass; shard 1 refuses its section, possibly
    // after shard 0 took its own, so the receiver is unspecified and is
    // dropped, as every caller does.
    let edges: Vec<Edge> = (0..40u64).map(|i| Edge::new(i, i + 1)).collect();
    let mut source = ShardedEstimator::from_factory(2, 5, |s| BulkTriangleCounter::new(16, s));
    source.process_batch(&edges[..20]);
    let bytes = TriangleEstimator::snapshot(&source).expect("snapshot");
    let reader = SnapshotReader::parse(&bytes).expect("parse");
    let mut writer = SnapshotWriter::new();
    for (id, payload) in reader.iter() {
        if id == tristream::core::snapshot::SEC_SHARD_BASE + 1 {
            let retagged = with_level1_tag(payload, 2).expect("re-framed shard");
            writer.section(id, &retagged).expect("section");
        } else {
            writer.section(id, payload).expect("section");
        }
    }
    let tampered = writer.finish();

    let mut receiver = ShardedEstimator::from_factory(2, 5, |s| BulkTriangleCounter::new(16, s));
    receiver.process_batch(&edges[..10]);
    match TriangleEstimator::restore(&mut receiver, &tampered) {
        Err(SnapshotError::Incompatible { reason }) => {
            assert!(reason.contains("level-1 strategy tag 2"), "{reason}");
        }
        other => panic!("expected Incompatible, got {other:?}"),
    }
    drop(receiver);

    // The untampered container restores into a fresh receiver.
    let mut fresh = ShardedEstimator::from_factory(2, 5, |s| BulkTriangleCounter::new(16, s));
    TriangleEstimator::restore(&mut fresh, &bytes).expect("restore");
    source.process_batch(&edges[20..]);
    fresh.process_batch(&edges[20..]);
    assert_eq!(
        TriangleEstimator::estimate(&fresh).to_bits(),
        TriangleEstimator::estimate(&source).to_bits()
    );
}

#[test]
fn failed_restore_leaves_the_receiver_unchanged() {
    let edges: Vec<Edge> = (0..30u64).map(|i| Edge::new(i, i + 1)).collect();
    let mut counter = BulkTriangleCounter::new(16, 3);
    counter.process_batch(&edges);
    let before = counter.estimate().to_bits();
    let mut bytes = counter.to_snapshot().expect("snapshot");
    bytes.truncate(bytes.len() / 2);
    assert!(TriangleEstimator::restore(&mut counter, &bytes).is_err());
    assert_eq!(counter.estimate().to_bits(), before);
    assert_eq!(TriangleEstimator::edges_seen(&counter), 30);
}

#[test]
fn estimators_without_snapshot_support_say_so() {
    let counter = TriangleCounter::new(8, 1);
    assert!(!TriangleEstimator::supports_snapshot(&counter));
    assert!(matches!(
        TriangleEstimator::snapshot(&counter),
        Err(SnapshotError::Unsupported { .. })
    ));
    let mut counter = TriangleCounter::new(8, 1);
    assert!(matches!(
        TriangleEstimator::restore(&mut counter, b"anything"),
        Err(SnapshotError::Unsupported { .. })
    ));
}

#[test]
fn snapshot_size_is_proportional_to_memory_words() {
    // The snapshot is the resident sketch (columns + bitsets) plus small
    // fixed overhead (RNG buffer, framing, metadata) — it must never be
    // more than one RNG buffer + a couple of sections beyond the pool.
    let counter = BulkTriangleCounter::new(1_024, 9);
    let bytes = counter.to_snapshot().expect("snapshot");
    let pool_bytes = TriangleEstimator::memory_words(&counter) * 8;
    let fixed_overhead = (4 + 1 + 256) * 8 + 256; // RNG section + framing slack
    assert!(
        bytes.len() >= pool_bytes,
        "snapshot cannot undercut the pool"
    );
    assert!(
        bytes.len() <= pool_bytes + fixed_overhead,
        "snapshot of {} bytes exceeds pool {} + overhead {}",
        bytes.len(),
        pool_bytes,
        fixed_overhead
    );
}
