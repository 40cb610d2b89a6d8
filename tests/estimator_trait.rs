//! Cross-crate integration tests for the `TriangleEstimator` abstraction:
//! every registry algorithm must run unchanged through the generic
//! sharded engine, with the single-shard configuration bit-identical to
//! sequential processing — the guarantee that makes `count --parallel`
//! trustworthy for all of them, with or without `--algo`.

use tristream::baselines::registry::{registry, AlgoParams};
use tristream::core::TriangleEstimator;

const SPACE: usize = 96;
const SEED: u64 = 23;
const BATCH: usize = 41;

#[test]
fn single_shard_generic_engine_matches_sequential_processing_for_every_algorithm() {
    // `build_sharded(params, 1)` is what `count --parallel --shards 1` and a
    // one-shard CREATE run; `build(params)` is what `count` runs.
    let stream = tristream::gen::planted_triangles(30, 80, 7);
    for spec in registry() {
        let params = AlgoParams::new(SPACE, SEED);
        let mut sharded = spec.build_sharded(&params, 1);
        let mut sequential = spec.build(&params);
        for batch in stream.batches(BATCH) {
            sharded.process_batch(batch);
            sequential.process_edges(batch);
        }
        assert_eq!(
            TriangleEstimator::estimate(&sharded).to_bits(),
            sequential.estimate().to_bits(),
            "{}: one shard through the engine must equal the sequential run",
            spec.name
        );
        assert_eq!(
            TriangleEstimator::edges_seen(&sharded),
            stream.len() as u64,
            "{}",
            spec.name
        );
        assert_eq!(
            TriangleEstimator::memory_words(&sharded),
            sequential.memory_words(),
            "{}: transport must not change the space accounting",
            spec.name
        );
        assert_eq!(
            TriangleEstimator::estimators_with_triangle(&sharded),
            sequential.estimators_with_triangle(),
            "{}",
            spec.name
        );
        if spec.snapshotable {
            assert_eq!(
                sharded.shard_snapshots().expect("shard snapshot"),
                vec![sequential.snapshot().expect("snapshot")],
                "{}: one shard holds exactly the sequential state",
                spec.name
            );
        }
    }
}

#[test]
fn multi_shard_generic_engine_is_deterministic_and_finite_for_every_algorithm() {
    let stream = tristream::gen::planted_triangles(30, 80, 7);
    for spec in registry() {
        let run = || {
            let mut sharded = spec.build_sharded(&AlgoParams::new(SPACE, SEED), 3);
            for batch in stream.batches(BATCH) {
                sharded.process_batch(batch);
            }
            TriangleEstimator::estimate(&sharded)
        };
        let (a, b) = (run(), run());
        assert!(a.is_finite(), "{}: estimate {a}", spec.name);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{}: sharded estimates must be deterministic per seed",
            spec.name
        );
    }
}
