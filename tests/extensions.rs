//! Integration tests for the extensions beyond the paper's core algorithms:
//! the multi-core sharded counter (§6 follow-up), the shared-pool
//! transitivity estimator, and the command-line front end.

use tristream::graph::exact;
use tristream::prelude::*;

fn workload() -> EdgeStream {
    tristream::gen::holme_kim(500, 4, 0.6, 23)
}

#[test]
fn parallel_counter_matches_truth_and_uses_all_shards() {
    let stream = workload();
    let truth = exact::count_triangles(&Adjacency::from_stream(&stream)) as f64;
    let bulk = find_algo("neighborhood-bulk").expect("registered");
    let mut counter = bulk.build_sharded(&AlgoParams::new(24_000, 7), 6);
    assert_eq!(counter.num_shards(), 6);
    assert_eq!(
        counter.memory_words(),
        6 * BulkTriangleCounter::new(4_000, 7).memory_words(),
        "24,000 estimators, 4,000 per shard"
    );
    for batch in stream.batches(8_192) {
        counter.process_batch(batch);
    }
    assert_eq!(counter.shard_estimates().len(), 6);
    let est = counter.estimate();
    assert!(
        (est - truth).abs() < 0.25 * truth,
        "parallel estimate {est} vs truth {truth}"
    );
}

#[test]
fn shared_pool_transitivity_matches_two_pool_variant() {
    let stream = workload();
    let kappa = exact::transitivity_coefficient(&Adjacency::from_stream(&stream));

    let mut two_pool = TransitivityEstimator::new(15_000, 5);
    two_pool.process_edges(stream.edges());
    let mut shared = TransitivityEstimator::new_shared_pool(15_000, 5);
    shared.process_edges(stream.edges());

    for (name, est) in [
        ("two-pool", two_pool.estimate()),
        ("shared-pool", shared.estimate()),
    ] {
        assert!(
            (est - kappa).abs() < 0.25 * kappa,
            "{name}: kappa-hat {est} vs exact {kappa}"
        );
    }
}

#[test]
fn cli_pipeline_counts_a_generated_file() {
    use tristream_cli::{parse_args, run, Command};

    // Generate a stand-in file through the CLI, then count it two ways.
    let dir = std::env::temp_dir().join("tristream-extension-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("syn3reg.txt");

    let generate = parse_args(&[
        "generate".into(),
        "syn-3-reg".into(),
        "--seed".into(),
        "4".into(),
        "--output".into(),
        path.display().to_string(),
    ])
    .unwrap();
    assert!(run(generate).unwrap().contains("wrote"));

    let exact_out = run(Command::Count {
        input: path.clone(),
        estimators: None,
        batch: None,
        seed: 0,
        parallel: false,
        shards: None,
        algo: Some("exact".into()),
        window: None,
    })
    .unwrap();
    let approx_out = run(Command::Count {
        input: path.clone(),
        estimators: Some(30_000),
        batch: None,
        seed: 11,
        parallel: false,
        shards: None,
        algo: None,
        window: None,
    })
    .unwrap();
    let parallel_out = run(Command::Count {
        input: path,
        estimators: Some(30_000),
        batch: Some(2_048),
        seed: 11,
        parallel: true,
        shards: Some(2),
        algo: None,
        window: None,
    })
    .unwrap();
    assert!(exact_out.contains("(algo = exact"));
    assert!(approx_out.contains("estimated triangle count"));
    assert!(parallel_out.contains("estimated triangle count"));
    assert!(parallel_out.contains("shards = 2"));
}
