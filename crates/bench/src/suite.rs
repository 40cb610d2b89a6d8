//! The named-workload benchmark suite behind `tristream-cli bench`.
//!
//! Unlike the `table*`/`figure*` binaries (which reproduce the paper's
//! evaluation as prose tables), this suite exists to *record the perf
//! trajectory of the implementation itself*: every workload has a stable
//! name, runs deterministically from one base seed, and lands in the
//! versioned `BENCH.json` schema documented in [`crate::report`]. CI runs
//! the smoke configuration on every push and gates on the accuracy
//! workloads — their `mean_rel_error` is a pure function of the seed, so
//! the gate never flakes on machine speed.
//!
//! Workloads:
//!
//! * `ingest-text` / `ingest-binary` — batched file ingestion of the same
//!   synthetic stream through the SNAP text codec and the `.tsb` binary
//!   codec. The binary-vs-text `edges_per_sec` ratio is the payoff of the
//!   binary format (target: ≥5×).
//! * `hotpath-reference-w{N}` / `hotpath-pooled-w{N}` — the retained
//!   pre-pool bulk counter ([`ReferenceBulkCounter`]) raced against the
//!   SoA-pool [`BulkTriangleCounter`] across batch sizes
//!   `w = 256 … 65536`, sequentially on one thread so the rows isolate the
//!   hot-path rewrite (data layout, scratch reuse, hashing, batched RNG)
//!   from [`ShardedEstimator`] effects. Estimates are asserted bit-identical
//!   per seed while the rows are produced; the latency ratio feeds the
//!   [`hot_path_regressions`](BenchReport::hot_path_regressions) CI gate.
//! * `accuracy-bulk-syn3reg` / `accuracy-parallel-planted` — bulk-counter
//!   estimates against exact ground truth on generator graphs, each with a
//!   documented error bound the CI gate enforces.
//! * `serve-ingest` / `serve-query` — the `tristream-serve` daemon
//!   measured end-to-end over a real loopback socket: EDGES-frame ingest
//!   (framing + protocol decode + engine enqueue + final sync) and QUERY
//!   round trips. The served estimate is checked bit-identical to an
//!   offline twin built by the recipe `docs/PROTOCOL.md` documents, and
//!   the mismatch fraction is the row's gated error (bound 0), so
//!   `bench --check` enforces socket/offline parity.
//! * `snapshot-encode` / `snapshot-restore` — checkpoint mechanics on the
//!   serve engine recipe: a `TSS\0` snapshot is taken mid-stream
//!   (`snapshot-encode` times the serialization and records the container
//!   size in words next to the resident `memory_words()`), restored into
//!   a freshly built engine (`snapshot-restore`), and both runs then
//!   finish the stream. The gated statistic on `snapshot-restore` is the
//!   fraction of trials whose restored run did not finish bit-identical
//!   to the uninterrupted one, with a bound of exactly zero — so
//!   `bench --check` enforces restore bit-parity.
//!
//! [`ShardedEstimator`]: tristream_core::ShardedEstimator
//! [`ReferenceBulkCounter`]: tristream_core::reference::ReferenceBulkCounter

use crate::report::{summarize_workload, BenchReport, WorkloadKind, WorkloadResult};
use crate::trial::run_trials;
use crate::workloads::load_standin_scaled;
use std::path::PathBuf;
use std::time::Instant;
use tristream_baselines::registry::{find_algo, AlgoParams, StreamHint};
use tristream_core::{
    BulkTriangleCounter, ReferenceBulkCounter, ShardedEstimator, TriangleEstimator,
};
use tristream_gen::DatasetKind;
use tristream_graph::binary::{read_edges_binary_batched_file, write_edges_binary_file};
use tristream_graph::io::{read_edge_list_batched_file, write_edge_list_file};
use tristream_graph::{Edge, EdgeStream, GraphError};
use tristream_sample::{salted_seed, splitmix64_next};
use tristream_serve::{Client, CreateStream, Server, SERVE_STREAM_HINT};

/// Documented accuracy bound for `accuracy-bulk-syn3reg` (mean relative
/// error of a `r ≥ 8192` bulk counter on the Syn-3-regular stand-in, where
/// `mΔ/τ = 9`). Empirical mean error is ~1–3%; the bound leaves a wide
/// margin so only real regressions trip the CI gate.
pub const BOUND_BULK_SYN3REG: f64 = 0.15;

/// Documented accuracy bound for `accuracy-parallel-planted` (mean relative
/// error of the sharded parallel counter on a planted-triangle graph).
pub const BOUND_PARALLEL_PLANTED: f64 = 0.25;

/// Documented accuracy bounds for the equal-memory `accuracy-<algo>`
/// head-to-head family (the paper's Table 1/2-style comparison): every
/// registry algorithm runs over the same Syn-3-regular stream with its
/// space parameter sized for the same `memory_words()` budget, and its
/// mean relative error vs the exact count is gated against the bound
/// listed here. The errors are deterministic per seed, so the gate never
/// flakes on machine speed.
///
/// The bounds encode the paper's comparative claim, loosely: neighborhood
/// sampling stays within a few tens of percent at this budget, the
/// small-space baselines are allowed progressively more, and Buriol — whose
/// blind third vertex almost never completes a triangle, the paper's own
/// observation — gets a deliberately lax bound: its row exists to *record*
/// the failure (error ≈ 1.0 when nothing is found, large overshoot when a
/// lucky estimator fires), not to pretend it competes.
/// `sliding` pays an `O(log w)` chain multiplier per estimator, so at
/// equal memory it affords ~`ln m` fewer estimators than the plain
/// counters — its band is accordingly wide (observed ≈ 0.8 at the
/// 4096-word budget).
pub const HEAD_TO_HEAD_BOUNDS: &[(&str, f64)] = &[
    ("neighborhood", 0.35),
    ("neighborhood-bulk", 0.35),
    ("sliding", 2.0),
    ("exact", 0.0),
    ("buriol", 30.0),
    ("jowhari-ghodsi", 0.90),
    ("pagh-tsourakakis", 0.75),
];

/// Configuration of one suite run. Construct via [`BenchConfig::smoke`] or
/// [`BenchConfig::full`], or build a custom one (tests use tiny streams).
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Recorded in the report: `"smoke"` or `"full"` (custom configs may
    /// use any label).
    pub mode: String,
    /// Base RNG seed every workload derives from.
    pub seed: u64,
    /// Timed trials per workload.
    pub trials: usize,
    /// Edges in the synthetic ingest stream.
    pub ingest_edges: usize,
    /// Batch size for the ingest readers.
    pub ingest_batch: usize,
    /// Batch sizes `w` swept by the hot-path workloads; the serve and
    /// snapshot families use the middle one.
    pub engine_batches: Vec<usize>,
    /// Vertices of the Holme–Kim stream the hot-path, serve and snapshot
    /// workloads process.
    pub engine_vertices: u64,
    /// Estimator-pool size (or word budget) for the hot-path, serve and
    /// snapshot workloads.
    pub engine_estimators: usize,
    /// Worker shards for the sharded workloads.
    pub shards: usize,
    /// Estimator-pool size for the accuracy workloads.
    pub accuracy_estimators: usize,
    /// `memory_words()` budget every algorithm in the equal-memory
    /// head-to-head family is sized for.
    pub head_to_head_budget_words: usize,
}

impl BenchConfig {
    /// The CI configuration: full-size ingest comparison (the 1M-edge
    /// stream the ≥5× claim is measured on), all hot-path batch sizes, and
    /// the accuracy gate, but few trials and moderate pools so the whole
    /// run stays in CI budget.
    pub fn smoke(seed: u64) -> Self {
        Self {
            mode: "smoke".into(),
            seed,
            trials: 3,
            ingest_edges: 1_000_000,
            ingest_batch: 65_536,
            engine_batches: vec![256, 1_024, 4_096, 16_384, 65_536],
            engine_vertices: 4_000,
            engine_estimators: 2_048,
            shards: 4,
            accuracy_estimators: 8_192,
            // Deliberately below the exact counter's ~8000-word O(m)
            // adjacency on the head-to-head stream (2·m + n for m = 3000,
            // n = 2000): above that, sparsifying baselines can simply keep
            // the whole graph and the "equal space" comparison is
            // meaningless.
            head_to_head_budget_words: 4_096,
        }
    }

    /// The full configuration: same workloads at five trials with larger
    /// hot-path streams and pools.
    pub fn full(seed: u64) -> Self {
        Self {
            mode: "full".into(),
            trials: 5,
            engine_vertices: 20_000,
            engine_estimators: 4_096,
            accuracy_estimators: 16_384,
            // The head-to-head budget is NOT scaled up with the fuller
            // pools: it must stay below the comparison stream's O(m)
            // adjacency (see `smoke`) for the space constraint to bind.
            ..Self::smoke(seed)
        }
    }
}

/// The synthetic ingest stream: `n` pseudo-random edges over ~a million
/// vertices, deterministic in `seed` (a [`splitmix64_next`] stream —
/// the workspace's one blessed mixer). Duplicates are possible and kept —
/// ingestion measures the codecs, not graph semantics.
pub fn synthetic_ingest_stream(n: usize, seed: u64) -> Vec<Edge> {
    let mut state = salted_seed(seed, 0xD6E8_FEB8_6659_FD93);
    let mut edges = Vec::with_capacity(n);
    while edges.len() < n {
        let a = splitmix64_next(&mut state) & 0xF_FFFF;
        let b = splitmix64_next(&mut state) & 0xF_FFFF;
        if a != b {
            edges.push(Edge::new(a, b));
        }
    }
    edges
}

/// Runs the whole suite and returns the report. Ingest scratch files live
/// under a per-process temp directory that is removed before returning.
pub fn run_suite(config: &BenchConfig) -> Result<BenchReport, GraphError> {
    // One generation feeds the hot-path, serve and snapshot families, so
    // the three row sets measure the same stream by construction.
    let engine_stream = tristream_gen::holme_kim(config.engine_vertices, 5, 0.4, config.seed);
    let mut workloads = Vec::new();
    workloads.extend(ingest_workloads(config)?);
    workloads.extend(hot_path_workloads(config, &engine_stream));
    workloads.extend(accuracy_workloads(config));
    workloads.extend(head_to_head_workloads(config));
    workloads.extend(serve_workloads(config, &engine_stream)?);
    workloads.extend(snapshot_workloads(config, &engine_stream));
    Ok(BenchReport {
        mode: config.mode.clone(),
        seed: config.seed,
        workloads,
    })
}

fn ingest_workloads(config: &BenchConfig) -> Result<Vec<WorkloadResult>, GraphError> {
    let edges = synthetic_ingest_stream(config.ingest_edges, config.seed);
    // Keyed by pid *and* a per-call counter: concurrent `run_suite` calls
    // in one process (parallel test threads) must not share scratch files
    // or delete each other's directory.
    static NEXT_SCRATCH_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let unique = NEXT_SCRATCH_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "tristream-bench-suite-{}-{unique}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)?;
    let result = ingest_workloads_in(config, &edges, &dir);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn ingest_workloads_in(
    config: &BenchConfig,
    edges: &[Edge],
    dir: &std::path::Path,
) -> Result<Vec<WorkloadResult>, GraphError> {
    let text_path: PathBuf = dir.join("ingest.txt");
    let tsb_path: PathBuf = dir.join("ingest.tsb");
    write_edge_list_file(&EdgeStream::new(edges.to_vec()), &text_path)?;
    write_edges_binary_file(edges, &tsb_path)?;

    let mut text_latencies = Vec::with_capacity(config.trials);
    let mut binary_latencies = Vec::with_capacity(config.trials);
    for trial in 0..config.trials {
        // Alternate the order so filesystem cache warmth cannot
        // systematically favour whichever codec runs later in a trial.
        let run_text = |latencies: &mut Vec<f64>| -> Result<(), GraphError> {
            let start = Instant::now();
            let mut seen = 0usize;
            for batch in read_edge_list_batched_file(&text_path, config.ingest_batch)? {
                seen += batch?.len();
            }
            latencies.push(start.elapsed().as_secs_f64());
            assert_eq!(seen, edges.len(), "text reader must cover the stream");
            Ok(())
        };
        let run_binary = |latencies: &mut Vec<f64>| -> Result<(), GraphError> {
            let start = Instant::now();
            let mut seen = 0usize;
            for batch in read_edges_binary_batched_file(&tsb_path, config.ingest_batch)? {
                seen += batch?.len();
            }
            latencies.push(start.elapsed().as_secs_f64());
            assert_eq!(seen, edges.len(), "binary reader must cover the stream");
            Ok(())
        };
        if trial % 2 == 0 {
            run_text(&mut text_latencies)?;
            run_binary(&mut binary_latencies)?;
        } else {
            run_binary(&mut binary_latencies)?;
            run_text(&mut text_latencies)?;
        }
    }

    let summarize = |name: &str, latencies: &[f64]| {
        summarize_workload(
            name,
            WorkloadKind::Ingest,
            edges.len() as u64,
            latencies,
            Some(config.ingest_batch),
            None,
            None,
            None,
        )
    };
    Ok(vec![
        summarize("ingest-text", &text_latencies),
        summarize("ingest-binary", &binary_latencies),
    ])
}

/// The `hot-path` family: the pre-pool reference bulk counter vs the
/// SoA-pool counter, same stream, same seeds, same batch boundaries,
/// sequential on one thread (no engine in the way). Both run the §4
/// geometric-skip level-1 walk. Estimates are asserted
/// bit-identical — the two implementations share one RNG-consumption
/// contract — so the rows measure pure hot-path throughput.
fn hot_path_workloads(config: &BenchConfig, stream: &EdgeStream) -> Vec<WorkloadResult> {
    let edges = stream.edges();
    let r = config.engine_estimators;
    let mut results = Vec::new();
    for &w in &config.engine_batches {
        let mut reference_latencies = Vec::with_capacity(config.trials);
        let mut pooled_latencies = Vec::with_capacity(config.trials);
        for t in 0..config.trials {
            let trial_seed = config.seed.wrapping_add(t as u64);
            let run_reference = |latencies: &mut Vec<f64>| {
                let mut counter = ReferenceBulkCounter::new(r, trial_seed);
                let start = Instant::now();
                counter.process_stream(edges, w);
                let estimate = counter.estimate();
                latencies.push(start.elapsed().as_secs_f64());
                estimate
            };
            let run_pooled = |latencies: &mut Vec<f64>| {
                let mut counter = BulkTriangleCounter::new(r, trial_seed);
                let start = Instant::now();
                counter.process_stream(edges, w);
                let estimate = counter.estimate();
                latencies.push(start.elapsed().as_secs_f64());
                estimate
            };
            // Alternate measurement order so cache warmth cannot
            // systematically favour whichever path runs second.
            let (reference_estimate, pooled_estimate) = if t % 2 == 0 {
                let a = run_reference(&mut reference_latencies);
                (a, run_pooled(&mut pooled_latencies))
            } else {
                let b = run_pooled(&mut pooled_latencies);
                (run_reference(&mut reference_latencies), b)
            };
            assert_eq!(
                reference_estimate.to_bits(),
                pooled_estimate.to_bits(),
                "pooled and reference bulk paths must agree bit-for-bit (w = {w})"
            );
        }
        let summarize = |name: String, latencies: &[f64]| {
            summarize_workload(
                &name,
                WorkloadKind::HotPath,
                edges.len() as u64,
                latencies,
                Some(w),
                None,
                Some(r),
                None,
            )
        };
        results.push(summarize(
            format!("hotpath-reference-w{w}"),
            &reference_latencies,
        ));
        results.push(summarize(format!("hotpath-pooled-w{w}"), &pooled_latencies));
    }
    results
}

fn accuracy_workloads(config: &BenchConfig) -> Vec<WorkloadResult> {
    let r = config.accuracy_estimators;
    let mut results = Vec::new();

    // Bulk counter on the Syn-3-regular stand-in (the paper's Table 1
    // workload: 2000 vertices, 3000 edges, exactly 1000 triangles).
    let syn = load_standin_scaled(DatasetKind::Syn3Regular, 1, config.seed);
    let truth = syn.summary.triangles as f64;
    let summary = run_trials(truth, config.trials, config.seed, |sd| {
        let mut counter = BulkTriangleCounter::new(r, sd);
        counter.process_stream(syn.stream.edges(), 8 * r);
        counter.estimate()
    });
    let latencies: Vec<f64> = summary
        .outcomes
        .iter()
        .map(|o| o.elapsed.as_secs_f64())
        .collect();
    results.push(summarize_workload(
        "accuracy-bulk-syn3reg",
        WorkloadKind::Accuracy,
        syn.edges() as u64,
        &latencies,
        Some(8 * r),
        None,
        Some(r),
        Some((summary.mean_deviation_pct / 100.0, BOUND_BULK_SYN3REG)),
    ));

    // The sharded `count --parallel` recipe on a planted-triangle graph
    // (exact truth by construction).
    let planted = tristream_gen::planted_triangles(400, 1_200, config.seed);
    let truth = 400.0;
    let bulk = find_algo("neighborhood-bulk")
        .unwrap_or_else(|| panic!("neighborhood-bulk is not in the registry"));
    let summary = run_trials(truth, config.trials, config.seed, |sd| {
        let mut counter = bulk.build_sharded(&AlgoParams::new(r, sd), config.shards);
        for batch in planted.edges().chunks(8 * r) {
            counter.process_batch(batch);
        }
        counter.estimate()
    });
    let latencies: Vec<f64> = summary
        .outcomes
        .iter()
        .map(|o| o.elapsed.as_secs_f64())
        .collect();
    results.push(summarize_workload(
        "accuracy-parallel-planted",
        WorkloadKind::Accuracy,
        planted.len() as u64,
        &latencies,
        Some(8 * r),
        Some(config.shards),
        Some(r),
        Some((summary.mean_deviation_pct / 100.0, BOUND_PARALLEL_PLANTED)),
    ));

    results
}

/// The equal-memory head-to-head (the paper's comparative claim as a
/// committed artifact): every registry algorithm, same stream, same
/// `memory_words()` budget, mean relative error vs the exact count. The
/// space parameter comes from each spec's budget heuristic; the *measured*
/// residency after the stream is recorded next to the budget so the
/// report shows how close the equal-space setup landed. `exact` is
/// included as the reference row — its error is 0 by construction and its
/// `memory_words` documents the `O(m)` cost the streaming algorithms
/// avoid.
fn head_to_head_workloads(config: &BenchConfig) -> Vec<WorkloadResult> {
    let syn = load_standin_scaled(DatasetKind::Syn3Regular, 1, config.seed);
    let truth = syn.summary.triangles as f64;
    let stream_edges = syn.stream.edges();
    let hint = StreamHint {
        edges: stream_edges.len() as u64,
        vertices: syn.summary.vertices,
    };
    let budget = config.head_to_head_budget_words;
    let mut results = Vec::new();
    for spec in tristream_baselines::registry() {
        // A missing entry must fail loudly, not default to some lax bound:
        // the gate's promise is that every head-to-head row has a
        // documented, deliberate bound.
        let bound = HEAD_TO_HEAD_BOUNDS
            .iter()
            .find(|(name, _)| *name == spec.name)
            .map(|&(_, bound)| bound)
            .unwrap_or_else(|| {
                panic!(
                    "registry algorithm {:?} has no HEAD_TO_HEAD_BOUNDS entry",
                    spec.name
                )
            });
        let space = spec.space_for_budget(budget, &hint);
        let mut measured_words = 0u64;
        let summary = run_trials(truth, config.trials, config.seed, |sd| {
            let mut estimator = spec.build(&AlgoParams {
                space,
                seed: sd,
                // Whole-stream window, so `sliding` answers the same
                // question as everyone else.
                window: Some(hint.edges),
            });
            estimator.process_edges(stream_edges);
            // Worst case across trials, so the recorded residency covers
            // the same seed population the error statistic averages over
            // (it is seed-dependent for the data-dependent algorithms).
            measured_words = measured_words.max(estimator.memory_words() as u64);
            estimator.estimate()
        });
        let latencies: Vec<f64> = summary
            .outcomes
            .iter()
            .map(|o| o.elapsed.as_secs_f64())
            .collect();
        let mut workload = summarize_workload(
            &format!("accuracy-{}", spec.name),
            WorkloadKind::Accuracy,
            stream_edges.len() as u64,
            &latencies,
            None,
            None,
            Some(space),
            Some((summary.mean_deviation_pct / 100.0, bound)),
        );
        workload.algo = Some(spec.name.to_string());
        workload.memory_words = Some(measured_words);
        workload.budget_words = Some(budget as u64);
        results.push(workload);
    }
    results
}

/// The `serve-*` family: the daemon measured end-to-end over a real
/// loopback socket. Per trial a fresh stream is created with a
/// trial-salted seed, the engine stream is sent as EDGES frames of `w`
/// edges, and a QUERY synchronises — so `serve-ingest` covers framing,
/// protocol decode, engine enqueue and the final sync. A second, separate
/// QUERY times `serve-query` round trips against the resident stream
/// (its `edges` field records the stream size the query answers over).
///
/// The gated statistic on `serve-ingest` is *parity*, not accuracy: the
/// fraction of trials whose served estimate was not bit-identical to the
/// offline twin, with a bound of exactly zero — the daemon must be a
/// transparent transport around the registry engines.
fn serve_workloads(
    config: &BenchConfig,
    stream: &EdgeStream,
) -> Result<Vec<WorkloadResult>, GraphError> {
    let edges = stream.edges();
    // Middle of the hot-path batch sweep: big enough to amortise framing,
    // small enough that each trial sends many frames.
    let w = config.engine_batches[config.engine_batches.len() / 2];
    let shards = config.shards.max(1);
    let algo = "neighborhood-bulk";
    let budget_words = config.engine_estimators as u64;

    let server = Server::bind("127.0.0.1:0").map_err(GraphError::Io)?;
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());
    // Client failures are infrastructure bugs (the daemon is in-process),
    // so they fail the suite loudly rather than skewing the rows.
    let fail =
        |stage: &str, e: &dyn std::fmt::Display| -> ! { panic!("serve workload {stage}: {e}") };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => fail("connect", &e),
    };

    let mut ingest_latencies = Vec::with_capacity(config.trials);
    let mut query_latencies = Vec::with_capacity(config.trials);
    let mut parity_mismatches = 0u32;
    for t in 0..config.trials {
        let trial_seed = config.seed.wrapping_add(t as u64);
        let name = format!("bench-t{t}");
        let mut spec = CreateStream::new(&name, algo);
        spec.seed = trial_seed;
        spec.budget_words = budget_words;
        spec.shards = shards as u16;
        if let Err(e) = client.create_stream(&spec) {
            fail("create", &e);
        }
        let start = Instant::now();
        if let Err(e) = client.send_edges_batched(&name, edges, w) {
            fail("send", &e);
        }
        let reply = match client.query(&name) {
            Ok(reply) => reply,
            Err(e) => fail("query", &e),
        };
        ingest_latencies.push(start.elapsed().as_secs_f64());
        assert_eq!(
            reply.edges,
            edges.len() as u64,
            "the daemon must ingest the whole stream"
        );
        let offline = offline_twin_estimate(algo, trial_seed, budget_words, shards, edges, w);
        if reply.estimate.to_bits() != offline.to_bits() {
            parity_mismatches += 1;
        }
        let start = Instant::now();
        if let Err(e) = client.query(&name) {
            fail("re-query", &e);
        }
        query_latencies.push(start.elapsed().as_secs_f64());
        if let Err(e) = client.delete(&name) {
            fail("delete", &e);
        }
    }
    if let Err(e) = client.shutdown() {
        fail("shutdown", &e);
    }
    match daemon.join() {
        Ok(run_result) => run_result.map_err(GraphError::Io)?,
        Err(_) => panic!("serve workload: daemon thread panicked"),
    }

    let parity_error = f64::from(parity_mismatches) / config.trials.max(1) as f64;
    let mut ingest = summarize_workload(
        "serve-ingest",
        WorkloadKind::Serve,
        edges.len() as u64,
        &ingest_latencies,
        Some(w),
        Some(shards),
        None,
        Some((parity_error, 0.0)),
    );
    ingest.algo = Some(algo.to_string());
    ingest.budget_words = Some(budget_words);
    let mut query = summarize_workload(
        "serve-query",
        WorkloadKind::Serve,
        edges.len() as u64,
        &query_latencies,
        Some(w),
        Some(shards),
        None,
        None,
    );
    query.algo = Some(algo.to_string());
    query.budget_words = Some(budget_words);
    Ok(vec![ingest, query])
}

/// The `snapshot-*` family: checkpoint mechanics on the serve engine
/// recipe. Per trial a fresh engine ingests the front of the stream up to
/// a batch-aligned cut (where the daemon's checkpoint cadence would
/// fire), its `TSS\0` snapshot is timed, the bytes are restored into a
/// freshly built engine, and both engines then finish the stream over the
/// same batch boundaries. The gated statistic on `snapshot-restore` is
/// *parity* with a bound of exactly zero: the fraction of trials whose
/// restored run did not finish bit-identical to the uninterrupted one — a
/// checkpoint must be a perfect continuation, never an approximation.
/// Both rows record the container size (`snapshot_words`) next to the
/// resident `memory_words()` at the cut, so the report shows the
/// serialization overhead a checkpoint pays over the sketch it captures.
fn snapshot_workloads(config: &BenchConfig, stream: &EdgeStream) -> Vec<WorkloadResult> {
    let edges = stream.edges();
    // Same batch size and engine parameters as the serve family, so the
    // snapshot rows describe the checkpoints the daemon actually writes.
    let w = config.engine_batches[config.engine_batches.len() / 2];
    let shards = config.shards.max(1);
    let algo = "neighborhood-bulk";
    let budget_words = config.engine_estimators as u64;
    // The last batch boundary at or before the midpoint — a point the
    // EDGES-cadence checkpointer could genuinely have fired at.
    let cut = ((edges.len() / 2 / w.max(1)).max(1) * w).min(edges.len());

    let mut encode_latencies = Vec::with_capacity(config.trials);
    let mut restore_latencies = Vec::with_capacity(config.trials);
    let mut parity_mismatches = 0u32;
    let mut measured_words = 0u64;
    let mut container_words = 0u64;
    for t in 0..config.trials {
        let trial_seed = config.seed.wrapping_add(t as u64);
        let mut engine = serve_recipe_engine(algo, trial_seed, budget_words, shards);
        for chunk in edges[..cut].chunks(w) {
            engine.process_batch(chunk);
        }
        measured_words = measured_words.max(engine.memory_words() as u64);

        let start = Instant::now();
        let bytes = engine
            .snapshot()
            .unwrap_or_else(|e| panic!("snapshot workload encode: {e}"));
        encode_latencies.push(start.elapsed().as_secs_f64());
        container_words = container_words.max((bytes.len() as u64).div_ceil(8));

        // Restore into a freshly built engine, as crash recovery does.
        let mut restored = serve_recipe_engine(algo, trial_seed, budget_words, shards);
        let start = Instant::now();
        restored
            .restore(&bytes)
            .unwrap_or_else(|e| panic!("snapshot workload restore: {e}"));
        restore_latencies.push(start.elapsed().as_secs_f64());

        for chunk in edges[cut..].chunks(w) {
            engine.process_batch(chunk);
            restored.process_batch(chunk);
        }
        if engine.estimate().to_bits() != restored.estimate().to_bits() {
            parity_mismatches += 1;
        }
    }

    let extras = |workload: &mut WorkloadResult| {
        workload.algo = Some(algo.to_string());
        workload.budget_words = Some(budget_words);
        workload.memory_words = Some(measured_words);
        workload.snapshot_words = Some(container_words);
    };
    let mut encode = summarize_workload(
        "snapshot-encode",
        WorkloadKind::Snapshot,
        cut as u64,
        &encode_latencies,
        Some(w),
        Some(shards),
        None,
        None,
    );
    extras(&mut encode);
    let parity_error = f64::from(parity_mismatches) / config.trials.max(1) as f64;
    let mut restore = summarize_workload(
        "snapshot-restore",
        WorkloadKind::Snapshot,
        edges.len() as u64,
        &restore_latencies,
        Some(w),
        Some(shards),
        None,
        Some((parity_error, 0.0)),
    );
    extras(&mut restore);
    vec![encode, restore]
}

/// Builds the serve engine recipe `docs/PROTOCOL.md` documents for CREATE
/// (`space_for_budget` under [`SERVE_STREAM_HINT`], then the registry's
/// `build_sharded`) — the estimator a CREATE frame with these parameters
/// stands up.
fn serve_recipe_engine(
    algo: &str,
    seed: u64,
    budget_words: u64,
    shards: usize,
) -> ShardedEstimator<Box<dyn TriangleEstimator + Send>> {
    let spec =
        find_algo(algo).unwrap_or_else(|| panic!("algorithm {algo:?} is not in the registry"));
    let budget = usize::try_from(budget_words).unwrap_or(usize::MAX);
    let space = spec.space_for_budget(budget, &SERVE_STREAM_HINT);
    spec.build_sharded(&AlgoParams::new(space, seed), shards)
}

/// The offline twin of a served stream: the [`serve_recipe_engine`], fed
/// the same batch boundaries the EDGES frames carried. Its estimate must
/// match the daemon's bit for bit.
fn offline_twin_estimate(
    algo: &str,
    seed: u64,
    budget_words: u64,
    shards: usize,
    edges: &[Edge],
    w: usize,
) -> f64 {
    let mut twin = serve_recipe_engine(algo, seed, budget_words, shards);
    for chunk in edges.chunks(w) {
        twin.process_batch(chunk);
    }
    twin.estimate()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately tiny configuration so the whole suite runs in a
    /// debug-mode unit test.
    fn tiny_config() -> BenchConfig {
        BenchConfig {
            mode: "test".into(),
            seed: 1,
            trials: 1,
            ingest_edges: 2_000,
            ingest_batch: 256,
            engine_batches: vec![128],
            engine_vertices: 200,
            engine_estimators: 128,
            shards: 2,
            accuracy_estimators: 4_096,
            head_to_head_budget_words: 4_096,
        }
    }

    #[test]
    fn synthetic_stream_is_deterministic_and_sized() {
        let a = synthetic_ingest_stream(1_000, 7);
        let b = synthetic_ingest_stream(1_000, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1_000);
        assert_ne!(a, synthetic_ingest_stream(1_000, 8));
    }

    #[test]
    fn suite_runs_end_to_end_and_passes_its_own_gate() {
        let report = run_suite(&tiny_config()).unwrap();
        // 2 ingest + 2 hot-path (one batch size) + 2 accuracy + 2 serve +
        // 2 snapshot + the equal-memory head-to-head family (one row per
        // registry entry).
        assert_eq!(
            report.workloads.len(),
            10 + tristream_baselines::registry().len()
        );
        for name in [
            "ingest-text",
            "ingest-binary",
            "hotpath-reference-w128",
            "hotpath-pooled-w128",
            "accuracy-bulk-syn3reg",
            "accuracy-parallel-planted",
            "accuracy-neighborhood",
            "accuracy-neighborhood-bulk",
            "accuracy-sliding",
            "accuracy-exact",
            "accuracy-buriol",
            "accuracy-jowhari-ghodsi",
            "accuracy-pagh-tsourakakis",
            "serve-ingest",
            "serve-query",
            "snapshot-encode",
            "snapshot-restore",
        ] {
            let w = report.workload(name).unwrap_or_else(|| {
                panic!("missing workload {name}");
            });
            assert_eq!(w.trials, 1);
            assert!(w.edges > 0);
            assert!(w.p50_latency_secs > 0.0, "{name} must be timed");
        }
        assert!(
            report.gate_failures().is_empty(),
            "accuracy gate must pass: {:?}",
            report
                .workloads
                .iter()
                .filter(|w| w.kind == WorkloadKind::Accuracy)
                .map(|w| (w.name.clone(), w.mean_rel_error))
                .collect::<Vec<_>>()
        );
        assert!(report.speedup("ingest-binary", "ingest-text").is_some());
        assert!(report
            .speedup("hotpath-pooled-w128", "hotpath-reference-w128")
            .is_some());
        // The hot-path family's correctness half (bit-identical estimates)
        // is asserted while the rows are produced; the latency half is a
        // release-mode CI gate, not a debug-build unit-test assertion.
        let pooled = report.workload("hotpath-pooled-w128").unwrap();
        assert_eq!(pooled.kind, WorkloadKind::HotPath);
        assert_eq!(pooled.estimators, Some(128));
        assert_eq!(pooled.batch, Some(128));
    }

    #[test]
    fn accuracy_errors_are_deterministic_per_seed() {
        let config = tiny_config();
        let a = run_suite(&config).unwrap();
        let b = run_suite(&config).unwrap();
        let mut names = vec![
            "accuracy-bulk-syn3reg".to_string(),
            "accuracy-parallel-planted".to_string(),
        ];
        names.extend(
            tristream_baselines::algo_names()
                .iter()
                .map(|n| format!("accuracy-{n}")),
        );
        for name in names {
            assert_eq!(
                a.workload(&name).unwrap().mean_rel_error,
                b.workload(&name).unwrap().mean_rel_error,
                "{name} must not depend on wall clock"
            );
            assert_eq!(
                a.workload(&name).unwrap().memory_words,
                b.workload(&name).unwrap().memory_words,
                "{name} memory must be deterministic too"
            );
        }
    }

    #[test]
    fn head_to_head_bounds_cover_the_registry_exactly() {
        // Adding a registry algorithm without a documented bound must fail
        // this test (and would panic the suite), never silently gate at
        // some default.
        let mut bound_names: Vec<&str> = HEAD_TO_HEAD_BOUNDS.iter().map(|(n, _)| *n).collect();
        bound_names.sort_unstable();
        let mut registry_names = tristream_baselines::algo_names();
        registry_names.sort_unstable();
        assert_eq!(bound_names, registry_names);
    }

    #[test]
    fn head_to_head_rows_record_the_equal_memory_setup() {
        let report = run_suite(&tiny_config()).unwrap();
        let exact = report.workload("accuracy-exact").unwrap();
        assert_eq!(exact.mean_rel_error, Some(0.0), "exact is the truth");
        for spec in tristream_baselines::registry() {
            let row = report.workload(&format!("accuracy-{}", spec.name)).unwrap();
            assert_eq!(row.algo.as_deref(), Some(spec.name));
            assert_eq!(row.budget_words, Some(4_096));
            let words = row.memory_words.expect("measured memory is recorded");
            assert!(words > 0, "{}: zero measured words", spec.name);
            if spec.name != "exact" && spec.name != "buriol" {
                // The heuristic sizing must land in the budget's order of
                // magnitude (buriol's vertex reservoir and exact's O(m)
                // state are the documented outliers).
                assert!(
                    words <= 4_096 * 4,
                    "{}: {words} words blows the 4096-word budget",
                    spec.name
                );
            }
        }
        // The family's reason to exist: at equal memory, neighborhood
        // sampling must beat the blind-vertex baseline outright.
        let neighborhood = report.workload("accuracy-neighborhood-bulk").unwrap();
        let buriol = report.workload("accuracy-buriol").unwrap();
        assert!(
            neighborhood.mean_rel_error.unwrap() < buriol.mean_rel_error.unwrap(),
            "neighborhood {:?} must beat buriol {:?} at equal space",
            neighborhood.mean_rel_error,
            buriol.mean_rel_error
        );
    }

    #[test]
    fn serve_rows_gate_socket_offline_parity_at_zero() {
        let report = run_suite(&tiny_config()).unwrap();
        let ingest = report.workload("serve-ingest").unwrap();
        assert_eq!(ingest.kind, WorkloadKind::Serve);
        assert_eq!(
            ingest.mean_rel_error,
            Some(0.0),
            "served estimates must be bit-identical to the offline twin"
        );
        assert_eq!(ingest.error_bound, Some(0.0), "the parity bound is exact");
        assert_eq!(ingest.algo.as_deref(), Some("neighborhood-bulk"));
        assert!(ingest.batch.is_some() && ingest.shards.is_some());
        let query = report.workload("serve-query").unwrap();
        assert_eq!(query.kind, WorkloadKind::Serve);
        assert!(query.p50_latency_secs > 0.0, "queries must be timed");
    }

    #[test]
    fn snapshot_rows_gate_restore_parity_at_zero() {
        let report = run_suite(&tiny_config()).unwrap();
        let restore = report.workload("snapshot-restore").unwrap();
        assert_eq!(restore.kind, WorkloadKind::Snapshot);
        assert_eq!(
            restore.mean_rel_error,
            Some(0.0),
            "a restored run must finish bit-identical to the uninterrupted one"
        );
        assert_eq!(restore.error_bound, Some(0.0), "the parity bound is exact");
        assert_eq!(restore.algo.as_deref(), Some("neighborhood-bulk"));
        let encode = report.workload("snapshot-encode").unwrap();
        assert_eq!(encode.kind, WorkloadKind::Snapshot);
        assert!(
            encode.mean_rel_error.is_none(),
            "only the restore row carries the parity gate"
        );
        // Both rows describe the same checkpoint: its container size next
        // to the resident sketch it captured.
        for row in [encode, restore] {
            let words = row.snapshot_words.expect("container size is recorded");
            let resident = row.memory_words.expect("resident words are recorded");
            assert!(words > 0 && resident > 0, "{}: empty sizes", row.name);
        }
        // The snapshot covers the front of the stream, the parity statement
        // covers all of it.
        assert!(encode.edges > 0 && encode.edges < restore.edges);
    }

    #[test]
    fn smoke_and_full_configs_are_ci_shaped() {
        let smoke = BenchConfig::smoke(1);
        assert_eq!(smoke.mode, "smoke");
        assert_eq!(smoke.ingest_edges, 1_000_000, "the ≥5x claim is 1M edges");
        assert_eq!(
            smoke.engine_batches,
            vec![256, 1_024, 4_096, 16_384, 65_536]
        );
        let full = BenchConfig::full(1);
        assert_eq!(full.mode, "full");
        assert!(full.trials > smoke.trials);
        assert_eq!(full.ingest_edges, smoke.ingest_edges);
    }
}
