//! The tristream benchmark harness.
//!
//! It drives the two real entry points from outside — the release
//! `tristream-cli count` process on a `.tsb` file, and a `tristream-cli
//! serve` child process on loopback through [`tristream_serve::Client`] —
//! and times each layer only by wrapping calls into that layer's public
//! functions. See `README.md` in this directory for the workloads, the
//! metrics and the layer predictions.

pub mod inputs;
pub mod layers;
pub mod offline;
pub mod procs;
pub mod report;
pub mod serve;
pub mod stats;

use inputs::Dataset;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tristream_baselines::registry::{find_algo, AlgoParams, AlgoSpec};
use tristream_core::{ShardedEstimator, TriangleEstimator};
use tristream_gen::DatasetKind;
use tristream_graph::binary::read_edges_binary_batched_file;
use tristream_serve::SERVE_STREAM_HINT;

/// The registry algorithm every workload runs.
pub const ALGO: &str = "neighborhood-bulk";

/// Engine shards in every workload (the machine this was sized on has
/// two cores).
pub const SHARDS: usize = 2;

/// Dashboard think time between requests in `serve-live`.
pub const THINK: Duration = Duration::from_millis(20);

/// Every `SNAPSHOT_EVERY`-th dashboard request is a SNAPSHOT.
pub const SNAPSHOT_EVERY: u64 = 5;

/// The three workload shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `count` on a `.tsb` file, as a child process.
    OfflineCount,
    /// One connection writing EDGES frames, then one QUERY.
    ServeIngest,
    /// EDGES frames on one connection beside a QUERY/SNAPSHOT dashboard on
    /// another.
    ServeLive,
}

/// How the estimator pool is sized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    /// `count --estimators r`: `ceil(r / shards)` estimators per shard.
    Estimators(usize),
    /// A CREATE word budget, resolved under `SERVE_STREAM_HINT`.
    Budget(u64),
}

fn spec() -> &'static AlgoSpec {
    #[allow(clippy::expect_used)]
    find_algo(ALGO).expect("neighborhood-bulk is registered")
}

impl Recipe {
    /// Total space parameter (estimators across all shards).
    pub fn space(self) -> usize {
        match self {
            Recipe::Estimators(r) => r,
            Recipe::Budget(words) => spec().space_for_budget(
                usize::try_from(words).unwrap_or(usize::MAX),
                &SERVE_STREAM_HINT,
            ),
        }
    }

    /// Estimators per shard.
    pub fn shard_space(self) -> usize {
        self.space().div_ceil(SHARDS)
    }

    /// The smallest CREATE budget that resolves to [`Recipe::space`], so a
    /// served stream can run exactly this recipe.
    pub fn budget_words(self) -> u64 {
        match self {
            Recipe::Budget(words) => words,
            Recipe::Estimators(r) => {
                let resolves = |b: u64| Recipe::Budget(b).space() >= r;
                let (mut lo, mut hi) = (1u64, 1u64);
                while !resolves(hi) {
                    hi *= 2;
                }
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if resolves(mid) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                hi
            }
        }
    }

    /// Builds one shard's estimator exactly as `count --algo --parallel`
    /// and the serve table do.
    pub fn build_shard(self, shard_seed: u64) -> Box<dyn TriangleEstimator + Send> {
        spec().build(&AlgoParams {
            space: self.shard_space(),
            seed: shard_seed,
            window: None,
        })
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Shape.
    pub kind: Kind,
    /// Input stream.
    pub dataset: Dataset,
    /// Edges per batch (`count --batch`) or per EDGES frame.
    pub batch: usize,
    /// Pool sizing.
    pub recipe: Recipe,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "offline-count",
        kind: Kind::OfflineCount,
        dataset: Dataset {
            kind: DatasetKind::LiveJournal,
            scale: 32,
        },
        batch: 65_536,
        recipe: Recipe::Estimators(100_000),
    },
    Workload {
        name: "serve-ingest",
        kind: Kind::ServeIngest,
        dataset: Dataset {
            kind: DatasetKind::Youtube,
            scale: 16,
        },
        batch: 2_048,
        recipe: Recipe::Budget(1 << 14),
    },
    Workload {
        name: "serve-live",
        kind: Kind::ServeLive,
        dataset: Dataset {
            kind: DatasetKind::LiveJournal,
            scale: 32,
        },
        batch: 8_192,
        recipe: Recipe::Budget(1_000_000),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same workload shape on a 3,000-edge stream with a small pool,
    /// for the harness's own tests.
    pub fn tiny(self) -> Workload {
        Workload {
            dataset: Dataset {
                kind: DatasetKind::Syn3Regular,
                scale: 1,
            },
            batch: 256,
            recipe: match self.recipe {
                Recipe::Estimators(_) => Recipe::Estimators(2_000),
                Recipe::Budget(_) => Recipe::Budget(1 << 14),
            },
            ..self
        }
    }
}

/// Everything a run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The `tristream-cli` binary under test.
    pub cli: PathBuf,
    /// Workload.
    pub workload: Workload,
    /// Seed for the inputs and the estimators.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// The reference answer: an in-process [`ShardedEstimator`] built by the
/// same registry recipe and fed the same batches, read from the same
/// `.tsb` file. Returns the estimate and the wall time from engine
/// construction to the synchronised estimate.
pub fn twin(tsb: &Path, w: &Workload, seed: u64) -> Result<(f64, Duration), String> {
    let start = now();
    let mut engine = ShardedEstimator::from_factory(SHARDS, seed, |s| w.recipe.build_shard(s));
    let batches = read_edges_binary_batched_file(tsb, w.batch)
        .map_err(|e| format!("opening {}: {e}", tsb.display()))?;
    engine
        .process_source(batches)
        .map_err(|e| format!("reading {}: {e}", tsb.display()))?;
    let estimate = engine.estimate();
    Ok((estimate, start.elapsed()))
}

/// The harness's clock: every span, round trip and wall time it reports
/// starts with a read here.
pub fn now() -> Instant {
    // analyze: allow(D1, reason = "a benchmark harness measures wall-clock time by design; no estimator state depends on it")
    Instant::now()
}

/// Runs one workload and returns its outcome.
pub fn run(cfg: &RunConfig) -> Result<report::Outcome, String> {
    let input = inputs::load(cfg.workload.dataset, cfg.seed)?;
    let mut outcome = match cfg.workload.kind {
        Kind::OfflineCount => offline::run(cfg, &input)?,
        Kind::ServeIngest | Kind::ServeLive => serve::run(cfg, &input)?,
    };
    outcome.context.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} (available_parallelism {})",
            cfg.workload.name,
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
    );
    outcome.context.insert(1, format!("input {input}"));
    Ok(outcome)
}
