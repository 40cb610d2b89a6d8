//! Workload construction for the experiment binaries: dataset stand-ins,
//! their exact ground truth, and the environment knobs that control scale.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tristream_gen::{DatasetKind, StandIn};
use tristream_graph::io::{read_edge_list_file, write_edge_list_file};
use tristream_graph::{EdgeStream, GraphSummary};

/// Extra scale-down factor from `TRISTREAM_SCALE` (default 1).
pub fn env_scale_factor() -> u64 {
    std::env::var("TRISTREAM_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(1)
}

/// Number of trials per configuration from `TRISTREAM_TRIALS` (default 5,
/// as in the paper).
pub fn env_trials() -> usize {
    std::env::var("TRISTREAM_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(5)
}

/// Base RNG seed from `TRISTREAM_SEED` (default 1).
pub fn env_seed() -> u64 {
    std::env::var("TRISTREAM_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// A fully prepared workload: the stand-in stream, its exact summary, and
/// the time it took to stream it through the on-disk edge-list reader (the
/// "I/O time" column of Table 3).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which dataset this stands in for.
    pub kind: DatasetKind,
    /// The scale denominator actually applied (dataset default × env factor).
    pub scale_denominator: u64,
    /// The generated edge stream.
    pub stream: EdgeStream,
    /// Exact structural summary (n, m, Δ, τ, ζ, κ, mΔ/τ).
    pub summary: GraphSummary,
    /// Time spent writing + re-reading the stream through the SNAP-style
    /// edge-list codec, measured so experiments can report an I/O column.
    pub io_time: Duration,
}

impl Workload {
    /// The number of edges in the stream.
    pub fn edges(&self) -> usize {
        self.stream.len()
    }
}

/// Generates (or regenerates) the stand-in for `kind`, measures the
/// edge-list I/O round trip, and computes the exact ground truth. The scale
/// comes from the dataset default multiplied by the `TRISTREAM_SCALE`
/// environment knob.
///
/// The round trip goes through a temporary file under
/// `target/experiments/data/`, so the I/O measurement exercises the same
/// code path a user streaming a real SNAP file would.
pub fn load_standin(kind: DatasetKind, seed: u64) -> Workload {
    load_standin_scaled(kind, env_scale_factor(), seed)
}

/// Like [`load_standin`] but with an explicit extra scale-down factor
/// instead of the environment knob (used by tests and ad-hoc tooling).
pub fn load_standin_scaled(kind: DatasetKind, extra_scale: u64, seed: u64) -> Workload {
    let scale = kind
        .default_scale_denominator()
        .saturating_mul(extra_scale.max(1));
    let stand_in = StandIn::generate_scaled(kind, scale, seed);

    // Measure a write + read round trip as the I/O cost. Concurrent calls
    // for the same stand-in are common (parallel test threads each running
    // the bench suite), so the file name is unique per call — process id
    // plus a call counter — and the file is removed after the read; a
    // shared path let one caller read another's half-written file.
    static NEXT_ROUND_TRIP: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT_ROUND_TRIP.fetch_add(1, Ordering::Relaxed);
    let dir = std::path::Path::new("target/experiments/data");
    std::fs::create_dir_all(dir).ok();
    let path = dir.join(format!(
        "{}-x{}-s{}-{}-{unique}.txt",
        kind.slug(),
        scale,
        seed,
        std::process::id()
    ));
    let io_start = Instant::now();
    let stream = match write_edge_list_file(&stand_in.stream, &path)
        .and_then(|_| read_edge_list_file(&path))
    {
        Ok(reread) => reread,
        Err(_) => stand_in.stream.clone(),
    };
    let io_time = io_start.elapsed();
    std::fs::remove_file(&path).ok();

    let summary = GraphSummary::of_stream(&stream);
    Workload {
        kind,
        scale_denominator: scale,
        stream,
        summary,
        io_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_knobs_have_sane_defaults() {
        // The environment is not set in the test runner, so defaults apply.
        assert!(env_scale_factor() >= 1);
        assert!(env_trials() >= 1);
        let _ = env_seed();
    }

    #[test]
    fn load_standin_produces_consistent_ground_truth() {
        // Use the small, full-scale Syn-3-regular dataset to keep this quick.
        let w = load_standin(DatasetKind::Syn3Regular, 3);
        assert_eq!(w.kind, DatasetKind::Syn3Regular);
        assert_eq!(w.summary.edges as usize, w.edges());
        assert_eq!(w.summary.vertices, 2_000);
        assert_eq!(w.summary.max_degree, 3);
        assert!(w.io_time.as_nanos() > 0);
    }
}
