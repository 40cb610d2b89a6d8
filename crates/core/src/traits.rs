//! The [`TriangleEstimator`] abstraction every streaming triangle counter
//! in this workspace implements.
//!
//! The paper's central claim is *comparative*: neighborhood sampling beats
//! the prior streaming estimators (Buriol et al., Jowhari–Ghodsi,
//! Pagh–Tsourakakis) at equal space. Running that comparison end-to-end
//! requires every algorithm — the paper's own counters in this crate and
//! the baselines in `tristream-baselines` — to speak one interface, so the
//! sharded engine, the CLI, and the benchmark harness can treat "which
//! algorithm" as a runtime parameter instead of a compile-time choice.
//!
//! # Space accounting: `memory_words()`
//!
//! Equal-*space* comparisons need a common memory unit. The convention,
//! used by every implementation and by the `accuracy-<algo>` benchmark
//! family, is:
//!
//! * One **word** is [`BYTES_PER_WORD`] = 8 bytes (one `u64` / one vertex
//!   id).
//! * `memory_words()` reports the algorithm's **resident sketch state**:
//!   fixed-size per-estimator records are counted at their in-memory
//!   `size_of`, dynamic collections (adjacency sets, apex tables, sampling
//!   chains) as *entries × entry size*.
//! * Constant per-instance overhead — the RNG, scalar counters like
//!   `edges_seen`, configuration — is **excluded**: it does not grow with
//!   the space parameter or the stream, so it is noise in an asymptotic
//!   space comparison.
//! * Hash-table load-factor slack and allocator padding are excluded too:
//!   the number is a *portable lower bound* on resident memory, stable
//!   across allocators and hashers, not an RSS measurement.
//!
//! Under this convention a neighborhood-sampling pool reports
//! `r × size_of::<EstimatorState>() / 8` words no matter the stream, while
//! Jowhari–Ghodsi reports `O(r·Δ)` and the exact counter `O(m)` — exactly
//! the contrast of the paper's Table 1/2 discussion.

use tristream_graph::snapshot::SnapshotError;
use tristream_graph::Edge;

/// Bytes per accounting word (one `u64` / one vertex id).
pub const BYTES_PER_WORD: usize = 8;

/// Converts a byte count to accounting words, rounding up.
pub fn words_for_bytes(bytes: usize) -> usize {
    bytes.div_ceil(BYTES_PER_WORD)
}

/// A streaming triangle-count estimator: anything that ingests an edge
/// stream in arrival order and can, at any prefix, report an estimate of
/// the number of triangles among the edges seen.
///
/// The trait is dyn-compatible: `Box<dyn TriangleEstimator + Send>` is the
/// currency of the algorithm registry, the generic
/// [`ShardedEstimator`](crate::ShardedEstimator), and the CLI's
/// `count --algo` path. A blanket impl forwards the trait through `Box`.
///
/// # Contract
///
/// * Implementations are deterministic per construction seed: the same
///   seed and the same edge sequence (same call boundaries for
///   [`process_edges`](Self::process_edges)) produce bit-identical
///   estimates.
/// * [`estimate`](Self::estimate) must return a **finite** value at every
///   prefix — in particular `0.0`, never NaN/∞ from a `0/0` scaling term,
///   before any edge has been seen.
/// * [`process_edges`](Self::process_edges) defaults to edge-at-a-time
///   processing; batch algorithms (Theorem 3.5) override it with their
///   `O(r + w)` bulk path, which must be distributionally identical.
pub trait TriangleEstimator {
    /// Ingests the next edge of the stream.
    fn process_edge(&mut self, edge: Edge);

    /// Ingests a slice of edges in order. The default forwards to
    /// [`process_edge`](Self::process_edge); bulk implementations override
    /// this with their batched path.
    fn process_edges(&mut self, edges: &[Edge]) {
        for &e in edges {
            self.process_edge(e);
        }
    }

    /// The current triangle-count estimate. Always finite; `0.0` on an
    /// empty stream.
    fn estimate(&self) -> f64;

    /// Number of stream edges ingested so far. (Estimators that
    /// deduplicate, like the exact counter, still count every ingested
    /// edge here.)
    fn edges_seen(&self) -> u64;

    /// Resident sketch state in 8-byte words, under the convention
    /// documented at [module level](self).
    fn memory_words(&self) -> usize;

    /// How many estimators currently hold a closed triangle, for the
    /// neighborhood-sampling pools that have such a count (`None`
    /// otherwise). A handful out of `r` warns that the estimate rests on
    /// very few samples.
    fn estimators_with_triangle(&self) -> Option<usize> {
        None
    }

    /// Whether [`snapshot`](Self::snapshot) / [`restore`](Self::restore)
    /// are implemented. Defaults to `false`; the algorithm registry's
    /// `snapshotable` capability flag must agree with this answer (pinned
    /// by a registry test), so callers can refuse checkpoint
    /// configurations up front instead of failing at the first snapshot.
    fn supports_snapshot(&self) -> bool {
        false
    }

    /// Serialize the full estimator state into a versioned `TSS\0`
    /// snapshot container (`tristream_graph::snapshot`). The contract is
    /// bit-exactness: restoring the bytes into a fresh instance and
    /// continuing the stream produces estimates whose `f64` bits equal
    /// the uninterrupted run's. Defaults to
    /// [`SnapshotError::Unsupported`].
    fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        Err(SnapshotError::Unsupported {
            what: "this estimator".to_owned(),
        })
    }

    /// Replace this estimator's state with a previously captured
    /// snapshot. On error a single estimator is left unchanged; a
    /// [`ShardedEstimator`](crate::ShardedEstimator) is unspecified and
    /// must be discarded. Defaults to [`SnapshotError::Unsupported`].
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), SnapshotError> {
        let _ = snapshot;
        Err(SnapshotError::Unsupported {
            what: "this estimator".to_owned(),
        })
    }
}

impl<T: TriangleEstimator + ?Sized> TriangleEstimator for Box<T> {
    fn process_edge(&mut self, edge: Edge) {
        (**self).process_edge(edge);
    }

    fn process_edges(&mut self, edges: &[Edge]) {
        (**self).process_edges(edges);
    }

    fn estimate(&self) -> f64 {
        (**self).estimate()
    }

    fn edges_seen(&self) -> u64 {
        (**self).edges_seen()
    }

    fn memory_words(&self) -> usize {
        (**self).memory_words()
    }

    fn estimators_with_triangle(&self) -> Option<usize> {
        (**self).estimators_with_triangle()
    }

    fn supports_snapshot(&self) -> bool {
        (**self).supports_snapshot()
    }

    fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        (**self).snapshot()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), SnapshotError> {
        (**self).restore(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::TriangleCounter;

    #[test]
    fn words_round_up() {
        assert_eq!(words_for_bytes(0), 0);
        assert_eq!(words_for_bytes(1), 1);
        assert_eq!(words_for_bytes(8), 1);
        assert_eq!(words_for_bytes(9), 2);
        assert_eq!(words_for_bytes(104), 13);
    }

    #[test]
    fn boxed_dispatch_forwards_every_method() {
        let edges = [
            Edge::new(1u64, 2u64),
            Edge::new(2u64, 3u64),
            Edge::new(1u64, 3u64),
        ];
        let mut concrete = TriangleCounter::new(64, 9);
        let mut boxed: Box<dyn TriangleEstimator + Send> = Box::new(TriangleCounter::new(64, 9));
        concrete.process_edge(edges[0]);
        boxed.process_edge(edges[0]);
        TriangleEstimator::process_edges(&mut concrete, &edges[1..]);
        boxed.process_edges(&edges[1..]);
        assert_eq!(boxed.edges_seen(), 3);
        assert_eq!(
            TriangleEstimator::estimate(&concrete).to_bits(),
            boxed.estimate().to_bits()
        );
        assert_eq!(
            TriangleEstimator::memory_words(&concrete),
            boxed.memory_words()
        );
        assert_eq!(
            TriangleEstimator::estimators_with_triangle(&concrete),
            boxed.estimators_with_triangle()
        );
        assert_eq!(
            boxed.estimators_with_triangle(),
            Some(concrete.estimators_with_triangle())
        );
    }
}
