//! Multi-estimator streaming triangle counting (Theorems 3.3 and 3.4).
//!
//! [`TriangleCounter`] keeps `r` independent [`EstimatorState`]s and advances
//! all of them on every arriving edge — the straightforward `O(m·r)`-time
//! implementation the paper describes before introducing bulk processing
//! (§3.3). Use [`crate::bulk::BulkTriangleCounter`] for large streams; this
//! type remains the reference implementation the bulk version is tested
//! against, and is perfectly adequate for moderate `r`.
//!
//! [`TriangleCounter::estimate`] is the plain average of Theorem 3.3, whose
//! sufficient `r` is `(6/ε²)(mΔ/τ)ln(2/δ)`. The Theorem 3.4 aggregation —
//! group the estimators, average within groups, take the median of the
//! group means — is [`tristream_sample::median_of_means`] applied to
//! [`TriangleCounter::raw_estimates`]. Its sufficient `r` is governed by the
//! tangle coefficient γ(G), which is often far smaller than 2Δ
//! ([`crate::theory::sufficient_estimators_tangle`]).

use crate::estimator::EstimatorState;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tristream_graph::Edge;
use tristream_sample::mean;

/// Streaming triangle counter built from `r` neighborhood-sampling
/// estimators, processing edges one at a time.
#[derive(Debug, Clone)]
pub struct TriangleCounter {
    estimators: Vec<EstimatorState>,
    edges_seen: u64,
    rng: SmallRng,
}

impl TriangleCounter {
    /// Creates a counter with `r` estimators, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn new(r: usize, seed: u64) -> Self {
        assert!(r > 0, "at least one estimator is required");
        Self {
            estimators: vec![EstimatorState::new(); r],
            edges_seen: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Number of estimators `r`.
    pub fn num_estimators(&self) -> usize {
        self.estimators.len()
    }

    /// Number of edges observed so far (`m`).
    pub fn edges_seen(&self) -> u64 {
        self.edges_seen
    }

    /// Read-only view of the estimator states (used by the sampler, the
    /// transitivity estimator and the test suites).
    pub fn estimators(&self) -> &[EstimatorState] {
        &self.estimators
    }

    /// Processes the next edge of the stream through every estimator.
    pub fn process_edge(&mut self, edge: Edge) {
        self.edges_seen += 1;
        let position = self.edges_seen;
        for est in &mut self.estimators {
            est.process_edge(&mut self.rng, edge, position);
        }
    }

    /// Processes a whole slice of edges (order preserved).
    pub fn process_edges(&mut self, edges: &[Edge]) {
        for &e in edges {
            self.process_edge(e);
        }
    }

    /// Per-estimator unbiased triangle estimates (Lemma 3.2).
    pub fn raw_estimates(&self) -> Vec<f64> {
        self.estimators
            .iter()
            .map(|e| e.triangle_estimate(self.edges_seen))
            .collect()
    }

    /// The triangle-count estimate: the mean of the per-estimator
    /// estimates (Theorem 3.3).
    pub fn estimate(&self) -> f64 {
        mean(&self.raw_estimates())
    }

    /// Number of estimators currently holding a triangle — a cheap health
    /// indicator: if this is 0 the estimate is 0 and more estimators (or more
    /// stream) are needed.
    pub fn estimators_with_triangle(&self) -> usize {
        self.estimators.iter().filter(|e| e.has_triangle()).count()
    }

    /// Words of [`EstimatorState`] one estimator costs — the sizing unit
    /// the algorithm registry uses for equal-memory comparisons.
    pub fn words_per_estimator() -> usize {
        crate::traits::words_for_bytes(std::mem::size_of::<EstimatorState>())
    }
}

impl crate::traits::TriangleEstimator for TriangleCounter {
    fn process_edge(&mut self, edge: Edge) {
        TriangleCounter::process_edge(self, edge);
    }

    fn process_edges(&mut self, edges: &[Edge]) {
        TriangleCounter::process_edges(self, edges);
    }

    fn estimate(&self) -> f64 {
        TriangleCounter::estimate(self)
    }

    fn edges_seen(&self) -> u64 {
        TriangleCounter::edges_seen(self)
    }

    /// `r` fixed-size [`EstimatorState`]s — the `O(r)` space of Theorem 3.3.
    fn memory_words(&self) -> usize {
        self.estimators.len() * Self::words_per_estimator()
    }

    fn estimators_with_triangle(&self) -> Option<usize> {
        Some(TriangleCounter::estimators_with_triangle(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tristream_graph::exact::count_triangles;
    use tristream_graph::{Adjacency, EdgeStream};

    fn complete_graph_edges(n: u64) -> Vec<Edge> {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push(Edge::new(i, j));
            }
        }
        edges
    }

    #[test]
    #[should_panic]
    fn zero_estimators_panics() {
        let _ = TriangleCounter::new(0, 1);
    }

    #[test]
    fn empty_stream_estimates_zero() {
        let c = TriangleCounter::new(16, 3);
        assert_eq!(c.estimate(), 0.0);
        assert_eq!(c.edges_seen(), 0);
        assert_eq!(c.estimators_with_triangle(), 0);
    }

    #[test]
    fn triangle_free_stream_estimates_zero() {
        let mut c = TriangleCounter::new(64, 3);
        for i in 0..50u64 {
            c.process_edge(Edge::new(i, i + 1));
        }
        assert_eq!(c.estimate(), 0.0);
        assert_eq!(c.estimators_with_triangle(), 0);
    }

    #[test]
    fn counts_k6_accurately_with_enough_estimators() {
        let edges = complete_graph_edges(6);
        let truth = 20.0;
        let mut c = TriangleCounter::new(6_000, 17);
        c.process_edges(&edges);
        let est = c.estimate();
        assert!(
            (est - truth).abs() < 0.1 * truth,
            "estimate {est}, truth {truth}"
        );
        assert!(c.estimators_with_triangle() > 0);
    }

    #[test]
    fn accuracy_improves_with_more_estimators() {
        // Compare the error distribution of a small pool vs a large pool on
        // the same stream, averaged over seeds to dodge luck.
        let stream = tristream_gen::planted_triangles(40, 120, 3);
        let truth = 40.0;
        let mut err_small = 0.0;
        let mut err_large = 0.0;
        for seed in 0..6u64 {
            let mut small = TriangleCounter::new(200, seed);
            let mut large = TriangleCounter::new(8_000, seed);
            for e in stream.iter() {
                small.process_edge(e);
                large.process_edge(e);
            }
            err_small += (small.estimate() - truth).abs() / truth;
            err_large += (large.estimate() - truth).abs() / truth;
        }
        assert!(
            err_large < err_small,
            "large pool error {err_large} should beat small pool {err_small}"
        );
    }

    #[test]
    fn estimate_is_unbiased_across_seeds() {
        // The mean over many independent counters must approach the truth
        // even when each counter is small.
        let stream = EdgeStream::from_pairs_dedup(vec![
            (1, 2),
            (2, 3),
            (1, 3),
            (3, 4),
            (4, 5),
            (3, 5),
            (1, 5),
        ]);
        let truth = count_triangles(&Adjacency::from_stream(&stream)) as f64;
        let runs = 600u64;
        let mut sum = 0.0;
        for seed in 0..runs {
            let mut c = TriangleCounter::new(32, seed);
            for e in stream.iter() {
                c.process_edge(e);
            }
            sum += c.estimate();
        }
        let mean_est = sum / runs as f64;
        assert!(
            (mean_est - truth).abs() < 0.15 * truth,
            "mean over runs {mean_est}, truth {truth}"
        );
    }

    #[test]
    fn median_of_means_is_accurate_when_groups_are_large_enough() {
        // Theorem 3.4 sizes each group so its mean is within ε·τ with
        // constant probability; with amply-sized groups both aggregations
        // must land near the truth on a triangle-rich stream.
        let stream = tristream_gen::planted_triangles(100, 200, 3);
        let truth = 100.0;
        let mut c = TriangleCounter::new(10_000, 11);
        for e in stream.iter() {
            c.process_edge(e);
        }
        let mom = tristream_sample::median_of_means(&c.raw_estimates(), 5);
        let plain = c.estimate();
        assert!(
            (plain - truth).abs() < 0.3 * truth,
            "plain {plain}, truth {truth}"
        );
        assert!(
            (mom - truth).abs() < 0.4 * truth,
            "median-of-means {mom}, truth {truth}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let edges = complete_graph_edges(8);
        let mut a = TriangleCounter::new(100, 5);
        let mut b = TriangleCounter::new(100, 5);
        a.process_edges(&edges);
        b.process_edges(&edges);
        assert_eq!(a.estimate(), b.estimate());
        let mut c = TriangleCounter::new(100, 6);
        c.process_edges(&edges);
        // Different seed will almost surely differ (not a hard guarantee, but
        // with 100 estimators on K8 the probability of an exact tie is tiny).
        assert_ne!(a.estimate().to_bits(), c.estimate().to_bits());
    }
}
