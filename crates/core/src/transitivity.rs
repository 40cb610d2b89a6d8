//! Streaming estimation of the transitivity coefficient — §3.5 of the paper.
//!
//! The transitivity coefficient is `κ(G) = 3τ(G)/ζ(G)` where
//! `ζ(G) = Σ_u C(deg(u), 2)` counts connected triples (wedges). The paper's
//! observation (Claim 3.9) is that `ζ(G) = Σ_e c(e)` for *any* stream order,
//! where `c(e)` is exactly the quantity neighborhood sampling already
//! tracks; so `ζ̃ = m·c` is an unbiased wedge estimate (Lemma 3.10), and
//! running a wedge-estimator pool alongside a triangle-estimator pool gives
//! `κ̂ = 3·τ̂/ζ̂` with the same asymptotic space as triangle counting
//! (Theorem 3.12).

use crate::counter::TriangleCounter;
use tristream_graph::Edge;
use tristream_sample::mean;

/// Streaming estimator for the transitivity coefficient.
///
/// Internally runs two independent estimator pools over the same stream: one
/// aggregated into a triangle-count estimate τ̂ and one into a wedge-count
/// estimate ζ̂ (per Theorem 3.12 the two approximations are combined into
/// κ̂ = 3τ̂/ζ̂).
#[derive(Debug, Clone)]
pub struct TransitivityEstimator {
    triangle_pool: TriangleCounter,
    /// Independent pool used for the wedge estimate.
    wedge_pool: TriangleCounter,
}

impl TransitivityEstimator {
    /// Creates an estimator with `r` estimators in each of the two
    /// independent pools (the configuration Theorem 3.12 analyses).
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn new(r: usize, seed: u64) -> Self {
        Self {
            triangle_pool: TriangleCounter::new(r, seed),
            // A different RNG stream keeps the two pools independent.
            wedge_pool: TriangleCounter::new(r, seed ^ 0xA5A5_A5A5_5A5A_5A5A),
        }
    }

    /// Number of estimators per pool.
    pub fn num_estimators(&self) -> usize {
        self.triangle_pool.num_estimators()
    }

    /// Number of edges observed so far.
    pub fn edges_seen(&self) -> u64 {
        self.triangle_pool.edges_seen()
    }

    /// Processes the next edge through both pools.
    pub fn process_edge(&mut self, edge: Edge) {
        self.triangle_pool.process_edge(edge);
        self.wedge_pool.process_edge(edge);
    }

    /// Processes a whole slice of edges in order.
    pub fn process_edges(&mut self, edges: &[Edge]) {
        for &e in edges {
            self.process_edge(e);
        }
    }

    /// The current triangle-count estimate τ̂.
    pub fn triangle_estimate(&self) -> f64 {
        self.triangle_pool.estimate()
    }

    /// The current wedge-count estimate ζ̂ (Lemma 3.11: the mean of the
    /// per-estimator `m·c` values).
    pub fn wedge_estimate(&self) -> f64 {
        let m = self.wedge_pool.edges_seen();
        let raw: Vec<f64> = self
            .wedge_pool
            .estimators()
            .iter()
            .map(|e| e.wedge_estimate(m))
            .collect();
        mean(&raw)
    }

    /// The transitivity-coefficient estimate κ̂ = 3τ̂/ζ̂.
    ///
    /// Returns 0 when the wedge estimate is 0 (no wedges seen — κ is
    /// undefined, and 0 keeps downstream arithmetic total, matching the
    /// exact counterpart in `tristream-graph`).
    pub fn estimate(&self) -> f64 {
        let zeta = self.wedge_estimate();
        if zeta == 0.0 {
            0.0
        } else {
            3.0 * self.triangle_estimate() / zeta
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tristream_graph::exact::{count_wedges, transitivity_coefficient};
    use tristream_graph::{Adjacency, EdgeStream};

    fn paw_stream() -> EdgeStream {
        // Triangle (1,2,3) plus pendant edge (3,4): κ = 3/5.
        EdgeStream::from_pairs_dedup(vec![(1, 2), (2, 3), (1, 3), (3, 4)])
    }

    #[test]
    #[should_panic]
    fn zero_estimators_panics() {
        let _ = TransitivityEstimator::new(0, 1);
    }

    #[test]
    fn empty_stream_gives_zero() {
        let t = TransitivityEstimator::new(8, 1);
        assert_eq!(t.estimate(), 0.0);
        assert_eq!(t.wedge_estimate(), 0.0);
    }

    #[test]
    fn wedge_estimate_is_accurate_on_a_small_graph() {
        let stream = paw_stream();
        let truth = count_wedges(&Adjacency::from_stream(&stream)) as f64;
        let mut t = TransitivityEstimator::new(6_000, 3);
        t.process_edges(stream.edges());
        let est = t.wedge_estimate();
        assert!((est - truth).abs() < 0.1 * truth, "ζ̂ = {est}, ζ = {truth}");
    }

    #[test]
    fn transitivity_of_the_paw_graph() {
        let stream = paw_stream();
        let truth = 0.6;
        let mut t = TransitivityEstimator::new(8_000, 7);
        t.process_edges(stream.edges());
        assert_eq!(t.num_estimators(), 8_000);
        assert_eq!(t.edges_seen(), 4);
        let est = t.estimate();
        assert!((est - truth).abs() < 0.1, "κ̂ = {est}, κ = {truth}");
    }

    #[test]
    fn transitivity_of_a_clique_is_one() {
        let mut edges = Vec::new();
        for i in 0..7u64 {
            for j in (i + 1)..7 {
                edges.push(Edge::new(i, j));
            }
        }
        let mut t = TransitivityEstimator::new(4_000, 11);
        t.process_edges(&edges);
        let est = t.estimate();
        assert!((est - 1.0).abs() < 0.12, "κ̂ = {est}");
    }

    #[test]
    fn triangle_free_graph_has_zero_transitivity_estimate() {
        let mut t = TransitivityEstimator::new(512, 5);
        for i in 0..30u64 {
            t.process_edge(Edge::new(i, i + 1));
        }
        assert_eq!(t.triangle_estimate(), 0.0);
        assert!(t.wedge_estimate() > 0.0, "the path has wedges");
        assert_eq!(t.estimate(), 0.0);
    }

    #[test]
    fn matches_exact_transitivity_on_a_clustered_random_graph() {
        let stream = tristream_gen::watts_strogatz(300, 4, 0.2, 9);
        let truth = transitivity_coefficient(&Adjacency::from_stream(&stream));
        let mut t = TransitivityEstimator::new(8_000, 13);
        t.process_edges(stream.edges());
        let est = t.estimate();
        assert!(
            (est - truth).abs() < 0.25 * truth,
            "κ̂ = {est}, exact κ = {truth}"
        );
    }
}
