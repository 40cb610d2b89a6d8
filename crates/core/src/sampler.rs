//! Uniform triangle sampling — §3.4 of the paper (`unifTri`, Lemma 3.7,
//! Theorem 3.8).
//!
//! A single neighborhood-sampling estimator holds triangle `t*` with
//! probability `1/(m·C(t*))` — *not* uniform, because triangles whose first
//! edge has a busy neighborhood are under-represented. `unifTri` fixes the
//! bias with one rejection step: output the held triangle only with
//! probability `c / (2Δ)`. Every triangle is then output with the same
//! probability `1/(2mΔ)`, so conditioned on outputting anything the sample
//! is uniform; the success probability is `τ(G)/(2mΔ)` per estimator, and
//! Theorem 3.8 says `r ≥ 4·m·k·Δ·ln(e/δ)/τ` estimators suffice to produce
//! `k` uniform samples with probability `1 − δ`.
//!
//! The rejection step needs the maximum degree Δ. [`TriangleSampler`] tracks
//! the running maximum degree of the stream exactly (an `O(n)`-space degree
//! table — acceptable for a library; the paper treats Δ as known).

use crate::counter::TriangleCounter;
use crate::fastmap::FastMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tristream_graph::Edge;
use tristream_sample::salted_seed;

/// Salt applied to the user seed so the rejection coins are independent of
/// the estimator coins even though both derive from the same seed.
const SAMPLER_RNG_SALT: u64 = 0x7E1E_5C0E_D00D_F00D;

/// Salt applied to the user seed to derive the degree table's hash seed.
const SAMPLER_DEGREE_SALT: u64 = 0xDE6_4EE5_0000_7AB1;

/// Maintains `r` neighborhood-sampling estimators and answers uniform
/// triangle-sampling queries over the stream observed so far.
#[derive(Debug, Clone)]
pub struct TriangleSampler {
    counter: TriangleCounter,
    rng: SmallRng,
    /// Exact running degrees (used for Δ). A [`FastMap`] rather than a std `HashMap`: the table is hit twice
    /// per stream edge, which makes the hasher a hot-path cost, and the
    /// deterministic seeding keeps the run a pure function of `seed`. The
    /// swap cannot change any estimate — only the scalar maximum is ever
    /// read — which `degree_tracking_matches_a_std_hashmap_reference` pins.
    degrees: FastMap<u64>,
    max_degree: u64,
}

impl TriangleSampler {
    /// Creates a sampler with `r` estimators that tracks the maximum degree
    /// of the stream exactly.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn new(r: usize, seed: u64) -> Self {
        Self {
            counter: TriangleCounter::new(r, seed),
            rng: SmallRng::seed_from_u64(salted_seed(seed, SAMPLER_RNG_SALT)),
            degrees: FastMap::with_seed(salted_seed(seed, SAMPLER_DEGREE_SALT)),
            max_degree: 0,
        }
    }

    /// Number of estimators.
    pub fn num_estimators(&self) -> usize {
        self.counter.num_estimators()
    }

    /// Number of edges observed so far.
    pub fn edges_seen(&self) -> u64 {
        self.counter.edges_seen()
    }

    /// The running maximum degree Δ the rejection step uses.
    pub fn max_degree(&self) -> u64 {
        self.max_degree
    }

    /// Processes the next edge of the stream.
    pub fn process_edge(&mut self, edge: Edge) {
        for v in [edge.u(), edge.v()] {
            let d = self.degrees.get_mut_or_insert((v.raw(), 0), 0);
            *d += 1;
            self.max_degree = self.max_degree.max(*d);
        }
        self.counter.process_edge(edge);
    }

    /// Processes a whole slice of edges in order.
    pub fn process_edges(&mut self, edges: &[Edge]) {
        for &e in edges {
            self.process_edge(e);
        }
    }

    /// One `unifTri` draw (Lemma 3.7) from a single estimator: the held
    /// triangle passed through the `c/(2Δ)` rejection filter. `None` either
    /// because the estimator holds no triangle or because the filter
    /// rejected it.
    fn unif_tri_from(&mut self, estimator_index: usize) -> Option<[Edge; 3]> {
        let est = &self.counter.estimators()[estimator_index];
        let triangle = est.triangle()?;
        if self.max_degree == 0 {
            return None;
        }
        let accept = (est.c as f64 / (2.0 * self.max_degree as f64)).min(1.0);
        if self.rng.gen::<f64>() < accept {
            Some(triangle)
        } else {
            None
        }
    }

    /// Runs the rejection step on every estimator and returns all accepted
    /// triangles (each estimator contributes at most one). The expected
    /// number of acceptances is `r·τ/(2mΔ)`.
    pub fn accepted_triangles(&mut self) -> Vec<[Edge; 3]> {
        (0..self.num_estimators())
            .filter_map(|i| self.unif_tri_from(i))
            .collect()
    }

    /// Samples one triangle approximately uniformly at random from the
    /// triangles of the stream observed so far, or `None` if no estimator's
    /// draw was accepted (Theorem 3.8 quantifies how many estimators make
    /// this unlikely).
    pub fn sample_one(&mut self) -> Option<[Edge; 3]> {
        let accepted = self.accepted_triangles();
        if accepted.is_empty() {
            None
        } else {
            Some(accepted[self.rng.gen_range(0..accepted.len())])
        }
    }

    /// Samples `k` triangles uniformly with replacement (Theorem 3.8's
    /// `unifTri(G, k)`). Returns `None` if fewer than `k` estimators'
    /// rejection steps accepted — the caller should retry with more
    /// estimators, as quantified by
    /// [`crate::theory::sufficient_sampler_copies`].
    pub fn sample_k(&mut self, k: usize) -> Option<Vec<[Edge; 3]>> {
        let accepted = self.accepted_triangles();
        if accepted.len() < k {
            return None;
        }
        Some(
            (0..k)
                .map(|_| accepted[self.rng.gen_range(0..accepted.len())])
                .collect(),
        )
    }

    /// The triangle-count estimate from the underlying estimators (the
    /// sampler and the counter share their state, as in the paper).
    pub fn count_estimate(&self) -> f64 {
        self.counter.estimate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as StdHashMap;
    use tristream_graph::exact::list_triangles;
    use tristream_graph::{Adjacency, EdgeStream, VertexId};

    fn two_triangle_stream() -> EdgeStream {
        // Triangle A = (1,2,3) is "quiet"; triangle B = (4,5,6) shares its
        // first edge's neighborhood with lots of extra edges, so plain
        // neighborhood sampling is biased against B and the rejection step
        // must correct for it.
        EdgeStream::from_pairs_dedup(vec![
            (1, 2),
            (2, 3),
            (1, 3),
            (4, 5),
            (4, 7),
            (4, 8),
            (4, 9),
            (5, 10),
            (5, 11),
            (5, 6),
            (4, 6),
        ])
    }

    #[test]
    fn sampled_triangles_are_real() {
        let stream = two_triangle_stream();
        let real: Vec<_> = list_triangles(&Adjacency::from_stream(&stream));
        let mut sampler = TriangleSampler::new(500, 3);
        sampler.process_edges(stream.edges());
        for t in sampler.accepted_triangles() {
            let vertices: std::collections::BTreeSet<_> =
                t.iter().flat_map(|e| [e.u(), e.v()]).collect();
            assert_eq!(vertices.len(), 3, "a triangle spans exactly 3 vertices");
            assert!(Edge::forms_triangle(&t[0], &t[1], &t[2]));
            let as_triangle = tristream_graph::exact::Triangle::new(
                *vertices.iter().next().unwrap(),
                *vertices.iter().nth(1).unwrap(),
                *vertices.iter().nth(2).unwrap(),
            );
            assert!(
                real.contains(&as_triangle),
                "sampled triangle must exist in the graph"
            );
        }
    }

    #[test]
    fn rejection_step_makes_sampling_uniform() {
        // Sample repeatedly and check both triangles appear with roughly
        // equal frequency even though their C(t*) values differ a lot.
        let stream = two_triangle_stream();
        let mut counts: StdHashMap<Vec<u64>, u64> = StdHashMap::new();
        let runs = 4_000u64;
        for seed in 0..runs {
            let mut sampler = TriangleSampler::new(64, seed);
            sampler.process_edges(stream.edges());
            if let Some(t) = sampler.sample_one() {
                let mut key: Vec<u64> = t.iter().flat_map(|e| [e.u().raw(), e.v().raw()]).collect();
                key.sort_unstable();
                key.dedup();
                *counts.entry(key).or_insert(0) += 1;
            }
        }
        assert_eq!(
            counts.len(),
            2,
            "both triangles should be sampled eventually: {counts:?}"
        );
        let a = counts[&vec![1, 2, 3]] as f64;
        let b = counts[&vec![4, 5, 6]] as f64;
        let ratio = a / b;
        assert!(
            (0.75..=1.35).contains(&ratio),
            "triangle frequencies should be balanced, got {a} vs {b} (ratio {ratio})"
        );
    }

    #[test]
    fn plain_neighborhood_sampling_is_biased_but_unif_tri_corrects_it() {
        // Without the rejection step, triangle A (first edge with small
        // neighborhood) is held far more often than triangle B.
        let stream = two_triangle_stream();
        let (mut held_a, mut held_b) = (0u64, 0u64);
        for seed in 0..4_000u64 {
            let mut sampler = crate::estimator::NeighborhoodSampler::with_rng(
                rand::rngs::SmallRng::seed_from_u64(seed),
            );
            for e in stream.iter() {
                sampler.process_edge(e);
            }
            if let Some(t) = sampler.triangle() {
                let touches_1 = t.iter().any(|e| e.contains(VertexId(1)));
                if touches_1 {
                    held_a += 1;
                } else {
                    held_b += 1;
                }
            }
        }
        assert!(
            held_a > held_b * 2,
            "plain neighborhood sampling should be biased toward the quiet triangle \
             (got {held_a} vs {held_b})"
        );
    }

    #[test]
    fn sample_k_requires_enough_acceptances() {
        let stream = two_triangle_stream();
        let mut sampler = TriangleSampler::new(2_000, 5);
        sampler.process_edges(stream.edges());
        let k3 = sampler.sample_k(3);
        assert!(k3.is_some(), "2000 estimators give plenty of acceptances");
        assert_eq!(k3.unwrap().len(), 3);
        // An absurd k cannot be satisfied.
        assert!(sampler.sample_k(100_000).is_none());
    }

    #[test]
    fn no_triangles_means_no_samples() {
        let mut sampler = TriangleSampler::new(256, 1);
        for i in 0..40u64 {
            sampler.process_edge(Edge::new(i, i + 1));
        }
        assert!(sampler.sample_one().is_none());
        assert!(sampler.accepted_triangles().is_empty());
    }

    #[test]
    fn exact_degree_tracking_matches_the_graph() {
        let stream = two_triangle_stream();
        let mut sampler = TriangleSampler::new(8, 2);
        sampler.process_edges(stream.edges());
        let adj = Adjacency::from_stream(&stream);
        assert_eq!(sampler.max_degree() as usize, adj.max_degree());
    }

    #[test]
    fn degree_tracking_matches_a_std_hashmap_reference() {
        // Satellite pin for the std-HashMap → FastMap swap: the running
        // maximum degree (the only quantity the sampler reads from the
        // table) must match a std-HashMap reference at *every* prefix, so
        // every estimate and every accepted sample is untouched by the
        // hasher change.
        let stream = tristream_gen::holme_kim(200, 3, 0.4, 9);
        let mut sampler = TriangleSampler::new(64, 5);
        let mut reference: StdHashMap<VertexId, u64> = StdHashMap::new();
        let mut reference_max = 0u64;
        for e in stream.iter() {
            sampler.process_edge(e);
            for v in [e.u(), e.v()] {
                let d = reference.entry(v).or_insert(0);
                *d += 1;
                reference_max = reference_max.max(*d);
            }
            assert_eq!(sampler.max_degree(), reference_max);
        }
    }

    #[test]
    fn count_estimate_is_exposed() {
        let stream = two_triangle_stream();
        let mut sampler = TriangleSampler::new(3_000, 9);
        sampler.process_edges(stream.edges());
        let est = sampler.count_estimate();
        assert!((est - 2.0).abs() < 0.6, "count estimate {est}");
    }
}
