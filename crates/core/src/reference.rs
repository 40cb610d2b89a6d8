//! The pre-pool bulk counter, kept verbatim as a reference implementation.
//!
//! [`ReferenceBulkCounter`] is the array-of-structs, std-`HashMap`,
//! allocate-per-batch implementation of Theorem 3.5 that
//! [`crate::bulk::BulkTriangleCounter`] replaced when the hot path moved to
//! the struct-of-arrays [`crate::pool::EstimatorPool`]. It exists for two
//! consumers only:
//!
//! * **Tests** — the pooled counter consumes the RNG stream in exactly the
//!   order this implementation does, so for any seed and any batch
//!   boundaries the two must be *bit-identical*, estimator by estimator.
//!   `tests/pool_equivalence.rs` pins that, which is a strictly stronger
//!   guarantee than the distributional identity Theorem 3.5 requires.
//! * **Benches** — the `hot-path` workload family in `tristream-bench`
//!   races this counter against the pooled one over the batch-size sweep
//!   and records both rows in `BENCH.json`, so the speedup stays a
//!   measured, machine-readable claim instead of a one-off number.
//!
//! It is **not** a production path: nothing outside tests and benches
//! should construct one. The algorithmic comments live in [`crate::bulk`];
//! this file intentionally preserves the old control flow (including its
//! per-batch `HashMap` allocations) without restating the rationale.

use crate::counter::Aggregation;
use crate::estimator::{EstimatorState, PositionedEdge};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
// analyze: allow(D1, reason = "the oracle deliberately uses std HashMap to stay structurally independent of the FastMap production path it validates; its tables are only probed, never iterated, so estimates do not depend on layout")
use std::collections::HashMap;
use tristream_graph::{Edge, VertexId};
use tristream_sample::{mean, GeometricSkip};

/// The pre-pool bulk triangle counter (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ReferenceBulkCounter {
    estimators: Vec<EstimatorState>,
    edges_seen: u64,
    rng: SmallRng,
}

impl ReferenceBulkCounter {
    /// Creates a reference counter with `r` estimators and plain-mean
    /// aggregation.
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

    /// Read-only view of the estimator states.
    pub fn estimators(&self) -> &[EstimatorState] {
        &self.estimators
    }

    /// Processes a whole stream in batches of `batch_size` edges.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn process_stream(&mut self, edges: &[Edge], batch_size: usize) {
        assert!(batch_size > 0, "batch size must be positive");
        for chunk in edges.chunks(batch_size) {
            self.process_batch(chunk);
        }
    }

    /// Ingests one batch — the original implementation, preserved verbatim
    /// (per-batch `HashMap` and `Vec` allocations included).
    pub fn process_batch(&mut self, batch: &[Edge]) {
        let w = batch.len();
        if w == 0 {
            return;
        }
        let m = self.edges_seen;
        let r = self.estimators.len();

        // ---- Step 1: level-1 reservoir over (old stream) ++ (batch). ------
        let mut replaced_at: Vec<Option<usize>> = vec![None; r];
        let p = w as f64 / (m + w as u64) as f64;
        let mut skip = GeometricSkip::new(p);
        for idx in skip.successes_up_to(&mut self.rng, r as u64) {
            let idx = (idx - 1) as usize;
            let k = self.rng.gen_range(0..w);
            let est = &mut self.estimators[idx];
            est.r1 = Some(PositionedEdge::new(batch[k], m + k as u64 + 1));
            est.r2 = None;
            est.c = 0;
            est.closer = None;
            replaced_at[idx] = Some(k);
        }

        // ---- Step 2a: first edgeIter pass — record β values and degB. -----
        let mut level1_at_index: Vec<Vec<u32>> = vec![Vec::new(); w];
        for (idx, &at) in replaced_at.iter().enumerate() {
            if let Some(k) = at {
                level1_at_index[k].push(idx as u32);
            }
        }
        let mut beta: Vec<(u64, u64)> = vec![(0, 0); r];
        // analyze: allow(D1, reason = "oracle-only std table, probed by key and never iterated; see the import-site allow")
        let mut deg: HashMap<VertexId, u64> = HashMap::with_capacity(2 * w);
        for (i, e) in batch.iter().enumerate() {
            *deg.entry(e.u()).or_insert(0) += 1;
            *deg.entry(e.v()).or_insert(0) += 1;
            for &est_idx in &level1_at_index[i] {
                #[allow(clippy::expect_used)]
                let r1_edge = self.estimators[est_idx as usize]
                    .r1
                    // analyze: allow(P1, reason = "oracle invariant: step 1 just stored r1 for every index it recorded in replaced_at; a panic here is a bug in the specification itself")
                    .expect("estimator replaced this batch has a level-1 edge")
                    .edge;
                debug_assert_eq!(r1_edge, *e);
                beta[est_idx as usize] = (deg[&r1_edge.u()], deg[&r1_edge.v()]);
            }
        }
        let final_deg = deg;

        // ---- Step 2b: one randInt per estimator; subscribe to EVENT_B. ----
        // analyze: allow(D1, reason = "oracle-only std table, probed by key and never iterated; see the import-site allow")
        let mut subscriptions: HashMap<(VertexId, u64), Vec<u32>> = HashMap::new();
        for (idx, est) in self.estimators.iter_mut().enumerate() {
            let r1 = match est.r1 {
                Some(r1) => r1,
                None => continue,
            };
            let (x, y) = r1.edge.endpoints();
            let (beta_x, beta_y) = beta[idx];
            let deg_x = final_deg.get(&x).copied().unwrap_or(0);
            let deg_y = final_deg.get(&y).copied().unwrap_or(0);
            let a = deg_x - beta_x;
            let b = deg_y - beta_y;
            let c_minus = est.c;
            let c_plus = a + b;
            if c_plus == 0 {
                continue;
            }
            let total = c_minus + c_plus;
            let phi = self.rng.gen_range(1..=total);
            est.c = total;
            if phi <= c_minus {
                continue;
            }
            est.r2 = None;
            est.closer = None;
            let (vertex, target_degree) = if phi <= c_minus + a {
                (x, beta_x + (phi - c_minus))
            } else {
                (y, beta_y + (phi - c_minus - a))
            };
            subscriptions
                .entry((vertex, target_degree))
                .or_default()
                .push(idx as u32);
        }

        // ---- Step 2c: second edgeIter pass — resolve events to edges. -----
        if !subscriptions.is_empty() {
            // analyze: allow(D1, reason = "oracle-only std table, probed by key and never iterated; see the import-site allow")
            let mut deg: HashMap<VertexId, u64> = HashMap::with_capacity(2 * w);
            for (i, e) in batch.iter().enumerate() {
                let position = m + i as u64 + 1;
                for vertex in [e.u(), e.v()] {
                    let d = {
                        let entry = deg.entry(vertex).or_insert(0);
                        *entry += 1;
                        *entry
                    };
                    if let Some(list) = subscriptions.remove(&(vertex, d)) {
                        for est_idx in list {
                            let est = &mut self.estimators[est_idx as usize];
                            est.r2 = Some(PositionedEdge::new(*e, position));
                            est.closer = None;
                        }
                    }
                }
                if subscriptions.is_empty() {
                    break;
                }
            }
            debug_assert!(
                subscriptions.is_empty(),
                "every EVENT_B subscription must resolve within the batch"
            );
        }

        // ---- Step 3: find wedge-closing edges within the batch. -----------
        // analyze: allow(D1, reason = "oracle-only std table, probed by key and never iterated; see the import-site allow")
        let mut waiting: HashMap<Edge, Vec<u32>> = HashMap::new();
        for (idx, est) in self.estimators.iter().enumerate() {
            if est.closer.is_some() {
                continue;
            }
            let (r1, r2) = match (est.r1, est.r2) {
                (Some(r1), Some(r2)) => (r1, r2),
                _ => continue,
            };
            if let Some(shared) = r1.edge.shared_vertex(&r2.edge) {
                #[allow(clippy::expect_used)]
                let p = r1
                    .edge
                    .other_endpoint(shared)
                    // analyze: allow(P1, reason = "infallible: Edge::new rejects self-loops, so a shared vertex always has a distinct partner")
                    .expect("edge has two endpoints");
                #[allow(clippy::expect_used)]
                let q = r2
                    .edge
                    .other_endpoint(shared)
                    // analyze: allow(P1, reason = "infallible: Edge::new rejects self-loops, so a shared vertex always has a distinct partner")
                    .expect("edge has two endpoints");
                if p != q {
                    waiting.entry(Edge::new(p, q)).or_default().push(idx as u32);
                }
            }
        }
        if !waiting.is_empty() {
            for (i, e) in batch.iter().enumerate() {
                let position = m + i as u64 + 1;
                if let Some(list) = waiting.get(e) {
                    for &est_idx in list {
                        let est = &mut self.estimators[est_idx as usize];
                        #[allow(clippy::expect_used)]
                        // analyze: allow(P1, reason = "oracle invariant: step 3 only enrolled estimators whose r2 was Some; a panic here is a bug in the specification itself")
                        let r2 = est.r2.expect("waiting estimators have a level-2 edge");
                        if est.closer.is_none() && position > r2.position {
                            est.closer = Some(PositionedEdge::new(*e, position));
                        }
                    }
                }
            }
        }

        self.edges_seen += w as u64;
    }

    /// Per-estimator unbiased triangle estimates (Lemma 3.2).
    pub fn raw_estimates(&self) -> Vec<f64> {
        self.estimators
            .iter()
            .map(|e| e.triangle_estimate(self.edges_seen))
            .collect()
    }

    /// The plain-mean triangle-count estimate.
    pub fn estimate(&self) -> f64 {
        mean(&self.raw_estimates())
    }

    /// The estimate under an explicit aggregation (parity with the pooled
    /// counter's ablation hook).
    pub fn estimate_with(&self, aggregation: Aggregation) -> f64 {
        let raw = self.raw_estimates();
        match aggregation {
            Aggregation::Mean => mean(&raw),
            Aggregation::MedianOfMeans { groups } => {
                tristream_sample::median_of_means(&raw, groups)
            }
        }
    }
}

impl crate::traits::TriangleEstimator for ReferenceBulkCounter {
    fn process_edge(&mut self, edge: Edge) {
        self.process_batch(&[edge]);
    }

    fn process_edges(&mut self, edges: &[Edge]) {
        self.process_batch(edges);
    }

    fn estimate(&self) -> f64 {
        ReferenceBulkCounter::estimate(self)
    }

    fn edges_seen(&self) -> u64 {
        ReferenceBulkCounter::edges_seen(self)
    }

    /// `r` scalar [`EstimatorState`]s, as the old counter reported.
    fn memory_words(&self) -> usize {
        crate::traits::words_for_bytes(
            self.estimators.len() * std::mem::size_of::<EstimatorState>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn zero_estimators_panics() {
        let _ = ReferenceBulkCounter::new(0, 1);
    }

    #[test]
    fn reference_counts_a_clique_accurately() {
        let mut edges = Vec::new();
        for i in 0..8u64 {
            for j in (i + 1)..8 {
                edges.push(Edge::new(i, j));
            }
        }
        let truth = 56.0;
        let mut c = ReferenceBulkCounter::new(4_000, 21);
        c.process_stream(&edges, 5);
        let est = c.estimate();
        assert!((est - truth).abs() < 0.15 * truth, "estimate {est}");
        assert_eq!(c.edges_seen(), edges.len() as u64);
        assert_eq!(c.num_estimators(), 4_000);
        assert!(c.estimators().iter().any(|e| e.has_triangle()));
    }

    #[test]
    fn reference_is_deterministic_per_seed() {
        let stream = tristream_gen::planted_triangles(20, 50, 3);
        let run = || {
            let mut c = ReferenceBulkCounter::new(128, 9);
            c.process_stream(stream.edges(), 17);
            c.raw_estimates()
        };
        assert_eq!(run(), run());
    }
}
