//! # tristream
//!
//! A from-scratch Rust implementation of *Counting and Sampling Triangles
//! from a Graph Stream* (Pavan, Tangwongsan, Tirthapura, Wu — VLDB 2013):
//! **neighborhood sampling** and everything built on it, together with the
//! substrates (graph model, generators, exact counters) and prior-work
//! baselines needed to reproduce the paper's evaluation.
//!
//! This crate is a thin facade that re-exports the workspace members so that
//! applications can depend on a single crate:
//!
//! * [`graph`] ([`tristream_graph`]) — edges, adjacency streams, exact
//!   ground-truth analytics, edge-list I/O.
//! * [`gen`] ([`tristream_gen`]) — synthetic graph generators and the
//!   calibrated stand-ins for the paper's datasets.
//! * [`sample`] ([`tristream_sample`]) — chain sampling, geometric skips,
//!   estimator aggregation and seed derivation.
//! * [`core`] ([`tristream_core`]) — the paper's algorithms: triangle
//!   counting (one-at-a-time and bulk), uniform triangle sampling,
//!   transitivity estimation, 4-clique counting, sliding windows, and the
//!   sufficient-space formulas.
//! * [`baselines`] ([`tristream_baselines`]) — Buriol et al.,
//!   Jowhari–Ghodsi, colorful sampling, and an exact streaming counter.
//!
//! ## Quickstart
//!
//! ```
//! use tristream::prelude::*;
//!
//! // Build a small social-network-like stream with a known ground truth.
//! let stream = tristream::gen::planted_triangles(200, 400, 42);
//!
//! // Stream it through the bulk triangle counter (Theorem 3.5): O(r + w)
//! // work per batch of w edges, r estimators.
//! let mut counter = BulkTriangleCounter::new(20_000, 7);
//! counter.process_stream(stream.edges(), 8 * 20_000);
//!
//! let estimate = counter.estimate();
//! assert!((estimate - 200.0).abs() < 20.0, "estimate = {estimate}");
//! ```

pub use tristream_baselines as baselines;
pub use tristream_core as core;
pub use tristream_gen as gen;
pub use tristream_graph as graph;
pub use tristream_sample as sample;

/// The most commonly used types, importable with
/// `use tristream::prelude::*;`.
pub mod prelude {
    pub use tristream_baselines::registry::{find_algo, registry, AlgoParams, AlgoSpec};
    pub use tristream_baselines::ExactStreamingCounter;
    pub use tristream_core::{
        BulkTriangleCounter, FourCliqueCounter, ShardedEstimator, SlidingWindowTriangleCounter,
        TransitivityEstimator, TriangleCounter, TriangleEstimator, TriangleSampler,
    };
    pub use tristream_gen::{DatasetKind, StandIn};
    pub use tristream_graph::{Adjacency, Edge, EdgeStream, GraphSummary, StreamOrder, VertexId};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_compose() {
        let stream = crate::gen::complete_graph(6);
        let mut counter = TriangleCounter::new(2_000, 3);
        for e in stream.iter() {
            counter.process_edge(e);
        }
        let exact = crate::graph::exact::count_triangles(&Adjacency::from_stream(&stream));
        assert_eq!(exact, 20);
        assert!((counter.estimate() - 20.0).abs() < 4.0);
    }
}
