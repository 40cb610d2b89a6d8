//! `tristream-core` — the primary contribution of *Counting and Sampling
//! Triangles from a Graph Stream* (Pavan, Tangwongsan, Tirthapura, Wu,
//! VLDB 2013), implemented as a reusable Rust library.
//!
//! # What the paper does
//!
//! The paper introduces **neighborhood sampling**: maintain a uniformly
//! random *level-1* edge `r₁` from the stream, a uniformly random *level-2*
//! edge `r₂` from the sub-stream of edges that arrive after `r₁` and touch
//! it, and watch for an edge that closes the wedge `r₁r₂` into a triangle.
//! Tracking how biased each potential triangle is (via the counter
//! `c = |N(r₁)|`) turns the sample into an unbiased estimator of the
//! triangle count, and many independent estimators give an
//! (ε, δ)-approximation. The same machinery yields uniform triangle
//! sampling, transitivity-coefficient estimation, 4-clique counting, a
//! sliding-window variant, and an `O(r + w)`-per-batch bulk implementation.
//!
//! # Module map
//!
//! | Paper section | Module |
//! |---|---|
//! | §3.1 Algorithm 1 (neighborhood sampling) | [`estimator`] |
//! | §3.2 Theorems 3.3 & 3.4 (counting: the mean of `r` estimators; tangle-aware aggregation: `tristream_sample::median_of_means` over `raw_estimates()`) | [`counter`], [`theory`] |
//! | §3.3 Theorem 3.5 (bulk processing) | [`bulk`] (SoA hot path: [`pool`], [`fastmap`]; pre-pool reference: [`reference`](mod@reference)) |
//! | §3.4 `unifTri` (uniform triangle sampling) | [`sampler`] |
//! | §3.5 transitivity coefficient | [`transitivity`] |
//! | §5.1 4-clique counting (Type I / Type II) | [`clique`] |
//! | §5.2 sliding windows | [`sliding`] |
//! | §4 geometric-skip level-1 optimisation | Step 1 of [`BulkTriangleCounter::process_batch`] (gaps from `tristream_sample::GeometricSkip`) |
//! | §6 follow-up: multi-core sharded counting | [`ShardedEstimator`] in [`parallel`] |
//!
//! # Quick example
//!
//! ```
//! use tristream_core::counter::TriangleCounter;
//! use tristream_graph::Edge;
//!
//! // A 5-clique has exactly 10 triangles.
//! let mut edges = Vec::new();
//! for i in 0..5u64 {
//!     for j in (i + 1)..5 {
//!         edges.push(Edge::new(i, j));
//!     }
//! }
//! let mut counter = TriangleCounter::new(4_000, 7);
//! for e in &edges {
//!     counter.process_edge(*e);
//! }
//! let estimate = counter.estimate();
//! assert!((estimate - 10.0).abs() < 3.0, "estimate = {estimate}");
//! ```

pub mod bulk;
pub mod clique;
pub mod counter;
pub mod estimator;
pub mod fastmap;
pub mod parallel;
pub mod pool;
pub mod reference;
pub mod sampler;
pub mod sliding;
pub mod snapshot;
pub mod theory;
pub mod traits;
pub mod transitivity;

pub use bulk::BulkTriangleCounter;
pub use clique::FourCliqueCounter;
pub use counter::TriangleCounter;
pub use estimator::{EstimatorState, NeighborhoodSampler, PositionedEdge};
pub use fastmap::FastMap;
pub use parallel::{shard_seed, ShardedEstimator, SHARD_SEED_STRIDE};
pub use pool::{BitSet, BufferedRng, EstimatorPool};
pub use reference::ReferenceBulkCounter;
pub use sampler::TriangleSampler;
pub use sliding::SlidingWindowTriangleCounter;
pub use snapshot::SnapshotError;
pub use theory::{
    error_bound_for_estimators, sufficient_estimators_mean, sufficient_estimators_tangle,
    sufficient_sampler_copies,
};
pub use traits::{words_for_bytes, TriangleEstimator, BYTES_PER_WORD};
pub use transitivity::TransitivityEstimator;
