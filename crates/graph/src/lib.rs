//! Graph substrate for the `tristream` workspace.
//!
//! The paper studies the *adjacency stream* model: an undirected simple graph
//! `G = (V, E)` arrives as a stream of edges `⟨e₁, …, e_m⟩` in arbitrary
//! (possibly adversarial) order, and the algorithm must answer questions
//! about triangles, wedges and cliques using memory far smaller than the
//! graph. This crate provides everything *around* the streaming algorithms:
//!
//! * [`VertexId`] / [`Edge`] — the basic graph vocabulary. Edges are
//!   undirected, normalised, simple (no self-loops).
//! * [`stream`] — the adjacency-stream model: positioned edges, in-memory
//!   streams, batching for the bulk algorithm, and stream orderings
//!   (natural, seeded shuffle, adversarial).
//! * [`adjacency`] — a compact CSR adjacency index built from an edge list,
//!   used by the exact counters and the offline baselines.
//! * [`degree`] — degree tables, maximum degree Δ, and degree-frequency
//!   histograms (the right-hand panel of Figure 3).
//! * [`exact`] — exact ground truth: triangle count τ(G), per-edge and
//!   per-vertex triangle counts, wedge count ζ(G), transitivity κ(G), the
//!   tangle coefficient γ(G) of a stream order (§3.2.1), and 4-/k-clique
//!   counts.
//! * [`io`] — SNAP-style edge-list text I/O.
//! * [`binary`] — the compact `.tsb` binary edge-stream codec (fixed-width
//!   little-endian records; readers skip the timestamp column of files from
//!   earlier builds) that the batched readers decode at memcpy speed.
//! * [`frame`] — length-prefixed frame transport over any `Read`/`Write`
//!   pair, the wire substrate of the `tristream serve` protocol
//!   (`docs/PROTOCOL.md`).
//! * [`snapshot`] — the versioned `TSS\0` sectioned snapshot container
//!   (per-section checksums, typed [`SnapshotError`]) that estimator
//!   checkpoints serialize into.
//! * [`fault`] — scripted I/O fault injection (`FaultyReader`/`FaultyWriter`)
//!   used by the snapshot, `.tsb`, frame and serve test suites to prove
//!   the whole I/O surface degrades with errors instead of panics.
//! * [`stats`] — one-call graph summaries (the left-hand panel of Figure 3).

pub mod adjacency;
pub mod binary;
pub mod degree;
pub mod edge;
pub mod error;
pub mod exact;
pub mod fault;
pub mod frame;
pub mod io;
pub mod snapshot;
pub mod stats;
pub mod stream;
#[cfg(test)]
mod test_util;
pub mod vertex;

pub use adjacency::Adjacency;
pub use degree::{DegreeHistogram, DegreeTable};
pub use edge::Edge;
pub use error::GraphError;
pub use fault::{FaultyReader, FaultyWriter};
pub use snapshot::SnapshotError;
pub use stats::GraphSummary;
pub use stream::{EdgeBatches, EdgeStream, StreamOrder};
pub use vertex::VertexId;
