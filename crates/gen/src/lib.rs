//! Synthetic graph generators for the `tristream` workspace.
//!
//! The paper's experiments (§4) run on SNAP social graphs (Amazon, DBLP,
//! Youtube, LiveJournal, Orkut), the arXiv Hep-Th collaboration network, a
//! synthetic 3-regular graph and a synthetic ∼d-regular graph. The SNAP
//! files themselves are not redistributable inside this reproduction, so
//! this crate provides:
//!
//! * classic random-graph families ([`erdos_renyi`], [`regular`],
//!   [`barabasi_albert`](mod@barabasi_albert),
//!   [`watts_strogatz`](mod@watts_strogatz), [`rmat`](mod@rmat)) — these are
//!   the building blocks;
//! * deterministic [`classic`] families (complete graphs, cycles, paths,
//!   stars, bipartite graphs) used throughout the test suites because their
//!   triangle/wedge/clique counts have closed forms;
//! * [`planted`] graphs with a known number of planted triangles, useful for
//!   bias tests; and
//! * [`datasets`] — *calibrated stand-ins* for the paper's datasets, built
//!   from the families above with parameters chosen so the key accuracy
//!   predictor `mΔ/τ(G)` is ordered the same way as in the paper's Figure 3
//!   (see README.md § Datasets for why stand-ins replace the SNAP graphs).
//!
//! All generators are deterministic given a seed, emit simple graphs (no
//! self-loops or parallel edges), and return a
//! [`tristream_graph::EdgeStream`] in a generator-specific arrival order
//! that callers can reshuffle via [`tristream_graph::StreamOrder`].

pub mod barabasi_albert;
pub mod classic;
pub mod datasets;
pub mod erdos_renyi;
pub mod planted;
pub mod regular;
pub mod rmat;
pub mod watts_strogatz;

pub use barabasi_albert::{barabasi_albert, barabasi_albert_shuffled, holme_kim};
pub use classic::{complete_bipartite, complete_graph, cycle_graph, path_graph, star_graph};
pub use datasets::{DatasetKind, DatasetSpec, StandIn};
pub use erdos_renyi::{gnm, gnp};
pub use planted::planted_triangles;
pub use regular::{near_regular, random_regular, triangle_rich_three_regular};
pub use rmat::{rmat, RmatParams};
pub use watts_strogatz::watts_strogatz;
