//! Random-sampling primitives used throughout the `tristream` workspace.
//!
//! The paper (Pavan et al., *Counting and Sampling Triangles from a Graph
//! Stream*, VLDB 2013) assumes two constant-time randomness procedures,
//! `coin(p)` and `randInt(a, b)` (§2), and builds its estimators on
//! reservoir sampling over (sub)streams. Those draws are one
//! `gen_range` each, so they live inline where the estimators take them:
//! the level-1 and level-2 reservoirs in `tristream_core::estimator`, and
//! the per-batch reservoir step and `randInt` draws in
//! `tristream_core::bulk`.
//!
//! This crate holds the primitives that are more than one draw:
//!
//! * [`chain`] — chain sampling over a sequence-based sliding window
//!   (Babcock, Datar, Motwani, SODA 2002), for the §5.2 extension.
//! * [`skip`] — geometric skip sequences, the bulk-processing optimisation
//!   described in §4 for updating only the estimators whose level-1 edge is
//!   actually replaced.
//! * [`aggregate`] — estimator aggregation: plain averaging (Theorem 3.3),
//!   median-of-means over a counter's `raw_estimates()` (Theorem 3.4), and
//!   the relative error the experiment harness reports.
//! * [`seeding`] — the workspace's blessed seed-derivation helpers
//!   ([`splitmix64`], [`salted_seed`]); the `S1-seeding` rule of
//!   `tristream-analyze` requires every derived `seed_from_u64` argument to
//!   go through them.

pub mod aggregate;
pub mod chain;
pub mod seeding;
pub mod skip;

pub use aggregate::{mean, median, median_of_means, relative_error};
pub use chain::{ChainEntry, ChainSampler};
pub use seeding::{salted_seed, splitmix64, splitmix64_next};
pub use skip::GeometricSkip;
