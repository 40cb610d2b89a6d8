//! The serving layer of the `tristream` workspace: a multi-tenant streaming
//! triangle-estimation daemon.
//!
//! The paper's one-pass estimators are exactly the state worth keeping
//! resident in a long-lived process — tiny, constant-space, queryable at
//! any prefix of the stream — and this crate turns them into a daemon:
//! `tristream-cli serve` binds a TCP listener, clients create named
//! streams running any registry algorithm under a word budget, feed them
//! length-prefixed `.tsb` edge frames, and query live estimates
//! concurrently, without stalling ingestion.
//!
//! * [`protocol`] — frame types, error codes, pure encode/decode. The
//!   normative spec is `docs/PROTOCOL.md`; a doc-drift test keeps the two
//!   aligned.
//! * [`table`] — the stream table: per-stream [`ShardedEstimator`] engines
//!   built by the *same* recipe as the offline `count --algo --parallel`
//!   path, so served estimates are bit-identical to offline runs with the
//!   same seed, budget and batch boundaries.
//! * [`checkpoint`] — stream checkpoints (`TSS\0` containers nesting the
//!   engine's estimator snapshot) and the `--state-dir` file layout behind
//!   crash recovery: atomic writes, corrupt files skipped and reported.
//! * [`server`] — accept loop, per-connection handler threads, graceful
//!   drain, periodic checkpoints and startup recovery (see
//!   `docs/OPERATIONS.md`).
//! * [`client`] — a typed blocking client, used by the CLI, the bench
//!   suite, and the integration tests.
//! * [`metrics`] — ingest/query latency counters (the only clock reads in
//!   the crate).
//!
//! Everything is std-only: threads and [`std::net::TcpListener`], no async
//! runtime. Like every library crate in the workspace, the crate is
//! panic-free on malformed input — a corrupt frame is an ERROR reply,
//! never a crash — and deterministic: stream state depends only on seeds
//! and batch boundaries, never on time or thread interleaving.
//!
//! [`ShardedEstimator`]: tristream_core::ShardedEstimator

pub mod checkpoint;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod table;

pub use checkpoint::{StateDirScan, StreamCheckpoint};
pub use client::{Client, ClientError, RetryPolicy};
pub use protocol::{
    CreateStream, ErrorCode, FrameType, Request, Response, StreamStats, WireError,
    MIN_PROTOCOL_VERSION, PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
pub use server::{Server, ServerOptions};
pub use table::{StreamTable, DEFAULT_STREAM_SHARDS, SERVE_STREAM_HINT};
