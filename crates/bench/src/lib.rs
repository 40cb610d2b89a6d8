//! Experiment harness for reproducing every table and figure of the paper's
//! evaluation (§4), plus the named workload suite behind `BENCH.json`
//! ([`run_suite`]).
//!
//! Each table/figure has a dedicated binary (`table1`, `table2`, `table3`,
//! `figure3`, `figure4`, `figure5`, `figure6`; `run_all` chains them). Every
//! binary prints a human-readable table to stdout and writes a CSV under
//! `target/experiments/`, so EXPERIMENTS.md can quote machine-generated
//! numbers.
//!
//! Knobs (environment variables, all optional):
//!
//! * `TRISTREAM_SCALE` — extra scale-down factor applied on top of each
//!   dataset's default (e.g. `TRISTREAM_SCALE=4` makes every stand-in 4×
//!   smaller; useful for smoke runs).
//! * `TRISTREAM_TRIALS` — number of trials per configuration (default 5,
//!   matching the paper).
//! * `TRISTREAM_SEED` — base RNG seed (default 1).

pub mod experiments;
pub mod report;
pub mod suite;
pub mod trial;
pub mod workloads;

pub use report::{
    write_csv, BenchReport, ExperimentTable, WorkloadKind, WorkloadResult, BENCH_SCHEMA_VERSION,
};
pub use suite::{run_suite, BenchConfig};
pub use trial::{run_trials, ThroughputSummary, TrialOutcome, TrialSummary};
pub use workloads::{
    env_scale_factor, env_seed, env_trials, load_standin, load_standin_scaled, Workload,
};
