//! Hand-rolled argument parsing for the `tristream-cli` binary.
//!
//! Each subcommand reads its positionals, then walks its flags with one
//! cursor and one `match` arm per flag. `client`, `checkpoint` and
//! `restore` hand `--addr` and `--retries` to one shared reader, and every
//! count-valued flag refuses 0 through one check.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use tristream_baselines::registry::{algo_names_joined, find_algo};
use tristream_graph::binary::is_tsb_path;

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not one of the known ones.
    UnknownCommand(String),
    /// A required positional argument is missing.
    MissingArgument(&'static str),
    /// A flag that needs a value did not get one, or the value failed to
    /// parse.
    BadFlagValue(String),
    /// A flag's value parsed but is outside the accepted range (e.g.
    /// `--batch 0`).
    InvalidFlagValue {
        /// The flag, e.g. `--batch`.
        flag: &'static str,
        /// Why the value is rejected.
        reason: &'static str,
    },
    /// Invalid use of `--algo`: either an unregistered algorithm name or a
    /// flag combination that contradicts it. The rendered message always
    /// lists the registered names.
    AlgoUsage(String),
    /// An unrecognised flag was supplied.
    UnknownFlag(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "no command given; try `tristream-cli help`"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?}; try `tristream-cli help`")
            }
            CliError::MissingArgument(what) => write!(f, "missing required argument: {what}"),
            CliError::BadFlagValue(flag) => write!(f, "flag {flag} needs a valid value"),
            CliError::InvalidFlagValue { flag, reason } => {
                write!(f, "invalid use of {flag}: {reason}")
            }
            CliError::AlgoUsage(what) => {
                write!(f, "{what}; registered algorithms: {}", algo_names_joined())
            }
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
        }
    }
}

impl std::error::Error for CliError {}

/// A fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print the help text.
    Help,
    /// Exact structural summary of an edge-list file.
    Summary {
        /// Path to the edge-list file.
        input: PathBuf,
    },
    /// Triangle count of an edge-list file by a registry algorithm
    /// (`--algo exact` for the exact count).
    Count {
        /// Path to the edge-list file.
        input: PathBuf,
        /// Space parameter: estimator count for the sampling algorithms,
        /// color count for `pagh-tsourakakis`. `None` means "the
        /// algorithm's default" (100 000 for the default counter).
        estimators: Option<usize>,
        /// Batch size (`None`: 8 × the space parameter, clamped to
        /// 4,096..=1,048,576).
        batch: Option<usize>,
        /// RNG seed.
        seed: u64,
        /// Shard the estimator pool across persistent worker threads and
        /// stream the file in batches instead of materialising it.
        parallel: bool,
        /// Number of shards for `--parallel` (defaults to the number of
        /// available CPUs when `None`).
        shards: Option<usize>,
        /// Which registered algorithm to run (`None`: `neighborhood-bulk`,
        /// exactly as if it were named). Validated against the registry at
        /// parse time.
        algo: Option<String>,
        /// Sliding-window size; only valid with `--algo sliding`.
        window: Option<u64>,
    },
    /// Streaming transitivity-coefficient estimate.
    Transitivity {
        /// Path to the edge-list file.
        input: PathBuf,
        /// Number of estimators (per pool).
        estimators: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Uniformly sample `k` triangles.
    Sample {
        /// Path to the edge-list file.
        input: PathBuf,
        /// Number of triangles to sample.
        k: usize,
        /// Number of estimators.
        estimators: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Convert an edge-stream file between the text and `.tsb` binary
    /// codecs (direction inferred from the extensions).
    Convert {
        /// Source file (text edge list, or `.tsb`).
        input: PathBuf,
        /// Destination file (`.tsb`, or text edge list).
        output: PathBuf,
    },
    /// Run the named benchmark workloads and write `BENCH.json`.
    Bench {
        /// Use the smoke configuration (CI-sized) instead of the full one.
        smoke: bool,
        /// Exit non-zero if any workload exceeds its accuracy bound.
        check: bool,
        /// Base RNG seed for the whole suite.
        seed: u64,
        /// Where to write the JSON report.
        output: PathBuf,
        /// Override the ingest stream size (mainly for tests).
        edges: Option<usize>,
    },
    /// Run the multi-tenant streaming estimation daemon (wire protocol:
    /// `docs/PROTOCOL.md`; operations: `docs/OPERATIONS.md`).
    Serve {
        /// Listen address, e.g. `127.0.0.1:7878`; port 0 picks an
        /// ephemeral port, printed on startup.
        addr: String,
        /// Checkpoint directory: enables periodic per-stream checkpoints
        /// and crash recovery on startup (`None`: memory-only, as before).
        state_dir: Option<PathBuf>,
        /// Checkpoint every N EDGES frames per stream (`None`: the server
        /// default). Only valid together with `--state-dir`.
        checkpoint_every: Option<u64>,
        /// Close connections idle for this many seconds (`None`: no idle
        /// deadline, as before).
        idle_timeout_secs: Option<u64>,
    },
    /// One-shot client operations against a running `serve` daemon.
    Client {
        /// Daemon address.
        addr: String,
        /// Transport-failure retries (`0`: fail fast). Server refusals
        /// (ERROR frames) are never retried.
        retries: u32,
        /// The operation to perform.
        action: ClientAction,
    },
    /// SNAPSHOT a served stream and write the checkpoint to a local file.
    Checkpoint {
        /// Target stream name.
        name: String,
        /// Where to write the checkpoint bytes.
        output: PathBuf,
        /// Daemon address.
        addr: String,
        /// Transport-failure retries (`0`: fail fast).
        retries: u32,
    },
    /// RESTORE a stream on the daemon from a local checkpoint file.
    Restore {
        /// Checkpoint file previously written by `checkpoint` (or the
        /// daemon's own `--state-dir`).
        input: PathBuf,
        /// Daemon address.
        addr: String,
        /// Transport-failure retries for the *connect* only — the RESTORE
        /// request itself is never retried (it mutates the server).
        retries: u32,
    },
    /// Generate a dataset stand-in and write it as an edge list.
    Generate {
        /// Dataset slug (e.g. `orkut`, `dblp`, `syn-3-reg`).
        dataset: String,
        /// Extra scale-down denominator.
        scale: u64,
        /// RNG seed.
        seed: u64,
        /// Output path.
        output: PathBuf,
    },
}

/// The default daemon address for `serve` and `client`.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7878";

/// What `tristream-cli client` should do once connected.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// CREATE a named stream running a registry algorithm.
    Create {
        /// Stream name.
        name: String,
        /// Registry algorithm name (validated at parse time).
        algo: String,
        /// Root RNG seed.
        seed: u64,
        /// Memory budget in 8-byte words.
        budget_words: u64,
        /// Engine shards; 0 lets the server choose.
        shards: u16,
        /// Sliding-window size; 0 keeps the registry default.
        window: u64,
    },
    /// Stream an edge-list file to a stream as EDGES frames.
    Send {
        /// Target stream name.
        name: String,
        /// Edge-list file (text or `.tsb`).
        input: PathBuf,
        /// Edges per EDGES frame (one frame = one engine batch).
        batch: usize,
    },
    /// QUERY a stream's live estimate.
    Query {
        /// Target stream name.
        name: String,
    },
    /// STATS for every live stream.
    Stats,
    /// DELETE a named stream.
    Delete {
        /// Target stream name.
        name: String,
    },
    /// SHUTDOWN: ask the daemon to drain and exit.
    Shutdown,
}

/// The help text printed by `tristream-cli help` (and on parse errors).
pub const HELP: &str = "\
tristream-cli — streaming triangle counting and sampling (Pavan et al., VLDB 2013)

USAGE:
  tristream-cli summary      <EDGE_LIST>
  tristream-cli count        <EDGE_LIST> [--estimators N] [--batch W] [--seed S]
                                         [--algo NAME [--window W]] [--parallel [--shards K]]
  tristream-cli transitivity <EDGE_LIST> [--estimators N] [--seed S]
  tristream-cli sample       <EDGE_LIST> [-k K] [--estimators N] [--seed S]
  tristream-cli convert      <INPUT> --output FILE
  tristream-cli bench        [--smoke] [--check] [--seed S] [--output FILE]
                             [--edges N]
  tristream-cli serve        [--addr HOST:PORT] [--state-dir DIR]
                             [--checkpoint-every N] [--idle-timeout SECS]
  tristream-cli client       create NAME --algo NAME [--seed S] [--budget WORDS]
                                         [--shards K] [--window W] [--addr HOST:PORT]
  tristream-cli client       send NAME <EDGE_LIST> [--batch W] [--addr HOST:PORT]
  tristream-cli client       query NAME | stats | delete NAME | shutdown
                                         [--addr HOST:PORT] [--retries N]
  tristream-cli checkpoint   NAME --output FILE [--addr HOST:PORT] [--retries N]
  tristream-cli restore      <CHECKPOINT>      [--addr HOST:PORT] [--retries N]
  tristream-cli generate     <DATASET>   [--scale D] [--seed S] --output FILE
  tristream-cli help

`count --algo NAME` selects the counting algorithm from the registry:
neighborhood, neighborhood-bulk (the default: `count` without `--algo` is
`count --algo neighborhood-bulk`), sliding, exact, buriol, jowhari-ghodsi,
pagh-tsourakakis. `--estimators` sets the algorithm's space parameter
(estimator count; color count N for pagh-tsourakakis; default: the
algorithm's own), `--batch` defaults to 8 × that, clamped to
4096..1048576, and `--window` sets the sliding-window size for `--algo
sliding`. Every algorithm works over text and .tsb inputs, sequentially
or sharded with `--parallel`. The report gives the estimate, the resident
memory in words and, for the neighborhood-sampling pools, how many
estimators hold a triangle (a handful means the estimate rests on very
few samples).

`count --parallel` runs K shards on persistent worker threads (default
K: available CPUs). An estimator pool is split ceil(N/K) per shard and
the estimate is the mean over shards; a served stream's CREATE builds the
same way, so the same seed gives the same bits. With one shard it prints
exactly what `count` prints. Every form of `count` reads the same stream:
a .tsb file streams batch by batch, keeping duplicate edges as written; a
text file is loaded whole through the deduplicating reader.

Edge lists are SNAP-style text files: one `u v` pair per line, `#` comments.
Files with the `.tsb` extension use the tristream binary edge-stream format
instead, which every subcommand reads transparently; `convert` translates
between the two (exactly one side must be `.tsb`).

`bench` runs the named perf workloads (text vs binary ingest, pooled vs
reference bulk hot path, accuracy vs exact, serve and snapshot parity) and
writes a machine-readable BENCH.json (default path: BENCH.json); `--check`
makes a gate violation a non-zero exit, which is how CI gates.

`serve` runs the multi-tenant streaming estimation daemon: clients CREATE
named streams running any registry algorithm under a word budget, feed
them EDGES frames, and QUERY live estimates concurrently without stalling
ingestion; a SHUTDOWN frame drains the server gracefully. `client` is the
matching one-shot client (default address 127.0.0.1:7878). With
`--state-dir DIR` the daemon checkpoints every snapshotable stream to DIR
every N EDGES frames (`--checkpoint-every`, atomic writes) and recovers
all streams from their latest valid checkpoints on startup;
`--idle-timeout SECS` closes connections that send no frame within the
deadline. `checkpoint` pulls a stream's state over the wire into a local
file; `restore` re-creates the stream from one. `--retries N` retries
transport failures with bounded exponential backoff — server refusals
(ERROR frames) and mutating requests are never retried. The wire protocol
is specified in docs/PROTOCOL.md and day-two operations (budgeting,
drain, STATS, the checkpoint/restore runbook) in docs/OPERATIONS.md.

Datasets for `generate`: amazon, dblp, youtube, livejournal, orkut,
syn-d-regular, hep-th, syn-3-reg.
";

/// A cursor over a subcommand's flags: the arguments after its
/// positionals.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    /// The arguments of `rest` after its first `positionals`.
    fn after(rest: &'a [String], positionals: usize) -> Self {
        Self(rest.get(positionals..).unwrap_or_default().iter())
    }

    /// The next flag token.
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// Takes the token after a flag and parses it. A missing or unparsable
    /// value is reported under `flag`, the canonical name, whichever alias
    /// was typed.
    fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        self.0
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CliError::BadFlagValue(flag.to_string()))
    }
}

/// The daemon connection flags of `client`, `checkpoint` and `restore`.
struct Remote {
    addr: String,
    retries: u32,
}

impl Remote {
    fn new() -> Self {
        Self {
            addr: DEFAULT_SERVE_ADDR.to_string(),
            retries: 0,
        }
    }

    /// Reads `--addr` or `--retries`; any other flag is unknown.
    fn read(&mut self, flag: &str, flags: &mut Flags) -> Result<(), CliError> {
        match flag {
            "--addr" => self.addr = flags.value("--addr")?,
            "--retries" => self.retries = flags.value("--retries")?,
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
        Ok(())
    }

    /// Reads a tail that holds connection flags only.
    fn parse(mut flags: Flags) -> Result<Self, CliError> {
        let mut remote = Self::new();
        while let Some(flag) = flags.next() {
            remote.read(flag, &mut flags)?;
        }
        Ok(remote)
    }
}

/// Refuses a count-valued flag set to 0.
fn refuse_zero<T: Default + PartialEq>(
    flag: &'static str,
    value: Option<T>,
    reason: &'static str,
) -> Result<(), CliError> {
    if value == Some(T::default()) {
        return Err(CliError::InvalidFlagValue { flag, reason });
    }
    Ok(())
}

/// Why `--estimators 0` is refused, by every subcommand that takes it.
const NO_ESTIMATORS: &str = "the estimator count must be at least 1";

/// Parses the command line (excluding the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let command = it.next().ok_or(CliError::MissingCommand)?;
    let rest: Vec<String> = it.cloned().collect();
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "summary" => {
            let input = positional(&rest, 0, "edge-list path")?;
            if let Some(flag) = rest[1..].iter().find(|arg| arg.starts_with('-')) {
                return Err(CliError::UnknownFlag(flag.clone()));
            }
            Ok(Command::Summary {
                input: PathBuf::from(input),
            })
        }
        "count" => {
            let input = positional(&rest, 0, "edge-list path")?;
            let mut estimators = None;
            let mut batch = None;
            let mut seed = 1u64;
            let mut parallel = false;
            let mut shards = None;
            let mut algo: Option<String> = None;
            let mut window = None;
            let mut flags = Flags::after(&rest, 1);
            while let Some(flag) = flags.next() {
                match flag {
                    "--estimators" | "-r" => estimators = Some(flags.value("--estimators")?),
                    "--batch" | "-w" => batch = Some(flags.value("--batch")?),
                    "--seed" => seed = flags.value("--seed")?,
                    "--parallel" => parallel = true,
                    "--shards" => shards = Some(flags.value("--shards")?),
                    "--algo" | "-a" => algo = Some(flags.value("--algo")?),
                    "--window" => window = Some(flags.value("--window")?),
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            refuse_zero("--estimators", estimators, NO_ESTIMATORS)?;
            refuse_zero("--batch", batch, "batch size must be at least 1")?;
            refuse_zero("--shards", shards, "shard count must be at least 1")?;
            refuse_zero(
                "--window",
                window,
                "the window must contain at least one edge",
            )?;
            // `--shards` does nothing without `--parallel`: reject it rather
            // than ignore it.
            if shards.is_some() && !parallel {
                return Err(CliError::InvalidFlagValue {
                    flag: "--shards",
                    reason: "requires --parallel",
                });
            }
            if let Some(name) = &algo {
                registered(name)?;
            }
            if window.is_some() && algo.as_deref() != Some("sliding") {
                return Err(CliError::InvalidFlagValue {
                    flag: "--window",
                    reason: "requires --algo sliding",
                });
            }
            Ok(Command::Count {
                input: PathBuf::from(input),
                estimators,
                batch,
                seed,
                parallel,
                shards,
                algo,
                window,
            })
        }
        "transitivity" => {
            let input = positional(&rest, 0, "edge-list path")?;
            let mut estimators = 100_000usize;
            let mut seed = 1u64;
            let mut flags = Flags::after(&rest, 1);
            while let Some(flag) = flags.next() {
                match flag {
                    "--estimators" | "-r" => estimators = flags.value("--estimators")?,
                    "--seed" => seed = flags.value("--seed")?,
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            refuse_zero("--estimators", Some(estimators), NO_ESTIMATORS)?;
            Ok(Command::Transitivity {
                input: PathBuf::from(input),
                estimators,
                seed,
            })
        }
        "sample" => {
            let input = positional(&rest, 0, "edge-list path")?;
            let mut k = 1usize;
            let mut estimators = 50_000usize;
            let mut seed = 1u64;
            let mut flags = Flags::after(&rest, 1);
            while let Some(flag) = flags.next() {
                match flag {
                    "-k" | "--samples" => k = flags.value("-k")?,
                    "--estimators" | "-r" => estimators = flags.value("--estimators")?,
                    "--seed" => seed = flags.value("--seed")?,
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            refuse_zero("-k", Some(k), "the sample size must be at least 1")?;
            refuse_zero("--estimators", Some(estimators), NO_ESTIMATORS)?;
            Ok(Command::Sample {
                input: PathBuf::from(input),
                k,
                estimators,
                seed,
            })
        }
        "convert" => {
            let input = PathBuf::from(positional(&rest, 0, "input path")?);
            let mut output: Option<PathBuf> = None;
            let mut flags = Flags::after(&rest, 1);
            while let Some(flag) = flags.next() {
                match flag {
                    "--output" | "-o" => output = Some(flags.value("--output")?),
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            let output = output.ok_or(CliError::MissingArgument("--output FILE"))?;
            // The conversion direction comes from the extensions, so an
            // ambiguous pair is a usage error, not a guess.
            if is_tsb_path(&input) == is_tsb_path(&output) {
                return Err(CliError::InvalidFlagValue {
                    flag: "--output",
                    reason: "exactly one of INPUT and OUTPUT must have the .tsb extension",
                });
            }
            Ok(Command::Convert { input, output })
        }
        "bench" => {
            let mut smoke = false;
            let mut check = false;
            let mut seed = 1u64;
            let mut output = PathBuf::from("BENCH.json");
            let mut edges = None;
            let mut flags = Flags::after(&rest, 0);
            while let Some(flag) = flags.next() {
                match flag {
                    "--smoke" => smoke = true,
                    "--check" => check = true,
                    "--seed" => seed = flags.value("--seed")?,
                    "--output" | "-o" => output = flags.value("--output")?,
                    "--edges" => edges = Some(flags.value("--edges")?),
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            refuse_zero(
                "--edges",
                edges,
                "the ingest stream needs at least one edge",
            )?;
            Ok(Command::Bench {
                smoke,
                check,
                seed,
                output,
                edges,
            })
        }
        "serve" => {
            let mut addr = DEFAULT_SERVE_ADDR.to_string();
            let mut state_dir: Option<PathBuf> = None;
            let mut checkpoint_every = None;
            let mut idle_timeout_secs = None;
            let mut flags = Flags::after(&rest, 0);
            while let Some(flag) = flags.next() {
                match flag {
                    "--addr" => addr = flags.value("--addr")?,
                    "--state-dir" => state_dir = Some(flags.value("--state-dir")?),
                    "--checkpoint-every" => {
                        checkpoint_every = Some(flags.value("--checkpoint-every")?);
                    }
                    "--idle-timeout" => idle_timeout_secs = Some(flags.value("--idle-timeout")?),
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            refuse_zero(
                "--checkpoint-every",
                checkpoint_every,
                "the checkpoint cadence must be at least 1 EDGES frame",
            )?;
            if checkpoint_every.is_some() && state_dir.is_none() {
                return Err(CliError::InvalidFlagValue {
                    flag: "--checkpoint-every",
                    reason: "requires --state-dir (there is nowhere to checkpoint to)",
                });
            }
            refuse_zero(
                "--idle-timeout",
                idle_timeout_secs,
                "the idle deadline must be at least 1 second",
            )?;
            Ok(Command::Serve {
                addr,
                state_dir,
                checkpoint_every,
                idle_timeout_secs,
            })
        }
        "client" => parse_client(&rest),
        "checkpoint" => {
            let name = positional(&rest, 0, "stream name")?;
            let mut output: Option<PathBuf> = None;
            let mut remote = Remote::new();
            let mut flags = Flags::after(&rest, 1);
            while let Some(flag) = flags.next() {
                match flag {
                    "--output" | "-o" => output = Some(flags.value("--output")?),
                    other => remote.read(other, &mut flags)?,
                }
            }
            let output = output.ok_or(CliError::MissingArgument("--output FILE"))?;
            Ok(Command::Checkpoint {
                name,
                output,
                addr: remote.addr,
                retries: remote.retries,
            })
        }
        "restore" => {
            let input = positional(&rest, 0, "checkpoint file")?;
            let remote = Remote::parse(Flags::after(&rest, 1))?;
            Ok(Command::Restore {
                input: PathBuf::from(input),
                addr: remote.addr,
                retries: remote.retries,
            })
        }
        "generate" => {
            let dataset = positional(&rest, 0, "dataset name")?;
            let mut scale = 1u64;
            let mut seed = 1u64;
            let mut output: Option<PathBuf> = None;
            let mut flags = Flags::after(&rest, 1);
            while let Some(flag) = flags.next() {
                match flag {
                    "--scale" => scale = flags.value("--scale")?,
                    "--seed" => seed = flags.value("--seed")?,
                    "--output" | "-o" => output = Some(flags.value("--output")?),
                    other => return Err(CliError::UnknownFlag(other.to_string())),
                }
            }
            refuse_zero("--scale", Some(scale), "the scale must be at least 1")?;
            let output = output.ok_or(CliError::MissingArgument("--output FILE"))?;
            Ok(Command::Generate {
                dataset,
                scale,
                seed,
                output,
            })
        }
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// Parses `tristream-cli client <ACTION> …`. Every action accepts
/// `--addr` and `--retries`; the per-action flags mirror the CREATE
/// frame's fields.
fn parse_client(rest: &[String]) -> Result<Command, CliError> {
    let action = positional(
        rest,
        0,
        "client action (create|send|query|stats|delete|shutdown)",
    )?;
    let mut remote = Remote::new();
    let action = match action.as_str() {
        "create" => {
            let name = positional(rest, 1, "stream name")?;
            let mut algo: Option<String> = None;
            let mut seed = 0u64;
            let mut budget_words = 1u64 << 14;
            let mut shards = 0u16;
            let mut window = 0u64;
            let mut flags = Flags::after(rest, 2);
            while let Some(flag) = flags.next() {
                match flag {
                    "--algo" | "-a" => algo = Some(flags.value("--algo")?),
                    "--seed" => seed = flags.value("--seed")?,
                    "--budget" => budget_words = flags.value("--budget")?,
                    "--shards" => shards = flags.value("--shards")?,
                    "--window" => window = flags.value("--window")?,
                    other => remote.read(other, &mut flags)?,
                }
            }
            let algo = algo.ok_or(CliError::MissingArgument("--algo NAME"))?;
            registered(&algo)?;
            ClientAction::Create {
                name,
                algo,
                seed,
                budget_words,
                shards,
                window,
            }
        }
        "send" => {
            let name = positional(rest, 1, "stream name")?;
            let input = PathBuf::from(positional(rest, 2, "edge-list path")?);
            let mut batch = 4_096usize;
            let mut flags = Flags::after(rest, 3);
            while let Some(flag) = flags.next() {
                match flag {
                    "--batch" | "-w" => batch = flags.value("--batch")?,
                    other => remote.read(other, &mut flags)?,
                }
            }
            refuse_zero("--batch", Some(batch), "batch size must be at least 1")?;
            ClientAction::Send { name, input, batch }
        }
        "query" | "delete" => {
            let name = positional(rest, 1, "stream name")?;
            remote = Remote::parse(Flags::after(rest, 2))?;
            if action == "query" {
                ClientAction::Query { name }
            } else {
                ClientAction::Delete { name }
            }
        }
        "stats" | "shutdown" => {
            remote = Remote::parse(Flags::after(rest, 1))?;
            if action == "stats" {
                ClientAction::Stats
            } else {
                ClientAction::Shutdown
            }
        }
        other => return Err(CliError::UnknownCommand(format!("client {other}"))),
    };
    Ok(Command::Client {
        addr: remote.addr,
        retries: remote.retries,
        action,
    })
}

/// Checks an `--algo` name against the registry at parse time, so misuse
/// is a usage error (exit 2) whose message lists the registered names.
fn registered(algo: &str) -> Result<(), CliError> {
    find_algo(algo)
        .map(|_| ())
        .ok_or_else(|| CliError::AlgoUsage(format!("unknown algorithm {algo:?}")))
}

fn positional(rest: &[String], index: usize, what: &'static str) -> Result<String, CliError> {
    rest.get(index)
        .filter(|v| !v.starts_with('-'))
        .cloned()
        .ok_or(CliError::MissingArgument(what))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_variants_parse() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse_args(&args(&[h])).unwrap(), Command::Help);
        }
    }

    #[test]
    fn missing_and_unknown_commands_error() {
        assert_eq!(parse_args(&[]).unwrap_err(), CliError::MissingCommand);
        assert!(matches!(
            parse_args(&args(&["frobnicate"])).unwrap_err(),
            CliError::UnknownCommand(_)
        ));
    }

    #[test]
    fn summary_requires_an_input() {
        assert!(matches!(
            parse_args(&args(&["summary"])).unwrap_err(),
            CliError::MissingArgument(_)
        ));
        assert_eq!(
            parse_args(&args(&["summary", "g.txt"])).unwrap(),
            Command::Summary {
                input: PathBuf::from("g.txt")
            }
        );
    }

    #[test]
    fn count_defaults_and_flags() {
        let c = parse_args(&args(&["count", "g.txt"])).unwrap();
        assert_eq!(
            c,
            Command::Count {
                input: PathBuf::from("g.txt"),
                estimators: None,
                batch: None,
                seed: 1,
                parallel: false,
                shards: None,
                algo: None,
                window: None
            }
        );
        let c = parse_args(&args(&[
            "count", "g.txt", "-r", "5000", "--batch", "4096", "--seed", "9", "--algo", "exact",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Count {
                input: PathBuf::from("g.txt"),
                estimators: Some(5_000),
                batch: Some(4_096),
                seed: 9,
                parallel: false,
                shards: None,
                algo: Some("exact".into()),
                window: None
            }
        );
    }

    #[test]
    fn count_parallel_flags_parse() {
        let c = parse_args(&args(&["count", "g.txt", "--parallel", "--shards", "6"])).unwrap();
        assert_eq!(
            c,
            Command::Count {
                input: PathBuf::from("g.txt"),
                estimators: None,
                batch: None,
                seed: 1,
                parallel: true,
                shards: Some(6),
                algo: None,
                window: None
            }
        );
    }

    #[test]
    fn count_algo_flags_parse_for_every_registered_algorithm() {
        for name in tristream_baselines::algo_names() {
            let c = parse_args(&args(&["count", "g.txt", "--algo", name])).unwrap();
            assert!(
                matches!(&c, Command::Count { algo: Some(a), .. } if a == name),
                "{name}: {c:?}"
            );
        }
        let c = parse_args(&args(&[
            "count", "g.txt", "-a", "sliding", "--window", "500", "-r", "64",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Count {
                algo: Some(_),
                window: Some(500),
                estimators: Some(64),
                ..
            }
        ));
    }

    #[test]
    fn count_rejects_unknown_algo_with_the_registered_names_listed() {
        let err = parse_args(&args(&["count", "g.txt", "--algo", "frobnicate"])).unwrap_err();
        assert!(matches!(err, CliError::AlgoUsage(_)));
        let message = err.to_string();
        assert!(message.contains("frobnicate"), "{message}");
        for name in tristream_baselines::algo_names() {
            assert!(message.contains(name), "{message} must list {name}");
        }
    }

    #[test]
    fn count_rejects_exact_as_an_unknown_flag_alone_or_beside_algo() {
        // The exact count is `--algo exact`; there is no `--exact` flag, so
        // it is refused as unknown before `--algo` is even looked up.
        for argv in [
            &["count", "g.txt", "--exact"][..],
            &["count", "g.txt", "--algo", "buriol", "--exact"],
            &["count", "g.txt", "--exact", "--algo", "no-such-algo"],
        ] {
            assert_eq!(
                parse_args(&args(argv)).unwrap_err(),
                CliError::UnknownFlag("--exact".into()),
                "{argv:?}"
            );
        }
    }

    #[test]
    fn count_window_requires_the_sliding_algo() {
        let err = parse_args(&args(&["count", "g.txt", "--window", "10"])).unwrap_err();
        assert!(matches!(
            err,
            CliError::InvalidFlagValue {
                flag: "--window",
                ..
            }
        ));
        let err = parse_args(&args(&[
            "count", "g.txt", "--algo", "exact", "--window", "10",
        ]))
        .unwrap_err();
        assert!(matches!(
            err,
            CliError::InvalidFlagValue {
                flag: "--window",
                ..
            }
        ));
        let err = parse_args(&args(&[
            "count", "g.txt", "--algo", "sliding", "--window", "0",
        ]))
        .unwrap_err();
        assert!(matches!(
            err,
            CliError::InvalidFlagValue {
                flag: "--window",
                ..
            }
        ));
    }

    #[test]
    fn count_rejects_zero_batch_and_zero_shards_as_usage_errors() {
        // Regression: `--batch 0` used to parse fine and then trip the
        // `assert!(batch_size > 0)` inside `process_stream` — a panic, not
        // a usage error.
        let err = parse_args(&args(&["count", "g.txt", "--batch", "0"])).unwrap_err();
        assert_eq!(
            err,
            CliError::InvalidFlagValue {
                flag: "--batch",
                reason: "batch size must be at least 1"
            }
        );
        assert!(err.to_string().contains("--batch"));
        assert!(err.to_string().contains("at least 1"));
        let err = parse_args(&args(&["count", "g.txt", "--shards", "0"])).unwrap_err();
        assert!(matches!(
            err,
            CliError::InvalidFlagValue {
                flag: "--shards",
                ..
            }
        ));
        // `--estimators 0` used to print `space = 0` while the registry
        // silently ran one estimator (or kept the whole graph).
        for spelling in ["--estimators", "-r"] {
            let err = parse_args(&args(&["count", "g.txt", spelling, "0"])).unwrap_err();
            assert!(
                matches!(
                    err,
                    CliError::InvalidFlagValue {
                        flag: "--estimators",
                        ..
                    }
                ),
                "{spelling}: {err:?}"
            );
            assert!(err.to_string().contains("at least 1"), "{err}");
        }
    }

    #[test]
    fn count_rejects_silently_ignored_flag_combinations() {
        let err = parse_args(&args(&["count", "g.txt", "--shards", "4"])).unwrap_err();
        assert_eq!(
            err,
            CliError::InvalidFlagValue {
                flag: "--shards",
                reason: "requires --parallel"
            }
        );
    }

    #[test]
    fn count_rejects_bad_values_and_unknown_flags() {
        assert!(matches!(
            parse_args(&args(&["count", "g.txt", "--estimators", "lots"])).unwrap_err(),
            CliError::BadFlagValue(_)
        ));
        assert!(matches!(
            parse_args(&args(&["count", "g.txt", "--bogus"])).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
        assert!(matches!(
            parse_args(&args(&["count", "g.txt", "--estimators"])).unwrap_err(),
            CliError::BadFlagValue(_)
        ));
    }

    #[test]
    fn sample_and_transitivity_parse() {
        let s = parse_args(&args(&[
            "sample",
            "g.txt",
            "-k",
            "7",
            "--estimators",
            "1000",
        ]))
        .unwrap();
        assert_eq!(
            s,
            Command::Sample {
                input: PathBuf::from("g.txt"),
                k: 7,
                estimators: 1_000,
                seed: 1
            }
        );
        let t = parse_args(&args(&["transitivity", "g.txt", "--seed", "3"])).unwrap();
        assert_eq!(
            t,
            Command::Transitivity {
                input: PathBuf::from("g.txt"),
                estimators: 100_000,
                seed: 3
            }
        );
        // Zero counts are usage errors, not silently run as 1.
        for (argv, flag) in [
            (
                &["sample", "g.txt", "--estimators", "0"][..],
                "--estimators",
            ),
            (&["sample", "g.txt", "-k", "0"][..], "-k"),
            (&["sample", "g.txt", "--samples", "0"][..], "-k"),
            (
                &["transitivity", "g.txt", "--estimators", "0"][..],
                "--estimators",
            ),
        ] {
            let err = parse_args(&args(argv)).unwrap_err();
            assert!(
                matches!(err, CliError::InvalidFlagValue { flag: f, .. } if f == flag),
                "{argv:?}: {err:?}"
            );
            assert!(err.to_string().contains("at least 1"), "{err}");
        }
    }

    #[test]
    fn convert_infers_direction_from_extensions() {
        let c = parse_args(&args(&["convert", "g.txt", "--output", "g.tsb"])).unwrap();
        assert_eq!(
            c,
            Command::Convert {
                input: PathBuf::from("g.txt"),
                output: PathBuf::from("g.tsb"),
            }
        );
        let c = parse_args(&args(&["convert", "g.tsb", "-o", "g.txt"])).unwrap();
        assert_eq!(
            c,
            Command::Convert {
                input: PathBuf::from("g.tsb"),
                output: PathBuf::from("g.txt"),
            }
        );
        // `convert` writes no timestamp column.
        let err = parse_args(&args(&[
            "convert",
            "g.txt",
            "--output",
            "g.tsb",
            "--timestamps",
        ]))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::UnknownFlag(flag) if flag == "--timestamps"),
            "{err:?}"
        );
    }

    #[test]
    fn convert_rejects_ambiguous_or_invalid_usage() {
        assert!(matches!(
            parse_args(&args(&["convert", "g.txt"])).unwrap_err(),
            CliError::MissingArgument(_)
        ));
        // Neither side is .tsb.
        let err = parse_args(&args(&["convert", "a.txt", "--output", "b.txt"])).unwrap_err();
        assert!(matches!(
            err,
            CliError::InvalidFlagValue {
                flag: "--output",
                ..
            }
        ));
        // Both sides are .tsb.
        assert!(parse_args(&args(&["convert", "a.tsb", "--output", "b.tsb"])).is_err());
    }

    #[test]
    fn bench_defaults_and_flags() {
        let b = parse_args(&args(&["bench"])).unwrap();
        assert_eq!(
            b,
            Command::Bench {
                smoke: false,
                check: false,
                seed: 1,
                output: PathBuf::from("BENCH.json"),
                edges: None
            }
        );
        let b = parse_args(&args(&[
            "bench", "--smoke", "--check", "--seed", "9", "--output", "out.json", "--edges", "5000",
        ]))
        .unwrap();
        assert_eq!(
            b,
            Command::Bench {
                smoke: true,
                check: true,
                seed: 9,
                output: PathBuf::from("out.json"),
                edges: Some(5_000)
            }
        );
        assert!(matches!(
            parse_args(&args(&["bench", "--edges", "0"])).unwrap_err(),
            CliError::InvalidFlagValue {
                flag: "--edges",
                ..
            }
        ));
        assert!(matches!(
            parse_args(&args(&["bench", "--bogus"])).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(
            parse_args(&args(&["serve"])).unwrap(),
            Command::Serve {
                addr: DEFAULT_SERVE_ADDR.to_string(),
                state_dir: None,
                checkpoint_every: None,
                idle_timeout_secs: None,
            }
        );
        assert_eq!(
            parse_args(&args(&["serve", "--addr", "0.0.0.0:9999"])).unwrap(),
            Command::Serve {
                addr: "0.0.0.0:9999".to_string(),
                state_dir: None,
                checkpoint_every: None,
                idle_timeout_secs: None,
            }
        );
        assert!(matches!(
            parse_args(&args(&["serve", "--bogus"])).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
    }

    #[test]
    fn serve_durability_flags_parse_and_validate() {
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "--state-dir",
                "/var/lib/tristream",
                "--checkpoint-every",
                "16",
                "--idle-timeout",
                "30",
            ]))
            .unwrap(),
            Command::Serve {
                addr: DEFAULT_SERVE_ADDR.to_string(),
                state_dir: Some(PathBuf::from("/var/lib/tristream")),
                checkpoint_every: Some(16),
                idle_timeout_secs: Some(30),
            }
        );
        // A cadence with nowhere to write to is a usage error, not a
        // silently ignored flag.
        let err = parse_args(&args(&["serve", "--checkpoint-every", "4"])).unwrap_err();
        assert!(matches!(
            err,
            CliError::InvalidFlagValue {
                flag: "--checkpoint-every",
                ..
            }
        ));
        assert!(err.to_string().contains("--state-dir"), "{err}");
        // Zero values are rejected at parse time.
        assert!(matches!(
            parse_args(&args(&[
                "serve",
                "--state-dir",
                "d",
                "--checkpoint-every",
                "0"
            ]))
            .unwrap_err(),
            CliError::InvalidFlagValue {
                flag: "--checkpoint-every",
                ..
            }
        ));
        assert!(matches!(
            parse_args(&args(&["serve", "--idle-timeout", "0"])).unwrap_err(),
            CliError::InvalidFlagValue {
                flag: "--idle-timeout",
                ..
            }
        ));
    }

    #[test]
    fn checkpoint_and_restore_subcommands_parse() {
        assert_eq!(
            parse_args(&args(&[
                "checkpoint",
                "prod",
                "--output",
                "prod.tsc",
                "--retries",
                "3",
                "--addr",
                "10.0.0.1:7878",
            ]))
            .unwrap(),
            Command::Checkpoint {
                name: "prod".to_string(),
                output: PathBuf::from("prod.tsc"),
                addr: "10.0.0.1:7878".to_string(),
                retries: 3,
            }
        );
        // --output is required; the stream name is positional.
        assert!(matches!(
            parse_args(&args(&["checkpoint", "prod"])).unwrap_err(),
            CliError::MissingArgument("--output FILE")
        ));
        assert!(matches!(
            parse_args(&args(&["checkpoint"])).unwrap_err(),
            CliError::MissingArgument(_)
        ));
        assert_eq!(
            parse_args(&args(&["restore", "prod.tsc"])).unwrap(),
            Command::Restore {
                input: PathBuf::from("prod.tsc"),
                addr: DEFAULT_SERVE_ADDR.to_string(),
                retries: 0,
            }
        );
        assert!(matches!(
            parse_args(&args(&["restore"])).unwrap_err(),
            CliError::MissingArgument(_)
        ));
        assert!(matches!(
            parse_args(&args(&["restore", "prod.tsc", "--bogus"])).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
    }

    #[test]
    fn client_actions_parse() {
        let c = parse_args(&args(&[
            "client",
            "create",
            "prod",
            "--algo",
            "sliding",
            "--seed",
            "7",
            "--budget",
            "4096",
            "--shards",
            "2",
            "--window",
            "100",
            "--addr",
            "10.0.0.1:7878",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Client {
                addr: "10.0.0.1:7878".to_string(),
                retries: 0,
                action: ClientAction::Create {
                    name: "prod".to_string(),
                    algo: "sliding".to_string(),
                    seed: 7,
                    budget_words: 4_096,
                    shards: 2,
                    window: 100,
                },
            }
        );
        let c = parse_args(&args(&[
            "client", "send", "prod", "g.txt", "--batch", "512",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Client {
                addr: DEFAULT_SERVE_ADDR.to_string(),
                retries: 0,
                action: ClientAction::Send {
                    name: "prod".to_string(),
                    input: PathBuf::from("g.txt"),
                    batch: 512,
                },
            }
        );
        for (parts, action) in [
            (
                &["client", "query", "prod"][..],
                ClientAction::Query {
                    name: "prod".to_string(),
                },
            ),
            (
                &["client", "delete", "prod"][..],
                ClientAction::Delete {
                    name: "prod".to_string(),
                },
            ),
            (&["client", "stats"][..], ClientAction::Stats),
            (&["client", "shutdown"][..], ClientAction::Shutdown),
        ] {
            assert_eq!(
                parse_args(&args(parts)).unwrap(),
                Command::Client {
                    addr: DEFAULT_SERVE_ADDR.to_string(),
                    retries: 0,
                    action,
                }
            );
        }
    }

    #[test]
    fn every_client_action_accepts_retries() {
        for parts in [
            &["client", "query", "prod", "--retries", "4"][..],
            &["client", "delete", "prod", "--retries", "4"][..],
            &["client", "stats", "--retries", "4"][..],
            &["client", "shutdown", "--retries", "4"][..],
            &[
                "client",
                "create",
                "prod",
                "--algo",
                "exact",
                "--retries",
                "4",
            ][..],
            &["client", "send", "prod", "g.txt", "--retries", "4"][..],
        ] {
            let c = parse_args(&args(parts)).unwrap();
            assert!(
                matches!(c, Command::Client { retries: 4, .. }),
                "{parts:?}: {c:?}"
            );
        }
        assert!(matches!(
            parse_args(&args(&["client", "stats", "--retries", "lots"])).unwrap_err(),
            CliError::BadFlagValue(_)
        ));
    }

    #[test]
    fn client_rejects_misuse() {
        // create requires --algo, and validates it against the registry.
        assert!(matches!(
            parse_args(&args(&["client", "create", "prod"])).unwrap_err(),
            CliError::MissingArgument("--algo NAME")
        ));
        let err = parse_args(&args(&["client", "create", "prod", "--algo", "nope"])).unwrap_err();
        assert!(matches!(err, CliError::AlgoUsage(_)));
        assert!(err.to_string().contains("neighborhood-bulk"), "{err}");
        // send needs a file and a positive batch.
        assert!(matches!(
            parse_args(&args(&["client", "send", "prod"])).unwrap_err(),
            CliError::MissingArgument(_)
        ));
        assert!(matches!(
            parse_args(&args(&["client", "send", "prod", "g.txt", "--batch", "0"])).unwrap_err(),
            CliError::InvalidFlagValue {
                flag: "--batch",
                ..
            }
        ));
        // Unknown actions and stray flags are usage errors.
        assert!(matches!(
            parse_args(&args(&["client", "frobnicate"])).unwrap_err(),
            CliError::UnknownCommand(_)
        ));
        assert!(matches!(
            parse_args(&args(&["client"])).unwrap_err(),
            CliError::MissingArgument(_)
        ));
        assert!(matches!(
            parse_args(&args(&["client", "stats", "--bogus"])).unwrap_err(),
            CliError::UnknownFlag(_)
        ));
    }

    #[test]
    fn generate_requires_output() {
        assert!(matches!(
            parse_args(&args(&["generate", "orkut"])).unwrap_err(),
            CliError::MissingArgument(_)
        ));
        let g = parse_args(&args(&[
            "generate", "orkut", "--scale", "64", "--seed", "2", "--output", "o.txt",
        ]))
        .unwrap();
        assert_eq!(
            g,
            Command::Generate {
                dataset: "orkut".into(),
                scale: 64,
                seed: 2,
                output: PathBuf::from("o.txt")
            }
        );
        let err = parse_args(&args(&[
            "generate", "orkut", "--scale", "0", "--output", "o.txt",
        ]))
        .unwrap_err();
        assert!(
            matches!(
                err,
                CliError::InvalidFlagValue {
                    flag: "--scale",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(CliError::MissingCommand.to_string().contains("help"));
        assert!(CliError::UnknownCommand("x".into())
            .to_string()
            .contains('x'));
        assert!(CliError::BadFlagValue("--seed".into())
            .to_string()
            .contains("--seed"));
        assert!(!HELP.is_empty());
    }
}
