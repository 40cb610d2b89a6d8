//! Implementations of the CLI subcommands.
//!
//! Every command reads a SNAP-style edge list (or writes one, for
//! `generate`), runs the corresponding `tristream` algorithm, and renders a
//! short human-readable report. The functions return their report as a
//! `String` so they can be tested without capturing stdout.

use crate::args::{ClientAction, Command, HELP};
use std::cell::Cell;
use std::error::Error;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use tristream_baselines::registry::{find_algo, AlgoParams};
use tristream_bench::{run_suite, BenchConfig};
use tristream_core::parallel::drain_batch_source;
use tristream_core::{TransitivityEstimator, TriangleEstimator, TriangleSampler};
use tristream_gen::{DatasetKind, StandIn};
use tristream_graph::binary::{
    is_tsb_path, read_edges_binary_batched_file, read_edges_binary_file, write_edges_binary_file,
};
use tristream_graph::io::{read_edge_list_file, write_edge_list_file};
use tristream_graph::{Edge, EdgeStream, GraphError, GraphSummary};
use tristream_serve::{Client, RetryPolicy, Server, ServerOptions, StreamCheckpoint};

/// Reads a whole edge-stream file, picking the codec from the extension:
/// `.tsb` files use the binary reader (duplicates preserved — binary
/// streams are machine-written), everything else the SNAP text reader
/// (deduplicating, as before).
fn read_stream_auto<P: AsRef<Path>>(path: P) -> Result<EdgeStream, GraphError> {
    if is_tsb_path(&path) {
        read_edges_binary_file(path)
    } else {
        read_edge_list_file(path)
    }
}

/// Wraps a batch source, accumulating the wall clock spent inside
/// `next()` — file I/O plus record decoding, the decode component of
/// `count`'s split timing report.
struct TimedBatches<I> {
    inner: I,
    decode_secs: Rc<Cell<f64>>,
}

impl<I: Iterator<Item = Result<Vec<Edge>, GraphError>>> Iterator for TimedBatches<I> {
    type Item = Result<Vec<Edge>, GraphError>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = Instant::now();
        let item = self.inner.next();
        self.decode_secs
            .set(self.decode_secs.get() + start.elapsed().as_secs_f64());
        item
    }
}

/// The `count` subcommand's decode/estimate split line: how much of the
/// elapsed wall clock went to producing edges (file I/O + record decoding)
/// versus consuming them (estimation, including any wait for space in the
/// engine's queue).
fn split_line(decode_secs: f64, elapsed_secs: f64) -> String {
    format!(
        "wall clock: decode {decode_secs:.3} s, estimate {:.3} s\n",
        (elapsed_secs - decode_secs).max(0.0)
    )
}

/// Executes a parsed command and returns the report to print.
pub fn run(command: Command) -> Result<String, Box<dyn Error>> {
    match command {
        Command::Help => Ok(HELP.to_string()),
        Command::Summary { input } => {
            let stream = read_stream_auto(&input)?;
            let summary = GraphSummary::of_stream_with_order(&stream);
            Ok(format!("{}\n{}\n", input.display(), summary.one_line()))
        }
        Command::Count {
            input,
            estimators,
            batch,
            seed,
            parallel,
            shards,
            algo,
            window,
        } => {
            let name = algo.as_deref().unwrap_or(DEFAULT_COUNT_ALGO);
            run_count_algo(
                &input, name, estimators, batch, seed, parallel, shards, window,
            )
        }
        Command::Transitivity {
            input,
            estimators,
            seed,
        } => {
            let stream = read_stream_auto(&input)?;
            let mut est = TransitivityEstimator::new(estimators, seed);
            est.process_edges(stream.edges());
            Ok(format!(
                "estimated transitivity coefficient: {:.4} (tau-hat = {:.0}, zeta-hat = {:.0})\n",
                est.estimate(),
                est.triangle_estimate(),
                est.wedge_estimate()
            ))
        }
        Command::Sample {
            input,
            k,
            estimators,
            seed,
        } => {
            let stream = read_stream_auto(&input)?;
            let mut sampler = TriangleSampler::new(estimators, seed);
            sampler.process_edges(stream.edges());
            match sampler.sample_k(k) {
                Some(triangles) => {
                    let mut out = format!("{} uniform triangle sample(s):\n", triangles.len());
                    for t in triangles {
                        out.push_str(&format!("  {} {} {}\n", t[0], t[1], t[2]));
                    }
                    Ok(out)
                }
                None => Ok(
                    "not enough accepted samples — increase --estimators (Theorem 3.8 sizes the \
                     pool as 4·m·k·Δ·ln(e/δ)/τ)\n"
                        .to_string(),
                ),
            }
        }
        Command::Convert { input, output } => {
            if is_tsb_path(&output) {
                // Text → binary. The text reader deduplicates, matching
                // every other text-reading subcommand.
                let stream = read_edge_list_file(&input)?;
                write_edges_binary_file(stream.edges(), &output)?;
                Ok(format!(
                    "wrote {} edges to {} (.tsb v1)\n",
                    stream.len(),
                    output.display()
                ))
            } else {
                // Binary → text (the timestamp column of files from earlier
                // builds is skipped — the text format has no column for it).
                let stream = read_edges_binary_file(&input)?;
                write_edge_list_file(&stream, &output)?;
                Ok(format!(
                    "wrote {} edges to {} (SNAP-style text)\n",
                    stream.len(),
                    output.display()
                ))
            }
        }
        Command::Bench {
            smoke,
            check,
            seed,
            output,
            edges,
        } => {
            let mut config = if smoke {
                BenchConfig::smoke(seed)
            } else {
                BenchConfig::full(seed)
            };
            if let Some(edges) = edges {
                config.ingest_edges = edges;
            }
            let report = run_suite(&config)?;
            report.write_json_file(&output)?;
            let mut out = report.to_table().render();
            if let Some(speedup) = report.speedup("ingest-binary", "ingest-text") {
                out.push_str(&format!("binary vs text ingest speedup: {speedup:.2}x\n"));
            }
            if let Some(speedup) = report.speedup("hotpath-pooled-w4096", "hotpath-reference-w4096")
            {
                out.push_str(&format!(
                    "pooled vs reference bulk hot path (w=4096): {speedup:.2}x\n"
                ));
            }
            out.push_str(&format!("wrote {}\n", output.display()));
            // The accuracy gate runs in every build. The latency gates, both
            // release-only:
            // - hot-path: pooled rows must not be slower than their
            //   reference rows beyond the documented HOT_PATH_TOLERANCE.
            //   (The correctness half — bit-identical estimates — is
            //   asserted inside the workload itself, so reaching this point
            //   already proves it.)
            // - serve stall: one QUERY round trip must stay below
            //   SERVE_QUERY_P50_BOUND_SECS, under the 40 ms delayed-ACK
            //   timer a Nagle stall waits on.
            // Latency only means something for optimised code: in a debug
            // build the reference path leans on the pre-optimised libstd
            // HashMap while the pooled path's maps compile without
            // optimisation, so the ratio is noise — the gates are enforced
            // in release builds (what the CI perf-smoke job runs) and
            // skipped, visibly, otherwise.
            let gates = [
                (
                    "accuracy",
                    report.gate_failures(),
                    "exceeded the documented error bound",
                    false,
                ),
                (
                    "hot-path",
                    report.hot_path_regressions(),
                    "slower than the reference path beyond the documented tolerance",
                    true,
                ),
                (
                    "serve stall",
                    report.serve_stall_regressions(),
                    "p50 above the documented round-trip bound",
                    true,
                ),
            ];
            for (gate, failures, why, release_only) in gates {
                if release_only && cfg!(debug_assertions) {
                    out.push_str(&format!("{gate} gate: skipped (unoptimised build)\n"));
                } else if failures.is_empty() {
                    out.push_str(&format!("{gate} gate: ok\n"));
                } else {
                    out.push_str(&format!("{gate} gate: FAILED for {failures:?}\n"));
                    if check {
                        // The report is already on disk, so CI can upload the
                        // artifact even though the gate fails the job.
                        print!("{out}");
                        return Err(format!("{gate} gate failed: {failures:?} {why}").into());
                    }
                }
            }
            Ok(out)
        }
        Command::Serve {
            addr,
            state_dir,
            checkpoint_every,
            idle_timeout_secs,
        } => {
            let mut options = ServerOptions {
                state_dir,
                ..ServerOptions::default()
            };
            if let Some(every) = checkpoint_every {
                options.checkpoint_interval = every;
            }
            options.idle_timeout = idle_timeout_secs.map(std::time::Duration::from_secs);
            let server = Server::bind_with(addr.as_str(), options)?;
            let local = server.local_addr();
            // Recovery happened inside `bind_with`; report it before the
            // accept loop blocks so operators see what came back.
            for name in server.recovered_streams() {
                println!("tristream serve: recovered stream {name:?} from its checkpoint");
            }
            for path in server.skipped_checkpoints() {
                println!(
                    "tristream serve: skipped unreadable checkpoint {}",
                    path.display()
                );
            }
            // Printed (and flushed) before the accept loop blocks, so
            // scripts and tests can read the bound address back —
            // `--addr HOST:0` picks an ephemeral port.
            println!("tristream serve: listening on {local}");
            std::io::stdout().flush()?;
            server.run()?;
            Ok(format!("tristream serve: drained and stopped ({local})\n"))
        }
        Command::Client {
            addr,
            retries,
            action,
        } => run_client(&addr, RetryPolicy::new(retries), action),
        Command::Checkpoint {
            name,
            output,
            addr,
            retries,
        } => {
            let mut client = Client::connect_with_retry(addr.as_str(), RetryPolicy::new(retries))?;
            let bytes = client.snapshot(&name)?;
            std::fs::write(&output, &bytes)?;
            Ok(format!(
                "checkpointed stream {name:?} to {} ({} bytes)\n",
                output.display(),
                bytes.len()
            ))
        }
        Command::Restore {
            input,
            addr,
            retries,
        } => {
            let bytes = std::fs::read(&input)?;
            // Decode locally first: a corrupt file is reported with the
            // typed snapshot error before any connection is made, and the
            // report can name the stream being restored.
            let checkpoint = StreamCheckpoint::decode(&bytes)?;
            let mut client = Client::connect_with_retry(addr.as_str(), RetryPolicy::new(retries))?;
            // The RESTORE request itself is deliberately not retried: it
            // mutates the server, and an ambiguous outcome must surface.
            client.restore(&bytes)?;
            Ok(format!(
                "restored stream {:?} (algo = {}, {} edges replayed into the checkpoint)\n",
                checkpoint.name, checkpoint.algo, checkpoint.replay_edges
            ))
        }
        Command::Generate {
            dataset,
            scale,
            seed,
            output,
        } => {
            let kind = dataset_from_slug(&dataset)
                .ok_or_else(|| format!("unknown dataset {dataset:?}; see `tristream-cli help`"))?;
            let denominator = kind.default_scale_denominator().saturating_mul(scale);
            let stand_in = StandIn::generate_scaled(kind, denominator, seed);
            write_edge_list_file(&stand_in.stream, &output)?;
            Ok(format!(
                "wrote {} ({} edges, scale 1/{}) to {}\n",
                kind.spec().name,
                stand_in.stream.len(),
                denominator,
                output.display()
            ))
        }
    }
}

/// The registry algorithm `count` runs when no `--algo` is given.
const DEFAULT_COUNT_ALGO: &str = "neighborhood-bulk";

/// `count [--algo <name>]`: runs a registry algorithm over the input — text
/// or `.tsb`, sequentially through [`AlgoSpec::build`] or sharded across
/// the generic engine through [`AlgoSpec::build_sharded`], the recipe the
/// serve daemon's CREATE uses too.
///
/// [`AlgoSpec::build`]: tristream_baselines::registry::AlgoSpec::build
/// [`AlgoSpec::build_sharded`]: tristream_baselines::registry::AlgoSpec::build_sharded
#[allow(clippy::too_many_arguments)]
fn run_count_algo(
    input: &Path,
    name: &str,
    estimators: Option<usize>,
    batch: Option<usize>,
    seed: u64,
    parallel: bool,
    shards: Option<usize>,
    window: Option<u64>,
) -> Result<String, Box<dyn Error>> {
    let spec = find_algo(name)
        .ok_or_else(|| format!("unknown algorithm {name:?}; see `tristream-cli help`"))?;
    let space = estimators.unwrap_or(spec.default_space);
    // Sampling pools want the paper's w ≈ 8r; small-space algorithms
    // (e.g. a handful of colors) still deserve real batches.
    let batch = batch.unwrap_or_else(|| space.saturating_mul(8).clamp(4_096, 1 << 20));
    let params = AlgoParams {
        space,
        seed,
        window,
    };
    let start = Instant::now();
    let decode_secs = Rc::new(Cell::new(0.0));
    let (mut counter, shards_note): (Box<dyn TriangleEstimator>, String) = if parallel {
        let shards = shards.unwrap_or_else(default_shards);
        let counter = spec.build_sharded(&params, shards);
        (Box::new(counter), format!("shards = {shards}, "))
    } else {
        (spec.build(&params), String::new())
    };
    // `.tsb` inputs stream batch by batch (the batched and whole-file
    // binary readers produce identical streams, so this changes peak
    // memory, not results); under `--parallel` the batches are decoded on
    // the calling thread while the shards work. Text inputs go through the
    // deduplicating whole-file reader on every path, so every form of
    // `count` reads the same stream.
    let edges = if is_tsb_path(input) {
        let source = TimedBatches {
            inner: read_edges_binary_batched_file(input, batch)?,
            decode_secs: Rc::clone(&decode_secs),
        };
        drain_batch_source(source, |chunk| counter.process_edges(chunk))?
    } else {
        let read_start = Instant::now();
        let stream = read_edge_list_file(input)?;
        decode_secs.set(read_start.elapsed().as_secs_f64());
        for chunk in stream.edges().chunks(batch) {
            counter.process_edges(chunk);
        }
        stream.len() as u64
    };
    // A sharded `estimate()` synchronises with the workers, so the wall
    // clock measured after it covers processing, not just enqueueing.
    let estimate = counter.estimate();
    let elapsed = start.elapsed().as_secs_f64();
    let held = counter
        .estimators_with_triangle()
        .map(|k| format!(", {k} estimators hold a triangle"))
        .unwrap_or_default();
    Ok(format!(
        "estimated triangle count: {:.0} (algo = {}, space = {}, {}batch = {}, {} edges in \
         {:.3} s, memory = {} words{})\n{}{}",
        estimate,
        spec.name,
        space,
        shards_note,
        batch,
        edges,
        elapsed,
        counter.memory_words(),
        held,
        throughput_line(edges, elapsed),
        split_line(decode_secs.get(), elapsed)
    ))
}

/// `client <ACTION>`: one connection, one operation, one report. The
/// errors are the typed client errors, so a server-side refusal (unknown
/// stream, draining, …) renders with its protocol error code and detail.
/// `--retries` is the connection's retry policy: the connect and the reads
/// (QUERY, STATS) retry transport failures under it, while every other
/// request is sent once, so a transport failure there stays unambiguous.
fn run_client(
    addr: &str,
    policy: RetryPolicy,
    action: ClientAction,
) -> Result<String, Box<dyn Error>> {
    let mut client = Client::connect_with_retry(addr, policy)?;
    match action {
        ClientAction::Create(recipe) => {
            client.create_stream(&recipe)?;
            Ok(format!(
                "created stream {:?} (algo = {}, seed = {}, budget = {} words)\n",
                recipe.name, recipe.algo, recipe.seed, recipe.budget_words
            ))
        }
        ClientAction::Send { name, input, batch } => {
            // The client controls batch boundaries: one EDGES frame is one
            // engine batch, so `--batch` here means what it means offline.
            let stream = read_stream_auto(&input)?;
            let frames = client.send_edges_batched(&name, stream.edges(), batch)?;
            // A QUERY on another connection answers at the frontier, which
            // may trail acknowledged edges; one on this connection returns
            // once they are all in, so a later `client query` sees them.
            // It follows EDGES, so it is not retried.
            client.query(&name)?;
            Ok(format!(
                "sent {} edges to {name:?} in {frames} EDGES frame(s) of up to {batch}\n",
                stream.len()
            ))
        }
        ClientAction::Query { name } => {
            let reply = client.query(&name)?;
            Ok(format!(
                "stream {name:?}: estimate = {:.0} ({} edges, memory = {} words)\n",
                reply.estimate, reply.edges, reply.memory_words
            ))
        }
        ClientAction::Stats => {
            let streams = client.stats()?;
            if streams.is_empty() {
                return Ok("no live streams\n".to_string());
            }
            let mut out = String::new();
            for s in streams {
                out.push_str(&format!(
                    "{} (algo = {}): estimate = {:.0}, {} edges in {} batches, memory = {} \
                     words, {} queries\n",
                    s.name,
                    s.algo,
                    s.estimate,
                    s.edges,
                    s.ingest_batches,
                    s.memory_words,
                    s.queries
                ));
            }
            Ok(out)
        }
        ClientAction::Delete { name } => {
            client.delete(&name)?;
            Ok(format!("deleted stream {name:?}\n"))
        }
        ClientAction::Shutdown => {
            client.shutdown()?;
            Ok("server acknowledged shutdown and is draining\n".to_string())
        }
    }
}

/// The `count` subcommand's throughput report line: wall-clock edges/sec
/// over the edges ingested. Sub-microsecond elapsed times (empty or
/// trivially small inputs) report 0 instead of a nonsense rate.
fn throughput_line(edges: u64, elapsed_secs: f64) -> String {
    let rate = if elapsed_secs > 1e-9 {
        edges as f64 / elapsed_secs
    } else {
        0.0
    };
    format!("throughput: {rate:.0} edges/sec\n")
}

/// Default shard count for `count --parallel`: the number of available
/// CPUs, or 1 when that cannot be determined.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps a CLI dataset slug to its [`DatasetKind`].
pub fn dataset_from_slug(slug: &str) -> Option<DatasetKind> {
    DatasetKind::all().into_iter().find(|k| k.slug() == slug)
}

/// Convenience used by tests: writes a stream to a temporary file and
/// returns its path.
pub fn write_temp_stream(stream: &EdgeStream, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("tristream-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let path = dir.join(name);
    // Tests running in parallel rewrite the same file: each writes its own
    // copy and renames it over, so no reader sees a half-written list.
    let writer = format!("{}-{:?}", std::process::id(), std::thread::current().id());
    let staging = dir.join(format!("{name}.{writer}.tmp"));
    write_edge_list_file(stream, &staging).expect("temp file is writable");
    std::fs::rename(&staging, &path).expect("temp file is renamable");
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;
    use tristream_serve::CreateStream;

    fn sample_graph_path() -> std::path::PathBuf {
        // 1,000-ish triangles, 3,000 edges: the paper's Table 1 workload.
        let stream = tristream_gen::triangle_rich_three_regular(2_000, 3);
        write_temp_stream(&stream, "syn3reg.txt")
    }

    #[test]
    fn summary_reports_graph_statistics() {
        let path = sample_graph_path();
        let out = run(Command::Summary { input: path }).unwrap();
        assert!(out.contains("n=2000"));
        assert!(out.contains("m=3000"));
    }

    #[test]
    fn count_estimates_and_exact_agree() {
        let path = sample_graph_path();
        let approx = run(Command::Count {
            input: path.clone(),
            estimators: Some(20_000),
            batch: None,
            seed: 3,
            parallel: false,
            shards: None,
            algo: None,
            window: None,
        })
        .unwrap();
        let exact = run(Command::Count {
            input: path,
            estimators: None,
            batch: None,
            seed: 0,
            parallel: false,
            shards: None,
            algo: Some("exact".into()),
            window: None,
        })
        .unwrap();
        assert!(approx.contains("estimated triangle count"));
        assert!(
            exact.contains("triangle count: 1000 (algo = exact"),
            "{exact}"
        );
    }

    #[test]
    fn count_parallel_streams_the_file_through_the_sharded_pool() {
        let path = sample_graph_path();
        let out = run(Command::Count {
            input: path,
            estimators: Some(20_000),
            batch: Some(1_024),
            seed: 3,
            parallel: true,
            shards: Some(3),
            algo: None,
            window: None,
        })
        .unwrap();
        assert!(out.contains("estimated triangle count"), "{out}");
        assert!(out.contains("shards = 3"), "{out}");
        assert!(out.contains("3000 edges"), "{out}");
    }

    #[test]
    fn count_algo_runs_every_registry_algorithm_sequentially_and_sharded() {
        // ~1000 triangles in the syn-3-reg stand-in; every registered
        // algorithm must produce a report through both execution paths.
        let path = sample_graph_path();
        for spec in tristream_baselines::registry() {
            for parallel in [false, true] {
                let out = run(Command::Count {
                    input: path.clone(),
                    estimators: Some(2_000),
                    batch: Some(1_024),
                    seed: 5,
                    parallel,
                    shards: parallel.then_some(2),
                    algo: Some(spec.name.to_string()),
                    window: None,
                })
                .unwrap();
                assert!(
                    out.contains(&format!("algo = {}", spec.name)),
                    "{}: {out}",
                    spec.name
                );
                assert!(out.contains("memory = "), "{}: {out}", spec.name);
                if parallel {
                    assert!(out.contains("shards = 2"), "{}: {out}", spec.name);
                }
            }
        }
    }

    #[test]
    fn count_algo_parallel_splits_pool_sizes_across_shards_like_the_default_path() {
        // `--estimators` must mean the same thing with and without
        // `--parallel`: a pool of r split as ceil(r/shards) per shard, so
        // total memory stays ~constant instead of multiplying by the
        // shard count.
        let path = sample_graph_path();
        let memory_of = |parallel: bool| {
            let out = run(Command::Count {
                input: path.clone(),
                estimators: Some(2_000),
                batch: Some(1_024),
                seed: 5,
                parallel,
                shards: parallel.then_some(4),
                algo: Some("neighborhood-bulk".into()),
                window: None,
            })
            .unwrap();
            let words: u64 = out
                .split("memory = ")
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            words
        };
        assert_eq!(
            memory_of(false),
            memory_of(true),
            "2000 estimators across 4 shards must not become 8000"
        );
    }

    #[test]
    fn count_algo_exact_matches_the_offline_exact_count() {
        let path = sample_graph_path();
        let out = run(Command::Count {
            input: path.clone(),
            estimators: None,
            batch: None,
            seed: 1,
            parallel: false,
            shards: None,
            algo: Some("exact".into()),
            window: None,
        })
        .unwrap();
        let stream = read_edge_list_file(&path).unwrap();
        let truth = tristream_graph::exact::count_triangles(
            &tristream_graph::Adjacency::from_stream(&stream),
        );
        assert!(
            out.contains(&format!("triangle count: {truth} (algo = exact")),
            "{out}"
        );
    }

    #[test]
    fn count_algo_sliding_honours_the_window() {
        // A window of 1 can never hold a triangle, whatever the stream.
        let path = sample_graph_path();
        let out = run(Command::Count {
            input: path,
            estimators: Some(256),
            batch: None,
            seed: 3,
            parallel: false,
            shards: None,
            algo: Some("sliding".into()),
            window: Some(1),
        })
        .unwrap();
        assert!(
            out.contains("estimated triangle count: 0 "),
            "window of one edge must estimate zero: {out}"
        );
    }

    #[test]
    fn transitivity_and_sample_commands_work() {
        let path = sample_graph_path();
        let t = run(Command::Transitivity {
            input: path.clone(),
            estimators: 20_000,
            seed: 5,
        })
        .unwrap();
        assert!(t.contains("transitivity coefficient"));
        let s = run(Command::Sample {
            input: path,
            k: 2,
            estimators: 20_000,
            seed: 7,
        })
        .unwrap();
        assert!(s.contains("triangle sample") || s.contains("not enough"));
    }

    #[test]
    fn generate_round_trips_through_summary() {
        let out_path = std::env::temp_dir()
            .join("tristream-cli-tests")
            .join("gen.txt");
        std::fs::create_dir_all(out_path.parent().unwrap()).unwrap();
        let g = run(Command::Generate {
            dataset: "syn-3-reg".into(),
            scale: 1,
            seed: 9,
            output: out_path.clone(),
        })
        .unwrap();
        assert!(g.contains("wrote"));
        let s = run(Command::Summary { input: out_path }).unwrap();
        assert!(s.contains("m=3000"));
    }

    #[test]
    fn convert_round_trips_text_to_tsb_and_back() {
        let text_in = sample_graph_path();
        let dir = std::env::temp_dir().join("tristream-cli-tests");
        let tsb = dir.join("roundtrip.tsb");
        let text_out = dir.join("roundtrip-back.txt");

        let out = run(Command::Convert {
            input: text_in.clone(),
            output: tsb.clone(),
        })
        .unwrap();
        assert!(out.contains("3000 edges"), "{out}");
        assert!(out.contains(".tsb"), "{out}");

        let out = run(Command::Convert {
            input: tsb.clone(),
            output: text_out.clone(),
        })
        .unwrap();
        assert!(out.contains("3000 edges"), "{out}");

        let original = tristream_graph::io::read_edge_list_file(&text_in).unwrap();
        let round_tripped = tristream_graph::io::read_edge_list_file(&text_out).unwrap();
        assert_eq!(original.edges(), round_tripped.edges());
    }

    #[test]
    fn converted_tsb_is_read_transparently_by_every_subcommand() {
        let text_in = sample_graph_path();
        let tsb = std::env::temp_dir()
            .join("tristream-cli-tests")
            .join("transparent.tsb");
        run(Command::Convert {
            input: text_in.clone(),
            output: tsb.clone(),
        })
        .unwrap();

        let summary = run(Command::Summary { input: tsb.clone() }).unwrap();
        assert!(summary.contains("n=2000"), "{summary}");
        assert!(summary.contains("m=3000"), "{summary}");

        // Sequential count from .tsb must match the count from text: the
        // same stream feeds the same seeded counter. Only the elapsed-time
        // field may differ between the two reports.
        let count = |input: std::path::PathBuf| {
            run(Command::Count {
                input,
                estimators: Some(5_000),
                batch: None,
                seed: 3,
                parallel: false,
                shards: None,
                algo: None,
                window: None,
            })
            .unwrap()
        };
        let without_elapsed = |report: String| {
            // Strip the wall-clock-dependent parts: the elapsed field, the
            // throughput line, and the decode/estimate split.
            let report: String = report
                .lines()
                .filter(|line| !line.starts_with("throughput:") && !line.starts_with("wall clock:"))
                .collect();
            let (head, tail) = report.split_once(" in ").expect("report has a time field");
            let (_, tail) = tail.split_once(" s, ").expect("report has a time field");
            format!("{head} … {tail}")
        };
        assert_eq!(
            without_elapsed(count(tsb.clone())),
            without_elapsed(count(text_in))
        );

        // Parallel count streams the binary file through the engine.
        let parallel = run(Command::Count {
            input: tsb,
            estimators: Some(5_000),
            batch: Some(512),
            seed: 3,
            parallel: true,
            shards: Some(2),
            algo: None,
            window: None,
        })
        .unwrap();
        assert!(parallel.contains("3000 edges"), "{parallel}");
    }

    #[test]
    fn corrupt_tsb_input_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join("tristream-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let bogus = dir.join("bogus.tsb");
        std::fs::write(&bogus, b"definitely not a tsb stream").unwrap();
        let err = run(Command::Summary { input: bogus }).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn bench_writes_a_report_and_gates_on_accuracy() {
        let dir = std::env::temp_dir().join("tristream-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join(format!("bench-{}.json", std::process::id()));
        let out = run(Command::Bench {
            smoke: true,
            check: true,
            seed: 1,
            output: json_path.clone(),
            // Tiny ingest stream: this is a debug-mode unit test; the CI
            // perf-smoke job runs the real 1M-edge stream in release.
            edges: Some(2_000),
        })
        .unwrap();
        assert!(out.contains("accuracy gate: ok"), "{out}");
        assert!(out.contains("ingest speedup"), "{out}");
        // Debug builds report the latency half of the hot-path gate as
        // skipped; release test runs (CI's test-release job) enforce it.
        assert!(
            out.contains("hot-path gate: ok") || out.contains("hot-path gate: skipped"),
            "{out}"
        );
        assert!(out.contains("pooled vs reference bulk hot path"), "{out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"schema\": \"tristream-bench\""), "{json}");
        assert!(json.contains("\"mode\": \"smoke\""), "{json}");
        assert!(json.contains("\"hotpath-pooled-w65536\""), "{json}");
        assert!(json.contains("\"hotpath-pooled-w4096\""), "{json}");
        assert!(json.contains("\"hotpath-reference-w4096\""), "{json}");
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn client_commands_drive_a_live_daemon_end_to_end() {
        // An in-process daemon; the CLI `serve` arm adds only the startup
        // banner around `Server::run`, which the smoke test covers.
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run());

        let path = sample_graph_path();
        let client = |action: ClientAction| {
            run(Command::Client {
                addr: addr.clone(),
                retries: 0,
                action,
            })
        };
        let out = client(ClientAction::Create(CreateStream {
            name: "prod".into(),
            algo: "exact".into(),
            seed: 0,
            budget_words: 1 << 14,
            shards: 0,
            window: 0,
        }))
        .unwrap();
        assert!(out.contains("created stream \"prod\""), "{out}");
        let out = client(ClientAction::Send {
            name: "prod".into(),
            input: path,
            batch: 1_024,
        })
        .unwrap();
        assert!(out.contains("sent 3000 edges"), "{out}");
        let out = client(ClientAction::Query {
            name: "prod".into(),
        })
        .unwrap();
        // The exact counter over the syn-3-reg stand-in: 1000 triangles.
        assert!(out.contains("estimate = 1000 "), "{out}");
        assert!(out.contains("3000 edges"), "{out}");
        let out = client(ClientAction::Stats).unwrap();
        assert!(out.contains("prod (algo = exact)"), "{out}");
        // Server-side refusals render as typed errors, not panics.
        let err = client(ClientAction::Query {
            name: "ghost".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("UNKNOWN_STREAM"), "{err}");
        let out = client(ClientAction::Delete {
            name: "prod".into(),
        })
        .unwrap();
        assert!(out.contains("deleted stream"), "{out}");
        assert_eq!(client(ClientAction::Stats).unwrap(), "no live streams\n");
        let out = client(ClientAction::Shutdown).unwrap();
        assert!(out.contains("draining"), "{out}");
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn checkpoint_and_restore_round_trip_through_a_live_daemon() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run());

        let path = sample_graph_path();
        let client = |action: ClientAction| {
            run(Command::Client {
                addr: addr.clone(),
                retries: 0,
                action,
            })
        };
        client(ClientAction::Create(CreateStream {
            name: "prod".into(),
            algo: "neighborhood-bulk".into(),
            seed: 11,
            budget_words: 1 << 14,
            shards: 2,
            window: 0,
        }))
        .unwrap();
        client(ClientAction::Send {
            name: "prod".into(),
            input: path,
            batch: 1_024,
        })
        .unwrap();
        let estimate_line = client(ClientAction::Query {
            name: "prod".into(),
        })
        .unwrap();

        let dir = std::env::temp_dir().join("tristream-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join(format!("prod-{}.tsc", std::process::id()));
        let out = run(Command::Checkpoint {
            name: "prod".into(),
            output: file.clone(),
            addr: addr.clone(),
            retries: 0,
        })
        .unwrap();
        assert!(out.contains("checkpointed stream \"prod\""), "{out}");

        // Delete the live stream, then resurrect it from the file: the
        // estimate must come back bit-identical.
        client(ClientAction::Delete {
            name: "prod".into(),
        })
        .unwrap();
        let out = run(Command::Restore {
            input: file.clone(),
            addr: addr.clone(),
            retries: 0,
        })
        .unwrap();
        assert!(out.contains("restored stream \"prod\""), "{out}");
        assert!(out.contains("neighborhood-bulk"), "{out}");
        assert_eq!(
            client(ClientAction::Query {
                name: "prod".into(),
            })
            .unwrap(),
            estimate_line
        );

        // A corrupt checkpoint file fails locally with the typed snapshot
        // error, before touching the daemon.
        let bogus = dir.join(format!("bogus-{}.tsc", std::process::id()));
        std::fs::write(&bogus, b"definitely not a checkpoint").unwrap();
        let err = run(Command::Restore {
            input: bogus.clone(),
            addr: addr.clone(),
            retries: 0,
        })
        .unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        client(ClientAction::Shutdown).unwrap();
        daemon.join().unwrap().unwrap();
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&bogus).ok();
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let err = run(Command::Generate {
            dataset: "not-a-dataset".into(),
            scale: 1,
            seed: 1,
            output: "x.txt".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown dataset"));
    }

    #[test]
    fn help_command_prints_usage() {
        let out = run(Command::Help).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn slug_mapping_covers_all_datasets() {
        for kind in DatasetKind::all() {
            assert_eq!(dataset_from_slug(kind.slug()), Some(kind));
        }
        assert_eq!(dataset_from_slug("nope"), None);
    }
}
