//! `offline-count`: the release `tristream-cli count` process, run as a
//! child on the workload's `.tsb` file, back to back for the run's
//! seconds.

use crate::inputs::{self, Input};
use crate::report::{Metric, Outcome};
use crate::stats::{median, percentile, tail_percentile};
use crate::{layers, now, procs, serve, twin, RunConfig, Workload, ALGO, SHARDS};
use std::path::Path;

/// `count` invocations on a one-edge prefix per run, for `setup_s`.
pub const SETUP_REPS: usize = 9;

/// `count` runs in a traced run, which only needs their answers.
const TRACE_RUNS: usize = 2;

/// The `count` command line for `path`.
pub fn count_args(path: &Path, w: &Workload, seed: u64) -> Vec<String> {
    [
        "count",
        &path.display().to_string(),
        "--parallel",
        "--shards",
        &SHARDS.to_string(),
        "--algo",
        ALGO,
        "--estimators",
        &w.recipe.space().to_string(),
        "--batch",
        &w.batch.to_string(),
        "--seed",
        &seed.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The rounded estimate and the edge count from `count`'s report, read by
/// stable prefixes only: the line starting `estimated triangle count: `,
/// its first token, and the number before ` edges in `.
pub fn parse_count(stdout: &str) -> Option<(String, u64)> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("estimated triangle count: "))?;
    let estimate = line.split_whitespace().next()?.to_string();
    let before = &line[..line.find(" edges in ")?];
    let edges = before.rsplit([' ', ',', '(']).next()?.parse().ok()?;
    Some((estimate, edges))
}

/// Runs `count` once and records it as one operation: it must exit 0 and
/// report `want` (rounded estimate, edges).
fn checked_count(
    cfg: &RunConfig,
    args: &[String],
    want: &(String, u64),
    o: &mut Outcome,
) -> Result<procs::CountRun, String> {
    let run = procs::run_count(&cfg.cli, args)?;
    let got = parse_count(&run.stdout);
    o.check(run.status.success() && got.as_ref() == Some(want), || {
        format!(
            "count {}: exit {}, reported {got:?}, the twin says {want:?}",
            args[1], run.status
        )
    });
    Ok(run)
}

/// [`calibrate`]'s time on the two-core machine the benchmark was sized
/// on, when quiet: the speed every offline timing is scaled to.
pub const CALIBRATION_REF_S: f64 = 0.05;

/// Fixed work shaped like the bulk kernel's — random read-modify-writes
/// over a 4 MiB table on each of [`SHARDS`] threads — timed right before
/// each `count` run. It does not touch tristream code, so a change to the
/// program cannot move it; only the machine's speed can.
pub fn calibrate() -> f64 {
    const WORDS: usize = 1 << 19;
    const STEPS: usize = 10_000_000;
    let start = now();
    std::thread::scope(|s| {
        for t in 0..SHARDS {
            s.spawn(move || {
                let mut table = vec![0u64; WORDS];
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t as u64;
                for _ in 0..STEPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = (x as usize) & (WORDS - 1);
                    table[i] = table[i].wrapping_add(x);
                }
                std::hint::black_box(&table);
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// One `count` run's wall time, raw and scaled to the reference speed by
/// the calibration taken just before it.
#[derive(Debug, Clone, Copy)]
struct Timed {
    raw_s: f64,
    scaled_s: f64,
}

/// Calibrates, then runs `count` once as one checked operation.
fn timed_count(
    cfg: &RunConfig,
    args: &[String],
    want: &(String, u64),
    o: &mut Outcome,
) -> Result<(Timed, Option<u64>), String> {
    let calibration = calibrate();
    let run = checked_count(cfg, args, want, o)?;
    let raw_s = run.wall.as_secs_f64();
    let scaled_s = raw_s * CALIBRATION_REF_S / calibration;
    Ok((Timed { raw_s, scaled_s }, run.peak_kib))
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, input: &Input) -> Result<Outcome, String> {
    let w = cfg.workload;
    let mut o = Outcome::default();
    let (twin_estimate, _) = twin(&input.path, &w, cfg.seed)?;
    let want = (format!("{twin_estimate:.0}"), input.stats.m);

    let prefix = inputs::one_edge_prefix(input)?;
    let prefix_want = (format!("{:.0}", twin(&prefix, &w, cfg.seed)?.0), 1);
    let setup_args = count_args(&prefix, &w, cfg.seed);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        setup.push(timed_count(cfg, &setup_args, &prefix_want, &mut o)?.0);
    }

    let args = count_args(&input.path, &w, cfg.seed);
    let mut runs = Vec::new();
    let mut peaks = Vec::new();
    let start = now();
    loop {
        let (timed, peak_kib) = timed_count(cfg, &args, &want, &mut o)?;
        runs.push(timed);
        peaks.extend(peak_kib.map(|kib| kib as f64 / 1024.0));
        let done = if cfg.trace {
            runs.len() >= TRACE_RUNS
        } else {
            runs.len() >= 3 && start.elapsed().as_secs_f64() >= cfg.seconds
        };
        if done {
            break;
        }
    }

    if cfg.trace {
        // The socket layer is not on this workload's path; a short replay
        // of the same stream and recipe through `serve` measures what it
        // would cost here.
        let session = serve::session(cfg, input, twin_estimate.to_bits(), &serve::Plan::probe())?;
        session.ops.add_to(&mut o);
        o.metrics = layers::per_layer(cfg, input, &mut o, &session.ops, twin_estimate)?;
        return Ok(o);
    }

    let m = input.stats.m as f64;
    let n = runs.len();
    let scaled: Vec<f64> = runs.iter().map(|t| t.scaled_s).collect();
    let raw: Vec<f64> = runs.iter().map(|t| t.raw_s).collect();
    let rate = |walls: &[f64]| median(&walls.iter().map(|s| m / s).collect::<Vec<_>>());
    let setup_scaled: Vec<f64> = setup.iter().map(|t| t.scaled_s).collect();
    let setup_raw: Vec<f64> = setup.iter().map(|t| t.raw_s).collect();
    let scaled_note = "at the reference speed";
    let tail = tail_percentile(n).unwrap_or(50);
    o.metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&setup_scaled),
            SETUP_REPS,
            format!("median `count` wall on a one-edge prefix, {scaled_note}"),
        ),
        Metric::new(
            "edges_per_s",
            "edges/s",
            rate(&scaled),
            n,
            format!("median stream edges / `count` wall, {scaled_note}"),
        ),
        Metric::new(
            "request_p50_ms",
            "ms",
            median(&scaled) * 1e3,
            n,
            format!("median `count` wall (one run is one request), {scaled_note}"),
        ),
        Metric::new(
            "result_latency_ms",
            "ms",
            median(&scaled) * 1e3,
            n,
            format!("median `count` wall (the estimate arrives at exit), {scaled_note}"),
        ),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            median(&peaks),
            peaks.len(),
            "median VmHWM of `count`",
        ),
    ];
    o.details = vec![
        Metric::new(
            "offline_edges_per_s",
            "edges/s",
            rate(&raw),
            n,
            "median stream edges / `count` wall, as measured",
        ),
        Metric::new(
            "count_wall_p50_ms",
            "ms",
            median(&raw) * 1e3,
            n,
            "as measured",
        ),
        Metric::new(
            "count_wall_tail_ms",
            "ms",
            percentile(&raw, tail) * 1e3,
            n,
            format!("p{tail}, as measured"),
        ),
        Metric::new(
            "setup_raw_s",
            "s",
            median(&setup_raw),
            SETUP_REPS,
            "median one-edge `count` wall, as measured",
        ),
        Metric::new(
            "speed_factor",
            "ratio",
            median(&scaled) / median(&raw),
            n,
            "reference speed / this machine's speed during the run",
        ),
    ];
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_output_is_read_by_stable_prefixes() {
        let out = "estimated triangle count: 316607 (algo = neighborhood-bulk, space = 100000, \
                   shards = 2, batch = 65536, 1124955 edges in 0.373 s, memory = 1004692 words)\n\
                   throughput: 3019454 edges/sec\n";
        assert_eq!(parse_count(out), Some(("316607".to_string(), 1_124_955)));
        let extended = "estimated triangle count: 12 ± 3 (se = 3, 42 edges in 0.1 s)\n";
        assert_eq!(parse_count(extended), Some(("12".to_string(), 42)));
        assert_eq!(parse_count("exact triangle count: 5\n"), None);
    }
}
