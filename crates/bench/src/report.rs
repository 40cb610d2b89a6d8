//! Rendering experiment results: fixed-width tables on stdout, CSV files
//! under `target/experiments/`, and the versioned machine-readable
//! `BENCH.json` report emitted by `tristream-cli bench`.
//!
//! # `BENCH.json` schema (version 7)
//!
//! Existing fields keep their name, type and meaning, and
//! `schema_version` is bumped on any change. Version 2 added the
//! equal-memory head-to-head fields `algo`, `memory_words` and
//! `budget_words`; version 3 added the `"hot-path"` value of `kind` (the
//! pooled-vs-reference bulk-counter race — no new fields); version 4
//! added the `"serve"` value of `kind` (the daemon's socket ingest/query
//! workloads — no new fields); version 5 added the derived
//! `parallel_vs_sequential_decode_speedup` field; version 6 added the
//! `"snapshot"` value of `kind` and the nullable `snapshot_words` field
//! (checkpoint encode/restore latency and container size, with restore
//! bit-parity gated at exactly zero); version 7 removed the
//! `parallel_vs_sequential_decode_speedup` field and the `"engine"` value
//! of `kind`, together with the pipelined `.tsb` reader and the
//! spawn-per-batch baseline they measured. Field by field:
//!
//! * `schema` (string) — always `"tristream-bench"`.
//! * `schema_version` (integer) — `7`.
//! * `mode` (string) — `"smoke"` or `"full"`.
//! * `seed` (integer) — base RNG seed the whole suite derives from.
//! * `workloads` (array) — one object per named workload:
//!   * `name` (string) — stable workload identifier, e.g.
//!     `"ingest-binary"`, `"accuracy-jowhari-ghodsi"`,
//!     `"hotpath-pooled-w4096"`.
//!   * `kind` (string) — `"ingest"`, `"accuracy"`, `"hot-path"`,
//!     `"serve"` or `"snapshot"`.
//!   * `edges` (integer) — edges processed per trial.
//!   * `trials` (integer) — number of timed trials.
//!   * `batch` (integer | null) — batch size `w`, when the workload has one.
//!   * `shards` (integer | null) — worker shards, when parallel.
//!   * `estimators` (integer | null) — the algorithm's space parameter
//!     (estimator-pool size `r`; color count `N` for `pagh-tsourakakis`),
//!     when the workload runs an estimator.
//!   * `algo` (string | null) — registry name of the algorithm, for the
//!     equal-memory `accuracy-<algo>` head-to-head family.
//!   * `memory_words` (integer | null) — the estimator's *measured*
//!     `memory_words()` after the stream (8-byte words, see
//!     `tristream_core::traits`), for head-to-head workloads.
//!   * `budget_words` (integer | null) — the memory budget the workload's
//!     space parameter was sized for; comparing against `memory_words`
//!     shows how close the equal-space setup landed.
//!   * `snapshot_words` (integer | null) — size of the `TSS\0` snapshot
//!     container in 8-byte words (worst case across trials), for
//!     `snapshot` workloads; comparing against `memory_words` shows the
//!     serialization overhead of a checkpoint over the resident sketch.
//!   * `p50_latency_secs` / `p95_latency_secs` (number) — nearest-rank
//!     percentiles of per-trial wall-clock seconds.
//!   * `edges_per_sec` (number) — `edges / p50_latency_secs`.
//!   * `mean_rel_error` (number | null) — mean relative estimate error
//!     across trials (`|est − truth| / truth`), for accuracy workloads.
//!   * `error_bound` (number | null) — the documented accuracy bound the
//!     CI gate enforces; `mean_rel_error > error_bound` fails the gate.
//! * `derived` (object):
//!   * `binary_vs_text_ingest_speedup` (number | null) — `edges_per_sec`
//!     of `ingest-binary` over `ingest-text`, when both ran.
//!
//! Deterministic seeding makes `mean_rel_error` identical run-to-run, so
//! the accuracy gate is stable; only the latency fields vary with the
//! machine.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A simple column-aligned table: a header row plus data rows, rendered to
/// stdout by the experiment binaries and to CSV for EXPERIMENTS.md.
#[derive(Debug, Clone, Default)]
pub struct ExperimentTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one data row. The number of cells should match the header;
    /// short rows are padded with empty cells when rendering.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as an aligned text block.
    pub fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        let measure = |widths: &mut Vec<usize>, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&mut widths, &self.header);
        for row in &self.rows {
            measure(&mut widths, row);
        }

        let render_row = |row: &[String], widths: &[usize]| -> String {
            let mut out = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                out.push_str(&format!("{cell:<width$}  "));
            }
            out.trim_end().to_string()
        };

        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header + rows, comma-separated, quotes
    /// around cells containing commas).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes a table's CSV rendering to `target/experiments/<name>.csv` and
/// returns the path written (best effort: falls back to a temp directory if
/// `target/` is not writable).
pub fn write_csv(table: &ExperimentTable, name: &str) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let dir = if fs::create_dir_all(&dir).is_ok() {
        dir
    } else {
        std::env::temp_dir()
    };
    let path = dir.join(format!("{name}.csv"));
    if let Ok(mut file) = fs::File::create(&path) {
        let _ = file.write_all(table.to_csv().as_bytes());
    }
    path
}

/// What a named workload measures; serialised as the `kind` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// File-ingestion throughput (reader + decode, no estimator).
    Ingest,
    /// Estimate accuracy against exact ground truth.
    Accuracy,
    /// Bulk-counter hot-path throughput: the SoA-pool pipeline raced
    /// against the retained pre-pool reference over the same seeds and
    /// batch sizes (estimates are asserted bit-identical while the rows
    /// are produced).
    HotPath,
    /// Daemon throughput over a real loopback socket: EDGES-frame ingest
    /// and QUERY latency through `tristream-serve`, including framing,
    /// protocol decode, and engine enqueue/sync.
    Serve,
    /// Checkpoint mechanics: `TSS\0` snapshot encode and restore latency,
    /// container size vs resident `memory_words()`, and — the gated half —
    /// restore bit-parity against the uninterrupted run (bound exactly 0).
    Snapshot,
}

impl WorkloadKind {
    fn as_str(self) -> &'static str {
        match self {
            WorkloadKind::Ingest => "ingest",
            WorkloadKind::Accuracy => "accuracy",
            WorkloadKind::HotPath => "hot-path",
            WorkloadKind::Serve => "serve",
            WorkloadKind::Snapshot => "snapshot",
        }
    }
}

/// One named workload's results — one element of the `workloads` array of
/// `BENCH.json` (schema documented at [module level](self)).
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Stable identifier, e.g. `ingest-binary` or `hotpath-pooled-w4096`.
    pub name: String,
    /// What the workload measures.
    pub kind: WorkloadKind,
    /// Edges processed per trial.
    pub edges: u64,
    /// Number of timed trials.
    pub trials: usize,
    /// Batch size `w`, when the workload has one.
    pub batch: Option<usize>,
    /// Worker shards, when parallel.
    pub shards: Option<usize>,
    /// The algorithm's space parameter (estimator-pool size `r`, or color
    /// count `N`), when the workload runs an estimator.
    pub estimators: Option<usize>,
    /// Registry name of the algorithm (head-to-head workloads).
    pub algo: Option<String>,
    /// Measured `memory_words()` after the stream (head-to-head).
    pub memory_words: Option<u64>,
    /// Memory budget the space parameter was sized for (head-to-head).
    pub budget_words: Option<u64>,
    /// Size of the `TSS\0` snapshot container in 8-byte words, worst case
    /// across trials (snapshot workloads).
    pub snapshot_words: Option<u64>,
    /// Nearest-rank p50 of per-trial wall-clock seconds.
    pub p50_latency_secs: f64,
    /// Nearest-rank p95 of per-trial wall-clock seconds.
    pub p95_latency_secs: f64,
    /// `edges / p50_latency_secs`.
    pub edges_per_sec: f64,
    /// Mean relative estimate error across trials, for accuracy workloads.
    pub mean_rel_error: Option<f64>,
    /// Documented accuracy bound the CI gate enforces.
    pub error_bound: Option<f64>,
}

impl WorkloadResult {
    /// Whether this workload violates its documented accuracy bound. An
    /// incomparable error (NaN) counts as a violation — a gate must never
    /// pass on garbage.
    pub fn exceeds_bound(&self) -> bool {
        match (self.mean_rel_error, self.error_bound) {
            (Some(error), Some(bound)) => !matches!(
                error.partial_cmp(&bound),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            ),
            _ => false,
        }
    }
}

/// Nearest-rank percentile of per-trial latencies (`q` in `[0, 1]`).
/// Returns 0.0 for an empty slice.
pub fn percentile(sorted_ascending: &[f64], q: f64) -> f64 {
    if sorted_ascending.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted_ascending.len() as f64).ceil() as usize;
    sorted_ascending[rank.clamp(1, sorted_ascending.len()) - 1]
}

/// Builds a [`WorkloadResult`] from raw per-trial latencies.
#[allow(clippy::too_many_arguments)]
pub fn summarize_workload(
    name: &str,
    kind: WorkloadKind,
    edges: u64,
    latencies_secs: &[f64],
    batch: Option<usize>,
    shards: Option<usize>,
    estimators: Option<usize>,
    accuracy: Option<(f64, f64)>,
) -> WorkloadResult {
    let mut sorted = latencies_secs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 0.50);
    let p95 = percentile(&sorted, 0.95);
    let (mean_rel_error, error_bound) = match accuracy {
        Some((error, bound)) => (Some(error), Some(bound)),
        None => (None, None),
    };
    WorkloadResult {
        name: name.to_string(),
        kind,
        edges,
        trials: latencies_secs.len(),
        batch,
        shards,
        estimators,
        algo: None,
        memory_words: None,
        budget_words: None,
        snapshot_words: None,
        p50_latency_secs: p50,
        p95_latency_secs: p95,
        edges_per_sec: if p50 > 0.0 { edges as f64 / p50 } else { 0.0 },
        mean_rel_error,
        error_bound,
    }
}

/// The versioned machine-readable report emitted as `BENCH.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// Base RNG seed the whole suite derives from.
    pub seed: u64,
    /// One entry per named workload, in execution order.
    pub workloads: Vec<WorkloadResult>,
}

/// The schema version this module writes. Version 2 added `algo`,
/// `memory_words` and `budget_words` (all nullable — additive only);
/// version 3 added the `"hot-path"` `kind` value; version 4 added the
/// `"serve"` `kind` value; version 5 added the
/// `parallel_vs_sequential_decode_speedup` derived field; version 6
/// added the `"snapshot"` `kind` value and the nullable `snapshot_words`
/// field; version 7 removed the decode-speedup field and the `"engine"`
/// `kind` value.
pub const BENCH_SCHEMA_VERSION: u32 = 7;

/// Tolerance of the hot-path regression gate: the pooled bulk path fails
/// the gate if its p50 latency exceeds the reference path's by more than
/// this factor, i.e. `pooled_p50 > HOT_PATH_TOLERANCE × reference_p50`.
///
/// The pooled path is expected to be ≥ 1.5× *faster* (the committed
/// release-mode BENCH.json records the actual ratio), so a generous 1.5×
/// "must not be slower than" band still leaves the gate far from the
/// operating point — it only fires on a real hot-path regression, not on
/// shared-runner noise. Estimate *equality* between the two paths is
/// asserted bit-for-bit while the rows are produced, so the correctness
/// half of the gate is fully deterministic.
pub const HOT_PATH_TOLERANCE: f64 = 1.5;

/// Bound of the serve stall gate: the `serve-query` row's p50 — one QUERY
/// round trip to the loopback daemon — must not exceed 10 ms.
///
/// A frame held back by Nagle's algorithm waits for the peer's delayed ACK,
/// and Linux's minimum delayed-ACK timer is 40 ms, so a stalled transport
/// lands far above the bound. A transport that sends each frame at once
/// answers in well under a millisecond, so the bound is equally far from
/// the operating point on a slow runner.
pub const SERVE_QUERY_P50_BOUND_SECS: f64 = 0.010;

impl BenchReport {
    /// Looks up a workload by name.
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// `edges_per_sec` ratio of workload `numerator` over `denominator`,
    /// when both ran and the denominator is non-zero.
    pub fn speedup(&self, numerator: &str, denominator: &str) -> Option<f64> {
        let over = self.workload(numerator)?.edges_per_sec;
        let under = self.workload(denominator)?.edges_per_sec;
        (under > 0.0).then_some(over / under)
    }

    /// Names of workloads whose mean relative error exceeds their
    /// documented bound — the CI accuracy gate fails when non-empty.
    pub fn gate_failures(&self) -> Vec<String> {
        self.workloads
            .iter()
            .filter(|w| w.exceeds_bound())
            .map(|w| w.name.clone())
            .collect()
    }

    /// Names of hot-path workloads whose pooled row is slower than its
    /// reference row beyond [`HOT_PATH_TOLERANCE`] — the CI hot-path gate
    /// fails when non-empty. Pairs are matched by name
    /// (`hotpath-pooled-w{N}` ↔ `hotpath-reference-w{N}`), and the gate
    /// fails closed on shape problems, never just on slow pairs: a pooled
    /// row with a missing reference row (or vice versa), a hot-path row
    /// whose name matches neither prefix (e.g. after a rename that forgot
    /// this function), or unusable (non-positive / non-finite) latencies
    /// are all reported as regressions rather than skipped. A report with
    /// no hot-path rows at all has nothing to gate and passes, like the
    /// accuracy gate on a report with no accuracy rows.
    pub fn hot_path_regressions(&self) -> Vec<String> {
        self.workloads
            .iter()
            .filter(|w| w.kind == WorkloadKind::HotPath)
            .filter_map(|w| {
                let ok = if let Some(suffix) = w.name.strip_prefix("hotpath-pooled-") {
                    self.workload(&format!("hotpath-reference-{suffix}"))
                        .is_some_and(|r| {
                            let (pooled, bound) =
                                (w.p50_latency_secs, r.p50_latency_secs * HOT_PATH_TOLERANCE);
                            pooled.is_finite() && pooled > 0.0 && bound > 0.0 && pooled <= bound
                        })
                } else if let Some(suffix) = w.name.strip_prefix("hotpath-reference-") {
                    // A reference row must have a pooled partner; the
                    // partner's own entry performs the ratio check.
                    self.workload(&format!("hotpath-pooled-{suffix}")).is_some()
                } else {
                    // Unrecognised hot-path row: the pairing convention was
                    // broken somewhere — fail closed.
                    false
                };
                (!ok).then(|| w.name.clone())
            })
            .collect()
    }

    /// Names of `serve-query` rows whose p50 exceeds
    /// [`SERVE_QUERY_P50_BOUND_SECS`] — the CI stall gate fails when
    /// non-empty. A non-finite p50 fails too. A report without the row has
    /// nothing to gate and passes, like the other latency gate.
    pub fn serve_stall_regressions(&self) -> Vec<String> {
        self.workloads
            .iter()
            .filter(|w| w.name == "serve-query")
            .filter(|w| {
                !(w.p50_latency_secs.is_finite()
                    && w.p50_latency_secs <= SERVE_QUERY_P50_BOUND_SECS)
            })
            .map(|w| w.name.clone())
            .collect()
    }

    /// Renders the report as pretty-printed JSON in the documented schema.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"tristream-bench\",\n");
        out.push_str(&format!("  \"schema_version\": {BENCH_SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"mode\": {},\n", json_string(&self.mode)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&w.name)));
            out.push_str(&format!(
                "      \"kind\": {},\n",
                json_string(w.kind.as_str())
            ));
            out.push_str(&format!("      \"edges\": {},\n", w.edges));
            out.push_str(&format!("      \"trials\": {},\n", w.trials));
            out.push_str(&format!("      \"batch\": {},\n", json_opt_usize(w.batch)));
            out.push_str(&format!(
                "      \"shards\": {},\n",
                json_opt_usize(w.shards)
            ));
            out.push_str(&format!(
                "      \"estimators\": {},\n",
                json_opt_usize(w.estimators)
            ));
            out.push_str(&format!(
                "      \"algo\": {},\n",
                w.algo
                    .as_deref()
                    .map_or_else(|| "null".to_string(), json_string)
            ));
            out.push_str(&format!(
                "      \"memory_words\": {},\n",
                w.memory_words
                    .map_or_else(|| "null".to_string(), |v| v.to_string())
            ));
            out.push_str(&format!(
                "      \"budget_words\": {},\n",
                w.budget_words
                    .map_or_else(|| "null".to_string(), |v| v.to_string())
            ));
            out.push_str(&format!(
                "      \"snapshot_words\": {},\n",
                w.snapshot_words
                    .map_or_else(|| "null".to_string(), |v| v.to_string())
            ));
            out.push_str(&format!(
                "      \"p50_latency_secs\": {},\n",
                json_f64(w.p50_latency_secs)
            ));
            out.push_str(&format!(
                "      \"p95_latency_secs\": {},\n",
                json_f64(w.p95_latency_secs)
            ));
            out.push_str(&format!(
                "      \"edges_per_sec\": {},\n",
                json_f64(w.edges_per_sec)
            ));
            out.push_str(&format!(
                "      \"mean_rel_error\": {},\n",
                json_opt_f64(w.mean_rel_error)
            ));
            out.push_str(&format!(
                "      \"error_bound\": {}\n",
                json_opt_f64(w.error_bound)
            ));
            out.push_str(if i + 1 == self.workloads.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"derived\": {\n");
        out.push_str(&format!(
            "    \"binary_vs_text_ingest_speedup\": {}\n",
            json_opt_f64(self.speedup("ingest-binary", "ingest-text"))
        ));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }

    /// Writes the JSON rendering to `path`.
    pub fn write_json_file<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// A human-readable summary table of the same results, for stdout.
    pub fn to_table(&self) -> ExperimentTable {
        let mut table = ExperimentTable::new(
            &format!("bench ({} mode, seed {})", self.mode, self.seed),
            &[
                "workload",
                "edges",
                "p50 s",
                "p95 s",
                "edges/s",
                "rel err",
                "bound",
                "mem words",
            ],
        );
        for w in &self.workloads {
            let fmt_opt = |v: Option<f64>| v.map_or_else(|| "-".into(), |x| format!("{x:.4}"));
            table.push_row(vec![
                w.name.clone(),
                w.edges.to_string(),
                format!("{:.4}", w.p50_latency_secs),
                format!("{:.4}", w.p95_latency_secs),
                format!("{:.0}", w.edges_per_sec),
                fmt_opt(w.mean_rel_error),
                fmt_opt(w.error_bound),
                w.memory_words.map_or_else(|| "-".into(), |v| v.to_string()),
            ]);
        }
        table
    }
}

/// JSON string literal with the escapes the report can ever need.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats render via `Display` (never scientific, always valid
/// JSON); non-finite values become `null`.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // Ensure a decimal point so the value reads as a float, not an int.
        let s = format!("{x}");
        if s.contains('.') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn json_opt_f64(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_string(), json_f64)
}

fn json_opt_usize(x: Option<usize>) -> String {
    x.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> ExperimentTable {
        let mut t = ExperimentTable::new("Demo", &["dataset", "r", "error %"]);
        t.push_row(vec!["amazon".into(), "1024".into(), "6.28".into()]);
        t.push_row(vec![
            "orkut, scaled".into(),
            "1048576".into(),
            "3.55".into(),
        ]);
        t
    }

    #[test]
    fn render_aligns_columns_and_includes_everything() {
        let text = sample_table().render();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("dataset"));
        assert!(text.contains("amazon"));
        assert!(text.contains("3.55"));
        // All rows rendered.
        assert_eq!(
            text.lines().count(),
            2 /* title+header */ + 1 /* rule */ + 2
        );
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = sample_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "dataset,r,error %");
        assert!(lines[2].starts_with("\"orkut, scaled\""));
    }

    #[test]
    fn write_csv_creates_a_file() {
        let path = write_csv(&sample_table(), "unit-test-table");
        assert!(path.exists());
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.contains("amazon"));
        fs::remove_file(path).ok();
    }

    #[test]
    fn empty_table_is_well_formed() {
        let t = ExperimentTable::new("Empty", &["a", "b"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.render().contains("Empty"));
        assert_eq!(t.to_csv(), "a,b\n");
    }

    // ------------------------------------------------------------------
    // BENCH.json schema tests, validated with a minimal JSON parser so a
    // malformed emitter (unbalanced braces, bare NaN, trailing comma)
    // fails here instead of in whatever tool consumes the artifact.
    // ------------------------------------------------------------------

    /// Parses one JSON value starting at `i`, returning the index one past
    /// its end. Panics (failing the test) on malformed input.
    fn parse_json_value(bytes: &[u8], mut i: usize) -> usize {
        let skip_ws = |bytes: &[u8], mut i: usize| {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            i
        };
        i = skip_ws(bytes, i);
        assert!(i < bytes.len(), "unexpected end of JSON");
        match bytes[i] {
            b'{' | b'[' => {
                let (open, close) = if bytes[i] == b'{' {
                    (b'{', b'}')
                } else {
                    (b'[', b']')
                };
                i += 1;
                i = skip_ws(bytes, i);
                if bytes[i] == close {
                    return i + 1;
                }
                loop {
                    if open == b'{' {
                        i = skip_ws(bytes, i);
                        assert_eq!(bytes[i], b'"', "object key must be a string");
                        i = parse_json_value(bytes, i);
                        i = skip_ws(bytes, i);
                        assert_eq!(bytes[i], b':', "missing ':' after key");
                        i += 1;
                    }
                    i = parse_json_value(bytes, i);
                    i = skip_ws(bytes, i);
                    match bytes[i] {
                        b',' => i += 1,
                        c if c == close => return i + 1,
                        c => panic!("expected ',' or '{}', got '{}'", close as char, c as char),
                    }
                }
            }
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i + 1
            }
            b't' => {
                assert_eq!(&bytes[i..i + 4], b"true");
                i + 4
            }
            b'f' => {
                assert_eq!(&bytes[i..i + 5], b"false");
                i + 5
            }
            b'n' => {
                assert_eq!(&bytes[i..i + 4], b"null");
                i + 4
            }
            c if c == b'-' || c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    i += 1;
                }
                let text = std::str::from_utf8(&bytes[start..i]).unwrap();
                text.parse::<f64>().expect("valid JSON number");
                i
            }
            c => panic!("unexpected character '{}' in JSON", c as char),
        }
    }

    /// Asserts `text` is exactly one valid JSON value.
    fn assert_valid_json(text: &str) {
        let bytes = text.as_bytes();
        let mut end = parse_json_value(bytes, 0);
        while end < bytes.len() {
            assert!(
                bytes[end].is_ascii_whitespace(),
                "trailing garbage after JSON value"
            );
            end += 1;
        }
    }

    fn sample_report() -> BenchReport {
        BenchReport {
            mode: "smoke".into(),
            seed: 7,
            workloads: vec![
                summarize_workload(
                    "ingest-text",
                    WorkloadKind::Ingest,
                    1_000_000,
                    &[0.5, 0.4, 0.6],
                    Some(65_536),
                    None,
                    None,
                    None,
                ),
                summarize_workload(
                    "ingest-binary",
                    WorkloadKind::Ingest,
                    1_000_000,
                    &[0.05, 0.04, 0.06],
                    Some(65_536),
                    None,
                    None,
                    None,
                ),
                summarize_workload(
                    "accuracy-bulk-syn3reg",
                    WorkloadKind::Accuracy,
                    3_000,
                    &[0.1],
                    Some(8_192),
                    None,
                    Some(1_024),
                    Some((0.031, 0.15)),
                ),
                {
                    let mut w = summarize_workload(
                        "accuracy-jowhari-ghodsi",
                        WorkloadKind::Accuracy,
                        3_000,
                        &[0.1],
                        None,
                        None,
                        Some(380),
                        Some((0.2, 0.9)),
                    );
                    w.algo = Some("jowhari-ghodsi".into());
                    w.memory_words = Some(7_900);
                    w.budget_words = Some(8_192);
                    w
                },
            ],
        }
    }

    #[test]
    fn bench_report_json_is_valid_and_carries_every_documented_field() {
        let json = sample_report().to_json();
        assert_valid_json(&json);
        for field in [
            "\"schema\"",
            "\"schema_version\"",
            "\"mode\"",
            "\"seed\"",
            "\"workloads\"",
            "\"name\"",
            "\"kind\"",
            "\"edges\"",
            "\"trials\"",
            "\"batch\"",
            "\"shards\"",
            "\"estimators\"",
            "\"algo\"",
            "\"memory_words\"",
            "\"budget_words\"",
            "\"snapshot_words\"",
            "\"p50_latency_secs\"",
            "\"p95_latency_secs\"",
            "\"edges_per_sec\"",
            "\"mean_rel_error\"",
            "\"error_bound\"",
            "\"derived\"",
            "\"binary_vs_text_ingest_speedup\"",
        ] {
            assert!(
                json.contains(field),
                "missing schema field {field}:\n{json}"
            );
        }
        assert!(json.contains(&format!("\"schema_version\": {BENCH_SCHEMA_VERSION}")));
        assert!(json.contains("\"tristream-bench\""));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.50), 3.0);
        assert_eq!(percentile(&sorted, 0.95), 5.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[2.5], 0.95), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn summaries_derive_throughput_from_p50() {
        let w = summarize_workload(
            "x",
            WorkloadKind::Ingest,
            1_000,
            &[0.5, 0.1, 0.2],
            None,
            None,
            None,
            None,
        );
        assert_eq!(w.p50_latency_secs, 0.2);
        assert_eq!(w.p95_latency_secs, 0.5);
        assert_eq!(w.edges_per_sec, 5_000.0);
        assert!(!w.exceeds_bound(), "no accuracy fields, no gate");
    }

    #[test]
    fn hot_path_gate_compares_pooled_against_reference_rows() {
        let mut report = sample_report();
        // No hot-path rows: nothing to gate.
        assert!(report.hot_path_regressions().is_empty());
        let row = |name: &str, p50: f64| {
            summarize_workload(
                name,
                WorkloadKind::HotPath,
                10_000,
                &[p50],
                Some(4_096),
                None,
                Some(2_048),
                None,
            )
        };
        report.workloads.push(row("hotpath-reference-w4096", 0.10));
        report.workloads.push(row("hotpath-pooled-w4096", 0.05));
        assert!(report.hot_path_regressions().is_empty(), "2x faster passes");
        // Slower but within tolerance still passes…
        report.workloads.last_mut().unwrap().p50_latency_secs = 0.10 * HOT_PATH_TOLERANCE;
        assert!(report.hot_path_regressions().is_empty());
        // …one tick beyond it fails.
        report.workloads.last_mut().unwrap().p50_latency_secs = 0.10 * HOT_PATH_TOLERANCE * 1.01;
        assert_eq!(report.hot_path_regressions(), vec!["hotpath-pooled-w4096"]);
        // A pooled row with no reference row must fail, not pass silently.
        report.workloads.push(row("hotpath-pooled-w256", 0.01));
        assert_eq!(report.hot_path_regressions().len(), 2);
        // Non-finite latencies must fail too.
        report.workloads.last_mut().unwrap().p50_latency_secs = f64::NAN;
        report.workloads.push(row("hotpath-reference-w256", 0.10));
        assert!(report
            .hot_path_regressions()
            .contains(&"hotpath-pooled-w256".to_string()));
        // Fail closed on shape: a reference row with no pooled partner and
        // a hot-path row matching neither naming convention are both
        // regressions, never silently skipped.
        report.workloads.push(row("hotpath-reference-w1024", 0.10));
        assert!(report
            .hot_path_regressions()
            .contains(&"hotpath-reference-w1024".to_string()));
        report.workloads.push(row("hot-path-pooled-w512", 0.01));
        assert!(report
            .hot_path_regressions()
            .contains(&"hot-path-pooled-w512".to_string()));
    }

    #[test]
    fn serve_stall_gate_fails_a_delayed_ack_round_trip() {
        let mut report = sample_report();
        assert!(
            report.serve_stall_regressions().is_empty(),
            "no row, no gate"
        );
        report.workloads.push(summarize_workload(
            "serve-query",
            WorkloadKind::Serve,
            10_000,
            &[0.085],
            Some(1_024),
            Some(2),
            None,
            None,
        ));
        // 85 ms: a round trip that waited out a delayed ACK.
        assert_eq!(report.serve_stall_regressions(), vec!["serve-query"]);
        // 0.07 ms: a frame sent at once.
        report.workloads.last_mut().unwrap().p50_latency_secs = 0.000_07;
        assert!(report.serve_stall_regressions().is_empty());
        report.workloads.last_mut().unwrap().p50_latency_secs = f64::NAN;
        assert_eq!(report.serve_stall_regressions(), vec!["serve-query"]);
    }

    #[test]
    fn hot_path_serve_and_snapshot_kinds_serialise_in_current_schema() {
        let mut report = sample_report();
        report.workloads.push(summarize_workload(
            "serve-ingest",
            WorkloadKind::Serve,
            10_000,
            &[0.03],
            Some(1_024),
            Some(2),
            Some(2_048),
            None,
        ));
        report.workloads.push(summarize_workload(
            "hotpath-pooled-w4096",
            WorkloadKind::HotPath,
            10_000,
            &[0.05],
            Some(4_096),
            None,
            Some(2_048),
            None,
        ));
        report.workloads.push({
            let mut w = summarize_workload(
                "snapshot-restore",
                WorkloadKind::Snapshot,
                10_000,
                &[0.002],
                Some(1_024),
                Some(2),
                None,
                Some((0.0, 0.0)),
            );
            w.snapshot_words = Some(4_200);
            w.memory_words = Some(4_100);
            w
        });
        let json = report.to_json();
        assert_valid_json(&json);
        assert!(json.contains("\"kind\": \"hot-path\""), "{json}");
        assert!(json.contains("\"kind\": \"serve\""), "{json}");
        assert!(json.contains("\"kind\": \"snapshot\""), "{json}");
        assert!(json.contains("\"snapshot_words\": 4200"), "{json}");
        // Workloads outside the snapshot family carry an explicit null.
        assert!(json.contains("\"snapshot_words\": null"), "{json}");
        assert!(
            json.contains(&format!("\"schema_version\": {BENCH_SCHEMA_VERSION}")),
            "{json}"
        );
    }

    #[test]
    fn gate_flags_only_workloads_over_their_bound() {
        let mut report = sample_report();
        assert!(report.gate_failures().is_empty());
        report.workloads[2].mean_rel_error = Some(0.2);
        assert_eq!(report.gate_failures(), vec!["accuracy-bulk-syn3reg"]);
        // A NaN error must fail the gate, not slip through a `<` compare.
        report.workloads[2].mean_rel_error = Some(f64::NAN);
        assert_eq!(report.gate_failures().len(), 1);
    }

    #[test]
    fn speedup_compares_ingest_workloads() {
        let report = sample_report();
        let speedup = report.speedup("ingest-binary", "ingest-text").unwrap();
        assert!((speedup - 10.0).abs() < 1e-9, "0.5s vs 0.05s → 10x");
        assert!(report.speedup("ingest-binary", "nope").is_none());
        let json = report.to_json();
        assert!(json.contains("\"binary_vs_text_ingest_speedup\": 10"));
    }

    #[test]
    fn json_floats_are_always_valid_json() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.25), "0.25");
        assert_valid_json(&json_f64(1234567890.125));
    }

    #[test]
    fn report_table_mirrors_the_workloads() {
        let t = sample_report().to_table();
        assert_eq!(t.len(), 4);
        let rendered = t.render();
        assert!(rendered.contains("ingest-binary"));
        assert!(
            rendered.contains("7900"),
            "head-to-head rows show measured memory words:\n{rendered}"
        );
    }

    #[test]
    fn head_to_head_fields_serialise_with_values_and_as_null() {
        let json = sample_report().to_json();
        assert_valid_json(&json);
        assert!(json.contains("\"algo\": \"jowhari-ghodsi\""), "{json}");
        assert!(json.contains("\"memory_words\": 7900"), "{json}");
        assert!(json.contains("\"budget_words\": 8192"), "{json}");
        // Workloads outside the family carry explicit nulls.
        assert!(json.contains("\"algo\": null"), "{json}");
        assert!(json.contains("\"memory_words\": null"), "{json}");
    }

    #[test]
    fn write_json_file_round_trips() {
        let path = std::env::temp_dir().join(format!(
            "tristream-bench-report-{}.json",
            std::process::id()
        ));
        sample_report().write_json_file(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_valid_json(&text);
        fs::remove_file(&path).ok();
    }
}
