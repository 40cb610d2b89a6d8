//! The experiment implementations behind the `table*` / `figure*` binaries.
//!
//! Each function regenerates one table or figure of the paper's evaluation
//! (§4) on the synthetic dataset stand-ins, returning an [`ExperimentTable`]
//! that the binaries print and persist as CSV. The workload scales, trial
//! counts and seeds honour the environment knobs documented in
//! [`crate`]-level docs, and every function also reports the stand-in's
//! exact statistics so results can be judged against the right ground truth
//! (not the paper's original, full-scale datasets).

use crate::report::ExperimentTable;
use crate::trial::run_trials;
use crate::workloads::{env_seed, env_trials, load_standin, Workload};
use tristream_baselines::JowhariGhodsiCounter;
use tristream_core::theory::error_bound_for_estimators;
use tristream_core::BulkTriangleCounter;
use tristream_gen::DatasetKind;
use tristream_graph::{DegreeHistogram, DegreeTable};

/// Default estimator-pool sizes for the Table 3 / Figure 4 experiments.
///
/// The paper uses 1K / 128K / 1M on the full-scale datasets; the stand-ins
/// are scaled down (README.md § Datasets), so the default pool sizes are
/// scaled down with them while keeping the 1 : 128 : 1024 ratio.
pub const TABLE3_ESTIMATORS: [usize; 3] = [1_024, 16_384, 131_072];

/// Estimator counts used by the baseline study (Tables 1–2), matching the
/// paper exactly.
pub const BASELINE_ESTIMATORS: [usize; 3] = [1_000, 10_000, 100_000];

/// Batch size used by the bulk algorithm throughout the experiments, as a
/// multiple of the estimator count (the paper uses `w = 8r`).
pub const BATCH_FACTOR: usize = 8;

fn bulk_estimate(workload: &Workload, r: usize, seed: u64) -> f64 {
    let mut counter = BulkTriangleCounter::new(r, seed);
    counter.process_stream(
        workload.stream.edges(),
        r.saturating_mul(BATCH_FACTOR).max(1),
    );
    counter.estimate()
}

fn jg_estimate(workload: &Workload, r: usize, seed: u64) -> f64 {
    let mut counter = JowhariGhodsiCounter::new(r, seed);
    counter.process_edges(workload.stream.edges());
    counter.estimate()
}

/// Figure 3 (left panel): the dataset summary table — ours vs. the paper's
/// published statistics.
pub fn figure3_summary() -> ExperimentTable {
    let seed = env_seed();
    let mut table = ExperimentTable::new(
        "Figure 3 — dataset stand-ins: measured vs. paper statistics",
        &[
            "dataset",
            "scale 1/x",
            "n",
            "m",
            "max deg",
            "triangles",
            "m*D/tau",
            "paper n",
            "paper m",
            "paper max deg",
            "paper triangles",
            "paper m*D/tau",
        ],
    );
    for kind in DatasetKind::figure3() {
        let w = load_standin(kind, seed);
        let spec = kind.spec();
        table.push_row(vec![
            spec.name.to_string(),
            w.scale_denominator.to_string(),
            w.summary.vertices.to_string(),
            w.summary.edges.to_string(),
            w.summary.max_degree.to_string(),
            w.summary.triangles.to_string(),
            format!("{:.1}", w.summary.m_delta_over_tau),
            spec.paper_vertices.to_string(),
            spec.paper_edges.to_string(),
            spec.paper_max_degree.to_string(),
            spec.paper_triangles.to_string(),
            format!("{:.1}", spec.paper_m_delta_over_tau),
        ]);
    }
    table
}

/// Figure 3 (right panel): log-binned degree-frequency histograms, one row
/// per (dataset, degree bin).
pub fn figure3_degree_histograms() -> ExperimentTable {
    let seed = env_seed();
    let mut table = ExperimentTable::new(
        "Figure 3 — degree-frequency histograms (log-binned)",
        &["dataset", "degree bin start", "degree bin end", "vertices"],
    );
    for kind in DatasetKind::figure3() {
        let w = load_standin(kind, seed);
        let hist = DegreeHistogram::from_table(&DegreeTable::from_stream(&w.stream));
        // Log-spaced bins: [1,1], [2,3], [4,7], [8,15], ...
        let max_degree = hist.buckets().last().map(|&(d, _)| d).unwrap_or(0);
        let mut lo = 1usize;
        while lo <= max_degree.max(1) {
            let hi = lo * 2 - 1;
            let count: usize = hist
                .buckets()
                .iter()
                .filter(|&&(d, _)| d >= lo && d <= hi)
                .map(|&(_, c)| c)
                .sum();
            if count > 0 {
                table.push_row(vec![
                    kind.spec().name.to_string(),
                    lo.to_string(),
                    hi.to_string(),
                    count.to_string(),
                ]);
            }
            lo *= 2;
        }
    }
    table
}

/// Tables 1 and 2: the baseline study — Jowhari–Ghodsi vs. our bulk
/// algorithm on a small workload, for r ∈ {1K, 10K, 100K}.
pub fn baseline_study(kind: DatasetKind) -> ExperimentTable {
    baseline_study_with(kind, &BASELINE_ESTIMATORS, env_trials())
}

/// [`baseline_study`] with explicit estimator-pool sizes and trial count
/// (used by tests and ad-hoc comparisons).
pub fn baseline_study_with(
    kind: DatasetKind,
    estimator_counts: &[usize],
    trials: usize,
) -> ExperimentTable {
    let seed = env_seed();
    let w = load_standin(kind, seed);
    let truth = w.summary.triangles as f64;
    let title = format!(
        "{} — JG vs. ours on {} ({}; truth tau = {})",
        if kind == DatasetKind::Syn3Regular {
            "Table 1"
        } else {
            "Table 2"
        },
        kind.spec().name,
        w.summary.one_line(),
        truth
    );
    let mut table = ExperimentTable::new(
        &title,
        &[
            "algorithm",
            "r",
            "mean dev %",
            "min dev %",
            "max dev %",
            "median time s",
        ],
    );
    for &r in estimator_counts {
        let jg = run_trials(truth, trials, seed, |s| jg_estimate(&w, r, s));
        table.push_row(vec![
            "Jowhari-Ghodsi".into(),
            r.to_string(),
            format!("{:.2}", jg.mean_deviation_pct),
            format!("{:.2}", jg.min_deviation_pct),
            format!("{:.2}", jg.max_deviation_pct),
            format!("{:.4}", jg.median_time_secs),
        ]);
        let ours = run_trials(truth, trials, seed, |s| bulk_estimate(&w, r, s));
        table.push_row(vec![
            "Ours (bulk)".into(),
            r.to_string(),
            format!("{:.2}", ours.mean_deviation_pct),
            format!("{:.2}", ours.min_deviation_pct),
            format!("{:.2}", ours.max_deviation_pct),
            format!("{:.4}", ours.median_time_secs),
        ]);
    }
    table
}

/// Table 3: accuracy, runtime and I/O time of the bulk algorithm across all
/// Figure 3 datasets and three estimator-pool sizes.
pub fn table3() -> ExperimentTable {
    let seed = env_seed();
    let trials = env_trials();
    let mut table = ExperimentTable::new(
        "Table 3 — bulk algorithm accuracy and runtime across datasets",
        &[
            "dataset",
            "r",
            "min dev %",
            "mean dev %",
            "max dev %",
            "median time s",
            "io time s",
            "truth tau",
        ],
    );
    for kind in DatasetKind::figure3() {
        let w = load_standin(kind, seed);
        let truth = w.summary.triangles as f64;
        for &r in &TABLE3_ESTIMATORS {
            let s = run_trials(truth, trials, seed, |sd| bulk_estimate(&w, r, sd));
            table.push_row(vec![
                kind.spec().name.to_string(),
                r.to_string(),
                format!("{:.2}", s.min_deviation_pct),
                format!("{:.2}", s.mean_deviation_pct),
                format!("{:.2}", s.max_deviation_pct),
                format!("{:.3}", s.median_time_secs),
                format!("{:.3}", w.io_time.as_secs_f64()),
                format!("{truth}"),
            ]);
        }
    }
    table
}

/// Figure 4: average throughput (million edges per second) per dataset and
/// estimator-pool size.
pub fn figure4() -> ExperimentTable {
    let seed = env_seed();
    let trials = env_trials();
    let mut table = ExperimentTable::new(
        "Figure 4 — average throughput of the bulk algorithm (million edges/second)",
        &["dataset", "r", "throughput Meps", "edges"],
    );
    for kind in DatasetKind::figure3() {
        let w = load_standin(kind, seed);
        let truth = w.summary.triangles as f64;
        for &r in &TABLE3_ESTIMATORS {
            let s = run_trials(truth, trials, seed, |sd| bulk_estimate(&w, r, sd));
            table.push_row(vec![
                kind.spec().name.to_string(),
                r.to_string(),
                format!("{:.3}", s.throughput_meps(w.edges())),
                w.edges().to_string(),
            ]);
        }
    }
    table
}

/// Figure 5: running time, throughput and relative error as the number of
/// estimators sweeps geometrically, on the Youtube and LiveJournal
/// stand-ins, together with the Theorem 3.3 error bound (δ = 1/5).
pub fn figure5() -> ExperimentTable {
    let seed = env_seed();
    let trials = env_trials().min(3);
    let sweep: [usize; 6] = [1_024, 4_096, 16_384, 65_536, 262_144, 524_288];
    let mut table = ExperimentTable::new(
        "Figure 5 — time, throughput and error vs. number of estimators",
        &[
            "dataset",
            "r",
            "median time s",
            "throughput Meps",
            "mean dev %",
            "bound dev % (Thm 3.3, delta=1/5)",
        ],
    );
    for kind in [DatasetKind::Youtube, DatasetKind::LiveJournal] {
        let w = load_standin(kind, seed);
        let truth = w.summary.triangles as f64;
        for &r in &sweep {
            let s = run_trials(truth, trials, seed, |sd| bulk_estimate(&w, r, sd));
            let bound = error_bound_for_estimators(
                r as u64,
                0.2,
                w.summary.edges,
                w.summary.max_degree,
                w.summary.triangles,
            );
            let bound_pct = if bound.is_finite() {
                (bound * 100.0).min(100.0)
            } else {
                100.0
            };
            table.push_row(vec![
                kind.spec().name.to_string(),
                r.to_string(),
                format!("{:.3}", s.median_time_secs),
                format!("{:.3}", s.throughput_meps(w.edges())),
                format!("{:.2}", s.mean_deviation_pct),
                format!("{:.2}", bound_pct),
            ]);
        }
    }
    table
}

/// Figure 6: throughput of the bulk algorithm as the batch size varies, on
/// the LiveJournal stand-in with a fixed estimator pool.
pub fn figure6() -> ExperimentTable {
    let seed = env_seed();
    let trials = env_trials().min(3);
    let r = 65_536usize;
    let w = load_standin(DatasetKind::LiveJournal, seed);
    let truth = w.summary.triangles as f64;
    let mut table = ExperimentTable::new(
        "Figure 6 — throughput vs. batch size (LiveJournal stand-in)",
        &["batch size", "r", "throughput Meps", "mean dev %"],
    );
    for factor in [1usize, 2, 4, 8, 16, 32] {
        let batch = r * factor;
        let s = run_trials(truth, trials, seed, |sd| {
            let mut counter = BulkTriangleCounter::new(r, sd);
            counter.process_stream(w.stream.edges(), batch);
            counter.estimate()
        });
        table.push_row(vec![
            batch.to_string(),
            r.to_string(),
            format!("{:.3}", s.throughput_meps(w.edges())),
            format!("{:.2}", s.mean_deviation_pct),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::load_standin_scaled;

    #[test]
    fn baseline_study_produces_rows_for_every_configuration() {
        // Small pools and a single trial keep this a quick smoke test; two
        // algorithms × two pool sizes = 4 rows.
        let t = baseline_study_with(DatasetKind::Syn3Regular, &[64, 256], 1);
        assert_eq!(t.len(), 4);
        assert!(t.render().contains("Jowhari-Ghodsi"));
        assert!(t.render().contains("Ours (bulk)"));
    }

    #[test]
    fn bulk_estimate_helper_is_reasonable_on_a_small_standin() {
        let w = load_standin_scaled(DatasetKind::Dblp, 64, 3);
        let truth = w.summary.triangles as f64;
        let est = bulk_estimate(&w, 8_192, 5);
        assert!(
            (est - truth).abs() < 0.5 * truth,
            "bulk estimate {est} vs truth {truth}"
        );
    }
}
