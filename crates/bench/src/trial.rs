//! Trial execution and accuracy/timing summaries.
//!
//! The paper reports, for every configuration, the min/mean/max relative
//! deviation across five trials with different seeds, the median wall-clock
//! time, and (for the throughput figures) the average processing rate in
//! million edges per second with I/O factored out. [`run_trials`] produces
//! exactly those statistics for any closure that maps a seed to an estimate.

use std::time::{Duration, Instant};
use tristream_sample::relative_error;

/// The result of one trial: the estimate it produced and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct TrialOutcome {
    /// The estimate produced by this trial.
    pub estimate: f64,
    /// Wall-clock processing time (excluding workload generation and I/O).
    pub elapsed: Duration,
}

/// Accuracy and timing statistics over a set of trials, in the shape the
/// paper's tables use.
#[derive(Debug, Clone)]
pub struct TrialSummary {
    /// Ground truth the estimates are scored against.
    pub truth: f64,
    /// Minimum relative deviation across trials, in percent.
    pub min_deviation_pct: f64,
    /// Mean relative deviation across trials, in percent.
    pub mean_deviation_pct: f64,
    /// Maximum relative deviation across trials, in percent.
    pub max_deviation_pct: f64,
    /// Median wall-clock processing time across trials, in seconds.
    pub median_time_secs: f64,
    /// All raw outcomes, for CSV output.
    pub outcomes: Vec<TrialOutcome>,
}

impl TrialSummary {
    /// Average throughput across trials, in million edges per second, for a
    /// stream of `edges` edges.
    pub fn throughput_meps(&self, edges: usize) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let avg_secs: f64 = self
            .outcomes
            .iter()
            .map(|o| o.elapsed.as_secs_f64())
            .sum::<f64>()
            / self.outcomes.len() as f64;
        if avg_secs == 0.0 {
            return 0.0;
        }
        edges as f64 / avg_secs / 1.0e6
    }
}

/// Average-throughput record used by the figures that report million edges
/// per second.
#[derive(Debug, Clone)]
pub struct ThroughputSummary {
    /// Label of the configuration (dataset, r, batch size, …).
    pub label: String,
    /// Average throughput in million edges per second.
    pub million_edges_per_second: f64,
}

/// Runs `trials` independent trials. `run` receives the trial's seed and
/// must return the estimate; the closure's wall-clock time is measured
/// around the call.
pub fn run_trials<F>(truth: f64, trials: usize, base_seed: u64, mut run: F) -> TrialSummary
where
    F: FnMut(u64) -> f64,
{
    assert!(trials >= 1, "at least one trial is required");
    let mut outcomes = Vec::with_capacity(trials);
    for t in 0..trials {
        let seed = base_seed
            .wrapping_add(t as u64)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(1);
        let start = Instant::now();
        let estimate = run(seed);
        outcomes.push(TrialOutcome {
            estimate,
            elapsed: start.elapsed(),
        });
    }
    summarize(truth, outcomes)
}

/// Builds a [`TrialSummary`] from already-collected outcomes.
pub fn summarize(truth: f64, outcomes: Vec<TrialOutcome>) -> TrialSummary {
    let deviations: Vec<f64> = outcomes
        .iter()
        .map(|o| 100.0 * relative_error(o.estimate, truth))
        .collect();
    let mut times: Vec<f64> = outcomes.iter().map(|o| o.elapsed.as_secs_f64()).collect();
    times.sort_by(f64::total_cmp);
    let median_time = if times.is_empty() {
        0.0
    } else {
        times[times.len() / 2]
    };
    TrialSummary {
        truth,
        min_deviation_pct: deviations.iter().copied().fold(f64::INFINITY, f64::min),
        mean_deviation_pct: deviations.iter().sum::<f64>() / deviations.len().max(1) as f64,
        max_deviation_pct: deviations.iter().copied().fold(0.0, f64::max),
        median_time_secs: median_time,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics_are_correct() {
        let outcomes = vec![
            TrialOutcome {
                estimate: 90.0,
                elapsed: Duration::from_millis(10),
            },
            TrialOutcome {
                estimate: 110.0,
                elapsed: Duration::from_millis(30),
            },
            TrialOutcome {
                estimate: 100.0,
                elapsed: Duration::from_millis(20),
            },
        ];
        let s = summarize(100.0, outcomes);
        assert!((s.min_deviation_pct - 0.0).abs() < 1e-9);
        assert!((s.mean_deviation_pct - 20.0 / 3.0).abs() < 1e-9);
        assert!((s.max_deviation_pct - 10.0).abs() < 1e-9);
        assert!((s.median_time_secs - 0.02).abs() < 1e-9);
    }

    #[test]
    fn run_trials_uses_distinct_seeds() {
        let mut seeds = Vec::new();
        let s = run_trials(1.0, 4, 7, |seed| {
            seeds.push(seed);
            1.0
        });
        assert_eq!(s.outcomes.len(), 4);
        assert_eq!(s.mean_deviation_pct, 0.0);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "seeds must differ across trials");
    }

    #[test]
    fn throughput_is_edges_over_average_time() {
        let outcomes = vec![
            TrialOutcome {
                estimate: 1.0,
                elapsed: Duration::from_secs(2),
            },
            TrialOutcome {
                estimate: 1.0,
                elapsed: Duration::from_secs(4),
            },
        ];
        let s = summarize(1.0, outcomes);
        let thr = s.throughput_meps(6_000_000);
        assert!(
            (thr - 2.0).abs() < 1e-9,
            "6M edges / 3s avg = 2 Meps, got {thr}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_trials_panics() {
        let _ = run_trials(1.0, 0, 1, |_| 1.0);
    }
}
