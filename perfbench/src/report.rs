//! Metric names, units and output: human-readable lines first, then one
//! JSON object as the last line of stdout.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's declared name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off, reported by every
/// workload.
pub const END_TO_END: [MetricDef; 5] = [
    def("setup_s", "s", Lower),
    def("edges_per_s", "edges/s", Higher),
    def("request_p50_ms", "ms", Lower),
    def("result_latency_ms", "ms", Lower),
    def("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics from the traced run, reported by every workload.
pub const PER_LAYER: [MetricDef; 42] = [
    def("binary.decode_ms", "ms", Lower),
    def("binary.decode_edges_per_s", "edges/s", Higher),
    def("frame.writes_per_frame", "count", Lower),
    def("frame.bytes_per_edges_frame", "bytes", Lower),
    def("protocol.edges_encode_us", "us", Lower),
    def("protocol.edges_decode_us", "us", Lower),
    def("protocol.snapshot_reply_encode_ms", "ms", Lower),
    def("client.rtt_ms.create.p50", "ms", Lower),
    def("client.rtt_ms.create.p90", "ms", Lower),
    def("client.rtt_ms.edges.p50", "ms", Lower),
    def("client.rtt_ms.edges.p90", "ms", Lower),
    def("client.rtt_ms.query.p50", "ms", Lower),
    def("client.rtt_ms.query.p90", "ms", Lower),
    def("client.rtt_ms.snapshot.p50", "ms", Lower),
    def("client.rtt_ms.snapshot.p90", "ms", Lower),
    def("client.errors", "count", Lower),
    def("client.retries", "count", Lower),
    def("transport.residual_ms", "ms", Lower),
    def("table.create_ms", "ms", Lower),
    def("table.ingest_us", "us", Lower),
    def("table.query_ms", "ms", Lower),
    def("table.checkpoint_ms", "ms", Lower),
    def("snapshot.encode_ms", "ms", Lower),
    def("snapshot.bytes", "bytes", Lower),
    def("snapshot.restore_ms", "ms", Lower),
    def("checkpoint.encode_ms", "ms", Lower),
    def("engine.submit_ms", "ms", Lower),
    def("engine.sync_ms", "ms", Lower),
    def("engine.shard_busy_ms.0", "ms", Lower),
    def("engine.shard_busy_ms.1", "ms", Lower),
    def("engine.shard_skew", "ratio", Lower),
    def("engine.idle_share", "ratio", Lower),
    def("bulk.batch_ms.0.p50", "ms", Lower),
    def("bulk.batch_ms.0.p90", "ms", Lower),
    def("bulk.batch_ms.1.p50", "ms", Lower),
    def("bulk.batch_ms.1.p90", "ms", Lower),
    def("bulk.ns_per_edge", "ns", Lower),
    def("bulk.state_words", "words", Lower),
    def("bulk.rel_error", "ratio", Lower),
    def("registry.build_ms", "ms", Lower),
    def("error_rate", "ratio", Lower),
    def("trace.overhead", "ratio", Lower),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: usize,
    /// What the value is (statistic, caveats).
    pub note: String,
}

impl Metric {
    /// A metric with its sample count and a short note.
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples,
            note: note.into(),
        }
    }
}

/// A finished workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests, `count` runs and correctness checks.
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong answer.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// The metrics the JSON line carries.
    pub metrics: Vec<Metric>,
    /// Further named metrics, printed for people only.
    pub details: Vec<Metric>,
    /// Context lines (input statistics, machine).
    pub context: Vec<String>,
}

impl Outcome {
    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records a check: one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn json_line(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_string(&mut out, &m.name);
        out.push_str(": {\"value\": ");
        out.push_str(&json_number(m.value));
        out.push_str(", \"unit\": ");
        json_string(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// The human-readable lines printed before the JSON line.
pub fn human_lines(outcome: &Outcome) -> Vec<String> {
    let mut lines = outcome.context.clone();
    for (tag, list) in [("metric", &outcome.metrics), ("detail", &outcome.details)] {
        for m in list {
            lines.push(format!(
                "{tag} {} = {} {} (n={}{}{})",
                m.name,
                json_number(m.value),
                m.unit,
                m.samples,
                if m.note.is_empty() { "" } else { "; " },
                m.note
            ));
        }
    }
    lines.push(format!(
        "error_rate = {} ratio ({} failed of {} attempted)",
        json_number(outcome.error_rate()),
        outcome.failed,
        outcome.attempted
    ));
    for f in &outcome.failures {
        lines.push(format!("FAILED: {f}"));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|d| d.name)
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn the_json_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metrics
            .push(Metric::new("setup_s", "s", 0.123456789, 5, "median"));
        assert_eq!(
            json_line(&o),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}}}"
        );
    }
}
