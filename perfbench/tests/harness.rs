//! The harness's own tests: `BENCHMARK.json` agrees with what the harness
//! prints, the traced run reports every layer, and a tiny-stream run of
//! each workload finishes without a failed operation.
//!
//! The workload tests need the release `tristream-cli`: set
//! `TRISTREAM_CLI` to its path, or let the tests build it into the
//! repository's `target/`.

use perfbench::report::{Better, MetricDef, Outcome, END_TO_END, PER_LAYER};
use perfbench::{run, RunConfig, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn cli() -> PathBuf {
    static CLI: OnceLock<PathBuf> = OnceLock::new();
    CLI.get_or_init(|| {
        if let Some(path) = std::env::var_os("TRISTREAM_CLI") {
            return PathBuf::from(path);
        }
        let root = repo_root();
        let target = root.join("target");
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "-p", "tristream-cli"])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building tristream-cli failed");
        target.join("release").join("tristream-cli")
    })
    .clone()
}

/// `(name, unit, better)` of every `{"name": …}` entry on the lines of
/// `section` in BENCHMARK.json (the file keeps one entry per line).
fn declared(section: &str) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        line.find(&tag).map_or(String::new(), |i| {
            let rest = &line[i + tag.len()..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
    };
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit"), field(l, "better")))
        .collect()
}

fn as_declared(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            (d.name.to_string(), d.unit.to_string(), better.to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_metrics_the_harness_prints() {
    assert_eq!(declared("end_to_end"), as_declared(&END_TO_END));
    assert_eq!(declared("per_layer"), as_declared(&PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert!(text.len() <= 64 * 1024);
    for line in text.lines().filter(|l| l.contains("\"why\"")) {
        let why = &line[line.find("\"why\": \"").unwrap() + 8..];
        assert!(why.len() <= 200 + 2, "why too long: {why}");
    }
}

/// Every layer of the prediction table in README.md, by metric prefix.
const LAYERS: [&str; 11] = [
    "binary.",
    "frame.",
    "protocol.",
    "client.",
    "transport.",
    "table.",
    "snapshot.",
    "checkpoint.",
    "engine.",
    "bulk.",
    "registry.",
];

fn tiny(workload: usize, seed: u64, trace: bool) -> Outcome {
    let cfg = RunConfig {
        cli: cli(),
        workload: WORKLOADS[workload].tiny(),
        seed,
        seconds: 0.5,
        trace,
    };
    let outcome = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.workload.name));
    assert_eq!(
        (outcome.failed, outcome.error_rate()),
        (0, 0.0),
        "{}: {:?}",
        cfg.workload.name,
        outcome.failures
    );
    assert!(outcome.attempted > 0);
    outcome
}

fn names(o: &Outcome) -> Vec<&str> {
    o.metrics.iter().map(|m| m.name.as_str()).collect()
}

fn check_untraced(workload: usize, seed: u64) {
    let o = tiny(workload, seed, false);
    let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(names(&o), want);
    for m in &o.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
        assert!(m.samples > 0, "{}", m.name);
    }
}

fn check_traced(workload: usize, seed: u64) {
    let o = tiny(workload, seed, true);
    let want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names(&o), want);
    for layer in LAYERS {
        assert!(
            o.metrics.iter().any(|m| m.name.starts_with(layer)),
            "no {layer}* metric"
        );
    }
    let writes = o
        .metrics
        .iter()
        .find(|m| m.name == "frame.writes_per_frame")
        .unwrap();
    assert!(writes.value >= 1.0, "a frame takes at least one write");
}

#[test]
fn tiny_offline_count_runs_clean() {
    check_untraced(0, 101);
}

#[test]
fn tiny_serve_ingest_runs_clean() {
    check_untraced(1, 102);
}

#[test]
fn tiny_serve_live_runs_clean() {
    check_untraced(2, 103);
}

#[test]
fn traced_offline_count_reports_every_layer() {
    check_traced(0, 104);
}

#[test]
fn traced_serve_ingest_reports_every_layer() {
    check_traced(1, 105);
}

#[test]
fn traced_serve_live_reports_every_layer() {
    check_traced(2, 106);
}
