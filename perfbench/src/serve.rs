//! `serve-ingest` and `serve-live`: a `tristream-cli serve` child on
//! loopback, driven through [`tristream_serve::Client`].
//!
//! Both are closed loops: TSP is strictly request/response on each
//! connection, so every connection is a caller waiting for its reply.

use crate::inputs::Input;
use crate::procs::Daemon;
use crate::report::{Metric, Outcome};
use crate::stats::{median, percentile, percentile_note};
use crate::{layers, now, twin, Kind, RunConfig, ALGO, SHARDS, SNAPSHOT_EVERY, THINK};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use tristream_serve::{Client, ClientError, CreateStream, StreamCheckpoint};

/// Daemon start-ups per run, for `setup_s`; the last one serves the run.
pub const SETUP_REPS: usize = 5;

/// In a traced run, QUERY and SNAPSHOT round trips are topped up to this
/// many after the measured phase, so every request type has samples.
const PROBE_MIN: usize = 10;

/// Operations issued over the socket, with their round-trip times.
#[derive(Debug, Default)]
pub struct Ops {
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Requests that failed plus checks that did not hold.
    pub failed: u64,
    /// Requests answered with an error (transport or server).
    pub errors: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Round trips of successful requests, in ms, by request kind.
    pub rtt_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Ops {
    /// Times one request; a failure is counted and yields `None`.
    pub fn time<T>(
        &mut self,
        kind: &'static str,
        request: impl FnOnce() -> Result<T, ClientError>,
    ) -> Option<T> {
        self.attempted += 1;
        let start = now();
        let result = request();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(value) => {
                self.rtt_ms.entry(kind).or_default().push(ms);
                Some(value)
            }
            Err(e) => {
                self.failed += 1;
                self.errors += 1;
                self.failures.push(format!("{kind}: {e}"));
                None
            }
        }
    }

    /// Records a correctness check as one operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Round trips of one kind (empty when there were none).
    pub fn rtt(&self, kind: &str) -> &[f64] {
        self.rtt_ms.get(kind).map_or(&[], Vec::as_slice)
    }

    fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors += other.errors;
        self.failures.extend(other.failures);
        for (kind, mut v) in other.rtt_ms {
            self.rtt_ms.entry(kind).or_default().append(&mut v);
        }
    }

    /// Adds this tally to a run's outcome.
    pub fn add_to(&self, o: &mut Outcome) {
        o.attempted += self.attempted;
        o.failed += self.failed;
        o.failures.extend(self.failures.iter().cloned());
    }
}

/// One pass of the whole stream over the socket.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Acknowledged edges.
    pub edges: u64,
    /// First EDGES sent to the reply to the final QUERY, in seconds.
    pub ingest_s: f64,
    /// Last EDGES OK to the reply to the final QUERY, in ms.
    pub result_latency_ms: f64,
}

/// What a session does beyond the writer's passes.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Passes repeat while the next one is expected to end within this
    /// many seconds; there is always at least one.
    pub seconds: f64,
    /// Run the QUERY/SNAPSHOT dashboard on a second connection.
    pub dashboard: bool,
    /// SNAPSHOT the final stream, RESTORE it under a new name and check
    /// that it answers the same bits.
    pub restore_check: bool,
    /// Top QUERY and SNAPSHOT samples up to this many after the passes.
    pub probe_min: usize,
}

impl Plan {
    /// The traced-run socket replay used by workloads without a socket:
    /// one pass, then probes.
    pub fn probe() -> Plan {
        Plan {
            seconds: 0.0,
            dashboard: false,
            restore_check: false,
            probe_min: PROBE_MIN,
        }
    }
}

/// A finished session.
#[derive(Debug)]
pub struct Session {
    /// Every request and check.
    pub ops: Ops,
    /// Spawn to banner, HELLO and CREATE acknowledged, per start-up.
    pub setup_s: Vec<f64>,
    /// The writer's passes.
    pub passes: Vec<Pass>,
    /// The daemon's VmHWM just before SHUTDOWN.
    pub peak_rss_mib: Option<f64>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn create_spec(name: &str, cfg: &RunConfig) -> CreateStream {
    CreateStream {
        name: name.to_string(),
        algo: ALGO.to_string(),
        seed: cfg.seed,
        budget_words: cfg.workload.recipe.budget_words(),
        shards: SHARDS as u16,
        window: 0,
    }
}

/// Starts a daemon and creates the first stream on it, `SETUP_REPS`
/// times; all but the last daemon are shut down again.
fn start(
    cfg: &RunConfig,
    ops: &mut Ops,
    setup_s: &mut Vec<f64>,
) -> Result<(Daemon, Client), String> {
    let spec = create_spec(&stream_name(0), cfg);
    for rep in 0..SETUP_REPS {
        let t0 = now();
        let daemon = Daemon::spawn(&cfg.cli)?;
        let mut client = ops
            .time("hello", || Client::connect(daemon.addr))
            .ok_or("HELLO failed")?;
        ops.time("create", || client.create_stream(&spec))
            .ok_or("CREATE failed")?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((daemon, client));
        }
        let stopped = daemon.shutdown(&mut client);
        ops.check(stopped.is_ok(), || format!("shutdown: {stopped:?}"));
    }
    Err("no daemon was started".to_string())
}

fn stream_name(pass: usize) -> String {
    format!("bench-{pass}")
}

/// The dashboard: closed loop with [`THINK`] time, every
/// [`SNAPSHOT_EVERY`]-th request a SNAPSHOT, the rest QUERY, always on the
/// writer's current stream.
fn dashboard(addr: std::net::SocketAddr, current: &Mutex<String>, stop: &AtomicBool) -> Ops {
    let mut ops = Ops::default();
    let Some(mut client) = ops.time("hello", || Client::connect(addr)) else {
        return ops;
    };
    let mut i = 0u64;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(THINK);
        // Held across the request, so the writer never deletes the stream
        // under it.
        let name = lock(current);
        i += 1;
        if i.is_multiple_of(SNAPSHOT_EVERY) {
            ops.time("snapshot", || client.snapshot(&name));
        } else {
            ops.time("query", || client.query(&name));
        }
    }
    ops
}

/// Runs the workload's socket session: start-ups, the writer's passes
/// (beside the dashboard if planned), the restore check and probes, then
/// SHUTDOWN.
pub fn session(
    cfg: &RunConfig,
    input: &Input,
    twin_bits: u64,
    plan: &Plan,
) -> Result<Session, String> {
    let w = cfg.workload;
    let mut ops = Ops::default();
    let mut setup_s = Vec::new();
    let (daemon, mut client) = start(cfg, &mut ops, &mut setup_s)?;
    let m = input.edges.len() as u64;
    let current = Mutex::new(stream_name(0));
    let stop = AtomicBool::new(false);
    let mut passes = Vec::new();

    let dash_ops = std::thread::scope(|s| {
        let dash = plan
            .dashboard
            .then(|| s.spawn(|| dashboard(daemon.addr, &current, &stop)));
        let start = now();
        for k in 0.. {
            let name = stream_name(k);
            if k > 0 {
                let mut cur = lock(&current);
                ops.time("delete", || client.delete(&cur));
                ops.time("create", || client.create_stream(&create_spec(&name, cfg)));
                *cur = name.clone();
            }
            let t0 = now();
            let mut acked = 0u64;
            for chunk in input.edges.chunks(w.batch) {
                if ops
                    .time("edges", || client.send_edges(&name, chunk))
                    .is_some()
                {
                    acked += chunk.len() as u64;
                }
            }
            let last_ok = now();
            let reply = ops.time("final_query", || client.query(&name));
            let end = now();
            passes.push(Pass {
                edges: acked,
                ingest_s: (end - t0).as_secs_f64(),
                result_latency_ms: (end - last_ok).as_secs_f64() * 1e3,
            });
            if let Some(r) = reply {
                ops.check(r.estimate.to_bits() == twin_bits && r.edges == m, || {
                    format!(
                        "pass {k}: final QUERY gave {} over {} edges, the twin {} over {m}",
                        r.estimate,
                        r.edges,
                        f64::from_bits(twin_bits)
                    )
                });
            }
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + elapsed / (k + 1) as f64 > plan.seconds {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        dash.map(|h| {
            h.join().unwrap_or_else(|_| {
                let mut failed = Ops::default();
                failed.check(false, || "dashboard thread panicked".to_string());
                failed
            })
        })
    });
    if let Some(d) = dash_ops {
        ops.merge(d);
    }

    let last = lock(&current).clone();
    if plan.restore_check {
        restore_check(&mut ops, &mut client, &last, twin_bits);
    }
    while ops.rtt("query").len() < plan.probe_min {
        if ops.time("query", || client.query(&last)).is_none() {
            break;
        }
    }
    while ops.rtt("snapshot").len() < plan.probe_min {
        if ops.time("snapshot", || client.snapshot(&last)).is_none() {
            break;
        }
    }

    let peak_rss_mib = daemon.peak_rss_mib();
    ops.attempted += 1;
    if let Err(e) = daemon.shutdown(&mut client) {
        ops.failed += 1;
        ops.errors += 1;
        ops.failures.push(e);
    }
    Ok(Session {
        ops,
        setup_s,
        passes,
        peak_rss_mib,
    })
}

/// SNAPSHOT `name`, RESTORE the checkpoint as `restored`, and check that
/// the restored stream answers `twin_bits`.
fn restore_check(ops: &mut Ops, client: &mut Client, name: &str, twin_bits: u64) {
    let Some(bytes) = ops.time("snapshot", || client.snapshot(name)) else {
        return;
    };
    let renamed = StreamCheckpoint::decode(&bytes).and_then(|mut cp| {
        cp.name = "restored".to_string();
        cp.encode()
    });
    let bytes = match renamed {
        Ok(bytes) => bytes,
        Err(e) => return ops.check(false, || format!("final SNAPSHOT does not decode: {e}")),
    };
    if ops.time("restore", || client.restore(&bytes)).is_none() {
        return;
    }
    if let Some(r) = ops.time("query", || client.query("restored")) {
        ops.check(r.estimate.to_bits() == twin_bits, || {
            format!(
                "restored stream answers {}, the twin {}",
                r.estimate,
                f64::from_bits(twin_bits)
            )
        });
    }
}

/// Runs `serve-ingest` or `serve-live`.
pub fn run(cfg: &RunConfig, input: &Input) -> Result<Outcome, String> {
    let w = cfg.workload;
    let live = w.kind == Kind::ServeLive;
    let (twin_estimate, _) = twin(&input.path, &w, cfg.seed)?;
    let plan = Plan {
        seconds: if cfg.trace { 0.0 } else { cfg.seconds },
        dashboard: live,
        restore_check: live,
        probe_min: if cfg.trace { PROBE_MIN } else { 0 },
    };
    let s = session(cfg, input, twin_estimate.to_bits(), &plan)?;
    let mut o = Outcome::default();
    s.ops.add_to(&mut o);
    if cfg.trace {
        o.metrics = layers::per_layer(cfg, input, &mut o, &s.ops, twin_estimate)?;
        return Ok(o);
    }

    let rates: Vec<f64> = s
        .passes
        .iter()
        .map(|p| p.edges as f64 / p.ingest_s)
        .collect();
    let results: Vec<f64> = s.passes.iter().map(|p| p.result_latency_ms).collect();
    let (edges, queries, snapshots) = (
        s.ops.rtt("edges"),
        s.ops.rtt("query"),
        s.ops.rtt("snapshot"),
    );
    let (request, request_note) = if live {
        (queries, "median dashboard QUERY round trip")
    } else {
        (edges, "median EDGES round trip")
    };
    let passes = s.passes.len();
    o.metrics = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&s.setup_s),
            s.setup_s.len(),
            "median spawn to banner, HELLO and CREATE acknowledged",
        ),
        Metric::new(
            "edges_per_s",
            "edges/s",
            median(&rates),
            passes,
            "median over passes of acknowledged edges / (first EDGES to final QUERY reply)",
        ),
        Metric::new(
            "request_p50_ms",
            "ms",
            median(request),
            request.len(),
            request_note,
        ),
        Metric::new(
            "result_latency_ms",
            "ms",
            median(&results),
            passes,
            "median over passes of last EDGES OK to final QUERY reply",
        ),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            s.peak_rss_mib.unwrap_or(0.0),
            1,
            "daemon VmHWM before SHUTDOWN",
        ),
    ];
    o.details = vec![
        Metric::new(
            "ingest_edges_per_s",
            "edges/s",
            median(&rates),
            passes,
            "same as edges_per_s",
        ),
        Metric::new("edges_rtt_p50_ms", "ms", median(edges), edges.len(), "p50"),
        Metric::new(
            "edges_rtt_p90_ms",
            "ms",
            percentile(edges, 90),
            edges.len(),
            percentile_note(90, edges.len()),
        ),
    ];
    if live {
        o.details.extend([
            Metric::new("query_p50_ms", "ms", median(queries), queries.len(), "p50"),
            Metric::new(
                "query_p90_ms",
                "ms",
                percentile(queries, 90),
                queries.len(),
                percentile_note(90, queries.len()),
            ),
            Metric::new(
                "snapshot_p50_ms",
                "ms",
                median(snapshots),
                snapshots.len(),
                percentile_note(50, snapshots.len()),
            ),
        ]);
    }
    Ok(o)
}
