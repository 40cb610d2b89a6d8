//! The traced run: per-layer numbers from spans the harness records around
//! calls into each layer's public functions, on the workload's own input,
//! batch size and recipe.
//!
//! * `.tsb` decode — `TsbBatches::next`.
//! * Engine — `ShardedEstimator::from_factory`, `process_batch` and
//!   `estimate`; per-shard kernel busy time from [`TimedShard`], installed
//!   through the factory so each `process_edges` call is timed on the
//!   shard's own thread.
//! * Snapshots — `TriangleEstimator::snapshot` and `restore`.
//! * Framing — `frame::write_frame` into a [`CountingWriter`].
//! * Protocol — `Request::encode_payload` and `Request::decode`.
//! * Table — `StreamTable::create`, `table::ingest_batch`, `query_stream`,
//!   `checkpoint_stream` and `StreamCheckpoint::encode`, on an in-process
//!   replay of the workload's exact frames.
//! * Socket — the client round trips of the run's own session, less the
//!   replayed server-side work.

use crate::inputs::Input;
use crate::report::{Metric, Outcome, PER_LAYER};
use crate::serve::Ops;
use crate::stats::{median, percentile, percentile_note};
use crate::{now, twin, Kind, RunConfig, ALGO, SHARDS};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tristream_core::{ShardedEstimator, SnapshotError, TriangleEstimator};
use tristream_graph::binary::read_edges_binary_batched_file;
use tristream_graph::{frame, Edge};
use tristream_serve::table::{checkpoint_stream, ingest_batch, query_stream};
use tristream_serve::{Request, Response, StreamTable};

/// Repetitions of the snapshot, restore and checkpoint spans.
const REPS: usize = 5;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Forwards every [`TriangleEstimator`] method to the registry-built
/// shard and records how long each `process_edges` call takes.
pub struct TimedShard {
    inner: Box<dyn TriangleEstimator + Send>,
    calls_ms: Arc<Mutex<Vec<f64>>>,
}

impl TriangleEstimator for TimedShard {
    fn process_edge(&mut self, edge: Edge) {
        self.inner.process_edge(edge);
    }

    fn process_edges(&mut self, edges: &[Edge]) {
        let start = now();
        self.inner.process_edges(edges);
        let elapsed = ms(start.elapsed());
        self.calls_ms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(elapsed);
    }

    fn estimate(&self) -> f64 {
        self.inner.estimate()
    }

    fn edges_seen(&self) -> u64 {
        self.inner.edges_seen()
    }

    fn memory_words(&self) -> usize {
        self.inner.memory_words()
    }

    fn supports_snapshot(&self) -> bool {
        self.inner.supports_snapshot()
    }

    fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), SnapshotError> {
        self.inner.restore(snapshot)
    }
}

/// Counts the `write` calls and bytes it is handed.
#[derive(Debug, Default)]
pub struct CountingWriter {
    /// `write` calls.
    pub writes: usize,
    /// Bytes accepted.
    pub bytes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Collects metrics by name; [`Layers::finish`] emits them in
/// [`PER_LAYER`] order and fails if one is missing.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Metric>);

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, samples: usize, note: impl Into<String>) {
        let unit = PER_LAYER
            .iter()
            .find(|d| d.name == name)
            .map_or("?", |d| d.unit);
        self.0
            .insert(name, Metric::new(name, unit, value, samples, note));
    }

    /// p50 and p90 of `samples` as `<prefix>.p50` / `<prefix>.p90`.
    fn put_p50_p90(&mut self, p50: &'static str, p90: &'static str, samples: &[f64]) {
        let n = samples.len();
        self.put(p50, median(samples), n, "p50");
        self.put(p90, percentile(samples, 90), n, percentile_note(90, n));
    }

    fn finish(mut self) -> Result<Vec<Metric>, String> {
        PER_LAYER
            .iter()
            .map(|d| {
                self.0
                    .remove(d.name)
                    .ok_or_else(|| format!("the traced run did not report {}", d.name))
            })
            .collect()
    }
}

/// Decode, engine, kernel, registry and snapshot spans from one replay of
/// the `.tsb` file through a traced [`ShardedEstimator`]. Returns the
/// traced wall time, from engine construction to the synchronised
/// estimate.
fn engine_layers(
    cfg: &RunConfig,
    input: &Input,
    o: &mut Outcome,
    twin_estimate: f64,
    l: &mut Layers,
) -> Result<Duration, String> {
    let w = cfg.workload;
    let calls: Vec<Arc<Mutex<Vec<f64>>>> = (0..SHARDS).map(|_| Arc::default()).collect();
    let mut build = Duration::ZERO;
    let mut shard = 0;
    let start = now();
    let mut engine = ShardedEstimator::from_factory(SHARDS, cfg.seed, |seed| {
        let t = now();
        let inner = w.recipe.build_shard(seed);
        build += t.elapsed();
        let calls_ms = Arc::clone(&calls[shard]);
        shard += 1;
        TimedShard { inner, calls_ms }
    });
    let mut batches = read_edges_binary_batched_file(&input.path, w.batch)
        .map_err(|e| format!("opening {}: {e}", input.path.display()))?;
    let fed = now();
    let (mut decode, mut submit, mut edges) = (Duration::ZERO, Duration::ZERO, 0u64);
    loop {
        let t = now();
        let next = batches.next();
        decode += t.elapsed();
        match next {
            None => break,
            Some(Err(e)) => return Err(format!("decoding {}: {e}", input.path.display())),
            Some(Ok(batch)) => {
                let t = now();
                engine.process_batch(&batch);
                submit += t.elapsed();
                edges += batch.len() as u64;
            }
        }
    }
    let t = now();
    let estimate = engine.estimate();
    let sync = t.elapsed();
    let traced_wall = start.elapsed();
    let fed_wall = ms(fed.elapsed());
    o.check(estimate.to_bits() == twin_estimate.to_bits(), || {
        format!("traced engine replay gave {estimate}, the twin {twin_estimate}")
    });

    l.put("binary.decode_ms", ms(decode), 1, "sum of TsbBatches::next");
    l.put(
        "binary.decode_edges_per_s",
        edges as f64 / decode.as_secs_f64().max(1e-9),
        1,
        "edges / decode time",
    );
    l.put(
        "engine.submit_ms",
        ms(submit),
        1,
        "sum of process_batch (enqueue, waits for queue space)",
    );
    l.put(
        "engine.sync_ms",
        ms(sync),
        1,
        "the final estimate (drain and read)",
    );
    l.put(
        "registry.build_ms",
        ms(build),
        SHARDS,
        "sum of AlgoSpec::build over shards",
    );

    let per_shard: Vec<Vec<f64>> = calls
        .iter()
        .map(|c| c.lock().unwrap_or_else(|p| p.into_inner()).clone())
        .collect();
    let busy: Vec<f64> = per_shard.iter().map(|c| c.iter().sum()).collect();
    let names = [
        (
            "engine.shard_busy_ms.0",
            "bulk.batch_ms.0.p50",
            "bulk.batch_ms.0.p90",
        ),
        (
            "engine.shard_busy_ms.1",
            "bulk.batch_ms.1.p50",
            "bulk.batch_ms.1.p90",
        ),
    ];
    for (i, (busy_name, p50, p90)) in names.iter().enumerate() {
        let calls = per_shard.get(i).map_or(&[][..], Vec::as_slice);
        l.put(
            busy_name,
            busy.get(i).copied().unwrap_or(0.0),
            calls.len(),
            "sum of process_edges on the shard thread",
        );
        l.put_p50_p90(p50, p90, calls);
    }
    let max = busy.iter().copied().fold(0.0, f64::max);
    let min = busy.iter().copied().fold(f64::INFINITY, f64::min);
    l.put(
        "engine.shard_skew",
        max / min.max(1e-9),
        SHARDS,
        "max / min shard busy time",
    );
    let idle = 1.0 - busy.iter().sum::<f64>() / (SHARDS as f64 * fed_wall.max(1e-9));
    l.put(
        "engine.idle_share",
        idle,
        SHARDS,
        "1 - busy / (shards x first batch to estimate)",
    );
    let ns_per_edge = busy
        .iter()
        .map(|b| b * 1e6 / edges.max(1) as f64)
        .sum::<f64>()
        / SHARDS as f64;
    l.put(
        "bulk.ns_per_edge",
        ns_per_edge,
        SHARDS,
        "shard busy time per edge, mean over shards",
    );
    l.put(
        "bulk.state_words",
        engine.memory_words() as f64,
        1,
        "memory_words across shards",
    );
    let tau = input.stats.triangles as f64;
    l.put(
        "bulk.rel_error",
        (estimate - tau).abs() / tau.max(1.0),
        1,
        "|estimate - exact τ| / τ",
    );

    let (mut encode, mut restore, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for _ in 0..REPS {
        let t = now();
        let snapshot = engine.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        encode.push(ms(t.elapsed()));
        bytes = snapshot.len();
        let mut fresh =
            ShardedEstimator::from_factory(SHARDS, cfg.seed, |s| w.recipe.build_shard(s));
        let t = now();
        let restored = fresh.restore(&snapshot);
        restore.push(ms(t.elapsed()));
        o.check(
            restored.is_ok() && fresh.estimate().to_bits() == estimate.to_bits(),
            || {
                format!(
                    "snapshot restore gave {:?} / {}",
                    restored,
                    fresh.estimate()
                )
            },
        );
    }
    l.put(
        "snapshot.encode_ms",
        median(&encode),
        REPS,
        "median TriangleEstimator::snapshot",
    );
    l.put("snapshot.bytes", bytes as f64, 1, "engine snapshot size");
    l.put(
        "snapshot.restore_ms",
        median(&restore),
        REPS,
        "median TriangleEstimator::restore",
    );
    Ok(traced_wall)
}

/// Frame, protocol, table and checkpoint spans from an in-process replay
/// of the workload's frames. Returns the p50 server-side work per EDGES
/// frame (decode + ingest), in ms.
fn server_layers(
    cfg: &RunConfig,
    input: &Input,
    o: &mut Outcome,
    twin_estimate: f64,
    l: &mut Layers,
) -> Result<f64, String> {
    let w = cfg.workload;
    let table = StreamTable::new();
    let t = now();
    table
        .create(
            "replay",
            ALGO,
            cfg.seed,
            w.recipe.budget_words(),
            SHARDS as u16,
            0,
        )
        .map_err(|e| format!("StreamTable::create: {e}"))?;
    l.put("table.create_ms", ms(t.elapsed()), 1, "StreamTable::create");
    let entry = table.require("replay").map_err(|e| e.to_string())?;
    // The dashboard's reads, interleaved as they arrive under today's
    // round trips: about one QUERY per two EDGES frames.
    let query_every = if w.kind == Kind::ServeLive { 2 } else { 0 };
    let (mut enc, mut dec, mut ingest, mut queries) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut writes, mut frame_bytes) = (Vec::new(), Vec::new());
    for (i, chunk) in input.edges.chunks(w.batch).enumerate() {
        let request = Request::Edges {
            name: "replay".to_string(),
            edges: chunk.to_vec(),
        };
        let t = now();
        let payload = request
            .encode_payload()
            .map_err(|e| format!("encode: {e}"))?;
        enc.push(us(t.elapsed()));
        let mut counter = CountingWriter::default();
        frame::write_frame(&mut counter, request.frame_type().byte(), &payload)
            .map_err(|e| format!("write_frame: {e}"))?;
        writes.push(counter.writes as f64);
        frame_bytes.push(counter.bytes as f64);
        let t = now();
        let decoded = Request::decode(request.frame_type().byte(), &payload);
        dec.push(us(t.elapsed()));
        let Ok(Request::Edges { edges, .. }) = decoded else {
            return Err(format!("an EDGES frame decoded as {decoded:?}"));
        };
        let t = now();
        ingest_batch(&entry, &edges);
        ingest.push(us(t.elapsed()));
        if query_every > 0 && (i + 1) % query_every == 0 {
            let t = now();
            let _ = query_stream(&entry);
            queries.push(ms(t.elapsed()));
        }
    }
    let t = now();
    let (estimate, edges, _) = query_stream(&entry);
    queries.push(ms(t.elapsed()));
    o.check(
        estimate.to_bits() == twin_estimate.to_bits() && edges == input.edges.len() as u64,
        || format!("table replay gave {estimate} over {edges} edges, the twin {twin_estimate}"),
    );
    let frames = enc.len();
    l.put(
        "frame.writes_per_frame",
        median(&writes),
        frames,
        "write calls per write_frame",
    );
    l.put(
        "frame.bytes_per_edges_frame",
        median(&frame_bytes),
        frames,
        "median EDGES frame size",
    );
    l.put(
        "protocol.edges_encode_us",
        median(&enc),
        frames,
        "median Request::encode_payload",
    );
    l.put(
        "protocol.edges_decode_us",
        median(&dec),
        frames,
        "median Request::decode",
    );
    l.put(
        "table.ingest_us",
        median(&ingest),
        frames,
        "median ingest_batch",
    );
    l.put(
        "table.query_ms",
        median(&queries),
        queries.len(),
        "median query_stream (drain and estimate)",
    );

    let (mut cp_ms, mut cp_encode, mut reply) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = now();
        let cp = checkpoint_stream(&entry).map_err(|e| format!("checkpoint_stream: {e}"))?;
        cp_ms.push(ms(t.elapsed()));
        let t = now();
        let bytes = cp
            .encode()
            .map_err(|e| format!("StreamCheckpoint::encode: {e}"))?;
        cp_encode.push(ms(t.elapsed()));
        let response = Response::SnapshotData(bytes);
        let t = now();
        response
            .encode_payload()
            .map_err(|e| format!("encode: {e}"))?;
        reply.push(ms(t.elapsed()));
    }
    l.put(
        "table.checkpoint_ms",
        median(&cp_ms),
        REPS,
        "median checkpoint_stream",
    );
    l.put(
        "checkpoint.encode_ms",
        median(&cp_encode),
        REPS,
        "median StreamCheckpoint::encode",
    );
    l.put(
        "protocol.snapshot_reply_encode_ms",
        median(&reply),
        REPS,
        "median SNAPSHOT_DATA encode_payload",
    );
    Ok((median(&dec) + median(&ingest)) / 1e3)
}

/// Every per-layer metric for the run, in [`PER_LAYER`] order. `socket`
/// holds the client round trips of the run's session.
pub fn per_layer(
    cfg: &RunConfig,
    input: &Input,
    o: &mut Outcome,
    socket: &Ops,
    twin_estimate: f64,
) -> Result<Vec<Metric>, String> {
    let mut l = Layers::default();
    // The untraced twin again, right before the traced replay of the same
    // work, so both run equally warm.
    let (_, twin_wall) = twin(&input.path, &cfg.workload, cfg.seed)?;
    let traced_wall = engine_layers(cfg, input, o, twin_estimate, &mut l)?;
    let server_ms = server_layers(cfg, input, o, twin_estimate, &mut l)?;

    let queries: Vec<f64> = [socket.rtt("query"), socket.rtt("final_query")].concat();
    l.put_p50_p90(
        "client.rtt_ms.create.p50",
        "client.rtt_ms.create.p90",
        socket.rtt("create"),
    );
    l.put_p50_p90(
        "client.rtt_ms.edges.p50",
        "client.rtt_ms.edges.p90",
        socket.rtt("edges"),
    );
    l.put_p50_p90(
        "client.rtt_ms.query.p50",
        "client.rtt_ms.query.p90",
        &queries,
    );
    l.put_p50_p90(
        "client.rtt_ms.snapshot.p50",
        "client.rtt_ms.snapshot.p90",
        socket.rtt("snapshot"),
    );
    l.put(
        "client.errors",
        socket.errors as f64,
        socket.attempted as usize,
        "requests answered with an error",
    );
    l.put(
        "client.retries",
        0.0,
        socket.attempted as usize,
        "the harness never retries",
    );
    l.put(
        "transport.residual_ms",
        median(socket.rtt("edges")) - server_ms,
        socket.rtt("edges").len(),
        "EDGES p50 round trip - p50 replayed decode + ingest",
    );
    l.put(
        "trace.overhead",
        traced_wall.as_secs_f64() / twin_wall.as_secs_f64().max(1e-9),
        1,
        "traced engine replay wall / untraced twin wall",
    );
    l.put(
        "error_rate",
        o.error_rate(),
        o.attempted as usize,
        "failed / attempted",
    );
    l.finish()
}
