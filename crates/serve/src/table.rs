//! The stream table: named, isolated, concurrently usable estimation
//! streams.
//!
//! Each entry owns a [`ShardedEstimator`] over boxed registry estimators —
//! the *same* engine type, built by the *same* factory recipe, as the
//! offline `count --algo --parallel` path, which is what makes a served
//! estimate bit-identical to an offline run with the same seed, space and
//! batch boundaries (pinned by the `socket` integration test).
//!
//! Locking is two-level so tenants never interfere:
//!
//! * the table's own mutex guards only the `Vec` of entries (lookup,
//!   create, delete) and is held for microseconds;
//! * each stream has its own mutex around its engine, so a slow SNAPSHOT
//!   of stream A never blocks ingest on stream B.
//!
//! QUERY and STATS take neither lock beyond the lookup. They read the
//! engine's [`Frontier`] — the readings every shard publishes after each
//! batch — through a handle the entry keeps outside its mutex, and wait
//! only until the frontier covers the edges their caller must see.
//!
//! Entries are `Arc`-shared: a connection resolves a name to an
//! `Arc<StreamEntry>` under the table lock, then works on the stream with
//! the table lock released. `DELETE` removes the entry from the table; the
//! engine's worker threads are joined, outside the table lock, when the
//! last `Arc` drops (for a stream nobody else is touching, that is inside
//! the `DELETE` handler).

use crate::checkpoint::StreamCheckpoint;
use crate::metrics::LatencyCounter;
use crate::protocol::{CreateStream, ErrorCode, StreamStats, WireError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tristream_baselines::registry::{find_algo, AlgoParams, AlgoSpec, StreamHint};
use tristream_core::{Frontier, Reading, ShardedEstimator, TriangleEstimator};
use tristream_graph::Edge;

/// What the budget heuristic assumes about a served stream when `CREATE`
/// resolves its word budget to a space parameter: the stream's true length
/// is unknowable at create time, so the server sizes for a nominal
/// million-edge stream. Normative — `docs/PROTOCOL.md` documents it, and
/// the offline-parity integration test reproduces the resolution with this
/// same hint.
pub const SERVE_STREAM_HINT: StreamHint = StreamHint {
    edges: 1 << 20,
    vertices: 1 << 17,
};

/// Default shard count for streams created with `shards = 0`.
pub const DEFAULT_STREAM_SHARDS: usize = 2;

/// The boxed engine type every stream runs.
pub type StreamEngine = ShardedEstimator<Box<dyn TriangleEstimator + Send>>;

/// One named stream: immutable identity, the read side QUERY and STATS use
/// without the stream lock, and the mutexed engine.
pub struct StreamEntry {
    /// The CREATE recipe, kept verbatim (zeros meaning "default" and all)
    /// so a checkpoint can recreate the stream by replaying it.
    recipe: CreateStream,
    /// The registry entry the recipe names.
    spec: &'static AlgoSpec,
    /// The resolved space parameter (from the CREATE budget), recorded for
    /// observability.
    space: usize,
    /// The engine's published readings, which QUERY and STATS read.
    frontier: Arc<Frontier>,
    /// Edges ingested, updated under the stream lock: what a QUERY waits
    /// for when it must see every edge.
    ingested: AtomicU64,
    /// QUERY latency, including any wait for the frontier.
    query: Mutex<LatencyCounter>,
    /// EDGES-frame enqueue latency, updated under the stream lock so a
    /// checkpoint's batch count matches its snapshot.
    ingest: Mutex<LatencyCounter>,
    /// The sharded engine (persistent worker threads, bounded queues).
    engine: Mutex<StreamEngine>,
}

impl std::fmt::Debug for StreamEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamEntry")
            .field("name", &self.recipe.name)
            .field("algo", &self.spec.name)
            .field("space", &self.space)
            .finish_non_exhaustive()
    }
}

impl StreamEntry {
    /// The stream's name.
    pub fn name(&self) -> &str {
        &self.recipe.name
    }

    /// The registry algorithm the stream runs.
    pub fn algo(&self) -> &'static str {
        self.spec.name
    }

    /// The space parameter resolved from the CREATE budget.
    pub fn space(&self) -> usize {
        self.space
    }

    /// Whether this stream's algorithm supports checkpoints.
    pub fn snapshotable(&self) -> bool {
        self.spec.snapshotable
    }

    /// Edges ingested into the stream so far.
    pub(crate) fn ingested(&self) -> u64 {
        self.ingested.load(Ordering::SeqCst)
    }

    fn query_latency(&self) -> MutexGuard<'_, LatencyCounter> {
        self.query.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn ingest_latency(&self) -> MutexGuard<'_, LatencyCounter> {
        self.ingest.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the stream's engine. Poisoning (an engine panic on another
    /// connection's thread) is healed by taking the inner value: the
    /// engine itself re-surfaces a shard's panic on the next engine call
    /// (a dead worker fails every send and read), so nothing is masked —
    /// but an unrelated stream's handler never dies on a poisoned table.
    pub fn lock(&self) -> MutexGuard<'_, StreamEngine> {
        self.engine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Per-stream counters for a STATS report. The estimate, edges and
    /// memory words are one frontier reading that covers every edge
    /// ingested before the call (the value a QUERY that must see every
    /// edge would answer). It takes no stream lock, so it never stalls the
    /// stream's writer, and it does not count as a QUERY.
    pub fn stats(&self) -> StreamStats {
        let reading = self.frontier.read(self.ingested());
        let ingest = *self.ingest_latency();
        let query = *self.query_latency();
        StreamStats {
            name: self.recipe.name.clone(),
            algo: self.spec.name.to_string(),
            edges: reading.edges,
            estimate: reading.estimate,
            memory_words: reading.memory_words as u64,
            ingest_batches: ingest.ops(),
            ingest_nanos: ingest.total_nanos(),
            queries: query.ops(),
            query_nanos: query.total_nanos(),
        }
    }
}

/// Builds the engine for a CREATE request through the recipe the offline
/// `count --parallel` path uses: the space parameter comes from
/// [`AlgoSpec::space_for_budget`] under [`SERVE_STREAM_HINT`], and
/// [`AlgoSpec::build_sharded`] splits it across shards and seeds them.
///
/// Returns the registry entry `algo` names, the engine, and the resolved
/// space parameter.
pub fn build_stream_engine(
    algo: &str,
    seed: u64,
    budget_words: u64,
    shards: usize,
    window: Option<u64>,
) -> Result<(&'static AlgoSpec, StreamEngine, usize), WireError> {
    let spec = find_algo(algo).ok_or_else(|| {
        WireError::new(
            ErrorCode::UnknownAlgorithm,
            format!(
                "unknown algorithm {algo:?}; registry: {}",
                tristream_baselines::registry::algo_names_joined()
            ),
        )
    })?;
    let shards = shards.max(1);
    let budget = usize::try_from(budget_words).unwrap_or(usize::MAX);
    let space = spec.space_for_budget(budget, &SERVE_STREAM_HINT);
    let params = AlgoParams {
        space,
        seed,
        window,
    };
    Ok((spec, spec.build_sharded(&params, shards), space))
}

/// The server's stream table. Backed by a `Vec`, not a map: the tenant
/// count is small, lookups are one string compare per entry, and STATS
/// reports stay in deterministic creation order.
#[derive(Default)]
pub struct StreamTable {
    streams: Mutex<Vec<Arc<StreamEntry>>>,
}

impl std::fmt::Debug for StreamTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamTable")
            .field("streams", &self.lock().len())
            .finish()
    }
}

impl StreamTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Arc<StreamEntry>>> {
        self.streams
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Creates a named stream. `shards == 0` means
    /// [`DEFAULT_STREAM_SHARDS`]; `window == 0` means the registry default.
    ///
    /// The engine is built *outside* the table lock (worker threads spawn
    /// here), so a CREATE never stalls other tenants' lookups.
    pub fn create(
        &self,
        name: &str,
        algo: &str,
        seed: u64,
        budget_words: u64,
        shards: u16,
        window: u64,
    ) -> Result<(), WireError> {
        self.create_stream(CreateStream {
            name: name.to_string(),
            algo: algo.to_string(),
            seed,
            budget_words,
            shards,
            window,
        })
    }

    /// Creates the stream `recipe` describes, as [`create`](Self::create)
    /// does.
    pub(crate) fn create_stream(&self, recipe: CreateStream) -> Result<(), WireError> {
        let entry = self.new_entry(recipe)?;
        self.insert(entry)
    }

    /// Recreates a stream from a checkpoint: replays the recorded CREATE
    /// recipe (same algorithm, seed, budget, shards, window — so the
    /// engine is built bit-identically), then restores the engine state.
    /// Engine-level validation failures surface as
    /// [`ErrorCode::BadSnapshot`].
    pub fn create_restored(&self, cp: &StreamCheckpoint) -> Result<(), WireError> {
        let mut entry = self.new_entry(CreateStream {
            name: cp.name.clone(),
            algo: cp.algo.clone(),
            seed: cp.seed,
            budget_words: cp.budget_words,
            shards: cp.shards,
            window: cp.window,
        })?;
        let engine = entry
            .engine
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        // The restore publishes every shard at the restored edge count, so
        // a QUERY answers the restored bits as soon as the entry is listed.
        engine
            .restore(&cp.engine)
            .map_err(|e| WireError::new(ErrorCode::BadSnapshot, e.to_string()))?;
        // The recovered batch count keeps the checkpoint cadence counting
        // from where the lost process left off.
        *entry
            .ingest
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = LatencyCounter::with_ops(cp.ingest_batches);
        *entry.ingested.get_mut() = engine.edges_seen();
        self.insert(entry)
    }

    /// Runs a CREATE recipe: refuses a name already in the table, resolves
    /// `shards == 0` and `window == 0` to their defaults, and builds the
    /// entry's engine through [`build_stream_engine`]. The recipe is kept
    /// verbatim for checkpoints.
    fn new_entry(&self, recipe: CreateStream) -> Result<StreamEntry, WireError> {
        if self.get(&recipe.name).is_some() {
            return Err(duplicate_stream(&recipe.name));
        }
        let shards = if recipe.shards == 0 {
            DEFAULT_STREAM_SHARDS
        } else {
            recipe.shards as usize
        };
        let window = (recipe.window > 0).then_some(recipe.window);
        let (spec, engine, space) = build_stream_engine(
            &recipe.algo,
            recipe.seed,
            recipe.budget_words,
            shards,
            window,
        )?;
        Ok(StreamEntry {
            recipe,
            spec,
            space,
            frontier: engine.frontier(),
            ingested: AtomicU64::new(0),
            query: Mutex::new(LatencyCounter::new()),
            ingest: Mutex::new(LatencyCounter::new()),
            engine: Mutex::new(engine),
        })
    }

    fn insert(&self, entry: StreamEntry) -> Result<(), WireError> {
        let mut streams = self.lock();
        // Re-check under the lock: two concurrent CREATEs must not both win.
        if streams.iter().any(|s| s.name() == entry.name()) {
            return Err(duplicate_stream(entry.name()));
        }
        streams.push(Arc::new(entry));
        Ok(())
    }

    /// Resolves a name to its entry.
    pub fn get(&self, name: &str) -> Option<Arc<StreamEntry>> {
        self.lock().iter().find(|s| s.name() == name).cloned()
    }

    /// Resolves a name or produces the UNKNOWN_STREAM error.
    pub fn require(&self, name: &str) -> Result<Arc<StreamEntry>, WireError> {
        self.get(name).ok_or_else(|| {
            WireError::new(
                ErrorCode::UnknownStream,
                format!("no stream named {name:?}"),
            )
        })
    }

    /// Removes a stream. Its engine flushes queued batches and joins its
    /// workers when the last `Arc` drops, after the table lock is released.
    pub fn delete(&self, name: &str) -> Result<(), WireError> {
        let mut streams = self.lock();
        let index = streams.iter().position(|s| s.name() == name);
        let removed = index.map(|i| streams.remove(i));
        drop(streams);
        if removed.is_none() {
            return Err(WireError::new(
                ErrorCode::UnknownStream,
                format!("no stream named {name:?}"),
            ));
        }
        Ok(())
    }

    /// Per-stream counters for every live stream, in creation order.
    pub fn stats(&self) -> Vec<StreamStats> {
        // Snapshot the entries first so per-stream reads (which can wait
        // for the frontier) happen outside the table lock.
        let entries: Vec<Arc<StreamEntry>> = self.lock().clone();
        entries.iter().map(|entry| entry.stats()).collect()
    }

    /// Number of live streams.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the table has no streams.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drops every stream outside the table lock, flushing queued batches
    /// and joining all engine worker threads — a graceful drain's last step.
    pub fn clear(&self) {
        let streams = std::mem::take(&mut *self.lock());
        drop(streams);
    }
}

/// The DUPLICATE_STREAM refusal of a CREATE whose name is taken.
fn duplicate_stream(name: &str) -> WireError {
    WireError::new(
        ErrorCode::DuplicateStream,
        format!("stream {name:?} already exists"),
    )
}

/// What one EDGES frame did to its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ingested {
    /// The stream's total EDGES-frame count — what the server's
    /// count-based checkpoint cadence keys on.
    pub(crate) batches: u64,
    /// The stream's edge count with this frame's edges in — what a QUERY
    /// on the same connection waits for.
    pub(crate) edges: u64,
}

/// Ingests one batch into an entry, recording enqueue latency. The batch is
/// enqueued on the engine's bounded queues and this returns without waiting
/// for processing (backpressure applies when the queues are full).
pub(crate) fn ingest(entry: &StreamEntry, batch: &[Edge]) -> Ingested {
    let mut engine = entry.lock();
    let (_, nanos) = crate::metrics::timed(|| engine.process_batch(batch));
    let mut ingest = entry.ingest_latency();
    ingest.record(nanos);
    let edges = engine.edges_seen();
    entry.ingested.store(edges, Ordering::SeqCst);
    Ingested {
        batches: ingest.ops(),
        edges,
    }
}

/// Ingests one batch into an entry, as an EDGES frame does, and returns
/// the stream's total EDGES-frame count.
pub fn ingest_batch(entry: &StreamEntry, batch: &[Edge]) -> u64 {
    ingest(entry, batch).batches
}

/// Answers a QUERY at the engine's frontier once it covers `edges`,
/// recording query latency. It takes no stream lock, so it never waits
/// for another connection's ingest or SNAPSHOT, only for the frontier.
pub(crate) fn query_at(entry: &StreamEntry, edges: u64) -> Reading {
    let (reading, nanos) = crate::metrics::timed(|| entry.frontier.read(edges));
    entry.query_latency().record(nanos);
    reading
}

/// Answers a query that sees every batch ingested before the call:
/// `(estimate, edges, memory words)`.
pub fn query_stream(entry: &StreamEntry) -> (f64, u64, u64) {
    let reading = query_at(entry, entry.ingested());
    (reading.estimate, reading.edges, reading.memory_words as u64)
}

/// Takes a checkpoint of a stream: CREATE parameters, replay offset, and
/// engine snapshot, consistent at one instant (the entry lock is held and
/// the engine snapshot synchronises in-flight batches). Streams whose
/// algorithm is not [`snapshotable`](StreamEntry::snapshotable) are
/// refused with [`ErrorCode::SnapshotUnsupported`] — the typed honesty the
/// registry flag exists for.
pub fn checkpoint_stream(entry: &StreamEntry) -> Result<StreamCheckpoint, WireError> {
    if !entry.snapshotable() {
        return Err(WireError::new(
            ErrorCode::SnapshotUnsupported,
            format!(
                "stream {:?} runs {:?}, which does not support snapshots",
                entry.name(),
                entry.algo()
            ),
        ));
    }
    let engine = entry.lock();
    let snapshot = engine
        .snapshot()
        .map_err(|e| WireError::new(ErrorCode::SnapshotUnsupported, e.to_string()))?;
    let recipe = &entry.recipe;
    Ok(StreamCheckpoint {
        name: recipe.name.clone(),
        algo: recipe.algo.clone(),
        seed: recipe.seed,
        budget_words: recipe.budget_words,
        shards: recipe.shards,
        window: recipe.window,
        replay_edges: engine.edges_seen(),
        ingest_batches: entry.ingest_latency().ops(),
        engine: snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: u64) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, i + 1)).collect()
    }

    #[test]
    fn create_get_delete_round_trip() {
        let table = StreamTable::new();
        assert!(table.is_empty());
        table
            .create("clicks", "neighborhood-bulk", 7, 1 << 14, 2, 0)
            .unwrap();
        assert_eq!(table.len(), 1);
        let entry = table.require("clicks").unwrap();
        assert_eq!(entry.name(), "clicks");
        assert_eq!(entry.algo(), "neighborhood-bulk");
        assert!(entry.space() >= 1);
        table.delete("clicks").unwrap();
        assert!(table.is_empty());
        assert_eq!(
            table.require("clicks").unwrap_err().code,
            ErrorCode::UnknownStream
        );
    }

    #[test]
    fn duplicate_creates_and_unknown_algos_are_refused() {
        let table = StreamTable::new();
        table.create("s", "exact", 0, 1 << 10, 1, 0).unwrap();
        let err = table.create("s", "exact", 0, 1 << 10, 1, 0).unwrap_err();
        assert_eq!(err.code, ErrorCode::DuplicateStream);
        let err = table
            .create("t", "no-such-algo", 0, 1 << 10, 1, 0)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownAlgorithm);
        assert!(err.message.contains("neighborhood"), "{err}");
        let err = table.delete("missing").unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownStream);
    }

    #[test]
    fn served_engine_matches_the_offline_factory_recipe_bit_for_bit() {
        // The parity contract, in miniature: a table-created stream fed
        // batches must equal the documented recipe built offline
        // (space_for_budget under SERVE_STREAM_HINT, then build_sharded).
        let (seed, budget, shards) = (99u64, 1u64 << 14, 3u16);
        let table = StreamTable::new();
        table
            .create("s", "neighborhood-bulk", seed, budget, shards, 0)
            .unwrap();
        let entry = table.require("s").unwrap();
        for chunk in batch(500).chunks(64) {
            ingest_batch(&entry, chunk);
        }
        let (served, edges, _) = query_stream(&entry);

        let spec = find_algo("neighborhood-bulk").unwrap();
        let space = spec.space_for_budget(budget as usize, &SERVE_STREAM_HINT);
        let mut offline: StreamEngine =
            spec.build_sharded(&AlgoParams::new(space, seed), shards as usize);
        for chunk in batch(500).chunks(64) {
            offline.process_batch(chunk);
        }
        assert_eq!(edges, 500);
        assert_eq!(served.to_bits(), offline.estimate().to_bits());
    }

    #[test]
    fn streams_are_isolated() {
        let table = StreamTable::new();
        table.create("a", "exact", 0, 1 << 10, 1, 0).unwrap();
        table.create("b", "exact", 0, 1 << 10, 1, 0).unwrap();
        let a = table.require("a").unwrap();
        let b = table.require("b").unwrap();
        // A triangle into `a` only.
        ingest_batch(
            &a,
            &[
                Edge::new(1u64, 2u64),
                Edge::new(2u64, 3u64),
                Edge::new(1u64, 3u64),
            ],
        );
        let (est_a, edges_a, _) = query_stream(&a);
        let (est_b, edges_b, _) = query_stream(&b);
        assert_eq!((est_a, edges_a), (1.0, 3));
        assert_eq!((est_b, edges_b), (0.0, 0));
    }

    #[test]
    fn stats_report_creation_order_and_counters() {
        let table = StreamTable::new();
        table.create("first", "exact", 0, 1 << 10, 1, 0).unwrap();
        table.create("second", "exact", 0, 1 << 10, 1, 0).unwrap();
        let first = table.require("first").unwrap();
        ingest_batch(&first, &batch(10));
        ingest_batch(&first, &batch(10));
        let _ = query_stream(&first);
        let stats = table.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "first");
        assert_eq!(stats[1].name, "second");
        assert_eq!(stats[0].edges, 20);
        assert_eq!(stats[0].ingest_batches, 2);
        assert_eq!(stats[0].queries, 1);
        assert_eq!(stats[1].ingest_batches, 0);
        assert!(stats[0].memory_words > 0);
    }

    #[test]
    fn zero_shards_and_zero_window_mean_defaults() {
        let table = StreamTable::new();
        table
            .create("w", "sliding", 1, 1 << 12, 0, 0)
            .expect("defaults must be accepted");
        let entry = table.require("w").unwrap();
        ingest_batch(&entry, &batch(8));
        let (_, edges, _) = query_stream(&entry);
        assert_eq!(edges, 8);
    }

    #[test]
    fn checkpoint_restore_round_trips_bit_identically() {
        let table = StreamTable::new();
        table
            .create("clicks", "neighborhood-bulk", 21, 1 << 14, 2, 0)
            .unwrap();
        let entry = table.require("clicks").unwrap();
        for chunk in batch(300).chunks(50) {
            ingest_batch(&entry, chunk);
        }
        let cp = checkpoint_stream(&entry).unwrap();
        assert_eq!(cp.replay_edges, 300);
        assert_eq!(cp.ingest_batches, 6);
        assert_eq!((cp.seed, cp.shards), (21, 2));

        // More edges flow into the original after the checkpoint; the
        // restored stream replays the same suffix and must agree in bits.
        let suffix = batch(140);
        for chunk in suffix.chunks(50) {
            ingest_batch(&entry, chunk);
        }
        let (want, want_edges, _) = query_stream(&entry);

        let other = StreamTable::new();
        other.create_restored(&cp).unwrap();
        let restored = other.require("clicks").unwrap();
        assert!(restored.snapshotable());
        for chunk in suffix.chunks(50) {
            ingest_batch(&restored, chunk);
        }
        let (got, got_edges, _) = query_stream(&restored);
        assert_eq!(got_edges, want_edges);
        assert_eq!(got.to_bits(), want.to_bits());
        // The recovered cadence counter resumes from the checkpoint.
        assert_eq!(other.stats()[0].ingest_batches, 6 + 3);
    }

    #[test]
    fn non_snapshotable_streams_are_refused_with_a_typed_error() {
        let table = StreamTable::new();
        table.create("s", "exact", 0, 1 << 10, 1, 0).unwrap();
        let entry = table.require("s").unwrap();
        assert!(!entry.snapshotable());
        let err = checkpoint_stream(&entry).unwrap_err();
        assert_eq!(err.code, ErrorCode::SnapshotUnsupported);
        assert!(err.message.contains("exact"), "{err}");
    }

    #[test]
    fn restoring_a_corrupt_or_duplicate_checkpoint_fails_typed() {
        let table = StreamTable::new();
        table
            .create("s", "neighborhood-bulk", 3, 1 << 12, 1, 0)
            .unwrap();
        let entry = table.require("s").unwrap();
        ingest_batch(&entry, &batch(64));
        let cp = checkpoint_stream(&entry).unwrap();

        // Same table: the name is taken.
        let err = table.create_restored(&cp).unwrap_err();
        assert_eq!(err.code, ErrorCode::DuplicateStream);

        // Corrupt engine bytes: BAD_SNAPSHOT, and no stream appears.
        let fresh = StreamTable::new();
        let mut bent = cp.clone();
        let mid = bent.engine.len() / 2;
        bent.engine[mid] ^= 0xFF;
        let err = fresh.create_restored(&bent).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadSnapshot);
        assert!(fresh.is_empty());

        // Unknown algorithm in the checkpoint: the CREATE-side error.
        let mut alien = cp.clone();
        alien.algo = "no-such-algo".to_string();
        let err = fresh.create_restored(&alien).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownAlgorithm);
    }

    #[test]
    fn frontier_queries_never_take_the_stream_lock() {
        // A QUERY from a connection with no writes to the stream waits for
        // nothing, so it must return while another thread holds the
        // stream's mutex, as ingest does while it waits for queue space.
        let table = StreamTable::new();
        table
            .create("s", "neighborhood-bulk", 5, 1 << 12, 2, 0)
            .unwrap();
        let entry = table.require("s").unwrap();
        for chunk in batch(300).chunks(50) {
            ingest_batch(&entry, chunk);
        }
        let (estimate, edges, words) = query_stream(&entry);
        let held = entry.lock();
        let (done, reply) = std::sync::mpsc::channel();
        let reader = {
            let entry = Arc::clone(&entry);
            std::thread::spawn(move || done.send(query_at(&entry, 0)).unwrap())
        };
        let reading = reply.recv_timeout(std::time::Duration::from_secs(10));
        drop(held);
        reader.join().unwrap();
        let reading = reading.expect("a frontier QUERY waited for the stream lock");
        assert_eq!(
            (
                reading.estimate.to_bits(),
                reading.edges,
                reading.memory_words as u64
            ),
            (estimate.to_bits(), edges, words)
        );
        assert_eq!(table.stats()[0].queries, 2);
    }

    #[test]
    fn stats_read_the_frontier_without_the_stream_lock() {
        // STATS reads the frontier like QUERY, so it must return while
        // another thread holds the stream's mutex, with the bits of a query
        // taken before, and without counting as a QUERY.
        let table = Arc::new(StreamTable::new());
        table
            .create("s", "neighborhood-bulk", 5, 1 << 12, 2, 0)
            .unwrap();
        let entry = table.require("s").unwrap();
        for chunk in batch(300).chunks(50) {
            ingest_batch(&entry, chunk);
        }
        let (estimate, edges, words) = query_stream(&entry);
        let held = entry.lock();
        let (done, reply) = std::sync::mpsc::channel();
        let reader = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || done.send(table.stats()).unwrap())
        };
        let stats = reply.recv_timeout(std::time::Duration::from_secs(10));
        drop(held);
        reader.join().unwrap();
        let stats = stats.expect("a STATS waited for the stream lock");
        assert_eq!(
            (
                stats[0].estimate.to_bits(),
                stats[0].edges,
                stats[0].memory_words
            ),
            (estimate.to_bits(), edges, words)
        );
        assert_eq!((stats[0].ingest_batches, stats[0].queries), (6, 1));
    }

    #[test]
    fn a_restored_stream_answers_frontier_reads_at_once() {
        let table = StreamTable::new();
        table
            .create("s", "neighborhood-bulk", 8, 1 << 12, 2, 0)
            .unwrap();
        let entry = table.require("s").unwrap();
        for chunk in batch(200).chunks(40) {
            ingest_batch(&entry, chunk);
        }
        let (estimate, edges, words) = query_stream(&entry);
        let cp = checkpoint_stream(&entry).unwrap();

        let other = StreamTable::new();
        other.create_restored(&cp).unwrap();
        let restored = other.require("s").unwrap();
        assert_eq!(restored.ingested(), edges);
        let reading = query_at(&restored, 0);
        assert_eq!(
            (
                reading.estimate.to_bits(),
                reading.edges,
                reading.memory_words as u64
            ),
            (estimate.to_bits(), edges, words)
        );
    }

    #[test]
    fn clear_joins_everything() {
        let table = StreamTable::new();
        table
            .create("s", "neighborhood-bulk", 1, 1 << 12, 4, 0)
            .unwrap();
        let entry = table.require("s").unwrap();
        ingest_batch(&entry, &batch(100));
        drop(entry);
        table.clear();
        assert!(table.is_empty());
    }
}
