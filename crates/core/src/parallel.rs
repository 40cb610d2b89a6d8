//! Multi-core sharded counting.
//!
//! The paper's conclusion (§6) observes that maintaining the estimate is
//! CPU-bound even when streaming from disk, and points to follow-up work on
//! a parallel, cache-efficient variant of neighborhood sampling. This module
//! provides the natural shared-nothing parallelisation: [`ShardedEstimator`]
//! runs `K` independent estimators over the same stream, each advancing
//! over every batch on its own long-lived worker thread, and queries
//! average the shard estimates. Because estimators never interact, `K`
//! shards of `ceil(r/K)` neighborhood-sampling estimators compute the same
//! *distribution* of estimates as one pool of `r`.
//!
//! Each worker drains one bounded FIFO queue that carries batches and
//! markers. [`ShardedEstimator::process_batch`] enqueues the batch and
//! returns, so the hot path has no spawn or join. A read sends a marker
//! down every queue and waits for every worker's answer, so it sees every
//! batch queued before it; it then runs on the caller's thread under the
//! shard mutexes. A worker that panics drops its queue and its reply
//! channel, so the caller's next send or wait fails instead of hanging.
//! ARCHITECTURE.md § "The persistent sharded engine" has the whole design.
//!
//! How a registry algorithm's space parameter is split across shards is
//! the registry's business: `tristream_baselines::registry::AlgoSpec::
//! build_sharded` is the one recipe `count`, `count --algo` and the serve
//! daemon all build through.

use crate::traits::TriangleEstimator;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use tristream_graph::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use tristream_graph::Edge;
use tristream_sample::mean;

/// Multiplier used to decorrelate per-shard seeds (the golden-ratio mixing
/// constant). Part of the counter's deterministic seeding contract: shard
/// `i` is seeded with [`shard_seed`]`(seed, i)` = `seed + i * SHARD_SEED_STRIDE`.
pub const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9;

/// The per-shard seed under the deterministic sharding contract: shard
/// `shard` of a counter constructed with root seed `seed` is seeded
/// `seed + shard · `[`SHARD_SEED_STRIDE`] (wrapping). This helper is the
/// single implementation of that arithmetic — `S1-seeding` requires all
/// derivation sites to reference it — so reference implementations stay
/// estimate-for-estimate comparable by construction.
#[inline]
#[must_use]
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed.wrapping_add(shard as u64 * SHARD_SEED_STRIDE)
}

/// Drains a *batch source* — any fallible iterator of edge batches — into
/// `sink`, one call per batch in order, and returns the total number of
/// edges handed over. Stops at (and propagates) the source's first error;
/// batches sunk before the error stay sunk, matching the semantics of
/// feeding the stream by hand. The single implementation behind
/// [`ShardedEstimator::process_source`] and the CLI's `count` on `.tsb`
/// input, sequential or sharded.
pub fn drain_batch_source<E>(
    source: impl IntoIterator<Item = Result<Vec<Edge>, E>>,
    mut sink: impl FnMut(&[Edge]),
) -> Result<u64, E> {
    let mut edges = 0u64;
    for batch in source {
        let batch = batch?;
        edges += batch.len() as u64;
        sink(&batch);
    }
    Ok(edges)
}

/// Per-shard queue capacity, in jobs. A few batches of slack overlap
/// reading the stream with processing it; past that,
/// [`ShardedEstimator::process_batch`] blocks instead of growing memory.
const QUEUE_DEPTH: usize = 4;

enum Job {
    /// One `process_edges` call, so batch boundaries are the caller's.
    Batch(Arc<[Edge]>),
    /// Answer on the reply channel, after every job queued before it.
    Marker,
}

/// A shard's estimator, the queue into its worker, the channel the worker
/// answers markers on, and the worker itself.
struct Shard<C> {
    estimator: Arc<Mutex<C>>,
    queue: SyncSender<Job>,
    replies: Receiver<()>,
    worker: JoinHandle<()>,
}

/// Runs a shard's jobs in queue order until the queue closes. Stops early,
/// failing the caller's next send or wait, if a panic on the caller's
/// thread poisoned the shard or no one waits for answers any more.
fn work<C: TriangleEstimator>(estimator: &Mutex<C>, jobs: Receiver<Job>, replies: SyncSender<()>) {
    for job in jobs {
        let carried_on = match job {
            Job::Batch(batch) => estimator
                .lock()
                .map(|mut shard| shard.process_edges(&batch))
                .is_ok(),
            Job::Marker => replies.send(()).is_ok(),
        };
        if !carried_on {
            return;
        }
    }
}

/// A sharded, multi-threaded wrapper around *any* [`TriangleEstimator`]:
/// `shards` independent instances built by a caller-supplied factory, each
/// advanced on its own persistent worker thread, with the final estimate
/// the plain mean of the shard estimates.
///
/// The factory receives each shard's seed under the deterministic sharding
/// contract: shard `i` gets [`shard_seed`]`(seed, i)`. With a single shard
/// the wrapper is *bit-identical* to the sequential estimator fed the same
/// batches — the property the parity tests pin.
///
/// This is the execution path behind `tristream-cli count --parallel` and
/// every served stream: the registry's boxed constructors plug straight in
/// as `ShardedEstimator<Box<dyn TriangleEstimator + Send>>`. It is `Send`
/// but not `Sync` (reads wait on reply channels), so one thread reads it.
///
/// ```
/// use tristream_core::{BulkTriangleCounter, ShardedEstimator, TriangleEstimator};
///
/// let mut sharded = ShardedEstimator::from_factory(4, 1, |s| BulkTriangleCounter::new(64, s));
/// let stream = tristream_gen::planted_triangles(20, 40, 1);
/// for batch in stream.batches(128) {
///     sharded.process_batch(batch);
/// }
/// assert_eq!(sharded.shard_estimates().len(), 4);
/// assert_eq!(sharded.edges_seen(), stream.len() as u64);
/// ```
pub struct ShardedEstimator<C: TriangleEstimator + Send + 'static> {
    shards: Vec<Shard<C>>,
    edges_seen: u64,
}

impl<C: TriangleEstimator + Send + 'static> std::fmt::Debug for ShardedEstimator<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEstimator")
            .field("shards", &self.num_shards())
            .field("edges_seen", &self.edges_seen)
            .finish_non_exhaustive()
    }
}

impl<C: TriangleEstimator + Send + 'static> ShardedEstimator<C> {
    /// Builds `shards` estimators via `factory` — called with each shard's
    /// decorrelated seed, in shard order — and then spawns one worker per
    /// shard. The workers live until the estimator is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, or if the OS refuses a worker thread.
    pub fn from_factory(shards: usize, seed: u64, mut factory: impl FnMut(u64) -> C) -> Self {
        assert!(shards > 0, "at least one shard is required");
        let estimators: Vec<C> = (0..shards).map(|i| factory(shard_seed(seed, i))).collect();
        // Built up in place, so that if a spawn fails, dropping `sharded`
        // joins the workers already running.
        let mut sharded = Self {
            shards: Vec::with_capacity(shards),
            edges_seen: 0,
        };
        for (i, estimator) in estimators.into_iter().enumerate() {
            let estimator = Arc::new(Mutex::new(estimator));
            let (queue, jobs) = mpsc::sync_channel(QUEUE_DEPTH);
            let (reply, replies) = mpsc::sync_channel(1);
            let state = Arc::clone(&estimator);
            #[allow(clippy::expect_used)]
            let worker = std::thread::Builder::new()
                .name(format!("tristream-shard-{i}"))
                .spawn(move || work(&state, jobs, reply))
                // analyze: allow(P1, reason = "the OS refusing a thread unwinds only the caller building this estimator, which does not exist yet; in the daemon that is one CREATE's connection thread, holding no table or stream lock, so every other stream keeps serving")
                .expect("spawning shard worker thread");
            sharded.shards.push(Shard {
                estimator,
                queue,
                replies,
                worker,
            });
        }
        sharded
    }

    /// Number of shards (persistent worker threads).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Enqueues one batch on every shard and returns without waiting for
    /// processing, as long as each shard's bounded queue has room. Empty
    /// batches are no-ops.
    ///
    /// # Panics
    ///
    /// Panics if a worker has died, which only follows a panic on its shard.
    pub fn process_batch(&mut self, batch: &[Edge]) {
        if batch.is_empty() {
            return;
        }
        let batch: Arc<[Edge]> = Arc::from(batch);
        for shard in &self.shards {
            #[allow(clippy::expect_used)]
            shard
                .queue
                .send(Job::Batch(Arc::clone(&batch)))
                // analyze: allow(P1, reason = "a worker drops its queue only by exiting, which it does only after a panic on its shard; the send error resurfaces that panic on the caller's thread")
                .expect("shard worker terminated unexpectedly");
        }
        self.edges_seen += batch.len() as u64;
    }

    /// Ingests a whole *batch source* — any fallible iterator of edge
    /// batches, such as
    /// `tristream_graph::binary::read_edges_binary_batched_file` — one
    /// batch per [`process_batch`](Self::process_batch) call, and returns
    /// the number of edges ingested. The source's first error is
    /// propagated; edges ingested before it remain counted.
    pub fn process_source<E>(
        &mut self,
        source: impl IntoIterator<Item = Result<Vec<Edge>, E>>,
    ) -> Result<u64, E> {
        drain_batch_source(source, |batch| self.process_batch(batch))
    }

    /// The one read path: sends a marker down every queue and waits for
    /// every worker's answer, so every batch queued before this call is
    /// processed; then applies `f` to each shard in order, under its mutex,
    /// on the caller's thread. It allocates nothing beyond its result.
    ///
    /// # Panics
    ///
    /// Panics if a worker died or a shard is poisoned, which only happens
    /// after a panic on that shard.
    fn map_synced<T>(&self, mut f: impl FnMut(&mut C) -> T) -> Vec<T> {
        for shard in &self.shards {
            // A dead worker fails this send and the wait below alike; the
            // wait reports it.
            let _ = shard.queue.send(Job::Marker);
        }
        // Wait on every shard, even past a dead one, so that no answer is
        // left queued to release a later read early.
        let mut answered = true;
        for shard in &self.shards {
            answered &= shard.replies.recv().is_ok();
        }
        self.shards
            .iter()
            .map(|shard| {
                let estimator = shard.estimator.lock().ok().filter(|_| answered);
                #[allow(clippy::expect_used)]
                let mut estimator = estimator
                    // analyze: allow(P1, reason = "a worker stops answering, and a shard is poisoned, only after a panic on that shard; resurfacing it on the reader's thread beats reading a shard the panic left behind")
                    .expect("shard lost to an earlier panic");
                f(&mut estimator)
            })
            .collect()
    }

    /// Per-shard estimates, in shard order (waits for in-flight batches).
    pub fn shard_estimates(&self) -> Vec<f64> {
        self.map_synced(|shard| shard.estimate())
    }

    /// Per-shard snapshots, in shard order — the building blocks the
    /// [`TriangleEstimator::snapshot`] container nests, exposed so callers
    /// can also ship shard state to independent processes.
    pub fn shard_snapshots(&self) -> Result<Vec<Vec<u8>>, SnapshotError> {
        self.map_synced(|shard| shard.snapshot())
            .into_iter()
            .collect()
    }

    /// Merge snapshots taken by `N` *independent* single-process
    /// estimators into this `N`-shard estimator, under the shard-seed
    /// contract: process `i` must have been seeded `shard_seed(seed, i)`
    /// (the seed [`from_factory`](Self::from_factory) hands shard `i`) and
    /// fed the same stream as its peers. Because every shard sees the
    /// whole stream and the combined estimate is the shard mean, the
    /// merged estimator's `estimate()` is bit-identical to the
    /// single-process `N`-shard run over that stream.
    ///
    /// Snapshot `i` replaces shard `i`'s state. All snapshots must agree
    /// on `edges_seen` (they claim to describe the same stream) and the
    /// count must match [`num_shards`](Self::num_shards); mismatches are
    /// [`SnapshotError::Incompatible`] and leave earlier shards already
    /// restored — callers treat a failed merge as fatal for the receiver,
    /// exactly as a failed [`TriangleEstimator::restore`] would be.
    pub fn merge_shard_snapshots(&mut self, snapshots: &[Vec<u8>]) -> Result<(), SnapshotError> {
        if snapshots.len() != self.num_shards() {
            return Err(SnapshotError::Incompatible {
                reason: format!(
                    "merging {} snapshots into {} shards",
                    snapshots.len(),
                    self.num_shards()
                ),
            });
        }
        let mut edges = None;
        for (i, bytes) in snapshots.iter().enumerate() {
            let claimed = snapshot_edges_seen(bytes)?;
            match edges {
                None => edges = Some(claimed),
                Some(prev) if prev != claimed => {
                    return Err(SnapshotError::Incompatible {
                        reason: format!(
                            "snapshot {i} claims {claimed} edges seen but its peers claim {prev}; \
                             merged shards must describe the same stream"
                        ),
                    });
                }
                Some(_) => {}
            }
        }
        self.restore_shards(snapshots, edges.unwrap_or(0))
    }

    /// Hands shard `i` snapshot `i` (the callers check there is one per
    /// shard), then adopts `edges_seen`; returns the first shard's error.
    fn restore_shards(
        &mut self,
        snapshots: &[impl AsRef<[u8]>],
        edges_seen: u64,
    ) -> Result<(), SnapshotError> {
        let mut snapshots = snapshots.iter();
        self.map_synced(|shard| {
            snapshots
                .next()
                .map_or(Ok(()), |bytes| shard.restore(bytes.as_ref()))
        })
        .into_iter()
        .collect::<Result<(), _>>()?;
        self.edges_seen = edges_seen;
        Ok(())
    }
}

impl<C: TriangleEstimator + Send + 'static> Drop for ShardedEstimator<C> {
    fn drop(&mut self) {
        for shard in self.shards.drain(..) {
            // Closing the queue ends the worker's loop once it has run the
            // jobs already queued.
            drop((shard.queue, shard.replies));
            // A worker that panicked has surfaced (or will surface) the
            // panic on the caller's thread; don't double-panic in drop.
            let _ = shard.worker.join();
        }
    }
}

/// Decode the `edges_seen` a (bulk or sharded) estimator snapshot claims.
fn snapshot_edges_seen(bytes: &[u8]) -> Result<u64, SnapshotError> {
    let reader = SnapshotReader::parse(bytes)?;
    let mut meta = reader.section(crate::snapshot::SEC_META)?;
    let kind = meta.u8("snapshot kind tag")?;
    match kind {
        crate::snapshot::KIND_BULK => {
            let _r = meta.u64("estimator count")?;
            let _seed = meta.u64("construction seed")?;
            meta.u64("edges seen")
        }
        crate::snapshot::KIND_SHARDED => {
            let _shards = meta.u64("shard count")?;
            meta.u64("edges seen")
        }
        other => Err(SnapshotError::Incompatible {
            reason: format!("unknown snapshot kind {other}"),
        }),
    }
}

impl<C: TriangleEstimator + Send + 'static> TriangleEstimator for ShardedEstimator<C> {
    fn process_edge(&mut self, edge: Edge) {
        self.process_batch(&[edge]);
    }

    fn process_edges(&mut self, edges: &[Edge]) {
        self.process_batch(edges);
    }

    /// Mean of the shard estimates. Every shard sees the whole stream, so
    /// each shard estimate is already unbiased and the mean only reduces
    /// variance; with equal per-shard pools this equals pooling all
    /// estimators in one counter.
    fn estimate(&self) -> f64 {
        mean(&self.shard_estimates())
    }

    fn edges_seen(&self) -> u64 {
        self.edges_seen
    }

    /// Sum of the shard estimators' state.
    fn memory_words(&self) -> usize {
        self.map_synced(|shard| shard.memory_words()).iter().sum()
    }

    /// Sum over the shards, when every shard keeps the count.
    fn estimators_with_triangle(&self) -> Option<usize> {
        self.map_synced(|shard| shard.estimators_with_triangle())
            .into_iter()
            .sum()
    }

    /// Snapshots are supported exactly when every shard supports them.
    fn supports_snapshot(&self) -> bool {
        self.map_synced(|shard| shard.supports_snapshot())
            .iter()
            .all(|&s| s)
    }

    /// A `KIND_SHARDED` container nesting each shard's own snapshot (see
    /// [`crate::snapshot`] for the layout).
    fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        let shard_bytes = self.shard_snapshots()?;
        let mut meta = Vec::with_capacity(17);
        meta.push(crate::snapshot::KIND_SHARDED);
        tristream_graph::snapshot::put_u64s(
            &mut meta,
            &[shard_bytes.len() as u64, self.edges_seen],
        );
        let mut writer = SnapshotWriter::new();
        writer.section(crate::snapshot::SEC_META, &meta)?;
        for (i, bytes) in shard_bytes.iter().enumerate() {
            let Ok(offset) = u16::try_from(i) else {
                return Err(SnapshotError::Incompatible {
                    reason: format!("{} shards exceed the section id space", shard_bytes.len()),
                });
            };
            writer.section(crate::snapshot::SEC_SHARD_BASE + offset, bytes)?;
        }
        Ok(writer.finish())
    }

    /// Restore from a `KIND_SHARDED` snapshot with a matching shard
    /// count: shard `i` is handed nested snapshot `i`, and `edges_seen`
    /// is adopted from the container.
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), SnapshotError> {
        let reader = SnapshotReader::parse(snapshot)?;
        let mut meta = reader.section(crate::snapshot::SEC_META)?;
        let kind = meta.u8("snapshot kind tag")?;
        if kind != crate::snapshot::KIND_SHARDED {
            return Err(SnapshotError::Incompatible {
                reason: format!(
                    "expected a sharded snapshot (kind {}), found kind {kind}",
                    crate::snapshot::KIND_SHARDED
                ),
            });
        }
        let shards = meta.u64("shard count")?;
        let edges_seen = meta.u64("edges seen")?;
        meta.finish()?;
        if shards != self.num_shards() as u64 {
            return Err(SnapshotError::Incompatible {
                reason: format!(
                    "snapshot holds {shards} shards but this estimator runs {}",
                    self.num_shards()
                ),
            });
        }
        let mut nested = Vec::with_capacity(self.num_shards());
        for i in 0..self.num_shards() {
            let Ok(offset) = u16::try_from(i) else {
                return Err(SnapshotError::Incompatible {
                    reason: format!("{} shards exceed the section id space", self.num_shards()),
                });
            };
            let mut section = reader.section(crate::snapshot::SEC_SHARD_BASE + offset)?;
            nested.push(section.rest());
        }
        self.restore_shards(&nested, edges_seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::BulkTriangleCounter;
    use crate::counter::Aggregation;
    use tristream_graph::exact::count_triangles;
    use tristream_graph::Adjacency;

    /// `shards` bulk counters of `r_per_shard` estimators, seeded under the
    /// shard-seed contract.
    fn bulk_shards(r_per_shard: usize, shards: usize, seed: u64) -> Vec<BulkTriangleCounter> {
        (0..shards)
            .map(|i| BulkTriangleCounter::new(r_per_shard, shard_seed(seed, i)))
            .collect()
    }

    fn sharded_bulk(
        r_per_shard: usize,
        shards: usize,
        seed: u64,
    ) -> ShardedEstimator<BulkTriangleCounter> {
        ShardedEstimator::from_factory(shards, seed, |s| BulkTriangleCounter::new(r_per_shard, s))
    }

    #[test]
    #[should_panic]
    fn zero_shards_panics() {
        let _ = sharded_bulk(10, 0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard is required")]
    fn zero_shards_panic_with_the_shard_count_message() {
        // Boxed shards, as the CLI and the daemon build them: the shard
        // count is refused before the factory is ever called.
        let _ = ShardedEstimator::from_factory(0, 1, |_| -> Box<dyn TriangleEstimator + Send> {
            unreachable!("no shard may be built")
        });
    }

    #[test]
    #[should_panic]
    fn zero_estimators_panics() {
        // A zero-estimator shard is refused while the shards are built,
        // before any worker thread exists.
        let _ = sharded_bulk(0, 2, 1);
    }

    #[test]
    fn parallel_estimate_matches_truth_on_a_clustered_graph() {
        let stream = tristream_gen::holme_kim(400, 4, 0.6, 3);
        let truth = count_triangles(&Adjacency::from_stream(&stream)) as f64;
        let mut c = sharded_bulk(4_000, 6, 5);
        for batch in stream.batches(8_192) {
            c.process_batch(batch);
        }
        let est = TriangleEstimator::estimate(&c);
        assert_eq!(TriangleEstimator::edges_seen(&c), stream.len() as u64);
        assert!(
            (est - truth).abs() < 0.2 * truth,
            "parallel estimate {est} vs truth {truth}"
        );
        let held = c.estimators_with_triangle().expect("bulk shards count");
        assert!(held > 0);
        let per_shard: usize = c
            .map_synced(|shard| shard.estimators_with_triangle())
            .iter()
            .sum();
        assert_eq!(held, per_shard, "the count is the sum over shards");
    }

    #[test]
    fn estimators_with_triangle_needs_every_shard_to_count() {
        let stream = tristream_gen::planted_triangles(10, 30, 2);
        let mut mixed = ShardedEstimator::from_factory(2, 4, |seed| {
            if seed == 4 {
                Box::new(BulkTriangleCounter::new(64, seed)) as Box<dyn TriangleEstimator + Send>
            } else {
                Box::new(crate::SlidingWindowTriangleCounter::new(64, 1 << 20, seed))
            }
        });
        mixed.process_batch(stream.edges());
        assert_eq!(mixed.estimators_with_triangle(), None);
    }

    #[test]
    fn single_shard_degenerates_to_the_sequential_counter() {
        let stream = tristream_gen::planted_triangles(25, 50, 9);
        let mut parallel = sharded_bulk(512, 1, 7);
        let mut sequential = BulkTriangleCounter::new(512, 7);
        for batch in stream.batches(64) {
            parallel.process_batch(batch);
            sequential.process_batch(batch);
        }
        assert_eq!(
            TriangleEstimator::estimate(&parallel).to_bits(),
            sequential.estimate().to_bits()
        );
        assert_eq!(
            parallel.shard_snapshots().unwrap(),
            vec![sequential.to_snapshot().unwrap()]
        );
    }

    /// The pre-engine execution model: fresh scoped threads per batch over
    /// the same per-shard counters. Kept as a reference implementation for
    /// the equivalence test below.
    fn scoped_thread_shards(
        r_per_shard: usize,
        shards: usize,
        seed: u64,
        edges: &[Edge],
        batch_size: usize,
    ) -> Vec<BulkTriangleCounter> {
        let mut pool = bulk_shards(r_per_shard, shards, seed);
        for batch in edges.chunks(batch_size) {
            std::thread::scope(|scope| {
                for shard in &mut pool {
                    scope.spawn(|| shard.process_batch(batch));
                }
            });
        }
        pool
    }

    #[test]
    fn persistent_pool_matches_scoped_threads_and_sequential_shards_exactly() {
        // Distributional-equivalence guarantee, checked at the strongest
        // possible level: same seeds ⇒ bit-identical shard state (every
        // estimator, the RNG and its buffer) across all three execution
        // models.
        let stream = tristream_gen::holme_kim(250, 3, 0.5, 19);
        let (r_per_shard, shards, seed, batch) = (200, 3, 23, 113);

        let mut persistent = sharded_bulk(r_per_shard, shards, seed);
        for chunk in stream.edges().chunks(batch) {
            persistent.process_batch(chunk);
        }
        let persistent_state = persistent.shard_snapshots().unwrap();

        let scoped = scoped_thread_shards(r_per_shard, shards, seed, stream.edges(), batch);
        let mut sequential = bulk_shards(r_per_shard, shards, seed);
        for counter in &mut sequential {
            counter.process_stream(stream.edges(), batch);
        }
        let state_of = |pool: &[BulkTriangleCounter]| -> Vec<Vec<u8>> {
            pool.iter().map(|c| c.to_snapshot().unwrap()).collect()
        };
        assert_eq!(persistent_state, state_of(&scoped));
        assert_eq!(persistent_state, state_of(&sequential));
        let sequential_estimates: Vec<f64> = sequential.iter().map(|c| c.estimate()).collect();
        assert_eq!(persistent.shard_estimates(), sequential_estimates);
    }

    #[test]
    fn reads_between_batches_match_direct_sequential_processing_bit_for_bit() {
        // A read sees every batch queued before it: after each batch, every
        // shard's estimators equal those of the same counter fed the same
        // batches on the caller's thread.
        let stream = tristream_gen::holme_kim(150, 3, 0.5, 11);
        let mut sharded = sharded_bulk(64, 4, 21);
        let mut direct = bulk_shards(64, 4, 21);
        for batch in stream.batches(97) {
            sharded.process_batch(batch);
            for counter in &mut direct {
                counter.process_batch(batch);
            }
            let direct_estimates: Vec<Vec<f64>> = direct
                .iter()
                .map(|counter| counter.raw_estimates())
                .collect();
            assert_eq!(
                sharded.map_synced(|shard| shard.raw_estimates()),
                direct_estimates
            );
        }
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut c = sharded_bulk(16, 4, 3);
        c.process_batch(&[]);
        assert_eq!(TriangleEstimator::edges_seen(&c), 0);
        assert_eq!(TriangleEstimator::estimate(&c), 0.0);
    }

    /// Keeps a copy of every batch handed to `process_edges`, so a test can
    /// see exactly which batches reached a shard, and in what order.
    #[derive(Default)]
    struct BatchLog {
        batches: Vec<Vec<Edge>>,
    }

    impl TriangleEstimator for BatchLog {
        fn process_edge(&mut self, edge: Edge) {
            self.process_edges(&[edge]);
        }

        fn process_edges(&mut self, edges: &[Edge]) {
            self.batches.push(edges.to_vec());
        }

        fn estimate(&self) -> f64 {
            0.0
        }

        fn edges_seen(&self) -> u64 {
            self.batches.iter().map(|batch| batch.len() as u64).sum()
        }

        fn memory_words(&self) -> usize {
            0
        }
    }

    #[test]
    fn every_shard_processes_every_batch_once_in_order() {
        let stream = tristream_gen::planted_triangles(20, 50, 3);
        let mut sharded = ShardedEstimator::from_factory(3, 9, |_| BatchLog::default());
        let sent: Vec<Vec<Edge>> = stream.batches(64).map(<[Edge]>::to_vec).collect();
        assert!(sent.len() > 1, "the stream must span several batches");
        for batch in &sent {
            sharded.process_batch(batch);
        }
        assert_eq!(
            sharded.map_synced(|shard| shard.batches.clone()),
            vec![sent; 3]
        );
        assert_eq!(
            sharded.map_synced(|shard| shard.edges_seen()),
            vec![stream.len() as u64; 3]
        );
    }

    #[test]
    fn empty_batches_reach_no_shard() {
        let batch = [Edge::new(1u64, 2u64), Edge::new(2u64, 3u64)];
        let mut sharded = ShardedEstimator::from_factory(2, 1, |_| BatchLog::default());
        sharded.process_batch(&[]);
        sharded.process_batch(&batch);
        sharded.process_batch(&[]);
        assert_eq!(
            sharded.map_synced(|shard| shard.batches.clone()),
            vec![vec![batch.to_vec()]; 2]
        );
        assert_eq!(TriangleEstimator::edges_seen(&sharded), 2);
    }

    #[test]
    fn drain_batch_source_into_shards_matches_manual_batches() {
        let stream = tristream_gen::planted_triangles(20, 50, 3);
        let source = stream
            .batches(64)
            .map(|b| Ok::<_, std::io::Error>(b.to_vec()));
        let mut fed = sharded_bulk(32, 2, 9);
        let edges = drain_batch_source(source, |batch| fed.process_batch(batch)).unwrap();
        assert_eq!(edges, stream.len() as u64);

        let mut manual = sharded_bulk(32, 2, 9);
        for batch in stream.batches(64) {
            manual.process_batch(batch);
        }
        assert_eq!(
            fed.map_synced(|shard| shard.raw_estimates()),
            manual.map_synced(|shard| shard.raw_estimates()),
        );
    }

    #[test]
    fn drain_batch_source_stops_at_the_first_error_and_sinks_nothing_after() {
        let good: Vec<Edge> = (0..10u64).map(|i| Edge::new(i, i + 1)).collect();
        let source = vec![
            Ok(good.clone()),
            Err("disk on fire"),
            Ok(good.clone()), // must never reach a shard
        ];
        let mut sharded = ShardedEstimator::from_factory(2, 1, |_| BatchLog::default());
        assert_eq!(
            drain_batch_source(source, |batch| sharded.process_batch(batch)),
            Err("disk on fire")
        );
        assert_eq!(
            sharded.map_synced(|shard| shard.batches.clone()),
            vec![vec![good]; 2]
        );
    }

    #[test]
    fn process_source_matches_process_stream_bit_for_bit() {
        let stream = tristream_gen::planted_triangles(25, 50, 9);
        let mut by_batch = sharded_bulk(256, 2, 7);
        for batch in stream.batches(64) {
            by_batch.process_batch(batch);
        }
        let mut by_source = sharded_bulk(256, 2, 7);
        let edges = by_source
            .process_source(
                stream
                    .batches(64)
                    .map(|b| Ok::<_, std::io::Error>(b.to_vec())),
            )
            .unwrap();
        assert_eq!(edges, stream.len() as u64);
        assert_eq!(
            TriangleEstimator::edges_seen(&by_source),
            TriangleEstimator::edges_seen(&by_batch)
        );
        assert_eq!(
            by_source.shard_snapshots().unwrap(),
            by_batch.shard_snapshots().unwrap()
        );
    }

    #[test]
    fn process_source_propagates_errors_and_keeps_the_prefix_counted() {
        let good: Vec<Edge> = (0..8u64).map(|i| Edge::new(i, i + 1)).collect();
        let mut c = sharded_bulk(32, 2, 3);
        let result = c.process_source(vec![Ok(good.clone()), Err("gone"), Ok(good)]);
        assert_eq!(result, Err("gone"));
        assert_eq!(
            TriangleEstimator::edges_seen(&c),
            8,
            "prefix before the error stays counted"
        );
    }

    #[test]
    fn sharded_estimator_single_shard_is_bit_identical_to_the_sequential_counter() {
        // The generic factory path must preserve the engine's transport
        // transparency: one shard, same seed, same batch boundaries ⇒ the
        // same bits as the sequential estimator.
        let stream = tristream_gen::planted_triangles(20, 60, 17);
        let mut sharded = sharded_bulk(256, 1, 13);
        let mut sequential = BulkTriangleCounter::new(256, 13);
        for batch in stream.batches(37) {
            sharded.process_batch(batch);
            sequential.process_batch(batch);
        }
        assert_eq!(
            TriangleEstimator::estimate(&sharded).to_bits(),
            TriangleEstimator::estimate(&sequential).to_bits()
        );
        assert_eq!(TriangleEstimator::edges_seen(&sharded), stream.len() as u64);
        assert_eq!(
            TriangleEstimator::memory_words(&sharded),
            TriangleEstimator::memory_words(&sequential)
        );
        assert_eq!(
            sharded.estimators_with_triangle(),
            TriangleEstimator::estimators_with_triangle(&sequential)
        );
    }

    #[test]
    fn sharded_estimator_uses_the_shard_seed_stride_contract() {
        // The factory must be handed exactly the `shard_seed` seeds, so
        // independently built shards stay comparable (and mergeable).
        let mut seeds_seen = Vec::new();
        let sharded = ShardedEstimator::from_factory(3, 21, |seed| {
            seeds_seen.push(seed);
            BulkTriangleCounter::new(8, seed)
        });
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(
            seeds_seen,
            vec![21, 21 + SHARD_SEED_STRIDE, 21 + 2 * SHARD_SEED_STRIDE]
        );
    }

    #[test]
    fn sharded_estimator_over_boxed_shards_matches_concrete_shards() {
        let stream = tristream_gen::planted_triangles(25, 50, 9);
        let mut boxed = ShardedEstimator::from_factory(2, 7, |seed| {
            Box::new(BulkTriangleCounter::new(64, seed)) as Box<dyn TriangleEstimator + Send>
        });
        let mut concrete = sharded_bulk(64, 2, 7);
        for batch in stream.batches(64) {
            boxed.process_batch(batch);
            concrete.process_batch(batch);
        }
        assert_eq!(
            TriangleEstimator::estimate(&boxed).to_bits(),
            TriangleEstimator::estimate(&concrete).to_bits()
        );
        assert_eq!(boxed.shard_estimates(), concrete.shard_estimates());
        assert_eq!(
            boxed.estimators_with_triangle(),
            concrete.estimators_with_triangle()
        );
    }

    #[test]
    fn median_of_means_aggregation_is_supported() {
        // Each shard aggregates its own pool; the sharded estimate is the
        // mean of the shard medians-of-means.
        let stream = tristream_gen::planted_triangles(60, 120, 5);
        let mut c = ShardedEstimator::from_factory(4, 3, |seed| {
            BulkTriangleCounter::with_aggregation(
                2_000,
                seed,
                Aggregation::MedianOfMeans { groups: 8 },
            )
        });
        for batch in stream.batches(2_048) {
            c.process_batch(batch);
        }
        let est = TriangleEstimator::estimate(&c);
        assert!((est - 60.0).abs() < 0.35 * 60.0, "estimate {est}");
    }

    #[test]
    fn drop_joins_all_workers() {
        // Each worker holds a clone of its shard's `Arc`; once the
        // estimator is dropped (and `Drop` has joined the workers), every
        // clone must be gone — no upgrade succeeding proves the threads
        // exited.
        let stream = tristream_gen::planted_triangles(10, 30, 5);
        let mut sharded = sharded_bulk(16, 4, 2);
        let shards: Vec<_> = sharded
            .shards
            .iter()
            .map(|shard| Arc::downgrade(&shard.estimator))
            .collect();
        for batch in stream.batches(16) {
            sharded.process_batch(batch);
        }
        drop(sharded);
        assert!(
            shards.iter().all(|shard| shard.upgrade().is_none()),
            "all worker threads must terminate and release their shards on drop"
        );
    }

    #[test]
    fn boxed_shards_of_different_algorithms_match_sequential_feeding() {
        // The sharded layer is pure transport: a shard driven by its
        // worker must match the same estimator fed the same batches on the
        // caller's thread, bit for bit — here with `Box<dyn>` shards of
        // *different* concrete algorithms.
        use crate::counter::TriangleCounter;
        let build = |seed: u64| -> Box<dyn TriangleEstimator + Send> {
            if seed == 7 {
                Box::new(TriangleCounter::new(64, seed))
            } else {
                Box::new(BulkTriangleCounter::new(64, seed))
            }
        };
        let stream = tristream_gen::planted_triangles(15, 40, 4);
        let mut sharded = ShardedEstimator::from_factory(2, 7, build);
        let mut reference: Vec<_> = (0..2).map(|i| build(shard_seed(7, i))).collect();
        for batch in stream.batches(32) {
            sharded.process_batch(batch);
            for shard in &mut reference {
                shard.process_edges(batch);
            }
        }
        let sharded_bits: Vec<u64> = sharded
            .shard_estimates()
            .iter()
            .map(|e| e.to_bits())
            .collect();
        let reference_bits: Vec<u64> = reference.iter().map(|s| s.estimate().to_bits()).collect();
        assert_eq!(sharded_bits, reference_bits);
        assert_eq!(
            sharded.map_synced(|shard| shard.edges_seen()),
            vec![stream.len() as u64; 2]
        );
    }

    /// Panics on its second `process_edges` call when `armed`: a stand-in
    /// for a bug inside one shard's estimator.
    struct PanicsOnSecondBatch {
        armed: bool,
        batches: u32,
    }

    impl TriangleEstimator for PanicsOnSecondBatch {
        fn process_edge(&mut self, edge: Edge) {
            self.process_edges(&[edge]);
        }

        fn process_edges(&mut self, _edges: &[Edge]) {
            self.batches += 1;
            if self.armed && self.batches == 2 {
                panic!("injected shard failure");
            }
        }

        fn estimate(&self) -> f64 {
            0.0
        }

        fn edges_seen(&self) -> u64 {
            0
        }

        fn memory_words(&self) -> usize {
            0
        }
    }

    #[test]
    fn a_panicking_shard_fails_the_reader_instead_of_hanging_it() {
        // Shard 0 dies on its second batch while shard 1 stays healthy.
        // The read must resurface the panic, and the estimator must still
        // drop: both are checked on a helper thread under a timeout, so a
        // hang fails the test instead of stalling the suite.
        let mut sharded = ShardedEstimator::from_factory(2, 1, |seed| PanicsOnSecondBatch {
            armed: seed == shard_seed(1, 0),
            batches: 0,
        });
        let batch = [Edge::new(1u64, 2u64)];
        sharded.process_batch(&batch);
        sharded.process_batch(&batch);
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let read =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sharded.estimate()));
            done.send(read.is_err()).unwrap();
            drop(sharded);
            done.send(true).unwrap();
        });
        let timeout = std::time::Duration::from_secs(10);
        assert_eq!(
            outcome.recv_timeout(timeout),
            Ok(true),
            "the read must fail, not hang or succeed"
        );
        assert_eq!(
            outcome.recv_timeout(timeout),
            Ok(true),
            "dropping the estimator must return"
        );
    }
}
