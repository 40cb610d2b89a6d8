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
//! Each worker drains one bounded FIFO queue of batches.
//! [`ShardedEstimator::process_batch`] enqueues the batch and returns, so
//! the hot path has no spawn or join. After each batch a worker publishes a
//! fixed-size summary of its shard — the engine's cumulative edge count,
//! the shard's estimate and its memory words — into that shard's ring in
//! the shared [`Frontier`]. The *frontier* is the newest edge count every
//! shard has published, and the engine's estimate is complete there (the
//! paper's bulk algorithm is exact at every batch boundary). A read waits
//! until the frontier covers the edges it must see and answers from the
//! summaries, without touching a shard; reads that need whole shards
//! (snapshot, restore) wait for every submitted batch and then lock them.
//! A worker that exits, by a panic or because its queue closed, marks its
//! shard closed, so a reader waiting on it fails instead of hanging.
//! ARCHITECTURE.md § "The persistent sharded engine" has the whole design.
//!
//! How a registry algorithm's space parameter is split across shards is
//! the registry's business: `tristream_baselines::registry::AlgoSpec::
//! build_sharded` is the one recipe `count`, `count --algo` and the serve
//! daemon all build through.

use crate::traits::TriangleEstimator;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use tristream_graph::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use tristream_graph::Edge;

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

/// Per-shard queue capacity, in batches. A few batches of slack overlap
/// reading the stream with processing it; past that,
/// [`ShardedEstimator::process_batch`] blocks instead of growing memory.
const QUEUE_DEPTH: usize = 4;

/// Summaries each shard's ring keeps. `process_batch` hands a batch to the
/// shards in order and blocks on a full queue. So while the slowest shard
/// works on the batch after its newest summary, with `QUEUE_DEPTH` more
/// queued behind it, a shard earlier in the order can have published up
/// to `QUEUE_DEPTH + 2` batches past that summary. One more entry keeps
/// the slowest shard's newest summary — the frontier — in every ring.
const RING_DEPTH: usize = QUEUE_DEPTH + 3;

/// One `process_edges` call, so batch boundaries are the caller's, and
/// the engine's edge count after it, which keys the summary that follows.
struct Job {
    batch: Arc<[Edge]>,
    edges: u64,
}

/// What a worker publishes after each batch.
#[derive(Debug, Clone, Copy)]
struct Summary {
    /// The engine's cumulative edge count after the batch. Every shard
    /// sees the same batches, so the keys agree across shards.
    edges: u64,
    estimate: f64,
    memory_words: usize,
}

impl Summary {
    fn of(shard: &impl TriangleEstimator, edges: u64) -> Self {
        Self {
            edges,
            estimate: shard.estimate(),
            memory_words: shard.memory_words(),
        }
    }
}

/// One shard's newest summaries, the oldest overwritten first.
#[derive(Debug, Clone, Copy)]
struct Ring {
    slots: [Summary; RING_DEPTH],
    /// Summaries published since the ring was last reset, at least one.
    published: usize,
    /// Set once the shard's worker has exited.
    closed: bool,
}

impl Ring {
    fn new(summary: Summary) -> Self {
        Self {
            slots: [summary; RING_DEPTH],
            published: 1,
            closed: false,
        }
    }

    fn push(&mut self, summary: Summary) {
        self.slots[self.published % RING_DEPTH] = summary;
        self.published += 1;
    }

    fn newest(&self) -> u64 {
        self.slots[(self.published - 1) % RING_DEPTH].edges
    }

    /// The summary keyed `edges`, which every ring holds while `edges` is
    /// the frontier.
    fn at(&self, edges: u64) -> &Summary {
        let held = &self.slots[..self.published.min(RING_DEPTH)];
        #[allow(clippy::expect_used)]
        held.iter()
            .find(|summary| summary.edges == edges)
            // analyze: allow(P1, reason = "RING_DEPTH covers the QUEUE_DEPTH + 2 batches a shard can publish past the slowest shard, so every ring holds the frontier; parallel::tests pins that lead")
            .expect("a shard's ring lost the frontier summary")
    }
}

/// The per-shard summary rings a [`ShardedEstimator`] shares with its
/// workers and, through [`ShardedEstimator::frontier`], with readers that
/// must not wait for the estimator's owner.
///
/// Workers publish under the frontier's mutex while they still hold their
/// shard's, and readers never lock a shard while they hold the frontier:
/// the lock order is shard, then frontier.
#[derive(Debug)]
pub struct Frontier {
    rings: Mutex<Vec<Ring>>,
    published: Condvar,
}

/// The engine's answer at the frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The frontier: the newest edge count every shard has published.
    pub edges: u64,
    /// The mean of the shard estimates there, in shard order — the bits
    /// [`TriangleEstimator::estimate`] gives once those edges are in.
    pub estimate: f64,
    /// The sum of the shard memory words there.
    pub memory_words: usize,
}

impl Frontier {
    fn new(summaries: impl IntoIterator<Item = Summary>) -> Self {
        Self {
            rings: Mutex::new(summaries.into_iter().map(Ring::new).collect()),
            published: Condvar::new(),
        }
    }

    /// The rings. A reader that panicked while holding them left them
    /// whole, since each update is a plain store, so poisoning is healed.
    fn lock(&self) -> MutexGuard<'_, Vec<Ring>> {
        self.rings.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publish(&self, shard: usize, summary: Summary) {
        self.lock()[shard].push(summary);
        self.published.notify_all();
    }

    /// Makes each shard's summary the only one in its ring, as after a
    /// restore.
    fn reset(&self, summaries: &[Summary]) {
        for (ring, &summary) in self.lock().iter_mut().zip(summaries) {
            ring.published = 0;
            ring.push(summary);
        }
        self.published.notify_all();
    }

    /// Waits until the frontier reaches `edges`, and returns the rings with
    /// the frontier.
    ///
    /// # Panics
    ///
    /// Panics if a shard's worker has exited, which only follows a panic on
    /// that shard while the estimator lives.
    fn wait(&self, edges: u64) -> (MutexGuard<'_, Vec<Ring>>, u64) {
        let mut rings = self.lock();
        loop {
            let frontier = rings
                .iter()
                .map(|ring| (!ring.closed).then(|| ring.newest()))
                .try_fold(u64::MAX, |frontier, newest| Some(frontier.min(newest?)));
            #[allow(clippy::expect_used)]
            let frontier = frontier
                // analyze: allow(P1, reason = "a worker exits while its estimator lives only after a panic on its shard; resurfacing it on the reader's thread beats waiting forever for a summary it will never publish")
                .expect("shard lost to an earlier panic");
            if frontier >= edges {
                return (rings, frontier);
            }
            rings = self
                .published
                .wait(rings)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Waits until every shard has published a summary at `edges` edges or
    /// later, then answers at the frontier. It takes no shard lock and
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a shard's worker has exited: after a panic on that shard,
    /// or once the estimator has been dropped.
    pub fn read(&self, edges: u64) -> Reading {
        let (rings, frontier) = self.wait(edges);
        let at_frontier = || rings.iter().map(|ring| ring.at(frontier));
        Reading {
            edges: frontier,
            estimate: at_frontier().map(|s| s.estimate).sum::<f64>() / rings.len() as f64,
            memory_words: at_frontier().map(|s| s.memory_words).sum(),
        }
    }
}

/// Marks a shard closed, waking every reader, when its worker exits.
struct CloseOnExit<'a> {
    frontier: &'a Frontier,
    shard: usize,
}

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.frontier.lock()[self.shard].closed = true;
        self.frontier.published.notify_all();
    }
}

/// A shard's estimator, the queue into its worker, and the worker itself.
struct Shard<C> {
    estimator: Arc<Mutex<C>>,
    queue: SyncSender<Job>,
    worker: JoinHandle<()>,
}

/// Runs a shard's batches in queue order until the queue closes,
/// publishing a summary after each. Stops early if a panic on a reader's
/// thread poisoned the shard. Either way, or by a panic here, the shard is
/// marked closed on the way out.
fn work<C: TriangleEstimator>(
    estimator: &Mutex<C>,
    jobs: Receiver<Job>,
    frontier: &Frontier,
    shard: usize,
) {
    let _closed = CloseOnExit { frontier, shard };
    for job in jobs {
        let Ok(mut estimator) = estimator.lock() else {
            return;
        };
        estimator.process_edges(&job.batch);
        frontier.publish(shard, Summary::of(&*estimator, job.edges));
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
/// as `ShardedEstimator<Box<dyn TriangleEstimator + Send>>`. Its reads see
/// every batch submitted before them; [`frontier`](Self::frontier) hands
/// out reads that need not.
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
    frontier: Arc<Frontier>,
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
    /// decorrelated seed, in shard order — publishes each at 0 edges, and
    /// then spawns one worker per shard. The workers live until the
    /// estimator is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, or if the OS refuses a worker thread.
    pub fn from_factory(shards: usize, seed: u64, mut factory: impl FnMut(u64) -> C) -> Self {
        assert!(shards > 0, "at least one shard is required");
        let estimators: Vec<C> = (0..shards).map(|i| factory(shard_seed(seed, i))).collect();
        let summaries = estimators.iter().map(|shard| Summary::of(shard, 0));
        // Built up in place, so that if a spawn fails, dropping `sharded`
        // joins the workers already running.
        let mut sharded = Self {
            shards: Vec::with_capacity(shards),
            frontier: Arc::new(Frontier::new(summaries)),
            edges_seen: 0,
        };
        for (i, estimator) in estimators.into_iter().enumerate() {
            let estimator = Arc::new(Mutex::new(estimator));
            let (queue, jobs) = mpsc::sync_channel(QUEUE_DEPTH);
            let state = Arc::clone(&estimator);
            let frontier = Arc::clone(&sharded.frontier);
            #[allow(clippy::expect_used)]
            let worker = std::thread::Builder::new()
                .name(format!("tristream-shard-{i}"))
                .spawn(move || work(&state, jobs, &frontier, i))
                // analyze: allow(P1, reason = "the OS refusing a thread unwinds only the caller building this estimator, which does not exist yet; in the daemon that is one CREATE's connection thread, holding no table or stream lock, so every other stream keeps serving")
                .expect("spawning shard worker thread");
            sharded.shards.push(Shard {
                estimator,
                queue,
                worker,
            });
        }
        sharded
    }

    /// Number of shards (persistent worker threads).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// A shared handle on the summaries the workers publish. Its
    /// [`Frontier::read`] answers without this estimator, so a holder can
    /// read while another thread owns the estimator and submits batches.
    pub fn frontier(&self) -> Arc<Frontier> {
        Arc::clone(&self.frontier)
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
        let edges = self.edges_seen + batch.len() as u64;
        let batch: Arc<[Edge]> = Arc::from(batch);
        for shard in &self.shards {
            let job = Job {
                batch: Arc::clone(&batch),
                edges,
            };
            #[allow(clippy::expect_used)]
            shard
                .queue
                .send(job)
                // analyze: allow(P1, reason = "a worker drops its queue only by exiting, which it does only after a panic on its shard; the send error resurfaces that panic on the caller's thread")
                .expect("shard worker terminated unexpectedly");
        }
        self.edges_seen = edges;
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

    /// The read path for reads of whole shards: waits until the frontier
    /// reaches every batch submitted, then applies `f` to each shard in
    /// order, under its mutex, on the caller's thread. It allocates nothing
    /// beyond its result.
    ///
    /// # Panics
    ///
    /// Panics if a worker died or a shard is poisoned, which only happens
    /// after a panic on that shard.
    fn map_synced<T>(&self, mut f: impl FnMut(&mut C) -> T) -> Vec<T> {
        drop(self.frontier.wait(self.edges_seen));
        self.shards
            .iter()
            .map(|shard| {
                #[allow(clippy::expect_used)]
                let mut estimator = shard
                    .estimator
                    .lock()
                    // analyze: allow(P1, reason = "a shard is poisoned only by a panic on it; resurfacing that panic on the reader's thread beats reading a shard the panic left behind")
                    .expect("shard lost to an earlier panic");
                f(&mut estimator)
            })
            .collect()
    }

    /// Per-shard estimates, in shard order, once every batch submitted is
    /// in.
    pub fn shard_estimates(&self) -> Vec<f64> {
        let (rings, frontier) = self.frontier.wait(self.edges_seen);
        rings
            .iter()
            .map(|ring| ring.at(frontier).estimate)
            .collect()
    }

    /// Per-shard snapshots, in shard order — the building blocks the
    /// [`TriangleEstimator::snapshot`] container nests.
    pub fn shard_snapshots(&self) -> Result<Vec<Vec<u8>>, SnapshotError> {
        self.map_synced(|shard| shard.snapshot())
            .into_iter()
            .collect()
    }
}

impl<C: TriangleEstimator + Send + 'static> Drop for ShardedEstimator<C> {
    fn drop(&mut self) {
        for shard in self.shards.drain(..) {
            // Closing the queue ends the worker's loop once it has run the
            // batches already queued.
            drop(shard.queue);
            // A worker that panicked has surfaced (or will surface) the
            // panic on the caller's thread; don't double-panic in drop.
            let _ = shard.worker.join();
        }
    }
}

impl<C: TriangleEstimator + Send + 'static> TriangleEstimator for ShardedEstimator<C> {
    fn process_edge(&mut self, edge: Edge) {
        self.process_batch(&[edge]);
    }

    fn process_edges(&mut self, edges: &[Edge]) {
        self.process_batch(edges);
    }

    /// Mean of the shard estimates, read at the frontier once every batch
    /// submitted is in. Every shard sees the whole stream, so each shard
    /// estimate is already unbiased and the mean only reduces variance;
    /// with equal per-shard pools this equals pooling all estimators in
    /// one counter.
    fn estimate(&self) -> f64 {
        self.frontier.read(self.edges_seen).estimate
    }

    fn edges_seen(&self) -> u64 {
        self.edges_seen
    }

    /// Sum of the shard estimators' state.
    fn memory_words(&self) -> usize {
        self.frontier.read(self.edges_seen).memory_words
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
    /// count: shard `i` is handed nested snapshot `i`, `edges_seen` is
    /// adopted from the container, and every shard is published again at
    /// that edge count, so reads answer the restored state at once.
    ///
    /// After an error this receiver is unspecified and must be discarded.
    /// The container's framing, kind and shard count are checked before
    /// any shard changes, but each shard then validates its own section,
    /// and one may refuse it after its peers have taken theirs.
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
        let mut nested = nested.into_iter();
        let summaries = self
            .map_synced(|shard| {
                nested.next().map_or(Ok(()), |bytes| shard.restore(bytes))?;
                Ok(Summary::of(shard, edges_seen))
            })
            .into_iter()
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        self.frontier.reset(&summaries);
        self.edges_seen = edges_seen;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::BulkTriangleCounter;
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
        // independently built shards stay comparable.
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
        // Theorem 3.4 over a sharded run: each shard estimate is the mean
        // of its own group of estimators, so the median of the shard
        // estimates is the median of the group means.
        let stream = tristream_gen::planted_triangles(60, 120, 5);
        let mut c = sharded_bulk(2_000, 4, 3);
        for batch in stream.batches(2_048) {
            c.process_batch(batch);
        }
        let est = tristream_sample::median_of_means(&c.shard_estimates(), 4);
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

    /// A bulk counter that, when `permits` is set, takes a permit before
    /// each batch — one slow shard, held for as long as the test withholds
    /// permits, and released for good when the sender drops — and that
    /// panics on batch `panic_at` if set.
    struct Held {
        inner: BulkTriangleCounter,
        permits: Option<Receiver<()>>,
        panic_at: Option<u32>,
        batches: u32,
    }

    impl Held {
        fn free(inner: BulkTriangleCounter) -> Self {
            Self {
                inner,
                permits: None,
                panic_at: None,
                batches: 0,
            }
        }
    }

    impl TriangleEstimator for Held {
        fn process_edge(&mut self, edge: Edge) {
            self.process_edges(&[edge]);
        }

        fn process_edges(&mut self, edges: &[Edge]) {
            if let Some(permits) = &self.permits {
                let _ = permits.recv();
            }
            self.batches += 1;
            if self.panic_at == Some(self.batches) {
                panic!("injected shard failure");
            }
            self.inner.process_batch(edges);
        }

        fn estimate(&self) -> f64 {
            self.inner.estimate()
        }

        fn edges_seen(&self) -> u64 {
            self.inner.edges_seen()
        }

        fn memory_words(&self) -> usize {
            TriangleEstimator::memory_words(&self.inner)
        }
    }

    /// Blocks until `done` holds for the rings.
    fn wait_for(frontier: &Frontier, done: impl Fn(&[Ring]) -> bool) {
        let mut rings = frontier.lock();
        while !done(&rings) {
            rings = frontier.published.wait(rings).unwrap();
        }
    }

    #[test]
    fn frontier_reads_match_a_sequential_twin_at_the_maximum_lead() {
        // Shard 1 (last in submit order) is held inside its third batch,
        // so its newest summary is at two batches. Shard 0 runs ahead
        // until the submitter blocks on shard 1's full queue: QUEUE_DEPTH
        // + 2 batches past the frontier. Every read taken before, at and
        // after that lead must equal sequential shards cut at the edge
        // count it reports, bit for bit.
        let stream = tristream_gen::holme_kim(200, 3, 0.5, 7);
        let batches: Vec<Vec<Edge>> = stream.batches(40).map(<[Edge]>::to_vec).collect();
        let (held_at, lead) = (2, QUEUE_DEPTH + 2);
        assert!(batches.len() > held_at + lead + 2, "{}", batches.len());
        let (r, seed) = (96, 13);

        // The twin: (edges, estimate bits, memory words) at every cut.
        let mut twin = bulk_shards(r, 2, seed);
        let mut cuts = std::collections::BTreeMap::new();
        let cut = |twin: &[BulkTriangleCounter], cuts: &mut std::collections::BTreeMap<_, _>| {
            let estimates: Vec<f64> = twin.iter().map(BulkTriangleCounter::estimate).collect();
            let words = twin
                .iter()
                .map(TriangleEstimator::memory_words)
                .sum::<usize>();
            cuts.insert(
                twin[0].edges_seen(),
                (tristream_sample::mean(&estimates).to_bits(), words),
            );
        };
        cut(&twin, &mut cuts);
        for batch in &batches {
            for counter in &mut twin {
                counter.process_batch(batch);
            }
            cut(&twin, &mut cuts);
        }
        let ends: Vec<u64> = cuts.keys().copied().collect();
        let edges_after = |n: usize| ends[n];
        let check = |reading: Reading| {
            let (bits, words) = cuts[&reading.edges];
            assert_eq!(
                (reading.estimate.to_bits(), reading.memory_words),
                (bits, words),
                "the frontier read at {} edges differs from the twin",
                reading.edges
            );
        };

        let (permit, permits) = mpsc::channel();
        let mut permits = Some(permits);
        let mut sharded = ShardedEstimator::from_factory(2, seed, |s| {
            let mut shard = Held::free(BulkTriangleCounter::new(r, s));
            if s == shard_seed(seed, 1) {
                shard.permits = permits.take();
            }
            shard
        });
        let frontier = sharded.frontier();
        check(frontier.read(0));
        for _ in 0..held_at {
            permit.send(()).unwrap();
        }
        let total = stream.len() as u64;
        let submitter = std::thread::spawn(move || {
            for batch in &batches {
                sharded.process_batch(batch);
            }
            sharded
        });

        wait_for(&frontier, |rings| {
            rings[0].newest() == edges_after(held_at + lead)
        });
        // Shard 1 is inside batch `held_at + 1`, with its queue full behind
        // it, so neither shard can move until it gets a permit.
        assert_eq!(frontier.lock()[1].newest(), edges_after(held_at));
        let reading = frontier.read(0);
        assert_eq!(reading.edges, edges_after(held_at));
        check(reading);

        // Release the held shard and read while both run to the end.
        drop(permit);
        loop {
            let reading = frontier.read(0);
            check(reading);
            if reading.edges == total {
                break;
            }
        }
        let sharded = submitter.join().unwrap();
        check(Reading {
            edges: total,
            estimate: TriangleEstimator::estimate(&sharded),
            memory_words: TriangleEstimator::memory_words(&sharded),
        });
    }

    #[test]
    fn a_shard_dying_while_a_reader_waits_for_its_writes_fails_that_reader() {
        // The writer submits two batches and waits for both; shard 1 is
        // held, then panics on its second batch while the writer waits.
        let (permit, permits) = mpsc::channel();
        let mut permits = Some(permits);
        let mut sharded = ShardedEstimator::from_factory(2, 1, |s| {
            let mut shard = Held::free(BulkTriangleCounter::new(16, s));
            if s == shard_seed(1, 1) {
                shard.permits = permits.take();
                shard.panic_at = Some(2);
            }
            shard
        });
        let frontier = sharded.frontier();
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let batch = [Edge::new(1u64, 2u64)];
            sharded.process_batch(&batch);
            sharded.process_batch(&batch);
            let read =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sharded.estimate()));
            done.send(read.is_err()).unwrap();
            drop(sharded);
            done.send(true).unwrap();
        });
        // Shard 0 has both batches in; shard 1 waits for its first permit,
        // so the writer's read can only wait.
        wait_for(&frontier, |rings| rings[0].newest() == 2);
        assert_eq!(frontier.lock()[1].newest(), 0);
        drop(permit);
        let timeout = std::time::Duration::from_secs(10);
        assert_eq!(
            outcome.recv_timeout(timeout),
            Ok(true),
            "the waiting read must fail, not hang or succeed"
        );
        assert_eq!(
            outcome.recv_timeout(timeout),
            Ok(true),
            "dropping the estimator must return"
        );
        assert!(frontier.lock()[1].closed, "the dead shard is marked closed");
    }
}
