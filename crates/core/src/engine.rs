//! Persistent sharded streaming engine.
//!
//! The paper's conclusion (§6) observes that maintaining the estimate is
//! CPU-bound even when streaming from disk and points to a parallel,
//! cache-efficient variant of neighborhood sampling as follow-up work. The
//! first cut of [`crate::parallel`] parallelised each batch with
//! `std::thread::scope`, which spawns and joins fresh OS threads on **every
//! batch** — so small-batch workloads pay thread-creation cost per `w`
//! edges, the exact regime the `O(r + w)` bulk algorithm (Theorem 3.5) is
//! supposed to make cheap.
//!
//! [`ShardedEngine`] replaces that with the dataflow-style design of
//! long-lived workers fed by channels:
//!
//! * **One worker thread per shard, created once.** Each worker owns (via a
//!   mutex it holds only while processing) an independent estimator — any
//!   [`TriangleEstimator`] `+ Send`; shards never exchange data, so the
//!   sharded pool computes exactly the same *distribution* of estimates as
//!   a sequential pool of the same size and seeds.
//! * **Batches travel over channels.** [`ShardedEngine::submit`] copies the
//!   batch once into an `Arc<[Edge]>` and sends the (cheap) `Arc` clone to
//!   every shard — `O(w)` work, no thread spawn, no join.
//! * **Submission is asynchronous; queries synchronise.** `submit` returns
//!   as soon as the batch is enqueued, letting the caller overlap reading
//!   the next batch with processing the current one. Queues are bounded
//!   (a few batches deep), so a producer that outruns the workers blocks
//!   instead of accumulating the whole stream in memory. Any state read
//!   ([`ShardedEngine::map_shards`]) first waits — on a condvar, not by
//!   spinning — until every shard has drained its queue, so observed
//!   results are identical to fully synchronous processing.
//! * **Workers are joined on drop.** Dropping the engine closes the
//!   channels; each worker exits its receive loop and is joined, so no
//!   thread outlives the engine.
//!
//! If a worker panics mid-batch (a bug in the counter, by construction),
//! its completion guard still advances the progress count so synchronising
//! callers never deadlock; the panic then resurfaces on the caller's thread
//! as a poisoned-shard error on the next query or submission.

use crate::traits::TriangleEstimator;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use tristream_graph::Edge;

/// Drains a *batch source* — any fallible iterator of edge batches — into
/// `sink`, one call per batch in order, and returns the total number of
/// edges handed over. Stops at (and propagates) the source's first error;
/// batches sunk before the error stay sunk, matching the semantics of
/// feeding the stream by hand. The single implementation behind
/// [`ShardedEstimator::process_source`] and the CLI's `count` on `.tsb`
/// input, sequential or sharded.
///
/// [`ShardedEstimator::process_source`]: crate::ShardedEstimator::process_source
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

/// Per-shard channel capacity, in batches. Bounded channels give
/// [`ShardedEngine::submit`] backpressure: a producer that outruns the
/// workers blocks once this many batches are queued, so engine memory stays
/// at `O(CHANNEL_DEPTH · w)` edges no matter how large the input stream is
/// — the property the streaming file reader relies on. A few batches of
/// slack is enough to overlap reading with processing.
const CHANNEL_DEPTH: usize = 4;

/// State shared between the engine front end and its worker threads.
struct Shared<C> {
    /// One independent estimator per shard. A worker locks its own slot
    /// only while processing a batch; the front end locks slots only while
    /// reading state (after synchronising).
    counters: Vec<Mutex<C>>,
    /// Number of batches fully processed by each shard.
    progress: Mutex<Vec<u64>>,
    /// Signalled by workers whenever a batch completes.
    progress_cv: Condvar,
}

impl<C> Shared<C> {
    /// Marks one batch complete for `shard` and wakes synchronising callers.
    /// Uses `into_inner` on poisoning so a panicking worker still reports
    /// progress instead of deadlocking the front end.
    fn complete_batch(&self, shard: usize) {
        let mut progress = self
            .progress
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        progress[shard] += 1;
        self.progress_cv.notify_all();
    }
}

/// Advances the shard's progress count even if batch processing panics, so
/// `ShardedEngine::sync` never waits forever on a dead worker.
struct CompletionGuard<'a, C> {
    shared: &'a Shared<C>,
    shard: usize,
}

impl<C> Drop for CompletionGuard<'_, C> {
    fn drop(&mut self) {
        self.shared.complete_batch(self.shard);
    }
}

fn worker_loop<C: TriangleEstimator + Send>(
    shared: Arc<Shared<C>>,
    shard: usize,
    batches: Receiver<Arc<[Edge]>>,
) {
    while let Ok(batch) = batches.recv() {
        let _guard = CompletionGuard {
            shared: &shared,
            shard,
        };
        #[allow(clippy::expect_used)]
        let mut counter = shared.counters[shard]
            .lock()
            // analyze: allow(P1, reason = "poisoning is only reachable after another worker panicked; resurfacing that panic beats processing on a corrupt shard")
            .expect("shard poisoned by an earlier worker panic");
        // One submitted batch = one `process_edges` call, so batch
        // boundaries — which bulk algorithms are sensitive to — are exactly
        // the caller's `submit` boundaries.
        counter.process_edges(&batch);
    }
}

/// A pool of long-lived worker threads, one per shard, each owning an
/// independent [`TriangleEstimator`] and fed batches over a channel.
///
/// The engine is generic over the per-shard estimator `C` — any
/// `TriangleEstimator + Send` works, including boxed trait objects from
/// the algorithm registry. It can also be used directly when the caller
/// wants to manage shard seeding or aggregation itself; for the common
/// "same algorithm per shard, decorrelated seeds" case see
/// [`ShardedEstimator`](crate::ShardedEstimator).
///
/// ```
/// use tristream_core::engine::ShardedEngine;
/// use tristream_core::BulkTriangleCounter;
///
/// let shards = (0..4).map(|i| BulkTriangleCounter::new(64, i)).collect();
/// let mut engine = ShardedEngine::new(shards);
/// let stream = tristream_gen::planted_triangles(20, 40, 1);
/// for batch in stream.batches(128) {
///     engine.submit(batch);
/// }
/// let estimates: Vec<Vec<f64>> = engine.map_shards(|shard| shard.raw_estimates());
/// assert_eq!(estimates.len(), 4);
/// // Workers are joined when `engine` goes out of scope.
/// ```
pub struct ShardedEngine<C: TriangleEstimator + Send + 'static> {
    shared: Arc<Shared<C>>,
    /// One batch channel per shard. Dropped (closed) before joining, which
    /// is what tells each worker to exit its receive loop.
    senders: Vec<SyncSender<Arc<[Edge]>>>,
    workers: Vec<JoinHandle<()>>,
    batches_submitted: u64,
}

impl<C: TriangleEstimator + Send + 'static> std::fmt::Debug for ShardedEngine<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.num_shards())
            .field("batches_submitted", &self.batches_submitted)
            .finish_non_exhaustive()
    }
}

impl<C: TriangleEstimator + Send + 'static> ShardedEngine<C> {
    /// Spawns one worker thread per counter. The workers live until the
    /// engine is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `counters` is empty.
    pub fn new(counters: Vec<C>) -> Self {
        assert!(!counters.is_empty(), "at least one shard is required");
        let shards = counters.len();
        let shared = Arc::new(Shared {
            counters: counters.into_iter().map(Mutex::new).collect(),
            progress: Mutex::new(vec![0; shards]),
            progress_cv: Condvar::new(),
        });
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<Arc<[Edge]>>(CHANNEL_DEPTH);
            let shared = Arc::clone(&shared);
            senders.push(tx);
            #[allow(clippy::expect_used)]
            workers.push(
                std::thread::Builder::new()
                    .name(format!("tristream-shard-{shard}"))
                    .spawn(move || worker_loop(shared, shard, rx))
                    // analyze: allow(P1, reason = "spawn fails only on OS thread exhaustion at construction time, before any stream state exists to lose")
                    .expect("spawning shard worker thread"),
            );
        }
        Self {
            shared,
            senders,
            workers,
            batches_submitted: 0,
        }
    }

    /// Number of shards (and worker threads).
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// Number of batches submitted so far.
    pub fn batches_submitted(&self) -> u64 {
        self.batches_submitted
    }

    /// Enqueues one batch on every shard and returns without waiting for
    /// processing, as long as each shard's (bounded) queue has room; a
    /// producer that outruns the workers blocks here instead of growing
    /// memory without bound. Empty batches are no-ops.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread has died (which only happens after a panic
    /// inside batch processing).
    pub fn submit(&mut self, batch: &[Edge]) {
        if batch.is_empty() {
            return;
        }
        let batch: Arc<[Edge]> = Arc::from(batch);
        for sender in &self.senders {
            #[allow(clippy::expect_used)]
            sender
                .send(Arc::clone(&batch))
                // analyze: allow(P1, reason = "workers outlive the senders by construction and exit only by panicking; the send error resurfaces that panic on the caller's thread")
                .expect("shard worker terminated unexpectedly");
        }
        self.batches_submitted += 1;
    }

    /// Blocks until every shard has processed every submitted batch.
    pub fn sync(&self) {
        let target = self.batches_submitted;
        let mut progress = self
            .shared
            .progress
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        while progress.iter().any(|&done| done < target) {
            progress = self
                .shared
                .progress_cv
                .wait(progress)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    #[allow(clippy::expect_used)]
    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, C> {
        self.shared.counters[shard]
            .lock()
            // analyze: allow(P1, reason = "poisoning is only reachable after a worker panicked; resurfacing that panic beats reading a corrupt shard")
            .expect("shard poisoned by a worker panic")
    }

    /// Synchronises, then applies `f` to every shard's counter in shard
    /// order, returning the collected results.
    pub fn map_shards<T>(&self, mut f: impl FnMut(&C) -> T) -> Vec<T> {
        self.sync();
        (0..self.num_shards())
            .map(|shard| f(&self.lock_shard(shard)))
            .collect()
    }

    /// Synchronises, then applies `f` to every shard's counter *mutably*
    /// in shard order — the snapshot-restore hook. Requires `&mut self`,
    /// so no batch can be submitted while shard state is being replaced;
    /// the sync barrier guarantees no worker still holds an earlier batch.
    pub fn map_shards_mut<T>(&mut self, mut f: impl FnMut(&mut C) -> T) -> Vec<T> {
        self.sync();
        (0..self.num_shards())
            .map(|shard| {
                #[allow(clippy::expect_used)]
                let mut guard = self.shared.counters[shard]
                    .lock()
                    // analyze: allow(P1, reason = "poisoning is only reachable after a worker panicked; resurfacing that panic beats writing into a corrupt shard")
                    .expect("shard poisoned by a worker panic");
                f(&mut guard)
            })
            .collect()
    }
}

impl<C: TriangleEstimator + Send + 'static> Drop for ShardedEngine<C> {
    fn drop(&mut self) {
        // Closing the channels ends each worker's receive loop.
        self.senders.clear();
        for worker in self.workers.drain(..) {
            // A worker that panicked already surfaced (or will surface) the
            // error via mutex poisoning; don't double-panic in drop.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::BulkTriangleCounter;
    use std::sync::Weak;

    fn shard_counters(r_per_shard: usize, shards: usize, seed: u64) -> Vec<BulkTriangleCounter> {
        (0..shards)
            .map(|i| BulkTriangleCounter::new(r_per_shard, seed.wrapping_add(i as u64)))
            .collect()
    }

    #[test]
    #[should_panic]
    fn zero_shards_panics() {
        let _ = ShardedEngine::<BulkTriangleCounter>::new(Vec::new());
    }

    #[test]
    fn workers_process_submitted_batches() {
        let stream = tristream_gen::planted_triangles(20, 50, 3);
        let mut engine = ShardedEngine::new(shard_counters(32, 3, 9));
        for batch in stream.batches(64) {
            engine.submit(batch);
        }
        let seen = engine.map_shards(|shard| shard.edges_seen());
        assert_eq!(seen, vec![stream.len() as u64; 3]);
        assert!(engine.batches_submitted() > 0);
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut engine = ShardedEngine::new(shard_counters(8, 2, 1));
        engine.submit(&[]);
        assert_eq!(engine.batches_submitted(), 0);
        assert_eq!(engine.map_shards(|shard| shard.edges_seen()), vec![0, 0]);
    }

    #[test]
    fn consume_drains_a_batch_source_like_manual_submission() {
        let stream = tristream_gen::planted_triangles(20, 50, 3);
        let source = stream
            .batches(64)
            .map(|b| Ok::<_, std::io::Error>(b.to_vec()));
        let mut fed = ShardedEngine::new(shard_counters(32, 2, 9));
        let edges = drain_batch_source(source, |batch| fed.submit(batch)).unwrap();
        assert_eq!(edges, stream.len() as u64);

        let mut manual = ShardedEngine::new(shard_counters(32, 2, 9));
        for batch in stream.batches(64) {
            manual.submit(batch);
        }
        assert_eq!(
            fed.map_shards(|shard| shard.raw_estimates()),
            manual.map_shards(|shard| shard.raw_estimates()),
        );
    }

    #[test]
    fn consume_stops_at_the_first_source_error_but_keeps_prior_batches() {
        let good: Vec<Edge> = (0..10u64).map(|i| Edge::new(i, i + 1)).collect();
        let source = vec![
            Ok(good.clone()),
            Err("disk on fire"),
            Ok(good.clone()), // must never be submitted
        ];
        let mut engine = ShardedEngine::new(shard_counters(8, 2, 1));
        assert_eq!(
            drain_batch_source(source, |batch| engine.submit(batch)),
            Err("disk on fire")
        );
        assert_eq!(engine.map_shards(|shard| shard.edges_seen()), vec![10, 10]);
    }

    #[test]
    fn engine_matches_direct_sequential_processing_bit_for_bit() {
        let stream = tristream_gen::holme_kim(150, 3, 0.5, 11);
        let mut engine = ShardedEngine::new(shard_counters(64, 4, 21));
        let mut direct = shard_counters(64, 4, 21);
        for batch in stream.batches(97) {
            engine.submit(batch);
            for counter in &mut direct {
                counter.process_batch(batch);
            }
        }
        let engine_estimates = engine.map_shards(|shard| shard.raw_estimates());
        let direct_estimates: Vec<Vec<f64>> = direct
            .iter()
            .map(|counter| counter.raw_estimates())
            .collect();
        assert_eq!(engine_estimates, direct_estimates);
    }

    #[test]
    fn drop_joins_all_workers() {
        // Each worker holds a clone of the shared `Arc`; once the engine is
        // dropped (and `Drop` has joined the workers), every clone must be
        // gone — the strong count reaching zero proves the threads exited.
        let stream = tristream_gen::planted_triangles(10, 30, 5);
        let weak: Weak<Shared<BulkTriangleCounter>>;
        {
            let mut engine = ShardedEngine::new(shard_counters(16, 4, 2));
            weak = Arc::downgrade(&engine.shared);
            for batch in stream.batches(16) {
                engine.submit(batch);
            }
        }
        assert!(
            weak.upgrade().is_none(),
            "all worker threads must terminate and release shared state on drop"
        );
    }

    #[test]
    fn generic_engine_runs_boxed_estimators_and_matches_sequential_feeding() {
        // The engine is pure transport: a shard driven through the worker
        // pool must match the same estimator fed the same batches on the
        // caller's thread, bit for bit — here with `Box<dyn>` shards of
        // *different* concrete algorithms.
        use crate::counter::TriangleCounter;
        let stream = tristream_gen::planted_triangles(15, 40, 4);
        let shards: Vec<Box<dyn TriangleEstimator + Send>> = vec![
            Box::new(TriangleCounter::new(64, 7)),
            Box::new(BulkTriangleCounter::new(64, 8)),
        ];
        let mut engine = ShardedEngine::new(shards);
        let mut reference: Vec<Box<dyn TriangleEstimator + Send>> = vec![
            Box::new(TriangleCounter::new(64, 7)),
            Box::new(BulkTriangleCounter::new(64, 8)),
        ];
        for batch in stream.batches(32) {
            engine.submit(batch);
            for shard in &mut reference {
                shard.process_edges(batch);
            }
        }
        let engine_bits: Vec<u64> = engine.map_shards(|shard| shard.estimate().to_bits());
        let reference_bits: Vec<u64> = reference.iter().map(|s| s.estimate().to_bits()).collect();
        assert_eq!(engine_bits, reference_bits);
        assert_eq!(
            engine.map_shards(|shard| shard.edges_seen()),
            vec![stream.len() as u64; 2]
        );
    }
}
