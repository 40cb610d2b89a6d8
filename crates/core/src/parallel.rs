//! Multi-core bulk triangle counting.
//!
//! The paper's conclusion (§6) observes that maintaining the estimate is
//! CPU-bound even when streaming from disk, and points to follow-up work on
//! a parallel, cache-efficient variant of neighborhood sampling. This module
//! provides the natural shared-nothing parallelisation: the estimator pool
//! is partitioned into independent shards, each shard advances over the same
//! batch on its own long-lived worker thread (see [`crate::engine`]), and
//! queries aggregate across shards. Because estimators never interact, the
//! sharded counter computes exactly the same *distribution* of estimates as
//! the sequential one — each shard is simply a smaller, independent
//! [`BulkTriangleCounter`].
//!
//! Worker threads are created **once**, when the counter is built, and are
//! fed batches over channels; [`process_batch`](ParallelBulkTriangleCounter::process_batch)
//! only copies the batch and enqueues it, so the per-batch hot path contains
//! no thread spawn or join. Queries ([`estimate`](ParallelBulkTriangleCounter::estimate)
//! and friends) synchronise with the workers first, so results are
//! indistinguishable from fully synchronous processing.

use crate::bulk::{BulkTriangleCounter, Level1Strategy};
use crate::counter::Aggregation;
use crate::engine::ShardedEngine;
use crate::traits::TriangleEstimator;
use tristream_graph::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use tristream_graph::Edge;
use tristream_sample::{mean, median_of_means};

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

/// Builds the shard pool behind a [`ParallelBulkTriangleCounter`]:
/// `ceil(r / shards)` estimators per shard, shard `i` seeded
/// `seed + i * `[`SHARD_SEED_STRIDE`]. This *is* the counter's seeding
/// contract — exposed so the same shards run another way (sequentially,
/// or on threads of the caller's own) stay estimate-for-estimate
/// comparable by construction rather than by copying the recipe.
///
/// # Panics
///
/// Panics if `r` or `shards` is zero.
pub fn shard_counters(
    r: usize,
    shards: usize,
    seed: u64,
    strategy: Level1Strategy,
) -> Vec<BulkTriangleCounter> {
    assert!(r > 0, "at least one estimator is required");
    assert!(shards > 0, "at least one shard is required");
    let per_shard = r.div_ceil(shards);
    (0..shards)
        .map(|i| {
            BulkTriangleCounter::new(per_shard, shard_seed(seed, i)).with_level1_strategy(strategy)
        })
        .collect()
}

/// A bulk triangle counter whose estimator pool is sharded across a pool of
/// persistent worker threads.
#[derive(Debug, Clone)]
pub struct ParallelBulkTriangleCounter {
    engine: ShardedEngine,
    aggregation: Aggregation,
    edges_seen: u64,
}

impl ParallelBulkTriangleCounter {
    /// Creates a counter with (at least) `r` estimators split evenly across
    /// `shards` shards. Each shard gets `ceil(r / shards)` estimators, so
    /// the effective pool can be slightly larger than requested.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `shards` is zero.
    pub fn new(r: usize, shards: usize, seed: u64) -> Self {
        Self::with_aggregation(r, shards, seed, Aggregation::Mean)
    }

    /// Creates a counter with an explicit aggregation strategy.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `shards` is zero, or a median-of-means aggregation
    /// requests zero groups.
    pub fn with_aggregation(r: usize, shards: usize, seed: u64, aggregation: Aggregation) -> Self {
        assert!(r > 0, "at least one estimator is required");
        assert!(shards > 0, "at least one shard is required");
        if let Aggregation::MedianOfMeans { groups } = aggregation {
            assert!(groups > 0, "median-of-means needs at least one group");
        }
        let counters = shard_counters(r, shards, seed, Level1Strategy::GeometricSkip);
        Self {
            engine: ShardedEngine::new(counters),
            aggregation,
            edges_seen: 0,
        }
    }

    /// Selects how level-1 resampling iterates over each shard's pool,
    /// mirroring [`BulkTriangleCounter::with_level1_strategy`]; returns
    /// `self` for builder-style chaining. The default is
    /// [`Level1Strategy::GeometricSkip`].
    ///
    /// Intended to be called at construction time; state already processed
    /// is preserved (the shards are snapshotted into a fresh worker pool).
    pub fn with_level1_strategy(self, strategy: Level1Strategy) -> Self {
        let counters = self
            .engine
            .snapshot()
            .into_iter()
            .map(|counter| counter.with_level1_strategy(strategy))
            .collect();
        Self {
            engine: ShardedEngine::new(counters),
            aggregation: self.aggregation,
            edges_seen: self.edges_seen,
        }
    }

    /// The level-1 resampling strategy shards use.
    pub fn level1_strategy(&self) -> Level1Strategy {
        self.engine.map_shards(|shard| shard.level1_strategy())[0]
    }

    /// Number of shards (persistent worker threads).
    pub fn num_shards(&self) -> usize {
        self.engine.num_shards()
    }

    /// Total number of estimators across shards.
    pub fn num_estimators(&self) -> usize {
        self.engine
            .map_shards(|shard| shard.num_estimators())
            .iter()
            .sum()
    }

    /// Number of edges observed so far.
    pub fn edges_seen(&self) -> u64 {
        self.edges_seen
    }

    /// Ingests one batch of edges: the batch is enqueued on every shard's
    /// persistent worker and this call returns without waiting, so the
    /// caller can overlap producing the next batch with processing.
    pub fn process_batch(&mut self, batch: &[Edge]) {
        if batch.is_empty() {
            return;
        }
        self.engine.submit(batch);
        self.edges_seen += batch.len() as u64;
    }

    /// Processes a whole stream in batches of `batch_size` edges.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn process_stream(&mut self, edges: &[Edge], batch_size: usize) {
        assert!(batch_size > 0, "batch size must be positive");
        for chunk in edges.chunks(batch_size) {
            self.process_batch(chunk);
        }
    }

    /// Ingests a whole *batch source* — any fallible iterator of edge
    /// batches, such as
    /// `tristream_graph::io::read_edge_list_batched_file` or
    /// `tristream_graph::binary::read_edges_binary_batched_file` — and
    /// returns the number of edges ingested. The source's first error is
    /// propagated; edges ingested before it remain counted.
    pub fn process_source<E>(
        &mut self,
        source: impl IntoIterator<Item = Result<Vec<Edge>, E>>,
    ) -> Result<u64, E> {
        crate::engine::drain_batch_source(source, |batch| self.process_batch(batch))
    }

    /// Per-estimator raw estimates across all shards (waits for in-flight
    /// batches first).
    pub fn raw_estimates(&self) -> Vec<f64> {
        self.engine
            .map_shards(|shard| shard.raw_estimates())
            .into_iter()
            .flatten()
            .collect()
    }

    /// The aggregated triangle-count estimate over all shards (waits for
    /// in-flight batches first).
    pub fn estimate(&self) -> f64 {
        let raw = self.raw_estimates();
        match self.aggregation {
            Aggregation::Mean => mean(&raw),
            Aggregation::MedianOfMeans { groups } => median_of_means(&raw, groups),
        }
    }

    /// Number of estimators (across all shards) currently holding a triangle.
    pub fn estimators_with_triangle(&self) -> usize {
        self.engine
            .map_shards(|shard| shard.estimators_with_triangle())
            .iter()
            .sum()
    }
}

impl TriangleEstimator for ParallelBulkTriangleCounter {
    /// A single edge is a batch of one, as for the sequential bulk counter.
    fn process_edge(&mut self, edge: Edge) {
        self.process_batch(&[edge]);
    }

    /// One call, one batch on every shard — identical boundaries to
    /// [`ParallelBulkTriangleCounter::process_batch`].
    fn process_edges(&mut self, edges: &[Edge]) {
        self.process_batch(edges);
    }

    fn estimate(&self) -> f64 {
        ParallelBulkTriangleCounter::estimate(self)
    }

    fn edges_seen(&self) -> u64 {
        ParallelBulkTriangleCounter::edges_seen(self)
    }

    /// Sum of the shard pools' estimator state.
    fn memory_words(&self) -> usize {
        self.engine
            .map_shards(TriangleEstimator::memory_words)
            .iter()
            .sum()
    }
}

/// A sharded, multi-threaded wrapper around *any* [`TriangleEstimator`]:
/// `shards` independent instances built by a caller-supplied factory, each
/// advanced on its own persistent worker thread (the generic
/// [`ShardedEngine`]), with the final estimate the plain mean of the shard
/// estimates.
///
/// The factory receives each shard's seed under the same contract as
/// [`shard_counters`]: shard `i` gets `seed + i ·`[`SHARD_SEED_STRIDE`].
/// With a single shard the wrapper is *bit-identical* to the sequential
/// estimator fed the same batches — the property the parity tests pin.
///
/// This is the execution path behind `tristream-cli count --parallel
/// --algo <name>`: the registry's boxed constructors plug straight in as
/// `ShardedEstimator<Box<dyn TriangleEstimator + Send>>`.
#[derive(Debug)]
pub struct ShardedEstimator<C: TriangleEstimator + Send + 'static> {
    engine: ShardedEngine<C>,
    edges_seen: u64,
}

impl<C: TriangleEstimator + Send + 'static> ShardedEstimator<C> {
    /// Builds `shards` estimators via `factory` — called with each shard's
    /// decorrelated seed, in shard order — and spawns the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn from_factory(shards: usize, seed: u64, mut factory: impl FnMut(u64) -> C) -> Self {
        assert!(shards > 0, "at least one shard is required");
        let counters = (0..shards).map(|i| factory(shard_seed(seed, i))).collect();
        Self {
            engine: ShardedEngine::new(counters),
            edges_seen: 0,
        }
    }

    /// Number of shards (persistent worker threads).
    pub fn num_shards(&self) -> usize {
        self.engine.num_shards()
    }

    /// Enqueues one batch on every shard without waiting for processing.
    pub fn process_batch(&mut self, batch: &[Edge]) {
        if batch.is_empty() {
            return;
        }
        self.engine.submit(batch);
        self.edges_seen += batch.len() as u64;
    }

    /// Ingests a whole batch source (see
    /// [`ShardedEngine::consume`]), returning the number of edges
    /// ingested; the source's first error is propagated.
    pub fn process_source<E>(
        &mut self,
        source: impl IntoIterator<Item = Result<Vec<Edge>, E>>,
    ) -> Result<u64, E> {
        crate::engine::drain_batch_source(source, |batch| self.process_batch(batch))
    }

    /// Per-shard estimates, in shard order (waits for in-flight batches).
    pub fn shard_estimates(&self) -> Vec<f64> {
        self.engine.map_shards(|shard| shard.estimate())
    }

    /// Per-shard snapshots, in shard order — the building blocks the
    /// [`TriangleEstimator::snapshot`] container nests, exposed so callers
    /// can also ship shard state to independent processes.
    pub fn shard_snapshots(&self) -> Result<Vec<Vec<u8>>, SnapshotError> {
        self.engine
            .map_shards(|shard| shard.snapshot())
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
        let mut results = Vec::with_capacity(snapshots.len());
        self.engine.map_shards_mut(|shard| {
            let i = results.len();
            results.push(shard.restore(&snapshots[i]));
            results.len()
        });
        for result in results {
            result?;
        }
        self.edges_seen = edges.unwrap_or(0);
        Ok(())
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
        self.engine
            .map_shards(|shard| shard.memory_words())
            .iter()
            .sum()
    }

    /// Snapshots are supported exactly when every shard supports them.
    fn supports_snapshot(&self) -> bool {
        self.engine
            .map_shards(|shard| shard.supports_snapshot())
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
            nested.push(section.rest().to_vec());
        }
        let mut results = Vec::with_capacity(self.num_shards());
        self.engine.map_shards_mut(|shard| {
            let i = results.len();
            results.push(shard.restore(&nested[i]));
        });
        for result in results {
            result?;
        }
        self.edges_seen = edges_seen;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tristream_graph::exact::count_triangles;
    use tristream_graph::Adjacency;

    #[test]
    #[should_panic]
    fn zero_shards_panics() {
        let _ = ParallelBulkTriangleCounter::new(10, 0, 1);
    }

    #[test]
    #[should_panic]
    fn zero_estimators_panics() {
        let _ = ParallelBulkTriangleCounter::new(0, 2, 1);
    }

    #[test]
    fn pool_is_split_across_shards() {
        let c = ParallelBulkTriangleCounter::new(1_000, 4, 1);
        assert_eq!(c.num_shards(), 4);
        assert_eq!(c.num_estimators(), 1_000);
        // Uneven splits round up.
        let c = ParallelBulkTriangleCounter::new(10, 3, 1);
        assert_eq!(c.num_estimators(), 12);
    }

    #[test]
    fn parallel_estimate_matches_truth_on_a_clustered_graph() {
        let stream = tristream_gen::holme_kim(400, 4, 0.6, 3);
        let truth = count_triangles(&Adjacency::from_stream(&stream)) as f64;
        let mut c = ParallelBulkTriangleCounter::new(24_000, 6, 5);
        c.process_stream(stream.edges(), 8_192);
        let est = c.estimate();
        assert_eq!(c.edges_seen(), stream.len() as u64);
        assert!(
            (est - truth).abs() < 0.2 * truth,
            "parallel estimate {est} vs truth {truth}"
        );
        assert!(c.estimators_with_triangle() > 0);
    }

    #[test]
    fn single_shard_degenerates_to_the_sequential_counter() {
        let stream = tristream_gen::planted_triangles(25, 50, 9);
        let mut parallel = ParallelBulkTriangleCounter::new(512, 1, 7);
        parallel.process_stream(stream.edges(), 64);
        let mut sequential =
            BulkTriangleCounter::new(512, 7).with_level1_strategy(Level1Strategy::GeometricSkip);
        sequential.process_stream(stream.edges(), 64);
        assert_eq!(parallel.estimate(), sequential.estimate());
    }

    #[test]
    fn single_shard_per_estimator_strategy_matches_the_sequential_counter() {
        // API-parity satellite: selecting PerEstimator on the parallel
        // counter must reproduce the sequential PerEstimator counter
        // bit-for-bit on a single shard (same seed, same batching).
        let stream = tristream_gen::planted_triangles(20, 60, 17);
        let mut parallel = ParallelBulkTriangleCounter::new(256, 1, 13)
            .with_level1_strategy(Level1Strategy::PerEstimator);
        assert_eq!(parallel.level1_strategy(), Level1Strategy::PerEstimator);
        parallel.process_stream(stream.edges(), 37);
        let mut sequential = BulkTriangleCounter::new(256, 13);
        assert_eq!(sequential.level1_strategy(), Level1Strategy::PerEstimator);
        sequential.process_stream(stream.edges(), 37);
        assert_eq!(parallel.raw_estimates(), sequential.raw_estimates());
        assert_eq!(parallel.estimate(), sequential.estimate());
    }

    /// The pre-refactor execution model: fresh scoped threads per batch over
    /// the same per-shard counters. Kept as a reference implementation for
    /// the equivalence tests below.
    fn scoped_thread_estimates(
        r: usize,
        shards: usize,
        seed: u64,
        edges: &[Edge],
        batch_size: usize,
    ) -> Vec<f64> {
        let mut pool = shard_counters(r, shards, seed, Level1Strategy::GeometricSkip);
        for batch in edges.chunks(batch_size) {
            std::thread::scope(|scope| {
                for shard in &mut pool {
                    scope.spawn(|| shard.process_batch(batch));
                }
            });
        }
        pool.iter().flat_map(|s| s.raw_estimates()).collect()
    }

    #[test]
    fn persistent_pool_matches_scoped_threads_and_sequential_shards_exactly() {
        // Distributional-equivalence guarantee, checked at the strongest
        // possible level: same seeds ⇒ bit-identical per-estimator
        // estimates across all three execution models.
        let stream = tristream_gen::holme_kim(250, 3, 0.5, 19);
        let (r, shards, seed, batch) = (600, 3, 23, 113);

        let mut persistent = ParallelBulkTriangleCounter::new(r, shards, seed);
        persistent.process_stream(stream.edges(), batch);
        let persistent_raw = persistent.raw_estimates();

        let scoped_raw = scoped_thread_estimates(r, shards, seed, stream.edges(), batch);

        let mut sequential_raw = Vec::new();
        for mut counter in shard_counters(r, shards, seed, Level1Strategy::GeometricSkip) {
            counter.process_stream(stream.edges(), batch);
            sequential_raw.extend(counter.raw_estimates());
        }

        assert_eq!(persistent_raw, scoped_raw);
        assert_eq!(persistent_raw, sequential_raw);
    }

    #[test]
    fn clone_is_independent_of_the_original() {
        let stream = tristream_gen::planted_triangles(15, 45, 6);
        let mut a = ParallelBulkTriangleCounter::new(128, 2, 3);
        a.process_stream(stream.edges(), 32);
        let b = a.clone();
        assert_eq!(a.raw_estimates(), b.raw_estimates());
        a.process_batch(stream.edges());
        assert_eq!(b.edges_seen(), stream.len() as u64);
        assert_eq!(a.edges_seen(), 2 * stream.len() as u64);
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut c = ParallelBulkTriangleCounter::new(64, 4, 3);
        c.process_batch(&[]);
        assert_eq!(c.edges_seen(), 0);
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn process_source_matches_process_stream_bit_for_bit() {
        let stream = tristream_gen::planted_triangles(25, 50, 9);
        let mut by_stream = ParallelBulkTriangleCounter::new(512, 2, 7);
        by_stream.process_stream(stream.edges(), 64);
        let mut by_source = ParallelBulkTriangleCounter::new(512, 2, 7);
        let edges = by_source
            .process_source(
                stream
                    .batches(64)
                    .map(|b| Ok::<_, std::io::Error>(b.to_vec())),
            )
            .unwrap();
        assert_eq!(edges, stream.len() as u64);
        assert_eq!(by_source.edges_seen(), by_stream.edges_seen());
        assert_eq!(by_source.raw_estimates(), by_stream.raw_estimates());
    }

    #[test]
    fn process_source_propagates_errors_and_keeps_the_prefix_counted() {
        let good: Vec<Edge> = (0..8u64).map(|i| Edge::new(i, i + 1)).collect();
        let mut c = ParallelBulkTriangleCounter::new(64, 2, 3);
        let result = c.process_source(vec![Ok(good.clone()), Err("gone"), Ok(good)]);
        assert_eq!(result, Err("gone"));
        assert_eq!(c.edges_seen(), 8, "prefix before the error stays counted");
    }

    #[test]
    fn sharded_estimator_single_shard_is_bit_identical_to_the_sequential_counter() {
        // The generic factory path must preserve the engine's transport
        // transparency: one shard, same seed, same batch boundaries ⇒ the
        // same bits as the sequential estimator — including with the
        // PerEstimator level-1 strategy, extending the existing
        // PerEstimator parity test to the generic engine.
        let stream = tristream_gen::planted_triangles(20, 60, 17);
        for strategy in [Level1Strategy::PerEstimator, Level1Strategy::GeometricSkip] {
            let mut sharded = ShardedEstimator::from_factory(1, 13, |seed| {
                BulkTriangleCounter::new(256, seed).with_level1_strategy(strategy)
            });
            let mut sequential = BulkTriangleCounter::new(256, 13).with_level1_strategy(strategy);
            for batch in stream.batches(37) {
                sharded.process_batch(batch);
                sequential.process_batch(batch);
            }
            assert_eq!(
                TriangleEstimator::estimate(&sharded).to_bits(),
                TriangleEstimator::estimate(&sequential).to_bits(),
                "strategy {strategy:?}"
            );
            assert_eq!(TriangleEstimator::edges_seen(&sharded), stream.len() as u64);
            assert_eq!(
                TriangleEstimator::memory_words(&sharded),
                TriangleEstimator::memory_words(&sequential)
            );
        }
    }

    #[test]
    fn sharded_estimator_uses_the_shard_seed_stride_contract() {
        // The factory must be handed exactly the seeds `shard_counters`
        // would use, so generic and specialised sharding stay comparable.
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
        let mut concrete =
            ShardedEstimator::from_factory(2, 7, |seed| BulkTriangleCounter::new(64, seed));
        for batch in stream.batches(64) {
            boxed.process_batch(batch);
            concrete.process_batch(batch);
        }
        assert_eq!(
            TriangleEstimator::estimate(&boxed).to_bits(),
            TriangleEstimator::estimate(&concrete).to_bits()
        );
        assert_eq!(boxed.shard_estimates(), concrete.shard_estimates());
    }

    #[test]
    fn median_of_means_aggregation_is_supported() {
        let stream = tristream_gen::planted_triangles(60, 120, 5);
        let mut c = ParallelBulkTriangleCounter::with_aggregation(
            8_000,
            4,
            3,
            Aggregation::MedianOfMeans { groups: 8 },
        );
        c.process_stream(stream.edges(), 2_048);
        let est = c.estimate();
        assert!((est - 60.0).abs() < 0.35 * 60.0, "estimate {est}");
    }
}
