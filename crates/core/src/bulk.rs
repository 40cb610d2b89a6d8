//! Bulk (batched) processing of the edge stream — §3.3 of the paper,
//! Theorem 3.5.
//!
//! Processing each edge through all `r` estimators costs `O(m·r)` total
//! time. The bulk algorithm instead ingests a *batch* of `w` edges and
//! advances all estimators to the state they would reach after observing the
//! batch one edge at a time, in only `O(r + w)` time and `O(r + w)` working
//! space:
//!
//! 1. **Level-1 resampling** — every estimator independently replaces its
//!    level-1 edge with a uniform batch edge with probability `w/(m+w)`
//!    (the reservoir step over "old stream vs. this batch"). Following §4,
//!    the step draws the geometric gaps between the estimators that do
//!    replace and skips the rest, so its expected cost is
//!    `O(r·w/(m+w) + 1)` draws rather than one draw per estimator.
//! 2. **Level-2 candidate tracking** — the candidate set `N(r₁) ∩ B` is
//!    characterised implicitly by vertex degrees within the batch
//!    (Observation 3.6). One indexing pass of the degree-keeping edge
//!    iterator (`edgeIter`, Algorithm 2) records every edge's endpoint
//!    occurrence numbers — so each estimator reads the batch degrees of
//!    `r₁`'s endpoints at the moment `r₁` arrived (β values) off the edge
//!    it replaced — and lays out every vertex's occurrences in batch order.
//!    A single `randInt` per estimator then decides whether to keep the
//!    current `r₂` or take the new one (Algorithm 3): the edge at which
//!    vertex `x` reaches batch degree `t` (EVENT_B `(x, t)`) is the `t`-th
//!    entry of `x`'s occurrence list. The draws record their events, and a
//!    loop over the events takes each edge with one array read — no second
//!    pass over the batch.
//! 3. **Wedge closing** — a hash table keyed by the (unique) edge that would
//!    close each estimator's wedge is consulted while scanning the batch.
//!
//! The result is *distributionally identical* to one-at-a-time processing:
//! every estimator ends the batch with `r₁` uniform over the whole stream,
//! `r₂` uniform over `N(r₁)`, `c = |N(r₁)|`, and the closing edge found iff
//! one arrived after `r₂` — the property the accuracy theorems rely on and
//! the property the test suite checks explicitly.
//!
//! # The hot-path implementation
//!
//! The `O(r + w)` bound says nothing about constants, and the constants are
//! where the original implementation left throughput on the table: an
//! array-of-structs pool of `Option`-heavy 104-byte states, five std
//! `HashMap`s (SipHash) and several `Vec`s allocated *per batch*, and one
//! RNG call per draw. This implementation keeps the algorithm and fixes
//! the constants:
//!
//! * the pool is the struct-of-arrays [`EstimatorPool`] — each step streams
//!   through contiguous columns, and Step 3's "who still awaits a closer"
//!   scan is a `r2_set & !closer_set` bitset word walk;
//! * all per-batch scratch (the replaced-estimator list, the batch vertex
//!   table, the per-vertex degrees and occurrence lists, the per-edge id
//!   and occurrence columns, the two batch bitmaps, the Step-2b list, the
//!   drawn events, and the closing-edge index) lives in a reusable
//!   `BatchScratch` that is **cleared, not reallocated**, between batches
//!   — the steady state performs zero heap allocations per batch (pinned
//!   by `tests/alloc_steady_state.rs`);
//! * the vertex and closing-edge tables are [`FastMap`]s — deterministic
//!   open addressing with a multiply-shift hash seeded from the counter's
//!   construction seed, so runs stay reproducible. The closing-edge table
//!   keys on packed `(u64, u64)` pairs, and estimators waiting on the same
//!   edge chain through a per-estimator `next` column instead of per-key
//!   `Vec`s; the vertex table keys on the bare vertex id and maps it to a
//!   `u32` dense id, so its slots are 16 bytes, and everything else per
//!   vertex lives in dense `u32` arrays indexed by that id;
//! * RNG draws go through the [`BufferedRng`] — one buffer refill per
//!   couple hundred draws, consumed strictly in order;
//! * each step is one loop over its items, and the two loops that probe
//!   the vertex table by a key they cannot predict — the Step-2a scan over
//!   the batch edges and the Step-2b walk over the listed estimators —
//!   prefetch the slots of the item `PREFETCH_AHEAD` (8) positions on, so
//!   the probe finds its cache line warm. Without the prefetch the kernel
//!   ran 16% slower at w = 65,536; the Step-3 probes need none, as the
//!   closing-edge table's probe-start filter answers almost all of them;
//! * Steps 2b and 3 each walk the pool, but send to the hash tables and
//!   the RNG only the estimators the batch can reach. The Step-2a scan
//!   also marks every batch endpoint in a vertex bitmap and every batch
//!   edge in an edge bitmap: one bit per hashed key, 16 bits per batch
//!   edge, zeroed per batch. Step 2b first lists, in estimator order, the
//!   estimators with a level-1 endpoint in the vertex bitmap, and probes
//!   and draws for those only. Step 3 computes each waiting estimator's
//!   closing pair without branches and indexes it only when the edge
//!   bitmap holds it.
//!
//! A bitmap can report a key that is absent, after a hash collision, but
//! never misses one that is present. So every estimator that draws is on
//! the Step-2b list — one whose level-1 edge predates the batch draws only
//! when an endpoint occurs in the batch, and one Step 1 replaced holds a
//! batch edge — and the list keeps estimator order, so the draws come in
//! the order of a walk over the whole pool. A listed estimator with no
//! batch neighbours draws nothing, as before. In Step 3, a closing pair
//! that does not occur in the batch can match no batch edge, so leaving
//! it out of the index changes no closer.
//!
//! Because every logical draw consumes exactly one `u64` of the generator
//! stream in the same order as before, the counter is **bit-identical** to
//! the retained pre-pool implementation
//! ([`crate::reference::ReferenceBulkCounter`]) for any seed and any batch
//! boundaries — a stronger property than the distributional identity the
//! theorem needs, and the one `tests/pool_equivalence.rs` pins.

use crate::estimator::EstimatorState;
use crate::fastmap::{FastKey, FastMap};
use crate::pool::{BufferedRng, EstimatorPool, POOL_COLUMNS, RNG_BUFFER_LEN};
use rand::Rng;
use tristream_graph::snapshot::{put_u64s, SnapshotError, SnapshotReader, SnapshotWriter};
use tristream_graph::Edge;
use tristream_sample::{mean, salted_seed, splitmix64, GeometricSkip};

/// The aggregation tag written into every snapshot's meta section,
/// followed by a group count of 0: the estimate is the mean of the
/// estimators. Tag 1 marked a median-of-means counter, which no entry
/// point built; restore refuses it like any other value.
const AGGREGATION_TAG_MEAN: u8 = 0;

/// Level-1 tag written into every snapshot's meta section: the geometric
/// skip walk of Step 1. Snapshots written before the per-estimator walk was
/// removed may carry tag 0; restore accepts both, because the tag never
/// described saved state, only how later batches draw.
const LEVEL1_TAG_GEOMETRIC_SKIP: u8 = 1;

/// Chain terminator for the per-estimator `wait_next` column in
/// [`BatchScratch`].
const CHAIN_END: u32 = u32::MAX;

/// The largest batch [`BulkTriangleCounter::process_batch`] accepts: the
/// scratch stores batch indices, batch degrees and occurrence-list offsets
/// (up to `2w`) as `u32`s.
const MAX_BATCH_EDGES: usize = (u32::MAX / 2) as usize;

/// Batch edges per 64-bit word of a [`BatchBitmap`]: 16 bits per edge.
const BITMAP_EDGES_PER_WORD: usize = 4;

/// How many items ahead the Step-2a scan and the Step-2b walk prefetch the
/// vertex-table slots they will probe, so that each slot's line arrives
/// before its probe. Without the prefetch the kernel ran 16% slower at
/// w = 65,536 (ARCHITECTURE.md § Hot-path data layout, idea 4).
const PREFETCH_AHEAD: usize = 8;

/// A per-batch membership bitmap: one bit per hashed key, zeroed and sized
/// to the batch by [`BatchBitmap::reset`]. A key inserted since the last
/// reset always tests present; a key that was not tests present only on a
/// hash collision. The kernel uses it only to decide which estimators it
/// looks at, never what they draw, so its hash cannot change an estimate.
#[derive(Debug, Clone)]
struct BatchBitmap {
    words: Vec<u64>,
    /// The bit count minus one; the count is a power of two.
    mask: usize,
    seed: u64,
}

impl BatchBitmap {
    fn new(seed: u64) -> Self {
        Self {
            words: Vec::new(),
            mask: 0,
            seed,
        }
    }

    // Every batch resets the bitmaps, and the Step-2a scan and the Step-2b
    // and Step-3 walks insert and test.
    // analyze: region(no-alloc)

    /// Zeroes the bitmap and sizes it for a batch of `w` edges: 16 bits
    /// per edge, rounded up to a power of two of words. Growing happens
    /// only on the first batch of a larger size.
    fn reset(&mut self, w: usize) {
        let words = w.div_ceil(BITMAP_EDGES_PER_WORD).next_power_of_two();
        self.words.clear();
        self.words.resize(words, 0);
        self.mask = words * 64 - 1;
    }

    /// The bit of `key`: its multiply-shift hash folded like
    /// [`FastMap`]'s, masked to the bitmap.
    #[inline]
    fn bit<K: FastKey>(&self, key: K) -> usize {
        let h = key.hash_with(self.seed);
        ((h ^ (h >> 32)) as usize) & self.mask
    }

    #[inline]
    fn insert<K: FastKey>(&mut self, key: K) {
        let i = self.bit(key);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    #[inline]
    fn contains<K: FastKey>(&self, key: K) -> bool {
        let i = self.bit(key);
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }
    // analyze: endregion
}

/// Reusable per-batch working state. Everything here is sized once (to
/// `O(r)` at construction, to `O(w)` on the first batch of a given size)
/// and then cleared between batches — `process_batch` never allocates in
/// the steady state.
#[derive(Debug, Clone)]
struct BatchScratch {
    /// `(estimator, batch index)` pairs replaced in Step 1, in estimator
    /// order — the order Step 2b visits them in.
    replaced: Vec<(u32, u32)>,
    /// The EVENT_B `(x, t)` each estimator drew in Step 2b for its new
    /// level-2 edge, as `(estimator, dense id of x, t)`, in estimator
    /// order. Taking the edges in a loop of their own keeps the dependent
    /// occurrence-list and batch reads off the draw loop, so the reads of
    /// different estimators overlap.
    events: Vec<(u32, u32, u32)>,
    /// Batch vertex table: vertex id → dense batch id (`0, 1, …` in order
    /// of first occurrence), in 16-byte slots (8-byte key, 4-byte
    /// generation, 4-byte id). `prepare` reserves `2w` endpoints, i.e. `4w`
    /// slots: `64w` bytes per shard.
    ids: FastMap<u32, u64>,
    /// Per dense id: the vertex's batch degree, and where its occurrence
    /// list starts in `occ`.
    degree: Vec<u32>,
    occ_start: Vec<u32>,
    /// Per edge, recorded by the Step-2a scan: the dense ids of `batch[i]`'s
    /// endpoints and their occurrence numbers, i.e. the endpoints' batch
    /// degrees *at* that edge (after counting it). The occurrence numbers
    /// at `k` are the β values of an estimator whose new level-1 edge is
    /// `batch[k]`.
    edge_iu: Vec<u32>,
    edge_iv: Vec<u32>,
    edge_du: Vec<u32>,
    edge_dv: Vec<u32>,
    /// The occurrence lists: `2w` batch indices, each vertex's occurrences
    /// in batch order, dense id `x`'s list starting at `occ_start[x]`. Its
    /// `t`-th entry is the edge at which `x` reaches batch degree `t` — the
    /// EVENT_B `(x, t)` of Algorithm 3.
    occ: Vec<u32>,
    /// Bitmaps over the batch's vertices and its (normalised) edges,
    /// filled by the Step-2a scan. Step 2b walks only the estimators with
    /// a level-1 endpoint in `vertex_bitmap`; Step 3 indexes only the
    /// closing pairs in `edge_bitmap`.
    vertex_bitmap: BatchBitmap,
    edge_bitmap: BatchBitmap,
    /// The Step-2b list: the estimators `list_reachable` keeps, in
    /// estimator order. Sized to `r` once and written by index; only the
    /// entries before the length `list_reachable` returns are this batch's.
    reachable: Vec<u32>,
    /// Closing-edge index: packed `(u, v)` → chain head, threaded through
    /// `wait_next`.
    waiting: FastMap<u32>,
    wait_next: Vec<u32>,
}

impl BatchScratch {
    /// Scratch for a pool of `r` estimators, with the hash seeds derived
    /// from `hash_seed` (itself derived from the counter's seed — see
    /// [`BulkTriangleCounter::new`]).
    fn new(r: usize, hash_seed: u64) -> Self {
        let mut waiting = FastMap::with_seed(hash_seed ^ 0xC7C7);
        // The table holds at most one entry per estimator; reserving the
        // bound up front means no growth can happen mid-batch.
        waiting.reserve(r);
        let bitmap_seed = splitmix64(salted_seed(hash_seed, 0xF1_17E2_B175));
        Self {
            replaced: Vec::with_capacity(r),
            events: Vec::with_capacity(r),
            ids: FastMap::with_seed(hash_seed),
            degree: Vec::new(),
            occ_start: Vec::new(),
            edge_iu: Vec::new(),
            edge_iv: Vec::new(),
            edge_du: Vec::new(),
            edge_dv: Vec::new(),
            occ: Vec::new(),
            vertex_bitmap: BatchBitmap::new(bitmap_seed),
            edge_bitmap: BatchBitmap::new(bitmap_seed),
            reachable: vec![0; r],
            waiting,
            wait_next: vec![0; r],
        }
    }

    // Batch preparation, Step 2a and the occurrence lookup run inside the
    // batch hot loop, and so do Step 2b's list and Step 3's index below.
    // analyze: region(no-alloc)

    /// Readies the scratch for a batch of `w` edges: clears the maps
    /// (`O(1)` generation bumps), makes sure the vertex table can absorb
    /// `2w` endpoints without growing mid-batch, sizes every per-vertex
    /// and per-edge array for the batch, and zeroes the two bitmaps.
    fn prepare(&mut self, w: usize) {
        assert!(
            w <= MAX_BATCH_EDGES,
            "a batch of {w} edges exceeds the {MAX_BATCH_EDGES}-edge limit"
        );
        self.replaced.clear();
        self.events.clear();
        self.ids.clear();
        self.ids.reserve(2 * w);
        for column in [&mut self.degree, &mut self.occ_start, &mut self.occ] {
            column.resize(2 * w, 0);
        }
        for column in [
            &mut self.edge_iu,
            &mut self.edge_iv,
            &mut self.edge_du,
            &mut self.edge_dv,
        ] {
            column.resize(w, 0);
        }
        self.vertex_bitmap.reset(w);
        self.edge_bitmap.reset(w);
        self.waiting.clear();
    }

    /// Step 2a: one pass of the degree-keeping edge iterator (`edgeIter`,
    /// Algorithm 2) gives every batch vertex a dense id and every edge its
    /// endpoints' ids and occurrence numbers; a prefix sum over the degrees
    /// and one more pass over the edge columns then fill the occurrence
    /// lists. The scan prefetches the vertex-table slots of the edge
    /// [`PREFETCH_AHEAD`] positions on.
    fn index_batch(&mut self, batch: &[Edge]) {
        let w = batch.len();
        for (i, e) in batch.iter().enumerate() {
            if let Some(ahead) = batch.get(i + PREFETCH_AHEAD) {
                self.ids.prefetch(ahead.u().raw());
                self.ids.prefetch(ahead.v().raw());
            }
            self.count_edge(i, e);
        }

        let vertices = self.ids.len();
        let mut offset = 0u32;
        for (start, &d) in self.occ_start[..vertices]
            .iter_mut()
            .zip(&self.degree[..vertices])
        {
            *start = offset;
            offset += d;
        }
        debug_assert_eq!(offset as usize, 2 * w, "the batch degrees sum to 2w");
        for i in 0..w {
            let at_u = self.occ_start[self.edge_iu[i] as usize] + self.edge_du[i] - 1;
            let at_v = self.occ_start[self.edge_iv[i] as usize] + self.edge_dv[i] - 1;
            self.occ[at_u as usize] = i as u32;
            self.occ[at_v as usize] = i as u32;
        }
    }

    /// The Step-2a per-edge body: counts both endpoints of `batch[i]`,
    /// records their ids and occurrence numbers, and marks the endpoints
    /// and the edge in the bitmaps.
    #[inline]
    fn count_edge(&mut self, i: usize, e: &Edge) {
        let (u, v) = (e.u().raw(), e.v().raw());
        self.vertex_bitmap.insert(u);
        self.vertex_bitmap.insert(v);
        self.edge_bitmap.insert((u, v));
        let (iu, du) = self.count_vertex(u);
        let (iv, dv) = self.count_vertex(v);
        self.edge_iu[i] = iu;
        self.edge_iv[i] = iv;
        self.edge_du[i] = du;
        self.edge_dv[i] = dv;
    }

    /// Counts one more occurrence of `vertex`, returning its dense id and
    /// its new batch degree. A vertex seen for the first time takes the
    /// next dense id, which is the table's length before the insert.
    #[inline]
    fn count_vertex(&mut self, vertex: u64) -> (u32, u32) {
        let fresh = self.ids.len() as u32;
        let id = *self.ids.get_mut_or_insert(vertex, fresh);
        let d = &mut self.degree[id as usize];
        *d = if id == fresh { 1 } else { *d + 1 };
        (id, *d)
    }

    /// The batch degree of the vertex with dense id `id` (0 for a vertex
    /// absent from the batch).
    #[inline]
    fn degree_of(&self, id: Option<u32>) -> u64 {
        id.map_or(0, |id| u64::from(self.degree[id as usize]))
    }

    /// The batch index at which the vertex with dense id `id` reaches batch
    /// degree `t` — one read of its occurrence list.
    #[inline]
    fn occurrence(&self, id: u32, t: u64) -> usize {
        debug_assert!(
            t >= 1 && t <= self.degree_of(Some(id)),
            "EVENT_B must fire within the batch: t = {t}, degree {}",
            self.degree_of(Some(id))
        );
        self.occ[self.occ_start[id as usize] as usize + t as usize - 1] as usize
    }

    /// Step 2b's list: writes into `reachable`, in estimator order, every
    /// estimator holding a level-1 edge with an endpoint in the vertex
    /// bitmap, and returns how many there are. Every estimator that can
    /// draw is on it: one Step 1 did not replace draws only when an
    /// endpoint occurs in the batch, and one it replaced holds a batch
    /// edge. Each estimator is written at the list's end, which advances
    /// only on a hit — no branch.
    fn list_reachable(&mut self, pool: &EstimatorPool) -> usize {
        let mut len = 0usize;
        for (word_idx, &word) in pool.r1_set.words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let idx = word_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let hit = self.vertex_bitmap.contains(pool.r1_u[idx])
                    | self.vertex_bitmap.contains(pool.r1_v[idx]);
                // `len` counts estimators before `idx`, so it stays below r.
                self.reachable[len] = idx as u32;
                len += usize::from(hit);
            }
        }
        len
    }

    /// Step 3's index: chains every estimator with a wedge but no closer
    /// into `waiting` under the pair that would close its wedge — when the
    /// edge bitmap says that pair may occur in the batch, since no other
    /// pair can be found there. Returns the number of estimators chained.
    /// The estimators come from `r2_set & !closer_set`, one word per 64,
    /// and each closing pair is computed without branches: with
    /// `r1 = (a, b)` and `r2 = (c, d)` sharing `s`, it is
    /// `(a ^ b ^ s, c ^ d ^ s)`.
    fn index_waiting(&mut self, pool: &EstimatorPool) -> usize {
        let mut chained = 0usize;
        let candidates = pool.r2_set.words().iter().zip(pool.closer_set.words());
        for (word_idx, (&r2_word, &closer_word)) in candidates.enumerate() {
            let mut bits = r2_word & !closer_word;
            while bits != 0 {
                let idx = word_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (a, b) = (pool.r1_u[idx], pool.r1_v[idx]);
                let (c, d) = (pool.r2_u[idx], pool.r2_v[idx]);
                debug_assert!(
                    a == c || a == d || b == c || b == d,
                    "estimator {idx}: r2 ({c}, {d}) is not adjacent to r1 ({a}, {b})"
                );
                let shared = if a == c || a == d { a } else { b };
                let (p, q) = (a ^ b ^ shared, c ^ d ^ shared);
                let key = (p.min(q), p.max(q));
                // `p == q` when r2 repeats r1: no wedge to close.
                if p != q && self.edge_bitmap.contains(key) {
                    let head = self.waiting.insert(key, idx as u32).unwrap_or(CHAIN_END);
                    self.wait_next[idx] = head;
                    chained += 1;
                }
            }
        }
        chained
    }
    // analyze: endregion
}

/// One level-1 endpoint as Step 2b sees it.
#[derive(Debug, Clone, Copy)]
struct Endpoint {
    /// The vertex's dense batch id; `None` when it does not occur in the
    /// batch.
    id: Option<u32>,
    /// Its β value: its batch degree when the level-1 edge arrived, 0 for
    /// a level-1 edge from an earlier batch.
    beta: u32,
}

// The helpers below are the per-item bodies of the batch steps' loops.
// They run inside the batch hot loop.
// analyze: region(no-alloc)

/// Step 2b's view of estimator `idx`'s level-1 edge `(x, y)`. An estimator
/// Step 1 replaced at batch index `k` is the next entry of the
/// estimator-ordered `replaced` list, which `cursor` walks: it reads its
/// endpoint ids and β values straight off the edge columns at `k`. Any
/// other estimator took its level-1 edge before this batch, so its β
/// values are 0, and it looks its endpoints up in the vertex table.
#[inline]
fn level1_endpoints(
    scratch: &BatchScratch,
    pool: &EstimatorPool,
    idx: usize,
    cursor: &mut usize,
) -> [Endpoint; 2] {
    if let Some(&(est, k)) = scratch.replaced.get(*cursor) {
        if est as usize == idx {
            *cursor += 1;
            let k = k as usize;
            return [
                Endpoint {
                    id: Some(scratch.edge_iu[k]),
                    beta: scratch.edge_du[k],
                },
                Endpoint {
                    id: Some(scratch.edge_iv[k]),
                    beta: scratch.edge_dv[k],
                },
            ];
        }
    }
    [pool.r1_u[idx], pool.r1_v[idx]].map(|x| Endpoint {
        id: scratch.ids.get(x),
        beta: 0,
    })
}

/// The Step-2b per-estimator body: one `randInt` decides whether estimator
/// `idx` keeps its level-2 edge or replaces it with the edge of an EVENT_B,
/// which it records in `events`. Called in estimator-index order, so the
/// RNG consumption order is that of
/// [`crate::reference::ReferenceBulkCounter`].
#[inline]
fn step2b_estimator(
    pool: &mut EstimatorPool,
    scratch: &mut BatchScratch,
    rng: &mut BufferedRng,
    idx: usize,
    [x, y]: [Endpoint; 2],
) {
    let beta_x = u64::from(x.beta);
    let beta_y = u64::from(y.beta);
    let a = scratch.degree_of(x.id) - beta_x;
    let b = scratch.degree_of(y.id) - beta_y;
    let c_minus = pool.c[idx];
    let c_plus = a + b;
    if c_plus == 0 {
        return; // nothing new adjacent to r1 in this batch
    }
    let total = c_minus + c_plus;
    let phi = rng.gen_range(1..=total);
    pool.c[idx] = total;
    if phi <= c_minus {
        // Keep the existing level-2 edge (and any closed triangle).
        return;
    }
    // The new level-2 edge is the one at which the chosen endpoint reaches
    // batch degree `target`.
    let (vertex, target) = if phi <= c_minus + a {
        (x.id, beta_x + (phi - c_minus))
    } else {
        (y.id, beta_y + (phi - c_minus - a))
    };
    // A vertex with new neighbours in the batch occurs in it, so it has an
    // id — but the hot path must not carry a panic edge.
    let Some(id) = vertex else {
        debug_assert!(false, "an endpoint with batch neighbours has a batch id");
        return;
    };
    scratch.events.push((idx as u32, id, target as u32));
}

/// The Step-3 chain walk: `head` is the `waiting` chain of estimators
/// whose wedge `batch[i]` closes.
#[inline]
fn close_wedges(
    pool: &mut EstimatorPool,
    scratch: &BatchScratch,
    e: &Edge,
    position: u64,
    head: u32,
) {
    let mut cursor = head;
    while cursor != CHAIN_END {
        let est = cursor as usize;
        if !pool.closer_set.get(est) && position > pool.r2_pos[est] {
            pool.take_closer(est, *e, position);
        }
        cursor = scratch.wait_next[est];
    }
}

// analyze: endregion

/// Streaming triangle counter that ingests edges in batches in
/// `O(r + w)` time per batch (Theorem 3.5), built on the struct-of-arrays
/// [`EstimatorPool`] (see the [module docs](self) for the data layout).
#[derive(Debug, Clone)]
pub struct BulkTriangleCounter {
    pool: EstimatorPool,
    scratch: BatchScratch,
    edges_seen: u64,
    rng: BufferedRng,
    /// Construction seed, kept so snapshots can rebuild the scratch-table
    /// hash seeds (a pure SplitMix64 derivation of it) on restore.
    seed: u64,
}

impl BulkTriangleCounter {
    /// Creates a bulk counter with `r` estimators.
    ///
    /// The scratch hash tables are seeded with a SplitMix64 derivation of
    /// `seed` (not with draws from the estimator RNG stream, which must
    /// stay bit-compatible with the reference implementation), so the whole
    /// run — estimates *and* table layouts — is a pure function of `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn new(r: usize, seed: u64) -> Self {
        assert!(r > 0, "at least one estimator is required");
        let hash_seed = Self::hash_seed(seed);
        Self {
            pool: EstimatorPool::new(r),
            scratch: BatchScratch::new(r, hash_seed),
            edges_seen: 0,
            rng: BufferedRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The scratch-table hash seed: a SplitMix64 derivation of the
    /// construction seed, shared by the constructor and snapshot restore.
    fn hash_seed(seed: u64) -> u64 {
        splitmix64(salted_seed(seed, 0xB0_1D_FA_CE_0F_F1_CE_5E))
    }

    /// Resident memory of the estimator pool in bytes — ten `u64` columns
    /// plus three presence bitsets per [`EstimatorPool`]. The paper reports
    /// "36 bytes per estimator" for its C++ implementation; the pool costs
    /// 80 bytes + 3 bits because it keeps full endpoints and positions for
    /// the sampler and the test invariants. Per-batch scratch is working
    /// memory of the batch, not sketch state, and is excluded (the same
    /// exclusion the pre-pool counter applied to its transient maps).
    pub fn estimator_memory_bytes(&self) -> usize {
        self.pool.resident_bytes()
    }

    /// Accounting words one estimator costs in the pool (the registry's
    /// sizing unit): [`crate::pool::POOL_COLUMNS`] `u64`s; the three
    /// presence bits per estimator amortise to under half a word per 64
    /// estimators and are covered by the measured
    /// [`estimator_memory_bytes`](Self::estimator_memory_bytes).
    /// [`process_batch`](Self::process_batch) reads and writes these same
    /// columns in place — no shadow state, no padding, no extra columns —
    /// so equal-memory head-to-head budgets stay honest.
    pub fn words_per_estimator() -> usize {
        crate::pool::POOL_COLUMNS
    }

    /// Number of estimators `r`.
    pub fn num_estimators(&self) -> usize {
        self.pool.len()
    }

    /// Number of edges observed so far (`m`).
    pub fn edges_seen(&self) -> u64 {
        self.edges_seen
    }

    /// The estimator states, materialised from the pool columns into the
    /// scalar [`EstimatorState`] representation (tests, inspection — not a
    /// hot path).
    pub fn estimators(&self) -> Vec<EstimatorState> {
        self.pool.states()
    }

    /// Processes a whole stream by cutting it into batches of `batch_size`
    /// edges. A batch size of `Θ(r)` (the paper suggests `w = 8r` in the
    /// experiments) gives `O(m + r)` total time.
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

    /// Ingests one batch of edges, advancing every estimator as if the edges
    /// had been processed one at a time in order.
    ///
    /// Each step is one loop over its items: Step 1 over the replaced
    /// estimators, the Step-2a scan over the batch edges, the Step-2b walk
    /// over the listed estimators, and the Step-3 probe over the batch
    /// edges. The Step-2a scan and the Step-2b walk prefetch the
    /// vertex-table slots of the item `PREFETCH_AHEAD` (8) positions on — a
    /// memory schedule only: the draws, probes and RNG order are those of
    /// [`crate::reference::ReferenceBulkCounter`], so the results stay
    /// bit-identical to it.
    ///
    /// Allocation-free in the steady state: all working memory comes from
    /// the reused `BatchScratch` (the region below lets `tristream-analyze`
    /// reject allocating tokens at review time;
    /// `tests/alloc_steady_state.rs` pins the runtime behaviour).
    ///
    /// # Panics
    ///
    /// Panics if the batch holds more than `u32::MAX / 2` edges.
    // analyze: region(no-alloc)
    pub fn process_batch(&mut self, batch: &[Edge]) {
        let w = batch.len();
        if w == 0 {
            return;
        }
        let m = self.edges_seen;
        let r = self.pool.len();
        let pool = &mut self.pool;
        let scratch = &mut self.scratch;
        scratch.prepare(w);

        // ---- Step 1: level-1 reservoir over (old stream) ++ (batch). ------
        // Each estimator replaces independently with probability w/(m+w);
        // enumerate only the successes via geometric gaps (the §4
        // optimisation). Two phases, reusing the `replaced` list instead of
        // collecting a fresh Vec: first every gap is drawn (including the
        // final out-of-range gap `GeometricSkip::successes_up_to` parks and
        // drops), then every success draws its batch edge — the exact draw
        // order of the reference implementation.
        let p = w as f64 / (m + w as u64) as f64;
        let mut skip = GeometricSkip::new(p);
        while let Some(pos) = skip.next_success(&mut self.rng) {
            if pos > r as u64 {
                break;
            }
            scratch.replaced.push(((pos - 1) as u32, 0));
        }
        for entry in &mut scratch.replaced {
            let k = self.rng.gen_range(0..w);
            entry.1 = k as u32;
            pool.take_r1(entry.0 as usize, batch[k], m + k as u64 + 1);
        }

        // ---- Step 2a: one edgeIter pass — degB and the occurrence lists. --
        scratch.index_batch(batch);

        // ---- Step 2b: one randInt per estimator; take the EVENT_B edges. --
        // Only the listed estimators can draw (see `list_reachable`), and
        // the list keeps estimator order, so the draws come in the order
        // of a walk over the whole pool. β values come straight off the
        // edge columns (see `level1_endpoints`), and the EVENT_B edges
        // straight off the occurrence lists, so no second pass over the
        // batch is needed. The walk prefetches the vertex-table slots of
        // the level-1 endpoints `PREFETCH_AHEAD` estimators on.
        let listed = scratch.list_reachable(pool);
        let mut cursor = 0usize;
        for at in 0..listed {
            if let Some(&ahead) = scratch.reachable[..listed].get(at + PREFETCH_AHEAD) {
                scratch.ids.prefetch(pool.r1_u[ahead as usize]);
                scratch.ids.prefetch(pool.r1_v[ahead as usize]);
            }
            let idx = scratch.reachable[at] as usize;
            let ends = level1_endpoints(scratch, pool, idx, &mut cursor);
            step2b_estimator(pool, scratch, &mut self.rng, idx, ends);
        }
        debug_assert_eq!(
            cursor,
            scratch.replaced.len(),
            "every estimator replaced in Step 1 reads its β values"
        );
        // Each drawn EVENT_B edge is one occurrence-list read away; taking
        // it drops any closed triangle.
        for &(idx, id, t) in &scratch.events {
            let k = scratch.occurrence(id, u64::from(t));
            pool.take_r2(idx as usize, batch[k], m + k as u64 + 1);
        }

        // ---- Step 3: find wedge-closing edges within the batch. -----------
        // Index the closing pairs that may occur in the batch (see
        // `index_waiting`), then probe the index once per batch edge. Edge
        // endpoints are stored normalised (`u < v`), matching the
        // `(min, max)` keys the index holds. Almost every probe is answered
        // by the table's probe-start filter, so there is no slot to
        // prefetch.
        if scratch.index_waiting(pool) > 0 {
            for (i, e) in batch.iter().enumerate() {
                if let Some(head) = scratch.waiting.get((e.u().raw(), e.v().raw())) {
                    close_wedges(pool, scratch, e, m + i as u64 + 1, head);
                }
            }
        }

        self.edges_seen += w as u64;
    }
    // analyze: endregion

    /// Per-estimator unbiased triangle estimates (Lemma 3.2).
    pub fn raw_estimates(&self) -> Vec<f64> {
        (0..self.pool.len())
            .map(|i| self.pool.triangle_estimate(i, self.edges_seen))
            .collect()
    }

    /// The triangle-count estimate: the mean of the per-estimator
    /// estimates (Theorem 3.3).
    pub fn estimate(&self) -> f64 {
        mean(&self.raw_estimates())
    }

    /// Number of estimators currently holding a triangle.
    pub fn estimators_with_triangle(&self) -> usize {
        self.pool.triangles_held()
    }

    /// Debug-build invariant sweep: [`EstimatorPool::validate`] over the
    /// pool, plus the scratch-side invariants the batch pipeline relies on —
    /// the waiting table stays at ≤ 50 % load (what keeps its open-addressed
    /// probes terminating and O(1)) and the wait-chain column spans the
    /// pool. Returns `true`; compiles to a no-op in release builds.
    #[must_use]
    pub fn validate(&self) -> bool {
        let _ = self.pool.validate();
        debug_assert!(
            2 * self.scratch.waiting.len() <= self.scratch.waiting.capacity(),
            "waiting table over 50% load: {} of {} slots",
            self.scratch.waiting.len(),
            self.scratch.waiting.capacity()
        );
        debug_assert_eq!(
            self.scratch.wait_next.len(),
            self.pool.len(),
            "wait-chain column must span the pool"
        );
        true
    }
}

impl BulkTriangleCounter {
    /// Serialize the complete counter state into a `TSS\0` snapshot
    /// container (layout documented in [`crate::snapshot`]): pool columns,
    /// presence bitsets, RNG state (inner generator + refill buffer +
    /// cursor), stream position, and configuration. Restoring the bytes
    /// and continuing the stream is bit-identical to never having stopped.
    pub fn to_snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        let r = self.pool.len();
        let mut meta = Vec::with_capacity(35);
        meta.push(crate::snapshot::KIND_BULK);
        put_u64s(&mut meta, &[r as u64, self.seed, self.edges_seen]);
        meta.push(AGGREGATION_TAG_MEAN);
        put_u64s(&mut meta, &[0]);
        meta.push(LEVEL1_TAG_GEOMETRIC_SKIP);

        let mut columns = Vec::with_capacity(POOL_COLUMNS * r * 8);
        for col in self.pool.snapshot_columns() {
            put_u64s(&mut columns, col);
        }

        let word_count = r.div_ceil(64);
        let mut bitsets = Vec::with_capacity(3 * word_count * 8);
        put_u64s(&mut bitsets, self.pool.r1_set.words());
        put_u64s(&mut bitsets, self.pool.r2_set.words());
        put_u64s(&mut bitsets, self.pool.closer_set.words());

        let (state, buf, pos) = self.rng.snapshot_state();
        let mut rng = Vec::with_capacity((4 + 1 + buf.len()) * 8);
        put_u64s(&mut rng, &state);
        put_u64s(&mut rng, &[pos as u64]);
        put_u64s(&mut rng, buf);

        let mut writer = SnapshotWriter::new();
        writer.section(crate::snapshot::SEC_META, &meta)?;
        writer.section(crate::snapshot::SEC_COLUMNS, &columns)?;
        writer.section(crate::snapshot::SEC_BITSETS, &bitsets)?;
        writer.section(crate::snapshot::SEC_RNG, &rng)?;
        Ok(writer.finish())
    }

    /// Rebuild a counter from [`to_snapshot`](Self::to_snapshot) bytes.
    ///
    /// Structural damage (bad magic, truncation, checksum mismatch,
    /// trailing bytes) surfaces as [`SnapshotError::Corrupt`]; bytes that
    /// decode but describe an impossible counter — zero estimators, a
    /// broken presence-subset chain, an all-zero RNG state, a bad enum tag
    /// — as [`SnapshotError::Incompatible`]. Never panics.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let incompatible = |reason: String| SnapshotError::Incompatible { reason };
        let reader = SnapshotReader::parse(bytes)?;

        let mut meta = reader.section(crate::snapshot::SEC_META)?;
        let kind = meta.u8("snapshot kind tag")?;
        if kind != crate::snapshot::KIND_BULK {
            return Err(incompatible(format!(
                "expected a bulk-counter snapshot (kind {}), found kind {kind}",
                crate::snapshot::KIND_BULK
            )));
        }
        let r64 = meta.u64("estimator count")?;
        let seed = meta.u64("construction seed")?;
        let edges_seen = meta.u64("edges seen")?;
        let agg_tag = meta.u8("aggregation tag")?;
        // The group count after the tag is 0 in every snapshot written.
        meta.u64("aggregation group count")?;
        let strategy_tag = meta.u8("level-1 strategy tag")?;
        meta.finish()?;

        let r = usize::try_from(r64)
            .ok()
            .filter(|&r| r > 0)
            .ok_or_else(|| incompatible(format!("estimator count {r64} is not usable")))?;
        if agg_tag != AGGREGATION_TAG_MEAN {
            return Err(incompatible(format!(
                "aggregation tag {agg_tag} is not the mean aggregation (tag \
                 {AGGREGATION_TAG_MEAN}), the only one this build restores"
            )));
        }
        if strategy_tag > LEVEL1_TAG_GEOMETRIC_SKIP {
            return Err(incompatible(format!(
                "unknown level-1 strategy tag {strategy_tag}"
            )));
        }

        let mut columns_section = reader.section(crate::snapshot::SEC_COLUMNS)?;
        let mut columns: [Vec<u64>; POOL_COLUMNS] = Default::default();
        for col in &mut columns {
            *col = columns_section.u64_vec(r, "pool column")?;
        }
        columns_section.finish()?;

        let word_count = r.div_ceil(64);
        let mut bitset_section = reader.section(crate::snapshot::SEC_BITSETS)?;
        let r1_words = bitset_section.u64_vec(word_count, "r1 presence bitset")?;
        let r2_words = bitset_section.u64_vec(word_count, "r2 presence bitset")?;
        let closer_words = bitset_section.u64_vec(word_count, "closer presence bitset")?;
        bitset_section.finish()?;
        let pool = EstimatorPool::from_snapshot_parts(r, columns, r1_words, r2_words, closer_words)
            .ok_or_else(|| {
                incompatible("pool state violates the structural invariants".to_owned())
            })?;

        let mut rng_section = reader.section(crate::snapshot::SEC_RNG)?;
        let state_words = rng_section.u64_vec(4, "rng generator state")?;
        let mut state = [0u64; 4];
        state.copy_from_slice(&state_words);
        let pos = rng_section.u64("rng consume cursor")?;
        let buf = rng_section.u64_vec(RNG_BUFFER_LEN, "rng refill buffer")?;
        rng_section.finish()?;
        let rng = usize::try_from(pos)
            .ok()
            .and_then(|pos| BufferedRng::from_snapshot_state(state, buf, pos))
            .ok_or_else(|| {
                incompatible("rng state is not a reachable generator state".to_owned())
            })?;

        Ok(Self {
            pool,
            scratch: BatchScratch::new(r, Self::hash_seed(seed)),
            edges_seen,
            rng,
            seed,
        })
    }
}

impl crate::traits::TriangleEstimator for BulkTriangleCounter {
    /// A single edge is a batch of one — distributionally identical to the
    /// one-at-a-time counter (the property `bulk::tests` checks).
    fn process_edge(&mut self, edge: Edge) {
        self.process_batch(&[edge]);
    }

    /// One call, one batch: callers control the batch boundary, so feeding
    /// the same chunks through the trait or through
    /// [`BulkTriangleCounter::process_batch`] is bit-identical per seed.
    fn process_edges(&mut self, edges: &[Edge]) {
        self.process_batch(edges);
    }

    fn estimate(&self) -> f64 {
        BulkTriangleCounter::estimate(self)
    }

    fn edges_seen(&self) -> u64 {
        BulkTriangleCounter::edges_seen(self)
    }

    /// The pool columns and presence bitsets; the `O(r + w)` per-batch
    /// scratch is working memory of the batch and therefore excluded by the
    /// convention, exactly as the pre-pool counter excluded its transient
    /// maps.
    fn memory_words(&self) -> usize {
        crate::traits::words_for_bytes(self.estimator_memory_bytes())
    }

    fn estimators_with_triangle(&self) -> Option<usize> {
        Some(BulkTriangleCounter::estimators_with_triangle(self))
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        self.to_snapshot()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), SnapshotError> {
        *self = Self::from_snapshot(snapshot)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceBulkCounter;
    use std::collections::{BTreeMap, HashMap as StdHashMap};
    use tristream_graph::exact::{count_triangles, edge_neighborhood_sizes};
    use tristream_graph::{Adjacency, EdgeStream};

    fn k_n_edges(n: u64) -> Vec<Edge> {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push(Edge::new(i, j));
            }
        }
        edges
    }

    /// Checks the paper's state invariants for every estimator against the
    /// exact stream: c = |N(r1)|, r2 ∈ N(r1), positions consistent, closer
    /// really closes the wedge after r2.
    fn assert_invariants(counter: &BulkTriangleCounter, stream: &EdgeStream) {
        let exact_c = edge_neighborhood_sizes(stream);
        let positions: StdHashMap<Edge, u64> =
            stream.iter_positioned().map(|(p, e)| (e, p)).collect();
        for (i, est) in counter.estimators().iter().enumerate() {
            let r1 = est.r1.expect("non-empty stream yields a level-1 edge");
            assert_eq!(
                positions[&r1.edge], r1.position,
                "estimator {i}: r1 position"
            );
            assert_eq!(
                est.c, exact_c[&r1.edge],
                "estimator {i}: c must equal |N(r1)| for r1 {:?}",
                r1.edge
            );
            if let Some(r2) = est.r2 {
                assert_eq!(
                    positions[&r2.edge], r2.position,
                    "estimator {i}: r2 position"
                );
                assert!(
                    r2.position > r1.position,
                    "estimator {i}: r2 arrives after r1"
                );
                assert!(
                    r2.edge.is_adjacent(&r1.edge),
                    "estimator {i}: r2 adjacent to r1"
                );
            } else {
                assert_eq!(est.c, 0, "estimator {i}: empty neighborhood iff no r2");
            }
            if let Some(closer) = est.closer {
                let r2 = est.r2.expect("closer requires r2");
                assert!(
                    closer.position > r2.position,
                    "estimator {i}: closer after r2"
                );
                assert!(
                    closer.edge.closes_wedge(&r1.edge, &r2.edge),
                    "estimator {i}: closer must close the wedge"
                );
            }
        }
    }

    /// A hub-heavy batch with repeated edges: most edges touch one of three
    /// hubs, every fifth spoke repeats in reverse orientation, the hub
    /// triangle repeats one side, and the batch is longer than
    /// [`PREFETCH_AHEAD`], so the Step-2a scan runs both with a look-ahead
    /// edge and past the last one.
    fn hub_heavy_batch_with_repeats() -> Vec<Edge> {
        let mut batch = Vec::new();
        for i in 0..40u64 {
            let (hub, spoke) = (i % 3, 10 + i % 17);
            batch.push(Edge::new(hub, spoke));
            if i % 5 == 0 {
                batch.push(Edge::new(spoke, hub));
            }
        }
        batch.extend([
            Edge::new(0u64, 1u64),
            Edge::new(1u64, 2u64),
            Edge::new(1u64, 0u64),
        ]);
        assert!(batch.len() > PREFETCH_AHEAD);
        batch
    }

    /// Scratch for `r` estimators indexed over `batch`, after indexing a
    /// different, larger batch first, so stale ids, degrees and bitmap
    /// bits from the earlier batch would show.
    fn indexed_scratch(r: usize, batch: &[Edge]) -> BatchScratch {
        let mut scratch = BatchScratch::new(r, 5);
        let earlier = k_n_edges(16);
        scratch.prepare(earlier.len());
        scratch.index_batch(&earlier);
        scratch.prepare(batch.len());
        scratch.index_batch(batch);
        scratch
    }

    /// Each batch vertex's occurrences, in batch order, found by brute
    /// force.
    fn naive_occurrences(batch: &[Edge]) -> BTreeMap<u64, Vec<u32>> {
        let mut lists: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (i, e) in batch.iter().enumerate() {
            for x in [e.u().raw(), e.v().raw()] {
                lists.entry(x).or_default().push(i as u32);
            }
        }
        lists
    }

    #[test]
    fn occurrence_lists_hold_each_vertex_batch_indices_in_order() {
        let batch = hub_heavy_batch_with_repeats();
        let scratch = indexed_scratch(8, &batch);
        let naive = naive_occurrences(&batch);
        assert_eq!(scratch.ids.len(), naive.len(), "one dense id per vertex");
        let mut degree_sum = 0;
        for (&x, list) in &naive {
            let id = scratch.ids.get(x).expect("every batch vertex has an id");
            let start = scratch.occ_start[id as usize] as usize;
            let degree = scratch.degree[id as usize] as usize;
            assert_eq!(&scratch.occ[start..start + degree], &list[..], "vertex {x}");
            degree_sum += degree;
        }
        assert_eq!(degree_sum, 2 * batch.len(), "the degrees sum to 2w");
        assert_eq!(scratch.ids.get(999), None);
        assert_eq!(scratch.degree_of(None), 0);
    }

    #[test]
    fn occurrence_lookup_matches_a_naive_running_count_scan() {
        let batch = hub_heavy_batch_with_repeats();
        let scratch = indexed_scratch(8, &batch);
        for (&x, list) in &naive_occurrences(&batch) {
            let id = scratch.ids.get(x).expect("every batch vertex has an id");
            assert_eq!(scratch.degree_of(Some(id)), list.len() as u64);
            for t in 1..=list.len() {
                // Scan until x's running count reaches t: EVENT_B (x, t).
                let mut count = 0;
                let expected = batch
                    .iter()
                    .position(|e| {
                        count += usize::from(e.u().raw() == x || e.v().raw() == x);
                        count == t
                    })
                    .expect("t is at most the batch degree");
                assert_eq!(
                    scratch.occurrence(id, t as u64),
                    expected,
                    "vertex {x}, t = {t}"
                );
            }
        }
    }

    /// The bitmap words that hold exactly `keys`' bits.
    fn bitmap_of<K: FastKey>(bitmap: &BatchBitmap, keys: impl IntoIterator<Item = K>) -> Vec<u64> {
        let mut words = vec![0u64; bitmap.words.len()];
        for key in keys {
            let i = bitmap.bit(key);
            words[i >> 6] |= 1 << (i & 63);
        }
        words
    }

    #[test]
    fn bitmaps_hold_exactly_the_batch_vertices_and_edges() {
        let batch = hub_heavy_batch_with_repeats();
        let scratch = indexed_scratch(8, &batch);
        let vertices = batch.iter().flat_map(|e| [e.u().raw(), e.v().raw()]);
        let edges = batch.iter().map(|e| (e.u().raw(), e.v().raw()));
        assert_eq!(
            scratch.vertex_bitmap.words,
            bitmap_of(&scratch.vertex_bitmap, vertices),
            "the vertex bitmap holds this batch's endpoints and nothing older"
        );
        assert_eq!(
            scratch.edge_bitmap.words,
            bitmap_of(&scratch.edge_bitmap, edges),
            "the edge bitmap holds this batch's edges and nothing older"
        );
        // 16 bits per edge, rounded up to a power of two of words.
        assert_eq!(batch.len(), 51);
        assert_eq!(scratch.edge_bitmap.words.len(), 16);
    }

    /// A pool whose estimators reach the hub batch in every way Step 2b
    /// and Step 3 distinguish, next to ones that do not. The earlier
    /// stream had `m` edges.
    fn pool_around_the_hub_batch(batch: &[Edge], m: u64) -> EstimatorPool {
        let mut pool = EstimatorPool::new(15);
        let old = |u: u64, v: u64| Edge::new(u, v);
        // Replaced in Step 1: the level-1 edge is a batch edge.
        pool.take_r1(0, batch[7], m + 8);
        pool.take_r1(4, batch[50], m + 51);
        // Older level-1 edges with one endpoint in the batch (either one),
        // none, or both endpoints only in the earlier, larger batch
        // (vertices 3–9 occur in K16 but not here).
        pool.take_r1(1, old(11, 500), 9);
        pool.take_r1(14, old(9, 26), 9);
        pool.take_r1(2, old(500, 501), 9);
        pool.take_r1(3, old(3, 4), 9);
        // Estimator 5 never took a level-1 edge.
        // Wedges whose closing pair occurs in the batch, in both
        // orientations and on both sides of the shared vertex.
        pool.take_r1(6, old(0, 500), 2);
        pool.take_r2(6, old(500, 10), 5);
        pool.take_r1(7, old(1, 2), 2);
        pool.take_r2(7, old(0, 2), 5);
        pool.take_r1(8, old(2, 12), 2);
        pool.take_r2(8, old(12, 13), 5);
        // Wedges whose closing pair does not occur in the batch.
        pool.take_r1(9, old(0, 500), 2);
        pool.take_r2(9, old(500, 501), 5);
        pool.take_r1(10, old(3, 4), 2);
        pool.take_r2(10, old(4, 5), 5);
        // A level-2 edge that repeats the level-1 edge: no wedge.
        pool.take_r1(11, old(0, 1), 2);
        pool.take_r2(11, old(0, 1), 5);
        // A wedge already closed: not waiting.
        pool.take_r1(12, old(0, 10), 2);
        pool.take_r2(12, old(10, 1), 5);
        pool.take_closer(12, old(0, 1), 7);
        // Same closing pair as estimator 7: the two must chain.
        pool.take_r1(13, old(0, 2), 3);
        pool.take_r2(13, old(2, 1), 6);
        pool
    }

    #[test]
    fn step2b_list_holds_every_estimator_with_an_endpoint_in_the_batch() {
        let batch = hub_heavy_batch_with_repeats();
        let mut scratch = indexed_scratch(15, &batch);
        let pool = pool_around_the_hub_batch(&batch, 1_000);
        let listed = scratch.list_reachable(&pool);
        let list = &scratch.reachable[..listed];
        assert!(
            list.windows(2).all(|pair| pair[0] < pair[1]),
            "the list keeps estimator order: {list:?}"
        );
        let in_batch = |x: u64| batch.iter().any(|e| e.contains(x.into()));
        for idx in 0..pool.len() {
            let reached =
                pool.r1_set.get(idx) && (in_batch(pool.r1_u[idx]) || in_batch(pool.r1_v[idx]));
            if reached {
                assert!(list.contains(&(idx as u32)), "estimator {idx} is missing");
            }
            if !pool.r1_set.get(idx) {
                assert!(!list.contains(&(idx as u32)), "estimator {idx} has no r1");
            }
        }
        for replaced in [0, 4] {
            assert!(list.contains(&replaced), "replaced estimator {replaced}");
        }
        // Under this seed no absent endpoint collides with a batch vertex,
        // so the list is exact: estimators 2, 3 and 10, whose endpoints
        // occur only in the earlier batch or nowhere, are left out.
        assert_eq!(list, [0, 1, 4, 6, 7, 8, 9, 11, 12, 13, 14]);
    }

    #[test]
    fn waiting_holds_every_wedge_whose_closing_pair_occurs_in_the_batch() {
        let batch = hub_heavy_batch_with_repeats();
        let mut scratch = indexed_scratch(15, &batch);
        let pool = pool_around_the_hub_batch(&batch, 1_000);
        let chained = scratch.index_waiting(&pool);
        let chain = |key: (u64, u64)| {
            let mut members = Vec::new();
            let mut cursor = scratch.waiting.get(key).unwrap_or(CHAIN_END);
            while cursor != CHAIN_END {
                members.push(cursor);
                cursor = scratch.wait_next[cursor as usize];
            }
            members
        };
        let in_batch = |key: (u64, u64)| batch.contains(&Edge::new(key.0, key.1));
        let mut expected = 0;
        for idx in 0..pool.len() {
            let Some(r2) = pool.state(idx).r2 else {
                continue;
            };
            let r1 = pool.state(idx).r1.expect("r2 implies r1").edge;
            let Some(shared) = r1.shared_vertex(&r2.edge) else {
                continue;
            };
            let (p, q) = (
                r1.other_endpoint(shared).expect("adjacent").raw(),
                r2.edge.other_endpoint(shared).expect("adjacent").raw(),
            );
            let key = (p.min(q), p.max(q));
            if pool.closer_set.get(idx) || !in_batch(key) {
                continue;
            }
            assert!(chain(key).contains(&(idx as u32)), "estimator {idx}");
            expected += 1;
        }
        assert_eq!(expected, 4, "estimators 6, 7, 8 and 13 wait on batch pairs");
        assert_eq!(chain((0, 1)), vec![13, 7], "a shared pair chains");
        // No stale bit from the earlier batch lets (3, 5) in.
        assert_eq!(chained, expected, "only pairs that occur in the batch");
    }

    #[test]
    fn bitmaps_keep_the_walks_well_under_r_on_a_skewed_stream() {
        // With r much larger than w, most estimators meet no batch: here
        // at most 1,717 of 4,096 are listed and 262 wait on a batch pair,
        // where a walk over the pool would visit 4,096 and index ~3,800.
        // Every bit-identity test passes with a bitmap that lets
        // everything through, so only a count shows one.
        let stream = tristream_gen::barabasi_albert_shuffled(3_000, 3, 7);
        let (r, w) = (4_096, 64);
        let mut counter = BulkTriangleCounter::new(r, 11);
        let (mut max_listed, mut max_waiting) = (0, 0);
        for (b, batch) in stream.edges().chunks(w).enumerate() {
            counter.process_batch(batch);
            // The first batches replace most level-1 edges.
            if b < 16 {
                continue;
            }
            // Step 1 and Step 2a left the pool's level-1 edges and the
            // bitmaps as Step 2b saw them, so the list comes out the same.
            max_listed = max_listed.max(counter.scratch.list_reachable(&counter.pool));
            let scratch = &counter.scratch;
            let waiting: usize = scratch
                .waiting
                .iter()
                .map(|(_, head)| {
                    let (mut len, mut cursor) = (0, head);
                    while cursor != CHAIN_END {
                        len += 1;
                        cursor = scratch.wait_next[cursor as usize];
                    }
                    len
                })
                .sum();
            max_waiting = max_waiting.max(waiting);
        }
        assert!(max_listed < r / 2, "Step-2b list held {max_listed} of {r}");
        assert!(max_waiting < r / 8, "waiting held {max_waiting} of {r}");
    }

    #[test]
    #[should_panic]
    fn zero_estimators_panics() {
        let _ = BulkTriangleCounter::new(0, 1);
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut c = BulkTriangleCounter::new(8, 1);
        c.process_batch(&[]);
        assert_eq!(c.edges_seen(), 0);
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn invariants_hold_for_various_batch_sizes() {
        let stream = tristream_gen::planted_triangles(25, 60, 5);
        for &batch_size in &[1usize, 2, 3, 7, 16, 64, 1024] {
            let mut counter = BulkTriangleCounter::new(64, 99);
            counter.process_stream(stream.edges(), batch_size);
            assert_eq!(counter.edges_seen(), stream.len() as u64);
            assert_invariants(&counter, &stream);
        }
    }

    #[test]
    fn invariants_hold_on_hub_heavy_graphs() {
        let stream = tristream_gen::barabasi_albert_shuffled(400, 3, 12);
        let mut counter = BulkTriangleCounter::new(128, 3);
        counter.process_stream(stream.edges(), 37);
        assert_invariants(&counter, &stream);
    }

    #[test]
    fn counts_k8_accurately() {
        let edges = k_n_edges(8);
        let truth = 56.0;
        let mut c = BulkTriangleCounter::new(4_000, 21);
        c.process_stream(&edges, 5);
        let est = c.estimate();
        assert!((est - truth).abs() < 0.15 * truth, "estimate {est}");
    }

    #[test]
    fn batch_size_does_not_change_the_distribution() {
        // The estimate averaged over seeds must be unbiased regardless of the
        // batch size, and roughly equal across batch sizes.
        let stream = tristream_gen::planted_triangles(30, 90, 8);
        let truth = 30.0;
        let mut means = Vec::new();
        for &batch_size in &[1usize, 8, 97, 4096] {
            let mut sum = 0.0;
            let runs = 40u64;
            for seed in 0..runs {
                let mut c = BulkTriangleCounter::new(256, seed);
                c.process_stream(stream.edges(), batch_size);
                sum += c.estimate();
            }
            means.push(sum / runs as f64);
        }
        for (i, m) in means.iter().enumerate() {
            assert!(
                (m - truth).abs() < 0.25 * truth,
                "batch-size case {i}: mean {m}, truth {truth}"
            );
        }
    }

    #[test]
    fn bulk_matches_one_at_a_time_statistically() {
        // Same number of estimators, same stream: the two implementations
        // must produce estimates with the same expectation.
        use crate::counter::TriangleCounter;
        let stream = tristream_gen::holme_kim(300, 3, 0.6, 9);
        let truth = count_triangles(&Adjacency::from_stream(&stream)) as f64;
        let runs = 30u64;
        let (mut bulk_sum, mut single_sum) = (0.0, 0.0);
        for seed in 0..runs {
            let mut bulk = BulkTriangleCounter::new(512, seed);
            bulk.process_stream(stream.edges(), 128);
            bulk_sum += bulk.estimate();
            let mut single = TriangleCounter::new(512, seed);
            single.process_edges(stream.edges());
            single_sum += single.estimate();
        }
        let bulk_mean = bulk_sum / runs as f64;
        let single_mean = single_sum / runs as f64;
        assert!(
            (bulk_mean - truth).abs() < 0.3 * truth,
            "bulk mean {bulk_mean}, truth {truth}"
        );
        assert!(
            (single_mean - truth).abs() < 0.3 * truth,
            "single mean {single_mean}, truth {truth}"
        );
    }

    #[test]
    fn triangle_free_stream_estimates_zero() {
        let stream = tristream_gen::complete_bipartite(20, 20);
        let mut c = BulkTriangleCounter::new(512, 4);
        c.process_stream(stream.edges(), 64);
        assert_eq!(c.estimate(), 0.0);
        assert_eq!(c.estimators_with_triangle(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let edges = k_n_edges(10);
        let mut a = BulkTriangleCounter::new(200, 5);
        let mut b = BulkTriangleCounter::new(200, 5);
        a.process_stream(&edges, 7);
        b.process_stream(&edges, 7);
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn pooled_counter_is_bit_identical_to_the_reference() {
        // The strongest equivalence level: same seed, same batch boundaries
        // ⇒ the SoA pipeline and the retained pre-pool implementation agree
        // estimator by estimator, state field by state field.
        // (tests/pool_equivalence.rs extends this to randomised streams and
        // batch splits via proptest.)
        let stream = tristream_gen::holme_kim(250, 3, 0.5, 31);
        for &batch_size in &[1usize, 7, 64, 977] {
            let mut pooled = BulkTriangleCounter::new(192, 17);
            let mut reference = ReferenceBulkCounter::new(192, 17);
            for chunk in stream.edges().chunks(batch_size) {
                pooled.process_batch(chunk);
                reference.process_batch(chunk);
                assert_eq!(
                    pooled.estimators(),
                    reference.estimators(),
                    "w = {batch_size}: states diverged mid-stream"
                );
            }
            assert_eq!(pooled.raw_estimates(), reference.raw_estimates());
            assert_eq!(
                pooled.estimate().to_bits(),
                reference.estimate().to_bits(),
                "w = {batch_size}"
            );
        }
    }

    #[test]
    fn geometric_skip_strategy_preserves_invariants_and_accuracy() {
        let stream = tristream_gen::planted_triangles(30, 80, 13);
        for &batch_size in &[3usize, 17, 256] {
            let mut counter = BulkTriangleCounter::new(96, 7);
            counter.process_stream(stream.edges(), batch_size);
            assert_invariants(&counter, &stream);
        }
        // Accuracy: average over seeds stays near the truth.
        let truth = 30.0;
        let runs = 40u64;
        let mut sum = 0.0;
        for seed in 0..runs {
            let mut counter = BulkTriangleCounter::new(256, seed);
            counter.process_stream(stream.edges(), 64);
            sum += counter.estimate();
        }
        let mean_est = sum / runs as f64;
        assert!(
            (mean_est - truth).abs() < 0.25 * truth,
            "geometric-skip mean {mean_est}, truth {truth}"
        );
    }

    #[test]
    fn memory_accounting_scales_with_the_pool() {
        // Ten u64 columns per estimator plus three presence bits, measured
        // exactly; the per-batch scratch is excluded by the convention.
        let small = BulkTriangleCounter::new(10, 1);
        let large = BulkTriangleCounter::new(1_000, 1);
        assert_eq!(small.estimator_memory_bytes(), 10 * 10 * 8 + 3 * 8);
        assert_eq!(
            large.estimator_memory_bytes(),
            10 * 1_000 * 8 + 3 * (1_000usize.div_ceil(64)) * 8
        );
        assert_eq!(BulkTriangleCounter::words_per_estimator(), 10);
        // Processing a large batch must not change the accounted memory:
        // scratch is working memory, not sketch state.
        use crate::traits::TriangleEstimator;
        let mut counter = BulkTriangleCounter::new(64, 2);
        let before = counter.memory_words();
        counter.process_batch(tristream_gen::planted_triangles(50, 200, 3).edges());
        assert_eq!(counter.memory_words(), before);
    }

    #[test]
    fn median_of_means_aggregation_is_available() {
        let edges = k_n_edges(9);
        let mut c = BulkTriangleCounter::new(2_000, 3);
        c.process_stream(&edges, 50);
        let truth = 84.0;
        let mom = tristream_sample::median_of_means(&c.raw_estimates(), 8);
        assert!((mom - truth).abs() < 0.3 * truth);
        assert!((c.estimate() - truth).abs() < 0.3 * truth);
    }
}
