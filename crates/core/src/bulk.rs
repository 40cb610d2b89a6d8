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
//!    (Observation 3.6). A first pass of the degree-keeping edge iterator
//!    (`edgeIter`, Algorithm 2) records, for each estimator, the batch
//!    degrees of `r₁`'s endpoints at the moment `r₁` arrived (β values) and
//!    at the end of the batch; a single `randInt` per estimator then decides
//!    whether to keep the current `r₂` or subscribe to the EVENT_B that will
//!    produce the new one (Algorithm 3), and a second pass resolves those
//!    subscriptions to concrete edges.
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
//! * all per-batch scratch (the replaced-estimator list, β columns, the
//!   batch-degree table, EVENT_B subscriptions and the closing-edge index)
//!   lives in a reusable `BatchScratch` that is **cleared, not
//!   reallocated**, between batches — the steady state performs zero heap
//!   allocations per batch (pinned by `tests/alloc_steady_state.rs`);
//! * the degree/subscription/closing tables are [`FastMap`]s — deterministic
//!   open addressing with a multiply-shift hash seeded from the counter's
//!   construction seed, so runs stay reproducible. The subscription and
//!   closing tables key on packed `(u64, u64)` pairs; the degree table
//!   keys on the bare vertex id and counts in a `u32`, so its slots are
//!   16 bytes; multi-subscriber events chain through
//!   per-estimator `next` columns instead of per-key `Vec`s;
//! * RNG draws go through the [`BufferedRng`] — one buffer refill per
//!   couple hundred draws, consumed strictly in order.
//!
//! Because every logical draw consumes exactly one `u64` of the generator
//! stream in the same order as before, the counter is **bit-identical** to
//! the retained pre-pool implementation
//! ([`crate::reference::ReferenceBulkCounter`]) for any seed and any batch
//! boundaries — a stronger property than the distributional identity the
//! theorem needs, and the one `tests/pool_equivalence.rs` pins.

use crate::counter::Aggregation;
use crate::estimator::EstimatorState;
use crate::fastmap::FastMap;
use crate::lanes::{lemire4, LANES};

use crate::pool::{BufferedRng, EstimatorPool, POOL_COLUMNS, RNG_BUFFER_LEN};
use rand::Rng;
use tristream_graph::snapshot::{put_u64s, SnapshotError, SnapshotReader, SnapshotWriter};
use tristream_graph::Edge;
use tristream_sample::{mean, median_of_means, salted_seed, splitmix64, GeometricSkip};

/// Level-1 tag written into every snapshot's meta section: the geometric
/// skip walk of Step 1. Snapshots written before the per-estimator walk was
/// removed may carry tag 0; restore accepts both, because the tag never
/// described saved state, only how later batches draw.
const LEVEL1_TAG_GEOMETRIC_SKIP: u8 = 1;

/// Chain terminator for the per-estimator `next` columns in
/// [`BatchScratch`].
const CHAIN_END: u32 = u32::MAX;

/// Reusable per-batch working state. Everything here is sized once (to
/// `O(r)` at construction, to `O(w)` on the first batch of a given size)
/// and then cleared between batches — `process_batch` never allocates in
/// the steady state.
#[derive(Debug, Clone)]
struct BatchScratch {
    /// `(estimator, batch index)` pairs replaced in Step 1, in estimator
    /// order; sorted by batch index for the Step-2a merge.
    replaced: Vec<(u32, u32)>,
    /// β values per estimator, in the `(u, v)` order of the level-1 edge.
    /// All-zero between batches (entries touched this batch are re-zeroed
    /// at the end, so the reset is `O(|replaced|)`, not `O(r)`).
    beta_u: Vec<u64>,
    beta_v: Vec<u64>,
    /// Per-edge endpoint occurrence numbers, recorded during the Step-2a
    /// scan: entry `i` holds the batch degrees of `batch[i]`'s endpoints
    /// *at* that edge (the degree after counting it). Step 2c resolves
    /// EVENT_B subscriptions straight off these columns instead of
    /// replaying the batch through a second degree-table pass.
    edge_du: Vec<u64>,
    edge_dv: Vec<u64>,
    /// Batch-degree table: vertex id → degree within the batch, in 16-byte
    /// slots (8-byte key, 4-byte generation, 4-byte count). A degree within
    /// a batch is at most `w`, and batch indices are already `u32`, so the
    /// count fits. `prepare` reserves `2w` endpoints, i.e. `4w` slots:
    /// `64w` bytes per shard.
    deg: FastMap<u32, u64>,
    /// EVENT_B subscriptions: `(vertex, target degree)` → chain head, with
    /// the chain threaded through `sub_next`.
    subs: FastMap<u32>,
    sub_next: Vec<u32>,
    /// Closing-edge index: packed `(u, v)` → chain head, threaded through
    /// `wait_next`.
    waiting: FastMap<u32>,
    wait_next: Vec<u32>,
}

impl BatchScratch {
    /// Scratch for a pool of `r` estimators, with the hash seeds derived
    /// from `hash_seed` (itself derived from the counter's seed — see
    /// [`BulkTriangleCounter::with_aggregation`]).
    fn new(r: usize, hash_seed: u64) -> Self {
        let mut subs = FastMap::with_seed(hash_seed ^ 0x5B5B);
        let mut waiting = FastMap::with_seed(hash_seed ^ 0xC7C7);
        // Both tables hold at most one entry per estimator; reserving the
        // bound up front means no growth can happen mid-batch.
        subs.reserve(r);
        waiting.reserve(r);
        Self {
            replaced: Vec::with_capacity(r),
            beta_u: vec![0; r],
            beta_v: vec![0; r],
            edge_du: Vec::new(),
            edge_dv: Vec::new(),
            deg: FastMap::with_seed(hash_seed),
            subs,
            sub_next: vec![0; r],
            waiting,
            wait_next: vec![0; r],
        }
    }

    /// Readies the scratch for a batch of `w` edges: clears the maps
    /// (`O(1)` generation bumps) and makes sure the degree table can absorb
    /// `2w` endpoints without growing mid-batch.
    fn prepare(&mut self, w: usize) {
        self.replaced.clear();
        self.deg.clear();
        self.deg.reserve(2 * w);
        self.edge_du.resize(w, 0);
        self.edge_dv.resize(w, 0);
        self.subs.clear();
        self.waiting.clear();
    }
}

// The helpers below are the per-item bodies of the batch steps. Full lane
// groups call them with probe starts hashed one group ahead; the tails
// past the last full group call the plain variants. They run inside the
// batch hot loop.
// analyze: region(no-alloc)

/// Increments the batch degree of `vertex`, returning the new value.
#[inline]
fn bump_degree(deg: &mut FastMap<u32, u64>, vertex: u64) -> u64 {
    let d = deg.get_mut_or_insert(vertex, 0);
    *d += 1;
    u64::from(*d)
}

/// [`bump_degree`] probing from a precomputed start index.
#[inline]
fn bump_degree_from(deg: &mut FastMap<u32, u64>, start: usize, vertex: u64) -> u64 {
    let d = deg.get_mut_or_insert_from(start, vertex, 0);
    *d += 1;
    u64::from(*d)
}

/// The Step-2a merge body: stores edge `i`'s endpoint occurrence numbers
/// (the degree columns Step 2c resolves events against), then lets
/// estimators whose new level-1 edge is `batch[i]` record the endpoint
/// degrees at that moment (the β values).
#[inline]
fn record_betas(
    scratch: &mut BatchScratch,
    pool: &EstimatorPool,
    i: usize,
    e: &Edge,
    du: u64,
    dv: u64,
    next_replaced: &mut usize,
) {
    scratch.edge_du[i] = du;
    scratch.edge_dv[i] = dv;
    while *next_replaced < scratch.replaced.len()
        && scratch.replaced[*next_replaced].1 as usize == i
    {
        let est = scratch.replaced[*next_replaced].0 as usize;
        debug_assert_eq!(pool.r1_edge(est), Some(*e));
        scratch.beta_u[est] = du;
        scratch.beta_v[est] = dv;
        *next_replaced += 1;
    }
}

/// The Step-2b per-estimator body: one `randInt` decides whether estimator
/// `idx` keeps its level-2 edge or subscribes to the EVENT_B that produces
/// the new one. Returns whether a subscription was added. Called in
/// estimator-index order, so the RNG consumption order is that of
/// [`crate::reference::ReferenceBulkCounter`].
#[inline]
fn step2b_estimator(
    pool: &mut EstimatorPool,
    scratch: &mut BatchScratch,
    rng: &mut BufferedRng,
    idx: usize,
    deg_x: u64,
    deg_y: u64,
) -> bool {
    let x = pool.r1_u[idx];
    let y = pool.r1_v[idx];
    let beta_x = scratch.beta_u[idx];
    let beta_y = scratch.beta_v[idx];
    let a = deg_x - beta_x;
    let b = deg_y - beta_y;
    let c_minus = pool.c[idx];
    let c_plus = a + b;
    if c_plus == 0 {
        return false; // nothing new adjacent to r1 in this batch
    }
    let total = c_minus + c_plus;
    let phi = rng.gen_range(1..=total);
    pool.c[idx] = total;
    if phi <= c_minus {
        // Keep the existing level-2 edge (and any closed triangle).
        return false;
    }
    // A new level-2 edge will come from this batch; the triangle (if any)
    // is no longer valid.
    pool.drop_r2(idx);
    let (vertex, target_degree) = if phi <= c_minus + a {
        (x, beta_x + (phi - c_minus))
    } else {
        (y, beta_y + (phi - c_minus - a))
    };
    let head = scratch
        .subs
        .insert((vertex, target_degree), idx as u32)
        .unwrap_or(CHAIN_END);
    scratch.sub_next[idx] = head;
    true
}

/// The Step-2c per-edge body: resolve any EVENT_B subscriptions that fire
/// at edge `i`'s endpoint occurrence numbers (recorded by the Step-2a
/// scan — no second degree-table pass). `starts` carries the precomputed
/// `(u, du)`/`(v, dv)` probe starts inside a full lane group, `None` in the
/// tail.
#[inline]
fn step2c_edge(
    pool: &mut EstimatorPool,
    scratch: &mut BatchScratch,
    e: &Edge,
    position: u64,
    i: usize,
    starts: Option<(usize, usize)>,
    pending_subs: &mut usize,
) {
    let keys = [
        (e.u().raw(), scratch.edge_du[i]),
        (e.v().raw(), scratch.edge_dv[i]),
    ];
    for (slot, key) in keys.into_iter().enumerate() {
        let head = match starts {
            Some(s) => scratch
                .subs
                .get_from(if slot == 0 { s.0 } else { s.1 }, key),
            None => scratch.subs.get(key),
        };
        if let Some(head) = head {
            let mut cursor = head;
            while cursor != CHAIN_END {
                let est = cursor as usize;
                pool.take_r2(est, *e, position);
                cursor = scratch.sub_next[est];
                *pending_subs -= 1;
            }
        }
    }
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

/// Probe starts for the endpoint degree keys of the edge lane group
/// starting at `base`, prefetched so the upserts one group later hit warm
/// cache lines. Requires `base + LANES <= batch.len()`.
#[inline]
fn hash_edge_group(
    deg: &FastMap<u32, u64>,
    batch: &[Edge],
    base: usize,
) -> ([usize; LANES], [usize; LANES]) {
    let mut us = [0u64; LANES];
    let mut vs = [0u64; LANES];
    for (lane, e) in batch[base..base + LANES].iter().enumerate() {
        us[lane] = e.u().raw();
        vs[lane] = e.v().raw();
    }
    let su = deg.probe_start4(us);
    let sv = deg.probe_start4(vs);
    for lane in 0..LANES {
        deg.prefetch_slot(su[lane]);
        deg.prefetch_slot(sv[lane]);
    }
    (su, sv)
}

/// Probe starts for the level-1 endpoint degree lookups of the estimator
/// lane group starting at `base` (Step 2b). Estimators without a level-1
/// edge hash whatever stale column values they hold — harmless, since the
/// lookup is skipped for them.
#[inline]
fn hash_r1_group(
    deg: &FastMap<u32, u64>,
    pool: &EstimatorPool,
    base: usize,
) -> ([usize; LANES], [usize; LANES]) {
    let mut xs = [0u64; LANES];
    let mut ys = [0u64; LANES];
    xs.copy_from_slice(&pool.r1_u[base..base + LANES]);
    ys.copy_from_slice(&pool.r1_v[base..base + LANES]);
    let sx = deg.probe_start4(xs);
    let sy = deg.probe_start4(ys);
    for lane in 0..LANES {
        deg.prefetch_slot(sx[lane]);
        deg.prefetch_slot(sy[lane]);
    }
    (sx, sy)
}

/// Probe starts for the EVENT_B subscription lookups of the edge lane
/// group starting at `base` (Step 2c): the `(endpoint, occurrence)` keys
/// come straight off the `edge_du`/`edge_dv` columns the Step-2a scan
/// recorded.
#[inline]
fn hash_sub_group(
    scratch: &BatchScratch,
    batch: &[Edge],
    base: usize,
) -> ([usize; LANES], [usize; LANES]) {
    let mut us = [(0u64, 0u64); LANES];
    let mut vs = [(0u64, 0u64); LANES];
    for (lane, e) in batch[base..base + LANES].iter().enumerate() {
        us[lane] = (e.u().raw(), scratch.edge_du[base + lane]);
        vs[lane] = (e.v().raw(), scratch.edge_dv[base + lane]);
    }
    let su = scratch.subs.probe_start4(us);
    let sv = scratch.subs.probe_start4(vs);
    (su, sv)
}

/// Probe starts for the closing-edge lookups of the edge lane group
/// starting at `base` (Step 3). Edge endpoints are stored normalised
/// (`u < v`), matching the `(min, max)` keys the wedge scan inserts.
#[inline]
fn hash_pair_group(waiting: &FastMap<u32>, batch: &[Edge], base: usize) -> [usize; LANES] {
    let mut pairs = [(0u64, 0u64); LANES];
    for (lane, e) in batch[base..base + LANES].iter().enumerate() {
        pairs[lane] = (e.u().raw(), e.v().raw());
    }
    waiting.probe_start4(pairs)
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
    aggregation: Aggregation,
}

impl BulkTriangleCounter {
    /// Creates a bulk counter with `r` estimators and plain-mean aggregation.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn new(r: usize, seed: u64) -> Self {
        Self::with_aggregation(r, seed, Aggregation::Mean)
    }

    /// Creates a bulk counter with an explicit aggregation strategy.
    ///
    /// The scratch hash tables are seeded with a SplitMix64 derivation of
    /// `seed` (not with draws from the estimator RNG stream, which must
    /// stay bit-compatible with the reference implementation), so the whole
    /// run — estimates *and* table layouts — is a pure function of `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero, or if a median-of-means aggregation requests
    /// zero groups.
    pub fn with_aggregation(r: usize, seed: u64, aggregation: Aggregation) -> Self {
        assert!(r > 0, "at least one estimator is required");
        if let Aggregation::MedianOfMeans { groups } = aggregation {
            assert!(groups > 0, "median-of-means needs at least one group");
        }
        let hash_seed = Self::hash_seed(seed);
        Self {
            pool: EstimatorPool::new(r),
            scratch: BatchScratch::new(r, hash_seed),
            edges_seen: 0,
            rng: BufferedRng::seed_from_u64(seed),
            seed,
            aggregation,
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
    /// [`estimator_memory_bytes`](Self::estimator_memory_bytes). The lane
    /// groups of [`process_batch`](Self::process_batch) read and write these
    /// same columns in u64×4 groups — no shadow state, no padding, no extra
    /// columns — so equal-memory head-to-head budgets stay honest.
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
    /// The steps run in u64×4 lane groups ([`crate::lanes`]), with per-item
    /// remainder loops for the tail past the last full group. RNG draws come
    /// in [`LANES`]-wide groups in the *same order* a per-item loop consumes
    /// them, and every [`FastMap`] access in the edge scans probes from a
    /// start index hashed one lane group ahead and prefetched — a memory
    /// schedule only, so the results stay bit-identical to
    /// [`crate::reference::ReferenceBulkCounter`].
    ///
    /// Allocation-free in the steady state: all working memory comes from
    /// the reused `BatchScratch` (the region below lets `tristream-analyze`
    /// reject allocating tokens at review time;
    /// `tests/alloc_steady_state.rs` pins the runtime behaviour).
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
        // order of the reference implementation. The gap walk is inherently
        // sequential (each gap feeds the next cursor), but the per-success
        // draws are independent and run in lane groups.
        let p = w as f64 / (m + w as u64) as f64;
        let mut skip = GeometricSkip::new(p);
        while let Some(pos) = skip.next_success(&mut self.rng) {
            if pos > r as u64 {
                break;
            }
            scratch.replaced.push(((pos - 1) as u32, 0));
        }
        let n = scratch.replaced.len();
        let mut i = 0usize;
        while i + LANES <= n {
            let ks = lemire4(self.rng.next_lane(), w as u64);
            for (lane, k) in ks.into_iter().enumerate() {
                let entry = &mut scratch.replaced[i + lane];
                let k = k as usize;
                entry.1 = k as u32;
                pool.take_r1(entry.0 as usize, batch[k], m + k as u64 + 1);
            }
            i += LANES;
        }
        for entry in &mut scratch.replaced[i..] {
            let k = self.rng.gen_range(0..w);
            entry.1 = k as u32;
            pool.take_r1(entry.0 as usize, batch[k], m + k as u64 + 1);
        }

        // ---- Step 2a: first edgeIter pass — record β values and degB. -----
        // The replaced list, sorted by batch index, is merged against the
        // batch scan: when the scan reaches index k, every estimator whose
        // new level-1 edge is batch[k] records the endpoint degrees at that
        // moment (the β values). The β columns are all-zero between
        // batches, matching the reference's fresh `vec![(0, 0); r]`.
        scratch.replaced.sort_unstable_by_key(|&(_, k)| k);
        let mut next_replaced = 0usize;
        let full = w - w % LANES;
        let mut base = 0usize;
        let mut starts = if full > 0 {
            hash_edge_group(&scratch.deg, batch, 0)
        } else {
            ([0; LANES], [0; LANES])
        };
        while base < full {
            let next = if base + LANES < full {
                Some(hash_edge_group(&scratch.deg, batch, base + LANES))
            } else {
                None
            };
            for lane in 0..LANES {
                let i = base + lane;
                let e = &batch[i];
                let du = bump_degree_from(&mut scratch.deg, starts.0[lane], e.u().raw());
                let dv = bump_degree_from(&mut scratch.deg, starts.1[lane], e.v().raw());
                record_betas(scratch, pool, i, e, du, dv, &mut next_replaced);
            }
            if let Some(n) = next {
                starts = n;
            }
            base += LANES;
        }
        for (i, e) in batch.iter().enumerate().skip(full) {
            let du = bump_degree(&mut scratch.deg, e.u().raw());
            let dv = bump_degree(&mut scratch.deg, e.v().raw());
            record_betas(scratch, pool, i, e, du, dv, &mut next_replaced);
        }

        // ---- Step 2b: one randInt per estimator; subscribe to EVENT_B. ----
        let mut pending_subs = 0usize;
        let full_r = r - r % LANES;
        let mut base = 0usize;
        let mut starts = if full_r > 0 {
            hash_r1_group(&scratch.deg, pool, 0)
        } else {
            ([0; LANES], [0; LANES])
        };
        while base < full_r {
            let next = if base + LANES < full_r {
                Some(hash_r1_group(&scratch.deg, pool, base + LANES))
            } else {
                None
            };
            for lane in 0..LANES {
                let idx = base + lane;
                if !pool.r1_set.get(idx) {
                    continue;
                }
                let deg_x = scratch
                    .deg
                    .get_from(starts.0[lane], pool.r1_u[idx])
                    .map_or(0, u64::from);
                let deg_y = scratch
                    .deg
                    .get_from(starts.1[lane], pool.r1_v[idx])
                    .map_or(0, u64::from);
                if step2b_estimator(pool, scratch, &mut self.rng, idx, deg_x, deg_y) {
                    pending_subs += 1;
                }
            }
            if let Some(n) = next {
                starts = n;
            }
            base += LANES;
        }
        for idx in full_r..r {
            if !pool.r1_set.get(idx) {
                continue;
            }
            let deg_x = scratch.deg.get(pool.r1_u[idx]).map_or(0, u64::from);
            let deg_y = scratch.deg.get(pool.r1_v[idx]).map_or(0, u64::from);
            if step2b_estimator(pool, scratch, &mut self.rng, idx, deg_x, deg_y) {
                pending_subs += 1;
            }
        }
        // Restore the all-zero β invariant for the next batch.
        for &(est, _) in &scratch.replaced {
            scratch.beta_u[est as usize] = 0;
            scratch.beta_v[est as usize] = 0;
        }

        // ---- Step 2c: resolve events against the recorded occurrences. ----
        // The Step-2a scan already recorded every edge's endpoint
        // occurrence numbers in `edge_du`/`edge_dv`, so resolving is a
        // probe of the (small) subscription table per endpoint — no second
        // degree-table pass. Each (vertex, degree) event fires exactly once
        // per batch, so the table never needs deletions; a countdown of
        // pending subscriptions ends the scan early instead.
        if pending_subs > 0 {
            let mut base = 0usize;
            let mut starts = if full > 0 {
                hash_sub_group(scratch, batch, 0)
            } else {
                ([0; LANES], [0; LANES])
            };
            'groups: while base < full {
                let next = if base + LANES < full {
                    Some(hash_sub_group(scratch, batch, base + LANES))
                } else {
                    None
                };
                for lane in 0..LANES {
                    let i = base + lane;
                    let position = m + i as u64 + 1;
                    let lane_starts = (starts.0[lane], starts.1[lane]);
                    step2c_edge(
                        pool,
                        scratch,
                        &batch[i],
                        position,
                        i,
                        Some(lane_starts),
                        &mut pending_subs,
                    );
                    if pending_subs == 0 {
                        break 'groups;
                    }
                }
                if let Some(n) = next {
                    starts = n;
                }
                base += LANES;
            }
            if pending_subs > 0 {
                for (i, e) in batch.iter().enumerate().skip(full) {
                    let position = m + i as u64 + 1;
                    step2c_edge(pool, scratch, e, position, i, None, &mut pending_subs);
                    if pending_subs == 0 {
                        break;
                    }
                }
            }
            debug_assert_eq!(
                pending_subs, 0,
                "every EVENT_B subscription must resolve within the batch"
            );
        }

        // ---- Step 3: find wedge-closing edges within the batch. -----------
        // Candidates are exactly the estimators with a wedge but no closer:
        // one `r2_set & !closer_set` word per 64 estimators, skipping empty
        // words outright.
        let mut waiting_count = 0usize;
        for word_idx in 0..pool.r2_set.words().len() {
            let mut bits = pool.r2_set.words()[word_idx] & !pool.closer_set.words()[word_idx];
            while bits != 0 {
                let idx = word_idx * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let r1 = Edge::new(pool.r1_u[idx], pool.r1_v[idx]);
                let r2 = Edge::new(pool.r2_u[idx], pool.r2_v[idx]);
                if let Some(shared) = r1.shared_vertex(&r2) {
                    // Both lookups are infallible — `Edge::new` rejects
                    // self-loops, so `shared` always has a distinct partner —
                    // but the hot path must not carry a panic edge.
                    let (Some(p), Some(q)) = (r1.other_endpoint(shared), r2.other_endpoint(shared))
                    else {
                        debug_assert!(false, "edges always have two distinct endpoints");
                        continue;
                    };
                    if p != q {
                        let key = (p.raw().min(q.raw()), p.raw().max(q.raw()));
                        let head = scratch.waiting.insert(key, idx as u32).unwrap_or(CHAIN_END);
                        scratch.wait_next[idx] = head;
                        waiting_count += 1;
                    }
                }
            }
        }
        if waiting_count > 0 {
            let mut base = 0usize;
            let mut starts = if full > 0 {
                hash_pair_group(&scratch.waiting, batch, 0)
            } else {
                [0; LANES]
            };
            while base < full {
                let next = if base + LANES < full {
                    Some(hash_pair_group(&scratch.waiting, batch, base + LANES))
                } else {
                    None
                };
                for (lane, &start) in starts.iter().enumerate() {
                    let i = base + lane;
                    let e = &batch[i];
                    let position = m + i as u64 + 1;
                    if let Some(head) = scratch.waiting.get_from(start, (e.u().raw(), e.v().raw()))
                    {
                        close_wedges(pool, scratch, e, position, head);
                    }
                }
                if let Some(n) = next {
                    starts = n;
                }
                base += LANES;
            }
            for (i, e) in batch.iter().enumerate().skip(full) {
                let position = m + i as u64 + 1;
                if let Some(head) = scratch.waiting.get((e.u().raw(), e.v().raw())) {
                    close_wedges(pool, scratch, e, position, head);
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

    /// The aggregated triangle-count estimate.
    pub fn estimate(&self) -> f64 {
        self.estimate_with(self.aggregation)
    }

    /// Number of estimators currently holding a triangle.
    pub fn estimators_with_triangle(&self) -> usize {
        self.pool.triangles_held()
    }

    /// The aggregated estimate under an explicit aggregation (ablations).
    pub fn estimate_with(&self, aggregation: Aggregation) -> f64 {
        let raw = self.raw_estimates();
        match aggregation {
            Aggregation::Mean => mean(&raw),
            Aggregation::MedianOfMeans { groups } => median_of_means(&raw, groups),
        }
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
        match self.aggregation {
            Aggregation::Mean => {
                meta.push(0);
                put_u64s(&mut meta, &[0]);
            }
            Aggregation::MedianOfMeans { groups } => {
                meta.push(1);
                put_u64s(&mut meta, &[groups as u64]);
            }
        }
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
        let groups = meta.u64("aggregation group count")?;
        let strategy_tag = meta.u8("level-1 strategy tag")?;
        meta.finish()?;

        let r = usize::try_from(r64)
            .ok()
            .filter(|&r| r > 0)
            .ok_or_else(|| incompatible(format!("estimator count {r64} is not usable")))?;
        let aggregation = match agg_tag {
            0 => Aggregation::Mean,
            1 => {
                let groups = usize::try_from(groups)
                    .ok()
                    .filter(|&g| g > 0)
                    .ok_or_else(|| {
                        incompatible(format!(
                            "median-of-means group count {groups} is not usable"
                        ))
                    })?;
                Aggregation::MedianOfMeans { groups }
            }
            other => return Err(incompatible(format!("unknown aggregation tag {other}"))),
        };
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
            aggregation,
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
    use std::collections::HashMap as StdHashMap;
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
        let mut c = BulkTriangleCounter::with_aggregation(
            2_000,
            3,
            Aggregation::MedianOfMeans { groups: 8 },
        );
        c.process_stream(&edges, 50);
        let truth = 84.0;
        assert!((c.estimate() - truth).abs() < 0.3 * truth);
        assert!((c.estimate_with(Aggregation::Mean) - truth).abs() < 0.3 * truth);
    }
}
