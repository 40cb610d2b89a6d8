//! Struct-of-arrays storage for the bulk estimator pool, plus the batched
//! RNG the bulk pipeline draws from.
//!
//! # Why a struct of arrays
//!
//! The array-of-structs pool (`Vec<EstimatorState>`) interleaves every
//! estimator's `Option<PositionedEdge>` niches: each state is 104 bytes, so
//! Step 1 (level-1 resampling) and Step 3 (wedge scanning) of the bulk
//! algorithm touch barely one estimator per cache line and spend their time
//! testing `Option` discriminants. [`EstimatorPool`] stores the same state
//! as flat parallel arrays —
//!
//! ```text
//! r1_u ──┐
//! r1_v   ├─ level-1 edge (endpoints + arrival position)
//! r1_pos ┘
//! r2_u ──┐
//! r2_v   ├─ level-2 edge
//! r2_pos ┘
//! c      ── |N(r₁)| counter
//! closer_u ─┐
//! closer_v  ├─ wedge-closing edge
//! closer_pos┘
//! r1_set / r2_set / closer_set ── presence bitsets (1 bit per estimator)
//! ```
//!
//! — so each pipeline step streams through exactly the arrays it needs
//! (eight estimators' counters per cache line, 64 estimators' presence bits
//! per word), and "which estimators still await a closing edge" is a single
//! `r2_set & !closer_set` word scan instead of `r` branchy `Option` tests.
//!
//! The pool stores *state*, not behaviour: the bulk algorithm lives in
//! [`crate::bulk`], and [`EstimatorPool::state`] materialises any
//! estimator back into the scalar [`EstimatorState`] for tests, invariants
//! and the public inspection API.

use crate::estimator::{EstimatorState, PositionedEdge};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use tristream_graph::Edge;

/// A fixed-size set of bits, one per estimator, packed into `u64` words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    bits: usize,
}

impl BitSet {
    /// A set of `bits` zeroed bits.
    pub fn new(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
            bits,
        }
    }

    /// Number of bits the set covers.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether the set covers zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The backing words, for word-at-a-time scans. Bits past `len()` in
    /// the final word are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Resident bytes of the backing words.
    pub fn resident_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Rebuild a set from serialized backing words (snapshot restore).
    ///
    /// Returns `None` unless the word count is exactly right for `bits`
    /// and every bit past `bits` in the final word is zero — the same
    /// ghost-bit invariant [`validate`](EstimatorPool::validate) sweeps,
    /// enforced here so a corrupted snapshot cannot smuggle one in.
    pub(crate) fn from_words(words: Vec<u64>, bits: usize) -> Option<Self> {
        if words.len() != bits.div_ceil(64) {
            return None;
        }
        if !bits.is_multiple_of(64) {
            let ghost_mask = !0u64 << (bits % 64);
            if words.last().is_some_and(|&w| w & ghost_mask != 0) {
                return None;
            }
        }
        Some(Self { words, bits })
    }
}

/// The `r` estimators of a bulk counter stored as flat parallel arrays.
///
/// Every mutator keeps the same invariants the scalar
/// [`EstimatorState`] state machine maintains: taking a new level-1 edge
/// resets the level-2 state, taking a new level-2 edge resets the closing
/// edge, and the presence bitsets mirror the `Option` discriminants of the
/// scalar representation exactly (pinned by the equivalence tests in
/// `tests/pool_equivalence.rs`).
#[derive(Debug, Clone)]
pub struct EstimatorPool {
    len: usize,
    /// Level-1 edge `r₁`, split into endpoint and position columns.
    pub(crate) r1_u: Vec<u64>,
    pub(crate) r1_v: Vec<u64>,
    pub(crate) r1_pos: Vec<u64>,
    /// Level-2 edge `r₂`.
    pub(crate) r2_u: Vec<u64>,
    pub(crate) r2_v: Vec<u64>,
    pub(crate) r2_pos: Vec<u64>,
    /// `c = |N(r₁)|`.
    pub(crate) c: Vec<u64>,
    /// Wedge-closing edge.
    pub(crate) closer_u: Vec<u64>,
    pub(crate) closer_v: Vec<u64>,
    pub(crate) closer_pos: Vec<u64>,
    /// Presence bitsets mirroring the scalar `Option` discriminants.
    pub(crate) r1_set: BitSet,
    pub(crate) r2_set: BitSet,
    pub(crate) closer_set: BitSet,
}

/// `u64` columns per estimator (everything except the presence bitsets).
pub const POOL_COLUMNS: usize = 10;

impl EstimatorPool {
    /// A pool of `r` empty estimators.
    ///
    /// # Panics
    ///
    /// Panics if `r` is zero.
    pub fn new(r: usize) -> Self {
        assert!(r > 0, "at least one estimator is required");
        Self {
            len: r,
            r1_u: vec![0; r],
            r1_v: vec![0; r],
            r1_pos: vec![0; r],
            r2_u: vec![0; r],
            r2_v: vec![0; r],
            r2_pos: vec![0; r],
            c: vec![0; r],
            closer_u: vec![0; r],
            closer_v: vec![0; r],
            closer_pos: vec![0; r],
            r1_set: BitSet::new(r),
            r2_set: BitSet::new(r),
            closer_set: BitSet::new(r),
        }
    }

    /// Number of estimators `r`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool is empty (never true: construction requires `r > 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    // The per-edge mutators below run inside the batch hot loop; the region
    // lets `tristream-analyze` reject any allocating token added here.
    // analyze: region(no-alloc)

    /// Takes `edge` as estimator `i`'s new level-1 edge, resetting its
    /// level-2 state — the SoA form of the scalar reset-on-resample.
    #[inline]
    pub fn take_r1(&mut self, i: usize, edge: Edge, position: u64) {
        self.r1_u[i] = edge.u().raw();
        self.r1_v[i] = edge.v().raw();
        self.r1_pos[i] = position;
        self.c[i] = 0;
        self.r1_set.set(i);
        self.r2_set.clear(i);
        self.closer_set.clear(i);
    }

    /// Takes `edge` as estimator `i`'s new level-2 edge, invalidating any
    /// held closing edge.
    #[inline]
    pub fn take_r2(&mut self, i: usize, edge: Edge, position: u64) {
        self.r2_u[i] = edge.u().raw();
        self.r2_v[i] = edge.v().raw();
        self.r2_pos[i] = position;
        self.r2_set.set(i);
        self.closer_set.clear(i);
    }

    /// Records `edge` as the closing edge of estimator `i`'s wedge.
    #[inline]
    pub fn take_closer(&mut self, i: usize, edge: Edge, position: u64) {
        self.closer_u[i] = edge.u().raw();
        self.closer_v[i] = edge.v().raw();
        self.closer_pos[i] = position;
        self.closer_set.set(i);
    }
    // analyze: endregion

    /// Estimator `i`'s level-1 edge, reconstructed (endpoints are stored
    /// normalised, so the reconstruction is exact).
    #[inline]
    pub fn r1_edge(&self, i: usize) -> Option<Edge> {
        self.r1_set
            .get(i)
            .then(|| Edge::new(self.r1_u[i], self.r1_v[i]))
    }

    /// Estimator `i`'s level-2 edge.
    #[inline]
    pub fn r2_edge(&self, i: usize) -> Option<Edge> {
        self.r2_set
            .get(i)
            .then(|| Edge::new(self.r2_u[i], self.r2_v[i]))
    }

    /// Whether estimator `i` currently holds a complete triangle.
    #[inline]
    pub fn has_triangle(&self, i: usize) -> bool {
        self.closer_set.get(i)
    }

    /// Number of estimators currently holding a triangle — a word-parallel
    /// popcount over the closer bitset.
    pub fn triangles_held(&self) -> usize {
        self.closer_set.count_ones()
    }

    /// Lemma 3.2's per-estimator estimate `c·m` (0 without a triangle).
    #[inline]
    pub fn triangle_estimate(&self, i: usize, m: u64) -> f64 {
        if self.has_triangle(i) {
            self.c[i] as f64 * m as f64
        } else {
            0.0
        }
    }

    /// Materialises estimator `i` as the scalar [`EstimatorState`].
    pub fn state(&self, i: usize) -> EstimatorState {
        let positioned = |set: &BitSet, u: &[u64], v: &[u64], pos: &[u64]| {
            set.get(i)
                .then(|| PositionedEdge::new(Edge::new(u[i], v[i]), pos[i]))
        };
        EstimatorState {
            r1: positioned(&self.r1_set, &self.r1_u, &self.r1_v, &self.r1_pos),
            r2: positioned(&self.r2_set, &self.r2_u, &self.r2_v, &self.r2_pos),
            c: self.c[i],
            closer: positioned(
                &self.closer_set,
                &self.closer_u,
                &self.closer_v,
                &self.closer_pos,
            ),
        }
    }

    /// Materialises the whole pool as scalar states (tests, inspection).
    pub fn states(&self) -> Vec<EstimatorState> {
        (0..self.len).map(|i| self.state(i)).collect()
    }

    /// Resident bytes of the pool arrays: ten `u64` columns plus the three
    /// presence bitsets. This is the *sketch state* the word-accounting
    /// convention in `tristream_core::traits` counts; per-batch scratch is
    /// working memory of the batch, not of the sketch, and is accounted
    /// separately by its owner.
    pub fn resident_bytes(&self) -> usize {
        POOL_COLUMNS * self.len * std::mem::size_of::<u64>()
            + self.r1_set.resident_bytes()
            + self.r2_set.resident_bytes()
            + self.closer_set.resident_bytes()
    }

    /// Debug-build sweep over every structural invariant the mutators
    /// maintain, `debug_assert!`-ing each one: column geometry (ten `u64`
    /// columns and three bitsets, all `len` wide, no stray bits past `len`),
    /// the state-machine subset chain `closer_set ⊆ r2_set ⊆ r1_set`, and
    /// per-estimator edge/position sanity (normalised endpoints, positions
    /// strictly increasing along the r₁ → r₂ → closer chain, `c ≥ 1`
    /// whenever a level-2 edge is held).
    ///
    /// Returns `true` (in release builds the checks compile away entirely),
    /// so property suites can write `assert!(pool.validate())` and hot
    /// callers `debug_assert!(pool.validate())`.
    #[must_use]
    pub fn validate(&self) -> bool {
        let columns = [
            &self.r1_u,
            &self.r1_v,
            &self.r1_pos,
            &self.r2_u,
            &self.r2_v,
            &self.r2_pos,
            &self.c,
            &self.closer_u,
            &self.closer_v,
            &self.closer_pos,
        ];
        debug_assert_eq!(columns.len(), POOL_COLUMNS);
        for (k, col) in columns.iter().enumerate() {
            debug_assert_eq!(col.len(), self.len, "column {k} width mismatch");
        }
        for (name, set) in [
            ("r1_set", &self.r1_set),
            ("r2_set", &self.r2_set),
            ("closer_set", &self.closer_set),
        ] {
            debug_assert_eq!(set.len(), self.len, "{name} width mismatch");
            if !self.len.is_multiple_of(64) {
                debug_assert_eq!(
                    set.words()[self.len / 64] >> (self.len % 64),
                    0,
                    "{name} has bits set past len — word scans would see ghost estimators"
                );
            }
        }
        // Subset chain, a word at a time: a wedge needs a level-1 edge, a
        // closing edge needs a wedge.
        for i in 0..self.r1_set.words().len() {
            let (w1, w2, wc) = (
                self.r1_set.words()[i],
                self.r2_set.words()[i],
                self.closer_set.words()[i],
            );
            debug_assert_eq!(w2 & !w1, 0, "r2_set ⊄ r1_set in word {i}");
            debug_assert_eq!(wc & !w2, 0, "closer_set ⊄ r2_set in word {i}");
        }
        for i in 0..self.len {
            if self.r1_set.get(i) {
                debug_assert!(
                    self.r1_u[i] < self.r1_v[i],
                    "estimator {i}: r1 endpoints not normalised"
                );
                debug_assert!(self.r1_pos[i] >= 1, "estimator {i}: r1 position is 0");
            }
            if self.r2_set.get(i) {
                debug_assert!(
                    self.r2_u[i] < self.r2_v[i],
                    "estimator {i}: r2 endpoints not normalised"
                );
                debug_assert!(
                    self.r2_pos[i] > self.r1_pos[i],
                    "estimator {i}: r2 did not arrive after r1"
                );
                debug_assert!(
                    self.c[i] >= 1,
                    "estimator {i}: holds a level-2 edge but counted no neighborhood edges"
                );
            }
            if self.closer_set.get(i) {
                debug_assert!(
                    self.closer_u[i] < self.closer_v[i],
                    "estimator {i}: closer endpoints not normalised"
                );
                debug_assert!(
                    self.closer_pos[i] > self.r2_pos[i],
                    "estimator {i}: closer did not arrive after r2"
                );
            }
        }
        true
    }
}

impl EstimatorPool {
    /// Rebuild a pool from serialized state (snapshot restore): the ten
    /// `u64` columns in declaration order followed by the three presence
    /// bitsets' backing words.
    ///
    /// Returns `None` unless every column is exactly `len` long, every
    /// bitset reconstructs cleanly ([`BitSet::from_words`]), and the
    /// word-level subset chain `closer ⊆ r2 ⊆ r1` holds — the structural
    /// invariants a live pool maintains by construction, re-checked here
    /// because snapshot bytes arrive from outside the process.
    pub(crate) fn from_snapshot_parts(
        len: usize,
        columns: [Vec<u64>; POOL_COLUMNS],
        r1_words: Vec<u64>,
        r2_words: Vec<u64>,
        closer_words: Vec<u64>,
    ) -> Option<Self> {
        if len == 0 || columns.iter().any(|c| c.len() != len) {
            return None;
        }
        let r1_set = BitSet::from_words(r1_words, len)?;
        let r2_set = BitSet::from_words(r2_words, len)?;
        let closer_set = BitSet::from_words(closer_words, len)?;
        let chain_holds = r1_set
            .words()
            .iter()
            .zip(r2_set.words())
            .zip(closer_set.words())
            .all(|((&w1, &w2), &wc)| w2 & !w1 == 0 && wc & !w2 == 0);
        if !chain_holds {
            return None;
        }
        let [r1_u, r1_v, r1_pos, r2_u, r2_v, r2_pos, c, closer_u, closer_v, closer_pos] = columns;
        Some(Self {
            len,
            r1_u,
            r1_v,
            r1_pos,
            r2_u,
            r2_v,
            r2_pos,
            c,
            closer_u,
            closer_v,
            closer_pos,
            r1_set,
            r2_set,
            closer_set,
        })
    }

    /// The ten `u64` columns in the order
    /// [`from_snapshot_parts`](Self::from_snapshot_parts) expects them —
    /// the single place that pins the serialization column order.
    pub(crate) fn snapshot_columns(&self) -> [&[u64]; POOL_COLUMNS] {
        [
            &self.r1_u,
            &self.r1_v,
            &self.r1_pos,
            &self.r2_u,
            &self.r2_v,
            &self.r2_pos,
            &self.c,
            &self.closer_u,
            &self.closer_v,
            &self.closer_pos,
        ]
    }
}

/// How many `u64` values [`BufferedRng`] draws from its inner generator per
/// refill.
pub(crate) const RNG_BUFFER_LEN: usize = 256;

/// A [`SmallRng`] behind a refill buffer: raw `u64`s are drawn one buffer
/// at a time and consumed in order, so the *consumed* stream is
/// bit-identical to calling the inner generator directly (every `gen_range`
/// in this workspace consumes exactly one `next_u64`), while the hot loop's
/// per-draw cost drops to a bounds check and an index increment.
///
/// Unconsumed values persist across batches — nothing is discarded — which
/// is what keeps the bulk counter's estimates bit-identical to the
/// pre-pool reference implementation for the same seed.
#[derive(Debug, Clone)]
pub struct BufferedRng {
    inner: SmallRng,
    buf: Vec<u64>,
    pos: usize,
}

impl BufferedRng {
    /// Seeds the inner generator exactly as `SmallRng::seed_from_u64` does.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            inner: SmallRng::seed_from_u64(seed),
            buf: vec![0; RNG_BUFFER_LEN],
            pos: RNG_BUFFER_LEN,
        }
    }

    /// The full generator state for a snapshot: the inner xoshiro state,
    /// the refill buffer, and the consume cursor. Capturing the whole
    /// buffer (not just the unconsumed tail) keeps restore bit-trivial:
    /// the restored generator resumes mid-buffer exactly where the
    /// original stood.
    pub(crate) fn snapshot_state(&self) -> ([u64; 4], &[u64], usize) {
        (self.inner.state(), &self.buf, self.pos)
    }

    /// Rebuild a generator from [`snapshot_state`](Self::snapshot_state)
    /// parts. Returns `None` for shapes a live generator can never have:
    /// a buffer not exactly [`RNG_BUFFER_LEN`] long, a cursor past its
    /// end, or the all-zero xoshiro state.
    pub(crate) fn from_snapshot_state(state: [u64; 4], buf: Vec<u64>, pos: usize) -> Option<Self> {
        if buf.len() != RNG_BUFFER_LEN || pos > RNG_BUFFER_LEN {
            return None;
        }
        let inner = SmallRng::from_state(state)?;
        Some(Self { inner, buf, pos })
    }

    // analyze: region(no-alloc)
    #[cold]
    fn refill(&mut self) {
        for slot in &mut self.buf {
            *slot = self.inner.next_u64();
        }
        self.pos = 0;
    }
}

impl RngCore for BufferedRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == self.buf.len() {
            self.refill();
        }
        let value = self.buf[self.pos];
        self.pos += 1;
        value
    }
}
// analyze: endregion

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn bitset_set_clear_get_and_scan() {
        let mut set = BitSet::new(130);
        assert_eq!(set.len(), 130);
        assert!(!set.is_empty());
        for i in [0, 63, 64, 129] {
            assert!(!set.get(i));
            set.set(i);
            assert!(set.get(i));
        }
        assert_eq!(set.count_ones(), 4);
        assert_eq!(set.words().len(), 3);
        set.clear(64);
        assert!(!set.get(64));
        assert_eq!(set.count_ones(), 3);
        assert_eq!(set.resident_bytes(), 24);
    }

    #[test]
    #[should_panic]
    fn zero_estimators_panics() {
        let _ = EstimatorPool::new(0);
    }

    #[test]
    fn pool_transitions_mirror_the_scalar_state_machine() {
        let mut pool = EstimatorPool::new(4);
        assert_eq!(pool.len(), 4);
        assert!(!pool.is_empty());
        assert_eq!(pool.state(0), EstimatorState::default());

        let e1 = Edge::new(1u64, 2u64);
        let e2 = Edge::new(2u64, 3u64);
        let e3 = Edge::new(1u64, 3u64);

        pool.take_r1(0, e1, 1);
        pool.c[0] = 2;
        pool.take_r2(0, e2, 2);
        pool.take_closer(0, e3, 3);
        assert!(pool.has_triangle(0));
        assert_eq!(pool.triangles_held(), 1);
        assert_eq!(pool.triangle_estimate(0, 10), 20.0);
        assert_eq!(pool.r1_edge(0), Some(e1));
        assert_eq!(pool.r2_edge(0), Some(e2));

        let state = pool.state(0);
        assert_eq!(state.r1, Some(PositionedEdge::new(e1, 1)));
        assert_eq!(state.r2, Some(PositionedEdge::new(e2, 2)));
        assert_eq!(state.closer, Some(PositionedEdge::new(e3, 3)));
        assert_eq!(state.c, 2);

        // A new level-2 edge invalidates the closer…
        pool.take_r2(0, e3, 4);
        assert!(!pool.has_triangle(0));
        assert_eq!(pool.triangle_estimate(0, 10), 0.0);
        // …and a new level-1 edge resets everything downstream.
        pool.take_r1(0, e2, 5);
        let state = pool.state(0);
        assert_eq!(state.r2, None);
        assert_eq!(state.c, 0);
        assert_eq!(state.closer, None);

        // Untouched estimators stay empty.
        assert_eq!(pool.state(3), EstimatorState::default());
        assert_eq!(pool.states().len(), 4);
    }

    #[test]
    fn resident_bytes_counts_columns_and_bitsets() {
        let pool = EstimatorPool::new(64);
        assert_eq!(pool.resident_bytes(), 10 * 64 * 8 + 3 * 8);
        let pool = EstimatorPool::new(65);
        assert_eq!(pool.resident_bytes(), 10 * 65 * 8 + 3 * 16);
    }

    #[test]
    fn buffered_rng_matches_the_inner_generator_bit_for_bit() {
        let mut direct = SmallRng::seed_from_u64(42);
        let mut buffered = BufferedRng::seed_from_u64(42);
        // Mixed draw shapes, spanning several refills.
        for i in 0..2_000u64 {
            match i % 3 {
                0 => assert_eq!(direct.next_u64(), buffered.next_u64()),
                1 => assert_eq!(
                    direct.gen_range(0..i + 5),
                    buffered.gen_range(0..i + 5),
                    "draw {i}"
                ),
                _ => assert_eq!(
                    direct.gen_range(1..=i + 1),
                    buffered.gen_range(1..=i + 1),
                    "draw {i}"
                ),
            }
        }
        let a: f64 = direct.gen_range(f64::MIN_POSITIVE..1.0);
        let b: f64 = buffered.gen_range(f64::MIN_POSITIVE..1.0);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
