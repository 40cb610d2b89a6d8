//! A deterministic open-addressing hash map for estimator hot paths.
//!
//! The std `HashMap` defaults to SipHash-1-3 — a keyed, DoS-resistant hash
//! that costs tens of cycles per lookup and allocates a fresh table every
//! time a per-batch map is rebuilt. The bulk algorithm's inner loop
//! (Theorem 3.5) performs `O(r + w)` hash operations *per batch* on keys
//! that are just one or two vertex ids, so the hasher and the allocation
//! policy dominate the hot path long before the asymptotics do.
//!
//! [`FastMap`] replaces it where profiles say it matters:
//!
//! * **Keys are a packed `(u64, u64)` pair** — two endpoints, a
//!   `(vertex, degree)` event, or a single vertex padded with zero.
//! * **Multiply-shift hashing** (two odd-constant multiplies and an
//!   xor-fold) — a handful of cycles, seeded so table layout is a pure
//!   function of the owner's construction seed. Seeding is *for
//!   reproducibility and layout decorrelation*, not DoS resistance; these
//!   maps only ever hold trusted intermediate state.
//! * **Open addressing with linear probing** at ≤ 50 % load — one cache
//!   line per probe in the common case, no per-entry boxes.
//! * **Generation-stamped slots** — [`FastMap::clear`] is `O(1)` (a
//!   generation bump), so per-batch scratch maps are *cleared, not
//!   reallocated*, which is what makes the bulk pipeline allocation-free
//!   in the steady state.
//!
//! Everything is deterministic: the same seed and the same operation
//! sequence produce the same layout and the same iteration order on every
//! platform. Values are `Copy` (the hot paths store counters, chain heads
//! and small flag structs).

use crate::lanes::LANES;

/// Seed used by [`FastMap::default`] (and `Default`-constructed owners that
/// have no seed of their own to derive from).
pub const DEFAULT_FASTMAP_SEED: u64 = 0x5EED_FA57_0000_0001;

/// One slot of the table. `gen == FastMap::live_gen` marks the slot live;
/// any other value means empty (either never used or cleared).
#[derive(Debug, Clone, Copy)]
struct Slot<V> {
    k0: u64,
    k1: u64,
    gen: u32,
    val: V,
}

/// A deterministic open-addressing map from packed `(u64, u64)` keys to
/// `Copy` values. See the [module docs](self) for the design rationale.
#[derive(Debug, Clone)]
pub struct FastMap<V> {
    slots: Vec<Slot<V>>,
    /// `slots.len() - 1`; the table length is always a power of two.
    mask: usize,
    /// Generation stamp marking live slots.
    live_gen: u32,
    len: usize,
    /// Mixed into the hash; derived once from the owner's seed.
    seed: u64,
    /// One bit per slot: set when some live key's probe *start* (its hash)
    /// is that index. A clear bit proves the probed key absent without
    /// touching the slot array — for the miss-heavy per-batch scans this
    /// turns a random ~32-byte slot load into an L1-resident bitmap test.
    /// Rebuilt on growth, zeroed by [`FastMap::clear`].
    start_bits: Vec<u64>,
}

impl<V: Copy + Default> Default for FastMap<V> {
    fn default() -> Self {
        Self::with_seed(DEFAULT_FASTMAP_SEED)
    }
}

impl<V: Copy + Default> FastMap<V> {
    /// An empty map whose layout is a pure function of `seed`. No memory is
    /// allocated until the first insertion.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            slots: Vec::new(),
            mask: 0,
            live_gen: 1,
            len: 0,
            seed: mix64(seed ^ 0xA076_1D64_78BD_642F),
            start_bits: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry by bumping the generation stamp (no slot is
    /// touched; only the probe-start filter — one bit per slot — is
    /// zeroed, so clearing costs `capacity / 512` bytes of sequential
    /// writes). The backing storage is retained, which is the whole point:
    /// per-batch maps are cleared, never reallocated.
    pub fn clear(&mut self) {
        self.len = 0;
        for word in &mut self.start_bits {
            *word = 0;
        }
        if self.live_gen == u32::MAX {
            for slot in &mut self.slots {
                slot.gen = 0;
            }
            self.live_gen = 1;
        } else {
            self.live_gen += 1;
        }
    }

    /// Multiply-shift hash of a packed key, folded so both halves of the
    /// product influence the table index.
    #[inline]
    fn hash(&self, k0: u64, k1: u64) -> usize {
        let a = (k0 ^ self.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let b = (k1 ^ self.seed.rotate_left(31)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let h = a ^ b.rotate_left(29);
        ((h ^ (h >> 32)) as usize) & self.mask
    }

    /// Ensures the table can hold `extra` more entries at ≤ 50 % load
    /// without growing mid-insertion.
    pub fn reserve(&mut self, extra: usize) {
        let needed = (self.len + extra).max(4) * 2;
        if needed > self.slots.len() {
            self.grow_to(needed.next_power_of_two());
        }
    }

    #[cold]
    fn grow_to(&mut self, new_cap: usize) {
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                Slot {
                    k0: 0,
                    k1: 0,
                    gen: 0,
                    val: V::default(),
                };
                new_cap
            ],
        );
        let old_gen = self.live_gen;
        self.start_bits.clear();
        self.start_bits.resize(new_cap.div_ceil(64), 0);
        self.mask = new_cap - 1;
        self.live_gen = 1;
        let live = self.len;
        self.len = 0;
        for slot in old {
            if slot.gen == old_gen {
                self.insert((slot.k0, slot.k1), slot.val);
            }
        }
        debug_assert_eq!(self.len, live, "rehash must preserve every entry");
    }

    // Probe and insert run twice per stream edge; growth is confined to the
    // cold `grow_to` above, so everything from here to `get_mut_or_insert`
    // must stay free of allocating tokens.
    // analyze: region(no-alloc)

    /// Index of the slot holding `key`, or of the empty slot where it would
    /// be inserted, probing from a precomputed start index (`start` must
    /// equal `hash(k0, k1)` for the current table size). The table is never
    /// full (≤ 50 % load), so the probe always terminates.
    #[inline]
    fn probe_from(&self, start: usize, k0: u64, k1: u64) -> (bool, usize) {
        let mut idx = start;
        loop {
            let slot = &self.slots[idx];
            if slot.gen != self.live_gen {
                return (false, idx);
            }
            if slot.k0 == k0 && slot.k1 == k1 {
                return (true, idx);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Whether some live key whose probe start is `start` has been
    /// inserted since the last clear/growth. A `false` answer proves a key
    /// hashing to `start` absent; `true` only means the probe must walk.
    #[inline]
    fn start_hit(&self, start: usize) -> bool {
        (self.start_bits[start >> 6] >> (start & 63)) & 1 != 0
    }

    /// Marks `start` in the probe-start filter (called on every insert).
    #[inline]
    fn mark_start(&mut self, start: usize) {
        self.start_bits[start >> 6] |= 1u64 << (start & 63);
    }

    /// The probe start (multiply-shift hash) over a lane group: evaluated
    /// for [`LANES`] keys at once, giving the backend a branch-free run of
    /// independent multiplies to schedule. Exposed crate-privately so the
    /// bulk hot path can compute a lane group of probe starts ahead of use
    /// and prefetch the slots; each index is a pure function of the key,
    /// the seed and the table size, so it stays valid until the next
    /// growth.
    #[inline]
    pub(crate) fn probe_start4(&self, k0: [u64; LANES], k1: [u64; LANES]) -> [usize; LANES] {
        let mut out = [0usize; LANES];
        for (lane, slot) in out.iter_mut().enumerate() {
            *slot = self.hash(k0[lane], k1[lane]);
        }
        out
    }

    /// Prefetches the cache line of slot `idx` (no-op off x86-64). Purely a
    /// scheduling hint — see [`crate::lanes::prefetch_read`].
    #[inline]
    pub(crate) fn prefetch_slot(&self, idx: usize) {
        crate::lanes::prefetch_read(&self.slots, idx);
    }

    /// [`get`](Self::get) with a precomputed probe start — `start` must be
    /// the multiply-shift hash of `key` for the current table size
    /// (debug-asserted), as produced by [`probe_start4`](Self::probe_start4).
    #[inline]
    pub(crate) fn get_from(&self, start: usize, key: (u64, u64)) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        debug_assert_eq!(start, self.hash(key.0, key.1), "stale probe start");
        if !self.start_hit(start) {
            return None;
        }
        let (found, idx) = self.probe_from(start, key.0, key.1);
        found.then(|| self.slots[idx].val)
    }

    /// [`get_mut_or_insert`](Self::get_mut_or_insert) with a precomputed
    /// probe start. Behaviour is identical — including the growth check —
    /// except the hash is only recomputed on the cold growth path, where
    /// precomputed starts go stale.
    #[inline]
    pub(crate) fn get_mut_or_insert_from(
        &mut self,
        start: usize,
        key: (u64, u64),
        default: V,
    ) -> &mut V {
        let cap_before = self.slots.len();
        self.reserve(1);
        let start = if self.slots.len() == cap_before {
            debug_assert_eq!(start, self.hash(key.0, key.1), "stale probe start");
            start
        } else {
            self.hash(key.0, key.1)
        };
        self.get_mut_or_insert_at(start, key, default)
    }

    /// Shared upsert tail: `start` is the (fresh) hash of `key`.
    #[inline]
    fn get_mut_or_insert_at(&mut self, start: usize, key: (u64, u64), default: V) -> &mut V {
        let (found, idx) = self.probe_from(start, key.0, key.1);
        if !found {
            self.slots[idx] = Slot {
                k0: key.0,
                k1: key.1,
                gen: self.live_gen,
                val: default,
            };
            self.len += 1;
            self.mark_start(start);
        }
        &mut self.slots[idx].val
    }

    /// Looks up a key, returning a copy of its value.
    #[inline]
    pub fn get(&self, key: (u64, u64)) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let start = self.hash(key.0, key.1);
        if !self.start_hit(start) {
            return None;
        }
        let (found, idx) = self.probe_from(start, key.0, key.1);
        found.then(|| self.slots[idx].val)
    }

    /// Whether a key is present.
    #[inline]
    pub fn contains_key(&self, key: (u64, u64)) -> bool {
        if self.len == 0 {
            return false;
        }
        let start = self.hash(key.0, key.1);
        self.start_hit(start) && self.probe_from(start, key.0, key.1).0
    }

    /// Inserts or overwrites, returning the previous value if the key was
    /// already present.
    #[inline]
    pub fn insert(&mut self, key: (u64, u64), val: V) -> Option<V> {
        self.reserve(1);
        let start = self.hash(key.0, key.1);
        let (found, idx) = self.probe_from(start, key.0, key.1);
        let slot = &mut self.slots[idx];
        if found {
            let old = slot.val;
            slot.val = val;
            Some(old)
        } else {
            *slot = Slot {
                k0: key.0,
                k1: key.1,
                gen: self.live_gen,
                val,
            };
            self.len += 1;
            self.mark_start(start);
            None
        }
    }

    /// Inserts `val` only when the key is absent; returns whether an
    /// insertion happened.
    #[inline]
    pub fn insert_if_absent(&mut self, key: (u64, u64), val: V) -> bool {
        self.reserve(1);
        let start = self.hash(key.0, key.1);
        let (found, idx) = self.probe_from(start, key.0, key.1);
        if found {
            return false;
        }
        self.slots[idx] = Slot {
            k0: key.0,
            k1: key.1,
            gen: self.live_gen,
            val,
        };
        self.len += 1;
        self.mark_start(start);
        true
    }

    /// Mutable access to the value for `key`, inserting `default` first
    /// when absent — the `entry(..).or_insert(..)` of this map.
    #[inline]
    pub fn get_mut_or_insert(&mut self, key: (u64, u64), default: V) -> &mut V {
        self.reserve(1);
        let start = self.hash(key.0, key.1);
        self.get_mut_or_insert_at(start, key, default)
    }
    // analyze: endregion

    /// Iterates over live `(key, value)` pairs in slot order — a
    /// deterministic function of the seed and the insertion history.
    pub fn iter(&self) -> impl Iterator<Item = ((u64, u64), V)> + '_ {
        self.slots
            .iter()
            .filter(move |slot| slot.gen == self.live_gen)
            .map(|slot| ((slot.k0, slot.k1), slot.val))
    }

    /// Allocated table capacity in slots (exposed for space accounting and
    /// the steady-state allocation tests).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// SplitMix64 finalizer — mixes the owner seed into hash-seed material.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn empty_map_behaves() {
        let map: FastMap<u64> = FastMap::with_seed(1);
        assert_eq!(map.len(), 0);
        assert!(map.is_empty());
        assert_eq!(map.get((1, 2)), None);
        assert!(!map.contains_key((0, 0)));
        assert_eq!(map.capacity(), 0, "no allocation before the first insert");
    }

    #[test]
    fn insert_get_overwrite() {
        let mut map = FastMap::with_seed(7);
        assert_eq!(map.insert((1, 2), 10u64), None);
        assert_eq!(map.insert((2, 1), 20), None, "keys are ordered pairs");
        assert_eq!(map.get((1, 2)), Some(10));
        assert_eq!(map.get((2, 1)), Some(20));
        assert_eq!(map.insert((1, 2), 11), Some(10));
        assert_eq!(map.get((1, 2)), Some(11));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn get_mut_or_insert_counts_like_entry_or_insert() {
        let mut map = FastMap::with_seed(3);
        for _ in 0..5 {
            *map.get_mut_or_insert((42, 0), 0u64) += 1;
        }
        assert_eq!(map.get((42, 0)), Some(5));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn insert_if_absent_only_inserts_once() {
        let mut map = FastMap::with_seed(3);
        assert!(map.insert_if_absent((5, 5), 1u32));
        assert!(!map.insert_if_absent((5, 5), 2));
        assert_eq!(map.get((5, 5)), Some(1));
    }

    #[test]
    fn clear_is_constant_time_and_retains_capacity() {
        let mut map = FastMap::with_seed(9);
        for i in 0..1_000u64 {
            map.insert((i, i * 3), i);
        }
        let cap = map.capacity();
        assert!(cap >= 2_000, "≤ 50 % load factor");
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.capacity(), cap, "clear must not shrink the table");
        assert_eq!(map.get((1, 3)), None);
        map.insert((1, 3), 77);
        assert_eq!(map.get((1, 3)), Some(77));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn generation_wraparound_resets_stamps() {
        let mut map = FastMap::with_seed(4);
        map.insert((1, 1), 1u64);
        map.live_gen = u32::MAX - 1;
        // Force the live entry's stamp to match so it is still visible.
        for slot in &mut map.slots {
            if slot.k0 == 1 && slot.k1 == 1 {
                slot.gen = u32::MAX - 1;
            }
        }
        assert_eq!(map.get((1, 1)), Some(1));
        map.clear(); // live_gen -> MAX
        map.insert((2, 2), 2);
        map.clear(); // wraparound path: stamps reset to 0, live_gen to 1
        assert!(map.is_empty());
        assert_eq!(map.get((2, 2)), None);
        map.insert((3, 3), 3);
        assert_eq!(map.get((3, 3)), Some(3));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn matches_a_std_hashmap_under_random_workload() {
        // Differential test against std: same inserts/overwrites/lookups.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut fast = FastMap::with_seed(11);
        let mut reference: HashMap<(u64, u64), u64> = HashMap::new();
        for _ in 0..20_000 {
            let key = (next() % 512, next() % 64);
            match next() % 3 {
                0 => {
                    let val = next();
                    assert_eq!(fast.insert(key, val), reference.insert(key, val));
                }
                1 => {
                    assert_eq!(fast.get(key), reference.get(&key).copied());
                }
                _ => {
                    let slot = fast.get_mut_or_insert(key, 0);
                    *slot += 1;
                    let entry = reference.entry(key).or_insert(0);
                    *entry += 1;
                    assert_eq!(*slot, *entry);
                }
            }
            assert_eq!(fast.len(), reference.len());
        }
        // Full-content comparison via iteration.
        let mut fast_entries: Vec<_> = fast.iter().collect();
        fast_entries.sort_unstable();
        let mut ref_entries: Vec<_> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        ref_entries.sort_unstable();
        assert_eq!(fast_entries, ref_entries);
    }

    #[test]
    fn layout_is_deterministic_per_seed() {
        let build = |seed| {
            let mut map = FastMap::with_seed(seed);
            for i in 0..100u64 {
                map.insert((i * 7, i), i);
            }
            map.iter().collect::<Vec<_>>()
        };
        assert_eq!(build(5), build(5), "same seed, same iteration order");
    }

    #[test]
    fn lane_probe_starts_match_the_scalar_hash() {
        let mut map = FastMap::with_seed(21);
        for i in 0..64u64 {
            map.insert((i, i ^ 5), i);
        }
        let k0 = [3u64, 17, 200, 63];
        let k1 = [3u64 ^ 5, 17 ^ 5, 0, 63 ^ 5];
        let starts = map.probe_start4(k0, k1);
        for lane in 0..LANES {
            // A splatted group must agree with the mixed group lane-wise —
            // each lane's start is a pure function of its own key.
            let splat = map.probe_start4([k0[lane]; LANES], [k1[lane]; LANES]);
            assert_eq!(splat, [starts[lane]; LANES]);
            map.prefetch_slot(starts[lane]); // must be a harmless hint
            assert_eq!(
                map.get_from(starts[lane], (k0[lane], k1[lane])),
                map.get((k0[lane], k1[lane])),
                "lane {lane}"
            );
        }
    }

    #[test]
    fn get_mut_or_insert_from_matches_get_mut_or_insert() {
        let mut plain = FastMap::with_seed(33);
        let mut prehashed = FastMap::with_seed(33);
        for i in 0..2_000u64 {
            let key = (i % 311, 0);
            let a = {
                let v = plain.get_mut_or_insert(key, 0u64);
                *v += 1;
                *v
            };
            let b = {
                let start = prehashed.probe_start4([key.0; LANES], [key.1; LANES])[0];
                let v = prehashed.get_mut_or_insert_from(start, key, 0u64);
                *v += 1;
                *v
            };
            assert_eq!(a, b, "upsert {i}");
            assert_eq!(plain.len(), prehashed.len());
            assert_eq!(plain.capacity(), prehashed.capacity(), "growth parity");
        }
        let mut lhs: Vec<_> = plain.iter().collect();
        let mut rhs: Vec<_> = prehashed.iter().collect();
        lhs.sort_unstable();
        rhs.sort_unstable();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn reserve_prevents_mid_batch_growth() {
        let mut map: FastMap<u64> = FastMap::with_seed(2);
        map.reserve(1_000);
        let cap = map.capacity();
        for i in 0..1_000u64 {
            map.insert((i, 0), i);
        }
        assert_eq!(map.capacity(), cap, "reserved capacity must be enough");
    }
}
