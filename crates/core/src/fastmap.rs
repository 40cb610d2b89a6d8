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
//! * **Keys are one or two `u64` words** ([`FastKey`]). The default is a
//!   packed `(u64, u64)` pair — two endpoints, or a `(vertex, degree)`
//!   event. A bare `u64` vertex id is the other key type: it halves the
//!   slot of the bulk counter's batch-degree table (see
//!   [`crate::bulk`]), where a pair key would only carry a zero.
//! * **Multiply-shift hashing** (one odd-constant multiply per key word and
//!   an xor-fold) — a handful of cycles, seeded so table layout is a pure
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

/// Seed used by [`FastMap::default`] (and `Default`-constructed owners that
/// have no seed of their own to derive from).
pub const DEFAULT_FASTMAP_SEED: u64 = 0x5EED_FA57_0000_0001;

// The key hashes run on every probe; they must stay free of allocating
// tokens like the probe loop below.
// analyze: region(no-alloc)

/// A key a [`FastMap`] can hold: one or two `u64` words with a seeded
/// multiply-shift hash. `Default` is the filler key of never-used slots.
pub trait FastKey: Copy + Eq + Default {
    /// The unmasked hash of `self` under the table's mixed `seed`.
    fn hash_with(self, seed: u64) -> u64;
}

/// The packed pair: both words feed the hash through their own multiply.
impl FastKey for (u64, u64) {
    #[inline]
    fn hash_with(self, seed: u64) -> u64 {
        let a = (self.0 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let b = (self.1 ^ seed.rotate_left(31)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        a ^ b.rotate_left(29)
    }
}

/// A single word: the pair hash without the second multiply.
impl FastKey for u64 {
    #[inline]
    fn hash_with(self, seed: u64) -> u64 {
        (self ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}
// analyze: endregion

/// One slot of the table. `gen == FastMap::live_gen` marks the slot live;
/// any other value means empty (either never used or cleared). A `u64` key
/// with a `u32` value packs into 16 bytes; a pair key with a `u64` value
/// takes 32.
#[derive(Debug, Clone, Copy)]
struct Slot<K, V> {
    key: K,
    gen: u32,
    val: V,
}

/// A deterministic open-addressing map from [`FastKey`] keys — packed
/// `(u64, u64)` pairs unless `K` says otherwise — to `Copy` values. See the
/// [module docs](self) for the design rationale.
#[derive(Debug, Clone)]
pub struct FastMap<V, K = (u64, u64)> {
    slots: Vec<Slot<K, V>>,
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
    /// turns a random slot load into an L1-resident bitmap test.
    /// Rebuilt on growth, zeroed by [`FastMap::clear`].
    start_bits: Vec<u64>,
}

impl<V: Copy + Default, K: FastKey> Default for FastMap<V, K> {
    fn default() -> Self {
        Self::with_seed(DEFAULT_FASTMAP_SEED)
    }
}

impl<V: Copy + Default, K: FastKey> FastMap<V, K> {
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

    /// Multiply-shift hash of a key, folded so both halves of the product
    /// influence the table index.
    #[inline]
    fn hash(&self, key: K) -> usize {
        let h = key.hash_with(self.seed);
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
                    key: K::default(),
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
                self.insert(slot.key, slot.val);
            }
        }
        debug_assert_eq!(self.len, live, "rehash must preserve every entry");
    }

    // Probe, insert and prefetch run twice per stream edge; growth is
    // confined to the cold `grow_to` above, so everything from here to
    // `prefetch` must stay free of allocating tokens.
    // analyze: region(no-alloc)

    /// Index of the slot holding `key`, or of the empty slot where it would
    /// be inserted, probing from a precomputed start index (`start` must
    /// equal `hash(key)` for the current table size). The table is never
    /// full (≤ 50 % load), so the probe always terminates.
    #[inline]
    fn probe_from(&self, start: usize, key: K) -> (bool, usize) {
        let mut idx = start;
        loop {
            let slot = &self.slots[idx];
            if slot.gen != self.live_gen {
                return (false, idx);
            }
            if slot.key == key {
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

    /// Looks up a key, returning a copy of its value.
    #[inline]
    pub fn get(&self, key: K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let start = self.hash(key);
        if !self.start_hit(start) {
            return None;
        }
        let (found, idx) = self.probe_from(start, key);
        found.then(|| self.slots[idx].val)
    }

    /// Whether a key is present.
    #[inline]
    pub fn contains_key(&self, key: K) -> bool {
        if self.len == 0 {
            return false;
        }
        let start = self.hash(key);
        self.start_hit(start) && self.probe_from(start, key).0
    }

    /// Inserts or overwrites, returning the previous value if the key was
    /// already present.
    #[inline]
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        self.reserve(1);
        let start = self.hash(key);
        let (found, idx) = self.probe_from(start, key);
        let slot = &mut self.slots[idx];
        if found {
            let old = slot.val;
            slot.val = val;
            Some(old)
        } else {
            *slot = Slot {
                key,
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
    pub fn insert_if_absent(&mut self, key: K, val: V) -> bool {
        self.reserve(1);
        let start = self.hash(key);
        let (found, idx) = self.probe_from(start, key);
        if found {
            return false;
        }
        self.slots[idx] = Slot {
            key,
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
    pub fn get_mut_or_insert(&mut self, key: K, default: V) -> &mut V {
        self.reserve(1);
        let start = self.hash(key);
        let (found, idx) = self.probe_from(start, key);
        if !found {
            self.slots[idx] = Slot {
                key,
                gen: self.live_gen,
                val: default,
            };
            self.len += 1;
            self.mark_start(start);
        }
        &mut self.slots[idx].val
    }

    /// Prefetches the cache line of the slot where a probe for `key`
    /// starts, so a lookup or upsert of `key` a few items later finds it
    /// warm. Purely a scheduling hint: it reads nothing, changes nothing,
    /// and is a no-op off x86-64 and on a map that has never allocated.
    #[inline]
    pub(crate) fn prefetch(&self, key: K) {
        prefetch_read(&self.slots, self.hash(key));
    }
    // analyze: endregion

    /// Iterates over live `(key, value)` pairs in slot order — a
    /// deterministic function of the seed and the insertion history.
    pub fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
        self.slots
            .iter()
            .filter(move |slot| slot.gen == self.live_gen)
            .map(|slot| (slot.key, slot.val))
    }

    /// Allocated table capacity in slots (exposed for space accounting and
    /// the steady-state allocation tests).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

// The prefetch hint runs inside the batch scans, like the probes above.
// analyze: region(no-alloc)

/// Prefetches the cache line holding `slice[idx]` into all cache levels
/// (x86-64 `PREFETCHT0`; a no-op on other architectures and for
/// out-of-range indices). Purely a scheduling hint — it never faults and
/// never changes an architecturally visible result.
#[inline]
#[allow(unsafe_code)]
fn prefetch_read<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < slice.len() {
        // SAFETY: the pointer is in bounds (checked above), and PREFETCHT0
        // performs no architecturally visible memory access — it cannot
        // fault, write, or alias anything; the intrinsic is hint-only.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(slice.as_ptr().add(idx).cast::<i8>());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}
// analyze: endregion

/// SplitMix64 finalizer — mixes the owner seed into hash-seed material.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs each generic test body in [`bodies`] twice: under its own name
    /// for the default pair key, and again in `single_key` for `u64`.
    macro_rules! for_both_keys {
        ($($name:ident),+ $(,)?) => {
            $(
                #[test]
                fn $name() {
                    bodies::$name::<(u64, u64)>();
                }
            )+
            mod single_key {
                $(
                    #[test]
                    fn $name() {
                        super::bodies::$name::<u64>();
                    }
                )+
            }
        };
    }

    for_both_keys!(
        empty_map_behaves,
        insert_get_overwrite,
        get_mut_or_insert_counts_like_entry_or_insert,
        insert_if_absent_only_inserts_once,
        clear_is_constant_time_and_retains_capacity,
        generation_wraparound_resets_stamps,
        matches_a_std_hashmap_under_random_workload,
        layout_is_deterministic_per_seed,
        reserve_prevents_mid_batch_growth,
        prefetch_is_a_harmless_hint,
    );

    #[test]
    fn slots_pack_to_16_bytes_for_a_u64_key_and_u32_value() {
        // The bulk counter's batch-degree table: 8-byte key, 4-byte
        // generation, 4-byte count.
        assert_eq!(std::mem::size_of::<Slot<u64, u32>>(), 16);
        // The pair-keyed tables keep their layout.
        assert_eq!(std::mem::size_of::<Slot<(u64, u64), u64>>(), 32);
        assert_eq!(std::mem::size_of::<Slot<(u64, u64), u32>>(), 24);
    }

    mod bodies {
        use super::super::*;
        use std::collections::HashMap;
        use std::fmt::Debug;
        use std::hash::Hash;

        /// A key type the generic bodies can build from the small
        /// `(a, b)` coordinates they use.
        pub(super) trait TestKey: FastKey + Ord + Hash + Debug {
            /// An injective packing of `(a, b)` for `a, b < 2^32`.
            fn of(a: u64, b: u64) -> Self;
        }

        impl TestKey for (u64, u64) {
            fn of(a: u64, b: u64) -> Self {
                (a, b)
            }
        }

        impl TestKey for u64 {
            fn of(a: u64, b: u64) -> Self {
                (a << 32) | b
            }
        }

        pub(super) fn empty_map_behaves<K: TestKey>() {
            let map: FastMap<u64, K> = FastMap::with_seed(1);
            assert_eq!(map.len(), 0);
            assert!(map.is_empty());
            assert_eq!(map.get(K::of(1, 2)), None);
            assert!(!map.contains_key(K::of(0, 0)));
            assert_eq!(map.capacity(), 0, "no allocation before the first insert");
        }

        pub(super) fn insert_get_overwrite<K: TestKey>() {
            let mut map = FastMap::with_seed(7);
            assert_eq!(map.insert(K::of(1, 2), 10u64), None);
            assert_eq!(map.insert(K::of(2, 1), 20), None, "keys are ordered pairs");
            assert_eq!(map.get(K::of(1, 2)), Some(10));
            assert_eq!(map.get(K::of(2, 1)), Some(20));
            assert_eq!(map.insert(K::of(1, 2), 11), Some(10));
            assert_eq!(map.get(K::of(1, 2)), Some(11));
            assert_eq!(map.len(), 2);
        }

        pub(super) fn get_mut_or_insert_counts_like_entry_or_insert<K: TestKey>() {
            let mut map = FastMap::with_seed(3);
            for _ in 0..5 {
                *map.get_mut_or_insert(K::of(42, 0), 0u64) += 1;
            }
            assert_eq!(map.get(K::of(42, 0)), Some(5));
            assert_eq!(map.len(), 1);
        }

        pub(super) fn insert_if_absent_only_inserts_once<K: TestKey>() {
            let mut map = FastMap::with_seed(3);
            assert!(map.insert_if_absent(K::of(5, 5), 1u32));
            assert!(!map.insert_if_absent(K::of(5, 5), 2));
            assert_eq!(map.get(K::of(5, 5)), Some(1));
        }

        pub(super) fn clear_is_constant_time_and_retains_capacity<K: TestKey>() {
            let mut map = FastMap::with_seed(9);
            for i in 0..1_000u64 {
                map.insert(K::of(i, i * 3), i);
            }
            let cap = map.capacity();
            assert!(cap >= 2_000, "≤ 50 % load factor");
            map.clear();
            assert!(map.is_empty());
            assert_eq!(map.capacity(), cap, "clear must not shrink the table");
            assert_eq!(map.get(K::of(1, 3)), None);
            map.insert(K::of(1, 3), 77);
            assert_eq!(map.get(K::of(1, 3)), Some(77));
            assert_eq!(map.len(), 1);
        }

        pub(super) fn generation_wraparound_resets_stamps<K: TestKey>() {
            let mut map = FastMap::with_seed(4);
            map.insert(K::of(1, 1), 1u64);
            map.live_gen = u32::MAX - 1;
            // Force the live entry's stamp to match so it is still visible.
            for slot in &mut map.slots {
                if slot.key == K::of(1, 1) {
                    slot.gen = u32::MAX - 1;
                }
            }
            assert_eq!(map.get(K::of(1, 1)), Some(1));
            map.clear(); // live_gen -> MAX
            map.insert(K::of(2, 2), 2);
            map.clear(); // wraparound path: stamps reset to 0, live_gen to 1
            assert!(map.is_empty());
            assert_eq!(map.get(K::of(2, 2)), None);
            map.insert(K::of(3, 3), 3);
            assert_eq!(map.get(K::of(3, 3)), Some(3));
            assert_eq!(map.len(), 1);
        }

        pub(super) fn matches_a_std_hashmap_under_random_workload<K: TestKey>() {
            // Differential test against std: same inserts/overwrites/lookups.
            let mut state = 0x0123_4567_89AB_CDEF_u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut fast = FastMap::with_seed(11);
            let mut reference: HashMap<K, u64> = HashMap::new();
            for _ in 0..20_000 {
                let key = K::of(next() % 512, next() % 64);
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

        pub(super) fn layout_is_deterministic_per_seed<K: TestKey>() {
            let build = |seed| {
                let mut map = FastMap::with_seed(seed);
                for i in 0..100u64 {
                    map.insert(K::of(i * 7, i), i);
                }
                map.iter().collect::<Vec<_>>()
            };
            assert_eq!(build(5), build(5), "same seed, same iteration order");
        }

        pub(super) fn reserve_prevents_mid_batch_growth<K: TestKey>() {
            let mut map: FastMap<u64, K> = FastMap::with_seed(2);
            map.reserve(1_000);
            let cap = map.capacity();
            for i in 0..1_000u64 {
                map.insert(K::of(i, 0), i);
            }
            assert_eq!(map.capacity(), cap, "reserved capacity must be enough");
        }

        pub(super) fn prefetch_is_a_harmless_hint<K: TestKey>() {
            // A map that has never allocated has no slot to prefetch.
            let mut map: FastMap<u64, K> = FastMap::with_seed(13);
            map.prefetch(K::of(1, 2));
            assert_eq!(map.capacity(), 0);
            for i in 0..100u64 {
                map.insert(K::of(i, i ^ 5), i);
            }
            let before: Vec<_> = map.iter().collect();
            // Every inserted key, then as many absent ones.
            for i in 0..200u64 {
                map.prefetch(K::of(i, i ^ 5));
                assert_eq!(map.get(K::of(i, i ^ 5)), (i < 100).then_some(i));
            }
            assert_eq!(map.iter().collect::<Vec<_>>(), before, "nothing moved");
            map.clear();
            for i in 0..100u64 {
                map.prefetch(K::of(i, i ^ 5));
                assert_eq!(map.get(K::of(i, i ^ 5)), None);
            }
            assert!(map.is_empty());
            // The raw hint at any index, in range or past the end, and on
            // an empty slice.
            let data = [1u64, 2, 3];
            for idx in 0..10 {
                prefetch_read(&data, idx);
            }
            prefetch_read::<u64>(&[], 0);
            assert_eq!(data, [1, 2, 3]);
        }
    }
}
