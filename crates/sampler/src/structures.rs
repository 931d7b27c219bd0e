//! The data structures whose choice dominates sampler performance (§4.1).
//!
//! The paper's design-space exploration found that replacing the C++ STL
//! hash map/set with a flat open-addressing ("swiss table"-style) layout
//! yields ~2×, and replacing the neighbor-dedup *set* with a plain array
//! (linear search, but cache-resident at fanout ≤ 20) another ~17 %.
//!
//! * [`IdMap`] — global→local node-id mapping used to build MFG edge lists.
//! * [`NeighborSet`] — tracks the (at most `fanout`) indices already sampled
//!   for one destination node, for sampling *without replacement*.
//!
//! Each has a "standard library" implementation (the PyG/STL analogue,
//! SipHash + buckets) and a flat implementation; the set additionally has the
//! array variant and the bitmap that ships. All implementations are reusable
//! across batches via `clear`, because allocation churn was one of the
//! baseline's hidden costs — and `clear` runs once per batch (map) or once
//! per destination node (set), so the two shipped structures clear in time
//! proportional to what the last use touched, not to their capacity.

#![expect(
    clippy::indexing_slicing,
    reason = "filled holds slot indices of the table it was built against, which old still is; probe indices are masked by the power-of-two table capacity on every step"
)]

use salient_graph::NodeId;
use std::collections::{HashMap, HashSet};

const EMPTY: u32 = u32::MAX;

/// Multiplicative (Fibonacci) hash of a `u32` key into `bits` bits.
#[inline]
fn fib_hash(key: u32, bits: u32) -> usize {
    ((key.wrapping_mul(0x9E37_79B9)) >> (32 - bits)) as usize
}

/// Global→local node id map.
pub trait IdMap {
    /// Returns the local id of `global`, inserting `fallback` if absent.
    /// The boolean is `true` when the key was newly inserted.
    fn get_or_insert(&mut self, global: NodeId, fallback: u32) -> (u32, bool);

    /// Removes all entries, retaining capacity where possible.
    fn clear(&mut self);

    /// Pre-sizes the structure for roughly `n` keys (no-op where
    /// unsupported).
    fn reserve(&mut self, n: usize);

    /// Number of stored keys.
    fn len(&self) -> usize;

    /// Whether the map is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `std::collections::HashMap` (SipHash) — the STL-map analogue of the PyG
/// baseline.
#[derive(Debug, Default)]
pub struct StdIdMap {
    map: HashMap<NodeId, u32>,
}

impl StdIdMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IdMap for StdIdMap {
    fn get_or_insert(&mut self, global: NodeId, fallback: u32) -> (u32, bool) {
        match self.map.entry(global) {
            std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(fallback);
                (fallback, true)
            }
        }
    }

    fn clear(&mut self) {
        self.map.clear();
    }

    fn reserve(&mut self, n: usize) {
        self.map.reserve(n);
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Flat open-addressing map with linear probing and Fibonacci hashing — the
/// "swiss table" analogue that gave the paper its ~2× sampler speedup.
///
/// Key and value share one `[key, val]` entry, so a probe touches one cache
/// line, and the slots filled since the last [`IdMap::clear`] are remembered:
/// clearing costs O(keys inserted), which is what a batch of one seed node
/// pays in a table a batch of 256 once grew.
#[derive(Debug)]
pub struct FlatIdMap {
    /// `[key, val]` per slot; a key of `EMPTY` marks a free slot.
    entries: Vec<[u32; 2]>,
    /// Slots filled since the last clear, in insertion order.
    filled: Vec<u32>,
    bits: u32,
}

impl Default for FlatIdMap {
    fn default() -> Self {
        Self::with_capacity(16)
    }
}

impl FlatIdMap {
    /// Creates a map able to hold roughly `capacity` keys before growing.
    pub fn with_capacity(capacity: usize) -> Self {
        let bits = (capacity.max(8) * 2).next_power_of_two().trailing_zeros();
        FlatIdMap {
            entries: vec![[EMPTY, 0]; 1 << bits],
            filled: Vec::new(),
            bits,
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.entries, vec![[EMPTY, 0]; 2 << self.bits]);
        self.bits += 1;
        let mut filled = std::mem::take(&mut self.filled);
        for slot in &mut filled {
            let [key, val] = old[*slot as usize];
            *slot = self.insert_fresh(key, val);
        }
        self.filled = filled;
    }

    /// Stores a key known to be absent; returns its slot.
    #[inline]
    fn insert_fresh(&mut self, key: u32, val: u32) -> u32 {
        let mask = self.entries.len() - 1;
        let mut i = fib_hash(key, self.bits);
        loop {
            if self.entries[i][0] == EMPTY {
                self.entries[i] = [key, val];
                return i as u32;
            }
            i = (i + 1) & mask;
        }
    }
}

impl IdMap for FlatIdMap {
    #[inline]
    fn get_or_insert(&mut self, global: NodeId, fallback: u32) -> (u32, bool) {
        debug_assert_ne!(global, EMPTY, "u32::MAX is reserved as the empty slot");
        let mask = self.entries.len() - 1;
        let mut i = fib_hash(global, self.bits);
        loop {
            let [k, v] = self.entries[i];
            if k == global {
                return (v, false);
            }
            if k == EMPTY {
                // Only an insert can cross the load bound, so only an insert
                // checks it: a hit (most probes at the last hop) never does.
                if (self.filled.len() + 1) * 4 >= self.entries.len() * 3 {
                    self.grow();
                    i = self.insert_fresh(global, fallback) as usize;
                } else {
                    self.entries[i] = [global, fallback];
                }
                self.filled.push(i as u32);
                return (fallback, true);
            }
            i = (i + 1) & mask;
        }
    }

    fn clear(&mut self) {
        for &slot in &self.filled {
            self.entries[slot as usize][0] = EMPTY;
        }
        self.filled.clear();
    }

    fn reserve(&mut self, n: usize) {
        while (self.filled.len() + n) * 4 >= self.entries.len() * 3 {
            self.grow();
        }
    }

    fn len(&self) -> usize {
        self.filled.len()
    }
}

/// Tracks already-sampled neighbor positions for one destination node.
///
/// Capacities are small (≤ fanout, typically ≤ 20), which is exactly why the
/// paper's array variant wins despite linear search.
pub trait NeighborSet {
    /// Inserts `idx`; returns `false` if it was already present.
    fn insert(&mut self, idx: u32) -> bool;

    /// Empties the set (called once per destination node).
    fn clear(&mut self);

    /// Number of stored indices.
    fn len(&self) -> usize;

    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `std::collections::HashSet` (SipHash) — the STL-set analogue.
#[derive(Debug, Default)]
pub struct StdNeighborSet {
    set: HashSet<u32>,
}

impl StdNeighborSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NeighborSet for StdNeighborSet {
    fn insert(&mut self, idx: u32) -> bool {
        self.set.insert(idx)
    }

    fn clear(&mut self) {
        self.set.clear();
    }

    fn len(&self) -> usize {
        self.set.len()
    }
}

/// Small flat open-addressing set.
#[derive(Debug)]
pub struct FlatNeighborSet {
    slots: Vec<u32>,
    bits: u32,
    len: usize,
}

impl Default for FlatNeighborSet {
    fn default() -> Self {
        FlatNeighborSet {
            slots: vec![EMPTY; 64],
            bits: 6,
            len: 0,
        }
    }
}

impl FlatNeighborSet {
    /// Creates an empty set sized for typical fanouts.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NeighborSet for FlatNeighborSet {
    #[inline]
    fn insert(&mut self, idx: u32) -> bool {
        debug_assert_ne!(idx, EMPTY);
        if (self.len + 1) * 4 >= self.slots.len() * 3 {
            let old = std::mem::replace(&mut self.slots, vec![EMPTY; 2 << self.bits]);
            self.bits += 1;
            self.len = 0;
            for k in old {
                if k != EMPTY {
                    self.insert(k);
                }
            }
        }
        let mask = self.slots.len() - 1;
        let mut i = fib_hash(idx, self.bits);
        loop {
            let k = self.slots[i];
            if k == idx {
                return false;
            }
            if k == EMPTY {
                self.slots[i] = idx;
                self.len += 1;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Plain array with linear-scan membership — the winner of the paper's
/// exploration at realistic fanouts ("despite its linear search complexity,
/// the array set benefits from cache locality").
#[derive(Debug, Default)]
pub struct ArrayNeighborSet {
    items: Vec<u32>,
}

impl ArrayNeighborSet {
    /// Creates an empty array set.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NeighborSet for ArrayNeighborSet {
    #[inline]
    fn insert(&mut self, idx: u32) -> bool {
        if self.items.contains(&idx) {
            false
        } else {
            self.items.push(idx);
            true
        }
    }

    fn clear(&mut self) {
        self.items.clear();
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

/// A bitmap over neighbor positions: O(1) membership whatever the fanout,
/// and a `clear` that zeroes only the words up to the highest position set —
/// at most one bit per neighbor of the node just sampled. It grows to one
/// bit per position of the largest degree seen.
#[derive(Debug, Default)]
pub struct BitmapNeighborSet {
    words: Vec<u64>,
    /// Words that may hold a set bit: `words[dirty..]` is all zero.
    dirty: usize,
    len: usize,
}

impl BitmapNeighborSet {
    /// Creates an empty bitmap set.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NeighborSet for BitmapNeighborSet {
    #[inline]
    fn insert(&mut self, idx: u32) -> bool {
        let w = (idx >> 6) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1u64 << (idx & 63);
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.dirty = self.dirty.max(w + 1);
        self.len += 1;
        true
    }

    #[inline]
    fn clear(&mut self) {
        self.words[..self.dirty].fill(0);
        self.dirty = 0;
        self.len = 0;
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_map(map: &mut impl IdMap) {
        assert!(map.is_empty());
        let (v, new) = map.get_or_insert(100, 0);
        assert!(new);
        assert_eq!(v, 0);
        let (v, new) = map.get_or_insert(100, 1);
        assert!(!new);
        assert_eq!(v, 0, "existing key keeps its value");
        let (v, new) = map.get_or_insert(7, 1);
        assert!(new);
        assert_eq!(v, 1);
        assert_eq!(map.len(), 2);
        map.clear();
        assert_eq!(map.len(), 0);
        let (v, new) = map.get_or_insert(100, 9);
        assert!(new, "cleared map forgets keys");
        assert_eq!(v, 9);
    }

    #[test]
    fn std_map_contract() {
        exercise_map(&mut StdIdMap::new());
    }

    #[test]
    fn flat_map_contract() {
        exercise_map(&mut FlatIdMap::default());
    }

    #[test]
    fn flat_map_grows_correctly() {
        let mut m = FlatIdMap::with_capacity(4);
        for i in 0..10_000u32 {
            let (v, new) = m.get_or_insert(i * 7 + 1, i);
            assert!(new);
            assert_eq!(v, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u32 {
            let (v, new) = m.get_or_insert(i * 7 + 1, 0);
            assert!(!new);
            assert_eq!(v, i, "values survive growth");
        }
    }

    #[test]
    fn flat_map_grows_only_on_the_insert_that_crosses_its_load_bound() {
        // 16 slots hold 11 keys: the 12th insert is the one that grows.
        let mut m = FlatIdMap::with_capacity(8);
        assert_eq!(m.entries.len(), 16);
        for k in 0..11u32 {
            assert_eq!(m.get_or_insert(k * 31 + 5, k), (k, true));
        }
        for _ in 0..3 {
            for k in 0..11u32 {
                assert_eq!(m.get_or_insert(k * 31 + 5, 99), (k, false));
            }
        }
        assert_eq!(m.entries.len(), 16, "a hit never grows the table");
        assert_eq!(m.get_or_insert(1_000, 11), (11, true));
        assert_eq!(m.entries.len(), 32);
        for k in 0..12u32 {
            let key = if k == 11 { 1_000 } else { k * 31 + 5 };
            assert_eq!(m.get_or_insert(key, 99), (k, false), "values survive growth");
        }
        assert_eq!(m.filled.len(), 12);
    }

    #[test]
    fn flat_map_matches_std_on_random_stream() {
        use salient_tensor::rng::Rng;
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(1);
        let mut flat = FlatIdMap::default();
        let mut std = StdIdMap::new();
        let mut next = 0u32;
        for _ in 0..50_000 {
            let key: u32 = rng.random_range(0u32..5_000);
            let (a, new_a) = flat.get_or_insert(key, next);
            let (b, new_b) = std.get_or_insert(key, next);
            assert_eq!(a, b);
            assert_eq!(new_a, new_b);
            if new_a {
                next += 1;
            }
        }
        assert_eq!(flat.len(), std.len());
    }

    #[test]
    fn flat_map_clear_visits_only_the_slots_it_filled() {
        let mut m = FlatIdMap::with_capacity(1 << 16);
        assert_eq!(m.entries.len(), 1 << 17);
        let keys: Vec<u32> = (0..100).map(|i| i * 7919 + 3).collect();
        for (i, &k) in keys.iter().enumerate() {
            assert!(m.get_or_insert(k, i as u32).1);
        }
        assert_eq!(m.filled.len(), keys.len());
        // A stowaway the map never recorded: a clear that swept all 2^17
        // slots would evict it, one that walks its 100 cannot find it.
        let stowaway = 4_000_000_000u32;
        let home = fib_hash(stowaway, m.bits);
        assert_eq!(m.entries[home][0], EMPTY, "pick another stowaway");
        m.entries[home] = [stowaway, 7];

        m.clear();
        assert!(m.is_empty());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.get_or_insert(k, 500 + i as u32), (500 + i as u32, true), "key {k} survived");
        }
        assert_eq!(m.get_or_insert(stowaway, 0), (7, false));
    }

    fn exercise_set(set: &mut impl NeighborSet) {
        assert!(set.insert(5));
        assert!(!set.insert(5));
        assert!(set.insert(9));
        assert_eq!(set.len(), 2);
        set.clear();
        assert!(set.is_empty());
        assert!(set.insert(5));
    }

    #[test]
    fn std_set_contract() {
        exercise_set(&mut StdNeighborSet::new());
    }

    #[test]
    fn flat_set_contract() {
        exercise_set(&mut FlatNeighborSet::new());
    }

    #[test]
    fn array_set_contract() {
        exercise_set(&mut ArrayNeighborSet::new());
    }

    #[test]
    fn bitmap_set_contract() {
        exercise_set(&mut BitmapNeighborSet::new());
    }

    #[test]
    fn bitmap_set_spans_words_and_clears_each() {
        let mut s = BitmapNeighborSet::new();
        for idx in [0, 63, 64, 1_000, 65] {
            assert!(s.insert(idx));
        }
        assert!(!s.insert(1_000));
        assert_eq!(s.len(), 5);
        s.clear();
        assert!(s.is_empty());
        assert!(s.words.iter().all(|&w| w == 0));
        assert!(s.insert(1_000));
    }

    #[test]
    fn flat_set_grows() {
        let mut s = FlatNeighborSet::new();
        for i in 0..1_000 {
            assert!(s.insert(i));
        }
        for i in 0..1_000 {
            assert!(!s.insert(i));
        }
        assert_eq!(s.len(), 1_000);
    }
}
