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
//! SipHash + buckets) and a flat implementation; the map additionally has
//! the direct-indexed table that ships ([`DenseIdMap`], one `u32` per graph
//! node, as GNNLab's `simple_hashtable`), the set the array variant and the
//! bitmap that ships. All implementations are reusable across batches,
//! because allocation churn was one of the baseline's hidden costs — and a
//! map is emptied once per batch, a set once per destination node, so the
//! shipped structures empty in time proportional to what the last use
//! touched, not to their capacity.

#![expect(
    clippy::indexing_slicing,
    reason = "filled holds slot indices of the table it was built against, which old still is; probe indices are masked by the power-of-two table capacity on every step; a dense slot index is a node id, checked against the table"
)]

use salient_graph::NodeId;
use std::collections::{HashMap, HashSet};

const EMPTY: u32 = u32::MAX;

/// Multiplicative (Fibonacci) hash of a `u32` key into `bits` bits.
#[inline]
fn fib_hash(key: u32, bits: u32) -> usize {
    ((key.wrapping_mul(0x9E37_79B9)) >> (32 - bits)) as usize
}

/// Global→local node id map, used one batch at a time: [`IdMap::begin`],
/// inserts, [`IdMap::end`].
pub trait IdMap {
    /// Starts a batch over a graph of `num_nodes` nodes: the map is empty
    /// after it, and takes any key below `num_nodes`.
    fn begin(&mut self, num_nodes: usize);

    /// Returns the local id of `global`, inserting `fallback` if absent.
    /// The boolean is `true` when the key was newly inserted.
    fn get_or_insert(&mut self, global: NodeId, fallback: u32) -> (u32, bool);

    /// Ends the batch begun last, whose inserted keys were exactly `keys`.
    /// A map that keeps its own record of them ignores the argument.
    fn end(&mut self, keys: &[NodeId]);

    /// Pre-sizes the structure for roughly `n` more keys (no-op where
    /// unsupported).
    fn reserve(&mut self, n: usize);
}

/// `std::collections::HashMap` (SipHash) — the STL-map analogue of the PyG
/// baseline.
#[derive(Debug, Default)]
pub(crate) struct StdIdMap {
    map: HashMap<NodeId, u32>,
}

impl StdIdMap {
    /// Creates an empty map.
    pub(crate) fn new() -> Self {
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

    fn begin(&mut self, _num_nodes: usize) {
        self.map.clear();
    }

    fn end(&mut self, _keys: &[NodeId]) {}

    fn reserve(&mut self, n: usize) {
        self.map.reserve(n);
    }
}

/// Flat open-addressing map with linear probing and Fibonacci hashing — the
/// "swiss table" analogue that gave the paper its ~2× sampler speedup.
///
/// Key and value share one `[key, val]` entry, so a probe touches one cache
/// line, and the slots filled since the last [`IdMap::begin`] are
/// remembered: emptying costs O(keys inserted), which is what a batch of one
/// seed node pays in a table a batch of 256 once grew.
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
    pub(crate) fn with_capacity(capacity: usize) -> Self {
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

    fn begin(&mut self, _num_nodes: usize) {
        for &slot in &self.filled {
            self.entries[slot as usize][0] = EMPTY;
        }
        self.filled.clear();
    }

    fn end(&mut self, _keys: &[NodeId]) {}

    fn reserve(&mut self, n: usize) {
        while (self.filled.len() + n) * 4 >= self.entries.len() * 3 {
            self.grow();
        }
    }
}

/// A table indexed directly by node id: one `u32` per graph node, the local
/// id or `u32::MAX` when unmapped — GNNLab's `simple_hashtable` choice.
///
/// A lookup is one load, one select and one store, with no hash, no probe
/// loop and no branch on whether the key was new. The price is memory:
/// 4 B per graph node per map (40 KB at 10 000 nodes, 444 MB at
/// papers100M's 111 M). The table is sized to the graph at the first
/// [`IdMap::begin`], grows for a larger graph, and is emptied by walking the
/// batch's own node ids in [`IdMap::end`], in O(batch nodes).
///
/// A batch that never reaches `end` (a panic mid-batch) leaves its keys in
/// the table; the next `begin` sees that and resets every slot, so a map
/// that outlives a caught panic samples as a fresh one.
#[derive(Debug, Default)]
pub(crate) struct DenseIdMap {
    /// Local id per graph node, `EMPTY` when unmapped.
    slots: Vec<u32>,
    /// A batch has begun and not ended: its keys may still be in `slots`.
    open: bool,
}

impl DenseIdMap {
    /// Creates an empty map; the table is allocated by the first batch.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl IdMap for DenseIdMap {
    fn begin(&mut self, num_nodes: usize) {
        if self.open {
            self.slots.fill(EMPTY);
        }
        if self.slots.len() < num_nodes {
            self.slots.resize(num_nodes, EMPTY);
        }
        self.open = true;
    }

    #[inline]
    fn get_or_insert(&mut self, global: NodeId, fallback: u32) -> (u32, bool) {
        let slot = &mut self.slots[global as usize];
        let stored = *slot;
        let new = stored == EMPTY;
        let local = std::hint::select_unpredictable(new, fallback, stored);
        *slot = local;
        (local, new)
    }

    fn end(&mut self, keys: &[NodeId]) {
        for &k in keys {
            self.slots[k as usize] = EMPTY;
        }
        self.open = false;
    }

    fn reserve(&mut self, _n: usize) {}
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
pub(crate) struct StdNeighborSet {
    set: HashSet<u32>,
}

impl StdNeighborSet {
    /// Creates an empty set.
    pub(crate) fn new() -> Self {
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
pub(crate) struct FlatNeighborSet {
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
    pub(crate) fn new() -> Self {
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
pub(crate) struct ArrayNeighborSet {
    items: Vec<u32>,
}

impl ArrayNeighborSet {
    /// Creates an empty array set.
    pub(crate) fn new() -> Self {
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
        map.begin(1_000);
        let (v, new) = map.get_or_insert(100, 0);
        assert!(new);
        assert_eq!(v, 0);
        let (v, new) = map.get_or_insert(100, 1);
        assert!(!new);
        assert_eq!(v, 0, "existing key keeps its value");
        let (v, new) = map.get_or_insert(7, 1);
        assert!(new);
        assert_eq!(v, 1);
        map.end(&[100, 7]);
        map.begin(1_000);
        let (v, new) = map.get_or_insert(100, 9);
        assert!(new, "a new batch forgets keys");
        assert_eq!(v, 9);
        let (v, new) = map.get_or_insert(7, 10);
        assert!(new, "a new batch forgets keys");
        assert_eq!(v, 10);
        map.end(&[100, 7]);
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
    fn dense_map_contract() {
        exercise_map(&mut DenseIdMap::new());
    }

    #[test]
    fn flat_map_grows_correctly() {
        let mut m = FlatIdMap::with_capacity(4);
        for i in 0..10_000u32 {
            let (v, new) = m.get_or_insert(i * 7 + 1, i);
            assert!(new);
            assert_eq!(v, i);
        }
        assert_eq!(m.filled.len(), 10_000);
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
    fn maps_agree_on_a_random_stream() {
        use salient_tensor::rng::Rng;
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(1);
        let (mut std, mut flat, mut dense) = (StdIdMap::new(), FlatIdMap::default(), DenseIdMap::new());
        for batch in 0..3 {
            std.begin(5_000);
            flat.begin(5_000);
            dense.begin(5_000);
            let mut keys = Vec::new();
            for _ in 0..20_000 >> batch {
                let key: u32 = rng.random_range(0u32..5_000);
                let next = keys.len() as u32;
                let (a, new_a) = std.get_or_insert(key, next);
                assert_eq!(flat.get_or_insert(key, next), (a, new_a));
                assert_eq!(dense.get_or_insert(key, next), (a, new_a));
                if new_a {
                    keys.push(key);
                }
            }
            assert_eq!(flat.filled.len(), keys.len());
            assert_eq!(std.map.len(), keys.len());
            std.end(&keys);
            flat.end(&keys);
            dense.end(&keys);
        }
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

        m.begin(0);
        assert!(m.filled.is_empty());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.get_or_insert(k, 500 + i as u32), (500 + i as u32, true), "key {k} survived");
        }
        assert_eq!(m.get_or_insert(stowaway, 0), (7, false));
    }

    #[test]
    fn dense_map_clear_visits_only_the_batch_nodes() {
        let mut m = DenseIdMap::new();
        m.begin(1 << 17);
        assert_eq!(m.slots.len(), 1 << 17);
        let keys: Vec<u32> = (0..100).map(|i| i * 1297 + 3).collect();
        for (i, &k) in keys.iter().enumerate() {
            assert!(m.get_or_insert(k, i as u32).1);
        }
        // A stowaway no batch inserted: an end that swept all 2^17 slots
        // would evict it, one that walks the batch's 100 nodes cannot find
        // it.
        let stowaway = 100_000u32;
        assert!(!keys.contains(&stowaway));
        m.slots[stowaway as usize] = 7;

        m.end(&keys);
        m.begin(1 << 17);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.get_or_insert(k, 500 + i as u32), (500 + i as u32, true), "key {k} survived");
        }
        assert_eq!(m.get_or_insert(stowaway, 0), (7, false));
    }

    #[test]
    fn dense_map_grows_for_a_larger_graph_and_resets_after_an_unended_batch() {
        let mut m = DenseIdMap::new();
        m.begin(10);
        assert_eq!(m.slots.len(), 10);
        assert_eq!(m.get_or_insert(9, 0), (0, true));
        m.end(&[9]);
        m.begin(4);
        assert_eq!(m.slots.len(), 10, "a smaller graph keeps the table");
        assert_eq!(m.get_or_insert(3, 0), (0, true));
        // No `end`: the batch panicked. Its key must not leak into the next.
        m.begin(1_000);
        assert_eq!(m.slots.len(), 1_000);
        assert!(m.slots.iter().all(|&s| s == EMPTY));
        assert_eq!(m.get_or_insert(3, 5), (5, true));
        assert_eq!(m.get_or_insert(999, 6), (6, true));
        m.end(&[3, 999]);
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
