//! A bounded pool of reusable "pinned" staging buffers.
//!
//! In SALIENT, "a batch preparation thread writes sliced tensors directly
//! into pinned memory accessible by the main process" (§4.2). Pinned (page-
//! locked) memory enables asynchronous DMA and cannot be allocated per batch
//! without large costs, so a fixed set of slots is recycled; the bounded pool
//! also provides natural backpressure on how many batches are in flight.
//!
//! Here a slot is a pair of host buffers (packed features at the dataset's
//! dtype — f16 by default, so the staged copy moves half the bytes — plus
//! labels). Returning a slot to the pool is automatic on drop.
//!
//! The free slots are a stack, not a queue: `acquire` hands out the slot
//! released most recently. A worker whose consumer drops each batch as it
//! comes then slices into the buffer it filled one batch ago, still in its
//! cache, rather than the one it filled `capacity` batches ago (the tensor
//! scratch pool recycles its buffers the same way).
//!
//! A pool is meant to outlive the epochs it serves: `Trainer`, `ServerCore`
//! and `BatchInferencer` each build one and keep it. Creating one writes no
//! feature memory itself: the buffers come zeroed from `calloc`, which maps a
//! block above glibc's 4 MiB `mmap` threshold untouched but clears a smaller
//! one it recycles from the heap. A slot grows on demand, to a quarter more
//! than the batch at hand needs, without copying or clearing what the next
//! slice overwrites anyway.

#![expect(
    clippy::indexing_slicing,
    reason = "`prepare` grows the label buffer to at least `used_labels` before recording it, so the used prefix is in range"
)]

use salient_graph::{FeatureRows, FeatureRowsMut, FeatureSlab};
use salient_tensor::sync::{lock_unpoisoned, wait_unpoisoned};
use salient_tensor::{Dtype, RowStore};
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug)]
struct Buffers {
    features: FeatureSlab,
    labels: Vec<u32>,
}

/// A staging buffer checked out of a [`PinnedPool`]; returns itself to the
/// pool when dropped.
#[derive(Debug)]
pub struct PinnedSlot {
    buffers: Option<Buffers>,
    home: Arc<FreeList>,
    used_features: usize,
    used_labels: usize,
}

impl PinnedSlot {
    /// Exposes room for a batch of `num_nodes × dim` features and
    /// `num_labels` labels. What the regions hold is unspecified (an earlier
    /// batch, or zeros): the caller slices over all of it. The backing
    /// buffers grow only when the batch does not fit, and then to a quarter
    /// more than it needs, so a stream of like-sized batches grows a slot
    /// once.
    pub fn prepare(&mut self, num_nodes: usize, dim: usize, num_labels: usize) {
        #[expect(clippy::expect_used, reason = "buffers are only None after Drop runs; reaching this is an API-contract bug, not a runtime fault")]
        let b = self.buffers.as_mut().expect("slot already returned");
        let need = num_nodes * dim;
        if b.features.len() < need {
            // Nothing in the old buffer is wanted: free it first, so the
            // allocator can reuse it and the peak is one buffer, not two.
            let dtype = b.features.dtype();
            b.features = FeatureSlab::new(dtype, 0);
            b.features = FeatureSlab::new(dtype, need + need / 4);
        }
        if b.labels.len() < num_labels {
            b.labels.resize(num_labels, 0);
        }
        self.used_features = need;
        self.used_labels = num_labels;
    }

    /// The writable feature region sized by the last [`PinnedSlot::prepare`].
    #[expect(clippy::expect_used, reason = "buffers are only None after Drop runs; unreachable through the public API")]
    pub fn features_mut(&mut self) -> FeatureRowsMut<'_> {
        let used = self.used_features;
        self.buffers.as_mut().expect("slot already returned").features.view_mut(0, used)
    }

    /// The writable label region.
    #[expect(clippy::expect_used, reason = "buffers are only None after Drop runs; unreachable through the public API")]
    pub fn labels_mut(&mut self) -> &mut [u32] {
        let used = self.used_labels;
        &mut self.buffers.as_mut().expect("slot already returned").labels[..used]
    }

    /// The filled feature region.
    #[expect(clippy::expect_used, reason = "buffers are only None after Drop runs; unreachable through the public API")]
    pub fn features(&self) -> FeatureRows<'_> {
        self.buffers.as_ref().expect("slot already returned").features.view(0, self.used_features)
    }

    /// The dtype the slot stages features at.
    #[expect(clippy::expect_used, reason = "buffers are only None after Drop runs; unreachable through the public API")]
    pub(crate) fn dtype(&self) -> Dtype {
        self.buffers.as_ref().expect("slot already returned").features.dtype()
    }

    /// The filled label region.
    #[expect(clippy::expect_used, reason = "buffers are only None after Drop runs; unreachable through the public API")]
    pub fn labels(&self) -> &[u32] {
        &self.buffers.as_ref().expect("slot already returned").labels[..self.used_labels]
    }

    /// Bytes of payload currently staged in this slot (what a CPU→GPU DMA
    /// would move for features + labels). Feature bytes scale with the
    /// slot's dtype: an f16 pool stages half the bytes of an f32 pool.
    pub fn payload_bytes(&self) -> usize {
        self.used_features * self.dtype().size_of()
            + self.used_labels * std::mem::size_of::<u32>()
    }
}

/// A tape that is lent the slot ([`salient_tensor::Tape::constant_rows`])
/// reads the staged rows where they lie and gives the slot back to its pool
/// when it is dropped.
impl RowStore for PinnedSlot {
    fn rows(&self) -> FeatureRows<'_> {
        self.features()
    }
}

impl Drop for PinnedSlot {
    fn drop(&mut self) {
        if let Some(buffers) = self.buffers.take() {
            lock_unpoisoned(&self.home.slots).push(buffers);
            self.home.released.notify_one();
        }
    }
}

/// The slots not checked out, newest release on top, and the condvar a
/// waiting `acquire` sleeps on.
struct FreeList {
    slots: Mutex<Vec<Buffers>>,
    released: Condvar,
}

impl std::fmt::Debug for FreeList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreeList").finish_non_exhaustive()
    }
}

/// A fixed-size pool of staging slots shared by batch-preparation threads.
#[derive(Debug, Clone)]
pub struct PinnedPool {
    free: Arc<FreeList>,
    capacity: usize,
    dtype: Dtype,
}

impl PinnedPool {
    /// Creates a pool of `slots` buffers staging features at `dtype`, each
    /// with room for `nodes_hint × dim` features and `labels_hint` labels
    /// before its first growth. The hints may be 0 (a slot then sizes itself
    /// on its first batch). The memory comes zeroed from the allocator: a
    /// hint above its `mmap` threshold costs no writes and stays untouched
    /// until sliced into, a smaller one recycled from the heap is cleared.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn new(slots: usize, nodes_hint: usize, dim: usize, labels_hint: usize, dtype: Dtype) -> Self {
        assert!(slots > 0, "pool needs at least one slot");
        let buffers = (0..slots)
            .map(|_| Buffers {
                features: FeatureSlab::new(dtype, nodes_hint * dim),
                labels: vec![0; labels_hint],
            })
            .collect();
        let free = Arc::new(FreeList { slots: Mutex::new(buffers), released: Condvar::new() });
        PinnedPool { free, capacity: slots, dtype }
    }

    /// Number of slots in the pool.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The dtype every slot stages features at.
    pub(crate) fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Slots currently available (not checked out).
    pub fn available(&self) -> usize {
        lock_unpoisoned(&self.free.slots).len()
    }

    fn checked_out(&self, buffers: Buffers) -> PinnedSlot {
        PinnedSlot {
            buffers: Some(buffers),
            home: Arc::clone(&self.free),
            used_features: 0,
            used_labels: 0,
        }
    }

    /// Checks out the slot released most recently, blocking until one is
    /// free. This is the backpressure point bounding in-flight batches.
    pub fn acquire(&self) -> PinnedSlot {
        let mut free = lock_unpoisoned(&self.free.slots);
        loop {
            if let Some(buffers) = free.pop() {
                drop(free);
                return self.checked_out(buffers);
            }
            free = wait_unpoisoned(&self.free.released, free);
        }
    }

    /// Checks out the slot released most recently, waiting until one frees
    /// or `cancel` is observed set; returns `None` on cancellation.
    ///
    /// The wait is a condvar sleep with no timeout: a released slot wakes
    /// it, and so does [`PinnedPool::wake_cancelled`], which whoever sets
    /// `cancel` calls afterwards. `cancel` is read under the free-list lock
    /// that call takes, so a waiter cannot miss it between its check and its
    /// sleep.
    pub(crate) fn acquire_cancellable(
        &self,
        cancel: &std::sync::atomic::AtomicBool,
    ) -> Option<PinnedSlot> {
        use std::sync::atomic::Ordering;
        let mut free = lock_unpoisoned(&self.free.slots);
        loop {
            if cancel.load(Ordering::Acquire) {
                return None;
            }
            if let Some(buffers) = free.pop() {
                drop(free);
                return Some(self.checked_out(buffers));
            }
            free = wait_unpoisoned(&self.free.released, free);
        }
    }

    /// Wakes every [`PinnedPool::acquire_cancellable`] waiter so it rereads
    /// its cancel flag; call it after setting the flag.
    pub(crate) fn wake_cancelled(&self) {
        let _free = lock_unpoisoned(&self.free.slots);
        self.free.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_and_release_cycles() {
        let pool = PinnedPool::new(2, 16, 4, 8, Dtype::F16);
        assert_eq!(pool.available(), 2);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.available(), 0);
        drop(a);
        assert_eq!(pool.available(), 1);
        drop(b);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn prepare_grows_when_needed() {
        let pool = PinnedPool::new(1, 2, 4, 2, Dtype::F16);
        let mut slot = pool.acquire();
        slot.prepare(100, 4, 50);
        assert_eq!(slot.features_mut().len(), 400);
        assert_eq!(slot.labels_mut().len(), 50);
        assert_eq!(slot.payload_bytes(), 400 * 2 + 50 * 4);
    }

    /// Where a slot's feature buffer lies.
    fn buffer_of(slot: &PinnedSlot) -> usize {
        match slot.features() {
            FeatureRows::Half(rows) => rows.as_ptr() as usize,
            FeatureRows::Full(rows) => rows.as_ptr() as usize,
        }
    }

    #[test]
    fn prepare_regrows_only_for_a_batch_that_does_not_fit() {
        let pool = PinnedPool::new(1, 0, 4, 0, Dtype::F16);
        let mut slot = pool.acquire();
        slot.prepare(100, 4, 8);
        let first = buffer_of(&slot);
        // A quarter of headroom: 125 rows still fit, and so does anything
        // smaller, in the buffer the first batch was given.
        for rows in [125, 3, 100] {
            slot.prepare(rows, 4, 8);
            assert_eq!(buffer_of(&slot), first, "{rows} rows moved the buffer");
            assert_eq!(slot.features().len(), rows * 4);
        }
        drop(slot);
        // The buffer, not just the slot count, survives the round trip.
        let mut slot = pool.acquire();
        slot.prepare(100, 4, 8);
        assert_eq!(buffer_of(&slot), first);
        slot.prepare(126, 4, 8);
        assert_eq!(slot.features().len(), 126 * 4);
    }

    #[test]
    fn the_slot_released_last_is_acquired_next() {
        let pool = PinnedPool::new(3, 0, 4, 0, Dtype::F16);
        let never = std::sync::atomic::AtomicBool::new(false);
        let take = |slot: Option<PinnedSlot>| {
            let mut slot = slot.expect("a slot is free");
            slot.prepare(8, 4, 0);
            slot
        };
        // Three slots with a buffer each, released out of the order they
        // were taken in.
        let [a, b, c] = [(); 3].map(|()| take(Some(pool.acquire())));
        let [at_a, at_b, at_c] = [&a, &b, &c].map(buffer_of);
        assert_eq!(pool.available(), 0);
        drop(b);
        assert_eq!(pool.available(), 1);
        drop(a);
        assert_eq!(pool.available(), 2);
        let first = take(Some(pool.acquire()));
        assert_eq!(buffer_of(&first), at_a, "acquire passed over the slot released last");
        assert_eq!(pool.available(), 1);
        drop(c);
        assert_eq!(pool.available(), 2);
        let second = take(pool.acquire_cancellable(&never));
        assert_eq!(buffer_of(&second), at_c, "acquire_cancellable passed over the slot released last");
        drop(first);
        let third = take(pool.acquire_cancellable(&never));
        assert_eq!(buffer_of(&third), at_a);
        let fourth = take(Some(pool.acquire()));
        assert_eq!(buffer_of(&fourth), at_b, "the slot released first waited longest");
        assert_eq!(pool.available(), 0);
        drop((second, third, fourth));
        assert_eq!(pool.available(), 3);
    }

    /// Resident pages of this process, where `/proc` says.
    #[cfg(target_os = "linux")]
    fn resident_bytes() -> usize {
        let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
        let pages: usize = statm.split_whitespace().nth(1).unwrap().parse().unwrap();
        pages * 4096
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn creating_a_pool_touches_none_of_its_memory() {
        // 2 slots x 64 MiB, both dtypes: written, that is 256 MiB resident.
        const NODES: usize = 1 << 18;
        for dtype in [Dtype::F16, Dtype::F32] {
            let dim = 256 / dtype.size_of();
            let before = resident_bytes();
            let pool = PinnedPool::new(2, NODES, dim, 256, dtype);
            let grown = resident_bytes().saturating_sub(before);
            assert!(grown < 16 << 20, "{dtype:?}: creating the pool made {grown} bytes resident");
            // Nothing is exposed before `prepare`, and `prepare` within the
            // hint exposes exactly the batch.
            let mut slot = pool.acquire();
            assert_eq!(slot.features().len(), 0);
            assert_eq!(slot.labels().len(), 0);
            slot.prepare(1_000, dim, 256);
            assert_eq!(slot.features().len(), 1_000 * dim);
            assert!(slot.features().to_f32_vec().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn f32_pool_stages_double_the_feature_bytes() {
        let pool = PinnedPool::new(1, 2, 4, 2, Dtype::F32);
        let mut slot = pool.acquire();
        slot.prepare(100, 4, 50);
        assert_eq!(slot.dtype(), Dtype::F32);
        assert_eq!(slot.payload_bytes(), 400 * 4 + 50 * 4);
    }

    #[test]
    fn slot_contents_survive_round_trip() {
        let pool = PinnedPool::new(1, 4, 1, 4, Dtype::F16);
        {
            let mut slot = pool.acquire();
            slot.prepare(2, 1, 2);
            let staged = FeatureSlab::from_f32(Dtype::F16, &[1.5, -2.0]);
            slot.features_mut().copy_from(staged.rows());
            slot.labels_mut()[1] = 42;
            assert_eq!(slot.features().to_f32_vec(), vec![1.5, -2.0]);
            assert_eq!(slot.labels()[1], 42);
        }
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn cancellable_acquire_returns_on_cancel() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        use std::time::Duration;
        let pool = PinnedPool::new(1, 1, 1, 1, Dtype::F16);
        let held = pool.acquire(); // exhaust the pool
        let cancel = Arc::new(AtomicBool::new(false));
        let (pool2, cancel2) = (pool.clone(), Arc::clone(&cancel));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = done_tx.send(pool2.acquire_cancellable(&cancel2).is_none());
        });
        std::thread::sleep(Duration::from_millis(10));
        cancel.store(true, Ordering::Release);
        pool.wake_cancelled();
        // The slot stays held: only the wake can end the wait, and a missed
        // one fails here instead of hanging the test.
        let cancelled = done_rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(cancelled, Ok(true), "cancelled acquire must wake and yield None");
        waiter.join().unwrap();
        drop(held);
        assert_eq!(pool.available(), 1, "no slot may leak through cancellation");
    }

    #[test]
    fn cancellable_acquire_gets_slot_when_free() {
        use std::sync::atomic::AtomicBool;
        let pool = PinnedPool::new(1, 1, 1, 1, Dtype::F16);
        let cancel = AtomicBool::new(false);
        assert!(pool.acquire_cancellable(&cancel).is_some());
    }

    #[test]
    fn blocking_acquire_wakes_on_release() {
        let pool = PinnedPool::new(1, 1, 1, 1, Dtype::F16);
        let slot = pool.acquire();
        let pool2 = pool.clone();
        let handle = std::thread::spawn(move || {
            let _slot = pool2.acquire(); // blocks until main thread drops
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(slot);
        assert!(handle.join().unwrap());
    }
}
