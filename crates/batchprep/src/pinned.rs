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

use salient_graph::{FeatureRows, FeatureRowsMut, FeatureSlab};
use salient_tensor::sync::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use salient_tensor::Dtype;

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
    home: Sender<Buffers>,
    used_features: usize,
    used_labels: usize,
}

impl PinnedSlot {
    /// Resizes the slot for a batch of `num_nodes × dim` features and
    /// `num_labels` labels, growing the backing buffers only when needed
    /// (growth is logged in pool statistics as a slot-overflow in real
    /// systems; here we simply grow).
    pub fn prepare(&mut self, num_nodes: usize, dim: usize, num_labels: usize) {
        // lint: allow(panic-freedom, buffers are only None after Drop runs; reaching this is an API-contract bug, not a runtime fault)
        let b = self.buffers.as_mut().expect("slot already returned");
        let need = num_nodes * dim;
        if b.features.len() < need {
            b.features.resize(need);
        }
        if b.labels.len() < num_labels {
            b.labels.resize(num_labels, 0);
        }
        self.used_features = need;
        self.used_labels = num_labels;
    }

    /// The writable feature region sized by the last [`PinnedSlot::prepare`].
    pub fn features_mut(&mut self) -> FeatureRowsMut<'_> {
        let used = self.used_features;
        // lint: allow(panic-freedom, buffers are only None after Drop runs; unreachable through the public API)
        self.buffers.as_mut().expect("slot already returned").features.view_mut(0, used)
    }

    /// The writable label region.
    pub fn labels_mut(&mut self) -> &mut [u32] {
        let used = self.used_labels;
        // lint: allow(panic-freedom, buffers are only None after Drop runs; unreachable through the public API)
        &mut self.buffers.as_mut().expect("slot already returned").labels[..used]
    }

    /// The filled feature region.
    pub fn features(&self) -> FeatureRows<'_> {
        // lint: allow(panic-freedom, buffers are only None after Drop runs; unreachable through the public API)
        self.buffers.as_ref().expect("slot already returned").features.view(0, self.used_features)
    }

    /// The dtype the slot stages features at.
    pub fn dtype(&self) -> Dtype {
        // lint: allow(panic-freedom, buffers are only None after Drop runs; unreachable through the public API)
        self.buffers.as_ref().expect("slot already returned").features.dtype()
    }

    /// The filled label region.
    pub fn labels(&self) -> &[u32] {
        // lint: allow(panic-freedom, buffers are only None after Drop runs; unreachable through the public API)
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

impl Drop for PinnedSlot {
    fn drop(&mut self) {
        if let Some(buffers) = self.buffers.take() {
            // If the pool is gone the buffers are simply freed.
            let _ = self.home.send(buffers);
        }
    }
}

/// A fixed-size pool of staging slots shared by batch-preparation threads.
#[derive(Debug, Clone)]
pub struct PinnedPool {
    rx: Receiver<Buffers>,
    tx: Sender<Buffers>,
    capacity: usize,
}

impl PinnedPool {
    /// Creates a pool of `slots` buffers staging features at `dtype`, each
    /// pre-sized for `nodes_hint × dim` features and `labels_hint` labels.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    pub fn new(slots: usize, nodes_hint: usize, dim: usize, labels_hint: usize, dtype: Dtype) -> Self {
        assert!(slots > 0, "pool needs at least one slot");
        let (tx, rx) = bounded(slots);
        for _ in 0..slots {
            tx.send(Buffers {
                features: FeatureSlab::new(dtype, nodes_hint * dim),
                labels: vec![0; labels_hint],
            })
            // lint: allow(panic-freedom, both channel endpoints are held locally while filling; send cannot observe a disconnect)
            .expect("filling fresh pool cannot fail");
        }
        PinnedPool { rx, tx, capacity: slots }
    }

    /// Number of slots in the pool.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots currently available (not checked out).
    pub fn available(&self) -> usize {
        self.rx.len()
    }

    /// Checks out a slot, blocking until one is free. This is the
    /// backpressure point bounding in-flight batches.
    pub fn acquire(&self) -> PinnedSlot {
        let buffers = self
            .rx
            .recv()
            // lint: allow(panic-freedom, the pool owns a Sender clone for its whole lifetime, so recv can never see all senders gone)
            .expect("pool sender lives as long as the pool");
        PinnedSlot {
            buffers: Some(buffers),
            home: self.tx.clone(),
            used_features: 0,
            used_labels: 0,
        }
    }

    /// Tries to check out a slot without blocking.
    pub fn try_acquire(&self) -> Option<PinnedSlot> {
        self.rx.try_recv().ok().map(|buffers| PinnedSlot {
            buffers: Some(buffers),
            home: self.tx.clone(),
            used_features: 0,
            used_labels: 0,
        })
    }

    /// Checks out a slot, waiting until one frees or `cancel` is observed
    /// set; returns `None` on cancellation.
    ///
    /// The wait is a condvar sleep, not a spin: cancelling an epoch drops
    /// the prepared-batch receiver, which destroys any parked batches and
    /// returns their slots to the pool — waking this waiter promptly. The
    /// internal timeout slice only bounds the pathological case where no
    /// slot ever returns.
    pub fn acquire_cancellable(
        &self,
        cancel: &std::sync::atomic::AtomicBool,
    ) -> Option<PinnedSlot> {
        use std::sync::atomic::Ordering;
        const SLICE: std::time::Duration = std::time::Duration::from_millis(50);
        loop {
            if cancel.load(Ordering::Acquire) {
                return None;
            }
            match self.rx.recv_timeout(SLICE) {
                Ok(buffers) => {
                    let slot = PinnedSlot {
                        buffers: Some(buffers),
                        home: self.tx.clone(),
                        used_features: 0,
                        used_labels: 0,
                    };
                    if cancel.load(Ordering::Acquire) {
                        // Cancelled while waiting: hand the slot straight
                        // back (via drop) and report cancellation.
                        return None;
                    }
                    return Some(slot);
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
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
        assert!(pool.try_acquire().is_none(), "pool exhausted");
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
        // Buffer reuse is an implementation detail; what matters is the pool
        // refilled.
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn cancellable_acquire_returns_on_cancel() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let pool = PinnedPool::new(1, 1, 1, 1, Dtype::F16);
        let held = pool.acquire(); // exhaust the pool
        let cancel = Arc::new(AtomicBool::new(false));
        let pool2 = pool.clone();
        let cancel2 = Arc::clone(&cancel);
        let waiter = std::thread::spawn(move || pool2.acquire_cancellable(&cancel2).is_none());
        std::thread::sleep(std::time::Duration::from_millis(10));
        cancel.store(true, Ordering::Release);
        assert!(waiter.join().unwrap(), "cancelled acquire must yield None");
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
