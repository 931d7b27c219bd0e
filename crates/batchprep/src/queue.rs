//! Work distribution for batch preparation.
//!
//! SALIENT's batch-prep threads "balance load dynamically via a lock-free
//! input queue that contains the destination nodes for each mini-batch"
//! (§4.2); the PyTorch DataLoader baseline instead assigns batches to worker
//! processes *statically* (round-robin), which loses to dynamic balancing
//! because final neighborhood size varies substantially across batches. Both
//! strategies are implemented here.

#![expect(
    clippy::indexing_slicing,
    reason = "both indices are reduced modulo the worker count, which `new` asserts is positive"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One unit of work: prepare the mini-batch with the given id from a range
/// of the epoch's (already shuffled) node order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkItem {
    /// Sequential batch index within the epoch.
    pub batch_id: usize,
    /// Start offset into the epoch node order.
    pub start: usize,
    /// One-past-end offset into the epoch node order.
    pub end: usize,
}

/// Splits an epoch of `n` nodes into batch work items of `batch_size`
/// (the last batch may be short).
pub fn make_work_items(n: usize, batch_size: usize) -> Vec<WorkItem> {
    assert!(batch_size > 0, "batch size must be positive");
    (0..n)
        .step_by(batch_size)
        .enumerate()
        .map(|(batch_id, start)| WorkItem {
            batch_id,
            start,
            end: (start + batch_size).min(n),
        })
        .collect()
}

/// A strategy for handing work items to `num_workers` preparation threads.
pub trait WorkSource: Send + Sync {
    /// Next item for worker `worker`; `None` when the worker is done.
    fn next(&self, worker: usize) -> Option<WorkItem>;

    /// Items not yet claimed by any worker: whether a dead worker is worth
    /// replacing, and whether a collapsed worker set left work behind.
    fn remaining(&self) -> usize;
}

/// Lock-free dynamic load balancing (SALIENT): all workers pop from one
/// queue, so a worker stuck on a giant neighborhood does not delay the rest
/// of the epoch.
///
/// The epoch's items are known up front, so "queue" reduces to an immutable
/// item list plus an atomic claim cursor — a single `fetch_add` per pop,
/// genuinely lock-free (stronger than the segmented queue this replaced,
/// which locked per segment allocation).
#[derive(Debug)]
pub struct DynamicQueue {
    items: Vec<WorkItem>,
    cursor: AtomicUsize,
}

impl DynamicQueue {
    /// Builds a queue preloaded with the epoch's work items.
    pub fn new(items: Vec<WorkItem>) -> Arc<Self> {
        Arc::new(DynamicQueue { items, cursor: AtomicUsize::new(0) })
    }

    /// Number of items not yet claimed.
    pub fn remaining(&self) -> usize {
        self.items
            .len()
            .saturating_sub(self.cursor.load(Ordering::Acquire))
    }
}

impl WorkSource for DynamicQueue {
    fn next(&self, _worker: usize) -> Option<WorkItem> {
        // The claim cursor only needs each index handed out once, and the
        // item data is immutable after construction, so relaxed ordering
        // on the fetch_add is sufficient.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.items.get(i).cloned()
    }

    fn remaining(&self) -> usize {
        DynamicQueue::remaining(self)
    }
}

/// Static round-robin partitioning (the PyTorch DataLoader scheme): batch
/// `b` is pinned to worker `b % num_workers` up front.
#[derive(Debug)]
pub struct StaticPartition {
    per_worker: Vec<(Vec<WorkItem>, AtomicUsize)>,
}

impl StaticPartition {
    /// Pre-assigns the items round-robin across `num_workers`.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers == 0`.
    pub fn new(items: Vec<WorkItem>, num_workers: usize) -> Arc<Self> {
        assert!(num_workers > 0, "need at least one worker");
        let mut per_worker: Vec<(Vec<WorkItem>, AtomicUsize)> = (0..num_workers)
            .map(|_| (Vec::new(), AtomicUsize::new(0)))
            .collect();
        for item in items {
            per_worker[item.batch_id % num_workers].0.push(item);
        }
        Arc::new(StaticPartition { per_worker })
    }
}

impl WorkSource for StaticPartition {
    fn next(&self, worker: usize) -> Option<WorkItem> {
        let (items, cursor) = &self.per_worker[worker % self.per_worker.len()];
        // Relaxed: per-worker cursor over an immutable pre-partitioned list;
        // uniqueness of the fetch_add result is the only requirement.
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        items.get(i).cloned()
    }

    fn remaining(&self) -> usize {
        self.per_worker
            .iter()
            .map(|(items, cursor)| {
                items.len().saturating_sub(cursor.load(Ordering::Acquire))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn work_items_cover_epoch_exactly() {
        let items = make_work_items(10, 4);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0], WorkItem { batch_id: 0, start: 0, end: 4 });
        assert_eq!(items[2], WorkItem { batch_id: 2, start: 8, end: 10 });
        let covered: usize = items.iter().map(|i| i.end - i.start).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn dynamic_queue_hands_out_each_item_once() {
        let q = DynamicQueue::new(make_work_items(100, 10));
        let mut seen = HashSet::new();
        while let Some(item) = q.next(0) {
            assert!(seen.insert(item.batch_id));
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn dynamic_queue_is_safe_under_concurrency() {
        let q = DynamicQueue::new(make_work_items(1_000, 1));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for w in 0..4 {
                let q = Arc::clone(&q);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    while let Some(_item) = q.next(w) {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 1_000);
    }

    #[test]
    fn static_partition_respects_assignment() {
        let p = StaticPartition::new(make_work_items(12, 2), 3);
        for w in 0..3 {
            while let Some(item) = p.next(w) {
                assert_eq!(item.batch_id % 3, w, "batch pinned to wrong worker");
            }
        }
    }

    #[test]
    fn remaining_tracks_both_sources() {
        let q = DynamicQueue::new(make_work_items(10, 2));
        assert_eq!(WorkSource::remaining(&*q), 5);
        q.next(0);
        assert_eq!(WorkSource::remaining(&*q), 4);

        let p = StaticPartition::new(make_work_items(10, 2), 2);
        assert_eq!(p.remaining(), 5);
        p.next(0);
        p.next(1);
        assert_eq!(p.remaining(), 3);
    }
}
