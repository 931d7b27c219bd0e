//! Work distribution for batch preparation.
//!
//! SALIENT's batch-prep threads "balance load dynamically via a lock-free
//! input queue that contains the destination nodes for each mini-batch"
//! (§4.2); the PyTorch DataLoader baseline instead assigns batches to worker
//! processes *statically* (round-robin), which loses to dynamic balancing
//! because final neighborhood size varies substantially across batches. Both
//! strategies are one [`WorkQueue`], with one lane or one per worker.

#![expect(
    clippy::indexing_slicing,
    reason = "the lane index is reduced modulo the lane count, which `new` asserts is positive"
)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// One unit of work: prepare the mini-batch with the given id from a range
/// of the epoch's (already shuffled) node order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct WorkItem {
    /// Sequential batch index within the epoch.
    pub batch_id: usize,
    /// Start offset into the epoch node order.
    pub start: usize,
    /// One-past-end offset into the epoch node order.
    pub end: usize,
}

/// Splits an epoch of `n` nodes into batch work items of `batch_size`
/// (the last batch may be short).
pub(crate) fn make_work_items(n: usize, batch_size: usize) -> Vec<WorkItem> {
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

/// The epoch's work items and one claim cursor per lane; worker `w` claims
/// from lane `w % lanes`, and lane `l` holds items `l, l + lanes, ...`.
///
/// * One lane is SALIENT's lock-free dynamic queue: every worker pops from
///   the same cursor, so a worker stuck on a giant neighborhood does not
///   delay the rest of the epoch.
/// * `num_workers` lanes is the DataLoader's static round robin: batch `b`
///   is pinned to worker `b % num_workers` up front.
///
/// The items are known up front, so a pop is one `fetch_add` on an
/// immutable list — genuinely lock-free.
#[derive(Debug)]
pub(crate) struct WorkQueue {
    items: Vec<WorkItem>,
    cursors: Vec<AtomicUsize>,
}

impl WorkQueue {
    /// Spreads the epoch's `items` (in batch order) over `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub(crate) fn new(items: Vec<WorkItem>, lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one lane");
        let cursors = (0..lanes).map(|_| AtomicUsize::new(0)).collect();
        WorkQueue { items, cursors }
    }

    /// Next item for worker `worker`; `None` when its lane is drained.
    pub(crate) fn next(&self, worker: usize) -> Option<WorkItem> {
        let lanes = self.cursors.len();
        let lane = worker % lanes;
        // The claim cursor only needs each index handed out once, and the
        // item list is immutable after construction, so relaxed ordering on
        // the fetch_add is sufficient.
        let k = self.cursors[lane].fetch_add(1, Ordering::Relaxed);
        let i = k.checked_mul(lanes)?.checked_add(lane)?;
        self.items.get(i).cloned()
    }

    /// Items no worker has claimed yet: whether a dead worker is worth
    /// replacing, and whether a collapsed worker set left work behind.
    pub(crate) fn remaining(&self) -> usize {
        let lanes = self.cursors.len();
        self.cursors
            .iter()
            .enumerate()
            .map(|(lane, cursor)| {
                let len = self.items.len().saturating_sub(lane).div_ceil(lanes);
                len.saturating_sub(cursor.load(Ordering::Acquire))
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
        let q = WorkQueue::new(make_work_items(100, 10), 1);
        let mut seen = HashSet::new();
        while let Some(item) = q.next(0) {
            assert!(seen.insert(item.batch_id));
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn dynamic_queue_is_safe_under_concurrency() {
        let q = WorkQueue::new(make_work_items(1_000, 1), 1);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for w in 0..4 {
                let (q, total) = (&q, &total);
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
        let p = WorkQueue::new(make_work_items(12, 2), 3);
        for w in 0..3 {
            let mut claimed = 0;
            while let Some(item) = p.next(w) {
                assert_eq!(item.batch_id % 3, w, "batch pinned to wrong worker");
                claimed += 1;
            }
            assert_eq!(claimed, 2, "worker {w} drained its whole lane");
        }
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    fn remaining_tracks_both_sources() {
        let q = WorkQueue::new(make_work_items(10, 2), 1);
        assert_eq!(q.remaining(), 5);
        q.next(0);
        assert_eq!(q.remaining(), 4);

        let p = WorkQueue::new(make_work_items(10, 2), 2);
        assert_eq!(p.remaining(), 5);
        p.next(0);
        p.next(1);
        assert_eq!(p.remaining(), 3);
    }
}
