//! Work distribution for batch preparation.
//!
//! SALIENT's batch-prep threads "balance load dynamically via a lock-free
//! input queue that contains the destination nodes for each mini-batch"
//! (§4.2): every worker pulls its next batch from the same queue, so a worker
//! stuck on a giant neighborhood does not delay the rest of the epoch.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The epoch's one claim cursor over its batch ids. A claim is one
/// `fetch_add`, so the queue is genuinely lock-free, and what the claimed
/// batch covers of the epoch's node order is computed from its id.
#[derive(Debug)]
pub(crate) struct WorkQueue {
    nodes: usize,
    batch_size: usize,
    cursor: AtomicUsize,
}

impl WorkQueue {
    /// A queue over an epoch of `nodes` nodes cut into batches of
    /// `batch_size` (the last batch may be short).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub(crate) fn new(nodes: usize, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        WorkQueue { nodes, batch_size, cursor: AtomicUsize::new(0) }
    }

    /// The next unclaimed batch: its id `b` and its range
    /// `b·B .. min((b + 1)·B, nodes)` of the epoch order; `None` once every
    /// batch is claimed.
    pub(crate) fn next(&self) -> Option<(usize, Range<usize>)> {
        // The cursor only needs each id handed out once, and nothing else is
        // published through it, so relaxed ordering on the fetch_add is
        // sufficient.
        let b = self.cursor.fetch_add(1, Ordering::Relaxed);
        let start = b.checked_mul(self.batch_size).filter(|&s| s < self.nodes)?;
        Some((b, start..self.nodes.min(start + self.batch_size)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_cover_the_epoch_exactly_once_in_id_order() {
        let q = WorkQueue::new(10, 4);
        let claimed: Vec<_> = std::iter::from_fn(|| q.next()).collect();
        assert_eq!(claimed, vec![(0, 0..4), (1, 4..8), (2, 8..10)]);
        assert_eq!(q.next(), None, "a drained queue stays drained");
    }

    #[test]
    fn dynamic_queue_is_safe_under_concurrency() {
        let q = WorkQueue::new(1_000, 1);
        let popped: Vec<Vec<usize>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| s.spawn(|| std::iter::from_fn(|| q.next()).map(|(b, _)| b).collect()))
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for ids in &popped {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "a thread's ids went backwards: {ids:?}");
        }
        let mut all = popped.concat();
        all.sort_unstable();
        assert_eq!(all, (0..1_000).collect::<Vec<_>>(), "every id exactly once");
    }
}
