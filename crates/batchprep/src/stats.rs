//! Fault-handling accounting for batch preparation. What an epoch prepared
//! and how long it took is in the trace: the sample/slot-wait/slice/copy
//! spans, the sample span carrying the batch's nodes and edges and the
//! slice span its staged bytes.

/// Fault-handling activity observed during one epoch of batch preparation,
/// returned by `EpochHandle::join`. With a disabled trace it is the only
/// record of a fault.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Per-item panics caught inside workers (each either retried or
    /// terminally failed).
    pub item_panics: usize,
    /// Attempts repeated after a caught item panic.
    pub retries: usize,
    /// Batches that exhausted their retry budget and were reported as
    /// `BatchResult::Failed`.
    pub failed_batches: usize,
    /// Worker incarnations that died (panicked outside the per-item guard).
    pub worker_panics: usize,
    /// Incarnations started in a dead one's place, under its worker id.
    pub respawns: usize,
    /// Whether the worker set collapsed and the last worker to leave
    /// finished the epoch with inline preparation.
    pub degraded_inline: bool,
}

impl FaultStats {
    /// Whether any fault activity was observed at all.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_stats_any() {
        let mut f = FaultStats::default();
        assert!(!f.any());
        f.retries = 1;
        assert!(f.any());
    }
}
