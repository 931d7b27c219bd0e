//! Serving configuration: admission thresholds, the degradation ladder,
//! and circuit-breaker tuning (DESIGN.md §11 documents the policy).

#![expect(
    clippy::indexing_slicing,
    reason = "the ladder is asserted non-empty on the line above"
)]

/// Tuning for one serving instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum queries coalesced into one sampler micro-batch.
    pub max_batch: usize,
    /// Bounded pending-queue capacity; admission sheds `Overload` beyond
    /// it. Keeping this a small multiple of `max_batch` is what bounds
    /// worst-case queueing latency (and hence overload p99).
    pub queue_capacity: usize,
    /// Fanout ladder, level 0 first (full quality). Every level must have
    /// the same number of hops (the model's layer count).
    pub fanout_ladder: Vec<Vec<usize>>,
    /// Fraction of `queue_capacity` at which a micro-batch counts as
    /// "pressured" for the degradation ladder.
    pub pressure_occupancy: f64,
    /// Consecutive pressured micro-batches before stepping the ladder down.
    pub degrade_after: u32,
    /// Consecutive calm micro-batches before stepping back up (the
    /// hysteresis gap: make this larger than `degrade_after` so the ladder
    /// does not flap).
    pub restore_after: u32,
    /// Consecutive failed micro-batches that trip the breaker open.
    pub breaker_open_after: u32,
    /// Nanoseconds an open breaker waits before admitting probe traffic.
    pub breaker_cooldown_ns: u64,
    /// Successful single-request probes required to close a half-open
    /// breaker.
    pub breaker_probes: u32,
    /// Base RNG seed (model eval stream, sampler respawn streams).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            queue_capacity: 32,
            fanout_ladder: vec![vec![10, 10], vec![5, 5], vec![2, 2]],
            pressure_occupancy: 0.75,
            degrade_after: 2,
            restore_after: 4,
            breaker_open_after: 3,
            breaker_cooldown_ns: 50_000_000,
            breaker_probes: 2,
            seed: 0,
        }
    }
}

impl ServeConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration: empty or ragged fanout
    /// ladder, zero batch or queue, or a queue smaller than one batch.
    pub(crate) fn validate(&self) {
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(
            self.queue_capacity >= self.max_batch,
            "queue must hold at least one full micro-batch"
        );
        assert!(!self.fanout_ladder.is_empty(), "fanout ladder cannot be empty");
        let hops = self.fanout_ladder[0].len();
        assert!(hops > 0, "fanouts cannot be empty");
        assert!(
            self.fanout_ladder.iter().all(|l| l.len() == hops),
            "every ladder level must have the same hop count"
        );
        assert!(
            (0.0..=1.0).contains(&self.pressure_occupancy),
            "pressure_occupancy is a fraction"
        );
        assert!(self.degrade_after > 0 && self.restore_after > 0);
        assert!(self.breaker_open_after > 0 && self.breaker_probes > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ServeConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "same hop count")]
    fn ragged_ladder_rejected() {
        let cfg = ServeConfig {
            fanout_ladder: vec![vec![5, 5], vec![3]],
            ..ServeConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "queue must hold")]
    fn queue_smaller_than_batch_rejected() {
        let cfg = ServeConfig {
            max_batch: 8,
            queue_capacity: 4,
            ..ServeConfig::default()
        };
        cfg.validate();
    }
}
