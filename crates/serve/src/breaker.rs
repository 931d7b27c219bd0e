//! The serving circuit breaker: Closed → Open → HalfOpen → Closed.
//!
//! Consecutive micro-batch failures (crashed sampler, poisoned model) open
//! the breaker; while open, admission sheds everything instantly instead of
//! queueing work onto a broken pipeline. After a clock-timed cooldown the
//! breaker turns half-open and admits single-request probe batches; enough
//! consecutive probe successes close it, any probe failure re-opens it.
//!
//! The breaker is a pure state machine over caller-supplied timestamps —
//! no clock reads of its own — so it is trivially deterministic under a
//! `VirtualClock`.

/// The breaker's observable state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: admission and batching run normally.
    Closed,
    /// Tripped: all traffic is shed at admission until the cooldown ends.
    Open,
    /// Cooling down: single-request probe batches are admitted to test the
    /// pipeline before restoring full service.
    HalfOpen,
}

/// A state transition the caller should record (trace event / counter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BreakerMove {
    /// Closed (or HalfOpen) → Open.
    Opened,
    /// Open → HalfOpen (cooldown elapsed).
    HalfOpened,
    /// HalfOpen → Closed (probes succeeded).
    Closed,
}

/// Circuit breaker over consecutive micro-batch failures.
#[derive(Debug)]
pub(crate) struct Breaker {
    state: BreakerState,
    open_after: u32,
    cooldown_ns: u64,
    probes_needed: u32,
    consecutive_failures: u32,
    probe_successes: u32,
    opened_at_ns: u64,
}

impl Breaker {
    /// A closed breaker that opens after `open_after` consecutive failures,
    /// stays open `cooldown_ns`, and closes again after `probes_needed`
    /// successful half-open probes.
    pub(crate) fn new(open_after: u32, cooldown_ns: u64, probes_needed: u32) -> Self {
        Breaker {
            state: BreakerState::Closed,
            open_after,
            cooldown_ns,
            probes_needed,
            consecutive_failures: 0,
            probe_successes: 0,
            opened_at_ns: 0,
        }
    }

    /// Current state (after any cooldown transition `poll` applied).
    pub(crate) fn state(&self) -> BreakerState {
        self.state
    }

    /// Applies the time-driven transition: an open breaker whose cooldown
    /// has elapsed becomes half-open. Call before consulting
    /// [`Breaker::state`] for admission.
    pub(crate) fn poll(&mut self, now_ns: u64) -> Option<BreakerMove> {
        if self.state == BreakerState::Open
            && now_ns.saturating_sub(self.opened_at_ns) >= self.cooldown_ns
        {
            self.state = BreakerState::HalfOpen;
            self.probe_successes = 0;
            return Some(BreakerMove::HalfOpened);
        }
        None
    }

    /// Records a successful micro-batch.
    pub(crate) fn on_success(&mut self) -> Option<BreakerMove> {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.probe_successes += 1;
            if self.probe_successes >= self.probes_needed {
                self.state = BreakerState::Closed;
                return Some(BreakerMove::Closed);
            }
        }
        None
    }

    /// Records a failed micro-batch (a caught pipeline panic).
    pub(crate) fn on_failure(&mut self, now_ns: u64) -> Option<BreakerMove> {
        match self.state {
            BreakerState::HalfOpen => {
                // Any probe failure re-opens immediately: the pipeline is
                // demonstrably still broken.
                self.state = BreakerState::Open;
                self.opened_at_ns = now_ns;
                self.consecutive_failures = 0;
                Some(BreakerMove::Opened)
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.open_after {
                    self.state = BreakerState::Open;
                    self.opened_at_ns = now_ns;
                    self.consecutive_failures = 0;
                    Some(BreakerMove::Opened)
                } else {
                    None
                }
            }
            BreakerState::Open => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cycle_closed_open_half_open_closed() {
        let mut b = Breaker::new(2, 1_000, 2);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.on_failure(10), None);
        assert_eq!(b.on_failure(20), Some(BreakerMove::Opened));
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown not yet elapsed.
        assert_eq!(b.poll(500), None);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.poll(1_020), Some(BreakerMove::HalfOpened));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.on_success(), None);
        assert_eq!(b.on_success(), Some(BreakerMove::Closed));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn probe_failure_reopens() {
        let mut b = Breaker::new(1, 100, 1);
        assert_eq!(b.on_failure(0), Some(BreakerMove::Opened));
        assert_eq!(b.poll(100), Some(BreakerMove::HalfOpened));
        assert_eq!(b.on_failure(150), Some(BreakerMove::Opened));
        // The cooldown restarts from the re-open instant.
        assert_eq!(b.poll(200), None);
        assert_eq!(b.poll(250), Some(BreakerMove::HalfOpened));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = Breaker::new(3, 100, 1);
        b.on_failure(0);
        b.on_failure(1);
        b.on_success();
        b.on_failure(2);
        b.on_failure(3);
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
        assert_eq!(b.on_failure(4), Some(BreakerMove::Opened));
    }
}
