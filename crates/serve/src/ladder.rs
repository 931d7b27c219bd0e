//! The fanout degradation ladder.
//!
//! Under sustained queue pressure the server trades answer fidelity for
//! throughput by stepping sampling fanouts down a configured ladder (the
//! paper's §5.4 result is what makes this safe: sampled inference degrades
//! gracefully with fanout, it does not cliff). Hysteresis — more calm
//! observations to restore than pressured ones to degrade — keeps the
//! ladder from flapping at the pressure boundary.

#![expect(
    clippy::indexing_slicing,
    reason = "level is clamped below levels.len() by every ladder move"
)]

/// A ladder transition the caller should record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LadderMove {
    /// Stepped down one level (cheaper fanouts).
    Degraded,
    /// Stepped up one level (restored fidelity).
    Restored,
}

/// Hysteresis state machine over per-micro-batch pressure observations.
#[derive(Debug)]
pub(crate) struct Ladder {
    levels: Vec<Vec<usize>>,
    level: usize,
    pressured_streak: u32,
    calm_streak: u32,
    degrade_after: u32,
    restore_after: u32,
}

impl Ladder {
    /// A ladder starting at level 0 (full quality).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or a threshold is zero (validated
    /// upstream by `ServeConfig::validate`).
    pub(crate) fn new(levels: Vec<Vec<usize>>, degrade_after: u32, restore_after: u32) -> Self {
        assert!(!levels.is_empty() && degrade_after > 0 && restore_after > 0);
        Ladder {
            levels,
            level: 0,
            pressured_streak: 0,
            calm_streak: 0,
            degrade_after,
            restore_after,
        }
    }

    /// The current level (0 = full quality, higher = cheaper).
    pub(crate) fn level(&self) -> usize {
        self.level
    }

    /// The fanouts micro-batches should sample with right now.
    pub(crate) fn fanouts(&self) -> &[usize] {
        &self.levels[self.level]
    }

    /// Feeds one per-micro-batch pressure observation; returns the
    /// transition to record, if any. Streaks reset on every transition *and*
    /// whenever the observation flips, so both directions require an
    /// unbroken run.
    pub(crate) fn observe(&mut self, pressured: bool) -> Option<LadderMove> {
        if pressured {
            self.calm_streak = 0;
            self.pressured_streak += 1;
            if self.pressured_streak >= self.degrade_after && self.level + 1 < self.levels.len() {
                self.level += 1;
                self.pressured_streak = 0;
                return Some(LadderMove::Degraded);
            }
        } else {
            self.pressured_streak = 0;
            self.calm_streak += 1;
            if self.calm_streak >= self.restore_after && self.level > 0 {
                self.level -= 1;
                self.calm_streak = 0;
                return Some(LadderMove::Restored);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> Ladder {
        Ladder::new(vec![vec![10, 10], vec![5, 5], vec![2, 2]], 2, 3)
    }

    #[test]
    fn degrades_after_streak_and_saturates() {
        let mut l = ladder();
        assert_eq!(l.observe(true), None);
        assert_eq!(l.observe(true), Some(LadderMove::Degraded));
        assert_eq!(l.fanouts(), &[5, 5]);
        assert_eq!(l.observe(true), None);
        assert_eq!(l.observe(true), Some(LadderMove::Degraded));
        assert_eq!(l.level(), 2);
        // Bottom of the ladder: stays put.
        for _ in 0..10 {
            assert_eq!(l.observe(true), None);
        }
        assert_eq!(l.level(), 2);
    }

    #[test]
    fn restores_with_hysteresis() {
        let mut l = ladder();
        l.observe(true);
        l.observe(true); // level 1
        assert_eq!(l.observe(false), None);
        assert_eq!(l.observe(false), None);
        assert_eq!(l.observe(false), Some(LadderMove::Restored));
        assert_eq!(l.level(), 0);
        // Top of the ladder: stays put.
        for _ in 0..10 {
            assert_eq!(l.observe(false), None);
        }
    }

    #[test]
    fn flapping_observations_never_transition() {
        let mut l = ladder();
        for _ in 0..50 {
            assert_eq!(l.observe(true), None);
            assert_eq!(l.observe(false), None);
        }
        assert_eq!(l.level(), 0, "alternating pressure must not move the ladder");
    }
}
