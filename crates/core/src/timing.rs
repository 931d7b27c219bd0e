//! Per-stage wall-clock accounting (the real-execution analogue of
//! Table 1's blocking-time columns).
//!
//! Since the observability pass, `StageTimings` is a *view*: the executors
//! in [`crate::train`] stamp stage spans into a [`salient_trace::Trace`] and
//! derive these seconds from the recorded intervals
//! ([`StageTimings::from_report`]), so the legacy struct and the trace
//! reports can never disagree — they are the same clock reads.

use salient_trace::PipelineReport;

/// Blocking time per pipeline stage over one epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Batch preparation (sampling + slicing) blocking seconds.
    pub prep_s: f64,
    /// Host→device staging ("transfer", including the f16→f32 upcast).
    pub transfer_s: f64,
    /// Model compute (forward + backward + step).
    pub train_s: f64,
    /// End-to-end epoch seconds.
    pub total_s: f64,
}

impl StageTimings {
    /// The view over a trace analysis: stage seconds from the trainer's
    /// recorded span intervals.
    pub fn from_report(r: &PipelineReport) -> StageTimings {
        StageTimings {
            prep_s: r.prep_ns as f64 / 1e9,
            transfer_s: r.transfer_ns as f64 / 1e9,
            train_s: r.compute_ns as f64 / 1e9,
            total_s: r.window_ns as f64 / 1e9,
        }
    }

    /// Seconds attributed to a stage.
    pub fn stage_s(&self, stage: Stage) -> f64 {
        match stage {
            Stage::Prep => self.prep_s,
            Stage::Transfer => self.transfer_s,
            Stage::Train => self.train_s,
        }
    }

    /// Percent of the total attributed to a stage.
    pub fn pct(&self, stage: Stage) -> f64 {
        self.pct_of(self.stage_s(stage))
    }

    /// Percent of the total attributed to the unattributed remainder.
    pub fn other_pct(&self) -> f64 {
        self.pct_of(self.other_s())
    }

    fn pct_of(&self, stage_s: f64) -> f64 {
        if self.total_s == 0.0 {
            0.0
        } else {
            100.0 * stage_s / self.total_s
        }
    }

    /// Unattributed time (scheduling gaps, pipeline fill).
    pub fn other_s(&self) -> f64 {
        (self.total_s - self.prep_s - self.transfer_s - self.train_s).max(0.0)
    }
}

/// Pipeline stage label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Sampling + slicing.
    Prep,
    /// Host→device staging.
    Transfer,
    /// Forward/backward/update.
    Train,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_over_a_report() {
        let r = PipelineReport {
            window_ns: 2_000_000_000,
            prep_ns: 500_000_000,
            transfer_ns: 250_000_000,
            compute_ns: 1_000_000_000,
            ..PipelineReport::default()
        };
        let t = StageTimings::from_report(&r);
        assert!((t.total_s - 2.0).abs() < 1e-12);
        assert!((t.pct(Stage::Prep) - 25.0).abs() < 1e-9);
        assert!((t.pct(Stage::Train) - 50.0).abs() < 1e-9);
        assert!((t.other_s() - 0.25).abs() < 1e-12);
        assert!((t.other_pct() - 12.5).abs() < 1e-9);
    }
}
