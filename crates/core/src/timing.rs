//! Per-stage wall-clock accounting (the real-execution analogue of
//! Table 1's blocking-time columns, less the transfer column: the trainer
//! has no transfer stage).
//!
//! `StageTimings` is a *view*: the executors in [`crate::train`] stamp stage
//! spans into a [`salient_trace::Trace`] and derive these seconds from the
//! recorded intervals ([`StageTimings::from_report`]). Shares of the epoch
//! are [`PipelineReport::stage_pcts`].

use salient_trace::PipelineReport;

/// Blocking time per pipeline stage over one epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Batch preparation (sampling + slicing) blocking seconds.
    pub prep_s: f64,
    /// Host→device transfer: always 0. [`crate::Trainer`] has no transfer
    /// stage (it counts the bytes a copy would move in `transfer.bytes`),
    /// and the trace report has no transfer lane; the field stays because
    /// the benchmark's `core.transfer_share` reads it.
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
            transfer_s: 0.0,
            train_s: r.compute_ns as f64 / 1e9,
            total_s: r.window_ns as f64 / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_over_a_report() {
        let r = PipelineReport {
            window_ns: 2_000_000_000,
            prep_ns: 500_000_000,
            compute_ns: 1_000_000_000,
            ..PipelineReport::default()
        };
        let t = StageTimings::from_report(&r);
        assert_eq!([t.prep_s, t.transfer_s, t.train_s, t.total_s], [0.5, 0.0, 1.0, 2.0]);
    }
}
