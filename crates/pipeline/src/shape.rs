//! Canonical stage shapes shared by the real executors and the simulator.
//!
//! A [`StageShape`] names a pipeline stage once — its simulator task name,
//! its trace span, and the resource class it occupies — so
//! `salient-sim`'s discrete-event schedules are built from the constants
//! the real trainer's trace is checked against. Drift between the two
//! planes then shows up as a structural mismatch (a missing stage, a
//! renamed span), not a silently diverging string.

/// Resource class a stage occupies; the simulator maps each class to a
/// distinct serial (or worker-pool) resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourceKind {
    /// CPU sampling/slicing workers (parallel, pool-sized).
    Workers,
    /// The host↔device transfer engine (serial DMA).
    Dma,
    /// The compute device (serial GPU stand-in).
    Gpu,
}

/// One stage of a canonical pipeline shape.
#[derive(Clone, Copy, Debug)]
pub struct StageShape {
    /// Simulator task-name prefix (e.g. `"transfer"`).
    pub sim_task: &'static str,
    /// Trace span recorded around the stage's work
    /// (a [`salient_trace::names::spans`] constant).
    pub span: salient_trace::names::SpanName,
    /// Resource class the stage occupies.
    pub resource: ResourceKind,
}

/// Double-buffer depth of the modelled machine: 2 ≡ one batch in flight on
/// the device, one staged behind it. Read by the simulator's
/// `transfer[b] → train[b-3]`-style dependency and by
/// `tests/sim_vs_real.rs`; the real trainer has no queue to bound (it has
/// no transfer stage).
pub const TRANSFER_QUEUE_CAP: usize = 2;

/// The training pipeline: prep (sample+slice on workers) → transfer
/// (H2D on the DMA engine) → train (fwd/bwd/step on the device). The real
/// trainer records the first and last stages' spans; for the transfer it
/// counts `transfer.bytes`.
pub fn train() -> [StageShape; 3] {
    use salient_trace::names::spans;
    [
        StageShape {
            sim_task: "prep",
            span: spans::PREP_SAMPLE,
            resource: ResourceKind::Workers,
        },
        StageShape {
            sim_task: "transfer",
            span: spans::STAGE_TRANSFER,
            resource: ResourceKind::Dma,
        },
        StageShape {
            sim_task: "train",
            span: spans::STAGE_TRAIN,
            resource: ResourceKind::Gpu,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_shape_orders_prep_transfer_train() {
        let shape = train();
        assert_eq!(shape[0].sim_task, "prep");
        assert_eq!(shape[1].sim_task, "transfer");
        assert_eq!(shape[2].sim_task, "train");
        assert_eq!(shape[0].resource, ResourceKind::Workers);
        assert_eq!(shape[1].resource, ResourceKind::Dma);
        assert_eq!(shape[2].resource, ResourceKind::Gpu);
        assert!(TRANSFER_QUEUE_CAP >= 2, "double buffering minimum");
    }
}
