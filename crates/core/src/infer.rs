//! Inference helpers (§5 of the paper).
//!
//! SALIENT's key observation is that *sampled* inference matches
//! full-neighborhood accuracy at modest fanouts, so the mini-batch training
//! path can be reused verbatim. For the "fanout: all" reference this module
//! builds a full-graph MFG — every hop is the complete (bipartite-ized)
//! graph — which makes the layer-wise full-neighborhood computation run
//! through the exact same model code.
//!
//! [`BatchInferencer`] is the staged inference path shared by offline
//! evaluation and the online serving layer: features are sliced into a
//! pinned staging slot (a one-slot [`PinnedPool`], the type the training
//! pipeline uses) and the slot itself is lent to the forward pass's tape,
//! whose first layer reads the rows at the width they are stored. Neither
//! phase catches a panic; a caller that must outlive one (the serving
//! layer) draws that boundary round the call. Whoever holds the slot when a
//! call unwinds — `stage`, or the tape — drops it on the way out, and the
//! slot's own RAII drop returns it to the pool: a poisoned request can
//! never leak staging capacity.

use salient_batchprep::{PinnedPool, PinnedSlot};
use salient_graph::{CsrGraph, Dataset, NodeId};
use salient_nn::{metrics, GnnModel, Mode};
use salient_sampler::{MessageFlowGraph, MfgLayer};
use salient_tensor::rng::StdRng;
use salient_tensor::Tape;
use salient_trace::{names, Counter, Trace};
use std::rc::Rc;
use std::sync::Arc;

/// Builds an MFG whose every hop is the entire graph: `n_src = n_dst = |V|`
/// and the edge list enumerates every edge. Feeding it to a model performs
/// classic layer-wise full-neighborhood inference over all nodes at once.
pub fn full_graph_mfg(graph: &CsrGraph, num_layers: usize) -> MessageFlowGraph {
    let n = graph.num_nodes();
    let mut edge_src = Vec::with_capacity(graph.num_edges());
    let mut edge_dst = Vec::with_capacity(graph.num_edges());
    for v in 0..n as NodeId {
        for &u in graph.neighbors(v) {
            edge_src.push(u);
            edge_dst.push(v);
        }
    }
    let layer = MfgLayer {
        edge_src,
        edge_dst,
        n_src: n,
        n_dst: n,
    };
    MessageFlowGraph {
        node_ids: (0..n as NodeId).collect(),
        layers: vec![layer; num_layers],
    }
}

/// Features for one sampled micro-batch, staged in a pinned slot at the
/// dataset's storage dtype. Dropping it (consumed by
/// [`BatchInferencer::forward`], or simply discarded when a deadline
/// expires between stages) returns the slot to the pool.
#[derive(Debug)]
pub struct StagedBatch {
    slot: PinnedSlot,
}

/// Sampled mini-batch inference through one pinned staging slot.
///
/// The two phases — [`stage`](BatchInferencer::stage) (slice features into
/// a slot) and [`forward`](BatchInferencer::forward) (model compute on the
/// slot's rows) — are split so callers with latency budgets (the serving
/// layer) can check deadlines between them and abandon dead work early.
///
/// Staging at the store's dtype and widening where the rows are consumed is
/// numerically identical to `FeatureStore::gather_f32`: both read the same
/// packed values and perform the same exact per-element widening.
pub struct BatchInferencer {
    dataset: Arc<Dataset>,
    pool: PinnedPool,
    transfer_bytes: Counter,
}

impl BatchInferencer {
    /// One staging slot pre-sized for `nodes_hint` sampled nodes, counting
    /// staged bytes against the trace's `transfer.bytes`. The hint is
    /// clamped to the graph's node count: a batch holds each node once.
    pub fn new(dataset: Arc<Dataset>, nodes_hint: usize, trace: &Trace) -> Self {
        let dim = dataset.features.dim();
        let dtype = dataset.features.dtype();
        let nodes_hint = nodes_hint.min(dataset.graph.num_nodes());
        let pool = PinnedPool::new(1, nodes_hint, dim, 1, dtype);
        let transfer_bytes = trace.counter(names::counters::TRANSFER_BYTES);
        BatchInferencer { dataset, pool, transfer_bytes }
    }

    /// The staging pool (diagnostics can assert `available() == capacity()`
    /// when idle to prove no request leaked the slot).
    pub fn pool(&self) -> &PinnedPool {
        &self.pool
    }

    /// Slices `mfg`'s features into the pinned slot. Blocks until the slot
    /// is free, so the batch staged before must have been forwarded or
    /// dropped. A panic while slicing unwinds through here and drops the
    /// slot, which returns it to the pool.
    pub fn stage(&self, mfg: &MessageFlowGraph) -> StagedBatch {
        let dim = self.dataset.features.dim();
        let mut slot = self.pool.acquire();
        slot.prepare(mfg.num_nodes(), dim, 0);
        self.dataset
            .features
            .slice_into(&mfg.node_ids, slot.features_mut());
        StagedBatch { slot }
    }

    /// Hands the staged slot to the forward pass (the simulated host→device
    /// transfer: its payload is counted in `transfer.bytes`, nothing is
    /// copied) and runs the model in eval mode. Returns argmax predictions
    /// for the micro-batch's seed nodes. The tape holds the slot and drops
    /// it on return or unwind, so the slot is back in the pool either way.
    pub fn forward(
        &self,
        staged: StagedBatch,
        model: &mut dyn GnnModel,
        mfg: &MessageFlowGraph,
        rng: &mut StdRng,
    ) -> Vec<u32> {
        let dim = self.dataset.features.dim();
        self.transfer_bytes.add(staged.slot.payload_bytes() as u64);
        let tape = Tape::no_grad();
        let x = tape.constant_rows(Rc::new(staged.slot), dim);
        let out = model.forward(&tape, x, mfg, Mode::Eval, rng);
        metrics::argmax_rows(&out.value())
    }

    /// Stage + forward in one call (the offline evaluation path).
    pub(crate) fn infer_mfg(
        &self,
        model: &mut dyn GnnModel,
        mfg: &MessageFlowGraph,
        rng: &mut StdRng,
    ) -> Vec<u32> {
        let staged = self.stage(mfg);
        self.forward(staged, model, mfg, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_graph::DatasetConfig;
    use salient_nn::{build_model, ModelKind};
    use salient_sampler::FastSampler;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn inferencer(ds: &Arc<Dataset>, nodes_hint: usize) -> BatchInferencer {
        BatchInferencer::new(Arc::clone(ds), nodes_hint, &Trace::disabled())
    }

    /// A model that always panics — stands in for any poisoned request.
    struct PoisonModel;

    impl GnnModel for PoisonModel {
        fn forward(
            &mut self,
            _tape: &Tape,
            _x: salient_tensor::Var,
            _mfg: &MessageFlowGraph,
            _mode: Mode,
            _rng: &mut StdRng,
        ) -> salient_tensor::Var {
            panic!("poisoned request");
        }
        fn params(&self) -> Vec<&salient_tensor::Param> {
            Vec::new()
        }
        fn params_mut(&mut self) -> Vec<&mut salient_tensor::Param> {
            Vec::new()
        }
        fn kind(&self) -> ModelKind {
            ModelKind::Sage
        }
        fn num_layers(&self) -> usize {
            1
        }
    }

    #[test]
    fn staged_inference_matches_direct_gather() {
        let ds = Arc::new(DatasetConfig::tiny(11).build());
        let mut model = build_model(ModelKind::Sage, ds.features.dim(), 8, ds.num_classes, 2, 3);
        let mut sampler = FastSampler::new(9);
        let batch: Vec<NodeId> = ds.splits.val[..16].to_vec();
        let mfg = sampler.sample(&ds.graph, &batch, &[4, 4]);
        let inferencer = inferencer(&ds, 32);
        let mut rng = StdRng::seed_from_u64(0);
        let staged = inferencer.infer_mfg(model.as_mut(), &mfg, &mut rng);
        // Reference: the pre-existing direct-gather path.
        let tape = Tape::new();
        let x = tape.constant(ds.features.gather_f32(&mfg.node_ids));
        let mut rng2 = StdRng::seed_from_u64(0);
        let out = model.forward(&tape, x, &mfg, Mode::Eval, &mut rng2);
        assert_eq!(staged, metrics::argmax_rows(&out.value()));
        assert_eq!(staged.len(), mfg.batch_size());
    }

    #[test]
    fn panicking_forward_returns_slot_to_pool() {
        let ds = Arc::new(DatasetConfig::tiny(12).build());
        let mut sampler = FastSampler::new(1);
        let batch: Vec<NodeId> = ds.splits.val[..8].to_vec();
        let mfg = sampler.sample(&ds.graph, &batch, &[3, 3]);
        // One slot: any leak would deadlock the second call instead of
        // completing it.
        let inferencer = inferencer(&ds, 16);
        let mut rng = StdRng::seed_from_u64(0);
        let mut poison = PoisonModel;
        for _ in 0..3 {
            let err = catch_unwind(AssertUnwindSafe(|| {
                inferencer.infer_mfg(&mut poison, &mfg, &mut rng)
            }))
            .unwrap_err();
            assert_eq!(err.downcast_ref::<&str>(), Some(&"poisoned request"));
            assert_eq!(
                inferencer.pool().available(),
                inferencer.pool().capacity(),
                "slot must return on unwind"
            );
        }
        // The pool still works after the unwinds.
        let mut model = build_model(ModelKind::Sage, ds.features.dim(), 8, ds.num_classes, 2, 0);
        let preds = inferencer.infer_mfg(model.as_mut(), &mfg, &mut rng);
        assert_eq!(preds.len(), mfg.batch_size());
    }

    #[test]
    fn panicking_stage_returns_slot_to_pool() {
        let ds = Arc::new(DatasetConfig::tiny(13).build());
        let inferencer = inferencer(&ds, 16);
        // An MFG referencing a node outside the dataset: slicing panics.
        let bogus = MessageFlowGraph {
            node_ids: vec![ds.graph.num_nodes() as NodeId + 10],
            layers: vec![MfgLayer { edge_src: vec![], edge_dst: vec![], n_src: 1, n_dst: 1 }],
        };
        assert!(catch_unwind(AssertUnwindSafe(|| inferencer.stage(&bogus))).is_err());
        assert_eq!(inferencer.pool().available(), inferencer.pool().capacity());
        // Dropping a staged batch without forwarding it also frees the slot.
        let mut sampler = FastSampler::new(2);
        let batch: Vec<NodeId> = ds.splits.val[..4].to_vec();
        let mfg = sampler.sample(&ds.graph, &batch, &[3]);
        let staged = inferencer.stage(&mfg);
        assert!(staged.slot.payload_bytes() > 0);
        assert_eq!(inferencer.pool().available(), 0);
        drop(staged);
        assert_eq!(inferencer.pool().available(), 1);
    }

    #[test]
    fn full_graph_mfg_is_valid_and_complete() {
        let ds = DatasetConfig::tiny(9).build();
        let mfg = full_graph_mfg(&ds.graph, 3);
        mfg.validate().unwrap();
        assert_eq!(mfg.num_nodes(), ds.graph.num_nodes());
        assert_eq!(mfg.layers.len(), 3);
        assert_eq!(mfg.layers[0].num_edges(), ds.graph.num_edges());
        assert_eq!(mfg.batch_size(), ds.graph.num_nodes());
    }
}
