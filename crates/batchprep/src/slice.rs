//! Feature/label slicing kernels.
//!
//! Slicing extracts the feature rows of every node in a sampled MFG and the
//! labels of its batch nodes (Listing 1, line 3: `xs, ys = x[ids],
//! y[ids[:batch_sz]]`). SALIENT runs this *serially per batch-prep thread*
//! (§4.2) — the across-batch parallelism comes from the thread pool, which
//! has better cache behaviour than PyTorch's within-tensor OpenMP split.
//!
//! Feature rows move at the dataset's storage dtype: an f16-stored matrix
//! slices (and later DMAs) 2 bytes per value, the paper's conventional
//! optimization (iii).

#![expect(
    clippy::indexing_slicing,
    reason = "the MFG builder guarantees batch_size <= node_ids.len(); output sizes are asserted on entry"
)]

use crate::pinned::PinnedSlot;
use salient_graph::{Dataset, FeatureRowsMut, NodeId};
use salient_sampler::MessageFlowGraph;

/// Slices the features of every node of `mfg` into `out_features` (which
/// must carry the dataset's dtype) and the labels of its batch nodes into
/// `out_labels`, serially.
///
/// # Panics
///
/// Panics if the output buffers have the wrong size or dtype.
pub fn slice_batch(
    dataset: &Dataset,
    mfg: &MessageFlowGraph,
    out_features: FeatureRowsMut<'_>,
    out_labels: &mut [u32],
) {
    dataset.features.slice_into(&mfg.node_ids, out_features);
    let batch = &mfg.node_ids[..mfg.batch_size()];
    slice_labels(&dataset.labels, batch, out_labels);
}

/// [`slice_batch`] straight into a pinned slot, which the caller has
/// [`prepare`](PinnedSlot::prepare)d for `mfg`'s nodes and batch labels: what
/// a SALIENT worker does per batch, and what the serial baseline does on the
/// trainer thread.
///
/// # Panics
///
/// Panics if the slot was prepared for another shape or dtype.
pub fn slice_batch_into(dataset: &Dataset, mfg: &MessageFlowGraph, slot: &mut PinnedSlot) {
    // Feature and label regions are distinct buffers inside the slot, but the
    // accessor borrows are exclusive; do them sequentially.
    dataset.features.slice_into(&mfg.node_ids, slot.features_mut());
    let batch = &mfg.node_ids[..mfg.batch_size()];
    slice_labels(&dataset.labels, batch, slot.labels_mut());
}

/// Copies `labels[v]` for each batch node `v` into `out`.
///
/// # Panics
///
/// Panics if `out.len() != batch.len()` or a node id is out of range.
pub(crate) fn slice_labels(labels: &[u32], batch: &[NodeId], out: &mut [u32]) {
    assert_eq!(out.len(), batch.len(), "label output size mismatch");
    for (o, &v) in out.iter_mut().zip(batch.iter()) {
        *o = labels[v as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_graph::{DatasetConfig, FeatureSlab};
    use salient_sampler::FastSampler;

    #[test]
    fn slice_batch_extracts_correct_rows() {
        let ds = DatasetConfig::tiny(10).build();
        let mfg = FastSampler::new(0).sample(&ds.graph, &ds.splits.train[..8], &[4, 4]);
        let dim = ds.features.dim();
        let mut feats = FeatureSlab::new(ds.features.dtype(), mfg.num_nodes() * dim);
        let mut labels = vec![0u32; mfg.batch_size()];
        slice_batch(&ds, &mfg, feats.rows_mut(), &mut labels);

        for (i, &v) in mfg.node_ids.iter().enumerate() {
            assert_eq!(
                feats.view(i * dim, dim),
                ds.features.row(v),
                "row {i} (node {v}) mismatched"
            );
        }
        for (i, &v) in mfg.node_ids[..mfg.batch_size()].iter().enumerate() {
            assert_eq!(labels[i], ds.labels[v as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_label_buffer_panics() {
        slice_labels(&[1, 2, 3], &[0, 1], &mut [0u32; 3]);
    }
}
