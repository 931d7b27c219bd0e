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

use salient_graph::{Dataset, FeatureRowsMut, NodeId};
use salient_sampler::MessageFlowGraph;
use salient_tensor::Dtype;

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

/// Copies `labels[v]` for each batch node `v` into `out`.
///
/// # Panics
///
/// Panics if `out.len() != batch.len()` or a node id is out of range.
pub fn slice_labels(labels: &[u32], batch: &[NodeId], out: &mut [u32]) {
    assert_eq!(out.len(), batch.len(), "label output size mismatch");
    for (o, &v) in out.iter_mut().zip(batch.iter()) {
        *o = labels[v as usize];
    }
}

/// Bytes moved by slicing one batch (features + labels) at the given
/// feature dtype, the quantity that feeds the DMA-transfer model.
pub fn sliced_bytes(mfg: &MessageFlowGraph, feat_dim: usize, dtype: Dtype) -> usize {
    mfg.num_nodes() * feat_dim * dtype.size_of()
        + mfg.batch_size() * std::mem::size_of::<u32>()
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
    fn sliced_bytes_formula() {
        let ds = DatasetConfig::tiny(10).build();
        let mfg = FastSampler::new(0).sample(&ds.graph, &ds.splits.train[..4], &[3]);
        let dim = ds.features.dim();
        assert_eq!(
            sliced_bytes(&mfg, dim, Dtype::F16),
            mfg.num_nodes() * dim * 2 + 4 * 4
        );
        // The f32 path moves exactly twice the feature bytes.
        assert_eq!(
            sliced_bytes(&mfg, dim, Dtype::F32),
            mfg.num_nodes() * dim * 4 + 4 * 4
        );
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_label_buffer_panics() {
        slice_labels(&[1, 2, 3], &[0, 1], &mut [0u32; 3]);
    }
}
