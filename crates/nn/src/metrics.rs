//! Evaluation metrics: accuracy and the per-degree breakdown of Figure 3.

#![expect(
    clippy::indexing_slicing,
    reason = "c and best stay below cols, the length of every row; a degree's bucket is its bit length and `buckets` is the largest bit length plus one"
)]

use salient_graph::CsrGraph;
use salient_tensor::Tensor;

/// Row-wise argmax of a logits / log-probability matrix.
pub fn argmax_rows(logits: &Tensor) -> Vec<u32> {
    let (rows, cols) = (logits.rows(), logits.cols());
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = logits.row(r);
        let mut best = 0usize;
        for c in 1..cols {
            if row[c] > row[best] {
                best = c;
            }
        }
        out.push(best as u32);
    }
    out
}

/// Fraction of predictions equal to the target.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn accuracy(predictions: &[u32], targets: &[u32]) -> f64 {
    assert_eq!(predictions.len(), targets.len(), "length mismatch");
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(targets.iter())
        .filter(|(p, t)| p == t)
        .count();
    correct as f64 / predictions.len() as f64
}

/// Accuracy and node count per log-spaced degree bucket (Figure 3: "test
/// accuracy and node count versus node degree").
#[derive(Clone, Debug)]
pub struct DegreeBucket {
    /// Inclusive lower degree bound of this bucket.
    pub degree_lo: usize,
    /// Exclusive upper degree bound.
    pub degree_hi: usize,
    /// Number of evaluated nodes falling in the bucket.
    pub count: usize,
    /// Accuracy over those nodes (0 if empty).
    pub accuracy: f64,
}

/// Buckets test predictions by node degree with power-of-two boundaries.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn accuracy_by_degree(
    graph: &CsrGraph,
    nodes: &[u32],
    predictions: &[u32],
    targets: &[u32],
) -> Vec<DegreeBucket> {
    assert_eq!(nodes.len(), predictions.len(), "length mismatch");
    assert_eq!(nodes.len(), targets.len(), "length mismatch");
    let max_degree = nodes
        .iter()
        .map(|&v| graph.degree(v))
        .max()
        .unwrap_or(0);
    let buckets = (usize::BITS - max_degree.leading_zeros()) as usize + 1;
    let mut count = vec![0usize; buckets];
    let mut correct = vec![0usize; buckets];
    for ((&v, &p), &t) in nodes.iter().zip(predictions).zip(targets) {
        let d = graph.degree(v);
        let b = (usize::BITS - d.leading_zeros()) as usize; // degree 0 -> 0, 1 -> 1, 2..3 -> 2, ...
        count[b] += 1;
        if p == t {
            correct[b] += 1;
        }
    }
    (0..buckets)
        .map(|b| DegreeBucket {
            degree_lo: if b == 0 { 0 } else { 1 << (b - 1) },
            degree_hi: 1 << b,
            count: count[b],
            accuracy: if count[b] == 0 {
                0.0
            } else {
                correct[b] as f64 / count[b] as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_basic() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.2], [2, 2]);
        assert_eq!(argmax_rows(&t), vec![1, 0]);
    }

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn degree_buckets_partition_nodes() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 0), (2, 0)]);
        // Degrees: 3, 1, 1, 0.
        let nodes = [0u32, 1, 2, 3];
        let preds = [0u32, 1, 0, 0];
        let targets = [0u32, 1, 1, 1];
        let buckets = accuracy_by_degree(&g, &nodes, &preds, &targets);
        let total: usize = buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 4);
        // Bucket for degree 1 holds nodes 1 and 2: one correct.
        let b1 = buckets.iter().find(|b| b.degree_lo == 1 && b.degree_hi == 2).unwrap();
        assert_eq!(b1.count, 2);
        assert!((b1.accuracy - 0.5).abs() < 1e-9);
        // Degree-0 node 3: wrong.
        assert_eq!(buckets[0].count, 1);
        assert_eq!(buckets[0].accuracy, 0.0);
    }
}
