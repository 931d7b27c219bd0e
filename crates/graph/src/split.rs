//! Train / validation / test node splits.

#![expect(
    clippy::indexing_slicing,
    reason = "every range end is clamped to num_nodes and starts where the previous range ends"
)]

use crate::csr::NodeId;
use salient_tensor::rng::SliceRandom;

/// Disjoint train / validation / test node sets.
///
/// Fractions need not cover every node: ogbn-papers100M labels only ~1.4 % of
/// its 111 M nodes, and the split reflects that.
#[derive(Clone, Debug)]
pub struct Splits {
    /// Training node ids.
    pub train: Vec<NodeId>,
    /// Validation node ids.
    pub val: Vec<NodeId>,
    /// Test node ids.
    pub test: Vec<NodeId>,
}

impl Splits {
    /// Randomly partitions `num_nodes` nodes with the given fractions
    /// (remaining nodes are unlabeled).
    ///
    /// # Panics
    ///
    /// Panics if the fractions are negative or sum to more than 1.
    pub fn random(num_nodes: usize, frac_train: f64, frac_val: f64, frac_test: f64, seed: u64) -> Self {
        assert!(
            frac_train >= 0.0 && frac_val >= 0.0 && frac_test >= 0.0,
            "negative split fraction"
        );
        assert!(
            frac_train + frac_val + frac_test <= 1.0 + 1e-9,
            "split fractions sum to more than 1"
        );
        let mut ids: Vec<NodeId> = (0..num_nodes as NodeId).collect();
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(seed);
        ids.shuffle(&mut rng);
        let n_train = (num_nodes as f64 * frac_train).round() as usize;
        let n_val = (num_nodes as f64 * frac_val).round() as usize;
        let n_test = (num_nodes as f64 * frac_test).round() as usize;
        // Each fraction is rounded on its own, so two halves of an odd count
        // both round up: every range ends at most at `num_nodes`.
        let end_train = n_train.min(num_nodes);
        let end_val = (end_train + n_val).min(num_nodes);
        let end_test = (end_val + n_test).min(num_nodes);
        let train = ids[..end_train].to_vec();
        let val = ids[end_train..end_val].to_vec();
        let test = ids[end_val..end_test].to_vec();
        Splits { train, val, test }
    }

    /// Total number of labeled nodes.
    pub fn num_labeled(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// Verifies the three sets are pairwise disjoint (test helper).
    pub fn is_disjoint(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.num_labeled());
        self.train
            .iter()
            .chain(self.val.iter())
            .chain(self.test.iter())
            .all(|&v| seen.insert(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_fractions() {
        let s = Splits::random(1000, 0.5, 0.2, 0.3, 0);
        assert_eq!(s.train.len(), 500);
        assert_eq!(s.val.len(), 200);
        assert_eq!(s.test.len(), 300);
        assert!(s.is_disjoint());
    }

    #[test]
    fn partial_labeling() {
        let s = Splits::random(10_000, 0.011, 0.001, 0.002, 1);
        assert_eq!(s.num_labeled(), 110 + 10 + 20);
        assert!(s.is_disjoint());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Splits::random(100, 0.5, 0.25, 0.25, 7);
        let b = Splits::random(100, 0.5, 0.25, 0.25, 7);
        assert_eq!(a.train, b.train);
        let c = Splits::random(100, 0.5, 0.25, 0.25, 8);
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn halves_of_an_odd_count_both_round_up_without_overflow() {
        // 1.5 and 1.5 both round to 2: validation takes the one node left.
        let s = Splits::random(3, 0.5, 0.5, 0.0, 4);
        assert_eq!((s.train.len(), s.val.len(), s.test.len()), (2, 1, 0));
        assert!(s.is_disjoint());
    }

    #[test]
    fn any_fractions_summing_to_at_most_one_split_small_graphs() {
        use salient_tensor::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(40);
        for _ in 0..2_000 {
            let n = rng.random_range(0..12usize);
            let train = rng.random::<f64>();
            let val = rng.random::<f64>() * (1.0 - train);
            let test = rng.random::<f64>() * (1.0 - train - val);
            let s = Splits::random(n, train, val, test, rng.random());
            assert!(s.is_disjoint(), "n {n}, fractions {train} {val} {test}");
            assert!(s.num_labeled() <= n);
            assert!(s.train.iter().chain(&s.val).chain(&s.test).all(|&v| (v as usize) < n));
        }
        // The halves and thirds that round up together.
        for n in 0..12 {
            for (t, v, x) in [(0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5), (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), (0.25, 0.25, 0.5)] {
                assert!(Splits::random(n, t, v, x, 1).is_disjoint());
            }
        }
    }

    #[test]
    #[should_panic(expected = "more than 1")]
    fn rejects_oversubscribed_split() {
        Splits::random(10, 0.8, 0.3, 0.2, 0);
    }
}
