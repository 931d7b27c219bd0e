//! The shipped draw costs exactly one bounded draw per drawn position.
//!
//! Floyd's algorithm draws `min(fanout, degree − fanout)` positions of a
//! destination with `degree > fanout` (the positions to leave out when that
//! is the smaller side) and takes each with one uniform draw in `0..=j`, no
//! retry; a destination with `degree ≤ fanout` takes all its neighbours and
//! draws nothing. So the `next_u64` calls of a whole MFG are known before it
//! is sampled. The bounded draw itself (`random_range`, multiply-shift)
//! asks for a second word with probability `bound / 2^64`, below 2^-52 for
//! these degrees, so with fixed seeds the count is exact. A rejection loop
//! draws more: the complement-rejection draw Floyd's replaced took 43 930
//! words for 37 171 drawn positions at the shapes below (1.18 a position),
//! and fails here.

use salient_graph::{CsrGraph, DatasetConfig};
use salient_sampler::{
    sample_with, BitmapNeighborSet, EngineScratch, FlatIdMap, MessageFlowGraph, VariantConfig,
};
use salient_tensor::rng::{Rng, StdRng};

/// A `StdRng` that counts the words it hands out.
struct Counting {
    inner: StdRng,
    calls: u64,
}

impl Rng for Counting {
    fn next_u64(&mut self) -> u64 {
        self.calls += 1;
        self.inner.next_u64()
    }
}

/// Σ over the destinations of every hop of `min(fanout, degree − fanout)`,
/// for those with `degree > fanout`; also how many of those destinations
/// drew the complement and how many went past the 64-bit mask.
fn expected_draws(graph: &CsrGraph, mfg: &MessageFlowGraph, fanouts: &[usize]) -> (u64, usize, usize) {
    let (mut draws, mut complement, mut wide) = (0, 0, 0);
    // `layers` is in forward order; `fanouts[h]` expanded `layers[L-1-h]`.
    for (layer, &fanout) in mfg.layers.iter().rev().zip(fanouts) {
        for &v in &mfg.node_ids[..layer.n_dst] {
            let degree = graph.degree(v);
            if degree > fanout {
                draws += fanout.min(degree - fanout) as u64;
                complement += usize::from(2 * fanout > degree);
                wide += usize::from(degree > 64);
            }
        }
    }
    (draws, complement, wide)
}

#[test]
fn the_salient_point_draws_once_per_drawn_position() {
    let ds = DatasetConfig::products_sim(0.1).build();
    let mut map = FlatIdMap::default();
    let mut set = BitmapNeighborSet::new();
    let mut scratch = EngineScratch::default();
    for (fanouts, seed) in [([15usize, 10, 5], 2868u64), ([20, 20, 20], 94444071)] {
        let mut rng = Counting { inner: StdRng::seed_from_u64(seed), calls: 0 };
        for batch in ds.splits.train.chunks(256).take(4) {
            let before = rng.calls;
            let mfg = sample_with(
                &ds.graph,
                batch,
                &fanouts,
                VariantConfig::salient().opts(),
                &mut map,
                &mut set,
                &mut scratch,
                &mut rng,
            );
            let (expected, complement, wide) = expected_draws(&ds.graph, &mfg, &fanouts);
            assert!(complement > 0 && wide > 0, "both sides of both switches are exercised");
            assert_eq!(
                rng.calls - before,
                expected,
                "fanouts {fanouts:?}: one draw per drawn position, no retry"
            );
        }
    }
}
