//! The tuned sampler draws from the distribution the baseline draws from.
//!
//! `FastSampler` reaches its subsets by another road than `PygSampler`
//! (a register bitmask up to 64 neighbours, a bitmap beyond; the complement
//! drawn when `2·fanout > degree`), so the claim "uniform without
//! replacement, exactly `min(degree, fanout)` neighbours" is checked where
//! the roads fork: for one destination of degree `d` at fanout `k`, over
//! `d ∈ {k+1, 2k−1, 2k, 63, 64, 65, 500}` — both sides of the complement
//! switch and of the bitmask boundary — and `k ∈ {5, 10, 15, 20}`; plus
//! `k = 40` at `d ∈ {65, 79, 80}`, the one corner those fanouts cannot reach:
//! the complement drawn through the bitmap.
//!
//! **The test.** Each sampler samples the destination `DRAWS` times; `F_i`
//! and `P_i` count how often neighbour `i` was included. Under a uniform
//! draw of `k` from `d` the indicator of `i` has variance `p(1−p)`,
//! `p = k/d`, and two indicators covariance `−p(1−p)/(d−1)`, so
//!
//! ```text
//! T = (d−1)/d · Σ_i (F_i − P_i)² / (2·DRAWS·p·(1−p))
//! ```
//!
//! is asymptotically χ² with `d−1` degrees of freedom when both samplers are
//! uniform. A cell fails when `T` exceeds the 0.999 quantile (seeds are
//! fixed, so a run either always passes or always fails).
//!
//! **Its power.** Against a sampler that over-includes one half of the
//! positions by a factor `1+ε` and under-includes the other by `1−ε`, `T`
//! is non-central with `λ ≈ DRAWS·k·ε²/(2(1−p))`. The weakest cell is
//! `k = 5, d = 500` (λ smallest, 499 degrees of freedom): at the release
//! tier's 10^5 draws a tilt of ε = 3 % gives λ ≈ 227 and is rejected with
//! probability 0.997; at the debug tier's 10^4 draws the same holds for
//! ε = 10 %. The power is not only stated: every cell applies that tilt to
//! the counts it just drew and asserts that the test rejects them.
//!
//! Uniform marginals do not make a uniform draw: `k` adjacent positions
//! from a random start have them too. [`fast_draws_every_subset_equally_often`]
//! therefore tests whole subsets, at small `(k, d)` on both sides of the
//! complement switch, with its own power statement.

use salient_graph::CsrGraph;
use salient_sampler::{FastSampler, MessageFlowGraph, PygSampler};
use salient_tensor::rng::{Rng, StdRng};

const FANOUTS: [usize; 4] = [5, 10, 15, 20];

/// Draws per cell and sampler, and the tilt the test must reject at that
/// count (see the module docs). `scripts/ci.sh` runs the release tier.
const DRAWS: usize = if cfg!(debug_assertions) {
    10_000
} else {
    100_000
};
const TILT: f64 = if cfg!(debug_assertions) { 0.10 } else { 0.03 };

fn degrees(fanout: usize) -> [usize; 7] {
    [fanout + 1, 2 * fanout - 1, 2 * fanout, 63, 64, 65, 500]
}

/// Every `(fanout, degree)` cell of the module docs.
fn cells() -> Vec<(usize, usize)> {
    let grid = FANOUTS
        .iter()
        .flat_map(|&fanout| degrees(fanout).map(|degree| (fanout, degree)));
    grid.chain([(40, 65), (40, 79), (40, 80)]).collect()
}

/// Node 0 with the neighbours `1..=degree`.
fn star(degree: usize) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (1..=degree as u32).map(|leaf| (0, leaf)).collect();
    CsrGraph::from_edges(degree + 1, &edges)
}

/// Samples node 0 `draws` times and counts how often each neighbour was
/// taken, checking every draw for the exact count and for duplicates.
fn inclusion_counts(
    mut sample: impl FnMut() -> MessageFlowGraph,
    degree: usize,
    fanout: usize,
    draws: usize,
) -> Vec<u64> {
    let mut counts = vec![0u64; degree];
    let mut last_draw = vec![usize::MAX; degree];
    for draw in 0..draws {
        let mfg = sample();
        let layer = &mfg.layers[0];
        assert_eq!(
            layer.num_edges(),
            degree.min(fanout),
            "degree {degree}, fanout {fanout}: wrong neighbour count"
        );
        for &src in &layer.edge_src {
            let leaf = mfg.node_ids[src as usize] as usize - 1;
            assert_ne!(
                last_draw[leaf], draw,
                "degree {degree}, fanout {fanout}: duplicate edge"
            );
            last_draw[leaf] = draw;
            counts[leaf] += 1;
        }
    }
    counts
}

/// The statistic `T` of the module docs.
fn homogeneity(f: &[f64], p: &[f64], draws: usize, fanout: usize) -> f64 {
    let d = f.len() as f64;
    let incl = fanout as f64 / d;
    let sum: f64 = f.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
    (d - 1.0) / d * sum / (2.0 * draws as f64 * incl * (1.0 - incl))
}

/// The 0.999 quantile of χ² with `dof` degrees of freedom (Wilson–Hilferty).
fn chi2_critical(dof: f64) -> f64 {
    const Z_999: f64 = 3.0902;
    let c = 2.0 / (9.0 * dof);
    dof * (1.0 - c + Z_999 * c.sqrt()).powi(3)
}

#[test]
fn fast_and_pyg_include_each_neighbour_equally_often() {
    for (fanout, degree) in cells() {
        let g = star(degree);
        let seed = (fanout * 1_000 + degree) as u64;
        let mut fast = FastSampler::new(seed);
        let mut pyg = PygSampler::new(seed ^ 0xC0FFEE);
        let as_f64 = |counts: Vec<u64>| counts.into_iter().map(|c| c as f64).collect::<Vec<_>>();
        let f = as_f64(inclusion_counts(
            || fast.sample(&g, &[0], &[fanout]),
            degree,
            fanout,
            DRAWS,
        ));
        let p = as_f64(inclusion_counts(
            || pyg.sample(&g, &[0], &[fanout]),
            degree,
            fanout,
            DRAWS,
        ));

        let critical = chi2_critical(degree as f64 - 1.0);
        let t = homogeneity(&f, &p, DRAWS, fanout);
        assert!(
            t <= critical,
            "fanout {fanout}, degree {degree}: T = {t:.1} > {critical:.1}; the samplers disagree"
        );

        let tilted: Vec<f64> = f
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                c * if i < degree / 2 {
                    1.0 + TILT
                } else {
                    1.0 - TILT
                }
            })
            .collect();
        let t = homogeneity(&tilted, &p, DRAWS, fanout);
        assert!(
            t > critical,
            "fanout {fanout}, degree {degree}: a {TILT} tilt passes (T = {t:.1} <= {critical:.1}); the test has no power"
        );
    }
}

/// `(fanout, degree)` cells of the whole-subset test: every subset of `k`
/// of `d` positions is a category, so `C(d, k)` stays small. `k = 5` draws
/// the complement, `k ∈ {2, 3}` the positions themselves.
const SUBSET_CELLS: [(usize, usize); 6] = [(2, 6), (3, 6), (5, 6), (2, 8), (3, 8), (5, 8)];

/// The neighbours node 0 got in one MFG, as a bitmask of leaf positions.
fn leaf_mask(mfg: &MessageFlowGraph) -> u32 {
    let layer = &mfg.layers[0];
    layer
        .edge_src
        .iter()
        .fold(0, |mask, &src| mask | 1 << (mfg.node_ids[src as usize] - 1))
}

/// The `k` cyclically adjacent positions from a uniform start: each position
/// is included with probability `k/d`, exactly as under a uniform draw, so
/// the marginal test above cannot tell it apart.
fn adjacent_run(rng: &mut StdRng, degree: usize, fanout: usize) -> u32 {
    let start = rng.random_range(0..degree);
    (0..fanout).fold(0, |mask, i| mask | 1 << ((start + i) % degree))
}

/// Pearson's statistic of `counts` (indexed by subset mask) against the
/// uniform distribution over the `k`-subsets, with its degrees of freedom.
/// A mask of another size is an error, not a category.
fn subset_statistic(counts: &[u64], fanout: usize) -> (f64, f64) {
    let subsets: Vec<usize> = (0..counts.len())
        .filter(|m| m.count_ones() as usize == fanout)
        .collect();
    let total: u64 = counts.iter().sum();
    let outside: u64 = subsets.iter().map(|&m| counts[m]).sum();
    assert_eq!(outside, total, "a draw of the wrong size");
    let expected = total as f64 / subsets.len() as f64;
    let x2 = subsets
        .iter()
        .map(|&m| (counts[m] as f64 - expected).powi(2) / expected)
        .sum();
    (x2, subsets.len() as f64 - 1.0)
}

/// **Uniform over whole subsets, not only per position.** For one
/// destination of degree `d` at fanout `k`, each of the `C(d, k)` subsets
/// is a category of a χ² goodness-of-fit test against `DRAWS / C(d, k)`,
/// `C(d, k) − 1` degrees of freedom, rejected above the 0.999 quantile.
///
/// **Its power.** Against a sampler that draws an adjacent run (see
/// [`adjacent_run`]) with probability `ε` and a uniform subset otherwise,
/// Pearson's statistic is non-central with `λ = DRAWS·ε²·(C/d − 1)`. The
/// weakest cell is `k = 2, d = 6` (`C = 15`, 14 degrees of freedom, critical
/// value 36.3): `λ = 54` is rejected with probability 0.99, which is
/// `ε = 6 %` at the debug tier's 10^4 draws and `ε = 1.9 %` at the release
/// tier's 10^5. Checked, not only stated: each cell feeds the counts of the
/// pure run sampler and of the `TILT` mixture to the same test and asserts
/// rejection (`λ` is then 150 and 135 at that cell). At `k = 5, d = 6` every
/// subset *is* a cyclic run (`C = d`), so the run sampler is uniform there
/// and the power check skips that cell.
#[test]
fn fast_draws_every_subset_equally_often() {
    for (fanout, degree) in SUBSET_CELLS {
        let g = star(degree);
        let seed = (fanout * 1_000 + degree) as u64 ^ 0x5B5E7;
        let mut fast = FastSampler::new(seed);
        let mut counts = vec![0u64; 1 << degree];
        for _ in 0..DRAWS {
            counts[leaf_mask(&fast.sample(&g, &[0], &[fanout])) as usize] += 1;
        }
        let (x2, dof) = subset_statistic(&counts, fanout);
        let critical = chi2_critical(dof);
        assert!(
            x2 <= critical,
            "fanout {fanout}, degree {degree}: X² = {x2:.1} > {critical:.1}; the subsets are not uniform"
        );

        if dof + 1.0 == degree as f64 {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAD7);
        for (label, weight) in [("adjacent runs", 1.0), ("a run mixture", TILT)] {
            let mut counts = vec![0u64; 1 << degree];
            for _ in 0..DRAWS {
                let mask = if rng.random_bool(weight) {
                    adjacent_run(&mut rng, degree, fanout)
                } else {
                    leaf_mask(&fast.sample(&g, &[0], &[fanout]))
                };
                counts[mask as usize] += 1;
            }
            let (x2, _) = subset_statistic(&counts, fanout);
            assert!(
                x2 > critical,
                "fanout {fanout}, degree {degree}: {label} pass (X² = {x2:.1} <= {critical:.1}); the test has no power"
            );
        }
    }
}

#[test]
fn a_destination_with_few_neighbours_gets_all_of_them() {
    for fanout in FANOUTS {
        for degree in [1, fanout - 1, fanout] {
            let g = star(degree);
            let mut fast = FastSampler::new(degree as u64);
            let counts = inclusion_counts(|| fast.sample(&g, &[0], &[fanout]), degree, fanout, 100);
            assert!(
                counts.iter().all(|&c| c == 100),
                "fanout {fanout}, degree {degree}"
            );
        }
    }
}
