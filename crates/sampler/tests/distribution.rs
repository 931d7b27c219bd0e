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

use salient_graph::CsrGraph;
use salient_sampler::{FastSampler, MessageFlowGraph, PygSampler};

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
