//! Planted label model: class-prototype features with controllable
//! signal-to-noise ratio.
//!
//! Real OGB labels cannot be downloaded here, so the datasets plant a
//! recoverable classification task: each node's label is its Chung–Lu
//! community, and its feature vector is a *noisy* class prototype. A single
//! node's feature is too noisy to classify reliably, but averaging a sampled
//! neighborhood (mostly same-community under homophily) denoises it — so a
//! GNN beats a pointwise classifier, accuracy improves with inference fanout,
//! and saturates once the sample mean stabilizes. This reproduces the
//! *mechanics* behind Table 6 and Figure 3.
//!
//! The noise was the largest phase of a dataset build (10 M values at the
//! benchmark's `G100k`), so it is drawn a row at a time and kept cheap:
//! every Box–Muller pair of uniforms gives two values, both halves, and
//! `ln`, `sin` and `cos` are `f32` polynomials here (Cephes'), evaluated
//! without a branch. Each value costs one RNG word, against two words and
//! a libm `ln` and `cos` when the sine half was thrown away: the feature
//! phase of a `G100k` build takes a quarter of the time it did
//! (EXPERIMENTS.md, "Both halves of each Box–Muller pair"). The
//! polynomials use adds, multiplies and `sqrt` only, which IEEE 754 rounds
//! the same on every host, so a feature's bits depend on the seed alone and
//! not on the platform's libm.

#![expect(
    clippy::indexing_slicing,
    reason = "labels are asserted below num_classes, and every range is one dim-wide row of a buffer sized rows x dim"
)]

use salient_tensor::rng::{Rng, StdRng};

/// Configuration of the planted feature model.
#[derive(Clone, Debug)]
pub(crate) struct PlantedFeatureConfig {
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of classes (must match the community count of the graph).
    pub num_classes: usize,
    /// Scale of the class-prototype component in each node feature.
    pub signal: f32,
    /// Standard deviation of the per-node Gaussian noise.
    pub noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlantedFeatureConfig {
    fn default() -> Self {
        PlantedFeatureConfig {
            dim: 32,
            num_classes: 16,
            signal: 0.4,
            noise: 1.0,
            seed: 0,
        }
    }
}

/// Bits of `√½`: subtracting them from a float's bits moves the boundary
/// between exponents from each power of two to `√½` times it.
const SQRT_HALF_BITS: u32 = 0x3f35_04f3;
/// `ln 2` split in two: the high part is exact in 9 bits, so `e·LN2_HI` is
/// exact for every exponent `ln` sees.
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_40e-4;
/// One step of the 24-bit uniform grid.
const UNIT: f32 = 1.0 / (1u32 << 24) as f32;

/// `ln x` for a positive normal `x`, in `f32` adds and multiplies only
/// (within 2 ε relative of `f32::ln`, tested over every `(k + 1)·2⁻²⁴`).
/// `x = m·2^e` with `m` in `[√½, √2)`, then Cephes' polynomial in `m - 1`.
#[inline]
fn ln(x: f32) -> f32 {
    let shifted = x.to_bits().wrapping_sub(SQRT_HALF_BITS);
    let e = ((shifted as i32) >> 23) as f32;
    let t = f32::from_bits((shifted & 0x007f_ffff) + SQRT_HALF_BITS) - 1.0;
    let z = t * t;
    // Cephes `logf`'s polynomial, by Horner's rule.
    let poly = 7.037_683_629_2e-2;
    let poly = poly * t - 1.151_461_031_0e-1;
    let poly = poly * t + 1.167_699_874_0e-1;
    let poly = poly * t - 1.242_014_084_6e-1;
    let poly = poly * t + 1.424_932_278_7e-1;
    let poly = poly * t - 1.666_805_766_5e-1;
    let poly = poly * t + 2.000_071_476_5e-1;
    let poly = poly * t - 2.499_999_399_3e-1;
    let poly = poly * t + 3.333_333_117_4e-1;
    let mut y = poly * t * z;
    y += e * LN2_LO;
    y += -0.5 * z;
    (t + y) + e * LN2_HI
}

/// `(sin, cos)` of `k·2⁻²⁴` turns for a 24-bit `k` (within 5e-7 of
/// `f32::sin_cos(2π·k·2⁻²⁴)`, tested over every `k`). The angle is reduced
/// exactly to the nearest quarter turn `q = round(4u)` and a remainder in
/// `[-1/8, 1/8]` turn, the remainder's sine and cosine come from the
/// polynomials, and the quarter turns rotate them by selects on the bits:
/// odd `q` swaps the two, and `q & 2` (sine) or `(q + 1) & 2` (cosine) flips
/// a sign. A random quadrant would mispredict a branch half the time.
#[inline]
fn sin_cos_turns(k: u32) -> (f32, f32) {
    let q = (k + (1 << 21)) >> 22;
    let x = (k as i32 - (q << 22) as i32) as f32 * UNIT * std::f32::consts::TAU;
    let z = x * x;
    // Cephes `sinf` and `cosf`'s minimax polynomials on [-π/4, π/4].
    let s = ((-1.951_529_589_1e-4 * z + 8.332_160_873_6e-3) * z - 1.666_665_461_1e-1) * z * x + x;
    let c = ((2.443_315_7e-5 * z - 1.388_731_6e-3) * z + 4.166_664_6e-2) * z * z - 0.5 * z + 1.0;
    let swap = 0u32.wrapping_sub(q & 1);
    let (s, c) = (s.to_bits(), c.to_bits());
    let sin = ((s & !swap) | (c & swap)) ^ ((q & 2) << 30);
    let cos = ((c & !swap) | (s & swap)) ^ (((q + 1) & 2) << 30);
    (f32::from_bits(sin), f32::from_bits(cos))
}

/// The Box–Muller pair `(r·cos θ, r·sin θ)` of two 24-bit uniforms:
/// `r = √(-2 ln u1)` with `u1 = (k1 + 1)·2⁻²⁴` in `(0, 1]`, so the
/// logarithm is finite, and `θ = 2π·k2·2⁻²⁴`.
#[inline]
fn box_muller(k1: u32, k2: u32) -> (f32, f32) {
    let r = (-2.0 * ln((k1 + 1) as f32 * UNIT)).sqrt();
    let (sin, cos) = sin_cos_turns(k2);
    (r * cos, r * sin)
}

/// Rows of independent standard normal values from one stream: each row
/// draws `dim.div_ceil(2)` pairs of RNG words, then turns every pair into
/// both halves of a Box–Muller pair in a loop with no branch (an odd row
/// drops its last sine half). No value goes through the platform's libm.
struct NormalRows {
    rng: StdRng,
    dim: usize,
    /// The top 24 bits of each word, two a pair.
    words: Vec<u32>,
    values: Vec<f32>,
}

impl NormalRows {
    fn new(seed: u64, dim: usize) -> Self {
        let len = 2 * dim.div_ceil(2);
        NormalRows { rng: StdRng::seed_from_u64(seed), dim, words: vec![0; len], values: vec![0.0; len] }
    }

    /// The next `dim` values, to be overwritten at will.
    fn next_row(&mut self) -> &mut [f32] {
        for w in &mut self.words {
            *w = (self.rng.next_u64() >> 40) as u32;
        }
        for (k, z) in self.words.chunks_exact(2).zip(self.values.chunks_exact_mut(2)) {
            (z[0], z[1]) = box_muller(k[0], k[1]);
        }
        &mut self.values[..self.dim]
    }
}

/// Random unit prototypes, one per class: the first rows of the stream.
fn class_prototypes(normals: &mut NormalRows, num_classes: usize) -> Vec<f32> {
    let mut prototypes = Vec::with_capacity(num_classes * normals.dim);
    for _ in 0..num_classes {
        let p = normals.next_row();
        let norm = p.iter().fold(0.0f32, |acc, x| acc + x * x);
        let inv = 1.0 / norm.sqrt().max(1e-6);
        prototypes.extend(p.iter().map(|x| x * inv));
    }
    prototypes
}

/// Draws the planted feature row of each node in turn, `signal·prototype +
/// noise/√dim · z` for a row `z` of standard normals, and hands it to
/// `row(v, values)`, so a caller that stores rows narrowed never holds the
/// whole matrix in `f32`.
///
/// # Panics
///
/// Panics if a label is `>= num_classes`.
pub(crate) fn planted_rows(labels: &[u32], cfg: &PlantedFeatureConfig, mut row: impl FnMut(usize, &[f32])) {
    let mut normals = NormalRows::new(cfg.seed, cfg.dim);
    let prototypes = class_prototypes(&mut normals, cfg.num_classes);
    let scale = cfg.noise / (cfg.dim as f32).sqrt();
    for (v, &c) in labels.iter().enumerate() {
        assert!(
            (c as usize) < cfg.num_classes,
            "label {c} out of range for {} classes",
            cfg.num_classes
        );
        let proto = &prototypes[c as usize * cfg.dim..(c as usize + 1) * cfg.dim];
        let values = normals.next_row();
        for (x, &p) in values.iter_mut().zip(proto) {
            *x = cfg.signal * p + scale * *x;
        }
        row(v, values);
    }
}

/// Generates `num_nodes × dim` planted features for the given labels.
///
/// Returns a flat row-major `f32` buffer.
///
/// # Panics
///
/// Panics if a label is `>= num_classes`.
#[cfg(test)]
pub(crate) fn planted_features(labels: &[u32], cfg: &PlantedFeatureConfig) -> Vec<f32> {
    let mut out = Vec::with_capacity(labels.len() * cfg.dim);
    planted_rows(labels, cfg, |_, values| out.extend_from_slice(values));
    out
}

/// A linear readout bound on the planted task: classify each node by the
/// nearest class prototype using *only its own feature*. Used in tests to
/// verify that the pointwise problem is genuinely hard (so neighborhood
/// aggregation has something to add).
#[cfg(test)]
fn pointwise_prototype_accuracy(
    features: &[f32],
    labels: &[u32],
    cfg: &PlantedFeatureConfig,
) -> f64 {
    // Re-derive the same prototypes (same seed, same draw order).
    let prototypes = class_prototypes(&mut NormalRows::new(cfg.seed, cfg.dim), cfg.num_classes);
    let mut correct = 0usize;
    for (v, &c) in labels.iter().enumerate() {
        let x = &features[v * cfg.dim..(v + 1) * cfg.dim];
        let mut best = 0usize;
        let mut best_dot = f32::NEG_INFINITY;
        for k in 0..cfg.num_classes {
            let p = &prototypes[k * cfg.dim..(k + 1) * cfg.dim];
            let dot: f32 = x.iter().zip(p).map(|(a, b)| a * b).sum();
            if dot > best_dot {
                best_dot = dot;
                best = k;
            }
        }
        if best == c as usize {
            correct += 1;
        }
    }
    correct as f64 / labels.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_have_expected_size() {
        let labels = vec![0u32, 1, 2, 0];
        for dim in [8, 7, 1] {
            let cfg = PlantedFeatureConfig { num_classes: 3, dim, ..Default::default() };
            let f = planted_features(&labels, &cfg);
            assert_eq!(f.len(), 4 * dim);
            assert!(f.iter().all(|x| x.is_finite()), "dim {dim}");
        }
    }

    /// Every point of the 24-bit grid in release builds; debug builds,
    /// which evaluate slowly, every 61st.
    fn grid() -> impl Iterator<Item = u32> {
        let step = if cfg!(debug_assertions) { 61 } else { 1 };
        (0..1u32 << 24).step_by(step).chain([(1 << 24) - 1])
    }

    #[test]
    fn ln_is_within_two_epsilon_of_std_on_the_uniform_grid() {
        let mut worst = (0.0f32, 0.0f32);
        for k in grid() {
            let u = (k + 1) as f32 * UNIT;
            let (got, want) = (ln(u), u.ln());
            let rel = if want == 0.0 { got.abs() } else { ((got - want) / want).abs() };
            if rel > worst.0 {
                worst = (rel, u);
            }
        }
        assert!(worst.0 <= 2.0 * f32::EPSILON, "ln({}) is {} ε off", worst.1, worst.0 / f32::EPSILON);
    }

    #[test]
    fn sin_cos_is_within_5e_7_of_std_on_the_uniform_grid() {
        let mut worst = (0.0f32, 0u32);
        for k in grid() {
            let (sin, cos) = sin_cos_turns(k);
            let (want_sin, want_cos) = (std::f32::consts::TAU * (k as f32 * UNIT)).sin_cos();
            let err = (sin - want_sin).abs().max((cos - want_cos).abs());
            if err > worst.0 {
                worst = (err, k);
            }
        }
        assert!(worst.0 <= 5e-7, "sin_cos at {} turns is {} off", worst.1 as f32 * UNIT, worst.0);
    }

    /// Standard normal `Φ(b) - Φ(a)` by Simpson's rule on the density.
    fn normal_mass(a: f64, b: f64) -> f64 {
        let n = 2_000;
        let h = (b - a) / n as f64;
        let pdf = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let inner: f64 = (1..n).map(|i| pdf(a + i as f64 * h) * if i % 2 == 1 { 4.0 } else { 2.0 }).sum();
        (pdf(a) + inner + pdf(b)) * h / 3.0
    }

    /// What is wrong with `pairs` as independent standard normal pairs: each
    /// half's mean (bound 5/√n) and variance (5·√(2/n)), a χ² of each half
    /// over 32 bins of width 1/4 on [-4, 4) and the two tails (33 degrees
    /// of freedom, bound 87.4: p ≈ 1e-6 by Wilson–Hilferty), and the
    /// correlation of the halves (5/√n).
    fn normal_pair_faults(pairs: &[(f32, f32)]) -> Vec<String> {
        let n = pairs.len() as f64;
        let mut edges = vec![f64::NEG_INFINITY];
        edges.extend((0..=32).map(|i| -4.0 + 0.25 * f64::from(i)));
        edges.push(f64::INFINITY);
        let expected: Vec<f64> = edges
            .windows(2)
            .map(|w| n * normal_mass(w[0].max(-12.0), w[1].min(12.0)))
            .collect();
        let mut faults = Vec::new();
        let halves: [Vec<f64>; 2] = [
            pairs.iter().map(|p| f64::from(p.0)).collect(),
            pairs.iter().map(|p| f64::from(p.1)).collect(),
        ];
        for (name, xs) in ["cos", "sin"].iter().zip(&halves) {
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            if mean.abs() > 5.0 / n.sqrt() {
                faults.push(format!("{name} half: mean {mean}"));
            }
            if (var - 1.0).abs() > 5.0 * (2.0 / n).sqrt() {
                faults.push(format!("{name} half: variance {var}"));
            }
            let mut counts = vec![0.0f64; expected.len()];
            for &x in xs {
                counts[edges.partition_point(|&e| e <= x) - 1] += 1.0;
            }
            let chi2: f64 = counts.iter().zip(&expected).map(|(o, e)| (o - e).powi(2) / e).sum();
            if chi2 > 87.4 {
                faults.push(format!("{name} half: chi-square {chi2} on 33 degrees of freedom"));
            }
        }
        let corr = halves[0].iter().zip(&halves[1]).map(|(a, b)| a * b).sum::<f64>() / n;
        if corr.abs() > 5.0 / n.sqrt() {
            faults.push(format!("the halves correlate: {corr}"));
        }
        faults
    }

    /// 2²⁰ pairs in release builds (the CI graph tier), 2¹⁸ in debug ones;
    /// every bound scales with the count.
    const PAIRS: usize = if cfg!(debug_assertions) { 1 << 18 } else { 1 << 20 };

    #[test]
    fn pairs_are_independent_standard_normals() {
        let mut normals = NormalRows::new(46, 2);
        let pairs: Vec<(f32, f32)> = (0..PAIRS)
            .map(|_| {
                let z = normals.next_row();
                (z[0], z[1])
            })
            .collect();
        let faults = normal_pair_faults(&pairs);
        assert!(faults.is_empty(), "{faults:?}");
    }

    #[test]
    fn a_rotation_that_leaves_odd_quadrants_unswapped_is_rejected() {
        // The pairs of the same words through a rotation that does not swap
        // sine and cosine on odd quarter turns.
        let mut rng = StdRng::seed_from_u64(46);
        let pairs: Vec<(f32, f32)> = (0..PAIRS)
            .map(|_| {
                let k1 = (rng.next_u64() >> 40) as u32;
                let k2 = (rng.next_u64() >> 40) as u32;
                let (cos, sin) = box_muller(k1, k2);
                let odd = ((k2 + (1 << 21)) >> 22) & 1 == 1;
                if odd { (sin, cos) } else { (cos, sin) }
            })
            .collect();
        assert!(!normal_pair_faults(&pairs).is_empty(), "the mutant passed as normal pairs");
    }

    #[test]
    fn each_class_of_the_g10k_features_centres_on_its_scaled_prototype() {
        let ds = crate::oracle::ledger_config(2868, 10_000);
        let cfg = ds.feature_config();
        let labels: Vec<u32> = (0..ds.num_nodes).map(|v| (v % ds.num_classes) as u32).collect();
        let features = planted_features(&labels, &cfg);
        let prototypes = class_prototypes(&mut NormalRows::new(cfg.seed, cfg.dim), cfg.num_classes);
        let sigma = f64::from(cfg.noise) / (cfg.dim as f64).sqrt();
        for c in 0..cfg.num_classes {
            let proto = &prototypes[c * cfg.dim..(c + 1) * cfg.dim];
            let rows: Vec<&[f32]> = features.chunks(cfg.dim).skip(c).step_by(cfg.num_classes).collect();
            let n = rows.len() as f64;
            let mut sq = 0.0;
            for (d, &p) in proto.iter().enumerate() {
                let centre = f64::from(cfg.signal * p);
                let mean = rows.iter().map(|r| f64::from(r[d])).sum::<f64>() / n;
                assert!(
                    (mean - centre).abs() <= 5.0 * sigma / n.sqrt(),
                    "class {c}, dim {d}: mean {mean}, expected {centre} ± {}",
                    5.0 * sigma / n.sqrt()
                );
                sq += rows.iter().map(|r| (f64::from(r[d]) - centre).powi(2)).sum::<f64>();
            }
            // Variance about the centre over n·dim values: relative spread
            // √(2/(n·dim)), about 1 % here; the bound is 5 of those.
            let ratio = sq / (n * cfg.dim as f64) / (sigma * sigma);
            let bound = 5.0 * (2.0 / (n * cfg.dim as f64)).sqrt();
            assert!((ratio - 1.0).abs() <= bound, "class {c}: variance {ratio}·noise²/dim, bound 1 ± {bound}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_label() {
        let cfg = PlantedFeatureConfig {
            num_classes: 2,
            ..Default::default()
        };
        planted_features(&[5], &cfg);
    }

    #[test]
    fn task_is_hard_pointwise_but_not_impossible() {
        let n = 4_000;
        let cfg = PlantedFeatureConfig {
            num_classes: 8,
            dim: 32,
            signal: 0.4,
            noise: 1.0,
            seed: 11,
        };
        let labels: Vec<u32> = (0..n).map(|v| (v % 8) as u32).collect();
        let f = planted_features(&labels, &cfg);
        let acc = pointwise_prototype_accuracy(&f, &labels, &cfg);
        let chance = 1.0 / 8.0;
        assert!(acc > chance + 0.05, "signal should be detectable, acc {acc}");
        assert!(acc < 0.95, "pointwise task must stay noisy, acc {acc}");
    }

    #[test]
    fn noise_zero_is_perfectly_separable() {
        let cfg = PlantedFeatureConfig {
            num_classes: 4,
            dim: 16,
            signal: 1.0,
            noise: 0.0,
            seed: 3,
        };
        let labels: Vec<u32> = (0..100).map(|v| (v % 4) as u32).collect();
        let f = planted_features(&labels, &cfg);
        let acc = pointwise_prototype_accuracy(&f, &labels, &cfg);
        assert!(acc > 0.99, "noise-free task should be trivial, acc {acc}");
    }
}
