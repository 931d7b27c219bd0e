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

#![expect(
    clippy::indexing_slicing,
    reason = "labels are asserted below num_classes, and every range is one dim-wide row of a buffer sized rows x dim"
)]

use salient_tensor::rng::Rng;
use salient_tensor::Shape;

/// Configuration of the planted feature model.
#[derive(Clone, Debug)]
pub struct PlantedFeatureConfig {
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

fn gaussian(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.random::<f32>().max(1e-12);
    let u2: f32 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Random unit prototypes, one per class: the first draws of `cfg.seed`'s
/// stream.
fn class_prototypes(rng: &mut impl Rng, cfg: &PlantedFeatureConfig) -> Vec<f32> {
    let mut prototypes = vec![0.0f32; cfg.num_classes * cfg.dim];
    for p in prototypes.chunks_mut(cfg.dim) {
        let mut norm = 0.0f32;
        for x in p.iter_mut() {
            *x = gaussian(rng);
            norm += *x * *x;
        }
        let inv = 1.0 / norm.sqrt().max(1e-6);
        for x in p.iter_mut() {
            *x *= inv;
        }
    }
    prototypes
}

/// Draws the planted feature row of each node in turn into one `dim`-wide
/// scratch and hands it to `row(v, values)`, so a caller that stores rows
/// narrowed never holds the whole matrix in `f32`.
///
/// # Panics
///
/// Panics if a label is `>= num_classes`.
pub(crate) fn planted_rows(labels: &[u32], cfg: &PlantedFeatureConfig, mut row: impl FnMut(usize, &[f32])) {
    let mut rng = salient_tensor::rng::StdRng::seed_from_u64(cfg.seed);
    let prototypes = class_prototypes(&mut rng, cfg);
    let mut scratch = vec![0.0f32; cfg.dim];
    for (v, &c) in labels.iter().enumerate() {
        assert!(
            (c as usize) < cfg.num_classes,
            "label {c} out of range for {} classes",
            cfg.num_classes
        );
        let proto = &prototypes[c as usize * cfg.dim..(c as usize + 1) * cfg.dim];
        for (o, &p) in scratch.iter_mut().zip(proto) {
            *o = cfg.signal * p + cfg.noise * gaussian(&mut rng) / (cfg.dim as f32).sqrt();
        }
        row(v, &scratch);
    }
}

/// Generates `num_nodes × dim` planted features for the given labels.
///
/// Returns a flat row-major `f32` buffer.
///
/// # Panics
///
/// Panics if a label is `>= num_classes`.
pub fn planted_features(labels: &[u32], cfg: &PlantedFeatureConfig) -> Vec<f32> {
    let mut out = Vec::with_capacity(labels.len() * cfg.dim);
    planted_rows(labels, cfg, |_, values| out.extend_from_slice(values));
    out
}

/// A linear readout bound on the planted task: classify each node by the
/// nearest class prototype using *only its own feature*. Used in tests to
/// verify that the pointwise problem is genuinely hard (so neighborhood
/// aggregation has something to add).
pub fn pointwise_prototype_accuracy(
    features: &[f32],
    labels: &[u32],
    cfg: &PlantedFeatureConfig,
) -> f64 {
    // Re-derive the same prototypes (same seed, same draw order).
    let prototypes = class_prototypes(&mut salient_tensor::rng::StdRng::seed_from_u64(cfg.seed), cfg);
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

/// Sanity helper: the shape of the feature tensor produced by
/// [`planted_features`].
pub fn feature_shape(num_nodes: usize, cfg: &PlantedFeatureConfig) -> Shape {
    Shape::matrix(num_nodes, cfg.dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_have_expected_size() {
        let labels = vec![0u32, 1, 2, 0];
        let cfg = PlantedFeatureConfig {
            num_classes: 3,
            dim: 8,
            ..Default::default()
        };
        let f = planted_features(&labels, &cfg);
        assert_eq!(f.len(), 4 * 8);
        assert_eq!(feature_shape(4, &cfg).dims(), &[4, 8]);
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
