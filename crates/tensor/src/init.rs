//! Weight initializers.

use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::rng::Rng;

/// Uniform Glorot/Xavier initialization for a `fan_in × fan_out` weight
/// matrix: entries drawn from `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
///
/// This matches the PyTorch Geometric default used by the paper's models.
pub fn glorot_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let data = (0..fan_in * fan_out)
        .map(|_| rng.random_range(-a..=a))
        .collect();
    Tensor::from_vec(data, Shape::matrix(fan_in, fan_out))
}

/// Uniform entries in `[lo, hi)`.
pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    let data = (0..shape.len()).map(|_| rng.random_range(lo..hi)).collect();
    Tensor::from_vec(data, shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    #[test]
    fn glorot_respects_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = glorot_uniform(64, 32, &mut rng);
        let a = (6.0 / 96.0f32).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= a));
        assert_eq!(w.shape().dims(), &[64, 32]);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        assert_eq!(
            glorot_uniform(4, 4, &mut a).data(),
            glorot_uniform(4, 4, &mut b).data()
        );
    }
}
