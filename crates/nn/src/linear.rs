//! Dense (fully connected) layer.

use salient_tensor::rng::Rng;
use salient_tensor::{init, Param, Tape, Tensor, Var};

/// A linear transform `y = x W (+ b)`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
    out_features: usize,
}

impl Linear {
    /// Creates a Glorot-initialized linear layer.
    pub(crate) fn new(
        name: &str,
        in_features: usize,
        out_features: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        Linear {
            weight: Param::new(
                format!("{name}.weight"),
                init::glorot_uniform(in_features, out_features, rng),
            ),
            bias: bias.then(|| Param::new(format!("{name}.bias"), Tensor::zeros([out_features]))),
            out_features,
        }
    }

    /// Output dimensionality.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Applies the layer.
    pub(crate) fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let w = tape.param(&self.weight);
        let y = x.matmul(&w);
        match &self.bias {
            Some(b) => y.add(&tape.param(b)),
            None => y,
        }
    }

    /// Trainable parameters.
    pub(crate) fn params(&self) -> Vec<&Param> {
        match &self.bias {
            Some(b) => vec![&self.weight, b],
            None => vec![&self.weight],
        }
    }

    /// Mutable trainable parameters.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        match &mut self.bias {
            Some(b) => vec![&mut self.weight, b],
            None => vec![&mut self.weight],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(0);
        let layer = Linear::new("l", 4, 3, true, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones([2, 4]));
        let y = layer.forward(&tape, &x);
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(layer.params().len(), 2);
    }

    #[test]
    fn gradients_flow_to_weight_and_bias() {
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(1);
        let mut layer = Linear::new("l", 2, 2, true, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones([1, 2]));
        let loss = layer.forward(&tape, &x).sum_all();
        let grads = tape.backward(&loss);
        grads.apply_to(layer.params_mut());
        for p in layer.params() {
            assert!(p.grad().norm() > 0.0, "param {} got no gradient", p.name());
        }
    }

    #[test]
    fn no_bias_variant() {
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(2);
        let layer = Linear::new("l", 3, 3, false, &mut rng);
        assert_eq!(layer.params().len(), 1);
        assert_eq!(layer.out_features(), 3);
    }
}
