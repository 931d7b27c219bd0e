//! `BatchNorm1d` with running statistics (used by GIN and GraphSAGE-RI).

use salient_tensor::{Param, Tape, Tensor, Var};

/// Batch normalization over rows with learnable affine parameters and
/// exponential-moving-average running statistics.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `num_features` columns.
    pub(crate) fn new(name: &str, num_features: usize) -> Self {
        BatchNorm1d {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones([num_features])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros([num_features])),
            running_mean: vec![0.0; num_features],
            running_var: vec![1.0; num_features],
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Current running mean (for checkpointing/tests).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Applies the layer. In training mode batch statistics are used and the
    /// running statistics updated; in eval mode the running statistics are
    /// used.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have `num_features` columns.
    pub(crate) fn forward(&mut self, tape: &Tape, x: &Var, training: bool) -> Var {
        let g = tape.param(&self.gamma);
        let b = tape.param(&self.beta);
        if training {
            let (y, mean, var) = x.batch_norm_train(&g, &b, self.eps);
            let m = self.momentum;
            for ((rm, rv), (bm, bv)) in self
                .running_mean
                .iter_mut()
                .zip(self.running_var.iter_mut())
                .zip(mean.iter().zip(var.iter()))
            {
                *rm = (1.0 - m) * *rm + m * bm;
                *rv = (1.0 - m) * *rv + m * bv;
            }
            y
        } else {
            x.batch_norm_eval(&g, &b, &self.running_mean, &self.running_var, self.eps)
        }
    }

    /// Trainable parameters.
    pub(crate) fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    /// Mutable trainable parameters.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_tensor::column_stats;

    #[test]
    fn training_normalizes_and_updates_running_stats() {
        let mut bn = BatchNorm1d::new("bn", 2);
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![0.0, 10.0, 2.0, 30.0], [2, 2]));
        let y = bn.forward(&tape, &x, true);
        let (m, _) = column_stats(&y.value());
        assert!(m.iter().all(|v| v.abs() < 1e-4), "normalized mean ≈ 0");
        // Running mean moved toward the batch mean (1, 20).
        assert!(bn.running_mean()[0] > 0.0);
        assert!(bn.running_mean()[1] > 1.0);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new("bn", 1);
        // Prime running stats with several training batches.
        for i in 0..100 {
            let tape = Tape::new();
            let x = tape.constant(Tensor::from_vec(vec![5.0 + (i % 2) as f32, 5.0 - (i % 2) as f32], [2, 1]));
            bn.forward(&tape, &x, true);
        }
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![5.0], [1, 1]));
        let y = bn.forward(&tape, &x, false);
        // x equals (roughly) the running mean, so output ≈ beta = 0.
        assert!(y.value().item().abs() < 0.7, "got {}", y.value().item());
    }
}
