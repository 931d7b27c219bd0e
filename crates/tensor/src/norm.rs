//! Batch normalization over the row dimension (PyTorch `BatchNorm1d`).

#![expect(
    clippy::indexing_slicing,
    reason = "per-row slices are cols long by the asserted input shape and c < cols is the loop bound"
)]

use crate::autograd::{tracked_only, Var};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Per-column mean and (biased) variance of a rank-2 tensor.
///
/// # Panics
///
/// Panics if the tensor has zero rows.
pub fn column_stats(x: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let (rows, cols) = (x.rows(), x.cols());
    assert!(rows > 0, "column_stats of empty batch");
    let mut mean = vec![0.0f32; cols];
    for r in 0..rows {
        for (m, v) in mean.iter_mut().zip(x.row(r).iter()) {
            *m += v;
        }
    }
    let inv_n = 1.0 / rows as f32;
    for m in &mut mean {
        *m *= inv_n;
    }
    let mut var = vec![0.0f32; cols];
    for r in 0..rows {
        for ((v, &x), &m) in var.iter_mut().zip(x.row(r).iter()).zip(mean.iter()) {
            let d = x - m;
            *v += d * d;
        }
    }
    for v in &mut var {
        *v *= inv_n;
    }
    (mean, var)
}

impl Var {
    /// Training-mode batch normalization: normalizes each column by the batch
    /// statistics and applies the affine transform `γ·x̂ + β`.
    ///
    /// Returns the output along with the batch mean and biased variance so
    /// the calling layer can update its running statistics.
    ///
    /// The backward pass uses the full batch-norm gradient (the batch
    /// statistics are treated as functions of the input).
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` are not length-`cols` vectors or the batch is
    /// empty.
    pub fn batch_norm_train(
        &self,
        gamma: &Var,
        beta: &Var,
        eps: f32,
    ) -> (Var, Vec<f32>, Vec<f32>) {
        self.same_tape(gamma);
        self.same_tape(beta);
        let x = self.value();
        let (rows, cols) = (x.rows(), x.cols());
        let g = gamma.value();
        let b = beta.value();
        assert_eq!(g.len(), cols, "gamma must have one entry per column");
        assert_eq!(b.len(), cols, "beta must have one entry per column");
        let (mean, var) = column_stats(&x);
        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();

        let mut xhat = vec![0.0f32; rows * cols];
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            let xrow = x.row(r);
            for c in 0..cols {
                let h = (xrow[c] - mean[c]) * inv_std[c];
                xhat[r * cols + c] = h;
                out[r * cols + c] = g.data()[c] * h + b.data()[c];
            }
        }
        let xhat_saved = Tensor::from_vec(xhat, Shape::matrix(rows, cols));
        let gamma_v = g.clone();
        let inv_std_saved = inv_std.clone();
        let out = Tensor::from_vec(out, Shape::matrix(rows, cols));
        let out = self.affine_node(gamma, beta, out, move |gout| {
            let n = rows as f32;
            let god = gout.data();
            let xh = xhat_saved.data();
            // Column reductions: Σg and Σ(g·x̂).
            let mut sum_g = vec![0.0f32; cols];
            let mut sum_gx = vec![0.0f32; cols];
            for r in 0..rows {
                for c in 0..cols {
                    let v = god[r * cols + c];
                    sum_g[c] += v;
                    sum_gx[c] += v * xh[r * cols + c];
                }
            }
            let mut dx = Tensor::zeros(Shape::matrix(rows, cols));
            let dxd = dx.data_mut();
            for r in 0..rows {
                for c in 0..cols {
                    let i = r * cols + c;
                    dxd[i] = gamma_v.data()[c] * inv_std_saved[c] / n
                        * (n * god[i] - sum_g[c] - xh[i] * sum_gx[c]);
                }
            }
            (dx, sum_gx, sum_g)
        });
        (out, mean, var)
    }

    /// Evaluation-mode batch normalization using fixed running statistics
    /// (which are treated as constants by the backward pass).
    ///
    /// # Panics
    ///
    /// Panics if the statistic vectors are not length-`cols`.
    pub fn batch_norm_eval(
        &self,
        gamma: &Var,
        beta: &Var,
        running_mean: &[f32],
        running_var: &[f32],
        eps: f32,
    ) -> Var {
        self.same_tape(gamma);
        self.same_tape(beta);
        let x = self.value();
        let (rows, cols) = (x.rows(), x.cols());
        assert_eq!(running_mean.len(), cols, "running mean length mismatch");
        assert_eq!(running_var.len(), cols, "running var length mismatch");
        let g = gamma.value();
        let b = beta.value();
        let inv_std: Vec<f32> = running_var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
        let mut xhat = vec![0.0f32; rows * cols];
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            let xrow = x.row(r);
            for c in 0..cols {
                let h = (xrow[c] - running_mean[c]) * inv_std[c];
                xhat[r * cols + c] = h;
                out[r * cols + c] = g.data()[c] * h + b.data()[c];
            }
        }
        let gamma_v = g.clone();
        let xhat = Tensor::from_vec(xhat, Shape::matrix(rows, cols));
        let out = Tensor::from_vec(out, Shape::matrix(rows, cols));
        self.affine_node(gamma, beta, out, move |gout| {
            let god = gout.data();
            let xh = xhat.data();
            let mut sum_g = vec![0.0f32; cols];
            let mut sum_gx = vec![0.0f32; cols];
            let mut dx = Tensor::zeros(Shape::matrix(rows, cols));
            let dxd = dx.data_mut();
            for r in 0..rows {
                for c in 0..cols {
                    let i = r * cols + c;
                    sum_g[c] += god[i];
                    sum_gx[c] += god[i] * xh[i];
                    dxd[i] = god[i] * gamma_v.data()[c] * inv_std[c];
                }
            }
            (dx, sum_gx, sum_g)
        })
    }

    /// Records a batch-norm node over `(self, gamma, beta)`. `backward` maps
    /// the output gradient to `(dx, dγ, dβ)`; only the contributions of
    /// tracked parents are passed on.
    fn affine_node(
        &self,
        gamma: &Var,
        beta: &Var,
        value: Tensor,
        backward: impl Fn(&Tensor) -> (Tensor, Vec<f32>, Vec<f32>) + 'static,
    ) -> Var {
        let [x, g, b] = [self, gamma, beta].map(|v| (v.needs_grad(), v.id));
        self.tape().record(value, x.0 || g.0 || b.0, || {
            Box::new(move |gout| {
                let (dx, dgamma, dbeta) = backward(&gout);
                let cols = Shape::vector(dgamma.len());
                tracked_only([
                    (x.0, x.1, dx),
                    (g.0, g.1, Tensor::from_vec(dgamma, cols.clone())),
                    (b.0, b.1, Tensor::from_vec(dbeta, cols)),
                ])
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Tape;

    #[test]
    fn column_stats_basic() {
        let x = Tensor::from_vec(vec![1.0, 10.0, 3.0, 20.0], [2, 2]);
        let (m, v) = column_stats(&x);
        assert_eq!(m, vec![2.0, 15.0]);
        assert_eq!(v, vec![1.0, 25.0]);
    }

    #[test]
    fn train_output_is_normalized() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]));
        let g = tape.leaf(Tensor::ones([2]));
        let b = tape.leaf(Tensor::zeros([2]));
        let (y, mean, var) = x.batch_norm_train(&g, &b, 1e-5);
        assert_eq!(mean, vec![3.0, 4.0]);
        let yv = y.value();
        let (m2, v2) = column_stats(&yv);
        for c in 0..2 {
            assert!(m2[c].abs() < 1e-5, "normalized mean ~0");
            assert!((v2[c] - 1.0).abs() < 1e-3, "normalized var ~1, got {}", v2[c]);
            assert!(var[c] > 0.0);
        }
    }

    #[test]
    fn affine_params_receive_gradients() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]));
        let g = tape.leaf(Tensor::ones([2]));
        let b = tape.leaf(Tensor::zeros([2]));
        let (y, _, _) = x.batch_norm_train(&g, &b, 1e-5);
        let grads = tape.backward(&y.sum_all());
        // dβ = Σ g_out = rows per column.
        assert_eq!(grads.wrt(&b).unwrap().data(), &[2.0, 2.0]);
        // dγ = Σ g_out · x̂; x̂ sums to zero per column.
        let dg = grads.wrt(&g).unwrap();
        assert!(dg.data().iter().all(|v| v.abs() < 1e-4));
    }

    #[test]
    fn train_gradient_matches_numeric() {
        let x0 = [0.5f32, -1.0, 2.0, 0.3, 1.1, -0.4];
        let loss_of = |xs: &[f32]| {
            let tape = Tape::new();
            let x = tape.leaf(Tensor::from_vec(xs.to_vec(), [3, 2]));
            let g = tape.leaf(Tensor::from_vec(vec![1.5, 0.5], [2]));
            let b = tape.leaf(Tensor::from_vec(vec![0.1, -0.2], [2]));
            let (y, _, _) = x.batch_norm_train(&g, &b, 1e-5);
            let loss = y.mul(&y).sum_all();
            (tape, x, loss)
        };
        let (tape, x, loss) = loss_of(&x0);
        let grads = tape.backward(&loss);
        let analytic = grads.wrt(&x).unwrap().clone();
        let eps = 1e-3;
        for i in 0..x0.len() {
            let mut xp = x0;
            xp[i] += eps;
            let mut xm = x0;
            xm[i] -= eps;
            let up = loss_of(&xp).2.value().item();
            let down = loss_of(&xm).2.value().item();
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (analytic.data()[i] - numeric).abs() < 2e-2,
                "element {i}: analytic {} vs numeric {}",
                analytic.data()[i],
                numeric
            );
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![10.0, 20.0], [1, 2]));
        let g = tape.leaf(Tensor::ones([2]));
        let b = tape.leaf(Tensor::zeros([2]));
        let y = x.batch_norm_eval(&g, &b, &[10.0, 10.0], &[4.0, 4.0], 0.0);
        let yv = y.value();
        assert!((yv.data()[0] - 0.0).abs() < 1e-6);
        assert!((yv.data()[1] - 5.0).abs() < 1e-6);
    }
}
