//! First-order optimizers operating on [`Param`]s.

use crate::autograd::{Param, ParamId};
use crate::tensor::Tensor;
use std::collections::HashMap;

/// An optimizer updates parameter values from their accumulated gradients.
///
/// Matching the reference workflow of Listing 1 in the paper
/// (`optimizer.zero_grad(); loss.backward(); optimizer.step()`), a training
/// step is: zero gradients, run backward, [`Optimizer::step`].
pub trait Optimizer {
    /// Applies one update to every parameter using its current `.grad()` and
    /// leaves the gradient untouched (call [`zero_grads`] afterwards or
    /// before the next backward).
    fn step<'a>(&mut self, params: impl Iterator<Item = &'a mut Param>)
    where
        Self: Sized;
}

/// Zeroes the gradient of every parameter.
pub fn zero_grads<'a>(params: impl Iterator<Item = &'a mut Param>) {
    for p in params {
        p.zero_grad();
    }
}

/// Adam (Kingma & Ba, 2015), the paper's optimizer of choice.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: HashMap<ParamId, Tensor>,
    v: HashMap<ParamId, Tensor>,
}

impl Adam {
    /// Creates Adam with standard defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> i32 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step<'a>(&mut self, params: impl Iterator<Item = &'a mut Param>) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for p in params {
            let g = p.grad().clone();
            let m = self
                .m
                .entry(p.id())
                .or_insert_with(|| Tensor::zeros(g.shape()));
            let v = self
                .v
                .entry(p.id())
                .or_insert_with(|| Tensor::zeros(g.shape()));
            m.scale(self.beta1);
            m.axpy(1.0 - self.beta1, &g);
            {
                let vd = v.data_mut();
                for (vv, gg) in vd.iter_mut().zip(g.data().iter()) {
                    *vv = self.beta2 * *vv + (1.0 - self.beta2) * gg * gg;
                }
            }
            let lr = self.lr;
            let eps = self.eps;
            let value = p.value_mut();
            let vd = v.data();
            let md = m.data();
            let dst = value.data_mut();
            for ((w, &mm), &vv) in dst.iter_mut().zip(md.iter()).zip(vd.iter()) {
                let mhat = mm / bc1;
                let vhat = vv / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(p: &Param) -> Tensor {
        // d/dw (w - 3)^2 = 2 (w - 3)
        p.value().map(|w| 2.0 * (w - 3.0))
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Param::new("w", Tensor::scalar(10.0));
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            p.zero_grad();
            let g = quadratic_grad(&p);
            p.accumulate_grad(&g);
            opt.step(std::iter::once(&mut p));
        }
        assert!((p.value().item() - 3.0).abs() < 1e-2, "got {}", p.value().item());
        assert_eq!(opt.steps(), 300);
    }
}
