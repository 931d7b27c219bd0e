//! Differentiable tensor operations recorded on the autograd [`Tape`].
//!
//! Every method on [`Var`] appends a node; when one of its parents is
//! tracked the node also carries a backward closure producing the gradient
//! contributions for those parents (see `Tape::record`). Raw
//! (non-differentiable) kernels such as [`gemm`] live in [`crate::kernels`]
//! and are re-exported here for optimizer / communication code.
//!
//! [`Tape`]: crate::Tape

#![expect(
    clippy::indexing_slicing,
    reason = "ranges in this file are bounded by operand shapes asserted when the op was recorded"
)]

use crate::autograd::Var;
use crate::kernels;
use crate::rng::Rng;
use crate::shape::Shape;
use crate::tensor::Tensor;

pub(crate) use crate::kernels::gemm;

/// Broadcasts `grad` (shape `r×c`) down to `shape` by summing over rows when
/// `shape` is a row vector / scalar. Used by the backward pass of broadcast
/// addition.
fn reduce_to_shape(grad: &Tensor, shape: &Shape) -> Tensor {
    if grad.shape() == shape {
        return grad.clone();
    }
    if shape.rank() == 0 {
        return Tensor::scalar(grad.sum());
    }
    // Sum over rows into a single row of `shape.len()` columns.
    let cols = shape.len();
    assert_eq!(grad.cols(), cols, "broadcast reduce mismatch");
    let mut out = Tensor::zeros(shape.clone());
    let od = out.data_mut();
    for r in 0..grad.rows() {
        for (o, v) in od.iter_mut().zip(grad.row(r).iter()) {
            *o += v;
        }
    }
    out
}

/// Adds `b` (same shape, row vector, or scalar) to every row of `a`.
fn broadcast_add(a: &Tensor, b: &Tensor) -> Tensor {
    if a.shape() == b.shape() {
        return a.zip(b, |x, y| x + y);
    }
    assert!(
        a.shape().broadcasts_with(b.shape()),
        "cannot broadcast {} onto {}",
        b.shape(),
        a.shape()
    );
    if b.shape().rank() == 0 {
        let s = b.item();
        return a.map(|x| x + s);
    }
    let cols = a.cols();
    let mut out = a.clone();
    let bd = b.data();
    for orow in out.data_mut().chunks_exact_mut(cols.max(1)) {
        for (o, v) in orow.iter_mut().zip(bd.iter()) {
            *o += v;
        }
    }
    out
}

impl Var {
    /// Records a two-parent op whose backward yields one contribution per
    /// parent; a contribution is computed only for a tracked parent.
    fn binary<A, B>(&self, rhs: &Var, value: Tensor, backward: impl FnOnce() -> (A, B)) -> Var
    where
        A: Fn(&Tensor) -> Tensor + 'static,
        B: Fn(&Tensor) -> Tensor + 'static,
    {
        let (ia, ib) = (self.id, rhs.id);
        let (na, nb) = (self.needs_grad(), rhs.needs_grad());
        self.tape().record(value, na || nb, || {
            let (da, db) = backward();
            Box::new(move |g| {
                let mut contribs = Vec::with_capacity(2);
                if na {
                    contribs.push((ia, da(&g)));
                }
                if nb {
                    contribs.push((ib, db(&g)));
                }
                contribs
            })
        })
    }

    /// Matrix product `self @ rhs`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or the vars are on different
    /// tapes.
    pub fn matmul(&self, rhs: &Var) -> Var {
        self.same_tape(rhs);
        let (a, b) = (self.value(), rhs.value());
        let out = gemm(&a, &b, false, false);
        self.binary(rhs, out, || {
            (
                move |g: &Tensor| gemm(g, &b, false, true),
                move |g: &Tensor| gemm(&a, g, true, false),
            )
        })
    }

    /// Elementwise / broadcast addition. `rhs` may have the same shape, be a
    /// row vector matching `self`'s columns (bias), or a scalar.
    pub fn add(&self, rhs: &Var) -> Var {
        self.same_tape(rhs);
        let b = rhs.value();
        let out = broadcast_add(&self.value(), &b);
        self.binary(rhs, out, || {
            let bshape = b.shape().clone();
            (Tensor::clone, move |g: &Tensor| reduce_to_shape(g, &bshape))
        })
    }

    /// Elementwise product (same shapes only).
    pub fn mul(&self, rhs: &Var) -> Var {
        self.same_tape(rhs);
        let (a, b) = (self.value(), rhs.value());
        let out = a.zip(&b, |x, y| x * y);
        self.binary(rhs, out, || {
            (
                move |g: &Tensor| g.zip(&b, |gv, bv| gv * bv),
                move |g: &Tensor| g.zip(&a, |gv, av| gv * av),
            )
        })
    }

    /// Multiplication by a compile-time constant scalar.
    pub fn scale(&self, c: f32) -> Var {
        let out = self.value().map(|x| x * c);
        self.unary(out, || move |g: Tensor| g.map(|gv| gv * c))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        let a = self.value();
        let out = a.map(|x| x.max(0.0));
        self.unary(out, || {
            move |g: Tensor| g.zip(&a, |gv, av| if av > 0.0 { gv } else { 0.0 })
        })
    }

    /// Leaky rectified linear unit with negative-side `slope`.
    pub fn leaky_relu(&self, slope: f32) -> Var {
        let a = self.value();
        let out = a.map(|x| if x > 0.0 { x } else { slope * x });
        self.unary(out, || {
            move |g: Tensor| g.zip(&a, |gv, av| if av > 0.0 { gv } else { slope * gv })
        })
    }

    /// Inverted dropout: during training each element is zeroed with
    /// probability `p` and survivors are scaled by `1/(1-p)`; at inference it
    /// is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn dropout(&self, p: f32, training: bool, rng: &mut impl Rng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability {p} not in [0,1)");
        if !training || p == 0.0 {
            return self.unary(self.value(), || |g: Tensor| g);
        }
        let a = self.value();
        let keep = 1.0 - p;
        let mask = Tensor::filled_by(a.shape().clone(), |mask| {
            for m in mask {
                *m = if rng.random::<f32>() < keep { 1.0 / keep } else { 0.0 };
            }
        });
        let out = a.zip(&mask, |x, m| x * m);
        self.unary(out, || move |g: Tensor| g.zip(&mask, |gv, m| gv * m))
    }

    /// ReLU followed by inverted dropout as one node and one in-place pass
    /// (see [`kernels::relu_dropout_in_place`]); with `training` off it is a
    /// plain ReLU and draws nothing from `rng`. The dropout mask is not
    /// stored: the backward pass reads it off the sign of the output.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn relu_dropout(&self, p: f32, training: bool, rng: &mut impl Rng) -> Var {
        let mut out = self.value();
        let scale =
            kernels::relu_dropout_in_place(out.data_mut(), if training { p } else { 0.0 }, rng);
        let saved = out.clone();
        self.unary(out, || {
            move |mut g: Tensor| {
                kernels::relu_dropout_backward(g.data_mut(), saved.data(), scale);
                g
            }
        })
    }

    /// Row-wise log-softmax (numerically stabilized by the row max).
    pub fn log_softmax(&self) -> Var {
        let a = self.value();
        let cols = a.cols();
        let mut out = Tensor::zeros(a.shape().clone());
        for (r, orow) in out.data_mut().chunks_exact_mut(cols.max(1)).enumerate() {
            let row = a.row(r);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = row.iter().map(|x| (x - m).exp()).sum::<f32>().ln() + m;
            for (o, &x) in orow.iter_mut().zip(row.iter()) {
                *o = x - lse;
            }
        }
        let saved = out.clone();
        self.unary(out, || {
            // d log_softmax: g - softmax * sum_row(g), in place on g.
            move |mut g: Tensor| {
                let rows = g.data_mut().chunks_exact_mut(cols.max(1));
                for (grow, srow) in rows.zip(saved.data().chunks_exact(cols.max(1))) {
                    let gsum: f32 = grow.iter().sum();
                    for (gv, s) in grow.iter_mut().zip(srow) {
                        *gv -= s.exp() * gsum;
                    }
                }
                g
            }
        })
    }

    /// Mean negative log likelihood of `targets` given row-wise
    /// log-probabilities (the output of [`Var::log_softmax`]).
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != self.rows()` or a target is out of range.
    pub fn nll_loss(&self, targets: &[usize]) -> Var {
        let a = self.value();
        let (rows, cols) = (a.rows(), a.cols());
        assert_eq!(targets.len(), rows, "one target per row required");
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < cols, "target {t} out of range for {cols} classes");
            loss -= a.row(r)[t];
        }
        loss /= rows.max(1) as f32;
        self.unary(Tensor::scalar(loss), || {
            let targets = targets.to_vec();
            let shape = a.shape().clone();
            move |g: Tensor| {
                let scale = g.item() / targets.len().max(1) as f32;
                let mut dx = Tensor::zeros(shape.clone());
                let dxd = dx.data_mut();
                for (r, &t) in targets.iter().enumerate() {
                    dxd[r * cols + t] = -scale;
                }
                dx
            }
        })
    }

    /// Sum of all elements, as a scalar variable.
    pub fn sum_all(&self) -> Var {
        let a = self.value();
        self.unary(Tensor::scalar(a.sum()), || {
            let shape = a.shape().clone();
            move |g: Tensor| Tensor::full(shape.clone(), g.item())
        })
    }

    /// Reinterprets the value with a new shape (same element count).
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Var {
        let a = self.value();
        self.unary(a.reshape(shape), || {
            let old_shape = a.shape().clone();
            move |g: Tensor| g.reshape(old_shape.clone())
        })
    }

    /// Flattens to a rank-1 vector.
    pub fn reshape_vector(&self) -> Var {
        let n = self.value().len();
        self.reshape([n])
    }

    /// Keeps the first `k` rows (PyG's `x[:k]` target slice) as a view: the
    /// forward pass copies nothing.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the number of rows.
    pub fn narrow_rows(&self, k: usize) -> Var {
        let a = self.value();
        self.unary(a.narrow_rows(k), || {
            let shape = a.shape().clone();
            move |g: Tensor| {
                let mut dx = Tensor::zeros(shape.clone());
                // g is k of dx's rows.
                dx.data_mut()[..g.len()].copy_from_slice(g.data());
                dx
            }
        })
    }

    /// Concatenates `vars` along columns (dim 1). All operands must have the
    /// same number of rows.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or row counts differ.
    pub fn concat_cols(vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "concat_cols of no tensors");
        for w in &vars[1..] {
            vars[0].same_tape(w);
        }
        let tensors: Vec<Tensor> = vars.iter().map(|v| v.value()).collect();
        let rows = tensors[0].rows();
        for t in &tensors {
            assert_eq!(t.rows(), rows, "concat_cols row mismatch");
        }
        let widths: Vec<usize> = tensors.iter().map(|t| t.cols()).collect();
        let total: usize = widths.iter().sum();
        let mut out = Tensor::zeros(Shape::matrix(rows, total));
        for (r, orow) in out.data_mut().chunks_exact_mut(total.max(1)).enumerate() {
            let mut off = 0;
            for (t, &w) in tensors.iter().zip(widths.iter()) {
                orow[off..off + w].copy_from_slice(t.row(r));
                off += w;
            }
        }
        // (node id, column offset, width) of every tracked operand.
        let mut tracked = Vec::new();
        let mut off = 0;
        for (v, &w) in vars.iter().zip(widths.iter()) {
            if v.needs_grad() {
                tracked.push((v.id, off, w));
            }
            off += w;
        }
        vars[0].tape().record(out, !tracked.is_empty(), || {
            Box::new(move |g| {
                tracked
                    .iter()
                    .map(|&(id, off, w)| {
                        let mut dx = Tensor::zeros(Shape::matrix(rows, w));
                        let drows = dx.data_mut().chunks_exact_mut(w.max(1));
                        for (drow, grow) in drows.zip(g.data().chunks_exact(total.max(1))) {
                            drow.copy_from_slice(&grow[off..off + w]);
                        }
                        (id, dx)
                    })
                    .collect()
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Tape;

    fn t(data: &[f32], shape: impl Into<Shape>) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    #[test]
    fn gemm_all_transpose_combinations() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]);
        let c = gemm(&a, &b, false, false);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);

        let at = t(&[1.0, 4.0, 2.0, 5.0, 3.0, 6.0], [3, 2]); // a^T
        assert_eq!(gemm(&at, &b, true, false).data(), c.data());

        let bt = t(&[7.0, 9.0, 11.0, 8.0, 10.0, 12.0], [2, 3]); // b^T
        assert_eq!(gemm(&a, &bt, false, true).data(), c.data());
        assert_eq!(gemm(&at, &bt, true, true).data(), c.data());
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn gemm_dim_mismatch_panics() {
        gemm(&Tensor::zeros([2, 3]), &Tensor::zeros([2, 3]), false, false);
    }

    #[test]
    fn matmul_gradients() {
        let tape = Tape::new();
        let a = tape.leaf(t(&[1.0, 2.0, 3.0, 4.0], [2, 2]));
        let b = tape.leaf(t(&[5.0, 6.0, 7.0, 8.0], [2, 2]));
        let y = a.matmul(&b).sum_all();
        let g = tape.backward(&y);
        // d/dA (sum AB) = ones @ B^T
        assert_eq!(g.wrt(&a).unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(g.wrt(&b).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn bias_broadcast_add_reduces_grad() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::zeros([3, 2]));
        let bias = tape.leaf(t(&[1.0, 2.0], [2]));
        let y = x.add(&bias).sum_all();
        let g = tape.backward(&y);
        assert_eq!(g.wrt(&bias).unwrap().data(), &[3.0, 3.0]);
    }

    #[test]
    fn scalar_broadcast_add() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 2]));
        let s = tape.leaf(Tensor::scalar(10.0));
        let y = x.add(&s);
        assert_eq!(y.value().data(), &[11.0; 4]);
        let g = tape.backward(&y.sum_all());
        assert_eq!(g.wrt(&s).unwrap().item(), 4.0);
    }

    #[test]
    fn relu_and_leaky_relu_grads() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[-1.0, 2.0], [2]));
        let g = tape.backward(&x.relu().sum_all());
        assert_eq!(g.wrt(&x).unwrap().data(), &[0.0, 1.0]);

        let tape = Tape::new();
        let x = tape.leaf(t(&[-1.0, 2.0], [2]));
        let g = tape.backward(&x.leaky_relu(0.1).sum_all());
        assert_eq!(g.wrt(&x).unwrap().data(), &[0.1, 1.0]);
    }

    #[test]
    fn log_softmax_rows_sum_to_one_in_prob_space() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], [2, 3]));
        let ls = x.log_softmax().value();
        for r in 0..2 {
            let p: f32 = ls.row(r).iter().map(|v| v.exp()).sum();
            assert!((p - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn nll_loss_matches_manual() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[0.0, 1.0, 0.5, 2.0], [2, 2]));
        let ls = x.log_softmax();
        let loss = ls.nll_loss(&[1, 0]);
        let manual = {
            let v = ls.value();
            -(v.row(0)[1] + v.row(1)[0]) / 2.0
        };
        assert!((loss.value().item() - manual).abs() < 1e-6);
    }

    #[test]
    fn softmax_nll_grad_is_p_minus_onehot() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[0.2, -0.3, 0.5], [1, 3]));
        let ls = x.log_softmax();
        let loss = ls.nll_loss(&[2]);
        let g = tape.backward(&loss);
        let probs: Vec<f32> = ls.value().row(0).iter().map(|v| v.exp()).collect();
        let gx = g.wrt(&x).unwrap();
        for c in 0..3 {
            let expect = probs[c] - if c == 2 { 1.0 } else { 0.0 };
            assert!((gx.row(0)[c] - expect).abs() < 1e-5, "class {c}");
        }
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut rng = crate::rng::StdRng::seed_from_u64(0);
        let tape = Tape::new();
        let x = tape.leaf(t(&[1.0, 2.0, 3.0], [3]));
        let y = x.dropout(0.5, false, &mut rng);
        assert_eq!(y.value().data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropout_train_preserves_expectation_roughly() {
        let mut rng = crate::rng::StdRng::seed_from_u64(7);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([10_000]));
        let y = x.dropout(0.5, true, &mut rng).value();
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout keeps mean, got {mean}");
    }

    #[test]
    fn concat_and_narrow_roundtrip_grads() {
        let tape = Tape::new();
        let a = tape.leaf(t(&[1.0, 2.0], [1, 2]));
        let b = tape.leaf(t(&[3.0], [1, 1]));
        let c = Var::concat_cols(&[a.clone(), b.clone()]);
        assert_eq!(c.value().data(), &[1.0, 2.0, 3.0]);
        let g = tape.backward(&c.scale(2.0).sum_all());
        assert_eq!(g.wrt(&a).unwrap().data(), &[2.0, 2.0]);
        assert_eq!(g.wrt(&b).unwrap().data(), &[2.0]);

        let tape = Tape::new();
        let x = tape.leaf(t(&[1.0, 2.0, 3.0, 4.0], [2, 2]));
        let y = x.narrow_rows(1);
        let g = tape.backward(&y.sum_all());
        assert_eq!(g.wrt(&x).unwrap().data(), &[1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn add_and_mul_grads() {
        let tape = Tape::new();
        let a = tape.leaf(t(&[3.0], [1]));
        let b = tape.leaf(t(&[2.0], [1]));
        let y = a.add(&b).mul(&a); // (a+b)*a = a^2 + ab
        let g = tape.backward(&y.sum_all());
        assert_eq!(g.wrt(&a).unwrap().item(), 2.0 * 3.0 + 2.0);
        assert_eq!(g.wrt(&b).unwrap().item(), 3.0);
    }
}
