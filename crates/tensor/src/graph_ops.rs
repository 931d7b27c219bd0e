//! Differentiable gather/scatter operations used by message-passing layers.
//!
//! A bipartite message-flow-graph layer is an edge list of `(src, dst)` local
//! id pairs; aggregation ops here implement the `AGG` of Eq. (1) in the paper
//! (mean for GraphSAGE, sum for GIN, attention-weighted sum for GAT).

#![expect(
    clippy::indexing_slicing,
    reason = "edge ids and row ranges are checked against the operand shapes when the op is recorded; n_dst <= n_src rows was asserted through the x_target shape at record time"
)]

use crate::autograd::{tracked_only, Var};
use crate::kernels::{self, SavedIds};
use crate::rng::Rng;
use crate::shape::Shape;
use crate::tensor::Tensor;

impl Var {
    /// Gathers rows by index: `out[i] = self[idx[i]]`.
    ///
    /// Backward scatter-adds the output gradient back to the gathered rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, idx: &[u32]) -> Var {
        let a = self.value();
        let (rows, cols) = (a.rows(), a.cols());
        debug_assert!(idx.iter().all(|&i| (i as usize) < rows), "gather index out of range");
        let out = kernels::gather_rows_forward(a.data(), cols, idx);
        let out = Tensor::from_vec(out, Shape::matrix(idx.len(), cols));
        self.unary(out, || {
            let idx = SavedIds::new(idx);
            move |g: Tensor| {
                let dx = kernels::gather_rows_backward(g.data(), cols, &idx, rows);
                Tensor::from_vec(dx, Shape::matrix(rows, cols))
            }
        })
    }

    /// Sum (`mean = false`) or mean aggregation over a bipartite edge list.
    fn scatter_reduce(&self, src: &[u32], dst: &[u32], n_dst: usize, mean: bool) -> Var {
        let a = self.value();
        let (n_src, cols) = (a.rows(), a.cols());
        let out = kernels::scatter_reduce_forward(a.data(), cols, src, dst, n_dst, mean);
        self.unary(Tensor::from_vec(out, Shape::matrix(n_dst, cols)), || {
            let (src, dst) = (SavedIds::new(src), SavedIds::new(dst));
            move |mut g: Tensor| {
                let dx =
                    kernels::scatter_reduce_backward(g.data_mut(), cols, &src, &dst, n_src, mean);
                Tensor::from_vec(dx, Shape::matrix(n_src, cols))
            }
        })
    }

    /// Mean aggregation over a bipartite edge list:
    /// `out[d] = mean { self[s] : (s, d) ∈ edges }`, with zero rows for
    /// destinations that have no incoming edge.
    ///
    /// This is GraphSAGE's neighborhood mean.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != dst.len()` or an id is out of range.
    pub fn scatter_mean(&self, src: &[u32], dst: &[u32], n_dst: usize) -> Var {
        self.scatter_reduce(src, dst, n_dst, true)
    }

    /// Sum aggregation over a bipartite edge list (GIN's neighborhood sum).
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != dst.len()` or an id is out of range.
    pub fn scatter_add(&self, src: &[u32], dst: &[u32], n_dst: usize) -> Var {
        self.scatter_reduce(src, dst, n_dst, false)
    }

    /// One GraphSAGE mean-convolution layer as a single tape node:
    ///
    /// `out = x_target · W_self + mean_agg(self) · W_neigh`, followed — when
    /// `act` is `Some(p)` — by ReLU and inverted dropout with drop
    /// probability `p` (`Some(0.0)` is a plain ReLU), in place.
    ///
    /// `self` holds the `n_src` source rows. `x_target` is `None` when the
    /// destination rows are the first `n_dst` rows of `self` (read in place,
    /// and differentiated into the same buffer as the sources), or a
    /// separate `n_dst`-row variable.
    ///
    /// Forward: CSR mean aggregation, then the two products accumulate into
    /// one buffer (the second GEMM continues the first's FMA chains, so
    /// there is no separate add), then the epilogue of
    /// [`kernels::relu_dropout_in_place`]. Backward, given `g`:
    /// `g ← g · [out > 0] / keep` in place (epilogue only),
    /// `dW_self = x_targetᵀ · g`, `dW_neigh = aggᵀ · g`, and — only for
    /// tracked inputs — `dx = scatterᵀ(g · W_neighᵀ)` with
    /// `g · W_selfᵀ` added into its first `n_dst` rows (or returned on its
    /// own for a separate `x_target`).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes or edge lists, or if `p` is not in
    /// `[0, 1)`.
    #[expect(clippy::too_many_arguments, reason = "the fused node takes what the three nodes it replaces took: two weights, an edge list, its extent, the epilogue")]
    pub fn sage_conv(
        &self,
        x_target: Option<&Var>,
        w_self: &Var,
        w_neigh: &Var,
        src: &[u32],
        dst: &[u32],
        n_dst: usize,
        act: Option<f32>,
        rng: &mut impl Rng,
    ) -> Var {
        self.same_tape(w_self);
        self.same_tape(w_neigh);
        let x = self.value();
        let xt = match x_target {
            Some(t) => {
                self.same_tape(t);
                t.value()
            }
            None => x.narrow_rows(n_dst),
        };
        let (ws, wn) = (w_self.value(), w_neigh.value());
        let (n_src, k, n) = (x.rows(), x.cols(), ws.cols());
        assert_eq!(xt.shape().dims(), [n_dst, k], "x_target must be n_dst × in_dim");
        assert_eq!(ws.shape().dims(), [k, n], "W_self must be in_dim × out_dim");
        assert_eq!(wn.shape(), ws.shape(), "W_neigh must match W_self");

        let agg = Tensor::from_vec(
            kernels::scatter_reduce_forward(x.data(), k, src, dst, n_dst, true),
            Shape::matrix(n_dst, k),
        );
        let mut out = Tensor::zeros(Shape::matrix(n_dst, n));
        kernels::gemm_acc(out.data_mut(), xt.data(), ws.data(), false, false, n_dst, n, k);
        kernels::gemm_acc(out.data_mut(), agg.data(), wn.data(), false, false, n_dst, n, k);
        let scale = act.map(|p| kernels::relu_dropout_in_place(out.data_mut(), p, rng));

        let (ix, iws, iwn) = (self.id, w_self.id, w_neigh.id);
        let (need_x, need_ws, need_wn) =
            (self.needs_grad(), w_self.needs_grad(), w_neigh.needs_grad());
        // A separate, tracked x_target receives its own contribution.
        let ixt = x_target.filter(|t| t.needs_grad()).map(|t| t.id);
        let prefix = x_target.is_none();
        let needs_grad = need_x || need_ws || need_wn || ixt.is_some();
        let saved_out = out.clone();
        self.tape().record(out, needs_grad, || {
            let edges = need_x.then(|| (SavedIds::new(src), SavedIds::new(dst)));
            Box::new(move |mut g| {
                if let Some(scale) = scale {
                    kernels::relu_dropout_backward(g.data_mut(), saved_out.data(), scale);
                }
                let gd = g.data();
                let mut contribs = Vec::with_capacity(4);
                for (need, id, lhs) in [(need_ws, iws, &xt), (need_wn, iwn, &agg)] {
                    if need {
                        let mut dw = Tensor::zeros(Shape::matrix(k, n));
                        kernels::gemm_acc(dw.data_mut(), lhs.data(), gd, true, false, k, n, n_dst);
                        contribs.push((id, dw));
                    }
                }
                if let Some((src, dst)) = &edges {
                    let mut dagg = Tensor::zeros(Shape::matrix(n_dst, k));
                    kernels::gemm_acc(dagg.data_mut(), gd, wn.data(), false, true, n_dst, k, n);
                    let mut dx =
                        kernels::scatter_reduce_backward(dagg.data_mut(), k, src, dst, n_src, true);
                    if prefix {
                        let head = &mut dx[..n_dst * k];
                        kernels::gemm_acc(head, gd, ws.data(), false, true, n_dst, k, n);
                    }
                    contribs.push((ix, Tensor::from_vec(dx, Shape::matrix(n_src, k))));
                }
                if let Some(ixt) = ixt {
                    let mut dxt = Tensor::zeros(Shape::matrix(n_dst, k));
                    kernels::gemm_acc(dxt.data_mut(), gd, ws.data(), false, true, n_dst, k, n);
                    contribs.push((ixt, dxt));
                }
                contribs
            })
        })
    }

    /// Softmax over edge logits grouped by destination node (GAT attention
    /// normalization). `self` must be a length-`E` vector of logits.
    ///
    /// # Panics
    ///
    /// Panics if the logit count differs from `dst.len()`.
    pub fn edge_softmax(&self, dst: &[u32], n_dst: usize) -> Var {
        let logits = self.value();
        assert_eq!(logits.len(), dst.len(), "one logit per edge required");
        debug_assert!(dst.iter().all(|&d| (d as usize) < n_dst));
        let ld = logits.data();
        let mut maxes = vec![f32::NEG_INFINITY; n_dst];
        for (e, &d) in dst.iter().enumerate() {
            let d = d as usize;
            maxes[d] = maxes[d].max(ld[e]);
        }
        let mut sums = vec![0.0f32; n_dst];
        let mut alpha = Tensor::zeros(Shape::vector(ld.len()));
        let ad = alpha.data_mut();
        for (e, &d) in dst.iter().enumerate() {
            let d = d as usize;
            let v = (ld[e] - maxes[d]).exp();
            ad[e] = v;
            sums[d] += v;
        }
        for (e, &d) in dst.iter().enumerate() {
            ad[e] /= sums[d as usize];
        }
        let saved = alpha.clone();
        self.unary(alpha, || {
            let dst = SavedIds::new(dst);
            move |g: Tensor| {
                // dl_e = a_e * (g_e - sum_{e' in group(e)} g_{e'} a_{e'})
                let (gd, alpha) = (g.data(), saved.data());
                let mut group_dot = vec![0.0f32; n_dst];
                for (e, &d) in dst.iter().enumerate() {
                    group_dot[d as usize] += gd[e] * alpha[e];
                }
                let mut dl = Tensor::zeros(Shape::vector(alpha.len()));
                for ((dl, &d), (&a, &gv)) in
                    dl.data_mut().iter_mut().zip(dst.iter()).zip(alpha.iter().zip(gd))
                {
                    *dl = a * (gv - group_dot[d as usize]);
                }
                dl
            }
        })
    }

    /// Attention-weighted aggregation: `out[d] = Σ_e α_e · self[src_e]` over
    /// edges `(src_e, d)`. `alpha` must be a length-`E` vector.
    ///
    /// Gradients flow to both the source features and the weights.
    ///
    /// # Panics
    ///
    /// Panics if edge lists and weights disagree in length.
    pub fn weighted_scatter_add(
        &self,
        alpha: &Var,
        src: &[u32],
        dst: &[u32],
        n_dst: usize,
    ) -> Var {
        self.same_tape(alpha);
        let x = self.value();
        let w = alpha.value();
        let cols = x.cols();
        assert_eq!(src.len(), dst.len(), "edge list length mismatch");
        assert_eq!(w.len(), src.len(), "one weight per edge required");
        let (xd, wd) = (x.data(), w.data());
        let mut out = Tensor::zeros(Shape::matrix(n_dst, cols));
        let od = out.data_mut();
        for (e, (&s, &d)) in src.iter().zip(dst.iter()).enumerate() {
            let (s, d) = (s as usize, d as usize);
            let a = wd[e];
            for (o, v) in od[d * cols..(d + 1) * cols]
                .iter_mut()
                .zip(xd[s * cols..(s + 1) * cols].iter())
            {
                *o += a * v;
            }
        }
        let (ix, iw) = (self.id, alpha.id);
        let n_src = x.rows();
        let (need_x, need_w) = (self.needs_grad(), alpha.needs_grad());
        self.tape().record(out, need_x || need_w, || {
            let (src, dst) = (SavedIds::new(src), SavedIds::new(dst));
            Box::new(move |g| {
                let gd = g.data();
                let xd = x.data();
                let wd = w.data();
                let mut dx = Tensor::zeros(Shape::matrix(n_src, cols));
                let mut dw = Tensor::zeros(Shape::vector(src.len()));
                let (dxd, dwd) = (dx.data_mut(), dw.data_mut());
                for (e, (&s, &d)) in src.iter().zip(dst.iter()).enumerate() {
                    let (s, d) = (s as usize, d as usize);
                    let grow = &gd[d * cols..(d + 1) * cols];
                    let xrow = &xd[s * cols..(s + 1) * cols];
                    let a = wd[e];
                    let mut dot = 0.0f32;
                    for ((x_acc, &gv), &xv) in
                        dxd[s * cols..(s + 1) * cols].iter_mut().zip(grow).zip(xrow)
                    {
                        *x_acc += a * gv;
                        dot += gv * xv;
                    }
                    dwd[e] = dot;
                }
                tracked_only([(need_x, ix, dx), (need_w, iw, dw)])
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
    fn gather_rows_forward_and_backward() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]));
        let y = x.gather_rows(&[2, 0, 2]);
        assert_eq!(y.value().data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let g = tape.backward(&y.sum_all());
        // Row 2 gathered twice, row 0 once, row 1 never.
        assert_eq!(g.wrt(&x).unwrap().data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn scatter_mean_averages_neighbors() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[2.0, 4.0, 6.0], [3, 1]));
        // dst 0 <- src {0, 1}; dst 1 <- src {2}; dst 2 has no edges.
        let y = x.scatter_mean(&[0, 1, 2], &[0, 0, 1], 3);
        assert_eq!(y.value().data(), &[3.0, 6.0, 0.0]);
        let g = tape.backward(&y.sum_all());
        assert_eq!(g.wrt(&x).unwrap().data(), &[0.5, 0.5, 1.0]);
    }

    #[test]
    fn scatter_add_sums_neighbors() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[2.0, 4.0, 6.0], [3, 1]));
        let y = x.scatter_add(&[0, 1, 2], &[0, 0, 1], 2);
        assert_eq!(y.value().data(), &[6.0, 6.0]);
        let g = tape.backward(&y.sum_all());
        assert_eq!(g.wrt(&x).unwrap().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn edge_softmax_normalizes_per_destination() {
        let tape = Tape::new();
        let l = tape.leaf(t(&[0.0, 0.0, 1.0, 3.0], [4]));
        // dst groups: {e0, e1} -> 0, {e2, e3} -> 1.
        let a = l.edge_softmax(&[0, 0, 1, 1], 2).value();
        assert!((a.data()[0] - 0.5).abs() < 1e-6);
        assert!((a.data()[1] - 0.5).abs() < 1e-6);
        let z = (1.0f32).exp() + (3.0f32).exp();
        assert!((a.data()[2] - (1.0f32).exp() / z).abs() < 1e-6);
        assert!((a.data()[3] - (3.0f32).exp() / z).abs() < 1e-6);
    }

    #[test]
    fn edge_softmax_gradient_matches_numeric() {
        let dst = [0u32, 0, 0, 1, 1];
        let logits = [0.3f32, -0.2, 0.9, 0.1, 0.4];
        // Loss = sum of alpha^2, a curved function to exercise the Jacobian.
        let f = |ls: &[f32]| {
            let tape = Tape::new();
            let l = tape.leaf(t(ls, [5]));
            let a = l.edge_softmax(&dst, 2);
            let loss = a.mul(&a).sum_all();
            (tape, l, loss)
        };
        let (tape, l, loss) = f(&logits);
        let g = tape.backward(&loss);
        let analytic = g.wrt(&l).unwrap().clone();
        let eps = 1e-3;
        for e in 0..5 {
            let mut lp = logits;
            lp[e] += eps;
            let (_, _, up) = f(&lp);
            let mut lm = logits;
            lm[e] -= eps;
            let (_, _, down) = f(&lm);
            let numeric = (up.value().item() - down.value().item()) / (2.0 * eps);
            assert!(
                (analytic.data()[e] - numeric).abs() < 1e-3,
                "edge {e}: {} vs {}",
                analytic.data()[e],
                numeric
            );
        }
    }

    #[test]
    fn weighted_scatter_add_forward_and_grads() {
        let tape = Tape::new();
        let x = tape.leaf(t(&[1.0, 2.0, 10.0, 20.0], [2, 2]));
        let w = tape.leaf(t(&[0.25, 0.75], [2]));
        // Both edges into dst 0: out = 0.25*x0 + 0.75*x1.
        let y = x.weighted_scatter_add(&w, &[0, 1], &[0, 0], 1);
        assert_eq!(y.value().data(), &[7.75, 15.5]);
        let g = tape.backward(&y.sum_all());
        assert_eq!(g.wrt(&x).unwrap().data(), &[0.25, 0.25, 0.75, 0.75]);
        // dα_e = dot(x[src_e], ones) = row sums.
        assert_eq!(g.wrt(&w).unwrap().data(), &[3.0, 30.0]);
    }

    #[test]
    fn empty_edge_list_yields_zero_rows() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 3]));
        let y = x.scatter_mean(&[], &[], 2);
        assert_eq!(y.value().data(), &[0.0; 6]);
    }
}
