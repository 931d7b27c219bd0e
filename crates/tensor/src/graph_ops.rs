//! Differentiable gather/scatter operations used by message-passing layers.
//!
//! A bipartite message-flow-graph layer is an edge list of `(src, dst)` local
//! id pairs; aggregation ops here implement the `AGG` of Eq. (1) in the paper
//! (mean for GraphSAGE, sum for GIN, attention-weighted sum for GAT).

#![expect(
    clippy::indexing_slicing,
    reason = "edge ids and row ranges are checked against the operand shapes when the op is recorded; n_dst <= n_src rows was asserted through the x_target shape at record time"
)]

use crate::autograd::{tracked_only, Rows, Var};
use crate::f16::FeatureRows;
use crate::kernels::{self, Elem, SavedIds};
use crate::rng::Rng;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Destination rows per strip of [`Var::sage_conv`]: a strip's features,
/// aggregate and output (3 × 128 KiB at width 128) stay in L2 next to the
/// two weight matrices from the aggregation to the epilogue. A multiple of 4,
/// so a dropout quad — four elements to one draw — never straddles strips
/// and the stream is the whole-tensor epilogue's (the portable GEMM rung's
/// four products per add fall into the same groups for the same reason).
const STRIP: usize = 256;
const _: () = assert!(STRIP % 4 == 0);

/// `[s0, s1)` row ranges of at most [`STRIP`] rows covering `0..n`.
fn strips(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).step_by(STRIP).map(move |s0| (s0, (s0 + STRIP).min(n)))
}

/// The forward pass of [`Var::sage_conv`] over rows of either element type:
/// strip by strip, the mean aggregate of `x` over `(src, dst)`, the
/// product and the epilogue. Returns the aggregate — whole if `keep_agg`,
/// else the last strip's — the output, and the epilogue's survivor scale.
/// `train` (the node records gradients) lets the product run in bf16 tiles
/// ([`kernels::SageWeights`]).
#[expect(clippy::too_many_arguments, reason = "the layer's operands as sage_conv takes them, the rows already borrowed at their stored width")]
fn sage_forward<T: Elem>(
    x: &[T],
    xt: &[T],
    [ws, wn]: [&Tensor; 2],
    (src, dst): (&[u32], &[u32]),
    n_dst: usize,
    (keep_agg, train): (bool, bool),
    act: Option<f32>,
    rng: &mut impl Rng,
) -> (Tensor, Tensor, Option<f32>) {
    let (k, n) = (ws.rows(), ws.cols());
    let w = kernels::SageWeights::new([ws.data(), wn.data()], (k, n), n_dst, train);
    let agg_rows = if keep_agg { n_dst } else { STRIP.min(n_dst) };
    let mut agg = kernels::take_f32_stale(agg_rows * k);
    let mut out = kernels::take_f32_stale(n_dst * n);
    let mut scale = None;
    let what = ["destination id", "source id"];
    kernels::with_row_agg(x, k, dst, n_dst, Some(src), what, true, |rows| {
        for (s0, s1) in strips(n_dst) {
            let a0 = if keep_agg { s0 } else { 0 };
            let (a, o) = (&mut agg[a0 * k..(a0 + s1 - s0) * k], &mut out[s0 * n..s1 * n]);
            kernels::sage_rows(rows, (s0, s1), &xt[s0 * k..s1 * k], &w, n, a, o);
            if let Some(p) = act {
                scale = Some(kernels::relu_dropout_in_place(o, p, rng));
            }
        }
    });
    (Tensor::from_vec(agg, Shape::matrix(agg_rows, k)), Tensor::from_vec(out, Shape::matrix(n_dst, n)), scale)
}

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
    /// separate `n_dst`-row variable. With no separate target, the rows of a
    /// [`crate::Tape::constant_rows`] leaf are read as they are stored — an
    /// `F16` widened in the row kernel's load and in the self term's pack —
    /// which is bit for bit the layer over their widened copy.
    ///
    /// Forward, in strips of [`STRIP`] destination rows over one CSR index
    /// of the edge list: the strip's mean aggregate, `x_target · W_self`
    /// written first into a stale buffer, `agg · W_neigh` continuing the same
    /// FMA chains (so there is no separate add), then the epilogue of
    /// [`kernels::relu_dropout_in_place`] on the strip, drawing from the one
    /// RNG stream in row order. The output is written once and never
    /// re-read; the aggregate is kept whole only if `W_neigh` is tracked
    /// (its gradient reads it) and is otherwise one strip of scratch.
    /// Backward, given `g`: strip by strip, `g ← g · [out > 0] / keep` in
    /// place (epilogue only) and `dW_self += x_targetᵀ · g`,
    /// `dW_neigh += aggᵀ · g` from the strip just rewritten; then — only for
    /// tracked inputs — `dx = scatterᵀ(g · W_neighᵀ)` with `g · W_selfᵀ`
    /// added into its first `n_dst` rows (or returned on its own for a
    /// separate `x_target`), each `g · Wᵀ` one write-first product.
    ///
    /// On the amx rung a node that records gradients runs each of these
    /// products whose shape reaches `kernels::BF16_MIN_FLOPS` in AMX tiles
    /// with bf16 operands and f32 accumulation: the forward as one product
    /// `[x_target | agg] · [W_self; W_neigh]` per strip (both terms in the
    /// same tiles, the output stored once), both weight gradients as one
    /// `[x_target | agg]ᵀ · g` per strip, and `g · Wᵀ`. A node that records
    /// nothing (a `Tape::no_grad` forward) is f32 on every rung.
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
        // Rows at their stored width only when the destinations are a prefix
        // of them: a separate target is an `f32` value, and so then is `x`.
        let x = if x_target.is_some() { Rows::Wide(self.value()) } else { self.rows() };
        let xt = x_target.map(|t| {
            self.same_tape(t);
            t.value()
        });
        let (ws, wn) = (w_self.value(), w_neigh.value());
        let shape = self.shape();
        let (n_src, k, n) = (shape.rows(), shape.cols(), ws.cols());
        match &xt {
            Some(xt) => assert_eq!(xt.shape().dims(), [n_dst, k], "x_target must be n_dst × in_dim"),
            None => assert!(n_dst <= n_src, "x_target must be n_dst × in_dim"),
        }
        assert_eq!(ws.shape().dims(), [k, n], "W_self must be in_dim × out_dim");
        assert_eq!(wn.shape(), ws.shape(), "W_neigh must match W_self");

        let (ix, iws, iwn) = (self.id, w_self.id, w_neigh.id);
        let (need_x, need_ws, need_wn) =
            (self.needs_grad(), w_self.needs_grad(), w_neigh.needs_grad());
        // A separate, tracked x_target receives its own contribution.
        let ixt = x_target.filter(|t| t.needs_grad()).map(|t| t.id);
        let needs_grad = need_x || need_ws || need_wn || ixt.is_some();
        let (w, edges, modes) = ([&ws, &wn], (src, dst), (need_wn, needs_grad));
        let (agg, out, scale) = match x.get() {
            FeatureRows::Half(x) => sage_forward(x, &x[..n_dst * k], w, edges, n_dst, modes, act, rng),
            FeatureRows::Full(x) => {
                let own = xt.as_ref().map_or(&x[..n_dst * k], Tensor::data);
                sage_forward(x, own, w, edges, n_dst, modes, act, rng)
            }
        };
        let xt = xt.map_or(x, Rows::Wide);

        let prefix = x_target.is_none();
        let saved_out = out.clone();
        self.tape().record(out, needs_grad, || {
            let edges = need_x.then(|| (SavedIds::new(src), SavedIds::new(dst)));
            Box::new(move |mut g| {
                let tracked = [(need_ws, iws), (need_wn, iwn)].map(|(need, id)| need.then_some(id));
                let mut dw = kernels::WeightGrads::new(tracked.iter().flatten().count(), (k, n), n_dst);
                for (s0, s1) in strips(n_dst) {
                    let gr = s0 * n..s1 * n;
                    if let Some(scale) = scale {
                        let gs = &mut g.data_mut()[gr.clone()];
                        kernels::relu_dropout_backward(gs, &saved_out.data()[gr.clone()], scale);
                    }
                    // The strip's rows of x_t and (kept whole when W_neigh
                    // is tracked) of the aggregate, for the tracked weights.
                    let (at, len) = (s0 * k, (s1 - s0) * k);
                    let mut lhs = [FeatureRows::Full(&[]); 2];
                    let mut parts = 0;
                    if need_ws {
                        (lhs[parts], parts) = (xt.get().view(at, len), parts + 1);
                    }
                    if need_wn {
                        (lhs[parts], parts) = (FeatureRows::Full(&agg.data()[at..at + len]), parts + 1);
                    }
                    dw.add_strip(&lhs[..parts], &g.data()[gr], s1 - s0);
                }
                let mut contribs = Vec::with_capacity(4);
                contribs.extend(tracked.into_iter().flatten().enumerate().map(|(p, id)| (id, dw.grad(p))));
                // Its buffer back in the pool before the products below take theirs.
                drop(dw);
                // `g · Wᵀ`, write-first or onto `out`.
                let times_wt = |out: &mut [f32], acc: bool, w: &Tensor| {
                    kernels::train_gemm(out, acc, g.data(), (w.data(), true), false, n_dst, k, n)
                };
                if let Some((src, dst)) = &edges {
                    let mut dagg = Tensor::filled_by(Shape::matrix(n_dst, k), |d| times_wt(d, false, &wn));
                    let mut dx =
                        kernels::scatter_reduce_backward(dagg.data_mut(), k, src, dst, n_src, true);
                    if prefix {
                        times_wt(&mut dx[..n_dst * k], true, &ws);
                    }
                    contribs.push((ix, Tensor::from_vec(dx, Shape::matrix(n_src, k))));
                }
                contribs.extend(ixt.map(|ixt| (ixt, Tensor::filled_by(Shape::matrix(n_dst, k), |d| times_wt(d, false, &ws)))));
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
    use crate::rng::{SliceRandom, StdRng};
    use crate::F16;
    use std::rc::Rc;

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

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// What one layer computes, by the sequence of kernels `sage_conv` fused:
    /// a whole-matrix aggregate, two products accumulated onto a zero-filled
    /// output, the epilogue over the whole output, and the gradients the same
    /// way. Returns `[out, dW_self, dW_neigh, dx, dxt]` (`dxt` empty for a
    /// prefix target).
    #[expect(clippy::too_many_arguments, reason = "the layer's operands, as sage_conv takes them, plus the output gradient")]
    fn layer_by_kernels(
        x: &Tensor,
        xt: Option<&Tensor>,
        [ws, wn]: [&Tensor; 2],
        (src, dst): (&[u32], &[u32]),
        n_dst: usize,
        act: Option<f32>,
        rng: &mut StdRng,
        g: &[f32],
    ) -> [Vec<f32>; 5] {
        let (n_src, k, n) = (x.rows(), x.cols(), ws.cols());
        let own = x.narrow_rows(n_dst);
        let target = xt.unwrap_or(&own);
        let agg = kernels::scatter_reduce_forward(x.data(), k, src, dst, n_dst, true);
        let product = |out: &mut [f32], a: &[f32], b: &Tensor, ta, tb, (m, n, k)| {
            kernels::gemm_acc(out, a, b.data(), ta, tb, m, n, k)
        };
        let mut out = vec![0.0f32; n_dst * n];
        product(&mut out, target.data(), ws, false, false, (n_dst, n, k));
        product(&mut out, &agg, wn, false, false, (n_dst, n, k));
        let scale = act.map(|p| kernels::relu_dropout_in_place(&mut out, p, rng));
        let mut g = g.to_vec();
        if let Some(scale) = scale {
            kernels::relu_dropout_backward(&mut g, &out, scale);
        }
        let g = Tensor::from_vec(g, [n_dst, n]);
        let (mut dws, mut dwn) = (vec![0.0f32; k * n], vec![0.0f32; k * n]);
        product(&mut dws, target.data(), &g, true, false, (k, n, n_dst));
        product(&mut dwn, &agg, &g, true, false, (k, n, n_dst));
        let mut dagg = vec![0.0f32; n_dst * k];
        product(&mut dagg, g.data(), wn, false, true, (n_dst, k, n));
        let mut dx = kernels::scatter_reduce_backward(&mut dagg, k, src, dst, n_src, true);
        let mut dxt = vec![0.0f32; if xt.is_some() { n_dst * k } else { 0 }];
        let dself = if xt.is_some() { &mut dxt[..] } else { &mut dx[..n_dst * k] };
        product(dself, g.data(), ws, false, true, (n_dst, k, n));
        [out, dws, dwn, dx, dxt]
    }

    #[test]
    fn strip_wise_sage_conv_equals_the_kernels_it_fuses_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x57819);
        let k = 20;
        let values = |r: usize, c: usize, rng: &mut StdRng| {
            Tensor::from_vec((0..r * c).map(|_| rng.random_range(-1.0f32..1.0)).collect(), [r, c])
        };
        for n_dst in [0, 1, STRIP - 1, STRIP, STRIP + 1, 3 * STRIP + 5] {
            let n_src = n_dst + 40;
            // Three or four sources a destination, ordered by destination.
            let dst: Vec<u32> = (0..n_dst as u32).flat_map(|d| std::iter::repeat_n(d, 3 + d as usize % 2)).collect();
            let src: Vec<u32> = dst.iter().map(|_| rng.random_range(0..n_src as u32)).collect();
            for n in [30, 47, 128] {
                let (x, xt) = (values(n_src, k, &mut rng), values(n_dst, k, &mut rng));
                let (ws, wn, g) = (values(k, n, &mut rng), values(k, n, &mut rng), values(n_dst, n, &mut rng));
                for (separate, act) in [false, true].into_iter().flat_map(|s| [None, Some(0.0), Some(0.5)].map(|act| (s, act))) {
                    let what = format!("n_dst {n_dst}, n {n}, separate target {separate}, act {act:?}");
                    let seed = 7 + n_dst as u64;
                    let want = layer_by_kernels(
                        &x, separate.then_some(&xt), [&ws, &wn], (&src, &dst), n_dst, act, &mut StdRng::seed_from_u64(seed), g.data(),
                    );
                    // A tape that records: every input tracked.
                    let tape = Tape::new();
                    let (xv, xtv) = (tape.leaf(x.clone()), tape.leaf(xt.clone()));
                    let (wsv, wnv) = (tape.leaf(ws.clone()), tape.leaf(wn.clone()));
                    let mut layer_rng = StdRng::seed_from_u64(seed);
                    let y = xv.sage_conv(separate.then_some(&xtv), &wsv, &wnv, &src, &dst, n_dst, act, &mut layer_rng);
                    assert_eq!(bits(y.value().data()), bits(&want[0]), "output, {what}");
                    let grads = tape.backward(&y.mul(&tape.constant(g.clone())).sum_all());
                    let wrt = |v: &Var| grads.wrt(v).map_or(Vec::new(), |t| bits(t.data()));
                    let got = [wrt(&wsv), wrt(&wnv), wrt(&xv), if separate { wrt(&xtv) } else { Vec::new() }];
                    for (i, name) in ["dW_self", "dW_neigh", "dx", "dx_target"].into_iter().enumerate() {
                        assert_eq!(got[i], bits(&want[i + 1]), "{name}, {what}");
                    }
                    // Constant features, as hop 0 of a train step has them:
                    // the weight gradients alone, and no panel is packed.
                    let tape = Tape::new();
                    let (xv, xtv) = (tape.constant(x.clone()), tape.constant(xt.clone()));
                    let (wsv, wnv) = (tape.leaf(ws.clone()), tape.leaf(wn.clone()));
                    let packs = kernels::PACKS.get();
                    let mut layer_rng = StdRng::seed_from_u64(seed);
                    let y = xv.sage_conv(separate.then_some(&xtv), &wsv, &wnv, &src, &dst, n_dst, act, &mut layer_rng);
                    let grads = tape.backward(&y.mul(&tape.constant(g.clone())).sum_all());
                    assert_eq!(kernels::PACKS.get(), packs, "an f32 layer without dx packed a panel, {what}");
                    assert_eq!(bits(y.value().data()), bits(&want[0]), "output, constant features, {what}");
                    for (v, i) in [(&wsv, 1), (&wnv, 2)] {
                        assert_eq!(bits(grads.wrt(v).unwrap().data()), bits(&want[i]), "weight gradient {i}, constant features, {what}");
                    }
                    // A tape that records nothing: same values, same draws.
                    let tape = Tape::no_grad();
                    let (xv, xtv) = (tape.leaf(x.clone()), tape.leaf(xt.clone()));
                    let (wsv, wnv) = (tape.leaf(ws.clone()), tape.leaf(wn.clone()));
                    let mut eval_rng = StdRng::seed_from_u64(seed);
                    let y = xv.sage_conv(separate.then_some(&xtv), &wsv, &wnv, &src, &dst, n_dst, act, &mut eval_rng);
                    assert!(!y.needs_grad());
                    assert_eq!(bits(y.value().data()), bits(&want[0]), "output on a no_grad tape, {what}");
                    assert_eq!(eval_rng.next_u64(), layer_rng.next_u64(), "the two tapes drew differently, {what}");
                }
            }
        }
    }

    impl crate::RowStore for Vec<F16> {
        fn rows(&self) -> FeatureRows<'_> {
            FeatureRows::Half(self)
        }
    }

    impl crate::RowStore for Vec<f32> {
        fn rows(&self) -> FeatureRows<'_> {
            FeatureRows::Full(self)
        }
    }

    #[test]
    fn sage_conv_over_lent_rows_equals_sage_conv_over_their_widened_copy_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xF16);
        // Not a multiple of STRIP; every third destination has no edge.
        let (n_dst, n) = (2 * STRIP + 37, 47);
        let n_src = n_dst + 90;
        let dst: Vec<u32> = (0..n_dst as u32).filter(|d| d % 3 != 0).flat_map(|d| std::iter::repeat_n(d, 1 + d as usize % 4)).collect();
        let src: Vec<u32> = dst.iter().map(|_| rng.random_range(0..n_src as u32)).collect();
        // The same edges out of order: the counting-sorted index route.
        let mut order: Vec<usize> = (0..dst.len()).collect();
        order.shuffle(&mut rng);
        let shuffled = |ids: &[u32]| -> Vec<u32> { order.iter().map(|&e| ids[e]).collect() };
        let edge_lists = [("sorted", src.clone(), dst.clone()), ("shuffled", shuffled(&src), shuffled(&dst))];
        for k in [1, 7, 8, 100, 128] {
            let mut values = |len: usize| -> Vec<f32> { (0..len).map(|_| rng.random_range(-1.0f32..1.0)).collect() };
            let halves: Rc<Vec<F16>> = Rc::new(crate::quantize(&values(n_src * k)));
            let wide = Tensor::from_vec(FeatureRows::Half(&halves).to_f32_vec(), [n_src, k]);
            let floats: Rc<Vec<f32>> = Rc::new(wide.data().to_vec());
            let (ws, wn) = (Tensor::from_vec(values(k * n), [k, n]), Tensor::from_vec(values(k * n), [k, n]));
            let g = Tensor::from_vec(values(n_dst * n), [n_dst, n]);
            for (route, src, dst) in &edge_lists {
                for act in [None, Some(0.5)] {
                    // `[out, dW_self, dW_neigh]` of the layer over `x`, and
                    // `x` as a later op reads it.
                    let layer = |tape: Tape, x: &dyn Fn(&Tape) -> Var| {
                        let (x, wsv, wnv) = (x(&tape), tape.leaf(ws.clone()), tape.leaf(wn.clone()));
                        let y = x.sage_conv(None, &wsv, &wnv, src, dst, n_dst, act, &mut StdRng::seed_from_u64(k as u64));
                        let grads = tape.backward(&y.mul(&tape.constant(g.clone())).sum_all());
                        let dw = |w: &Var| grads.wrt(w).map_or(Vec::new(), |t| bits(t.data()));
                        ([bits(y.value().data()), dw(&wsv), dw(&wnv)], bits(x.value().data()))
                    };
                    let (want, _) = layer(Tape::new(), &|t| t.constant(wide.clone()));
                    assert!(!want[1].is_empty() && !want[2].is_empty());
                    for (elem, store) in [("f16", Rc::clone(&halves) as Rc<dyn crate::RowStore>), ("f32", Rc::clone(&floats) as _)] {
                        let what = format!("lent {elem} rows, {k} cols, {route} edges, act {act:?}");
                        let (got, seen) = layer(Tape::new(), &|t| t.constant_rows(Rc::clone(&store), k));
                        for (i, name) in ["output", "dW_self", "dW_neigh"].into_iter().enumerate() {
                            assert_eq!(got[i], want[i], "{name}, {what}");
                        }
                        assert_eq!(seen, bits(wide.data()), "the leaf as any other op sees it, {what}");
                        // Eval: nothing tracked, one strip of aggregate scratch.
                        let (got, _) = layer(Tape::no_grad(), &|t| t.constant_rows(Rc::clone(&store), k));
                        assert_eq!(got[0], want[0], "output on a no_grad tape, {what}");
                        assert!(got[1].is_empty() && got[2].is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn empty_edge_list_yields_zero_rows() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones([2, 3]));
        let y = x.scatter_mean(&[], &[], 2);
        assert_eq!(y.value().data(), &[0.0; 6]);
    }
}
