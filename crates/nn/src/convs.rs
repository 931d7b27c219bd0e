//! Message-passing convolution layers operating on one MFG hop.
//!
//! All layers take the bipartite form `(x, x_target)` of the PyG listings in
//! the paper's appendix: `x` holds the `n_src` source rows, `x_target =
//! x[:n_dst]` the destination rows, and the edge list is in local ids.

use crate::batch_norm::BatchNorm1d;
use crate::linear::Linear;
use salient_tensor::rng::Rng;
use salient_sampler::MfgLayer;
use salient_tensor::{init, Param, Tape, Var};

/// GraphSAGE convolution with mean aggregation:
/// `h_v = W_self · x_v + W_neigh · mean_{u ∈ N(v)} x_u`.
///
/// Matches PyG's `SAGEConv(bias=False)` as used in the paper's GraphSAGE
/// and GraphSAGE-RI models.
#[derive(Debug, Clone)]
pub(crate) struct SageConv {
    w_self: Param,
    w_neigh: Param,
}

impl SageConv {
    /// Creates a Glorot-initialized SAGE layer.
    pub(crate) fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        SageConv {
            w_self: Param::new(
                format!("{name}.w_self"),
                init::glorot_uniform(in_dim, out_dim, rng),
            ),
            w_neigh: Param::new(
                format!("{name}.w_neigh"),
                init::glorot_uniform(in_dim, out_dim, rng),
            ),
        }
    }

    /// Applies the layer to one hop as a single fused tape node
    /// ([`Var::sage_conv`]). `x_target` is `None` when the destination rows
    /// are the first `layer.n_dst` rows of `x`; `act = Some(p)` appends the
    /// in-place ReLU + dropout(`p`) epilogue (`Some(0.0)`: ReLU only).
    pub(crate) fn forward(
        &self,
        tape: &Tape,
        x: &Var,
        x_target: Option<&Var>,
        layer: &MfgLayer,
        act: Option<f32>,
        rng: &mut impl Rng,
    ) -> Var {
        let (w_self, w_neigh) = (tape.param(&self.w_self), tape.param(&self.w_neigh));
        let (src, dst) = (&layer.edge_src, &layer.edge_dst);
        x.sage_conv(x_target, &w_self, &w_neigh, src, dst, layer.n_dst, act, rng)
    }

    /// The layer as the four-op composition the fused node replaced — the
    /// oracle the fused forward and backward are tested against.
    #[cfg(test)]
    fn forward_reference(&self, tape: &Tape, x: &Var, x_target: &Var, layer: &MfgLayer) -> Var {
        let agg = x.scatter_mean(&layer.edge_src, &layer.edge_dst, layer.n_dst);
        let neigh = agg.matmul(&tape.param(&self.w_neigh));
        let own = x_target.matmul(&tape.param(&self.w_self));
        own.add(&neigh)
    }

    /// Trainable parameters.
    pub(crate) fn params(&self) -> Vec<&Param> {
        vec![&self.w_self, &self.w_neigh]
    }

    /// Mutable trainable parameters.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_self, &mut self.w_neigh]
    }
}

/// Single-head graph attention convolution (GAT):
/// `h_v = Σ_{u ∈ {v} ∪ N(v)} α_uv · W x_u` with
/// `α ∝ exp(LeakyReLU(a_src·Wx_u + a_dst·Wx_v))`.
#[derive(Debug, Clone)]
pub(crate) struct GatConv {
    w: Param,
    a_src: Param,
    a_dst: Param,
    negative_slope: f32,
}

impl GatConv {
    /// Creates a Glorot-initialized single-head GAT layer.
    pub(crate) fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        GatConv {
            w: Param::new(format!("{name}.w"), init::glorot_uniform(in_dim, out_dim, rng)),
            a_src: Param::new(
                format!("{name}.a_src"),
                init::glorot_uniform(out_dim, 1, rng),
            ),
            a_dst: Param::new(
                format!("{name}.a_dst"),
                init::glorot_uniform(out_dim, 1, rng),
            ),
            negative_slope: 0.2,
        }
    }

    /// Applies the layer to one hop. Self-loop edges `v → v` are added for
    /// each destination, per the GAT formulation `{v} ∪ N(v)`.
    pub(crate) fn forward(&self, tape: &Tape, x: &Var, _x_target: &Var, layer: &MfgLayer) -> Var {
        // Extend edges with self-loops (destination locals are also source
        // locals because destinations are a prefix of sources).
        let mut src: Vec<u32> = layer.edge_src.clone();
        let mut dst: Vec<u32> = layer.edge_dst.clone();
        for v in 0..layer.n_dst as u32 {
            src.push(v);
            dst.push(v);
        }
        let h = x.matmul(&tape.param(&self.w)); // n_src × out
        let s_src = h.matmul(&tape.param(&self.a_src)); // n_src × 1
        let s_dst = h.narrow_rows(layer.n_dst).matmul(&tape.param(&self.a_dst)); // n_dst × 1
        let logits = s_src
            .gather_rows(&src)
            .add(&s_dst.gather_rows(&dst))
            .leaky_relu(self.negative_slope);
        let logits = logits.reshape_vector();
        let alpha = logits.edge_softmax(&dst, layer.n_dst);
        h.weighted_scatter_add(&alpha, &src, &dst, layer.n_dst)
    }

    /// Trainable parameters.
    pub(crate) fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.a_src, &self.a_dst]
    }

    /// Mutable trainable parameters.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.a_src, &mut self.a_dst]
    }
}

/// Graph isomorphism network convolution:
/// `h_v = MLP((1 + ε) · x_v + Σ_{u ∈ N(v)} x_u)` with
/// `MLP = Linear → BatchNorm → ReLU → Linear → ReLU` (the paper's listing).
#[derive(Debug)]
pub(crate) struct GinConv {
    lin1: Linear,
    bn: BatchNorm1d,
    lin2: Linear,
    eps: f32,
}

impl GinConv {
    /// Creates the GIN layer of the paper's appendix.
    pub(crate) fn new(name: &str, in_dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        GinConv {
            lin1: Linear::new(&format!("{name}.mlp.0"), in_dim, hidden, true, rng),
            bn: BatchNorm1d::new(&format!("{name}.mlp.1"), hidden),
            lin2: Linear::new(&format!("{name}.mlp.3"), hidden, hidden, true, rng),
            eps: 0.0,
        }
    }

    /// Applies the layer to one hop.
    pub(crate) fn forward(
        &mut self,
        tape: &Tape,
        x: &Var,
        x_target: &Var,
        layer: &MfgLayer,
        training: bool,
    ) -> Var {
        let agg = x.scatter_add(&layer.edge_src, &layer.edge_dst, layer.n_dst);
        let z = x_target.scale(1.0 + self.eps).add(&agg);
        let z = self.lin1.forward(tape, &z);
        let z = self.bn.forward(tape, &z, training).relu();
        self.lin2.forward(tape, &z).relu()
    }

    /// Trainable parameters.
    pub(crate) fn params(&self) -> Vec<&Param> {
        let mut p = self.lin1.params();
        p.extend(self.bn.params());
        p.extend(self.lin2.params());
        p
    }

    /// Mutable trainable parameters.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.lin1.params_mut();
        p.extend(self.bn.params_mut());
        p.extend(self.lin2.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_tensor::Tensor;

    fn hop() -> MfgLayer {
        // 3 sources, 2 destinations; edges 2→0, 1→0, 2→1.
        MfgLayer {
            edge_src: vec![2, 1, 2],
            edge_dst: vec![0, 0, 1],
            n_src: 3,
            n_dst: 2,
        }
    }

    fn inputs(tape: &Tape) -> (Var, Var) {
        let x = tape.leaf(Tensor::from_vec(
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            [3, 2],
        ));
        let xt = x.narrow_rows(2);
        (x, xt)
    }

    #[test]
    fn sage_conv_shapes_and_grads() {
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(0);
        let mut conv = SageConv::new("s", 2, 4, &mut rng);
        let tape = Tape::new();
        let (x, _) = inputs(&tape);
        let y = conv.forward(&tape, &x, None, &hop(), None, &mut rng);
        assert_eq!(y.shape().dims(), &[2, 4]);
        let grads = tape.backward(&y.sum_all());
        grads.apply_to(conv.params_mut());
        assert!(conv.params().iter().all(|p| p.grad().norm() > 0.0));
    }

    #[test]
    fn fused_sage_conv_matches_four_op_reference() {
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(1);
        let conv = SageConv::new("s", 2, 4, &mut rng);
        let run = |fused: bool, separate_target: bool| {
            let tape = Tape::new();
            let (x, xt) = inputs(&tape);
            let xt = if separate_target { tape.leaf(xt.value().map(|v| v + 0.5)) } else { xt };
            let y = if fused {
                let target = separate_target.then_some(&xt);
                conv.forward(&tape, &x, target, &hop(), None, &mut rng.clone())
            } else {
                conv.forward_reference(&tape, &x, &xt, &hop())
            };
            let g = tape.backward(&y.mul(&y).sum_all());
            let mut grads = vec![y.value(), g.wrt(&x).unwrap().clone()];
            grads.extend(conv.params().iter().map(|p| g.by_param(p.id()).unwrap().clone()));
            grads.extend(separate_target.then(|| g.wrt(&xt).unwrap().clone()));
            grads
        };
        for separate_target in [false, true] {
            for (f, r) in run(true, separate_target).iter().zip(run(false, separate_target)) {
                assert!(f.max_abs_diff(&r) < 1e-5, "fused {f:?} vs reference {r:?}");
            }
        }
    }

    #[test]
    fn sage_mean_aggregation_is_correct() {
        // Identity weights make the output self + mean(neigh) directly.
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(0);
        let mut conv = SageConv::new("s", 2, 2, &mut rng);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        for p in conv.params_mut() {
            p.set_value(eye.clone());
        }
        let tape = Tape::new();
        let (x, _) = inputs(&tape);
        let y = conv.forward(&tape, &x, None, &hop(), None, &mut rng).value();
        // dst0: self (1,0) + mean of rows {2,1} = ((1+0)/2, (1+1)/2) = (0.5, 1).
        assert_eq!(y.row(0), &[1.5, 1.0]);
        // dst1: self (0,1) + row2 (1,1).
        assert_eq!(y.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn gat_attention_weights_sum_to_one_per_dst() {
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(3);
        let conv = GatConv::new("g", 2, 3, &mut rng);
        let tape = Tape::new();
        let (x, xt) = inputs(&tape);
        let y = conv.forward(&tape, &x, &xt, &hop());
        assert_eq!(y.shape().dims(), &[2, 3]);
        // Output of each dst is a convex combination of W-transformed
        // sources, so its norm is bounded by the max row norm of h.
        let h = x.value();
        assert!(h.all_finite());
        assert!(y.value().all_finite());
    }

    #[test]
    fn gat_gradients_reach_attention_params() {
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(4);
        let mut conv = GatConv::new("g", 2, 3, &mut rng);
        let tape = Tape::new();
        let (x, xt) = inputs(&tape);
        let y = conv.forward(&tape, &x, &xt, &hop());
        let grads = tape.backward(&y.mul(&y).sum_all());
        grads.apply_to(conv.params_mut());
        for p in conv.params() {
            assert!(p.grad().norm() > 0.0, "no grad for {}", p.name());
        }
    }

    #[test]
    fn gin_conv_runs_and_trains() {
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(5);
        let mut conv = GinConv::new("gin", 2, 4, &mut rng);
        let tape = Tape::new();
        let (x, xt) = inputs(&tape);
        let y = conv.forward(&tape, &x, &xt, &hop(), true);
        assert_eq!(y.shape().dims(), &[2, 4]);
        let grads = tape.backward(&y.sum_all());
        grads.apply_to(conv.params_mut());
        let with_grad = conv.params().iter().filter(|p| p.grad().norm() > 0.0).count();
        assert!(with_grad >= 4, "most GIN params should receive gradient");
    }
}
