//! The four GNN architectures evaluated in the paper (appendix listings
//! 1–4): GraphSAGE, GAT, GIN, and GraphSAGE-RI.
//!
//! Each model's `forward` follows the PyG bipartite pattern of the paper's
//! Listing 1 exactly: iterate the MFG layers in forward order, take
//! `x_target = x[:n_dst]`, apply the convolution, then ReLU + dropout on all
//! but the last layer, and finish with `log_softmax`.
//!
//! One deliberate deviation: the paper's GraphSAGE listing wires its final
//! convolution `hidden → hidden` and never uses `out_channels` (an artifact
//! of the listing); we wire it `hidden → out_channels` so the model is a
//! working classifier.

#![expect(
    clippy::indexing_slicing,
    reason = "check_input runs behind the non-empty-layers assert shared by every model constructor, and asserts one MFG layer per conv and norm"
)]

use crate::batch_norm::BatchNorm1d;
use crate::convs::{GatConv, GinConv, SageConv};
use crate::linear::Linear;
use salient_tensor::rng::StdRng;
use salient_sampler::MessageFlowGraph;
use salient_tensor::{Param, Tape, Var};

/// Forward-pass mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Training: dropout active, batch statistics used and updated.
    Train,
    /// Evaluation: dropout off, running statistics used.
    Eval,
}

impl Mode {
    /// Whether this is training mode.
    pub(crate) fn training(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// Which architecture to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// GraphSAGE (mean aggregation).
    Sage,
    /// Graph attention network (1 head).
    Gat,
    /// Graph isomorphism network.
    Gin,
    /// GraphSAGE with residual connections and Inception-style readout.
    SageRi,
}

impl ModelKind {
    /// All architectures, Figure-6 order.
    pub fn all() -> [ModelKind; 4] {
        [ModelKind::Sage, ModelKind::Gat, ModelKind::Gin, ModelKind::SageRi]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Sage => "SAGE",
            ModelKind::Gat => "GAT",
            ModelKind::Gin => "GIN",
            ModelKind::SageRi => "SAGE-RI",
        }
    }
}

/// A trainable GNN operating on sampled message-flow graphs.
///
/// Models are `Send` so DDP can move one replica onto each rank thread.
pub trait GnnModel: Send {
    /// Runs the model on one batch. `x` must hold the feature rows of
    /// `mfg.node_ids`; the result has `mfg.batch_size()` rows of
    /// log-probabilities.
    fn forward(
        &mut self,
        tape: &Tape,
        x: Var,
        mfg: &MessageFlowGraph,
        mode: Mode,
        rng: &mut StdRng,
    ) -> Var;

    /// Trainable parameters.
    fn params(&self) -> Vec<&Param>;

    /// Mutable trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Architecture name.
    fn kind(&self) -> ModelKind;

    /// Number of GNN layers (hops consumed per forward).
    fn num_layers(&self) -> usize;

    /// Total scalar parameter count.
    fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.value().len()).sum()
    }
}

/// Builds a model of the given architecture.
///
/// # Panics
///
/// Panics if `num_layers < 2`.
pub fn build_model(
    kind: ModelKind,
    in_dim: usize,
    hidden: usize,
    out_dim: usize,
    num_layers: usize,
    seed: u64,
) -> Box<dyn GnnModel> {
    assert!(num_layers >= 2, "models need at least two layers");
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        ModelKind::Sage => Box::new(GraphSage::new(in_dim, hidden, out_dim, num_layers, &mut rng)),
        ModelKind::Gat => Box::new(Gat::new(in_dim, hidden, out_dim, num_layers, &mut rng)),
        ModelKind::Gin => Box::new(Gin::new(in_dim, hidden, out_dim, num_layers, &mut rng)),
        ModelKind::SageRi => {
            Box::new(GraphSageRi::new(in_dim, hidden, out_dim, num_layers, &mut rng))
        }
    }
}

fn check_input(x: &Var, mfg: &MessageFlowGraph, layers: usize) {
    assert_eq!(
        mfg.layers.len(),
        layers,
        "MFG has {} hops but the model has {layers} layers",
        mfg.layers.len()
    );
    assert_eq!(
        x.shape().rows(),
        mfg.layers[0].n_src,
        "feature rows must match the MFG node count"
    );
}

/// GraphSAGE of appendix Listing 1 (dropout 0.5).
#[derive(Debug)]
pub(crate) struct GraphSage {
    convs: Vec<SageConv>,
}

impl GraphSage {
    /// Creates the model.
    pub(crate) fn new(
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        num_layers: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut convs = Vec::with_capacity(num_layers);
        convs.push(SageConv::new("sage.0", in_dim, hidden, rng));
        for i in 1..num_layers - 1 {
            convs.push(SageConv::new(&format!("sage.{i}"), hidden, hidden, rng));
        }
        convs.push(SageConv::new(
            &format!("sage.{}", num_layers - 1),
            hidden,
            out_dim,
            rng,
        ));
        GraphSage { convs }
    }
}

impl GnnModel for GraphSage {
    fn forward(
        &mut self,
        tape: &Tape,
        x: Var,
        mfg: &MessageFlowGraph,
        mode: Mode,
        rng: &mut StdRng,
    ) -> Var {
        check_input(&x, mfg, self.convs.len());
        let last = self.convs.len() - 1;
        let mut x = x;
        // ReLU + dropout(0.5) rides in every layer's fused node but the last.
        let drop = if mode.training() { 0.5 } else { 0.0 };
        for (i, (conv, layer)) in self.convs.iter().zip(mfg.layers.iter()).enumerate() {
            x = conv.forward(tape, &x, None, layer, (i != last).then_some(drop), rng);
        }
        x.log_softmax()
    }

    fn params(&self) -> Vec<&Param> {
        self.convs.iter().flat_map(|c| c.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.convs.iter_mut().flat_map(|c| c.params_mut()).collect()
    }

    fn kind(&self) -> ModelKind {
        ModelKind::Sage
    }

    fn num_layers(&self) -> usize {
        self.convs.len()
    }
}

/// GAT of appendix Listing 2 (1 head, no bias, dropout 0.5).
#[derive(Debug)]
pub struct Gat {
    convs: Vec<GatConv>,
}

impl Gat {
    /// Creates the model.
    pub(crate) fn new(
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        num_layers: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut convs = Vec::with_capacity(num_layers);
        convs.push(GatConv::new("gat.0", in_dim, hidden, rng));
        for i in 1..num_layers - 1 {
            convs.push(GatConv::new(&format!("gat.{i}"), hidden, hidden, rng));
        }
        convs.push(GatConv::new(
            &format!("gat.{}", num_layers - 1),
            hidden,
            out_dim,
            rng,
        ));
        Gat { convs }
    }
}

impl GnnModel for Gat {
    fn forward(
        &mut self,
        tape: &Tape,
        x: Var,
        mfg: &MessageFlowGraph,
        mode: Mode,
        rng: &mut StdRng,
    ) -> Var {
        check_input(&x, mfg, self.convs.len());
        let last = self.convs.len() - 1;
        let mut x = x;
        for (i, (conv, layer)) in self.convs.iter().zip(mfg.layers.iter()).enumerate() {
            let x_target = x.narrow_rows(layer.n_dst);
            x = conv.forward(tape, &x, &x_target, layer);
            if i != last {
                x = x.relu_dropout(0.5, mode.training(), rng);
            }
        }
        x.log_softmax()
    }

    fn params(&self) -> Vec<&Param> {
        self.convs.iter().flat_map(|c| c.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.convs.iter_mut().flat_map(|c| c.params_mut()).collect()
    }

    fn kind(&self) -> ModelKind {
        ModelKind::Gat
    }

    fn num_layers(&self) -> usize {
        self.convs.len()
    }
}

/// GIN of appendix Listing 3 (BatchNorm MLPs, linear readout, dropout 0.5).
#[derive(Debug)]
pub struct Gin {
    convs: Vec<GinConv>,
    lin1: Linear,
    lin2: Linear,
}

impl Gin {
    /// Creates the model.
    pub(crate) fn new(
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        num_layers: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut convs = Vec::with_capacity(num_layers);
        convs.push(GinConv::new("gin.0", in_dim, hidden, rng));
        for i in 1..num_layers {
            convs.push(GinConv::new(&format!("gin.{i}"), hidden, hidden, rng));
        }
        Gin {
            convs,
            lin1: Linear::new("gin.lin1", hidden, hidden, true, rng),
            lin2: Linear::new("gin.lin2", hidden, out_dim, true, rng),
        }
    }
}

impl GnnModel for Gin {
    fn forward(
        &mut self,
        tape: &Tape,
        x: Var,
        mfg: &MessageFlowGraph,
        mode: Mode,
        rng: &mut StdRng,
    ) -> Var {
        let layers = self.convs.len();
        check_input(&x, mfg, layers);
        let mut x = x;
        for (conv, layer) in self.convs.iter_mut().zip(mfg.layers.iter()) {
            let x_target = x.narrow_rows(layer.n_dst);
            x = conv.forward(tape, &x, &x_target, layer, mode.training());
        }
        let x = self.lin1.forward(tape, &x).relu();
        let x = x.dropout(0.5, mode.training(), rng);
        self.lin2.forward(tape, &x).log_softmax()
    }

    fn params(&self) -> Vec<&Param> {
        let mut p: Vec<&Param> = self.convs.iter().flat_map(|c| c.params()).collect();
        p.extend(self.lin1.params());
        p.extend(self.lin2.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p: Vec<&mut Param> = self
            .convs
            .iter_mut()
            .flat_map(|c| c.params_mut())
            .collect();
        p.extend(self.lin1.params_mut());
        p.extend(self.lin2.params_mut());
        p
    }

    fn kind(&self) -> ModelKind {
        ModelKind::Gin
    }

    fn num_layers(&self) -> usize {
        self.convs.len()
    }
}

/// GraphSAGE-RI of appendix Listing 4: residual connections, batch norms,
/// light dropout (0.1), and an Inception-style readout over the
/// concatenation of every depth's batch-node representation.
#[derive(Debug)]
pub(crate) struct GraphSageRi {
    convs: Vec<SageConv>,
    bns: Vec<BatchNorm1d>,
    res0: Linear,
    mlp: Linear,
}

impl GraphSageRi {
    /// Creates the model.
    pub(crate) fn new(
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        num_layers: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mut convs = Vec::with_capacity(num_layers);
        let mut bns = Vec::with_capacity(num_layers);
        convs.push(SageConv::new("ri.0", in_dim, hidden, rng));
        bns.push(BatchNorm1d::new("ri.bn0", hidden));
        for i in 1..num_layers {
            convs.push(SageConv::new(&format!("ri.{i}"), hidden, hidden, rng));
            bns.push(BatchNorm1d::new(&format!("ri.bn{i}"), hidden));
        }
        let concat_dim = in_dim + num_layers * hidden;
        GraphSageRi {
            convs,
            bns,
            res0: Linear::new("ri.res0", in_dim, hidden, true, rng),
            mlp: Linear::new("ri.mlp", concat_dim, out_dim, true, rng),
        }
    }
}

impl GnnModel for GraphSageRi {
    fn forward(
        &mut self,
        tape: &Tape,
        x: Var,
        mfg: &MessageFlowGraph,
        mode: Mode,
        rng: &mut StdRng,
    ) -> Var {
        let layers = self.convs.len();
        check_input(&x, mfg, layers);
        let end = mfg.batch_size();
        let training = mode.training();
        let mut collect = Vec::with_capacity(layers + 1);
        let mut x = x.dropout(0.1, training, rng);
        collect.push(x.narrow_rows(end));
        for (i, layer) in mfg.layers.iter().enumerate() {
            let x_target = x.narrow_rows(layer.n_dst);
            let xd = x.dropout(0.1, training, rng);
            let xtd = x_target.dropout(0.1, training, rng);
            let mut h = self.convs[i].forward(tape, &xd, Some(&xtd), layer, None, rng);
            h = self.bns[i].forward(tape, &h, training);
            h = h.leaky_relu(0.01).dropout(0.1, training, rng);
            collect.push(h.narrow_rows(end));
            // Residual: first layer projects the input features, deeper
            // layers add the target representation unchanged.
            x = if i == 0 {
                h.add(&self.res0.forward(tape, &x_target))
            } else {
                h.add(&x_target)
            };
        }
        self.mlp
            .forward(tape, &Var::concat_cols(&collect))
            .log_softmax()
    }

    fn params(&self) -> Vec<&Param> {
        let mut p: Vec<&Param> = self.convs.iter().flat_map(|c| c.params()).collect();
        p.extend(self.bns.iter().flat_map(|b| b.params()));
        p.extend(self.res0.params());
        p.extend(self.mlp.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p: Vec<&mut Param> = self
            .convs
            .iter_mut()
            .flat_map(|c| c.params_mut())
            .collect();
        p.extend(self.bns.iter_mut().flat_map(|b| b.params_mut()));
        p.extend(self.res0.params_mut());
        p.extend(self.mlp.params_mut());
        p
    }

    fn kind(&self) -> ModelKind {
        ModelKind::SageRi
    }

    fn num_layers(&self) -> usize {
        self.convs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_graph::DatasetConfig;
    use salient_sampler::FastSampler;
    use salient_tensor::Tape;

    fn run_forward(kind: ModelKind) {
        let ds = DatasetConfig::tiny(30).build();
        let mfg = FastSampler::new(0).sample(&ds.graph, &ds.splits.train[..8], &[4, 3]);
        let mut model = build_model(kind, ds.features.dim(), 16, ds.num_classes, 2, 7);
        let mut rng = StdRng::seed_from_u64(0);
        let tape = Tape::new();
        let x = tape.constant(ds.features.gather_f32(&mfg.node_ids));
        let out = model.forward(&tape, x, &mfg, Mode::Train, &mut rng);
        assert_eq!(out.shape().dims(), &[8, ds.num_classes]);
        // Rows are log-probabilities.
        let v = out.value();
        for r in 0..8 {
            let p: f32 = v.row(r).iter().map(|x| x.exp()).sum();
            assert!((p - 1.0).abs() < 1e-4, "{kind:?} row {r} sums to {p}");
        }
        // Backward reaches every parameter... or at least most (BN gammas in
        // degenerate batches can get zero gradient).
        let targets: Vec<usize> = (0..8).map(|i| i % ds.num_classes).collect();
        let loss = out.nll_loss(&targets);
        let grads = tape.backward(&loss);
        grads.apply_to(model.params_mut());
        let live = model.params().iter().filter(|p| p.grad().norm() > 0.0).count();
        let total = model.params().len();
        assert!(
            live * 10 >= total * 8,
            "{kind:?}: only {live}/{total} params received gradient"
        );
    }

    #[test]
    fn sage_forward_and_backward() {
        run_forward(ModelKind::Sage);
    }

    #[test]
    fn gat_forward_and_backward() {
        run_forward(ModelKind::Gat);
    }

    #[test]
    fn gin_forward_and_backward() {
        run_forward(ModelKind::Gin);
    }

    #[test]
    fn sage_ri_forward_and_backward() {
        run_forward(ModelKind::SageRi);
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let ds = DatasetConfig::tiny(31).build();
        let mfg = FastSampler::new(1).sample(&ds.graph, &ds.splits.train[..4], &[4, 3]);
        let mut model = build_model(ModelKind::Sage, ds.features.dim(), 16, ds.num_classes, 2, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let run = |model: &mut Box<dyn GnnModel>, rng: &mut StdRng| {
            let tape = Tape::new();
            let x = tape.constant(ds.features.gather_f32(&mfg.node_ids));
            model.forward(&tape, x, &mfg, Mode::Eval, rng).value()
        };
        let a = run(&mut model, &mut rng);
        let b = run(&mut model, &mut rng);
        assert_eq!(a.data(), b.data(), "eval has no dropout randomness");
    }

    #[test]
    fn parameter_counts_are_positive_and_distinct() {
        let counts: Vec<usize> = ModelKind::all()
            .iter()
            .map(|&k| build_model(k, 32, 16, 8, 3, 0).num_parameters())
            .collect();
        assert!(counts.iter().all(|&c| c > 0));
        // SAGE-RI with its extra readout is the biggest at equal hidden.
        assert!(counts[3] > counts[0]);
    }

    #[test]
    #[should_panic(expected = "hops")]
    fn layer_count_mismatch_panics() {
        let ds = DatasetConfig::tiny(32).build();
        let mfg = FastSampler::new(0).sample(&ds.graph, &ds.splits.train[..4], &[4]);
        let mut model = build_model(ModelKind::Sage, ds.features.dim(), 8, ds.num_classes, 3, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let tape = Tape::new();
        let x = tape.constant(ds.features.gather_f32(&mfg.node_ids));
        model.forward(&tape, x, &mfg, Mode::Eval, &mut rng);
    }
}
