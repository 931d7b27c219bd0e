//! Microbenchmarks of the tensor substrate: GEMM kernels at GNN-typical
//! shapes, scatter aggregation, the fused SAGE layer and its ReLU + dropout
//! epilogue, f16 conversion bandwidth, and a forward+backward and a full
//! train step of one GraphSAGE batch.

use salient_bench::harness::{bench, report};
use salient_graph::DatasetConfig;
use salient_nn::{build_model, Mode, ModelKind};
use salient_sampler::FastSampler;
use salient_tensor::optim::{zero_grads, Adam, Optimizer};
use salient_tensor::rng::StdRng;
use salient_tensor::{dequantize_into, gemm, init, kernels, quantize, Param, Tape, Tensor};

fn bench_gemm() {
    let mut samples = Vec::new();
    for (m, k, n) in [(1024usize, 32usize, 64usize), (4096, 64, 64), (256, 64, 47)] {
        let a = Tensor::full([m, k], 0.5);
        let b = Tensor::full([k, n], 0.25);
        let s = bench(&format!("gemm {m}x{k}x{n}"), || gemm(&a, &b, false, false));
        let gflops = s.per_second((2 * m * k * n) as f64) / 1e9;
        println!("  {} -> {gflops:.2} GFLOP/s", s.name);
        samples.push(s);
    }
    report("gemm", &samples);
}

fn bench_scatter() {
    let ds = DatasetConfig::products_sim(0.1).build();
    let mfg = FastSampler::new(0).sample(&ds.graph, &ds.splits.train[..128], &[15, 10, 5]);
    let layer = &mfg.layers[0];
    let x = Tensor::full([layer.n_src, 32], 1.0);
    let s = bench("scatter_mean_fwd", || {
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        xv.scatter_mean(&layer.edge_src, &layer.edge_dst, layer.n_dst).value()
    });
    println!(
        "  {} -> {:.1}M edges/s",
        s.name,
        s.per_second(layer.num_edges() as f64) / 1e6
    );
    report("aggregation", &[s]);
}

/// One fused SAGE layer (hop 0, hidden 64) with constant features, as the
/// train step runs it: forward alone, and forward + backward to the two
/// weight gradients.
fn bench_sage_conv() {
    let ds = DatasetConfig::products_sim(0.1).build();
    let mfg = FastSampler::new(0).sample(&ds.graph, &ds.splits.train[..128], &[15, 10, 5]);
    let layer = &mfg.layers[0];
    let mut rng = StdRng::seed_from_u64(0);
    let x = Tensor::full([layer.n_src, 32], 1.0);
    let w_self = Param::new("w_self", init::glorot_uniform(32, 64, &mut rng));
    let w_neigh = Param::new("w_neigh", init::glorot_uniform(32, 64, &mut rng));
    let mut run = |backward: bool| {
        let tape = Tape::new();
        let (ws, wn) = (tape.param(&w_self), tape.param(&w_neigh));
        let (src, dst) = (&layer.edge_src, &layer.edge_dst);
        let y = tape
            .constant(x.clone())
            .sage_conv(None, &ws, &wn, src, dst, layer.n_dst, Some(0.5), &mut rng);
        match backward {
            true => tape.backward(&y.sum_all()).iter_params().count(),
            false => y.value().len(),
        }
    };
    let fwd = bench("sage_conv_fused_fwd", || run(false));
    let both = bench("sage_conv_fused_fwd_bwd", || run(true));
    report("sage_conv_fused", &[fwd, both]);
}

fn bench_relu_dropout() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut xs: Vec<f32> = (0..1 << 20).map(|i| (i % 7) as f32 - 3.0).collect();
    let s = bench("relu_dropout_1m", || {
        kernels::relu_dropout_in_place(&mut xs, 0.5, &mut rng)
    });
    println!("  {} -> {:.0}M elements/s", s.name, s.per_second((1 << 20) as f64) / 1e6);
    report("relu_dropout", &[s]);
}

fn bench_f16() {
    let xs: Vec<f32> = (0..1 << 16).map(|i| (i as f32) * 0.001 - 32.0).collect();
    let halves = quantize(&xs);
    let mut out = vec![0.0f32; xs.len()];
    let q = bench("quantize_64k", || quantize(&xs));
    let d = bench("dequantize_64k", || {
        dequantize_into(&halves, &mut out);
        out[0]
    });
    report("f16", &[q, d]);
}

fn bench_train_step() {
    let ds = DatasetConfig::products_sim(0.1).build();
    let mfg = FastSampler::new(0).sample(&ds.graph, &ds.splits.train[..128], &[10, 5]);
    let mut model = build_model(ModelKind::Sage, ds.features.dim(), 64, ds.num_classes, 2, 0);
    let features = ds.features.gather_f32(&mfg.node_ids);
    let targets: Vec<usize> = mfg.node_ids[..mfg.batch_size()]
        .iter()
        .map(|&v| ds.labels[v as usize] as usize)
        .collect();
    let mut rng = StdRng::seed_from_u64(0);
    let s = bench("sage_fwd_bwd_128", || {
        let tape = Tape::new();
        let x = tape.constant(features.clone());
        let out = model.forward(&tape, x, &mfg, Mode::Train, &mut rng);
        let loss = out.nll_loss(&targets);
        tape.backward(&loss).iter_params().count()
    });
    let mut opt = Adam::new(3e-3);
    let full = bench("sage_train_step_128", || {
        let grads = {
            let tape = Tape::new();
            let x = tape.constant(features.clone());
            let out = model.forward(&tape, x, &mfg, Mode::Train, &mut rng);
            tape.backward(&out.nll_loss(&targets))
        };
        zero_grads(model.params_mut().into_iter());
        grads.apply_to(model.params_mut());
        opt.step(model.params_mut().into_iter());
    });
    report("train_step", &[s, full]);
}

fn main() {
    bench_gemm();
    bench_scatter();
    bench_sage_conv();
    bench_relu_dropout();
    bench_f16();
    bench_train_step();
}
