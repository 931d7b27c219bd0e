//! Microbenchmarks of the tensor substrate: GEMM kernels at GNN-typical
//! shapes, scatter aggregation (through the tape, and the CSR row kernel at
//! the benchmark's hop-0 shapes against the host's copy bandwidth), the fused
//! SAGE layer and its ReLU + dropout epilogue, f16 conversion bandwidth, and
//! a forward+backward and a full train step of one GraphSAGE batch.

use salient_bench::harness::{bench, report};
use salient_batchprep::PinnedPool;
use salient_graph::DatasetConfig;
use salient_nn::{build_model, Mode, ModelKind};
use salient_sampler::FastSampler;
use salient_tensor::optim::{zero_grads, Adam, Optimizer};
use salient_tensor::rng::{Rng, SliceRandom, StdRng};
use salient_tensor::{gemm, init, kernels, quantize, widen_into, Dtype, FeatureRows, Param, RowStore, Tape, Tensor};
use std::rc::Rc;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

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

/// The CSR aggregation kernel on hop 0 of one `BENCHMARK.json` batch (256
/// seeds, 100 feature columns): `infer` is `infer_sweep`'s shape (G10k,
/// fanouts 20,20,20), `train` is `train_compute`'s (G100k, fanouts 15,10,5).
/// Each row prints edges per second and the bytes of source rows those edges
/// read per second (`csr_agg_fwd_f16` sums the same rows stored as halves, as
/// hop 0 reads a staged batch: half the bytes, the same bits out — compared
/// before timing); the last line is one large `copy_from_slice`, the rate a
/// kernel that streamed its rows instead of gathering them could not beat.
fn bench_csr_agg() {
    const COLS: usize = 100;
    let mut samples = Vec::new();
    for (shape, nodes, fanouts) in [("infer", 10_000, [20, 20, 20]), ("train", 100_000, [15, 10, 5])] {
        let ds = DatasetConfig {
            num_nodes: nodes,
            feat_dim: 1,
            ..DatasetConfig::products_sim(1.0)
        }
        .build();
        let mfg = FastSampler::new(0).sample(&ds.graph, &ds.splits.train[..256], &fanouts);
        let layer = &mfg.layers[0];
        let (n_src, n_dst, edges) = (layer.n_src, layer.n_dst, layer.num_edges());
        let mut rng = StdRng::seed_from_u64(1);
        let mut values = |n: usize| -> Vec<f32> {
            (0..n * COLS).map(|_| rng.random_range(-1.0f32..1.0)).collect()
        };
        let (x, g) = (values(n_src), values(n_dst));
        // The same rows as a staged batch holds them.
        let halves = quantize(&x);
        let mut grad = g.clone();
        let mut order: Vec<usize> = (0..edges).collect();
        order.shuffle(&mut StdRng::seed_from_u64(2));
        let shuffled = |ids: &[u32]| -> Vec<u32> { order.iter().map(|&e| ids[e]).collect() };
        let (src, dst) = (&layer.edge_src, &layer.edge_dst);
        let (src_sh, dst_sh) = (shuffled(src), shuffled(dst));
        // Results go back to the buffer pool the way a tape's tensors do.
        let pooled = |out: Vec<f32>| {
            let n = out.len();
            Tensor::from_vec(out, [n]).len()
        };
        assert_eq!(
            bits(&kernels::scatter_reduce_forward_f16(&halves, COLS, src, dst, n_dst, true)),
            bits(&kernels::scatter_reduce_forward(&FeatureRows::Half(&halves).to_f32_vec(), COLS, src, dst, n_dst, true)),
            "{shape}: the aggregate of f16 rows is not the aggregate of their widened copy"
        );
        let rows = [
            bench(&format!("csr_agg_fwd_sorted {shape}"), || {
                pooled(kernels::scatter_reduce_forward(&x, COLS, src, dst, n_dst, true))
            }),
            bench(&format!("csr_agg_fwd_f16 {shape}"), || {
                pooled(kernels::scatter_reduce_forward_f16(&halves, COLS, src, dst, n_dst, true))
            }),
            bench(&format!("csr_agg_fwd_shuffled {shape}"), || {
                pooled(kernels::scatter_reduce_forward(&x, COLS, &src_sh, &dst_sh, n_dst, true))
            }),
            // The mean's backward pass scales its gradient in place, so
            // every call gets a fresh copy (as a train step's GEMM writes one).
            bench(&format!("csr_agg_bwd {shape}"), || {
                grad.copy_from_slice(&g);
                pooled(kernels::scatter_reduce_backward(&mut grad, COLS, src, dst, n_src, true))
            }),
        ];
        println!("  {shape}: {n_src} -> {n_dst} rows, {edges} edges, {COLS} cols");
        for s in rows {
            let elem = if s.name.contains("f16") { 2 } else { 4 };
            println!(
                "  {} -> {:.1} Medges/s, {:.2} GB/s of source rows",
                s.name,
                s.per_second(edges as f64) / 1e6,
                s.per_second((edges * COLS * elem) as f64) / 1e9
            );
            samples.push(s);
        }
    }
    let from = vec![1.0f32; 16 << 20];
    let mut to = vec![0.0f32; 16 << 20];
    let copy = bench("stream_copy_64mb", || {
        to.copy_from_slice(&from);
        to[0]
    });
    println!("  {} -> {:.2} GB/s", copy.name, copy.per_second((from.len() * 4) as f64) / 1e9);
    samples.push(copy);
    report("csr_aggregation", &samples);
}

/// One fused SAGE layer (hop 0) with constant features, as the train step
/// runs it: forward alone, and forward + backward to the two weight
/// gradients — at a small shape (128 seeds, 32 → 64) and at `train_compute`'s
/// (G100k, 256 seeds, fanouts 15,10,5: some 22 k destination rows, 100 → 128),
/// the layer that is half of a train batch. The `f16` rows run the train
/// shape as the trainer does, on a lent pinned slot of halves instead of an
/// `f32` tensor; output and weight gradients are compared bit for bit first.
fn bench_sage_conv() {
    let small = DatasetConfig::products_sim(0.1);
    let train = DatasetConfig { num_nodes: 100_000, feat_dim: 1, ..DatasetConfig::products_sim(1.0) };
    let mut samples = Vec::new();
    for (shape, config, seeds, (k, n)) in [("small", small, 128, (32, 64)), ("train", train, 256, (100, 128))] {
        let ds = config.build();
        let mfg = FastSampler::new(0).sample(&ds.graph, &ds.splits.train[..seeds], &[15, 10, 5]);
        let layer = &mfg.layers[0];
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::full([layer.n_src, k], 1.0);
        // The f16 rows' input: a slot of varied halves.
        let halves = quantize(&(0..layer.n_src * k).map(|i| (i % 4093) as f32 / 4093.0 - 0.5).collect::<Vec<_>>());
        let mut slot = PinnedPool::new(1, layer.n_src, k, 0, Dtype::F16).acquire();
        slot.prepare(layer.n_src, k, 0);
        slot.features_mut().copy_from(FeatureRows::Half(&halves));
        let lent: Rc<dyn RowStore> = Rc::new(slot);
        let w_self = Param::new("w_self", init::glorot_uniform(k, n, &mut rng));
        let w_neigh = Param::new("w_neigh", init::glorot_uniform(k, n, &mut rng));
        // The layer's output and — with `backward` — its weight gradients,
        // over `x` or, without one, over the lent slot.
        let run = |x: Option<&Tensor>, backward: bool, rng: &mut StdRng| -> Vec<Tensor> {
            let tape = Tape::new();
            let (ws, wn) = (tape.param(&w_self), tape.param(&w_neigh));
            let (src, dst) = (&layer.edge_src, &layer.edge_dst);
            let x = x.map_or_else(|| tape.constant_rows(Rc::clone(&lent), k), |x| tape.constant(x.clone()));
            let y = x.sage_conv(None, &ws, &wn, src, dst, layer.n_dst, Some(0.5), rng);
            let mut results = vec![y.value()];
            if backward {
                let grads = tape.backward(&y.sum_all());
                results.extend([&w_self, &w_neigh].map(|w| grads.by_param(w.id()).unwrap().clone()));
            }
            results
        };
        println!("  {shape}: {} -> {} rows, {} edges, {k} -> {n}", layer.n_src, layer.n_dst, layer.num_edges());
        let mut rows = vec![(Some(&x), "")];
        if shape == "train" {
            let widened = Tensor::from_vec(FeatureRows::Half(&halves).to_f32_vec(), [layer.n_src, k]);
            let by = |x: Option<&Tensor>| run(x, true, &mut StdRng::seed_from_u64(9));
            for (lent, wide) in by(None).iter().zip(by(Some(&widened))) {
                assert_eq!(bits(lent.data()), bits(wide.data()), "the layer over f16 rows is not the layer over their widened copy");
            }
            rows.push((None, " f16"));
        }
        for (x, elem) in rows {
            samples.push(bench(&format!("sage_conv_fused_fwd {shape}{elem}"), || run(x, false, &mut rng).len()));
            samples.push(bench(&format!("sage_conv_fused_fwd_bwd {shape}{elem}"), || run(x, true, &mut rng).len()));
        }
    }
    report("sage_conv_fused", &samples);
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
        widen_into(&halves, &mut out);
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
    bench_csr_agg();
    bench_sage_conv();
    bench_relu_dropout();
    bench_f16();
    bench_train_step();
}
