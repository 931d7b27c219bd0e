//! The paper's evaluation, one function per table and figure. Each returns
//! the artifact's text and the named claims it makes about its own numbers;
//! `salient paper <artifact>` prints the text to stdout, the claims to
//! stderr, and fails when a claim does not hold.
//!
//! | function | artifact | plane |
//! |---|---|---|
//! | [`table1`] | baseline per-operation breakdown | simulated |
//! | [`table2`] | sampling/slicing thread scaling, PyG vs SALIENT | simulated + real sampler |
//! | [`table3`] | the optimization ladder | simulated |
//! | [`table4`] | dataset summary | generators |
//! | [`table5`] | hyperparameter table | static |
//! | [`table6`] | inference accuracy vs fanout | real training |
//! | [`table7`] | cross-system comparison | simulated |
//! | [`fig1`] | execution timeline, baseline vs SALIENT | simulated |
//! | [`fig2`] | 144-variant sampler design space | real wall clock |
//! | [`fig3`] | accuracy & node count vs degree | real training |
//! | [`fig4`] | single-GPU speedup over PyG | simulated + real executors |
//! | [`fig5`] | multi-GPU scaling | simulated |
//! | [`fig6`] | per-architecture time & accuracy | simulated + real training |
//!
//! The simulated and generated artifacts are deterministic to the byte:
//! `results/<name>.txt` holds what they print.

use crate::{bar, fmt_pct, fmt_s, fmt_x, render_table};
use salient_core::{ExecutorKind, RunConfig, Trainer};
use salient_graph::{DatasetConfig, DatasetStats};
use salient_nn::metrics::accuracy_by_degree;
use salient_nn::ModelKind;
use salient_sampler::{
    FastSampler, IdMapKind, NeighborSetKind, PygSampler, SampleAlgo, VariantConfig,
    VariantSampler,
};
use salient_sim::{
    expected_batch, render_text, scaling_sweep, simulate_epoch, simulate_epoch_detailed,
    simulate_inference_epoch, simulate_multi_gpu, CostModel, EpochConfig, EpochReport, GnnArch,
    Impl, MultiGpuConfig, OptLevel,
};
use salient_trace::{analyze, names, Clock, PipelineReport, Trace};
use std::fmt::Write as _;
use std::sync::Arc;

/// One shape claim an artifact makes about the numbers it printed.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// What is claimed, e.g. `ladder monotone on arxiv`.
    pub name: String,
    /// The numbers it was judged on.
    pub measured: String,
    /// Whether those numbers bear it out.
    pub holds: bool,
}

fn claim(name: impl Into<String>, holds: bool, measured: String) -> Claim {
    Claim { name: name.into(), measured, holds }
}

/// Whether `x` is within a fraction `tol` of `paper`.
fn near(x: f64, paper: f64, tol: f64) -> bool {
    (x / paper - 1.0).abs() <= tol
}

/// Table 1 — per-operation performance breakdown of the baseline PyG
/// training code (blocking times for batch preparation, transfer, and GPU
/// training), simulated at paper scale.
pub fn table1() -> (String, Vec<Claim>) {
    let model = CostModel::paper_hardware();
    // The paper's epoch / prep / transfer / train seconds.
    let paper = [(1.7, 1.0, 0.3, 0.5), (8.6, 4.0, 2.2, 2.4), (50.4, 18.6, 17.9, 13.9)];
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for (stats, p) in DatasetStats::all().into_iter().zip(paper) {
        let cfg = EpochConfig::paper_default(stats.clone(), OptLevel::PygBaseline);
        let r = simulate_epoch(&cfg, &model);
        rows.push(vec![
            stats.name.to_string(),
            fmt_s(r.epoch_s),
            fmt_s(r.prep_s),
            fmt_pct(r.pct(r.prep_s)),
            fmt_s(r.transfer_s),
            fmt_pct(r.pct(r.transfer_s)),
            fmt_s(r.train_s),
            fmt_pct(r.pct(r.train_s)),
            format!("{}s / {}s / {}s / {}s", p.0, p.1, p.2, p.3),
        ]);
        reports.push((stats.name, r));
    }
    let headers = [
        "Data Set",
        "Epoch",
        "Batch Prep.",
        "%",
        "Transfer",
        "%",
        "Train (GPU)",
        "%",
        "paper: epoch/prep/xfer/train",
    ];
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: per-operation breakdown of the baseline PyG training code");
    let _ = writeln!(out, "(3-layer GraphSAGE, fanout (15,10,5), hidden 256, batch 1024; simulated)\n");
    let _ = writeln!(out, "{}", render_table(&headers, &rows));
    let _ = writeln!(out, "Paper reference: prep 37-58%, transfer 15-35%, GPU train ~28% across datasets.");
    (out, table1_claims(&reports))
}

/// Batch preparation plus transfer is most of every baseline epoch.
fn table1_claims(reports: &[(&str, EpochReport)]) -> Vec<Claim> {
    reports
        .iter()
        .map(|(name, r)| {
            let share = r.pct(r.prep_s + r.transfer_s);
            let name = format!("prep + transfer > 60% of the baseline epoch on {name}");
            claim(name, share > 60.0, fmt_pct(share))
        })
        .collect()
}

/// Table 2 — breakdown of an ogbn-products epoch batch-preparation time for
/// PyG and SALIENT with P threads on 20 cores (simulated at paper scale),
/// plus a *real* single-thread sampler measurement on products-sim at
/// `scale` that checks the modeled PyG/SALIENT ratio.
pub fn table2(scale: f64) -> (String, Vec<Claim>) {
    let model = CostModel::paper_hardware();
    let stats = DatasetStats::products();
    let w = expected_batch(&stats, &[15, 10, 5], 1024);
    let batches = stats.batches_per_epoch(1024) as f64;

    let mut out = String::new();
    let _ = writeln!(out, "Table 2: ogbn-products epoch batch preparation time, P threads on 20 cores");
    let _ = writeln!(out, "(simulated from the calibrated cost model)\n");
    let mut rows = Vec::new();
    for p in [1usize, 10, 20] {
        let cell = |who: Impl, sampling: bool| -> f64 {
            let (batch_ns, serial) = match (who, sampling) {
                (Impl::Pyg, true) => (model.sample_batch_ns(who, &w), model.sample_serial_frac_pyg),
                (Impl::Pyg, false) => (model.slice_batch_ns(who, &w), model.slice_serial_frac_pyg),
                (Impl::Salient, true) => {
                    (model.sample_batch_ns(who, &w), model.sample_serial_frac_salient)
                }
                (Impl::Salient, false) => {
                    (model.slice_batch_ns(who, &w), model.slice_serial_frac_salient)
                }
            };
            CostModel::parallel_time(batch_ns * batches, p, serial) / 1e9
        };
        // "Both": PyG runs sampling and slicing concurrently (2P threads),
        // so the epoch cost is the max; SALIENT threads do both serially in
        // P threads total, so the cost is the sum.
        let pyg_both = cell(Impl::Pyg, true).max(cell(Impl::Pyg, false));
        let sal_both = cell(Impl::Salient, true) + cell(Impl::Salient, false);
        rows.push(vec![
            p.to_string(),
            fmt_s(cell(Impl::Pyg, true)),
            fmt_s(cell(Impl::Pyg, false)),
            fmt_s(pyg_both),
            fmt_s(cell(Impl::Salient, true)),
            fmt_s(cell(Impl::Salient, false)),
            fmt_s(sal_both),
        ]);
    }
    let headers =
        ["P", "PyG Sampling", "PyG Slicing", "PyG Both", "SAL Sampling", "SAL Slicing", "SAL Both"];
    let _ = writeln!(out, "{}", render_table(&headers, &rows));
    let _ = writeln!(out, "Paper: P=1: 71.1s/7.6s/72.7s vs 28.3s/7.3s/35.6s; P=20: 7.2s/1.2s/7.3s vs 1.9s/0.6s/2.5s\n");

    // Each sampler's reps run under a named span, and the totals are read
    // back from the snapshot.
    let ds = DatasetConfig::products_sim(scale).build();
    let fanouts = [15usize, 10, 5];
    let batch: Vec<u32> = ds.splits.train.iter().copied().take(512).collect();
    let reps = 6;
    let trace = Trace::new(Clock::monotonic());
    let mut pyg = PygSampler::new(7);
    let mut pyg_edges = 0usize;
    {
        let _span = trace.span(names::spans::BENCH_SAMPLE_PYG);
        for _ in 0..reps {
            pyg_edges += pyg.sample(&ds.graph, &batch, &fanouts).num_edges();
        }
    }
    let mut fast = FastSampler::new(7);
    let mut fast_edges = 0usize;
    {
        let _span = trace.span(names::spans::BENCH_SAMPLE_FAST);
        for _ in 0..reps {
            fast_edges += fast.sample(&ds.graph, &batch, &fanouts).num_edges();
        }
    }
    let snap = trace.snapshot();
    let pyg_t = snap.sum_ns(names::spans::BENCH_SAMPLE_PYG) as f64 / 1e9;
    let fast_t = snap.sum_ns(names::spans::BENCH_SAMPLE_FAST) as f64 / 1e9;
    let speedup = pyg_t / fast_t * fast_edges as f64 / pyg_edges as f64;
    let per_edge = |t: f64, edges: usize| t * 1e9 / edges as f64;

    let _ = writeln!(out, "Real single-thread sampler measurement (products-sim, scale {scale}):");
    let _ = writeln!(
        out,
        "  PyG-style: {} for {pyg_edges} edges ({:.0} ns/edge)",
        fmt_s(pyg_t),
        per_edge(pyg_t, pyg_edges)
    );
    let _ = writeln!(
        out,
        "  SALIENT:   {} for {fast_edges} edges ({:.0} ns/edge)",
        fmt_s(fast_t),
        per_edge(fast_t, fast_edges)
    );
    let _ = writeln!(out, "  measured speedup {} (paper: ~2.5x)", fmt_x(speedup));
    let claims = vec![claim("FastSampler >= 1.5x the PyG-style sampler per edge", speedup >= 1.5, fmt_x(speedup))];
    (out, claims)
}

/// Table 3 — impact of SALIENT optimizations on per-epoch runtime: the
/// cumulative ladder PyG → +fast sampling → +shared-memory batch prep →
/// +pipelined transfers, simulated at paper scale.
pub fn table3() -> (String, Vec<Claim>) {
    let model = CostModel::paper_hardware();
    let paper = [
        ("None (PyG)", [1.7, 8.6, 50.4]),
        ("+ Fast sampling", [0.7, 5.3, 34.6]),
        ("+ Shared-memory batch prep.", [0.6, 4.2, 27.8]),
        ("+ Pipelined data transfers", [0.5, 2.8, 16.5]),
    ];
    let datasets = DatasetStats::all();
    // ladder[d][rung]: dataset d's epoch seconds at each rung.
    let mut ladder = vec![[0.0f64; 4]; datasets.len()];
    let mut rows = Vec::new();
    for (rung, (level, (label, paper_vals))) in OptLevel::ladder().into_iter().zip(paper).enumerate() {
        let mut row = vec![label.to_string()];
        for ((stats, pv), epochs) in datasets.iter().zip(paper_vals).zip(&mut ladder) {
            let r = simulate_epoch(&EpochConfig::paper_default(stats.clone(), level), &model);
            epochs[rung] = r.epoch_s;
            row.push(format!("{} (paper {}s)", fmt_s(r.epoch_s), pv));
        }
        rows.push(row);
    }
    let mut out = String::new();
    let _ = writeln!(out, "Table 3: impact of SALIENT optimizations on per-epoch runtime (simulated)\n");
    let _ = writeln!(out, "{}", render_table(&["Optimization", "arxiv", "products", "papers"], &rows));
    let named: Vec<(&str, [f64; 4])> = datasets.iter().map(|s| s.name).zip(ladder).collect();
    (out, table3_claims(&named))
}

/// Every rung beats the one before it, and the two large graphs end at
/// least 3x faster than PyG.
fn table3_claims(ladder: &[(&str, [f64; 4])]) -> Vec<Claim> {
    let mut claims = Vec::new();
    for (name, epochs) in ladder {
        let monotone = epochs.windows(2).all(|w| w[1] < w[0]);
        let measured = epochs.map(fmt_s).join(" > ");
        claims.push(claim(format!("ladder monotone on {name}"), monotone, measured));
    }
    for (name, epochs) in ladder.iter().filter(|(name, _)| *name != "arxiv") {
        let speedup = epochs[0] / epochs[3];
        claims.push(claim(format!("{name} ends >= 3x faster than PyG"), speedup >= 3.0, fmt_x(speedup)));
    }
    claims
}

/// A count with a K / M / B suffix.
fn human(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.1}B", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.0}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Table 4 — summary of data sets: the paper's published OGB statistics
/// side by side with the synthetic stand-ins this repository materializes
/// at `scale` and trains on.
pub fn table4(scale: f64) -> (String, Vec<Claim>) {
    let mut out = String::new();
    let _ = writeln!(out, "Table 4: summary of data sets\n");
    let rows: Vec<Vec<String>> = DatasetStats::all()
        .into_iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                human(s.num_nodes),
                human(s.num_edges),
                s.feat_dim.to_string(),
                format!("{} / {} / {}", human(s.train_size), human(s.val_size), human(s.test_size)),
            ]
        })
        .collect();
    let _ = writeln!(out, "Paper scale (drives the event simulator):");
    let headers = ["Data Set", "#Nodes", "#Edges", "#Feat.", "Train / Val / Test"];
    let _ = writeln!(out, "{}", render_table(&headers, &rows));

    let _ = writeln!(out, "Synthetic sim scale {scale} (materialized; drives real training):");
    let configs =
        [DatasetConfig::arxiv_sim(scale), DatasetConfig::products_sim(scale), DatasetConfig::papers_sim(scale)];
    let rows: Vec<Vec<String>> = configs
        .iter()
        .map(|c| {
            let ds = c.build();
            let s = &ds.splits;
            vec![
                ds.name.clone(),
                human(ds.graph.num_nodes() as u64),
                human(ds.graph.num_edges() as u64),
                ds.features.dim().to_string(),
                format!("{} / {} / {}", s.train.len(), s.val.len(), s.test.len()),
                format!("{:.1}", ds.graph.avg_degree()),
                format!("{:.1} MB", ds.memory_bytes() as f64 / 1e6),
            ]
        })
        .collect();
    let headers = ["Data Set", "#Nodes", "#Edges", "#Feat.", "Train / Val / Test", "AvgDeg", "Memory"];
    let _ = writeln!(out, "{}", render_table(&headers, &rows));
    (out, Vec::new())
}

/// Table 5 — GNN hyperparameters used by the paper's experiments, and the
/// sim-scale defaults this repository trains with.
pub fn table5() -> (String, Vec<Claim>) {
    let rows: Vec<Vec<String>> = [
        ["arxiv", "SAGE", "3", "256", "(15, 10, 5)", "1024"],
        ["products", "SAGE", "3", "256", "(15, 10, 5)", "1024"],
        ["papers", "SAGE", "3", "256", "(15, 10, 5)", "1024"],
        ["papers", "GAT", "3", "256", "(15, 10, 5)", "1024"],
        ["papers", "GIN", "3", "256", "(20, 20, 20)", "1024"],
        ["papers", "SAGE-RI", "3", "1024", "(12, 12, 12)", "1024"],
    ]
    .map(|r| r.map(String::from).to_vec())
    .to_vec();
    let d = RunConfig::default();
    let mut out = String::new();
    let _ = writeln!(out, "Table 5: GNN hyperparameters (paper scale)\n");
    let headers = ["Data Set", "GNN", "#Layers", "Hidden", "Fanout", "Batch"];
    let _ = writeln!(out, "{}", render_table(&headers, &rows));
    let _ = writeln!(out, "Sim-scale defaults used by this repository's real training runs:");
    let _ = writeln!(
        out,
        "  model SAGE, layers {}, hidden {}, train fanout {:?}, infer fanout {:?}, batch {}, lr {}, Adam",
        d.num_layers, d.hidden, d.train_fanouts, d.infer_fanouts, d.batch_size, d.learning_rate
    );
    (out, Vec::new())
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Table 6 — test accuracy under various neighborhood fanouts for
/// inference. A 3-layer GraphSAGE is trained for `epochs` with fanout
/// (15, 10, 5) on each synthetic dataset at `scale`, then the test set is
/// evaluated with full neighborhoods and with sampled fanouts (20,20,20) /
/// (10,10,10) / (5,5,5), over `reps` seeds. The paper's shape: accuracy
/// saturates by fanout 20.
pub fn table6(scale: f64, reps: usize, epochs: usize) -> (String, Vec<Claim>) {
    let fanout_sets: [&[usize]; 3] = [&[20, 20, 20], &[10, 10, 10], &[5, 5, 5]];
    let mut out = String::new();
    let _ = writeln!(out, "Table 6: test accuracy vs inference fanout (real training, scale {scale}, {reps} reps)\n");
    let mut rows = Vec::new();
    let mut claims = Vec::new();
    for mut cfg in [
        DatasetConfig::arxiv_sim(scale),
        DatasetConfig::products_sim(scale),
        DatasetConfig::papers_sim(scale.max(0.05)),
    ] {
        // The paper's OGB splits label only a sliver of products/papers;
        // at synthetic sim scale that leaves too few examples per class to
        // train at all, so the accuracy experiments use dense labels
        // (50/10/40). The quantity under study — accuracy vs inference
        // fanout — is unaffected by the split sizes.
        cfg.split_fracs = (0.5, 0.1, 0.4);
        let ds = Arc::new(cfg.build());
        let mut acc_full = Vec::new();
        let mut acc_sampled = vec![Vec::new(); fanout_sets.len()];
        for rep in 0..reps {
            let run = RunConfig {
                epochs,
                seed: 1000 + rep as u64,
                batch_size: 128,
                learning_rate: 5e-3,
                hidden: 64,
                num_layers: 3,
                train_fanouts: vec![15, 10, 5],
                infer_fanouts: vec![20, 20, 20],
                ..RunConfig::default()
            };
            let mut trainer = Trainer::new(Arc::clone(&ds), run);
            trainer.fit();
            let test = ds.splits.test.clone();
            acc_full.push(trainer.evaluate_full(&test).0);
            for (accs, fanouts) in acc_sampled.iter_mut().zip(fanout_sets) {
                accs.push(trainer.evaluate_sampled(&test, fanouts).0);
            }
        }
        let cell = |accs: &[f64]| {
            let (m, s) = mean_std(accs);
            format!(".{:04.0}±.{:03.0}", m * 1e4, s * 1e3)
        };
        let mut row = vec![ds.name.clone(), cell(&acc_full)];
        row.extend(acc_sampled.iter().map(|accs| cell(accs)));
        rows.push(row);
        let gap = mean_std(&acc_full).0 - mean_std(&acc_sampled[0]).0;
        let name = format!("(20, 20, 20) within 1 pp of full neighborhoods on {}", ds.name);
        claims.push(claim(name, gap.abs() <= 0.01, format!("{:+.2} pp", gap * 100.0)));
    }
    let headers = ["Data Set", "fanout: all", "(20, 20, 20)", "(10, 10, 10)", "(5, 5, 5)"];
    let _ = writeln!(out, "{}", render_table(&headers, &rows));
    let _ = writeln!(out, "Paper (real OGB data): arxiv .6980→.7002 by fanout 20; products .7749→.7755;");
    let _ = writeln!(out, "papers .6379→.6469 — i.e. fanout 20 matches full neighborhoods. The synthetic");
    let _ = writeln!(out, "planted-label task reproduces the *saturation shape*, not the absolute numbers.");
    (out, claims)
}

/// Table 7 — representative GNN training systems and their reported
/// performance on the largest graph each reported, with this
/// reproduction's simulated SALIENT row computed live.
pub fn table7() -> (String, Vec<Claim>) {
    let mut rows: Vec<Vec<String>> = [
        ["NeuGraph", "TensorFlow", "full-batch", "GCN L=2", "1x(28 cores, 8 P100)", "amazon 8.6M/232M", "0.655", "N/A"],
        ["Roc", "FlexFlow/Lux", "full-batch", "GCN", "4x(20 cores, 4 P100)", "amazon 9.4M/232M", "0.526", "N/A"],
        ["DistDGL", "PyTorch+DGL", "mini-batch 2000", "SAGE L=3 h=256", "16 EC2 x 96 vCPU", "papers100M", "13", "N/A"],
        ["DeepGalois", "Galois", "full-batch", "SAGE L=2 h=16", "32x48 cores", "papers100M", "70", "N/A"],
        ["Zero-Copy", "PyTorch+DGL", "mini-batch", "SAGE", "1x(24 cores, 2 RTX3090)", "papers100M", "648", "N/A"],
        ["GNS", "PyTorch+DGL", "mini-batch 1000", "SAGE L=3 h=256", "1 EC2, 1 T4", "papers100M", "98.5", "63.31"],
    ]
    .map(|r| r.map(String::from).to_vec())
    .to_vec();

    let model = CostModel::paper_hardware();
    let base = EpochConfig::paper_default(DatasetStats::papers(), OptLevel::Pipelined);
    let train_s =
        simulate_multi_gpu(&MultiGpuConfig { base: base.clone(), ranks: 16, gpus_per_machine: 2 }, &model)
            .epoch_s;
    // Inference with fanout (20,20,20) over the test set on 16 GPUs.
    let infer_cfg = EpochConfig { fanouts: vec![20, 20, 20], ..base };
    let infer_s = simulate_inference_epoch(&infer_cfg, &model, DatasetStats::papers().test_size, 16);

    let speed = format!("train {} / infer {}", fmt_s(train_s), fmt_s(infer_s));
    rows.push(
        [
            "SALIENT (this repro, simulated)",
            "Rust",
            "mini-batch 1024",
            "SAGE L=3 h=256",
            "8x(2x20 cores, 2 V100)",
            "papers100M",
            speed.as_str(),
            "64.58 (paper)",
        ]
        .map(String::from)
        .to_vec(),
    );
    let headers =
        ["System", "Framework", "Batching", "GNN", "Machines", "Data Set", "Speed (s/epoch)", "Acc. (%)"];
    let mut out = String::new();
    let _ = writeln!(out, "Table 7: representative GNN training systems (reported numbers from the paper)\n");
    let _ = writeln!(out, "{}", render_table(&headers, &rows));
    let _ = writeln!(out, "Paper's SALIENT row: train 2.0 s/epoch, inference 2.4 s on the test set, acc 64.58±0.40.");
    (out, table7_claims(train_s, infer_s))
}

/// The simulated SALIENT row lands near the paper's.
fn table7_claims(train_s: f64, infer_s: f64) -> Vec<Claim> {
    vec![
        claim("16-GPU training within 10% of the paper's 2.0 s", near(train_s, 2.0, 0.10), fmt_s(train_s)),
        claim("16-GPU inference within 15% of the paper's 2.4 s", near(infer_s, 2.4, 0.15), fmt_s(infer_s)),
    ]
}

/// Figure 1 — mini-batch progress per training epoch: text timelines of
/// the standard PyTorch workflow and of SALIENT, rendered from the event
/// simulator's first 1.5 s. In the baseline lanes the main thread
/// serializes Slice → Transfer while the GPU idles; in the SALIENT lanes
/// prep, transfer and train overlap and the GPU lane is dense.
pub fn fig1() -> (String, Vec<Claim>) {
    let model = CostModel::paper_hardware();
    // Few workers keeps the chart readable, as in the paper's illustration.
    let mk = |level| EpochConfig {
        cpu_workers: 4,
        ..EpochConfig::paper_default(DatasetStats::products(), level)
    };
    let (base_r, base_sim, base_ex) = simulate_epoch_detailed(&mk(OptLevel::PygBaseline), &model);
    let (sal_r, sal_sim, sal_ex) = simulate_epoch_detailed(&mk(OptLevel::Pipelined), &model);

    // The baseline's multiprocessing samplers take ~0.4 s per batch at 4
    // workers, so a wide window is needed to see its (sparse) GPU activity.
    let horizon = 1_500_000_000;
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1(a): standard PyTorch workflow (products, 4 CPU workers, first 1.5 s)");
    let _ = writeln!(out, "  S=sample (workers), S=slice (main), T=transfer (main), T=train (gpu)\n");
    let _ = writeln!(out, "{}", render_text(&base_sim, &base_ex, horizon, 100));
    let _ = writeln!(out, "  epoch {:.1}s, GPU utilization {:.0}%\n", base_r.epoch_s, base_r.gpu_util * 100.0);
    let _ = writeln!(out, "Figure 1(b): SALIENT (same workload)");
    let _ = writeln!(out, "  P=prep (workers, sample+slice fused), T=transfer (dma), T=train (gpu)\n");
    let _ = writeln!(out, "{}", render_text(&sal_sim, &sal_ex, horizon, 100));
    let _ = writeln!(out, "  epoch {:.1}s, GPU utilization {:.0}%", sal_r.epoch_s, sal_r.gpu_util * 100.0);
    let _ = writeln!(out, "\nPaper: SALIENT 'almost eliminates GPU idle time' — the gpu lane fills up.");
    (out, fig1_claims(base_r.gpu_util, sal_r.gpu_util))
}

/// SALIENT keeps the GPU busier than the baseline does.
fn fig1_claims(base_util: f64, salient_util: f64) -> Vec<Claim> {
    let measured = format!("{} against {}", fmt_pct(salient_util * 100.0), fmt_pct(base_util * 100.0));
    vec![claim("SALIENT GPU utilization above the baseline's", salient_util > base_util, measured)]
}

/// Figure 2 — exhaustive exploration of sampler optimization parameters:
/// all 144 design-space variants timed on the wall clock on the same
/// batches of products-sim at `scale` (256 seeds, fanouts 15,10,5, the
/// benchmark's shape), as speedup over the PyG-baseline configuration.
/// Each variant runs `reps` passes a round for `rounds` rounds with the
/// variants interleaved, after one warm-up round, and keeps its fastest
/// round: on a shared box a neighbour's burst then costs every variant a
/// round, not one variant its rank. The paper's shape: a flat id map ≈ 2×
/// over STL-style hashing, the array set a further ~17 %, and the SALIENT
/// point at or near the top.
pub fn fig2(scale: f64, reps: usize, rounds: usize) -> (String, Vec<Claim>) {
    let ds = DatasetConfig::products_sim(scale).build();
    let fanouts = [15usize, 10, 5];
    let batches: Vec<Vec<u32>> = ds.splits.train.chunks(256).take(4).map(|c| c.to_vec()).collect();
    let mut samplers: Vec<VariantSampler> =
        VariantConfig::all().into_iter().map(|cfg| VariantSampler::new(cfg, 99)).collect();
    // A timed pass is a span whose batch field is the variant's index.
    let trace = Trace::new(Clock::monotonic());
    for round in 0..=rounds {
        for (i, sampler) in samplers.iter_mut().enumerate() {
            let _span = (round > 0).then(|| trace.span_batch(names::spans::BENCH_SAMPLE_VARIANT, i as u64));
            for _ in 0..reps {
                for b in &batches {
                    std::hint::black_box(sampler.sample(&ds.graph, b, &fanouts).num_edges());
                }
            }
        }
    }
    let snap = trace.snapshot();
    let best = |i: usize| {
        let passes = snap.spans(names::spans::BENCH_SAMPLE_VARIANT).filter(|e| e.batch == i as u64);
        passes.map(|e| e.dur_ns()).min().map_or(f64::NAN, |ns| ns as f64)
    };
    let configs: Vec<VariantConfig> = samplers.iter().map(VariantSampler::config).collect();
    let baseline_t = configs.iter().position(|&c| c == VariantConfig::pyg_baseline()).map_or(f64::NAN, best);
    let mut results: Vec<(VariantConfig, f64)> =
        configs.iter().enumerate().map(|(i, &cfg)| (cfg, baseline_t / best(i))).collect();
    results.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: sampler design-space exploration ({} variants, products-sim scale {scale}, {} batches of 256 x {reps} reps, fastest of {rounds} rounds)\n",
        results.len(),
        batches.len()
    );
    let max = results.first().map_or(1.0, |r| r.1);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(cfg, speedup)| {
            let marker = if *cfg == VariantConfig::salient() {
                " <= SALIENT"
            } else if *cfg == VariantConfig::pyg_baseline() {
                " <= PyG baseline"
            } else {
                ""
            };
            vec![cfg.label(), fmt_x(*speedup), format!("{}{}", bar(*speedup, max, 32), marker)]
        })
        .collect();
    let _ = writeln!(out, "{}", render_table(&["variant (map/set/fusion/alloc/algo)", "speedup", ""], &rows));

    // The headline effects, as mean speedups over the variants on each side.
    let mean = |pred: &dyn Fn(&VariantConfig) -> bool| -> f64 {
        let xs: Vec<f64> = results.iter().filter(|(c, _)| pred(c)).map(|(_, s)| *s).collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    let dense = mean(&|c| c.id_map == IdMapKind::Dense);
    let flat = mean(&|c| c.id_map == IdMapKind::Flat);
    let std_map = mean(&|c| c.id_map == IdMapKind::Std);
    let array = mean(&|c| c.neighbor_set == NeighborSetKind::Array);
    let flatset = mean(&|c| c.neighbor_set == NeighborSetKind::Flat);
    let bitmap = mean(&|c| c.neighbor_set == NeighborSetKind::Bitmap);
    let floyd = mean(&|c| c.algo == SampleAlgo::Floyd);
    let fy = mean(&|c| c.algo == SampleAlgo::PartialFisherYates);
    let rej = mean(&|c| c.algo == SampleAlgo::Rejection);
    for (label, a, b) in [
        ("flat map vs std map (mean speedup):", flat, std_map),
        ("dense map vs flat map (mean):", dense, flat),
        ("array set vs flat hash set (mean):", array, flatset),
        ("bitmap set vs array set (mean):", bitmap, array),
        ("floyd vs partial FY (mean):", floyd, fy),
        ("floyd vs rejection (mean):", floyd, rej),
    ] {
        let _ = writeln!(out, "{label:<40} {} vs {} => {}", fmt_x(a), fmt_x(b), fmt_x(a / b));
    }
    let _ = writeln!(out, "\nPaper: swiss-table map ~2x; array set a further ~17%; SALIENT sampler 2.5x end-to-end.");

    let rank = results.iter().position(|(c, _)| *c == VariantConfig::salient()).map_or(results.len(), |r| r + 1);
    let claims = vec![claim("the SALIENT point is in the top three", rank <= 3, format!("rank {rank}"))];
    (out, claims)
}

/// Figure 3 — test accuracy and node count versus node degree, for
/// full-neighborhood inference and sampled fanouts {5, 10, 20}, after
/// `epochs` of real training on products-sim at `scale`. The paper's
/// shape: most test nodes are low-degree, small fanouts already match
/// full-neighborhood accuracy on them, and a larger fanout closes the gap
/// on the rare high-degree nodes.
pub fn fig3(scale: f64, epochs: usize) -> (String, Vec<Claim>) {
    // Dense labels: training needs enough labels per class at sim scale.
    let mut cfg = DatasetConfig::products_sim(scale);
    cfg.split_fracs = (0.5, 0.1, 0.4);
    let ds = Arc::new(cfg.build());
    let run = RunConfig {
        epochs,
        batch_size: 128,
        learning_rate: 5e-3,
        hidden: 64,
        num_layers: 3,
        train_fanouts: vec![15, 10, 5],
        infer_fanouts: vec![20, 20, 20],
        seed: 7,
        ..RunConfig::default()
    };
    let mut trainer = Trainer::new(Arc::clone(&ds), run);
    trainer.fit();
    let test = ds.splits.test.clone();
    let targets: Vec<u32> = test.iter().map(|&v| ds.labels[v as usize]).collect();
    let buckets_of = |preds: &[u32]| accuracy_by_degree(&ds.graph, &test, preds, &targets);
    let buckets_all = buckets_of(&trainer.evaluate_full(&test).1);
    let per_fanout = [5usize, 10, 20].map(|d| buckets_of(&trainer.evaluate_sampled(&test, &[d, d, d]).1));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3: accuracy and node count vs degree (products-sim, scale {scale}, {} test nodes)\n",
        test.len()
    );
    let max_count = buckets_all.iter().map(|b| b.count).max().unwrap_or(1) as f64;
    let mut rows = Vec::new();
    for (i, b) in buckets_all.iter().enumerate().filter(|(_, b)| b.count > 0) {
        let mut row = vec![
            format!("[{}, {})", b.degree_lo, b.degree_hi),
            format!("{:5} {}", b.count, bar(b.count as f64, max_count, 16)),
            format!("{:.3}", b.accuracy),
        ];
        row.extend(per_fanout.iter().map(|bs| format!("{:.3}", bs[i].accuracy)));
        rows.push(row);
    }
    let headers = ["degree", "#nodes", "acc(all)", "acc(5)", "acc(10)", "acc(20)"];
    let _ = writeln!(out, "{}", render_table(&headers, &rows));
    let _ = writeln!(out, "\nPaper shape: node counts are heavily skewed to low degrees; fanout 5 already");
    let _ = writeln!(out, "matches 'all' on the left half; fanout 20 approximates the right half too.");
    (out, Vec::new())
}

/// Figure 4 — SALIENT over the standard PyG workflow on one GPU, simulated
/// at paper scale, plus a real wall-clock comparison of this repository's
/// two executors on arxiv-sim and products-sim at `scale`, read from the
/// trace of each one's second epoch. Fails if a trainer records no epoch.
pub fn fig4(scale: f64) -> Result<(String, Vec<Claim>), String> {
    let model = CostModel::paper_hardware();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 4: SALIENT vs PyG, one GPU (simulated at paper scale)\n");
    let mut entries = Vec::new();
    for (stats, ps) in DatasetStats::all().into_iter().zip([3.4, 3.1, 3.1]) {
        let epoch = |level| simulate_epoch(&EpochConfig::paper_default(stats.clone(), level), &model).epoch_s;
        entries.push((stats.name, epoch(OptLevel::PygBaseline), epoch(OptLevel::Pipelined), ps));
    }
    let max = entries.iter().fold(0.0f64, |m, e| m.max(e.1));
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|(name, base, salient, ps)| {
            vec![
                name.to_string(),
                format!("{} {}", fmt_s(*base), bar(*base, max, 24)),
                format!("{} {}", fmt_s(*salient), bar(*salient, max, 24)),
                fmt_x(base / salient),
                format!("~{ps}x"),
            ]
        })
        .collect();
    let headers = ["Data Set", "PyG epoch", "SALIENT epoch", "speedup", "paper"];
    let _ = writeln!(out, "{}", render_table(&headers, &rows));

    let _ = writeln!(out, "\nReal executor comparison on synthetic data (scale {scale}, single core):\n");
    let mut rows = Vec::new();
    for cfg in [DatasetConfig::arxiv_sim(scale), DatasetConfig::products_sim(scale)] {
        let ds = Arc::new(cfg.build());
        // Each executor trains under its own recorder, and the second
        // epoch's span window is analyzed into a stall-attribution report.
        let report_of = |executor: ExecutorKind| -> Result<PipelineReport, String> {
            let run = RunConfig {
                executor,
                epochs: 1,
                batch_size: 256,
                hidden: 64,
                num_layers: 3,
                train_fanouts: vec![15, 10, 5],
                infer_fanouts: vec![20, 20, 20],
                num_workers: 2,
                ..RunConfig::default()
            };
            let mut trainer = Trainer::with_trace(Arc::clone(&ds), run, Trace::new(Clock::monotonic()));
            trainer.train_epoch(); // warm-up epoch
            trainer.train_epoch();
            let snap = trainer.trace().snapshot();
            let (e0, e1) = snap
                .spans(names::spans::EPOCH)
                .map(|ev| (ev.start_ns, ev.end_ns))
                .max()
                .ok_or_else(|| format!("fig4: the {executor:?} trainer recorded no epoch span"))?;
            Ok(analyze(&snap.window(e0, e1)))
        };
        let base = report_of(ExecutorKind::Baseline)?;
        let sal = report_of(ExecutorKind::Salient)?;
        let s = |ns: u64| ns as f64 / 1e9;
        rows.push(vec![
            ds.name.clone(),
            fmt_s(s(base.window_ns)),
            fmt_s(s(sal.window_ns)),
            fmt_x(s(base.window_ns) / s(sal.window_ns)),
            format!("prep {} -> {}", fmt_s(s(base.prep_ns)), fmt_s(s(sal.prep_ns))),
            format!("{:.0}%", sal.overlap_frac() * 100.0),
        ]);
    }
    let headers = ["Data Set", "Baseline", "SALIENT", "speedup", "prep blocking", "overlap"];
    let _ = writeln!(out, "{}", render_table(&headers, &rows));
    Ok((out, Vec::new()))
}

/// Figure 5 — epoch time when scaling to 1–16 GPUs with proportionally
/// scaled batch size (SAGE, Table-5 configuration), simulated at paper
/// scale. The paper's shape: larger graphs scale better; at 16 GPUs the
/// speedups range 4.45×–8.05× and papers reaches 2.0 s an epoch.
pub fn fig5() -> (String, Vec<Claim>) {
    let model = CostModel::paper_hardware();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 5: multi-GPU scaling (simulated; batch 1024 per GPU, SAGE (15,10,5))\n");
    let mut at16 = Vec::new();
    for stats in DatasetStats::all() {
        let base_cfg = EpochConfig::paper_default(stats.clone(), OptLevel::Pipelined);
        let sweep = scaling_sweep(&base_cfg, &[1, 2, 4, 8, 16], &model);
        let t1 = sweep[0].1;
        let rows: Vec<Vec<String>> = sweep
            .iter()
            .map(|(r, t)| vec![format!("{r} GPU"), fmt_s(*t), fmt_x(t1 / t), bar(*t, t1, 40)])
            .collect();
        let _ = writeln!(out, "{}:", stats.name);
        let _ = writeln!(out, "{}", render_table(&["GPUs", "epoch", "speedup", ""], &rows));
        let t16 = sweep[4].1;
        at16.push((stats.name, t1 / t16, t16));
    }
    let _ = writeln!(out, "Paper: 16-GPU speedups 4.45x (arxiv) .. 8.05x (papers); papers reaches 2.0 s/epoch.");
    (out, fig5_claims(&at16))
}

/// `at16`: each dataset's 16-GPU speedup and epoch seconds, smallest graph
/// first. The speedup grows with graph size, and papers lands near the
/// paper's 2.0 s.
fn fig5_claims(at16: &[(&str, f64, f64)]) -> Vec<Claim> {
    let grows = at16.windows(2).all(|w| w[1].1 > w[0].1);
    let speedups: Vec<String> = at16.iter().map(|d| fmt_x(d.1)).collect();
    let mut claims = vec![claim("16-GPU speedup grows with graph size", grows, speedups.join(" < "))];
    if let Some(&(_, _, papers_s)) = at16.iter().find(|d| d.0 == "papers") {
        let name = "papers at 16 GPUs within 10% of the paper's 2.0 s";
        claims.push(claim(name, near(papers_s, 2.0, 0.10), fmt_s(papers_s)));
    }
    claims
}

/// Figure 6 — per-epoch training time on 16 GPUs (simulated at paper
/// scale) and test accuracy after `epochs` of real training on papers-sim
/// at `scale`, for SAGE, GAT, GIN and SAGE-RI with their Table-5
/// hyperparameters. The paper's shape: SAGE fastest and SAGE-RI slowest;
/// SALIENT's speedup over PyG largest for SAGE (~2.3×) and smallest (but
/// >1.4×) for the compute-dense models; SAGE-RI the most accurate. Fails
/// if a run trains no epoch.
pub fn fig6(scale: f64, epochs: usize) -> Result<(String, Vec<Claim>), String> {
    // (architecture, model, paper hidden, fanouts, hidden trained here)
    let archs = [
        (GnnArch::Sage, ModelKind::Sage, 256, vec![15, 10, 5], 64),
        (GnnArch::Gat, ModelKind::Gat, 256, vec![15, 10, 5], 64),
        (GnnArch::Gin, ModelKind::Gin, 256, vec![20, 20, 20], 64),
        (GnnArch::SageRi, ModelKind::SageRi, 1024, vec![12, 12, 12], 96),
    ];
    let model = CostModel::paper_hardware();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 6 (time): papers100M per-epoch training time on 16 GPUs (simulated)\n");
    let mut rows = Vec::new();
    for (arch, _, hidden, fanouts, _) in &archs {
        let base = EpochConfig {
            arch: *arch,
            hidden: *hidden,
            fanouts: fanouts.clone(),
            ..EpochConfig::paper_default(DatasetStats::papers(), OptLevel::Pipelined)
        };
        let at16 = |level| {
            let base = EpochConfig { level, ..base.clone() };
            simulate_multi_gpu(&MultiGpuConfig { base, ranks: 16, gpus_per_machine: 2 }, &model).epoch_s
        };
        let (salient, pyg) = (at16(OptLevel::Pipelined), at16(OptLevel::PygBaseline));
        rows.push(vec![
            arch.name().to_string(),
            format!("{fanouts:?}"),
            hidden.to_string(),
            fmt_s(salient),
            fmt_s(pyg),
            fmt_x(pyg / salient),
        ]);
    }
    let headers = ["GNN", "Fanout", "Hidden", "SALIENT", "PyG", "speedup"];
    let _ = writeln!(out, "{}", render_table(&headers, &rows));
    let _ = writeln!(out, "Paper: SAGE ~2.0s with ~2.3x speedup; GAT/SAGE-RI smallest speedup but >1.4x.\n");

    let _ = writeln!(out, "Figure 6 (accuracy): real training on papers-sim (scale {scale}, {epochs} epochs)\n");
    // Dense labels so 172-way classification is trainable at sim scale.
    let mut ds_cfg = DatasetConfig::papers_sim(scale);
    ds_cfg.split_fracs = (0.5, 0.1, 0.4);
    let ds = Arc::new(ds_cfg.build());
    let mut rows = Vec::new();
    for (arch, kind, _, fanouts, hidden) in &archs {
        let run = RunConfig {
            model: *kind,
            hidden: *hidden,
            num_layers: 3,
            train_fanouts: fanouts.clone(),
            infer_fanouts: vec![20, 20, 20],
            batch_size: 128,
            learning_rate: 5e-3,
            epochs,
            seed: 11,
            ..RunConfig::default()
        };
        let mut trainer = Trainer::new(Arc::clone(&ds), run);
        let history = trainer.fit();
        let (acc, _) = trainer.evaluate_sampled(&ds.splits.test.clone(), &[20, 20, 20]);
        // The run's wall time is the extent of what its trace recorded.
        let trained = history.last().zip(trainer.trace().snapshot().extent());
        let (last, (t0, t1)) = trained.ok_or_else(|| format!("fig6: {} trained no epoch", arch.name()))?;
        rows.push(vec![
            arch.name().to_string(),
            format!("{acc:.4}"),
            format!("{:.3}", last.mean_loss),
            fmt_s((t1 - t0) as f64 / 1e9),
        ]);
    }
    let _ = writeln!(out, "{}", render_table(&["GNN", "test acc", "final loss", "wall"], &rows));
    let _ = writeln!(out, "Paper accuracies (real papers100M): SAGE 64.6, GAT ~65, GIN ~61, SAGE-RI ~66.1.");
    Ok((out, Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failing(claims: Vec<Claim>) -> Vec<String> {
        claims.into_iter().filter(|c| !c.holds).map(|c| c.name).collect()
    }

    #[test]
    fn each_claim_set_holds_on_the_committed_numbers_and_fails_on_a_perturbed_one() {
        // Table 1: prep + transfer shares of results/table1.txt, then arxiv's
        // transfer halved.
        let epoch = |prep_s, transfer_s| EpochReport { epoch_s: 1.0, prep_s, transfer_s, ..EpochReport::default() };
        let shares = [("arxiv", epoch(0.38, 0.27)), ("products", epoch(0.44, 0.29))];
        assert!(failing(table1_claims(&shares)).is_empty());
        let shares = [("arxiv", epoch(0.38, 0.13)), ("products", epoch(0.44, 0.29))];
        assert_eq!(failing(table1_claims(&shares)), ["prep + transfer > 60% of the baseline epoch on arxiv"]);

        // Table 3: the committed ladder, then two rungs swapped on papers.
        let ladder = [
            ("arxiv", [2.34, 2.18, 1.57, 0.94]),
            ("products", [10.4, 9.07, 6.13, 3.11]),
            ("papers", [61.6, 60.8, 40.6, 18.6]),
        ];
        assert!(failing(table3_claims(&ladder)).is_empty());
        let mut swapped = ladder;
        swapped[2].1.swap(1, 2);
        assert_eq!(failing(table3_claims(&swapped)), ["ladder monotone on papers"]);
        let mut short = ladder;
        short[1].1[3] = 3.6;
        assert_eq!(failing(table3_claims(&short)), ["products ends >= 3x faster than PyG"]);

        // Figure 1: 26 % against 13 %, then the two swapped.
        assert!(failing(fig1_claims(0.13, 0.26)).is_empty());
        assert_eq!(failing(fig1_claims(0.26, 0.13)), ["SALIENT GPU utilization above the baseline's"]);

        // Figure 5: 4.53 < 5.51 < 9.86 and 1.88 s, then products above
        // papers, then papers at 2.3 s.
        let at16 = [("arxiv", 4.53, 0.21), ("products", 5.51, 0.56), ("papers", 9.86, 1.88)];
        assert!(failing(fig5_claims(&at16)).is_empty());
        let mut flat = at16;
        flat[1].1 = 10.0;
        assert_eq!(failing(fig5_claims(&flat)), ["16-GPU speedup grows with graph size"]);
        let mut slow = at16;
        slow[2].2 = 2.3;
        assert_eq!(failing(fig5_claims(&slow)), ["papers at 16 GPUs within 10% of the paper's 2.0 s"]);

        // Table 7: 1.88 s and 2.69 s, then each pushed out of its band.
        assert!(failing(table7_claims(1.88, 2.69)).is_empty());
        assert_eq!(failing(table7_claims(2.3, 2.69)), ["16-GPU training within 10% of the paper's 2.0 s"]);
        assert_eq!(failing(table7_claims(1.88, 2.8)), ["16-GPU inference within 15% of the paper's 2.4 s"]);
    }
}
