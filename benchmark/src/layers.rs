//! The traced run: per-layer metrics, each crate measured from outside.
//!
//! Three parts, all on the workload's own batch shape:
//!
//! 1. whole passes of the workload, alternating the program's tracing off
//!    and on — the per-batch end-to-end time, and what tracing costs;
//! 2. a serial replay of the workload's batches that calls each layer's
//!    entry point in turn under the benchmark's own spans;
//! 3. fixed probes of single calls and of the machine's ceilings.
//!
//! Parts 1 and 2 run in rounds — an untraced pass, a traced pass, a few
//! replayed batches — so that a slow spell of the host falls on all three
//! and the reconciliation compares like with like.
//!
//! Steps the workload does not run itself (a backward pass on
//! `infer_sweep`, say) are still timed at its batch shape, but stay out of
//! the time shares and of the reconciliation with the end-to-end time.

use crate::host::{cpu_seconds, now_ns, secs};
use crate::spans::SpanList;
use crate::stats::{least, median, quantile, range_share};
use crate::workloads::{self, closed_loop, stream_epoch, Recipe, Step, Workload};
use salient_repro::batchprep::{slice_batch, PinnedPool, PrepConfig};
use salient_repro::graph::{Dataset, FeatureSlab, NodeId};
use salient_repro::nn::{build_model, metrics, GnnModel, Mode, ModelKind};
use salient_repro::pipeline::{GraphSpec, PipeItem, StageGraph, StageOutcome, StageSpec};
use salient_repro::sampler::{FastSampler, MessageFlowGraph};
use salient_repro::serve::ServerCore;
use salient_repro::tensor::optim::{zero_grads, Adam, Optimizer};
use salient_repro::tensor::rng::StdRng;
use salient_repro::tensor::{gemm, Tape, Tensor};
use salient_repro::trace::{names, Clock, Trace};
use std::hint::black_box;
use std::sync::Arc;

/// Span names of the replay: `<crate>.<entry point>`.
const SAMPLE: &str = "sampler.sample";
const SLICE: &str = "batchprep.slice_batch";
const SLICE_INTO: &str = "graph.slice_into";
const WIDEN: &str = "graph.widen_into";
const FWD_TRAIN: &str = "nn.forward_train";
const FWD_EVAL: &str = "nn.forward_eval";
const BACKWARD: &str = "tensor.backward";
const OPTIM: &str = "tensor.optim_step";

/// The span of a replay step, and the time-share metric of the crate the
/// step is charged to.
fn span_and_share(step: Step) -> (&'static str, &'static str) {
    match step {
        Step::Sample => (SAMPLE, "sampler.time_share"),
        Step::Slice => (SLICE, "batchprep.time_share"),
        Step::Widen => (WIDEN, "graph.time_share"),
        Step::ForwardTrain => (FWD_TRAIN, "nn.time_share"),
        Step::ForwardEval => (FWD_EVAL, "nn.time_share"),
        Step::Backward => (BACKWARD, "tensor.time_share"),
        Step::Optim => (OPTIM, "tensor.time_share"),
    }
}

/// What a run measured, traced or not.
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    /// The benchmark's span list, of a traced run.
    pub spans: Option<SpanList>,
    pub failures: Vec<String>,
    pub detail: Vec<(&'static str, crate::json::J, &'static str)>,
    /// Operations of the timed (untraced) passes.
    pub attempted: usize,
    pub failed: usize,
}

pub fn trace_run(
    name: &str,
    ds: &Arc<Dataset>,
    seed: u64,
    seconds: f64,
    w: &mut dyn Workload,
    build_s: f64,
) -> Report {
    let mut m: Vec<(&'static str, f64)> = vec![("graph.build_s", build_s)];
    let mut spans = SpanList::default();
    let recipe = w.recipe();

    // 1 and 2, in rounds.
    let mut traced = workloads::build(name, Arc::clone(ds), seed, Trace::new(Clock::monotonic()));
    let mut replay = Replay::new(ds, seed, &recipe);
    w.pass();
    let (mut off_s, mut on_s, mut batch_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut user, mut sys) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0, 0);
    let t0 = now_ns();
    while off_s.len() < 2 || secs(t0, now_ns()) < 0.7 * seconds {
        let (u0, s0) = cpu_seconds();
        let start = now_ns();
        let p = spans.time("core.pass", off_s.len() as u64, |_| w.pass());
        let dt = secs(start, now_ns());
        let (u1, s1) = cpu_seconds();
        user += u1 - u0;
        sys += s1 - s0;
        off_s.push(dt);
        batch_s.push(dt / p.batches.max(1) as f64);
        attempted += p.attempted;
        failed += p.failed;
        let start = now_ns();
        traced.pass();
        on_s.push(secs(start, now_ns()));
        replay.batches(&mut spans, 0.5 * dt);
    }
    let wall: f64 = off_s.iter().sum();
    m.push(("core.pass_s_p50", median(&off_s)));
    m.push(("core.pass_s_spread", range_share(&off_s)));
    m.push((
        "trace.enabled_overhead_pct",
        100.0 * (least(&on_s) / least(&off_s) - 1.0),
    ));
    m.push(("proc.cpu_user_s", user));
    m.push(("proc.cpu_sys_s", sys));
    m.push(("proc.cpu_per_wall", (user + sys) / wall));
    m.extend(replay.metrics(&spans));

    // Shares and reconciliation use quiet-host estimates on both sides: the
    // fastest pass, and the lower quartile of each step (batches differ a
    // little in size, so the very fastest would favour the smallest).
    let quiet_ms = |step: Step| quantile(&spans.durations_ms(span_and_share(step).0), 0.25);
    let on_path_ms = recipe.on_path.iter().fold(0.0, |ms, &s| ms + quiet_ms(s));
    for share in [
        "sampler.time_share",
        "batchprep.time_share",
        "graph.time_share",
        "nn.time_share",
        "tensor.time_share",
    ] {
        let steps = recipe
            .on_path
            .iter()
            .filter(|&&s| span_and_share(s).1 == share);
        m.push((
            share,
            steps.fold(0.0, |ms, &s| ms + quiet_ms(s)) / on_path_ms,
        ));
    }
    let e2e_ms = 1e3 * least(&batch_s);
    m.push(("pipeline.overlap_gain", on_path_ms / e2e_ms));
    m.push(("core.reconcile_pct", 100.0 * (on_path_ms - e2e_ms) / e2e_ms));

    // 3. Fixed probes.
    let p50 = |name: &str| median(&spans.durations_ms(name));
    let ceiling = gemm_gflops(1024, 256, 256);
    m.push(("tensor.gemm_gflops_ceiling", ceiling));
    m.push((
        "tensor.gemm_gflops",
        gemm_gflops(replay.layer0_rows, ds.features.dim(), recipe.hidden),
    ));
    let on_path_fwd = if recipe.on_path.contains(&Step::ForwardTrain) {
        FWD_TRAIN
    } else {
        FWD_EVAL
    };
    let fwd_gflops = replay.forward_flops / (p50(on_path_fwd) * 1e6);
    m.push(("nn.forward_gflops", fwd_gflops));
    m.push(("nn.forward_frac_of_ceiling", fwd_gflops / ceiling));
    m.push((
        "tensor.scatter_mean_medges_per_s",
        scatter_mean_medges_per_s(ds, &mut replay.sampler, &recipe),
    ));
    m.push(("host.stream_copy_gbps", stream_copy_gbps()));
    m.push(("pipeline.item_overhead_us", pipeline_item_overhead_us()));
    m.push((
        "batchprep.slot_cycle_us_p50",
        slot_cycle_us(ds, replay.mfg_nodes),
    ));
    // About 0.4 s of preparation for one worker, whatever the batch costs.
    let batches = (400.0 / (p50(SAMPLE) + p50(SLICE))).clamp(8.0, 2048.0) as usize;
    let (one, failed_1) = stream_batches_per_s(ds, seed, &recipe, 1, batches);
    let (two, failed_2) = stream_batches_per_s(ds, seed, &recipe, 2, batches);
    m.push(("batchprep.stream_batches_per_s", two));
    m.push(("batchprep.worker_scaling", two / one));
    m.push(("batchprep.failed_batches", (failed_1 + failed_2) as f64));
    m.extend(serve_probe(ds, seed));

    let mut failures = traced.failures();
    if failed_1 + failed_2 > 0 {
        failures.push(format!(
            "{} batches failed in the preparation stream probe",
            failed_1 + failed_2
        ));
    }
    Report {
        metrics: m,
        spans: Some(spans),
        failures,
        detail: traced.detail(),
        attempted,
        failed,
    }
}

/// Two GEMMs (self and neighbour) per SAGE layer, `2*m*k*n` FLOPs each.
fn sage_forward_flops(mfg: &MessageFlowGraph, in_dim: usize, hidden: usize, classes: usize) -> f64 {
    let last = mfg.layers.len() - 1;
    mfg.layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let k = if i == 0 { in_dim } else { hidden };
            let n = if i == last { classes } else { hidden };
            2.0 * 2.0 * (l.n_dst * k * n) as f64
        })
        .sum()
}

/// A model with its optimizer, stepped the way `Trainer` and
/// `BatchInferencer` step theirs.
struct Learner {
    model: Box<dyn GnnModel>,
    opt: Adam,
    rng: StdRng,
}

/// A sampled batch with its features widened, ready for the model.
struct Staged<'a> {
    bid: u64,
    mfg: &'a MessageFlowGraph,
    wide: &'a Tensor,
    targets: Vec<usize>,
}

impl Learner {
    /// Forward in `Mode::Train` with the loss, backward, optimizer step.
    fn train_steps(&mut self, spans: &mut SpanList, b: &Staged, record: bool) {
        let tape = Tape::new();
        let loss = spans.time_if(record, FWD_TRAIN, b.bid, |_| {
            let x = tape.constant(b.wide.clone());
            let loss = self
                .model
                .forward(&tape, x, b.mfg, Mode::Train, &mut self.rng)
                .nll_loss(&b.targets);
            black_box(loss.value().item());
            loss
        });
        let grads = spans.time_if(record, BACKWARD, b.bid, |_| tape.backward(&loss));
        spans.time_if(record, OPTIM, b.bid, |_| {
            zero_grads(self.model.params_mut().into_iter());
            grads.apply_to(self.model.params_mut());
            self.opt.step(self.model.params_mut().into_iter());
        });
    }

    /// Forward in `Mode::Eval` and the argmax over its rows.
    fn eval_step(&mut self, spans: &mut SpanList, b: &Staged, record: bool) {
        spans.time_if(record, FWD_EVAL, b.bid, |_| {
            let tape = Tape::new();
            let x = tape.constant(b.wide.clone());
            let out = self
                .model
                .forward(&tape, x, b.mfg, Mode::Eval, &mut self.rng);
            black_box(metrics::argmax_rows(&out.value()));
        });
    }
}

/// The serial replay: calls every layer entry point on the workload's
/// batches, one after the other on this thread, each under a span whose
/// parent is the batch's span.
struct Replay<'a> {
    ds: &'a Arc<Dataset>,
    recipe: &'a Recipe,
    sampler: FastSampler,
    learner: Learner,
    pool: PinnedPool,
    slab: FeatureSlab,
    labels: Vec<u32>,
    next_batch: usize,
    nodes: usize,
    edges: usize,
    seeds: usize,
    packed_bytes: usize,
    wide_bytes: usize,
    /// Destination rows of the first hop (the M of the layer-0 GEMM).
    layer0_rows: usize,
    /// Sampled nodes of the first batch.
    mfg_nodes: usize,
    /// Dense FLOPs of one forward pass, computed from the MFG shapes.
    forward_flops: f64,
}

impl<'a> Replay<'a> {
    fn new(ds: &'a Arc<Dataset>, seed: u64, recipe: &'a Recipe) -> Self {
        let dim = ds.features.dim();
        let layers = recipe.fanouts.len();
        Replay {
            ds,
            recipe,
            sampler: FastSampler::new(seed ^ 0x1FE2),
            learner: Learner {
                model: build_model(
                    ModelKind::Sage,
                    dim,
                    recipe.hidden,
                    ds.num_classes,
                    layers,
                    seed,
                ),
                opt: Adam::new(3e-3),
                rng: StdRng::seed_from_u64(seed ^ 0x7AA7),
            },
            pool: PinnedPool::new(
                1,
                recipe.batch_size * 256,
                dim,
                recipe.batch_size,
                ds.features.dtype(),
            ),
            slab: FeatureSlab::new(ds.features.dtype(), 0),
            labels: vec![0u32; recipe.batch_size],
            next_batch: 0,
            nodes: 0,
            edges: 0,
            seeds: 0,
            packed_bytes: 0,
            wide_bytes: 0,
            layer0_rows: 0,
            mfg_nodes: 0,
            forward_flops: 0.0,
        }
    }

    /// Replays the workload's own steps for about `budget_s` (at least one
    /// batch), then one batch of the steps it never runs.
    fn batches(&mut self, spans: &mut SpanList, budget_s: f64) {
        let t0 = now_ns();
        loop {
            self.batch(spans, false);
            if secs(t0, now_ns()) > budget_s {
                break;
            }
        }
        self.batch(spans, true);
    }

    /// One batch. A plain batch runs and records the workload's own steps,
    /// in the program's order and with its buffer lifetimes. A `foreign`
    /// batch runs every step but records only those the workload never
    /// runs: its own steps there follow foreign ones that emptied the
    /// caches, which on `G10k` makes them a quarter slower than in the
    /// program.
    fn batch(&mut self, spans: &mut SpanList, foreign: bool) {
        let (ds, r) = (self.ds, self.recipe);
        let dim = ds.features.dim();
        let per_stream = r.stream.len() / r.batch_size;
        let chunk = &r.stream[(self.next_batch % per_stream) * r.batch_size..][..r.batch_size];
        let bid = self.next_batch as u64;
        self.next_batch += 1;
        let own = |step: Step| r.on_path.contains(&step);
        let runs = |step: Step| own(step) || foreign;
        let records = |step: Step| own(step) != foreign;
        spans.time("replay.batch", bid, |spans| {
            let mfg = spans.time_if(records(Step::Sample), SAMPLE, bid, |_| {
                self.sampler.sample(&ds.graph, chunk, &r.fanouts)
            });
            let n = mfg.num_nodes();
            let mut slot = self.pool.acquire();
            spans.time_if(records(Step::Slice), SLICE, bid, |_| {
                slot.prepare(n, dim, mfg.batch_size());
                // A slot lends one buffer at a time, so labels go through `labels`.
                slice_batch(ds, &mfg, slot.features_mut(), &mut self.labels);
                slot.labels_mut().copy_from_slice(&self.labels);
            });
            if records(Step::Sample) {
                self.nodes += n;
                self.edges += mfg.num_edges();
                self.seeds += mfg.batch_size();
            }
            if bid == 0 {
                self.layer0_rows = mfg.layers[0].n_dst;
                self.mfg_nodes = n;
                self.forward_flops = sage_forward_flops(&mfg, dim, r.hidden, ds.num_classes);
            }
            if !runs(Step::Widen) {
                return;
            }
            // As the transfer stage does it: a fresh f32 buffer per batch.
            let wide = spans.time_if(records(Step::Widen), WIDEN, bid, |_| {
                let mut wide = vec![0.0f32; n * dim];
                slot.features().widen_into(&mut wide);
                Tensor::from_vec(wide, [n, dim])
            });
            if records(Step::Widen) {
                self.wide_bytes += n * dim * 4;
            }
            let staged = Staged {
                bid,
                mfg: &mfg,
                wide: &wide,
                targets: chunk
                    .iter()
                    .map(|&v| ds.labels[v as usize] as usize)
                    .collect(),
            };
            let learner = &mut self.learner;
            if own(Step::ForwardTrain) {
                learner.train_steps(spans, &staged, !foreign);
            }
            if runs(Step::ForwardEval) {
                learner.eval_step(spans, &staged, records(Step::ForwardEval));
            }
            if foreign && !own(Step::ForwardTrain) {
                learner.train_steps(spans, &staged, true);
            }
            if foreign {
                // Off the path of every workload: the graph crate's slice alone.
                self.slab.resize(n * dim);
                spans.time(SLICE_INTO, bid, |_| {
                    ds.features.slice_into(&mfg.node_ids, self.slab.rows_mut())
                });
                self.packed_bytes += self.slab.bytes();
            }
        });
    }

    fn metrics(&self, spans: &SpanList) -> Vec<(&'static str, f64)> {
        let total_s = |name: &str| spans.durations_ms(name).iter().sum::<f64>() / 1e3;
        let p = |name: &str, q: f64| quantile(&spans.durations_ms(name), q);
        vec![
            ("sampler.sample_ms_p50", p(SAMPLE, 0.5)),
            ("sampler.sample_ms_p90", p(SAMPLE, 0.9)),
            ("sampler.edges_per_s", self.edges as f64 / total_s(SAMPLE)),
            (
                "sampler.mfg_nodes_per_seed",
                self.nodes as f64 / self.seeds as f64,
            ),
            (
                "sampler.mfg_edges_per_seed",
                self.edges as f64 / self.seeds as f64,
            ),
            ("batchprep.slice_ms_p50", p(SLICE, 0.5)),
            (
                "graph.slice_gbps",
                self.packed_bytes as f64 / total_s(SLICE_INTO) / 1e9,
            ),
            (
                "graph.widen_gbps",
                self.wide_bytes as f64 / total_s(WIDEN) / 1e9,
            ),
            ("nn.forward_ms_p50", p(FWD_TRAIN, 0.5)),
            ("nn.forward_eval_ms_p50", p(FWD_EVAL, 0.5)),
            ("tensor.backward_ms_p50", p(BACKWARD, 0.5)),
            ("tensor.optim_step_ms_p50", p(OPTIM, 0.5)),
        ]
    }
}

/// Median rate of `reps` calls of `f`, each worth `units`.
fn median_rate(reps: usize, units: f64, mut f: impl FnMut()) -> f64 {
    let rates: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = now_ns();
            f();
            units / secs(t0, now_ns())
        })
        .collect();
    median(&rates)
}

fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a = Tensor::full([m, k], 0.5);
    let b = Tensor::full([k, n], 0.25);
    let reps = (2e8 / (2 * m * k * n) as f64).clamp(3.0, 200.0) as usize;
    median_rate(reps, 2.0 * (m * k * n) as f64 / 1e9, || {
        black_box(gemm(black_box(&a), black_box(&b), false, false));
    })
}

/// `Var::scatter_mean` over the first hop of one of the workload's batches.
fn scatter_mean_medges_per_s(ds: &Dataset, sampler: &mut FastSampler, r: &Recipe) -> f64 {
    let mfg = sampler.sample(&ds.graph, &r.stream[..r.batch_size], &r.fanouts);
    let layer = &mfg.layers[0];
    let x = Tensor::full([layer.n_src, ds.features.dim()], 0.5);
    median_rate(5, layer.num_edges() as f64 / 1e6, || {
        let tape = Tape::new();
        let agg =
            tape.constant(x.clone())
                .scatter_mean(&layer.edge_src, &layer.edge_dst, layer.n_dst);
        black_box(agg.value());
    })
}

/// Bytes copied per second by one 64 MB `copy_from_slice`: the bandwidth
/// ceiling of slicing and widening.
fn stream_copy_gbps() -> f64 {
    let src = vec![1.0f32; 16 << 20];
    let mut dst = vec![0.0f32; 16 << 20];
    median_rate(5, (src.len() * 4) as f64 / 1e9, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    })
}

struct Unit(u64);

impl PipeItem for Unit {
    fn batch_id(&self) -> u64 {
        self.0
    }
}

/// Cost per item of a `StageGraph` whose two stages do nothing.
fn pipeline_item_overhead_us() -> f64 {
    const ITEMS: u64 = 20_000;
    let mut next = 0;
    let graph = StageGraph::new(GraphSpec::new("noop"), move || {
        next += 1;
        (next <= ITEMS).then_some(Unit(next))
    })
    .stage(
        StageSpec::new("a", names::spans::STAGE_TRANSFER),
        StageOutcome::Emit,
    )
    .stage(
        StageSpec::new("b", names::spans::STAGE_TRAIN),
        StageOutcome::Emit,
    );
    let t0 = now_ns();
    let stats = graph.run_inline(&Trace::disabled());
    black_box(stats);
    secs(t0, now_ns()) * 1e6 / ITEMS as f64
}

/// Acquire a pinned slot, size it for a batch of `nodes`, give it back.
fn slot_cycle_us(ds: &Dataset, nodes: usize) -> f64 {
    let dim = ds.features.dim();
    let pool = PinnedPool::new(2, nodes, dim, workloads::BATCH, ds.features.dtype());
    let cycles: Vec<f64> = (0..2_000)
        .map(|_| {
            let t0 = now_ns();
            let mut slot = pool.acquire();
            slot.prepare(nodes, dim, workloads::BATCH);
            drop(black_box(slot));
            (now_ns() - t0) as f64 / 1e3
        })
        .collect();
    median(&cycles)
}

/// `run_epoch` over `batches` of the workload's batches (its stream,
/// repeated as needed) with a consumer that only drops them; returns
/// `(batches per second, failed batches)`.
fn stream_batches_per_s(
    ds: &Arc<Dataset>,
    seed: u64,
    r: &Recipe,
    workers: usize,
    batches: usize,
) -> (f64, usize) {
    let order: Vec<NodeId> = r
        .stream
        .iter()
        .copied()
        .cycle()
        .take(batches * r.batch_size)
        .collect();
    let cfg = PrepConfig {
        num_workers: workers,
        fanouts: r.fanouts.clone(),
        batch_size: r.batch_size,
        seed,
        ..PrepConfig::default()
    };
    let t0 = now_ns();
    let (ready, failed) = stream_epoch(ds, &order, &cfg, |_| ());
    (ready as f64 / secs(t0, now_ns()), failed)
}

/// The serve crate's own cost on one fixed shape, whatever the workload:
/// a closed loop of full micro-batches through an untrained 2-layer model.
fn serve_probe(ds: &Arc<Dataset>, seed: u64) -> Vec<(&'static str, f64)> {
    let model = build_model(
        ModelKind::Sage,
        ds.features.dim(),
        64,
        ds.num_classes,
        2,
        seed,
    );
    let mut core = ServerCore::new(
        model,
        Arc::clone(ds),
        workloads::serve_config(seed),
        Trace::disabled(),
    );
    let nodes: Vec<NodeId> = ds.splits.test.clone();
    closed_loop(&mut core, &nodes, 64, 0);
    let t0 = now_ns();
    let run = closed_loop(&mut core, &nodes, 512, 1 << 32);
    vec![
        (
            "serve.capacity_closed_rps",
            run.served as f64 / secs(t0, now_ns()),
        ),
        ("serve.submit_ns_p50", median(&run.submit_ns)),
        ("serve.step_us_p50", median(&run.step_us)),
    ]
}
