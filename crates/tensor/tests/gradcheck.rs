//! Numerical gradient checking for every differentiable operation.
//!
//! For each op we build a scalar loss that exercises it, compute the
//! analytic gradient by backpropagation, and compare against central finite
//! differences. This is the definitive correctness test for the autograd
//! engine that trains every model in the reproduction.

use salient_tensor::rng::{Rng, StdRng};
use salient_tensor::{Shape, Tape, Tensor, Var};

/// Central-difference gradient of `f` at `x0`, compared elementwise against
/// the analytic gradient produced by `f`'s tape.
fn gradcheck(name: &str, x0: &[f32], shape: Shape, f: &dyn Fn(&Var) -> Var, tol: f32) {
    gradcheck_on(name, x0, shape, &|_, x| f(x), tol);
}

/// [`gradcheck`] for an `f` that also records other inputs on the tape.
fn gradcheck_on(
    name: &str,
    x0: &[f32],
    shape: Shape,
    f: &dyn Fn(&Tape, &Var) -> Var,
    tol: f32,
) {
    let tape = Tape::new();
    let x = tape.leaf(Tensor::from_vec(x0.to_vec(), shape));
    let loss = f(&tape, &x);
    assert_eq!(loss.value().len(), 1, "{name}: loss must be scalar");
    let grads = tape.backward(&loss);
    let analytic = grads.wrt(&x).expect("input must receive gradient").clone();

    let eps = 1e-3f32;
    for i in 0..x0.len() {
        let mut up = x0.to_vec();
        up[i] += eps;
        let mut down = x0.to_vec();
        down[i] -= eps;
        let tape_u = Tape::new();
        let fu = f(&tape_u, &tape_u.leaf(Tensor::from_vec(up, shape))).value().item();
        let tape_d = Tape::new();
        let fd = f(&tape_d, &tape_d.leaf(Tensor::from_vec(down, shape))).value().item();
        let numeric = (fu - fd) / (2.0 * eps);
        let got = analytic.data()[i];
        assert!(
            (got - numeric).abs() <= tol * (1.0 + numeric.abs()),
            "{name}: element {i}: analytic {got} vs numeric {numeric}"
        );
    }
}

fn random_input(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(-1.5f32..1.5)).collect()
}

#[test]
fn matmul_gram_loss() {
    // loss = sum((x @ reshape(x))²) differentiates matmul through *both*
    // operands simultaneously.
    let x0 = random_input(6, 2);
    gradcheck(
        "matmul_gram",
        &x0,
        [2, 3].into(),
        &|x| {
            let y = x.reshape([3, 2]);
            let p = x.matmul(&y);
            p.mul(&p).sum_all()
        },
        3e-2,
    );
}

#[test]
fn elementwise_chain() {
    let x0 = random_input(8, 3);
    gradcheck(
        "relu_add_mul_chain",
        &x0,
        [2, 4].into(),
        &|x| x.relu().add(&x.scale(0.3)).mul(&x.leaky_relu(0.1)).sum_all(),
        2e-2,
    );
}

#[test]
fn leaky_relu_grad() {
    let x0 = random_input(6, 4);
    gradcheck(
        "leaky_relu",
        &x0,
        [6].into(),
        &|x| x.leaky_relu(0.1).mul(&x.leaky_relu(0.1)).sum_all(),
        2e-2,
    );
}

#[test]
fn log_softmax_nll() {
    let x0 = random_input(12, 5);
    gradcheck(
        "log_softmax_nll",
        &x0,
        [3, 4].into(),
        &|x| x.log_softmax().nll_loss(&[1, 3, 0]),
        2e-2,
    );
}

#[test]
fn broadcast_bias_add() {
    let x0 = random_input(3, 12);
    gradcheck(
        "bias_broadcast",
        &x0,
        [3].into(),
        &|bias| {
            // A fixed activation derived from the bias itself keeps all
            // inputs on one tape: act = sigmoid(bias) replicated via matmul
            // with reshape.
            let col = bias.reshape([3, 1]);
            let row = bias.reshape([1, 3]);
            let outer = col.matmul(&row); // 3×3, fully bias-dependent
            outer.add(&row).mul(&outer.add(&row)).sum_all()
        },
        3e-2,
    );
}

#[test]
fn narrow_concat_reshape() {
    let x0 = random_input(12, 6);
    gradcheck(
        "narrow_concat_reshape",
        &x0,
        [4, 3].into(),
        &|x| {
            let head = x.narrow_rows(2);
            let tail = x.narrow_rows(4).narrow_rows(2);
            let cat = Var::concat_cols(&[head, tail]);
            cat.mul(&cat).sum_all().scale(0.5)
        },
        2e-2,
    );
}

#[test]
fn gather_scatter_ops() {
    let x0 = random_input(9, 7);
    let (src, dst) = (vec![0u32, 1, 2, 2], vec![0u32, 0, 1, 2]);
    gradcheck(
        "scatter_mean_quadratic",
        &x0,
        [3, 3].into(),
        &|x| {
            let agg = x.scatter_mean(&src, &dst, 3);
            agg.mul(&agg).sum_all()
        },
        2e-2,
    );
    gradcheck(
        "scatter_add_then_gather",
        &x0,
        [3, 3].into(),
        &|x| {
            let agg = x.scatter_add(&src, &dst, 3);
            let g = agg.gather_rows(&[2, 0]);
            g.mul(&g).sum_all()
        },
        2e-2,
    );
}

#[test]
fn edge_softmax_attention_path() {
    // The full GAT attention pipeline: per-edge logits → edge softmax →
    // weighted aggregation, differentiated through the feature matrix.
    let x0 = random_input(8, 8);
    let (src, dst) = (vec![0u32, 1, 2, 3], vec![0u32, 0, 1, 1]);
    gradcheck(
        "gat_attention_path",
        &x0,
        [4, 2].into(),
        &|x| {
            // Per-edge logit: dot(x[src_e], x[dst_e]) computed as the
            // row-sums of the elementwise product of gathered rows.
            let prod = x.gather_rows(&src).mul(&x.gather_rows(&dst)); // 4×2
            let flat = prod.reshape([8, 1]);
            let even: Vec<u32> = (0..4u32).map(|e| e * 2).collect();
            let odd: Vec<u32> = (0..4u32).map(|e| e * 2 + 1).collect();
            let logits = flat
                .gather_rows(&even)
                .add(&flat.gather_rows(&odd))
                .reshape([4]);
            let alpha = logits.edge_softmax(&dst, 2);
            let out = x.weighted_scatter_add(&alpha, &src, &dst, 2);
            out.mul(&out).sum_all()
        },
        4e-2,
    );
}

#[test]
fn batch_norm_train_full_path() {
    let x0 = random_input(12, 9);
    gradcheck(
        "batch_norm_composite",
        &x0,
        [4, 3].into(),
        &|x| {
            // Data-dependent affine parameters route gradients through all
            // three batch-norm inputs.
            let row = x.narrow_rows(1).reshape([3]);
            let g = row.mul(&row).scale(0.5);
            let b = row.scale(-0.7);
            let (y, _, _) = x.batch_norm_train(&g, &b, 1e-3);
            y.mul(&y).sum_all()
        },
        8e-2,
    );
}

#[test]
fn dropout_eval_passthrough_grad() {
    let x0 = random_input(5, 10);
    let mut rng = StdRng::seed_from_u64(0);
    let tape = Tape::new();
    let x = tape.leaf(Tensor::from_vec(x0, [5]));
    let y = x.dropout(0.5, false, &mut rng).sum_all();
    let grads = tape.backward(&y);
    assert_eq!(grads.wrt(&x).unwrap().data(), &[1.0; 5]);
}

#[test]
fn dropout_train_mask_consistency() {
    // In training mode the same mask must be applied forward and backward:
    // grad is nonzero exactly where the output is nonzero.
    let mut rng = StdRng::seed_from_u64(42);
    let tape = Tape::new();
    let x = tape.leaf(Tensor::full([64], 2.0));
    let y = x.dropout(0.5, true, &mut rng);
    let out = y.value();
    let grads = tape.backward(&y.sum_all());
    let g = grads.wrt(&x).unwrap();
    for (o, gi) in out.data().iter().zip(g.data().iter()) {
        assert_eq!(*o == 0.0, *gi == 0.0, "mask must match between passes");
    }
}

#[test]
fn sum_all_and_scale() {
    let x0 = random_input(6, 11);
    gradcheck(
        "sum_scale",
        &x0,
        [6].into(),
        &|x| x.mul(&x).sum_all().scale(0.5),
        1e-2,
    );
}

#[test]
fn deep_composition_stays_accurate() {
    // A deliberately deep chain (20 ops) to catch accumulation errors in
    // the tape walk.
    let x0 = random_input(4, 12);
    gradcheck(
        "deep_chain",
        &x0,
        [2, 2].into(),
        &|x| {
            let mut y = x.clone();
            for _ in 0..5 {
                y = y.mul(&x).scale(0.6).add(&x.leaky_relu(0.2));
            }
            y.mul(&y).sum_all()
        },
        3e-2,
    );
}

// ---------------------------------------------------------------------------
// The fused SAGE layer and its ReLU + dropout epilogue
// ---------------------------------------------------------------------------

/// One hop: 5 sources, 3 destinations, in_dim 2, out_dim 3. Destination 2
/// has no in-edge (its aggregate is the zero row).
const SAGE_SRC: [u32; 4] = [3, 4, 0, 4];
const SAGE_DST: [u32; 4] = [0, 0, 1, 1];
const SAGE_N_DST: usize = 3;
/// The four operands `[x, x_target, w_self, w_neigh]` and their shapes.
const SAGE_SHAPES: [[usize; 2]; 4] = [[5, 2], [3, 2], [2, 3], [2, 3]];

fn sage_operands() -> Vec<Vec<f32>> {
    (0..4)
        .map(|i| random_input(SAGE_SHAPES[i][0] * SAGE_SHAPES[i][1], 40 + i as u64))
        .collect()
}

/// The fused node on operands `v`; `prefix` reads `x_target` as `x[:3]`
/// (and ignores `v[1]`), otherwise `v[1]` is a separate target.
fn sage_fused(v: &[Var], prefix: bool, act: Option<f32>) -> Var {
    // The same dropout draws on every evaluation.
    let mut rng = StdRng::seed_from_u64(7);
    let target = (!prefix).then_some(&v[1]);
    v[0].sage_conv(target, &v[2], &v[3], &SAGE_SRC, &SAGE_DST, SAGE_N_DST, act, &mut rng)
}

/// The four-op composition the fused node replaced.
fn sage_oracle(v: &[Var], prefix: bool, relu: bool) -> Var {
    let target = if prefix { v[0].narrow_rows(SAGE_N_DST) } else { v[1].clone() };
    let agg = v[0].scatter_mean(&SAGE_SRC, &SAGE_DST, SAGE_N_DST);
    let y = target.matmul(&v[2]).add(&agg.matmul(&v[3]));
    if relu { y.relu() } else { y }
}

#[test]
fn fused_sage_conv_gradients_match_finite_differences() {
    let operands = sage_operands();
    for prefix in [true, false] {
        for act in [None, Some(0.5)] {
            for wrt in 0..4 {
                if prefix && wrt == 1 {
                    continue; // no separate x_target in the prefix form
                }
                gradcheck_on(
                    &format!("sage_conv prefix={prefix} act={act:?} wrt operand {wrt}"),
                    &operands[wrt],
                    SAGE_SHAPES[wrt].into(),
                    &|tape, tracked| {
                        let v: Vec<Var> = (0..4)
                            .map(|i| match i == wrt {
                                true => tracked.clone(),
                                false => tape.constant(Tensor::from_vec(
                                    operands[i].clone(),
                                    SAGE_SHAPES[i],
                                )),
                            })
                            .collect();
                        let y = sage_fused(&v, prefix, act);
                        y.mul(&y).sum_all()
                    },
                    3e-2,
                );
            }
        }
    }
}

#[test]
fn fused_sage_conv_matches_the_four_op_oracle() {
    let operands = sage_operands();
    // Forward value and the gradient of every operand, for one composition.
    let run = |fused: bool, prefix: bool, relu: bool| -> Vec<Tensor> {
        let tape = Tape::new();
        let v: Vec<Var> = (0..4)
            .map(|i| tape.leaf(Tensor::from_vec(operands[i].clone(), SAGE_SHAPES[i])))
            .collect();
        let y = match fused {
            true => sage_fused(&v, prefix, relu.then_some(0.0)),
            false => sage_oracle(&v, prefix, relu),
        };
        let grads = tape.backward(&y.mul(&y).sum_all());
        let mut out = vec![y.value()];
        for (i, var) in v.iter().enumerate() {
            if !(prefix && i == 1) {
                out.push(grads.wrt(var).expect("every operand is reached").clone());
            }
        }
        out
    };
    for prefix in [true, false] {
        for relu in [false, true] {
            for (i, (f, o)) in run(true, prefix, relu).iter().zip(run(false, prefix, relu)).enumerate() {
                assert!(
                    f.max_abs_diff(&o) < 1e-5,
                    "prefix={prefix} relu={relu} tensor {i}: fused {f:?} vs oracle {o:?}"
                );
            }
        }
    }
}

#[test]
fn fused_sage_conv_prunes_untracked_inputs() {
    // Constant features, tracked weights: the node differentiates the
    // weights only, and on a no-grad tape it records nothing at all.
    let operands = sage_operands();
    let tape = Tape::new();
    let v: Vec<Var> = (0..4)
        .map(|i| {
            let t = Tensor::from_vec(operands[i].clone(), SAGE_SHAPES[i]);
            if i < 2 { tape.constant(t) } else { tape.leaf(t) }
        })
        .collect();
    let y = sage_fused(&v, true, Some(0.5));
    let grads = tape.backward(&y.mul(&y).sum_all());
    assert!(grads.wrt(&v[0]).is_none());
    assert!(grads.wrt(&v[2]).is_some() && grads.wrt(&v[3]).is_some());

    let tape = Tape::no_grad();
    let v: Vec<Var> = (0..4)
        .map(|i| tape.leaf(Tensor::from_vec(operands[i].clone(), SAGE_SHAPES[i])))
        .collect();
    assert!(!sage_fused(&v, true, Some(0.0)).needs_grad());
}

#[test]
fn relu_dropout_keep_rate_mean_and_mask() {
    const N: usize = 1 << 16;
    for p in [0.5f32, 0.1] {
        let mut rng = StdRng::seed_from_u64(0xD0);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::full([N], 2.0));
        let y = x.relu_dropout(p, true, &mut rng);
        let out = y.value();
        let kept = out.data().iter().filter(|&&o| o != 0.0).count() as f64;
        // Binomial(N, keep): five standard deviations, ~6e-7 two-sided.
        let keep = 1.0 - p as f64;
        let bound = 5.0 * (N as f64 * keep * (1.0 - keep)).sqrt();
        assert!(
            (kept - N as f64 * keep).abs() < bound,
            "p={p}: kept {kept} of {N}, expected {} +- {bound}",
            N as f64 * keep
        );
        // Inverted dropout preserves the mean: survivors carry 2 / keep.
        let mean = out.data().iter().map(|&o| o as f64).sum::<f64>() / N as f64;
        assert!((mean - 2.0).abs() < 2.0 * bound / (N as f64 * keep), "p={p}: mean {mean}");
        // The backward pass applies the forward mask and scale.
        let grads = tape.backward(&y.sum_all());
        for (o, g) in out.data().iter().zip(grads.wrt(&x).unwrap().data()) {
            assert_eq!(*g, o / 2.0, "gradient is the survivor scale exactly where kept");
        }
    }
    // Negative inputs stay dead, and evaluation is a plain ReLU with no draws.
    let mut rng = StdRng::seed_from_u64(1);
    let before = rng.clone().next_u64();
    let tape = Tape::new();
    let x = tape.leaf(Tensor::from_vec(vec![-1.0, 3.0, -2.0, 0.5, 4.0], [5]));
    assert_eq!(x.relu_dropout(0.5, false, &mut rng).value().data(), &[0.0, 3.0, 0.0, 0.5, 4.0]);
    assert_eq!(rng.next_u64(), before, "eval mode must not advance the stream");
    let train = x.relu_dropout(0.5, true, &mut rng).value();
    assert_eq!((train.data()[0], train.data()[2]), (0.0, 0.0));
}
