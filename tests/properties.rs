//! Property-style tests over core invariants, spanning crates.
//!
//! Each test sweeps dozens of randomized cases from the workspace's seeded
//! RNG, so failures reproduce exactly by seed. (This replaced an external
//! property-testing dependency; the invariants are unchanged.)

use salient_repro::core::infer::full_graph_mfg;
use salient_repro::graph::{generate, CsrGraph};
use salient_repro::sampler::{
    FastSampler, MessageFlowGraph, PygSampler, VariantConfig, VariantSampler,
};
use salient_repro::tensor::rng::{Rng, SliceRandom, StdRng};
use std::collections::BTreeSet;
use salient_repro::tensor::{gemm, F16, Tensor};

/// A random directed edge list over `n` nodes with up to `max_edges` edges.
fn edges(rng: &mut StdRng, n: u32, max_edges: usize) -> Vec<(u32, u32)> {
    let count = rng.random_range(0..=max_edges);
    (0..count)
        .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
        .collect()
}

fn rand_vec(rng: &mut StdRng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..len).map(|_| rng.random_range(lo..hi)).collect()
}

#[test]
fn csr_round_trips_edge_lists() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let es = edges(&mut rng, 40, 200);
        let g = CsrGraph::from_edges(40, &es);
        assert_eq!(g.num_edges(), es.len());
        // Every edge is findable and degrees sum to the edge count.
        let total: usize = (0..40).map(|v| g.degree(v)).sum();
        assert_eq!(total, es.len());
        for &(u, v) in &es {
            assert!(g.neighbors(u).contains(&v));
        }
    }
}

#[test]
fn undirected_is_symmetric_and_deduped() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let es = edges(&mut rng, 30, 150);
        let u = CsrGraph::from_edges(30, &es).to_undirected();
        assert!(u.is_undirected());
        assert!(u.is_sorted());
        // No self loops and no duplicates.
        for v in 0..30u32 {
            let ns = u.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "strictly sorted = deduped");
            assert!(!ns.contains(&v), "no self loops");
        }
    }
}

#[test]
fn to_undirected_equals_a_btreeset_reference() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let n = rng.random_range(1u32..40);
        let mut es = edges(&mut rng, n, 200);
        // A third of the edges again, reversed, and as self-loops on their
        // source: duplicates, self-loops and both orders, in any order.
        let extra: Vec<(u32, u32)> =
            es.iter().take(es.len() / 3).flat_map(|&(u, v)| [(u, v), (v, u), (u, u)]).collect();
        es.extend(extra);
        es.shuffle(&mut rng);
        let mut reference = vec![BTreeSet::new(); n as usize];
        for &(u, v) in &es {
            if u != v {
                reference[u as usize].insert(v);
                reference[v as usize].insert(u);
            }
        }
        let g = CsrGraph::from_edges(n as usize, &es).to_undirected();
        assert_eq!(g.num_nodes(), n as usize);
        for v in 0..n {
            let want: Vec<u32> = reference[v as usize].iter().copied().collect();
            assert_eq!(g.neighbors(v), want.as_slice(), "seed {seed}, node {v}");
        }
        assert_eq!(g.num_edges(), reference.iter().map(BTreeSet::len).sum::<usize>());
    }
}

#[test]
fn is_undirected_agrees_with_a_scan_on_unsorted_rows() {
    let (mut symmetric, mut unsorted) = (0, 0);
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(1_100 + seed);
        let n = rng.random_range(1u32..30);
        let mut es = edges(&mut rng, n, 80);
        if seed % 2 == 0 {
            let reversed: Vec<(u32, u32)> = es.iter().map(|&(u, v)| (v, u)).collect();
            es.extend(reversed);
        }
        // Rows keep edge order, so most are unsorted; every fourth graph
        // loses one edge, which may break its symmetry.
        es.shuffle(&mut rng);
        if seed % 4 == 0 {
            es.pop();
        }
        let g = CsrGraph::from_edges(n as usize, &es);
        let scan = (0..n).all(|u| g.neighbors(u).iter().all(|&v| g.neighbors(v).contains(&u)));
        assert_eq!(g.is_undirected(), scan, "seed {seed}");
        symmetric += usize::from(scan);
        unsorted += usize::from(!g.is_sorted());
    }
    assert!(symmetric > 8 && symmetric < 56, "{symmetric} of 64 graphs symmetric: both answers must be checked");
    assert!(unsorted > 32, "only {unsorted} of 64 graphs have an unsorted row");
}

#[test]
fn sampler_respects_fanout_and_locality() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let es = edges(&mut rng, 60, 400);
        let fanout = rng.random_range(1usize..8);
        let g = CsrGraph::from_edges(60, &es).to_undirected();
        let batch: Vec<u32> = (0..8).collect();
        let mfg = FastSampler::new(seed).sample(&g, &batch, &[fanout, fanout]);
        assert!(mfg.validate().is_ok());
        // Fanout bound per destination per hop.
        for layer in &mfg.layers {
            let mut counts = vec![0usize; layer.n_dst];
            for &d in &layer.edge_dst {
                counts[d as usize] += 1;
            }
            for (d, &c) in counts.iter().enumerate() {
                let global = mfg.node_ids[d];
                assert!(
                    c <= fanout.min(g.degree(global)),
                    "dst {d} sampled {c} > fanout {fanout}"
                );
            }
            // Every edge must exist in the input graph.
            for (&s, &d) in layer.edge_src.iter().zip(layer.edge_dst.iter()) {
                let (gs, gd) = (mfg.node_ids[s as usize], mfg.node_ids[d as usize]);
                assert!(g.neighbors(gd).binary_search(&gs).is_ok());
            }
        }
    }
}

#[test]
fn fast_and_pyg_samplers_agree_on_full_expansion() {
    for seed in 0..32u64 {
        // With fanout >= max degree both samplers enumerate the exact
        // 2-hop neighborhood (node sets equal as sets).
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let es = edges(&mut rng, 40, 250);
        let g = CsrGraph::from_edges(40, &es).to_undirected();
        let batch: Vec<u32> = (0..4).collect();
        let big = [1000usize, 1000];
        let mut a = FastSampler::new(seed).sample(&g, &batch, &big).node_ids;
        let mut b = PygSampler::new(seed + 1).sample(&g, &batch, &big).node_ids;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}

#[test]
fn every_sampler_emits_destinations_in_order() {
    // The invariant `MfgLayer` documents and the aggregation kernel's
    // identity route relies on for speed (not for correctness).
    let check = |who: &str, mfg: &MessageFlowGraph| {
        mfg.validate().unwrap();
        for (hop, layer) in mfg.layers.iter().enumerate() {
            assert!(
                layer.edge_dst.windows(2).all(|w| w[0] <= w[1]),
                "{who}: edge_dst of hop {hop} decreases somewhere"
            );
        }
    };
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(350 + seed);
        let es = edges(&mut rng, 60, 500);
        let g = CsrGraph::from_edges(60, &es).to_undirected();
        let batch: Vec<u32> = (0..8).collect();
        // Fanouts on both sides of the degrees, so hops mix sampled and
        // fully expanded neighbourhoods.
        let fanouts = [3usize, 20, 2];
        check("FastSampler", &FastSampler::new(seed).sample(&g, &batch, &fanouts));
        check("PygSampler", &PygSampler::new(seed).sample(&g, &batch, &fanouts));
        let all = VariantConfig::all();
        assert!(all.iter().any(|v| v.fused) && all.iter().any(|v| !v.fused));
        for config in all {
            let mfg = VariantSampler::new(config, seed).sample(&g, &batch, &fanouts);
            check(&config.label(), &mfg);
        }
        check("full_graph_mfg", &full_graph_mfg(&g, 2));
    }
}

#[test]
fn f16_round_trip_within_half_ulp() {
    let mut rng = StdRng::seed_from_u64(400);
    for _ in 0..2000 {
        let x = rng.random_range(-60000.0f32..60000.0);
        let h = F16::from_f32(x).to_f32();
        // Round-to-nearest: relative error ≤ 2^-11 for normals, absolute
        // error ≤ 2^-25 near zero.
        let bound = x.abs() * (2.0f32).powi(-11) + (2.0f32).powi(-24);
        assert!((h - x).abs() <= bound, "{x} -> {h}");
    }
}

#[test]
fn f16_order_preserving() {
    let mut rng = StdRng::seed_from_u64(500);
    for _ in 0..2000 {
        let a = rng.random_range(-1000.0f32..1000.0);
        let b = rng.random_range(-1000.0f32..1000.0);
        let (ha, hb) = (F16::from_f32(a), F16::from_f32(b));
        if a <= b {
            assert!(ha.to_f32() <= hb.to_f32(), "monotone quantization");
        }
    }
}

#[test]
fn gemm_matches_reference() {
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(600 + seed);
        let m = rng.random_range(1usize..6);
        let k = rng.random_range(1usize..6);
        let n = rng.random_range(1usize..6);
        let a = Tensor::from_vec(rand_vec(&mut rng, m * k, -2.0, 2.0), [m, k]);
        let b = Tensor::from_vec(rand_vec(&mut rng, k * n, -2.0, 2.0), [k, n]);
        let c = gemm(&a, &b, false, false);
        for i in 0..m {
            for j in 0..n {
                let expect: f32 = (0..k).map(|p| a.at(&[i, p]) * b.at(&[p, j])).sum();
                assert!((c.at(&[i, j]) - expect).abs() < 1e-4);
            }
        }
    }
}

#[test]
fn gemm_transposes_are_consistent() {
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(700 + seed);
        let m = rng.random_range(1usize..5);
        let k = rng.random_range(1usize..5);
        let n = rng.random_range(1usize..5);
        let a = Tensor::from_vec(rand_vec(&mut rng, m * k, -1.0, 1.0), [m, k]);
        let b = Tensor::from_vec(rand_vec(&mut rng, k * n, -1.0, 1.0), [k, n]);
        // Materialize transposes.
        let at = {
            let mut v = vec![0.0; m * k];
            for i in 0..m {
                for p in 0..k {
                    v[p * m + i] = a.at(&[i, p]);
                }
            }
            Tensor::from_vec(v, [k, m])
        };
        let bt = {
            let mut v = vec![0.0; k * n];
            for p in 0..k {
                for j in 0..n {
                    v[j * k + p] = b.at(&[p, j]);
                }
            }
            Tensor::from_vec(v, [n, k])
        };
        let reference = gemm(&a, &b, false, false);
        for (ta, tb, lhs, rhs) in [
            (true, false, &at, &b),
            (false, true, &a, &bt),
            (true, true, &at, &bt),
        ] {
            let got = gemm(lhs, rhs, ta, tb);
            assert!(reference.max_abs_diff(&got) < 1e-4);
        }
    }
}

#[test]
fn power_law_weights_bounded() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(800 + seed);
        let n = rng.random_range(1usize..500);
        let alpha = rng.random_range(1.5f64..3.5);
        let w = generate::power_law_weights(n, alpha, 2.0, 50.0, &mut rng);
        assert_eq!(w.len(), n);
        assert!(w.iter().all(|&x| (2.0..=50.0).contains(&x)));
    }
}

#[test]
fn autograd_sum_of_products_gradient() {
    // loss = sum(x * x); dloss/dx = 2x elementwise.
    use salient_repro::tensor::Tape;
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(900 + seed);
        let len = rng.random_range(2usize..10);
        let xs = rand_vec(&mut rng, len, -3.0, 3.0);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(xs.clone(), [xs.len()]));
        let loss = x.mul(&x).sum_all();
        let grads = tape.backward(&loss);
        let g = grads.wrt(&x).unwrap();
        for (gi, xi) in g.data().iter().zip(xs.iter()) {
            assert!((gi - 2.0 * xi).abs() < 1e-5);
        }
    }
}

/// Ring all-reduce equals the arithmetic mean for arbitrary world sizes and
/// buffer lengths.
#[test]
fn all_reduce_mean_equals_mean_for_many_shapes() {
    use salient_repro::ddp::Communicator;
    for world in 1..=5usize {
        for len in [1usize, 3, 8, 17] {
            let comms = Communicator::ring(world);
            let outputs: Vec<Vec<f32>> = std::thread::scope(|s| {
                comms
                    .into_iter()
                    .enumerate()
                    .map(|(r, comm)| {
                        s.spawn(move || {
                            let mut buf: Vec<f32> =
                                (0..len).map(|i| (r * 100 + i) as f32).collect();
                            comm.all_reduce_mean(&mut buf).unwrap();
                            buf
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            let expect: Vec<f32> = (0..len)
                .map(|i| {
                    (0..world).map(|r| (r * 100 + i) as f32).sum::<f32>() / world as f32
                })
                .collect();
            for out in outputs {
                assert_eq!(out, expect, "world {world} len {len}");
            }
        }
    }
}

/// `chrome_trace` → `json::parse` on random traces with random counts
/// returns every span's name, batch, duration and counts exactly. Then
/// `trace::json` on damaged copies of each export: a document cut before
/// its closing brace is an error; byte flips, splices and 65 536 brackets
/// opened in the middle of it give `Ok` or `Err`, never a panic or a stack
/// overflow.
#[test]
fn trace_json_returns_on_mutated_chrome_traces() {
    use salient_repro::trace::export::chrome_trace;
    use salient_repro::trace::json::{parse, validate_chrome_trace, Value};
    use salient_repro::trace::names::{events, spans, SpanName};
    use salient_repro::trace::{Clock, EventKind, Trace, NO_BATCH};

    const NAMES: [SpanName; 4] = [
        spans::PREP_SAMPLE,
        spans::PREP_SLICE,
        spans::STAGE_TRAIN,
        spans::EPOCH,
    ];
    // Below 2^53, so every value is exact as the parser's f64.
    let below = |rng: &mut StdRng, bits: u32| -> u64 {
        if rng.random_range(0..3u32) == 0 {
            0
        } else {
            rng.random_range(0..1u64 << bits)
        }
    };
    for seed in 0..2000u64 {
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let trace = Trace::new(Clock::virtual_manual());
        for _ in 0..rng.random_range(1..=6usize) {
            let name = NAMES[rng.random_range(0..NAMES.len())];
            let batch = if rng.random_range(0..4u32) == 0 {
                NO_BATCH
            } else {
                below(&mut rng, 40)
            };
            let start = below(&mut rng, 40);
            let end = start + below(&mut rng, 32);
            let counts = [below(&mut rng, 52), below(&mut rng, 52)];
            trace.record_span_counts(name, batch, start, end, counts);
        }
        trace.instant(events::RETRY, NO_BATCH);
        let snap = trace.snapshot();
        let valid = chrome_trace(&snap);
        validate_chrome_trace(&valid).expect("the unmutated export is valid");

        let doc = parse(&valid).expect("the export parses");
        let num = |v: Option<&Value>| v.and_then(Value::as_num).map(|n| n as u64);
        let read: Vec<(String, u64, u64, [u64; 2])> = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents")
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .map(|e| {
                let args = e.get("args");
                let counts = args.and_then(|a| a.get("counts")?.as_arr());
                let count = |i: usize| num(counts.and_then(|c| c.get(i))).unwrap_or(0);
                (
                    e.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string(),
                    num(args.and_then(|a| a.get("batch"))).unwrap_or(NO_BATCH),
                    // Microseconds with three decimals: nanoseconds, exactly.
                    (e.get("dur").and_then(Value::as_num).expect("dur") * 1e3).round() as u64,
                    [count(0), count(1)],
                )
            })
            .collect();
        let recorded: Vec<(String, u64, u64, [u64; 2])> = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .map(|e| (e.name.to_string(), e.batch, e.dur_ns(), e.counts))
            .collect();
        assert_eq!(read, recorded, "seed {seed}");

        let mut doc = valid.into_bytes();
        let closed = doc
            .iter()
            .rposition(|&b| b == b'}')
            .expect("a closing brace");
        match seed % 4 {
            0 => {
                doc.truncate(rng.random_range(0..=closed));
                let cut = String::from_utf8_lossy(&doc);
                assert!(parse(&cut).is_err(), "seed {seed}: a cut document parsed");
            }
            1 => {
                for _ in 0..rng.random_range(1..=4usize) {
                    let at = rng.random_range(0..doc.len());
                    doc[at] ^= 1 << rng.random_range(0..8u32);
                }
            }
            2 => {
                // A slice of the document copied to another place in it.
                let from = rng.random_range(0..doc.len());
                let len = rng.random_range(0..=(doc.len() - from).min(64));
                let piece = doc[from..from + len].to_vec();
                let at = rng.random_range(0..=doc.len());
                doc.splice(at..at, piece);
            }
            _ => {
                let at = rng.random_range(0..=doc.len());
                let open = if rng.random_range(0..2u32) == 0 {
                    b'['
                } else {
                    b'{'
                };
                doc.splice(at..at, std::iter::repeat_n(open, 1 << 16));
            }
        }
        // Returning at all is the property; `validate_chrome_trace` parses.
        let _ = validate_chrome_trace(&String::from_utf8_lossy(&doc));
    }
}

/// The checkpoint loader on damaged input: truncations, bit flips and
/// splices of a real model checkpoint, and shapes rewritten under a
/// recomputed trailer (the case a checksum cannot catch). Every input ends
/// in a typed error or in a value that writes back to the bytes it was read
/// from — never a panic or an allocation the stream does not back. A rank
/// rewritten above 2, under a recomputed trailer, is always the loader's
/// rank error.
#[test]
fn checkpoint_loader_returns_on_mutated_streams() {
    use salient_repro::core::checkpoint::{Checkpoint, CheckpointError};
    use salient_repro::nn::{build_model, ModelKind};

    let model = build_model(ModelKind::Sage, 8, 16, 4, 2, 7);
    let original = Checkpoint::from_model(model.as_ref());
    let mut valid = Vec::new();
    original.write_to(&mut valid).unwrap();

    // Where each entry's dims sit: past magic and count, a name length, the
    // name and a rank, then `rank` dims and the f32 payload.
    let (mut rank_offsets, mut dim_offsets) = (Vec::new(), Vec::new());
    let mut at = 16;
    for p in model.params() {
        let rank = p.value().shape().rank();
        at += 4 + p.name().len();
        rank_offsets.push(at);
        at += 4;
        dim_offsets.extend((0..rank).map(|d| at + 8 * d));
        at += 8 * rank + 4 * p.value().len();
    }
    assert_eq!(at + 8, valid.len(), "the walk ends at the trailer");

    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
        })
    };
    let resealed = |mut doc: Vec<u8>| {
        let body = doc.len() - 8;
        let digest = fnv1a(&doc[..body]);
        doc[body..].copy_from_slice(&digest.to_le_bytes());
        doc
    };
    let mut loaded = 0;
    for seed in 0..2000u64 {
        let mut rng = StdRng::seed_from_u64(9000 + seed);
        let mut doc = valid.clone();
        match seed % 4 {
            0 => doc.truncate(rng.random_range(0..doc.len())),
            1 => {
                for _ in 0..rng.random_range(1..=4usize) {
                    let at = rng.random_range(0..doc.len());
                    doc[at] ^= 1 << rng.random_range(0..8u32);
                }
            }
            2 => {
                let from = rng.random_range(0..doc.len());
                let len = rng.random_range(0..=(doc.len() - from).min(64));
                let piece = doc[from..from + len].to_vec();
                let at = rng.random_range(0..=doc.len());
                doc.splice(at..at, piece);
            }
            _ => {
                let at = dim_offsets[rng.random_range(0..dim_offsets.len())];
                let dim: u64 = match rng.random_range(0..4u32) {
                    0 => rng.random_range(0..64u64),
                    1 => 1 << rng.random_range(20..64u32),
                    2 => u64::MAX,
                    _ => rng.random_range(0..u64::MAX),
                };
                doc[at..at + 8].copy_from_slice(&dim.to_le_bytes());
                doc = resealed(doc);
            }
        }
        if let Ok(ckpt) = Checkpoint::read_from(&mut doc.as_slice()) {
            let mut back = Vec::new();
            ckpt.write_to(&mut back).unwrap();
            assert!(doc.starts_with(&back), "seed {seed}: a loaded value must be what the bytes say");
            loaded += 1;
        }
    }
    // Zero-length splices leave the stream intact, so some inputs load.
    assert!(loaded > 0);

    // Every entry's rank rewritten to each of 3..=8 and to a random u32
    // above 2, under a recomputed trailer.
    let mut rng = StdRng::seed_from_u64(9500);
    for &at in &rank_offsets {
        for rank in (3..=8u32).chain((0..8).map(|_| rng.random_range(3..=u32::MAX))) {
            let mut doc = valid.clone();
            doc[at..at + 4].copy_from_slice(&rank.to_le_bytes());
            let err = Checkpoint::read_from(&mut resealed(doc).as_slice()).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Corrupt(m) if m == "rank above 2"),
                "rank {rank} at byte {at}: {err}"
            );
        }
    }
}

/// `FaultPlan::parse` (the `SALIENT_FAULT_SPEC` grammar) on clauses built
/// from its own vocabulary and junk: a typed error, or a plan that renders
/// back to a spec which parses to the same plan.
#[test]
fn fault_spec_parser_returns_on_assembled_clauses() {
    use salient_repro::fault::{sites, FaultKind, FaultPlan, FaultSpec, Trigger};

    let render = |s: &FaultSpec| {
        let kind = match s.kind {
            FaultKind::Panic => "panic".to_string(),
            FaultKind::Drop => "drop".to_string(),
            FaultKind::Delay(d) => format!("delay:{}ms", d.as_millis()),
        };
        let trigger = match s.trigger {
            Trigger::Always => String::new(),
            Trigger::Once(k) => format!("@{k}"),
            Trigger::Prob(p) => format!("%{p}"),
        };
        format!("{}={kind}{trigger}", s.site)
    };
    let pieces: Vec<String> = sites::ALL
        .iter()
        .map(|s| s.to_string())
        .chain(
            [
                "=", "@", "%", ";", " ", "delay:", "ms", "panic", "drop", "nan", "inf", "-",
                ".", "e", "0", "1", "7", "0.5", "1e400", "18446744073709551616", "prep.",
                "\u{e9}", "\0", "==", "@@",
            ]
            .map(String::from),
        )
        .collect();
    let mut parsed = 0;
    for seed in 0..2000u64 {
        let mut rng = StdRng::seed_from_u64(11_000 + seed);
        let mut spec = String::new();
        for _ in 0..rng.random_range(1..=3usize) {
            if rng.random_range(0..4u32) != 0 {
                // A well-formed skeleton with one field drawn from the pieces.
                let site = sites::ALL[rng.random_range(0..sites::ALL.len())];
                let kind = ["panic", "drop", "delay:5ms"][rng.random_range(0..3usize)];
                let field = match rng.random_range(0..3u32) {
                    0 => rng.random_range(0..1_000u64).to_string(),
                    1 => rng.random_range(0.0..1.5f64).to_string(),
                    _ => pieces[rng.random_range(0..pieces.len())].clone(),
                };
                let clause = match rng.random_range(0..4u32) {
                    0 => format!("{site}={kind}@{field}"),
                    1 => format!("{site}={kind}%{field}"),
                    2 => format!("{site}=delay:{field}ms@1"),
                    _ => format!("{field}={kind}"),
                };
                spec.push_str(&clause);
            } else {
                for _ in 0..rng.random_range(1..=8usize) {
                    spec.push_str(&pieces[rng.random_range(0..pieces.len())]);
                }
            }
            spec.push(';');
        }
        let Ok(plan) = FaultPlan::parse(seed, &spec) else { continue };
        parsed += 1;
        let specs = plan.specs();
        for s in &specs {
            if let Trigger::Prob(p) = s.trigger {
                assert!((0.0..=1.0).contains(&p), "{spec:?}: probability {p}");
            }
        }
        let text: Vec<String> = specs.iter().map(render).collect();
        let again = FaultPlan::parse(seed, &text.join(";"))
            .unwrap_or_else(|e| panic!("{spec:?} rendered as {text:?}: {e}"));
        assert_eq!(
            format!("{:?}", again.specs()),
            format!("{specs:?}"),
            "{spec:?}"
        );
    }
    assert!(parsed > 100, "the assembled clauses must also reach the Ok path ({parsed})");
}

/// A random pipeline trace: 1–4 back-to-back phases of 1 000 ns, batch ids
/// restarting at 0 in each. The trainer (the calling thread) records
/// disjoint stage spans inside each phase, at most 360 ns of them, so they
/// fit any closed window; 1–3 worker threads record prep spans that may
/// overlap anything, plus ring links tagged with a ring step. 0–3 phases are
/// closed by an `epoch` span; a last, open phase has none, as in a
/// mid-epoch snapshot. Returns the snapshot and the `(phase, batch)` pairs
/// that recorded a chain edge.
fn random_pipeline_trace(
    rng: &mut StdRng,
) -> (salient_repro::trace::Snapshot, std::collections::BTreeSet<(usize, u64)>) {
    use salient_repro::trace::names::spans;
    use salient_repro::trace::{Clock, Trace, NO_BATCH};

    const PHASE: u64 = 1_000;
    let trace = Trace::new(Clock::virtual_manual());
    let closed = rng.random_range(0..=3usize);
    let open = rng.random_range(0..2u32) == 1;
    let phases = (closed + usize::from(open)).max(1);
    let batches: Vec<u64> = (0..phases).map(|_| rng.random_range(1..=4u64)).collect();
    let mut keys = std::collections::BTreeSet::new();

    let trainer_spans = [spans::STAGE_PREP, spans::STAGE_TRAIN, spans::WARMUP];
    for (phase, &n) in batches.iter().enumerate() {
        let mut at = phase as u64 * PHASE + 1;
        for b in 0..n {
            for _ in 0..rng.random_range(1..=3u32) {
                at += rng.random_range(0..=10u64);
                let len = rng.random_range(1..=20u64);
                let name = trainer_spans[rng.random_range(0..trainer_spans.len())];
                trace.record_span(name, b, at, at + len);
                keys.insert((phase, b));
                at += len;
            }
        }
    }
    let worker_spans = [spans::PREP_SAMPLE, spans::PREP_SLICE, spans::PREP_COPY, spans::SLOT_WAIT];
    for _ in 0..rng.random_range(1..=3u32) {
        let mut plan = Vec::new();
        for (phase, &n) in batches.iter().enumerate() {
            for _ in 0..rng.random_range(0..=6u32) {
                let at = phase as u64 * PHASE + rng.random_range(1..PHASE - 50);
                let len = rng.random_range(1..=40u64);
                if rng.random_range(0..4u32) == 0 {
                    let ring = [spans::DDP_RING_SEND, spans::DDP_RING_RECV][rng.random_range(0..2usize)];
                    plan.push((ring, rng.random_range(0..100u64), at, at + len));
                } else {
                    let b = rng.random_range(0..n);
                    keys.insert((phase, b));
                    let name = worker_spans[rng.random_range(0..worker_spans.len())];
                    plan.push((name, b, at, at + len));
                }
            }
        }
        let t = trace.clone();
        std::thread::spawn(move || {
            for (name, b, s, e) in plan {
                t.record_span(name, b, s, e);
            }
        })
        .join()
        .unwrap();
    }
    for phase in 0..closed as u64 {
        trace.record_span(spans::EPOCH, NO_BATCH, phase * PHASE, (phase + 1) * PHASE);
    }
    (trace.snapshot(), keys)
}

/// One attribution pass over random multi-thread traces: chain categories
/// partition each chain's extent, chains are keyed by (epoch, batch id),
/// stage shares sum to 100, `other` decomposes exactly, and overlap never
/// exceeds compute.
#[test]
fn attribution_partitions_random_traces() {
    use salient_repro::trace::attribute;

    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(9100 + seed);
        let (snap, keys) = random_pipeline_trace(&mut rng);
        let a = attribute(&snap);
        for c in &a.chains {
            let at = c.attribute();
            let lo = c.edges.iter().map(|e| e.start_ns).min().unwrap();
            let hi = c.edges.iter().map(|e| e.end_ns).max().unwrap();
            assert_eq!(at.total_ns, hi - lo, "seed {seed}: {c:?}");
            let sum: u64 = at.categories().iter().map(|&(_, ns)| ns).sum();
            assert_eq!(sum, at.total_ns, "seed {seed}: {at:?}");
        }
        let got: std::collections::BTreeSet<(usize, u64)> =
            a.chains.iter().map(|c| (c.epoch, c.batch)).collect();
        assert_eq!(got, keys, "seed {seed}");
        assert_eq!(got.len(), a.chains.len(), "seed {seed}: one chain per key");

        let r = &a.report;
        if r.window_ns > 0 {
            let pcts: f64 = r.stage_pcts().iter().sum();
            assert!((pcts - 100.0).abs() < 1e-9, "seed {seed}: {pcts}");
        }
        assert_eq!(r.fill_ns + r.idle_ns + r.shutdown_ns, r.other_ns, "seed {seed}");
        assert!(r.overlap_ns <= r.compute_ns, "seed {seed}: {r:?}");
    }
}
