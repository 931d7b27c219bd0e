//! The `salient` command-line interface: train, evaluate, sample, and rerun
//! the paper's evaluation from the shell.
//!
//! ```text
//! salient train    [--dataset arxiv|products|papers] [--scale F] [--model sage|gat|gin|sage-ri]
//!                  [--epochs N] [--batch N] [--hidden N] [--lr F] [--ranks N]
//!                  [--executor baseline|salient] [--workers N] [--seed N]
//!                  [--comm-timeout-ms N] [--save PATH]
//! salient eval     --load PATH [--dataset ...] [--scale F] [--fanout D] [train's model flags]
//! salient paper    <table1..table7|fig1..fig6> [--scale F] [--reps N] [--epochs N] [--rounds N]
//! salient sample   [--dataset ...] [--scale F] [--batch N] [--seed N]
//! ```
//!
//! Each `paper` artifact reads only the flags its run takes (`table2 --scale`,
//! `fig2 --scale --reps --rounds`, ...; the simulated ones none).
//!
//! `SALIENT_DTYPE=f16|f32` sets the feature store's element type (default
//! f16). A value no flag or variable accepts is an error, not the default,
//! and so is a flag the subcommand does not read.

#![expect(clippy::disallowed_methods, reason = "CLI entry point: a bad flag or a failed run ends the process with a status, after its message is printed")]

use salient_repro::bench::paper;
use salient_repro::core::checkpoint::Checkpoint;
use salient_repro::core::{train_ddp, ExecutorKind, RunConfig, Trainer};
use salient_repro::graph::{Dataset, DatasetConfig, NodeId};
use salient_repro::nn::ModelKind;
use salient_repro::sampler::FastSampler;
use salient_repro::tensor::Dtype;
use salient_repro::trace::Trace;
use std::sync::Arc;

/// A bad flag or environment value: says what was accepted and exits with
/// status 2, so a typo cannot run as the default.
fn usage_error(msg: String) -> ! {
    eprintln!("salient: {msg}");
    std::process::exit(2);
}

/// Exits 2 on a `--` argument that is not among `accepted`, so a misspelled
/// or unread flag cannot run as the default. Every flag takes a value, which
/// is skipped unread.
fn only_flags(args: &[String], context: &str, accepted: &[&str]) {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        if !accepted.contains(&arg.as_str()) {
            let names = if accepted.is_empty() { "none".to_string() } else { accepted.join(", ") };
            usage_error(format!("{context}: unknown flag {arg:?}; accepted: {names}"));
        }
        rest.next();
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    let value = args.get(i + 1).cloned();
    Some(value.unwrap_or_else(|| usage_error(format!("{name} needs a value"))))
}

fn flag_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    let Some(v) = flag(args, name) else {
        return default;
    };
    v.parse().unwrap_or_else(|_| {
        let ty = std::any::type_name::<T>();
        usage_error(format!("{name} {v:?}: expected a number ({ty})"))
    })
}

/// A count flag that must be at least 1: rejected here, before a dataset is
/// built, rather than by `RunConfig::validate` after it.
fn positive(args: &[String], name: &str, default: usize) -> usize {
    let n = flag_or(args, name, default);
    if n == 0 {
        usage_error(format!("{name} 0: expected a positive number"));
    }
    n
}

/// A size, scale or rate flag: a finite number above zero.
fn positive_real<T: std::str::FromStr + Into<f64> + Copy>(args: &[String], name: &str, default: T) -> T {
    let x = flag_or(args, name, default);
    let v: f64 = x.into();
    if !(v.is_finite() && v > 0.0) {
        usage_error(format!("{name} {v}: expected a positive number"));
    }
    x
}

/// The dataset presets `--dataset` names, the default first.
const PRESETS: [(&str, fn(f64) -> DatasetConfig); 3] = [
    ("arxiv", DatasetConfig::arxiv_sim),
    ("products", DatasetConfig::products_sim),
    ("papers", DatasetConfig::papers_sim),
];

/// `--scale`: a positive real at which every preset's node count still fits
/// a `NodeId`, checked before a dataset is built.
fn scale(args: &[String], default: f64) -> f64 {
    let s = positive_real(args, "--scale", default);
    let nodes = PRESETS.iter().map(|(_, preset)| preset(s).num_nodes).max().unwrap_or(0);
    if NodeId::try_from(nodes).is_err() {
        usage_error(format!(
            "--scale {s}: expected every preset's node count within the NodeId bound of {}, the largest would be {nodes}",
            NodeId::MAX
        ));
    }
    s
}

/// A run that cannot go on for a reason outside the program (a file that
/// cannot be read or written): prints `what: err` and exits with status 1.
fn fail(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("salient: {what}: {err}");
    std::process::exit(1);
}

/// The flag's value looked up among `accepted` names (case-insensitive);
/// the first of them when the flag is absent.
fn choice<T: Copy>(args: &[String], name: &str, accepted: &[(&str, T)]) -> T {
    let Some(v) = flag(args, name) else {
        return accepted[0].1;
    };
    match accepted.iter().find(|(n, _)| n.eq_ignore_ascii_case(&v)) {
        Some(&(_, value)) => value,
        None => {
            let names: Vec<&str> = accepted.iter().map(|&(n, _)| n).collect();
            usage_error(format!("{name} {v:?}: expected one of {}", names.join(", ")))
        }
    }
}

/// The flags [`build_dataset`] reads.
const DATASET_FLAGS: [&str; 2] = ["--dataset", "--scale"];

fn build_dataset(args: &[String]) -> Arc<Dataset> {
    let scale = scale(args, 0.15);
    let mut cfg = choice(args, "--dataset", &PRESETS)(scale);
    // CLI runs want trainable label densities at sim scale.
    cfg.split_fracs = (0.5, 0.1, 0.4);
    // The one read of SALIENT_DTYPE: the presets store f16 rows.
    if let Some(v) = std::env::var_os("SALIENT_DTYPE") {
        cfg.dtype = v.to_str().and_then(Dtype::parse).unwrap_or_else(|| {
            usage_error(format!("SALIENT_DTYPE={v:?}: expected f16 or f32"))
        });
    }
    let ds = Arc::new(cfg.build());
    eprintln!(
        "dataset {}: {} nodes, {} edges, {} classes",
        ds.name,
        ds.graph.num_nodes(),
        ds.graph.num_edges(),
        ds.num_classes
    );
    ds
}

/// The flags [`run_config`] reads.
const RUN_FLAGS: [&str; 9] = [
    "--model", "--executor", "--hidden", "--batch", "--lr", "--epochs", "--workers", "--seed",
    "--comm-timeout-ms",
];

fn run_config(args: &[String]) -> RunConfig {
    let models = ModelKind::all().map(|k| (k.name(), k));
    let executors = [("salient", ExecutorKind::Salient), ("baseline", ExecutorKind::Baseline)];
    RunConfig {
        model: choice(args, "--model", &models),
        executor: choice(args, "--executor", &executors),
        num_layers: 3,
        hidden: positive(args, "--hidden", 64),
        train_fanouts: vec![15, 10, 5],
        infer_fanouts: vec![20, 20, 20],
        batch_size: positive(args, "--batch", 128),
        learning_rate: positive_real(args, "--lr", 5e-3),
        epochs: flag_or(args, "--epochs", 10),
        num_workers: positive(args, "--workers", 2),
        slots: 4,
        seed: flag_or(args, "--seed", 0),
        comm_timeout_ms: flag_or(args, "--comm-timeout-ms", 5_000),
    }
}

fn cmd_train(args: &[String]) {
    // Flags first: a typo should not cost a dataset build.
    only_flags(&args[1..], "train", &[&RUN_FLAGS[..], &DATASET_FLAGS, &["--ranks", "--save"]].concat());
    let cfg = run_config(args);
    let ranks = positive(args, "--ranks", 1);
    let ds = build_dataset(args);
    if ranks > 1 {
        eprintln!("training with {ranks} data-parallel ranks...");
        let result = match train_ddp(&ds, &cfg, ranks, &Trace::disabled()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("distributed run failed: {e}");
                std::process::exit(1);
            }
        };
        for (e, l) in result.epoch_losses.iter().enumerate() {
            println!("epoch {e}: loss {l:.4}");
        }
        println!("wall: {:.2}s", result.wall_s);
        if let Some(path) = flag(args, "--save") {
            let saved = Checkpoint::from_model(result.model.as_ref()).save(&path);
            saved.unwrap_or_else(|e| fail(&format!("cannot save checkpoint {path}"), e));
            println!("saved checkpoint to {path}");
        }
        return;
    }
    let mut trainer = Trainer::new(Arc::clone(&ds), cfg);
    for stats in trainer.fit() {
        println!(
            "epoch {}: loss {:.4}  ({:.2}s; prep {:.2}s train {:.2}s)",
            stats.epoch,
            stats.mean_loss,
            stats.timings.total_s,
            stats.timings.prep_s,
            stats.timings.train_s
        );
    }
    let (val, _) = trainer.evaluate_sampled(&ds.splits.val.clone(), &[20, 20, 20]);
    let (test, _) = trainer.evaluate_sampled(&ds.splits.test.clone(), &[20, 20, 20]);
    println!("val accuracy {val:.4}, test accuracy {test:.4}");
    if let Some(path) = flag(args, "--save") {
        let saved = Checkpoint::from_model(trainer.model()).save(&path);
        saved.unwrap_or_else(|e| fail(&format!("cannot save checkpoint {path}"), e));
        println!("saved checkpoint to {path}");
    }
}

fn cmd_eval(args: &[String]) {
    only_flags(&args[1..], "eval", &[&RUN_FLAGS[..], &DATASET_FLAGS, &["--load", "--fanout"]].concat());
    let path = flag(args, "--load")
        .unwrap_or_else(|| usage_error("eval: --load PATH is required".to_string()));
    let cfg = run_config(args);
    let d: usize = flag_or(args, "--fanout", 20);
    // The file before the dataset: a bad path should not cost a build.
    let ckpt = Checkpoint::load(&path).unwrap_or_else(|e| fail(&format!("cannot read checkpoint {path}"), e));
    let ds = build_dataset(args);
    let mut trainer = Trainer::new(Arc::clone(&ds), cfg);
    ckpt.apply_to_model(trainer.model_mut())
        .unwrap_or_else(|e| fail(&format!("checkpoint {path} does not fit the model"), e));
    let (acc, _) = trainer.evaluate_sampled(&ds.splits.test.clone(), &[d, d, d]);
    println!("test accuracy at fanout ({d},{d},{d}): {acc:.4}");
}

/// `salient paper <artifact>`: one table or figure of the paper's
/// evaluation. The text goes to stdout and each claim to stderr; a claim
/// that does not hold, or a run that cannot finish, exits with status 1.
fn cmd_paper(args: &[String]) {
    type Run = fn(&[String]) -> Result<(String, Vec<paper::Claim>), String>;
    const NONE: &[&str] = &[];
    let artifacts: [(&str, &[&str], Run); 13] = [
        ("table1", NONE, |_| Ok(paper::table1())),
        ("table2", &["--scale"], |a| Ok(paper::table2(scale(a, 0.25)))),
        ("table3", NONE, |_| Ok(paper::table3())),
        ("table4", &["--scale"], |a| Ok(paper::table4(scale(a, 0.2)))),
        ("table5", NONE, |_| Ok(paper::table5())),
        ("table6", &["--scale", "--reps", "--epochs"], |a| {
            let (scale, reps, epochs) =
                (scale(a, 0.15), positive(a, "--reps", 3), positive(a, "--epochs", 30));
            Ok(paper::table6(scale, reps, epochs))
        }),
        ("table7", NONE, |_| Ok(paper::table7())),
        ("fig1", NONE, |_| Ok(paper::fig1())),
        ("fig2", &["--scale", "--reps", "--rounds"], |a| {
            let (scale, reps, rounds) =
                (scale(a, 0.25), positive(a, "--reps", 5), positive(a, "--rounds", 5));
            Ok(paper::fig2(scale, reps, rounds))
        }),
        ("fig3", &["--scale", "--epochs"], |a| Ok(paper::fig3(scale(a, 0.2), positive(a, "--epochs", 30)))),
        ("fig4", &["--scale"], |a| paper::fig4(scale(a, 0.15))),
        ("fig5", NONE, |_| Ok(paper::fig5())),
        ("fig6", &["--scale", "--epochs"], |a| paper::fig6(scale(a, 0.08), positive(a, "--epochs", 25))),
    ];
    let name = args.get(1).map_or("", String::as_str);
    let Some(&(name, flags, run)) = artifacts.iter().find(|(n, ..)| *n == name) else {
        let names: Vec<&str> = artifacts.iter().map(|&(n, ..)| n).collect();
        usage_error(format!("paper {name:?}: expected one of {}", names.join(", ")))
    };
    only_flags(&args[2..], &format!("paper {name}"), flags);
    let (text, claims) = run(args).unwrap_or_else(|e| {
        eprintln!("salient paper {name}: {e}");
        std::process::exit(1);
    });
    print!("{text}");
    for c in &claims {
        let verdict = if c.holds { "holds" } else { "FAILED" };
        eprintln!("claim {verdict}: {} ({})", c.name, c.measured);
    }
    let failed: Vec<&str> = claims.iter().filter(|c| !c.holds).map(|c| c.name.as_str()).collect();
    if !failed.is_empty() {
        eprintln!("salient paper {name}: {} claim(s) failed: {}", failed.len(), failed.join("; "));
        std::process::exit(1);
    }
}

fn cmd_sample(args: &[String]) {
    only_flags(&args[1..], "sample", &[&DATASET_FLAGS[..], &["--batch", "--seed"]].concat());
    let batch = positive(args, "--batch", 256);
    let mut sampler = FastSampler::new(flag_or(args, "--seed", 0));
    let ds = build_dataset(args);
    let seeds: Vec<u32> = ds.splits.train.iter().copied().take(batch).collect();
    let mfg = sampler.sample(&ds.graph, &seeds, &[15, 10, 5]);
    println!("batch of {}: {} nodes, {} edges", seeds.len(), mfg.num_nodes(), mfg.num_edges());
    for (i, l) in mfg.layers.iter().enumerate() {
        println!("  layer {i}: {} -> {} rows, {} edges", l.n_src, l.n_dst, l.num_edges());
    }
    let dtype = ds.features.dtype();
    println!(
        "  transfer payload: {} bytes of features ({dtype}) + {} bytes of structure",
        mfg.num_nodes() * ds.features.dim() * dtype.size_of(),
        mfg.structure_bytes()
    );
}

fn main() {
    // Deterministic fault injection for resilience drills: set
    // SALIENT_FAULT_SEED / SALIENT_FAULT_SPEC to arm named injection
    // points (no-ops otherwise).
    match salient_repro::fault::install_from_env() {
        Ok(true) => eprintln!("fault injection armed from SALIENT_FAULT_SPEC"),
        Ok(false) => {}
        Err(e) => usage_error(e),
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args),
        Some("eval") => cmd_eval(&args),
        Some("paper") => cmd_paper(&args),
        Some("sample") => cmd_sample(&args),
        _ => {
            eprintln!("usage: salient <train|eval|paper|sample> [flags]");
            eprintln!("see module docs (src/bin/salient.rs) for flags");
            std::process::exit(2);
        }
    }
}
