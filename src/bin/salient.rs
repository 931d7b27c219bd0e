//! The `salient` command-line interface: train, evaluate, sample, and rerun
//! the paper's evaluation from the shell.
//!
//! ```text
//! salient train    [--dataset arxiv|products|papers] [--scale F] [--model sage|gat|gin|sage-ri]
//!                  [--epochs N] [--batch N] [--hidden N] [--lr F] [--ranks N]
//!                  [--executor baseline|salient] [--save PATH]
//! salient eval     --load PATH [--dataset ...] [--scale F] [--fanout D]
//! salient paper    <table1..table7|fig1..fig6> [--scale F] [--reps N] [--epochs N] [--rounds N]
//! salient sample   [--dataset ...] [--scale F] [--batch N]
//! ```
//!
//! `SALIENT_DTYPE=f16|f32` sets the feature store's element type (default
//! f16). A value no flag or variable accepts is an error, not the default.

#![expect(clippy::disallowed_methods, reason = "CLI entry point: a bad flag or a failed run ends the process with a status, after its message is printed")]

use salient_repro::bench::paper;
use salient_repro::core::checkpoint::Checkpoint;
use salient_repro::core::{train_ddp, ExecutorKind, RunConfig, Trainer};
use salient_repro::graph::{Dataset, DatasetConfig};
use salient_repro::nn::ModelKind;
use salient_repro::sampler::FastSampler;
use salient_repro::tensor::Dtype;
use std::sync::Arc;

/// A bad flag or environment value: says what was accepted and exits with
/// status 2, so a typo cannot run as the default.
fn usage_error(msg: String) -> ! {
    eprintln!("salient: {msg}");
    std::process::exit(2);
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

fn build_dataset(args: &[String]) -> Arc<Dataset> {
    let scale = positive_real(args, "--scale", 0.15);
    let presets: [(&str, fn(f64) -> DatasetConfig); 3] = [
        ("arxiv", DatasetConfig::arxiv_sim),
        ("products", DatasetConfig::products_sim),
        ("papers", DatasetConfig::papers_sim),
    ];
    let mut cfg = choice(args, "--dataset", &presets)(scale);
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
    let cfg = run_config(args);
    let ranks = positive(args, "--ranks", 1);
    let ds = build_dataset(args);
    if ranks > 1 {
        eprintln!("training with {ranks} data-parallel ranks...");
        let result = match train_ddp(&ds, &cfg, ranks) {
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
            "epoch {}: loss {:.4}  ({:.2}s; prep {:.2}s xfer {:.2}s train {:.2}s)",
            stats.epoch,
            stats.mean_loss,
            stats.timings.total_s,
            stats.timings.prep_s,
            stats.timings.transfer_s,
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
    let artifacts: [(&str, Run); 13] = [
        ("table1", |_| Ok(paper::table1())),
        ("table2", |a| Ok(paper::table2(positive_real(a, "--scale", 0.25)))),
        ("table3", |_| Ok(paper::table3())),
        ("table4", |a| Ok(paper::table4(positive_real(a, "--scale", 0.2)))),
        ("table5", |_| Ok(paper::table5())),
        ("table6", |a| {
            let (scale, reps, epochs) =
                (positive_real(a, "--scale", 0.15), positive(a, "--reps", 3), positive(a, "--epochs", 30));
            Ok(paper::table6(scale, reps, epochs))
        }),
        ("table7", |_| Ok(paper::table7())),
        ("fig1", |_| Ok(paper::fig1())),
        ("fig2", |a| {
            let (scale, reps, rounds) =
                (positive_real(a, "--scale", 0.25), positive(a, "--reps", 5), positive(a, "--rounds", 5));
            Ok(paper::fig2(scale, reps, rounds))
        }),
        ("fig3", |a| Ok(paper::fig3(positive_real(a, "--scale", 0.2), positive(a, "--epochs", 30)))),
        ("fig4", |a| paper::fig4(positive_real(a, "--scale", 0.15))),
        ("fig5", |_| Ok(paper::fig5())),
        ("fig6", |a| paper::fig6(positive_real(a, "--scale", 0.08), positive(a, "--epochs", 25))),
    ];
    let name = args.get(1).map_or("", String::as_str);
    let Some(&(name, run)) = artifacts.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = artifacts.iter().map(|&(n, _)| n).collect();
        usage_error(format!("paper {name:?}: expected one of {}", names.join(", ")))
    };
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
    let batch = positive(args, "--batch", 256);
    let mut sampler = FastSampler::new(flag_or(args, "--seed", 0));
    let ds = build_dataset(args);
    let seeds: Vec<u32> = ds.splits.train.iter().copied().take(batch).collect();
    let mfg = sampler.sample(&ds.graph, &seeds, &[15, 10, 5]);
    println!("batch of {}: {} nodes, {} edges", seeds.len(), mfg.num_nodes(), mfg.num_edges());
    for (i, l) in mfg.layers.iter().enumerate() {
        println!("  layer {i}: {} -> {} rows, {} edges", l.n_src, l.n_dst, l.num_edges());
    }
    println!(
        "  transfer payload: {} KB features (f16) + {} KB structure",
        mfg.num_nodes() * ds.features.dim() * 2 / 1024,
        mfg.structure_bytes() / 1024
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
