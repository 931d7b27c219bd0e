//! The `salient` binary's input handling: a value no flag or variable accepts
//! is an error that names what is accepted, never a silent default.

use std::process::Command;

/// `salient <subcommand> <args>` with every variable the binary reads
/// cleared, so an ambient value cannot leak in, and then `env` set.
fn command(subcommand: &str, args: &[&str], env: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_salient"));
    cmd.arg(subcommand).args(args);
    for var in ["SALIENT_DTYPE", "SALIENT_FAULT_SPEC", "SALIENT_FAULT_SEED"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    cmd
}

/// Runs [`command`]; returns its exit code and what it wrote to stderr.
fn run(subcommand: &str, args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String) {
    let out = command(subcommand, args, env).output().expect("the salient binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// [`run`] with `SALIENT_DTYPE` set to `dtype` (unset when `None`).
fn salient(subcommand: &str, args: &[&str], dtype: Option<&str>) -> (Option<i32>, String) {
    let env: Vec<(&str, &str)> = dtype.map(|d| ("SALIENT_DTYPE", d)).into_iter().collect();
    run(subcommand, args, &env)
}

#[test]
fn unaccepted_values_exit_non_zero_and_name_the_accepted_ones() {
    const POSITIVE: &str = "expected a positive number";
    const NODE_ID_BOUND: &str = "within the NodeId bound of 4294967295";
    // An unknown artifact is named, and so is every one accepted.
    const FIG9: &[&str] = &[
        "\"fig9\"", "table1", "table2", "table3", "table4", "table5", "table6", "table7", "fig1",
        "fig2", "fig3", "fig4", "fig5", "fig6",
    ];
    let cases: [(&str, &[&str], Option<&str>, &[&str]); 31] = [
        ("train", &["--model", "gta"], None, &["--model", "SAGE", "GAT", "GIN", "SAGE-RI"]),
        ("train", &["--executor", "pyg"], None, &["--executor", "salient", "baseline"]),
        ("train", &["--dataset", "reddit"], None, &["--dataset", "arxiv", "products", "papers"]),
        ("train", &["--epochs", "ten"], None, &["--epochs", "\"ten\"", "number"]),
        ("train", &["--epochs"], None, &["--epochs", "value"]),
        ("train", &[], Some("fp32"), &["SALIENT_DTYPE", "f16", "f32"]),
        ("train", &["--batch", "0"], None, &["--batch", POSITIVE]),
        ("train", &["--hidden", "0"], None, &["--hidden", POSITIVE]),
        ("train", &["--workers", "0"], None, &["--workers", POSITIVE]),
        ("eval", &[], None, &["--load", "required"]),
        ("paper", &["fig9"], None, FIG9),
        ("paper", &["table6", "--scale", "abc"], None, &["--scale", "\"abc\"", "number"]),
        ("sample", &["--batch", "0"], None, &["--batch", POSITIVE]),
        ("sample", &["--scale", "0"], None, &["--scale", POSITIVE]),
        ("train", &["--scale", "inf"], None, &["--scale", POSITIVE]),
        ("paper", &["fig2", "--reps", "0"], None, &["--reps", POSITIVE]),
        ("paper", &["fig2", "--rounds", "0"], None, &["--rounds", POSITIVE]),
        ("paper", &["table6", "--reps", "0"], None, &["--reps", POSITIVE]),
        ("paper", &["fig3", "--epochs", "0"], None, &["--epochs", POSITIVE]),
        ("paper", &["table4", "--scale", "-1"], None, &["--scale", POSITIVE]),
        ("paper", &["table2", "--scale", "0"], None, &["--scale", POSITIVE]),
        ("paper", &["fig4", "--scale", "NaN"], None, &["--scale", POSITIVE]),
        ("train", &["--ranks", "0"], None, &["--ranks", POSITIVE]),
        ("train", &["--ranks", "abc"], None, &["--ranks", "\"abc\"", "number"]),
        ("train", &["--lr", "nan"], None, &["--lr", POSITIVE]),
        ("sample", &["--scale", "1e30"], None, &["--scale", NODE_ID_BOUND]),
        ("paper", &["table6", "--scale", "1e30"], None, &["--scale", NODE_ID_BOUND]),
        // A flag the subcommand does not read is named with the ones it does.
        ("train", &["--epoch", "1"], None, &["\"--epoch\"", "--epochs", "--workers", "--save"]),
        ("paper", &["fig3", "--reps", "5"], None, &["paper fig3", "\"--reps\"", "--scale", "--epochs"]),
        ("paper", &["table1", "--scale", "0.1"], None, &["paper table1", "\"--scale\"", "none"]),
        ("sample", &["--fanout", "5"], None, &["\"--fanout\"", "--batch", "--seed", "--dataset"]),
    ];
    for (sub, args, dtype, expected) in cases {
        let (code, stderr) = salient(sub, args, dtype);
        assert_eq!(code, Some(2), "{sub} {args:?} {dtype:?} did not exit 2: {stderr}");
        assert!(!stderr.contains(" nodes, "), "{sub} {args:?} {dtype:?} built a dataset first");
        for word in expected {
            assert!(stderr.contains(word), "{sub} {args:?} {dtype:?}: no {word:?} in {stderr:?}");
        }
    }
}

/// Every flag `train` reads is accepted, and a choice matches whatever its
/// case.
#[test]
fn accepted_values_match_case_insensitively() {
    let args = [
        "--model", "sage-ri", "--dataset", "ARXIV", "--scale", "0.01", "--epochs", "1", "--batch",
        "128", "--hidden", "16", "--lr", "0.01", "--ranks", "1", "--executor", "Salient",
        "--workers", "1", "--seed", "3", "--comm-timeout-ms", "1000",
    ];
    let (code, stderr) = salient("train", &args, Some("F32"));
    assert_eq!(code, Some(0), "{stderr}");
}

/// A `--batch` larger than the graph trains its epoch and evaluates: the
/// evaluation's staging slot is sized for at most the graph's nodes, not for
/// the flag (a billion rows of features, which aborted the process on a
/// failed allocation).
#[test]
fn a_batch_larger_than_the_graph_trains_and_evaluates() {
    let args = ["--scale", "0.01", "--epochs", "1", "--batch", "1000000000", "--hidden", "16"];
    let (code, stderr) = salient("train", &args, None);
    assert_eq!(code, Some(0), "{stderr}");
}

/// `sample` prices the feature payload at the store's dtype: f32 rows are
/// twice the bytes of the same f16 rows.
#[test]
fn sample_reports_the_payload_at_the_store_dtype() {
    let args = ["--scale", "0.01", "--batch", "8"];
    let payload = |dtype: &str| -> u64 {
        let out = command("sample", &args, &[("SALIENT_DTYPE", dtype)]).output();
        let out = out.expect("the salient binary runs");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().find(|l| l.contains("transfer payload")).expect("a payload line");
        assert!(line.contains(&format!("features ({dtype})")), "{dtype} not named: {line:?}");
        let bytes = line.split_whitespace().nth(2).expect("a byte count");
        bytes.parse().unwrap_or_else(|_| panic!("{bytes:?} in {line:?} is not a byte count"))
    };
    let (half, full) = (payload("f16"), payload("f32"));
    assert!(half > 0);
    assert_eq!(full, 2 * half, "f16 {half} bytes, f32 {full} bytes");
}

#[test]
fn a_checkpoint_that_cannot_be_read_or_written_exits_1_with_the_error() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_checkpoints");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let missing = dir.join("missing.ckpt");
    let _ = std::fs::remove_file(&missing);
    let junk = dir.join("junk.ckpt");
    std::fs::write(&junk, b"not a checkpoint, just bytes \x00\xff\x13").expect("junk written");
    let unwritable = dir.join("no-such-directory").join("out.ckpt");
    let (missing, junk, unwritable) =
        (missing.to_str().unwrap(), junk.to_str().unwrap(), unwritable.to_str().unwrap());
    let cases: [(&str, &[&str], &[&str]); 3] = [
        ("eval", &["--load", missing], &["cannot read checkpoint", missing, "i/o"]),
        ("eval", &["--load", junk], &["cannot read checkpoint", junk, "corrupt"]),
        (
            "train",
            &["--scale", "0.01", "--epochs", "1", "--save", unwritable],
            &["cannot save checkpoint", unwritable],
        ),
    ];
    for (sub, args, expected) in cases {
        let (code, stderr) = salient(sub, args, None);
        assert_eq!(code, Some(1), "{sub} {args:?} did not exit 1: {stderr}");
        assert!(!stderr.contains("panicked"), "{sub} {args:?} panicked: {stderr}");
        for word in expected {
            assert!(stderr.contains(word), "{sub} {args:?}: no {word:?} in {stderr:?}");
        }
    }
    // A file that cannot be read costs no dataset build.
    assert!(!salient("eval", &["--load", missing], None).1.contains(" nodes, "));
}

/// `SALIENT_FAULT_SPEC` and `SALIENT_FAULT_SEED` are read before any
/// subcommand runs: a spec naming an unknown site, or a seed that is not a
/// `u64`, exits 2 naming the variable; a valid spec arms its plan and the
/// run goes on (this one names a site `sample` never reaches).
#[test]
fn fault_injection_variables_are_checked_before_anything_runs() {
    let spec = ("SALIENT_FAULT_SPEC", "ckpt.write=panic@0");
    let args = ["--scale", "0.01", "--batch", "8"];
    let cases: [(&[(&str, &str)], &[&str]); 2] = [
        (
            &[("SALIENT_FAULT_SPEC", "prep.smaple=panic@3")],
            &["SALIENT_FAULT_SPEC", "unknown fault site", "\"prep.smaple\"", "prep.sample"],
        ),
        (&[spec, ("SALIENT_FAULT_SEED", "forty-two")], &["SALIENT_FAULT_SEED", "u64", "\"forty-two\""]),
    ];
    for (env, expected) in cases {
        let (code, stderr) = run("sample", &args, env);
        assert_eq!(code, Some(2), "{env:?} did not exit 2: {stderr}");
        assert!(!stderr.contains(" nodes, "), "{env:?} built a dataset first");
        for word in expected {
            assert!(stderr.contains(word), "{env:?}: no {word:?} in {stderr:?}");
        }
    }
    let (code, stderr) = run("sample", &args, &[spec, ("SALIENT_FAULT_SEED", "42")]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("fault injection armed"), "{stderr}");
}

/// The interim convergence gate of the amx rung: the same `salient train`
/// run (products-sim at 0.1, hidden 128, batch 256 — every hidden layer's
/// products cross the bf16 threshold) on the avx512 rung and on the amx
/// rung. Both runs' losses fall and their test accuracies agree within one
/// point. The task is near saturation at this size, so the gate is weak: it
/// catches a rung that does not train, not one that trains a little worse.
/// A process that does not itself run the amx rung (no AMX, or a pinned
/// `SALIENT_GEMM_KERNEL`) skips it with a notice.
#[test]
fn the_amx_rung_trains_as_the_avx512_rung_does() {
    let rung = salient_repro::tensor::kernels::gemm_kernel_level();
    if rung != "amx" {
        eprintln!("amx convergence gate skipped: this process runs the {rung} rung, not amx");
        return;
    }
    let args = ["--dataset", "products", "--scale", "0.1", "--hidden", "128", "--batch", "256", "--epochs", "5", "--workers", "1"];
    let train = |kernel: &str| -> (Vec<f64>, f64) {
        let out = command("train", &args, &[("SALIENT_GEMM_KERNEL", kernel)]).output().expect("the salient binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{kernel}: train failed: {}", String::from_utf8_lossy(&out.stderr));
        let number = |field: &str| field.trim().trim_end_matches(',').parse::<f64>().ok();
        let losses: Vec<f64> = stdout
            .lines()
            .filter(|l| l.starts_with("epoch "))
            .filter_map(|l| l.split("loss ").nth(1)?.split_whitespace().next().and_then(number))
            .collect();
        let test = stdout.lines().find_map(|l| number(l.split("test accuracy ").nth(1)?));
        (losses, test.unwrap_or_else(|| panic!("{kernel}: no test accuracy in {stdout:?}")))
    };
    let (f32_losses, f32_test) = train("avx512");
    let (amx_losses, amx_test) = train("amx");
    for (kernel, losses) in [("avx512", &f32_losses), ("amx", &amx_losses)] {
        assert_eq!(losses.len(), 5, "{kernel}: {losses:?}");
        assert!(losses.windows(2).all(|w| w[1] < w[0]), "{kernel}: the loss did not fall every epoch: {losses:?}");
    }
    assert!(
        (f32_test - amx_test).abs() <= 0.01,
        "test accuracy {amx_test} on the amx rung against {f32_test} on avx512 (losses {amx_losses:?} against {f32_losses:?})"
    );
}
