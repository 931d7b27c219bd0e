//! The `salient` binary's input handling: a value no flag or variable accepts
//! is an error that names what is accepted, never a silent default.

use std::process::Command;

/// Runs `salient <subcommand> <args>` with every variable the binary reads
/// cleared, so an ambient value cannot leak in, and then `env` set; returns
/// its exit code and what it wrote to stderr.
fn run(subcommand: &str, args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_salient"));
    cmd.arg(subcommand).args(args);
    for var in ["SALIENT_DTYPE", "SALIENT_FAULT_SPEC", "SALIENT_FAULT_SEED"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    let out = cmd.output().expect("the salient binary runs");
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
    // An unknown artifact is named, and so is every one accepted.
    const FIG9: &[&str] = &[
        "\"fig9\"", "table1", "table2", "table3", "table4", "table5", "table6", "table7", "fig1",
        "fig2", "fig3", "fig4", "fig5", "fig6",
    ];
    let cases: [(&str, &[&str], Option<&str>, &[&str]); 25] = [
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

#[test]
fn accepted_values_match_case_insensitively() {
    let args = ["--model", "sage-ri", "--dataset", "ARXIV", "--scale", "0.01", "--epochs", "1"];
    let (code, stderr) = salient("train", &args, Some("F32"));
    assert_eq!(code, Some(0), "{stderr}");
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
