//! The `salient` binary's input handling: a value no flag or variable accepts
//! is an error that names what is accepted, never a silent default.

use std::process::Command;

/// Runs `salient <subcommand> <args>` with `SALIENT_DTYPE` set to `dtype`
/// (unset when `None`); returns whether it succeeded and what it wrote to
/// stderr.
fn salient(subcommand: &str, args: &[&str], dtype: Option<&str>) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_salient"));
    cmd.arg(subcommand).args(args).env_remove("SALIENT_DTYPE");
    if let Some(dtype) = dtype {
        cmd.env("SALIENT_DTYPE", dtype);
    }
    let out = cmd.output().expect("the salient binary runs");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unaccepted_values_exit_non_zero_and_name_the_accepted_ones() {
    const POSITIVE: &str = "expected a positive number";
    let cases: [(&str, &[&str], Option<&str>, &[&str]); 10] = [
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
    ];
    for (sub, args, dtype, expected) in cases {
        let (ok, stderr) = salient(sub, args, dtype);
        assert!(!ok, "{sub} {args:?} {dtype:?} ran instead of failing");
        assert!(!stderr.contains(" nodes, "), "{sub} {args:?} {dtype:?} built a dataset first");
        for word in expected {
            assert!(stderr.contains(word), "{sub} {args:?} {dtype:?}: no {word:?} in {stderr:?}");
        }
    }
}

#[test]
fn accepted_values_match_case_insensitively() {
    let args = ["--model", "sage-ri", "--dataset", "ARXIV", "--scale", "0.01", "--epochs", "1"];
    let (ok, stderr) = salient("train", &args, Some("F32"));
    assert!(ok, "{stderr}");
}
