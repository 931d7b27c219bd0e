//! The `salient` binary's input handling: a value no flag or variable accepts
//! is an error that names what is accepted, never a silent default.

use std::process::Command;

/// Runs `salient train <args>` with `SALIENT_DTYPE` set to `dtype` (unset
/// when `None`); returns whether it succeeded and what it wrote to stderr.
fn train(args: &[&str], dtype: Option<&str>) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_salient"));
    cmd.arg("train").args(args).env_remove("SALIENT_DTYPE");
    if let Some(dtype) = dtype {
        cmd.env("SALIENT_DTYPE", dtype);
    }
    let out = cmd.output().expect("the salient binary runs");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unaccepted_values_exit_non_zero_and_name_the_accepted_ones() {
    let cases: [(&[&str], Option<&str>, &[&str]); 6] = [
        (&["--model", "gta"], None, &["--model", "SAGE", "GAT", "GIN", "SAGE-RI"]),
        (&["--executor", "pyg"], None, &["--executor", "salient", "baseline"]),
        (&["--dataset", "reddit"], None, &["--dataset", "arxiv", "products", "papers"]),
        (&["--epochs", "ten"], None, &["--epochs", "\"ten\"", "number"]),
        (&["--epochs"], None, &["--epochs", "value"]),
        (&[], Some("fp32"), &["SALIENT_DTYPE", "f16", "f32"]),
    ];
    for (args, dtype, expected) in cases {
        let (ok, stderr) = train(args, dtype);
        assert!(!ok, "{args:?} {dtype:?} ran instead of failing");
        for word in expected {
            assert!(stderr.contains(word), "{args:?} {dtype:?}: no {word:?} in {stderr:?}");
        }
    }
}

#[test]
fn accepted_values_match_case_insensitively() {
    let args = ["--model", "sage-ri", "--dataset", "ARXIV", "--scale", "0.01", "--epochs", "1"];
    let (ok, stderr) = train(&args, Some("F32"));
    assert!(ok, "{stderr}");
}
