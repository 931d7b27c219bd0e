//! Self-lint: the live workspace must stay at zero lock-discipline findings.
//!
//! This is the same pass `scripts/ci.sh` runs; keeping it as a cargo test
//! means `cargo test` alone catches a lock-order inversion or an unjustified
//! `Relaxed` without the CI wrapper. (The invariants clippy holds need
//! `cargo clippy`, which only the CI wrapper runs.)

use std::path::Path;

#[test]
fn workspace_has_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = salient_lint::run(&root).expect("lint pass");
    let bad: Vec<String> = report.diagnostics.iter().map(|d| d.render_text()).collect();
    assert!(bad.is_empty(), "lock-discipline findings:\n{}", bad.join("\n"));
    // Sanity: the walk actually covered the workspace.
    assert!(
        report.files_scanned > 50,
        "only {} files scanned — wrong root?",
        report.files_scanned
    );
}
