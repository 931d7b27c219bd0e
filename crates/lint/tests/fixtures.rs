//! Fixture-based rule tests.
//!
//! Each file under `tests/fixtures/` breaks (or deliberately honors) one
//! half of the lock-discipline rule; the assertions here pin the findings
//! the engine must produce. The fixture directory is excluded from the
//! workspace walk, so these deliberately rule-breaking files never pollute
//! the live report.

use salient_lint::rules::lock_discipline;
use salient_lint::{Diagnostic, SourceFile};
use std::collections::BTreeMap;
use std::path::Path;

/// Parses a fixture under a synthetic workspace path so lock identities
/// resolve to the `fixture` crate.
fn parse(name: &str) -> SourceFile {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
    SourceFile::parse(format!("crates/fixture/src/{name}"), &text)
}

fn lock_order_findings(f: &SourceFile) -> Vec<Diagnostic> {
    let summaries = lock_discipline::extract(f);
    let files: BTreeMap<String, &SourceFile> = [(f.path.clone(), f)].into_iter().collect();
    let mut out = Vec::new();
    lock_discipline::check_order(&summaries, &files, &mut out);
    out
}

#[test]
fn opposite_lock_orders_form_a_cycle() {
    let out = lock_order_findings(&parse("bad_lock_cycle.rs"));
    assert!(out.iter().any(|d| d.message.contains("cycle")), "{out:?}");
    let msg = &out[0].message;
    assert!(msg.contains("fixture::a") && msg.contains("fixture::b"), "{msg}");
}

#[test]
fn consistent_lock_order_is_clean() {
    let out = lock_order_findings(&parse("good_lock_order.rs"));
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn unjustified_relaxed_is_flagged_once() {
    let f = parse("bad_relaxed.rs");
    let mut out = Vec::new();
    lock_discipline::check_relaxed(&f, &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].line, 6);
}
