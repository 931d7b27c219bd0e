//! Fixture-based rule tests.
//!
//! Each file under `tests/fixtures/` breaks (or deliberately honors) one
//! rule; the assertions here pin the exact diagnostics the engine must
//! produce. The fixture directory is excluded from the workspace walk, so
//! these deliberately rule-breaking files never pollute the live report.

use salient_lint::callgraph::CallGraph;
use salient_lint::parser::{parse_file, ParsedFile};
use salient_lint::rules::{self, lock_discipline};
use salient_lint::{Diagnostic, FileClass, SourceFile};
use std::collections::BTreeMap;
use std::path::Path;

fn load(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Parses a fixture under a synthetic workspace path so lock identities
/// resolve to the `fixture` crate.
fn parse(name: &str, class: FileClass) -> SourceFile {
    SourceFile::parse(format!("crates/fixture/src/{name}"), &load(name), class)
}

fn hot() -> FileClass {
    FileClass {
        hot_path: true,
        time_whitelisted: false,
        test_file: false,
    }
}

#[test]
fn undocumented_unsafe_is_flagged() {
    let f = parse("bad_unsafe.rs", FileClass::default());
    let (mut out, mut inv) = (Vec::new(), Vec::new());
    rules::unsafe_audit::run(&f, &mut out, &mut inv);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].rule, "unsafe-audit");
    assert_eq!(out[0].line, 5);
    assert!(out[0].suppressed.is_none());
    assert_eq!(inv.len(), 1);
    assert!(inv[0].safety.is_empty());
}

#[test]
fn documented_unsafe_passes() {
    let f = parse("good_unsafe.rs", FileClass::default());
    let (mut out, mut inv) = (Vec::new(), Vec::new());
    rules::unsafe_audit::run(&f, &mut out, &mut inv);
    assert!(out.is_empty(), "{out:?}");
    assert_eq!(inv.len(), 2);
    assert!(inv.iter().all(|s| !s.safety.is_empty()));
}

#[test]
fn hot_path_panics_are_flagged() {
    let f = parse("bad_panic.rs", hot());
    let mut out = Vec::new();
    rules::panic_freedom::run(&f, &mut out);
    let lines: Vec<usize> = out.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![4, 5, 7, 9], "{out:?}");
    assert!(out.iter().all(|d| d.rule == "panic-freedom"));
    assert!(out.iter().all(|d| d.suppressed.is_none()));
}

#[test]
fn cold_modules_may_panic() {
    let f = parse("bad_panic.rs", FileClass::default());
    let mut out = Vec::new();
    rules::panic_freedom::run(&f, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn suppressed_unwrap_is_reported_but_silenced() {
    let f = parse("suppressed_panic.rs", hot());
    let mut out = Vec::new();
    rules::panic_freedom::run(&f, &mut out);
    assert_eq!(out.len(), 1);
    let reason = out[0].suppressed.as_deref().expect("finding is suppressed");
    assert!(reason.contains("unreachable"));
    // The suppression is well-formed, so hygiene stays quiet.
    let mut hygiene = Vec::new();
    rules::check_suppression_hygiene(&f, &mut hygiene);
    assert!(hygiene.is_empty(), "{hygiene:?}");
}

#[test]
fn nondeterminism_sources_are_flagged() {
    let f = parse("bad_determinism.rs", FileClass::default());
    let mut out = Vec::new();
    rules::determinism::run(&f, &mut out);
    assert_eq!(out.len(), 4, "{out:?}");
    for needle in ["Instant::now", "SystemTime::now", "thread::sleep", "process::exit"] {
        assert!(
            out.iter().any(|d| d.message.contains(needle)),
            "missing {needle}: {out:?}"
        );
    }
}

#[test]
fn trace_clock_reads_are_deterministic() {
    // `salient_trace::Clock` is the sanctioned time source: code stamping
    // through it triggers no determinism findings even off the whitelist.
    let f = parse("good_trace_clock.rs", FileClass::default());
    let mut out = Vec::new();
    rules::determinism::run(&f, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn whitelisted_files_may_read_clocks() {
    let class = FileClass {
        time_whitelisted: true,
        ..FileClass::default()
    };
    let f = parse("bad_determinism.rs", class);
    let mut out = Vec::new();
    rules::determinism::run(&f, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn opposite_lock_orders_form_a_cycle() {
    let f = parse("bad_lock_cycle.rs", FileClass::default());
    let summaries = lock_discipline::extract(&f);
    let files: BTreeMap<String, &SourceFile> =
        [(f.path.clone(), &f)].into_iter().collect();
    let mut out = Vec::new();
    lock_discipline::check_order(&summaries, &files, &mut out);
    assert!(
        out.iter()
            .any(|d| d.rule == "lock-discipline" && d.message.contains("cycle")),
        "{out:?}"
    );
    let msg = &out[0].message;
    assert!(msg.contains("fixture::a") && msg.contains("fixture::b"), "{msg}");
}

#[test]
fn consistent_lock_order_is_clean() {
    let f = parse("good_lock_order.rs", FileClass::default());
    let summaries = lock_discipline::extract(&f);
    let files: BTreeMap<String, &SourceFile> =
        [(f.path.clone(), &f)].into_iter().collect();
    let mut out = Vec::new();
    lock_discipline::check_order(&summaries, &files, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn unjustified_relaxed_is_flagged_once() {
    let f = parse("bad_relaxed.rs", FileClass::default());
    let mut out = Vec::new();
    lock_discipline::check_relaxed(&f, &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].line, 6);
}

/// Runs the call-graph rule over a set of already-parsed files.
fn run_reachability(files: &[SourceFile]) -> Vec<Diagnostic> {
    let parsed: Vec<ParsedFile> = files.iter().map(parse_file).collect();
    let graph = CallGraph::build(&parsed);
    let mut out = Vec::new();
    rules::panic_reachability::run(files, &parsed, &graph, &mut out);
    out
}

#[test]
fn reachable_panics_fire_with_call_path_evidence() {
    let f = parse("bad_panic_reachability.rs", FileClass::default());
    let out = run_reachability(std::slice::from_ref(&f));
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out.iter().all(|d| d.rule == "panic-reachability"));
    let unwrap = out
        .iter()
        .find(|d| d.message.contains("`.unwrap()`"))
        .expect("unwrap finding");
    assert!(
        unwrap.message.contains("fixture::hot_entry -> fixture::helper -> fixture::deep"),
        "evidence path missing: {}",
        unwrap.message
    );
    let index = out
        .iter()
        .find(|d| d.message.contains("slice-indexing"))
        .expect("indexing finding");
    assert!(index.message.contains("1 slice-indexing site(s)"), "{}", index.message);
    // `cold` panics too, but no entry reaches it — evidence the rule is
    // reachability-driven, not lexical.
    assert!(out.iter().all(|d| d.suppressed.is_none()));
}

#[test]
fn unreachable_panic_free_chain_is_accepted() {
    let f = parse("good_panic_reachability.rs", FileClass::default());
    let out = run_reachability(std::slice::from_ref(&f));
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn stale_suppression_is_flagged_and_live_one_is_not() {
    let f = parse("unused_suppression.rs", hot());
    let mut panics = Vec::new();
    rules::panic_freedom::run(&f, &mut panics);
    assert_eq!(panics.len(), 1, "{panics:?}");
    assert!(panics[0].suppressed.is_some(), "the live suppression still works");
    let mut unused = Vec::new();
    rules::check_unused_suppressions(&f, &mut unused);
    assert_eq!(unused.len(), 1, "{unused:?}");
    assert_eq!(unused[0].rule, "suppression");
    assert!(unused[0].message.contains("no longer silences"), "{}", unused[0].message);
    assert!(unused[0].suppressed.is_none(), "stale-suppression findings are not suppressible");
    assert!(unused[0].snippet.contains("stale"), "flags the second, stale annotation");
}

#[test]
fn reasonless_suppression_is_itself_flagged() {
    let f = parse("bad_suppression.rs", hot());
    let mut panics = Vec::new();
    rules::panic_freedom::run(&f, &mut panics);
    // The empty-reason suppression still silences the unwrap…
    assert_eq!(panics.len(), 1);
    assert!(panics[0].suppressed.is_some());
    // …but the suppression itself becomes an unsuppressable finding.
    let mut hygiene = Vec::new();
    rules::check_suppression_hygiene(&f, &mut hygiene);
    assert_eq!(hygiene.len(), 1, "{hygiene:?}");
    assert_eq!(hygiene[0].rule, "suppression");
    assert!(hygiene[0].suppressed.is_none());
    assert!(hygiene[0].message.contains("panic-freedom"));
}
