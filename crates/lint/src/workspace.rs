//! Workspace discovery, file classification, and the full lint pass.

use crate::callgraph::CallGraph;
use crate::deps;
use crate::diag::Diagnostic;
use crate::parser::{self, ParsedFile};
use crate::rules::{self, lock_discipline, unsafe_audit::UnsafeSite};
use crate::source::{FileClass, SourceFile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Modules where panic-freedom applies: SALIENT's per-batch hot path.
/// A prefix ending in `/` covers a directory; otherwise it names a file.
pub const HOT_PATHS: &[&str] = &[
    "crates/sampler/src/",
    "crates/batchprep/src/",
    "crates/tensor/src/kernels.rs",
    "crates/tensor/src/sync/",
    "crates/ddp/src/comm.rs",
];

/// Files allowed to read wall clocks, sleep, and exit: the trace crate
/// (whose `Clock` *is* the sanctioned time source everything else must go
/// through), the DES simulator, the bench harness, and CLI entry points.
///
/// `crates/serve/` is deliberately *not* here: the serving state machine's
/// deadline math must stay replayable under a `VirtualClock`, so every
/// time read it makes goes through `trace::Clock` and any real-clock
/// escape hatch (an injected straggler sleep) carries an inline
/// suppression naming its justification.
pub const TIME_WHITELIST: &[&str] = &[
    "crates/trace/",
    "crates/sim/",
    "crates/bench/",
    "src/bin/",
    "examples/",
];

/// Classifies a workspace-relative path for the rules.
pub fn classify(rel: &str) -> FileClass {
    let matches_prefix = |prefixes: &[&str]| {
        prefixes.iter().any(|p| {
            if p.ends_with('/') {
                rel.starts_with(p)
            } else {
                rel == *p
            }
        })
    };
    // Any crate's binary entry point (`src/main.rs`) counts as CLI code.
    let is_cli_main = rel == "src/main.rs" || rel.ends_with("/src/main.rs");
    FileClass {
        hot_path: matches_prefix(HOT_PATHS),
        time_whitelisted: matches_prefix(TIME_WHITELIST) || is_cli_main,
        test_file: rel.split('/').any(|seg| seg == "tests" || seg == "benches"),
    }
}

/// The outcome of a full pass.
#[derive(Default)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    pub unsafe_inventory: Vec<UnsafeSite>,
    /// Files analyzed (diagnostics aside, lets callers sanity-check scope).
    pub files_scanned: usize,
}

impl LintReport {
    /// Diagnostics not silenced by an inline suppression.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed.is_none())
    }

    /// Number of unsuppressed findings (the CI gate).
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// `(rule, total, unsuppressed)` for every rule in catalog order —
    /// the per-rule table CI prints so lint-cost regressions are visible.
    pub fn counts_by_rule(&self) -> Vec<(&'static str, usize, usize)> {
        rules::ALL_RULES
            .iter()
            .map(|&rule| {
                let total = self.diagnostics.iter().filter(|d| d.rule == rule).count();
                let open = self
                    .diagnostics
                    .iter()
                    .filter(|d| d.rule == rule && d.suppressed.is_none())
                    .count();
                (rule, total, open)
            })
            .collect()
    }
}

/// Walks up from `start` to the workspace root (the directory whose
/// `Cargo.toml` contains a `[workspace]` table).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

/// Collects every workspace `.rs` file, skipping `target/`, VCS metadata,
/// and lint test fixtures (which are deliberately rule-breaking).
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Workspace manifests covered by the deps guard.
pub fn collect_manifests(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let m = entry?.path().join("Cargo.toml");
            if m.is_file() {
                out.push(m);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs the dependency-freedom guard over every workspace manifest.
pub fn run_deps(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for m in collect_manifests(root)? {
        let text = std::fs::read_to_string(&m)?;
        out.extend(deps::check_manifest(&rel_path(root, &m), &text));
    }
    Ok(out)
}

/// Lexes and item-parses every workspace source file — the shared
/// substrate for `run` and the `graph` subcommand.
pub fn analyze(root: &Path) -> std::io::Result<(Vec<SourceFile>, Vec<ParsedFile>)> {
    let mut files: Vec<SourceFile> = Vec::new();
    for path in collect_rs_files(root)? {
        let text = std::fs::read_to_string(&path)?;
        let rel = rel_path(root, &path);
        files.push(SourceFile::parse(rel.clone(), &text, classify(&rel)));
    }
    let parsed: Vec<ParsedFile> = files.iter().map(parser::parse_file).collect();
    Ok((files, parsed))
}

/// Runs every rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let (files, parsed) = analyze(root)?;
    report.files_scanned = files.len();

    let mut summaries = Vec::new();
    for (f, pf) in files.iter().zip(&parsed) {
        rules::unsafe_audit::run(f, &mut report.diagnostics, &mut report.unsafe_inventory);
        rules::panic_freedom::run(f, &mut report.diagnostics);
        rules::half_conversion::run(f, &mut report.diagnostics);
        rules::determinism::run(f, &mut report.diagnostics);
        lock_discipline::check_relaxed(f, &mut report.diagnostics);
        rules::check_suppression_hygiene(f, &mut report.diagnostics);
        rules::check_annotations(f, pf, &mut report.diagnostics);
        summaries.extend(lock_discipline::extract(f));
    }
    let by_path: BTreeMap<String, &SourceFile> =
        files.iter().map(|f| (f.path.clone(), f)).collect();
    lock_discipline::check_order(&summaries, &by_path, &mut report.diagnostics);

    let graph = CallGraph::build(&parsed);
    rules::panic_reachability::run(&files, &parsed, &graph, &mut report.diagnostics);

    report.diagnostics.extend(run_deps(root)?);

    // Last, after every rule has had its chance to consume a suppression:
    // anything still unused is stale and must be deleted.
    for f in &files {
        rules::check_unused_suppressions(f, &mut report.diagnostics);
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_of_known_paths() {
        assert!(classify("crates/batchprep/src/queue.rs").hot_path);
        assert!(classify("crates/tensor/src/kernels.rs").hot_path);
        assert!(classify("crates/tensor/src/sync/channel.rs").hot_path);
        assert!(classify("crates/tensor/src/sync/mod.rs").hot_path);
        assert!(!classify("crates/tensor/src/ops.rs").hot_path);
        assert!(classify("crates/ddp/src/comm.rs").hot_path);
        assert!(!classify("crates/ddp/src/lib.rs").hot_path);
        assert!(classify("crates/sim/src/des.rs").time_whitelisted);
        assert!(classify("crates/trace/src/clock.rs").time_whitelisted);
        assert!(classify("src/bin/salient.rs").time_whitelisted);
        assert!(classify("examples/quickstart.rs").time_whitelisted);
        assert!(!classify("crates/core/src/train.rs").time_whitelisted);
        assert!(!classify("crates/batchprep/src/prep.rs").time_whitelisted);
        // The serving crate must route all time through trace::Clock.
        assert!(!classify("crates/serve/src/core.rs").time_whitelisted);
        assert!(!classify("crates/serve/src/server.rs").time_whitelisted);
        assert!(!classify("crates/serve/src/core.rs").hot_path);
        assert!(classify("tests/end_to_end.rs").test_file);
        assert!(classify("crates/tensor/tests/gradcheck.rs").test_file);
        assert!(!classify("crates/tensor/src/tensor.rs").test_file);
    }
}
