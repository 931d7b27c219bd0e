//! Workspace discovery and the lint pass.

use crate::diag::Diagnostic;
use crate::rules::lock_discipline;
use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The outcome of a pass.
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    /// Files analyzed (lets callers sanity-check the walk's scope).
    pub files_scanned: usize,
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

/// Collects every non-test `.rs` file under `root`: `target/`, VCS metadata,
/// the rule's deliberately rule-breaking `fixtures/`, and the `tests/` and
/// `benches/` directories (test code is exempt) are skipped.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    const SKIPPED_DIRS: &[&str] = &["target", "fixtures", "tests", "benches"];
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !name.starts_with('.') && !SKIPPED_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the lock-discipline rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> std::io::Result<LintReport> {
    let mut files: Vec<SourceFile> = Vec::new();
    for path in collect_rs_files(root)? {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(rel, &text));
    }

    let mut report = LintReport { diagnostics: Vec::new(), files_scanned: files.len() };
    let mut summaries = Vec::new();
    for f in &files {
        lock_discipline::check_relaxed(f, &mut report.diagnostics);
        summaries.extend(lock_discipline::extract(f));
    }
    let by_path: BTreeMap<String, &SourceFile> =
        files.iter().map(|f| (f.path.clone(), f)).collect();
    lock_discipline::check_order(&summaries, &by_path, &mut report.diagnostics);

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(report)
}
