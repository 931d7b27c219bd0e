//! The rule catalog.
//!
//! Every rule walks a [`SourceFile`]'s token stream and emits
//! [`Diagnostic`]s through [`emit`], which applies inline
//! `// lint: allow(rule, reason)` suppressions uniformly.

pub mod determinism;
pub mod half_conversion;
pub mod lock_discipline;
pub mod panic_freedom;
pub mod panic_reachability;
pub mod unsafe_audit;

use crate::diag::Diagnostic;
use crate::parser::ParsedFile;
use crate::source::SourceFile;

/// Rule id: `unsafe` without a `// SAFETY:` justification.
pub const UNSAFE_AUDIT: &str = "unsafe-audit";
/// Rule id: panicking constructs in designated hot-path modules.
pub const PANIC_FREEDOM: &str = "panic-freedom";
/// Rule id: panicking constructs transitively reachable from a declared
/// `// lint: entry(panic-reachability)` hot-path entry point.
pub const PANIC_REACHABILITY: &str = "panic-reachability";
/// Rule id: wall-clock / sleep / exit outside the whitelist.
pub const DETERMINISM: &str = "determinism";
/// Rule id: lock-order cycles and unjustified `Ordering::Relaxed`.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Rule id: scalar f16↔f32 conversions in designated hot-path modules.
pub const HALF_CONVERSION: &str = "half-conversion";
/// Rule id: non-path dependencies in a manifest.
pub const DEPS: &str = "deps";
/// Rule id: malformed, unused, or unattached lint annotations. Not
/// suppressible.
pub const SUPPRESSION: &str = "suppression";

/// Every rule id, in report order (the per-rule count table).
pub const ALL_RULES: &[&str] = &[
    UNSAFE_AUDIT,
    PANIC_FREEDOM,
    PANIC_REACHABILITY,
    DETERMINISM,
    LOCK_DISCIPLINE,
    HALF_CONVERSION,
    DEPS,
    SUPPRESSION,
];

/// Builds a diagnostic at `line:col`, resolving suppressions.
pub fn emit(
    f: &SourceFile,
    rule: &'static str,
    line: usize,
    col: usize,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    out.push(Diagnostic {
        rule,
        file: f.path.clone(),
        line,
        col,
        message,
        snippet: f.line(line).trim().to_string(),
        suppressed: f.suppression_for(rule, line),
    });
}

/// Reports suppressions whose reason string is empty — the suppression
/// syntax itself is an invariant: `// lint: allow(rule, reason)`.
pub fn check_suppression_hygiene(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for s in &f.suppressions {
        if s.reason.is_empty() {
            out.push(Diagnostic {
                rule: SUPPRESSION,
                file: f.path.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "suppression for `{}` is missing a reason: use `// lint: allow({}, <why this is sound>)`",
                    s.rule, s.rule
                ),
                snippet: f.line(s.line).trim().to_string(),
                suppressed: None,
            });
        }
    }
}

/// Reports suppressions that no longer silence anything. Must run after
/// **every** other rule (including the cross-file passes), because rules
/// mark a suppression used when they resolve a diagnostic against it.
pub fn check_unused_suppressions(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for s in &f.suppressions {
        if !s.used.get() {
            out.push(Diagnostic {
                rule: SUPPRESSION,
                file: f.path.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "suppression for `{}` no longer silences any finding — delete it",
                    s.rule
                ),
                snippet: f.line(s.line).trim().to_string(),
                suppressed: None,
            });
        }
    }
}

/// Reports malformed lint annotations: an `// lint: entry(...)` naming an
/// unknown rule.
pub fn check_annotations(f: &SourceFile, pf: &ParsedFile, out: &mut Vec<Diagnostic>) {
    for e in &pf.entries {
        if e.rule != PANIC_REACHABILITY {
            out.push(Diagnostic {
                rule: SUPPRESSION,
                file: f.path.clone(),
                line: e.line,
                col: 1,
                message: format!(
                    "`lint: entry({})` names an unknown rule — only `panic-reachability` \
                     takes entry declarations",
                    e.rule
                ),
                snippet: f.line(e.line).trim().to_string(),
                suppressed: None,
            });
        }
    }
}

/// True when tokens starting at `i` spell the `::`-separated path segments
/// in `path` (e.g. `&["Instant", "now"]` matches `Instant :: now`).
pub fn matches_path(f: &SourceFile, i: usize, path: &[&str]) -> bool {
    let toks = &f.lexed.tokens;
    let mut j = i;
    for (seg_idx, seg) in path.iter().enumerate() {
        if !toks.get(j).map(|t| t.is_ident(seg)).unwrap_or(false) {
            return false;
        }
        j += 1;
        if seg_idx + 1 < path.len() {
            if !(toks.get(j).map(|t| t.is_punct(':')).unwrap_or(false)
                && toks.get(j + 1).map(|t| t.is_punct(':')).unwrap_or(false))
            {
                return false;
            }
            j += 2;
        }
    }
    true
}
