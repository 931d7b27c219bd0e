//! **lock-discipline**: two checks over the workspace's `Mutex` / `RwLock` /
//! atomics usage.
//!
//! 1. **Lock-order cycles.** Per function, the rule tracks guard liveness:
//!    a `let`-bound guard from `x.lock()` lives until its enclosing block
//!    closes; a temporary guard (no `let`) lives until the end of the
//!    statement. Acquiring lock B while guard A is live records the edge
//!    `A → B`. Calls made while a guard is held propagate through a static
//!    call approximation (free calls resolve same-file first, then to a
//!    unique workspace match; method calls resolve same-file only, and only
//!    on a literal `self.` receiver — `anything.len()` must never alias a
//!    same-named locking method on another type), adding
//!    edges from the held lock to every lock the callee transitively
//!    acquires. A cycle in the resulting graph — including a self-loop,
//!    which with `std::sync::Mutex` is an immediate deadlock — fails the
//!    lint. Lock identity is approximated by `crate::field_name` (the
//!    receiver field the guard method is called on), which is exact for
//!    this workspace's named lock fields and documented as the supported
//!    idiom.
//! 2. **Relaxed justification.** Every `Ordering::Relaxed` use must carry a
//!    comment (same line or the two lines above) that mentions "relaxed",
//!    explaining why no stronger ordering is needed.
//!
//! `.read()` / `.write()` count as acquisitions only in files that mention
//! `RwLock`, so `io::Read`/`Write` calls never produce false locks.

use crate::diag::Diagnostic;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Builds a finding at `line:col` of `f`.
fn emit(f: &SourceFile, line: usize, col: usize, message: String, out: &mut Vec<Diagnostic>) {
    out.push(Diagnostic {
        file: f.path.clone(),
        line,
        col,
        message,
        snippet: f.line(line).trim().to_string(),
    });
}

/// A lock acquisition site inside one function.
#[derive(Clone, Debug)]
struct Acquire {
    /// Qualified lock name (`crate::field`).
    lock: String,
    line: usize,
    col: usize,
    /// Locks held (live guards) at this acquisition, in order taken.
    held: Vec<String>,
}

/// A call made while at least one guard was live.
#[derive(Clone, Debug)]
struct HeldCall {
    callee: String,
    /// True for `.name(...)` method calls (resolved same-file only).
    method: bool,
    line: usize,
    col: usize,
    held: Vec<String>,
}

/// Per-function summary used by the global pass.
#[derive(Clone, Debug)]
pub struct FnSummary {
    file: String,
    name: String,
    acquires: Vec<Acquire>,
    held_calls: Vec<HeldCall>,
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "move", "in", "as", "unsafe",
    "else", "break", "continue", "where", "impl", "dyn", "ref", "mut", "pub", "use", "box",
    "await", "Some", "Ok", "Err", "None",
];

/// Derives the qualifying crate prefix from a workspace-relative path
/// (`crates/tensor/src/pool.rs` → `tensor`, `src/bin/x.rs` → `root`).
fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(krate)) => krate.to_string(),
        _ => "root".to_string(),
    }
}

/// Extracts function summaries from one file.
pub fn extract(f: &SourceFile) -> Vec<FnSummary> {
    let toks = &f.lexed.tokens;
    let krate = crate_of(&f.path);
    let file_has_rwlock = toks.iter().any(|t| t.is_ident("RwLock"));
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && !f.in_test_code(toks[i].line) {
            if let Some(name_tok) = toks.get(i + 1) {
                if name_tok.kind == crate::lexer::TokKind::Ident {
                    // Find the body's opening brace; a `;` first means a
                    // bodyless declaration (trait method, extern).
                    let mut j = i + 2;
                    let mut paren_depth = 0usize;
                    let body_open = loop {
                        match toks.get(j) {
                            Some(t) if t.is_punct('(') || t.is_punct('[') => paren_depth += 1,
                            Some(t) if t.is_punct(')') || t.is_punct(']') => {
                                paren_depth = paren_depth.saturating_sub(1)
                            }
                            Some(t) if t.is_punct('{') && paren_depth == 0 => break Some(j),
                            Some(t) if t.is_punct(';') && paren_depth == 0 => break None,
                            None => break None,
                            _ => {}
                        }
                        j += 1;
                    };
                    if let Some(open) = body_open {
                        let (summary, end) = scan_body(
                            f,
                            &krate,
                            name_tok.text.clone(),
                            open,
                            file_has_rwlock,
                        );
                        out.push(summary);
                        i = end;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// A live guard during the body walk.
#[derive(Debug)]
struct Guard {
    lock: String,
    /// `Some(depth)` for a `let`-bound guard (dies when the block at
    /// `depth` closes); `None` for a temporary (dies at the next `;`).
    block_depth: Option<usize>,
}

/// Walks one function body tracking guard liveness; returns the summary and
/// the token index of the closing brace.
fn scan_body(
    f: &SourceFile,
    krate: &str,
    fn_name: String,
    open: usize,
    file_has_rwlock: bool,
) -> (FnSummary, usize) {
    let toks = &f.lexed.tokens;
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    let mut acquires = Vec::new();
    let mut held_calls = Vec::new();
    // Index of the token opening the current statement (after `;`/`{`/`}`).
    let mut stmt_start = open + 1;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            depth += 1;
            stmt_start = j + 1;
        } else if t.is_punct('}') {
            depth -= 1;
            // Close of a block ends the statement it terminates and every
            // guard bound inside it.
            guards.retain(|g| match g.block_depth {
                Some(d) => d <= depth,
                None => false,
            });
            stmt_start = j + 1;
            if depth == 0 {
                break;
            }
        } else if t.is_punct(';') {
            guards.retain(|g| g.block_depth.is_some());
            stmt_start = j + 1;
        } else if t.kind == crate::lexer::TokKind::Ident
            && toks.get(j + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && !f.in_test_code(t.line)
        {
            let is_method = j > 0 && toks[j - 1].is_punct('.');
            let name = t.text.as_str();
            let is_acquire = is_method
                && (name == "lock" || (file_has_rwlock && (name == "read" || name == "write")));
            if is_acquire {
                // Receiver field: the ident before the `.`.
                let recv = toks
                    .get(j.wrapping_sub(2))
                    .filter(|r| r.kind == crate::lexer::TokKind::Ident)
                    .map(|r| r.text.clone());
                if let Some(field) = recv {
                    let lock = format!("{krate}::{field}");
                    let held: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
                    acquires.push(Acquire { lock: lock.clone(), line: t.line, col: t.col, held });
                    // `let`-bound iff the statement starts with `let`.
                    let is_let = toks
                        .get(stmt_start)
                        .map(|s| s.is_ident("let"))
                        .unwrap_or(false);
                    guards.push(Guard {
                        lock,
                        block_depth: if is_let { Some(depth) } else { None },
                    });
                }
            } else if !guards.is_empty()
                && !NON_CALL_IDENTS.contains(&name)
                && !(toks.get(j + 1).map(|n| n.is_punct('!')).unwrap_or(false))
            {
                // Method calls count only on a literal `self.` receiver;
                // resolving `anything.len()` by bare name would alias
                // unrelated types' methods.
                let self_recv = toks
                    .get(j.wrapping_sub(2))
                    .map(|r| r.is_ident("self"))
                    .unwrap_or(false);
                if !is_method || self_recv {
                    held_calls.push(HeldCall {
                        callee: name.to_string(),
                        method: is_method,
                        line: t.line,
                        col: t.col,
                        held: guards.iter().map(|g| g.lock.clone()).collect(),
                    });
                }
            }
        }
        j += 1;
    }
    (
        FnSummary { file: f.path.clone(), name: fn_name, acquires, held_calls },
        j,
    )
}

/// One lock-order edge with its provenance.
#[derive(Clone, Debug)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: usize,
    col: usize,
    via: String,
}

/// Global pass: builds the lock-order graph from all function summaries and
/// reports cycles. `files` maps path → parsed file (for the snippet).
pub fn check_order(
    summaries: &[FnSummary],
    files: &BTreeMap<String, &SourceFile>,
    out: &mut Vec<Diagnostic>,
) {
    // Name index for call resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, s) in summaries.iter().enumerate() {
        by_name.entry(s.name.as_str()).or_default().push(idx);
    }
    let resolve = |call: &HeldCall, from_file: &str| -> Option<usize> {
        let cands = by_name.get(call.callee.as_str())?;
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| summaries[i].file == from_file)
            .collect();
        match (same_file.len(), call.method) {
            (1, _) => Some(same_file[0]),
            (0, false) if cands.len() == 1 => Some(cands[0]),
            _ => None,
        }
    };

    // Transitive acquire sets, cycle-safe memoized DFS over the call graph.
    fn acquired_set<'a>(
        idx: usize,
        summaries: &'a [FnSummary],
        resolve: &dyn Fn(&HeldCall, &str) -> Option<usize>,
        memo: &mut Vec<Option<BTreeSet<String>>>,
        visiting: &mut Vec<bool>,
    ) -> BTreeSet<String> {
        if let Some(m) = &memo[idx] {
            return m.clone();
        }
        if visiting[idx] {
            return BTreeSet::new();
        }
        visiting[idx] = true;
        let mut set: BTreeSet<String> =
            summaries[idx].acquires.iter().map(|a| a.lock.clone()).collect();
        let calls: Vec<HeldCall> = summaries[idx].held_calls.clone();
        for c in &calls {
            if let Some(ci) = resolve(c, &summaries[idx].file) {
                set.extend(acquired_set(ci, summaries, resolve, memo, visiting));
            }
        }
        visiting[idx] = false;
        memo[idx] = Some(set.clone());
        set
    }

    let mut memo: Vec<Option<BTreeSet<String>>> = vec![None; summaries.len()];
    let mut visiting = vec![false; summaries.len()];

    // Collect edges.
    let mut edges: Vec<Edge> = Vec::new();
    for s in summaries {
        for a in &s.acquires {
            for h in &a.held {
                edges.push(Edge {
                    from: h.clone(),
                    to: a.lock.clone(),
                    file: s.file.clone(),
                    line: a.line,
                    col: a.col,
                    via: format!("in `{}`", s.name),
                });
            }
        }
        for c in &s.held_calls {
            if let Some(ci) = resolve(c, &s.file) {
                let acq = acquired_set(ci, summaries, &resolve, &mut memo, &mut visiting);
                for h in &c.held {
                    for l in &acq {
                        edges.push(Edge {
                            from: h.clone(),
                            to: l.clone(),
                            file: s.file.clone(),
                            line: c.line,
                            col: c.col,
                            via: format!("in `{}` via call to `{}`", s.name, c.callee),
                        });
                    }
                }
            }
        }
    }

    // Cycle detection: DFS with a path stack; dedupe cycles by node set.
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: BTreeSet<&str> = edges.iter().flat_map(|e| [e.from.as_str(), e.to.as_str()]).collect();
    for &start in &nodes {
        // Bounded DFS from each node looking for a path back to it.
        let mut stack: Vec<(&str, Vec<&Edge>)> = vec![(start, Vec::new())];
        while let Some((node, path)) = stack.pop() {
            if path.len() > nodes.len() {
                continue;
            }
            for e in adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]) {
                if e.to == start {
                    let mut cyc = path.clone();
                    cyc.push(e);
                    let mut key: Vec<String> = cyc.iter().map(|e| e.from.clone()).collect();
                    key.sort();
                    if reported.insert(key) {
                        let desc: Vec<String> = cyc
                            .iter()
                            .map(|e| format!("{} → {} ({}, {}:{})", e.from, e.to, e.via, e.file, e.line))
                            .collect();
                        let site = cyc[0];
                        let diag_file = files.get(site.file.as_str());
                        let message = format!(
                            "lock-order cycle (potential deadlock): {}",
                            desc.join("; ")
                        );
                        match diag_file {
                            Some(f) => emit(f, site.line, site.col, message, out),
                            None => out.push(Diagnostic {
                                file: site.file.clone(),
                                line: site.line,
                                col: site.col,
                                message,
                                snippet: String::new(),
                            }),
                        }
                    }
                } else if !path.iter().any(|p| p.from == e.to) && e.to != node {
                    let mut p = path.clone();
                    p.push(e);
                    stack.push((e.to.as_str(), p));
                }
            }
        }
    }
}

/// The Relaxed-justification half of the rule, per file.
pub fn check_relaxed(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &f.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        // `Ordering :: Relaxed`: `::` lexes as two `:` tokens.
        let is_relaxed = t.is_ident("Ordering")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("Relaxed"));
        if is_relaxed && !f.in_test_code(t.line) {
            let line = t.line;
            let justified = f.comment_in_range(line.saturating_sub(2), line, |text| {
                text.to_ascii_lowercase().contains("relaxed")
            });
            if !justified {
                emit(
                    f,
                    line,
                    t.col,
                    "`Ordering::Relaxed` without a justification comment (same line or the two \
                     lines above, mentioning why relaxed ordering is sufficient)"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn summaries(src: &str) -> (Vec<FnSummary>, SourceFile) {
        let f = SourceFile::parse("crates/x/src/a.rs".into(), src);
        (extract(&f), f)
    }

    #[test]
    fn nested_acquire_records_an_edge() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock().unwrap_or_else(e);\n    let b = self.beta.lock().unwrap_or_else(e);\n}\n";
        let (s, _) = summaries(src);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].acquires.len(), 2);
        assert_eq!(s[0].acquires[1].held, vec!["x::alpha".to_string()]);
    }

    #[test]
    fn inner_block_guard_dies_at_block_close() {
        let src = "fn f(&self) {\n    { let a = self.alpha.lock().x(); }\n    let b = self.beta.lock().x();\n}\n";
        let (s, _) = summaries(src);
        assert!(s[0].acquires[1].held.is_empty(), "{:?}", s[0].acquires);
    }

    #[test]
    fn temporary_guard_dies_at_semicolon() {
        let src = "fn f(&self) {\n    self.alpha.lock().x();\n    let b = self.beta.lock().x();\n}\n";
        let (s, _) = summaries(src);
        assert!(s[0].acquires[1].held.is_empty());
    }

    #[test]
    fn cycle_across_two_functions_is_detected() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock().e();\n    let b = self.beta.lock().e();\n}\nfn g(&self) {\n    let b = self.beta.lock().e();\n    let a = self.alpha.lock().e();\n}\n";
        let (s, f) = summaries(src);
        let mut files = BTreeMap::new();
        files.insert(f.path.clone(), &f);
        let mut out = Vec::new();
        check_order(&s, &files, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("cycle"));
    }

    #[test]
    fn ordered_acquisition_has_no_cycle() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock().e();\n    let b = self.beta.lock().e();\n}\nfn g(&self) {\n    let a = self.alpha.lock().e();\n    let b = self.beta.lock().e();\n}\n";
        let (s, f) = summaries(src);
        let mut files = BTreeMap::new();
        files.insert(f.path.clone(), &f);
        let mut out = Vec::new();
        check_order(&s, &files, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn reentrant_self_lock_via_call_is_a_cycle() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock().e();\n    self.helper();\n}\nfn helper(&self) {\n    let a = self.alpha.lock().e();\n}\n";
        let (s, f) = summaries(src);
        let mut files = BTreeMap::new();
        files.insert(f.path.clone(), &f);
        let mut out = Vec::new();
        check_order(&s, &files, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("helper"), "{out:?}");
    }

    #[test]
    fn read_write_only_count_with_rwlock_in_file() {
        let io_src = "fn f(&self) { let n = file.read(buf).e(); socket.write(buf).e(); }\n";
        let (s, _) = summaries(io_src);
        assert!(s[0].acquires.is_empty());
        let rw_src = "struct S { m: RwLock<u32> }\nfn f(&self) { let g = self.m.read().e(); let h = self.q.write().e(); }\n";
        let (s, _) = summaries(rw_src);
        assert_eq!(s[0].acquires.len(), 2);
    }

    #[test]
    fn relaxed_without_comment_is_flagged() {
        let f = SourceFile::parse(
            "t.rs".into(),
            "fn f() {\n    x.load(Ordering::Relaxed);\n}\n",
        );
        let mut out = Vec::new();
        check_relaxed(&f, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn relaxed_with_nearby_comment_passes() {
        let f = SourceFile::parse(
            "t.rs".into(),
            "fn f() {\n    // relaxed: monotone counter, no ordering needed.\n    x.load(Ordering::Relaxed);\n}\n",
        );
        let mut out = Vec::new();
        check_relaxed(&f, &mut out);
        assert!(out.is_empty());
    }
}
