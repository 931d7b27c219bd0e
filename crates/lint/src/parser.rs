//! Item-level parsing on top of the lexer: modules, `impl` blocks, `fn`
//! items with their call expressions, string constants, and the lint
//! annotation `// lint: entry(rule)`.
//!
//! This is not a Rust grammar — it is a structural scan good enough for
//! the `salient_*` crates: brace-matched scopes give every `fn` its
//! enclosing module path and `impl` type, call expressions are extracted
//! (free, path-qualified, turbofish, and method calls with `self`-chain
//! receiver detection), and the result feeds [`crate::callgraph`].

use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;
use std::collections::HashMap;

/// One call expression inside a fn body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Callee name (last path segment, turbofish stripped).
    pub name: String,
    /// Path segments before the name (`fault::point` → `["fault"]`,
    /// `Self::helper` → `["Self"]`). Empty for plain and method calls.
    pub qualifier: Vec<String>,
    /// True for `.name(...)` method-call syntax.
    pub method: bool,
    /// True when the receiver chain is rooted at `self`
    /// (`self.f(...)`, `self.field.f(...)`).
    pub recv_self: bool,
    pub line: usize,
    pub col: usize,
}

/// One `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub impl_type: Option<String>,
    /// Enclosing inline-module path within the file.
    pub module: Vec<String>,
    /// Line of the `fn` name.
    pub line: usize,
    /// Token-index range of the body `{` … `}` (inclusive); `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    pub calls: Vec<Call>,
    /// Inside `#[cfg(test)]` / `#[test]` code or a test file.
    pub is_test: bool,
    /// Declared `// lint: entry(panic-reachability)`.
    pub entry: bool,
}

/// An entry annotation as written (kept for hygiene: unknown rule names
/// in `// lint: entry(...)` are themselves findings).
#[derive(Clone, Debug)]
pub struct EntryMark {
    pub line: usize,
    pub rule: String,
}

/// The parsed view of one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub path: String,
    /// Crate identity for path resolution: `crates/X/…` → `X`; root
    /// `tests/`, `examples/`, `src/bin/` get their directory name.
    pub krate: String,
    pub fns: Vec<FnItem>,
    pub entries: Vec<EntryMark>,
}

/// Derives the crate identity from a workspace-relative path.
pub fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        return rest.split('/').next().unwrap_or("").to_string();
    }
    for top in ["tests", "examples", "benches", "src"] {
        if path.starts_with(&format!("{top}/")) {
            return top.to_string();
        }
    }
    String::new()
}

/// Strips the raw-identifier prefix: `r#match` → `match`. Applied wherever
/// a name enters an item or call record, so call-graph keys are uniform.
fn bare(name: &str) -> &str {
    name.strip_prefix("r#").unwrap_or(name)
}

/// Identifiers that look like calls when followed by `(` but never are.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "let",
    "else", "break", "continue", "move", "ref", "mut", "fn", "unsafe",
    "await", "yield", "where", "use", "pub", "crate", "super", "self",
    "Self", "struct", "enum", "union", "trait", "impl", "type", "const",
    "static", "dyn", "box",
];

/// Scope labels for open braces.
#[derive(Clone, Debug)]
enum Scope {
    Mod(String),
    Impl(Option<String>),
    Fn(usize),
    Block,
}

/// Parses one lexed file into items. Never fails: unparseable stretches
/// simply contribute no items.
pub fn parse_file(f: &SourceFile) -> ParsedFile {
    let toks = &f.lexed.tokens;
    let mut out = ParsedFile {
        path: f.path.clone(),
        krate: crate_of(&f.path),
        ..ParsedFile::default()
    };

    let close = match_braces(toks);
    // Labels for braces opened by mod/impl/trait/fn headers, keyed by the
    // `{` token index. Assigned by look-ahead when the header is seen.
    let mut labels: HashMap<usize, Scope> = HashMap::new();
    let mut stack: Vec<Scope> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('{') => {
                stack.push(labels.remove(&i).unwrap_or(Scope::Block));
            }
            TokKind::Punct('}') => {
                stack.pop();
            }
            TokKind::Ident => {
                match t.text.as_str() {
                    "mod" => {
                        if let (Some(name), Some(open)) = (toks.get(i + 1), toks.get(i + 2)) {
                            if name.kind == TokKind::Ident && open.is_punct('{') {
                                labels.insert(i + 2, Scope::Mod(name.text.clone()));
                            }
                        }
                    }
                    "impl" | "trait" => {
                        // `impl Trait` in a signature (`-> impl Iterator`)
                        // scans to the fn's body brace, which already
                        // carries a `Scope::Fn` label — never overwrite.
                        if let Some((brace, ty)) = parse_impl_header(toks, i) {
                            labels.entry(brace).or_insert(Scope::Impl(ty));
                        }
                    }
                    "fn" => {
                        if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                            let body = find_fn_body(toks, i + 2, &close);
                            let module: Vec<String> = stack
                                .iter()
                                .filter_map(|s| match s {
                                    Scope::Mod(m) => Some(m.clone()),
                                    _ => None,
                                })
                                .collect();
                            let impl_type = stack.iter().rev().find_map(|s| match s {
                                Scope::Impl(ty) => Some(ty.clone()),
                                _ => None,
                            });
                            let idx = out.fns.len();
                            if let Some((open, _)) = body {
                                labels.insert(open, Scope::Fn(idx));
                            }
                            out.fns.push(FnItem {
                                name: bare(&name.text).to_string(),
                                impl_type: impl_type.flatten(),
                                module,
                                line: name.line,
                                body,
                                calls: Vec::new(),
                                is_test: f.class.test_file || f.in_test_code(name.line),
                                entry: false,
                            });
                        }
                    }
                    _ => {
                        // Call expression? Only inside a fn body.
                        if let Some(fn_idx) = stack.iter().rev().find_map(|s| match s {
                            Scope::Fn(k) => Some(*k),
                            _ => None,
                        }) {
                            if let Some(call) = parse_call(toks, i) {
                                out.fns[fn_idx].calls.push(call);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    attach_annotations(f, &mut out);
    out
}

/// Brace matching: `open token index → close token index`.
fn match_braces(toks: &[Token]) -> HashMap<usize, usize> {
    let mut close = HashMap::new();
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                close.insert(open, i);
            }
        }
    }
    close
}

/// From an `impl`/`trait` keyword, finds the opening `{` of the block and
/// the implemented type name (`impl Foo`, `impl<T> Foo<T>`,
/// `impl Trait for Foo` → `Foo`; `trait Bar` → `Bar`).
fn parse_impl_header(toks: &[Token], kw: usize) -> Option<(usize, Option<String>)> {
    let mut j = kw + 1;
    // Skip the generic parameter list, counting single-char angle tokens
    // (so `>>` — two tokens — closes two levels).
    if toks.get(j)?.is_punct('<') {
        let mut depth = 0i32;
        while let Some(t) = toks.get(j) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            } else if t.is_punct('{') || t.is_punct(';') {
                return None;
            }
            j += 1;
        }
    }
    // Collect header tokens up to the `{` (or give up on `;`).
    let start = j;
    let mut brace = None;
    let mut angle = 0i32;
    while let Some(t) = toks.get(j) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('{') && angle <= 0 {
            brace = Some(j);
            break;
        } else if t.is_punct(';') && angle <= 0 {
            return None;
        }
        j += 1;
    }
    let brace = brace?;
    // The type region: after a depth-0 `for`, if present; else the whole
    // header. The name is the last segment of the first path in it.
    let mut region_start = start;
    let mut angle = 0i32;
    for k in start..brace {
        let t = &toks[k];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle <= 0 && t.is_ident("for") {
            region_start = k + 1;
        }
    }
    let mut ty = None;
    let mut k = region_start;
    while k < brace {
        let t = &toks[k];
        if t.kind == TokKind::Ident {
            if matches!(t.text.as_str(), "dyn" | "mut" | "const") {
                k += 1;
                continue;
            }
            ty = Some(t.text.clone());
            // Follow `::` segments to the last one before generics.
            while toks.get(k + 1).map(|t| t.is_punct(':')).unwrap_or(false)
                && toks.get(k + 2).map(|t| t.is_punct(':')).unwrap_or(false)
                && toks.get(k + 3).map(|t| t.kind == TokKind::Ident).unwrap_or(false)
            {
                ty = Some(toks[k + 3].text.clone());
                k += 3;
            }
            break;
        }
        k += 1;
    }
    Some((brace, ty))
}

/// After a fn name (and generics/args/return type), finds the body braces:
/// the first `{` at paren/bracket depth 0, or `None` at a `;` (bodyless).
/// `impl Trait` in signatures is fine — types contain no braces.
fn find_fn_body(
    toks: &[Token],
    from: usize,
    close: &HashMap<usize, usize>,
) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = from;
    while let Some(t) = toks.get(j) {
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') if depth <= 0 => {
                return close.get(&j).map(|&c| (j, c));
            }
            TokKind::Punct(';') if depth <= 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Tries to read a call expression whose callee name is the ident at `i`:
/// `name(`, `name::<T>(`, `path::name(`, `.name(`, `.name::<T>(`.
fn parse_call(toks: &[Token], i: usize) -> Option<Call> {
    let name = &toks[i];
    if NON_CALL_IDENTS.contains(&name.text.as_str()) {
        return None;
    }
    // A fn declaration's own name is not a call.
    if i > 0 && toks[i - 1].is_ident("fn") {
        return None;
    }
    // Skip a turbofish: `::` `<` … `>` immediately after the name.
    let mut j = i + 1;
    if toks.get(j).map(|t| t.is_punct(':')).unwrap_or(false)
        && toks.get(j + 1).map(|t| t.is_punct(':')).unwrap_or(false)
        && toks.get(j + 2).map(|t| t.is_punct('<')).unwrap_or(false)
    {
        let mut depth = 0i32;
        let mut k = j + 2;
        let mut closed = None;
        while let Some(t) = toks.get(k) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    closed = Some(k);
                    break;
                }
            } else if t.is_punct('(') || t.is_punct('{') || t.is_punct(';') {
                break;
            }
            k += 1;
        }
        j = closed? + 1;
    }
    if !toks.get(j).map(|t| t.is_punct('(')).unwrap_or(false) {
        return None;
    }

    let method = i > 0 && toks[i - 1].is_punct('.');
    let mut qualifier = Vec::new();
    let mut recv_self = false;
    if method {
        // Walk the receiver chain backwards: `.field` pairs until the
        // root; a literal `self` root marks a same-object call.
        let mut k = i - 1; // the `.`
        loop {
            if k >= 2
                && toks[k - 1].kind == TokKind::Ident
                && toks[k - 2].is_punct('.')
            {
                k -= 2;
            } else {
                break;
            }
        }
        recv_self = k >= 1 && toks[k - 1].is_ident("self");
    } else {
        // Collect `seg::seg::` qualifiers backwards.
        let mut k = i;
        while k >= 3
            && toks[k - 1].is_punct(':')
            && toks[k - 2].is_punct(':')
            && toks[k - 3].kind == TokKind::Ident
        {
            qualifier.insert(0, bare(&toks[k - 3].text).to_string());
            k -= 3;
        }
    }
    Some(Call {
        name: bare(&name.text).to_string(),
        qualifier,
        method,
        recv_self,
        line: name.line,
        col: name.col,
    })
}

/// Attaches `// lint: entry(rule)` comments to the next `fn`.
fn attach_annotations(f: &SourceFile, out: &mut ParsedFile) {
    for c in &f.lexed.comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("lint:") else { continue };
        let rest = rest.trim_start();
        if let Some(arg) = annotation_arg(rest, "entry") {
            out.entries.push(EntryMark { line: c.line, rule: arg.clone() });
            if arg == "panic-reachability" {
                // The nearest fn at or below the comment.
                if let Some(fi) = out
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.line >= c.end_line)
                    .min_by_key(|(_, g)| g.line)
                    .map(|(k, _)| k)
                {
                    out.fns[fi].entry = true;
                }
            }
        }
    }
}

/// `allow`-style argument extraction: `keyword(arg)` → `arg`.
fn annotation_arg(rest: &str, keyword: &str) -> Option<String> {
    let rest = rest.strip_prefix(keyword)?.trim_start();
    let body = rest.strip_prefix('(')?;
    let end = body.find(')')?;
    Some(body[..end].trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileClass, SourceFile};

    fn parse(src: &str) -> ParsedFile {
        let f = SourceFile::parse("crates/demo/src/lib.rs".into(), src, FileClass::default());
        parse_file(&f)
    }

    #[test]
    fn fn_items_carry_module_and_impl_context() {
        let p = parse(
            "mod inner {\n    pub struct S;\n    impl S {\n        pub fn m(&self) {}\n    }\n    pub fn free() {}\n}\n",
        );
        assert_eq!(p.krate, "demo");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "m");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("S"));
        assert_eq!(p.fns[0].module, vec!["inner"]);
        assert_eq!(p.fns[1].name, "free");
        assert!(p.fns[1].impl_type.is_none());
    }

    #[test]
    fn trait_impls_resolve_to_the_implementing_type() {
        let p = parse("impl fmt::Display for F16 {\n    fn fmt(&self) {}\n}\n");
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("F16"));
    }

    #[test]
    fn nested_generics_do_not_derail_the_body_scan() {
        // `Vec<Vec<u32>>` ends in `>>` — two single-char tokens that must
        // close two generic levels, not shift anything.
        let p = parse(
            "impl<T: Into<Vec<Vec<u32>>>> Wrap<T> {\n    fn take(x: Vec<Vec<u32>>) -> impl Iterator<Item = u32> {\n        inner(x)\n    }\n}\n",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].impl_type.as_deref(), Some("Wrap"));
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].name, "inner");
    }

    #[test]
    fn turbofish_calls_are_extracted() {
        let p = parse(
            "fn f() {\n    let v = parse::<Vec<Vec<u8>>>(x);\n    let w = y.collect::<Vec<_>>();\n}\n",
        );
        let names: Vec<_> = p.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["parse", "collect"]);
        assert!(p.fns[0].calls[1].method);
    }

    #[test]
    fn raw_identifier_fn_and_call() {
        let p = parse("fn r#match() {}\nfn g() { r#match(); }\n");
        assert_eq!(p.fns[0].name, "match");
        assert_eq!(p.fns[1].calls[0].name, "match");
    }

    #[test]
    fn method_receiver_chains_detect_self() {
        let p = parse(
            "impl S {\n    fn f(&mut self) {\n        self.helper();\n        self.field.push(1);\n        other.push(2);\n    }\n}\n",
        );
        let calls = &p.fns[0].calls;
        assert!(calls[0].recv_self && calls[0].method);
        assert!(calls[1].recv_self, "self.field.push is rooted at self");
        assert!(!calls[2].recv_self);
    }

    #[test]
    fn qualified_calls_keep_their_path() {
        let p = parse("fn f() {\n    fault::point(SITE, 1);\n    Self::helper(2);\n}\n");
        assert_eq!(p.fns[0].calls[0].qualifier, vec!["fault"]);
        assert_eq!(p.fns[0].calls[1].qualifier, vec!["Self"]);
    }

    #[test]
    fn entry_annotation_attaches_to_the_next_fn() {
        let p = parse("// lint: entry(panic-reachability)\npub fn hot() {\n    work();\n}\n");
        assert!(p.fns[0].entry);
        assert_eq!(p.entries.len(), 1);
    }

    #[test]
    fn bodyless_trait_methods_have_no_body() {
        let p = parse("trait T {\n    fn decl(&self);\n    fn with_default(&self) { x(); }\n}\n");
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
        assert_eq!(p.fns[1].impl_type.as_deref(), Some("T"));
    }
}
