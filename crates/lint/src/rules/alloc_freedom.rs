//! **alloc-freedom**: `// lint: region(no_alloc)` marks a block that must
//! not allocate — the trace-disabled fast path, the GEMM micro-kernels,
//! and the scatter inner loops, where the PR-5 counting-allocator test's
//! guarantee becomes a static, always-on check. Inside a region the rule
//! rejects collection construction (`Vec::new`, `vec![…]`, `Box::new`,
//! `String::…`), growth (`.push(…)`, `.extend(…)`, `.collect(…)`), and
//! copying conversions (`.clone()`, `.to_vec()`, `.to_string()`,
//! `.to_owned()`, `format!`).

use super::{emit, ALLOC_FREEDOM};
use crate::diag::Diagnostic;
use crate::parser::ParsedFile;
use crate::source::SourceFile;

/// `Type::ctor` pairs that allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Arc", "new"),
    ("Rc", "new"),
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Methods that allocate or grow an allocation.
const ALLOC_METHODS: &[&str] = &[
    "push", "push_str", "push_back", "push_front", "insert", "extend",
    "collect", "to_vec", "to_string", "to_owned", "clone", "reserve",
    "resize", "with_capacity", "append", "repeat", "concat", "join",
];

/// Runs the rule over one file's annotated regions.
pub fn run(f: &SourceFile, pf: &ParsedFile, out: &mut Vec<Diagnostic>) {
    let toks = &f.lexed.tokens;
    for region in &pf.regions {
        if region.kind != "no_alloc" {
            continue;
        }
        let Some((open, close)) = region.body else { continue };
        for i in open..=close.min(toks.len().saturating_sub(1)) {
            let t = &toks[i];
            // `Type::ctor(` paths.
            if ALLOC_PATHS.iter().any(|(ty, _)| t.is_ident(ty)) {
                if let (Some(c1), Some(c2), Some(name)) =
                    (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
                {
                    if c1.is_punct(':')
                        && c2.is_punct(':')
                        && ALLOC_PATHS
                            .iter()
                            .any(|(ty, m)| t.is_ident(ty) && name.is_ident(m))
                    {
                        emit(
                            f,
                            ALLOC_FREEDOM,
                            t.line,
                            t.col,
                            format!(
                                "`{}::{}` allocates inside a `no_alloc` region (declared at line {})",
                                t.text, name.text, region.line
                            ),
                            out,
                        );
                    }
                }
            }
            // `vec![…]` / `format!(…)`.
            if toks.get(i + 1).map(|n| n.is_punct('!')).unwrap_or(false)
                && ALLOC_MACROS.iter().any(|m| t.is_ident(m))
            {
                emit(
                    f,
                    ALLOC_FREEDOM,
                    t.line,
                    t.col,
                    format!(
                        "`{}!` allocates inside a `no_alloc` region (declared at line {})",
                        t.text, region.line
                    ),
                    out,
                );
            }
            // `.method(` growth/copy calls.
            if t.is_punct('.') {
                if let (Some(name), Some(paren)) = (toks.get(i + 1), toks.get(i + 2)) {
                    if paren.is_punct('(') && ALLOC_METHODS.iter().any(|m| name.is_ident(m)) {
                        emit(
                            f,
                            ALLOC_FREEDOM,
                            name.line,
                            name.col,
                            format!(
                                "`.{}()` allocates inside a `no_alloc` region (declared at line {})",
                                name.text, region.line
                            ),
                            out,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::source::{FileClass, SourceFile};

    fn check(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse("crates/x/src/lib.rs".into(), src, FileClass::default());
        let pf = parse_file(&f);
        let mut out = Vec::new();
        run(&f, &pf, &mut out);
        out
    }

    #[test]
    fn allocations_inside_a_region_fire() {
        let out = check(
            "fn f() {\n    // lint: region(no_alloc)\n    {\n        let v = Vec::new();\n        let s = format!(\"x\");\n        buf.push(1);\n        let c = buf.clone();\n    }\n}\n",
        );
        assert_eq!(out.len(), 4, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "alloc-freedom"));
    }

    #[test]
    fn allocations_outside_the_region_are_fine() {
        let out = check(
            "fn f() {\n    let v = Vec::new();\n    // lint: region(no_alloc)\n    {\n        let x = a + b;\n    }\n    v.push(1);\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn index_math_and_unsafe_reads_are_allowed() {
        let out = check(
            "fn f() {\n    // lint: region(no_alloc)\n    {\n        let x = unsafe { *p.add(1) };\n        acc[0] = acc[0] + x;\n    }\n}\n",
        );
        // `.add(` is pointer arithmetic; nothing in this region allocates.
        assert!(out.is_empty(), "{out:?}");
    }
}
