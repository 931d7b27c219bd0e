//! Per-file analysis context: lexed tokens, line text, and `#[cfg(test)]` /
//! `#[test]` region tracking.

use crate::lexer::{lex, Lexed};

/// One workspace source file ready for the rule.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub lexed: Lexed,
    lines: Vec<String>,
    /// Inclusive (start, end) line ranges of `#[cfg(test)]` / `#[test]`
    /// items.
    test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `text` and precomputes its test regions.
    pub fn parse(path: String, text: &str) -> SourceFile {
        let lexed = lex(text);
        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let test_regions = find_test_regions(&lexed);
        SourceFile { path, lexed, lines, test_regions }
    }

    /// The 1-based source line, or `""` past EOF.
    pub fn line(&self, n: usize) -> &str {
        self.lines
            .get(n.wrapping_sub(1))
            .map(|s| s.as_str())
            .unwrap_or("")
    }

    /// True when `line` falls inside a `#[cfg(test)]` module or `#[test]`
    /// function.
    pub fn in_test_code(&self, line: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| line >= s && line <= e)
    }

    /// True if any comment overlapping `lines` (inclusive range) satisfies
    /// `pred` on its text.
    pub fn comment_in_range(
        &self,
        from_line: usize,
        to_line: usize,
        pred: impl Fn(&str) -> bool,
    ) -> bool {
        self.lexed
            .comments
            .iter()
            .any(|c| c.end_line >= from_line && c.line <= to_line && pred(&c.text))
    }
}

/// Scans for `#[cfg(test)]` and `#[test]` attributes and brace-matches the
/// following item to get its line extent.
fn find_test_regions(lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // `#` `[` ...
        if toks[i].is_punct('#') && toks.get(i + 1).map(|t| t.is_punct('[')).unwrap_or(false) {
            let is_test_attr = match toks.get(i + 2) {
                Some(t) if t.is_ident("test") => true,
                Some(t) if t.is_ident("cfg") => {
                    // `cfg(test)` — accept `test` anywhere inside the
                    // attribute parens (covers `cfg(all(test, ...))`).
                    let mut j = i + 3;
                    let mut depth = 0usize;
                    let mut found = false;
                    while let Some(tk) = toks.get(j) {
                        if tk.is_punct('[') || tk.is_punct('(') {
                            depth += 1;
                        } else if tk.is_punct(']') {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        } else if tk.is_punct(')') {
                            depth = depth.saturating_sub(1);
                        } else if tk.is_ident("test") {
                            found = true;
                        }
                        j += 1;
                    }
                    found
                }
                _ => false,
            };
            if is_test_attr {
                // Find the item's opening brace, then its matching close.
                let mut j = i + 2;
                while let Some(tk) = toks.get(j) {
                    if tk.is_punct('{') {
                        break;
                    }
                    // A `;` before any `{` means the item has no body
                    // (e.g. `#[cfg(test)] mod tests;`) — skip.
                    if tk.is_punct(';') {
                        j = usize::MAX;
                        break;
                    }
                    j += 1;
                }
                if j != usize::MAX {
                    if let Some(open) = toks.get(j) {
                        let start = toks[i].line.min(open.line);
                        let mut depth = 0usize;
                        let mut end = open.line;
                        while let Some(tk) = toks.get(j) {
                            if tk.is_punct('{') {
                                depth += 1;
                            } else if tk.is_punct('}') {
                                depth -= 1;
                                if depth == 0 {
                                    end = tk.line;
                                    break;
                                }
                            }
                            j += 1;
                        }
                        regions.push((start, end));
                        i = j;
                    }
                }
            }
        }
        i += 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::parse("test.rs".into(), src)
    }

    #[test]
    fn cfg_test_module_extent() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn live2() {}\n";
        let f = sf(src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(4));
        assert!(f.in_test_code(5));
        assert!(!f.in_test_code(6));
    }

    #[test]
    fn test_fn_extent() {
        let src = "#[test]\nfn t() {\n    x();\n}\nfn live() {}\n";
        let f = sf(src);
        assert!(f.in_test_code(3));
        assert!(!f.in_test_code(5));
    }
}
