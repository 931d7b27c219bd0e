//! A hand-rolled Rust lexer sufficient for rule matching.
//!
//! This is not a full Rust grammar: it tokenizes identifiers, literals, and
//! punctuation with exact line/column positions, while correctly *skipping*
//! the constructs that defeat naive text matching — line and (nested) block
//! comments, string/raw-string/byte-string literals, and character literals
//! (disambiguated from lifetimes). Comments are not discarded: they are
//! collected with their lines so the rule can look for the comment that
//! justifies an `Ordering::Relaxed`.

/// What kind of token was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `lock`, ...).
    Ident,
    /// A lifetime (`'a`) — kept distinct so `'a` never reads as a char.
    Lifetime,
    /// String / raw string / byte string / char / numeric literal.
    Literal,
    /// A single punctuation character (`.`, `:`, `{`, ...). Multi-char
    /// operators are emitted as consecutive single-char tokens; rules match
    /// token *sequences*, so `::` is simply `:` `:`.
    Punct(char),
}

/// One token with its 1-based source position.
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokKind,
    /// The token text (for `Punct` this is the single character).
    pub text: String,
    pub line: usize,
    pub col: usize,
}

impl Token {
    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment with its line extent and raw text (markers stripped).
#[derive(Clone, Debug)]
pub struct Comment {
    /// Line the comment starts on.
    pub line: usize,
    /// Line the comment ends on (== `line` for line comments).
    pub end_line: usize,
    /// Comment body without the `//` / `/* */` markers.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor { src: src.as_bytes(), pos: 0, line: 1, col: 1 };
    let mut out = Lexed::default();

    while let Some(b) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                let mut text = Vec::new();
                cur.bump();
                cur.bump();
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                out.comments.push(Comment {
                    line,
                    end_line: line,
                    text: String::from_utf8_lossy(&text).into_owned(),
                });
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                let mut text = Vec::new();
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(c), _) => {
                            text.push(c);
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.comments.push(Comment {
                    line,
                    end_line: cur.line,
                    text: String::from_utf8_lossy(&text).into_owned(),
                });
            }
            b'"' => {
                let start = cur.pos;
                lex_string(&mut cur);
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
                    line,
                    col,
                });
            }
            b'r' | b'b' if starts_raw_or_byte_string(&cur) => {
                let start = cur.pos;
                lex_raw_or_byte_string(&mut cur);
                out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
                    line,
                    col,
                });
            }
            // `r#ident`: a raw identifier is one Ident token that keeps
            // its `r#` prefix (so `r#match` is distinguishable from the
            // keyword `match`) and never splits into `r` `#` `match`.
            b'r' if cur.peek_at(1) == Some(b'#')
                && cur.peek_at(2).map(is_ident_start).unwrap_or(false) =>
            {
                cur.bump();
                cur.bump();
                let mut text = String::from("r#");
                while let Some(ch) = cur.peek() {
                    if is_ident_continue(ch) {
                        text.push(ch as char);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token { kind: TokKind::Ident, text, line, col });
            }
            b'\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'a'`, `'\n'`).
                // After the quote, an identifier run NOT followed by a
                // closing quote is a lifetime.
                let mut j = 1;
                let mut ident_len = 0;
                while let Some(c) = cur.peek_at(j) {
                    if is_ident_continue(c) {
                        ident_len += 1;
                        j += 1;
                    } else {
                        break;
                    }
                }
                let is_lifetime = ident_len > 0
                    && cur.peek_at(1).map(is_ident_start).unwrap_or(false)
                    && cur.peek_at(1 + ident_len) != Some(b'\'');
                if is_lifetime {
                    let mut text = String::from("'");
                    cur.bump();
                    while let Some(c) = cur.peek() {
                        if is_ident_continue(c) {
                            text.push(c as char);
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    out.tokens.push(Token { kind: TokKind::Lifetime, text, line, col });
                } else {
                    cur.bump();
                    // Consume the char body up to the closing quote,
                    // honoring escapes.
                    loop {
                        match cur.peek() {
                            Some(b'\\') => {
                                cur.bump();
                                cur.bump();
                            }
                            Some(b'\'') => {
                                cur.bump();
                                break;
                            }
                            Some(_) => {
                                cur.bump();
                            }
                            None => break,
                        }
                    }
                    out.tokens.push(Token {
                        kind: TokKind::Literal,
                        text: String::from("''"),
                        line,
                        col,
                    });
                }
            }
            c if is_ident_start(c) => {
                let mut text = String::new();
                while let Some(ch) = cur.peek() {
                    if is_ident_continue(ch) {
                        text.push(ch as char);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token { kind: TokKind::Ident, text, line, col });
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                // Numbers never matter to the rules; consume a loose
                // [0-9a-zA-Z_.xX]* run, careful not to eat `..` or a method
                // call like `1.max(2)`.
                while let Some(ch) = cur.peek() {
                    if ch.is_ascii_alphanumeric() || ch == b'_' {
                        text.push(ch as char);
                        cur.bump();
                    } else if ch == b'.'
                        && cur.peek_at(1).map(|n| n.is_ascii_digit()).unwrap_or(false)
                    {
                        text.push('.');
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token { kind: TokKind::Literal, text, line, col });
            }
            c => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokKind::Punct(c as char),
                    text: (c as char).to_string(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// True when the cursor sits on `r"`, `r#`, `b"`, `b'`, `br"`, or `br#`
/// (raw/byte literal starts, as opposed to identifiers starting with r/b).
fn starts_raw_or_byte_string(cur: &Cursor<'_>) -> bool {
    let b0 = cur.peek();
    let b1 = cur.peek_at(1);
    match (b0, b1) {
        (Some(b'r'), Some(b'"')) | (Some(b'r'), Some(b'#')) => {
            // `r#ident` is a raw identifier, not a raw string: require a
            // quote after the hashes.
            let mut j = 1;
            while cur.peek_at(j) == Some(b'#') {
                j += 1;
            }
            cur.peek_at(j) == Some(b'"')
        }
        (Some(b'b'), Some(b'"')) | (Some(b'b'), Some(b'\'')) => true,
        (Some(b'b'), Some(b'r')) => {
            let mut j = 2;
            while cur.peek_at(j) == Some(b'#') {
                j += 1;
            }
            cur.peek_at(j) == Some(b'"')
        }
        _ => false,
    }
}

/// Consumes a normal `"..."` string (cursor on the opening quote).
fn lex_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    loop {
        match cur.peek() {
            Some(b'\\') => {
                cur.bump();
                cur.bump();
            }
            Some(b'"') => {
                cur.bump();
                break;
            }
            Some(_) => {
                cur.bump();
            }
            None => break,
        }
    }
}

/// Consumes a raw string / byte string / byte char starting at the cursor.
fn lex_raw_or_byte_string(cur: &mut Cursor<'_>) {
    let mut raw = false;
    if cur.peek() == Some(b'b') {
        cur.bump();
    }
    if cur.peek() == Some(b'r') {
        raw = true;
        cur.bump();
    }
    if !raw {
        match cur.peek() {
            Some(b'"') => lex_string(cur),
            Some(b'\'') => {
                // byte char b'x'
                cur.bump();
                loop {
                    match cur.peek() {
                        Some(b'\\') => {
                            cur.bump();
                            cur.bump();
                        }
                        Some(b'\'') => {
                            cur.bump();
                            break;
                        }
                        Some(_) => {
                            cur.bump();
                        }
                        None => break,
                    }
                }
            }
            _ => {}
        }
        return;
    }
    let mut hashes = 0usize;
    while cur.peek() == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    if cur.peek() != Some(b'"') {
        return;
    }
    cur.bump();
    // Scan until `"` followed by `hashes` hash marks.
    'outer: loop {
        match cur.bump() {
            Some(b'"') => {
                for j in 0..hashes {
                    if cur.peek_at(j) != Some(b'#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
            Some(_) => {}
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            // unwrap() in a comment
            /* panic! in /* a nested */ block comment */
            let s = "unsafe { Instant::now() }";
            let r = r#"thread::sleep "inner" here"#;
            real_ident();
        "##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "let", "r", "real_ident"]);
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 2);
        assert!(lx.comments[0].text.contains("unwrap"));
        assert!(lx.comments[1].text.contains("nested"));
    }

    #[test]
    fn lifetimes_do_not_eat_code_as_char_literals() {
        let src = "fn f<'a>(x: &'a str) { g('x', '\\n', b'y'); }";
        let ids = idents(src);
        assert_eq!(ids, vec!["fn", "f", "x", "str", "g"]);
        let lifetimes: Vec<_> = lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text)
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
    }

    #[test]
    fn positions_are_one_based_and_accurate() {
        let src = "ab\n  cd";
        let toks = lex(src).tokens;
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        let src = "let r#type = 1; r#match();";
        let ids = idents(src);
        // `r#type` lexes as the single identifier `r#type` (one token), and
        // the lexer does not swallow the rest of the file as a raw string.
        assert_eq!(ids, vec!["let", "r#type", "r#match"]);
    }

    #[test]
    fn string_literal_text_is_preserved() {
        let toks = lex("f(\"serve.queue_depth\"); g(r#\"raw \"x\"\"#);").tokens;
        let lits: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, vec!["\"serve.queue_depth\"", "r#\"raw \"x\"\"#"]);
    }
}
