//! The finding type and its text rendering.

/// One lock-discipline finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Diagnostic {
    /// `file:line:col: [lock-discipline] message` plus the snippet.
    pub fn render_text(&self) -> String {
        let mut s = format!(
            "{}:{}:{}: [lock-discipline] {}",
            self.file, self.line, self.col, self.message
        );
        if !self.snippet.is_empty() {
            s.push_str(&format!("\n    {}", self.snippet));
        }
        s
    }
}
