//! # salient-bench
//!
//! Every table and figure of the paper's evaluation, one function each in
//! [`paper`], which `salient paper <table1…table7|fig1…fig6>` runs.
//!
//! Per-layer timings (sampler edges/s, GEMM GFLOP/s, aggregation, slicing,
//! stream copy, backward, optimizer) are rows of the ledger the
//! `benchmark/` package writes, not microbenches here.

pub mod paper;

use std::fmt::Write as _;

/// Renders rows as a fixed-width text table with a header rule.
pub(crate) fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut width = vec![0usize; cols];
    for (i, h) in headers.iter().enumerate() {
        width[i] = h.len();
    }
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(line, "| {:w$} ", h, w = width[i]);
    }
    line.push('|');
    let rule: String = line
        .chars()
        .map(|c| if c == '|' { '|' } else { '-' })
        .collect();
    let _ = writeln!(out, "{line}");
    let _ = writeln!(out, "{rule}");
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            let pad = width[i].saturating_sub(cell.chars().count());
            let _ = write!(line, "| {}{} ", cell, " ".repeat(pad));
        }
        line.push('|');
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Formats seconds with sensible precision.
pub(crate) fn fmt_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 10.0 {
        format!("{s:.1}s")
    } else {
        format!("{s:.2}s")
    }
}

/// Formats a ratio as `N.NNx`.
pub(crate) fn fmt_x(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage.
pub(crate) fn fmt_pct(p: f64) -> String {
    format!("{p:.0}%")
}

/// Renders a unicode horizontal bar of `value/max` scaled to `width` cells.
pub(crate) fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "█".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "all rows equal width");
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_s(123.4), "123s");
        assert_eq!(fmt_s(12.34), "12.3s");
        assert_eq!(fmt_s(1.234), "1.23s");
        assert_eq!(fmt_x(2.5), "2.50x");
        assert_eq!(fmt_pct(28.4), "28%");
    }

    #[test]
    fn bars() {
        assert_eq!(bar(5.0, 10.0, 10), "█████");
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10);
    }
}
