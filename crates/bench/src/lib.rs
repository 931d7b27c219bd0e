//! # salient-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation. Each binary prints one artifact:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | baseline per-operation breakdown |
//! | `table2` | sampling/slicing thread scaling, PyG vs SALIENT |
//! | `table3` | the optimization ladder |
//! | `table4` | dataset summary |
//! | `table5` | hyperparameter table |
//! | `table6` | inference accuracy vs fanout (real training) |
//! | `table7` | cross-system comparison |
//! | `fig1`   | execution timeline, baseline vs SALIENT |
//! | `fig2`   | 96-variant sampler design space (real wall clock) |
//! | `fig3`   | accuracy & node count vs degree (real training) |
//! | `fig4`   | single-GPU speedup over PyG |
//! | `fig5`   | multi-GPU scaling |
//! | `fig6`   | per-architecture time & accuracy |
//!
//! Microbenches (`cargo bench`, built on the in-repo [`harness`] module)
//! cover the sampler variants, slicing kernels, lock-free queue vs static
//! partitioning, tensor kernels, f16 conversion, the CPU kernel layer
//! (emitting `target/bench_kernels.json`), and the DES engine itself.

pub mod harness;

use std::fmt::Write as _;
use std::str::FromStr;

/// Renders rows as a fixed-width text table with a header rule.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
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
pub fn fmt_s(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 10.0 {
        format!("{s:.1}s")
    } else {
        format!("{s:.2}s")
    }
}

/// Formats a ratio as `N.NNx`.
pub fn fmt_x(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(p: f64) -> String {
    format!("{p:.0}%")
}

/// The value after flag `name` in `args`, or `default` when the flag is
/// absent. A flag with no value, or one that does not read as a `T`, is an
/// error naming both.
fn parse_arg<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{name}: cannot read {value:?} as {}", std::any::type_name::<T>()))
}

/// Reads a `--scale 0.2` / `--reps 5` style flag from `std::env::args`,
/// `default` when absent. A value that does not parse exits with status 2
/// naming the flag and the value, so a typo cannot run as the default.
pub fn arg<T: FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, name, default).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        #[expect(clippy::disallowed_methods, reason = "only the table and figure binaries call this, first thing in `main`: nothing to unwind, nothing supervised")]
        std::process::exit(2)
    })
}

/// Renders a unicode horizontal bar of `value/max` scaled to `width` cells.
pub fn bar(value: f64, max: f64, width: usize) -> String {
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
    fn a_flag_parses_defaults_or_names_what_it_could_not_read() {
        let args: Vec<String> = ["fig2", "--scale", "0.5", "--reps", "abc", "--epochs"]
            .map(String::from)
            .to_vec();
        assert_eq!(parse_arg(&args, "--scale", 0.15), Ok(0.5));
        assert_eq!(parse_arg(&args, "--rounds", 5usize), Ok(5));
        let unreadable = parse_arg(&args, "--reps", 3usize).unwrap_err();
        assert!(unreadable.contains("--reps") && unreadable.contains("abc"), "{unreadable}");
        assert!(parse_arg(&args, "--epochs", 30usize).unwrap_err().contains("--epochs"));
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
