//! `salient-lint` — the CLI for the in-repo lock-discipline check.
//!
//! ```text
//! salient-lint [check] [--root DIR]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use salient_lint::workspace;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: salient-lint [check] [--root DIR]";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check") {
        args.remove(0);
    }
    let root = match args.as_slice() {
        [] => None,
        [flag, dir] if flag == "--root" => Some(PathBuf::from(dir)),
        [flag] if flag == "-h" || flag == "--help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("salient-lint: unexpected arguments: {}\n{USAGE}", args.join(" "));
            return ExitCode::from(2);
        }
    };
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = root.or_else(|| workspace::find_root(&cwd)) else {
        eprintln!("salient-lint: no workspace root found above {}", cwd.display());
        return ExitCode::from(2);
    };
    let report = match workspace::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("salient-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for d in &report.diagnostics {
        println!("{}", d.render_text());
    }
    println!(
        "salient-lint: {} file(s), {} lock-discipline finding(s)",
        report.files_scanned,
        report.diagnostics.len()
    );
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
