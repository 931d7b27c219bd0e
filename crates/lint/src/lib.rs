//! # salient-lint
//!
//! A std-only, in-repo static-analysis pass enforcing the workspace's
//! safety, determinism, and concurrency invariants. The SALIENT
//! reproduction's speedups come from hand-engineered shared-memory
//! parallelism — pinned-slot batch prep, lock-free queues, unsafe SIMD
//! kernels — exactly the code where a silent data race, a panicking
//! `unwrap` on a poisoned lock, or a stray wall-clock read breaks the
//! deterministic fault-replay guarantees. Since the workspace is
//! dependency-free by standing constraint, the tooling is built here, on
//! std alone: a hand-rolled Rust lexer plus a rule engine.
//!
//! ## Rule catalog
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-audit` | every `unsafe` block/fn/impl carries a `// SAFETY:` comment (or `# Safety` doc) |
//! | `panic-freedom` | no `.unwrap()` / `.expect()` / `panic!` / `todo!` / `unimplemented!` in hot-path modules |
//! | `panic-reachability` | no panicking construct (incl. `[i]` indexing) in any fn transitively reachable from a `// lint: entry(panic-reachability)` declaration, via the workspace call graph |
//! | `determinism` | no `Instant::now` / `SystemTime::now` / `thread::sleep` / `process::exit` outside sim, bench, and CLI code |
//! | `lock-discipline` | no lock-order cycles; every `Ordering::Relaxed` is justified by a comment |
//! | `deps` | every manifest dependency is `path` or `workspace = true` (offline-buildable) |
//! | `suppression` | every `// lint: allow(rule, reason)` carries a non-empty reason, still silences something, and every `entry` annotation is well-formed |
//!
//! ## Semantic substrate
//!
//! [`parser`] lifts the token stream to items (modules, `impl` blocks,
//! `fn`s with their call expressions) and [`callgraph`] links them into a
//! cross-crate call graph with declared hot-path entry points — the
//! substrate for `panic-reachability` and the `salient-lint graph` report.
//!
//! ## Suppressions
//!
//! `// lint: allow(rule-name, reason)` on the offending line or the line
//! above silences one rule there; the reason string is mandatory and is
//! itself linted. Suppressed findings still appear in the report (marked),
//! so the suppression inventory stays auditable — and a suppression that
//! stops matching any finding becomes a finding itself.

pub mod callgraph;
pub mod deps;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;
pub mod workspace;

pub use diag::Diagnostic;
pub use source::{FileClass, SourceFile};
pub use workspace::{run, run_deps, LintReport};
