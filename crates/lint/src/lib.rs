//! # salient-lint
//!
//! The one workspace invariant the toolchain's linter cannot express:
//! **lock discipline**. Every other standing invariant — documented
//! `unsafe`, no unreasoned panic in library code, no wall-clock read or
//! scalar half conversion without a stated reason, reasoned and live
//! suppressions, path-only dependencies — is held by `cargo clippy` and
//! `cargo metadata`, configured in the root `Cargo.toml`
//! (`[workspace.lints]`) and `clippy.toml`; DESIGN.md section 8 has the
//! table. Those lints see resolved types. What they have no lint for is the
//! order in which a program takes its locks, so that check stays here, on
//! std alone: a hand-rolled Rust lexer ([`lexer`]) and one rule
//! ([`rules::lock_discipline`]) over its tokens and comments.
//!
//! | check | invariant |
//! |-------|-----------|
//! | lock order | no cycle in the "acquired while holding" graph of the workspace's `Mutex` / `RwLock` fields, followed through calls made under a guard |
//! | `Relaxed` | every `Ordering::Relaxed` has a comment on its line or the two above saying why no stronger ordering is needed |
//!
//! A finding is fixed, not suppressed: the rule has no allow syntax. Test
//! code (`tests/`, `benches/`, `#[cfg(test)]`, `#[test]`) is not checked.

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

pub use diag::Diagnostic;
pub use source::SourceFile;
pub use workspace::{run, LintReport};
