//! `stsl-audit` — the workspace invariant linter.
//!
//! The repo's headline guarantees (bitwise serial/parallel equivalence,
//! panic-free decode of hostile wire bytes, exact retransmit/drop
//! accounting) are dynamic properties that a single stray `HashMap`
//! iteration, `thread_rng()` or `unwrap()` silently re-breaks. This crate
//! enforces them *statically*: it lexes every `.rs` file in the workspace
//! (no `syn` — the build environment is offline, so the scanner is a
//! purpose-built token lexer), recovers functions and a workspace call
//! graph from the token stream (`parser`/`callgraph`), and applies the
//! rule set:
//!
//! - **R1 `determinism`** — no `HashMap`/`HashSet`, `Instant::now`,
//!   `SystemTime`, `thread_rng` or raw `thread::spawn` in the
//!   deterministic crates (`tensor`, `nn`, `split`, `simnet`,
//!   `telemetry`).
//! - **R4 `forbid-unsafe`** — every crate root declares
//!   `#![forbid(unsafe_code)]`.
//! - **R6 `panic-reachability`** — no `unwrap`/`expect`/panicking
//!   macro/unchecked indexing in any function transitively reachable
//!   from the untrusted-input entry points; findings carry the full
//!   entry-point → panic call chain. Supersedes the old file-scoped
//!   `no-panic` rule.
//! - **R7 `float-reduction`** — non-associative float reductions only in
//!   the sanctioned kernel seam (`tensor/src/ops/`, the `aggregate.rs`
//!   combiners).
//! - **R8 `rng-stream`** — every RNG derives from the seeded root
//!   (`rng_from_seed`/`derive_seed`), with no seed-expression reuse.
//! - **R9 `env-read`** — `env::var` only at the sanctioned
//!   config/backend-selection sites.
//!
//! R3 (every `EventKind` recorded) and R5 (every `MetricId` sampled) are
//! retired. Liveness is now checked at runtime: `tests/async_golden.rs`
//! asserts that the golden runs fire every non-fleet event kind and
//! sample every non-fleet metric, and the fleet's unit test covers the
//! fleet-only `CohortStep` and `CohortSize`.
//!
//! Suppressions are inline comments the tool counts and reports, with a
//! per-rule budget enforced by the `suppression-budget` meta-rule:
//!
//! ```text
//! // stsl-audit: allow(determinism, reason = "wall-clock is informational")
//! ```
//!
//! Run it with `cargo run -p stsl-audit` (add `--format json` for the
//! SARIF-lite report CI consumes); exit code is nonzero on any
//! unsuppressed finding. See DESIGN.md §9 and §14 for the rule table,
//! the parser/call-graph architecture and how to add a rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod callgraph;
mod engine;
mod lexer;
mod parser;
pub mod rules;

pub use callgraph::ChainHop;
pub use engine::{audit, AuditReport, Finding, SourceFile, UsedSuppression};

use std::io;
use std::path::{Path, PathBuf};

/// Collects the audited sources of the workspace rooted at `root`:
/// `src/**/*.rs` plus `crates/*/src/**/*.rs`, in deterministic (sorted)
/// order, with repo-relative `/`-separated paths.
///
/// `shims/` is deliberately excluded: the shims are API-compatible
/// stand-ins for external crates, not project code. Test fixtures under
/// `crates/audit/tests/` are never reached because only `src/` trees are
/// walked.
///
/// # Errors
///
/// Propagates filesystem errors (an unreadable tree should fail the audit
/// loudly, not pass it silently).
pub fn collect_workspace_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        walk_rs(&src, root, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            let member_src = member.join("src");
            if member_src.is_dir() {
                walk_rs(&member_src, root, &mut files)?;
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel_str = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                path: rel_str,
                text: std::fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from `start` to the first
/// directory containing both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
