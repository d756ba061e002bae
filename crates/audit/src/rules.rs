//! The rule set: identifiers, scopes and the per-rule inputs.
//!
//! Rules are numbered after the invariants they defend (DESIGN.md §9/§14):
//!
//! | id                   | invariant                                        |
//! |----------------------|--------------------------------------------------|
//! | `determinism`        | R1 — bitwise serial/parallel + seeded replay     |
//! | `forbid-unsafe`      | R4 — `#![forbid(unsafe_code)]` in every crate    |
//! | `panic-reachability` | R6 — nothing reachable from untrusted input aborts |
//! | `float-reduction`    | R7 — float reductions only in the kernel seam    |
//! | `rng-stream`         | R8 — RNGs derive from the seeded root, no aliasing |
//! | `env-read`           | R9 — env reads only at the sanctioned config sites |
//!
//! R6 supersedes the old per-file `no-panic` (R2): instead of a
//! hardcoded file list, the call graph decides what untrusted input can
//! reach. R3 (every `EventKind` recorded) and R5 (every `MetricId`
//! sampled) are retired: `tests/async_golden.rs` and the fleet's unit
//! test now check at runtime that every kind fires and every metric is
//! sampled. Three meta-rules police the suppression mechanism itself:
//! `bad-suppression` (malformed `allow`), `unused-suppression` (an
//! `allow` that silenced nothing) and `suppression-budget` (more
//! suppressions of one rule than its reviewed budget).

/// Rule id for R1 (determinism).
pub const RULE_DETERMINISM: &str = "determinism";
/// Rule id for R4 (unsafe ban).
pub const RULE_FORBID_UNSAFE: &str = "forbid-unsafe";
/// Rule id for R6 (interprocedural panic-freedom on untrusted input).
/// Supersedes the old file-scoped `no-panic` rule.
pub const RULE_PANIC_REACH: &str = "panic-reachability";
/// Rule id for R7 (float-reduction discipline).
pub const RULE_FLOAT_REDUCTION: &str = "float-reduction";
/// Rule id for R8 (RNG-stream discipline).
pub const RULE_RNG_STREAM: &str = "rng-stream";
/// Rule id for R9 (env-read discipline).
pub const RULE_ENV_READ: &str = "env-read";
/// Meta-rule: a suppression directive that could not be parsed.
pub const RULE_BAD_SUPPRESSION: &str = "bad-suppression";
/// Meta-rule: a suppression directive that silenced no finding.
pub const RULE_UNUSED_SUPPRESSION: &str = "unused-suppression";
/// Meta-rule: a rule's per-rule suppression budget is exceeded.
pub const RULE_SUPPRESSION_BUDGET: &str = "suppression-budget";

/// All real (non-meta) rule ids, for directive validation.
pub const RULE_IDS: [&str; 6] = [
    RULE_DETERMINISM,
    RULE_FORBID_UNSAFE,
    RULE_PANIC_REACH,
    RULE_FLOAT_REDUCTION,
    RULE_RNG_STREAM,
    RULE_ENV_READ,
];

/// Per-rule suppression budgets (satellite of ISSUE 9): each `allow()`
/// is a reviewed exception, and the review happens when the budget is
/// raised here — not when the Nth directive quietly lands. Exceeding a
/// budget is a `suppression-budget` finding.
pub const SUPPRESSION_BUDGETS: [(&str, usize); 6] = [
    (RULE_DETERMINISM, 2),
    (RULE_FORBID_UNSAFE, 1),
    (RULE_PANIC_REACH, 4),
    (RULE_FLOAT_REDUCTION, 2),
    (RULE_RNG_STREAM, 2),
    (RULE_ENV_READ, 1),
];

/// The budget for `rule`, defaulting to zero for unknown ids.
pub fn suppression_budget(rule: &str) -> usize {
    SUPPRESSION_BUDGETS
        .iter()
        .find(|(r, _)| *r == rule)
        .map_or(0, |(_, n)| *n)
}

/// Crates whose `src/` trees must be deterministic (R1): no host clock,
/// no unseeded RNG, no raw threads, no hash-order iteration. `stsl-parallel`
/// is deliberately absent — it is the sanctioned threading layer.
pub const R1_CRATE_DIRS: [&str; 5] = [
    "crates/tensor/src/",
    "crates/nn/src/",
    "crates/split/src/",
    "crates/simnet/src/",
    "crates/telemetry/src/",
];

/// R6 entry files: every non-test function in these files handles bytes
/// an attacker may control (wire decode, checkpoint/ring load, CIFAR
/// parse, guard ingress, robust-aggregation payloads, membership
/// lifecycle driven by client messages). Anything they transitively call
/// inside [`R6_DOMAIN_DIRS`] must be panic-free.
pub const R6_ENTRY_FILES: [&str; 6] = [
    "crates/split/src/protocol.rs",
    "crates/split/src/guard.rs",
    "crates/split/src/checkpoint.rs",
    "crates/split/src/aggregate.rs",
    "crates/split/src/membership.rs",
    "crates/data/src/cifar.rs",
];

/// The R6 reachability domain: call-graph nodes live here. `tensor` and
/// `nn` are a deliberate boundary — their shape-contract panics are
/// prevented at the boundary by validated construction (see DESIGN.md
/// §14) and chasing edges into the kernels would flood the rule.
pub const R6_DOMAIN_DIRS: [&str; 4] = [
    "crates/split/src/",
    "crates/simnet/src/",
    "crates/telemetry/src/",
    "crates/data/src/",
];

/// The sanctioned non-associative-reduction seam (R7): scalar and tensor
/// reductions live in the kernel seam and the robust-aggregation
/// combiners, where the bitwise-equivalence tests pin their order.
pub const R7_SEAM: [&str; 2] = ["crates/tensor/src/ops/", "crates/split/src/aggregate.rs"];

/// The one file allowed to construct an RNG from raw seed material (R8):
/// the seeded root `rng_from_seed` and the `derive_seed` splitter.
pub const R8_RNG_ROOT_FILE: &str = "crates/tensor/src/init.rs";

/// Files sanctioned to read process environment variables (R9): the
/// documented config sites. Everything else must take configuration as
/// data.
pub const R9_ENV_FILES: [&str; 3] = [
    "crates/parallel/src/lib.rs",
    "crates/bench/src/lib.rs",
    "crates/audit/src/main.rs",
];

/// Identifiers banned outright in R1 scope, with the finding message.
pub const R1_BANNED_IDENTS: [(&str, &str); 4] = [
    (
        "HashMap",
        "HashMap iteration order is nondeterministic; use BTreeMap or an index-keyed Vec",
    ),
    (
        "HashSet",
        "HashSet iteration order is nondeterministic; use BTreeSet or a sorted Vec",
    ),
    (
        "thread_rng",
        "thread_rng() is unseeded; derive an StdRng from the run seed (init::rng_from_seed)",
    ),
    (
        "is_x86_feature_detected",
        "runtime CPU sniffing forks numeric behavior by host; select kernels via the \
         Backend seam (with_backend) and let the compiler target baseline features",
    ),
];

/// Whether `path` (repo-relative, `/`-separated) is in R1 scope.
pub fn in_r1_scope(path: &str) -> bool {
    R1_CRATE_DIRS.iter().any(|d| path.starts_with(d))
}

/// Whether `path` is one of the R6 untrusted-input entry files.
pub fn is_r6_entry(path: &str) -> bool {
    R6_ENTRY_FILES.contains(&path)
}

/// Whether `path` is inside the R6 reachability domain.
pub fn in_r6_domain(path: &str) -> bool {
    R6_DOMAIN_DIRS.iter().any(|d| path.starts_with(d))
}

/// Whether `path` is inside the sanctioned reduction seam (R7-exempt).
pub fn in_r7_seam(path: &str) -> bool {
    R7_SEAM.iter().any(|s| path.starts_with(s) || path == *s)
}

/// Whether R7 applies to `path`: R1 scope minus the sanctioned seam.
pub fn in_r7_scope(path: &str) -> bool {
    in_r1_scope(path) && !in_r7_seam(path)
}

/// Whether R8 applies to `path`: R1 scope minus the RNG root file.
pub fn in_r8_scope(path: &str) -> bool {
    in_r1_scope(path) && path != R8_RNG_ROOT_FILE
}

/// Whether R9 applies to `path`: everywhere except the sanctioned
/// config sites.
pub fn in_r9_scope(path: &str) -> bool {
    !R9_ENV_FILES.contains(&path)
}

/// Whether `path` is a crate root that must carry the unsafe ban (R4):
/// every workspace crate under `crates/` plus the facade crate.
pub fn in_r4_scope(path: &str) -> bool {
    path == "src/lib.rs"
        || (path.starts_with("crates/")
            && path.ends_with("/src/lib.rs")
            && path.matches('/').count() == 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_match_expected_paths() {
        assert!(in_r1_scope("crates/split/src/async_trainer.rs"));
        assert!(in_r1_scope("crates/tensor/src/ops/gemm.rs"));
        assert!(!in_r1_scope("crates/parallel/src/lib.rs"));
        assert!(!in_r1_scope("crates/audit/src/engine.rs"));

        assert!(is_r6_entry("crates/split/src/guard.rs"));
        assert!(is_r6_entry("crates/split/src/aggregate.rs"));
        assert!(is_r6_entry("crates/split/src/membership.rs"));
        assert!(!is_r6_entry("crates/split/src/server.rs"));
        assert!(in_r6_domain("crates/split/src/server.rs"));
        assert!(!in_r6_domain("crates/tensor/src/tensor.rs"));

        assert!(!in_r7_scope("crates/tensor/src/ops/gemm.rs"));
        assert!(!in_r7_scope("crates/split/src/aggregate.rs"));
        assert!(in_r7_scope("crates/split/src/guard.rs"));

        assert!(in_r8_scope("crates/split/src/async_trainer.rs"));
        assert!(!in_r8_scope("crates/tensor/src/init.rs"));

        assert!(!in_r9_scope("crates/parallel/src/lib.rs"));
        assert!(in_r9_scope("crates/tensor/src/backend.rs"));
        assert!(in_r9_scope("crates/simnet/src/event.rs"));
        assert!(in_r9_scope("crates/split/src/server.rs"));

        assert!(in_r4_scope("src/lib.rs"));
        assert!(in_r4_scope("crates/audit/src/lib.rs"));
        assert!(!in_r4_scope("crates/split/src/guard.rs"));
        assert!(!in_r4_scope("shims/rand/src/lib.rs"));
    }

    #[test]
    fn every_rule_has_a_budget_entry() {
        for rule in RULE_IDS {
            assert!(
                SUPPRESSION_BUDGETS.iter().any(|(r, _)| *r == rule),
                "rule {rule} has no suppression budget"
            );
        }
        assert_eq!(suppression_budget(RULE_DETERMINISM), 2);
        assert_eq!(suppression_budget("nonsense"), 0);
    }
}
