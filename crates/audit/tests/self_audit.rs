//! The audit run against the real tree, plus regression tripwires: the
//! workspace must be clean, and undoing a hardening fix must make the
//! auditor fire again (the linter is only worth its keep if it catches
//! the revert).

use std::collections::BTreeMap;
use stsl_audit::rules::{
    suppression_budget, RULE_ENV_READ, RULE_FLOAT_REDUCTION, RULE_PANIC_REACH, RULE_RNG_STREAM,
};
use stsl_audit::{audit, collect_workspace_sources, find_workspace_root, SourceFile};

fn workspace_sources() -> Vec<SourceFile> {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above CARGO_MANIFEST_DIR");
    collect_workspace_sources(&root).expect("workspace sources readable")
}

/// Appends `code` to the named real file, panicking if it is missing.
fn append_to(files: &mut [SourceFile], path: &str, code: &str) {
    let f = files
        .iter_mut()
        .find(|f| f.path == path)
        .unwrap_or_else(|| panic!("{path} in workspace"));
    f.text.push_str(code);
}

#[test]
fn workspace_is_clean_within_per_rule_suppression_budgets() {
    let report = audit(&workspace_sources());
    assert!(
        report.findings.is_empty(),
        "the tree must audit clean:\n{:#?}",
        report.findings
    );
    // The engine already emits suppression-budget findings past the
    // budget; re-checking per rule here keeps the invariant visible even
    // if that meta-rule is ever weakened.
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for s in &report.suppressions {
        assert!(!s.reason.is_empty());
        *by_rule.entry(s.rule.as_str()).or_default() += s.count.max(1);
    }
    for (rule, n) in by_rule {
        assert!(
            n <= suppression_budget(rule),
            "{n} used allow({rule}) directives exceed the reviewed budget of {}",
            suppression_budget(rule)
        );
    }
    assert!(report.files_scanned > 50, "the walk found the whole tree");
}

#[test]
fn reintroducing_a_panic_site_in_an_entry_file_is_caught() {
    let mut files = workspace_sources();
    // The shape of the pre-hardening code: direct indexing into an
    // untrusted record, right in the parser entry file.
    append_to(
        &mut files,
        "crates/data/src/cifar.rs",
        "\npub fn regressed(rec: &[u8]) -> u8 {\n    rec[0]\n}\n",
    );

    let report = audit(&files);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == RULE_PANIC_REACH && f.path.ends_with("cifar.rs")),
        "reintroduced indexing must fire panic-reachability:\n{:#?}",
        report.findings
    );
}

#[test]
fn reintroducing_an_interprocedural_panic_is_caught_with_its_chain() {
    // The panic goes into server.rs (not an entry file); a new protocol
    // entry calls it. Per-file scanning cannot see this — only the call
    // graph connects the wire decode to the abort two files away.
    let mut files = workspace_sources();
    append_to(
        &mut files,
        "crates/split/src/server.rs",
        "\npub fn regressed_poke(b: &[u8]) -> u8 {\n    b[0]\n}\n",
    );
    append_to(
        &mut files,
        "crates/split/src/protocol.rs",
        "\npub fn regressed_entry(b: &[u8]) -> u8 {\n    crate::server::regressed_poke(b)\n}\n",
    );

    let report = audit(&files);
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == RULE_PANIC_REACH && f.path.ends_with("server.rs"))
        .unwrap_or_else(|| {
            panic!(
                "reintroduced cross-file panic must fire panic-reachability:\n{:#?}",
                report.findings
            )
        });
    assert!(
        f.message.contains("reachable from untrusted-input entry"),
        "the finding must name the entry point: {}",
        f.message
    );
    assert!(
        f.chain.len() >= 2,
        "the finding must carry the entry → panic chain: {:#?}",
        f.chain
    );
    assert_eq!(f.chain[0].name, "regressed_entry");
    assert!(f.chain[0].path.ends_with("protocol.rs"));
}

#[test]
fn reintroducing_a_float_reduction_outside_the_seam_is_caught() {
    let mut files = workspace_sources();
    append_to(
        &mut files,
        "crates/split/src/scheduler.rs",
        "\npub fn regressed_total(xs: &[f32]) -> f32 {\n    xs.iter().sum::<f32>()\n}\n",
    );

    let report = audit(&files);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == RULE_FLOAT_REDUCTION && f.path.ends_with("scheduler.rs")),
        "a float sum outside the seam must fire float-reduction:\n{:#?}",
        report.findings
    );
}

#[test]
fn reintroducing_a_direct_rng_construction_is_caught() {
    let mut files = workspace_sources();
    append_to(
        &mut files,
        "crates/simnet/src/fault.rs",
        "\npub fn regressed_rng(seed: u64) -> StdRng {\n    StdRng::seed_from_u64(seed)\n}\n",
    );

    let report = audit(&files);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == RULE_RNG_STREAM && f.path.ends_with("fault.rs")),
        "bypassing the seeded root must fire rng-stream:\n{:#?}",
        report.findings
    );
}

#[test]
fn reintroducing_an_env_read_is_caught() {
    let mut files = workspace_sources();
    append_to(
        &mut files,
        "crates/telemetry/src/registry.rs",
        "\npub fn regressed_env() -> Option<String> {\n    std::env::var(\"STSL_SNEAKY\").ok()\n}\n",
    );

    let report = audit(&files);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == RULE_ENV_READ && f.path.ends_with("registry.rs")),
        "an env read outside the sanctioned sites must fire env-read:\n{:#?}",
        report.findings
    );
}
