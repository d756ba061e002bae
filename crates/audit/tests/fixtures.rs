//! Fixture tests: each rule fires exactly once on its known-bad file
//! (presented under a virtual in-scope path), and an inline `allow()`
//! directive silences the finding and shows up in the suppression ledger.

use stsl_audit::rules::{
    RULE_DETERMINISM, RULE_ENV_READ, RULE_FLOAT_REDUCTION, RULE_FORBID_UNSAFE, RULE_PANIC_REACH,
    RULE_RNG_STREAM, RULE_SUPPRESSION_BUDGET, RULE_UNUSED_SUPPRESSION,
};
use stsl_audit::{audit, AuditReport, SourceFile};

fn fixture(path: &str, name: &str) -> SourceFile {
    let on_disk = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    SourceFile {
        path: path.to_string(),
        text: std::fs::read_to_string(&on_disk)
            .unwrap_or_else(|e| panic!("fixture {}: {e}", on_disk.display())),
    }
}

fn assert_fires_once(report: &AuditReport, rule: &str) {
    assert_eq!(
        report.findings.len(),
        1,
        "expected exactly one finding, got: {:#?}",
        report.findings
    );
    assert_eq!(report.findings[0].rule, rule);
    assert!(report.suppressions.is_empty());
}

fn assert_silenced(report: &AuditReport, rule: &str) {
    assert!(
        report.findings.is_empty(),
        "allow() should silence the finding: {:#?}",
        report.findings
    );
    assert_eq!(report.suppressions.len(), 1, "the allow must be counted");
    assert_eq!(report.suppressions[0].rule, rule);
    assert_eq!(report.suppressions[0].count, 1);
    assert!(!report.suppressions[0].reason.is_empty());
}

#[test]
fn r1_determinism_fires_exactly_once() {
    let report = audit(&[fixture("crates/split/src/fixture.rs", "r1_bad.rs")]);
    assert_fires_once(&report, RULE_DETERMINISM);
    assert!(report.findings[0].message.contains("HashMap"));
}

#[test]
fn r1_cpu_sniffing_fires_exactly_once() {
    // Kernel selection must go through the Backend seam, not host CPUID:
    // is_x86_feature_detected! forks numerics by machine, which breaks
    // cross-host reproducibility even when each host is self-consistent.
    let report = audit(&[fixture("crates/tensor/src/fixture.rs", "r1_cpu_sniff.rs")]);
    assert_fires_once(&report, RULE_DETERMINISM);
    assert!(report.findings[0].message.contains("Backend seam"));
}

#[test]
fn r1_allow_silences_and_is_counted() {
    let report = audit(&[fixture("crates/split/src/fixture.rs", "r1_allowed.rs")]);
    assert_silenced(&report, RULE_DETERMINISM);
}

#[test]
fn r6_entry_file_panic_fires_exactly_once() {
    // The panic sits in the entry function itself: a one-hop chain.
    let report = audit(&[fixture("crates/split/src/protocol.rs", "r6_bad.rs")]);
    assert_fires_once(&report, RULE_PANIC_REACH);
    assert!(report.findings[0].message.contains("unwrap"));
    assert_eq!(
        report.findings[0].chain.len(),
        1,
        "a direct entry-file panic has a one-hop chain: {:#?}",
        report.findings[0].chain
    );
    assert_eq!(report.findings[0].chain[0].name, "first_byte");
}

#[test]
fn r6_interprocedural_panic_carries_the_full_chain() {
    // The entry file is panic-free; the abort lives one call away in
    // another file. Only the call graph connects the two — and the
    // finding must spell out the entry → panic chain.
    let report = audit(&[
        fixture("crates/split/src/protocol.rs", "r6_entry.rs"),
        fixture("crates/split/src/framing.rs", "r6_helper.rs"),
    ]);
    assert_fires_once(&report, RULE_PANIC_REACH);
    let f = &report.findings[0];
    assert_eq!(f.path, "crates/split/src/framing.rs", "{f:#?}");
    assert!(
        f.message
            .contains("reachable from untrusted-input entry `decode_header`"),
        "the finding must name the entry point: {}",
        f.message
    );
    assert_eq!(f.chain.len(), 2, "entry → helper: {:#?}", f.chain);
    assert_eq!(f.chain[0].name, "decode_header");
    assert_eq!(f.chain[0].path, "crates/split/src/protocol.rs");
    assert_eq!(f.chain[1].name, "first_byte");
    assert_eq!(f.chain[1].path, "crates/split/src/framing.rs");
}

#[test]
fn r6_standalone_allow_silences_and_is_counted() {
    let report = audit(&[fixture("crates/split/src/protocol.rs", "r6_allowed.rs")]);
    assert_silenced(&report, RULE_PANIC_REACH);
}

#[test]
fn r6_interprocedural_allow_lands_at_the_panic_site() {
    // Suppression happens where the panic lives, not at the entry.
    let report = audit(&[
        fixture("crates/split/src/protocol.rs", "r6_entry.rs"),
        fixture("crates/split/src/framing.rs", "r6_helper_allowed.rs"),
    ]);
    assert_silenced(&report, RULE_PANIC_REACH);
    assert_eq!(report.suppressions[0].path, "crates/split/src/framing.rs");
}

#[test]
fn r6_unreachable_panic_in_domain_is_clean() {
    // The same bytes in a domain file no entry point reaches produce
    // nothing: reachability is part of the rule, not the content.
    let report = audit(&[fixture("crates/split/src/server.rs", "r6_bad.rs")]);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

#[test]
fn r6_fixture_is_clean_outside_the_domain() {
    let report = audit(&[fixture("crates/bench/src/fixture.rs", "r6_bad.rs")]);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

#[test]
fn r7_float_reduction_fires_exactly_once() {
    let report = audit(&[fixture("crates/split/src/fixture.rs", "r7_bad.rs")]);
    assert_fires_once(&report, RULE_FLOAT_REDUCTION);
    assert!(report.findings[0].message.contains("kernel seam"));
}

#[test]
fn r7_fixture_is_clean_inside_the_seam() {
    // The identical reduction under the sanctioned kernel-seam path is
    // exactly where such code belongs.
    let report = audit(&[fixture("crates/tensor/src/ops/fixture.rs", "r7_bad.rs")]);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

#[test]
fn r7_allow_silences_and_is_counted() {
    let report = audit(&[fixture("crates/split/src/fixture.rs", "r7_allowed.rs")]);
    assert_silenced(&report, RULE_FLOAT_REDUCTION);
}

#[test]
fn r8_direct_rng_construction_fires_exactly_once() {
    let report = audit(&[fixture("crates/split/src/fixture.rs", "r8_bad.rs")]);
    assert_fires_once(&report, RULE_RNG_STREAM);
    assert!(report.findings[0].message.contains("seed_from_u64"));
}

#[test]
fn r8_seed_aliasing_fires_exactly_once() {
    // Two rng_from_seed calls on the same seed expression: the second
    // one aliases the first stream and is the finding.
    let report = audit(&[fixture("crates/simnet/src/fixture.rs", "r8_alias.rs")]);
    assert_fires_once(&report, RULE_RNG_STREAM);
    assert!(
        report.findings[0].message.contains("alias"),
        "{}",
        report.findings[0].message
    );
}

#[test]
fn r8_allow_silences_and_is_counted() {
    let report = audit(&[fixture("crates/split/src/fixture.rs", "r8_allowed.rs")]);
    assert_silenced(&report, RULE_RNG_STREAM);
}

#[test]
fn r9_env_read_fires_exactly_once() {
    let report = audit(&[fixture("crates/split/src/fixture.rs", "r9_bad.rs")]);
    assert_fires_once(&report, RULE_ENV_READ);
    assert!(report.findings[0].message.contains("environment read"));
}

#[test]
fn r9_fixture_is_clean_at_a_sanctioned_site() {
    let report = audit(&[fixture("crates/audit/src/main.rs", "r9_bad.rs")]);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

#[test]
fn r9_allow_silences_and_is_counted() {
    let report = audit(&[fixture("crates/split/src/fixture.rs", "r9_allowed.rs")]);
    assert_silenced(&report, RULE_ENV_READ);
}

#[test]
fn r4_missing_forbid_fires_exactly_once() {
    let report = audit(&[fixture("crates/demo/src/lib.rs", "r4_bad.rs")]);
    assert_fires_once(&report, RULE_FORBID_UNSAFE);
}

#[test]
fn r4_allow_silences_and_is_counted() {
    let report = audit(&[fixture("crates/demo/src/lib.rs", "r4_allowed.rs")]);
    assert_silenced(&report, RULE_FORBID_UNSAFE);
}

#[test]
fn unused_allow_is_itself_a_finding_naming_the_rule() {
    // The allowed fixture under an out-of-scope path: nothing fires, so
    // the directive is dead weight and must be flagged — by rule id, so
    // the author knows which directive to delete.
    let report = audit(&[fixture("crates/audit/src/fixture.rs", "r1_allowed.rs")]);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].rule, RULE_UNUSED_SUPPRESSION);
    assert!(
        report.findings[0].message.contains("allow(determinism)"),
        "the report must name the unused rule id: {}",
        report.findings[0].message
    );
    assert!(report.suppressions.is_empty());
}

#[test]
fn cfg_test_items_are_rule_exempt() {
    // The same violations inside a `#[cfg(test)]` module are test
    // scaffolding, not shipped behaviour: the audit must not fire.
    let text = "pub fn shipped() -> u8 { 0 }\n\
                #[cfg(test)]\n\
                mod tests {\n\
                    use std::collections::HashMap;\n\
                    #[test]\n\
                    fn t() {\n\
                        let mut m = HashMap::new();\n\
                        m.insert(1u8, [0u8; 1][0]);\n\
                        let s: f32 = [1.0f32].iter().sum::<f32>();\n\
                        assert!(s > 0.0);\n\
                    }\n\
                }\n";
    let report = audit(&[SourceFile {
        path: "crates/split/src/fixture.rs".to_string(),
        text: text.to_string(),
    }]);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);

    // Moving the HashMap out of the test module makes it real code again.
    let leaked = format!("use std::collections::HashMap;\n{text}");
    let report = audit(&[SourceFile {
        path: "crates/split/src/fixture.rs".to_string(),
        text: leaked,
    }]);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].rule, RULE_DETERMINISM);
}

#[test]
fn per_rule_suppression_budget_is_enforced() {
    // Three used determinism suppressions against a budget of two: the
    // directive past the budget is itself a finding.
    let report = audit(&[
        fixture("crates/split/src/fixture_a.rs", "r1_allowed.rs"),
        fixture("crates/split/src/fixture_b.rs", "r1_allowed.rs"),
        fixture("crates/simnet/src/fixture_c.rs", "r1_allowed.rs"),
    ]);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].rule, RULE_SUPPRESSION_BUDGET);
    assert!(
        report.findings[0].message.contains("budget of 2"),
        "{}",
        report.findings[0].message
    );
    assert_eq!(report.suppressions.len(), 3, "every allow is still counted");
}

#[test]
fn suppressions_within_budget_are_not_flagged() {
    let report = audit(&[
        fixture("crates/split/src/fixture_a.rs", "r1_allowed.rs"),
        fixture("crates/split/src/fixture_b.rs", "r1_allowed.rs"),
    ]);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.suppressions.len(), 2);
}
