//! The fixture self-test: every rule must fire on its known-bad snippet
//! and stay silent on the suppressed variant. This is what makes the
//! linter itself trustworthy: a rule that cannot catch its own fixture
//! is dead code, and a suppression that does not silence it is a lie.

use std::fs;
use std::path::PathBuf;
use wfd_lint::lint_source;

/// `(bad fixture, allowed fixture, rule id, findings expected from bad,
/// path label that puts the fixture in the rule's scope)`.
const CASES: &[(&str, &str, &str, usize, &str)] = &[
    (
        "d1_bad.rs",
        "d1_allowed.rs",
        "d1-hash-collections",
        2,
        "crates/registers/src/fixture.rs",
    ),
    (
        "d2_bad.rs",
        "d2_allowed.rs",
        "d2-wall-clock",
        3,
        "crates/registers/src/fixture.rs",
    ),
    (
        "d3_bad.rs",
        "d3_allowed.rs",
        "d3-atomics",
        3,
        "crates/registers/src/fixture.rs",
    ),
    (
        "d4_bad.rs",
        "d4_allowed.rs",
        "d4-debug-format",
        1,
        "crates/registers/src/fixture.rs",
    ),
    (
        "d5_print_bad.rs",
        "d5_print_allowed.rs",
        "d5-print",
        2,
        "crates/registers/src/fixture.rs",
    ),
    (
        "d5_unwrap_bad.rs",
        "d5_unwrap_allowed.rs",
        "d5-unwrap",
        1,
        "crates/sim/src/engine.rs",
    ),
    (
        "d6_bad.rs",
        "d6_allowed.rs",
        "d6-taint",
        2, // the direct env read plus the chain finding in its caller
        "crates/registers/src/fixture.rs",
    ),
    (
        "d8_bad.rs",
        "d8_allowed.rs",
        "d8-machine-purity",
        3, // `&mut self` entry point, `&mut State` helper, RefCell
        "crates/registers/src/fixture.rs",
    ),
];

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_rule_fires_on_its_known_bad_snippet() {
    for &(bad, _, rule, expected, label) in CASES {
        let out = lint_source(label, &fixture(bad));
        assert!(
            out.errors.is_empty() && out.stale.is_empty(),
            "{bad}: bad fixtures must be plain findings, got stale={:#?} errors={:#?}",
            out.stale,
            out.errors
        );
        assert_eq!(
            out.findings.len(),
            expected,
            "{bad}: expected {expected} findings, got {:#?}",
            out.findings
        );
        for f in &out.findings {
            assert_eq!(f.rule, rule, "{bad}: wrong rule fired: {:#?}", f);
            assert!(f.line > 0 && f.col > 0, "{bad}: positions must be 1-based");
            assert!(!f.excerpt.is_empty(), "{bad}: excerpt must carry the line");
        }
    }
}

#[test]
fn every_rule_respects_its_allow() {
    for &(_, allowed, rule, _, label) in CASES {
        let out = lint_source(label, &fixture(allowed));
        assert!(
            out.findings.is_empty(),
            "{allowed}: suppressed variant still fires: {:#?}",
            out.findings
        );
        assert!(
            out.stale.is_empty(),
            "{allowed}: every allow in the fixture must be load-bearing, got {:#?}",
            out.stale
        );
        assert!(out.errors.is_empty(), "{allowed}: {:#?}", out.errors);
        assert!(
            out.suppressed.iter().all(|s| s.rule == rule),
            "{allowed}: suppressed findings must belong to {rule}: {:#?}",
            out.suppressed
        );
        assert!(
            !out.suppressed.is_empty(),
            "{allowed}: the allow must have silenced something"
        );
        assert_eq!(out.exit_code(), 0, "{allowed} must be clean");
    }
}

#[test]
fn bad_fixtures_exit_one() {
    for &(bad, _, _, _, label) in CASES {
        let out = lint_source(label, &fixture(bad));
        assert_eq!(out.exit_code(), 1, "{bad} must fail the audit");
    }
}

#[test]
fn out_of_scope_label_silences_scoped_rules() {
    // The same known-bad d2 source is fine inside the observability
    // layer, whose timers feed a side table only.
    let out = lint_source("crates/sim/src/obs.rs", &fixture("d2_bad.rs"));
    assert!(
        out.findings.iter().all(|f| f.rule != "d2-wall-clock"),
        "obs.rs is out of d2 scope: {:#?}",
        out.findings
    );
    // The same env-tainted source is sanctioned inside the fuzz
    // campaign and the env-override boundary.
    for label in ["crates/bench/src/fuzz.rs", "crates/sim/src/env.rs"] {
        let out = lint_source(label, &fixture("d6_bad.rs"));
        assert!(
            out.findings.iter().all(|f| f.rule != "d6-taint"),
            "{label} is out of d6 scope: {:#?}",
            out.findings
        );
    }
}

#[test]
fn d6_renders_the_full_tainted_chain() {
    let out = lint_source("crates/registers/src/fixture.rs", &fixture("d6_bad.rs"));
    let chained = out
        .findings
        .iter()
        .find(|f| !f.chain.is_empty())
        .expect("the caller gets a chain finding");
    assert_eq!(
        chained.chain.len(),
        3,
        "decide → config_flag → primitive: {:#?}",
        chained.chain
    );
    assert!(chained.chain[0].starts_with("decide ("));
    assert!(chained.chain[1].starts_with("config_flag ("));
    assert_eq!(chained.chain[2], "std::env::var");

    // The text report renders every hop; the JSON report carries the
    // chain as an array.
    let text = wfd_lint::render_text(&out);
    assert!(text.contains("chain: decide ("), "text:\n{text}");
    assert!(text.contains("\u{2192} config_flag ("), "text:\n{text}");
    assert!(text.contains("\u{2192} std::env::var"), "text:\n{text}");
    let back = wfd_sim::json::Json::parse(&wfd_lint::render_json(&out)).expect("valid JSON");
    let findings = back
        .get("findings")
        .and_then(wfd_sim::json::Json::as_array)
        .expect("findings");
    assert!(findings.iter().any(|f| {
        f.get("chain")
            .and_then(wfd_sim::json::Json::as_array)
            .is_some_and(|c| c.len() == 3)
    }));
}

#[test]
fn d9_fires_only_with_a_workspace_version() {
    let files = [(
        "crates/sim/src/fixture.rs".to_string(),
        fixture("d9_bad.rs"),
    )];
    let out = wfd_lint::lint_sources(&files, Some([0, 7, 0]));
    assert_eq!(out.findings.len(), 2, "{:#?}", out.findings);
    assert!(out.findings.iter().all(|f| f.rule == "d9-deprecated"));
    assert!(out.findings.iter().any(|f| f.message.contains("survived")));
    assert!(out
        .findings
        .iter()
        .any(|f| f.message.contains("without `since`")));

    // Single-file mode has no workspace version: the lifecycle cannot
    // be audited, so the pass stays off rather than guessing.
    let out = wfd_lint::lint_sources(&files, None);
    assert!(out.findings.is_empty(), "{:#?}", out.findings);
}

#[test]
fn d9_tolerates_fresh_and_justified_deprecations() {
    let files = [(
        "crates/sim/src/fixture.rs".to_string(),
        fixture("d9_allowed.rs"),
    )];
    let out = wfd_lint::lint_sources(&files, Some([0, 7, 0]));
    assert!(out.findings.is_empty(), "{:#?}", out.findings);
    assert_eq!(out.suppressed.len(), 1, "{:#?}", out.suppressed);
    assert_eq!(out.suppressed[0].rule, "d9-deprecated");
    assert!(out.stale.is_empty(), "{:#?}", out.stale);
    assert_eq!(out.exit_code(), 0);
}
