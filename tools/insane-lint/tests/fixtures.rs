//! End-to-end runs over the seeded fixture trees: the linter must find
//! every planted violation in `fixtures/bad` and nothing in
//! `fixtures/good` — and, as the acceptance gate, nothing in the real
//! workspace either.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn bad_fixture_trips_every_rule() {
    let violations = insane_lint::lint_root(&fixture("bad")).expect("scan fixture");
    let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    for expected in [
        "raw-socket",
        "raw-slot-arithmetic",
        "no-panic-paths",
        "unsafe-whitelist",
        "safety-comment",
        "bad-waiver",
    ] {
        assert!(
            rules.contains(&expected),
            "rule {expected} did not fire; got: {rules:?}"
        );
    }
    // Naming the bare slot id in core, not only forging one, is a finding.
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "raw-slot-arithmetic" && v.line == 31),
        "`SlotToken` parameter in non-test core code went unnoticed: {violations:#?}"
    );
    // The reason-less waiver must NOT suppress its target.
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "no-panic-paths" && v.line == 23),
        "reason-less waiver suppressed the violation it covered: {violations:#?}"
    );
}

#[test]
fn bad_v2_fixture_trips_every_new_rule() {
    let violations = insane_lint::lint_root(&fixture("bad_v2")).expect("scan fixture");
    let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    for expected in [
        "hot-path-alloc",
        "hot-path-block",
        "hot-path-rwlock",
        "hot-path-panic",
        "lock-order-cycle",
        "lock-across-wait",
        "slot-token-drop",
    ] {
        assert!(
            rules.contains(&expected),
            "rule {expected} did not fire; got: {rules:?}"
        );
    }
    // The alloc finding sits in an unannotated callee of the root: the
    // call graph, not a textual scan, established hot-path membership.
    assert!(
        violations.iter().any(|v| v.rule == "hot-path-alloc"
            && v.message.contains("drain_step")
            && v.message.contains("poll_hot")),
        "call-graph provenance missing from hot-path-alloc: {violations:#?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "hot-path-block" && v.message.contains("thread::park_timeout")),
        "a timed park on the hot path went unnoticed: {violations:#?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "hot-path-block" && v.message.contains("notify_one")),
        "an unconditional wake on the hot path went unnoticed: {violations:#?}"
    );
}

#[test]
fn good_v2_fixture_is_clean() {
    let violations = insane_lint::lint_root(&fixture("good_v2")).expect("scan fixture");
    assert!(violations.is_empty(), "false positives: {violations:#?}");
}

#[test]
fn good_fixture_is_clean() {
    let violations = insane_lint::lint_root(&fixture("good")).expect("scan fixture");
    assert!(violations.is_empty(), "false positives: {violations:#?}");
}

#[test]
fn shipped_workspace_is_clean() {
    // CARGO_MANIFEST_DIR = <repo>/tools/insane-lint.
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
        .to_path_buf();
    assert!(repo.join("Cargo.toml").exists(), "repo root not found");
    let violations = insane_lint::lint_root(&repo).expect("scan workspace");
    assert!(
        violations.is_empty(),
        "workspace has invariant violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
