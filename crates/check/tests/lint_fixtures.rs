//! Fixture-driven end-to-end tests for the lint rules.
//!
//! Every rule has three fixtures under `tests/fixtures/`: one violating
//! file, one clean rewrite, and one where the violation is suppressed by an
//! allow-directive. The fixtures directory is excluded from the workspace
//! walk, so these files never pollute `graphrep-check -- lint` output.

use graphrep_check::rules::{lint_source, Finding, Scope, Suppressed};
use std::path::Path;

/// Fixtures are linted as if they lived in `crates/core/src/`, a scope
/// where the scoped rule G007 is active.
fn core_scope() -> Scope {
    Scope {
        crate_name: "core".into(),
        is_test_file: false,
    }
}

fn lint_fixture(name: &str) -> (Vec<Finding>, Vec<Suppressed>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    lint_source(name, &src, &core_scope())
}

/// Asserts the violating fixture yields exactly one finding of `rule` at
/// `line` in file `name`.
fn assert_violation(name: &str, rule: &str, line: usize) {
    let (findings, suppressed) = lint_fixture(name);
    assert_eq!(
        findings.len(),
        1,
        "{name}: expected exactly one finding, got {findings:?}"
    );
    assert_eq!(findings[0].rule, rule, "{name}: wrong rule");
    assert_eq!(findings[0].file, name, "{name}: wrong file");
    assert_eq!(findings[0].line, line, "{name}: wrong line");
    assert!(suppressed.is_empty(), "{name}: unexpected suppressions");
}

fn assert_clean(name: &str) {
    let (findings, suppressed) = lint_fixture(name);
    assert!(
        findings.is_empty(),
        "{name}: expected clean, got {findings:?}"
    );
    assert!(suppressed.is_empty(), "{name}: unexpected suppressions");
}

/// Asserts the allow fixture has no surviving findings and exactly one
/// recorded suppression of `rule` at `line`.
fn assert_suppressed(name: &str, rule: &str, line: usize) {
    let (findings, suppressed) = lint_fixture(name);
    assert!(
        findings.is_empty(),
        "{name}: directive failed to suppress, got {findings:?}"
    );
    assert_eq!(suppressed.len(), 1, "{name}: {suppressed:?}");
    assert_eq!(suppressed[0].rule, rule);
    assert_eq!(suppressed[0].file, name);
    assert_eq!(suppressed[0].line, line);
    assert!(
        suppressed[0].reason.starts_with("fixture:"),
        "reason should carry the directive text, got {:?}",
        suppressed[0].reason
    );
}

#[test]
fn g002_fixtures() {
    assert_violation("g002_violation.rs", "G002", 4);
    assert_clean("g002_clean.rs");
    // A G002 allow-directive is itself a comment adjacent to the `Ordering::`
    // use, so it satisfies the rule directly: no finding is produced at all
    // (hence nothing to record as suppressed).
    let (findings, _) = lint_fixture("g002_allow.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn g004_fixtures() {
    assert_violation("g004_violation.rs", "G004", 2);
    assert_clean("g004_clean.rs");
    assert_suppressed("g004_allow.rs", "G004", 3);
}

#[test]
fn g007_fixtures() {
    assert_violation("g007_violation.rs", "G007", 3);
    assert_clean("g007_clean.rs");
    assert_suppressed("g007_allow.rs", "G007", 4);
}

/// G011 is doubly scoped — crate `shard`, file `coordinator.rs` — so its
/// fixtures are linted under that path explicitly.
fn lint_shard_coordinator(name: &str) -> (Vec<Finding>, Vec<Suppressed>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let scope = Scope {
        crate_name: "shard".into(),
        is_test_file: false,
    };
    lint_source("crates/shard/src/coordinator.rs", &src, &scope)
}

#[test]
fn g011_fixtures() {
    let (findings, suppressed) = lint_shard_coordinator("g011_violation.rs");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "G011");
    assert_eq!(findings[0].file, "crates/shard/src/coordinator.rs");
    assert_eq!(findings[0].line, 4);
    assert!(suppressed.is_empty());

    let (findings, suppressed) = lint_shard_coordinator("g011_clean.rs");
    assert!(findings.is_empty(), "{findings:?}");
    assert!(suppressed.is_empty());

    let (findings, suppressed) = lint_shard_coordinator("g011_allow.rs");
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed.len(), 1, "{suppressed:?}");
    assert_eq!(suppressed[0].rule, "G011");
    assert_eq!(suppressed[0].line, 5);
    assert!(suppressed[0].reason.starts_with("fixture:"));
}

/// G011 stays silent everywhere but the coordinator file: the same fixture
/// under a shard-side path (or another crate entirely) produces nothing.
#[test]
fn g011_scoped_to_the_coordinator_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/g011_violation.rs");
    let src = std::fs::read_to_string(path).unwrap();
    let shard = Scope {
        crate_name: "shard".into(),
        is_test_file: false,
    };
    let (findings, _) = lint_source("crates/shard/src/shard.rs", &src, &shard);
    assert!(findings.is_empty(), "{findings:?}");
    let serve = Scope {
        crate_name: "serve".into(),
        is_test_file: false,
    };
    let (findings, _) = lint_source("crates/serve/src/coordinator.rs", &src, &serve);
    assert!(findings.is_empty(), "{findings:?}");
}

/// G007 is scoped: the same socket fixture is fine inside the serving layer
/// and the CLI that fronts it.
#[test]
fn g007_exempt_in_serve_and_cli_scopes() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/g007_violation.rs");
    let src = std::fs::read_to_string(path).unwrap();
    for name in ["serve", "cli"] {
        let scope = Scope {
            crate_name: name.into(),
            is_test_file: false,
        };
        let (findings, _) = lint_source("g007_violation.rs", &src, &scope);
        assert!(findings.is_empty(), "{name}: {findings:?}");
    }
}

/// The real workspace tree must stay lint-clean; this doubles as the
/// regression guard CI runs via `cargo test`.
#[test]
fn workspace_is_lint_clean() {
    let root = graphrep_check::workspace_root();
    let report = graphrep_check::lint_workspace(&root).expect("workspace walk");
    assert!(
        report.is_clean(),
        "workspace lint regressions:\n{}",
        report.to_text()
    );
    assert!(report.checked_files > 50, "walker lost most of the tree");
}
