//! `graphrep-check`: workspace-native static analysis for the NB-Index repo.
//!
//! [`lint_workspace`] runs a handwritten lexer plus the lexical rules in
//! [`rules`] (G002, G004, G006, G007, G011) over every non-test file,
//! then the flow-aware lock analysis in [`lockgraph`] (G008/G009) across the
//! whole workspace, with an inline per-site allow-directive escape hatch
//! (syntax in [`rules`]). Conventions clippy or rustc already check are not
//! here: the library crate roots carry `clippy::unwrap_used` and friends
//! (no panics), `clippy::print_stdout` and friends (no stray output) and
//! `missing_docs`, and CI runs clippy with `-D warnings` (DESIGN.md §8).
//!
//! The crate is deliberately dependency-free so the lint pass works even when
//! the rest of the workspace does not compile.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod lockgraph;
pub mod parser;
pub mod report;
pub mod rules;

use report::Report;
use rules::{lint_source, Scope};
use std::path::{Path, PathBuf};

/// Directories (workspace-relative prefixes) the walker never descends into.
const SKIP_PREFIXES: &[&str] = &["vendor", "target", ".git", "crates/check/tests/fixtures"];

/// Derives the lint scope for a workspace-relative path.
///
/// Returns `None` for files outside lint jurisdiction (vendored deps, build
/// output, lint fixtures).
pub fn scope_for(rel_path: &str) -> Option<Scope> {
    let norm = rel_path.replace('\\', "/");
    for p in SKIP_PREFIXES {
        if norm == *p || norm.starts_with(&format!("{p}/")) {
            return None;
        }
    }
    let crate_name = match norm.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or("root").to_string(),
        None => "root".to_string(),
    };
    // `src/**/tests.rs` is cargo's out-of-line unit-test module convention
    // (`#[cfg(test)] mod tests;` in the parent): compiled only under test,
    // so it gets the same full skip as `tests/` directories.
    let is_test_file = norm
        .split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples"))
        || norm.ends_with("/tests.rs");
    Some(Scope {
        crate_name,
        is_test_file,
    })
}

/// Recursively collects every lintable `.rs` file under `root`, sorted.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = match path.strip_prefix(root) {
                Ok(r) => r.to_string_lossy().replace('\\', "/"),
                Err(_) => continue,
            };
            if SKIP_PREFIXES
                .iter()
                .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
            {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the full lint pass over the workspace rooted at `root`: the lexical
/// rules per file, then the flow-aware lock analysis (G008/G009) across all
/// non-test files, with allow-directives applied to both.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut lock_inputs: Vec<lockgraph::SourceFile> = Vec::new();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(scope) = scope_for(&rel) else {
            continue;
        };
        if scope.is_test_file {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        let (findings, suppressed) = lint_source(&rel, &src, &scope);
        report.checked_files += 1;
        report.findings.extend(findings);
        report.suppressed.extend(suppressed);
        lock_inputs.push(lockgraph::SourceFile {
            rel,
            crate_name: scope.crate_name,
            src,
        });
    }
    let analysis = lockgraph::analyze(&lock_inputs);
    // Group the lock findings per file and run them through that file's
    // allow-directives, so G008/G009 use the same escape hatch as the lexical rules.
    let mut by_file: std::collections::BTreeMap<String, Vec<rules::Finding>> =
        std::collections::BTreeMap::new();
    for f in analysis.findings {
        by_file.entry(f.file.clone()).or_default().push(f);
    }
    for (file, findings) in by_file {
        let src = lock_inputs
            .iter()
            .find(|s| s.rel == file)
            .map(|s| s.src.clone())
            .unwrap_or_default();
        let (kept, suppressed) = rules::apply_allows(&file, &src, findings);
        report.findings.extend(kept);
        report.suppressed.extend(suppressed);
    }
    report.lock_graph = Some(analysis.graph);
    report.normalize();
    Ok(report)
}

/// The workspace root, resolved from this crate's manifest location.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_for_library_and_root_paths() {
        let s = scope_for("crates/core/src/session.rs").unwrap();
        assert_eq!(s.crate_name, "core");
        assert!(!s.is_test_file);
        let s = scope_for("src/main.rs").unwrap();
        assert_eq!(s.crate_name, "root");
        let s = scope_for("tests/e2e.rs").unwrap();
        assert!(s.is_test_file);
        let s = scope_for("crates/ged/tests/parallel.rs").unwrap();
        assert!(s.is_test_file);
        // Out-of-line unit-test modules under src/ are test files too…
        let s = scope_for("crates/serve/src/reactor/tests.rs").unwrap();
        assert!(s.is_test_file);
        // …but only the exact `tests.rs` filename qualifies.
        let s = scope_for("crates/serve/src/reactor/conn.rs").unwrap();
        assert!(!s.is_test_file);
    }

    #[test]
    fn scope_for_skips_vendor_and_fixtures() {
        assert!(scope_for("vendor/rand/src/lib.rs").is_none());
        assert!(scope_for("target/debug/build/x.rs").is_none());
        assert!(scope_for("crates/check/tests/fixtures/g004_violation.rs").is_none());
    }
}
