//! CLI entry point: `cargo run -p graphrep-check --release -- lint [--budget FILE]`.

#![deny(unsafe_code)]

use graphrep_check::report::Report;
use graphrep_check::{lint_workspace, workspace_root};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: graphrep-check lint [--budget FILE]

  lint           run the lint rules (G002, G004, G006–G009, G011) over all workspace
                 sources and print the findings and the lock graph's edges
  --budget FILE  check the lock graph against a flat JSON budget file with
                 integer keys nodes_min, edges_exact (see ci/lock_analysis.json);
                 any breach fails the run
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let budget = match args[..] {
        ["lint"] => None,
        ["lint", "--budget", file] => Some(file),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let report = match lint_workspace(&workspace_root()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lint failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.to_text());
    let budget_ok = budget.is_none_or(|path| check_budget(&report, Path::new(path)));
    if report.is_clean() && budget_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks the lint report's lock graph against the pinned budget.
///
/// The budget file is a flat JSON object of integer fields, so the parser
/// below can stay a few lines of string splitting instead of a JSON library:
/// `nodes_min` is the least number of lock sites the workspace sweep must
/// discover (a collapse here means the extractor silently lost coverage),
/// and `edges_exact` pins the acquisition-edge count so any new lock-order
/// edge shows up as an explicit budget update in review. Findings need no
/// key: `lint` already fails on any.
fn check_budget(report: &Report, path: &Path) -> bool {
    let raw = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("budget: cannot read {}: {e}", path.display());
            return false;
        }
    };
    let fields = match parse_flat_budget(&raw) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("budget: {}: {e}", path.display());
            return false;
        }
    };
    let mut ok = true;
    let (nodes, edges) = match &report.lock_graph {
        Some(g) => (g.nodes.len(), g.edges.len()),
        None => (0, 0),
    };
    for (key, value) in fields {
        match key.as_str() {
            "nodes_min" if nodes < value => {
                eprintln!(
                    "budget: lock graph has {nodes} site(s), budget requires at least {value}"
                );
                ok = false;
            }
            "edges_exact" if edges != value => {
                eprintln!(
                    "budget: lock graph has {edges} edge(s), budget pins exactly {value} \
                     (new lock-order edges must be reviewed and the budget updated)"
                );
                ok = false;
            }
            "nodes_min" | "edges_exact" => {}
            _ => {
                eprintln!("budget: {}: unknown key `{key}`", path.display());
                ok = false;
            }
        }
    }
    if ok {
        eprintln!("budget: ok ({nodes} site(s), {edges} edge(s))");
    }
    ok
}

/// Parses a flat `{"key": 123, ...}` object into (key, value) pairs.
///
/// Only the shape the budget file uses is accepted — string keys, unsigned
/// integer values, no nesting — anything else is a hard error so a malformed
/// budget cannot silently pass.
fn parse_flat_budget(raw: &str) -> Result<Vec<(String, usize)>, String> {
    let body = raw.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("expected a single flat JSON object")?;
    let mut out = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, val) = part
            .split_once(':')
            .ok_or_else(|| format!("expected \"key\": value, got `{part}`"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("key is not a JSON string: `{part}`"))?;
        let val: usize = val
            .trim()
            .parse()
            .map_err(|_| format!("value for `{key}` is not an unsigned integer"))?;
        out.push((key.to_string(), val));
    }
    Ok(out)
}
