//! Report assembly and the text listing the `lint` command prints.

use crate::lockgraph::LockGraph;
use crate::rules::{Finding, Suppressed};

/// Aggregated lint results over the walked workspace files.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files actually linted.
    pub checked_files: usize,
    /// Surviving violations, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Directive-suppressed violations, for auditability.
    pub suppressed: Vec<Suppressed>,
    /// The workspace lock-acquisition graph (None when the lock analysis
    /// did not run, e.g. single-file lints).
    pub lock_graph: Option<LockGraph>,
}

impl Report {
    /// True when the lint pass found no violations.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Sorts findings and suppressions into a stable order.
    pub fn normalize(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.suppressed
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Human-readable listing: one line per finding, then the lock graph's
    /// edges, then the totals.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        if let Some(g) = &self.lock_graph {
            s.push_str(&format!(
                "lock graph: {} site(s), {} edge(s)\n",
                g.nodes.len(),
                g.edges.len()
            ));
            for e in &g.edges {
                s.push_str(&format!(
                    "  {} -> {} ({}:{})\n",
                    e.from, e.to, e.file, e.line
                ));
            }
        }
        s.push_str(&format!(
            "checked {} files: {} finding(s), {} suppressed\n",
            self.checked_files,
            self.findings.len(),
            self.suppressed.len()
        ));
        s
    }
}
