//! Text serialization for graphs and graph collections.
//!
//! The format is a minimal line-oriented exchange format (one graph per
//! block), chosen over JSON for the hot path of persisting large synthetic
//! databases:
//!
//! ```text
//! t <node_count> <edge_count>
//! v <node_id> <label>
//! e <u> <v> <label>
//! ```

use crate::builder::GraphBuilder;
use crate::graph::{Graph, NodeId};
use std::fmt::Write as _;

/// Errors raised while reading or parsing the text format.
///
/// Every variant carries enough context (1-based line numbers, offending
/// content, expected-vs-found counts) for the CLI to print an actionable
/// message without additional lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphIoError {
    /// A line did not match any of `t`/`v`/`e`, or its fields were malformed.
    BadLine {
        /// 1-based line number within the input.
        line: usize,
        /// The offending line, verbatim (trimmed).
        content: String,
    },
    /// Counts in the `t` header disagreed with the body.
    CountMismatch {
        /// 1-based line number of the `t` header.
        line: usize,
        /// Node count the header promised.
        expected_nodes: usize,
        /// Edge count the header promised.
        expected_edges: usize,
        /// Nodes actually present in the block.
        found_nodes: usize,
        /// Edges actually present in the block.
        found_edges: usize,
    },
    /// The structural validation of the builder failed (e.g. a duplicate or
    /// out-of-range edge).
    Structure {
        /// 1-based line number of the offending record.
        line: usize,
        /// Builder-level description of the violation.
        detail: String,
    },
}

impl std::fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphIoError::BadLine { line, content } => {
                write!(f, "line {line}: unparseable record `{content}`")
            }
            GraphIoError::CountMismatch {
                line,
                expected_nodes,
                expected_edges,
                found_nodes,
                found_edges,
            } => write!(
                f,
                "line {line}: header promised {expected_nodes} nodes / {expected_edges} edges \
                 but the block has {found_nodes} nodes / {found_edges} edges"
            ),
            GraphIoError::Structure { line, detail } => {
                write!(f, "line {line}: invalid structure: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphIoError {}

/// Serializes one graph into the text format, appending to `out`.
pub fn write_graph(g: &Graph, out: &mut String) {
    let _ = writeln!(out, "t {} {}", g.node_count(), g.edge_count());
    for u in g.node_ids() {
        let _ = writeln!(out, "v {} {}", u, g.node_label(u));
    }
    for e in g.edges() {
        let _ = writeln!(out, "e {} {} {}", e.u, e.v, e.label);
    }
}

/// Serializes a collection of graphs.
pub fn write_graphs(gs: &[Graph]) -> String {
    let mut out = String::new();
    for g in gs {
        write_graph(g, &mut out);
    }
    out
}

/// One in-progress block: builder plus the `t` header's promises.
struct Block {
    builder: GraphBuilder,
    header_line: usize,
    nodes: usize,
    edges: usize,
}

/// Parses a collection of graphs from the text format.
///
/// Line numbers in errors are 1-based; blank lines and `#` comments are
/// skipped.
pub fn read_graphs(text: &str) -> Result<Vec<Graph>, GraphIoError> {
    let mut graphs = Vec::new();
    let mut block: Option<Block> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || GraphIoError::BadLine {
            line: lineno,
            content: line.to_string(),
        };
        let mut parts = line.split_ascii_whitespace();
        let tag = parts.next().ok_or_else(bad)?;
        let nums: Vec<u64> = parts
            .map(|p| p.parse::<u64>().map_err(|_| bad()))
            .collect::<Result<_, _>>()?;
        match (tag, nums.as_slice()) {
            ("t", [n, m]) => {
                if let Some(b) = block.take() {
                    graphs.push(finish(b)?);
                }
                block = Some(Block {
                    builder: GraphBuilder::with_capacity(*n as usize, *m as usize),
                    header_line: lineno,
                    nodes: *n as usize,
                    edges: *m as usize,
                });
            }
            ("v", [id, label]) => {
                let b = block.as_mut().ok_or_else(bad)?;
                let got = b.builder.add_node(*label as u32);
                if got as u64 != *id {
                    return Err(bad());
                }
            }
            ("e", [u, v, label]) => {
                let b = block.as_mut().ok_or_else(bad)?;
                b.builder
                    .add_edge(*u as NodeId, *v as NodeId, *label as u32)
                    .map_err(|e| GraphIoError::Structure {
                        line: lineno,
                        detail: e.to_string(),
                    })?;
            }
            _ => return Err(bad()),
        }
    }
    if let Some(b) = block.take() {
        graphs.push(finish(b)?);
    }
    Ok(graphs)
}

fn finish(b: Block) -> Result<Graph, GraphIoError> {
    if b.builder.node_count() != b.nodes || b.builder.edge_count() != b.edges {
        return Err(GraphIoError::CountMismatch {
            line: b.header_line,
            expected_nodes: b.nodes,
            expected_edges: b.edges,
            found_nodes: b.builder.node_count(),
            found_edges: b.builder.edge_count(),
        });
    }
    Ok(b.builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_connected;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_many() {
        let mut rng = SmallRng::seed_from_u64(42);
        let gs: Vec<Graph> = (0..10)
            .map(|i| random_connected(&mut rng, 3 + i, 2, &[0, 1, 2], &[5, 6]))
            .collect();
        let text = write_graphs(&gs);
        let back = read_graphs(&text).unwrap();
        assert_eq!(gs, back);
    }

    #[test]
    fn empty_input_is_empty() {
        assert_eq!(read_graphs("").unwrap(), vec![]);
        assert_eq!(read_graphs("\n# comment\n").unwrap(), vec![]);
    }

    #[test]
    fn bad_line_reports_position_and_content() {
        let err = read_graphs("t 1 0\nv 0 0\nx 1 2\n").unwrap_err();
        assert_eq!(
            err,
            GraphIoError::BadLine {
                line: 3,
                content: "x 1 2".into()
            }
        );
        assert!(err.to_string().contains("line 3"));
        assert!(err.to_string().contains("x 1 2"));
    }

    #[test]
    fn count_mismatch_reports_expected_and_found() {
        let err = read_graphs("t 2 0\nv 0 0\n").unwrap_err();
        assert_eq!(
            err,
            GraphIoError::CountMismatch {
                line: 1,
                expected_nodes: 2,
                expected_edges: 0,
                found_nodes: 1,
                found_edges: 0,
            }
        );
        assert!(err.to_string().contains("promised 2 nodes"));
    }

    #[test]
    fn structural_error_detected_with_line() {
        let err = read_graphs("t 2 2\nv 0 0\nv 1 0\ne 0 1 0\ne 1 0 0\n").unwrap_err();
        assert!(matches!(err, GraphIoError::Structure { line: 5, .. }));
    }
}
