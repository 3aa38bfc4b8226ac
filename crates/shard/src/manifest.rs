//! The shard manifest: a small line-oriented text file committing a shard
//! layout to disk (`manifest.txt`), mirroring the serve layer's epoch check.
//!
//! Save order is per-shard payloads first (each shard's `graphs.txt` and
//! `index.bin`), manifest last — the manifest is the commit record. A torn
//! write leaves either no manifest or one missing its `end` terminator;
//! both are detected and reported as [`ManifestError::Torn`], and callers
//! fall back to rebuilding the shards from the source dataset.
//!
//! Floats (center distances, radii, ladder rungs) are persisted as
//! `f64::to_bits` hex so a round trip is bit-exact.

use graphrep_graph::GraphId;
use std::fmt::Write as _;

const HEADER: &str = "graphrep-shard-manifest v1";

/// Per-shard record inside a [`Manifest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Mutation epoch the shard's `index.bin` was saved at.
    pub epoch: u64,
    /// Covering radius of the shard around its center.
    pub radius: f64,
    /// Global ids of the shard's members, ascending (tombstones included).
    pub members: Vec<GraphId>,
    /// Distance of each member to the shard center, parallel to `members`.
    pub to_center: Vec<f64>,
}

/// The persisted shard layout: partition geometry plus per-shard epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Partitioner seed.
    pub seed: u64,
    /// Next global id the coordinator will assign on insert.
    pub next_id: u64,
    /// π̂ threshold ladder the shard indexes were built with.
    pub ladder: Vec<f64>,
    /// Center graph id per shard (global ids at partition time).
    pub centers: Vec<GraphId>,
    /// Dense `S×S` center-to-center distances, row-major.
    pub center_dist: Vec<f64>,
    /// One record per shard.
    pub shards: Vec<ShardRecord>,
}

/// Why a manifest failed to load.
#[derive(Debug)]
pub enum ManifestError {
    /// Missing `end` terminator or truncated record: a torn write.
    Torn(String),
    /// Structurally present but unparseable content.
    Format(String),
    /// I/O failure reading the file.
    Io(std::io::Error),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Torn(m) => write!(f, "torn shard manifest: {m}"),
            ManifestError::Format(m) => write!(f, "malformed shard manifest: {m}"),
            ManifestError::Io(e) => write!(f, "shard manifest io: {e}"),
        }
    }
}

impl std::error::Error for ManifestError {}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_hex(s: &str) -> Result<f64, ManifestError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| ManifestError::Format(format!("bad f64 bits {s:?}: {e}")))
}

fn parse_u64(s: &str) -> Result<u64, ManifestError> {
    s.parse()
        .map_err(|e| ManifestError::Format(format!("bad integer {s:?}: {e}")))
}

impl Manifest {
    /// Serializes to the line-oriented text format, `end`-terminated.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let s = self.shards.len();
        // Writing to a String cannot fail; unwraps are absent by using
        // the infallible `push_str`/`writeln!` pattern on String.
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "shards {s}");
        let _ = writeln!(out, "next_id {}", self.next_id);
        let _ = writeln!(
            out,
            "ladder {}",
            join(self.ladder.iter().map(|&v| f64_hex(v)))
        );
        let _ = writeln!(
            out,
            "centers {}",
            join(self.centers.iter().map(|c| c.to_string()))
        );
        let _ = writeln!(
            out,
            "centerdist {}",
            join(self.center_dist.iter().map(|&v| f64_hex(v)))
        );
        for (i, rec) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "shard {i} epoch {} radius {}",
                rec.epoch,
                f64_hex(rec.radius)
            );
            let _ = writeln!(
                out,
                "members {}",
                join(rec.members.iter().map(|m| m.to_string()))
            );
            let _ = writeln!(
                out,
                "tocenter {}",
                join(rec.to_center.iter().map(|&v| f64_hex(v)))
            );
        }
        let _ = writeln!(out, "end");
        out
    }

    /// Parses [`Manifest::encode`] output. A missing `end` terminator (or a
    /// record cut short) is reported as [`ManifestError::Torn`].
    pub fn decode(text: &str) -> Result<Self, ManifestError> {
        let mut lines = text.lines();
        let head = lines
            .next()
            .ok_or_else(|| ManifestError::Torn("empty file".into()))?;
        if head != HEADER {
            return Err(ManifestError::Format(format!("unexpected header {head:?}")));
        }
        let take = |key: &str, lines: &mut std::str::Lines| -> Result<String, ManifestError> {
            let line = lines
                .next()
                .ok_or_else(|| ManifestError::Torn(format!("missing {key} line")))?;
            let rest = line
                .strip_prefix(key)
                .ok_or_else(|| ManifestError::Format(format!("expected {key:?}, got {line:?}")))?;
            Ok(rest.trim().to_string())
        };
        let seed = parse_u64(&take("seed", &mut lines)?)?;
        let shard_count = parse_u64(&take("shards", &mut lines)?)? as usize;
        let next_id = parse_u64(&take("next_id", &mut lines)?)?;
        let ladder = split_f64(&take("ladder", &mut lines)?)?;
        let centers = split_ids(&take("centers", &mut lines)?)?;
        let center_dist = split_f64(&take("centerdist", &mut lines)?)?;
        if centers.len() != shard_count || center_dist.len() != shard_count * shard_count {
            return Err(ManifestError::Format(format!(
                "geometry arity mismatch: {} centers, {} distances for {shard_count} shards",
                centers.len(),
                center_dist.len()
            )));
        }
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let head = take(&format!("shard {i}"), &mut lines)?;
            let fields: Vec<&str> = head.split_whitespace().collect();
            let [epoch_key, epoch, radius_key, radius] = fields[..] else {
                return Err(ManifestError::Format(format!("bad shard line {head:?}")));
            };
            if epoch_key != "epoch" || radius_key != "radius" {
                return Err(ManifestError::Format(format!("bad shard line {head:?}")));
            }
            let epoch = parse_u64(epoch)?;
            let radius = parse_f64_hex(radius)?;
            let members = split_ids(&take("members", &mut lines)?)?;
            let to_center = split_f64(&take("tocenter", &mut lines)?)?;
            if members.len() != to_center.len() {
                return Err(ManifestError::Format(format!(
                    "shard {i}: {} members but {} center distances",
                    members.len(),
                    to_center.len()
                )));
            }
            shards.push(ShardRecord {
                epoch,
                radius,
                members,
                to_center,
            });
        }
        match lines.next() {
            Some("end") => {}
            Some(other) => {
                return Err(ManifestError::Format(format!(
                    "expected terminator, got {other:?}"
                )))
            }
            None => return Err(ManifestError::Torn("missing end terminator".into())),
        }
        Ok(Manifest {
            seed,
            next_id,
            ladder,
            centers,
            center_dist,
            shards,
        })
    }

    /// Per-shard epoch vector recorded by this manifest.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch).collect()
    }
}

fn join(parts: impl Iterator<Item = String>) -> String {
    parts.collect::<Vec<_>>().join(" ")
}

fn split_ids(s: &str) -> Result<Vec<GraphId>, ManifestError> {
    s.split_whitespace()
        .map(|t| {
            t.parse::<GraphId>()
                .map_err(|e| ManifestError::Format(format!("bad graph id {t:?}: {e}")))
        })
        .collect()
}

fn split_f64(s: &str) -> Result<Vec<f64>, ManifestError> {
    s.split_whitespace().map(parse_f64_hex).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            seed: 42,
            next_id: 7,
            ladder: vec![2.0, 4.0],
            centers: vec![0, 3],
            center_dist: vec![0.0, 5.5, 5.5, 0.0],
            shards: vec![
                ShardRecord {
                    epoch: 2,
                    radius: 3.25,
                    members: vec![0, 1, 2],
                    to_center: vec![0.0, 1.5, 3.25],
                },
                ShardRecord {
                    epoch: 0,
                    radius: 2.0,
                    members: vec![3, 4],
                    to_center: vec![0.0, 2.0],
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let m = sample();
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(m, decoded);
        assert_eq!(decoded.epochs(), vec![2, 0]);
    }

    #[test]
    fn truncation_is_reported_as_torn() {
        let full = sample().encode();
        // Drop the terminator line, then progressively larger tails.
        let torn = full.trim_end().trim_end_matches("end").to_string();
        assert!(matches!(
            Manifest::decode(&torn),
            Err(ManifestError::Torn(_) | ManifestError::Format(_))
        ));
        let half = &full[..full.len() / 2];
        assert!(Manifest::decode(half).is_err());
    }

    #[test]
    fn garbage_is_a_format_error() {
        assert!(matches!(
            Manifest::decode("graphrep-shard-manifest v1\nseed x\n"),
            Err(ManifestError::Format(_))
        ));
        assert!(matches!(
            Manifest::decode("not a manifest"),
            Err(ManifestError::Format(_))
        ));
    }
}
