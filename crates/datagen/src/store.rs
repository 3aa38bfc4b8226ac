//! Dataset persistence: write a generated dataset to a directory and read
//! it back. Used by the `graphrep` CLI so expensive index builds and
//! experiments can run against a fixed on-disk database, and by the serving
//! registry, which records every online mutation here.
//!
//! Layout:
//! ```text
//! <dir>/graphs.txt      # base snapshot: the compact text format of graphrep-graph::io
//! <dir>/features.csv    # base snapshot: one row per graph
//! <dir>/meta.json       # base snapshot: labels, family ids, defaults
//! <dir>/mutations.log   # one framed record per mutation applied since the snapshot
//! ```
//!
//! Only [`save`] writes the base snapshot (and it removes the log). A
//! mutation costs one [`append`]: a record framed as
//!
//! ```text
//! payload_len u32 LE (4) | word-wise FNV-1a of the payload u64 LE (8) | payload
//! ```
//!
//! whose payload is text — `remove <id>`, or `insert <id> <family>`, the
//! feature row (f64 `{}` formatting, which round-trips exactly) and the
//! graph in the `graphs.txt` format. [`load`] replays the intact records; the
//! first torn or corrupt one ends the log.

use crate::spec::{Dataset, DatasetKind, DatasetSpec};
use graphrep_core::{fnv1a64, GraphDatabase};
use graphrep_graph::{io as gio, Graph, GraphId, LabelInterner};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::fs;
use std::io::{ErrorKind, Write as _};
use std::path::Path;

/// File name of the mutation log inside a dataset directory.
const LOG: &str = "mutations.log";

/// Bytes before each log record's payload: its length and checksum.
const FRAME_HEADER: usize = 12;

/// Errors raised by dataset load/save.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// graphs.txt could not be parsed.
    Graphs(gio::GraphIoError),
    /// features.csv malformed.
    Features(String),
    /// meta.json malformed.
    Meta(serde_json::Error),
    /// Component lengths disagree.
    Inconsistent(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Graphs(e) => write!(f, "graphs.txt: {e}"),
            StoreError::Features(e) => write!(f, "features.csv: {e}"),
            StoreError::Meta(e) => write!(f, "meta.json: {e}"),
            StoreError::Inconsistent(e) => write!(f, "inconsistent dataset: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[derive(Serialize, Deserialize)]
struct Meta {
    kind: String,
    seed: u64,
    labels: Labels,
    family: Vec<u32>,
    default_theta: f64,
    default_ladder: Vec<f64>,
}

/// The label names in id order, as `meta.json` stores them.
#[derive(Serialize, Deserialize)]
struct Labels {
    names: Vec<String>,
}

fn kind_to_str(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::DudLike => "dud",
        DatasetKind::DblpLike => "dblp",
        DatasetKind::AmazonLike => "amazon",
    }
}

/// Parses a dataset kind name (`dud`, `dblp`, `amazon`).
pub fn kind_from_str(s: &str) -> Option<DatasetKind> {
    match s {
        "dud" => Some(DatasetKind::DudLike),
        "dblp" => Some(DatasetKind::DblpLike),
        "amazon" => Some(DatasetKind::AmazonLike),
        _ => None,
    }
}

/// Appends one feature row in the `features.csv` form.
fn push_row(row: &[f64], out: &mut String) {
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push('\n');
}

fn parse_row(line: &str) -> Result<Vec<f64>, std::num::ParseFloatError> {
    if line.is_empty() {
        return Ok(Vec::new());
    }
    line.split(',').map(str::parse::<f64>).collect()
}

/// One applied mutation, as `<dir>/mutations.log` records it.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// `graph` was appended as graph `id`, with its feature row and family.
    Insert {
        /// The id the graph received (the database length before it).
        id: GraphId,
        /// Family id recorded for the graph.
        family: u32,
        /// The graph's feature row.
        features: Vec<f64>,
        /// The graph.
        graph: Graph,
    },
    /// Graph `id` was tombstoned.
    Remove {
        /// The removed graph.
        id: GraphId,
    },
}

impl LogRecord {
    /// The graph the record inserts or removes.
    pub fn id(&self) -> GraphId {
        match self {
            LogRecord::Insert { id, .. } | LogRecord::Remove { id } => *id,
        }
    }

    /// The framed bytes [`append`] writes.
    fn encode(&self) -> Result<Vec<u8>, StoreError> {
        let mut text = String::new();
        match self {
            LogRecord::Insert {
                id,
                family,
                features,
                graph,
            } => {
                let _ = writeln!(text, "insert {id} {family}");
                push_row(features, &mut text);
                gio::write_graph(graph, &mut text);
            }
            LogRecord::Remove { id } => {
                let _ = writeln!(text, "remove {id}");
            }
        }
        let payload = text.as_bytes();
        let len = u32::try_from(payload.len())
            .map_err(|_| StoreError::Inconsistent(format!("{LOG} record over 4 GiB")))?;
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        out.extend_from_slice(payload);
        Ok(out)
    }

    /// Parses one checksummed payload; `None` if it is not a record.
    fn decode(text: &str) -> Option<Self> {
        let (head, body) = text.split_once('\n')?;
        let mut words = head.split(' ');
        let (kind, id) = (words.next()?, words.next()?.parse().ok()?);
        match (kind, words.next(), words.next()) {
            ("remove", None, None) if body.is_empty() => Some(LogRecord::Remove { id }),
            ("insert", Some(family), None) => {
                let (row, graph) = body.split_once('\n')?;
                let mut graphs = gio::read_graphs(graph).ok()?;
                if graphs.len() != 1 {
                    return None;
                }
                Some(LogRecord::Insert {
                    id,
                    family: family.parse().ok()?,
                    features: parse_row(row).ok()?,
                    graph: graphs.pop()?,
                })
            }
            _ => None,
        }
    }

    /// Reads the record framed at the start of `bytes`, returning it with
    /// its framed length; `None` for a torn or corrupt frame.
    fn read(bytes: &[u8]) -> Option<(Self, usize)> {
        let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
        let sum = u64::from_le_bytes(bytes.get(4..FRAME_HEADER)?.try_into().ok()?);
        let end = FRAME_HEADER.checked_add(len)?;
        let payload = bytes.get(FRAME_HEADER..end)?;
        if fnv1a64(payload) != sum {
            return None;
        }
        let record = Self::decode(std::str::from_utf8(payload).ok()?)?;
        Some((record, end))
    }
}

/// Writes `data` under `dir` (created if missing) as a new base snapshot,
/// then removes the mutation log: the snapshot replaces whatever the
/// directory held. A crash before the removal leaves log inserts the
/// snapshot already holds, which [`load`] skips.
pub fn save(data: &Dataset, dir: &Path) -> Result<(), StoreError> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join("graphs.txt"), gio::write_graphs(data.db.graphs()))?;
    let mut csv = String::new();
    for f in data.db.all_features() {
        push_row(f, &mut csv);
    }
    fs::write(dir.join("features.csv"), csv)?;
    let meta = Meta {
        kind: kind_to_str(data.spec.kind).to_owned(),
        seed: data.spec.seed,
        labels: Labels {
            names: data.db.labels().iter().map(|(_, n)| n.to_owned()).collect(),
        },
        family: data.family.clone(),
        default_theta: data.default_theta,
        default_ladder: data.default_ladder.clone(),
    };
    let json = serde_json::to_string_pretty(&meta).map_err(StoreError::Meta)?;
    fs::write(dir.join("meta.json"), json)?;
    match fs::remove_file(dir.join(LOG)) {
        Err(e) if e.kind() != ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

/// Appends `record` to `<dir>/mutations.log` with one `write_all` on an
/// `O_APPEND` handle. Nothing is synced: a process crash leaves at worst a
/// torn last record, which [`load`] drops.
pub fn append(dir: &Path, record: &LogRecord) -> Result<(), StoreError> {
    let bytes = record.encode()?;
    fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(LOG))?
        .write_all(&bytes)?;
    Ok(())
}

/// Cuts `<dir>/mutations.log` back to its first `len` bytes — the intact
/// prefix [`load_logged`] reported — so records appended after a torn tail
/// stay reachable.
pub fn truncate_log(dir: &Path, len: u64) -> Result<(), StoreError> {
    fs::OpenOptions::new()
        .write(true)
        .open(dir.join(LOG))?
        .set_len(len)?;
    Ok(())
}

/// A dataset directory as [`load_logged`] reads it.
#[derive(Debug)]
pub struct Logged {
    /// The base snapshot with every logged insert applied.
    pub data: Dataset,
    /// Graphs in the base snapshot; logged inserts hold the ids after it.
    pub base_len: usize,
    /// The intact records in log order, less inserts the base already held.
    pub records: Vec<LogRecord>,
    /// Length of the log's intact prefix in bytes.
    pub intact_bytes: u64,
    /// Whether bytes follow the intact prefix (a torn or corrupt record).
    pub torn: bool,
}

/// Reads a dataset previously written by [`save`], with every intact logged
/// insert applied (see [`load_logged`]).
pub fn load(dir: &Path) -> Result<Dataset, StoreError> {
    Ok(load_logged(dir)?.data)
}

/// Reads the base snapshot and the mutation log under `dir`. Records are
/// read in order up to the first torn or corrupt one. An insert whose id
/// the base already holds is skipped; one that would leave a gap in the id
/// space, or whose feature row has the wrong width, is an error, as is a
/// label name `meta.json` lists twice.
pub fn load_logged(dir: &Path) -> Result<Logged, StoreError> {
    let mut graphs = gio::read_graphs(&fs::read_to_string(dir.join("graphs.txt"))?)
        .map_err(StoreError::Graphs)?;
    let mut features = Vec::new();
    for (lineno, line) in fs::read_to_string(dir.join("features.csv"))?
        .lines()
        .enumerate()
    {
        if line.trim().is_empty() {
            continue;
        }
        features.push(
            parse_row(line).map_err(|e| StoreError::Features(format!("line {lineno}: {e}")))?,
        );
    }
    let mut meta: Meta = serde_json::from_str(&fs::read_to_string(dir.join("meta.json"))?)
        .map_err(StoreError::Meta)?;
    if graphs.len() != features.len() || graphs.len() != meta.family.len() {
        return Err(StoreError::Inconsistent(format!(
            "{} graphs, {} feature rows, {} family ids",
            graphs.len(),
            features.len(),
            meta.family.len()
        )));
    }
    let kind = kind_from_str(&meta.kind)
        .ok_or_else(|| StoreError::Inconsistent(format!("unknown kind {}", meta.kind)))?;
    let mut labels = LabelInterner::new();
    for (id, name) in meta.labels.names.iter().enumerate() {
        if labels.intern(name) as usize != id {
            return Err(StoreError::Inconsistent(format!(
                "meta.json repeats label {name:?}"
            )));
        }
    }

    let log = match fs::read(dir.join(LOG)) {
        Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
        read => read?,
    };
    let base_len = graphs.len();
    let mut records = Vec::new();
    let mut at = 0;
    while let Some((record, framed)) = log.get(at..).and_then(LogRecord::read) {
        at += framed;
        if let LogRecord::Insert {
            id,
            family,
            features: row,
            graph,
        } = &record
        {
            if (*id as usize) < base_len {
                continue;
            }
            let width = features.first().map_or(row.len(), Vec::len);
            if *id as usize != graphs.len() || width != row.len() {
                return Err(StoreError::Inconsistent(format!(
                    "{LOG} inserts graph {id} with {} features into {} graphs",
                    row.len(),
                    graphs.len()
                )));
            }
            graphs.push(graph.clone());
            features.push(row.clone());
            meta.family.push(*family);
        }
        records.push(record);
    }

    let size = graphs.len();
    Ok(Logged {
        data: Dataset {
            db: GraphDatabase::new(graphs, features, labels),
            family: meta.family,
            spec: DatasetSpec::new(kind, size, meta.seed),
            default_theta: meta.default_theta,
            default_ladder: meta.default_ladder,
        },
        base_len,
        records,
        intact_bytes: at as u64,
        torn: at < log.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("graphrep-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_load_round_trip() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 40, 11).generate();
        let dir = tmpdir("rt");
        save(&data, &dir).unwrap();
        let back = load(&dir).unwrap();
        assert_eq!(back.db.graphs(), data.db.graphs());
        assert_eq!(back.db.all_features(), data.db.all_features());
        assert_eq!(back.family, data.family);
        assert_eq!(back.default_theta, data.default_theta);
        assert_eq!(back.default_ladder, data.default_ladder);
        assert_eq!(back.spec.kind, data.spec.kind);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_errors() {
        assert!(matches!(
            load(Path::new("/nonexistent/graphrep-nowhere")),
            Err(StoreError::Io(_))
        ));
    }

    #[test]
    fn inconsistent_lengths_detected() {
        let data = DatasetSpec::new(DatasetKind::DblpLike, 10, 12).generate();
        let dir = tmpdir("bad");
        save(&data, &dir).unwrap();
        fs::write(dir.join("features.csv"), "1.0\n2.0\n").unwrap();
        assert!(matches!(load(&dir), Err(StoreError::Inconsistent(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            DatasetKind::DudLike,
            DatasetKind::DblpLike,
            DatasetKind::AmazonLike,
        ] {
            assert_eq!(kind_from_str(kind_to_str(kind)), Some(kind));
        }
        assert_eq!(kind_from_str("bogus"), None);
    }

    fn insert_of(data: &Dataset, id: GraphId, src: GraphId) -> LogRecord {
        LogRecord::Insert {
            id,
            family: 7,
            // Values `{}` must round-trip exactly, not just the generator's.
            features: data
                .db
                .features(src)
                .iter()
                .map(|v| v / 3.0 + 1e-17)
                .collect(),
            graph: data.db.graph(src).clone(),
        }
    }

    /// Logged inserts load as appended graphs with their exact feature rows
    /// and families; removes are returned for the index to replay; the base
    /// files are never touched by an append, and `save` drops the log.
    #[test]
    fn appended_records_load_in_order_and_save_drops_them() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 12, 13).generate();
        let dir = tmpdir("log");
        save(&data, &dir).unwrap();
        let base: Vec<Vec<u8>> = ["graphs.txt", "features.csv", "meta.json"]
            .iter()
            .map(|f| fs::read(dir.join(f)).unwrap())
            .collect();
        let script = [
            insert_of(&data, 12, 3),
            LogRecord::Remove { id: 4 },
            insert_of(&data, 13, 5),
        ];
        for r in &script {
            append(&dir, r).unwrap();
        }
        let logged = load_logged(&dir).unwrap();
        assert_eq!(logged.records, script);
        assert_eq!((logged.base_len, logged.torn), (12, false));
        assert_eq!(
            logged.intact_bytes,
            fs::metadata(dir.join(LOG)).unwrap().len()
        );
        let db = &logged.data.db;
        assert_eq!(db.len(), 14);
        assert_eq!(db.graph(13), data.db.graph(5));
        let LogRecord::Insert { features, .. } = &script[2] else {
            unreachable!()
        };
        assert_eq!(db.features(13), &features[..]);
        assert_eq!(&logged.data.family[12..], &[7, 7]);
        for (f, bytes) in ["graphs.txt", "features.csv", "meta.json"]
            .iter()
            .zip(&base)
        {
            assert_eq!(&fs::read(dir.join(f)).unwrap(), bytes, "{f} was rewritten");
        }

        save(&logged.data, &dir).unwrap();
        assert!(!dir.join(LOG).exists());
        let snap = load_logged(&dir).unwrap();
        assert_eq!((snap.base_len, snap.records.len()), (14, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The first torn or corrupt record ends the log; inserts the base
    /// already holds are skipped; an id gap is an error.
    #[test]
    fn torn_skipped_and_gapped_records() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 10, 14).generate();
        let dir = tmpdir("torn");
        save(&data, &dir).unwrap();
        append(&dir, &LogRecord::Remove { id: 1 }).unwrap();
        let intact = fs::metadata(dir.join(LOG)).unwrap().len();
        append(&dir, &insert_of(&data, 10, 2)).unwrap();
        let full = fs::read(dir.join(LOG)).unwrap();
        for cut in intact as usize..full.len() {
            fs::write(dir.join(LOG), &full[..cut]).unwrap();
            let logged = load_logged(&dir).unwrap();
            assert_eq!(
                logged.records,
                [LogRecord::Remove { id: 1 }],
                "cut at {cut}"
            );
            assert_eq!(logged.data.db.len(), 10);
            assert_eq!(logged.intact_bytes, intact);
            assert_eq!(logged.torn, cut > intact as usize);
        }
        for at in intact as usize..full.len() {
            let mut bad = full.clone();
            bad[at] ^= 0x10;
            fs::write(dir.join(LOG), &bad).unwrap();
            assert_eq!(load_logged(&dir).unwrap().records.len(), 1, "flip at {at}");
        }
        fs::write(dir.join(LOG), &full[..intact as usize + 3]).unwrap();
        truncate_log(&dir, intact).unwrap();
        append(&dir, &insert_of(&data, 10, 2)).unwrap();
        assert_eq!(load_logged(&dir).unwrap().records.len(), 2);

        fs::remove_file(dir.join(LOG)).unwrap();
        append(&dir, &insert_of(&data, 3, 2)).unwrap();
        let logged = load_logged(&dir).unwrap();
        assert!(logged.records.is_empty(), "the base already holds id 3");
        append(&dir, &insert_of(&data, 11, 2)).unwrap();
        assert!(matches!(load(&dir), Err(StoreError::Inconsistent(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
