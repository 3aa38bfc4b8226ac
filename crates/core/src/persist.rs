//! Index persistence: save the offline-built NB-Index parts and reattach a
//! distance oracle on load.
//!
//! The vantage orderings, NB-Tree, and threshold ladder are pure data; the
//! oracle (graphs + engine) is reconstructed by the caller — typically from
//! the same database files — so a saved index skips the entire NP-hard build
//! phase on restart.
//!
//! There is one format: the succinct checksummed `index.bin` layout in
//! [`crate::binfmt`] ([`NbIndex::save_bin`] / [`NbIndex::load_bin`]). It
//! lives in a dataset directory as `index.bin`, and the dataset registry
//! (`graphrep_serve::registry`) is its one writer: it persists only the
//! build every open of that directory would make — exact GED, default
//! parameters — so whatever loads the file serves the exact metric the
//! paper's bounds assume.

use crate::nbindex::{BuildStats, NbIndex};
use graphrep_ged::DistanceOracle;
use std::sync::Arc;

/// Errors raised when loading a persisted index.
#[derive(Debug)]
pub enum PersistError {
    /// The file does not start with the `GRNBIDX1` magic — not an index
    /// file, or one written byte-swapped (the magic is byte-order sensitive
    /// on purpose, so a wrong-endian writer is caught here).
    Magic {
        /// The first eight bytes actually found.
        got: [u8; 8],
    },
    /// The binary file is shorter than its header + recorded payload length
    /// — a torn or partial write.
    Truncated {
        /// Bytes the header claims the file holds.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload bytes do not hash to the checksum recorded in the header.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as read.
        got: u64,
    },
    /// The header verified but the payload violates the format's shape
    /// constraints (a bad length, index out of range, unknown tag, …).
    Corrupt(String),
    /// The index was built over a different number of graphs.
    GraphCountMismatch {
        /// Count recorded in the persisted index.
        expected: usize,
        /// Count held by the supplied oracle.
        got: usize,
    },
    /// Unsupported format version.
    Version(u32),
    /// The snapshot's mutation epoch does not match the expected one — the
    /// database has mutated since the snapshot was written.
    EpochMismatch {
        /// Epoch recorded in the persisted index.
        snapshot: u64,
        /// Epoch the caller knows the database to be at.
        expected: u64,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Magic { got } => {
                write!(f, "not a binary index: magic bytes {got:02x?}")
            }
            PersistError::Truncated { expected, got } => {
                write!(f, "truncated index file: {got} of {expected} byte(s)")
            }
            PersistError::Checksum { expected, got } => write!(
                f,
                "index payload checksum mismatch: header says {expected:016x}, payload hashes to {got:016x}"
            ),
            PersistError::Corrupt(why) => write!(f, "corrupt index payload: {why}"),
            PersistError::GraphCountMismatch { expected, got } => {
                write!(f, "index built over {expected} graphs, oracle has {got}")
            }
            PersistError::Version(v) => write!(f, "unsupported index version {v}"),
            PersistError::EpochMismatch { snapshot, expected } => write!(
                f,
                "stale index snapshot: written at mutation epoch {snapshot}, database is at {expected}"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

/// Version 2 added the mutation `epoch` field plus the NB-Tree tombstone
/// state. Version 3 changed no byte of the layout: it retires every file an
/// older release could write, because those releases also wrote `index.bin`
/// from builds under non-default parameters or a non-metric hybrid distance,
/// whose bounds break Thms 3–8 and which a version-2 file cannot be told
/// apart from. Every load site answers the typed [`PersistError::Version`]
/// by rebuilding from the dataset, so such a file is replaced once.
pub(crate) const VERSION: u32 = 3;

impl NbIndex {
    /// Serializes the index structure (not the oracle) to the succinct
    /// binary format (`index.bin`, see [`crate::binfmt`]).
    pub fn save_bin(&self) -> Vec<u8> {
        crate::binfmt::encode_index(self.epoch(), self.vantage(), self.tree(), self.ladder())
    }

    /// Restores an index from [`NbIndex::save_bin`] output, attaching
    /// `oracle` (which must hold the same database, in the same order). The
    /// snapshot is accepted at whatever epoch it records.
    pub fn load_bin(bytes: &[u8], oracle: Arc<DistanceOracle>) -> Result<Self, PersistError> {
        Self::load_bin_checked(bytes, oracle, None)
    }

    /// [`NbIndex::load_bin`] that additionally rejects snapshots whose
    /// recorded mutation epoch differs from `expected`.
    pub fn load_bin_at_epoch(
        bytes: &[u8],
        oracle: Arc<DistanceOracle>,
        expected: u64,
    ) -> Result<Self, PersistError> {
        Self::load_bin_checked(bytes, oracle, Some(expected))
    }

    /// The graph-count and epoch guards, then reassembly of the decoded
    /// parts around the supplied oracle.
    fn load_bin_checked(
        bytes: &[u8],
        oracle: Arc<DistanceOracle>,
        expected_epoch: Option<u64>,
    ) -> Result<Self, PersistError> {
        let d = crate::binfmt::decode_index(bytes)?;
        if d.graphs != oracle.len() {
            return Err(PersistError::GraphCountMismatch {
                expected: d.graphs,
                got: oracle.len(),
            });
        }
        if let Some(expected) = expected_epoch {
            if d.epoch != expected {
                return Err(PersistError::EpochMismatch {
                    snapshot: d.epoch,
                    expected,
                });
            }
        }
        Ok(Self::from_parts(
            oracle,
            d.vantage,
            d.tree,
            d.ladder,
            BuildStats::default(),
            d.epoch,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nbindex::NbIndexConfig;
    use graphrep_datagen::{DatasetKind, DatasetSpec};
    use graphrep_ged::GedConfig;

    #[test]
    fn save_load_round_trip_preserves_answers() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 60, 901).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let index = NbIndex::build(
            oracle,
            NbIndexConfig {
                num_vps: 4,
                ladder: data.default_ladder.clone(),
                ..Default::default()
            },
        );
        let relevant = data.default_query().relevant_set(&data.db);
        let (want, _) = index.query(relevant.clone(), data.default_theta, 4);

        let bin = index.save_bin();
        let fresh_oracle = data.db.oracle(GedConfig::default());
        let loaded = NbIndex::load_bin(&bin, fresh_oracle).unwrap();
        let (got, _) = loaded.query(relevant, data.default_theta, 4);
        assert_eq!(got.ids, want.ids);
        assert_eq!(got.pi_trajectory, want.pi_trajectory);
    }

    /// Save → load → save must reproduce the exact payload bytes, the
    /// decoded parts must equal the in-memory ones, and the loaded index
    /// must answer a fixed query byte-identically (the full `AnswerSet`
    /// debug form covers ids, coverage, and the π trajectory).
    #[test]
    fn round_trip_is_byte_identical() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 50, 904).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let index = NbIndex::build(
            oracle,
            NbIndexConfig {
                num_vps: 4,
                ladder: data.default_ladder.clone(),
                ..Default::default()
            },
        );
        let relevant = data.default_query().relevant_set(&data.db);
        let (want, _) = index.query(relevant.clone(), data.default_theta, 5);

        let bin = index.save_bin();
        let loaded = NbIndex::load_bin(&bin, data.db.oracle(GedConfig::default())).unwrap();
        assert_eq!(
            loaded.save_bin(),
            bin,
            "re-serializing a loaded index must be byte-identical"
        );
        assert_eq!(loaded.vantage(), index.vantage());
        assert_eq!(loaded.tree(), index.tree());
        assert_eq!(loaded.ladder(), index.ladder());
        let (got, _) = loaded.query(relevant, data.default_theta, 5);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "loaded index must answer byte-identically"
        );
    }

    /// A file of the previous version — one an older release may have
    /// written from a non-default or non-metric build — is the typed
    /// [`PersistError::Version`], never a silent load.
    #[test]
    fn version_mismatch_is_typed_error() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 12, 905).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let index = NbIndex::build(oracle, NbIndexConfig::default());
        let mut old = index.save_bin();
        assert_eq!(old[8..12], VERSION.to_le_bytes(), "version at offset 8..12");
        old[8..12].copy_from_slice(&2u32.to_le_bytes());
        match NbIndex::load_bin(&old, data.db.oracle(GedConfig::default())) {
            Err(PersistError::Version(v)) => assert_eq!(v, 2),
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn graph_count_mismatch_rejected() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 40, 902).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let index = NbIndex::build(oracle, NbIndexConfig::default());
        let bin = index.save_bin();
        let smaller = data.db.prefix(10).oracle(GedConfig::default());
        match NbIndex::load_bin(&bin, smaller) {
            Err(PersistError::GraphCountMismatch { expected, got }) => {
                assert_eq!(expected, 40);
                assert_eq!(got, 10);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    /// Foreign bytes (here a JSON document, the format older releases could
    /// also dump) are the typed `Magic` error.
    #[test]
    fn garbage_payload_rejected() {
        let data = DatasetSpec::new(DatasetKind::DudLike, 10, 903).generate();
        for garbage in [
            &b"{not json"[..],
            b"{\"version\":2,\"graphs\":10,\"epoch\":0}",
        ] {
            assert!(matches!(
                NbIndex::load_bin(garbage, data.db.oracle(GedConfig::default())),
                Err(PersistError::Magic { .. })
            ));
        }
    }

    /// Builds a mutated index (insert + remove, so tombstones and a non-zero
    /// epoch are exercised) plus the dataset it came from.
    fn mutated_index(size: usize, seed: u64) -> (graphrep_datagen::Dataset, NbIndex) {
        let data = DatasetSpec::new(DatasetKind::DudLike, size, seed).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let mut index = NbIndex::build(
            oracle,
            NbIndexConfig {
                num_vps: 4,
                ladder: data.default_ladder.clone(),
                ..Default::default()
            },
        );
        index.remove(1).unwrap();
        index.remove(size as u32 / 2).unwrap();
        (data, index)
    }

    /// Binary save → load must preserve answers, the epoch, tombstones, and
    /// re-serialize to the exact same bytes; the file must also be several
    /// times smaller than the in-memory index it restores (it stores the
    /// vantage columns once and rederives the sorted views on load).
    #[test]
    fn bin_round_trip_is_byte_identical_and_smaller() {
        let (data, index) = mutated_index(60, 910);
        let relevant = data.default_query().relevant_set(&data.db);
        let (want, _) = index.query(relevant.clone(), data.default_theta, 5);

        let bin = index.save_bin();
        assert!(
            bin.len() * 3 < index.memory_bytes(),
            "index.bin ({}) should be well under a third of the index in memory ({})",
            bin.len(),
            index.memory_bytes()
        );

        let loaded = NbIndex::load_bin(&bin, data.db.oracle(GedConfig::default())).unwrap();
        assert_eq!(loaded.epoch(), index.epoch());
        assert!(!loaded.tree().is_live(1) && !loaded.tree().is_live(30));
        assert_eq!(loaded.save_bin(), bin, "re-encoding must be byte-identical");
        let (got, _) = loaded.query(relevant, data.default_theta, 5);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn bin_epoch_guard_rejects_other_epochs() {
        let (data, index) = mutated_index(30, 911);
        let bin = index.save_bin();
        let at = index.epoch();
        assert!(NbIndex::load_bin_at_epoch(&bin, data.db.oracle(GedConfig::default()), at).is_ok());
        match NbIndex::load_bin_at_epoch(&bin, data.db.oracle(GedConfig::default()), at + 3) {
            Err(PersistError::EpochMismatch { snapshot, expected }) => {
                assert_eq!(snapshot, at);
                assert_eq!(expected, at + 3);
            }
            other => panic!("expected EpochMismatch, got {other:?}"),
        }
    }

    /// Satellite: a file cut short mid-payload is the typed `Truncated`
    /// error — at every possible cut point, never a panic.
    #[test]
    fn bin_truncation_is_typed_error() {
        let (data, index) = mutated_index(20, 912);
        let bin = index.save_bin();
        for cut in [0, 4, 12, 27, 28, bin.len() / 2, bin.len() - 1] {
            match NbIndex::load_bin(&bin[..cut], data.db.oracle(GedConfig::default())) {
                Err(PersistError::Truncated { expected, got }) => {
                    assert_eq!(got, cut);
                    assert!(expected > cut, "cut {cut}: expected {expected}");
                }
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    /// Satellite: a flipped byte in the stored checksum (and equally in the
    /// payload it vouches for) is the typed `Checksum` error.
    #[test]
    fn bin_checksum_flip_is_typed_error() {
        let (data, index) = mutated_index(20, 913);
        let bin = index.save_bin();
        // Flip one byte of the stored checksum (header offset 20..28)…
        let mut bad_header = bin.clone();
        bad_header[21] ^= 0xff;
        match NbIndex::load_bin(&bad_header, data.db.oracle(GedConfig::default())) {
            Err(PersistError::Checksum { expected, got }) => assert_ne!(expected, got),
            other => panic!("expected Checksum, got {other:?}"),
        }
        // …and one byte of the payload itself.
        let mut bad_payload = bin.clone();
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0x55;
        assert!(matches!(
            NbIndex::load_bin(&bad_payload, data.db.oracle(GedConfig::default())),
            Err(PersistError::Checksum { .. })
        ));
    }

    /// Satellite: a bumped version field in the binary header is the typed
    /// `Version` error.
    #[test]
    fn bin_wrong_version_is_typed_error() {
        let (data, index) = mutated_index(20, 914);
        let mut bin = index.save_bin();
        bin[8] = 99; // version u32 LE lives at header offset 8..12
        match NbIndex::load_bin(&bin, data.db.oracle(GedConfig::default())) {
            Err(PersistError::Version(v)) => assert_eq!(v, 99),
            other => panic!("expected Version, got {other:?}"),
        }
    }

    /// Satellite: byte-swapped magic (what a big-endian writer would emit) is
    /// the typed `Magic` error.
    #[test]
    fn bin_wrong_endian_magic_is_typed_error() {
        let (data, index) = mutated_index(20, 915);
        let mut swapped = index.save_bin();
        swapped[..8].reverse();
        match NbIndex::load_bin(&swapped, data.db.oracle(GedConfig::default())) {
            Err(PersistError::Magic { got }) => assert_eq!(&got, b"1XDIBNRG"),
            other => panic!("expected Magic, got {other:?}"),
        }
    }

    /// An intact, correctly checksummed header over a shape-violating
    /// payload (here: trailing bytes after a complete index) is the typed
    /// `Corrupt` error — the checksum vouches for the bytes, the shape
    /// validation for their meaning.
    #[test]
    fn bin_shape_violation_is_typed_corrupt_error() {
        let (data, index) = mutated_index(20, 916);
        let mut bad = index.save_bin();
        bad.push(0x00);
        let payload_len = (bad.len() - crate::binfmt::HEADER_LEN) as u64;
        bad[12..20].copy_from_slice(&payload_len.to_le_bytes());
        let sum = crate::binfmt::fnv1a64(&bad[crate::binfmt::HEADER_LEN..]);
        bad[20..28].copy_from_slice(&sum.to_le_bytes());
        match NbIndex::load_bin(&bad, data.db.oracle(GedConfig::default())) {
            Err(PersistError::Corrupt(why)) => {
                assert!(why.contains("trailing"), "unexpected reason: {why}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
