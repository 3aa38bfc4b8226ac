//! Differential persistence: the binary round-trip and the in-memory index
//! must be indistinguishable — across dataset kinds and a randomized
//! insert/remove mutation script, with decoded parts, answers and
//! re-encoded bytes compared at every mutation epoch.

use graphrep_core::{fnv1a64, NbIndex, NbIndexConfig};
use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_ged::GedConfig;
use graphrep_graph::generate::mutate;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Queries both views of the same epoch (in-memory and binary-reloaded) and
/// asserts equal parts, byte-identical answers and re-encode stability.
fn assert_formats_agree(
    index: &NbIndex,
    relevant: &[u32],
    theta: f64,
    k: usize,
) -> Result<(), TestCaseError> {
    let bin = index.save_bin();
    let from_bin =
        NbIndex::load_bin_at_epoch(&bin, index.oracle_arc(), index.epoch()).expect("bin load");

    // The decoded parts are the in-memory parts, and re-encoding them
    // reproduces the exact bytes.
    prop_assert_eq!(from_bin.vantage(), index.vantage(), "vantage table drifted");
    prop_assert_eq!(from_bin.tree(), index.tree(), "NB-Tree drifted");
    prop_assert_eq!(
        from_bin.ladder(),
        index.ladder(),
        "threshold ladder drifted"
    );
    prop_assert_eq!(from_bin.save_bin(), bin, "bin→bin re-encode drifted");

    if relevant.is_empty() {
        return Ok(());
    }
    let (want, _) = index.query(relevant.to_vec(), theta, k);
    let (via_bin, _) = from_bin.query(relevant.to_vec(), theta, k);
    prop_assert_eq!(
        format!("{via_bin:?}"),
        format!("{want:?}"),
        "binary-loaded answers differ"
    );
    Ok(())
}

/// The binary format's reason to exist, as a size (deterministic, unlike
/// load times): at the default index parameters it is at most 40 bytes per
/// graph (reads 25 B/graph).
#[test]
fn binary_index_is_succinct() {
    const MAX_BIN_BYTES_PER_GRAPH: usize = 40;
    let n = 120;
    let data = DatasetSpec::new(DatasetKind::DudLike, n, 42).generate();
    let index = NbIndex::build(
        data.db.oracle(GedConfig::default()),
        NbIndexConfig {
            ladder: data.default_ladder.clone(),
            ..Default::default()
        },
    );
    let bin = index.save_bin().len();
    assert!(
        bin <= MAX_BIN_BYTES_PER_GRAPH * n,
        "index.bin is {bin} bytes for {n} graphs: over {MAX_BIN_BYTES_PER_GRAPH} per graph"
    );
}

/// The bytes of the default index over a fixed dataset (the server's build:
/// library defaults plus the dataset's ladder), pinned by length and
/// checksum. Any change to the format, the encoder, or the build's
/// decisions moves them; a change that must leave `index.bin` alone must
/// leave this test alone.
#[test]
fn default_index_bin_is_golden() {
    const GOLDEN_LEN: usize = 1364;
    const GOLDEN_FNV1A64: u64 = 17_622_176_078_989_013_514;
    let data = DatasetSpec::new(DatasetKind::DudLike, 60, 7).generate();
    let index = NbIndex::build(
        data.db.oracle(GedConfig::default()),
        NbIndexConfig {
            ladder: data.default_ladder.clone(),
            ..Default::default()
        },
    );
    let bin = index.save_bin();
    assert_eq!(
        (bin.len(), fnv1a64(&bin)),
        (GOLDEN_LEN, GOLDEN_FNV1A64),
        "index.bin bytes changed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn binary_and_memory_agree_at_every_epoch(
        seed in 0u64..10_000,
        kind_pick in 0usize..3,
        script in proptest::collection::vec(0u8..3, 1..5),
        k in 1usize..6,
    ) {
        let kind =
            [DatasetKind::DudLike, DatasetKind::DblpLike, DatasetKind::AmazonLike][kind_pick];
        let data = DatasetSpec::new(kind, 40, seed).generate();
        let theta = data.default_theta;
        let oracle = data.db.oracle(GedConfig::default());
        let mut index = NbIndex::build(
            oracle,
            NbIndexConfig {
                num_vps: 4,
                ladder: data.default_ladder.clone(),
                ..Default::default()
            },
        );
        let base_relevant = data.default_query().relevant_set(&data.db);
        prop_assume!(!base_relevant.is_empty());

        // Label alphabets for the insert op, drawn from the dataset itself.
        let mut node_alphabet: Vec<u32> = data.db.graph(0).node_labels().to_vec();
        node_alphabet.sort_unstable();
        node_alphabet.dedup();
        let mut edge_alphabet: Vec<u32> =
            data.db.graph(0).edges().iter().map(|e| e.label).collect();
        edge_alphabet.sort_unstable();
        edge_alphabet.dedup();
        if edge_alphabet.is_empty() {
            edge_alphabet.push(0);
        }

        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1FF);
        let live_relevant = |index: &NbIndex| -> Vec<u32> {
            base_relevant
                .iter()
                .copied()
                .filter(|&g| index.tree().is_live(g))
                .collect()
        };

        // Epoch 0 (fresh build), then after every mutation.
        assert_formats_agree(&index, &live_relevant(&index), theta, k)?;
        for op in script {
            match op {
                // Two insert variants (different perturbation depths) and
                // one remove, so scripts mix epochs of both kinds.
                0 | 1 => {
                    let src = rng.gen_range(0..data.db.len());
                    let g = mutate(
                        &mut rng,
                        data.db.graph(src as u32),
                        1 + usize::from(op),
                        &node_alphabet,
                        &edge_alphabet,
                    );
                    index.insert(g).expect("insert");
                }
                _ => {
                    let live: Vec<u32> = (0..index.tree().len() as u32)
                        .filter(|&g| index.tree().is_live(g))
                        .collect();
                    prop_assume!(!live.is_empty());
                    let victim = live[rng.gen_range(0..live.len())];
                    index.remove(victim).expect("remove");
                }
            }
            assert_formats_agree(&index, &live_relevant(&index), theta, k)?;
        }
    }
}
