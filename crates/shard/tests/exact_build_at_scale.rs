//! Sharded answers at a size where exact builds used to run out of budget.
//!
//! On DudLike-480 the NB-Index builds ask A\* for unbounded distances that
//! a weaker heuristic could not finish within the default expansion budget;
//! the fallback values stored in a shard's vantage table then dropped home
//! members from its bands, and the coordinator answered 3 of these 12
//! queries differently from the single index. This pins both halves: every
//! build stores exact distances, and every sharded answer is the single
//! index's.

use graphrep_core::{NbIndex, NbIndexConfig, RelevanceQuery, Scorer};
use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_ged::GedConfig;
use graphrep_shard::{CoordConfig, Coordinator};

const N: usize = 480;
const DATA_SEED: u64 = 20140622;
const PARTITION_SEED: u64 = 20140622;
const SHARDS: usize = 4;
const QUANTILE: f64 = 0.75;
const QUERIES: usize = 12;

#[test]
fn dud_480_builds_are_exact_and_shards_answer_like_the_single_index() {
    let data = DatasetSpec::new(DatasetKind::DudLike, N, DATA_SEED).generate();
    let scorer = Scorer::MeanOfDims((0..data.db.dims().max(1)).collect());
    let relevant = RelevanceQuery::top_quantile(&data.db, scorer, QUANTILE).relevant_set(&data.db);

    let single = NbIndex::build(
        data.db.oracle(GedConfig::default()),
        NbIndexConfig {
            ladder: data.default_ladder.clone(),
            ..NbIndexConfig::default()
        },
    );
    let coord = Coordinator::build(
        &data.db,
        GedConfig::default(),
        &CoordConfig {
            shards: SHARDS,
            seed: PARTITION_SEED,
            ladder: data.default_ladder.clone(),
        },
    );
    let single_fallbacks = single
        .oracle()
        .engine()
        .counters()
        .snapshot()
        .budget_fallbacks;
    let shard_fallbacks: Vec<u64> = coord
        .snapshots()
        .iter()
        .map(|s| s.budget_fallbacks())
        .collect();
    assert_eq!(single_fallbacks, 0, "single build fell back");
    assert_eq!(shard_fallbacks, vec![0; SHARDS], "shard builds fell back");

    // `sharded_refine`'s query shape: θ over [0.5, 1.6]·θ₀, k cycling 1..=20.
    let reference = single.start_session(relevant.clone());
    let session = coord.session(relevant);
    for j in 0..QUERIES {
        let theta = data.default_theta * (0.5 + 1.1 * j as f64 / QUERIES as f64);
        let k = 1 + (7 * j) % 20;
        let (want, _) = reference.run(theta, k);
        let (got, _) = session.run(theta, k);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "query {j} (θ = {theta}, k = {k}) diverged"
        );
    }
}
