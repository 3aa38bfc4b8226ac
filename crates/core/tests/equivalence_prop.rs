//! Randomized equivalence: across random datasets, relevant-set sizes,
//! thresholds, budgets and index parameters, the NB-Index search must
//! reproduce the baseline greedy π trajectory exactly.

use graphrep_core::{
    baseline_greedy, BruteForceProvider, NbIndex, NbIndexConfig, NbTreeConfig, RelevanceQuery,
};
use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_ged::GedConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The relevance quantile spans `|L_q|` from a handful to ~35 of the 60
    /// graphs, `num_vps` includes 0 (a table with no bands to scan), and
    /// every case also runs one θ above the top ladder rung, where the
    /// session computes fresh π̂ bounds instead of reading a ladder slot.
    #[test]
    fn nbindex_equals_greedy_on_random_configs(
        seed in 0u64..10_000,
        kind_pick in 0usize..3,
        quantile_pct in 40u32..95,
        theta_steps in 1u32..8,
        k in 1usize..8,
        num_vps in 0usize..10,
        branching in 2usize..12,
    ) {
        let kind = [DatasetKind::DudLike, DatasetKind::DblpLike, DatasetKind::AmazonLike][kind_pick];
        let data = DatasetSpec::new(kind, 60, seed).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let query = RelevanceQuery::top_quantile(
            &data.db,
            data.default_query().scorer,
            f64::from(quantile_pct) / 100.0,
        );
        let relevant = query.relevant_set(&data.db);
        prop_assume!(!relevant.is_empty());

        let index = NbIndex::build(
            oracle.clone(),
            NbIndexConfig {
                num_vps,
                tree: NbTreeConfig { branching, pivot_sample: 4 * branching },
                ladder: data.default_ladder.clone(),
                seed,
            },
        );
        let session = index.start_session(relevant.clone());
        let top_rung = data.default_ladder.iter().copied().fold(0.0, f64::max);
        for theta in [f64::from(theta_steps), top_rung + 1.0] {
            let reference = baseline_greedy(
                &BruteForceProvider::new(&oracle, &relevant),
                &relevant,
                theta,
                k,
            );
            let (answer, stats) = session.run(theta, k);
            prop_assert_eq!(answer.pi_trajectory, reference.pi_trajectory);
            prop_assert_eq!(answer.covered, reference.covered);
            if theta > top_rung {
                prop_assert_eq!(stats.ladder_slot, None);
            }
        }
    }
}
