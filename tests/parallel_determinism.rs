//! Determinism contract of the parallel GED execution layer: every
//! rayon-parallel phase (vantage build, NB-Tree clustering, the insert
//! sweeps, the offline baselines' neighborhood initialization) must produce
//! bitwise-identical results at any thread count. RNG-driven decisions stay
//! on the sequential control path; only pure distance evaluations fan out.
//! A session open and a run enter no parallel region, so the query halves of
//! these tests pin that an index built at any thread count answers alike.

use graphrep::core::{NbIndex, NbIndexConfig};
use graphrep::datagen::{DatasetKind, DatasetSpec};
use graphrep::ged::GedConfig;
use rayon::ThreadPoolBuilder;

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
        .install(f)
}

/// Builds the index and answers one query entirely under an `n`-thread pool,
/// returning the serialized index plus the exact answer.
fn build_and_query(
    n_threads: usize,
    kind: DatasetKind,
) -> (Vec<u8>, graphrep::core::AnswerSet, Vec<f64>) {
    with_threads(n_threads, || {
        let data = DatasetSpec::new(kind, 120, 90125).generate();
        let oracle = data.db.oracle(GedConfig::default());
        let index = NbIndex::build(
            oracle,
            NbIndexConfig {
                num_vps: 6,
                ladder: data.default_ladder.clone(),
                seed: 0xabcd,
                ..NbIndexConfig::default()
            },
        );
        let relevant = data.default_query().relevant_set(&data.db);
        let session = index.start_session(relevant);
        let (answer, _) = session.run(data.default_theta, 6);
        // A second run at a refined θ exercises the fresh-bounds path too.
        let (refined, _) = session.run(data.default_theta * 0.8, 6);
        let mut pis = answer.pi_trajectory.clone();
        pis.extend(&refined.pi_trajectory);
        (index.save_bin(), answer, pis)
    })
}

#[test]
fn index_and_answers_identical_at_any_thread_count() {
    let (bin1, answer1, pis1) = build_and_query(1, DatasetKind::DudLike);
    for threads in [2, 4, 8] {
        let (bin_n, answer_n, pis_n) = build_and_query(threads, DatasetKind::DudLike);
        assert_eq!(
            bin_n, bin1,
            "serialized index diverged at {threads} threads"
        );
        assert_eq!(
            answer_n, answer1,
            "answer set diverged at {threads} threads"
        );
        // π values must be bitwise equal, not merely close.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&pis_n), bits(&pis1), "π diverged at {threads} threads");
    }
}

#[test]
fn baseline_greedy_thread_independent() {
    use graphrep::core::{baseline_greedy, BruteForceProvider};
    let data = DatasetSpec::new(DatasetKind::DblpLike, 90, 7).generate();
    let oracle = data.db.oracle(GedConfig::default());
    let relevant = data.default_query().relevant_set(&data.db);
    let theta = data.default_theta;
    let provider = BruteForceProvider::new(&oracle, &relevant);
    let eager1 = with_threads(1, || baseline_greedy(&provider, &relevant, theta, 5));
    for threads in [4, 8] {
        let eager_n = with_threads(threads, || baseline_greedy(&provider, &relevant, theta, 5));
        assert_eq!(eager_n, eager1);
    }
}

#[test]
fn run_stats_distance_accounting_consistent_across_threads() {
    // The *number of engine calls* for a fresh cache is also deterministic:
    // candidate verification is pure, and each unique pair computes once.
    let counts: Vec<u64> = [1usize, 4]
        .iter()
        .map(|&threads| {
            with_threads(threads, || {
                let data = DatasetSpec::new(DatasetKind::AmazonLike, 100, 11).generate();
                let oracle = data.db.oracle(GedConfig::default());
                let index = NbIndex::build(
                    oracle.clone(),
                    NbIndexConfig {
                        num_vps: 5,
                        ladder: data.default_ladder.clone(),
                        ..NbIndexConfig::default()
                    },
                );
                oracle.clear();
                let relevant = data.default_query().relevant_set(&data.db);
                let (_, stats) = index.query(relevant, data.default_theta, 5);
                let s = oracle.stats();
                assert_eq!(
                    stats.distance_calls,
                    s.distance_computations + s.within_rejections,
                    "RunStats must equal the oracle's engine-call count"
                );
                stats.distance_calls
            })
        })
        .collect();
    assert_eq!(
        counts[0], counts[1],
        "engine-call count diverged across thread counts"
    );
}
