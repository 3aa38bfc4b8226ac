//! Pinned search effort on the benchmark's probe fixture.
//!
//! Every distance and verdict is the true one whatever the heuristic, so the
//! distance sum and the accepted count hold any admissible kernel to the
//! right answers. The expansion totals pin the search itself: they were
//! recorded with the edge-class heuristic of `tables.rs` (one class per
//! processed a-node plus the free class), whose values are the same bits
//! however a frame reaches them. A kernel change that moves a total changed
//! the search, not just its speed, and must re-pin it on purpose.

use graphrep_datagen::{DatasetKind, DatasetSpec};
use graphrep_ged::{GedConfig, GedEngine, GraphProfile};

/// The `ged` layer probe of `benchmark/src/probes.rs`: 160 DudLike graphs,
/// seed 20140622, 2,000 fixed pairs.
const N: usize = 160;
const SEED: u64 = 20140622;
const PAIRS: usize = 2_000;

fn pairs() -> impl Iterator<Item = (usize, usize)> {
    (0..PAIRS).map(|p| {
        let i = (p * 7919) % N;
        let j = (p * 104_729 + 1) % N;
        (i, if i == j { (j + 1) % N } else { j })
    })
}

#[test]
fn full_distances_expand_the_recorded_states() {
    let data = DatasetSpec::new(DatasetKind::DudLike, N, SEED).generate();
    let graphs = data.db.graphs();
    let engine = GedEngine::new(GedConfig::default());
    let total: f64 = pairs()
        .map(|(i, j)| engine.distance(&graphs[i], &graphs[j]))
        .sum();
    let c = engine.counters().snapshot();
    assert_eq!(total, 14_741.0);
    assert_eq!(c.expansions, 86_771);
    assert_eq!(c.budget_fallbacks, 0);
}

#[test]
fn membership_tests_expand_the_recorded_states() {
    let data = DatasetSpec::new(DatasetKind::DudLike, N, SEED).generate();
    let graphs = data.db.graphs();
    let profiles: Vec<GraphProfile> = graphs.iter().map(GraphProfile::new).collect();
    let engine = GedEngine::new(GedConfig::default());
    let accepted = pairs()
        .filter(|&(i, j)| {
            let (g, p) = ((&graphs[i], &graphs[j]), (&profiles[i], &profiles[j]));
            engine.ask(g.0, g.1, p.0, p.1, 4.0).exact().is_some()
        })
        .count();
    let c = engine.counters().snapshot();
    assert_eq!(accepted, 652);
    assert_eq!(c.exact_searches, 400);
    assert_eq!(c.expansions, 3_146);
    assert_eq!(c.budget_fallbacks, 0);
}
