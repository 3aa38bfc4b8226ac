//! Runtime verification of the paper-derived invariants, compiled only with
//! `--features invariant-audit`.
//!
//! Two halves:
//! 1. End-to-end queries over every dataset kind with the audits live — every
//!    `audit_invariant!` along the build/query path (NB-Tree containment,
//!    Thm 4/5 bound admissibility, π̂ monotonicity, greedy submodularity,
//!    oracle counter conservation) must hold.
//! 2. A non-vacuity proof: deliberately corrupting one π̂ entry must make the
//!    audit fire, demonstrating the checks actually observe the structures.
#![cfg(feature = "invariant-audit")]

use graphrep::core::{NbIndex, NbIndexConfig, PiHatVectors};
use graphrep::datagen::{DatasetKind, DatasetSpec};
use graphrep::ged::GedConfig;
use graphrep::metric::Bitset;

fn kinds() -> [DatasetKind; 3] {
    [
        DatasetKind::DudLike,
        DatasetKind::DblpLike,
        DatasetKind::AmazonLike,
    ]
}

fn build_index(data: &graphrep::datagen::Dataset) -> NbIndex {
    let oracle = data.db.oracle(GedConfig::default());
    NbIndex::build(
        oracle,
        NbIndexConfig {
            num_vps: 6,
            ladder: data.default_ladder.clone(),
            ..Default::default()
        },
    )
}

/// Every dataset kind runs build + query with all audits enabled; reaching
/// the assertions means no `audit_invariant!` fired anywhere on the path.
#[test]
fn audited_end_to_end_query_per_dataset_kind() {
    for kind in kinds() {
        let data = DatasetSpec::new(kind, 100, 901).generate();
        let index = build_index(&data);
        let relevant = data.default_query().relevant_set(&data.db);
        let k = 5.min(relevant.len());
        let (answer, stats) = index.query(relevant.clone(), data.default_theta, k);
        assert!(answer.len() <= k, "{}", kind.name());
        assert!(!relevant.is_empty(), "{}", kind.name());
        assert!(
            stats.verified_graphs >= answer.len() as u64,
            "{}",
            kind.name()
        );
    }
}

/// Repeated queries against one index keep the oracle's conservation
/// invariant across a growing cache (hits + computations + rejections must
/// track requests over multiple sessions).
#[test]
fn audited_repeated_queries_share_an_oracle() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 80, 902).generate();
    let index = build_index(&data);
    let relevant = data.default_query().relevant_set(&data.db);
    for theta in [
        data.default_theta * 0.5,
        data.default_theta,
        data.default_theta * 1.5,
    ] {
        let (answer, _) = index.query(relevant.clone(), theta, 4);
        assert!(answer.len() <= 4);
    }
}

/// Non-vacuity: corrupting a single π̂ entry must trip the audit. This
/// proves the green runs above are meaningful — the checks can fail.
#[test]
fn corrupted_pihat_trips_the_audit() {
    let data = DatasetSpec::new(DatasetKind::DudLike, 60, 903).generate();
    let index = build_index(&data);
    let relevant = data.default_query().relevant_set(&data.db);
    assert!(!relevant.is_empty());
    let tree = index.tree();
    let rel_by_id = Bitset::from_indices(tree.len(), relevant.iter().map(|&g| g as usize));
    let projection = index.vantage().project(&rel_by_id);
    let pihat = PiHatVectors::initialize(
        index.vantage(),
        tree,
        &relevant,
        &projection,
        index.ladder(),
    );
    let rel_pos = Bitset::from_indices(
        tree.len(),
        relevant.iter().map(|&g| tree.pos_of(g) as usize),
    );
    // The uncorrupted vectors pass (initialize already audited once).
    pihat.audit(tree, &rel_pos);

    let mut corrupted = pihat.clone();
    corrupted.audit_corrupt_graph_count(tree.pos_of(relevant[0]), 0, u32::MAX);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        corrupted.audit(tree, &rel_pos);
    }));
    let payload = result.expect_err("corrupted π̂ must fail the audit");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("invariant-audit violation"),
        "unexpected panic payload: {msg:?}"
    );
}
